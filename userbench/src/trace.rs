//! The traced run: per-layer metrics, measured from outside by timing the
//! benchmark's own calls into each crate's public functions.
//!
//! The benchmark can only wrap the outermost call of a wire request, so it
//! replays one window of identical requests one layer down at a time, each
//! on a fresh tier built from the same snapshot: `RemoteEngine`, then
//! `NetClient`, `RouterEngine`, `ServeEngine` and finally the
//! `ModelSnapshot` stages. A layer's self time is its span minus the next
//! layer's span for the same request.

use crate::inputs::{batch_digest, digest, Corpus, ShadowSessions, Stream, K};
use crate::json::Json;
use crate::run::{self, BatchDraw, Outcome};
use crate::stats::{nest_layers, percentile, self_times, Span, SpanLog};
use crate::tier::{self, Server, ServerFinal, SetupSplit, Tier, REPLICAS};
use crate::Workload;
use sqp_net::{BatchAnswer, BatchEntry, NetClient, RemoteOutcome, ServeAnswer, WireStats};
use sqp_router::{RouterConfig, RouterEngine};
use sqp_serve::{EngineConfig, ModelSnapshot, ServeEngine, SuggestRequest, Suggestion};
use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Every per-layer metric: name, unit and which direction is better.
pub const PER_LAYER: [(&str, &str, &str); 44] = [
    ("gen.late_p99_us", "us", "lower"),
    ("gen.sent", "count", "higher"),
    ("gen.answered", "count", "higher"),
    ("remote.call_p50_us", "us", "lower"),
    ("remote.self_p50_us", "us", "lower"),
    ("remote.retries", "count", "lower"),
    ("remote.reconnects", "count", "lower"),
    ("remote.failovers", "count", "lower"),
    ("remote.degraded", "count", "lower"),
    ("remote.sheds", "count", "lower"),
    ("net.rtt_p50_us", "us", "lower"),
    ("net.self_p50_us", "us", "lower"),
    ("net.batch_rtt_p50_us", "us", "lower"),
    ("net.batch_self_p50_us", "us", "lower"),
    ("net.reply_bytes_per_op", "bytes", "lower"),
    ("net.frames_in", "count", "higher"),
    ("net.replies_out", "count", "higher"),
    ("net.queue_shed", "count", "lower"),
    ("net.engine_shed", "count", "lower"),
    ("net.protocol_errors", "count", "lower"),
    ("router.call_p50_us", "us", "lower"),
    ("router.self_p50_us", "us", "lower"),
    ("router.rolling_publish_ms", "ms", "lower"),
    ("router.publish_ms", "ms", "lower"),
    ("serve.call_p50_us", "us", "lower"),
    ("serve.self_p50_us", "us", "lower"),
    ("serve.batch_p50_us", "us", "lower"),
    ("serve.resolve_ns", "ns", "lower"),
    ("serve.render_ns", "ns", "lower"),
    ("serve.shed", "count", "lower"),
    ("serve.nonempty_share", "ratio", "higher"),
    ("serve.active_sessions", "count", "lower"),
    ("core.recommend_ns", "ns", "lower"),
    ("core.train_ms", "ms", "lower"),
    ("core.model_bytes", "bytes", "lower"),
    ("sessions.segment_ms", "ms", "lower"),
    ("sessions.aggregate_ms", "ms", "lower"),
    ("sessions.reduce_ms", "ms", "lower"),
    ("store.save_ms", "ms", "lower"),
    ("store.load_ms", "ms", "lower"),
    ("store.snapshot_bytes", "bytes", "lower"),
    ("trace.window_ops", "count", "higher"),
    ("trace.stage_cover_share", "ratio", "higher"),
    ("trace.layers_agree_share", "ratio", "higher"),
];

/// Single requests in the replayed window.
const WINDOW: usize = 20_000;
/// Batches in the replayed window.
const WINDOW_BATCHES: usize = 64;

/// The replayed window: `TRACK_SUGGEST`s `(user, query, now)`, then
/// batches at one shared `now`.
struct Window {
    singles: Vec<(u64, String, u64)>,
    batches: Vec<Vec<SuggestRequest>>,
    batch_now: u64,
}

fn window(w: Workload, corpus: &Corpus, seed: u64) -> Window {
    let mut draw = BatchDraw::new(seed);
    if w == Workload::BatchDeep {
        let pop = run::population(&corpus.test);
        let singles = run::warm_ops(&pop)
            .into_iter()
            .take(WINDOW)
            .map(|(u, q, now)| (u, q.to_owned(), now))
            .collect();
        let users: Vec<u64> = pop.iter().map(|(u, _)| *u).collect();
        let batches = (0..WINDOW_BATCHES).map(|_| draw.next(&users)).collect();
        return Window {
            singles,
            batches,
            batch_now: run::BATCH_NOW,
        };
    }
    // Stream workloads: the first requests of the stream, then batches over
    // the users whose sessions are still live at the window's end.
    let stream = Stream::new(&corpus.test);
    let singles: Vec<(u64, String, u64)> = (0..WINDOW)
        .map(|i| {
            let (u, q, now) = stream.op(i);
            (u, q.to_owned(), now)
        })
        .collect();
    let batch_now = singles.last().map_or(0, |s| s.2);
    let mut shadow = ShadowSessions::default();
    for (u, q, now) in &singles {
        shadow.track(*u, q, *now);
    }
    let mut live: Vec<u64> = singles
        .iter()
        .map(|(u, _, _)| *u)
        .filter(|u| shadow.context(*u, batch_now).is_some())
        .collect();
    live.sort_unstable();
    live.dedup();
    let batches = (0..WINDOW_BATCHES).map(|_| draw.next(&live)).collect();
    Window {
        singles,
        batches,
        batch_now,
    }
}

/// One layer's replay of the window: its spans (op id = single index, or
/// `WINDOW + batch index`) and each op's answer digest.
struct Replay {
    spans: Vec<Span>,
    digests: Vec<u64>,
}

fn batch_op(b: usize) -> u64 {
    (WINDOW + b) as u64
}

/// Replay the window through `single` and `batch`, one span per call.
fn replay(
    win: &Window,
    name: &'static str,
    batch_name: &'static str,
    mut single: impl FnMut(u64, &str, u64) -> Vec<Suggestion>,
    mut batch: impl FnMut(&[SuggestRequest], u64) -> Vec<Vec<Suggestion>>,
) -> Replay {
    let mut log = SpanLog::new(Instant::now());
    let mut digests = Vec::with_capacity(win.singles.len() + win.batches.len());
    for (i, (u, q, now)) in win.singles.iter().enumerate() {
        let t0 = Instant::now();
        let answer = single(*u, q, *now);
        log.record(name, i as u64, None, t0, Instant::now());
        digests.push(digest(&answer));
    }
    for (b, reqs) in win.batches.iter().enumerate() {
        let t0 = Instant::now();
        let answer = batch(reqs, win.batch_now);
        log.record(batch_name, batch_op(b), None, t0, Instant::now());
        digests.push(batch_digest(&answer));
    }
    Replay {
        spans: log.into_spans(),
        digests,
    }
}

fn wire_list(answer: Result<ServeAnswer, sqp_net::NetError>) -> Vec<Suggestion> {
    match answer {
        Ok(ServeAnswer::Suggestions(list)) => list,
        other => panic!("traced replay over the wire failed: {other:?}"),
    }
}

fn remote_list<T: std::fmt::Debug>(answer: RemoteOutcome<T>) -> T {
    match answer {
        RemoteOutcome::Answered(v) => v,
        other => panic!("traced replay through the remote engine failed: {other:?}"),
    }
}

/// The innermost layer: the session rule kept on the benchmark's side,
/// then `ModelSnapshot`'s resolve, recommend and render stages, each
/// timed as a child span.
fn replay_stages(win: &Window, snapshot: &ModelSnapshot) -> Replay {
    let mut log = SpanLog::new(Instant::now());
    let mut shadow = ShadowSessions::default();
    let mut digests = Vec::new();
    let mut ids = Vec::new();
    let mut scored = Vec::new();
    // Resolve, recommend and render one context under `parent`.
    let mut stages = |log: &mut SpanLog, op: u64, parent: u32, ctx: Option<Vec<String>>| {
        let t0 = Instant::now();
        let covered = ctx
            .is_some_and(|c| snapshot.resolve_context_into(c.iter().map(String::as_str), &mut ids));
        let t1 = Instant::now();
        log.record("resolve", op, Some(parent), t0, t1);
        let mut out = Vec::new();
        if covered {
            snapshot.recommend_ids_into(&ids, K, &mut scored);
            let t2 = Instant::now();
            log.record("recommend", op, Some(parent), t1, t2);
            snapshot.render_into(&scored, &mut out);
            log.record("render", op, Some(parent), t2, Instant::now());
        }
        out
    };
    for (i, (u, q, now)) in win.singles.iter().enumerate() {
        let op = i as u64;
        let ctx: Vec<String> = shadow.track(*u, q, *now).iter().cloned().collect();
        let t0 = Instant::now();
        let parent = log.record("stages", op, None, t0, t0);
        let answer = stages(&mut log, op, parent, Some(ctx));
        log.close(parent, Instant::now());
        digests.push(digest(&answer));
    }
    for (b, reqs) in win.batches.iter().enumerate() {
        let op = batch_op(b);
        let contexts: Vec<Option<Vec<String>>> = reqs
            .iter()
            .map(|r| {
                shadow
                    .context(r.user, win.batch_now)
                    .map(|c| c.iter().cloned().collect())
            })
            .collect();
        let t0 = Instant::now();
        let parent = log.record("stages.batch", op, None, t0, t0);
        let lists: Vec<Vec<Suggestion>> = contexts
            .into_iter()
            .map(|ctx| stages(&mut log, op, parent, ctx))
            .collect();
        log.close(parent, Instant::now());
        digests.push(batch_digest(&lists));
    }
    Replay {
        spans: log.into_spans(),
        digests,
    }
}

/// Per-layer metrics of a traced run.
pub struct Layers {
    values: Vec<(&'static str, f64)>,
    spans: Vec<Span>,
}

fn p50(values: &[u64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_unstable();
    percentile(&v, 0.5).map_or(0.0, |x| x as f64)
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Replay the window through every layer, check that all layers answer
/// alike, and collect the per-layer metrics.
pub fn layers(
    w: Workload,
    tier: &Tier,
    corpus: &Corpus,
    seed: u64,
    work: &Path,
    setup: &SetupSplit,
    out: &mut Outcome,
) -> std::io::Result<Layers> {
    let win = window(w, corpus, seed);
    let snapshot = Arc::clone(&tier.snapshot);
    let path = work.join("trace.sqps");
    tier::save(&path, &snapshot, 0, 0);

    let server = Server::spawn(&path)?;
    let remote = tier::connect(&server);
    let remote_replay = replay(
        &win,
        "remote",
        "remote.batch",
        |u, q, now| remote_list(remote.remote_track_and_suggest(u, q, K, now)),
        |reqs, now| remote_list(remote.remote_suggest_batch(reqs, now)),
    );
    drop(remote);
    server.stop();

    let server = Server::spawn(&path)?;
    // Both closures call the one connection, never at the same time.
    let client = std::cell::RefCell::new(NetClient::connect(server.serve_addr)?);
    let net_replay = replay(
        &win,
        "net",
        "net.batch",
        |u, q, now| wire_list(client.borrow_mut().track_and_suggest(u, q, K, now)),
        |reqs, now| {
            let entries: Vec<BatchEntry> = reqs
                .iter()
                .map(|r| BatchEntry {
                    user: r.user,
                    k: r.k,
                })
                .collect();
            match client.borrow_mut().suggest_batch(&entries, now) {
                Ok(BatchAnswer::Lists(lists)) => lists,
                other => panic!("traced batch over the wire failed: {other:?}"),
            }
        },
    );
    drop(client);
    server.stop();

    let router = RouterEngine::new(
        Arc::clone(&snapshot),
        RouterConfig {
            replicas: REPLICAS,
            ..RouterConfig::default()
        },
    );
    let router_replay = replay(
        &win,
        "router",
        "router.batch",
        |u, q, now| router.track_and_suggest(u, q, K, now),
        |reqs, now| router.suggest_batch(reqs, now),
    );
    let t = Instant::now();
    router.publish(Arc::clone(&snapshot));
    let publish_ms = ms(t);

    let engine = ServeEngine::new(Arc::clone(&snapshot), EngineConfig::default());
    let serve_replay = replay(
        &win,
        "serve",
        "serve.batch",
        |u, q, now| engine.track_and_suggest(u, q, K, now),
        |reqs, now| engine.suggest_batch(reqs, now),
    );
    let stage_replay = replay_stages(&win, &snapshot);

    let replays = [
        remote_replay,
        net_replay,
        router_replay,
        serve_replay,
        stage_replay,
    ];
    let ops = replays[0].digests.len();
    let agree = (0..ops)
        .filter(|&i| {
            replays
                .iter()
                .all(|r| r.digests[i] == replays[3].digests[i])
        })
        .count();
    if agree != ops {
        out.failed += (ops - agree) as u64;
        out.problem(format!(
            "{} of {ops} replayed requests answer differently across layers",
            ops - agree
        ));
    }
    let tree = nest_layers(&replays.map(|r| r.spans));
    let selfs = self_times(&tree);
    let dur = |name: &str| -> Vec<u64> {
        tree.iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration())
            .collect()
    };
    let own = |name: &str| -> Vec<u64> {
        tree.iter()
            .zip(&selfs)
            .filter(|(s, _)| s.name == name)
            .map(|(_, &t)| t)
            .collect()
    };
    let us = |v: Vec<u64>| p50(&v) / 1e3;
    // Share of the stages spans that their resolve/recommend/render
    // children account for: what the stage split explains.
    let stage_total: u64 = dur("stages").iter().sum();
    let stage_self: u64 = own("stages").iter().sum();

    // Rolling publish over the admin port: from the refresh loop on
    // `refresh`, otherwise one timed roll of the serving snapshot.
    let (rolling_ms, train, save_ms) = match out.refresh_split {
        Some(r) => (r.rolling_publish_ms, r.train, r.save_ms),
        None => {
            let mut admin = NetClient::connect(tier.server.admin_addr)?;
            let t = Instant::now();
            let summary = admin
                .rolling_publish(tier.path.to_str().expect("utf-8 work path"), false)
                .map_err(|e| std::io::Error::other(e.to_string()))?;
            let rolling_ms = ms(t);
            if summary.upgraded != REPLICAS as u64 {
                out.problem(format!(
                    "traced roll did not upgrade every replica: {summary:?}"
                ));
            }
            (rolling_ms, setup.train, setup.save_ms)
        }
    };

    let values = vec![
        ("gen.late_p99_us", out.gen.late_p99_us),
        ("gen.sent", out.gen.sent as f64),
        ("gen.answered", out.gen.answered as f64),
        ("remote.call_p50_us", us(dur("remote"))),
        ("remote.self_p50_us", us(own("remote"))),
        ("remote.retries", out.remote.retries as f64),
        ("remote.reconnects", out.remote.reconnects as f64),
        ("remote.failovers", out.remote.failovers as f64),
        ("remote.degraded", out.remote.degraded as f64),
        ("remote.sheds", out.remote.sheds as f64),
        ("net.rtt_p50_us", us(dur("net"))),
        ("net.self_p50_us", us(own("net"))),
        ("net.batch_rtt_p50_us", us(dur("net.batch"))),
        ("net.batch_self_p50_us", us(own("net.batch"))),
        (
            "net.reply_bytes_per_op",
            out.properties.reply_bytes_per_op(),
        ),
        ("router.call_p50_us", us(dur("router"))),
        ("router.self_p50_us", us(own("router"))),
        ("router.rolling_publish_ms", rolling_ms),
        ("router.publish_ms", publish_ms),
        ("serve.call_p50_us", us(dur("serve"))),
        ("serve.self_p50_us", us(own("serve"))),
        ("serve.batch_p50_us", us(dur("serve.batch"))),
        ("serve.resolve_ns", p50(&dur("resolve"))),
        ("serve.render_ns", p50(&dur("render"))),
        ("serve.nonempty_share", out.nonempty_share),
        ("core.recommend_ns", p50(&dur("recommend"))),
        ("core.train_ms", train.train_ms),
        ("core.model_bytes", snapshot.memory_bytes() as f64),
        ("sessions.segment_ms", train.segment_ms),
        ("sessions.aggregate_ms", train.aggregate_ms),
        ("sessions.reduce_ms", train.reduce_ms),
        ("store.save_ms", save_ms),
        ("store.load_ms", setup.load_ms),
        ("store.snapshot_bytes", setup.snapshot_bytes as f64),
        ("trace.window_ops", ops as f64),
        (
            "trace.stage_cover_share",
            1.0 - stage_self as f64 / stage_total.max(1) as f64,
        ),
        ("trace.layers_agree_share", agree as f64 / ops.max(1) as f64),
    ];
    Ok(Layers {
        values,
        spans: tree,
    })
}

impl Layers {
    /// Every [`PER_LAYER`] metric, with the live tier's counters.
    pub fn to_json(&self, wire: Option<WireStats>, server: &ServerFinal) -> Json {
        let wire = wire.unwrap_or_default();
        let live = [
            ("net.frames_in", server.frames_in as f64),
            ("net.replies_out", server.replies_out as f64),
            ("net.queue_shed", server.queue_shed as f64),
            ("net.engine_shed", server.engine_shed as f64),
            ("net.protocol_errors", server.protocol_errors as f64),
            ("serve.shed", wire.shed as f64),
            ("serve.active_sessions", wire.active_sessions as f64),
        ];
        Json::obj(PER_LAYER.iter().map(|&(name, unit, _)| {
            let value = self
                .values
                .iter()
                .chain(live.iter())
                .find(|(n, _)| *n == name)
                .map_or(f64::NAN, |&(_, v)| v);
            (
                name,
                Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
            )
        }))
    }

    /// Write the nested span tree as JSON lines, one span per line.
    pub fn write_spans(&self, path: &Path) -> std::io::Result<()> {
        let selfs = self_times(&self.spans);
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (s, own) in self.spans.iter().zip(selfs) {
            let line = Json::obj([
                ("id", Json::Int(s.id as u64)),
                (
                    "parent",
                    s.parent
                        .map_or(Json::Num(f64::NAN), |p| Json::Int(p as u64)),
                ),
                ("op", Json::Int(s.op)),
                ("name", Json::str(s.name)),
                ("start_ns", Json::Int(s.start)),
                ("end_ns", Json::Int(s.end)),
                ("self_ns", Json::Int(own)),
            ]);
            writeln!(f, "{line}")?;
        }
        f.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_layer_names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), PER_LAYER.len());
        for (name, unit, better) in PER_LAYER {
            assert!(
                name.len() <= 64
                    && name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
            assert!(unit.len() <= 16);
            assert!(better == "lower" || better == "higher");
        }
    }
}
