//! The three workloads, untraced: what a user and an operator see.

use crate::inputs::{
    batch_digest, batch_frame_bytes, combine_digests, digest, list_bytes, owner, reply_bytes,
    Properties, ShadowSessions, Stream, StreamRecord, K,
};
use crate::json::Json;
use crate::stats::{median, percentile, phase_report, summarize, Paced, PhaseReport};
use crate::tier::{self, same_answers, Tier, GEN_THREADS, REPLICAS};
use sqp_common::rng::{Rng, StdRng};
use sqp_logsim::RawLogRecord;
use sqp_net::{NetClient, RemoteEngine, RemoteOutcome, RemoteStats, ServeAnswer};
use sqp_serve::{EngineConfig, ModelSnapshot, ServeEngine, SuggestRequest, Suggestion};
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// `suggest-stream`: the reference rate its latency is measured at.
const REF_RATE: f64 = 4_000.0;
/// `suggest-stream`: shares of the run spent at the reference rate and
/// saturated; the rest is the ramp.
const REF_SHARE: f64 = 0.5;
const SAT_SHARE: f64 = 0.12;
/// `suggest-stream`: the ramp's first rate, requests per second.
const RAMP_FROM: f64 = 5_000.0;
/// `suggest-stream`: ramp factors between steps, coarse then fine.
const COARSE: f64 = 1.25;
const FINE: f64 = 1.06;
/// `suggest-stream`: seconds per ramp step.
const STEP_SECS: f64 = 1.0;
/// `suggest-stream`: p99 limit of a ramp step, microseconds.
const RAMP_P99_LIMIT_US: f64 = 20_000.0;
/// `refresh`: the fixed suggest rate beside the refreshes.
const REFRESH_RATE: f64 = 2_000.0;
/// `refresh`: a refresh starts once per period.
const REFRESH_PERIOD: Duration = Duration::from_secs(1);
/// `batch-deep`: entries per batch.
const BATCH: usize = 256;
/// `batch-deep`: users need this many test-epoch queries to be drawn.
const MIN_DEPTH: usize = 4;
/// A paced generator more than this far behind stops sending: the phase
/// is past the knee and further requests only measure the queue.
const GIVE_UP: Duration = Duration::from_secs(1);

/// Everything one workload run produced.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    /// Operations shed, degraded, errored or answered wrongly.
    pub failed: u64,
    /// Failed checks, in words.
    pub problems: Vec<String>,
    /// End-to-end metrics under the names the workload defines them by:
    /// `(name, value, unit)`.
    pub named: Vec<(&'static str, f64, &'static str)>,
    /// CPU time of both processes per operation of the workload's measured
    /// phase, microseconds.
    pub cpu_us_per_op: f64,
    /// Generator counters and remote-client deltas of the measured run.
    pub gen: GenCounts,
    pub remote: RemoteDelta,
    pub properties: Properties,
    pub report: Vec<(String, Json)>,
    /// Refresh-loop stage timings (median ms), from `refresh` only.
    pub refresh_split: Option<RefreshSplit>,
    /// Answered suggest requests with at least one suggestion, over all
    /// answered (a batch entry counts as one request).
    pub nonempty_share: f64,
}

impl Outcome {
    pub fn problem(&mut self, p: String) {
        eprintln!("check failed: {p}");
        self.problems.push(p);
    }
}

#[derive(Clone, Copy, Debug, Default)]
pub struct GenCounts {
    pub sent: u64,
    pub answered: u64,
    pub nonempty: u64,
    pub late_p99_us: f64,
}

#[derive(Clone, Copy, Debug, Default)]
pub struct RemoteDelta {
    pub retries: u64,
    pub reconnects: u64,
    pub failovers: u64,
    pub degraded: u64,
    pub sheds: u64,
}

impl RemoteDelta {
    fn between(a: &RemoteStats, b: &RemoteStats) -> Self {
        Self {
            retries: b.retries - a.retries,
            reconnects: b.reconnects - a.reconnects,
            failovers: b.failovers - a.failovers,
            degraded: b.degraded - a.degraded,
            sheds: b.sheds - a.sheds,
        }
    }
}

/// Median stage timings of the traced refresh loop.
#[derive(Clone, Copy, Debug, Default)]
pub struct RefreshSplit {
    pub train: tier::TrainSplit,
    pub save_ms: f64,
    pub rolling_publish_ms: f64,
}

/// One answered-or-not request of a paced phase.
#[derive(Clone, Copy, Debug)]
struct Sent {
    idx: usize,
    t: Paced,
    /// Digest of the answer; `None` when shed, degraded or errored.
    answer: Option<u64>,
    suggestions: u8,
    bytes: u32,
}

/// How a generator thread schedules its requests.
#[derive(Clone, Copy, Debug)]
enum Pace {
    /// Open loop: request `i` of the phase is due at `i / rate` seconds.
    Rate(f64),
    /// Closed loop for a while: each request is due when the previous
    /// one is answered.
    Saturate(Duration),
}

/// Let this thread's sleeps end within a microsecond of their deadline
/// instead of after the default 50 us of timer slack, so a request's
/// wait from its due time is the program's and the host's, not a kernel
/// rounding allowance.
fn fine_timer_slack() {
    extern "C" {
        fn prctl(option: std::ffi::c_int, ...) -> std::ffi::c_int;
    }
    const PR_SET_TIMERSLACK: std::ffi::c_int = 29;
    // SAFETY: PR_SET_TIMERSLACK takes one unsigned long (nanoseconds) and
    // changes only the calling thread's timer slack.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1000 as std::ffi::c_ulong);
    }
}

/// Replay up to `count` stream requests from `first` as `TRACK_SUGGEST`s,
/// split across `threads` by user so each user's requests go out in
/// order. Under [`Pace::Rate`] each thread sleeps until its next request
/// is due and never spins; a thread that falls [`GIVE_UP`] behind stops
/// and the phase counts as overrun. Times are kept from `start`, which
/// should lie just ahead so the threads are up by then. Returns the
/// requests sent, in stream order, and whether the phase overran.
fn paced(
    remote: &RemoteEngine,
    stream: &Stream,
    first: usize,
    count: usize,
    pace: Pace,
    threads: usize,
    start: Instant,
) -> (Vec<Sent>, bool) {
    let per_thread: Vec<(Vec<Sent>, bool)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                s.spawn(move || {
                    fine_timer_slack();
                    let mut out = Vec::with_capacity(count.min(1 << 20) / threads + 16);
                    let ns = |at: Instant| at.saturating_duration_since(start).as_nanos() as u64;
                    for idx in first..first + count {
                        let (user, query, now) = stream.op(idx);
                        if owner(user, threads) != t {
                            continue;
                        }
                        let due_at = match pace {
                            Pace::Rate(rate) => {
                                let due_at =
                                    start + Duration::from_secs_f64((idx - first) as f64 / rate);
                                let wait = due_at.saturating_duration_since(Instant::now());
                                if !wait.is_zero() {
                                    std::thread::sleep(wait);
                                }
                                due_at
                            }
                            Pace::Saturate(d) => {
                                let now = Instant::now().max(start);
                                if now - start > d {
                                    break;
                                }
                                now
                            }
                        };
                        let sent = Instant::now();
                        if sent.saturating_duration_since(due_at) > GIVE_UP {
                            return (out, true);
                        }
                        let answer = remote.remote_track_and_suggest(user, query, K, now);
                        let done = Instant::now();
                        let (answer, suggestions, bytes) = match answer {
                            RemoteOutcome::Answered(list) => {
                                (Some(digest(&list)), list.len(), reply_bytes(&list))
                            }
                            _ => (None, 0, 0),
                        };
                        out.push(Sent {
                            idx,
                            t: Paced {
                                due: ns(due_at),
                                sent: ns(sent),
                                done: ns(done),
                            },
                            answer,
                            suggestions: suggestions as u8,
                            bytes: bytes as u32,
                        });
                    }
                    (out, false)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread"))
            .collect()
    });
    let overrun = per_thread.iter().any(|(_, o)| *o);
    let mut all: Vec<Sent> = per_thread.into_iter().flat_map(|(v, _)| v).collect();
    all.sort_unstable_by_key(|s| s.idx);
    (all, overrun)
}

/// A phase start a few milliseconds ahead.
fn soon() -> Instant {
    Instant::now() + Duration::from_millis(5)
}

fn paced_samples(sent: &[Sent]) -> Vec<Paced> {
    sent.iter().map(|s| s.t).collect()
}

fn phase_json(name: &str, r: &PhaseReport, overrun: bool) -> Json {
    let lat = r.latency_us.unwrap_or_default();
    Json::obj([
        ("phase", Json::str(name)),
        ("rate_rps", Json::Num(r.rate)),
        ("sent", Json::Int(r.sent as u64)),
        ("p50_us", Json::Num(lat.p50)),
        ("p90_us", Json::Num(lat.p90)),
        ("p99_us", Json::Num(lat.p99)),
        ("late_p99_us", Json::Num(r.late_p99_us)),
        ("late_p50_us", Json::Num(r.late_p50_us)),
        ("backlog_growth", Json::Num(r.backlog_growth)),
        ("steady", Json::Bool(r.steady() && !overrun)),
    ])
}

/// Count sent requests into the generator tallies.
fn tally(out: &mut Outcome, sent: &[Sent]) {
    out.attempted += sent.len() as u64;
    out.gen.sent += sent.len() as u64;
    for s in sent {
        match s.answer {
            Some(_) => {
                out.gen.answered += 1;
                out.gen.nonempty += (s.suggestions > 0) as u64;
                out.properties
                    .reply(s.suggestions as usize, s.bytes as usize);
            }
            None => out.failed += 1,
        }
    }
    out.nonempty_share = out.gen.nonempty as f64 / out.gen.answered.max(1) as f64;
}

/// Replay the sent requests in-process on one `ServeEngine` over the same
/// snapshot and compare answers op by op. Sessions are per user and every
/// user's requests were sent in stream order, so the answers must match
/// exactly. Also fills in the workload properties.
fn check_stream(out: &mut Outcome, snapshot: &Arc<ModelSnapshot>, stream: &Stream, sent: &[Sent]) {
    let engine = ServeEngine::new(Arc::clone(snapshot), EngineConfig::default());
    let mut shadow = ShadowSessions::default();
    let mut wrong = 0u64;
    for s in sent {
        let (user, query, now) = stream.op(s.idx);
        let ctx: Vec<&str> = shadow
            .track(user, query, now)
            .iter()
            .map(String::as_str)
            .collect();
        out.properties.request(snapshot, user, &ctx);
        let expect = engine.track_and_suggest(user, query, K, now);
        if let Some(d) = s.answer {
            wrong += (d != digest(&expect)) as u64;
        }
    }
    if wrong > 0 {
        out.failed += wrong;
        out.problem(format!(
            "{wrong} suggest answers differ from the in-process replay"
        ));
    }
}

/// `suggest-stream`: the test epoch as an open-loop `TRACK_SUGGEST` stream,
/// first at [`REF_RATE`] for the latency metrics, then with both
/// connections kept busy for the saturation throughput, then up a ramp of
/// fixed rates for the highest rate that meets the latency limit (see
/// [`ramp`]).
pub fn suggest_stream(tier: &Tier, test: &[StreamRecord], seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let stream = Stream::new(test);
    let before = tier.remote.remote_stats();
    let ref_count = (REF_RATE * seconds * REF_SHARE) as usize;
    let cpu0 = tier.cpu_secs();
    let (mut all_sent, overrun) = paced(
        &tier.remote,
        &stream,
        0,
        ref_count,
        Pace::Rate(REF_RATE),
        GEN_THREADS,
        soon(),
    );
    out.cpu_us_per_op = (tier.cpu_secs() - cpu0) * 1e6 / all_sent.len().max(1) as f64;
    let reference = phase_report(&paced_samples(&all_sent), REF_RATE);
    let mut phases = vec![phase_json("reference", &reference, overrun)];
    if !reference.steady() || overrun || reference.latency_us.is_none() {
        out.problem(format!(
            "reference phase at {REF_RATE} req/s is invalid: backlog grew by {:.1} requests",
            reference.backlog_growth
        ));
    }
    // Saturation: both connections kept busy, closed loop.
    let next = all_sent.last().map_or(0, |s| s.idx + 1);
    let sat_time = Duration::from_secs_f64(seconds * SAT_SHARE);
    let (sat_sent, _) = paced(
        &tier.remote,
        &stream,
        next,
        usize::MAX / 2,
        Pace::Saturate(sat_time),
        GEN_THREADS,
        soon(),
    );
    let saturation_rps =
        sat_sent.iter().filter(|s| s.answer.is_some()).count() as f64 / sat_time.as_secs_f64();
    let next = sat_sent.last().map_or(next, |s| s.idx + 1);
    all_sent.extend(sat_sent);
    let budget = Duration::from_secs_f64(seconds * (1.0 - REF_SHARE - SAT_SHARE));
    let max_rate = ramp(
        tier,
        &stream,
        next,
        saturation_rps / 2.0,
        budget,
        &mut all_sent,
        &mut phases,
    );
    out.remote = RemoteDelta::between(&before, &tier.remote.remote_stats());
    tally(&mut out, &all_sent);
    out.gen.late_p99_us = reference.late_p99_us;
    check_stream(&mut out, &tier.snapshot, &stream, &all_sent);
    let lat = reference.latency_us.unwrap_or_default();
    out.named = vec![
        ("suggest_p50_us", lat.p50, "us"),
        ("suggest_p99_us", lat.p99, "us"),
        ("max_rate_rps", max_rate, "req/s"),
        ("saturation_rps", saturation_rps, "req/s"),
    ];
    out.report.push(("phases".into(), Json::Arr(phases)));
    out
}

/// The ramp of `suggest-stream`. Steps of [`STEP_SECS`] run at rates
/// `RAMP_FROM * COARSE^i * FINE^j`, starting at the highest coarse rate
/// not above `from_below`: upward by [`COARSE`] until a step misses the
/// limit, then upward by [`FINE`] from the last step that met
/// it. A step meets the limit when its p99 from due time is at most
/// [`RAMP_P99_LIMIT_US`], its backlog does not grow and nothing failed; a
/// step that misses is run once more before it counts as missed, because
/// a single host stall of tens of milliseconds can break one short step.
/// Returns the highest rate that met the limit (0 if none did).
fn ramp(
    tier: &Tier,
    stream: &Stream,
    mut next: usize,
    from_below: f64,
    budget: Duration,
    all_sent: &mut Vec<Sent>,
    phases: &mut Vec<Json>,
) -> f64 {
    let start = Instant::now();
    let mut best = 0.0;
    let mut factor = COARSE;
    let mut rate = RAMP_FROM;
    while rate * COARSE <= from_below {
        rate = (rate * COARSE).round();
    }
    let mut ceiling = f64::INFINITY;
    while start.elapsed() < budget && rate < ceiling {
        let mut met = false;
        for _attempt in 0..2 {
            let count = (rate * STEP_SECS) as usize;
            let (sent, overrun) = paced(
                &tier.remote,
                stream,
                next,
                count,
                Pace::Rate(rate),
                GEN_THREADS,
                soon(),
            );
            next += count;
            let r = phase_report(&paced_samples(&sent), rate);
            let failed = sent.iter().any(|s| s.answer.is_none());
            phases.push(phase_json("ramp", &r, overrun));
            all_sent.extend(sent);
            let within = r.latency_us.is_some_and(|l| l.p99 <= RAMP_P99_LIMIT_US);
            met = within && r.steady() && !overrun && !failed;
            if met || start.elapsed() >= budget {
                break;
            }
        }
        if met {
            best = rate;
        } else if factor == COARSE && best > 0.0 {
            factor = FINE;
            ceiling = rate;
            rate = best;
        } else {
            break;
        }
        rate = (rate * factor).round();
    }
    best
}

/// The `batch-deep` population: every test-epoch user with at least
/// [`MIN_DEPTH`] queries, with their last queries (at most one context's
/// worth), oldest first. Sorted by user.
pub fn population(test: &[StreamRecord]) -> Vec<(u64, Vec<&str>)> {
    let cap = sqp_serve::TrackerConfig::default().context_capacity;
    let mut by_user: HashMap<u64, Vec<&str>> = HashMap::new();
    for r in test {
        by_user.entry(r.user).or_default().push(&r.query);
    }
    let mut pop: Vec<(u64, Vec<&str>)> = by_user
        .into_iter()
        .filter(|(_, qs)| qs.len() >= MIN_DEPTH)
        .map(|(u, qs)| (u, qs[qs.len().saturating_sub(cap)..].to_vec()))
        .collect();
    pop.sort_unstable_by_key(|(u, _)| *u);
    pop
}

/// Logical time of the `batch-deep` warm phase; queries are a minute apart.
pub const WARM_NOW: u64 = 1_000_000;
/// Logical time of every `batch-deep` batch: after every warm query, within
/// the idle cutoff of all of them.
pub const BATCH_NOW: u64 = WARM_NOW + 3_600 / 4;

/// The `batch-deep` warm ops, `(user, query, now)`, in send order.
pub fn warm_ops<'a>(pop: &[(u64, Vec<&'a str>)]) -> Vec<(u64, &'a str, u64)> {
    pop.iter()
        .flat_map(|(u, qs)| {
            qs.iter()
                .enumerate()
                .map(move |(j, q)| (*u, *q, WARM_NOW + 60 * j as u64))
        })
        .collect()
}

/// The users of successive batches: [`BATCH`] seeded draws each.
pub struct BatchDraw {
    rng: StdRng,
}

impl BatchDraw {
    pub fn new(seed: u64) -> Self {
        Self {
            rng: StdRng::seed_from_u64(seed ^ 0xba7c_4dee_9000_0000),
        }
    }

    pub fn next(&mut self, users: &[u64]) -> Vec<SuggestRequest> {
        (0..BATCH)
            .map(|_| SuggestRequest {
                user: users[self.rng.random_range(0..users.len())],
                k: K,
            })
            .collect()
    }
}

/// Track every warm op through `remote` (closed loop, one thread per
/// connection); returns each op's answer digest, in op order.
fn warm(remote: &RemoteEngine, ops: &[(u64, &str, u64)]) -> Vec<Option<u64>> {
    let per_thread: Vec<Vec<(usize, Option<u64>)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..GEN_THREADS)
            .map(|t| {
                s.spawn(move || {
                    ops.iter()
                        .enumerate()
                        .filter(|(_, (u, _, _))| owner(*u, GEN_THREADS) == t)
                        .map(|(i, &(u, q, now))| {
                            let a = match remote.remote_track_and_suggest(u, q, K, now) {
                                RemoteOutcome::Answered(list) => Some(digest(&list)),
                                _ => None,
                            };
                            (i, a)
                        })
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("warm thread"))
            .collect()
    });
    let mut digests = vec![None; ops.len()];
    for (i, d) in per_thread.into_iter().flatten() {
        digests[i] = d;
    }
    digests
}

/// `batch-deep`: warm every population user's context, then one caller
/// sends [`BATCH`]-entry `SUGGEST_BATCH`es, each after the last reply.
pub fn batch_deep(tier: &Tier, test: &[StreamRecord], seconds: f64, seed: u64) -> Outcome {
    let mut out = Outcome::default();
    let pop = population(test);
    let users: Vec<u64> = pop.iter().map(|(u, _)| *u).collect();
    let ops = warm_ops(&pop);
    let warm_digests = warm(&tier.remote, &ops);

    let before = tier.remote.remote_stats();
    let mut draw = BatchDraw::new(seed);
    let mut lat_ns: Vec<u64> = Vec::new();
    let mut gaps_ns: Vec<u64> = Vec::new();
    let mut answers: Vec<Option<u64>> = Vec::new();
    let cpu0 = tier.cpu_secs();
    let start = Instant::now();
    let mut last_reply = start;
    while start.elapsed().as_secs_f64() < seconds {
        let reqs = draw.next(&users);
        let t0 = Instant::now();
        let reply = tier.remote.remote_suggest_batch(&reqs, BATCH_NOW);
        let t1 = Instant::now();
        gaps_ns.push((t0 - last_reply).as_nanos() as u64);
        last_reply = t1;
        lat_ns.push((t1 - t0).as_nanos() as u64);
        answers.push(match reply {
            RemoteOutcome::Answered(lists) => {
                out.gen.nonempty += lists.iter().filter(|l| !l.is_empty()).count() as u64;
                Some(batch_digest(&lists))
            }
            _ => None,
        });
    }
    let elapsed = start.elapsed().as_secs_f64();
    let cpu_secs = tier.cpu_secs() - cpu0;
    out.remote = RemoteDelta::between(&before, &tier.remote.remote_stats());

    // In-process replay: the same warm ops, then the same batches.
    let engine = ServeEngine::new(Arc::clone(&tier.snapshot), EngineConfig::default());
    let mut shadow = ShadowSessions::default();
    let mut wrong = 0u64;
    for (&(u, q, now), got) in ops.iter().zip(&warm_digests) {
        shadow.track(u, q, now);
        let expect = digest(&engine.track_and_suggest(u, q, K, now));
        wrong += got.is_some_and(|d| d != expect) as u64;
    }
    out.failed += warm_digests.iter().filter(|d| d.is_none()).count() as u64;
    out.attempted += ops.len() as u64;
    // Batches read the warmed sessions at one shared time and change
    // nothing, so each user's entry has one right answer: take it once per
    // population user and assemble every batch's expected digest from
    // those.
    let everyone: Vec<SuggestRequest> = users
        .iter()
        .map(|&user| SuggestRequest { user, k: K })
        .collect();
    let expected: HashMap<u64, (u64, usize, usize)> = everyone
        .iter()
        .zip(engine.suggest_batch(&everyone, BATCH_NOW))
        .map(|(r, list)| (r.user, (digest(&list), list.len(), list_bytes(&list))))
        .collect();
    let mut draw = BatchDraw::new(seed);
    for got in &answers {
        let reqs = draw.next(&users);
        let (mut digests, mut n, mut bytes) = (Vec::with_capacity(BATCH), 0, 0);
        for r in &reqs {
            let ctx: Vec<&str> = shadow
                .context(r.user, BATCH_NOW)
                .map(|c| c.iter().map(String::as_str).collect())
                .unwrap_or_default();
            out.properties.request(&tier.snapshot, r.user, &ctx);
            let (d, len, b) = expected[&r.user];
            digests.push(d);
            n += len;
            bytes += b;
        }
        out.properties
            .reply(n, batch_frame_bytes(reqs.len(), bytes));
        match got {
            Some(d) => wrong += (*d != combine_digests(&digests)) as u64,
            None => out.failed += 1,
        }
    }
    out.attempted += answers.len() as u64;
    if wrong > 0 {
        out.failed += wrong;
        out.problem(format!(
            "{wrong} warm or batch answers differ from the in-process replay"
        ));
    }
    let answered = answers.iter().filter(|a| a.is_some()).count();
    out.gen.sent = answers.len() as u64;
    out.gen.answered = answered as u64;
    out.nonempty_share = out.gen.nonempty as f64 / (answered * BATCH).max(1) as f64;
    gaps_ns.sort_unstable();
    out.gen.late_p99_us = gaps_ns[gaps_ns.len() * 99 / 100] as f64 / 1e3;

    let mut lat_us: Vec<u64> = lat_ns.iter().map(|ns| ns / 1_000).collect();
    let lat = summarize(&mut lat_us).unwrap_or_default();
    if lat.n == 0 {
        out.problem(format!("only {} batches: too few for a p99", lat_ns.len()));
    }
    let per_s = (answered * BATCH) as f64 / elapsed;
    out.cpu_us_per_op = cpu_secs * 1e6 / (answered * BATCH).max(1) as f64;
    out.named = vec![
        ("batch_suggestions_per_s", per_s, "1/s"),
        ("batch_p50_ms", lat.p50 / 1e3, "ms"),
    ];
    out.report.push((
        "batches".into(),
        Json::obj([
            ("population_users", Json::Int(pop.len() as u64)),
            ("warm_ops", Json::Int(ops.len() as u64)),
            ("batches", Json::Int(answers.len() as u64)),
            ("p99_ms", Json::Num(lat.p99 / 1e3)),
        ]),
    ));
    out
}

/// A training window of the train epoch: half of it, starting at one of
/// five offsets in turn, so successive snapshots differ.
pub fn train_window(train: &[RawLogRecord], j: usize) -> &[RawLogRecord] {
    let len = train.len() / 2;
    let offset = (j % 5) * train.len() / 10;
    &train[offset..offset + len]
}

/// Probe contexts: the first 32 distinct three-query session contexts of
/// the test epoch.
pub fn probes(test: &[StreamRecord]) -> Vec<Vec<String>> {
    let mut shadow = ShadowSessions::default();
    let mut out: Vec<Vec<String>> = Vec::new();
    for r in test {
        let ctx = shadow.track(r.user, &r.query, r.now);
        if ctx.len() == 3 {
            let ctx: Vec<String> = ctx.iter().cloned().collect();
            if !out.contains(&ctx) {
                out.push(ctx);
                if out.len() == 32 {
                    break;
                }
            }
        }
    }
    out
}

/// Probe users sit far above any simulated machine id.
const PROBE_USER: u64 = 1 << 62;

/// Ask every probe context over the admin connection as a fresh user and
/// compare with `snapshot` in-process. Returns the mismatches.
fn probe_tier(
    client: &mut NetClient,
    snapshot: &ModelSnapshot,
    probes: &[Vec<String>],
    round: u64,
) -> Result<u64, String> {
    let mut wrong = 0;
    for (i, ctx) in probes.iter().enumerate() {
        let user = PROBE_USER + round * probes.len() as u64 + i as u64;
        let (last, head) = ctx.split_last().expect("probe contexts are non-empty");
        for (j, q) in head.iter().enumerate() {
            client
                .track(user, q, j as u64 * 10)
                .map_err(|e| format!("probe track: {e}"))?;
        }
        let got = match client.track_and_suggest(user, last, K, head.len() as u64 * 10) {
            Ok(ServeAnswer::Suggestions(list)) => list,
            other => return Err(format!("probe suggest: {other:?}")),
        };
        let ctx: Vec<&str> = ctx.iter().map(String::as_str).collect();
        let expect: Vec<Suggestion> = snapshot.suggest(&ctx, K);
        wrong += (got != expect) as u64;
    }
    Ok(wrong)
}

/// `refresh`: one generator thread replays the stream at
/// [`REFRESH_RATE`] while a refresh thread, once per [`REFRESH_PERIOD`],
/// retrains on the next window of the train epoch, saves, and rolls each snapshot across the replicas
/// over the admin port, checking generations and probe answers after each
/// roll. With `split`, training runs stage by stage.
pub fn refresh(
    tier: &Tier,
    train: &[RawLogRecord],
    test: &[StreamRecord],
    seconds: f64,
    work: &Path,
    split: bool,
) -> Outcome {
    let mut out = Outcome::default();
    let stream = Stream::new(test);
    let probes = probes(test);
    let before = tier.remote.remote_stats();
    let count = (REFRESH_RATE * seconds) as usize;
    let cpu0 = tier.cpu_secs();
    let pace = Pace::Rate(REFRESH_RATE);
    let t_start = soon();
    let ((sent, overrun), refreshes) = std::thread::scope(|s| {
        let gen = s.spawn(|| paced(&tier.remote, &stream, 0, count, pace, 1, t_start));
        let roll = s.spawn(|| refresh_loop(tier, train, &probes, seconds, t_start, work, split));
        (
            gen.join().expect("generator thread"),
            roll.join().expect("refresh thread"),
        )
    });
    let cpu_secs = tier.cpu_secs() - cpu0;
    out.remote = RemoteDelta::between(&before, &tier.remote.remote_stats());
    let phase = phase_report(&paced_samples(&sent), REFRESH_RATE);
    tally(&mut out, &sent);
    out.gen.late_p99_us = phase.late_p99_us;
    // Answers move with the generation, so the stream is checked for
    // properties and failures only; the probes check correctness.
    let engine_snapshot = &tier.snapshot;
    let mut shadow = ShadowSessions::default();
    for s in &sent {
        let (user, query, now) = stream.op(s.idx);
        let ctx: Vec<&str> = shadow
            .track(user, query, now)
            .iter()
            .map(String::as_str)
            .collect();
        out.properties.request(engine_snapshot, user, &ctx);
    }
    if !phase.steady() || overrun || phase.latency_us.is_none() {
        out.problem(format!(
            "suggest phase at {REFRESH_RATE} req/s is invalid: backlog grew by {:.1} requests",
            phase.backlog_growth
        ));
    }
    let rounds = match refreshes {
        Ok(r) => r,
        Err(e) => {
            out.problem(e);
            Vec::new()
        }
    };
    out.attempted += rounds.len() as u64;
    let bad_rounds = rounds.iter().filter(|r| r.wrong_probes > 0).count() as u64;
    if bad_rounds > 0 {
        out.failed += bad_rounds;
        out.problem(format!(
            "{bad_rounds} rolls answered probes unlike the fresh snapshot"
        ));
    }
    if rounds.is_empty() {
        out.problem("no refresh completed".into());
    }
    let refresh_s = median(&rounds.iter().map(|r| r.secs).collect::<Vec<_>>());
    // What users see while the tier refreshes: requests due while a
    // retrain, save or roll was in progress.
    let at = |t: Instant| t.saturating_duration_since(t_start).as_nanos() as u64;
    let busy: Vec<(u64, u64)> = rounds.iter().map(|r| (at(r.start), at(r.end))).collect();
    let mut during: Vec<u64> = sent
        .iter()
        .filter(|s| busy.iter().any(|&(a, b)| (a..=b).contains(&s.t.due)))
        .map(|s| s.t.latency() / 1_000)
        .collect();
    during.sort_unstable();
    let during_p50 = percentile(&during, 0.5).unwrap_or_else(|| {
        out.problem(format!(
            "only {} requests due during refreshes",
            during.len()
        ));
        0
    }) as f64;
    out.cpu_us_per_op = cpu_secs * 1e6 / rounds.len().max(1) as f64;
    let window = train_window(train, 0).len() as f64;
    let lat = phase.latency_us.unwrap_or_default();
    out.named = vec![
        ("suggest_p50_us", lat.p50, "us"),
        ("suggest_p99_us", lat.p99, "us"),
        ("refreshing_suggest_p50_us", during_p50, "us"),
        ("refresh_s", refresh_s, "s"),
    ];
    let med = |f: fn(&Round) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    if split {
        out.refresh_split = Some(RefreshSplit {
            train: tier::TrainSplit {
                segment_ms: med(|r| r.split.segment_ms),
                aggregate_ms: med(|r| r.split.aggregate_ms),
                reduce_ms: med(|r| r.split.reduce_ms),
                train_ms: med(|r| r.split.train_ms),
            },
            save_ms: med(|r| r.save_ms),
            rolling_publish_ms: med(|r| r.roll_ms),
        });
    }
    out.report.push((
        "refresh".into(),
        Json::obj([
            ("rounds", Json::Int(rounds.len() as u64)),
            ("window_records", Json::Num(window)),
            ("phase", phase_json("suggest", &phase, overrun)),
        ]),
    ));
    out
}

struct Round {
    start: Instant,
    end: Instant,
    secs: f64,
    split: tier::TrainSplit,
    save_ms: f64,
    roll_ms: f64,
    wrong_probes: u64,
}

fn refresh_loop(
    tier: &Tier,
    train: &[RawLogRecord],
    probes: &[Vec<String>],
    seconds: f64,
    t_start: Instant,
    work: &Path,
    split: bool,
) -> Result<Vec<Round>, String> {
    let mut admin = NetClient::connect(tier.server.admin_addr).map_err(|e| e.to_string())?;
    let path = work.join("refresh.sqps");
    let mut rounds: Vec<Round> = Vec::new();
    for j in 1.. {
        // One refresh starts every period, or at once if the last overran.
        let due = t_start + REFRESH_PERIOD * (j - 1) as u32;
        std::thread::sleep(due.saturating_duration_since(Instant::now()));
        let last = rounds.last().map_or(0.0, |r| r.secs);
        if t_start.elapsed().as_secs_f64() + last > seconds {
            break;
        }
        let window = train_window(train, j);
        let t0 = Instant::now();
        let (snapshot, stages) = if split {
            tier::train_split(window)
        } else {
            (tier::train(window), tier::TrainSplit::default())
        };
        let t_save = Instant::now();
        tier::save(&path, &snapshot, j as u64, window.len());
        let t_roll = Instant::now();
        let summary = admin
            .rolling_publish(path.to_str().expect("utf-8 work path"), false)
            .map_err(|e| format!("rolling publish: {e}"))?;
        let t1 = Instant::now();
        if summary.upgraded != REPLICAS as u64 || summary.failed != 0 || summary.aborted {
            return Err(format!(
                "roll {j} did not upgrade every replica: {summary:?}"
            ));
        }
        let generation = admin.stats().map_err(|e| format!("stats: {e}"))?.generation;
        if generation != j as u64 {
            return Err(format!(
                "after roll {j} the tier reports generation {generation}"
            ));
        }
        if split && j == 1 && !same_answers(&snapshot, &tier::train(window), probes) {
            return Err("stage-by-stage training answers unlike from_raw_logs".into());
        }
        let wrong_probes = probe_tier(&mut admin, &snapshot, probes, j as u64)?;
        rounds.push(Round {
            start: t0,
            end: t1,
            secs: (t1 - t0).as_secs_f64(),
            split: stages,
            save_ms: (t_roll - t_save).as_secs_f64() * 1e3,
            roll_ms: (t1 - t_roll).as_secs_f64() * 1e3,
            wrong_probes,
        });
    }
    Ok(rounds)
}
