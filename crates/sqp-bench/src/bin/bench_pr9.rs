//! PR 9 remote-tier snapshot: the same seeded wire workload run twice
//! against a real `NetServer` — once through bare per-thread `NetClient`s
//! (the PR 8 baseline: no retries, no breakers, a failure is the caller's
//! problem) and once through the resilient `RemoteEngine` (deadlines,
//! breaker admission, pooled checkout/checkin on every op). The delta is
//! the price of resilience on the steady-state path, and the acceptance
//! gate keeps it honest: **remote p99 ≤ 1.3× raw p99**.
//!
//! Two more rows ride along:
//!
//! * **TCP_NODELAY evidence** — the single-op p50 must sit far below the
//!   ~40ms a Nagle/delayed-ACK interaction would inflict on a
//!   write-write-read protocol; the gate (<10ms) fails loudly if either
//!   side ever loses its `set_nodelay`.
//! * **Failover latency** — with one of two endpoints black-holed mid-run
//!   behind a chaos proxy, every idempotent op in the post-kill window
//!   must still be *answered* (retry + failover), and the worst op —
//!   which pays the attempt timeout before failing over — must stay
//!   within the deadline.
//!
//! Usage: `cargo run --release -p sqp-bench --bin bench_pr9 [out.json]`

use sqp_bench::serve_loop::{build_parts, ServeLoopConfig};
use sqp_bench::{json_escape, percentile_us};
use sqp_common::breaker::BreakerConfig;
use sqp_common::rng::{Rng, StdRng};
use sqp_faults::{Chaos, ChaosProxy, FaultPlan};
use sqp_net::{
    BatchAnswer, BatchEntry, EndpointConfig, NetClient, NetServer, RemoteConfig, RemoteEngine,
    RemoteOutcome, ServeAnswer, ServerConfig,
};
use sqp_serve::{EngineConfig, ModelSnapshot, ServeEngine, SuggestRequest};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

const MAX_P99_RATIO: f64 = 1.3;
const MAX_SINGLE_OP_P50_US: f64 = 10_000.0; // Nagle+delayed-ACK would be ~40ms
const FAILOVER_DEADLINE: Duration = Duration::from_secs(1);
const FAILOVER_SLACK: Duration = Duration::from_millis(500);

const THREADS: usize = 4;
const OPS_PER_THREAD: usize = 4_000;
const USERS_PER_THREAD: u64 = 256;
const SUGGEST_K: usize = 5;
const BATCH_SIZE: usize = 32;
const SEED: u64 = 42;

/// One op of the seeded mix, generated identically for both runs (the PRNG
/// draws are the op descriptor; execution differs only in the transport).
enum Op {
    /// Every 8th op: a `BATCH_SIZE`-entry batched suggest.
    Batch(Vec<(u64, usize)>),
    /// Every 3rd op: a stateless suggest.
    Suggest(u64),
    /// Everything else: a tracked suggest with a vocabulary query.
    Track(u64, String),
}

fn gen_op(i: usize, rng: &mut StdRng, user_base: u64, vocabulary: &[String]) -> Op {
    if i % 8 == 7 {
        Op::Batch(
            (0..BATCH_SIZE)
                .map(|_| {
                    (
                        user_base + rng.random_range(0u64..USERS_PER_THREAD),
                        SUGGEST_K,
                    )
                })
                .collect(),
        )
    } else if i.is_multiple_of(3) {
        Op::Suggest(user_base + rng.random_range(0u64..USERS_PER_THREAD))
    } else {
        let user = user_base + rng.random_range(0u64..USERS_PER_THREAD);
        let query = vocabulary[rng.random_range(0usize..vocabulary.len())].clone();
        Op::Track(user, query)
    }
}

#[derive(Clone, Copy, Debug, Default)]
struct LatReport {
    ops: u64,
    nonempty: u64,
    elapsed_secs: f64,
    p50_us: f64,
    p99_us: f64,
    max_us: f64,
    /// p50 over the single (non-batch) round trips only: the Nagle canary.
    single_p50_us: f64,
}

fn summarize(per_thread: Vec<(Vec<u64>, Vec<u64>, u64)>, elapsed_secs: f64) -> LatReport {
    let mut all: Vec<u64> = Vec::new();
    let mut singles: Vec<u64> = Vec::new();
    let mut nonempty = 0u64;
    for (lat, single, ne) in per_thread {
        all.extend(lat);
        singles.extend(single);
        nonempty += ne;
    }
    all.sort_unstable();
    singles.sort_unstable();
    LatReport {
        ops: all.len() as u64,
        nonempty,
        elapsed_secs,
        p50_us: percentile_us(&all, 0.50),
        p99_us: percentile_us(&all, 0.99),
        max_us: percentile_us(&all, 1.0),
        single_p50_us: percentile_us(&singles, 0.50),
    }
}

/// The baseline: one bare keep-alive `NetClient` per thread, every failure
/// a panic (there must be none — the server is healthy and local).
fn run_raw(addr: SocketAddr, vocabulary: &[String]) -> LatReport {
    let started = Instant::now();
    let per_thread = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                scope.spawn(move || {
                    let mut client = NetClient::connect(addr).expect("raw connect");
                    let mut rng = StdRng::seed_from_u64(SEED ^ (t as u64) << 32);
                    let user_base = t as u64 * 1_000_000;
                    let mut lat = Vec::with_capacity(OPS_PER_THREAD);
                    let mut singles = Vec::with_capacity(OPS_PER_THREAD);
                    let mut nonempty = 0u64;
                    for i in 0..OPS_PER_THREAD {
                        let now = i as u64 * 2;
                        let op = gen_op(i, &mut rng, user_base, vocabulary);
                        let t0 = Instant::now();
                        match op {
                            Op::Batch(entries) => {
                                let entries: Vec<BatchEntry> = entries
                                    .into_iter()
                                    .map(|(user, k)| BatchEntry { user, k })
                                    .collect();
                                match client.suggest_batch(&entries, now).expect("raw batch") {
                                    BatchAnswer::Lists(lists) => {
                                        nonempty +=
                                            lists.iter().filter(|l| !l.is_empty()).count() as u64
                                    }
                                    BatchAnswer::Overloaded { .. } => panic!("no limit set"),
                                }
                                lat.push(t0.elapsed().as_nanos() as u64);
                            }
                            Op::Suggest(user) => {
                                match client.suggest(user, SUGGEST_K, now).expect("raw suggest") {
                                    ServeAnswer::Suggestions(s) => nonempty += !s.is_empty() as u64,
                                    ServeAnswer::Overloaded { .. } => panic!("no limit set"),
                                }
                                let ns = t0.elapsed().as_nanos() as u64;
                                lat.push(ns);
                                singles.push(ns);
                            }
                            Op::Track(user, query) => {
                                match client
                                    .track_and_suggest(user, &query, SUGGEST_K, now)
                                    .expect("raw track")
                                {
                                    ServeAnswer::Suggestions(s) => nonempty += !s.is_empty() as u64,
                                    ServeAnswer::Overloaded { .. } => panic!("no limit set"),
                                }
                                let ns = t0.elapsed().as_nanos() as u64;
                                lat.push(ns);
                                singles.push(ns);
                            }
                        }
                    }
                    (lat, singles, nonempty)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    summarize(per_thread, started.elapsed().as_secs_f64())
}

/// The resilient tier on the same traffic: every op pays breaker
/// admission, deadline arithmetic, and pooled checkout/checkin.
fn run_remote(remote: &RemoteEngine, vocabulary: &[String]) -> LatReport {
    let started = Instant::now();
    let per_thread = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(SEED ^ (t as u64) << 32);
                    let user_base = t as u64 * 1_000_000;
                    let mut lat = Vec::with_capacity(OPS_PER_THREAD);
                    let mut singles = Vec::with_capacity(OPS_PER_THREAD);
                    let mut nonempty = 0u64;
                    for i in 0..OPS_PER_THREAD {
                        let now = i as u64 * 2;
                        let op = gen_op(i, &mut rng, user_base, vocabulary);
                        let t0 = Instant::now();
                        match op {
                            Op::Batch(entries) => {
                                let reqs: Vec<SuggestRequest> = entries
                                    .into_iter()
                                    .map(|(user, k)| SuggestRequest { user, k })
                                    .collect();
                                match remote.remote_suggest_batch(&reqs, now) {
                                    RemoteOutcome::Answered(lists) => {
                                        nonempty +=
                                            lists.iter().filter(|l| !l.is_empty()).count() as u64
                                    }
                                    other => panic!("healthy tier degraded: {other:?}"),
                                }
                                lat.push(t0.elapsed().as_nanos() as u64);
                            }
                            Op::Suggest(user) => {
                                match remote.remote_suggest(user, SUGGEST_K, now) {
                                    RemoteOutcome::Answered(s) => nonempty += !s.is_empty() as u64,
                                    other => panic!("healthy tier degraded: {other:?}"),
                                }
                                let ns = t0.elapsed().as_nanos() as u64;
                                lat.push(ns);
                                singles.push(ns);
                            }
                            Op::Track(user, query) => {
                                match remote.remote_track_and_suggest(user, &query, SUGGEST_K, now)
                                {
                                    RemoteOutcome::Answered(s) => nonempty += !s.is_empty() as u64,
                                    other => panic!("healthy tier degraded: {other:?}"),
                                }
                                let ns = t0.elapsed().as_nanos() as u64;
                                lat.push(ns);
                                singles.push(ns);
                            }
                        }
                    }
                    (lat, singles, nonempty)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    summarize(per_thread, started.elapsed().as_secs_f64())
}

#[derive(Debug)]
struct FailoverReport {
    ops: u64,
    answered: u64,
    worst_op_ms: u64,
    settle_ms: u64,
    breaker_trips: u64,
    failovers: u64,
}

/// Kill one of two endpoints mid-run (black-hole, the nastiest failure:
/// the socket stays open, only the deadline saves the caller) and measure
/// what the callers see. Idempotent ops only, so the contract is sharp:
/// *everything* still answers, and the worst op — the one that pays the
/// attempt timeout before failing over — stays within the deadline.
fn run_failover(snapshot: Arc<ModelSnapshot>) -> FailoverReport {
    let victim_server = NetServer::start(
        Arc::new(ServeEngine::new(snapshot.clone(), EngineConfig::default())),
        ServerConfig::default(),
    )
    .expect("victim server");
    let healthy_server = NetServer::start(
        Arc::new(ServeEngine::new(snapshot, EngineConfig::default())),
        ServerConfig::default(),
    )
    .expect("healthy server");
    let proxy = ChaosProxy::start(
        victim_server.serve_addr(),
        Chaos::new(FaultPlan::quiet(SEED)),
    )
    .expect("proxy");

    let remote = RemoteEngine::connect(
        vec![
            EndpointConfig::serve_only(proxy.listen_addr()),
            EndpointConfig::serve_only(healthy_server.serve_addr()),
        ],
        RemoteConfig {
            deadline: FAILOVER_DEADLINE,
            attempt_timeout: Duration::from_millis(250),
            connect_timeout: Duration::from_millis(250),
            max_attempts: 3,
            breaker: BreakerConfig {
                threshold: 1,
                cooldown: Duration::from_millis(200),
            },
            seed: SEED,
            ..RemoteConfig::default()
        },
    );

    // Warm both endpoints, spreading users over both homes.
    for user in 0..64u64 {
        assert!(
            remote.remote_suggest(user, SUGGEST_K, 10).is_answered(),
            "warmup op failed"
        );
    }

    // Kill the victim mid-run and drive the post-kill window.
    proxy.set_blackhole(true);
    proxy.kill_connections();
    let mut worst = Duration::ZERO;
    let mut answered = 0u64;
    let mut settle_ms = 0u64;
    let window_started = Instant::now();
    const WINDOW_OPS: u64 = 200;
    for user in 0..WINDOW_OPS {
        let t0 = Instant::now();
        if remote.remote_suggest(user, SUGGEST_K, 20).is_answered() {
            answered += 1;
        }
        let took = t0.elapsed();
        worst = worst.max(took);
        // Settle point: the first op after which the tier is fast again
        // (breaker open, victim skipped without touching a socket).
        if settle_ms == 0 && took < Duration::from_millis(50) && user > 0 {
            settle_ms = window_started.elapsed().as_millis() as u64;
        }
    }
    let stats = remote.remote_stats();
    let report = FailoverReport {
        ops: WINDOW_OPS,
        answered,
        worst_op_ms: worst.as_millis() as u64,
        settle_ms,
        breaker_trips: remote
            .endpoint_breaker(0)
            .expect("the tier has an endpoint 0")
            .trips,
        failovers: stats.failovers,
    };

    remote.drain_pools();
    proxy.shutdown();
    victim_server.shutdown();
    healthy_server.shutdown();
    report
}

fn lat_json(r: &LatReport, indent: &str) -> String {
    format!(
        "{indent}\"ops\": {},\n{indent}\"nonempty_suggestions\": {},\n{indent}\"elapsed_secs\": {:.3},\n{indent}\"throughput_ops_per_sec\": {:.0},\n{indent}\"p50_us\": {:.1},\n{indent}\"p99_us\": {:.1},\n{indent}\"max_us\": {:.1},\n{indent}\"single_op_p50_us\": {:.1}\n",
        r.ops,
        r.nonempty,
        r.elapsed_secs,
        r.ops as f64 / r.elapsed_secs.max(1e-9),
        r.p50_us,
        r.p99_us,
        r.max_us,
        r.single_p50_us,
    )
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_PR9.json".into());

    let corpus_cfg = ServeLoopConfig {
        threads: THREADS,
        ops_per_thread: OPS_PER_THREAD,
        users_per_thread: USERS_PER_THREAD as usize,
        suggest_k: SUGGEST_K,
        batch_size: BATCH_SIZE,
        swaps: 0,
        corpus_sessions: 5_000,
        seed: SEED,
    };
    let (snapshot, vocabulary, _records) = build_parts(&corpus_cfg);

    // Baseline: bare NetClients against a fresh server.
    eprintln!(
        "raw NetClient: {THREADS} threads x {OPS_PER_THREAD} ops, batch {BATCH_SIZE} every 8th…"
    );
    let raw_server = NetServer::start(
        Arc::new(ServeEngine::new(snapshot.clone(), EngineConfig::default())),
        ServerConfig::default(),
    )
    .expect("raw server");
    let raw = run_raw(raw_server.serve_addr(), &vocabulary);
    raw_server.shutdown();
    eprintln!(
        "  p50 {:.1}µs p99 {:.1}µs max {:.1}µs | single-op p50 {:.1}µs",
        raw.p50_us, raw.p99_us, raw.max_us, raw.single_p50_us
    );

    // Resilient tier: same traffic, fresh server, RemoteEngine transport.
    eprintln!("RemoteEngine: identical seeded traffic through the resilient tier…");
    let remote_server = NetServer::start(
        Arc::new(ServeEngine::new(snapshot.clone(), EngineConfig::default())),
        ServerConfig::default(),
    )
    .expect("remote server");
    let remote_engine = RemoteEngine::connect(
        vec![EndpointConfig::serve_only(remote_server.serve_addr())],
        RemoteConfig {
            deadline: Duration::from_secs(2),
            attempt_timeout: Duration::from_millis(500),
            seed: SEED,
            ..RemoteConfig::default()
        },
    );
    let remote = run_remote(&remote_engine, &vocabulary);
    remote_engine.drain_pools();
    remote_server.shutdown();
    eprintln!(
        "  p50 {:.1}µs p99 {:.1}µs max {:.1}µs | single-op p50 {:.1}µs",
        remote.p50_us, remote.p99_us, remote.max_us, remote.single_p50_us
    );

    assert_eq!(
        raw.ops, remote.ops,
        "the two runs must send identical traffic"
    );
    assert_eq!(
        raw.nonempty, remote.nonempty,
        "identical traffic must produce identical answers"
    );

    let p99_ratio = remote.p99_us / raw.p99_us.max(1e-9);
    eprintln!("  remote/raw p99: {p99_ratio:.2}x (gate {MAX_P99_RATIO}x)");
    assert!(
        p99_ratio <= MAX_P99_RATIO,
        "remote p99 {:.1}µs exceeds {MAX_P99_RATIO}x the raw p99 {:.1}µs",
        remote.p99_us,
        raw.p99_us
    );

    // TCP_NODELAY canary on both transports: a lost set_nodelay shows up
    // as a ~40ms single-op p50 (write-write-read vs Nagle + delayed ACK).
    for (label, r) in [("raw", &raw), ("remote", &remote)] {
        assert!(
            r.single_p50_us < MAX_SINGLE_OP_P50_US,
            "{label} single-op p50 {:.1}µs smells like Nagle (gate {MAX_SINGLE_OP_P50_US}µs)",
            r.single_p50_us
        );
    }

    // Failover: kill one of two endpoints mid-run, nothing may be lost.
    eprintln!("failover: black-holing one of two endpoints mid-run…");
    let failover = run_failover(snapshot);
    eprintln!(
        "  {}/{} answered | worst op {}ms (deadline {}ms) | settled after {}ms | {} trips, {} failovers",
        failover.answered,
        failover.ops,
        failover.worst_op_ms,
        FAILOVER_DEADLINE.as_millis(),
        failover.settle_ms,
        failover.breaker_trips,
        failover.failovers
    );
    assert_eq!(
        failover.answered, failover.ops,
        "idempotent ops must all survive a single-endpoint failure"
    );
    assert!(
        failover.worst_op_ms <= (FAILOVER_DEADLINE + FAILOVER_SLACK).as_millis() as u64,
        "failover op outlived its deadline: {failover:?}"
    );
    assert!(failover.breaker_trips >= 1, "{failover:?}");
    assert!(failover.failovers >= 1, "{failover:?}");

    let host_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!(
        "  \"workload\": {{\"threads\": {THREADS}, \"ops_per_thread\": {OPS_PER_THREAD}, \"users_per_thread\": {USERS_PER_THREAD}, \"suggest_k\": {SUGGEST_K}, \"batch_size\": {BATCH_SIZE}, \"corpus_sessions\": {}, \"seed\": {SEED}}},\n",
        corpus_cfg.corpus_sessions,
    ));
    json.push_str(&format!("  \"host_threads\": {host_threads},\n"));
    json.push_str("  \"raw_net_client\": {\n");
    json.push_str(&lat_json(&raw, "    "));
    json.push_str("  },\n");
    json.push_str("  \"remote_engine\": {\n");
    json.push_str(&lat_json(&remote, "    "));
    json.push_str("  },\n");
    json.push_str(&format!(
        "  \"remote_vs_raw\": {{\"p99_ratio\": {p99_ratio:.2}, \"max_p99_ratio_allowed\": {MAX_P99_RATIO:.1}}},\n"
    ));
    json.push_str(&format!(
        "  \"tcp_nodelay\": {{\"raw_single_op_p50_us\": {:.1}, \"remote_single_op_p50_us\": {:.1}, \"max_allowed_us\": {MAX_SINGLE_OP_P50_US:.0}}},\n",
        raw.single_p50_us, remote.single_p50_us,
    ));
    json.push_str(&format!(
        "  \"failover\": {{\"window_ops\": {}, \"answered\": {}, \"worst_op_ms\": {}, \"settle_ms\": {}, \"deadline_ms\": {}, \"breaker_trips\": {}, \"failovers\": {}}},\n",
        failover.ops,
        failover.answered,
        failover.worst_op_ms,
        failover.settle_ms,
        FAILOVER_DEADLINE.as_millis(),
        failover.breaker_trips,
        failover.failovers,
    ));
    json.push_str(&format!(
        "  \"notes\": \"{}\"\n",
        json_escape(
            "raw_net_client and remote_engine run byte-identical seeded traffic (same corpus, \
             same per-thread PRNG streams, batch every 8th op) against fresh servers over the \
             same snapshot, so their delta is the resilience machinery on the steady-state \
             path: breaker admission, deadline arithmetic, and pooled checkout/checkin per op. \
             The nonempty-suggestion counts are asserted equal, proving the tiers computed the \
             same answers. single_op_p50_us is the TCP_NODELAY canary: a write-write-read \
             protocol that loses set_nodelay pays ~40ms to Nagle + delayed ACK. The failover \
             row black-holes one of two endpoints mid-run behind a chaos proxy: the worst op \
             pays one attempt timeout before failing over (within the deadline), the breaker \
             trips, and after it opens the dead endpoint is skipped without touching a socket \
             (settle_ms)"
        )
    ));
    json.push_str("}\n");

    std::fs::write(&out_path, &json).expect("write BENCH_PR9.json");
    eprintln!(
        "wrote {out_path}: remote p99 {:.1}µs vs raw p99 {:.1}µs ({p99_ratio:.2}x, gate {MAX_P99_RATIO}x)",
        remote.p99_us, raw.p99_us
    );
}
