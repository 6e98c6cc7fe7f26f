//! The `remote-soak` acceptance suite for the cross-process resilient tier.
//!
//! A `RemoteEngine` fronts **two real `NetServer` processes-in-miniature**,
//! each reachable only through a [`ChaosProxy`], while multi-threaded
//! worker traffic runs through five phases: healthy → one endpoint
//! black-holed (breaker trips, traffic fails over) → revived (half-open
//! probe closes the breaker) → **both** endpoints black-holed (typed
//! fast-fail degradation) → revived (full recovery). The suite proves the
//! three resilience contracts of the remote tier:
//!
//! * **Total accounting** — every operation a worker sends resolves as
//!   answered, typed-shed, or typed-degraded: `answered + shed + degraded
//!   == sent`, per worker, per phase. Nothing hangs, nothing panics,
//!   nothing is silently lost.
//! * **Bounded latency** — no operation outlives its deadline by more than
//!   scheduling slack, even with every endpoint black-holed (the outcome a
//!   deadline-free client cannot offer: it would hang forever).
//! * **Replayability** — the healthy-phase answer content and the
//!   per-phase traffic accounting fold into a digest that is bit-identical
//!   across two full scenario runs from the same seed, and differs across
//!   seeds.
//!
//! A separate test pins the typed-shed path end to end: an engine whose
//! admission budget is exhausted sheds over the wire, and the
//! `RemoteEngine` surfaces it as [`RemoteOutcome::Shed`] /
//! [`ServeError::Overloaded`](sqp_serve::ServeError) — never as a degraded or empty
//! answer.

use sqp_bench::serve_loop::{build_parts, ServeLoopConfig};
use sqp_common::breaker::{BreakerConfig, BreakerState, BreakerStats};
use sqp_common::rng::{Rng, StdRng};
use sqp_faults::{Chaos, ChaosProxy, FaultPlan};
use sqp_net::{EndpointConfig, NetServer, RemoteConfig, RemoteEngine, RemoteOutcome, ServerConfig};
use sqp_serve::{EngineConfig, ServeEngine, ServeError, ServeSurface, SuggestRequest};
use std::sync::Arc;
use std::time::{Duration, Instant};

const WORKERS: usize = 4;
const OPS_PER_PHASE: usize = 24;
const USERS_PER_WORKER: u64 = 24;
const SUGGEST_K: usize = 3;
/// No operation may take longer than this, in any phase. The deadline is
/// 1s; the bound leaves room for one attempt granted just before expiry
/// plus scheduling slack — versus the unbounded hang a black-holed
/// endpoint inflicts on a deadline-free client.
const HANG_BOUND_MS: u64 = 4_000;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fold(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

fn fold_u64(h: u64, v: u64) -> u64 {
    fold(h, &v.to_le_bytes())
}

/// One worker's accounting for one phase.
#[derive(Clone, Copy, Debug)]
struct PhaseTally {
    sent: u64,
    answered: u64,
    shed: u64,
    degraded: u64,
    /// Worst single-operation wall clock, milliseconds.
    max_ms: u64,
    /// FNV-1a over the answered suggestion texts, in send order. Only the
    /// healthy first phase folds this into the scenario digest — later
    /// phases' answer sets depend on probe timing.
    content: u64,
}

impl Default for PhaseTally {
    fn default() -> Self {
        Self {
            sent: 0,
            answered: 0,
            shed: 0,
            degraded: 0,
            max_ms: 0,
            content: FNV_OFFSET,
        }
    }
}

/// Drive one phase of seeded mixed traffic: `WORKERS` threads, each with
/// its own user population and PRNG stream, mixing tracked suggests (never
/// re-sent), stateless suggests, and batched suggests (both retried).
fn drive_phase(
    remote: &RemoteEngine,
    vocabulary: &[String],
    seed: u64,
    phase: u64,
) -> Vec<PhaseTally> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..WORKERS)
            .map(|w| {
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(seed ^ ((w as u64) << 32) ^ (phase << 16));
                    let mut tally = PhaseTally::default();
                    let user_base = w as u64 * 1_000_000;
                    for i in 0..OPS_PER_PHASE {
                        // Phases are spaced past the session-gap rule, so
                        // every phase starts fresh sessions; within a
                        // phase the logical clock keeps sessions alive.
                        let now = phase * 10_000 + i as u64 * 2;
                        let started = Instant::now();
                        if i % 8 == 7 {
                            let reqs: Vec<SuggestRequest> = (0..4)
                                .map(|_| SuggestRequest {
                                    user: user_base + rng.random_range(0u64..USERS_PER_WORKER),
                                    k: SUGGEST_K,
                                })
                                .collect();
                            match remote.remote_suggest_batch(&reqs, now) {
                                RemoteOutcome::Answered(lists) => {
                                    tally.answered += 1;
                                    for list in &lists {
                                        for s in list {
                                            tally.content = fold(tally.content, s.query.as_bytes());
                                            tally.content = fold(tally.content, &[0xff]);
                                        }
                                    }
                                }
                                RemoteOutcome::Shed { .. } => tally.shed += 1,
                                RemoteOutcome::Degraded(_) => tally.degraded += 1,
                            }
                        } else if i.is_multiple_of(3) {
                            let user = user_base + rng.random_range(0u64..USERS_PER_WORKER);
                            match remote.remote_suggest(user, SUGGEST_K, now) {
                                RemoteOutcome::Answered(list) => {
                                    tally.answered += 1;
                                    for s in &list {
                                        tally.content = fold(tally.content, s.query.as_bytes());
                                        tally.content = fold(tally.content, &[0xff]);
                                    }
                                }
                                RemoteOutcome::Shed { .. } => tally.shed += 1,
                                RemoteOutcome::Degraded(_) => tally.degraded += 1,
                            }
                        } else {
                            let user = user_base + rng.random_range(0u64..USERS_PER_WORKER);
                            let query = &vocabulary[rng.random_range(0usize..vocabulary.len())];
                            match remote.remote_track_and_suggest(user, query, SUGGEST_K, now) {
                                RemoteOutcome::Answered(list) => {
                                    tally.answered += 1;
                                    for s in &list {
                                        tally.content = fold(tally.content, s.query.as_bytes());
                                        tally.content = fold(tally.content, &[0xff]);
                                    }
                                }
                                RemoteOutcome::Shed { .. } => tally.shed += 1,
                                RemoteOutcome::Degraded(_) => tally.degraded += 1,
                            }
                        }
                        tally.sent += 1;
                        tally.max_ms = tally.max_ms.max(started.elapsed().as_millis() as u64);
                    }
                    tally
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
}

/// Every sent operation resolved, and none outlived its deadline.
fn assert_accounted(phase: &str, tallies: &[PhaseTally]) {
    for (w, t) in tallies.iter().enumerate() {
        assert_eq!(
            t.answered + t.shed + t.degraded,
            t.sent,
            "phase {phase}, worker {w}: operations lost ({t:?})"
        );
        assert!(
            t.max_ms <= HANG_BOUND_MS,
            "phase {phase}, worker {w}: operation outlived its deadline ({t:?})"
        );
    }
}

fn answered(tallies: &[PhaseTally]) -> u64 {
    tallies.iter().map(|t| t.answered).sum()
}

fn sent(tallies: &[PhaseTally]) -> u64 {
    tallies.iter().map(|t| t.sent).sum()
}

/// Breaker of endpoint `idx`, which the scenario knows exists.
fn breaker(remote: &RemoteEngine, idx: usize) -> BreakerStats {
    remote
        .endpoint_breaker(idx)
        .expect("endpoint index in range")
}

/// Ping until endpoint `idx`'s breaker reaches `want` (pings alternate
/// their home endpoint, so both breakers see attempts and, once a cooldown
/// elapses, half-open probes).
fn await_breaker(remote: &RemoteEngine, idx: usize, want: BreakerState) {
    for _ in 0..400 {
        if breaker(remote, idx).state == want {
            return;
        }
        let _ = remote.remote_ping();
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!(
        "endpoint {idx} breaker never reached {want:?}: {:?}",
        breaker(remote, idx)
    );
}

struct ScenarioReport {
    digest: u64,
}

/// One full five-phase chaos scenario, built from scratch: fresh corpus,
/// fresh servers, fresh proxies, fresh remote tier. Every resilience
/// assertion lives in here; the caller compares digests across runs.
fn run_scenario(seed: u64) -> ScenarioReport {
    let corpus_cfg = ServeLoopConfig {
        threads: WORKERS,
        ops_per_thread: OPS_PER_PHASE,
        users_per_thread: USERS_PER_WORKER as usize,
        suggest_k: SUGGEST_K,
        batch_size: 4,
        swaps: 0,
        corpus_sessions: 400,
        seed,
    };
    let (snapshot, vocabulary, _records) = build_parts(&corpus_cfg);

    // Two real server processes-in-miniature over the same snapshot.
    let servers: Vec<NetServer> = (0..2)
        .map(|_| {
            NetServer::start(
                Arc::new(ServeEngine::new(snapshot.clone(), EngineConfig::default())),
                ServerConfig::default(),
            )
            .expect("server start")
        })
        .collect();

    // Each server is reachable only through its chaos proxy.
    let proxies: Vec<ChaosProxy> = servers
        .iter()
        .enumerate()
        .map(|(i, s)| {
            ChaosProxy::start(
                s.serve_addr(),
                Chaos::new(FaultPlan::quiet(seed ^ i as u64)),
            )
            .expect("proxy start")
        })
        .collect();

    let remote = RemoteEngine::connect(
        proxies
            .iter()
            .map(|p| EndpointConfig::serve_only(p.listen_addr()))
            .collect(),
        RemoteConfig {
            deadline: Duration::from_secs(1),
            attempt_timeout: Duration::from_millis(250),
            connect_timeout: Duration::from_millis(250),
            max_attempts: 3,
            backoff_initial: Duration::from_millis(5),
            backoff_cap: Duration::from_millis(40),
            breaker: BreakerConfig {
                threshold: 1,
                cooldown: Duration::from_millis(200),
            },
            seed,
            ..RemoteConfig::default()
        },
    );
    let victim = 0usize;

    // Phase A — healthy: every operation answered, content recorded for
    // the replay digest.
    let phase_a = drive_phase(&remote, &vocabulary, seed, 0);
    assert_accounted("A(healthy)", &phase_a);
    assert_eq!(
        answered(&phase_a),
        sent(&phase_a),
        "healthy phase must answer everything: {phase_a:?}"
    );

    // Phase B — black-hole the victim: its breaker trips, traffic fails
    // over to the healthy endpoint. (Probe admissions into the black hole
    // may degrade individual operations; the accounting still balances.)
    proxies[victim].set_blackhole(true);
    proxies[victim].kill_connections();
    remote.drain_pools();
    await_breaker(&remote, victim, BreakerState::Open);
    let phase_b = drive_phase(&remote, &vocabulary, seed, 1);
    assert_accounted("B(victim down)", &phase_b);
    assert!(
        answered(&phase_b) > 0,
        "failover must keep answering: {phase_b:?}"
    );
    assert!(
        breaker(&remote, victim).trips >= 1,
        "victim breaker must have tripped"
    );

    // Phase C — revive the victim: cooldown elapses, a half-open probe
    // succeeds, the breaker closes again. Open → Closed is the
    // transition the issue demands be *observed*, not assumed.
    proxies[victim].set_blackhole(false);
    proxies[victim].kill_connections();
    remote.drain_pools();
    await_breaker(&remote, victim, BreakerState::Closed);
    assert!(
        breaker(&remote, victim).recoveries >= 1,
        "half-open probe must have closed the victim's breaker"
    );
    let phase_c = drive_phase(&remote, &vocabulary, seed, 2);
    assert_accounted("C(revived)", &phase_c);
    assert_eq!(
        answered(&phase_c),
        sent(&phase_c),
        "revived tier must answer everything: {phase_c:?}"
    );

    // Phase D — black-hole BOTH endpoints: nothing can answer, so every
    // operation degrades typed and fast (open breakers fast-fail without
    // touching a socket).
    for p in &proxies {
        p.set_blackhole(true);
        p.kill_connections();
    }
    remote.drain_pools();
    await_breaker(&remote, 0, BreakerState::Open);
    await_breaker(&remote, 1, BreakerState::Open);
    let phase_d = drive_phase(&remote, &vocabulary, seed, 3);
    assert_accounted("D(all down)", &phase_d);
    for (w, t) in phase_d.iter().enumerate() {
        assert_eq!(t.answered, 0, "worker {w} answered with no endpoint up");
        assert_eq!(t.shed, 0, "worker {w} shed with no endpoint up");
        assert_eq!(
            t.degraded, t.sent,
            "worker {w}: every op must degrade typed: {t:?}"
        );
    }

    // Phase E — revive both: the whole tier recovers, no operator action
    // beyond un-breaking the network.
    for p in &proxies {
        p.set_blackhole(false);
        p.kill_connections();
    }
    remote.drain_pools();
    await_breaker(&remote, 0, BreakerState::Closed);
    await_breaker(&remote, 1, BreakerState::Closed);
    let phase_e = drive_phase(&remote, &vocabulary, seed, 4);
    assert_accounted("E(recovered)", &phase_e);
    assert_eq!(
        answered(&phase_e),
        sent(&phase_e),
        "recovered tier must answer everything: {phase_e:?}"
    );

    // Scenario-level evidence: both breakers cycled (the victim twice),
    // failover and retries actually happened, degradation was counted.
    let stats = remote.remote_stats();
    assert!(stats.failovers > 0, "no failover observed: {stats:?}");
    assert!(stats.degraded > 0, "no degradation observed: {stats:?}");
    let vb = breaker(&remote, victim);
    assert!(vb.trips >= 2 && vb.recoveries >= 2, "victim cycle: {vb:?}");
    let ob = breaker(&remote, 1);
    assert!(ob.trips >= 1 && ob.recoveries >= 1, "other cycle: {ob:?}");

    // The replay digest: seed, per-phase per-worker sent counts and
    // resolution totals (all deterministic by the assertions above), plus
    // the healthy phase's answer content in full.
    let mut digest = fold_u64(FNV_OFFSET, seed);
    for (p, tallies) in [&phase_a, &phase_b, &phase_c, &phase_d, &phase_e]
        .iter()
        .enumerate()
    {
        for t in tallies.iter() {
            digest = fold_u64(digest, t.sent);
            digest = fold_u64(digest, t.answered + t.shed + t.degraded);
            if p == 0 {
                digest = fold_u64(digest, t.content);
            }
        }
    }

    remote.drain_pools();
    for p in proxies {
        p.shutdown();
    }
    for s in servers {
        s.shutdown();
    }
    ScenarioReport { digest }
}

#[test]
fn five_phase_chaos_scenario_replays_bit_identically() {
    let first = run_scenario(7);
    let second = run_scenario(7);
    assert_eq!(
        first.digest, second.digest,
        "same seed, fresh tier: the scenario must replay bit-identically"
    );
    let other = run_scenario(11);
    assert_ne!(
        other.digest, first.digest,
        "a different seed must produce different traffic"
    );
}

#[test]
fn shed_is_typed_end_to_end() {
    let corpus_cfg = ServeLoopConfig {
        corpus_sessions: 200,
        ..ServeLoopConfig::smoke()
    };
    let (snapshot, _vocabulary, _records) = build_parts(&corpus_cfg);
    let engine = Arc::new(ServeEngine::new(
        snapshot,
        EngineConfig {
            max_in_flight: 1,
            ..EngineConfig::default()
        },
    ));
    let server = NetServer::start(engine.clone(), ServerConfig::default()).expect("server start");
    let remote = RemoteEngine::connect(
        vec![EndpointConfig::serve_only(server.serve_addr())],
        RemoteConfig::default(),
    );

    // Hold the engine's only admission slot: every serve-path request now
    // sheds deterministically — no racing threads required.
    let permit = engine.admit().expect("first permit");
    match remote.remote_suggest(1, 3, 10) {
        RemoteOutcome::Shed { limit } => assert_eq!(limit, 1),
        other => panic!("exhausted budget must shed typed, got {other:?}"),
    }
    // Through the ServeSurface trait the shed is a typed `Overloaded`,
    // exactly like an in-process engine — not an empty answer.
    assert_eq!(
        remote.try_suggest(1, 3, 10),
        Err(ServeError::Overloaded { limit: 1 })
    );

    // Release the slot: the same tier answers again. A shed is
    // back-pressure, not an outage — and it never trips the breaker.
    drop(permit);
    assert!(remote.remote_suggest(1, 3, 20).is_answered());
    let stats = remote.remote_stats();
    assert!(stats.sheds >= 2, "sheds must be counted: {stats:?}");
    assert_eq!(breaker(&remote, 0).trips, 0, "sheds are not faults");

    remote.drain_pools();
    server.shutdown();
}
