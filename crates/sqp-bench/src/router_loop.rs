//! Router-tier workloads: the replicated counterpart of [`serve_loop`].
//!
//! Three harnesses, all over a [`RouterEngine`]:
//!
//! * [`run_router`] — the exact [`serve_loop`] stress workload (same seeds,
//!   same op mix) pointed at an N-replica tier, so "router overhead vs
//!   single engine" is one subtraction between two [`ServeLoopReport`]s.
//! * [`run_skew_soak`] — the **generation-skew acceptance scenario**: a
//!   rolling upgrade is deliberately held mid-roll while worker threads
//!   hammer mixed traffic, and every suggestion's provenance is read off
//!   its text (tagged vocabularies, as in the umbrella's
//!   `serve_concurrency` tests). The harness panics on any torn read, any
//!   user whose suggestions regress from the new model back to the old
//!   (which would mean their session migrated replicas), or any route that
//!   is not sticky.
//! * [`run_chaos_roll`] — **chaos under routing**: a [`FaultPlan`] fails
//!   exactly one replica's snapshot read mid-roll; that replica must
//!   quarantine and keep serving its last-good model while the rest of the
//!   tier completes, and the whole scenario must replay bit-identically
//!   from the seed (asserted via [`Chaos::digest`]).
//!
//! [`serve_loop`]: crate::serve_loop

use crate::serve_loop::{build_parts, run_on, ServeLoopConfig, ServeLoopReport};
use sqp_faults::{Chaos, FaultPlan};
use sqp_logsim::RawLogRecord;
use sqp_router::{RouterConfig, RouterEngine};
use sqp_serve::{ModelSnapshot, ModelSpec, SuggestRequest, Suggestion, TrainingConfig};
use sqp_store::{save_snapshot, RollPolicy, RouterPublish, SnapshotMeta};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Run the [`serve_loop`](crate::serve_loop) stress workload against an
/// N-replica router tier. Identical `cfg` produces identical traffic to
/// [`run`](crate::serve_loop::run) on a single engine, so the two reports
/// measure the routing layer's overhead and nothing else.
pub fn run_router(cfg: &ServeLoopConfig, replicas: usize) -> ServeLoopReport {
    let (snapshot, vocabulary, records) = build_parts(cfg);
    let router = RouterEngine::new(
        snapshot,
        RouterConfig {
            replicas,
            ..RouterConfig::default()
        },
    );
    run_on(&router, cfg, &vocabulary, &records)
}

fn rec(machine: u64, ts: u64, q: &str) -> RawLogRecord {
    RawLogRecord {
        machine_id: machine,
        timestamp: ts,
        query: q.into(),
        clicks: vec![],
    }
}

/// A corpus whose every suggestion after `"seed"` is tagged with `prefix`,
/// so a result's provenance is readable off its text (the
/// `serve_concurrency` pattern).
fn tagged_snapshot(prefix: &str) -> ModelSnapshot {
    let mut records = Vec::new();
    let mut machine = 0u64;
    for continuation in ["alpha", "beta", "gamma"] {
        for _ in 0..4 {
            records.push(rec(machine, 100, "seed"));
            records.push(rec(machine, 160, &format!("{prefix}::{continuation}")));
            machine += 1;
        }
    }
    ModelSnapshot::from_raw_logs(
        &records,
        &TrainingConfig {
            model: ModelSpec::Adjacency,
            ..TrainingConfig::default()
        },
    )
}

/// Classify one suggest call's provenance: `Some("old")`, `Some("new")`, or
/// `None` for an empty answer. Panics on a mixed or untagged result — that
/// is the torn read the whole scenario exists to rule out.
fn provenance_of(suggestions: &[Suggestion]) -> Option<&'static str> {
    let mut seen: Option<&'static str> = None;
    for s in suggestions {
        let tag = if s.query.starts_with("old::") {
            "old"
        } else if s.query.starts_with("new::") {
            "new"
        } else {
            panic!("suggestion from no known snapshot: {:?}", s.query);
        };
        match seen {
            None => seen = Some(tag),
            Some(prev) => assert_eq!(
                prev, tag,
                "torn read: one suggest call mixed snapshots: {suggestions:?}"
            ),
        }
    }
    seen
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sqp-router-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn save_tagged(dir: &std::path::Path, prefix: &str, generation: u64) -> PathBuf {
    let snapshot = tagged_snapshot(prefix);
    let path = dir.join(format!("gen-{generation}.sqps"));
    save_snapshot(
        &path,
        &snapshot,
        &SnapshotMeta::describe(&snapshot, generation, 24),
    )
    .unwrap();
    path
}

/// What [`run_skew_soak`] observed. Every invariant is asserted inside the
/// harness (it panics on violation); the report carries the evidence that
/// the interesting states were actually reached.
#[derive(Clone, Debug)]
pub struct SkewSoakReport {
    /// Worker threads that hammered the tier.
    pub threads: usize,
    /// Replicas in the tier.
    pub replicas: usize,
    /// Total suggest calls classified for provenance.
    pub ops_total: u64,
    /// Calls answered wholly from the old snapshot.
    pub saw_old: u64,
    /// Calls answered wholly from the new snapshot.
    pub saw_new: u64,
    /// Calls answered from the old snapshot *while the roll was in flight*
    /// — proof the skew window carried live traffic on both generations.
    pub old_during_roll: u64,
    /// Calls answered from the new snapshot while the roll was in flight.
    pub new_during_roll: u64,
    /// Largest generation skew observed by the mid-roll stats probes.
    pub max_skew_observed: u64,
    /// Tier generation after the roll (1 on success, every replica).
    pub final_generation: u64,
}

/// The generation-skew acceptance scenario (see module docs). `threads`
/// workers (the acceptance floor is 4) hammer mixed traffic while a
/// rolling upgrade is held for at least `hold_ops_per_step` classified
/// calls after each replica's step. Panics on any violated invariant.
pub fn run_skew_soak(threads: usize, hold_ops_per_step: u64) -> SkewSoakReport {
    assert!(threads >= 1 && hold_ops_per_step > 0);
    const REPLICAS: usize = 4;
    const USERS_PER_THREAD: u64 = 32;

    let dir = scratch_dir("skew");
    let new_path = save_tagged(&dir, "new", 1);
    let router = RouterEngine::new(
        Arc::new(tagged_snapshot("old")),
        RouterConfig {
            replicas: REPLICAS,
            ..RouterConfig::default()
        },
    );

    let stop = AtomicBool::new(false);
    let rolling = AtomicBool::new(false);
    let ops = AtomicU64::new(0);
    let saw_old = AtomicU64::new(0);
    let saw_new = AtomicU64::new(0);
    let old_during_roll = AtomicU64::new(0);
    let new_during_roll = AtomicU64::new(0);
    let mut max_skew_observed = 0u64;

    std::thread::scope(|scope| {
        for thread in 0..threads as u64 {
            let router = &router;
            let stop = &stop;
            let rolling = &rolling;
            let ops = &ops;
            let saw_old = &saw_old;
            let saw_new = &saw_new;
            let old_during_roll = &old_during_roll;
            let new_during_roll = &new_during_roll;
            scope.spawn(move || {
                let users: Vec<u64> = (0..USERS_PER_THREAD).map(|u| thread * 1_000 + u).collect();
                // Route stickiness: a user's home replica must never move.
                let homes: Vec<usize> = users.iter().map(|&u| router.replica_for(u)).collect();
                // Per-user provenance monotonicity: once a user has seen the
                // new model, seeing the old one again would mean their
                // session hopped to a not-yet-upgraded replica (or their
                // replica rolled backwards). `false` = old, `true` = new.
                let mut last: HashMap<u64, bool> = HashMap::new();
                let mut note = |user: u64, tag: Option<&'static str>| {
                    let Some(tag) = tag else { return };
                    let mid_roll = rolling.load(Ordering::Relaxed);
                    let is_new = tag == "new";
                    if is_new {
                        saw_new.fetch_add(1, Ordering::Relaxed);
                        if mid_roll {
                            new_during_roll.fetch_add(1, Ordering::Relaxed);
                        }
                    } else {
                        saw_old.fetch_add(1, Ordering::Relaxed);
                        if mid_roll {
                            old_during_roll.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    let prev = last.insert(user, is_new);
                    assert!(
                        prev != Some(true) || is_new,
                        "user {user} regressed from the new model to the old: \
                         their session migrated replicas mid-roll"
                    );
                };
                let mut iter = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let at = (iter % USERS_PER_THREAD) as usize;
                    let user = users[at];
                    assert_eq!(
                        router.replica_for(user),
                        homes[at],
                        "route for user {user} moved"
                    );
                    // Sessions stay well inside the 30-minute idle cutoff.
                    let now = 1_000 + (iter % 100);
                    if iter % 8 == 7 {
                        let reqs: Vec<SuggestRequest> = users
                            .iter()
                            .map(|&user| SuggestRequest { user, k: 3 })
                            .collect();
                        for (request, got) in reqs.iter().zip(router.suggest_batch(&reqs, now)) {
                            note(request.user, provenance_of(&got));
                        }
                        ops.fetch_add(reqs.len() as u64, Ordering::Relaxed);
                    } else if iter % 13 == 5 {
                        note(user, provenance_of(&router.suggest(user, 3, now)));
                        ops.fetch_add(1, Ordering::Relaxed);
                    } else {
                        let got = router.track_and_suggest(user, "seed", 3, now);
                        note(user, provenance_of(&got));
                        ops.fetch_add(1, Ordering::Relaxed);
                    }
                    iter += 1;
                }
            });
        }

        // Let every worker put traffic (and sessions) on the old model
        // before the roll begins.
        let wait_past = |target: u64| {
            while ops.load(Ordering::Relaxed) < target {
                std::thread::yield_now();
            }
        };
        wait_past(hold_ops_per_step);

        rolling.store(true, Ordering::Relaxed);
        let report = router.rolling_publish_with(
            &sqp_common::fsio::RealFs,
            &new_path,
            RollPolicy::ContinueOnFailure,
            &mut |step| {
                let upgraded_so_far = step.replica + 1;
                let stats = router.stats();
                assert_eq!(stats.max_generation(), 1, "leading edge after a step");
                let expected_min = u64::from(upgraded_so_far >= REPLICAS);
                assert_eq!(
                    stats.min_generation(),
                    expected_min,
                    "trailing edge after replica {}'s step",
                    step.replica
                );
                max_skew_observed = max_skew_observed.max(stats.generation_skew());
                // Hold the tier on mixed generations under live fire: the
                // roll may not advance until the workers have pushed
                // another `hold_ops_per_step` classified calls through it.
                wait_past(ops.load(Ordering::Relaxed) + hold_ops_per_step);
            },
        );
        rolling.store(false, Ordering::Relaxed);
        assert!(report.complete(), "roll did not complete: {report:?}");
        assert_eq!(report.upgraded, (0..REPLICAS).collect::<Vec<_>>());

        // A tail of traffic against the converged tier, then stop.
        wait_past(ops.load(Ordering::Relaxed) + hold_ops_per_step);
        stop.store(true, Ordering::Relaxed);
    });

    let stats = router.stats();
    assert!(stats.is_converged(), "tier left skewed: {stats:?}");
    assert_eq!(stats.min_generation(), 1);
    assert_eq!(stats.quarantined(), 0);
    for row in &stats.replicas {
        assert_eq!(row.generation, 1, "a replica missed the roll");
    }
    let report = SkewSoakReport {
        threads,
        replicas: REPLICAS,
        ops_total: ops.load(Ordering::Relaxed),
        saw_old: saw_old.load(Ordering::Relaxed),
        saw_new: saw_new.load(Ordering::Relaxed),
        old_during_roll: old_during_roll.load(Ordering::Relaxed),
        new_during_roll: new_during_roll.load(Ordering::Relaxed),
        max_skew_observed,
        final_generation: stats.min_generation(),
    };
    // The scenario is vacuous unless both generations actually served
    // traffic, skew was really observed, and the skew window itself carried
    // answers from both models.
    assert!(report.saw_old > 0, "old snapshot never served: {report:?}");
    assert!(report.saw_new > 0, "new snapshot never served: {report:?}");
    assert!(
        report.old_during_roll > 0 && report.new_during_roll > 0,
        "the mid-roll window never served both generations: {report:?}"
    );
    assert_eq!(report.max_skew_observed, 1);
    std::fs::remove_dir_all(&dir).unwrap();
    report
}

/// What [`run_chaos_roll`] observed; all invariants are asserted inside.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChaosRollReport {
    /// The replica whose snapshot read the plan failed.
    pub failed_replica: usize,
    /// Replicas that completed the roll.
    pub upgraded: Vec<usize>,
    /// Generation skew reported by [`RouterStats`](sqp_router::RouterStats)
    /// right after the roll (1: the quarantined replica trails).
    pub skew_after_roll: u64,
    /// Injected read errors (exactly 1).
    pub read_errors: u64,
    /// The chaos replay digest — equal across runs with the same seed.
    pub digest: u64,
}

/// Chaos under routing: roll a 4-replica tier onto a new snapshot through
/// a [`FaultPlan`] that fails exactly one replica's read (each replica
/// performs exactly one snapshot read, so the plan's global read ordinal
/// *is* the replica index + 1). Asserts the failed replica quarantines and
/// keeps serving its last-good model while the rest complete, that
/// [`RouterStats`](sqp_router::RouterStats) reports the resulting skew,
/// and that a later clean fan-out recovers the tier. Deterministic from
/// `seed`: the returned report (digest included) is bit-identical across
/// runs.
pub fn run_chaos_roll(seed: u64) -> ChaosRollReport {
    const REPLICAS: usize = 4;
    // Derive the victim from the seed so different seeds exercise
    // different positions (never the last ordinal-less case: 1-based).
    let failed_replica = (seed % REPLICAS as u64) as usize;

    let dir = scratch_dir(&format!("chaos-{seed}"));
    let new_path = save_tagged(&dir, "new", 1);
    let router = RouterEngine::new(
        Arc::new(tagged_snapshot("old")),
        RouterConfig {
            replicas: REPLICAS,
            ..RouterConfig::default()
        },
    );
    // One observer user per replica, tracked before the roll so each
    // replica holds live session state across the fault.
    let observer_for = |replica: usize| {
        (0..u64::MAX)
            .find(|&u| router.replica_for(u) == replica)
            .expect("every replica owns some user")
    };
    let observers: Vec<u64> = (0..REPLICAS).map(observer_for).collect();
    for &user in &observers {
        router.track(user, "seed", 1_000).unwrap();
    }

    let chaos = Chaos::new(FaultPlan {
        seed,
        read_error_on: vec![failed_replica as u64 + 1],
        ..FaultPlan::default()
    });
    let report = router.rolling_publish_with(
        &chaos.faulty_fs(),
        &new_path,
        RollPolicy::ContinueOnFailure,
        &mut |_| {},
    );

    let expected_upgraded: Vec<usize> = (0..REPLICAS).filter(|&r| r != failed_replica).collect();
    assert_eq!(report.upgraded, expected_upgraded);
    assert_eq!(report.failed.len(), 1);
    assert_eq!(report.failed[0].0, failed_replica);
    assert!(
        report.failed[0].1.contains("injected chaos read error"),
        "unexpected failure: {}",
        report.failed[0].1
    );

    let stats = router.stats();
    assert_eq!(stats.quarantined(), 1);
    assert!(stats.replicas[failed_replica].quarantined);
    assert_eq!(stats.generation_skew(), 1);
    assert_eq!(stats.replicas[failed_replica].generation, 0);
    // The quarantined replica serves its last-good model; upgraded
    // replicas serve the new one. Same request shape, different replica,
    // different — but never torn — provenance.
    for (replica, &user) in observers.iter().enumerate() {
        let got = router.suggest(user, 3, 1_010);
        let want = if replica == failed_replica {
            "old"
        } else {
            "new"
        };
        assert_eq!(provenance_of(&got), Some(want), "replica {replica}");
    }

    let chaos_stats = chaos.stats();
    assert_eq!(chaos_stats.read_errors, 1);
    assert_eq!(chaos_stats.reads, REPLICAS as u64);
    let out = ChaosRollReport {
        failed_replica,
        upgraded: report.upgraded,
        skew_after_roll: stats.generation_skew(),
        read_errors: chaos_stats.read_errors,
        digest: chaos.digest(),
    };

    // Recovery: catch up the straggler alone (a fan-out would bump every
    // replica's publish count and leave the tier skewed forever). A clean
    // read of the same file, published to the quarantined replica, lifts
    // its quarantine and converges the tier.
    let (snapshot, _) = sqp_store::load_snapshot(&new_path).unwrap();
    router
        .publish_to(failed_replica, Arc::new(snapshot))
        .expect("the quarantined replica is still live");
    let stats = router.stats();
    assert!(stats.is_converged());
    assert_eq!(stats.quarantined(), 0);
    assert_eq!(
        provenance_of(&router.suggest(observers[failed_replica], 3, 1_020)),
        Some("new")
    );

    std::fs::remove_dir_all(&dir).unwrap();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn router_runs_the_serve_loop_workload() {
        let cfg = ServeLoopConfig {
            threads: 2,
            ops_per_thread: 400,
            users_per_thread: 16,
            suggest_k: 3,
            batch_size: 4,
            swaps: 1,
            corpus_sessions: 200,
            seed: 11,
        };
        let report = run_router(&cfg, 3);
        assert!(report.ops_total >= 800);
        assert_eq!(report.swaps_completed, 1);
        // Fan-out publish: the tier's trailing edge reached the new
        // generation.
        assert_eq!(report.final_generation, 1);
        assert!(report.nonempty_suggestions > 0);
    }

    #[test]
    fn chaos_roll_hits_each_victim_position() {
        // Seeds 0..4 cover every replica position via seed % 4.
        let r0 = run_chaos_roll(0);
        assert_eq!(r0.failed_replica, 0);
        let r3 = run_chaos_roll(3);
        assert_eq!(r3.failed_replica, 3);
        assert_eq!(r3.upgraded, vec![0, 1, 2]);
    }
}
