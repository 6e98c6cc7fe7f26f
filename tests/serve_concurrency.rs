//! Concurrency guarantees of the serving subsystem.
//!
//! The load-bearing claim of `sqp-serve` is that a model publication is
//! atomic from every reader's point of view: a suggestion computed while a
//! swap lands comes entirely from the old snapshot or entirely from the new
//! one — ids resolved against one interner are never fed to the other
//! model, and results are never rendered through the wrong interner. The
//! tests here make the two snapshots *distinguishable by construction*
//! (disjoint suggestion vocabularies under a shared context) and hammer the
//! swap from multiple threads, failing on any mixed-provenance result.
//!
//! Also covered: the session tracker's 30-minute idle cutoff, both lazy
//! (on the next `track`/`suggest`) and via the bulk eviction sweep.

use sqp::logsim::RawLogRecord;
use sqp::serve::{
    EngineConfig, ModelSnapshot, ModelSpec, ServeEngine, ServeSurface, SuggestRequest,
    TrackerConfig, TrainingConfig,
};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

fn rec(machine: u64, ts: u64, q: &str) -> RawLogRecord {
    RawLogRecord {
        machine_id: machine,
        timestamp: ts,
        query: q.into(),
        clicks: vec![],
    }
}

/// A corpus whose every suggestion after "seed" is tagged with `prefix`, so
/// any result's provenance is readable off its text.
fn tagged_snapshot(prefix: &str) -> Arc<ModelSnapshot> {
    let mut records = Vec::new();
    let mut machine = 0u64;
    for continuation in ["alpha", "beta", "gamma"] {
        for _ in 0..4 {
            records.push(rec(machine, 100, "seed"));
            records.push(rec(machine, 160, &format!("{prefix}::{continuation}")));
            machine += 1;
        }
    }
    Arc::new(ModelSnapshot::from_raw_logs(
        &records,
        &TrainingConfig {
            model: ModelSpec::Adjacency,
            ..TrainingConfig::default()
        },
    ))
}

/// Every suggestion a single call returns must carry one snapshot's tag —
/// never a mixture, never an untagged string.
fn provenance_of(suggestions: &[sqp::Suggestion]) -> Option<&'static str> {
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

#[test]
fn suggestions_during_swaps_come_wholly_from_one_snapshot() {
    let engine = Arc::new(ServeEngine::new(
        tagged_snapshot("old"),
        EngineConfig::default(),
    ));
    // Both tracked sessions and stateless contexts are exercised.
    for user in 0..16 {
        engine.track(user, "seed", 1_000).unwrap();
    }

    let stop = Arc::new(AtomicBool::new(false));
    let saw_old = Arc::new(AtomicU64::new(0));
    let saw_new = Arc::new(AtomicU64::new(0));

    std::thread::scope(|scope| {
        for reader in 0..4u64 {
            let engine = Arc::clone(&engine);
            let stop = Arc::clone(&stop);
            let saw_old = Arc::clone(&saw_old);
            let saw_new = Arc::clone(&saw_new);
            scope.spawn(move || {
                let reqs: Vec<SuggestRequest> =
                    (0..16).map(|user| SuggestRequest { user, k: 3 }).collect();
                while !stop.load(Ordering::Relaxed) {
                    // Mixed read paths: stateless, tracked, batched.
                    let stateless = engine.suggest_context(&["seed"], 3);
                    assert!(!stateless.is_empty());
                    let tags = [
                        provenance_of(&stateless),
                        provenance_of(&engine.suggest(reader % 16, 3, 1_001)),
                    ];
                    for batch_result in engine.suggest_batch(&reqs, 1_001) {
                        provenance_of(&batch_result);
                    }
                    for tag in tags.into_iter().flatten() {
                        match tag {
                            "old" => saw_old.fetch_add(1, Ordering::Relaxed),
                            _ => saw_new.fetch_add(1, Ordering::Relaxed),
                        };
                    }
                }
            });
        }

        // Writer: flip between the two snapshots many times mid-traffic.
        let new_snapshot = tagged_snapshot("new");
        let old_snapshot = tagged_snapshot("old");
        for flip in 0..200 {
            let next = if flip % 2 == 0 {
                Arc::clone(&new_snapshot)
            } else {
                Arc::clone(&old_snapshot)
            };
            engine.publish(next);
            std::thread::yield_now();
        }
        stop.store(true, Ordering::Relaxed);
    });

    assert_eq!(engine.generation(), 200);
    // With 200 flips under continuous reads, both snapshots must have been
    // observed — otherwise the test never exercised the race.
    assert!(
        saw_old.load(Ordering::Relaxed) > 0,
        "old snapshot never seen"
    );
    assert!(
        saw_new.load(Ordering::Relaxed) > 0,
        "new snapshot never seen"
    );
}

#[test]
fn handles_loaded_before_a_swap_keep_serving_the_old_model() {
    let engine = ServeEngine::new(tagged_snapshot("old"), EngineConfig::default());
    let held = engine.snapshot();
    engine.publish(tagged_snapshot("new"));
    // The held handle is frozen in time; the engine has moved on.
    assert!(held.suggest(&["seed"], 1)[0].query.starts_with("old::"));
    assert!(engine.suggest_context(&["seed"], 1)[0]
        .query
        .starts_with("new::"));
}

#[test]
fn idle_sessions_are_cut_and_evicted_at_the_thirty_minute_rule() {
    let cfg = EngineConfig {
        tracker: TrackerConfig::default(), // 30-minute cutoff
        ..EngineConfig::default()
    };
    let engine = ServeEngine::new(tagged_snapshot("old"), cfg);
    let t0 = 10_000u64;
    for user in 0..50 {
        engine.track(user, "seed", t0).unwrap();
    }
    assert_eq!(engine.active_sessions(), 50);
    assert!(
        !engine.suggest(7, 3, t0 + 30 * 60).is_empty(),
        "at the cutoff"
    );
    assert!(
        engine.suggest(7, 3, t0 + 30 * 60 + 1).is_empty(),
        "one second past the cutoff the context is dead"
    );

    // Users 0..10 stay active past the others' cutoff.
    for user in 0..10 {
        engine.track(user, "seed", t0 + 30 * 60 + 100).unwrap();
    }
    let evicted = engine.evict_idle(t0 + 30 * 60 + 101);
    assert_eq!(evicted, 40);
    assert_eq!(engine.active_sessions(), 10);

    // An evicted user's next query starts a fresh session with no stale
    // context bleeding in.
    let outcome = engine.track(20, "seed", t0 + 30 * 60 + 200).unwrap();
    assert!(outcome.new_session);
    assert_eq!(outcome.context_len, 1);
}

#[test]
fn eviction_races_track_and_suggest_under_concurrent_publishes() {
    // The three mutating paths at once: admission-controlled
    // track_and_suggest traffic, periodic idle-eviction sweeps, and model
    // publishes flipping between distinguishable snapshots. Nothing may
    // tear (provenance stays pure), every non-shed request is answered,
    // and no admission permit may leak.
    let engine = Arc::new(ServeEngine::new(
        tagged_snapshot("old"),
        EngineConfig {
            tracker: TrackerConfig {
                shards: 4,
                idle_cutoff_secs: 50,
                ..TrackerConfig::default()
            },
            max_in_flight: 64,
        },
    ));
    let answered = AtomicU64::new(0);
    let shed = AtomicU64::new(0);
    let stop = AtomicBool::new(false);

    std::thread::scope(|scope| {
        for thread in 0..4u64 {
            let engine = Arc::clone(&engine);
            let answered = &answered;
            let shed = &shed;
            scope.spawn(move || {
                for i in 0..3_000u64 {
                    let user = thread * 10_000 + (i % 53);
                    match engine.try_track_and_suggest(user, "seed", 3, i) {
                        Ok(suggestions) => {
                            provenance_of(&suggestions);
                            answered.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(_) => {
                            shed.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            });
        }
        // Eviction sweeper: constantly reaps sessions the workers are
        // simultaneously touching (their `now` advances past the cutoff).
        {
            let engine = Arc::clone(&engine);
            let stop = &stop;
            scope.spawn(move || {
                let mut now = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    now += 25;
                    engine.evict_idle(now);
                    std::thread::yield_now();
                }
            });
        }
        // Publisher: flip snapshots throughout.
        let new_snapshot = tagged_snapshot("new");
        let old_snapshot = tagged_snapshot("old");
        for flip in 0..100 {
            let next = if flip % 2 == 0 {
                Arc::clone(&new_snapshot)
            } else {
                Arc::clone(&old_snapshot)
            };
            engine.publish(next);
            std::thread::yield_now();
        }
        stop.store(true, Ordering::Relaxed);
    });

    let total = answered.load(Ordering::Relaxed) + shed.load(Ordering::Relaxed);
    assert_eq!(total, 4 * 3_000, "every request answered or counted shed");
    assert_eq!(engine.in_flight(), 0, "admission permits leaked");
    assert_eq!(engine.stats().shed, shed.load(Ordering::Relaxed));
    // A final sweep drains whatever sessions survived the races.
    engine.evict_idle(u64::MAX);
    assert_eq!(engine.active_sessions(), 0);
}

#[test]
fn tracking_and_eviction_race_cleanly() {
    let engine = Arc::new(ServeEngine::new(
        tagged_snapshot("old"),
        EngineConfig {
            tracker: TrackerConfig {
                shards: 8,
                idle_cutoff_secs: 100,
                ..TrackerConfig::default()
            },
            ..EngineConfig::default()
        },
    ));
    std::thread::scope(|scope| {
        for thread in 0..4u64 {
            let engine = Arc::clone(&engine);
            scope.spawn(move || {
                for i in 0..2_000u64 {
                    let user = thread * 10_000 + (i % 97);
                    engine.track(user, "seed", i).unwrap();
                    if i % 31 == 0 {
                        engine.evict_idle(i);
                    }
                    if i % 7 == 0 {
                        engine.suggest(user, 2, i);
                    }
                }
            });
        }
    });
    // Deterministic endpoint: a full sweep far in the future clears all.
    let survivors = engine.active_sessions();
    assert!(survivors > 0);
    assert_eq!(engine.evict_idle(1_000_000), survivors);
    assert_eq!(engine.active_sessions(), 0);
}
