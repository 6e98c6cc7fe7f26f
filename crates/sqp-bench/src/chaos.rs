//! The chaos soak: scripted fault storylines against the full serving
//! stack.
//!
//! Two scenarios, shared by the `chaos_soak` integration test and the
//! `bench_pr6` binary:
//!
//! * [`run_replay_soak`] — the **deterministic resilience storyline**: a
//!   fixed fleet of serving workers plus a scripted supervised-retrain
//!   driver, run against a [`FaultPlan`] that injects training panics
//!   (tripping the circuit breaker), a corrupted snapshot write
//!   (quarantine + rollback), transient write errors (retry/backoff), and
//!   a short read (a second quarantine). Every fault decision folds into
//!   the chaos [`digest`](sqp_faults::Chaos::digest); two runs with the
//!   same seed are bit-identical, which is how "replayable from the seed"
//!   is asserted rather than assumed.
//! * [`run_overload_soak`] — **admission control under stall faults**: a
//!   bounded in-flight budget, every serve-path strike stalled, more
//!   workers than budget. Some requests shed (typed, counted), every
//!   admitted request is answered, and the p50/p99 of answered requests is
//!   measured under the faults.
//!
//! The storyline leans on indexed fault ordinals (see
//! [`FaultPlan`]): the IO-event sequence of the retrain script is fixed
//! (two fs events per clean publish: one write, one validation read), so
//! "corrupt the 2nd write" deterministically poisons generation 2 and
//! nothing else.

use sqp_common::clock::Clock;
use sqp_faults::{Chaos, ChaosStats, FaultPlan, VirtualClock};
use sqp_logsim::RawLogRecord;
use sqp_serve::{
    EngineConfig, ModelSnapshot, ModelSpec, ServeEngine, ServeSurface, TrainingConfig,
};
use sqp_store::{
    latest_generation_on_disk, RetrainConfig, Retrainer, RetrainerHealth, StepOutcome,
    SuperviseConfig, Supervisor,
};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// What the deterministic resilience storyline produced.
#[derive(Clone, Debug)]
pub struct ReplaySoakReport {
    /// Fold of every chaos decision; equal across runs with equal seeds.
    pub digest: u64,
    /// Injected-fault counters.
    pub stats: ChaosStats,
    /// Final health of the supervised retrain loop.
    pub health: RetrainerHealth,
    /// Serving requests issued by the worker fleet (admission unlimited in
    /// this scenario, so every one must have been answered).
    pub served: u64,
    /// Suggestion outcomes per step of the retrain script, in order —
    /// compact labels like `"panic"`, `"breaker-open"`, `"published:1"`,
    /// `"quarantined:2->rollback:1"`.
    pub script: Vec<String>,
    /// Newest generation number on disk (counting quarantined files).
    pub latest_generation: u64,
    /// The engine's top suggestion for the probe context after the dust
    /// settles — proves which generation is actually serving.
    pub serving_top: Option<String>,
    /// The engine's publish counter at the end.
    pub publishes: u64,
}

/// What the overload scenario produced.
#[derive(Clone, Debug)]
pub struct OverloadSoakReport {
    /// Requests issued.
    pub total: u64,
    /// Requests answered (admitted and served to completion).
    pub answered: u64,
    /// Requests shed by admission control.
    pub shed: u64,
    /// In-flight permits outstanding after the fleet joined (must be 0 —
    /// shedding and panics may never leak budget).
    pub in_flight_after: u64,
    /// Median answered-request latency, microseconds, measured under the
    /// stall faults.
    pub p50_us: f64,
    /// 99th-percentile answered-request latency, microseconds.
    pub p99_us: f64,
}

/// Six two-query sessions `start → {prefix}::next`, on distinct machines
/// per batch so session segmentation never merges batches.
fn batch(prefix: &str, machine_base: u64) -> Vec<RawLogRecord> {
    (machine_base..machine_base + 6)
        .flat_map(|u| {
            [
                RawLogRecord {
                    machine_id: u,
                    timestamp: 100,
                    query: "start".into(),
                    clicks: vec![],
                },
                RawLogRecord {
                    machine_id: u,
                    timestamp: 150,
                    query: format!("{prefix}::next"),
                    clicks: vec![],
                },
            ]
        })
        .collect()
}

fn training() -> TrainingConfig {
    TrainingConfig {
        model: ModelSpec::Adjacency,
        ..TrainingConfig::default()
    }
}

fn scratch_dir(tag: &str, seed: u64) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sqp-chaos-{tag}-{seed}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One-line label for a step outcome, for the script trace.
fn label(outcome: &StepOutcome) -> String {
    match outcome {
        StepOutcome::Idle => "idle".into(),
        StepOutcome::BreakerOpen { .. } => "breaker-open".into(),
        StepOutcome::Published { generation, .. } => format!("published:{generation}"),
        StepOutcome::Failed(e) => {
            use sqp_store::RetrainError::*;
            match e {
                TrainingPanicked(_) => "panic".into(),
                SaveFailed { generation, .. } => format!("save-failed:{generation}"),
                Quarantined {
                    generation,
                    rolled_back_to,
                    ..
                } => match rolled_back_to {
                    Some(g) => format!("quarantined:{generation}->rollback:{g}"),
                    None => format!("quarantined:{generation}->no-rollback"),
                },
            }
        }
    }
}

/// Run the deterministic resilience storyline with `seed`.
///
/// Fault script (IO ordinals are global and 1-based; the retrain driver is
/// the only fs user, so they are exact):
///
/// | step | injected fault                      | expected outcome            |
/// |-----:|-------------------------------------|-----------------------------|
/// | 1    | training panic (strike #1)          | failed, window retained     |
/// | 2    | training panic (strike #2)          | failed → breaker **trips**  |
/// | 3    | —                                   | refused: breaker open       |
/// | 4    | — (cooldown elapsed)                | half-open probe → gen 1     |
/// | 5    | corrupt write #2                    | gen 2 quarantined → rollback to 1 |
/// | 6    | write errors #3, #4                 | 2 retries, then gen 3       |
/// | 7    | short read #5 (validation load)     | gen 4 quarantined → rollback to 3 |
///
/// Alongside, 4 serving workers each fire 200 `try_track_and_suggest`
/// requests (unlimited admission: nothing sheds, so the chaos digest is
/// interleaving-independent and bit-replayable).
pub fn run_replay_soak(seed: u64) -> ReplaySoakReport {
    Chaos::install_quiet_panic_hook();
    let dir = scratch_dir("replay", seed);

    let clock = Arc::new(VirtualClock::new());
    let cooldown = Duration::from_secs(1);
    let chaos = Chaos::with_clock(
        FaultPlan {
            seed,
            panic_sites: vec!["store.retrain.train".into()],
            panic_on: vec![1, 2],
            corrupt_write_on: vec![2],
            write_error_on: vec![3, 4],
            short_read_on: vec![5],
            delay_site_prefixes: vec!["serve.".into()],
            p_delay: 0.25,
            delay: Duration::from_millis(1),
            ..FaultPlan::default()
        },
        clock.clone(),
    );

    let engine = ServeEngine::with_hazard(
        Arc::new(ModelSnapshot::from_raw_logs(&batch("seed", 0), &training())),
        EngineConfig::default(),
        chaos.clone(),
    );
    let retrainer = Retrainer::new(
        RetrainConfig {
            training: training(),
            min_batch: 1,
            // One batch wide: each published generation is trained on
            // exactly the newest batch, so the serving probe pins down
            // which generation answers.
            window_records: 12,
            snapshot_dir: Some(dir.clone()),
            keep: 3,
            ..RetrainConfig::default()
        },
        batch("seed", 0),
    );
    let supervisor = Supervisor::with_seams(
        &retrainer,
        SuperviseConfig {
            max_save_attempts: 3,
            backoff_initial: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(100),
            breaker_threshold: 2,
            cooldown,
        },
        Arc::new(chaos.faulty_fs()),
        clock.clone(),
        chaos.clone(),
    );

    // Serving fleet: fixed ops per worker, unlimited admission — every
    // request is answered and per-site strike counts are reproducible.
    const WORKERS: u64 = 4;
    const OPS: u64 = 200;
    let served: u64 = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..WORKERS)
            .map(|w| {
                let engine = &engine;
                scope.spawn(move || {
                    let queries = ["start", "seed::next", "maps", "weather"];
                    let mut answered = 0u64;
                    for i in 0..OPS {
                        let user = w * 10_000 + (i % 64);
                        let query = queries[(i % queries.len() as u64) as usize];
                        if engine.try_track_and_suggest(user, query, 3, i).is_ok() {
                            answered += 1;
                        }
                    }
                    answered
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    });

    // Scripted supervised-retrain driver (the deterministic fs user).
    let mut script = Vec::new();
    retrainer.ingest_batch(batch("b1", 100));
    script.push(label(&supervisor.step(&engine))); // panic #1
    script.push(label(&supervisor.step(&engine))); // panic #2 → trip
    script.push(label(&supervisor.step(&engine))); // refused: open
    clock.sleep(cooldown + Duration::from_millis(1));
    script.push(label(&supervisor.step(&engine))); // half-open probe → gen 1
    retrainer.ingest_batch(batch("b2", 200));
    script.push(label(&supervisor.step(&engine))); // corrupt → quarantine 2, rollback 1
    retrainer.ingest_batch(batch("b3", 300));
    script.push(label(&supervisor.step(&engine))); // 2 retries → gen 3
    retrainer.ingest_batch(batch("b4", 400));
    script.push(label(&supervisor.step(&engine))); // short read → quarantine 4, rollback 3

    let report = ReplaySoakReport {
        digest: chaos.digest(),
        stats: chaos.stats(),
        health: supervisor.health(),
        served,
        script,
        latest_generation: latest_generation_on_disk(&dir),
        serving_top: engine
            .suggest_context(&["start"], 1)
            .first()
            .map(|s| s.query.clone()),
        publishes: engine.stats().publishes,
    };
    let _ = std::fs::remove_dir_all(&dir);
    report
}

/// Run the overload scenario: `max_in_flight = 2`, every serve-path strike
/// stalled 2 ms (real clock — the stall must actually occupy the permit),
/// 8 workers × 50 requests. Measures answered-request latency under the
/// faults and proves the shed/answered accounting adds up.
pub fn run_overload_soak(seed: u64) -> OverloadSoakReport {
    const WORKERS: u64 = 8;
    const OPS: u64 = 50;
    let chaos = Chaos::new(FaultPlan {
        seed,
        delay_site_prefixes: vec!["serve.".into()],
        p_delay: 1.0,
        delay: Duration::from_millis(2),
        ..FaultPlan::default()
    });
    let engine = ServeEngine::with_hazard(
        Arc::new(ModelSnapshot::from_raw_logs(&batch("seed", 0), &training())),
        EngineConfig {
            max_in_flight: 2,
            ..EngineConfig::default()
        },
        chaos.clone(),
    );

    let latencies: Vec<f64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..WORKERS)
            .map(|w| {
                let engine = &engine;
                scope.spawn(move || {
                    let mut answered_us = Vec::with_capacity(OPS as usize);
                    for i in 0..OPS {
                        let t = std::time::Instant::now();
                        if engine
                            .try_track_and_suggest(w * 100 + (i % 8), "start", 3, i)
                            .is_ok()
                        {
                            answered_us.push(t.elapsed().as_secs_f64() * 1e6);
                        }
                    }
                    answered_us
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });

    let mut sorted = latencies.clone();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let pct = |p: f64| -> f64 {
        if sorted.is_empty() {
            return 0.0;
        }
        sorted[((sorted.len() - 1) as f64 * p) as usize]
    };
    OverloadSoakReport {
        total: WORKERS * OPS,
        answered: latencies.len() as u64,
        shed: engine.stats().shed,
        in_flight_after: engine.in_flight(),
        p50_us: pct(0.50),
        p99_us: pct(0.99),
    }
}
