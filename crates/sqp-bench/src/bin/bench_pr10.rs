//! PR 10 live-reconfiguration snapshot: the `serve_loop` stress workload
//! run twice against a 4-replica router tier — once with static
//! membership (steady state), once while a churn thread continuously
//! **replaces replicas under traffic** (join a fresh replica, then drain
//! and retire the oldest, every cycle a full two-phase handoff). Identical
//! seeded traffic both times, so the delta is the cost of live
//! reconfiguration and nothing else. The acceptance gate is
//! `live-reconfiguration p99 ≤ 2× steady-state p99`.
//!
//! Also recorded: per-cycle **handoff windows** (wall-clock from the
//! join's export to the retire's slot drop — the interval during which a
//! membership change is in flight) and the membership chaos soak run
//! twice to prove its digest replays bit-identically. The soak asserts
//! its own invariants (per-phase accounting, zero context resets for
//! handed-off users, ≤2/N loss on an undrained kill) and would abort
//! this binary on violation.
//!
//! Usage: `cargo run --release -p sqp-bench --bin bench_pr10 [out.json]`

use sqp_bench::json_escape;
use sqp_bench::membership_loop::run_membership_soak;
use sqp_bench::serve_loop::{self, ServeLoopConfig, ServeLoopReport};
use sqp_router::{RouterConfig, RouterEngine};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

const REPLICAS: usize = 4;
const MAX_P99_RATIO: f64 = 2.0;

fn check(report: &ServeLoopReport, label: &str) {
    assert!(
        report.nonempty_suggestions > 0,
        "{label}: traffic never produced a suggestion"
    );
}

fn serve_loop_json(report: &ServeLoopReport, indent: &str) -> String {
    let mut json = String::new();
    json.push_str(&format!("{indent}\"ops_total\": {},\n", report.ops_total));
    json.push_str(&format!(
        "{indent}\"nonempty_suggestions\": {},\n",
        report.nonempty_suggestions
    ));
    json.push_str(&format!(
        "{indent}\"elapsed_secs\": {:.3},\n",
        report.elapsed_secs
    ));
    json.push_str(&format!(
        "{indent}\"throughput_ops_per_sec\": {:.0},\n",
        report.throughput_ops_per_sec
    ));
    json.push_str(&format!("{indent}\"p50_us\": {:.1},\n", report.p50_us));
    json.push_str(&format!("{indent}\"p99_us\": {:.1},\n", report.p99_us));
    json.push_str(&format!("{indent}\"max_us\": {:.1}\n", report.max_us));
    json
}

/// What the churn thread did while the live run's traffic was flowing.
struct ChurnOutcome {
    cycles: u64,
    sessions_moved: u64,
    window_mean_ms: f64,
    window_max_ms: f64,
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_PR10.json".into());

    // No mid-run retrains: both runs isolate membership cost from model
    // publication cost (bench_pr7 already gates the latter).
    let cfg = ServeLoopConfig {
        swaps: 0,
        ..ServeLoopConfig::bench()
    };
    let (snapshot, vocabulary, records) = serve_loop::build_parts(&cfg);
    let router_config = RouterConfig {
        replicas: REPLICAS,
        ..RouterConfig::default()
    };

    eprintln!(
        "serve_loop on a {REPLICAS}-replica tier, static membership: {} threads x {} ops…",
        cfg.threads, cfg.ops_per_thread
    );
    let steady_router = RouterEngine::new(snapshot.clone(), router_config);
    let steady = serve_loop::run_on(&steady_router, &cfg, &vocabulary, &records);
    eprintln!(
        "  {:.0} ops/s | p50 {:.1}µs p99 {:.1}µs max {:.1}µs",
        steady.throughput_ops_per_sec, steady.p50_us, steady.p99_us, steady.max_us
    );
    check(&steady, "steady");

    eprintln!("same traffic while replicas are replaced under it (join + drain + retire)…");
    let live_router = RouterEngine::new(snapshot, router_config);
    let stop = AtomicBool::new(false);
    let mut live_opt = None;
    let churn = std::thread::scope(|scope| {
        let churner = {
            let router = &live_router;
            let stop = &stop;
            scope.spawn(move || {
                let mut cycles = 0u64;
                let mut sessions_moved = 0u64;
                let mut windows_ms: Vec<f64> = Vec::new();
                while !stop.load(Ordering::Relaxed) {
                    // Rolling replacement: one fresh replica in, the
                    // oldest one gracefully out. `now = 0` keeps every
                    // session live for the handoff regardless of the
                    // workload's logical clock (`saturating_sub`).
                    let window_started = Instant::now();
                    let joined = router.join_replica(0);
                    let victim = router
                        .replica_ids()
                        .into_iter()
                        .find(|&id| id != joined.replica)
                        .expect("a tier this size always has an elder");
                    let drained = router.begin_drain(victim, 0).expect("drain the elder");
                    router.retire_replica(victim).expect("retire the elder");
                    windows_ms.push(window_started.elapsed().as_secs_f64() * 1_000.0);
                    cycles += 1;
                    sessions_moved += (joined.moved_sessions + drained.moved_sessions) as u64;
                    // Operator pacing: reconfiguration is continuous but
                    // not a tight spin.
                    std::thread::sleep(std::time::Duration::from_millis(5));
                }
                let mean = windows_ms.iter().sum::<f64>() / windows_ms.len().max(1) as f64;
                let max = windows_ms.iter().fold(0.0f64, |a, &b| a.max(b));
                ChurnOutcome {
                    cycles,
                    sessions_moved,
                    window_mean_ms: mean,
                    window_max_ms: max,
                }
            })
        };
        live_opt = Some(serve_loop::run_on(
            &live_router,
            &cfg,
            &vocabulary,
            &records,
        ));
        stop.store(true, Ordering::Relaxed);
        churner.join().expect("churn thread")
    });
    let live = live_opt.expect("live run report");
    eprintln!(
        "  {:.0} ops/s | p50 {:.1}µs p99 {:.1}µs max {:.1}µs",
        live.throughput_ops_per_sec, live.p50_us, live.p99_us, live.max_us
    );
    eprintln!(
        "  {} replacement cycles, {} sessions handed off, handoff window mean {:.2}ms max {:.2}ms",
        churn.cycles, churn.sessions_moved, churn.window_mean_ms, churn.window_max_ms
    );
    check(&live, "live");
    assert!(
        churn.cycles > 0,
        "the live run never reconfigured — the comparison is vacuous"
    );
    assert!(
        churn.sessions_moved > 0,
        "reconfiguration never moved a session — the handoff was not exercised"
    );
    let tier = live_router.stats();
    assert!(tier.draining.is_empty(), "a churn cycle was left half-done");
    assert_eq!(tier.replica_ids.len(), REPLICAS);

    let p50_ratio = live.p50_us / steady.p50_us.max(1e-9);
    let p99_ratio = live.p99_us / steady.p99_us.max(1e-9);
    let throughput_ratio = live.throughput_ops_per_sec / steady.throughput_ops_per_sec.max(1e-9);
    eprintln!(
        "  live/steady: p50 {p50_ratio:.2}x, p99 {p99_ratio:.2}x, throughput {throughput_ratio:.2}x"
    );
    assert!(
        p99_ratio <= MAX_P99_RATIO,
        "live-reconfiguration p99 {:.1}µs exceeds {MAX_P99_RATIO}x the steady-state p99 {:.1}µs",
        live.p99_us,
        steady.p99_us
    );

    eprintln!("membership chaos soak, replayed twice…");
    let soak = run_membership_soak(7);
    let replay = run_membership_soak(7);
    assert_eq!(
        soak, replay,
        "membership soak did not replay bit-identically"
    );
    eprintln!(
        "  join moved {}, drain moved {}, kill lost {}, digest {:#018x} (replay identical)",
        soak.join_moved, soak.drain_moved, soak.kill_lost, soak.digest
    );

    let host_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!(
        "  \"workload\": {{\"threads\": {}, \"ops_per_thread\": {}, \"users_per_thread\": {}, \"batch_size\": {}, \"swaps\": {}, \"corpus_sessions\": {}, \"seed\": {}}},\n",
        cfg.threads,
        cfg.ops_per_thread,
        cfg.users_per_thread,
        cfg.batch_size,
        cfg.swaps,
        cfg.corpus_sessions,
        cfg.seed,
    ));
    json.push_str(&format!("  \"host_threads\": {host_threads},\n"));
    json.push_str(&format!("  \"router_replicas\": {REPLICAS},\n"));
    json.push_str("  \"steady_membership\": {\n");
    json.push_str(&serve_loop_json(&steady, "    "));
    json.push_str("  },\n");
    json.push_str("  \"live_reconfiguration\": {\n");
    json.push_str(&serve_loop_json(&live, "    "));
    json.push_str("  },\n");
    json.push_str(&format!(
        "  \"live_vs_steady\": {{\"p50_ratio\": {p50_ratio:.2}, \"p99_ratio\": {p99_ratio:.2}, \"throughput_ratio\": {throughput_ratio:.2}, \"max_p99_ratio_allowed\": {MAX_P99_RATIO:.1}}},\n"
    ));
    json.push_str(&format!(
        "  \"churn\": {{\"cycles\": {}, \"sessions_moved\": {}, \"handoff_window_mean_ms\": {:.3}, \"handoff_window_max_ms\": {:.3}, \"final_replicas\": {}, \"final_ring_generation\": {}}},\n",
        churn.cycles,
        churn.sessions_moved,
        churn.window_mean_ms,
        churn.window_max_ms,
        tier.replica_ids.len(),
        tier.ring_generation,
    ));
    json.push_str(&format!(
        "  \"membership_soak\": {{\"seed\": 7, \"join_moved\": {}, \"drain_moved\": {}, \"kill_lost\": {}, \"final_replicas\": {:?}, \"final_ring_generation\": {}, \"digest\": \"{:#018x}\", \"replay_identical\": true}},\n",
        soak.join_moved,
        soak.drain_moved,
        soak.kill_lost,
        soak.final_replicas,
        soak.final_ring_generation,
        soak.digest,
    ));
    json.push_str(&format!(
        "  \"notes\": \"{}\"\n",
        json_escape(
            "steady_membership and live_reconfiguration run byte-identical seeded traffic \
             against equal-size router tiers; the only difference is the churn thread \
             continuously replacing replicas (join a fresh one, two-phase-drain and retire \
             the oldest) during the live run, so the latency delta is the cost of live \
             reconfiguration itself. handoff_window_* measures one full replacement cycle \
             (export, import, two ring swaps, slot drop) from the control plane's point of \
             view; serving never blocks on it — traffic sees at most stripe-lock contention \
             while sessions are copied. membership_soak asserts its invariants internally \
             (per-phase accounting, zero context resets for handed-off users, loss bounded \
             by the ring's 2/N remap property on an undrained kill, digest replay) and \
             aborts this binary on violation"
        )
    ));
    json.push_str("}\n");

    std::fs::write(&out_path, &json).expect("write BENCH_PR10.json");
    eprintln!(
        "wrote {out_path}: live p99 {:.1}µs vs steady p99 {:.1}µs ({p99_ratio:.2}x, gate {MAX_P99_RATIO}x)",
        live.p99_us, steady.p99_us
    );
}
