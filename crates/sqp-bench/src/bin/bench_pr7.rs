//! PR 7 routed-serving snapshot: the `serve_loop` stress workload run
//! twice — once against a single `ServeEngine`, once against a 4-replica
//! `RouterEngine` — on identical seeded traffic, so the delta is the
//! routing layer (one consistent-hash lookup per request) and nothing
//! else. The acceptance gate is `router p99 ≤ 2× single-engine p99`.
//!
//! Also recorded: the generation-skew soak (a rolling upgrade held on
//! mixed generations under 4 worker threads of provenance-checked traffic)
//! and the chaos roll (one replica's snapshot read failed mid-roll,
//! replayed twice to prove the digest is bit-identical). Both scenarios
//! assert their own guarantees and would abort this binary on violation.
//!
//! Usage: `cargo run --release -p sqp-bench --bin bench_pr7 [out.json]`

use sqp_bench::json_escape;
use sqp_bench::router_loop::{self, run_chaos_roll, run_skew_soak};
use sqp_bench::serve_loop::{self, ServeLoopConfig};

const ROUTER_REPLICAS: usize = 4;
const MAX_P99_RATIO: f64 = 2.0;

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_PR7.json".into());

    let cfg = ServeLoopConfig::bench();
    eprintln!(
        "serve_loop on one engine: {} threads x {} ops, {} swaps…",
        cfg.threads, cfg.ops_per_thread, cfg.swaps
    );
    let single = serve_loop::run(&cfg);
    eprintln!(
        "  {:.0} ops/s | p50 {:.1}µs p99 {:.1}µs max {:.1}µs",
        single.throughput_ops_per_sec, single.p50_us, single.p99_us, single.max_us
    );
    single.assert_ran(&cfg, "single");

    eprintln!("same workload on a {ROUTER_REPLICAS}-replica router tier…");
    let routed = router_loop::run_router(&cfg, ROUTER_REPLICAS);
    eprintln!(
        "  {:.0} ops/s | p50 {:.1}µs p99 {:.1}µs max {:.1}µs",
        routed.throughput_ops_per_sec, routed.p50_us, routed.p99_us, routed.max_us
    );
    routed.assert_ran(&cfg, "router");

    let p50_ratio = routed.p50_us / single.p50_us.max(1e-9);
    let p99_ratio = routed.p99_us / single.p99_us.max(1e-9);
    let throughput_ratio = routed.throughput_ops_per_sec / single.throughput_ops_per_sec.max(1e-9);
    eprintln!(
        "  router/single: p50 {p50_ratio:.2}x, p99 {p99_ratio:.2}x, throughput {throughput_ratio:.2}x"
    );
    assert!(
        p99_ratio <= MAX_P99_RATIO,
        "router p99 {:.1}µs exceeds {MAX_P99_RATIO}x the single-engine p99 {:.1}µs",
        routed.p99_us,
        single.p99_us
    );

    eprintln!("generation-skew soak (4 workers, roll held per step)…");
    let skew = run_skew_soak(4, 2_000);
    eprintln!(
        "  {} calls | old/new during roll: {}/{} | max skew {}",
        skew.ops_total, skew.old_during_roll, skew.new_during_roll, skew.max_skew_observed
    );

    eprintln!("chaos roll (one replica's read failed), replayed twice…");
    let chaos = run_chaos_roll(7);
    let replay = run_chaos_roll(7);
    assert_eq!(chaos, replay, "chaos roll did not replay bit-identically");
    eprintln!(
        "  victim replica {} quarantined, digest {:#018x} (replay identical)",
        chaos.failed_replica, chaos.digest
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
    json.push_str(&format!("  \"router_replicas\": {ROUTER_REPLICAS},\n"));
    json.push_str("  \"single_engine\": {\n");
    json.push_str(&single.json_members("    "));
    json.push_str("  },\n");
    json.push_str("  \"router\": {\n");
    json.push_str(&routed.json_members("    "));
    json.push_str("  },\n");
    json.push_str(&format!(
        "  \"router_vs_single\": {{\"p50_ratio\": {p50_ratio:.2}, \"p99_ratio\": {p99_ratio:.2}, \"throughput_ratio\": {throughput_ratio:.2}, \"max_p99_ratio_allowed\": {MAX_P99_RATIO:.1}}},\n"
    ));
    json.push_str(&format!(
        "  \"skew_soak\": {{\"threads\": {}, \"replicas\": {}, \"ops_total\": {}, \"saw_old\": {}, \"saw_new\": {}, \"old_during_roll\": {}, \"new_during_roll\": {}, \"max_skew_observed\": {}, \"final_generation\": {}}},\n",
        skew.threads,
        skew.replicas,
        skew.ops_total,
        skew.saw_old,
        skew.saw_new,
        skew.old_during_roll,
        skew.new_during_roll,
        skew.max_skew_observed,
        skew.final_generation,
    ));
    json.push_str(&format!(
        "  \"chaos_roll\": {{\"seed\": 7, \"failed_replica\": {}, \"upgraded\": {:?}, \"skew_after_roll\": {}, \"read_errors\": {}, \"digest\": \"{:#018x}\", \"replay_identical\": true}},\n",
        chaos.failed_replica,
        chaos.upgraded,
        chaos.skew_after_roll,
        chaos.read_errors,
        chaos.digest,
    ));
    json.push_str(&format!(
        "  \"notes\": \"{}\"\n",
        json_escape(
            "single_engine and router run byte-identical seeded traffic (same corpus, same \
             per-thread PRNGs), so their delta is the routing layer: one consistent-hash ring \
             lookup per request plus per-replica fan-out on publish. The router's sessions \
             and admission budget shard across replicas, which can make contention *lower* \
             than the single engine at equal thread counts. skew_soak and chaos_roll assert \
             their invariants internally (torn reads, session migration, quarantine, digest \
             replay) and abort this binary on violation; their numbers here are evidence the \
             scenarios were exercised, not measurements of the serve path"
        )
    ));
    json.push_str("}\n");

    std::fs::write(&out_path, &json).expect("write BENCH_PR7.json");
    eprintln!(
        "wrote {out_path}: router p99 {:.1}µs vs single p99 {:.1}µs ({p99_ratio:.2}x, gate {MAX_P99_RATIO}x)",
        routed.p99_us, single.p99_us
    );
}
