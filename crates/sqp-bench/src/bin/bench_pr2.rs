//! PR 2 serving snapshot: runs the `serve_loop` stress harness — N worker
//! threads of mixed track/suggest/batched-suggest traffic against a
//! [`ServeEngine`](sqp_serve::ServeEngine) with mid-run model retrains
//! hot-swapped in — and writes throughput + latency percentiles to
//! `BENCH_PR2.json`.
//!
//! Also measured standalone: single-threaded `track_and_suggest` round-trip
//! latency (the per-request floor without cross-thread contention) and
//! batched vs. individual suggest throughput on a warm tracker, which
//! isolates what `suggest_batch`'s snapshot-load/lock/buffer amortization
//! buys.
//!
//! Usage: `cargo run --release -p sqp-bench --bin bench_pr2 [out.json]`

use sqp_bench::json_escape;
use sqp_bench::serve_loop::{self, ServeLoopConfig};
use sqp_serve::SuggestRequest;
use std::hint::black_box;
use std::time::Instant;

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_PR2.json".into());

    let cfg = ServeLoopConfig::bench();
    eprintln!(
        "serve_loop: {} threads x {} ops, {} swaps, {}-session corpus…",
        cfg.threads, cfg.ops_per_thread, cfg.swaps, cfg.corpus_sessions
    );
    let report = serve_loop::run(&cfg);
    eprintln!(
        "  {:.0} ops/s over {:.2}s | p50 {:.1}µs p99 {:.1}µs max {:.1}µs | {} swaps | {} sessions live",
        report.throughput_ops_per_sec,
        report.elapsed_secs,
        report.p50_us,
        report.p99_us,
        report.max_us,
        report.swaps_completed,
        report.active_sessions,
    );
    assert_eq!(
        report.swaps_completed, cfg.swaps as u64,
        "trainer failed to publish"
    );
    assert!(
        report.mid_run_swaps > 0,
        "no publication landed while traffic was flowing"
    );
    assert!(
        report.nonempty_suggestions > 0,
        "traffic never produced a suggestion"
    );

    // Single-threaded round-trip floor.
    eprintln!("single-thread round-trip latency…");
    let (engine, vocabulary, _records) = serve_loop::build_engine(&cfg);
    let t = Instant::now();
    let single_iters = 50_000usize;
    for i in 0..single_iters {
        let q = &vocabulary[i % vocabulary.len()];
        black_box(engine.track_and_suggest((i % 256) as u64, q, 5, (i / 8) as u64));
    }
    let single_ns = t.elapsed().as_nanos() as f64 / single_iters as f64;
    eprintln!("  track_and_suggest: {:.0} ns/op", single_ns);

    // Batched vs individual suggest on a warm tracker.
    eprintln!("batched vs individual suggest…");
    let now = (single_iters / 8) as u64;
    let reqs: Vec<SuggestRequest> = (0..256).map(|u| SuggestRequest { user: u, k: 5 }).collect();
    let rounds = 400usize;
    let t = Instant::now();
    for _ in 0..rounds {
        black_box(engine.suggest_batch(&reqs, now));
    }
    let batch_ns_per_suggest = t.elapsed().as_nanos() as f64 / (rounds * reqs.len()) as f64;
    let t = Instant::now();
    for _ in 0..rounds {
        for r in &reqs {
            black_box(engine.suggest(r.user, r.k, now));
        }
    }
    let indiv_ns_per_suggest = t.elapsed().as_nanos() as f64 / (rounds * reqs.len()) as f64;
    let batch_speedup = indiv_ns_per_suggest / batch_ns_per_suggest;
    eprintln!(
        "  batched {batch_ns_per_suggest:.0} ns/suggest vs individual {indiv_ns_per_suggest:.0} ns/suggest ({batch_speedup:.2}x)"
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
    json.push_str("  \"serve_loop\": {\n");
    json.push_str(&format!("    \"ops_total\": {},\n", report.ops_total));
    json.push_str(&format!(
        "    \"suggests_total\": {},\n",
        report.suggests_total
    ));
    json.push_str(&format!(
        "    \"nonempty_suggestions\": {},\n",
        report.nonempty_suggestions
    ));
    json.push_str(&format!(
        "    \"elapsed_secs\": {:.3},\n",
        report.elapsed_secs
    ));
    json.push_str(&format!(
        "    \"throughput_ops_per_sec\": {:.0},\n",
        report.throughput_ops_per_sec
    ));
    json.push_str(&format!("    \"p50_us\": {:.1},\n", report.p50_us));
    json.push_str(&format!("    \"p99_us\": {:.1},\n", report.p99_us));
    json.push_str(&format!("    \"max_us\": {:.1},\n", report.max_us));
    json.push_str(&format!(
        "    \"swaps_completed\": {},\n",
        report.swaps_completed
    ));
    json.push_str(&format!(
        "    \"mid_run_swaps\": {},\n",
        report.mid_run_swaps
    ));
    json.push_str(&format!(
        "    \"final_generation\": {},\n",
        report.final_generation
    ));
    json.push_str(&format!(
        "    \"active_sessions_at_end\": {},\n",
        report.active_sessions
    ));
    json.push_str(&format!(
        "    \"evicted_at_end\": {}\n",
        report.evicted_at_end
    ));
    json.push_str("  },\n");
    json.push_str(&format!(
        "  \"single_thread_track_and_suggest_ns\": {single_ns:.0},\n"
    ));
    json.push_str(&format!(
        "  \"suggest_batched_ns\": {batch_ns_per_suggest:.0},\n"
    ));
    json.push_str(&format!(
        "  \"suggest_individual_ns\": {indiv_ns_per_suggest:.0},\n"
    ));
    json.push_str(&format!("  \"batch_speedup\": {batch_speedup:.2},\n"));
    json.push_str(&format!(
        "  \"notes\": \"{}\"\n",
        json_escape(
            "mixed traffic = track_and_suggest round trips + batched suggests + rare evict \
             sweeps; swaps are full retrains published atomically mid-run (Swap cell); \
             latencies are per-operation wall clock including batch calls; the batched-vs- \
             individual comparison is allocation-dominated (one Vec + k Strings per result) \
             and the batch path's lock/snapshot amortization only separates from individual \
             calls under multi-core contention, so treat batch_speedup as host-dependent"
        )
    ));
    json.push_str("}\n");

    std::fs::write(&out_path, &json).expect("write BENCH_PR2.json");
    eprintln!(
        "wrote {out_path}: {:.0} ops/s, p99 {:.1}µs, {} mid-run swaps",
        report.throughput_ops_per_sec, report.p99_us, report.swaps_completed
    );
}
