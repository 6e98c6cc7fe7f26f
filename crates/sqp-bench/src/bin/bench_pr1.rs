//! PR 1 perf baseline: times the training core before/after the arena
//! suffix-trie rewrite on a fixed seed corpus and writes `BENCH_PR1.json`.
//!
//! The headline comparison — old hashmap counter vs. arena trie — runs
//! **interleaved** (alternating A/B rounds, median of each) so machine-load
//! drift cannot inflate or deflate the ratio. The corpus is the 10k-session
//! unaggregated counting workload (seed 42): aggregation collapses the
//! simulated logs by ~10×, which would leave sub-millisecond timings that
//! drown in scheduler noise.
//!
//! Also measured: full VMM training (sequential + parallel knob) and the
//! per-call serve latency of `recommend_into` (allocation-free; asserted by
//! `tests/alloc_free_serve.rs`).
//!
//! Usage: `cargo run --release -p sqp-bench --bin bench_pr1 [out.json]`

use sqp_bench::baseline::BaselineWindowCounts;
use sqp_bench::harness::{format_ns, measure, Stats};
use sqp_bench::json_escape;
use sqp_core::counts::WindowCounts;
use sqp_core::{Vmm, VmmConfig};
use std::hint::black_box;
use std::time::Instant;

const N_SESSIONS: usize = 10_000;
const SEED: u64 = 42;
const AB_ROUNDS: usize = 15;

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    v[v.len() / 2]
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_PR1.json".into());

    eprintln!("building {N_SESSIONS}-session corpus (seed {SEED})…");
    let sessions = sqp_bench::bench_unaggregated_sessions(N_SESSIONS, SEED);
    assert_eq!(sessions.len(), N_SESSIONS);
    let contexts = sqp_bench::bench_contexts(N_SESSIONS, SEED, 2, 128);
    assert!(
        !contexts.is_empty(),
        "bench corpus has no length-2 contexts"
    );

    // Interleaved A/B/C: baseline hashmap vs arena trie vs sharded arena.
    eprintln!("timing window counting ({AB_ROUNDS} interleaved rounds)…");
    let (mut t_base, mut t_trie, mut t_par) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..AB_ROUNDS {
        let t = Instant::now();
        black_box(BaselineWindowCounts::build(&sessions, None));
        t_base.push(t.elapsed().as_nanos() as f64);
        let t = Instant::now();
        black_box(WindowCounts::build_with(&sessions, None, false));
        t_trie.push(t.elapsed().as_nanos() as f64);
        let t = Instant::now();
        black_box(WindowCounts::build_with(&sessions, None, true));
        t_par.push(t.elapsed().as_nanos() as f64);
    }
    let mut results: Vec<Stats> = Vec::new();
    let mut push_ab = |id: &str, samples: &Vec<f64>| {
        let stats = Stats {
            id: id.to_owned(),
            median_ns: median(samples.clone()),
            mean_ns: samples.iter().sum::<f64>() / samples.len() as f64,
            min_ns: samples.iter().cloned().fold(f64::INFINITY, f64::min),
            iters: 1,
            samples: samples.len(),
        };
        eprintln!("  {:<36} {:>14}", stats.id, format_ns(stats.median_ns));
        results.push(stats);
    };
    push_ab("window_counts_build_baseline", &t_base);
    push_ab("window_counts_build", &t_trie);
    push_ab("window_counts_build_parallel", &t_par);

    eprintln!("timing VMM training…");
    let mut run = |id: &str, f: &mut dyn FnMut()| {
        let stats = measure(id, 10, f);
        eprintln!("  {:<36} {:>14}", stats.id, format_ns(stats.median_ns));
        results.push(stats);
    };
    run("vmm_train", &mut || {
        black_box(Vmm::train(&sessions, VmmConfig::with_epsilon(0.05)));
    });
    run("vmm_train_parallel", &mut || {
        black_box(Vmm::train(
            &sessions,
            VmmConfig::with_epsilon(0.05).parallel(true),
        ));
    });

    eprintln!("timing prediction…");
    let vmm = Vmm::train(&sessions, VmmConfig::with_epsilon(0.05));
    let mut buf = Vec::with_capacity(8);
    let mut i = 0usize;
    run("vmm_predict_top5", &mut || {
        let ctx = &contexts[i % contexts.len()];
        i += 1;
        vmm.recommend_into(black_box(ctx), 5, &mut buf);
        black_box(&buf);
    });

    let by_id = |id: &str| -> &Stats {
        results
            .iter()
            .find(|s| s.id == id)
            .unwrap_or_else(|| panic!("missing {id}"))
    };
    let speedup_seq =
        by_id("window_counts_build_baseline").median_ns / by_id("window_counts_build").median_ns;
    let speedup_par = by_id("window_counts_build_baseline").median_ns
        / by_id("window_counts_build_parallel").median_ns;
    let train_speedup_par = by_id("vmm_train").median_ns / by_id("vmm_train_parallel").median_ns;

    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!(
        "  \"corpus\": {{\"sessions\": {N_SESSIONS}, \"seed\": {SEED}, \"weighting\": \"unaggregated\"}},\n"
    ));
    json.push_str(&format!("  \"host_threads\": {threads},\n"));
    json.push_str("  \"benchmarks\": [\n");
    for (i, s) in results.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"median_ns\": {:.0}, \"mean_ns\": {:.0}, \"min_ns\": {:.0}, \"iters\": {}, \"samples\": {}}}{}\n",
            json_escape(&s.id),
            s.median_ns,
            s.mean_ns,
            s.min_ns,
            s.iters,
            s.samples,
            if i + 1 < results.len() { "," } else { "" },
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"window_counts_speedup_vs_baseline\": {speedup_seq:.2},\n"
    ));
    json.push_str(&format!(
        "  \"window_counts_speedup_vs_baseline_parallel\": {speedup_par:.2},\n"
    ));
    json.push_str(&format!(
        "  \"vmm_train_parallel_speedup\": {train_speedup_par:.2},\n"
    ));
    json.push_str(
        "  \"notes\": \"predict path allocates nothing per call (tests/alloc_free_serve.rs); \
         baseline = pre-refactor hashmap window counter (sqp_bench::baseline); on single-core \
         hosts the parallel knob falls back to sequential counting\"\n",
    );
    json.push_str("}\n");

    std::fs::write(&out_path, &json).expect("write BENCH_PR1.json");
    eprintln!(
        "wrote {out_path}: counting speedup {speedup_seq:.2}x sequential, {speedup_par:.2}x parallel"
    );
}
