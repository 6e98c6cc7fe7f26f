//! PR 8 network-serving snapshot: the `serve_loop` stress workload run
//! twice on identical seeded traffic — once in-process against a
//! `ServeEngine`, once through `sqp-net` over real loopback sockets
//! (`net_loop`), where each op is a full framed TCP round trip and the
//! mid-run publish arrives through the admin port from a snapshot file on
//! disk. The delta between the two reports is the network stack: framing,
//! syscalls, and the server's reader/worker handoff.
//!
//! The acceptance gate is `wire p99 ≤ 5× in-process p99`. The p99 op is a
//! `batch_size`-entry batched suggest on both sides (one every 8th op), so
//! the ratio compares real model work plus the wire against real model
//! work alone — not a syscall against a hashmap probe.
//!
//! Usage: `cargo run --release -p sqp-bench --bin bench_pr8 [out.json]`

use sqp_bench::json_escape;
use sqp_bench::net_loop;
use sqp_bench::serve_loop::{self, ServeLoopConfig};

const MAX_P99_RATIO: f64 = 5.0;

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_PR8.json".into());

    // A wire-friendly profile of the serve_loop workload: big batches (the
    // p99 op on both sides), a mid-run publish, a VMM-trained corpus.
    let cfg = ServeLoopConfig {
        threads: 4,
        ops_per_thread: 6_000,
        users_per_thread: 256,
        suggest_k: 5,
        batch_size: 512,
        swaps: 1,
        corpus_sessions: 5_000,
        seed: 42,
    };

    eprintln!(
        "serve_loop in-process: {} threads x {} ops, batch {}, {} swap…",
        cfg.threads, cfg.ops_per_thread, cfg.batch_size, cfg.swaps
    );
    let inproc = serve_loop::run(&cfg);
    eprintln!(
        "  {:.0} ops/s | p50 {:.1}µs p99 {:.1}µs max {:.1}µs",
        inproc.throughput_ops_per_sec, inproc.p50_us, inproc.p99_us, inproc.max_us
    );
    inproc.assert_ran(&cfg, "in-process");

    eprintln!("same workload over TCP (sqp-net, admin-port publish)…");
    let wire = net_loop::run_wire(&cfg);
    eprintln!(
        "  {:.0} ops/s | p50 {:.1}µs p99 {:.1}µs max {:.1}µs",
        wire.throughput_ops_per_sec, wire.p50_us, wire.p99_us, wire.max_us
    );
    wire.assert_ran(&cfg, "wire");

    let p50_ratio = wire.p50_us / inproc.p50_us.max(1e-9);
    let p99_ratio = wire.p99_us / inproc.p99_us.max(1e-9);
    let throughput_ratio = wire.throughput_ops_per_sec / inproc.throughput_ops_per_sec.max(1e-9);
    eprintln!(
        "  wire/in-process: p50 {p50_ratio:.2}x, p99 {p99_ratio:.2}x, throughput {throughput_ratio:.2}x"
    );
    assert!(
        p99_ratio <= MAX_P99_RATIO,
        "wire p99 {:.1}µs exceeds {MAX_P99_RATIO}x the in-process p99 {:.1}µs",
        wire.p99_us,
        inproc.p99_us
    );

    let host_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!(
        "  \"workload\": {{\"threads\": {}, \"ops_per_thread\": {}, \"users_per_thread\": {}, \"suggest_k\": {}, \"batch_size\": {}, \"swaps\": {}, \"corpus_sessions\": {}, \"seed\": {}}},\n",
        cfg.threads,
        cfg.ops_per_thread,
        cfg.users_per_thread,
        cfg.suggest_k,
        cfg.batch_size,
        cfg.swaps,
        cfg.corpus_sessions,
        cfg.seed,
    ));
    json.push_str(&format!("  \"host_threads\": {host_threads},\n"));
    json.push_str("  \"in_process\": {\n");
    json.push_str(&inproc.json_members("    "));
    json.push_str("  },\n");
    json.push_str("  \"wire\": {\n");
    json.push_str(&wire.json_members("    "));
    json.push_str("  },\n");
    json.push_str(&format!(
        "  \"wire_vs_in_process\": {{\"p50_ratio\": {p50_ratio:.2}, \"p99_ratio\": {p99_ratio:.2}, \"throughput_ratio\": {throughput_ratio:.2}, \"max_p99_ratio_allowed\": {MAX_P99_RATIO:.1}}},\n"
    ));
    json.push_str(&format!(
        "  \"notes\": \"{}\"\n",
        json_escape(
            "in_process and wire run byte-identical seeded traffic (same corpus, same \
             per-thread PRNGs, same op mix including the EVICT maintenance sweeps), so their \
             delta is the network stack: u32-length framing, one loopback TCP round trip per \
             op, and the server's reader-thread/worker-pool handoff. Every 8th op is a \
             batch_size-entry batched suggest, which dominates the p99 on both sides — the \
             gate therefore compares the wire's overhead against real model work, not against \
             a near-zero baseline. The wire trainer publishes through the admin port from a \
             snapshot file (save_snapshot + PUBLISH frame), exercising the operator path \
             rather than an in-process publish"
        )
    ));
    json.push_str("}\n");

    std::fs::write(&out_path, &json).expect("write BENCH_PR8.json");
    eprintln!(
        "wrote {out_path}: wire p99 {:.1}µs vs in-process p99 {:.1}µs ({p99_ratio:.2}x, gate {MAX_P99_RATIO}x)",
        wire.p99_us, inproc.p99_us
    );
}
