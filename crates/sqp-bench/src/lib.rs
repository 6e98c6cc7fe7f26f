//! Shared fixtures and the timing harness for the benchmarks.
//!
//! Benchmarks need identical, deterministic datasets across runs so that
//! the harness statistics compare like against like; this crate builds them
//! once per process. The [`harness`] module replaces criterion (the
//! workspace builds with no external crates); [`baseline`] preserves the
//! pre-arena hashmap counter for equivalence tests and speedup accounting.

#![deny(missing_docs)]

pub mod baseline;
pub mod chaos;
pub mod harness;
pub mod membership_loop;
pub mod net_loop;
pub mod router_loop;
pub mod serve_loop;

pub use harness::{BenchmarkId, Criterion};

use sqp_common::QuerySeq;
use sqp_sessions::pipeline::{PipelineConfig, ProcessedLogs};

/// Build a deterministic processed corpus of roughly `n_sessions` simulated
/// sessions suitable for training benchmarks.
pub fn bench_corpus(n_sessions: usize, seed: u64) -> ProcessedLogs {
    let sim = sqp_logsim::SimConfig::small(n_sessions, n_sessions / 4, seed);
    let logs = sqp_logsim::generate(&sim);
    sqp_sessions::pipeline::process(&logs, &PipelineConfig::default())
}

/// Weighted training sessions from a corpus (cloned so the bench owns them).
pub fn bench_sessions(n_sessions: usize, seed: u64) -> Vec<(QuerySeq, u64)> {
    bench_corpus(n_sessions, seed)
        .train
        .aggregated
        .sessions
        .clone()
}

/// Exactly `n_sessions` segmented, interned sessions with unit weight — the
/// pre-aggregation counting workload (aggregation collapses the simulated
/// corpus by ~10×, which makes micro-benchmarks noise-dominated).
pub fn bench_unaggregated_sessions(n_sessions: usize, seed: u64) -> Vec<(QuerySeq, u64)> {
    let sim = sqp_logsim::SimConfig::small(n_sessions, 10, seed);
    let logs = sqp_logsim::generate(&sim);
    let sessions = sqp_sessions::segment_default(&logs.train);
    let mut interner = sqp_common::Interner::new();
    sessions
        .iter()
        .map(|s| (interner.intern_session(&s.queries), 1))
        .collect()
}

/// Raw log records for pipeline benchmarks.
pub fn bench_records(n_sessions: usize, seed: u64) -> Vec<sqp_logsim::RawLogRecord> {
    let sim = sqp_logsim::SimConfig::small(n_sessions, 10, seed);
    sqp_logsim::generate(&sim).train
}

/// Evaluation contexts (one per ground-truth entry) grouped by length.
pub fn bench_contexts(n_sessions: usize, seed: u64, len: usize, take: usize) -> Vec<QuerySeq> {
    bench_corpus(n_sessions, seed)
        .ground_truth
        .by_length(len)
        .take(take)
        .map(|e| e.context.clone())
        .collect()
}

/// The `p` quantile (0.0–1.0, nearest rank) of ascending nanosecond
/// samples, in microseconds; 0 for no samples.
pub fn percentile_us(sorted_ns: &[u64], p: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ns.len() as f64 - 1.0) * p).round() as usize;
    sorted_ns[idx] as f64 / 1_000.0
}

/// Escape `s` for embedding in a JSON string literal (backslashes and
/// double quotes — the only specials the bench reports' labels contain).
pub fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_of_known_distribution() {
        let ns: Vec<u64> = (1..=100).map(|i| i * 1_000).collect();
        assert!((percentile_us(&ns, 0.50) - 50.0).abs() <= 1.0);
        assert!((percentile_us(&ns, 0.99) - 99.0).abs() <= 1.0);
        assert_eq!(percentile_us(&ns, 1.0), 100.0);
        assert_eq!(percentile_us(&[], 0.5), 0.0);
    }

    #[test]
    fn json_escape_escapes_backslashes_and_quotes() {
        assert_eq!(json_escape(r#"a\b"c"#), r#"a\\b\"c"#);
        assert_eq!(json_escape("plain"), "plain");
    }
}
