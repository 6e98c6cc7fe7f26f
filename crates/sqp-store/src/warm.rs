//! Warm start: boot and refresh serving directly from snapshot files.
//!
//! Cold start (retrain from raw logs) takes seconds to minutes; warm start
//! (load a snapshot file) takes milliseconds, because the file's section
//! layout lets every structure be pre-sized. [`WarmStart`] puts the two
//! file-driven operations a serving binary needs on
//! [`ServeEngine`] itself:
//!
//! * [`ServeEngine::from_path`](WarmStart::from_path) — construct an engine
//!   serving the model in a snapshot file;
//! * [`ServeEngine::publish_from_path`](WarmStart::publish_from_path) —
//!   hot-swap a newly written snapshot file into a live engine (the
//!   file-system half of the retrain loop: one process retrains and saves,
//!   the serving process publishes the file).

use crate::error::SnapshotError;
use crate::format::{load_snapshot, SnapshotMeta};
use sqp_serve::{EngineConfig, ServeEngine};
use std::path::Path;
use std::sync::Arc;

/// What [`WarmStart::publish_from_path`] swapped in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Published {
    /// The engine's generation counter after the publish (counts publishes
    /// into *this* engine, not snapshot-file generations).
    pub engine_generation: u64,
    /// Metadata of the snapshot file that was published.
    pub meta: SnapshotMeta,
}

/// File-driven construction and publication for serving engines.
///
/// # Examples
///
/// ```
/// use sqp_logsim::RawLogRecord;
/// use sqp_serve::{EngineConfig, ModelSnapshot, ModelSpec, ServeEngine, TrainingConfig};
/// use sqp_store::{save_snapshot, SnapshotMeta, WarmStart};
///
/// let rec = |machine, ts, q: &str| RawLogRecord {
///     machine_id: machine, timestamp: ts, query: q.into(), clicks: vec![],
/// };
/// let records: Vec<_> = (0..5)
///     .flat_map(|u| [rec(u, 100, "tea"), rec(u, 140, "tea kettle")])
///     .collect();
/// let cfg = TrainingConfig { model: ModelSpec::Adjacency, ..TrainingConfig::default() };
/// let trained = ModelSnapshot::from_raw_logs(&records, &cfg);
///
/// let path = std::env::temp_dir().join(format!("sqp-doc-warm-{}.sqps", std::process::id()));
/// save_snapshot(&path, &trained, &SnapshotMeta::describe(&trained, 0, 10)).unwrap();
///
/// // Warm start: no raw logs, no retraining — just the file.
/// let engine = ServeEngine::from_path(&path, EngineConfig::default()).unwrap();
/// assert_eq!(engine.suggest_context(&["tea"], 1)[0].query, "tea kettle");
/// # std::fs::remove_file(&path).unwrap();
/// ```
pub trait WarmStart: Sized {
    /// Boot an engine from a snapshot file.
    fn from_path(path: impl AsRef<Path>, cfg: EngineConfig) -> Result<Self, SnapshotError>;

    /// Load a snapshot file and atomically publish it into this live
    /// engine. In-flight requests finish on the old snapshot; the load and
    /// validation happen entirely before the swap, so a bad file leaves
    /// the engine serving its current model untouched.
    fn publish_from_path(&self, path: impl AsRef<Path>) -> Result<Published, SnapshotError>;
}

impl WarmStart for ServeEngine {
    fn from_path(path: impl AsRef<Path>, cfg: EngineConfig) -> Result<Self, SnapshotError> {
        let (snapshot, _meta) = load_snapshot(path)?;
        Ok(ServeEngine::new(Arc::new(snapshot), cfg))
    }

    fn publish_from_path(&self, path: impl AsRef<Path>) -> Result<Published, SnapshotError> {
        let (snapshot, meta) = load_snapshot(path)?;
        let engine_generation = self.publish(Arc::new(snapshot));
        Ok(Published {
            engine_generation,
            meta,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::save_snapshot;
    use sqp_logsim::RawLogRecord;
    use sqp_serve::{ModelSnapshot, ModelSpec, TrainingConfig};

    fn rec(machine: u64, ts: u64, q: &str) -> RawLogRecord {
        RawLogRecord {
            machine_id: machine,
            timestamp: ts,
            query: q.into(),
            clicks: vec![],
        }
    }

    fn saved(dir: &Path, name: &str, prefix: &str, generation: u64) -> std::path::PathBuf {
        let records: Vec<_> = (0..6)
            .flat_map(|u| {
                [
                    rec(u, 100, "start"),
                    rec(u, 150, &format!("{prefix}::next")),
                ]
            })
            .collect();
        let snapshot = ModelSnapshot::from_raw_logs(
            &records,
            &TrainingConfig {
                model: ModelSpec::Adjacency,
                ..TrainingConfig::default()
            },
        );
        let path = dir.join(name);
        save_snapshot(
            &path,
            &snapshot,
            &SnapshotMeta::describe(&snapshot, generation, records.len() as u64),
        )
        .unwrap();
        path
    }

    #[test]
    fn from_path_then_publish_from_path() {
        let dir = std::env::temp_dir().join(format!("sqp-warm-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let first = saved(&dir, "gen0.sqps", "old", 0);
        let second = saved(&dir, "gen1.sqps", "new", 1);

        let engine = ServeEngine::from_path(&first, EngineConfig::default()).unwrap();
        engine.track(7, "start", 100).unwrap();
        assert_eq!(engine.suggest(7, 1, 110)[0].query, "old::next");

        let published = engine.publish_from_path(&second).unwrap();
        assert_eq!(published.engine_generation, 1);
        assert_eq!(published.meta.generation, 1);
        // Tracked session state survives the swap (text-based contexts).
        assert_eq!(engine.suggest(7, 1, 120)[0].query, "new::next");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bad_file_leaves_live_engine_untouched() {
        let dir = std::env::temp_dir().join(format!("sqp-warm-bad-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let good = saved(&dir, "good.sqps", "old", 0);
        let engine = ServeEngine::from_path(&good, EngineConfig::default()).unwrap();

        let corrupt = dir.join("corrupt.sqps");
        let mut raw = std::fs::read(&good).unwrap();
        let last = raw.len() - 1;
        raw[last] ^= 0xff;
        std::fs::write(&corrupt, &raw).unwrap();

        assert!(engine.publish_from_path(&corrupt).is_err());
        assert!(engine.publish_from_path(dir.join("missing.sqps")).is_err());
        assert_eq!(engine.generation(), 0, "failed publishes must not swap");
        assert_eq!(
            engine.suggest_context(&["start"], 1)[0].query,
            "old::next",
            "engine still serves the original model"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
