//! High-level recommendation service: strings in, strings out.
//!
//! The crates underneath operate on interned ids for speed; an application
//! embedding query suggestion wants none of that. [`RecommenderService`]
//! wraps a [`ModelSnapshot`] — the immutable
//! trained bundle from `sqp-serve` — and exposes the two calls a search
//! front-end needs: build from raw logs, and suggest for a textual context.
//!
//! For concurrent traffic (per-user session tracking, batched suggestion,
//! zero-downtime retrains) promote the service into a
//! [`ServeEngine`] with
//! [`RecommenderService::into_engine`] — or, when one engine's tracker and
//! stripes are the bottleneck, into a replicated
//! [`RouterEngine`] tier with
//! [`RecommenderService::into_router`].

use std::sync::Arc;

use sqp_logsim::RawLogRecord;
use sqp_router::{RouterConfig, RouterEngine};
use sqp_serve::{EngineConfig, ModelSnapshot, ServeEngine};

pub use sqp_serve::{ModelSpec as ServiceModel, Suggestion, TrainingConfig as ServiceConfig};

/// A trained, self-contained query-suggestion service.
///
/// This is a thin, single-handle façade over an immutable
/// [`ModelSnapshot`]; cloning via [`snapshot`](RecommenderService::snapshot)
/// and publishing into a [`ServeEngine`] are free of retraining cost.
pub struct RecommenderService {
    snapshot: Arc<ModelSnapshot>,
}

impl RecommenderService {
    /// Build from raw click-log records: sessionize, aggregate, reduce,
    /// train.
    pub fn from_raw_logs(records: &[RawLogRecord], cfg: &ServiceConfig) -> Self {
        Self {
            snapshot: Arc::new(ModelSnapshot::from_raw_logs(records, cfg)),
        }
    }

    /// Wrap an existing snapshot (e.g. one retrained off-thread).
    pub fn from_snapshot(snapshot: Arc<ModelSnapshot>) -> Self {
        Self { snapshot }
    }

    /// Warm-start a service from a snapshot file written by
    /// [`save`](RecommenderService::save) (or any v3 snapshot): no raw
    /// logs, no retraining — milliseconds instead of a full pipeline run.
    ///
    /// # Examples
    ///
    /// ```
    /// use sqp::prelude::*;
    /// use sqp::logsim::RawLogRecord;
    ///
    /// let rec = |machine, ts, q: &str| RawLogRecord {
    ///     machine_id: machine, timestamp: ts, query: q.into(), clicks: vec![],
    /// };
    /// let records: Vec<_> = (0..8)
    ///     .flat_map(|u| [rec(u, 100, "kidney stones"), rec(u, 200, "kidney stone symptoms")])
    ///     .collect();
    /// let svc = RecommenderService::from_raw_logs(&records, &ServiceConfig {
    ///     model: ServiceModel::Adjacency,
    ///     ..ServiceConfig::default()
    /// });
    ///
    /// let path = std::env::temp_dir().join(format!("sqp-doc-svc-{}.sqps", std::process::id()));
    /// svc.save(&path, 0).unwrap();
    /// let warm = RecommenderService::load(&path).unwrap();
    /// assert_eq!(warm.suggest(&["kidney stones"], 1), svc.suggest(&["kidney stones"], 1));
    /// # std::fs::remove_file(&path).unwrap();
    /// ```
    pub fn load(path: impl AsRef<std::path::Path>) -> Result<Self, sqp_store::SnapshotError> {
        let (snapshot, _meta) = sqp_store::load_snapshot(path)?;
        Ok(Self::from_snapshot(Arc::new(snapshot)))
    }

    /// Persist the service's snapshot (model + interner + metadata) as one
    /// v3 file at `path`, written atomically. `generation` tags which
    /// (re)train produced it — see `FORMAT.md` for the byte layout.
    pub fn save(
        &self,
        path: impl AsRef<std::path::Path>,
        generation: u64,
    ) -> Result<(), sqp_store::SnapshotError> {
        let meta = sqp_store::SnapshotMeta::describe(
            &self.snapshot,
            generation,
            // Raw-record provenance is not tracked at service level; the
            // retrainer records it when it owns the corpus window.
            0,
        );
        sqp_store::save_snapshot(path, &self.snapshot, &meta)
    }

    /// Top-`k` suggestions for the session so far (oldest query first).
    /// Empty when the context is uncovered.
    ///
    /// # Examples
    ///
    /// ```
    /// use sqp::prelude::*;
    /// use sqp::logsim::RawLogRecord;
    ///
    /// let rec = |machine, ts, q: &str| RawLogRecord {
    ///     machine_id: machine, timestamp: ts, query: q.into(), clicks: vec![],
    /// };
    /// let mut records = Vec::new();
    /// for u in 0..10 {
    ///     records.push(rec(u, 100, "kidney stones"));
    ///     records.push(rec(u, 200, "kidney stone symptoms"));
    /// }
    ///
    /// let svc = RecommenderService::from_raw_logs(&records, &ServiceConfig::default());
    /// let suggestions = svc.suggest(&["kidney stones"], 3);
    /// assert_eq!(suggestions[0].query, "kidney stone symptoms");
    /// ```
    pub fn suggest(&self, context: &[&str], k: usize) -> Vec<Suggestion> {
        self.snapshot.suggest(context, k)
    }

    /// Can the service say anything for this context?
    pub fn covers(&self, context: &[&str]) -> bool {
        self.snapshot.covers(context)
    }

    /// Name of the underlying model.
    pub fn model_name(&self) -> &str {
        self.snapshot.model_name()
    }

    /// Session mass the model was trained on.
    pub fn trained_sessions(&self) -> u64 {
        self.snapshot.trained_sessions()
    }

    /// Distinct queries known to the service.
    pub fn vocabulary_size(&self) -> usize {
        self.snapshot.vocabulary_size()
    }

    /// Approximate model heap footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.snapshot.memory_bytes()
    }

    /// Handle to the underlying immutable snapshot — publishable into a
    /// running [`ServeEngine`] via
    /// [`publish`](sqp_serve::ServeEngine::publish).
    pub fn snapshot(&self) -> Arc<ModelSnapshot> {
        Arc::clone(&self.snapshot)
    }

    /// Promote into a concurrent serving engine with session tracking,
    /// batched suggestion, and hot-swappable retrains.
    pub fn into_engine(self, cfg: EngineConfig) -> ServeEngine {
        ServeEngine::new(self.snapshot, cfg)
    }

    /// Promote into a replicated serving tier: N independent engines
    /// behind consistent-hash user routing, with fan-out/rolling snapshot
    /// publication (see `sqp_store::rollout`) and per-replica health. The
    /// serve surface matches [`into_engine`](Self::into_engine)'s, so
    /// callers upgrade transparently when one engine stops being enough.
    pub fn into_router(self, cfg: RouterConfig) -> RouterEngine {
        RouterEngine::new(self.snapshot, cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqp_core::{MvmmConfig, VmmConfig};

    fn rec(machine: u64, ts: u64, q: &str) -> RawLogRecord {
        RawLogRecord {
            machine_id: machine,
            timestamp: ts,
            query: q.into(),
            clicks: vec![],
        }
    }

    fn sample_records() -> Vec<RawLogRecord> {
        let mut records = Vec::new();
        // Ten users all refine "kidney stones" the same way.
        for u in 0..10 {
            records.push(rec(u, 100, "kidney stones"));
            records.push(rec(u, 200, "kidney stone symptoms"));
        }
        // Three of them go deeper.
        for u in 0..3 {
            records.push(rec(u + 100, 100, "kidney stones"));
            records.push(rec(u + 100, 260, "kidney stone symptoms"));
            records.push(rec(u + 100, 420, "kidney stone symptoms in women"));
        }
        records.push(rec(999, 50, "muzzle brake"));
        records
    }

    fn service(model: ServiceModel) -> RecommenderService {
        RecommenderService::from_raw_logs(
            &sample_records(),
            &ServiceConfig {
                model,
                ..ServiceConfig::default()
            },
        )
    }

    #[test]
    fn suggests_the_common_refinement() {
        for model in [
            ServiceModel::Adjacency,
            ServiceModel::Vmm(VmmConfig::with_epsilon(0.05)),
            ServiceModel::Mvmm(MvmmConfig::small()),
        ] {
            let svc = service(model);
            let suggestions = svc.suggest(&["kidney stones"], 3);
            assert!(!suggestions.is_empty(), "{}", svc.model_name());
            assert_eq!(suggestions[0].query, "kidney stone symptoms");
            assert!(suggestions[0].score > 0.0);
        }
    }

    #[test]
    fn context_deepens_the_suggestion() {
        let svc = service(ServiceModel::Vmm(VmmConfig::with_epsilon(0.0)));
        let suggestions = svc.suggest(&["kidney stones", "kidney stone symptoms"], 3);
        assert_eq!(suggestions[0].query, "kidney stone symptoms in women");
    }

    #[test]
    fn unknown_current_query_is_uncovered() {
        let svc = service(ServiceModel::Adjacency);
        assert!(svc.suggest(&["never seen before"], 5).is_empty());
        assert!(!svc.covers(&["never seen before"]));
        assert!(svc.suggest(&[], 5).is_empty());
        // Unknown *prefix* is fine.
        assert!(svc.covers(&["never seen before", "kidney stones"]));
    }

    #[test]
    fn terminal_queries_are_uncovered_for_ordered_models() {
        let svc = service(ServiceModel::Adjacency);
        // "muzzle brake" only appears as a singleton session.
        assert!(!svc.covers(&["muzzle brake"]));
    }

    #[test]
    fn service_metadata() {
        let svc = service(ServiceModel::Vmm(VmmConfig::with_epsilon(0.05)));
        assert_eq!(svc.model_name(), "VMM (0.05)");
        assert_eq!(svc.vocabulary_size(), 4);
        assert_eq!(svc.trained_sessions(), 14);
        assert!(svc.memory_bytes() > 0);
    }

    #[test]
    fn reduction_threshold_filters_rare_sessions() {
        let svc = RecommenderService::from_raw_logs(
            &sample_records(),
            &ServiceConfig {
                reduction_threshold: 5,
                model: ServiceModel::Adjacency,
                ..ServiceConfig::default()
            },
        );
        // Only the 10x session survives; the deep refinement is gone.
        assert!(svc.covers(&["kidney stones"]));
        assert!(!svc.covers(&["kidney stone symptoms"]));
    }

    #[test]
    fn save_load_roundtrip_per_model() {
        let dir = std::env::temp_dir().join(format!("sqp-svc-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for (name, model) in [
            ("adj", ServiceModel::Adjacency),
            ("cooc", ServiceModel::Cooccurrence),
            ("ngram", ServiceModel::NGram),
            (
                "backoff",
                ServiceModel::Backoff(sqp_core::BackoffConfig::default()),
            ),
            ("vmm", ServiceModel::Vmm(VmmConfig::with_epsilon(0.05))),
        ] {
            let svc = service(model);
            let path = dir.join(format!("{name}.sqps"));
            svc.save(&path, 4).unwrap();
            let warm = RecommenderService::load(&path).unwrap();
            assert_eq!(warm.model_name(), svc.model_name());
            assert_eq!(
                warm.suggest(&["kidney stones"], 3),
                svc.suggest(&["kidney stones"], 3),
                "{name}"
            );
        }
        // The MVMM default has no persistable form — typed error, no panic.
        let svc = service(ServiceModel::Mvmm(MvmmConfig::small()));
        assert!(svc.save(dir.join("mvmm.sqps"), 0).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_handle_is_shared_not_copied() {
        let svc = service(ServiceModel::Adjacency);
        let a = svc.snapshot();
        let b = svc.snapshot();
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn into_engine_serves_the_same_model() {
        let svc = service(ServiceModel::Adjacency);
        let expected = svc.suggest(&["kidney stones"], 2);
        let engine = svc.into_engine(sqp_serve::EngineConfig::default());
        engine.track(1, "kidney stones", 100).unwrap();
        assert_eq!(engine.suggest(1, 2, 101), expected);
    }

    #[test]
    fn into_router_serves_the_same_model_on_every_replica() {
        let svc = service(ServiceModel::Adjacency);
        let expected = svc.suggest(&["kidney stones"], 2);
        let router = svc.into_router(RouterConfig::default());
        for user in [1u64, 2, 3, 4, 5, 6, 7, 8] {
            assert_eq!(
                router.track_and_suggest(user, "kidney stones", 2, 100),
                expected,
                "user {user} (replica {})",
                router.replica_for(user)
            );
        }
    }
}
