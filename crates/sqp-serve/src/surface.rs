//! [`ServeSurface`]: the one trait every serving tier speaks.
//!
//! Three layers sit on top of a serving tier and none of them should care
//! whether the tier is a single [`ServeEngine`] or a replicated
//! `RouterEngine` (`sqp-router` implements this trait for it):
//!
//! * the **network front-end** (`sqp-net`) translates wire frames into
//!   these calls, and every typed [`ServeError`] into its wire reply (an
//!   [`Overloaded`](ServeError::Overloaded) becomes a shed reply);
//! * the **stress harness** (`sqp-bench::serve_loop`) drives byte-identical
//!   seeded traffic through any implementation so two tiers' reports are
//!   directly comparable;
//! * **operations** polls [`stats`](ServeSurface::stats), which
//!   implementations keep lock-free so a poller never contends with
//!   traffic.
//!
//! The trait requires `Send + Sync`: a surface is always shared across
//! threads (connection threads, stats pollers), and requiring it
//! here turns a accidentally-non-`Sync` implementation into a compile
//! error at `impl` time rather than a usage error at spawn time.

use crate::engine::{EngineStats, ServeEngine, SuggestRequest};
use crate::session::TrackOutcome;
use crate::snapshot::{ModelSnapshot, Suggestion};
use std::sync::Arc;

/// Why a serve call was refused. Every refusal is a value the caller can
/// act on; none of them means the tier is broken.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServeError {
    /// The in-flight admission budget is exhausted and the request was
    /// shed instead of queued. Shedding is deliberate back-pressure —
    /// under overload, answering fewer requests quickly beats answering
    /// all of them late — so callers map it to their transport's "retry
    /// later" (HTTP 503 + Retry-After, or the wire's `R_OVERLOADED`).
    Overloaded {
        /// The configured budget that was exhausted.
        limit: usize,
    },
    /// A draining replica refused a request that would have started a new
    /// session (see [`ServeEngine::set_draining`]). Nothing was recorded.
    Draining,
    /// No backend answered: a remote tier whose every endpoint is down or
    /// out of deadline. The remote engine's `remote_*` calls say why.
    Unavailable,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Overloaded { limit } => {
                write!(f, "serve tier overloaded ({limit} requests in flight)")
            }
            ServeError::Draining => write!(f, "replica is draining and refuses new sessions"),
            ServeError::Unavailable => write!(f, "no serving endpoint answered"),
        }
    }
}

impl std::error::Error for ServeError {}

/// The operations a serving tier exposes to front-ends, harnesses, and
/// operators — the common surface of [`ServeEngine`], `RouterEngine` and
/// `RemoteEngine`.
///
/// Every serve call is fallible and admission-controlled: the `try_*`
/// calls shed with [`ServeError::Overloaded`] when the tier's in-flight
/// budget is exhausted (a budget of 0 means unlimited). The `try_` prefix
/// keeps these from being shadowed by the engines' inherent, unadmitted
/// `track_and_suggest` / `suggest_batch` primitives.
pub trait ServeSurface: Send + Sync {
    /// Record `query` for `user` at `now` without suggesting.
    /// [`ServeError::Draining`] when a draining tier refuses a new session.
    fn track(&self, user: u64, query: &str, now: u64) -> Result<TrackOutcome, ServeError>;

    /// Admission-controlled suggestion against `user`'s tracked session.
    fn try_suggest(&self, user: u64, k: usize, now: u64) -> Result<Vec<Suggestion>, ServeError>;

    /// Admission-controlled track of `query` for `user`, then suggestion
    /// against the updated context. [`ServeError::Draining`] when a
    /// draining tier refuses a new session.
    fn try_track_and_suggest(
        &self,
        user: u64,
        query: &str,
        k: usize,
        now: u64,
    ) -> Result<Vec<Suggestion>, ServeError>;

    /// Admission-controlled batched suggestion, answers in request order.
    /// The batch is all-or-nothing: if any involved replica's budget is
    /// exhausted the whole call sheds, so a caller never has to merge
    /// partial answers with partial sheds.
    fn try_suggest_batch(
        &self,
        requests: &[SuggestRequest],
        now: u64,
    ) -> Result<Vec<Vec<Suggestion>>, ServeError>;

    /// Drop idle sessions; returns how many.
    fn evict_idle(&self, now: u64) -> usize;

    /// Publish a new snapshot to the whole surface (every replica, for a
    /// tier). Returns the surface's fully-propagated generation after the
    /// publish.
    fn publish(&self, snapshot: Arc<ModelSnapshot>) -> u64;

    /// Lock-free counters and gauges, aggregated across replicas for a
    /// tier: counters and the session gauge sum, while `publishes` reports
    /// the fully-propagated generation (the minimum across replicas). This
    /// is what a wire-level stats endpoint serves, so it must stay cheap
    /// enough to poll per request.
    fn stats(&self) -> EngineStats;
}

impl ServeSurface for ServeEngine {
    fn track(&self, user: u64, query: &str, now: u64) -> Result<TrackOutcome, ServeError> {
        ServeEngine::track(self, user, query, now)
    }
    fn try_suggest(&self, user: u64, k: usize, now: u64) -> Result<Vec<Suggestion>, ServeError> {
        let _permit = self.admit()?;
        Ok(self.suggest(user, k, now))
    }
    fn try_track_and_suggest(
        &self,
        user: u64,
        query: &str,
        k: usize,
        now: u64,
    ) -> Result<Vec<Suggestion>, ServeError> {
        let _permit = self.admit()?;
        self.track_suggest(user, query, k, now)
    }
    /// The whole batch costs one permit: it shares one snapshot load and
    /// its buffers, so per-entry admission would overcount its footprint.
    fn try_suggest_batch(
        &self,
        requests: &[SuggestRequest],
        now: u64,
    ) -> Result<Vec<Vec<Suggestion>>, ServeError> {
        let _permit = self.admit()?;
        Ok(self.suggest_batch(requests, now))
    }
    fn evict_idle(&self, now: u64) -> usize {
        ServeEngine::evict_idle(self, now)
    }
    fn publish(&self, snapshot: Arc<ModelSnapshot>) -> u64 {
        ServeEngine::publish(self, snapshot)
    }
    fn stats(&self) -> EngineStats {
        ServeEngine::stats(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Compile-time audit: the surface trait itself guarantees
    /// `Send + Sync` (it is a supertrait bound, so every implementation is
    /// checked where it is written), and the engine satisfies it both
    /// directly and behind the pointer types front-ends actually share.
    #[test]
    fn surface_is_send_sync_everywhere_it_is_used() {
        fn takes_surface<S: ServeSurface>() {}
        fn takes_send_sync<T: Send + Sync>() {}
        takes_surface::<ServeEngine>();
        takes_send_sync::<ServeEngine>();
        takes_send_sync::<Arc<ServeEngine>>();
        // A type-erased surface (how sqp-net's server can hold "any tier")
        // must remain shareable too.
        takes_send_sync::<Arc<dyn ServeSurface>>();
    }

    #[test]
    fn engine_surface_delegates() {
        use crate::snapshot::{ModelSpec, TrainingConfig};
        use sqp_logsim::RawLogRecord;

        let rec = |machine, ts, q: &str| RawLogRecord {
            machine_id: machine,
            timestamp: ts,
            query: q.into(),
            clicks: vec![],
        };
        let records: Vec<_> = (0..6)
            .flat_map(|u| [rec(u, 100, "start"), rec(u, 150, "start::next")])
            .collect();
        let snapshot = Arc::new(ModelSnapshot::from_raw_logs(
            &records,
            &TrainingConfig {
                model: ModelSpec::Adjacency,
                ..TrainingConfig::default()
            },
        ));
        let engine = ServeEngine::new(
            Arc::clone(&snapshot),
            crate::engine::EngineConfig::default(),
        );
        let surface: &dyn ServeSurface = &engine;
        let outcome = surface.track(1, "start", 100).unwrap();
        assert!(outcome.new_session);
        assert_eq!(
            surface.try_suggest(1, 1, 110).unwrap()[0].query,
            "start::next"
        );
        assert_eq!(
            surface.try_track_and_suggest(2, "start", 1, 100).unwrap()[0].query,
            "start::next"
        );
        let batch = surface
            .try_suggest_batch(&[SuggestRequest { user: 1, k: 1 }], 120)
            .unwrap();
        assert_eq!(batch[0][0].query, "start::next");
        assert_eq!(surface.publish(snapshot), 1);
        let stats = surface.stats();
        assert_eq!(stats.publishes, 1);
        assert_eq!(stats.suggests, 3);
        assert_eq!(stats.active_sessions, 2);
        assert_eq!(surface.evict_idle(u64::MAX / 2), 2);
    }
}
