//! The serving engine: session tracking in front of a hot-swappable model.
//!
//! [`ServeEngine`] is the piece a search front-end embeds. It owns a
//! [`SessionTracker`] and the current [`ModelSnapshot`] behind a [`Swap`]
//! cell, and exposes the four operations live traffic needs:
//!
//! * [`track`](ServeEngine::track) — record a user's query;
//! * [`suggest`](ServeEngine::suggest) /
//!   [`suggest_batch`](ServeEngine::suggest_batch) — rank next-query
//!   candidates for tracked sessions (batched requests amortize the
//!   snapshot load, carry stripe locks across same-shard runs, and reuse
//!   id/top-k buffers across the batch);
//! * [`suggest_context`](ServeEngine::suggest_context) — stateless
//!   suggestion for an explicit context;
//! * [`publish`](ServeEngine::publish) — atomically swap in a freshly
//!   trained snapshot while concurrent readers keep serving the old one.
//!
//! Every suggestion is computed against exactly one snapshot handle loaded
//! at the start of the request, so a mid-request publication can never mix
//! two models' vocabularies (no torn reads — asserted by the concurrency
//! tests in the umbrella crate).

use crate::session::{SessionTracker, TrackOutcome, TrackerConfig};
use crate::snapshot::{ModelSnapshot, Suggestion};
use crate::surface::ServeError;
use crate::swap::Swap;
use sqp_common::hazard::{Hazard, NoHazard};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Engine construction parameters.
#[derive(Clone, Copy, Debug, Default)]
pub struct EngineConfig {
    /// Session-tracker sizing and eviction parameters.
    pub tracker: TrackerConfig,
    /// Admission-control budget: maximum requests simultaneously in flight
    /// through the [`ServeSurface`](crate::ServeSurface) serve calls before
    /// [`ServeEngine::admit`] sheds with [`ServeError::Overloaded`]. `0`
    /// (the default) disables the limit.
    pub max_in_flight: usize,
}

/// RAII admission token from [`ServeEngine::admit`]; the in-flight slot is
/// released when the permit drops (including on panic, so an injected
/// worker crash cannot leak budget).
#[derive(Debug)]
pub struct InFlightPermit<'a> {
    in_flight: &'a AtomicU64,
}

impl Drop for InFlightPermit<'_> {
    fn drop(&mut self) {
        self.in_flight.fetch_sub(1, Ordering::AcqRel);
    }
}

/// One entry of a batched suggestion request.
#[derive(Clone, Copy, Debug)]
pub struct SuggestRequest {
    /// The user whose tracked context to rank against.
    pub user: u64,
    /// How many candidates to return.
    pub k: usize,
}

/// Operation counters and gauges, snapshotted without taking any stripe
/// lock — [`ServeEngine::stats`] is plain atomic loads, so a stats poller
/// (e.g. a router collecting per-replica health every tick) never contends
/// with `track_and_suggest` traffic.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Queries recorded via `track` (including the tracked half of
    /// `track_and_suggest`).
    pub tracks: u64,
    /// Suggestion computations served (batch entries count individually).
    pub suggests: u64,
    /// Snapshots published.
    pub publishes: u64,
    /// Requests shed by admission control ([`ServeEngine::admit`] refusals).
    pub shed: u64,
    /// Sessions dropped by [`ServeEngine::evict_idle`] over the engine's
    /// lifetime (monotonic; lazy per-`track` resets are not counted).
    pub evictions: u64,
    /// Sessions currently resident in the tracker (a gauge, not a counter —
    /// it goes down when sessions are evicted or cleared).
    pub active_sessions: u64,
}

/// A concurrent query-suggestion server over a hot-swappable model.
///
/// All methods take `&self`; the engine is meant to live in an
/// [`Arc`] shared across worker threads.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use sqp_logsim::RawLogRecord;
/// use sqp_serve::{EngineConfig, ModelSnapshot, ModelSpec, ServeEngine, TrainingConfig};
///
/// let rec = |machine, ts, q: &str| RawLogRecord {
///     machine_id: machine, timestamp: ts, query: q.into(), clicks: vec![],
/// };
/// let mut records = Vec::new();
/// for u in 0..5 {
///     records.push(rec(u, 100, "rust"));
///     records.push(rec(u, 150, "rust atomics"));
/// }
/// let cfg = TrainingConfig { model: ModelSpec::Adjacency, ..TrainingConfig::default() };
/// let snapshot = Arc::new(ModelSnapshot::from_raw_logs(&records, &cfg));
/// let engine = ServeEngine::new(snapshot, EngineConfig::default());
///
/// engine.track(42, "rust", 1_000).unwrap();
/// let top = engine.suggest(42, 3, 1_010);
/// assert_eq!(top[0].query, "rust atomics");
/// ```
pub struct ServeEngine {
    tracker: SessionTracker,
    current: Swap<ModelSnapshot>,
    tracks: AtomicU64,
    suggests: AtomicU64,
    evictions: AtomicU64,
    max_in_flight: usize,
    in_flight: AtomicU64,
    shed: AtomicU64,
    hazard: Arc<dyn Hazard>,
    /// Precomputed `"serve.shard.N"` hazard-site names, one per stripe, so
    /// the hot path never formats strings to announce a seam crossing.
    shard_sites: Box<[String]>,
    /// Draining mode: existing sessions keep being served, new ones are
    /// refused (see [`ServeEngine::set_draining`]).
    draining: AtomicBool,
    /// Tracks refused because the engine was draining and the query would
    /// have started a new session.
    drain_refused: AtomicU64,
}

impl ServeEngine {
    /// Build an engine serving `snapshot` with the production (no-op)
    /// hazard.
    pub fn new(snapshot: Arc<ModelSnapshot>, cfg: EngineConfig) -> Self {
        Self::with_hazard(snapshot, cfg, Arc::new(NoHazard))
    }

    /// Build an engine whose serve-path chaos seams strike `hazard` —
    /// production code never needs this; fault-injection harnesses pass the
    /// chaos runtime here to stall or crash requests at deterministic
    /// points.
    pub fn with_hazard(
        snapshot: Arc<ModelSnapshot>,
        cfg: EngineConfig,
        hazard: Arc<dyn Hazard>,
    ) -> Self {
        let tracker = SessionTracker::new(cfg.tracker);
        let shard_sites = (0..tracker.num_shards())
            .map(|i| format!("serve.shard.{i}"))
            .collect();
        Self {
            tracker,
            current: Swap::new(snapshot),
            tracks: AtomicU64::new(0),
            suggests: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            max_in_flight: cfg.max_in_flight,
            in_flight: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            hazard,
            shard_sites,
            draining: AtomicBool::new(false),
            drain_refused: AtomicU64::new(0),
        }
    }

    /// Enter or leave draining mode.
    ///
    /// A draining engine keeps serving every **existing** live session —
    /// tracks, suggests, batches — but refuses any track that would start
    /// a **new** session (first contact, or a return past the idle
    /// cutoff). A refused track returns [`ServeError::Draining`] and is
    /// counted in [`ServeEngine::drain_refused`]. This is the serve-layer
    /// half of a membership drain: routing stops sending new users here,
    /// and stragglers cannot take root while the replica winds down.
    pub fn set_draining(&self, draining: bool) {
        self.draining.store(draining, Ordering::Release);
    }

    /// True when the engine is refusing new sessions (see
    /// [`ServeEngine::set_draining`]).
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::Acquire)
    }

    /// Tracks refused in draining mode because they would have started a
    /// new session. Monotonic over the engine's lifetime.
    pub fn drain_refused(&self) -> u64 {
        self.drain_refused.load(Ordering::Relaxed)
    }

    /// Count a track refused by draining mode.
    fn refuse_drain(&self) -> ServeError {
        self.drain_refused.fetch_add(1, Ordering::Relaxed);
        ServeError::Draining
    }

    /// Reserve an in-flight slot, or shed with [`ServeError::Overloaded`]
    /// when the configured budget (`max_in_flight`, 0 = unlimited) is
    /// exhausted. The returned permit releases the slot on drop — hold it
    /// across the work the admission should cover. The
    /// [`ServeSurface`](crate::ServeSurface) serve calls bundle this;
    /// `admit` is public for callers wrapping their own request pipelines.
    pub fn admit(&self) -> Result<InFlightPermit<'_>, ServeError> {
        let occupied = self.in_flight.fetch_add(1, Ordering::AcqRel);
        if self.max_in_flight != 0 && occupied >= self.max_in_flight as u64 {
            // Roll back the optimistic reservation and count the shed.
            self.in_flight.fetch_sub(1, Ordering::AcqRel);
            self.shed.fetch_add(1, Ordering::Relaxed);
            return Err(ServeError::Overloaded {
                limit: self.max_in_flight,
            });
        }
        Ok(InFlightPermit {
            in_flight: &self.in_flight,
        })
    }

    /// Requests currently holding admission permits.
    pub fn in_flight(&self) -> u64 {
        self.in_flight.load(Ordering::Acquire)
    }

    /// Record a query issued by `user` at `now` (seconds since any fixed
    /// epoch — only gaps matter). [`ServeError::Draining`] when a draining
    /// engine refuses a new session.
    pub fn track(&self, user: u64, query: &str, now: u64) -> Result<TrackOutcome, ServeError> {
        self.tracks.fetch_add(1, Ordering::Relaxed);
        if self.is_draining() {
            return self
                .tracker
                .track_existing(user, query, now)
                .ok_or_else(|| self.refuse_drain());
        }
        Ok(self.tracker.track(user, query, now))
    }

    /// Top-`k` suggestions for `user`'s tracked session. Empty when the
    /// user has no live session or the context is uncovered by the current
    /// model.
    pub fn suggest(&self, user: u64, k: usize, now: u64) -> Vec<Suggestion> {
        self.suggest_batch(&[SuggestRequest { user, k }], now)
            .pop()
            .unwrap_or_default()
    }

    /// Record `query` for `user` and immediately suggest against the
    /// updated context — the common search-box round trip, unadmitted. A
    /// draining engine's refusal of a new session answers empty here; the
    /// admitted `ServeSurface::try_track_and_suggest` reports it typed.
    pub fn track_and_suggest(&self, user: u64, query: &str, k: usize, now: u64) -> Vec<Suggestion> {
        self.track_suggest(user, query, k, now).unwrap_or_default()
    }

    /// [`track_and_suggest`](Self::track_and_suggest) with the draining
    /// refusal typed. One snapshot load and one stripe acquisition: the
    /// context is updated and resolved to ids in the same critical
    /// section, and model inference runs after the lock is released.
    pub(crate) fn track_suggest(
        &self,
        user: u64,
        query: &str,
        k: usize,
        now: u64,
    ) -> Result<Vec<Suggestion>, ServeError> {
        self.tracks.fetch_add(1, Ordering::Relaxed);
        self.suggests.fetch_add(1, Ordering::Relaxed);
        let snapshot = self.current.load();
        let draining = self.is_draining();
        let mut ids = Vec::new();
        let covered = {
            let shard_idx = self.tracker.shard_index(user);
            let mut shard = self.tracker.lock_shard(shard_idx);
            // Chaos seam, struck while the stripe is held: an injected
            // panic here poisons the lock, exercising the tracker's poison
            // recovery; an injected stall models a slow shard.
            self.hazard.strike(&self.shard_sites[shard_idx]);
            if draining {
                // Same rule as `SessionTracker::track_existing`, applied
                // inside this path's own critical section: only a session
                // that is live *right now* may be extended.
                let cutoff = self.tracker.config().idle_cutoff_secs;
                let live = shard.sessions.get(&user).is_some_and(|state| {
                    !state.ring.is_empty() && now.saturating_sub(state.last_seen) <= cutoff
                });
                if !live {
                    drop(shard);
                    return Err(self.refuse_drain());
                }
            }
            let (_, state, inserted) = shard.track(user, query, now, self.tracker.config());
            self.tracker.note_insert(inserted);
            snapshot.resolve_context_into(state.ring.iter(), &mut ids)
        };
        if !covered {
            return Ok(Vec::new());
        }
        let mut topk = Vec::new();
        snapshot.recommend_ids_into(&ids, k, &mut topk);
        let mut rendered = Vec::with_capacity(topk.len());
        snapshot.render_into(&topk, &mut rendered);
        Ok(rendered)
    }

    /// Batched suggestion: rank every request against **one** snapshot
    /// handle loaded up front. Runs in two phases so that no model
    /// inference ever happens under a session lock:
    ///
    /// 1. **Resolve** — walk the requests in order, carrying the stripe
    ///    lock across consecutive requests that hash to the same shard, and
    ///    copy each live context out as interned ids into one flat arena.
    ///    The critical section per request is a map probe plus one interner
    ///    lookup per context entry.
    /// 2. **Rank** — with all locks released, run `recommend_into` per
    ///    request through a single reused top-k buffer and render the
    ///    results.
    ///
    /// Results are returned in request order; callers that pre-group users
    /// by shard get maximal lock amortization for free. At most one stripe
    /// lock is ever held, and it is released before the next stripe is
    /// taken, so concurrent batches cannot deadlock whatever their request
    /// orders.
    pub fn suggest_batch(&self, requests: &[SuggestRequest], now: u64) -> Vec<Vec<Suggestion>> {
        self.suggests
            .fetch_add(requests.len() as u64, Ordering::Relaxed);
        let snapshot = self.current.load();
        let cutoff = self.tracker.config().idle_cutoff_secs;

        // Phase 1: copy covered contexts out as ids. `spans[i]` is the
        // request's range within the flat `ids` arena, or `None` when the
        // session is absent, expired, or its context is uncovered.
        let mut ids: Vec<sqp_common::QueryId> = Vec::new();
        let mut spans: Vec<Option<(usize, usize)>> = Vec::with_capacity(requests.len());
        let mut scratch: Vec<sqp_common::QueryId> = Vec::new();
        let mut held: Option<(usize, std::sync::MutexGuard<'_, crate::session::Shard>)> = None;
        for req in requests {
            let shard_idx = self.tracker.shard_index(req.user);
            if !matches!(&held, Some((idx, _)) if *idx == shard_idx) {
                // Release the previous stripe *before* locking the next: at
                // most one stripe lock is ever held, so concurrent batches
                // cannot form a lock-order cycle.
                drop(held.take());
                held = Some((shard_idx, self.tracker.lock_shard(shard_idx)));
                // Chaos seam: same semantics as in `track_and_suggest`.
                self.hazard.strike(&self.shard_sites[shard_idx]);
            }
            let (_, guard) = held.as_mut().expect("stripe lock just taken");
            let covered = match guard.sessions.get(&req.user) {
                Some(state) if now.saturating_sub(state.last_seen) <= cutoff => {
                    snapshot.resolve_context_into(state.ring.iter(), &mut scratch)
                }
                _ => false,
            };
            if covered {
                let start = ids.len();
                ids.extend_from_slice(&scratch);
                spans.push(Some((start, ids.len())));
            } else {
                spans.push(None);
            }
        }
        drop(held);

        // Phase 2: model inference and rendering, lock-free.
        let mut topk: Vec<sqp_common::topk::Scored> = Vec::new();
        let mut out: Vec<Vec<Suggestion>> = Vec::with_capacity(requests.len());
        for (req, span) in requests.iter().zip(&spans) {
            let Some((start, end)) = span else {
                out.push(Vec::new());
                continue;
            };
            snapshot.recommend_ids_into(&ids[*start..*end], req.k, &mut topk);
            let mut rendered = Vec::with_capacity(topk.len());
            snapshot.render_into(&topk, &mut rendered);
            out.push(rendered);
        }
        out
    }

    /// Stateless suggestion for an explicit context (oldest query first),
    /// bypassing the session tracker.
    pub fn suggest_context(&self, context: &[&str], k: usize) -> Vec<Suggestion> {
        self.suggests.fetch_add(1, Ordering::Relaxed);
        self.current.load().suggest(context, k)
    }

    /// Atomically publish a freshly trained snapshot; in-flight requests
    /// finish on the snapshot they loaded, later requests see the new one.
    /// Returns the new model generation.
    pub fn publish(&self, snapshot: Arc<ModelSnapshot>) -> u64 {
        self.current.store(snapshot)
    }

    /// Handle to the snapshot currently serving.
    pub fn snapshot(&self) -> Arc<ModelSnapshot> {
        self.current.load()
    }

    /// How many publications have occurred (0 = still on the initial model).
    pub fn generation(&self) -> u64 {
        self.current.generation()
    }

    /// Drop sessions idle past the cutoff at `now`; returns how many.
    pub fn evict_idle(&self, now: u64) -> usize {
        let evicted = self.tracker.evict_idle(now);
        self.evictions.fetch_add(evicted as u64, Ordering::Relaxed);
        evicted
    }

    /// Sessions currently resident in the tracker. Lock-free (a gauge
    /// maintained under the stripe locks), so stats pollers never contend
    /// with serving.
    pub fn active_sessions(&self) -> usize {
        self.tracker.active_sessions()
    }

    /// The underlying tracker (for direct context inspection).
    pub fn tracker(&self) -> &SessionTracker {
        &self.tracker
    }

    /// Snapshot of the operation counters and gauges. Entirely atomic
    /// loads — no stripe lock is taken, so this is safe to poll at any
    /// frequency (a router snapshots every replica per stats call).
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            tracks: self.tracks.load(Ordering::Relaxed),
            suggests: self.suggests.load(Ordering::Relaxed),
            publishes: self.current.generation(),
            shed: self.shed.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            active_sessions: self.tracker.active_sessions() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{ModelSpec, TrainingConfig};
    use crate::surface::ServeSurface;
    use sqp_logsim::RawLogRecord;

    fn rec(machine: u64, ts: u64, q: &str) -> RawLogRecord {
        RawLogRecord {
            machine_id: machine,
            timestamp: ts,
            query: q.into(),
            clicks: vec![],
        }
    }

    fn corpus(prefix: &str) -> Vec<RawLogRecord> {
        let mut records = Vec::new();
        for u in 0..6 {
            records.push(rec(u, 100, "start"));
            records.push(rec(u, 160, &format!("{prefix}::next")));
        }
        records
    }

    fn snapshot(prefix: &str) -> Arc<ModelSnapshot> {
        Arc::new(ModelSnapshot::from_raw_logs(
            &corpus(prefix),
            &TrainingConfig {
                model: ModelSpec::Adjacency,
                ..TrainingConfig::default()
            },
        ))
    }

    fn engine() -> ServeEngine {
        ServeEngine::new(snapshot("old"), EngineConfig::default())
    }

    #[test]
    fn tracked_session_gets_suggestions() {
        let e = engine();
        e.track(1, "start", 100).unwrap();
        let got = e.suggest(1, 3, 110);
        assert_eq!(got[0].query, "old::next");
        assert!(e.suggest(2, 3, 110).is_empty(), "unknown user");
    }

    #[test]
    fn track_and_suggest_round_trip() {
        let e = engine();
        let got = e.track_and_suggest(7, "start", 3, 50);
        assert_eq!(got[0].query, "old::next");
        let stats = e.stats();
        assert_eq!((stats.tracks, stats.suggests), (1, 1));
    }

    #[test]
    fn batch_matches_individual_calls() {
        let e = engine();
        for u in 0..32 {
            e.track(u, "start", 100).unwrap();
        }
        e.track(100, "start", 100).unwrap();
        e.track(100, "old::next", 160).unwrap(); // context uncovered for Adjacency
        let reqs: Vec<SuggestRequest> = (0..32)
            .chain([100, 555]) // 555 never tracked
            .map(|user| SuggestRequest { user, k: 2 })
            .collect();
        let batch = e.suggest_batch(&reqs, 200);
        assert_eq!(batch.len(), 34);
        for (req, got) in reqs.iter().zip(&batch) {
            assert_eq!(*got, e.suggest(req.user, req.k, 200), "user {}", req.user);
        }
        assert!(batch[33].is_empty());
    }

    #[test]
    fn publish_swaps_the_model_for_new_requests() {
        let e = engine();
        e.track(1, "start", 100).unwrap();
        assert_eq!(e.suggest(1, 1, 110)[0].query, "old::next");
        assert_eq!(e.generation(), 0);
        let held = e.snapshot();
        assert_eq!(e.publish(snapshot("new")), 1);
        assert_eq!(e.suggest(1, 1, 120)[0].query, "new::next");
        // The pre-publish handle still serves the old vocabulary.
        assert_eq!(held.suggest(&["start"], 1)[0].query, "old::next");
        assert_eq!(e.stats().publishes, 1);
    }

    #[test]
    fn suggest_context_is_stateless() {
        let e = engine();
        assert_eq!(e.suggest_context(&["start"], 1)[0].query, "old::next");
        assert!(e.suggest_context(&["unseen"], 1).is_empty());
    }

    #[test]
    fn admission_budget_sheds_and_recovers() {
        let e = ServeEngine::new(
            snapshot("old"),
            EngineConfig {
                max_in_flight: 2,
                ..EngineConfig::default()
            },
        );
        let p1 = e.admit().unwrap();
        let _p2 = e.admit().unwrap();
        assert_eq!(e.in_flight(), 2);
        assert_eq!(e.admit().unwrap_err(), ServeError::Overloaded { limit: 2 });
        assert_eq!(e.stats().shed, 1);
        // Releasing a permit frees the slot.
        drop(p1);
        assert_eq!(e.in_flight(), 1);
        assert!(e.try_suggest(1, 3, 100).is_ok());
        assert_eq!(e.in_flight(), 1, "try_suggest released its permit");
    }

    #[test]
    fn zero_budget_means_unlimited() {
        let e = engine();
        let permits: Vec<_> = (0..64).map(|_| e.admit().unwrap()).collect();
        assert_eq!(e.in_flight(), 64);
        assert_eq!(e.stats().shed, 0);
        drop(permits);
        assert_eq!(e.in_flight(), 0);
        e.track(1, "start", 100).unwrap();
        assert_eq!(e.try_suggest(1, 3, 110).unwrap()[0].query, "old::next");
    }

    #[test]
    fn hazard_panic_poisons_but_engine_keeps_serving() {
        use sqp_common::hazard::Hazard;
        use std::sync::atomic::AtomicBool;

        struct PanicOnce(AtomicBool);
        impl Hazard for PanicOnce {
            fn strike(&self, _site: &str) {
                if !self.0.swap(true, Ordering::SeqCst) {
                    panic!("injected chaos panic (test)");
                }
            }
        }

        let e = Arc::new(ServeEngine::with_hazard(
            snapshot("old"),
            EngineConfig {
                max_in_flight: 8,
                ..EngineConfig::default()
            },
            Arc::new(PanicOnce(AtomicBool::new(false))),
        ));
        // First request panics mid-critical-section, poisoning its stripe
        // and (via the held admission permit's Drop) releasing its slot.
        let crashed = Arc::clone(&e);
        let joined = std::thread::spawn(move || {
            let _ = crashed.try_track_and_suggest(7, "start", 3, 100);
        })
        .join();
        assert!(joined.is_err(), "injected panic should escape the worker");
        assert_eq!(e.in_flight(), 0, "crashed request leaked its permit");
        // The same user (same stripe) keeps serving after poison recovery.
        let got = e.try_track_and_suggest(7, "start", 3, 110).unwrap();
        assert_eq!(got[0].query, "old::next");
    }

    #[test]
    fn draining_serves_existing_sessions_and_refuses_new_ones() {
        let e = engine();
        e.track(1, "start", 100).unwrap();
        e.set_draining(true);
        assert!(e.is_draining());
        // Existing live session: still served, context still grows.
        let got = e.track_and_suggest(1, "old::next", 3, 110);
        assert!(got.is_empty(), "adjacency context of 2 is uncovered");
        assert_eq!(e.tracker().context(1, 120), vec!["start", "old::next"]);
        // New user: refused, typed on every surface call; the unadmitted
        // primitive answers empty.
        assert_eq!(e.track(2, "start", 120), Err(ServeError::Draining));
        let surface: &dyn ServeSurface = &e;
        assert_eq!(surface.track(2, "start", 120), Err(ServeError::Draining));
        assert_eq!(
            surface.try_track_and_suggest(3, "start", 3, 120),
            Err(ServeError::Draining)
        );
        assert!(e.track_and_suggest(3, "start", 3, 120).is_empty());
        assert_eq!(e.drain_refused(), 4);
        assert_eq!(e.active_sessions(), 1, "refused tracks must not insert");
        // Existing sessions keep being served while draining.
        assert_eq!(e.suggest(1, 3, 130).len(), 0);
        assert_eq!(surface.track(1, "start", 140).unwrap().context_len, 3);
        assert!(surface.try_track_and_suggest(1, "start", 3, 145).is_ok());
        // Leaving draining mode re-admits new sessions.
        e.set_draining(false);
        assert!(e.track(2, "start", 150).unwrap().new_session);
    }

    #[test]
    fn eviction_passthrough() {
        let e = engine();
        e.track(1, "start", 0).unwrap();
        assert_eq!(e.active_sessions(), 1);
        assert_eq!(e.evict_idle(u64::MAX / 2), 1);
        assert_eq!(e.active_sessions(), 0);
    }

    #[test]
    fn stats_expose_evictions_and_residency_lock_free() {
        let e = engine();
        e.track(1, "start", 0).unwrap();
        e.track_and_suggest(2, "start", 1, 0);
        let stats = e.stats();
        assert_eq!(stats.active_sessions, 2);
        assert_eq!(stats.evictions, 0);
        assert_eq!(e.evict_idle(u64::MAX / 2), 2);
        let stats = e.stats();
        assert_eq!(stats.evictions, 2);
        assert_eq!(stats.active_sessions, 0);
        // Evictions are monotonic across repeated (empty) sweeps.
        assert_eq!(e.evict_idle(u64::MAX / 2), 0);
        assert_eq!(e.stats().evictions, 2);
    }
}
