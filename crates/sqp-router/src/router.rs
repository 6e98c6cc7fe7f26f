//! The routed serving tier: N independent [`ServeEngine`] replicas behind
//! one consistent-hash front door.
//!
//! Each replica owns its own session tracker, snapshot cell, admission
//! budget, and counters — there is no shared mutable state between
//! replicas, so the tier scales by adding replicas, not by making one
//! engine's stripes wider. A user's id hashes onto the [`HashRing`] and
//! every request for that user goes to the same replica, which is where
//! their session context lives. Replicas can therefore sit on *different*
//! model generations mid-roll without any request ever seeing a mix: a
//! suggestion is computed by exactly one replica against exactly one
//! snapshot handle (the single-engine no-torn-reads guarantee, inherited
//! per replica).
//!
//! Publication comes in two shapes, both replica-at-a-time underneath:
//! [`RouterEngine::publish`] fans one in-memory snapshot out to every
//! replica (an atomic swap each), while the rolling/fan-out *from disk*
//! paths — which validate bytes per replica and quarantine failures — live
//! in `sqp-store`'s `rollout` module, keeping this crate free of any
//! storage dependency.
//!
//! # Live membership
//!
//! The replica set itself is **swappable**, under the same discipline as a
//! model publish: the ring plus the replica slots live in one immutable
//! [`TierState`] behind a [`Swap`] cell. Every request loads the state
//! once and runs wholly against that membership view; a reconfiguration
//! builds a new state off to the side and installs it with one pointer
//! swap. The cell's generation counter is the **ring generation** an
//! operator watches ([`RouterStats::ring_generation`]).
//!
//! Three membership verbs, all serialized by one control-plane mutex
//! (which [`RouterEngine::publish`] also takes, so a fan-out and a join
//! cannot interleave — see that method's docs for why that ordering
//! matters; serving never touches the mutex):
//!
//! * [`join_replica`](RouterEngine::join_replica) — grow the tier by one.
//!   Two-phase: compute the would-be ring, **copy** the moved users'
//!   session contexts into the new replica (export → import; contexts are
//!   query text, so the handoff is model-generation-independent), *then*
//!   swap the ring. A remapped user's next request sees an intact context.
//! * [`begin_drain`](RouterEngine::begin_drain) — start retiring a
//!   replica: its sessions are copied to their new homes, the ring swap
//!   stops routing new traffic to it, and the replica enters draining mode
//!   (serving stragglers, refusing new sessions) until
//!   [`retire_replica`](RouterEngine::retire_replica) drops it.
//! * [`remove_replica`](RouterEngine::remove_replica) — the no-handoff
//!   form for a replica that is already dead: its resident sessions are
//!   lost, but the loss is bounded by the ring's proven ≤ 2/N remap set.
//!
//! Handoff copies rather than moves: until the ring swap lands, the old
//! home keeps serving, so a handed-off user finds their context wherever
//! the ring routes them — on either side of the swap. The cost is bounded
//! staleness, not loss: a query tracked on the old home *between* export
//! and swap is missing from the copy, and the import's newest-wins rule
//! (`last_seen`) only closes that window for sessions re-tracked later.

use crate::ring::{HashRing, WouldEmptyRing, DEFAULT_VNODES};
use sqp_common::hash::fx_hash_one;
use sqp_serve::{
    EngineConfig, EngineStats, ModelSnapshot, ServeEngine, ServeError, ServeSurface,
    SuggestRequest, Suggestion, Swap, TrackOutcome,
};
use std::convert::Infallible;
use std::fmt;
use std::sync::{Arc, Mutex, PoisonError};

/// Router construction parameters.
#[derive(Clone, Copy, Debug)]
pub struct RouterConfig {
    /// Number of [`ServeEngine`] replicas to own. Each gets its own
    /// tracker/budget from `engine`, so memory and the admission budget
    /// both scale ×`replicas`.
    pub replicas: usize,
    /// Virtual nodes per replica on the hash ring (see
    /// [`DEFAULT_VNODES`]).
    pub vnodes: usize,
    /// Per-replica engine configuration.
    pub engine: EngineConfig,
}

impl Default for RouterConfig {
    fn default() -> Self {
        Self {
            replicas: 4,
            vnodes: DEFAULT_VNODES,
            engine: EngineConfig::default(),
        }
    }
}

/// Per-replica health record, written on publish/quarantine transitions
/// (never on the serve path).
#[derive(Debug, Default)]
struct Health {
    quarantined: bool,
    last_error: Option<String>,
}

/// One replica of the tier inside a [`TierState`]: the engine plus the
/// identity and health that travel with it across membership swaps.
#[derive(Clone)]
struct ReplicaSlot {
    id: u32,
    engine: Arc<ServeEngine>,
    /// Shared across states (an `Arc`): quarantine marks survive
    /// membership swaps without rebuilding them into each new state.
    health: Arc<Mutex<Health>>,
    /// Model generation the replica had already reached when it joined the
    /// tier. A joined engine's own `Swap` counter starts at zero; adding
    /// this offset makes its reported generation comparable with the
    /// veterans', so the tier's skew math stays meaningful across joins.
    gen_offset: u64,
}

impl ReplicaSlot {
    /// The replica's tier-comparable model generation.
    fn generation(&self) -> u64 {
        self.gen_offset + self.engine.generation()
    }
}

/// One immutable membership view: the ring and the replica slots it
/// routes over. Swapped as a unit — a request that loaded this state can
/// resolve every id the ring produces against `slots`, whatever
/// reconfigurations land meanwhile.
struct TierState {
    ring: HashRing,
    /// Sorted by id. Superset of the ring's ids: a draining replica has a
    /// slot (it still serves its resident sessions) but no ring points (no
    /// new traffic routes to it).
    slots: Vec<ReplicaSlot>,
}

impl TierState {
    fn slot(&self, id: u32) -> Option<&ReplicaSlot> {
        self.slots
            .binary_search_by_key(&id, |s| s.id)
            .ok()
            .map(|at| &self.slots[at])
    }

    fn slot_index(&self, id: u32) -> Option<usize> {
        self.slots.binary_search_by_key(&id, |s| s.id).ok()
    }

    fn slot_for(&self, user: u64) -> &ReplicaSlot {
        let id = self.ring.route(user);
        self.slot(id).expect("ring routes only to live slots")
    }

    /// True when the slot serves stragglers only (has no ring points).
    fn is_draining(&self, id: u32) -> bool {
        self.ring.replica_ids().binary_search(&id).is_err()
    }

    /// Ids in draining state, sorted ascending.
    fn draining_ids(&self) -> Vec<u32> {
        self.slots
            .iter()
            .map(|s| s.id)
            .filter(|&id| self.is_draining(id))
            .collect()
    }
}

/// One replica's row in [`RouterStats`].
#[derive(Clone, Debug)]
pub struct ReplicaStats {
    /// The replica's id — stable for its lifetime, never reused by the
    /// tier. For a tier that has seen no membership changes, ids are the
    /// construction indices `0..replicas`.
    pub id: u32,
    /// Model generation the replica is serving (its publish count, offset
    /// so that replicas joined mid-life report tier-comparable values).
    pub generation: u64,
    /// The replica engine's lock-free counters and gauges.
    pub stats: EngineStats,
    /// Requests currently holding the replica's admission permits.
    pub in_flight: u64,
    /// True when the replica's last publication attempt failed validation
    /// and it is pinned on its last-good snapshot.
    pub quarantined: bool,
    /// True when the replica is draining: off the ring, serving resident
    /// sessions to completion, refusing new ones, awaiting retirement.
    pub draining: bool,
    /// Tracks the replica refused while draining (would-be new sessions).
    pub drain_refused: u64,
    /// The error that quarantined it, if any (kept after recovery until the
    /// next successful publish overwrites it).
    pub last_error: Option<String>,
}

/// Point-in-time view of the whole tier, one row per replica, plus the
/// generation envelope and the tier shape — the introspection an operator
/// watches during a rolling upgrade or a membership change.
#[derive(Clone, Debug)]
pub struct RouterStats {
    /// Per-replica rows, sorted by replica id.
    pub replicas: Vec<ReplicaStats>,
    /// Every live replica id (routed and draining), sorted ascending.
    pub replica_ids: Vec<u32>,
    /// Replica ids currently draining (off the ring, not yet retired).
    pub draining: Vec<u32>,
    /// Virtual nodes per replica on the ring.
    pub vnodes: usize,
    /// Membership swap counter: 0 at construction, +1 per join / drain /
    /// retire / remove. The analogue of a model generation, for the ring.
    pub ring_generation: u64,
}

impl RouterStats {
    /// Lowest replica generation (the roll's trailing edge).
    pub fn min_generation(&self) -> u64 {
        self.replicas
            .iter()
            .map(|r| r.generation)
            .min()
            .unwrap_or(0)
    }

    /// Highest replica generation (the roll's leading edge).
    pub fn max_generation(&self) -> u64 {
        self.replicas
            .iter()
            .map(|r| r.generation)
            .max()
            .unwrap_or(0)
    }

    /// `max_generation - min_generation`: 0 when the tier is converged,
    /// ≥1 while a roll is in flight or a replica is stuck/quarantined.
    pub fn generation_skew(&self) -> u64 {
        self.max_generation() - self.min_generation()
    }

    /// True when every replica serves the same generation.
    pub fn is_converged(&self) -> bool {
        self.generation_skew() == 0
    }

    /// Number of replicas currently quarantined.
    pub fn quarantined(&self) -> usize {
        self.replicas.iter().filter(|r| r.quarantined).count()
    }
}

/// Typed refusal from the membership verbs ([`RouterEngine::join_replica`]
/// and friends). Every variant leaves the tier exactly as it was.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MembershipError {
    /// The id names no live replica (never joined, or already retired).
    UnknownReplica(u32),
    /// The operation would leave the ring empty — a tier must keep at
    /// least one routed replica (the ring-level [`WouldEmptyRing`]
    /// invariant, surfaced through the membership API).
    LastReplica,
    /// `begin_drain` on a replica that is already draining.
    AlreadyDraining(u32),
    /// `retire_replica` on a replica that was never drained — retiring an
    /// undrained replica would silently drop its resident sessions; use
    /// [`RouterEngine::remove_replica`] to accept that loss explicitly.
    NotDraining(u32),
}

impl fmt::Display for MembershipError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::UnknownReplica(id) => write!(f, "no live replica with id {id}"),
            Self::LastReplica => write!(f, "refusing to remove the tier's last routed replica"),
            Self::AlreadyDraining(id) => write!(f, "replica {id} is already draining"),
            Self::NotDraining(id) => {
                write!(f, "replica {id} is not draining (drain before retiring)")
            }
        }
    }
}

impl std::error::Error for MembershipError {}

/// Account of one session handoff (a join or a drain): what moved, what
/// was skipped, and the ring generation the swap installed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HandoffReport {
    /// The replica that joined or began draining.
    pub replica: u32,
    /// Sessions installed at their new homes.
    pub moved_sessions: usize,
    /// Exports dropped because the destination already held a session with
    /// activity at or after the export's (newest-wins; see
    /// `SessionTracker::import_session`).
    pub stale_skipped: usize,
    /// Sessions left behind because they were idle past the 30-minute
    /// cutoff at handoff time — dead context is not worth moving.
    pub skipped_idle: usize,
    /// The tier's ring generation after the membership swap.
    pub ring_generation: u64,
}

/// A replicated query-suggestion tier: consistent-hash routing over N
/// independently locked [`ServeEngine`] replicas.
///
/// All methods take `&self`; the router is meant to live in an [`Arc`]
/// shared across worker threads, exactly like a single engine.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use sqp_logsim::RawLogRecord;
/// use sqp_router::{RouterConfig, RouterEngine};
/// use sqp_serve::{ModelSnapshot, ModelSpec, TrainingConfig};
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
/// let router = RouterEngine::new(snapshot, RouterConfig::default());
///
/// let top = router.track_and_suggest(42, "rust", 3, 1_000);
/// assert_eq!(top[0].query, "rust atomics");
/// // The same user always lands on the same replica (until a membership
/// // change remaps their arc — and then their session moves with them).
/// assert_eq!(router.replica_for(42), router.replica_for(42));
/// ```
pub struct RouterEngine {
    /// The membership view, swapped whole (see the module docs).
    state: Swap<TierState>,
    /// Serializes the membership verbs. Serving never takes this lock —
    /// reconfiguration builds the next state beside live traffic and
    /// installs it with one swap.
    membership: Mutex<()>,
    /// Configuration for engines built by [`RouterEngine::join_replica`] —
    /// the same sizing every original replica got.
    engine_cfg: EngineConfig,
    vnodes: usize,
}

impl RouterEngine {
    /// Build a tier of `cfg.replicas` engines (at least 1), every replica
    /// starting on `snapshot` at generation 0, with ids `0..replicas`.
    pub fn new(snapshot: Arc<ModelSnapshot>, cfg: RouterConfig) -> Self {
        let n = cfg.replicas.max(1);
        let slots: Vec<ReplicaSlot> = (0..n as u32)
            .map(|id| ReplicaSlot {
                id,
                engine: Arc::new(ServeEngine::new(Arc::clone(&snapshot), cfg.engine)),
                health: Arc::new(Mutex::new(Health::default())),
                gen_offset: 0,
            })
            .collect();
        Self {
            state: Swap::new(Arc::new(TierState {
                ring: HashRing::new(n, cfg.vnodes),
                slots,
            })),
            membership: Mutex::new(()),
            engine_cfg: cfg.engine,
            vnodes: cfg.vnodes,
        }
    }

    fn state(&self) -> Arc<TierState> {
        self.state.load()
    }

    /// Hold the control-plane lock for one membership change, recovering
    /// from a poisoned predecessor (every verb builds a complete new state
    /// before swapping, so a panicking one cannot leave a half-built view
    /// installed).
    fn lock_membership(&self) -> std::sync::MutexGuard<'_, ()> {
        self.membership
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Number of live replicas (routed + draining).
    pub fn replica_count(&self) -> usize {
        self.state().slots.len()
    }

    /// Every live replica id (routed and draining), sorted ascending.
    /// For a tier that has seen no membership changes these are `0..n`.
    pub fn replica_ids(&self) -> Vec<u32> {
        self.state().slots.iter().map(|s| s.id).collect()
    }

    /// Replica ids currently draining (serving stragglers, off the ring).
    pub fn draining_ids(&self) -> Vec<u32> {
        self.state().draining_ids()
    }

    /// Membership swap counter: 0 at construction, +1 per join / drain /
    /// retire / remove.
    pub fn ring_generation(&self) -> u64 {
        self.state.generation()
    }

    /// Virtual nodes per replica on the ring.
    pub fn vnodes(&self) -> usize {
        self.vnodes
    }

    /// The replica id serving `user` under the current membership — stable
    /// between membership changes, so a user's session context is always
    /// found where it was written (and membership changes move the context
    /// along with the route).
    pub fn replica_for(&self, user: u64) -> usize {
        self.state().ring.route(user) as usize
    }

    /// Direct handle to the replica with `id` (for tests and publication
    /// paths), or `None` when no live replica has it. The handle stays
    /// valid after the replica leaves the tier.
    pub fn replica(&self, id: usize) -> Option<Arc<ServeEngine>> {
        self.with_slot(id, |slot| Arc::clone(&slot.engine)).ok()
    }

    /// Run `f` on the slot of live replica `id`, resolved against the
    /// **current** membership: an id is not a handle, and the replica it
    /// names may have retired meanwhile, in which case nothing runs.
    fn with_slot<T>(
        &self,
        id: usize,
        f: impl FnOnce(&ReplicaSlot) -> T,
    ) -> Result<T, MembershipError> {
        let state = self.state();
        let slot = state
            .slot(id as u32)
            .ok_or(MembershipError::UnknownReplica(id as u32))?;
        Ok(f(slot))
    }

    /// Record a query issued by `user` at `now` on their home replica.
    /// [`ServeError::Draining`] when the home replica refuses a new
    /// session (a straggler routed by a pre-drain membership view).
    pub fn track(&self, user: u64, query: &str, now: u64) -> Result<TrackOutcome, ServeError> {
        self.state().slot_for(user).engine.track(user, query, now)
    }

    /// Top-`k` suggestions for `user`'s tracked session, from their home
    /// replica's current snapshot.
    pub fn suggest(&self, user: u64, k: usize, now: u64) -> Vec<Suggestion> {
        self.state().slot_for(user).engine.suggest(user, k, now)
    }

    /// Record `query` for `user` and immediately suggest against the
    /// updated context — the common round trip, routed to the home replica.
    pub fn track_and_suggest(&self, user: u64, query: &str, k: usize, now: u64) -> Vec<Suggestion> {
        self.state()
            .slot_for(user)
            .engine
            .track_and_suggest(user, query, k, now)
    }

    /// Batched suggestion across the tier: requests are scattered to each
    /// user's home replica (preserving request order within each
    /// sub-batch, so same-replica callers keep the single engine's stripe
    /// amortization) and the results gathered back into request order.
    /// Each sub-batch runs against exactly one replica snapshot, so every
    /// entry's suggestions are wholly from one model even mid-roll; the
    /// whole batch runs against exactly one membership view, loaded once.
    /// Unadmitted; [`ServeSurface::try_suggest_batch`] is the admitted form.
    pub fn suggest_batch(&self, requests: &[SuggestRequest], now: u64) -> Vec<Vec<Suggestion>> {
        let Ok(out) = self.scatter_gather(requests, |engine, sub| {
            Ok::<_, Infallible>(engine.suggest_batch(sub, now))
        });
        out
    }

    /// Scatter `requests` to their home replicas, run `batch` once per
    /// involved replica, and gather the answers back into request order.
    /// The first replica whose `batch` fails fails the whole call (answers
    /// already computed elsewhere are discarded), and uninvolved replicas
    /// are never called.
    fn scatter_gather<E>(
        &self,
        requests: &[SuggestRequest],
        batch: impl Fn(&ServeEngine, &[SuggestRequest]) -> Result<Vec<Vec<Suggestion>>, E>,
    ) -> Result<Vec<Vec<Suggestion>>, E> {
        let state = self.state();
        // Fast path: a single-replica tier is just the engine.
        if state.slots.len() == 1 {
            return batch(&state.slots[0].engine, requests);
        }
        let mut per_slot: Vec<Vec<usize>> = vec![Vec::new(); state.slots.len()];
        for (at, request) in requests.iter().enumerate() {
            let id = state.ring.route(request.user);
            per_slot[state.slot_index(id).expect("routed id has a slot")].push(at);
        }
        let mut out: Vec<Vec<Suggestion>> = vec![Vec::new(); requests.len()];
        let mut sub: Vec<SuggestRequest> = Vec::new();
        for (slot, members) in state.slots.iter().zip(&per_slot) {
            if members.is_empty() {
                continue;
            }
            sub.clear();
            sub.extend(members.iter().map(|&at| requests[at]));
            let answers = batch(&slot.engine, &sub)?;
            for (&at, answer) in members.iter().zip(answers) {
                out[at] = answer;
            }
        }
        Ok(out)
    }

    /// The tier's counters and gauges folded into one [`EngineStats`]:
    /// counters (tracks, suggests, shed, evictions) and the session gauge
    /// sum across replicas, while `publishes` reports the *minimum* replica
    /// generation — the fully-propagated trailing edge
    /// ([`RouterStats::min_generation`]). This is what
    /// [`ServeSurface::stats`] reports for a tier; per-replica detail stays
    /// in [`Self::stats`].
    pub fn aggregate_stats(&self) -> EngineStats {
        let state = self.state();
        let mut folded = EngineStats::default();
        let mut min_generation = u64::MAX;
        for slot in &state.slots {
            let stats = slot.engine.stats();
            folded.tracks += stats.tracks;
            folded.suggests += stats.suggests;
            folded.shed += stats.shed;
            folded.evictions += stats.evictions;
            folded.active_sessions += stats.active_sessions;
            min_generation = min_generation.min(slot.generation());
        }
        folded.publishes = if min_generation == u64::MAX {
            0
        } else {
            min_generation
        };
        folded
    }

    /// Stateless suggestion for an explicit context. No session is
    /// involved, so any replica could answer; the context itself is hashed
    /// onto the ring to spread these deterministically.
    pub fn suggest_context(&self, context: &[&str], k: usize) -> Vec<Suggestion> {
        let state = self.state();
        let id = state.ring.route_hash(fx_hash_one(&context));
        state
            .slot(id)
            .expect("routed id has a slot")
            .engine
            .suggest_context(context, k)
    }

    /// Fan an in-memory snapshot out to every replica — N atomic swaps, in
    /// replica-id order (draining replicas included: they are still
    /// serving). Each swap also lifts that replica's quarantine: a direct
    /// publish hands the replica known-good bytes, superseding whatever
    /// failed before. Returns the tier's minimum generation after the
    /// fan-out (the roll's trailing edge).
    ///
    /// Serialized with the membership verbs on the control-plane mutex: an
    /// unserialized fan-out racing [`join_replica`](Self::join_replica)
    /// could cover only the pre-join slots while the newcomer seeded from
    /// the pre-publish snapshot — a replica a full generation behind with
    /// no roll in flight. Under the lock a join either lands first (the
    /// newcomer is in the slot set this fan-out covers) or after (it seeds
    /// from a replica the fan-out already upgraded). Serving is unaffected;
    /// only reconfiguration waits.
    pub fn publish(&self, snapshot: Arc<ModelSnapshot>) -> u64 {
        let _m = self.lock_membership();
        let state = self.state();
        for slot in &state.slots {
            slot.engine.publish(Arc::clone(&snapshot));
            Self::lock_health_slot(slot).quarantined = false;
        }
        state
            .slots
            .iter()
            .map(|s| s.generation())
            .min()
            .unwrap_or(0)
    }

    /// Publish to the single replica with `id` (one atomic swap) and mark
    /// it active — the step primitive rolling upgrades are built from.
    /// Returns the replica's new (tier-comparable) generation.
    ///
    /// # Errors
    ///
    /// [`MembershipError::UnknownReplica`], touching nothing, when no live
    /// replica has `id` — a roll takes no membership lock, so the tier may
    /// shrink under it.
    pub fn publish_to(
        &self,
        id: usize,
        snapshot: Arc<ModelSnapshot>,
    ) -> Result<u64, MembershipError> {
        self.with_slot(id, |slot| {
            slot.engine.publish(snapshot);
            Self::lock_health_slot(slot).quarantined = false;
            slot.generation()
        })
    }

    /// Pin the replica with `id` on its current (last-good) snapshot and
    /// record why its publication failed. The replica keeps serving —
    /// quarantine is a publication-side state, not a traffic stop.
    ///
    /// # Errors
    ///
    /// [`MembershipError::UnknownReplica`] when no live replica has `id`
    /// (one that left the tier mid-roll has nothing to quarantine).
    pub fn mark_quarantined(
        &self,
        id: usize,
        error: impl Into<String>,
    ) -> Result<(), MembershipError> {
        self.with_slot(id, |slot| {
            let mut health = Self::lock_health_slot(slot);
            health.quarantined = true;
            health.last_error = Some(error.into());
        })
    }

    /// Clear the quarantine on replica `id` without publishing (operator
    /// override). The last error is kept for forensics until the next
    /// successful publish.
    ///
    /// # Errors
    ///
    /// [`MembershipError::UnknownReplica`] when no live replica has `id`.
    pub fn mark_active(&self, id: usize) -> Result<(), MembershipError> {
        self.with_slot(id, |slot| {
            Self::lock_health_slot(slot).quarantined = false;
        })
    }

    /// Whether replica `id` is quarantined.
    ///
    /// # Errors
    ///
    /// [`MembershipError::UnknownReplica`] when no live replica has `id`.
    pub fn is_quarantined(&self, id: usize) -> Result<bool, MembershipError> {
        self.with_slot(id, |slot| Self::lock_health_slot(slot).quarantined)
    }

    fn lock_health_slot(slot: &ReplicaSlot) -> std::sync::MutexGuard<'_, Health> {
        // Health transitions are trivially tear-proof (two plain fields);
        // recover rather than propagate a panicking publisher's poison.
        slot.health.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Grow the tier by one replica. Two-phase handoff, then one swap:
    ///
    /// 1. Build the new engine on the freshest live snapshot (so it serves
    ///    the roll's leading edge from its first request) and compute the
    ///    would-be ring.
    /// 2. **Copy** every live session the new ring assigns to the newcomer
    ///    out of the old homes and import it into the new engine. Sessions
    ///    are query text — valid against any snapshot generation.
    /// 3. Swap the ring. From this instant the moved users route to the
    ///    newcomer and find their contexts intact; until it, their old
    ///    homes kept serving them. Zero context resets either way.
    ///
    /// `now` is the logical clock the 30-minute rule is judged against
    /// (idle sessions are not worth moving). Returns the handoff account;
    /// [`HandoffReport::replica`] is the newcomer's id — fresh, never a
    /// reused one.
    pub fn join_replica(&self, now: u64) -> HandoffReport {
        let _m = self.lock_membership();
        let old = self.state();
        let new_id = old.slots.last().expect("tier is never empty").id + 1;

        // Seed from the replica serving the highest generation, so the
        // newcomer joins on the leading edge, and carry that generation as
        // the newcomer's offset (its own Swap counter starts at zero).
        let freshest = old
            .slots
            .iter()
            .max_by_key(|s| s.generation())
            .expect("tier is never empty");
        let engine = Arc::new(ServeEngine::new(
            freshest.engine.snapshot(),
            self.engine_cfg,
        ));
        let gen_offset = freshest.generation();

        let mut ring = old.ring.clone();
        ring.add(new_id);

        let mut report = HandoffReport {
            replica: new_id,
            ..HandoffReport::default()
        };
        // Export from every old slot (draining ones included — they may
        // hold the freshest copy for a straggler) whatever the new ring
        // hands to the newcomer. Imports resolve duplicates newest-wins.
        for slot in &old.slots {
            let batch = slot
                .engine
                .tracker()
                .export_sessions(now, |user| ring.route(user) == new_id);
            report.skipped_idle += batch.skipped_idle;
            for export in &batch.sessions {
                if engine.tracker().import_session(export) {
                    report.moved_sessions += 1;
                } else {
                    report.stale_skipped += 1;
                }
            }
        }

        let mut slots = old.slots.clone();
        slots.push(ReplicaSlot {
            id: new_id,
            engine,
            health: Arc::new(Mutex::new(Health::default())),
            gen_offset,
        });
        report.ring_generation = self.state.store(Arc::new(TierState { ring, slots }));
        report
    }

    /// Start retiring replica `id`: copy its live sessions to the homes
    /// the shrunken ring assigns them, swap the ring so no new traffic
    /// routes to it, and put the replica in draining mode (stragglers that
    /// raced the swap keep being served; new sessions are refused). Finish
    /// with [`retire_replica`](Self::retire_replica) once its in-flight
    /// work has quiesced.
    ///
    /// `now` is the logical clock for the 30-minute rule. The handed-off
    /// users see zero context resets: their sessions exist at the new home
    /// before the ring stops routing them to the old one.
    ///
    /// # Errors
    ///
    /// [`MembershipError::UnknownReplica`], [`MembershipError::AlreadyDraining`],
    /// or [`MembershipError::LastReplica`] (the ring refuses to empty).
    pub fn begin_drain(&self, id: u32, now: u64) -> Result<HandoffReport, MembershipError> {
        let _m = self.lock_membership();
        let old = self.state();
        let victim = old.slot(id).ok_or(MembershipError::UnknownReplica(id))?;
        if old.is_draining(id) {
            return Err(MembershipError::AlreadyDraining(id));
        }
        let mut ring = old.ring.clone();
        match ring.remove(id) {
            Ok(_) => {}
            Err(WouldEmptyRing) => return Err(MembershipError::LastReplica),
        }

        // Draining mode first: from here no *new* session can take root on
        // the victim, so the export below cannot miss one racing in.
        victim.engine.set_draining(true);

        let mut report = HandoffReport {
            replica: id,
            ..HandoffReport::default()
        };
        let batch = victim.engine.tracker().export_sessions(now, |_| true);
        report.skipped_idle = batch.skipped_idle;
        for export in &batch.sessions {
            let home = ring.route(export.user);
            let dst = old.slot(home).expect("routed id has a slot");
            if dst.engine.tracker().import_session(export) {
                report.moved_sessions += 1;
            } else {
                report.stale_skipped += 1;
            }
        }

        report.ring_generation = self.state.store(Arc::new(TierState {
            ring,
            slots: old.slots.clone(),
        }));
        Ok(report)
    }

    /// Drop a **drained** replica from the tier. Its slot disappears from
    /// stats and `replica_ids`; handles obtained earlier stay valid (the
    /// engine is an `Arc`), they just receive no routed traffic.
    ///
    /// # Errors
    ///
    /// [`MembershipError::UnknownReplica`], or
    /// [`MembershipError::NotDraining`] if [`begin_drain`](Self::begin_drain)
    /// was never run — retiring an undrained replica would silently drop
    /// its sessions; use [`remove_replica`](Self::remove_replica) to
    /// accept that explicitly.
    pub fn retire_replica(&self, id: u32) -> Result<(), MembershipError> {
        let _m = self.lock_membership();
        let old = self.state();
        old.slot(id).ok_or(MembershipError::UnknownReplica(id))?;
        if !old.is_draining(id) {
            return Err(MembershipError::NotDraining(id));
        }
        let slots = old.slots.iter().filter(|s| s.id != id).cloned().collect();
        self.state.store(Arc::new(TierState {
            ring: old.ring.clone(),
            slots,
        }));
        Ok(())
    }

    /// Drop replica `id` **without** a drain — the verb for a replica that
    /// is already dead (crashed process, lost host). No handoff happens:
    /// its resident sessions are lost, and the affected users start fresh
    /// sessions at whatever homes the shrunken ring assigns them. The loss
    /// is bounded by the remap set — ≤ 2/N of users for one removal, the
    /// ring property proven in this crate's tests.
    ///
    /// # Errors
    ///
    /// [`MembershipError::UnknownReplica`], or
    /// [`MembershipError::LastReplica`] when removing the last routed
    /// replica (the ring refuses to empty).
    pub fn remove_replica(&self, id: u32) -> Result<(), MembershipError> {
        let _m = self.lock_membership();
        let old = self.state();
        old.slot(id).ok_or(MembershipError::UnknownReplica(id))?;
        let mut ring = old.ring.clone();
        if !old.is_draining(id) {
            match ring.remove(id) {
                Ok(_) => {}
                Err(WouldEmptyRing) => return Err(MembershipError::LastReplica),
            }
        }
        let slots = old.slots.iter().filter(|s| s.id != id).cloned().collect();
        self.state.store(Arc::new(TierState { ring, slots }));
        Ok(())
    }

    /// Drop idle sessions across every replica; returns the total evicted.
    pub fn evict_idle(&self, now: u64) -> usize {
        let state = self.state();
        state.slots.iter().map(|s| s.engine.evict_idle(now)).sum()
    }

    /// Sessions resident across the tier (sum of per-replica lock-free
    /// gauges).
    pub fn active_sessions(&self) -> usize {
        let state = self.state();
        state.slots.iter().map(|s| s.engine.active_sessions()).sum()
    }

    /// Snapshot the whole tier's health: per-replica generation, counters,
    /// in-flight, quarantine and draining state, plus the tier shape
    /// (replica ids, draining set, vnodes, ring generation). The engine
    /// rows are pure atomic loads (no stripe locks — see [`EngineStats`]);
    /// the only locks taken are the cold per-replica health mutexes, which
    /// the serve path never touches.
    pub fn stats(&self) -> RouterStats {
        let state = self.state();
        let replicas = state
            .slots
            .iter()
            .map(|slot| {
                let health = Self::lock_health_slot(slot);
                ReplicaStats {
                    id: slot.id,
                    generation: slot.generation(),
                    stats: slot.engine.stats(),
                    in_flight: slot.engine.in_flight(),
                    quarantined: health.quarantined,
                    draining: state.is_draining(slot.id),
                    drain_refused: slot.engine.drain_refused(),
                    last_error: health.last_error.clone(),
                }
            })
            .collect();
        RouterStats {
            replicas,
            replica_ids: state.slots.iter().map(|s| s.id).collect(),
            draining: state.draining_ids(),
            vnodes: self.vnodes,
            ring_generation: self.state.generation(),
        }
    }
}

/// The router speaks the same [`ServeSurface`] as a single engine, so the
/// network front-end (`sqp-net`) and the stress harness
/// (`sqp-bench::serve_loop`) run unchanged on a replicated tier. Each call
/// is admitted by the home replica's own budget, so overload on one
/// replica sheds only its own users; stats fold counters across replicas
/// and report the trailing-edge generation
/// ([`RouterEngine::aggregate_stats`]).
impl ServeSurface for RouterEngine {
    fn track(&self, user: u64, query: &str, now: u64) -> Result<TrackOutcome, ServeError> {
        RouterEngine::track(self, user, query, now)
    }
    fn try_suggest(&self, user: u64, k: usize, now: u64) -> Result<Vec<Suggestion>, ServeError> {
        let state = self.state();
        state.slot_for(user).engine.try_suggest(user, k, now)
    }
    fn try_track_and_suggest(
        &self,
        user: u64,
        query: &str,
        k: usize,
        now: u64,
    ) -> Result<Vec<Suggestion>, ServeError> {
        let state = self.state();
        state
            .slot_for(user)
            .engine
            .try_track_and_suggest(user, query, k, now)
    }
    /// All-or-nothing: each involved replica's sub-batch costs one of its
    /// permits, and the first replica that sheds fails the whole call.
    /// Uninvolved replicas spend nothing.
    fn try_suggest_batch(
        &self,
        requests: &[SuggestRequest],
        now: u64,
    ) -> Result<Vec<Vec<Suggestion>>, ServeError> {
        self.scatter_gather(requests, |engine, sub| engine.try_suggest_batch(sub, now))
    }
    fn evict_idle(&self, now: u64) -> usize {
        RouterEngine::evict_idle(self, now)
    }
    fn publish(&self, snapshot: Arc<ModelSnapshot>) -> u64 {
        RouterEngine::publish(self, snapshot)
    }
    fn stats(&self) -> EngineStats {
        self.aggregate_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqp_logsim::RawLogRecord;
    use sqp_serve::{ModelSpec, TrainingConfig};

    fn rec(machine: u64, ts: u64, q: &str) -> RawLogRecord {
        RawLogRecord {
            machine_id: machine,
            timestamp: ts,
            query: q.into(),
            clicks: vec![],
        }
    }

    fn snapshot(prefix: &str) -> Arc<ModelSnapshot> {
        let mut records = Vec::new();
        for u in 0..6 {
            records.push(rec(u, 100, "start"));
            records.push(rec(u, 160, &format!("{prefix}::next")));
        }
        Arc::new(ModelSnapshot::from_raw_logs(
            &records,
            &TrainingConfig {
                model: ModelSpec::Adjacency,
                ..TrainingConfig::default()
            },
        ))
    }

    fn router(replicas: usize) -> RouterEngine {
        RouterEngine::new(
            snapshot("old"),
            RouterConfig {
                replicas,
                ..RouterConfig::default()
            },
        )
    }

    #[test]
    fn routes_are_sticky_and_sessions_live_on_one_replica() {
        let r = router(4);
        for user in 0..200u64 {
            assert_eq!(r.replica_for(user), r.replica_for(user));
        }
        r.track(7, "start", 100).unwrap();
        let home = r.replica_for(7);
        // The session context exists only on the home replica.
        for id in r.replica_ids() {
            let context = r.replica(id as usize).unwrap().tracker().context(7, 110);
            if id as usize == home {
                assert_eq!(context, vec!["start"]);
            } else {
                assert!(context.is_empty(), "session leaked to replica {id}");
            }
        }
        assert_eq!(r.suggest(7, 1, 110)[0].query, "old::next");
    }

    #[test]
    fn batch_matches_individual_calls_across_replicas() {
        let r = router(4);
        for user in 0..64 {
            r.track(user, "start", 100).unwrap();
        }
        let requests: Vec<SuggestRequest> = (0..64)
            .chain([999]) // never tracked
            .map(|user| SuggestRequest { user, k: 2 })
            .collect();
        let batch = r.suggest_batch(&requests, 150);
        assert_eq!(batch.len(), 65);
        for (request, got) in requests.iter().zip(&batch) {
            assert_eq!(
                *got,
                r.suggest(request.user, request.k, 150),
                "user {}",
                request.user
            );
        }
        assert!(batch[64].is_empty());
    }

    #[test]
    fn fan_out_publish_converges_every_replica() {
        let r = router(3);
        r.track(1, "start", 100).unwrap();
        assert_eq!(r.publish(snapshot("new")), 1);
        let stats = r.stats();
        assert!(stats.is_converged());
        assert_eq!(stats.max_generation(), 1);
        assert_eq!(r.suggest(1, 1, 110)[0].query, "new::next");
    }

    #[test]
    fn per_replica_publish_creates_and_reports_skew() {
        let r = router(3);
        r.publish_to(0, snapshot("new")).unwrap();
        let stats = r.stats();
        assert_eq!(stats.min_generation(), 0);
        assert_eq!(stats.max_generation(), 1);
        assert_eq!(stats.generation_skew(), 1);
        assert!(!stats.is_converged());
    }

    #[test]
    fn quarantine_marks_report_and_publish_clears() {
        let r = router(2);
        r.mark_quarantined(1, "checksum mismatch").unwrap();
        assert!(r.is_quarantined(1).unwrap());
        let stats = r.stats();
        assert_eq!(stats.quarantined(), 1);
        assert_eq!(
            stats.replicas[1].last_error.as_deref(),
            Some("checksum mismatch")
        );
        // A quarantined replica still serves.
        r.track(2, "start", 100).unwrap();
        let home = r.replica_for(2);
        r.mark_quarantined(home, "still serving?").unwrap();
        assert_eq!(r.suggest(2, 1, 110)[0].query, "old::next");
        // Publishing good bytes lifts the quarantine.
        r.publish_to(1, snapshot("new")).unwrap();
        assert!(!r.is_quarantined(1).unwrap());
        r.mark_active(home).unwrap();
        assert_eq!(r.stats().quarantined(), 0);
    }

    #[test]
    fn overload_sheds_per_replica() {
        let r = RouterEngine::new(
            snapshot("old"),
            RouterConfig {
                replicas: 2,
                engine: EngineConfig {
                    max_in_flight: 1,
                    ..EngineConfig::default()
                },
                ..RouterConfig::default()
            },
        );
        // Saturate user 1's home replica only.
        let home = r.replica_for(1);
        let home_engine = r.replica(home).unwrap();
        let _permit = home_engine.admit().unwrap();
        assert_eq!(
            r.try_track_and_suggest(1, "start", 1, 100),
            Err(ServeError::Overloaded { limit: 1 })
        );
        // A user on the *other* replica is unaffected.
        let other_user = (0..u64::MAX)
            .find(|&u| r.replica_for(u) != home)
            .expect("some user maps to the other replica");
        assert!(r.try_track_and_suggest(other_user, "start", 1, 100).is_ok());
        assert_eq!(r.stats().replicas[home].stats.shed, 1);
    }

    #[test]
    fn try_batch_is_all_or_nothing_and_aggregates_report_the_trailing_edge() {
        let r = RouterEngine::new(
            snapshot("old"),
            RouterConfig {
                replicas: 3,
                engine: EngineConfig {
                    max_in_flight: 1,
                    ..EngineConfig::default()
                },
                ..RouterConfig::default()
            },
        );
        for user in 0..24 {
            r.track(user, "start", 100).unwrap();
        }
        let requests: Vec<SuggestRequest> =
            (0..24).map(|user| SuggestRequest { user, k: 1 }).collect();
        let ok = r.try_suggest_batch(&requests, 120).unwrap();
        assert_eq!(ok.len(), 24);
        assert!(ok.iter().all(|s| s[0].query == "old::next"));
        // Saturate one involved replica: the whole batch sheds.
        let home = r.replica_for(requests[0].user);
        let home_engine = r.replica(home).unwrap();
        let _permit = home_engine.admit().unwrap();
        assert!(r.try_suggest_batch(&requests, 130).is_err());

        // Aggregated stats fold counters and report the trailing edge.
        r.publish_to(0, snapshot("new")).unwrap();
        let folded = r.aggregate_stats();
        assert_eq!(folded.publishes, 0, "tier not fully propagated yet");
        assert_eq!(folded.tracks, 24);
        assert_eq!(folded.active_sessions, 24);
        assert_eq!(folded.shed, 1);
        let surface: &dyn ServeSurface = &r;
        assert_eq!(surface.stats().publishes, 0);
        assert_eq!(surface.publish(snapshot("new")), 1);
        assert_eq!(surface.stats().publishes, r.stats().min_generation());
    }

    /// Compile-time audit (mirrors sqp-serve's): the tier is shareable
    /// exactly like a single engine, including type-erased.
    #[test]
    fn router_surface_is_send_sync() {
        fn takes_surface<S: ServeSurface>() {}
        fn takes_send_sync<T: Send + Sync>() {}
        takes_surface::<RouterEngine>();
        takes_send_sync::<RouterEngine>();
        takes_send_sync::<Arc<dyn ServeSurface>>();
    }

    #[test]
    fn eviction_and_residency_aggregate() {
        let r = router(4);
        for user in 0..50 {
            r.track(user, "start", 0).unwrap();
        }
        assert_eq!(r.active_sessions(), 50);
        assert_eq!(r.evict_idle(u64::MAX / 2), 50);
        assert_eq!(r.active_sessions(), 0);
        let total_evictions: u64 = r.stats().replicas.iter().map(|x| x.stats.evictions).sum();
        assert_eq!(total_evictions, 50);
    }

    #[test]
    fn stats_expose_the_tier_shape() {
        let r = router(3);
        let stats = r.stats();
        assert_eq!(stats.replica_ids, vec![0, 1, 2]);
        assert!(stats.draining.is_empty());
        assert_eq!(stats.vnodes, DEFAULT_VNODES);
        assert_eq!(stats.ring_generation, 0);
        assert_eq!(stats.replicas.len(), 3);
        for (at, row) in stats.replicas.iter().enumerate() {
            assert_eq!(row.id as usize, at);
            assert!(!row.draining);
            assert_eq!(row.drain_refused, 0);
        }
    }

    #[test]
    fn join_moves_exactly_the_remapped_users_with_contexts_intact() {
        let r = router(3);
        for user in 0..300u64 {
            r.track(user, "start", 100).unwrap();
        }
        let before: Vec<usize> = (0..300u64).map(|u| r.replica_for(u)).collect();
        let report = r.join_replica(120);
        assert_eq!(report.replica, 3);
        assert_eq!(report.ring_generation, 1);
        assert_eq!(r.replica_ids(), vec![0, 1, 2, 3]);
        let moved: Vec<u64> = (0..300u64).filter(|&u| r.replica_for(u) == 3).collect();
        assert_eq!(report.moved_sessions, moved.len());
        assert!(!moved.is_empty(), "some users must remap to the newcomer");
        // Remap bound: one join moves ≤ 2/N of users (N = new size).
        assert!(moved.len() <= 2 * 300 / 4, "moved {}", moved.len());
        for user in 0..300u64 {
            let now_home = r.replica_for(user);
            if !moved.contains(&user) {
                assert_eq!(now_home, before[user as usize], "non-remapped user moved");
            }
            // Every user — moved or not — keeps an intact context.
            assert_eq!(
                r.suggest(user, 1, 140)[0].query,
                "old::next",
                "user {user} lost their context"
            );
        }
    }

    #[test]
    fn join_seeds_from_the_freshest_replica_and_offsets_generation() {
        let r = router(2);
        r.publish(snapshot("new"));
        r.publish_to(0, snapshot("newer")).unwrap();
        // Tier: replica 0 at gen 2, replica 1 at gen 1.
        let report = r.join_replica(10);
        let stats = r.stats();
        let row = stats
            .replicas
            .iter()
            .find(|row| row.id == report.replica)
            .unwrap();
        assert_eq!(
            row.generation, 2,
            "newcomer joins on the leading edge: {stats:?}"
        );
        assert_eq!(stats.max_generation(), 2);
        assert_eq!(stats.min_generation(), 1);
        // The newcomer serves the freshest vocabulary.
        let user = (0..u64::MAX)
            .find(|&u| r.replica_for(u) == report.replica as usize)
            .unwrap();
        r.track(user, "start", 20).unwrap();
        assert_eq!(r.suggest(user, 1, 30)[0].query, "newer::next");
    }

    #[test]
    fn drain_hands_sessions_off_and_retire_drops_the_slot() {
        let r = router(3);
        for user in 0..200u64 {
            r.track(user, "start", 100).unwrap();
        }
        let victims: Vec<u64> = (0..200u64).filter(|&u| r.replica_for(u) == 1).collect();
        assert!(!victims.is_empty());
        let report = r.begin_drain(1, 120).unwrap();
        assert_eq!(report.replica, 1);
        assert_eq!(report.moved_sessions, victims.len());
        assert_eq!(r.draining_ids(), vec![1]);
        assert!(r.stats().replicas[1].draining);
        // Nothing routes to the draining replica; every session is intact.
        for user in 0..200u64 {
            assert_ne!(r.replica_for(user), 1);
            assert_eq!(
                r.suggest(user, 1, 140)[0].query,
                "old::next",
                "user {user} lost their context in the drain"
            );
        }
        // The draining replica refuses new sessions but serves old ones.
        let engine = r.replica(1).unwrap();
        assert!(engine.is_draining());
        // Retire cannot be skipped past drain.
        assert_eq!(r.retire_replica(0), Err(MembershipError::NotDraining(0)));
        assert_eq!(r.retire_replica(1), Ok(()));
        assert_eq!(r.replica_ids(), vec![0, 2]);
        assert_eq!(r.ring_generation(), 2, "drain + retire = two swaps");
        // Double-retire reports the id as unknown.
        assert_eq!(r.retire_replica(1), Err(MembershipError::UnknownReplica(1)));
    }

    #[test]
    fn remove_without_drain_loses_only_the_remapped_set() {
        let r = router(4);
        for user in 0..400u64 {
            r.track(user, "start", 100).unwrap();
        }
        let lost: Vec<u64> = (0..400u64).filter(|&u| r.replica_for(u) == 2).collect();
        r.remove_replica(2).unwrap();
        assert_eq!(r.replica_ids(), vec![0, 1, 3]);
        for user in 0..400u64 {
            let suggestions = r.suggest(user, 1, 120);
            if lost.contains(&user) {
                assert!(
                    suggestions.is_empty(),
                    "user {user}'s session should be gone"
                );
            } else {
                assert_eq!(
                    suggestions[0].query, "old::next",
                    "unaffected user {user} lost their session"
                );
            }
        }
        // Bound: an undrained kill loses ≤ 2/N of sessions.
        assert!(lost.len() <= 2 * 400 / 4, "lost {}", lost.len());
    }

    #[test]
    fn concurrent_fan_out_and_membership_churn_stay_converged() {
        // The race the control-plane mutex exists to prevent: a fan-out
        // loading the pre-join slot set while the joiner seeds from the
        // pre-publish snapshot would leave a generation-behind newcomer
        // with no roll in flight. With publish serialized against the
        // verbs, every quiescent interleaving converges.
        const PUBLISHES: u64 = 20;
        let r = router(3);
        std::thread::scope(|scope| {
            let publisher = scope.spawn(|| {
                for i in 0..PUBLISHES {
                    r.publish(snapshot(&format!("gen{i}")));
                }
            });
            for _ in 0..6 {
                let id = r.join_replica(0).replica;
                std::thread::yield_now();
                r.begin_drain(id, 0).unwrap();
                r.retire_replica(id).unwrap();
            }
            publisher.join().unwrap();
        });
        let stats = r.stats();
        assert!(
            stats.is_converged(),
            "a joiner fell behind a racing fan-out: {stats:?}"
        );
        assert_eq!(stats.max_generation(), PUBLISHES);
        assert_eq!(stats.replica_ids, vec![0, 1, 2]);
    }

    #[test]
    fn try_variants_are_no_ops_on_a_departed_replica() {
        let r = router(3);
        r.mark_quarantined(2, "before retirement").unwrap();
        r.begin_drain(2, 0).unwrap();
        r.retire_replica(2).unwrap();
        let before = r.stats();
        let gone = Err(MembershipError::UnknownReplica(2));
        assert_eq!(r.publish_to(2, snapshot("new")), gone);
        assert_eq!(r.mark_quarantined(2, "late quarantine"), gone.map(|_| ()));
        assert_eq!(r.mark_active(2), gone.map(|_| ()));
        assert_eq!(r.is_quarantined(2), gone.map(|_| false));
        assert!(r.replica(2).is_none());
        // Nothing changed: no replica was published to or (un)marked.
        let after = r.stats();
        assert_eq!(after.replica_ids, before.replica_ids);
        assert_eq!(after.ring_generation, before.ring_generation);
        for (a, b) in after.replicas.iter().zip(&before.replicas) {
            assert_eq!(
                (a.generation, a.quarantined, &a.last_error),
                (b.generation, b.quarantined, &b.last_error)
            );
        }
        // On a live replica the same verbs act.
        assert_eq!(r.publish_to(0, snapshot("new")), Ok(1));
        assert_eq!(r.mark_quarantined(1, "bad bytes"), Ok(()));
        assert_eq!(r.is_quarantined(1), Ok(true));
        assert_eq!(r.mark_active(1), Ok(()));
        assert_eq!(r.is_quarantined(1), Ok(false));
    }

    #[test]
    fn membership_refuses_the_degenerate_cases() {
        let r = router(1);
        assert_eq!(r.begin_drain(0, 10), Err(MembershipError::LastReplica));
        assert_eq!(r.remove_replica(0), Err(MembershipError::LastReplica));
        assert_eq!(
            r.begin_drain(9, 10),
            Err(MembershipError::UnknownReplica(9))
        );
        assert_eq!(r.remove_replica(9), Err(MembershipError::UnknownReplica(9)));
        // Grow to 2, drain one, and the drained one cannot drain again.
        r.join_replica(10);
        r.begin_drain(0, 20).unwrap();
        assert_eq!(
            r.begin_drain(0, 30),
            Err(MembershipError::AlreadyDraining(0))
        );
        // A draining replica can still be removed abruptly (dead host).
        r.remove_replica(0).unwrap();
        assert_eq!(r.replica_ids(), vec![1]);
        // Ids are never reused: the next join gets a fresh id.
        assert_eq!(r.join_replica(40).replica, 2);
    }
}
