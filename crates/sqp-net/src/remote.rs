//! [`RemoteEngine`]: a resilient cross-process serving tier.
//!
//! `RemoteEngine` implements [`ServeSurface`] (and [`AdminSurface`]) over
//! one or more [`NetClient`] endpoints, so a *remote* server tier is a
//! drop-in replacement for an in-process [`ServeEngine`](sqp_serve::ServeEngine)
//! anywhere the workspace is generic over the surface trait — the
//! `serve_loop` stress harness, benchmarks, operators polling stats.
//! Unlike a bare `NetClient`, it is resilient by construction:
//!
//! * **Deadlines** — every operation carries a wall-clock deadline threaded
//!   through the [`Clock`] seam; connects, reads, and writes are all
//!   bounded by the remaining budget, so a black-holed endpoint costs at
//!   most the deadline, never a hung worker.
//! * **Retries with backoff** — failed attempts retry with capped
//!   exponential backoff and deterministic per-operation jitter, but only
//!   for idempotent operations (`SUGGEST`, `SUGGEST_BATCH`, `STATS`,
//!   `PING`, `EVICT`). `TRACK`/`TRACK_SUGGEST` mutate session state, and a
//!   transport failure after the request bytes left the socket is
//!   ambiguous — the server may have executed it — so those are **never
//!   re-sent**; the caller gets a typed degraded outcome instead of a
//!   silent double-track.
//! * **Per-endpoint circuit breakers** — the shared
//!   [`sqp_common::breaker::Breaker`] (same state machine as the
//!   supervised retrain loop) trips a flapping endpoint out of rotation;
//!   after a cooldown one half-open probe decides between recovery and
//!   re-tripping.
//! * **Failover** — when the home endpoint (chosen by user hash, so
//!   session affinity holds while healthy) is open or failing, attempts
//!   move to the next healthy endpoint.
//! * **Typed degradation** — when every endpoint is down the outcome is
//!   [`RemoteOutcome::Degraded`] with a [`DegradedReason`]; through the
//!   `ServeSurface` mapping that becomes [`ServeError::Unavailable`] plus
//!   a counter, so a caller never mistakes an outage for a session with
//!   nothing to suggest.
//!
//! Connections are pooled per endpoint (warmup at construction, reconnect
//! on demand, capped checkin), so steady state pays one connect per pooled
//! slot, not per request. Checkout prefers the connection the calling
//! thread checked in last, so a caller stays paired with one server
//! connection thread.
//!
//! # Live endpoint membership
//!
//! The endpoint set is held in a [`Swap`] — the same publication cell the
//! serve tier uses for model snapshots — so it can change **at runtime,
//! under traffic**, with one pointer swap and zero locks on the serving
//! path. Every operation loads the snapshot once and runs its whole
//! deadline/retry/failover scan against that consistent view:
//!
//! * [`add_endpoint`](RemoteEngine::add_endpoint) builds a new endpoint
//!   (best-effort pool warmup, fresh breaker) and swaps in a superset
//!   vector; the very next operation can route to it.
//! * [`retire_endpoint`](RemoteEngine::retire_endpoint) swaps the
//!   endpoint *out* first — no new operation will scan it — then waits
//!   out its in-flight operations (bounded by one operation's worst case,
//!   `deadline + attempt_timeout`), then drains its connection pool so
//!   the client side initiates every TCP close. Retiring the last
//!   endpoint is refused: an empty tier cannot degrade gracefully, it can
//!   only error.
//!
//! Operations that raced the swap and still hold the old snapshot may
//! make one final attempt against a retired endpoint; that attempt either
//! completes (the wait covers it) or fails and the normal failover path
//! absorbs it. A straggler that begins only after the wait sampled zero
//! cannot park a connection either: checkin on a retired endpoint drops
//! the connection (a client-side close) instead of pooling it, so no
//! live connection outlasts the straggler's own bounded lifetime.
//! Membership changes serialize on a control-plane mutex that serving
//! never touches.

use crate::admin::AdminSurface;
use crate::client::{BatchAnswer, NetClient, NetError, ServeAnswer};
use crate::wire::{BatchEntry, RollSummary, WireStats};
use sqp_common::breaker::{Admission, Backoff, Breaker, BreakerConfig, BreakerStats};
use sqp_common::clock::{Clock, RealClock};
use sqp_common::hash::FxHasher;
use sqp_serve::{
    EngineStats, ModelSnapshot, ServeError, ServeSurface, SuggestRequest, Suggestion, Swap,
    TrackOutcome,
};
use sqp_store::{save_snapshot, SnapshotMeta};
use std::fmt;
use std::hash::Hasher;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::{self, ThreadId};
use std::time::Duration;

/// One remote endpoint: its public serve port and (optionally) its admin
/// port for snapshot publication.
#[derive(Clone, Copy, Debug)]
pub struct EndpointConfig {
    /// The endpoint's serve listener.
    pub serve_addr: SocketAddr,
    /// The endpoint's admin listener; `None` opts this endpoint out of
    /// admin fan-out ([`AdminSurface`] / [`ServeSurface::publish`]).
    pub admin_addr: Option<SocketAddr>,
}

impl EndpointConfig {
    /// A serve-only endpoint (no admin port).
    pub fn serve_only(serve_addr: SocketAddr) -> Self {
        Self {
            serve_addr,
            admin_addr: None,
        }
    }
}

/// Resilience parameters of a [`RemoteEngine`].
#[derive(Clone, Debug)]
pub struct RemoteConfig {
    /// Wall-clock budget for one operation, covering all retries,
    /// failovers, and backoff sleeps. No caller blocks meaningfully past
    /// this (worst case: deadline + one attempt timeout granted just
    /// before expiry).
    pub deadline: Duration,
    /// Read/write bound for a single attempt on one connection (clamped
    /// to the remaining deadline).
    pub attempt_timeout: Duration,
    /// Bound for establishing one fresh connection (clamped to the
    /// remaining deadline).
    pub connect_timeout: Duration,
    /// Attempts per operation (min 1) across all endpoints before the
    /// operation degrades.
    pub max_attempts: u32,
    /// Backoff before the second attempt; doubles per retry.
    pub backoff_initial: Duration,
    /// Backoff ceiling.
    pub backoff_cap: Duration,
    /// Fraction in `[0, 1]` by which backoff delays are jittered downward
    /// (deterministically, from `seed`).
    pub backoff_jitter: f64,
    /// Per-endpoint circuit breaker (trip threshold + cooldown).
    pub breaker: BreakerConfig,
    /// Connections opened per endpoint at construction (best-effort).
    pub pool_warmup: usize,
    /// Idle connections kept per endpoint; extras close on checkin.
    pub pool_cap: usize,
    /// Seed for backoff jitter streams (replayable chaos runs fix this).
    pub seed: u64,
    /// Where [`ServeSurface::publish`] spools snapshots before admin
    /// fan-out. The path must be readable by the *servers* (shared or
    /// local filesystem); `None` makes `publish` a counted no-op.
    pub spool_dir: Option<PathBuf>,
}

impl Default for RemoteConfig {
    fn default() -> Self {
        Self {
            deadline: Duration::from_secs(2),
            attempt_timeout: Duration::from_millis(250),
            connect_timeout: Duration::from_millis(250),
            max_attempts: 4,
            backoff_initial: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(200),
            backoff_jitter: 0.5,
            breaker: BreakerConfig {
                threshold: 3,
                cooldown: Duration::from_millis(500),
            },
            pool_warmup: 1,
            pool_cap: 4,
            seed: 0,
            spool_dir: None,
        }
    }
}

/// Why an operation returned no answer. The distinction matters to the
/// caller's bookkeeping: `NotRetryable` means the request *may have
/// executed* on the server; the other two mean it certainly did not.
#[derive(Debug)]
pub enum DegradedReason {
    /// Every endpoint's breaker refused admission — the whole tier is
    /// resting after repeated failures. Fast-fail: no connection was
    /// attempted.
    AllBreakersOpen,
    /// The deadline or attempt budget ran out before any endpoint
    /// answered.
    DeadlineExhausted {
        /// The failure that ended the last attempt, if one was made.
        last_error: Option<NetError>,
    },
    /// A non-idempotent operation failed after its bytes may have reached
    /// the server; re-sending could double-apply it, so the operation
    /// degrades instead.
    NotRetryable {
        /// The failure on the attempt that was not retried.
        error: NetError,
    },
}

impl fmt::Display for DegradedReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DegradedReason::AllBreakersOpen => write!(f, "all endpoint breakers open"),
            DegradedReason::DeadlineExhausted {
                last_error: Some(e),
            } => {
                write!(f, "deadline exhausted (last error: {e})")
            }
            DegradedReason::DeadlineExhausted { last_error: None } => {
                write!(f, "deadline exhausted")
            }
            DegradedReason::NotRetryable { error } => {
                write!(f, "not retryable after possible send: {error}")
            }
        }
    }
}

/// Typed outcome of one remote operation: the three-way split the soak
/// harness counts (`answered + shed + degraded == sent`).
#[derive(Debug)]
pub enum RemoteOutcome<T> {
    /// An endpoint answered.
    Answered(T),
    /// An endpoint answered with a typed shed (server queue or engine
    /// admission budget — `limit` 0 means queue).
    Shed {
        /// The exhausted budget, or 0 for a server-queue shed.
        limit: u64,
    },
    /// No endpoint answered; serving degrades instead of erroring.
    Degraded(DegradedReason),
}

impl<T> RemoteOutcome<T> {
    /// True for [`RemoteOutcome::Answered`].
    pub fn is_answered(&self) -> bool {
        matches!(self, RemoteOutcome::Answered(_))
    }
    /// True for [`RemoteOutcome::Degraded`].
    pub fn is_degraded(&self) -> bool {
        matches!(self, RemoteOutcome::Degraded(_))
    }

    /// The [`ServeSurface`] view: a shed is [`ServeError::Overloaded`], a
    /// degradation [`ServeError::Unavailable`] (its reason stays with the
    /// `remote_*` calls).
    fn into_serve_result(self) -> Result<T, ServeError> {
        match self {
            RemoteOutcome::Answered(v) => Ok(v),
            RemoteOutcome::Shed { limit } => Err(ServeError::Overloaded {
                limit: limit as usize,
            }),
            RemoteOutcome::Degraded(_) => Err(ServeError::Unavailable),
        }
    }
}

/// Point-in-time client-side view of one endpoint.
#[derive(Clone, Debug)]
pub struct EndpointStats {
    /// The endpoint's serve address.
    pub serve_addr: SocketAddr,
    /// Breaker position and counters.
    pub breaker: BreakerStats,
    /// Attempts this endpoint answered (including typed sheds).
    pub answered: u64,
    /// Attempts that timed out (connect or I/O deadline).
    pub timeouts: u64,
    /// Connects actively refused.
    pub refused: u64,
    /// Connections that dropped mid-request or mid-frame.
    pub disconnects: u64,
    /// Other failed attempts (wire decode, unexpected reply, other I/O).
    pub other_errors: u64,
    /// Idle pooled connections right now.
    pub pooled: usize,
    /// Operations executing against this endpoint right now — what
    /// retirement waits to reach zero.
    pub in_flight: u64,
}

/// Client-side counters of a [`RemoteEngine`] — what an operator reads to
/// answer "is this tier healthy, and if not, which endpoint is the
/// problem?".
#[derive(Clone, Debug)]
pub struct RemoteStats {
    /// Operations that degraded (no endpoint answered).
    pub degraded: u64,
    /// Attempts served by a non-home endpoint.
    pub failovers: u64,
    /// Second-and-later attempts across all operations.
    pub retries: u64,
    /// Fresh connections established after construction-time warmup.
    pub reconnects: u64,
    /// Typed sheds observed (mapped to [`ServeError::Overloaded`] on the
    /// [`ServeSurface`] calls).
    pub sheds: u64,
    /// `publish` calls dropped because no spool directory is configured.
    pub publishes_skipped: u64,
    /// Per-endpoint detail.
    pub endpoints: Vec<EndpointStats>,
}

#[derive(Default)]
struct EndpointCounters {
    answered: AtomicU64,
    timeouts: AtomicU64,
    refused: AtomicU64,
    disconnects: AtomicU64,
    other_errors: AtomicU64,
}

/// Idle pooled connections, each with the thread that last checked it in
/// (`None` for a warm-up connection nobody has used yet).
type Pool = Vec<(Option<ThreadId>, NetClient)>;

struct Endpoint {
    serve_addr: SocketAddr,
    admin_addr: Option<SocketAddr>,
    pool: Mutex<Pool>,
    breaker: Breaker,
    counters: EndpointCounters,
    /// Operations currently executing against this endpoint (between
    /// checkout and checkin/drop). Retirement waits for this to reach
    /// zero before draining the pool.
    in_flight: AtomicU64,
    /// Set by [`RemoteEngine::retire_endpoint`] right after the swap.
    /// The in-flight wait can miss an operation that loaded the old
    /// snapshot but had not reached `begin_op` when the wait sampled
    /// zero; this flag makes such a straggler's checkin *drop* its
    /// connection instead of pooling it, so every connection to a
    /// retired endpoint is still client-closed within one operation's
    /// bounded lifetime rather than parked in a pool nothing drains.
    retired: AtomicBool,
}

impl Endpoint {
    /// A fresh endpoint with a closed breaker and a best-effort warm
    /// pool (endpoints that are down simply start with an empty pool).
    fn connect(cfg: EndpointConfig, remote: &RemoteConfig) -> Self {
        let ep = Self {
            serve_addr: cfg.serve_addr,
            admin_addr: cfg.admin_addr,
            pool: Mutex::new(Vec::new()),
            breaker: Breaker::new(remote.breaker),
            counters: EndpointCounters::default(),
            in_flight: AtomicU64::new(0),
            retired: AtomicBool::new(false),
        };
        {
            let mut pool = ep.lock_pool();
            for _ in 0..remote.pool_warmup.min(remote.pool_cap) {
                match NetClient::connect_timeout(ep.serve_addr, remote.connect_timeout) {
                    Ok(client) => pool.push((None, client)),
                    Err(_) => break,
                }
            }
        }
        ep
    }

    fn lock_pool(&self) -> MutexGuard<'_, Pool> {
        // A poisoned pool lock only guards plain connections; recover it.
        self.pool.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn count_error(&self, err: &NetError) {
        let counter = match err {
            NetError::Timeout(_) => &self.counters.timeouts,
            NetError::Refused(_) => &self.counters.refused,
            NetError::Disconnected => &self.counters.disconnects,
            _ => &self.counters.other_errors,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    fn begin_op(&self) -> InFlightOp<'_> {
        self.in_flight.fetch_add(1, Ordering::AcqRel);
        InFlightOp(&self.in_flight)
    }
}

/// Scope guard for [`Endpoint::in_flight`]: decrement on every exit path,
/// including panics, so a wedged op can never pin retirement forever.
struct InFlightOp<'a>(&'a AtomicU64);

impl Drop for InFlightOp<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Why a runtime endpoint-set change was refused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EndpointSetError {
    /// [`add_endpoint`](RemoteEngine::add_endpoint) of a serve address
    /// already in the set — endpoints are keyed by serve address.
    AlreadyPresent(SocketAddr),
    /// [`retire_endpoint`](RemoteEngine::retire_endpoint) of an address
    /// not in the set.
    Unknown(SocketAddr),
    /// Retiring the only endpoint: a tier with zero endpoints cannot
    /// degrade, it can only error, so the last one is never removable.
    LastEndpoint,
}

impl fmt::Display for EndpointSetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EndpointSetError::AlreadyPresent(addr) => {
                write!(f, "endpoint {addr} is already in the set")
            }
            EndpointSetError::Unknown(addr) => write!(f, "endpoint {addr} is not in the set"),
            EndpointSetError::LastEndpoint => write!(f, "cannot retire the last endpoint"),
        }
    }
}

impl std::error::Error for EndpointSetError {}

/// Idempotency of one wire operation — decides retry policy.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Retryable {
    /// Safe to re-send after any failure (`SUGGEST`, `STATS`, `PING`, …).
    Yes,
    /// Only safe to retry failures that prove the request never left
    /// (`TRACK`, `TRACK_SUGGEST`).
    ConnectOnly,
}

/// A resilient [`ServeSurface`] over remote [`NetServer`](crate::NetServer)
/// endpoints. See the [module docs](self) for the resilience model.
pub struct RemoteEngine {
    cfg: RemoteConfig,
    clock: Arc<dyn Clock>,
    /// The live endpoint set: swapped as one immutable vector, loaded
    /// once per operation. The [`Swap`] generation counts membership
    /// changes. Serving never locks this; membership verbs serialize on
    /// `membership` and publish through one pointer swap.
    endpoints: Swap<Vec<Arc<Endpoint>>>,
    /// Serializes [`add_endpoint`](Self::add_endpoint) /
    /// [`retire_endpoint`](Self::retire_endpoint); never touched by the
    /// serving path.
    membership: Mutex<()>,
    /// Monotonic operation counter: round-robin cursor for user-less
    /// operations and jitter-stream selector for backoff.
    op_seq: AtomicU64,
    spool_seq: AtomicU64,
    degraded: AtomicU64,
    failovers: AtomicU64,
    retries: AtomicU64,
    reconnects: AtomicU64,
    sheds: AtomicU64,
    publishes_skipped: AtomicU64,
}

impl RemoteEngine {
    /// A remote engine over `endpoints` on the production clock, with
    /// best-effort pool warmup ([`RemoteConfig::pool_warmup`] connections
    /// per endpoint; endpoints that are down at construction simply start
    /// with empty pools).
    pub fn connect(endpoints: Vec<EndpointConfig>, cfg: RemoteConfig) -> Self {
        Self::with_clock(endpoints, cfg, Arc::new(RealClock))
    }

    /// [`connect`](Self::connect) with an explicit clock seam — what
    /// deterministic harnesses use to make deadlines and cooldowns
    /// virtual.
    pub fn with_clock(
        endpoints: Vec<EndpointConfig>,
        cfg: RemoteConfig,
        clock: Arc<dyn Clock>,
    ) -> Self {
        assert!(!endpoints.is_empty(), "a RemoteEngine needs >= 1 endpoint");
        let endpoints: Vec<Arc<Endpoint>> = endpoints
            .into_iter()
            .map(|e| Arc::new(Endpoint::connect(e, &cfg)))
            .collect();
        Self {
            cfg,
            clock,
            endpoints: Swap::new(Arc::new(endpoints)),
            membership: Mutex::new(()),
            op_seq: AtomicU64::new(0),
            spool_seq: AtomicU64::new(0),
            degraded: AtomicU64::new(0),
            failovers: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            reconnects: AtomicU64::new(0),
            sheds: AtomicU64::new(0),
            publishes_skipped: AtomicU64::new(0),
        }
    }

    /// The current endpoint snapshot: one load, then a consistent view
    /// for the whole operation regardless of concurrent membership
    /// changes.
    fn snapshot(&self) -> Arc<Vec<Arc<Endpoint>>> {
        self.endpoints.load()
    }

    /// Endpoints in the live set right now.
    pub fn endpoint_count(&self) -> usize {
        self.snapshot().len()
    }

    /// Serve addresses of the live set, in scan order.
    pub fn endpoint_addrs(&self) -> Vec<SocketAddr> {
        self.snapshot().iter().map(|ep| ep.serve_addr).collect()
    }

    /// Membership generation: 0 at construction, +1 per successful
    /// [`add_endpoint`](Self::add_endpoint) or
    /// [`retire_endpoint`](Self::retire_endpoint).
    pub fn endpoint_generation(&self) -> u64 {
        self.endpoints.generation()
    }

    /// Add a new endpoint to the live set, under traffic.
    ///
    /// The endpoint gets a fresh (closed) breaker and a best-effort warm
    /// pool before it is swapped in, so its first routed operation pays
    /// no connect in the common case. Returns the new membership
    /// generation. Refuses a serve address already in the set — the set
    /// is keyed by serve address.
    pub fn add_endpoint(&self, endpoint: EndpointConfig) -> Result<u64, EndpointSetError> {
        let _guard = self.lock_membership();
        let current = self.snapshot();
        if current
            .iter()
            .any(|ep| ep.serve_addr == endpoint.serve_addr)
        {
            return Err(EndpointSetError::AlreadyPresent(endpoint.serve_addr));
        }
        // Warm up outside any serving path; only the control plane waits.
        let fresh = Arc::new(Endpoint::connect(endpoint, &self.cfg));
        let mut next = current.as_ref().clone();
        next.push(fresh);
        Ok(self.endpoints.store(Arc::new(next)))
    }

    /// Retire an endpoint from the live set, under traffic.
    ///
    /// Four steps, in an order that bounds what traffic can observe:
    /// the endpoint is swapped out **first** (no new operation scans
    /// it), then marked retired (any later checkin on it drops the
    /// connection instead of pooling it), then its in-flight operations
    /// are waited out (bounded by one operation's worst case,
    /// `deadline + attempt_timeout`, through the [`Clock`] seam), then
    /// its connection pool is drained. The client therefore initiates
    /// every TCP close: pooled connections close in the drain, and a
    /// straggler that raced the swap — old snapshot loaded, `begin_op`
    /// not yet reached when the wait sampled zero — closes its own
    /// connection at checkin, within its bounded lifetime. Refuses to
    /// retire the last endpoint. Returns the new membership generation.
    pub fn retire_endpoint(&self, serve_addr: SocketAddr) -> Result<u64, EndpointSetError> {
        let _guard = self.lock_membership();
        let current = self.snapshot();
        let Some(at) = current.iter().position(|ep| ep.serve_addr == serve_addr) else {
            return Err(EndpointSetError::Unknown(serve_addr));
        };
        if current.len() == 1 {
            return Err(EndpointSetError::LastEndpoint);
        }
        let victim = Arc::clone(&current[at]);
        let mut next = current.as_ref().clone();
        next.remove(at);
        let generation = self.endpoints.store(Arc::new(next));
        // From here every checkin on the victim drops its connection
        // instead of pooling it — the backstop for an operation that
        // loaded the old snapshot but had not yet reached `begin_op`
        // when the wait below sampled zero.
        victim.retired.store(true, Ordering::Release);

        // Wait out operations that already hold the old snapshot. One
        // operation lives at most deadline + one attempt timeout, so a
        // bounded poll cannot hang the control plane on a wedged socket.
        let bound = self
            .cfg
            .deadline
            .saturating_add(self.cfg.attempt_timeout)
            .as_millis() as u64;
        let start = self.clock.now_millis();
        while victim.in_flight.load(Ordering::Acquire) > 0
            && self.clock.now_millis().saturating_sub(start) < bound
        {
            self.clock.sleep(Duration::from_millis(2));
        }
        victim.lock_pool().clear();
        Ok(generation)
    }

    fn lock_membership(&self) -> MutexGuard<'_, ()> {
        // The membership lock guards no data, only ordering; recover it.
        self.membership
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Client-side counters plus per-endpoint breaker and pool detail.
    pub fn remote_stats(&self) -> RemoteStats {
        RemoteStats {
            degraded: self.degraded.load(Ordering::Relaxed),
            failovers: self.failovers.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            reconnects: self.reconnects.load(Ordering::Relaxed),
            sheds: self.sheds.load(Ordering::Relaxed),
            publishes_skipped: self.publishes_skipped.load(Ordering::Relaxed),
            endpoints: self
                .snapshot()
                .iter()
                .map(|ep| EndpointStats {
                    serve_addr: ep.serve_addr,
                    breaker: ep.breaker.stats(),
                    answered: ep.counters.answered.load(Ordering::Relaxed),
                    timeouts: ep.counters.timeouts.load(Ordering::Relaxed),
                    refused: ep.counters.refused.load(Ordering::Relaxed),
                    disconnects: ep.counters.disconnects.load(Ordering::Relaxed),
                    other_errors: ep.counters.other_errors.load(Ordering::Relaxed),
                    pooled: ep.lock_pool().len(),
                    in_flight: ep.in_flight.load(Ordering::Acquire),
                })
                .collect(),
        }
    }

    /// Breaker position/counters of endpoint `index` in the current
    /// snapshot, or `None` past the end — what tests assert
    /// open→half-open→closed transitions on.
    pub fn endpoint_breaker(&self, index: usize) -> Option<BreakerStats> {
        self.snapshot().get(index).map(|ep| ep.breaker.stats())
    }

    /// Close every pooled connection on every endpoint.
    ///
    /// Operationally this is the **drain** step: dropping the connections
    /// here makes the *client* side initiate the TCP close, so the
    /// server's sockets leave `ESTABLISHED` without the server holding
    /// `TIME_WAIT` — which is exactly what lets a drained server restart
    /// on the same port immediately.
    pub fn drain_pools(&self) {
        for ep in self.snapshot().iter() {
            ep.lock_pool().clear();
        }
    }

    fn home_index(&self, user: Option<u64>, n: usize) -> usize {
        match user {
            Some(u) => {
                let mut h = FxHasher::default();
                h.write_u64(u);
                (h.finish() % n as u64) as usize
            }
            None => (self.op_seq.load(Ordering::Relaxed) % n as u64) as usize,
        }
    }

    fn checkout(&self, ep: &Endpoint, budget: Duration) -> Result<NetClient, NetError> {
        // Prefer the connection this thread checked in last, else the most
        // recent one. The server serves each connection on its own thread,
        // so a caller that keeps its connection keeps talking to one server
        // thread instead of waking a different one (often on another core)
        // on every call.
        {
            let me = thread::current().id();
            let mut pool = ep.lock_pool();
            let mine = pool.iter().rposition(|(user, _)| *user == Some(me));
            if let Some(at) = mine.or(pool.len().checked_sub(1)) {
                return Ok(pool.remove(at).1);
            }
        }
        let timeout = self.cfg.connect_timeout.min(budget);
        let client = NetClient::connect_timeout(ep.serve_addr, timeout)?;
        self.reconnects.fetch_add(1, Ordering::Relaxed);
        Ok(client)
    }

    fn checkin(&self, ep: &Endpoint, client: NetClient) {
        let pool = &mut *ep.lock_pool();
        // Checked under the pool lock: retire sets the flag *before* its
        // final pool drain, so a checkin that acquires the lock after the
        // drain necessarily observes the flag and drops (client-closes)
        // the connection, while one that acquires it before is cleared by
        // the drain. No interleaving re-pools a retired connection.
        if ep.retired.load(Ordering::Acquire) {
            return;
        }
        if pool.len() < self.cfg.pool_cap {
            pool.push((Some(thread::current().id()), client));
        }
    }

    /// The resilience core: run `op` against the healthiest admissible
    /// endpoint, with deadline, retry/backoff, breaker accounting, and
    /// failover. See the module docs for the policy.
    fn call<T>(
        &self,
        user: Option<u64>,
        retryable: Retryable,
        mut op: impl FnMut(&mut NetClient) -> Result<T, NetError>,
    ) -> RemoteOutcome<T> {
        let seq = self.op_seq.fetch_add(1, Ordering::Relaxed);
        // One snapshot for the whole operation: every attempt, breaker
        // check, and failover scan sees the same membership, even while
        // add/retire swap the live set underneath.
        let endpoints = self.snapshot();
        let home = self.home_index(user, endpoints.len());
        let n = endpoints.len();
        let deadline_at = self
            .clock
            .now_millis()
            .saturating_add(self.cfg.deadline.as_millis() as u64);
        let mut backoff = Backoff::with_jitter(
            self.cfg.backoff_initial,
            self.cfg.backoff_cap,
            self.cfg.backoff_jitter,
            self.cfg.seed ^ seq,
        );
        let max_attempts = self.cfg.max_attempts.max(1);
        let mut shift = 0usize; // scan origin advances past failing endpoints
        let mut last_error: Option<NetError> = None;

        for attempt in 0..max_attempts {
            let now = self.clock.now_millis();
            if now >= deadline_at {
                break;
            }
            if attempt > 0 {
                self.retries.fetch_add(1, Ordering::Relaxed);
            }

            // First breaker-admitted endpoint, scanning from home + shift.
            let mut admitted = None;
            for i in 0..n {
                let idx = (home + shift + i) % n;
                match endpoints[idx].breaker.admit(now) {
                    Admission::Allowed | Admission::Probe => {
                        admitted = Some(idx);
                        break;
                    }
                    Admission::Refused { .. } => continue,
                }
            }
            let Some(idx) = admitted else {
                self.degraded.fetch_add(1, Ordering::Relaxed);
                return RemoteOutcome::Degraded(DegradedReason::AllBreakersOpen);
            };
            let ep = &endpoints[idx];
            if idx != home {
                self.failovers.fetch_add(1, Ordering::Relaxed);
            }
            let _op = ep.begin_op();

            let remaining = Duration::from_millis(deadline_at - now);
            match self.checkout(ep, remaining) {
                Err(e) => {
                    // The request never left: safe to retry for any op.
                    ep.count_error(&e);
                    ep.breaker.record_failure(self.clock.now_millis());
                    last_error = Some(e);
                }
                Ok(mut client) => {
                    let attempt_budget = self.cfg.attempt_timeout.min(remaining);
                    let _ = client.set_io_timeout(Some(attempt_budget));
                    match op(&mut client) {
                        Ok(v) => {
                            ep.counters.answered.fetch_add(1, Ordering::Relaxed);
                            ep.breaker.record_success();
                            self.checkin(ep, client);
                            return RemoteOutcome::Answered(v);
                        }
                        Err(e @ NetError::Remote { .. }) => {
                            // The server answered a typed error: transport
                            // and endpoint are healthy, the request is
                            // just wrong — retrying cannot help.
                            ep.counters.answered.fetch_add(1, Ordering::Relaxed);
                            ep.breaker.record_success();
                            self.checkin(ep, client);
                            self.degraded.fetch_add(1, Ordering::Relaxed);
                            return RemoteOutcome::Degraded(DegradedReason::NotRetryable {
                                error: e,
                            });
                        }
                        Err(e) => {
                            // The connection is suspect (timed out,
                            // dropped, desynchronized): never pool it.
                            drop(client);
                            ep.count_error(&e);
                            ep.breaker.record_failure(self.clock.now_millis());
                            if retryable == Retryable::ConnectOnly {
                                // The bytes may have reached the server;
                                // re-sending could double-apply.
                                self.degraded.fetch_add(1, Ordering::Relaxed);
                                return RemoteOutcome::Degraded(DegradedReason::NotRetryable {
                                    error: e,
                                });
                            }
                            last_error = Some(e);
                        }
                    }
                }
            }

            // Prefer a different endpoint on the next attempt.
            shift += 1;
            if attempt + 1 < max_attempts {
                let now = self.clock.now_millis();
                if now >= deadline_at {
                    break;
                }
                let nap = backoff
                    .next_delay()
                    .min(Duration::from_millis(deadline_at - now));
                self.clock.sleep(nap);
            }
        }

        self.degraded.fetch_add(1, Ordering::Relaxed);
        RemoteOutcome::Degraded(DegradedReason::DeadlineExhausted { last_error })
    }

    fn note_shed(&self) {
        self.sheds.fetch_add(1, Ordering::Relaxed);
    }

    /// `TRACK_SUGGEST` with the full typed outcome (never re-sent).
    pub fn remote_track_and_suggest(
        &self,
        user: u64,
        query: &str,
        k: usize,
        now: u64,
    ) -> RemoteOutcome<Vec<Suggestion>> {
        let out = self.call(Some(user), Retryable::ConnectOnly, |c| {
            c.track_and_suggest(user, query, k, now)
        });
        self.map_serve_answer(out)
    }

    /// `SUGGEST` with the full typed outcome (idempotent: retried).
    pub fn remote_suggest(&self, user: u64, k: usize, now: u64) -> RemoteOutcome<Vec<Suggestion>> {
        let out = self.call(Some(user), Retryable::Yes, |c| c.suggest(user, k, now));
        self.map_serve_answer(out)
    }

    /// `SUGGEST_BATCH` with the full typed outcome (idempotent: retried).
    pub fn remote_suggest_batch(
        &self,
        requests: &[SuggestRequest],
        now: u64,
    ) -> RemoteOutcome<Vec<Vec<Suggestion>>> {
        let entries: Vec<BatchEntry> = requests
            .iter()
            .map(|r| BatchEntry {
                user: r.user,
                k: r.k,
            })
            .collect();
        let first_user = requests.first().map(|r| r.user);
        let out = self.call(first_user, Retryable::Yes, |c| {
            c.suggest_batch(&entries, now)
        });
        match out {
            RemoteOutcome::Answered(BatchAnswer::Lists(lists)) => RemoteOutcome::Answered(lists),
            RemoteOutcome::Answered(BatchAnswer::Overloaded { limit }) => {
                self.note_shed();
                RemoteOutcome::Shed { limit }
            }
            RemoteOutcome::Shed { limit } => RemoteOutcome::Shed { limit },
            RemoteOutcome::Degraded(reason) => RemoteOutcome::Degraded(reason),
        }
    }

    /// `PING` the tier (idempotent: retried, fails over). The soak's
    /// liveness probe.
    pub fn remote_ping(&self) -> RemoteOutcome<()> {
        self.call(None, Retryable::Yes, |c| c.ping())
    }

    fn map_serve_answer(&self, out: RemoteOutcome<ServeAnswer>) -> RemoteOutcome<Vec<Suggestion>> {
        match out {
            RemoteOutcome::Answered(ServeAnswer::Suggestions(s)) => RemoteOutcome::Answered(s),
            RemoteOutcome::Answered(ServeAnswer::Overloaded { limit }) => {
                self.note_shed();
                RemoteOutcome::Shed { limit }
            }
            RemoteOutcome::Shed { limit } => RemoteOutcome::Shed { limit },
            RemoteOutcome::Degraded(reason) => RemoteOutcome::Degraded(reason),
        }
    }

    /// One bounded attempt of `op` against every endpoint whose breaker
    /// admits it (no retries — fan-out operations are best-effort per
    /// endpoint).
    fn for_each_endpoint<T>(
        &self,
        mut op: impl FnMut(&mut NetClient) -> Result<T, NetError>,
    ) -> Vec<Option<T>> {
        self.snapshot()
            .iter()
            .map(|ep| {
                let now = self.clock.now_millis();
                match ep.breaker.admit(now) {
                    Admission::Refused { .. } => return None,
                    Admission::Allowed | Admission::Probe => {}
                }
                let _op = ep.begin_op();
                let mut client = match self.checkout(ep, self.cfg.attempt_timeout) {
                    Ok(c) => c,
                    Err(e) => {
                        ep.count_error(&e);
                        ep.breaker.record_failure(self.clock.now_millis());
                        return None;
                    }
                };
                let _ = client.set_io_timeout(Some(self.cfg.attempt_timeout));
                match op(&mut client) {
                    Ok(v) => {
                        ep.counters.answered.fetch_add(1, Ordering::Relaxed);
                        ep.breaker.record_success();
                        self.checkin(ep, client);
                        Some(v)
                    }
                    Err(e) => {
                        ep.count_error(&e);
                        ep.breaker.record_failure(self.clock.now_millis());
                        None
                    }
                }
            })
            .collect()
    }

    /// Aggregate wire stats across answering endpoints: counters sum,
    /// gauges sum, generation is the minimum (fully-propagated, matching
    /// the `ServeSurface` contract; `publishes` is summed like the other
    /// counters). `None` when no endpoint answered.
    pub fn remote_wire_stats(&self) -> Option<WireStats> {
        let answers: Vec<WireStats> = self
            .for_each_endpoint(|c| c.stats())
            .into_iter()
            .flatten()
            .collect();
        if answers.is_empty() {
            return None;
        }
        let mut agg = WireStats {
            generation: u64::MAX,
            ..Default::default()
        };
        for s in &answers {
            agg.generation = agg.generation.min(s.generation);
            agg.tracks += s.tracks;
            agg.suggests += s.suggests;
            agg.publishes += s.publishes;
            agg.shed += s.shed;
            agg.evictions += s.evictions;
            agg.active_sessions += s.active_sessions;
        }
        Some(agg)
    }

    fn admin_fan_out<T>(
        &self,
        mut op: impl FnMut(&mut NetClient) -> Result<T, NetError>,
    ) -> Vec<(SocketAddr, Result<T, String>)> {
        self.snapshot()
            .iter()
            .filter_map(|ep| ep.admin_addr.map(|admin| (ep.serve_addr, admin)))
            .map(|(serve, admin)| {
                let result = NetClient::connect_timeout(admin, self.cfg.connect_timeout)
                    .map_err(NetError::from)
                    .and_then(|mut client| {
                        let _ = client.set_io_timeout(Some(self.cfg.deadline));
                        op(&mut client)
                    })
                    .map_err(|e| e.to_string());
                (serve, result)
            })
            .collect()
    }
}

impl ServeSurface for RemoteEngine {
    /// `TRACK`, never re-sent (see the module docs). A draining replica's
    /// refusal arrives as the wire ack `{new_session: false, context_len:
    /// 0}` (WIRE.md) and becomes [`ServeError::Draining`].
    fn track(&self, user: u64, query: &str, now: u64) -> Result<TrackOutcome, ServeError> {
        let ack = self
            .call(Some(user), Retryable::ConnectOnly, |c| {
                c.track(user, query, now)
            })
            .into_serve_result()?;
        if ack.context_len == 0 {
            return Err(ServeError::Draining);
        }
        Ok(TrackOutcome {
            new_session: ack.new_session,
            context_len: ack.context_len,
        })
    }

    fn try_suggest(&self, user: u64, k: usize, now: u64) -> Result<Vec<Suggestion>, ServeError> {
        self.remote_suggest(user, k, now).into_serve_result()
    }

    fn try_track_and_suggest(
        &self,
        user: u64,
        query: &str,
        k: usize,
        now: u64,
    ) -> Result<Vec<Suggestion>, ServeError> {
        self.remote_track_and_suggest(user, query, k, now)
            .into_serve_result()
    }

    fn try_suggest_batch(
        &self,
        requests: &[SuggestRequest],
        now: u64,
    ) -> Result<Vec<Vec<Suggestion>>, ServeError> {
        self.remote_suggest_batch(requests, now).into_serve_result()
    }

    fn evict_idle(&self, now: u64) -> usize {
        self.for_each_endpoint(|c| c.evict_idle(now))
            .into_iter()
            .flatten()
            .sum::<u64>() as usize
    }

    fn publish(&self, snapshot: Arc<ModelSnapshot>) -> u64 {
        let Some(dir) = self.cfg.spool_dir.clone() else {
            // Nowhere the servers could load from: counted no-op.
            self.publishes_skipped.fetch_add(1, Ordering::Relaxed);
            return self.stats().publishes;
        };
        let seq = self.spool_seq.fetch_add(1, Ordering::Relaxed) + 1;
        let path = dir.join(format!("remote-spool-{seq:06}.sqps"));
        let meta = SnapshotMeta::describe(&snapshot, seq, 0);
        if std::fs::create_dir_all(&dir).is_err() || save_snapshot(&path, &snapshot, &meta).is_err()
        {
            self.publishes_skipped.fetch_add(1, Ordering::Relaxed);
            return self.stats().publishes;
        }
        self.admin_publish(&path)
            .unwrap_or_else(|_| self.stats().publishes)
    }

    /// Counters and gauges summed across the answering endpoints;
    /// `publishes` is their minimum generation, the fully-propagated
    /// trailing edge.
    fn stats(&self) -> EngineStats {
        let wire = self.remote_wire_stats().unwrap_or_default();
        EngineStats {
            tracks: wire.tracks,
            suggests: wire.suggests,
            publishes: wire.generation,
            shed: wire.shed,
            evictions: wire.evictions,
            active_sessions: wire.active_sessions,
        }
    }
}

impl AdminSurface for RemoteEngine {
    fn admin_publish(&self, path: &std::path::Path) -> Result<u64, String> {
        let path_str = path.to_string_lossy().into_owned();
        let results = self.admin_fan_out(|c| c.publish(&path_str));
        if results.is_empty() {
            return Err("no endpoint has an admin address".to_string());
        }
        let mut min_generation = u64::MAX;
        let mut failures = Vec::new();
        for (addr, result) in results {
            match result {
                Ok(generation) => min_generation = min_generation.min(generation),
                Err(e) => failures.push(format!("{addr}: {e}")),
            }
        }
        if failures.is_empty() {
            Ok(min_generation)
        } else {
            Err(failures.join("; "))
        }
    }

    fn admin_rolling_publish(&self, path: &std::path::Path, abort_on_failure: bool) -> RollSummary {
        let path_str = path.to_string_lossy().into_owned();
        let mut total = RollSummary::default();
        let admins: Vec<(SocketAddr, SocketAddr)> = self
            .snapshot()
            .iter()
            .filter_map(|ep| ep.admin_addr.map(|admin| (ep.serve_addr, admin)))
            .collect();
        for (i, (_, admin)) in admins.iter().enumerate() {
            if total.aborted {
                // Count every replica behind the not-yet-rolled endpoints
                // as skipped, mirroring the in-process roll report.
                total.skipped += admins.len() as u64 - i as u64;
                break;
            }
            let result = NetClient::connect_timeout(*admin, self.cfg.connect_timeout)
                .map_err(NetError::from)
                .and_then(|mut client| {
                    let _ = client.set_io_timeout(Some(self.cfg.deadline));
                    client.rolling_publish(&path_str, abort_on_failure)
                });
            match result {
                Ok(summary) => {
                    total.upgraded += summary.upgraded;
                    total.failed += summary.failed;
                    total.skipped += summary.skipped;
                    if summary.aborted || (abort_on_failure && summary.failed > 0) {
                        total.aborted = true;
                    }
                }
                Err(_) => {
                    total.failed += 1;
                    if abort_on_failure {
                        total.aborted = true;
                    }
                }
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn checkout_prefers_the_connection_this_thread_checked_in() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let engine = RemoteEngine::connect(
            vec![EndpointConfig::serve_only(listener.local_addr().unwrap())],
            RemoteConfig {
                pool_warmup: 0,
                ..RemoteConfig::default()
            },
        );
        let endpoints = engine.snapshot();
        let ep = &endpoints[0];
        let budget = Duration::from_millis(200);

        let mine = engine.checkout(ep, budget).unwrap();
        let theirs = engine.checkout(ep, budget).unwrap();
        engine.checkin(ep, mine);
        let other = thread::scope(|s| {
            s.spawn(|| {
                engine.checkin(ep, theirs);
                thread::current().id()
            })
            .join()
            .unwrap()
        });

        // The other thread's connection is the most recent, yet this
        // thread gets its own back.
        let _mine = engine.checkout(ep, budget).unwrap();
        let pool = ep.lock_pool();
        assert_eq!(pool.len(), 1);
        assert_eq!(
            pool[0].0,
            Some(other),
            "the other thread's connection stays pooled"
        );
    }

    /// The retire-vs-straggler race, white-box: an operation that loaded
    /// the old endpoint snapshot before the swap but only checked a
    /// connection out after retire's in-flight wait and pool drain must
    /// not leave that connection pooled on the retired endpoint — checkin
    /// drops it, so the client still initiates the close within the
    /// straggler's own lifetime.
    #[test]
    fn checkin_on_a_retired_endpoint_drops_instead_of_pooling() {
        // A live listener so connects succeed; it never has to speak.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let engine = RemoteEngine::connect(
            vec![EndpointConfig::serve_only(addr)],
            RemoteConfig {
                pool_warmup: 0,
                ..RemoteConfig::default()
            },
        );
        let endpoints = engine.snapshot();
        let ep = &endpoints[0];

        let client = engine.checkout(ep, Duration::from_millis(200)).unwrap();
        engine.checkin(ep, client);
        assert_eq!(ep.lock_pool().len(), 1, "a live endpoint pools checkins");

        // The retire discipline on the victim: flag first, then drain.
        ep.retired.store(true, Ordering::Release);
        ep.lock_pool().clear();

        let straggler = engine.checkout(ep, Duration::from_millis(200)).unwrap();
        engine.checkin(ep, straggler);
        assert_eq!(
            ep.lock_pool().len(),
            0,
            "a retired endpoint must never re-pool a connection"
        );
    }
}
