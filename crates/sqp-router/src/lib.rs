//! Replicated, routed serving tier for sequential query prediction.
//!
//! One [`ServeEngine`](sqp_serve::ServeEngine) tops out at a single
//! process-wide tracker and snapshot cell; the ROADMAP's "millions of
//! users" target wants N of them behind one front door. This crate adds
//! that tier:
//!
//! * [`HashRing`] — deterministic consistent hashing of user ids onto
//!   replica ids: sticky per user, ~1/N remapping under resize, no
//!   `RandomState` anywhere (routing survives restarts and agrees across
//!   processes);
//! * [`RouterEngine`] — owns N independently locked replicas, implements
//!   the single engine's [`ServeSurface`](sqp_serve::ServeSurface) so
//!   callers promote transparently, and adds per-replica publication
//!   ([`RouterEngine::publish_to`]) with quarantine marks — the primitives
//!   rolling upgrades are built from. Every by-id verb answers
//!   [`MembershipError::UnknownReplica`] for an id that has left the tier;
//!   none panics;
//! * [`RouterStats`] — per-replica generation/health/shed introspection
//!   plus the generation envelope (min/max/skew) an operator watches
//!   during a roll.
//!
//! Storage-aware publication (fan-out and rolling publish *from disk*,
//! with per-replica validation and quarantine-on-failure) lives in
//! `sqp-store`'s `rollout` module, which builds on the primitives here.

#![deny(missing_docs)]

mod ring;
mod router;

pub use ring::{HashRing, WouldEmptyRing, DEFAULT_VNODES};
pub use router::{
    HandoffReport, MembershipError, ReplicaStats, RouterConfig, RouterEngine, RouterStats,
};
