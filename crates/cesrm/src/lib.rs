//! Caching-Enhanced Scalable Reliable Multicast (CESRM), after Livadas &
//! Keidar (DSN 2004) — the paper's primary contribution.
//!
//! CESRM augments SRM with a *caching-based expedited recovery scheme*
//! (paper §3) that runs in parallel with SRM's suppression-based recovery:
//!
//! * Every receiver caches the **optimal requestor/replier pair** that
//!   carried out the recovery of each of its recent losses
//!   ([`RecoveryCache`], §3.1). Pairs are ranked by the recovery delay they
//!   afford, `d̂_qs + 2·d̂_rq`.
//! * Upon detecting a new loss, an [`ExpeditionPolicy`] picks the
//!   expeditious pair from the cache ([`MostRecentLoss`] — the paper's
//!   evaluated policy — or [`MostFrequentLoss`]). If the host itself is the
//!   expeditious requestor, it **unicasts** an expedited request to the
//!   expeditious replier after `REORDER-DELAY` (§3.2); the replier
//!   immediately **multicasts** an expedited reply. Neither is delayed for
//!   suppression, so a successful expedited recovery takes roughly one RTT
//!   instead of SRM's 1.5–3.25 RTT (§3.4, [`analysis`]).
//! * When the expedited recovery fails (further loss, or the replier shares
//!   the loss), the loss is still recovered by the unchanged SRM scheme —
//!   CESRM never does worse than SRM by more than the (unicast) expedited
//!   request.
//! * With router assistance ([`CesrmConfig::router_assist`], §3.3),
//!   expedited replies are *subcast* through the cached turning-point
//!   router, confining retransmissions to the subtree that lost the packet.
//!
//! [`CesrmAgent`] is the complete endpoint: an [`srm::SrmCore`] composed
//! with the expedited layer.
//!
//! With the run's `obs::Instruments` installed ([`CesrmAgent::with_obs`]),
//! the expedited layer emits structured cache-hit/miss/update and expedited
//! request/reply events for recovery-provenance tracing (§3 decisions made
//! observable; see `docs/TRACING.md`).

mod agent;
pub mod analysis;
mod cache;
mod group;
mod policy;

pub use agent::{CesrmAgent, CesrmConfig, CesrmEndpoints};
pub use cache::{CacheOutcome, RecoveryCache};
pub use group::{GroupMember, StreamRole};
pub use policy::{ExpeditionPolicy, MostFrequentLoss, MostRecentLoss, RecencyWeighted};
