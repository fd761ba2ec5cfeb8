//! An LMS-style router-assisted reliable multicast baseline, after
//! Papadopoulos et al. (the \[13\] of the CESRM paper).
//!
//! CESRM's §3.3 positions its router-assisted variant against LMS: LMS
//! pre-designates a *replier* per router subtree and stores that choice in
//! the routers. A receiver's request travels up the tree; the first router
//! whose designated replier lies outside the branch the request came from
//! redirects it to that replier; the replier's retransmission is unicast
//! back to that *turning-point* router, which subcasts it downstream. The
//! recovery is therefore local and fast — but the replier state in the
//! routers is brittle: when a designated replier leaves or crashes,
//! requests from its peers keep being forwarded to a dead host and recovery
//! in that subtree stalls until the state is refreshed. CESRM gets the same
//! locality from its caches while *falling back on SRM*, so it keeps
//! recovering through churn (§5).
//!
//! This crate implements the baseline faithfully enough to demonstrate both
//! halves of that comparison:
//!
//! * [`ReplierTable`] — the per-router designated-replier state and the
//!   request routing logic (including escalation past repliers that share
//!   the loss).
//! * [`LmsSource`]/[`LmsReceiver`] — protocol agents: immediate (non
//!   suppressed) unicast requests, subcast replies through the turning
//!   point, bounded retries.
//!
//! Router behaviour is evaluated analytically at the sending host: the
//! request's redirect point and replier are computed from the shared
//! [`ReplierTable`] and the unicast follows exactly the path the
//! hop-by-hop LMS forwarding would take (the redirect router is the LCA of
//! requestor and replier), so the traffic on every link is identical to a
//! hop-by-hop implementation.
//!
//! With the run's `obs::Instruments` installed (`with_obs` on either
//! endpoint), subcast repairs are emitted as structured `rep_sent` events
//! for recovery-provenance tracing (see `docs/TRACING.md`).

mod agent;
mod table;

pub use agent::{LmsConfig, LmsReceiver, LmsSource};
pub use table::ReplierTable;
