//! Scalable Reliable Multicast (SRM), after Floyd et al. \[4, 5\], as
//! specified in §2 of the CESRM paper (Livadas & Keidar, DSN 2004).
//!
//! SRM is an application-layer reliable multicast protocol atop best-effort
//! IP multicast, with two components:
//!
//! * **Session message exchange** — members periodically multicast session
//!   messages carrying reception state (for loss detection) and timestamps
//!   (for pairwise one-way distance estimation).
//! * **Receiver-based loss recovery** — a receiver that detects a loss
//!   multicasts a *repair request* after a suppression delay drawn from
//!   `[C1·d̂, (C1+C2)·d̂]` (distance to the source); any member holding the
//!   packet answers with a multicast *repair reply* after a delay from
//!   `[D1·d̂, (D1+D2)·d̂]` (distance to the requestor). Hearing someone
//!   else's request backs a scheduled request off to the next round
//!   (exponentially larger interval, at most once per round thanks to a
//!   back-off abstinence period `2^k·C3·d̂`); hearing a reply cancels a
//!   scheduled reply and opens a reply abstinence period `D3·d̂`.
//!
//! The protocol engine lives in [`SrmCore`], which is deliberately *not* a
//! [`netsim::Agent`]: the CESRM crate composes it with an expedited-recovery
//! layer. [`SrmAgent`] is the thin agent wrapper used to simulate plain SRM.
//! [`SourceConfig`]/[`Role`] configure the transmission source, which sends
//! the data stream and participates in recovery as a replier.
//!
//! With the run's `obs::Instruments` installed ([`SrmEndpoints::with_obs`]),
//! the engine emits structured request/reply scheduling, suppression and
//! send events for recovery-provenance tracing (see `docs/TRACING.md`) and
//! counts them (`docs/METRICS.md`).

mod agent;
mod core;
mod endpoints;
mod params;
mod smallmap;
mod state;
mod timers;
mod window;

pub use agent::SrmAgent;
pub use core::SrmCore;
pub use endpoints::SrmEndpoints;
pub use params::SrmParams;
pub use smallmap::{btree_node_bytes, SmallMap};
pub use state::{Role, SourceConfig};
pub use timers::{AdaptiveTimers, FixedTimers, TimerPolicy};
