//! Recovery-latency and transmission-overhead accounting for reliable
//! multicast simulations.
//!
//! The CESRM paper's evaluation (§4.4) reports, per trace and per receiver:
//! average recovery times normalized by the receiver's RTT to the source
//! (Fig. 1–2), request/reply packet counts split by recovery scheme and cast
//! mode (Fig. 3–4), expedited-recovery success rates and link-crossing
//! transmission overhead (Fig. 5). This crate provides the instrumentation
//! that produces those numbers:
//!
//! * [`RecoveryLog`] — written by protocol agents: loss detection and
//!   recovery events per `(receiver, packet)`.
//! * [`ReceiverReport`]/[`per_receiver_reports`] — the per-receiver
//!   normalized-latency aggregation behind Fig. 1 and Fig. 2.
//! * [`OverheadBreakdown`] — the retransmission/control, multicast/unicast
//!   overhead split behind Fig. 5, computed from the link crossings the
//!   simulator counts per packet class and cast (1 cost unit per crossing,
//!   §4.4; [`netsim::EngineTelemetry::crossings`]).
//!
//! The per-node request and reply counts behind Fig. 3–4 need no
//! instrument here: the simulator counts every send
//! ([`netsim::Simulator::sends`]).
//! * [`RecoveryLog`] also forwards its first-win detection/recovery
//!   decisions as structured `obs` events when the run's observation handle
//!   is installed ([`RecoveryLog::set_obs`]) — it is the arbiter that keeps the
//!   provenance stream duplicate-free (see `docs/TRACING.md`).

mod histogram;
mod overhead;
mod recovery;
mod report;

pub use histogram::LatencyHistogram;
pub use overhead::OverheadBreakdown;
pub use recovery::{RecoveryLog, RecoveryRecord, SharedRecoveryLog};
pub use report::{
    expedited_timeline, per_receiver_reports, rtt_to_source, ReceiverReport, TimelineBin,
};
