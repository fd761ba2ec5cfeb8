//! Structured recovery-provenance tracing for the CESRM reproduction.
//!
//! The paper's headline claims (Figures 3–5 of Livadas & Keidar, DSN 2004)
//! are about *per-loss* behaviour: which losses were recovered by the
//! expedited path, which fell back to SRM's suppression-based recovery, and
//! where the latency went. End-of-run aggregates (the `metrics` crate)
//! cannot answer those questions when a reenactment diverges from the
//! paper, so this crate provides a packet-level structured event layer in
//! the spirit of the NS2 traces that made the original SRM analyses
//! possible:
//!
//! * [`Event`] — a compact, scalar-only event vocabulary covering the whole
//!   recovery lifecycle: link drops and deliveries (`netsim`), loss
//!   detection and recovery completion (`metrics`), request/reply
//!   scheduling and suppression (`srm`), cache consults and expedited
//!   request/reply traffic (`cesrm`). Every variant is documented in
//!   `docs/TRACING.md` together with the JSONL wire format. One field walk
//!   per variant, [`Event::fields`], is that wire form: the JSONL writer,
//!   the digest hash and the packed [`RecordLog`] all encode from it.
//! * [`Instruments`] — the one cheap, cloneable, pointer-wide handle
//!   threaded through one simulation, built once per run from a [`Setup`].
//!   Every emitted event feeds the run's consumers in a fixed order (flight
//!   recorder → tally → monitors → digest → sink). A handle is
//!   **per-simulation owned state**, never a global: the parallel suite
//!   runner builds one per worker-local run, so observation is race-free
//!   when on and the disabled handle ([`Instruments::off`]) is a single
//!   branch per call site — runs with it off are byte-for-byte identical to
//!   uninstrumented builds.
//! * [`EventSink`] — where captured events go: [`MemorySink`] keeps every
//!   record, packed about 7 bytes each in a [`RecordLog`], for the
//!   reducers and the JSONL writer ([`to_json_line`]).
//! * [`provenance`] — the reducer that joins raw events into per-loss
//!   [`RecoveryTimeline`]s (loss → detection → first request → repair),
//!   classified [`RecoveryPath::Expedited`] vs [`RecoveryPath::Fallback`];
//!   available in streaming form as [`TimelineBuilder`].
//! * [`monitor`] — online invariant monitors ([`MonitorSet`]): six
//!   streaming checkers of the paper's protocol invariants (liveness,
//!   orphan repairs, suppression health, cache coherence, conservation,
//!   monotone causality) plus repair-storm and latency-outlier anomaly
//!   detection, fed at emit time ([`Setup::monitors`]) and reported as a
//!   [`MonitorReport`] (catalogue in `docs/MONITORS.md`).
//! * [`digest`] and [`flight`] — the divergence-triage pair: a
//!   digest of the event stream per (time window, node) leaf
//!   ([`DigestRecorder`]) and a ring of the most recent events dumped on
//!   the first invariant violation or panic ([`FlightRecorder`]); see
//!   `docs/DEBUGGING.md`.
//! * [`tally`] — the counters: a per-kind count of the emitted records
//!   ([`EventTally`], on under [`Setup::metrics`]), rendered through the
//!   one counter → event table ([`tally::COUNTERS`]) into mergeable
//!   [`MetricsSnapshot`]s for the run report (`docs/METRICS.md`). The
//!   monitors keep their per-kind totals in the same type.
//! * [`value`] — a serde-free JSON document model ([`JsonValue`]) used by
//!   the baseline comparator to read reports back, and [`lock`] — the
//!   schema locks that pin each report's key paths by rendering it.
//!
//! This crate is dependency-free by design (node ids are `u32`, sequence
//! numbers `u64`, timestamps nanoseconds since simulation start) so every
//! layer of the stack can emit into it without dependency cycles.
//!
//! # Examples
//!
//! ```
//! use obs::{provenance, Event, Instruments};
//!
//! let obs = Instruments::memory();
//! // Protocol code emits through the handle; the closure is never
//! // evaluated when no event consumer is attached.
//! obs.emit(5_000, || Event::LossDetected { node: 2, seq: 7 });
//! obs.emit(90_000, || Event::RecoveryCompleted {
//!     node: 2,
//!     seq: 7,
//!     expedited: true,
//! });
//! let log = obs.drain();
//! assert_eq!(log.len(), 2);
//! let timelines = provenance::reduce(&log);
//! assert_eq!(timelines.len(), 1);
//! assert_eq!(timelines[0].latency_ns(), Some(85_000));
//! ```

#![warn(missing_docs)]

pub mod digest;
mod event;
pub mod flight;
mod fxhash;
mod instruments;
mod json;
pub mod lock;
mod log;
pub mod monitor;
pub mod provenance;
mod sink;
pub mod tally;
pub mod value;

pub use digest::{DigestRecorder, DigestSnapshot, LeafDiff, LeafDigest, DEFAULT_WINDOW_NS};
pub use event::{Cast, Event, Field, PacketClass, Record};
pub use flight::{FlightRecorder, DEFAULT_CAPACITY as FLIGHT_CAPACITY, DUMP_TAIL};
pub use instruments::{Instruments, Setup};
pub use json::to_json_line;
pub use log::{RecordIter, RecordLog};
pub use monitor::{
    Anomaly, AnomalyKind, Invariant, MonitorConfig, MonitorReport, MonitorSet, MonitorStats,
    Violation,
};
pub use provenance::{RecoveryPath, RecoveryTimeline, TimelineBuilder};
pub use sink::{EventSink, MemorySink};
pub use tally::{EventTally, MetricsSnapshot};
pub use value::JsonValue;
