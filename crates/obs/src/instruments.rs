//! The one per-run observation handle, [`Instruments`].
//!
//! Everything that watches a simulation — the structured event stream with
//! its consumers (flight recorder, invariant monitors, digest, capturing
//! sink, counter tally) — hangs off a single shared inner, built once per
//! run from a [`Setup`] and cloned into the simulator, the recovery log
//! and every protocol agent.

use std::cell::RefCell;
use std::rc::Rc;

use crate::digest::{DigestRecorder, DigestSnapshot};
use crate::event::{Event, Record};
use crate::flight::FlightRecorder;
use crate::log::RecordLog;
use crate::monitor::{MonitorReport, MonitorSet};
use crate::sink::{EventSink, MemorySink};
use crate::tally::{EventTally, MetricsSnapshot};

/// What one run wants observed; hand it to [`Instruments::new`]. The
/// default asks for nothing and yields [`Instruments::off`].
#[derive(Default)]
pub struct Setup {
    /// Capture every record here (drained with [`Instruments::drain`]).
    pub sink: Option<Box<dyn EventSink>>,
    /// Check every record against these invariant monitors.
    pub monitors: Option<MonitorSet>,
    /// Fold every record into this per-(window, node) digest.
    pub digest: Option<DigestRecorder>,
    /// Ring the most recent records here for violation and panic dumps.
    pub flight: Option<FlightRecorder>,
    /// Count every record by kind, for [`Instruments::metrics_snapshot`].
    pub metrics: bool,
}

/// The event consumers behind one `RefCell`, fed by [`Inner::feed`].
struct Consumers {
    tally: Option<EventTally>,
    monitors: Option<MonitorSet>,
    digest: Option<DigestRecorder>,
    sink: Option<Box<dyn EventSink>>,
}

struct Inner {
    consumers: RefCell<Consumers>,
    /// A consumer other than the tally is attached: see
    /// [`Instruments::events_enabled`].
    stream: bool,
    /// In its own cell, not among the consumers: the panic hook reads it
    /// (through [`crate::flight::set_current`]) while a consumer may be
    /// mid-`observe`.
    flight: Option<Rc<RefCell<FlightRecorder>>>,
}

impl Inner {
    /// Feeds one record to every consumer in the fixed order flight ring →
    /// tally → monitors → violation dump → digest → sink.
    fn feed(&self, record: Record) {
        // The flight ring is fed first so a violation flagged on this very
        // record appears in its own dump.
        if let Some(flight) = &self.flight {
            flight.borrow_mut().push(record);
        }
        let consumers = &mut *self.consumers.borrow_mut();
        if let Some(tally) = &mut consumers.tally {
            tally.observe(&record.event);
        }
        if let Some(monitors) = &mut consumers.monitors {
            let before = monitors.violations().len();
            monitors.observe(&record);
            if monitors.violations().len() > before {
                if let Some(flight) = &self.flight {
                    flight
                        .borrow_mut()
                        .dump_stderr("invariant violation", false);
                }
            }
        }
        if let Some(digest) = &mut consumers.digest {
            digest.observe(&record);
        }
        if let Some(sink) = &mut consumers.sink {
            sink.record(record);
        }
    }
}

/// The cheap, cloneable, pointer-wide observation handle threaded through
/// one simulation.
///
/// A handle is either *off* (the default: every touch is a single `Option`
/// branch and event closures are never evaluated) or
/// shares one inner among every clone handed to the simulator, the
/// recovery log and the protocol agents of a single run. Observation never
/// touches the rng, the event-queue order or any protocol state, so an
/// observed run's measurements are byte-identical to an unobserved one.
///
/// Handles are deliberately `!Send` (`Rc`-based) and **per-simulation owned
/// state**, never a global: each run in the parallel suite runner (and each
/// shard of a scale run) builds its own on its own worker thread and ships
/// back only plain-data snapshots, so observation can never introduce
/// cross-run sharing or data races.
#[derive(Clone, Default)]
pub struct Instruments(Option<Rc<Inner>>);

impl std::fmt::Debug for Instruments {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Stable output regardless of contents so that `Debug`-based
        // determinism comparisons are unaffected by observation state.
        f.write_str(if self.0.is_some() {
            "Instruments(on)"
        } else {
            "Instruments(off)"
        })
    }
}

impl Instruments {
    /// The disabled handle.
    pub fn off() -> Self {
        Instruments(None)
    }

    /// Builds the run's handle; [`Instruments::off`] when `setup` asks for
    /// nothing.
    pub fn new(setup: Setup) -> Self {
        let Setup {
            sink,
            monitors,
            digest,
            flight,
            metrics,
        } = setup;
        let stream = sink.is_some() || monitors.is_some() || digest.is_some() || flight.is_some();
        if !(stream || metrics) {
            return Instruments::off();
        }
        Instruments(Some(Rc::new(Inner {
            consumers: RefCell::new(Consumers {
                tally: metrics.then(EventTally::default),
                monitors,
                digest,
                sink,
            }),
            stream,
            flight: flight.map(|f| Rc::new(RefCell::new(f))),
        })))
    }

    /// A handle capturing every record into `sink` and nothing else.
    pub fn capture(sink: Box<dyn EventSink>) -> Self {
        Instruments::new(Setup {
            sink: Some(sink),
            ..Setup::default()
        })
    }

    /// A handle capturing every record into an unbounded [`MemorySink`].
    pub fn memory() -> Self {
        Instruments::capture(Box::new(MemorySink::new()))
    }

    fn consumers(&self) -> Option<&RefCell<Consumers>> {
        Some(&self.0.as_deref()?.consumers)
    }

    // -----------------------------------------------------------------
    // The structured event stream
    // -----------------------------------------------------------------

    /// True when events are being captured, monitored, digested or flight
    /// recorded. Call sites that gate optional emissions on this (netsim's
    /// `delivered`) must produce events for every such consumer, not just
    /// a capturing sink. A metrics-only handle answers `false`: no counter
    /// reads an optional kind, so the tally alone does not pay for it.
    pub fn events_enabled(&self) -> bool {
        self.0.as_deref().is_some_and(|inner| inner.stream)
    }

    /// Record the event built by `f` at simulation time `t_ns`.
    ///
    /// The closure is only evaluated when some consumer is attached (the
    /// tally of [`Setup::metrics`] included), keeping disabled call sites
    /// to one branch.
    #[inline]
    pub fn emit<F: FnOnce() -> Event>(&self, t_ns: u64, f: F) {
        if let Some(inner) = self.0.as_deref() {
            inner.feed(Record { t_ns, event: f() });
        }
    }

    /// Drain buffered records from the sink (empty when there is none or
    /// it streams instead of buffering).
    pub fn drain(&self) -> RecordLog {
        self.consumers()
            .and_then(|c| c.borrow_mut().sink.as_mut().map(|s| s.drain()))
            .unwrap_or_default()
    }

    /// Takes the monitors out of the handle (and every clone of it) and
    /// closes them into a [`MonitorReport`]; `None` when the handle has
    /// none. Call once, after the run completes.
    pub fn finish_monitors(&self) -> Option<MonitorReport> {
        let monitors = self.consumers()?.borrow_mut().monitors.take()?;
        Some(monitors.finish())
    }

    /// Snapshot of the digest recorder; `None` when the handle records no
    /// digest.
    pub fn digest_snapshot(&self) -> Option<DigestSnapshot> {
        Some(self.consumers()?.borrow().digest.as_ref()?.snapshot())
    }

    /// The flight recorder's shared cell, for panic-hook registration
    /// ([`crate::flight::set_current`]); `None` when there is none.
    pub fn flight(&self) -> Option<Rc<RefCell<FlightRecorder>>> {
        self.0.as_deref()?.flight.clone()
    }

    /// The tally rendered into named counters ([`crate::tally::COUNTERS`]);
    /// empty when metrics are off.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.consumers()
            .and_then(|c| c.borrow().tally.as_ref().map(EventTally::snapshot))
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn loss(node: u32, seq: u64) -> Event {
        Event::LossDetected { node, seq }
    }

    #[test]
    fn handle_is_one_pointer_and_empty_setup_is_off() {
        assert_eq!(
            std::mem::size_of::<Instruments>(),
            std::mem::size_of::<usize>()
        );
        assert_eq!(
            format!("{:?}", Instruments::new(Setup::default())),
            "Instruments(off)"
        );
        assert_eq!(format!("{:?}", Instruments::memory()), "Instruments(on)");
    }

    #[test]
    fn off_handle_is_inert() {
        let h = Instruments::off();
        let mut evaluated = false;
        h.emit(0, || {
            evaluated = true;
            loss(0, 0)
        });
        assert!(!evaluated && !h.events_enabled());
        assert!(h.drain().is_empty());
        assert!(h.finish_monitors().is_none());
        assert!(h.digest_snapshot().is_none());
        assert!(h.flight().is_none());
        assert!(h.metrics_snapshot().is_empty());
    }

    #[test]
    fn metrics_only_handle_counts_events_without_enabling_the_stream() {
        let h = Instruments::new(Setup {
            metrics: true,
            ..Setup::default()
        });
        assert!(!h.events_enabled(), "optional kinds stay off");
        for seq in 0..3 {
            h.emit(seq, || loss(2, seq));
        }
        let counters = h.metrics_snapshot().counters;
        assert_eq!(counters["recovery.detected"], 3);
        assert_eq!(counters["recovery.recovered"], 0);
        assert!(h.drain().is_empty(), "counted, not stored");
    }

    #[test]
    fn clones_share_one_inner() {
        let h = Instruments::new(Setup {
            sink: Some(Box::new(MemorySink::new())),
            monitors: Some(MonitorSet::standard()),
            metrics: true,
            ..Setup::default()
        });
        let h2 = h.clone();
        h.emit(1_000, || loss(2, 7));
        h2.emit(2_000, || Event::RecoveryCompleted {
            node: 2,
            seq: 7,
            expedited: false,
        });
        let records = h2.drain();
        assert_eq!(
            records.iter().map(|r| r.t_ns).collect::<Vec<_>>(),
            vec![1_000, 2_000],
            "one sink, in emit order"
        );
        assert!(h.drain().is_empty(), "drain empties the shared sink");
        let counters = h.metrics_snapshot().counters;
        assert_eq!(
            (
                counters["recovery.detected"],
                counters["recovery.recovered"]
            ),
            (1, 1),
            "one tally"
        );
        let report = h2.finish_monitors().expect("monitors were attached");
        assert_eq!(report.stats.events, 2);
        assert_eq!(report.stats.recovered, 1);
        assert!(report.is_healthy(), "{:?}", report.violations);
    }

    #[test]
    fn any_single_consumer_enables_the_event_stream() {
        // netsim gates delivery events on `events_enabled`.
        let monitored = Instruments::new(Setup {
            monitors: Some(MonitorSet::standard()),
            ..Setup::default()
        });
        assert!(monitored.events_enabled());
        monitored.emit(1_000, || loss(2, 7));
        assert!(monitored.drain().is_empty(), "no sink: nothing is stored");
        let report = monitored.finish_monitors().expect("monitors attached");
        assert_eq!((report.stats.events, report.stats.losses), (1, 1));
        // The unrecovered loss is a liveness violation with its timeline.
        assert_eq!(report.violations.len(), 1);

        let digested = Instruments::new(Setup {
            digest: Some(DigestRecorder::default()),
            ..Setup::default()
        });
        assert!(digested.events_enabled());
        digested.emit(1_000, || loss(2, 7));
        digested.emit(2_000, || loss(3, 8));
        assert_eq!(digested.digest_snapshot().expect("attached").count(), 2);

        let ringed = Instruments::new(Setup {
            flight: Some(FlightRecorder::new(2, "instruments test run")),
            ..Setup::default()
        });
        assert!(ringed.events_enabled());
        for i in 0..5 {
            ringed.emit(i, || loss(1, i));
        }
        let cell = ringed.flight().expect("flight was attached");
        assert_eq!(cell.borrow().seen(), 5);
        assert_eq!(
            cell.borrow()
                .tail(64)
                .iter()
                .map(|r| r.t_ns)
                .collect::<Vec<_>>(),
            vec![3, 4]
        );
    }
}
