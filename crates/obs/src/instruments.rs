//! The one per-run observation handle, [`Instruments`].
//!
//! Everything that watches a simulation — the structured event stream with
//! its consumers (flight recorder, invariant monitors, digest, capturing
//! sink) and the metrics registry — hangs off a single
//! shared inner, built once per run from a [`Setup`] and cloned into the
//! simulator, the recovery log and every protocol agent.

use std::cell::RefCell;
use std::rc::Rc;

use crate::digest::{DigestRecorder, DigestSnapshot};
use crate::event::{Event, Record};
use crate::flight::FlightRecorder;
use crate::log::RecordLog;
use crate::monitor::{MonitorReport, MonitorSet};
use crate::registry::{Counter, MetricsSnapshot, Registry};
use crate::sink::{EventSink, MemorySink};

/// What one run wants observed; hand it to [`Instruments::new`]. The
/// default asks for nothing and yields [`Instruments::off`].
#[derive(Default)]
pub struct Setup {
    /// Capture every record here (drained with [`Instruments::drain`]).
    pub sink: Option<Box<dyn EventSink>>,
    /// Check every record against these invariant monitors.
    pub monitors: Option<MonitorSet>,
    /// Fold every record into this hierarchical digest.
    pub digest: Option<DigestRecorder>,
    /// Ring the most recent records here for violation and panic dumps.
    pub flight: Option<FlightRecorder>,
    /// Collect the counter registry.
    pub metrics: bool,
}

/// The event consumers behind one `RefCell`, fed by [`Inner::feed`].
struct Consumers {
    monitors: Option<MonitorSet>,
    digest: Option<DigestRecorder>,
    sink: Option<Box<dyn EventSink>>,
}

struct Inner {
    /// `None` when the run observes no events (metrics only), so
    /// emit closures are never evaluated.
    events: Option<RefCell<Consumers>>,
    /// In its own cell, not among the consumers: the panic hook reads it
    /// (through [`crate::flight::set_current`]) while a consumer may be
    /// mid-`observe`.
    flight: Option<Rc<RefCell<FlightRecorder>>>,
    registry: Option<RefCell<Registry>>,
}

impl Inner {
    /// Feeds one record to every consumer in the fixed order flight ring →
    /// monitors → violation dump → digest → sink.
    fn feed(&self, events: &RefCell<Consumers>, record: Record) {
        // The flight ring is fed first so a violation flagged on this very
        // record appears in its own dump.
        if let Some(flight) = &self.flight {
            flight.borrow_mut().push(record);
        }
        let consumers = &mut *events.borrow_mut();
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
/// branch, event closures are never evaluated, instruments are no-ops) or
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
        let events = sink.is_some() || monitors.is_some() || digest.is_some() || flight.is_some();
        if !(events || metrics) {
            return Instruments::off();
        }
        Instruments(Some(Rc::new(Inner {
            events: events.then(|| {
                RefCell::new(Consumers {
                    monitors,
                    digest,
                    sink,
                })
            }),
            flight: flight.map(|f| Rc::new(RefCell::new(f))),
            registry: metrics.then(RefCell::default),
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

    fn events(&self) -> Option<(&Inner, &RefCell<Consumers>)> {
        let inner = self.0.as_deref()?;
        Some((inner, inner.events.as_ref()?))
    }

    fn registry(&self) -> Option<&RefCell<Registry>> {
        self.0.as_deref()?.registry.as_ref()
    }

    // -----------------------------------------------------------------
    // The structured event stream
    // -----------------------------------------------------------------

    /// True when events are being captured, monitored, digested or flight
    /// recorded (the closure in [`Instruments::emit`] will be evaluated).
    /// Call sites that gate optional emissions on this must produce events
    /// for every consumer, not just a capturing sink.
    pub fn events_enabled(&self) -> bool {
        self.events().is_some()
    }

    /// Record the event built by `f` at simulation time `t_ns`.
    ///
    /// The closure is only evaluated when some consumer is attached,
    /// keeping disabled call sites to one branch.
    #[inline]
    pub fn emit<F: FnOnce() -> Event>(&self, t_ns: u64, f: F) {
        if let Some((inner, events)) = self.events() {
            inner.feed(events, Record { t_ns, event: f() });
        }
    }

    /// Drain buffered records from the sink (empty when there is none or
    /// it streams instead of buffering).
    pub fn drain(&self) -> RecordLog {
        self.events()
            .and_then(|(_, e)| e.borrow_mut().sink.as_mut().map(|s| s.drain()))
            .unwrap_or_default()
    }

    /// Takes the monitors out of the handle (and every clone of it) and
    /// closes them into a [`MonitorReport`]; `None` when the handle has
    /// none. Call once, after the run completes.
    pub fn finish_monitors(&self) -> Option<MonitorReport> {
        let monitors = self.events()?.1.borrow_mut().monitors.take()?;
        Some(monitors.finish())
    }

    /// Snapshot of the digest recorder; `None` when the handle records no
    /// digest.
    pub fn digest_snapshot(&self) -> Option<DigestSnapshot> {
        let (_, events) = self.events()?;
        let consumers = events.borrow();
        Some(consumers.digest.as_ref()?.snapshot())
    }

    /// The flight recorder's shared cell, for panic-hook registration
    /// ([`crate::flight::set_current`]); `None` when there is none.
    pub fn flight(&self) -> Option<Rc<RefCell<FlightRecorder>>> {
        self.0.as_deref()?.flight.clone()
    }

    // -----------------------------------------------------------------
    // The metrics registry
    // -----------------------------------------------------------------

    fn registered<T: Default>(&self, register: impl FnOnce(&mut Registry) -> T) -> T {
        match self.registry() {
            Some(registry) => register(&mut registry.borrow_mut()),
            None => T::default(),
        }
    }

    /// The counter registered under `name` (created on first use); a no-op
    /// counter when metrics are off.
    pub fn counter(&self, name: &str) -> Counter {
        self.registered(|r| r.counter(name))
    }

    /// Extracts a plain-data snapshot of every registered counter (empty
    /// when metrics are off).
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.registered(|r| r.snapshot())
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

        let c = h.counter("x");
        c.inc();
        assert_eq!(c.get(), 0);
        assert!(h.metrics_snapshot().is_empty());
    }

    #[test]
    fn metrics_only_handle_never_evaluates_event_closures() {
        let h = Instruments::new(Setup {
            metrics: true,
            ..Setup::default()
        });
        assert!(!h.events_enabled());
        h.emit(0, || unreachable!("no event consumer is attached"));
        h.counter("hits").add(3);
        assert_eq!(h.metrics_snapshot().counters["hits"], 3);
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
        h.counter("n").inc();
        h2.counter("n").inc();
        let records = h2.drain();
        assert_eq!(
            records.iter().map(|r| r.t_ns).collect::<Vec<_>>(),
            vec![1_000, 2_000],
            "one sink, in emit order"
        );
        assert!(h.drain().is_empty(), "drain empties the shared sink");
        assert_eq!(h.metrics_snapshot().counters["n"], 2);
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
