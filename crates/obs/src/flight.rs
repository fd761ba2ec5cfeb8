//! The always-on flight recorder: a fixed-size ring of the most recent
//! trace events, dumped with provenance context when something goes wrong.
//!
//! A [`FlightRecorder`] rides the run's [`crate::Instruments`]
//! ([`crate::Setup::flight`]) and keeps the last `capacity`
//! emitted [`Record`]s in a preallocated ring — no allocation in steady
//! state, a copy of a 40-byte scalar record per event. Its tail is dumped
//! to stderr:
//!
//! * on the run's **first invariant violation** (the emitting
//!   [`crate::Instruments`] triggers the dump when a monitor flags the
//!   record just fed to it);
//! * on **panic**, via [`install_panic_hook`] — each worker thread
//!   registers its current run's recorder ([`set_current`]) so a crash
//!   mid-suite prints the last ≤64 events with simulation time, node and
//!   sequence number before the process exits;
//! * on **digest mismatch**, by `reproduce diff` when it replays the
//!   divergent window (`docs/DEBUGGING.md`).
//!
//! Recorders are per-run owned state like every other observability
//! attachment; the thread-local [`set_current`] registration exists only
//! so the process-global panic hook can find the panicking thread's
//! recorder.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;
use std::sync::Once;

use crate::event::Record;

/// How many tail events a triggered dump prints.
pub const DUMP_TAIL: usize = 64;

/// Default ring capacity: enough context around a violation without
/// holding more than ~10 KiB per run.
pub const DEFAULT_CAPACITY: usize = 256;

/// Fixed-size ring of the most recent trace events plus the provenance
/// context (run label) a dump needs to be interpretable on its own.
#[derive(Clone, Debug)]
pub struct FlightRecorder {
    buf: Vec<Record>,
    capacity: usize,
    head: usize,
    seen: u64,
    context: String,
    dumped: bool,
}

impl FlightRecorder {
    /// A recorder keeping the last `capacity` records (clamped to ≥ 1),
    /// labelled with a human-readable run context such as
    /// `"trace 4 WRN950919 / SRM, seed 20040628"`.
    pub fn new(capacity: usize, context: impl Into<String>) -> Self {
        let capacity = capacity.max(1);
        FlightRecorder {
            buf: Vec::with_capacity(capacity),
            capacity,
            head: 0,
            seen: 0,
            context: context.into(),
            dumped: false,
        }
    }

    /// Total records ever pushed (including those evicted).
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Appends one record, evicting the oldest when full.
    #[inline]
    pub fn push(&mut self, record: Record) {
        self.seen += 1;
        if self.buf.len() < self.capacity {
            self.buf.push(record);
        } else {
            self.buf[self.head] = record;
            self.head = (self.head + 1) % self.capacity;
        }
    }

    /// The newest `limit` records, oldest first.
    pub fn tail(&self, limit: usize) -> Vec<Record> {
        let mut ordered = Vec::with_capacity(self.buf.len());
        ordered.extend_from_slice(&self.buf[self.head..]);
        ordered.extend_from_slice(&self.buf[..self.head]);
        let skip = ordered.len().saturating_sub(limit);
        ordered.split_off(skip)
    }

    /// Renders the tail as the human-readable dump block.
    pub fn render(&self, reason: &str, limit: usize) -> String {
        let tail = self.tail(limit);
        let mut out = String::new();
        let _ = writeln!(
            out,
            "=== flight recorder: {} ({reason}) ===",
            if self.context.is_empty() {
                "unlabelled run"
            } else {
                &self.context
            }
        );
        let _ = writeln!(out, "  last {} of {} trace events:", tail.len(), self.seen);
        for r in &tail {
            let _ = writeln!(out, "  {r}");
        }
        let _ = writeln!(out, "=== end flight recorder ===");
        out
    }

    /// Dumps the tail to stderr, at most once per recorder (a repair storm
    /// tripping a monitor on every event must not flood the log). `force`
    /// dumps even if a dump already happened.
    pub fn dump_stderr(&mut self, reason: &str, force: bool) {
        if self.dumped && !force {
            return;
        }
        self.dumped = true;
        eprint!("{}", self.render(reason, DUMP_TAIL));
    }
}

thread_local! {
    /// The panicking thread's recorder, when a run registered one.
    static CURRENT: RefCell<Option<Rc<RefCell<FlightRecorder>>>> = const { RefCell::new(None) };
}

/// Registers `recorder` as this thread's current flight recorder, so a
/// panic anywhere under the run dumps its tail. Pass the same shared cell
/// the run's [`crate::Instruments`] feeds. Call [`clear_current`] when the
/// run finishes.
pub fn set_current(recorder: Rc<RefCell<FlightRecorder>>) {
    CURRENT.with(|c| *c.borrow_mut() = Some(recorder));
}

/// Unregisters this thread's current flight recorder.
pub fn clear_current() {
    CURRENT.with(|c| *c.borrow_mut() = None);
}

/// Installs the process-wide panic hook (idempotent): on panic, the
/// panicking thread's registered recorder dumps its last
/// ≤ [`DUMP_TAIL`] events to stderr, then the previous hook runs (so the
/// standard panic message and backtrace are preserved).
pub fn install_panic_hook() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            // try_borrow everywhere: if the panic unwound out of recorder
            // code itself, skip the dump rather than aborting on a double
            // borrow.
            let _ = CURRENT.try_with(|c| {
                if let Ok(slot) = c.try_borrow() {
                    if let Some(rec) = slot.as_ref() {
                        if let Ok(mut rec) = rec.try_borrow_mut() {
                            rec.dump_stderr("panic", true);
                        }
                    }
                }
            });
            previous(info);
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;

    fn rec(t_ns: u64, seq: u64) -> Record {
        Record {
            t_ns,
            event: Event::LossDetected { node: 3, seq },
        }
    }

    #[test]
    fn ring_keeps_newest_and_counts_everything_seen() {
        let mut fr = FlightRecorder::new(4, "test run");
        for i in 0..10 {
            fr.push(rec(i, i));
        }
        assert_eq!(fr.seen(), 10);
        let tail = fr.tail(64);
        assert_eq!(
            tail.iter().map(|r| r.t_ns).collect::<Vec<_>>(),
            vec![6, 7, 8, 9]
        );
        assert_eq!(fr.tail(2).len(), 2);
        assert_eq!(fr.tail(2)[0].t_ns, 8);
    }

    #[test]
    fn render_includes_context_time_node_and_seq() {
        let mut fr = FlightRecorder::new(8, "trace 4 / SRM");
        fr.push(rec(1_042_000_000, 7));
        let text = fr.render("digest mismatch", DUMP_TAIL);
        assert!(text.contains("trace 4 / SRM"));
        assert!(text.contains("digest mismatch"));
        assert!(text.contains("t=1.042000s node=3 ev=loss_detected seq=7"));
        assert!(text.contains("last 1 of 1"));
    }

    #[test]
    fn dump_fires_once_unless_forced() {
        let mut fr = FlightRecorder::new(2, "x");
        fr.push(rec(1, 1));
        fr.dump_stderr("first", false);
        assert!(fr.dumped);
        // A second non-forced dump is a no-op (nothing to assert beyond
        // not panicking); forced dumps always render.
        fr.dump_stderr("second", false);
        fr.dump_stderr("forced", true);
    }

    #[test]
    fn current_registration_round_trips() {
        let rec_cell = Rc::new(RefCell::new(FlightRecorder::new(2, "registered")));
        set_current(Rc::clone(&rec_cell));
        CURRENT.with(|c| {
            assert!(c.borrow().is_some());
        });
        clear_current();
        CURRENT.with(|c| assert!(c.borrow().is_none()));
    }

    /// A consumer blowing up mid-emit must not cost the post-mortem: the
    /// ring sits in its own cell, released before the consumers run, so the
    /// panic hook can still borrow and dump it while the consumer cell is
    /// locked by the unwinding emit.
    #[test]
    fn panic_inside_a_consumer_still_dumps_the_tail() {
        struct Bomb;
        impl crate::EventSink for Bomb {
            fn record(&mut self, _: Record) {
                panic!("sink exploded mid-emit");
            }
        }
        install_panic_hook();
        let obs = crate::Instruments::new(crate::Setup {
            sink: Some(Box::new(Bomb)),
            monitors: Some(crate::MonitorSet::standard()),
            flight: Some(FlightRecorder::new(4, "panic test run")),
            ..crate::Setup::default()
        });
        let cell = obs.flight().expect("flight was attached");
        set_current(Rc::clone(&cell));
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            obs.emit(7, || Event::LossDetected { node: 3, seq: 9 });
        }));
        clear_current();
        assert!(unwound.is_err(), "the sink's panic propagates");
        let fr = cell.borrow();
        assert!(fr.dumped, "the panic hook dumped the ring mid-emit");
        assert_eq!(fr.seen(), 1, "the record being fed is in its own dump");
    }
}
