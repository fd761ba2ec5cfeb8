//! Low-overhead, deterministic-output self-profiler (the `profile` member
//! of the `cesrm-run/1` report).
//!
//! The simulator's hot path runs at ~100 ns/event, so per-event
//! wall-clock instrumentation (two `Instant::now` calls per span) would
//! cost more than the work being measured. This module therefore splits
//! profiling into two ingredients with very different costs:
//!
//! * **Exact call tallies** — how often each [`Phase`] ran. These are
//!   either derived from counters the engine keeps anyway (queue
//!   pushes/pops, transmits, deliveries) and folded in via
//!   [`crate::Instruments::add_calls`] after the run, or counted with a single
//!   `Cell` increment at the call site ([`crate::Instruments::begin`]). Call
//!   counts depend only on the simulated event sequence, so they are
//!   **deterministic**: byte-identical at any worker or shard count.
//! * **Sampled timing** — every `stride`-th occurrence of a phase is
//!   timed exactly with an `Instant` pair; the per-phase estimate is
//!   `sampled_nanos × calls / timed_calls`, which self-normalizes (a
//!   phase that ran only a handful of times is timed exactly). Timing
//!   values are wall-clock and therefore **volatile**: the report nulls
//!   them before any byte-identity comparison.
//!
//! The tallies live in the run's [`crate::Instruments`] handle (per-run owned
//! state, `Rc`-based and `!Send`; [`crate::Instruments::off`] compiles every touch
//! down to a single predictable branch). [`ProfSnapshot`]s are `Send` and
//! merge associatively, so the parallel suite runner can combine per-run
//! profiles in slot order with deterministic results.
//!
//! Each phase carries its folded-stack path ([`Phase::stack`], the static
//! phase nesting of the engine via [`Phase::parent`]) and its estimated
//! *self* time ([`ProfSnapshot::self_nanos`]), so the report's per-phase
//! rows project straight onto the `stack;frames value` lines that
//! `flamegraph.pl` and `inferno` consume (`docs/PROFILING.md`).

use std::cell::Cell;
use std::time::Instant;

/// Default sampling stride: time one in 256 occurrences of a phase.
/// Amortized over the hot path this keeps the profiler's on-cost around
/// 1–2 ns/event while still collecting thousands of samples per second.
pub const DEFAULT_PROF_STRIDE: u64 = 256;

/// The fixed vocabulary of profiled engine phases.
///
/// The enum is closed by design: a schema-stable report needs a stable
/// phase list, and folded stacks need a static nesting
/// ([`Phase::parent`]). Phases form this tree:
///
/// ```text
/// setup
/// run
/// ├── queue_pop
/// ├── deliver
/// │   ├── srm_on_packet
/// │   ├── cesrm_on_packet
/// │   └── lms_on_packet
/// ├── fan_out
/// │   └── transmit
/// │       ├── loss_draw
/// │       └── queue_push
/// └── monitor_feed
/// teardown
/// ```
///
/// The nesting is the *common* call shape, not a guarantee — a unicast
/// hop transmits without fanning out, for example. Self-time subtraction
/// clamps at zero where the static tree over-subtracts; the top-level
/// `setup`/`run`/`teardown` spans are timed exactly, so whole-run
/// attribution is unaffected.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
#[repr(usize)]
pub enum Phase {
    /// Simulator construction, topology wiring and agent attachment.
    Setup,
    /// The whole `run_until` event loop (timed exactly, not sampled).
    Run,
    /// Calendar-queue pops (`pop_at_most`).
    QueuePop,
    /// Packet delivery to a node, including the agent callback.
    Deliver,
    /// SRM agent `on_packet` handling.
    SrmOnPacket,
    /// CESRM agent `on_packet` handling (SRM core + expedited layer).
    CesrmOnPacket,
    /// LMS agent `on_packet` handling.
    LmsOnPacket,
    /// Downstream fan-out over a node's children.
    FanOut,
    /// One link transmission: serialization, loss draw, enqueue.
    Transmit,
    /// The loss-process draw (`should_drop`).
    LossDraw,
    /// Calendar-queue pushes.
    QueuePush,
    /// Feeding one structured event to the online invariant monitors.
    Monitors,
    /// Post-run metric collection and report assembly.
    Teardown,
}

/// Number of phases (array sizes throughout the module).
pub const PHASE_COUNT: usize = 13;

impl Phase {
    /// Every phase, in report order (parents before children).
    pub const ALL: [Phase; PHASE_COUNT] = [
        Phase::Setup,
        Phase::Run,
        Phase::QueuePop,
        Phase::Deliver,
        Phase::SrmOnPacket,
        Phase::CesrmOnPacket,
        Phase::LmsOnPacket,
        Phase::FanOut,
        Phase::Transmit,
        Phase::LossDraw,
        Phase::QueuePush,
        Phase::Monitors,
        Phase::Teardown,
    ];

    /// Stable snake_case name used in reports and folded stacks.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Setup => "setup",
            Phase::Run => "run",
            Phase::QueuePop => "queue_pop",
            Phase::Deliver => "deliver",
            Phase::SrmOnPacket => "srm_on_packet",
            Phase::CesrmOnPacket => "cesrm_on_packet",
            Phase::LmsOnPacket => "lms_on_packet",
            Phase::FanOut => "fan_out",
            Phase::Transmit => "transmit",
            Phase::LossDraw => "loss_draw",
            Phase::QueuePush => "queue_push",
            Phase::Monitors => "monitor_feed",
            Phase::Teardown => "teardown",
        }
    }

    /// The enclosing phase in the static nesting, `None` for roots.
    pub fn parent(self) -> Option<Phase> {
        match self {
            Phase::Setup | Phase::Run | Phase::Teardown => None,
            Phase::QueuePop | Phase::Deliver | Phase::FanOut | Phase::Monitors => Some(Phase::Run),
            Phase::SrmOnPacket | Phase::CesrmOnPacket | Phase::LmsOnPacket => Some(Phase::Deliver),
            Phase::Transmit => Some(Phase::FanOut),
            Phase::LossDraw | Phase::QueuePush => Some(Phase::Transmit),
        }
    }

    /// The full folded-stack path, e.g. `run;fan_out;transmit`.
    pub fn stack(self) -> String {
        match self.parent() {
            Some(p) => format!("{};{}", p.stack(), self.name()),
            None => self.name().to_string(),
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// A live timestamp returned by [`crate::Instruments::begin`] for the sampled
/// occurrences of a phase; hand it back to [`crate::Instruments::end`].
#[derive(Clone, Copy, Debug)]
pub struct ProfStamp {
    at: Instant,
}

impl ProfStamp {
    pub(crate) fn now() -> ProfStamp {
        // simlint: allow(D002, reason = "sampled profiler timestamp; reaches only the volatile nanos fields of the report's profile member, never simulation state")
        // simlint: allow(D008, reason = "reachable from Simulator::run_until by design: the in-sim profiler stamps phases, and every nanos field it feeds is in harness::VOLATILE_FIELDS")
        ProfStamp { at: Instant::now() }
    }

    fn elapsed_nanos(self) -> u64 {
        u64::try_from(self.at.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// The profiler's live tallies, owned by the run's
/// [`Instruments`](crate::Instruments) inner: plain `Cell`s, so every
/// clone of the handle counts into the same profile without a borrow.
pub(crate) struct Tallies {
    /// `stride - 1` for a power-of-two stride; `x & mask == 0` samples.
    stride_mask: u64,
    /// Hot-loop event ticks ([`Tallies::tick_event`]).
    events: Cell<u64>,
    calls: [Cell<u64>; PHASE_COUNT],
    timed: [Cell<u64>; PHASE_COUNT],
    nanos: [Cell<u64>; PHASE_COUNT],
}

impl Tallies {
    /// Tallies timing every `stride`-th occurrence of each phase;
    /// `stride` is rounded up to a power of two (minimum 1).
    pub(crate) fn new(stride: u64) -> Tallies {
        let stride = stride.max(1).next_power_of_two();
        Tallies {
            stride_mask: stride - 1,
            events: Cell::new(0),
            calls: std::array::from_fn(|_| Cell::new(0)),
            timed: std::array::from_fn(|_| Cell::new(0)),
            nanos: std::array::from_fn(|_| Cell::new(0)),
        }
    }

    #[inline]
    pub(crate) fn tick_event(&self) -> bool {
        let n = self.events.get();
        self.events.set(n + 1);
        n & self.stride_mask == 0
    }

    #[inline]
    pub(crate) fn begin(&self, phase: Phase) -> Option<ProfStamp> {
        let i = phase.index();
        let n = self.calls[i].get();
        self.calls[i].set(n + 1);
        (n & self.stride_mask == 0).then(ProfStamp::now)
    }

    pub(crate) fn begin_exact(&self, phase: Phase) -> Option<ProfStamp> {
        self.add_calls(phase, 1);
        Some(ProfStamp::now())
    }

    #[inline]
    pub(crate) fn end(&self, phase: Phase, stamp: ProfStamp) {
        let i = phase.index();
        self.nanos[i].set(self.nanos[i].get() + stamp.elapsed_nanos());
        self.timed[i].set(self.timed[i].get() + 1);
    }

    pub(crate) fn add_calls(&self, phase: Phase, n: u64) {
        let i = phase.index();
        self.calls[i].set(self.calls[i].get() + n);
    }

    pub(crate) fn snapshot(&self) -> ProfSnapshot {
        ProfSnapshot {
            stride: self.stride_mask + 1,
            events: self.events.get(),
            phases: std::array::from_fn(|i| PhaseTally {
                calls: self.calls[i].get(),
                timed: self.timed[i].get(),
                nanos: self.nanos[i].get(),
            }),
        }
    }
}

/// One phase's accumulated tallies: exact call count, how many calls
/// were wall-clock timed, and the summed nanoseconds of those samples.
#[derive(Clone, Copy, PartialEq, Eq, Default, Debug)]
pub struct PhaseTally {
    /// Exact occurrences (deterministic).
    pub calls: u64,
    /// Occurrences that were wall-clock timed (deterministic — purely a
    /// function of `calls` and the stride).
    pub timed: u64,
    /// Summed wall-clock nanoseconds of the timed occurrences
    /// (volatile).
    pub nanos: u64,
}

/// `Send`able, associatively mergeable profile of one or more runs.
#[derive(Clone, PartialEq, Eq, Default, Debug)]
pub struct ProfSnapshot {
    /// Sampling stride the tallies were collected with (0 = profiling
    /// was off).
    pub stride: u64,
    /// Hot-loop event ticks observed.
    pub events: u64,
    phases: [PhaseTally; PHASE_COUNT],
}

impl ProfSnapshot {
    /// The tallies for one phase.
    pub fn phase(&self, phase: Phase) -> PhaseTally {
        self.phases[phase.index()]
    }

    /// Whether any tally is non-zero.
    pub fn is_empty(&self) -> bool {
        self.events == 0 && self.phases.iter().all(|p| p.calls == 0)
    }

    /// Folds `other` in (associative and commutative up to the stride
    /// field, which keeps the first non-zero value).
    pub fn merge(&mut self, other: &ProfSnapshot) {
        if self.stride == 0 {
            self.stride = other.stride;
        }
        self.events += other.events;
        for (mine, theirs) in self.phases.iter_mut().zip(other.phases.iter()) {
            mine.calls += theirs.calls;
            mine.timed += theirs.timed;
            mine.nanos += theirs.nanos;
        }
    }

    /// Estimated inclusive wall-clock nanoseconds of `phase`:
    /// `nanos × calls / timed` (the sampled mean scaled to the exact
    /// call count; exact when every call was timed).
    pub fn estimated_nanos(&self, phase: Phase) -> u64 {
        let t = self.phase(phase);
        if t.timed == 0 {
            return 0;
        }
        u64::try_from(u128::from(t.nanos) * u128::from(t.calls) / u128::from(t.timed))
            .unwrap_or(u64::MAX)
    }

    /// Estimated *self* nanoseconds: inclusive estimate minus the
    /// children's inclusive estimates, clamped at zero (the static
    /// nesting can over-subtract, e.g. a transmit outside a fan-out).
    pub fn self_nanos(&self, phase: Phase) -> u64 {
        let children: u64 = Phase::ALL
            .iter()
            .filter(|c| c.parent() == Some(phase))
            .map(|&c| self.estimated_nanos(c))
            .sum();
        self.estimated_nanos(phase).saturating_sub(children)
    }

    /// Estimated nanoseconds attributed to the three exactly-timed root
    /// spans (`setup + run + teardown`) — the numerator of the
    /// whole-run attribution figure.
    pub fn attributed_nanos(&self) -> u64 {
        [Phase::Setup, Phase::Run, Phase::Teardown]
            .iter()
            .map(|&p| self.estimated_nanos(p))
            .sum()
    }

    /// Fraction of `wall_nanos` attributed to named phases, in percent.
    pub fn attributed_pct(&self, wall_nanos: u64) -> f64 {
        if wall_nanos == 0 {
            return 0.0;
        }
        self.attributed_nanos() as f64 / wall_nanos as f64 * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamps_count_samples_but_not_calls() {
        let p = Tallies::new(DEFAULT_PROF_STRIDE);
        p.end(Phase::QueuePush, ProfStamp::now());
        p.add_calls(Phase::QueuePush, 500);
        let t = p.snapshot().phase(Phase::QueuePush);
        assert_eq!(t.calls, 500);
        assert_eq!(t.timed, 1);
    }

    #[test]
    fn stride_rounds_to_power_of_two_and_samples_every_nth() {
        let p = Tallies::new(5); // rounds to 8
        assert_eq!(p.snapshot().stride, 8);
        let sampled: Vec<bool> = (0..16).map(|_| p.tick_event()).collect();
        let expected: Vec<bool> = (0..16u64).map(|i| i % 8 == 0).collect();
        assert_eq!(sampled, expected);
        assert_eq!(p.snapshot().events, 16);
    }

    #[test]
    fn begin_counts_every_call_but_times_one_in_stride() {
        let p = Tallies::new(4);
        for _ in 0..10 {
            if let Some(stamp) = p.begin(Phase::SrmOnPacket) {
                p.end(Phase::SrmOnPacket, stamp);
            }
        }
        let t = p.snapshot().phase(Phase::SrmOnPacket);
        assert_eq!(t.calls, 10);
        assert_eq!(t.timed, 3, "calls 0, 4 and 8 are sampled");
    }

    #[test]
    fn estimates_scale_sampled_nanos_to_exact_calls() {
        let mut s = ProfSnapshot::default();
        s.phases[Phase::Transmit.index()] = PhaseTally {
            calls: 1000,
            timed: 10,
            nanos: 500,
        };
        // 50 ns mean × 1000 calls.
        assert_eq!(s.estimated_nanos(Phase::Transmit), 50_000);
        assert_eq!(s.estimated_nanos(Phase::QueuePop), 0);
    }

    #[test]
    fn self_time_subtracts_children_and_clamps() {
        let mut s = ProfSnapshot::default();
        let exact = |calls, nanos| PhaseTally {
            calls,
            timed: calls,
            nanos,
        };
        s.phases[Phase::Transmit.index()] = exact(10, 1_000);
        s.phases[Phase::LossDraw.index()] = exact(10, 300);
        s.phases[Phase::QueuePush.index()] = exact(9, 200);
        assert_eq!(s.self_nanos(Phase::Transmit), 500);
        // Children exceeding the parent clamp to zero rather than wrap.
        s.phases[Phase::LossDraw.index()] = exact(10, 2_000);
        assert_eq!(s.self_nanos(Phase::Transmit), 0);
    }

    #[test]
    fn merge_is_associative_and_deterministic_on_calls() {
        let tally = |calls, timed, nanos| PhaseTally {
            calls,
            timed,
            nanos,
        };
        let mk = |c| {
            let mut s = ProfSnapshot {
                stride: 64,
                events: c,
                ..ProfSnapshot::default()
            };
            s.phases[Phase::Deliver.index()] = tally(c, c / 64 + 1, c * 3);
            s
        };
        let (a, b, c) = (mk(100), mk(2000), mk(7));
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a;
        right.merge(&bc);
        assert_eq!(left, right);
        assert_eq!(left.phase(Phase::Deliver).calls, 2107);
    }

    #[test]
    fn attribution_covers_the_root_spans() {
        let mut s = ProfSnapshot::default();
        let exact = |nanos| PhaseTally {
            calls: 1,
            timed: 1,
            nanos,
        };
        s.phases[Phase::Setup.index()] = exact(1_000);
        s.phases[Phase::Run.index()] = exact(8_500);
        s.phases[Phase::Teardown.index()] = exact(100);
        assert_eq!(s.attributed_nanos(), 9_600);
        assert!((s.attributed_pct(10_000) - 96.0).abs() < 1e-9);
        assert_eq!(s.attributed_pct(0), 0.0);
    }

    #[test]
    fn phase_stacks_are_stable() {
        assert_eq!(Phase::LossDraw.stack(), "run;fan_out;transmit;loss_draw");
        assert_eq!(Phase::CesrmOnPacket.stack(), "run;deliver;cesrm_on_packet");
        assert_eq!(Phase::Setup.stack(), "setup");
        // Every phase's parent chain terminates at a root.
        for &p in &Phase::ALL {
            let mut cur = p;
            let mut hops = 0;
            while let Some(up) = cur.parent() {
                cur = up;
                hops += 1;
                assert!(hops < PHASE_COUNT, "cycle in phase hierarchy");
            }
        }
    }
}
