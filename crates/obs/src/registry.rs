//! A lightweight in-process metrics registry: named counters.
//!
//! The event stream ([`Instruments::emit`](crate::Instruments::emit))
//! answers *what happened to one loss*; this module answers *what the
//! runtime did*: events dispatched per type, timer churn, suppression
//! counts, cache hit rates. Everything the evaluation reports is a count,
//! so there is one instrument kind, [`Counter`] — a monotonic `u64`.
//!
//! Counters are obtained once from the run's
//! [`Instruments`](crate::Instruments) handle
//! ([`counter`](crate::Instruments::counter)) and stored at the call site,
//! so the hot path is a `Cell` update with no name lookup. A handle built
//! without [`Setup::metrics`](crate::Setup::metrics) hands out no-op
//! counters whose updates are a single `Option` branch — runs with metrics
//! off behave byte-for-byte like uninstrumented builds.
//!
//! At the end of a run,
//! [`Instruments::metrics_snapshot`](crate::Instruments::metrics_snapshot)
//! extracts a plain-data [`MetricsSnapshot`] (which *is* `Send`) that can
//! cross threads and be [merged](MetricsSnapshot::merge) by addition, so
//! the suite-level aggregate is identical at any worker count.
//!
//! # Examples
//!
//! ```
//! use obs::{Instruments, Setup};
//!
//! let obs = Instruments::new(Setup { metrics: true, ..Setup::default() });
//! let suppressed = obs.counter("srm.request_suppressed");
//! for _ in 0..3 {
//!     suppressed.inc();
//! }
//! let snap = obs.metrics_snapshot();
//! assert_eq!(snap.counters["srm.request_suppressed"], 3);
//! ```

use std::cell::Cell;
use std::collections::BTreeMap;
use std::rc::Rc;

/// A monotonic counter. Cloning shares the underlying cell; the default
/// value is a disabled no-op counter.
#[derive(Clone, Default)]
pub struct Counter(Option<Rc<Cell<u64>>>);

/// The handle-style stable form (`Counter(on)` / `Counter(off)`): the count
/// never leaks into `Debug` output, so derived `Debug` on structs embedding
/// counters stays comparison-safe.
impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(if self.0.is_some() {
            "Counter(on)"
        } else {
            "Counter(off)"
        })
    }
}

impl Counter {
    /// A disabled counter: every update is a single `Option` branch.
    pub fn off() -> Self {
        Counter(None)
    }

    /// Adds `n` to the count.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(c) = &self.0 {
            c.set(c.get().wrapping_add(n));
        }
    }

    /// Adds one to the count.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// The current count (0 when disabled).
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.get())
    }
}

/// One run's named counter cells, owned by the run's
/// [`Instruments`](crate::Instruments) inner. Registering the same name
/// twice returns a counter sharing the same cell, so the protocol agents,
/// the recovery log and the harness of one run all accumulate into one
/// registry.
#[derive(Default)]
pub(crate) struct Registry {
    counters: BTreeMap<String, Rc<Cell<u64>>>,
}

impl Registry {
    pub(crate) fn counter(&mut self, name: &str) -> Counter {
        let cell = self.counters.entry(name.to_string()).or_default();
        Counter(Some(Rc::clone(cell)))
    }

    pub(crate) fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .iter()
                .map(|(name, cell)| (name.clone(), cell.get()))
                .collect(),
        }
    }
}

/// Plain-data (and therefore `Send`) snapshot of one registry, extracted
/// at the end of a run and merged across runs by the suite.
#[derive(Clone, Default, PartialEq, Eq, Debug)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
}

impl MetricsSnapshot {
    /// `true` when nothing was registered.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
    }

    /// Adds `other`'s counters into `self`. Associative, so any grouping
    /// of the same runs yields the same aggregate.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_name_shares_one_cell() {
        let mut m = Registry::default();
        let a = m.counter("hits");
        let b = m.counter("hits");
        a.add(2);
        b.inc();
        assert_eq!(a.get(), 3);
        assert_eq!(m.snapshot().counters["hits"], 3);
    }

    #[test]
    fn snapshot_merge_is_associative() {
        let make = |hits: u64, misses: u64| {
            let mut m = Registry::default();
            m.counter("hits").add(hits);
            if misses > 0 {
                m.counter("misses").add(misses);
            }
            m.snapshot()
        };
        let a = make(3, 0);
        let b = make(2, 5);
        let c = make(1, 1);
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a;
        right.merge(&bc);
        assert_eq!(left, right);
        assert_eq!((left.counters["hits"], left.counters["misses"]), (6, 6));
    }
}
