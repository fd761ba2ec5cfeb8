//! Counters are counted events: one per-kind tally of the event stream.
//!
//! The event stream ([`Instruments::emit`](crate::Instruments::emit))
//! answers *what happened to one loss*; the counters answer *how often*:
//! requests sent, suppressions, cache hits, recoveries. Each of those is a
//! kind of [`Event`], so a counter is not kept beside its event — it is the
//! number of records of that kind. [`EventTally`] holds those numbers for
//! one stream (plus the one split the evaluation reads: `recovered` by its
//! `expedited` flag), and [`COUNTERS`] is the one table that names them.
//!
//! A handle built with [`Setup::metrics`](crate::Setup::metrics) tallies
//! every record it is handed; at the end of a run,
//! [`Instruments::metrics_snapshot`](crate::Instruments::metrics_snapshot)
//! renders the tally through [`COUNTERS`] into a plain-data
//! [`MetricsSnapshot`] (which *is* `Send`) that can cross threads and be
//! [merged](MetricsSnapshot::merge) by addition, so the suite-level
//! aggregate is identical at any worker count. The invariant monitors
//! ([`MonitorSet`](crate::MonitorSet)) keep their per-kind totals in the
//! same type.
//!
//! # Examples
//!
//! ```
//! use obs::{Event, Instruments, Setup};
//!
//! let obs = Instruments::new(Setup { metrics: true, ..Setup::default() });
//! for seq in 0..3 {
//!     obs.emit(1_000, || Event::RequestSuppressed { node: 2, seq, by: 5 });
//! }
//! let snap = obs.metrics_snapshot();
//! assert_eq!(snap.counters["srm.request_suppressed"], 3);
//! assert_eq!(snap.counters["srm.reply_suppressed"], 0);
//! ```

use std::collections::BTreeMap;

use crate::event::Event;

/// The pseudo event name [`COUNTERS`] uses for `recovered` records whose
/// `expedited` flag is set.
pub const RECOVERED_EXPEDITED: &str = "recovered{expedited}";

/// Every counter a metrics snapshot carries, as `(counter, event)`: the
/// counter is the number of records of that [`Event::NAMES`] kind (or of
/// [`RECOVERED_EXPEDITED`]). Several counters may count one kind.
/// `docs/METRICS.md` lists this table; an `obs` unit test holds the two
/// equal.
pub const COUNTERS: [(&str, &str); 16] = [
    ("srm.request_timers_set", "req_scheduled"),
    ("srm.requests_sent", "req_sent"),
    ("srm.request_suppressed", "req_suppressed"),
    ("srm.reply_timers_set", "rep_scheduled"),
    ("srm.replies_sent", "rep_sent"),
    ("srm.reply_suppressed", "rep_suppressed"),
    ("cesrm.cache.hits", "cache_hit"),
    ("cesrm.cache.misses", "cache_miss"),
    ("cesrm.cache.updates", "cache_update"),
    ("cesrm.expedited_requests_sent", "xreq_sent"),
    ("cesrm.expedited_replies_sent", "xrep_sent"),
    ("recovery.detected", "loss_detected"),
    ("recovery.recovered", "recovered"),
    ("recovery.recovered_expedited", RECOVERED_EXPEDITED),
    ("recovery.requests", "req_sent"),
    ("recovery.spurious", "spurious"),
];

/// How many records of each kind one event stream carried.
#[derive(Clone, Debug, Default)]
pub struct EventTally {
    /// Records by [`Event::kind`].
    by_kind: [u64; Event::NAMES.len()],
    /// `recovered` records with `expedited` set.
    recovered_expedited: u64,
}

impl EventTally {
    /// Counts one record.
    #[inline]
    pub fn observe(&mut self, event: &Event) {
        self.by_kind[event.kind()] += 1;
        if let Event::RecoveryCompleted {
            expedited: true, ..
        } = event
        {
            self.recovered_expedited += 1;
        }
    }

    /// Records counted of the kind `event` names: an [`Event::NAMES`]
    /// entry or [`RECOVERED_EXPEDITED`].
    ///
    /// # Panics
    ///
    /// Panics when `event` names neither.
    pub fn count(&self, event: &str) -> u64 {
        if event == RECOVERED_EXPEDITED {
            return self.recovered_expedited;
        }
        let kind = Event::NAMES
            .iter()
            .position(|&name| name == event)
            .unwrap_or_else(|| panic!("`{event}` names no event kind"));
        self.by_kind[kind]
    }

    /// Records counted, of every kind.
    pub fn total(&self) -> u64 {
        self.by_kind.iter().sum()
    }

    /// Every [`COUNTERS`] entry, zeros included.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: COUNTERS
                .iter()
                .map(|&(counter, event)| (counter.to_string(), self.count(event)))
                .collect(),
        }
    }
}

/// Plain-data (and therefore `Send`) named counters of one run, extracted
/// at the end of the run and merged across runs by the suite.
#[derive(Clone, Default, PartialEq, Eq, Debug)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
}

impl MetricsSnapshot {
    /// `true` when the snapshot holds no counter (metrics were off).
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

    fn recovered(expedited: bool) -> Event {
        Event::RecoveryCompleted {
            node: 1,
            seq: 0,
            expedited,
        }
    }

    #[test]
    fn counts_by_kind_and_splits_recovered_by_expedited() {
        let mut tally = EventTally::default();
        for event in [
            recovered(true),
            recovered(false),
            recovered(true),
            Event::LossDetected { node: 1, seq: 0 },
        ] {
            tally.observe(&event);
        }
        assert_eq!(tally.count("recovered"), 3);
        assert_eq!(tally.count(RECOVERED_EXPEDITED), 2);
        assert_eq!(tally.count("loss_detected"), 1);
        assert_eq!(tally.count("cache_hit"), 0);
        assert_eq!(tally.total(), 4);
        let snap = tally.snapshot();
        assert_eq!(snap.counters["recovery.recovered"], 3);
        assert_eq!(snap.counters["recovery.recovered_expedited"], 2);
        assert_eq!(snap.counters["cesrm.cache.hits"], 0);
    }

    #[test]
    #[should_panic(expected = "`recovery` names no event kind")]
    fn count_refuses_an_unknown_kind() {
        EventTally::default().count("recovery");
    }

    #[test]
    fn every_counter_counts_a_known_kind_and_names_are_unique() {
        let tally = EventTally::default();
        let mut names: Vec<&str> = COUNTERS.iter().map(|&(name, _)| name).collect();
        for &(_, event) in &COUNTERS {
            tally.count(event);
        }
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), COUNTERS.len(), "a counter name repeats");
    }

    /// `docs/METRICS.md`'s counter table is this module's [`COUNTERS`],
    /// row for row.
    #[test]
    fn metrics_doc_lists_the_counter_table() {
        let doc = include_str!("../../../docs/METRICS.md");
        let rows: Vec<(String, String)> = doc
            .lines()
            .filter_map(|line| {
                let cells: Vec<&str> = line.split('|').map(str::trim).collect();
                let [_, counter, event, ..] = cells[..] else {
                    return None;
                };
                let unquote = |c: &str| c.strip_prefix('`')?.strip_suffix('`').map(String::from);
                let counter = unquote(counter).filter(|c| {
                    ["srm.", "cesrm.", "recovery."]
                        .iter()
                        .any(|p| c.starts_with(p))
                })?;
                Some((counter, unquote(event)?))
            })
            .collect();
        let table: Vec<(String, String)> = COUNTERS
            .iter()
            .map(|&(c, e)| (c.to_string(), e.to_string()))
            .collect();
        assert_eq!(rows, table);
    }

    #[test]
    fn snapshot_merge_is_associative() {
        let make = |hits: u64, misses: u64| {
            let mut tally = EventTally::default();
            for seq in 0..hits {
                tally.observe(&Event::CacheHit {
                    node: 1,
                    seq,
                    requestor: 1,
                    replier: 0,
                });
            }
            for seq in 0..misses {
                tally.observe(&Event::CacheMiss { node: 1, seq });
            }
            tally.snapshot()
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
        assert_eq!(
            (
                left.counters["cesrm.cache.hits"],
                left.counters["cesrm.cache.misses"]
            ),
            (6, 6)
        );
    }
}
