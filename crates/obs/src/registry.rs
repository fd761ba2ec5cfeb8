//! A lightweight in-process metrics registry for simulator self-profiling.
//!
//! The event stream ([`Instruments::emit`](crate::Instruments::emit))
//! answers *what happened to one loss*; this module answers *what the
//! runtime did*:
//! events dispatched per type, queue pressure, timer churn, cache hit
//! rates. Four instrument kinds cover the hot paths:
//!
//! * [`Counter`] — a monotonic `u64` count.
//! * [`Gauge`] — a signed level with a high-water mark (e.g. event-queue
//!   depth).
//! * [`Histogram`] — a fixed-bucket base-2 log-scale histogram over `u64`
//!   values ([`LogHistogram`]); 65 buckets, constant memory, exact merge.
//! * [`Sketch`] — a deterministic streaming-quantile sketch over `u64`
//!   values ([`QuantileSketch`]) that tracks its own worst-case rank-error
//!   bound.
//!
//! Instruments are obtained once from the run's
//! [`Instruments`](crate::Instruments) handle
//! ([`counter`](crate::Instruments::counter) and friends) and stored at the
//! call site, so the hot path is a `Cell` update with no name lookup. A
//! handle built without [`Setup::metrics`](crate::Setup::metrics) hands out
//! no-op instruments whose updates are a single `Option` branch — runs
//! with metrics off behave byte-for-byte like uninstrumented builds.
//!
//! At the end of a run,
//! [`Instruments::metrics_snapshot`](crate::Instruments::metrics_snapshot)
//! extracts a plain-data
//! [`MetricsSnapshot`] (which *is* `Send`) that can cross threads and be
//! [merged](MetricsSnapshot::merge) deterministically: counters add,
//! gauge high-waters take the max, histograms add bucket-wise, sketches
//! merge level-wise. Merging is associative on every instrument, so the
//! suite-level aggregate is identical at any worker count.
//!
//! # Examples
//!
//! ```
//! use obs::{Instruments, Setup};
//!
//! let obs = Instruments::new(Setup { metrics: true, ..Setup::default() });
//! let dispatched = obs.counter("sim.events.hop");
//! let depth = obs.gauge("sim.queue.depth");
//! for d in [3i64, 7, 2] {
//!     dispatched.inc();
//!     depth.set(d);
//! }
//! let snap = obs.metrics_snapshot();
//! assert_eq!(snap.counters["sim.events.hop"], 3);
//! assert_eq!(snap.gauges["sim.queue.depth"].high_water, 7);
//! ```

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

/// Number of buckets in a [`LogHistogram`]: one for zero plus one per
/// power of two of the `u64` range.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// Default per-level buffer capacity of a [`QuantileSketch`] created
/// through [`Instruments::sketch`](crate::Instruments::sketch).
pub const DEFAULT_SKETCH_K: usize = 256;

// ---------------------------------------------------------------------
// Instruments
// ---------------------------------------------------------------------

/// Writes the handle-style stable `Debug` form (`Name(on)` /
/// `Name(off)`): contents never leak into `Debug` output, so derived
/// `Debug` on structs embedding instruments stays comparison-safe.
macro_rules! stable_debug {
    ($ty:ident) => {
        impl std::fmt::Debug for $ty {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                f.write_str(if self.0.is_some() {
                    concat!(stringify!($ty), "(on)")
                } else {
                    concat!(stringify!($ty), "(off)")
                })
            }
        }
    };
}

/// A monotonic counter. Cloning shares the underlying cell; the default
/// value is a disabled no-op counter.
#[derive(Clone, Default)]
pub struct Counter(Option<Rc<Cell<u64>>>);

stable_debug!(Counter);
stable_debug!(Gauge);
stable_debug!(Histogram);
stable_debug!(Sketch);

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

/// Point-in-time value of a [`Gauge`]: the last level set plus the highest
/// level ever seen.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct GaugeSnapshot {
    /// The most recently set level.
    pub value: i64,
    /// The highest level observed since creation.
    pub high_water: i64,
}

/// A signed level with a high-water mark. Cloning shares the underlying
/// cell; the default value is a disabled no-op gauge.
#[derive(Clone, Default)]
pub struct Gauge(Option<Rc<Cell<GaugeSnapshot>>>);

impl Gauge {
    /// A disabled gauge.
    pub fn off() -> Self {
        Gauge(None)
    }

    /// Sets the level, updating the high-water mark.
    #[inline]
    pub fn set(&self, value: i64) {
        if let Some(g) = &self.0 {
            let mut s = g.get();
            s.value = value;
            if value > s.high_water {
                s.high_water = value;
            }
            g.set(s);
        }
    }

    /// Adjusts the level by `delta` (may be negative).
    #[inline]
    pub fn add(&self, delta: i64) {
        if let Some(g) = &self.0 {
            let mut s = g.get();
            s.value += delta;
            if s.value > s.high_water {
                s.high_water = s.value;
            }
            g.set(s);
        }
    }

    /// The current level (0 when disabled).
    pub fn get(&self) -> i64 {
        self.0.as_ref().map_or(0, |g| g.get().value)
    }

    /// The highest level observed (0 when disabled).
    pub fn high_water(&self) -> i64 {
        self.0.as_ref().map_or(0, |g| g.get().high_water)
    }
}

/// A fixed-bucket base-2 log-scale histogram over `u64` values.
///
/// Bucket 0 counts zeros; bucket `b ≥ 1` counts values in
/// `[2^(b-1), 2^b)`. Recording is branch-free (`leading_zeros`), memory is
/// constant, and [`merge`](LogHistogram::merge) adds bucket-wise — exact,
/// associative and commutative, so aggregation order can never perturb a
/// merged result.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct LogHistogram {
    buckets: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        LogHistogram {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// The bucket index `value` falls into.
    #[inline]
    pub fn bucket_index(value: u64) -> usize {
        (64 - value.leading_zeros()) as usize
    }

    /// Inclusive upper bound of bucket `index` (the representative value
    /// reported for quantiles).
    pub fn bucket_upper_bound(index: usize) -> u64 {
        if index == 0 {
            0
        } else if index >= 64 {
            u64::MAX
        } else {
            (1u64 << index) - 1
        }
    }

    /// Records one value.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_index(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        if value < self.min {
            self.min = value;
        }
        if value > self.max {
            self.max = value;
        }
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded values (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded value (`None` when empty).
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded value (`None` when empty).
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// The non-empty buckets as `(bucket index, count)`, ascending.
    pub fn nonzero_buckets(&self) -> Vec<(usize, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i, c))
            .collect()
    }

    /// Upper bound of the bucket containing the `q`-quantile (`None` when
    /// empty). The answer is value-quantized to the bucket boundary — a
    /// factor-of-two resolution by construction.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            cum += c;
            if cum >= target {
                // Tighten the last bucket's bound with the observed max.
                return Some(Self::bucket_upper_bound(i).min(self.max));
            }
        }
        Some(self.max)
    }

    /// Adds `other` into `self` bucket-wise. Exact and associative.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        if other.count > 0 {
            if other.min < self.min {
                self.min = other.min;
            }
            if other.max > self.max {
                self.max = other.max;
            }
        }
    }
}

/// A deterministic streaming-quantile sketch over `u64` values
/// (Munro–Paterson-style multi-level compaction, no randomness).
///
/// Level `l` buffers items of weight `2^l`; when a level reaches `k`
/// items it is sorted and every second item (odd positions) survives into
/// level `l+1`. Each compaction of weight-`w` items shifts any rank
/// estimate by at most `w`, and the sketch accumulates exactly that bound
/// in [`rank_error_bound`](QuantileSketch::rank_error_bound) — so the
/// guarantee it reports is the one its own history justifies, and a
/// property test can hold it to it against an exact sort.
///
/// [`merge`](QuantileSketch::merge) concatenates level-wise and
/// re-compacts; the result depends only on the multiset of inserted values
/// and the merge tree, both of which the suite runner fixes, so merged
/// sketches are identical at any worker count.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct QuantileSketch {
    k: usize,
    levels: Vec<Vec<u64>>,
    count: u64,
    compaction_error: u64,
}

impl Default for QuantileSketch {
    fn default() -> Self {
        Self::new(DEFAULT_SKETCH_K)
    }
}

impl QuantileSketch {
    /// Creates an empty sketch with per-level buffer capacity `k`.
    ///
    /// # Panics
    ///
    /// Panics unless `k` is an even number ≥ 2.
    pub fn new(k: usize) -> Self {
        assert!(
            k >= 2 && k.is_multiple_of(2),
            "sketch k must be an even number >= 2"
        );
        QuantileSketch {
            k,
            levels: vec![Vec::new()],
            count: 0,
            compaction_error: 0,
        }
    }

    /// The per-level buffer capacity.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of values recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Records one value.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.levels[0].push(value);
        self.count += 1;
        if self.levels[0].len() >= self.k {
            self.compact_from(0);
        }
    }

    /// Worst-case absolute rank error of any [`rank`](QuantileSketch::rank)
    /// or [`quantile`](QuantileSketch::quantile) answer, accumulated from
    /// the compactions actually performed plus the coarseness of the
    /// heaviest surviving items.
    pub fn rank_error_bound(&self) -> u64 {
        let top_weight = 1u64 << (self.levels.len() - 1).min(63);
        self.compaction_error + top_weight
    }

    /// Estimated number of recorded values `<= value`.
    pub fn rank(&self, value: u64) -> u64 {
        self.levels
            .iter()
            .enumerate()
            .map(|(l, items)| {
                let below = items.iter().filter(|&&v| v <= value).count() as u64;
                below << l.min(63)
            })
            .sum()
    }

    /// An inserted value whose rank is within
    /// [`rank_error_bound`](QuantileSketch::rank_error_bound) of
    /// `q * count` (`None` when empty).
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut weighted: Vec<(u64, u64)> = self
            .levels
            .iter()
            .enumerate()
            .flat_map(|(l, items)| items.iter().map(move |&v| (v, 1u64 << l.min(63))))
            .collect();
        weighted.sort_unstable();
        let mut cum = 0u64;
        for (v, w) in &weighted {
            cum += w;
            if cum >= target {
                return Some(*v);
            }
        }
        weighted.last().map(|&(v, _)| v)
    }

    /// Merges `other` into `self` level-wise, re-compacting overfull
    /// levels. The error bounds add.
    pub fn merge(&mut self, other: &QuantileSketch) {
        while self.levels.len() < other.levels.len() {
            self.levels.push(Vec::new());
        }
        for (l, items) in other.levels.iter().enumerate() {
            self.levels[l].extend_from_slice(items);
        }
        self.count += other.count;
        self.compaction_error += other.compaction_error;
        let mut l = 0;
        while l < self.levels.len() {
            if self.levels[l].len() >= self.k {
                self.compact_from(l);
            }
            l += 1;
        }
    }

    /// Compacts level `level` (and cascades upward while overfull): sort,
    /// promote the items at odd positions with doubled weight, and account
    /// the rank-error contribution `2^level` of discarding the rest.
    fn compact_from(&mut self, level: usize) {
        let mut l = level;
        while self.levels[l].len() >= self.k {
            let mut items = std::mem::take(&mut self.levels[l]);
            items.sort_unstable();
            // Odd survivor parity is fixed: determinism over randomized
            // compaction trades a tight constant for reproducibility.
            let survivors: Vec<u64> = items.iter().skip(1).step_by(2).copied().collect();
            // An odd item count leaves one item unrepresented; keep it at
            // the current level instead of losing its weight.
            if items.len() % 2 == 1 {
                self.levels[l].push(items[items.len() - 1]);
            }
            self.compaction_error += 1u64 << l.min(63);
            if self.levels.len() == l + 1 {
                self.levels.push(Vec::new());
            }
            self.levels[l + 1].extend(survivors);
            l += 1;
        }
    }
}

/// Shared-cell histogram instrument handed out by the run's
/// [`Instruments`](crate::Instruments); the default value is a disabled
/// no-op.
#[derive(Clone, Default)]
pub struct Histogram(Option<Rc<RefCell<LogHistogram>>>);

impl Histogram {
    /// A disabled histogram.
    pub fn off() -> Self {
        Histogram(None)
    }

    /// Records one value.
    #[inline]
    pub fn record(&self, value: u64) {
        if let Some(h) = &self.0 {
            h.borrow_mut().record(value);
        }
    }
}

/// Shared-cell quantile-sketch instrument handed out by the run's
/// [`Instruments`](crate::Instruments); the default value is a disabled
/// no-op.
#[derive(Clone, Default)]
pub struct Sketch(Option<Rc<RefCell<QuantileSketch>>>);

impl Sketch {
    /// A disabled sketch.
    pub fn off() -> Self {
        Sketch(None)
    }

    /// Records one value.
    #[inline]
    pub fn record(&self, value: u64) {
        if let Some(s) = &self.0 {
            s.borrow_mut().record(value);
        }
    }
}

// ---------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------

/// One run's named instrument cells, owned by the run's
/// [`Instruments`](crate::Instruments) inner. Registering the same name
/// twice returns an instrument sharing the same cell, so the simulator,
/// the protocol agents and the recovery log of one run all accumulate into
/// one registry.
#[derive(Default)]
pub(crate) struct Registry {
    counters: BTreeMap<String, Rc<Cell<u64>>>,
    gauges: BTreeMap<String, Rc<Cell<GaugeSnapshot>>>,
    histograms: BTreeMap<String, Rc<RefCell<LogHistogram>>>,
    sketches: BTreeMap<String, Rc<RefCell<QuantileSketch>>>,
}

/// The cell registered under `name`, created on first use.
fn cell<T: Default>(map: &mut BTreeMap<String, Rc<T>>, name: &str) -> Rc<T> {
    Rc::clone(map.entry(name.to_string()).or_default())
}

impl Registry {
    pub(crate) fn counter(&mut self, name: &str) -> Counter {
        Counter(Some(cell(&mut self.counters, name)))
    }

    pub(crate) fn gauge(&mut self, name: &str) -> Gauge {
        Gauge(Some(cell(&mut self.gauges, name)))
    }

    pub(crate) fn histogram(&mut self, name: &str) -> Histogram {
        Histogram(Some(cell(&mut self.histograms, name)))
    }

    pub(crate) fn sketch(&mut self, name: &str) -> Sketch {
        Sketch(Some(cell(&mut self.sketches, name)))
    }

    pub(crate) fn snapshot(&self) -> MetricsSnapshot {
        fn copied<T, U>(map: &BTreeMap<String, Rc<T>>, f: impl Fn(&T) -> U) -> BTreeMap<String, U> {
            map.iter().map(|(k, v)| (k.clone(), f(v))).collect()
        }
        MetricsSnapshot {
            counters: copied(&self.counters, Cell::get),
            gauges: copied(&self.gauges, Cell::get),
            histograms: copied(&self.histograms, |h| h.borrow().clone()),
            sketches: copied(&self.sketches, |s| s.borrow().clone()),
        }
    }
}

/// Plain-data (and therefore `Send`) snapshot of one registry, extracted
/// at the end of a run and merged across runs by the suite.
#[derive(Clone, Default, PartialEq, Debug)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, GaugeSnapshot>,
    /// Histograms by name.
    pub histograms: BTreeMap<String, LogHistogram>,
    /// Quantile sketches by name.
    pub sketches: BTreeMap<String, QuantileSketch>,
}

impl MetricsSnapshot {
    /// `true` when nothing was registered.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.histograms.is_empty()
            && self.sketches.is_empty()
    }

    /// Merges `other` into `self`: counters and gauge levels add, gauge
    /// high-waters take the max, histograms add bucket-wise, sketches
    /// merge level-wise. Associative, so any grouping of the same runs
    /// yields the same aggregate.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, g) in &other.gauges {
            let e = self.gauges.entry(k.clone()).or_default();
            e.value += g.value;
            if g.high_water > e.high_water {
                e.high_water = g.high_water;
            }
        }
        for (k, h) in &other.histograms {
            self.histograms.entry(k.clone()).or_default().merge(h);
        }
        for (k, s) in &other.sketches {
            match self.sketches.get_mut(k) {
                Some(mine) => mine.merge(s),
                None => {
                    self.sketches.insert(k.clone(), s.clone());
                }
            }
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
    fn gauge_tracks_high_water() {
        let g = Registry::default().gauge("depth");
        g.add(3);
        g.add(4);
        g.add(-5);
        g.set(1);
        assert_eq!(g.get(), 1);
        assert_eq!(g.high_water(), 7);
    }

    #[test]
    fn histogram_buckets_powers_of_two() {
        assert_eq!(LogHistogram::bucket_index(0), 0);
        assert_eq!(LogHistogram::bucket_index(1), 1);
        assert_eq!(LogHistogram::bucket_index(2), 2);
        assert_eq!(LogHistogram::bucket_index(3), 2);
        assert_eq!(LogHistogram::bucket_index(4), 3);
        assert_eq!(LogHistogram::bucket_index(u64::MAX), 64);
        let mut h = LogHistogram::new();
        for v in [0u64, 1, 2, 3, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1006);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(1000));
        assert_eq!(h.nonzero_buckets(), vec![(0, 1), (1, 1), (2, 2), (10, 1)]);
        assert_eq!(h.quantile(0.5), Some(3));
        assert_eq!(h.quantile(1.0), Some(1000));
    }

    #[test]
    fn histogram_merge_is_exact_and_associative() {
        let mut parts = Vec::new();
        for chunk in [[1u64, 5, 9], [2, 1023, 7], [0, 0, 64]] {
            let mut h = LogHistogram::new();
            for v in chunk {
                h.record(v);
            }
            parts.push(h);
        }
        // ((a + b) + c) vs (a + (b + c)).
        let mut left = parts[0].clone();
        left.merge(&parts[1]);
        left.merge(&parts[2]);
        let mut bc = parts[1].clone();
        bc.merge(&parts[2]);
        let mut right = parts[0].clone();
        right.merge(&bc);
        assert_eq!(left, right);
        // And against recording everything into one histogram.
        let mut whole = LogHistogram::new();
        for v in [1u64, 5, 9, 2, 1023, 7, 0, 0, 64] {
            whole.record(v);
        }
        assert_eq!(left, whole);
    }

    #[test]
    fn sketch_is_exact_below_capacity() {
        let mut s = QuantileSketch::new(64);
        for v in 1..=20u64 {
            s.record(v);
        }
        assert_eq!(s.count(), 20);
        assert_eq!(s.quantile(0.5), Some(10));
        assert_eq!(s.quantile(1.0), Some(20));
        assert_eq!(s.rank(10), 10);
    }

    #[test]
    fn sketch_rank_stays_within_reported_bound() {
        let mut s = QuantileSketch::new(64);
        let n = 10_000u64;
        for v in 0..n {
            // A deterministic non-monotone insertion order.
            s.record((v * 7919) % n);
        }
        assert_eq!(s.count(), n);
        let bound = s.rank_error_bound();
        assert!(bound < n / 4, "bound {bound} degenerate for n {n}");
        for q in [0.1, 0.5, 0.9, 0.99] {
            let v = s.quantile(q).unwrap();
            let target = (q * n as f64).ceil() as u64;
            // True rank of v in 0..n (values are distinct): v + 1.
            let true_rank = v + 1;
            assert!(
                true_rank.abs_diff(target) <= bound,
                "q {q}: value {v} true rank {true_rank} target {target} bound {bound}"
            );
        }
    }

    #[test]
    fn sketch_merge_matches_direct_feed_bounds() {
        let mut a = QuantileSketch::new(16);
        let mut b = QuantileSketch::new(16);
        for v in 0..500u64 {
            a.record(v);
        }
        for v in 500..1000u64 {
            b.record(v);
        }
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.count(), 1000);
        let bound = merged.rank_error_bound();
        let v = merged.quantile(0.5).unwrap();
        assert!(
            (v + 1).abs_diff(500) <= bound,
            "median {v} off by more than {bound}"
        );
        // Deterministic: merging the identical inputs again gives the
        // identical sketch.
        let mut merged2 = a.clone();
        merged2.merge(&b);
        assert_eq!(merged, merged2);
    }

    #[test]
    fn snapshot_merge_is_associative() {
        let make = |vals: &[u64], level: i64| {
            let mut m = Registry::default();
            let c = m.counter("n");
            let g = m.gauge("depth");
            let h = m.histogram("h");
            let s = m.sketch("s");
            for &v in vals {
                c.inc();
                g.set(level);
                h.record(v);
                s.record(v);
            }
            m.snapshot()
        };
        let a = make(&[1, 2, 3], 5);
        let b = make(&[10, 20], 9);
        let c = make(&[7], 2);
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a;
        right.merge(&bc);
        assert_eq!(left, right);
        assert_eq!(left.counters["n"], 6);
        assert_eq!(left.gauges["depth"].high_water, 9);
        assert_eq!(left.histograms["h"].count(), 6);
        assert_eq!(left.sketches["s"].count(), 6);
    }

    #[test]
    #[should_panic(expected = "even number")]
    fn odd_sketch_k_rejected() {
        QuantileSketch::new(3);
    }
}
