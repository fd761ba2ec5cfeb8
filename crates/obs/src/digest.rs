//! Run digests over the canonical trace-event stream.
//!
//! A [`DigestRecorder`] rides the run's [`crate::Instruments`]
//! ([`crate::Setup::digest`]) and folds every emitted [`Record`] into a
//! deterministic 64-bit digest per *(window, node)* leaf: the records one
//! node emitted inside one fixed-width slice of simulated time. The leaves
//! are the whole trail; the run digest is a fold over them, and two runs
//! are compared by one merge-join over their sorted leaves
//! ([`DigestSnapshot::first_divergence`]), which names the earliest
//! divergent window and, within it, the lowest divergent node
//! (`docs/DEBUGGING.md` walks through it).
//!
//! # Shard-count invariance
//!
//! Leaves combine *commutatively*: a leaf digest is the wrapping sum of
//! the per-record hashes that landed in it, so merging the per-shard
//! recorders of a sharded run ([`DigestSnapshot::merge`]) yields exactly
//! the digest an unsharded run computes — the event *multiset* per
//! (window, node) leaf is what the determinism guarantee pins down, not
//! the interleaving of independent nodes within a window. The run digest
//! is an order-dependent `FxHasher`-fold over the leaves in canonical
//! `(window, node)` order, which is itself invariant.
//!
//! # Cost
//!
//! One [`DigestRecorder::observe`] is a record hash (a handful of
//! multiply-xor folds) plus two threshold compares and a dense-slot
//! update — records arrive in nondecreasing sim-time order, so windows
//! close monotonically and the canonical `(window, node)` sort happens
//! once, at [`DigestRecorder::snapshot`]. This is tens of nanoseconds per
//! *emitted* trace event, never per simulator event; the budget is
//! audited by `reproduce --overhead digest` (the same A/B loop and noise
//! floor as the monitor gate — `docs/DEBUGGING.md` has the measured
//! numbers).

use std::hash::Hasher;

use crate::event::{Field, Record};
use crate::fxhash::FxHasher;

/// Default window width: 100 ms of simulation time. Fine enough to pin a
/// divergence to a readable window ("t=1.0–1.1 s"), coarse enough that the
/// leaf set stays sparse. Scale rungs use the finer of this and the
/// sharding lookahead.
pub const DEFAULT_WINDOW_NS: u64 = 100_000_000;

/// Canonical 64-bit hash of one record: simulation time, variant tag, and
/// every field, folded through the deterministic `FxHasher`. Any change
/// to any field of any event yields a different hash (up to 64-bit
/// collisions), so a single flipped event perturbs its leaf digest.
pub fn hash_record(record: &Record) -> u64 {
    let mut h = FxHasher::default();
    h.write_u64(record.t_ns);
    h.write_u64(record.event.kind() as u64);
    record.event.fields(|_, field| match field {
        Field::Id(v) => h.write_u32(v),
        Field::U64(v) => h.write_u64(v),
        // The presence tag keeps `None` and `Some(0)` apart.
        Field::Seq(seq) => {
            h.write_u64(u64::from(seq.is_some()));
            if let Some(v) = seq {
                h.write_u64(v);
            }
        }
        Field::Class(class) => h.write_u64(class as u64),
        Field::Cast(cast) => h.write_u64(cast as u64),
        Field::Flag(v) => h.write_u64(u64::from(v)),
    });
    h.finish()
}

/// One `(window, node)` leaf: the commutative digest of every record
/// attributed to that node inside that window.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LeafDigest {
    /// Window index (`t_ns / window_ns`).
    pub window: u64,
    /// Node the records were attributed to ([`crate::Event::node`]).
    pub node: u32,
    /// Wrapping sum of the per-record [`hash_record`] values.
    pub hash: u64,
    /// Records folded into this leaf.
    pub count: u64,
}

impl LeafDigest {
    /// The canonical sort key: time-major, then node.
    pub fn key(&self) -> (u64, u32) {
        (self.window, self.node)
    }
}

/// The first leaf two snapshots disagree on
/// ([`DigestSnapshot::first_divergence`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LeafDiff {
    /// Window index of the divergent leaf.
    pub window: u64,
    /// Node of the divergent leaf.
    pub node: u32,
    /// `(digest, records)` of the leaf on side A; `None` when only side B
    /// has it.
    pub a: Option<(u64, u64)>,
    /// Same for side B.
    pub b: Option<(u64, u64)>,
}

/// Plain-data, `Send` snapshot of a [`DigestRecorder`]: the sorted leaf
/// digests plus the window width they were recorded at. Snapshots from the
/// shards of one run merge ([`DigestSnapshot::merge`]) into exactly the
/// snapshot an unsharded run records.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DigestSnapshot {
    /// Window width the leaves were keyed with, nanoseconds.
    pub window_ns: u64,
    /// Every non-empty leaf, sorted by `(window, node)`.
    pub leaves: Vec<LeafDigest>,
}

impl DigestSnapshot {
    /// Total records folded across every leaf.
    pub fn count(&self) -> u64 {
        self.leaves.iter().map(|l| l.count).sum()
    }

    /// The whole-run digest: an order-dependent fold over every leaf in
    /// canonical order.
    pub fn run_digest(&self) -> u64 {
        let mut h = FxHasher::default();
        for leaf in &self.leaves {
            h.write_u64(leaf.window);
            h.write_u32(leaf.node);
            h.write_u64(leaf.hash);
            h.write_u64(leaf.count);
        }
        h.finish()
    }

    /// The first `(window, node)` leaf, in canonical order, whose
    /// `(digest, records)` differ between `self` (side A) and `other`
    /// (side B) or that only one side has; `None` when every leaf agrees.
    /// One merge-join over the two sorted leaf lists, so the earliest
    /// divergent window is reported first. Both snapshots must share one
    /// window width.
    pub fn first_divergence(&self, other: &DigestSnapshot) -> Option<LeafDiff> {
        let (mut i, mut j) = (0, 0);
        loop {
            let (a, b) = (self.leaves.get(i), other.leaves.get(j));
            let (window, node) = match (a, b) {
                (None, None) => return None,
                (Some(x), Some(y)) if x == y => {
                    i += 1;
                    j += 1;
                    continue;
                }
                (Some(x), Some(y)) => x.key().min(y.key()),
                (Some(x), None) => x.key(),
                (None, Some(y)) => y.key(),
            };
            let side = |leaf: Option<&LeafDigest>| {
                leaf.filter(|l| l.key() == (window, node))
                    .map(|l| (l.hash, l.count))
            };
            return Some(LeafDiff {
                window,
                node,
                a: side(a),
                b: side(b),
            });
        }
    }

    /// Merges another snapshot (e.g. a sibling shard's) into this one.
    /// Leaf sums combine by wrapping addition, so merging is commutative
    /// and associative — any merge order yields the same snapshot.
    ///
    /// # Panics
    /// Panics when the two snapshots were recorded at different window
    /// widths (there is no meaningful combination).
    pub fn merge(&mut self, other: &DigestSnapshot) {
        if self.leaves.is_empty() && self.window_ns == 0 {
            self.window_ns = other.window_ns;
        }
        if !other.leaves.is_empty() || other.window_ns != 0 {
            assert!(
                self.window_ns == other.window_ns,
                "cannot merge digests of different window widths"
            );
        }
        for leaf in &other.leaves {
            match self
                .leaves
                .binary_search_by_key(&leaf.key(), LeafDigest::key)
            {
                Ok(i) => {
                    self.leaves[i].hash = self.leaves[i].hash.wrapping_add(leaf.hash);
                    self.leaves[i].count += leaf.count;
                }
                Err(i) => self.leaves.insert(i, *leaf),
            }
        }
    }
}

/// The recorder [`crate::Instruments`] feeds: folds every emitted record
/// into its `(window, node)` leaf. Per-run owned state, like every other
/// observability attachment — never shared across runs or shards.
#[derive(Clone, Debug)]
pub struct DigestRecorder {
    window_ns: u64,
    /// The window currently being folded, with its exclusive end. Records
    /// arrive in nondecreasing sim-time order, so window membership is two
    /// threshold compares — a `u64` division per record was a measured
    /// chunk of the digest's hot-path cost.
    window: u64,
    window_end_ns: u64,
    /// Per-node `(node, hash, count)` accumulators inside the current
    /// window, flushed into `closed` when the window advances.
    active: Vec<(u32, u64, u64)>,
    /// `node → slot+1` into `active`, valid for the current window only
    /// (reset entry-by-entry at flush). A dense index because a busy
    /// window touches dozens of nodes — a linear scan here was a
    /// measured chunk of the per-record cost. Sized to the highest node
    /// id seen (4 B per node; recorders are per-run/per-shard and
    /// opt-in).
    slots: Vec<u32>,
    /// Closed leaves, in window-close order; canonically sorted (and
    /// duplicate-merged, for non-monotone input) at [`Self::snapshot`].
    /// An always-sorted structure here was measured to dominate digest
    /// overhead — scale rungs have millions of windows.
    closed: Vec<LeafDigest>,
}

impl Default for DigestRecorder {
    fn default() -> Self {
        Self::new(DEFAULT_WINDOW_NS)
    }
}

impl DigestRecorder {
    /// A recorder keying leaves by windows `window_ns` wide (clamped to at
    /// least 1 ns).
    pub fn new(window_ns: u64) -> Self {
        DigestRecorder {
            window_ns: window_ns.max(1),
            window: 0,
            window_end_ns: 0, // forces window init on the first record
            active: Vec::new(),
            slots: Vec::new(),
            closed: Vec::new(),
        }
    }

    /// Closes the current window and re-derives the bounds for time
    /// `t_ns` (one division per window boundary crossed — not per record).
    #[cold]
    fn advance_window(&mut self, t_ns: u64) {
        let window = self.window;
        for (node, hash, count) in self.active.drain(..) {
            self.slots[node as usize] = 0;
            self.closed.push(LeafDigest {
                window,
                node,
                hash,
                count,
            });
        }
        self.window = t_ns / self.window_ns;
        self.window_end_ns = (self.window + 1).saturating_mul(self.window_ns);
    }

    /// Folds one record into its leaf.
    #[inline]
    pub fn observe(&mut self, record: &Record) {
        // Time going *backwards* (out-of-order input through the public
        // API) also lands here; the duplicate leaves it can close twice
        // are merged at snapshot time.
        if record.t_ns >= self.window_end_ns
            || record.t_ns < self.window_end_ns.saturating_sub(self.window_ns)
        {
            self.advance_window(record.t_ns);
        }
        let hash = hash_record(record);
        let node = record.event.node();
        let idx = node as usize;
        if idx >= self.slots.len() {
            self.slots.resize(idx + 1, 0);
        }
        match self.slots[idx] {
            0 => {
                self.active.push((node, hash, 1));
                self.slots[idx] = u32::try_from(self.active.len()).expect("window node count");
            }
            slot => {
                let (_, acc, count) = &mut self.active[slot as usize - 1];
                *acc = acc.wrapping_add(hash);
                *count += 1;
            }
        }
    }

    /// The plain-data snapshot: every leaf folded so far, canonically
    /// sorted by `(window, node)`.
    pub fn snapshot(&self) -> DigestSnapshot {
        let mut leaves = self.closed.clone();
        let window = self.window;
        leaves.extend(self.active.iter().map(|&(node, hash, count)| LeafDigest {
            window,
            node,
            hash,
            count,
        }));
        leaves.sort_unstable_by_key(LeafDigest::key);
        // Non-monotone input can close the same window twice; fold the
        // now-adjacent duplicates so the snapshot is input-order
        // independent.
        leaves.dedup_by(|dup, kept| {
            if dup.key() == kept.key() {
                kept.hash = kept.hash.wrapping_add(dup.hash);
                kept.count += dup.count;
                true
            } else {
                false
            }
        });
        DigestSnapshot {
            window_ns: self.window_ns,
            leaves,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, PacketClass};

    fn rec(t_ns: u64, node: u32, seq: u64) -> Record {
        Record {
            t_ns,
            event: Event::LossDetected { node, seq },
        }
    }

    fn snapshot_of(records: &[Record]) -> DigestSnapshot {
        let mut r = DigestRecorder::new(100);
        for record in records {
            r.observe(record);
        }
        r.snapshot()
    }

    #[test]
    fn record_hash_distinguishes_every_field() {
        let base = rec(1_000, 2, 7);
        assert_eq!(hash_record(&base), hash_record(&rec(1_000, 2, 7)));
        assert_ne!(hash_record(&base), hash_record(&rec(1_001, 2, 7)));
        assert_ne!(hash_record(&base), hash_record(&rec(1_000, 3, 7)));
        assert_ne!(hash_record(&base), hash_record(&rec(1_000, 2, 8)));
        // Different variants with identical scalars must differ too.
        let spurious = Record {
            t_ns: 1_000,
            event: Event::SpuriousLoss { node: 2, seq: 7 },
        };
        assert_ne!(hash_record(&base), hash_record(&spurious));
    }

    #[test]
    fn seq_option_tag_prevents_aliasing() {
        let none = Record {
            t_ns: 5,
            event: Event::PacketDropped {
                link: 1,
                class: PacketClass::Data,
                seq: None,
            },
        };
        let zero = Record {
            t_ns: 5,
            event: Event::PacketDropped {
                link: 1,
                class: PacketClass::Data,
                seq: Some(0),
            },
        };
        assert_ne!(hash_record(&none), hash_record(&zero));
    }

    #[test]
    fn leaves_land_in_their_windows_time_major() {
        let snap = snapshot_of(&[
            rec(50, 2, 0),
            rec(60, 1, 1),
            rec(150, 1, 2),
            rec(1_250, 2, 3),
        ]);
        let keys: Vec<(u64, u32)> = snap.leaves.iter().map(LeafDigest::key).collect();
        assert_eq!(keys, vec![(0, 1), (0, 2), (1, 1), (12, 2)]);
        assert_eq!(snap.count(), 4);
        assert_eq!(snap.window_ns, 100);
    }

    #[test]
    fn out_of_order_input_folds_into_one_leaf() {
        let in_order = snapshot_of(&[rec(10, 1, 0), rec(20, 1, 1), rec(150, 1, 2)]);
        let shuffled = snapshot_of(&[rec(10, 1, 0), rec(150, 1, 2), rec(20, 1, 1)]);
        assert_eq!(in_order, shuffled);
    }

    #[test]
    fn merge_is_order_free_and_matches_a_single_recorder() {
        let records = [rec(10, 1, 0), rec(20, 2, 1), rec(30, 1, 2), rec(140, 3, 3)];
        let whole = snapshot_of(&records);
        // Split the stream across two "shards" by node parity.
        let (even, odd): (Vec<Record>, Vec<Record>) =
            records.iter().partition(|r| r.event.node() % 2 == 0);
        let (a, b) = (snapshot_of(&even), snapshot_of(&odd));
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);
        assert_eq!(ab, whole);
        assert_eq!(ba, whole);
        assert_eq!(ab.run_digest(), whole.run_digest());
    }

    #[test]
    fn first_divergence_names_the_earliest_window_first() {
        let base = [rec(10, 5, 0), rec(1_150, 2, 1), rec(2_250, 3, 2)];
        let a = snapshot_of(&base);
        assert_eq!(a.first_divergence(&a), None);
        // An extra event at node 9 in window 11, and a changed one at node
        // 3 in window 22: the earlier window wins although its node is
        // higher.
        let mut changed = base.to_vec();
        changed[2] = rec(2_250, 3, 7);
        changed.insert(2, rec(1_160, 9, 9));
        let b = snapshot_of(&changed);
        assert_ne!(a.run_digest(), b.run_digest());
        let diff = a.first_divergence(&b).expect("snapshots differ");
        assert_eq!((diff.window, diff.node), (11, 9));
        assert_eq!(diff.a, None, "the leaf exists only on side B");
        assert_eq!(diff.b.map(|(_, records)| records), Some(1));
        let back = b.first_divergence(&a).expect("symmetric");
        assert_eq!(
            (back.window, back.node, back.a, back.b),
            (11, 9, diff.b, None)
        );
    }

    #[test]
    fn first_divergence_reports_both_sides_of_a_changed_leaf() {
        let a = snapshot_of(&[rec(10, 1, 0), rec(20, 1, 1)]);
        let b = snapshot_of(&[rec(10, 1, 0), rec(20, 1, 2)]);
        let diff = a.first_divergence(&b).expect("snapshots differ");
        assert_eq!((diff.window, diff.node), (0, 1));
        assert_eq!(diff.a, Some((a.leaves[0].hash, 2)));
        assert_eq!(diff.b, Some((b.leaves[0].hash, 2)));
    }
}
