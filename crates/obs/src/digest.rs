//! Hierarchical run digests over the canonical trace-event stream.
//!
//! A [`DigestRecorder`] rides the run's [`crate::Instruments`]
//! ([`crate::Setup::digest`]) and folds every emitted
//! [`Record`] into a deterministic 64-bit digest at the finest useful
//! granularity: the *(epoch, node, time-bucket)* leaf. Coarser digests —
//! per node, per time bucket, per epoch, per run — are derived from the
//! leaves on demand, so a divergence between two runs can be bisected
//! top-down (run → shard → epoch → node × bucket) instead of staring at an
//! md5 mismatch on a finished CSV (`docs/DEBUGGING.md` walks through it).
//!
//! # Shard-count invariance
//!
//! Leaves combine *commutatively*: a leaf digest is the wrapping sum of
//! the per-record hashes that landed in it, so merging the per-shard
//! recorders of a sharded run ([`DigestSnapshot::merge`]) yields exactly
//! the digest an unsharded run computes — the event *multiset* per (epoch,
//! node, bucket) window is what the determinism guarantee pins down, not
//! the interleaving of independent nodes within a window. Every derived
//! level digest is an order-dependent `FxHasher`-fold over the leaves in
//! canonical `(epoch, node, bucket)` order, which is itself invariant.
//!
//! # Cost
//!
//! One [`DigestRecorder::observe`] is a record hash (a handful of
//! multiply-xor folds) plus two threshold compares and a scan of the few
//! nodes active in the current window — records arrive in nondecreasing
//! sim-time order, so windows close monotonically and the canonical
//! `(epoch, node, bucket)` sort happens once, at
//! [`DigestRecorder::snapshot`]. This is tens of nanoseconds per
//! *emitted* trace event, never per simulator event; the budget is
//! audited by `reproduce --overhead digest` (the same A/B loop and noise
//! floor as the monitor gate — `docs/DEBUGGING.md` has the
//! measured numbers).

use std::hash::Hasher;

use crate::event::{Field, Record};
use crate::fxhash::FxHasher;

/// Default epoch width for unsharded (suite) runs: 1 s of simulation time.
/// Sharded scale runs use the runner's conservative lookahead instead, so
/// epoch boundaries match the barrier cadence (and stay a pure function of
/// the topology, independent of the shard count).
pub const DEFAULT_EPOCH_NS: u64 = 1_000_000_000;

/// Default time-bucket width: 100 ms of simulation time. Fine enough to
/// pin a divergence to a readable window ("t=1.0–1.1 s"), coarse enough
/// that the leaf set stays sparse.
pub const DEFAULT_BUCKET_NS: u64 = 100_000_000;

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

/// One `(epoch, node, time-bucket)` leaf: the commutative digest of every
/// record attributed to that window.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LeafDigest {
    /// Epoch index (`t_ns / epoch_ns`).
    pub epoch: u64,
    /// Node the records were attributed to ([`crate::Event::node`]).
    pub node: u32,
    /// Time-bucket index (`t_ns / bucket_ns`; buckets are global, not
    /// relative to the epoch).
    pub bucket: u64,
    /// Wrapping sum of the per-record [`hash_record`] values.
    pub hash: u64,
    /// Records folded into this leaf.
    pub count: u64,
}

impl LeafDigest {
    fn key(&self) -> (u64, u32, u64) {
        (self.epoch, self.node, self.bucket)
    }
}

/// A digest over one named level of the hierarchy (an epoch, a node within
/// an epoch, a bucket within an epoch, or the whole run).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LevelDigest {
    /// Order-dependent `FxHasher` fold over the constituent leaves in
    /// canonical `(epoch, node, bucket)` order.
    pub hash: u64,
    /// Total records under this level.
    pub count: u64,
}

/// Plain-data, `Send` snapshot of a [`DigestRecorder`]: the sorted leaf
/// digests plus the granularity they were recorded at. Snapshots from the
/// shards of one run merge ([`DigestSnapshot::merge`]) into exactly the
/// snapshot an unsharded run records.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DigestSnapshot {
    /// Epoch width the leaves were bucketed with, nanoseconds.
    pub epoch_ns: u64,
    /// Time-bucket width, nanoseconds.
    pub bucket_ns: u64,
    /// Every non-empty leaf, sorted by `(epoch, node, bucket)`.
    pub leaves: Vec<LeafDigest>,
}

fn fold_level<'a, I: Iterator<Item = &'a LeafDigest>>(leaves: I) -> LevelDigest {
    let mut h = FxHasher::default();
    let mut count = 0u64;
    for leaf in leaves {
        h.write_u64(leaf.epoch);
        h.write_u32(leaf.node);
        h.write_u64(leaf.bucket);
        h.write_u64(leaf.hash);
        h.write_u64(leaf.count);
        count += leaf.count;
    }
    LevelDigest {
        hash: h.finish(),
        count,
    }
}

impl DigestSnapshot {
    /// Total records folded across every leaf.
    pub fn count(&self) -> u64 {
        self.leaves.iter().map(|l| l.count).sum()
    }

    /// The whole-run digest: a fold over every leaf in canonical order.
    pub fn run_digest(&self) -> LevelDigest {
        fold_level(self.leaves.iter())
    }

    /// Epoch indices present, ascending.
    pub fn epochs(&self) -> Vec<u64> {
        let mut out: Vec<u64> = self.leaves.iter().map(|l| l.epoch).collect();
        out.dedup();
        out
    }

    /// The digest of one epoch (identity fold when the epoch is absent).
    pub fn epoch_digest(&self, epoch: u64) -> LevelDigest {
        fold_level(self.leaves.iter().filter(|l| l.epoch == epoch))
    }

    /// Per-node digests within one epoch, sorted by node id.
    pub fn nodes_in_epoch(&self, epoch: u64) -> Vec<(u32, LevelDigest)> {
        // Leaves are (epoch, node, bucket)-sorted, so the epoch's leaves
        // form node-contiguous spans.
        let leaves: Vec<&LeafDigest> = self.leaves.iter().filter(|l| l.epoch == epoch).collect();
        let mut out = Vec::new();
        let mut i = 0;
        while i < leaves.len() {
            let node = leaves[i].node;
            let mut j = i;
            while j < leaves.len() && leaves[j].node == node {
                j += 1;
            }
            out.push((node, fold_level(leaves[i..j].iter().copied())));
            i = j;
        }
        out
    }

    /// Digests grouped by an arbitrary node partition (e.g. the scale
    /// runner's root-subtree groups, which are a pure function of the
    /// topology and therefore shard-count-invariant). Nodes `group_of`
    /// maps to the same id fold together; groups are returned sorted by
    /// id, each folding its leaves in canonical order.
    pub fn group_digests<F: Fn(u32) -> u32>(&self, group_of: F) -> Vec<(u32, LevelDigest)> {
        let mut grouped: Vec<(u32, Vec<&LeafDigest>)> = Vec::new();
        for leaf in &self.leaves {
            let g = group_of(leaf.node);
            match grouped.binary_search_by_key(&g, |&(id, _)| id) {
                Ok(i) => grouped[i].1.push(leaf),
                Err(i) => grouped.insert(i, (g, vec![leaf])),
            }
        }
        grouped
            .into_iter()
            .map(|(id, leaves)| (id, fold_level(leaves.into_iter())))
            .collect()
    }

    /// Merges another snapshot (e.g. a sibling shard's) into this one.
    /// Leaf sums combine by wrapping addition, so merging is commutative
    /// and associative — any merge order yields the same snapshot.
    ///
    /// # Panics
    /// Panics when the two snapshots were recorded at different
    /// granularities (there is no meaningful combination).
    pub fn merge(&mut self, other: &DigestSnapshot) {
        if self.leaves.is_empty() && self.epoch_ns == 0 {
            self.epoch_ns = other.epoch_ns;
            self.bucket_ns = other.bucket_ns;
        }
        if !other.leaves.is_empty() || other.epoch_ns != 0 {
            assert!(
                self.epoch_ns == other.epoch_ns && self.bucket_ns == other.bucket_ns,
                "cannot merge digests of different granularity"
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
/// into its `(epoch, node, bucket)` leaf. Per-run owned state, like every
/// other observability attachment — never shared across runs or shards.
#[derive(Clone, Debug)]
pub struct DigestRecorder {
    epoch_ns: u64,
    bucket_ns: u64,
    /// The `(epoch, bucket)` window currently being folded, with its
    /// exclusive time bounds. Records arrive in nondecreasing sim-time
    /// order, so window membership is two threshold compares — the two
    /// `u64` divisions per record of the naive keying were a measured
    /// chunk of the digest's hot-path cost.
    epoch: u64,
    epoch_end_ns: u64,
    bucket: u64,
    bucket_end_ns: u64,
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
        Self::new(DEFAULT_EPOCH_NS, DEFAULT_BUCKET_NS)
    }
}

impl DigestRecorder {
    /// A recorder with explicit epoch and bucket widths (both clamped to
    /// at least 1 ns).
    pub fn new(epoch_ns: u64, bucket_ns: u64) -> Self {
        DigestRecorder {
            epoch_ns: epoch_ns.max(1),
            bucket_ns: bucket_ns.max(1),
            epoch: 0,
            epoch_end_ns: 0, // forces window init on the first record
            bucket: 0,
            bucket_end_ns: 0,
            active: Vec::new(),
            slots: Vec::new(),
            closed: Vec::new(),
        }
    }

    /// Closes the current window, moving its per-node accumulators into
    /// `closed`.
    fn flush_active(&mut self) {
        let (epoch, bucket) = (self.epoch, self.bucket);
        for &(node, _, _) in &self.active {
            self.slots[node as usize] = 0;
        }
        self.closed
            .extend(self.active.drain(..).map(|(node, hash, count)| LeafDigest {
                epoch,
                node,
                bucket,
                hash,
                count,
            }));
    }

    /// Re-derives the window bounds for time `t_ns` (one division per
    /// boundary crossed per run — not per record).
    #[cold]
    fn advance_window(&mut self, t_ns: u64) {
        self.flush_active();
        self.epoch = t_ns / self.epoch_ns;
        self.epoch_end_ns = (self.epoch + 1).saturating_mul(self.epoch_ns);
        self.bucket = t_ns / self.bucket_ns;
        self.bucket_end_ns = (self.bucket + 1).saturating_mul(self.bucket_ns);
    }

    /// Folds one record into its leaf.
    #[inline]
    pub fn observe(&mut self, record: &Record) {
        // A bucket can straddle an epoch boundary (scale mode uses the
        // lookahead as the epoch width, which need not be a bucket
        // multiple), so both thresholds gate the same window. Time going
        // *backwards* (out-of-order input through the public API) also
        // lands here; the duplicate leaves it can close twice are merged
        // at snapshot time.
        if record.t_ns >= self.bucket_end_ns
            || record.t_ns >= self.epoch_end_ns
            || record.t_ns < self.bucket_end_ns.saturating_sub(self.bucket_ns)
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

    /// The plain-data snapshot: every window folded so far, canonically
    /// sorted by `(epoch, node, bucket)`.
    pub fn snapshot(&self) -> DigestSnapshot {
        let mut leaves = self.closed.clone();
        let (epoch, bucket) = (self.epoch, self.bucket);
        leaves.extend(self.active.iter().map(|&(node, hash, count)| LeafDigest {
            epoch,
            node,
            bucket,
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
            epoch_ns: self.epoch_ns,
            bucket_ns: self.bucket_ns,
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
    fn leaves_land_in_their_windows() {
        let mut r = DigestRecorder::new(1_000, 100);
        r.observe(&rec(50, 1, 0)); // epoch 0, bucket 0
        r.observe(&rec(150, 1, 1)); // epoch 0, bucket 1
        r.observe(&rec(1_250, 2, 2)); // epoch 1, bucket 12
        let snap = r.snapshot();
        let keys: Vec<(u64, u32, u64)> = snap.leaves.iter().map(LeafDigest::key).collect();
        assert_eq!(keys, vec![(0, 1, 0), (0, 1, 1), (1, 2, 12)]);
        assert_eq!(snap.count(), 3);
        assert_eq!(snap.epochs(), vec![0, 1]);
        assert_eq!(snap.nodes_in_epoch(0).len(), 1);
    }

    #[test]
    fn merge_is_order_free_and_matches_a_single_recorder() {
        let records = [rec(10, 1, 0), rec(20, 2, 1), rec(30, 1, 2), rec(40, 3, 3)];
        let mut whole = DigestRecorder::new(1_000, 100);
        for r in &records {
            whole.observe(r);
        }
        // Split the stream across two "shards" by node parity.
        let mut a = DigestRecorder::new(1_000, 100);
        let mut b = DigestRecorder::new(1_000, 100);
        for r in &records {
            if r.event.node() % 2 == 0 {
                a.observe(r);
            } else {
                b.observe(r);
            }
        }
        let mut ab = a.snapshot();
        ab.merge(&b.snapshot());
        let mut ba = b.snapshot();
        ba.merge(&a.snapshot());
        assert_eq!(ab, whole.snapshot());
        assert_eq!(ba, whole.snapshot());
        assert_eq!(ab.run_digest(), whole.snapshot().run_digest());
    }

    #[test]
    fn a_single_flipped_record_moves_exactly_one_leaf() {
        let mut a = DigestRecorder::new(1_000, 100);
        let mut b = DigestRecorder::new(1_000, 100);
        for r in [rec(10, 1, 0), rec(1_150, 2, 1), rec(2_250, 3, 2)] {
            a.observe(&r);
            b.observe(&r);
        }
        b.observe(&rec(1_160, 2, 9)); // extra event in epoch 1, node 2, bucket 11
        let (sa, sb) = (a.snapshot(), b.snapshot());
        assert_ne!(sa.run_digest(), sb.run_digest());
        assert_eq!(sa.epoch_digest(0), sb.epoch_digest(0));
        assert_ne!(sa.epoch_digest(1), sb.epoch_digest(1));
        assert_eq!(sa.epoch_digest(2), sb.epoch_digest(2));
        let (na, nb) = (sa.nodes_in_epoch(1), sb.nodes_in_epoch(1));
        assert_ne!(na, nb);
        assert_eq!(na[0].0, 2, "the divergent node is node 2");
    }

    #[test]
    fn group_digests_partition_the_leaves() {
        let mut r = DigestRecorder::new(1_000, 100);
        for rec_ in [rec(10, 1, 0), rec(20, 2, 1), rec(30, 5, 2)] {
            r.observe(&rec_);
        }
        let snap = r.snapshot();
        let groups = snap.group_digests(|node| node / 4);
        assert_eq!(groups.len(), 2, "nodes 1,2 in group 0; node 5 in group 1");
        assert_eq!(groups[0].0, 0);
        assert_eq!(groups[1].0, 1);
        let total: u64 = groups.iter().map(|(_, d)| d.count).sum();
        assert_eq!(total, snap.count());
    }
}
