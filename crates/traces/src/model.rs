use std::collections::BTreeMap;
use std::fmt;

use topology::{MulticastTree, NodeId};

/// A packed binary sequence, one bit per transmitted packet; bit `i` set
/// means the event (a loss) occurred for packet `i`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct BitSeq {
    len: usize,
    words: Vec<u64>,
}

impl BitSeq {
    /// Creates an all-zero sequence of `len` bits.
    pub fn new(len: usize) -> Self {
        BitSeq {
            len,
            words: vec![0; len.div_ceil(64)],
        }
    }

    /// [`new`](Self::new), or `None` when the allocator refuses the bits
    /// (where `new` would abort the process).
    pub(crate) fn try_new(len: usize) -> Option<Self> {
        // Ask without touching the memory, then let `new` allocate it
        // zeroed: untouched zero pages cost no resident memory.
        Vec::<u64>::new().try_reserve_exact(len.div_ceil(64)).ok()?;
        Some(BitSeq::new(len))
    }

    /// Number of bits.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` iff the sequence has zero bits.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Sets bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[inline]
    pub fn set(&mut self, i: usize) {
        assert!(i < self.len, "bit index {i} out of range");
        self.words[i / 64] |= 1 << (i % 64);
    }

    /// Reads bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of range");
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Bitwise AND with another sequence of the same length.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn and(&self, other: &BitSeq) -> BitSeq {
        assert_eq!(self.len, other.len, "length mismatch");
        BitSeq {
            len: self.len,
            words: self
                .words
                .iter()
                .zip(&other.words)
                .map(|(a, b)| a & b)
                .collect(),
        }
    }

    /// Bitwise AND-NOT (`self & !other`) with another sequence of the same
    /// length.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn and_not(&self, other: &BitSeq) -> BitSeq {
        assert_eq!(self.len, other.len, "length mismatch");
        BitSeq {
            len: self.len,
            words: self
                .words
                .iter()
                .zip(&other.words)
                .map(|(a, b)| a & !b)
                .collect(),
        }
    }

    /// Iterates over the indices of set bits, in increasing order.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut bits = w;
            std::iter::from_fn(move || {
                if bits == 0 {
                    None
                } else {
                    let b = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    Some(wi * 64 + b)
                }
            })
        })
    }
}

/// Per-trace metadata, mirroring a row of the paper's Table 1.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TraceMeta {
    /// Trace name, e.g. `"RFV960419"`.
    pub name: String,
    /// Packet transmission period in milliseconds (40 or 80 in Table 1).
    pub period_ms: u64,
    /// Number of packets transmitted, `k`.
    pub packets: usize,
    /// Total number of losses across all receivers.
    pub losses: usize,
}

impl TraceMeta {
    /// Transmission duration in seconds: `packets * period`.
    pub fn duration_secs(&self) -> f64 {
        self.packets as f64 * self.period_ms as f64 / 1e3
    }
}

impl fmt::Display for TraceMeta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} (period {} ms, {} pkts, {} losses)",
            self.name, self.period_ms, self.packets, self.losses
        )
    }
}

/// An IP multicast transmission trace: the paper's `loss : R → (I → {0,1})`
/// mapping over a static multicast tree (§4.1).
#[derive(Clone, PartialEq, Debug)]
pub struct Trace {
    tree: MulticastTree,
    meta: TraceMeta,
    /// Loss sequence per receiver, in `tree.receivers()` order.
    loss: Vec<BitSeq>,
    /// Receiver node id → row index in `loss`.
    row_of: BTreeMap<NodeId, usize>,
}

impl Trace {
    /// Assembles a trace, validating that `loss` has one row per receiver
    /// (in `tree.receivers()` order) of length `meta.packets`, and that
    /// `meta.losses` equals the total number of set bits.
    ///
    /// # Panics
    ///
    /// Panics on any dimension or count mismatch; traces are constructed by
    /// generators and loaders that must supply consistent data.
    pub fn new(tree: MulticastTree, meta: TraceMeta, loss: Vec<BitSeq>) -> Self {
        assert_eq!(
            loss.len(),
            tree.receivers().len(),
            "one loss row per receiver required"
        );
        for row in &loss {
            assert_eq!(row.len(), meta.packets, "loss rows must cover all packets");
        }
        let total: usize = loss.iter().map(BitSeq::count_ones).sum();
        assert_eq!(total, meta.losses, "meta.losses must match the loss matrix");
        let row_of = tree
            .receivers()
            .iter()
            .enumerate()
            .map(|(i, &r)| (r, i))
            .collect();
        Trace {
            tree,
            meta,
            loss,
            row_of,
        }
    }

    /// The multicast tree the transmission used.
    #[inline]
    pub fn tree(&self) -> &MulticastTree {
        &self.tree
    }

    /// Trace metadata (name, period, packet and loss counts).
    #[inline]
    pub fn meta(&self) -> &TraceMeta {
        &self.meta
    }

    /// Number of packets transmitted.
    #[inline]
    pub fn packets(&self) -> usize {
        self.meta.packets
    }

    /// `true` iff receiver `r` lost packet `i` — the paper's `loss(r)(i)`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is not a receiver of this trace or `i` is out of range.
    pub fn lost(&self, r: NodeId, i: usize) -> bool {
        let row = self.row_of[&r];
        self.loss[row].get(i)
    }

    /// The loss bit sequence of receiver `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is not a receiver of this trace.
    pub fn loss_seq(&self, r: NodeId) -> &BitSeq {
        &self.loss[self.row_of[&r]]
    }

    /// Total number of losses across all receivers.
    pub fn total_losses(&self) -> usize {
        self.meta.losses
    }

    /// Number of losses suffered by receiver `r`.
    pub fn losses_of(&self, r: NodeId) -> usize {
        self.loss_seq(r).count_ones()
    }

    /// The receivers that lost packet `i`, in id order — the paper's "loss
    /// pattern" of packet `i`.
    pub fn loss_pattern(&self, i: usize) -> Vec<NodeId> {
        self.tree
            .receivers()
            .iter()
            .copied()
            .filter(|&r| self.lost(r, i))
            .collect()
    }

    /// Iterates over packets with at least one loss, yielding
    /// `(packet index, loss pattern)`.
    pub fn lossy_packets(&self) -> impl Iterator<Item = (usize, Vec<NodeId>)> + '_ {
        (0..self.meta.packets).filter_map(move |i| {
            let pat = self.loss_pattern(i);
            if pat.is_empty() {
                None
            } else {
                Some((i, pat))
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use topology::TreeBuilder;

    fn small_tree() -> MulticastTree {
        let mut b = TreeBuilder::new();
        let r = b.add_router(b.root());
        b.add_receiver(r);
        b.add_receiver(r);
        b.build().unwrap()
    }

    fn meta(packets: usize, losses: usize) -> TraceMeta {
        TraceMeta {
            name: "TEST".into(),
            period_ms: 80,
            packets,
            losses,
        }
    }

    #[test]
    fn bitseq_set_get_count() {
        let mut b = BitSeq::new(130);
        assert_eq!(b.len(), 130);
        assert!(!b.is_empty());
        b.set(0);
        b.set(63);
        b.set(64);
        b.set(129);
        assert!(b.get(0) && b.get(63) && b.get(64) && b.get(129));
        assert!(!b.get(1) && !b.get(65));
        assert_eq!(b.count_ones(), 4);
        assert_eq!(b.iter_ones().collect::<Vec<_>>(), vec![0, 63, 64, 129]);
    }

    #[test]
    fn bitseq_bit_ops() {
        let mut a = BitSeq::new(70);
        let mut b = BitSeq::new(70);
        a.set(1);
        a.set(65);
        a.set(69);
        b.set(1);
        b.set(69);
        let and = a.and(&b);
        assert_eq!(and.iter_ones().collect::<Vec<_>>(), vec![1, 69]);
        let diff = a.and_not(&b);
        assert_eq!(diff.iter_ones().collect::<Vec<_>>(), vec![65]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn bitseq_and_length_checked() {
        BitSeq::new(10).and(&BitSeq::new(11));
    }

    #[test]
    fn bitseq_try_new_refuses_what_cannot_be_allocated() {
        assert_eq!(BitSeq::try_new(130), Some(BitSeq::new(130)));
        assert_eq!(BitSeq::try_new(usize::MAX), None);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bitseq_bounds_checked() {
        let b = BitSeq::new(10);
        b.get(10);
    }

    #[test]
    fn trace_accessors() {
        let tree = small_tree();
        let receivers: Vec<NodeId> = tree.receivers().to_vec();
        let mut l0 = BitSeq::new(4);
        l0.set(1);
        l0.set(2);
        let mut l1 = BitSeq::new(4);
        l1.set(2);
        let trace = Trace::new(tree, meta(4, 3), vec![l0, l1]);
        assert_eq!(trace.packets(), 4);
        assert_eq!(trace.total_losses(), 3);
        assert!(trace.lost(receivers[0], 1));
        assert!(!trace.lost(receivers[1], 1));
        assert_eq!(trace.losses_of(receivers[0]), 2);
        assert_eq!(trace.loss_pattern(2), receivers);
        assert_eq!(trace.loss_pattern(0), Vec::<NodeId>::new());
        let lossy: Vec<usize> = trace.lossy_packets().map(|(i, _)| i).collect();
        assert_eq!(lossy, vec![1, 2]);
    }

    #[test]
    fn meta_duration() {
        let m = meta(45_001, 0);
        assert!((m.duration_secs() - 3600.08).abs() < 1e-9);
        assert!(m.to_string().contains("TEST"));
    }

    #[test]
    #[should_panic(expected = "one loss row per receiver")]
    fn trace_rejects_missing_rows() {
        Trace::new(small_tree(), meta(4, 0), vec![BitSeq::new(4)]);
    }

    #[test]
    #[should_panic(expected = "must match the loss matrix")]
    fn trace_rejects_wrong_total() {
        Trace::new(
            small_tree(),
            meta(4, 5),
            vec![BitSeq::new(4), BitSeq::new(4)],
        );
    }
}
