//! The simulator's one loss model, [`TraceLoss`]. Bursty loss is modelled
//! where traces are synthesised (`traces::GilbertElliott`), not here.

use rand::rngs::StdRng;
use rand::Rng;

use topology::LinkId;

use crate::{Packet, PacketBody, SeqNo};

/// The drop plan the simulator consults on every link crossing.
///
/// Drops *original data packets* on exactly the `(link, seq)` pairs of the
/// plan (the paper's `link` trace representation, §4.2/§4.3). Recovery
/// traffic (requests, replies, session messages) passes unharmed — the
/// paper's main lossless-recovery experiments — unless recovery rates are
/// set, which drop it independently per link (the paper's side experiment
/// from \[10\]).
///
/// The simulator consults the plan once per link crossing, *after*
/// counting the transmission (a dropped packet still consumed the link)
/// and *before* scheduling the arrival at the far end — i.e. a drop on
/// `l_{nn'}` means the packet was sent by `n` and never received by `n'`,
/// matching the paper's link-loss semantics (§4.2).
///
/// The plan is stored by sequence number, so its size is O(drops + highest
/// dropped sequence number) whatever the tree's size: the per-crossing
/// check of a data packet slices that packet's (usually empty) sorted list
/// of lossy links and searches it.
#[derive(Clone, Debug, Default)]
pub struct TraceLoss {
    /// `links[starts[s]..starts[s + 1]]` are the links (by head node id)
    /// that drop sequence `s`, sorted and distinct; `starts` is empty for
    /// an empty plan. Built in [`new`](Self::new), never mutated
    /// afterwards.
    starts: Vec<u32>,
    links: Vec<u32>,
    /// Per-link drop probability of non-data packets, indexed by the link
    /// head node; empty for lossless recovery.
    recovery_rates: Vec<f64>,
}

impl TraceLoss {
    /// Creates the loss plan from `(link, seq)` drop instructions; a
    /// repeated instruction counts once.
    pub fn new<I: IntoIterator<Item = (LinkId, SeqNo)>>(drops: I) -> Self {
        let mut pairs: Vec<(u64, u32)> = drops
            .into_iter()
            .map(|(link, seq)| (seq.0, link.0 .0))
            .collect();
        pairs.sort_unstable();
        pairs.dedup();
        let Some(&(last, _)) = pairs.last() else {
            return TraceLoss::default();
        };
        u32::try_from(pairs.len()).expect("drop plan overflow");
        let seqs = usize::try_from(last).expect("sequence number overflow") + 1;
        let mut starts = vec![0u32; seqs + 1];
        for &(seq, _) in &pairs {
            starts[seq as usize + 1] += 1;
        }
        for s in 1..starts.len() {
            starts[s] += starts[s - 1];
        }
        TraceLoss {
            starts,
            links: pairs.iter().map(|&(_, link)| link).collect(),
            recovery_rates: Vec::new(),
        }
    }

    /// The same data drops, plus independent loss for recovery traffic:
    /// a non-data packet crossing link `l` is dropped with probability
    /// `rates[l.index()]` (0 past the end; the root index has no incoming
    /// link), drawn from the sending node's stream — and only when that
    /// rate is positive, so a loss-free link leaves the stream untouched.
    ///
    /// # Panics
    ///
    /// Panics if any rate is outside `[0, 1]`.
    pub fn with_recovery_rates(self, rates: Vec<f64>) -> Self {
        assert!(
            rates.iter().all(|p| (0.0..=1.0).contains(p)),
            "link loss rates must lie in [0, 1]"
        );
        TraceLoss {
            recovery_rates: rates,
            ..self
        }
    }

    /// Number of scheduled data drops.
    pub fn len(&self) -> usize {
        self.links.len()
    }

    /// `true` iff no data drops are scheduled.
    pub fn is_empty(&self) -> bool {
        self.links.is_empty()
    }

    /// `true` iff the plan drops data sequence `seq` on `link`.
    pub fn contains(&self, link: LinkId, seq: SeqNo) -> bool {
        let s = usize::try_from(seq.0).unwrap_or(usize::MAX);
        match self.starts.get(s..s.saturating_add(2)) {
            Some(&[lo, hi]) => self.links[lo as usize..hi as usize]
                .binary_search(&link.0 .0)
                .is_ok(),
            _ => false,
        }
    }

    /// Returns `true` iff `packet` is dropped on `link` this crossing.
    /// `rng` yields the transmitting node's stream; it is called only when
    /// a draw is made (a non-data packet on a link of positive recovery
    /// rate).
    #[inline]
    pub fn should_drop<'r>(
        &self,
        link: LinkId,
        packet: &Packet,
        rng: impl FnOnce() -> &'r mut StdRng,
    ) -> bool {
        match &packet.body {
            PacketBody::Data { id } => self.contains(link, id.seq),
            _ => {
                let p = self
                    .recovery_rates
                    .get(link.index())
                    .copied()
                    .unwrap_or(0.0);
                p > 0.0 && rng().gen_bool(p)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use topology::NodeId;

    #[test]
    fn a_repeated_drop_counts_once() {
        let link = LinkId(NodeId(2));
        let l = TraceLoss::new([(link, SeqNo(5)), (link, SeqNo(5))]);
        assert_eq!(l.len(), 1);
        assert!(!l.is_empty());
        assert!(l.contains(link, SeqNo(5)));
        assert!(!l.contains(link, SeqNo(4)) && !l.contains(link, SeqNo(6)));
        assert!(!l.contains(LinkId(NodeId(9)), SeqNo(5)));
        assert!(TraceLoss::default().is_empty());
    }

    #[test]
    fn plan_size_does_not_grow_with_the_link_id() {
        let l = TraceLoss::new([(LinkId(NodeId(2_000_000)), SeqNo(0))]);
        assert!(l.contains(LinkId(NodeId(2_000_000)), SeqNo(0)));
        assert_eq!(
            l.starts.capacity() + l.links.capacity() + l.recovery_rates.capacity(),
            3,
            "one drop on link 2·10⁶ holds O(1) words"
        );
    }

    #[test]
    #[should_panic(expected = "must lie in [0, 1]")]
    fn invalid_rates_rejected() {
        let _ = TraceLoss::default().with_recovery_rates(vec![0.0, 1.5]);
    }
}
