//! Link loss processes. Every experiment replays an inferred per-link
//! drop plan ([`TraceLoss`], §4.2/§4.3), optionally with independent loss
//! on recovery traffic ([`ProbabilisticLoss`]). Bursty loss is modelled
//! where traces are synthesised (`traces::GilbertElliott`), not here.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use topology::{LinkId, NodeId};

use crate::{Packet, SeqNo};

/// One node's random stream, seeded from `(run seed, node)` on first use.
///
/// This is all of the simulator's randomness a [`LossProcess`] (or anything
/// else acting for a node) can reach: the stream of the node that acts. A
/// holder that never calls [`get`](NodeRng::get) costs nothing and leaves
/// the stream unseeded.
pub struct NodeRng<'a> {
    slot: &'a mut Option<StdRng>,
    run_seed: u64,
    node: NodeId,
}

impl<'a> NodeRng<'a> {
    /// The stream of `node` in a run seeded `run_seed`
    /// ([`NetConfig::seed`](crate::NetConfig::seed)), stored in `slot`.
    pub fn new(slot: &'a mut Option<StdRng>, run_seed: u64, node: NodeId) -> Self {
        NodeRng {
            slot,
            run_seed,
            node,
        }
    }

    /// The generator itself, seeding it if this is the stream's first draw.
    pub fn get(self) -> &'a mut StdRng {
        self.slot.get_or_insert_with(|| {
            let stride = 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(u64::from(self.node.0) + 1);
            StdRng::seed_from_u64(self.run_seed.wrapping_add(stride))
        })
    }
}

/// Decides whether a packet is dropped while crossing a link.
///
/// The simulator consults the loss process once per link crossing, *after*
/// counting the transmission (a dropped packet still consumed the link) and
/// *before* scheduling the arrival at the far end — i.e. a drop on `l_{nn'}`
/// means the packet was sent by `n` and never received by `n'`, matching the
/// paper's link-loss semantics (§4.2).
pub trait LossProcess {
    /// Returns `true` iff `packet` is dropped on `link` this crossing.
    /// `rng` is the transmitting node's stream.
    fn should_drop(&mut self, link: LinkId, packet: &Packet, rng: NodeRng<'_>) -> bool;
}

/// A loss process that never drops anything — the paper's "lossless
/// recovery" assumption applied to all traffic.
#[derive(Clone, Copy, Default, Debug)]
pub struct NoLoss;

impl LossProcess for NoLoss {
    fn should_drop(&mut self, _link: LinkId, _packet: &Packet, _rng: NodeRng<'_>) -> bool {
        false
    }
}

/// Trace-driven loss injection: drops *original data packets only*, on
/// exactly the `(link, seq)` pairs estimated from the transmission trace
/// (the paper's `link` trace representation, §4.2/§4.3). All recovery
/// traffic (requests, replies, session messages) passes unharmed, matching
/// the paper's main lossless-recovery experiments.
///
/// The plan is stored per link as a dense bitmap over the (0-based,
/// contiguous) sequence-number space, so the per-crossing check is one
/// bounds-checked word load and a bit test. Table 1's worst case (~149k
/// packets) costs ~19 KB per lossy link.
#[derive(Clone, Debug, Default)]
pub struct TraceLoss {
    /// `index[i]` is the drop bitmap of the link into node `i` (bit `s` set
    /// iff sequence `s` is doomed there); empty for loss-free links.
    /// Built in [`new`](Self::new), never mutated afterwards.
    index: Vec<Box<[u64]>>,
    /// Distinct `(link, seq)` drops in the plan.
    len: usize,
}

impl TraceLoss {
    /// Creates the loss plan from `(link, seq)` drop instructions; a
    /// repeated instruction counts once.
    pub fn new<I: IntoIterator<Item = (LinkId, SeqNo)>>(drops: I) -> Self {
        let mut bits: Vec<Vec<u64>> = Vec::new();
        let mut len = 0;
        for (link, seq) in drops {
            let i = link.index();
            if i >= bits.len() {
                bits.resize_with(i + 1, Vec::new);
            }
            let (word, bit) = ((seq.0 / 64) as usize, 1u64 << (seq.0 % 64));
            if word >= bits[i].len() {
                bits[i].resize(word + 1, 0);
            }
            len += usize::from(bits[i][word] & bit == 0);
            bits[i][word] |= bit;
        }
        let index = bits.into_iter().map(Vec::into_boxed_slice).collect();
        TraceLoss { index, len }
    }

    /// Number of scheduled drops.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` iff no drops are scheduled.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// `true` iff the plan drops sequence `seq` on `link`.
    pub fn contains(&self, link: LinkId, seq: SeqNo) -> bool {
        self.index
            .get(link.index())
            .and_then(|bits| bits.get((seq.0 / 64) as usize))
            .is_some_and(|word| word & (1u64 << (seq.0 % 64)) != 0)
    }
}

impl LossProcess for TraceLoss {
    fn should_drop(&mut self, link: LinkId, packet: &Packet, _rng: NodeRng<'_>) -> bool {
        match &packet.body {
            crate::PacketBody::Data { id } => self.contains(link, id.seq),
            _ => false,
        }
    }
}

/// Trace-driven loss for data plus independent probabilistic loss for
/// recovery traffic — the paper's side experiment (\[10\]) in which control
/// packets and retransmissions are also dropped according to the estimated
/// link loss rates.
#[derive(Clone, Debug)]
pub struct ProbabilisticLoss {
    trace: TraceLoss,
    /// Per-link drop probability for non-original-data packets, indexed by
    /// the link head node.
    link_rates: Vec<f64>,
}

impl ProbabilisticLoss {
    /// Combines a data-loss trace with per-link recovery loss rates.
    ///
    /// `link_rates[i]` is the drop probability of the link into node `i`
    /// (0.0 for the root index, which has no incoming link).
    ///
    /// # Panics
    ///
    /// Panics if any rate is outside `[0, 1]`.
    pub fn new(trace: TraceLoss, link_rates: Vec<f64>) -> Self {
        assert!(
            link_rates.iter().all(|p| (0.0..=1.0).contains(p)),
            "link loss rates must lie in [0, 1]"
        );
        ProbabilisticLoss { trace, link_rates }
    }

    /// The drop probability of `link` for recovery traffic.
    pub fn rate(&self, link: LinkId) -> f64 {
        self.link_rates.get(link.index()).copied().unwrap_or(0.0)
    }
}

impl LossProcess for ProbabilisticLoss {
    fn should_drop(&mut self, link: LinkId, packet: &Packet, rng: NodeRng<'_>) -> bool {
        match &packet.body {
            crate::PacketBody::Data { .. } => self.trace.should_drop(link, packet, rng),
            _ => {
                let p = self.rate(link);
                p > 0.0 && rng.get().gen_bool(p)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CastClass, NetConfig, PacketBody, PacketId, SimDuration, SimTime};

    fn rng(slot: &mut Option<StdRng>) -> NodeRng<'_> {
        NodeRng::new(slot, 1, NodeId(1))
    }

    fn data_packet(seq: u64) -> Packet {
        Packet {
            origin: NodeId::ROOT,
            cast: CastClass::Multicast,
            body: PacketBody::Data {
                id: PacketId {
                    source: NodeId::ROOT,
                    seq: SeqNo(seq),
                },
            },
        }
    }

    fn request_packet(seq: u64) -> Packet {
        Packet {
            origin: NodeId(1),
            cast: CastClass::Multicast,
            body: PacketBody::Request {
                id: PacketId {
                    source: NodeId::ROOT,
                    seq: SeqNo(seq),
                },
                requestor: NodeId(1),
                dist_req_src: SimDuration::ZERO,
            },
        }
    }

    #[test]
    fn no_loss_never_drops() {
        let mut slot = None;
        let mut l = NoLoss;
        assert!(!l.should_drop(LinkId(NodeId(1)), &data_packet(0), rng(&mut slot)));
    }

    #[test]
    fn trace_loss_drops_exactly_planned_data() {
        let mut slot = None;
        let link = LinkId(NodeId(2));
        let mut l = TraceLoss::new([(link, SeqNo(5)), (link, SeqNo(5))]);
        assert_eq!(l.len(), 1, "a repeated drop counts once");
        assert!(!l.is_empty());
        assert!(l.contains(link, SeqNo(5)));
        assert!(!l.contains(link, SeqNo(6)) && !l.contains(LinkId(NodeId(9)), SeqNo(5)));
        assert!(l.should_drop(link, &data_packet(5), rng(&mut slot)));
        assert!(!l.should_drop(link, &data_packet(6), rng(&mut slot)));
        assert!(!l.should_drop(LinkId(NodeId(3)), &data_packet(5), rng(&mut slot)));
        // Requests are never dropped by a trace plan, even on planned pairs.
        assert!(!l.should_drop(link, &request_packet(5), rng(&mut slot)));
        assert!(slot.is_none(), "a trace plan never seeds the stream");
    }

    #[test]
    fn probabilistic_loss_affects_only_recovery_traffic() {
        let mut slot = None;
        let rates = vec![0.0, 1.0];
        let mut l = ProbabilisticLoss::new(TraceLoss::default(), rates);
        let link = LinkId(NodeId(1));
        assert_eq!(l.rate(link), 1.0);
        // Data is governed by the (empty) trace: never dropped.
        assert!(!l.should_drop(link, &data_packet(0), rng(&mut slot)));
        // Recovery traffic on a rate-1.0 link always drops.
        assert!(slot.is_none(), "planned data draws nothing");
        assert!(l.should_drop(link, &request_packet(0), rng(&mut slot)));
        assert!(slot.is_some(), "the first draw seeds the sender's stream");
    }

    #[test]
    fn probabilistic_loss_zero_rate_never_drops() {
        let mut slot = None;
        let mut l = ProbabilisticLoss::new(TraceLoss::default(), vec![0.0, 0.0]);
        for seq in 0..100 {
            assert!(!l.should_drop(LinkId(NodeId(1)), &request_packet(seq), rng(&mut slot)));
        }
    }

    #[test]
    #[should_panic(expected = "must lie in [0, 1]")]
    fn invalid_rates_rejected() {
        ProbabilisticLoss::new(TraceLoss::default(), vec![0.0, 1.5]);
    }

    #[test]
    fn sanity_net_config_used_by_size_model_exists() {
        // Guards against accidentally breaking the re-export surface the
        // loss tests rely on.
        let _ = NetConfig::default();
        let _ = SimTime::ZERO;
    }
}
