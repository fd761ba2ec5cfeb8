use metrics::SharedRecoveryLog;
use netsim::{Agent, Context, DeliveryMeta, Packet, TimerToken};
use srm::SourceConfig;
use topology::NodeId;

use crate::{CesrmAgent, CesrmConfig};

/// Role of a group member with respect to one transmission stream.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum StreamRole {
    /// This member originates the stream.
    Source(SourceConfig),
    /// This member receives the stream.
    Receiver,
}

/// A member of a *multi-source* reliable multicast group — the SRM "wb"
/// whiteboard setting in which several members transmit and everyone
/// recovers everyone's losses.
///
/// Paper §3.1: "Each host maintains a collection of per-source
/// requestor/replier caches, one for each source from which it receives
/// packets." `GroupMember` composes one complete CESRM endpoint per stream:
/// caches, expedition state and sequence spaces stay strictly per source,
/// and packets are routed to the endpoint of their `PacketId::source` (the
/// endpoints themselves ignore foreign-stream traffic).
///
/// Session state reports are tagged with the stream they describe
/// ([`netsim::SessionData::about`]); session *distance* estimation runs per
/// endpoint. Aggregating the per-stream session messages of one member into
/// a single packet is a wire-format optimization this reproduction leaves
/// out (control packets are 0-byte in the paper's model, so it would not
/// change any measured quantity).
pub struct GroupMember {
    endpoints: Vec<(NodeId, CesrmAgent)>,
}

impl GroupMember {
    /// Creates a member at node `me` participating in the given streams:
    /// for each `(source, role)`, a full CESRM endpoint.
    ///
    /// # Panics
    ///
    /// Panics if a [`StreamRole::Source`] entry names a source other than
    /// `me`, if a stream is listed twice, or if `streams` is empty.
    pub fn new(
        me: NodeId,
        cfg: CesrmConfig,
        log: &SharedRecoveryLog,
        streams: &[(NodeId, StreamRole)],
    ) -> Self {
        assert!(!streams.is_empty(), "a member needs at least one stream");
        let mut endpoints = Vec::with_capacity(streams.len());
        for &(source, role) in streams {
            assert!(
                !endpoints.iter().any(|(s, _)| *s == source),
                "stream {source} listed twice"
            );
            let agent = match role {
                StreamRole::Source(source_cfg) => {
                    assert_eq!(source, me, "only {me} itself can originate its stream here");
                    CesrmAgent::source(me, cfg, source_cfg, log.clone())
                }
                StreamRole::Receiver => CesrmAgent::receiver(me, source, cfg, log.clone()),
            };
            endpoints.push((source, agent));
        }
        GroupMember { endpoints }
    }

    /// The endpoint handling the stream originated by `source`, if this
    /// member participates in it.
    pub fn endpoint(&self, source: NodeId) -> Option<&CesrmAgent> {
        self.endpoints
            .iter()
            .find(|(s, _)| *s == source)
            .map(|(_, a)| a)
    }

    /// Number of streams this member participates in.
    pub fn stream_count(&self) -> usize {
        self.endpoints.len()
    }
}

impl Agent for GroupMember {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        for (_, agent) in &mut self.endpoints {
            agent.on_start(ctx);
        }
    }

    fn on_packet(&mut self, ctx: &mut Context<'_>, packet: &Packet, meta: &DeliveryMeta) {
        // Every endpoint sees every packet; each one's SRM engine filters
        // by its stream's source. Session messages (no subject) reach all
        // endpoints — they carry the member-to-member distance echoes.
        for (_, agent) in &mut self.endpoints {
            agent.on_packet(ctx, packet, meta);
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, token: TimerToken) {
        for (_, agent) in &mut self.endpoints {
            if agent.handle_timer(ctx, token) {
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metrics::{PacketKind, RecoveryLog, TrafficCollector};
    use netsim::{NetConfig, SeqNo, SimDuration, SimTime, Simulator, TraceLoss};
    use std::cell::RefCell;
    use std::rc::Rc;
    use topology::{LinkId, MulticastTree, TreeBuilder};

    /// n0 (source A) -> n1 -> { n2, n3 -> { n4, n5 } }, n0 -> n6 (source B).
    fn tree() -> MulticastTree {
        let mut b = TreeBuilder::new();
        let r1 = b.add_router(b.root());
        b.add_receiver(r1);
        let r3 = b.add_router(r1);
        b.add_receiver(r3);
        b.add_receiver(r3);
        b.add_receiver(b.root());
        b.build().unwrap()
    }

    const A: NodeId = NodeId(0);
    const B: NodeId = NodeId(6);

    fn source_cfg(packets: u64) -> SourceConfig {
        SourceConfig {
            packets,
            period: SimDuration::from_millis(80),
            start_at: SimTime::ZERO + SimDuration::from_secs(5),
        }
    }

    struct Run {
        sim: Simulator,
        log: metrics::SharedRecoveryLog,
        collector: Rc<RefCell<TrafficCollector>>,
    }

    /// Two concurrent streams: A (the root) and B (receiver n6). Everyone
    /// participates in both. Losses hit stream A below n3 and stream B on
    /// n2's tail link.
    fn run() -> Run {
        let tree = tree();
        let log = RecoveryLog::shared();
        let collector = Rc::new(RefCell::new(TrafficCollector::new()));
        let mut sim = Simulator::new(tree, NetConfig::default().with_seed(8));
        sim.set_observer(Box::new(Rc::clone(&collector)));
        let mut drops: Vec<(LinkId, SeqNo)> = (10..40)
            .step_by(5)
            .map(|i| (LinkId(NodeId(3)), SeqNo(i)))
            .collect();
        // Stream B's packets also cross these links; the TraceLoss plan
        // drops by (link, seq) regardless of source, which loses some B
        // packets below n3 too — realistic shared-fate behaviour.
        drops.extend((12..40).step_by(7).map(|i| (LinkId(NodeId(2)), SeqNo(i))));
        sim.set_loss(TraceLoss::new(drops));
        let cfg = CesrmConfig::paper_default();
        for n in [A, NodeId(2), NodeId(4), NodeId(5), B] {
            let streams: Vec<(NodeId, StreamRole)> = [A, B]
                .iter()
                .map(|&s| {
                    if s == n {
                        (s, StreamRole::Source(source_cfg(50)))
                    } else {
                        (s, StreamRole::Receiver)
                    }
                })
                .collect();
            sim.attach_agent(n, Box::new(GroupMember::new(n, cfg, &log, &streams)));
        }
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(60));
        Run {
            sim,
            log,
            collector,
        }
    }

    #[test]
    fn both_streams_fully_recover() {
        let r = run();
        let log = r.log.borrow();
        assert!(!log.is_empty());
        assert_eq!(log.unrecovered(), 0);
        // Losses were detected in both sequence spaces.
        assert!(log.records().any(|rec| rec.id.source == A));
        assert!(log.records().any(|rec| rec.id.source == B));
        // Both streams produced original data.
        assert_eq!(r.collector.borrow().total_sends(PacketKind::Data), 100);
    }

    #[test]
    fn caches_are_per_source() {
        let r = run();
        // n4 lost packets of both streams (links into n3 and into n4's
        // path); its endpoints keep separate caches.
        let member = r
            .sim
            .agent_as::<GroupMember>(NodeId(4))
            .expect("group member attached");
        assert_eq!(member.stream_count(), 2);
        let cache_a = member.endpoint(A).unwrap().cache();
        assert!(
            !cache_a.is_empty(),
            "stream A losses must have populated A's cache"
        );
        for t in cache_a.iter() {
            assert_eq!(t.id.source, A, "A's cache must only hold A's packets");
        }
        if let Some(cache_b) = member.endpoint(B).map(CesrmAgent::cache) {
            for t in cache_b.iter() {
                assert_eq!(t.id.source, B);
            }
        }
    }

    #[test]
    fn expedited_recoveries_happen_in_multi_source_groups() {
        let r = run();
        let expedited = r.log.borrow().records().filter(|x| x.expedited).count();
        assert!(expedited > 0, "caching must still expedite");
        assert!(r.collector.borrow().total_sends(PacketKind::ExpeditedReply) > 0);
    }

    #[test]
    fn member_reception_is_complete_per_stream() {
        let r = run();
        for n in [NodeId(2), NodeId(4), NodeId(5)] {
            let member = r.sim.agent_as::<GroupMember>(n).unwrap();
            for s in [A, B] {
                let core = member.endpoint(s).unwrap().core();
                for seq in 0..50 {
                    assert!(core.has(SeqNo(seq)), "member {n} is missing {s}#{seq}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "listed twice")]
    fn duplicate_stream_rejected() {
        let log = RecoveryLog::shared();
        GroupMember::new(
            NodeId(2),
            CesrmConfig::paper_default(),
            &log,
            &[(A, StreamRole::Receiver), (A, StreamRole::Receiver)],
        );
    }

    #[test]
    #[should_panic(expected = "at least one stream")]
    fn empty_streams_rejected() {
        let log = RecoveryLog::shared();
        GroupMember::new(NodeId(2), CesrmConfig::paper_default(), &log, &[]);
    }

    #[test]
    #[should_panic(expected = "can originate its stream")]
    fn foreign_source_role_rejected() {
        let log = RecoveryLog::shared();
        GroupMember::new(
            NodeId(2),
            CesrmConfig::paper_default(),
            &log,
            &[(A, StreamRole::Source(source_cfg(1)))],
        );
    }
}
