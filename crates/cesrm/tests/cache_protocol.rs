//! White-box tests of CESRM's caching and expedition mechanics (§3.1–§3.2),
//! driving a single agent with crafted packets.

use std::cell::RefCell;
use std::rc::Rc;

use cesrm::{CesrmAgent, CesrmConfig};
use metrics::RecoveryLog;
use netsim::{
    Agent, CastClass, Context, DeliveryMeta, NetConfig, Packet, PacketBody, PacketId,
    RecoveryTuple, SeqNo, SimDuration, SimTime, Simulator, TimerToken,
};
use obs::{Cast, PacketClass};
use topology::{MulticastTree, NodeId, TreeBuilder};

/// n0 (source) -> n1 (router) -> { n2 (agent under test), n3 }.
fn tree() -> MulticastTree {
    let mut b = TreeBuilder::new();
    let r = b.add_router(b.root());
    b.add_receiver(r);
    b.add_receiver(r);
    b.build().unwrap()
}

const ME: NodeId = NodeId(2);
const PEER: NodeId = NodeId(3);
const SOURCE: NodeId = NodeId(0);

struct Fixture {
    sim: Simulator,
    /// The simulator's observation handle: it captures the `sent` record
    /// of every packet but a session message.
    sent: obs::Instruments,
    log: metrics::SharedRecoveryLog,
}

impl Fixture {
    /// `(time, class, cast)` of every packet [`ME`] sent since the last
    /// call, sessions excepted.
    fn sends(&self) -> Vec<(SimTime, PacketClass, Cast)> {
        self.sent
            .drain()
            .iter()
            .filter_map(|r| match r.event {
                obs::Event::PacketSent {
                    node, class, cast, ..
                } if NodeId(node) == ME => Some((SimTime::from_nanos(r.t_ns), class, cast)),
                _ => None,
            })
            .collect()
    }

    /// Whether [`ME`] sent a packet of `class` since the last call.
    fn has_sent(&self, class: PacketClass) -> bool {
        self.sends().iter().any(|&(_, k, _)| k == class)
    }
}

fn fixture(cfg: CesrmConfig) -> Fixture {
    let log = RecoveryLog::shared();
    let sent = obs::Instruments::memory();
    let mut sim = Simulator::new(tree(), NetConfig::default().with_seed(5));
    sim.set_obs(sent.clone());
    sim.attach_agent(
        ME,
        Box::new(CesrmAgent::receiver(ME, SOURCE, cfg, log.clone())),
    );
    Fixture { sim, sent, log }
}

/// Records every packet delivered to the node it sits at, with the
/// neighbour it arrived from.
struct Sink(Rc<RefCell<Vec<(Packet, NodeId)>>>);

impl Agent for Sink {
    fn on_packet(&mut self, _: &mut Context<'_>, packet: &Packet, meta: &DeliveryMeta) {
        self.0.borrow_mut().push((packet.clone(), meta.prev_hop));
    }
    fn on_timer(&mut self, _: &mut Context<'_>, _: TimerToken) {}
}

fn pid(seq: u64) -> PacketId {
    PacketId {
        source: SOURCE,
        seq: SeqNo(seq),
    }
}

fn data(seq: u64) -> Packet {
    Packet {
        origin: SOURCE,
        cast: CastClass::Multicast,
        body: PacketBody::Data { id: pid(seq) },
    }
}

fn reply(seq: u64, requestor: NodeId, replier: NodeId, d_qs_ms: u64, d_rq_ms: u64) -> Packet {
    Packet {
        origin: replier,
        cast: CastClass::Multicast,
        body: PacketBody::Reply {
            tuple: RecoveryTuple {
                id: pid(seq),
                requestor,
                dist_req_src: SimDuration::from_millis(d_qs_ms),
                replier,
                dist_rep_req: SimDuration::from_millis(d_rq_ms),
                turning_point: None,
            },
            expedited: false,
        },
    }
}

fn expedited_request(seq: u64, requestor: NodeId) -> Packet {
    Packet {
        origin: requestor,
        cast: CastClass::Unicast,
        body: PacketBody::ExpeditedRequest {
            id: pid(seq),
            requestor,
            dist_req_src: SimDuration::from_millis(40),
            turning_point: None,
        },
    }
}

fn agent(sim: &Simulator) -> &CesrmAgent {
    sim.agent_as::<CesrmAgent>(ME).expect("agent attached")
}

#[test]
fn observed_reply_populates_cache_only_for_suffered_losses() {
    let mut f = fixture(CesrmConfig::paper_default());
    // We receive 0 and 2, losing 1.
    f.sim.inject_packet(ME, NodeId(1), &data(0), None);
    f.sim.inject_packet(ME, NodeId(1), &data(2), None);
    // A reply for packet 2 (which we *received*) must be discarded (§3.1).
    f.sim
        .inject_packet(ME, NodeId(1), &reply(2, PEER, SOURCE, 40, 40), None);
    assert!(agent(&f.sim).cache().is_empty());
    // A reply for packet 1 (which we lost) is cached.
    f.sim
        .inject_packet(ME, NodeId(1), &reply(1, PEER, SOURCE, 40, 40), None);
    let cache = agent(&f.sim).cache();
    assert_eq!(cache.len(), 1);
    assert_eq!(cache.most_recent().unwrap().pair(), (PEER, SOURCE));
    assert_eq!(f.log.borrow().unrecovered(), 0);
}

#[test]
fn cache_keeps_optimal_pair_per_packet() {
    let mut f = fixture(CesrmConfig::paper_default());
    f.sim.inject_packet(ME, NodeId(1), &data(0), None);
    f.sim.inject_packet(ME, NodeId(1), &data(2), None);
    // First reply: delay 40 + 2·40 = 120 ms.
    f.sim
        .inject_packet(ME, NodeId(1), &reply(1, PEER, SOURCE, 40, 40), None);
    // A duplicate reply with a better pair: 20 + 2·10 = 40 ms.
    f.sim
        .inject_packet(ME, NodeId(1), &reply(1, ME, PEER, 20, 10), None);
    let t = *agent(&f.sim).cache().most_recent().unwrap();
    assert_eq!(t.pair(), (ME, PEER));
    assert_eq!(t.recovery_delay(), SimDuration::from_millis(40));
    // A worse pair afterwards is ignored.
    f.sim
        .inject_packet(ME, NodeId(1), &reply(1, PEER, SOURCE, 100, 100), None);
    assert_eq!(
        agent(&f.sim).cache().most_recent().unwrap().pair(),
        (ME, PEER)
    );
}

#[test]
fn expeditious_requestor_unicasts_to_cached_replier() {
    let mut f = fixture(CesrmConfig::paper_default());
    let at_peer = Rc::new(RefCell::new(Vec::new()));
    f.sim
        .attach_agent(PEER, Box::new(Sink(Rc::clone(&at_peer))));
    f.sim.inject_packet(ME, NodeId(1), &data(0), None);
    f.sim.inject_packet(ME, NodeId(1), &data(2), None);
    // Teach the cache that WE are the requestor and PEER the replier.
    f.sim
        .inject_packet(ME, NodeId(1), &reply(1, ME, PEER, 20, 10), None);
    // New loss: 3 (detected via 4).
    f.sim.inject_packet(ME, NodeId(1), &data(4), None);
    // REORDER-DELAY is 0: the expedited request goes out at once; run a
    // little longer so its hops propagate to the replier.
    let sent_at = f.sim.now();
    f.sim.run_until(sent_at + SimDuration::from_millis(100));
    let expedited: Vec<_> = f
        .sends()
        .into_iter()
        .filter(|&(_, k, _)| k == PacketClass::ExpeditedRequest)
        .collect();
    assert_eq!(expedited.len(), 1, "one expedited request for loss 3");
    assert_eq!(expedited[0].2, Cast::Unicast);
    // The unicast is routed towards PEER: down the link from n1 into n3.
    assert!(
        at_peer.borrow().iter().any(|(p, prev_hop)| {
            p.body.class() == PacketClass::ExpeditedRequest && *prev_hop == NodeId(1)
        }),
        "request must travel to the cached replier"
    );
}

#[test]
fn no_expedition_when_cached_requestor_is_someone_else() {
    let mut f = fixture(CesrmConfig::paper_default());
    f.sim.inject_packet(ME, NodeId(1), &data(0), None);
    f.sim.inject_packet(ME, NodeId(1), &data(2), None);
    // Cached pair names PEER as the requestor.
    f.sim
        .inject_packet(ME, NodeId(1), &reply(1, PEER, SOURCE, 40, 40), None);
    f.sim.inject_packet(ME, NodeId(1), &data(4), None);
    f.sim
        .run_until(SimTime::ZERO + SimDuration::from_millis(10));
    assert!(
        !f.has_sent(PacketClass::ExpeditedRequest),
        "only the cached requestor expedites"
    );
}

#[test]
fn expeditious_replier_answers_immediately_when_it_holds_the_packet() {
    let mut f = fixture(CesrmConfig::paper_default());
    f.sim.inject_packet(ME, NodeId(1), &data(0), None);
    let before = f.sim.now();
    f.sim
        .inject_packet(ME, NodeId(1), &expedited_request(0, PEER), None);
    let sent: Vec<_> = f
        .sends()
        .into_iter()
        .filter(|&(_, k, _)| k == PacketClass::ExpeditedReply)
        .collect();
    assert_eq!(sent.len(), 1, "expedited reply expected");
    assert_eq!(
        sent[0].0, before,
        "no suppression delay on expedited replies"
    );
    assert_eq!(sent[0].2, Cast::Multicast);
}

#[test]
fn expeditious_replier_stays_silent_when_it_shares_the_loss() {
    let mut f = fixture(CesrmConfig::paper_default());
    // We never received packet 0.
    f.sim
        .inject_packet(ME, NodeId(1), &expedited_request(0, PEER), None);
    f.sim
        .run_until(SimTime::ZERO + SimDuration::from_millis(500));
    assert!(
        !f.has_sent(PacketClass::ExpeditedReply),
        "cannot retransmit what we do not have"
    );
}

#[test]
fn expedited_reply_blocked_while_normal_reply_pending() {
    let mut f = fixture(CesrmConfig::paper_default());
    f.sim.inject_packet(ME, NodeId(1), &data(0), None);
    // A normal (multicast) request schedules our reply...
    let foreign_request = Packet {
        origin: PEER,
        cast: CastClass::Multicast,
        body: PacketBody::Request {
            id: pid(0),
            requestor: PEER,
            dist_req_src: SimDuration::from_millis(40),
        },
    };
    f.sim.inject_packet(ME, NodeId(1), &foreign_request, None);
    // ...so an expedited request for the same packet is discarded (§3.2:
    // "a reply for packet i is neither scheduled nor pending").
    f.sim
        .inject_packet(ME, NodeId(1), &expedited_request(0, PEER), None);
    assert!(
        !f.has_sent(PacketClass::ExpeditedReply),
        "expedited reply must be suppressed while a reply is scheduled"
    );
}

#[test]
fn reorder_delay_cancels_on_late_arrival() {
    let cfg = CesrmConfig {
        reorder_delay: SimDuration::from_millis(100),
        ..CesrmConfig::paper_default()
    };
    let mut f = fixture(cfg);
    f.sim.inject_packet(ME, NodeId(1), &data(0), None);
    f.sim.inject_packet(ME, NodeId(1), &data(2), None);
    f.sim
        .inject_packet(ME, NodeId(1), &reply(1, ME, PEER, 20, 10), None);
    // Loss of 3 detected via 4; the expedited request is armed for +100 ms.
    f.sim.inject_packet(ME, NodeId(1), &data(4), None);
    // The "lost" packet shows up 50 ms later (it was just reordered).
    f.sim
        .run_until(SimTime::ZERO + SimDuration::from_millis(50));
    f.sim.inject_packet(ME, NodeId(1), &data(3), None);
    f.sim
        .run_until(SimTime::ZERO + SimDuration::from_millis(500));
    assert!(
        !f.has_sent(PacketClass::ExpeditedRequest),
        "REORDER-DELAY must cancel the extraneous expedited request"
    );
}

#[test]
fn endpoint_fits_its_byte_budget() {
    // See the SRM twin of this test: the struct is the per-receiver memory
    // bill at scale, so it only grows on purpose.
    assert!(
        std::mem::size_of::<CesrmAgent>() <= 600,
        "CesrmAgent grew to {} bytes",
        std::mem::size_of::<CesrmAgent>()
    );
    // A fresh endpoint owns nothing but itself.
    let agent = CesrmAgent::receiver(
        ME,
        SOURCE,
        CesrmConfig::paper_default(),
        RecoveryLog::shared(),
    );
    assert_eq!(agent.state_bytes(), std::mem::size_of::<CesrmAgent>());
}
