//! White-box state-machine tests of the SRM engine: crafted packets are
//! injected directly into one agent and every externally visible action
//! (sends, their timing) is checked against §2's scheduling rules.
//!
//! The receiver under test has no session-estimated distances, so all
//! windows are based on [`SrmParams::default_distance`] (100 ms):
//! request round `k` fires within `2^k · [C1·d, (C1+C2)·d]`
//! `= 2^k · [200 ms, 400 ms]`, replies within `[D1·d, (D1+D2)·d]`
//! `= [100 ms, 200 ms]`.

use std::cell::RefCell;
use std::rc::Rc;

use metrics::{PacketKind, RecoveryLog};
use netsim::{
    CastClass, NetConfig, Packet, PacketBody, PacketId, RecoveryTuple, SeqNo, SimDuration,
    SimObserver, SimTime, Simulator,
};
use srm::{SrmAgent, SrmParams};
use topology::{MulticastTree, NodeId, TreeBuilder};

/// n0 (source) -> n1 (router) -> { n2, n3 } — the agent under test sits at
/// n2; n3 exists so the tree is non-trivial.
fn tree() -> MulticastTree {
    let mut b = TreeBuilder::new();
    let r = b.add_router(b.root());
    b.add_receiver(r);
    b.add_receiver(r);
    b.build().unwrap()
}

#[derive(Default)]
struct SendLog {
    sends: Vec<(SimTime, NodeId, PacketKind, CastClass)>,
}

impl SimObserver for SendLog {
    fn on_send(&mut self, now: SimTime, node: NodeId, packet: &Packet) {
        self.sends
            .push((now, node, PacketKind::of(packet), packet.cast));
    }
}

struct Fixture {
    sim: Simulator,
    sends: Rc<RefCell<SendLog>>,
    log: metrics::SharedRecoveryLog,
}

const ME: NodeId = NodeId(2);
const SOURCE: NodeId = NodeId(0);

/// One lone SRM receiver at n2; nothing else runs, so every event is ours.
fn fixture() -> Fixture {
    let log = RecoveryLog::shared();
    let sends = Rc::new(RefCell::new(SendLog::default()));
    let mut sim = Simulator::new(tree(), NetConfig::default().with_seed(42));
    sim.set_observer(Box::new(Rc::clone(&sends)));
    sim.attach_agent(
        ME,
        Box::new(SrmAgent::receiver(
            ME,
            SOURCE,
            SrmParams::paper_default(),
            log.clone(),
        )),
    );
    Fixture { sim, sends, log }
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

fn foreign_request(seq: u64, requestor: NodeId) -> Packet {
    Packet {
        origin: requestor,
        cast: CastClass::Multicast,
        body: PacketBody::Request {
            id: pid(seq),
            requestor,
            dist_req_src: SimDuration::from_millis(40),
        },
    }
}

fn foreign_reply(seq: u64, requestor: NodeId, replier: NodeId) -> Packet {
    Packet {
        origin: replier,
        cast: CastClass::Multicast,
        body: PacketBody::Reply {
            tuple: RecoveryTuple {
                id: pid(seq),
                requestor,
                dist_req_src: SimDuration::from_millis(40),
                replier,
                dist_rep_req: SimDuration::from_millis(40),
                turning_point: None,
            },
            expedited: false,
        },
    }
}

/// Milliseconds since the origin.
fn ms(t: SimTime) -> f64 {
    t.as_secs_f64() * 1e3
}

fn request_times(f: &Fixture) -> Vec<f64> {
    f.sends
        .borrow()
        .sends
        .iter()
        .filter(|(_, n, k, _)| *n == ME && *k == PacketKind::Request)
        .map(|(t, ..)| ms(*t))
        .collect()
}

fn reply_times(f: &Fixture) -> Vec<f64> {
    f.sends
        .borrow()
        .sends
        .iter()
        .filter(|(_, n, k, _)| *n == ME && *k == PacketKind::Reply)
        .map(|(t, ..)| ms(*t))
        .collect()
}

#[test]
fn request_rounds_double_per_paper_section_2_1() {
    let mut f = fixture();
    // Deliver packets 0 and 2 back to back: packet 1 is detected lost at
    // time 0 and the first request is scheduled in [200, 400] ms.
    f.sim.inject_packet(ME, NodeId(1), &data(0), None);
    f.sim.inject_packet(ME, NodeId(1), &data(2), None);
    assert!(f.log.borrow().detected(ME, pid(1)));
    // No reply ever comes: watch three full rounds.
    f.sim
        .run_until(SimTime::ZERO + SimDuration::from_millis(3_000));
    let reqs = request_times(&f);
    assert!(reqs.len() >= 3, "expected 3+ rounds, got {reqs:?}");
    let r0 = reqs[0];
    let gap1 = reqs[1] - reqs[0];
    let gap2 = reqs[2] - reqs[1];
    assert!((200.0..=400.0).contains(&r0), "round 0 at {r0} ms");
    assert!((400.0..=800.0).contains(&gap1), "round 1 gap {gap1} ms");
    assert!((800.0..=1600.0).contains(&gap2), "round 2 gap {gap2} ms");
}

#[test]
fn foreign_request_backs_off_to_the_next_round() {
    let mut f = fixture();
    f.sim.inject_packet(ME, NodeId(1), &data(0), None);
    f.sim.inject_packet(ME, NodeId(1), &data(2), None);
    // A request from n3 arrives before our round-0 timer fires: our request
    // is pushed to round 1, i.e. it fires at ≥ 400 ms rather than ≤ 400 ms
    // (the reschedule interval starts afresh at the reception instant).
    f.sim
        .inject_packet(ME, NodeId(1), &foreign_request(1, NodeId(3)), None);
    f.sim
        .run_until(SimTime::ZERO + SimDuration::from_millis(1_000));
    let reqs = request_times(&f);
    assert!(!reqs.is_empty());
    assert!(
        (400.0..=800.0).contains(&reqs[0]),
        "suppressed request fired at {} ms",
        reqs[0]
    );
}

#[test]
fn backoff_abstinence_limits_one_backoff_per_round() {
    let mut f = fixture();
    f.sim.inject_packet(ME, NodeId(1), &data(0), None);
    f.sim.inject_packet(ME, NodeId(1), &data(2), None);
    // Two foreign requests in the same instant: the second falls within the
    // back-off abstinence period (2^1 · C3 · d = 300 ms) and must not back
    // us off again — the request still fires within round 1's window.
    f.sim
        .inject_packet(ME, NodeId(1), &foreign_request(1, NodeId(3)), None);
    f.sim
        .inject_packet(ME, NodeId(1), &foreign_request(1, NodeId(3)), None);
    f.sim
        .run_until(SimTime::ZERO + SimDuration::from_millis(2_000));
    let reqs = request_times(&f);
    assert!(!reqs.is_empty());
    assert!(
        (400.0..=800.0).contains(&reqs[0]),
        "double-suppressed request fired at {} ms (round 2 would be ≥ 800)",
        reqs[0]
    );
}

#[test]
fn reply_scheduled_within_reply_window_and_annotated() {
    let mut f = fixture();
    // We hold packet 0; n3 requests it.
    f.sim.inject_packet(ME, NodeId(1), &data(0), None);
    f.sim
        .inject_packet(ME, NodeId(1), &foreign_request(0, NodeId(3)), None);
    f.sim
        .run_until(SimTime::ZERO + SimDuration::from_millis(1_000));
    let replies = reply_times(&f);
    assert_eq!(replies.len(), 1, "exactly one reply expected");
    assert!(
        (100.0..=200.0).contains(&replies[0]),
        "reply at {} ms outside [D1·d, (D1+D2)·d]",
        replies[0]
    );
    // The reply is annotated with the requestor's advertised distance.
    let sends = f.sends.borrow();
    let reply_cast = sends
        .sends
        .iter()
        .find(|(_, n, k, _)| *n == ME && *k == PacketKind::Reply)
        .map(|(_, _, _, c)| *c)
        .unwrap();
    assert_eq!(reply_cast, CastClass::Multicast);
}

#[test]
fn hearing_a_reply_cancels_our_scheduled_reply() {
    let mut f = fixture();
    f.sim.inject_packet(ME, NodeId(1), &data(0), None);
    f.sim
        .inject_packet(ME, NodeId(1), &foreign_request(0, NodeId(3)), None);
    // Someone else answers before our reply timer fires.
    f.sim
        .run_until(SimTime::ZERO + SimDuration::from_millis(50));
    f.sim
        .inject_packet(ME, NodeId(1), &foreign_reply(0, NodeId(3), NodeId(0)), None);
    f.sim
        .run_until(SimTime::ZERO + SimDuration::from_millis(1_000));
    assert!(reply_times(&f).is_empty(), "our reply must be suppressed");
}

#[test]
fn reply_abstinence_discards_duplicate_requests() {
    let mut f = fixture();
    f.sim.inject_packet(ME, NodeId(1), &data(0), None);
    f.sim
        .inject_packet(ME, NodeId(1), &foreign_request(0, NodeId(3)), None);
    // Let our reply fire (≤ 200 ms), then a duplicate request arrives
    // within the abstinence period D3·d(we→requestor): discarded.
    f.sim
        .run_until(SimTime::ZERO + SimDuration::from_millis(210));
    assert_eq!(reply_times(&f).len(), 1);
    f.sim
        .inject_packet(ME, NodeId(1), &foreign_request(0, NodeId(3)), None);
    f.sim
        .run_until(SimTime::ZERO + SimDuration::from_millis(320));
    assert_eq!(
        reply_times(&f).len(),
        1,
        "abstinence must swallow the duplicate request"
    );
}

#[test]
fn recovery_via_reply_cancels_pending_request() {
    let mut f = fixture();
    f.sim.inject_packet(ME, NodeId(1), &data(0), None);
    f.sim.inject_packet(ME, NodeId(1), &data(2), None);
    // The repair arrives before our request timer (≥ 200 ms) fires.
    f.sim
        .run_until(SimTime::ZERO + SimDuration::from_millis(50));
    f.sim
        .inject_packet(ME, NodeId(1), &foreign_reply(1, NodeId(3), NodeId(0)), None);
    f.sim
        .run_until(SimTime::ZERO + SimDuration::from_millis(2_000));
    assert!(request_times(&f).is_empty(), "request must be cancelled");
    let log = f.log.borrow();
    assert_eq!(log.unrecovered(), 0);
    let rec = log.records().next().unwrap();
    assert!(!rec.expedited);
    assert_eq!(rec.id, pid(1));
}

#[test]
fn session_report_detects_tail_loss() {
    let mut f = fixture();
    f.sim.inject_packet(ME, NodeId(1), &data(0), None);
    // A session message from n3 reveals packets up to 3 exist.
    let session = Packet {
        origin: NodeId(3),
        cast: CastClass::Multicast,
        body: PacketBody::session(NodeId(3), SimTime::ZERO, Some(SeqNo(3)), Vec::new()),
    };
    f.sim.inject_packet(ME, NodeId(1), &session, None);
    assert!(f.log.borrow().detected(ME, pid(1)));
    assert!(f.log.borrow().detected(ME, pid(2)));
    assert!(f.log.borrow().detected(ME, pid(3)));
    assert!(!f.log.borrow().detected(ME, pid(0)));
}

#[test]
fn session_echo_establishes_distance() {
    let mut f = fixture();
    // Let our own session message go out first (jittered within 1 s), then
    // run a further full period so the send is comfortably in the past —
    // the jitter draw may land arbitrarily close to the 1 s mark, and the
    // held_for arithmetic below needs at least 80 ms of elapsed time.
    f.sim.run_until(SimTime::ZERO + SimDuration::from_secs(2));
    let our_session_at = f
        .sends
        .borrow()
        .sends
        .iter()
        .find(|(_, n, k, _)| *n == ME && *k == PacketKind::Session)
        .map(|(t, ..)| *t)
        .expect("agent sent a session message");
    // The source echoes it back, claiming to have held our message just
    // long enough that the unaccounted time is 80 ms → RTT 80 ms →
    // d̂ = 40 ms.
    let now = f.sim.now();
    let held_for = (now - our_session_at) - SimDuration::from_millis(80);
    let echo = Packet {
        origin: SOURCE,
        cast: CastClass::Multicast,
        body: PacketBody::Session(netsim::SessionData {
            member: SOURCE,
            sent_at: now,
            highest_seq: None,
            about: None,
            echoes: vec![netsim::SessionEcho {
                peer: ME,
                sent_at: our_session_at,
                held_for,
            }],
        }),
    };
    f.sim.inject_packet(ME, NodeId(1), &echo, None);
    let agent = f.sim.agent_as::<SrmAgent>(ME).unwrap();
    assert_eq!(
        agent.core().dist_to(SOURCE),
        Some(SimDuration::from_millis(40))
    );
}

#[test]
fn endpoint_fits_its_byte_budget() {
    // At 10⁵ receivers the endpoint struct *is* the memory bill
    // (docs/SCALING.md): everything run-constant lives in the block the
    // endpoints share, and the small per-loss maps are inline. Growing the
    // struct should be a decision, not an accident — raise the bound with
    // the new `reproduce scale` RSS figure in hand.
    assert!(
        std::mem::size_of::<SrmAgent>() <= 488,
        "SrmAgent grew to {} bytes",
        std::mem::size_of::<SrmAgent>()
    );
}

#[test]
fn endpoints_from_one_factory_share_their_configuration() {
    let log = RecoveryLog::shared();
    let receivers =
        srm::SrmEndpoints::new(SOURCE, SrmParams::paper_default(), srm::Role::Receiver, log);
    let (a, b) = (receivers.agent(ME), receivers.agent(NodeId(3)));
    assert!(std::ptr::eq(a.core().params(), b.core().params()));
    assert_eq!(a.state_bytes(), std::mem::size_of::<SrmAgent>());
}
