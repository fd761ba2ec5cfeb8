//! Integration tests for the extension features beyond the paper's core
//! evaluation: adaptive SRM timers, packet reordering with `REORDER-DELAY`,
//! the LMS baseline and the churn comparison.

use std::cell::RefCell;
use std::rc::Rc;

use cesrm::{CesrmAgent, CesrmConfig};
use lms::{LmsConfig, LmsReceiver, LmsSource, ReplierTable};
use metrics::{PacketKind, RecoveryLog, TrafficCollector};
use netsim::{NetConfig, SeqNo, SimDuration, SimTime, Simulator, TraceLoss};
use srm::{AdaptiveTimers, SourceConfig, SrmAgent, SrmParams};
use topology::{LinkId, MulticastTree, NodeId, TreeBuilder};

/// n0 (source) -> n1 -> { n2, n3 -> { n4, n5 } }, n0 -> n6.
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

fn shared_drops() -> Vec<(LinkId, SeqNo)> {
    // Shared losses below n1 plus solo losses for n6, spread out.
    let mut v: Vec<(LinkId, SeqNo)> = (10..60)
        .step_by(5)
        .map(|i| (LinkId(NodeId(1)), SeqNo(i)))
        .collect();
    v.extend((12..60).step_by(7).map(|i| (LinkId(NodeId(6)), SeqNo(i))));
    v
}

fn source_cfg(packets: u64) -> SourceConfig {
    SourceConfig {
        packets,
        period: SimDuration::from_millis(80),
        start_at: SimTime::ZERO + SimDuration::from_secs(5),
    }
}

#[test]
fn adaptive_timers_recover_everything_and_move_weights() {
    let tree = tree();
    let log = RecoveryLog::shared();
    let mut sim = Simulator::new(tree.clone(), NetConfig::default().with_seed(3));
    sim.set_loss(TraceLoss::new(shared_drops()));
    let src = NodeId::ROOT;
    let params = SrmParams::paper_default();
    sim.attach_agent(
        src,
        Box::new(SrmAgent::source(src, params, source_cfg(70), log.clone())),
    );
    for &r in tree.receivers() {
        sim.attach_agent(
            r,
            Box::new(SrmAgent::receiver_with_timers(
                r,
                src,
                params,
                Box::new(AdaptiveTimers::new(params)),
                log.clone(),
            )),
        );
    }
    sim.run_until(SimTime::ZERO + SimDuration::from_secs(60));
    assert_eq!(log.borrow().unrecovered(), 0);
    // At least one receiver's weights must have moved off the initial
    // values: shared losses generate duplicate pressure or late requests.
    let moved = tree.receivers().iter().any(|&r| {
        let agent = sim.agent_as::<SrmAgent>(r).expect("srm agent");
        agent.core().timer_weights() != (params.c1, params.c2, params.d1, params.d2)
    });
    assert!(moved, "adaptive timers never adapted");
}

#[test]
fn reorder_delay_suppresses_spurious_expedited_requests_under_jitter() {
    // With jitter large enough to reorder data packets, a zero
    // REORDER-DELAY fires expedited requests for packets that are merely
    // late; a REORDER-DELAY above the jitter cancels them when the packet
    // shows up.
    let run = |reorder_ms: u64, seed: u64| -> u64 {
        let tree = tree();
        let log = RecoveryLog::shared();
        let collector = Rc::new(RefCell::new(TrafficCollector::new()));
        let net = NetConfig::default()
            .with_seed(seed)
            .with_jitter(SimDuration::from_millis(150));
        let mut sim = Simulator::new(tree.clone(), net);
        sim.set_observer(Box::new(Rc::clone(&collector)));
        // Real losses too, so caches warm up and expedition is armed.
        sim.set_loss(TraceLoss::new(
            (10..60)
                .step_by(5)
                .map(|i| (LinkId(NodeId(3)), SeqNo(i)))
                .collect::<Vec<_>>(),
        ));
        let src = NodeId::ROOT;
        let cfg = CesrmConfig {
            reorder_delay: SimDuration::from_millis(reorder_ms),
            ..CesrmConfig::paper_default()
        };
        sim.attach_agent(
            src,
            Box::new(CesrmAgent::source(src, cfg, source_cfg(70), log.clone())),
        );
        for &r in tree.receivers() {
            sim.attach_agent(r, Box::new(CesrmAgent::receiver(r, src, cfg, log.clone())));
        }
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(60));
        assert_eq!(log.borrow().unrecovered(), 0, "reorder_ms={reorder_ms}");
        let c = collector.borrow();
        c.total_sends(PacketKind::ExpeditedRequest)
    };
    let seeds = [1u64, 2, 3, 4, 5, 6, 7, 8];
    let eager: u64 = seeds.iter().map(|&s| run(0, s)).sum();
    let guarded: u64 = seeds.iter().map(|&s| run(400, s)).sum();
    assert!(
        guarded < eager,
        "REORDER-DELAY should cut spurious expedited requests: {eager} -> {guarded}"
    );
}

#[test]
fn lms_is_fast_but_cesrm_survives_churn() {
    // Same loss pattern, same crash of the natural replier n4: LMS stalls
    // for n5, CESRM does not.
    let drops: Vec<(LinkId, SeqNo)> = (10..90)
        .step_by(2)
        .map(|i| (LinkId(NodeId(3)), SeqNo(i)))
        .collect();
    // LMS run.
    let lms_log = {
        let tree = tree();
        let log = RecoveryLog::shared();
        let mut sim = Simulator::new(
            tree.clone(),
            NetConfig::default().with_router_assist(true).with_seed(4),
        );
        sim.set_loss(TraceLoss::new(drops.clone()));
        let table = ReplierTable::closest_receiver(&tree);
        let src = NodeId::ROOT;
        sim.attach_agent(
            src,
            Box::new(LmsSource::new(
                src,
                LmsConfig::default(),
                120,
                SimDuration::from_millis(80),
                SimTime::ZERO + SimDuration::from_secs(5),
            )),
        );
        for &r in tree.receivers() {
            sim.attach_agent(
                r,
                Box::new(LmsReceiver::new(
                    r,
                    src,
                    LmsConfig::default(),
                    table.clone(),
                    log.clone(),
                )),
            );
        }
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(8));
        sim.detach_agent(NodeId(4));
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(90));
        log
    };
    // CESRM run.
    let cesrm_log = {
        let tree = tree();
        let log = RecoveryLog::shared();
        let mut sim = Simulator::new(tree.clone(), NetConfig::default().with_seed(4));
        sim.set_loss(TraceLoss::new(drops));
        let src = NodeId::ROOT;
        let cfg = CesrmConfig::paper_default();
        sim.attach_agent(
            src,
            Box::new(CesrmAgent::source(src, cfg, source_cfg(120), log.clone())),
        );
        for &r in tree.receivers() {
            sim.attach_agent(r, Box::new(CesrmAgent::receiver(r, src, cfg, log.clone())));
        }
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(8));
        sim.detach_agent(NodeId(4));
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(90));
        log
    };
    let stalled = |log: &metrics::SharedRecoveryLog| {
        log.borrow()
            .records()
            .filter(|r| r.receiver == NodeId(5) && r.recovered_at.is_none())
            .count()
    };
    assert!(
        stalled(&lms_log) > 10,
        "LMS should stall after its designated replier crashes"
    );
    assert_eq!(
        stalled(&cesrm_log),
        0,
        "CESRM must keep recovering through the crash"
    );
}

#[test]
fn policies_compose_with_agents() {
    // The RecencyWeighted policy runs end-to-end.
    let tree = tree();
    let log = RecoveryLog::shared();
    let mut sim = Simulator::new(tree.clone(), NetConfig::default().with_seed(6));
    sim.set_loss(TraceLoss::new(
        (10..60)
            .step_by(5)
            .map(|i| (LinkId(NodeId(3)), SeqNo(i)))
            .collect::<Vec<_>>(),
    ));
    let src = NodeId::ROOT;
    let cfg = CesrmConfig::paper_default();
    sim.attach_agent(
        src,
        Box::new(CesrmAgent::source(src, cfg, source_cfg(70), log.clone())),
    );
    for &r in tree.receivers() {
        sim.attach_agent(
            r,
            Box::new(CesrmAgent::receiver_with_policy(
                r,
                src,
                cfg,
                Box::new(cesrm::RecencyWeighted::default()),
                log.clone(),
            )),
        );
    }
    sim.run_until(SimTime::ZERO + SimDuration::from_secs(60));
    let log = log.borrow();
    assert_eq!(log.unrecovered(), 0);
    assert!(log.records().any(|r| r.expedited));
}
