//! Quickstart: build a multicast tree, attach CESRM endpoints, inject a
//! few losses and watch the caching-based expedited recovery at work.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use cesrm::{CesrmAgent, CesrmConfig};
use metrics::{per_receiver_reports, PacketKind, RecoveryLog, TrafficCollector};
use netsim::{NetConfig, SeqNo, SimDuration, SimTime, Simulator, TraceLoss};
use srm::SourceConfig;
use std::cell::RefCell;
use std::rc::Rc;
use topology::{LinkId, NodeId, TreeBuilder};

fn main() -> Result<(), topology::TreeError> {
    // A small source-rooted multicast tree:
    //
    //   n0 (source) ── n1 ── n2 (receiver)
    //                   └─── n3 ── n4, n5 (receivers)
    //   n0 ── n6 (receiver)
    let mut b = TreeBuilder::new();
    let r1 = b.add_router(b.root());
    b.add_receiver(r1);
    let r3 = b.add_router(r1);
    b.add_receiver(r3);
    b.add_receiver(r3);
    b.add_receiver(b.root());
    let tree = b.build()?;
    println!("{tree}");

    // Drop every fifth packet from #10 on the link into n3: receivers n4
    // and n5 suffer recurring, same-link losses — exactly the loss
    // locality CESRM's cache exploits.
    let drops: Vec<(LinkId, SeqNo)> = (10..60)
        .step_by(5)
        .map(|i| (LinkId(NodeId(3)), SeqNo(i)))
        .collect();

    let net = NetConfig::paper_default();
    let mut sim = Simulator::new(tree.clone(), net);
    sim.set_loss(TraceLoss::new(drops));
    let log = RecoveryLog::shared();
    let collector = Rc::new(RefCell::new(TrafficCollector::new()));
    sim.set_observer(Box::new(Rc::clone(&collector)));

    // One CESRM source plus one CESRM receiver per leaf.
    let cfg = CesrmConfig::paper_default();
    let source = tree.root();
    let source_cfg = SourceConfig {
        packets: 70,
        period: SimDuration::from_millis(80),
        start_at: SimTime::ZERO + SimDuration::from_secs(5),
    };
    sim.attach_agent(
        source,
        Box::new(CesrmAgent::source(source, cfg, source_cfg, log.clone())),
    );
    for &r in tree.receivers() {
        sim.attach_agent(
            r,
            Box::new(CesrmAgent::receiver(r, source, cfg, log.clone())),
        );
    }

    sim.run_until(SimTime::ZERO + SimDuration::from_secs(60));

    let log = log.borrow();
    let collector = collector.borrow();
    println!("losses detected: {}", log.len());
    println!("losses unrecovered: {}", log.unrecovered());
    let expedited = log.records().filter(|r| r.expedited).count();
    println!("recovered via expedited scheme: {expedited}/{}", log.len());
    println!(
        "expedited requests (unicast): {}, expedited replies: {}",
        collector.total_sends(PacketKind::ExpeditedRequest),
        collector.total_sends(PacketKind::ExpeditedReply),
    );
    println!("\nper-receiver average normalized recovery time (in RTTs):");
    for rep in per_receiver_reports(&log, &tree, &net) {
        if rep.losses == 0 {
            continue;
        }
        println!(
            "  {}: {:.2} RTT over {} losses ({} expedited)",
            rep.receiver, rep.avg_norm_recovery, rep.losses, rep.expedited
        );
    }
    Ok(())
}
