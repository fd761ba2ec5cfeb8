//! A multi-source session in the style of `wb`, the shared whiteboard SRM
//! was built for: several members transmit concurrently and every member
//! recovers every stream's losses. Each member keeps *per-source*
//! requestor/replier caches (paper §3.1), so expedited recovery works
//! independently per stream.
//!
//! ```text
//! cargo run --release --example whiteboard
//! ```

use cesrm::{CesrmConfig, GroupMember, StreamRole};
use metrics::RecoveryLog;
use netsim::{NetConfig, SeqNo, SimDuration, SimTime, Simulator, TraceLoss};
use obs::PacketClass;
use srm::SourceConfig;
use topology::{LinkId, NodeId, TreeBuilder};

fn main() -> Result<(), topology::TreeError> {
    // n0 (member A, also the tree root) -> n1 -> { n2, n3 -> { n4, n5 } },
    // n0 -> n6 (member B). Members A, B and n4 all draw on the whiteboard.
    let mut b = TreeBuilder::new();
    let r1 = b.add_router(b.root());
    b.add_receiver(r1); // n2
    let r3 = b.add_router(r1);
    b.add_receiver(r3); // n4
    b.add_receiver(r3); // n5
    b.add_receiver(b.root()); // n6
    let tree = b.build()?;

    let sources = [NodeId(0), NodeId(6), NodeId(4)];
    let members = [NodeId(0), NodeId(2), NodeId(4), NodeId(5), NodeId(6)];
    const PACKETS: u64 = 80;

    let log = RecoveryLog::shared();
    let mut sim = Simulator::new(tree, NetConfig::paper_default().with_seed(2));
    // Bursty losses on the backbone link into n3 and on n6's tail link;
    // these hit every stream crossing them.
    let mut drops: Vec<(LinkId, SeqNo)> = (10..70)
        .step_by(4)
        .map(|i| (LinkId(NodeId(3)), SeqNo(i)))
        .collect();
    drops.extend((15..70).step_by(6).map(|i| (LinkId(NodeId(6)), SeqNo(i))));
    sim.set_loss(TraceLoss::new(drops));

    let cfg = CesrmConfig::paper_default();
    for &m in &members {
        let streams: Vec<(NodeId, StreamRole)> = sources
            .iter()
            .map(|&s| {
                if s == m {
                    (
                        s,
                        StreamRole::Source(SourceConfig {
                            packets: PACKETS,
                            period: SimDuration::from_millis(80),
                            start_at: SimTime::ZERO + SimDuration::from_secs(5),
                        }),
                    )
                } else {
                    (s, StreamRole::Receiver)
                }
            })
            .collect();
        sim.attach_agent(m, Box::new(GroupMember::new(m, cfg, &log, &streams)));
    }
    sim.run_until(SimTime::ZERO + SimDuration::from_secs(60));

    let log = log.borrow();
    let sends = sim.sends();
    println!(
        "whiteboard session: {} members, {} streams x {PACKETS} packets",
        members.len(),
        sources.len()
    );
    println!("original data sent: {}", sends.total(PacketClass::Data));
    for &s in &sources {
        let losses = log.records().filter(|r| r.id.source == s).count();
        let expedited = log
            .records()
            .filter(|r| r.id.source == s && r.expedited)
            .count();
        println!(
            "stream {s}: {losses} losses detected, {expedited} recovered expedited, \
             {} unrecovered",
            log.records()
                .filter(|r| r.id.source == s && r.recovered_at.is_none())
                .count()
        );
    }
    println!(
        "expedited requests {} / replies {}",
        sends.total(PacketClass::ExpeditedRequest),
        sends.total(PacketClass::ExpeditedReply),
    );
    assert_eq!(log.unrecovered(), 0, "all streams must fully recover");
    println!("\nevery member holds every packet of every stream ✓");
    Ok(())
}
