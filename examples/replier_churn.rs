//! The robustness argument of the paper's §3.3/§5: router-assisted
//! protocols like LMS pin replier choices into router state, which goes
//! stale when members leave or crash — recovery in the orphaned subtree
//! stalls until the state is repaired. CESRM chooses repliers on the fly
//! from its caches and *always* falls back on SRM, so it keeps recovering
//! through the same churn.
//!
//! This example runs the identical scenario — recurring losses in one
//! subtree, with that subtree's natural replier crashing mid-stream —
//! under LMS and under CESRM, and compares stalled losses.
//!
//! ```text
//! cargo run --release --example replier_churn
//! ```

use std::cell::RefCell;
use std::rc::Rc;

use cesrm::{CesrmAgent, CesrmConfig};
use lms::{LmsConfig, LmsReceiver, LmsSource, ReplierTable};
use metrics::{RecoveryLog, SharedRecoveryLog, TrafficCollector};
use netsim::{NetConfig, SeqNo, SimDuration, SimTime, Simulator, TraceLoss};
use srm::SourceConfig;
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

const PACKETS: u64 = 600;
const CRASH_AT_SECS: u64 = 20;
const END_SECS: u64 = 120;

/// Recurring losses into n3's subtree (n4 and n5), before and after the
/// crash of n4 — the subtree's natural designated replier.
fn drops() -> Vec<(LinkId, SeqNo)> {
    (10..580)
        .step_by(4)
        .map(|i| (LinkId(NodeId(3)), SeqNo(i)))
        .collect()
}

struct Outcome {
    n5_unrecovered: usize,
    n5_losses: usize,
}

fn report(name: &str, log: &SharedRecoveryLog) -> Outcome {
    let log = log.borrow();
    let n5: Vec<_> = log.records().filter(|r| r.receiver == NodeId(5)).collect();
    let unrecovered = n5.iter().filter(|r| r.recovered_at.is_none()).count();
    println!(
        "{name:<8} n5: {} losses, {} unrecovered after replier crash",
        n5.len(),
        unrecovered
    );
    Outcome {
        n5_unrecovered: unrecovered,
        n5_losses: n5.len(),
    }
}

fn run_lms() -> SharedRecoveryLog {
    let tree = tree();
    let net = NetConfig::default().with_router_assist(true).with_seed(1);
    let log = RecoveryLog::shared();
    let mut sim = Simulator::new(tree.clone(), net);
    sim.set_loss(TraceLoss::new(drops()));
    let table = ReplierTable::closest_receiver(&tree);
    let src = NodeId::ROOT;
    sim.attach_agent(
        src,
        Box::new(LmsSource::new(
            src,
            LmsConfig::default(),
            PACKETS,
            SimDuration::from_millis(80),
            SimTime::ZERO + SimDuration::from_secs(2),
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
    sim.run_until(SimTime::ZERO + SimDuration::from_secs(CRASH_AT_SECS));
    sim.detach_agent(NodeId(4));
    sim.run_until(SimTime::ZERO + SimDuration::from_secs(END_SECS));
    log
}

fn run_cesrm() -> SharedRecoveryLog {
    let tree = tree();
    let net = NetConfig::default().with_seed(1);
    let log = RecoveryLog::shared();
    let collector = Rc::new(RefCell::new(TrafficCollector::new()));
    let mut sim = Simulator::new(tree.clone(), net);
    sim.set_observer(Box::new(Rc::clone(&collector)));
    sim.set_loss(TraceLoss::new(drops()));
    let cfg = CesrmConfig::paper_default();
    let src = NodeId::ROOT;
    sim.attach_agent(
        src,
        Box::new(CesrmAgent::source(
            src,
            cfg,
            SourceConfig {
                packets: PACKETS,
                period: SimDuration::from_millis(80),
                start_at: SimTime::ZERO + SimDuration::from_secs(2),
            },
            log.clone(),
        )),
    );
    for &r in tree.receivers() {
        sim.attach_agent(r, Box::new(CesrmAgent::receiver(r, src, cfg, log.clone())));
    }
    sim.run_until(SimTime::ZERO + SimDuration::from_secs(CRASH_AT_SECS));
    sim.detach_agent(NodeId(4));
    sim.run_until(SimTime::ZERO + SimDuration::from_secs(END_SECS));
    log
}

fn main() {
    println!(
        "replier churn: losses keep hitting n3's subtree; its designated\n\
         replier n4 crashes at t={CRASH_AT_SECS}s; transmission runs to t={END_SECS}s\n"
    );
    let lms = report("LMS", &run_lms());
    let cesrm_log = run_cesrm();
    let cesrm = report("CESRM", &cesrm_log);
    // CESRM's adaptation over time. Note there is no dip at the crash:
    // CESRM never elected the crashed n4 (it shares every subtree loss, so
    // it can't be the optimal replier), while LMS's static router state
    // pinned exactly n4. If a cached pair member does die, the affected
    // losses fall back on SRM and the next recovery re-teaches the cache.
    println!("\nCESRM expedited fraction per 5 s window:");
    for bin in metrics::expedited_timeline(&cesrm_log.borrow(), SimDuration::from_secs(5)) {
        let bars = (bin.expedited_fraction() * 30.0).round() as usize;
        println!(
            "  t={:>5.0}s |{:<30}| {:>4.0}% of {} recoveries",
            bin.start.as_secs_f64(),
            "#".repeat(bars),
            bin.expedited_fraction() * 100.0,
            bin.recoveries
        );
    }
    println!();
    if lms.n5_unrecovered > 0 && cesrm.n5_unrecovered == 0 {
        println!(
            "LMS stalled on {}/{} of n5's losses (stale router state);\n\
             CESRM recovered everything: failed expeditions fall back on SRM\n\
             and its cache re-learns a live replier from the next recovery.",
            lms.n5_unrecovered, lms.n5_losses
        );
    } else {
        println!("(unexpected outcome — inspect the logs above)");
    }
}
