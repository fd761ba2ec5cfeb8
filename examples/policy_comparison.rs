//! Compares CESRM's expedition policies (paper §3.2): *most recent loss*
//! vs *most frequent loss*, over the same synthetic trace.
//!
//! The paper (citing \[10\]) reports that most-recent-loss wins because a
//! loss's location correlates most with the location of the most recent
//! loss; this example lets you see both policies' expedited success rates
//! and latencies side by side.
//!
//! ```text
//! cargo run --release --example policy_comparison
//! ```

use std::cell::RefCell;
use std::rc::Rc;

use cesrm::{CesrmAgent, CesrmConfig, ExpeditionPolicy, MostFrequentLoss, MostRecentLoss};
use lossmap::{infer_link_drops, yajnik_rates};
use metrics::{per_receiver_reports, PacketKind, RecoveryLog, TrafficCollector};
use netsim::{NetConfig, SeqNo, SimDuration, SimTime, Simulator, TraceLoss};
use srm::SourceConfig;
use traces::table1;

fn main() {
    let spec = table1()[8].scaled(0.10); // WRN951128
    let trace = spec.generate(7);
    println!(
        "trace {}: {} packets, {} losses",
        spec.name,
        trace.packets(),
        trace.total_losses()
    );
    for (name, make) in [
        (
            "most-recent-loss",
            (|| Box::new(MostRecentLoss) as Box<dyn ExpeditionPolicy>) as fn() -> _,
        ),
        ("most-frequent-loss", || {
            Box::new(MostFrequentLoss) as Box<dyn ExpeditionPolicy>
        }),
    ] {
        let (success, latency, expedited) = run_policy(&trace, make);
        println!(
            "{name:<20} expedited success {:.1}%, mean latency {latency:.2} RTT, \
             {expedited} expedited recoveries",
            success * 100.0
        );
    }
}

fn run_policy(
    trace: &traces::Trace,
    make_policy: fn() -> Box<dyn ExpeditionPolicy>,
) -> (f64, f64, usize) {
    let rates = yajnik_rates(trace);
    let (drops, _) = infer_link_drops(trace, &rates);
    let tree = trace.tree().clone();
    let net = NetConfig::paper_default();
    let mut sim = Simulator::new(tree.clone(), net);
    sim.set_loss(TraceLoss::new(
        drops.pairs().map(|(l, s)| (l, SeqNo(s as u64))),
    ));
    let log = RecoveryLog::shared();
    let collector = Rc::new(RefCell::new(TrafficCollector::new()));
    sim.set_observer(Box::new(Rc::clone(&collector)));
    let cfg = CesrmConfig::paper_default();
    let source = tree.root();
    let period = SimDuration::from_millis(trace.meta().period_ms);
    sim.attach_agent(
        source,
        Box::new(CesrmAgent::source(
            source,
            cfg,
            SourceConfig {
                packets: trace.packets() as u64,
                period,
                start_at: SimTime::ZERO + SimDuration::from_secs(5),
            },
            log.clone(),
        )),
    );
    for &r in tree.receivers() {
        sim.attach_agent(
            r,
            Box::new(CesrmAgent::receiver_with_policy(
                r,
                source,
                cfg,
                make_policy(),
                log.clone(),
            )),
        );
    }
    let end = SimTime::ZERO
        + SimDuration::from_secs(5)
        + period * trace.packets() as u32
        + SimDuration::from_secs(40);
    sim.run_until(end);
    let log = log.borrow();
    let collector = collector.borrow();
    let ereq = collector.total_sends(PacketKind::ExpeditedRequest);
    let erepl = collector.total_sends(PacketKind::ExpeditedReply);
    let success = if ereq == 0 {
        0.0
    } else {
        erepl as f64 / ereq as f64
    };
    let reports = per_receiver_reports(&log, &tree, &net);
    let with: Vec<_> = reports.iter().filter(|r| r.recovered > 0).collect();
    let latency = with.iter().map(|r| r.avg_norm_recovery).sum::<f64>() / with.len().max(1) as f64;
    let expedited = log.records().filter(|r| r.expedited).count();
    (success, latency, expedited)
}
