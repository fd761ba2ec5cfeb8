//! Ablation benches for the design choices called out in `DESIGN.md` §4:
//! expedition policy, cache capacity, `REORDER-DELAY`, link delay sweep,
//! lossy-recovery mode and router assistance. Each prints its comparison,
//! then times the configuration.

use std::cell::RefCell;
use std::rc::Rc;

use bench::{timing_trace, PRINT_SCALE};
use cesrm::{
    CesrmAgent, CesrmConfig, ExpeditionPolicy, MostFrequentLoss, MostRecentLoss, RecencyWeighted,
};
use criterion::{criterion_group, criterion_main, Criterion};
use harness::{run_trace, ExperimentConfig, Protocol, RunMetrics};
use lossmap::{infer_link_drops, yajnik_rates};
use metrics::{PacketKind, RecoveryLog, TrafficCollector};
use netsim::{NetConfig, SeqNo, SimDuration, SimTime, Simulator, TraceLoss};
use srm::{AdaptiveTimers, SourceConfig, SrmAgent, SrmParams};
use traces::{table1, Trace};

/// Runs CESRM over `trace` with a per-receiver policy factory; reports
/// (mean latency RTT, expedited success).
fn run_with_policy(trace: &Trace, make: fn() -> Box<dyn ExpeditionPolicy>) -> (f64, f64) {
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
    let src = tree.root();
    let period = SimDuration::from_millis(trace.meta().period_ms);
    sim.attach_agent(
        src,
        Box::new(CesrmAgent::source(
            src,
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
                src,
                cfg,
                make(),
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
    let c = collector.borrow();
    let reports = metrics::per_receiver_reports(&log, &tree, &net);
    let with: Vec<_> = reports.iter().filter(|r| r.recovered > 0).collect();
    let latency = with.iter().map(|r| r.avg_norm_recovery).sum::<f64>() / with.len().max(1) as f64;
    let ereq = c.total_sends(PacketKind::ExpeditedRequest);
    let erepl = c.total_sends(PacketKind::ExpeditedReply);
    (
        latency,
        if ereq == 0 {
            0.0
        } else {
            erepl as f64 / ereq as f64
        },
    )
}

type PolicyFactory = fn() -> Box<dyn ExpeditionPolicy>;

fn print_policy_comparison(trace: &Trace) {
    println!("\nExpedition policy ablation:");
    let cases: [(&str, PolicyFactory); 3] = [
        ("most-recent-loss", || Box::new(MostRecentLoss)),
        ("most-frequent-loss", || Box::new(MostFrequentLoss)),
        ("recency-weighted", || Box::new(RecencyWeighted::default())),
    ];
    for (name, make) in cases {
        let (latency, success) = run_with_policy(trace, make);
        println!(
            "{name:<28} latency {latency:.2} RTT, exp success {:>5.1}%",
            success * 100.0
        );
    }
}

/// SRM with fixed vs adaptive suppression timers.
fn run_srm_with_timers(trace: &Trace, adaptive: bool) -> (f64, u64) {
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
    let params = SrmParams::paper_default();
    let src = tree.root();
    let period = SimDuration::from_millis(trace.meta().period_ms);
    sim.attach_agent(
        src,
        Box::new(SrmAgent::source(
            src,
            params,
            SourceConfig {
                packets: trace.packets() as u64,
                period,
                start_at: SimTime::ZERO + SimDuration::from_secs(5),
            },
            log.clone(),
        )),
    );
    for &r in tree.receivers() {
        let agent = if adaptive {
            SrmAgent::receiver_with_timers(
                r,
                src,
                params,
                Box::new(AdaptiveTimers::new(params)),
                log.clone(),
            )
        } else {
            SrmAgent::receiver(r, src, params, log.clone())
        };
        sim.attach_agent(r, Box::new(agent));
    }
    let end = SimTime::ZERO
        + SimDuration::from_secs(5)
        + period * trace.packets() as u32
        + SimDuration::from_secs(40);
    sim.run_until(end);
    let log = log.borrow();
    let c = collector.borrow();
    let reports = metrics::per_receiver_reports(&log, &tree, &net);
    let with: Vec<_> = reports.iter().filter(|r| r.recovered > 0).collect();
    let latency = with.iter().map(|r| r.avg_norm_recovery).sum::<f64>() / with.len().max(1) as f64;
    (latency, c.total_sends(PacketKind::Request))
}

fn print_adaptive_comparison(trace: &Trace) {
    println!("\nSRM timer ablation:");
    for adaptive in [false, true] {
        let (latency, requests) = run_srm_with_timers(trace, adaptive);
        println!(
            "{:<28} latency {latency:.2} RTT, {requests} multicast requests",
            if adaptive {
                "adaptive timers"
            } else {
                "fixed timers"
            }
        );
    }
}

fn reenact(trace: &traces::Trace, cesrm: CesrmConfig, exp: ExperimentConfig) -> RunMetrics {
    run_trace(trace, Protocol::Cesrm(cesrm), &exp)
}

fn describe(label: &str, m: &RunMetrics) {
    println!(
        "{label:<28} latency {:.2} RTT, exp success {:>5.1}%, retrans crossings {}, unrecovered {}",
        m.mean_norm_recovery(),
        m.expedited_success_rate() * 100.0,
        m.overhead.retransmissions,
        m.unrecovered
    );
}

fn bench_ablations(c: &mut Criterion) {
    let trace = table1()[6].scaled(PRINT_SCALE).generate(3); // WRN951113
    let base = CesrmConfig::paper_default();
    let exp = ExperimentConfig::paper_default();

    println!("Ablations on {} at scale {PRINT_SCALE}:", trace.meta().name);
    describe("baseline (paper config)", &reenact(&trace, base, exp));
    describe(
        "cache capacity 1",
        &reenact(
            &trace,
            CesrmConfig {
                cache_capacity: 1,
                ..base
            },
            exp,
        ),
    );
    describe(
        "reorder delay 80 ms",
        &reenact(
            &trace,
            CesrmConfig {
                reorder_delay: SimDuration::from_millis(80),
                ..base
            },
            exp,
        ),
    );
    describe(
        "router assistance",
        &reenact(
            &trace,
            CesrmConfig {
                router_assist: true,
                ..base
            },
            exp,
        ),
    );
    describe(
        "lossy recovery traffic",
        &reenact(
            &trace,
            base,
            ExperimentConfig {
                lossy_recovery: true,
                ..exp
            },
        ),
    );
    for ms in [10u64, 20, 30] {
        let mut e = exp;
        e.net.link_delay = SimDuration::from_millis(ms);
        describe(&format!("link delay {ms} ms"), &reenact(&trace, base, e));
    }
    print_policy_comparison(&trace);
    print_adaptive_comparison(&trace);

    let timing = timing_trace(7);
    let mut group = c.benchmark_group("ablations");
    group.sample_size(10);
    group.bench_function("baseline", |b| {
        b.iter(|| std::hint::black_box(reenact(&timing, base, exp).mean_norm_recovery()));
    });
    group.bench_function("router_assist", |b| {
        let cfg = CesrmConfig {
            router_assist: true,
            ..base
        };
        b.iter(|| std::hint::black_box(reenact(&timing, cfg, exp).mean_norm_recovery()));
    });
    group.bench_function("lossy_recovery", |b| {
        let e = ExperimentConfig {
            lossy_recovery: true,
            ..exp
        };
        b.iter(|| std::hint::black_box(reenact(&timing, base, e).mean_norm_recovery()));
    });
    group.finish();
}

criterion_group!(benches, bench_ablations);
criterion_main!(benches);
