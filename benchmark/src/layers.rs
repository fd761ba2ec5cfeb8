//! The traced run: decomposes a pass from the outside, one span per call
//! into a layer's public function, and reads the program's always-on
//! counters from one extra *counting pass* run with its counter switches
//! on. Times never come from the counting pass.
//!
//! The run proceeds in *rounds*. A round runs each kind of pass once, so
//! every comparison (traced vs untraced, instrument on vs off, one worker
//! vs two) is between passes interleaved in time.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;

use harness::{
    coverage, run_scale, run_suite, run_trace, write_jsonl, Protocol, ScaleConfig, SuiteConfig,
    SuiteResult, TraceFilter,
};
use lossmap::{infer_link_drops, yajnik_rates};
use topology::{scale_tree, ScaleShape};
use traces::table1;

use crate::metrics::{Def, PER_LAYER};
use crate::spans::{attributed_share_per_pass, seconds_per_pass, Tracer};
use crate::stats::{median, pct_over, ratio};
use crate::workloads::{
    generate_inputs, latency_reduction_pct, suite_cfg, summarize_pairs, summarize_scale,
    summarize_suite, timed_scale, timed_suite, Inputs, Instruments, Kind, Summary, Tally, Workload,
};

/// Rounds run even when one round outlasts `--seconds`, so every median
/// has at least this many samples.
const MIN_ROUNDS: u32 = 3;

/// One value per catalogue entry, 0 until set.
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    pub fn zeroed(defs: &'static [Def]) -> Self {
        Values(defs.iter().map(|d| (d.name, 0.0)).collect())
    }

    /// # Panics
    ///
    /// Panics on a name the catalogue does not list — a typo here, caught
    /// by the smoke tests.
    pub fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .0
            .iter_mut()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"));
        slot.1 = value;
    }

    pub fn count(&mut self, name: &str, value: u64) {
        self.set(name, value as f64);
    }

    /// `(name, value)` in catalogue order.
    pub fn entries(&self) -> &[(&'static str, f64)] {
        &self.0
    }
}

/// Host wall times in seconds, by kind of pass.
#[derive(Default)]
struct Walls(BTreeMap<&'static str, Vec<f64>>);

impl Walls {
    fn push(&mut self, kind: &'static str, wall: f64) {
        self.0.entry(kind).or_default().push(wall);
    }

    fn median(&self, kind: &str) -> f64 {
        self.0.get(kind).map_or(0.0, |w| median(w))
    }
}

pub struct Traced {
    pub values: Values,
    pub tally: Tally,
    pub tracer: Tracer,
}

pub fn run(wl: &Workload, seed: u64, seconds: f64) -> std::io::Result<Traced> {
    match wl.kind {
        Kind::Suite { scale, observed } => suite(wl, scale, observed, seed, seconds),
        Kind::Scale { .. } => Ok(scale(wl, seed, seconds)),
    }
}

fn set_engine(v: &mut Values, e: &netsim::EngineTelemetry) {
    v.count("netsim.transmits", e.transmits);
    v.count("netsim.deliveries", e.deliveries);
    v.count("netsim.fan_outs", e.fan_outs);
    v.count("netsim.queue.pushes", e.queue.pushes);
    v.count("netsim.queue.max_bucket_len", e.queue.max_bucket_len);
    v.count("netsim.queue.advances", e.queue.advances);
    v.count("netsim.queue.far_pushes", e.queue.far_pushes);
    v.count("netsim.arena.allocs", e.arena.allocs);
    v.count("netsim.arena.high_water", e.arena.high_water);
}

/// Figures both kinds of workload derive the same way from a pass summary
/// and the untraced, instruments-off pass wall.
fn set_common(v: &mut Values, s: &Summary, plain_wall: f64, walls: &Walls, tracer: &Tracer) {
    let spans = tracer.spans();
    v.count("netsim.events", s.events());
    v.set(
        "netsim.ns_per_event",
        ratio(plain_wall * 1e9, s.events() as f64),
    );
    v.set("netsim.events_per_s", ratio(s.events() as f64, plain_wall));
    for (layer, p, run_span) in [("srm", &s.srm, "srm.run"), ("cesrm", &s.cesrm, "cesrm.run")] {
        let run_s = median(&seconds_per_pass(spans, run_span));
        v.set(&format!("{layer}.run_s"), run_s);
        v.count(&format!("{layer}.events"), p.events);
        v.set(
            &format!("{layer}.ns_per_event"),
            ratio(run_s * 1e9, p.events as f64),
        );
        v.set(
            &format!("{layer}.requests_per_loss"),
            ratio(p.requests as f64, p.losses as f64),
        );
        v.set(
            &format!("{layer}.replies_per_loss"),
            ratio(p.replies as f64, p.losses as f64),
        );
        v.set(&format!("{layer}.recovery_rtt"), p.recovery_rtt);
    }
    v.count("cesrm.expedited_requests", s.cesrm.expedited_requests);
    v.count("cesrm.expedited_replies", s.cesrm.expedited_replies);
    v.set(
        "cesrm.expedited_success_pct",
        100.0
            * ratio(
                s.cesrm.expedited_replies as f64,
                s.cesrm.expedited_requests as f64,
            ),
    );
    v.set(
        "cesrm.expedited_share",
        ratio(
            s.cesrm.expedited_recoveries as f64,
            s.cesrm.recovered as f64,
        ),
    );
    v.count("metrics.records", s.losses());
    v.count("metrics.unrecovered", s.unrecovered());
    v.count(
        "metrics.crossings.retx",
        s.srm.retx_crossings + s.cesrm.retx_crossings,
    );
    v.count(
        "metrics.crossings.control",
        s.srm.control_crossings + s.cesrm.control_crossings,
    );
    let traced_wall = walls.median("traced");
    v.set("trace.pass_wall_s", traced_wall);
    v.set("trace.overhead_pct", pct_over(traced_wall, plain_wall));
    v.set(
        "trace.attributed_pct",
        100.0 * median(&attributed_share_per_pass(spans)),
    );
    v.count("trace.spans", spans.len() as u64);
}

/// Input-side counts of one traced suite pass (equal on every pass).
#[derive(Clone, Copy, Default)]
struct SuiteCounts {
    cells: u64,
    lossy_packets: u64,
    link_drops: u64,
}

/// The suite pipeline of `harness` §1–§4, called layer by layer with every
/// instrument off: synthesis → rate estimation → attribution → SRM
/// reenactment → CESRM reenactment, per trace. (`run_trace` repeats the
/// two `lossmap` steps internally; they are called here as well only to be
/// timed.)
fn traced_suite_pass(
    tracer: &mut Tracer,
    pass: u32,
    cfg: &SuiteConfig,
) -> (f64, Summary, SuiteCounts) {
    let root = tracer.open(pass, None, "pass", format!("suite scale {}", cfg.scale));
    let mut counts = SuiteCounts::default();
    let mut runs = Vec::new();
    for spec in table1() {
        let spec = spec.scaled(cfg.scale);
        let detail = format!("trace {} {}", spec.number, spec.name);
        let (trace, _truth) = tracer.call(root, "traces.synth", &detail, || {
            spec.generate_with_truth(cfg.seed)
        });
        let rates = tracer.call(root, "lossmap.rates", &detail, || yajnik_rates(&trace));
        let (drops, attribution) = tracer.call(root, "lossmap.infer", &detail, || {
            infer_link_drops(&trace, &rates)
        });
        let srm = tracer.call(root, "srm.run", &detail, || {
            run_trace(&trace, Protocol::Srm, &cfg.experiment)
        });
        let cesrm = tracer.call(root, "cesrm.run", &detail, || {
            run_trace(&trace, Protocol::Cesrm(cfg.cesrm), &cfg.experiment)
        });
        counts.cells += (spec.packets * spec.receivers) as u64;
        counts.lossy_packets += attribution.lossy_packets as u64;
        counts.link_drops += drops.len() as u64;
        runs.push((spec, srm, cesrm));
    }
    tracer.close(root);
    let summary = summarize_pairs(runs.iter().map(|(spec, s, c)| (spec, s, c)), 0);
    (tracer.duration_s(root), summary, counts)
}

/// Every paper-style text render of a suite result.
fn render_all(r: &SuiteResult) -> usize {
    [
        r.table1_text(),
        r.attribution_text(),
        r.fig1_text(),
        r.fig2_text(),
        r.fig3_text(),
        r.fig4_text(),
        r.fig5_text(),
        r.summary_text(),
        r.latency_distribution_text(),
        r.locality_text(),
        r.timings_text(),
    ]
    .iter()
    .map(String::len)
    .sum()
}

fn suite(
    wl: &Workload,
    scale: f64,
    observed: bool,
    seed: u64,
    seconds: f64,
) -> std::io::Result<Traced> {
    let only = |monitor, digest, capture| {
        let on = Instruments {
            monitor,
            digest,
            capture,
        };
        suite_cfg(scale, seed, on)
    };
    let off = suite_cfg(scale, seed, Instruments::OFF);
    let Inputs::Suite(work) = generate_inputs(wl, seed) else {
        unreachable!("suite workloads take suite inputs");
    };
    // `work` is what the workload's end-to-end pass runs; on
    // `suite-observed` it differs from `off`, and each instrument is then
    // also run alone against `off`.
    let mut kinds = vec![("off", off.clone())];
    if observed {
        kinds.push(("all_on", work.clone()));
        kinds.push(("monitor", only(true, false, false)));
        kinds.push(("digest", only(false, true, false)));
        kinds.push(("capture", only(false, false, true)));
    }
    kinds.push((
        "jobs2",
        SuiteConfig {
            jobs: Some(2),
            ..work.clone()
        },
    ));

    let (_, first, _) = timed_suite(&work);
    let mut tally = Tally::new(wl);
    tally.add(0, "warm-up", &first);
    let mut tracer = Tracer::new();
    let mut walls = Walls::default();
    let mut counts = SuiteCounts::default();
    let started = crate::now();
    let mut round = 0;
    while round < MIN_ROUNDS || started.elapsed().as_secs_f64() < seconds {
        for (kind, cfg) in &kinds {
            let (wall, summary, _) = timed_suite(cfg);
            walls.push(kind, wall);
            tally.add(0, &format!("round {round} {kind}"), &summary);
        }
        let (wall, summary, c) = traced_suite_pass(&mut tracer, round, &off);
        walls.push("traced", wall);
        tally.add(0, &format!("round {round} traced"), &summary);
        counts = c;
        round += 1;
    }

    let counted = run_suite(&SuiteConfig {
        collect_metrics: true,
        profile: true,
        ..work.clone()
    });
    tally.add(0, "counting pass", &summarize_suite(&counted));

    let mut v = Values::zeroed(PER_LAYER);
    let off_wall = walls.median("off");
    set_common(&mut v, &first, off_wall, &walls, &tracer);
    let spans = tracer.spans();
    let layer_s = |name| median(&seconds_per_pass(spans, name));
    v.set("traces.synth_s", layer_s("traces.synth"));
    v.count("traces.cells", counts.cells);
    v.set(
        "traces.ns_per_cell",
        ratio(layer_s("traces.synth") * 1e9, counts.cells as f64),
    );
    v.set("lossmap.rates_s", layer_s("lossmap.rates"));
    v.set("lossmap.infer_s", layer_s("lossmap.infer"));
    v.count("lossmap.lossy_packets", counts.lossy_packets);
    v.count("lossmap.link_drops", counts.link_drops);
    v.set(
        "lossmap.ns_per_lossy_packet",
        ratio(layer_s("lossmap.infer") * 1e9, counts.lossy_packets as f64),
    );
    v.set("cesrm.latency_reduction_pct", latency_reduction_pct(&first));
    v.set(
        "metrics.retx_overhead_ratio",
        ratio(
            first.cesrm.retx_crossings as f64,
            first.srm.retx_crossings as f64,
        ),
    );

    let mut profs = counted.profs.iter();
    let mut engine = profs.next().map(|p| p.engine).unwrap_or_default();
    for p in profs {
        engine.merge(&p.engine);
    }
    set_engine(&mut v, &engine);
    let counters = counted.merged_snapshot().counters;
    let counter = |name: &str| counters.get(name).copied().unwrap_or(0) as f64;
    let (hits, misses) = (counter("cesrm.cache.hits"), counter("cesrm.cache.misses"));
    v.set("cesrm.cache.hits", hits);
    v.set("cesrm.cache.misses", misses);
    v.set("cesrm.cache.hit_ratio", ratio(hits, hits + misses));

    // What `run_suite` adds over the bare layer calls: the worker pool, the
    // second synthesis of each trace, loss statistics and assembly.
    let layer_calls_s: f64 = [
        "traces.synth",
        "lossmap.rates",
        "lossmap.infer",
        "srm.run",
        "cesrm.run",
    ]
    .iter()
    .map(|name| layer_s(name))
    .sum();
    v.set(
        "harness.suite_overhead_pct",
        pct_over(off_wall, layer_calls_s),
    );
    let work_wall = walls.median(if observed { "all_on" } else { "off" });
    v.set(
        "harness.jobs2_speedup",
        ratio(work_wall, walls.median("jobs2")),
    );
    let render_started = crate::now();
    black_box(render_all(&counted));
    v.set("harness.render_s", render_started.elapsed().as_secs_f64());

    if observed {
        let records: usize = counted.events.iter().map(|e| e.records.len()).sum();
        v.count("obs.records", records as u64);
        v.set("obs.all_on_overhead_pct", pct_over(work_wall, off_wall));
        v.set(
            "obs.ns_per_record",
            ratio((work_wall - off_wall) * 1e9, records as f64),
        );
        for kind in ["monitor", "digest", "capture"] {
            v.set(
                &format!("obs.{kind}_overhead_pct"),
                pct_over(walls.median(kind), off_wall),
            );
        }
        v.count("obs.violations", counted.total_violations());

        let path = Path::new("benchmark/out").join(format!("events-{}.jsonl", wl.name));
        let write_started = crate::now();
        let written = write_jsonl(&path, &counted.events, &TraceFilter::default())?;
        let write_s = write_started.elapsed().as_secs_f64();
        std::fs::remove_file(&path)?;
        v.set("obs.jsonl_write_s", write_s);
        v.set(
            "obs.jsonl_ns_per_record",
            ratio(write_s * 1e9, written as f64),
        );
        if written != records {
            tally
                .failures
                .push(format!("wrote {written} of {records} captured records"));
        }

        let provenance_started = crate::now();
        let cov = coverage(&counted.events);
        v.set(
            "obs.provenance_s",
            provenance_started.elapsed().as_secs_f64(),
        );
        if cov.unrecovered() > 0 {
            tally.failures.push(format!(
                "{} of {} captured loss timelines never reach a recovery",
                cov.unrecovered(),
                cov.losses
            ));
        }
    }
    Ok(Traced {
        values: v,
        tally,
        tracer,
    })
}

fn scale(wl: &Workload, seed: u64, seconds: f64) -> Traced {
    let Inputs::Scale { cfg, rtt_ns } = generate_inputs(wl, seed) else {
        unreachable!("scale workloads take scale inputs");
    };
    let shape = ScaleShape::with_target_receivers(cfg.receivers);

    let (cold_wall, first, first_result) = timed_scale(&cfg, &rtt_ns);
    let mut tally = Tally::new(wl);
    tally.add(0, "warm-up", &first);
    let mut tracer = Tracer::new();
    let mut walls = Walls::default();
    // Per untraced pass: summed shard busy and barrier-wait seconds, and
    // the busiest shard over the mean.
    let (mut busy, mut barrier, mut imbalance) = (Vec::new(), Vec::new(), Vec::new());
    let started = crate::now();
    let mut round = 0;
    while round < MIN_ROUNDS || started.elapsed().as_secs_f64() < seconds {
        let (wall, summary, result) = timed_scale(&cfg, &rtt_ns);
        walls.push("plain", wall);
        tally.add(0, &format!("round {round} plain"), &summary);
        let shard_s = |ns: fn(&harness::ShardAccounting) -> u64| {
            result.shard_accounting.iter().map(ns).sum::<u64>() as f64 / 1e9
        };
        busy.push(shard_s(|a| a.busy_ns));
        barrier.push(shard_s(|a| a.barrier_ns));
        imbalance.push(result.imbalance_ratio());

        // `run_scale` builds its tree itself; the separate `scale_tree`
        // call is there only to be timed.
        let root = tracer.open(round, None, "pass", format!("rung {}", cfg.receivers));
        black_box(tracer.call(root, "topology.scale_tree", "", || scale_tree(seed, &shape)));
        let result = tracer.call(root, "cesrm.run", "run_scale", || run_scale(&cfg));
        tracer.close(root);
        walls.push("traced", tracer.duration_s(root));
        tally.add(
            0,
            &format!("round {round} traced"),
            &summarize_scale(&cfg, &rtt_ns, &result),
        );
        round += 1;
    }

    let counted = run_scale(&ScaleConfig {
        profile: true,
        ..cfg
    });
    tally.add(
        0,
        "counting pass",
        &summarize_scale(&cfg, &rtt_ns, &counted),
    );

    let mut v = Values::zeroed(PER_LAYER);
    set_common(&mut v, &first, walls.median("plain"), &walls, &tracer);
    let tree_s = median(&seconds_per_pass(tracer.spans(), "topology.scale_tree"));
    v.set("topology.scale_tree_s", tree_s);
    v.count("topology.nodes", first_result.nodes);
    v.set(
        "topology.ns_per_node",
        ratio(tree_s * 1e9, first_result.nodes as f64),
    );
    if let Some(engine) = &counted.engine {
        set_engine(&mut v, engine);
    }
    let (busy_s, barrier_s) = (median(&busy), median(&barrier));
    v.set("harness.shard.busy_s", busy_s);
    v.set("harness.shard.barrier_s", barrier_s);
    v.set(
        "harness.shard.barrier_share",
        ratio(barrier_s, busy_s + barrier_s),
    );
    v.set("harness.shard.imbalance_ratio", median(&imbalance));
    v.count(
        "harness.shard.cross_packets",
        first_result.cross_shard_packets(),
    );
    v.count("harness.shard.epochs", first_result.epochs);
    v.count(
        "harness.scale.state_bytes_per_receiver",
        first_result.state_bytes_per_receiver(),
    );
    v.set("harness.scale.cold_pass_s", cold_wall);
    Traced {
        values: v,
        tally,
        tracer,
    }
}
