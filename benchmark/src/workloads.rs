//! The four workloads: what one pass runs, how its inputs are made from the
//! seed, and the simulated-result summary every pass is checked against.
//!
//! A *pass* is one fixed unit of work through a front door of the program:
//! `run_suite` over the 14 Table-1 traces × {SRM, CESRM}, or `run_scale`
//! of one rung. The loop is closed (the next pass starts when the previous
//! one returns) and each workload runs in its own process.

use std::hash::{DefaultHasher, Hasher};

use harness::{
    run_scale, run_suite, RunMetrics, ScaleConfig, ScaleResult, SuiteConfig, SuiteResult,
};
use topology::{scale_tree, NodeId, ScaleShape};
use traces::TraceSpec;

/// Workload names, in `BENCHMARK.json` order.
pub const NAMES: [&str; 4] = [
    "suite-paper",
    "suite-observed",
    "scale-1e5",
    "scale-1e5-sharded",
];

#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Kind {
    /// The Table-1 reproduction suite at `scale`, with every instrument
    /// off or (`observed`) with monitors, digests and event capture on.
    Suite { scale: f64, observed: bool },
    /// One CESRM rung of the scaling sweep.
    Scale { receivers: u64, shards: u32 },
}

#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
}

/// Looks a workload up by name. `smoke` shrinks it (suite scale 0.02,
/// 10³ receivers) so the package's own tests finish in seconds.
pub fn workload(name: &str, smoke: bool) -> Option<Workload> {
    let name = *NAMES.iter().find(|n| **n == name)?;
    let receivers = if smoke { 1_000 } else { 100_000 };
    let kind = match name {
        "suite-paper" => Kind::Suite {
            scale: if smoke { 0.02 } else { 0.25 },
            observed: false,
        },
        "suite-observed" => Kind::Suite {
            scale: if smoke { 0.02 } else { 0.1 },
            observed: true,
        },
        "scale-1e5" => Kind::Scale {
            receivers,
            shards: 1,
        },
        _ => Kind::Scale {
            receivers,
            shards: 2,
        },
    };
    Some(Workload { name, kind })
}

/// Which of the suite's observation consumers are attached.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Instruments {
    pub monitor: bool,
    pub digest: bool,
    pub capture: bool,
}

impl Instruments {
    pub const OFF: Instruments = Instruments {
        monitor: false,
        digest: false,
        capture: false,
    };
    pub const ALL: Instruments = Instruments {
        monitor: true,
        digest: true,
        capture: true,
    };
}

/// The suite configuration of one pass: single worker, so the pass is one
/// thread's work and its wall time is not a scheduling artefact.
pub fn suite_cfg(scale: f64, seed: u64, on: Instruments) -> SuiteConfig {
    SuiteConfig {
        seed,
        jobs: Some(1),
        monitor: on.monitor,
        digest: on.digest,
        capture_events: on.capture,
        ..SuiteConfig::quick(scale)
    }
}

/// Input variants an end-to-end run rotates its passes through. One seed
/// alone moves a pass's work by several percent (tree shapes, loss
/// placement, timer draws), which would drown a regression; the median
/// over passes on this many different inputs does not move with it.
pub const VARIANTS: usize = 8;

/// The seed of input variant `k` of a run on `seed`. Variant 0 is `seed`
/// itself; the others are splitmix64 draws, so runs on neighbouring seeds
/// share no inputs.
pub fn variant_seed(seed: u64, k: usize) -> u64 {
    if k == 0 {
        return seed;
    }
    let mut z = seed.wrapping_add((k as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// What the program is handed: generated from the seed here, so the
/// program itself never sees anything but these.
pub enum Inputs {
    Suite(SuiteConfig),
    Scale {
        cfg: ScaleConfig,
        /// Propagation round-trip time source ↔ node, by node id — the
        /// normaliser that turns a recovery latency into RTT units.
        rtt_ns: Vec<u64>,
    },
}

pub fn generate_inputs(wl: &Workload, seed: u64) -> Inputs {
    match wl.kind {
        Kind::Suite { scale, observed } => {
            let on = if observed {
                Instruments::ALL
            } else {
                Instruments::OFF
            };
            Inputs::Suite(suite_cfg(scale, seed, on))
        }
        Kind::Scale { receivers, shards } => {
            let cfg = ScaleConfig {
                seed,
                shards,
                ..ScaleConfig::rung(receivers)
            };
            let st = scale_tree(seed, &ScaleShape::with_target_receivers(receivers));
            // Breadth-first ids put every parent before its children.
            let mut rtt_ns = vec![0u64; st.tree.len()];
            for i in 1..st.tree.len() {
                let parent = st
                    .tree
                    .parent(NodeId(i as u32))
                    .expect("non-root node has a parent");
                rtt_ns[i] = rtt_ns[parent.index()] + 2 * st.link_delay_ns[i];
            }
            Inputs::Scale { cfg, rtt_ns }
        }
    }
}

/// Simulated results of one protocol's runs within a pass.
#[derive(Clone, Copy, Default, PartialEq, Debug)]
pub struct ProtocolSummary {
    pub events: u64,
    pub losses: u64,
    pub recovered: u64,
    pub unrecovered: u64,
    /// Multicast repair requests sent.
    pub requests: u64,
    /// Repair replies sent, normal and expedited (0 where the result type
    /// does not expose them).
    pub replies: u64,
    pub expedited_requests: u64,
    pub expedited_replies: u64,
    pub expedited_recoveries: u64,
    pub retx_crossings: u64,
    pub control_crossings: u64,
    /// Mean recovery latency in units of the receiver's RTT to the source
    /// (suite: mean over traces of `RunMetrics::mean_norm_recovery`).
    pub recovery_rtt: f64,
}

/// Everything a pass is judged by. Pure simulation output: two passes on
/// equal inputs must produce equal summaries, whatever the host does.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Summary {
    /// Hash over every simulated figure, down to each recovery latency.
    pub fingerprint: u64,
    /// Σ over runs of data packets × receivers: the input-defined work.
    pub rx_pkts: u64,
    pub srm: ProtocolSummary,
    pub cesrm: ProtocolSummary,
    /// I1–I6 violations reported by attached monitors.
    pub violations: u64,
}

impl Summary {
    pub fn events(&self) -> u64 {
        self.srm.events + self.cesrm.events
    }

    /// Operations attempted: losses detected.
    pub fn losses(&self) -> u64 {
        self.srm.losses + self.cesrm.losses
    }

    pub fn unrecovered(&self) -> u64 {
        self.srm.unrecovered + self.cesrm.unrecovered
    }
}

fn fold_run(h: &mut DefaultHasher, p: &mut ProtocolSummary, m: &RunMetrics) {
    let sent = |by_node: &[(NodeId, u64, u64)]| {
        by_node
            .iter()
            .fold((0, 0), |(a, b), &(_, x, y)| (a + x, b + y))
    };
    let (requests, _) = sent(&m.requests_by_node);
    let (replies, expedited_replies) = sent(&m.replies_by_node);
    p.events += m.events_processed;
    p.losses += m.losses as u64;
    p.recovered += m.reports.iter().map(|r| r.recovered as u64).sum::<u64>();
    p.unrecovered += m.unrecovered as u64;
    p.requests += requests;
    p.replies += replies + expedited_replies;
    p.expedited_requests += m.expedited_requests;
    p.expedited_replies += m.expedited_replies;
    p.expedited_recoveries += m.reports.iter().map(|r| r.expedited as u64).sum::<u64>();
    p.retx_crossings += m.overhead.retransmissions;
    p.control_crossings += m.overhead.control_total();
    p.recovery_rtt += m.mean_norm_recovery();
    for v in [
        m.events_processed,
        m.losses as u64,
        m.unrecovered as u64,
        requests,
        replies,
        m.expedited_requests,
        m.expedited_replies,
        m.expedited_reply_crossings,
        m.overhead.retransmissions,
        m.overhead.control_multicast,
        m.overhead.control_unicast,
        m.overhead.sessions,
    ] {
        h.write_u64(v);
    }
    for s in &m.samples {
        h.write_u64(u64::from(s.receiver.0));
        h.write_u64(s.norm_latency.to_bits());
        h.write_u64(u64::from(s.expedited));
    }
}

/// Summarises one suite pass from its per-trace `(spec, SRM, CESRM)`
/// results, whichever front door produced them.
pub fn summarize_pairs<'a>(
    pairs: impl Iterator<Item = (&'a TraceSpec, &'a RunMetrics, &'a RunMetrics)>,
    violations: u64,
) -> Summary {
    // `DefaultHasher::new()` is keyed with constants: equal input, equal hash.
    let mut h = DefaultHasher::new();
    let (mut srm, mut cesrm) = (ProtocolSummary::default(), ProtocolSummary::default());
    let (mut rx_pkts, mut traces) = (0u64, 0u32);
    for (spec, s, c) in pairs {
        rx_pkts += 2 * (spec.packets * spec.receivers) as u64;
        traces += 1;
        fold_run(&mut h, &mut srm, s);
        fold_run(&mut h, &mut cesrm, c);
    }
    srm.recovery_rtt /= f64::from(traces.max(1));
    cesrm.recovery_rtt /= f64::from(traces.max(1));
    Summary {
        fingerprint: h.finish(),
        rx_pkts,
        srm,
        cesrm,
        violations,
    }
}

pub fn summarize_suite(r: &SuiteResult) -> Summary {
    summarize_pairs(
        r.pairs.iter().map(|p| (&p.spec, &p.srm, &p.cesrm)),
        r.total_violations(),
    )
}

pub fn summarize_scale(cfg: &ScaleConfig, rtt_ns: &[u64], r: &ScaleResult) -> Summary {
    // `DefaultHasher::new()` is keyed with constants: equal input, equal hash.
    let mut h = DefaultHasher::new();
    h.write(r.csv_row().as_bytes());
    let mut rtt_sum = 0.0;
    for rec in &r.records {
        let latency_ns = rec.latency().map_or(u64::MAX, |l| l.as_nanos());
        h.write_u64(u64::from(rec.receiver.0));
        h.write_u64(rec.id.seq.value());
        h.write_u64(latency_ns);
        h.write_u64(u64::from(rec.expedited));
        if rec.recovered_at.is_some() {
            rtt_sum += latency_ns as f64 / rtt_ns[rec.receiver.index()] as f64;
        }
    }
    Summary {
        fingerprint: h.finish(),
        rx_pkts: cfg.packets * r.receivers,
        srm: ProtocolSummary::default(),
        cesrm: ProtocolSummary {
            events: r.events,
            losses: r.detected,
            recovered: r.recovered,
            unrecovered: r.unrecovered,
            requests: r.requests_sent,
            expedited_recoveries: r.expedited,
            retx_crossings: r.retransmission_crossings,
            control_crossings: r.control_crossings,
            recovery_rtt: crate::stats::ratio(rtt_sum, r.recovered as f64),
            ..ProtocolSummary::default()
        },
        violations: r.violations.unwrap_or(0),
    }
}

/// Times one `run_suite` call; only the front-door call is inside the
/// timed region.
pub fn timed_suite(cfg: &SuiteConfig) -> (f64, Summary, SuiteResult) {
    let started = crate::now();
    let result = run_suite(cfg);
    let wall = started.elapsed().as_secs_f64();
    (wall, summarize_suite(&result), result)
}

/// Times one `run_scale` call, likewise.
pub fn timed_scale(cfg: &ScaleConfig, rtt_ns: &[u64]) -> (f64, Summary, ScaleResult) {
    let started = crate::now();
    let result = run_scale(cfg);
    let wall = started.elapsed().as_secs_f64();
    (wall, summarize_scale(cfg, rtt_ns, &result), result)
}

/// Runs one untraced pass — the unit every end-to-end time is taken over —
/// and returns its host wall time in seconds with its summary.
pub fn timed_pass(inputs: &Inputs) -> (f64, Summary) {
    match inputs {
        Inputs::Suite(cfg) => {
            let (wall, summary, _) = timed_suite(cfg);
            (wall, summary)
        }
        Inputs::Scale { cfg, rtt_ns } => {
            let (wall, summary, _) = timed_scale(cfg, rtt_ns);
            (wall, summary)
        }
    }
}

/// The paper's §4 headline: CESRM cuts SRM's mean recovery latency by
/// roughly half. Results outside this band mean the reproduction broke.
pub const PAPER_REDUCTION_BAND_PCT: (f64, f64) = (40.0, 70.0);

/// `100 × (1 − CESRM/SRM)` of the mean normalized recovery latencies.
pub fn latency_reduction_pct(s: &Summary) -> f64 {
    100.0 * (1.0 - crate::stats::ratio(s.cesrm.recovery_rtt, s.srm.recovery_rtt))
}

/// Running account of the output checks over a run's passes. Operations
/// are detected losses; one fails when it is never recovered, when a
/// monitor flags an invariant violation, or when it belongs to a pass
/// whose simulated results differ from an earlier pass's on equal inputs.
pub struct Tally {
    kind: Kind,
    /// Per input variant, the summary of the first pass that ran it: what
    /// every later pass over that variant must reproduce.
    references: Vec<Summary>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Tally {
    pub fn new(wl: &Workload) -> Self {
        Tally {
            kind: wl.kind,
            references: Vec::new(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
        }
    }

    /// Checks a variant's first pass against what any input must show:
    /// recovery happened, and the paper's claim holds.
    fn check_first(&mut self, label: &str, s: &Summary) {
        if s.losses() == 0 {
            self.failures.push(format!("{label}: no loss was detected"));
        }
        if let Kind::Suite { .. } = self.kind {
            let (srm, cesrm) = (s.srm.recovery_rtt, s.cesrm.recovery_rtt);
            if cesrm >= srm {
                self.failures.push(format!(
                    "{label}: CESRM recovery latency {cesrm:.4} RTT is not below SRM's {srm:.4} RTT"
                ));
            }
            let reduction = latency_reduction_pct(s);
            let (lo, hi) = PAPER_REDUCTION_BAND_PCT;
            if !(lo..=hi).contains(&reduction) {
                self.failures.push(format!(
                    "{label}: latency reduction {reduction:.2} % is outside the paper's {lo}-{hi} % band"
                ));
            }
        } else if s.cesrm.expedited_recoveries == 0 {
            self.failures
                .push(format!("{label}: no recovery took the expedited path"));
        }
    }

    /// Accounts one pass over input variant `variant`. Variants are first
    /// seen in order 0, 1, 2, ….
    pub fn add(&mut self, variant: usize, label: &str, s: &Summary) {
        if variant == self.references.len() {
            self.check_first(label, s);
            self.references.push(*s);
        }
        let reference = self.references[variant];
        self.attempted += s.losses();
        if s.unrecovered() > 0 {
            self.failures.push(format!(
                "{label}: {} losses never recovered",
                s.unrecovered()
            ));
        }
        if s.violations > 0 {
            self.failures
                .push(format!("{label}: {} invariant violations", s.violations));
        }
        // Monitors attach on some passes only, so violations are compared
        // against zero above, not against the reference.
        let same = Summary {
            violations: reference.violations,
            ..*s
        } == reference;
        self.failed += if same {
            (s.unrecovered() + s.violations).min(s.losses())
        } else {
            s.losses()
        };
        if !same {
            self.failures.push(format!(
                "{label}: simulated results differ from the first pass on these inputs ({s:?} vs {reference:?})"
            ));
        }
    }

    /// The first summary of each variant seen, in variant order.
    pub fn references(&self) -> &[Summary] {
        &self.references
    }

    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }
}
