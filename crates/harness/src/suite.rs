use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use cesrm::CesrmConfig;
use netsim::SimDuration;
use traces::{table1, LossStats, Trace, TraceSpec};

use crate::experiment::{infer_plan, run_planned, LossPlan};
use crate::observe::{instruments, run_snapshot};
use crate::runner::{resolve_jobs, run_indexed, RunTiming, SuiteTiming};
use crate::{ExperimentConfig, Protocol, RunMetrics};

/// Configuration of a full evaluation-suite run over the Table-1 traces.
#[derive(Clone, PartialEq, Debug)]
pub struct SuiteConfig {
    /// Base seed for trace synthesis — and with the traces, of the timer
    /// draws of their reenactments (see [`run_trace`](crate::run_trace)).
    pub seed: u64,
    /// Trace scale factor in `(0, 1]`: 1.0 reenacts the full Table-1 packet
    /// counts (minutes of CPU); smaller values shrink packets and losses
    /// proportionally for quick runs.
    pub scale: f64,
    /// Which Table-1 trace numbers (1-based) to run; `None` runs all 14.
    pub traces: Option<Vec<usize>>,
    /// Per-run simulation settings.
    pub experiment: ExperimentConfig,
    /// CESRM configuration (the paper default unless ablating).
    pub cesrm: CesrmConfig,
    /// Worker threads for the (trace × protocol) fan-out. `None` defers to
    /// the `CESRM_JOBS` environment variable and then to
    /// `available_parallelism()`; `Some(1)` forces the serial path. Results
    /// are byte-identical at every setting — only wall-clock changes.
    pub jobs: Option<usize>,
    /// When `true`, every reenactment records its structured recovery
    /// events (see the `obs` crate) into [`SuiteResult::events`]. Each run
    /// owns its own in-memory sink, so capture is race-free under any
    /// worker count and the measured `pairs` stay byte-identical to a
    /// capture-off run.
    pub capture_events: bool,
    /// When `true`, every reenactment self-profiles into
    /// [`SuiteResult::profiles`]: its event counts by kind (SRM
    /// suppression outcomes, CESRM cache traffic, recovery lifecycle) and
    /// the engine's event/timer/packet counts, as named counters (see
    /// [`crate::run_snapshot`]). Like event capture, each run owns its
    /// tally, so profiling is race-free under any worker count and the
    /// measured `pairs` stay byte-identical to a metrics-off run.
    pub collect_metrics: bool,
    /// When `true`, every reenactment streams its events through an online
    /// [`obs::MonitorSet`] checking the six protocol invariants (liveness,
    /// orphan repairs, suppression health, cache coherence, conservation,
    /// monotone causality; see `docs/MONITORS.md`) into
    /// [`SuiteResult::health`]. Each run owns its monitor state, so
    /// checking is race-free under any worker count and the measured
    /// `pairs` stay byte-identical to a monitors-off run.
    pub monitor: bool,
    /// When `true`, every reenactment keeps the engine's always-on
    /// telemetry counters (see `docs/PROFILING.md`) in
    /// [`SuiteResult::profs`]. The counts are exact and deterministic, and
    /// keeping them touches no simulation state.
    pub profile: bool,
    /// When `true`, every reenactment folds its canonical event stream
    /// into an [`obs::DigestRecorder`] (one leaf per (100 ms window, node);
    /// see `docs/DEBUGGING.md`) into
    /// [`SuiteResult::digests`], and rides an [`obs::FlightRecorder`] so
    /// violations and panics dump the last events. Each run owns its
    /// recorder, so digesting is race-free under any worker count and the
    /// measured `pairs` stay byte-identical to a digest-off run.
    pub digest: bool,
}

impl SuiteConfig {
    /// Full-fidelity paper configuration.
    pub fn paper_default() -> Self {
        SuiteConfig {
            seed: 20040628, // DSN 2004 opening day
            scale: 1.0,
            traces: None,
            experiment: ExperimentConfig::paper_default(),
            cesrm: CesrmConfig::paper_default(),
            jobs: None,
            capture_events: false,
            collect_metrics: false,
            monitor: false,
            profile: false,
            digest: false,
        }
    }

    /// A scaled-down suite for tests and benches.
    pub fn quick(scale: f64) -> Self {
        SuiteConfig {
            scale,
            ..SuiteConfig::paper_default()
        }
    }

    /// The paper's link-delay sweep variant (10, 20 or 30 ms).
    pub fn with_link_delay_ms(mut self, ms: u64) -> Self {
        self.experiment.net.link_delay = SimDuration::from_millis(ms);
        self
    }

    /// Sets the worker-thread count (0 and 1 both mean serial).
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = Some(jobs);
        self
    }

    /// Turns on per-run self-profiling (see [`SuiteResult::profiles`]).
    pub fn with_metrics(mut self) -> Self {
        self.collect_metrics = true;
        self
    }

    /// Turns on online invariant monitoring (see [`SuiteResult::health`]).
    pub fn with_monitor(mut self) -> Self {
        self.monitor = true;
        self
    }

    /// Keeps every run's engine telemetry (see [`SuiteResult::profs`] and
    /// `docs/PROFILING.md`).
    pub fn with_profile(mut self) -> Self {
        self.profile = true;
        self
    }

    /// Turns on event-stream digests and the flight recorder
    /// (see [`SuiteResult::digests`] and `docs/DEBUGGING.md`).
    pub fn with_digest(mut self) -> Self {
        self.digest = true;
        self
    }

    /// The (possibly scaled) specs this configuration selects, in Table-1
    /// order.
    pub(crate) fn selected_specs(&self) -> Vec<TraceSpec> {
        table1()
            .into_iter()
            .filter(|spec| {
                self.traces
                    .as_ref()
                    .is_none_or(|only| only.contains(&spec.number))
            })
            .map(|spec| {
                if self.scale < 1.0 {
                    spec.scaled(self.scale)
                } else {
                    spec
                }
            })
            .collect()
    }
}

/// One trace reenacted under both protocols.
#[derive(Clone, Debug)]
pub struct TracePair {
    /// The (possibly scaled) Table-1 specification.
    pub spec: TraceSpec,
    /// Loss-locality statistics of the synthesized trace.
    pub trace_stats: LossStats,
    /// The SRM baseline measurements.
    pub srm: RunMetrics,
    /// The CESRM measurements.
    pub cesrm: RunMetrics,
}

impl TracePair {
    /// CESRM's mean normalized recovery latency as a fraction of SRM's —
    /// the paper reports 0.3–0.6 (i.e. a 40–70 % reduction).
    pub fn latency_ratio(&self) -> f64 {
        let s = self.srm.mean_norm_recovery();
        if s == 0.0 {
            return 1.0;
        }
        self.cesrm.mean_norm_recovery() / s
    }

    /// CESRM retransmission overhead as a fraction of SRM's (Fig. 5 right;
    /// the paper reports below 0.8 everywhere, below 0.6 for 10 traces).
    pub fn retransmission_overhead_ratio(&self) -> f64 {
        let s = self.srm.overhead.retransmissions;
        if s == 0 {
            return 1.0;
        }
        self.cesrm.overhead.retransmissions as f64 / s as f64
    }

    /// CESRM control overhead (multicast + unicast requests) as a fraction
    /// of SRM's control overhead.
    pub fn control_overhead_ratio(&self) -> f64 {
        let s = self.srm.overhead.control_total();
        if s == 0 {
            return 1.0;
        }
        self.cesrm.overhead.control_total() as f64 / s as f64
    }
}

/// Structured recovery events captured from one (trace × protocol)
/// reenactment, with enough run context to interpret them on their own.
#[derive(Clone, Debug)]
pub struct RunEventLog {
    /// Table-1 trace number (1-based).
    pub trace: usize,
    /// Trace name, e.g. `"WRN950919"`.
    pub name: &'static str,
    /// `"SRM"` or `"CESRM"`.
    pub protocol: &'static str,
    /// Per-receiver round-trip time to the source in nanoseconds, for
    /// normalizing recovery latencies into RTT units.
    pub rtt_ns: Vec<(u32, u64)>,
    /// The captured events in simulation-time order, packed.
    pub records: obs::RecordLog,
}

/// The self-profile of one (trace × protocol) reenactment: the run's
/// metrics snapshot plus the wall-clock context needed to turn it into
/// throughput figures. Only the `wall` field depends on the machine and
/// worker count; everything else is deterministic.
#[derive(Clone, Debug)]
pub struct RunProfile {
    /// Table-1 trace number (1-based).
    pub trace: usize,
    /// Trace name, e.g. `"WRN950919"`.
    pub name: &'static str,
    /// `"SRM"` or `"CESRM"`.
    pub protocol: &'static str,
    /// Wall-clock time of the reenactment on its worker thread.
    pub wall: Duration,
    /// Simulator events processed (the events/sec numerator).
    pub events_processed: u64,
    /// High-water length of the simulator event queue
    /// (`EngineTelemetry::queue.max_len`).
    pub queue_max_len: u64,
    /// Every counter the run registered.
    pub snapshot: obs::MetricsSnapshot,
}

impl RunProfile {
    /// Simulator events processed per wall-clock second (0 when the run
    /// was too fast to time).
    pub fn events_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            self.events_processed as f64 / secs
        } else {
            0.0
        }
    }

    /// Estimated peak memory of the simulator event queue in bytes:
    /// queue-depth high water × the per-event footprint. A deterministic
    /// lower-bound estimate, not an RSS measurement.
    pub fn peak_queue_bytes(&self) -> u64 {
        self.queue_max_len * netsim::scheduled_event_footprint_bytes() as u64
    }
}

/// The engine telemetry of one (trace × protocol) reenactment (see
/// `docs/PROFILING.md`): exact counts, deterministic at every worker count.
#[derive(Clone, Debug)]
pub struct RunProf {
    /// Table-1 trace number (1-based).
    pub trace: usize,
    /// Trace name, e.g. `"WRN950919"`.
    pub name: &'static str,
    /// `"SRM"` or `"CESRM"`.
    pub protocol: &'static str,
    /// Calendar-queue, arena and loss-model counters from the engine.
    pub engine: netsim::EngineTelemetry,
}

/// The invariant-monitor verdict of one (trace × protocol) reenactment:
/// the run's [`obs::MonitorReport`] plus enough context to interpret it on
/// its own. Everything in here is derived from simulation-time events
/// only, so two runs of equal configuration produce byte-identical health
/// at every worker count.
#[derive(Clone, Debug)]
pub struct RunHealth {
    /// Table-1 trace number (1-based).
    pub trace: usize,
    /// Trace name, e.g. `"WRN950919"`.
    pub name: &'static str,
    /// `"SRM"` or `"CESRM"`.
    pub protocol: &'static str,
    /// The monitor verdict: stats, violations (with provenance timelines)
    /// and anomalies.
    pub report: obs::MonitorReport,
}

/// The event-stream digest of one (trace × protocol)
/// reenactment: the run's [`obs::DigestSnapshot`] plus enough context to
/// interpret it on its own. Everything in here is derived from
/// simulation-time events only, so two runs of equal configuration
/// produce byte-identical digest trails at every worker count.
#[derive(Clone, Debug)]
pub struct RunDigest {
    /// Table-1 trace number (1-based).
    pub trace: usize,
    /// Trace name, e.g. `"WRN950919"`.
    pub name: &'static str,
    /// `"SRM"` or `"CESRM"`.
    pub protocol: &'static str,
    /// The per-(window, node) leaf digests of the run's canonical event
    /// stream.
    pub snapshot: obs::DigestSnapshot,
}

/// The full evaluation suite: every requested trace under SRM and CESRM.
#[derive(Clone, Debug)]
pub struct SuiteResult {
    /// Scale factor the suite ran at.
    pub scale: f64,
    /// Per-trace results, in Table-1 order.
    pub pairs: Vec<TracePair>,
    /// Structured event logs, one per run in slot order (SRM before CESRM
    /// per trace); empty unless [`SuiteConfig::capture_events`] was set.
    /// Kept out of [`TracePair`] so capture can never perturb the
    /// measurement comparisons.
    pub events: Vec<RunEventLog>,
    /// Per-run self-profiles, one per run in slot order (SRM before CESRM
    /// per trace); empty unless [`SuiteConfig::collect_metrics`] was set.
    /// Kept out of [`TracePair`] so profiling can never perturb the
    /// measurement comparisons.
    pub profiles: Vec<RunProfile>,
    /// Per-run invariant-monitor verdicts, one per run in slot order (SRM
    /// before CESRM per trace); empty unless [`SuiteConfig::monitor`] was
    /// set. Kept out of [`TracePair`] so monitoring can never perturb the
    /// measurement comparisons.
    pub health: Vec<RunHealth>,
    /// Per-run engine telemetry, one per run in slot order (SRM before
    /// CESRM per trace); empty unless [`SuiteConfig::profile`] was set.
    pub profs: Vec<RunProf>,
    /// Per-run digests, one per run in slot order (SRM before
    /// CESRM per trace); empty unless [`SuiteConfig::digest`] was set.
    /// Kept out of [`TracePair`] so digesting can never perturb the
    /// measurement comparisons.
    pub digests: Vec<RunDigest>,
    /// Wall-clock observability of this invocation. Timing never feeds
    /// back into the measurements: two runs of equal configuration have
    /// equal `pairs` (and CSV output) regardless of `jobs`.
    pub timing: SuiteTiming,
}

impl SuiteResult {
    /// Folds every per-run snapshot into one suite-wide snapshot, in slot
    /// order. Snapshot merging is associative and the fold order is fixed,
    /// so the merged counters are identical at every worker count. Empty
    /// when the suite ran without [`SuiteConfig::collect_metrics`].
    pub fn merged_snapshot(&self) -> obs::MetricsSnapshot {
        let mut merged = obs::MetricsSnapshot::default();
        for profile in &self.profiles {
            merged.merge(&profile.snapshot);
        }
        merged
    }

    /// Total simulator events processed across every profiled run.
    pub fn total_events(&self) -> u64 {
        self.profiles.iter().map(|p| p.events_processed).sum()
    }

    /// Total invariant violations across every monitored run (the full
    /// count, not just the bounded violation lists).
    pub fn total_violations(&self) -> u64 {
        self.health.iter().map(|h| h.report.stats.violations).sum()
    }

    /// Total anomalies (repair storms, latency outliers) across every
    /// monitored run.
    pub fn total_anomalies(&self) -> u64 {
        self.health.iter().map(|h| h.report.stats.anomalies).sum()
    }
}

/// What the SRM and the CESRM job of one (trace × seed) both need and
/// neither changes: the synthesized trace, its loss statistics and its
/// §4.2 plan.
#[derive(Debug)]
struct Prepared {
    trace: Trace,
    stats: LossStats,
    plan: LossPlan,
}

/// A fully owned description of one (trace × protocol × seed) reenactment;
/// `Send`, unlike the simulator it constructs on its worker thread.
#[derive(Clone, Debug)]
struct RunJob {
    spec: TraceSpec,
    protocol: Protocol,
    seed: u64,
    /// Shared by the two jobs of a trace and filled by whichever starts
    /// first; freed when the second finishes, so at most `workers` traces
    /// are live at once.
    prepared: Arc<OnceLock<Prepared>>,
    experiment: ExperimentConfig,
    capture: bool,
    profile: bool,
    monitor: bool,
    prof: bool,
    digest: bool,
}

/// What one job sends back through the pool.
struct RunOutput {
    spec: TraceSpec,
    metrics: RunMetrics,
    trace_stats: LossStats,
    /// The captured structured events, when the suite asked for them.
    events: Option<RunEventLog>,
    /// The run's self-profile, when the suite asked for one.
    profile: Option<RunProfile>,
    /// The run's invariant-monitor verdict, when the suite asked for one.
    health: Option<RunHealth>,
    /// The run's engine telemetry, when the suite asked for it.
    prof: Option<RunProf>,
    /// The run's digest, when the suite asked for one.
    digest: Option<RunDigest>,
    timing: RunTiming,
}

impl RunJob {
    fn execute(&self) -> RunOutput {
        // simlint: allow(D002, reason = "per-run wall-clock timing for --timings; never feeds simulation state")
        let started = Instant::now();
        let Prepared { trace, stats, plan } = self.prepared.get_or_init(|| {
            let (trace, truth) = self.spec.generate_with_truth(self.seed);
            Prepared {
                stats: LossStats::from_trace(&trace, Some(&truth)),
                plan: infer_plan(&trace),
                trace,
            }
        });
        let protocol_name = self.protocol.name();
        // Each run builds its observation handle on its own worker thread
        // (the handle is `!Send` by design) and ships only plain-data
        // snapshots back through the pool, so worker threads never share
        // event or counter state at any worker count.
        let handle = instruments(
            obs::Setup {
                sink: self
                    .capture
                    .then(|| Box::new(obs::MemorySink::new()) as Box<dyn obs::EventSink>),
                monitors: self.monitor.then(obs::MonitorSet::standard),
                digest: self.digest.then(obs::DigestRecorder::default),
                metrics: self.profile,
                ..obs::Setup::default()
            },
            || {
                format!(
                    "trace {} {} / {}, seed {}",
                    self.spec.number, self.spec.name, protocol_name, self.seed
                )
            },
        );
        let (metrics, engine) = run_planned(trace, plan, self.protocol, &self.experiment, &handle);
        obs::flight::clear_current();
        let digest = self.digest.then(|| RunDigest {
            trace: self.spec.number,
            name: self.spec.name,
            protocol: protocol_name,
            snapshot: handle
                .digest_snapshot()
                .expect("digest jobs attach a recorder"),
        });
        let events = self.capture.then(|| {
            let tree = trace.tree();
            RunEventLog {
                trace: self.spec.number,
                name: self.spec.name,
                protocol: protocol_name,
                rtt_ns: tree
                    .receivers()
                    .iter()
                    .map(|&r| {
                        let rtt = metrics::rtt_to_source(tree, &self.experiment.net, r);
                        (r.0, rtt.as_nanos())
                    })
                    .collect(),
                records: handle.drain(),
            }
        });
        let health = handle.finish_monitors().map(|report| RunHealth {
            trace: self.spec.number,
            name: self.spec.name,
            protocol: protocol_name,
            report,
        });
        let wall = started.elapsed();
        let profile = self.profile.then(|| RunProfile {
            trace: self.spec.number,
            name: self.spec.name,
            protocol: protocol_name,
            wall,
            events_processed: metrics.events_processed,
            queue_max_len: engine.queue.max_len,
            snapshot: run_snapshot(&handle, &engine),
        });
        let prof_out = self.prof.then_some(RunProf {
            trace: self.spec.number,
            name: self.spec.name,
            protocol: protocol_name,
            engine,
        });
        RunOutput {
            spec: self.spec.clone(),
            metrics,
            trace_stats: stats.clone(),
            events,
            profile,
            health,
            prof: prof_out,
            digest,
            timing: RunTiming {
                trace: self.spec.number,
                name: self.spec.name,
                protocol: protocol_name,
                wall,
            },
        }
    }
}

/// Expands one suite configuration into its job list: Table-1 order, SRM
/// before CESRM per trace. Slot index = `2 × trace_index + protocol`.
fn suite_jobs(cfg: &SuiteConfig, seed: u64) -> Vec<RunJob> {
    cfg.selected_specs()
        .into_iter()
        .flat_map(|spec| {
            let prepared = Arc::new(OnceLock::new());
            [Protocol::Srm, Protocol::Cesrm(cfg.cesrm)].map(|protocol| RunJob {
                spec: spec.clone(),
                protocol,
                seed,
                prepared: Arc::clone(&prepared),
                experiment: cfg.experiment,
                capture: cfg.capture_events,
                profile: cfg.collect_metrics,
                monitor: cfg.monitor,
                prof: cfg.profile,
                digest: cfg.digest,
            })
        })
        .collect()
}

/// Folds a slot-ordered run list back into per-trace pairs.
fn assemble(cfg: &SuiteConfig, outputs: Vec<RunOutput>) -> SuiteResult {
    assert!(
        outputs.len().is_multiple_of(2),
        "jobs come in SRM/CESRM pairs"
    );
    let mut pairs = Vec::with_capacity(outputs.len() / 2);
    let mut runs = Vec::with_capacity(outputs.len());
    let mut events = Vec::new();
    let mut profiles = Vec::new();
    let mut health = Vec::new();
    let mut profs = Vec::new();
    let mut digests = Vec::new();
    let mut it = outputs.into_iter();
    while let (Some(mut srm), Some(mut cesrm)) = (it.next(), it.next()) {
        runs.push(srm.timing.clone());
        runs.push(cesrm.timing.clone());
        events.extend(srm.events.take());
        events.extend(cesrm.events.take());
        profiles.extend(srm.profile.take());
        profiles.extend(cesrm.profile.take());
        health.extend(srm.health.take());
        health.extend(cesrm.health.take());
        profs.extend(srm.prof.take());
        profs.extend(cesrm.prof.take());
        digests.extend(srm.digest.take());
        digests.extend(cesrm.digest.take());
        pairs.push(TracePair {
            spec: srm.spec,
            trace_stats: srm.trace_stats,
            srm: srm.metrics,
            cesrm: cesrm.metrics,
        });
    }
    SuiteResult {
        scale: cfg.scale,
        pairs,
        events,
        profiles,
        health,
        profs,
        digests,
        timing: SuiteTiming {
            jobs: 0,
            wall: Duration::ZERO,
            runs,
        },
    }
}

/// Runs the evaluation suite per `cfg`, fanning the (trace × protocol)
/// reenactments across worker threads (see [`crate::runner`]); results and
/// derived artifacts are identical at every worker count.
pub fn run_suite(cfg: &SuiteConfig) -> SuiteResult {
    run_suites(cfg, &[cfg.seed])
        .pop()
        .expect("one seed yields one result")
}

/// Runs the suite once per seed through a single shared worker pool, so a
/// multi-seed sweep saturates the machine even when each suite is small.
/// Results are in `seeds` order and independent of the worker count.
pub fn run_suites(cfg: &SuiteConfig, seeds: &[u64]) -> Vec<SuiteResult> {
    assert!(
        cfg.scale > 0.0 && cfg.scale <= 1.0,
        "scale must lie in (0, 1]"
    );
    // simlint: allow(D002, reason = "suite wall-clock for the bench report; results are simulation-time only")
    let started = Instant::now();
    let per_seed: Vec<Vec<RunJob>> = seeds.iter().map(|&s| suite_jobs(cfg, s)).collect();
    let stride = per_seed.first().map_or(0, Vec::len);
    let jobs: Vec<RunJob> = per_seed.into_iter().flatten().collect();
    // Clamp to the job count *before* recording: `run_indexed` never spawns
    // more workers than jobs, and the bench report must state the worker
    // count actually used, not the one requested (a `--jobs 64` run of a
    // 2-job suite executes on 2 workers).
    let workers = resolve_jobs(cfg.jobs).clamp(1, jobs.len().max(1));
    let outputs = run_indexed(jobs, workers, |_, job| job.execute());

    let mut results = Vec::with_capacity(seeds.len());
    let mut remaining = outputs;
    for _ in seeds {
        let rest = remaining.split_off(stride.min(remaining.len()));
        let mut result = assemble(cfg, remaining);
        result.timing.jobs = workers;
        result.timing.wall = started.elapsed();
        results.push(result);
        remaining = rest;
    }
    results
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_suite() -> SuiteResult {
        let mut cfg = SuiteConfig::quick(0.01);
        cfg.traces = Some(vec![4, 13]);
        run_suite(&cfg)
    }

    #[test]
    fn suite_runs_selected_traces() {
        let r = tiny_suite();
        assert_eq!(r.pairs.len(), 2);
        assert_eq!(r.pairs[0].spec.number, 4);
        assert_eq!(r.pairs[1].spec.number, 13);
        for p in &r.pairs {
            assert_eq!(p.srm.unrecovered, 0);
            assert_eq!(p.cesrm.unrecovered, 0);
            assert!(p.srm.losses > 0);
            // Identical loss injection, but CESRM may *detect* slightly
            // fewer losses: an expedited repair sometimes lands before the
            // receiver notices the gap.
            assert!(
                p.cesrm.losses <= p.srm.losses
                    && p.cesrm.losses as f64 >= 0.9 * p.srm.losses as f64,
                "loss counts diverged: SRM {} vs CESRM {}",
                p.srm.losses,
                p.cesrm.losses
            );
        }
    }

    #[test]
    fn cesrm_improves_latency_and_overhead_on_tiny_suite() {
        let r = tiny_suite();
        for p in &r.pairs {
            assert!(
                p.latency_ratio() < 0.9,
                "trace {}: latency ratio {:.2}",
                p.spec.name,
                p.latency_ratio()
            );
            assert!(
                p.retransmission_overhead_ratio() <= 1.05,
                "trace {}: retrans ratio {:.2}",
                p.spec.name,
                p.retransmission_overhead_ratio()
            );
        }
    }

    #[test]
    fn timings_cover_every_run() {
        let r = tiny_suite();
        assert_eq!(r.timing.runs.len(), 2 * r.pairs.len());
        assert!(r.timing.jobs >= 1);
        assert!(r.timing.wall >= Duration::ZERO);
        assert_eq!(r.timing.runs[0].protocol, "SRM");
        assert_eq!(r.timing.runs[1].protocol, "CESRM");
        assert_eq!(r.timing.runs[0].trace, 4);
        assert!(r.timing.cpu_total() > Duration::ZERO);
    }

    #[test]
    fn timing_records_effective_worker_count() {
        // 2 traces × 2 protocols = 4 jobs; an oversized request must be
        // reported as the clamped count that actually ran.
        let mut cfg = SuiteConfig::quick(0.01).with_jobs(64);
        cfg.traces = Some(vec![4, 13]);
        let r = run_suite(&cfg);
        assert_eq!(r.timing.jobs, 4, "jobs must be clamped to the job count");
    }

    #[test]
    fn multicore_parallel_run_reports_superunit_speedup() {
        if crate::runner::default_parallelism() < 2 {
            // Single-core runner: workers cannot overlap, speedup ≈ 1.
            return;
        }
        let mut cfg = SuiteConfig::quick(0.01).with_jobs(2);
        cfg.traces = Some(vec![4, 13]);
        let r = run_suite(&cfg);
        assert_eq!(r.timing.jobs, 2);
        let speedup = r.timing.cpu_total().as_secs_f64() / r.timing.wall.as_secs_f64();
        assert!(
            speedup > 1.0,
            "2 workers on a multi-core host must overlap work, got speedup {speedup:.3}"
        );
    }

    #[test]
    fn multi_seed_batch_matches_individual_runs() {
        let mut cfg = SuiteConfig::quick(0.01);
        cfg.traces = Some(vec![4]);
        let batch = run_suites(&cfg, &[1, 2]);
        assert_eq!(batch.len(), 2);
        let mut solo = cfg;
        solo.seed = 2;
        let alone = run_suite(&solo);
        assert_eq!(
            format!("{:?}", batch[1].pairs),
            format!("{:?}", alone.pairs)
        );
    }

    #[test]
    #[should_panic(expected = "scale must lie in (0, 1]")]
    fn bad_scale_rejected() {
        run_suite(&SuiteConfig::quick(0.0));
    }

    #[test]
    fn profiles_are_off_by_default_and_slot_ordered_when_on() {
        assert!(tiny_suite().profiles.is_empty());

        let mut cfg = SuiteConfig::quick(0.01).with_metrics();
        cfg.traces = Some(vec![4, 13]);
        let r = run_suite(&cfg);
        assert_eq!(r.profiles.len(), 4);
        assert_eq!(r.profiles[0].trace, 4);
        assert_eq!(r.profiles[0].protocol, "SRM");
        assert_eq!(r.profiles[1].protocol, "CESRM");
        assert_eq!(r.profiles[2].trace, 13);
        for p in &r.profiles {
            assert!(
                p.events_processed > 0,
                "{}/{} saw no events",
                p.name,
                p.protocol
            );
            assert!(p.snapshot.counters["sim.events.hop"] > 0);
            assert!(p.peak_queue_bytes() > 0);
        }
        // Only CESRM runs touch the cache; SRM runs must not.
        assert_eq!(r.profiles[0].snapshot.counters["cesrm.cache.hits"], 0);
        assert!(r.profiles[1].snapshot.counters["cesrm.cache.hits"] > 0);
        assert!(r.total_events() > 0);
    }

    #[test]
    fn digests_are_off_by_default_and_worker_count_invariant() {
        assert!(tiny_suite().digests.is_empty());

        let mut cfg = SuiteConfig::quick(0.01).with_digest();
        cfg.traces = Some(vec![4, 13]);
        let plain = {
            let mut c = SuiteConfig::quick(0.01);
            c.traces = Some(vec![4, 13]);
            run_suite(&c)
        };
        let serial = run_suite(&cfg.clone().with_jobs(1));
        let parallel = run_suite(&cfg.with_jobs(4));

        // Digesting must not change the science.
        assert_eq!(format!("{:?}", plain.pairs), format!("{:?}", serial.pairs));
        // The digest trail is slot-ordered and worker-count-invariant.
        assert_eq!(serial.digests.len(), 4);
        assert_eq!(serial.digests[0].trace, 4);
        assert_eq!(serial.digests[0].protocol, "SRM");
        assert_eq!(serial.digests[1].protocol, "CESRM");
        assert_eq!(serial.digests.len(), parallel.digests.len());
        for (s, p) in serial.digests.iter().zip(&parallel.digests) {
            assert!(
                s.snapshot.count() > 0,
                "{}/{} digested no events",
                s.name,
                s.protocol
            );
            assert_eq!(
                s.snapshot, p.snapshot,
                "{}/{} diverged across jobs",
                s.name, s.protocol
            );
        }
    }

    #[test]
    fn profiling_never_perturbs_measurements_and_merges_identically() {
        let mut plain = SuiteConfig::quick(0.01);
        plain.traces = Some(vec![4]);
        let mut profiled = plain.clone().with_metrics();
        let baseline = run_suite(&plain);

        let serial = run_suite(&profiled.clone().with_jobs(1));
        profiled.jobs = Some(4);
        let parallel = run_suite(&profiled);

        // Metrics collection must not change the science.
        assert_eq!(
            format!("{:?}", baseline.pairs),
            format!("{:?}", serial.pairs)
        );
        // The merged counters are worker-count-invariant (snapshots carry
        // no wall-clock, so Debug equality is exact).
        assert_eq!(serial.merged_snapshot(), parallel.merged_snapshot());
        assert_eq!(serial.total_events(), parallel.total_events());
    }
}
