//! The run report: one `cesrm-run/2` JSON document per `reproduce` or
//! `reproduce scale` invocation (`BENCH_<YYYYMMDD>.json` /
//! `BENCH_SCALE_<YYYYMMDD>.json`).
//!
//! [`suite_report`] renders a suite run and [`scale_report`] a scale
//! sweep, both through one builder, so every report has one shape:
//! `{schema, created, workload, totals, counters?, headline?, runs[],
//! profile?, health?}`, where a `?` member is present only when the run
//! produced it. `docs/METRICS.md` documents the members;
//! `tests/schema_locks.rs` renders every section and pins the key paths in
//! `schemas/cesrm-run-2.lock`.
//!
//! - **Member order is fixed** (the `obs::JsonValue` object model is
//!   ordered), so equal runs produce byte-equal documents.
//! - **Volatile members are enumerable**: exactly the members named in
//!   [`VOLATILE_FIELDS`] depend on the machine, the worker count or the
//!   wall clock. [`strip_volatile`] nulls them, and two reports of one
//!   configuration agree byte-for-byte after stripping at any `--jobs`
//!   (`tests/determinism.rs`) and, for scale reports, at a fixed shard
//!   count.
//! - **Everything else is deterministic**: counters, headline figures,
//!   engine telemetry, shard epochs and packet counts, and the whole
//!   `health` member, which needs no stripping at all.

use std::time::{Duration, SystemTime, UNIX_EPOCH};

use obs::{Invariant, JsonValue, RecoveryTimeline, Violation};

use crate::scale::ScaleResult;
use crate::suite::{RunHealth, RunProfile, SuiteConfig, SuiteResult, TracePair};

/// Version tag every report carries; bump it whenever a key path changes.
pub const RUN_SCHEMA: &str = "cesrm-run/2";

/// Member names that legitimately differ between two runs of one
/// configuration: the date, the worker count, wall-clock readings and
/// everything derived from them (throughput, RSS, the `--overhead`
/// timings and shard busy and barrier times).
/// [`strip_volatile`] nulls these wherever they appear in the document.
pub const VOLATILE_FIELDS: &[&str] = &[
    "created",
    "jobs",
    "wall_s",
    "cpu_s",
    "speedup",
    "events_per_sec",
    "overhead",
    "peak_rss_bytes",
    "busy_ns",
    "barrier_ns",
    "imbalance_ratio",
];

/// Wall- and CPU-time of one suite configuration with an observation
/// layer on vs off (`reproduce --overhead`), reported under
/// `totals.overhead.<layer>`.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Overhead {
    /// Suite wall-clock with the layer off, seconds.
    pub wall_off_s: f64,
    /// Suite wall-clock with the layer on, seconds.
    pub wall_on_s: f64,
    /// Serial-equivalent CPU time with the layer off, seconds.
    pub cpu_off_s: f64,
    /// Serial-equivalent CPU time with the layer on, seconds.
    pub cpu_on_s: f64,
}

impl Overhead {
    /// CPU-time overhead of the layer, percent (CPU rather than wall so
    /// the figure is stable under parallel scheduling jitter).
    pub fn overhead_pct(&self) -> f64 {
        if self.cpu_off_s > 0.0 {
            (self.cpu_on_s - self.cpu_off_s) / self.cpu_off_s * 100.0
        } else {
            0.0
        }
    }

    /// Whether the overhead passes the gate: within `max_pct`, or the
    /// absolute CPU delta is under `noise_floor_s` (tiny smoke-scale
    /// suites finish in milliseconds, where a percentage of nothing is
    /// all timer noise).
    pub fn within(&self, max_pct: f64, noise_floor_s: f64) -> bool {
        self.cpu_on_s - self.cpu_off_s <= noise_floor_s || self.overhead_pct() <= max_pct
    }

    fn json(&self) -> JsonValue {
        JsonValue::obj(vec![
            ("wall_off_s", num(self.wall_off_s)),
            ("wall_on_s", num(self.wall_on_s)),
            ("cpu_off_s", num(self.cpu_off_s)),
            ("cpu_on_s", num(self.cpu_on_s)),
            ("overhead_pct", num(self.overhead_pct())),
        ])
    }
}

/// One measured scale rung: the runner's result plus what only the
/// driving process can read around it.
#[derive(Clone, Debug)]
pub struct RungOutcome {
    /// The run's result (its digest snapshot, if any, moved to `digest`
    /// so one copy is kept).
    pub result: ScaleResult,
    /// Wall-clock time of the rung.
    pub wall: Duration,
    /// Peak resident set of the process during the rung, bytes.
    pub peak_rss_bytes: u64,
    /// The rung's merged digest snapshot, when the rung ran with the
    /// digest on.
    pub digest: Option<obs::DigestSnapshot>,
}

impl RungOutcome {
    /// Simulator events per wall-clock second.
    pub fn events_per_sec(&self) -> f64 {
        per_sec(self.result.events, self.wall.as_secs_f64())
    }
}

/// Today's UTC date as (year, month, day).
fn utc_today() -> (i64, u32, u32) {
    // simlint: allow(D002, reason = "date stamp for report filenames and the `created` header; not simulation time")
    let secs = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    civil_from_days((secs / 86_400) as i64)
}

/// Today's UTC date as `YYYYMMDD`, for the `BENCH_<date>.json` filename.
pub fn utc_date_stamp() -> String {
    let (y, m, d) = utc_today();
    format!("{y:04}{m:02}{d:02}")
}

/// Today's UTC date as `YYYY-MM-DD`, the `created` member of every
/// report.
fn utc_date_iso() -> String {
    let (y, m, d) = utc_today();
    format!("{y:04}-{m:02}-{d:02}")
}

/// Days-since-1970 to (year, month, day), valid for the Gregorian
/// calendar (Howard Hinnant's `civil_from_days` algorithm).
fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097); // [0, 146096]
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
    let mp = (5 * doy + 2) / 153; // [0, 11]
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32; // [1, 31]
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32; // [1, 12]
    (if m <= 2 { y + 1 } else { y }, m, d)
}

fn num(n: f64) -> JsonValue {
    JsonValue::Num(n)
}

fn per_sec(events: u64, secs: f64) -> f64 {
    if secs > 0.0 {
        events as f64 / secs
    } else {
        0.0
    }
}

/// The members of one `cesrm-run/2` document after `schema` and
/// `created`; `None` members are left out.
struct RunDoc {
    workload: JsonValue,
    totals: JsonValue,
    counters: Option<JsonValue>,
    headline: Option<JsonValue>,
    runs: Vec<JsonValue>,
    profile: Option<JsonValue>,
    health: Option<JsonValue>,
}

impl RunDoc {
    /// The pretty-printed document, trailing newline included (as
    /// committed report files want).
    fn render(self) -> String {
        let mut members = vec![
            ("schema", JsonValue::str_val(RUN_SCHEMA)),
            ("created", JsonValue::Str(utc_date_iso())),
            ("workload", self.workload),
            ("totals", self.totals),
        ];
        members.extend(self.counters.map(|c| ("counters", c)));
        members.extend(self.headline.map(|h| ("headline", h)));
        members.push(("runs", JsonValue::Arr(self.runs)));
        members.extend(self.profile.map(|p| ("profile", p)));
        members.extend(self.health.map(|h| ("health", h)));
        let mut text = JsonValue::obj(members).to_string_pretty();
        text.push('\n');
        text
    }
}

/// Renders one suite run as a `cesrm-run/2` document. `overhead` holds
/// the `--overhead` measurements as `(layer, measurement)` pairs (layers
/// `monitor`, `digest`) for `totals.overhead`, which is left
/// out when empty. The `profile` and `health` members appear when the
/// suite ran with [`SuiteConfig::profile`] / [`SuiteConfig::monitor`].
///
/// # Panics
///
/// Panics if `result` carries no per-run profiles — run the suite with
/// [`SuiteConfig::collect_metrics`] (or [`SuiteConfig::with_metrics`]).
pub fn suite_report(
    cfg: &SuiteConfig,
    result: &SuiteResult,
    overhead: &[(&str, Overhead)],
) -> String {
    assert!(
        !result.profiles.is_empty(),
        "suite_report needs a suite run with collect_metrics set"
    );
    let wall_s = result.timing.wall.as_secs_f64();
    let cpu_s = result.timing.cpu_total().as_secs_f64();
    let events = result.total_events();
    let workload = JsonValue::obj(vec![
        ("mode", JsonValue::str_val("suite")),
        ("scale", num(cfg.scale)),
        ("seed", JsonValue::uint(cfg.seed)),
        (
            "traces",
            cfg.traces.as_ref().map_or(JsonValue::Null, |only| {
                JsonValue::Arr(only.iter().map(|&t| JsonValue::uint(t as u64)).collect())
            }),
        ),
        (
            "link_delay_ms",
            num(cfg.experiment.net.link_delay.as_nanos() as f64 / 1e6),
        ),
        (
            "lossy_recovery",
            JsonValue::Bool(cfg.experiment.lossy_recovery),
        ),
        (
            "cache_capacity",
            JsonValue::uint(cfg.cesrm.cache_capacity as u64),
        ),
        ("router_assist", JsonValue::Bool(cfg.cesrm.router_assist)),
        ("jobs", JsonValue::uint(result.timing.jobs as u64)),
    ]);
    let mut totals = vec![
        ("runs", JsonValue::uint(result.profiles.len() as u64)),
        ("wall_s", num(wall_s)),
        ("cpu_s", num(cpu_s)),
        (
            "speedup",
            num(if wall_s > 0.0 { cpu_s / wall_s } else { 0.0 }),
        ),
        ("events", JsonValue::uint(events)),
        ("events_per_sec", num(per_sec(events, wall_s))),
        (
            "peak_queue_bytes",
            JsonValue::uint(
                result
                    .profiles
                    .iter()
                    .map(RunProfile::peak_queue_bytes)
                    .max()
                    .unwrap_or(0),
            ),
        ),
    ];
    if !overhead.is_empty() {
        let layers = overhead.iter().map(|(layer, o)| (*layer, o.json()));
        totals.push(("overhead", JsonValue::obj(layers.collect())));
    }
    let counters = JsonValue::Obj(
        result
            .merged_snapshot()
            .counters
            .into_iter()
            .map(|(k, v)| (k, JsonValue::uint(v)))
            .collect(),
    );
    let runs = result
        .profiles
        .iter()
        .map(|p| {
            let run_wall = p.wall.as_secs_f64();
            JsonValue::obj(vec![
                ("trace", JsonValue::uint(p.trace as u64)),
                ("name", JsonValue::str_val(p.name)),
                ("protocol", JsonValue::str_val(p.protocol)),
                ("events", JsonValue::uint(p.events_processed)),
                ("peak_queue_bytes", JsonValue::uint(p.peak_queue_bytes())),
                ("wall_s", num(run_wall)),
                ("events_per_sec", num(per_sec(p.events_processed, run_wall))),
            ])
        })
        .collect();
    let profile = (!result.profs.is_empty()).then(|| {
        let mut engine = netsim::EngineTelemetry::default();
        for p in &result.profs {
            engine.merge(&p.engine);
        }
        profile_json(&engine, None)
    });
    RunDoc {
        workload,
        totals: JsonValue::obj(totals),
        counters: Some(counters),
        headline: Some(headline_json(&result.pairs)),
        runs,
        profile,
        health: (!result.health.is_empty()).then(|| health_json(result)),
    }
    .render()
}

/// Renders a scale sweep as a `cesrm-run/2` document: one `runs[]` row per
/// rung (the deterministic CSV row, its parts, and the rung's wall-clock,
/// throughput and peak RSS), each with its own `profile` when the rung
/// ran profiled.
pub fn scale_report(protocol: &str, seed: u64, packets: u64, rungs: &[RungOutcome]) -> String {
    let wall_s: f64 = rungs.iter().map(|r| r.wall.as_secs_f64()).sum();
    let events: u64 = rungs.iter().map(|r| r.result.events).sum();
    let workload = JsonValue::obj(vec![
        ("mode", JsonValue::str_val("scale")),
        ("protocol", JsonValue::str_val(protocol)),
        ("seed", JsonValue::uint(seed)),
        ("packets", JsonValue::uint(packets)),
        (
            "rungs",
            JsonValue::Arr(
                rungs
                    .iter()
                    .map(|r| JsonValue::uint(r.result.receivers))
                    .collect(),
            ),
        ),
    ]);
    let totals = JsonValue::obj(vec![
        ("runs", JsonValue::uint(rungs.len() as u64)),
        ("wall_s", num(wall_s)),
        ("events", JsonValue::uint(events)),
        ("events_per_sec", num(per_sec(events, wall_s))),
    ]);
    RunDoc {
        workload,
        totals,
        counters: None,
        headline: None,
        runs: rungs.iter().map(|o| rung_json(o, protocol)).collect(),
        profile: None,
        health: None,
    }
    .render()
}

fn rung_json(o: &RungOutcome, protocol: &str) -> JsonValue {
    let r = &o.result;
    let mut members = vec![
        ("receivers", JsonValue::uint(r.receivers)),
        ("shards", JsonValue::uint(u64::from(r.shards))),
        ("epochs", JsonValue::uint(r.epochs)),
        ("protocol", JsonValue::str_val(protocol)),
        // The runner attaches the monitors it was asked for only unsharded.
        ("monitored", JsonValue::Bool(r.violations.is_some())),
        ("violations", JsonValue::opt_uint(r.violations)),
        ("csv", JsonValue::Str(r.csv_row())),
        ("events", JsonValue::uint(r.events)),
        ("detected", JsonValue::uint(r.detected)),
        ("recovered", JsonValue::uint(r.recovered)),
        ("unrecovered", JsonValue::uint(r.unrecovered)),
        ("expedited", JsonValue::uint(r.expedited)),
        ("mean_latency_ns", JsonValue::uint(r.mean_latency_ns)),
        ("control_crossings", JsonValue::uint(r.control_crossings)),
        ("state_bytes", JsonValue::uint(r.state_bytes)),
        (
            "state_bytes_per_receiver",
            JsonValue::uint(r.state_bytes_per_receiver()),
        ),
        ("wall_s", num(o.wall.as_secs_f64())),
        ("events_per_sec", num(o.events_per_sec())),
        ("peak_rss_bytes", JsonValue::uint(o.peak_rss_bytes)),
    ];
    members.extend(
        r.engine
            .as_ref()
            .map(|e| ("profile", profile_json(e, Some(r)))),
    );
    JsonValue::obj(members)
}

fn headline_json(pairs: &[TracePair]) -> JsonValue {
    let mean = |f: fn(&TracePair) -> f64| {
        if pairs.is_empty() {
            0.0
        } else {
            pairs.iter().map(f).sum::<f64>() / pairs.len() as f64
        }
    };
    let traces = pairs
        .iter()
        .map(|p| {
            JsonValue::obj(vec![
                ("trace", JsonValue::uint(p.spec.number as u64)),
                ("name", JsonValue::str_val(p.spec.name)),
                ("latency_ratio", num(p.latency_ratio())),
                ("retrans_ratio", num(p.retransmission_overhead_ratio())),
                ("control_ratio", num(p.control_overhead_ratio())),
            ])
        })
        .collect();
    JsonValue::obj(vec![
        ("latency_ratio_mean", num(mean(TracePair::latency_ratio))),
        (
            "retrans_ratio_mean",
            num(mean(TracePair::retransmission_overhead_ratio)),
        ),
        (
            "control_ratio_mean",
            num(mean(TracePair::control_overhead_ratio)),
        ),
        ("traces", JsonValue::Arr(traces)),
    ])
}

/// The `profile` member: the engine telemetry and — for a scale rung —
/// the per-shard accounting and imbalance ratio (null below two shards; a
/// suite profile has no shards).
fn profile_json(engine: &netsim::EngineTelemetry, rung: Option<&ScaleResult>) -> JsonValue {
    let shards = rung.map_or(&[][..], |r| &r.shard_accounting);
    let shards_json = shards
        .iter()
        .map(|a| {
            JsonValue::obj(vec![
                ("shard", JsonValue::uint(u64::from(a.shard))),
                ("epochs", JsonValue::uint(a.epochs)),
                ("busy_ns", JsonValue::uint(a.busy_ns)),
                ("barrier_ns", JsonValue::uint(a.barrier_ns)),
                ("packets_sent", JsonValue::uint(a.packets_sent)),
                ("packets_received", JsonValue::uint(a.packets_received)),
            ])
        })
        .collect();
    let imbalance = rung
        .filter(|_| shards.len() >= 2)
        .map(ScaleResult::imbalance_ratio);
    JsonValue::obj(vec![
        ("engine", engine_json(engine)),
        ("shards", JsonValue::Arr(shards_json)),
        ("imbalance_ratio", imbalance.map_or(JsonValue::Null, num)),
    ])
}

fn engine_json(e: &netsim::EngineTelemetry) -> JsonValue {
    let q = &e.queue;
    JsonValue::obj(vec![
        (
            "queue",
            JsonValue::obj(vec![
                ("pushes", JsonValue::uint(q.pushes)),
                ("pops", JsonValue::uint(q.pops)),
                ("far_pushes", JsonValue::uint(q.far_pushes)),
                ("promotions", JsonValue::uint(q.promotions)),
                ("max_bucket_len", JsonValue::uint(q.max_bucket_len)),
                ("advances", JsonValue::uint(q.advances)),
                ("skip_ticks", JsonValue::uint(q.skip_ticks)),
                ("max_skip_ticks", JsonValue::uint(q.max_skip_ticks)),
            ]),
        ),
        (
            "arena",
            JsonValue::obj(vec![
                ("allocs", JsonValue::uint(e.arena.allocs)),
                ("recycled", JsonValue::uint(e.arena.recycled)),
                ("high_water", JsonValue::uint(e.arena.high_water)),
            ]),
        ),
        ("transmits", JsonValue::uint(e.transmits)),
        ("deliveries", JsonValue::uint(e.deliveries)),
        ("fan_outs", JsonValue::uint(e.fan_outs)),
        ("events", JsonValue::uint(e.events)),
    ])
}

/// The `health` member: suite-wide monitor totals and, per monitored run,
/// its stats, every kept violation with its recovery timeline, and the
/// anomaly list. `totals.by_invariant` counts *kept* violations (each
/// run's list is bounded by [`obs::MonitorConfig::max_violations`]);
/// `totals.violations` is the unbounded count.
fn health_json(result: &SuiteResult) -> JsonValue {
    let by_invariant = Invariant::ALL
        .iter()
        .map(|inv| {
            let n = result
                .health
                .iter()
                .flat_map(|h| &h.report.violations)
                .filter(|v| v.invariant == *inv)
                .count();
            (inv.id().to_string(), JsonValue::uint(n as u64))
        })
        .collect();
    let stat_sum = |f: fn(&obs::MonitorStats) -> u64| {
        JsonValue::uint(result.health.iter().map(|h| f(&h.report.stats)).sum())
    };
    JsonValue::obj(vec![
        (
            "totals",
            JsonValue::obj(vec![
                ("runs", JsonValue::uint(result.health.len() as u64)),
                ("events", stat_sum(|s| s.events)),
                ("losses", stat_sum(|s| s.losses)),
                ("recovered", stat_sum(|s| s.recovered)),
                ("unrecovered", stat_sum(|s| s.unrecovered)),
                ("spurious", stat_sum(|s| s.spurious)),
                ("violations", JsonValue::uint(result.total_violations())),
                ("anomalies", JsonValue::uint(result.total_anomalies())),
                ("by_invariant", JsonValue::Obj(by_invariant)),
            ]),
        ),
        (
            "runs",
            JsonValue::Arr(result.health.iter().map(health_run_json).collect()),
        ),
    ])
}

fn health_run_json(h: &RunHealth) -> JsonValue {
    let s = &h.report.stats;
    JsonValue::obj(vec![
        ("trace", JsonValue::uint(h.trace as u64)),
        ("name", JsonValue::str_val(h.name)),
        ("protocol", JsonValue::str_val(h.protocol)),
        ("healthy", JsonValue::Bool(h.report.is_healthy())),
        (
            "stats",
            JsonValue::obj(vec![
                ("events", JsonValue::uint(s.events)),
                ("violations", JsonValue::uint(s.violations)),
                ("anomalies", JsonValue::uint(s.anomalies)),
                ("losses", JsonValue::uint(s.losses)),
                ("recovered", JsonValue::uint(s.recovered)),
                ("unrecovered", JsonValue::uint(s.unrecovered)),
                ("spurious", JsonValue::uint(s.spurious)),
                ("expedited", JsonValue::uint(s.expedited)),
                ("fallback", JsonValue::uint(s.fallback)),
                ("requests_sent", JsonValue::uint(s.requests_sent)),
                (
                    "requests_suppressed",
                    JsonValue::uint(s.requests_suppressed),
                ),
                ("replies_sent", JsonValue::uint(s.replies_sent)),
                ("replies_suppressed", JsonValue::uint(s.replies_suppressed)),
                ("expedited_requests", JsonValue::uint(s.expedited_requests)),
                ("expedited_replies", JsonValue::uint(s.expedited_replies)),
                ("cache_hits", JsonValue::uint(s.cache_hits)),
                ("cache_misses", JsonValue::uint(s.cache_misses)),
                ("cache_updates", JsonValue::uint(s.cache_updates)),
                ("latency_p50_ns", JsonValue::opt_uint(s.latency_p50_ns)),
                ("latency_p99_ns", JsonValue::opt_uint(s.latency_p99_ns)),
                ("latency_max_ns", JsonValue::opt_uint(s.latency_max_ns)),
            ]),
        ),
        (
            "violations",
            JsonValue::Arr(h.report.violations.iter().map(violation_json).collect()),
        ),
        (
            "anomalies",
            JsonValue::Arr(
                h.report
                    .anomalies
                    .iter()
                    .map(|a| {
                        JsonValue::obj(vec![
                            ("kind", JsonValue::str_val(a.kind.name())),
                            ("t_ns", JsonValue::uint(a.t_ns)),
                            ("node", JsonValue::uint(a.node as u64)),
                            ("seq", JsonValue::uint(a.seq)),
                            ("detail", JsonValue::str_val(&a.detail)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn violation_json(v: &Violation) -> JsonValue {
    JsonValue::obj(vec![
        ("invariant", JsonValue::str_val(v.invariant.id())),
        ("name", JsonValue::str_val(v.invariant.name())),
        ("t_ns", JsonValue::uint(v.t_ns)),
        ("node", JsonValue::uint(v.node as u64)),
        ("seq", JsonValue::opt_uint(v.seq)),
        ("detail", JsonValue::str_val(&v.detail)),
        (
            "timeline",
            v.timeline.as_ref().map_or(JsonValue::Null, timeline_json),
        ),
    ])
}

fn timeline_json(tl: &RecoveryTimeline) -> JsonValue {
    JsonValue::obj(vec![
        ("receiver", JsonValue::uint(tl.receiver as u64)),
        ("seq", JsonValue::uint(tl.seq)),
        (
            "dropped",
            tl.dropped.map_or(JsonValue::Null, |(t_ns, link_to)| {
                JsonValue::obj(vec![
                    ("t_ns", JsonValue::uint(t_ns)),
                    ("link_to", JsonValue::uint(link_to as u64)),
                ])
            }),
        ),
        ("detected_ns", JsonValue::uint(tl.detected_ns)),
        ("first_request_ns", JsonValue::opt_uint(tl.first_request_ns)),
        (
            "expedited_request_ns",
            JsonValue::opt_uint(tl.expedited_request_ns),
        ),
        ("recovered_ns", JsonValue::opt_uint(tl.recovered_ns)),
        ("requests", JsonValue::uint(tl.requests as u64)),
        ("path", JsonValue::str_val(tl.path.as_str())),
    ])
}

/// Nulls every [`VOLATILE_FIELDS`] member anywhere in `json` and returns
/// the compact serialization: two reports of one configuration agree
/// byte-for-byte on this form at any worker count.
pub fn strip_volatile(json: &str) -> Result<String, String> {
    let mut doc = JsonValue::parse(json)?;
    doc.scrub(VOLATILE_FIELDS);
    Ok(doc.to_string_compact())
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::{AnomalyKind, MonitorReport, MonitorStats, RecoveryPath};

    fn suite(cfg: SuiteConfig) -> (SuiteConfig, SuiteResult) {
        let mut cfg = cfg.with_metrics();
        cfg.traces = Some(vec![4]);
        let result = crate::run_suite(&cfg);
        (cfg, result)
    }

    fn parse(text: &str) -> JsonValue {
        JsonValue::parse(text).unwrap()
    }

    const SAMPLE: Overhead = Overhead {
        wall_off_s: 1.0,
        wall_on_s: 1.02,
        cpu_off_s: 4.0,
        cpu_on_s: 4.1,
    };

    #[test]
    fn suite_report_carries_schema_workload_and_deterministic_sections() {
        let (cfg, result) = suite(SuiteConfig::quick(0.01));
        let doc = parse(&suite_report(&cfg, &result, &[]));
        assert_eq!(doc.get("schema").unwrap().as_str(), Some(RUN_SCHEMA));
        let workload = doc.get("workload").unwrap();
        assert_eq!(workload.get("mode").unwrap().as_str(), Some("suite"));
        let totals = doc.get("totals").unwrap();
        assert_eq!(totals.get("runs").unwrap().as_u64(), Some(2));
        assert!(totals.get("events").unwrap().as_u64().unwrap() > 0);
        assert_eq!(totals.get("overhead"), None, "no --overhead, no member");
        let counters = doc.get("counters").unwrap();
        assert!(counters.get("sim.events.hop").unwrap().as_u64().unwrap() > 0);
        assert!(
            counters
                .get("recovery.recovered")
                .unwrap()
                .as_u64()
                .unwrap()
                > 0
        );
        assert_eq!(doc.get("runs").unwrap().as_arr().unwrap().len(), 2);
        let ratio = doc
            .get("headline")
            .unwrap()
            .get("latency_ratio_mean")
            .unwrap()
            .as_f64()
            .unwrap();
        assert!(ratio > 0.0 && ratio < 1.0, "latency ratio {ratio}");
        // Sections the run did not produce are absent, not null.
        assert_eq!(doc.get("profile"), None);
        assert_eq!(doc.get("health"), None);
    }

    #[test]
    fn stripping_makes_repeat_runs_byte_identical() {
        let (cfg, result) = suite(SuiteConfig::quick(0.01));
        let a = suite_report(&cfg, &result, &[]);
        let (_, again) = suite(SuiteConfig::quick(0.01));
        let b = suite_report(&cfg, &again, &[]);
        let stripped = strip_volatile(&a).unwrap();
        assert_eq!(stripped, strip_volatile(&b).unwrap());
        assert!(stripped.contains(r#""wall_s":null"#));
        assert!(stripped.contains(r#""created":null"#));
        assert!(!stripped.contains(r#""events":null"#));
    }

    #[test]
    fn every_overhead_layer_has_one_shape_and_is_volatile() {
        let (cfg, result) = suite(SuiteConfig::quick(0.01));
        let layers = [("monitor", SAMPLE), ("digest", SAMPLE)];
        let text = suite_report(&cfg, &result, &layers);
        let doc = parse(&text);
        let overhead = doc.get("totals").unwrap().get("overhead").unwrap();
        for layer in ["monitor", "digest"] {
            let o = overhead.get(layer).unwrap();
            assert!((o.get("overhead_pct").unwrap().as_f64().unwrap() - 2.5).abs() < 1e-9);
        }
        assert!(strip_volatile(&text)
            .unwrap()
            .contains(r#""overhead":null"#));
    }

    #[test]
    fn overhead_gate_applies_percentage_and_noise_floor() {
        let slow = Overhead {
            wall_off_s: 1.0,
            wall_on_s: 1.2,
            cpu_off_s: 10.0,
            cpu_on_s: 12.0,
        };
        assert!((slow.overhead_pct() - 20.0).abs() < 1e-9);
        assert!(!slow.within(5.0, 0.05));
        assert!(slow.within(25.0, 0.05));
        // A 20 ms absolute delta is under the noise floor no matter the
        // percentage.
        let tiny = Overhead {
            wall_off_s: 0.01,
            wall_on_s: 0.03,
            cpu_off_s: 0.01,
            cpu_on_s: 0.03,
        };
        assert!(tiny.overhead_pct() > 100.0);
        assert!(tiny.within(5.0, 0.05));
    }

    #[test]
    fn suite_profile_member_is_the_merged_engine_telemetry() {
        let (cfg, result) = suite(SuiteConfig::quick(0.01).with_profile());
        assert_eq!(result.profs.len(), 2, "SRM and CESRM runs");
        let doc = parse(&suite_report(&cfg, &result, &[]));
        let profile = doc.get("profile").unwrap();
        let JsonValue::Obj(members) = profile else {
            panic!("profile is an object")
        };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["engine", "shards", "imbalance_ratio"]);
        let pops = profile
            .get("engine")
            .unwrap()
            .get("queue")
            .unwrap()
            .get("pops")
            .unwrap()
            .as_u64();
        let total: u64 = result.profs.iter().map(|p| p.engine.queue.pops).sum();
        assert!(total > 0);
        assert_eq!(pops, Some(total));
        // A suite profile has no shards.
        assert!(profile.get("shards").unwrap().as_arr().unwrap().is_empty());
        assert_eq!(profile.get("imbalance_ratio"), Some(&JsonValue::Null));
    }

    #[test]
    fn profiling_never_perturbs_measurements() {
        let mut plain = SuiteConfig::quick(0.01);
        plain.traces = Some(vec![4]);
        let a = crate::run_suite(&plain);
        let b = crate::run_suite(&plain.with_profile());
        assert_eq!(format!("{:?}", a.pairs), format!("{:?}", b.pairs));
    }

    fn rung(cfg: &crate::ScaleConfig) -> RungOutcome {
        RungOutcome {
            result: crate::run_scale(cfg),
            wall: Duration::from_millis(5),
            peak_rss_bytes: 1 << 20,
            digest: None,
        }
    }

    #[test]
    fn scale_report_rows_carry_each_rungs_own_profile() {
        let cfg = crate::ScaleConfig {
            shards: 4,
            packets: 8,
            profile: true,
            ..crate::ScaleConfig::rung(100)
        };
        let profiled = rung(&cfg);
        let plain = rung(&crate::ScaleConfig {
            profile: false,
            ..cfg
        });
        assert_eq!(plain.result.csv_row(), profiled.result.csv_row());
        let doc = parse(&scale_report("cesrm", 7, 8, &[profiled, plain]));
        let workload = doc.get("workload").unwrap();
        assert_eq!(workload.get("mode").unwrap().as_str(), Some("scale"));
        assert_eq!(workload.get("packets").unwrap().as_u64(), Some(8));
        assert_eq!(doc.get("counters"), None);
        let runs = doc.get("runs").unwrap().as_arr().unwrap();
        let profile = runs[0].get("profile").unwrap();
        let shards = profile.get("shards").unwrap().as_arr().unwrap();
        assert_eq!(shards.len(), 4);
        for (i, s) in shards.iter().enumerate() {
            assert_eq!(s.get("shard").unwrap().as_u64(), Some(i as u64));
            assert!(s.get("busy_ns").unwrap().as_u64().unwrap() > 0);
        }
        let imbalance = profile.get("imbalance_ratio").unwrap().as_f64().unwrap();
        assert!(imbalance >= 1.0, "{imbalance}");
        assert_eq!(runs[1].get("profile"), None, "unprofiled rung");
        assert_eq!(runs[0].get("csv"), runs[1].get("csv"));
    }

    fn fabricated_health(report: MonitorReport) -> SuiteResult {
        SuiteResult {
            scale: 0.01,
            pairs: Vec::new(),
            events: Vec::new(),
            profiles: Vec::new(),
            profs: Vec::new(),
            digests: Vec::new(),
            health: vec![RunHealth {
                trace: 4,
                name: "WRN950919",
                protocol: "CESRM",
                report,
            }],
            timing: crate::runner::SuiteTiming {
                jobs: 1,
                wall: Duration::ZERO,
                runs: Vec::new(),
            },
        }
    }

    #[test]
    fn health_member_carries_violations_with_their_timelines() {
        let result = fabricated_health(MonitorReport {
            stats: MonitorStats {
                events: 10,
                violations: 1,
                anomalies: 1,
                losses: 1,
                unrecovered: 1,
                ..MonitorStats::default()
            },
            violations: vec![Violation {
                invariant: Invariant::Liveness,
                t_ns: 9_000,
                node: 2,
                seq: Some(7),
                detail: "loss never recovered".to_string(),
                timeline: Some(RecoveryTimeline {
                    receiver: 2,
                    seq: 7,
                    dropped: Some((1_000, 2)),
                    detected_ns: 2_000,
                    first_request_ns: Some(3_000),
                    expedited_request_ns: None,
                    recovered_ns: None,
                    requests: 1,
                    path: RecoveryPath::Unrecovered,
                }),
            }],
            anomalies: vec![obs::Anomaly {
                kind: AnomalyKind::RepairStorm,
                t_ns: 8_000,
                node: 3,
                seq: 7,
                detail: "8 repairs for one loss".to_string(),
            }],
        });
        let health = health_json(&result);
        let totals = health.get("totals").unwrap();
        assert_eq!(totals.get("violations").unwrap().as_u64(), Some(1));
        let by_invariant = totals.get("by_invariant").unwrap();
        assert_eq!(by_invariant.get("I1").unwrap().as_u64(), Some(1));
        assert_eq!(by_invariant.get("I5").unwrap().as_u64(), Some(0));
        let run = &health.get("runs").unwrap().as_arr().unwrap()[0];
        assert_eq!(run.get("healthy"), Some(&JsonValue::Bool(false)));
        let v = &run.get("violations").unwrap().as_arr().unwrap()[0];
        assert_eq!(v.get("invariant").unwrap().as_str(), Some("I1"));
        assert_eq!(v.get("name").unwrap().as_str(), Some("liveness"));
        let tl = v.get("timeline").unwrap();
        assert_eq!(tl.get("path").unwrap().as_str(), Some("UNRECOVERED"));
        assert_eq!(tl.get("recovered_ns"), Some(&JsonValue::Null));
        let a = &run.get("anomalies").unwrap().as_arr().unwrap()[0];
        assert_eq!(a.get("kind").unwrap().as_str(), Some("repair-storm"));
    }

    #[test]
    fn civil_dates_are_correct() {
        assert_eq!(civil_from_days(0), (1970, 1, 1));
        assert_eq!(civil_from_days(19_723), (2024, 1, 1)); // leap year
        assert_eq!(civil_from_days(19_782), (2024, 2, 29));
        assert_eq!(civil_from_days(20_670), (2026, 8, 5));
        assert_eq!(utc_date_stamp().len(), 8);
        assert_eq!(utc_date_iso().replace('-', ""), utc_date_stamp());
    }
}
