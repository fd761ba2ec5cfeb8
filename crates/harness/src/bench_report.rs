//! Machine-readable performance baselines: `BENCH_<YYYYMMDD>.json`.
//!
//! [`bench_report`] turns one profiled suite run ([`SuiteConfig`] with
//! `collect_metrics`) into a schema-stable JSON document
//! (`"schema": "cesrm-bench/2"`), and [`compare_reports`] diffs two such
//! documents against regression thresholds. The full schema is documented
//! in `docs/METRICS.md`; the invariants the code enforces are:
//!
//! - **Member order is fixed** (the `obs::JsonValue` object model is
//!   ordered), so equal runs produce byte-equal documents.
//! - **Volatile fields are enumerable**: exactly the members named in
//!   [`VOLATILE_FIELDS`] depend on the machine, worker count, or
//!   wall-clock. [`strip_volatile`] nulls them, and two reports of the
//!   same configuration at *any* `--jobs` settings are byte-identical
//!   after stripping (asserted in `tests/determinism.rs`).
//! - **Everything else is deterministic**: counters and the headline
//!   protocol figures come from the simulation alone.

use std::time::{SystemTime, UNIX_EPOCH};

use obs::JsonValue;

use crate::suite::{RunProfile, SuiteConfig, SuiteResult};

/// Version tag every report carries; bump on breaking schema changes.
/// `/2` dropped `merged.gauges`, `.histograms` and `.sketches` (the
/// registry holds counters only) and fixed `created` to `YYYY-MM-DD` in
/// suite and scale reports alike.
pub const BENCH_SCHEMA: &str = "cesrm-bench/2";

/// Member names that legitimately differ between two runs of the same
/// configuration: wall-clock readings, derived throughput, and the
/// machine-dependent worker count. [`strip_volatile`] nulls these wherever
/// they appear in the document.
pub const VOLATILE_FIELDS: &[&str] = &[
    "created",
    "jobs",
    "wall_s",
    "cpu_s",
    "speedup",
    "events_per_sec",
    "monitor_overhead",
    "peak_rss_bytes",
    "profile",
];

/// Regression thresholds for [`compare_reports`], in percent.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct BenchThresholds {
    /// Maximum tolerated wall-clock increase over the baseline, percent.
    pub max_wall_pct: f64,
    /// Maximum tolerated events/sec decrease below the baseline, percent.
    pub max_throughput_pct: f64,
}

impl Default for BenchThresholds {
    /// Generous defaults (+50 % wall, −30 % throughput): wall-clock on
    /// shared CI runners is noisy, and the comparison should flag real
    /// regressions, not scheduler jitter.
    fn default() -> Self {
        BenchThresholds {
            max_wall_pct: 50.0,
            max_throughput_pct: 30.0,
        }
    }
}

/// Wall- and CPU-time of one suite configuration measured with invariant
/// monitors on vs off, for the `totals.monitor_overhead` member of the
/// bench report (satellite of the monitoring work; the monitors promise
/// near-zero cost and this is where that promise is audited).
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct MonitorOverhead {
    /// Suite wall-clock with monitors off, seconds.
    pub wall_off_s: f64,
    /// Suite wall-clock with monitors on, seconds.
    pub wall_on_s: f64,
    /// Serial-equivalent CPU time with monitors off, seconds.
    pub cpu_off_s: f64,
    /// Serial-equivalent CPU time with monitors on, seconds.
    pub cpu_on_s: f64,
}

impl MonitorOverhead {
    /// CPU-time overhead of monitoring, percent (CPU rather than wall so
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
}

/// Headline numbers of a `cesrm-prof/2` self-profile, folded into the
/// `totals.profile` member of the bench report (the full profile lives in
/// its own document; see [`crate::prof_json`] and `docs/PROFILING.md`).
/// The member is volatile: its figures derive from wall-clock samples.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct ProfileTotals {
    /// Sampling stride the profile was collected with.
    pub stride: u64,
    /// Hot-loop events the profiler ticked.
    pub events: u64,
    /// Percent of run wall-clock attributed to named phases.
    pub attributed_pct: f64,
    /// Profiler-on vs profiler-off timing, when measured (the same A/B
    /// shape as the monitor-overhead audit).
    pub overhead: Option<MonitorOverhead>,
}

/// The outcome of one baseline comparison.
#[derive(Clone, Debug)]
pub struct BenchComparison {
    /// Human-readable report lines (always produced).
    pub lines: Vec<String>,
    /// One message per threshold breach; empty means no regression.
    pub regressions: Vec<String>,
}

impl BenchComparison {
    /// `true` when at least one threshold was breached.
    pub fn is_regression(&self) -> bool {
        !self.regressions.is_empty()
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
/// `cesrm-bench` report.
pub fn utc_date_iso() -> String {
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

/// Renders one profiled suite run as a pretty-printed `cesrm-bench/2`
/// document (trailing newline included, as committed baseline files want).
/// `overhead` is an optional monitors-on-vs-off measurement for
/// `totals.monitor_overhead`, `profile` the optional `cesrm-prof/2`
/// headline for `totals.profile`; both members are always present (null
/// when not measured) and volatile — two machines time differently.
///
/// # Panics
///
/// Panics if `result` carries no profiles — run the suite with
/// [`SuiteConfig::collect_metrics`] (or [`SuiteConfig::with_metrics`]).
pub fn bench_report(
    cfg: &SuiteConfig,
    result: &SuiteResult,
    overhead: Option<&MonitorOverhead>,
    profile: Option<&ProfileTotals>,
) -> String {
    assert!(
        !result.profiles.is_empty(),
        "bench_report needs a suite run with collect_metrics set"
    );
    let wall_s = result.timing.wall.as_secs_f64();
    let cpu_s = result.timing.cpu_total().as_secs_f64();
    let events = result.total_events();
    let merged = result.merged_snapshot();
    let peak_queue_bytes = result
        .profiles
        .iter()
        .map(RunProfile::peak_queue_bytes)
        .max()
        .unwrap_or(0);

    let suite = JsonValue::obj(vec![
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

    let totals = JsonValue::obj(vec![
        ("runs", JsonValue::uint(result.profiles.len() as u64)),
        ("wall_s", num(wall_s)),
        ("cpu_s", num(cpu_s)),
        (
            "speedup",
            num(if wall_s > 0.0 { cpu_s / wall_s } else { 0.0 }),
        ),
        ("events", JsonValue::uint(events)),
        ("events_per_sec", num(per_sec(events, wall_s))),
        ("peak_queue_bytes", JsonValue::uint(peak_queue_bytes)),
        (
            "monitor_overhead",
            overhead.map_or(JsonValue::Null, |o| {
                JsonValue::obj(vec![
                    ("wall_off_s", num(o.wall_off_s)),
                    ("wall_on_s", num(o.wall_on_s)),
                    ("cpu_off_s", num(o.cpu_off_s)),
                    ("cpu_on_s", num(o.cpu_on_s)),
                    ("overhead_pct", num(o.overhead_pct())),
                ])
            }),
        ),
        (
            "profile",
            profile.map_or(JsonValue::Null, |p| {
                JsonValue::obj(vec![
                    ("stride", JsonValue::uint(p.stride)),
                    ("events", JsonValue::uint(p.events)),
                    ("attributed_pct", num(p.attributed_pct)),
                    (
                        "profiler_overhead",
                        p.overhead.map_or(JsonValue::Null, |o| {
                            JsonValue::obj(vec![
                                ("wall_off_s", num(o.wall_off_s)),
                                ("wall_on_s", num(o.wall_on_s)),
                                ("cpu_off_s", num(o.cpu_off_s)),
                                ("cpu_on_s", num(o.cpu_on_s)),
                                ("overhead_pct", num(o.overhead_pct())),
                            ])
                        }),
                    ),
                ])
            }),
        ),
    ]);

    let counters = JsonValue::Obj(
        merged
            .counters
            .iter()
            .map(|(k, &v)| (k.clone(), JsonValue::uint(v)))
            .collect(),
    );
    let runs = JsonValue::Arr(
        result
            .profiles
            .iter()
            .map(|p| {
                let run_wall = p.wall.as_secs_f64();
                JsonValue::obj(vec![
                    ("trace", JsonValue::uint(p.trace as u64)),
                    ("name", JsonValue::Str(p.name.to_string())),
                    ("protocol", JsonValue::Str(p.protocol.to_string())),
                    ("events", JsonValue::uint(p.events_processed)),
                    ("peak_queue_bytes", JsonValue::uint(p.peak_queue_bytes())),
                    ("wall_s", num(run_wall)),
                    ("events_per_sec", num(per_sec(p.events_processed, run_wall))),
                ])
            })
            .collect(),
    );

    let headline_traces: Vec<JsonValue> = result
        .pairs
        .iter()
        .map(|p| {
            JsonValue::obj(vec![
                ("trace", JsonValue::uint(p.spec.number as u64)),
                ("name", JsonValue::Str(p.spec.name.to_string())),
                ("latency_ratio", num(p.latency_ratio())),
                ("retrans_ratio", num(p.retransmission_overhead_ratio())),
                ("control_ratio", num(p.control_overhead_ratio())),
            ])
        })
        .collect();
    let mean = |f: fn(&crate::suite::TracePair) -> f64| {
        if result.pairs.is_empty() {
            0.0
        } else {
            result.pairs.iter().map(f).sum::<f64>() / result.pairs.len() as f64
        }
    };
    let headline = JsonValue::obj(vec![
        ("latency_ratio_mean", num(mean(|p| p.latency_ratio()))),
        (
            "retrans_ratio_mean",
            num(mean(|p| p.retransmission_overhead_ratio())),
        ),
        (
            "control_ratio_mean",
            num(mean(|p| p.control_overhead_ratio())),
        ),
        ("traces", JsonValue::Arr(headline_traces)),
    ]);

    let doc = JsonValue::obj(vec![
        ("schema", JsonValue::Str(BENCH_SCHEMA.to_string())),
        ("created", JsonValue::Str(utc_date_iso())),
        ("suite", suite),
        ("totals", totals),
        ("merged", JsonValue::obj(vec![("counters", counters)])),
        ("runs", runs),
        ("headline", headline),
    ]);
    let mut text = doc.to_string_pretty();
    text.push('\n');
    text
}

/// Nulls every [`VOLATILE_FIELDS`] member anywhere in `json` and returns
/// the compact serialization: two profiled runs of the same configuration
/// agree byte-for-byte on this form at any worker count.
pub fn strip_volatile(json: &str) -> Result<String, String> {
    let mut doc = JsonValue::parse(json)?;
    doc.scrub(VOLATILE_FIELDS);
    Ok(doc.to_string_compact())
}

fn totals_field(doc: &JsonValue, which: &str, field: &str) -> Result<f64, String> {
    doc.get("totals")
        .and_then(|t| t.get(field))
        .and_then(JsonValue::as_f64)
        .ok_or_else(|| format!("{which} report lacks totals.{field}"))
}

/// Reads `totals.<field>` from both documents, turning a key that only
/// the baseline is missing into an actionable diagnostic: committed
/// baselines written by an older binary predate fields the current schema
/// revision emits, and the fix is to regenerate them, not to debug the
/// candidate.
fn totals_pair(base: &JsonValue, cand: &JsonValue, field: &str) -> Result<(f64, f64), String> {
    match (
        totals_field(base, "baseline", field),
        totals_field(cand, "candidate", field),
    ) {
        (Ok(b), Ok(c)) => Ok((b, c)),
        (Err(_), Ok(_)) => Err(format!(
            "baseline report lacks totals.{field} but the candidate has it — the baseline \
             was written by an older revision of the {BENCH_SCHEMA} schema; regenerate it \
             with the current binary (reproduce --bench-report <file>)"
        )),
        (Err(e), _) | (_, Err(e)) => Err(e),
    }
}

/// Diffs `candidate` against `baseline` (both parsed `cesrm-bench/2`
/// documents) and applies `thresholds`. Always returns the comparison
/// lines; the `regressions` list is non-empty iff a threshold was
/// breached. Errors on a schema mismatch or a missing member.
pub fn compare_reports(
    base: &JsonValue,
    cand: &JsonValue,
    thresholds: &BenchThresholds,
) -> Result<BenchComparison, String> {
    for (doc, which) in [(base, "baseline"), (cand, "candidate")] {
        let schema = doc.get("schema").and_then(JsonValue::as_str);
        if schema != Some(BENCH_SCHEMA) {
            return Err(format!(
                "{which} schema is {schema:?}, expected {BENCH_SCHEMA:?}"
            ));
        }
    }

    let mut lines = Vec::new();
    let mut regressions = Vec::new();

    let (base_events, cand_events) = totals_pair(base, cand, "events")?;
    if base_events != cand_events {
        lines.push(format!(
            "note: deterministic event totals differ (baseline {base_events}, candidate \
             {cand_events}) — the two reports likely ran different configurations, so the \
             wall-clock comparison below is between unlike workloads"
        ));
    }

    let (base_wall, cand_wall) = totals_pair(base, cand, "wall_s")?;
    let wall_pct = if base_wall > 0.0 {
        (cand_wall - base_wall) / base_wall * 100.0
    } else {
        0.0
    };
    lines.push(format!(
        "wall-clock: baseline {base_wall:.3}s, candidate {cand_wall:.3}s ({wall_pct:+.1}%, \
         threshold +{:.1}%)",
        thresholds.max_wall_pct
    ));
    if wall_pct > thresholds.max_wall_pct {
        regressions.push(format!(
            "wall-clock regressed {wall_pct:+.1}% (limit +{:.1}%)",
            thresholds.max_wall_pct
        ));
    }

    let (base_eps, cand_eps) = totals_pair(base, cand, "events_per_sec")?;
    let eps_pct = if base_eps > 0.0 {
        (cand_eps - base_eps) / base_eps * 100.0
    } else {
        0.0
    };
    lines.push(format!(
        "throughput: baseline {base_eps:.0} events/s, candidate {cand_eps:.0} events/s \
         ({eps_pct:+.1}%, threshold -{:.1}%)",
        thresholds.max_throughput_pct
    ));
    if eps_pct < -thresholds.max_throughput_pct {
        regressions.push(format!(
            "throughput regressed {eps_pct:+.1}% (limit -{:.1}%)",
            thresholds.max_throughput_pct
        ));
    }

    Ok(BenchComparison { lines, regressions })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profiled_result() -> (SuiteConfig, SuiteResult) {
        let mut cfg = SuiteConfig::quick(0.01).with_metrics();
        cfg.traces = Some(vec![4]);
        let result = crate::run_suite(&cfg);
        (cfg, result)
    }

    #[test]
    fn report_carries_schema_and_deterministic_sections() {
        let (cfg, result) = profiled_result();
        let text = bench_report(&cfg, &result, None, None);
        let doc = JsonValue::parse(&text).unwrap();
        assert_eq!(doc.get("schema").unwrap().as_str(), Some(BENCH_SCHEMA));
        assert_eq!(
            doc.get("totals").unwrap().get("runs").unwrap().as_u64(),
            Some(2)
        );
        assert!(totals_field(&doc, "report", "events").unwrap() > 0.0);
        let counters = doc.get("merged").unwrap().get("counters").unwrap();
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
        let headline = doc.get("headline").unwrap();
        let ratio = headline
            .get("latency_ratio_mean")
            .unwrap()
            .as_f64()
            .unwrap();
        assert!(ratio > 0.0 && ratio < 1.0, "latency ratio {ratio}");
    }

    #[test]
    fn stripping_makes_repeat_runs_byte_identical() {
        let (cfg, result) = profiled_result();
        let a = bench_report(&cfg, &result, None, None);
        let (_, again) = profiled_result();
        let b = bench_report(&cfg, &again, None, None);
        // Raw documents differ (wall-clock), stripped documents agree.
        assert_eq!(strip_volatile(&a).unwrap(), strip_volatile(&b).unwrap());
        let stripped = strip_volatile(&a).unwrap();
        assert!(stripped.contains(r#""wall_s":null"#));
        assert!(stripped.contains(r#""created":null"#));
        assert!(!stripped.contains(r#""events":null"#));
    }

    #[test]
    fn comparison_flags_only_genuine_regressions() {
        let (cfg, result) = profiled_result();
        let report = JsonValue::parse(&bench_report(&cfg, &result, None, None)).unwrap();
        let same = compare_reports(&report, &report, &BenchThresholds::default()).unwrap();
        assert!(!same.is_regression(), "{:?}", same.regressions);

        // Inflate the candidate's wall-clock 10× and cut throughput 10×.
        let mut slow = report.clone();
        let totals = slow.get_mut("totals").unwrap();
        let wall = totals.get("wall_s").unwrap().as_f64().unwrap();
        *totals.get_mut("wall_s").unwrap() = JsonValue::Num(wall * 10.0);
        let eps = totals.get("events_per_sec").unwrap().as_f64().unwrap();
        *totals.get_mut("events_per_sec").unwrap() = JsonValue::Num(eps / 10.0);
        let verdict = compare_reports(&report, &slow, &BenchThresholds::default()).unwrap();
        assert_eq!(verdict.regressions.len(), 2, "{:?}", verdict.regressions);
    }

    #[test]
    fn baseline_missing_a_candidate_key_gets_a_regenerate_diagnostic() {
        let (cfg, result) = profiled_result();
        let report = JsonValue::parse(&bench_report(&cfg, &result, None, None)).unwrap();
        // Simulate a baseline written before totals.events_per_sec
        // existed: drop the key entirely (schema intact).
        let mut old = report.clone();
        let JsonValue::Obj(totals) = old.get_mut("totals").unwrap() else {
            panic!("totals is an object");
        };
        totals.retain(|(k, _)| k != "events_per_sec");
        let err = compare_reports(&old, &report, &BenchThresholds::default()).unwrap_err();
        assert!(
            err.contains("baseline report lacks totals.events_per_sec"),
            "{err}"
        );
        assert!(err.contains("regenerate"), "{err}");

        // The candidate missing the same key is a plain candidate error,
        // not a regenerate-the-baseline hint.
        let err = compare_reports(&report, &old, &BenchThresholds::default()).unwrap_err();
        assert!(
            err.contains("candidate report lacks totals.events_per_sec"),
            "{err}"
        );
        assert!(!err.contains("regenerate"), "{err}");
    }

    #[test]
    fn profile_totals_member_is_present_and_volatile() {
        let (cfg, result) = profiled_result();
        let plain = bench_report(&cfg, &result, None, None);
        let doc = JsonValue::parse(&plain).unwrap();
        assert_eq!(
            doc.get("totals").unwrap().get("profile"),
            Some(&JsonValue::Null)
        );

        let totals = ProfileTotals {
            stride: 256,
            events: 10_000,
            attributed_pct: 97.5,
            overhead: Some(MonitorOverhead {
                wall_off_s: 1.0,
                wall_on_s: 1.01,
                cpu_off_s: 4.0,
                cpu_on_s: 4.08,
            }),
        };
        let with = bench_report(&cfg, &result, None, Some(&totals));
        let doc = JsonValue::parse(&with).unwrap();
        let p = doc.get("totals").unwrap().get("profile").unwrap();
        assert_eq!(p.get("stride").unwrap().as_u64(), Some(256));
        let o = p.get("profiler_overhead").unwrap();
        assert!((o.get("overhead_pct").unwrap().as_f64().unwrap() - 2.0).abs() < 1e-9);
        // Volatile: stripping nulls the member and re-aligns documents.
        assert_eq!(
            strip_volatile(&plain).unwrap(),
            strip_volatile(&with).unwrap()
        );
    }

    #[test]
    fn comparison_rejects_schema_mismatch() {
        let other = JsonValue::parse(r#"{"schema":"other/9"}"#).unwrap();
        let err = compare_reports(
            &other,
            &JsonValue::Obj(Vec::new()),
            &BenchThresholds::default(),
        )
        .unwrap_err();
        assert!(err.contains("baseline schema"), "{err}");
    }

    #[test]
    fn monitor_overhead_member_is_present_and_volatile() {
        let (cfg, result) = profiled_result();
        let plain = bench_report(&cfg, &result, None, None);
        let doc = JsonValue::parse(&plain).unwrap();
        assert_eq!(
            doc.get("totals").unwrap().get("monitor_overhead"),
            Some(&JsonValue::Null)
        );

        let measured = MonitorOverhead {
            wall_off_s: 1.0,
            wall_on_s: 1.02,
            cpu_off_s: 4.0,
            cpu_on_s: 4.1,
        };
        let with = bench_report(&cfg, &result, Some(&measured), None);
        let doc = JsonValue::parse(&with).unwrap();
        let o = doc.get("totals").unwrap().get("monitor_overhead").unwrap();
        assert!((o.get("overhead_pct").unwrap().as_f64().unwrap() - 2.5).abs() < 1e-9);
        // The member is machine-dependent, so stripping must null it and
        // re-align the two documents byte-for-byte.
        assert_eq!(
            strip_volatile(&plain).unwrap(),
            strip_volatile(&with).unwrap()
        );
    }

    #[test]
    fn overhead_gate_applies_percentage_and_noise_floor() {
        let slow = MonitorOverhead {
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
        let tiny = MonitorOverhead {
            wall_off_s: 0.01,
            wall_on_s: 0.03,
            cpu_off_s: 0.01,
            cpu_on_s: 0.03,
        };
        assert!(tiny.overhead_pct() > 100.0);
        assert!(tiny.within(5.0, 0.05));
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
