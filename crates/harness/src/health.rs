//! Machine-readable per-run health reports: `health.json`.
//!
//! [`health_json`] turns one monitored suite run ([`SuiteConfig`] with
//! `monitor`) into a schema-stable JSON document
//! (`"schema": "cesrm-health/1"`): per-run invariant-monitor stats, every
//! kept violation with its recovery-provenance timeline, and the anomaly
//! list. The full schema is documented in `docs/MONITORS.md`; the
//! invariants the code enforces are:
//!
//! - **Member order is fixed** (the `obs::JsonValue` object model is
//!   ordered), so equal runs produce byte-equal documents.
//! - **Every field is deterministic**: unlike the `cesrm-bench/2` report,
//!   nothing in here reads the wall clock or the worker count, so two
//!   monitored runs of the same configuration are byte-identical at *any*
//!   `--jobs` setting with no stripping step (asserted in
//!   `tests/monitors.rs`).
//!
//! [`health_text`] renders the same information as the human summary the
//! `reproduce --health` flag prints.

use std::io::{self, Write as _};
use std::path::Path;

use obs::{Invariant, JsonValue, RecoveryTimeline, Violation};

use crate::suite::{RunHealth, SuiteConfig, SuiteResult};

/// Version tag every health report carries; bump on breaking schema
/// changes.
pub const HEALTH_SCHEMA: &str = "cesrm-health/1";

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

fn run_json(h: &RunHealth) -> JsonValue {
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

/// Renders one monitored suite run as a pretty-printed `cesrm-health/1`
/// document (trailing newline included).
///
/// The `totals.by_invariant` breakdown counts *kept* violations (each
/// run's list is bounded by [`obs::MonitorConfig::max_violations`]); the
/// `totals.violations` figure is the unbounded count.
///
/// # Panics
///
/// Panics if `result` carries no health reports — run the suite with
/// [`SuiteConfig::monitor`] (or [`SuiteConfig::with_monitor`]).
pub fn health_json(cfg: &SuiteConfig, result: &SuiteResult) -> String {
    assert!(
        !result.health.is_empty(),
        "health_json needs a suite run with monitor set"
    );
    let by_invariant: Vec<(String, JsonValue)> = Invariant::ALL
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
        result
            .health
            .iter()
            .map(|h| f(&h.report.stats))
            .sum::<u64>()
    };
    let doc = JsonValue::obj(vec![
        ("schema", JsonValue::str_val(HEALTH_SCHEMA)),
        (
            "suite",
            JsonValue::obj(vec![
                ("scale", JsonValue::Num(cfg.scale)),
                ("seed", JsonValue::uint(cfg.seed)),
                (
                    "traces",
                    cfg.traces.as_ref().map_or(JsonValue::Null, |only| {
                        JsonValue::Arr(only.iter().map(|&t| JsonValue::uint(t as u64)).collect())
                    }),
                ),
            ]),
        ),
        (
            "totals",
            JsonValue::obj(vec![
                ("runs", JsonValue::uint(result.health.len() as u64)),
                ("events", JsonValue::uint(stat_sum(|s| s.events))),
                ("losses", JsonValue::uint(stat_sum(|s| s.losses))),
                ("recovered", JsonValue::uint(stat_sum(|s| s.recovered))),
                ("unrecovered", JsonValue::uint(stat_sum(|s| s.unrecovered))),
                ("spurious", JsonValue::uint(stat_sum(|s| s.spurious))),
                ("violations", JsonValue::uint(result.total_violations())),
                ("anomalies", JsonValue::uint(result.total_anomalies())),
                ("by_invariant", JsonValue::Obj(by_invariant)),
            ]),
        ),
        (
            "runs",
            JsonValue::Arr(result.health.iter().map(run_json).collect()),
        ),
    ]);
    let mut text = doc.to_string_pretty();
    text.push('\n');
    text
}

/// Writes [`health_json`] to `path`, creating any missing parent
/// directories.
pub fn write_health(path: &Path, cfg: &SuiteConfig, result: &SuiteResult) -> io::Result<()> {
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent)?;
    }
    let mut out = std::fs::File::create(path)?;
    out.write_all(health_json(cfg, result).as_bytes())?;
    out.flush()
}

fn fmt_opt_ns(ns: Option<u64>) -> String {
    match ns {
        Some(v) => format!("{:.3} ms", v as f64 / 1e6),
        None => "never".to_string(),
    }
}

/// Renders the monitored suite's verdict as the human summary printed by
/// `reproduce --health`: one headline line, then every violation and
/// anomaly with its run context (and, for violations about a tracked
/// loss, the reduced provenance timeline).
pub fn health_text(result: &SuiteResult) -> String {
    use std::fmt::Write as _;

    let violations = result.total_violations();
    let anomalies = result.total_anomalies();
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Invariant monitors: {} runs, {} events checked — {} violation(s), {} anomaly(ies): {}",
        result.health.len(),
        result
            .health
            .iter()
            .map(|h| h.report.stats.events)
            .sum::<u64>(),
        violations,
        anomalies,
        if violations == 0 {
            "HEALTHY"
        } else {
            "UNHEALTHY"
        },
    );
    let losses: u64 = result.health.iter().map(|h| h.report.stats.losses).sum();
    let recovered: u64 = result.health.iter().map(|h| h.report.stats.recovered).sum();
    let expedited: u64 = result.health.iter().map(|h| h.report.stats.expedited).sum();
    let _ = writeln!(
        s,
        "  losses {losses} (recovered {recovered}, expedited {expedited}); see docs/MONITORS.md \
         for the invariant catalogue"
    );
    for h in &result.health {
        if h.report.violations.is_empty() && h.report.anomalies.is_empty() {
            continue;
        }
        let _ = writeln!(s, "  trace {} {} {}:", h.trace, h.name, h.protocol);
        for v in &h.report.violations {
            let seq = v.seq.map_or("-".to_string(), |q| q.to_string());
            let _ = writeln!(
                s,
                "    [{} {}] t={} node={} seq={}: {}",
                v.invariant.id(),
                v.invariant.name(),
                v.t_ns,
                v.node,
                seq,
                v.detail
            );
            if let Some(tl) = &v.timeline {
                let _ = writeln!(
                    s,
                    "      timeline: path={} detected@{:.3} ms, first_req {}, xreq {}, \
                     recovered {}, {} request(s)",
                    tl.path.as_str(),
                    tl.detected_ns as f64 / 1e6,
                    fmt_opt_ns(tl.first_request_ns),
                    fmt_opt_ns(tl.expedited_request_ns),
                    fmt_opt_ns(tl.recovered_ns),
                    tl.requests
                );
            }
        }
        for a in &h.report.anomalies {
            let _ = writeln!(
                s,
                "    [anomaly {}] t={} node={} seq={}: {}",
                a.kind.name(),
                a.t_ns,
                a.node,
                a.seq,
                a.detail
            );
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::{AnomalyKind, MonitorReport, MonitorStats, RecoveryPath};

    fn fabricated_result(report: MonitorReport) -> (SuiteConfig, SuiteResult) {
        let mut cfg = SuiteConfig::quick(0.01).with_monitor();
        cfg.traces = Some(vec![4]);
        let result = SuiteResult {
            scale: cfg.scale,
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
                wall: std::time::Duration::ZERO,
                runs: Vec::new(),
            },
        };
        (cfg, result)
    }

    fn unhealthy_report() -> MonitorReport {
        MonitorReport {
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
        }
    }

    #[test]
    fn health_json_is_schema_stable_and_carries_violations() {
        let (cfg, result) = fabricated_result(unhealthy_report());
        let text = health_json(&cfg, &result);
        let doc = JsonValue::parse(&text).unwrap();
        assert_eq!(doc.get("schema").unwrap().as_str(), Some(HEALTH_SCHEMA));
        let totals = doc.get("totals").unwrap();
        assert_eq!(totals.get("violations").unwrap().as_u64(), Some(1));
        assert_eq!(
            totals
                .get("by_invariant")
                .unwrap()
                .get("I1")
                .unwrap()
                .as_u64(),
            Some(1)
        );
        assert_eq!(
            totals
                .get("by_invariant")
                .unwrap()
                .get("I5")
                .unwrap()
                .as_u64(),
            Some(0)
        );
        let runs = doc.get("runs").unwrap().as_arr().unwrap();
        assert_eq!(runs.len(), 1);
        let run = &runs[0];
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
    fn health_text_names_every_violation_and_anomaly() {
        let (_, result) = fabricated_result(unhealthy_report());
        let text = health_text(&result);
        assert!(text.contains("UNHEALTHY"), "text was:\n{text}");
        assert!(text.contains("[I1 liveness]"), "text was:\n{text}");
        assert!(text.contains("path=UNRECOVERED"), "text was:\n{text}");
        assert!(text.contains("[anomaly repair-storm]"), "text was:\n{text}");
    }

    #[test]
    fn healthy_runs_summarize_without_detail_lines() {
        let (cfg, result) = fabricated_result(MonitorReport {
            stats: MonitorStats {
                events: 5,
                losses: 1,
                recovered: 1,
                expedited: 1,
                ..MonitorStats::default()
            },
            violations: Vec::new(),
            anomalies: Vec::new(),
        });
        let text = health_text(&result);
        assert!(text.contains("HEALTHY"), "text was:\n{text}");
        assert!(!text.contains("trace 4"), "text was:\n{text}");
        let doc = JsonValue::parse(&health_json(&cfg, &result)).unwrap();
        assert_eq!(
            doc.get("runs").unwrap().as_arr().unwrap()[0].get("healthy"),
            Some(&JsonValue::Bool(true))
        );
    }

    #[test]
    fn end_to_end_monitored_run_is_healthy() {
        let mut cfg = SuiteConfig::quick(0.01).with_monitor();
        cfg.traces = Some(vec![4]);
        let result = crate::run_suite(&cfg);
        assert_eq!(result.health.len(), 2);
        assert_eq!(result.total_violations(), 0, "{}", health_text(&result));
        let text = health_json(&cfg, &result);
        assert!(text.contains(HEALTH_SCHEMA));
    }

    #[test]
    #[should_panic(expected = "health_json needs a suite run with monitor set")]
    fn health_json_requires_monitored_result() {
        let mut cfg = SuiteConfig::quick(0.01);
        cfg.traces = Some(vec![4]);
        let result = crate::run_suite(&cfg);
        health_json(&cfg, &result);
    }

    #[test]
    fn write_health_creates_missing_parent_directories() {
        let (cfg, result) = fabricated_result(unhealthy_report());
        let dir = std::env::temp_dir().join(format!(
            "cesrm-health-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("deep/health.json");
        write_health(&path, &cfg, &result).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains(HEALTH_SCHEMA));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
