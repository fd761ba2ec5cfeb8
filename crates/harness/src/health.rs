//! The human health summary `reproduce --health` prints.
//!
//! [`health_text`] renders a monitored suite run ([`crate::SuiteConfig`]
//! with `monitor`): one headline verdict, then every violation and anomaly
//! with its run context. The machine-readable form of the same verdict is
//! the `health` member of the `cesrm-run/2` report ([`crate::report`];
//! schema in `docs/MONITORS.md`).

use crate::suite::SuiteResult;

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
    use crate::suite::{RunHealth, SuiteConfig};
    use obs::{
        AnomalyKind, Invariant, MonitorReport, MonitorStats, RecoveryPath, RecoveryTimeline,
        Violation,
    };

    fn fabricated_result(report: MonitorReport) -> SuiteResult {
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
                wall: std::time::Duration::ZERO,
                runs: Vec::new(),
            },
        }
    }

    #[test]
    fn health_text_names_every_violation_and_anomaly() {
        let result = fabricated_result(MonitorReport {
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
        let text = health_text(&result);
        assert!(text.contains("UNHEALTHY"), "text was:\n{text}");
        assert!(text.contains("[I1 liveness]"), "text was:\n{text}");
        assert!(text.contains("path=UNRECOVERED"), "text was:\n{text}");
        assert!(text.contains("[anomaly repair-storm]"), "text was:\n{text}");
    }

    #[test]
    fn healthy_runs_summarize_without_detail_lines() {
        let result = fabricated_result(MonitorReport {
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
    }

    #[test]
    fn end_to_end_monitored_run_is_healthy() {
        let mut cfg = SuiteConfig::quick(0.01).with_monitor();
        cfg.traces = Some(vec![4]);
        let result = crate::run_suite(&cfg);
        assert_eq!(result.health.len(), 2);
        assert_eq!(result.total_violations(), 0, "{}", health_text(&result));
    }
}
