//! Human-readable and `--json` machine-readable report rendering.
//!
//! The JSON schema is versioned as `simlint/2` and hand-rolled (the
//! workspace is offline; no serde). Shape:
//!
//! ```json
//! {
//!   "schema": "simlint/2",
//!   "files_scanned": 123,
//!   "fns_indexed": 456,
//!   "elapsed_ms": 310,
//!   "new": [{"rule": "D001", "file": "crates/…", "line": 45, "message": "…"}],
//!   "baselined": [ …same shape… ],
//!   "stale_baseline": [{"rule": "D001", "file": "crates/…", "count": 2}],
//!   "schemas": [{"id": "cesrm-bench/1", "ok": true}],
//!   "ok": true
//! }
//! ```
//!
//! `simlint/2` extends `simlint/1` with `fns_indexed` (pass-1 call-graph
//! coverage), `elapsed_ms` (wall time, machine-dependent), and the per-
//! schema D009 verdicts. `elapsed_ms` is the only machine-dependent field
//! (see `SIMLINT_VOLATILE_FIELDS`); everything else is a pure function of
//! the scanned tree.

use crate::rules::Finding;
use crate::scan::ScanReport;

/// Version tag the JSON report carries; bump on breaking schema change
/// (the D009 lock for this id is pinned like every other report format).
pub const SIMLINT_SCHEMA: &str = "simlint/2";

/// `simlint/2` fields that vary across machines/runs: compare-tooling must
/// ignore them (mirrors `PROF_VOLATILE_FIELDS` in `cesrm-prof/2`).
pub const SIMLINT_VOLATILE_FIELDS: [&str; 1] = ["elapsed_ms"];

/// Renders the human-readable report (one `file:line:` diagnostic per
/// finding, then a summary line).
pub fn render_human(report: &ScanReport) -> String {
    let mut out = String::new();
    for f in &report.new {
        out.push_str(&format!("{f}\n"));
    }
    if !report.baselined.is_empty() {
        out.push_str(&format!(
            "note: {} grandfathered finding(s) absorbed by the baseline\n",
            report.baselined.len()
        ));
    }
    for (rule, file, count) in &report.stale_baseline {
        out.push_str(&format!(
            "note: stale baseline entry {rule} {file} ({count} unmatched) — shrink the baseline\n"
        ));
    }
    out.push_str(&format!(
        "simlint: {} file(s) scanned, {} fn(s) indexed, {} new finding(s), {} baselined — {}\n",
        report.files_scanned,
        report.fns_indexed,
        report.new.len(),
        report.baselined.len(),
        if report.failed() { "FAIL" } else { "ok" }
    ));
    out
}

/// Renders the `simlint/2` JSON report.
pub fn render_json(report: &ScanReport) -> String {
    let mut out = format!("{{\n  \"schema\": \"{SIMLINT_SCHEMA}\",\n");
    out.push_str(&format!("  \"files_scanned\": {},\n", report.files_scanned));
    out.push_str(&format!("  \"fns_indexed\": {},\n", report.fns_indexed));
    out.push_str(&format!("  \"elapsed_ms\": {},\n", report.elapsed_ms));
    out.push_str("  \"new\": ");
    render_findings(&mut out, &report.new);
    out.push_str(",\n  \"baselined\": ");
    render_findings(&mut out, &report.baselined);
    out.push_str(",\n  \"stale_baseline\": [");
    for (i, (rule, file, count)) in report.stale_baseline.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!(
            "{{\"rule\": \"{rule}\", \"file\": \"{}\", \"count\": {count}}}",
            escape(file)
        ));
    }
    out.push_str("],\n  \"schemas\": [");
    for (i, s) in report.schemas.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!(
            "{{\"id\": \"{}\", \"ok\": {}}}",
            escape(&s.id),
            s.ok
        ));
    }
    out.push_str(&format!(
        "],\n  \"ok\": {}\n}}\n",
        if report.failed() { "false" } else { "true" }
    ));
    out
}

fn render_findings(out: &mut String, findings: &[Finding]) {
    if findings.is_empty() {
        out.push_str("[]");
        return;
    }
    out.push_str("[\n");
    for (i, f) in findings.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"message\": \"{}\"}}{}\n",
            f.rule,
            escape(&f.file),
            f.line,
            escape(&f.message),
            if i + 1 < findings.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]");
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::RuleId;
    use crate::schema::SchemaStatus;

    fn sample() -> ScanReport {
        ScanReport {
            new: vec![Finding {
                file: "crates/srm/src/core.rs".into(),
                line: 45,
                rule: RuleId::D001,
                message: "a \"quoted\" message".into(),
            }],
            baselined: vec![],
            stale_baseline: vec![(RuleId::D002, "crates/x.rs".into(), 2)],
            files_scanned: 7,
            fns_indexed: 31,
            schemas: vec![
                SchemaStatus {
                    id: "cesrm-bench/1".into(),
                    ok: true,
                },
                SchemaStatus {
                    id: "cesrm-prof/2".into(),
                    ok: false,
                },
            ],
            elapsed_ms: 12,
        }
    }

    #[test]
    fn human_report_has_span_and_verdict() {
        let text = render_human(&sample());
        assert!(text.contains("crates/srm/src/core.rs:45: D001"));
        assert!(text.contains("FAIL"));
        assert!(text.contains("stale baseline entry D002"));
        assert!(text.contains("31 fn(s) indexed"));
        let ok = render_human(&ScanReport::default());
        assert!(ok.contains("— ok"));
    }

    #[test]
    fn json_report_is_escaped_and_versioned() {
        let text = render_json(&sample());
        assert!(text.contains("\"schema\": \"simlint/2\""));
        assert!(text.contains("\\\"quoted\\\""));
        assert!(text.contains("\"ok\": false"));
        assert!(text.contains("\"line\": 45"));
        assert!(text.contains("\"fns_indexed\": 31"));
        assert!(text.contains("\"elapsed_ms\": 12"));
        assert!(text.contains("{\"id\": \"cesrm-bench/1\", \"ok\": true}"));
        assert!(text.contains("{\"id\": \"cesrm-prof/2\", \"ok\": false}"));
        assert!(render_json(&ScanReport::default()).contains("\"ok\": true"));
    }
}
