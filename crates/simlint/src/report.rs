//! Human-readable and `--json` machine-readable report rendering.
//!
//! The JSON schema is versioned as `simlint/3` and hand-rolled (the
//! workspace is offline; no serde). Shape:
//!
//! ```json
//! {
//!   "schema": "simlint/3",
//!   "files_scanned": 123,
//!   "fns_indexed": 456,
//!   "elapsed_ms": 310,
//!   "new": [{"rule": "D001", "file": "crates/…", "line": 45, "message": "…"}],
//!   "baselined": [ …same shape… ],
//!   "stale_baseline": [{"rule": "D001", "file": "crates/…", "count": 2}],
//!   "ok": true
//! }
//! ```
//!
//! `simlint/3` is `simlint/2` without the per-schema `schemas` verdicts
//! (report schemas are locked by tests that render them, not by a lint
//! rule). `elapsed_ms` is the only machine-dependent field (see
//! `SIMLINT_VOLATILE_FIELDS`); everything else is a pure function of the
//! scanned tree. The key paths are pinned in `schemas/simlint-3.lock`.

use crate::rules::Finding;
use crate::scan::ScanReport;

/// Version tag the JSON report carries; bump it whenever a key path
/// changes (the lock test below fails until you do).
pub const SIMLINT_SCHEMA: &str = "simlint/3";

/// `simlint/3` fields that vary across machines/runs: compare-tooling must
/// ignore them (as `VOLATILE_FIELDS` does for the `cesrm-run/1` report).
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

/// Renders the `simlint/3` JSON report.
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

    fn sample() -> ScanReport {
        let finding = |rule, line| Finding {
            file: "crates/srm/src/core.rs".into(),
            line,
            rule,
            message: "a \"quoted\" message".into(),
        };
        ScanReport {
            new: vec![finding(RuleId::D001, 45)],
            baselined: vec![finding(RuleId::D006, 60)],
            stale_baseline: vec![(RuleId::D002, "crates/x.rs".into(), 2)],
            files_scanned: 7,
            fns_indexed: 31,
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
        assert!(text.contains("\"schema\": \"simlint/3\""));
        assert!(text.contains("\\\"quoted\\\""));
        assert!(text.contains("\"ok\": false"));
        assert!(text.contains("\"line\": 45"));
        assert!(text.contains("\"fns_indexed\": 31"));
        assert!(text.contains("\"elapsed_ms\": 12"));
        assert!(render_json(&ScanReport::default()).contains("\"ok\": true"));
    }

    /// The report's key paths and volatile list match the committed
    /// `schemas/simlint-3.lock` (`obs::lock`, the check the harness
    /// reports go through): a key change fails until the version moves.
    #[test]
    fn json_report_matches_its_lock() {
        let doc = obs::JsonValue::parse(&render_json(&sample())).expect("the report is JSON");
        let schemas = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../schemas");
        obs::lock::check_lock(&schemas, &[doc], &SIMLINT_VOLATILE_FIELDS)
            .unwrap_or_else(|e| panic!("{e}"));
    }
}
