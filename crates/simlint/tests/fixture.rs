//! Fixture-crate integration test: scans `tests/fixtures/` — an uncompiled
//! mini-workspace — and asserts that the findings match the `//~ RULE`
//! markers in the fixture sources *exactly* (same file, same line, same
//! rule; nothing more, nothing less).
//!
//! The fixture exercises every rule with at least one firing and at least
//! one suppressed occurrence, plus the config allowlist and the baseline
//! budget, so this test pins the end-to-end behaviour of the scanner.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

use simlint::{scan_workspace, Baseline, Config, Finding, RuleId};

fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

/// The config the fixture tree is scanned under: `fixture_crate` is the
/// only "simulation-state" *and* simulation crate (so `other_crate` proves
/// D001 scoping), and `allowed_clock.rs` is allowlisted for D002.
fn fixture_config() -> Config {
    let mut allow = BTreeMap::new();
    allow.insert(
        RuleId::D002,
        vec!["crates/fixture_crate/src/allowed_clock.rs".to_string()],
    );
    Config {
        state_crates: vec!["fixture_crate".to_string()],
        sim_crates: vec!["fixture_crate".to_string()],
        entry_points: vec!["Simulator::run_until".to_string(), "on_packet".to_string()],
        allow,
        ..Config::default()
    }
}

/// Collects the expected `(file, line, rule)` triples by reading the
/// fixture sources and parsing `//~ RULE [RULE...]` markers.
fn expected_markers(root: &Path) -> Vec<(String, u32, RuleId)> {
    let mut files = Vec::new();
    collect_rs(root, root, &mut files);
    files.sort();

    let mut expected = Vec::new();
    for rel in &files {
        let text = fs::read_to_string(root.join(rel)).expect("fixture file is readable");
        for (idx, line) in text.lines().enumerate() {
            let Some(pos) = line.find("//~") else {
                continue;
            };
            let line_no = u32::try_from(idx + 1).expect("fixture line fits u32");
            for word in line[pos + 3..].split_whitespace() {
                let rule = RuleId::parse(word)
                    .unwrap_or_else(|| panic!("{rel}:{line_no}: bad marker `{word}`"));
                expected.push((rel.clone(), line_no, rule));
            }
        }
    }
    expected.sort();
    expected
}

fn collect_rs(root: &Path, dir: &Path, out: &mut Vec<String>) {
    for entry in fs::read_dir(dir).expect("fixture dir is readable") {
        let path = entry.expect("fixture entry is readable").path();
        if path.is_dir() {
            collect_rs(root, &path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = path.strip_prefix(root).expect("under root");
            out.push(
                rel.components()
                    .map(|c| c.as_os_str().to_string_lossy())
                    .collect::<Vec<_>>()
                    .join("/"),
            );
        }
    }
}

fn triples(findings: &[Finding]) -> Vec<(String, u32, RuleId)> {
    let mut v: Vec<_> = findings
        .iter()
        .map(|f| (f.file.clone(), f.line, f.rule))
        .collect();
    v.sort();
    v
}

#[test]
fn fixture_findings_match_markers_exactly() {
    let root = fixture_root();
    let report = scan_workspace(&root, &fixture_config(), &Baseline::default())
        .expect("fixture scan succeeds");

    let expected = expected_markers(&root);
    assert!(!expected.is_empty(), "fixture must carry markers");
    assert_eq!(
        triples(&report.new),
        expected,
        "findings must match the //~ markers exactly"
    );
    assert!(report.baselined.is_empty());
    assert!(report.stale_baseline.is_empty());
    assert!(report.failed());
}

#[test]
fn fixture_covers_every_rule() {
    let root = fixture_root();
    let expected = expected_markers(&root);
    for rule in RuleId::ALL {
        assert!(
            expected.iter().any(|(_, _, r)| *r == rule),
            "fixture must have at least one {rule} firing"
        );
    }

    // Every rule must also have at least one *suppressed* occurrence: a
    // `simlint: allow(RULE, ...)` annotation that the scan accepted (i.e.
    // produced no finding at its site). D005's suppressed case is the
    // meta-suppression covering the deliberately-stale allow.
    let read = |name: &str| {
        fs::read_to_string(root.join("crates/fixture_crate/src").join(name))
            .unwrap_or_else(|_| panic!("fixture {name} is readable"))
    };
    let text = read("lib.rs");
    let clock = read("clock.rs");
    let accum = read("accum.rs");
    let sim = read("sim.rs");
    let helpers = read("helpers.rs");
    for (rule, haystack) in [
        ("allow(D001, reason = \"bounded", text.as_str()),
        ("allow(D002, reason = \"fixture", clock.as_str()),
        ("allow(D003, reason = \"fixture", text.as_str()),
        ("allow(D004, reason = \"fixture", text.as_str()),
        ("allow(D005, reason = \"kept", text.as_str()),
        ("allow(D006, reason = \"fixture", accum.as_str()),
        ("allow(D007, reason = \"fixture", sim.as_str()),
        ("allow(D008, reason = \"fixture", helpers.as_str()),
    ] {
        assert!(
            haystack.contains(rule),
            "fixture must keep the suppressed case for `{rule}`"
        );
    }
}

#[test]
fn explain_prints_catalogue_sections() {
    for rule in RuleId::ALL {
        let text = simlint::explain(rule);
        assert!(
            text.starts_with(&format!("### {rule}")),
            "--explain {rule} must lead with its catalogue header, got: {text}"
        );
        assert!(
            text.len() > 80,
            "--explain {rule} must carry the full docs/LINTS.md entry"
        );
    }
}

/// Exit codes are a documented contract: 0 clean, 1 new findings, 2
/// config/usage error. Exercised against the real binary.
#[test]
fn exit_codes_are_distinct_and_documented() {
    let bin = env!("CARGO_BIN_EXE_simlint");
    let run = |args: &[&str]| {
        std::process::Command::new(bin)
            .args(args)
            .output()
            .expect("simlint binary runs")
    };
    // 0: --explain on a known rule.
    assert_eq!(run(&["--explain", "D006"]).status.code(), Some(0));
    // 2: unknown rule id / unknown flag.
    assert_eq!(run(&["--explain", "D042"]).status.code(), Some(2));
    assert_eq!(run(&["--not-a-flag"]).status.code(), Some(2));
    // 1: the fixture tree has new findings under an empty default config
    // (D002/D003/D004/D005 fire without any config at all).
    let root = fixture_root();
    assert_eq!(
        run(&["--root", root.to_str().expect("utf8 path")])
            .status
            .code(),
        Some(1)
    );
}

#[test]
fn allowlisted_file_stays_silent() {
    let root = fixture_root();
    let report = scan_workspace(&root, &fixture_config(), &Baseline::default())
        .expect("fixture scan succeeds");
    assert!(
        report
            .new
            .iter()
            .all(|f| f.file != "crates/fixture_crate/src/allowed_clock.rs"),
        "config-allowlisted file must produce no findings"
    );

    // Without the allowlist entry, the same file fires D002.
    let config = Config {
        state_crates: vec!["fixture_crate".to_string()],
        ..Config::default()
    };
    let report =
        scan_workspace(&root, &config, &Baseline::default()).expect("fixture scan succeeds");
    assert!(report
        .new
        .iter()
        .any(|f| f.file == "crates/fixture_crate/src/allowed_clock.rs" && f.rule == RuleId::D002));
}

#[test]
fn non_state_crate_is_exempt_from_d001_only() {
    let root = fixture_root();
    let report = scan_workspace(&root, &fixture_config(), &Baseline::default())
        .expect("fixture scan succeeds");
    assert!(
        report
            .new
            .iter()
            .all(|f| f.file != "crates/other_crate/src/lib.rs"),
        "HashMap in a non-state crate must not fire D001"
    );
}

#[test]
fn baseline_grandfathers_fixture_findings() {
    let root = fixture_root();
    let config = fixture_config();
    let empty = scan_workspace(&root, &config, &Baseline::default()).expect("scan succeeds");
    let total = empty.new.len();

    // A baseline generated from the scan itself absorbs everything.
    let mut rendered = String::new();
    for ((rule, file), count) in empty.counts() {
        rendered.push_str(&format!("{rule} {file} {count}\n"));
    }
    let baseline = Baseline::parse(&rendered).expect("rendered baseline parses");
    let report = scan_workspace(&root, &config, &baseline).expect("scan succeeds");
    assert!(!report.failed());
    assert_eq!(report.baselined.len(), total);
    assert!(report.stale_baseline.is_empty());
}
