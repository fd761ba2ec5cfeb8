//! The report schemas are locked by rendering them: each test renders
//! documents that exercise every section of a schema and checks their
//! sorted key paths and volatile list against the committed lock under
//! `schemas/` (`obs::lock`). A key change under the same schema id fails
//! with "bump the version"; a new id fails with the lock text to commit.

use std::path::PathBuf;
use std::time::Duration;

use harness::{
    run_scale, run_suite, scale_digest_json, scale_report, suite_digest_json, suite_report,
    Overhead, RungOutcome, ScaleConfig, SuiteConfig, SuiteResult, VOLATILE_FIELDS,
};
use obs::{Anomaly, AnomalyKind, Invariant, JsonValue, RecoveryPath, RecoveryTimeline, Violation};

fn schemas_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../schemas")
}

/// A suite run with every observation layer on, trace 4 at 1 % scale.
fn observed_suite() -> (SuiteConfig, SuiteResult) {
    let mut cfg = SuiteConfig::quick(0.01)
        .with_metrics()
        .with_profile()
        .with_monitor()
        .with_digest();
    cfg.traces = Some(vec![4]);
    let result = run_suite(&cfg);
    (cfg, result)
}

/// A profiled, digested 2-shard rung.
fn sharded_rung() -> (ScaleConfig, RungOutcome) {
    let cfg = ScaleConfig {
        shards: 2,
        profile: true,
        digest: true,
        ..ScaleConfig::rung(200)
    };
    let mut result = run_scale(&cfg);
    let outcome = RungOutcome {
        digest: result.digest.take(),
        result,
        wall: Duration::from_millis(10),
        peak_rss_bytes: 1 << 20,
    };
    (cfg, outcome)
}

fn parse(text: &str) -> JsonValue {
    JsonValue::parse(text).expect("the writer emits JSON")
}

#[test]
fn run_report_matches_its_lock() {
    let (cfg, mut result) = observed_suite();
    // A fabricated violation with a full timeline, and an anomaly, so
    // that every key path of the health member appears.
    let report = &mut result.health[0].report;
    report.violations.push(Violation {
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
    });
    report.anomalies.push(Anomaly {
        kind: AnomalyKind::RepairStorm,
        t_ns: 8_000,
        node: 3,
        seq: 7,
        detail: "8 repairs for one loss".to_string(),
    });
    let measured = Overhead {
        wall_off_s: 1.0,
        wall_on_s: 1.02,
        cpu_off_s: 4.0,
        cpu_on_s: 4.1,
    };
    let layers = [("monitor", measured), ("digest", measured)];
    let mut suite = parse(&suite_report(&cfg, &result, &layers));
    // Counter names are `obs::tally::COUNTERS` plus `sim.*` — data, not
    // schema.
    *suite.get_mut("counters").expect("counters member") = JsonValue::Obj(Vec::new());
    let (_, rung) = sharded_rung();
    let scale = parse(&scale_report("cesrm", 7, 12, &[rung]));
    obs::lock::check_lock(&schemas_dir(), &[suite, scale], VOLATILE_FIELDS)
        .unwrap_or_else(|e| panic!("{e}"));
}

#[test]
fn digest_trail_matches_its_lock() {
    let (cfg, result) = observed_suite();
    let suite = parse(&suite_digest_json(&cfg, &result));
    let (rung_cfg, rung) = sharded_rung();
    let snapshot = rung.digest.expect("digest requested");
    let scale = parse(&scale_digest_json(
        "cesrm",
        rung_cfg.seed,
        rung_cfg.packets,
        &[(&rung_cfg, &snapshot)],
    ));
    obs::lock::check_lock(&schemas_dir(), &[suite, scale], &[]).unwrap_or_else(|e| panic!("{e}"));
}
