//! End-to-end guarantees of the online invariant monitors: real suite
//! runs violate none of the six protocol invariants (on every Table-1
//! topology, across seeds), and the `health` member of the run report is a
//! deterministic pure observer — byte-identical at any worker count,
//! invisible to the measurements.

use harness::{health_text, run_suite, suite_report, SuiteConfig};
use proptest::prelude::*;

fn monitored(traces: Option<Vec<usize>>) -> SuiteConfig {
    let mut cfg = SuiteConfig::quick(0.01).with_monitor();
    cfg.traces = traces;
    cfg
}

/// The acceptance bar of the monitoring work: the full Table-1 suite —
/// all 14 topologies, both protocols — runs under the monitors with zero
/// violations. Any failure here prints the per-loss provenance detail.
#[test]
fn full_suite_is_violation_free_on_every_topology() {
    let cfg = monitored(None);
    let result = run_suite(&cfg);
    assert_eq!(result.health.len(), 28, "14 traces × 2 protocols");
    assert_eq!(result.total_violations(), 0, "{}", health_text(&result));
    for h in &result.health {
        assert!(h.report.is_healthy(), "{}", health_text(&result));
        assert!(
            h.report.stats.events > 0,
            "{}/{} saw no events",
            h.name,
            h.protocol
        );
        assert!(
            h.report.stats.losses > 0,
            "{}/{} saw no losses",
            h.name,
            h.protocol
        );
        assert_eq!(h.report.stats.unrecovered, 0, "{}", health_text(&result));
    }
    // CESRM runs exercise the cache-coherence invariant for real.
    let cesrm_hits: u64 = result
        .health
        .iter()
        .filter(|h| h.protocol == "CESRM")
        .map(|h| h.report.stats.cache_hits)
        .sum();
    assert!(cesrm_hits > 0, "no cache traffic was checked");
}

/// The `health` member is a pure function of the configuration: same
/// bytes at `jobs = 1` and `jobs = 4`, with no stripping step (nothing in
/// it reads the wall clock).
#[test]
fn health_report_is_byte_identical_at_any_worker_count() {
    let cfg = monitored(Some(vec![1, 4, 13])).with_metrics();
    let serial = run_suite(&cfg.clone().with_jobs(1));
    let parallel = run_suite(&cfg.clone().with_jobs(4));
    let health = |r: &harness::SuiteResult| {
        let doc = obs::JsonValue::parse(&suite_report(&cfg, r, &[])).unwrap();
        doc.get("health").unwrap().to_string_pretty()
    };
    assert_eq!(
        health(&serial),
        health(&parallel),
        "health members must not depend on the worker count"
    );
    assert_eq!(health_text(&serial), health_text(&parallel));
}

/// Monitors compose with event capture on one handle: both observers see
/// the identical stream, and the captured events match a capture-only run.
#[test]
fn monitors_compose_with_event_capture() {
    let mut capture_only = monitored(Some(vec![4]));
    capture_only.monitor = false;
    capture_only.capture_events = true;
    let plain = run_suite(&capture_only);

    let mut both = capture_only;
    both.monitor = true;
    let combined = run_suite(&both);

    assert_eq!(
        format!("{:?}", plain.events),
        format!("{:?}", combined.events),
        "monitoring must not change what capture records"
    );
    // The monitors saw exactly the records the sink captured.
    for (log, health) in combined.events.iter().zip(&combined.health) {
        assert_eq!(log.records.len() as u64, health.report.stats.events);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Seed variation never manufactures a violation: the invariants hold
    /// on arbitrary loss patterns, not just the default seed. Four traces
    /// of different shapes (star, shallow, deep, wide) cover the
    /// topology-sensitive invariants (conservation, cache coherence).
    #[test]
    fn monitored_suite_is_violation_free_across_seeds(seed in 1u64..1_000_000) {
        let mut cfg = monitored(Some(vec![1, 4, 8, 13]));
        cfg.seed = seed;
        let result = run_suite(&cfg);
        prop_assert_eq!(result.health.len(), 8);
        prop_assert_eq!(
            result.total_violations(),
            0,
            "seed {}: {}",
            seed,
            health_text(&result)
        );
    }
}
