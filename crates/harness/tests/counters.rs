//! The merged counters of a metrics-on suite run: their exact values, and
//! their agreement with the invariant monitors' per-kind tallies.

use harness::{run_suite, SuiteConfig};

fn traces_2_and_4() -> SuiteConfig {
    let mut cfg = SuiteConfig::quick(0.02);
    cfg.traces = Some(vec![2, 4]);
    cfg
}

/// Every counter of `SuiteConfig::quick(0.02)`, traces 2 and 4 — the names
/// and the values. A counter that appears, vanishes or moves fails here
/// with the full listing.
#[test]
fn merged_counters_are_pinned() {
    let counters = run_suite(&traces_2_and_4().with_metrics())
        .merged_snapshot()
        .counters;
    let pinned = [
        ("cesrm.cache.hits", 1165),
        ("cesrm.cache.misses", 158),
        ("cesrm.cache.updates", 1414),
        ("cesrm.expedited_replies_sent", 156),
        ("cesrm.expedited_requests_sent", 271),
        ("recovery.detected", 2646),
        ("recovery.recovered", 2646),
        ("recovery.recovered_expedited", 636),
        ("recovery.requests", 887),
        ("recovery.spurious", 0),
        ("sim.events.hop", 235763),
        ("sim.events.start", 40),
        ("sim.events.timer", 20419),
        ("sim.packets.dropped", 706),
        ("sim.packets.forwarded", 235783),
        ("sim.timers.cancelled", 6314),
        ("sim.timers.scheduled", 20459),
        ("sim.timers.voided", 5427),
        ("srm.replies_sent", 2240),
        ("srm.reply_suppressed", 1606),
        ("srm.reply_timers_set", 3846),
        ("srm.request_suppressed", 1175),
        ("srm.request_timers_set", 4708),
        ("srm.requests_sent", 887),
    ];
    let got: Vec<(&str, u64)> = counters.iter().map(|(k, &v)| (k.as_str(), v)).collect();
    assert_eq!(got, pinned);
}

/// The counters and the monitors count the same recovery steps, so they
/// must agree run for run: a counter kept beside its event instead of
/// derived from it drifts from the monitors' tally as soon as one fires
/// without the other.
#[test]
fn counters_equal_the_monitor_tallies() {
    let result = run_suite(&traces_2_and_4().with_metrics().with_monitor());
    assert_eq!(result.profiles.len(), 4);
    assert_eq!(result.health.len(), 4);
    for (profile, health) in result.profiles.iter().zip(&result.health) {
        let run = format!("{} {}", profile.name, profile.protocol);
        assert_eq!(
            (health.name, health.protocol),
            (profile.name, profile.protocol)
        );
        let c = |name: &str| profile.snapshot.counters.get(name).copied().unwrap_or(0);
        let s = &health.report.stats;
        for (name, tally) in [
            ("recovery.detected", s.losses),
            ("recovery.recovered", s.recovered),
            ("recovery.recovered_expedited", s.expedited),
            ("recovery.spurious", s.spurious),
            ("recovery.requests", s.requests_sent),
            ("srm.requests_sent", s.requests_sent),
            ("srm.request_suppressed", s.requests_suppressed),
            ("srm.replies_sent", s.replies_sent),
            ("srm.reply_suppressed", s.replies_suppressed),
            ("cesrm.expedited_requests_sent", s.expedited_requests),
            ("cesrm.expedited_replies_sent", s.expedited_replies),
            ("cesrm.cache.hits", s.cache_hits),
            ("cesrm.cache.misses", s.cache_misses),
            ("cesrm.cache.updates", s.cache_updates),
        ] {
            assert_eq!(c(name), tally, "{run}: `{name}`");
        }
    }
    assert!(
        result
            .health
            .iter()
            .map(|h| h.report.stats.cache_updates)
            .sum::<u64>()
            > 0,
        "the CESRM runs update their caches"
    );
}
