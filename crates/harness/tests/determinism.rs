//! The parallel runner's core guarantee: a suite run is a pure function of
//! its configuration — worker count changes wall-clock only, never results.

use harness::{run_suite, run_trace, Protocol, SuiteConfig};

fn scaled_config() -> SuiteConfig {
    let mut cfg = SuiteConfig::quick(0.01);
    // Three traces of different shapes keep the job queue busy enough for
    // genuine interleaving while staying test-fast.
    cfg.traces = Some(vec![1, 4, 13]);
    cfg
}

/// `jobs = 1` and `jobs = 4` must produce identical `SuiteResult`s: same
/// per-trace `RunMetrics` (compared exhaustively through `Debug`, which
/// exposes every field bit of every sample) and byte-identical CSVs.
#[test]
fn parallel_suite_is_byte_identical_to_serial() {
    let serial = run_suite(&scaled_config().with_jobs(1));
    let parallel = run_suite(&scaled_config().with_jobs(4));

    assert_eq!(serial.pairs.len(), 3);
    assert_eq!(parallel.pairs.len(), 3);
    assert_eq!(serial.timing.jobs, 1);
    assert_eq!(parallel.timing.jobs, 4);

    // Exhaustive field-for-field comparison of all measurements.
    assert_eq!(
        format!("{:?}", serial.pairs),
        format!("{:?}", parallel.pairs),
        "per-trace metrics must not depend on the worker count"
    );

    // Every derived CSV artifact must also be byte-identical.
    let dir_s = std::env::temp_dir().join("cesrm_determinism_serial");
    let dir_p = std::env::temp_dir().join("cesrm_determinism_parallel");
    let files_s = serial.write_csv_files(&dir_s).unwrap();
    let files_p = parallel.write_csv_files(&dir_p).unwrap();
    assert_eq!(files_s.len(), files_p.len());
    for (a, b) in files_s.iter().zip(&files_p) {
        let bytes_a = std::fs::read(a).unwrap();
        let bytes_b = std::fs::read(b).unwrap();
        assert_eq!(
            bytes_a,
            bytes_b,
            "CSV diverged between jobs=1 and jobs=4: {}",
            a.file_name().unwrap().to_string_lossy()
        );
        assert!(!bytes_a.is_empty());
    }
    std::fs::remove_dir_all(&dir_s).ok();
    std::fs::remove_dir_all(&dir_p).ok();
}

/// Repeating the same parallel run yields the same results (no hidden
/// scheduling dependence), and a different seed yields different ones.
#[test]
fn parallel_runs_are_repeatable_and_seed_sensitive() {
    let a = run_suite(&scaled_config().with_jobs(4));
    let b = run_suite(&scaled_config().with_jobs(4));
    assert_eq!(format!("{:?}", a.pairs), format!("{:?}", b.pairs));

    let mut other = scaled_config().with_jobs(4);
    other.seed ^= 0xDEAD_BEEF;
    let c = run_suite(&other);
    assert_ne!(
        format!("{:?}", a.pairs),
        format!("{:?}", c.pairs),
        "a different synthesis seed must change the measurements"
    );
}

/// Recovery-provenance capture must be a pure observer: a suite run with
/// `capture_events` on yields byte-identical measurements to one with the
/// no-op sink, and the capture itself is deterministic across worker
/// counts.
#[test]
fn event_capture_never_perturbs_measurements() {
    let off = run_suite(&scaled_config().with_jobs(4));
    let mut capturing = scaled_config().with_jobs(4);
    capturing.capture_events = true;
    let on = run_suite(&capturing);

    assert!(off.events.is_empty());
    assert_eq!(on.events.len(), 2 * on.pairs.len());
    assert!(on.events.iter().all(|e| !e.records.is_empty()));
    assert_eq!(
        format!("{:?}", off.pairs),
        format!("{:?}", on.pairs),
        "tracing must not change what is measured"
    );

    let serial = run_suite(&capturing.with_jobs(1));
    assert_eq!(
        format!("{:?}", serial.events),
        format!("{:?}", on.events),
        "captured events must not depend on the worker count"
    );
}

/// The SRM and CESRM jobs of a trace share one synthesized trace and one
/// §4.2 plan, prepared by whichever job starts first. Whoever that is, each
/// row must equal a standalone `run_trace` on a freshly generated trace.
#[test]
fn shared_preparation_matches_standalone_runs() {
    for jobs in [1, 2] {
        let mut cfg = SuiteConfig::quick(0.02).with_jobs(jobs);
        cfg.traces = Some(vec![2, 4]);
        let suite = run_suite(&cfg);
        assert_eq!(suite.pairs.len(), 2);
        for pair in &suite.pairs {
            let trace = pair.spec.generate(cfg.seed);
            for (row, protocol) in [
                (&pair.srm, Protocol::Srm),
                (&pair.cesrm, Protocol::Cesrm(cfg.cesrm)),
            ] {
                assert_eq!(
                    format!("{row:?}"),
                    format!("{:?}", run_trace(&trace, protocol, &cfg.experiment)),
                    "trace {} {protocol:?} at jobs = {jobs}",
                    pair.spec.number
                );
            }
        }
    }
}

/// The multi-seed batch entry point is deterministic too, seed by seed.
#[test]
fn batched_seeds_are_deterministic() {
    let cfg = scaled_config();
    let serial = harness::run_suites(&cfg.clone().with_jobs(1), &[7, 8]);
    let parallel = harness::run_suites(&cfg.with_jobs(4), &[7, 8]);
    assert_eq!(serial.len(), 2);
    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(format!("{:?}", s.pairs), format!("{:?}", p.pairs));
    }
}

/// Metrics self-profiling is a pure observer too: with metrics off the
/// CSV artifacts stay byte-identical at any worker count (no residue from
/// the instrumentation hooks), and with metrics on the measurements match
/// a metrics-off run exactly.
#[test]
fn metrics_collection_never_perturbs_measurements() {
    let off = run_suite(&scaled_config().with_jobs(4));
    let on = run_suite(&scaled_config().with_metrics().with_jobs(4));

    assert!(off.profiles.is_empty());
    assert_eq!(on.profiles.len(), 2 * on.pairs.len());
    assert_eq!(
        format!("{:?}", off.pairs),
        format!("{:?}", on.pairs),
        "profiling must not change what is measured"
    );

    let dir_off = std::env::temp_dir().join("cesrm_determinism_metrics_off");
    let dir_on = std::env::temp_dir().join("cesrm_determinism_metrics_on");
    let files_off = off.write_csv_files(&dir_off).unwrap();
    let files_on = on.write_csv_files(&dir_on).unwrap();
    for (a, b) in files_off.iter().zip(&files_on) {
        assert_eq!(
            std::fs::read(a).unwrap(),
            std::fs::read(b).unwrap(),
            "CSV diverged between metrics off and on: {}",
            a.file_name().unwrap().to_string_lossy()
        );
    }
    std::fs::remove_dir_all(&dir_off).ok();
    std::fs::remove_dir_all(&dir_on).ok();
}

/// Invariant monitoring is the third pure observer (after capture and
/// metrics): monitors on vs off leaves every measurement byte-identical,
/// and the monitor verdicts themselves are worker-count-invariant.
#[test]
fn monitoring_never_perturbs_measurements() {
    let off = run_suite(&scaled_config().with_jobs(4));
    let on = run_suite(&scaled_config().with_monitor().with_jobs(4));

    assert!(off.health.is_empty());
    assert_eq!(on.health.len(), 2 * on.pairs.len());
    assert_eq!(on.total_violations(), 0);
    assert_eq!(
        format!("{:?}", off.pairs),
        format!("{:?}", on.pairs),
        "monitoring must not change what is measured"
    );

    let serial = run_suite(&scaled_config().with_monitor().with_jobs(1));
    assert_eq!(
        format!("{:?}", serial.health),
        format!("{:?}", on.health),
        "monitor verdicts must not depend on the worker count"
    );
}

/// The suite-wide registry merge is associative, so the
/// merged snapshot — and with it the whole volatile-stripped BENCH
/// document — is identical at every worker count.
#[test]
fn merged_metrics_and_bench_report_are_worker_count_invariant() {
    let cfg = scaled_config().with_metrics();
    let serial = run_suite(&cfg.clone().with_jobs(1));
    let parallel = run_suite(&cfg.clone().with_jobs(4));

    // Snapshot merging must agree run-by-run and in aggregate.
    assert_eq!(serial.profiles.len(), parallel.profiles.len());
    for (s, p) in serial.profiles.iter().zip(&parallel.profiles) {
        assert_eq!(s.trace, p.trace);
        assert_eq!(s.protocol, p.protocol);
        assert_eq!(
            s.snapshot, p.snapshot,
            "{}/{} profile diverged",
            s.name, s.protocol
        );
    }
    let merged_s = serial.merged_snapshot();
    let merged_p = parallel.merged_snapshot();
    assert_eq!(merged_s, merged_p);
    assert!(merged_s.counters["sim.events.hop"] > 0);

    // The full report agrees byte-for-byte once the documented volatile
    // fields (wall-clock, throughput, jobs, created) are stripped.
    let report_s = harness::bench_report(&cfg, &serial, None, None);
    let report_p = harness::bench_report(&cfg, &parallel, None, None);
    assert_eq!(
        harness::strip_volatile(&report_s).unwrap(),
        harness::strip_volatile(&report_p).unwrap(),
        "stripped BENCH documents must not depend on the worker count"
    );
}
