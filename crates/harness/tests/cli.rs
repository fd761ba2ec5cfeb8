//! Drives the real `reproduce` and `bench_compare` binaries with malformed
//! command lines: every argument error is a usage message and exit status
//! 2, never a panic.

use std::process::Command;

/// Every case exits 2 with its message and `usage` on stderr, unpanicked.
fn assert_usage_errors(exe: &str, usage: &str, cases: &[(&[&str], &str)]) {
    for (args, expected) in cases {
        let out = Command::new(exe)
            .args(*args)
            .output()
            .expect("the binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(2),
            "{args:?} must exit 2, stderr:\n{stderr}"
        );
        assert!(
            stderr.contains(expected),
            "{args:?}: expected {expected:?} in:\n{stderr}"
        );
        assert!(
            stderr.contains(usage),
            "{args:?} printed no usage:\n{stderr}"
        );
        assert!(
            !stderr.contains("panicked at"),
            "{args:?} panicked:\n{stderr}"
        );
    }
}

#[test]
fn argument_errors_exit_2_with_usage_and_never_panic() {
    let cases: &[(&[&str], &str)] = &[
        (&["--jobs"], "--jobs requires a worker count"),
        (&["--seed", "twelve"], "--seed requires an integer"),
        (&["--traces", "1,foo"], "--traces requires trace numbers"),
        (&["--traces", "15"], "--traces requires trace numbers"),
        (&["--scale", "x"], "--scale requires a number"),
        (&["--overhead", "everything"], "--overhead requires monitor"),
        // `--profile` only reports counts that always exist: no layer to gate.
        (
            &["--overhead", "profile", "--scale", "0.01", "--traces", "2"],
            "--overhead requires monitor and/or digest, got \"profile\"",
        ),
        // A limit with no layer to apply it to gates nothing.
        (
            &[
                "--overhead-max-pct",
                "5",
                "--scale",
                "0.01",
                "--traces",
                "2",
            ],
            "--overhead-max-pct requires --overhead",
        ),
        // Zero delay makes every back-off window [0, 0]: it never ends.
        (
            &["--link-delay-ms", "0", "--scale", "0.01", "--traces", "2"],
            "--link-delay-ms requires a positive integer",
        ),
        (&["--frobnicate"], "unknown argument: --frobnicate"),
        // Comparing reports is `bench_compare`'s job alone.
        (&["--baseline", "x"], "unknown argument: --baseline"),
        // Trace refinements with nothing captured to refine.
        (
            &["--trace-slowest", "3", "--scale", "0.01", "--traces", "2"],
            "--trace-slowest requires --trace",
        ),
        (
            &[
                "--trace-filter",
                "seq=3",
                "--scale",
                "0.01",
                "--traces",
                "2",
            ],
            "--trace-filter requires --trace",
        ),
        // A profile goes into the one report, so it needs one.
        (
            &["--profile", "--scale", "0.01", "--traces", "2"],
            "--profile requires --report",
        ),
        (
            &["scale", "--rungs", "1000", "--profile"],
            "--profile requires --report",
        ),
        // One report flag; the profile and health sections are switches.
        (
            &["--bench-report", "x.json"],
            "unknown argument: --bench-report",
        ),
        (&["--profile=folded"], "unknown argument: --profile=folded"),
        (
            &["--profile-out", "p.json"],
            "unknown argument: --profile-out",
        ),
        (&["--health", "h.json"], "unknown argument: h.json"),
        (
            &["scale", "--losses", "4"],
            "unknown scale argument: --losses",
        ),
        (&["scale", "--rungs", "1000,x"], "--rungs requires"),
        (&["scale", "--frobnicate"], "unknown scale argument"),
        // Rungs run one way: in this process.
        (&["scale", "--in-process"], "unknown scale argument"),
        (&["scale", "--protocol", "tcp"], "unknown protocol"),
        // Zero counts are errors, not a silent 1.
        (&["--seeds", "0"], "--seeds requires a positive count"),
        (
            &["scale", "--rungs", "1000", "--shards", "0"],
            "--shards requires a positive count",
        ),
        (&["diff", "only-one.json"], "exactly two digest trails"),
        (&["diff", "--frobnicate", "a", "b"], "unknown diff argument"),
    ];
    assert_usage_errors(env!("CARGO_BIN_EXE_reproduce"), "usage: reproduce", cases);
}

/// A rung too large for the host is refused before its tree is built, so
/// the process exits 2 at once instead of being killed mid-allocation.
#[test]
fn oversized_scale_rungs_exit_2_before_building_anything() {
    let mut cases: Vec<(&[&str], &str)> = vec![(
        &["scale", "--rungs", "1000,99999999999"],
        "more than u32 node ids can name",
    )];
    // About 3.5·10⁹ receivers fit u32 node ids but no host's memory; the
    // estimate needs `/proc/meminfo`, and without it the rung would run.
    if std::path::Path::new("/proc/meminfo").exists() {
        cases.push((
            &["scale", "--rungs", "3000000000"],
            "B per receiver), more than this host's",
        ));
    }
    assert_usage_errors(env!("CARGO_BIN_EXE_reproduce"), "usage: reproduce", &cases);
}

#[test]
fn bench_compare_argument_errors_exit_2_with_usage_and_never_panic() {
    let cases: &[(&[&str], &str)] = &[
        (
            &["--max-wall-pct", "abc"],
            "--max-wall-pct requires a percentage",
        ),
        (&["--baseline"], "--baseline requires a file"),
        (&["--frobnicate"], "unknown argument: --frobnicate"),
        (&["--baseline", "b.json"], "needs both --baseline and"),
    ];
    assert_usage_errors(
        env!("CARGO_BIN_EXE_bench_compare"),
        "usage: bench_compare",
        cases,
    );
}

/// A file of 200 000 `[`s is refused by both readers with a usage error:
/// the parser caps nesting instead of recursing off the stack.
#[test]
fn deeply_nested_json_is_a_usage_error_not_a_stack_overflow() {
    let dir = std::env::temp_dir().join(format!("cesrm-deep-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let deep = dir.join("deep.json");
    std::fs::write(&deep, "[".repeat(200_000)).expect("file written");
    let deep = deep.to_str().expect("utf-8 temp path");
    assert_usage_errors(
        env!("CARGO_BIN_EXE_reproduce"),
        "usage: reproduce",
        &[(
            &["diff", deep, deep],
            "is not valid JSON: nesting deeper than",
        )],
    );
    assert_usage_errors(
        env!("CARGO_BIN_EXE_bench_compare"),
        "usage: bench_compare",
        &[(
            &["--baseline", deep, "--candidate", deep],
            "is not valid JSON: nesting deeper than",
        )],
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// `--history` reads members no schema revision changed, so it lists
/// `cesrm-bench/*` reports next to `cesrm-run/*` ones, reading the mode
/// from `workload.mode` or the legacy `suite.mode`; anything else is
/// skipped by name.
#[test]
fn bench_history_lists_every_report_revision() {
    let dir = std::env::temp_dir().join(format!("cesrm-history-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let report = |schema: &str, created: &str, section: &str| {
        format!(
            r#"{{"schema":"{schema}","created":"{created}",{section},
               "totals":{{"runs":2,"events":1000,"wall_s":0.5,"events_per_sec":2000}}}}"#
        )
    };
    for (name, schema, created, section) in [
        (
            "BENCH_20260101.json",
            "cesrm-bench/1",
            "2026-01-01",
            r#""suite":{}"#,
        ),
        (
            "BENCH_20260102.json",
            "cesrm-bench/2",
            "2026-01-02",
            r#""suite":{}"#,
        ),
        (
            "BENCH_20260103.json",
            "cesrm-prof/2",
            "2026-01-03",
            r#""suite":{}"#,
        ),
        (
            "BENCH_SCALE_20260102.json",
            "cesrm-bench/2",
            "2026-01-02",
            r#""suite":{"mode":"scale"}"#,
        ),
        (
            "BENCH_SCALE_20260104.json",
            "cesrm-run/1",
            "2026-01-04",
            r#""workload":{"mode":"scale"}"#,
        ),
        (
            "BENCH_SCALE_20260105.json",
            harness::RUN_SCHEMA,
            "2026-01-05",
            r#""workload":{"mode":"scale"}"#,
        ),
    ] {
        std::fs::write(dir.join(name), report(schema, created, section)).expect("report written");
    }
    let out = Command::new(env!("CARGO_BIN_EXE_bench_compare"))
        .arg("--history")
        .arg(&dir)
        .output()
        .expect("the binary runs");
    std::fs::remove_dir_all(&dir).ok();
    let (stdout, stderr) = (
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(stdout.contains("5 reports"), "{stdout}");
    assert!(
        stdout.contains("BENCH_20260101.json") && stdout.contains("BENCH_20260102.json"),
        "{stdout}"
    );
    let scale_rows = stdout.lines().filter(|l| l.contains(" scale ")).count();
    assert_eq!(scale_rows, 3, "{stdout}");
    // Each cesrm-run scale row's deltas compare against the one before.
    for name in ["BENCH_SCALE_20260104.json", "BENCH_SCALE_20260105.json"] {
        let run_row = stdout
            .lines()
            .find(|l| l.starts_with(name))
            .expect("cesrm-run row listed");
        assert!(run_row.contains("+0.0%"), "{run_row}");
    }
    assert!(stderr.contains("skipping BENCH_20260103.json"), "{stderr}");
}

/// A suite baseline against a scale candidate measures two different
/// workloads: the comparison refuses it (exit 1) and names both modes.
#[test]
fn bench_compare_refuses_unlike_workload_modes() {
    let dir = std::env::temp_dir().join(format!("cesrm-modes-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = |mode: &str| {
        let path = dir.join(format!("{mode}.json"));
        let text = format!(
            r#"{{"schema":"{}","workload":{{"mode":"{mode}"}},
               "totals":{{"runs":1,"events":1000,"wall_s":0.5,"events_per_sec":2000}}}}"#,
            harness::RUN_SCHEMA
        );
        std::fs::write(&path, text).expect("report written");
        path
    };
    let out = Command::new(env!("CARGO_BIN_EXE_bench_compare"))
        .arg("--baseline")
        .arg(path("suite"))
        .arg("--candidate")
        .arg(path("scale"))
        .output()
        .expect("the binary runs");
    std::fs::remove_dir_all(&dir).ok();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("suite-mode") && stderr.contains("scale-mode"),
        "{stderr}"
    );
    assert!(!stderr.contains("PERF REGRESSION"), "{stderr}");
}

/// A report of an earlier schema revision is refused pairwise (exit 1)
/// with the command that regenerates it.
#[test]
fn bench_compare_refuses_a_previous_schema_revision() {
    let dir = std::env::temp_dir().join(format!("cesrm-revision-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = |name: &str, schema: &str| {
        let path = dir.join(name);
        let text = format!(
            r#"{{"schema":"{schema}","workload":{{"mode":"suite"}},
               "totals":{{"runs":1,"events":1000,"wall_s":0.5,"events_per_sec":2000}}}}"#
        );
        std::fs::write(&path, text).expect("report written");
        path
    };
    let old = path("old.json", "cesrm-run/1");
    let current = path("current.json", harness::RUN_SCHEMA);
    let out = Command::new(env!("CARGO_BIN_EXE_bench_compare"))
        .arg("--baseline")
        .arg(&old)
        .arg("--candidate")
        .arg(&current)
        .output()
        .expect("the binary runs");
    std::fs::remove_dir_all(&dir).ok();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("baseline schema is Some(\"cesrm-run/1\")")
            && stderr.contains("reproduce --report <file>"),
        "{stderr}"
    );
    assert!(!stderr.contains("panicked at"), "{stderr}");
}

/// Every scale-mode writer creates the directories it writes into, as the
/// suite-mode writers do.
#[test]
fn scale_outputs_land_in_fresh_nested_directories() {
    let dir = std::env::temp_dir().join(format!("cesrm-scale-out-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let csv = dir.join("a/rows.csv");
    let digest = dir.join("b/c/trail.json");
    let report = dir.join("d/report.json");
    let out = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(["scale", "--rungs", "200", "--no-identity", "--profile"])
        .arg("--csv")
        .arg(&csv)
        .arg("--digest")
        .arg(&digest)
        .arg("--report")
        .arg(&report)
        .output()
        .expect("the binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(std::fs::read_to_string(&csv)
        .expect("csv")
        .starts_with("receivers,"));
    let trail = std::fs::read_to_string(&digest).expect("digest trail");
    assert!(trail.contains(harness::DIGEST_SCHEMA));
    let doc = obs::JsonValue::parse(&std::fs::read_to_string(&report).expect("report"))
        .expect("report is JSON");
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(
        doc.get("schema").unwrap().as_str(),
        Some(harness::RUN_SCHEMA)
    );
    let rung = &doc.get("runs").unwrap().as_arr().unwrap()[0];
    assert!(
        rung.get("profile").is_some(),
        "profiled rung carries its profile"
    );
}
