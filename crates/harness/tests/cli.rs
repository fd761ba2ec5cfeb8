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

/// `--history` reads members no schema revision changed, so it lists a
/// `/1` report next to a current one; anything else is skipped by name.
#[test]
fn bench_history_lists_every_cesrm_bench_revision() {
    let dir = std::env::temp_dir().join(format!("cesrm-history-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let report = |schema: &str, created: &str| {
        format!(
            r#"{{"schema":"{schema}","created":"{created}","suite":{{}},
               "totals":{{"runs":2,"events":1000,"wall_s":0.5,"events_per_sec":2000}}}}"#
        )
    };
    for (name, schema, created) in [
        ("BENCH_20260101.json", "cesrm-bench/1", "2026-01-01"),
        ("BENCH_20260102.json", harness::BENCH_SCHEMA, "2026-01-02"),
        ("BENCH_20260103.json", "cesrm-prof/2", "2026-01-03"),
    ] {
        std::fs::write(dir.join(name), report(schema, created)).expect("report written");
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
    assert!(stdout.contains("2 reports"), "{stdout}");
    assert!(
        stdout.contains("BENCH_20260101.json") && stdout.contains("BENCH_20260102.json"),
        "{stdout}"
    );
    assert!(stderr.contains("skipping BENCH_20260103.json"), "{stderr}");
}
