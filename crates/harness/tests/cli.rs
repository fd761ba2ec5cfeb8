//! Drives the real `reproduce` binary with malformed command lines: every
//! argument error is a usage message and exit status 2, never a panic.

use std::process::Command;

fn reproduce(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(args)
        .output()
        .expect("the reproduce binary runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
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
        // Zero delay makes every back-off window [0, 0]: it never ends.
        (
            &["--link-delay-ms", "0", "--scale", "0.01", "--traces", "2"],
            "--link-delay-ms requires a positive integer",
        ),
        (&["--frobnicate"], "unknown argument: --frobnicate"),
        (&["scale", "--rungs", "1000,x"], "--rungs requires"),
        (&["scale", "--frobnicate"], "unknown scale argument"),
        (&["scale", "--protocol", "tcp"], "unknown protocol"),
        (
            &["scale-rung", "--receivers", "0"],
            "--receivers requires a count of at least 2",
        ),
        (&["diff", "only-one.json"], "exactly two digest trails"),
        (&["diff", "--frobnicate", "a", "b"], "unknown diff argument"),
    ];
    for (args, expected) in cases {
        let (code, stderr) = reproduce(args);
        assert_eq!(code, Some(2), "{args:?} must exit 2, stderr:\n{stderr}");
        assert!(
            stderr.contains(expected),
            "{args:?}: expected {expected:?} in:\n{stderr}"
        );
        assert!(
            stderr.contains("usage: reproduce"),
            "{args:?} printed no usage:\n{stderr}"
        );
        assert!(
            !stderr.contains("panicked at"),
            "{args:?} panicked:\n{stderr}"
        );
    }
}
