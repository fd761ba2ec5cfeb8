//! Drives the real `trace_tool` binary with malformed command lines:
//! every one is a usage message and exit status 2 with nothing on stdout —
//! never a panic, and never a silently full-scale trace.

use std::process::Command;

#[test]
fn argument_errors_exit_2_with_usage_and_write_nothing() {
    let in_range = "--scale requires a number in (0, 1]";
    let cases: &[(&[&str], &str)] = &[
        (&["gen", "4", "--scale", "0"], in_range),
        (&["gen", "4", "--scale", "-3"], in_range),
        (&["gen", "4", "--scale", "5"], in_range),
        (&["gen", "4", "--scale", "abc"], in_range),
        (&["gen", "4", "--seed", "x"], "--seed requires an integer"),
        (&["gen", "4", "--scale"], "--scale requires a value"),
        (&["gen", "4", "--seed"], "--seed requires a value"),
        (&["gen", "4", "--out"], "--out requires a value"),
        (&["gen", "4", "--frobnicate"], "unknown gen option"),
        (&["gen", "15"], "no Table-1 trace number 15"),
        (&["gen"], "gen needs a Table-1 trace number"),
        (&["stat"], "stat needs a trace file"),
        (&["frobnicate"], "unknown command"),
    ];
    for (args, expected) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_trace_tool"))
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
            stderr.contains("usage: trace-tool"),
            "{args:?} printed no usage:\n{stderr}"
        );
        assert!(
            !stderr.contains("panicked at"),
            "{args:?} panicked:\n{stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?} wrote a trace");
    }
}

#[test]
fn gen_honours_scale_and_seed() {
    let gen = |args: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_trace_tool"))
            .args(["gen", "4"])
            .args(args)
            .output()
            .expect("the binary runs");
        assert_eq!(out.status.code(), Some(0), "{args:?}");
        String::from_utf8(out.stdout).expect("utf-8 trace text")
    };
    let small = gen(&["--scale", "0.01", "--seed", "3"]);
    let parsed = traces::Trace::from_text(&small).expect("a cesrm-trace v1 document");
    assert_eq!(parsed.packets(), 200, "scale 0.01 floors at 200 packets");
    assert_ne!(small, gen(&["--scale", "0.01", "--seed", "4"]));
}
