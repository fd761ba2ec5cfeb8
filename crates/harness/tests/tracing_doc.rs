//! The worked example in `docs/TRACING.md` is real tool output: rerunning
//! the command it quotes yields every one of its lines, in order, inside
//! the CESRM run. (The schema table beside it is checked against the
//! event field walk by an `obs` unit test.)

use std::process::Command;

const DOC: &str = include_str!("../../../docs/TRACING.md");

#[test]
fn tracing_doc_worked_example_is_regenerated_output() {
    let example: Vec<&str> = DOC
        .split("### Worked example")
        .nth(1)
        .and_then(|section| section.split("```json\n").nth(1))
        .and_then(|block| block.split("```").next())
        .expect("TRACING.md has a worked-example JSON block")
        .lines()
        .collect();
    assert!(
        example[0].contains(r#""protocol":"CESRM""#),
        "{}",
        example[0]
    );

    let path = format!(
        "{}/tracing-doc-worked-example.jsonl",
        env!("CARGO_TARGET_TMPDIR")
    );
    let out = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(["--scale", "0.02", "--traces", "1", "--trace", &path])
        .args(["--trace-filter", "seq=254"])
        .output()
        .expect("reproduce runs");
    assert!(out.status.success(), "{out:?}");
    let jsonl = std::fs::read_to_string(&path).expect("reproduce wrote the trace");

    // The run the example opens with, up to the next run's header.
    let lines: Vec<&str> = jsonl.lines().collect();
    let start = lines
        .iter()
        .position(|line| *line == example[0])
        .expect("the example's run is in the output");
    let end = lines[start + 1..]
        .iter()
        .position(|line| line.starts_with(r#"{"run":"#))
        .map_or(lines.len(), |i| start + 1 + i);
    let mut run = lines[start..end].iter();
    for line in &example {
        assert!(
            run.any(|out| out == line),
            "TRACING.md's worked example line is not in the run's output, in order:\n{line}"
        );
    }
}
