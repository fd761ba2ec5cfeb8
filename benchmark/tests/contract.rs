//! Holds `BENCHMARK.json`, the metric catalogue and what a run actually
//! prints in step, on shrunken (`--smoke`) workloads.

use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;

use harness::{run_scale, ScaleConfig};
use obs::JsonValue;

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("benchmark/ sits in the repository root")
}

fn manifest() -> JsonValue {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json"))
        .expect("BENCHMARK.json is readable");
    JsonValue::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every entry of one manifest section.
fn manifest_metrics(manifest: &JsonValue, section: &str) -> BTreeSet<(String, String)> {
    let field = |e: &JsonValue, key: &str| {
        e.get(key)
            .and_then(JsonValue::as_str)
            .expect(key)
            .to_string()
    };
    manifest
        .get(section)
        .and_then(JsonValue::as_arr)
        .expect(section)
        .iter()
        .map(|e| (field(e, "name"), field(e, "unit")))
        .collect()
}

/// Runs one smoke workload from the repository root and returns the parsed
/// last line of its standard output.
fn smoke_run(workload: &str, trace: &str) -> JsonValue {
    let output = Command::new(env!("CARGO_BIN_EXE_cesrm-benchmark"))
        .current_dir(repo_root())
        .args([
            "--workload",
            workload,
            "--seed",
            "5",
            "--seconds",
            "0.2",
            "--trace",
            trace,
            "--smoke",
        ])
        .output()
        .expect("the benchmark binary starts");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}"
    );
    JsonValue::parse(stdout.lines().last().expect("a result line")).expect("the last line is JSON")
}

/// `(name, unit, value)` of every metric a run printed.
fn printed_metrics(result: &JsonValue) -> Vec<(String, String, f64)> {
    let JsonValue::Obj(members) = result.get("metrics").expect("metrics") else {
        panic!("metrics is not an object");
    };
    members
        .iter()
        .map(|(name, m)| {
            let unit = m.get("unit").and_then(JsonValue::as_str).expect("unit");
            let value = m.get("value").and_then(JsonValue::as_f64).expect("value");
            (name.clone(), unit.to_string(), value)
        })
        .collect()
}

fn is_name(s: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
    s.len() <= 64 && s.starts_with(|c: char| c.is_ascii_alphanumeric()) && s.chars().all(ok)
}

fn is_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn every_workload_prints_exactly_the_metrics_the_manifest_names() {
    let manifest = manifest();
    let workloads: Vec<&str> = manifest
        .get("workloads")
        .and_then(JsonValue::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(JsonValue::as_str)
                .expect("workload name")
        })
        .collect();
    assert_eq!(
        workloads,
        [
            "suite-paper",
            "suite-observed",
            "scale-1e5",
            "scale-1e5-sharded"
        ]
    );

    let mut names = BTreeSet::new();
    for (section, trace) in [("end_to_end", "0"), ("per_layer", "1")] {
        let listed = manifest_metrics(&manifest, section);
        for (name, unit) in &listed {
            assert!(is_name(name), "bad metric name {name:?}");
            assert!(is_unit(unit), "bad unit {unit:?} of {name}");
            assert!(names.insert(name.clone()), "{name} is listed twice");
        }
        for workload in &workloads {
            assert!(is_name(workload), "bad workload name {workload:?}");
            let result = smoke_run(workload, trace);
            let printed = printed_metrics(&result);
            let printed_names: BTreeSet<_> = printed
                .iter()
                .map(|(n, u, _)| (n.clone(), u.clone()))
                .collect();
            assert_eq!(printed_names, listed, "{workload} --trace {trace}");
            assert_eq!(
                printed.len(),
                listed.len(),
                "{workload}: a metric is printed twice"
            );
            assert_eq!(
                result.get("correct"),
                Some(&JsonValue::Bool(true)),
                "{workload}"
            );
            assert_eq!(
                result.get("failed").and_then(JsonValue::as_u64),
                Some(0),
                "{workload}"
            );
            assert!(
                result.get("attempted").and_then(JsonValue::as_u64) >= Some(1),
                "{workload}"
            );
            if trace == "0" {
                let zero = printed.iter().find(|(_, _, value)| *value == 0.0);
                assert_eq!(zero, None, "{workload}: an end-to-end metric reads 0");
            } else {
                let spans = repo_root().join(format!("benchmark/out/trace-{workload}.json"));
                let doc = JsonValue::parse(&std::fs::read_to_string(&spans).expect("span file"))
                    .expect("span file parses");
                assert!(!doc
                    .get("spans")
                    .and_then(JsonValue::as_arr)
                    .expect("spans")
                    .is_empty());
            }
        }
    }
}

#[test]
fn bad_usage_exits_2_without_a_result() {
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &["--seed", "x"],
        &[],
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_cesrm-benchmark"))
            .args(args)
            .output()
            .unwrap();
        assert_eq!(output.status.code(), Some(2), "{args:?}");
        assert!(output.stdout.is_empty(), "{args:?}");
    }
}

/// `scale-1e5` and `scale-1e5-sharded` run in separate processes; that
/// they simulate the same thing is what makes their host times comparable.
#[test]
fn one_and_two_shards_simulate_the_same_rung() {
    let rung = |shards| {
        run_scale(&ScaleConfig {
            shards,
            ..ScaleConfig::rung(10_000)
        })
    };
    let (one, two) = (rung(1), rung(2));
    assert_eq!(two.shards, 2);
    assert_eq!(one.events, two.events);
    assert_eq!(one.records, two.records);
    assert_eq!(one.mean_latency_ns, two.mean_latency_ns);
    assert!(one.records.len() >= 8 && one.unrecovered == 0);
}
