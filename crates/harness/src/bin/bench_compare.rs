//! Compares two `cesrm-run/2` reports (see `docs/METRICS.md`).
//!
//! ```text
//! cargo run -p harness --bin bench_compare -- \
//!     --baseline bench/baseline.json --candidate BENCH_20261015.json \
//!     [--max-wall-pct P] [--max-throughput-pct P] [--warn-only]
//! cargo run -p harness --bin bench_compare -- --history [DIR]
//! ```
//!
//! The pairwise comparison reads `totals.wall_s` and
//! `totals.events_per_sec` of two reports of the same workload mode (a
//! suite run against a scale sweep compares unlike workloads and is
//! refused). Two scale reports must also have run the same rungs on the
//! same shard counts: events/s at another `(receivers, shards)` is another
//! workload.
//!
//! `--history` reads every committed `BENCH_*.json` in `DIR` (default:
//! the working directory), sorts them oldest → newest by file name (the
//! canonical names embed the UTC date stamp), and prints the performance
//! trajectory — events, wall clock and events/s per report, with the
//! percentage change from the previous report of the same mode. It reads
//! only `created`, the workload mode (`workload.mode`, or `suite.mode` in
//! the older `cesrm-bench/*` reports) and four `totals` members, which no
//! revision has changed, so it lists `cesrm-bench/*` and `cesrm-run/*`
//! reports alike; the pairwise comparison accepts only the current schema
//! and names the command that regenerates an older report.
//!
//! Exit status: 0 when within thresholds, 3 on a perf regression (unless
//! `--warn-only`), 1 on an unreadable file or a report of the wrong shape,
//! 2 on bad usage, a file that is not JSON, or two scale reports whose runs
//! differ in `(receivers, shards)`.

use obs::JsonValue;

/// The outcome of one baseline comparison: the report lines (always
/// produced) and one message per threshold breach.
#[derive(Debug)]
struct Comparison {
    lines: Vec<String>,
    regressions: Vec<String>,
}

/// The workload mode of a report: `workload.mode`, or `suite.mode` in
/// `cesrm-bench/*` reports, which wrote it for scale sweeps only.
fn mode(doc: &JsonValue) -> &str {
    doc.get("workload")
        .or_else(|| doc.get("suite"))
        .and_then(|w| w.get("mode"))
        .and_then(JsonValue::as_str)
        .unwrap_or("suite")
}

fn totals_field(doc: &JsonValue, which: &str, field: &str) -> Result<f64, String> {
    doc.get("totals")
        .and_then(|t| t.get(field))
        .and_then(JsonValue::as_f64)
        .ok_or_else(|| format!("{which} report lacks totals.{field}"))
}

/// Percentage change from `base` to `cand` (0 without a baseline value).
fn pct_change(base: f64, cand: f64) -> f64 {
    if base > 0.0 {
        (cand - base) / base * 100.0
    } else {
        0.0
    }
}

/// Diffs `cand` against `base`, flagging a wall-clock increase beyond
/// `max_wall_pct` and an events/s drop beyond `max_throughput_pct`
/// (percent). Errors on a schema other than [`harness::RUN_SCHEMA`], on two
/// different workload modes, and on a missing totals member.
fn compare_reports(
    base: &JsonValue,
    cand: &JsonValue,
    max_wall_pct: f64,
    max_throughput_pct: f64,
) -> Result<Comparison, String> {
    for (doc, which) in [(base, "baseline"), (cand, "candidate")] {
        let schema = doc.get("schema").and_then(JsonValue::as_str);
        if schema != Some(harness::RUN_SCHEMA) {
            let command = if mode(doc) == "scale" {
                "reproduce scale --report <file>"
            } else {
                "reproduce --report <file>"
            };
            return Err(format!(
                "{which} schema is {schema:?}, expected {:?} — regenerate it with the current \
                 binary ({command})",
                harness::RUN_SCHEMA
            ));
        }
    }
    if mode(base) != mode(cand) {
        return Err(format!(
            "the baseline is a {}-mode report but the candidate is a {}-mode report: they \
             measure different workloads",
            mode(base),
            mode(cand)
        ));
    }
    let field = |name: &str| -> Result<(f64, f64), String> {
        Ok((
            totals_field(base, "baseline", name)?,
            totals_field(cand, "candidate", name)?,
        ))
    };
    let mut lines = Vec::new();
    let mut regressions = Vec::new();

    let (base_events, cand_events) = field("events")?;
    if base_events != cand_events {
        lines.push(format!(
            "note: deterministic event totals differ (baseline {base_events}, candidate \
             {cand_events}) — the two reports likely ran different configurations, so the \
             wall-clock comparison below is between unlike workloads"
        ));
    }

    let (base_wall, cand_wall) = field("wall_s")?;
    let wall_pct = pct_change(base_wall, cand_wall);
    lines.push(format!(
        "wall-clock: baseline {base_wall:.3}s, candidate {cand_wall:.3}s ({wall_pct:+.1}%, \
         threshold +{max_wall_pct:.1}%)"
    ));
    if wall_pct > max_wall_pct {
        regressions.push(format!(
            "wall-clock regressed {wall_pct:+.1}% (limit +{max_wall_pct:.1}%)"
        ));
    }

    let (base_eps, cand_eps) = field("events_per_sec")?;
    let eps_pct = pct_change(base_eps, cand_eps);
    lines.push(format!(
        "throughput: baseline {base_eps:.0} events/s, candidate {cand_eps:.0} events/s \
         ({eps_pct:+.1}%, threshold -{max_throughput_pct:.1}%)"
    ));
    if eps_pct < -max_throughput_pct {
        regressions.push(format!(
            "throughput regressed {eps_pct:+.1}% (limit -{max_throughput_pct:.1}%)"
        ));
    }

    Ok(Comparison { lines, regressions })
}

/// The `(receivers, shards)` of each run of a report, in order, as text.
fn run_shapes(doc: &JsonValue) -> Vec<String> {
    let field = |run: &JsonValue, name: &str| {
        run.get(name)
            .and_then(JsonValue::as_u64)
            .map_or("?".to_string(), |n| n.to_string())
    };
    doc.get("runs")
        .and_then(JsonValue::as_arr)
        .unwrap_or_default()
        .iter()
        .map(|run| format!("({}, {})", field(run, "receivers"), field(run, "shards")))
        .collect()
}

/// Refuses two scale reports whose runs differ in `(receivers, shards)`,
/// naming both sides; any other pair passes.
fn same_scale_runs(base: &JsonValue, cand: &JsonValue) -> Result<(), String> {
    if mode(base) != "scale" || mode(cand) != "scale" {
        return Ok(());
    }
    let (b, c) = (run_shapes(base), run_shapes(cand));
    if b == c {
        return Ok(());
    }
    Err(format!(
        "the baseline ran (receivers, shards) [{}] but the candidate ran [{}]: rerun the \
         candidate with the baseline's --rungs and --shards, or regenerate the baseline",
        b.join(", "),
        c.join(", ")
    ))
}

/// One row of the `--history` trajectory, parsed from a report's
/// `totals` section.
struct HistoryRow {
    file: String,
    created: String,
    mode: String,
    runs: u64,
    events: u64,
    wall_s: f64,
    events_per_sec: f64,
}

/// `--history`: print the events/s and wall-clock trajectory over every
/// committed `BENCH_*.json`, oldest first.
fn history_main(dir: &std::path::Path) {
    let mut names: Vec<String> = match std::fs::read_dir(dir) {
        Ok(entries) => entries
            .filter_map(|e| e.ok())
            .filter_map(|e| e.file_name().into_string().ok())
            .filter(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
            .collect(),
        Err(e) => {
            eprintln!("failed to read {}: {e}", dir.display());
            std::process::exit(1);
        }
    };
    // The canonical names are BENCH_<YYYYMMDD>.json / BENCH_SCALE_<...>,
    // so lexicographic order within a prefix is chronological order.
    names.sort();
    if names.is_empty() {
        eprintln!("no BENCH_*.json reports in {}", dir.display());
        std::process::exit(1);
    }
    let rows: Vec<HistoryRow> = names
        .iter()
        .filter_map(|name| {
            let text = std::fs::read_to_string(dir.join(name)).ok()?;
            let doc = JsonValue::parse(&text).ok()?;
            let schema = doc.get("schema").and_then(JsonValue::as_str);
            if !schema.is_some_and(|s| s.starts_with("cesrm-bench/") || s.starts_with("cesrm-run/"))
            {
                eprintln!("skipping {name}: not a cesrm-run or cesrm-bench report");
                return None;
            }
            let totals = doc.get("totals")?;
            Some(HistoryRow {
                file: name.clone(),
                created: doc
                    .get("created")
                    .and_then(JsonValue::as_str)
                    .unwrap_or("-")
                    .to_string(),
                mode: mode(&doc).to_string(),
                runs: totals.get("runs").and_then(JsonValue::as_u64)?,
                events: totals.get("events").and_then(JsonValue::as_u64)?,
                wall_s: totals.get("wall_s").and_then(JsonValue::as_f64)?,
                events_per_sec: totals.get("events_per_sec").and_then(JsonValue::as_f64)?,
            })
        })
        .collect();
    if rows.is_empty() {
        eprintln!("no parsable bench reports in {}", dir.display());
        std::process::exit(1);
    }
    println!("Bench history ({} reports, oldest first):", rows.len());
    println!(
        "{:<24} {:>10} {:>6} {:>5} {:>12} {:>9} {:>8} {:>12} {:>8}",
        "file", "created", "mode", "runs", "events", "wall s", "Δwall", "events/s", "Δev/s"
    );
    // Deltas compare consecutive reports of the same mode: a suite run
    // and a scale sweep measure different workloads.
    let mut prev: std::collections::BTreeMap<String, (f64, f64)> =
        std::collections::BTreeMap::new();
    for r in &rows {
        let pct = |old: f64, new: f64| -> String {
            if old > 0.0 {
                format!("{:+.1}%", pct_change(old, new))
            } else {
                "-".to_string()
            }
        };
        let (d_wall, d_eps) = match prev.get(&r.mode) {
            Some(&(wall, eps)) => (pct(wall, r.wall_s), pct(eps, r.events_per_sec)),
            None => ("-".to_string(), "-".to_string()),
        };
        println!(
            "{:<24} {:>10} {:>6} {:>5} {:>12} {:>9.2} {:>8} {:>12.0} {:>8}",
            r.file, r.created, r.mode, r.runs, r.events, r.wall_s, d_wall, r.events_per_sec, d_eps
        );
        prev.insert(r.mode.clone(), (r.wall_s, r.events_per_sec));
    }
}

const USAGE: &str = "\
usage: bench_compare --baseline FILE --candidate FILE [--max-wall-pct P]
                     [--max-throughput-pct P] [--warn-only]
       bench_compare --history [DIR]";

/// Reports a malformed command line and exits 2 (`reproduce`'s contract:
/// the problem plus the usage summary on stderr, never a panic).
fn usage_error(msg: &str) -> ! {
    eprintln!("bench_compare: {msg}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

fn main() {
    let mut baseline: Option<std::path::PathBuf> = None;
    let mut candidate: Option<std::path::PathBuf> = None;
    // Generous defaults (+50 % wall, −30 % events/s): wall-clock on shared
    // CI runners is noisy, and the gate should flag real regressions, not
    // scheduler jitter.
    let mut max_wall_pct = 50.0;
    let mut max_throughput_pct = 30.0;
    let mut warn_only = false;
    let mut history = false;
    let mut history_dir = std::path::PathBuf::from(".");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |what: &str| {
            args.next()
                .unwrap_or_else(|| usage_error(&format!("{arg} requires {what}")))
        };
        let pct = |v: String| -> f64 {
            v.parse()
                .unwrap_or_else(|_| usage_error(&format!("{arg} requires a percentage, got {v:?}")))
        };
        match arg.as_str() {
            "--history" => history = true,
            other if history && !other.starts_with("--") => {
                history_dir = std::path::PathBuf::from(other);
            }
            "--baseline" => baseline = Some(value("a file").into()),
            "--candidate" => candidate = Some(value("a file").into()),
            "--max-wall-pct" => max_wall_pct = pct(value("a percentage")),
            "--max-throughput-pct" => max_throughput_pct = pct(value("a percentage")),
            "--warn-only" => warn_only = true,
            other => usage_error(&format!("unknown argument: {other}")),
        }
    }
    if history {
        if baseline.is_some() || candidate.is_some() {
            usage_error("--history takes a directory, not --baseline/--candidate");
        }
        return history_main(&history_dir);
    }
    let (Some(baseline), Some(candidate)) = (baseline, candidate) else {
        usage_error("comparing needs both --baseline and --candidate");
    };
    let read = |path: &std::path::Path| {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("failed to read {}: {e}", path.display());
            std::process::exit(1);
        });
        JsonValue::parse(&text)
            .unwrap_or_else(|e| usage_error(&format!("{} is not valid JSON: {e}", path.display())))
    };
    let (base, cand) = (read(&baseline), read(&candidate));
    let verdict =
        compare_reports(&base, &cand, max_wall_pct, max_throughput_pct).unwrap_or_else(|e| {
            eprintln!("comparison failed: {e}");
            std::process::exit(1);
        });
    if let Err(e) = same_scale_runs(&base, &cand) {
        eprintln!("bench_compare: {e}");
        std::process::exit(2);
    }
    for line in &verdict.lines {
        println!("{line}");
    }
    if verdict.regressions.is_empty() {
        println!("no perf regression");
        return;
    }
    for r in &verdict.regressions {
        eprintln!("PERF REGRESSION: {r}");
    }
    if warn_only {
        eprintln!("(--warn-only set; not failing)");
    } else {
        std::process::exit(3);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(mode: &str, wall_s: f64, events_per_sec: f64) -> JsonValue {
        JsonValue::parse(&format!(
            r#"{{"schema":"{}","workload":{{"mode":"{mode}"}},
               "totals":{{"runs":2,"events":1000,"wall_s":{wall_s},"events_per_sec":{events_per_sec}}}}}"#,
            harness::RUN_SCHEMA
        ))
        .unwrap()
    }

    #[test]
    fn comparison_flags_only_genuine_regressions() {
        let base = report("suite", 1.0, 1000.0);
        let same = compare_reports(&base, &base, 50.0, 30.0).unwrap();
        assert!(same.regressions.is_empty(), "{:?}", same.regressions);
        // Ten times the wall-clock, a tenth of the throughput.
        let slow = report("suite", 10.0, 100.0);
        let verdict = compare_reports(&base, &slow, 50.0, 30.0).unwrap();
        assert_eq!(verdict.regressions.len(), 2, "{:?}", verdict.regressions);
    }

    #[test]
    fn comparison_refuses_unlike_workload_modes() {
        let suite = report("suite", 1.0, 1000.0);
        let scale = report("scale", 1.0, 1000.0);
        let err = compare_reports(&suite, &scale, 50.0, 30.0).unwrap_err();
        assert!(
            err.contains("suite-mode") && err.contains("scale-mode"),
            "{err}"
        );
    }

    #[test]
    fn comparison_refuses_other_schemas_and_missing_totals() {
        let old = JsonValue::parse(r#"{"schema":"cesrm-bench/2","totals":{}}"#).unwrap();
        let current = report("suite", 1.0, 1000.0);
        let err = compare_reports(&old, &current, 50.0, 30.0).unwrap_err();
        assert!(
            err.contains("baseline schema") && err.contains("(reproduce --report <file>)"),
            "{err}"
        );
        let old_scale =
            JsonValue::parse(r#"{"schema":"cesrm-run/1","workload":{"mode":"scale"},"totals":{}}"#)
                .unwrap();
        let err = compare_reports(&report("scale", 1.0, 1.0), &old_scale, 50.0, 30.0).unwrap_err();
        assert!(
            err.contains("candidate schema") && err.contains("reproduce scale --report <file>"),
            "{err}"
        );
        let mut partial = current.clone();
        let Some(JsonValue::Obj(totals)) = partial.get_mut("totals") else {
            panic!("totals is an object");
        };
        totals.retain(|(k, _)| k != "events_per_sec");
        let err = compare_reports(&current, &partial, 50.0, 30.0).unwrap_err();
        assert!(
            err.contains("candidate report lacks totals.events_per_sec"),
            "{err}"
        );
    }

    /// A scale report of one run per `(receivers, shards)` pair.
    fn scale_report(runs: &[(u64, u64)]) -> JsonValue {
        let runs: Vec<String> = runs
            .iter()
            .map(|(r, s)| format!(r#"{{"receivers":{r},"shards":{s}}}"#))
            .collect();
        let mut doc = report("scale", 1.0, 1000.0);
        let JsonValue::Obj(members) = &mut doc else {
            unreachable!("a report is an object")
        };
        members.push((
            "runs".into(),
            JsonValue::parse(&format!("[{}]", runs.join(","))).unwrap(),
        ));
        doc
    }

    #[test]
    fn scale_reports_of_other_rungs_or_shard_counts_are_refused() {
        let base = scale_report(&[(100_000, 1)]);
        assert_eq!(
            same_scale_runs(&base, &scale_report(&[(100_000, 1)])),
            Ok(())
        );
        let err = same_scale_runs(&base, &scale_report(&[(100_000, 2)])).unwrap_err();
        assert!(
            err.contains("baseline ran (receivers, shards) [(100000, 1)]")
                && err.contains("candidate ran [(100000, 2)]"),
            "{err}"
        );
        let err = same_scale_runs(&base, &scale_report(&[(1_000, 1), (100_000, 1)])).unwrap_err();
        assert!(err.contains("[(1000, 1), (100000, 1)]"), "{err}");
        // Suite reports carry no shard counts and are not checked here.
        let suite = report("suite", 1.0, 1000.0);
        assert_eq!(same_scale_runs(&suite, &suite), Ok(()));
    }

    #[test]
    fn mode_falls_back_to_the_legacy_suite_member() {
        let legacy = JsonValue::parse(r#"{"suite":{"mode":"scale"}}"#).unwrap();
        assert_eq!(mode(&legacy), "scale");
        assert_eq!(mode(&JsonValue::parse(r#"{"suite":{}}"#).unwrap()), "suite");
        assert_eq!(mode(&report("scale", 1.0, 1.0)), "scale");
    }
}
