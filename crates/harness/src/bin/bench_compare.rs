//! Compares two `cesrm-bench/2` performance reports (see `docs/METRICS.md`).
//!
//! ```text
//! cargo run -p harness --bin bench_compare -- \
//!     --baseline bench/baseline.json --candidate BENCH_20260806.json \
//!     [--max-wall-pct P] [--max-throughput-pct P] [--warn-only]
//! cargo run -p harness --bin bench_compare -- --history [DIR]
//! ```
//!
//! `--history` reads every committed `BENCH_*.json` in `DIR` (default:
//! the working directory), sorts them oldest → newest by file name (the
//! canonical names embed the UTC date stamp), and prints the performance
//! trajectory — events, wall clock and events/s per report, with the
//! percentage change from the previous report at each step. It reads
//! only `created`, `suite.mode` and four `totals` members, which no
//! revision of the schema has changed, so it lists `cesrm-bench/*`
//! reports of every revision; the pairwise comparison accepts only the
//! current one.
//!
//! Exit status: 0 when within thresholds, 3 on a perf regression (unless
//! `--warn-only`), 1 on an unreadable file or a report of the wrong shape,
//! 2 on bad usage or a file that is not JSON.

use harness::{compare_reports, BenchThresholds};

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
            let doc = obs::JsonValue::parse(&text).ok()?;
            let schema = doc.get("schema").and_then(obs::JsonValue::as_str);
            if !schema.is_some_and(|s| s.starts_with("cesrm-bench/")) {
                eprintln!("skipping {name}: not a cesrm-bench report");
                return None;
            }
            let totals = doc.get("totals")?;
            Some(HistoryRow {
                file: name.clone(),
                created: doc
                    .get("created")
                    .and_then(obs::JsonValue::as_str)
                    .unwrap_or("-")
                    .to_string(),
                mode: doc
                    .get("suite")
                    .and_then(|s| s.get("mode"))
                    .and_then(obs::JsonValue::as_str)
                    .unwrap_or("suite")
                    .to_string(),
                runs: totals.get("runs").and_then(obs::JsonValue::as_u64)?,
                events: totals.get("events").and_then(obs::JsonValue::as_u64)?,
                wall_s: totals.get("wall_s").and_then(obs::JsonValue::as_f64)?,
                events_per_sec: totals
                    .get("events_per_sec")
                    .and_then(obs::JsonValue::as_f64)?,
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
                format!("{:+.1}%", 100.0 * (new - old) / old)
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
    let mut thresholds = BenchThresholds::default();
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
            "--max-wall-pct" => thresholds.max_wall_pct = pct(value("a percentage")),
            "--max-throughput-pct" => thresholds.max_throughput_pct = pct(value("a percentage")),
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
        obs::JsonValue::parse(&text)
            .unwrap_or_else(|e| usage_error(&format!("{} is not valid JSON: {e}", path.display())))
    };
    let verdict =
        compare_reports(&read(&baseline), &read(&candidate), &thresholds).unwrap_or_else(|e| {
            eprintln!("comparison failed: {e}");
            std::process::exit(1);
        });
    for line in &verdict.lines {
        println!("{line}");
    }
    if verdict.is_regression() {
        for r in &verdict.regressions {
            eprintln!("PERF REGRESSION: {r}");
        }
        if warn_only {
            eprintln!("(--warn-only set; not failing)");
        } else {
            std::process::exit(3);
        }
    } else {
        println!("no perf regression");
    }
}
