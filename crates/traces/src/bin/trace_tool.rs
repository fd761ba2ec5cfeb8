//! Command-line utility for transmission traces.
//!
//! ```text
//! trace-tool table                         # print the Table-1 specs
//! trace-tool gen 4 [--scale F] [--seed N] [--out FILE]
//! trace-tool stat FILE                     # metadata + locality stats
//! ```
//!
//! `gen` synthesizes a Table-1 trace (1-based index) and writes it in the
//! `cesrm-trace v1` text format; `stat` reads such a file back and prints
//! its loss-locality statistics. A malformed command line prints the
//! problem and the usage summary to stderr and exits 2.

use std::process::ExitCode;

use traces::{table1, LossStats, Trace, TraceSpec};

const USAGE: &str =
    "usage: trace-tool table | gen <1..14> [--scale F] [--seed N] [--out FILE] | stat FILE";

/// Reports a malformed command line: the problem plus the usage summary
/// on stderr, exit status 2.
fn usage_error(problem: &str) -> ExitCode {
    eprintln!("trace-tool: {problem}");
    eprintln!("{USAGE}");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("table") => {
            println!(
                "{:>2} {:<10} {:>5} {:>5} {:>10} {:>8} {:>8}",
                "#", "Name", "Rcvrs", "Depth", "Period(ms)", "Pkts", "Losses"
            );
            for s in table1() {
                println!(
                    "{:>2} {:<10} {:>5} {:>5} {:>10} {:>8} {:>8}",
                    s.number, s.name, s.receivers, s.depth, s.period_ms, s.packets, s.losses
                );
            }
            ExitCode::SUCCESS
        }
        Some("gen") => gen(&args[1..]),
        Some("stat") => stat(&args[1..]),
        Some(other) => usage_error(&format!("unknown command: {other}")),
        None => usage_error("a command is required"),
    }
}

/// Parses `gen`'s arguments into (spec, scale, seed, output path).
fn gen_args(args: &[String]) -> Result<(TraceSpec, f64, u64, Option<String>), String> {
    let number = args
        .first()
        .and_then(|v| v.parse::<usize>().ok())
        .ok_or("gen needs a Table-1 trace number (1..14)")?;
    let spec = table1()
        .into_iter()
        .find(|s| s.number == number)
        .ok_or_else(|| format!("no Table-1 trace number {number}"))?;
    let (mut scale, mut seed, mut out) = (1.0f64, 0u64, None);
    let mut it = args[1..].iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} requires a value"));
        match flag.as_str() {
            "--scale" => {
                let v = value()?;
                scale = v
                    .parse()
                    .ok()
                    .filter(|s| *s > 0.0 && *s <= 1.0)
                    .ok_or_else(|| format!("--scale requires a number in (0, 1], got {v:?}"))?;
            }
            "--seed" => {
                let v = value()?;
                seed = v
                    .parse()
                    .map_err(|_| format!("--seed requires an integer, got {v:?}"))?;
            }
            "--out" => out = Some(value()?.clone()),
            other => return Err(format!("unknown gen option: {other}")),
        }
    }
    Ok((spec, scale, seed, out))
}

fn gen(args: &[String]) -> ExitCode {
    let (spec, scale, seed, out) = match gen_args(args) {
        Ok(parsed) => parsed,
        Err(problem) => return usage_error(&problem),
    };
    let spec = if scale < 1.0 {
        spec.scaled(scale)
    } else {
        spec
    };
    eprintln!(
        "generating {} at scale {scale} ({} packets, target {} losses)",
        spec.name, spec.packets, spec.losses
    );
    let trace = spec.generate(seed);
    let text = trace.to_text();
    match out {
        Some(path) => {
            if let Err(e) = std::fs::write(&path, text) {
                eprintln!("cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("wrote {path}");
        }
        None => print!("{text}"),
    }
    ExitCode::SUCCESS
}

fn stat(args: &[String]) -> ExitCode {
    let Some(path) = args.first() else {
        return usage_error("stat needs a trace file");
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let trace = match Trace::from_text(&text) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot parse {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("{}", trace.meta());
    println!(
        "tree: {} nodes, {} receivers, depth {}",
        trace.tree().len(),
        trace.tree().receivers().len(),
        trace.tree().depth()
    );
    println!("{}", LossStats::from_trace(&trace, None));
    for &r in trace.tree().receivers() {
        println!(
            "  {}: {} losses ({:.2}%)",
            r,
            trace.losses_of(r),
            100.0 * trace.losses_of(r) as f64 / trace.packets() as f64
        );
    }
    ExitCode::SUCCESS
}
