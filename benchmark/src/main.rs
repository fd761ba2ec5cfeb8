//! Benchmark of record for the CESRM reproduction (see `README.md`).
//!
//! ```text
//! cesrm-benchmark --workload NAME --seed N --seconds S --trace 0|1 [--smoke] [--out FILE]
//! cesrm-benchmark compare A.jsonl B.jsonl
//! ```
//!
//! A run prints every metric by name with its unit, checks the program's
//! outputs, and ends with one JSON line `{"correct", "attempted", "failed",
//! "metrics"}`. `--trace 0` measures the end-to-end metrics with tracing
//! off; `--trace 1` is the separate traced run that yields the per-layer
//! metrics and writes `benchmark/out/trace-<workload>.json`. `--out`
//! appends the run as one JSON line to a result file for `compare`.
//!
//! Exit status: 0 on a correct run (or a comparison within bounds), 1 on a
//! failed output check (or a comparison out of bounds), 2 on bad usage or
//! an I/O error.

mod compare;
mod layers;
mod metrics;
mod spans;
mod stats;
mod workloads;

use std::fmt::Write as _;
use std::io::Write as _;
use std::process::{Command, ExitCode};
use std::time::Instant;

use layers::Values;
use stats::Quartiles;
use workloads::{generate_inputs, timed_pass, variant_seed, Summary, Tally, Workload, VARIANTS};

/// The benchmark's one wall-clock read; every time it reports goes through
/// here.
fn now() -> Instant {
    // simlint: allow(D002, reason = "the benchmark measures host time by design; it runs outside every simulation and feeds nothing back into one")
    Instant::now()
}

/// Cold-start set-ups measured in child processes, besides this process's
/// own: `setup_s` is the median of all of them.
const SETUP_PROBES: usize = 2;

const USAGE: &str =
    "usage: cesrm-benchmark --workload NAME --seed N --seconds S --trace 0|1 [--smoke] [--out FILE]
       cesrm-benchmark compare A.jsonl B.jsonl
workloads: suite-paper, suite-observed, scale-1e5, scale-1e5-sharded";

struct RunArgs {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: Option<String>,
    /// Internal: measure one cold set-up, print its seconds, exit.
    setup_probe: bool,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let (mut name, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut smoke, mut setup_probe, mut out) = (false, false, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => name = Some(value()?.clone()),
            "--seed" => {
                let v = value()?;
                seed = Some(
                    v.parse::<u64>()
                        .map_err(|_| format!("--seed wants a whole number, got {v:?}"))?,
                );
            }
            "--seconds" => {
                let v = value()?;
                let s = v.parse::<f64>().ok().filter(|s| s.is_finite() && *s > 0.0);
                seconds =
                    Some(s.ok_or_else(|| format!("--seconds wants a positive number, got {v:?}"))?);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace wants 0 or 1, got {v:?}")),
                });
            }
            "--out" => out = Some(value()?.clone()),
            "--smoke" => smoke = true,
            "--setup-probe" => setup_probe = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let name = name.ok_or("--workload is required")?;
    let workload =
        workloads::workload(&name, smoke).ok_or_else(|| format!("unknown workload {name:?}"))?;
    Ok(RunArgs {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        smoke,
        out,
        setup_probe,
    })
}

/// Set-up as a user pays it: make the inputs from the seed, then run the
/// first pass on a cold process. First-touch page faults and lazy
/// initialisation land here and not in any timed pass.
fn setup(wl: &Workload, seed: u64) -> (f64, workloads::Inputs, Summary) {
    let started = now();
    let inputs = generate_inputs(wl, seed);
    let (_, first) = timed_pass(&inputs);
    (started.elapsed().as_secs_f64(), inputs, first)
}

/// Runs one cold set-up in a child process and returns its seconds.
fn probe_setup(args: &RunArgs) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "--workload",
        args.workload.name,
        "--seed",
        &args.seed.to_string(),
    ]);
    cmd.args(["--seconds", "1", "--trace", "0", "--setup-probe"]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd
        .output()
        .map_err(|e| format!("cannot start set-up probe: {e}"))?;
    let text = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        return Err(format!("set-up probe failed with {}", output.status));
    }
    text.trim()
        .parse()
        .map_err(|_| format!("set-up probe printed {text:?}, not seconds"))
}

/// Restarts the kernel's peak-RSS account of this process, so that the
/// next [`peak_rss_mb`] reads the peak since now. Where the kernel refuses,
/// readings stay the peak since process start, which is still a peak.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

struct Outcome {
    values: Values,
    tally: Tally,
    /// Human-readable context printed above the metrics.
    notes: Vec<String>,
}

fn quartile_note(name: &str, q: &Quartiles) -> String {
    format!(
        "{name}: median {:.4} s, quartiles {:.4}-{:.4} s, n {}",
        q.median, q.q1, q.q3, q.n
    )
}

fn run_end_to_end(args: &RunArgs) -> Result<Outcome, String> {
    let wl = &args.workload;
    let mut setups = Vec::new();
    for _ in 0..SETUP_PROBES {
        setups.push(probe_setup(args)?);
    }
    let (own_setup, first_inputs, first) = setup(wl, args.seed);
    setups.push(own_setup);
    let mut tally = Tally::new(wl);
    tally.add(0, "warm-up", &first);

    // Passes rotate through the input variants, every variant at least
    // once, so the median wall is taken over different inputs and every
    // pass after a variant's first re-checks that equal inputs give equal
    // results.
    let mut inputs = vec![first_inputs];
    let (mut walls, mut peaks) = (Vec::new(), Vec::new());
    let started = now();
    while walls.len() < VARIANTS || started.elapsed().as_secs_f64() < args.seconds {
        let variant = walls.len() % VARIANTS;
        if variant == inputs.len() {
            inputs.push(generate_inputs(wl, variant_seed(args.seed, variant)));
        }
        reset_peak_rss();
        let (wall, summary) = timed_pass(&inputs[variant]);
        peaks.push(peak_rss_mb()?);
        let label = format!("pass {} (variant {variant})", walls.len() + 1);
        tally.add(variant, &label, &summary);
        walls.push(wall);
    }

    let setup_q = Quartiles::of(&setups).expect("at least one set-up ran");
    let wall_q = Quartiles::of(&walls).expect("at least one pass ran");
    let over_variants = |f: fn(&Summary) -> f64| {
        tally.references().iter().map(f).sum::<f64>() / tally.references().len() as f64
    };
    let mut values = Values::zeroed(metrics::END_TO_END);
    values.set("setup_s", setup_q.median);
    values.set("pass_wall_s", wall_q.median);
    values.set(
        "rx_pkts_per_s",
        over_variants(|s| s.rx_pkts as f64) / wall_q.median,
    );
    values.set("peak_rss_mb", stats::median(&peaks));
    values.set("recovery_rtt", over_variants(|s| s.cesrm.recovery_rtt));
    let mut notes = vec![
        quartile_note("setup_s", &setup_q),
        quartile_note("pass_wall_s", &wall_q),
    ];
    let listed: Vec<String> = walls.iter().map(|w| format!("{w:.3}")).collect();
    notes.push(format!("pass walls in order (s): {}", listed.join(" ")));
    notes.push(format!(
        "mean pass over {VARIANTS} input variants: {:.0} receiver-packets, {:.0} events, {:.0} losses detected",
        over_variants(|s| s.rx_pkts as f64),
        over_variants(|s| s.events() as f64),
        over_variants(|s| s.losses() as f64)
    ));
    if let workloads::Kind::Suite { .. } = wl.kind {
        let (lo, hi) = workloads::PAPER_REDUCTION_BAND_PCT;
        notes.push(format!(
            "latency reduction vs SRM on seed {}: {:.2} % (paper: about 50 %, band {lo}-{hi} %; EXPERIMENTS.md measures 48.6 %)",
            args.seed,
            workloads::latency_reduction_pct(&first)
        ));
    }
    Ok(Outcome {
        values,
        tally,
        notes,
    })
}

fn run_traced(args: &RunArgs) -> Result<Outcome, String> {
    let traced = layers::run(&args.workload, args.seed, args.seconds)
        .map_err(|e| format!("traced run: {e}"))?;
    let path = format!("benchmark/out/trace-{}.json", args.workload.name);
    let doc = spans::to_json(args.workload.name, args.seed, traced.tracer.spans());
    std::fs::create_dir_all("benchmark/out")
        .and_then(|()| std::fs::write(&path, doc))
        .map_err(|e| format!("{path}: {e}"))?;
    let notes = vec![format!(
        "{} spans written to {path}",
        traced.tracer.spans().len()
    )];
    Ok(Outcome {
        values: traced.values,
        tally: traced.tally,
        notes,
    })
}

/// The contract's result object. Values are printed with all their digits.
fn result_json(outcome: &Outcome) -> String {
    let mut out = format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
        outcome.tally.correct(),
        outcome.tally.attempted,
        outcome.tally.failed
    );
    for (i, &(name, value)) in outcome.values.entries().iter().enumerate() {
        let unit = metrics::def(name)
            .expect("values come from the catalogue")
            .unit;
        let sep = if i > 0 { "," } else { "" };
        let _ = write!(
            out,
            "{sep}\"{name}\":{{\"value\":{value:?},\"unit\":\"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

fn run(args: &RunArgs) -> Result<bool, String> {
    if args.setup_probe {
        println!("{:?}", setup(&args.workload, args.seed).0);
        return Ok(true);
    }
    let outcome = if args.trace {
        run_traced(args)?
    } else {
        run_end_to_end(args)?
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "workload {} seed {} trace {} nproc {nproc}",
        args.workload.name,
        args.seed,
        u8::from(args.trace)
    );
    for note in &outcome.notes {
        println!("{note}");
    }
    for &(name, value) in outcome.values.entries() {
        let unit = metrics::def(name)
            .expect("values come from the catalogue")
            .unit;
        println!("{name:<40} {value:>16.6} {unit}");
    }
    println!(
        "operations (losses detected) attempted {} failed {} ({:.4} %)",
        outcome.tally.attempted,
        outcome.tally.failed,
        100.0 * stats::ratio(outcome.tally.failed as f64, outcome.tally.attempted as f64)
    );
    for failure in &outcome.tally.failures {
        println!("CHECK FAILED: {failure}");
    }
    let json = result_json(&outcome);
    if let Some(path) = &args.out {
        let line = format!(
            "{{\"workload\":\"{}\",\"seed\":{},\"trace\":{},\"result\":{json}}}\n",
            args.workload.name,
            args.seed,
            u8::from(args.trace)
        );
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| f.write_all(line.as_bytes()))
            .map_err(|e| format!("{path}: {e}"))?;
    }
    println!("{json}");
    Ok(outcome.tally.correct())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let verdict = match args.first().map(String::as_str) {
        Some("compare") => match &args[1..] {
            [a, b] => compare::run(a, b),
            _ => Err("compare takes exactly two result files".to_string()),
        },
        _ => parse_run_args(&args).and_then(|run_args| run(&run_args)),
    };
    match verdict {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("error: {message}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
