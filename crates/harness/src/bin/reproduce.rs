//! Regenerates every table and figure of the CESRM paper (DSN 2004).
//!
//! ```text
//! cargo run --release -p harness --bin reproduce -- [--scale F] [--seed N]
//!     [--traces 1,2,3] [--link-delay-ms MS] [--lossy-recovery]
//!     [--jobs N] [--timings] [--seeds N] [--csv-dir DIR]
//!     [--trace FILE] [--trace-filter seq=N|receiver=N|ev=NAME]
//!     [--trace-slowest N] [--digest FILE]
//!     [--report FILE|-] [--profile] [--health]
//!     [--overhead monitor,digest] [--overhead-max-pct P]
//! ```
//!
//! A malformed or unknown argument, or a flag that would have nothing to
//! act on, prints the problem plus the usage summary to stderr and exits
//! with status 2. Every file argument may name a directory that does not
//! exist yet.
//!
//! At `--scale 1.0` (default) the full Table-1 packet counts are reenacted;
//! use `--scale 0.1` for a quick pass with the same loss rates. The 28
//! (trace × protocol) reenactments fan out across `--jobs` worker threads
//! (default: `CESRM_JOBS` or all cores; results are identical at any
//! setting) and `--timings` prints the per-run wall clock and the observed
//! speedup over a serial run.
//!
//! `--trace FILE` additionally captures every run's structured recovery
//! events (see `docs/TRACING.md`), writes them as JSONL to `FILE`
//! (optionally narrowed by `--trace-filter`), and prints the provenance
//! coverage plus the `--trace-slowest` (default 10) slowest recoveries.
//! Both refinements need `--trace`.
//!
//! `--report FILE` counts every run's events by kind (the `obs` tally)
//! and writes the one `cesrm-run/2` JSON document of this
//! invocation (see `docs/METRICS.md`). Pass `-` for `FILE` to use the
//! canonical `BENCH_<YYYYMMDD>.json` name in the working directory. The
//! `bench_compare` binary diffs two such reports against thresholds.
//!
//! `--profile` adds the suite's merged engine telemetry (exact event,
//! queue, arena and packet counts) to the report as its `profile` member
//! (see `docs/PROFILING.md`); without `--report` nothing would be written,
//! so that is a usage error.
//!
//! `--health` runs every reenactment under the online invariant monitors
//! (see `docs/MONITORS.md`), prints the human summary, adds the verdict to
//! the report as its `health` member, and exits with status 4 if any
//! invariant was violated.
//!
//! `--overhead LAYER[,LAYER]` gates what an observation layer (`monitor`,
//! `digest`) costs: per layer it reenacts the suite a second time with
//! that layer toggled the other way and exits with status 3 when the
//! on-vs-off CPU-time overhead exceeds the layer's limit (monitor 5 %,
//! digest 2 %; `--overhead-max-pct P` overrides both and is a usage error
//! without `--overhead`;
//! deltas under 50 ms are treated as timer noise). With `--report` each
//! measurement lands under `totals.overhead.<layer>`.
//!
//! `--digest FILE` folds every run's canonical event stream into the
//! `cesrm-digest/3` trail (per run, a flat list of (100 ms window, node)
//! leaf digests; see `docs/DEBUGGING.md`) and writes it to `FILE`. The
//! trail is byte-identical at any `--jobs` setting, which makes two trails
//! a divergence oracle for `reproduce diff`.
//!
//! # `reproduce diff` — divergence triage
//!
//! ```text
//! cargo run --release -p harness --bin reproduce -- diff A.json B.json
//!     [--no-replay]
//! ```
//!
//! Compares two `cesrm-digest/3` trails leaf by leaf (one merge-join per
//! run or rung), reports the earliest divergent (window, node) leaf,
//! re-runs the divergent scope on both sides with event capture pinned to
//! that leaf, and prints the aligned two-column event diff ending in a
//! `first divergence: t=…s node … EV_A vs EV_B` line. Exits
//! 0 when identical, 1 on divergence, 2 on unusable input. Every `main`
//! entry also installs the flight-recorder panic hook, so a crash dumps
//! the last ≤64 trace events with their provenance context to stderr.
//!
//! # `reproduce scale` — million-receiver sweeps
//!
//! ```text
//! cargo run --release -p harness --bin reproduce -- scale
//!     [--rungs N,N,...] [--shards N] [--protocol srm|cesrm] [--seed N]
//!     [--packets N] [--csv FILE] [--report FILE|-] [--profile]
//!     [--check-identity] [--no-identity] [--max-rss-mb N] [--digest FILE]
//! ```
//!
//! Runs the scaling experiment of `docs/SCALING.md`: each rung simulates
//! one source multicasting to `N` receivers on a synthetic backbone/access
//! tree (default sweep 10³ → 10⁶), with deterministic loss injection,
//! sharded across worker threads above 10⁴ receivers, invariant-monitored
//! at the unsharded rungs, and byte-identity-checked between shard counts.
//! Rungs run in this process, smallest first, and the kernel's peak-RSS
//! account is restarted before each, so every rung's peak-RSS figure is its
//! own. Prints a per-rung table (events/s, peak RSS, bytes per receiver,
//! recovery latency), optionally writes a CSV and a `cesrm-run/2` report
//! (`-` names it `BENCH_SCALE_<YYYYMMDD>.json`) with one `runs[]` row per
//! rung. Exits 3 when a rung's peak RSS exceeds `--max-rss-mb`, 4 on an
//! invariant violation or unrecovered loss, and 1 when sharded results
//! diverge from the unsharded canon.
//!
//! `--digest FILE` runs every rung with the digest on (window width = the
//! finer of 100 ms and the sharding lookahead, so the merged trail is
//! byte-identical at any shard count) and writes the scale-mode
//! `cesrm-digest/3` trail. With the digest on, the identity check
//! compares digest snapshots as well as the CSV rows — and on divergence
//! prints the first divergent (window, node) leaf plus the aligned event
//! diff from a pinned replay, instead of just two differing rows.
//!
//! `--profile` additionally prints each rung's per-shard busy/barrier-wait
//! times, cross-shard packet counts and imbalance ratio, and adds them with
//! the rung's engine telemetry to its report row as its `profile` member
//! (`docs/SCALING.md` explains how to read it); it needs `--report`.

use std::path::{Path, PathBuf};

use harness::{run_suite, SuiteConfig, TraceFilter};

/// A summary per entry point, printed under every argument error. The
/// full flag reference is this file's module documentation.
const USAGE: &str = "\
usage: reproduce [--scale F] [--seed N] [--traces 1,2,3] [--jobs N] [--csv-dir DIR] [--trace FILE]
                 [--digest FILE] [--report FILE|-] [--profile] [--health]
                 [--overhead monitor,digest] ...
       reproduce scale [--rungs N,N,...] [--shards N] [--protocol srm|cesrm] [--csv FILE]
                 [--report FILE|-] [--profile] [--digest FILE] ...
       reproduce diff A.json B.json [--no-replay]";

/// Reports a malformed command line — a missing or unparsable flag value,
/// an unknown flag, an inconsistent flag combination — and exits 2.
fn usage_error(msg: &str) -> ! {
    eprintln!("reproduce: {msg}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

/// The command line being parsed: every accessor either yields a checked
/// value or ends the process through [`usage_error`].
struct Args<'a>(std::slice::Iter<'a, String>);

impl<'a> Args<'a> {
    fn next_flag(&mut self) -> Option<&'a str> {
        self.0.next().map(String::as_str)
    }

    /// The value following `flag`; `what` describes it for the error.
    fn value(&mut self, flag: &str, what: &str) -> &'a str {
        match self.0.next() {
            Some(v) => v,
            None => usage_error(&format!("{flag} requires {what}")),
        }
    }

    fn parsed<T: std::str::FromStr>(&mut self, flag: &str, what: &str) -> T {
        let v = self.value(flag, what);
        parse_or_usage(v, flag, what, v)
    }

    /// A count or size where zero is meaningless.
    fn positive<T: std::str::FromStr + Default + PartialEq>(
        &mut self,
        flag: &str,
        what: &str,
    ) -> T {
        let n: T = self.parsed(flag, what);
        if n == T::default() {
            usage_error(&format!("{flag} requires {what}"));
        }
        n
    }

    /// A comma-separated list, every item parsed.
    fn list<T: std::str::FromStr>(&mut self, flag: &str, what: &str) -> Vec<T> {
        let v = self.value(flag, what);
        v.split(',')
            .map(|item| parse_or_usage(item, flag, what, v))
            .collect()
    }

    fn path(&mut self, flag: &str) -> PathBuf {
        PathBuf::from(self.value(flag, "a path"))
    }

    /// A `--report` path; `-` names the canonical `<prefix>_<YYYYMMDD>.json`
    /// in the working directory.
    fn report_path(&mut self, flag: &str, prefix: &str) -> PathBuf {
        match self.value(flag, "a path or -") {
            "-" => PathBuf::from(format!("{prefix}_{}.json", harness::utc_date_stamp())),
            path => PathBuf::from(path),
        }
    }
}

/// Writes one output file, creating its missing parent directories; on
/// failure reports the path and exits 1.
fn write_output(path: &Path, bytes: impl AsRef<[u8]>) {
    let written = match path.parent().filter(|p| !p.as_os_str().is_empty()) {
        Some(parent) => std::fs::create_dir_all(parent),
        None => Ok(()),
    }
    .and_then(|()| std::fs::write(path, bytes));
    if let Err(e) = written {
        eprintln!("failed to write {}: {e}", path.display());
        std::process::exit(1);
    }
}

/// Parses `item` (all or part of the `given` value of `flag`).
fn parse_or_usage<T: std::str::FromStr>(item: &str, flag: &str, what: &str, given: &str) -> T {
    item.parse()
        .unwrap_or_else(|_| usage_error(&format!("{flag} requires {what}, got {given:?}")))
}

/// An observation layer whose on-vs-off cost `--overhead` can gate.
#[derive(Clone, Copy)]
enum Layer {
    Monitor,
    Digest,
}

/// CPU deltas below this are timer noise, whatever the percentage.
const OVERHEAD_NOISE_FLOOR_S: f64 = 0.05;

impl std::str::FromStr for Layer {
    type Err = ();
    fn from_str(s: &str) -> Result<Layer, ()> {
        [Layer::Monitor, Layer::Digest]
            .into_iter()
            .find(|layer| layer.key() == s)
            .ok_or(())
    }
}

impl Layer {
    /// The `--overhead` spelling, also the layer's `totals.overhead` member.
    fn key(self) -> &'static str {
        match self {
            Layer::Monitor => "monitor",
            Layer::Digest => "digest",
        }
    }

    /// The layer's CPU-overhead budget in percent, unless
    /// `--overhead-max-pct` overrides it.
    fn default_max_pct(self) -> f64 {
        match self {
            Layer::Monitor => 5.0,
            Layer::Digest => 2.0,
        }
    }

    fn switch(self, cfg: &mut SuiteConfig) -> &mut bool {
        match self {
            Layer::Monitor => &mut cfg.monitor,
            Layer::Digest => &mut cfg.digest,
        }
    }

    /// Reenacts the suite with this layer toggled the other way; both
    /// passes share seed and configuration, so the CPU delta is the layer's
    /// own work.
    fn measure(self, cfg: &SuiteConfig, result: &harness::SuiteResult) -> harness::Overhead {
        let mut alt = cfg.clone();
        let switch = self.switch(&mut alt);
        let was_on = std::mem::replace(switch, !*switch);
        eprintln!(
            "measuring {} overhead: reenacting the suite with the {} {}...",
            self.key(),
            self.key(),
            if was_on { "off" } else { "on" }
        );
        let alt_result = run_suite(&alt);
        let (on, off) = if was_on {
            (&result.timing, &alt_result.timing)
        } else {
            (&alt_result.timing, &result.timing)
        };
        harness::Overhead {
            wall_off_s: off.wall.as_secs_f64(),
            wall_on_s: on.wall.as_secs_f64(),
            cpu_off_s: off.cpu_total().as_secs_f64(),
            cpu_on_s: on.cpu_total().as_secs_f64(),
        }
    }
}

fn main() {
    // Any panic below dumps the active flight recorder's tail to stderr
    // before unwinding, so a crashed run still says what the simulation
    // was doing (docs/DEBUGGING.md).
    obs::flight::install_panic_hook();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("scale") => return scale_main(&argv[1..]),
        Some("diff") => return diff_main(&argv[1..]),
        _ => {}
    }
    suite_main(&argv);
}

/// `reproduce diff A B`: compares two `cesrm-digest/3` trails, localizes
/// the first divergent `(scope, window, node)` leaf, re-runs the divergent
/// scope on both sides with event capture pinned to that leaf, and prints
/// the aligned two-column event diff. Exits 0 when the trails are
/// identical, 1 on divergence, 2 on unusable input.
fn diff_main(argv: &[String]) {
    let mut paths: Vec<&str> = Vec::new();
    let mut no_replay = false;
    for arg in argv {
        match arg.as_str() {
            "--no-replay" => no_replay = true,
            other if other.starts_with("--") => {
                usage_error(&format!("unknown diff argument: {other}"))
            }
            other => paths.push(other),
        }
    }
    let [path_a, path_b] = paths[..] else {
        usage_error("diff compares exactly two digest trails");
    };
    let load = |path: &str| -> obs::JsonValue {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("failed to read {path}: {e}");
            std::process::exit(2);
        });
        obs::JsonValue::parse(&text)
            .unwrap_or_else(|e| usage_error(&format!("{path} is not valid JSON: {e}")))
    };
    let (a, b) = (load(path_a), load(path_b));
    let div = match harness::diff_trails(&a, &b) {
        Ok(harness::DiffOutcome::Identical { records }) => {
            println!("digest trails identical ({records} records digested)");
            return;
        }
        Ok(harness::DiffOutcome::Diverged(div)) => div,
        Err(e) => {
            eprintln!("trails are not comparable: {e}");
            std::process::exit(2);
        }
    };
    print!("{}", div.render());
    if !no_replay {
        println!("{}", replay_divergence(&div));
    }
    std::process::exit(1);
}

/// Label for one side of a replayed divergence.
fn replay_label(spec: &harness::ReplaySpec) -> String {
    match spec {
        harness::ReplaySpec::Suite {
            trace, protocol, ..
        } => format!("trace {trace} / {}", protocol.name()),
        harness::ReplaySpec::Rung(cfg) => {
            format!("{} receivers, {} shard(s)", cfg.receivers, cfg.shards)
        }
    }
}

/// Re-runs both sides of a localized divergence with capture pinned to
/// the divergent `(window, node)` leaf and prints the aligned event diff.
/// Returns the one-line "first divergence" verdict.
fn replay_divergence(div: &harness::Divergence) -> String {
    let node = div.leaf.node;
    let (lo, hi) = div.bounds_ns();
    eprintln!(
        "replaying the divergent window (node {node}, t={:.3}-{:.3}s) on both sides...",
        lo as f64 / 1e9,
        hi as f64 / 1e9
    );
    let events_a = div.replay_a.replay_window(node, lo, hi);
    let events_b = div.replay_b.replay_window(node, lo, hi);
    let (block, summary) = harness::aligned_event_diff(
        &events_a,
        &events_b,
        &replay_label(&div.replay_a),
        &replay_label(&div.replay_b),
    );
    print!("{block}");
    summary.unwrap_or_else(|| {
        "replayed windows are identical (the nondeterminism is not reproducible \
         from this configuration alone)"
            .to_string()
    })
}

fn suite_main(argv: &[String]) {
    let mut cfg = SuiteConfig::paper_default();
    let mut csv_dir: Option<PathBuf> = None;
    let mut seeds: u32 = 1;
    let mut timings = false;
    let mut trace_path: Option<PathBuf> = None;
    let mut trace_filter: Option<TraceFilter> = None;
    let mut trace_slowest: Option<usize> = None;
    let mut report_path: Option<PathBuf> = None;
    let mut digest_path: Option<PathBuf> = None;
    let mut overhead_layers: Vec<Layer> = Vec::new();
    let mut overhead_max_pct: Option<f64> = None;
    let mut args = Args(argv.iter());
    while let Some(flag) = args.next_flag() {
        match flag {
            "--scale" => {
                cfg.scale = args.parsed(flag, "a number in (0, 1]");
                if !(cfg.scale > 0.0 && cfg.scale <= 1.0) {
                    usage_error("--scale requires a number in (0, 1]");
                }
            }
            "--seed" => cfg.seed = args.parsed(flag, "an integer"),
            "--traces" => {
                let what = "trace numbers 1..=14, e.g. 1,2,3";
                let traces: Vec<usize> = args.list(flag, what);
                if !traces.iter().all(|t| (1..=14).contains(t)) {
                    usage_error(&format!("--traces requires {what}, got {traces:?}"));
                }
                cfg.traces = Some(traces);
            }
            "--link-delay-ms" => {
                // At zero delay every SRM distance, hence every back-off
                // window, is zero: timers re-arm at the same instant and
                // simulated time never advances.
                cfg = cfg.with_link_delay_ms(args.positive(flag, "a positive integer"));
            }
            "--lossy-recovery" => cfg.experiment.lossy_recovery = true,
            "--jobs" => cfg.jobs = Some(args.parsed(flag, "a worker count")),
            "--timings" => timings = true,
            "--seeds" => seeds = args.positive(flag, "a positive count"),
            "--csv-dir" => csv_dir = Some(args.path(flag)),
            "--trace" => {
                trace_path = Some(args.path(flag));
                cfg.capture_events = true;
            }
            "--trace-filter" => {
                let expr = args.value(flag, "seq=N, receiver=N or ev=NAME");
                trace_filter = Some(
                    TraceFilter::parse(expr)
                        .unwrap_or_else(|e| usage_error(&format!("bad --trace-filter: {e}"))),
                );
            }
            "--trace-slowest" => trace_slowest = Some(args.parsed(flag, "a count")),
            "--report" => {
                report_path = Some(args.report_path(flag, "BENCH"));
                cfg.collect_metrics = true;
            }
            "--profile" => cfg.profile = true,
            "--health" => cfg.monitor = true,
            "--digest" => {
                digest_path = Some(args.path(flag));
                cfg.digest = true;
            }
            "--overhead" => overhead_layers = args.list(flag, "monitor and/or digest"),
            "--overhead-max-pct" => overhead_max_pct = Some(args.parsed(flag, "a percentage")),
            other => usage_error(&format!("unknown argument: {other}")),
        }
    }
    if trace_path.is_none() {
        if trace_filter.is_some() {
            usage_error("--trace-filter requires --trace FILE (nothing is captured)");
        }
        if trace_slowest.is_some() {
            usage_error("--trace-slowest requires --trace FILE (nothing is captured)");
        }
    }
    if cfg.profile && report_path.is_none() {
        usage_error("--profile requires --report FILE (nothing would be written)");
    }
    if overhead_max_pct.is_some() && overhead_layers.is_empty() {
        usage_error("--overhead-max-pct requires --overhead LAYER (nothing is gated)");
    }
    eprintln!(
        "running suite: scale {:.3}, seed {}, link delay {}, lossy recovery {}, jobs {}",
        cfg.scale,
        cfg.seed,
        cfg.experiment.net.link_delay,
        cfg.experiment.lossy_recovery,
        harness::resolve_jobs(cfg.jobs),
    );
    let result = run_suite(&cfg);
    println!("{}", result.table1_text());
    println!("{}", result.locality_text());
    println!("{}", result.attribution_text());
    println!("{}", result.fig1_text());
    println!("{}", result.fig1_chart());
    println!("{}", result.latency_distribution_text());
    println!("{}", result.fig2_text());
    println!("{}", result.fig3_text());
    println!("{}", result.fig4_text());
    println!("{}", result.fig5_text());
    println!("{}", result.summary_text());
    if timings {
        println!("{}", result.timings_text());
    }
    eprintln!(
        "suite wall clock: {:.3} s with {} worker threads ({:.2}x over serial-equivalent {:.3} s)",
        result.timing.wall.as_secs_f64(),
        result.timing.jobs,
        result.timing.speedup(),
        result.timing.cpu_total().as_secs_f64(),
    );
    if let Some(path) = trace_path {
        let filter = trace_filter.unwrap_or_default();
        let (records, bytes) = result.events.iter().fold((0, 0), |(n, b), e| {
            (n + e.records.len(), b + e.records.byte_len())
        });
        match harness::write_jsonl(&path, &result.events, &filter) {
            Ok(lines) => eprintln!(
                "wrote {} event lines ({} runs) to {}; {} records were held packed in {:.1} MiB ({:.2} B/record)",
                lines,
                result.events.len(),
                path.display(),
                records,
                bytes as f64 / (1024.0 * 1024.0),
                bytes as f64 / records.max(1) as f64
            ),
            Err(e) => {
                eprintln!("failed to write {}: {e}", path.display());
                std::process::exit(1);
            }
        }
        let cov = harness::coverage(&result.events);
        println!(
            "Provenance coverage: {}/{} losses with a complete timeline ({:.1}%), \
             {} expedited / {} fallback",
            cov.complete,
            cov.losses,
            100.0 * cov.fraction(),
            cov.expedited,
            cov.fallback
        );
        println!(
            "{}",
            harness::slowest_text(&result.events, trace_slowest.unwrap_or(10))
        );
    }
    if let Some(path) = &digest_path {
        write_output(path, harness::suite_digest_json(&cfg, &result));
        let digested: u64 = result.digests.iter().map(|d| d.snapshot.count()).sum();
        eprintln!(
            "wrote {} digest trail ({} runs, {digested} records) to {}",
            harness::DIGEST_SCHEMA,
            result.digests.len(),
            path.display()
        );
    }
    if cfg.monitor {
        print!("{}", harness::health_text(&result));
    }
    if let Some(dir) = csv_dir {
        match result.write_csv_files(&dir) {
            Ok(files) => eprintln!("wrote {} CSV files to {}", files.len(), dir.display()),
            Err(e) => {
                eprintln!("failed to write CSVs: {e}");
                std::process::exit(1);
            }
        }
    }
    let overheads: Vec<(Layer, harness::Overhead)> = overhead_layers
        .iter()
        .map(|&layer| (layer, layer.measure(&cfg, &result)))
        .collect();
    if let Some(path) = report_path {
        let measured: Vec<(&str, harness::Overhead)> =
            overheads.iter().map(|&(l, o)| (l.key(), o)).collect();
        write_output(&path, harness::suite_report(&cfg, &result, &measured));
        eprintln!(
            "wrote {} report ({} profiled runs, {} events) to {}",
            harness::RUN_SCHEMA,
            result.profiles.len(),
            result.total_events(),
            path.display()
        );
    }
    for (layer, o) in &overheads {
        let max_pct = overhead_max_pct.unwrap_or(layer.default_max_pct());
        println!(
            "{} overhead: cpu {:.3} s off vs {:.3} s on ({:+.1}%, limit +{max_pct:.1}%, \
             50 ms noise floor)",
            layer.key(),
            o.cpu_off_s,
            o.cpu_on_s,
            o.overhead_pct(),
        );
        if !o.within(max_pct, OVERHEAD_NOISE_FLOOR_S) {
            eprintln!(
                "{} OVERHEAD REGRESSION: {:+.1}% exceeds +{max_pct:.1}%",
                layer.key().to_uppercase(),
                o.overhead_pct()
            );
            std::process::exit(3);
        }
    }
    if seeds > 1 {
        let list: Vec<u64> = (0..seeds as u64)
            .map(|i| cfg.seed.wrapping_add(i))
            .collect();
        eprintln!("sweeping {} seeds for dispersion...", list.len());
        let sweep = harness::seed_sweep(&cfg, &list);
        println!("Across-seed dispersion ({} seeds):", sweep.runs);
        println!(
            "  latency reduction {:.1}% ± {:.1}%",
            sweep.latency_reduction_pct.mean, sweep.latency_reduction_pct.sd
        );
        println!(
            "  expedited success {:.1}% ± {:.1}%",
            sweep.expedited_success_pct.mean, sweep.expedited_success_pct.sd
        );
        println!(
            "  retransmission overhead {:.1}% ± {:.1}% of SRM",
            sweep.retransmission_pct.mean, sweep.retransmission_pct.sd
        );
    }
    let violations = result.total_violations();
    if violations > 0 {
        eprintln!("INVARIANT VIOLATIONS: {violations} (details in the health summary above)");
        std::process::exit(4);
    }
}

// ---------------------------------------------------------------------------
// `reproduce scale`: the 10³→10⁶ receiver scaling sweep (docs/SCALING.md).
// ---------------------------------------------------------------------------

fn protocol_from_name(name: &str) -> harness::Protocol {
    harness::scale_protocol(name)
        .unwrap_or_else(|| usage_error(&format!("unknown protocol {name:?} (use srm or cesrm)")))
}

/// Restarts the kernel's peak-RSS account of this process, so that the
/// next [`peak_rss_bytes`] reads the peak since now (the benchmark of
/// record isolates its readings the same way). Where the kernel refuses,
/// readings stay the peak since process start — on an ascending sweep,
/// still the rung's own.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// `VmHWM` from `/proc/self/status` in bytes — the process peak resident
/// set. Returns 0 where procfs is unavailable.
fn peak_rss_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<u64>().ok())
        })
        .map_or(0, |kb| kb * 1024)
}

/// Runs one rung and measures it.
fn run_rung(cfg: &harness::ScaleConfig) -> harness::RungOutcome {
    reset_peak_rss();
    // simlint: allow(D002, reason = "per-rung wall-clock for the events/s figure; never feeds simulation state")
    let started = std::time::Instant::now();
    let mut result = harness::run_scale(cfg);
    let wall = started.elapsed();
    let peak_rss_bytes = peak_rss_bytes();
    harness::RungOutcome {
        digest: result.digest.take(),
        result,
        wall,
        peak_rss_bytes,
    }
}

/// Prints each profiled rung's per-shard accounting summary: busy and
/// barrier-wait time, cross-shard packets and the imbalance ratio.
fn print_shard_accounting(outcomes: &[harness::RungOutcome]) {
    for r in outcomes
        .iter()
        .map(|o| &o.result)
        .filter(|r| r.engine.is_some())
    {
        eprintln!(
            "scale rung {}: per-shard accounting over {} epoch(s), imbalance ratio {}:",
            r.receivers,
            r.epochs,
            if r.shard_accounting.len() > 1 {
                format!("{:.2}", r.imbalance_ratio())
            } else {
                "-".to_string()
            },
        );
        for a in &r.shard_accounting {
            eprintln!(
                "  shard {}: busy {:.1} ms, barrier wait {:.1} ms, \
                 {} sent / {} received cross-shard",
                a.shard,
                a.busy_ns as f64 / 1e6,
                a.barrier_ns as f64 / 1e6,
                a.packets_sent,
                a.packets_received,
            );
        }
    }
}

/// `reproduce scale`: sweeps 10³→10⁶ receivers on generated multi-level
/// trees, monitors the small rungs, shards the large ones, and reports
/// recovery latency, control overhead, per-receiver state, events/s and
/// peak RSS per rung. See `docs/SCALING.md`.
fn scale_main(argv: &[String]) {
    let mut rungs: Vec<u64> = vec![1_000, 10_000, 100_000, 1_000_000];
    let mut shards: Option<u32> = None;
    let mut protocol = "cesrm";
    let mut seed: u64 = 7;
    let mut packets: u64 = 12;
    let mut csv_path: Option<PathBuf> = None;
    let mut report_path: Option<PathBuf> = None;
    let mut check_identity_all = false;
    let mut skip_identity = false;
    let mut max_rss_mb: Option<u64> = None;
    let mut profile = false;
    let mut digest_path: Option<PathBuf> = None;
    let mut args = Args(argv.iter());
    while let Some(flag) = args.next_flag() {
        match flag {
            "--rungs" => {
                rungs = args.list(flag, "receiver counts, e.g. 1000,10000");
                if rungs.iter().any(|&r| r < 2) {
                    usage_error("--rungs requires receiver counts of at least 2");
                }
            }
            "--shards" => shards = Some(args.positive(flag, "a positive count")),
            "--protocol" => protocol = args.value(flag, "srm or cesrm"),
            "--seed" => seed = args.parsed(flag, "an integer"),
            "--packets" => packets = args.positive(flag, "a positive count"),
            "--csv" => csv_path = Some(args.path(flag)),
            "--report" => report_path = Some(args.report_path(flag, "BENCH_SCALE")),
            "--check-identity" => check_identity_all = true,
            "--no-identity" => skip_identity = true,
            "--profile" => profile = true,
            "--max-rss-mb" => max_rss_mb = Some(args.parsed(flag, "a size in MiB")),
            "--digest" => digest_path = Some(args.path(flag)),
            other => usage_error(&format!("unknown scale argument: {other}")),
        }
    }
    protocol_from_name(protocol); // validate early
    if profile && report_path.is_none() {
        usage_error("--profile requires --report FILE (nothing would be written)");
    }
    rungs.sort_unstable();
    rungs.dedup();

    // Monitors need the global event order, so rungs up to 10⁴ receivers
    // default to a single shard (and run monitored); the larger rungs fan
    // out across worker shards. An explicit `--shards` wins everywhere —
    // e.g. to profile shard imbalance on a small rung — and the monitors
    // stay off on any sharded rung.
    let auto_shards = |receivers: u64| -> u32 {
        match shards {
            Some(s) => s,
            None if receivers <= 10_000 => 1,
            None => harness::default_parallelism().clamp(1, 8) as u32,
        }
    };

    let mut outcomes: Vec<harness::RungOutcome> = Vec::new();
    let mut configs: Vec<harness::ScaleConfig> = Vec::new();
    let mut identity_failures = 0u32;
    for (i, &receivers) in rungs.iter().enumerate() {
        let mut cfg = harness::ScaleConfig::rung(receivers);
        cfg.seed = seed;
        cfg.packets = packets;
        cfg.protocol = protocol_from_name(protocol);
        cfg.shards = auto_shards(receivers);
        cfg.monitor = receivers <= 10_000 && cfg.shards == 1;
        cfg.profile = profile;
        cfg.digest = digest_path.is_some();
        eprintln!(
            "scale rung {receivers}: shards {}, monitors {}...",
            cfg.shards,
            if cfg.monitor { "on" } else { "off" }
        );
        let outcome = run_rung(&cfg);

        // Determinism gate: the smallest rung (and with --check-identity
        // every rung but the largest) reruns at a different shard count;
        // the deterministic CSV row must be byte-identical.
        let check_this = !skip_identity && (i == 0 || (check_identity_all && i + 1 < rungs.len()));
        if check_this {
            let mut alt = cfg;
            alt.shards = if outcome.result.shards == 1 { 2 } else { 1 };
            alt.monitor = false;
            alt.profile = false;
            eprintln!(
                "scale rung {receivers}: identity check at {} shard(s)...",
                alt.shards
            );
            let alt_outcome = run_rung(&alt);
            // The digest is a much finer identity oracle than the
            // aggregate CSV row: when the snapshots disagree, the first
            // divergent (window, node) leaf is named and a replay pinned to
            // it, at each side's own shard count, shows the first divergent
            // event.
            let digests_diverge = match (&outcome.digest, &alt_outcome.digest) {
                (Some(a), Some(b)) => match harness::localize(
                    &format!("rung {receivers} receivers"),
                    (a, &harness::ReplaySpec::Rung(cfg)),
                    (b, &harness::ReplaySpec::Rung(alt)),
                ) {
                    Ok(None) => false,
                    Ok(Some(div)) => {
                        eprint!("{}", div.render());
                        eprintln!("{}", replay_divergence(&div));
                        true
                    }
                    Err(e) => {
                        eprintln!("digest snapshots not comparable: {e}");
                        true
                    }
                },
                _ => false,
            };
            let (row, alt_row) = (outcome.result.csv_row(), alt_outcome.result.csv_row());
            let (n, alt_n) = (outcome.result.shards, alt_outcome.result.shards);
            if alt_row == row && !digests_diverge {
                eprintln!("scale rung {receivers}: byte-identical at {n} vs {alt_n} shards");
            } else {
                eprintln!(
                    "SHARD NONDETERMINISM at {receivers} receivers:\n  {n} shards: {row}\n  {alt_n} shards: {alt_row}"
                );
                identity_failures += 1;
            }
        }
        outcomes.push(outcome);
        configs.push(cfg);
    }

    println!("Scaling sweep ({protocol}, seed {seed}, {packets} data packets):");
    println!(
        "{:>10} {:>7} {:>12} {:>12} {:>9} {:>10} {:>8} {:>12} {:>11} {:>10}",
        "receivers",
        "shards",
        "events",
        "events/s",
        "wall s",
        "rss MiB",
        "B/recv",
        "mean lat ms",
        "recovered",
        "violations"
    );
    for o in &outcomes {
        let r = &o.result;
        println!(
            "{:>10} {:>7} {:>12} {:>12.0} {:>9.2} {:>10.1} {:>8} {:>12.2} {:>11} {:>10}",
            r.receivers,
            r.shards,
            r.events,
            o.events_per_sec(),
            o.wall.as_secs_f64(),
            o.peak_rss_bytes as f64 / (1024.0 * 1024.0),
            r.state_bytes_per_receiver(),
            r.mean_latency_ns as f64 / 1e6,
            format!("{}/{}", r.recovered, r.detected),
            r.violations
                .map_or_else(|| "-".to_string(), |v| v.to_string()),
        );
    }

    print_shard_accounting(&outcomes);
    if let Some(path) = &csv_path {
        let mut text = String::from(harness::ScaleResult::csv_header());
        text.push('\n');
        for o in &outcomes {
            text.push_str(&o.result.csv_row());
            text.push('\n');
        }
        write_output(path, text);
        eprintln!(
            "wrote {} deterministic rows to {}",
            outcomes.len(),
            path.display()
        );
    }
    if let Some(path) = &report_path {
        write_output(
            path,
            harness::scale_report(protocol, seed, packets, &outcomes),
        );
        eprintln!("wrote {} report to {}", harness::RUN_SCHEMA, path.display());
    }
    if let Some(path) = &digest_path {
        let rungs: Vec<(&harness::ScaleConfig, &obs::DigestSnapshot)> = configs
            .iter()
            .zip(&outcomes)
            .filter_map(|(cfg, o)| Some((cfg, o.digest.as_ref()?)))
            .collect();
        if rungs.len() < outcomes.len() {
            eprintln!(
                "digest trail incomplete: {} of {} rungs recorded a digest",
                rungs.len(),
                outcomes.len()
            );
            std::process::exit(1);
        }
        write_output(
            path,
            harness::scale_digest_json(protocol, seed, packets, &rungs),
        );
        eprintln!(
            "wrote {} digest trail ({} rungs) to {}",
            harness::DIGEST_SCHEMA,
            outcomes.len(),
            path.display()
        );
    }

    if let Some(budget) = max_rss_mb {
        let limit = budget * 1024 * 1024;
        for o in outcomes.iter().filter(|o| o.peak_rss_bytes > limit) {
            eprintln!(
                "RSS BUDGET EXCEEDED: rung {} peaked at {:.1} MiB (budget {budget} MiB)",
                o.result.receivers,
                o.peak_rss_bytes as f64 / (1024.0 * 1024.0)
            );
        }
        if outcomes.iter().any(|o| o.peak_rss_bytes > limit) {
            std::process::exit(3);
        }
    }
    if identity_failures > 0 {
        eprintln!("SHARD NONDETERMINISM: {identity_failures} rung(s) differed across shard counts");
        std::process::exit(1);
    }
    let violations: u64 = outcomes.iter().filter_map(|o| o.result.violations).sum();
    if violations > 0 {
        eprintln!("INVARIANT VIOLATIONS: {violations} across monitored rungs");
        std::process::exit(4);
    }
    let unrecovered: u64 = outcomes.iter().map(|o| o.result.unrecovered).sum();
    if unrecovered > 0 {
        eprintln!("UNRECOVERED LOSSES: {unrecovered} (drain too short for this configuration?)");
        std::process::exit(4);
    }
}
