//! The `simlint` CLI. See the crate docs and `docs/LINTS.md`.
//!
//! ```text
//! simlint [--root DIR] [--config FILE] [--baseline FILE] [--json]
//!         [--write-baseline] [--explain RULE]
//!         [--max-wall-ms N]
//! ```
//!
//! Defaults: `--root .`, `--config <root>/simlint.toml`, baseline from the
//! config's `baseline` key (scans with an empty baseline when absent).
//!
//! Exit codes (documented contract, asserted in the fixture tests):
//!
//! - `0` — clean: no new findings (and, with `--max-wall-ms`, in budget);
//! - `1` — new findings (or the wall-time budget was exceeded);
//! - `2` — usage, configuration, or I/O error.

use std::path::PathBuf;
use std::process::ExitCode;

use simlint::{explain, render_human, render_json, scan_loaded, Baseline, Config, RuleId};

struct Args {
    root: PathBuf,
    config: Option<PathBuf>,
    baseline: Option<PathBuf>,
    json: bool,
    write_baseline: bool,
    explain: Option<String>,
    max_wall_ms: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        root: PathBuf::from("."),
        config: None,
        baseline: None,
        json: false,
        write_baseline: false,
        explain: None,
        max_wall_ms: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => args.root = it.next().ok_or("--root requires a path")?.into(),
            "--config" => args.config = Some(it.next().ok_or("--config requires a path")?.into()),
            "--baseline" => {
                args.baseline = Some(it.next().ok_or("--baseline requires a path")?.into());
            }
            "--json" => args.json = true,
            "--write-baseline" => args.write_baseline = true,
            "--explain" => {
                args.explain = Some(it.next().ok_or("--explain requires a rule id")?);
            }
            "--max-wall-ms" => {
                let n = it.next().ok_or("--max-wall-ms requires a number")?;
                args.max_wall_ms = Some(n.parse().map_err(|_| format!("bad --max-wall-ms `{n}`"))?);
            }
            "--help" | "-h" => {
                return Err(
                    "usage: simlint [--root DIR] [--config FILE] [--baseline FILE] \
                            [--json] [--write-baseline] [--explain RULE] \
                            [--max-wall-ms N]"
                        .into(),
                );
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(args)
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;

    if let Some(rule) = &args.explain {
        let id = RuleId::parse(rule).ok_or_else(|| {
            format!(
                "unknown rule id `{rule}` (known: {})",
                RuleId::ALL.map(|r| r.to_string()).join(", ")
            )
        })?;
        print!("{}", explain(id));
        return Ok(true);
    }

    let config_path = args
        .config
        .clone()
        .unwrap_or_else(|| args.root.join("simlint.toml"));
    let config = if config_path.exists() {
        let text = std::fs::read_to_string(&config_path)
            .map_err(|e| format!("reading {}: {e}", config_path.display()))?;
        Config::parse(&text).map_err(|e| format!("{}: {e}", config_path.display()))?
    } else if args.config.is_some() {
        return Err(format!("config not found: {}", config_path.display()));
    } else {
        Config::default()
    };
    let baseline_path = args
        .baseline
        .clone()
        .or_else(|| config.baseline.as_ref().map(|b| args.root.join(b)));
    let baseline = match &baseline_path {
        Some(p) if p.exists() => {
            let text =
                std::fs::read_to_string(p).map_err(|e| format!("reading {}: {e}", p.display()))?;
            Baseline::parse(&text).map_err(|e| format!("{}: {e}", p.display()))?
        }
        // A missing baseline file is an error only when it was named
        // explicitly and we are going to *read* it; --write-baseline is
        // how the file comes to exist in the first place.
        Some(p) if args.baseline.is_some() && !args.write_baseline => {
            return Err(format!("baseline not found: {}", p.display()));
        }
        _ => Baseline::default(),
    };

    // simlint: allow(D002, reason = "the lint's own --max-wall-ms budget gate; a host-time read that never feeds simulation state")
    let t0 = std::time::Instant::now();
    let loaded = simlint::load_workspace(&args.root, &config)?;
    let mut report = scan_loaded(&loaded, &config, &baseline);
    report.elapsed_ms = t0.elapsed().as_millis() as u64;

    if args.write_baseline {
        let path = baseline_path.ok_or(
            "--write-baseline needs a baseline path (--baseline or the config's `baseline` key)",
        )?;
        std::fs::write(&path, Baseline::render(&report.counts()))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        eprintln!(
            "simlint: wrote {} entries to {}",
            report.counts().len(),
            path.display()
        );
        return Ok(true);
    }

    if args.json {
        print!("{}", render_json(&report));
    } else {
        print!("{}", render_human(&report));
    }
    let mut ok = !report.failed();
    if let Some(budget) = args.max_wall_ms {
        if report.elapsed_ms > budget {
            eprintln!(
                "simlint: wall time {} ms exceeds the {budget} ms budget — the \
                 analyzer must not become the slow lane",
                report.elapsed_ms
            );
            ok = false;
        }
    }
    Ok(ok)
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("simlint: {e}");
            ExitCode::from(2)
        }
    }
}
