//! `compare A.jsonl B.jsonl`: holds the runs in B against the runs in A,
//! per workload × metric, using the bounds fixed in `BENCHMARK.json`.
//!
//! Result files are what `--out` appends: one JSON line per run. Runs are
//! grouped by workload and by kind of run (`--trace 0` or `1`).
//!
//! - A *simulated* metric or count must be exactly equal between A and B
//!   on every seed both ran (`unresolved` when they share no seed). An end-to-end one that moved is then held to
//!   its bound (a deliberate re-baseline stays inside it, a protocol
//!   regression does not); a per-layer one is reported as `differs`.
//! - A *host* end-to-end metric compares medians: worse by more than the
//!   bound is `OUT OF BOUND`. Otherwise, when either side's run-to-run
//!   quartile spread exceeds the bound the verdict is `unresolved` — not
//!   "unchanged" — unless every run of B reads better than every run of A.
//! - Per-layer host metrics have no bound; their medians and delta are
//!   printed for reading.
//!
//! Comparing two sets of runs of one commit is the A/A check: everything
//! simulated `identical`, everything bounded `within bound`.

use obs::JsonValue;

use crate::metrics::{Def, END_TO_END, PER_LAYER};
use crate::stats::{pct_over, Quartiles};
use crate::workloads::NAMES;

/// What `BENCHMARK.json` fixes for one metric.
struct Rule {
    name: String,
    higher_is_better: bool,
    /// `None` for per-layer metrics.
    bound: Option<f64>,
}

fn read_json(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))
}

fn rules(manifest: &JsonValue) -> Result<Vec<Rule>, String> {
    let mut out = Vec::new();
    for section in ["end_to_end", "per_layer"] {
        let entries = manifest
            .get(section)
            .and_then(JsonValue::as_arr)
            .ok_or_else(|| format!("BENCHMARK.json: no {section} array"))?;
        for e in entries {
            let name = e.get("name").and_then(JsonValue::as_str);
            let better = e.get("better").and_then(JsonValue::as_str);
            let (Some(name), Some(better)) = (name, better) else {
                return Err(format!(
                    "BENCHMARK.json: a {section} entry lacks name or better"
                ));
            };
            out.push(Rule {
                name: name.to_string(),
                higher_is_better: better == "higher",
                bound: e.get("bound").and_then(JsonValue::as_f64),
            });
        }
    }
    Ok(out)
}

/// One run from a result file.
struct Run {
    workload: String,
    seed: u64,
    trace: bool,
    correct: bool,
    metrics: Vec<(String, f64)>,
}

fn runs(path: &str) -> Result<Vec<Run>, String> {
    let mut out = Vec::new();
    for (i, line) in read_json(path)?
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let bad = |what: &str| format!("{path}:{}: {what}", i + 1);
        let doc = JsonValue::parse(line).map_err(|e| bad(&e))?;
        let result = doc.get("result").ok_or_else(|| bad("no result object"))?;
        let JsonValue::Obj(members) = result
            .get("metrics")
            .ok_or_else(|| bad("no metrics object"))?
        else {
            return Err(bad("metrics is not an object"));
        };
        let metrics = members
            .iter()
            .map(|(name, m)| {
                let value = m.get("value").and_then(JsonValue::as_f64);
                value
                    .map(|v| (name.clone(), v))
                    .ok_or_else(|| bad("a metric has no numeric value"))
            })
            .collect::<Result<_, _>>()?;
        out.push(Run {
            workload: doc
                .get("workload")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| bad("no workload"))?
                .to_string(),
            seed: doc
                .get("seed")
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| bad("no seed"))?,
            trace: doc.get("trace").and_then(JsonValue::as_u64) == Some(1),
            correct: result.get("correct") == Some(&JsonValue::Bool(true)),
            metrics,
        });
    }
    Ok(out)
}

/// One file's runs of one workload, seen through one metric.
struct Side {
    /// `(seed, value)` per run.
    samples: Vec<(u64, f64)>,
    q: Quartiles,
}

impl Side {
    /// `None` when no run printed the metric.
    fn of(samples: Vec<(u64, f64)>) -> Option<Side> {
        let values: Vec<f64> = samples.iter().map(|&(_, v)| v).collect();
        Quartiles::of(&values).map(|q| Side { samples, q })
    }

    fn of_metric(runs: &[&Run], metric: &str) -> Option<Side> {
        let value = |r: &&Run| Some((r.seed, r.metrics.iter().find(|(n, _)| n == metric)?.1));
        Side::of(runs.iter().filter_map(value).collect())
    }
}

#[derive(Clone, Copy, PartialEq, Debug)]
enum Verdict {
    Identical,
    WithinBound,
    Better,
    Unresolved,
    OutOfBound,
    Differs,
    /// Per-layer host metric: nothing to hold it against.
    Unbounded,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Identical => "identical",
            Verdict::WithinBound => "within bound",
            Verdict::Better => "better",
            Verdict::Unresolved => "unresolved",
            Verdict::OutOfBound => "OUT OF BOUND",
            Verdict::Differs => "differs",
            Verdict::Unbounded => "",
        }
    }
}

/// By how much of A's median B's median is worse (negative: better).
fn worsening(a: f64, b: f64, higher_is_better: bool) -> f64 {
    let delta = pct_over(b, a) / 100.0;
    if higher_is_better {
        -delta
    } else {
        delta
    }
}

fn judge(def: &Def, rule: &Rule, a: &Side, b: &Side) -> Verdict {
    let (qa, qb) = (a.q, b.q);
    let worse_by = worsening(qa.median, qb.median, rule.higher_is_better);
    if def.sim {
        // Simulated results depend on the seed, so only runs on a seed
        // both sides ran can be held to exact equality.
        let mut shared = a
            .samples
            .iter()
            .flat_map(|(seed, va)| {
                b.samples
                    .iter()
                    .filter(move |(s, _)| s == seed)
                    .map(move |(_, vb)| va == vb)
            })
            .peekable();
        if shared.peek().is_none() {
            return Verdict::Unresolved;
        }
        return match rule.bound {
            _ if shared.all(|equal| equal) => Verdict::Identical,
            Some(bound) if worse_by <= bound => Verdict::WithinBound,
            Some(_) => Verdict::OutOfBound,
            None => Verdict::Differs,
        };
    }
    let Some(bound) = rule.bound else {
        return Verdict::Unbounded;
    };
    let every_b_beats_every_a = a.samples.iter().all(|&(_, va)| {
        b.samples.iter().all(|&(_, vb)| {
            if rule.higher_is_better {
                vb > va
            } else {
                vb < va
            }
        })
    });
    if worse_by > bound {
        Verdict::OutOfBound
    } else if every_b_beats_every_a {
        Verdict::Better
    } else if qa.spread() > bound || qb.spread() > bound {
        Verdict::Unresolved
    } else {
        Verdict::WithinBound
    }
}

pub fn run(path_a: &str, path_b: &str) -> Result<bool, String> {
    let manifest = JsonValue::parse(&read_json("BENCHMARK.json")?)
        .map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let rules = rules(&manifest)?;
    let (all_a, all_b) = (runs(path_a)?, runs(path_b)?);
    let mut tally = std::collections::BTreeMap::<&'static str, u32>::new();
    let mut ok = true;
    for run in all_a.iter().chain(&all_b).filter(|r| !r.correct) {
        println!(
            "run of {} seed {} failed its output checks",
            run.workload, run.seed
        );
        ok = false;
    }
    for workload in NAMES {
        for (trace, defs) in [(false, END_TO_END), (true, PER_LAYER)] {
            let pick = |r: &&Run| r.workload == workload && r.trace == trace;
            let ra: Vec<&Run> = all_a.iter().filter(pick).collect();
            let rb: Vec<&Run> = all_b.iter().filter(pick).collect();
            if ra.is_empty() || rb.is_empty() {
                continue;
            }
            println!(
                "\n{workload} --trace {}: {} runs in A, {} in B",
                u8::from(trace),
                ra.len(),
                rb.len()
            );
            println!(
                "{:<40} {:>16} {:>16} {:>9} {:>7} {:>9}  verdict",
                "metric", "A median", "B median", "delta %", "bound %", "spread %"
            );
            for def in defs {
                let rule = rules
                    .iter()
                    .find(|r| r.name == def.name)
                    .ok_or_else(|| format!("BENCHMARK.json does not list {}", def.name))?;
                let (Some(a), Some(b)) = (
                    Side::of_metric(&ra, def.name),
                    Side::of_metric(&rb, def.name),
                ) else {
                    println!("{:<40} missing from one side", def.name);
                    ok = false;
                    continue;
                };
                let (qa, qb) = (a.q, b.q);
                let verdict = judge(def, rule, &a, &b);
                println!(
                    "{:<40} {:>16.6} {:>16.6} {:>+9.2} {:>7} {:>9.2}  {}",
                    def.name,
                    qa.median,
                    qb.median,
                    pct_over(qb.median, qa.median),
                    rule.bound
                        .map_or("-".to_string(), |b| format!("{:.0}", 100.0 * b)),
                    100.0 * qa.spread().max(qb.spread()),
                    verdict.label()
                );
                *tally.entry(verdict.label()).or_default() += 1;
                ok &= verdict != Verdict::OutOfBound;
            }
        }
    }
    println!();
    for (label, n) in tally.iter().filter(|(label, _)| !label.is_empty()) {
        println!("{n:>4} {label}");
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    const HOST: Def = Def {
        name: "t_s",
        unit: "s",
        sim: false,
    };
    const SIM: Def = Def {
        name: "n",
        unit: "count",
        sim: true,
    };

    fn rule(higher_is_better: bool, bound: Option<f64>) -> Rule {
        Rule {
            name: String::new(),
            higher_is_better,
            bound,
        }
    }

    fn seeded(values: &[f64]) -> Side {
        let samples = values.iter().enumerate().map(|(i, &v)| (i as u64, v));
        Side::of(samples.collect()).unwrap()
    }

    #[test]
    fn host_metric_is_held_to_its_bound_in_its_own_direction() {
        let lower = rule(false, Some(0.10));
        let a = seeded(&[1.00, 1.01, 0.99]);
        assert_eq!(
            judge(&HOST, &lower, &a, &seeded(&[1.05, 1.04, 1.06])),
            Verdict::WithinBound
        );
        assert_eq!(
            judge(&HOST, &lower, &a, &seeded(&[1.15, 1.14, 1.16])),
            Verdict::OutOfBound
        );
        assert_eq!(
            judge(&HOST, &lower, &a, &seeded(&[0.80, 0.81, 0.79])),
            Verdict::Better
        );
        let higher = rule(true, Some(0.10));
        assert_eq!(
            judge(&HOST, &higher, &a, &seeded(&[0.80, 0.81, 0.79])),
            Verdict::OutOfBound
        );
        assert_eq!(
            judge(&HOST, &higher, &a, &seeded(&[1.15, 1.14, 1.16])),
            Verdict::Better
        );
    }

    #[test]
    fn wide_spread_is_unresolved_not_unchanged() {
        let lower = rule(false, Some(0.10));
        let noisy = seeded(&[0.8, 1.0, 1.2, 1.4]);
        assert_eq!(
            judge(&HOST, &lower, &noisy, &seeded(&[1.0, 1.1, 1.2, 0.9])),
            Verdict::Unresolved
        );
        // Every run of B beating every run of A resolves it all the same.
        assert_eq!(
            judge(&HOST, &lower, &noisy, &seeded(&[0.5, 0.6, 0.7, 0.4])),
            Verdict::Better
        );
    }

    #[test]
    fn simulated_metric_must_repeat_exactly_per_seed() {
        let a = seeded(&[10.0, 20.0]);
        assert_eq!(
            judge(&SIM, &rule(false, None), &a, &seeded(&[10.0, 20.0])),
            Verdict::Identical
        );
        assert_eq!(
            judge(&SIM, &rule(false, None), &a, &seeded(&[10.0, 21.0])),
            Verdict::Differs
        );
        assert_eq!(
            judge(&SIM, &rule(false, Some(0.1)), &a, &seeded(&[10.0, 21.0])),
            Verdict::WithinBound
        );
        assert_eq!(
            judge(&SIM, &rule(false, Some(0.1)), &a, &seeded(&[20.0, 30.0])),
            Verdict::OutOfBound
        );
        // With no seed in common nothing can be held to equality.
        let other_seeds = Side::of(vec![(7, 10.0), (8, 20.0)]).unwrap();
        assert_eq!(
            judge(&SIM, &rule(false, None), &a, &other_seeds),
            Verdict::Unresolved
        );
    }

    #[test]
    fn per_layer_host_metric_has_no_verdict() {
        assert_eq!(
            judge(&HOST, &rule(false, None), &seeded(&[1.0]), &seeded(&[9.0])),
            Verdict::Unbounded
        );
    }
}
