//! JSONL trace emission and the slowest-recoveries report behind the
//! `reproduce --trace` flag.
//!
//! A trace file interleaves three self-describing line kinds:
//!
//! 1. `{"run":{...}}` — opens one (trace × protocol) reenactment,
//! 2. `{"rtt":{...}}` — one per receiver, its source RTT in nanoseconds,
//! 3. event lines (`{"t":...,"ev":...}`) — see `docs/TRACING.md`.
//!
//! The provenance summary ([`coverage`], [`slowest_text`]) is computed by
//! joining the raw events into per-loss timelines with
//! [`obs::provenance::reduce`].

use std::fmt::Write as _;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;

use obs::provenance::{reduce, RecoveryPath, RecoveryTimeline};
use obs::{to_json_line, Record};

use crate::suite::RunEventLog;

/// A predicate over trace records, parsed from `--trace-filter`.
///
/// `seq=N` keeps events about sequence number `N` (events without a
/// sequence, e.g. session drops, are filtered out); `receiver=N` keeps
/// events attributed to node `N` (for drop events the node is the link's
/// downstream endpoint); `ev=NAME` keeps one event kind by its stable wire
/// name (validated against [`obs::Event::NAMES`] at parse time, so a typo
/// fails fast instead of silently matching nothing). The default keeps
/// everything.
#[derive(Clone, Copy, Default, PartialEq, Debug)]
pub struct TraceFilter {
    seq: Option<u64>,
    receiver: Option<u32>,
    event: Option<&'static str>,
}

impl TraceFilter {
    /// Parses a `key=value` filter expression (`seq=7`, `receiver=12`,
    /// `ev=loss_detected`). An unknown `ev=` name is an error that lists
    /// the full valid vocabulary.
    pub fn parse(s: &str) -> Result<TraceFilter, String> {
        let (key, value) = s
            .split_once('=')
            .ok_or_else(|| format!("expected key=value, got {s:?}"))?;
        let mut f = TraceFilter::default();
        match key {
            "seq" => {
                f.seq = Some(
                    value
                        .parse()
                        .map_err(|_| format!("seq wants an integer, got {value:?}"))?,
                );
            }
            "receiver" => {
                f.receiver = Some(
                    value
                        .parse()
                        .map_err(|_| format!("receiver wants a node id, got {value:?}"))?,
                );
            }
            "ev" => {
                f.event = Some(
                    obs::Event::NAMES
                        .iter()
                        .find(|&&name| name == value)
                        .copied()
                        .ok_or_else(|| {
                            format!(
                                "unknown event name {value:?}; valid names: {}",
                                obs::Event::NAMES.join(", ")
                            )
                        })?,
                );
            }
            other => return Err(format!("unknown filter key {other:?} (seq|receiver|ev)")),
        }
        Ok(f)
    }

    /// Whether `record` passes the filter.
    pub fn matches(&self, record: &Record) -> bool {
        self.seq.is_none_or(|want| record.event.seq() == Some(want))
            && self.receiver.is_none_or(|want| record.event.node() == want)
            && self.event.is_none_or(|want| record.event.name() == want)
    }
}

/// Writes the captured suite events as JSONL to `path`, applying `filter`
/// to the event lines (run and RTT header lines are always kept), creating
/// any missing parent directories. Returns the number of event lines
/// written.
pub fn write_jsonl(path: &Path, events: &[RunEventLog], filter: &TraceFilter) -> io::Result<usize> {
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent)?;
    }
    let mut out = BufWriter::new(File::create(path)?);
    let mut written = 0;
    for run in events {
        writeln!(
            out,
            "{{\"run\":{{\"trace\":{},\"name\":\"{}\",\"protocol\":\"{}\"}}}}",
            run.trace, run.name, run.protocol
        )?;
        for &(node, rtt_ns) in &run.rtt_ns {
            writeln!(out, "{{\"rtt\":{{\"node\":{node},\"rtt_ns\":{rtt_ns}}}}}")?;
        }
        for record in run.records.iter().filter(|r| filter.matches(r)) {
            writeln!(out, "{}", to_json_line(&record))?;
            written += 1;
        }
    }
    out.flush()?;
    Ok(written)
}

/// Provenance coverage of a captured suite: how many detected losses have
/// a complete detection→recovery timeline in the event stream.
#[derive(Clone, Copy, Default, PartialEq, Debug)]
pub struct TraceCoverage {
    /// Detected losses with a timeline (spurious detections excluded).
    pub losses: usize,
    /// Timelines that reach a `recovered` event.
    pub complete: usize,
    /// Complete timelines repaired by the expedited scheme.
    pub expedited: usize,
    /// Complete timelines repaired by suppression-delayed SRM recovery.
    pub fallback: usize,
}

impl TraceCoverage {
    /// `complete / losses`, or 1 when no losses were recorded.
    pub fn fraction(&self) -> f64 {
        if self.losses == 0 {
            1.0
        } else {
            self.complete as f64 / self.losses as f64
        }
    }

    /// Detected losses whose timeline never reaches a `recovered` event —
    /// exactly the losses the liveness monitor (invariant I1 in
    /// `docs/MONITORS.md`) would flag.
    pub fn unrecovered(&self) -> usize {
        self.losses - self.complete
    }
}

/// Reduces every run's events to timelines and tallies coverage.
pub fn coverage(events: &[RunEventLog]) -> TraceCoverage {
    let mut cov = TraceCoverage::default();
    for run in events {
        for tl in reduce(&run.records) {
            match tl.path {
                RecoveryPath::Spurious => {}
                RecoveryPath::Unrecovered => cov.losses += 1,
                RecoveryPath::Expedited => {
                    cov.losses += 1;
                    cov.complete += 1;
                    cov.expedited += 1;
                }
                RecoveryPath::Fallback => {
                    cov.losses += 1;
                    cov.complete += 1;
                    cov.fallback += 1;
                }
            }
        }
    }
    cov
}

/// One slowest-recovery row: the timeline plus its run context.
struct SlowRow {
    run: String,
    rtts: Option<f64>,
    tl: RecoveryTimeline,
}

/// Renders the `n` slowest completed recoveries across all captured runs
/// as a human-readable table, latencies in both milliseconds and RTT
/// units, with the request/repair wait split per row.
pub fn slowest_text(events: &[RunEventLog], n: usize) -> String {
    let mut rows: Vec<SlowRow> = Vec::new();
    for run in events {
        for tl in reduce(&run.records) {
            if tl.latency_ns().is_none() {
                continue;
            }
            let rtt = run
                .rtt_ns
                .iter()
                .find(|&&(node, _)| node == tl.receiver)
                .map(|&(_, ns)| ns)
                .unwrap_or(0);
            rows.push(SlowRow {
                run: format!("{} {} {}", run.trace, run.name, run.protocol),
                rtts: tl.latency_rtts(rtt),
                tl,
            });
        }
    }
    rows.sort_by(|a, b| {
        b.tl.latency_ns()
            .cmp(&a.tl.latency_ns())
            .then_with(|| (a.tl.receiver, a.tl.seq).cmp(&(b.tl.receiver, b.tl.seq)))
    });
    rows.truncate(n);

    let mut s = String::new();
    let _ = writeln!(
        s,
        "Slowest {} recoveries (of the captured runs):",
        rows.len()
    );
    let _ = writeln!(
        s,
        "  {:<22} {:>4} {:>6}  {:<9} {:>10} {:>7} {:>9} {:>9} {:>4}",
        "run", "rcvr", "seq", "path", "lat ms", "lat RTT", "req ms", "rep ms", "reqs"
    );
    for row in &rows {
        let ms = |ns: Option<u64>| match ns {
            Some(v) => format!("{:.1}", v as f64 / 1e6),
            None => "-".to_string(),
        };
        let _ = writeln!(
            s,
            "  {:<22} {:>4} {:>6}  {:<9} {:>10} {:>7} {:>9} {:>9} {:>4}",
            row.run,
            row.tl.receiver,
            row.tl.seq,
            row.tl.path.as_str(),
            ms(row.tl.latency_ns()),
            row.rtts
                .map(|r| format!("{r:.2}"))
                .unwrap_or_else(|| "-".to_string()),
            ms(row.tl.request_wait_ns()),
            ms(row.tl.repair_wait_ns()),
            row.tl.requests,
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::Event;

    fn rec(t_ns: u64, event: Event) -> Record {
        Record { t_ns, event }
    }

    #[test]
    fn filter_parses_and_matches() {
        let f = TraceFilter::parse("seq=7").unwrap();
        assert!(f.matches(&rec(0, Event::LossDetected { node: 2, seq: 7 })));
        assert!(!f.matches(&rec(0, Event::LossDetected { node: 2, seq: 8 })));
        let g = TraceFilter::parse("receiver=2").unwrap();
        assert!(g.matches(&rec(0, Event::LossDetected { node: 2, seq: 9 })));
        assert!(!g.matches(&rec(0, Event::LossDetected { node: 3, seq: 9 })));
        assert!(TraceFilter::parse("color=red").is_err());
        assert!(TraceFilter::parse("nonsense").is_err());
        assert!(TraceFilter::default().matches(&rec(0, Event::LossDetected { node: 1, seq: 1 })));
    }

    #[test]
    fn event_filter_matches_by_wire_name() {
        let f = TraceFilter::parse("ev=loss_detected").unwrap();
        assert!(f.matches(&rec(0, Event::LossDetected { node: 2, seq: 7 })));
        assert!(!f.matches(&rec(
            0,
            Event::RecoveryCompleted {
                node: 2,
                seq: 7,
                expedited: true,
            }
        )));
    }

    #[test]
    fn event_filter_rejects_unknown_names_listing_vocabulary() {
        let err = TraceFilter::parse("ev=los_detected").unwrap_err();
        assert!(err.contains("unknown event name"), "error was: {err}");
        // The error must teach the full vocabulary, not just complain.
        for name in obs::Event::NAMES {
            assert!(err.contains(name), "error missing {name:?}: {err}");
        }
    }

    #[test]
    fn every_wire_name_parses_as_an_event_filter() {
        for name in obs::Event::NAMES {
            assert!(
                TraceFilter::parse(&format!("ev={name}")).is_ok(),
                "catalogue name {name:?} rejected"
            );
        }
    }

    #[test]
    fn unknown_key_error_mentions_ev() {
        let err = TraceFilter::parse("color=red").unwrap_err();
        assert!(err.contains("seq|receiver|ev"), "error was: {err}");
    }

    #[test]
    fn coverage_counts_paths() {
        let run = RunEventLog {
            trace: 1,
            name: "T",
            protocol: "CESRM",
            rtt_ns: vec![(2, 10_000)],
            records: [
                rec(10, Event::LossDetected { node: 2, seq: 1 }),
                rec(
                    50,
                    Event::RecoveryCompleted {
                        node: 2,
                        seq: 1,
                        expedited: true,
                    },
                ),
                rec(20, Event::LossDetected { node: 2, seq: 2 }),
                rec(
                    90,
                    Event::RecoveryCompleted {
                        node: 2,
                        seq: 2,
                        expedited: false,
                    },
                ),
                rec(30, Event::LossDetected { node: 2, seq: 3 }),
            ]
            .into_iter()
            .collect(),
        };
        let cov = coverage(&[run]);
        assert_eq!(cov.losses, 3);
        assert_eq!(cov.complete, 2);
        assert_eq!(cov.expedited, 1);
        assert_eq!(cov.fallback, 1);
        assert!((cov.fraction() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn slowest_report_orders_by_latency() {
        let run = RunEventLog {
            trace: 4,
            name: "WRN",
            protocol: "SRM",
            rtt_ns: vec![(2, 10_000), (3, 10_000)],
            records: [
                rec(0, Event::LossDetected { node: 2, seq: 1 }),
                rec(
                    5_000,
                    Event::RecoveryCompleted {
                        node: 2,
                        seq: 1,
                        expedited: false,
                    },
                ),
                rec(0, Event::LossDetected { node: 3, seq: 1 }),
                rec(
                    25_000,
                    Event::RecoveryCompleted {
                        node: 3,
                        seq: 1,
                        expedited: false,
                    },
                ),
            ]
            .into_iter()
            .collect(),
        };
        let text = slowest_text(&[run], 1);
        assert!(text.contains("Slowest 1"));
        // The slower recovery (node 3, 25 µs = 2.50 RTT) wins the slot.
        assert!(text.contains("2.50"), "report was:\n{text}");
    }

    #[test]
    fn write_jsonl_creates_missing_parent_directories() {
        let run = RunEventLog {
            trace: 1,
            name: "T",
            protocol: "SRM",
            rtt_ns: vec![(2, 10_000)],
            records: [rec(10, Event::LossDetected { node: 2, seq: 1 })]
                .into_iter()
                .collect(),
        };
        let dir = std::env::temp_dir().join(format!(
            "cesrm-jsonl-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("deep/nested/trace.jsonl");
        let written = write_jsonl(&path, &[run], &TraceFilter::default()).unwrap();
        assert_eq!(written, 1);
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"loss_detected\""), "file was:\n{text}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
