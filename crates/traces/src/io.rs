//! A plain-text interchange format for transmission traces, so that real
//! per-receiver loss data (in the style of the Yajnik et al. collections)
//! can be loaded and synthetic traces can be exported.
//!
//! ```text
//! cesrm-trace v1
//! name RFV960419
//! period_ms 80
//! packets 45001
//! node 0 source -
//! node 1 router 0
//! node 2 receiver 1
//! loss 2 430 3 66 1
//! ```
//!
//! `node <id> <kind> <parent>` lines must list ids densely in order (the
//! root first with parent `-`). Each `loss <receiver> …` line carries
//! alternating run lengths of received/lost packets, starting with a
//! received-run; runs must sum to `packets`. Receivers without a `loss`
//! line lost nothing.

use std::error::Error;
use std::fmt;

use topology::{MulticastTree, NodeId, NodeKind};

use crate::{BitSeq, Trace, TraceMeta};

/// Errors from parsing the text trace format.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ParseTraceError {
    /// The `cesrm-trace v1` magic line is missing.
    BadMagic,
    /// A required header (`name`, `period_ms`, `packets`) is missing.
    MissingHeader(&'static str),
    /// A line could not be parsed.
    Malformed {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        what: String,
    },
    /// The node lines do not form a valid multicast tree.
    BadTree(String),
    /// A loss line references an unknown or non-receiver node.
    BadReceiver {
        /// 1-based line number.
        line: usize,
    },
    /// A loss line's run lengths do not sum to the packet count.
    BadRunLength {
        /// 1-based line number.
        line: usize,
    },
}

impl fmt::Display for ParseTraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseTraceError::BadMagic => f.write_str("missing `cesrm-trace v1` header"),
            ParseTraceError::MissingHeader(h) => write!(f, "missing `{h}` header"),
            ParseTraceError::Malformed { line, what } => {
                write!(f, "line {line}: {what}")
            }
            ParseTraceError::BadTree(e) => write!(f, "invalid tree: {e}"),
            ParseTraceError::BadReceiver { line } => {
                write!(f, "line {line}: loss line for a non-receiver node")
            }
            ParseTraceError::BadRunLength { line } => {
                write!(f, "line {line}: run lengths do not sum to the packet count")
            }
        }
    }
}

impl Error for ParseTraceError {}

impl Trace {
    /// Serializes the trace (topology, metadata and loss sequences) into
    /// the `cesrm-trace v1` text format.
    pub fn to_text(&self) -> String {
        use fmt::Write as _;
        let mut out = String::new();
        let meta = self.meta();
        let _ = writeln!(out, "cesrm-trace v1");
        let _ = writeln!(out, "name {}", meta.name);
        let _ = writeln!(out, "period_ms {}", meta.period_ms);
        let _ = writeln!(out, "packets {}", meta.packets);
        let tree = self.tree();
        for n in tree.nodes() {
            let kind = match tree.kind(n) {
                NodeKind::Source => "source",
                NodeKind::Router => "router",
                NodeKind::Receiver => "receiver",
            };
            match tree.parent(n) {
                Some(p) => {
                    let _ = writeln!(out, "node {} {kind} {}", n.index(), p.index());
                }
                None => {
                    let _ = writeln!(out, "node {} {kind} -", n.index());
                }
            }
        }
        for &r in tree.receivers() {
            let seq = self.loss_seq(r);
            if seq.count_ones() == 0 {
                continue;
            }
            let _ = write!(out, "loss {}", r.index());
            // Alternating run lengths, starting with a received-run.
            let mut current = false; // currently counting lost?
            let mut run = 0usize;
            for i in 0..seq.len() {
                let lost = seq.get(i);
                if lost == current {
                    run += 1;
                } else {
                    let _ = write!(out, " {run}");
                    current = lost;
                    run = 1;
                }
            }
            let _ = writeln!(out, " {run}");
        }
        out
    }

    /// Parses the `cesrm-trace v1` text format.
    ///
    /// # Errors
    ///
    /// Returns [`ParseTraceError`] describing the first problem found.
    pub fn from_text(text: &str) -> Result<Trace, ParseTraceError> {
        let mut lines = text.lines().enumerate();
        let Some((_, magic)) = lines.next() else {
            return Err(ParseTraceError::BadMagic);
        };
        if magic.trim() != "cesrm-trace v1" {
            return Err(ParseTraceError::BadMagic);
        }
        let mut name: Option<String> = None;
        let mut period_ms: Option<u64> = None;
        let mut packets: Option<(usize, usize)> = None;
        let mut parents: Vec<Option<NodeId>> = Vec::new();
        let mut kinds: Vec<NodeKind> = Vec::new();
        let mut loss_lines: Vec<(usize, usize, Vec<usize>)> = Vec::new();
        for (idx, raw) in lines {
            let line_no = idx + 1;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.split_whitespace();
            let malformed = |what: &str| ParseTraceError::Malformed {
                line: line_no,
                what: what.to_string(),
            };
            match parts.next() {
                Some("name") => {
                    name = Some(
                        parts
                            .next()
                            .ok_or_else(|| malformed("name needs a value"))?
                            .to_string(),
                    );
                }
                Some("period_ms") => {
                    period_ms = Some(
                        parts
                            .next()
                            .and_then(|v| v.parse().ok())
                            .ok_or_else(|| malformed("period_ms needs an integer"))?,
                    );
                }
                Some("packets") => {
                    let n = parts
                        .next()
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| malformed("packets needs an integer"))?;
                    packets = Some((line_no, n));
                }
                Some("node") => {
                    let id: usize = parts
                        .next()
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| malformed("node needs an id"))?;
                    if id != parents.len() {
                        return Err(malformed("node ids must be dense and in order"));
                    }
                    let kind = match parts.next() {
                        Some("source") => NodeKind::Source,
                        Some("router") => NodeKind::Router,
                        Some("receiver") => NodeKind::Receiver,
                        _ => return Err(malformed("unknown node kind")),
                    };
                    let parent = match parts.next() {
                        Some("-") => None,
                        Some(p) => Some(NodeId(
                            p.parse::<u32>().map_err(|_| malformed("bad parent id"))?,
                        )),
                        None => return Err(malformed("node needs a parent or `-`")),
                    };
                    parents.push(parent);
                    kinds.push(kind);
                }
                Some("loss") => {
                    let id: usize = parts
                        .next()
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| malformed("loss needs a receiver id"))?;
                    let runs: Result<Vec<usize>, _> = parts.map(|v| v.parse::<usize>()).collect();
                    let runs = runs.map_err(|_| malformed("bad run length"))?;
                    loss_lines.push((line_no, id, runs));
                }
                _ => return Err(malformed("unknown directive")),
            }
        }
        let name = name.ok_or(ParseTraceError::MissingHeader("name"))?;
        let period_ms = period_ms.ok_or(ParseTraceError::MissingHeader("period_ms"))?;
        let (packets_line, packets) = packets.ok_or(ParseTraceError::MissingHeader("packets"))?;
        let tree = MulticastTree::from_parents(parents, kinds)
            .map_err(|e| ParseTraceError::BadTree(e.to_string()))?;
        // Every loss line is checked before the first bitmap is allocated:
        // a header must not cost `receivers × packets` bits of memory
        // before the lines that use them are known to fit it.
        let mut lost_runs = Vec::with_capacity(loss_lines.len());
        for (line, id, runs) in loss_lines {
            let row = u32::try_from(id)
                .ok()
                .and_then(|id| tree.receivers().binary_search(&NodeId(id)).ok())
                .ok_or(ParseTraceError::BadReceiver { line })?;
            let total = runs
                .iter()
                .try_fold(0usize, |pos, &run| pos.checked_add(run));
            if total != Some(packets) {
                return Err(ParseTraceError::BadRunLength { line });
            }
            lost_runs.push((row, runs));
        }
        let mut rows = Vec::with_capacity(tree.receivers().len());
        for _ in tree.receivers() {
            rows.push(
                BitSeq::try_new(packets).ok_or_else(|| ParseTraceError::Malformed {
                    line: packets_line,
                    what: format!("{packets} packets do not fit in memory"),
                })?,
            );
        }
        for (row, runs) in lost_runs {
            let mut pos = 0;
            // Runs alternate received, lost, received, …
            for (i, run) in runs.into_iter().enumerate() {
                if i % 2 == 1 {
                    (pos..pos + run).for_each(|bit| rows[row].set(bit));
                }
                pos += run;
            }
        }
        let losses = rows.iter().map(BitSeq::count_ones).sum();
        Ok(Trace::new(
            tree,
            TraceMeta {
                name,
                period_ms,
                packets,
                losses,
            },
            rows,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generate, GeneratorConfig};

    #[test]
    fn roundtrip_preserves_everything() {
        let (trace, _) = generate(&GeneratorConfig::small(13));
        let text = trace.to_text();
        let parsed = Trace::from_text(&text).unwrap();
        assert_eq!(&parsed, &trace);
    }

    #[test]
    fn parses_a_hand_written_trace() {
        let text = "cesrm-trace v1\n\
                    name HAND\n\
                    period_ms 40\n\
                    packets 10\n\
                    # a comment\n\
                    node 0 source -\n\
                    node 1 router 0\n\
                    node 2 receiver 1\n\
                    node 3 receiver 1\n\
                    loss 2 3 2 5\n";
        let trace = Trace::from_text(text).unwrap();
        assert_eq!(trace.meta().name, "HAND");
        assert_eq!(trace.packets(), 10);
        assert_eq!(trace.total_losses(), 2);
        assert!(trace.lost(NodeId(2), 3));
        assert!(trace.lost(NodeId(2), 4));
        assert!(!trace.lost(NodeId(2), 5));
        assert!(!trace.lost(NodeId(3), 3));
    }

    #[test]
    fn lossless_receivers_may_omit_loss_lines() {
        let text = "cesrm-trace v1\nname X\nperiod_ms 80\npackets 4\n\
                    node 0 source -\nnode 1 receiver 0\n";
        let trace = Trace::from_text(text).unwrap();
        assert_eq!(trace.total_losses(), 0);
    }

    #[test]
    fn error_cases() {
        assert_eq!(Trace::from_text(""), Err(ParseTraceError::BadMagic));
        assert_eq!(
            Trace::from_text(
                "cesrm-trace v1\nperiod_ms 80\npackets 4\nnode 0 source -\nnode 1 receiver 0\n"
            ),
            Err(ParseTraceError::MissingHeader("name"))
        );
        let bad_runs = "cesrm-trace v1\nname X\nperiod_ms 80\npackets 4\n\
                        node 0 source -\nnode 1 receiver 0\nloss 1 2 1\n";
        assert!(matches!(
            Trace::from_text(bad_runs),
            Err(ParseTraceError::BadRunLength { .. })
        ));
        let bad_receiver = "cesrm-trace v1\nname X\nperiod_ms 80\npackets 4\n\
                            node 0 source -\nnode 1 receiver 0\nloss 0 4\n";
        assert!(matches!(
            Trace::from_text(bad_receiver),
            Err(ParseTraceError::BadReceiver { .. })
        ));
        let bad_kind = "cesrm-trace v1\nname X\nperiod_ms 80\npackets 4\n\
                        node 0 martian -\n";
        assert!(matches!(
            Trace::from_text(bad_kind),
            Err(ParseTraceError::Malformed { .. })
        ));
        let bad_tree = "cesrm-trace v1\nname X\nperiod_ms 80\npackets 4\n\
                        node 0 source -\nnode 1 router 0\n";
        assert!(matches!(
            Trace::from_text(bad_tree),
            Err(ParseTraceError::BadTree(_))
        ));
        let two_receivers = |packets: &str, loss: &str| {
            format!(
                "cesrm-trace v1\nname X\nperiod_ms 80\npackets {packets}\n\
                 node 0 source -\nnode 1 router 0\nnode 2 receiver 1\nnode 3 receiver 1\n\
                 {loss}\n"
            )
        };
        // 2^32 + 2 is not receiver 2: ids are not truncated to 32 bits.
        assert_eq!(
            Trace::from_text(&two_receivers("4", "loss 4294967298 1 2 1")),
            Err(ParseTraceError::BadReceiver { line: 9 })
        );
        // A huge header is refused by the loss line that does not fill it,
        // before any bitmap is allocated.
        assert_eq!(
            Trace::from_text(&two_receivers("999999999999999", "loss 2 1 2 1")),
            Err(ParseTraceError::BadRunLength { line: 9 })
        );
        // Run lengths whose sum overflows are a bad sum, not a panic.
        assert_eq!(
            Trace::from_text(&two_receivers("4", "loss 2 18446744073709551615 1")),
            Err(ParseTraceError::BadRunLength { line: 9 })
        );
        // Lossless receivers still need their bitmaps: 2^61 bytes each is
        // past any address space, so the header is refused, not aborted on.
        assert!(matches!(
            Trace::from_text(&two_receivers("18446744073709551615", "")),
            Err(ParseTraceError::Malformed { line: 4, .. })
        ));
    }

    #[test]
    fn error_messages_are_descriptive() {
        let e = ParseTraceError::Malformed {
            line: 7,
            what: "bad run length".into(),
        };
        assert_eq!(e.to_string(), "line 7: bad run length");
        assert!(ParseTraceError::BadMagic
            .to_string()
            .contains("cesrm-trace"));
    }
}
