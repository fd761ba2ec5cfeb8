//! Reducer that joins raw trace records into per-loss recovery timelines.
//!
//! A [`RecoveryTimeline`] is keyed by `(receiver, seq)`: one receiver
//! recovering one lost data packet. The reducer walks the record stream in
//! time order and fills in the milestones the paper's latency analysis
//! (Figures 3–5) cares about: when the loss was detected, when the first
//! (expedited or multicast) request left, and when the repair landed —
//! classified [`RecoveryPath::Expedited`] when the winning repair came via
//! CESRM's expedited path and [`RecoveryPath::Fallback`] when plain SRM
//! suppression-based recovery won.

use crate::event::{Event, Record};
use crate::fxhash::FxMap;

/// How a detected loss was ultimately resolved.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecoveryPath {
    /// Recovered by an expedited (cached requestor/replier) repair.
    Expedited,
    /// Recovered by SRM's suppression-based multicast request/repair.
    Fallback,
    /// Loss detected but never recovered within the trace.
    Unrecovered,
    /// Detection was spurious: the original transmission arrived late.
    Spurious,
}

impl RecoveryPath {
    /// Stable uppercase label used in reports (`EXPEDITED` / `FALLBACK` /
    /// `UNRECOVERED` / `SPURIOUS`).
    pub fn as_str(self) -> &'static str {
        match self {
            RecoveryPath::Expedited => "EXPEDITED",
            RecoveryPath::Fallback => "FALLBACK",
            RecoveryPath::Unrecovered => "UNRECOVERED",
            RecoveryPath::Spurious => "SPURIOUS",
        }
    }
}

/// The joined per-loss recovery timeline for one `(receiver, seq)` pair.
///
/// All timestamps are nanoseconds since simulation start; `None` means the
/// milestone never happened within the trace.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RecoveryTimeline {
    /// Receiver that suffered (or believed it suffered) the loss.
    pub receiver: u32,
    /// Data sequence number that went missing.
    pub seq: u64,
    /// Earliest drop of the data packet itself: `(t_ns, link)`. Attributed
    /// from `dropped` events with `class == data`, independent of receiver
    /// (a single link drop loses the packet for the whole subtree).
    pub dropped: Option<(u64, u32)>,
    /// When the receiver noticed the gap.
    pub detected_ns: u64,
    /// When the receiver's first multicast SRM request left.
    pub first_request_ns: Option<u64>,
    /// When the receiver's unicast expedited request left, if any.
    pub expedited_request_ns: Option<u64>,
    /// When the missing packet finally arrived.
    pub recovered_ns: Option<u64>,
    /// How many multicast requests the receiver sent for this loss.
    pub requests: u32,
    /// Final classification.
    pub path: RecoveryPath,
}

impl RecoveryTimeline {
    /// Detection-to-recovery latency, the paper's recovery-latency metric.
    pub fn latency_ns(&self) -> Option<u64> {
        self.recovered_ns
            .map(|r| r.saturating_sub(self.detected_ns))
    }

    /// Time spent waiting before *any* request (expedited or multicast)
    /// left the receiver — the suppression-timer cost CESRM attacks.
    pub fn request_wait_ns(&self) -> Option<u64> {
        let first = match (self.expedited_request_ns, self.first_request_ns) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        first.map(|f| f.saturating_sub(self.detected_ns))
    }

    /// Time between the first outgoing request and the repair landing.
    pub fn repair_wait_ns(&self) -> Option<u64> {
        let first = match (self.expedited_request_ns, self.first_request_ns) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        match (first, self.recovered_ns) {
            (Some(f), Some(r)) => Some(r.saturating_sub(f)),
            _ => None,
        }
    }

    /// Recovery latency expressed in round-trip times to the source, the
    /// unit Figures 3–4 of the paper use. `rtt_ns` is this receiver's RTT.
    pub fn latency_rtts(&self, rtt_ns: u64) -> Option<f64> {
        if rtt_ns == 0 {
            return None;
        }
        self.latency_ns().map(|l| l as f64 / rtt_ns as f64)
    }
}

/// Streaming form of [`reduce`]: feed records one at a time and extract
/// the timelines at the end.
///
/// [`crate::monitor::MonitorSet`] keeps one of these so every invariant
/// violation can carry the in-progress per-loss timeline at the moment it
/// fired, and [`reduce`] is now a thin wrapper over it — both paths share
/// one state machine, so batch and streaming reduction can never drift.
///
/// A timeline is created for **every** `loss_detected` event and is never
/// dropped: a loss with no terminal `recovered`/`spurious` event is
/// reported with [`RecoveryPath::Unrecovered`] (the liveness monitor I1
/// depends on this).
#[derive(Clone, Debug, Default)]
pub struct TimelineBuilder {
    // Hash-keyed (deterministic fixed-seed hasher) because `observe` runs
    // on the monitors' hot path; ordering is reimposed by the explicit
    // sort in `finish`, so hash layout never reaches an observer.
    timelines: FxMap<(u32, u64), RecoveryTimeline>,
    // Earliest drop of each data seq, attributable to every receiver that
    // later reports the loss.
    data_drops: FxMap<u64, (u64, u32)>,
}

impl TimelineBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether a `loss_detected` event for `(receiver, seq)` was observed.
    pub fn contains(&self, receiver: u32, seq: u64) -> bool {
        self.timelines.contains_key(&(receiver, seq))
    }

    /// The in-progress timeline for `(receiver, seq)`, with the earliest
    /// data drop seen so far attached. `None` before the loss is detected.
    pub fn snapshot(&self, receiver: u32, seq: u64) -> Option<RecoveryTimeline> {
        self.timelines.get(&(receiver, seq)).map(|tl| {
            let mut tl = tl.clone();
            tl.dropped = self.data_drops.get(&tl.seq).copied();
            tl
        })
    }

    /// Folds one record into the per-loss state.
    ///
    /// Delegates to the fine-grained `note_*` methods below, which
    /// callers that have already destructured the event (the invariant
    /// monitors' hot path) invoke directly to skip a second match over
    /// the whole 17-variant enum.
    pub fn observe(&mut self, record: &Record) {
        match record.event {
            Event::PacketDropped {
                link,
                class: crate::event::PacketClass::Data,
                seq: Some(seq),
            } => self.note_data_drop(seq, record.t_ns, link),
            Event::LossDetected { node, seq } => self.note_detect(node, seq, record.t_ns),
            Event::RequestSent { node, seq, .. } => self.note_request(node, seq, record.t_ns),
            Event::ExpeditedRequestSent { node, seq, .. } => {
                self.note_expedited_request(node, seq, record.t_ns);
            }
            Event::RecoveryCompleted {
                node,
                seq,
                expedited,
            } => self.note_recovered(node, seq, record.t_ns, expedited),
            Event::SpuriousLoss { node, seq } => self.note_spurious(node, seq, record.t_ns),
            _ => {}
        }
    }

    /// A `packet_dropped` of data `seq` at `t_ns` on `link`; the earliest
    /// drop wins.
    pub fn note_data_drop(&mut self, seq: u64, t_ns: u64, link: u32) {
        let entry = self.data_drops.entry(seq).or_insert((t_ns, link));
        if t_ns < entry.0 {
            *entry = (t_ns, link);
        }
    }

    /// A `loss_detected` at `node` for `seq`; the earliest detection wins.
    pub fn note_detect(&mut self, node: u32, seq: u64, t_ns: u64) {
        self.timelines
            .entry((node, seq))
            .or_insert_with(|| RecoveryTimeline {
                receiver: node,
                seq,
                dropped: None,
                detected_ns: t_ns,
                first_request_ns: None,
                expedited_request_ns: None,
                recovered_ns: None,
                requests: 0,
                path: RecoveryPath::Unrecovered,
            });
    }

    /// A multicast `req_sent` by `node` for `seq`; ignored before the
    /// loss is detected.
    pub fn note_request(&mut self, node: u32, seq: u64, t_ns: u64) {
        if let Some(tl) = self.timelines.get_mut(&(node, seq)) {
            tl.requests += 1;
            if tl.first_request_ns.is_none_or(|t| t_ns < t) {
                tl.first_request_ns = Some(t_ns);
            }
        }
    }

    /// An `exp_req_sent` by `node` for `seq`; ignored before the loss is
    /// detected.
    pub fn note_expedited_request(&mut self, node: u32, seq: u64, t_ns: u64) {
        if let Some(tl) = self.timelines.get_mut(&(node, seq)) {
            if tl.expedited_request_ns.is_none_or(|t| t_ns < t) {
                tl.expedited_request_ns = Some(t_ns);
            }
        }
    }

    /// A `recovered` at `node` for `seq`; the first terminal event wins.
    pub fn note_recovered(&mut self, node: u32, seq: u64, t_ns: u64, expedited: bool) {
        if let Some(tl) = self.timelines.get_mut(&(node, seq)) {
            if tl.recovered_ns.is_none() {
                tl.recovered_ns = Some(t_ns);
                tl.path = if expedited {
                    RecoveryPath::Expedited
                } else {
                    RecoveryPath::Fallback
                };
            }
        }
    }

    /// A `spurious` at `node` for `seq`; the first terminal event wins.
    pub fn note_spurious(&mut self, node: u32, seq: u64, t_ns: u64) {
        if let Some(tl) = self.timelines.get_mut(&(node, seq)) {
            if tl.recovered_ns.is_none() {
                tl.recovered_ns = Some(t_ns);
                tl.path = RecoveryPath::Spurious;
            }
        }
    }

    /// Consumes the builder: every detected loss becomes one timeline
    /// (explicitly [`RecoveryPath::Unrecovered`] when no terminal event
    /// arrived), sorted by `(receiver, seq)`, with the earliest data drop
    /// attached.
    pub fn finish(self) -> Vec<RecoveryTimeline> {
        let data_drops = self.data_drops;
        let mut out: Vec<RecoveryTimeline> = self.timelines.into_values().collect();
        // The map is hash-ordered; the sort makes the output a pure
        // function of the stream again (ascending (receiver, seq), as
        // documented).
        out.sort_unstable_by_key(|tl| (tl.receiver, tl.seq));
        for tl in &mut out {
            tl.dropped = data_drops.get(&tl.seq).copied();
        }
        out
    }
}

/// Join a time-ordered record stream into per-loss timelines.
///
/// Timelines are created only for `(receiver, seq)` pairs that produced a
/// `loss_detected` event; output is sorted by `(receiver, seq)`. Records
/// need not be globally sorted, but milestones honour "first event wins"
/// using each record's timestamp.
pub fn reduce(records: impl IntoIterator<Item = Record>) -> Vec<RecoveryTimeline> {
    let mut builder = TimelineBuilder::new();
    for record in records {
        builder.observe(&record);
    }
    builder.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::PacketClass;

    fn rec(t_ns: u64, event: Event) -> Record {
        Record { t_ns, event }
    }

    /// Hand-built expedited timeline: drop → detect → cache hit →
    /// expedited request → expedited recovery.
    #[test]
    fn classifies_expedited_timeline() {
        let records = vec![
            rec(
                1_000,
                Event::PacketDropped {
                    link: 4,
                    class: PacketClass::Data,
                    seq: Some(7),
                },
            ),
            rec(5_000, Event::LossDetected { node: 2, seq: 7 }),
            rec(
                5_000,
                Event::CacheHit {
                    node: 2,
                    seq: 7,
                    requestor: 2,
                    replier: 9,
                },
            ),
            rec(
                6_000,
                Event::ExpeditedRequestSent {
                    node: 2,
                    seq: 7,
                    replier: 9,
                },
            ),
            rec(
                20_000,
                Event::RecoveryCompleted {
                    node: 2,
                    seq: 7,
                    expedited: true,
                },
            ),
        ];
        let timelines = reduce(records);
        assert_eq!(timelines.len(), 1);
        let tl = &timelines[0];
        assert_eq!(tl.path, RecoveryPath::Expedited);
        assert_eq!(tl.dropped, Some((1_000, 4)));
        assert_eq!(tl.detected_ns, 5_000);
        assert_eq!(tl.expedited_request_ns, Some(6_000));
        assert_eq!(tl.first_request_ns, None);
        assert_eq!(tl.latency_ns(), Some(15_000));
        assert_eq!(tl.request_wait_ns(), Some(1_000));
        assert_eq!(tl.repair_wait_ns(), Some(14_000));
        assert_eq!(tl.latency_rtts(10_000), Some(1.5));
    }

    /// Hand-built fallback timeline: detect → cache miss → scheduled and
    /// eventually fired multicast request → plain repair.
    #[test]
    fn classifies_fallback_timeline() {
        let records = vec![
            rec(5_000, Event::LossDetected { node: 3, seq: 8 }),
            rec(5_000, Event::CacheMiss { node: 3, seq: 8 }),
            rec(
                5_000,
                Event::RequestScheduled {
                    node: 3,
                    seq: 8,
                    round: 0,
                    delay_ns: 7_000,
                },
            ),
            rec(
                12_000,
                Event::RequestSent {
                    node: 3,
                    seq: 8,
                    round: 1,
                },
            ),
            rec(
                40_000,
                Event::RecoveryCompleted {
                    node: 3,
                    seq: 8,
                    expedited: false,
                },
            ),
        ];
        let timelines = reduce(records);
        assert_eq!(timelines.len(), 1);
        let tl = &timelines[0];
        assert_eq!(tl.path, RecoveryPath::Fallback);
        assert_eq!(tl.requests, 1);
        assert_eq!(tl.first_request_ns, Some(12_000));
        assert_eq!(tl.expedited_request_ns, None);
        assert_eq!(tl.latency_ns(), Some(35_000));
        assert_eq!(tl.request_wait_ns(), Some(7_000));
        assert_eq!(tl.repair_wait_ns(), Some(28_000));
    }

    #[test]
    fn unrecovered_and_spurious_are_distinguished() {
        let records = vec![
            rec(1, Event::LossDetected { node: 1, seq: 1 }),
            rec(2, Event::LossDetected { node: 2, seq: 2 }),
            rec(9, Event::SpuriousLoss { node: 2, seq: 2 }),
        ];
        let timelines = reduce(records);
        assert_eq!(timelines[0].path, RecoveryPath::Unrecovered);
        assert_eq!(timelines[0].latency_ns(), None);
        assert_eq!(timelines[1].path, RecoveryPath::Spurious);
    }

    #[test]
    fn first_recovery_wins() {
        let records = vec![
            rec(0, Event::LossDetected { node: 1, seq: 1 }),
            rec(
                10,
                Event::RecoveryCompleted {
                    node: 1,
                    seq: 1,
                    expedited: true,
                },
            ),
            rec(
                20,
                Event::RecoveryCompleted {
                    node: 1,
                    seq: 1,
                    expedited: false,
                },
            ),
        ];
        let timelines = reduce(records);
        assert_eq!(timelines[0].path, RecoveryPath::Expedited);
        assert_eq!(timelines[0].recovered_ns, Some(10));
    }

    #[test]
    fn events_without_detection_create_no_timeline() {
        let records = vec![rec(
            1,
            Event::RequestSent {
                node: 5,
                seq: 5,
                round: 1,
            },
        )];
        assert!(reduce(records).is_empty());
    }
}
