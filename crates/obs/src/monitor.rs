//! Online protocol invariant monitors: streaming checkers fed at emit
//! time through [`crate::Instruments`].
//!
//! The paper's correctness claims (Livadas & Keidar, DSN 2004) are stated
//! as protocol invariants — every detected loss is eventually recovered,
//! caches only ever name requestor/replier pairs announced by a prior
//! cache update, suppression actually suppresses — but aggregate metrics
//! cannot tell a violated invariant from ordinary workload drift. A
//! [`MonitorSet`] watches the raw 17-variant [`Event`] stream as it is
//! produced (no new instrumentation protocol: monitors are pure consumers
//! behind the same closure-deferred [`crate::Instruments::emit`], so a run
//! without monitors pays nothing) and reports:
//!
//! * **Violations** — hard invariant breaches, one [`Violation`] each,
//!   carrying the sim-time, the offending node, and the in-progress
//!   per-loss [`RecoveryTimeline`] from [`crate::provenance`] when the
//!   violation concerns a tracked loss. The six shipped invariants are
//!   catalogued on [`Invariant`] and in `docs/MONITORS.md`.
//! * **Anomalies** — statistical warnings that are not protocol errors:
//!   spurious-repair storms (many repairs for one sequence number) and
//!   recovery-latency outliers flagged against the run's own exact
//!   latency percentiles.
//!
//! Everything a monitor computes is a pure function of the event stream,
//! which itself is a pure function of the run configuration — so health
//! reports are deterministic at any worker count and a monitored run's
//! measurements are byte-identical to an unmonitored one.

use crate::event::{Event, PacketClass, Record};
use crate::fxhash::{FxMap, FxSet};
use crate::provenance::{RecoveryPath, RecoveryTimeline, TimelineBuilder};
use crate::tally::EventTally;

/// Conservation tally (I5) for one (origin, class, seq) packet stream:
/// how many copies the origin sent, and which receivers have taken their
/// first delivery. One compact entry per *unique packet* — not per
/// (packet, receiver) — keeps the table cache-resident on the hot
/// `packet_delivered` path; counts past the first delivery spill to
/// [`MonitorSet::delivery_overflow`], which a healthy run never touches.
#[derive(Clone, Copy, Default, Debug)]
struct Tally {
    sent: u64,
    /// Bitmap of receivers (node id < 64) that took their first delivery
    /// (Table-1 topologies top out at ~35 nodes; larger ids spill to the
    /// overflow map).
    seen: u64,
}

/// Data sequence numbers are dense (the source allocates them
/// consecutively), so tallies for seqs below this bound live in a
/// seq-indexed `Vec` — the dominant `packet_sent` / `packet_delivered`
/// accesses then walk the hot tail of an array instead of hashing into a
/// run-sized table. Anything above (or `seq: None`) falls back to the
/// sparse map.
const DENSE_SEQ_LIMIT: u64 = 1 << 20;

/// Per-seq conservation tallies for one dense sequence number.
///
/// `first` inlines the one sender nearly every seq has (the source's Data
/// transmission); repair/request senders for the same seq — a handful,
/// and only for lost seqs — spill to the linear-scan `rest`.
#[derive(Clone, Debug, Default)]
struct SeqSlot {
    first: Option<(u32, PacketClass, Tally)>,
    rest: Vec<(u32, PacketClass, Tally)>,
}

impl SeqSlot {
    #[inline]
    fn tally_mut(&mut self, origin: u32, class: PacketClass) -> &mut Tally {
        if self
            .first
            .as_ref()
            .is_none_or(|(o, c, _)| *o == origin && *c == class)
        {
            return &mut self
                .first
                .get_or_insert((origin, class, Tally::default()))
                .2;
        }
        let pos = self
            .rest
            .iter()
            .position(|(o, c, _)| *o == origin && *c == class)
            .unwrap_or_else(|| {
                self.rest.push((origin, class, Tally::default()));
                self.rest.len() - 1
            });
        &mut self.rest[pos].2
    }
}

/// The catalogue of checked protocol invariants (see `docs/MONITORS.md`
/// for the precise statement and the emit-site reasoning behind each).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Invariant {
    /// I1 — liveness: every detected loss reaches `recovered` (or is
    /// declared spurious) before end-of-run.
    Liveness,
    /// I2 — no orphan repairs: every repair names a requestor that
    /// previously detected the loss being repaired.
    OrphanRepair,
    /// I3 — suppression health: once a request/reply timer is suppressed,
    /// nothing is sent for that (node, seq) until it is re-armed.
    Suppression,
    /// I4 — cache coherence: every expedited request names a
    /// (requestor, replier) pair recorded by a prior cache update.
    CacheCoherence,
    /// I5 — conservation: per (origin, class, seq), deliveries to any one
    /// node never exceed sends, and nothing is delivered before it is sent.
    Conservation,
    /// I6 — monotone causality: timestamps never decrease in stream order
    /// and every `recovered` is preceded by its `loss_detected`.
    Causality,
}

impl Invariant {
    /// All six invariants, in catalogue (I1..I6) order.
    pub const ALL: [Invariant; 6] = [
        Invariant::Liveness,
        Invariant::OrphanRepair,
        Invariant::Suppression,
        Invariant::CacheCoherence,
        Invariant::Conservation,
        Invariant::Causality,
    ];

    /// Stable short identifier (`"I1"` … `"I6"`).
    pub fn id(self) -> &'static str {
        match self {
            Invariant::Liveness => "I1",
            Invariant::OrphanRepair => "I2",
            Invariant::Suppression => "I3",
            Invariant::CacheCoherence => "I4",
            Invariant::Conservation => "I5",
            Invariant::Causality => "I6",
        }
    }

    /// Stable lowercase name used in the report's `health` member.
    pub fn name(self) -> &'static str {
        match self {
            Invariant::Liveness => "liveness",
            Invariant::OrphanRepair => "orphan-repair",
            Invariant::Suppression => "suppression",
            Invariant::CacheCoherence => "cache-coherence",
            Invariant::Conservation => "conservation",
            Invariant::Causality => "causality",
        }
    }
}

/// One hard invariant breach.
#[derive(Clone, Debug, PartialEq)]
pub struct Violation {
    /// Which invariant was broken.
    pub invariant: Invariant,
    /// Simulation time of the offending event (end-of-stream time for
    /// liveness violations, which only materialize at [`MonitorSet::finish`]).
    pub t_ns: u64,
    /// Node the violation is attributed to.
    pub node: u32,
    /// Data sequence number involved, when the event names one.
    pub seq: Option<u64>,
    /// Human-readable description of what was observed vs expected.
    pub detail: String,
    /// The in-progress per-loss timeline for the loss the violation
    /// concerns, when one is being tracked (see [`crate::provenance`]).
    pub timeline: Option<RecoveryTimeline>,
}

/// Classification of a statistical [`Anomaly`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AnomalyKind {
    /// Repairs for one sequence number reached the storm threshold —
    /// duplicate suppression is not doing its job, even if no hard
    /// invariant broke ("SRM at 30"'s silent failure mode).
    RepairStorm,
    /// A recovery's detection→repair latency is an extreme outlier against
    /// the run's own latency distribution.
    RecoveryOutlier,
}

impl AnomalyKind {
    /// Stable lowercase name used in the report's `health` member.
    pub fn name(self) -> &'static str {
        match self {
            AnomalyKind::RepairStorm => "repair-storm",
            AnomalyKind::RecoveryOutlier => "recovery-outlier",
        }
    }
}

/// One statistical warning (not a protocol error).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Anomaly {
    /// What kind of anomaly.
    pub kind: AnomalyKind,
    /// Simulation time the anomaly was established.
    pub t_ns: u64,
    /// Node the anomaly is attributed to.
    pub node: u32,
    /// Data sequence number involved.
    pub seq: u64,
    /// Human-readable description with the triggering numbers.
    pub detail: String,
}

/// Tuning knobs for anomaly detection and report bounding.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MonitorConfig {
    /// Total repairs (plain + expedited) for a single sequence number at
    /// which a [`AnomalyKind::RepairStorm`] anomaly fires.
    pub repair_storm_threshold: u32,
    /// A completed recovery is an outlier when its latency exceeds both
    /// the run's p99 and `outlier_factor ×` its median.
    pub outlier_factor: u64,
    /// Maximum violations kept in the report (the total is still counted
    /// in [`MonitorStats::violations`]); bounds a pathological run.
    pub max_violations: usize,
    /// Maximum anomalies kept in the report (total still counted).
    pub max_anomalies: usize,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        MonitorConfig {
            repair_storm_threshold: 8,
            outlier_factor: 8,
            max_violations: 100,
            max_anomalies: 32,
        }
    }
}

/// Deterministic summary counters of one monitored run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MonitorStats {
    /// Records observed.
    pub events: u64,
    /// Total violations (including any beyond the kept list).
    pub violations: u64,
    /// Total anomalies (including any beyond the kept list).
    pub anomalies: u64,
    /// Losses detected (timelines opened).
    pub losses: u64,
    /// Losses that reached `recovered`.
    pub recovered: u64,
    /// Losses with no terminal event by end-of-run.
    pub unrecovered: u64,
    /// Detections voided by a late original transmission.
    pub spurious: u64,
    /// Recoveries won by the expedited path.
    pub expedited: u64,
    /// Recoveries won by SRM suppression-based recovery.
    pub fallback: u64,
    /// Multicast requests sent.
    pub requests_sent: u64,
    /// Request timers backed off by overheard requests.
    pub requests_suppressed: u64,
    /// Repairs sent (plain `rep_sent` only).
    pub replies_sent: u64,
    /// Reply timers cancelled by overheard repairs.
    pub replies_suppressed: u64,
    /// Unicast expedited requests sent.
    pub expedited_requests: u64,
    /// Expedited repairs sent.
    pub expedited_replies: u64,
    /// Cache consults that produced a usable pair.
    pub cache_hits: u64,
    /// Cache consults that fell back to plain SRM.
    pub cache_misses: u64,
    /// Cache updates absorbed from observed recoveries.
    pub cache_updates: u64,
    /// Median detection→recovery latency of completed recoveries.
    pub latency_p50_ns: Option<u64>,
    /// 99th-percentile detection→recovery latency.
    pub latency_p99_ns: Option<u64>,
    /// Slowest completed recovery.
    pub latency_max_ns: Option<u64>,
}

/// Everything a finished [`MonitorSet`] has to say about one run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MonitorReport {
    /// Deterministic summary counters.
    pub stats: MonitorStats,
    /// Kept violations, in detection order (stream order, then liveness
    /// violations sorted by `(receiver, seq)` at finish).
    pub violations: Vec<Violation>,
    /// Kept anomalies, in detection order.
    pub anomalies: Vec<Anomaly>,
}

impl MonitorReport {
    /// `true` when no invariant was violated (anomalies don't count:
    /// they are warnings, not protocol errors).
    pub fn is_healthy(&self) -> bool {
        self.stats.violations == 0
    }
}

/// The streaming invariant-checking engine.
///
/// Feed it every [`Record`] in emit order via [`MonitorSet::observe`]
/// (or, in production, attach it to a handle with
/// [`crate::Setup::monitors`]; the handle does the feeding), then
/// call [`MonitorSet::finish`] for the [`MonitorReport`].
#[derive(Clone, Debug, Default)]
pub struct MonitorSet {
    cfg: MonitorConfig,
    stats: MonitorStats,
    /// Records seen by kind: the per-kind [`MonitorStats`] at finish.
    tally: EventTally,
    /// Shared per-loss state machine with `provenance::reduce`.
    timelines: TimelineBuilder,
    last_t_ns: u64,
    /// (node, seq) pairs whose request timer is suppressed-without-re-arm.
    req_suppressed: FxSet<(u32, u64)>,
    /// (node, seq) pairs whose reply timer is cancelled-without-re-arm.
    rep_suppressed: FxSet<(u32, u64)>,
    /// (node, requestor, replier) triples announced by cache updates.
    cache_pairs: FxSet<(u32, u32, u32)>,
    /// Repliers named by cache hits, per (node, seq); a short linear-scan
    /// vec — a loss rarely hits more than one or two cached pairs.
    hit_repliers: FxMap<(u32, u64), Vec<u32>>,
    /// Conservation tallies for dense seqs, indexed by seq. Hot path.
    dense_tallies: Vec<SeqSlot>,
    /// Conservation tallies for `seq: None` and out-of-range seqs.
    sparse_tallies: FxMap<(u32, PacketClass, Option<u64>), Tally>,
    /// Per-receiver delivery counts the [`Tally`] bitmap can't carry:
    /// second-and-later deliveries, and node ids ≥ 64.
    delivery_overflow: FxMap<(u32, PacketClass, Option<u64>, u32), u64>,
    /// Repairs (plain + expedited) per seq, for storm detection.
    repairs_per_seq: FxMap<u64, u32>,
    violations: Vec<Violation>,
    anomalies: Vec<Anomaly>,
}

impl MonitorSet {
    /// A monitor set with custom anomaly thresholds.
    pub fn new(cfg: MonitorConfig) -> Self {
        MonitorSet {
            cfg,
            ..MonitorSet::default()
        }
    }

    /// The standard monitor set: all six invariants, default thresholds.
    pub fn standard() -> Self {
        MonitorSet::new(MonitorConfig::default())
    }

    /// Violations found so far (liveness violations only appear after
    /// [`MonitorSet::finish`]).
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    fn violation(
        &mut self,
        invariant: Invariant,
        t_ns: u64,
        node: u32,
        seq: Option<u64>,
        loss: Option<(u32, u64)>,
        detail: String,
    ) {
        self.stats.violations += 1;
        if self.violations.len() < self.cfg.max_violations {
            let timeline = loss.and_then(|(receiver, s)| self.timelines.snapshot(receiver, s));
            self.violations.push(Violation {
                invariant,
                t_ns,
                node,
                seq,
                detail,
                timeline,
            });
        }
    }

    /// The conservation tally for one (origin, class, seq) — dense-seq
    /// array in the common case, sparse map otherwise (see
    /// [`DENSE_SEQ_LIMIT`]).
    #[inline]
    fn tally_mut(&mut self, origin: u32, class: PacketClass, seq: Option<u64>) -> &mut Tally {
        match seq {
            Some(s) if s < DENSE_SEQ_LIMIT => {
                let idx = s as usize;
                if idx >= self.dense_tallies.len() {
                    self.dense_tallies.resize_with(idx + 1, SeqSlot::default);
                }
                self.dense_tallies[idx].tally_mut(origin, class)
            }
            _ => self.sparse_tallies.entry((origin, class, seq)).or_default(),
        }
    }

    fn anomaly(&mut self, kind: AnomalyKind, t_ns: u64, node: u32, seq: u64, detail: String) {
        self.stats.anomalies += 1;
        if self.anomalies.len() < self.cfg.max_anomalies {
            self.anomalies.push(Anomaly {
                kind,
                t_ns,
                node,
                seq,
                detail,
            });
        }
    }

    /// Checks one record against every invariant, in emit order.
    pub fn observe(&mut self, record: &Record) {
        self.tally.observe(&record.event);
        let t = record.t_ns;

        // I6a: timestamps never decrease in stream order.
        if t < self.last_t_ns {
            let last = self.last_t_ns;
            self.violation(
                Invariant::Causality,
                t,
                record.event.node(),
                record.event.seq(),
                None,
                format!(
                    "{} at t={t} after an event at t={last}: simulation time ran backwards",
                    record.event.name()
                ),
            );
        } else {
            self.last_t_ns = t;
        }

        match record.event {
            Event::PacketSent {
                node, class, seq, ..
            } => {
                self.tally_mut(node, class, seq).sent += 1;
            }
            Event::PacketDelivered {
                node,
                class,
                seq,
                origin,
            } => {
                let tally = self.tally_mut(origin, class, seq);
                let sent = tally.sent;
                let first = node < 64 && tally.seen & (1u64 << node) == 0;
                let delivered = if first {
                    tally.seen |= 1u64 << node;
                    1
                } else {
                    // Bit already set (a duplicate) or unbitmappable node:
                    // spill to the per-receiver overflow counts. A node
                    // < 64 landing here already took one bitmapped
                    // delivery, so its count starts at the second.
                    let n = self
                        .delivery_overflow
                        .entry((origin, class, seq, node))
                        .or_insert(u64::from(node < 64));
                    *n += 1;
                    *n
                };
                // I5: nothing is delivered before it is sent, and one
                // receiver never sees more copies than the origin sent.
                if sent == 0 {
                    self.violation(
                        Invariant::Conservation,
                        t,
                        node,
                        seq,
                        None,
                        format!(
                            "{} packet from {origin} delivered to {node} with no prior send",
                            class.as_str()
                        ),
                    );
                } else if delivered > sent {
                    self.violation(
                        Invariant::Conservation,
                        t,
                        node,
                        seq,
                        None,
                        format!(
                            "{} packet from {origin}: {delivered} deliveries to {node} exceed \
                             {sent} sends",
                            class.as_str()
                        ),
                    );
                }
            }
            Event::LossDetected { node, seq } => {
                self.timelines.note_detect(node, seq, t);
            }
            Event::RequestScheduled { node, seq, .. } => {
                self.req_suppressed.remove(&(node, seq));
            }
            Event::RequestSuppressed { node, seq, .. } => {
                self.req_suppressed.insert((node, seq));
            }
            Event::RequestSent { node, seq, .. } => {
                // I3: a suppressed request must be re-armed (req_scheduled)
                // before this node may send for this loss again.
                if self.req_suppressed.remove(&(node, seq)) {
                    self.violation(
                        Invariant::Suppression,
                        t,
                        node,
                        Some(seq),
                        Some((node, seq)),
                        format!(
                            "request for seq {seq} sent by {node} while its timer was \
                             suppressed and never re-armed"
                        ),
                    );
                }
                self.timelines.note_request(node, seq, t);
            }
            Event::ReplyScheduled { node, seq, .. } => {
                self.rep_suppressed.remove(&(node, seq));
            }
            Event::ReplySuppressed { node, seq, .. } => {
                self.rep_suppressed.insert((node, seq));
            }
            Event::ReplySent {
                node,
                seq,
                requestor,
                ..
            } => {
                self.note_repair(t, node, seq);
                // I3: a cancelled reply timer must be re-armed first.
                if self.rep_suppressed.remove(&(node, seq)) {
                    self.violation(
                        Invariant::Suppression,
                        t,
                        node,
                        Some(seq),
                        Some((requestor, seq)),
                        format!(
                            "repair for seq {seq} sent by {node} while its reply timer was \
                             suppressed and never re-armed"
                        ),
                    );
                }
                // I2: the requestor being answered must have detected the loss.
                if !self.timelines.contains(requestor, seq) {
                    self.violation(
                        Invariant::OrphanRepair,
                        t,
                        node,
                        Some(seq),
                        None,
                        format!(
                            "repair for seq {seq} sent by {node} names requestor {requestor}, \
                             which never detected that loss"
                        ),
                    );
                }
            }
            Event::ExpeditedRequestSent { node, seq, replier } => {
                // I4: the unicast destination must come from a cache hit.
                let hit = self
                    .hit_repliers
                    .get(&(node, seq))
                    .is_some_and(|repliers| repliers.contains(&replier));
                if !hit {
                    self.violation(
                        Invariant::CacheCoherence,
                        t,
                        node,
                        Some(seq),
                        Some((node, seq)),
                        format!(
                            "expedited request for seq {seq} unicast by {node} to {replier} \
                             without a cache hit naming that replier"
                        ),
                    );
                }
                self.timelines.note_expedited_request(node, seq, t);
            }
            Event::ExpeditedReplySent {
                node,
                seq,
                requestor,
                ..
            } => {
                self.note_repair(t, node, seq);
                // I2, expedited flavour.
                if !self.timelines.contains(requestor, seq) {
                    self.violation(
                        Invariant::OrphanRepair,
                        t,
                        node,
                        Some(seq),
                        None,
                        format!(
                            "expedited repair for seq {seq} sent by {node} names requestor \
                             {requestor}, which never detected that loss"
                        ),
                    );
                }
            }
            Event::CacheHit {
                node,
                seq,
                requestor,
                replier,
            } => {
                // I4: the pair must have been announced by a cache update.
                let known = self.cache_pairs.contains(&(node, requestor, replier));
                if !known {
                    self.violation(
                        Invariant::CacheCoherence,
                        t,
                        node,
                        Some(seq),
                        Some((node, seq)),
                        format!(
                            "cache hit at {node} for seq {seq} names pair \
                             ({requestor}, {replier}) never recorded by a cache update"
                        ),
                    );
                }
                let repliers = self.hit_repliers.entry((node, seq)).or_default();
                if !repliers.contains(&replier) {
                    repliers.push(replier);
                }
            }
            Event::CacheUpdate {
                node,
                requestor,
                replier,
                ..
            } => {
                self.cache_pairs.insert((node, requestor, replier));
            }
            Event::RecoveryCompleted {
                node,
                seq,
                expedited,
            } => {
                // I6b: every recovered is preceded by its detect.
                if !self.timelines.contains(node, seq) {
                    self.violation(
                        Invariant::Causality,
                        t,
                        node,
                        Some(seq),
                        None,
                        format!("seq {seq} recovered at {node} without a prior loss_detected"),
                    );
                }
                self.timelines.note_recovered(node, seq, t, expedited);
            }
            Event::PacketDropped {
                link,
                class: PacketClass::Data,
                seq: Some(seq),
            } => {
                self.timelines.note_data_drop(seq, t, link);
            }
            Event::SpuriousLoss { node, seq } => {
                self.timelines.note_spurious(node, seq, t);
            }
            Event::PacketDropped { .. } | Event::CacheMiss { .. } => {}
        }
    }

    fn note_repair(&mut self, t_ns: u64, node: u32, seq: u64) {
        let count = self.repairs_per_seq.entry(seq).or_insert(0);
        *count += 1;
        let count = *count;
        if count == self.cfg.repair_storm_threshold {
            let threshold = self.cfg.repair_storm_threshold;
            self.anomaly(
                AnomalyKind::RepairStorm,
                t_ns,
                node,
                seq,
                format!(
                    "seq {seq} has drawn {threshold} repairs — duplicate suppression is not \
                     holding for this loss"
                ),
            );
        }
    }

    /// Closes the stream: liveness (I1) is judged, recovery-latency
    /// outliers are flagged, and the final [`MonitorReport`] is built.
    pub fn finish(mut self) -> MonitorReport {
        let n = |kind| self.tally.count(kind);
        self.stats = MonitorStats {
            events: self.tally.total(),
            losses: n("loss_detected"),
            requests_sent: n("req_sent"),
            requests_suppressed: n("req_suppressed"),
            replies_sent: n("rep_sent"),
            replies_suppressed: n("rep_suppressed"),
            expedited_requests: n("xreq_sent"),
            expedited_replies: n("xrep_sent"),
            cache_hits: n("cache_hit"),
            cache_misses: n("cache_miss"),
            cache_updates: n("cache_update"),
            ..self.stats
        };
        let end_ns = self.last_t_ns;
        let timelines = std::mem::take(&mut self.timelines).finish();
        let mut completed: Vec<(u32, u64, u64, u64)> = Vec::new();
        for tl in &timelines {
            match tl.path {
                RecoveryPath::Unrecovered => {
                    self.stats.unrecovered += 1;
                    self.stats.violations += 1;
                    if self.violations.len() < self.cfg.max_violations {
                        let (receiver, seq) = (tl.receiver, tl.seq);
                        self.violations.push(Violation {
                            invariant: Invariant::Liveness,
                            t_ns: end_ns,
                            node: receiver,
                            seq: Some(seq),
                            detail: format!(
                                "loss of seq {seq} at {receiver} detected at t={} was never \
                                 recovered by end-of-run",
                                tl.detected_ns
                            ),
                            timeline: Some(tl.clone()),
                        });
                    }
                }
                RecoveryPath::Spurious => self.stats.spurious += 1,
                RecoveryPath::Expedited => self.stats.expedited += 1,
                RecoveryPath::Fallback => self.stats.fallback += 1,
            }
            if matches!(tl.path, RecoveryPath::Expedited | RecoveryPath::Fallback) {
                self.stats.recovered += 1;
                if let Some(lat) = tl.latency_ns() {
                    completed.push((tl.receiver, tl.seq, tl.recovered_ns.unwrap_or(end_ns), lat));
                }
            }
        }
        let mut latencies: Vec<u64> = completed.iter().map(|c| c.3).collect();
        latencies.sort_unstable();
        // Nearest rank: the ⌈q·n⌉-th smallest latency (`None` when empty).
        let quantile = |q: f64| {
            let rank = (q * latencies.len() as f64).ceil().max(1.0) as usize;
            latencies.get(rank - 1).copied()
        };
        self.stats.latency_p50_ns = quantile(0.5);
        self.stats.latency_p99_ns = quantile(0.99);
        self.stats.latency_max_ns = latencies.last().copied();
        // Outliers need enough mass for the percentiles to mean anything.
        if completed.len() >= 16 {
            let p50 = self.stats.latency_p50_ns.unwrap_or(0).max(1);
            let p99 = self.stats.latency_p99_ns.unwrap_or(u64::MAX);
            let factor = self.cfg.outlier_factor;
            for (receiver, seq, recovered_ns, lat) in completed {
                if lat >= p99 && lat / p50 >= factor {
                    self.anomaly(
                        AnomalyKind::RecoveryOutlier,
                        recovered_ns,
                        receiver,
                        seq,
                        format!(
                            "recovery of seq {seq} at {receiver} took {lat} ns — {}× the run \
                             median of {p50} ns",
                            lat / p50
                        ),
                    );
                }
            }
        }
        MonitorReport {
            stats: self.stats,
            violations: self.violations,
            anomalies: self.anomalies,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(t_ns: u64, event: Event) -> Record {
        Record { t_ns, event }
    }

    fn run(records: &[Record]) -> MonitorReport {
        let mut m = MonitorSet::standard();
        for r in records {
            m.observe(r);
        }
        m.finish()
    }

    fn ids(report: &MonitorReport) -> Vec<&'static str> {
        report.violations.iter().map(|v| v.invariant.id()).collect()
    }

    /// A complete, healthy expedited recovery: every invariant holds.
    fn healthy_sequence() -> Vec<Record> {
        use crate::event::Cast;
        vec![
            rec(
                0,
                Event::PacketSent {
                    node: 0,
                    class: PacketClass::Data,
                    seq: Some(7),
                    cast: Cast::Multicast,
                },
            ),
            rec(
                500,
                Event::PacketDropped {
                    link: 2,
                    class: PacketClass::Data,
                    seq: Some(7),
                },
            ),
            rec(1_000, Event::LossDetected { node: 2, seq: 7 }),
            rec(
                1_000,
                Event::CacheUpdate {
                    node: 2,
                    seq: 5,
                    requestor: 2,
                    replier: 9,
                },
            ),
            rec(
                1_100,
                Event::CacheHit {
                    node: 2,
                    seq: 7,
                    requestor: 2,
                    replier: 9,
                },
            ),
            rec(
                1_200,
                Event::ExpeditedRequestSent {
                    node: 2,
                    seq: 7,
                    replier: 9,
                },
            ),
            rec(
                1_200,
                Event::PacketSent {
                    node: 2,
                    class: PacketClass::ExpeditedRequest,
                    seq: Some(7),
                    cast: Cast::Unicast,
                },
            ),
            rec(
                2_000,
                Event::PacketDelivered {
                    node: 9,
                    class: PacketClass::ExpeditedRequest,
                    seq: Some(7),
                    origin: 2,
                },
            ),
            rec(
                2_100,
                Event::ExpeditedReplySent {
                    node: 9,
                    seq: 7,
                    requestor: 2,
                    subcast: false,
                },
            ),
            rec(
                2_100,
                Event::PacketSent {
                    node: 9,
                    class: PacketClass::ExpeditedReply,
                    seq: Some(7),
                    cast: Cast::Multicast,
                },
            ),
            rec(
                3_000,
                Event::PacketDelivered {
                    node: 2,
                    class: PacketClass::ExpeditedReply,
                    seq: Some(7),
                    origin: 9,
                },
            ),
            rec(
                3_000,
                Event::RecoveryCompleted {
                    node: 2,
                    seq: 7,
                    expedited: true,
                },
            ),
        ]
    }

    #[test]
    fn healthy_stream_has_no_violations() {
        let report = run(&healthy_sequence());
        assert!(report.is_healthy(), "{:?}", report.violations);
        assert_eq!(report.stats.losses, 1);
        assert_eq!(report.stats.expedited, 1);
        assert_eq!(report.stats.unrecovered, 0);
        assert_eq!(report.stats.events, healthy_sequence().len() as u64);
        assert_eq!(report.stats.latency_max_ns, Some(2_000));
    }

    #[test]
    fn i1_fires_on_unrecovered_loss_with_timeline() {
        let report = run(&[
            rec(1_000, Event::LossDetected { node: 3, seq: 9 }),
            rec(
                1_500,
                Event::RequestSent {
                    node: 3,
                    seq: 9,
                    round: 1,
                },
            ),
        ]);
        assert_eq!(ids(&report), vec!["I1"]);
        let v = &report.violations[0];
        assert_eq!((v.node, v.seq), (3, Some(9)));
        let tl = v.timeline.as_ref().expect("liveness carries the timeline");
        assert_eq!(tl.path, RecoveryPath::Unrecovered);
        assert_eq!(tl.detected_ns, 1_000);
        assert_eq!(tl.first_request_ns, Some(1_500));
        assert_eq!(report.stats.unrecovered, 1);
    }

    #[test]
    fn i2_fires_on_orphan_repair() {
        let report = run(&[
            rec(1_000, Event::LossDetected { node: 2, seq: 7 }),
            rec(
                2_000,
                Event::ReplySent {
                    node: 5,
                    seq: 7,
                    requestor: 4, // node 4 never detected seq 7
                    expedited: false,
                },
            ),
            rec(
                3_000,
                Event::RecoveryCompleted {
                    node: 2,
                    seq: 7,
                    expedited: false,
                },
            ),
        ]);
        assert_eq!(ids(&report), vec!["I2"]);
        assert!(report.violations[0].detail.contains("requestor 4"));
    }

    #[test]
    fn i2_fires_on_orphan_expedited_repair() {
        let report = run(&[rec(
            2_000,
            Event::ExpeditedReplySent {
                node: 5,
                seq: 7,
                requestor: 4,
                subcast: false,
            },
        )]);
        assert_eq!(ids(&report), vec!["I2"]);
    }

    #[test]
    fn i3_fires_on_send_after_suppression_without_rearm() {
        let report = run(&[
            rec(1_000, Event::LossDetected { node: 2, seq: 7 }),
            rec(
                1_100,
                Event::RequestScheduled {
                    node: 2,
                    seq: 7,
                    round: 0,
                    delay_ns: 500,
                },
            ),
            rec(
                1_300,
                Event::RequestSuppressed {
                    node: 2,
                    seq: 7,
                    by: 3,
                },
            ),
            // No req_scheduled re-arm before the send: violation.
            rec(
                1_600,
                Event::RequestSent {
                    node: 2,
                    seq: 7,
                    round: 1,
                },
            ),
            rec(
                2_000,
                Event::RecoveryCompleted {
                    node: 2,
                    seq: 7,
                    expedited: false,
                },
            ),
        ]);
        assert_eq!(ids(&report), vec!["I3"]);
        assert!(report.violations[0].timeline.is_some());
    }

    #[test]
    fn i3_respects_rearm_after_suppression() {
        let report = run(&[
            rec(1_000, Event::LossDetected { node: 2, seq: 7 }),
            rec(
                1_300,
                Event::RequestSuppressed {
                    node: 2,
                    seq: 7,
                    by: 3,
                },
            ),
            rec(
                1_300,
                Event::RequestScheduled {
                    node: 2,
                    seq: 7,
                    round: 1,
                    delay_ns: 500,
                },
            ),
            rec(
                1_800,
                Event::RequestSent {
                    node: 2,
                    seq: 7,
                    round: 1,
                },
            ),
            rec(
                2_000,
                Event::RecoveryCompleted {
                    node: 2,
                    seq: 7,
                    expedited: false,
                },
            ),
        ]);
        assert!(report.is_healthy(), "{:?}", report.violations);
    }

    #[test]
    fn i3_fires_on_reply_after_cancelled_timer() {
        let report = run(&[
            rec(1_000, Event::LossDetected { node: 2, seq: 7 }),
            rec(
                1_100,
                Event::ReplyScheduled {
                    node: 5,
                    seq: 7,
                    requestor: 2,
                },
            ),
            rec(
                1_200,
                Event::ReplySuppressed {
                    node: 5,
                    seq: 7,
                    by: 6,
                },
            ),
            rec(
                1_500,
                Event::ReplySent {
                    node: 5,
                    seq: 7,
                    requestor: 2,
                    expedited: false,
                },
            ),
            rec(
                2_000,
                Event::RecoveryCompleted {
                    node: 2,
                    seq: 7,
                    expedited: false,
                },
            ),
        ]);
        assert_eq!(ids(&report), vec!["I3"]);
    }

    #[test]
    fn i4_fires_on_cache_hit_without_update() {
        let report = run(&[
            rec(1_000, Event::LossDetected { node: 2, seq: 7 }),
            rec(
                1_100,
                Event::CacheHit {
                    node: 2,
                    seq: 7,
                    requestor: 2,
                    replier: 9,
                },
            ),
            rec(
                2_000,
                Event::RecoveryCompleted {
                    node: 2,
                    seq: 7,
                    expedited: true,
                },
            ),
        ]);
        assert_eq!(ids(&report), vec!["I4"]);
        assert!(report.violations[0].detail.contains("(2, 9)"));
    }

    #[test]
    fn i4_fires_on_expedited_request_without_hit() {
        let report = run(&[
            rec(1_000, Event::LossDetected { node: 2, seq: 7 }),
            rec(
                1_200,
                Event::ExpeditedRequestSent {
                    node: 2,
                    seq: 7,
                    replier: 9,
                },
            ),
            rec(
                2_000,
                Event::RecoveryCompleted {
                    node: 2,
                    seq: 7,
                    expedited: true,
                },
            ),
        ]);
        assert_eq!(ids(&report), vec!["I4"]);
    }

    #[test]
    fn i5_fires_on_delivery_without_send_and_overdelivery() {
        use crate::event::Cast;
        let report = run(&[
            // Delivered but never sent.
            rec(
                1_000,
                Event::PacketDelivered {
                    node: 2,
                    class: PacketClass::Reply,
                    seq: Some(7),
                    origin: 9,
                },
            ),
            // One send, two deliveries to the same node.
            rec(
                2_000,
                Event::PacketSent {
                    node: 9,
                    class: PacketClass::Request,
                    seq: Some(8),
                    cast: Cast::Multicast,
                },
            ),
            rec(
                2_500,
                Event::PacketDelivered {
                    node: 3,
                    class: PacketClass::Request,
                    seq: Some(8),
                    origin: 9,
                },
            ),
            rec(
                2_600,
                Event::PacketDelivered {
                    node: 3,
                    class: PacketClass::Request,
                    seq: Some(8),
                    origin: 9,
                },
            ),
        ]);
        assert_eq!(ids(&report), vec!["I5", "I5"]);
        assert!(report.violations[0].detail.contains("no prior send"));
        assert!(report.violations[1].detail.contains("exceed"));
    }

    #[test]
    fn i6_fires_on_time_regression_and_orphan_recovery() {
        let report = run(&[
            rec(2_000, Event::LossDetected { node: 2, seq: 7 }),
            // Time runs backwards.
            rec(
                1_000,
                Event::RequestSent {
                    node: 2,
                    seq: 7,
                    round: 1,
                },
            ),
            // Recovered without any detection.
            rec(
                3_000,
                Event::RecoveryCompleted {
                    node: 4,
                    seq: 9,
                    expedited: false,
                },
            ),
            rec(
                3_000,
                Event::RecoveryCompleted {
                    node: 2,
                    seq: 7,
                    expedited: false,
                },
            ),
        ]);
        assert_eq!(ids(&report), vec!["I6", "I6"]);
        assert!(report.violations[0].detail.contains("ran backwards"));
        assert!(report.violations[1].detail.contains("without a prior"));
    }

    #[test]
    fn repair_storm_anomaly_fires_at_threshold() {
        let mut records = vec![rec(1_000, Event::LossDetected { node: 2, seq: 7 })];
        for i in 0..9u64 {
            records.push(rec(
                1_100 + i,
                Event::ReplySent {
                    node: 5,
                    seq: 7,
                    requestor: 2,
                    expedited: false,
                },
            ));
        }
        records.push(rec(
            2_000,
            Event::RecoveryCompleted {
                node: 2,
                seq: 7,
                expedited: false,
            },
        ));
        let report = run(&records);
        assert!(report.is_healthy());
        let storms: Vec<_> = report
            .anomalies
            .iter()
            .filter(|a| a.kind == AnomalyKind::RepairStorm)
            .collect();
        assert_eq!(storms.len(), 1, "storm fires exactly once per seq");
        assert_eq!(storms[0].seq, 7);
        assert_eq!(report.stats.anomalies, 1);
    }

    #[test]
    fn recovery_outlier_anomaly_flags_the_straggler() {
        let mut records = Vec::new();
        // 19 fast recoveries and one 100× straggler.
        for seq in 0..20u64 {
            records.push(rec(seq * 10_000, Event::LossDetected { node: 2, seq }));
            let latency = if seq == 19 { 1_000_000 } else { 10_000 };
            records.push(rec(
                seq * 10_000 + latency,
                Event::RecoveryCompleted {
                    node: 2,
                    seq,
                    expedited: false,
                },
            ));
        }
        records.sort_by_key(|r| r.t_ns);
        let report = run(&records);
        assert!(report.is_healthy(), "{:?}", report.violations);
        let outliers: Vec<_> = report
            .anomalies
            .iter()
            .filter(|a| a.kind == AnomalyKind::RecoveryOutlier)
            .collect();
        assert_eq!(outliers.len(), 1, "{:?}", report.anomalies);
        assert_eq!(outliers[0].seq, 19);
    }

    #[test]
    fn latency_percentiles_are_exact_nearest_rank() {
        // 1000 recoveries with distinct latencies 1..=1000 µs in a
        // scrambled order (7919 is coprime to 1000).
        let n = 1000u64;
        let mut records = Vec::new();
        for seq in 0..n {
            let latency = ((seq * 7919) % n + 1) * 1_000;
            let detected = seq * 10_000_000;
            records.push(rec(detected, Event::LossDetected { node: 2, seq }));
            records.push(rec(
                detected + latency,
                Event::RecoveryCompleted {
                    node: 2,
                    seq,
                    expedited: false,
                },
            ));
        }
        let stats = run(&records).stats;
        assert_eq!(stats.recovered, n);
        // ⌈0.5·1000⌉ = 500th and ⌈0.99·1000⌉ = 990th smallest.
        assert_eq!(stats.latency_p50_ns, Some(500_000));
        assert_eq!(stats.latency_p99_ns, Some(990_000));
        assert_eq!(stats.latency_max_ns, Some(1_000_000));
    }

    #[test]
    fn violation_list_is_bounded_but_total_counted() {
        let mut m = MonitorSet::new(MonitorConfig {
            max_violations: 2,
            ..MonitorConfig::default()
        });
        for seq in 0..5u64 {
            m.observe(&rec(
                1_000 + seq,
                Event::RecoveryCompleted {
                    node: 1,
                    seq,
                    expedited: false,
                },
            ));
        }
        let report = m.finish();
        assert_eq!(report.violations.len(), 2);
        assert_eq!(report.stats.violations, 5);
        assert!(!report.is_healthy());
    }

    #[test]
    fn spurious_detection_is_not_a_liveness_violation() {
        let report = run(&[
            rec(1_000, Event::LossDetected { node: 2, seq: 7 }),
            rec(1_500, Event::SpuriousLoss { node: 2, seq: 7 }),
        ]);
        assert!(report.is_healthy(), "{:?}", report.violations);
        assert_eq!(report.stats.spurious, 1);
        assert_eq!(report.stats.unrecovered, 0);
    }

    #[test]
    fn invariant_catalogue_is_stable() {
        assert_eq!(Invariant::ALL.len(), 6);
        let ids: Vec<_> = Invariant::ALL.iter().map(|i| i.id()).collect();
        assert_eq!(ids, vec!["I1", "I2", "I3", "I4", "I5", "I6"]);
        for inv in Invariant::ALL {
            assert!(!inv.name().is_empty());
        }
    }
}
