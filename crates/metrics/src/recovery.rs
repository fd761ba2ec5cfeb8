use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use netsim::{PacketId, SimTime};
use topology::NodeId;

/// The lifecycle of one loss at one receiver: detection, then (hopefully)
/// recovery, with the scheme that delivered the repair.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RecoveryRecord {
    /// The receiver that suffered the loss.
    pub receiver: NodeId,
    /// The lost packet.
    pub id: PacketId,
    /// When the receiver first learned of the loss.
    pub detected_at: SimTime,
    /// When the repair arrived, if it ever did.
    pub recovered_at: Option<SimTime>,
    /// `true` when the repair that recovered this loss was an expedited
    /// reply (CESRM's caching-based scheme).
    pub expedited: bool,
    /// Number of repair requests this receiver sent for the packet
    /// (multicast SRM rounds; expedited requests are not counted).
    pub requests_sent: u32,
}

impl RecoveryRecord {
    /// Detection-to-repair latency, when recovered.
    pub fn latency(&self) -> Option<netsim::SimDuration> {
        self.recovered_at.map(|t| t - self.detected_at)
    }
}

/// An append-only log of loss-recovery events, shared between the protocol
/// agents of one simulation run.
///
/// Both `on_*` methods are idempotent in the way protocols need: the
/// earliest detection and the earliest recovery win, later duplicates are
/// ignored.
///
/// Records are stored per receiver (keyed by node id) in `PacketId` order,
/// so iteration is in `(receiver, id)` order exactly as the former
/// `BTreeMap<(NodeId, PacketId), _>` iterated: aggregates derived from the
/// log are byte-for-byte reproducible across processes and worker threads,
/// which the parallel suite runner relies on (`HashMap` iteration order
/// would perturb float accumulation). The per-receiver map is sparse —
/// only receivers that actually detected a loss own a row, so the log's
/// footprint is O(active losses), not O(group size); at the million-receiver
/// sweep rungs a dense per-node vector would dominate memory. Losses are
/// detected in roughly ascending sequence order, so the sorted insert into
/// a row is almost always an append and lookups are binary searches over
/// contiguous memory — the log sits on the loss-recovery hot path.
#[derive(Clone, Default, Debug)]
pub struct RecoveryLog {
    /// Per-receiver rows, each sorted ascending by [`RecoveryRecord::id`].
    records: BTreeMap<u32, Vec<RecoveryRecord>>,
    /// Total record count across receivers.
    count: usize,
    /// The run's observation handle; off by default.
    obs: obs::Instruments,
}

/// Shared handle to a [`RecoveryLog`]; one clone per agent plus one for the
/// harness.
pub type SharedRecoveryLog = Rc<RefCell<RecoveryLog>>;

impl RecoveryLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        RecoveryLog::default()
    }

    /// Creates an empty shared log.
    pub fn shared() -> SharedRecoveryLog {
        Rc::new(RefCell::new(RecoveryLog::new()))
    }

    /// Installs the run's observation handle: the log emits
    /// `loss_detected` / `req_sent` / `recovered` / `spurious` records for
    /// the state transitions it arbitrates (their counts are the handle's
    /// `recovery.*` counters). The log sees them first-win across all
    /// agents, so emitting here keeps the stream free of the duplicates
    /// the protocols would produce.
    pub fn set_obs(&mut self, obs: obs::Instruments) {
        self.obs = obs;
    }

    /// Records that `receiver` detected the loss of `id` at `now`. Repeat
    /// detections keep the earliest timestamp.
    ///
    /// The detection-before-request/recovery ordering this log enforces
    /// (the panics below) is what the orphan-repair and causality monitors
    /// (I2/I6, `docs/MONITORS.md`) check end-to-end on the event stream.
    pub fn on_detect(&mut self, receiver: NodeId, id: PacketId, now: SimTime) {
        let row = self.records.entry(receiver.0).or_default();
        let fresh = match row.binary_search_by(|r| r.id.cmp(&id)) {
            Ok(_) => false,
            Err(pos) => {
                row.insert(
                    pos,
                    RecoveryRecord {
                        receiver,
                        id,
                        detected_at: now,
                        recovered_at: None,
                        expedited: false,
                        requests_sent: 0,
                    },
                );
                self.count += 1;
                true
            }
        };
        if fresh {
            self.obs.emit(now.as_nanos(), || obs::Event::LossDetected {
                node: receiver.0,
                seq: id.seq.value(),
            });
        }
    }

    /// Records that `receiver` recovered `id` at `now` via an expedited or
    /// normal repair. The first recovery wins.
    ///
    /// # Panics
    ///
    /// Panics if no detection was recorded for `(receiver, id)` — protocols
    /// can only recover losses they detected.
    pub fn on_recover(&mut self, receiver: NodeId, id: PacketId, now: SimTime, expedited: bool) {
        let rec = self
            .record_mut(receiver, id)
            .expect("recovery without prior detection");
        if rec.recovered_at.is_none() {
            rec.recovered_at = Some(now);
            rec.expedited = expedited;
            self.obs
                .emit(now.as_nanos(), || obs::Event::RecoveryCompleted {
                    node: receiver.0,
                    seq: id.seq.value(),
                    expedited,
                });
        }
    }

    /// Records that `receiver` sent (another) multicast repair request for
    /// `id` at `now`.
    ///
    /// # Panics
    ///
    /// Panics if no detection was recorded for `(receiver, id)`.
    pub fn on_request_sent(&mut self, receiver: NodeId, id: PacketId, now: SimTime) {
        let rec = self
            .record_mut(receiver, id)
            .expect("request without prior detection");
        rec.requests_sent += 1;
        let round = rec.requests_sent;
        self.obs.emit(now.as_nanos(), || obs::Event::RequestSent {
            node: receiver.0,
            seq: id.seq.value(),
            round,
        });
    }

    /// Voids the record for `(receiver, id)`: the detection turned out
    /// spurious at `now` (the original packet arrived after all, e.g. under
    /// reordering). No-op if no record exists or the loss already
    /// recovered (a recovery proves the loss was real).
    pub fn on_spurious(&mut self, receiver: NodeId, id: PacketId, now: SimTime) {
        let Some(row) = self.records.get_mut(&receiver.0) else {
            return;
        };
        if let Ok(pos) = row.binary_search_by(|r| r.id.cmp(&id)) {
            if row[pos].recovered_at.is_none() {
                row.remove(pos);
                self.count -= 1;
                self.obs.emit(now.as_nanos(), || obs::Event::SpuriousLoss {
                    node: receiver.0,
                    seq: id.seq.value(),
                });
            }
        }
    }

    /// `true` iff `receiver` has a record (i.e. detected the loss) for `id`.
    pub fn detected(&self, receiver: NodeId, id: PacketId) -> bool {
        self.records
            .get(&receiver.0)
            .is_some_and(|row| row.binary_search_by(|r| r.id.cmp(&id)).is_ok())
    }

    /// All records, in ascending `(receiver, packet)` order.
    pub fn records(&self) -> impl Iterator<Item = &RecoveryRecord> {
        self.records.values().flatten()
    }

    /// Folds `other` into this log. Rows for receivers present in only one
    /// log move over wholesale; rows present in both are merged per record
    /// with the log's usual first-win arbitration (earliest detection,
    /// earliest recovery). The sharded runner uses this to combine the
    /// per-shard logs — each receiver lives on exactly one shard, so the
    /// merge there is a disjoint union and order-insensitive.
    pub fn merge(&mut self, other: RecoveryLog) {
        for (receiver, mut row) in other.records {
            match self.records.entry(receiver) {
                std::collections::btree_map::Entry::Vacant(slot) => {
                    self.count += row.len();
                    slot.insert(row);
                }
                std::collections::btree_map::Entry::Occupied(mut slot) => {
                    let mine = slot.get_mut();
                    for rec in row.drain(..) {
                        match mine.binary_search_by(|r| r.id.cmp(&rec.id)) {
                            Err(pos) => {
                                mine.insert(pos, rec);
                                self.count += 1;
                            }
                            Ok(pos) => {
                                let m = &mut mine[pos];
                                if rec.detected_at < m.detected_at {
                                    m.detected_at = rec.detected_at;
                                }
                                match (m.recovered_at, rec.recovered_at) {
                                    (None, Some(_)) => {
                                        m.recovered_at = rec.recovered_at;
                                        m.expedited = rec.expedited;
                                    }
                                    (Some(a), Some(b)) if b < a => {
                                        m.recovered_at = Some(b);
                                        m.expedited = rec.expedited;
                                    }
                                    _ => {}
                                }
                                m.requests_sent += rec.requests_sent;
                            }
                        }
                    }
                }
            }
        }
    }

    /// Number of records (detected losses).
    pub fn len(&self) -> usize {
        self.count
    }

    /// `true` iff no losses were detected.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Number of detected losses never recovered.
    pub fn unrecovered(&self) -> usize {
        self.records().filter(|r| r.recovered_at.is_none()).count()
    }

    fn record_mut(&mut self, receiver: NodeId, id: PacketId) -> Option<&mut RecoveryRecord> {
        let row = self.records.get_mut(&receiver.0)?;
        let pos = row.binary_search_by(|r| r.id.cmp(&id)).ok()?;
        Some(&mut row[pos])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::{SeqNo, SimDuration};

    fn pid(seq: u64) -> PacketId {
        PacketId {
            source: NodeId::ROOT,
            seq: SeqNo(seq),
        }
    }

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    #[test]
    fn detect_then_recover() {
        let mut log = RecoveryLog::new();
        log.on_detect(NodeId(2), pid(1), t(10));
        assert!(log.detected(NodeId(2), pid(1)));
        assert!(!log.detected(NodeId(3), pid(1)));
        log.on_recover(NodeId(2), pid(1), t(150), true);
        let rec = log.records().next().unwrap();
        assert_eq!(rec.latency(), Some(SimDuration::from_millis(140)));
        assert!(rec.expedited);
        assert_eq!(log.unrecovered(), 0);
        assert_eq!(log.len(), 1);
    }

    #[test]
    fn earliest_detection_and_recovery_win() {
        let mut log = RecoveryLog::new();
        log.on_detect(NodeId(2), pid(1), t(10));
        log.on_detect(NodeId(2), pid(1), t(20));
        log.on_recover(NodeId(2), pid(1), t(100), false);
        log.on_recover(NodeId(2), pid(1), t(200), true);
        let rec = log.records().next().unwrap();
        assert_eq!(rec.detected_at, t(10));
        assert_eq!(rec.recovered_at, Some(t(100)));
        assert!(!rec.expedited, "later duplicate recovery must not override");
    }

    #[test]
    fn request_counting() {
        let mut log = RecoveryLog::new();
        log.on_detect(NodeId(2), pid(1), t(10));
        log.on_request_sent(NodeId(2), pid(1), t(20));
        log.on_request_sent(NodeId(2), pid(1), t(30));
        assert_eq!(log.records().next().unwrap().requests_sent, 2);
    }

    #[test]
    fn unrecovered_counts() {
        let mut log = RecoveryLog::new();
        log.on_detect(NodeId(2), pid(1), t(10));
        log.on_detect(NodeId(2), pid(2), t(10));
        log.on_recover(NodeId(2), pid(1), t(90), false);
        assert_eq!(log.unrecovered(), 1);
    }

    #[test]
    #[should_panic(expected = "without prior detection")]
    fn recovery_requires_detection() {
        let mut log = RecoveryLog::new();
        log.on_recover(NodeId(2), pid(1), t(90), false);
    }

    #[test]
    fn merge_disjoint_and_overlapping() {
        let mut a = RecoveryLog::new();
        a.on_detect(NodeId(2), pid(1), t(10));
        a.on_recover(NodeId(2), pid(1), t(200), false);
        let mut b = RecoveryLog::new();
        b.on_detect(NodeId(3), pid(5), t(15));
        // Overlapping row: earlier detection and earlier recovery must win.
        b.on_detect(NodeId(2), pid(1), t(5));
        b.on_recover(NodeId(2), pid(1), t(100), true);
        a.merge(b);
        assert_eq!(a.len(), 2);
        let rec = a.records().next().unwrap();
        assert_eq!(rec.receiver, NodeId(2));
        assert_eq!(rec.detected_at, t(5));
        assert_eq!(rec.recovered_at, Some(t(100)));
        assert!(rec.expedited);
        assert!(a.detected(NodeId(3), pid(5)));
        assert_eq!(a.unrecovered(), 1);
    }

    #[test]
    fn shared_log_handle() {
        let shared = RecoveryLog::shared();
        shared.borrow_mut().on_detect(NodeId(1), pid(0), t(1));
        assert_eq!(shared.borrow().len(), 1);
        assert!(!shared.borrow().is_empty());
    }
}
