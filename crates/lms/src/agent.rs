use std::collections::{BTreeMap, BTreeSet};

use metrics::SharedRecoveryLog;
use netsim::{
    Agent, Context, DeliveryMeta, Packet, PacketBody, PacketId, RecoveryTuple, SeqNo, SimDuration,
    SimTime, TimerToken,
};
use topology::NodeId;

use crate::ReplierTable;

/// LMS protocol knobs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct LmsConfig {
    /// How long a requestor waits for the repair before re-sending its
    /// request (doubled per retry). LMS has no suppression, so this is pure
    /// loss protection.
    pub retry_timeout: SimDuration,
    /// Retries before giving up on a loss (it stays unrecovered —
    /// exactly the stall the CESRM paper's §5 critique points at when
    /// replier state goes stale).
    pub max_retries: u32,
    /// Session (source state announcement) period, for tail-loss
    /// detection.
    pub session_period: SimDuration,
}

impl Default for LmsConfig {
    fn default() -> Self {
        LmsConfig {
            retry_timeout: SimDuration::from_millis(500),
            max_retries: 6,
            session_period: SimDuration::from_secs(1),
        }
    }
}

/// The LMS transmission source: sends the data stream, announces its state
/// periodically, and serves as the replier of last resort (requests that
/// escalate to the root are answered with a full subcast from the root).
pub struct LmsSource {
    me: NodeId,
    cfg: LmsConfig,
    packets: u64,
    period: SimDuration,
    start_at: SimTime,
    sent: u64,
    timers: BTreeMap<TimerToken, SourceTimer>,
    obs: obs::Instruments,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum SourceTimer {
    DataTx,
    Session,
}

impl LmsSource {
    /// Creates the source endpoint sending `packets` packets every `period`
    /// starting at `start_at`.
    pub fn new(
        me: NodeId,
        cfg: LmsConfig,
        packets: u64,
        period: SimDuration,
        start_at: SimTime,
    ) -> Self {
        LmsSource {
            me,
            cfg,
            packets,
            period,
            start_at,
            sent: 0,
            timers: BTreeMap::new(),
            obs: obs::Instruments::off(),
        }
    }

    /// Builder-style installation of the run's observation handle (see
    /// the `obs` crate): the source emits `rep_sent` for the full-tree
    /// retransmissions it sends. Off by default.
    pub fn with_obs(mut self, obs: obs::Instruments) -> Self {
        self.obs = obs;
        self
    }

    fn pid(&self, seq: SeqNo) -> PacketId {
        PacketId {
            source: self.me,
            seq,
        }
    }
}

impl Agent for LmsSource {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        let t = ctx.set_timer(self.start_at.saturating_since(ctx.now()));
        self.timers.insert(t, SourceTimer::DataTx);
        let s = ctx.set_timer(self.cfg.session_period);
        self.timers.insert(s, SourceTimer::Session);
    }

    fn on_packet(&mut self, ctx: &mut Context<'_>, packet: &Packet, _meta: &DeliveryMeta) {
        // The source answers any request that reaches it with a root-level
        // subcast (a full-tree retransmission).
        if let PacketBody::ExpeditedRequest {
            id,
            requestor,
            dist_req_src,
            ..
        } = &packet.body
        {
            if id.source == self.me && id.seq.value() < self.sent {
                let tuple = RecoveryTuple {
                    id: *id,
                    requestor: *requestor,
                    dist_req_src: *dist_req_src,
                    replier: self.me,
                    dist_rep_req: SimDuration::ZERO,
                    turning_point: Some(self.me),
                };
                ctx.subcast(
                    self.me,
                    PacketBody::Reply {
                        tuple,
                        expedited: false,
                    },
                );
                let (me, seq, req) = (self.me, id.seq, *requestor);
                // `requestor` must come from the received request, never be
                // synthesized: the orphan-repair monitor (I2,
                // docs/MONITORS.md) requires the named node to have a prior
                // `loss_detected`.
                self.obs
                    .emit(ctx.now().as_nanos(), || obs::Event::ReplySent {
                        node: me.0,
                        seq: seq.value(),
                        requestor: req.0,
                        expedited: false,
                    });
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, token: TimerToken) {
        match self.timers.remove(&token) {
            Some(SourceTimer::DataTx) => {
                let seq = SeqNo(self.sent);
                self.sent += 1;
                ctx.multicast(PacketBody::Data { id: self.pid(seq) });
                if self.sent < self.packets {
                    let t = ctx.set_timer(self.period);
                    self.timers.insert(t, SourceTimer::DataTx);
                }
            }
            Some(SourceTimer::Session) => {
                let highest = self.sent.checked_sub(1).map(SeqNo);
                ctx.multicast(PacketBody::session(self.me, ctx.now(), highest, Vec::new()));
                let s = ctx.set_timer(self.cfg.session_period);
                self.timers.insert(s, SourceTimer::Session);
            }
            None => {}
        }
    }
}

/// Per-outstanding-loss LMS state.
struct LmsLoss {
    retries: u32,
    timer: Option<TimerToken>,
}

/// An LMS receiver: detects losses (sequence gaps + source announcements),
/// immediately sends a request routed by the shared [`ReplierTable`], and
/// answers requests redirected to it by subcasting through the turning
/// point. No suppression, no distance estimation — the router state does
/// the locality work.
pub struct LmsReceiver {
    me: NodeId,
    source: NodeId,
    cfg: LmsConfig,
    table: ReplierTable,
    log: SharedRecoveryLog,
    received: BTreeSet<u64>,
    highest: Option<u64>,
    losses: BTreeMap<u64, LmsLoss>,
    timers: BTreeMap<TimerToken, u64>,
    obs: obs::Instruments,
}

impl LmsReceiver {
    /// Creates a receiver on `me` listening to `source`, with the shared
    /// replier table (LMS distributes this state into the routers; agents
    /// hold a copy so the redirect can be computed analytically).
    pub fn new(
        me: NodeId,
        source: NodeId,
        cfg: LmsConfig,
        table: ReplierTable,
        log: SharedRecoveryLog,
    ) -> Self {
        LmsReceiver {
            me,
            source,
            cfg,
            table,
            log,
            received: BTreeSet::new(),
            highest: None,
            losses: BTreeMap::new(),
            timers: BTreeMap::new(),
            obs: obs::Instruments::off(),
        }
    }

    /// Builder-style installation of the run's observation handle (see
    /// the `obs` crate). Loss-detection, request and recovery records flow
    /// through the shared [`metrics::RecoveryLog`], which should be given a
    /// clone of the same handle; the receiver itself emits `rep_sent` for
    /// the subcast repairs it sends. Off by default.
    pub fn with_obs(mut self, obs: obs::Instruments) -> Self {
        self.obs = obs;
        self
    }

    /// `true` iff this receiver holds packet `seq`.
    pub fn has(&self, seq: SeqNo) -> bool {
        self.received.contains(&seq.value())
    }

    fn pid(&self, seq: SeqNo) -> PacketId {
        PacketId {
            source: self.source,
            seq,
        }
    }

    fn note_exists(&mut self, ctx: &mut Context<'_>, seq: SeqNo) {
        let from = self.highest.map_or(0, |h| h + 1);
        for i in from..=seq.value() {
            self.highest = Some(i);
            if !self.received.contains(&i) && !self.losses.contains_key(&i) {
                self.detect(ctx, SeqNo(i));
            }
        }
    }

    fn detect(&mut self, ctx: &mut Context<'_>, seq: SeqNo) {
        self.log
            .borrow_mut()
            .on_detect(self.me, self.pid(seq), ctx.now());
        self.losses.insert(
            seq.value(),
            LmsLoss {
                retries: 0,
                timer: None,
            },
        );
        self.send_request(ctx, seq);
    }

    fn send_request(&mut self, ctx: &mut Context<'_>, seq: SeqNo) {
        let (replier, turning_point) = self.table.route(ctx.tree(), self.me);
        let body = PacketBody::ExpeditedRequest {
            id: self.pid(seq),
            requestor: self.me,
            dist_req_src: SimDuration::ZERO,
            turning_point: Some(turning_point),
        };
        if replier == self.me {
            // We are our own branch's designated replier and we lost the
            // packet: escalate immediately.
            self.escalate(ctx, seq, turning_point);
        } else {
            ctx.unicast(replier, body);
        }
        self.log
            .borrow_mut()
            .on_request_sent(self.me, self.pid(seq), ctx.now());
        self.arm_retry(ctx, seq);
    }

    fn arm_retry(&mut self, ctx: &mut Context<'_>, seq: SeqNo) {
        let Some(state) = self.losses.get_mut(&seq.value()) else {
            return;
        };
        if state.retries >= self.cfg.max_retries {
            return; // give up: the loss stays unrecovered
        }
        let backoff = self.cfg.retry_timeout * (1 << state.retries.min(8)) as u32;
        let token = ctx.set_timer(backoff);
        state.timer = Some(token);
        state.retries += 1;
        self.timers.insert(token, seq.value());
    }

    /// Forwards a request upward past `turning_point` because this replier
    /// (or the requestor itself) does not hold the packet.
    fn escalate(&mut self, ctx: &mut Context<'_>, seq: SeqNo, turning_point: NodeId) {
        let (replier, tp) = self.table.escalate(ctx.tree(), turning_point);
        let body = PacketBody::ExpeditedRequest {
            id: self.pid(seq),
            requestor: self.me,
            dist_req_src: SimDuration::ZERO,
            turning_point: Some(tp),
        };
        if replier == self.me {
            // Degenerate double-designation; climb further.
            if tp != ctx.tree().root() {
                self.escalate(ctx, seq, tp);
            }
        } else {
            ctx.unicast(replier, body);
        }
    }

    fn handle_request(
        &mut self,
        ctx: &mut Context<'_>,
        id: PacketId,
        requestor: NodeId,
        turning_point: Option<NodeId>,
    ) {
        let tp = turning_point.unwrap_or_else(|| ctx.tree().root());
        if self.has(id.seq) {
            let tuple = RecoveryTuple {
                id,
                requestor,
                dist_req_src: SimDuration::ZERO,
                replier: self.me,
                dist_rep_req: SimDuration::ZERO,
                turning_point: Some(tp),
            };
            ctx.subcast(
                tp,
                PacketBody::Reply {
                    tuple,
                    expedited: false,
                },
            );
            let me = self.me;
            self.obs
                .emit(ctx.now().as_nanos(), || obs::Event::ReplySent {
                    node: me.0,
                    seq: id.seq.value(),
                    requestor: requestor.0,
                    expedited: false,
                });
        } else {
            // We share the loss: forward the request upstream (LMS replier
            // escalation). The reply will subcast from a higher router and
            // cover the original requestor too.
            self.escalate(ctx, id.seq, tp);
        }
    }

    fn recover(&mut self, ctx: &mut Context<'_>, seq: SeqNo) {
        if self.received.insert(seq.value()) {
            if let Some(state) = self.losses.remove(&seq.value()) {
                if let Some(t) = state.timer {
                    ctx.cancel_timer(t);
                    self.timers.remove(&t);
                }
                self.log
                    .borrow_mut()
                    .on_recover(self.me, self.pid(seq), ctx.now(), false);
            }
        }
    }
}

impl Agent for LmsReceiver {
    fn on_start(&mut self, _ctx: &mut Context<'_>) {}

    fn on_packet(&mut self, ctx: &mut Context<'_>, packet: &Packet, _meta: &DeliveryMeta) {
        match &packet.body {
            PacketBody::Data { id } if id.source == self.source => {
                if self.received.insert(id.seq.value()) {
                    // A fresh original: no recovery bookkeeping needed.
                }
                self.note_exists(ctx, id.seq);
            }
            PacketBody::Reply { tuple, .. } if tuple.id.source == self.source => {
                self.recover(ctx, tuple.id.seq);
                self.note_exists(ctx, tuple.id.seq);
            }
            PacketBody::ExpeditedRequest {
                id,
                requestor,
                turning_point,
                ..
            } if id.source == self.source => {
                self.handle_request(ctx, *id, *requestor, *turning_point);
            }
            PacketBody::Session(data) if data.member == self.source => {
                if let Some(h) = data.highest_seq {
                    self.note_exists(ctx, h);
                }
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, token: TimerToken) {
        if let Some(seq) = self.timers.remove(&token) {
            if self.losses.contains_key(&seq) {
                self.send_request(ctx, SeqNo(seq));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metrics::{PacketKind, RecoveryLog, TrafficCollector};
    use netsim::{CastClass, NetConfig, Simulator, TraceLoss};
    use std::cell::RefCell;
    use std::rc::Rc;
    use topology::{LinkId, MulticastTree, TreeBuilder};

    /// n0 (source) -> n1 -> { n2, n3 -> { n4, n5 } }, n0 -> n6.
    fn tree() -> MulticastTree {
        let mut b = TreeBuilder::new();
        let r1 = b.add_router(b.root());
        b.add_receiver(r1);
        let r3 = b.add_router(r1);
        b.add_receiver(r3);
        b.add_receiver(r3);
        b.add_receiver(b.root());
        b.build().unwrap()
    }

    struct Run {
        log: metrics::SharedRecoveryLog,
        collector: Rc<RefCell<TrafficCollector>>,
        sim: Simulator,
    }

    fn run_lms(
        drops: Vec<(LinkId, SeqNo)>,
        packets: u64,
        secs: u64,
        crash: Option<(NodeId, u64)>,
    ) -> Run {
        let tree = tree();
        // LMS is a router-assisted protocol: subcast must be available.
        let net = NetConfig::default().with_router_assist(true).with_seed(2);
        let log = RecoveryLog::shared();
        let collector = Rc::new(RefCell::new(TrafficCollector::new()));
        let mut sim = Simulator::new(tree.clone(), net);
        sim.set_observer(Box::new(Rc::clone(&collector)));
        sim.set_loss(TraceLoss::new(drops));
        let table = ReplierTable::closest_receiver(&tree);
        let src = NodeId::ROOT;
        sim.attach_agent(
            src,
            Box::new(LmsSource::new(
                src,
                LmsConfig::default(),
                packets,
                SimDuration::from_millis(80),
                SimTime::ZERO + SimDuration::from_secs(2),
            )),
        );
        for &r in tree.receivers() {
            sim.attach_agent(
                r,
                Box::new(LmsReceiver::new(
                    r,
                    src,
                    LmsConfig::default(),
                    table.clone(),
                    log.clone(),
                )),
            );
        }
        if let Some((node, at_secs)) = crash {
            sim.run_until(SimTime::ZERO + SimDuration::from_secs(at_secs));
            sim.detach_agent(node);
        }
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(secs));
        Run {
            log,
            collector,
            sim,
        }
    }

    #[test]
    fn single_loss_recovered_locally() {
        // Packet 10 dropped into n3: n4 and n5 lose it; the designated
        // replier of n3's branch is n4 — which shares the loss — so n5's
        // request escalates to n2 via n1, and the subcast from n1 repairs
        // both.
        let run = run_lms(vec![(LinkId(NodeId(3)), SeqNo(10))], 40, 30, None);
        let log = run.log.borrow();
        assert_eq!(log.len(), 2);
        assert_eq!(log.unrecovered(), 0);
        let c = run.collector.borrow();
        assert!(c.crossings(PacketKind::Reply, CastClass::Subcast) > 0);
        // No multicast requests ever: LMS requests are unicast.
        assert_eq!(
            c.crossings(PacketKind::ExpeditedRequest, CastClass::Multicast),
            0
        );
    }

    #[test]
    fn subcast_reply_stays_local() {
        // n5 loses a packet only it lost (drop on its own link): the repair
        // subcast from n3 must not reach n6 or the root side at all.
        let run = run_lms(vec![(LinkId(NodeId(5)), SeqNo(7))], 40, 30, None);
        let log = run.log.borrow();
        assert_eq!(log.len(), 1);
        assert_eq!(log.unrecovered(), 0);
        let c = run.collector.borrow();
        // Reply crossings: n4 -> n3 (up) + subcast down to n4 and n5 = 3.
        assert_eq!(c.crossings_any_cast(PacketKind::Reply), 3);
    }

    #[test]
    fn recovery_latency_is_fast() {
        // LMS recovery ≈ request to a nearby replier + local subcast: well
        // under SRM's suppression delays.
        let run = run_lms(vec![(LinkId(NodeId(5)), SeqNo(7))], 40, 30, None);
        let log = run.log.borrow();
        let rec = log.records().next().unwrap();
        let latency = rec.latency().unwrap();
        // n5 -> n3 -> n4 request (2 hops), reply n4 -> n3 -> n5 (2 hops):
        // 4 x 20 ms of delay + one payload serialization each way.
        assert!(
            latency < SimDuration::from_millis(120),
            "LMS latency {latency}"
        );
    }

    #[test]
    fn stale_replier_state_stalls_recovery() {
        // The §5 critique: crash n3's designated replier (n4) mid-stream,
        // keep dropping packets into n3's subtree. n5's requests keep
        // going to the dead n4 (whose escalation logic died with it), so
        // those losses stay unrecovered within the retry budget.
        let drops: Vec<(LinkId, SeqNo)> = (60..90).map(|i| (LinkId(NodeId(3)), SeqNo(i))).collect();
        // Crash n4 right before the lossy stretch starts (data begins at
        // t=2 s, packet 60 goes out at t=6.8 s).
        let run = run_lms(drops, 120, 80, Some((NodeId(4), 6)));
        let log = run.log.borrow();
        // n5 detected the burst but could not recover it all.
        let n5_unrecovered = log
            .records()
            .filter(|r| r.receiver == NodeId(5) && r.recovered_at.is_none())
            .count();
        assert!(
            n5_unrecovered > 20,
            "expected stalled recoveries at n5, got {n5_unrecovered}"
        );
        // Receivers outside the stale branch are unaffected.
        let others_unrecovered = log
            .records()
            .filter(|r| r.receiver != NodeId(5) && r.receiver != NodeId(4))
            .filter(|r| r.recovered_at.is_none())
            .count();
        assert_eq!(others_unrecovered, 0);
        // The simulation itself still holds: n5 exists and kept the packets
        // it did receive.
        assert!(run.sim.agent_as::<LmsReceiver>(NodeId(5)).is_some());
    }

    #[test]
    fn refreshed_replier_state_resumes_recovery() {
        // Same crash, but here the operator refreshes the table before the
        // burst: recovery proceeds through the new replier. (LMS recovers
        // only after its router state is repaired — the contrast with
        // CESRM, which needs no repair at all, lives in the
        // `replier_churn` example.)
        let tree = tree();
        let net = NetConfig::default().with_router_assist(true).with_seed(2);
        let log = RecoveryLog::shared();
        let mut sim = Simulator::new(tree.clone(), net);
        let drops: Vec<(LinkId, SeqNo)> = (60..90).map(|i| (LinkId(NodeId(3)), SeqNo(i))).collect();
        sim.set_loss(TraceLoss::new(drops));
        let mut table = ReplierTable::closest_receiver(&tree);
        table.set_replier(NodeId(3), NodeId(5));
        let src = NodeId::ROOT;
        sim.attach_agent(
            src,
            Box::new(LmsSource::new(
                src,
                LmsConfig::default(),
                120,
                SimDuration::from_millis(80),
                SimTime::ZERO + SimDuration::from_secs(2),
            )),
        );
        for &r in tree.receivers() {
            sim.attach_agent(
                r,
                Box::new(LmsReceiver::new(
                    r,
                    src,
                    LmsConfig::default(),
                    table.clone(),
                    log.clone(),
                )),
            );
        }
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(6));
        sim.detach_agent(NodeId(4));
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(80));
        let log = log.borrow();
        let n5_unrecovered = log
            .records()
            .filter(|r| r.receiver == NodeId(5) && r.recovered_at.is_none())
            .count();
        assert_eq!(n5_unrecovered, 0, "refreshed table must recover n5");
    }

    #[test]
    fn lossless_run_is_quiet() {
        let run = run_lms(vec![], 40, 30, None);
        assert!(run.log.borrow().is_empty());
        let c = run.collector.borrow();
        assert_eq!(c.total_sends(PacketKind::ExpeditedRequest), 0);
        assert_eq!(c.total_sends(PacketKind::Reply), 0);
        assert_eq!(c.total_sends(PacketKind::Data), 40);
    }
}
