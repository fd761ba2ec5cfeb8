use std::rc::Rc;

use metrics::SharedRecoveryLog;
use netsim::{
    Agent, Context, DeliveryMeta, Packet, PacketBody, PacketId, RecoveryTuple, SeqNo, SimDuration,
    TimerToken,
};
use srm::{btree_node_bytes, Role, SmallMap, SourceConfig, SrmCore, SrmEndpoints, SrmParams};
use topology::NodeId;

use crate::{ExpeditionPolicy, MostRecentLoss, RecoveryCache};

/// CESRM configuration: the underlying SRM parameters plus the expedited
/// recovery knobs of §3.2–§3.3.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct CesrmConfig {
    /// Parameters of the underlying SRM scheme (suppression, sessions).
    pub srm: SrmParams,
    /// `REORDER-DELAY`: how long an expeditious requestor waits before
    /// unicasting the expedited request, guarding against packets presumed
    /// missing due to reordering. The paper's simulations use 0 because
    /// packets are not reordered there (§4.3).
    pub reorder_delay: SimDuration,
    /// Capacity of the optimal requestor/replier cache. The most-recent-loss
    /// policy needs only 1; larger caches serve the most-frequent policy.
    pub cache_capacity: usize,
    /// Exploit router assistance (§3.3): cache turning points and subcast
    /// expedited replies through them. Requires the simulator to run with
    /// [`netsim::NetConfig::router_assist`].
    pub router_assist: bool,
}

impl CesrmConfig {
    /// The configuration used for the paper's reported results (§4.3):
    /// paper-default SRM parameters, zero reorder delay, no router
    /// assistance.
    pub fn paper_default() -> Self {
        CesrmConfig {
            srm: SrmParams::paper_default(),
            reorder_delay: SimDuration::ZERO,
            cache_capacity: 16,
            router_assist: false,
        }
    }
}

impl Default for CesrmConfig {
    fn default() -> Self {
        CesrmConfig::paper_default()
    }
}

/// What every endpoint made by one [`CesrmEndpoints`] has in common on top
/// of the SRM engine's shared block: the expedited-recovery knobs and the
/// expedition policy.
#[derive(Clone)]
struct Shared {
    cfg: CesrmConfig,
    policy: Rc<dyn ExpeditionPolicy>,
}

/// The one construction path for CESRM endpoints: fixes everything the
/// endpoints of a stream share — configuration, role, recovery log,
/// expedition policy, observation handle — then hands out one endpoint per
/// node, each a pointer away from the shared block instead of carrying its
/// own copy (see [`srm::SrmEndpoints`]). The
/// `CesrmAgent::{source, receiver, receiver_with_policy}` constructors are
/// single-endpoint shorthands over this.
#[derive(Clone)]
pub struct CesrmEndpoints {
    srm: SrmEndpoints,
    shared: Rc<Shared>,
}

impl CesrmEndpoints {
    /// Endpoints of the stream sent by `source`, all in `role`, using the
    /// *most recent loss* expedition policy evaluated in the paper.
    ///
    /// # Panics
    ///
    /// Panics if the SRM parameters are invalid or the cache capacity is 0.
    pub fn new(source: NodeId, cfg: CesrmConfig, role: Role, log: SharedRecoveryLog) -> Self {
        assert!(cfg.cache_capacity > 0, "cache capacity must be positive");
        CesrmEndpoints {
            srm: SrmEndpoints::new(source, cfg.srm, role, log),
            shared: Rc::new(Shared {
                cfg,
                policy: Rc::new(MostRecentLoss),
            }),
        }
    }

    /// Replaces the expedition policy for every endpoint made from here on.
    pub fn with_policy(mut self, policy: Box<dyn ExpeditionPolicy>) -> Self {
        Rc::make_mut(&mut self.shared).policy = policy.into();
        self
    }

    /// Installs the run's observation handle for every endpoint made from
    /// here on, held by the underlying SRM engine
    /// ([`SrmEndpoints::with_obs`]) and read from there. The expedited
    /// layer emits cache consults (`cache_hit`/`cache_miss`/`cache_update`)
    /// and expedited traffic (`xreq_sent`/`xrep_sent`), whose counts are
    /// the handle's `cesrm.*` counters. Off by default.
    pub fn with_obs(mut self, obs: obs::Instruments) -> Self {
        self.srm = self.srm.with_obs(obs);
        self
    }

    /// The endpoint for host `me`.
    ///
    /// # Panics
    ///
    /// Panics if the role is [`Role::Source`] while `me` is not the source.
    pub fn agent(&self, me: NodeId) -> CesrmAgent {
        CesrmAgent {
            core: self.srm.core(me),
            cache: RecoveryCache::new(self.shared.cfg.cache_capacity),
            shared: Rc::clone(&self.shared),
            expedited: SmallMap::new(),
            pending: SmallMap::new(),
        }
    }
}

/// An armed expedited request: what firing it needs from the cached tuple.
#[derive(Clone, Copy, Debug)]
struct Armed {
    /// The lost packet.
    seq: SeqNo,
    /// The expeditious replier to unicast to.
    replier: NodeId,
    /// The cached turning point (router-assisted mode, §3.3).
    turning_point: Option<NodeId>,
}

// One expedited request in flight per endpoint fits inline; a burst of
// detections spills (see `srm::SmallMap`).
const ARMED_INLINE: usize = 1;

/// A CESRM endpoint: the full SRM engine composed with the caching-based
/// expedited recovery layer (paper §3).
///
/// See the [crate docs](crate) for the scheme. Attach one
/// [`source`](CesrmAgent::source) and one [`receiver`](CesrmAgent::receiver)
/// per receiver leaf to a [`netsim::Simulator`]; runs with many receivers
/// make them from one [`CesrmEndpoints`] so they share their configuration.
pub struct CesrmAgent {
    core: SrmCore,
    cache: RecoveryCache,
    /// Everything the endpoints of this run have in common.
    shared: Rc<Shared>,
    /// Armed expedited-request timers, by token.
    expedited: SmallMap<TimerToken, Armed, ARMED_INLINE>,
    /// Reverse index for cancellation: lost packet → armed token.
    pending: SmallMap<u64, TimerToken, ARMED_INLINE>,
}

impl CesrmAgent {
    /// Creates the source endpoint. The source never loses packets, so its
    /// CESRM layer only answers expedited requests (it is a popular
    /// expeditious replier).
    pub fn source(
        me: NodeId,
        cfg: CesrmConfig,
        source_cfg: SourceConfig,
        log: SharedRecoveryLog,
    ) -> Self {
        CesrmEndpoints::new(me, cfg, Role::Source(source_cfg), log).agent(me)
    }

    /// Creates a receiver endpoint using the *most recent loss* expedition
    /// policy evaluated in the paper.
    pub fn receiver(me: NodeId, source: NodeId, cfg: CesrmConfig, log: SharedRecoveryLog) -> Self {
        CesrmEndpoints::new(source, cfg, Role::Receiver, log).agent(me)
    }

    /// Creates a receiver endpoint with an explicit expedition policy.
    pub fn receiver_with_policy(
        me: NodeId,
        source: NodeId,
        cfg: CesrmConfig,
        policy: Box<dyn ExpeditionPolicy>,
        log: SharedRecoveryLog,
    ) -> Self {
        CesrmEndpoints::new(source, cfg, Role::Receiver, log)
            .with_policy(policy)
            .agent(me)
    }

    /// Read access to the optimal requestor/replier cache.
    pub fn cache(&self) -> &RecoveryCache {
        &self.cache
    }

    /// Handles a fired timer; returns `false` when the token belongs
    /// neither to the expedited layer nor to the SRM engine (used by
    /// multi-source composition to route timers to the right endpoint).
    pub fn handle_timer(&mut self, ctx: &mut Context<'_>, token: TimerToken) -> bool {
        if let Some(armed) = self.expedited.remove(&token) {
            self.fire_expedited(ctx, armed);
            return true;
        }
        self.core.on_timer(ctx, token)
    }

    /// Read access to the underlying SRM engine.
    pub fn core(&self) -> &SrmCore {
        &self.core
    }

    /// Mutable access to the underlying SRM engine, for pre-run
    /// configuration in scale mode (`seed_distance`,
    /// `set_sessions_enabled`).
    pub fn core_mut(&mut self) -> &mut SrmCore {
        &mut self.core
    }

    /// Bytes of memory this endpoint owns: the struct itself, what the SRM
    /// engine owns on the heap ([`SrmCore::heap_bytes`]), and the expedited
    /// layer's own heap (the recovery cache's tree and spilled expedited
    /// timers). Allocator headers and size-class rounding are not included
    /// — see [`SrmCore::state_bytes`].
    pub fn state_bytes(&self) -> usize {
        use std::mem::size_of;
        size_of::<Self>()
            + self.core.heap_bytes()
            + btree_node_bytes::<u64, RecoveryTuple>(self.cache.len())
            + self.expedited.heap_bytes()
            + self.pending.heap_bytes()
    }

    /// Upon detecting a loss, decide whether this host is the expeditious
    /// requestor and arm the `REORDER-DELAY` timer if so (§3.2).
    fn consider_expedited(&mut self, ctx: &mut Context<'_>, seq: SeqNo) {
        let me = self.core.me();
        let Some(tuple) = self.shared.policy.select(&self.cache) else {
            self.core
                .obs()
                .emit(ctx.now().as_nanos(), || obs::Event::CacheMiss {
                    node: me.0,
                    seq: seq.value(),
                });
            return;
        };
        self.core
            .obs()
            .emit(ctx.now().as_nanos(), || obs::Event::CacheHit {
                node: me.0,
                seq: seq.value(),
                requestor: tuple.requestor.0,
                replier: tuple.replier.0,
            });
        if tuple.requestor != me || tuple.replier == me {
            return;
        }
        if self.pending.contains_key(&seq.value()) {
            return;
        }
        let token = ctx.set_timer(self.shared.cfg.reorder_delay);
        self.expedited.insert(
            token,
            Armed {
                seq,
                replier: tuple.replier,
                turning_point: tuple.turning_point,
            },
        );
        self.pending.insert(seq.value(), token);
    }

    fn cancel_pending(&mut self, ctx: &mut Context<'_>, seq: SeqNo) {
        if let Some(token) = self.pending.remove(&seq.value()) {
            ctx.cancel_timer(token);
            self.expedited.remove(&token);
        }
    }

    fn fire_expedited(&mut self, ctx: &mut Context<'_>, armed: Armed) {
        let seq = armed.seq;
        self.pending.remove(&seq.value());
        if !self.core.is_lost(seq) {
            return; // received in the meantime (reordering guard)
        }
        let id = PacketId {
            source: self.core.source(),
            seq,
        };
        let body = PacketBody::ExpeditedRequest {
            id,
            requestor: self.core.me(),
            dist_req_src: self.core.dist_to_source(),
            turning_point: if self.shared.cfg.router_assist {
                armed.turning_point
            } else {
                None
            },
        };
        ctx.unicast(armed.replier, body);
        let me = self.core.me();
        // `armed` names the pair the cache-consult stored when it emitted
        // `cache_hit`; the cache-coherence monitor (I4, docs/MONITORS.md)
        // flags any expedited request whose replier no prior hit named.
        self.core
            .obs()
            .emit(ctx.now().as_nanos(), || obs::Event::ExpeditedRequestSent {
                node: me.0,
                seq: seq.value(),
                replier: armed.replier.0,
            });
    }

    /// The expeditious replier side (§3.2): immediately multicast (or, with
    /// router assistance, subcast) the expedited reply, provided we hold the
    /// packet and no reply for it is scheduled or pending.
    fn handle_expedited_request(
        &mut self,
        ctx: &mut Context<'_>,
        id: PacketId,
        requestor: NodeId,
        dist_req_src: SimDuration,
        turning_point: Option<NodeId>,
    ) {
        let seq = id.seq;
        if !self.core.has(seq) || self.core.reply_blocked(seq, ctx.now()) {
            return;
        }
        let tuple = RecoveryTuple {
            id,
            requestor,
            dist_req_src,
            replier: self.core.me(),
            dist_rep_req: self.core.dist_to_or_default(requestor),
            turning_point,
        };
        let body = PacketBody::Reply {
            tuple,
            expedited: true,
        };
        let subcast = match (
            self.shared.cfg.router_assist && ctx.router_assist(),
            turning_point,
        ) {
            (true, Some(tp)) => {
                ctx.subcast(tp, body);
                true
            }
            _ => {
                ctx.multicast(body);
                false
            }
        };
        let me = self.core.me();
        self.core
            .obs()
            .emit(ctx.now().as_nanos(), || obs::Event::ExpeditedReplySent {
                node: me.0,
                seq: seq.value(),
                requestor: requestor.0,
                subcast,
            });
        self.core.note_reply_sent(ctx, seq, requestor);
    }
}

impl Agent for CesrmAgent {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.core.on_start(ctx);
    }

    fn on_packet(&mut self, ctx: &mut Context<'_>, packet: &Packet, meta: &DeliveryMeta) {
        self.handle_packet(ctx, packet, meta);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, token: TimerToken) {
        self.handle_timer(ctx, token);
    }
}

impl CesrmAgent {
    fn handle_packet(&mut self, ctx: &mut Context<'_>, packet: &Packet, meta: &DeliveryMeta) {
        self.core.on_packet(ctx, packet, meta);
        // New losses detected by this packet: try to expedite each.
        for seq in self.core.take_newly_detected() {
            self.consider_expedited(ctx, seq);
        }
        // The expedited layer only acts on its own stream; foreign-source
        // packets (multi-source groups) belong to sibling endpoints.
        if packet
            .body
            .subject()
            .is_some_and(|id| id.source != self.core.source())
        {
            return;
        }
        match &packet.body {
            PacketBody::Reply { tuple, .. } => {
                // Any reply that cured the loss obsoletes an armed expedited
                // request for it.
                if !self.core.is_lost(tuple.id.seq) {
                    self.cancel_pending(ctx, tuple.id.seq);
                }
                // Cache the recovery tuple if we suffered this loss (§3.1);
                // under router assistance, the turning point that matters is
                // the one observed on our own copy of the reply.
                if self.core.log().borrow().detected(self.core.me(), tuple.id) {
                    let mut t = *tuple;
                    t.turning_point = if self.shared.cfg.router_assist {
                        meta.turning_point
                    } else {
                        None
                    };
                    if self.cache.observe(t) {
                        let me = self.core.me();
                        // The only cache-insertion site: every pair a later
                        // `cache_hit` can name must have been announced
                        // here first (I4, docs/MONITORS.md), and only a
                        // tuple the cache stored is announced.
                        self.core
                            .obs()
                            .emit(ctx.now().as_nanos(), || obs::Event::CacheUpdate {
                                node: me.0,
                                seq: t.id.seq.value(),
                                requestor: t.requestor.0,
                                replier: t.replier.0,
                            });
                    }
                }
            }
            PacketBody::Data { id } => {
                // The packet showed up after all (reordering guard, §3.2).
                self.cancel_pending(ctx, id.seq);
            }
            PacketBody::ExpeditedRequest {
                id,
                requestor,
                dist_req_src,
                turning_point,
            } => {
                self.handle_expedited_request(ctx, *id, *requestor, *dist_req_src, *turning_point);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metrics::{per_receiver_reports, PacketKind, RecoveryLog, TrafficCollector};
    use netsim::{CastClass, NetConfig, SimTime, Simulator, TraceLoss};
    use srm::SrmAgent;
    use std::cell::RefCell;
    use std::rc::Rc;
    use topology::{LinkId, MulticastTree, TreeBuilder};

    /// n0 (source) -> n1 -> {n2, n3(router) -> {n4, n5}}, n0 -> n6.
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
        tree: MulticastTree,
        net: NetConfig,
    }

    fn source_cfg(packets: u64) -> SourceConfig {
        SourceConfig {
            packets,
            period: SimDuration::from_millis(80),
            start_at: SimTime::ZERO + SimDuration::from_secs(5),
        }
    }

    #[derive(Clone, Copy)]
    enum Proto {
        Cesrm(CesrmConfig),
        Srm,
    }

    fn run_on(
        tree: MulticastTree,
        drops: Vec<(LinkId, SeqNo)>,
        packets: u64,
        secs: u64,
        proto: Proto,
    ) -> Run {
        let assist = matches!(proto, Proto::Cesrm(c) if c.router_assist);
        let net = NetConfig::default()
            .with_seed(11)
            .with_router_assist(assist);
        let log = RecoveryLog::shared();
        let collector = Rc::new(RefCell::new(TrafficCollector::new()));
        let mut sim = Simulator::new(tree.clone(), net);
        sim.set_observer(Box::new(Rc::clone(&collector)));
        sim.set_loss(TraceLoss::new(drops));
        let src = NodeId::ROOT;
        match proto {
            Proto::Cesrm(cfg) => {
                sim.attach_agent(
                    src,
                    Box::new(CesrmAgent::source(
                        src,
                        cfg,
                        source_cfg(packets),
                        log.clone(),
                    )),
                );
                for &r in tree.receivers() {
                    sim.attach_agent(r, Box::new(CesrmAgent::receiver(r, src, cfg, log.clone())));
                }
            }
            Proto::Srm => {
                let params = SrmParams::paper_default();
                sim.attach_agent(
                    src,
                    Box::new(SrmAgent::source(
                        src,
                        params,
                        source_cfg(packets),
                        log.clone(),
                    )),
                );
                for &r in tree.receivers() {
                    sim.attach_agent(r, Box::new(SrmAgent::receiver(r, src, params, log.clone())));
                }
            }
        }
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(secs));
        Run {
            log,
            collector,
            tree,
            net,
        }
    }

    fn run_cesrm(drops: Vec<(LinkId, SeqNo)>, packets: u64, secs: u64, cfg: CesrmConfig) -> Run {
        run_on(tree(), drops, packets, secs, Proto::Cesrm(cfg))
    }

    fn run_srm(drops: Vec<(LinkId, SeqNo)>, packets: u64, secs: u64) -> Run {
        run_on(tree(), drops, packets, secs, Proto::Srm)
    }

    /// Recurring drops on the same link, spaced so that data-stream gaps
    /// reveal each loss promptly and each recovery completes before the
    /// next loss arrives: after the cache warms up, recoveries go
    /// expedited.
    fn spaced_drops() -> Vec<(LinkId, SeqNo)> {
        (10..60)
            .step_by(5)
            .map(|i| (LinkId(NodeId(3)), SeqNo(i)))
            .collect()
    }

    #[test]
    fn losses_recovered_with_expedited_majority() {
        let run = run_cesrm(spaced_drops(), 70, 60, CesrmConfig::paper_default());
        let log = run.log.borrow();
        assert_eq!(log.len(), 20, "two receivers x 10 losses");
        assert_eq!(log.unrecovered(), 0);
        let expedited = log.records().filter(|r| r.expedited).count();
        assert!(
            expedited >= 12,
            "most recoveries should be expedited, got {expedited}/20"
        );
        let c = run.collector.borrow();
        assert!(c.total_sends(PacketKind::ExpeditedRequest) > 0);
        assert!(c.total_sends(PacketKind::ExpeditedReply) > 0);
    }

    #[test]
    fn consecutive_burst_still_fully_recovered() {
        // A 20-packet burst leaves no data gaps for the affected receivers:
        // detection happens through 1 s-period session messages, several
        // losses are detected before the cache warms up, and everything
        // must still be recovered (expedited or not).
        let burst: Vec<(LinkId, SeqNo)> = (10..30).map(|i| (LinkId(NodeId(3)), SeqNo(i))).collect();
        let run = run_cesrm(burst, 60, 60, CesrmConfig::paper_default());
        let log = run.log.borrow();
        assert_eq!(log.len(), 40);
        assert_eq!(log.unrecovered(), 0);
        let expedited = log.records().filter(|r| r.expedited).count();
        assert!(expedited > 0, "the burst tail should recover expedited");
    }

    #[test]
    fn expedited_recoveries_are_fast() {
        let run = run_cesrm(spaced_drops(), 70, 60, CesrmConfig::paper_default());
        let reports = per_receiver_reports(&run.log.borrow(), &run.tree, &run.net);
        let mut seen = 0;
        for rep in reports.iter().filter(|r| r.expedited > 0) {
            let exp = rep.avg_norm_expedited.unwrap();
            // Expedited recovery: detection, unicast request, multicast
            // reply; bounded by REORDER-DELAY + RTT-ish (§3.4). Normalized
            // by the receiver's source RTT it stays well under 2.
            assert!(exp < 2.0, "receiver {} expedited avg {exp}", rep.receiver);
            seen += 1;
        }
        assert!(
            seen >= 2,
            "both losing receivers should see expedited recoveries"
        );
    }

    #[test]
    fn cesrm_beats_srm_on_average_latency() {
        let cesrm = run_cesrm(spaced_drops(), 70, 60, CesrmConfig::paper_default());
        let srm = run_srm(spaced_drops(), 70, 60);
        let avg = |run: &Run| {
            let reports = per_receiver_reports(&run.log.borrow(), &run.tree, &run.net);
            let with_losses: Vec<_> = reports.iter().filter(|r| r.recovered > 0).collect();
            with_losses.iter().map(|r| r.avg_norm_recovery).sum::<f64>() / with_losses.len() as f64
        };
        let (a_cesrm, a_srm) = (avg(&cesrm), avg(&srm));
        assert!(
            a_cesrm < 0.75 * a_srm,
            "CESRM {a_cesrm:.2} RTT should be well below SRM {a_srm:.2} RTT"
        );
    }

    #[test]
    fn fallback_recovers_when_expeditious_replier_shares_loss() {
        // Teach n4/n5 a replier (n2 or the source) via drops below n3, then
        // drop a packet on the link into n1 as well, so that if n2 is the
        // cached replier it shares the loss and SRM must recover it.
        let mut drops = spaced_drops();
        drops.push((LinkId(NodeId(1)), SeqNo(35)));
        let run = run_cesrm(drops, 70, 80, CesrmConfig::paper_default());
        let log = run.log.borrow();
        assert_eq!(log.unrecovered(), 0, "fallback must recover everything");
        // The loss of packet 35 was detected by n2, n4 and n5.
        let shared: Vec<_> = log.records().filter(|r| r.id.seq == SeqNo(35)).collect();
        assert_eq!(shared.len(), 3);
    }

    #[test]
    fn expedited_requests_are_unicast_and_replies_multicast() {
        let run = run_cesrm(spaced_drops(), 70, 60, CesrmConfig::paper_default());
        let c = run.collector.borrow();
        assert_eq!(
            c.crossings(PacketKind::ExpeditedRequest, CastClass::Multicast),
            0
        );
        assert!(c.crossings(PacketKind::ExpeditedRequest, CastClass::Unicast) > 0);
        assert!(c.crossings(PacketKind::ExpeditedReply, CastClass::Multicast) > 0);
    }

    #[test]
    fn cesrm_sends_fewer_multicast_requests_than_srm() {
        let cesrm = run_cesrm(spaced_drops(), 70, 60, CesrmConfig::paper_default());
        let srm = run_srm(spaced_drops(), 70, 60);
        let c_req = cesrm.collector.borrow().total_sends(PacketKind::Request);
        let s_req = srm.collector.borrow().total_sends(PacketKind::Request);
        assert!(
            c_req < s_req,
            "CESRM multicast requests {c_req} should undercut SRM {s_req}"
        );
    }

    /// Deeper tree for the router-assist test, so that the natural
    /// expeditious replier (n3) is *not* adjacent to the root and its
    /// subcast turning point (n2) confines the retransmission:
    ///
    /// ```text
    /// n0 (source) -> r1 -> r2 -> { n3, r4 -> { n5, n6 } }, n0 -> n7
    /// ```
    fn deep_tree() -> MulticastTree {
        let mut b = TreeBuilder::new();
        let r1 = b.add_router(b.root());
        let r2 = b.add_router(r1);
        b.add_receiver(r2); // n3
        let r4 = b.add_router(r2);
        b.add_receiver(r4); // n5
        b.add_receiver(r4); // n6
        b.add_receiver(b.root()); // n7
        b.build().unwrap()
    }

    #[test]
    fn router_assist_subcasts_expedited_replies() {
        let drops: Vec<(LinkId, SeqNo)> = (10..60)
            .step_by(5)
            .map(|i| (LinkId(NodeId(4)), SeqNo(i)))
            .collect();
        let cfg = CesrmConfig {
            router_assist: true,
            ..CesrmConfig::paper_default()
        };
        let assisted = run_on(deep_tree(), drops.clone(), 70, 60, Proto::Cesrm(cfg));
        let plain = run_on(
            deep_tree(),
            drops,
            70,
            60,
            Proto::Cesrm(CesrmConfig::paper_default()),
        );
        assert_eq!(assisted.log.borrow().unrecovered(), 0);
        let a = assisted.collector.borrow();
        let p = plain.collector.borrow();
        assert!(
            a.crossings(PacketKind::ExpeditedReply, CastClass::Subcast) > 0,
            "router assist should subcast expedited replies"
        );
        // Subcasting confines retransmissions: fewer crossings per reply.
        let a_cross = a.crossings_any_cast(PacketKind::ExpeditedReply) as f64
            / a.total_sends(PacketKind::ExpeditedReply).max(1) as f64;
        let p_cross = p.crossings_any_cast(PacketKind::ExpeditedReply) as f64
            / p.total_sends(PacketKind::ExpeditedReply).max(1) as f64;
        assert!(
            a_cross < p_cross,
            "assisted exposure {a_cross:.2} should undercut plain {p_cross:.2}"
        );
    }

    /// `cache_update` announces a change of the cache, not an offered
    /// tuple: replaying a receiver's `cache_update` records through the
    /// §3.1 rule (without the delays, which the records do not carry)
    /// rebuilds exactly the cache the agent ends with. A record for a tuple
    /// the cache rejected — stale, or worse than the cached pair — shows up
    /// as an eviction of a newer entry or as a pair the cache never held.
    #[test]
    fn cache_updates_replay_to_the_final_cache() {
        let cfg = CesrmConfig {
            cache_capacity: 2,
            ..CesrmConfig::paper_default()
        };
        let mut drops: Vec<(LinkId, SeqNo)> =
            (10..30).map(|i| (LinkId(NodeId(3)), SeqNo(i))).collect();
        drops.extend(spaced_drops());
        drops.push((LinkId(NodeId(1)), SeqNo(35)));
        let handle = obs::Instruments::memory();
        let tree = tree();
        let log = RecoveryLog::shared();
        log.borrow_mut().set_obs(handle.clone());
        let mut sim = Simulator::new(tree.clone(), NetConfig::default().with_seed(11));
        sim.set_loss(TraceLoss::new(drops));
        let src = NodeId::ROOT;
        let endpoints =
            |role| CesrmEndpoints::new(src, cfg, role, log.clone()).with_obs(handle.clone());
        sim.attach_agent(
            src,
            Box::new(endpoints(Role::Source(source_cfg(70))).agent(src)),
        );
        let receivers = endpoints(Role::Receiver);
        for &r in tree.receivers() {
            sim.attach_agent(r, Box::new(receivers.agent(r)));
        }
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(80));
        assert_eq!(log.borrow().unrecovered(), 0);

        let records = handle.drain();
        let mut updates = 0;
        for &r in tree.receivers() {
            let mut replay: std::collections::BTreeMap<u64, (u32, u32)> = Default::default();
            for record in records.iter() {
                let obs::Event::CacheUpdate {
                    node,
                    seq,
                    requestor,
                    replier,
                } = record.event
                else {
                    continue;
                };
                if node != r.0 {
                    continue;
                }
                updates += 1;
                if !replay.contains_key(&seq) && replay.len() == cfg.cache_capacity {
                    let (&oldest, _) = replay.first_key_value().expect("full");
                    assert!(
                        seq > oldest,
                        "node {node}: cache_update for seq {seq} with seq {oldest} cached \
                         and the cache full: the tuple was stale, nothing changed"
                    );
                    replay.remove(&oldest);
                }
                replay.insert(seq, (requestor, replier));
            }
            let agent = sim.agent_as::<CesrmAgent>(r).expect("a CESRM receiver");
            let cached: std::collections::BTreeMap<u64, (u32, u32)> = (0..70)
                .filter_map(|s| agent.cache().get(SeqNo(s)))
                .map(|t| (t.id.seq.value(), (t.requestor.0, t.replier.0)))
                .collect();
            assert_eq!(replay, cached, "node {r:?}");
        }
        assert!(updates > 10, "only {updates} cache updates");
    }

    #[test]
    fn deterministic_across_identical_runs() {
        let snap = |run: &Run| {
            let log = run.log.borrow();
            let mut v: Vec<_> = log
                .records()
                .map(|r| (r.receiver, r.id.seq, r.recovered_at, r.expedited))
                .collect();
            v.sort();
            v
        };
        let a = run_cesrm(spaced_drops(), 70, 60, CesrmConfig::paper_default());
        let b = run_cesrm(spaced_drops(), 70, 60, CesrmConfig::paper_default());
        assert_eq!(snap(&a), snap(&b));
    }
}
