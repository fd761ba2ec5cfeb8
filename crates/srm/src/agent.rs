use metrics::SharedRecoveryLog;
use netsim::{Agent, Context, DeliveryMeta, Packet, TimerToken};
use topology::NodeId;

use crate::{Role, SourceConfig, SrmCore, SrmEndpoints, SrmParams};

/// A plain SRM endpoint as a simulator agent: the baseline protocol of the
/// paper's evaluation.
///
/// # Examples
///
/// Attaching an SRM source and receivers to a simulator:
///
/// ```
/// use metrics::RecoveryLog;
/// use netsim::{NetConfig, SimDuration, SimTime, Simulator};
/// use srm::{SourceConfig, SrmAgent, SrmParams};
/// use topology::TreeBuilder;
///
/// # fn main() -> Result<(), topology::TreeError> {
/// let mut b = TreeBuilder::new();
/// let r = b.add_router(b.root());
/// b.add_receiver(r);
/// b.add_receiver(r);
/// let tree = b.build()?;
/// let log = RecoveryLog::shared();
/// let mut sim = Simulator::new(tree, NetConfig::default());
/// let source_cfg = SourceConfig {
///     packets: 100,
///     period: SimDuration::from_millis(80),
///     start_at: SimTime::ZERO + SimDuration::from_secs(5),
/// };
/// let source = topology::NodeId::ROOT;
/// sim.attach_agent(
///     source,
///     Box::new(SrmAgent::source(source, SrmParams::default(), source_cfg, log.clone())),
/// );
/// for &rcv in sim.tree().receivers().to_vec().iter() {
///     sim.attach_agent(
///         rcv,
///         Box::new(SrmAgent::receiver(rcv, source, SrmParams::default(), log.clone())),
///     );
/// }
/// sim.run_until(SimTime::ZERO + SimDuration::from_secs(20));
/// # Ok(())
/// # }
/// ```
pub struct SrmAgent {
    core: SrmCore,
}

impl SrmAgent {
    /// Creates the source endpoint on node `me` (which must be the tree
    /// root the data is disseminated from).
    pub fn source(
        me: NodeId,
        params: SrmParams,
        cfg: SourceConfig,
        log: SharedRecoveryLog,
    ) -> Self {
        SrmEndpoints::new(me, params, Role::Source(cfg), log).agent(me)
    }

    /// Creates a receiver endpoint on node `me`, receiving from `source`.
    pub fn receiver(me: NodeId, source: NodeId, params: SrmParams, log: SharedRecoveryLog) -> Self {
        SrmEndpoints::new(source, params, Role::Receiver, log).agent(me)
    }

    /// Creates a receiver endpoint with an explicit suppression-window
    /// policy (e.g. [`AdaptiveTimers`](crate::AdaptiveTimers)).
    pub fn receiver_with_timers(
        me: NodeId,
        source: NodeId,
        params: SrmParams,
        policy: Box<dyn crate::TimerPolicy>,
        log: SharedRecoveryLog,
    ) -> Self {
        let mut agent = Self::receiver(me, source, params, log);
        agent.core.set_timer_policy(policy);
        agent
    }

    pub(crate) fn from_core(core: SrmCore) -> Self {
        SrmAgent { core }
    }

    /// Read access to the protocol engine.
    pub fn core(&self) -> &SrmCore {
        &self.core
    }

    /// Mutable access to the protocol engine, for pre-run configuration in
    /// scale mode ([`SrmCore::seed_distance`],
    /// [`SrmCore::set_sessions_enabled`]).
    pub fn core_mut(&mut self) -> &mut SrmCore {
        &mut self.core
    }

    /// Bytes of memory this endpoint owns (see [`SrmCore::state_bytes`]).
    pub fn state_bytes(&self) -> usize {
        self.core.state_bytes()
    }
}

impl Agent for SrmAgent {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.core.on_start(ctx);
    }

    fn on_packet(&mut self, ctx: &mut Context<'_>, packet: &Packet, meta: &DeliveryMeta) {
        self.core.on_packet(ctx, packet, meta);
        // Plain SRM has no expedited layer; drop the detection events.
        self.core.take_newly_detected();
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, token: TimerToken) {
        self.core.on_timer(ctx, token);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metrics::{per_receiver_reports, PacketKind, RecoveryLog, TrafficCollector};
    use netsim::{NetConfig, SeqNo, SimDuration, SimTime, Simulator, TraceLoss};
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

    struct Setup {
        sim: Simulator,
        log: metrics::SharedRecoveryLog,
        collector: Rc<RefCell<TrafficCollector>>,
    }

    fn setup(drops: Vec<(LinkId, SeqNo)>, packets: u64, seed: u64) -> Setup {
        let tree = tree();
        let log = RecoveryLog::shared();
        let collector = Rc::new(RefCell::new(TrafficCollector::new()));
        let mut sim = Simulator::new(tree, NetConfig::default().with_seed(seed));
        sim.set_observer(Box::new(Rc::clone(&collector)));
        sim.set_loss(TraceLoss::new(drops));
        let source = topology::NodeId::ROOT;
        let cfg = SourceConfig {
            packets,
            period: SimDuration::from_millis(80),
            start_at: SimTime::ZERO + SimDuration::from_secs(5),
        };
        sim.attach_agent(
            source,
            Box::new(SrmAgent::source(
                source,
                SrmParams::default(),
                cfg,
                log.clone(),
            )),
        );
        for &r in sim.tree().receivers().to_vec().iter() {
            sim.attach_agent(
                r,
                Box::new(SrmAgent::receiver(
                    r,
                    source,
                    SrmParams::default(),
                    log.clone(),
                )),
            );
        }
        Setup {
            sim,
            log,
            collector,
        }
    }

    fn run(setup: &mut Setup, secs: u64) {
        setup
            .sim
            .run_until(SimTime::ZERO + SimDuration::from_secs(secs));
    }

    #[test]
    fn lossless_run_has_no_recovery_traffic() {
        let mut s = setup(vec![], 50, 1);
        run(&mut s, 30);
        assert!(s.log.borrow().is_empty());
        let c = s.collector.borrow();
        assert_eq!(c.total_sends(PacketKind::Request), 0);
        assert_eq!(c.total_sends(PacketKind::Reply), 0);
        assert_eq!(c.total_sends(PacketKind::Data), 50);
        assert!(c.total_sends(PacketKind::Session) > 0);
    }

    #[test]
    fn single_loss_is_recovered_by_all_affected_receivers() {
        // Drop packet 10 on the link into n3: receivers n4 and n5 lose it.
        let mut s = setup(vec![(LinkId(topology::NodeId(3)), SeqNo(10))], 50, 2);
        run(&mut s, 30);
        let log = s.log.borrow();
        assert_eq!(log.len(), 2, "exactly two receivers should detect");
        assert_eq!(log.unrecovered(), 0, "all losses must be recovered");
        for rec in log.records() {
            assert!(!rec.expedited);
            assert!(rec.latency().is_some());
        }
    }

    #[test]
    fn recovery_latency_within_srm_bounds() {
        // First-round recovery: request delay in [C1 d, (C1+C2) d] from
        // detection plus propagation; with C1=C2=2, D1=D2=1 and the paper's
        // analysis the average sits between 1.5 and 3.25 RTT (§3.4). Allow
        // the full first-round span for individual samples.
        let mut s = setup(vec![(LinkId(topology::NodeId(3)), SeqNo(10))], 50, 3);
        run(&mut s, 30);
        let cfg = NetConfig::default();
        let tree = tree();
        let reports = per_receiver_reports(&s.log.borrow(), &tree, &cfg);
        for rep in reports.iter().filter(|r| r.recovered > 0) {
            assert!(
                (0.5..7.0).contains(&rep.avg_norm_recovery),
                "receiver {} norm latency {}",
                rep.receiver,
                rep.avg_norm_recovery
            );
        }
    }

    #[test]
    fn suppression_limits_duplicate_requests_and_replies() {
        // A shared loss near the source: all four receivers lose packet 5.
        let mut s = setup(
            vec![
                (LinkId(topology::NodeId(1)), SeqNo(5)),
                (LinkId(topology::NodeId(6)), SeqNo(5)),
            ],
            50,
            4,
        );
        run(&mut s, 40);
        let log = s.log.borrow();
        assert_eq!(log.len(), 4);
        assert_eq!(log.unrecovered(), 0);
        let c = s.collector.borrow();
        let requests = c.total_sends(PacketKind::Request);
        let replies = c.total_sends(PacketKind::Reply);
        // Without suppression each of 4 receivers would request and the
        // source + every holder would reply; suppression should keep both
        // counts small.
        assert!((1..=6).contains(&requests), "requests = {requests}");
        assert!((1..=6).contains(&replies), "replies = {replies}");
    }

    #[test]
    fn tail_loss_detected_via_session_messages() {
        // The very last packet is dropped for n6: no later data creates a
        // sequence gap, so only session state can reveal it.
        let mut s = setup(vec![(LinkId(topology::NodeId(6)), SeqNo(49))], 50, 5);
        run(&mut s, 40);
        let log = s.log.borrow();
        assert_eq!(log.len(), 1);
        assert_eq!(log.unrecovered(), 0);
        let rec = log.records().next().unwrap();
        assert_eq!(rec.receiver, topology::NodeId(6));
        assert_eq!(rec.id.seq, SeqNo(49));
    }

    #[test]
    fn repeated_losses_all_recovered() {
        let drops: Vec<(LinkId, SeqNo)> = (0..30)
            .map(|i| (LinkId(topology::NodeId(3)), SeqNo(i)))
            .collect();
        let mut s = setup(drops, 50, 6);
        run(&mut s, 60);
        let log = s.log.borrow();
        assert_eq!(log.len(), 60, "two receivers x 30 losses");
        assert_eq!(log.unrecovered(), 0);
    }

    #[test]
    fn deterministic_across_identical_runs() {
        let run_once = || {
            let mut s = setup(vec![(LinkId(topology::NodeId(3)), SeqNo(10))], 50, 7);
            run(&mut s, 30);
            let log = s.log.borrow();
            let mut v: Vec<_> = log
                .records()
                .map(|r| (r.receiver, r.id.seq, r.detected_at, r.recovered_at))
                .collect();
            v.sort();
            v
        };
        assert_eq!(run_once(), run_once());
    }
}
