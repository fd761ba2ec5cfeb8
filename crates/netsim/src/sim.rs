use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use topology::{LinkId, MulticastTree, NodeId};

use crate::agent::{Agent, Context, DeliveryMeta, TimerToken};
use crate::arena::{ArenaTelemetry, PacketArena, PacketHandle};
use crate::observer::{Direction, NullObserver, SimObserver};
use crate::queue::{CalendarQueue, Entry, QueueTelemetry};
use crate::{CastClass, NetConfig, Packet, PacketBody, SimDuration, SimTime, TraceLoss};

/// The random stream of `node` in a run seeded `run_seed`
/// ([`NetConfig::seed`]), stored in `slot` and seeded on its first draw: a
/// node that never draws costs nothing and leaves its stream unseeded.
fn node_rng(slot: &mut Option<StdRng>, run_seed: u64, node: NodeId) -> &mut StdRng {
    slot.get_or_insert_with(|| {
        let stride = 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(u64::from(node.0) + 1);
        StdRng::seed_from_u64(run_seed.wrapping_add(stride))
    })
}

/// Maps a packet onto the dependency-free tracing vocabulary of the `obs`
/// crate: a body classification plus the data sequence number it concerns.
fn trace_class(packet: &Packet) -> (obs::PacketClass, Option<u64>) {
    let class = match &packet.body {
        PacketBody::Data { .. } => obs::PacketClass::Data,
        PacketBody::Request { .. } => obs::PacketClass::Request,
        PacketBody::Reply {
            expedited: true, ..
        } => obs::PacketClass::ExpeditedReply,
        PacketBody::Reply { .. } => obs::PacketClass::Reply,
        PacketBody::ExpeditedRequest { .. } => obs::PacketClass::ExpeditedRequest,
        PacketBody::Session(_) => obs::PacketClass::Session,
    };
    (class, packet.body.subject().map(|id| id.seq.value()))
}

fn trace_cast(cast: CastClass) -> obs::Cast {
    match cast {
        CastClass::Multicast => obs::Cast::Multicast,
        CastClass::Unicast => obs::Cast::Unicast,
        CastClass::Subcast => obs::Cast::Subcast,
    }
}

/// A packet crossing between shards of a sharded simulation: everything the
/// owning shard needs to reconstruct the arrival `Hop` event, including the
/// event key drawn on the sending shard (per-node keys are layout-invariant,
/// so the reconstructed event sorts exactly where the unsharded run would
/// have placed it; the key also names the sender) and the packet's arena
/// route. Produced by [`Simulator::take_outbox`] on the sending shard and
/// consumed by [`Simulator::inject_cross_shard`] on the owner. `Send`, so
/// the sharded runner can move batches between worker threads.
pub struct CrossShardPacket {
    to: NodeId,
    arrive_ns: u64,
    seq: u64,
    route: NodeId,
    turning_point: Option<NodeId>,
    packet: Packet,
}

impl CrossShardPacket {
    /// The node (on the receiving shard) this packet is headed to.
    pub fn dest(&self) -> NodeId {
        self.to
    }

    /// Arrival time in nanoseconds — always at least one cut-link delay in
    /// the future of the epoch it was produced in, which is what makes the
    /// conservative epoch barrier safe (see `docs/SCALING.md`).
    pub fn arrive_ns(&self) -> u64 {
        self.arrive_ns
    }
}

/// The `Wake` token of an agent's start. Timer tokens count up from zero,
/// so no timer ever carries it.
const START: u64 = u64::MAX;

/// The `Hop` turning point of a packet that has not turned yet.
const NO_TURN: u32 = u32::MAX;

fn pack_turn(turning_point: Option<NodeId>) -> u32 {
    turning_point.map_or(NO_TURN, |n| n.0)
}

fn unpack_turn(raw: u32) -> Option<NodeId> {
    (raw != NO_TURN).then_some(NodeId(raw))
}

/// A queued simulator event: 16 bytes, so a queue [`Entry`] is 32 — half a
/// cache line. Nothing the key already says is stored again: the node an
/// event belongs to (the started or woken node, or a hop's transmitting
/// node) is the owner half of its key, `seq >> 32`. A hop carries a
/// copyable arena handle rather than a reference-counted packet, and the
/// packet body lives exactly once in the [`PacketArena`] together with its
/// route (a unicast's destination, a subcast's router). How the hop
/// propagates follows from the packet's cast and the turning point (see
/// [`Simulator::hop`]). The discriminant lives in the handle's never-zero
/// generation, which is what keeps the enum at 16 bytes.
#[derive(Clone, Copy, Debug)]
enum EventKind {
    /// The owner's timer `token` fires, or, for [`START`], its agent starts.
    Wake { token: u64 },
    /// The packet behind `handle` arrives at `at`, with its turning point
    /// packed by [`pack_turn`].
    Hop {
        at: NodeId,
        handle: PacketHandle,
        turning_point: u32,
    },
}

/// Approximate heap footprint of one queued event, used by the harness to
/// turn the queue-depth high-water mark into a peak-memory estimate for
/// `BENCH_*.json`. The queue stores its 32-byte entries inline; `Hop`
/// events additionally reference one arena slot per in-flight packet,
/// which this deliberately does not count (it is shared, not per-event).
pub fn scheduled_event_footprint_bytes() -> usize {
    std::mem::size_of::<Entry<EventKind>>()
}

/// Per-link hot state, struct-of-arrays style: everything `transmit`
/// touches per crossing sits in one 32-byte record indexed by the link's
/// head node, instead of being scattered over parallel `Vec`s with an
/// `Option` override branch for the delay.
struct LinkState {
    /// When the link becomes free per direction (0 = up, 1 = down).
    free: [SimTime; 2],
    /// Propagation delay; initialized from [`NetConfig::link_delay`] and
    /// overwritten by [`Simulator::set_link_delay`].
    delay: SimDuration,
}

/// Per-node hot state: everything a hop reads about the node it lands on
/// or leaves from, in one 32-byte record, so a hop touches one cache line
/// of node state (two records share a line; none straddles one).
struct NodeSlot {
    /// The attached protocol agent, if any.
    agent: Option<Box<dyn Agent>>,
    /// The parent's node id, or `u32::MAX` for the root.
    parent: u32,
    /// CSR adjacency: the node's neighbours are `nbrs[nbr_start..nbr_end]`,
    /// parent first then children — the same order as
    /// [`MulticastTree::neighbors`], which the event sequence numbering
    /// (and hence determinism) depends on.
    nbr_start: u32,
    nbr_end: u32,
    /// Event-sequence counter: an event's key is `(owner << 32) | seq` of
    /// its owner. Every push site has a natural owner (`Wake`: the node;
    /// `Hop`: the transmitting node), so keys depend only on that node's
    /// own causal history — not on attach order, and not on how nodes are
    /// spread over shards — and dispatch reads the owner back from the key.
    /// See `docs/SCALING.md`.
    seq: u32,
}

/// One simulation's always-on engine counters, collected after a run via
/// [`Simulator::telemetry`]. Everything here is a pure function of the
/// simulated event sequence — deterministic at any worker or shard count
/// — and cheap enough (plain integer adds on already-hot cache lines) to
/// stay enabled unconditionally. This is the one count block: it is the
/// run report's `profile.engine` member (`docs/PROFILING.md`), and after a
/// run the harness reads a run's `sim.events.*`, `sim.packets.*` and
/// `sim.timers.*` counters from it (`docs/METRICS.md`), so nothing is
/// counted a second time per event.
#[derive(Clone, Copy, PartialEq, Eq, Default, Debug)]
pub struct EngineTelemetry {
    /// Calendar-queue counters (occupancy, overflow promotions, bitmap
    /// skip distances).
    pub queue: QueueTelemetry,
    /// Packet-arena counters (allocations, recycling, high-water).
    pub arena: ArenaTelemetry,
    /// Link transmissions attempted (including ones that dropped or were
    /// diverted to the cross-shard outbox).
    pub transmits: u64,
    /// Packets delivered to an attached agent.
    pub deliveries: u64,
    /// Flood fan-outs performed (full floods plus subcast down-floods).
    pub fan_outs: u64,
    /// Events processed by the dispatch loop.
    pub events: u64,
    /// Of [`events`](Self::events), agent starts.
    pub start_events: u64,
    /// Of [`events`](Self::events), timer expiries (voided ones included);
    /// every other event is a link hop.
    pub timer_events: u64,
    /// Of [`transmits`](Self::transmits), crossings the loss plan
    /// dropped; every other one was forwarded.
    pub drops: u64,
    /// Timers scheduled.
    pub timers: u64,
    /// Timer cancellations requested by agents.
    pub timers_cancelled: u64,
    /// Of [`timer_events`](Self::timer_events), expiries voided by an
    /// earlier cancellation instead of reaching the agent.
    pub timers_voided: u64,
}

impl EngineTelemetry {
    /// Folds another engine's counters in (summing totals, maxing the
    /// high-water figures), for aggregating across runs or shards. Note
    /// that per-queue figures like bucket high-water depend on how events
    /// were partitioned, so a merged aggregate is comparable only between
    /// runs of equal shard count.
    pub fn merge(&mut self, other: &EngineTelemetry) {
        self.queue.merge(&other.queue);
        self.arena.merge(&other.arena);
        self.transmits += other.transmits;
        self.deliveries += other.deliveries;
        self.fan_outs += other.fan_outs;
        self.events += other.events;
        self.start_events += other.start_events;
        self.timer_events += other.timer_events;
        self.drops += other.drops;
        self.timers += other.timers;
        self.timers_cancelled += other.timers_cancelled;
        self.timers_voided += other.timers_voided;
    }
}

/// The discrete-event simulator: a multicast tree, per-direction link
/// queues, a totally-ordered event queue, protocol agents, a loss plan
/// and an observer.
///
/// See the [crate docs](crate) for the network model. Construction wires an
/// empty [`TraceLoss`] plan (nothing is dropped) and a [`NullObserver`];
/// replace them with [`set_loss`](Simulator::set_loss) and
/// [`set_observer`](Simulator::set_observer) before running.
///
/// # Engine layout
///
/// The hot path is data-oriented: in-flight packets live in a
/// [`PacketArena`] and events carry 8-byte handles; the scheduler is a
/// calendar queue of 32-byte entries over discrete nanosecond timestamps;
/// everything a hop reads about a node (agent, parent, adjacency range,
/// event counter) sits in one 32-byte node record, per-link state in one
/// record per link, and tree adjacency is a CSR layout, so a flood hop
/// touches few cache lines and allocates nothing. The node records are
/// indexed by node id; the agents they point to are heap blocks laid out
/// in attach order, which is why the scale harness attaches receivers in
/// flood-arrival order (`docs/SCALING.md`).
pub struct Simulator {
    /// Shared so a sharded run's workers reference one tree instead of
    /// cloning a million-node structure per shard.
    tree: Arc<MulticastTree>,
    cfg: NetConfig,
    now: SimTime,
    queue: CalendarQueue<EventKind>,
    /// Per-node hot state indexed by node id; see [`NodeSlot`].
    nodes: Vec<NodeSlot>,
    /// Lazily-seeded per-node generators ([`node_rng`]): agent draws, loss
    /// draws and link jitter all come from the stream of the node that
    /// acts, so randomness too is a function of the node's own history.
    node_rngs: Vec<Option<StdRng>>,
    /// Sharded mode: which shard each node lives on, and which one we are.
    shard: Option<ShardView>,
    /// Packets bound for nodes owned by other shards, drained by the
    /// sharded runner at the epoch barrier.
    outbox: Vec<CrossShardPacket>,
    next_timer: u64,
    /// Cancelled-timer bitset indexed by token. Tokens are sequential, so
    /// this stays dense; a set bit voids the pending `Timer` event.
    cancelled: Vec<u64>,
    /// Per-link hot state indexed by link head node (`LinkId::index`).
    links: Vec<LinkState>,
    /// CSR adjacency targets, sliced by [`NodeSlot::nbr_start`]`..`
    /// [`NodeSlot::nbr_end`].
    nbrs: Vec<NodeId>,
    /// Transmission times precomputed per size class; identical to
    /// [`NetConfig::transmission_time`] of the respective byte counts.
    payload_tx: SimDuration,
    control_tx: SimDuration,
    arena: PacketArena,
    loss: TraceLoss,
    observer: Box<dyn SimObserver>,
    /// The run's observation handle; [`obs::Instruments::off`] by default.
    obs: obs::Instruments,
    /// Always-on engine counters; see [`EngineTelemetry`].
    transmits: u64,
    deliveries: u64,
    fan_outs: u64,
    events_processed: u64,
    start_events: u64,
    timer_events: u64,
    drops: u64,
    timers_cancelled: u64,
    timers_voided: u64,
}

/// Node-to-shard assignment view of one worker in a sharded run.
struct ShardView {
    /// `assign[node]` is the shard that owns the node.
    assign: Arc<Vec<u16>>,
    /// This simulator's shard id.
    me: u16,
}

impl Simulator {
    /// Creates a simulator over `tree` with the given configuration.
    pub fn new(tree: MulticastTree, cfg: NetConfig) -> Self {
        Simulator::new_shared(Arc::new(tree), cfg)
    }

    /// Like [`new`](Simulator::new), but sharing an existing tree handle —
    /// the sharded runner builds one simulator per worker over the same
    /// million-node tree without cloning it.
    pub fn new_shared(tree: Arc<MulticastTree>, cfg: NetConfig) -> Self {
        let n = tree.len();
        let mut nodes = Vec::with_capacity(n);
        let mut nbrs = Vec::new();
        let csr_len = |nbrs: &Vec<NodeId>| u32::try_from(nbrs.len()).expect("adjacency overflow");
        for i in 0..n {
            let node = NodeId(u32::try_from(i).expect("node id overflow"));
            let nbr_start = csr_len(&nbrs);
            let parent = tree.parent(node);
            nbrs.extend(parent);
            nbrs.extend_from_slice(tree.children(node));
            nodes.push(NodeSlot {
                agent: None,
                parent: parent.map_or(u32::MAX, |p| p.0),
                nbr_start,
                nbr_end: csr_len(&nbrs),
                seq: 0,
            });
        }
        Simulator {
            now: SimTime::ZERO,
            queue: CalendarQueue::new(),
            nodes,
            node_rngs: vec![None; n],
            shard: None,
            outbox: Vec::new(),
            next_timer: 0,
            cancelled: Vec::new(),
            links: (0..n)
                .map(|_| LinkState {
                    free: [SimTime::ZERO; 2],
                    delay: cfg.link_delay,
                })
                .collect(),
            nbrs,
            payload_tx: cfg.transmission_time(cfg.payload_bytes),
            control_tx: cfg.transmission_time(cfg.control_bytes),
            arena: PacketArena::new(),
            loss: TraceLoss::default(),
            observer: Box::new(NullObserver),
            obs: obs::Instruments::off(),
            transmits: 0,
            deliveries: 0,
            fan_outs: 0,
            events_processed: 0,
            start_events: 0,
            timer_events: 0,
            drops: 0,
            timers_cancelled: 0,
            timers_voided: 0,
            tree,
            cfg,
        }
    }

    /// The multicast tree being simulated.
    #[inline]
    pub fn tree(&self) -> &MulticastTree {
        &self.tree
    }

    /// The network configuration.
    #[inline]
    pub fn config(&self) -> &NetConfig {
        &self.cfg
    }

    /// The current simulated time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events processed so far.
    #[inline]
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Number of packets currently in flight (live arena slots).
    #[inline]
    pub fn live_packets(&self) -> usize {
        self.arena.live()
    }

    /// Installs the loss plan consulted on every link crossing.
    pub fn set_loss(&mut self, loss: TraceLoss) {
        self.loss = loss;
    }

    /// Makes this simulator one worker of a sharded run: `assign[node]`
    /// names the owning shard of every node and `me` is this worker's
    /// shard id. Packets transmitted to nodes owned elsewhere are diverted
    /// to the outbox ([`take_outbox`](Simulator::take_outbox)) instead of
    /// being enqueued; agents must only be attached to owned nodes.
    ///
    /// # Panics
    ///
    /// Panics if `assign` does not cover the tree, or if the configured
    /// jitter is non-zero: nothing shards with jitter today, so the
    /// byte-identity of such a run across shard counts is untested.
    pub fn enable_sharding(&mut self, assign: Arc<Vec<u16>>, me: u16) {
        assert_eq!(
            assign.len(),
            self.tree.len(),
            "shard map must cover the tree"
        );
        assert!(
            self.cfg.jitter.is_zero(),
            "sharded runs require zero link jitter"
        );
        self.shard = Some(ShardView { assign, me });
    }

    /// Drains the packets bound for other shards that accumulated since the
    /// last call. Empty unless [`enable_sharding`](Simulator::enable_sharding)
    /// is active.
    pub fn take_outbox(&mut self) -> Vec<CrossShardPacket> {
        std::mem::take(&mut self.outbox)
    }

    /// Enqueues a packet handed over from another shard, reconstructing the
    /// arrival `Hop` under its original event key so it sorts exactly where
    /// the unsharded run would have placed it. The sharded runner calls
    /// this at the epoch barrier, in deterministic slot-merge order.
    ///
    /// # Panics
    ///
    /// Panics (debug) if this shard does not own the destination node, or
    /// if the arrival time is in this shard's past — the runner's epoch
    /// lookahead (one minimum cut-link delay) is supposed to make that
    /// impossible.
    pub fn inject_cross_shard(&mut self, p: CrossShardPacket) {
        debug_assert!(
            self.shard
                .as_ref()
                .is_some_and(|s| s.assign[p.to.index()] == s.me),
            "cross-shard packet injected on a non-owner shard"
        );
        debug_assert!(
            p.arrive_ns >= self.now.as_nanos(),
            "cross-shard packet arrived in the past: epoch lookahead violated"
        );
        let handle = self.arena.alloc(p.route);
        self.arena.retain(handle);
        self.push_with_seq(
            p.arrive_ns,
            p.seq,
            EventKind::Hop {
                at: p.to,
                handle,
                turning_point: pack_turn(p.turning_point),
            },
        );
        self.arena.fill(handle, p.packet);
        self.arena.release(handle);
    }

    /// Read access to the agent at `node`, if any. Not available while that
    /// agent is being dispatched (it is temporarily detached).
    pub fn agent(&self, node: NodeId) -> Option<&dyn Agent> {
        self.nodes[node.index()].agent.as_deref()
    }

    /// Read access to the concrete agent type at `node`; `None` when the
    /// node has no agent or it is of a different type. Lets harnesses
    /// assert protocol end-state (e.g. full reception) after a run.
    pub fn agent_as<T: Agent>(&self, node: NodeId) -> Option<&T> {
        let agent = self.agent(node)?;
        (agent as &dyn std::any::Any).downcast_ref::<T>()
    }

    /// Removes and returns the agent at `node`, modelling a host crash or a
    /// member leaving the group: packets are still forwarded through the
    /// node (routing is the network's job) but nothing is delivered or sent
    /// from it anymore; its pending timers fire into the void.
    pub fn detach_agent(&mut self, node: NodeId) -> Option<Box<dyn Agent>> {
        self.nodes[node.index()].agent.take()
    }

    /// Overrides the propagation delay of `link` (both directions),
    /// modelling heterogeneous link latencies. The paper uses uniform
    /// delays; this supports sensitivity studies beyond it.
    pub fn set_link_delay(&mut self, link: LinkId, delay: SimDuration) {
        self.links[link.index()].delay = delay;
    }

    /// Installs the traffic observer.
    pub fn set_observer(&mut self, observer: Box<dyn SimObserver>) {
        self.observer = observer;
    }

    /// Installs the run's observation handle (the default is
    /// [`obs::Instruments::off`]). Depending on what the handle was built
    /// with, the simulator then emits `sent`/`dropped`/`delivered` trace
    /// records. Clone the same handle
    /// into the protocol agents and the recovery log so one pipeline sees
    /// the whole run.
    ///
    /// The simulator keeps no counter of its own beside its events:
    /// everything it counts lives in [`telemetry`](Simulator::telemetry),
    /// and whoever drives the run reads a run's `sim.events.*`,
    /// `sim.packets.*` and `sim.timers.*` counters from there when the run
    /// ends (the harness does, in `harness::run_snapshot`), so the
    /// handle's own snapshot does not carry them.
    ///
    /// Observation never touches the rng, the event-queue order, or any
    /// protocol state, so an observed run's outputs are byte-identical to
    /// an unobserved one.
    pub fn set_obs(&mut self, obs: obs::Instruments) {
        self.obs = obs;
    }

    /// The always-on engine counters accumulated so far.
    pub fn telemetry(&self) -> EngineTelemetry {
        EngineTelemetry {
            queue: self.queue.telemetry(),
            arena: self.arena.telemetry(),
            transmits: self.transmits,
            deliveries: self.deliveries,
            fan_outs: self.fan_outs,
            events: self.events_processed,
            start_events: self.start_events,
            timer_events: self.timer_events,
            drops: self.drops,
            timers: self.next_timer,
            timers_cancelled: self.timers_cancelled,
            timers_voided: self.timers_voided,
        }
    }

    /// Attaches a protocol agent to `node`; its
    /// [`on_start`](Agent::on_start) runs at the current simulated time.
    ///
    /// # Panics
    ///
    /// Panics if `node` already has an agent.
    pub fn attach_agent(&mut self, node: NodeId, agent: Box<dyn Agent>) {
        let slot = &mut self.nodes[node.index()].agent;
        assert!(slot.is_none(), "node {node} already has an agent");
        *slot = Some(agent);
        self.push(self.now, EventKind::Wake { token: START }, node);
    }

    /// Delivers a crafted packet directly to the agent at `node`, as if it
    /// had just arrived from `prev_hop` — a white-box testing hook that
    /// bypasses links, loss and forwarding. Takes effect immediately, at
    /// the current simulated time.
    pub fn inject_packet(
        &mut self,
        node: NodeId,
        prev_hop: NodeId,
        packet: &Packet,
        turning_point: Option<NodeId>,
    ) {
        self.deliver(node, prev_hop, packet, turning_point);
    }

    /// Processes exactly one event (if any), advancing the clock to it.
    /// Returns `false` when the queue is empty. Together with
    /// [`inject_packet`](Simulator::inject_packet) this supports
    /// fine-grained protocol state-machine tests.
    pub fn step(&mut self) -> bool {
        let Some(entry) = self.queue.pop_at_most(u64::MAX) else {
            return false;
        };
        debug_assert!(
            entry.at >= self.now.as_nanos(),
            "event queue went backwards"
        );
        self.now = SimTime::from_nanos(entry.at);
        self.events_processed += 1;
        self.dispatch(entry.seq, entry.item);
        true
    }

    /// The timestamp of the next pending event, if any.
    pub fn next_event_at(&self) -> Option<SimTime> {
        self.queue.peek_at().map(SimTime::from_nanos)
    }

    /// Runs the simulation until the event queue is exhausted or simulated
    /// time reaches `until`, whichever comes first. Afterwards
    /// [`now`](Simulator::now) equals `until` (or the later of the two if
    /// events at exactly `until` were processed).
    pub fn run_until(&mut self, until: SimTime) {
        let limit = until.as_nanos();
        while let Some(entry) = self.queue.pop_at_most(limit) {
            debug_assert!(
                entry.at >= self.now.as_nanos(),
                "event queue went backwards"
            );
            self.now = SimTime::from_nanos(entry.at);
            self.events_processed += 1;
            self.dispatch(entry.seq, entry.item);
        }
        if self.now < until {
            self.now = until;
        }
    }

    /// Runs one event; `seq` is its key, whose high half names the node
    /// the event belongs to.
    fn dispatch(&mut self, seq: u64, kind: EventKind) {
        let owner = NodeId((seq >> 32) as u32);
        match kind {
            EventKind::Wake { token: START } => {
                self.start_events += 1;
                self.with_agent(owner, |agent, ctx| agent.on_start(ctx));
            }
            EventKind::Wake { token } => {
                self.timer_events += 1;
                let word = (token / 64) as usize;
                let bit = 1u64 << (token % 64);
                if self.cancelled.get(word).is_some_and(|w| w & bit != 0) {
                    self.timers_voided += 1;
                    return;
                }
                self.with_agent(owner, |agent, ctx| {
                    agent.on_timer(ctx, TimerToken::new(token))
                });
            }
            EventKind::Hop {
                at,
                handle,
                turning_point,
            } => {
                // Move the packet out of its arena slot for the duration of
                // the hop so the simulator can be borrowed mutably while
                // the packet is read; the slot keeps its reference count.
                let packet = self.arena.take(handle);
                self.hop(at, owner, &packet, handle, unpack_turn(turning_point));
                self.arena.restore(handle, packet);
                self.arena.release(handle);
            }
        }
    }

    /// Runs `f` with the agent at `node` (if any) temporarily removed so the
    /// context can borrow the simulator mutably.
    fn with_agent<F: FnOnce(&mut dyn Agent, &mut Context<'_>)>(&mut self, node: NodeId, f: F) {
        if let Some(mut agent) = self.nodes[node.index()].agent.take() {
            let mut ctx = Context { sim: self, node };
            f(agent.as_mut(), &mut ctx);
            self.nodes[node.index()].agent = Some(agent);
        }
    }

    /// Draws the next event key charged to `owner`:
    /// `(owner << 32) | seq[owner]`. In sharded runs the owner's counter
    /// advances on exactly one shard (events are owned by the node that
    /// creates them), so the keys — and with them the total event order —
    /// are layout-invariant.
    fn alloc_seq(&mut self, owner: NodeId) -> u64 {
        let slot = &mut self.nodes[owner.index()].seq;
        let seq = (u64::from(owner.0) << 32) | u64::from(*slot);
        *slot = slot
            .checked_add(1)
            .expect("per-node event counter overflow");
        seq
    }

    fn push_with_seq(&mut self, at_ns: u64, seq: u64, kind: EventKind) {
        self.queue.push(
            Entry {
                at: at_ns,
                seq,
                item: kind,
            },
            self.now.as_nanos(),
        );
    }

    fn push(&mut self, at: SimTime, kind: EventKind, owner: NodeId) {
        let seq = self.alloc_seq(owner);
        self.push_with_seq(at.as_nanos(), seq, kind);
    }

    pub(crate) fn schedule_timer(&mut self, node: NodeId, after: SimDuration) -> TimerToken {
        let token = self.next_timer;
        self.next_timer += 1;
        debug_assert_ne!(token, START, "timer tokens exhausted");
        self.push(self.now + after, EventKind::Wake { token }, node);
        TimerToken::new(token)
    }

    pub(crate) fn cancel_timer(&mut self, token: TimerToken) {
        self.timers_cancelled += 1;
        let word = (token.index() / 64) as usize;
        if word >= self.cancelled.len() {
            self.cancelled.resize(word + 1, 0);
        }
        self.cancelled[word] |= 1u64 << (token.index() % 64);
    }

    /// The generator backing [`Context::rng`](crate::Context::rng) for the
    /// agent at `node`, and link jitter for its transmissions: the node's
    /// own lazily-seeded stream, so its draw sequence is a function of its
    /// own event history and survives re-attaching or resharding unchanged.
    pub(crate) fn rng_at(&mut self, node: NodeId) -> &mut StdRng {
        node_rng(&mut self.node_rngs[node.index()], self.cfg.seed, node)
    }

    /// Emits a `sent` trace record for a packet entering the network.
    /// Session traffic is excluded to bound trace volume: it is periodic
    /// background chatter with no per-loss provenance value.
    fn trace_send(&self, origin: NodeId, packet: &Packet) {
        self.obs.emit(self.now.as_nanos(), || {
            let (class, seq) = trace_class(packet);
            obs::Event::PacketSent {
                node: origin.0,
                class,
                seq,
                cast: trace_cast(packet.cast),
            }
        });
    }

    pub(crate) fn send_multicast(&mut self, origin: NodeId, body: PacketBody) {
        let packet = Packet {
            origin,
            cast: CastClass::Multicast,
            body,
        };
        self.observer.on_send(self.now, origin, &packet);
        if !matches!(packet.body, PacketBody::Session(_)) {
            self.trace_send(origin, &packet);
        }
        let handle = self.arena.alloc(origin);
        self.fan_out(origin, None, &packet, handle, None);
        self.arena.fill(handle, packet);
        self.arena.release(handle);
    }

    pub(crate) fn send_unicast(&mut self, origin: NodeId, dest: NodeId, body: PacketBody) {
        assert!(origin != dest, "cannot unicast to self");
        let packet = Packet {
            origin,
            cast: CastClass::Unicast,
            body,
        };
        self.observer.on_send(self.now, origin, &packet);
        if !matches!(packet.body, PacketBody::Session(_)) {
            self.trace_send(origin, &packet);
        }
        let next = self.tree.next_hop(origin, dest);
        let handle = self.arena.alloc(dest);
        self.transmit_leg(origin, next, &packet, handle, None);
        self.arena.fill(handle, packet);
        self.arena.release(handle);
    }

    pub(crate) fn send_subcast(&mut self, origin: NodeId, via: NodeId, body: PacketBody) {
        let packet = Packet {
            origin,
            cast: CastClass::Subcast,
            body,
        };
        self.observer.on_send(self.now, origin, &packet);
        if !matches!(packet.body, PacketBody::Session(_)) {
            self.trace_send(origin, &packet);
        }
        let handle = self.arena.alloc(via);
        if origin == via {
            self.flood_down(via, &packet, handle, Some(via));
        } else {
            let next = self.tree.next_hop(origin, via);
            self.transmit_leg(origin, next, &packet, handle, None);
        }
        self.arena.fill(handle, packet);
        self.arena.release(handle);
    }

    /// Forwards a multicast packet from `at` to every neighbour except
    /// `from`, computing turning-point transitions per branch. Iterates the
    /// CSR adjacency (parent first, then children — the order event
    /// sequence numbers, and thus determinism, depend on).
    fn fan_out(
        &mut self,
        at: NodeId,
        from: Option<NodeId>,
        packet: &Packet,
        handle: PacketHandle,
        turning_point: Option<NodeId>,
    ) {
        self.fan_outs += 1;
        let slot = &self.nodes[at.index()];
        let (start, end, parent) = (slot.nbr_start as usize, slot.nbr_end as usize, slot.parent);
        // A hop's sender is a neighbour, so a node whose only neighbour is
        // the sender forwards nothing: every leaf delivery of a flood ends
        // here, on the node record alone.
        if end - start == 1 && from.is_some() {
            return;
        }
        for i in start..end {
            let nb = self.nbrs[i];
            if Some(nb) == from {
                continue;
            }
            if nb.0 == parent {
                self.transmit(at, nb, Direction::Up, packet, handle, turning_point);
            } else {
                // The packet "turns" at the first node that forwards it onto
                // a downstream link; the turning point sticks from there on.
                let tp = turning_point.or(Some(at));
                self.transmit(at, nb, Direction::Down, packet, handle, tp);
            }
        }
    }

    fn flood_down(
        &mut self,
        at: NodeId,
        packet: &Packet,
        handle: PacketHandle,
        turning_point: Option<NodeId>,
    ) {
        self.fan_outs += 1;
        let slot = &self.nodes[at.index()];
        let start = slot.nbr_start as usize + usize::from(slot.parent != u32::MAX);
        let end = slot.nbr_end as usize;
        for i in start..end {
            let c = self.nbrs[i];
            self.transmit(at, c, Direction::Down, packet, handle, turning_point);
        }
    }

    /// [`transmit`](Self::transmit) for a unicast or subcast leg, which
    /// knows only the next node: reads the link's direction off the two
    /// node records.
    fn transmit_leg(
        &mut self,
        a: NodeId,
        b: NodeId,
        packet: &Packet,
        handle: PacketHandle,
        turning_point: Option<NodeId>,
    ) {
        let dir = if self.nodes[b.index()].parent == a.0 {
            Direction::Down
        } else if self.nodes[a.index()].parent == b.0 {
            Direction::Up
        } else {
            panic!("transmit between non-adjacent nodes {a} and {b}");
        };
        self.transmit(a, b, dir, packet, handle, turning_point);
    }

    /// Serializes the packet onto the link from `a` to its neighbour `b`
    /// in direction `dir`, consults the loss plan, and schedules the
    /// arrival hop.
    fn transmit(
        &mut self,
        a: NodeId,
        b: NodeId,
        dir: Direction,
        packet: &Packet,
        handle: PacketHandle,
        turning_point: Option<NodeId>,
    ) {
        self.transmits += 1;
        let (link, dir_idx) = match dir {
            Direction::Down => (LinkId(b), 1),
            Direction::Up => (LinkId(a), 0),
        };
        let tx = if packet.body.carries_payload() {
            self.payload_tx
        } else {
            self.control_tx
        };
        let (depart, base_delay) = {
            let state = &mut self.links[link.index()];
            let free = &mut state.free[dir_idx];
            let depart = (if *free > self.now { *free } else { self.now }) + tx;
            *free = depart;
            (depart, state.delay)
        };
        self.observer.on_link_crossing(self.now, link, dir, packet);
        // Loss and jitter draw from the transmitting node's stream, which
        // the shard executing this transmit owns.
        let (slot, seed) = (&mut self.node_rngs[a.index()], self.cfg.seed);
        if self
            .loss
            .should_drop(link, packet, || node_rng(slot, seed, a))
        {
            self.observer.on_drop(self.now, link, packet);
            self.drops += 1;
            self.obs.emit(self.now.as_nanos(), || {
                let (class, seq) = trace_class(packet);
                obs::Event::PacketDropped {
                    link: link.0 .0,
                    class,
                    seq,
                }
            });
            return;
        }
        let jitter = if self.cfg.jitter.is_zero() {
            SimDuration::ZERO
        } else {
            let max = self.cfg.jitter.as_nanos();
            SimDuration::from_nanos(self.rng_at(a).gen_range(0..=max))
        };
        let arrive = depart + base_delay + jitter;
        // The hop event is owned by the transmitting node: its key must be
        // drawn here, on the sender's shard, whether or not the destination
        // is local — that is what keeps per-node counters layout-invariant.
        let seq = self.alloc_seq(a);
        if let Some(sh) = &self.shard {
            if sh.assign[b.index()] != sh.me {
                self.outbox.push(CrossShardPacket {
                    to: b,
                    arrive_ns: arrive.as_nanos(),
                    seq,
                    route: self.arena.route(handle),
                    turning_point,
                    packet: packet.clone(),
                });
                return;
            }
        }
        self.arena.retain(handle);
        self.push_with_seq(
            arrive.as_nanos(),
            seq,
            EventKind::Hop {
                at: b,
                handle,
                turning_point: pack_turn(turning_point),
            },
        );
    }

    /// Handles the arrival of `packet` at `at` from its neighbour `from`.
    /// How it propagates on follows from its cast: a multicast floods
    /// every link once; a unicast travels hop by hop to its route (the
    /// destination); a subcast travels likewise to its route (the router)
    /// and floods downstream from there. The subcast's two phases need no
    /// flag: on the leg the packet has not turned, and below the router it
    /// carries the router as its turning point.
    fn hop(
        &mut self,
        at: NodeId,
        from: NodeId,
        packet: &Packet,
        handle: PacketHandle,
        turning_point: Option<NodeId>,
    ) {
        match packet.cast {
            CastClass::Multicast => {
                self.deliver(at, from, packet, turning_point);
                self.fan_out(at, Some(from), packet, handle, turning_point);
            }
            CastClass::Subcast if turning_point.is_some() => {
                self.deliver(at, from, packet, turning_point);
                self.flood_down(at, packet, handle, turning_point);
            }
            CastClass::Unicast | CastClass::Subcast => {
                let route = self.arena.route(handle);
                if at != route {
                    let next = self.tree.next_hop(at, route);
                    self.transmit_leg(at, next, packet, handle, turning_point);
                } else if packet.cast == CastClass::Unicast {
                    self.deliver(at, from, packet, turning_point);
                } else {
                    self.flood_down(at, packet, handle, Some(at));
                }
            }
        }
    }

    fn deliver(
        &mut self,
        node: NodeId,
        prev_hop: NodeId,
        packet: &Packet,
        turning_point: Option<NodeId>,
    ) {
        if self.nodes[node.index()].agent.is_none() {
            return;
        }
        self.deliveries += 1;
        self.observer.on_delivery(self.now, node, packet);
        if self.obs.events_enabled() {
            // Recovery-class deliveries only: original-data and session
            // deliveries are O(receivers × packets) noise for provenance
            // purposes, while the recovery completion itself is emitted by
            // the metrics layer as a `recovered` record. `origin` must be
            // the node the matching `sent` record named — the conservation
            // monitor (I5, docs/MONITORS.md) joins deliveries to sends on
            // (origin, class, seq).
            let (class, seq) = trace_class(packet);
            if !matches!(class, obs::PacketClass::Data | obs::PacketClass::Session) {
                self.obs
                    .emit(self.now.as_nanos(), || obs::Event::PacketDelivered {
                        node: node.0,
                        class,
                        seq,
                        origin: packet.origin.0,
                    });
            }
        }
        let meta = DeliveryMeta {
            prev_hop,
            turning_point: if self.cfg.router_assist {
                turning_point
            } else {
                None
            },
        };
        self.with_agent(node, |agent, ctx| agent.on_packet(ctx, packet, &meta));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PacketId, SeqNo, TraceLoss};
    use std::cell::RefCell;
    use std::rc::Rc as StdRc;
    use topology::TreeBuilder;

    /// Tree used by most tests:
    ///
    /// ```text
    /// n0 (source)
    ///   n1 (router)
    ///     n2 (receiver)
    ///     n3 (router)
    ///       n4 (receiver)
    ///       n5 (receiver)
    ///   n6 (receiver)
    /// ```
    fn sample_tree() -> MulticastTree {
        let mut b = TreeBuilder::new();
        let r1 = b.add_router(b.root());
        b.add_receiver(r1);
        let r3 = b.add_router(r1);
        b.add_receiver(r3);
        b.add_receiver(r3);
        b.add_receiver(b.root());
        b.build().unwrap()
    }

    type Log = StdRc<RefCell<Vec<(NodeId, SimTime, Packet, DeliveryMeta)>>>;

    /// Records every delivery; optionally sends a scripted packet at start.
    struct Recorder {
        log: Log,
        send_at_start: Option<(CastKind, PacketBody)>,
    }

    enum CastKind {
        Multi,
        Uni(NodeId),
        Sub(NodeId),
    }

    impl Agent for Recorder {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            if let Some((cast, body)) = self.send_at_start.take() {
                match cast {
                    CastKind::Multi => ctx.multicast(body),
                    CastKind::Uni(d) => ctx.unicast(d, body),
                    CastKind::Sub(v) => ctx.subcast(v, body),
                }
            }
        }
        fn on_packet(&mut self, ctx: &mut Context<'_>, packet: &Packet, meta: &DeliveryMeta) {
            self.log
                .borrow_mut()
                .push((ctx.me(), ctx.now(), packet.clone(), *meta));
        }
        fn on_timer(&mut self, _: &mut Context<'_>, _: TimerToken) {}
    }

    fn recorder(log: &Log) -> Box<Recorder> {
        Box::new(Recorder {
            log: StdRc::clone(log),
            send_at_start: None,
        })
    }

    fn sender(log: &Log, cast: CastKind, body: PacketBody) -> Box<Recorder> {
        Box::new(Recorder {
            log: StdRc::clone(log),
            send_at_start: Some((cast, body)),
        })
    }

    fn data_body(seq: u64) -> PacketBody {
        PacketBody::Data {
            id: PacketId {
                source: NodeId::ROOT,
                seq: SeqNo(seq),
            },
        }
    }

    fn control_body(member: NodeId) -> PacketBody {
        PacketBody::session(member, SimTime::ZERO, None, Vec::new())
    }

    fn attach_all_receivers(sim: &mut Simulator, log: &Log) {
        for &r in sim.tree().receivers().to_vec().iter() {
            sim.attach_agent(r, recorder(log));
        }
    }

    #[test]
    fn multicast_from_source_reaches_every_receiver_once() {
        let log: Log = Default::default();
        let mut sim = Simulator::new(sample_tree(), NetConfig::default());
        attach_all_receivers(&mut sim, &log);
        sim.attach_agent(NodeId::ROOT, sender(&log, CastKind::Multi, data_body(0)));
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(5));
        let entries = log.borrow();
        let mut who: Vec<NodeId> = entries.iter().map(|e| e.0).collect();
        who.sort_unstable();
        assert_eq!(who, vec![NodeId(2), NodeId(4), NodeId(5), NodeId(6)]);
    }

    #[test]
    fn data_delivery_time_is_hops_times_tx_plus_delay() {
        let log: Log = Default::default();
        let cfg = NetConfig::default();
        let mut sim = Simulator::new(sample_tree(), cfg);
        attach_all_receivers(&mut sim, &log);
        sim.attach_agent(NodeId::ROOT, sender(&log, CastKind::Multi, data_body(0)));
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(5));
        let per_hop = cfg.transmission_time(cfg.payload_bytes) + cfg.link_delay;
        let entries = log.borrow();
        for (node, at, _, _) in entries.iter() {
            let hops = sim.tree().hop_distance(NodeId::ROOT, *node) as u32;
            assert_eq!(
                *at,
                SimTime::ZERO + per_hop * hops,
                "wrong arrival at {node}"
            );
        }
    }

    #[test]
    fn control_packets_incur_delay_only() {
        let log: Log = Default::default();
        let cfg = NetConfig::default();
        let mut sim = Simulator::new(sample_tree(), cfg);
        attach_all_receivers(&mut sim, &log);
        sim.attach_agent(
            NodeId::ROOT,
            sender(&log, CastKind::Multi, control_body(NodeId::ROOT)),
        );
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(5));
        for (node, at, _, _) in log.borrow().iter() {
            let hops = sim.tree().hop_distance(NodeId::ROOT, *node) as u32;
            assert_eq!(*at, SimTime::ZERO + cfg.link_delay * hops);
        }
    }

    #[test]
    fn multicast_from_receiver_floods_whole_tree() {
        // A receiver's multicast must reach the source and all other
        // receivers (dense-mode flood), but not itself.
        let log: Log = Default::default();
        let mut sim = Simulator::new(sample_tree(), NetConfig::default());
        sim.attach_agent(
            NodeId(4),
            sender(&log, CastKind::Multi, control_body(NodeId(4))),
        );
        for &r in &[NodeId(2), NodeId(5), NodeId(6)] {
            sim.attach_agent(r, recorder(&log));
        }
        sim.attach_agent(NodeId::ROOT, recorder(&log));
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(5));
        let mut who: Vec<NodeId> = log.borrow().iter().map(|e| e.0).collect();
        who.sort_unstable();
        assert_eq!(who, vec![NodeId(0), NodeId(2), NodeId(5), NodeId(6)]);
    }

    #[test]
    fn unicast_reaches_only_destination() {
        let log: Log = Default::default();
        let mut sim = Simulator::new(sample_tree(), NetConfig::default());
        attach_all_receivers(&mut sim, &log);
        sim.attach_agent(
            NodeId::ROOT,
            sender(&log, CastKind::Uni(NodeId(5)), control_body(NodeId::ROOT)),
        );
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(5));
        let entries = log.borrow();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].0, NodeId(5));
        // 3 hops of pure delay.
        assert_eq!(
            entries[0].1,
            SimTime::ZERO + NetConfig::default().link_delay * 3
        );
        assert_eq!(entries[0].2.cast, CastClass::Unicast);
    }

    #[test]
    fn unicast_between_receivers_crosses_lca() {
        let log: Log = Default::default();
        let mut sim = Simulator::new(sample_tree(), NetConfig::default());
        sim.attach_agent(
            NodeId(6),
            sender(&log, CastKind::Uni(NodeId(4)), control_body(NodeId(6))),
        );
        sim.attach_agent(NodeId(4), recorder(&log));
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(5));
        let entries = log.borrow();
        assert_eq!(entries.len(), 1);
        // n6 -> n0 -> n1 -> n3 -> n4: 4 hops.
        assert_eq!(
            entries[0].1,
            SimTime::ZERO + NetConfig::default().link_delay * 4
        );
    }

    #[test]
    fn trace_loss_prunes_subtree() {
        let log: Log = Default::default();
        let mut sim = Simulator::new(sample_tree(), NetConfig::default());
        // Drop seq 0 on the link into n3: receivers 4 and 5 miss it.
        sim.set_loss(TraceLoss::new([(LinkId(NodeId(3)), SeqNo(0))]));
        attach_all_receivers(&mut sim, &log);
        sim.attach_agent(NodeId::ROOT, sender(&log, CastKind::Multi, data_body(0)));
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(5));
        let mut who: Vec<NodeId> = log.borrow().iter().map(|e| e.0).collect();
        who.sort_unstable();
        assert_eq!(who, vec![NodeId(2), NodeId(6)]);
    }

    #[test]
    fn subcast_reaches_only_subtree() {
        let log: Log = Default::default();
        let cfg = NetConfig::default().with_router_assist(true);
        let mut sim = Simulator::new(sample_tree(), cfg);
        // n6 subcasts via router n3: only n4 and n5 hear it.
        for &r in &[NodeId(2), NodeId(4), NodeId(5)] {
            sim.attach_agent(r, recorder(&log));
        }
        sim.attach_agent(
            NodeId(6),
            sender(&log, CastKind::Sub(NodeId(3)), data_body(7)),
        );
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(5));
        let entries = log.borrow();
        let mut who: Vec<NodeId> = entries.iter().map(|e| e.0).collect();
        who.sort_unstable();
        assert_eq!(who, vec![NodeId(4), NodeId(5)]);
        for e in entries.iter() {
            assert_eq!(e.3.turning_point, Some(NodeId(3)));
            assert_eq!(e.2.cast, CastClass::Subcast);
        }
    }

    #[test]
    fn turning_point_annotation_on_multicast() {
        let log: Log = Default::default();
        let cfg = NetConfig::default().with_router_assist(true);
        // n4 is the sender; everyone else records the turning point.
        let mut sim2 = Simulator::new(sample_tree(), cfg);
        sim2.attach_agent(NodeId(4), sender(&log, CastKind::Multi, data_body(1)));
        for &r in &[NodeId(2), NodeId(5), NodeId(6)] {
            sim2.attach_agent(r, recorder(&log));
        }
        sim2.attach_agent(NodeId::ROOT, recorder(&log));
        sim2.run_until(SimTime::ZERO + SimDuration::from_secs(5));
        let entries = log.borrow();
        for (node, _, _, meta) in entries.iter() {
            // A copy that only traveled upward (towards an ancestor of the
            // sender) never turned, so it carries no turning point; all
            // other copies turned at the LCA of sender and recipient.
            let expected = if sim2.tree().is_ancestor_or_self(*node, NodeId(4)) {
                None
            } else {
                Some(sim2.tree().lca(NodeId(4), *node))
            };
            assert_eq!(
                meta.turning_point, expected,
                "turning point for delivery at {node}"
            );
        }
    }

    #[test]
    fn turning_point_hidden_without_router_assist() {
        let log: Log = Default::default();
        let mut sim = Simulator::new(sample_tree(), NetConfig::default());
        attach_all_receivers(&mut sim, &log);
        sim.attach_agent(NodeId::ROOT, sender(&log, CastKind::Multi, data_body(0)));
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(5));
        for e in log.borrow().iter() {
            assert_eq!(e.3.turning_point, None);
        }
    }

    #[test]
    fn link_serialization_queues_back_to_back_sends() {
        // Two payload packets sent at the same instant over the same first
        // link must arrive one transmission time apart.
        struct DoubleSender;
        impl Agent for DoubleSender {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                ctx.multicast(data_body(0));
                ctx.multicast(data_body(1));
            }
            fn on_packet(&mut self, _: &mut Context<'_>, _: &Packet, _: &DeliveryMeta) {}
            fn on_timer(&mut self, _: &mut Context<'_>, _: TimerToken) {}
        }
        let log: Log = Default::default();
        let cfg = NetConfig::default();
        let mut sim = Simulator::new(sample_tree(), cfg);
        attach_all_receivers(&mut sim, &log);
        sim.attach_agent(NodeId::ROOT, Box::new(DoubleSender));
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(5));
        let entries = log.borrow();
        let t0: Vec<SimTime> = entries
            .iter()
            .filter(|e| e.0 == NodeId(6))
            .map(|e| e.1)
            .collect();
        assert_eq!(t0.len(), 2);
        let tx = cfg.transmission_time(cfg.payload_bytes);
        assert_eq!(t0[1] - t0[0], tx);
    }

    #[test]
    fn timers_fire_in_order_and_cancellation_works() {
        struct TimerAgent {
            fired: StdRc<RefCell<Vec<u64>>>,
            to_cancel: Option<TimerToken>,
        }
        impl Agent for TimerAgent {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                let _t1 = ctx.set_timer(SimDuration::from_millis(10));
                let t2 = ctx.set_timer(SimDuration::from_millis(20));
                let _t3 = ctx.set_timer(SimDuration::from_millis(30));
                ctx.cancel_timer(t2);
                self.to_cancel = Some(t2);
            }
            fn on_packet(&mut self, _: &mut Context<'_>, _: &Packet, _: &DeliveryMeta) {}
            fn on_timer(&mut self, ctx: &mut Context<'_>, token: TimerToken) {
                assert_ne!(Some(token), self.to_cancel, "cancelled timer fired");
                self.fired
                    .borrow_mut()
                    .push(ctx.now().as_nanos() / 1_000_000);
            }
        }
        let fired = StdRc::new(RefCell::new(Vec::new()));
        let mut sim = Simulator::new(sample_tree(), NetConfig::default());
        sim.attach_agent(
            NodeId(2),
            Box::new(TimerAgent {
                fired: StdRc::clone(&fired),
                to_cancel: None,
            }),
        );
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(1));
        assert_eq!(*fired.borrow(), vec![10, 30]);
    }

    #[test]
    fn run_until_advances_clock_even_without_events() {
        let mut sim = Simulator::new(sample_tree(), NetConfig::default());
        let t = SimTime::ZERO + SimDuration::from_secs(3);
        sim.run_until(t);
        assert_eq!(sim.now(), t);
        assert_eq!(sim.events_processed(), 0);
    }

    #[test]
    fn deterministic_event_counts_across_runs() {
        let run = || {
            let log: Log = Default::default();
            let mut sim = Simulator::new(sample_tree(), NetConfig::default().with_seed(5));
            attach_all_receivers(&mut sim, &log);
            sim.attach_agent(NodeId::ROOT, sender(&log, CastKind::Multi, data_body(0)));
            sim.run_until(SimTime::ZERO + SimDuration::from_secs(5));
            let deliveries: Vec<_> = log.borrow().iter().map(|e| (e.0, e.1)).collect();
            (sim.events_processed(), deliveries)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn a_run_does_not_depend_on_attach_order() {
        // Each agent draws a timer delay at start and multicasts the next
        // draw when it fires, three rounds. Event keys and streams are
        // per node, so neither the start order at t = 0 nor anyone's
        // draws can see the order agents were attached in.
        struct Chatter {
            log: Log,
            rounds: u32,
        }
        impl Chatter {
            fn arm(&mut self, ctx: &mut Context<'_>) {
                let ms = ctx.rng().gen_range(1..=50);
                ctx.set_timer(SimDuration::from_millis(ms));
            }
        }
        impl Agent for Chatter {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                self.arm(ctx);
            }
            fn on_packet(&mut self, ctx: &mut Context<'_>, packet: &Packet, meta: &DeliveryMeta) {
                self.log
                    .borrow_mut()
                    .push((ctx.me(), ctx.now(), packet.clone(), *meta));
            }
            fn on_timer(&mut self, ctx: &mut Context<'_>, _: TimerToken) {
                let drawn = SeqNo(ctx.rng().gen_range(0..1000));
                ctx.multicast(PacketBody::session(
                    ctx.me(),
                    ctx.now(),
                    Some(drawn),
                    vec![],
                ));
                self.rounds -= 1;
                if self.rounds > 0 {
                    self.arm(ctx);
                }
            }
        }
        let run = |descending: bool| {
            let log: Log = Default::default();
            let mut sim = Simulator::new(sample_tree(), NetConfig::default().with_seed(5));
            let mut hosts = sim.tree().receivers().to_vec();
            hosts.push(NodeId::ROOT);
            hosts.sort_unstable();
            if descending {
                hosts.reverse();
            }
            for node in hosts {
                let log = StdRc::clone(&log);
                sim.attach_agent(node, Box::new(Chatter { log, rounds: 3 }));
            }
            sim.run_until(SimTime::ZERO + SimDuration::from_secs(5));
            let deliveries = log.borrow().clone();
            (deliveries, sim.events_processed(), sim.telemetry())
        };
        let ascending = run(false);
        assert_eq!(ascending.0.len(), 5 * 3 * 4, "every multicast heard");
        assert_eq!(ascending, run(true));
    }

    #[test]
    fn inject_and_step_drive_agents_directly() {
        let log: Log = Default::default();
        let mut sim = Simulator::new(sample_tree(), NetConfig::default());
        sim.attach_agent(NodeId(2), recorder(&log));
        // Start events are pending; drain them stepwise.
        assert!(sim.next_event_at().is_some());
        while sim.step() {}
        assert!(!sim.step(), "queue drained");
        let pkt = Packet {
            origin: NodeId::ROOT,
            cast: CastClass::Multicast,
            body: data_body(3),
        };
        sim.inject_packet(NodeId(2), NodeId(1), &pkt, Some(NodeId(1)));
        let entries = log.borrow();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].0, NodeId(2));
        // Router assist is off, so the injected turning point is hidden.
        assert_eq!(entries[0].3.turning_point, None);
        assert_eq!(entries[0].3.prev_hop, NodeId(1));
    }

    #[test]
    fn detached_agent_receives_nothing() {
        let log: Log = Default::default();
        let mut sim = Simulator::new(sample_tree(), NetConfig::default());
        attach_all_receivers(&mut sim, &log);
        let gone = sim.detach_agent(NodeId(4));
        assert!(gone.is_some());
        assert!(sim.agent(NodeId(4)).is_none());
        sim.attach_agent(NodeId::ROOT, sender(&log, CastKind::Multi, data_body(0)));
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(5));
        let mut who: Vec<NodeId> = log.borrow().iter().map(|e| e.0).collect();
        who.sort_unstable();
        // n4 is gone but its siblings still hear everything.
        assert_eq!(who, vec![NodeId(2), NodeId(5), NodeId(6)]);
    }

    #[test]
    fn per_link_delay_override_shifts_arrival() {
        let log: Log = Default::default();
        let cfg = NetConfig::default();
        let mut sim = Simulator::new(sample_tree(), cfg);
        // Make the last hop to n6 slow.
        sim.set_link_delay(LinkId(NodeId(6)), SimDuration::from_millis(200));
        sim.attach_agent(NodeId(6), recorder(&log));
        sim.attach_agent(
            NodeId::ROOT,
            sender(&log, CastKind::Multi, control_body(NodeId::ROOT)),
        );
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(5));
        let entries = log.borrow();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].1, SimTime::ZERO + SimDuration::from_millis(200));
    }

    #[test]
    fn jitter_can_reorder_control_packets() {
        // Two control packets sent back to back over the same path: with
        // zero jitter order is preserved; with large jitter, some seed
        // reorders them.
        struct TwoSender;
        impl Agent for TwoSender {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                ctx.multicast(PacketBody::session(
                    ctx.me(),
                    ctx.now(),
                    Some(SeqNo(1)),
                    vec![],
                ));
                ctx.multicast(PacketBody::session(
                    ctx.me(),
                    ctx.now(),
                    Some(SeqNo(2)),
                    vec![],
                ));
            }
            fn on_packet(&mut self, _: &mut Context<'_>, _: &Packet, _: &DeliveryMeta) {}
            fn on_timer(&mut self, _: &mut Context<'_>, _: TimerToken) {}
        }
        let order_of = |jitter_ms: u64, seed: u64| -> Vec<u64> {
            let log: Log = Default::default();
            let cfg = NetConfig::default()
                .with_jitter(SimDuration::from_millis(jitter_ms))
                .with_seed(seed);
            let mut sim = Simulator::new(sample_tree(), cfg);
            sim.attach_agent(NodeId(4), recorder(&log));
            sim.attach_agent(NodeId::ROOT, Box::new(TwoSender));
            sim.run_until(SimTime::ZERO + SimDuration::from_secs(5));
            let seqs: Vec<u64> = log
                .borrow()
                .iter()
                .map(|e| match &e.2.body {
                    PacketBody::Session(s) => s.highest_seq.unwrap().value(),
                    _ => unreachable!(),
                })
                .collect();
            seqs
        };
        assert_eq!(order_of(0, 1), vec![1, 2], "FIFO without jitter");
        let reordered = (0..50).any(|seed| order_of(100, seed) == vec![2, 1]);
        assert!(reordered, "large jitter should reorder under some seed");
    }

    #[test]
    fn metrics_count_events_and_drops_without_perturbing_the_run() {
        let run = |obs: &obs::Instruments| {
            let log: Log = Default::default();
            let mut sim = Simulator::new(sample_tree(), NetConfig::default().with_seed(5));
            sim.set_loss(TraceLoss::new([(LinkId(NodeId(3)), SeqNo(0))]));
            sim.set_obs(obs.clone());
            attach_all_receivers(&mut sim, &log);
            sim.attach_agent(NodeId::ROOT, sender(&log, CastKind::Multi, data_body(0)));
            sim.run_until(SimTime::ZERO + SimDuration::from_secs(5));
            let deliveries: Vec<_> = log.borrow().iter().map(|e| (e.0, e.1)).collect();
            (sim.telemetry(), deliveries)
        };
        let bare = run(&obs::Instruments::off());
        let handle = obs::Instruments::new(obs::Setup {
            metrics: true,
            ..obs::Setup::default()
        });
        let observed = run(&handle);
        // Observation-only: identical counts and delivery schedule.
        assert_eq!(bare, observed);
        let engine = bare.0;
        assert_eq!(engine.start_events, 5, "one start per attached agent");
        assert_eq!(engine.timer_events, 0);
        // Crossings: n0→n1, n1→n2, n0→n6 survive and each pops as a hop;
        // n1→n3 is the drop, so the n3 subtree never sees the packet.
        assert_eq!(engine.transmits, 4);
        assert_eq!(engine.drops, 1);
        assert_eq!(engine.events, 5 + 3, "all non-start events are hops");
        // The root starts first: the four receiver starts are still queued
        // when its flood pushes a hop toward each child.
        assert_eq!(engine.queue.max_len, 4 + 2);
        // The handle counts events, and the simulator's `sent`/`dropped`
        // records feed no counter: the counts above reach a run's
        // snapshot only when the driver reads them from the telemetry.
        let counters = handle.metrics_snapshot().counters;
        assert!(counters.keys().all(|name| !name.starts_with("sim.")));
        assert!(counters.values().all(|&n| n == 0), "{counters:?}");
    }

    #[test]
    fn telemetry_tracks_timer_churn() {
        struct TimerAgent;
        impl Agent for TimerAgent {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                let _keep = ctx.set_timer(SimDuration::from_millis(10));
                let kill = ctx.set_timer(SimDuration::from_millis(20));
                ctx.cancel_timer(kill);
            }
            fn on_packet(&mut self, _: &mut Context<'_>, _: &Packet, _: &DeliveryMeta) {}
            fn on_timer(&mut self, _: &mut Context<'_>, _: TimerToken) {}
        }
        let mut sim = Simulator::new(sample_tree(), NetConfig::default());
        sim.attach_agent(NodeId(2), Box::new(TimerAgent));
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(1));
        let engine = sim.telemetry();
        assert_eq!(engine.timers, 2);
        assert_eq!(engine.timer_events, 2, "a voided timer still pops");
        assert_eq!(engine.timers_cancelled, 1);
        assert_eq!(engine.timers_voided, 1);
        assert_eq!(engine.queue.max_len, 2, "both timers pending at once");
    }

    #[test]
    fn node_slot_fits_its_byte_budget() {
        // Every hop reads the record of the node it lands on: at 32 bytes
        // two share a cache line and none straddles one. Growing it should
        // be a decision, not an accident — re-measure the 10⁵ rung first.
        assert!(
            std::mem::size_of::<NodeSlot>() <= 32,
            "NodeSlot grew to {} bytes",
            std::mem::size_of::<NodeSlot>()
        );
    }

    #[test]
    fn queue_entry_is_half_a_cache_line() {
        // The calendar queue holds ~5·10⁵ of these at the peak of the 10⁵
        // rung: 32 bytes each (16 of key, 16 of event) is what the
        // `peak_queue_bytes` figures and the CI RSS gate assume.
        assert_eq!(std::mem::size_of::<EventKind>(), 16);
        assert_eq!(std::mem::size_of::<Entry<EventKind>>(), 32);
        assert_eq!(scheduled_event_footprint_bytes(), 32);
    }

    #[test]
    fn recycled_arena_slots_carry_no_stale_route() {
        // n2 sends a unicast to n6, then a subcast via n3, then a unicast to
        // n4, each after the previous packet has settled: all three reuse
        // one arena slot, and each must follow its own route.
        struct Script {
            log: Log,
            step: u32,
        }
        impl Agent for Script {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                ctx.unicast(NodeId(6), data_body(0));
                ctx.set_timer(SimDuration::from_secs(1));
            }
            fn on_packet(&mut self, ctx: &mut Context<'_>, packet: &Packet, meta: &DeliveryMeta) {
                let entry = (ctx.me(), ctx.now(), packet.clone(), *meta);
                self.log.borrow_mut().push(entry);
            }
            fn on_timer(&mut self, ctx: &mut Context<'_>, _: TimerToken) {
                self.step += 1;
                if self.step == 1 {
                    ctx.subcast(NodeId(3), data_body(1));
                    ctx.set_timer(SimDuration::from_secs(1));
                } else {
                    ctx.unicast(NodeId(4), data_body(2));
                }
            }
        }
        let log: Log = Default::default();
        let cfg = NetConfig::default().with_router_assist(true);
        let mut sim = Simulator::new(sample_tree(), cfg);
        for &r in &[NodeId(4), NodeId(5), NodeId(6)] {
            sim.attach_agent(r, recorder(&log));
        }
        let script = Script {
            log: StdRc::clone(&log),
            step: 0,
        };
        sim.attach_agent(NodeId(2), Box::new(script));
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(5));
        let heard: Vec<(NodeId, u64, CastClass)> = log
            .borrow()
            .iter()
            .map(|e| (e.0, e.2.body.subject().unwrap().seq.value(), e.2.cast))
            .collect();
        assert_eq!(
            heard,
            vec![
                (NodeId(6), 0, CastClass::Unicast),
                (NodeId(4), 1, CastClass::Subcast),
                (NodeId(5), 1, CastClass::Subcast),
                (NodeId(4), 2, CastClass::Unicast),
            ]
        );
        let arena = sim.telemetry().arena;
        assert_eq!((arena.allocs, arena.recycled), (3, 2), "one slot, reused");
    }

    #[test]
    #[should_panic(expected = "already has an agent")]
    fn double_attach_rejected() {
        let log: Log = Default::default();
        let mut sim = Simulator::new(sample_tree(), NetConfig::default());
        sim.attach_agent(NodeId(2), recorder(&log));
        sim.attach_agent(NodeId(2), recorder(&log));
    }

    #[test]
    #[should_panic(expected = "cannot unicast to self")]
    fn self_unicast_rejected() {
        let mut sim = Simulator::new(sample_tree(), NetConfig::default());
        sim.send_unicast(NodeId(2), NodeId(2), control_body(NodeId(2)));
    }

    /// Every arena slot drains back to the free list once its hops settle:
    /// no leaks, no premature recycling, across all propagation modes.
    #[test]
    fn arena_drains_after_quiescence() {
        let log: Log = Default::default();
        let cfg = NetConfig::default().with_router_assist(true);
        let mut sim = Simulator::new(sample_tree(), cfg);
        sim.set_loss(TraceLoss::new([(LinkId(NodeId(3)), SeqNo(0))]));
        attach_all_receivers(&mut sim, &log);
        sim.attach_agent(NodeId::ROOT, sender(&log, CastKind::Multi, data_body(0)));
        sim.run_until(SimTime::ZERO + SimDuration::from_millis(1));
        assert!(sim.live_packets() > 0, "hops in flight keep slots live");
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(5));
        assert_eq!(sim.live_packets(), 0, "all slots released after the run");
    }
}
