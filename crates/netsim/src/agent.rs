use std::fmt;
use std::num::NonZeroU64;

use rand::rngs::StdRng;

use topology::{MulticastTree, NodeId};

use crate::sim::Simulator;
use crate::{Packet, PacketBody, SimDuration, SimTime};

/// Handle for a pending timer, issued by [`Context::set_timer`].
///
/// Tokens are unique within a simulation; a fired or cancelled token is
/// never reused, so stale tokens can safely be ignored by agents.
///
/// Protocol state keeps an `Option<TimerToken>` per outstanding loss and
/// reply; the non-zero representation (index + 1) makes that option free.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TimerToken(NonZeroU64);

impl TimerToken {
    /// The token for the simulation's `index`-th timer.
    pub(crate) fn new(index: u64) -> Self {
        TimerToken(NonZeroU64::MIN.saturating_add(index))
    }

    /// The sequential index this token was issued with.
    pub(crate) fn index(self) -> u64 {
        self.0.get() - 1
    }
}

impl fmt::Debug for TimerToken {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TimerToken({})", self.index())
    }
}

impl fmt::Display for TimerToken {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "timer{}", self.index())
    }
}

/// Per-delivery metadata the network layer attaches to a packet handed to an
/// agent.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DeliveryMeta {
    /// The neighbouring node the packet arrived from.
    pub prev_hop: NodeId,
    /// The turning-point router: the router at which this copy of the packet
    /// was first forwarded onto a downstream link (paper §3.3). Only
    /// populated when [`NetConfig::router_assist`](crate::NetConfig) is set.
    pub turning_point: Option<NodeId>,
}

/// A protocol endpoint attached to a node (the source or a receiver).
///
/// Agents are pure state machines: every interaction with the network —
/// sending, timers, randomness, the clock — goes through the [`Context`],
/// which makes them unit-testable against a scripted context. The
/// [`Any`](std::any::Any) supertrait lets harnesses inspect concrete agent
/// state after a run via
/// [`Simulator::agent_as`](crate::Simulator::agent_as).
pub trait Agent: std::any::Any {
    /// Called once when the simulation starts (or when the agent is attached
    /// to an already-running simulation).
    fn on_start(&mut self, _ctx: &mut Context<'_>) {}

    /// Called for every packet the network delivers to this node.
    fn on_packet(&mut self, ctx: &mut Context<'_>, packet: &Packet, meta: &DeliveryMeta);

    /// Called when a timer set via [`Context::set_timer`] fires (unless it
    /// was cancelled).
    fn on_timer(&mut self, ctx: &mut Context<'_>, token: TimerToken);
}

/// The agent's window onto the simulation: clock, timers, transmission
/// primitives and deterministic randomness.
pub struct Context<'a> {
    pub(crate) sim: &'a mut Simulator,
    pub(crate) node: NodeId,
}

impl Context<'_> {
    /// The current simulated time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// The node this agent is attached to.
    #[inline]
    pub fn me(&self) -> NodeId {
        self.node
    }

    /// Read access to the multicast tree. Protocol agents do not need it —
    /// SRM and CESRM are end-to-end and learn distances from session
    /// messages — but instrumentation agents may.
    #[inline]
    pub fn tree(&self) -> &MulticastTree {
        self.sim.tree()
    }

    /// `true` when the simulator models the router-assisted capabilities of
    /// paper §3.3 (turning-point annotation and subcast).
    #[inline]
    pub fn router_assist(&self) -> bool {
        self.sim.config().router_assist
    }

    /// Schedules a timer to fire `after` from now; returns its token.
    pub fn set_timer(&mut self, after: SimDuration) -> TimerToken {
        self.sim.schedule_timer(self.node, after)
    }

    /// Cancels a pending timer. Cancelling an already-fired or unknown token
    /// is a no-op.
    pub fn cancel_timer(&mut self, token: TimerToken) {
        self.sim.cancel_timer(token);
    }

    /// Multicasts `body` to the whole group (floods the tree).
    pub fn multicast(&mut self, body: PacketBody) {
        self.sim.send_multicast(self.node, body);
    }

    /// Unicasts `body` along the tree path to `dest`.
    ///
    /// # Panics
    ///
    /// Panics if `dest` is this node itself.
    pub fn unicast(&mut self, dest: NodeId, body: PacketBody) {
        self.sim.send_unicast(self.node, dest, body);
    }

    /// Unicasts `body` to the router `via` which then floods only its
    /// subtree — the subcast primitive of paper §3.3.
    ///
    /// # Panics
    ///
    /// Panics unless router assistance is enabled in the simulator
    /// configuration.
    pub fn subcast(&mut self, via: NodeId, body: PacketBody) {
        assert!(
            self.router_assist(),
            "subcast requires router assistance to be enabled"
        );
        self.sim.send_subcast(self.node, via, body);
    }

    /// This node's deterministic random stream, seeded from
    /// ([`NetConfig::seed`](crate::NetConfig::seed), node) on first use.
    /// What it yields depends on this node's own draws only, never on
    /// what other nodes drew or when.
    #[inline]
    pub fn rng(&mut self) -> &mut StdRng {
        self.sim.rng_at(self.node)
    }
}
