//! Deterministic discrete-event network simulator for reliable-multicast
//! protocol studies.
//!
//! This crate plays the role NS2 plays in the CESRM paper (Livadas & Keidar,
//! DSN 2004): it disseminates packets over a source-rooted IP multicast tree
//! ([`topology::MulticastTree`]) with per-link delay and bandwidth, injects
//! per-`(link, sequence-number)` losses from one drop plan ([`TraceLoss`],
//! optionally with per-link loss of recovery traffic) whose size does not
//! grow with the tree, and drives protocol agents attached to the source
//! and the receivers.
//!
//! # Model
//!
//! * **Multicast** floods the whole tree from the originator (dense-mode IP
//!   multicast): every node forwards to all tree neighbours except the one
//!   the packet came from.
//! * **Unicast** follows the unique tree path hop by hop.
//! * **Subcast** (router-assisted mode) unicasts to a designated router and
//!   then floods only its subtree — the LMS-style capability of §3.3.
//! * Links serialize packets FIFO per direction at the configured bandwidth
//!   and add a fixed propagation delay. Control packets are 0 bytes and
//!   payload packets 1 KB, as in the paper's simulation setup (§4.3).
//! * Event ordering is total — `(time, owner node, per-node counter)`,
//!   the owner being the node that created the event — and every node
//!   draws from its own seeded RNG stream, so a run is bit-for-bit
//!   reproducible given the same seed, whatever order agents were
//!   attached in and however nodes are spread over shards.
//!
//! # Examples
//!
//! ```
//! use netsim::{Agent, Context, DeliveryMeta, NetConfig, Packet, PacketBody, SimDuration,
//!              SimTime, Simulator, TimerToken};
//! use topology::TreeBuilder;
//!
//! struct Pinger;
//! impl Agent for Pinger {
//!     fn on_start(&mut self, ctx: &mut Context<'_>) {
//!         let body = PacketBody::session(ctx.me(), ctx.now(), None, Vec::new());
//!         ctx.multicast(body);
//!     }
//!     fn on_packet(&mut self, _: &mut Context<'_>, _: &Packet, _: &DeliveryMeta) {}
//!     fn on_timer(&mut self, _: &mut Context<'_>, _: TimerToken) {}
//! }
//!
//! # fn main() -> Result<(), topology::TreeError> {
//! let mut b = TreeBuilder::new();
//! let r = b.add_router(b.root());
//! b.add_receiver(r);
//! b.add_receiver(r);
//! let tree = b.build()?;
//! let mut sim = Simulator::new(tree, NetConfig::default());
//! sim.attach_agent(topology::NodeId::ROOT, Box::new(Pinger));
//! sim.run_until(SimTime::ZERO + SimDuration::from_secs(1));
//! # Ok(())
//! # }
//! ```
//!
//! # Observation
//!
//! [`Simulator::set_obs`] installs the run's `obs::Instruments` handle: the
//! simulator then emits structured `sent`/`dropped`/`delivered` events for
//! recovery-relevant packets (`docs/TRACING.md`) when the handle has an
//! event consumer. With the default off-handle every call site is one
//! branch. What the engine counts is always on and exact
//! ([`Simulator::telemetry`], `docs/PROFILING.md`); it never reads the
//! host clock.
//!
//! # Sharded execution (million-node runs)
//!
//! One simulation can be partitioned across worker threads, each running a
//! `Simulator` over the same shared tree ([`Simulator::new_shared`]) for a
//! subset of nodes ([`Simulator::enable_sharding`]). Packets bound for a
//! remote node surface in an outbox ([`Simulator::take_outbox`], as
//! [`CrossShardPacket`]) and are injected on the owning shard
//! ([`Simulator::inject_cross_shard`]); the harness exchanges them in
//! conservative-lookahead epochs. Event keys and RNG streams are per
//! node (see the model above) and each node lives on exactly one shard,
//! so event order — and therefore every result — is byte-identical at any
//! shard count. The sharding model and determinism argument are
//! documented in `docs/SCALING.md`.

mod agent;
mod arena;
mod config;
mod loss;
mod observer;
mod packet;
mod queue;
mod sim;
mod time;

pub use agent::{Agent, Context, DeliveryMeta, TimerToken};
pub use arena::{ArenaTelemetry, PacketArena, PacketHandle};
pub use config::NetConfig;
pub use loss::TraceLoss;
pub use observer::{Direction, NullObserver, SimObserver};
pub use packet::{
    CastClass, Packet, PacketBody, PacketId, RecoveryTuple, SeqNo, SessionData, SessionEcho,
};
pub use queue::{CalendarQueue, Entry, QueueTelemetry};
pub use sim::{scheduled_event_footprint_bytes, CrossShardPacket, EngineTelemetry, Simulator};
pub use time::{SimDuration, SimTime};
