//! Slab arena for in-flight packets.
//!
//! The simulator's hot path is dominated by `Hop` events — one per link
//! crossing, 62M of the 67M events in the full paper suite. Routing each
//! copy as an `Rc<Packet>` paid a refcount increment per scheduled hop and
//! a pointer chase per dispatch. The arena replaces that with a dense slab
//! of `Packet` slots addressed by small copyable [`PacketHandle`]s: events
//! carry an 8-byte handle, slot reuse keeps the working set compact, and
//! the per-hop cost is an index plus a generation check. A slot also
//! holds the packet's *route* — a unicast's destination or a subcast's
//! router — once, so no hop event has to carry it.
//!
//! Handles are generation-tagged: every slot carries a generation counter
//! bumped on free, and a handle is only valid while its generation matches
//! the slot's. A stale handle (use-after-free of a recycled slot) therefore
//! panics deterministically instead of silently aliasing another live
//! packet. Generations are never zero, which gives a handle a niche: the
//! simulator's event enum stores its discriminant there instead of in a
//! separate tag word. The arena involves no `unsafe` — the slab is a
//! plain `Vec` and the free list a `Vec<u32>`.
//!
//! # Lifecycle
//!
//! ```text
//! alloc(route)       pending = 1, slot holds `route` and a placeholder
//! fill(h, packet)    store the real packet (before control returns to the
//!                    event loop — scheduled hops dereference the slot)
//! retain(h)          +1 per scheduled hop event that references the packet
//! release(h)         -1; at zero the generation bumps and the slot recycles
//! take(h)/restore()  temporarily move the packet out during hop dispatch so
//!                    the simulator can be borrowed mutably alongside it
//! ```

use std::num::NonZeroU32;

use crate::{CastClass, Packet, PacketBody, PacketId, SeqNo};
use topology::NodeId;

/// A generation-tagged index into a [`PacketArena`]. Copyable, 8 bytes.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct PacketHandle {
    index: u32,
    generation: NonZeroU32,
}

impl PacketHandle {
    /// The slot index (stable while the handle is live). Exposed for
    /// diagnostics and tests; the value is meaningless across a free.
    #[inline]
    pub fn index(self) -> u32 {
        self.index
    }

    /// The generation the handle was minted under (never zero).
    #[inline]
    pub fn generation(self) -> u32 {
        self.generation.get()
    }
}

/// The generation a freed slot moves on to: the next non-zero value.
fn next_generation(g: NonZeroU32) -> NonZeroU32 {
    g.checked_add(1).unwrap_or(NonZeroU32::MIN)
}

struct Slot {
    generation: NonZeroU32,
    /// Live references: the sender's own reference plus one per scheduled
    /// hop event. The slot recycles when this reaches zero.
    pending: u32,
    /// Where the packet is routed: see [`PacketArena::route`].
    route: NodeId,
    packet: Packet,
}

/// Always-on allocation counters of one arena's lifetime. Deterministic
/// (pure functions of the alloc/release sequence) and cheap: one add and
/// one compare on paths that already mutate the same struct.
#[derive(Clone, Copy, PartialEq, Eq, Default, Debug)]
pub struct ArenaTelemetry {
    /// Total allocations.
    pub allocs: u64,
    /// Allocations served by recycling a free-listed slot (the rest grew
    /// the slab); `allocs - recycled` equals the slab capacity.
    pub recycled: u64,
    /// High-water mark of concurrently live packets.
    pub high_water: u64,
}

impl ArenaTelemetry {
    /// Folds another arena's counters in (summing totals, maxing the
    /// high-water figure), for aggregating across runs or shards.
    pub fn merge(&mut self, other: &ArenaTelemetry) {
        self.allocs += other.allocs;
        self.recycled += other.recycled;
        self.high_water = self.high_water.max(other.high_water);
    }
}

/// A free-list slab of reference-counted [`Packet`] slots.
///
/// See the module docs for the lifecycle. All operations are O(1);
/// the backing storage only ever grows to the peak number of concurrently
/// in-flight packets (hundreds, even in the full paper suite — the event
/// queue's high-water mark bounds it).
pub struct PacketArena {
    slots: Vec<Slot>,
    free: Vec<u32>,
    live: usize,
    telemetry: ArenaTelemetry,
}

/// A cheap body used to fill vacant slots; never observable through a valid
/// handle.
fn placeholder() -> Packet {
    Packet {
        origin: NodeId::ROOT,
        cast: CastClass::Multicast,
        body: PacketBody::Data {
            id: PacketId {
                source: NodeId::ROOT,
                seq: SeqNo(0),
            },
        },
    }
}

impl PacketArena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        PacketArena {
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            telemetry: ArenaTelemetry::default(),
        }
    }

    /// Lifetime allocation counters (see [`ArenaTelemetry`]).
    pub fn telemetry(&self) -> ArenaTelemetry {
        self.telemetry
    }

    /// Number of live (allocated, not yet fully released) packets.
    #[inline]
    pub fn live(&self) -> usize {
        self.live
    }

    /// Total slots ever created (live + recyclable).
    #[inline]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Allocates a slot with `pending = 1` for a packet routed towards
    /// `route` (see [`route`](Self::route)), holding a placeholder until
    /// [`fill`](Self::fill). Split from `fill` so the caller can mint the
    /// handle first, thread it through fan-out (which retains it per
    /// scheduled hop), and only then move the packet into the slot. Every
    /// allocation sets the route, so none survives a slot's recycling.
    pub fn alloc(&mut self, route: NodeId) -> PacketHandle {
        self.live += 1;
        self.telemetry.allocs += 1;
        if self.live as u64 > self.telemetry.high_water {
            self.telemetry.high_water = self.live as u64;
        }
        if let Some(index) = self.free.pop() {
            self.telemetry.recycled += 1;
            let slot = &mut self.slots[index as usize];
            debug_assert_eq!(slot.pending, 0, "free-listed slot still referenced");
            slot.pending = 1;
            slot.route = route;
            PacketHandle {
                index,
                generation: slot.generation,
            }
        } else {
            let index = u32::try_from(self.slots.len()).expect("packet arena overflow");
            self.slots.push(Slot {
                generation: NonZeroU32::MIN,
                pending: 1,
                route,
                packet: placeholder(),
            });
            PacketHandle {
                index,
                generation: NonZeroU32::MIN,
            }
        }
    }

    #[inline]
    fn slot(&self, h: PacketHandle) -> &Slot {
        let slot = &self.slots[h.index as usize];
        assert_eq!(slot.generation, h.generation, "stale packet handle");
        slot
    }

    #[inline]
    fn slot_mut(&mut self, h: PacketHandle) -> &mut Slot {
        let slot = &mut self.slots[h.index as usize];
        assert_eq!(slot.generation, h.generation, "stale packet handle");
        slot
    }

    /// Stores `packet` into the slot behind `h`.
    #[inline]
    pub fn fill(&mut self, h: PacketHandle, packet: Packet) {
        self.slot_mut(h).packet = packet;
    }

    /// Read access to the packet behind `h`.
    ///
    /// # Panics
    ///
    /// Panics if `h` is stale (its slot was freed and possibly recycled).
    #[inline]
    pub fn get(&self, h: PacketHandle) -> &Packet {
        &self.slot(h).packet
    }

    /// The route the packet behind `h` was allocated with: a unicast's
    /// destination or a subcast's router. A multicast's route is its
    /// origin, which nothing reads.
    ///
    /// # Panics
    ///
    /// Panics if `h` is stale.
    #[inline]
    pub fn route(&self, h: PacketHandle) -> NodeId {
        self.slot(h).route
    }

    /// Moves the packet out of its slot, leaving a placeholder. Pair with
    /// [`restore`](Self::restore); the reference count is unaffected.
    #[inline]
    pub fn take(&mut self, h: PacketHandle) -> Packet {
        std::mem::replace(&mut self.slot_mut(h).packet, placeholder())
    }

    /// Returns a packet previously moved out with [`take`](Self::take).
    #[inline]
    pub fn restore(&mut self, h: PacketHandle, packet: Packet) {
        self.slot_mut(h).packet = packet;
    }

    /// Adds one reference (a scheduled hop event now names this packet).
    #[inline]
    pub fn retain(&mut self, h: PacketHandle) {
        self.slot_mut(h).pending += 1;
    }

    /// Drops one reference; at zero the generation bumps (invalidating all
    /// copies of `h`) and the slot joins the free list.
    #[inline]
    pub fn release(&mut self, h: PacketHandle) {
        let index = h.index;
        let slot = self.slot_mut(h);
        debug_assert!(slot.pending > 0, "release of unreferenced slot");
        slot.pending -= 1;
        if slot.pending == 0 {
            slot.generation = next_generation(slot.generation);
            slot.packet = placeholder();
            self.free.push(index);
            self.live -= 1;
        }
    }
}

impl Default for PacketArena {
    fn default() -> Self {
        PacketArena::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt(seq: u64) -> Packet {
        Packet {
            origin: NodeId(1),
            cast: CastClass::Unicast,
            body: PacketBody::Data {
                id: PacketId {
                    source: NodeId(1),
                    seq: SeqNo(seq),
                },
            },
        }
    }

    #[test]
    fn alloc_fill_get_roundtrip() {
        let mut arena = PacketArena::new();
        let h = arena.alloc(NodeId(4));
        arena.fill(h, pkt(7));
        assert_eq!(arena.get(h), &pkt(7));
        assert_eq!(arena.route(h), NodeId(4));
        assert_eq!(arena.live(), 1);
        arena.release(h);
        assert_eq!(arena.live(), 0);
    }

    #[test]
    fn slots_recycle_with_new_generation() {
        let mut arena = PacketArena::new();
        let a = arena.alloc(NodeId(2));
        arena.release(a);
        let b = arena.alloc(NodeId(5));
        assert_eq!(a.index(), b.index(), "freed slot should be reused");
        assert_ne!(a.generation(), b.generation());
        assert_eq!(
            arena.route(b),
            NodeId(5),
            "a recycled slot takes the new route"
        );
        assert_eq!(arena.capacity(), 1);
    }

    #[test]
    fn retain_defers_recycling() {
        let mut arena = PacketArena::new();
        let h = arena.alloc(NodeId::ROOT);
        arena.fill(h, pkt(3));
        arena.retain(h);
        arena.release(h); // sender's reference
        assert_eq!(arena.live(), 1, "hop reference keeps the slot live");
        assert_eq!(arena.get(h), &pkt(3));
        arena.release(h); // hop's reference
        assert_eq!(arena.live(), 0);
    }

    #[test]
    fn take_restore_preserves_contents() {
        let mut arena = PacketArena::new();
        let h = arena.alloc(NodeId::ROOT);
        arena.fill(h, pkt(5));
        let moved = arena.take(h);
        assert_eq!(moved, pkt(5));
        arena.restore(h, moved);
        assert_eq!(arena.get(h), &pkt(5));
    }

    #[test]
    #[should_panic(expected = "stale packet handle")]
    fn stale_handle_rejected() {
        let mut arena = PacketArena::new();
        let a = arena.alloc(NodeId::ROOT);
        arena.release(a);
        let _b = arena.alloc(NodeId::ROOT); // recycles the slot under a new generation
        arena.get(a);
    }

    #[test]
    fn generations_skip_zero_when_they_wrap() {
        assert_eq!(next_generation(NonZeroU32::MAX), NonZeroU32::MIN);
        assert_eq!(next_generation(NonZeroU32::MIN).get(), 2);
    }
}
