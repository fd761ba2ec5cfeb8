//! Property tests for the packet arena's slot-recycling discipline.
//!
//! The simulator routes 62M hop events through [`PacketArena`] handles, so
//! the one property everything rests on is: **handle recycling never
//! aliases two live packets**. A handle minted by `alloc` must never equal
//! any handle that was live before it, two concurrently-live handles must
//! never share a slot index, and every live handle must keep reading back
//! exactly the packet and route it was given — under arbitrary interleavings
//! of alloc / retain / release. These tests drive the arena with random
//! operation tapes against an exact shadow model.

use netsim::{CastClass, Packet, PacketArena, PacketBody, PacketHandle, PacketId, SeqNo};
use proptest::prelude::*;
use topology::NodeId;

/// A distinguishable packet per allocation: the sequence number encodes the
/// allocation ordinal, so any slot aliasing shows up as a content mismatch.
fn pkt(ordinal: u64) -> Packet {
    Packet {
        origin: NodeId((ordinal % 97) as u32),
        cast: CastClass::Multicast,
        body: PacketBody::Data {
            id: PacketId {
                source: NodeId::ROOT,
                seq: SeqNo(ordinal),
            },
        },
    }
}

/// A distinguishable route per allocation, so a route left behind by a
/// recycled slot's previous packet shows up as a mismatch.
fn route(ordinal: u64) -> NodeId {
    NodeId((ordinal % 89) as u32)
}

/// Shadow-model entry for one live allocation.
struct Live {
    handle: PacketHandle,
    ordinal: u64,
    refs: u32,
}

/// Replays an operation tape against the arena and the shadow model,
/// checking the aliasing invariants after every step.
///
/// Each tape element is `(op, pick)`: `op % 3` selects alloc / retain /
/// release, `pick` selects which live allocation to touch.
fn run_tape(tape: &[(u8, u32)]) {
    let mut arena = PacketArena::new();
    let mut live: Vec<Live> = Vec::new();
    let mut retired: Vec<PacketHandle> = Vec::new();
    let mut next_ordinal = 0u64;

    for &(op, pick) in tape {
        match op % 3 {
            0 => {
                let handle = arena.alloc(route(next_ordinal));
                arena.fill(handle, pkt(next_ordinal));
                // A fresh handle must not collide with any live handle's
                // slot, and must not resurrect any retired handle.
                for l in &live {
                    assert_ne!(
                        l.handle.index(),
                        handle.index(),
                        "two live handles share slot {}",
                        handle.index()
                    );
                }
                for r in &retired {
                    assert_ne!(*r, handle, "recycled handle aliases a previously-freed one");
                }
                live.push(Live {
                    handle,
                    ordinal: next_ordinal,
                    refs: 1,
                });
                next_ordinal += 1;
            }
            1 if !live.is_empty() => {
                let i = pick as usize % live.len();
                let l = &mut live[i];
                arena.retain(l.handle);
                l.refs += 1;
            }
            2 if !live.is_empty() => {
                let i = pick as usize % live.len();
                arena.release(live[i].handle);
                live[i].refs -= 1;
                if live[i].refs == 0 {
                    retired.push(live.swap_remove(i).handle);
                }
            }
            _ => {}
        }

        // The arena and the model must agree on the live set, and every
        // live handle must still read back its own packet (any slot
        // aliasing would overwrite someone else's contents).
        prop_assert_eq!(arena.live(), live.len());
        for l in &live {
            prop_assert_eq!(arena.get(l.handle), &pkt(l.ordinal));
            prop_assert_eq!(arena.route(l.handle), route(l.ordinal));
        }
    }

    // Drain the survivors: the arena must empty out exactly.
    for l in &live {
        for _ in 0..l.refs {
            arena.release(l.handle);
        }
    }
    prop_assert_eq!(arena.live(), 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary alloc/retain/release interleavings keep every live handle
    /// unaliased and content-faithful.
    #[test]
    fn recycling_never_aliases_live_packets(
        tape in proptest::collection::vec((0u8..3, 0u32..1024), 1..200),
    ) {
        run_tape(&tape);
    }

    /// Alloc-heavy tapes (two in three ops allocate) force deep slabs with
    /// sparse recycling.
    #[test]
    fn alloc_heavy_tapes_stay_sound(
        tape in proptest::collection::vec((0u8..4, 0u32..1024), 1..200),
    ) {
        // `op % 3` maps both 0 and 3 to alloc, so the 0..4 range biases
        // the tape toward allocation.
        run_tape(&tape);
    }

    /// Release-heavy tapes (free as fast as possible) maximize slot churn,
    /// the regime where a generation-tag bug would alias first.
    #[test]
    fn churn_heavy_tapes_stay_sound(
        ops in proptest::collection::vec((0u32..1024, 0u32..1024), 1..150),
    ) {
        // Alternate alloc and release every step for maximal recycling.
        let tape: Vec<(u8, u32)> = ops
            .iter()
            .flat_map(|&(a, b)| [(0u8, a), (2u8, b)])
            .collect();
        run_tape(&tape);
    }
}
