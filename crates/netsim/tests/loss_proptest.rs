//! Property tests for the simulator's one loss model, [`TraceLoss`],
//! against a reference model: a `BTreeSet<(link, seq)>` of planned data
//! drops plus, for recovery traffic, one `gen_bool(rate)` draw from the
//! sender's stream per crossing of a link with a positive rate.
//!
//! Plans mix duplicates, link 0, link ids up to 2²¹ and sequence numbers
//! up to 2²⁰; probes hit the plan, miss it, and fall past both ends.

use std::collections::BTreeSet;

use netsim::{CastClass, Packet, PacketBody, PacketId, SeqNo, SimDuration, TraceLoss};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use topology::{LinkId, NodeId};

fn data(seq: u64) -> Packet {
    Packet {
        origin: NodeId::ROOT,
        cast: CastClass::Multicast,
        body: PacketBody::Data {
            id: PacketId {
                source: NodeId::ROOT,
                seq: SeqNo(seq),
            },
        },
    }
}

fn request(seq: u64) -> Packet {
    Packet {
        origin: NodeId(1),
        cast: CastClass::Multicast,
        body: PacketBody::Request {
            id: PacketId {
                source: NodeId::ROOT,
                seq: SeqNo(seq),
            },
            requestor: NodeId(1),
            dist_req_src: SimDuration::ZERO,
        },
    }
}

/// Link ids: link 0, a crowded low range (duplicates and shared
/// sequence numbers) and the full 2²¹ range.
fn link() -> impl Strategy<Value = u32> {
    prop_oneof![Just(0u32), 0u32..8, 0u32..1 << 21]
}

/// Sequence numbers: a crowded low range and the full 2²⁰ range.
fn seq() -> impl Strategy<Value = u64> {
    prop_oneof![0u64..8, 0u64..1 << 20]
}

/// `contains` and the data path of `should_drop` against the model, on
/// `(link, seq)`; data never draws.
fn check_data(loss: &TraceLoss, model: &BTreeSet<(u32, u64)>, link: u32, seq: u64) {
    let planned = model.contains(&(link, seq));
    let l = LinkId(NodeId(link));
    assert_eq!(loss.contains(l, SeqNo(seq)), planned, "({link}, {seq})");
    let drawn = loss.should_drop(l, &data(seq), || -> &mut StdRng {
        panic!("data never draws")
    });
    assert_eq!(drawn, planned, "data ({link}, {seq})");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn trace_loss_matches_a_set_of_planned_drops(
        plan in proptest::collection::vec((link(), seq()), 0..48),
        probes in proptest::collection::vec((link(), seq()), 1..48),
    ) {
        let model: BTreeSet<(u32, u64)> = plan.iter().copied().collect();
        let loss = TraceLoss::new(plan.iter().map(|&(l, s)| (LinkId(NodeId(l)), SeqNo(s))));
        prop_assert_eq!(loss.len(), model.len());
        prop_assert_eq!(loss.is_empty(), model.is_empty());
        let max_seq = model.iter().map(|&(_, s)| s).max().unwrap_or(0);
        let outside = [
            (0, max_seq + 1),
            (u32::MAX, 0),
            (u32::MAX, max_seq),
            (0, u64::MAX),
        ];
        for &(link, seq) in plan.iter().chain(&probes).chain(&outside) {
            check_data(&loss, &model, link, seq);
            // A plan alone never drops, nor draws for, recovery traffic.
            let dropped = loss.should_drop(LinkId(NodeId(link)), &request(seq), || -> &mut StdRng {
                panic!("lossless recovery never draws")
            });
            prop_assert!(!dropped, "request ({}, {})", link, seq);
        }
    }

    #[test]
    fn recovery_rates_draw_once_per_lossy_crossing(
        plan in proptest::collection::vec((0u32..12, 0u64..8), 0..24),
        rates in proptest::collection::vec(prop_oneof![Just(0.0), Just(1.0), 0.0..1.0], 0..10),
        probes in proptest::collection::vec((0u32..12, 0u64..8), 1..64),
        stream_seed in any::<u64>(),
    ) {
        let model: BTreeSet<(u32, u64)> = plan.iter().copied().collect();
        let loss = TraceLoss::new(plan.iter().map(|&(l, s)| (LinkId(NodeId(l)), SeqNo(s))))
            .with_recovery_rates(rates.clone());
        prop_assert_eq!(loss.len(), model.len());
        // The sender's stream, seeded on first use, and the model's copy.
        let mut stream: Option<StdRng> = None;
        let mut reference = StdRng::seed_from_u64(stream_seed);
        for &(link, seq) in &probes {
            check_data(&loss, &model, link, seq);
            let rate = rates.get(link as usize).copied().unwrap_or(0.0);
            let seeded = stream.is_some();
            let dropped = loss.should_drop(LinkId(NodeId(link)), &request(seq), || {
                stream.get_or_insert_with(|| StdRng::seed_from_u64(stream_seed))
            });
            if rate > 0.0 {
                prop_assert_eq!(dropped, reference.gen_bool(rate), "({}, {})", link, seq);
                prop_assert!(stream.is_some(), "a lossy crossing seeds the stream");
                if rate == 1.0 {
                    prop_assert!(dropped, "a rate-1 link always drops non-data");
                }
            } else {
                prop_assert!(!dropped, "a rate-0 link never drops");
                prop_assert_eq!(stream.is_some(), seeded, "a rate-0 link never seeds the stream");
            }
        }
    }
}
