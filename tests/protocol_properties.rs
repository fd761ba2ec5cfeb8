//! Property-based tests of the protocol stack: random topologies and
//! random loss plans, with reliability and determinism as invariants.

use std::cell::RefCell;
use std::rc::Rc;

use cesrm::{CesrmAgent, CesrmConfig};
use metrics::{PacketKind, RecoveryLog, TrafficCollector};
use netsim::{NetConfig, SeqNo, SimDuration, SimTime, Simulator, TraceLoss};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use srm::{SourceConfig, SrmAgent, SrmParams};
use topology::{random_tree, LinkId, MulticastTree, NodeId, TreeShape};

const PACKETS: u64 = 30;

/// Random tree plus a random loss plan over original data packets; losses
/// never hit the final packet's *session detection window* unfairly because
/// the drain below is generous.
fn scenario() -> impl Strategy<Value = (u64, usize, usize, Vec<(usize, u64)>)> {
    // (tree seed, receivers, depth, drops as (link pick, seq))
    (
        any::<u64>(),
        2usize..8,
        2usize..5,
        proptest::collection::vec((0usize..64, 0u64..PACKETS), 0..25),
    )
}

struct Outcome {
    detected: usize,
    unrecovered: usize,
    injected: usize,
    expedited_replies: u64,
}

fn run(
    tree: &MulticastTree,
    drops: &[(LinkId, SeqNo)],
    cesrm: bool,
    seed: u64,
) -> (Outcome, Simulator) {
    let net = NetConfig::default().with_seed(seed);
    let log = RecoveryLog::shared();
    let collector = Rc::new(RefCell::new(TrafficCollector::new()));
    let mut sim = Simulator::new(tree.clone(), net);
    sim.set_observer(Box::new(Rc::clone(&collector)));
    sim.set_loss(TraceLoss::new(drops.to_vec()));
    let source = tree.root();
    let source_cfg = SourceConfig {
        packets: PACKETS,
        period: SimDuration::from_millis(80),
        start_at: SimTime::ZERO + SimDuration::from_secs(4),
    };
    if cesrm {
        let cfg = CesrmConfig::paper_default();
        sim.attach_agent(
            source,
            Box::new(CesrmAgent::source(source, cfg, source_cfg, log.clone())),
        );
        for &r in tree.receivers() {
            sim.attach_agent(
                r,
                Box::new(CesrmAgent::receiver(r, source, cfg, log.clone())),
            );
        }
    } else {
        let params = SrmParams::paper_default();
        sim.attach_agent(
            source,
            Box::new(SrmAgent::source(source, params, source_cfg, log.clone())),
        );
        for &r in tree.receivers() {
            sim.attach_agent(
                r,
                Box::new(SrmAgent::receiver(r, source, params, log.clone())),
            );
        }
    }
    // 4 s warm-up + 2.4 s of data + 40 s drain covers several SRM back-off
    // rounds even for deep trees.
    sim.run_until(SimTime::ZERO + SimDuration::from_secs(50));

    // Count the receiver-losses the plan actually injects: a receiver
    // loses seq iff some link on its source path drops it.
    let mut injected = 0usize;
    for &r in tree.receivers() {
        let path = tree.path_links(tree.root(), r);
        for seq in 0..PACKETS {
            if path.iter().any(|l| drops.contains(&(*l, SeqNo(seq)))) {
                injected += 1;
            }
        }
    }
    let log = log.borrow();
    let outcome = Outcome {
        detected: log.len(),
        unrecovered: log.unrecovered(),
        injected,
        expedited_replies: collector.borrow().total_sends(PacketKind::ExpeditedReply),
    };
    drop(log);
    (outcome, sim)
}

/// The real reliability invariant: at the end of the run, every receiver
/// holds every transmitted packet (checked against the live agent state).
fn assert_full_reception(sim: &Simulator, cesrm: bool) {
    for &r in sim.tree().receivers() {
        for seq in 0..PACKETS {
            let has = if cesrm {
                sim.agent_as::<CesrmAgent>(r)
                    .expect("cesrm agent attached")
                    .core()
                    .has(SeqNo(seq))
            } else {
                sim.agent_as::<SrmAgent>(r)
                    .expect("srm agent attached")
                    .core()
                    .has(SeqNo(seq))
            };
            assert!(has, "receiver {r} is missing packet {seq}");
        }
    }
}

/// Resolves the proptest-picked drop plan against a concrete tree.
fn materialize(tree: &MulticastTree, picks: &[(usize, u64)]) -> Vec<(LinkId, SeqNo)> {
    let links: Vec<LinkId> = tree.links().collect();
    picks
        .iter()
        .map(|&(li, seq)| (links[li % links.len()], SeqNo(seq)))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Reliability: every injected loss is detected and recovered, under
    /// both protocols, for arbitrary topologies and loss plans.
    #[test]
    fn all_injected_losses_recovered((tree_seed, receivers, depth, picks) in scenario()) {
        let mut rng = StdRng::seed_from_u64(tree_seed);
        let tree = random_tree(&mut rng, TreeShape::new(receivers, depth));
        let drops = materialize(&tree, &picks);
        for cesrm in [false, true] {
            let (out, sim) = run(&tree, &drops, cesrm, 7);
            // A repair can arrive before a receiver even detects its loss
            // (expedited repairs often beat gap detection), so detections
            // can undercut injections — but never exceed them, and every
            // detected loss must recover.
            prop_assert!(
                out.detected <= out.injected,
                "protocol {} detected {} of {} injected losses",
                if cesrm { "CESRM" } else { "SRM" }, out.detected, out.injected
            );
            prop_assert_eq!(out.unrecovered, 0);
            assert_full_reception(&sim, cesrm);
        }
    }

    /// SRM never produces expedited traffic; CESRM's expedited replies only
    /// appear when there are losses to recover.
    #[test]
    fn expedited_traffic_only_from_cesrm((tree_seed, receivers, depth, picks) in scenario()) {
        let mut rng = StdRng::seed_from_u64(tree_seed);
        let tree = random_tree(&mut rng, TreeShape::new(receivers, depth));
        let drops = materialize(&tree, &picks);
        let (srm, _) = run(&tree, &drops, false, 7);
        prop_assert_eq!(srm.expedited_replies, 0);
        let (cesrm, _) = run(&tree, &drops, true, 7);
        if cesrm.expedited_replies > 0 {
            prop_assert!(cesrm.injected > 0);
        }
    }
}

/// Determinism over a fixed, moderately complex case (not a proptest: the
/// property is exact equality between two identical runs).
#[test]
fn identical_runs_are_bit_identical() {
    let mut rng = StdRng::seed_from_u64(99);
    let tree = random_tree(&mut rng, TreeShape::new(6, 4));
    let links: Vec<LinkId> = tree.links().collect();
    let drops: Vec<(LinkId, SeqNo)> = (5..25)
        .map(|i| (links[i % links.len()], SeqNo(i as u64)))
        .collect();
    let (a, _) = run(&tree, &drops, true, 3);
    let (b, _) = run(&tree, &drops, true, 3);
    assert_eq!(a.detected, b.detected);
    assert_eq!(a.unrecovered, b.unrecovered);
    assert_eq!(a.expedited_replies, b.expedited_replies);
}

/// The same loss plan injected at a different simulator seed (different
/// suppression timer draws) must still recover everything.
#[test]
fn recovery_is_seed_independent() {
    let mut rng = StdRng::seed_from_u64(5);
    let tree = random_tree(&mut rng, TreeShape::new(7, 4));
    let links: Vec<LinkId> = tree.links().collect();
    let drops: Vec<(LinkId, SeqNo)> = (0..20)
        .map(|i| (links[i % links.len()], SeqNo(i as u64)))
        .collect();
    for seed in [1, 2, 3, 4, 5] {
        let (out, sim) = run(&tree, &drops, true, seed);
        assert_eq!(out.unrecovered, 0, "seed {seed}");
        assert_full_reception(&sim, true);
    }
}

/// A loss plan touching every link at once (a catastrophic burst) still
/// fully recovers — the source retains every packet, so SRM's rounds make
/// progress as long as requests eventually reach it.
#[test]
fn catastrophic_shared_burst_recovers() {
    let mut rng = StdRng::seed_from_u64(17);
    let tree = random_tree(&mut rng, TreeShape::new(8, 4));
    let mut drops = Vec::new();
    for link in tree.links() {
        for seq in 10..14 {
            drops.push((link, SeqNo(seq)));
        }
    }
    let (out, sim) = run(&tree, &drops, true, 11);
    assert_eq!(out.unrecovered, 0);
    assert_full_reception(&sim, true);
    assert!(out.detected > 0);
}

/// NodeId sanity used across the suite.
#[test]
fn root_is_source_everywhere() {
    let mut rng = StdRng::seed_from_u64(23);
    let tree = random_tree(&mut rng, TreeShape::new(5, 3));
    assert_eq!(tree.root(), NodeId::ROOT);
}
