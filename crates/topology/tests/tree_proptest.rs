//! Property tests for the flat (CSR) layout of [`MulticastTree`].
//!
//! The tree keeps children in one offsets array plus one id array, and the
//! receivers below each node as a range of one preorder receiver list. On
//! trees from all three constructors — [`TreeBuilder`] with arbitrary
//! attachment orders, [`random_tree`] and [`scale_tree`] — every query must
//! agree with the definition computed from the parent relation alone:
//!
//! * `children(n)` is the parent scan over all nodes in id order;
//! * `receivers_below(n)` is `{r : is_ancestor_or_self(n, r)}` as a set, in
//!   the order of a preorder walk;
//! * `neighbors(n)` is the parent followed by the children. The simulator's
//!   event keys, and so every run's determinism, depend on that order.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use topology::{
    random_tree, scale_tree, LevelSpec, MulticastTree, NodeId, ScaleShape, TreeBuilder, TreeShape,
};

/// A tree built by attaching nodes in an arbitrary order: each step hangs
/// a router or a receiver under a pick among the existing non-receivers,
/// so children of one node get non-contiguous ids and preorder differs
/// from id order. Routers left childless get one receiver each at the end.
fn builder_tree(steps: &[(u32, bool)]) -> MulticastTree {
    let mut b = TreeBuilder::new();
    let mut hosts = vec![b.root()];
    let mut has_child = vec![false];
    for &(pick, router) in steps {
        let host = hosts[pick as usize % hosts.len()];
        has_child[host.index()] = true;
        let node = if router {
            let r = b.add_router(host);
            hosts.push(r);
            r
        } else {
            b.add_receiver(host)
        };
        has_child.resize(node.index() + 1, false);
    }
    for &host in &hosts {
        if !has_child[host.index()] {
            b.add_receiver(host);
        }
    }
    b.build()
        .expect("every router has a child and the root has one")
}

/// The receivers in a preorder walk (children in creation order) from `n`.
fn preorder_receivers(t: &MulticastTree, n: NodeId, out: &mut Vec<NodeId>) {
    if t.is_receiver(n) {
        out.push(n);
    }
    for &c in t.children(n) {
        preorder_receivers(t, c, out);
    }
}

fn check_flat_layout(t: &MulticastTree) {
    let mut pre = Vec::new();
    preorder_receivers(t, t.root(), &mut pre);
    for n in t.nodes() {
        let scanned: Vec<NodeId> = t.nodes().filter(|&m| t.parent(m) == Some(n)).collect();
        prop_assert_eq!(t.children(n), scanned.as_slice(), "children of {}", n);

        let mut below = t.receivers_below(n).to_vec();
        let in_preorder: Vec<NodeId> = pre
            .iter()
            .copied()
            .filter(|&r| t.is_ancestor_or_self(n, r))
            .collect();
        prop_assert_eq!(&below, &in_preorder, "receivers below {} in preorder", n);
        below.sort_unstable();
        let by_definition: Vec<NodeId> = t
            .receivers()
            .iter()
            .copied()
            .filter(|&r| t.is_ancestor_or_self(n, r))
            .collect();
        prop_assert_eq!(below, by_definition, "receivers below {} as a set", n);

        let expected: Vec<NodeId> = t.parent(n).into_iter().chain(scanned).collect();
        prop_assert_eq!(t.neighbors(n), expected, "neighbours of {}", n);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn builder_trees_match_their_parent_relation(
        steps in proptest::collection::vec((0u32..64, any::<bool>()), 0..40),
    ) {
        check_flat_layout(&builder_tree(&steps));
    }

    #[test]
    fn generated_trees_match_their_parent_relation(
        seed in any::<u64>(),
        (receivers, depth) in (1usize..16, 1usize..7),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        check_flat_layout(&random_tree(&mut rng, TreeShape::new(receivers, depth)));
    }

    #[test]
    fn scale_trees_match_their_parent_relation(
        seed in any::<u64>(),
        fanouts in proptest::collection::vec((1u32..4, 0u32..3), 1..4),
    ) {
        let levels = fanouts
            .iter()
            .map(|&(min, spread)| LevelSpec {
                fanout: (min, min + spread),
                delay_ns: (1, 10),
            })
            .collect();
        check_flat_layout(&scale_tree(seed, &ScaleShape::new(levels)).tree);
    }
}
