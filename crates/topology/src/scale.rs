use rand::{rngs::StdRng, Rng, SeedableRng};

use crate::{LinkId, MulticastTree, NodeKind, TreeError};

/// Generation parameters for one level of a [`ScaleShape`] tree.
///
/// Level `i` describes how the nodes at depth `i` branch: every node at
/// depth `i` gets a child count drawn uniformly from `fanout` and every
/// link into one of those children gets a propagation delay drawn uniformly
/// from `delay_ns`. Both ranges are inclusive.
///
/// Delays are plain nanosecond counts rather than simulator durations so
/// the topology crate stays free of any dependency on the simulator; the
/// harness converts them when it wires the tree into `netsim`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct LevelSpec {
    /// Inclusive `(min, max)` children per node at this level.
    pub fanout: (u32, u32),
    /// Inclusive `(min, max)` propagation delay, in nanoseconds, of the
    /// links into this level's children.
    pub delay_ns: (u64, u64),
}

/// Shape of a multi-level scale tree: one [`LevelSpec`] per tree level.
///
/// With `L` levels the generated tree has depth `L`: the source at depth 0,
/// routers at depths `1..L`, and receivers (leaves) at depth `L`. The
/// receiver count is the product of the per-level fanouts, so a million
/// receivers costs `L` small numbers — no per-pair or per-member state is
/// ever materialized.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ScaleShape {
    levels: Vec<LevelSpec>,
}

impl ScaleShape {
    /// Builds a shape from explicit per-level specs.
    ///
    /// # Panics
    ///
    /// Panics if `levels` is empty, any fanout range is empty or includes 0,
    /// or any delay range is empty or includes 0 (zero-delay links would
    /// break the cross-shard lookahead; see `docs/SCALING.md`).
    pub fn new(levels: Vec<LevelSpec>) -> Self {
        assert!(!levels.is_empty(), "a scale shape needs at least one level");
        for (i, l) in levels.iter().enumerate() {
            assert!(
                0 < l.fanout.0 && l.fanout.0 <= l.fanout.1,
                "level {i}: fanout range must be non-empty and positive"
            );
            assert!(
                0 < l.delay_ns.0 && l.delay_ns.0 <= l.delay_ns.1,
                "level {i}: delay range must be non-empty and positive"
            );
        }
        ScaleShape { levels }
    }

    /// The canonical sweep shape for roughly `receivers` receivers: one
    /// level per decade (at least two), each with fixed fanout chosen so
    /// the product of fanouts is at least `receivers`. Backbone links
    /// (out of the source) carry 10–30 ms, intermediate links 5–15 ms and
    /// access links into the receivers 1–5 ms, echoing the paper's
    /// backbone/access split.
    ///
    /// # Panics
    ///
    /// Panics if `receivers < 2`.
    pub fn with_target_receivers(receivers: u64) -> Self {
        assert!(receivers >= 2, "need at least two receivers");
        let mut levels_needed = 2usize;
        while 10u64.saturating_pow(levels_needed as u32) < receivers {
            levels_needed += 1;
        }
        // Fixed per-level fanout so the product lands exactly on the target
        // when it is a power of the base, and just above otherwise.
        let mut fanout = 2u64;
        while fanout.saturating_pow(levels_needed as u32) < receivers {
            fanout += 1;
        }
        let fanout = fanout as u32;
        let levels = (0..levels_needed)
            .map(|i| {
                let delay_ns = if i == 0 {
                    (10_000_000, 30_000_000) // backbone: 10–30 ms
                } else if i + 1 == levels_needed {
                    (1_000_000, 5_000_000) // access: 1–5 ms
                } else {
                    (5_000_000, 15_000_000) // intermediate: 5–15 ms
                };
                LevelSpec {
                    fanout: (fanout, fanout),
                    delay_ns,
                }
            })
            .collect();
        ScaleShape::new(levels)
    }

    /// The per-level specs, depth 0 (the source's children) first.
    pub fn levels(&self) -> &[LevelSpec] {
        &self.levels
    }

    /// Upper bound on the number of receivers this shape can generate
    /// (product of max fanouts), saturating at `u64::MAX`.
    pub fn max_receivers(&self) -> u64 {
        self.levels
            .iter()
            .fold(1u64, |acc, l| acc.saturating_mul(l.fanout.1 as u64))
    }
}

/// A generated scale topology: the validated tree plus the per-link
/// propagation delays drawn during generation.
///
/// `link_delay_ns` is indexed by [`LinkId::index`] (i.e. by the head node's
/// index); entry 0 — the root, which has no incoming link — is 0.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ScaleTree {
    /// The validated multicast tree.
    pub tree: MulticastTree,
    /// Propagation delay, in nanoseconds, of the link into each node.
    pub link_delay_ns: Vec<u64>,
}

impl ScaleTree {
    /// Delay of `link` in nanoseconds.
    pub fn delay_ns(&self, link: LinkId) -> u64 {
        self.link_delay_ns[link.index()]
    }

    /// Total propagation delay, in nanoseconds, of the root-to-`node` path.
    pub fn path_delay_ns(&self, node: crate::NodeId) -> u64 {
        let mut total = 0;
        let mut cur = node;
        while let Some(p) = self.tree.parent(cur) {
            total += self.link_delay_ns[cur.index()];
            cur = p;
        }
        total
    }
}

/// Generates a multi-level tree from `shape`, deterministically from
/// `seed`: the same `(seed, shape)` pair always yields a byte-identical
/// [`ScaleTree`].
///
/// Nodes are assigned ids in breadth-first order (the source is node 0,
/// then depth 1 left to right, and so on), so sibling subtrees occupy
/// contiguous id ranges — the property the sharded runner exploits to
/// partition subtrees contiguously across workers.
pub fn scale_tree(seed: u64, shape: &ScaleShape) -> ScaleTree {
    let mut rng = StdRng::seed_from_u64(seed);
    let depth = shape.levels.len();

    let mut parent: Vec<Option<crate::NodeId>> = vec![None];
    let mut kind = vec![NodeKind::Source];
    let mut delay = vec![0u64];
    // Ids of the nodes at the frontier depth, in id order.
    let mut frontier = vec![crate::NodeId(0)];

    for (level, spec) in shape.levels.iter().enumerate() {
        let child_kind = if level + 1 == depth {
            NodeKind::Receiver
        } else {
            NodeKind::Router
        };
        let mut next = Vec::new();
        for &p in &frontier {
            let children = rng.gen_range(spec.fanout.0..=spec.fanout.1);
            for _ in 0..children {
                let id = crate::NodeId(
                    u32::try_from(parent.len()).expect("scale tree outgrew u32 node ids"),
                );
                parent.push(Some(p));
                kind.push(child_kind);
                delay.push(rng.gen_range(spec.delay_ns.0..=spec.delay_ns.1));
                next.push(id);
            }
        }
        frontier = next;
    }

    let tree = MulticastTree::from_parents(parent, kind)
        .unwrap_or_else(|e: TreeError| unreachable!("generator produced an invalid tree: {e}"));
    ScaleTree {
        tree,
        link_delay_ns: delay,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NodeId;
    use proptest::prelude::*;

    #[test]
    fn exact_power_of_ten_targets() {
        for (target, depth) in [
            (1_000u64, 3usize),
            (10_000, 4),
            (100_000, 5),
            (1_000_000, 6),
        ] {
            let shape = ScaleShape::with_target_receivers(target);
            assert_eq!(shape.levels().len(), depth);
            assert_eq!(shape.max_receivers(), target);
        }
    }

    #[test]
    fn generates_the_target_receiver_count() {
        let shape = ScaleShape::with_target_receivers(1_000);
        let st = scale_tree(7, &shape);
        assert_eq!(st.tree.receivers().len(), 1_000);
        assert_eq!(st.tree.depth(), 3);
    }

    #[test]
    fn bfs_ids_make_sibling_subtrees_contiguous() {
        let shape = ScaleShape::new(vec![
            LevelSpec {
                fanout: (2, 3),
                delay_ns: (1, 10),
            },
            LevelSpec {
                fanout: (1, 4),
                delay_ns: (1, 10),
            },
        ]);
        let st = scale_tree(42, &shape);
        for &top in st.tree.children(NodeId::ROOT) {
            let below = st.tree.receivers_below(top);
            for w in below.windows(2) {
                assert_eq!(w[1].0, w[0].0 + 1, "subtree receivers must be contiguous");
            }
        }
    }

    #[test]
    fn path_delay_sums_link_delays() {
        let shape = ScaleShape::with_target_receivers(100);
        let st = scale_tree(3, &shape);
        let r = *st.tree.receivers().last().unwrap();
        let by_links: u64 = st
            .tree
            .path_links(NodeId::ROOT, r)
            .into_iter()
            .map(|l| st.delay_ns(l))
            .sum();
        assert_eq!(st.path_delay_ns(r), by_links);
    }

    #[test]
    #[should_panic(expected = "at least one level")]
    fn empty_shape_rejected() {
        ScaleShape::new(Vec::new());
    }

    #[test]
    #[should_panic(expected = "delay range")]
    fn zero_delay_rejected() {
        ScaleShape::new(vec![LevelSpec {
            fanout: (1, 1),
            delay_ns: (0, 5),
        }]);
    }

    fn small_shape_strategy() -> impl Strategy<Value = (u64, Vec<(u32, u32, u64, u64)>)> {
        (
            any::<u64>(),
            proptest::collection::vec((1u32..4, 0u32..3, 1u64..1_000_000, 0u64..1_000_000), 1..4),
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn generated_trees_are_valid_and_within_bounds(
            (seed, raw) in small_shape_strategy()
        ) {
            let levels: Vec<LevelSpec> = raw
                .iter()
                .map(|&(fmin, fspread, dmin, dspread)| LevelSpec {
                    fanout: (fmin, fmin + fspread),
                    delay_ns: (dmin, dmin + dspread),
                })
                .collect();
            let shape = ScaleShape::new(levels);
            let st = scale_tree(seed, &shape);

            // Connectivity and acyclicity: every node reaches the root in
            // at most `depth` parent steps (from_parents already rejects
            // cycles and forests; this re-checks it from the outside).
            let depth = shape.levels().len();
            for node in st.tree.nodes() {
                let mut cur = node;
                let mut steps = 0usize;
                while let Some(p) = st.tree.parent(cur) {
                    cur = p;
                    steps += 1;
                    prop_assert!(steps <= depth, "parent chain exceeded tree depth");
                }
                prop_assert_eq!(cur, NodeId::ROOT);
            }

            // Per-level fanout and delay bounds.
            for node in st.tree.nodes() {
                let d = st.tree.depth_of(node);
                let kids = st.tree.children(node).len() as u32;
                if d < depth {
                    let spec = shape.levels()[d];
                    prop_assert!(
                        spec.fanout.0 <= kids && kids <= spec.fanout.1,
                        "depth-{} node has {} children outside [{}, {}]",
                        d, kids, spec.fanout.0, spec.fanout.1
                    );
                } else {
                    prop_assert_eq!(kids, 0, "leaves must be childless");
                    prop_assert!(st.tree.is_receiver(node));
                }
                if node != NodeId::ROOT {
                    let spec = shape.levels()[d - 1];
                    let delay = st.delay_ns(crate::LinkId(node));
                    prop_assert!(
                        spec.delay_ns.0 <= delay && delay <= spec.delay_ns.1,
                        "link delay {} outside [{}, {}]",
                        delay, spec.delay_ns.0, spec.delay_ns.1
                    );
                }
            }
        }

        #[test]
        fn regeneration_is_byte_identical((seed, raw) in small_shape_strategy()) {
            let levels: Vec<LevelSpec> = raw
                .iter()
                .map(|&(fmin, fspread, dmin, dspread)| LevelSpec {
                    fanout: (fmin, fmin + fspread),
                    delay_ns: (dmin, dmin + dspread),
                })
                .collect();
            let shape = ScaleShape::new(levels);
            let a = scale_tree(seed, &shape);
            let b = scale_tree(seed, &shape);
            prop_assert_eq!(&a, &b);
            let c = scale_tree(seed ^ 1, &shape);
            // A different seed is allowed to coincide only if the shape is
            // fully deterministic (all ranges single-valued).
            let deterministic = shape
                .levels()
                .iter()
                .all(|l| l.fanout.0 == l.fanout.1 && l.delay_ns.0 == l.delay_ns.1);
            if !deterministic {
                // Not asserted: distinct seeds *may* collide; we only
                // require same-seed identity. Keep `c` alive to make sure
                // generation with an arbitrary seed never panics.
                let _ = c;
            }
        }
    }
}
