//! `DigestSnapshot::merge` against a reference per-leaf fold: merging two
//! shards' snapshots must give exactly the leaves that folding one side's
//! leaves into the other, one sorted insert at a time, gives — in either
//! merge order.

use obs::{DigestSnapshot, LeafDigest};
use proptest::collection::vec;
use proptest::prelude::*;

const WINDOW_NS: u64 = 100;

/// A canonical snapshot from raw `(window, node, hash, count)` draws:
/// sorted by `(window, node)`, one leaf per key. Small key ranges make
/// the two sides share many keys.
fn snapshot(raw: &[(u64, u32, u64, u64)]) -> DigestSnapshot {
    let mut leaves: Vec<LeafDigest> = raw
        .iter()
        .map(|&(window, node, hash, count)| LeafDigest {
            window,
            node,
            hash,
            count: count + 1,
        })
        .collect();
    leaves.sort_by_key(LeafDigest::key);
    leaves.dedup_by_key(|l| l.key());
    DigestSnapshot {
        window_ns: WINDOW_NS,
        leaves,
    }
}

/// The reference: each of `b`'s leaves folded into `a` on its own, by
/// binary search and sorted insert.
fn reference(a: &DigestSnapshot, b: &DigestSnapshot) -> DigestSnapshot {
    let mut out = a.clone();
    for leaf in &b.leaves {
        match out
            .leaves
            .binary_search_by_key(&leaf.key(), LeafDigest::key)
        {
            Ok(i) => {
                out.leaves[i].hash = out.leaves[i].hash.wrapping_add(leaf.hash);
                out.leaves[i].count += leaf.count;
            }
            Err(i) => out.leaves.insert(i, *leaf),
        }
    }
    out
}

fn leaf() -> impl Strategy<Value = (u64, u32, u64, u64)> {
    (0..12u64, 0..9u32, any::<u64>(), 0..1_000u64)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn merge_equals_the_per_leaf_fold_in_either_order(
        a in vec(leaf(), 0..60),
        b in vec(leaf(), 0..60),
    ) {
        let (a, b) = (snapshot(&a), snapshot(&b));
        let want = reference(&a, &b);
        let mut ab = a.clone();
        ab.merge(&b);
        prop_assert_eq!(&ab, &want);
        let mut ba = b.clone();
        ba.merge(&a);
        prop_assert_eq!(&ba, &want);
        prop_assert_eq!(ab.count(), a.count() + b.count());
    }
}
