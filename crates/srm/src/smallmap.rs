use std::collections::{btree_map, BTreeMap};
use std::mem;

/// An ordered map whose first `N` entries live inside the struct.
///
/// Per-endpoint protocol state is a handful of tiny maps (outstanding
/// losses, pending replies, armed timers, peers heard from). As
/// `BTreeMap`s each costs a heap block of a few hundred bytes for its
/// first entry — at 10⁵ receivers that, not the payload, is the memory
/// bill (`docs/SCALING.md`). `SmallMap` keeps up to `N` entries inline,
/// sorted by key, and owns no heap at all until an `N+1`-th entry is live
/// at once; it then moves everything into a `BTreeMap` (so loss-heavy
/// endpoints keep B-tree lookup cost) and comes back inline, freeing the
/// tree, when the map next empties.
///
/// Iteration is in ascending key order in both representations.
#[derive(Clone, Debug)]
pub struct SmallMap<K, V, const N: usize> {
    repr: Repr<K, V, N>,
}

#[derive(Clone, Debug)]
enum Repr<K, V, const N: usize> {
    /// At most `N` entries, ascending by key, vacant slots last.
    Inline([Option<(K, V)>; N]),
    /// More than `N` entries were live at once; non-empty.
    Spilled(BTreeMap<K, V>),
}

impl<K: Ord, V, const N: usize> Default for SmallMap<K, V, N> {
    fn default() -> Self {
        SmallMap::new()
    }
}

/// Where `key` is, or where it would go, among inline slots.
fn locate<K: Ord, V>(slots: &[Option<(K, V)>], key: &K) -> Result<usize, usize> {
    for (i, slot) in slots.iter().enumerate() {
        match slot {
            Some((k, _)) if k < key => {}
            Some((k, _)) if k == key => return Ok(i),
            _ => return Err(i),
        }
    }
    Err(slots.len())
}

impl<K: Ord, V, const N: usize> SmallMap<K, V, N> {
    /// Creates an empty map; allocates nothing.
    pub fn new() -> Self {
        SmallMap {
            repr: Repr::Inline(std::array::from_fn(|_| None)),
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        match &self.repr {
            Repr::Inline(slots) => slots.iter().flatten().count(),
            Repr::Spilled(map) => map.len(),
        }
    }

    /// `true` iff the map holds no entry.
    #[inline]
    pub fn is_empty(&self) -> bool {
        match &self.repr {
            Repr::Inline(slots) => !matches!(slots.first(), Some(Some(_))),
            // A spilled map goes back inline the moment it empties.
            Repr::Spilled(_) => false,
        }
    }

    /// `true` iff the next insert of a new key would allocate or grow the
    /// heap spill: the inline slots are all taken.
    pub fn is_inline_full(&self) -> bool {
        match &self.repr {
            Repr::Inline(slots) => !matches!(slots.last(), Some(None)),
            Repr::Spilled(_) => false,
        }
    }

    /// The value stored under `key`.
    pub fn get(&self, key: &K) -> Option<&V> {
        match &self.repr {
            Repr::Inline(slots) => {
                let i = locate(slots, key).ok()?;
                slots[i].as_ref().map(|(_, v)| v)
            }
            Repr::Spilled(map) => map.get(key),
        }
    }

    /// Mutable access to the value stored under `key`.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        match &mut self.repr {
            Repr::Inline(slots) => {
                let i = locate(slots, key).ok()?;
                slots[i].as_mut().map(|(_, v)| v)
            }
            Repr::Spilled(map) => map.get_mut(key),
        }
    }

    /// `true` iff `key` is present.
    pub fn contains_key(&self, key: &K) -> bool {
        self.get(key).is_some()
    }

    /// Stores `value` under `key`, returning the value it replaces.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        let slots = match &mut self.repr {
            Repr::Inline(slots) => slots,
            Repr::Spilled(map) => return map.insert(key, value),
        };
        match locate(slots, &key) {
            Ok(i) => {
                let old = slots[i].replace((key, value));
                old.map(|(_, v)| v)
            }
            Err(i) if matches!(slots.last(), Some(None)) => {
                // The vacant last slot rotates into position `i`.
                slots[i..].rotate_right(1);
                slots[i] = Some((key, value));
                None
            }
            Err(_) => self.spill().insert(key, value),
        }
    }

    /// Moves the inline entries into a tree, for the caller to grow.
    fn spill(&mut self) -> &mut BTreeMap<K, V> {
        if let Repr::Inline(slots) = &mut self.repr {
            self.repr = Repr::Spilled(slots.iter_mut().filter_map(Option::take).collect());
        }
        match &mut self.repr {
            Repr::Spilled(map) => map,
            Repr::Inline(_) => unreachable!("just spilled"),
        }
    }

    /// Removes `key`, returning its value.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        match &mut self.repr {
            Repr::Inline(slots) => {
                let i = locate(slots, key).ok()?;
                let (_, value) = slots[i].take()?;
                slots[i..].rotate_left(1);
                Some(value)
            }
            Repr::Spilled(map) => {
                let value = map.remove(key);
                if map.is_empty() {
                    *self = SmallMap::new();
                }
                value
            }
        }
    }

    /// The value under `key`, inserting `default()` first if absent.
    pub fn get_or_insert_with(&mut self, key: K, default: impl FnOnce() -> V) -> &mut V {
        if self.is_inline_full() && !self.contains_key(&key) {
            self.spill();
        }
        match &mut self.repr {
            Repr::Spilled(map) => map.entry(key).or_insert_with(default),
            Repr::Inline(slots) => {
                let i = locate(slots, &key).unwrap_or_else(|i| {
                    slots[i..].rotate_right(1);
                    slots[i] = Some((key, default()));
                    i
                });
                let (_, value) = slots[i].as_mut().expect("slot located or just filled");
                value
            }
        }
    }

    /// Keeps only the entries for which `keep` returns `true`, visiting
    /// them in ascending key order.
    pub fn retain(&mut self, mut keep: impl FnMut(&K, &mut V) -> bool) {
        match &mut self.repr {
            Repr::Inline(slots) => {
                let mut kept: [Option<(K, V)>; N] = std::array::from_fn(|_| None);
                let mut free = kept.iter_mut();
                for (k, mut v) in slots.iter_mut().filter_map(Option::take) {
                    if keep(&k, &mut v) {
                        *free.next().expect("no more kept than held") = Some((k, v));
                    }
                }
                *slots = kept;
            }
            Repr::Spilled(map) => {
                map.retain(keep);
                if map.is_empty() {
                    *self = SmallMap::new();
                }
            }
        }
    }

    /// Entries in ascending key order.
    pub fn iter(&self) -> Iter<'_, K, V> {
        match &self.repr {
            Repr::Inline(slots) => Iter::Inline(slots.iter()),
            Repr::Spilled(map) => Iter::Spilled(map.iter()),
        }
    }

    /// Heap bytes this map owns beyond its own `size_of`: nothing while
    /// inline, the B-tree's nodes once spilled. The tree does not expose
    /// its node count, so it is modelled from the length alone (which also
    /// keeps the figure a pure function of the map's contents): std's
    /// nodes have 11 slots, and the ascending-key inserts that dominate
    /// here (sequence numbers, timer tokens) split them 6 + 1 + rest.
    pub fn heap_bytes(&self) -> usize {
        match &self.repr {
            Repr::Inline(_) => 0,
            Repr::Spilled(map) => btree_node_bytes::<K, V>(map.len()),
        }
    }
}

/// Iterator over a [`SmallMap`]'s entries in ascending key order.
pub enum Iter<'a, K, V> {
    #[doc(hidden)]
    Inline(std::slice::Iter<'a, Option<(K, V)>>),
    #[doc(hidden)]
    Spilled(btree_map::Iter<'a, K, V>),
}

impl<'a, K, V> Iterator for Iter<'a, K, V> {
    type Item = (&'a K, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        match self {
            // Vacant slots come last, so the first one ends the walk.
            Iter::Inline(slots) => slots.next()?.as_ref().map(|(k, v)| (k, v)),
            Iter::Spilled(entries) => entries.next(),
        }
    }
}

/// Modelled heap footprint of a std `BTreeMap<K, V>` holding `len` entries
/// (see [`SmallMap::heap_bytes`]); also used for the plain B-trees an
/// endpoint keeps (received-set tail, recovery cache).
pub fn btree_node_bytes<K, V>(len: usize) -> usize {
    const SLOTS: usize = 11;
    // Parent pointer, parent index and length.
    const HEADER: usize = 16;
    const EDGES: usize = (SLOTS + 1) * mem::size_of::<usize>();
    if len == 0 {
        return 0;
    }
    let leaf = HEADER + SLOTS * (mem::size_of::<K>() + mem::size_of::<V>());
    let mut nodes = len.div_ceil(SLOTS / 2 + 1);
    let mut bytes = nodes * leaf;
    while nodes > 1 {
        nodes = nodes.div_ceil(SLOTS / 2 + 2);
        bytes += nodes * (leaf + EDGES);
    }
    bytes
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    type Map = SmallMap<u16, u64, 3>;

    fn contents(m: &Map) -> Vec<(u16, u64)> {
        m.iter().map(|(k, v)| (*k, *v)).collect()
    }

    #[test]
    fn stays_inline_up_to_n_and_spills_past_it() {
        let mut m = Map::new();
        assert!(m.is_empty() && m.heap_bytes() == 0);
        for k in [30, 10, 20] {
            assert_eq!(m.insert(k, u64::from(k)), None);
        }
        assert!(m.is_inline_full());
        assert_eq!(m.heap_bytes(), 0, "three entries fit the three slots");
        assert_eq!(contents(&m), [(10, 10), (20, 20), (30, 30)]);
        assert_eq!(m.insert(20, 21), Some(20), "replacing does not spill");
        assert_eq!(m.heap_bytes(), 0);
        m.insert(15, 15);
        assert!(m.heap_bytes() > 0, "a fourth live entry spills");
        assert_eq!(contents(&m), [(10, 10), (15, 15), (20, 21), (30, 30)]);
        // Shrinking below N does not bounce back; emptying does.
        for k in [10, 15, 20] {
            m.remove(&k);
            assert!(m.heap_bytes() > 0);
        }
        assert_eq!(m.remove(&30), Some(30));
        assert!(m.is_empty() && m.heap_bytes() == 0);
        m.insert(1, 1);
        assert_eq!(m.heap_bytes(), 0, "inline again after emptying");
    }

    #[test]
    fn zero_inline_slots_is_a_plain_tree() {
        let mut m: SmallMap<u8, u8, 0> = SmallMap::new();
        assert!(m.is_empty() && m.is_inline_full());
        *m.get_or_insert_with(2, || 5) += 1;
        m.insert(1, 1);
        assert_eq!(
            m.iter().map(|(k, v)| (*k, *v)).collect::<Vec<_>>(),
            [(1, 1), (2, 6)]
        );
        m.retain(|_, _| false);
        assert!(m.is_empty() && m.heap_bytes() == 0);
    }

    #[test]
    fn node_model_counts_whole_nodes() {
        let leaf = 16 + 11 * (8 + 8);
        assert_eq!(btree_node_bytes::<u64, u64>(0), 0);
        assert_eq!(btree_node_bytes::<u64, u64>(1), leaf);
        assert_eq!(btree_node_bytes::<u64, u64>(6), leaf);
        // Two leaves under one internal root.
        assert_eq!(btree_node_bytes::<u64, u64>(7), 3 * leaf + 96);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random op tapes over a key space small enough to collide and
        /// large enough to cross the inline→spill boundary both ways,
        /// checked against a `BTreeMap` after every step.
        #[test]
        fn model_check_against_btreemap(
            tape in proptest::collection::vec((0u8..6, 0u16..8, any::<u64>()), 1..80)
        ) {
            let mut m = Map::new();
            let mut model: BTreeMap<u16, u64> = BTreeMap::new();
            for &(op, k, x) in &tape {
                match op {
                    0 | 1 => prop_assert_eq!(m.insert(k, x), model.insert(k, x)),
                    2 => prop_assert_eq!(m.remove(&k), model.remove(&k)),
                    3 => {
                        let got = m.get_or_insert_with(k, || x);
                        let want = model.entry(k).or_insert(x);
                        prop_assert_eq!(*got, *want);
                        *got ^= 1;
                        *want ^= 1;
                    }
                    4 => {
                        let mut seen = Vec::new();
                        m.retain(|k, v| { seen.push(*k); (*v ^ x) % 3 != 0 });
                        prop_assert_eq!(seen, model.keys().copied().collect::<Vec<_>>());
                        model.retain(|_, v| (*v ^ x) % 3 != 0);
                    }
                    _ => {
                        if let Some(v) = m.get_mut(&k) {
                            *v = x;
                        }
                        if let Some(v) = model.get_mut(&k) {
                            *v = x;
                        }
                    }
                }
                prop_assert_eq!(m.get(&k), model.get(&k));
                prop_assert_eq!(m.contains_key(&k), model.contains_key(&k));
                prop_assert_eq!(m.len(), model.len());
                prop_assert_eq!(m.is_empty(), model.is_empty());
                prop_assert_eq!(contents(&m), model.iter().map(|(k, v)| (*k, *v)).collect::<Vec<_>>());
                prop_assert_eq!(m.heap_bytes() == 0, matches!(m.repr, Repr::Inline(_)));
                prop_assert!(m.len() <= 3 || m.heap_bytes() > 0);
            }
        }
    }
}
