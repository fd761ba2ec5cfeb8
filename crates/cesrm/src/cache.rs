use std::collections::BTreeMap;

use netsim::{RecoveryTuple, SeqNo};
use topology::NodeId;

/// The per-source cache of optimal requestor/replier pairs (paper §3.1).
///
/// The cache holds at most `capacity` recovery tuples, one per recently
/// recovered packet, keyed by sequence number (recency = sequence order).
/// When multiple replies recover the same packet, only the **optimal** pair
/// is kept: the one minimizing the recovery delay
/// [`RecoveryTuple::recovery_delay`] `= d̂_qs + 2·d̂_rq`. When the cache is
/// full, a reply for a packet less recent than everything cached is
/// discarded; otherwise the least recent entry is evicted.
#[derive(Clone, Debug)]
pub struct RecoveryCache {
    capacity: usize,
    entries: BTreeMap<u64, RecoveryTuple>,
}

impl RecoveryCache {
    /// Creates an empty cache holding at most `capacity` tuples.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        RecoveryCache {
            capacity,
            entries: BTreeMap::new(),
        }
    }

    /// The configured capacity.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of cached tuples.
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` iff nothing is cached.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Processes an observed reply's recovery tuple per the §3.1 update
    /// rule; returns `true` iff the cache changed. The caller is
    /// responsible for only passing tuples of packets this host actually
    /// lost (replies for packets received normally are discarded upstream).
    pub fn observe(&mut self, tuple: RecoveryTuple) -> bool {
        let seq = tuple.id.seq.value();
        if let Some(existing) = self.entries.get_mut(&seq) {
            // Keep the optimal pair for this packet.
            if tuple.recovery_delay() < existing.recovery_delay() {
                *existing = tuple;
                return true;
            }
            return false;
        }
        if self.entries.len() >= self.capacity {
            let &oldest = self.entries.keys().next().expect("cache is non-empty");
            if seq < oldest {
                // Less recent than everything cached: discard.
                return false;
            }
            self.entries.remove(&oldest);
        }
        self.entries.insert(seq, tuple);
        true
    }

    /// The tuple of the most recent recovered loss, if any — the selection
    /// of the *most recent loss* policy (§4.3).
    pub fn most_recent(&self) -> Option<&RecoveryTuple> {
        self.entries.values().next_back()
    }

    /// The tuple whose requestor/replier pair appears most frequently in
    /// the cache (ties broken towards the most recent occurrence) — the
    /// selection of the *most frequent loss* policy (§3.2).
    pub fn most_frequent(&self) -> Option<&RecoveryTuple> {
        let mut counts: BTreeMap<(NodeId, NodeId), usize> = BTreeMap::new();
        for t in self.entries.values() {
            *counts.entry(t.pair()).or_insert(0) += 1;
        }
        let best_pair = counts
            .iter()
            .max_by_key(|(_, &c)| c)
            .map(|(&pair, _)| pair)?;
        // Most recent tuple carrying the modal pair.
        self.entries.values().rev().find(|t| t.pair() == best_pair)
    }

    /// The cached tuple for packet `seq`, if present.
    pub fn get(&self, seq: SeqNo) -> Option<&RecoveryTuple> {
        self.entries.get(&seq.value())
    }

    /// Iterates over cached tuples from least to most recent.
    pub fn iter(&self) -> impl Iterator<Item = &RecoveryTuple> {
        self.entries.values()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::{PacketId, SimDuration};

    fn tuple(seq: u64, q: u32, r: u32, d_qs_ms: u64, d_rq_ms: u64) -> RecoveryTuple {
        RecoveryTuple {
            id: PacketId {
                source: NodeId::ROOT,
                seq: SeqNo(seq),
            },
            requestor: NodeId(q),
            dist_req_src: SimDuration::from_millis(d_qs_ms),
            replier: NodeId(r),
            dist_rep_req: SimDuration::from_millis(d_rq_ms),
            turning_point: None,
        }
    }

    #[test]
    fn keeps_optimal_pair_per_packet() {
        let mut c = RecoveryCache::new(4);
        assert!(c.observe(tuple(1, 1, 2, 40, 40))); // delay 120
                                                    // Worse pair for the same packet: rejected.
        assert!(!c.observe(tuple(1, 3, 4, 60, 60))); // delay 180
                                                     // Better pair: replaces.
        assert!(c.observe(tuple(1, 5, 6, 20, 20))); // delay 60
        assert_eq!(c.len(), 1);
        assert_eq!(c.get(SeqNo(1)).unwrap().requestor, NodeId(5));
    }

    #[test]
    fn evicts_least_recent_when_full() {
        let mut c = RecoveryCache::new(2);
        c.observe(tuple(1, 1, 2, 40, 40));
        c.observe(tuple(2, 1, 2, 40, 40));
        assert!(c.observe(tuple(3, 1, 2, 40, 40)));
        assert_eq!(c.len(), 2);
        assert!(c.get(SeqNo(1)).is_none());
        assert!(c.get(SeqNo(2)).is_some() && c.get(SeqNo(3)).is_some());
    }

    #[test]
    fn discards_stale_packets_when_full() {
        let mut c = RecoveryCache::new(2);
        c.observe(tuple(5, 1, 2, 40, 40));
        c.observe(tuple(6, 1, 2, 40, 40));
        // Packet 3 is less recent than everything cached.
        assert!(!c.observe(tuple(3, 1, 2, 40, 40)));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn most_recent_selection() {
        let mut c = RecoveryCache::new(4);
        assert!(c.most_recent().is_none());
        c.observe(tuple(1, 1, 2, 40, 40));
        c.observe(tuple(7, 3, 4, 40, 40));
        c.observe(tuple(4, 5, 6, 40, 40));
        assert_eq!(c.most_recent().unwrap().id.seq, SeqNo(7));
        assert_eq!(c.most_recent().unwrap().requestor, NodeId(3));
    }

    #[test]
    fn most_frequent_selection() {
        let mut c = RecoveryCache::new(8);
        assert!(c.most_frequent().is_none());
        c.observe(tuple(1, 1, 2, 40, 40));
        c.observe(tuple(2, 3, 4, 40, 40));
        c.observe(tuple(3, 1, 2, 30, 30));
        c.observe(tuple(4, 1, 2, 20, 20));
        let t = c.most_frequent().unwrap();
        assert_eq!(t.pair(), (NodeId(1), NodeId(2)));
        // Most recent occurrence of the modal pair.
        assert_eq!(t.id.seq, SeqNo(4));
    }

    #[test]
    fn capacity_one_behaves_like_most_recent_slot() {
        let mut c = RecoveryCache::new(1);
        c.observe(tuple(1, 1, 2, 40, 40));
        c.observe(tuple(2, 3, 4, 40, 40));
        assert_eq!(c.len(), 1);
        assert_eq!(c.most_recent().unwrap().id.seq, SeqNo(2));
        assert!(!c.observe(tuple(1, 9, 9, 1, 1)), "stale packet discarded");
    }

    #[test]
    fn iteration_is_recency_ordered() {
        let mut c = RecoveryCache::new(4);
        c.observe(tuple(9, 1, 2, 40, 40));
        c.observe(tuple(3, 1, 2, 40, 40));
        let seqs: Vec<u64> = c.iter().map(|t| t.id.seq.value()).collect();
        assert_eq!(seqs, vec![3, 9]);
        assert!(!c.is_empty());
        assert_eq!(c.capacity(), 4);
    }

    #[test]
    fn observe_reports_every_branch() {
        let mut c = RecoveryCache::new(2);
        assert!(c.observe(tuple(5, 1, 2, 40, 40)), "inserted");
        assert!(!c.observe(tuple(5, 3, 4, 60, 60)), "worse pair rejected");
        assert!(c.observe(tuple(5, 5, 6, 20, 20)), "improved");
        assert!(c.observe(tuple(6, 1, 2, 40, 40)), "inserted");
        assert!(c.observe(tuple(7, 1, 2, 40, 40)), "inserted, evicting 5");
        assert!(!c.observe(tuple(3, 1, 2, 40, 40)), "stale packet discarded");
        let seqs: Vec<u64> = c.iter().map(|t| t.id.seq.value()).collect();
        assert_eq!(seqs, vec![6, 7]);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        RecoveryCache::new(0);
    }
}
