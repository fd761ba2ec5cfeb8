//! Unit tests with access to the queue's private structure (the ring
//! heads, the chunk pool and `CHUNK`); `tests/queue_proptest.rs` holds
//! the public-API telemetry property.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;

use super::*;

fn drain_order(q: &mut CalendarQueue<u32>) -> Vec<(u64, u64)> {
    let mut out = Vec::new();
    while let Some(e) = q.pop_at_most(u64::MAX) {
        out.push((e.at, e.seq));
    }
    out
}

#[test]
fn pops_in_time_then_seq_order() {
    let mut q = CalendarQueue::new();
    for (seq, at) in [(0u64, 50u64), (1, 10), (2, 50), (3, 7)].into_iter() {
        q.push(
            Entry {
                at,
                seq,
                item: 0u32,
            },
            0,
        );
    }
    assert_eq!(drain_order(&mut q), vec![(7, 3), (10, 1), (50, 0), (50, 2)]);
    assert_eq!(q.len(), 0);
}

#[test]
fn far_future_events_promote_when_window_slides() {
    let mut q = CalendarQueue::new();
    let far = (NUM_BUCKETS + 10) << BUCKET_SHIFT; // outside the window
    q.push(
        Entry {
            at: far,
            seq: 0,
            item: 1u32,
        },
        0,
    );
    q.push(
        Entry {
            at: 5,
            seq: 1,
            item: 2u32,
        },
        0,
    );
    assert_eq!(q.len(), 2);
    assert_eq!(q.pop_at_most(u64::MAX).unwrap().at, 5);
    let e = q.pop_at_most(u64::MAX).unwrap();
    assert_eq!((e.at, e.item), (far, 1));
}

#[test]
fn pop_respects_limit_and_preserves_cursor() {
    let mut q = CalendarQueue::new();
    q.push(
        Entry {
            at: 100 << BUCKET_SHIFT,
            seq: 0,
            item: 0u32,
        },
        0,
    );
    // Limit far below the only event: nothing pops, and a later push
    // at an earlier time must still surface first.
    assert!(q.pop_at_most(10).is_none());
    q.push(
        Entry {
            at: 50 << BUCKET_SHIFT,
            seq: 1,
            item: 1u32,
        },
        10,
    );
    let e = q.pop_at_most(u64::MAX).unwrap();
    assert_eq!(e.seq, 1, "earlier late-pushed event pops first");
}

#[test]
fn same_tick_push_during_drain_stays_ordered() {
    let mut q = CalendarQueue::new();
    q.push(
        Entry {
            at: 10,
            seq: 0,
            item: 0u32,
        },
        0,
    );
    q.push(
        Entry {
            at: 30,
            seq: 1,
            item: 0u32,
        },
        0,
    );
    assert_eq!(q.pop_at_most(u64::MAX).unwrap().at, 10);
    // Bucket for tick 0 is now active; push into it mid-drain.
    q.push(
        Entry {
            at: 20,
            seq: 2,
            item: 0u32,
        },
        10,
    );
    assert_eq!(q.pop_at_most(u64::MAX).unwrap().at, 20);
    assert_eq!(q.pop_at_most(u64::MAX).unwrap().at, 30);
}

#[test]
fn push_into_empty_queue_far_ahead_still_pops() {
    let mut q = CalendarQueue::new();
    q.push(
        Entry {
            at: 3,
            seq: 0,
            item: 0u32,
        },
        0,
    );
    assert_eq!(q.pop_at_most(u64::MAX).unwrap().at, 3);
    // Queue is empty and the next event is far beyond the window: it
    // overflows into the far heap and is promoted on demand.
    let late = (NUM_BUCKETS * 1000) << BUCKET_SHIFT;
    q.push(
        Entry {
            at: late,
            seq: 1,
            item: 0u32,
        },
        3,
    );
    assert_eq!(q.peek_at(), Some(late));
    assert_eq!(q.pop_at_most(u64::MAX).unwrap().at, late);
    // After that pop the window has caught up; a near-future push
    // lands in the ring again.
    q.push(
        Entry {
            at: late + 7,
            seq: 2,
            item: 0u32,
        },
        late,
    );
    assert_eq!(q.pop_at_most(u64::MAX).unwrap().at, late + 7);
}

#[test]
fn matches_binary_heap_on_random_storm() {
    // Deterministic pseudo-random workload interleaving pushes and
    // limited pops; the calendar queue must agree with the reference
    // heap exactly, including (at, seq) tie-breaks — and its `max_len`
    // must be the running maximum of the live length (`pushes - pops`).
    let mut cal: CalendarQueue<u32> = CalendarQueue::new();
    let mut heap: BinaryHeap<Reverse<Entry<u32>>> = BinaryHeap::new();
    let mut peak = 0u64;
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    let mut bits = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut now = 0u64;
    let mut seq = 0u64;
    for round in 0..2000 {
        // A burst of pushes at and after `now`, spanning near ticks,
        // the active tick, and the far-future overflow heap.
        for _ in 0..(bits() % 8) {
            let spread = match bits() % 4 {
                0 => bits() % (1 << BUCKET_SHIFT),                 // same tick
                1 => bits() % (100 << BUCKET_SHIFT),               // near
                2 => bits() % ((NUM_BUCKETS * 4) << BUCKET_SHIFT), // far
                _ => bits() % 1000,                                // immediate
            };
            let e = Entry {
                at: now + spread,
                seq,
                item: round,
            };
            seq += 1;
            cal.push(e, now);
            heap.push(Reverse(e));
            peak = peak.max(cal.telemetry().outstanding());
        }
        // Pop a few events up to a random horizon.
        let limit = now + bits() % ((NUM_BUCKETS / 2) << BUCKET_SHIFT);
        for _ in 0..(bits() % 6) {
            let expect = if heap.peek().is_some_and(|Reverse(e)| e.at <= limit) {
                heap.pop().map(|Reverse(e)| e)
            } else {
                None
            };
            let got = cal.pop_at_most(limit);
            match (&expect, &got) {
                (None, None) => {}
                (Some(a), Some(b)) => {
                    assert_eq!((a.at, a.seq, a.item), (b.at, b.seq, b.item));
                    now = now.max(a.at);
                }
                _ => panic!("divergence: expected {expect:?}, got {got:?}"),
            }
        }
        // Mirrors `Simulator::run_until`: the clock lands on the pop
        // horizon, so later pushes never fall behind the cursor.
        now = now.max(limit);
        assert_eq!(cal.len(), heap.len());
        assert_eq!(cal.telemetry().max_len, peak);
    }
    assert!(peak > 8, "the storm builds a backlog deeper than one burst");
    // Full drain must agree too.
    loop {
        let expect = heap.pop().map(|Reverse(e)| e);
        let got = cal.pop_at_most(u64::MAX);
        match (&expect, &got) {
            (None, None) => break,
            (Some(a), Some(b)) => assert_eq!((a.at, a.seq), (b.at, b.seq)),
            _ => panic!("drain divergence"),
        }
    }
}

// ---- chunk pool ------------------------------------------------------
//
// The tests above never put more than a handful of events in one tick, so
// they never leave a slot's first chunk. Everything below drives chains of
// several chunks and checks, besides pop order, that the pool conserves
// its chunks.

impl<T> CalendarQueue<T> {
    /// Walks every slot chain and the free list, asserting the pool's
    /// structure: each chunk sits on exactly one list (`allocated == free
    /// + linked`), chains match their heads and the occupancy bitmap, and
    /// chained + active + far entries add up to `len()`. Returns
    /// `(linked, free)`.
    fn check_pool(&self) -> (usize, usize) {
        let mut seen = vec![false; self.chunks.len()];
        let mut visit = |c: u32| {
            assert!(
                !std::mem::replace(&mut seen[c as usize], true),
                "chunk {c} is on two lists"
            );
            &self.chunks[c as usize]
        };
        let (mut linked, mut chained) = (0, 0);
        for (slot, head) in self.heads.iter().enumerate() {
            let (mut c, mut last, mut entries) = (head.first, NIL, 0);
            while c != NIL {
                let chunk = visit(c);
                linked += 1;
                entries += chunk.items.len();
                if chunk.next == NIL {
                    assert!(!chunk.items.is_empty(), "empty chunk left on a chain");
                } else {
                    assert_eq!(
                        chunk.items.len(),
                        CHUNK,
                        "only the last chunk may be partial"
                    );
                }
                (last, c) = (c, chunk.next);
            }
            assert_eq!((last, entries), (head.last, head.len as usize));
            let marked = self.occupancy[slot / 64] >> (slot % 64) & 1 == 1;
            assert_eq!(
                marked,
                head.len > 0,
                "occupancy bit out of step with slot {slot}"
            );
            chained += entries;
        }
        let (mut c, mut free) = (self.free, 0);
        while c != NIL {
            let chunk = visit(c);
            assert!(chunk.items.is_empty(), "free chunk still holds entries");
            assert!(
                chunk.items.capacity() < 2 * CHUNK,
                "a chunk was reallocated"
            );
            free += 1;
            c = chunk.next;
        }
        assert_eq!(self.chunks.len(), linked + free, "a chunk is on no list");
        assert_eq!(chained + self.active.len() + self.far.len(), self.len);
        assert!(self.activated || self.active.is_empty());
        assert!(self
            .active
            .windows(2)
            .all(|w| (w[0].at, w[0].seq) > (w[1].at, w[1].seq)));
        (linked, free)
    }
}

/// The look-ahead distances the shadow checks `ahead` at: the next pop,
/// the simulator's two prefetch distances, and ones that span a chunk.
const AHEAD_KS: [usize; 6] = [0, 1, 8, 16, CHUNK - 1, CHUNK + 3];

/// The queue next to a trivially-correct model. `check` holds the queue
/// to the model and the pool to its invariants; pops compare as they go.
struct Shadow {
    q: CalendarQueue<u32>,
    model: BTreeSet<(u64, u64)>,
    now: u64,
    seq: u64,
}

impl Shadow {
    fn new() -> Self {
        Shadow {
            q: CalendarQueue::new(),
            model: BTreeSet::new(),
            now: 0,
            seq: 0,
        }
    }

    /// A timestamp inside `tick` that is not in the past.
    fn at_in(&self, tick: u64, r: u64) -> u64 {
        let lo = self.now.max(tick << BUCKET_SHIFT);
        lo + r % (((tick + 1) << BUCKET_SHIFT) - lo)
    }

    fn now_tick(&self) -> u64 {
        self.now >> BUCKET_SHIFT
    }

    fn push(&mut self, at: u64) {
        self.q.push(
            Entry {
                at,
                seq: self.seq,
                item: 0,
            },
            self.now,
        );
        self.model.insert((at, self.seq));
        self.seq += 1;
    }

    /// `n` pushes into one tick, cycling over `k` timestamps in it.
    fn burst_ties(&mut self, tick: u64, n: usize, k: usize, r: u64) {
        let ats: Vec<u64> = (0..k as u64)
            .map(|j| self.at_in(tick, r.wrapping_add(j << 40)))
            .collect();
        for i in 0..n {
            self.push(ats[i % k]);
        }
        self.check();
    }

    /// `n` pushes scattered over one tick.
    fn burst(&mut self, tick: u64, n: usize, r: u64) {
        for i in 0..n as u64 {
            self.push(self.at_in(tick, r.wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15))));
        }
        self.check();
    }

    /// Pops everything up to `limit`, like `Simulator::run_until`, and
    /// holds every `ahead(k)` answered on the way to the entry that
    /// actually pops `k` pops later (no push intervenes in here).
    fn pop_until(&mut self, limit: u64) -> usize {
        let mut popped = 0;
        let mut promised: BTreeMap<usize, (u64, u64)> = BTreeMap::new();
        loop {
            for k in AHEAD_KS {
                if let Some(e) = self.q.ahead(k) {
                    let key = (e.at, e.seq);
                    let earlier = promised.insert(popped + k, key);
                    assert!(
                        earlier.is_none_or(|p| p == key),
                        "ahead({k}) changed its answer"
                    );
                }
            }
            let expect = self.model.first().copied().filter(|&(at, _)| at <= limit);
            let got = self.q.pop_at_most(limit).map(|e| (e.at, e.seq));
            assert_eq!(got, expect, "pop order diverged from the model");
            let Some(key) = got else { break };
            if let Some(p) = promised.remove(&popped) {
                assert_eq!(p, key, "ahead() named an entry that did not pop there");
            }
            self.model.remove(&key);
            self.now = key.0;
            popped += 1;
        }
        if limit != u64::MAX {
            self.now = self.now.max(limit);
        }
        self.check();
        popped
    }

    /// Timestamp of the model's `k`-th event (clamped to the last).
    fn kth_at(&self, k: usize) -> Option<u64> {
        let k = k.min(self.model.len().checked_sub(1)?);
        self.model.iter().nth(k).map(|&(at, _)| at)
    }

    fn check(&self) -> (usize, usize) {
        assert_eq!(self.q.len(), self.model.len());
        assert_eq!(self.q.telemetry().outstanding(), self.model.len() as u64);
        assert_eq!(self.q.peek_at(), self.model.first().map(|&(at, _)| at));
        self.check_ahead();
        self.q.check_pool()
    }

    /// `ahead(k)` against the model: the model's `k`-th entry while the
    /// activated tick still holds more than `k` entries, `None` after.
    fn check_ahead(&self) {
        let in_tick = if self.q.activated {
            let tick = self.q.cur_tick;
            self.model
                .iter()
                .take_while(|&&(at, _)| at >> BUCKET_SHIFT == tick)
                .count()
        } else {
            0
        };
        for k in AHEAD_KS
            .into_iter()
            .chain([in_tick.saturating_sub(1), in_tick])
        {
            let got = self.q.ahead(k).map(|e| (e.at, e.seq));
            if k < in_tick {
                assert_eq!(got, self.model.iter().nth(k).copied(), "ahead({k})");
            } else {
                assert_eq!(
                    got, None,
                    "ahead({k}) past the {in_tick} entries of the tick"
                );
            }
        }
    }

    /// Drains the rest and asserts every chunk went back to the free list.
    fn finish(mut self) {
        self.pop_until(u64::MAX);
        assert!(self.model.is_empty());
        let (linked, free) = self.check();
        assert_eq!((linked, free), (0, self.q.chunks.len()));
    }
}

#[test]
fn multi_chunk_bucket_pops_in_order_and_frees_its_chunks() {
    let mut s = Shadow::new();
    s.burst(5, 3 * CHUNK + 17, 1);
    assert_eq!(s.check(), (4, 0), "3 full chunks and one partial");
    s.burst(9, CHUNK, 2);
    assert_eq!(
        s.check(),
        (5, 0),
        "an exactly-full chunk links no successor"
    );
    assert_eq!(s.pop_until(6 << BUCKET_SHIFT), 3 * CHUNK + 17);
    assert_eq!(s.check(), (1, 4), "activation returns the whole chain");
    s.burst(7, 2 * CHUNK, 3);
    assert_eq!(s.check(), (3, 2), "new chains reuse freed chunks first");
    s.finish();
}

#[test]
fn same_tick_pushes_while_a_multi_chunk_bucket_is_mid_drain() {
    let mut s = Shadow::new();
    s.burst(3, 3 * CHUNK, 7);
    let mid = s.kth_at(CHUNK + CHUNK / 2).unwrap();
    s.pop_until(mid);
    assert!(s.q.activated && !s.q.active.is_empty());
    // Same tick as the half-drained buffer: sorted inserts, no chunks.
    let before = s.check();
    s.burst(3, 2 * CHUNK, 11);
    assert_eq!(s.check(), before);
    assert_eq!(s.q.telemetry().advances, 1);
    s.finish();
}

#[test]
fn pop_limit_stops_inside_the_active_buffer_then_resumes() {
    // What the sharded runner does at every sync window: stop on a
    // horizon mid-tick, take pushes (mailbox deliveries), carry on.
    let mut s = Shadow::new();
    s.burst(2, 4 * CHUNK, 5);
    for round in 0..6u64 {
        let Some(limit) = s.kth_at(CHUNK / 2) else {
            break;
        };
        s.pop_until(limit);
        assert_eq!(s.q.pop_at_most(limit).map(|e| e.seq), None);
        s.burst(s.now_tick(), 40, round);
        s.burst(s.now_tick() + 1 + round, CHUNK + 9, round);
    }
    s.finish();
}

#[test]
fn ahead_looks_into_a_multi_chunk_tick_and_sees_pushes_into_it() {
    let mut s = Shadow::new();
    s.burst(4, 2 * CHUNK + 5, 29);
    s.burst(6, 3, 31);
    assert_eq!(s.q.ahead(0).map(|e| e.at), None, "no tick is activated yet");
    // Stop after a few pops of tick 4: it is activated and sorted.
    let limit = s.kth_at(2).unwrap();
    s.pop_until(limit);
    let left = 2 * CHUNK + 5 - 3;
    assert_eq!(s.q.active.len(), left);
    assert!(s.q.ahead(left - 1).is_some());
    assert!(s.q.ahead(left).is_none(), "tick 6 is not sorted yet");
    // A push landing in the active tick, ahead of everything left in it,
    // shifts every answer by one.
    let next = s.q.ahead(0).map(|e| (e.at, e.seq)).unwrap();
    s.push(s.now);
    s.check();
    assert_eq!(s.q.ahead(0).map(|e| e.at), Some(s.now));
    assert_eq!(s.q.ahead(1).map(|e| (e.at, e.seq)), Some(next));
    assert!(s.q.ahead(left).is_some() && s.q.ahead(left + 1).is_none());
    s.finish();
}

#[test]
fn far_burst_promotes_into_a_multi_chunk_chain() {
    let mut s = Shadow::new();
    let far_tick = NUM_BUCKETS + 40;
    s.burst(far_tick, 3 * CHUNK + 1, 13);
    s.burst(far_tick + 1, 5, 17);
    assert_eq!(s.q.telemetry().far_pushes, 3 * CHUNK as u64 + 6);
    assert_eq!(
        s.check(),
        (0, 0),
        "overflow lives in the heap, not the pool"
    );
    s.burst(45, 10, 19);
    // Popping tick 45 slides the window over both far ticks: every far
    // entry after the first promotes into a slot that already holds one.
    s.pop_until(46 << BUCKET_SHIFT);
    assert_eq!(s.q.telemetry().promotions, 3 * CHUNK as u64 + 6);
    assert_eq!(s.check(), (5, 1));
    s.burst(far_tick, CHUNK, 23); // direct pushes extend the promoted chain
    s.finish();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 2 } else { 48 }))]

    /// Random tapes whose pushes come in bursts of several chunks, against
    /// the shadow model, with chunk conservation checked after every op.
    #[test]
    fn multi_chunk_tapes_match_the_shadow_model(
        tape in proptest::collection::vec((0u8..8, any::<u64>()), 1..if cfg!(miri) { 8 } else { 40 })
    ) {
        let mut s = Shadow::new();
        for &(op, x) in &tape {
            let (lo, hi) = (x & 0xFFFF_FFFF, x >> 32);
            match op {
                // A burst of 3–5 chunks into one near tick.
                0 => s.burst(s.now_tick() + hi % 64, 3 * CHUNK + lo as usize % (2 * CHUNK), x),
                // Pushes into the current tick (sorted inserts when it is
                // mid-drain, chained otherwise).
                1 => s.burst(s.now_tick(), 1 + lo as usize % 8, x),
                // Stop on a horizon inside the earliest bucket.
                2 => {
                    if let Some(limit) = s.kth_at(lo as usize % (2 * CHUNK)) {
                        s.pop_until(limit);
                    }
                }
                // A multi-chunk burst beyond the window, into the far heap.
                3 => s.burst(
                    s.now_tick() + 2 * NUM_BUCKETS + hi % 8,
                    CHUNK + lo as usize % (2 * CHUNK),
                    x,
                ),
                // A lone timer somewhere in the window.
                4 => s.burst(s.now_tick() + hi % NUM_BUCKETS, 1, x),
                // Run ahead by up to two windows, promoting far bursts.
                5 => { s.pop_until(s.now + ((x % (2 * NUM_BUCKETS)) << BUCKET_SHIFT)); }
                // A horizon that reaches nothing new.
                6 => { s.pop_until(s.now); }
                // A scattered tick of heavy ties: a few timestamps only.
                _ => s.burst_ties(s.now_tick() + hi % 64, SCATTER_MIN + lo as usize % (2 * CHUNK), 1 + hi as usize % 4, x),
            }
        }
        s.finish();
    }
}

/// The regression the pool exists for. Waves of events sweep the ring more
/// than twice; per-slot storage (the previous `Vec` per ring bucket) keeps
/// every touched slot's high-water capacity and grows with *ticks
/// touched*, while the pool stays within a small multiple of the *live*
/// backlog plus one partial chunk per non-empty tick.
#[test]
fn storage_follows_live_events_not_ticks_touched() {
    const WAVE_TICKS: u64 = 64;
    let per_wave: u64 = if cfg!(miri) { 256 } else { 2_000 };
    let waves = 2 * NUM_BUCKETS / WAVE_TICKS + 8;

    let mut q: CalendarQueue<u32> = CalendarQueue::new();
    let mut live: BTreeMap<u64, usize> = BTreeMap::new(); // tick -> entries
    let (mut peak_live, mut peak_ticks) = (0, 0);
    let (mut now, mut seq) = (0u64, 0u64);
    let mut push = |q: &mut CalendarQueue<u32>, live: &mut BTreeMap<u64, usize>, tick: u64, now| {
        let at = (tick << BUCKET_SHIFT) + seq % 1000;
        q.push(Entry { at, seq, item: 0 }, now);
        seq += 1;
        *live.entry(tick).or_default() += 1;
        peak_live = peak_live.max(q.len());
        peak_ticks = peak_ticks.max(live.len());
    };
    for wave in 0..waves {
        let base = 1 + wave * WAVE_TICKS;
        for i in 0..per_wave {
            push(&mut q, &mut live, base + i % WAVE_TICKS, now);
        }
        // A few lone timers far ahead, each pinning a chunk of its own.
        for ahead in [500, 1_500, 3_000] {
            push(&mut q, &mut live, base + ahead, now);
        }
        while let Some(e) = q.pop_at_most((base + WAVE_TICKS) << BUCKET_SHIFT) {
            now = e.at;
            let tick = e.at >> BUCKET_SHIFT;
            let n = live.get_mut(&tick).expect("popped tick is live");
            *n -= 1;
            if *n == 0 {
                live.remove(&tick);
            }
        }
    }
    assert!(
        q.telemetry().advances > 2 * NUM_BUCKETS,
        "the ring wrapped twice"
    );

    let entry = std::mem::size_of::<Entry<u32>>();
    let bound = 2 * peak_live * entry + peak_ticks * CHUNK * entry;
    assert!(
        q.storage_bytes() <= bound,
        "queue storage {} B exceeds {} B (peak live {}, peak non-empty ticks {})",
        q.storage_bytes(),
        bound,
        peak_live,
        peak_ticks,
    );
}

// ---- scatter activation --------------------------------------------
//
// A tick of at least `SCATTER_MIN` entries activates by counting and
// scattering on its in-tick time bits; each test holds the result to the
// comparison sort every smaller tick still uses. The shadow tapes above
// scatter too (their multi-chunk bursts exceed `SCATTER_MIN`).

/// Chains `offsets` (in-tick times, push order) onto one tick with keys
/// that are not in push order, activates it, and holds `active` to the
/// reference sort and the pool to its invariants.
fn assert_activates_sorted(offsets: &[u64]) {
    const TICK: u64 = 3;
    let mut q: CalendarQueue<u32> = CalendarQueue::new();
    let mut want = Vec::new();
    for (i, &off) in offsets.iter().enumerate() {
        assert!(off <= TICK_MASK);
        // An odd multiplier permutes the keys, so seq order is not push order.
        let e = Entry {
            at: (TICK << BUCKET_SHIFT) + off,
            seq: (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            item: i as u32,
        };
        q.push(e, 0);
        want.push(e);
    }
    q.advance_to(TICK);
    assert_eq!(
        q.offsets.is_empty(),
        offsets.len() < SCATTER_MIN,
        "scattered iff large"
    );
    assert!(q.offsets.len() <= 1 << SCATTER_MAX_BITS);
    want.sort_unstable_by_key(|e| Reverse((e.at, e.seq)));
    let keys = |v: &[Entry<u32>]| v.iter().map(|e| (e.at, e.seq, e.item)).collect::<Vec<_>>();
    assert_eq!(keys(&q.active), keys(&want), "{} entries", offsets.len());
    assert_eq!(q.check_pool(), (0, offsets.len().div_ceil(CHUNK)));
}

/// `n` pseudo-random in-tick offsets (splitmix64 of `r + i`).
fn spread(n: usize, r: u64) -> Vec<u64> {
    (0..n as u64)
        .map(|i| {
            let mut x = r.wrapping_add(i).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            x = (x ^ x >> 30).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x = (x ^ x >> 27).wrapping_mul(0x94D0_49BB_1331_11EB);
            (x ^ x >> 31) & TICK_MASK
        })
        .collect()
}

#[test]
fn ticks_around_the_scatter_threshold_activate_in_sorted_order() {
    for n in [SCATTER_MIN - 1, SCATTER_MIN, SCATTER_MIN + 1] {
        assert_activates_sorted(&spread(n, n as u64));
    }
}

#[test]
fn a_tick_of_one_timestamp_activates_in_seq_order() {
    // The t = 0 start burst: every entry at one time, so one bucket holds
    // the whole tick and its sort alone orders it.
    assert_activates_sorted(&[0; 5 * CHUNK + 3]);
    assert_activates_sorted(&[TICK_MASK; 2 * SCATTER_MIN]);
}

#[test]
fn both_ends_of_the_tick_scatter_into_place() {
    let mut offsets = spread(3 * SCATTER_MIN, 17);
    for i in (0..offsets.len()).step_by(7) {
        offsets[i] = if i % 2 == 0 { 0 } else { TICK_MASK };
    }
    assert_activates_sorted(&offsets);
    // Past the bucket cap: more entries than buckets.
    let big = spread(3 << SCATTER_MAX_BITS, 5);
    assert_activates_sorted(&big);
}

#[test]
fn heavy_ties_across_chunk_boundaries_keep_seq_order() {
    // Three timestamps, in runs that straddle every chunk boundary.
    let ats = [9, 1 << 19, TICK_MASK - 1];
    let offsets: Vec<u64> = (0..5 * CHUNK)
        .map(|i| ats[i / (CHUNK / 2 + 5) % 3])
        .collect();
    assert_activates_sorted(&offsets);
}
