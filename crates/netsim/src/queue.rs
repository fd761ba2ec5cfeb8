//! The event scheduler: a calendar (bucket) queue.
//!
//! The simulator's event queue must pop events in a *total* order — first
//! by timestamp, ties broken by the unique `seq` key the simulator draws
//! for each event (`(owner node, per-node counter)`) — because every
//! run's bit-for-bit reproducibility rests on it. A comparison-based
//! `BinaryHeap` pays O(log n) comparisons per operation on 32-byte
//! elements; the calendar queue replaces that with O(1) amortized bucket
//! arithmetic on the discrete nanosecond timestamps:
//!
//! * Time is split into ticks of `2^BUCKET_SHIFT` ns (~1.05 ms). A ring of
//!   `NUM_BUCKETS` slots covers the ticks `[cur_tick, cur_tick + NUM_BUCKETS)`
//!   — about 4.3 simulated seconds; events beyond the window overflow into
//!   a small far-future heap and are promoted as the window slides.
//! * Pushes append to their tick's bucket unsorted (O(1)) and set a bit in
//!   an occupancy bitmap so the pop path can skip empty buckets 64 at a
//!   time.
//! * Pops activate the current tick by moving its bucket into the one
//!   reusable `active` buffer sorted *descending* by `(at, seq)`, then
//!   popping from the back (O(1) each). A tick of fewer than
//!   `SCATTER_MIN` entries is gathered and comparison-sorted. A larger one
//!   is scattered straight into `active` by the high bits of its in-tick
//!   time: one counting pass over the chain (about one bucket per entry,
//!   at most 4 096), one scatter, then a sort of each bucket, so it costs
//!   about n instead of n log n. Events pushed into the active tick insert
//!   at their sorted position — rare, since most same-time work lands in
//!   later ticks.
//!
//! # Bucket storage: one chunk pool
//!
//! A ring slot owns no memory. It is a 12-byte head `{first, last, len}`
//! naming a chain of chunks (`CHUNK` entries each) in a pool shared by
//! every slot; chunks link by index and free chunks sit on a LIFO list
//! threaded through the same link field. Activating a tick copies its
//! chain into `active` and puts the chunks straight back on the free
//! list, so the next push — usually a few ticks ahead — reuses memory
//! that is still cache-warm.
//!
//! *Why chunks.* A run touches far more ticks than are ever live at once:
//! the 10⁵-receiver rung sweeps the 4096-slot ring three times with at
//! most 1 328 slots non-empty at any instant. Storage owned per slot is
//! kept per slot — every touched slot grows to its own high-water by
//! realloc-doubling and holds on to it — so queue memory follows *ticks
//! touched*: 327 MiB of capacity on that rung, for a backlog that never
//! exceeded 23 MiB (both measured when an entry was 48 bytes). Pooled, it
//! follows *live events*: the pool never holds more chunks than were
//! linked at one instant, which is at most `live / CHUNK` full chunks plus
//! one partial chunk per non-empty tick (21.4 MiB on the same rung, for a
//! peak backlog of 497 793 entries × 32 B = 15.2 MiB). The pool does not
//! shrink, but that bound is the run's own peak backlog. (`active` adds up
//! to twice the largest single tick, the far heap up to twice its own
//! peak.)
//!
//! *Why 128.* A chunk caps at 128 × 32 B = 4 KiB for the simulator's
//! event type. The partial chunk each non-empty tick strands wastes
//! `CHUNK / 2` entries per tick on average, so smaller is tighter; but
//! every chunk boundary costs a link hop on push and one more chunk to
//! walk on activation. The paper suite's buckets (≤ 97 entries) fit one
//! chunk, so its push path never links; the 10⁵ rung's flood buckets (up
//! to 18.7k entries) take up to 147 chunks, few enough that activation
//! walks them in order. 32 and 64 measured no smaller at 10⁵
//! receivers (228 and 229 MiB against 231, with 48-byte entries) and no
//! faster.
//!
//! A chunk's `Vec` is not pre-sized: it doubles up to exactly `CHUNK` the
//! first time a bucket fills it (at most five reallocations in the
//! chunk's life) and is reused at that size ever after. Pre-sizing every
//! chunk was measured too: the same on the scale rungs, but a workload of
//! thousands of live ticks with two or three events each (a source
//! queueing 1 000 packets on one link) then first-touches a whole chunk
//! per tick (6 KiB with the 48-byte entries of the time) instead of
//! 192 B, and page-faulted seven times as often as per-slot `Vec`s did.
//!
//! *Why scatter.* A tick's entries arrive unsorted, and on the 10⁵ rung a
//! flood tick holds 1 887 of them on average (up to 18.7 k), so a
//! comparison sort at activation paid about n log n — 18–19 % of a
//! sampled pass. Its timestamps are spread over the tick, so their top
//! in-tick bits split it into buckets of one or two entries, and
//! counting, scattering and sorting those is about n. Replaying the
//! recorded queue traffic of one 10⁵ pass (pushes, pops and peeks,
//! 32-byte entries): 0.48 s before, 0.31 s after (medians of ten
//! alternated replays). The paper suite's ticks stay below `SCATTER_MIN`
//! and replay at the same speed. The scatter writes straight into
//! `active` (filled first with copies of one entry, since safe code
//! cannot write into spare capacity), because a second tick-sized buffer
//! would add the largest tick — the t = 0 start burst, one entry per
//! receiver — to the peak footprint. `SCATTER_MIN` = 256 comes from a
//! sweep over {64, 128, 256, 512} on that replay and on the 10⁵ rung
//! (docs/SCALING.md, Round 6).
//!
//! The reference implementation lives with the tests: `queue/tests.rs`
//! checks every pop against a `BinaryHeap` and a shadow model, and the
//! harness' golden digest trails pin the end-to-end event order.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// log2 of the bucket width in nanoseconds: 2^20 ns ≈ 1.05 ms, on the
/// order of one link traversal (20 ms delay, sub-ms transmission times),
/// so consecutive hop events land a handful of ticks apart. Finer ticks
/// (2^17 × 32768 buckets) were measured ~40% slower end-to-end: the ring's
/// bucket headers outgrow L2 and every push misses.
const BUCKET_SHIFT: u32 = 20;
/// Number of buckets in the ring; must be a power of two. 4096 ticks of
/// 1.05 ms cover ≈ 4.3 simulated seconds, beyond every timer the protocols
/// arm, so the far-future heap is idle in the paper suite.
const NUM_BUCKETS: u64 = 4096;
const BUCKET_MASK: u64 = NUM_BUCKETS - 1;
/// Entries per pool chunk (see the module docs for the sizing argument).
const CHUNK: usize = 128;
/// The in-tick part of a timestamp.
const TICK_MASK: u64 = (1 << BUCKET_SHIFT) - 1;
/// Ticks of at least this many entries activate by scatter, smaller ones
/// by gather and sort (see the module docs for the sweep).
const SCATTER_MIN: usize = 256;
/// log2 of the most scatter buckets one activation uses: 4 096 `u32`
/// offsets, 16 KiB.
const SCATTER_MAX_BITS: u32 = 12;
/// The "no chunk" link value.
const NIL: u32 = u32::MAX;

/// One scheduled event: a nanosecond timestamp, the key that breaks ties,
/// and the payload.
#[derive(Clone, Copy, Debug)]
pub struct Entry<T> {
    /// Absolute simulated time in nanoseconds.
    pub at: u64,
    /// The second sort key; unique among entries of equal `at`.
    pub seq: u64,
    /// The event payload.
    pub item: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// Always-on operation counters of one queue's lifetime. Every field is a
/// pure function of the push/pop sequence, so the telemetry is exactly as
/// deterministic as the simulation itself (asserted by
/// `tests/queue_proptest.rs`); the increments are single adds on paths
/// that already touch the same cache lines.
#[derive(Clone, Copy, PartialEq, Eq, Default, Debug)]
pub struct QueueTelemetry {
    /// Total events pushed.
    pub pushes: u64,
    /// Total events popped.
    pub pops: u64,
    /// Pushes that overflowed the ring window into the far-future heap.
    pub far_pushes: u64,
    /// Far-future events promoted back into the ring as the window slid.
    pub promotions: u64,
    /// High-water occupancy of any single ring bucket.
    pub max_bucket_len: u64,
    /// High-water of the queue's live length (`pushes - pops`).
    pub max_len: u64,
    /// Window advances (bitmap skips) performed by the pop path.
    pub advances: u64,
    /// Summed tick distance of those advances (mean skip =
    /// `skip_ticks / advances`).
    pub skip_ticks: u64,
    /// Largest single advance, in ticks.
    pub max_skip_ticks: u64,
}

impl QueueTelemetry {
    /// `pushes - pops`: must equal the queue's live length at all times.
    pub fn outstanding(&self) -> u64 {
        self.pushes - self.pops
    }

    /// Folds another queue's counters in (summing totals, maxing the
    /// high-water figures), for aggregating across runs or shards.
    pub fn merge(&mut self, other: &QueueTelemetry) {
        self.pushes += other.pushes;
        self.pops += other.pops;
        self.far_pushes += other.far_pushes;
        self.promotions += other.promotions;
        self.max_bucket_len = self.max_bucket_len.max(other.max_bucket_len);
        self.max_len = self.max_len.max(other.max_len);
        self.advances += other.advances;
        self.skip_ticks += other.skip_ticks;
        self.max_skip_ticks = self.max_skip_ticks.max(other.max_skip_ticks);
    }
}

/// One ring slot: the chain of pool chunks holding its tick's events, in
/// push order. Every chunk but `last` is full.
#[derive(Clone, Copy)]
struct Head {
    first: u32,
    last: u32,
    len: u32,
}

const EMPTY_HEAD: Head = Head {
    first: NIL,
    last: NIL,
    len: 0,
};

/// One pool chunk: up to `CHUNK` entries and the index of the next chunk
/// in its slot's chain — or, while the chunk is free, in the free list.
/// The `Vec` starts unallocated, doubles up to exactly `CHUNK` the first
/// time a bucket fills it, and keeps that capacity through every reuse.
struct Chunk<T> {
    items: Vec<Entry<T>>,
    next: u32,
}

/// A calendar queue over [`Entry`] values. See the module docs for the
/// design; the externally visible contract is exactly "pop in `(at,
/// seq)` order", identical to a binary heap's.
pub struct CalendarQueue<T> {
    /// Ring of chain heads indexed by `tick & BUCKET_MASK`.
    heads: Vec<Head>,
    /// The chunk pool every ring slot draws from.
    chunks: Vec<Chunk<T>>,
    /// Top of the LIFO free list threaded through `Chunk::next`.
    free: u32,
    /// One bit per ring slot: set iff the slot's chain is nonempty.
    occupancy: Vec<u64>,
    /// Events with ticks at or beyond `cur_tick + NUM_BUCKETS`.
    far: BinaryHeap<Reverse<Entry<T>>>,
    /// The tick whose events pop next. Invariant: no queued event has a
    /// tick below `cur_tick`, and `cur_tick <= tick(now)` between calls,
    /// so pushes (always `at >= now`) never land behind the cursor.
    cur_tick: u64,
    /// The activated tick's events, sorted descending and popped from the
    /// back. Empty whenever `activated` is false.
    active: Vec<Entry<T>>,
    /// Whether `cur_tick` has been gathered into `active`; pushes into it
    /// then insert there, sorted, instead of chaining onto the ring slot.
    activated: bool,
    /// The scatter buckets' offsets into `active`: allocated once, at
    /// their most (`2^SCATTER_MAX_BITS`, 16 KiB), and kept.
    offsets: Vec<u32>,
    len: usize,
    telemetry: QueueTelemetry,
}

impl<T: Copy> CalendarQueue<T> {
    /// Creates an empty queue with its window starting at tick 0.
    pub fn new() -> Self {
        CalendarQueue {
            heads: vec![EMPTY_HEAD; NUM_BUCKETS as usize],
            chunks: Vec::new(),
            free: NIL,
            occupancy: vec![0u64; (NUM_BUCKETS / 64) as usize],
            far: BinaryHeap::new(),
            cur_tick: 0,
            active: Vec::new(),
            activated: false,
            offsets: Vec::with_capacity(1 << SCATTER_MAX_BITS),
            len: 0,
            telemetry: QueueTelemetry::default(),
        }
    }

    /// Number of queued events.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are queued.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Lifetime operation counters (see [`QueueTelemetry`]).
    pub fn telemetry(&self) -> QueueTelemetry {
        self.telemetry
    }

    /// Bytes of event storage the queue currently holds, used or not:
    /// every pool chunk's capacity (linked or free) with its header, the
    /// active buffer's capacity and the far-future heap's capacity. The
    /// fixed ring of heads, the occupancy bitmap (~48 KiB) and the scatter
    /// offsets (16 KiB) are not counted. For tests and sizing notes; not
    /// part of any report.
    pub fn storage_bytes(&self) -> usize {
        let pooled: usize = self.chunks.iter().map(|c| c.items.capacity()).sum();
        (pooled + self.active.capacity() + self.far.capacity()) * std::mem::size_of::<Entry<T>>()
            + self.chunks.capacity() * std::mem::size_of::<Chunk<T>>()
    }

    #[inline]
    fn tick_of(at: u64) -> u64 {
        at >> BUCKET_SHIFT
    }

    #[inline]
    fn mark_occupied(&mut self, tick: u64) {
        let idx = (tick & BUCKET_MASK) as usize;
        self.occupancy[idx / 64] |= 1u64 << (idx % 64);
    }

    #[inline]
    fn clear_occupied(&mut self, tick: u64) {
        let idx = (tick & BUCKET_MASK) as usize;
        self.occupancy[idx / 64] &= !(1u64 << (idx % 64));
    }

    /// Takes a chunk off the free list, growing the pool when it is empty.
    fn take_chunk(&mut self) -> u32 {
        if self.free != NIL {
            let c = self.free;
            let chunk = &mut self.chunks[c as usize];
            self.free = chunk.next;
            chunk.next = NIL;
            return c;
        }
        let c = u32::try_from(self.chunks.len())
            .ok()
            .filter(|&c| c != NIL)
            .expect("chunk pool outgrew its u32 links");
        self.chunks.push(Chunk {
            items: Vec::new(),
            next: NIL,
        });
        c
    }

    /// Appends to `tick`'s chain, marks the slot occupied and returns the
    /// chain's new length.
    #[inline]
    fn chain_push(&mut self, tick: u64, entry: Entry<T>) -> u64 {
        let idx = (tick & BUCKET_MASK) as usize;
        let mut head = self.heads[idx];
        if (head.len as usize).is_multiple_of(CHUNK) {
            // Empty chain, or its last chunk just filled: link a new one.
            let c = self.take_chunk();
            if head.len == 0 {
                head.first = c;
                // Only the empty -> nonempty transition needs the bitmap
                // write; a nonempty chain is always already marked.
                self.mark_occupied(tick);
            } else {
                self.chunks[head.last as usize].next = c;
            }
            head.last = c;
        }
        self.chunks[head.last as usize].items.push(entry);
        head.len += 1;
        self.heads[idx] = head;
        u64::from(head.len)
    }

    /// Moves the chain on `tick`'s slot into `out` (unsorted) and returns
    /// its chunks to the free list.
    fn chain_take(&mut self, tick: u64, out: &mut Vec<Entry<T>>) {
        let idx = (tick & BUCKET_MASK) as usize;
        let head = std::mem::replace(&mut self.heads[idx], EMPTY_HEAD);
        out.reserve(head.len as usize);
        let mut c = head.first;
        while c != NIL {
            let chunk = &mut self.chunks[c as usize];
            out.append(&mut chunk.items);
            let next = chunk.next;
            chunk.next = self.free;
            self.free = c;
            c = next;
        }
        self.clear_occupied(tick);
    }

    /// Moves the chain on `tick`'s slot into `out` sorted descending by
    /// `(at, seq)` and returns its chunks to the free list, in time linear
    /// in the chain: one counting pass keyed by the high in-tick bits of
    /// `at` (about one bucket per entry), one scatter from the chunks
    /// straight into `out`, then a sort of each bucket. Bucket 0 takes the
    /// latest in-tick range, so `out` comes out descending.
    fn chain_scatter(&mut self, tick: u64, out: &mut Vec<Entry<T>>) {
        let idx = (tick & BUCKET_MASK) as usize;
        let head = std::mem::replace(&mut self.heads[idx], EMPTY_HEAD);
        self.clear_occupied(tick);
        let n = head.len as usize;
        let bits = n.ilog2().min(SCATTER_MAX_BITS);
        let shift = BUCKET_SHIFT - bits;
        let last = (1usize << bits) - 1;
        let bucket = |e: &Entry<T>| last - ((e.at & TICK_MASK) >> shift) as usize;
        // Count, then turn the counts into each bucket's first offset.
        let offsets = &mut self.offsets;
        offsets.clear();
        offsets.resize(last + 1, 0);
        let mut c = head.first;
        while c != NIL {
            let chunk = &self.chunks[c as usize];
            for e in &chunk.items {
                debug_assert_eq!(Self::tick_of(e.at), tick, "entry chained on another tick");
                offsets[bucket(e)] += 1;
            }
            c = chunk.next;
        }
        let mut sum = 0;
        for o in offsets.iter_mut() {
            (*o, sum) = (sum, sum + *o);
        }
        // Scatter; each offset then ends where its bucket ends.
        out.resize(n, self.chunks[head.first as usize].items[0]);
        let mut c = head.first;
        while c != NIL {
            let chunk = &mut self.chunks[c as usize];
            for e in chunk.items.drain(..) {
                let o = &mut offsets[bucket(&e)];
                out[*o as usize] = e;
                *o += 1;
            }
            let next = chunk.next;
            chunk.next = self.free;
            self.free = c;
            c = next;
        }
        let mut start = 0;
        for &end in offsets.iter() {
            let end = end as usize;
            if end - start > 1 {
                out[start..end].sort_unstable_by_key(|e| Reverse((e.at, e.seq)));
            }
            start = end;
        }
    }

    /// The entries chained on `tick`'s slot, in push order. `NIL` indexes
    /// past any pool, so `get` ends the walk.
    fn chain_iter(&self, tick: u64) -> impl Iterator<Item = &Entry<T>> {
        let first = self.heads[(tick & BUCKET_MASK) as usize].first;
        std::iter::successors(self.chunks.get(first as usize), |chunk| {
            self.chunks.get(chunk.next as usize)
        })
        .flat_map(|chunk| chunk.items.iter())
    }

    /// Schedules an event. `now` is the caller's clock; `entry.at` must not
    /// precede it (the simulator never schedules into the past).
    ///
    /// On a push into an empty queue the window jumps forward to
    /// `tick(now)` — not to the entry's own tick, which would be unsafe:
    /// a second push in the same dispatch could then land behind the
    /// cursor. `tick(now)` is always a valid floor because every future
    /// push satisfies `at >= now`.
    pub fn push(&mut self, entry: Entry<T>, now: u64) {
        let tick = Self::tick_of(entry.at);
        if self.len == 0 {
            let now_tick = Self::tick_of(now);
            debug_assert!(now_tick >= self.cur_tick, "clock behind the cursor");
            self.cur_tick = now_tick;
            self.activated = false;
        }
        self.len += 1;
        self.telemetry.pushes += 1;
        self.telemetry.max_len = self.telemetry.max_len.max(self.len as u64);
        debug_assert!(tick >= self.cur_tick, "push behind the calendar cursor");
        if tick >= self.cur_tick + NUM_BUCKETS {
            self.telemetry.far_pushes += 1;
            self.far.push(Reverse(entry));
            return;
        }
        let occupied = if tick == self.cur_tick && self.activated {
            // The tick is mid-drain and sorted descending: insert at the
            // sorted position so pops stay in (at, seq) order.
            let pos = self
                .active
                .partition_point(|e| (e.at, e.seq) > (entry.at, entry.seq));
            self.active.insert(pos, entry);
            self.active.len() as u64
        } else {
            self.chain_push(tick, entry)
        };
        if occupied > self.telemetry.max_bucket_len {
            self.telemetry.max_bucket_len = occupied;
        }
    }

    /// Next nonempty ring slot's tick at or after `cur_tick`, if any, found
    /// by scanning the occupancy bitmap a 64-slot word at a time. Any set
    /// bit belongs to a tick inside the current window (bits are only set
    /// by in-window pushes and cleared on activation), so the first set
    /// bit encountered going forward is the answer.
    fn next_occupied_tick(&self) -> Option<u64> {
        if self.len == self.far.len() + self.active.len() {
            return None; // every ring slot is empty
        }
        let mut tick = self.cur_tick;
        let mut remaining = NUM_BUCKETS;
        while remaining > 0 {
            let idx = (tick & BUCKET_MASK) as usize;
            let bit = (idx % 64) as u64;
            // Bits below `bit` in this word belong to ticks near the far
            // end of the window (the ring wrapped); mask them off.
            let word = self.occupancy[idx / 64] & (!0u64 << bit);
            if word != 0 {
                return Some(tick + (u64::from(word.trailing_zeros()) - bit));
            }
            let step = (64 - bit).min(remaining);
            tick += step;
            remaining -= step;
        }
        None
    }

    /// Slides the window so `cur_tick = tick`, promoting far-future events
    /// that now fall inside it, and activates the new current tick. Only
    /// called with `active` drained.
    fn advance_to(&mut self, tick: u64) {
        debug_assert!(tick >= self.cur_tick);
        debug_assert!(self.active.is_empty());
        let skip = tick - self.cur_tick;
        self.telemetry.advances += 1;
        self.telemetry.skip_ticks += skip;
        if skip > self.telemetry.max_skip_ticks {
            self.telemetry.max_skip_ticks = skip;
        }
        self.cur_tick = tick;
        while let Some(Reverse(head)) = self.far.peek() {
            if Self::tick_of(head.at) >= self.cur_tick + NUM_BUCKETS {
                break;
            }
            let Reverse(entry) = self.far.pop().expect("peeked entry exists");
            self.telemetry.promotions += 1;
            self.chain_push(Self::tick_of(entry.at), entry);
        }
        let mut active = std::mem::take(&mut self.active);
        if self.heads[(tick & BUCKET_MASK) as usize].len as usize >= SCATTER_MIN {
            self.chain_scatter(tick, &mut active);
        } else {
            self.chain_take(tick, &mut active);
            // (at, seq) keys are unique, so unstable sorting cannot reorder
            // equal elements — and it skips the merge-buffer allocation.
            active.sort_unstable_by_key(|e| Reverse((e.at, e.seq)));
        }
        self.active = active;
        self.activated = true;
    }

    /// Pops the earliest event if its timestamp is `<= limit`; `None` when
    /// the queue is empty or the earliest event lies beyond `limit`. The
    /// window only advances when an event is actually eligible, so the
    /// cursor never outruns the caller's clock.
    pub fn pop_at_most(&mut self, limit: u64) -> Option<Entry<T>> {
        loop {
            if self.len == 0 {
                return None;
            }
            if let Some(entry) = self.active.last() {
                if entry.at > limit {
                    return None;
                }
                self.len -= 1;
                self.telemetry.pops += 1;
                return self.active.pop();
            }
            // The active tick is drained (or none is active): find the
            // next nonempty tick and check eligibility BEFORE advancing.
            if let Some(tick) = self.next_occupied_tick() {
                if tick << BUCKET_SHIFT > limit {
                    // Every event in that bucket is later than `limit`.
                    return None;
                }
                self.advance_to(tick);
                continue;
            }
            // Ring exhausted: everything left is in the far heap, whose
            // head is the global minimum.
            let Reverse(head) = self.far.peek().expect("len > 0 implies far nonempty");
            if head.at > limit {
                return None;
            }
            let tick = Self::tick_of(head.at);
            self.advance_to(tick);
        }
    }

    /// The entry `k` pops from now (`ahead(0)` pops next), while it is
    /// still in the activated tick's sorted buffer; `None` once the tick
    /// holds `k` or fewer entries, since later ticks are not sorted yet.
    /// A read-only look for prefetch hints: a push into the active tick
    /// before those pops can shift it.
    #[inline]
    pub(crate) fn ahead(&self, k: usize) -> Option<&Entry<T>> {
        let i = self.active.len().checked_sub(k + 1)?;
        self.active.get(i)
    }

    /// Timestamp of the earliest queued event without popping it.
    pub fn peek_at(&self) -> Option<u64> {
        if let Some(entry) = self.active.last() {
            return Some(entry.at);
        }
        if let Some(tick) = self.next_occupied_tick() {
            return self.chain_iter(tick).map(|e| e.at).min();
        }
        self.far.peek().map(|Reverse(e)| e.at)
    }
}

impl<T: Copy> Default for CalendarQueue<T> {
    fn default() -> Self {
        CalendarQueue::new()
    }
}

#[cfg(test)]
mod tests;
