//! The event queue at the heart of the discrete-event simulator.
//!
//! Events are opaque payloads ordered by `(timestamp, key, insertion
//! sequence)`. The caller-supplied key breaks same-cycle ties by *content*,
//! and the sequence makes the ordering a deterministic *total* order. This
//! is a correctness requirement for this repository: last-touch predictor
//! training data is an interleaving of coherence events, and reproducible
//! interleavings are what make the regenerated experiment tables
//! reproducible.
//!
//! # Structure
//!
//! The queue is a calendar queue (R. Brown, "Calendar queues", CACM 1988)
//! with one-cycle buckets. A ring of `WINDOW` (256) buckets covers the cycles
//! `[now, now + WINDOW)`, where `now` is the cycle of the last popped event;
//! bucket `c % WINDOW` holds the events due at cycle `c`, in key order. An
//! occupancy bitmap finds the next non-empty cycle in `WINDOW / 64` word
//! scans. Events due `WINDOW` or more cycles ahead wait in an overflow
//! binary heap and move into their bucket when `now` advances far enough to
//! bring their cycle into the ring.
//!
//! The simulated machine schedules almost everything a few dozen to a few
//! hundred cycles ahead (hits, memory, spin and backoff delays, one network
//! hop), and after a barrier release every node runs in lockstep, so one
//! cycle typically holds about one event per node. Scheduling is then an
//! append to a short bucket and popping is a front removal, both O(1); a
//! same-cycle insertion out of key order costs a binary search plus a
//! shift within its bucket, and only far-future events pay the heap's
//! O(log n).
//!
//! # Ordering contract
//!
//! Pops come out in `(time, key, insertion sequence)` order, exactly as a
//! priority queue over that triple would give them. Within a bucket,
//! insertion is stable: an event goes after every queued event with an equal
//! key. Overflow events reach a bucket the moment its cycle enters the ring,
//! before any direct schedule to that cycle is possible, so they stand ahead
//! of later-scheduled events with equal keys, as their earlier sequence
//! demands.
//!
//! Time never runs backwards: scheduling an event before the cycle of the
//! last popped event panics.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use crate::time::Cycle;

/// Cycles covered by the bucket ring. A power of two (bucket index is a
/// mask), larger than the machine's common scheduling deltas: a hit, a
/// 104-cycle memory access, a 40-cycle spin, a backoff of at most 240
/// cycles, and an 88-cycle NI + network hop.
const WINDOW: u64 = 256;
const MASK: u64 = WINDOW - 1;
/// `u64` words in the occupancy bitmap.
const WORDS: usize = (WINDOW / 64) as usize;

/// One bucket: the events due at one cycle, in `(key, insertion)` order.
type Bucket<K, E> = VecDeque<(K, E)>;

/// A far-future event waiting in the overflow heap.
struct FarEntry<K, E> {
    at: Cycle,
    key: K,
    seq: u64,
    payload: E,
}

impl<K: Ord, E> PartialEq for FarEntry<K, E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.key == other.key && self.seq == other.seq
    }
}

impl<K: Ord, E> Eq for FarEntry<K, E> {}

impl<K: Ord, E> PartialOrd for FarEntry<K, E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<K: Ord, E> Ord for FarEntry<K, E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; reverse so the earliest (time, key, seq)
        // pops first.
        (&other.at, &other.key, other.seq).cmp(&(&self.at, &self.key, self.seq))
    }
}

/// A future-event list ordered by `(timestamp, key, insertion sequence)`.
///
/// Timestamp ties break by a caller-supplied *content* key, and only equal
/// `(time, key)` pairs fall back to scheduling order. When keys identify
/// independent actors (and same-`(time, key)` collisions are either
/// impossible or commutative), the pop order becomes a property of the
/// simulated system rather than of the scheduling call order — which is
/// what lets a partitioned simulation replay the exact serial order
/// regardless of how the actors are distributed across shards.
///
/// A calendar queue of one-cycle buckets over the next 256 cycles, with a
/// binary heap for events further ahead; an occupancy bitmap finds the
/// next non-empty cycle. Scheduling and popping near-future events is O(1)
/// when same-cycle events arrive in key order; an out-of-order insert costs
/// O(log b + b) for a bucket of `b` events, and far-future events cost
/// O(log n).
///
/// # Panics
///
/// [`schedule`](Self::schedule) panics if `at` is earlier than the cycle of
/// the last popped event.
///
/// # Examples
///
/// ```
/// use ltp_sim::{Cycle, KeyedEventQueue};
///
/// let mut q = KeyedEventQueue::new();
/// q.schedule(Cycle::new(10), 2u8, "second");
/// q.schedule(Cycle::new(10), 1u8, "first");
/// assert_eq!(q.pop(), Some((Cycle::new(10), 1, "first")));
/// assert_eq!(q.pop(), Some((Cycle::new(10), 2, "second")));
/// ```
pub struct KeyedEventQueue<K: Ord, E> {
    /// `buckets[c % WINDOW]` holds the events due at cycle `c`, for `c` in
    /// `[now, now + WINDOW)`. Empty buckets own no allocation.
    buckets: Box<[Bucket<K, E>]>,
    /// Bit `i` is set iff `buckets[i]` is non-empty.
    occupied: [u64; WORDS],
    /// Drained bucket buffers, reused by the next bucket to fill. Keeps the
    /// retained capacity proportional to the busiest cycles in flight at
    /// once rather than to every bucket that was ever busy.
    spare: Vec<Bucket<K, E>>,
    /// Events held in `buckets`.
    near: usize,
    /// Events due at `now + WINDOW` or later.
    far: BinaryHeap<FarEntry<K, E>>,
    /// Cycle of the last popped event (zero before the first pop).
    now: u64,
    scheduled_total: u64,
}

impl<K: Ord, E> KeyedEventQueue<K, E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        KeyedEventQueue {
            buckets: (0..WINDOW).map(|_| VecDeque::new()).collect(),
            occupied: [0; WORDS],
            spare: Vec::new(),
            near: 0,
            far: BinaryHeap::new(),
            now: 0,
            scheduled_total: 0,
        }
    }

    /// Schedules `payload` for delivery at absolute time `at` under `key`.
    ///
    /// Same-cycle events are delivered in key order; equal `(at, key)` pairs
    /// fall back to scheduling order.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the cycle of the last popped event.
    pub fn schedule(&mut self, at: Cycle, key: K, payload: E) {
        let t = at.as_u64();
        assert!(
            t >= self.now,
            "event scheduled at cycle {t}, before the last popped cycle {}",
            self.now
        );
        let seq = self.scheduled_total;
        self.scheduled_total += 1;
        if t - self.now < WINDOW {
            self.insert_near(t, key, payload);
        } else {
            self.far.push(FarEntry {
                at,
                key,
                seq,
                payload,
            });
        }
    }

    /// Inserts into the bucket of cycle `t` after every equal key.
    #[inline]
    fn insert_near(&mut self, t: u64, key: K, payload: E) {
        let i = (t & MASK) as usize;
        let bucket = &mut self.buckets[i];
        match bucket.back() {
            None => {
                if let Some(buf) = self.spare.pop() {
                    *bucket = buf;
                }
                self.occupied[i / 64] |= 1 << (i % 64);
                bucket.push_back((key, payload));
            }
            Some((last, _)) if *last <= key => bucket.push_back((key, payload)),
            Some(_) => {
                let pos = bucket.partition_point(|(k, _)| *k <= key);
                bucket.insert(pos, (key, payload));
            }
        }
        self.near += 1;
    }

    /// Cycles from `now` to the earliest non-empty bucket. Requires
    /// `near > 0`.
    #[inline]
    fn next_offset(&self) -> u64 {
        let start = (self.now & MASK) as usize;
        let (w0, b0) = (start / 64, start % 64);
        let first = self.occupied[w0] & (u64::MAX << b0);
        let idx = if first != 0 {
            w0 * 64 + first.trailing_zeros() as usize
        } else {
            (1..=WORDS)
                .find_map(|step| {
                    let w = (w0 + step) % WORDS;
                    let mut bits = self.occupied[w];
                    if step == WORDS {
                        // Back at the first word: only the bits before `now`.
                        bits &= !(u64::MAX << b0);
                    }
                    (bits != 0).then(|| w * 64 + bits.trailing_zeros() as usize)
                })
                .expect("a near event is queued")
        };
        (idx as u64).wrapping_sub(start as u64) & MASK
    }

    /// Moves the clock to `t` and pulls every overflow event now inside the
    /// ring into its bucket. Their buckets are empty: the cycles they share
    /// a bucket with lie in `[now, t)`, which holds no events.
    fn advance(&mut self, t: u64) {
        self.now = t;
        let limit = t.saturating_add(WINDOW);
        while self.far.peek().is_some_and(|e| e.at.as_u64() < limit) {
            let e = self.far.pop().expect("peeked entry present");
            // Heap order is (time, key, seq), so each lands at its bucket's
            // back, ahead of any later direct schedule with an equal key.
            self.insert_near(e.at.as_u64(), e.key, e.payload);
        }
    }

    /// Removes and returns the earliest pending event, if any.
    pub fn pop(&mut self) -> Option<(Cycle, K, E)> {
        if self.near == 0 {
            let t = self.far.peek()?.at.as_u64();
            self.advance(t);
        }
        let offset = self.next_offset();
        let t = self.now + offset;
        if offset > 0 {
            self.advance(t);
        }
        let i = (t & MASK) as usize;
        let bucket = &mut self.buckets[i];
        let (key, payload) = bucket.pop_front().expect("occupied bucket holds an event");
        if bucket.is_empty() {
            self.occupied[i / 64] &= !(1 << (i % 64));
            self.spare.push(std::mem::take(bucket));
        }
        self.near -= 1;
        Some((Cycle::new(t), key, payload))
    }

    /// Returns the timestamp of the earliest pending event without removing
    /// it.
    pub fn peek_time(&self) -> Option<Cycle> {
        if self.near > 0 {
            Some(Cycle::new(self.now + self.next_offset()))
        } else {
            self.far.peek().map(|e| e.at)
        }
    }

    /// Returns the number of pending events.
    pub fn len(&self) -> usize {
        self.near + self.far.len()
    }

    /// Returns `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of events ever scheduled on this queue.
    pub fn scheduled_total(&self) -> u64 {
        self.scheduled_total
    }
}

impl<K: Ord, E> Default for KeyedEventQueue<K, E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Ord, E> std::fmt::Debug for KeyedEventQueue<K, E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KeyedEventQueue")
            .field("pending", &self.len())
            .field("scheduled_total", &self.scheduled_total)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimRng;

    #[test]
    fn pops_in_time_order() {
        let mut q = KeyedEventQueue::new();
        q.schedule(Cycle::new(5), 0u8, 'b');
        q.schedule(Cycle::new(1), 9u8, 'a');
        q.schedule(Cycle::new(9), 0u8, 'c');
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, _, p)| p)).collect();
        assert_eq!(order, vec!['a', 'b', 'c']);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        // Equal (time, key) pairs keep their scheduling order.
        let mut q = KeyedEventQueue::new();
        for i in 0..100 {
            q.schedule(Cycle::new(7), 3u8, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, _, p)| p)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = KeyedEventQueue::new();
        q.schedule(Cycle::new(3), 0u8, ());
        assert_eq!(q.peek_time(), Some(Cycle::new(3)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn counts_scheduled_events() {
        // The total counts every schedule, including events already popped.
        let mut q = KeyedEventQueue::new();
        q.schedule(Cycle::ZERO, 0u8, ());
        q.schedule(Cycle::ZERO, 1u8, ());
        q.pop();
        assert_eq!(q.scheduled_total(), 2);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn debug_is_nonempty() {
        let q = KeyedEventQueue::<u8, u8>::new();
        assert!(!format!("{q:?}").is_empty());
    }

    #[test]
    fn keyed_queue_orders_by_time_then_key_then_seq() {
        let mut q = KeyedEventQueue::new();
        q.schedule(Cycle::new(5), 9u32, 'd');
        q.schedule(Cycle::new(5), 1u32, 'b');
        q.schedule(Cycle::new(5), 1u32, 'c');
        q.schedule(Cycle::new(1), 7u32, 'a');
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, _, p)| p)).collect();
        assert_eq!(order, vec!['a', 'b', 'c', 'd']);
    }

    #[test]
    fn keyed_queue_order_is_insertion_invariant() {
        // The same (time, key) set pops identically regardless of the order
        // it was scheduled in — the property sharding relies on.
        let mut fwd = KeyedEventQueue::new();
        let mut rev = KeyedEventQueue::new();
        let entries: Vec<(u64, u32)> = vec![(3, 2), (1, 5), (3, 1), (2, 9), (1, 0)];
        for &(t, k) in &entries {
            fwd.schedule(Cycle::new(t), k, (t, k));
        }
        for &(t, k) in entries.iter().rev() {
            rev.schedule(Cycle::new(t), k, (t, k));
        }
        let a: Vec<_> = std::iter::from_fn(|| fwd.pop()).collect();
        let b: Vec<_> = std::iter::from_fn(|| rev.pop()).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn keyed_queue_peek_len_and_counts() {
        let mut q = KeyedEventQueue::new();
        assert!(q.is_empty());
        q.schedule(Cycle::new(4), 0u8, ());
        q.schedule(Cycle::new(2), 0u8, ());
        assert_eq!(q.peek_time(), Some(Cycle::new(2)));
        assert_eq!(q.len(), 2);
        assert_eq!(q.scheduled_total(), 2);
    }

    #[test]
    #[should_panic(expected = "before the last popped cycle")]
    fn scheduling_into_the_past_panics() {
        let mut q = KeyedEventQueue::new();
        q.schedule(Cycle::new(10), 0u8, ());
        q.pop();
        q.schedule(Cycle::new(9), 0u8, ());
    }

    /// The reference model: the ordering contract stated directly, as a
    /// binary heap over `(time, key, seq)`. Payloads are unique, so every
    /// pop also checks the scheduling-order tie-break.
    #[derive(Default)]
    struct Model {
        heap: BinaryHeap<std::cmp::Reverse<(u64, u32, u64, u64)>>,
        seq: u64,
    }

    impl Model {
        fn schedule(&mut self, at: u64, key: u32, payload: u64) {
            self.heap
                .push(std::cmp::Reverse((at, key, self.seq, payload)));
            self.seq += 1;
        }

        fn pop(&mut self) -> Option<(Cycle, u32, u64)> {
            self.heap
                .pop()
                .map(|std::cmp::Reverse((at, key, _, p))| (Cycle::new(at), key, p))
        }

        fn peek_time(&self) -> Option<Cycle> {
            self.heap.peek().map(|r| Cycle::new(r.0 .0))
        }
    }

    /// Drives the queue and the model through the same operations and
    /// checks every observable after each one.
    struct Pair {
        q: KeyedEventQueue<u32, u64>,
        m: Model,
        now: u64,
        payload: u64,
    }

    impl Pair {
        fn new() -> Self {
            Pair {
                q: KeyedEventQueue::new(),
                m: Model::default(),
                now: 0,
                payload: 0,
            }
        }

        fn check(&self) {
            assert_eq!(self.q.peek_time(), self.m.peek_time());
            assert_eq!(self.q.len(), self.m.heap.len());
            assert_eq!(self.q.is_empty(), self.m.heap.is_empty());
            assert_eq!(self.q.scheduled_total(), self.m.seq);
        }

        fn schedule(&mut self, at: u64, key: u32) {
            self.payload += 1;
            self.q.schedule(Cycle::new(at), key, self.payload);
            self.m.schedule(at, key, self.payload);
            self.check();
        }

        fn pop(&mut self) -> Option<(Cycle, u32, u64)> {
            let got = self.q.pop();
            assert_eq!(got, self.m.pop());
            if let Some((at, ..)) = got {
                self.now = at.as_u64();
            }
            self.check();
            got
        }

        fn drain(&mut self) {
            while self.pop().is_some() {}
        }
    }

    #[test]
    fn lockstep_bursts_match_the_reference() {
        // Miri runs this crate's tests in CI; keep its share small.
        let sizes: &[u32] = if cfg!(miri) {
            &[1, 3, 65]
        } else {
            &[1, 2, 3, 31, 64, 65, 257, 4096]
        };
        for &n in sizes {
            let mut p = Pair::new();
            // Ascending, then descending, on one cycle each; then both
            // interleaved on one cycle.
            for k in 0..n {
                p.schedule(100, k);
            }
            for k in (0..n).rev() {
                p.schedule(101, k);
            }
            for k in 0..n {
                p.schedule(102, k);
                p.schedule(102, n - 1 - k);
            }
            // A burst re-scheduled in lockstep one spin interval later,
            // as every node on a released barrier does.
            for _ in 0..n {
                let (at, key, _) = p.pop().expect("burst pending");
                p.schedule(at.as_u64() + 40, key);
            }
            p.drain();
        }
    }

    #[test]
    fn equal_time_and_key_pop_in_scheduling_order() {
        let mut p = Pair::new();
        for _ in 0..50 {
            p.schedule(5, 1);
            p.schedule(5, 0);
            p.schedule(700, 1); // overflow twins
        }
        p.drain();
    }

    #[test]
    fn overflow_events_precede_later_equal_keys() {
        let mut p = Pair::new();
        // Far events for cycle 1000, scheduled while it lies beyond the ring.
        for k in [3, 1, 2, 1] {
            p.schedule(1000, k);
        }
        // Walk the clock up in near steps until 1000 is inside the ring,
        // then collide nearer-scheduled events with the far ones' keys.
        for at in [200, 400, 600, 800] {
            p.schedule(at, 9);
            p.pop();
        }
        for k in [1, 2, 0, 3] {
            p.schedule(1000, k);
        }
        // An overflow event that enters the ring on a pop that jumps past
        // an empty ring.
        p.schedule(1300, 2);
        p.drain();
        p.schedule(p.now + 5000, 4);
        p.schedule(p.now + 5000, 4);
        p.drain();
    }

    #[test]
    fn current_cycle_schedules_mid_drain() {
        let mut p = Pair::new();
        for k in [10, 20, 30] {
            p.schedule(50, k);
        }
        p.pop(); // key 10 at cycle 50
        p.schedule(50, 5); // behind the popped key: pops next
        p.schedule(50, 25);
        p.schedule(50, 40);
        p.drain();
        // The bucket drained and is refilled at the same cycle.
        p.schedule(50, 1);
        p.drain();
    }

    #[test]
    fn random_operations_match_the_reference() {
        let mut rng = SimRng::from_seed(0x15CA_2000);
        for _ in 0..if cfg!(miri) { 2 } else { 40 } {
            let mut p = Pair::new();
            for _ in 0..2_000 {
                match rng.below(10) {
                    0..=5 => {
                        // Mostly near-future deltas, some at `now`, some
                        // past the ring, a few far beyond it.
                        let delta = match rng.below(8) {
                            0 => 0,
                            1..=4 => rng.below(WINDOW),
                            5 | 6 => rng.range(WINDOW - 8, WINDOW + 8),
                            _ => rng.below(20 * WINDOW),
                        };
                        let key = rng.below(6) as u32;
                        p.schedule(p.now + delta, key);
                    }
                    6 => {
                        // A lockstep burst on one cycle.
                        let at = p.now + rng.below(2 * WINDOW);
                        let n = rng.range(1, 40) as u32;
                        let descending = rng.chance(1, 2);
                        for k in 0..n {
                            p.schedule(at, if descending { n - k } else { k });
                        }
                    }
                    _ => {
                        p.pop();
                    }
                }
            }
            p.drain();
        }
    }
}
