//! Typed simulation events and the deterministic event queue.
//!
//! The kernel's vocabulary is a small closed set of [`EventKind`]s; every
//! scheduled occurrence is a [`SimEvent`] — plain `Copy` data, no boxed
//! payloads — so the steady-state path moves events by value and never
//! allocates per event.
//!
//! Determinism (DESIGN.md §15): the queue is ordered by the total key
//! `(time, seq, source)`, where `seq` is the *per-source* emission
//! counter. Event times are non-negative finite floats, so comparing
//! `f64::to_bits` is order-preserving and bit-exact — no `partial_cmp`
//! edge cases on the hot path. Because `(source, seq)` pairs are unique,
//! the key is a total order: pop order depends only on what each
//! component emitted, never on insertion order — which is exactly the
//! registration-order invariance the kernel differential harness pins
//! with a property test.
//!
//! Layout (DESIGN.md §9): [`EventQueue`] is a timing wheel, not a heap.
//! A small sorted ring cache ([`CACHE_SLOTS`] events, ascending, minimum
//! at the front) serves the dominant facade pattern — a handful of
//! pending wakes and notes — with a shift-free append per push and a
//! `pop_front` per pop; behind it sit same-timestamp buckets keyed on
//! `time.to_bits()` (the lattice of coincident releases makes timestamp
//! collisions the common case), ordered so the soonest bucket pops from
//! the back of the bucket list without shifting. The wheel holds at most
//! [`WHEEL_SLOTS`] distinct pending timestamps; anything beyond spills
//! onto a binary-heap overflow rail ([`HeapQueue`] — the pre-wheel queue,
//! retained verbatim as both the rail and the differential oracle the
//! wheel is property-tested against). Admissibility: every pop compares
//! the wheel's best key with the rail's best key, so an event is returned
//! at its exact total-order position no matter which side holds it.
//! The geometry was tuned for the simulators when they ran on the
//! kernel; they no longer queue events (DESIGN.md §15), so the queue now
//! serves the [`crate::Kernel`] alone.

use std::collections::VecDeque;

/// Index of a component registered with the [`crate::Kernel`].
///
/// Ids are caller-assigned, stable slot indices (e.g. core `k` of a
/// platform is component `k`), not registration handles — two runs that
/// wire the same components to the same slots order events identically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ComponentId(pub usize);

/// Number of distinct [`EventKind`]s (the per-kind counter array width).
pub const EVENT_KINDS: usize = 7;

/// The closed event taxonomy of the simulation kernel.
///
/// `Release` and `Dispatch` are *wake* events: they drive a core engine's
/// next step. The remaining kinds are *notes* — semantic observations
/// (a completion, an injected fault, an (m,k) skip, a frame boundary, a
/// budget throttle) addressed to observer components. Notes carry no
/// float state, so they feed the per-component counters without touching
/// simulation arithmetic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// A job release instant (also the engine wake used while idle).
    Release,
    /// A job completed (executed to its actual demand).
    Completion,
    /// A dispatch-path engine wake (speed/review/execution continuation).
    Dispatch,
    /// An injected-fault observation (overrun, jitter, drop, shed, abort,
    /// forced full speed).
    Fault,
    /// A model-layer (m,k) skip of a weakly-hard job.
    Skip,
    /// A frame-task release boundary.
    FrameBoundary,
    /// A shared-power-budget throttle decision.
    Budget,
}

impl EventKind {
    /// Every kind, in counter-array order.
    pub const ALL: [EventKind; EVENT_KINDS] = [
        EventKind::Release,
        EventKind::Completion,
        EventKind::Dispatch,
        EventKind::Fault,
        EventKind::Skip,
        EventKind::FrameBoundary,
        EventKind::Budget,
    ];

    /// The kind's slot in per-kind counter arrays.
    pub fn index(self) -> usize {
        match self {
            EventKind::Release => 0,
            EventKind::Completion => 1,
            EventKind::Dispatch => 2,
            EventKind::Fault => 3,
            EventKind::Skip => 4,
            EventKind::FrameBoundary => 5,
            EventKind::Budget => 6,
        }
    }

    /// A short stable label (used in reports and logs).
    pub fn label(self) -> &'static str {
        match self {
            EventKind::Release => "release",
            EventKind::Completion => "completion",
            EventKind::Dispatch => "dispatch",
            EventKind::Fault => "fault",
            EventKind::Skip => "skip",
            EventKind::FrameBoundary => "frame-boundary",
            EventKind::Budget => "budget",
        }
    }
}

/// One scheduled occurrence: plain `Copy` data, no payload allocation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimEvent {
    /// Simulated time of the occurrence, in seconds (non-negative finite).
    pub time: f64,
    /// What happened.
    pub kind: EventKind,
    /// The emitting component.
    pub source: ComponentId,
    /// The component the kernel delivers the event to.
    pub target: ComponentId,
}

/// A queued event plus its per-source emission ordinal (the tiebreaker).
#[derive(Debug, Clone, Copy)]
pub(crate) struct QueuedEvent {
    pub(crate) event: SimEvent,
    pub(crate) seq: u64,
}

impl QueuedEvent {
    /// The total ordering key `(time, seq, source)`. Times are
    /// non-negative finite, so the IEEE-754 bit pattern orders exactly
    /// like the float value.
    fn key(&self) -> (u64, u64, usize) {
        (self.event.time.to_bits(), self.seq, self.event.source.0)
    }
}

/// A binary min-heap over [`QueuedEvent::key`], backed by one reusable
/// `Vec` — cleared (not freed) between runs, so the steady-state path
/// never allocates once the buffer has grown to the run's high-water
/// mark of simultaneously pending events.
///
/// This was the event queue before the timing wheel; it is kept verbatim
/// as (a) the wheel's overflow rail and (b) the differential oracle the
/// wheel's pop order is property-tested against.
#[derive(Debug, Clone, Default)]
pub(crate) struct HeapQueue {
    heap: Vec<QueuedEvent>,
}

impl HeapQueue {
    /// Drops all pending events, keeping the buffer.
    pub(crate) fn clear(&mut self) {
        self.heap.clear();
    }

    /// Number of pending events.
    pub(crate) fn len(&self) -> usize {
        self.heap.len()
    }

    /// The minimum-key event, if any, without removing it.
    pub(crate) fn peek(&self) -> Option<&QueuedEvent> {
        self.heap.first()
    }

    /// Schedules an event under the given per-source sequence number.
    pub(crate) fn push(&mut self, event: SimEvent, seq: u64) {
        debug_assert!(
            event.time.is_finite() && event.time >= 0.0,
            "event time must be non-negative finite, got {}",
            event.time
        );
        self.heap.push(QueuedEvent { event, seq });
        self.sift_up(self.heap.len() - 1);
    }

    /// Removes and returns the minimum-key event.
    pub(crate) fn pop(&mut self) -> Option<QueuedEvent> {
        let last = self.heap.len().checked_sub(1)?;
        self.heap.swap(0, last);
        let min = self.heap.pop();
        if !self.heap.is_empty() {
            self.sift_down(0);
        }
        min
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.heap[i].key() < self.heap[parent].key() {
                self.heap.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        let n = self.heap.len();
        loop {
            let left = 2 * i + 1;
            if left >= n {
                break;
            }
            let right = left + 1;
            let mut child = left;
            if right < n && self.heap[right].key() < self.heap[left].key() {
                child = right;
            }
            if self.heap[child].key() < self.heap[i].key() {
                self.heap.swap(i, child);
                i = child;
            } else {
                break;
            }
        }
    }
}

/// Maximum distinct pending timestamps the wheel holds before new
/// timestamps spill onto the overflow rail. Pending-set sizes in practice
/// are the component count plus same-instant notes, so 64 distinct
/// *times* is far past every facade workload — the rail exists so the
/// bound is a performance knob, never a correctness limit.
pub(crate) const WHEEL_SLOTS: usize = 64;

/// Occupancy counters of one [`EventQueue`] run (reset by
/// [`EventQueue::clear`]): how full the wheel ran and how often the
/// overflow rail was needed. Surfaced per-run through
/// [`crate::Kernel::queue_stats`] and reported as bench columns.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// High-water mark of distinct pending timestamps (wheel buckets).
    pub wheel_occupancy_hwm: u64,
    /// High-water mark of events sharing one pending timestamp.
    pub bucket_len_hwm: u64,
    /// Events pushed past [`WHEEL_SLOTS`] onto the heap overflow rail.
    pub overflow_pushes: u64,
}

/// One same-timestamp wheel bucket. Within a bucket only `(seq, source)`
/// orders pops, so the events are stored unordered and the minimum is
/// found by a scan — buckets are small (coincident lattice releases plus
/// notes), and `swap_remove` keeps extraction allocation- and shift-free.
#[derive(Debug, Clone, Default)]
struct Bucket {
    time_bits: u64,
    events: Vec<QueuedEvent>,
}

/// Capacity of the sorted front cache. Facade runs keep a core's
/// self-wake plus a few same-instant notes pending — comfortably under
/// eight — so the wheel machinery behind the cache is only exercised by
/// wide platforms and synthetic stress.
pub(crate) const CACHE_SLOTS: usize = 8;

/// The deterministic event queue: a small sorted front cache, a
/// single-level timing wheel bucketed by exact timestamp bits, and a
/// binary min-heap overflow rail (see the module docs for the geometry
/// and the order-preservation argument).
///
/// All storage is reused across runs: buckets emptied by pops park on a
/// spare list and are re-armed by later pushes, so the steady-state path
/// never allocates once every buffer has hit its high-water mark.
#[derive(Debug, Clone, Default)]
pub(crate) struct EventQueue {
    /// Up to [`CACHE_SLOTS`] events sorted by *ascending* key in a ring:
    /// the queue minimum sits at the front (when the rails hold nothing
    /// smaller) and newly emitted events — almost always the latest —
    /// append at the back, so both common paths are shift-free. The cache
    /// has no ordering relation to the rails — pops compare its front
    /// against the rails' best key, so every event is returned at its
    /// exact total-order position.
    cache: VecDeque<QueuedEvent>,
    /// Same-timestamp buckets, sorted by *descending* `time_bits`: the
    /// soonest bucket sits at the back, where it pops without shifting.
    wheel: Vec<Bucket>,
    /// Events past [`WHEEL_SLOTS`] distinct pending timestamps.
    overflow: HeapQueue,
    /// Recycled bucket storage (capacity retained).
    spare: Vec<Vec<QueuedEvent>>,
    len: usize,
    stats: QueueStats,
}

impl EventQueue {
    /// Drops all pending events and resets the occupancy stats, keeping
    /// every buffer.
    pub(crate) fn clear(&mut self) {
        self.cache.clear();
        while let Some(bucket) = self.wheel.pop() {
            let mut events = bucket.events;
            events.clear();
            self.spare.push(events);
        }
        self.overflow.clear();
        self.len = 0;
        self.stats = QueueStats::default();
    }

    /// Number of pending events.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The occupancy counters accumulated since the last clear.
    pub(crate) fn stats(&self) -> QueueStats {
        self.stats
    }

    /// Schedules an event under the given per-source sequence number.
    pub(crate) fn push(&mut self, event: SimEvent, seq: u64) {
        debug_assert!(
            event.time.is_finite() && event.time >= 0.0,
            "event time must be non-negative finite, got {}",
            event.time
        );
        let queued = QueuedEvent { event, seq };
        self.len += 1;
        if self.cache.len() < CACHE_SLOTS {
            self.cache_insert(queued);
        // xtask:allow(no-panic): branch runs only with CACHE_SLOTS > 0 entries cached
        } else if queued.key() < self.cache.back().expect("cache is full").key() {
            // The cache is full but the newcomer beats its largest entry:
            // evict the back (largest) to the rail and file the newcomer
            // at its sorted spot.
            // xtask:allow(no-panic): same full-cache invariant as above
            let evicted = self.cache.pop_back().expect("cache is full");
            self.cache_insert(queued);
            self.insert_rail(evicted);
        } else {
            self.insert_rail(queued);
        }
    }

    /// Files an event into the sorted cache. The scan runs from the back
    /// because emitted events are almost always the latest pending time —
    /// the common case is one comparison and a shift-free ring append.
    fn cache_insert(&mut self, queued: QueuedEvent) {
        let mut pos = self.cache.len();
        while pos > 0 && self.cache[pos - 1].key() > queued.key() {
            pos -= 1;
        }
        self.cache.insert(pos, queued);
    }

    /// Removes and returns the minimum-key event. The candidates are the
    /// cache's front, the `(seq, source)` minimum of the wheel's soonest
    /// (back) bucket, and the overflow top; the cache has no ordering
    /// relation to the rails, so the three are compared on the full key —
    /// every event pops at its exact total-order position no matter where
    /// it is held.
    pub(crate) fn pop(&mut self) -> Option<QueuedEvent> {
        if self.wheel.is_empty() && self.overflow.len() == 0 {
            // Fast path (the facade steady state): both rails empty, the
            // sorted cache is the whole queue.
            let out = self.cache.pop_front()?;
            self.len -= 1;
            return Some(out);
        }
        let wheel_min = self.wheel.last().map(|bucket| {
            let mut best = 0;
            let mut best_key = bucket.events[0].key();
            for (i, candidate) in bucket.events.iter().enumerate().skip(1) {
                let key = candidate.key();
                if key < best_key {
                    best = i;
                    best_key = key;
                }
            }
            (best, best_key)
        });
        let overflow_key = self.overflow.peek().map(QueuedEvent::key);
        // At least one rail is non-empty here, so a best rail candidate
        // exists: `(from_overflow, index within the back bucket, key)`.
        let (from_overflow, index, rail_key) = match (wheel_min, overflow_key) {
            (Some((i, w)), Some(o)) => {
                if o < w {
                    (true, 0, o)
                } else {
                    (false, i, w)
                }
            }
            (Some((i, w)), None) => (false, i, w),
            (None, Some(o)) => (true, 0, o),
            (None, None) => unreachable!("checked non-empty above"),
        };
        self.len -= 1;
        if let Some(front) = self.cache.front() {
            if front.key() < rail_key {
                return self.cache.pop_front();
            }
        }
        if from_overflow {
            self.overflow.pop()
        } else {
            // xtask:allow(no-panic): wheel_min was Some, so the back bucket exists
            let bucket = self.wheel.last_mut().expect("candidate came from it");
            let min = bucket.events.swap_remove(index);
            if bucket.events.is_empty() {
                // xtask:allow(no-panic): last_mut() above proved non-empty
                let emptied = self.wheel.pop().expect("bucket exists");
                self.spare.push(emptied.events);
            }
            Some(min)
        }
    }

    /// Files a non-minimum event into the wheel, or onto the overflow
    /// rail when the wheel is at capacity and no bucket matches. The
    /// bucket list is sorted by descending `time_bits`, so one binary
    /// search finds both the matching bucket and the insertion slot.
    fn insert_rail(&mut self, queued: QueuedEvent) {
        let bits = queued.event.time.to_bits();
        let pos = self.wheel.partition_point(|b| b.time_bits > bits);
        if let Some(bucket) = self.wheel.get_mut(pos) {
            // xtask:allow(float-eq): u64 bit-pattern bucket key, not float arithmetic
            if bucket.time_bits == bits {
                bucket.events.push(queued);
                // Only bother with the exact cached-peer count when the
                // upper bound (bucket + whole cache) would move the
                // high-water mark.
                let bucket_len = bucket.events.len() as u64;
                if bucket_len + CACHE_SLOTS as u64 > self.stats.bucket_len_hwm {
                    let cached_peers = self
                        .cache
                        .iter()
                        // xtask:allow(float-eq): u64 bit-pattern match
                        .filter(|e| e.event.time.to_bits() == bits)
                        .count() as u64;
                    let len = bucket_len + cached_peers;
                    if len > self.stats.bucket_len_hwm {
                        self.stats.bucket_len_hwm = len;
                    }
                }
                return;
            }
        }
        if self.wheel.len() < WHEEL_SLOTS {
            // New timestamp: arm a recycled bucket at its sorted slot
            // (descending `time_bits`, so the soonest stays at the back).
            let mut events = self.spare.pop().unwrap_or_default();
            events.push(queued);
            self.wheel.insert(
                pos,
                Bucket {
                    time_bits: bits,
                    events,
                },
            );
            let occupancy = self.wheel.len() as u64;
            if occupancy > self.stats.wheel_occupancy_hwm {
                self.stats.wheel_occupancy_hwm = occupancy;
            }
        } else {
            self.stats.overflow_pushes += 1;
            self.overflow.push(queued.event, queued.seq);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(time: f64, source: usize) -> SimEvent {
        SimEvent {
            time,
            kind: EventKind::Dispatch,
            source: ComponentId(source),
            target: ComponentId(source),
        }
    }

    #[test]
    fn pops_in_time_then_seq_then_source_order() {
        let mut q = EventQueue::default();
        q.push(ev(2.0, 0), 0);
        q.push(ev(1.0, 1), 5);
        q.push(ev(1.0, 0), 3);
        q.push(ev(1.0, 2), 3);
        let order: Vec<(f64, u64, usize)> = std::iter::from_fn(|| q.pop())
            .map(|q| (q.event.time, q.seq, q.event.source.0))
            .collect();
        assert_eq!(
            order,
            vec![(1.0, 3, 0), (1.0, 3, 2), (1.0, 5, 1), (2.0, 0, 0)]
        );
    }

    #[test]
    fn pop_order_is_insertion_order_invariant() {
        let events: Vec<(SimEvent, u64)> = vec![
            (ev(0.0, 0), 0),
            (ev(0.0, 1), 0),
            (ev(0.5, 0), 1),
            (ev(0.5, 2), 0),
            (ev(1.0, 1), 1),
        ];
        let forward = {
            let mut q = EventQueue::default();
            for &(e, s) in &events {
                q.push(e, s);
            }
            std::iter::from_fn(|| q.pop())
                .map(|q| (q.event.time, q.seq, q.event.source.0))
                .collect::<Vec<_>>()
        };
        let reverse = {
            let mut q = EventQueue::default();
            for &(e, s) in events.iter().rev() {
                q.push(e, s);
            }
            std::iter::from_fn(|| q.pop())
                .map(|q| (q.event.time, q.seq, q.event.source.0))
                .collect::<Vec<_>>()
        };
        assert_eq!(forward, reverse);
    }

    #[test]
    fn kind_indices_are_a_bijection() {
        for (i, kind) in EventKind::ALL.iter().enumerate() {
            assert_eq!(kind.index(), i);
            assert!(!kind.label().is_empty());
        }
    }

    #[test]
    fn clear_keeps_buffer_empties_queue() {
        let mut q = EventQueue::default();
        q.push(ev(1.0, 0), 0);
        assert_eq!(q.len(), 1);
        q.clear();
        assert_eq!(q.len(), 0);
        assert!(q.pop().is_none());
        assert_eq!(q.stats(), QueueStats::default());
    }

    /// Feeds the same (event, seq) stream to the wheel and the heap
    /// oracle interleaved with pops, asserting bit-identical pop streams.
    fn assert_wheel_matches_heap(stream: &[(SimEvent, u64)], pop_every: usize) {
        let mut wheel = EventQueue::default();
        let mut heap = HeapQueue::default();
        let check = |w: Option<QueuedEvent>, h: Option<QueuedEvent>| {
            let key = |q: QueuedEvent| (q.event.time.to_bits(), q.seq, q.event.source.0);
            assert_eq!(w.map(key), h.map(key));
        };
        for (i, &(e, s)) in stream.iter().enumerate() {
            wheel.push(e, s);
            heap.push(e, s);
            if pop_every > 0 && i % pop_every == pop_every - 1 {
                check(wheel.pop(), heap.pop());
            }
        }
        assert_eq!(wheel.len(), heap.len());
        loop {
            let (w, h) = (wheel.pop(), heap.pop());
            let done = w.is_none();
            check(w, h);
            if done {
                break;
            }
        }
    }

    /// Deterministic xorshift-style stream of lattice + off-lattice
    /// times across a few sources, with unique per-source seqs.
    fn random_stream(seed: u64, n: usize, distinct_times: usize) -> Vec<(SimEvent, u64)> {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut seqs = [0u64; 4];
        (0..n)
            .map(|_| {
                let r = next();
                let slot = (r % distinct_times as u64) as f64;
                // Half lattice-aligned, half off-lattice jitter times.
                let time = if r & 1 == 0 {
                    slot * 0.5
                } else {
                    slot * 0.5 + (r >> 8 & 0xff) as f64 * 1e-4
                };
                let source = (r >> 3) as usize % 4;
                let seq = seqs[source];
                seqs[source] += 1;
                (ev(time, source), seq)
            })
            .collect()
    }

    #[test]
    fn wheel_matches_heap_on_random_streams() {
        for seed in [1u64, 2, 3, 5, 8, 13] {
            // Few distinct times: deep buckets, wheel never overflows.
            assert_wheel_matches_heap(&random_stream(seed, 200, 12), 3);
        }
    }

    #[test]
    fn wheel_matches_heap_past_overflow_capacity() {
        for seed in [7u64, 21, 42] {
            // Far more distinct pending timestamps than WHEEL_SLOTS, so a
            // large fraction of pushes land on the heap overflow rail and
            // pops must interleave the two rails correctly.
            let stream = random_stream(seed, 600, 8 * WHEEL_SLOTS);
            let mut wheel = EventQueue::default();
            for &(e, s) in &stream {
                wheel.push(e, s);
            }
            assert!(wheel.stats().overflow_pushes > 0);
            assert_wheel_matches_heap(&stream, 0);
            assert_wheel_matches_heap(&stream, 5);
        }
    }

    #[test]
    fn stats_track_occupancy_and_overflow() {
        let mut q = EventQueue::default();
        // Two more coincident events than the cache holds, plus one event
        // at a second timestamp.
        for s in 0..(CACHE_SLOTS + 2) {
            q.push(ev(1.0, 0), s as u64);
        }
        q.push(ev(2.0, 0), (CACHE_SLOTS + 2) as u64);
        let stats = q.stats();
        // The cache holds the first CACHE_SLOTS events at 1.0; the two
        // spills share a bucket, and the 2.0 event arms a second bucket.
        // The bucket-length high-water mark counts the cached peers, so
        // it reports all ten coincident events.
        assert_eq!(stats.wheel_occupancy_hwm, 2);
        assert_eq!(stats.bucket_len_hwm, CACHE_SLOTS as u64 + 2);
        assert_eq!(stats.overflow_pushes, 0);
        q.clear();
        for i in 0..(CACHE_SLOTS + WHEEL_SLOTS + 10) {
            q.push(ev(1.0 + i as f64, 0), i as u64);
        }
        // CACHE_SLOTS timestamps cached, WHEEL_SLOTS in the wheel, the
        // rest overflowed.
        assert_eq!(q.stats().overflow_pushes, 10);
        assert_eq!(q.stats().wheel_occupancy_hwm, WHEEL_SLOTS as u64);
    }
}
