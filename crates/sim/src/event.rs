//! Typed simulation events and the deterministic event queue.
//!
//! The kernel's vocabulary is a small closed set of [`EventKind`]s; every
//! scheduled occurrence is a [`SimEvent`] — plain `Copy` data, no boxed
//! payloads — so the steady-state path moves events by value and never
//! allocates per event.
//!
//! Determinism (DESIGN.md §15): [`EventQueue`] is one binary min-heap on
//! the total key `(time, seq, source)`, where `seq` is the *per-source*
//! emission counter. Event times are non-negative finite floats, so
//! comparing `f64::to_bits` is order-preserving and bit-exact — no
//! `partial_cmp` edge cases. Because `(source, seq)` pairs are unique,
//! the key is a total order: pop order depends only on what each
//! component emitted, never on insertion order — which is exactly the
//! registration-order invariance the kernel differential harness pins
//! with a property test. The queue serves the [`crate::Kernel`] alone;
//! the simulators queue no events (DESIGN.md §15).

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

/// The deterministic event queue: a binary min-heap over
/// [`QueuedEvent::key`], backed by one reusable `Vec` — cleared (not
/// freed) between runs, so the steady-state path never allocates once the
/// buffer has grown to the run's high-water mark of simultaneously
/// pending events.
#[derive(Debug, Clone, Default)]
pub(crate) struct EventQueue {
    heap: Vec<QueuedEvent>,
}

impl EventQueue {
    /// Drops all pending events, keeping the buffer.
    pub(crate) fn clear(&mut self) {
        self.heap.clear();
    }

    /// Number of pending events.
    pub(crate) fn len(&self) -> usize {
        self.heap.len()
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

/// Event-queue occupancy counters, kept for the benchmark's `sim.queue.*`
/// rows. No library queue fills them: the simulators queue no events
/// (DESIGN.md §15) and the kernel's heap keeps no occupancy accounting,
/// so [`crate::SimScratch::queue_stats`] and
/// [`crate::PlatformScratch::queue_stats`] return them all-zero.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// High-water mark of distinct pending timestamps
    /// (`sim.queue.wheel_occupancy_hwm`).
    pub wheel_occupancy_hwm: u64,
    /// High-water mark of events sharing one pending timestamp
    /// (`sim.queue.bucket_len_hwm`).
    pub bucket_len_hwm: u64,
    /// Events pushed onto an overflow structure
    /// (`sim.queue.overflow_pushes`).
    pub overflow_pushes: u64,
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

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
    }

    /// Pops the queue and the ordered-set model once and compares the
    /// popped keys and the remaining lengths.
    fn pop_both(
        queue: &mut EventQueue,
        model: &mut BTreeSet<(u64, u64, usize)>,
    ) -> Result<(), String> {
        let popped = queue
            .pop()
            .map(|q| (q.event.time.to_bits(), q.seq, q.event.source.0));
        let expected = model.pop_first();
        if popped != expected {
            return Err(format!("popped {popped:?}, model {expected:?}"));
        }
        if queue.len() != model.len() {
            return Err(format!("len {}, model {}", queue.len(), model.len()));
        }
        Ok(())
    }

    /// Property: pushes interleaved with pops return exactly what an
    /// ordered set of the total keys returns — each pop the least pending
    /// key, each `len` the set's size — for lattice and off-lattice times
    /// from 2–4 sources with unique per-source seqs.
    #[test]
    fn push_pop_matches_ordered_set_model() {
        crate::rng::check("push_pop_matches_ordered_set_model", 256, |rng| {
            let sources = 2 + rng.below(3);
            let mut seqs = [0u64; 4];
            let mut queue = EventQueue::default();
            let mut model = BTreeSet::new();
            // Rounds of 0–5 pushes, each closed by a pop; then a drain.
            for _ in 0..rng.below(40) {
                for _ in 0..rng.below(6) {
                    let source = rng.below(sources) as usize;
                    let lattice = rng.below(12) as f64 * 0.5;
                    // Half on the lattice (deep time ties), half just off it.
                    let time = if rng.below(2) == 0 {
                        lattice
                    } else {
                        lattice + (1 + rng.below(255)) as f64 * 1e-4
                    };
                    let seq = seqs[source];
                    seqs[source] += 1;
                    queue.push(ev(time, source), seq);
                    model.insert((time.to_bits(), seq, source));
                }
                pop_both(&mut queue, &mut model)?;
            }
            while !model.is_empty() {
                pop_both(&mut queue, &mut model)?;
            }
            pop_both(&mut queue, &mut model)
        });
    }
}
