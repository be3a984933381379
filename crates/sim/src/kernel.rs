//! The discrete-event simulation kernel: a shared deterministic clock,
//! the typed event queue, and per-component event accounting.
//!
//! A [`Kernel`] owns the clock and one [`SimEvent`] queue; the components
//! it drives implement [`EventHandler`] and are addressed by
//! caller-assigned [`ComponentId`] slots. [`Kernel::run`] pops events in
//! the total `(time, seq, source)` order and delivers each to its target
//! with a [`ComponentCtx`] through which the component reads the clock,
//! emits future events, and reaches the run-scoped [`SharedState`]
//! (currently the optional power-budget ledger).
//!
//! No simulator runs on the kernel. [`crate::Simulator`] and
//! [`crate::PlatformSim`] step their core engines in a plain drive loop
//! that reproduces the kernel's delivery order and per-component counters
//! without queueing an event (DESIGN.md §15). The kernel stays as the
//! reference model that loop's order is property-tested against, and as
//! the API the benchmark's kernel-cost probe drives.
//!
//! Allocation discipline: [`Kernel::reset`] reuses the queue buffer and
//! counter tables across runs — the steady-state event path allocates
//! nothing and boxes nothing (components are pre-registered in an
//! index-addressed slice; events are `Copy`).

use crate::budget::BudgetLedger;
use crate::event::{ComponentId, EventKind, EventQueue, SimEvent, EVENT_KINDS};
use crate::simulator::TIME_EPS;
use crate::SimError;

/// A simulation component driven by the [`Kernel`].
///
/// The handler's slot in the kernel's handler table is its
/// [`ComponentId`]; events targeted at that id are delivered here, in
/// deterministic `(time, seq, source)` order.
pub trait EventHandler {
    /// Handles one delivered event. Future events are emitted through
    /// `ctx`; an `Err` aborts the kernel run.
    ///
    /// # Errors
    ///
    /// Component-specific; the kernel stops at the first one.
    fn handle(&mut self, event: SimEvent, ctx: &mut ComponentCtx<'_>) -> Result<(), SimError>;
}

/// The per-delivery view of the kernel a component acts through: read
/// the clock, emit future events (stamped with the component's own
/// sequence counter), and reach the run-scoped [`SharedState`].
pub struct ComponentCtx<'k> {
    pub(crate) queue: &'k mut EventQueue,
    pub(crate) seqs: &'k mut [u64],
    pub(crate) emitted: &'k mut [[u64; EVENT_KINDS]],
    pub(crate) now: f64,
    pub(crate) delivered: u64,
    pub(crate) shared: &'k mut SharedState,
    pub(crate) self_id: ComponentId,
}

impl ComponentCtx<'_> {
    /// The kernel clock (the delivered event's time).
    pub fn now(&self) -> f64 {
        self.now
    }

    /// The handling component's id.
    pub fn self_id(&self) -> ComponentId {
        self.self_id
    }

    /// The global delivery ordinal of the event being handled (1-based).
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// The run-scoped shared state (budget ledger, when present).
    pub fn shared(&mut self) -> &mut SharedState {
        self.shared
    }

    /// Emits an event at `time ≥ now` from this component to `target`.
    pub fn emit(&mut self, time: f64, kind: EventKind, target: ComponentId) {
        debug_assert!(
            time + TIME_EPS >= self.now,
            "component {} emitted into the past: {} < {}",
            self.self_id.0,
            time,
            self.now
        );
        let s = self.self_id.0;
        let seq = self.seqs[s];
        self.seqs[s] += 1;
        self.emitted[s][kind.index()] += 1;
        self.queue.push(
            SimEvent {
                // Clamp within tolerance: queue times must be monotone.
                time: time.max(self.now),
                kind,
                source: self.self_id,
                target,
            },
            seq,
        );
    }
}

/// Per-component event counters, by [`EventKind`] slot
/// (see [`EventKind::index`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KernelStats {
    /// Events this component emitted, by kind.
    pub emitted: [u64; EVENT_KINDS],
    /// Events delivered to this component, by kind.
    pub handled: [u64; EVENT_KINDS],
}

impl KernelStats {
    /// Total events emitted across all kinds.
    pub fn emitted_total(&self) -> u64 {
        self.emitted.iter().sum()
    }

    /// Total events handled across all kinds.
    pub fn handled_total(&self) -> u64 {
        self.handled.iter().sum()
    }

    /// Events of one kind this component emitted.
    pub fn emitted_of(&self, kind: EventKind) -> u64 {
        self.emitted[kind.index()]
    }

    /// Events of one kind delivered to this component.
    pub fn handled_of(&self, kind: EventKind) -> u64 {
        self.handled[kind.index()]
    }
}

/// Run-scoped state the kernel lends to every component through
/// [`ComponentCtx::shared`]. Owned by the kernel (not `Rc<RefCell<_>>`):
/// exactly one component borrows it at a time — the one currently
/// handling an event — so there is nothing to lock and nothing that can
/// panic.
#[derive(Debug, Clone, Default)]
pub struct SharedState {
    /// The shared power-budget ledger, when this run is budget-capped
    /// (see [`crate::PlatformSim::run_budgeted`]).
    pub budget: Option<BudgetLedger>,
}

/// The discrete-event kernel: clock, deterministic queue, per-component
/// sequence counters and event accounting.
#[derive(Debug, Clone, Default)]
pub struct Kernel {
    queue: EventQueue,
    seqs: Vec<u64>,
    emitted: Vec<[u64; EVENT_KINDS]>,
    handled: Vec<[u64; EVENT_KINDS]>,
    now: f64,
    delivered: u64,
    shared: SharedState,
}

impl Kernel {
    /// Creates an empty kernel; buffers grow on first use.
    pub fn new() -> Kernel {
        Kernel::default()
    }

    /// Resets for a run with `components` slots and optional shared
    /// budget state. Reuses every buffer — no allocation once the tables
    /// have grown to the platform's component count.
    pub fn reset(&mut self, components: usize, budget: Option<BudgetLedger>) {
        self.queue.clear();
        self.seqs.clear();
        self.seqs.resize(components, 0);
        self.emitted.clear();
        self.emitted.resize(components, [0; EVENT_KINDS]);
        self.handled.clear();
        self.handled.resize(components, [0; EVENT_KINDS]);
        self.now = 0.0;
        self.delivered = 0;
        self.shared = SharedState { budget };
    }

    /// Number of registered component slots.
    pub fn components(&self) -> usize {
        self.seqs.len()
    }

    /// The kernel clock: the time of the event being (or last) delivered.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Total events delivered so far this run.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Events still pending in the queue.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// The event queue's timing-wheel occupancy counters for the current
    /// run (reset by [`Kernel::reset`]).
    pub fn queue_stats(&self) -> crate::event::QueueStats {
        self.queue.stats()
    }

    /// Seeds an event before (or outside) [`Kernel::run`], stamped with
    /// the source component's next sequence number and counted as an
    /// emission of that component.
    ///
    /// Out-of-range source or target ids are rejected in debug builds and
    /// dropped in release builds.
    pub fn schedule(&mut self, event: SimEvent) {
        let s = event.source.0;
        if s >= self.seqs.len() || event.target.0 >= self.seqs.len() {
            debug_assert!(false, "schedule outside component table: {event:?}");
            return;
        }
        let seq = self.seqs[s];
        self.seqs[s] += 1;
        self.emitted[s][event.kind.index()] += 1;
        self.queue.push(event, seq);
    }

    /// The event counters of one component slot (zeroed stats for ids
    /// outside the table).
    pub fn stats_for(&self, id: ComponentId) -> KernelStats {
        match (self.emitted.get(id.0), self.handled.get(id.0)) {
            (Some(&emitted), Some(&handled)) => KernelStats { emitted, handled },
            _ => KernelStats::default(),
        }
    }

    /// Read access to the shared run state.
    pub fn shared(&self) -> &SharedState {
        &self.shared
    }

    /// Takes the budget ledger out of the shared state (after a run, to
    /// build the [`crate::BudgetReport`]).
    pub fn take_budget(&mut self) -> Option<BudgetLedger> {
        self.shared.budget.take()
    }

    /// Drains the queue, delivering every event to `handlers[target]` in
    /// the deterministic `(time, seq, source)` order. `handlers` is the
    /// pre-registered component table: slot `i` handles events targeted
    /// at [`ComponentId`]`(i)`.
    ///
    /// The kernel clock is *ordering-only*: component arithmetic uses the
    /// components' own state (a core engine advances its own clock), so
    /// delivery timing can never perturb float results (DESIGN.md §15).
    ///
    /// # Errors
    ///
    /// Propagates the first error a handler returns; the remaining queue
    /// is abandoned (the next [`Kernel::reset`] clears it).
    pub fn run(&mut self, handlers: &mut [&mut dyn EventHandler]) -> Result<(), SimError> {
        debug_assert_eq!(
            handlers.len(),
            self.seqs.len(),
            "handler table must match the registered component count"
        );
        while let Some(queued) = self.queue.pop() {
            let event = queued.event;
            debug_assert!(
                event.time >= self.now,
                "kernel clock moved backwards: {} -> {}",
                self.now,
                event.time
            );
            self.now = event.time;
            self.delivered += 1;
            let t = event.target.0;
            if t >= handlers.len() {
                debug_assert!(false, "event targets unregistered component: {event:?}");
                continue;
            }
            self.handled[t][event.kind.index()] += 1;
            let mut ctx = ComponentCtx {
                queue: &mut self.queue,
                seqs: &mut self.seqs,
                emitted: &mut self.emitted,
                now: event.time,
                delivered: self.delivered,
                shared: &mut self.shared,
                self_id: event.target,
            };
            handlers[t].handle(event, &mut ctx)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Records every delivery and optionally echoes one derived event.
    struct Recorder {
        log: Vec<(u64, f64, EventKind, usize)>,
        echo_to: Option<ComponentId>,
    }

    impl EventHandler for Recorder {
        fn handle(&mut self, event: SimEvent, ctx: &mut ComponentCtx<'_>) -> Result<(), SimError> {
            self.log
                .push((ctx.delivered(), ctx.now(), event.kind, event.source.0));
            if let Some(target) = self.echo_to {
                if event.kind == EventKind::Release {
                    ctx.emit(ctx.now() + 1.0, EventKind::Completion, target);
                }
            }
            Ok(())
        }
    }

    fn release_at(time: f64, id: usize) -> SimEvent {
        SimEvent {
            time,
            kind: EventKind::Release,
            source: ComponentId(id),
            target: ComponentId(id),
        }
    }

    #[test]
    fn delivers_in_time_order_and_counts_per_component() {
        let mut kernel = Kernel::new();
        kernel.reset(2, None);
        kernel.schedule(release_at(1.0, 1));
        kernel.schedule(release_at(0.5, 0));
        let mut a = Recorder {
            log: Vec::new(),
            echo_to: Some(ComponentId(1)),
        };
        let mut b = Recorder {
            log: Vec::new(),
            echo_to: None,
        };
        {
            let mut handlers: [&mut dyn EventHandler; 2] = [&mut a, &mut b];
            kernel.run(&mut handlers).unwrap();
        }
        // a's release at 0.5 first, then b's at 1.0, then the echoed
        // completion at 1.5.
        assert_eq!(a.log, vec![(1, 0.5, EventKind::Release, 0)]);
        assert_eq!(
            b.log,
            vec![
                (2, 1.0, EventKind::Release, 1),
                (3, 1.5, EventKind::Completion, 0)
            ]
        );
        assert_eq!(kernel.delivered(), 3);
        assert_eq!(kernel.stats_for(ComponentId(0)).emitted_total(), 2);
        assert_eq!(
            kernel
                .stats_for(ComponentId(0))
                .emitted_of(EventKind::Completion),
            1
        );
        assert_eq!(kernel.stats_for(ComponentId(1)).handled_total(), 2);
        assert_eq!(kernel.stats_for(ComponentId(9)), KernelStats::default());
        assert!((kernel.now() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn reset_clears_counters_and_queue() {
        let mut kernel = Kernel::new();
        kernel.reset(1, None);
        kernel.schedule(release_at(0.0, 0));
        kernel.reset(1, None);
        assert_eq!(kernel.pending(), 0);
        assert_eq!(kernel.delivered(), 0);
        assert_eq!(kernel.stats_for(ComponentId(0)), KernelStats::default());
        assert!(kernel.shared().budget.is_none());
    }

    #[test]
    fn handler_errors_stop_the_run() {
        struct Failing;
        impl EventHandler for Failing {
            fn handle(&mut self, _: SimEvent, _: &mut ComponentCtx<'_>) -> Result<(), SimError> {
                Err(SimError::EventLimitExceeded { limit: 1 })
            }
        }
        let mut kernel = Kernel::new();
        kernel.reset(1, None);
        kernel.schedule(release_at(0.0, 0));
        kernel.schedule(release_at(1.0, 0));
        let mut failing = Failing;
        let mut handlers: [&mut dyn EventHandler; 1] = [&mut failing];
        let err = kernel.run(&mut handlers).unwrap_err();
        assert!(matches!(err, SimError::EventLimitExceeded { limit: 1 }));
        // The second event was abandoned with the run.
        assert_eq!(kernel.delivered(), 1);
    }
}
