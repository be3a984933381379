//! The per-core EDF-DVS engine and the loop that steps it.
//!
//! [`CoreEngine`] is the legacy monolithic simulator loop, relocated
//! *instruction-for-instruction* into a value: each step
//! ([`Stepper::step`]) executes exactly one iteration of the legacy loop
//! body on the engine's own clock, so the same float operations run in
//! the same order as the pre-kernel loop and the results are
//! bit-identical by construction (pinned by the golden corpus).
//!
//! [`drive`] is the one way the simulators step their engines: one engine
//! for [`crate::Simulator`], one per non-idle core for
//! [`crate::PlatformSim`]. It repeatedly steps the engine whose pending
//! *wake* has the least `(time bits, seq, core)` key — exactly the order
//! in which the typed-event [`crate::Kernel`] delivered engine wakes when
//! the engines ran inside it — and lends the shared budget ledger, if
//! any, to each step.
//!
//! Each engine counts its own events as the kernel counted them, into
//! [`crate::SimOutcome::kernel`]. A *wake* (`Release`/`Dispatch`) is the
//! event an engine schedules for its own next step. A *note*
//! (completion, fault, skip, frame boundary, budget throttle) is an
//! emission that is counted and sequence-numbered but never queued or
//! delivered. Notes must keep consuming sequence numbers: on a bit-tied
//! wake time across cores the tie breaks on `seq`, and on a budgeted
//! platform that order decides which core the ledger throttles
//! (DESIGN.md §15).

use stadvs_power::{EnergyAccumulator, Processor, Speed};

use crate::budget::BudgetLedger;
use crate::event::{EventKind, EVENT_KINDS};
use crate::exec::ExecutionSource;
use crate::fault::{FaultEvent, FaultKind, FaultPlan, FaultReport, OverrunPolicy};
use crate::governor::{Governor, SchedulerView};
use crate::job::{ActiveJob, JobId, JobRecord};
use crate::kernel::KernelStats;
use crate::model::{mk_skip_allowed, ModelReport, SkipPolicy};
use crate::outcome::SimOutcome;
use crate::queue::{ReadySet, ReleaseQueue};
use crate::simulator::{MissPolicy, SimConfig, TIME_EPS, WORK_EPS};
use crate::task::{TaskId, TaskKind, TaskSet};
use crate::trace::{Segment, SegmentKind, Trace};
use crate::SimError;

/// What one engine step decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Step {
    /// The loop body ran to a continuation point; the next wake is due.
    Continue,
    /// The horizon was reached; no further wakes.
    Done,
}

/// The ordering key of an engine's pending wake: its time's bits and its
/// sequence number. Times are non-negative finite, so the bits order
/// exactly like the values. [`drive`] breaks a tie on the engine's
/// position, which follows core order.
pub(crate) type WakeKey = (u64, u64);

/// The key of an engine with no pending wake: all-ones bits are a NaN,
/// never a wake time, so every pending wake orders before it.
const NO_WAKE: WakeKey = (u64::MAX, u64::MAX);

/// What [`drive`] steps: a [`CoreEngine`], or a stand-in in its tests.
pub(crate) trait Stepper {
    /// The key of the pending wake.
    fn wake_key(&self) -> WakeKey;

    /// Runs the step the pending wake stands for.
    fn step(&mut self, ledger: Option<&mut BudgetLedger>) -> Result<Step, SimError>;
}

/// Steps `engines` until every one is done, always the one whose pending
/// wake has the least `(time bits, seq, position)` key, lending `ledger`
/// to each step. `wakes` is the caller's reusable key buffer.
///
/// # Errors
///
/// Returns the first error a step returns, in step order; the remaining
/// engines are left where they stopped.
pub(crate) fn drive<S: Stepper>(
    engines: &mut [S],
    wakes: &mut Vec<WakeKey>,
    mut ledger: Option<&mut BudgetLedger>,
) -> Result<(), SimError> {
    wakes.clear();
    wakes.extend(engines.iter().map(Stepper::wake_key));
    let mut last = 0;
    loop {
        let mut next = None;
        let mut least = NO_WAKE;
        for (position, &key) in wakes.iter().enumerate() {
            if key < least {
                least = key;
                next = Some(position);
            }
        }
        let Some(position) = next else {
            return Ok(());
        };
        debug_assert!(least.0 >= last, "wake order moved backwards");
        last = least.0;
        let engine = &mut engines[position];
        wakes[position] = match engine.step(ledger.as_deref_mut())? {
            Step::Continue => engine.wake_key(),
            Step::Done => NO_WAKE,
        };
    }
}

/// An engine's event accounting, counted exactly as the kernel counted a
/// component's events (DESIGN.md §15).
#[derive(Debug, Clone, Copy)]
struct Tally {
    /// The next emission's sequence number.
    seq: u64,
    emitted: [u64; EVENT_KINDS],
    handled: [u64; EVENT_KINDS],
    /// The pending wake's kind and sequence number.
    wake: EventKind,
    wake_seq: u64,
}

impl Tally {
    /// A tally whose pending wake is the seeded release at t = 0,
    /// emission 0.
    fn seeded() -> Tally {
        let mut tally = Tally {
            seq: 0,
            emitted: [0; EVENT_KINDS],
            handled: [0; EVENT_KINDS],
            wake: EventKind::Release,
            wake_seq: 0,
        };
        tally.schedule(EventKind::Release);
        tally
    }

    /// Counts a note: an emission that takes a sequence number but is
    /// never delivered.
    fn note(&mut self, kind: EventKind) {
        self.seq += 1;
        self.emitted[kind.index()] += 1;
    }

    /// Emits the next wake: counted like a note, and pending until the
    /// engine's next step handles it.
    fn schedule(&mut self, kind: EventKind) {
        self.wake = kind;
        self.wake_seq = self.seq;
        self.note(kind);
    }

    /// Counts the pending wake as handled.
    fn handle(&mut self) {
        self.handled[self.wake.index()] += 1;
    }

    fn stats(&self) -> KernelStats {
        KernelStats {
            emitted: self.emitted,
            handled: self.handled,
        }
    }
}

/// Structure-of-arrays copy of the per-task hot parameters, filled once
/// per run from the [`TaskSet`] so the release scan reads contiguous
/// `f64` lanes instead of pointer-hopping `Task` structs (which also
/// carry a name `String` and model payloads the hot path never needs).
/// The values are verbatim copies — every formula computed from them
/// (e.g. `phase + index * period`) is the exact expression the `Task`
/// methods evaluate, so the arithmetic is bit-identical.
#[derive(Debug, Clone, Default)]
pub(crate) struct TaskHot {
    pub(crate) wcet: Vec<f64>,
    /// Relative deadline.
    pub(crate) deadline: Vec<f64>,
    pub(crate) period: Vec<f64>,
    pub(crate) phase: Vec<f64>,
    pub(crate) kind: Vec<TaskKind>,
}

impl TaskHot {
    /// Refills the arrays from `tasks` (allocation-free once warm).
    fn fill(&mut self, tasks: &TaskSet) {
        self.wcet.clear();
        self.deadline.clear();
        self.period.clear();
        self.phase.clear();
        self.kind.clear();
        for (_, t) in tasks.iter() {
            self.wcet.push(t.wcet());
            self.deadline.push(t.deadline());
            self.period.push(t.period());
            self.phase.push(t.phase());
            self.kind.push(t.kind());
        }
    }

    /// Nominal release instant of job `index` of `task` — the same
    /// expression as [`crate::task::Task::release_of`].
    fn release_of(&self, task: usize, index: u64) -> f64 {
        self.phase[task] + index as f64 * self.period[task]
    }
}

/// The per-task scheduling buffers of one core, reused across runs (the
/// guts of the legacy `SimScratch`, shared by the uniprocessor and the
/// platform paths).
#[derive(Debug, Clone, Default)]
pub(crate) struct CoreScratch {
    pub(crate) ready: ReadySet,
    pub(crate) releases: ReleaseQueue,
    pub(crate) hot: TaskHot,
    /// Per-task release counters (the index of each task's next job);
    /// [`CoreEngine::finish`] turns them into record offsets.
    pub(crate) next_index: Vec<u64>,
    pub(crate) due: Vec<usize>,
    /// Per-task flag set by [`OverrunPolicy::SkipNext`]: the task's next
    /// release is suppressed. Fully reset at the start of each run — a
    /// stale flag would silently shed a job of the *next* workload.
    pub(crate) skip_next: Vec<bool>,
    /// Per-task (m,k) outcome rings for weakly-hard tasks: bit `index % 64`
    /// is set iff that job completed on time. Since `k ≤ 64`, the trailing
    /// `k − 1` outcomes a skip decision inspects are always collision-free.
    /// Fully reset per run.
    pub(crate) mk_met: Vec<u64>,
    /// Per-task frame-recovery flag: set while a frame task is past a
    /// missed frame and not yet back on time (its dispatches are boosted).
    pub(crate) frame_boost: Vec<bool>,
    /// Per-task current run of consecutive late frames.
    pub(crate) frame_streak: Vec<u64>,
}

/// The per-core EDF-DVS engine: the legacy simulator loop as a value.
/// Construction runs the legacy pre-loop setup (scratch resets,
/// `Governor::on_start`) and seeds the first wake; each step
/// ([`Stepper::step`]) is one legacy loop iteration;
/// [`CoreEngine::finish`] is the legacy post-loop (horizon drain,
/// sorting, outcome assembly).
pub(crate) struct CoreEngine<'s, G, E: ?Sized> {
    // Static run inputs.
    tasks: &'s TaskSet,
    processor: &'s Processor,
    exec: &'s E,
    plan: &'s FaultPlan,
    governor: G,
    scratch: &'s mut CoreScratch,
    horizon: f64,
    miss_policy: MissPolicy,
    max_events: u64,
    skip_policy: SkipPolicy,
    /// The core's slot in the budget ledger.
    core_index: usize,
    faults_on: bool,
    jittered: bool,
    // Run state (the legacy loop's locals).
    now: f64,
    events: u64,
    records: Vec<JobRecord>,
    acc: EnergyAccumulator,
    trace: Option<Trace>,
    current_speed: Speed,
    last_running: Option<JobId>,
    /// Set after a speed transition: the job the speed was committed
    /// for. If it is still the EDF choice afterwards, the commitment
    /// holds and the governor is not re-consulted — re-consulting would
    /// let the latency-shrunk slack demand a marginally different speed
    /// and chain transitions forever (real platforms commit too).
    committed_for: Option<JobId>,
    switch_ordinal: u64,
    /// Bumped whenever any task's next-release instant advances, so
    /// governors can key release-derived caches on the epoch (see
    /// [`SchedulerView::release_epoch`]).
    release_epoch: u64,
    /// Histogram of same-instant release batch sizes (see
    /// [`crate::SimOutcome::release_batches`] for the bucket geometry).
    release_batches: [u64; 8],
    model_report: ModelReport,
    skipped_ids: Vec<JobId>,
    report: FaultReport,
    contaminated_ids: Vec<JobId>,
    contamination_active: bool,
    recovery_start: Option<f64>,
    // Runtime invariant audit (debug builds only): the clock must never
    // move backwards, and idle + transition + execution time must tile
    // `[0, now]` — a gap or overlap means the trace and the energy
    // accounting have diverged from wall-clock time.
    audit_prev_now: f64,
    audit_accounted: f64,
    tally: Tally,
}

impl<'s, G, E> CoreEngine<'s, G, E>
where
    G: Governor,
    E: ExecutionSource + ?Sized,
{
    /// Creates the engine, runs the legacy pre-loop setup and seeds the
    /// first wake: a release at t = 0.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        tasks: &'s TaskSet,
        processor: &'s Processor,
        config: &SimConfig,
        mut governor: G,
        exec: &'s E,
        plan: &'s FaultPlan,
        scratch: &'s mut CoreScratch,
        core_index: usize,
    ) -> CoreEngine<'s, G, E> {
        let horizon = config.horizon();
        let n = tasks.len();

        // Fault-injection state. `faults_on` is checked once per gate so the
        // no-fault path stays branch-predictable; `jittered` additionally
        // gates the sporadic release recurrence, which is float-identical to
        // the periodic one only in the absence of delays.
        let faults_on = !plan.is_none();
        let jittered = faults_on && plan.has_jitter();

        scratch.ready.reset(n);
        scratch.hot.fill(tasks);
        let hot = &scratch.hot;
        if jittered {
            scratch.releases.reset(
                hot.phase
                    .iter()
                    .zip(&hot.period)
                    .enumerate()
                    .map(|(i, (&phase, &period))| phase + plan.release_delay(TaskId(i), 0, period)),
            );
        } else {
            scratch.releases.reset(hot.phase.iter().copied());
        }
        scratch.next_index.clear();
        scratch.next_index.resize(n, 0);
        scratch.due.clear();
        scratch.skip_next.clear();
        scratch.skip_next.resize(n, false);
        scratch.mk_met.clear();
        scratch.mk_met.resize(n, 0);
        scratch.frame_boost.clear();
        scratch.frame_boost.resize(n, false);
        scratch.frame_streak.clear();
        scratch.frame_streak.resize(n, 0);
        // Pre-size for the jobs this horizon generates (capped: the records
        // move into the outcome, so a hostile horizon must not pre-book
        // unbounded memory).
        let expected_jobs: usize = tasks
            .iter()
            .map(|(_, t)| {
                if t.phase() >= horizon {
                    0
                } else {
                    ((horizon - t.phase()) / t.period()).ceil() as usize + 1
                }
            })
            .sum();
        let records: Vec<JobRecord> = Vec::with_capacity(expected_jobs.min(1 << 20));
        let acc = processor.energy_accumulator();
        let trace = config.records_trace().then(Trace::new);

        governor.on_start(tasks, processor);

        CoreEngine {
            tasks,
            processor,
            exec,
            plan,
            governor,
            scratch,
            horizon,
            miss_policy: config.miss_policy(),
            max_events: config.max_events(),
            skip_policy: config.skip_policy(),
            core_index,
            faults_on,
            jittered,
            now: 0.0,
            events: 0,
            records,
            acc,
            trace,
            current_speed: Speed::FULL,
            last_running: None,
            committed_for: None,
            switch_ordinal: 0,
            release_epoch: 0,
            release_batches: [0; 8],
            model_report: ModelReport::default(),
            skipped_ids: Vec::new(),
            report: FaultReport::default(),
            contaminated_ids: Vec::new(),
            contamination_active: false,
            recovery_start: None,
            audit_prev_now: 0.0,
            audit_accounted: 0.0,
            tally: Tally::seeded(),
        }
    }

    /// One iteration of the legacy simulator loop. `ledger` is the shared
    /// budget ledger of a budgeted platform run.
    ///
    /// # Errors
    ///
    /// * [`SimError::DeadlineMiss`] under [`MissPolicy::Fail`];
    /// * [`SimError::EventLimitExceeded`] if the runaway guard trips.
    fn iterate(&mut self, ledger: Option<&mut BudgetLedger>) -> Result<Step, SimError> {
        self.events += 1;
        if self.events > self.max_events {
            return Err(SimError::EventLimitExceeded {
                limit: self.max_events,
            });
        }
        debug_assert!(
            self.now >= self.audit_prev_now,
            "clock moved backwards: {} -> {}",
            self.audit_prev_now,
            self.now
        );
        debug_assert!(
            (self.audit_accounted - self.now).abs() <= TIME_EPS * self.events as f64,
            "timeline not tiled: accounted {}, clock {}",
            self.audit_accounted,
            self.now
        );
        self.audit_prev_now = self.now;
        let horizon = self.horizon;
        let now = self.now;

        // 1. Release every job due at (or within tolerance of) `now`, in
        //    ascending task order, draining the whole same-instant batch
        //    in one pass (the due scan collects the batch; each task may
        //    owe several jobs if its period is tiny). Per-task parameters
        //    come from the SoA copy in scratch; the `Task` struct is only
        //    touched on the lazy paths (demand sampling, sporadic gaps).
        let mut batch_size: u64 = 0;
        self.scratch
            .releases
            .pop_due(now, horizon, &mut self.scratch.due);
        let mut d = 0;
        while d < self.scratch.due.len() {
            let i = self.scratch.due[d];
            while self.scratch.releases.time(i) <= now + TIME_EPS
                && self.scratch.releases.time(i) < horizon
            {
                batch_size += 1;
                let kind = self.scratch.hot.kind[i];
                let id = JobId {
                    task: TaskId(i),
                    index: self.scratch.next_index[i],
                };
                let release = self.scratch.releases.time(i);
                let fault_shed = self.faults_on && self.scratch.skip_next[i];
                match kind {
                    TaskKind::Hard => {}
                    TaskKind::WeaklyHard { .. } => {
                        self.model_report.weakly_hard_jobs += 1;
                        // The ring slot wraps to this job: its outcome
                        // starts as "lost" and is only set on an on-time
                        // completion. Position `index % 64` is outside
                        // every trailing window a skip decision inspects
                        // (k ≤ 64), so clearing before deciding is safe.
                        self.scratch.mk_met[i] &= !(1u64 << (id.index % 64));
                    }
                    TaskKind::Sporadic { .. } => self.model_report.sporadic_jobs += 1,
                    TaskKind::Frame { .. } => {
                        self.model_report.frame_jobs += 1;
                        self.tally.note(EventKind::FrameBoundary);
                    }
                }
                // A fault-shed (OverrunPolicy::SkipNext) takes priority
                // over a model skip; the latter only applies to
                // weakly-hard jobs whose (m,k) contract stays
                // satisfiable AND which the run's SkipPolicy elects.
                let mut shed_record: Option<JobRecord> = None;
                if fault_shed {
                    // OverrunPolicy::SkipNext sheds this release: the
                    // job is recorded as never run and fault-attributed.
                    self.scratch.skip_next[i] = false;
                    self.report.skipped_releases += 1;
                    self.report.events.push(FaultEvent {
                        job: id,
                        at: release,
                        kind: FaultKind::SkippedRelease,
                    });
                    self.tally.note(EventKind::Fault);
                    self.contaminated_ids.push(id);
                    self.records.push(JobRecord {
                        id,
                        release,
                        deadline: release + self.scratch.hot.deadline[i],
                        wcet: self.scratch.hot.wcet[i],
                        actual: 0.0,
                        completion: None,
                        wall_time: 0.0,
                        preemptions: 0,
                    });
                } else {
                    let model_skip = if let TaskKind::WeaklyHard { m, k } = kind {
                        mk_skip_allowed(self.scratch.mk_met[i], id.index, m, k)
                            && self.skip_policy.wants_skip(id)
                    } else {
                        false
                    };
                    if model_skip {
                        // Energy-aware skip: shed the job at release as
                        // an instant zero-work completion. The governor
                        // sees the completion (not the release), so
                        // reclaiming governors bank the entire WCET as
                        // slack. The met bit stays cleared: a skipped
                        // job is a loss in the (m,k) window.
                        self.model_report.skips += 1;
                        self.skipped_ids.push(id);
                        self.tally.note(EventKind::Skip);
                        shed_record = Some(JobRecord {
                            id,
                            release,
                            deadline: release + self.scratch.hot.deadline[i],
                            wcet: self.scratch.hot.wcet[i],
                            actual: 0.0,
                            completion: Some(release),
                            wall_time: 0.0,
                            preemptions: 0,
                        });
                    } else {
                        let task = self.tasks.task(TaskId(i));
                        let actual = self.exec.actual_work(id.task, task, id.index);
                        let mut job = ActiveJob::new(
                            id,
                            release,
                            release + self.scratch.hot.deadline[i],
                            self.scratch.hot.wcet[i],
                            actual,
                        );
                        job.kind = kind;
                        if self.faults_on {
                            // Multiplying by exactly 1.0 (the
                            // not-selected case) is a bit-exact no-op,
                            // so no branch.
                            job.actual *= self.plan.overrun_factor(id.task, id.index);
                            let nominal = self.scratch.hot.release_of(i, id.index);
                            if self.jittered && release > nominal + TIME_EPS {
                                self.report.jittered_releases += 1;
                                self.report.events.push(FaultEvent {
                                    job: id,
                                    at: release,
                                    kind: FaultKind::JitteredRelease {
                                        delay: release - nominal,
                                    },
                                });
                                self.tally.note(EventKind::Fault);
                            }
                            if self.contamination_active {
                                job.contaminated = true;
                            }
                        }
                        self.scratch.ready.push(job);
                    }
                }
                self.scratch.next_index[i] += 1;
                if matches!(kind, TaskKind::Sporadic { .. }) {
                    // Sporadic recurrence: the next arrival trails this
                    // one by the seeded gap (≥ the period, so arrivals
                    // never precede the periodic lattice — the same
                    // safety class as delay-only jitter). Under a jitter
                    // channel the injected delay adds on top.
                    let gap = self
                        .tasks
                        .task(TaskId(i))
                        .arrival_gap(self.scratch.next_index[i]);
                    let next = if self.jittered {
                        release
                            + gap
                            + self.plan.release_delay(
                                id.task,
                                self.scratch.next_index[i],
                                self.scratch.hot.period[i],
                            )
                    } else {
                        release + gap
                    };
                    self.scratch.releases.set_time(i, next);
                } else if self.jittered {
                    // Jittered periodic recurrence: delay the nominal
                    // release but never compress inter-arrival times
                    // below the period — compression could overload even
                    // a full-speed EDF schedule, which would make the
                    // injected jitter indistinguishable from an
                    // algorithm bug.
                    let nominal = self.scratch.hot.release_of(i, self.scratch.next_index[i]);
                    let delay = self.plan.release_delay(
                        id.task,
                        self.scratch.next_index[i],
                        self.scratch.hot.period[i],
                    );
                    self.scratch.releases.set_time(
                        i,
                        (nominal + delay).max(release + self.scratch.hot.period[i]),
                    );
                } else {
                    self.scratch.releases.set_time(
                        i,
                        self.scratch.hot.release_of(i, self.scratch.next_index[i]),
                    );
                }
                self.release_epoch += 1;
                if !fault_shed {
                    // The release tree already holds this task's advanced
                    // instant (set_time above) and the not-yet-processed
                    // due tasks' current ones, so its root is exact
                    // mid-batch — no staging to fold back in.
                    let next_arrival = self.scratch.releases.next_arrival();
                    let view = SchedulerView::new(
                        now,
                        self.tasks,
                        self.processor,
                        self.scratch.ready.jobs(),
                        self.scratch.releases.times(),
                        next_arrival,
                        self.current_speed,
                        self.release_epoch,
                    );
                    if let Some(record) = shed_record {
                        // The skipped job never enters the ready set:
                        // the governor observes an instant zero-work
                        // completion at the release instant.
                        self.governor.on_completion(&view, &record);
                        self.records.push(record);
                    } else if let Some(released) = self.scratch.ready.last() {
                        self.governor.on_release(&view, released);
                    }
                }
            }
            d += 1;
        }
        if batch_size > 0 {
            // Exponential buckets: 1, 2, 3, 4, 5–8, 9–16, 17–32, 33+.
            let bucket = match batch_size {
                1..=4 => batch_size as usize - 1,
                5..=8 => 4,
                9..=16 => 5,
                17..=32 => 6,
                _ => 7,
            };
            self.release_batches[bucket] += 1;
        }

        if now >= horizon - TIME_EPS {
            return Ok(Step::Done);
        }

        let next_arrival = self.scratch.releases.next_arrival();

        // 2. Idle until the next arrival (or the horizon) if nothing is
        //    ready. An empty ready set also ends any overrun recovery
        //    episode: backlog contamination cannot cross an idle
        //    instant.
        if self.scratch.ready.is_empty() {
            if self.faults_on && self.contamination_active {
                self.contamination_active = false;
                if let Some(start) = self.recovery_start.take() {
                    let recovery = now - start;
                    self.report.recovery_episodes += 1;
                    self.report.recovery_time += recovery;
                    if recovery > self.report.max_recovery_latency {
                        self.report.max_recovery_latency = recovery;
                    }
                }
            }
            {
                let view = SchedulerView::new(
                    now,
                    self.tasks,
                    self.processor,
                    self.scratch.ready.jobs(),
                    self.scratch.releases.times(),
                    next_arrival,
                    self.current_speed,
                    self.release_epoch,
                );
                self.governor.on_idle(&view);
            }
            // An idle core draws no active power from the shared rail.
            if let Some(ledger) = ledger {
                ledger.settle_idle(self.core_index);
            }
            let wake = next_arrival.min(horizon).max(now);
            if wake > now {
                self.acc.add_idle(wake - now);
                if let Some(tr) = self.trace.as_mut() {
                    tr.push(Segment {
                        start: now,
                        end: wake,
                        speed: self.current_speed,
                        kind: SegmentKind::Idle,
                    });
                }
                self.audit_accounted += wake - now;
                self.now = wake;
            }
            return Ok(Step::Continue);
        }

        // 3. Dispatch the EDF job (argmin over the packed key array; the
        //    selection order is identical to a linear scan of the jobs).
        let Some(ji) = self.scratch.ready.edf_index() else {
            // Unreachable: the ready set was checked non-empty above.
            return Ok(Step::Done);
        };
        let cur_id = self.scratch.ready.job(ji).id;
        if let Some(prev) = self.last_running {
            if prev != cur_id {
                if let Some(p) = self.scratch.ready.job_mut_by_id(prev) {
                    p.preemptions += 1;
                }
            }
        }
        self.last_running = Some(cur_id);

        // 4. Select (and if needed transition to) the execution speed,
        //    and ask for an optional intra-job review point. A job
        //    forced to full speed by an overrun policy bypasses the
        //    governor entirely — its certificate is already invalid.
        let committed = self.committed_for.take() == Some(cur_id);
        let forced = self.faults_on && self.scratch.ready.job(ji).forced_max;
        let mut review: Option<f64> = None;
        let requested = if forced {
            Speed::FULL
        } else if committed {
            self.current_speed
        } else {
            let view = SchedulerView::new(
                now,
                self.tasks,
                self.processor,
                self.scratch.ready.jobs(),
                self.scratch.releases.times(),
                next_arrival,
                self.current_speed,
                self.release_epoch,
            );
            let speed = self
                .governor
                .select_speed(&view, self.scratch.ready.job(ji));
            review = self
                .governor
                .review_after(&view, self.scratch.ready.job(ji));
            speed
        };
        let mut speed = self.processor.quantize_up(requested);
        // Frame-recovery boost: after a missed frame, the task's
        // dispatches are floored at its boost ratio until it completes on
        // time again. A speed floor (like the level clamp below) only ever
        // raises speeds, so other tasks' deadlines are never endangered.
        if let TaskKind::Frame { boost, .. } = self.scratch.ready.job(ji).kind {
            if !forced && self.scratch.frame_boost[cur_id.task.0] && speed.ratio() < boost {
                speed = self
                    .processor
                    .quantize_up(Speed::clamped(boost, self.processor.min_speed()));
                self.model_report.boosted_dispatches += 1;
            }
        }
        if self.faults_on && !forced {
            // Level-floor clamp: the platform's lowest operating points
            // are unavailable, so every selection is raised to the
            // floor (deadline-safe: speeds only ever increase).
            if let Some(floor) = self.plan.level_floor() {
                if speed.ratio() < floor {
                    speed = self
                        .processor
                        .quantize_up(Speed::clamped(floor, self.processor.min_speed()));
                    self.report.clamped_selections += 1;
                }
            }
            // Switch-drop channel: each candidate *downward* switch may
            // be dropped (the DVS command was lost; the processor keeps
            // its previous, faster speed). Upward switches always go
            // through — dropping those could cause unattributed misses.
            if speed.ratio() < self.current_speed.ratio() && !speed.same_point(self.current_speed) {
                let ordinal = self.switch_ordinal;
                self.switch_ordinal += 1;
                if self.plan.drops_switch(ordinal) {
                    self.report.dropped_switches += 1;
                    self.report.events.push(FaultEvent {
                        job: cur_id,
                        at: now,
                        kind: FaultKind::DroppedSwitch,
                    });
                    self.tally.note(EventKind::Fault);
                    speed = self.current_speed;
                }
            }
        }
        // Shared power budget (budgeted platform runs only): the ledger
        // throttles the grant to the rail's remaining headroom. Placed
        // after every legacy adjustment so unbudgeted runs take no branch
        // here; overrun-forced full speed overrides the cap (the
        // certificate is already void — recovery wins over the rail).
        if !forced {
            if let Some(ledger) = ledger {
                let granted = ledger.grant(self.core_index, speed, self.processor);
                if !granted.same_point(speed) {
                    self.tally.note(EventKind::Budget);
                    speed = granted;
                }
            }
        }
        if !speed.same_point(self.current_speed) {
            self.acc.add_transition(self.current_speed, speed);
            self.current_speed = speed;
            let latency = self.processor.overhead().latency();
            if latency > 0.0 {
                let end = (now + latency).min(horizon);
                if let Some(tr) = self.trace.as_mut() {
                    tr.push(Segment {
                        start: now,
                        end,
                        speed,
                        kind: SegmentKind::Transition,
                    });
                }
                self.audit_accounted += end - now;
                self.now = end;
                // Re-enter the loop: releases that occurred during the
                // transition are processed; if this job is still the
                // EDF choice it executes at the committed speed.
                self.committed_for = Some(cur_id);
                return Ok(Step::Continue);
            }
        }

        // 5. Execute until completion, next arrival, or the horizon —
        //    whichever comes first.
        let job = self.scratch.ready.job_mut(ji);
        let dt_complete = job.remaining_actual() / speed.ratio();
        let dt_arrival = (next_arrival - now).max(0.0);
        let dt_horizon = horizon - now;
        // Governor-requested power-management point (floored to keep
        // progress even against a misbehaving governor).
        let dt_review = review.map_or(f64::INFINITY, |r| r.max(1.0e-6));
        // Budget bound: a job whose injected demand exceeds its WCET
        // must stop *at* the WCET crossing so the overrun is detected
        // at the exact instant the certificate becomes invalid.
        let dt_budget = if self.faults_on && !job.overrun && job.actual > job.wcet + WORK_EPS {
            (job.wcet - job.executed).max(0.0) / speed.ratio()
        } else {
            f64::INFINITY
        };
        let dt = dt_complete
            .min(dt_arrival)
            .min(dt_horizon)
            .min(dt_review)
            .min(dt_budget)
            .max(0.0);
        if dt > 0.0 {
            debug_assert!(dt.is_finite(), "non-finite execution step at {now}");
            job.executed += speed.ratio() * dt;
            job.wall_used += dt;
            debug_assert!(
                job.remaining_actual() >= -WORK_EPS,
                "job {:?} executed past its actual demand by {}",
                cur_id,
                -job.remaining_actual()
            );
            self.acc.add_execution(speed, dt);
            self.audit_accounted += dt;
            if let Some(tr) = self.trace.as_mut() {
                tr.push(Segment {
                    start: now,
                    end: now + dt,
                    speed,
                    kind: SegmentKind::Execute { job: cur_id },
                });
            }
            self.now = now + dt;
        }
        let now = self.now;

        // 5b. Overrun detection: the instant executed work crosses the
        //     WCET with demand still remaining, the governor's budget
        //     certificate is invalid. Everything currently ready (and
        //     everything released until the backlog drains) is
        //     contaminated: its misses are fault-attributed.
        if self.faults_on {
            let j = self.scratch.ready.job(ji);
            let detected = !j.overrun
                && j.actual > j.wcet + WORK_EPS
                && j.executed >= j.wcet - WORK_EPS
                && j.remaining_actual() > WORK_EPS;
            let factor = j.actual / j.wcet;
            if detected {
                self.report.overruns += 1;
                self.report.events.push(FaultEvent {
                    job: cur_id,
                    at: now,
                    kind: FaultKind::WcetOverrun { factor },
                });
                self.tally.note(EventKind::Fault);
                self.contamination_active = true;
                if self.recovery_start.is_none() {
                    self.recovery_start = Some(now);
                }
                for ready_job in self.scratch.ready.jobs_mut() {
                    ready_job.contaminated = true;
                }
                self.scratch.ready.job_mut(ji).overrun = true;
                {
                    let view = SchedulerView::new(
                        now,
                        self.tasks,
                        self.processor,
                        self.scratch.ready.jobs(),
                        self.scratch.releases.times(),
                        next_arrival,
                        self.current_speed,
                        self.release_epoch,
                    );
                    self.governor.on_overrun(&view, self.scratch.ready.job(ji));
                }
                // Exhaustive on purpose (no `_` arm): a new policy
                // variant must force a decision at this exact point
                // (enforced by `clippy::wildcard_enum_match_arm`).
                match self.plan.resolve_policy(self.governor.overrun_policy()) {
                    OverrunPolicy::Abort => {
                        let job = self.scratch.ready.complete(ji);
                        self.report.aborted += 1;
                        self.report.events.push(FaultEvent {
                            job: job.id,
                            at: now,
                            kind: FaultKind::Aborted,
                        });
                        self.tally.note(EventKind::Fault);
                        self.contaminated_ids.push(job.id);
                        self.last_running = None;
                        self.records.push(JobRecord {
                            id: job.id,
                            release: job.release,
                            deadline: job.deadline,
                            wcet: job.wcet,
                            actual: job.actual,
                            completion: None,
                            wall_time: job.wall_used,
                            preemptions: job.preemptions,
                        });
                    }
                    OverrunPolicy::CompleteAtMax => {
                        self.scratch.ready.job_mut(ji).forced_max = true;
                        self.report.forced_full_speed += 1;
                        self.report.events.push(FaultEvent {
                            job: cur_id,
                            at: now,
                            kind: FaultKind::ForcedFullSpeed,
                        });
                        self.tally.note(EventKind::Fault);
                    }
                    OverrunPolicy::SkipNext => {
                        self.scratch.ready.job_mut(ji).forced_max = true;
                        self.report.forced_full_speed += 1;
                        self.report.events.push(FaultEvent {
                            job: cur_id,
                            at: now,
                            kind: FaultKind::ForcedFullSpeed,
                        });
                        self.tally.note(EventKind::Fault);
                        self.scratch.skip_next[cur_id.task.0] = true;
                    }
                }
                return Ok(Step::Continue);
            }
        }

        // 6. Completion handling.
        if self.scratch.ready.job(ji).remaining_actual() <= WORK_EPS {
            let job = self.scratch.ready.complete(ji);
            let fault_attributed = self.faults_on && job.contaminated;
            if fault_attributed {
                self.contaminated_ids.push(job.id);
            }
            let record = JobRecord {
                id: job.id,
                release: job.release,
                deadline: job.deadline,
                wcet: job.wcet,
                actual: job.actual,
                completion: Some(now),
                wall_time: job.wall_used,
                preemptions: job.preemptions,
            };
            if self.miss_policy == MissPolicy::Fail
                && now > record.deadline + TIME_EPS
                && !fault_attributed
            {
                return Err(SimError::DeadlineMiss {
                    job: record.id,
                    deadline: record.deadline,
                    completed: now,
                });
            }
            self.last_running = None;
            match job.kind {
                TaskKind::Hard | TaskKind::Sporadic { .. } => {}
                TaskKind::WeaklyHard { .. } => {
                    if !record.missed(self.horizon) {
                        self.scratch.mk_met[record.id.task.0] |= 1u64 << (record.id.index % 64);
                    }
                }
                TaskKind::Frame { .. } => {
                    let ti = record.id.task.0;
                    if !record.missed(self.horizon) {
                        self.scratch.frame_boost[ti] = false;
                        self.scratch.frame_streak[ti] = 0;
                    } else {
                        self.scratch.frame_boost[ti] = true;
                        self.scratch.frame_streak[ti] += 1;
                        self.model_report.frame_misses += 1;
                        if self.scratch.frame_streak[ti] > self.model_report.max_frame_miss_streak {
                            self.model_report.max_frame_miss_streak = self.scratch.frame_streak[ti];
                        }
                    }
                }
            }
            let view = SchedulerView::new(
                now,
                self.tasks,
                self.processor,
                self.scratch.ready.jobs(),
                self.scratch.releases.times(),
                next_arrival,
                self.current_speed,
                self.release_epoch,
            );
            self.governor.on_completion(&view, &record);
            self.tally.note(EventKind::Completion);
            self.records.push(record);
        }
        Ok(Step::Continue)
    }

    /// The legacy post-loop: drains incomplete jobs, puts the records in
    /// `(task, index)` order, sorts and deduplicates the attribution
    /// lists, and assembles the outcome with the engine's event
    /// accounting.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::DeadlineMiss`] under [`MissPolicy::Fail`] if
    /// an uncontaminated job already past its deadline never completed.
    pub(crate) fn finish(mut self) -> Result<SimOutcome, SimError> {
        let horizon = self.horizon;
        // Jobs still incomplete when the horizon ended.
        for job in self.scratch.ready.drain_jobs() {
            let fault_attributed = self.faults_on && job.contaminated;
            if fault_attributed {
                self.contaminated_ids.push(job.id);
            }
            let record = JobRecord {
                id: job.id,
                release: job.release,
                deadline: job.deadline,
                wcet: job.wcet,
                actual: job.actual,
                completion: None,
                wall_time: job.wall_used,
                preemptions: job.preemptions,
            };
            if self.miss_policy == MissPolicy::Fail && record.missed(horizon) && !fault_attributed {
                return Err(SimError::DeadlineMiss {
                    job: record.id,
                    deadline: record.deadline,
                    completed: horizon,
                });
            }
            self.records.push(record);
        }
        let placed = place_records(&mut self.records, &mut self.scratch.next_index);
        debug_assert!(placed, "a released job left no record, or several");
        if !placed {
            // Unstable sort is safe: `(task, index)` job ids are unique, so
            // there are no equal keys whose relative order could differ.
            self.records
                .sort_unstable_by_key(|r| (r.id.task, r.id.index));
        }

        // A recovery episode still open at the horizon is closed there: the
        // latency lower-bounds what a longer horizon would have measured.
        if let Some(start) = self.recovery_start.take() {
            let recovery = self.now - start;
            self.report.recovery_episodes += 1;
            self.report.recovery_time += recovery;
            if recovery > self.report.max_recovery_latency {
                self.report.max_recovery_latency = recovery;
            }
        }
        if self.faults_on {
            self.contaminated_ids.sort_unstable();
            self.contaminated_ids.dedup();
            self.report.contaminated = self.contaminated_ids;
        }
        self.skipped_ids.sort_unstable();
        self.skipped_ids.dedup();
        self.model_report.skipped = self.skipped_ids;

        let (busy, idle, transition) = match self.trace.as_ref() {
            Some(tr) => (tr.busy_time(), tr.idle_time(), tr.transition_time()),
            None => {
                let busy: f64 = self.records.iter().map(|r| r.wall_time).sum();
                (busy, 0.0, 0.0) // idle/transition splits need a trace
            }
        };

        Ok(SimOutcome {
            governor: self.governor.name().to_string(),
            horizon,
            energy: self.acc.breakdown(),
            switches: self.acc.switch_count(),
            jobs: self.records,
            events: self.events,
            busy_time: busy,
            idle_time: idle,
            transition_time: transition,
            faults: self.report,
            models: self.model_report,
            release_batches: self.release_batches,
            analysis: self.governor.analysis_stats().unwrap_or_default(),
            kernel: self.tally.stats(),
            trace: self.trace,
        })
    }
}

/// Puts `records` in `(task, index)` order without comparing keys.
///
/// Every released job yields exactly one record — a completion, an abort,
/// a `SkipNext` shed, a weakly-hard skip or a horizon drain — so task
/// `t`'s records carry the indices `0..released[t]`, and the record of
/// `(t, index)` belongs at `offset[t] + index`, where `offset` is the
/// exclusive prefix sum of `released`. `released` (the run's per-task
/// release counters, dead once it ends) is overwritten with those
/// offsets. Each swap moves one record into its final slot, so the pass
/// is linear and allocates nothing.
///
/// Returns `false`, leaving `records` permuted but complete, if a record's
/// slot is out of its task's range or claimed twice: the
/// one-record-per-release invariant does not hold.
fn place_records(records: &mut [JobRecord], released: &mut [u64]) -> bool {
    let mut total: u64 = 0;
    for count in released.iter_mut() {
        let offset = total;
        total += *count;
        *count = offset;
    }
    if total != records.len() as u64 {
        return false;
    }
    let slot_of = |record: &JobRecord| -> Option<usize> {
        let task = record.id.task.0;
        let start = *released.get(task)?;
        let end = released.get(task + 1).copied().unwrap_or(total);
        let slot = start.checked_add(record.id.index)?;
        (slot < end).then_some(slot as usize)
    };
    for i in 0..records.len() {
        let Some(mut slot) = slot_of(&records[i]) else {
            return false;
        };
        while slot != i {
            let Some(next) = slot_of(&records[slot]) else {
                return false;
            };
            if next == slot {
                return false;
            }
            records.swap(i, slot);
            slot = next;
        }
    }
    true
}

impl<G, E> Stepper for CoreEngine<'_, G, E>
where
    G: Governor,
    E: ExecutionSource + ?Sized,
{
    fn wake_key(&self) -> WakeKey {
        (self.now.to_bits(), self.tally.wake_seq)
    }

    /// Handles the pending wake with one loop iteration, after which
    /// the next wake is due at the engine's own clock: a release wait
    /// when the ready set is empty, a dispatch continuation otherwise.
    fn step(&mut self, ledger: Option<&mut BudgetLedger>) -> Result<Step, SimError> {
        self.tally.handle();
        let step = self.iterate(ledger)?;
        if step == Step::Continue {
            self.tally.schedule(if self.scratch.ready.is_empty() {
                EventKind::Release
            } else {
                EventKind::Dispatch
            });
        }
        Ok(step)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    use crate::event::{ComponentId, SimEvent};
    use crate::kernel::{ComponentCtx, EventHandler, Kernel};

    /// One core's scripted run: the time of each wake, the notes the step
    /// it stands for emits, and whether that step fails.
    #[derive(Debug, Clone)]
    struct Script {
        core: usize,
        wakes: Vec<(f64, u64, bool)>,
    }

    /// A stand-in engine for [`drive`]: it follows its script, counts
    /// its events in a [`Tally`] as a [`CoreEngine`] does, and logs each
    /// step as `(core, wake time bits)`.
    struct Scripted<'a> {
        script: &'a Script,
        next: usize,
        tally: Tally,
        log: &'a RefCell<Vec<(usize, u64)>>,
    }

    impl Stepper for Scripted<'_> {
        fn wake_key(&self) -> WakeKey {
            (
                self.script.wakes[self.next].0.to_bits(),
                self.tally.wake_seq,
            )
        }

        fn step(&mut self, _: Option<&mut BudgetLedger>) -> Result<Step, SimError> {
            self.tally.handle();
            let (time, notes, fails) = self.script.wakes[self.next];
            self.log
                .borrow_mut()
                .push((self.script.core, time.to_bits()));
            if fails {
                return Err(SimError::EventLimitExceeded { limit: 0 });
            }
            for _ in 0..notes {
                self.tally.note(EventKind::Completion);
            }
            self.next += 1;
            if self.next == self.script.wakes.len() {
                return Ok(Step::Done);
            }
            self.tally.schedule(EventKind::Dispatch);
            Ok(Step::Continue)
        }
    }

    /// The same script as a kernel component: each delivered wake emits
    /// its notes to the sink, then the next wake to itself.
    struct Replayed<'a> {
        script: &'a Script,
        next: usize,
        sink: ComponentId,
        log: &'a RefCell<Vec<(usize, u64)>>,
    }

    impl EventHandler for Replayed<'_> {
        fn handle(&mut self, event: SimEvent, ctx: &mut ComponentCtx<'_>) -> Result<(), SimError> {
            let (_, notes, fails) = self.script.wakes[self.next];
            self.log
                .borrow_mut()
                .push((self.script.core, event.time.to_bits()));
            if fails {
                return Err(SimError::EventLimitExceeded { limit: 0 });
            }
            for _ in 0..notes {
                ctx.emit(ctx.now(), EventKind::Completion, self.sink);
            }
            self.next += 1;
            if let Some(&(time, _, _)) = self.script.wakes.get(self.next) {
                ctx.emit(time, EventKind::Dispatch, ctx.self_id());
            }
            Ok(())
        }
    }

    /// Absorbs notes.
    struct Sink;

    impl EventHandler for Sink {
        fn handle(&mut self, _: SimEvent, _: &mut ComponentCtx<'_>) -> Result<(), SimError> {
            Ok(())
        }
    }

    /// Property: [`drive`] steps engines in exactly the order the kernel
    /// delivers the same wakes, notes included, and stops at the same
    /// failing step. Wake times sit on a coarse grid, so bit-tied wakes
    /// across cores are common and the order often rests on `seq`; cores
    /// without wakes are idle and get no engine, as on a platform.
    #[test]
    fn drive_order_matches_kernel_delivery_order() {
        crate::rng::check("drive_order_matches_kernel_delivery_order", 256, |rng| {
            let cores = 1 + rng.below(8) as usize;
            let fail_at = (rng.below(2) == 0).then(|| (rng.below(cores as u64), rng.below(12)));
            let scripts: Vec<Script> = (0..cores)
                .map(|core| {
                    let mut time = 0.0;
                    let wakes = (0..rng.below(12))
                        .map(|i| {
                            time += rng.below(3) as f64 * 0.5;
                            let fails = fail_at == Some((core as u64, i));
                            (time, rng.below(4), fails)
                        })
                        .collect();
                    Script { core, wakes }
                })
                .collect();

            let driven = RefCell::new(Vec::new());
            let mut engines: Vec<Scripted<'_>> = scripts
                .iter()
                .filter(|script| !script.wakes.is_empty())
                .map(|script| Scripted {
                    script,
                    next: 0,
                    tally: Tally::seeded(),
                    log: &driven,
                })
                .collect();
            let driven_result = drive(&mut engines, &mut Vec::new(), None);

            let delivered = RefCell::new(Vec::new());
            let mut kernel = Kernel::new();
            kernel.reset(cores + 1, None);
            for script in &scripts {
                if let Some(&(time, _, _)) = script.wakes.first() {
                    let id = ComponentId(script.core);
                    kernel.schedule(SimEvent {
                        time,
                        kind: EventKind::Release,
                        source: id,
                        target: id,
                    });
                }
            }
            let mut replayed: Vec<Replayed<'_>> = scripts
                .iter()
                .map(|script| Replayed {
                    script,
                    next: 0,
                    sink: ComponentId(cores),
                    log: &delivered,
                })
                .collect();
            let mut sink = Sink;
            let mut handlers: Vec<&mut dyn EventHandler> = replayed
                .iter_mut()
                .map(|r| r as &mut dyn EventHandler)
                .collect();
            handlers.push(&mut sink);
            let kernel_result = kernel.run(&mut handlers);

            if driven_result.is_ok() != kernel_result.is_ok() {
                return Err(format!("drive {driven_result:?}, kernel {kernel_result:?}"));
            }
            let (driven, delivered) = (driven.into_inner(), delivered.into_inner());
            if driven != delivered {
                return Err(format!(
                    "drive order {driven:?}\nkernel order {delivered:?}"
                ));
            }
            Ok(())
        });
    }

    fn record(task: usize, index: u64) -> JobRecord {
        JobRecord {
            id: JobId {
                task: TaskId(task),
                index,
            },
            release: 0.0,
            deadline: 1.0,
            wcet: 1.0,
            actual: 1.0,
            completion: None,
            wall_time: 0.0,
            preemptions: 0,
        }
    }

    fn ids(records: &[JobRecord]) -> Vec<(usize, u64)> {
        records.iter().map(|r| (r.id.task.0, r.id.index)).collect()
    }

    /// Property: placement reproduces the `(task, index)` sort whenever
    /// each task's records carry exactly the indices `0..released[task]`,
    /// and otherwise reports failure with every record still present, so
    /// the fallback sort sees them all. Half the cases rewrite one
    /// record's id, which leaves a gap, a duplicate, an index past its
    /// task's count, or (by chance) a valid set.
    #[test]
    fn placement_matches_the_sort_or_reports_a_broken_invariant() {
        crate::rng::check(
            "placement_matches_the_sort_or_reports_a_broken_invariant",
            256,
            |rng| {
                let tasks = 1 + rng.below(6) as usize;
                let mut released: Vec<u64> = (0..tasks).map(|_| rng.below(5)).collect();
                let mut records: Vec<JobRecord> = (0..tasks)
                    .flat_map(|t| (0..released[t]).map(move |i| record(t, i)))
                    .collect();
                let expected = ids(&records);
                for i in (1..records.len()).rev() {
                    records.swap(i, rng.below(i as u64 + 1) as usize);
                }
                if !records.is_empty() && rng.below(2) == 0 {
                    let victim = rng.below(records.len() as u64) as usize;
                    records[victim] = record(rng.below(tasks as u64) as usize, rng.below(6));
                }
                let mut sorted = ids(&records);
                sorted.sort_unstable();
                let valid = sorted == expected;

                let placed = place_records(&mut records, &mut released);
                let mut after = ids(&records);
                if placed != valid {
                    return Err(format!("placed {placed} but valid {valid}: {after:?}"));
                }
                if placed && after != expected {
                    return Err(format!("placed out of order: {after:?}"));
                }
                after.sort_unstable();
                if after != sorted {
                    return Err(format!("records lost or duplicated: {after:?}"));
                }
                Ok(())
            },
        );
    }

    /// A record with an index past its own task's count can land in the
    /// slot another task left empty, which a bare slot-collision check
    /// would accept; the per-task range check refuses it.
    #[test]
    fn placement_refuses_a_record_in_another_tasks_slot() {
        let mut records = vec![record(0, 2), record(1, 0), record(0, 0)];
        assert!(!place_records(&mut records, &mut [1, 1, 1]));
    }
}
