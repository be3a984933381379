//! Partitioned multiprocessor simulation: N per-core EDF-DVS simulators.
//!
//! Under partitioned EDF there is no migration: each core schedules its
//! own task subset with its own governor, its own speed state, and its
//! own energy account. Each step of a core's engine executes exactly one
//! iteration of that core's legacy loop. Because partitioned cores share
//! no mutable state, an unbudgeted run steps each core to the end in
//! core order, and each core's steps are bit-identical to any
//! interleaving — and a 1-core platform is *bit-identical* to the
//! uniprocessor [`Simulator`] (the differential tests pin both).
//!
//! Only a shared budget couples the cores: [`PlatformSim::run_budgeted`]
//! lends a [`BudgetLedger`] to every step and steps the cores in one
//! loop, always the core whose pending wake has the least
//! `(time, seq, core)` key — the global order in which the typed-event
//! kernel delivered them when the cores ran inside it. Because grants
//! happen in global time order the ledger sees a time-consistent picture
//! of all cores' draws — the platform-level power cap the old per-core
//! loop could not express.
//!
//! Each core gets a **fresh governor instance** from the caller's factory
//! (governors carry per-run state; sharing one across cores would leak
//! slack estimates between task subsets), its own scratch buffers (from
//! [`PlatformScratch`]), and the fault plan applied independently. Cores
//! with no assigned tasks idle for the whole horizon and are charged idle
//! energy — an "empty" core is still powered.

use crate::budget::{BudgetLedger, BudgetReport};
use crate::component::{drive, drive_budgeted, CoreEngine, CoreScratch, WakeKey};
use crate::event::QueueStats;
use crate::exec::ExecutionSource;
use crate::fault::{FaultPlan, FaultReport};
use crate::governor::Governor;
use crate::kernel::KernelStats;
use crate::outcome::SimOutcome;
use crate::simulator::{SimConfig, Simulator};
use crate::task::TaskSet;
use crate::trace::{Segment, SegmentKind, Trace};
use crate::SimError;
use stadvs_power::{Platform, PlatformEnergy, Processor};

use crate::audit::{audit_outcome, AuditReport};

/// Reusable per-core working memory for [`PlatformSim`] runs.
///
/// One `CoreScratch` per core plus the budgeted drive loop's wake-key
/// buffer, grown on demand and reused across runs — the platform event
/// path never allocates per event.
#[derive(Debug, Clone, Default)]
pub struct PlatformScratch {
    per_core: Vec<CoreScratch>,
    wakes: Vec<WakeKey>,
    /// Idle cores' governor names, rebuilt each run (the `String`s are
    /// per-run, the `Vec` spine is reused).
    idle_names: Vec<Option<String>>,
}

impl PlatformScratch {
    /// Creates an empty scratch space; per-core buffers grow on first use.
    pub fn new() -> PlatformScratch {
        PlatformScratch::default()
    }

    /// Ensures one [`CoreScratch`] exists per core (grows, never shrinks).
    fn ensure(&mut self, cores: usize) {
        if self.per_core.len() < cores {
            self.per_core.resize_with(cores, CoreScratch::default);
        }
    }

    /// Always all-zero: a run steps its cores in a plain loop and queues
    /// no events, so there is no event queue to report on. Kept because
    /// the benchmark's `sim.queue.*` counters still read it.
    pub fn queue_stats(&self) -> QueueStats {
        QueueStats::default()
    }
}

/// The aggregated result of one multiprocessor run: one [`SimOutcome`]
/// per core, in core order, plus platform-level accessors.
#[derive(Debug, Clone, PartialEq)]
pub struct PlatformOutcome {
    /// Name of the governor family driving every core.
    pub governor: String,
    /// The shared horizon, in seconds.
    pub horizon: f64,
    /// Per-core outcomes (idle cores report zero jobs and pure idle time).
    pub cores: Vec<SimOutcome>,
}

impl PlatformOutcome {
    /// The outcome of one core.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn core(&self, core: usize) -> &SimOutcome {
        &self.cores[core]
    }

    /// The platform-level energy account (per-core breakdowns + switches).
    pub fn energy(&self) -> PlatformEnergy {
        PlatformEnergy::from_cores(self.cores.iter().map(|o| (o.energy, o.switches)).collect())
    }

    /// Total energy across all cores, in joules.
    pub fn total_energy(&self) -> f64 {
        self.cores.iter().map(SimOutcome::total_energy).sum()
    }

    /// Total speed switches across all cores.
    pub fn switches(&self) -> u64 {
        self.cores.iter().map(|o| o.switches).sum()
    }

    /// Total scheduler events across all cores.
    pub fn events(&self) -> u64 {
        self.cores.iter().map(|o| o.events).sum()
    }

    /// Total deadline misses across all cores.
    pub fn miss_count(&self) -> usize {
        self.cores.iter().map(SimOutcome::miss_count).sum()
    }

    /// Total completed jobs across all cores.
    pub fn completed_jobs(&self) -> usize {
        self.cores.iter().map(SimOutcome::completed_jobs).sum()
    }

    /// Total deadline misses attributable to injected faults.
    pub fn fault_attributed_misses(&self) -> usize {
        self.cores
            .iter()
            .map(SimOutcome::fault_attributed_misses)
            .sum()
    }

    /// Total deadline misses **not** attributable to injected faults (a
    /// non-zero count under injection is an algorithm bug on some core).
    pub fn unattributed_misses(&self) -> usize {
        self.cores.iter().map(SimOutcome::unattributed_misses).sum()
    }

    /// Whether every due job on every core met its deadline.
    pub fn all_deadlines_met(&self) -> bool {
        self.cores.iter().all(SimOutcome::all_deadlines_met)
    }
}

/// A reusable multiprocessor simulator: one [`Simulator`] per non-idle
/// core of a [`Platform`], all sharing one [`SimConfig`].
///
/// ```
/// use stadvs_power::{Platform, Processor};
/// use stadvs_sim::{PlatformSim, SimConfig, Task, TaskSet};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let platform = Platform::homogeneous(2, Processor::ideal_continuous())?;
/// let core0 = TaskSet::new(vec![Task::new(1.0e-3, 10.0e-3)?])?;
/// let core1 = TaskSet::new(vec![Task::new(2.0e-3, 10.0e-3)?])?;
/// let sim = PlatformSim::new(platform, vec![Some(core0), Some(core1)],
///                            SimConfig::new(0.1)?)?;
/// assert_eq!(sim.core_count(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct PlatformSim {
    platform: Platform,
    cores: Vec<Option<Simulator>>,
    config: SimConfig,
}

impl PlatformSim {
    /// Creates a platform simulator from per-core task assignments
    /// (`None` = the core idles for the whole horizon).
    ///
    /// # Errors
    ///
    /// * [`SimError::PlatformMismatch`] if `assignments` does not have one
    ///   entry per platform core;
    /// * [`SimError::Infeasible`] if any core's task subset has worst-case
    ///   density above 1 (the partitioner admitted an overloaded core).
    pub fn new(
        platform: Platform,
        assignments: Vec<Option<TaskSet>>,
        config: SimConfig,
    ) -> Result<PlatformSim, SimError> {
        if assignments.len() != platform.len() {
            return Err(SimError::PlatformMismatch {
                cores: platform.len(),
                provided: assignments.len(),
            });
        }
        let mut cores = Vec::with_capacity(assignments.len());
        for (index, tasks) in assignments.into_iter().enumerate() {
            let sim = match tasks {
                Some(t) => {
                    let processor = platform.core(index).clone();
                    let core_config = config.clone();
                    Some(Simulator::new(t, processor, core_config)?)
                }
                None => None,
            };
            cores.push(sim);
        }
        Ok(PlatformSim {
            platform,
            cores,
            config,
        })
    }

    /// A single-core platform wrapping the legacy uniprocessor model —
    /// bit-identical to running [`Simulator`] directly.
    ///
    /// # Errors
    ///
    /// Same as [`PlatformSim::new`].
    pub fn uniprocessor(
        tasks: TaskSet,
        processor: Processor,
        config: SimConfig,
    ) -> Result<PlatformSim, SimError> {
        PlatformSim::new(Platform::uniprocessor(processor), vec![Some(tasks)], config)
    }

    /// The platform.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// The shared configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Number of cores.
    pub fn core_count(&self) -> usize {
        self.cores.len()
    }

    /// The task set assigned to a core, or `None` for an idle core.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn core_tasks(&self, core: usize) -> Option<&TaskSet> {
        self.cores[core].as_ref().map(Simulator::tasks)
    }

    /// Runs every core over the shared horizon with a fresh governor per
    /// core and the *same* demand source applied to each core's local task
    /// ids. For partitioned workloads that need original-id demand streams,
    /// use [`PlatformSim::run_faulted_with_scratch`] with per-core sources
    /// (e.g. `stadvs-workload`'s `PartitionReport::core_demand`).
    ///
    /// # Errors
    ///
    /// Same as [`PlatformSim::run_faulted_with_scratch`].
    pub fn run<G, E>(&self, make_governor: G, exec: &E) -> Result<PlatformOutcome, SimError>
    where
        G: FnMut(usize) -> Box<dyn Governor>,
        E: ExecutionSource + ?Sized,
    {
        let execs: Vec<&E> = self.cores.iter().map(|_| exec).collect();
        self.run_faulted_with_scratch(
            make_governor,
            &execs,
            &FaultPlan::NONE,
            &mut PlatformScratch::new(),
        )
    }

    /// Like [`PlatformSim::run`], but with a fault plan (applied to every
    /// core independently).
    ///
    /// # Errors
    ///
    /// Same as [`PlatformSim::run_faulted_with_scratch`].
    pub fn run_faulted<G, E>(
        &self,
        make_governor: G,
        exec: &E,
        plan: &FaultPlan,
    ) -> Result<PlatformOutcome, SimError>
    where
        G: FnMut(usize) -> Box<dyn Governor>,
        E: ExecutionSource + ?Sized,
    {
        let execs: Vec<&E> = self.cores.iter().map(|_| exec).collect();
        self.run_faulted_with_scratch(make_governor, &execs, plan, &mut PlatformScratch::new())
    }

    /// The full-control run: a fresh governor per core from `make_governor`,
    /// one demand source per core in `execs` (entries for idle cores are
    /// never queried), `plan` injected into every core independently (the
    /// plan's seeded draws key on each core's *local* task ids), and
    /// reusable scratch memory.
    ///
    /// Each core is stepped to the end in core order: partitioned cores
    /// share no mutable state, so each core's steps are the same as in
    /// the global wake order a budgeted run steps them in (module docs).
    ///
    /// # Errors
    ///
    /// * [`SimError::PlatformMismatch`] if `execs` does not have one entry
    ///   per core;
    /// * any [`Simulator`] run error from a core's event loop
    ///   ([`SimError::DeadlineMiss`] under `MissPolicy::Fail`,
    ///   [`SimError::EventLimitExceeded`], …). When several cores fail,
    ///   the error is the one whose step comes first in global wake
    ///   order.
    pub fn run_faulted_with_scratch<G, E>(
        &self,
        make_governor: G,
        execs: &[E],
        plan: &FaultPlan,
        scratch: &mut PlatformScratch,
    ) -> Result<PlatformOutcome, SimError>
    where
        G: FnMut(usize) -> Box<dyn Governor>,
        E: ExecutionSource,
    {
        self.run_cores(make_governor, execs, plan, None, scratch)
            .map(|(outcome, _)| outcome)
    }

    /// Runs the platform under a shared power budget: aggregate active
    /// draw across all cores is capped at `cap_watts`, and per-core speed
    /// grants are throttled to the remaining headroom at every dispatch
    /// (see [`BudgetLedger`]). Run under [`crate::MissPolicy::Record`]:
    /// a tight cap knowingly trades deadlines for power, and the misses
    /// are part of the result.
    ///
    /// # Errors
    ///
    /// * [`SimError::InvalidConfig`] if `cap_watts` is not finite positive;
    /// * otherwise as [`PlatformSim::run_faulted_with_scratch`].
    pub fn run_budgeted<G, E>(
        &self,
        make_governor: G,
        execs: &[E],
        cap_watts: f64,
        scratch: &mut PlatformScratch,
    ) -> Result<(PlatformOutcome, BudgetReport), SimError>
    where
        G: FnMut(usize) -> Box<dyn Governor>,
        E: ExecutionSource,
    {
        let mut ledger = BudgetLedger::new(cap_watts, self.cores.len())?;
        ledger.share_tables(&self.platform);
        let (outcome, report) = self.run_cores(
            make_governor,
            execs,
            &FaultPlan::NONE,
            Some(ledger),
            scratch,
        )?;
        Ok((outcome, report.unwrap_or_default()))
    }

    /// The one platform drive path: builds an engine per non-idle core,
    /// steps them (in global wake order, lending `ledger` to each step,
    /// on budgeted runs; each to the end in core order otherwise), and
    /// assembles the per-core outcomes.
    fn run_cores<G, E>(
        &self,
        mut make_governor: G,
        execs: &[E],
        plan: &FaultPlan,
        mut ledger: Option<BudgetLedger>,
        scratch: &mut PlatformScratch,
    ) -> Result<(PlatformOutcome, Option<BudgetReport>), SimError>
    where
        G: FnMut(usize) -> Box<dyn Governor>,
        E: ExecutionSource,
    {
        if execs.len() != self.cores.len() {
            return Err(SimError::PlatformMismatch {
                cores: self.cores.len(),
                provided: execs.len(),
            });
        }
        let n = self.cores.len();
        scratch.ensure(n);
        let PlatformScratch {
            per_core,
            wakes,
            idle_names,
        } = scratch;

        // Build the engines in core order — every core (idle or not) gets
        // a fresh governor instance, so factory side effects stay
        // core-ordered exactly as under sequential stepping. Only
        // non-idle cores get an engine, so an engine's position in
        // `engines` orders like its core index.
        let mut engines: Vec<CoreEngine<'_, Box<dyn Governor>, E>> = Vec::with_capacity(n);
        idle_names.clear();
        for ((core, sim), core_scratch) in self.cores.iter().enumerate().zip(per_core.iter_mut()) {
            let governor = make_governor(core);
            match sim {
                Some(sim) => {
                    engines.push(CoreEngine::new(
                        sim.tasks(),
                        sim.processor(),
                        &self.config,
                        governor,
                        &execs[core],
                        plan,
                        core_scratch,
                        core,
                    ));
                    idle_names.push(None);
                }
                None => {
                    idle_names.push(Some(governor.name().to_string()));
                }
            }
        }
        match ledger.as_mut() {
            Some(ledger) => drive_budgeted(&mut engines, wakes, ledger)?,
            None => drive(&mut engines)?,
        }
        let mut outcomes = Vec::with_capacity(n);
        for engine in engines {
            outcomes.push(engine.finish()?);
        }
        // Idle cores slot in at their core index, in ascending order.
        for (core, name) in idle_names.iter().enumerate() {
            if let Some(name) = name {
                outcomes.insert(core, self.idle_outcome(core, name));
            }
        }
        // A platform always has at least one core, but stay panic-free.
        let governor = outcomes
            .first()
            .map(|o| o.governor.clone())
            .unwrap_or_default();
        Ok((
            PlatformOutcome {
                governor,
                horizon: self.config.horizon(),
                cores: outcomes,
            },
            ledger.map(|ledger| ledger.report()),
        ))
    }

    /// The outcome of a core with no assigned tasks: pure idle time,
    /// charged at the core's idle power — an empty core is still powered.
    fn idle_outcome(&self, core: usize, governor: &str) -> SimOutcome {
        let horizon = self.config.horizon();
        let processor = self.platform.core(core);
        let mut acc = processor.energy_accumulator();
        acc.add_idle(horizon);
        let trace = self.config.records_trace().then(|| {
            let mut t = Trace::new(processor.clone());
            t.push(Segment {
                start: 0.0,
                end: horizon,
                speed: processor.min_speed(),
                kind: SegmentKind::Idle,
            });
            t
        });
        SimOutcome {
            governor: governor.to_string(),
            horizon,
            energy: acc.breakdown(),
            switches: 0,
            jobs: Vec::new(),
            events: 0,
            busy_time: 0.0,
            idle_time: horizon,
            transition_time: 0.0,
            faults: FaultReport::default(),
            models: crate::model::ModelReport::default(),
            release_batches: [0; 8],
            analysis: crate::outcome::AnalysisStats::default(),
            kernel: KernelStats::default(),
            trace,
        }
    }

    /// Applies the audit referee to every core: real cores run
    /// [`audit_outcome`] against their task subset and the plan; idle cores
    /// get a trivially clean report.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::PlatformMismatch`] if `outcome` does not have
    /// one per-core outcome per platform core.
    pub fn audit(
        &self,
        outcome: &PlatformOutcome,
        plan: &FaultPlan,
    ) -> Result<Vec<AuditReport>, SimError> {
        if outcome.cores.len() != self.cores.len() {
            return Err(SimError::PlatformMismatch {
                cores: self.cores.len(),
                provided: outcome.cores.len(),
            });
        }
        let mut reports = Vec::with_capacity(self.cores.len());
        for (core, sim) in self.cores.iter().enumerate() {
            let report = match sim {
                Some(sim) => audit_outcome(&outcome.cores[core], sim.tasks(), plan),
                None => AuditReport::default(),
            };
            reports.push(report);
        }
        Ok(reports)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::ConstantRatio;
    use crate::governor::SchedulerView;
    use crate::job::ActiveJob;
    use crate::task::Task;
    use stadvs_power::Speed;

    struct FullSpeed;
    impl Governor for FullSpeed {
        fn name(&self) -> &str {
            "full"
        }
        fn select_speed(&mut self, _: &SchedulerView<'_>, _: &ActiveJob) -> Speed {
            Speed::FULL
        }
    }

    fn two_sets() -> (TaskSet, TaskSet) {
        let a = TaskSet::new(vec![Task::new(1.0e-3, 10.0e-3).unwrap()]).unwrap();
        let b = TaskSet::new(vec![Task::new(2.0e-3, 10.0e-3).unwrap()]).unwrap();
        (a, b)
    }

    fn quad() -> Platform {
        Platform::homogeneous(4, Processor::ideal_continuous()).unwrap()
    }

    #[test]
    fn mismatched_assignments_are_rejected() {
        let (a, _) = two_sets();
        let err =
            PlatformSim::new(quad(), vec![Some(a)], SimConfig::new(0.1).unwrap()).unwrap_err();
        assert!(matches!(
            err,
            SimError::PlatformMismatch {
                cores: 4,
                provided: 1
            }
        ));
    }

    #[test]
    fn one_core_matches_legacy_simulator_bitwise() {
        let (a, _) = two_sets();
        let config = SimConfig::new(0.1).unwrap().with_trace(true);
        let legacy = Simulator::new(a.clone(), Processor::ideal_continuous(), config.clone())
            .unwrap()
            .run(&mut FullSpeed, &ConstantRatio::new(0.5))
            .unwrap();
        let platform = PlatformSim::uniprocessor(a, Processor::ideal_continuous(), config).unwrap();
        let outcome = platform
            .run(|_| Box::new(FullSpeed), &ConstantRatio::new(0.5))
            .unwrap();
        assert_eq!(outcome.cores.len(), 1);
        assert_eq!(outcome.cores[0], legacy);
        assert_eq!(outcome.total_energy(), legacy.total_energy());
        assert_eq!(outcome.switches(), legacy.switches);
    }

    #[test]
    fn idle_cores_are_charged_idle_energy_and_audit_clean() {
        let (a, b) = two_sets();
        let idle_hungry = Processor::ideal_continuous()
            .with_power_model(stadvs_power::PowerModel::normalized_cubic_with_idle(0.1).unwrap());
        let platform = Platform::homogeneous(4, idle_hungry).unwrap();
        let sim = PlatformSim::new(
            platform,
            vec![Some(a), None, Some(b), None],
            SimConfig::new(0.1).unwrap(),
        )
        .unwrap();
        let outcome = sim
            .run(|_| Box::new(FullSpeed), &ConstantRatio::new(0.5))
            .unwrap();
        assert_eq!(outcome.cores.len(), 4);
        // Idle cores burn idle power for the whole horizon.
        assert!(outcome.cores[1].energy.idle > 0.0);
        assert_eq!(outcome.cores[1].jobs.len(), 0);
        assert!((outcome.cores[1].idle_time - 0.1).abs() < 1e-12);
        assert!(outcome.all_deadlines_met());
        assert!(
            (outcome.total_energy() - outcome.cores.iter().map(|c| c.total_energy()).sum::<f64>())
                .abs()
                < 1e-12
        );
        let reports = sim.audit(&outcome, &FaultPlan::NONE).unwrap();
        assert_eq!(reports.len(), 4);
        for r in &reports {
            assert!(r.is_clean(), "{r}");
        }
        assert_eq!(reports[1].jobs_checked, 0);
    }

    #[test]
    fn each_core_gets_a_fresh_governor_instance() {
        // A stateful governor that slows down on every speed query; if
        // cores shared the instance, core order would leak into speeds.
        struct Decaying {
            calls: u64,
        }
        impl Governor for Decaying {
            fn name(&self) -> &str {
                "decaying"
            }
            fn select_speed(&mut self, view: &SchedulerView<'_>, _: &ActiveJob) -> Speed {
                self.calls += 1;
                let s = (1.0 / self.calls as f64).max(0.5);
                Speed::clamped(s, view.processor().min_speed())
            }
        }
        let (a, _) = two_sets();
        let platform = Platform::homogeneous(2, Processor::ideal_continuous()).unwrap();
        let sim = PlatformSim::new(
            platform,
            vec![Some(a.clone()), Some(a)],
            SimConfig::new(0.05).unwrap(),
        )
        .unwrap();
        let mut instances = 0;
        let outcome = sim
            .run(
                |_| {
                    instances += 1;
                    Box::new(Decaying { calls: 0 })
                },
                &ConstantRatio::new(1.0),
            )
            .unwrap();
        assert_eq!(instances, 2);
        // Identical task sets + fresh per-core state ⇒ identical outcomes.
        assert_eq!(outcome.cores[0].jobs, outcome.cores[1].jobs);
        assert_eq!(
            outcome.cores[0].total_energy(),
            outcome.cores[1].total_energy()
        );
    }

    #[test]
    fn per_core_exec_sources_are_respected() {
        let (a, b) = two_sets();
        let platform = Platform::homogeneous(2, Processor::ideal_continuous()).unwrap();
        let sim = PlatformSim::new(
            platform,
            vec![Some(a), Some(b)],
            SimConfig::new(0.1).unwrap(),
        )
        .unwrap();
        let execs = [ConstantRatio::new(1.0), ConstantRatio::new(0.25)];
        let outcome = sim
            .run_faulted_with_scratch(
                |_| Box::new(FullSpeed),
                &execs,
                &FaultPlan::NONE,
                &mut PlatformScratch::new(),
            )
            .unwrap();
        // Core 0 runs 1 ms jobs at ratio 1.0, core 1 runs 2 ms jobs at
        // ratio 0.25: busy time 10 ms vs 5 ms over the horizon.
        assert!((outcome.cores[0].busy_time - 0.010).abs() < 1e-9);
        assert!((outcome.cores[1].busy_time - 0.005).abs() < 1e-9);
        // Mismatched exec slice is rejected.
        let err = sim
            .run_faulted_with_scratch(
                |_| Box::new(FullSpeed),
                &execs[..1],
                &FaultPlan::NONE,
                &mut PlatformScratch::new(),
            )
            .unwrap_err();
        assert!(matches!(err, SimError::PlatformMismatch { .. }));
    }

    #[test]
    fn scratch_reuse_is_bit_identical() {
        let (a, b) = two_sets();
        let platform = Platform::homogeneous(2, Processor::ideal_continuous()).unwrap();
        let sim = PlatformSim::new(
            platform,
            vec![Some(a), Some(b)],
            SimConfig::new(0.2).unwrap(),
        )
        .unwrap();
        let mut scratch = PlatformScratch::new();
        let execs = [ConstantRatio::new(0.6), ConstantRatio::new(0.6)];
        let first = sim
            .run_faulted_with_scratch(
                |_| Box::new(FullSpeed),
                &execs,
                &FaultPlan::NONE,
                &mut scratch,
            )
            .unwrap();
        let second = sim
            .run_faulted_with_scratch(
                |_| Box::new(FullSpeed),
                &execs,
                &FaultPlan::NONE,
                &mut scratch,
            )
            .unwrap();
        assert_eq!(first, second);
    }
}
