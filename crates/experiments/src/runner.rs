//! The comparison machinery: run many governors on identical workloads.

use stadvs_analysis::{due_within, materialize_jobs, optimal_static_speed, yds_schedule, WorkKind};
use stadvs_baselines::OracleStatic;
use stadvs_power::{Platform, Speed};
use stadvs_sim::{
    ExecutionSource, FaultPlan, Governor, PlatformOutcome, PlatformScratch, PlatformSim, SimConfig,
    TaskSet,
};
use stadvs_workload::{
    CoreDemand, DemandPattern, ExecutionModel, PartitionReport, Partitioner, TaskSetSpec,
};

use crate::governors::{make_governor, STANDARD_LINEUP};

/// One reproducible workload: a task set plus its execution-demand model.
#[derive(Debug, Clone)]
pub struct WorkloadCase {
    /// The task set.
    pub tasks: TaskSet,
    /// The deterministic execution-demand model.
    pub exec: ExecutionModel,
}

impl WorkloadCase {
    /// A synthetic case from the literature-default generators.
    ///
    /// # Panics
    ///
    /// Panics if the spec or pattern parameters are out of range (callers
    /// pass experiment constants).
    pub fn synthetic(
        n_tasks: usize,
        utilization: f64,
        pattern: DemandPattern,
        seed: u64,
    ) -> WorkloadCase {
        let tasks = TaskSetSpec::new(n_tasks, utilization)
            .expect("experiment parameters are valid")
            .with_seed(seed)
            .generate()
            .expect("generation succeeds for valid parameters");
        let exec = ExecutionModel::new(pattern)
            .expect("experiment pattern is valid")
            .with_seed(seed ^ 0x5EED_5EED_5EED_5EED);
        WorkloadCase { tasks, exec }
    }

    /// A case over a fixed task set.
    pub fn fixed(tasks: TaskSet, pattern: DemandPattern, seed: u64) -> WorkloadCase {
        let exec = ExecutionModel::new(pattern)
            .expect("experiment pattern is valid")
            .with_seed(seed);
        WorkloadCase { tasks, exec }
    }

    /// A multiprocessor-scale case: the union of `cores` independently
    /// seeded synthetic sets of `n_tasks` tasks at `utilization` each —
    /// total utilization `cores · utilization` over `cores · n_tasks`
    /// tasks, to be re-partitioned by a [`Partitioner`]. Task ids are
    /// global across the union; one [`ExecutionModel`] keyed on those
    /// global ids supplies demand, so a task keeps its demand stream no
    /// matter which core a partitioner assigns it to.
    ///
    /// # Panics
    ///
    /// Panics if the spec or pattern parameters are out of range (callers
    /// pass experiment constants).
    pub fn synthetic_union(
        cores: usize,
        n_tasks: usize,
        utilization: f64,
        pattern: DemandPattern,
        seed: u64,
    ) -> WorkloadCase {
        let mut tasks = Vec::with_capacity(cores * n_tasks);
        for c in 0..cores as u64 {
            let sub = TaskSetSpec::new(n_tasks, utilization)
                .expect("experiment parameters are valid")
                .with_seed(seed ^ (c.wrapping_add(1)).wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .generate()
                .expect("generation succeeds for valid parameters");
            tasks.extend(sub.tasks().iter().cloned());
        }
        let tasks = TaskSet::new(tasks).expect("union of non-empty sets is non-empty");
        let exec = ExecutionModel::new(pattern)
            .expect("experiment pattern is valid")
            .with_seed(seed ^ 0x5EED_5EED_5EED_5EED);
        WorkloadCase { tasks, exec }
    }
}

/// Per-governor result on one workload case.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GovernorOutcome {
    /// Governor (or pseudo-governor) name.
    pub name: String,
    /// Absolute energy, in joules.
    pub energy: f64,
    /// Energy normalized to `no-dvs` on the same workload.
    pub normalized: f64,
    /// Speed switches performed.
    pub switches: u64,
    /// Completed jobs.
    pub jobs: usize,
    /// Deadline misses (attributed + unattributed; must be zero for every
    /// hard-real-time governor on fault-free runs).
    pub misses: usize,
    /// Misses of fault-contaminated jobs. A miss *not* counted here is an
    /// algorithm bug, never an injection artifact.
    pub fault_misses: usize,
    /// Injected WCET overruns detected during the run.
    pub overruns: u64,
    /// Completed overrun-recovery episodes (detection → ready set empty).
    pub recovery_episodes: u64,
    /// Mean recovery latency over those episodes, in seconds (0 if none).
    pub mean_recovery_latency: f64,
}

impl GovernorOutcome {
    /// The totals of `run` over its cores. The recovery latency is the
    /// summed recovery time over the summed episodes, so on one core it is
    /// that core's `FaultReport::mean_recovery_latency`. `normalized` is
    /// left at zero for [`Comparison::lineup`] to fill in.
    fn new(name: &str, run: &PlatformOutcome) -> GovernorOutcome {
        let episodes: u64 = run.cores.iter().map(|c| c.faults.recovery_episodes).sum();
        let recovery_time: f64 = run.cores.iter().map(|c| c.faults.recovery_time).sum();
        GovernorOutcome {
            name: name.to_string(),
            energy: run.total_energy(),
            normalized: 0.0,
            switches: run.switches(),
            jobs: run.completed_jobs(),
            misses: run.miss_count(),
            fault_misses: run.fault_attributed_misses(),
            overruns: run.cores.iter().map(|c| c.faults.overruns).sum(),
            recovery_episodes: episodes,
            mean_recovery_latency: if episodes == 0 {
                0.0
            } else {
                recovery_time / episodes as f64
            },
        }
    }
}

/// Pseudo-governors resolved analytically rather than by simulation.
pub const ORACLE: &str = "oracle-static";
/// The clairvoyant YDS lower bound (not a governor at all).
pub const YDS_BOUND: &str = "yds-bound";

/// A configured comparison: platform, horizon, governor lineup and fault
/// plan.
///
/// Every case runs through one lineup loop on a [`PlatformSim`], with a
/// fresh governor instance per core: a [`WorkloadCase`] on a one-core
/// platform (bit-identical to the uniprocessor `Simulator`), a
/// [`PlatformWorkload`] on the cores of its partition. Energy is
/// normalized against `no-dvs` on the same platform and workload.
#[derive(Debug, Clone)]
pub struct Comparison {
    platform: Platform,
    config: SimConfig,
    governors: Vec<String>,
    fault_plan: FaultPlan,
}

impl Comparison {
    /// Creates a comparison with the [`STANDARD_LINEUP`] on `platform`; a
    /// [`stadvs_power::Processor`] converts into its one-core platform.
    ///
    /// # Panics
    ///
    /// Panics if `horizon` is not a valid simulation horizon (callers pass
    /// experiment constants or validated options).
    pub fn new(platform: impl Into<Platform>, horizon: f64) -> Comparison {
        Comparison {
            platform: platform.into(),
            config: SimConfig::new(horizon).expect("horizon is valid"),
            governors: STANDARD_LINEUP.iter().map(|s| s.to_string()).collect(),
            fault_plan: FaultPlan::NONE,
        }
    }

    /// Replaces the governor lineup (names resolved by [`make_governor`],
    /// plus [`ORACLE`] and [`YDS_BOUND`] on a one-core platform).
    pub fn with_governors<I, S>(mut self, names: I) -> Comparison
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.governors = names.into_iter().map(Into::into).collect();
        self
    }

    /// Injects `plan` into every core of every simulated run — including
    /// the `no-dvs` normalization baseline, so normalized energy is
    /// measured under the *same* degradation, and including the analytic
    /// pseudo-governors' replays. The clairvoyant [`YDS_BOUND`] stays
    /// fault-blind (it is a bound on the nominal workload, not a
    /// simulation).
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Comparison {
        self.fault_plan = plan;
        self
    }

    /// Runs every governor on `case` and returns outcomes in lineup order.
    ///
    /// # Panics
    ///
    /// Panics if the platform has more than one core, if a lineup name is
    /// unknown, if the task set is infeasible, or if a simulation errors
    /// (experiment inputs are constructed feasible; an error here is a bug
    /// worth crashing on).
    pub fn run_case(&self, case: &WorkloadCase) -> Vec<GovernorOutcome> {
        self.run_case_counted(case, &mut PlatformScratch::new()).0
    }

    /// Like [`Comparison::run_case`], but threads `scratch` through every
    /// simulation (so a worker replaying many cases never re-allocates the
    /// engine's buffers) and also returns how many simulations actually
    /// ran.
    ///
    /// The `no-dvs` normalization baseline is simulated exactly once per
    /// case: when `no-dvs` also appears in the lineup, its lineup entry
    /// reuses the baseline outcome instead of re-simulating (the run is
    /// deterministic, so the outcomes would be identical anyway). The
    /// returned count lets a regression test pin this.
    ///
    /// # Panics
    ///
    /// Same as [`Comparison::run_case`].
    pub fn run_case_counted(
        &self,
        case: &WorkloadCase,
        scratch: &mut PlatformScratch,
    ) -> (Vec<GovernorOutcome>, u32) {
        self.run_case_with(case, scratch, |outcome, _| outcome)
    }

    /// [`Comparison::run_case_counted`], mapping each lineup entry's
    /// outcome and its run (`None` for [`YDS_BOUND`], which is not
    /// simulated) through `map`.
    pub(crate) fn run_case_with<T>(
        &self,
        case: &WorkloadCase,
        scratch: &mut PlatformScratch,
        map: impl FnMut(GovernorOutcome, Option<&PlatformOutcome>) -> T,
    ) -> (Vec<T>, u32) {
        let sim = PlatformSim::new(
            self.platform.clone(),
            vec![Some(case.tasks.clone())],
            self.config.clone(),
        )
        .expect("a workload case is a feasible task set on a one-core platform");
        self.lineup(&sim, &[&case.exec], case, scratch, map)
    }

    /// Runs all `cases` (in parallel across worker threads) and aggregates
    /// per-governor means of normalized energy plus totals.
    ///
    /// # Panics
    ///
    /// Same as [`Comparison::run_case`].
    pub fn run_cases(&self, cases: &[WorkloadCase]) -> Vec<AggregatedOutcome> {
        aggregate(&self.governors, &self.run_cases_raw(cases))
    }

    /// Runs all `cases` in parallel and returns the raw per-case outcomes.
    ///
    /// Routed through [`crate::shard::run_sharded`] with one case per
    /// shard: work-stealing over an atomic cursor, one [`PlatformScratch`]
    /// per worker for the engines' buffers, results combined in case order
    /// on the calling thread — the same deterministic shard machinery the
    /// fleet engine streams through, at experiment scale.
    ///
    /// # Panics
    ///
    /// Same as [`Comparison::run_case`].
    pub fn run_cases_raw(&self, cases: &[WorkloadCase]) -> Vec<Vec<GovernorOutcome>> {
        crate::shard::run_sharded(cases.len(), None, PlatformScratch::new, |scratch, i| {
            self.run_case_counted(&cases[i], scratch).0
        })
    }

    /// Runs every governor on each partitioned workload (in parallel, as
    /// [`Comparison::run_cases_raw`] does) and aggregates them like
    /// [`Comparison::run_cases`].
    ///
    /// # Panics
    ///
    /// Panics if a partition was not made for this platform's core count,
    /// if it put an infeasible load on a core, if the lineup holds an
    /// unknown name or an analytic pseudo-governor on a multi-core
    /// platform, or if a simulation errors.
    pub fn run_partitioned(&self, workloads: &[PlatformWorkload]) -> Vec<AggregatedOutcome> {
        let results =
            crate::shard::run_sharded(workloads.len(), None, PlatformScratch::new, |scratch, i| {
                let workload = &workloads[i];
                let (sim, execs) = workload.simulator(&self.platform, self.config.clone());
                self.lineup(&sim, &execs, &workload.case, scratch, |outcome, _| outcome)
                    .0
            });
        aggregate(&self.governors, &results)
    }

    /// The lineup loop every case runs through: `no-dvs` once as the
    /// normalization baseline, then each lineup entry on the same `sim`
    /// and `scratch`, normalized and mapped in lineup order. Returns the
    /// mapped outcomes and the number of simulations run.
    fn lineup<E, T>(
        &self,
        sim: &PlatformSim,
        execs: &[E],
        case: &WorkloadCase,
        scratch: &mut PlatformScratch,
        mut map: impl FnMut(GovernorOutcome, Option<&PlatformOutcome>) -> T,
    ) -> (Vec<T>, u32)
    where
        E: ExecutionSource,
    {
        let mut sims = 0u32;
        let mut simulate = |make: &dyn Fn() -> Box<dyn Governor>| {
            sims += 1;
            sim.run_faulted_with_scratch(|_| make(), execs, &self.fault_plan, scratch)
                .unwrap_or_else(|e| panic!("experiment simulation failed: {e}"))
        };

        // The normalization baseline is always simulated, even if not in
        // the lineup; a `no-dvs` lineup entry reuses it.
        let baseline = simulate(&|| make_governor("no-dvs").expect("no-dvs exists"));
        let baseline_energy = baseline.total_energy();

        // Clairvoyant data, computed only if requested.
        let processor = self.platform.core(0);
        let horizon = self.config.horizon();
        let due_jobs = self
            .governors
            .iter()
            .any(|g| g == ORACLE || g == YDS_BOUND)
            .then(|| {
                assert_eq!(
                    sim.core_count(),
                    1,
                    "{ORACLE} and {YDS_BOUND} bound one core"
                );
                due_within(&materialize_jobs(&case.tasks, &case.exec, horizon), horizon)
            });

        let outcomes = self
            .governors
            .iter()
            .map(|name| {
                let fresh;
                let (mut outcome, run) = match name.as_str() {
                    "no-dvs" => (GovernorOutcome::new(name, &baseline), Some(&baseline)),
                    YDS_BOUND => {
                        let jobs = due_jobs.as_ref().expect("materialized above");
                        let sched = yds_schedule(jobs, WorkKind::Actual);
                        let bound = GovernorOutcome {
                            name: name.clone(),
                            energy: sched.energy(processor.power_model()),
                            switches: sched.blocks.len() as u64,
                            jobs: jobs.len(),
                            ..GovernorOutcome::default()
                        };
                        (bound, None)
                    }
                    ORACLE => {
                        let jobs = due_jobs.as_ref().expect("materialized above");
                        let speed = optimal_static_speed(jobs, WorkKind::Actual)
                            .clamp(processor.min_speed().ratio(), 1.0);
                        let speed = Speed::new(speed).expect("speed in range");
                        fresh = simulate(&|| Box::new(OracleStatic::new(speed)));
                        (GovernorOutcome::new(name, &fresh), Some(&fresh))
                    }
                    _ => {
                        fresh = simulate(&|| {
                            make_governor(name).unwrap_or_else(|| panic!("unknown governor {name}"))
                        });
                        (GovernorOutcome::new(name, &fresh), Some(&fresh))
                    }
                };
                outcome.normalized = outcome.energy / baseline_energy;
                map(outcome, run)
            })
            .collect();
        (outcomes, sims)
    }
}

/// One multiprocessor workload: a union case plus its task-to-core
/// partition.
#[derive(Debug, Clone)]
pub struct PlatformWorkload {
    /// The union task set and its (global-id) demand model.
    pub case: WorkloadCase,
    /// The task-to-core assignment driving the per-core simulators.
    pub partition: PartitionReport,
}

impl PlatformWorkload {
    /// Partitions `case` onto `cores` cores with `partitioner`.
    ///
    /// Rejected tasks are *not* a panic — callers decide whether an
    /// incomplete admission is acceptable via
    /// [`PartitionReport::admitted`].
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero (an experiment-constant error).
    pub fn partitioned(
        case: WorkloadCase,
        partitioner: &dyn Partitioner,
        cores: usize,
    ) -> PlatformWorkload {
        let partition = partitioner
            .partition(&case.tasks, cores)
            .expect("experiment core counts are positive");
        PlatformWorkload { case, partition }
    }

    /// The per-core simulator of this partition on `platform`, and each
    /// core's demand source, through which a task keeps the demand stream
    /// of its union-wide id.
    ///
    /// # Panics
    ///
    /// Panics if `platform` does not have one core per partition entry, or
    /// if the partition put an infeasible load on a core.
    pub fn simulator(
        &self,
        platform: &Platform,
        config: SimConfig,
    ) -> (PlatformSim, Vec<CoreDemand<'_, ExecutionModel>>) {
        let cores = 0..self.partition.cores().len();
        let assignments = cores
            .clone()
            .map(|c| self.partition.core_task_set(&self.case.tasks, c))
            .collect();
        let sim = PlatformSim::new(platform.clone(), assignments, config)
            .unwrap_or_else(|e| panic!("the partition does not fit the platform: {e}"));
        let execs = cores
            .map(|c| self.partition.core_demand(&self.case.exec, c))
            .collect();
        (sim, execs)
    }
}

/// Aggregated per-governor statistics over many cases.
#[derive(Debug, Clone, PartialEq)]
pub struct AggregatedOutcome {
    /// Governor name.
    pub name: String,
    /// Mean normalized energy across cases.
    pub mean_normalized: f64,
    /// Sample standard deviation of normalized energy.
    pub std_normalized: f64,
    /// Speed switches per completed job, averaged across cases.
    pub switches_per_job: f64,
    /// Total deadline misses across all cases (attributed + unattributed;
    /// must be zero on fault-free runs).
    pub total_misses: usize,
    /// Misses of fault-contaminated jobs across all cases. Any excess of
    /// [`AggregatedOutcome::total_misses`] over this is an algorithm bug.
    pub total_fault_misses: usize,
    /// Injected WCET overruns detected across all cases.
    pub total_overruns: u64,
    /// Mean recovery latency across every completed recovery episode of
    /// every case, in seconds (0 when no episode ran).
    pub mean_recovery_latency: f64,
    /// Number of cases aggregated.
    pub cases: usize,
}

/// Aggregates raw per-case outcomes into per-governor statistics.
///
/// Numeric order is part of the contract: `results` arrives in case order
/// (the shard merge in [`crate::shard`] pins it regardless of thread
/// count), every f64 reduction below walks that order left to right, and
/// the golden-pinned CSVs diff these exact bits. No sum here crosses a
/// shard boundary unordered. An aggregation whose terms come from
/// parallel workers must pin their order first, as the fleet engine does:
/// it folds shard-local `stadvs_analysis::NeumaierSum`s and merges them
/// in shard-index order.
fn aggregate(governors: &[String], results: &[Vec<GovernorOutcome>]) -> Vec<AggregatedOutcome> {
    governors
        .iter()
        .enumerate()
        .map(|(gi, name)| {
            let normalized: Vec<f64> = results.iter().map(|r| r[gi].normalized).collect();
            let n = normalized.len().max(1) as f64;
            let mean = normalized.iter().sum::<f64>() / n;
            let var = if normalized.len() > 1 {
                normalized
                    .iter()
                    .map(|v| (v - mean) * (v - mean))
                    .sum::<f64>()
                    / (normalized.len() - 1) as f64
            } else {
                0.0
            };
            let spj: f64 = results
                .iter()
                .map(|r| r[gi].switches as f64 / r[gi].jobs.max(1) as f64)
                .sum::<f64>()
                / n;
            let episodes: u64 = results.iter().map(|r| r[gi].recovery_episodes).sum();
            let recovery_time: f64 = results
                .iter()
                .map(|r| r[gi].mean_recovery_latency * r[gi].recovery_episodes as f64)
                .sum();
            AggregatedOutcome {
                name: name.clone(),
                mean_normalized: mean,
                std_normalized: var.sqrt(),
                switches_per_job: spj,
                total_misses: results.iter().map(|r| r[gi].misses).sum(),
                total_fault_misses: results.iter().map(|r| r[gi].fault_misses).sum(),
                total_overruns: results.iter().map(|r| r[gi].overruns).sum(),
                mean_recovery_latency: if episodes == 0 {
                    0.0
                } else {
                    recovery_time / episodes as f64
                },
                cases: results.len(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use stadvs_power::Processor;
    use stadvs_sim::Simulator;

    fn quick_cases(n: usize) -> Vec<WorkloadCase> {
        (0..n as u64)
            .map(|seed| {
                WorkloadCase::synthetic(4, 0.6, DemandPattern::Uniform { min: 0.4, max: 1.0 }, seed)
            })
            .collect()
    }

    #[test]
    fn comparison_orders_governors_sensibly() {
        let cmp = Comparison::new(Processor::ideal_continuous(), 2.0).with_governors([
            "no-dvs",
            "static-edf",
            "st-edf",
            YDS_BOUND,
        ]);
        let agg = cmp.run_cases(&quick_cases(3));
        assert_eq!(agg.len(), 4);
        let by_name = |n: &str| {
            agg.iter()
                .find(|a| a.name == n)
                .unwrap_or_else(|| panic!("{n} missing"))
        };
        assert!((by_name("no-dvs").mean_normalized - 1.0).abs() < 1e-9);
        assert!(by_name("static-edf").mean_normalized < 1.0);
        assert!(by_name("st-edf").mean_normalized < by_name("static-edf").mean_normalized);
        assert!(by_name(YDS_BOUND).mean_normalized <= by_name("st-edf").mean_normalized + 1e-9);
        for a in &agg {
            assert_eq!(a.total_misses, 0, "{} missed", a.name);
        }
    }

    #[test]
    fn no_dvs_is_simulated_once_per_case() {
        let cmp = Comparison::new(Processor::ideal_continuous(), 1.0).with_governors([
            "no-dvs",
            "static-edf",
            "st-edf",
        ]);
        let case = &quick_cases(1)[0];
        let mut scratch = PlatformScratch::new();
        let (outcomes, sims) = cmp.run_case_counted(case, &mut scratch);
        assert_eq!(outcomes.len(), 3);
        // One baseline no-dvs run (reused for the lineup entry) plus one
        // run each for static-edf and st-edf. A fourth simulation means
        // the double-simulation bug is back.
        assert_eq!(sims, 3);
        assert!((outcomes[0].normalized - 1.0).abs() < 1e-12);

        // Without no-dvs in the lineup the baseline still runs once.
        let cmp2 =
            Comparison::new(Processor::ideal_continuous(), 1.0).with_governors(["static-edf"]);
        let (outcomes2, sims2) = cmp2.run_case_counted(case, &mut scratch);
        assert_eq!(outcomes2.len(), 1);
        assert_eq!(sims2, 2);
    }

    #[test]
    fn parallel_and_serial_agree() {
        let cmp = Comparison::new(Processor::ideal_continuous(), 1.0)
            .with_governors(["no-dvs", "st-edf"]);
        let cases = quick_cases(4);
        let serial: Vec<Vec<GovernorOutcome>> = cases.iter().map(|c| cmp.run_case(c)).collect();
        let parallel = cmp.run_cases_raw(&cases);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn fault_plan_threads_through_every_run() {
        let plan = FaultPlan::new(5).with_overrun(0.5, 1.5).expect("valid");
        let cmp = Comparison::new(Processor::ideal_continuous(), 2.0)
            .with_governors(["no-dvs", "st-edf", ORACLE])
            .with_fault_plan(plan);
        let case = &quick_cases(1)[0];
        let outcomes = cmp.run_case(case);
        let overruns: u64 = outcomes.iter().map(|o| o.overruns).sum();
        assert!(overruns > 0, "p = 0.5 storm injected nothing");
        // Every miss under injection must be fault-attributed.
        for o in &outcomes {
            assert_eq!(o.misses, o.fault_misses, "{}: unattributed miss", o.name);
        }
        // The simulated entries equal direct `Simulator` runs bit for bit
        // (the faults golden prints recovery latency to 4 decimals only).
        let sim = Simulator::new(
            case.tasks.clone(),
            Processor::ideal_continuous(),
            SimConfig::new(2.0).expect("valid"),
        )
        .expect("feasible");
        let direct = |name: &str| {
            let mut governor = make_governor(name).expect("registered");
            sim.run_faulted(governor.as_mut(), &case.exec, &plan)
                .expect("runs")
        };
        let (no_dvs, st_edf) = (direct("no-dvs"), direct("st-edf"));
        assert!(st_edf.faults.recovery_episodes > 1);
        for (o, d) in outcomes.iter().zip([&no_dvs, &st_edf]) {
            assert_eq!(o.energy.to_bits(), d.total_energy().to_bits(), "{}", o.name);
            let normalized = d.total_energy() / no_dvs.total_energy();
            assert_eq!(o.normalized.to_bits(), normalized.to_bits(), "{}", o.name);
            assert_eq!(
                o.recovery_episodes, d.faults.recovery_episodes,
                "{}",
                o.name
            );
            assert_eq!(
                o.mean_recovery_latency.to_bits(),
                d.faults.mean_recovery_latency().to_bits(),
                "{}",
                o.name
            );
        }
        // The default plan is quiet.
        let clean = Comparison::new(Processor::ideal_continuous(), 2.0)
            .with_governors(["no-dvs", "st-edf"])
            .run_case(case);
        for o in &clean {
            assert_eq!(o.overruns, 0, "{}", o.name);
            assert_eq!(o.fault_misses, 0, "{}", o.name);
            assert_eq!(o.misses, 0, "{}", o.name);
        }
    }

    #[test]
    fn partitioned_workloads_run_and_normalize() {
        let case = WorkloadCase::synthetic_union(
            2,
            4,
            0.5,
            DemandPattern::Uniform { min: 0.4, max: 1.0 },
            7,
        );
        assert_eq!(case.tasks.len(), 8);
        let w = PlatformWorkload::partitioned(case, &stadvs_workload::WorstFitDecreasing, 2);
        assert!(w.partition.admitted());
        let platform = Platform::homogeneous(2, Processor::ideal_continuous()).expect("2 cores");
        let agg = Comparison::new(platform, 1.0)
            .with_governors(["no-dvs", "static-edf", "st-edf"])
            .run_partitioned(&[w]);
        assert_eq!(agg.len(), 3);
        assert!((agg[0].mean_normalized - 1.0).abs() < 1e-12);
        assert!(agg[2].mean_normalized < agg[1].mean_normalized);
        for a in &agg {
            assert_eq!(a.total_misses, 0, "{} missed on some core", a.name);
            assert_eq!(a.cases, 1, "{}", a.name);
        }
    }

    #[test]
    fn oracle_is_at_most_any_online_governor_on_average() {
        let cmp = Comparison::new(Processor::ideal_continuous(), 2.0)
            .with_governors(["st-edf", ORACLE, YDS_BOUND]);
        let agg = cmp.run_cases(&quick_cases(3));
        let yds = agg.iter().find(|a| a.name == YDS_BOUND).unwrap();
        let oracle = agg.iter().find(|a| a.name == ORACLE).unwrap();
        assert!(yds.mean_normalized <= oracle.mean_normalized + 1e-9);
        assert_eq!(oracle.total_misses, 0);
    }
}
