//! Simulation results.

use stadvs_power::EnergyBreakdown;

use crate::fault::FaultReport;
use crate::job::JobRecord;
use crate::kernel::KernelStats;
use crate::model::ModelReport;
use crate::trace::Trace;

/// Demand-analysis effort counters reported by governors that run a
/// per-dispatch slack analysis (zero for everything else).
///
/// `events_swept / analyses` is the average number of checkpoint events the
/// incremental analyzer actually visited per dispatch — the pruning-efficacy
/// observable the bench gate and the differential tests track.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AnalysisStats {
    /// Number of demand analyses performed over the run.
    pub analyses: u64,
    /// Total checkpoint events visited across all analyses.
    pub events_swept: u64,
}

/// Everything a finished simulation run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct SimOutcome {
    /// Name of the governor that produced this run.
    pub governor: String,
    /// The simulated horizon, in seconds.
    pub horizon: f64,
    /// Energy totals by component.
    pub energy: EnergyBreakdown,
    /// Number of speed switches performed.
    pub switches: u64,
    /// One record per released job, sorted by (task, index).
    pub jobs: Vec<JobRecord>,
    /// Number of scheduler events processed.
    pub events: u64,
    /// Total time spent executing jobs.
    pub busy_time: f64,
    /// Total time spent idle.
    pub idle_time: f64,
    /// Total time spent in speed transitions.
    pub transition_time: f64,
    /// Injected faults and the resulting degradation (quiet for runs
    /// without fault injection).
    pub faults: FaultReport,
    /// Task-model activity — (m,k) skips, sporadic/frame job counts, frame
    /// miss streaks (quiet for all-hard task sets).
    pub models: ModelReport,
    /// Histogram of same-instant release batch sizes, one increment per
    /// engine step that released at least one job. Buckets: 1, 2, 3, 4,
    /// 5–8, 9–16, 17–32, 33+ releases drained in that step's single
    /// release pass. Diagnostic only (how batched the hyperperiod
    /// lattice actually is).
    pub release_batches: [u64; 8],
    /// Demand-analysis effort counters (quiet for governors without a
    /// per-dispatch slack analysis).
    pub analysis: AnalysisStats,
    /// The core engine's per-kind event accounting, counted as the
    /// simulation kernel counted it when engines ran inside it:
    /// `emitted` = the wakes and notes the engine issued (the seeded
    /// release at t = 0 included), `handled` = the wakes it stepped on.
    /// Notes are counted but never delivered (DESIGN.md §15). Zeroed for
    /// idle cores.
    pub kernel: KernelStats,
    /// The full execution trace, if recording was enabled.
    pub trace: Option<Trace>,
}

impl SimOutcome {
    /// Total energy in joules.
    pub fn total_energy(&self) -> f64 {
        self.energy.total()
    }

    /// Number of jobs that missed their deadline (late completion, or
    /// incomplete at the horizon although due).
    pub fn miss_count(&self) -> usize {
        self.jobs.iter().filter(|j| j.missed(self.horizon)).count()
    }

    /// Whether every due job met its deadline.
    pub fn all_deadlines_met(&self) -> bool {
        self.miss_count() == 0
    }

    /// Number of completed jobs.
    pub fn completed_jobs(&self) -> usize {
        self.jobs.iter().filter(|j| j.completion.is_some()).count()
    }

    /// Total preemptions across all jobs.
    pub fn preemption_count(&self) -> u64 {
        self.jobs.iter().map(|j| u64::from(j.preemptions)).sum()
    }

    /// Speed switches per completed job (`NaN` when no job completed).
    pub fn switches_per_job(&self) -> f64 {
        self.switches as f64 / self.completed_jobs() as f64
    }

    /// The worst (smallest) completion margin `deadline − completion` over
    /// completed jobs, or `None` if nothing completed. Negative values mean
    /// a deadline miss.
    pub fn min_margin(&self) -> Option<f64> {
        self.jobs
            .iter()
            .filter_map(|j| j.completion.map(|c| j.deadline - c))
            .min_by(f64::total_cmp)
    }

    /// Number of deadline misses attributable to injected faults (the
    /// missing job was contaminated by an overrun, aborted, or shed).
    pub fn fault_attributed_misses(&self) -> usize {
        self.jobs
            .iter()
            .filter(|j| j.missed(self.horizon) && self.faults.is_contaminated(j.id))
            .count()
    }

    /// Number of deadline misses **not** attributable to injected faults.
    /// Under fault injection, a non-zero count is an algorithm bug: the
    /// governor lost a deadline no injected fault can excuse.
    pub fn unattributed_misses(&self) -> usize {
        self.jobs
            .iter()
            .filter(|j| j.missed(self.horizon) && !self.faults.is_contaminated(j.id))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobId;
    use crate::task::TaskId;

    fn record(task: usize, completion: Option<f64>, deadline: f64) -> JobRecord {
        JobRecord {
            id: JobId {
                task: TaskId(task),
                index: 0,
            },
            release: 0.0,
            deadline,
            wcet: 1.0,
            actual: 0.5,
            completion,
            wall_time: 1.0,
            preemptions: 2,
        }
    }

    fn outcome(jobs: Vec<JobRecord>) -> SimOutcome {
        SimOutcome {
            governor: "test".to_string(),
            horizon: 100.0,
            energy: EnergyBreakdown {
                active: 1.0,
                idle: 0.5,
                transition: 0.25,
            },
            switches: 4,
            jobs,
            events: 10,
            busy_time: 1.0,
            idle_time: 99.0,
            transition_time: 0.0,
            faults: FaultReport::default(),
            models: ModelReport::default(),
            release_batches: [0; 8],
            analysis: AnalysisStats::default(),
            kernel: KernelStats::default(),
            trace: None,
        }
    }

    #[test]
    fn miss_and_margin_accounting() {
        let o = outcome(vec![
            record(0, Some(5.0), 10.0),
            record(1, Some(12.0), 10.0), // late
            record(2, None, 50.0),       // due but unfinished
            record(3, None, 1000.0),     // not yet due at horizon
        ]);
        assert_eq!(o.miss_count(), 2);
        assert!(!o.all_deadlines_met());
        assert_eq!(o.completed_jobs(), 2);
        assert_eq!(o.preemption_count(), 8);
        assert!((o.total_energy() - 1.75).abs() < 1e-12);
        assert_eq!(o.min_margin(), Some(-2.0));
        assert!((o.switches_per_job() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn clean_run_reports_no_misses() {
        let o = outcome(vec![record(0, Some(5.0), 10.0)]);
        assert!(o.all_deadlines_met());
        assert_eq!(o.min_margin(), Some(5.0));
    }
}
