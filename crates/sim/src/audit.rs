//! Fault-aware post-hoc audit of simulation outcomes.
//!
//! The analysis crate's `validate_outcome` referees *fault-free* runs: it
//! insists on zero misses and an exactly periodic release pattern, both of
//! which injected faults legitimately break. [`audit_outcome`] is the
//! referee for runs produced by [`Simulator::run_faulted`]
//! (crate::Simulator::run_faulted): it knows which degradations the
//! [`FaultPlan`] licenses and flags everything else —
//!
//! * a deadline miss by a hard or sporadic job the fault report does
//!   **not** mark as contaminated is an algorithm bug, never an excusable
//!   fault (weakly-hard jobs are judged by their (m,k) window instead, and
//!   frame misses feed the miss-streak statistics — see the task-model
//!   referee below);
//! * release instants must follow the plan's pattern: exactly periodic
//!   without jitter, delay-only with sporadic separation (`r_{k+1} ≥ r_k +
//!   T`) with it;
//! * every deadline must stay anchored to its (possibly jittered) release;
//! * demand above WCET is only legal when the plan has an overrun channel,
//!   and every such job must be contaminated;
//! * per-task job indices must be contiguous from zero — the engine may
//!   shed a release under `SkipNext`, but it must still *record* it.
//!
//! With [`FaultPlan::none`] the audit degenerates to the strict hard
//! real-time check (any miss at all is an issue), so the same checker backs
//! both the fault differential tests and the classic guarantee proptests.

use std::fmt;

use crate::fault::FaultPlan;
use crate::job::JobId;
use crate::model::mk_skip_allowed;
use crate::outcome::SimOutcome;
use crate::simulator::TIME_EPS;
use crate::task::{TaskKind, TaskSet};
use crate::SimError;

const TOL: f64 = 1.0e-6;

/// Incremental sliding-window (m,k)-firm contract checker.
///
/// Feed job outcomes in index order with [`MkWindow::record`]; after each
/// outcome, [`MkWindow::violated`] reports whether the window of the last
/// `k` jobs has fewer than `m` deadlines met. [`MkWindow::skip_allowed`]
/// implements the simulator's skip-admissibility rule for the *next* job:
/// a skip is licensed iff at least `m` of the trailing `k − 1` outcomes met
/// (outcomes before job 0 count as met) — sufficient to keep every
/// `k`-window at `≥ m` met as long as non-skipped jobs meet their
/// deadlines. This is the standalone checker the audit replays and the
/// model differential harnesses pin.
///
/// ```
/// use stadvs_sim::MkWindow;
///
/// # fn main() -> Result<(), stadvs_sim::SimError> {
/// let mut w = MkWindow::new(1, 2)?; // at least 1 of every 2 jobs
/// assert!(w.skip_allowed()); // virtual mets before job 0
/// w.record(false); // skip job 0
/// assert!(!w.skip_allowed()); // skipping job 1 too would violate
/// w.record(true);
/// assert!(!w.violated());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MkWindow {
    m: u32,
    k: u32,
    /// Outcome ring: bit `index % 64` is set iff that job met its deadline.
    /// `k ≤ 64` keeps every window access collision-free.
    bits: u64,
    /// Outcomes recorded so far (= the index of the next job).
    count: u64,
}

impl MkWindow {
    /// Creates a checker for an (m,k) contract.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] unless `1 ≤ m ≤ k ≤ 64` (the
    /// same bounds [`Task::weakly_hard`](crate::Task::weakly_hard)
    /// enforces).
    pub fn new(m: u32, k: u32) -> Result<MkWindow, SimError> {
        if m == 0 || m > k {
            return Err(SimError::InvalidConfig {
                field: "weakly_hard_m",
                value: f64::from(m),
            });
        }
        if k > 64 {
            return Err(SimError::InvalidConfig {
                field: "weakly_hard_k",
                value: f64::from(k),
            });
        }
        Ok(MkWindow {
            m,
            k,
            bits: 0,
            count: 0,
        })
    }

    /// The contract's minimum deadlines met per window.
    pub fn m(&self) -> u32 {
        self.m
    }

    /// The contract's window length.
    pub fn k(&self) -> u32 {
        self.k
    }

    /// Outcomes recorded so far (= the index of the next job).
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether shedding the *next* job (index [`MkWindow::count`]) keeps
    /// the contract satisfiable: at least `m` of the trailing `k − 1`
    /// outcomes met their deadline (outcomes before job 0 count as met).
    pub fn skip_allowed(&self) -> bool {
        mk_skip_allowed(self.bits, self.count, self.m, self.k)
    }

    /// Records the next job's outcome (`met` = completed by its deadline;
    /// skipped and shed jobs count as losses).
    pub fn record(&mut self, met: bool) {
        let bit = 1u64 << (self.count % 64);
        if met {
            self.bits |= bit;
        } else {
            self.bits &= !bit;
        }
        self.count += 1;
    }

    /// Deadlines met in the most recent *full* window of `k` outcomes, or
    /// `None` while fewer than `k` outcomes have been recorded.
    pub fn window_met(&self) -> Option<u32> {
        if self.count < u64::from(self.k) {
            return None;
        }
        let mut met = 0u32;
        for j in (self.count - u64::from(self.k))..self.count {
            met += ((self.bits >> (j % 64)) & 1) as u32;
        }
        Some(met)
    }

    /// Whether the most recent full window violates the contract
    /// (`window_met < m`). Always `false` before `k` outcomes exist.
    pub fn violated(&self) -> bool {
        self.window_met().is_some_and(|met| met < self.m)
    }

    /// Ring-position mask (bit `index % 64`) of the *losses* among the most
    /// recent `min(k, count)` outcomes. The audit intersects this with its
    /// contamination ring to decide whether a violation is fault-excused.
    pub fn window_loss_mask(&self) -> u64 {
        let span = u64::from(self.k).min(self.count);
        let mut mask = 0u64;
        for j in (self.count - span)..self.count {
            let bit = 1u64 << (j % 64);
            if self.bits & bit == 0 {
                mask |= bit;
            }
        }
        mask
    }
}

/// One problem found while auditing a (possibly fault-injected) outcome.
#[derive(Debug, Clone, PartialEq)]
pub enum AuditIssue {
    /// A job missed its deadline without being contaminated by an injected
    /// fault — an algorithm bug, not an excusable degradation.
    UnattributedMiss {
        /// The offending job.
        job: JobId,
        /// Completion time (the horizon if it never completed).
        completed: f64,
        /// The job's absolute deadline.
        deadline: f64,
    },
    /// A release instant does not follow the plan's release pattern
    /// (early release, or a drifted instant without a jitter channel).
    ReleasePatternViolation {
        /// The offending job.
        job: JobId,
        /// The nominal (unjittered) release instant.
        nominal: f64,
        /// The recorded release instant.
        found: f64,
    },
    /// Two consecutive releases of one task are closer than the period —
    /// jitter may only *delay*, never compress.
    SeparationViolation {
        /// The offending (later) job.
        job: JobId,
        /// The observed inter-release gap.
        gap: f64,
        /// The task's period.
        period: f64,
    },
    /// A job's deadline is not anchored at `release + D`.
    DeadlineAnchorViolation {
        /// The offending job.
        job: JobId,
        /// `release + D` for the recorded release.
        expected: f64,
        /// The recorded absolute deadline.
        found: f64,
    },
    /// Per-task job indices are not contiguous from zero.
    IndexGap {
        /// The task whose record stream has the gap.
        task: usize,
        /// The first missing index.
        missing: u64,
    },
    /// A job's demand exceeds its WCET although the plan's own overrun
    /// draw for that job does not license one.
    IllegalOverrun {
        /// The offending job.
        job: JobId,
        /// The recorded actual demand.
        actual: f64,
        /// The job's WCET.
        wcet: f64,
    },
    /// A weakly-hard task's (m,k) contract was violated — a full window of
    /// `k` consecutive jobs with fewer than `m` deadlines met — and no loss
    /// in the window is fault-contaminated.
    MkViolation {
        /// The offending task.
        task: usize,
        /// Index of the job ending the violating window.
        end_index: u64,
        /// Deadlines met in that window.
        met: u32,
        /// The contract's required minimum.
        m: u32,
        /// The contract's window length.
        k: u32,
    },
    /// A weakly-hard job was skipped although the skip-admissibility rule
    /// did not license it (the window could no longer absorb the loss).
    IllegalSkip {
        /// The skipped job.
        job: JobId,
    },
    /// The fault report's counters disagree with its event list.
    InconsistentReport {
        /// Which counter disagrees.
        counter: &'static str,
        /// The counter's value.
        counted: u64,
        /// The value recomputed from the event list.
        recomputed: u64,
    },
}

impl fmt::Display for AuditIssue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuditIssue::UnattributedMiss {
                job,
                completed,
                deadline,
            } => write!(
                f,
                "job {job} missed deadline {deadline} (done {completed}) without fault attribution"
            ),
            AuditIssue::ReleasePatternViolation {
                job,
                nominal,
                found,
            } => write!(
                f,
                "job {job} released at {found}, violating the plan's pattern (nominal {nominal})"
            ),
            AuditIssue::SeparationViolation { job, gap, period } => {
                write!(
                    f,
                    "job {job} released {gap} after its predecessor (< period {period})"
                )
            }
            AuditIssue::DeadlineAnchorViolation {
                job,
                expected,
                found,
            } => write!(
                f,
                "job {job} deadline {found} not anchored at release + D = {expected}"
            ),
            AuditIssue::IndexGap { task, missing } => {
                write!(f, "task T{task} record stream skips index {missing}")
            }
            AuditIssue::IllegalOverrun { job, actual, wcet } => {
                write!(
                    f,
                    "job {job} demand {actual} > WCET {wcet} without a licensed overrun"
                )
            }
            AuditIssue::MkViolation {
                task,
                end_index,
                met,
                m,
                k,
            } => write!(
                f,
                "task T{task} violated its ({m},{k}) contract: window ending at #{end_index} met only {met}"
            ),
            AuditIssue::IllegalSkip { job } => {
                write!(f, "job {job} was skipped without (m,k) license")
            }
            AuditIssue::InconsistentReport {
                counter,
                counted,
                recomputed,
            } => write!(
                f,
                "fault counter {counter} = {counted} but the event list says {recomputed}"
            ),
        }
    }
}

/// The result of auditing one outcome against its fault plan.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AuditReport {
    /// All problems found (empty for a clean run).
    pub issues: Vec<AuditIssue>,
    /// Number of job records audited.
    pub jobs_checked: usize,
    /// Number of fault-attributed (excused) deadline misses observed.
    pub attributed_misses: usize,
}

impl AuditReport {
    /// Whether the outcome passed every check. Fault-attributed misses do
    /// **not** make a run unclean — that is the point of attribution.
    pub fn is_clean(&self) -> bool {
        self.issues.is_empty()
    }
}

impl fmt::Display for AuditReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            write!(
                f,
                "clean ({} jobs audited, {} fault-attributed misses)",
                self.jobs_checked, self.attributed_misses
            )
        } else {
            writeln!(
                f,
                "{} issue(s) over {} jobs ({} attributed misses):",
                self.issues.len(),
                self.jobs_checked,
                self.attributed_misses
            )?;
            for i in &self.issues {
                writeln!(f, "  - {i}")?;
            }
            Ok(())
        }
    }
}

/// Audits `outcome` against the task set and the fault plan that produced
/// it. See the module docs for the exact checks.
pub fn audit_outcome(outcome: &SimOutcome, tasks: &TaskSet, plan: &FaultPlan) -> AuditReport {
    let mut report = AuditReport {
        issues: Vec::new(),
        jobs_checked: outcome.jobs.len(),
        attributed_misses: 0,
    };
    let horizon = outcome.horizon;
    let jittered = plan.has_jitter();

    // 1. Miss attribution, per task model: a hard or sporadic job's miss
    //    must be fault-contaminated (with the no-fault plan the
    //    contaminated set is empty, so this degenerates to "no miss at
    //    all"). Weakly-hard misses are judged by their (m,k) window in
    //    step 3 instead, and frame misses are tolerated by the model (they
    //    feed the miss-streak statistics, also checked in step 3).
    for r in &outcome.jobs {
        if r.missed(horizon) {
            if outcome.faults.is_contaminated(r.id) {
                report.attributed_misses += 1;
            } else if matches!(
                tasks.task(r.id.task).kind(),
                TaskKind::Hard | TaskKind::Sporadic { .. }
            ) {
                report.issues.push(AuditIssue::UnattributedMiss {
                    job: r.id,
                    completed: r.completion.unwrap_or(horizon),
                    deadline: r.deadline,
                });
            }
        }
    }

    // 2. Per-task release pattern, deadlines, index contiguity, and
    //    overrun licensing. Records are sorted by (task, index).
    for (tid, task) in tasks.iter() {
        let sporadic = matches!(task.kind(), TaskKind::Sporadic { .. });
        let mut expected_index = 0u64;
        let mut prev_release: Option<f64> = None;
        for r in outcome.jobs.iter().filter(|r| r.id.task == tid) {
            if r.id.index != expected_index {
                report.issues.push(AuditIssue::IndexGap {
                    task: tid.0,
                    missing: expected_index,
                });
                expected_index = r.id.index;
            }
            let nominal = task.release_of(r.id.index);
            let tol = TOL.max(TIME_EPS * (r.id.index + 1) as f64);
            if sporadic {
                // Sporadic recurrence: each release trails its predecessor
                // by the task's seeded gap — exactly (the engine accumulates
                // the same sum) without jitter, by at least the gap with it.
                // Arrivals also never precede the periodic lattice.
                if r.release < nominal - tol {
                    report.issues.push(AuditIssue::ReleasePatternViolation {
                        job: r.id,
                        nominal,
                        found: r.release,
                    });
                }
                match prev_release {
                    None => {
                        let anchored = !jittered && (r.release - task.phase()).abs() > tol;
                        let delayed = jittered && r.release < task.phase() - tol;
                        if r.id.index == 0 && (anchored || delayed) {
                            report.issues.push(AuditIssue::ReleasePatternViolation {
                                job: r.id,
                                nominal: task.phase(),
                                found: r.release,
                            });
                        }
                    }
                    Some(prev) => {
                        let gap_min = task.arrival_gap(r.id.index);
                        let gap = r.release - prev;
                        let drifted = !jittered && (gap - gap_min).abs() > tol;
                        let compressed = jittered && gap < gap_min - tol;
                        if drifted || compressed {
                            report.issues.push(AuditIssue::SeparationViolation {
                                job: r.id,
                                gap,
                                period: gap_min,
                            });
                        }
                    }
                }
            } else if jittered {
                // Jitter is delay-only: never early.
                if r.release < nominal - tol {
                    report.issues.push(AuditIssue::ReleasePatternViolation {
                        job: r.id,
                        nominal,
                        found: r.release,
                    });
                }
                if let Some(prev) = prev_release {
                    let gap = r.release - prev;
                    if gap < task.period() - tol {
                        report.issues.push(AuditIssue::SeparationViolation {
                            job: r.id,
                            gap,
                            period: task.period(),
                        });
                    }
                }
            } else if (r.release - nominal).abs() > tol {
                report.issues.push(AuditIssue::ReleasePatternViolation {
                    job: r.id,
                    nominal,
                    found: r.release,
                });
            }
            let anchored = r.release + task.deadline();
            if (r.deadline - anchored).abs() > tol {
                report.issues.push(AuditIssue::DeadlineAnchorViolation {
                    job: r.id,
                    expected: anchored,
                    found: r.deadline,
                });
            }
            // A demand above WCET is licensed by *recomputing the plan's
            // own draw* — not by the run's contamination marks, which only
            // appear once the job executes past its budget (a job drained
            // at the horizon may carry an injected overrun it never
            // reached).
            if r.actual > r.wcet + TOL && plan.overrun_factor(r.id.task, r.id.index) <= 1.0 {
                report.issues.push(AuditIssue::IllegalOverrun {
                    job: r.id,
                    actual: r.actual,
                    wcet: r.wcet,
                });
            }
            prev_release = Some(r.release);
            expected_index += 1;
        }
    }

    // 3. Task-model referee: replay every weakly-hard task's (m,k) window
    //    (skipped and shed jobs count as losses), license every recorded
    //    skip against the admissibility rule, and recompute the frame
    //    miss-streak statistics. A window violation is excused only when a
    //    loss inside the window is fault-contaminated.
    let mut wh_jobs = 0u64;
    let mut sp_jobs = 0u64;
    let mut fr_jobs = 0u64;
    let mut frame_misses = 0u64;
    let mut max_streak = 0u64;
    for (tid, task) in tasks.iter() {
        match task.kind() {
            TaskKind::Hard => {}
            TaskKind::Sporadic { .. } => {
                sp_jobs += outcome.jobs.iter().filter(|r| r.id.task == tid).count() as u64;
            }
            TaskKind::Frame { .. } => {
                let mut streak = 0u64;
                for r in outcome.jobs.iter().filter(|r| r.id.task == tid) {
                    fr_jobs += 1;
                    // Streaks advance only at completions, mirroring the
                    // engine (a job drained at the horizon updates nothing).
                    if r.completion.is_some() {
                        if r.missed(horizon) {
                            streak += 1;
                            frame_misses += 1;
                            max_streak = max_streak.max(streak);
                        } else {
                            streak = 0;
                        }
                    }
                }
            }
            TaskKind::WeaklyHard { m, k } => {
                // The task was admitted with these bounds, so the checker
                // construction cannot fail; fall back to a degenerate
                // always-satisfied contract rather than panicking.
                let mut window = MkWindow::new(m, k).unwrap_or(MkWindow {
                    m: 0,
                    k: 1,
                    bits: 0,
                    count: 0,
                });
                let mut contam_bits = 0u64;
                for r in outcome.jobs.iter().filter(|r| r.id.task == tid) {
                    wh_jobs += 1;
                    let skipped = outcome.models.is_skipped(r.id);
                    if skipped && !window.skip_allowed() {
                        report.issues.push(AuditIssue::IllegalSkip { job: r.id });
                    }
                    let met = !skipped && !r.missed(horizon);
                    let bit = 1u64 << (r.id.index % 64);
                    if outcome.faults.is_contaminated(r.id) {
                        contam_bits |= bit;
                    } else {
                        contam_bits &= !bit;
                    }
                    window.record(met);
                    if window.violated() && window.window_loss_mask() & contam_bits == 0 {
                        report.issues.push(AuditIssue::MkViolation {
                            task: tid.0,
                            end_index: r.id.index,
                            met: window.window_met().unwrap_or(0),
                            m,
                            k,
                        });
                    }
                }
            }
        }
    }
    for (counter, counted, recomputed) in [
        (
            "model_skips",
            outcome.models.skips,
            outcome.models.skipped.len() as u64,
        ),
        ("weakly_hard_jobs", outcome.models.weakly_hard_jobs, wh_jobs),
        ("sporadic_jobs", outcome.models.sporadic_jobs, sp_jobs),
        ("frame_jobs", outcome.models.frame_jobs, fr_jobs),
        ("frame_misses", outcome.models.frame_misses, frame_misses),
        (
            "max_frame_miss_streak",
            outcome.models.max_frame_miss_streak,
            max_streak,
        ),
    ] {
        if counted != recomputed {
            report.issues.push(AuditIssue::InconsistentReport {
                counter,
                counted,
                recomputed,
            });
        }
    }

    // 4. Internal consistency of the fault report: counters must match the
    //    event list they summarize.
    for (counter, counted, recomputed) in [
        (
            "overruns",
            outcome.faults.overruns,
            count_events(outcome, |k| {
                matches!(k, crate::fault::FaultKind::WcetOverrun { .. })
            }),
        ),
        (
            "aborted",
            outcome.faults.aborted,
            count_events(outcome, |k| matches!(k, crate::fault::FaultKind::Aborted)),
        ),
        (
            "skipped_releases",
            outcome.faults.skipped_releases,
            count_events(outcome, |k| {
                matches!(k, crate::fault::FaultKind::SkippedRelease)
            }),
        ),
        (
            "forced_full_speed",
            outcome.faults.forced_full_speed,
            count_events(outcome, |k| {
                matches!(k, crate::fault::FaultKind::ForcedFullSpeed)
            }),
        ),
        (
            "dropped_switches",
            outcome.faults.dropped_switches,
            count_events(outcome, |k| {
                matches!(k, crate::fault::FaultKind::DroppedSwitch)
            }),
        ),
        (
            "jittered_releases",
            outcome.faults.jittered_releases,
            count_events(outcome, |k| {
                matches!(k, crate::fault::FaultKind::JitteredRelease { .. })
            }),
        ),
    ] {
        if counted != recomputed {
            report.issues.push(AuditIssue::InconsistentReport {
                counter,
                counted,
                recomputed,
            });
        }
    }

    report
}

fn count_events(outcome: &SimOutcome, pred: impl Fn(&crate::fault::FaultKind) -> bool) -> u64 {
    outcome
        .faults
        .events
        .iter()
        .filter(|e| pred(&e.kind))
        .count() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{ConstantRatio, WorstCase};
    use crate::fault::OverrunPolicy;
    use crate::governor::{Governor, SchedulerView};
    use crate::job::ActiveJob;
    use crate::simulator::{SimConfig, Simulator};
    use crate::task::Task;
    use stadvs_power::{Processor, Speed};

    struct FullSpeed;
    impl Governor for FullSpeed {
        fn name(&self) -> &str {
            "full"
        }
        fn select_speed(&mut self, _: &SchedulerView<'_>, _: &ActiveJob) -> Speed {
            Speed::FULL
        }
    }

    fn tasks() -> TaskSet {
        TaskSet::new(vec![
            Task::new(1.0, 4.0).unwrap(),
            Task::new(2.0, 8.0).unwrap(),
        ])
        .unwrap()
    }

    fn sim(horizon: f64) -> Simulator {
        Simulator::new(
            tasks(),
            Processor::ideal_continuous(),
            SimConfig::new(horizon).unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn clean_no_fault_run_audits_clean() {
        let out = sim(32.0)
            .run(&mut FullSpeed, &ConstantRatio::new(0.6))
            .unwrap();
        let report = audit_outcome(&out, &tasks(), &FaultPlan::NONE);
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.jobs_checked, 12);
        assert_eq!(report.attributed_misses, 0);
        assert!(report.to_string().contains("clean"));
    }

    #[test]
    fn unattributed_miss_is_flagged() {
        // Force a miss by hand: no fault plan, so no contamination.
        let mut out = sim(32.0).run(&mut FullSpeed, &WorstCase).unwrap();
        out.jobs[0].completion = Some(out.jobs[0].deadline + 1.0);
        let report = audit_outcome(&out, &tasks(), &FaultPlan::NONE);
        assert!(report
            .issues
            .iter()
            .any(|i| matches!(i, AuditIssue::UnattributedMiss { .. })));
    }

    #[test]
    fn overrun_run_audits_clean_and_attributes() {
        let plan = FaultPlan::new(11)
            .with_overrun(0.5, 3.0)
            .unwrap()
            .with_policy_override(OverrunPolicy::CompleteAtMax);
        let out = sim(64.0)
            .run_faulted(&mut FullSpeed, &WorstCase, &plan)
            .unwrap();
        assert!(out.faults.overruns > 0, "seed must inject at least once");
        let report = audit_outcome(&out, &tasks(), &plan);
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.attributed_misses, out.fault_attributed_misses());
        assert_eq!(out.unattributed_misses(), 0);
    }

    #[test]
    fn jittered_run_audits_clean() {
        let plan = FaultPlan::new(5).with_release_jitter(0.6, 0.4).unwrap();
        let out = sim(64.0)
            .run_faulted(&mut FullSpeed, &WorstCase, &plan)
            .unwrap();
        assert!(out.faults.jittered_releases > 0, "seed must jitter");
        let report = audit_outcome(&out, &tasks(), &plan);
        assert!(report.is_clean(), "{report}");
        // Jitter alone must never cause a miss under a full-speed governor.
        assert!(out.all_deadlines_met());
    }

    #[test]
    fn early_release_is_flagged_under_jitter() {
        let plan = FaultPlan::new(5).with_release_jitter(0.6, 0.4).unwrap();
        let mut out = sim(64.0)
            .run_faulted(&mut FullSpeed, &WorstCase, &plan)
            .unwrap();
        out.jobs[1].release -= 1.0; // earlier than nominal: illegal
        let report = audit_outcome(&out, &tasks(), &plan);
        assert!(!report.is_clean());
    }

    #[test]
    fn drifted_release_is_flagged_without_jitter() {
        let mut out = sim(32.0).run(&mut FullSpeed, &WorstCase).unwrap();
        out.jobs[1].release += 0.5;
        let report = audit_outcome(&out, &tasks(), &FaultPlan::NONE);
        assert!(report
            .issues
            .iter()
            .any(|i| matches!(i, AuditIssue::ReleasePatternViolation { .. })));
    }

    #[test]
    fn unlicensed_overrun_is_flagged() {
        let mut out = sim(32.0).run(&mut FullSpeed, &WorstCase).unwrap();
        out.jobs[0].actual = out.jobs[0].wcet * 2.0;
        let report = audit_outcome(&out, &tasks(), &FaultPlan::NONE);
        assert!(report
            .issues
            .iter()
            .any(|i| matches!(i, AuditIssue::IllegalOverrun { .. })));
    }

    #[test]
    fn index_gap_is_flagged() {
        let mut out = sim(32.0).run(&mut FullSpeed, &WorstCase).unwrap();
        out.jobs.remove(1); // drop T0#1: indices 0, 2, 3, ...
        let report = audit_outcome(&out, &tasks(), &FaultPlan::NONE);
        assert!(report
            .issues
            .iter()
            .any(|i| matches!(i, AuditIssue::IndexGap { .. })));
    }

    #[test]
    fn inconsistent_counters_are_flagged() {
        let plan = FaultPlan::new(11).with_overrun(0.5, 3.0).unwrap();
        let mut out = sim(64.0)
            .run_faulted(&mut FullSpeed, &WorstCase, &plan)
            .unwrap();
        out.faults.overruns += 1;
        let report = audit_outcome(&out, &tasks(), &plan);
        assert!(report
            .issues
            .iter()
            .any(|i| matches!(i, AuditIssue::InconsistentReport { .. })));
    }

    /// Naive (m,k) reference: replay `history` and report whether any full
    /// window of `k` consecutive outcomes has fewer than `m` met.
    fn naive_violated(history: &[bool], m: u32, k: u32) -> bool {
        let k = k as usize;
        history.len() >= k
            && history
                .windows(k)
                .any(|w| (w.iter().filter(|&&met| met).count() as u32) < m)
    }

    /// Naive skip-admissibility reference: at least `m` of the trailing
    /// `k − 1` outcomes met, with virtual mets before job 0.
    fn naive_skip_allowed(history: &[bool], m: u32, k: u32) -> bool {
        let lookback = (k - 1) as usize;
        let real = lookback.min(history.len());
        let virtual_met = (lookback - real) as u32;
        let met: u32 = history[history.len() - real..]
            .iter()
            .filter(|&&met| met)
            .count() as u32;
        virtual_met + met >= m
    }

    #[test]
    fn mk_window_matches_naive_exhaustively() {
        // Every (m, k) with k ≤ 4 against every outcome sequence of length
        // 8: violated() and skip_allowed() must agree with the naive
        // reference at every prefix.
        for k in 1u32..=4 {
            for m in 1..=k {
                for seq in 0u32..(1 << 8) {
                    let mut w = MkWindow::new(m, k).unwrap();
                    let mut history: Vec<bool> = Vec::new();
                    for j in 0..8 {
                        assert_eq!(
                            w.skip_allowed(),
                            naive_skip_allowed(&history, m, k),
                            "skip mismatch m={m} k={k} seq={seq:08b} at {j}"
                        );
                        let met = seq & (1 << j) != 0;
                        w.record(met);
                        history.push(met);
                        // `violated` sees only the latest window; the naive
                        // check over just that window must agree.
                        let tail = &history[history.len().saturating_sub(k as usize)..];
                        assert_eq!(
                            w.violated(),
                            naive_violated(tail, m, k),
                            "violation mismatch m={m} k={k} seq={seq:08b} at {j}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn mk_window_ring_wraps_past_64() {
        // The ring reuses bit positions mod 64; feed 200 outcomes to a
        // (3,5) contract and check every step against the naive reference.
        let mut w = MkWindow::new(3, 5).unwrap();
        let mut history: Vec<bool> = Vec::new();
        for j in 0u64..200 {
            assert_eq!(w.skip_allowed(), naive_skip_allowed(&history, 3, 5));
            let met = (j * 7 + 3) % 5 != 0; // aperiodic vs the window length
            w.record(met);
            history.push(met);
            let tail = &history[history.len().saturating_sub(5)..];
            assert_eq!(w.violated(), naive_violated(tail, 3, 5), "at {j}");
        }
        assert_eq!(w.count(), 200);
    }

    #[test]
    fn mk_window_boundary_cases() {
        // Window-boundary off-by-ones: the k-th outcome completes the first
        // full window; the (k+1)-th slides it by exactly one.
        let mut w = MkWindow::new(2, 3).unwrap();
        w.record(false);
        w.record(true);
        assert_eq!(w.window_met(), None, "no full window before k outcomes");
        assert!(!w.violated());
        w.record(true);
        assert_eq!(w.window_met(), Some(2), "first full window at count = k");
        assert!(!w.violated());
        w.record(false);
        // Window is now {true, true, false}: the leading loss slid out.
        assert_eq!(w.window_met(), Some(2));
        assert!(!w.violated());
        w.record(false);
        assert_eq!(w.window_met(), Some(1));
        assert!(w.violated());

        // (k,k) tolerates no loss at all once a full window exists.
        let mut strict = MkWindow::new(2, 2).unwrap();
        assert!(!strict.skip_allowed(), "skip would lose 1 of the next 2");
        strict.record(true);
        strict.record(false);
        assert!(strict.violated());

        // (1,1): every job must meet — skips are never licensed, and any
        // loss violates immediately.
        let mut one = MkWindow::new(1, 1).unwrap();
        assert!(!one.skip_allowed());
        one.record(false);
        assert!(one.violated());

        // Startup virtual mets: with (2,4) the first two jobs may both be
        // skipped (losses), the third may not.
        let mut startup = MkWindow::new(2, 4).unwrap();
        assert!(startup.skip_allowed());
        startup.record(false);
        assert!(startup.skip_allowed());
        startup.record(false);
        assert!(!startup.skip_allowed());
    }

    #[test]
    fn mk_window_validates_bounds() {
        assert!(MkWindow::new(0, 4).is_err());
        assert!(MkWindow::new(5, 4).is_err());
        assert!(MkWindow::new(1, 65).is_err());
        assert!(MkWindow::new(64, 64).is_ok());
        let w = MkWindow::new(2, 6).unwrap();
        assert_eq!((w.m(), w.k(), w.count()), (2, 6, 0));
    }

    #[test]
    fn mk_window_loss_mask_tracks_losses() {
        let mut w = MkWindow::new(1, 3).unwrap();
        w.record(false); // index 0: loss
        w.record(true); // index 1
        w.record(false); // index 2: loss
        assert_eq!(w.window_loss_mask(), 0b101);
        w.record(true); // index 3; window = {1, 2, 3}
        assert_eq!(w.window_loss_mask(), 0b100);
    }

    fn mixed_tasks() -> TaskSet {
        TaskSet::new(vec![
            Task::new(1.0, 4.0).unwrap(),
            Task::new(1.0, 4.0).unwrap().weakly_hard(1, 2).unwrap(),
        ])
        .unwrap()
    }

    fn mixed_run(horizon: f64) -> SimOutcome {
        Simulator::new(
            mixed_tasks(),
            Processor::ideal_continuous(),
            SimConfig::new(horizon).unwrap(),
        )
        .unwrap()
        .run(&mut FullSpeed, &WorstCase)
        .unwrap()
    }

    #[test]
    fn mixed_model_run_audits_clean() {
        let out = mixed_run(32.0);
        // Greedy (1,2) skipping alternates: even indices licensed and shed.
        assert_eq!(out.models.skips, 4, "{:?}", out.models);
        assert_eq!(out.models.weakly_hard_jobs, 8);
        let report = audit_outcome(&out, &mixed_tasks(), &FaultPlan::NONE);
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn illegal_skip_is_flagged() {
        let mut out = mixed_run(32.0);
        // Pretend the engine also shed job T1#1 — right after the licensed
        // skip of T1#0, which the (1,2) window cannot absorb.
        let illegal = JobId {
            task: crate::task::TaskId(1),
            index: 1,
        };
        assert!(!out.models.is_skipped(illegal));
        out.models.skipped.push(illegal);
        out.models.skipped.sort_unstable();
        out.models.skips = out.models.skipped.len() as u64;
        let report = audit_outcome(&out, &mixed_tasks(), &FaultPlan::NONE);
        assert!(report
            .issues
            .iter()
            .any(|i| matches!(i, AuditIssue::IllegalSkip { job } if *job == illegal)));
    }

    #[test]
    fn mk_violation_is_flagged_for_uncontaminated_miss() {
        let mut out = mixed_run(32.0);
        // Make the executed job T1#1 late: the (1,2) window {skip, miss}
        // drops below m = 1 with no fault to excuse it.
        let r = out
            .jobs
            .iter_mut()
            .find(|r| r.id.task == crate::task::TaskId(1) && r.id.index == 1)
            .unwrap();
        r.completion = Some(r.deadline + 1.0);
        let report = audit_outcome(&out, &mixed_tasks(), &FaultPlan::NONE);
        assert!(report.issues.iter().any(|i| matches!(
            i,
            AuditIssue::MkViolation {
                task: 1,
                end_index: 1,
                met: 0,
                m: 1,
                k: 2,
            }
        )));
    }

    #[test]
    fn tampered_model_counters_are_flagged() {
        let mut out = mixed_run(32.0);
        out.models.weakly_hard_jobs += 1;
        let report = audit_outcome(&out, &mixed_tasks(), &FaultPlan::NONE);
        assert!(report.issues.iter().any(|i| matches!(
            i,
            AuditIssue::InconsistentReport {
                counter: "weakly_hard_jobs",
                ..
            }
        )));
    }

    #[test]
    fn issue_display_nonempty() {
        let issues = [
            AuditIssue::IndexGap {
                task: 0,
                missing: 2,
            },
            AuditIssue::SeparationViolation {
                job: JobId {
                    task: crate::task::TaskId(0),
                    index: 1,
                },
                gap: 1.0,
                period: 4.0,
            },
        ];
        for i in issues {
            assert!(!i.to_string().is_empty());
        }
    }
}
