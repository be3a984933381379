//! The referee: a post-hoc audit of simulation outcomes that knows the
//! fault plan and the task models.
//!
//! [`audit_outcome`] judges a run from the outside: governors are audited,
//! not trusted. It knows which degradations the [`FaultPlan`] licenses and
//! which misses the task models tolerate, and flags everything else. With
//! [`FaultPlan::NONE`] it is the strict hard real-time check (any hard
//! miss at all is an issue), so one referee backs the guarantee
//! properties, the fault and model differential tests, `tab3_misses` and
//! the CLI.
//!
//! **Record pass**, one walk over each task's run of records (records are
//! sorted by `(task, index)`):
//!
//! * a deadline miss by a hard or sporadic job the fault report does
//!   **not** mark as contaminated is an algorithm bug, never an excusable
//!   fault (weakly-hard jobs are judged by their (m,k) window instead, and
//!   frame misses feed the miss-streak statistics, which are recomputed);
//! * release instants must follow the plan's pattern: exactly periodic
//!   without jitter, delay-only with sporadic separation (`r_{k+1} ≥ r_k +
//!   T`) with it;
//! * every deadline must stay anchored to its (possibly jittered) release;
//! * demand above WCET is only legal where the plan's own overrun draw
//!   licenses it;
//! * records must lie in `(task, index)` order, per-task job indices must
//!   be contiguous from zero (the engine may shed a release under
//!   `SkipNext`, but it must still *record* it), and no release the
//!   engine's rule places before the horizon (the lattice, the seeded
//!   sporadic gaps, the jitter delays) may lack its record;
//! * every weakly-hard skip must be licensed, and the model and fault
//!   reports' counters must match what they summarize.
//!
//! **Trace pass**, when the outcome carries a [`Trace`]: one sweep over
//! its segments, against the processor the trace records. The segments
//! must tile `[0, horizon]`; every execution segment runs at an operating
//! point of the processor, inside its job's `[release, deadline]` window
//! unless the job missed; each job's executed work and wall time match
//! its record (a job that did not complete ran at most its demand, and
//! past its WCET only under a licensed overrun); and the energy bill and
//! switch count re-derived from the segments match the reported ones.

use std::fmt;

use stadvs_power::{EnergyBreakdown, Speed};

use crate::fault::{FaultKind, FaultPlan};
use crate::job::{JobId, JobRecord};
use crate::model::mk_skip_allowed;
use crate::outcome::SimOutcome;
use crate::simulator::TIME_EPS;
use crate::task::{Task, TaskId, TaskKind, TaskSet};
use crate::trace::{SegmentKind, Trace};
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
    /// A record lies outside its task's run of records: the outcome's
    /// records are not sorted by `(task, index)`.
    MisplacedRecord {
        /// The misplaced record's job.
        job: JobId,
    },
    /// A release the engine's rule places before the horizon has no
    /// record: the task's record stream stops early.
    UnrecordedRelease {
        /// The job the release would have created.
        job: JobId,
        /// Its release instant.
        release: f64,
    },
    /// The fault or model report's counters disagree with what they
    /// summarize (the event list, the skip list or the records).
    InconsistentReport {
        /// Which counter disagrees.
        counter: &'static str,
        /// The counter's value.
        counted: u64,
        /// The value recomputed from the event list.
        recomputed: u64,
    },
    /// Trace segments do not tile `[0, horizon]` (gap or overlap).
    BrokenTimeline {
        /// Where the discontinuity was found.
        at: f64,
    },
    /// An execution segment ran at a speed the processor does not offer.
    UnavailableSpeed {
        /// The segment's start time.
        at: f64,
        /// The offending speed ratio.
        speed: f64,
    },
    /// A job that met its deadline executed before its release or after
    /// its deadline, or a segment executed a job that has no record.
    ExecutionOutsideWindow {
        /// The offending job.
        job: JobId,
        /// Start of the offending segment.
        at: f64,
    },
    /// The work the trace executed for a job contradicts its record: a
    /// completed job's work differs from its demand, or an unfinished
    /// job ran past its demand, or past its WCET without a licensed
    /// overrun.
    WorkMismatch {
        /// The offending job.
        job: JobId,
        /// Work summed from the trace.
        traced: f64,
        /// The job's recorded actual demand.
        actual: f64,
    },
    /// A job's recorded wall time differs from the total duration of its
    /// execution segments.
    WallTimeMismatch {
        /// The offending job.
        job: JobId,
        /// Wall time summed from the trace.
        traced: f64,
        /// Wall time the engine recorded.
        reported: f64,
    },
    /// The energy bill or switch count re-derived from the trace disagrees
    /// with the engine's accounting.
    EnergyMismatch {
        /// The component that disagrees (`"active"`, `"idle"`,
        /// `"transition"` or `"switches"`).
        component: &'static str,
        /// The value re-derived from the trace.
        recomputed: f64,
        /// The value the engine reported.
        reported: f64,
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
            AuditIssue::MisplacedRecord { job } => {
                write!(f, "job {job}'s record is out of (task, index) order")
            }
            AuditIssue::UnrecordedRelease { job, release } => {
                write!(f, "job {job} released at {release} has no record")
            }
            AuditIssue::InconsistentReport {
                counter,
                counted,
                recomputed,
            } => write!(
                f,
                "counter {counter} = {counted} but its source says {recomputed}"
            ),
            AuditIssue::BrokenTimeline { at } => write!(f, "trace discontinuity at {at}"),
            AuditIssue::UnavailableSpeed { at, speed } => {
                write!(f, "segment at {at} runs at unavailable speed {speed}")
            }
            AuditIssue::ExecutionOutsideWindow { job, at } => {
                write!(f, "job {job} executed outside [release, deadline] at {at}")
            }
            AuditIssue::WorkMismatch {
                job,
                traced,
                actual,
            } => write!(f, "job {job} traced work {traced} contradicts demand {actual}"),
            AuditIssue::WallTimeMismatch {
                job,
                traced,
                reported,
            } => write!(
                f,
                "job {job} traced wall time {traced} != recorded {reported}"
            ),
            AuditIssue::EnergyMismatch {
                component,
                recomputed,
                reported,
            } => write!(
                f,
                "{component} energy from the trace ({recomputed}) != reported ({reported})"
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
/// it, and against its trace when it carries one. See the module docs for
/// the exact checks. The record pass walks the records once and the trace
/// pass the segments once; no check scans either per job.
pub fn audit_outcome(outcome: &SimOutcome, tasks: &TaskSet, plan: &FaultPlan) -> AuditReport {
    let mut report = AuditReport {
        issues: Vec::new(),
        jobs_checked: outcome.jobs.len(),
        attributed_misses: 0,
    };
    let mut tally = ModelTally::default();
    let mut start = 0;
    for (tid, task) in tasks.iter() {
        let len = outcome.jobs[start..]
            .iter()
            .take_while(|r| r.id.task == tid)
            .count();
        let run = &outcome.jobs[start..start + len];
        audit_task(outcome, tid, task, run, plan, &mut tally, &mut report);
        start += len;
    }
    // A record left over lies outside its task's run: the records are not
    // in (task, index) order.
    if let Some(r) = outcome.jobs.get(start) {
        report
            .issues
            .push(AuditIssue::MisplacedRecord { job: r.id });
    }

    // The reports' counters must match what they summarize.
    let mut events = [0u64; 6];
    for e in &outcome.faults.events {
        let slot = match e.kind {
            FaultKind::WcetOverrun { .. } => 0,
            FaultKind::Aborted => 1,
            FaultKind::SkippedRelease => 2,
            FaultKind::ForcedFullSpeed => 3,
            FaultKind::DroppedSwitch => 4,
            FaultKind::JitteredRelease { .. } => 5,
        };
        events[slot] += 1;
    }
    let (models, faults) = (&outcome.models, &outcome.faults);
    let counters = [
        ("model_skips", models.skips, models.skipped.len() as u64),
        (
            "weakly_hard_jobs",
            models.weakly_hard_jobs,
            tally.weakly_hard_jobs,
        ),
        ("sporadic_jobs", models.sporadic_jobs, tally.sporadic_jobs),
        ("frame_jobs", models.frame_jobs, tally.frame_jobs),
        ("frame_misses", models.frame_misses, tally.frame_misses),
        (
            "max_frame_miss_streak",
            models.max_frame_miss_streak,
            tally.max_streak,
        ),
        ("overruns", faults.overruns, events[0]),
        ("aborted", faults.aborted, events[1]),
        ("skipped_releases", faults.skipped_releases, events[2]),
        ("forced_full_speed", faults.forced_full_speed, events[3]),
        ("dropped_switches", faults.dropped_switches, events[4]),
        ("jittered_releases", faults.jittered_releases, events[5]),
    ];
    for (counter, counted, recomputed) in counters {
        if counted != recomputed {
            report.issues.push(AuditIssue::InconsistentReport {
                counter,
                counted,
                recomputed,
            });
        }
    }

    if let Some(trace) = outcome.trace.as_ref() {
        audit_trace(outcome, trace, tasks.len(), plan, &mut report);
    }
    report
}

/// The task-model counters the record pass recomputes.
#[derive(Default)]
struct ModelTally {
    weakly_hard_jobs: u64,
    sporadic_jobs: u64,
    frame_jobs: u64,
    frame_misses: u64,
    max_streak: u64,
}

/// The record pass over one task's run of records, in index order.
fn audit_task(
    outcome: &SimOutcome,
    tid: TaskId,
    task: &Task,
    run: &[JobRecord],
    plan: &FaultPlan,
    tally: &mut ModelTally,
    report: &mut AuditReport,
) {
    let horizon = outcome.horizon;
    let jittered = plan.has_jitter();
    let sporadic = matches!(task.kind(), TaskKind::Sporadic { .. });
    // A weakly-hard task was admitted with its (m,k) bounds, so the
    // checker construction cannot fail; a degenerate always-satisfied
    // contract stands in rather than a panic.
    let mut window = match task.kind() {
        TaskKind::WeaklyHard { m, k } => MkWindow::new(m, k).ok(),
        TaskKind::Hard | TaskKind::Sporadic { .. } | TaskKind::Frame { .. } => None,
    }
    .unwrap_or(MkWindow {
        m: 0,
        k: 1,
        bits: 0,
        count: 0,
    });
    let mut contam_bits = 0u64;
    let mut streak = 0u64;
    let mut expected_index = 0u64;
    let mut prev_release: Option<f64> = None;
    for r in run {
        // Miss attribution: a hard or sporadic job's miss must be
        // fault-contaminated (with the no-fault plan the contaminated set
        // is empty, so this is "no miss at all"). Weakly-hard misses are
        // judged by their (m,k) window below, and frame misses are
        // tolerated by the model (they feed the miss-streak statistics).
        let missed = r.missed(horizon);
        let contaminated = outcome.faults.is_contaminated(r.id);
        if missed {
            if contaminated {
                report.attributed_misses += 1;
            } else if matches!(task.kind(), TaskKind::Hard | TaskKind::Sporadic { .. }) {
                report.issues.push(AuditIssue::UnattributedMiss {
                    job: r.id,
                    completed: r.completion.unwrap_or(horizon),
                    deadline: r.deadline,
                });
            }
        }

        if r.id.index != expected_index {
            report.issues.push(AuditIssue::IndexGap {
                task: tid.0,
                missing: expected_index,
            });
            expected_index = r.id.index;
        }
        // Releases never precede the periodic lattice, and without jitter a
        // periodic release, or a sporadic task's first, sits exactly on
        // it; the engine releases nothing at or past the horizon.
        let nominal = task.release_of(r.id.index);
        let tol = TOL.max(TIME_EPS * (r.id.index + 1) as f64);
        let exact = !jittered && (!sporadic || r.id.index == 0);
        let off = if exact {
            (r.release - nominal).abs() > tol
        } else {
            r.release < nominal - tol
        };
        if off || r.release >= horizon {
            report.issues.push(AuditIssue::ReleasePatternViolation {
                job: r.id,
                nominal,
                found: r.release,
            });
        }
        // Each release trails its predecessor by the task's gap (the seeded
        // sporadic gap, or the period): exactly for a sporadic task without
        // jitter (the engine accumulates the same sum), at least with it.
        if let Some(prev) = prev_release.filter(|_| sporadic || jittered) {
            let (gap, gap_min) = (r.release - prev, task.arrival_gap(r.id.index));
            let wrong = if jittered {
                gap < gap_min - tol
            } else {
                (gap - gap_min).abs() > tol
            };
            if wrong {
                report.issues.push(AuditIssue::SeparationViolation {
                    job: r.id,
                    gap,
                    period: gap_min,
                });
            }
        }
        let anchored = r.release + task.deadline();
        if (r.deadline - anchored).abs() > tol {
            report.issues.push(AuditIssue::DeadlineAnchorViolation {
                job: r.id,
                expected: anchored,
                found: r.deadline,
            });
        }
        // A demand above WCET is licensed by *recomputing the plan's own
        // draw* — not by the run's contamination marks, which only appear
        // once the job executes past its budget (a job drained at the
        // horizon may carry an injected overrun it never reached).
        if r.actual > r.wcet + TOL && plan.overrun_factor(r.id.task, r.id.index) <= 1.0 {
            report.issues.push(AuditIssue::IllegalOverrun {
                job: r.id,
                actual: r.actual,
                wcet: r.wcet,
            });
        }

        // Task-model referee: replay the (m,k) window (skipped and shed
        // jobs count as losses) and license every recorded skip against
        // the admissibility rule; recompute the frame miss streaks. A
        // window violation is excused only when a loss inside the window
        // is fault-contaminated.
        match task.kind() {
            TaskKind::Hard => {}
            TaskKind::Sporadic { .. } => tally.sporadic_jobs += 1,
            TaskKind::Frame { .. } => {
                tally.frame_jobs += 1;
                // Streaks advance only at completions, mirroring the
                // engine (a job drained at the horizon updates nothing).
                if r.completion.is_some() {
                    if missed {
                        streak += 1;
                        tally.frame_misses += 1;
                        tally.max_streak = tally.max_streak.max(streak);
                    } else {
                        streak = 0;
                    }
                }
            }
            TaskKind::WeaklyHard { m, k } => {
                tally.weakly_hard_jobs += 1;
                let skipped = outcome.models.is_skipped(r.id);
                if skipped && !window.skip_allowed() {
                    report.issues.push(AuditIssue::IllegalSkip { job: r.id });
                }
                let bit = 1u64 << (r.id.index % 64);
                if contaminated {
                    contam_bits |= bit;
                } else {
                    contam_bits &= !bit;
                }
                window.record(!skipped && !missed);
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
        prev_release = Some(r.release);
        expected_index += 1;
    }

    // The release after the last record, by the engine's own rule, must
    // fall at or past the horizon.
    let delay = |index: u64| {
        if jittered {
            plan.release_delay(tid, index, task.period())
        } else {
            0.0
        }
    };
    let next = match prev_release {
        None => task.phase() + delay(0),
        Some(prev) if sporadic => prev + task.arrival_gap(expected_index) + delay(expected_index),
        Some(prev) if jittered => {
            (task.release_of(expected_index) + delay(expected_index)).max(prev + task.period())
        }
        Some(_) => task.release_of(expected_index),
    };
    if next < horizon {
        report.issues.push(AuditIssue::UnrecordedRelease {
            job: JobId {
                task: tid,
                index: expected_index,
            },
            release: next,
        });
    }
}

/// The trace pass: one sweep over the segments, summing each job's work
/// and wall time and re-deriving the energy bill on the trace's
/// processor, then one pass over the records.
fn audit_trace(
    outcome: &SimOutcome,
    trace: &Trace,
    n_tasks: usize,
    plan: &FaultPlan,
    report: &mut AuditReport,
) {
    let jobs = &outcome.jobs;
    let horizon = outcome.horizon;
    let processor = trace.processor();
    let power = processor.power_model();
    let overhead = processor.overhead();
    let floor = processor.min_speed().ratio();
    // Each task's first record, so that a segment finds its job's record
    // at `first[task] + index` on a well-formed outcome.
    let mut first = vec![0usize; n_tasks];
    for (i, r) in jobs.iter().enumerate().rev() {
        if let Some(slot) = first.get_mut(r.id.task.0) {
            *slot = i;
        }
    }
    let record_of = |job: JobId| {
        let direct = first
            .get(job.task.0)
            .and_then(|&f| f.checked_add(usize::try_from(job.index).ok()?));
        match direct {
            Some(i) if jobs.get(i).is_some_and(|r| r.id == job) => Some(i),
            _ => jobs
                .binary_search_by_key(&(job.task, job.index), |r| (r.id.task, r.id.index))
                .ok(),
        }
    };
    // (work, wall time) executed per record.
    let mut executed = vec![(0.0f64, 0.0f64); jobs.len()];
    let mut energy = EnergyBreakdown::default();
    let mut switches = 0u64;
    let mut current = Speed::FULL;
    let mut cursor = 0.0;
    for seg in trace.segments() {
        if (seg.start - cursor).abs() > TOL || seg.end < seg.start - TOL {
            report
                .issues
                .push(AuditIssue::BrokenTimeline { at: seg.start });
        }
        cursor = seg.end;
        if !seg.speed.same_point(current) {
            energy.transition += overhead.energy(current, seg.speed);
            switches += 1;
            current = seg.speed;
        }
        let duration = seg.duration();
        match seg.kind {
            SegmentKind::Execute { job } => {
                energy.active += power.active_energy(seg.speed, duration);
                let speed = seg.speed.ratio();
                let granted = processor.quantize_up(seg.speed).ratio();
                if (granted - speed).abs() > 1e-12 || speed > 1.0 + 1e-12 || speed < floor - 1e-9 {
                    report.issues.push(AuditIssue::UnavailableSpeed {
                        at: seg.start,
                        speed,
                    });
                }
                let inside = match record_of(job) {
                    Some(i) => {
                        executed[i].0 += duration * speed;
                        executed[i].1 += duration;
                        let r = &jobs[i];
                        seg.start >= r.release - TOL
                            && (seg.end <= r.deadline + TOL || r.missed(horizon))
                    }
                    // A job without a record has no window to run in.
                    None => false,
                };
                if !inside {
                    report
                        .issues
                        .push(AuditIssue::ExecutionOutsideWindow { job, at: seg.start });
                }
            }
            SegmentKind::Idle => energy.idle += power.idle_energy(duration),
            SegmentKind::Transition => {}
        }
    }
    if (cursor - horizon).abs() > TOL {
        report
            .issues
            .push(AuditIssue::BrokenTimeline { at: cursor });
    }

    for (r, &(work, wall)) in jobs.iter().zip(&executed) {
        let wrong_work = if r.completion.is_some() {
            (work - r.actual).abs() > TOL.max(r.actual * 1e-6)
        } else {
            // An aborted, shed or horizon-cut job ran at most its demand,
            // and past its WCET only where the plan's overrun draw (the
            // rule `IllegalOverrun` applies) licenses it.
            work > r.actual + TOL
                || (work > r.wcet + TOL && plan.overrun_factor(r.id.task, r.id.index) <= 1.0)
        };
        if wrong_work {
            report.issues.push(AuditIssue::WorkMismatch {
                job: r.id,
                traced: work,
                actual: r.actual,
            });
        }
        if (wall - r.wall_time).abs() > TOL.max(r.wall_time * 1e-6) {
            report.issues.push(AuditIssue::WallTimeMismatch {
                job: r.id,
                traced: wall,
                reported: r.wall_time,
            });
        }
    }

    for (component, recomputed, reported) in [
        ("active", energy.active, outcome.energy.active),
        ("idle", energy.idle, outcome.energy.idle),
        ("transition", energy.transition, outcome.energy.transition),
        ("switches", switches as f64, outcome.switches as f64),
    ] {
        if (recomputed - reported).abs() > TOL.max(reported.abs() * 1e-6) {
            report.issues.push(AuditIssue::EnergyMismatch {
                component,
                recomputed,
                reported,
            });
        }
    }
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

    /// Asserts that `report` holds an issue matching the pattern.
    macro_rules! assert_flags {
        ($report:expr, $($pattern:tt)+) => {
            assert!(
                $report.issues.iter().any(|i| matches!(i, $($pattern)+)),
                "{}",
                $report
            )
        };
    }

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

    /// Runs every job at one fixed speed ratio.
    struct Fixed(f64);
    impl Governor for Fixed {
        fn name(&self) -> &str {
            "fixed"
        }
        fn select_speed(&mut self, _: &SchedulerView<'_>, _: &ActiveJob) -> Speed {
            Speed::new(self.0).unwrap()
        }
    }

    /// A traced simulator of `tasks` on the ideal continuous processor.
    fn traced(tasks: &TaskSet, horizon: f64) -> Simulator {
        Simulator::new(
            tasks.clone(),
            Processor::ideal_continuous(),
            SimConfig::new(horizon).unwrap().with_trace(true),
        )
        .unwrap()
    }

    fn sim(horizon: f64) -> Simulator {
        traced(&tasks(), horizon)
    }

    fn job(task: usize, index: u64) -> JobId {
        JobId {
            task: TaskId(task),
            index,
        }
    }

    /// `trace`'s segments re-recorded on `processor`, from the `skip`-th on.
    fn rerecord(trace: &Trace, processor: Processor, skip: usize) -> Trace {
        let mut copy = Trace::new(processor);
        for seg in &trace.segments()[skip..] {
            copy.push(*seg);
        }
        copy
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
        assert_flags!(report, AuditIssue::UnattributedMiss { .. });
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
        assert_flags!(report, AuditIssue::ReleasePatternViolation { .. });
    }

    #[test]
    fn unlicensed_overrun_is_flagged() {
        let mut out = sim(32.0).run(&mut FullSpeed, &WorstCase).unwrap();
        out.jobs[0].actual = out.jobs[0].wcet * 2.0;
        let report = audit_outcome(&out, &tasks(), &FaultPlan::NONE);
        assert_flags!(report, AuditIssue::IllegalOverrun { .. });
    }

    #[test]
    fn index_gap_is_flagged() {
        let mut out = sim(32.0).run(&mut FullSpeed, &WorstCase).unwrap();
        out.jobs.remove(1); // drop T0#1: indices 0, 2, 3, ...
        let report = audit_outcome(&out, &tasks(), &FaultPlan::NONE);
        assert_flags!(report, AuditIssue::IndexGap { .. });
    }

    #[test]
    fn inconsistent_counters_are_flagged() {
        let plan = FaultPlan::new(11).with_overrun(0.5, 3.0).unwrap();
        let mut out = sim(64.0)
            .run_faulted(&mut FullSpeed, &WorstCase, &plan)
            .unwrap();
        out.faults.overruns += 1;
        let report = audit_outcome(&out, &tasks(), &plan);
        assert_flags!(report, AuditIssue::InconsistentReport { .. });
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
        traced(&mixed_tasks(), horizon)
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
        let illegal = job(1, 1);
        assert!(!out.models.is_skipped(illegal));
        out.models.skipped.push(illegal);
        out.models.skipped.sort_unstable();
        out.models.skips = out.models.skipped.len() as u64;
        let report = audit_outcome(&out, &mixed_tasks(), &FaultPlan::NONE);
        assert_flags!(report, AuditIssue::IllegalSkip { job } if *job == illegal);
    }

    #[test]
    fn mk_violation_is_flagged_for_uncontaminated_miss() {
        let mut out = mixed_run(32.0);
        // Make the executed job T1#1 late: the (1,2) window {skip, miss}
        // drops below m = 1 with no fault to excuse it.
        let r = out.jobs.iter_mut().find(|r| r.id == job(1, 1)).unwrap();
        r.completion = Some(r.deadline + 1.0);
        let report = audit_outcome(&out, &mixed_tasks(), &FaultPlan::NONE);
        let violation = AuditIssue::MkViolation {
            task: 1,
            end_index: 1,
            met: 0,
            m: 1,
            k: 2,
        };
        assert_flags!(report, i if *i == violation);
    }

    #[test]
    fn tampered_model_counters_are_flagged() {
        let mut out = mixed_run(32.0);
        out.models.weakly_hard_jobs += 1;
        let report = audit_outcome(&out, &mixed_tasks(), &FaultPlan::NONE);
        assert_flags!(
            report,
            AuditIssue::InconsistentReport {
                counter: "weakly_hard_jobs",
                ..
            }
        );
    }

    #[test]
    fn every_miss_of_a_slow_governor_is_flagged() {
        let out = sim(32.0)
            .run(&mut Fixed(0.2), &ConstantRatio::new(1.0))
            .unwrap();
        let report = audit_outcome(&out, &tasks(), &FaultPlan::NONE);
        let flagged = report
            .issues
            .iter()
            .filter(|i| matches!(i, AuditIssue::UnattributedMiss { .. }))
            .count();
        assert!(flagged > 0);
        assert_eq!(flagged, out.miss_count());
    }

    #[test]
    fn dropped_trailing_record_is_flagged() {
        let out = sim(32.0)
            .run(&mut FullSpeed, &ConstantRatio::new(0.6))
            .unwrap();
        // T1's last job, released at 24 < 32, loses its record.
        let mut dropped = out.clone();
        assert_eq!(dropped.jobs.pop().map(|r| r.id), Some(job(1, 3)));
        let report = audit_outcome(&dropped, &tasks(), &FaultPlan::NONE);
        assert_flags!(report, AuditIssue::UnrecordedRelease { job: j, .. } if *j == job(1, 3));
        // So does T0's last job, which sits mid-list.
        let mut dropped = out;
        assert_eq!(dropped.jobs.remove(7).id, job(0, 7));
        let report = audit_outcome(&dropped, &tasks(), &FaultPlan::NONE);
        assert_flags!(report, AuditIssue::UnrecordedRelease { job: j, .. } if *j == job(0, 7));
    }

    #[test]
    fn dropped_trailing_record_is_flagged_under_jitter() {
        let plan = FaultPlan::new(5).with_release_jitter(0.6, 0.4).unwrap();
        let mut out = sim(64.0)
            .run_faulted(&mut FullSpeed, &WorstCase, &plan)
            .unwrap();
        let last = out.jobs.pop().unwrap();
        assert!(
            last.release > last.id.index as f64 * 8.0,
            "seed must delay it"
        );
        let report = audit_outcome(&out, &tasks(), &plan);
        assert_flags!(report, AuditIssue::UnrecordedRelease { job: j, .. } if *j == last.id);
    }

    #[test]
    fn sporadic_run_audits_clean_and_its_dropped_record_is_flagged() {
        let tasks = TaskSet::new(vec![
            Task::new(1.0, 4.0).unwrap(),
            Task::new(1.0, 4.0).unwrap().sporadic(0.8, 7).unwrap(),
        ])
        .unwrap();
        let mut out = traced(&tasks, 64.0)
            .run(&mut FullSpeed, &WorstCase)
            .unwrap();
        // The seeded gaps thin the stream below the lattice's 16 releases.
        let sporadic = out.jobs.iter().filter(|r| r.id.task == TaskId(1)).count();
        assert!(sporadic < 16, "{sporadic} sporadic releases");
        let report = audit_outcome(&out, &tasks, &FaultPlan::NONE);
        assert!(report.is_clean(), "{report}");
        let last = out.jobs.pop().unwrap().id;
        let report = audit_outcome(&out, &tasks, &FaultPlan::NONE);
        assert_flags!(report, AuditIssue::UnrecordedRelease { job: j, .. } if *j == last);
    }

    #[test]
    fn tolerated_frame_misses_audit_clean() {
        // At speed 0.4 every un-boosted frame misses its 4 s deadline.
        let tasks = TaskSet::new(vec![Task::new(2.0, 4.0).unwrap().frame(1.0).unwrap()]).unwrap();
        let out = traced(&tasks, 16.0)
            .run(&mut Fixed(0.4), &WorstCase)
            .unwrap();
        assert_eq!(out.miss_count(), 2);
        let report = audit_outcome(&out, &tasks, &FaultPlan::NONE);
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn misplaced_and_late_records_are_flagged() {
        let out = sim(32.0).run(&mut FullSpeed, &WorstCase).unwrap();
        let mut swapped = out.clone();
        swapped.jobs.swap(0, 8); // T1#0 first, T0#0 among T1's records
        let report = audit_outcome(&swapped, &tasks(), &FaultPlan::NONE);
        assert_flags!(report, AuditIssue::MisplacedRecord { .. });
        // A fabricated record released at the horizon.
        let mut late = out;
        let mut extra = late.jobs[11].clone();
        extra.id.index += 1;
        extra.release += 8.0;
        extra.deadline += 8.0;
        late.jobs.push(extra);
        let report = audit_outcome(&late, &tasks(), &FaultPlan::NONE);
        let late_job = job(1, 4);
        assert_flags!(report, AuditIssue::ReleasePatternViolation { job, .. } if *job == late_job);
    }

    #[test]
    fn tampered_demand_breaks_work_conservation() {
        let mut out = sim(32.0)
            .run(&mut FullSpeed, &ConstantRatio::new(0.6))
            .unwrap();
        out.jobs[0].actual *= 1.5;
        let report = audit_outcome(&out, &tasks(), &FaultPlan::NONE);
        assert_flags!(report, AuditIssue::WorkMismatch { .. });
    }

    #[test]
    fn tampered_wall_time_is_flagged() {
        let mut out = sim(32.0)
            .run(&mut FullSpeed, &ConstantRatio::new(0.6))
            .unwrap();
        out.jobs[0].wall_time *= 2.0;
        let report = audit_outcome(&out, &tasks(), &FaultPlan::NONE);
        assert_flags!(report, AuditIssue::WallTimeMismatch { .. });
    }

    #[test]
    fn tampered_energy_and_switches_are_flagged() {
        let mut out = sim(32.0)
            .run(&mut Fixed(0.5), &ConstantRatio::new(0.6))
            .unwrap();
        assert!(audit_outcome(&out, &tasks(), &FaultPlan::NONE).is_clean());
        out.energy.active *= 2.0;
        out.switches += 1;
        let report = audit_outcome(&out, &tasks(), &FaultPlan::NONE);
        assert_flags!(
            report,
            AuditIssue::EnergyMismatch {
                component: "active",
                ..
            }
        );
        assert_flags!(
            report,
            AuditIssue::EnergyMismatch {
                component: "switches",
                ..
            }
        );
    }

    #[test]
    fn off_grid_speed_is_flagged() {
        // A 0.6-speed run re-recorded as a 2-level platform's: 0.6 is not
        // one of its operating points.
        let mut out = sim(16.0).run(&mut Fixed(0.6), &WorstCase).unwrap();
        let two_level = Processor::uniform_discrete(2).unwrap();
        out.trace = out.trace.map(|t| rerecord(&t, two_level, 0));
        let report = audit_outcome(&out, &tasks(), &FaultPlan::NONE);
        assert_flags!(report, AuditIssue::UnavailableSpeed { speed, .. } if *speed == 0.6);
    }

    #[test]
    fn broken_timeline_is_flagged() {
        // The first segment is lost: the trace starts late.
        let mut out = sim(32.0).run(&mut FullSpeed, &WorstCase).unwrap();
        out.trace = out
            .trace
            .map(|t| rerecord(&t, Processor::ideal_continuous(), 1));
        let report = audit_outcome(&out, &tasks(), &FaultPlan::NONE);
        assert_flags!(report, AuditIssue::BrokenTimeline { .. });
    }

    #[test]
    fn issue_display_nonempty() {
        let issues = [
            AuditIssue::IndexGap {
                task: 0,
                missing: 2,
            },
            AuditIssue::SeparationViolation {
                job: job(0, 1),
                gap: 1.0,
                period: 4.0,
            },
            AuditIssue::UnrecordedRelease {
                job: job(0, 3),
                release: 12.0,
            },
            AuditIssue::MisplacedRecord { job: job(1, 0) },
            AuditIssue::BrokenTimeline { at: 1.0 },
            AuditIssue::EnergyMismatch {
                component: "idle",
                recomputed: 1.0,
                reported: 2.0,
            },
        ];
        for i in issues {
            assert!(!i.to_string().is_empty());
        }
    }
}
