//! Periodic task model and the criticality kinds layered on top of it.

use std::fmt;

use crate::rng::splitmix64;
use crate::SimError;

/// Hash-stream separator for sporadic inter-arrival draws (same family as
/// the fault-plan stream constants, decorrelated by value).
const STREAM_SPORADIC: u64 = 0x0F4A_11A5_0009;

/// The scheduling model ("criticality kind") of a task.
///
/// The default is [`TaskKind::Hard`]: the classic hard-periodic model every
/// analysis in this workspace was built for. The other kinds extend the
/// scenario matrix beyond hard-periodic:
///
/// * [`TaskKind::WeaklyHard`] — an (m,k)-firm contract: at least `m`
///   deadlines must be met in **every** window of `k` consecutive jobs.
///   The simulator may *skip* jobs of such a task (shed them at release,
///   reclaiming the whole WCET) as long as the contract stays satisfiable —
///   see [`SkipPolicy`](crate::SkipPolicy).
/// * [`TaskKind::Sporadic`] — releases are separated by **at least**
///   `min_interarrival` (which must equal the task's period); the actual
///   gap is `min_interarrival · (1 + burst · u)` with a deterministic
///   per-job draw `u ∈ [0, 1)` keyed on `seed`. Arrivals are therefore
///   never earlier than the periodic lattice, so demand analyses anchored
///   on the lattice stay conservative (the same safety argument as
///   delay-only release jitter).
/// * [`TaskKind::Frame`] — a frame-driven (interactive) task with a
///   constrained deadline `frame_deadline` (which must equal the task's
///   relative deadline). After a missed frame, every dispatch of the task
///   is boosted to at least the `boost` speed ratio until it completes a
///   frame on time again — miss-driven recovery modeled on frame-aware EDF
///   schedulers, expressed as a speed floor so deadlines of other tasks
///   are never endangered.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum TaskKind {
    /// Hard-periodic (the default): every deadline must be met.
    #[default]
    Hard,
    /// (m,k)-firm weakly-hard: at least `m` of every `k` consecutive jobs
    /// must meet their deadline. Requires `1 ≤ m ≤ k ≤ 64`.
    WeaklyHard {
        /// Minimum number of deadlines met per window.
        m: u32,
        /// Window length in consecutive jobs.
        k: u32,
    },
    /// Sporadic: inter-arrival times are at least `min_interarrival`
    /// (= the task's period), stretched by seeded burst draws.
    Sporadic {
        /// Minimum inter-arrival separation (must equal the period).
        min_interarrival: f64,
        /// Maximum fractional stretch of a gap beyond the minimum
        /// (`0` degenerates to a sporadic task that happens to arrive
        /// periodically).
        burst: f64,
        /// Seed of the per-job gap draws (governor-invariant).
        seed: u64,
    },
    /// Frame-driven: constrained deadline `frame_deadline` (= the task's
    /// relative deadline) with a miss-driven speed-boost floor.
    Frame {
        /// The frame deadline (must equal the task's relative deadline).
        frame_deadline: f64,
        /// Speed-ratio floor applied to the task's dispatches after a
        /// missed frame, until the next on-time completion. In `(0, 1]`.
        boost: f64,
    },
}

impl TaskKind {
    /// Whether this is the hard-periodic default.
    pub fn is_hard(&self) -> bool {
        matches!(self, TaskKind::Hard)
    }
}

/// Identifier of a task within a [`TaskSet`] (its index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TaskId(pub usize);

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// A periodic hard real-time task.
///
/// All times are in seconds. `wcet` is the worst-case execution time **at
/// full speed** (so it doubles as the job's worst-case *work*); `period` is
/// the inter-release separation; `deadline` is relative to release and must
/// satisfy `wcet <= deadline <= period` (implicit deadlines use
/// `deadline == period`); `phase` is the first release instant.
///
/// ```
/// use stadvs_sim::Task;
///
/// # fn main() -> Result<(), stadvs_sim::SimError> {
/// let t = Task::new(2.0e-3, 10.0e-3)?; // 2 ms WCET every 10 ms
/// assert_eq!(t.utilization(), 0.2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Task {
    wcet: f64,
    period: f64,
    deadline: f64,
    phase: f64,
    name: Option<String>,
    /// Scheduling model; hard-periodic unless set.
    kind: TaskKind,
}

impl Task {
    /// Creates an implicit-deadline task (`deadline == period`, zero phase).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidTask`] if `wcet` or `period` is not finite
    /// and positive, or `wcet > period`.
    pub fn new(wcet: f64, period: f64) -> Result<Task, SimError> {
        Task::with_deadline(wcet, period, period)
    }

    /// Creates a constrained-deadline task (`wcet <= deadline <= period`).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidTask`] on any violated constraint.
    pub fn with_deadline(wcet: f64, period: f64, deadline: f64) -> Result<Task, SimError> {
        let ok = wcet.is_finite()
            && period.is_finite()
            && deadline.is_finite()
            && wcet > 0.0
            && period > 0.0
            && deadline >= wcet
            && deadline <= period;
        if !ok {
            return Err(SimError::InvalidTask {
                wcet,
                period,
                deadline,
            });
        }
        Ok(Task {
            wcet,
            period,
            deadline,
            phase: 0.0,
            name: None,
            kind: TaskKind::Hard,
        })
    }

    /// Attaches a scheduling model, validating it against the task's
    /// timing parameters — the admission check for non-hard task models.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if
    ///
    /// * a weakly-hard contract violates `1 ≤ m ≤ k ≤ 64`,
    /// * a sporadic `min_interarrival` differs from the period, or `burst`
    ///   is negative or not finite,
    /// * a frame `frame_deadline` differs from the relative deadline, or
    ///   `boost` is outside `(0, 1]`.
    pub fn with_kind(mut self, kind: TaskKind) -> Result<Task, SimError> {
        match kind {
            TaskKind::Hard => {}
            TaskKind::WeaklyHard { m, k } => {
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
            }
            TaskKind::Sporadic {
                min_interarrival,
                burst,
                ..
            } => {
                // The period doubles as the minimum separation everywhere
                // (utilization, demand analyses), so the two must agree.
                // xtask:allow(float-eq): exact-equality admission check, not arithmetic
                if min_interarrival != self.period {
                    return Err(SimError::InvalidConfig {
                        field: "min_interarrival",
                        value: min_interarrival,
                    });
                }
                if !burst.is_finite() || burst < 0.0 {
                    return Err(SimError::InvalidConfig {
                        field: "sporadic_burst",
                        value: burst,
                    });
                }
            }
            TaskKind::Frame {
                frame_deadline,
                boost,
            } => {
                // xtask:allow(float-eq): exact-equality admission check, not arithmetic
                if frame_deadline != self.deadline {
                    return Err(SimError::InvalidConfig {
                        field: "frame_deadline",
                        value: frame_deadline,
                    });
                }
                if !boost.is_finite() || boost <= 0.0 || boost > 1.0 {
                    return Err(SimError::InvalidConfig {
                        field: "frame_boost",
                        value: boost,
                    });
                }
            }
        }
        self.kind = kind;
        Ok(self)
    }

    /// Attaches an (m,k)-firm weakly-hard contract (see
    /// [`TaskKind::WeaklyHard`]).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] unless `1 ≤ m ≤ k ≤ 64`.
    pub fn weakly_hard(self, m: u32, k: u32) -> Result<Task, SimError> {
        self.with_kind(TaskKind::WeaklyHard { m, k })
    }

    /// Makes the task sporadic with `min_interarrival` equal to its period
    /// (see [`TaskKind::Sporadic`]).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if `burst` is negative or not
    /// finite.
    pub fn sporadic(self, burst: f64, seed: u64) -> Result<Task, SimError> {
        let min_interarrival = self.period;
        self.with_kind(TaskKind::Sporadic {
            min_interarrival,
            burst,
            seed,
        })
    }

    /// Makes the task frame-driven with `frame_deadline` equal to its
    /// relative deadline (see [`TaskKind::Frame`]).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] unless `boost ∈ (0, 1]`.
    pub fn frame(self, boost: f64) -> Result<Task, SimError> {
        let frame_deadline = self.deadline;
        self.with_kind(TaskKind::Frame {
            frame_deadline,
            boost,
        })
    }

    /// Sets the first release instant (default `0.0`).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidTask`] if `phase` is negative or not
    /// finite.
    pub fn with_phase(mut self, phase: f64) -> Result<Task, SimError> {
        if !phase.is_finite() || phase < 0.0 {
            return Err(SimError::InvalidTask {
                wcet: self.wcet,
                period: self.period,
                deadline: self.deadline,
            });
        }
        self.phase = phase;
        Ok(self)
    }

    /// Attaches a human-readable name (used in traces and reports).
    pub fn named(mut self, name: impl Into<String>) -> Task {
        self.name = Some(name.into());
        self
    }

    /// Worst-case execution time at full speed, in seconds.
    pub fn wcet(&self) -> f64 {
        self.wcet
    }

    /// Period, in seconds.
    pub fn period(&self) -> f64 {
        self.period
    }

    /// Relative deadline, in seconds.
    pub fn deadline(&self) -> f64 {
        self.deadline
    }

    /// First release instant, in seconds.
    pub fn phase(&self) -> f64 {
        self.phase
    }

    /// The task's name, if one was set.
    pub fn name(&self) -> Option<&str> {
        self.name.as_deref()
    }

    /// The task's scheduling model ([`TaskKind::Hard`] unless set).
    pub fn kind(&self) -> TaskKind {
        self.kind
    }

    /// Whether the task follows the hard-periodic default model.
    pub fn is_hard(&self) -> bool {
        self.kind.is_hard()
    }

    /// The inter-arrival gap *preceding* job `index` (`index ≥ 1`): the
    /// period for every kind except [`TaskKind::Sporadic`], whose gaps are
    /// stretched by a deterministic per-job draw. Always at least the
    /// period, so sporadic arrivals never precede the periodic lattice.
    pub fn arrival_gap(&self, index: u64) -> f64 {
        match self.kind {
            TaskKind::Sporadic {
                min_interarrival,
                burst,
                seed,
            } if burst > 0.0 => {
                let h = splitmix64(seed ^ splitmix64(index ^ STREAM_SPORADIC));
                // 53 high bits → exactly representable uniform grid in [0, 1).
                // xtask:allow(as-cast): not in crates/core, exact 53-bit conversion
                let u = (h >> 11) as f64 * (1.0 / 9_007_199_254_740_992.0);
                min_interarrival * (1.0 + burst * u)
            }
            _ => self.period,
        }
    }

    /// Worst-case utilization `wcet / period`.
    pub fn utilization(&self) -> f64 {
        self.wcet / self.period
    }

    /// Worst-case density `wcet / deadline`.
    pub fn density(&self) -> f64 {
        self.wcet / self.deadline
    }

    /// Release instant of the `index`-th job (0-based).
    pub fn release_of(&self, index: u64) -> f64 {
        self.phase + index as f64 * self.period
    }

    /// Absolute deadline of the `index`-th job.
    pub fn deadline_of(&self, index: u64) -> f64 {
        self.release_of(index) + self.deadline
    }
}

/// An immutable collection of periodic tasks scheduled together.
///
/// A task set is feasible under EDF at full speed iff its worst-case
/// utilization is at most 1 (for implicit deadlines); [`TaskSet::new`]
/// enforces only structural validity — schedulability tests live in
/// `stadvs-analysis`.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskSet {
    tasks: Vec<Task>,
}

impl TaskSet {
    /// Creates a task set.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::EmptyTaskSet`] if `tasks` is empty.
    pub fn new(tasks: Vec<Task>) -> Result<TaskSet, SimError> {
        if tasks.is_empty() {
            return Err(SimError::EmptyTaskSet);
        }
        Ok(TaskSet { tasks })
    }

    /// The tasks, indexable by [`TaskId`].
    pub fn tasks(&self) -> &[Task] {
        &self.tasks
    }

    /// The task with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for this task set.
    pub fn task(&self, id: TaskId) -> &Task {
        &self.tasks[id.0]
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Whether the set is empty (never true for a constructed set).
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Iterates over `(TaskId, &Task)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (TaskId, &Task)> {
        self.tasks.iter().enumerate().map(|(i, t)| (TaskId(i), t))
    }

    /// Total worst-case utilization `Σ wcet_i / period_i`.
    pub fn utilization(&self) -> f64 {
        self.tasks.iter().map(Task::utilization).sum()
    }

    /// Total worst-case density `Σ wcet_i / deadline_i`.
    pub fn density(&self) -> f64 {
        self.tasks.iter().map(Task::density).sum()
    }

    /// Whether every task follows the hard-periodic default model.
    pub fn all_hard(&self) -> bool {
        self.tasks.iter().all(Task::is_hard)
    }

    /// The largest period.
    pub fn max_period(&self) -> f64 {
        self.tasks
            .iter()
            .map(Task::period)
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// The hyperperiod (least common multiple of periods), if all periods
    /// are integer multiples of one microsecond. Returns `None` when
    /// periods are not commensurable at that resolution or the LCM
    /// overflows.
    pub fn hyperperiod(&self) -> Option<f64> {
        const RES: f64 = 1.0e6; // microsecond grid
        let mut lcm: u128 = 1;
        for t in &self.tasks {
            let scaled = t.period() * RES;
            let rounded = scaled.round();
            if (scaled - rounded).abs() > 1e-6 || rounded <= 0.0 {
                return None;
            }
            let p = rounded as u128;
            lcm = lcm.checked_mul(p / gcd(lcm, p))?;
            if lcm > (1u128 << 80) {
                return None;
            }
        }
        Some(lcm as f64 / RES)
    }
}

impl FromIterator<Task> for TaskSet {
    /// Collects tasks into a set.
    ///
    /// # Panics
    ///
    /// Panics if the iterator is empty; use [`TaskSet::new`] for fallible
    /// construction.
    fn from_iter<I: IntoIterator<Item = Task>>(iter: I) -> TaskSet {
        // xtask:allow(no-panic): documented `# Panics` contract of FromIterator
        TaskSet::new(iter.into_iter().collect()).expect("FromIterator requires at least one task")
    }
}

fn gcd(mut a: u128, mut b: u128) -> u128 {
    while b != 0 {
        let r = a % b;
        a = b;
        b = r;
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;

    fn task(wcet: f64, period: f64) -> Task {
        Task::new(wcet, period).unwrap()
    }

    #[test]
    fn task_validation() {
        assert!(Task::new(1.0, 10.0).is_ok());
        assert!(Task::new(0.0, 10.0).is_err());
        assert!(Task::new(-1.0, 10.0).is_err());
        assert!(Task::new(11.0, 10.0).is_err());
        assert!(Task::new(1.0, f64::NAN).is_err());
        assert!(Task::with_deadline(1.0, 10.0, 0.5).is_err()); // deadline < wcet
        assert!(Task::with_deadline(1.0, 10.0, 12.0).is_err()); // deadline > period
        assert!(Task::with_deadline(1.0, 10.0, 5.0).is_ok());
        assert!(task(1.0, 10.0).with_phase(-1.0).is_err());
    }

    #[test]
    fn job_release_and_deadline_arithmetic() {
        let t = Task::with_deadline(1.0, 10.0, 8.0)
            .unwrap()
            .with_phase(2.0)
            .unwrap();
        assert_eq!(t.release_of(0), 2.0);
        assert_eq!(t.release_of(3), 32.0);
        assert_eq!(t.deadline_of(0), 10.0);
        assert_eq!(t.deadline_of(3), 40.0);
    }

    #[test]
    fn utilization_and_density() {
        let t = Task::with_deadline(2.0, 10.0, 5.0).unwrap();
        assert_eq!(t.utilization(), 0.2);
        assert_eq!(t.density(), 0.4);
        let ts = TaskSet::new(vec![task(1.0, 10.0), task(2.0, 5.0)]).unwrap();
        assert!((ts.utilization() - 0.5).abs() < 1e-12);
        assert_eq!(ts.len(), 2);
        assert!(!ts.is_empty());
        assert_eq!(ts.max_period(), 10.0);
    }

    #[test]
    fn empty_task_set_rejected() {
        assert!(matches!(TaskSet::new(vec![]), Err(SimError::EmptyTaskSet)));
    }

    #[test]
    fn hyperperiod_of_commensurable_periods() {
        let ts = TaskSet::new(vec![task(1.0e-3, 4.0e-3), task(1.0e-3, 6.0e-3)]).unwrap();
        assert!((ts.hyperperiod().unwrap() - 12.0e-3).abs() < 1e-9);
        let ts2 = TaskSet::new(vec![
            task(1.0e-3, 5.0e-3),
            task(1.0e-3, std::f64::consts::PI * 1.0e-3),
        ])
        .unwrap();
        assert_eq!(ts2.hyperperiod(), None);
    }

    #[test]
    fn kind_validation() {
        // Weakly-hard bounds: 1 ≤ m ≤ k ≤ 64.
        assert!(task(1.0, 10.0).weakly_hard(1, 1).is_ok());
        assert!(task(1.0, 10.0).weakly_hard(3, 5).is_ok());
        assert!(task(1.0, 10.0).weakly_hard(64, 64).is_ok());
        assert!(task(1.0, 10.0).weakly_hard(0, 5).is_err());
        assert!(task(1.0, 10.0).weakly_hard(6, 5).is_err());
        assert!(task(1.0, 10.0).weakly_hard(1, 65).is_err());
        // Sporadic: min_interarrival pinned to the period; burst ≥ 0 finite.
        assert!(task(1.0, 10.0).sporadic(0.0, 7).is_ok());
        assert!(task(1.0, 10.0).sporadic(0.5, 7).is_ok());
        assert!(task(1.0, 10.0).sporadic(-0.1, 7).is_err());
        assert!(task(1.0, 10.0).sporadic(f64::NAN, 7).is_err());
        assert!(task(1.0, 10.0)
            .with_kind(TaskKind::Sporadic {
                min_interarrival: 9.0,
                burst: 0.0,
                seed: 7,
            })
            .is_err());
        // Frame: frame_deadline pinned to the relative deadline; boost ∈ (0, 1].
        assert!(task(1.0, 10.0).frame(1.0).is_ok());
        assert!(task(1.0, 10.0).frame(0.4).is_ok());
        assert!(task(1.0, 10.0).frame(0.0).is_err());
        assert!(task(1.0, 10.0).frame(1.5).is_err());
        let constrained = Task::with_deadline(1.0, 10.0, 6.0).unwrap();
        match constrained.clone().frame(0.8).unwrap().kind() {
            TaskKind::Frame { frame_deadline, .. } => assert_eq!(frame_deadline, 6.0),
            other => panic!("expected frame kind, got {other:?}"),
        }
        assert!(constrained
            .with_kind(TaskKind::Frame {
                frame_deadline: 10.0,
                boost: 0.8,
            })
            .is_err());
    }

    #[test]
    fn all_hard_gate() {
        let hard: TaskSet = vec![task(1.0, 10.0), task(2.0, 20.0)].into_iter().collect();
        assert!(hard.all_hard());
        let mixed: TaskSet = vec![task(1.0, 10.0), task(2.0, 20.0).weakly_hard(2, 4).unwrap()]
            .into_iter()
            .collect();
        assert!(!mixed.all_hard());
        assert!(mixed.task(TaskId(0)).is_hard());
        assert!(!mixed.task(TaskId(1)).is_hard());
    }

    #[test]
    fn arrival_gap_bounds_and_determinism() {
        let t = task(1.0, 10.0).sporadic(0.5, 42).unwrap();
        for index in 1..200u64 {
            let gap = t.arrival_gap(index);
            assert!(gap >= 10.0, "gap {gap} below min_interarrival at {index}");
            assert!(gap < 15.0, "gap {gap} above (1+burst)·period at {index}");
            // Deterministic: identical draw on replay.
            assert_eq!(gap.to_bits(), t.arrival_gap(index).to_bits());
        }
        // burst = 0 degenerates to exactly the period.
        let calm = task(1.0, 10.0).sporadic(0.0, 42).unwrap();
        assert_eq!(calm.arrival_gap(3), 10.0);
        // Hard tasks always report the period.
        assert_eq!(task(1.0, 10.0).arrival_gap(3), 10.0);
        // Seed-sensitivity: different seeds give different gap sequences.
        let other = task(1.0, 10.0).sporadic(0.5, 43).unwrap();
        assert!((1..50u64).any(|i| t.arrival_gap(i).to_bits() != other.arrival_gap(i).to_bits()));
    }

    #[test]
    fn kind_defaults_to_hard() {
        // Tasks built without a kind are hard — pin the default.
        assert_eq!(TaskKind::default(), TaskKind::Hard);
        assert!(task(1.0, 10.0).is_hard());
        assert_eq!(task(1.0, 10.0).kind(), TaskKind::Hard);
    }

    #[test]
    fn names_and_iter() {
        let ts: TaskSet = vec![task(1.0, 10.0).named("audio"), task(2.0, 20.0)]
            .into_iter()
            .collect();
        assert_eq!(ts.task(TaskId(0)).name(), Some("audio"));
        assert_eq!(ts.task(TaskId(1)).name(), None);
        let ids: Vec<usize> = ts.iter().map(|(id, _)| id.0).collect();
        assert_eq!(ids, vec![0, 1]);
        assert_eq!(TaskId(3).to_string(), "T3");
    }
}
