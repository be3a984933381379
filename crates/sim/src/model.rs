//! Task-model run-time policy and reporting: the energy-aware skip policy
//! for (m,k)-firm weakly-hard jobs, and the per-model statistics the
//! simulator attaches to every outcome.
//!
//! Skipping is the weakly-hard energy lever: a job of a
//! [`TaskKind::WeaklyHard`](crate::TaskKind::WeaklyHard) task may be shed at
//! its release — recorded as an instant zero-work completion, with the whole
//! WCET handed back to the governor as reclaimable slack — but **only** when
//! the sliding-window contract stays satisfiable. The admissibility rule is
//! the trailing-window check implemented by
//! [`MkWindow::skip_allowed`](crate::MkWindow::skip_allowed): a skip is
//! licensed iff at least `m` of the task's last `k − 1` job outcomes met
//! their deadline (outcomes before the first job count as met). Provided
//! every non-skipped job meets its deadline, that rule keeps *every* window
//! of `k` consecutive jobs at `≥ m` deadlines met. The [`SkipPolicy`] below
//! only ever *narrows* this licensed set — it decides which licensed skips
//! to take, never whether an unlicensed skip is allowed.

use crate::job::JobId;
use crate::rng::splitmix64;
use crate::SimError;

/// Hash-stream separator for seeded skip draws (same family as the
/// fault-plan stream constants, decorrelated by value).
const STREAM_SKIP: u64 = 0x0F4A_11A5_000B;

/// Which *licensed* (m,k)-firm skips the simulator takes.
///
/// All variants are governor-invariant: a skip decision is a pure function
/// of the task's job-outcome history and (for [`SkipPolicy::Seeded`]) a
/// deterministic per-job hash draw — never of the governor's speed choices.
/// In-contract (when every non-skipped job meets its deadline) the outcome
/// history itself is governor-invariant, so the whole skip stream is too;
/// the differential harness pins exactly that.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum SkipPolicy {
    /// Skip every licensed job (the default): the maximal energy reclaim
    /// the (m,k) contracts admit.
    #[default]
    Greedy,
    /// Never skip; weakly-hard tasks execute like hard ones.
    Never,
    /// Skip a licensed job iff an independent per-job draw keyed on `seed`
    /// falls below `probability` — a partial-shedding policy for sweeping
    /// the energy/quality trade-off. Construct via [`SkipPolicy::seeded`].
    Seeded {
        /// Probability of taking a licensed skip, in `[0, 1]`.
        probability: f64,
        /// Seed of the per-job draws.
        seed: u64,
    },
}

impl SkipPolicy {
    /// A validated [`SkipPolicy::Seeded`] policy.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] unless `probability ∈ [0, 1]`.
    pub fn seeded(probability: f64, seed: u64) -> Result<SkipPolicy, SimError> {
        if !probability.is_finite() || !(0.0..=1.0).contains(&probability) {
            return Err(SimError::InvalidConfig {
                field: "skip_probability",
                value: probability,
            });
        }
        Ok(SkipPolicy::Seeded { probability, seed })
    }

    /// Whether the policy takes a *licensed* skip of `job`. Pure in
    /// `(self, job)`.
    pub fn wants_skip(&self, job: JobId) -> bool {
        match *self {
            SkipPolicy::Greedy => true,
            SkipPolicy::Never => false,
            SkipPolicy::Seeded { probability, seed } => {
                let h = splitmix64(
                    seed ^ splitmix64(STREAM_SKIP)
                        ^ splitmix64(job.task.0 as u64 ^ splitmix64(job.index)),
                );
                // 53 high bits → exactly representable uniform grid in [0, 1).
                let u = (h >> 11) as f64 * (1.0 / 9_007_199_254_740_992.0);
                u < probability
            }
        }
    }
}

/// Whether shedding the job at `index` of an (m,k)-firm task is licensed,
/// given the task's raw outcome ring `bits` (bit `j % 64` set iff job `j`
/// met its deadline; only the trailing `k − 1` outcomes are inspected, so
/// `k ≤ 64` makes the ring collision-free).
///
/// The rule: a skip is licensed iff at least `m` of the last `k − 1` job
/// outcomes met their deadline, where outcomes before job 0 count as met.
/// Provided every non-skipped job meets its deadline, this keeps every
/// window of `k` consecutive jobs at `≥ m` met: for any window `W` ending
/// at or after the skipped job, the skipped position is `W`'s *only* loss
/// not already visible in the trailing window the rule inspected, and that
/// window already certified `m` survivors. This is the single shared
/// implementation — the simulator's release-time decision and the audit's
/// replay ([`MkWindow`](crate::MkWindow)) both call it.
pub(crate) fn mk_skip_allowed(bits: u64, index: u64, m: u32, k: u32) -> bool {
    let lookback = u64::from(k - 1);
    let real = lookback.min(index);
    // Outcomes before job 0 count as met: the window is padded with
    // virtual successes at startup.
    // lookback − real ≤ 63, so the cast is exact.
    let mut met = (lookback - real) as u32;
    for j in (index - real)..index {
        met += ((bits >> (j % 64)) & 1) as u32;
    }
    met >= m
}

/// Per-model statistics of one simulation run.
///
/// Always present on a [`SimOutcome`](crate::SimOutcome);
/// [`ModelReport::is_quiet`] on all-hard runs. The audit referee recomputes
/// every counter from the job records and flags divergence.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ModelReport {
    /// Weakly-hard jobs shed at release under the run's [`SkipPolicy`].
    pub skips: u64,
    /// Jobs released by weakly-hard tasks (skipped ones included).
    pub weakly_hard_jobs: u64,
    /// Jobs released by sporadic tasks.
    pub sporadic_jobs: u64,
    /// Jobs released by frame tasks.
    pub frame_jobs: u64,
    /// Dispatches whose speed was raised to a frame task's boost floor.
    pub boosted_dispatches: u64,
    /// Frame jobs that completed after their deadline.
    pub frame_misses: u64,
    /// The longest run of consecutive late frames of any single frame task.
    pub max_frame_miss_streak: u64,
    /// The shed weakly-hard jobs, sorted and deduplicated.
    pub skipped: Vec<JobId>,
}

impl ModelReport {
    /// Whether the run saw no model activity at all (always true for
    /// all-hard task sets).
    pub fn is_quiet(&self) -> bool {
        self.skips == 0
            && self.weakly_hard_jobs == 0
            && self.sporadic_jobs == 0
            && self.frame_jobs == 0
            && self.boosted_dispatches == 0
            && self.frame_misses == 0
            && self.max_frame_miss_streak == 0
            && self.skipped.is_empty()
    }

    /// Whether `job` was shed at release (see [`ModelReport::skipped`]).
    pub fn is_skipped(&self, job: JobId) -> bool {
        self.skipped.binary_search(&job).is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::TaskId;

    fn jid(task: usize, index: u64) -> JobId {
        JobId {
            task: TaskId(task),
            index,
        }
    }

    #[test]
    fn greedy_and_never_are_constant() {
        for i in 0..32 {
            assert!(SkipPolicy::Greedy.wants_skip(jid(1, i)));
            assert!(!SkipPolicy::Never.wants_skip(jid(1, i)));
        }
    }

    #[test]
    fn seeded_validates_probability() {
        assert!(SkipPolicy::seeded(0.0, 1).is_ok());
        assert!(SkipPolicy::seeded(1.0, 1).is_ok());
        assert!(SkipPolicy::seeded(-0.1, 1).is_err());
        assert!(SkipPolicy::seeded(1.1, 1).is_err());
        assert!(SkipPolicy::seeded(f64::NAN, 1).is_err());
    }

    #[test]
    fn seeded_is_deterministic_and_seed_sensitive() {
        let a = SkipPolicy::seeded(0.5, 11).unwrap();
        let b = SkipPolicy::seeded(0.5, 12).unwrap();
        let da: Vec<bool> = (0..64).map(|i| a.wants_skip(jid(2, i))).collect();
        let da2: Vec<bool> = (0..64).map(|i| a.wants_skip(jid(2, i))).collect();
        let db: Vec<bool> = (0..64).map(|i| b.wants_skip(jid(2, i))).collect();
        assert_eq!(da, da2);
        assert_ne!(da, db);
        let hits = da.iter().filter(|&&s| s).count();
        assert!(hits > 8 && hits < 56, "hits {hits}");
    }

    #[test]
    fn seeded_extremes() {
        let always = SkipPolicy::seeded(1.0, 3).unwrap();
        let never = SkipPolicy::seeded(0.0, 3).unwrap();
        for i in 0..32 {
            assert!(always.wants_skip(jid(0, i)));
            assert!(!never.wants_skip(jid(0, i)));
        }
    }

    #[test]
    fn report_accessors() {
        let mut r = ModelReport::default();
        assert!(r.is_quiet());
        assert!(!r.is_skipped(jid(0, 0)));
        r.skips = 2;
        r.weakly_hard_jobs = 5;
        r.skipped = vec![jid(0, 1), jid(1, 4)];
        assert!(!r.is_quiet());
        assert!(r.is_skipped(jid(0, 1)));
        assert!(r.is_skipped(jid(1, 4)));
        assert!(!r.is_skipped(jid(1, 3)));
    }
}
