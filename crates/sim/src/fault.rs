//! Deterministic fault injection: WCET overruns, release jitter, dropped
//! frequency switches, clamped speed levels — and the overrun policies
//! governors declare against them.
//!
//! A [`FaultPlan`] is a seeded recipe the simulator consults at well-defined
//! points of its event loop. Every query is a pure hash of
//! `(seed, stream, task, job index)`, so a plan is replayable: the same
//! workload under the same plan produces the same faults for every governor,
//! which is what lets the differential harness compare governors under
//! identical adversity.
//!
//! Fault semantics are chosen so that a plan whose overrun factor stays at
//! or below `1.0` is *guarantee-preserving* for every correctly implemented
//! hard-real-time governor:
//!
//! * **Release jitter** only delays releases, and consecutive releases of a
//!   task stay at least one period apart (the simulator enforces the
//!   sporadic separation `r_{k+1} ≥ r_k + T`). Deadlines anchor at the
//!   jittered release. Arrivals never come earlier than a governor may
//!   assume, so slack certificates stay valid.
//! * **Dropped switches** suppress *downward* speed changes only: the
//!   processor keeps running at least as fast as requested. Energy degrades
//!   observably; deadlines cannot.
//! * **Level clamping** raises every selected speed to a floor — a platform
//!   refusing its lowest operating points. Again only ever faster.
//! * **WCET overruns** (factor > 1) are the genuinely destructive fault:
//!   a job's actual demand exceeds the budget every analysis certified
//!   against. The simulator detects the overrun the instant the job's
//!   executed work crosses its WCET and applies the governor's declared
//!   [`OverrunPolicy`].

use crate::job::JobId;
use crate::rng::splitmix64;
use crate::task::TaskId;
use crate::SimError;

/// How a governor degrades when a job overruns its declared WCET — the
/// moment its slack certificate is invalidated.
///
/// Every governor declares one via
/// [`Governor::overrun_policy`](crate::Governor::overrun_policy); a
/// [`FaultPlan`] may override the declaration for differential experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OverrunPolicy {
    /// Kill the overrunning job at the detection instant. Its remaining
    /// demand is discarded and the job is recorded as incomplete (a
    /// fault-attributed miss if its deadline was due), protecting the rest
    /// of the task set from the rogue demand.
    Abort,
    /// Escalate the overrunning job to full speed until it completes (the
    /// default). The backlog drains at the maximum rate the platform has;
    /// other jobs may still miss, but every miss is fault-attributed.
    #[default]
    CompleteAtMax,
    /// Like [`OverrunPolicy::CompleteAtMax`], and additionally suppress the
    /// task's next release — the skip model of weakly-hard scheduling: shed
    /// one future instance to recover the budget the overrun consumed.
    SkipNext,
}

/// One injected fault (or its consequence), attributed to a job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// The job's actual demand exceeded its WCET by `factor`.
    WcetOverrun {
        /// Ratio `actual / wcet` (> 1).
        factor: f64,
    },
    /// The job was killed by [`OverrunPolicy::Abort`].
    Aborted,
    /// The job's release was suppressed by [`OverrunPolicy::SkipNext`].
    SkippedRelease,
    /// The job was escalated to full speed after an overrun.
    ForcedFullSpeed,
    /// A requested downward speed switch was dropped while this job was
    /// dispatched; the processor kept its previous (faster) speed.
    DroppedSwitch,
    /// The job's release was delayed by `delay` seconds.
    JitteredRelease {
        /// The injected delay, in seconds.
        delay: f64,
    },
}

/// One fault occurrence: what happened, to which job, when.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// The affected job.
    pub job: JobId,
    /// Simulation time of the occurrence, in seconds.
    pub at: f64,
    /// What happened.
    pub kind: FaultKind,
}

/// Structured degradation report of one simulation run.
///
/// Always present on a [`SimOutcome`](crate::SimOutcome);
/// [`FaultReport::is_quiet`] on runs without injected faults.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultReport {
    /// Jobs whose actual demand exceeded their WCET.
    pub overruns: u64,
    /// Jobs killed by [`OverrunPolicy::Abort`].
    pub aborted: u64,
    /// Releases suppressed by [`OverrunPolicy::SkipNext`].
    pub skipped_releases: u64,
    /// Jobs escalated to full speed after an overrun.
    pub forced_full_speed: u64,
    /// Downward speed switches dropped by the plan.
    pub dropped_switches: u64,
    /// Releases delayed by injected jitter.
    pub jittered_releases: u64,
    /// Speed selections raised to the plan's level floor.
    pub clamped_selections: u64,
    /// Completed overrun-recovery episodes (overrun detection → the
    /// processor's ready set draining empty).
    pub recovery_episodes: u64,
    /// Total wall-clock time spent in recovery episodes, in seconds.
    pub recovery_time: f64,
    /// The longest single recovery episode, in seconds.
    pub max_recovery_latency: f64,
    /// Jobs whose outcome an overrun may have affected (the contamination
    /// closure: the overrunning job itself plus every job that shared a
    /// busy interval with the backlog it caused). Sorted, deduplicated.
    /// A deadline miss of a job *not* in this list is an algorithm bug.
    pub contaminated: Vec<JobId>,
    /// The individual fault occurrences, in event order.
    pub events: Vec<FaultEvent>,
}

impl FaultReport {
    /// Whether the run saw no fault activity at all.
    pub fn is_quiet(&self) -> bool {
        self.overruns == 0
            && self.aborted == 0
            && self.skipped_releases == 0
            && self.forced_full_speed == 0
            && self.dropped_switches == 0
            && self.jittered_releases == 0
            && self.clamped_selections == 0
            && self.contaminated.is_empty()
            && self.events.is_empty()
    }

    /// Mean recovery latency over completed episodes (0 when none).
    pub fn mean_recovery_latency(&self) -> f64 {
        if self.recovery_episodes == 0 {
            0.0
        } else {
            self.recovery_time / self.recovery_episodes as f64
        }
    }

    /// Whether `job`'s outcome may have been affected by an injected
    /// overrun (see [`FaultReport::contaminated`]).
    pub fn is_contaminated(&self, job: JobId) -> bool {
        self.contaminated.binary_search(&job).is_ok()
    }
}

/// WCET-overrun injection: each job independently overruns with
/// `probability`, multiplying its actual demand by `factor`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct OverrunFaults {
    probability: f64,
    factor: f64,
}

/// Release-jitter injection: each release is independently delayed with
/// `probability` by a deterministic draw from `[0, max_fraction · period]`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct JitterFaults {
    probability: f64,
    max_fraction: f64,
}

/// Switch-drop injection: each candidate *downward* speed switch is
/// independently dropped with `probability`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct SwitchDropFaults {
    probability: f64,
}

/// A deterministic, seed-driven fault-injection recipe.
///
/// Construct with [`FaultPlan::none`] or [`FaultPlan::new`], then layer
/// fault channels with the `with_*` builders. The plan is `Copy` and cheap
/// to thread through experiment configuration.
///
/// ```
/// use stadvs_sim::{FaultPlan, OverrunPolicy};
///
/// # fn main() -> Result<(), stadvs_sim::SimError> {
/// let plan = FaultPlan::new(7)
///     .with_overrun(0.1, 1.5)?
///     .with_release_jitter(0.2, 0.3)?
///     .with_policy_override(OverrunPolicy::CompleteAtMax);
/// assert!(!plan.is_none());
/// assert!(FaultPlan::none().is_none());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultPlan {
    seed: u64,
    overrun: Option<OverrunFaults>,
    jitter: Option<JitterFaults>,
    switch_drops: Option<SwitchDropFaults>,
    level_floor: Option<f64>,
    policy_override: Option<OverrunPolicy>,
}

/// Per-channel hash stream separators (arbitrary odd constants).
const STREAM_OVERRUN: u64 = 0x0F4A_11A5_0001;
const STREAM_JITTER_GATE: u64 = 0x0F4A_11A5_0003;
const STREAM_JITTER_MAG: u64 = 0x0F4A_11A5_0005;
const STREAM_SWITCH: u64 = 0x0F4A_11A5_0007;

impl FaultPlan {
    /// The no-fault plan: every query is a constant-time no-op answer. The
    /// simulator's fast path checks [`FaultPlan::is_none`] once per run and
    /// skips all fault bookkeeping.
    pub const NONE: FaultPlan = FaultPlan {
        seed: 0,
        overrun: None,
        jitter: None,
        switch_drops: None,
        level_floor: None,
        policy_override: None,
    };

    /// The no-fault plan (same as [`FaultPlan::NONE`]).
    pub fn none() -> FaultPlan {
        FaultPlan::NONE
    }

    /// An empty plan carrying `seed`; layer faults with the `with_*`
    /// builders.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            ..FaultPlan::NONE
        }
    }

    /// Adds WCET overruns: each job independently overruns with
    /// `probability`, multiplying its actual demand by `factor`.
    ///
    /// A `factor ≤ 1` never pushes demand past the WCET (a benign scaling,
    /// useful as the control arm of differential tests); a `factor > 1` is
    /// a genuine budget violation.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] unless `probability ∈ [0, 1]`
    /// and `factor` is finite and positive.
    pub fn with_overrun(mut self, probability: f64, factor: f64) -> Result<FaultPlan, SimError> {
        check_probability("overrun_probability", probability)?;
        if !factor.is_finite() || factor <= 0.0 {
            return Err(SimError::InvalidConfig {
                field: "overrun_factor",
                value: factor,
            });
        }
        self.overrun = Some(OverrunFaults {
            probability,
            factor,
        });
        Ok(self)
    }

    /// Adds release jitter: each release is independently delayed with
    /// `probability` by a deterministic draw from
    /// `[0, max_fraction · period]`. The simulator additionally enforces
    /// the sporadic separation `r_{k+1} ≥ r_k + T`, so jitter never
    /// compresses inter-arrival times.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] unless `probability ∈ [0, 1]`
    /// and `max_fraction` is finite and non-negative.
    pub fn with_release_jitter(
        mut self,
        probability: f64,
        max_fraction: f64,
    ) -> Result<FaultPlan, SimError> {
        check_probability("jitter_probability", probability)?;
        if !max_fraction.is_finite() || max_fraction < 0.0 {
            return Err(SimError::InvalidConfig {
                field: "jitter_max_fraction",
                value: max_fraction,
            });
        }
        self.jitter = Some(JitterFaults {
            probability,
            max_fraction,
        });
        Ok(self)
    }

    /// Adds switch drops: each candidate *downward* speed switch is
    /// independently dropped with `probability` (the processor keeps its
    /// previous, faster speed). Upward switches always go through —
    /// dropping them could cause misses the model does not attribute.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] unless `probability ∈ [0, 1]`.
    pub fn with_switch_drops(mut self, probability: f64) -> Result<FaultPlan, SimError> {
        check_probability("switch_drop_probability", probability)?;
        self.switch_drops = Some(SwitchDropFaults { probability });
        Ok(self)
    }

    /// Clamps every selected speed up to `floor` — a platform whose lowest
    /// operating points are unavailable (a coarsened discrete level set).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] unless `floor ∈ (0, 1]`.
    pub fn with_level_floor(mut self, floor: f64) -> Result<FaultPlan, SimError> {
        if !floor.is_finite() || floor <= 0.0 || floor > 1.0 {
            return Err(SimError::InvalidConfig {
                field: "level_floor",
                value: floor,
            });
        }
        self.level_floor = Some(floor);
        Ok(self)
    }

    /// Overrides every governor's declared [`OverrunPolicy`] with `policy`
    /// (differential tests force a uniform policy so release/completion
    /// sets stay comparable across governors).
    pub fn with_policy_override(mut self, policy: OverrunPolicy) -> FaultPlan {
        self.policy_override = Some(policy);
        self
    }

    /// Whether this plan injects nothing (the simulator's fast path).
    pub fn is_none(&self) -> bool {
        self.overrun.is_none()
            && self.jitter.is_none()
            && self.switch_drops.is_none()
            && self.level_floor.is_none()
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The forced policy, if any.
    pub fn policy_override(&self) -> Option<OverrunPolicy> {
        self.policy_override
    }

    /// The policy to apply for an overrun, given the governor's declared
    /// one.
    pub fn resolve_policy(&self, declared: OverrunPolicy) -> OverrunPolicy {
        self.policy_override.unwrap_or(declared)
    }

    /// The demand multiplier of job `(task, index)` (1.0 when the job is
    /// not selected for overrun).
    pub fn overrun_factor(&self, task: TaskId, index: u64) -> f64 {
        match self.overrun {
            Some(o) if self.chance(STREAM_OVERRUN, task.0 as u64, index) < o.probability => {
                o.factor
            }
            _ => 1.0,
        }
    }

    /// The release delay of job `(task, index)` in seconds (0.0 when the
    /// release is not selected for jitter). `period` scales the magnitude.
    pub fn release_delay(&self, task: TaskId, index: u64, period: f64) -> f64 {
        match self.jitter {
            Some(j) if self.chance(STREAM_JITTER_GATE, task.0 as u64, index) < j.probability => {
                self.chance(STREAM_JITTER_MAG, task.0 as u64, index) * j.max_fraction * period
            }
            _ => 0.0,
        }
    }

    /// Whether the `ordinal`-th candidate downward switch of the run is
    /// dropped.
    pub fn drops_switch(&self, ordinal: u64) -> bool {
        match self.switch_drops {
            Some(s) => self.chance(STREAM_SWITCH, 0, ordinal) < s.probability,
            None => false,
        }
    }

    /// The speed floor (level clamp), if any.
    pub fn level_floor(&self) -> Option<f64> {
        self.level_floor
    }

    /// Whether the release-jitter channel is present. The simulator only
    /// switches to the jittered sporadic release recurrence when it is, so
    /// plans without jitter keep bit-exact periodic release instants.
    pub fn has_jitter(&self) -> bool {
        self.jitter.is_some()
    }

    /// Everything a release instant reads of the plan, as bits: the seed
    /// and the jitter channel's probability and magnitude; `None` without
    /// a jitter channel, when releases read nothing of the plan.
    pub(crate) fn jitter_bits(&self) -> Option<[u64; 3]> {
        self.jitter
            .map(|j| [self.seed, j.probability.to_bits(), j.max_fraction.to_bits()])
    }

    /// A deterministic uniform draw in `[0, 1)` keyed on
    /// `(seed, stream, a, b)`.
    fn chance(&self, stream: u64, a: u64, b: u64) -> f64 {
        let h = splitmix64(self.seed ^ splitmix64(stream) ^ splitmix64(a ^ splitmix64(b)));
        // 53 high bits → exactly representable uniform grid in [0, 1).
        (h >> 11) as f64 * (1.0 / 9_007_199_254_740_992.0)
    }
}

fn check_probability(field: &'static str, p: f64) -> Result<(), SimError> {
    if !p.is_finite() || !(0.0..=1.0).contains(&p) {
        return Err(SimError::InvalidConfig { field, value: p });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_plan_is_inert() {
        let p = FaultPlan::none();
        assert!(p.is_none());
        assert_eq!(p.overrun_factor(TaskId(0), 0), 1.0);
        assert_eq!(p.release_delay(TaskId(0), 0, 1.0), 0.0);
        assert!(!p.drops_switch(0));
        assert_eq!(p.level_floor(), None);
        assert_eq!(p.resolve_policy(OverrunPolicy::Abort), OverrunPolicy::Abort);
    }

    #[test]
    fn builders_validate() {
        assert!(FaultPlan::new(1).with_overrun(1.5, 2.0).is_err());
        assert!(FaultPlan::new(1).with_overrun(0.5, 0.0).is_err());
        assert!(FaultPlan::new(1).with_overrun(0.5, f64::NAN).is_err());
        assert!(FaultPlan::new(1).with_release_jitter(-0.1, 0.5).is_err());
        assert!(FaultPlan::new(1).with_release_jitter(0.5, -1.0).is_err());
        assert!(FaultPlan::new(1).with_switch_drops(2.0).is_err());
        assert!(FaultPlan::new(1).with_level_floor(0.0).is_err());
        assert!(FaultPlan::new(1).with_level_floor(1.5).is_err());
        let ok = FaultPlan::new(1)
            .with_overrun(0.2, 1.5)
            .unwrap()
            .with_release_jitter(0.1, 0.25)
            .unwrap()
            .with_switch_drops(0.3)
            .unwrap()
            .with_level_floor(0.4)
            .unwrap();
        assert!(!ok.is_none());
        assert_eq!(ok.seed(), 1);
    }

    #[test]
    fn queries_are_deterministic_and_seed_sensitive() {
        let a = FaultPlan::new(11).with_overrun(0.5, 2.0).unwrap();
        let b = FaultPlan::new(12).with_overrun(0.5, 2.0).unwrap();
        let fa: Vec<f64> = (0..64).map(|i| a.overrun_factor(TaskId(1), i)).collect();
        let fa2: Vec<f64> = (0..64).map(|i| a.overrun_factor(TaskId(1), i)).collect();
        let fb: Vec<f64> = (0..64).map(|i| b.overrun_factor(TaskId(1), i)).collect();
        assert_eq!(fa, fa2);
        assert_ne!(fa, fb);
        // Probability 0.5 must select some but not all of 64 jobs.
        let hits = fa.iter().filter(|&&f| f > 1.0).count();
        assert!(hits > 8 && hits < 56, "hits {hits}");
    }

    #[test]
    fn probabilities_are_respected_at_the_extremes() {
        let always = FaultPlan::new(3).with_overrun(1.0, 1.5).unwrap();
        let never = FaultPlan::new(3).with_overrun(0.0, 1.5).unwrap();
        for i in 0..32 {
            assert_eq!(always.overrun_factor(TaskId(0), i), 1.5);
            assert_eq!(never.overrun_factor(TaskId(0), i), 1.0);
        }
        let drops = FaultPlan::new(3).with_switch_drops(1.0).unwrap();
        assert!((0..32).all(|o| drops.drops_switch(o)));
    }

    #[test]
    fn jitter_magnitude_is_bounded() {
        let p = FaultPlan::new(5).with_release_jitter(1.0, 0.5).unwrap();
        for i in 0..128 {
            let d = p.release_delay(TaskId(2), i, 4.0);
            assert!((0.0..2.0).contains(&d), "delay {d} out of [0, 2)");
        }
        // Some delay is actually injected.
        assert!((0..128).any(|i| p.release_delay(TaskId(2), i, 4.0) > 0.0));
    }

    #[test]
    fn policy_override_wins() {
        let p = FaultPlan::new(1).with_policy_override(OverrunPolicy::SkipNext);
        assert_eq!(
            p.resolve_policy(OverrunPolicy::Abort),
            OverrunPolicy::SkipNext
        );
        assert_eq!(p.policy_override(), Some(OverrunPolicy::SkipNext));
    }

    #[test]
    fn report_accessors() {
        let mut r = FaultReport::default();
        assert!(r.is_quiet());
        assert_eq!(r.mean_recovery_latency(), 0.0);
        r.overruns = 2;
        r.recovery_episodes = 2;
        r.recovery_time = 3.0;
        r.contaminated = vec![
            JobId {
                task: TaskId(0),
                index: 1,
            },
            JobId {
                task: TaskId(1),
                index: 0,
            },
        ];
        assert!(!r.is_quiet());
        assert!((r.mean_recovery_latency() - 1.5).abs() < 1e-12);
        assert!(r.is_contaminated(JobId {
            task: TaskId(1),
            index: 0
        }));
        assert!(!r.is_contaminated(JobId {
            task: TaskId(1),
            index: 5
        }));
    }

    #[test]
    fn plans_compare_structurally() {
        let a = FaultPlan::new(9).with_overrun(0.25, 1.75).unwrap();
        let b = FaultPlan::new(9).with_overrun(0.25, 1.75).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, FaultPlan::none());
        assert_ne!(a, a.with_policy_override(OverrunPolicy::Abort));
    }
}
