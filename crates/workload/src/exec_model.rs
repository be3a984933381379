//! Execution-demand (actual run-time) models.

use stadvs_sim::rng::{splitmix64, Rng};
use stadvs_sim::{ExecutionSource, Task, TaskId};

use crate::WorkloadError;

/// The shape of per-job actual demand, as a fraction of WCET.
///
/// All patterns are clamped into `[0, 1]` (a hard real-time job never
/// exceeds its worst case). The *dynamic workload* patterns (sinusoidal,
/// bursty) model the execution-time drift that motivates slack-analysis DVS:
/// history is a poor predictor, so the energy win must come from *measured*
/// slack, not forecasts.
#[derive(Debug, Clone, PartialEq)]
pub enum DemandPattern {
    /// Every job consumes exactly `ratio · wcet`.
    Constant {
        /// Fraction of WCET, in `[0, 1]`.
        ratio: f64,
    },
    /// Uniform in `[min, max] · wcet` — the standard BCET/WCET-ratio model
    /// (`min` is the BCET/WCET ratio when `max == 1`).
    Uniform {
        /// Lower fraction of WCET.
        min: f64,
        /// Upper fraction of WCET.
        max: f64,
    },
    /// A normal distribution clamped into `[floor, 1]`.
    Normal {
        /// Mean fraction of WCET.
        mean: f64,
        /// Standard deviation of the fraction.
        std_dev: f64,
        /// Lowest admissible fraction.
        floor: f64,
    },
    /// Two-point mixture: `high` with probability `high_probability`, else
    /// `low` (e.g. an MPEG decoder's I-frames vs B-frames).
    Bimodal {
        /// Fraction in the common (cheap) mode.
        low: f64,
        /// Fraction in the rare (expensive) mode.
        high: f64,
        /// Probability of the expensive mode.
        high_probability: f64,
    },
    /// Slow periodic drift: `mean + amplitude · sin(2π·(index+φ)/period_jobs)`
    /// with a per-task phase `φ`.
    Sinusoidal {
        /// Mean fraction of WCET.
        mean: f64,
        /// Oscillation amplitude.
        amplitude: f64,
        /// Jobs per full oscillation.
        period_jobs: u32,
    },
    /// Two-phase bursty workload: runs of `burst_jobs` consecutive jobs are
    /// either heavy (`high`) or light (`low`); each run's mode is an
    /// independent coin flip with heavy probability `duty`. Small uniform
    /// jitter (±5 % of WCET) is added within each run.
    Bursty {
        /// Fraction in light runs.
        low: f64,
        /// Fraction in heavy runs.
        high: f64,
        /// Length of each run, in jobs.
        burst_jobs: u32,
        /// Probability that a run is heavy.
        duty: f64,
    },
}

impl DemandPattern {
    fn validate(&self) -> Result<(), WorkloadError> {
        let check = |name: &'static str, v: f64, lo: f64, hi: f64| {
            if !v.is_finite() || v < lo || v > hi {
                Err(WorkloadError::InvalidParameter { name, value: v })
            } else {
                Ok(())
            }
        };
        match *self {
            DemandPattern::Constant { ratio } => check("ratio", ratio, 0.0, 1.0),
            DemandPattern::Uniform { min, max } => {
                check("min", min, 0.0, 1.0)?;
                check("max", max, min, 1.0)
            }
            DemandPattern::Normal {
                mean,
                std_dev,
                floor,
            } => {
                check("mean", mean, 0.0, 1.0)?;
                check("std_dev", std_dev, 0.0, 1.0)?;
                check("floor", floor, 0.0, 1.0)
            }
            DemandPattern::Bimodal {
                low,
                high,
                high_probability,
            } => {
                check("low", low, 0.0, 1.0)?;
                check("high", high, low, 1.0)?;
                check("high_probability", high_probability, 0.0, 1.0)
            }
            DemandPattern::Sinusoidal {
                mean,
                amplitude,
                period_jobs,
            } => {
                check("mean", mean, 0.0, 1.0)?;
                check("amplitude", amplitude, 0.0, 1.0)?;
                if period_jobs == 0 {
                    return Err(WorkloadError::InvalidParameter {
                        name: "period_jobs",
                        value: 0.0,
                    });
                }
                Ok(())
            }
            DemandPattern::Bursty {
                low,
                high,
                burst_jobs,
                duty,
            } => {
                check("low", low, 0.0, 1.0)?;
                check("high", high, low, 1.0)?;
                check("duty", duty, 0.0, 1.0)?;
                if burst_jobs == 0 {
                    return Err(WorkloadError::InvalidParameter {
                        name: "burst_jobs",
                        value: 0.0,
                    });
                }
                Ok(())
            }
        }
    }

    fn ratio(&self, seed: u64, task: TaskId, index: u64) -> f64 {
        let mut rng = job_rng(seed, task, index);
        let raw = match *self {
            DemandPattern::Constant { ratio } => ratio,
            DemandPattern::Uniform { min, max } => {
                if max > min {
                    rng.range_inclusive_f64(min, max)
                } else {
                    min
                }
            }
            DemandPattern::Normal {
                mean,
                std_dev,
                floor,
            } => (mean + std_dev * standard_normal(&mut rng)).clamp(floor, 1.0),
            DemandPattern::Bimodal {
                low,
                high,
                high_probability,
            } => {
                if rng.unit_f64() < high_probability {
                    high
                } else {
                    low
                }
            }
            DemandPattern::Sinusoidal {
                mean,
                amplitude,
                period_jobs,
            } => {
                let phase = (task_hash(seed, task) % u64::from(period_jobs)) as f64;
                let x = (index as f64 + phase) / f64::from(period_jobs);
                mean + amplitude * (2.0 * std::f64::consts::PI * x).sin()
            }
            DemandPattern::Bursty {
                low,
                high,
                burst_jobs,
                duty,
            } => {
                let run = index / u64::from(burst_jobs);
                // The run's mode must be identical for all jobs in the run:
                // derive it from (seed, task, run), not from the job rng.
                let coin =
                    splitmix64(task_hash(seed, task) ^ splitmix64(run)) as f64 / u64::MAX as f64;
                let base = if coin < duty { high } else { low };
                base + rng.range_inclusive_f64(-0.05, 0.05)
            }
        };
        raw.clamp(0.0, 1.0)
    }
}

/// A deterministic [`ExecutionSource`] built from a [`DemandPattern`] and a
/// seed.
///
/// Determinism is *per job*: the demand of job `(task, index)` depends only
/// on `(pattern, seed, task, index)`, never on evaluation order. The same
/// workload can therefore be replayed for every governor, and clairvoyant
/// analyses (oracle bounds) see exactly the jobs the simulator ran.
///
/// ```
/// use stadvs_sim::{ExecutionSource, Task, TaskId};
/// use stadvs_workload::{DemandPattern, ExecutionModel};
///
/// # fn main() -> Result<(), stadvs_workload::WorkloadError> {
/// let model = ExecutionModel::new(DemandPattern::Uniform { min: 0.2, max: 1.0 })?
///     .with_seed(42);
/// let task = Task::new(1.0e-3, 10.0e-3).expect("valid task");
/// let a = model.actual_work(TaskId(0), &task, 7);
/// let b = model.actual_work(TaskId(0), &task, 7);
/// assert_eq!(a, b); // replayable
/// assert!(a >= 0.2e-3 && a <= 1.0e-3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionModel {
    pattern: DemandPattern,
    seed: u64,
}

impl ExecutionModel {
    /// Creates a model with seed 0.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InvalidParameter`] if the pattern's
    /// parameters are out of range.
    pub fn new(pattern: DemandPattern) -> Result<ExecutionModel, WorkloadError> {
        pattern.validate()?;
        Ok(ExecutionModel { pattern, seed: 0 })
    }

    /// Returns the model with a different seed (changes every random draw
    /// while keeping the distribution).
    pub fn with_seed(mut self, seed: u64) -> ExecutionModel {
        self.seed = seed;
        self
    }

    /// The demand pattern.
    pub fn pattern(&self) -> &DemandPattern {
        &self.pattern
    }

    /// The seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The standard literature model: uniform in `[bcet_ratio, 1] · wcet`.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InvalidParameter`] if `bcet_ratio` is not in
    /// `[0, 1]`.
    pub fn uniform_bcet(bcet_ratio: f64) -> Result<ExecutionModel, WorkloadError> {
        ExecutionModel::new(DemandPattern::Uniform {
            min: bcet_ratio,
            max: 1.0,
        })
    }
}

impl ExecutionSource for ExecutionModel {
    fn actual_work(&self, task_id: TaskId, task: &Task, job_index: u64) -> f64 {
        self.pattern.ratio(self.seed, task_id, job_index) * task.wcet()
    }
}

fn task_hash(seed: u64, task: TaskId) -> u64 {
    splitmix64(seed ^ splitmix64(task.0 as u64 ^ 0xA5A5_5A5A_DEAD_BEEF))
}

fn job_rng(seed: u64, task: TaskId, index: u64) -> Rng {
    Rng::seed_from_u64(splitmix64(task_hash(seed, task) ^ splitmix64(index)))
}

/// A standard-normal draw via Box–Muller.
fn standard_normal(rng: &mut Rng) -> f64 {
    let u1 = rng.range_f64(f64::MIN_POSITIVE, 1.0);
    let u2 = rng.unit_f64();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn task() -> Task {
        Task::new(1.0, 10.0).expect("valid task")
    }

    fn sample(model: &ExecutionModel, task_id: usize, count: u64) -> Vec<f64> {
        let t = task();
        (0..count)
            .map(|i| model.actual_work(TaskId(task_id), &t, i))
            .collect()
    }

    #[test]
    fn all_patterns_stay_within_wcet() {
        let patterns = vec![
            DemandPattern::Constant { ratio: 0.5 },
            DemandPattern::Uniform { min: 0.1, max: 1.0 },
            DemandPattern::Normal {
                mean: 0.5,
                std_dev: 0.2,
                floor: 0.05,
            },
            DemandPattern::Bimodal {
                low: 0.2,
                high: 0.9,
                high_probability: 0.1,
            },
            DemandPattern::Sinusoidal {
                mean: 0.5,
                amplitude: 0.4,
                period_jobs: 50,
            },
            DemandPattern::Bursty {
                low: 0.2,
                high: 0.9,
                burst_jobs: 10,
                duty: 0.3,
            },
        ];
        for p in patterns {
            let m = ExecutionModel::new(p.clone()).unwrap().with_seed(11);
            for w in sample(&m, 0, 500) {
                assert!((0.0..=1.0 + 1e-12).contains(&w), "{p:?} produced {w}");
            }
        }
    }

    #[test]
    fn determinism_is_order_independent() {
        let m = ExecutionModel::uniform_bcet(0.2).unwrap().with_seed(5);
        let t = task();
        let forward: Vec<f64> = (0..20).map(|i| m.actual_work(TaskId(1), &t, i)).collect();
        let backward: Vec<f64> = (0..20)
            .rev()
            .map(|i| m.actual_work(TaskId(1), &t, i))
            .collect();
        let reversed: Vec<f64> = backward.into_iter().rev().collect();
        assert_eq!(forward, reversed);
    }

    #[test]
    fn different_tasks_and_seeds_decorrelate() {
        let m = ExecutionModel::uniform_bcet(0.0).unwrap().with_seed(5);
        let a = sample(&m, 0, 50);
        let b = sample(&m, 1, 50);
        assert_ne!(a, b);
        let m2 = ExecutionModel::uniform_bcet(0.0).unwrap().with_seed(6);
        assert_ne!(sample(&m2, 0, 50), a);
    }

    #[test]
    fn uniform_mean_is_midpoint() {
        let m = ExecutionModel::new(DemandPattern::Uniform { min: 0.2, max: 0.8 })
            .unwrap()
            .with_seed(7);
        let xs = sample(&m, 0, 4000);
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn bimodal_hits_both_modes() {
        let m = ExecutionModel::new(DemandPattern::Bimodal {
            low: 0.2,
            high: 0.9,
            high_probability: 0.3,
        })
        .unwrap()
        .with_seed(8);
        let xs = sample(&m, 0, 1000);
        let high = xs.iter().filter(|&&x| (x - 0.9).abs() < 1e-9).count();
        let low = xs.iter().filter(|&&x| (x - 0.2).abs() < 1e-9).count();
        assert_eq!(high + low, 1000);
        let frac = high as f64 / 1000.0;
        assert!((frac - 0.3).abs() < 0.05, "high fraction {frac}");
    }

    #[test]
    fn sinusoidal_oscillates() {
        let m = ExecutionModel::new(DemandPattern::Sinusoidal {
            mean: 0.5,
            amplitude: 0.4,
            period_jobs: 20,
        })
        .unwrap();
        let xs = sample(&m, 0, 100);
        let max = xs.iter().cloned().fold(0.0, f64::max);
        let min = xs.iter().cloned().fold(1.0, f64::min);
        assert!(max > 0.8 && min < 0.2, "range [{min}, {max}] too narrow");
    }

    #[test]
    fn bursty_runs_are_coherent() {
        let m = ExecutionModel::new(DemandPattern::Bursty {
            low: 0.1,
            high: 0.9,
            burst_jobs: 25,
            duty: 0.5,
        })
        .unwrap()
        .with_seed(13);
        let xs = sample(&m, 0, 200);
        // Within each run of 25 jobs, all demands share the mode (within the
        // ±0.05 jitter).
        for run in xs.chunks(25) {
            let heavy = run.iter().filter(|&&x| x > 0.5).count();
            assert!(
                heavy == 0 || heavy == run.len(),
                "run mixes modes: {heavy}/{}",
                run.len()
            );
        }
        // Both modes occur over 8 runs with high probability.
        assert!(xs.iter().any(|&x| x > 0.5));
        assert!(xs.iter().any(|&x| x < 0.5));
    }

    #[test]
    fn validation_rejects_bad_parameters() {
        assert!(ExecutionModel::new(DemandPattern::Constant { ratio: 1.5 }).is_err());
        assert!(ExecutionModel::new(DemandPattern::Uniform { min: 0.8, max: 0.2 }).is_err());
        assert!(ExecutionModel::new(DemandPattern::Sinusoidal {
            mean: 0.5,
            amplitude: 0.1,
            period_jobs: 0
        })
        .is_err());
        assert!(ExecutionModel::uniform_bcet(-0.1).is_err());
        assert!(ExecutionModel::uniform_bcet(0.5).is_ok());
    }

    #[test]
    fn normal_is_truncated() {
        let m = ExecutionModel::new(DemandPattern::Normal {
            mean: 0.1,
            std_dev: 0.5,
            floor: 0.05,
        })
        .unwrap()
        .with_seed(3);
        let xs = sample(&m, 0, 500);
        assert!(xs
            .iter()
            .all(|&x| (0.05 - 1e-12..=1.0 + 1e-12).contains(&x)));
    }
}
