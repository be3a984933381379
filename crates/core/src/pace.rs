//! Intra-job accelerating speed schedules (PACE-style) with online
//! demand-distribution profiling.
//!
//! A job granted wall-clock allowance `A` for worst-case work `W` can run
//! at the constant speed `W/A` — but if its actual demand is usually below
//! `W`, most of that speed is wasted caution. The PACE observation
//! (Lorch & Smith): run the *early* work slower and the *late* work faster;
//! jobs that finish early never execute the expensive fast tail, so the
//! expected energy drops while the worst case still fits in `A`.
//!
//! Split the remaining work into `n` equal chunks `w = W/n`; let `P_k` be
//! the probability the job still runs in chunk `k`. Minimizing expected
//! energy `Σ P_k · w · s_k²` (cubic power ⇒ energy per work `s²`) under the
//! worst-case constraint `Σ w/s_k = A` gives, by Lagrange multipliers,
//!
//! ```text
//! s_k = (Σ_j w · P_j^{1/3}) / (A · P_k^{1/3})   —  s_k ∝ P_k^{−1/3}.
//! ```
//!
//! The schedule is *deadline-neutral*: its worst case consumes exactly the
//! same allowance as the constant speed, so it composes with every slack
//! source unchanged.
//!
//! Where does `P_k` come from? A fixed assumption (e.g. uniform demand)
//! loses badly when wrong — under always-worst-case demand it pays the
//! convexity cost of its speed asymmetry for nothing. [`SurvivalEstimator`]
//! instead profiles each task's demand distribution *online* (the GRACE-OS
//! idea) and conditions on the job's current progress; with degenerate
//! demand the estimated survival is flat and the plan collapses to the
//! constant speed automatically. The paper lists "more aggressive slack
//! reclaiming strategies" as future work; this module is that extension,
//! implemented via the simulator's power-management-point support.

use stadvs_sim::WORK_EPS;

use crate::num::count_to_f64;

/// One step of an intra-job speed plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PaceStep {
    /// Normalized speed of this step (may exceed 1 before clamping —
    /// callers clamp and re-plan at each dispatch).
    pub speed: f64,
    /// Work executed in this step (full-speed seconds).
    pub work: f64,
}

/// The water-filling step planner, with its working buffers.
///
/// [`PacePlanner::plan`] computes the energy-optimal step plan for
/// `remaining` worst-case work in `allowance` wall time, given per-chunk
/// survival probabilities `survival[k] = P(job still runs in chunk k)` and
/// the platform's maximum achievable speed `cap`. A planner kept across
/// calls re-plans without allocating once its buffers have grown to the
/// largest step count it has seen; each call starts from cleared buffers,
/// so its plan depends on its arguments alone.
///
/// Survival values are clamped into `[1e-3, 1]`; an empty slice yields an
/// empty plan. No step exceeds `cap`, and the plan's worst case consumes
/// exactly `allowance` when no chunk saturates (at most `allowance`
/// otherwise).
///
/// The cap is load-bearing for the hard guarantee: the unconstrained
/// Lagrange solution accelerates its tail above the platform maximum
/// whenever `remaining/allowance` is close to `cap` (tight constrained
/// deadlines). A dispatcher that clamps those speeds afterwards runs the
/// early chunks slower than the constant-safe plan while relying on
/// unachievable future speeds — the worst case then overruns the deadline
/// by the clamped deficit. Saturated chunks are therefore pinned to `cap`
/// *inside* the optimization (water-filling) and the remaining chunks are
/// re-solved under the correspondingly reduced allowance, which restores
/// the KKT conditions of the capped problem.
#[derive(Debug, Clone, Default)]
pub struct PacePlanner {
    /// `P_k^{1/3}` per chunk.
    roots: Vec<f64>,
    /// Whether chunk `k` is pinned to the cap.
    capped: Vec<bool>,
    /// The last plan.
    steps: Vec<PaceStep>,
}

impl PacePlanner {
    /// A planner with empty buffers.
    pub fn new() -> PacePlanner {
        PacePlanner::default()
    }

    /// The energy-optimal step plan (see the type docs).
    pub fn plan(
        &mut self,
        remaining: f64,
        allowance: f64,
        cap: f64,
        survival: &[f64],
    ) -> &[PaceStep] {
        self.steps.clear();
        if survival.is_empty() || remaining <= WORK_EPS || allowance <= 0.0 || cap <= 0.0 {
            return &self.steps;
        }
        let n = count_to_f64(survival.len());
        let w = remaining / n;
        self.roots.clear();
        self.roots
            .extend(survival.iter().map(|p| p.clamp(1.0e-3, 1.0).cbrt()));
        self.capped.clear();
        self.capped.resize(self.roots.len(), false);
        loop {
            let free_norm: f64 = self
                .roots
                .iter()
                .zip(&self.capped)
                .filter(|&(_, &c)| !c)
                .map(|(r, _)| w * r)
                .sum();
            let capped_wall = count_to_f64(self.capped.iter().filter(|&&c| c).count()) * (w / cap);
            let avail = allowance - capped_wall;
            if free_norm <= 0.0 || avail <= 0.0 {
                // Every chunk saturates (allowance ≤ remaining/cap): the
                // best achievable schedule is flat at the cap.
                self.steps.extend(self.roots.iter().map(|_| PaceStep {
                    speed: cap,
                    work: w,
                }));
                return &self.steps;
            }
            let mut newly_capped = false;
            for (r, c) in self.roots.iter().zip(self.capped.iter_mut()) {
                if !*c && free_norm / (avail * r) > cap {
                    *c = true;
                    newly_capped = true;
                }
            }
            if !newly_capped {
                self.steps
                    .extend(self.roots.iter().zip(&self.capped).map(|(r, &c)| PaceStep {
                        speed: if c { cap } else { free_norm / (avail * r) },
                        work: w,
                    }));
                return &self.steps;
            }
        }
    }

    /// The first step of [`PacePlanner::plan`] — the only one that
    /// actually runs before the governor re-plans. Returns `None` when
    /// there is nothing to plan (`remaining ≈ 0`, no slowdown possible, or
    /// no chunks).
    pub fn first_step(
        &mut self,
        remaining: f64,
        allowance: f64,
        cap: f64,
        survival: &[f64],
    ) -> Option<PaceStep> {
        if allowance <= remaining {
            return None;
        }
        self.plan(remaining, allowance, cap, survival)
            .first()
            .copied()
    }
}

/// Uniform-demand survival probabilities, `P_k = 1 − (k−1)/n` — the
/// textbook PACE assumption, kept for tests and comparison.
pub fn uniform_survival(steps: u32) -> Vec<f64> {
    (0..steps)
        .map(|k| 1.0 - f64::from(k) / f64::from(steps))
        .collect()
}

/// Online per-task profile of the demand distribution: a sliding window of
/// observed `actual/wcet` ratios, queried for conditional survival.
///
/// `survival(f)` estimates `P(demand > f · wcet)` with add-one smoothing
/// (unknown distributions start at 1.0 — the conservative constant-speed
/// plan). [`SurvivalEstimator::chunk_survival`] conditions on the current
/// progress, since a running job's demand is known to exceed what it has
/// already executed.
#[derive(Debug, Clone)]
pub struct SurvivalEstimator {
    samples: Vec<f64>,
    capacity: usize,
    cursor: usize,
}

impl SurvivalEstimator {
    /// Creates an estimator keeping the last `capacity` observations.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> SurvivalEstimator {
        assert!(
            capacity > 0,
            "estimator needs capacity for at least one sample"
        );
        SurvivalEstimator {
            samples: Vec::with_capacity(capacity),
            capacity,
            cursor: 0,
        }
    }

    /// Records a completed job's `actual/wcet` ratio (clamped to `[0, 1]`).
    pub fn record(&mut self, ratio: f64) {
        let ratio = ratio.clamp(0.0, 1.0);
        if self.samples.len() < self.capacity {
            self.samples.push(ratio);
        } else {
            self.samples[self.cursor] = ratio;
            self.cursor = (self.cursor + 1) % self.capacity;
        }
    }

    /// Smoothed estimate of `P(demand > fraction · wcet)`.
    pub fn survival(&self, fraction: f64) -> f64 {
        let above = self.samples.iter().filter(|&&r| r > fraction).count();
        count_to_f64(above + 1) / count_to_f64(self.samples.len() + 1)
    }

    /// Number of recorded samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no sample has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Per-chunk conditional survival for a job that has already executed
    /// `executed` of its `wcet`, about to run `steps` chunks covering the
    /// remaining work: `P_k = S(executed + k·w) / S(executed)`, written
    /// into `out` (cleared first; left empty when `steps` is zero or
    /// `wcet` is not positive).
    pub fn chunk_survival(&self, executed: f64, wcet: f64, steps: u32, out: &mut Vec<f64>) {
        out.clear();
        if steps == 0 || wcet <= 0.0 {
            return;
        }
        let remaining = (wcet - executed).max(0.0);
        let w = remaining / f64::from(steps);
        let base = self.survival(executed / wcet).max(1.0e-9);
        out.extend((0..steps).map(|k| {
            let fraction = (executed + f64::from(k) * w) / wcet;
            (self.survival(fraction) / base).clamp(0.0, 1.0)
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stadvs_sim::rng::{check, Rng};

    #[test]
    fn plan_meets_the_worst_case_exactly() {
        let mut planner = PacePlanner::new();
        for steps in [1u32, 2, 4, 8, 32] {
            let p = planner.plan(2.0, 5.0, f64::INFINITY, &uniform_survival(steps));
            assert_eq!(p.len(), steps as usize);
            let wall: f64 = p.iter().map(|s| s.work / s.speed).sum();
            assert!(
                (wall - 5.0).abs() < 1e-9,
                "{steps} steps: worst-case wall {wall} != allowance 5"
            );
            for pair in p.windows(2) {
                assert!(pair[0].speed <= pair[1].speed + 1e-12);
            }
        }
    }

    #[test]
    fn flat_survival_collapses_to_constant_speed() {
        let mut planner = PacePlanner::new();
        for step in planner.plan(2.0, 5.0, f64::INFINITY, &[1.0, 1.0, 1.0, 1.0]) {
            assert!((step.speed - 0.4).abs() < 1e-12);
        }
    }

    #[test]
    fn first_step_is_slower_than_constant_under_decaying_survival() {
        let constant = 2.0 / 5.0;
        let mut planner = PacePlanner::new();
        for steps in [2u32, 4, 16] {
            let s = planner
                .first_step(2.0, 5.0, f64::INFINITY, &uniform_survival(steps))
                .expect("plannable");
            assert!(
                s.speed < constant,
                "{steps} steps: first speed {} !< {constant}",
                s.speed
            );
        }
    }

    #[test]
    fn capped_plan_never_exceeds_the_cap_and_still_fits_the_allowance() {
        let mut planner = PacePlanner::new();
        // Tight allowance: the unconstrained tail would need speed > 1.
        for (rem, allowance) in [(0.9, 1.0), (0.95, 1.0), (0.5, 0.52), (1.9, 2.0)] {
            for steps in [2u32, 4, 8, 32] {
                let p = planner.plan(rem, allowance, 1.0, &uniform_survival(steps));
                assert_eq!(p.len(), steps as usize);
                let wall: f64 = p.iter().map(|s| s.work / s.speed).sum();
                assert!(
                    wall <= allowance + 1e-9,
                    "rem={rem} A={allowance} n={steps}: worst case {wall} overruns"
                );
                for s in p {
                    assert!(
                        s.speed <= 1.0 + 1e-12,
                        "rem={rem} A={allowance} n={steps}: speed {} beyond cap",
                        s.speed
                    );
                }
                // Monotone acceleration is preserved (capped tail is flat).
                for pair in p.windows(2) {
                    assert!(pair[0].speed <= pair[1].speed + 1e-12);
                }
            }
        }
    }

    #[test]
    fn loose_allowance_is_unaffected_by_the_cap() {
        let mut planner = PacePlanner::new();
        let free = planner
            .plan(2.0, 5.0, f64::INFINITY, &uniform_survival(8))
            .to_vec();
        let capped = planner.plan(2.0, 5.0, 1.0, &uniform_survival(8));
        for (a, b) in free.iter().zip(capped) {
            assert!((a.speed - b.speed).abs() < 1e-12);
        }
    }

    #[test]
    fn infeasible_allowance_degenerates_to_flat_cap() {
        // allowance < remaining/cap: nothing better than flat-out exists.
        let mut planner = PacePlanner::new();
        for s in planner.plan(1.0, 0.5, 1.0, &uniform_survival(4)) {
            assert!((s.speed - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn expected_energy_beats_constant_for_matching_distribution() {
        let (w_total, allowance, steps) = (2.0_f64, 5.0_f64, 16u32);
        let survival = uniform_survival(steps);
        let mut planner = PacePlanner::new();
        let p = planner.plan(w_total, allowance, f64::INFINITY, &survival);
        let n = steps as f64;
        let expected = |speeds: &[f64]| -> f64 {
            speeds
                .iter()
                .zip(&survival)
                .map(|(s, pk)| pk * (w_total / n) * s * s)
                .sum()
        };
        let paced: Vec<f64> = p.iter().map(|s| s.speed).collect();
        let constant = vec![w_total / allowance; steps as usize];
        assert!(expected(&paced) < expected(&constant));
    }

    #[test]
    fn degenerate_inputs() {
        let mut planner = PacePlanner::new();
        assert!(planner.first_step(0.0, 1.0, 1.0, &[1.0]).is_none());
        assert!(planner.first_step(1.0, 0.5, 1.0, &[1.0]).is_none());
        assert!(planner.first_step(1.0, 2.0, 1.0, &[]).is_none());
        assert!(planner.plan(1.0, -1.0, 1.0, &[1.0]).is_empty());
        assert!(planner.plan(1.0, 1.0, 0.0, &[1.0]).is_empty());
    }

    /// Random survival values in `[0, 1]`, with some exact ones and zeros.
    fn random_survival(rng: &mut Rng, steps: u64, out: &mut Vec<f64>) {
        out.clear();
        for _ in 0..steps {
            out.push(match rng.below(4) {
                0 => 1.0,
                1 => 0.0,
                _ => rng.range_inclusive_f64(0.0, 1.0),
            });
        }
    }

    /// A planner reused across calls returns, at every call, the plan a
    /// fresh planner returns for the same arguments, bit for bit: no
    /// buffer (the chunk roots, the capped flags, the steps) carries
    /// state from one call into the next.
    #[test]
    fn a_reused_planner_plans_like_a_fresh_one() {
        check("a_reused_planner_plans_like_a_fresh_one", 256, |rng| {
            let mut reused = PacePlanner::new();
            let mut survival = Vec::new();
            for call in 0..24 {
                // 0 chunks (an empty survival vector) to 32, changing
                // between calls.
                let steps = rng.below(33);
                random_survival(rng, steps, &mut survival);
                let remaining = rng.range_inclusive_f64(0.01, 2.0);
                let cap = [1.0, 0.5, rng.range_inclusive_f64(0.1, 1.0)][rng.below(3) as usize];
                // Allowances at the all-saturated point `remaining/cap`,
                // below it, and in the range where the cap pins some
                // chunks and leaves the others free.
                let floor = remaining / cap;
                let allowance = match rng.below(4) {
                    0 => floor,
                    1 => floor * rng.range_inclusive_f64(0.1, 1.0),
                    2 => floor * rng.range_inclusive_f64(1.0, 1.2),
                    _ => floor * rng.range_inclusive_f64(1.0, 8.0),
                };
                let bits = |s: &PaceStep| (s.speed.to_bits(), s.work.to_bits());
                let want: Vec<_> = PacePlanner::new()
                    .plan(remaining, allowance, cap, &survival)
                    .iter()
                    .map(bits)
                    .collect();
                let got: Vec<_> = reused
                    .plan(remaining, allowance, cap, &survival)
                    .iter()
                    .map(bits)
                    .collect();
                if got != want {
                    let k = (0..).find(|&k| got.get(k) != want.get(k)).unwrap_or(0);
                    return Err(format!(
                        "call {call}: {steps} chunks, remaining {remaining}, allowance \
                         {allowance}, cap {cap}: step {k} differs from a fresh planner's"
                    ));
                }
                let want = PacePlanner::new().first_step(remaining, allowance, cap, &survival);
                let got = reused.first_step(remaining, allowance, cap, &survival);
                if got.as_ref().map(bits) != want.as_ref().map(bits) {
                    return Err(format!(
                        "call {call}: first step {got:?} reused, {want:?} fresh"
                    ));
                }
            }
            Ok(())
        });
    }

    #[test]
    fn estimator_learns_the_distribution() {
        let mut est = SurvivalEstimator::new(100);
        // No samples: conservative 1.0 everywhere.
        assert_eq!(est.survival(0.5), 1.0);
        assert!(est.is_empty());
        // Uniform demand on [0, 1]: survival(f) ≈ 1 − f.
        for i in 0..100 {
            est.record((i as f64 + 0.5) / 100.0);
        }
        assert_eq!(est.len(), 100);
        assert!((est.survival(0.5) - 0.5).abs() < 0.05);
        assert!((est.survival(0.9) - 0.1).abs() < 0.05);
    }

    #[test]
    fn worst_case_demand_yields_flat_conditional_survival() {
        let mut est = SurvivalEstimator::new(50);
        for _ in 0..50 {
            est.record(1.0);
        }
        let mut pk = Vec::new();
        est.chunk_survival(0.0, 1.0, 8, &mut pk);
        for p in &pk {
            assert!(*p > 0.95, "survival {p} should stay near 1 at worst case");
        }
        // The plan therefore collapses to (nearly) constant speed.
        let mut planner = PacePlanner::new();
        let steps = planner.plan(1.0, 2.0, f64::INFINITY, &pk);
        let spread = steps.last().expect("nonempty").speed - steps[0].speed;
        assert!(spread < 0.02, "speed spread {spread} should be negligible");
        // No chunks, or no positive WCET: an empty buffer, not a stale one.
        est.chunk_survival(0.0, 1.0, 0, &mut pk);
        assert!(pk.is_empty());
    }

    #[test]
    fn conditional_survival_accounts_for_progress() {
        let mut est = SurvivalEstimator::new(100);
        for i in 0..100 {
            est.record((i as f64 + 0.5) / 100.0);
        }
        // Having executed half the wcet, the chance of surviving to 75 %
        // is about 0.5 (uniform demand), not 0.25.
        let mut pk = Vec::new();
        est.chunk_survival(0.5, 1.0, 2, &mut pk);
        assert!((pk[0] - 1.0).abs() < 1e-9);
        assert!((pk[1] - 0.5).abs() < 0.1, "conditional survival {}", pk[1]);
    }

    #[test]
    fn sliding_window_forgets_old_behaviour() {
        let mut est = SurvivalEstimator::new(10);
        for _ in 0..10 {
            est.record(0.1);
        }
        for _ in 0..10 {
            est.record(1.0);
        }
        // The window now only holds worst-case samples.
        assert!(est.survival(0.5) > 0.9);
    }
}
