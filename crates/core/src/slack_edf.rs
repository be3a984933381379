//! The slack-time-analysis DVS-EDF governor — the paper's contribution.

use stadvs_power::{Processor, Speed};
use stadvs_sim::{
    ActiveJob, AnalysisStats, Governor, JobRecord, OverrunPolicy, SchedulerView, TaskSet, TIME_EPS,
};

use crate::config::SlackEdfConfig;
use crate::pace::{PacePlanner, SurvivalEstimator};
use crate::sources::{arrival_allowance, DemandAnalysis, ReclaimedPool};

/// Slack-time-analysis EDF (stEDF): at every scheduling point, estimate the
/// slack the dispatched EDF job may safely consume — from **reclaimed
/// earliness**, **arrival stretching**, and **look-ahead demand analysis**
/// — and run the job at
///
/// ```text
/// speed = remaining worst-case work / certified wall-clock allowance
/// ```
///
/// clamped to the platform's range and quantized **up** to an available
/// operating point. All slack is accounted in one currency — *canonical
/// claims*, the wall-clock occupancy each job holds in the EDF schedule
/// stretched to speed `U` — so the three sources compose additively (see
/// [`crate::sources`]), and the decision is re-made at every scheduling
/// point.
///
/// With [`SlackEdfConfig::overhead_aware`] the governor prices the
/// transition latency into the claims currency itself:
///
/// * every job carries a per-task switch margin
///   `m_i = δ·(2 + Σ_{D_j<D_i} ((D_i − D_j)/T_j + 1))` covering its
///   worst-case switch count (dispatch plus one resume per possible
///   preemption), and the canonical stretch is re-solved so claims still
///   accrue at rate 1 — when no such stretch exists the governor
///   degenerates to full speed (zero switches, trivially safe);
/// * the dispatch speed is *committed* across non-preempting releases
///   (they were already counted by the claims analysis), which is what
///   makes the margin bound valid;
/// * margins are not plannable as execution time: the dispatch speed uses
///   `allowance − m_i`;
/// * it refuses to switch *down* when the projected energy saving over the
///   job's worst-case remainder does not cover two transition energies
///   (the pessimistic-judgment rule) — switches *up* needed for
///   feasibility are always taken.
///
/// Deadline safety: every second of a job's allowance is backed by a
/// claim the slack-time analysis proved lies before the job's deadline in
/// the worst case — the initial grant by the EDF feasibility of the task
/// set, each reclaimed increment by the ledger's deadline-tagged
/// accounting — so executing `remaining/allowance ≤ 1` (capped pacing
/// included) completes the worst case by the deadline.
///
/// ```
/// use stadvs_core::SlackEdf;
/// use stadvs_power::Processor;
/// use stadvs_sim::{ConstantRatio, MissPolicy, SimConfig, Simulator, Task, TaskSet};
///
/// # fn main() -> Result<(), stadvs_sim::SimError> {
/// let tasks = TaskSet::new(vec![Task::new(1.0, 4.0)?, Task::new(2.0, 8.0)?])?;
/// let sim = Simulator::new(
///     tasks,
///     Processor::ideal_continuous(),
///     SimConfig::new(64.0)?.with_miss_policy(MissPolicy::Fail),
/// )?;
/// // Jobs use 40 % of their worst case; stEDF reclaims the rest as slack.
/// let out = sim.run(&mut SlackEdf::new(), &ConstantRatio::new(0.4))?;
/// assert!(out.all_deadlines_met());
/// assert!(out.total_energy() < 0.2 * 16.0); // far below the no-DVS 16 J
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SlackEdf {
    name: String,
    config: SlackEdfConfig,
    pool: ReclaimedPool,
    demand: DemandAnalysis,
    /// Overhead-aware mode: the (job, speed) committed at its dispatch.
    /// The commitment survives non-preempting releases — they were already
    /// counted by the claims analysis — which is what makes the per-task
    /// switch-margin bound valid.
    committed: Option<(stadvs_sim::JobId, Speed)>,
    /// Leakage-aware floor, resolved once per run at `on_start`.
    critical_floor: Option<Speed>,
    /// Work after which to re-plan (PACE step boundary), set per dispatch.
    pending_review: Option<f64>,
    /// PACE mode's state, `Some` exactly when `config.pace_steps > 0`.
    /// Out of line: a governor is built per run, and the other variants
    /// need not carry, copy or allocate the planner's buffers.
    pacing: Option<Box<Pacing>>,
}

/// PACE mode's state: the per-task online demand profiles, and the
/// buffers a paced dispatch plans in, kept so that it allocates nothing.
#[derive(Debug, Clone, Default)]
struct Pacing {
    profiles: Vec<SurvivalEstimator>,
    survival: Vec<f64>,
    planner: PacePlanner,
}

impl SlackEdf {
    /// The full algorithm (all sources, no overhead awareness).
    pub fn new() -> SlackEdf {
        SlackEdf::with_config(SlackEdfConfig::full())
    }

    /// A configured variant (ablations, overhead awareness).
    pub fn with_config(config: SlackEdfConfig) -> SlackEdf {
        SlackEdf {
            name: config.variant_name(),
            config,
            pool: ReclaimedPool::new(),
            demand: DemandAnalysis::new(config.horizon_periods),
            committed: None,
            critical_floor: None,
            pending_review: None,
            pacing: (config.pace_steps > 0).then(Box::default),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &SlackEdfConfig {
        &self.config
    }

    /// Slack currently banked by the reclaiming source (diagnostic).
    pub fn banked_slack(&self) -> f64 {
        self.pool.banked()
    }

    /// The wall-clock allowance certified for `job` right now.
    ///
    /// All accounting lives in one currency — canonical claims — so the
    /// sources compose *additively*, not by an (unsound) maximum:
    ///
    /// 1. the **canonical base**: the job's remaining claim `C/U − wall`,
    ///    enlarged by eligible banked earliness when reclaiming is on;
    /// 2. the **demand analysis** adds the time provably claimed by nobody
    ///    (minimum checkpoint slack over all outstanding claims, with a
    ///    rigorous beyond-horizon tail bound);
    /// 3. the **arrival stretch** may replace the total with the window to
    ///    the next arrival when the job is alone (it then worst-case-
    ///    completes before anything else exists, restoring a state every
    ///    argument accepts).
    fn certified_allowance(&mut self, view: &SchedulerView<'_>, job: &ActiveJob) -> f64 {
        let rem = job.remaining_budget();

        // Canonical base (the pool always tracks claims; banked entries are
        // only present when reclaiming is on, because settlement discards
        // leftovers otherwise).
        let mut allowance = self.pool.allowance(view, job);

        if self.config.demand_analysis {
            let analysis = self.demand.analyze(view, job, &self.pool);
            let claim = self.pool.remaining_claim_of(job);
            let share = if analysis.binding_claims > TIME_EPS {
                (claim / analysis.binding_claims).min(1.0)
            } else {
                1.0
            };
            allowance += analysis.slack * share;
        }
        if self.config.arrival_stretch {
            if let Some(window) = arrival_allowance(view, job) {
                // Outstanding banked claims with tags beyond this job's
                // deadline rely on wall-clock time inside the stretch
                // window; reserve it for them.
                allowance = allowance.max(window - self.pool.banked());
            }
        }

        // Never plan past the job's own deadline.
        allowance = allowance.min(job.deadline - view.now());

        if self.config.overhead_aware {
            // The grant includes the job's switch margin; that time is
            // spent in transitions, not execution, so it must not be
            // planned as execution time.
            let margin = self.pool.margin_of(job.id.task);
            allowance = (allowance - margin).max(rem);
        }
        allowance.max(rem)
    }
}

impl Default for SlackEdf {
    fn default() -> SlackEdf {
        SlackEdf::new()
    }
}

impl Governor for SlackEdf {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_start(&mut self, tasks: &TaskSet, processor: &Processor) {
        self.committed = None;
        self.critical_floor = self
            .config
            .critical_speed_floor
            .then(|| processor.power_model().critical_speed());
        if self.config.overhead_aware {
            self.pool
                .reset_with_overhead(tasks, processor.overhead().latency());
        } else {
            self.pool.reset(tasks);
        }
        // The pool reset changes the canonical stretch behind the cached
        // per-task claims; drop every cached analysis layer with it.
        self.demand.invalidate();
        self.demand.reset_stats();
        if let Some(pacing) = self.pacing.as_deref_mut() {
            pacing.profiles = (0..tasks.len())
                .map(|_| SurvivalEstimator::new(64))
                .collect();
        }
    }

    fn select_speed(&mut self, view: &SchedulerView<'_>, job: &ActiveJob) -> Speed {
        if self.pool.is_degenerate() {
            // No canonical stretch ≥ 1 exists (switch overhead too large
            // for any guaranteed slowdown): stay at full speed — zero
            // switches, trivially safe.
            return Speed::FULL;
        }
        let rem = job.remaining_budget();

        if self.config.overhead_aware {
            // Stick to the committed dispatch speed while it remains in
            // force: same job, no intervening switch (a changed platform
            // speed means a preemption ran in between), and still able to
            // worst-case-complete by the deadline.
            if let Some((id, speed)) = self.committed {
                if id == job.id
                    && view.current_speed().same_point(speed)
                    && rem / speed.ratio() <= job.deadline - view.now() + TIME_EPS
                {
                    return speed;
                }
            }
        }

        let allowance = self.certified_allowance(view, job);
        self.pending_review = None;
        let mut requested = if allowance <= rem || allowance <= TIME_EPS {
            1.0
        } else {
            rem / allowance
        };
        if let Some(pacing) = self
            .pacing
            .as_deref_mut()
            .filter(|_| !self.config.overhead_aware)
        {
            // The simulator floors review points at 1 µs to guarantee
            // progress; each floored step can therefore run up to 1 µs
            // longer than planned at a low speed. Reserve that slop out of
            // the paced allowance (one potential floor per step) so the
            // worst case still fits, and skip pacing entirely when the
            // steps would be microscopic.
            let guard = 2.0e-6 * f64::from(self.config.pace_steps);
            let paced_allowance = allowance - guard;
            pacing.profiles[job.id.task.0].chunk_survival(
                job.executed(),
                job.wcet,
                self.config.pace_steps,
                &mut pacing.survival,
            );
            // The platform cannot exceed full speed; planning the tail
            // above it would make the worst case silently infeasible once
            // dispatch clamps the speed (see [`PacePlanner`]).
            let cap = Speed::FULL.ratio();
            if let Some(step) =
                pacing
                    .planner
                    .first_step(rem, paced_allowance, cap, &pacing.survival)
            {
                if step.work / step.speed.max(1e-12) >= 4.0e-6 {
                    requested = step.speed;
                    self.pending_review = Some(step.work);
                }
            }
        }
        let mut floor = view.processor().min_speed();
        if let Some(critical) = self.critical_floor {
            // Below the critical speed, leakage outweighs the voltage
            // saving; flooring higher is always deadline-safe.
            floor = floor.max(critical);
        }
        let mut chosen = view
            .processor()
            .quantize_up(Speed::clamped(requested, floor));
        let current = view.current_speed();

        if self.config.overhead_aware && chosen < current {
            // Pessimistic judgment: slowing down is optional — only do it
            // when the projected saving over the worst-case remainder
            // covers a round trip of transition energy.
            let power = view.processor().power_model();
            let duration = rem / chosen.ratio();
            let saving = (power.active_power(current) - power.active_power(chosen)) * duration;
            let cost = view.processor().overhead().energy(current, chosen)
                + view.processor().overhead().energy(chosen, current);
            if saving <= cost {
                chosen = current;
            }
        }
        if self.config.overhead_aware {
            self.committed = Some((job.id, chosen));
        }
        // Translate the PACE step's work into wall time at the granted
        // speed (the simulator floors tiny reviews itself).
        if let Some(work) = self.pending_review.take() {
            self.pending_review = Some(work / chosen.ratio());
        }
        chosen
    }

    fn review_after(&mut self, _view: &SchedulerView<'_>, _job: &ActiveJob) -> Option<f64> {
        self.pending_review.take()
    }

    fn on_completion(&mut self, _view: &SchedulerView<'_>, record: &JobRecord) {
        self.pool.settle(record, self.config.reclaiming);
        let profiles = self.pacing.as_deref_mut().map(|p| &mut p.profiles);
        if let Some(profile) = profiles.and_then(|p| p.get_mut(record.id.task.0)) {
            profile.record(record.actual / record.wcet);
        }
    }

    fn on_idle(&mut self, _view: &SchedulerView<'_>) {
        // Idle time consumes banked canonical service; see
        // [`ReclaimedPool::drain_on_idle`].
        self.pool.drain_on_idle();
    }

    fn overrun_policy(&self) -> OverrunPolicy {
        // The slack certificates assume `C_i` budgets; once a budget is
        // violated the only certificate-free safe action is full speed.
        OverrunPolicy::CompleteAtMax
    }

    fn on_overrun(&mut self, _view: &SchedulerView<'_>, _job: &ActiveJob) {
        // Every banked claim and every committed dispatch speed was
        // certified against WCET budgets the overrunning job just broke:
        // void them all. See [`ReclaimedPool::invalidate_on_overrun`].
        self.committed = None;
        self.pending_review = None;
        self.pool.invalidate_on_overrun();
    }

    fn analysis_stats(&self) -> Option<AnalysisStats> {
        self.config.demand_analysis.then(|| self.demand.stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stadvs_sim::{ConstantRatio, MissPolicy, SimConfig, Simulator, Task, WorstCase};

    fn sim(rows: &[(f64, f64)], horizon: f64) -> Simulator {
        let tasks = TaskSet::new(
            rows.iter()
                .map(|&(c, t)| Task::new(c, t).unwrap())
                .collect(),
        )
        .unwrap();
        Simulator::new(
            tasks,
            Processor::ideal_continuous(),
            SimConfig::new(horizon)
                .unwrap()
                .with_miss_policy(MissPolicy::Fail),
        )
        .unwrap()
    }

    #[test]
    fn hard_guarantee_on_worst_case_at_full_utilization() {
        let s = sim(&[(2.0, 4.0), (4.0, 8.0)], 64.0);
        let out = s.run(&mut SlackEdf::new(), &WorstCase).unwrap();
        assert!(out.all_deadlines_met());
        // U = 1 worst case leaves no room: full speed throughout.
        assert!((out.total_energy() - 64.0).abs() < 1e-4);
    }

    #[test]
    fn beats_every_single_source_ablation() {
        let s = sim(&[(1.0, 4.0), (2.0, 8.0), (1.0, 10.0)], 160.0);
        let exec = ConstantRatio::new(0.4);
        let full = s.run(&mut SlackEdf::new(), &exec).unwrap();
        for config in [
            SlackEdfConfig::reclaiming_only(),
            SlackEdfConfig::arrival_only(),
            SlackEdfConfig::demand_only(),
        ] {
            let ablated = s.run(&mut SlackEdf::with_config(config), &exec).unwrap();
            assert!(ablated.all_deadlines_met(), "{config:?}");
            assert!(
                full.total_energy() <= ablated.total_energy() + 1e-9,
                "full {} vs {:?} {}",
                full.total_energy(),
                config,
                ablated.total_energy()
            );
        }
    }

    #[test]
    fn all_variants_meet_deadlines_across_ratios() {
        let configs = [
            SlackEdfConfig::full(),
            SlackEdfConfig::reclaiming_only(),
            SlackEdfConfig::arrival_only(),
            SlackEdfConfig::demand_only(),
        ];
        for rows in [
            vec![(2.0, 4.0), (4.0, 8.0)],
            vec![(1.0, 3.0), (2.0, 9.0), (2.0, 18.0)],
            vec![(1.0, 10.0)],
        ] {
            for ratio in [0.1, 0.5, 0.9, 1.0] {
                for config in configs {
                    let out = sim(&rows, 90.0)
                        .run(
                            &mut SlackEdf::with_config(config),
                            &ConstantRatio::new(ratio),
                        )
                        .unwrap();
                    assert!(
                        out.all_deadlines_met(),
                        "miss: rows={rows:?} ratio={ratio} config={config:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn overhead_aware_variant_is_safe_and_switches_less() {
        use stadvs_power::{TransitionEnergy, TransitionOverhead};
        let tasks = TaskSet::new(vec![
            Task::new(1.0, 4.0).unwrap(),
            Task::new(2.0, 8.0).unwrap(),
        ])
        .unwrap();
        let cpu = Processor::ideal_continuous().with_overhead(
            TransitionOverhead::new(1.0e-2, TransitionEnergy::Constant(5.0e-2)).unwrap(),
        );
        let s = Simulator::new(
            tasks,
            cpu,
            SimConfig::new(64.0)
                .unwrap()
                .with_miss_policy(MissPolicy::Fail),
        )
        .unwrap();
        let exec = ConstantRatio::new(0.5);
        let aware = s
            .run(
                &mut SlackEdf::with_config(SlackEdfConfig::overhead_aware()),
                &exec,
            )
            .unwrap();
        assert!(aware.all_deadlines_met());
        // The oblivious variant under the same overhead platform would
        // switch far more often; the aware one suppresses unprofitable
        // switches.
        let oblivious = s.run(&mut SlackEdf::new(), &exec);
        if let Ok(obl) = oblivious {
            assert!(
                aware.switches <= obl.switches,
                "aware {} vs oblivious {}",
                aware.switches,
                obl.switches
            );
        }
    }

    #[test]
    fn beats_static_by_a_wide_margin_on_light_loads() {
        let s = sim(&[(1.0, 4.0), (2.0, 8.0)], 64.0);
        let exec = ConstantRatio::new(0.2);
        let stedf = s.run(&mut SlackEdf::new(), &exec).unwrap();
        // Static would burn 64 s * 0.5³ = 8 J regardless of actuals.
        assert!(
            stedf.total_energy() < 4.0,
            "energy {}",
            stedf.total_energy()
        );
    }

    #[test]
    fn diagnostics_accessible() {
        let g = SlackEdf::new();
        assert_eq!(g.banked_slack(), 0.0);
        assert_eq!(g.name(), "st-edf");
        assert!(g.config().reclaiming);
        assert!(g.config().demand_analysis && g.config().arrival_stretch);
    }
}
