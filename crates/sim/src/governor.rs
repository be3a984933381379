//! The speed-policy ("governor") plug-in interface and the scheduler state
//! view it receives.

use stadvs_power::{Processor, Speed};

use crate::fault::OverrunPolicy;
use crate::job::{ActiveJob, JobRecord};
use crate::outcome::AnalysisStats;
use crate::task::{TaskId, TaskSet};

/// A read-only snapshot of everything an on-line DVS algorithm may inspect
/// at a scheduling point.
///
/// The view deliberately exposes only *non-clairvoyant* information: ready
/// jobs with their worst-case remaining budgets and consumed wall time,
/// per-task next release instants, and the platform models. Actual remaining
/// demand is hidden — discovering it early is exactly what the algorithms
/// under study cannot do.
#[derive(Debug)]
pub struct SchedulerView<'a> {
    now: f64,
    tasks: &'a TaskSet,
    processor: &'a Processor,
    ready: &'a [ActiveJob],
    next_release: &'a [f64],
    next_arrival: f64,
    current_speed: Speed,
    release_epoch: u64,
}

impl<'a> SchedulerView<'a> {
    // Internal constructor mirroring the struct's fields one-to-one; a
    // builder would only add indirection for the single call site.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        now: f64,
        tasks: &'a TaskSet,
        processor: &'a Processor,
        ready: &'a [ActiveJob],
        next_release: &'a [f64],
        next_arrival: f64,
        current_speed: Speed,
        release_epoch: u64,
    ) -> SchedulerView<'a> {
        SchedulerView {
            now,
            tasks,
            processor,
            ready,
            next_release,
            next_arrival,
            current_speed,
            release_epoch,
        }
    }

    /// Current simulation time, in seconds.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// The scheduled task set.
    pub fn tasks(&self) -> &'a TaskSet {
        self.tasks
    }

    /// The platform (frequency/power/overhead models).
    pub fn processor(&self) -> &'a Processor {
        self.processor
    }

    /// The ready (released, incomplete) jobs, in no particular order.
    pub fn ready_jobs(&self) -> &'a [ActiveJob] {
        self.ready
    }

    /// The ready job EDF would dispatch: earliest absolute deadline, ties
    /// broken by task id then job index (deterministic).
    pub fn edf_job(&self) -> Option<&'a ActiveJob> {
        self.ready.iter().min_by(|a, b| {
            a.deadline
                .total_cmp(&b.deadline)
                .then(a.id.task.cmp(&b.id.task))
                .then(a.id.index.cmp(&b.id.index))
        })
    }

    /// Next release instant of `task` (strictly after `now`, up to event
    /// tolerance).
    ///
    /// # Panics
    ///
    /// Panics if `task` is out of range for the task set.
    pub fn next_release_of(&self, task: TaskId) -> f64 {
        self.next_release[task.0]
    }

    /// The earliest next release instant over all tasks.
    ///
    /// `O(1)`: the simulator reads it off its release schedule instead of
    /// folding over the per-task instants on every query.
    pub fn next_release_global(&self) -> f64 {
        self.next_arrival
    }

    /// Worst-case utilization of the task set.
    pub fn utilization(&self) -> f64 {
        self.tasks.utilization()
    }

    /// The speed the processor is currently set to.
    pub fn current_speed(&self) -> Speed {
        self.current_speed
    }

    /// A counter the simulator bumps every time any task's next-release
    /// instant advances. Between two views with equal epochs, the whole
    /// per-task release outlook (`next_release_of`) is unchanged —
    /// incremental analyses key release-derived caches on this.
    pub fn release_epoch(&self) -> u64 {
        self.release_epoch
    }
}

/// An on-line DVS speed policy plugged into the simulator.
///
/// The simulator calls the hooks in this order:
///
/// 1. [`on_start`](Governor::on_start) once, before time `0`;
/// 2. [`on_release`](Governor::on_release) whenever a job is released (the
///    view already contains it);
/// 3. [`select_speed`](Governor::select_speed) at every dispatch of the EDF
///    job — after releases, after completions, and after speed transitions;
/// 4. [`on_completion`](Governor::on_completion) when a job finishes (the
///    view no longer contains it; the [`JobRecord`] carries the actual
///    demand and total wall time, which reclaiming algorithms need);
/// 5. [`on_idle`](Governor::on_idle) when the processor goes idle.
///
/// # Contract
///
/// * `select_speed` may be called **more than once at the same instant** for
///   the same job (e.g. after a voltage transition completes, or after a
///   simultaneous release). Implementations must be idempotent at a fixed
///   state — returning the same speed and not double-booking internal slack
///   accounts.
/// * The returned speed is a *request*: the simulator quantizes it **up** to
///   the platform's next available speed. A governor that needs exact
///   knowledge of the granted speed should quantize itself via
///   [`SchedulerView::processor`].
/// * Hard real-time governors must choose speeds such that, assuming every
///   ready and future job consumes its full WCET, EDF still meets all
///   deadlines. The simulator does not police this — the test suite does.
pub trait Governor {
    /// A short stable name used in reports and tables.
    fn name(&self) -> &str;

    /// Called once before the simulation starts.
    fn on_start(&mut self, tasks: &TaskSet, processor: &Processor) {
        let _ = (tasks, processor);
    }

    /// Called after `job` has been released and added to the ready set.
    fn on_release(&mut self, view: &SchedulerView<'_>, job: &ActiveJob) {
        let _ = (view, job);
    }

    /// Selects the execution speed for `job`, the EDF-chosen job, at
    /// `view.now()`.
    fn select_speed(&mut self, view: &SchedulerView<'_>, job: &ActiveJob) -> Speed;

    /// An optional *power-management point*: how long (in seconds from
    /// now) the speed just selected remains valid. The simulator schedules
    /// a re-dispatch at that instant even if no release or completion
    /// occurs, enabling **intra-job** speed changes (task-splitting and
    /// PACE-style schemes need this — without it a job runs at one speed
    /// until the next external event).
    ///
    /// Called immediately after [`select_speed`](Governor::select_speed)
    /// for the same job. Return `None` (the default) to run until the next
    /// natural event. Values are floored at 1 µs to prevent zero-progress
    /// loops.
    fn review_after(&mut self, view: &SchedulerView<'_>, job: &ActiveJob) -> Option<f64> {
        let _ = (view, job);
        None
    }

    /// Called after `record`'s job completed and was removed from the ready
    /// set.
    fn on_completion(&mut self, view: &SchedulerView<'_>, record: &JobRecord) {
        let _ = (view, record);
    }

    /// Called when the processor becomes idle (no ready jobs).
    fn on_idle(&mut self, view: &SchedulerView<'_>) {
        let _ = view;
    }

    /// The degradation mode this governor declares for WCET overruns (see
    /// [`OverrunPolicy`]). Only consulted under fault injection, at the
    /// instant a job's executed work crosses its WCET with demand still
    /// remaining — the moment any slack certificate derived from that WCET
    /// is invalidated. The default is the conservative
    /// [`OverrunPolicy::CompleteAtMax`].
    fn overrun_policy(&self) -> OverrunPolicy {
        OverrunPolicy::CompleteAtMax
    }

    /// Called once per overrun, at the detection instant, before the
    /// resolved policy is applied. `job` is the overrunning job (still in
    /// the view's ready set, [`ActiveJob::in_overrun`] already true).
    /// Governors holding cross-job slack state (banked ledgers, reclaimed
    /// pools) must invalidate anything the overrun job's budget backed.
    fn on_overrun(&mut self, view: &SchedulerView<'_>, job: &ActiveJob) {
        let _ = (view, job);
    }

    /// Demand-analysis effort counters for the finished run, if this
    /// governor performs a per-dispatch slack analysis. The simulator polls
    /// this once, when assembling the [`SimOutcome`](crate::SimOutcome).
    fn analysis_stats(&self) -> Option<AnalysisStats> {
        None
    }
}

impl<G: Governor + ?Sized> Governor for &mut G {
    fn name(&self) -> &str {
        (**self).name()
    }
    fn on_start(&mut self, tasks: &TaskSet, processor: &Processor) {
        (**self).on_start(tasks, processor);
    }
    fn on_release(&mut self, view: &SchedulerView<'_>, job: &ActiveJob) {
        (**self).on_release(view, job);
    }
    fn select_speed(&mut self, view: &SchedulerView<'_>, job: &ActiveJob) -> Speed {
        (**self).select_speed(view, job)
    }
    fn review_after(&mut self, view: &SchedulerView<'_>, job: &ActiveJob) -> Option<f64> {
        (**self).review_after(view, job)
    }
    fn on_completion(&mut self, view: &SchedulerView<'_>, record: &JobRecord) {
        (**self).on_completion(view, record);
    }
    fn on_idle(&mut self, view: &SchedulerView<'_>) {
        (**self).on_idle(view);
    }
    fn overrun_policy(&self) -> OverrunPolicy {
        (**self).overrun_policy()
    }
    fn on_overrun(&mut self, view: &SchedulerView<'_>, job: &ActiveJob) {
        (**self).on_overrun(view, job);
    }
    fn analysis_stats(&self) -> Option<AnalysisStats> {
        (**self).analysis_stats()
    }
}

impl<G: Governor + ?Sized> Governor for Box<G> {
    fn name(&self) -> &str {
        (**self).name()
    }
    fn on_start(&mut self, tasks: &TaskSet, processor: &Processor) {
        (**self).on_start(tasks, processor);
    }
    fn on_release(&mut self, view: &SchedulerView<'_>, job: &ActiveJob) {
        (**self).on_release(view, job);
    }
    fn select_speed(&mut self, view: &SchedulerView<'_>, job: &ActiveJob) -> Speed {
        (**self).select_speed(view, job)
    }
    fn review_after(&mut self, view: &SchedulerView<'_>, job: &ActiveJob) -> Option<f64> {
        (**self).review_after(view, job)
    }
    fn on_completion(&mut self, view: &SchedulerView<'_>, record: &JobRecord) {
        (**self).on_completion(view, record);
    }
    fn on_idle(&mut self, view: &SchedulerView<'_>) {
        (**self).on_idle(view);
    }
    fn overrun_policy(&self) -> OverrunPolicy {
        (**self).overrun_policy()
    }
    fn on_overrun(&mut self, view: &SchedulerView<'_>, job: &ActiveJob) {
        (**self).on_overrun(view, job);
    }
    fn analysis_stats(&self) -> Option<AnalysisStats> {
        (**self).analysis_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobId;
    use crate::task::Task;

    fn view_fixture<'a>(
        tasks: &'a TaskSet,
        processor: &'a Processor,
        ready: &'a [ActiveJob],
        next_release: &'a [f64],
    ) -> SchedulerView<'a> {
        let next_arrival = next_release.iter().copied().fold(f64::INFINITY, f64::min);
        SchedulerView::new(
            1.0,
            tasks,
            processor,
            ready,
            next_release,
            next_arrival,
            Speed::FULL,
            0,
        )
    }

    fn active(task: usize, index: u64, deadline: f64) -> ActiveJob {
        ActiveJob::new(
            JobId {
                task: TaskId(task),
                index,
            },
            0.0,
            deadline,
            1.0,
            0.5,
        )
    }

    #[test]
    fn edf_job_prefers_earliest_deadline_then_ids() {
        let tasks = TaskSet::new(vec![
            Task::new(1.0, 10.0).unwrap(),
            Task::new(1.0, 10.0).unwrap(),
        ])
        .unwrap();
        let cpu = Processor::ideal_continuous();
        let ready = vec![active(1, 0, 5.0), active(0, 0, 5.0), active(0, 1, 9.0)];
        let next = vec![10.0, 10.0];
        let view = view_fixture(&tasks, &cpu, &ready, &next);
        let j = view.edf_job().unwrap();
        // Deadline tie between T1#0 and T0#0 → lower task id wins.
        assert_eq!(j.id.task, TaskId(0));
        assert_eq!(j.id.index, 0);
        assert_eq!(view.next_release_global(), 10.0);
        assert_eq!(view.next_release_of(TaskId(1)), 10.0);
        assert_eq!(view.now(), 1.0);
        assert_eq!(view.current_speed(), Speed::FULL);
        assert_eq!(view.ready_jobs().len(), 3);
    }

    #[test]
    fn edf_job_on_empty_ready_set_is_none() {
        let tasks = TaskSet::new(vec![Task::new(1.0, 10.0).unwrap()]).unwrap();
        let cpu = Processor::ideal_continuous();
        let ready: Vec<ActiveJob> = vec![];
        let next = vec![10.0];
        let view = view_fixture(&tasks, &cpu, &ready, &next);
        assert!(view.edf_job().is_none());
    }

    /// A governor usable through `&mut` and `Box` indirection.
    struct Fixed(Speed);
    impl Governor for Fixed {
        fn name(&self) -> &str {
            "fixed"
        }
        fn select_speed(&mut self, _view: &SchedulerView<'_>, _job: &ActiveJob) -> Speed {
            self.0
        }
    }

    #[test]
    fn governor_blanket_impls() {
        let tasks = TaskSet::new(vec![Task::new(1.0, 10.0).unwrap()]).unwrap();
        let cpu = Processor::ideal_continuous();
        let ready = vec![active(0, 0, 10.0)];
        let next = vec![10.0];
        let view = view_fixture(&tasks, &cpu, &ready, &next);

        let mut g = Fixed(Speed::FULL);
        let by_ref: &mut dyn Governor = &mut g;
        assert_eq!(by_ref.name(), "fixed");
        assert_eq!(by_ref.select_speed(&view, &ready[0]), Speed::FULL);
        assert_eq!(by_ref.overrun_policy(), OverrunPolicy::CompleteAtMax);
        by_ref.on_overrun(&view, &ready[0]); // default no-op delegates

        let mut boxed: Box<dyn Governor> = Box::new(Fixed(Speed::FULL));
        assert_eq!(boxed.name(), "fixed");
        assert_eq!(boxed.select_speed(&view, &ready[0]), Speed::FULL);
        assert_eq!(boxed.overrun_policy(), OverrunPolicy::CompleteAtMax);
        boxed.on_overrun(&view, &ready[0]);
    }
}
