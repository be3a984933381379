//! Priority structures for the dispatch loop.
//!
//! The simulator's two per-event questions — *which ready job does EDF
//! dispatch?* and *when is the next release?* — are answered over dense
//! arrays, not heaps. The ready set is tiny (a handful of jobs), so a
//! branch-light linear scan over contiguous `u64` words beats heap sift
//! paths and their pointer-chasing comparisons. The releases are known in
//! advance: a release instant depends only on the task's own previous
//! release and the fault plan, never on the governor, so every release of
//! the run is laid out once, in release order, and the engine walks it
//! with a cursor (DESIGN.md §9). Both keep the engine's observable
//! behaviour bit-for-bit:
//!
//! * [`ReadySet`] keeps the ready jobs in the exact `Vec` discipline the
//!   engine always had (push on release, `swap_remove` on completion), so
//!   the slice governors iterate over is byte-identical to the old one.
//!   Alongside the jobs runs a packed key array — one `[u64; 3]` of
//!   `[deadline.to_bits(), task, index]` per job — whose lexicographic
//!   order equals the engine's EDF total order (`total_cmp` on the
//!   deadline, ties by task id then job index; deadlines are non-negative
//!   finite, so the bit order is the numeric order). EDF selection is a
//!   linear argmin over that key array: contiguous cache lines, no float
//!   compares, no lazy-deletion bookkeeping.
//! * [`ReleaseSchedule`] holds every release instant of the run in
//!   ascending `(time, task)` order, generated window by window as the
//!   cursor reaches the end, plus the per-task next-release array. The
//!   next arrival is the cursor's entry, and a step's due batch is the run
//!   of entries from the cursor. A scratch keeps its schedule, so the
//!   runs of one task set under a governor lineup generate it once.
//!
//! Both structures are scratch-friendly: a new run reuses every
//! allocation, which is what lets the experiment runner replay thousands
//! of cases without per-case allocation churn.

use crate::component::TaskHot;
use crate::fault::FaultPlan;
use crate::job::{ActiveJob, JobId};
use crate::simulator::TIME_EPS;
use crate::task::{TaskId, TaskKind, TaskSet};

/// Packs a job's EDF ordering key: lexicographic compare of the array is
/// the engine's `(deadline total_cmp, task, index)` total order, valid
/// because deadlines are non-negative finite (`to_bits` is then monotone).
fn edf_key(deadline: f64, id: JobId) -> [u64; 3] {
    debug_assert!(
        deadline.is_finite() && deadline >= 0.0,
        "deadline must be non-negative finite, got {deadline}"
    );
    [deadline.to_bits(), id.task.0 as u64, id.index]
}

/// The ready (released, incomplete) jobs with cache-linear EDF selection.
///
/// Storage is a dense `Vec` with the same push/`swap_remove` discipline the
/// engine used before any indexing existed, so [`ReadySet::jobs`] exposes
/// the jobs in the identical order. The parallel `keys` array mirrors the
/// jobs position-for-position; it is the only thing the EDF argmin reads.
#[derive(Debug, Clone, Default)]
pub(crate) struct ReadySet {
    jobs: Vec<ActiveJob>,
    /// `[deadline_bits, task, index]` per job, parallel to `jobs`.
    keys: Vec<[u64; 3]>,
}

impl ReadySet {
    /// Clears all state; `n_tasks` sizes the expected concurrency.
    pub(crate) fn reset(&mut self, n_tasks: usize) {
        self.jobs.clear();
        self.keys.clear();
        // Both arrays are empty here, so this guarantees `n_tasks` slots.
        self.jobs.reserve(n_tasks);
        self.keys.reserve(n_tasks);
    }

    /// The ready jobs, in the engine's canonical (insertion/`swap_remove`)
    /// order.
    pub(crate) fn jobs(&self) -> &[ActiveJob] {
        &self.jobs
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Mutable access to all ready jobs (overrun contamination marking).
    pub(crate) fn jobs_mut(&mut self) -> &mut [ActiveJob] {
        &mut self.jobs
    }

    /// The most recently released job, if any.
    pub(crate) fn last(&self) -> Option<&ActiveJob> {
        self.jobs.last()
    }

    /// Mutable access by position (as returned by [`ReadySet::edf_index`]).
    ///
    /// Callers mutate execution-progress fields only; a job's deadline is
    /// fixed at release, so the parallel key array stays in sync.
    pub(crate) fn job_mut(&mut self, i: usize) -> &mut ActiveJob {
        &mut self.jobs[i]
    }

    /// Shared access by position.
    pub(crate) fn job(&self, i: usize) -> &ActiveJob {
        &self.jobs[i]
    }

    /// Adds a freshly released job.
    pub(crate) fn push(&mut self, job: ActiveJob) {
        self.keys.push(edf_key(job.deadline, job.id));
        self.jobs.push(job);
    }

    /// Mutable access to the ready job with `id`, if it is still ready.
    pub(crate) fn job_mut_by_id(&mut self, id: JobId) -> Option<&mut ActiveJob> {
        let pos = self
            .keys
            .iter()
            .position(|key| key[1] == id.task.0 as u64 && key[2] == id.index)?;
        self.jobs.get_mut(pos)
    }

    /// Position of the job EDF dispatches: earliest absolute deadline, ties
    /// broken by task id then job index — the argmin of the packed key
    /// array, whose lexicographic order is that exact total order (under
    /// which the minimum is unique). `None` when no job is ready.
    pub(crate) fn edf_index(&self) -> Option<usize> {
        let mut keys = self.keys.iter().enumerate();
        let (_, first) = keys.next()?;
        let mut best = 0;
        let mut best_key = *first;
        for (i, key) in keys {
            if *key < best_key {
                best = i;
                best_key = *key;
            }
        }
        Some(best)
    }

    /// Removes and returns the job at position `i` (on completion), using
    /// the same `swap_remove` discipline as the original engine so the
    /// remaining order is unchanged. The key array moves in lock-step.
    pub(crate) fn complete(&mut self, i: usize) -> ActiveJob {
        self.keys.swap_remove(i);
        self.jobs.swap_remove(i)
    }

    /// Drains the remaining jobs (end of horizon) in storage order.
    pub(crate) fn drain_jobs(&mut self) -> std::vec::Drain<'_, ActiveJob> {
        self.keys.clear();
        self.jobs.drain(..)
    }
}

/// The release recurrences of one run, the one place a release instant is
/// computed: the schedule generates its entries with them and the engine
/// advances each task's next release with them, so both hold the same
/// bits.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Recurrence<'a> {
    /// The task set, for sporadic gaps.
    pub(crate) tasks: &'a TaskSet,
    /// Phases, periods and kinds.
    pub(crate) hot: &'a TaskHot,
    /// The fault plan, when it injects release jitter.
    pub(crate) jitter: Option<&'a FaultPlan>,
}

impl Recurrence<'_> {
    /// Job 0's release instant of `task`: its phase, delayed under jitter.
    pub(crate) fn first(&self, task: usize) -> f64 {
        let phase = self.hot.phase[task];
        match self.jitter {
            Some(plan) => phase + plan.release_delay(TaskId(task), 0, self.hot.period[task]),
            None => phase,
        }
    }

    /// Job `index`'s release instant of `task`, where `prev` is job
    /// `index - 1`'s.
    pub(crate) fn after(&self, task: usize, index: u64, prev: f64) -> f64 {
        let period = self.hot.period[task];
        if matches!(self.hot.kind[task], TaskKind::Sporadic { .. }) {
            // Sporadic recurrence: the next arrival trails this one by the
            // seeded gap (≥ the period, so arrivals never precede the
            // periodic lattice — the same safety class as delay-only
            // jitter). Under a jitter channel the injected delay adds on
            // top.
            let gap = self.tasks.task(TaskId(task)).arrival_gap(index);
            match self.jitter {
                Some(plan) => prev + gap + plan.release_delay(TaskId(task), index, period),
                None => prev + gap,
            }
        } else if let Some(plan) = self.jitter {
            // Jittered periodic recurrence: delay the nominal release but
            // never compress inter-arrival times below the period —
            // compression could overload even a full-speed EDF schedule,
            // which would make the injected jitter indistinguishable from
            // an algorithm bug.
            let nominal = self.hot.release_of(task, index);
            let delay = plan.release_delay(TaskId(task), index, period);
            (nominal + delay).max(prev + period)
        } else {
            self.hot.release_of(task, index)
        }
    }
}

/// A window spans this many of the task set's shortest period, so it
/// holds at most this many releases of each task, plus one.
const WINDOW_PERIODS: f64 = 64.0;

/// The job index of a task whose whole sequence is generated.
const GENERATED: u64 = u64::MAX;

/// One task's part of a schedule: its inputs, which are its part of the
/// schedule's key, and how far its sequence is generated.
#[derive(Debug, Clone, Copy)]
struct Sequence {
    /// The phase's and the period's bits, and the kind.
    phase: u64,
    period: u64,
    kind: TaskKind,
    /// The first instant not yet generated, and that job's index
    /// ([`GENERATED`] once the sentinel is in).
    pending: f64,
    index: u64,
}

/// Every release instant of a run in ascending `(time, task)` order, with
/// a cursor at the first one not yet released, and each task's next
/// release.
///
/// Each task's sequence runs from job 0 to its first release at or after
/// the horizon, which is never released (the sentinel the next arrival
/// reports once nothing is left before the horizon). The entries are
/// generated in windows of [`WINDOW_PERIODS`] shortest periods, each when
/// the cursor reaches the end of the last: a window collects every
/// task's releases up to its end and orders them with a bucket pass. So
/// a run generates at most one window past the last release it reaches,
/// and a run cut short by its event limit never books a horizon's worth.
///
/// The schedule is a pure function of its key: the horizon, what
/// releases read of the fault plan ([`FaultPlan::jitter_bits`]), and each
/// task's phase, period and kind. It survives the run, and a run with an
/// equal key rewinds the cursor and extends the entries only past what an
/// earlier run generated.
#[derive(Debug, Clone, Default)]
pub(crate) struct ReleaseSchedule {
    horizon: f64,
    jitter: Option<[u64; 3]>,
    sequences: Vec<Sequence>,
    /// Release instants, in release order.
    time: Vec<f64>,
    /// Each instant's task.
    task: Vec<u32>,
    /// The first entry not yet released.
    cursor: usize,
    /// Each task's next release: its first entry at or past the cursor
    /// (what [`SchedulerView`] exposes).
    ///
    /// [`SchedulerView`]: crate::governor::SchedulerView
    next: Vec<f64>,
    /// The distinct tasks of the current due batch, ascending.
    due: Vec<usize>,
    /// Where the current due batch begins.
    batch_start: usize,
    /// Empty while the batch's release order is its schedule order.
    /// Otherwise `due_min[d]` is the least next release of `due[d..]` as
    /// the batch began and of the entry after the batch, which closes the
    /// array.
    due_min: Vec<f64>,
    /// Where the last window's entries begin.
    window_start: usize,
    /// The window length: [`WINDOW_PERIODS`] shortest periods.
    span: f64,
    /// A window's entries in generation order; the third column counts
    /// the bucket pass's buckets.
    stage: Vec<(f64, u32, u32)>,
}

impl ReleaseSchedule {
    /// Prepares a run over `[0, horizon)`: keeps the generated entries if
    /// the run's key equals the stored one and starts over otherwise, then
    /// rewinds the cursor and sets each task's next release to its first.
    pub(crate) fn start(&mut self, horizon: f64, rec: Recurrence<'_>) {
        let hot = rec.hot;
        let tasks = hot.period.len();
        if !self.is_for(horizon, rec) {
            self.horizon = horizon;
            self.jitter = rec.jitter.and_then(FaultPlan::jitter_bits);
            self.sequences.clear();
            self.sequences.extend((0..tasks).map(|t| Sequence {
                phase: hot.phase[t].to_bits(),
                period: hot.period[t].to_bits(),
                kind: hot.kind[t],
                pending: rec.first(t),
                index: 0,
            }));
            self.time.clear();
            self.task.clear();
            self.window_start = 0;
            let shortest = hot.period.iter().fold(f64::INFINITY, |a, &p| a.min(p));
            self.span = WINDOW_PERIODS * shortest;
        }
        self.cursor = 0;
        self.next.clear();
        self.next.extend((0..tasks).map(|t| rec.first(t)));
        self.due.clear();
    }

    /// Whether the run's key equals the schedule's: the horizon, the
    /// phases and the periods compared by their bits.
    fn is_for(&self, horizon: f64, rec: Recurrence<'_>) -> bool {
        let hot = rec.hot;
        self.horizon.to_bits() == horizon.to_bits()
            && self.jitter == rec.jitter.and_then(FaultPlan::jitter_bits)
            && self.sequences.len() == hot.phase.len()
            && self.sequences.iter().enumerate().all(|(t, seq)| {
                seq.phase == hot.phase[t].to_bits()
                    && seq.period == hot.period[t].to_bits()
                    && seq.kind == hot.kind[t]
            })
    }

    /// The records a run needs: one per release before the horizon, exact
    /// once every sequence is generated, else bounded by the periodic
    /// lattice's count.
    pub(crate) fn job_capacity(&self) -> usize {
        if self.sequences.iter().all(|seq| seq.index == GENERATED) {
            // Every task's sequence ends in one sentinel.
            return self.time.len() - self.sequences.len();
        }
        let horizon = self.horizon;
        self.sequences
            .iter()
            .map(|seq| {
                let (phase, period) = (f64::from_bits(seq.phase), f64::from_bits(seq.period));
                if phase >= horizon {
                    0
                } else {
                    (((horizon - phase) / period).ceil() as usize).saturating_add(1)
                }
            })
            .fold(0, usize::saturating_add)
    }

    /// The per-task next-release instants (what [`SchedulerView`]
    /// exposes).
    ///
    /// [`SchedulerView`]: crate::governor::SchedulerView
    pub(crate) fn times(&self) -> &[f64] {
        &self.next
    }

    /// The next release instant of `task`.
    pub(crate) fn time(&self, task: usize) -> f64 {
        self.next[task]
    }

    /// The distinct tasks of the batch [`ReleaseSchedule::take_due`] took
    /// last, ascending.
    pub(crate) fn due(&self) -> &[usize] {
        &self.due
    }

    /// Takes the due batch at `now`: the run of entries from the cursor
    /// released strictly before the horizon and at most [`TIME_EPS`] after
    /// `now`. Returns the batch's release count. The caller releases the
    /// due tasks' jobs in [`ReleaseSchedule::due`] order, each task's in
    /// job order, and advances each task past each of them with
    /// [`ReleaseSchedule::advance`] — the order the engine always released
    /// simultaneous arrivals in.
    #[inline]
    pub(crate) fn take_due(&mut self, now: f64, rec: Recurrence<'_>) -> usize {
        self.due.clear();
        let limit = now + TIME_EPS;
        let first = self.head(rec);
        if self.is_due(first, limit) {
            self.take_batch(limit, rec)
        } else {
            0
        }
    }

    /// Whether an entry at `time` is due by `limit`.
    #[inline]
    fn is_due(&self, time: f64, limit: f64) -> bool {
        // Non-short-circuit `&`: one branch per entry.
        (time <= limit) & (time < self.horizon)
    }

    /// [`ReleaseSchedule::take_due`] once the cursor's entry is due.
    fn take_batch(&mut self, limit: f64, rec: Recurrence<'_>) -> usize {
        self.batch_start = self.cursor;
        let mut in_order = true;
        let after = loop {
            let task = self.task[self.cursor] as usize;
            in_order &= self.due.last().is_none_or(|&last| last < task);
            self.due.push(task);
            self.cursor += 1;
            let next = self.head(rec);
            if !self.is_due(next, limit) {
                break next;
            }
        };
        let released = self.cursor - self.batch_start;
        self.due_min.clear();
        if !in_order {
            // Release order differs from schedule order: a task owes
            // several jobs, or a later task's release precedes an
            // earlier one's within the tolerance.
            self.due.sort_unstable();
            self.due.dedup();
            self.due_min.resize(self.due.len() + 1, after);
            for d in (0..self.due.len()).rev() {
                self.due_min[d] = self.next[self.due[d]].min(self.due_min[d + 1]);
            }
        }
        released
    }

    /// Moves `task`'s next release on to job `index`'s, as the job before
    /// it is released.
    pub(crate) fn advance(&mut self, task: usize, index: u64, rec: Recurrence<'_>) {
        self.next[task] = rec.after(task, index, self.next[task]);
    }

    /// The next arrival while the `d`-th due task's jobs are released: the
    /// least of its next release, the next releases the later due tasks
    /// had when the batch began, and the entry after the batch. Every
    /// other task's next release is at or after that entry, so this is the
    /// least next release over all tasks.
    pub(crate) fn arrival_within_batch(&self, d: usize) -> f64 {
        let later = match self.due_min.get(d + 1) {
            Some(&least) => least,
            // A batch in schedule order: one job per task, in ascending
            // time, so the later tasks' least next release is the next
            // entry's, as is the entry after the batch.
            None => self
                .time
                .get(self.batch_start + d + 1)
                .copied()
                .unwrap_or(f64::INFINITY),
        };
        self.next[self.due[d]].min(later)
    }

    /// The next arrival between batches: the cursor's entry (infinite for
    /// an empty task set).
    pub(crate) fn next_arrival(&self) -> f64 {
        self.time.get(self.cursor).copied().unwrap_or(f64::INFINITY)
    }

    /// Whether the schedule holds at most one window past the cursor: the
    /// last window begins at or before it. True throughout a run that
    /// generated its own schedule; a run reusing a longer one starts
    /// behind it.
    #[cfg(test)]
    pub(crate) fn holds_one_window_past_cursor(&self) -> bool {
        self.window_start <= self.cursor
    }

    /// The number of entries generated so far.
    #[cfg(test)]
    pub(crate) fn generated(&self) -> usize {
        self.time.len()
    }

    /// The cursor's entry, generating the next window first if the cursor
    /// is at the end.
    #[inline]
    fn head(&mut self, rec: Recurrence<'_>) -> f64 {
        match self.time.get(self.cursor) {
            Some(&time) => time,
            None => self.generate_head(rec),
        }
    }

    /// [`ReleaseSchedule::head`] at the end of the generated entries.
    #[cold]
    fn generate_head(&mut self, rec: Recurrence<'_>) -> f64 {
        if self.generate(rec) {
            self.time[self.cursor]
        } else {
            f64::INFINITY
        }
    }

    /// Appends the next window: every task's releases from the earliest
    /// pending instant `lo` to `lo + span`, each task's sentinel included
    /// once reached. Returns `false` when every sequence is complete.
    fn generate(&mut self, rec: Recurrence<'_>) -> bool {
        let mut lo = f64::INFINITY;
        for seq in &self.sequences {
            if seq.index != GENERATED {
                lo = lo.min(seq.pending);
            }
        }
        if lo == f64::INFINITY {
            return false;
        }
        // At least the task pending at `lo` has an entry in the window,
        // even where `lo + span` rounds back to `lo`.
        let end = lo + self.span;
        self.stage.clear();
        for (t, seq) in self.sequences.iter_mut().enumerate() {
            if seq.index == GENERATED {
                continue;
            }
            while seq.pending <= end {
                self.stage.push((seq.pending, t as u32, 0));
                if seq.pending >= self.horizon {
                    seq.index = GENERATED;
                    break;
                }
                seq.index += 1;
                seq.pending = rec.after(t, seq.index, seq.pending);
            }
        }
        self.window_start = self.time.len();
        self.append_stage(lo, end);
        true
    }

    /// Appends the staged window in `(time, task)` order, where every
    /// staged time lies in `[lo, end]`. A counting pass scatters the
    /// entries into as many equal buckets of that range as there are
    /// entries; an entry's bucket is a monotone function of its time, so
    /// an insertion pass then only reorders entries within a bucket. Both
    /// passes are stable, so a task's equal instants keep job order.
    fn append_stage(&mut self, lo: f64, end: f64) {
        let n = self.stage.len();
        let scale = n as f64 / (end - lo);
        // A zero-width range scales by +∞: `lo` itself gives NaN, which
        // casts to bucket 0, and every later time saturates to the last.
        let bucket = |time: f64| (((time - lo) * scale) as usize).min(n - 1);
        // `stage[b].2`, staged as 0, counts bucket `b`'s entries, then
        // holds its next free offset.
        for i in 0..n {
            let b = bucket(self.stage[i].0);
            self.stage[b].2 += 1;
        }
        let mut offset = 0;
        for entry in &mut self.stage {
            let count = entry.2;
            entry.2 = offset;
            offset += count;
        }
        let base = self.time.len();
        self.time.resize(base + n, 0.0);
        self.task.resize(base + n, 0);
        for i in 0..n {
            let (time, task, _) = self.stage[i];
            let counter = &mut self.stage[bucket(time)].2;
            let slot = base + *counter as usize;
            *counter += 1;
            self.time[slot] = time;
            self.task[slot] = task;
        }
        for i in base + 1..base + n {
            let (time, task) = (self.time[i], self.task[i]);
            let mut j = i;
            while j > base
                && time
                    .total_cmp(&self.time[j - 1])
                    .then(task.cmp(&self.task[j - 1]))
                    .is_lt()
            {
                self.time[j] = self.time[j - 1];
                self.task[j] = self.task[j - 1];
                j -= 1;
            }
            self.time[j] = time;
            self.task[j] = task;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;
    use crate::task::Task;

    fn job(task: usize, index: u64, deadline: f64) -> ActiveJob {
        ActiveJob::new(
            JobId {
                task: TaskId(task),
                index,
            },
            0.0,
            deadline,
            1.0,
            1.0,
        )
    }

    /// The reference EDF selection the key argmin must reproduce: the
    /// original linear scan over the job structs.
    fn linear_edf_index(ready: &[ActiveJob]) -> Option<usize> {
        if ready.is_empty() {
            return None;
        }
        let mut best = 0;
        for (i, j) in ready.iter().enumerate().skip(1) {
            let b = &ready[best];
            let ord = j
                .deadline
                .total_cmp(&b.deadline)
                .then(j.id.task.cmp(&b.id.task))
                .then(j.id.index.cmp(&b.id.index));
            if ord == std::cmp::Ordering::Less {
                best = i;
            }
        }
        Some(best)
    }

    #[test]
    fn edf_selection_matches_linear_scan_with_ties() {
        let mut ready = ReadySet::default();
        ready.reset(3);
        for j in [
            job(2, 0, 8.0),
            job(0, 0, 5.0),
            job(1, 0, 5.0), // deadline tie with T0#0: task id breaks it
            job(0, 1, 9.0),
        ] {
            ready.push(j);
        }
        assert_eq!(ready.edf_index(), linear_edf_index(ready.jobs()));
        let i = ready.edf_index().unwrap();
        assert_eq!(ready.job(i).id.task, TaskId(0));
        assert_eq!(ready.job(i).id.index, 0);
    }

    #[test]
    fn completion_uses_swap_remove_order_and_key_sync() {
        let mut ready = ReadySet::default();
        ready.reset(4);
        for j in [
            job(0, 0, 2.0),
            job(1, 0, 4.0),
            job(2, 0, 6.0),
            job(3, 0, 8.0),
        ] {
            ready.push(j);
        }
        let i = ready.edf_index().unwrap();
        assert_eq!(i, 0);
        let done = ready.complete(i);
        assert_eq!(done.id.task, TaskId(0));
        // swap_remove moved the last job into slot 0.
        assert_eq!(ready.jobs()[0].id.task, TaskId(3));
        // The key array must have moved in lock-step.
        assert_eq!(ready.edf_index(), linear_edf_index(ready.jobs()));
        assert_eq!(ready.jobs().len(), 3);
        // Lookups by id track the moved position.
        assert!(ready
            .job_mut_by_id(JobId {
                task: TaskId(3),
                index: 0
            })
            .is_some());
        assert!(ready
            .job_mut_by_id(JobId {
                task: TaskId(0),
                index: 0
            })
            .is_none());
    }

    #[test]
    fn ready_set_reset_reserves_every_task() {
        let mut ready = ReadySet::default();
        ready.reset(8);
        for task in 0..8 {
            ready.push(job(task, 0, 1.0));
        }
        ready.reset(32);
        assert!(ready.jobs.capacity() >= 32);
        assert!(ready.keys.capacity() >= 32);
    }

    /// One run's release inputs, owned.
    struct Inputs {
        tasks: TaskSet,
        hot: TaskHot,
        plan: FaultPlan,
    }

    impl Inputs {
        fn new(tasks: Vec<Task>, plan: FaultPlan) -> Inputs {
            let tasks = TaskSet::new(tasks).unwrap();
            let mut hot = TaskHot::default();
            hot.fill(&tasks);
            Inputs { tasks, hot, plan }
        }

        fn periodic(phases_and_periods: &[(f64, f64)]) -> Inputs {
            let tasks = phases_and_periods
                .iter()
                .map(|&(phase, period)| {
                    Task::new(0.1 * period, period)
                        .unwrap()
                        .with_phase(phase)
                        .unwrap()
                })
                .collect();
            Inputs::new(tasks, FaultPlan::NONE)
        }

        fn rec(&self) -> Recurrence<'_> {
            Recurrence {
                tasks: &self.tasks,
                hot: &self.hot,
                jitter: self.plan.has_jitter().then_some(&self.plan),
            }
        }
    }

    #[test]
    fn schedule_batches_in_task_order_and_tracks_the_next_arrival() {
        let inputs = Inputs::periodic(&[(2.0, 10.0), (0.5, 10.0), (1.0, 10.0)]);
        let rec = inputs.rec();
        let mut schedule = ReleaseSchedule::default();
        schedule.start(100.0, rec);
        assert_eq!(schedule.take_due(0.0, rec), 0);
        assert_eq!(schedule.next_arrival(), 0.5);
        // Due tasks come out in ascending task id.
        assert_eq!(schedule.take_due(1.0, rec), 2);
        assert_eq!(schedule.due(), [1, 2]);
        // Mid-batch the due tasks still hold their old times...
        assert_eq!(schedule.arrival_within_batch(0), 0.5);
        schedule.advance(1, 1, rec);
        assert_eq!(schedule.arrival_within_batch(0), 1.0);
        schedule.advance(2, 1, rec);
        // ...and advanced times are visible at once.
        assert_eq!(schedule.arrival_within_batch(1), 2.0);
        assert_eq!(schedule.next_arrival(), 2.0);
        assert_eq!(schedule.times(), [2.0, 10.5, 11.0]);
    }

    #[test]
    fn due_releases_respect_horizon() {
        let inputs = Inputs::periodic(&[(0.0, 1.0), (0.0, 1.0)]);
        let rec = inputs.rec();
        let mut schedule = ReleaseSchedule::default();
        schedule.start(1.0, rec);
        assert_eq!(schedule.take_due(0.0, rec), 2);
        schedule.advance(0, 1, rec);
        schedule.advance(1, 1, rec);
        // Releases at/after the horizon are never due; the first of them
        // is the next arrival.
        assert_eq!(schedule.take_due(1.0, rec), 0);
        assert_eq!(schedule.next_arrival(), 1.0);
        // Two releases before the horizon and one sentinel per task.
        assert_eq!(schedule.job_capacity(), 2);
    }

    /// The model the schedule must reproduce: each task's next release in
    /// a dense array, advanced by the same recurrences, with a fold-min...
    fn fold_min(times: &[f64]) -> f64 {
        times.iter().fold(f64::INFINITY, |min, &time| min.min(time))
    }

    /// ...and an ascending due scan over it.
    fn linear_due(times: &[f64], now: f64, horizon: f64) -> Vec<usize> {
        (0..times.len())
            .filter(|&task| times[task] <= now + TIME_EPS && times[task] < horizon)
            .collect()
    }

    /// A random task set and horizon for the schedule property: up to
    /// eight tasks, periods from 1e-4 to 1 of the horizon, repeated
    /// periods and bit-tied phases, some sporadic tasks and some jitter
    /// plans; a quarter of the horizons land exactly on a release.
    fn random_inputs(rng: &mut Rng) -> (Inputs, f64) {
        let mut horizon = rng.range_f64(0.5, 4.0);
        let shortest = [1.0e-4, 1.0e-3, 1.0e-2, 0.1, 1.0][rng.below(5) as usize];
        let mut specs: Vec<(f64, f64)> = Vec::new();
        for t in 0..1 + rng.below(8) as usize {
            let period = if t > 0 && rng.below(3) == 0 {
                specs[rng.below(t as u64) as usize].1
            } else if t == 0 {
                shortest * horizon
            } else {
                horizon * shortest.powf(rng.unit_f64())
            };
            let phase = match rng.below(4) {
                0 | 1 => 0.0,
                2 if t > 0 => specs[rng.below(t as u64) as usize].0,
                _ => rng.range_f64(0.0, period),
            };
            specs.push((phase, period));
        }
        let tasks = specs
            .iter()
            .map(|&(phase, period)| {
                let task = Task::new(0.1 * period, period)
                    .unwrap()
                    .with_phase(phase)
                    .unwrap();
                if rng.below(4) == 0 {
                    task.sporadic(rng.unit_f64(), rng.next_u64()).unwrap()
                } else {
                    task
                }
            })
            .collect();
        let plan = if rng.below(3) == 0 {
            FaultPlan::new(rng.next_u64())
                .with_release_jitter(rng.unit_f64(), rng.range_f64(0.0, 0.5))
                .unwrap()
        } else {
            FaultPlan::NONE
        };
        let inputs = Inputs::new(tasks, plan);
        if rng.below(4) == 0 {
            let rec = inputs.rec();
            let task = rng.below(specs.len() as u64) as usize;
            let mut release = rec.first(task);
            for index in 1..=1 + rng.below(40) {
                release = rec.after(task, index, release);
            }
            horizon = release;
        }
        (inputs, horizon)
    }

    /// Drives `schedule` and the model through one run of at most `steps`
    /// steps at rising instants, the way the engine drives the schedule,
    /// and compares every due batch, every next arrival within and after a
    /// batch, and the next-release array, bit for bit; on a fresh key, the
    /// schedule must also stay within one window of the cursor.
    fn replay(
        schedule: &mut ReleaseSchedule,
        inputs: &Inputs,
        horizon: f64,
        steps: u64,
        rng: &mut Rng,
    ) -> Result<(), String> {
        // A run on a fresh key generates its own schedule.
        let fresh = !schedule.is_for(horizon, inputs.rec());
        let rec = inputs.rec();
        let shortest = inputs
            .hot
            .period
            .iter()
            .fold(f64::INFINITY, |a, &p| a.min(p));
        schedule.start(horizon, rec);
        let n = inputs.tasks.len();
        let mut times: Vec<f64> = (0..n).map(|t| rec.first(t)).collect();
        let mut index = vec![0_u64; n];
        let bits = |times: &[f64]| times.iter().map(|t| t.to_bits()).collect::<Vec<_>>();
        let mut now: f64 = 0.0;
        for step in 0..steps {
            if bits(schedule.times()) != bits(&times) {
                return Err(format!(
                    "step {step}: next releases {:?} != {times:?}",
                    schedule.times()
                ));
            }
            let next = fold_min(&times);
            let candidate = match rng.below(32) {
                0 => horizon,
                1..=8 => next,
                // Due within the tolerance, before its instant.
                9..=14 => next - 0.5 * TIME_EPS,
                // Far past it: tasks owe several jobs.
                15..=20 => next + rng.below(5) as f64 * shortest,
                // A step inside the tolerance of the last one.
                21..=25 => now + 0.25 * TIME_EPS,
                _ => rng.range_inclusive_f64(now, next.min(horizon).max(now)),
            };
            now = candidate.min(horizon).max(now);
            let want = linear_due(&times, now, horizon);
            let count = schedule.take_due(now, rec);
            if schedule.due() != want {
                return Err(format!(
                    "step {step}, now {now} (horizon {horizon}): due {:?} != {want:?}",
                    schedule.due()
                ));
            }
            let mut released = 0;
            for (d, &task) in want.iter().enumerate() {
                while times[task] <= now + TIME_EPS && times[task] < horizon {
                    released += 1;
                    index[task] += 1;
                    times[task] = rec.after(task, index[task], times[task]);
                    schedule.advance(task, index[task], rec);
                    let (got, want) = (schedule.arrival_within_batch(d), fold_min(&times));
                    if got.to_bits() != want.to_bits() {
                        return Err(format!(
                            "step {step}, task {task}: arrival within the batch {got} != {want}"
                        ));
                    }
                }
            }
            if released != count {
                return Err(format!(
                    "step {step}: {released} releases, schedule took {count}"
                ));
            }
            let (got, want) = (schedule.next_arrival(), fold_min(&times));
            if got.to_bits() != want.to_bits() {
                return Err(format!("step {step}: next arrival {got} != {want}"));
            }
            if fresh && !schedule.holds_one_window_past_cursor() {
                return Err(format!("step {step}: more than one window past the cursor"));
            }
            if now >= horizon - TIME_EPS {
                break;
            }
        }
        Ok(())
    }

    /// Property: the schedule's due batches, next arrivals and next-release
    /// array equal the linear-scan model's at every step, across window
    /// boundaries, with periods from 1e-4 to 1 of the horizon, bit-tied
    /// phases, tasks owing several jobs in one batch, steps inside
    /// `TIME_EPS`, horizons on a release, jitter plans and sporadic
    /// tasks. One schedule serves every case; each case runs twice, the
    /// first run cut at a random step, so the second reuses and extends
    /// what the first generated.
    #[test]
    fn release_schedule_matches_the_linear_scan() {
        let mut schedule = ReleaseSchedule::default();
        crate::rng::check("release_schedule_matches_the_linear_scan", 256, |rng| {
            let (inputs, horizon) = random_inputs(rng);
            let cut = rng.below(64);
            replay(&mut schedule, &inputs, horizon, cut, rng)?;
            replay(&mut schedule, &inputs, horizon, u64::MAX, rng)
        });
    }

    /// Property: after any sequence of releases and completions, the
    /// packed-key argmin selects exactly the job the original linear scan
    /// would — including deadline ties, which the small deadline grid
    /// makes frequent.
    #[test]
    fn key_argmin_matches_linear_scan() {
        crate::rng::check("key_argmin_matches_linear_scan", 256, |rng| {
            let mut ready = ReadySet::default();
            ready.reset(5);
            let mut per_task_index = [0u64; 5];
            for _ in 0..1 + rng.below(79) {
                let (task, grid, coin) = (rng.below(5) as usize, rng.below(12), rng.below(3));
                // Two-in-three pushes keep the set populated so
                // completions (and key swaps) actually happen.
                if coin < 2 || ready.is_empty() {
                    let deadline = grid as f64 * 0.25 + 1.0;
                    ready.push(job(task, per_task_index[task], deadline));
                    per_task_index[task] += 1;
                } else {
                    let victim = task % ready.jobs().len();
                    ready.complete(victim);
                }
                assert_eq!(ready.edf_index(), linear_edf_index(ready.jobs()));
            }
            Ok(())
        });
    }
}
