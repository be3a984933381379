//! Priority structures for the dispatch loop.
//!
//! The simulator's two per-event questions — *which ready job does EDF
//! dispatch?* and *when is the next release?* — are answered over dense
//! arrays, not heaps. The ready set is tiny (a handful of jobs), so a
//! branch-light linear scan over contiguous `u64` words beats heap sift
//! paths and their pointer-chasing comparisons. The release set has one
//! entry per task (a few dozen) and is queried once per event and once
//! per release, so it carries a min-tree over its dense array: reading
//! the next arrival is O(1) and an update O(log n) (a fold-min and a scan
//! per event cost over a quarter of a simple-governor run, DESIGN.md §9).
//! Both keep the engine's observable behaviour bit-for-bit:
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
//! * [`ReleaseQueue`] is an implicit binary min-tree whose leaf level is
//!   the per-task next-release array: the next-arrival query reads the
//!   root, a release advance rewrites one leaf-to-root path, and the
//!   due-scan descends only into subtrees whose minimum is due, leftmost
//!   first — which yields exactly the (ascending task id) order the engine
//!   releases simultaneous arrivals in, so no sort is needed.
//!
//! Both structures are scratch-friendly: `reset` reuses every allocation,
//! which is what lets the experiment runner replay thousands of cases
//! without per-case allocation churn.

use crate::job::{ActiveJob, JobId};
use crate::simulator::TIME_EPS;

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

/// Per-task next-release instants, indexed by an implicit binary min-tree.
///
/// `tree` is laid out heap-style over `leaves` (the task count rounded up
/// to a power of two): `tree[leaves + t]` is task `t`'s next release,
/// padding leaves hold `+∞`, and each internal node `k` in `1..leaves`
/// holds `min(tree[2k], tree[2k + 1])`. The leaf level is the dense
/// per-task array [`SchedulerView`] reads, so the index keeps no second
/// copy of the times. The root is the next arrival — the same value a
/// fold-min over the leaves gives, since `min` only ever returns one of
/// its operands — and it stays exact mid-batch: a due task's advanced time
/// reaches the root the moment [`ReleaseQueue::set_time`] runs, with no
/// re-queue step. Reading the root is O(1), an update O(log n), and the
/// due scan O(log n) per due task it reports.
///
/// [`SchedulerView`]: crate::governor::SchedulerView
#[derive(Debug, Clone, Default)]
pub(crate) struct ReleaseQueue {
    tree: Vec<f64>,
    /// Index of task 0's leaf: the task count rounded up to a power of two.
    leaves: usize,
    /// The task count; the leaves past it are padding.
    tasks: usize,
}

impl ReleaseQueue {
    /// Resets to the given first-release instants (one per task) and
    /// rebuilds the tree bottom-up.
    pub(crate) fn reset(&mut self, phases: impl ExactSizeIterator<Item = f64>) {
        self.tasks = phases.len();
        self.leaves = self.tasks.next_power_of_two();
        self.tree.clear();
        self.tree.reserve(2 * self.leaves);
        // Internal nodes (and the unused slot 0) are rebuilt below.
        self.tree.resize(self.leaves, f64::INFINITY);
        self.tree.extend(phases);
        self.tree.resize(2 * self.leaves, f64::INFINITY);
        for k in (1..self.leaves).rev() {
            self.tree[k] = self.tree[2 * k].min(self.tree[2 * k + 1]);
        }
    }

    /// The per-task next-release instants (what [`SchedulerView`] exposes).
    ///
    /// [`SchedulerView`]: crate::governor::SchedulerView
    pub(crate) fn times(&self) -> &[f64] {
        &self.tree[self.leaves..self.leaves + self.tasks]
    }

    /// The next release instant of `task`.
    pub(crate) fn time(&self, task: usize) -> f64 {
        debug_assert!(task < self.tasks, "task {task} out of range");
        self.tree[self.leaves + task]
    }

    /// The earliest next release over all tasks (infinite when empty).
    pub(crate) fn next_arrival(&self) -> f64 {
        self.tree.get(1).copied().unwrap_or(f64::INFINITY)
    }

    /// Collects every task due at `now` (within event tolerance) with a
    /// release strictly before `horizon` into `due`, in ascending task id —
    /// the order the original engine released simultaneous arrivals in.
    /// The caller advances each due task via [`ReleaseQueue::set_time`].
    ///
    /// A subtree holds a due leaf exactly when its minimum is due, so the
    /// walk never enters a subtree without one: from a due node it
    /// descends to the leftmost due leaf (the right child is due whenever
    /// the left is not), then moves on to the next subtree in pre-order
    /// whose minimum is due.
    pub(crate) fn pop_due(&self, now: f64, horizon: f64, due: &mut Vec<usize>) {
        due.clear();
        let limit = now + TIME_EPS;
        // Non-short-circuit `&`: the descent below stays branch-free.
        let is_due = |k: usize| {
            let time = self.tree[k];
            (time <= limit) & (time < horizon)
        };
        if self.tree.len() < 2 || !is_due(1) {
            return;
        }
        let mut k = 1;
        loop {
            while k < self.leaves {
                k = 2 * k + usize::from(!is_due(2 * k));
            }
            // Padding leaves are +∞, never before the horizon.
            due.push(k - self.leaves);
            // Climb past every right child, then step to the right
            // sibling; climbing past the root ends the walk.
            loop {
                k >>= k.trailing_ones();
                if k == 0 {
                    return;
                }
                k += 1;
                if is_due(k) {
                    break;
                }
            }
        }
    }

    /// Updates `task`'s next release and the minima on its path to the
    /// root.
    pub(crate) fn set_time(&mut self, task: usize, time: f64) {
        debug_assert!(task < self.tasks, "task {task} out of range");
        let mut k = self.leaves + task;
        self.tree[k] = time;
        while k > 1 {
            k >>= 1;
            self.tree[k] = self.tree[2 * k].min(self.tree[2 * k + 1]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::TaskId;

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
    fn release_queue_tracks_min_and_due_order() {
        let mut rq = ReleaseQueue::default();
        rq.reset([2.0, 0.5, 1.0].into_iter());
        assert_eq!(rq.next_arrival(), 0.5);
        let mut due = Vec::new();
        rq.pop_due(1.0, 100.0, &mut due);
        // Due tasks come out in ascending task id.
        assert_eq!(due, vec![1, 2]);
        // Mid-batch the due tasks still hold their old times...
        assert_eq!(rq.next_arrival(), 0.5);
        rq.set_time(1, 10.5);
        rq.set_time(2, 11.0);
        // ...and advanced times are visible with no re-queue step.
        assert_eq!(rq.next_arrival(), 2.0);
    }

    #[test]
    fn due_releases_respect_horizon() {
        let mut rq = ReleaseQueue::default();
        rq.reset([0.0, 0.0].into_iter());
        let mut due = Vec::new();
        // Releases at/after the horizon are not generated.
        rq.pop_due(0.0, 0.0, &mut due);
        assert!(due.is_empty());
        assert_eq!(rq.next_arrival(), 0.0);
    }

    /// The reference the release tree must reproduce: the fold-min over
    /// the dense per-task array it replaced...
    fn fold_min(times: &[f64]) -> f64 {
        times.iter().fold(f64::INFINITY, |min, &time| min.min(time))
    }

    /// ...and that array's ascending due scan.
    fn linear_due(times: &[f64], now: f64, horizon: f64) -> Vec<usize> {
        (0..times.len())
            .filter(|&task| times[task] <= now + TIME_EPS && times[task] < horizon)
            .collect()
    }

    /// Compares every query of `rq` against the reference over `times`.
    fn agrees(
        rq: &ReleaseQueue,
        times: &[f64],
        now: f64,
        horizon: f64,
        due: &mut Vec<usize>,
    ) -> Result<(), String> {
        if rq.times() != times {
            return Err(format!("leaves {:?} != {:?}", rq.times(), times));
        }
        if rq.next_arrival().to_bits() != fold_min(times).to_bits() {
            return Err(format!(
                "next arrival {} != fold-min {}",
                rq.next_arrival(),
                fold_min(times)
            ));
        }
        rq.pop_due(now, horizon, due);
        let expected = linear_due(times, now, horizon);
        if *due != expected {
            return Err(format!(
                "due at {now} (horizon {horizon}): {due:?} != {expected:?}"
            ));
        }
        Ok(())
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

    /// Property: driven the way the engine drives it — batches popped at
    /// the next arrival (or past it, so tasks owe several releases and
    /// catch up one `set_time` at a time), horizon clipping, and arbitrary
    /// overwrites — the tree's root, due list and leaves equal the fold-min
    /// and linear scan after every update. Task counts 1–70 cross several
    /// powers of two, one queue is reset across all cases of every size,
    /// and times sit on a coarse grid so ties and multi-task batches are
    /// common.
    #[test]
    fn release_tree_matches_fold_min_and_linear_scan() {
        let mut rq = ReleaseQueue::default();
        let mut due = Vec::new();
        let mut batch = Vec::new();
        crate::rng::check(
            "release_tree_matches_fold_min_and_linear_scan",
            256,
            |rng| {
                let n = 1 + rng.below(70) as usize;
                let mut times: Vec<f64> = (0..n).map(|_| rng.below(16) as f64 * 0.25).collect();
                let periods: Vec<f64> = (0..n).map(|_| (1 + rng.below(8)) as f64 * 0.25).collect();
                let horizon = rng.below(40) as f64 * 0.25;
                rq.reset(times.iter().copied());
                let mut now = 0.0;
                agrees(&rq, &times, now, horizon, &mut due)?;
                for _ in 0..48 {
                    if rng.below(4) == 0 {
                        let task = rng.below(n as u64) as usize;
                        times[task] = rng.below(48) as f64 * 0.25;
                        rq.set_time(task, times[task]);
                        agrees(&rq, &times, now, horizon, &mut due)?;
                        continue;
                    }
                    now = (fold_min(&times) + rng.below(4) as f64 * 0.25).min(horizon);
                    agrees(&rq, &times, now, horizon, &mut batch)?;
                    for &task in &batch {
                        while times[task] <= now + TIME_EPS && times[task] < horizon {
                            times[task] += periods[task];
                            rq.set_time(task, times[task]);
                            agrees(&rq, &times, now, horizon, &mut due)?;
                        }
                    }
                }
                Ok(())
            },
        );
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

    /// Deterministic LCG-driven stress: random release/complete sequences,
    /// key-argmin selection must equal the linear scan at every step.
    #[test]
    fn random_sequences_match_linear_scan() {
        let mut state: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let n_tasks = 5;
        for _round in 0..200 {
            let mut ready = ReadySet::default();
            ready.reset(n_tasks);
            let mut per_task_index = [0u64; 5];
            for _op in 0..40 {
                let coin = next() % 3;
                if coin < 2 || ready.is_empty() {
                    let t = (next() as usize) % n_tasks;
                    // Deadlines from a small grid to force plenty of ties.
                    let deadline = ((next() % 8) as f64) * 0.5 + 1.0;
                    ready.push(job(t, per_task_index[t], deadline));
                    per_task_index[t] += 1;
                } else {
                    let victim = (next() as usize) % ready.jobs().len();
                    ready.complete(victim);
                }
                assert_eq!(
                    ready.edf_index(),
                    linear_edf_index(ready.jobs()),
                    "key argmin and linear scan diverged"
                );
            }
        }
    }
}
