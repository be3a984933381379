//! The Yao–Demers–Shenker (YDS) optimal offline voltage schedule — the
//! clairvoyant energy lower bound the paper family compares against.

use stadvs_power::{PowerModel, Speed};

use crate::jobs::JobInstance;

/// One constant-speed block of an offline schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpeedBlock {
    /// The block's constant speed (normalized; `<= 1` for feasible input).
    pub speed: f64,
    /// The block's duration, in seconds.
    pub duration: f64,
}

/// A piecewise-constant speed schedule (execution blocks only — the
/// remaining time is idle).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SpeedSchedule {
    /// Blocks in decreasing-speed order (the order YDS discovers them).
    pub blocks: Vec<SpeedBlock>,
}

impl SpeedSchedule {
    /// Total energy of the schedule under `power` (idle time is free — this
    /// keeps the result a lower bound for platforms with any idle power).
    ///
    /// # Panics
    ///
    /// Panics if a block's speed exceeds 1 by more than tolerance (the input
    /// job set was infeasible at full speed).
    pub fn energy(&self, power: &PowerModel) -> f64 {
        self.blocks
            .iter()
            .map(|b| {
                assert!(
                    b.speed <= 1.0 + 1.0e-9,
                    "YDS speed {} > 1: infeasible input",
                    b.speed
                );
                let s = Speed::clamped(b.speed, Speed::MIN_POSITIVE);
                power.active_energy(s, b.duration)
            })
            .sum()
    }

    /// The highest block speed (the minimal feasible static speed), or 0
    /// for an empty schedule.
    pub fn peak_speed(&self) -> f64 {
        self.blocks.iter().map(|b| b.speed).fold(0.0, f64::max)
    }

    /// Total work executed by the schedule.
    pub fn total_work(&self) -> f64 {
        self.blocks.iter().map(|b| b.speed * b.duration).sum()
    }

    /// Total busy time of the schedule.
    pub fn busy_time(&self) -> f64 {
        self.blocks.iter().map(|b| b.duration).sum()
    }
}

/// Which per-job work figure an offline analysis uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkKind {
    /// The actual demands (clairvoyant bound on the realized workload).
    Actual,
    /// The worst-case demands (static design-time analysis).
    WorstCase,
}

/// Computes the YDS optimal schedule for `jobs`.
///
/// YDS repeatedly finds the *critical interval* — the `[z, z']` maximizing
/// the intensity `g = (Σ work of jobs with [r, d] ⊆ [z, z']) / (z' − z)` —
/// assigns that interval speed `g`, removes its jobs, collapses the interval
/// out of the timeline, and recurses. For convex power the result minimizes
/// total energy over *all* feasible schedules, including every on-line
/// governor in this repository; the test suite enforces that dominance.
///
/// ```
/// use stadvs_power::PowerModel;
/// use stadvs_sim::{ConstantRatio, Task, TaskSet};
/// use stadvs_analysis::{materialize_jobs, yds_schedule, WorkKind};
///
/// # fn main() -> Result<(), stadvs_sim::SimError> {
/// let tasks = TaskSet::new(vec![Task::new(2.0, 4.0)?])?;
/// let jobs = materialize_jobs(&tasks, &ConstantRatio::new(1.0), 8.0);
/// let sched = yds_schedule(&jobs, WorkKind::Actual);
/// // U = 0.5 with evenly spread jobs: the optimum runs at 0.5 throughout.
/// assert!((sched.peak_speed() - 0.5).abs() < 1e-9);
/// let e = sched.energy(&PowerModel::normalized_cubic());
/// assert!((e - 8.0 * 0.125).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
pub fn yds_schedule(jobs: &[JobInstance], work: WorkKind) -> SpeedSchedule {
    let remaining: Vec<(f64, f64, f64)> = jobs
        .iter()
        .filter_map(|j| {
            let w = match work {
                WorkKind::Actual => j.actual,
                WorkKind::WorstCase => j.wcet,
            };
            (w > 0.0).then_some((j.release, j.deadline, w))
        })
        .collect();

    schedule_with(remaining, critical_interval)
}

/// A job as the interval search sees it: `(release, deadline, work)`.
type Item = (f64, f64, f64);

/// A critical interval: `(z, z', intensity)`.
type Interval = (f64, f64, f64);

/// The YDS loop over `remaining`, finding each critical interval with
/// `critical`.
fn schedule_with(
    mut remaining: Vec<Item>,
    critical: fn(&[Item]) -> Option<Interval>,
) -> SpeedSchedule {
    let mut blocks = Vec::new();
    while !remaining.is_empty() {
        let Some((z, z_end, intensity)) = critical(&remaining) else {
            break;
        };
        blocks.push(SpeedBlock {
            speed: intensity,
            duration: z_end - z,
        });
        let len = z_end - z;
        remaining.retain(|&(r, d, _)| !(r >= z - 1e-12 && d <= z_end + 1e-12));
        for item in &mut remaining {
            item.0 = collapse(item.0, z, z_end, len);
            item.1 = collapse(item.1, z, z_end, len);
        }
    }
    blocks.sort_by(|a, b| b.speed.total_cmp(&a.speed));
    SpeedSchedule { blocks }
}

/// The minimal constant speed at which EDF meets every deadline of `jobs` —
/// the *clairvoyant static-optimal* ("oracle") speed. Equal to the first
/// critical interval's intensity.
pub fn optimal_static_speed(jobs: &[JobInstance], work: WorkKind) -> f64 {
    let items: Vec<(f64, f64, f64)> = jobs
        .iter()
        .filter_map(|j| {
            let w = match work {
                WorkKind::Actual => j.actual,
                WorkKind::WorstCase => j.wcet,
            };
            (w > 0.0).then_some((j.release, j.deadline, w))
        })
        .collect();
    critical_interval(&items).map_or(0.0, |(_, _, g)| g)
}

fn collapse(t: f64, z: f64, z_end: f64, len: f64) -> f64 {
    if t <= z {
        t
    } else if t >= z_end {
        t - len
    } else {
        z
    }
}

/// Finds `(z, z', intensity)` maximizing contained work per unit length.
/// `O(n²)` after one `O(n log n)` sort: the jobs are stable-sorted by
/// deadline once, and for each distinct release `z` the jobs with
/// `r >= z` are swept in that order with a running work sum. Filtering
/// the stably sorted list gives the same order as stably sorting the
/// filtered list, so the sums are the ones a per-`z` sort would give.
/// The sort is per call, not per schedule: collapsing an interval can
/// tie deadlines that were distinct, and ties keep list order.
fn critical_interval(items: &[Item]) -> Option<Interval> {
    if items.is_empty() {
        return None;
    }
    let mut releases: Vec<f64> = items.iter().map(|i| i.0).collect();
    releases.sort_by(f64::total_cmp);
    releases.dedup_by(|a, b| (*a - *b).abs() < 1e-15);
    let mut by_deadline = items.to_vec();
    by_deadline.sort_by(|a, b| a.1.total_cmp(&b.1));

    let mut best: Option<Interval> = None;
    let mut scratch: Vec<(f64, f64)> = Vec::with_capacity(items.len());
    for &z in &releases {
        scratch.clear();
        scratch.extend(
            by_deadline
                .iter()
                .filter(|i| i.0 >= z - 1e-15)
                .map(|i| (i.1, i.2)),
        );
        if let Some(found) = sweep(z, &scratch, &mut best) {
            return Some(found);
        }
    }
    best
}

/// Sweeps the `(deadline, work)` pairs of the jobs released at or after
/// `z`, in deadline order, raising `best` to every denser `[z, d]`.
/// Returns an unbounded intensity at once for a zero-length window with
/// positive work (infeasible input).
fn sweep(z: f64, jobs: &[(f64, f64)], best: &mut Option<Interval>) -> Option<Interval> {
    let mut work = 0.0;
    let mut idx = 0;
    while idx < jobs.len() {
        // Accumulate all jobs sharing this deadline before evaluating.
        let d = jobs[idx].0;
        while idx < jobs.len() && (jobs[idx].0 - d).abs() < 1e-15 {
            work += jobs[idx].1;
            idx += 1;
        }
        let span = d - z;
        if span <= 0.0 {
            // Zero-length window with positive work: infeasible input;
            // report an unbounded intensity via a tiny span.
            return Some((z, z + f64::MIN_POSITIVE, f64::INFINITY));
        }
        let g = work / span;
        if best.is_none_or(|(_, _, bg)| g > bg) {
            *best = Some((z, d, g));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use stadvs_sim::rng::Rng;
    use stadvs_sim::{JobId, TaskId};

    /// The critical interval with a stable sort per candidate `z`: the
    /// reference for the sort-once search.
    fn critical_interval_resorting(items: &[Item]) -> Option<Interval> {
        if items.is_empty() {
            return None;
        }
        let mut releases: Vec<f64> = items.iter().map(|i| i.0).collect();
        releases.sort_by(f64::total_cmp);
        releases.dedup_by(|a, b| (*a - *b).abs() < 1e-15);

        let mut best: Option<Interval> = None;
        let mut scratch: Vec<(f64, f64)> = Vec::with_capacity(items.len());
        for &z in &releases {
            scratch.clear();
            scratch.extend(
                items
                    .iter()
                    .filter(|i| i.0 >= z - 1e-15)
                    .map(|i| (i.1, i.2)),
            );
            scratch.sort_by(|a, b| a.0.total_cmp(&b.0));
            if let Some(found) = sweep(z, &scratch, &mut best) {
                return Some(found);
            }
        }
        best
    }

    /// Random `(release, deadline, work)` items on a coarse grid, so
    /// releases and deadlines tie often, with works that differ in their
    /// low bits: a tie summed in another order would show in the sums.
    /// Sets reach past the 20 items below which the standard library's
    /// unstable sort happens to keep ties in order.
    fn items(rng: &mut Rng) -> Vec<Item> {
        (0..rng.below(64))
            .map(|_| {
                let release = rng.below(8) as f64 * 0.25;
                let deadline = release + (1 + rng.below(8)) as f64 * 0.25;
                (release, deadline, rng.range_f64(0.01, 0.3))
            })
            .collect()
    }

    fn bits(found: Option<Interval>) -> Option<[u64; 3]> {
        found.map(|(z, end, g)| [z.to_bits(), end.to_bits(), g.to_bits()])
    }

    /// Property: sorting once per call finds the same `(z, z', g)` bits
    /// as sorting per candidate start, and builds the same schedule bits.
    #[test]
    fn sort_once_matches_the_per_start_sort() {
        stadvs_sim::rng::check("sort_once_matches_the_per_start_sort", 256, |rng| {
            let items = items(rng);
            let (got, want) = (
                critical_interval(&items),
                critical_interval_resorting(&items),
            );
            if bits(got) != bits(want) {
                return Err(format!("interval {got:?}, want {want:?} for {items:?}"));
            }
            let got = schedule_with(items.clone(), critical_interval);
            let want = schedule_with(items.clone(), critical_interval_resorting);
            let blocks = |s: &SpeedSchedule| -> Vec<[u64; 2]> {
                s.blocks
                    .iter()
                    .map(|b| [b.speed.to_bits(), b.duration.to_bits()])
                    .collect()
            };
            if blocks(&got) != blocks(&want) {
                return Err(format!("schedule {got:?}, want {want:?} for {items:?}"));
            }
            Ok(())
        });
    }

    fn job(task: usize, index: u64, r: f64, d: f64, w: f64) -> JobInstance {
        JobInstance {
            id: JobId {
                task: TaskId(task),
                index,
            },
            release: r,
            deadline: d,
            wcet: w,
            actual: w,
        }
    }

    #[test]
    fn single_job_runs_at_its_density() {
        let jobs = vec![job(0, 0, 0.0, 4.0, 1.0)];
        let s = yds_schedule(&jobs, WorkKind::Actual);
        assert_eq!(s.blocks.len(), 1);
        assert!((s.blocks[0].speed - 0.25).abs() < 1e-12);
        assert!((s.blocks[0].duration - 4.0).abs() < 1e-12);
        assert!((s.total_work() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn textbook_two_level_example() {
        // A dense job forces a fast interval; a loose job then spreads out.
        // J1: [0, 2] w=2 (density 1); J2: [0, 10] w=2.
        let jobs = vec![job(0, 0, 0.0, 2.0, 2.0), job(1, 0, 0.0, 10.0, 2.0)];
        let s = yds_schedule(&jobs, WorkKind::Actual);
        assert_eq!(s.blocks.len(), 2);
        // Critical interval [0,2] at speed 1; J2 then has window [0,8]
        // (collapsed) → speed 0.25.
        assert!((s.blocks[0].speed - 1.0).abs() < 1e-12);
        assert!((s.blocks[0].duration - 2.0).abs() < 1e-12);
        assert!((s.blocks[1].speed - 0.25).abs() < 1e-12);
        assert!((s.blocks[1].duration - 8.0).abs() < 1e-12);
    }

    #[test]
    fn uniform_periodic_load_is_flat() {
        let jobs: Vec<JobInstance> = (0..10)
            .map(|k| job(0, k, k as f64, k as f64 + 1.0, 0.5))
            .collect();
        let s = yds_schedule(&jobs, WorkKind::Actual);
        assert!((s.peak_speed() - 0.5).abs() < 1e-12);
        assert!((s.busy_time() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn oracle_static_speed_matches_peak_interval() {
        let jobs = vec![job(0, 0, 0.0, 2.0, 2.0), job(1, 0, 0.0, 10.0, 2.0)];
        assert!((optimal_static_speed(&jobs, WorkKind::Actual) - 1.0).abs() < 1e-12);
        let loose = vec![job(0, 0, 0.0, 10.0, 2.0)];
        assert!((optimal_static_speed(&loose, WorkKind::Actual) - 0.2).abs() < 1e-12);
        assert_eq!(optimal_static_speed(&[], WorkKind::Actual), 0.0);
    }

    #[test]
    fn worst_case_kind_uses_wcet() {
        let mut j = job(0, 0, 0.0, 4.0, 2.0);
        j.actual = 1.0;
        let s_actual = yds_schedule(&[j], WorkKind::Actual);
        let s_wc = yds_schedule(&[j], WorkKind::WorstCase);
        assert!((s_actual.peak_speed() - 0.25).abs() < 1e-12);
        assert!((s_wc.peak_speed() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn energy_is_convex_optimal_for_simple_case() {
        use stadvs_power::PowerModel;
        // Two identical jobs with disjoint windows: flat speed is optimal.
        let jobs = vec![job(0, 0, 0.0, 5.0, 1.0), job(0, 1, 5.0, 10.0, 1.0)];
        let s = yds_schedule(&jobs, WorkKind::Actual);
        let e = s.energy(&PowerModel::normalized_cubic());
        // 10 s at speed 0.2: E = 10 * 0.008 = 0.08.
        assert!((e - 0.08).abs() < 1e-12);
    }

    #[test]
    fn zero_work_jobs_are_ignored() {
        let mut j = job(0, 0, 0.0, 4.0, 1.0);
        j.actual = 0.0;
        let s = yds_schedule(&[j], WorkKind::Actual);
        assert!(s.blocks.is_empty());
        assert_eq!(s.peak_speed(), 0.0);
    }

    #[test]
    fn overlapping_mixed_windows() {
        // J1 [0,4] w=1, J2 [2,6] w=1, J3 [0,12] w=1.
        let jobs = vec![
            job(0, 0, 0.0, 4.0, 1.0),
            job(1, 0, 2.0, 6.0, 1.0),
            job(2, 0, 0.0, 12.0, 1.0),
        ];
        let s = yds_schedule(&jobs, WorkKind::Actual);
        // Total work 3 over horizon 12; peak intensity: [0,6] contains J1+J2
        // (2 work / 6) = 1/3 vs [0,4]=0.25 vs [2,6]=0.25 vs [0,12]=0.25.
        assert!((s.peak_speed() - (1.0 / 3.0)).abs() < 1e-9);
        // Work conservation.
        assert!((s.total_work() - 3.0).abs() < 1e-9);
    }
}
