//! No selectable governor allocates per event: on a warm scratch, a run
//! 16 times longer allocates at most a small constant more.
//!
//! Every row of the governor table runs in three shapes, each at the
//! horizons `H` and `16·H`:
//!
//! * one core under [`Simulator`];
//! * the `budget` experiment's platform — four identical cores, a
//!   worst-fit-decreasing partition — under a shared 2 W cap;
//! * one core under a fault plan with overruns, release jitter and
//!   dropped switches, for every row whose capabilities cover jitter.
//!
//! A counting global allocator counts `alloc` and `realloc` calls around
//! each run, and nothing else happens between the two reads: governors,
//! demand sources and simulators are built before the window and dropped
//! after it. Each shape keeps one scratch, warmed by a `16·H` run before
//! the first count, so the counts see what a run allocates and not what
//! a cold scratch grows. A per-event allocation shows up as thousands of
//! allocations more at `16·H` than at `H`; buffer doubling shows up as a
//! few.
//!
//! This file holds exactly one test, because the counter is process-wide
//! and a second test running on another thread would be counted too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use stadvs::experiments::experiments::budget::{CORES, N_TASKS_PER_CORE, UTIL_PER_CORE};
use stadvs::experiments::{GovernorEntry, PlatformWorkload, WorkloadCase, GOVERNORS};
use stadvs::power::{Platform, Processor};
use stadvs::sim::{
    FaultPlan, Governor, PlatformScratch, PlatformSim, SimConfig, SimScratch, Simulator, TaskSet,
};
use stadvs::workload::{DemandPattern, WorstFitDecreasing};

/// The system allocator plus a count of allocations and reallocations.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a statistic only (a
// relaxed atomic that publishes no other data) and never influences what
// is allocated.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's guarantees for `layout` pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout` (every
        // allocation of this allocator is).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `dealloc`; `new_size` is the caller's, unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The short horizon `H`, in seconds; the long one is `16·H`.
const H: f64 = 0.5;
/// How many more allocations a `16·H` run may make than an `H` run.
const GROWTH_BOUND: u64 = 16;

/// Runs `run` and returns its result with the allocations it made.
fn counted<T>(run: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.load(Ordering::SeqCst);
    let out = run();
    let after = ALLOCS.load(Ordering::SeqCst);
    (out, after - before)
}

/// The allocations of one run at `H` and one at `16·H`, the run shape
/// given as a closure over the horizon's index (0 for `H`, 1 for `16·H`).
fn pair(mut run: impl FnMut(usize) -> u64) -> [u64; 2] {
    [run(0), run(1)]
}

#[test]
fn allocations_do_not_grow_with_the_horizon() {
    let horizons = [H, 16.0 * H];
    let config = |h: f64| SimConfig::new(h).expect("valid horizon");
    let pattern = DemandPattern::Uniform { min: 0.2, max: 1.0 };

    // One core: 8 tasks at U = 0.7.
    let case = WorkloadCase::synthetic(8, 0.7, pattern.clone(), 42);
    let sims = horizons.map(|h| {
        Simulator::new(case.tasks.clone(), Processor::ideal_continuous(), config(h))
            .expect("generated sets are feasible")
    });
    let plan = FaultPlan::new(7)
        .with_overrun(0.1, 1.5)
        .and_then(|p| p.with_release_jitter(0.2, 0.1))
        .and_then(|p| p.with_switch_drops(0.1))
        .expect("valid channels");

    // The budget experiment's platform under a 2 W cap.
    let workload = PlatformWorkload::partitioned(
        WorkloadCase::synthetic_union(CORES, N_TASKS_PER_CORE, UTIL_PER_CORE, pattern, 42),
        &WorstFitDecreasing,
        CORES,
    );
    assert!(workload.partition.admitted());
    let platform = Platform::homogeneous(CORES, Processor::ideal_continuous()).expect("cores");
    let assignments: Vec<Option<TaskSet>> = (0..CORES)
        .map(|c| workload.partition.core_task_set(&workload.case.tasks, c))
        .collect();
    let platforms = horizons.map(|h| {
        PlatformSim::new(platform.clone(), assignments.clone(), config(h))
            .expect("admitted partitions are feasible")
    });
    let execs: Vec<_> = (0..CORES)
        .map(|c| workload.partition.core_demand(&workload.case.exec, c))
        .collect();

    let mut one_core = SimScratch::new();
    let mut faulted = SimScratch::new();
    let mut budgeted = PlatformScratch::new();
    let budgeted_run = |governors: &mut Vec<Box<dyn Governor>>,
                        sim: &PlatformSim,
                        scratch: &mut PlatformScratch| {
        sim.run_budgeted(
            |_| governors.pop().expect("one governor per core"),
            &execs,
            2.0,
            scratch,
        )
    };
    let per_core =
        |g: &GovernorEntry| -> Vec<Box<dyn Governor>> { (0..CORES).map(|_| g.make()).collect() };

    // Warm each shape's scratch with a long run.
    let warm = &GOVERNORS[0];
    sims[1]
        .run_with_scratch(warm.make().as_mut(), &case.exec, &mut one_core)
        .expect("warm-up run");
    sims[1]
        .run_faulted_with_scratch(warm.make().as_mut(), &case.exec, &plan, &mut faulted)
        .expect("warm-up run");
    budgeted_run(&mut per_core(warm), &platforms[1], &mut budgeted).expect("warm-up run");

    let mut failures = Vec::new();
    let mut largest = [
        ("one core", 0u64),
        ("4 cores, 2 W cap", 0),
        ("one core, faults", 0),
    ];
    for g in GOVERNORS {
        let mut shapes = vec![
            pair(|i| {
                let mut governor = g.make();
                let (out, allocs) = counted(|| {
                    sims[i].run_with_scratch(governor.as_mut(), &case.exec, &mut one_core)
                });
                out.expect("run succeeds");
                allocs
            }),
            pair(|i| {
                let mut governors = per_core(g);
                let (out, allocs) =
                    counted(|| budgeted_run(&mut governors, &platforms[i], &mut budgeted));
                out.expect("run succeeds");
                allocs
            }),
        ];
        if g.caps.jitter {
            shapes.push(pair(|i| {
                let mut governor = g.make();
                let (out, allocs) = counted(|| {
                    sims[i].run_faulted_with_scratch(
                        governor.as_mut(),
                        &case.exec,
                        &plan,
                        &mut faulted,
                    )
                });
                out.expect("run succeeds");
                allocs
            }));
        }
        for ((shape, most), [short, long]) in largest.iter_mut().zip(shapes) {
            let growth = long.saturating_sub(short);
            *most = (*most).max(growth);
            if growth > GROWTH_BOUND {
                failures.push(format!(
                    "{} ({shape}): {short} allocations at H = {H} s, {long} at 16·H",
                    g.name
                ));
            }
        }
    }
    for (shape, most) in largest {
        println!("{shape}: largest growth from H to 16·H is {most} allocations");
    }
    assert!(
        failures.is_empty(),
        "allocations grow with the horizon (bound {GROWTH_BOUND}):\n{}",
        failures.join("\n")
    );
}
