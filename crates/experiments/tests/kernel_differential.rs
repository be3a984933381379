//! Pins the simulators' event accounting and the kernel's ordering.
//!
//! Every [`SimOutcome::kernel`] counter — the per-kind `emitted` and
//! `handled` counts of each core engine — is pinned against a fixture,
//! `tests/golden/kernel_accounting.csv`, with one row per run and core:
//! the counters, the step count, the switch count, the total-energy bits,
//! completed jobs and misses. The matrix crosses seeds × the full capable
//! lineup × {fault-free, overrun + release jitter, mixed task models} on
//! one core, plus 4-core WFD platforms, with log-uniform and with
//! harmonic periods, uncapped and under shared power caps that throttle.
//! Jitter moves releases off the periodic lattice, overruns drive the
//! fault notes, the model mix drives (m,k) skips and frame boundaries,
//! and the caps drive budget notes. On a platform the
//! order in which cores reach the shared budget ledger decides who is
//! throttled, and that order breaks bit-tied wake times on each core's
//! sequence number — which every note consumes — so a drive loop that
//! stamped or ordered wakes differently shows up here as a row diff.
//!
//! Regenerate (after an intentional change to the accounting) with:
//!
//! ```text
//! STADVS_BLESS=1 cargo test -p stadvs-experiments --test kernel_differential
//! ```
//!
//! The remaining harnesses pin the [`Kernel`]'s own determinism
//! contract: the delivery order of a fixed event set is invariant to the
//! order in which components hand their events to the queue (the
//! `(time, seq, source)` key is a total order, so insertion order is
//! unobservable), and equals a model that stamps each event with its
//! per-source sequence number and sorts on that key.

use std::fmt::Write as _;

use stadvs_experiments::{
    capable_lineup, golden, jitter_safe_lineup, make_governor, required_caps, PlatformWorkload,
    WorkloadCase, STANDARD_LINEUP,
};
use stadvs_power::{Platform, Processor};
use stadvs_sim::rng::check;
use stadvs_sim::{
    ComponentCtx, ComponentId, EventHandler, EventKind, FaultPlan, Kernel, PlatformScratch,
    PlatformSim, SimConfig, SimError, SimEvent, SimOutcome, SimScratch, Simulator, TaskSet,
    EVENT_KINDS,
};
use stadvs_workload::{
    partitioner_by_name, DemandPattern, ExecutionModel, ModelMix, PeriodGenerator, TaskSetSpec,
};

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/kernel_accounting.csv"
);

/// Builds the shared test configuration: traces on, so the runs take
/// the trace-recording path too.
fn config(horizon: f64) -> SimConfig {
    SimConfig::new(horizon)
        .expect("test horizon is valid")
        .with_trace(true)
}

/// The fault-plan axis: fault-free and overrun + release jitter combined
/// (both fault event paths live in the same run).
fn fault_plans(seed: u64) -> Vec<(&'static str, FaultPlan)> {
    vec![
        ("none", FaultPlan::NONE),
        (
            "overrun+jitter",
            FaultPlan::new(seed)
                .with_overrun(0.25, 1.4)
                .expect("valid overrun parameters")
                .with_release_jitter(0.3, 0.15)
                .expect("valid jitter parameters"),
        ),
    ]
}

/// The fixture's header: every counter column is named after its
/// [`EventKind`] label.
fn header() -> String {
    let mut out = String::from("label,governor,core");
    for prefix in ["emitted", "handled"] {
        for kind in EventKind::ALL {
            write!(out, ",{prefix}_{}", kind.label()).expect("string write");
        }
    }
    out.push_str(",events,switches,energy_bits,completed,misses\n");
    out
}

/// Appends one fixture row for one core's outcome.
fn push_row(out: &mut String, label: &str, core: usize, outcome: &SimOutcome) {
    write!(out, "{label},{},{core}", outcome.governor).expect("string write");
    for counts in [outcome.kernel.emitted, outcome.kernel.handled] {
        for count in counts {
            write!(out, ",{count}").expect("string write");
        }
    }
    writeln!(
        out,
        ",{},{},{:016x},{},{}",
        outcome.events,
        outcome.switches,
        outcome.total_energy().to_bits(),
        outcome.completed_jobs(),
        outcome.miss_count()
    )
    .expect("string write");
}

/// Runs one uniprocessor case and appends its row.
fn uni_row(
    out: &mut String,
    label: &str,
    tasks: &TaskSet,
    exec: &ExecutionModel,
    name: &str,
    plan: &FaultPlan,
    scratch: &mut SimScratch,
) {
    let sim = Simulator::new(tasks.clone(), Processor::ideal_continuous(), config(12.0))
        .expect("test task sets are feasible");
    let mut governor = make_governor(name).expect("lineup names resolve");
    let outcome = sim
        .run_faulted_with_scratch(governor.as_mut(), exec, plan, scratch)
        .unwrap_or_else(|e| panic!("{label}/{name}: run failed: {e}"));
    push_row(out, label, 0, &outcome);
}

/// The shared caps of the platform rows, in watts of aggregate active
/// draw (`None` runs without a ledger). Four cores at full speed draw
/// 4 W on the normalized cubic model, so every cap here can bind.
const PLATFORM_CAPS: &[(&str, Option<f64>)] = &[
    ("uncapped", None),
    ("2.5W", Some(2.5)),
    ("1.5W", Some(1.5)),
    ("1W", Some(1.0)),
];

/// Renders the whole accounting matrix as the fixture's text.
fn render() -> String {
    let mut out = header();
    let mut scratch = SimScratch::new();
    for seed in [11u64, 23, 47] {
        let case =
            WorkloadCase::synthetic(6, 0.75, DemandPattern::Uniform { min: 0.3, max: 1.0 }, seed);
        for (plan_name, plan) in fault_plans(seed ^ 0xFACADE) {
            // Jitter is delay-only; governors that cannot absorb it are
            // excluded exactly as the experiment runner excludes them.
            for name in jitter_safe_lineup(STANDARD_LINEUP, &plan) {
                let label = format!("uni/seed{seed}/{plan_name}");
                uni_row(
                    &mut out,
                    &label,
                    &case.tasks,
                    &case.exec,
                    name,
                    &plan,
                    &mut scratch,
                );
            }
        }
    }
    let mix = ModelMix::new()
        .with_weakly_hard(2, 1, 3)
        .expect("mix literals valid")
        .with_sporadic(2, 0.5)
        .expect("mix literals valid")
        .with_frame(1, 0.5)
        .expect("mix literals valid");
    for seed in [11u64, 23, 47] {
        let tasks = TaskSetSpec::new(6, 0.6)
            .expect("test parameters are valid")
            .with_model_mix(mix)
            .expect("mix fits the task count")
            .with_seed(seed)
            .generate()
            .expect("generation succeeds");
        let exec = ExecutionModel::new(DemandPattern::Uniform { min: 0.2, max: 1.0 })
            .expect("test pattern is valid")
            .with_seed(seed ^ 0x5EED);
        for name in capable_lineup(STANDARD_LINEUP, required_caps(&tasks)) {
            let label = format!("uni/seed{seed}/mixed-models");
            uni_row(
                &mut out,
                &label,
                &tasks,
                &exec,
                name,
                &FaultPlan::NONE,
                &mut scratch,
            );
        }
    }

    let mut scratch = PlatformScratch::new();
    for rep in 0..2u64 {
        let case = WorkloadCase::synthetic_union(
            CORES,
            5,
            0.5,
            DemandPattern::Uniform { min: 0.2, max: 1.0 },
            rep,
        );
        platform_rows(
            &mut out,
            &format!("wfd{CORES}/rep{rep}"),
            case,
            &mut scratch,
        );
        platform_rows(
            &mut out,
            &format!("wfd{CORES}/harmonic{rep}"),
            harmonic_union(rep),
            &mut scratch,
        );
    }
    out
}

/// Cores of the platform rows.
const CORES: usize = 4;

/// A union of [`CORES`] five-task sets at utilization 0.5 each, with
/// harmonic periods (10 ms · 2^k). Cores wake at bit-equal release
/// instants, so the order in which they reach the budget ledger rests on
/// their sequence numbers — which the continuous periods of
/// [`WorkloadCase::synthetic_union`] almost never put to the test.
fn harmonic_union(seed: u64) -> WorkloadCase {
    let mut tasks = Vec::new();
    for core in 0..CORES as u64 {
        let sub = TaskSetSpec::new(5, 0.5)
            .expect("test parameters are valid")
            .with_periods(PeriodGenerator::Harmonic {
                base: 0.010,
                octaves: 5,
            })
            .with_seed(seed * 16 + core)
            .generate()
            .expect("generation succeeds");
        tasks.extend(sub.tasks().iter().cloned());
    }
    WorkloadCase::fixed(
        TaskSet::new(tasks).expect("the union is non-empty"),
        DemandPattern::Uniform { min: 0.2, max: 1.0 },
        seed,
    )
}

/// Partitions `case` onto [`CORES`] cores by WFD, runs the standard
/// lineup on it under every [`PLATFORM_CAPS`] entry, and appends a row
/// per run and core.
fn platform_rows(out: &mut String, label: &str, case: WorkloadCase, scratch: &mut PlatformScratch) {
    let partitioner = partitioner_by_name("wfd").expect("registered partitioner");
    let workload = PlatformWorkload::partitioned(case, partitioner.as_ref(), CORES);
    assert!(
        workload.partition.admitted(),
        "{label}: WFD rejected a task"
    );
    let assignments: Vec<Option<TaskSet>> = (0..CORES)
        .map(|c| workload.partition.core_task_set(&workload.case.tasks, c))
        .collect();
    let sim = PlatformSim::new(
        Platform::homogeneous(CORES, Processor::ideal_continuous())
            .expect("core counts are positive"),
        assignments,
        SimConfig::new(2.0).expect("test horizon is valid"),
    )
    .expect("admitted partitions are feasible per core");
    let execs: Vec<_> = (0..CORES)
        .map(|c| workload.partition.core_demand(&workload.case.exec, c))
        .collect();
    for (cap_label, cap) in PLATFORM_CAPS {
        for name in STANDARD_LINEUP {
            let governors = |_| make_governor(name).expect("lineup names resolve");
            let outcome = match cap {
                None => sim.run_faulted_with_scratch(governors, &execs, &FaultPlan::NONE, scratch),
                Some(watts) => sim
                    .run_budgeted(governors, &execs, *watts, scratch)
                    .map(|(outcome, _)| outcome),
            }
            .unwrap_or_else(|e| panic!("{label}/{cap_label}/{name}: run failed: {e}"));
            for (core, core_outcome) in outcome.cores.iter().enumerate() {
                push_row(out, &format!("{label}/{cap_label}"), core, core_outcome);
            }
        }
    }
}

#[test]
fn engine_accounting_matches_committed_fixture() {
    let actual = render();
    // The matrix must emit every event kind, or a counter the fixture
    // is meant to pin could drift unobserved.
    let mut emitted = [0u64; EVENT_KINDS];
    for line in actual.lines().skip(1) {
        for (total, field) in emitted.iter_mut().zip(line.split(',').skip(3)) {
            *total += field.parse::<u64>().expect("counter column");
        }
    }
    for kind in EventKind::ALL {
        assert!(
            emitted[kind.index()] > 0,
            "the matrix never emits a {} event",
            kind.label()
        );
    }
    golden::check(FIXTURE, &actual);
}

// ---------------------------------------------------------------------
// Kernel ordering invariance
// ---------------------------------------------------------------------

/// Probe component: records `(global delivery index, time bits, source)`
/// for every event delivered to it.
#[derive(Default)]
struct Probe {
    seen: Vec<(u64, u64, usize)>,
}

impl EventHandler for Probe {
    fn handle(&mut self, event: SimEvent, ctx: &mut ComponentCtx<'_>) -> Result<(), SimError> {
        self.seen
            .push((ctx.delivered(), event.time.to_bits(), event.source.0));
        Ok(())
    }
}

/// Replays `events` into a fresh kernel in the given interleaving and
/// returns the global delivery sequence as `(time bits, source)` pairs.
fn delivery_sequence(components: usize, events: &[SimEvent]) -> Vec<(u64, usize)> {
    let mut kernel = Kernel::new();
    kernel.reset(components, None);
    for &event in events {
        kernel.schedule(event);
    }
    let mut probes: Vec<Probe> = (0..components).map(|_| Probe::default()).collect();
    {
        let mut handlers: Vec<&mut dyn EventHandler> = probes
            .iter_mut()
            .map(|p| p as &mut dyn EventHandler)
            .collect();
        kernel
            .run(&mut handlers)
            .expect("probe handlers never fail");
    }
    let mut merged: Vec<(u64, u64, usize)> = probes.into_iter().flat_map(|p| p.seen).collect();
    merged.sort_unstable();
    merged
        .into_iter()
        .map(|(_, time, source)| (time, source))
        .collect()
}

/// The reference model the queue's total order is defined against: stamp
/// each event with its per-source sequence number in registration order,
/// then sort by the `(time bits, seq, source)` key.
fn model_sequence(components: usize, events: &[SimEvent]) -> Vec<(u64, usize)> {
    let mut seqs = vec![0u64; components];
    let mut keyed: Vec<([u64; 3], SimEvent)> = events
        .iter()
        .map(|&event| {
            let seq = seqs[event.source.0];
            seqs[event.source.0] += 1;
            ([event.time.to_bits(), seq, event.source.0 as u64], event)
        })
        .collect();
    keyed.sort_unstable_by_key(|k| k.0);
    keyed
        .into_iter()
        .map(|(_, event)| (event.time.to_bits(), event.source.0))
        .collect()
}

// ---------------------------------------------------------------------
// SoA field sync
// ---------------------------------------------------------------------

#[test]
fn soa_job_parameters_match_the_task_structs() {
    // The per-core engine reads task parameters from its SoA hot table,
    // not from the `Task` structs. Every job record a run produces must
    // carry parameters bit-identical to what the struct-of-arrays source
    // of truth derives — any copy-in drift (wrong stride, stale column,
    // reordered tasks) shows up as a bit diff here. Periodic tasks and a
    // fault-free plan keep the nominal lattice exact.
    for seed in [11u64, 23, 47] {
        let case =
            WorkloadCase::synthetic(6, 0.75, DemandPattern::Uniform { min: 0.3, max: 1.0 }, seed);
        let sim = Simulator::new(
            case.tasks.clone(),
            Processor::ideal_continuous(),
            config(12.0),
        )
        .expect("test task sets are feasible");
        let mut governor = make_governor("st-edf").expect("lineup names resolve");
        let outcome = sim
            .run_with_scratch(governor.as_mut(), &case.exec, &mut SimScratch::new())
            .expect("run succeeds");
        assert!(!outcome.jobs.is_empty(), "seed {seed}: no jobs released");
        for record in &outcome.jobs {
            let task = case.tasks.task(record.id.task);
            let expected_release = task.release_of(record.id.index);
            let expected_deadline = task.deadline_of(record.id.index);
            assert_eq!(
                record.release.to_bits(),
                expected_release.to_bits(),
                "seed {seed}/{}: release drifted from the task struct",
                record.id
            );
            assert_eq!(
                record.deadline.to_bits(),
                expected_deadline.to_bits(),
                "seed {seed}/{}: deadline drifted from the task struct",
                record.id
            );
            assert_eq!(
                record.wcet.to_bits(),
                task.wcet().to_bits(),
                "seed {seed}/{}: wcet drifted from the task struct",
                record.id
            );
        }
    }
}

/// Property: the delivery order of a fixed per-component event set is
/// invariant to the interleaving in which components hand their events to
/// the kernel — including heavy time ties, which the coarse time grid
/// makes frequent.
#[test]
fn delivery_order_is_registration_order_invariant() {
    check(
        "delivery_order_is_registration_order_invariant",
        256,
        |rng| {
            let components = 2 + rng.below(3) as usize;
            // Each component's events target a fixed peer and carry
            // small-grid times, so cross-component ties are common.
            let mut per_source: Vec<Vec<SimEvent>> = (0..components)
                .map(|source| {
                    (0..1 + rng.below(7))
                        .map(|_| SimEvent {
                            time: rng.below(4) as f64 * 0.5,
                            kind: EventKind::Dispatch,
                            source: ComponentId(source),
                            target: ComponentId((source + 1) % components),
                        })
                        .collect()
                })
                .collect();
            let seed = rng.below(1024);

            // Canonical interleaving: source-major order.
            let canonical: Vec<SimEvent> = per_source.iter().flatten().copied().collect();
            let expected = delivery_sequence(components, &canonical);

            // Permuted interleaving: a seeded round-robin that preserves each
            // component's own emission order (the seq stamp is per-source, so
            // that order is part of the contract).
            let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            let mut permuted = Vec::with_capacity(canonical.len());
            while per_source.iter().any(|q| !q.is_empty()) {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let pick = (state >> 33) as usize % components;
                for offset in 0..components {
                    let source = (pick + offset) % components;
                    if !per_source[source].is_empty() {
                        permuted.push(per_source[source].remove(0));
                        break;
                    }
                }
            }
            let actual = delivery_sequence(components, &permuted);
            assert_eq!(expected, actual);
            Ok(())
        },
    );
}

/// Property: the kernel's delivery order is bit-identical to the
/// stamp-and-sort model (per-source seq stamping + sort on the `(time
/// bits, seq, source)` key) for arbitrary event sets: up to 4 × 49
/// pending events on a grid of 120 distinct times, so ties are common.
#[test]
fn delivery_matches_stamp_and_sort_model() {
    check("delivery_matches_stamp_and_sort_model", 256, |rng| {
        let components = 2 + rng.below(3) as usize;
        let mut schedule = Vec::new();
        for source in 0..components {
            for _ in 0..1 + rng.below(49) {
                schedule.push(SimEvent {
                    time: rng.below(120) as f64 * 0.125,
                    kind: EventKind::Dispatch,
                    source: ComponentId(source),
                    target: ComponentId((source + 1) % components),
                });
            }
        }
        let actual = delivery_sequence(components, &schedule);
        assert_eq!(model_sequence(components, &schedule), actual);
        Ok(())
    });
}
