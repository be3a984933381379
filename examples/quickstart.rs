//! Quickstart: schedule a small periodic task set under the slack-time-
//! analysis governor and compare its energy with running flat out.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use stadvs::analysis::edf_schedulable;
use stadvs::baselines::{NoDvs, StaticEdf};
use stadvs::core::SlackEdf;
use stadvs::power::Processor;
use stadvs::sim::{audit_outcome, FaultPlan, MissPolicy, SimConfig, Simulator, Task, TaskSet};
use stadvs::workload::ExecutionModel;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Three periodic hard real-time tasks: a 1 ms job every 10 ms, a 5 ms
    // job every 40 ms, and a 12 ms job every 100 ms (U ≈ 0.345).
    let tasks = TaskSet::new(vec![
        Task::new(1.0e-3, 10.0e-3)?.named("sensor"),
        Task::new(5.0e-3, 40.0e-3)?.named("control"),
        Task::new(12.0e-3, 100.0e-3)?.named("telemetry"),
    ])?;
    println!(
        "task set: {} tasks, worst-case utilization {:.3}, EDF schedulable: {:?}",
        tasks.len(),
        tasks.utilization(),
        edf_schedulable(&tasks)
    );

    // Jobs actually consume 30–100 % of their worst case, uniformly.
    let demand = ExecutionModel::uniform_bcet(0.3)?.with_seed(1);

    // Simulate 10 seconds on an ideal continuously-scalable processor.
    let processor = Processor::ideal_continuous();
    let sim = Simulator::new(
        tasks.clone(),
        processor.clone(),
        SimConfig::new(10.0)?
            .with_miss_policy(MissPolicy::Fail) // crash on any miss
            .with_trace(true),
    )?;

    let full = sim.run(&mut NoDvs::new(), &demand)?;
    let static_edf = sim.run(&mut StaticEdf::new(), &demand)?;
    let stedf = sim.run(&mut SlackEdf::new(), &demand)?;

    println!(
        "\n{:<12} {:>12} {:>12} {:>10}",
        "governor", "energy (J)", "normalized", "switches"
    );
    for out in [&full, &static_edf, &stedf] {
        println!(
            "{:<12} {:>12.4} {:>12.3} {:>10}",
            out.governor,
            out.total_energy(),
            out.total_energy() / full.total_energy(),
            out.switches
        );
    }

    // Independent audit: deadlines, release pattern, work conservation,
    // speed availability, energy.
    let report = audit_outcome(&stedf, &tasks, &FaultPlan::NONE);
    println!(
        "\naudit: {report} — saved {:.1} % of the no-DVS energy with zero deadline misses",
        (1.0 - stedf.total_energy() / full.total_energy()) * 100.0
    );

    // A peek at the first 100 ms of the stEDF schedule (█ executing,
    // . idle; the speed row maps speeds to digits, 9 ≈ 90-100 %).
    let zoom_sim = stadvs::sim::Simulator::new(
        tasks.clone(),
        processor,
        stadvs::sim::SimConfig::new(0.1)?.with_trace(true),
    )?;
    let zoomed = zoom_sim.run(&mut SlackEdf::new(), &demand)?;
    println!(
        "\nfirst 100 ms under st-edf:\n{}",
        stadvs::sim::render_gantt(zoomed.trace.as_ref().expect("trace on"), &tasks, 72)
    );
    Ok(())
}
