//! The generic avionics platform on a StrongARM-class processor with real
//! voltage-switch overhead (140 µs per transition) — the setting where
//! overhead-oblivious DVS becomes dangerous and the overhead-aware
//! slack-analysis variant proves its worth.
//!
//! ```sh
//! cargo run --release --example flight_control
//! ```

use stadvs::analysis::{edf_schedulable, SchedulabilityTest};
use stadvs::power::Processor;
use stadvs::sim::{audit_outcome, FaultPlan, SimConfig, Simulator};
use stadvs::workload::{reference, ExecutionModel};
use stadvs_experiments::make_governor;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let tasks = reference::avionics();
    println!(
        "avionics platform: {} tasks, U = {:.3}, {}",
        tasks.len(),
        tasks.utilization(),
        match edf_schedulable(&tasks) {
            SchedulabilityTest::Schedulable => "EDF-schedulable",
            SchedulabilityTest::Unschedulable { .. } => "NOT schedulable",
        },
    );

    // Sensor-driven workloads: demands vary between 40 % and 100 % of WCET.
    let demand = ExecutionModel::uniform_bcet(0.4)?.with_seed(1553);

    for processor in [Processor::strongarm_class(), Processor::xscale_class()] {
        println!(
            "\n=== {} (switch latency {:.0} µs) ===",
            processor.name(),
            processor.overhead().latency() * 1e6
        );
        let sim = Simulator::new(
            tasks.clone(),
            processor.clone(),
            SimConfig::new(20.0)?.with_trace(true),
        )?;

        println!(
            "{:<12} {:>11} {:>11} {:>9} {:>8} {:>8}",
            "governor", "energy (J)", "normalized", "switches", "misses", "audit"
        );
        let mut base = None;
        for name in ["no-dvs", "static-edf", "dra", "st-edf", "st-edf-oa"] {
            let mut governor = make_governor(name).expect("resolves");
            let out = sim.run(governor.as_mut(), &demand)?;
            let report = audit_outcome(&out, &tasks, &FaultPlan::NONE);
            let energy = out.total_energy();
            let b = *base.get_or_insert(energy);
            println!(
                "{:<12} {:>11.3} {:>11.3} {:>9} {:>8} {:>8}",
                name,
                energy,
                energy / b,
                out.switches,
                out.miss_count(),
                if report.is_clean() { "clean" } else { "FAIL" }
            );
        }

        // The overhead-aware variant must be spotless on both platforms.
        let mut oa = make_governor("st-edf-oa").expect("resolves");
        let out = sim.run(oa.as_mut(), &demand)?;
        assert!(out.all_deadlines_met(), "st-edf-oa must never miss");
        println!(
            "st-edf-oa: {:.1} % saving, zero misses. (Overhead-oblivious \
             governors silently miss deadlines here — the audit column is \
             the point of this example. At U = 0.9 with 140 µs switches the \
             guaranteed-safe headroom is thin; the aware variant honestly \
             falls back toward full speed rather than gamble.)",
            (1.0 - out.total_energy() / base.expect("baseline ran")) * 100.0,
        );
    }
    Ok(())
}
