//! API-contract checks: public data types implement the common traits the
//! Rust API guidelines require (Debug/Clone/Send/Sync, std::error::Error
//! for error types).

fn is_data_structure<T: Clone + std::fmt::Debug>() {}
fn is_send_sync<T: Send + Sync>() {}
fn is_error<T: std::error::Error + Send + Sync + 'static>() {}

#[test]
fn data_structures_are_clone_and_debug() {
    is_data_structure::<stadvs::power::Speed>();
    is_data_structure::<stadvs::power::Processor>();
    is_data_structure::<stadvs::power::EnergyBreakdown>();
    is_data_structure::<stadvs::sim::Task>();
    is_data_structure::<stadvs::sim::TaskSet>();
    is_data_structure::<stadvs::sim::JobRecord>();
    is_data_structure::<stadvs::sim::SimOutcome>();
    is_data_structure::<stadvs::sim::SimConfig>();
    is_data_structure::<stadvs::workload::TaskSetSpec>();
    is_data_structure::<stadvs::workload::ExecutionModel>();
    is_data_structure::<stadvs::analysis::JobInstance>();
    is_data_structure::<stadvs::analysis::SpeedSchedule>();
    is_data_structure::<stadvs::sim::AuditReport>();
    is_data_structure::<stadvs::core::SlackEdfConfig>();
    is_data_structure::<stadvs::experiments::Table>();
}

#[test]
fn core_types_are_send_sync() {
    is_send_sync::<stadvs::power::Processor>();
    is_send_sync::<stadvs::sim::Simulator>();
    is_send_sync::<stadvs::sim::SimOutcome>();
    is_send_sync::<stadvs::core::SlackEdf>();
    is_send_sync::<stadvs::baselines::Dra>();
    is_send_sync::<stadvs::workload::ExecutionModel>();
}

#[test]
fn error_types_are_well_behaved() {
    is_error::<stadvs::power::PowerError>();
    is_error::<stadvs::sim::SimError>();
    is_error::<stadvs::workload::WorkloadError>();
}

#[test]
fn governors_are_object_safe_and_boxable() {
    use stadvs::sim::Governor;
    let suite: Vec<Box<dyn Governor>> = stadvs::baselines::baseline_suite();
    assert!(suite.len() >= 7);
    let named: Vec<&str> = suite.iter().map(|g| g.name()).collect();
    assert!(named.contains(&"st-edf") || named.contains(&"no-dvs"));
}

#[test]
fn speed_round_trips_through_f64() {
    let s = stadvs::power::Speed::new(0.625).expect("valid");
    let raw: f64 = s.into();
    let back = stadvs::power::Speed::try_from(raw).expect("round-trips");
    assert_eq!(s, back);
    assert!(stadvs::power::Speed::try_from(1.5).is_err());
}
