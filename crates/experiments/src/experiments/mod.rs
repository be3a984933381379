//! One module per reproduced figure/table, plus the experiment registry.

pub mod budget;
pub mod faults;
pub mod fig1_util;
pub mod fig2_bcet;
pub mod fig3_ntasks;
pub mod fig4_levels;
pub mod fig5_overhead;
pub mod fig6_patterns;
pub mod fig7_leakage;
pub mod fig8_cores;
pub mod models;
pub mod tab1_refsets;
pub mod tab2_bound;
pub mod tab3_misses;
pub mod tab4_switches;
pub mod tab5_ablation;
pub mod tab6_pace;
pub mod tab7_constrained;

use crate::table::Table;

/// Shared experiment knobs (replication count and simulated horizon).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunOptions {
    /// Random task sets per sweep point.
    pub replications: usize,
    /// Simulated horizon per run, in seconds (individual experiments may
    /// shorten it, e.g. the YDS-bound table).
    pub horizon: f64,
    /// Horizon for fixed reference task sets, in multiples of the set's
    /// slowest period (their absolute time scales differ by 100×).
    pub ref_periods: f64,
}

impl RunOptions {
    /// The full-scale settings used to produce EXPERIMENTS.md.
    pub fn standard() -> RunOptions {
        RunOptions {
            replications: 20,
            horizon: 8.0,
            ref_periods: 25.0,
        }
    }

    /// Reduced settings for tests and smoke runs.
    pub fn quick() -> RunOptions {
        RunOptions {
            replications: 3,
            horizon: 2.0,
            ref_periods: 5.0,
        }
    }
}

impl Default for RunOptions {
    fn default() -> RunOptions {
        RunOptions::standard()
    }
}

/// A registered experiment: stable id, human title, and its runner.
pub struct Experiment {
    /// Stable id (matches the bench binary name).
    pub id: &'static str,
    /// Human-readable description.
    pub title: &'static str,
    /// Regenerates the experiment's table.
    pub run: fn(&RunOptions) -> Table,
}

/// Every reproduced figure and table, in report order.
pub fn all() -> Vec<Experiment> {
    vec![
        Experiment {
            id: "fig1_util",
            title: "Normalized energy vs worst-case utilization",
            run: fig1_util::run,
        },
        Experiment {
            id: "fig2_bcet",
            title: "Normalized energy vs BCET/WCET ratio",
            run: fig2_bcet::run,
        },
        Experiment {
            id: "fig3_ntasks",
            title: "Normalized energy vs task-set size",
            run: fig3_ntasks::run,
        },
        Experiment {
            id: "fig4_levels",
            title: "Normalized energy vs discrete frequency levels",
            run: fig4_levels::run,
        },
        Experiment {
            id: "fig5_overhead",
            title: "Normalized energy vs speed-switch overhead",
            run: fig5_overhead::run,
        },
        Experiment {
            id: "fig6_patterns",
            title: "Robustness across execution-demand patterns",
            run: fig6_patterns::run,
        },
        Experiment {
            id: "fig7_leakage",
            title: "Static (leakage) power and the critical-speed floor",
            run: fig7_leakage::run,
        },
        Experiment {
            id: "fig8_cores",
            title: "Normalized energy vs core count (partitioned EDF-DVS)",
            run: fig8_cores::run,
        },
        Experiment {
            id: "tab1_refsets",
            title: "Reference embedded task sets (CNC, INS, avionics)",
            run: tab1_refsets::run,
        },
        Experiment {
            id: "tab2_bound",
            title: "Gap to the YDS clairvoyant lower bound",
            run: tab2_bound::run,
        },
        Experiment {
            id: "tab3_misses",
            title: "Hard-real-time audit (deadline misses and trace issues)",
            run: tab3_misses::run,
        },
        Experiment {
            id: "tab4_switches",
            title: "Speed switches per job",
            run: tab4_switches::run,
        },
        Experiment {
            id: "tab5_ablation",
            title: "stEDF slack-source ablation",
            run: tab5_ablation::run,
        },
        Experiment {
            id: "tab6_pace",
            title: "Intra-job acceleration (PACE extension)",
            run: tab6_pace::run,
        },
        Experiment {
            id: "tab7_constrained",
            title: "Constrained deadlines (D < T)",
            run: tab7_constrained::run,
        },
        Experiment {
            id: "faults",
            title: "Graceful degradation under injected faults",
            run: faults::run,
        },
        Experiment {
            id: "models",
            title: "Task models beyond hard-periodic (weakly-hard, sporadic, frame)",
            run: models::run,
        },
        Experiment {
            id: "budget",
            title: "Shared platform power cap (shared budget ledger)",
            run: budget::run,
        },
    ]
}

/// Finds an experiment by id.
pub fn by_id(id: &str) -> Option<Experiment> {
    all().into_iter().find(|e| e.id == id)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_ids_are_unique_and_resolvable() {
        let experiments = all();
        let mut ids: Vec<&str> = experiments.iter().map(|e| e.id).collect();
        let before = ids.len();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), before);
        assert!(by_id("fig1_util").is_some());
        assert!(by_id("nope").is_none());
        assert!(by_id("faults").is_some());
        assert!(by_id("models").is_some());
        assert!(by_id("budget").is_some());
        assert_eq!(experiments.len(), 18);
    }

    #[test]
    fn options_presets() {
        assert_eq!(RunOptions::default(), RunOptions::standard());
        assert!(RunOptions::quick().replications < RunOptions::standard().replications);
    }
}
