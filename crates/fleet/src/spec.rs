//! The deterministic fleet specification: a parameter grid plus a master
//! seed, from which every node's full configuration — including its
//! workload seed — is a pure function of the node index.

use crate::seed::node_seed;
use crate::FleetError;
use stadvs_experiments::governor_entry;
use stadvs_workload::{DemandPattern, ExecutionModel};

/// One period-spread axis point: task periods are drawn log-uniformly
/// from `[min, max]` seconds.
#[derive(Debug, Clone, PartialEq)]
pub struct PeriodSpread {
    /// Short label used in table row keys.
    pub label: String,
    /// Shortest period, in seconds.
    pub min: f64,
    /// Longest period, in seconds.
    pub max: f64,
}

impl PeriodSpread {
    /// A labelled spread.
    pub fn new(label: &str, min: f64, max: f64) -> PeriodSpread {
        PeriodSpread {
            label: label.to_string(),
            min,
            max,
        }
    }
}

/// The full, self-contained description of a fleet sweep.
///
/// The grid is `utilizations × spreads × governors` cells, each
/// replicated `replications` times with distinct workload seeds — node
/// `i` belongs to cell `i / replications`, with the governor axis
/// varying fastest (see [`FleetSpec::node`]). The *entire* fleet is
/// determined by this struct: two processes holding equal specs produce
/// bit-identical aggregates.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetSpec {
    /// Master seed; every node seed derives from it via
    /// [`node_seed`](crate::node_seed).
    pub master_seed: u64,
    /// Tasks per node task set.
    pub n_tasks: usize,
    /// Simulated horizon per node, in seconds.
    pub horizon: f64,
    /// Utilization axis (each in `(0, 1]`).
    pub utilizations: Vec<f64>,
    /// Period-spread axis.
    pub spreads: Vec<PeriodSpread>,
    /// Governor axis (names resolved by
    /// `stadvs_experiments::make_governor`).
    pub governors: Vec<String>,
    /// Task sets per cell.
    pub replications: u64,
    /// Per-job demand pattern shared by every node.
    pub pattern: DemandPattern,
}

/// Everything one node needs, as plain `Copy` data (no strings, no
/// heap): the engine's per-node loop builds these without allocating.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeParams {
    /// Node index in `0..spec.nodes()`.
    pub index: u64,
    /// The node's workload seed.
    pub seed: u64,
    /// Flat cell index in `0..spec.cell_count()`.
    pub cell: usize,
    /// Utilization value (resolved from the axis).
    pub utilization: f64,
    /// Index into `spec.spreads`.
    pub spread: usize,
    /// Index into `spec.governors`.
    pub governor: usize,
}

/// The default axes: utilization × period spread over the standard
/// four-governor ladder (static → cycle-conserving → aggressive → the
/// paper's slack-time analysis).
fn preset(master_seed: u64, replications: u64) -> FleetSpec {
    FleetSpec {
        master_seed,
        n_tasks: 5,
        horizon: 0.5,
        utilizations: vec![0.55, 0.70, 0.85],
        spreads: vec![
            PeriodSpread::new("narrow", 0.05, 0.2),
            PeriodSpread::new("wide", 0.01, 1.0),
        ],
        governors: vec![
            "static-edf".to_string(),
            "cc-edf".to_string(),
            "dra".to_string(),
            "st-edf".to_string(),
        ],
        replications,
        pattern: DemandPattern::Uniform { min: 0.4, max: 1.0 },
    }
}

impl FleetSpec {
    /// The standard fleet: 24 cells × 4167 replications ≈ 10⁵ nodes.
    pub fn standard(master_seed: u64) -> FleetSpec {
        preset(master_seed, 4167)
    }

    /// The quick fleet: 24 cells × 417 replications ≈ 10⁴ nodes.
    pub fn quick(master_seed: u64) -> FleetSpec {
        preset(master_seed, 417)
    }

    /// A test-scale fleet: 24 cells × 20 replications = 480 nodes.
    pub fn tiny(master_seed: u64) -> FleetSpec {
        preset(master_seed, 20)
    }

    /// Rescales the replication count so the fleet has about `nodes`
    /// nodes (at least one replication per cell).
    pub fn with_nodes(mut self, nodes: u64) -> FleetSpec {
        let cells = self.cell_count() as u64;
        self.replications = (nodes / cells.max(1)).max(1);
        self
    }

    /// Number of grid cells.
    pub fn cell_count(&self) -> usize {
        self.utilizations.len() * self.spreads.len() * self.governors.len()
    }

    /// Total nodes in the fleet.
    pub fn nodes(&self) -> u64 {
        self.cell_count() as u64 * self.replications
    }

    /// Decomposes a flat cell index into `(utilization, spread,
    /// governor)` axis indices — the governor axis varies fastest.
    pub fn cell_axes(&self, cell: usize) -> (usize, usize, usize) {
        let g = self.governors.len();
        let s = self.spreads.len();
        (cell / (g * s), (cell / g) % s, cell % g)
    }

    /// The parameters of node `index` — a pure function of the spec.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.nodes()`.
    pub fn node(&self, index: u64) -> NodeParams {
        assert!(index < self.nodes(), "node {index} out of range");
        let cell = (index / self.replications) as usize;
        let (u, s, g) = self.cell_axes(cell);
        NodeParams {
            index,
            seed: node_seed(self.master_seed, index),
            cell,
            utilization: self.utilizations[u],
            spread: s,
            governor: g,
        }
    }

    /// The row key of a cell in the family table, e.g. `0.7/narrow`.
    pub fn cell_key(&self, cell: usize) -> String {
        let (u, s, _) = self.cell_axes(cell);
        format!("{}/{}", self.utilizations[u], self.spreads[s].label)
    }

    /// Checks every axis and parameter.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::Spec`] naming the first problem found.
    pub fn validate(&self) -> Result<(), FleetError> {
        let fail = |msg: String| Err(FleetError::Spec(msg));
        if self.n_tasks == 0 {
            return fail("n_tasks must be positive".to_string());
        }
        if !(self.horizon.is_finite() && self.horizon > 0.0) {
            return fail(format!(
                "horizon {} must be finite and positive",
                self.horizon
            ));
        }
        if self.replications == 0 {
            return fail("replications must be positive".to_string());
        }
        if self.utilizations.is_empty() || self.spreads.is_empty() || self.governors.is_empty() {
            return fail("every axis needs at least one point".to_string());
        }
        for &u in &self.utilizations {
            if !(u.is_finite() && u > 0.0 && u <= 1.0) {
                return fail(format!("utilization {u} outside (0, 1]"));
            }
        }
        for s in &self.spreads {
            if !(s.min.is_finite() && s.max.is_finite() && s.min > 0.0 && s.max >= s.min) {
                return fail(format!(
                    "spread {} range [{}, {}] is invalid",
                    s.label, s.min, s.max
                ));
            }
            if s.label.is_empty() || s.label.contains(['/', ',', '\n']) {
                return fail(format!("spread label {:?} is not key-safe", s.label));
            }
        }
        for g in &self.governors {
            if governor_entry(g).is_none() {
                return fail(format!("unknown governor {g}"));
            }
        }
        if let Err(e) = ExecutionModel::new(self.pattern.clone()) {
            return fail(format!("invalid demand pattern: {e}"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate_and_size_as_documented() {
        for (spec, nodes) in [
            (FleetSpec::standard(1), 100_008),
            (FleetSpec::quick(1), 10_008),
            (FleetSpec::tiny(1), 480),
        ] {
            spec.validate().expect("preset is valid");
            assert_eq!(spec.cell_count(), 24);
            assert_eq!(spec.nodes(), nodes);
        }
    }

    #[test]
    fn with_nodes_rescales() {
        let spec = FleetSpec::tiny(1).with_nodes(4800);
        assert_eq!(spec.replications, 200);
        assert_eq!(spec.nodes(), 4800);
        assert!(FleetSpec::tiny(1).with_nodes(1).replications >= 1);
    }

    #[test]
    fn node_decomposition_covers_the_grid() {
        let spec = FleetSpec::tiny(9);
        let mut per_cell = vec![0u64; spec.cell_count()];
        for i in 0..spec.nodes() {
            let n = spec.node(i);
            assert_eq!(n.index, i);
            per_cell[n.cell] += 1;
            let (u, s, g) = spec.cell_axes(n.cell);
            assert_eq!(spec.utilizations[u].to_bits(), n.utilization.to_bits());
            assert_eq!(s, n.spread);
            assert_eq!(g, n.governor);
        }
        assert!(per_cell.iter().all(|&c| c == spec.replications));
    }

    #[test]
    fn governor_axis_varies_fastest() {
        let spec = FleetSpec::tiny(9);
        let a = spec.node(0);
        let b = spec.node(spec.replications);
        assert_eq!(a.cell, 0);
        assert_eq!(b.cell, 1);
        assert_eq!((a.governor, b.governor), (0, 1));
        assert_eq!((a.spread, b.spread), (0, 0));
    }

    #[test]
    fn validation_rejects_bad_specs() {
        let mut s = FleetSpec::tiny(1);
        s.governors.push("bogus".to_string());
        assert!(s.validate().is_err());
        let mut s = FleetSpec::tiny(1);
        s.utilizations = vec![1.5];
        assert!(s.validate().is_err());
        let mut s = FleetSpec::tiny(1);
        s.spreads[0].min = -1.0;
        assert!(s.validate().is_err());
        let mut s = FleetSpec::tiny(1);
        s.replications = 0;
        assert!(s.validate().is_err());
        let mut s = FleetSpec::tiny(1);
        s.spreads[0].label = "a/b".to_string();
        assert!(s.validate().is_err());
    }

    #[test]
    fn cell_keys_pair_utilization_with_spread() {
        let spec = FleetSpec::tiny(1);
        assert_eq!(spec.cell_key(0), "0.55/narrow");
        let last = spec.cell_count() - 1;
        assert_eq!(spec.cell_key(last), "0.85/wide");
    }
}
