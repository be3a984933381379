//! Splittable counter-based per-workload seed derivation.
//!
//! A fleet workload's seed must be a pure function of `(master_seed,
//! workload_index)`: workers claim shards in nondeterministic order, and a
//! single node must be reproducible in isolation for debugging. Sequential RNG streams cannot do any of
//! that, so seeds come from the SplitMix64 output function applied to a
//! golden-ratio-spaced counter — exactly the construction SplitMix64
//! itself uses per step, evaluated at an arbitrary step index instead of
//! sequentially.

use stadvs_sim::rng::splitmix64;

/// The golden-ratio increment of SplitMix64 (`2^64 / φ`, odd).
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// The seed of fleet workload `workload_index` under `master_seed`; every
/// node of that workload (one per governor, see `FleetSpec::node`) runs
/// on it.
///
/// Equals the `workload_index`-th output (from 0) of
/// `stadvs_sim::rng::Rng::seed_from_u64(master_seed)`, computed directly
/// (counter-based, no sequential state): `splitmix64(master_seed +
/// workload_index · GOLDEN)`. Within one master seed the map is injective
/// in the index, so no two workloads of a fleet share a seed.
pub fn node_seed(master_seed: u64, workload_index: u64) -> u64 {
    splitmix64(master_seed.wrapping_add(workload_index.wrapping_mul(GOLDEN)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn deterministic() {
        assert_eq!(node_seed(42, 0), node_seed(42, 0));
        assert_eq!(node_seed(42, 123_456), node_seed(42, 123_456));
    }

    #[test]
    fn seeds_are_pinned_and_equal_the_stream() {
        assert_eq!(node_seed(42, 0), 0xbdd7_3226_2feb_6e95);
        assert_eq!(node_seed(42, 1), 0x28ef_e333_b266_f103);
        assert_eq!(node_seed(7, 123_456), 0x2d95_c5a1_a8a7_05ab);
        let mut rng = stadvs_sim::rng::Rng::seed_from_u64(42);
        for i in 0..64 {
            assert_eq!(node_seed(42, i), rng.next_u64());
        }
    }

    #[test]
    fn injective_in_the_index() {
        let seeds: BTreeSet<u64> = (0..100_000).map(|i| node_seed(7, i)).collect();
        assert_eq!(seeds.len(), 100_000);
    }

    #[test]
    fn master_seeds_decorrelate() {
        let a: Vec<u64> = (0..64).map(|i| node_seed(1, i)).collect();
        let b: Vec<u64> = (0..64).map(|i| node_seed(2, i)).collect();
        assert!(a.iter().zip(&b).all(|(x, y)| x != y));
    }

    #[test]
    fn mix_avalanches_low_bits() {
        // Consecutive indices must not produce correlated low bits (the
        // task-set generator multiplies the seed before seeding its
        // stream).
        let low: BTreeSet<u64> = (0..256).map(|i| node_seed(0, i) & 0xFFFF).collect();
        assert!(
            low.len() > 200,
            "low 16 bits collide too often: {}",
            low.len()
        );
    }
}
