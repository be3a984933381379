//! Order-stable floating-point accumulation.
//!
//! f64 addition is not associative, so the value of a sum depends on the
//! order its terms arrive in. Inside the determinism-bound crates that
//! order is pinned by construction (Vec/BTreeMap iteration), but any code
//! that aggregates results from an *unordered* source — a hash map, a
//! work-stealing thread pool, a future rayon fleet — must first impose an
//! order, or the golden traces stop being bit-identical across runs. The
//! workspace `clippy.toml` bans hash containers outright; this module
//! serves the unordered sources no lint can ban.
//!
//! [`stable_sum`] makes the result independent of input order by sorting
//! under IEEE total order before accumulating; [`compensated_sum`] keeps
//! a given order but tracks the rounding error (Neumaier's variant of
//! Kahan summation), for long aggregations where naive accumulation
//! drifts.

/// Sums `values` independently of their input order.
///
/// The terms are sorted under [`f64::total_cmp`] and then accumulated
/// with error compensation, so any permutation of the same multiset of
/// values yields the same bits. Use this when aggregating from an
/// unordered source (hash map values, parallel workers).
///
/// An empty slice sums to `0.0`.
pub fn stable_sum(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    compensated_sum(&sorted)
}

/// Sums `values` in the given order with Neumaier error compensation.
///
/// The compensation term recovers the low-order bits lost when a small
/// term meets a large running sum, which keeps long aggregations (per-job
/// energies over millions of events) from drifting. The result still
/// depends on input order — pair with a sort, or use [`stable_sum`], when
/// the source is unordered.
pub fn compensated_sum(values: &[f64]) -> f64 {
    let mut sum = 0.0f64;
    let mut compensation = 0.0f64;
    for &v in values {
        let t = sum + v;
        if sum.abs() >= v.abs() {
            compensation += (sum - t) + v;
        } else {
            compensation += (v - t) + sum;
        }
        sum = t;
    }
    // Once the running sum leaves the finite range the compensation term
    // is `inf - inf` = NaN; the uncompensated sum (±inf or NaN) is the
    // right answer there.
    if sum.is_finite() {
        sum + compensation
    } else {
        sum
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stable_sum_is_permutation_invariant() {
        let forward = [1e16, 1.0, -1e16, 0.25, 3.5, -0.125];
        let mut shuffled = forward;
        shuffled.reverse();
        shuffled.swap(1, 3);
        assert_eq!(
            stable_sum(&forward).to_bits(),
            stable_sum(&shuffled).to_bits()
        );
    }

    #[test]
    fn compensated_sum_recovers_cancelled_bits() {
        // Naive left-to-right accumulation loses the 1.0 entirely.
        let values = [1e16, 1.0, -1e16];
        let naive: f64 = values.iter().sum();
        assert_eq!(naive, 0.0);
        assert_eq!(compensated_sum(&values), 1.0);
    }

    #[test]
    fn empty_and_singleton() {
        assert_eq!(stable_sum(&[]), 0.0);
        assert_eq!(stable_sum(&[2.5]), 2.5);
        assert_eq!(compensated_sum(&[]), 0.0);
    }

    #[test]
    fn matches_naive_sum_on_benign_data() {
        let values = [0.5, 0.25, 0.125, 4.0];
        assert_eq!(stable_sum(&values), 4.875);
        assert_eq!(compensated_sum(&values), 4.875);
    }

    #[test]
    fn handles_special_values() {
        assert!(stable_sum(&[f64::NAN, 1.0]).is_nan());
        assert_eq!(stable_sum(&[f64::INFINITY, 1.0]), f64::INFINITY);
    }
}
