//! Order-pinned floating-point accumulation.
//!
//! f64 addition is not associative, so the value of a sum depends on the
//! order its terms arrive in. Inside the determinism-bound crates that
//! order is pinned by construction (Vec/BTreeMap iteration), and code that
//! aggregates results from many workers must pin it too: the fleet engine
//! folds nodes into shard-local sums and merges the shards in shard-index
//! order. The workspace `clippy.toml` bans hash containers outright.
//!
//! [`NeumaierSum`] keeps the given order but tracks the rounding error
//! (Neumaier's variant of Kahan summation), for long aggregations where
//! naive accumulation drifts; its state is explicit, so shard-local sums
//! merge. [`compensated_sum`] is its fold over a slice.

/// A running Neumaier-compensated sum, with the `(sum, compensation)`
/// state held explicitly so it can be merged.
///
/// The compensation term recovers the low-order bits lost when a small
/// term meets a large running sum, which keeps long aggregations (per-job
/// energies over millions of events) from drifting. The result still
/// depends on the order of the terms. Merging appends the other state's
/// two components to this accumulation — deterministic as long as merges
/// happen in a pinned order, which the fleet's shard merge guarantees.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct NeumaierSum {
    /// The running sum.
    pub sum: f64,
    /// The running error-compensation term.
    pub compensation: f64,
}

impl NeumaierSum {
    /// The empty sum.
    pub const ZERO: NeumaierSum = NeumaierSum {
        sum: 0.0,
        compensation: 0.0,
    };

    /// Adds one term.
    pub fn add(&mut self, v: f64) {
        let t = self.sum + v;
        if self.sum.abs() >= v.abs() {
            self.compensation += (self.sum - t) + v;
        } else {
            self.compensation += (v - t) + self.sum;
        }
        self.sum = t;
    }

    /// Folds another accumulator into this one (adds its sum, then its
    /// compensation — a fixed two-term order, so merging is deterministic
    /// whenever the merge sequence is).
    pub fn merge(&mut self, other: &NeumaierSum) {
        self.add(other.sum);
        self.add(other.compensation);
    }

    /// The compensated value. Once the running sum leaves the finite range
    /// the compensation term is `inf - inf` = NaN; the uncompensated sum
    /// (±inf or NaN) is the right answer there.
    pub fn value(&self) -> f64 {
        if self.sum.is_finite() {
            self.sum + self.compensation
        } else {
            self.sum
        }
    }
}

/// Sums `values` in the given order with Neumaier error compensation (a
/// [`NeumaierSum`] over the slice). An empty slice sums to `0.0`.
pub fn compensated_sum(values: &[f64]) -> f64 {
    values
        .iter()
        .fold(NeumaierSum::ZERO, |mut acc, &v| {
            acc.add(v);
            acc
        })
        .value()
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(compensated_sum(&[]), 0.0);
        assert_eq!(compensated_sum(&[2.5]), 2.5);
    }

    #[test]
    fn matches_naive_sum_on_benign_data() {
        let values = [0.5, 0.25, 0.125, 4.0];
        assert_eq!(compensated_sum(&values), 4.875);
    }

    #[test]
    fn handles_special_values() {
        assert!(compensated_sum(&[f64::NAN, 1.0]).is_nan());
        assert_eq!(compensated_sum(&[f64::INFINITY, 1.0]), f64::INFINITY);
    }

    #[test]
    fn neumaier_split_merge_is_deterministic() {
        let values: Vec<f64> = (0..100).map(|i| (i as f64) * 0.3 - 7.0).collect();
        // One fixed split point, merged twice: bits must agree run to run.
        let build = || {
            let (mut a, mut b) = (NeumaierSum::ZERO, NeumaierSum::ZERO);
            for &v in &values[..37] {
                a.add(v);
            }
            for &v in &values[37..] {
                b.add(v);
            }
            a.merge(&b);
            a
        };
        assert_eq!(build().value().to_bits(), build().value().to_bits());
    }
}
