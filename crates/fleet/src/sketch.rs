//! A deterministic fixed-bucket quantile sketch.
//!
//! Like the [`NeumaierSum`] that holds its f64 sum, it is **mergeable
//! with a pinned order**: the fleet engine folds nodes into shard-local
//! accumulators in node-index order, then merges shard accumulators in
//! shard-index order, so every f64 operation sequence — and therefore
//! every output bit — is independent of thread count.

use stadvs_analysis::NeumaierSum;

/// A deterministic fixed-bucket quantile sketch over a known range.
///
/// `B` equal-width buckets over `[lo, hi)` plus underflow/overflow
/// counters and exact min/max/sum. Memory is `O(B)` regardless of how
/// many values stream in, recording is one integer increment, and two
/// sketches merge by adding counts — all order-insensitive on the
/// integer side, with the f64 sum compensated and merge-order-pinned.
///
/// **Error bound:** a quantile estimate is the midpoint of the bucket
/// holding the target rank (clamped into `[min, max]`), so its absolute
/// error is at most half the bucket width `(hi − lo) / B`; ranks landing
/// in the underflow/overflow region return the exact observed min/max.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantileSketch {
    lo: f64,
    hi: f64,
    buckets: Vec<u64>,
    underflow: u64,
    overflow: u64,
    count: u64,
    min: f64,
    max: f64,
    sum: NeumaierSum,
}

impl QuantileSketch {
    /// An empty sketch with `buckets` equal-width bins over `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if the range is degenerate or `buckets` is zero (engine
    /// constants; a misconfiguration is a bug worth crashing on).
    pub fn new(lo: f64, hi: f64, buckets: usize) -> QuantileSketch {
        assert!(
            lo.is_finite() && hi.is_finite() && hi > lo,
            "degenerate sketch range [{lo}, {hi})"
        );
        assert!(buckets > 0, "a sketch needs at least one bucket");
        QuantileSketch {
            lo,
            hi,
            buckets: vec![0; buckets],
            underflow: 0,
            overflow: 0,
            count: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            sum: NeumaierSum::ZERO,
        }
    }

    /// Records one value.
    pub fn record(&mut self, v: f64) {
        if v < self.lo {
            self.underflow += 1;
        } else if v >= self.hi {
            self.overflow += 1;
        } else {
            let width = (self.hi - self.lo) / self.buckets.len() as f64;
            let idx = (((v - self.lo) / width) as usize).min(self.buckets.len() - 1);
            self.buckets[idx] += 1;
        }
        self.count += 1;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.sum.add(v);
    }

    /// Folds `other` into this sketch.
    ///
    /// # Panics
    ///
    /// Panics if the two sketches were configured over different ranges
    /// or bucket counts (they would not describe the same metric).
    pub fn merge(&mut self, other: &QuantileSketch) {
        assert_eq!(self.lo.to_bits(), other.lo.to_bits(), "sketch lo mismatch");
        assert_eq!(self.hi.to_bits(), other.hi.to_bits(), "sketch hi mismatch");
        assert_eq!(
            self.buckets.len(),
            other.buckets.len(),
            "bucket count mismatch"
        );
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.underflow += other.underflow;
        self.overflow += other.overflow;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.sum.merge(&other.sum);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of every recorded value (NaN when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.sum.value() / self.count as f64
        }
    }

    /// Smallest recorded value (`+∞` when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest recorded value (`-∞` when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// The bucket width — also twice the worst-case quantile error for
    /// ranks inside the bucketed range.
    pub fn bucket_width(&self) -> f64 {
        (self.hi - self.lo) / self.buckets.len() as f64
    }

    /// The `q`-quantile estimate (`q` clamped into `[0, 1]`; NaN when
    /// empty): the midpoint of the bucket containing rank `⌈q·count⌉`,
    /// clamped into `[min, max]`; underflow/overflow ranks return the
    /// exact min/max.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return f64::NAN;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = self.underflow;
        if rank <= cum {
            return self.min;
        }
        let width = self.bucket_width();
        for (i, b) in self.buckets.iter().enumerate() {
            cum += b;
            if rank <= cum {
                let mid = self.lo + (i as f64 + 0.5) * width;
                return mid.clamp(self.min, self.max);
            }
        }
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_within_bucket_width() {
        let mut s = QuantileSketch::new(0.0, 1.0, 64);
        for i in 0..1000 {
            s.record(i as f64 / 1000.0);
        }
        let width = s.bucket_width();
        for (q, truth) in [(0.1, 0.1), (0.5, 0.5), (0.9, 0.9)] {
            let est = s.quantile(q);
            assert!(
                (est - truth).abs() <= width,
                "q{q}: {est} vs {truth} (width {width})"
            );
        }
        // Extreme ranks land in the edge buckets: within a width of the
        // exact extremes (they are only *exactly* min/max when the rank
        // falls in the underflow/overflow region, as the test below pins).
        assert!((s.quantile(0.0) - s.min()).abs() <= width);
        assert!((s.max() - s.quantile(1.0)).abs() <= width);
    }

    #[test]
    fn out_of_range_values_hit_exact_extremes() {
        let mut s = QuantileSketch::new(0.0, 1.0, 8);
        s.record(-5.0);
        s.record(0.5);
        s.record(9.0);
        assert_eq!(s.count(), 3);
        assert_eq!(s.quantile(0.0), -5.0);
        assert_eq!(s.quantile(1.0), 9.0);
        assert_eq!(s.min(), -5.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn merge_equals_sequential_recording() {
        let values: Vec<f64> = (0..500).map(|i| (i % 97) as f64 / 64.0).collect();
        let mut whole = QuantileSketch::new(0.0, 1.5, 96);
        for &v in &values {
            whole.record(v);
        }
        let mut left = QuantileSketch::new(0.0, 1.5, 96);
        let mut right = QuantileSketch::new(0.0, 1.5, 96);
        for &v in &values[..200] {
            left.record(v);
        }
        for &v in &values[200..] {
            right.record(v);
        }
        left.merge(&right);
        assert_eq!(whole.count(), left.count());
        assert_eq!(whole.quantile(0.5).to_bits(), left.quantile(0.5).to_bits());
        assert_eq!(whole.buckets, left.buckets);
    }

    #[test]
    fn empty_sketch_is_nan() {
        let s = QuantileSketch::new(0.0, 1.0, 4);
        assert!(s.quantile(0.5).is_nan());
        assert!(s.mean().is_nan());
    }
}
