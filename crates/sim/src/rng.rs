//! The workspace's one seeded random stream, and the property runner that
//! drives randomized tests from it.
//!
//! Every random draw — task-set generation, per-job demand, fault and
//! task-model hashes, property-test inputs — derives from an explicit
//! `u64` seed through SplitMix64 (Steele, Lea & Flood, 2014). The stream
//! is part of every experiment's definition: changing any method here
//! re-samples every seeded figure, which the pinned outputs in this
//! crate's tests catch.

use std::panic::{self, AssertUnwindSafe};

/// The SplitMix64 increment: `2^64 / φ`, rounded to odd.
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// One SplitMix64 step: add the golden increment, then apply the
/// bijective avalanche mix. Used directly as a stateless hash for
/// counter-based draws keyed on `(seed, task, job, …)`.
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(GOLDEN);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A seeded SplitMix64 stream. The stream is a pure function of the seed,
/// so every consumer replays bit-identically.
#[derive(Debug, Clone)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// The stream whose outputs are `splitmix64(seed + i · GOLDEN)` for
    /// `i = 0, 1, …`.
    #[inline]
    pub fn seed_from_u64(seed: u64) -> Rng {
        Rng { state: seed }
    }

    /// The next 64 uniformly distributed bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let out = splitmix64(self.state);
        self.state = self.state.wrapping_add(GOLDEN);
        out
    }

    /// Uniform in `[0, 1)` on the 53-bit grid.
    #[inline]
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in the half-open range `[lo, hi)`; a draw that rounds onto
    /// `hi` is redrawn.
    ///
    /// # Panics
    ///
    /// Panics unless `lo < hi`.
    #[inline]
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo < hi, "cannot sample an empty range");
        loop {
            let x = lo + (hi - lo) * self.unit_f64();
            if x < hi {
                return x;
            }
        }
    }

    /// Uniform in the closed range `[lo, hi]`: a 53-bit closed unit value,
    /// scaled, then clamped to `hi` against rounding.
    ///
    /// # Panics
    ///
    /// Panics unless `lo <= hi`.
    #[inline]
    pub fn range_inclusive_f64(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo <= hi, "cannot sample an empty range");
        let unit = (self.next_u64() >> 11) as f64 * (1.0 / ((1u64 << 53) - 1) as f64);
        (lo + (hi - lo) * unit).min(hi)
    }

    /// Uniform in `0..span`, unbiased (Lemire's multiply-and-reject). Every
    /// integer range `lo..hi` is drawn as `lo + below(hi - lo)`.
    ///
    /// # Panics
    ///
    /// Panics if `span == 0`.
    #[inline]
    pub fn below(&mut self, span: u64) -> u64 {
        assert!(span > 0, "cannot sample an empty range");
        let threshold = span.wrapping_neg() % span;
        loop {
            let wide = u128::from(self.next_u64()) * u128::from(span);
            if wide as u64 >= threshold {
                return (wide >> 64) as u64;
            }
        }
    }
}

/// Runs the randomized property `property` on independently seeded
/// streams, one per case.
///
/// The case count is `STADVS_PROPTEST_CASES` when it is set to a number,
/// else `default_cases`. Case `i` is seeded from a fixed hash of
/// `(name, i)`, so rerunning the test replays exactly the same cases.
/// There is no shrinking: the report names the failing input's case and
/// seed, and `Rng::seed_from_u64(seed)` rebuilds its stream.
///
/// # Panics
///
/// Panics when the property returns `Err` or panics, naming the property,
/// the case index and the seed.
#[expect(clippy::panic, reason = "a failing property fails its test")]
pub fn check<F>(name: &str, default_cases: u32, mut property: F)
where
    F: FnMut(&mut Rng) -> Result<(), String>,
{
    let cases = std::env::var("STADVS_PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default_cases);
    // FNV-1a of the name keys the property's cases.
    let key = name.bytes().fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    for case in 0..cases {
        let seed = splitmix64(key ^ splitmix64(u64::from(case)));
        let mut rng = Rng::seed_from_u64(seed);
        let reason = match panic::catch_unwind(AssertUnwindSafe(|| property(&mut rng))) {
            Ok(Ok(())) => continue,
            Ok(Err(reason)) => reason,
            Err(payload) => panic_reason(payload.as_ref()),
        };
        panic!("property `{name}` failed at case {case} (seed {seed:#018x}): {reason}");
    }
}

/// The message of a caught panic payload.
fn panic_reason(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panicked".to_string()
    }
}
