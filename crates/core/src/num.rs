//! Integer-to-float conversions sanctioned for claims/ledger arithmetic.
//!
//! `clippy::as_conversions` bans ad-hoc `as` casts between integers and
//! floats in this crate: a truncating or precision-losing cast inside the slack
//! ledger silently corrupts the guarantee arithmetic. Lossless `u32`
//! conversions go through `f64::from`; `usize` counts (which have no
//! `From<usize> for f64` impl) are funnelled through [`count_to_f64`],
//! the one place where the cast is audited.

/// Largest `usize` exactly representable as an `f64` (2^53).
const MAX_EXACT: usize = 1 << f64::MANTISSA_DIGITS;

/// Converts a collection count to `f64`, checking in debug builds that the
/// value is exactly representable (counts here are chunk or sample counts,
/// always far below 2^53).
#[expect(
    clippy::as_conversions,
    reason = "single sanctioned lossless count conversion"
)]
pub(crate) fn count_to_f64(n: usize) -> f64 {
    debug_assert!(n <= MAX_EXACT, "count {n} is not exactly representable");
    n as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_counts_convert_exactly() {
        assert_eq!(count_to_f64(0), 0.0);
        assert_eq!(count_to_f64(7), 7.0);
        assert_eq!(count_to_f64(1_000_000), 1.0e6);
    }
}
