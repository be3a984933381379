//! Normalized processor speed.

use std::fmt;

use crate::PowerError;

/// A processor speed normalized to the maximum frequency.
///
/// A speed of `1.0` is the maximum frequency `f_max`; a speed `s` executes
/// `s` units of (f_max-normalized) work per unit of wall-clock time. Valid
/// speeds lie in `(0, 1]`: a zero speed is not a speed but the *idle* state,
/// which the simulator models separately.
///
/// `Speed` implements [`Ord`] (speeds are never NaN by construction), so
/// speeds can be compared, sorted, and used as map keys.
///
/// ```
/// use stadvs_power::Speed;
///
/// # fn main() -> Result<(), stadvs_power::PowerError> {
/// let s = Speed::new(0.4)?;
/// assert!(s < Speed::FULL);
/// assert_eq!(s.ratio(), 0.4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Speed(f64);

impl Speed {
    /// The maximum speed, `1.0`.
    pub const FULL: Speed = Speed(1.0);

    /// Creates a speed from a normalized ratio.
    ///
    /// # Errors
    ///
    /// Returns [`PowerError::InvalidSpeed`] if `ratio` is not finite or lies
    /// outside `(0, 1]`.
    pub fn new(ratio: f64) -> Result<Speed, PowerError> {
        if !ratio.is_finite() || ratio <= 0.0 || ratio > 1.0 {
            return Err(PowerError::InvalidSpeed(ratio));
        }
        Ok(Speed(ratio))
    }

    /// Creates a speed, clamping `ratio` into `[floor, 1]`.
    ///
    /// This is the constructor governors use: a requested speed below the
    /// floor (or non-positive, e.g. when infinite slack is available) clamps
    /// up to `floor`, and anything above `1.0` clamps down to full speed.
    ///
    /// # Panics
    ///
    /// Panics if `floor` is not itself a valid speed ratio, or if `ratio` is
    /// NaN. Both indicate a programming error in the caller.
    pub fn clamped(ratio: f64, floor: Speed) -> Speed {
        assert!(!ratio.is_nan(), "speed ratio must not be NaN");
        Speed(ratio.clamp(floor.0, 1.0))
    }

    /// The smallest representable positive speed, used as the ultimate
    /// clamping floor where no platform floor applies.
    pub const MIN_POSITIVE: Speed = Speed(1.0e-9);

    /// The normalized ratio in `(0, 1]`.
    pub fn ratio(self) -> f64 {
        self.0
    }

    /// Whether two speeds denote the *same operating point*.
    ///
    /// This is exact identity, not an epsilon comparison: operating points
    /// flow through the system by value (quantization, commitment, trace
    /// segments), so two speeds either are the same point or they are not.
    /// Epsilon comparisons belong to arithmetic-*derived* quantities, never
    /// to operating-point identity — a near-equal speed is still a
    /// different point and switching to it costs a real transition.
    #[expect(
        clippy::float_cmp,
        reason = "operating-point identity is exact by design"
    )]
    pub fn same_point(self, other: Speed) -> bool {
        self.0 == other.0
    }

    /// Wall-clock time needed to execute `work` units of f_max-normalized
    /// work at this speed.
    ///
    /// ```
    /// use stadvs_power::Speed;
    /// # fn main() -> Result<(), stadvs_power::PowerError> {
    /// // 1 ms of full-speed work takes 2 ms at half speed.
    /// assert_eq!(Speed::new(0.5)?.time_for(1.0e-3), 2.0e-3);
    /// # Ok(())
    /// # }
    /// ```
    pub fn time_for(self, work: f64) -> f64 {
        work / self.0
    }

    /// Work executed over wall-clock `duration` at this speed.
    pub fn work_in(self, duration: f64) -> f64 {
        duration * self.0
    }
}

impl Eq for Speed {}

#[allow(clippy::derive_ord_xor_partial_ord)]
impl Ord for Speed {
    fn cmp(&self, other: &Speed) -> std::cmp::Ordering {
        // Valid speeds are never NaN, so total_cmp matches partial_cmp.
        self.0.total_cmp(&other.0)
    }
}

impl PartialOrd for Speed {
    fn partial_cmp(&self, other: &Speed) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Display for Speed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1}%", self.0 * 100.0)
    }
}

impl TryFrom<f64> for Speed {
    type Error = PowerError;

    fn try_from(ratio: f64) -> Result<Speed, PowerError> {
        Speed::new(ratio)
    }
}

impl From<Speed> for f64 {
    fn from(speed: Speed) -> f64 {
        speed.ratio()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_accepts_valid_range() {
        assert!(Speed::new(1e-9).is_ok());
        assert!(Speed::new(0.5).is_ok());
        assert!(Speed::new(1.0).is_ok());
    }

    #[test]
    fn new_rejects_invalid() {
        assert!(Speed::new(0.0).is_err());
        assert!(Speed::new(-0.1).is_err());
        assert!(Speed::new(1.0001).is_err());
        assert!(Speed::new(f64::NAN).is_err());
        assert!(Speed::new(f64::INFINITY).is_err());
    }

    #[test]
    fn clamped_respects_floor_and_ceiling() {
        let floor = Speed::new(0.1).unwrap();
        assert_eq!(Speed::clamped(0.05, floor), floor);
        assert_eq!(Speed::clamped(2.0, floor), Speed::FULL);
        assert_eq!(Speed::clamped(0.5, floor), Speed::new(0.5).unwrap());
        // Negative / zero requests clamp to the floor (infinite-slack case).
        assert_eq!(Speed::clamped(-3.0, floor), floor);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn clamped_rejects_nan() {
        let _ = Speed::clamped(f64::NAN, Speed::FULL);
    }

    #[test]
    fn time_and_work_are_inverse() {
        let s = Speed::new(0.25).unwrap();
        let work = 3.0e-3;
        let t = s.time_for(work);
        assert!((s.work_in(t) - work).abs() < 1e-15);
    }

    #[test]
    fn ordering_is_numeric() {
        let mut v = [
            Speed::new(0.9).unwrap(),
            Speed::new(0.1).unwrap(),
            Speed::FULL,
        ];
        v.sort();
        assert_eq!(v[0].ratio(), 0.1);
        assert_eq!(v[2], Speed::FULL);
    }

    #[test]
    fn display_is_nonempty_percentage() {
        assert_eq!(Speed::FULL.to_string(), "100.0%");
    }

    #[test]
    fn f64_round_trip() {
        let s = Speed::new(0.75).unwrap();
        let raw: f64 = s.into();
        assert_eq!(Speed::try_from(raw).unwrap(), s);
        assert_eq!(format!("{raw}"), "0.75");
    }
}
