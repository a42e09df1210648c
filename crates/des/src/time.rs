//! Simulated time.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time, measured in seconds since simulation start.
///
/// `Time` is a newtype over `f64` that statically rules out the two footguns
/// of raw floating-point timestamps: NaN (construction panics) and partial
/// ordering (`Time` is [`Ord`], so it can key an event calendar).
///
/// Durations are plain `f64` seconds; arithmetic that would produce a
/// negative or non-finite timestamp panics, because a simulation clock must
/// be monotone and finite.
///
/// # Examples
///
/// ```
/// use bighouse_des::Time;
///
/// let t = Time::ZERO + 1.5;
/// assert_eq!(t.as_seconds(), 1.5);
/// assert!(t > Time::ZERO);
/// assert_eq!(t - Time::ZERO, 1.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Time(f64);

impl Time {
    /// The simulation start instant.
    pub const ZERO: Time = Time(0.0);

    /// The longest span, in seconds, a configuration may give a latency,
    /// timeout, deadline, mean time or table value: 10^12 s, some 31 700
    /// years. No run fires enough events for sums of such spans to reach
    /// the end of the `f64` range, so every event time stays finite.
    pub const MAX_SPAN: f64 = 1e12;

    /// Creates a `Time` from a number of seconds since simulation start.
    ///
    /// # Panics
    ///
    /// Panics if `seconds` is negative, NaN, or infinite.
    #[inline]
    #[must_use]
    pub fn from_seconds(seconds: f64) -> Self {
        assert!(
            seconds.is_finite() && seconds >= 0.0,
            "simulated time must be finite and non-negative, got {seconds}"
        );
        Time(seconds)
    }

    /// Returns the timestamp as seconds since simulation start.
    #[inline]
    #[must_use]
    pub fn as_seconds(self) -> f64 {
        self.0
    }

    /// Returns the later of two timestamps.
    #[inline]
    #[must_use]
    pub fn max(self, other: Time) -> Time {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// Returns the earlier of two timestamps.
    #[inline]
    #[must_use]
    pub fn min(self, other: Time) -> Time {
        if self <= other {
            self
        } else {
            other
        }
    }
}

impl Default for Time {
    fn default() -> Self {
        Time::ZERO
    }
}

impl Eq for Time {}

impl PartialOrd for Time {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Time {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        // Valid because construction forbids NaN.
        self.0.partial_cmp(&other.0).expect("Time is never NaN")
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.9}s", self.0)
    }
}

impl Add<f64> for Time {
    type Output = Time;

    /// Advances the timestamp by `rhs` seconds.
    ///
    /// # Panics
    ///
    /// Panics if the result would be negative or non-finite.
    #[inline]
    fn add(self, rhs: f64) -> Time {
        Time::from_seconds(self.0 + rhs)
    }
}

impl AddAssign<f64> for Time {
    #[inline]
    fn add_assign(&mut self, rhs: f64) {
        *self = *self + rhs;
    }
}

impl Sub for Time {
    type Output = f64;

    /// Returns the signed duration `self - rhs` in seconds.
    #[inline]
    fn sub(self, rhs: Time) -> f64 {
        self.0 - rhs.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_is_default() {
        assert_eq!(Time::default(), Time::ZERO);
        assert_eq!(Time::ZERO.as_seconds(), 0.0);
    }

    #[test]
    fn ordering_is_total() {
        let a = Time::from_seconds(1.0);
        let b = Time::from_seconds(2.0);
        assert!(a < b);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        assert_eq!(b.max(a), b);
    }

    #[test]
    fn arithmetic_round_trips() {
        let t = Time::from_seconds(3.25) + 0.75;
        assert_eq!(t.as_seconds(), 4.0);
        assert_eq!(t - Time::from_seconds(1.0), 3.0);
    }

    #[test]
    fn subtraction_can_be_negative() {
        let a = Time::from_seconds(1.0);
        let b = Time::from_seconds(2.0);
        assert_eq!(a - b, -1.0);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn rejects_nan() {
        let _ = Time::from_seconds(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn rejects_negative() {
        let _ = Time::from_seconds(-1.0);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn add_rejects_overflow_to_infinity() {
        let _ = Time::from_seconds(f64::MAX) + f64::MAX;
    }

    #[test]
    fn display_shows_seconds() {
        assert_eq!(Time::from_seconds(1.5).to_string(), "1.500000000s");
    }
}
