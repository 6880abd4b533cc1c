//! Simulated time.
//!
//! [`SimTime`] is a thin, total-ordered wrapper around `f64` seconds. A
//! single type deliberately serves both as an *instant* (time since the start
//! of the simulation) and as a *duration* — queueing simulations constantly
//! mix the two (`depart = now + service`) and a two-type scheme adds friction
//! without catching real bugs at this scale. What the wrapper does add over a
//! bare `f64`:
//!
//! * `Eq`/`Ord` via `f64::total_cmp`, so times can key a [`BinaryHeap`]
//!   (the event queue) — NaN is rejected at construction in debug builds;
//! * unit-explicit constructors (`from_millis`, `from_micros`, …) so call
//!   sites never contain raw unit conversions;
//! * saturating-at-zero subtraction is *not* provided on purpose: a negative
//!   elapsed time in a simulator is always a logic error and should surface.
//!
//! [`BinaryHeap`]: std::collections::BinaryHeap

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// A point in simulated time (or a span of it), in seconds.
#[derive(Clone, Copy, Default)]
pub struct SimTime(f64);

impl SimTime {
    /// The simulation epoch (also the zero duration).
    pub const ZERO: SimTime = SimTime(0.0);
    /// A time later than every event a simulation will ever schedule.
    pub const MAX: SimTime = SimTime(f64::MAX);

    /// Creates a time from whole-or-fractional seconds.
    ///
    /// # Panics
    /// Debug-panics if `secs` is NaN.
    #[inline]
    pub fn from_secs(secs: f64) -> Self {
        debug_assert!(!secs.is_nan(), "SimTime cannot be NaN");
        SimTime(secs)
    }

    /// Creates a time from milliseconds.
    #[inline]
    pub fn from_millis(ms: f64) -> Self {
        Self::from_secs(ms * 1e-3)
    }

    /// Creates a time from microseconds.
    #[inline]
    pub fn from_micros(us: f64) -> Self {
        Self::from_secs(us * 1e-6)
    }

    /// This time expressed in seconds.
    #[inline]
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// The later of two times.
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// The earlier of two times.
    #[inline]
    pub fn min(self, other: SimTime) -> SimTime {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// `true` if this time is a finite number (not `SimTime::MAX`-ish
    /// sentinel arithmetic overflow).
    #[inline]
    pub fn is_finite(self) -> bool {
        self.0.is_finite()
    }
}

// The four comparison traits form one canonical family rooted at
// `f64::total_cmp`: `Ord` defines the total order, `PartialOrd` and
// `PartialEq` delegate to it, and `Eq` is sound because `total_cmp` is a
// total order even over NaN and signed zeros. This is what lets `SimTime`
// key the event-queue heaps with no panic path and no IEEE partial-order
// escape hatch. Consequence worth knowing: `-0.0 != +0.0` and
// `NaN == NaN` under this order, unlike bare `f64` — fine here because
// NaN is debug-rejected at construction and all constructors produce
// `+0.0` for zero.
impl Ord for SimTime {
    #[inline]
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

impl PartialOrd for SimTime {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for SimTime {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}

impl Eq for SimTime {}

impl Add for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime::from_secs(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime::from_secs(self.0 - rhs.0)
    }
}

impl SubAssign for SimTime {
    #[inline]
    fn sub_assign(&mut self, rhs: SimTime) {
        self.0 -= rhs.0;
    }
}

impl Mul<f64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn mul(self, rhs: f64) -> SimTime {
        SimTime::from_secs(self.0 * rhs)
    }
}

impl Div<f64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn div(self, rhs: f64) -> SimTime {
        SimTime::from_secs(self.0 / rhs)
    }
}

impl Div for SimTime {
    type Output = f64;
    /// Ratio of two spans (dimensionless).
    #[inline]
    fn div(self, rhs: SimTime) -> f64 {
        self.0 / rhs.0
    }
}

impl Neg for SimTime {
    type Output = SimTime;
    #[inline]
    fn neg(self) -> SimTime {
        SimTime::from_secs(-self.0)
    }
}

impl Sum for SimTime {
    fn sum<I: Iterator<Item = SimTime>>(iter: I) -> SimTime {
        iter.fold(SimTime::ZERO, |a, b| a + b)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for SimTime {
    /// Human scale: picks s / ms / µs based on magnitude.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.0.abs();
        if s >= 1.0 || s == 0.0 {
            write!(f, "{:.6}s", self.0)
        } else if s >= 1e-3 {
            write!(f, "{:.3}ms", self.0 * 1e3)
        } else {
            write!(f, "{:.3}us", self.0 * 1e6)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_roundtrip() {
        assert_eq!(SimTime::from_millis(1500.0).as_secs(), 1.5);
    }

    #[test]
    fn ordering_is_total() {
        let a = SimTime::from_secs(1.0);
        let b = SimTime::from_secs(2.0);
        assert!(a < b);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        assert_eq!(SimTime::ZERO.max(SimTime::MAX), SimTime::MAX);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_secs(1.0) + SimTime::from_millis(500.0);
        assert_eq!(t.as_secs(), 1.5);
        assert_eq!((t - SimTime::from_secs(0.5)).as_secs(), 1.0);
        assert_eq!((t * 2.0).as_secs(), 3.0);
        assert_eq!((t / 3.0).as_secs(), 0.5);
        assert_eq!(t / SimTime::from_secs(0.75), 2.0);
        let total: SimTime = [t, t, t].into_iter().sum();
        assert_eq!(total.as_secs(), 4.5);
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(format!("{}", SimTime::from_secs(1.25)), "1.250000s");
        assert_eq!(format!("{}", SimTime::from_millis(1.5)), "1.500ms");
        assert_eq!(format!("{}", SimTime::from_micros(12.5)), "12.500us");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "NaN")]
    fn nan_rejected() {
        let _ = SimTime::from_secs(f64::NAN);
    }

    /// Pins the `total_cmp` order on the values IEEE 754 leaves unordered
    /// or ambiguous, so the event-queue merge key stays total even if a
    /// NaN or signed zero ever leaks past the debug constructors.
    #[test]
    fn total_order_pins_nan_and_signed_zero() {
        // NaN can only arise through the unchecked compound-assign path
        // (e.g. inf - inf); build one that way rather than via from_secs,
        // which debug-panics.
        let mut nan = SimTime::from_secs(f64::INFINITY);
        nan -= SimTime::from_secs(f64::INFINITY);
        assert!(nan.as_secs().is_nan());

        // NaN is *ordered*, at the extreme end matching its sign bit
        // (total_cmp): a leaked NaN drains first or last, it never wedges
        // the heap. inf - inf yields the platform's default quiet NaN,
        // whose sign differs by architecture (negative on x86), so pin
        // whichever end this one landed on.
        let inf = SimTime::from_secs(f64::INFINITY);
        let neg_inf = SimTime::from_secs(f64::NEG_INFINITY);
        if nan.as_secs().is_sign_negative() {
            assert!(nan < neg_inf);
            assert!(nan < SimTime::ZERO);
        } else {
            assert!(nan > SimTime::MAX);
            assert!(nan > inf);
        }
        assert!(inf > SimTime::MAX);
        assert!(neg_inf < SimTime::from_secs(f64::MIN));

        // The order is reflexive on NaN (Eq is honest): no panic path,
        // no `unwrap` on a `partial_cmp` None.
        assert_eq!(nan.cmp(&nan), std::cmp::Ordering::Equal);
        assert!(nan == nan);

        // Signed zeros are *distinct* and ordered: -0.0 < +0.0. All
        // constructors produce +0.0 for zero, so ZERO comparisons are
        // unaffected, but the merge key must not treat them as ties.
        let neg_zero = SimTime::from_secs(-0.0);
        assert!(neg_zero < SimTime::ZERO);
        assert!(neg_zero != SimTime::ZERO);
        assert_eq!(neg_zero.max(SimTime::ZERO), SimTime::ZERO);

        // And the familiar total order on ordinary values still holds
        // around the exotic ones.
        assert!(SimTime::from_secs(-1.0) < neg_zero);
        assert!(SimTime::ZERO < SimTime::from_secs(1.0));
    }
}
