//! Simulation time.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulation time, in integer nanoseconds.
///
/// The newtype keeps simulation time from being confused with durations or
/// other integers in model code.
///
/// ```
/// use desim::SimTime;
///
/// let t = SimTime::from_ns(10) + 160;
/// assert_eq!(t.as_ns(), 170);
/// assert_eq!(t.to_string(), "170ns");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// Time zero (simulation start).
    pub const ZERO: SimTime = SimTime(0);

    /// The latest representable instant.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// A time `ns` nanoseconds after simulation start.
    #[must_use]
    pub const fn from_ns(ns: u64) -> SimTime {
        SimTime(ns)
    }

    /// Nanoseconds since simulation start.
    #[must_use]
    pub const fn as_ns(self) -> u64 {
        self.0
    }

    /// Nanoseconds from `self` to `later`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `later < self`.
    #[must_use]
    pub fn delta_to(self, later: SimTime) -> u64 {
        debug_assert!(later >= self, "delta_to target precedes self");
        later.0 - self.0
    }
}

/// Saturates at [`SimTime::MAX`]: a delay past the end of time lands on
/// the last instant, never wraps into the past.
impl Add<u64> for SimTime {
    type Output = SimTime;

    fn add(self, ns: u64) -> SimTime {
        SimTime(self.0.saturating_add(ns))
    }
}

/// Saturates at [`SimTime::MAX`], like [`Add`].
impl AddAssign<u64> for SimTime {
    fn add_assign(&mut self, ns: u64) {
        *self = *self + ns;
    }
}

impl Sub for SimTime {
    type Output = u64;

    fn sub(self, earlier: SimTime) -> u64 {
        self.0 - earlier.0
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}ns", self.0)
    }
}

impl From<u64> for SimTime {
    fn from(ns: u64) -> SimTime {
        SimTime(ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let t = SimTime::from_ns(10);
        assert_eq!((t + 7).as_ns(), 17);
        assert_eq!(SimTime::from_ns(30) - t, 20);
        assert_eq!(t.delta_to(SimTime::from_ns(25)), 15);
        let mut u = t;
        u += 5;
        assert_eq!(u, SimTime::from_ns(15));
    }

    #[test]
    fn addition_saturates_at_max() {
        assert_eq!(SimTime::from_ns(5) + u64::MAX, SimTime::MAX);
        assert_eq!(SimTime::MAX + 1, SimTime::MAX);
        let mut u = SimTime::from_ns(u64::MAX - 1);
        u += 2;
        assert_eq!(u, SimTime::MAX);
    }

    #[test]
    fn ordering_and_display() {
        assert!(SimTime::ZERO < SimTime::from_ns(1));
        assert_eq!(SimTime::from_ns(170).to_string(), "170ns");
    }
}
