//! Simulated time.
//!
//! All timing in `hswx` uses picosecond integers. The paper's test system
//! runs cores at a fixed 2.5 GHz (Turbo Boost disabled), so one core cycle is
//! exactly 400 ps and every cycle count in the paper converts losslessly.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// Picoseconds per nanosecond.
pub const PS_PER_NS: u64 = 1_000;

/// An absolute point in simulated time, in picoseconds since simulation start.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime(pub u64);

/// A span of simulated time, in picoseconds.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimDuration(pub u64);

impl SimTime {
    /// The simulation epoch.
    pub const ZERO: SimTime = SimTime(0);

    /// Construct from nanoseconds.
    pub fn from_ns(ns: f64) -> Self {
        SimTime((ns * PS_PER_NS as f64).round() as u64)
    }

    /// This instant expressed in (fractional) nanoseconds.
    pub fn as_ns(self) -> f64 {
        self.0 as f64 / PS_PER_NS as f64
    }

    /// Duration elapsed since `earlier`. Panics in debug builds if `earlier`
    /// is later than `self`.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        debug_assert!(earlier.0 <= self.0, "since() with a later time");
        SimDuration(self.0 - earlier.0)
    }

    /// The later of two instants.
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }

    /// This instant expressed in seconds since the epoch.
    pub fn as_secs(self) -> f64 {
        self.0 as f64 * 1e-12
    }
}

impl SimDuration {
    /// Zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Construct from (fractional) nanoseconds.
    pub fn from_ns(ns: f64) -> Self {
        SimDuration((ns * PS_PER_NS as f64).round() as u64)
    }

    /// Construct from microseconds.
    pub fn from_us(us: f64) -> Self {
        Self::from_ns(us * 1_000.0)
    }

    /// This span expressed in (fractional) nanoseconds.
    pub fn as_ns(self) -> f64 {
        self.0 as f64 / PS_PER_NS as f64
    }

    /// This span expressed in seconds.
    pub fn as_secs(self) -> f64 {
        self.0 as f64 * 1e-12
    }

    /// Time to move `bytes` at `gb_per_s` (GB/s, SI).
    pub fn for_bytes(bytes: u64, gb_per_s: f64) -> Self {
        // ps = bytes / (GB/s * 1e9 B/s) * 1e12 ps/s = bytes * 1000 / (GB/s)
        SimDuration(((bytes as f64) * 1000.0 / gb_per_s).round() as u64)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.since(rhs)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        debug_assert!(rhs.0 <= self.0);
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        debug_assert!(rhs.0 <= self.0);
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3} ns", self.as_ns())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3} ns", self.as_ns())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic_roundtrips() {
        let t = SimTime::from_ns(96.4);
        let d = SimDuration::from_ns(49.6);
        assert_eq!((t + d).since(t), d);
        assert!((t + d).as_ns() - 146.0 < 1e-9);
    }

    #[test]
    fn duration_for_bytes_matches_hand_calc() {
        // 64 B / 10 GB/s = 6.4 ns
        assert_eq!(SimDuration::for_bytes(64, 10.0).0, 6_400);
    }

    #[test]
    fn max_and_ordering() {
        let a = SimTime(5);
        let b = SimTime(9);
        assert_eq!(a.max(b), b);
        assert!(a < b);
    }

    #[test]
    fn display_formats_ns() {
        assert_eq!(format!("{}", SimTime::from_ns(21.2)), "21.200 ns");
    }
}
