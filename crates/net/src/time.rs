//! Simulated time.
//!
//! The whole reproduction runs on a virtual clock: latencies are modelled,
//! not measured, so experiments are deterministic and fast. [`SimTime`] is
//! an instant (microseconds since simulation start) and plain
//! [`std::time::Duration`] is used for spans.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Sub};
use std::time::Duration;

/// An instant on the simulated clock, in microseconds since start.
#[derive(
    Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default, Serialize, Deserialize,
)]
pub struct SimTime(u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);

    /// Creates an instant from microseconds since simulation start.
    pub const fn from_micros(micros: u64) -> Self {
        SimTime(micros)
    }

    /// Creates an instant from milliseconds since simulation start.
    pub const fn from_millis(millis: u64) -> Self {
        SimTime(millis * 1_000)
    }

    /// Creates an instant from seconds since simulation start.
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs * 1_000_000)
    }

    /// Microseconds since simulation start.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Milliseconds since simulation start (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    /// Seconds since simulation start as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// The span from an earlier instant to `self`.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is after `self`.
    fn duration_since(self, earlier: SimTime) -> Duration {
        assert!(
            earlier.0 <= self.0,
            "duration_since called with a later instant"
        );
        Duration::from_micros(self.0 - earlier.0)
    }

    /// The span from an earlier instant to `self`, zero if `earlier`
    /// is after `self`.
    pub fn saturating_duration_since(self, earlier: SimTime) -> Duration {
        Duration::from_micros(self.0.saturating_sub(earlier.0))
    }
}

impl Add<Duration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: Duration) -> SimTime {
        SimTime(self.0 + rhs.as_micros() as u64)
    }
}

impl AddAssign<Duration> for SimTime {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.as_micros() as u64;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = Duration;
    fn sub(self, rhs: SimTime) -> Duration {
        self.duration_since(rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{:.3}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_accessors() {
        assert_eq!(SimTime::from_secs(2).as_micros(), 2_000_000);
        assert_eq!(SimTime::from_millis(5).as_micros(), 5_000);
        assert_eq!(SimTime::from_micros(7).as_micros(), 7);
        assert_eq!(SimTime::from_secs(3).as_millis(), 3_000);
        assert!((SimTime::from_millis(1500).as_secs_f64() - 1.5).abs() < 1e-9);
        assert_eq!(SimTime::ZERO, SimTime::default());
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_millis(10) + Duration::from_millis(5);
        assert_eq!(t.as_millis(), 15);
        let mut u = SimTime::ZERO;
        u += Duration::from_secs(1);
        assert_eq!(u, SimTime::from_secs(1));
        assert_eq!(t - SimTime::from_millis(10), Duration::from_millis(5));
    }

    #[test]
    fn duration_since_saturating() {
        let early = SimTime::from_millis(1);
        let late = SimTime::from_millis(4);
        assert_eq!(late.duration_since(early), Duration::from_millis(3));
        assert_eq!(early.saturating_duration_since(late), Duration::ZERO);
    }

    #[test]
    #[should_panic(expected = "later instant")]
    fn duration_since_panics_when_reversed() {
        let _ = SimTime::ZERO.duration_since(SimTime::from_micros(1));
    }

    #[test]
    fn ordering_and_display() {
        assert!(SimTime::from_micros(1) < SimTime::from_micros(2));
        assert_eq!(SimTime::from_millis(1500).to_string(), "t+1.500s");
    }
}
