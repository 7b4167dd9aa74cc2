//! Simulation time and frequency types.
//!
//! Time is kept in integer **picoseconds** so that the clock periods used in
//! the paper's evaluation (27 MHz, 55 MHz, 250 MHz) can be represented
//! without rounding drift over the simulated windows (micro- to
//! milliseconds).

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// An instant in simulated time, in picoseconds since simulation start.
///
/// `SimTime` is a transparent newtype over `u64` ([C-NEWTYPE]); arithmetic
/// that would overflow panics in debug builds like ordinary integer
/// arithmetic.
///
/// ```
/// use pels_sim::SimTime;
/// let t = SimTime::from_ns(500); // the paper's 500 ns latency budget
/// assert_eq!(t.as_ps(), 500_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// Time zero — the simulation start.
    pub const ZERO: SimTime = SimTime(0);

    /// Creates a time from picoseconds.
    pub const fn from_ps(ps: u64) -> Self {
        SimTime(ps)
    }

    /// Creates a time from nanoseconds.
    pub const fn from_ns(ns: u64) -> Self {
        SimTime(ns * 1_000)
    }

    /// Creates a time from microseconds.
    pub const fn from_us(us: u64) -> Self {
        SimTime(us * 1_000_000)
    }

    /// Creates a time from milliseconds.
    pub const fn from_ms(ms: u64) -> Self {
        SimTime(ms * 1_000_000_000)
    }

    /// Returns the time in picoseconds.
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Returns the time in nanoseconds (truncating).
    pub const fn as_ns(self) -> u64 {
        self.0 / 1_000
    }

    /// Returns the time in fractional microseconds.
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Returns the time in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e12
    }

    /// Saturating subtraction: `self - other`, clamped at zero.
    pub fn saturating_sub(self, other: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(other.0))
    }

    /// Checked addition; `None` on overflow.
    pub fn checked_add(self, other: SimTime) -> Option<SimTime> {
        self.0.checked_add(other.0).map(SimTime)
    }
}

impl Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    /// # Panics
    ///
    /// Panics if `rhs` is later than `self` (like integer underflow).
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 {
            write!(f, "{:.3} us", self.as_us_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3} ns", self.0 as f64 / 1e3)
        } else {
            write!(f, "{} ps", self.0)
        }
    }
}

/// A clock frequency.
///
/// Stored as the exact period in picoseconds, because simulation arithmetic
/// is period-based. Construct from MHz (the unit used throughout the paper)
/// or directly from a period.
///
/// ```
/// use pels_sim::Frequency;
/// let f = Frequency::from_mhz(250.0); // synthesis target of Fig. 6
/// assert_eq!(f.period_ps(), 4_000);
/// assert!((f.as_mhz() - 250.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Frequency {
    period_ps: u64,
}

impl Frequency {
    /// Creates a frequency from a value in megahertz.
    ///
    /// # Panics
    ///
    /// Panics if `mhz` is not finite and positive.
    pub fn from_mhz(mhz: f64) -> Self {
        assert!(
            mhz.is_finite() && mhz > 0.0,
            "frequency must be finite and positive, got {mhz} MHz"
        );
        let period = (1e6 / mhz).round() as u64;
        assert!(period > 0, "frequency {mhz} MHz is too high to represent");
        Frequency { period_ps: period }
    }

    /// Creates a frequency from its exact clock period in picoseconds.
    ///
    /// # Panics
    ///
    /// Panics if `period_ps` is zero.
    pub fn from_period_ps(period_ps: u64) -> Self {
        assert!(period_ps > 0, "clock period must be non-zero");
        Frequency { period_ps }
    }

    /// The exact clock period in picoseconds.
    pub const fn period_ps(&self) -> u64 {
        self.period_ps
    }

    /// The clock period as a [`SimTime`] duration.
    pub const fn period(&self) -> SimTime {
        SimTime::from_ps(self.period_ps)
    }

    /// The frequency in megahertz.
    pub fn as_mhz(&self) -> f64 {
        1e6 / self.period_ps as f64
    }

    /// Number of whole cycles of this clock that fit in `window`.
    pub fn cycles_in(&self, window: SimTime) -> u64 {
        window.as_ps() / self.period_ps
    }

    /// Duration of `cycles` cycles of this clock.
    pub fn cycles(&self, cycles: u64) -> SimTime {
        SimTime::from_ps(self.period_ps * cycles)
    }
}

impl fmt::Display for Frequency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3} MHz", self.as_mhz())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simtime_constructors_agree() {
        assert_eq!(SimTime::from_ns(1).as_ps(), 1_000);
        assert_eq!(SimTime::from_us(1).as_ps(), 1_000_000);
        assert_eq!(SimTime::from_ms(1).as_ps(), 1_000_000_000);
        assert_eq!(SimTime::ZERO.as_ps(), 0);
    }

    #[test]
    fn simtime_arithmetic() {
        let a = SimTime::from_ns(10);
        let b = SimTime::from_ns(4);
        assert_eq!((a + b).as_ns(), 14);
        assert_eq!((a - b).as_ns(), 6);
        assert_eq!(b.saturating_sub(a), SimTime::ZERO);
        let mut c = a;
        c += b;
        assert_eq!(c.as_ns(), 14);
    }

    #[test]
    fn simtime_checked_add_detects_overflow() {
        let max = SimTime::from_ps(u64::MAX);
        assert_eq!(max.checked_add(SimTime::from_ps(1)), None);
        assert_eq!(
            SimTime::from_ps(1).checked_add(SimTime::from_ps(2)),
            Some(SimTime::from_ps(3))
        );
    }

    #[test]
    fn simtime_display_scales_units() {
        assert_eq!(format!("{}", SimTime::from_ps(12)), "12 ps");
        assert_eq!(format!("{}", SimTime::from_ns(5)), "5.000 ns");
        assert_eq!(format!("{}", SimTime::from_us(3)), "3.000 us");
    }

    #[test]
    fn frequency_paper_operating_points() {
        // The three frequencies used in the paper's evaluation.
        assert_eq!(Frequency::from_mhz(250.0).period_ps(), 4_000);
        assert_eq!(Frequency::from_mhz(55.0).period_ps(), 18_182);
        assert_eq!(Frequency::from_mhz(27.0).period_ps(), 37_037);
    }

    #[test]
    fn frequency_cycles_roundtrip() {
        let f = Frequency::from_mhz(100.0);
        assert_eq!(f.cycles_in(SimTime::from_us(1)), 100);
        assert_eq!(f.cycles(7), SimTime::from_ps(70_000));
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn frequency_rejects_zero() {
        let _ = Frequency::from_mhz(0.0);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn frequency_rejects_zero_period() {
        let _ = Frequency::from_period_ps(0);
    }
}
