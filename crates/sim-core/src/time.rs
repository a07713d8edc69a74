//! Virtual time for discrete-event simulation.
//!
//! All quantities in the paper are expressed in seconds (checkpoint overhead
//! `C = 720 s`, interval `I = 3600 s`, node downtime `120 s`), so simulation
//! time is an integer number of seconds since the start of the simulated
//! epoch. Integer time keeps event ordering exact and replays deterministic.

use std::fmt;
use std::ops::{Add, AddAssign, Sub, SubAssign};

/// An instant in virtual time, in whole seconds since the simulation epoch.
///
/// `SimTime` is an absolute point on the timeline; [`SimDuration`] is a
/// length of time. The two are kept distinct so that nonsensical operations
/// (adding two instants, for example) do not type-check.
///
/// # Examples
///
/// ```
/// use pqos_sim_core::time::{SimTime, SimDuration};
///
/// let t = SimTime::from_secs(100);
/// let later = t + SimDuration::from_secs(20);
/// assert_eq!(later.as_secs(), 120);
/// assert_eq!(later - t, SimDuration::from_secs(20));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of virtual time, in whole seconds.
///
/// # Examples
///
/// ```
/// use pqos_sim_core::time::SimDuration;
///
/// let hour = SimDuration::from_secs(3600);
/// assert_eq!(hour * 2, SimDuration::from_secs(7200));
/// assert_eq!(hour.as_secs(), 3600);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation epoch (`t = 0`).
    pub const ZERO: SimTime = SimTime(0);
    /// The far future; useful as a sentinel for "never".
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant `secs` seconds after the epoch.
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs)
    }

    /// Seconds since the simulation epoch.
    pub const fn as_secs(self) -> u64 {
        self.0
    }

    /// Duration elapsed since `earlier`, or zero if `earlier` is later.
    ///
    /// This is the saturating counterpart of `self - earlier` and never
    /// panics.
    ///
    /// # Examples
    ///
    /// ```
    /// use pqos_sim_core::time::{SimTime, SimDuration};
    /// let a = SimTime::from_secs(5);
    /// let b = SimTime::from_secs(9);
    /// assert_eq!(b.saturating_since(a), SimDuration::from_secs(4));
    /// assert_eq!(a.saturating_since(b), SimDuration::ZERO);
    /// ```
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Adds a duration, saturating at [`SimTime::MAX`] instead of
    /// overflowing.
    pub fn saturating_add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }

    /// Subtracts a duration, saturating at the epoch instead of
    /// underflowing.
    ///
    /// # Examples
    ///
    /// ```
    /// use pqos_sim_core::time::{SimTime, SimDuration};
    /// let t = SimTime::from_secs(100);
    /// assert_eq!(t.saturating_sub(SimDuration::from_secs(30)).as_secs(), 70);
    /// assert_eq!(t.saturating_sub(SimDuration::from_secs(500)), SimTime::ZERO);
    /// ```
    pub fn saturating_sub(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(d.0))
    }
}

impl SimDuration {
    /// The empty duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The longest representable duration.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Creates a duration of `secs` seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs)
    }

    /// Creates a duration of `h` hours.
    pub const fn from_hours(h: u64) -> Self {
        SimDuration(h * 3600)
    }

    /// Creates a duration of `d` days.
    pub const fn from_days(d: u64) -> Self {
        SimDuration(d * 86_400)
    }

    /// Length in seconds.
    pub const fn as_secs(self) -> u64 {
        self.0
    }

    /// Length in (fractional) hours.
    pub fn as_hours_f64(self) -> f64 {
        self.0 as f64 / 3600.0
    }

    /// Whether this is the zero duration.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating addition: `self + other`, capped at [`SimDuration::MAX`].
    pub fn saturating_add(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(other.0))
    }

    /// Multiplies by an integer factor, saturating on overflow.
    pub fn saturating_mul(self, k: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(k))
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

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0 - rhs.0)
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
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 -= rhs.0;
    }
}

/// A half-open interval of virtual time `[start, end)`.
///
/// Failure predictions in the paper are always asked over a window: "the
/// probability of failure of a partition within a certain future time
/// frame" (§3.1).
///
/// # Examples
///
/// ```
/// use pqos_sim_core::time::{SimTime, SimDuration, TimeWindow};
///
/// let w = TimeWindow::new(SimTime::from_secs(10), SimTime::from_secs(20));
/// assert!(w.contains(SimTime::from_secs(10)));
/// assert!(!w.contains(SimTime::from_secs(20)));
/// assert_eq!(w.length(), SimDuration::from_secs(10));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimeWindow {
    start: SimTime,
    end: SimTime,
}

impl TimeWindow {
    /// Creates the window `[start, end)`. An inverted window is normalized
    /// to the empty window `[start, start)`.
    pub fn new(start: SimTime, end: SimTime) -> Self {
        TimeWindow {
            start,
            end: end.max(start),
        }
    }

    /// Creates the window `[start, start + length)`.
    pub fn starting_at(start: SimTime, length: SimDuration) -> Self {
        TimeWindow {
            start,
            end: start.saturating_add(length),
        }
    }

    /// Window start (inclusive).
    pub fn start(self) -> SimTime {
        self.start
    }

    /// Window end (exclusive).
    pub fn end(self) -> SimTime {
        self.end
    }

    /// Window length.
    pub fn length(self) -> SimDuration {
        self.end - self.start
    }

    /// Whether the window contains no instants.
    pub fn is_empty(self) -> bool {
        self.start == self.end
    }

    /// Whether `t` lies inside `[start, end)`.
    pub fn contains(self, t: SimTime) -> bool {
        t >= self.start && t < self.end
    }
}

impl fmt::Display for TimeWindow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}s, {}s)", self.start.as_secs(), self.end.as_secs())
    }
}

impl std::ops::Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl std::ops::Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={}s", self.0)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}s", self.0)
    }
}

impl From<u64> for SimDuration {
    fn from(secs: u64) -> Self {
        SimDuration(secs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic_round_trips() {
        let t = SimTime::from_secs(10);
        let d = SimDuration::from_secs(32);
        assert_eq!((t + d) - d, t);
        assert_eq!((t + d) - t, d);
    }

    #[test]
    fn saturating_since_clamps_to_zero() {
        let a = SimTime::from_secs(10);
        let b = SimTime::from_secs(4);
        assert_eq!(a.saturating_since(b).as_secs(), 6);
        assert_eq!(b.saturating_since(a), SimDuration::ZERO);
    }

    #[test]
    fn saturating_add_does_not_overflow() {
        let t = SimTime::MAX;
        assert_eq!(t.saturating_add(SimDuration::from_secs(5)), SimTime::MAX);
    }

    #[test]
    fn duration_conversions() {
        assert_eq!(SimDuration::from_hours(2).as_secs(), 7200);
        assert_eq!(SimDuration::from_days(1).as_secs(), 86_400);
        assert!((SimDuration::from_secs(1800).as_hours_f64() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn min_max_order_correctly() {
        let a = SimTime::from_secs(3);
        let b = SimTime::from_secs(7);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        let x = SimDuration::from_secs(3);
        let y = SimDuration::from_secs(7);
        assert_eq!(x.max(y), y);
        assert_eq!(x.min(y), x);
    }

    #[test]
    fn duration_scalar_ops() {
        let d = SimDuration::from_secs(100);
        assert_eq!(d * 3, SimDuration::from_secs(300));
        assert_eq!(d / 4, SimDuration::from_secs(25));
        assert_eq!(d.saturating_mul(u64::MAX), SimDuration::MAX);
    }

    #[test]
    fn display_formats() {
        assert_eq!(SimTime::from_secs(42).to_string(), "t=42s");
        assert_eq!(SimDuration::from_secs(42).to_string(), "42s");
    }

    #[test]
    fn window_normalizes_inverted_bounds() {
        let w = TimeWindow::new(SimTime::from_secs(20), SimTime::from_secs(10));
        assert!(w.is_empty());
        assert_eq!(w.length(), SimDuration::ZERO);
        assert!(!w.contains(SimTime::from_secs(20)));
    }

    #[test]
    fn window_starting_at() {
        let w = TimeWindow::starting_at(SimTime::from_secs(5), SimDuration::from_secs(10));
        assert_eq!(w.start(), SimTime::from_secs(5));
        assert_eq!(w.end(), SimTime::from_secs(15));
        assert!(w.contains(SimTime::from_secs(14)));
        assert!(!w.contains(SimTime::from_secs(4)));
        assert!(!w.to_string().is_empty());
    }

    #[test]
    fn window_saturates_at_max() {
        let w = TimeWindow::starting_at(SimTime::MAX, SimDuration::from_secs(10));
        assert!(w.is_empty());
    }
}
