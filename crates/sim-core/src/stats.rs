//! Streaming statistics used when characterizing workloads, failure traces,
//! and simulation outputs.

use std::fmt;

/// Single-pass mean/variance accumulator (Welford's algorithm).
///
/// # Examples
///
/// ```
/// use pqos_sim_core::stats::OnlineStats;
///
/// let mut s = OnlineStats::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     s.push(x);
/// }
/// assert_eq!(s.count(), 8);
/// assert!((s.mean() - 5.0).abs() < 1e-12);
/// assert!((s.population_variance() - 4.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean, or 0 if empty.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population variance (divides by `n`), or 0 if empty.
    pub fn population_variance(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.population_variance().sqrt()
    }

    /// Smallest observation, or `None` if empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation, or `None` if empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl Extend<f64> for OnlineStats {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for x in iter {
            self.push(x);
        }
    }
}

impl FromIterator<f64> for OnlineStats {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut s = OnlineStats::new();
        s.extend(iter);
        s
    }
}

impl fmt::Display for OnlineStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.4} sd={:.4} min={:.4} max={:.4}",
            self.count,
            self.mean,
            self.std_dev(),
            if self.count > 0 { self.min } else { f64::NAN },
            if self.count > 0 { self.max } else { f64::NAN },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_stats_empty_is_safe() {
        let s = OnlineStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.population_variance(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
    }

    #[test]
    fn online_stats_merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let all: OnlineStats = xs.iter().copied().collect();
        let mut left: OnlineStats = xs[..37].iter().copied().collect();
        let right: OnlineStats = xs[37..].iter().copied().collect();
        left.merge(&right);
        assert_eq!(left.count(), all.count());
        assert!((left.mean() - all.mean()).abs() < 1e-9);
        assert!((left.population_variance() - all.population_variance()).abs() < 1e-9);
        assert_eq!(left.min(), all.min());
        assert_eq!(left.max(), all.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a: OnlineStats = [1.0, 2.0, 3.0].into_iter().collect();
        let before = a;
        a.merge(&OnlineStats::new());
        assert_eq!(a, before);
        let mut e = OnlineStats::new();
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    fn display_is_nonempty() {
        let s: OnlineStats = [1.0].into_iter().collect();
        assert!(!s.to_string().is_empty());
    }
}
