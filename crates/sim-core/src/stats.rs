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

/// Retained-sample summary supporting exact quantiles.
///
/// Keeps all samples; suitable for the 10⁴–10⁵ observations produced per
/// simulation run.
///
/// # Examples
///
/// ```
/// use pqos_sim_core::stats::Summary;
///
/// let mut s: Summary = (1..=100).map(f64::from).collect();
/// assert_eq!(s.quantile(0.5), Some(50.5));
/// assert_eq!(s.quantile(0.0), Some(1.0));
/// assert_eq!(s.quantile(1.0), Some(100.0));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Summary {
    samples: Vec<f64>,
    sorted: bool,
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Summary::default()
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.samples.push(x);
        self.sorted = false;
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no observations have been added.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Linear-interpolated quantile `q ∈ [0, 1]`, or `None` if empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]` or NaN.
    pub fn quantile(&mut self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
        if self.samples.is_empty() {
            return None;
        }
        if !self.sorted {
            self.samples
                .sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
            self.sorted = true;
        }
        let n = self.samples.len();
        let pos = q * (n - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let frac = pos - lo as f64;
        Some(self.samples[lo] * (1.0 - frac) + self.samples[hi] * frac)
    }

    /// Median (the 0.5 quantile).
    pub fn median(&mut self) -> Option<f64> {
        self.quantile(0.5)
    }

    /// Arithmetic mean, or `None` if empty.
    pub fn mean(&self) -> Option<f64> {
        if self.samples.is_empty() {
            None
        } else {
            Some(self.samples.iter().sum::<f64>() / self.samples.len() as f64)
        }
    }
}

impl Extend<f64> for Summary {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        self.samples.extend(iter);
        self.sorted = false;
    }
}

impl FromIterator<f64> for Summary {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        Summary {
            samples: iter.into_iter().collect(),
            sorted: false,
        }
    }
}

/// Fixed-width histogram over `[lo, hi)` with overflow/underflow buckets.
///
/// # Examples
///
/// ```
/// use pqos_sim_core::stats::Histogram;
///
/// let mut h = Histogram::new(0.0, 10.0, 5);
/// h.push(1.0);
/// h.push(3.0);
/// h.push(3.5);
/// h.push(-1.0); // underflow
/// h.push(99.0); // overflow
/// let counts: Vec<u64> = h.iter().map(|(_, count)| count).collect();
/// assert_eq!(counts, [1, 2, 0, 0, 0]);
/// assert_eq!(h.underflow(), 1);
/// assert_eq!(h.overflow(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    buckets: Vec<u64>,
    underflow: u64,
    overflow: u64,
}

impl Histogram {
    /// Creates a histogram over `[lo, hi)` with `n` equal-width buckets.
    ///
    /// # Panics
    ///
    /// Panics if `hi <= lo` or `n == 0`.
    pub fn new(lo: f64, hi: f64, n: usize) -> Self {
        assert!(hi > lo && n > 0, "invalid histogram bounds");
        Histogram {
            lo,
            hi,
            buckets: vec![0; n],
            underflow: 0,
            overflow: 0,
        }
    }

    /// Records an observation.
    pub fn push(&mut self, x: f64) {
        if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let w = (self.hi - self.lo) / self.buckets.len() as f64;
            let idx = ((x - self.lo) / w) as usize;
            let idx = idx.min(self.buckets.len() - 1);
            self.buckets[idx] += 1;
        }
    }

    /// Observations below the range.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Observations at or above the upper bound.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Total observations, including out-of-range ones.
    pub fn total(&self) -> u64 {
        self.buckets.iter().sum::<u64>() + self.underflow + self.overflow
    }

    /// Iterator over `(bucket_lower_bound, count)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (f64, u64)> + '_ {
        let w = (self.hi - self.lo) / self.buckets.len() as f64;
        self.buckets
            .iter()
            .enumerate()
            .map(move |(i, &c)| (self.lo + w * i as f64, c))
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
    fn summary_quantiles_interpolate() {
        let mut s: Summary = [10.0, 20.0].into_iter().collect();
        assert_eq!(s.quantile(0.5), Some(15.0));
        assert_eq!(s.median(), Some(15.0));
        assert_eq!(s.mean(), Some(15.0));
    }

    #[test]
    fn summary_empty() {
        let mut s = Summary::new();
        assert!(s.is_empty());
        assert_eq!(s.quantile(0.5), None);
        assert_eq!(s.mean(), None);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn summary_rejects_bad_quantile() {
        let mut s: Summary = [1.0].into_iter().collect();
        let _ = s.quantile(1.5);
    }

    #[test]
    fn histogram_buckets_edges() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        h.push(0.0);
        h.push(9.999);
        h.push(10.0); // exactly hi -> overflow
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.total(), 3);
        let bins: Vec<_> = h.iter().collect();
        assert_eq!(bins.len(), 10);
        assert_eq!(bins[0], (0.0, 1));
        assert_eq!(bins[9].1, 1);
    }

    #[test]
    fn display_is_nonempty() {
        let s: OnlineStats = [1.0].into_iter().collect();
        assert!(!s.to_string().is_empty());
    }
}
