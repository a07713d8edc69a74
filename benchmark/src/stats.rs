//! Estimators: nearest-rank percentiles, medians, and the quartile
//! spread the acceptance rule is stated in. The windowing itself lives
//! with the served drivers (`serve::Fold`), which fold as replies arrive.

/// Nearest-rank percentile of an ascending slice (`q` in `[0, 1]`).
/// An empty slice has no percentile; callers report 0 for it.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts in place and returns the slice for percentile queries.
pub fn sorted(values: &mut [f64]) -> &[f64] {
    values.sort_by(f64::total_cmp);
    values
}

/// Median (mean of the two middle values for even counts); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    let v = sorted(&mut v);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The quiet quarter of per-slice costs (times, CPU per operation):
/// the mean of the lowest quarter of the values, at least one. The
/// sandbox is a few cores of a shared host, and whatever the neighbours
/// do only ever *adds* time to a slice — for seconds on end, by half as
/// much again — so when every slice does the same work, the slices on the
/// quiet side say what the program costs and the rest say what the host
/// was doing. A mean over a quarter rather than the minimum, so that no
/// single slice is the estimate; the quiet quarter rather than the
/// median, so that the estimate holds while up to three slices in four
/// are disturbed.
pub fn quiet_low(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    let v = sorted(&mut v);
    let quarter = &v[..v.len().div_ceil(4)];
    quarter.iter().sum::<f64>() / quarter.len().max(1) as f64
}

/// The quiet quarter of per-slice rates: the mean of the highest quarter.
pub fn quiet_high(values: &[f64]) -> f64 {
    let negated: Vec<f64> = values.iter().map(|v| -v).collect();
    -quiet_low(&negated)
}

/// Total time and call count of one timed operation of a lane.
#[derive(Debug, Default, Clone, Copy)]
pub struct Cost {
    total_ns: u128,
    calls: u64,
}

impl Cost {
    /// Runs `work`, charging its wall time to this cost.
    pub fn time<T>(&mut self, work: impl FnOnce() -> T) -> T {
        let start = std::time::Instant::now();
        let out = work();
        self.total_ns += start.elapsed().as_nanos();
        self.calls += 1;
        out
    }

    /// Charges one timed batch of `calls` calls.
    pub fn time_batch<T>(&mut self, calls: u64, work: impl FnOnce() -> T) -> T {
        let out = self.time(work);
        self.calls += calls - 1;
        out
    }

    pub fn calls(&self) -> u64 {
        self.calls
    }

    /// Mean ns per call; 0 when nothing was timed.
    pub fn mean_ns(&self) -> f64 {
        self.total_ns as f64 / self.calls.max(1) as f64
    }
}

/// Python's `statistics.quantiles(values, n=4)` (exclusive method): the
/// three quartile cut points. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    let v = sorted(&mut v);
    let n = v.len();
    let m = n + 1;
    let mut out = [0.0; 3];
    for (k, slot) in out.iter_mut().enumerate() {
        let i = k + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Distance between the first and third quartile as a share of the
/// median — the spread the benchmark contract bounds.
pub fn quartile_spread(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn median_handles_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quiet_quarters_ignore_the_disturbed_side() {
        // Five slices at the program's own cost, seven slowed by the host.
        let cost = [
            10.0, 31.0, 10.2, 14.0, 10.4, 25.0, 13.0, 10.6, 40.0, 10.8, 22.0, 18.0,
        ];
        assert_eq!(quiet_low(&cost), (10.0 + 10.2 + 10.4) / 3.0);
        assert_eq!(quiet_high(&cost), (40.0 + 31.0 + 25.0) / 3.0);
        // Fewer than four values: the best one.
        assert_eq!(quiet_low(&[3.0, 2.0]), 2.0);
        assert_eq!(quiet_high(&[7.0]), 7.0);
        assert_eq!(quiet_low(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), Some([7.5, 15.0, 22.5]));
        assert_eq!(quartile_spread(&v), Some(1.0));
        assert_eq!(quartiles(&[1.0]), None);
    }
}
