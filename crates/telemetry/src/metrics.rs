//! Named counters, gauges, and streaming histograms.
//!
//! Handles ([`Counter`], [`Gauge`], [`Histogram`]) are cheap to clone and
//! cheap to update: counters and gauges are single atomic adds, histograms
//! take a short mutex around a Welford accumulator plus a small
//! deterministic reservoir for tail quantiles. A handle obtained from a
//! disabled registry is a no-op, so instrumented code never branches on
//! "is telemetry on" itself.
//!
//! Histograms also double as scoped wall-clock timers via
//! [`Histogram::start_timer`]: the returned [`Timer`] observes the elapsed
//! nanoseconds when dropped (or [`Timer::stop`]ped), and costs nothing —
//! not even a clock read — on a no-op histogram. The simulator uses this
//! to self-profile its event dispatch loop per event kind.
//!
//! Metric names are sorted (`BTreeMap`) so snapshots render in a stable
//! order regardless of registration order.

use pqos_sim_core::stats::OnlineStats;
use pqos_sim_core::table::{fnum, Table};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Builds the canonical registry key for a labeled metric:
/// `name{k1="v1",k2="v2"}` with labels sorted by key and `\`, `"`, and
/// newlines escaped in values. Two call sites that pass the same labels in
/// any order therefore share one metric cell, and the exposition layer can
/// split the key back into name + label pairs unambiguously.
///
/// # Examples
///
/// ```
/// use pqos_telemetry::metrics::labeled;
///
/// assert_eq!(
///     labeled("rpc.stage_ns", &[("verb", "negotiate"), ("stage", "queue")]),
///     "rpc.stage_ns{stage=\"queue\",verb=\"negotiate\"}"
/// );
/// assert_eq!(labeled("plain", &[]), "plain");
/// ```
pub fn labeled(name: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return name.to_string();
    }
    let mut sorted: Vec<&(&str, &str)> = labels.iter().collect();
    sorted.sort_by_key(|(k, _)| *k);
    let mut out = String::with_capacity(name.len() + 16 * sorted.len());
    out.push_str(name);
    out.push('{');
    for (i, (k, v)) in sorted.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        for ch in v.chars() {
            match ch {
                '\\' => out.push_str("\\\\"),
                '"' => out.push_str("\\\""),
                '\n' => out.push_str("\\n"),
                c => out.push(c),
            }
        }
        out.push('"');
    }
    out.push('}');
    out
}

/// Splits a registry key produced by [`labeled`] back into its base name
/// and `(key, value)` label pairs (empty for unlabeled keys). Escapes in
/// label values are undone.
pub(crate) fn split_labeled(key: &str) -> (&str, Vec<(String, String)>) {
    let Some(brace) = key.find('{') else {
        return (key, Vec::new());
    };
    if !key.ends_with('}') {
        return (key, Vec::new());
    }
    let mut labels = Vec::new();
    let body = &key[brace + 1..key.len() - 1];
    let mut rest = body;
    while !rest.is_empty() {
        let Some(eq) = rest.find("=\"") else { break };
        let label_key = rest[..eq].to_string();
        let mut value = String::new();
        let mut chars = rest[eq + 2..].char_indices();
        let mut end = None;
        while let Some((i, ch)) = chars.next() {
            match ch {
                '\\' => match chars.next() {
                    Some((_, 'n')) => value.push('\n'),
                    Some((_, escaped)) => value.push(escaped),
                    None => break,
                },
                '"' => {
                    end = Some(eq + 2 + i);
                    break;
                }
                c => value.push(c),
            }
        }
        let Some(end) = end else { break };
        labels.push((label_key, value));
        rest = &rest[end + 1..];
        rest = rest.strip_prefix(',').unwrap_or(rest);
    }
    (&key[..brace], labels)
}

/// A monotonic counter. Cloning shares the underlying cell.
#[derive(Debug, Clone, Default)]
pub struct Counter(Option<Arc<AtomicU64>>);

impl Counter {
    /// A counter that ignores updates (what disabled telemetry hands out).
    pub(crate) fn noop() -> Self {
        Counter(None)
    }

    /// Increments by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increments by `n`.
    pub fn add(&self, n: u64) {
        if let Some(cell) = &self.0 {
            cell.fetch_add(n, Ordering::Relaxed);
        }
    }
}

/// A gauge holding the latest value of a signed quantity.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Option<Arc<AtomicI64>>);

impl Gauge {
    /// A gauge that ignores updates.
    pub(crate) fn noop() -> Self {
        Gauge(None)
    }

    /// Sets the value.
    pub fn set(&self, v: i64) {
        if let Some(cell) = &self.0 {
            cell.store(v, Ordering::Relaxed);
        }
    }
}

/// Maximum number of samples a histogram's quantile reservoir retains.
/// When full it is decimated to half and the keep-stride doubles, so the
/// reservoir is always a uniform systematic sample of the whole stream.
const RESERVOIR_CAPACITY: usize = 512;

/// A deterministic decimating reservoir: keeps every `stride`-th
/// observation, halving itself (and doubling the stride) whenever it
/// fills. No randomness, so identically fed histograms report identical
/// quantiles.
#[derive(Debug, Clone)]
struct Reservoir {
    samples: Vec<f64>,
    stride: u64,
    /// Observations to skip before the next one is kept.
    skip: u64,
}

impl Default for Reservoir {
    fn default() -> Self {
        Reservoir {
            samples: Vec::new(),
            stride: 1,
            skip: 0,
        }
    }
}

impl Reservoir {
    fn push(&mut self, x: f64) {
        if self.skip > 0 {
            self.skip -= 1;
            return;
        }
        self.samples.push(x);
        if self.samples.len() >= RESERVOIR_CAPACITY {
            // Keep every other retained sample; the survivors are exactly
            // the observations at multiples of the doubled stride.
            let mut keep = false;
            self.samples.retain(|_| {
                keep = !keep;
                keep
            });
            self.stride *= 2;
        }
        self.skip = self.stride - 1;
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) of the retained sample, or `None`
    /// when empty.
    fn quantile(&self, q: f64) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let idx = ((sorted.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
        Some(sorted[idx])
    }
}

/// Shared state behind an enabled histogram handle.
#[derive(Debug, Clone, Default)]
struct HistState {
    stats: OnlineStats,
    reservoir: Reservoir,
    /// A second reservoir covering only the observations since the last
    /// [`Histogram::take_window`], so windowed percentiles describe the
    /// window rather than the whole run. The cumulative `reservoir` above
    /// is untouched by resets.
    window: Reservoir,
    /// Observations since the last window reset.
    window_count: u64,
}

/// Percentiles of one histogram over its current window (the observations
/// since the last [`Histogram::take_window`] call).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct WindowSummary {
    /// Observations in the window.
    pub count: u64,
    /// Median of the window's reservoir.
    pub p50: f64,
    /// 90th percentile of the window's reservoir.
    pub p90: f64,
    /// 99th percentile of the window's reservoir.
    pub p99: f64,
}

/// A streaming histogram: Welford accumulator (count/mean/stddev/min/max)
/// plus a fixed-size deterministic reservoir for p50/p90/p99.
#[derive(Debug, Clone, Default)]
pub struct Histogram(Option<Arc<Mutex<HistState>>>);

impl Histogram {
    /// A histogram that ignores observations.
    pub(crate) fn noop() -> Self {
        Histogram(None)
    }

    /// Records one observation.
    pub fn observe(&self, x: f64) {
        if let Some(cell) = &self.0 {
            let mut state = cell.lock().expect("histogram lock");
            state.stats.push(x);
            state.reservoir.push(x);
            state.window.push(x);
            state.window_count += 1;
        }
    }

    /// Returns the percentiles of the observations since the previous call
    /// (or since creation) and starts a fresh window. `None` for a no-op
    /// histogram or an empty window. The cumulative reservoir snapshots
    /// read is unaffected.
    pub(crate) fn take_window(&self) -> Option<WindowSummary> {
        let cell = self.0.as_ref()?;
        let mut state = cell.lock().expect("histogram lock");
        let count = state.window_count;
        let summary = WindowSummary {
            count,
            p50: state.window.quantile(0.5)?,
            p90: state.window.quantile(0.9)?,
            p99: state.window.quantile(0.99)?,
        };
        state.window = Reservoir::default();
        state.window_count = 0;
        Some(summary)
    }

    /// Starts a scoped wall-clock timer. The elapsed time is recorded in
    /// **nanoseconds** when the returned guard drops (or is
    /// [`stop`](Timer::stop)ped). On a no-op histogram the clock is never
    /// read, so disabled instrumentation costs one branch.
    pub fn start_timer(&self) -> Timer {
        Timer {
            start: self.0.is_some().then(Instant::now),
            hist: self.clone(),
        }
    }
}

/// Guard returned by [`Histogram::start_timer`]; observes the elapsed
/// nanoseconds into its histogram when dropped.
#[derive(Debug)]
pub struct Timer {
    hist: Histogram,
    start: Option<Instant>,
}

impl Timer {
    /// Stops the timer now (equivalent to dropping it).
    pub fn stop(self) {}
}

impl Drop for Timer {
    fn drop(&mut self) {
        if let Some(start) = self.start.take() {
            self.hist.observe(start.elapsed().as_nanos() as f64);
        }
    }
}

/// The cell registered under `name` in `map`, made by `make` on first use.
/// A name already registered costs a lookup; only a new one is copied
/// into a `String`.
fn cell<T>(
    map: &Mutex<BTreeMap<String, Arc<T>>>,
    name: &str,
    make: impl FnOnce() -> Arc<T>,
) -> Arc<T> {
    let mut map = map.lock().expect("registry lock");
    if let Some(cell) = map.get(name) {
        return Arc::clone(cell);
    }
    Arc::clone(map.entry(name.to_owned()).or_insert_with(make))
}

/// The set of all named metrics for one telemetry instance.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    gauges: Mutex<BTreeMap<String, Arc<AtomicI64>>>,
    histograms: Mutex<BTreeMap<String, Arc<Mutex<HistState>>>>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the counter registered under `name`, creating it on first
    /// use. Repeated calls with the same name share one cell.
    pub fn counter(&self, name: &str) -> Counter {
        Counter(Some(cell(&self.counters, name, Arc::default)))
    }

    /// Returns the gauge registered under `name`, creating it on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        Gauge(Some(cell(&self.gauges, name, Arc::default)))
    }

    /// Returns the histogram registered under `name`, creating it on first
    /// use.
    pub fn histogram(&self, name: &str) -> Histogram {
        // OnlineStats::default() seeds min/max at 0.0; new() uses ±inf.
        Histogram(Some(cell(&self.histograms, name, || {
            Arc::new(Mutex::new(HistState {
                stats: OnlineStats::new(),
                reservoir: Reservoir::default(),
                window: Reservoir::default(),
                window_count: 0,
            }))
        })))
    }

    /// A point-in-time copy of every registered metric.
    pub fn snapshot(&self) -> Snapshot {
        let counters = self
            .counters
            .lock()
            .expect("registry lock")
            .iter()
            .map(|(name, cell)| (name.clone(), cell.load(Ordering::Relaxed)))
            .collect();
        let gauges = self
            .gauges
            .lock()
            .expect("registry lock")
            .iter()
            .map(|(name, cell)| (name.clone(), cell.load(Ordering::Relaxed)))
            .collect();
        let histograms = self
            .histograms
            .lock()
            .expect("registry lock")
            .iter()
            .map(|(name, cell)| {
                let state = cell.lock().expect("histogram lock");
                (name.clone(), HistogramSummary::from_state(&state))
            })
            .collect();
        Snapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

/// Upper bounds of the fixed cumulative bucket ladder every histogram
/// snapshot reports: `{1, 2.5, 5} × 10^k` for `k = 0..=9`. The last implied
/// bucket (`+Inf`) is the total count. Timer histograms observe
/// nanoseconds, so the ladder spans 1 ns to 5 s, which covers every
/// latency the daemon can plausibly record.
pub(crate) fn bucket_bounds() -> [f64; 30] {
    let mut bounds = [0.0; 30];
    let mut scale = 1.0;
    for k in 0..10 {
        bounds[3 * k] = scale;
        bounds[3 * k + 1] = 2.5 * scale;
        bounds[3 * k + 2] = 5.0 * scale;
        scale *= 10.0;
    }
    bounds
}

/// Condensed view of one histogram at snapshot time.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSummary {
    /// Number of observations.
    pub count: u64,
    /// Mean of the observations (0 when empty).
    pub mean: f64,
    /// Sample standard deviation (0 when empty).
    pub std_dev: f64,
    /// Smallest observation (0 when empty).
    pub min: f64,
    /// Largest observation (0 when empty).
    pub max: f64,
    /// Median estimate from the reservoir (0 when empty).
    pub p50: f64,
    /// 90th-percentile estimate from the reservoir (0 when empty).
    pub p90: f64,
    /// 99th-percentile estimate from the reservoir (0 when empty).
    pub p99: f64,
    /// Cumulative `(upper_bound, count ≤ bound)` pairs over the fixed
    /// ladder `{1, 2.5, 5} × 10^k`, `k = 0..=9`, estimated from the
    /// reservoir sample and scaled to the true count. Monotone
    /// nondecreasing; the implied `+Inf` bucket is
    /// [`count`](Self::count). Empty when the histogram is empty.
    pub buckets: Vec<(f64, u64)>,
}

impl HistogramSummary {
    fn from_state(state: &HistState) -> Self {
        let stats = &state.stats;
        if stats.count() == 0 {
            return HistogramSummary {
                count: 0,
                mean: 0.0,
                std_dev: 0.0,
                min: 0.0,
                max: 0.0,
                p50: 0.0,
                p90: 0.0,
                p99: 0.0,
                buckets: Vec::new(),
            };
        }
        let q = |q: f64| state.reservoir.quantile(q).unwrap_or(0.0);
        let mut sorted = state.reservoir.samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let total = stats.count();
        let retained = sorted.len().max(1) as f64;
        let mut prev = 0u64;
        let buckets = bucket_bounds()
            .iter()
            .map(|&bound| {
                let below = sorted.partition_point(|&x| x <= bound) as f64;
                let estimate = ((below / retained) * total as f64).round() as u64;
                prev = estimate.clamp(prev, total);
                (bound, prev)
            })
            .collect();
        HistogramSummary {
            count: total,
            mean: stats.mean(),
            std_dev: stats.std_dev(),
            min: stats.min().unwrap_or(0.0),
            max: stats.max().unwrap_or(0.0),
            p50: q(0.5),
            p90: q(0.9),
            p99: q(0.99),
            buckets,
        }
    }

    /// Approximate sum of all observations (`mean × count`), useful for
    /// "where does the time go" questions on timer histograms.
    pub fn total(&self) -> f64 {
        self.mean * self.count as f64
    }
}

/// A point-in-time copy of all metrics, detached from the registry.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Snapshot {
    /// Counter values, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Gauge values, sorted by name.
    pub gauges: Vec<(String, i64)>,
    /// Histogram summaries, sorted by name.
    pub histograms: Vec<(String, HistogramSummary)>,
}

impl Snapshot {
    /// Looks up a counter value by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Looks up a gauge value by name.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Looks up a histogram summary by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSummary> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// Renders every metric as one aligned plain-text table. Histogram rows
    /// carry tail quantiles and a total column (`mean × count`), so timer
    /// histograms directly answer "which of these costs the most".
    pub fn render(&self) -> String {
        let mut table = Table::new(vec![
            "metric".into(),
            "kind".into(),
            "value".into(),
            "mean".into(),
            "std".into(),
            "min".into(),
            "p50".into(),
            "p90".into(),
            "p99".into(),
            "max".into(),
            "total".into(),
        ]);
        let scalar = |name: &str, kind: &str, value: String| {
            let mut row = vec![name.to_string(), kind.to_string(), value];
            row.resize(11, String::new());
            row
        };
        for (name, v) in &self.counters {
            table.row(scalar(name, "counter", v.to_string()));
        }
        for (name, v) in &self.gauges {
            table.row(scalar(name, "gauge", v.to_string()));
        }
        for (name, h) in &self.histograms {
            table.row(vec![
                name.clone(),
                "histogram".into(),
                h.count.to_string(),
                fnum(h.mean, 4),
                fnum(h.std_dev, 4),
                fnum(h.min, 4),
                fnum(h.p50, 4),
                fnum(h.p90, 4),
                fnum(h.p99, 4),
                fnum(h.max, 4),
                fnum(h.total(), 4),
            ]);
        }
        table.render()
    }

    /// Serializes the snapshot as one JSON document:
    /// `{"counters":{..},"gauges":{..},"histograms":{name:{count,mean,..,buckets:[[bound,n],..]}}}`.
    /// This is the on-disk format `pqos-qosd --metrics-dump` writes and the
    /// doctor's journal cross-check reads back via [`Snapshot::from_json`].
    pub fn to_json(&self) -> String {
        use crate::json::ObjWriter;
        let mut counters = ObjWriter::new();
        for (name, v) in &self.counters {
            counters.u64(name, *v);
        }
        let mut gauges = ObjWriter::new();
        for (name, v) in &self.gauges {
            gauges.raw(name, &v.to_string());
        }
        let mut histograms = ObjWriter::new();
        for (name, h) in &self.histograms {
            let mut buckets = String::from("[");
            for (i, (bound, n)) in h.buckets.iter().enumerate() {
                if i > 0 {
                    buckets.push(',');
                }
                buckets.push_str(&format!("[{bound:?},{n}]"));
            }
            buckets.push(']');
            let mut entry = ObjWriter::new();
            entry
                .u64("count", h.count)
                .f64("mean", h.mean)
                .f64("std_dev", h.std_dev)
                .f64("min", h.min)
                .f64("max", h.max)
                .f64("p50", h.p50)
                .f64("p90", h.p90)
                .f64("p99", h.p99)
                .raw("buckets", &buckets);
            histograms.raw(name, &entry.finish());
        }
        let mut root = ObjWriter::new();
        root.raw("counters", &counters.finish())
            .raw("gauges", &gauges.finish())
            .raw("histograms", &histograms.finish());
        root.finish()
    }

    /// Parses a document produced by [`Snapshot::to_json`]. Returns `None`
    /// on any structural mismatch (missing sections, wrongly typed values).
    pub fn from_json(text: &str) -> Option<Snapshot> {
        use crate::json::Json;
        let root = Json::parse(text)?;
        let section = |key: &str| -> Option<Vec<(String, Json)>> {
            match root.get(key)? {
                Json::Obj(pairs) => Some(pairs.clone()),
                _ => None,
            }
        };
        let mut snapshot = Snapshot::default();
        for (name, v) in section("counters")? {
            snapshot.counters.push((name, v.as_u64()?));
        }
        for (name, v) in section("gauges")? {
            let Json::Num(raw) = &v else { return None };
            snapshot.gauges.push((name, raw.parse().ok()?));
        }
        for (name, v) in section("histograms")? {
            let f = |key: &str| v.get(key).and_then(Json::as_f64);
            let mut buckets = Vec::new();
            for pair in v.get("buckets")?.as_arr()? {
                let pair = pair.as_arr()?;
                if pair.len() != 2 {
                    return None;
                }
                buckets.push((pair[0].as_f64()?, pair[1].as_u64()?));
            }
            snapshot.histograms.push((
                name,
                HistogramSummary {
                    count: v.get("count").and_then(Json::as_u64)?,
                    mean: f("mean")?,
                    std_dev: f("std_dev")?,
                    min: f("min")?,
                    max: f("max")?,
                    p50: f("p50")?,
                    p90: f("p90")?,
                    p99: f("p99")?,
                    buckets,
                },
            ));
        }
        Some(snapshot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Readers only the tests need: production reads metrics through
    // `Snapshot`.
    impl Counter {
        fn get(&self) -> u64 {
            self.0.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
        }
    }

    impl Gauge {
        fn get(&self) -> i64 {
            self.0.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
        }
    }

    impl Histogram {
        fn stats(&self) -> OnlineStats {
            self.0
                .as_ref()
                .map(|c| c.lock().expect("histogram lock").stats)
                .unwrap_or_default()
        }

        fn quantile(&self, q: f64) -> Option<f64> {
            self.0
                .as_ref()
                .and_then(|c| c.lock().expect("histogram lock").reservoir.quantile(q))
        }
    }

    impl Snapshot {
        fn is_empty(&self) -> bool {
            self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
        }
    }

    #[test]
    fn take_window_reflects_the_window_not_the_run() {
        let registry = MetricsRegistry::new();
        let h = registry.histogram("quote.latency");
        for x in [1.0, 2.0, 3.0] {
            h.observe(x);
        }
        let w = h.take_window().unwrap();
        assert_eq!(w.count, 3);
        assert_eq!(w.p50, 2.0);
        // New window: only the fresh observations count...
        for x in [10.0, 20.0, 30.0] {
            h.observe(x);
        }
        let w = h.take_window().unwrap();
        assert_eq!(w.count, 3);
        assert_eq!(w.p50, 20.0);
        // ...while the cumulative reservoir still spans the whole run.
        assert_eq!(h.quantile(0.0), Some(1.0));
        assert_eq!(h.stats().count(), 6);
        // An empty window yields no summary.
        assert!(h.take_window().is_none());
        assert!(Histogram::noop().take_window().is_none());
    }

    #[test]
    fn counters_share_state_by_name() {
        let registry = MetricsRegistry::new();
        let a = registry.counter("sched.placements");
        let b = registry.counter("sched.placements");
        a.inc();
        b.add(4);
        assert_eq!(a.get(), 5);
        assert_eq!(registry.snapshot().counter("sched.placements"), Some(5));
    }

    #[test]
    fn gauges_hold_the_last_value_set() {
        let registry = MetricsRegistry::new();
        let g = registry.gauge("nodes.free");
        g.set(128);
        g.set(125);
        assert_eq!(g.get(), 125);
        assert_eq!(registry.snapshot().gauge("nodes.free"), Some(125));
    }

    #[test]
    fn histograms_accumulate() {
        let registry = MetricsRegistry::new();
        let h = registry.histogram("ckpt.pf");
        for x in [1.0, 2.0, 3.0] {
            h.observe(x);
        }
        let snap = registry.snapshot();
        let summary = snap.histogram("ckpt.pf").expect("registered");
        assert_eq!(summary.count, 3);
        assert!((summary.mean - 2.0).abs() < 1e-12);
        assert_eq!(summary.min, 1.0);
        assert_eq!(summary.max, 3.0);
    }

    #[test]
    fn noop_handles_ignore_everything() {
        let c = Counter::noop();
        c.inc();
        assert_eq!(c.get(), 0);
        let g = Gauge::noop();
        g.set(9);
        assert_eq!(g.get(), 0);
        let h = Histogram::noop();
        h.observe(1.0);
        assert_eq!(h.stats().count(), 0);
    }

    #[test]
    fn snapshot_is_sorted_and_renders() {
        let registry = MetricsRegistry::new();
        registry.counter("zeta").inc();
        registry.counter("alpha").inc();
        registry.gauge("mid").set(1);
        registry.histogram("hist").observe(0.5);
        let snap = registry.snapshot();
        let names: Vec<&str> = snap.counters.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["alpha", "zeta"], "BTreeMap order");
        let text = snap.render();
        assert!(text.contains("alpha"));
        assert!(text.contains("histogram"));
        assert!(!snap.is_empty());
        assert!(Snapshot::default().is_empty());
    }

    #[test]
    fn empty_histogram_summarizes_to_zeros() {
        let registry = MetricsRegistry::new();
        let _ = registry.histogram("empty");
        let snap = registry.snapshot();
        let h = snap.histogram("empty").unwrap();
        assert_eq!(h.count, 0);
        assert_eq!(h.mean, 0.0);
        assert_eq!(h.p99, 0.0);
    }

    #[test]
    fn small_histogram_quantiles_are_exact() {
        let registry = MetricsRegistry::new();
        let h = registry.histogram("lat");
        for x in 1..=100 {
            h.observe(x as f64);
        }
        // Below reservoir capacity every sample is retained.
        assert_eq!(h.quantile(0.0), Some(1.0));
        assert_eq!(h.quantile(1.0), Some(100.0));
        let p50 = h.quantile(0.5).unwrap();
        assert!((49.0..=52.0).contains(&p50), "p50 {p50}");
        let snap = registry.snapshot();
        let s = snap.histogram("lat").unwrap();
        assert!((s.p90 - 90.0).abs() <= 2.0, "p90 {}", s.p90);
        assert!((s.p99 - 99.0).abs() <= 2.0, "p99 {}", s.p99);
        assert!((s.total() - 5050.0).abs() < 1e-6);
    }

    #[test]
    fn large_histogram_quantiles_stay_bounded_and_sane() {
        // 100k observations of a known shape: uniform 0..1000. The
        // decimating reservoir must stay within capacity and still place
        // p50/p90 near the true quantiles.
        let registry = MetricsRegistry::new();
        let h = registry.histogram("big");
        for i in 0..100_000u64 {
            // Deterministic low-discrepancy-ish sequence over [0, 1000).
            h.observe(((i * 617) % 1000) as f64);
        }
        let p50 = h.quantile(0.5).unwrap();
        let p90 = h.quantile(0.9).unwrap();
        assert!((p50 - 500.0).abs() < 50.0, "p50 {p50}");
        assert!((p90 - 900.0).abs() < 50.0, "p90 {p90}");
        assert!(h.quantile(0.99).unwrap() <= 1000.0);
    }

    #[test]
    fn identical_streams_give_identical_quantiles() {
        let feed = |h: &Histogram| {
            for i in 0..10_000u64 {
                h.observe(((i * 7919) % 4096) as f64);
            }
        };
        let r1 = MetricsRegistry::new();
        let r2 = MetricsRegistry::new();
        let h1 = r1.histogram("x");
        let h2 = r2.histogram("x");
        feed(&h1);
        feed(&h2);
        for q in [0.5, 0.9, 0.99] {
            assert_eq!(h1.quantile(q), h2.quantile(q), "q={q}");
        }
    }

    #[test]
    fn timer_records_elapsed_nanos() {
        let registry = MetricsRegistry::new();
        let h = registry.histogram("dispatch.arrival");
        {
            let _t = h.start_timer();
            std::hint::black_box(());
        }
        let t = h.start_timer();
        t.stop();
        assert_eq!(h.stats().count(), 2);
        assert!(h.stats().min().unwrap() >= 0.0);
    }

    #[test]
    fn timer_on_noop_histogram_records_nothing() {
        let h = Histogram::noop();
        {
            let _t = h.start_timer();
        }
        assert_eq!(h.stats().count(), 0);
        assert_eq!(h.quantile(0.5), None);
    }

    #[test]
    fn labeled_keys_are_canonical_and_split_back() {
        // Label order never matters: both spellings hit the same cell.
        let a = labeled("rpc.stage_ns", &[("verb", "quote"), ("stage", "queue")]);
        let b = labeled("rpc.stage_ns", &[("stage", "queue"), ("verb", "quote")]);
        assert_eq!(a, b);
        assert_eq!(a, "rpc.stage_ns{stage=\"queue\",verb=\"quote\"}");
        let (name, labels) = split_labeled(&a);
        assert_eq!(name, "rpc.stage_ns");
        assert_eq!(
            labels,
            vec![
                ("stage".to_string(), "queue".to_string()),
                ("verb".to_string(), "quote".to_string()),
            ]
        );
        // Escaping survives a round trip.
        let tricky = labeled("m", &[("k", "a\"b\\c\nd")]);
        let (_, labels) = split_labeled(&tricky);
        assert_eq!(labels[0].1, "a\"b\\c\nd");
        // Unlabeled keys pass through untouched.
        assert_eq!(split_labeled("plain.name"), ("plain.name", Vec::new()));
    }

    #[test]
    fn bucket_ladder_is_strictly_increasing() {
        let bounds = bucket_bounds();
        assert_eq!(bounds.len(), 30);
        assert_eq!(bounds[0], 1.0);
        assert_eq!(bounds[1], 2.5);
        assert!(bounds.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn summary_buckets_are_monotone_and_bounded_by_count() {
        let registry = MetricsRegistry::new();
        let h = registry.histogram("lat");
        for i in 0..5_000u64 {
            h.observe(((i * 617) % 1_000_000 + 10) as f64);
        }
        let snap = registry.snapshot();
        let s = snap.histogram("lat").unwrap();
        assert_eq!(s.buckets.len(), 30);
        let counts: Vec<u64> = s.buckets.iter().map(|(_, n)| *n).collect();
        assert!(counts.windows(2).all(|w| w[0] <= w[1]), "monotone");
        assert!(counts.iter().all(|&n| n <= s.count));
        // Bounds above the max observation must cover (nearly) everything;
        // the estimate is exact at the top because every sample is <= max.
        let (_, top) = s.buckets.last().unwrap();
        assert_eq!(*top, s.count, "last bound (5e9) covers all samples");
        // Bounds below the minimum observation (10) hold nothing.
        assert_eq!(s.buckets[0].1, 0, "no sample is <= 1.0");
        assert_eq!(s.buckets[2].1, 0, "no sample is <= 5.0");
    }

    #[test]
    fn snapshot_json_round_trips() {
        let registry = MetricsRegistry::new();
        registry.counter("session.quotes").add(42);
        registry.gauge("engine.queue_depth").set(-3);
        let h = registry.histogram(&labeled("rpc.stage_ns", &[("stage", "queue")]));
        for x in [10.0, 20.0, 30.0] {
            h.observe(x);
        }
        let snap = registry.snapshot();
        let text = snap.to_json();
        let back = Snapshot::from_json(&text).expect("parses back");
        assert_eq!(back, snap, "lossless round trip");
        // Malformed documents are rejected, not half-parsed.
        assert!(Snapshot::from_json("{}").is_none());
        assert!(Snapshot::from_json("not json").is_none());
        assert!(
            Snapshot::from_json(r#"{"counters":{"x":"y"},"gauges":{},"histograms":{}}"#).is_none()
        );
    }
}
