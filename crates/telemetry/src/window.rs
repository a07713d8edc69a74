//! Windowed health history: folds the metrics registry into a ring of
//! fixed-width time windows per metric family.
//!
//! A sampler (the daemon's history thread) calls [`WindowStore::sample`]
//! once per wall-clock window. Counters become per-window deltas
//! (`kind: "rate"`), gauges become point-in-time values (`kind: "gauge"`),
//! and histograms become windowed percentiles (`kind: "p50"|"p90"|"p99"`,
//! via `Histogram::take_window`, so a quiet window reports the window —
//! not the lifetime — distribution). The store keeps the last `W` windows
//! per family and serves them as JSON to the `history` protocol verb, the
//! `/history` HTTP route, and the `pqos-top` sparklines.
//!
//! This plane is wall-clock driven and deliberately *outside* the
//! deterministic core: replay skips `history` requests, and nothing here
//! feeds back into scheduling or the SLO alert evaluator (which runs on
//! virtual-time windows in [`crate::slo`]).

use crate::handle::Telemetry;
use crate::json::ObjWriter;
use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::Mutex;

/// Default number of windows retained per family.
pub const DEFAULT_WINDOW_CAPACITY: usize = 120;

#[derive(Debug)]
struct Family {
    kind: &'static str,
    /// Sequence number of the first retained point.
    start_seq: u64,
    /// One point per window since `start_seq`; `None` marks a window with
    /// no data (e.g. an idle histogram).
    points: VecDeque<Option<f64>>,
}

#[derive(Debug, Default)]
struct Inner {
    /// Windows sampled so far; the next sample gets this sequence number.
    seq: u64,
    families: BTreeMap<String, Family>,
    /// Last absolute counter values, for delta computation.
    last_counters: BTreeMap<String, u64>,
}

/// Ring of the last `W` windows for every metric family.
#[derive(Debug)]
pub struct WindowStore {
    capacity: usize,
    window_ms: u64,
    inner: Mutex<Inner>,
}

impl WindowStore {
    /// A store retaining `capacity` windows of `window_ms` each.
    pub fn new(capacity: usize, window_ms: u64) -> Self {
        WindowStore {
            capacity: capacity.max(1),
            window_ms: window_ms.max(1),
            inner: Mutex::new(Inner::default()),
        }
    }

    /// Configured window width in milliseconds.
    pub fn window_ms(&self) -> u64 {
        self.window_ms
    }

    /// Folds one sampling pass over the registry into the ring: counter
    /// deltas, gauge values, and windowed histogram percentiles. A no-op
    /// when telemetry is disabled.
    pub fn sample(&self, telemetry: &Telemetry) {
        let Some(snap) = telemetry.snapshot() else {
            return;
        };
        let mut inner = self.inner.lock().expect("window store poisoned");
        let seq = inner.seq;
        inner.seq += 1;
        for (name, value) in &snap.counters {
            let prev = inner
                .last_counters
                .insert(name.clone(), *value)
                .unwrap_or(0);
            let delta = value.saturating_sub(prev);
            self.push(&mut inner, name.clone(), "rate", seq, Some(delta as f64));
        }
        for (name, value) in &snap.gauges {
            self.push(&mut inner, name.clone(), "gauge", seq, Some(*value as f64));
        }
        for (name, _) in &snap.histograms {
            let window = telemetry.histogram(name).take_window();
            for (suffix, kind, value) in [
                (".p50", "p50", window.map(|w| w.p50)),
                (".p90", "p90", window.map(|w| w.p90)),
                (".p99", "p99", window.map(|w| w.p99)),
            ] {
                self.push(&mut inner, format!("{name}{suffix}"), kind, seq, value);
            }
        }
    }

    fn push(
        &self,
        inner: &mut Inner,
        name: String,
        kind: &'static str,
        seq: u64,
        value: Option<f64>,
    ) {
        let family = inner.families.entry(name).or_insert(Family {
            kind,
            start_seq: seq,
            points: VecDeque::new(),
        });
        // Pad windows this family missed (it appeared after the store
        // started, or the registry skipped it) so points stay aligned.
        while family.start_seq + (family.points.len() as u64) < seq {
            family.points.push_back(None);
        }
        family.points.push_back(value);
        while family.points.len() > self.capacity {
            family.points.pop_front();
            family.start_seq += 1;
        }
    }

    /// Serializes the full ring as one JSON object:
    /// `{"history":true,"window_ms":..,"windows":..,"families":[{"name":..,
    /// "kind":..,"start":..,"points":[..]} ...]}` where `points[i]` covers
    /// window `start + i` and `null` marks a window with no data.
    pub fn to_json(&self) -> String {
        let inner = self.inner.lock().expect("window store poisoned");
        let mut families = String::from("[");
        for (i, (name, family)) in inner.families.iter().enumerate() {
            if i > 0 {
                families.push(',');
            }
            let mut points = String::from("[");
            for (j, point) in family.points.iter().enumerate() {
                if j > 0 {
                    points.push(',');
                }
                match point {
                    Some(v) if v.is_finite() => {
                        let _ = write!(points, "{v:?}");
                    }
                    _ => points.push_str("null"),
                }
            }
            points.push(']');
            let mut w = ObjWriter::new();
            w.str("name", name)
                .str("kind", family.kind)
                .u64("start", family.start_seq)
                .raw("points", &points);
            families.push_str(&w.finish());
        }
        families.push(']');
        let mut w = ObjWriter::new();
        w.bool("history", true)
            .u64("window_ms", self.window_ms)
            .u64("windows", inner.seq)
            .raw("families", &families);
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn telemetry() -> Telemetry {
        Telemetry::builder().build()
    }

    #[test]
    fn counters_become_deltas_and_gauges_points() {
        let t = telemetry();
        let store = WindowStore::new(8, 1000);
        t.counter("reqs").add(5);
        t.gauge("depth").set(3);
        store.sample(&t);
        t.counter("reqs").add(7);
        t.gauge("depth").set(1);
        store.sample(&t);

        let v = Json::parse(&store.to_json()).unwrap();
        assert_eq!(v.get("history").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("windows").unwrap().as_u64(), Some(2));
        let fams = v.get("families").unwrap().as_arr().unwrap();
        let find = |name: &str| {
            fams.iter()
                .find(|f| f.get("name").unwrap().as_str() == Some(name))
                .unwrap()
        };
        let reqs: Vec<f64> = find("reqs")
            .get("points")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|p| p.as_f64().unwrap())
            .collect();
        assert_eq!(reqs, vec![5.0, 7.0]);
        let depth: Vec<f64> = find("depth")
            .get("points")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|p| p.as_f64().unwrap())
            .collect();
        assert_eq!(depth, vec![3.0, 1.0]);
    }

    #[test]
    fn histograms_report_windowed_percentiles_and_idle_windows_are_null() {
        let t = telemetry();
        let store = WindowStore::new(8, 1000);
        for x in [1.0, 2.0, 3.0] {
            t.histogram("lat").observe(x);
        }
        store.sample(&t);
        store.sample(&t); // idle window
        for x in [100.0, 200.0] {
            t.histogram("lat").observe(x);
        }
        store.sample(&t);

        let v = Json::parse(&store.to_json()).unwrap();
        let fams = v.get("families").unwrap().as_arr().unwrap();
        let p50 = fams
            .iter()
            .find(|f| f.get("name").unwrap().as_str() == Some("lat.p50"))
            .unwrap();
        assert_eq!(p50.get("kind").unwrap().as_str(), Some("p50"));
        let points = p50.get("points").unwrap().as_arr().unwrap();
        assert_eq!(points[0].as_f64(), Some(2.0));
        assert!(points[1].is_null(), "idle window must be null");
        // Median of [100, 200] rounds to the upper retained sample.
        assert_eq!(points[2].as_f64(), Some(200.0));
    }

    #[test]
    fn ring_evicts_beyond_capacity_and_late_families_align() {
        let t = telemetry();
        let store = WindowStore::new(3, 1000);
        t.counter("a").inc();
        store.sample(&t);
        store.sample(&t);
        // "b" appears on the third window only.
        t.counter("b").inc();
        store.sample(&t);
        store.sample(&t);
        store.sample(&t);

        let v = Json::parse(&store.to_json()).unwrap();
        let fams = v.get("families").unwrap().as_arr().unwrap();
        for f in fams {
            let points = f.get("points").unwrap().as_arr().unwrap();
            assert!(points.len() <= 3);
            let start = f.get("start").unwrap().as_u64().unwrap();
            assert_eq!(start + points.len() as u64, 5, "points end at seq 5");
        }
        let b = fams
            .iter()
            .find(|f| f.get("name").unwrap().as_str() == Some("b"))
            .unwrap();
        // b's first delta (seq 2) is within the last 3 windows: 1,0,0.
        let pts: Vec<f64> = b
            .get("points")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|p| p.as_f64().unwrap())
            .collect();
        assert_eq!(pts, vec![1.0, 0.0, 0.0]);
    }

    #[test]
    fn disabled_telemetry_samples_nothing() {
        let t = Telemetry::disabled();
        let store = WindowStore::new(4, 1000);
        store.sample(&t);
        let history = Json::parse(&store.to_json()).unwrap();
        assert_eq!(history.get("windows").unwrap().as_u64(), Some(0));
        assert_eq!(history.get("families").unwrap().as_arr(), Some(&[][..]));
    }
}
