//! The [`Telemetry`] handle threaded through the simulator.
//!
//! A handle is either *disabled* (the default — one `Option` branch per
//! emission site, no allocation, no locks) or *enabled*, in which case it
//! fans events out to the configured sinks and owns a
//! [`MetricsRegistry`]. Handles are cheap to clone; clones share the same
//! sinks and registry.

use crate::event::{TelemetryEvent, EVENT_KINDS};
use crate::journal::{EventSink, JsonlSink, RingBufferSink};
use crate::metrics::{Counter, Gauge, Histogram, MetricsRegistry, Snapshot};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Shared state behind an enabled handle.
struct Inner {
    ring: Option<Mutex<RingBufferSink>>,
    sinks: Mutex<Vec<Box<dyn EventSink>>>,
    registry: MetricsRegistry,
    /// Auto-flush the sinks every this many events (0 = never). Bounds how
    /// much journal tail an abort can lose to writer buffering.
    flush_every: u64,
    since_flush: AtomicU64,
    /// Per-kind emission tally, indexed by [`TelemetryEvent::kind_index`].
    /// Published as `journal.<event>` gauges on [`Telemetry::flush`] so a
    /// metrics snapshot can be cross-checked against the journal itself.
    event_counts: [AtomicU64; EVENT_KINDS],
}

/// End-of-run health of a handle's sinks: how much of the event stream
/// actually survived.
///
/// `ring_dropped > 0` means the in-memory ring holds only a suffix of the
/// run; `write_errors > 0` means the durable journal is missing lines (a
/// full disk, a closed pipe). Consumers like `pqos-doctor` need to know
/// either before trusting a journal.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SinkHealth {
    /// Events evicted from the ring buffer to make room.
    pub ring_dropped: u64,
    /// Events durably recorded across all non-ring sinks.
    pub events_written: u64,
    /// Events lost to sink I/O errors.
    pub write_errors: u64,
}

/// Entry point for instrumentation: emit events, mint metric handles, take
/// snapshots.
///
/// # Examples
///
/// ```
/// use pqos_telemetry::{Telemetry, TelemetryEvent};
/// use pqos_sim_core::time::SimTime;
///
/// // Disabled: every call is a no-op.
/// let off = Telemetry::disabled();
/// assert!(!off.is_enabled());
/// off.emit(|| TelemetryEvent::JobRejected { at: SimTime::ZERO, job: 1 });
///
/// // Enabled with an in-memory ring journal.
/// let on = Telemetry::builder().ring_buffer(64).build();
/// on.emit(|| TelemetryEvent::JobRejected { at: SimTime::ZERO, job: 1 });
/// assert_eq!(on.ring_events().len(), 1);
/// // `flush` publishes each event kind's tally as a `journal.<kind>` gauge.
/// on.flush();
/// assert_eq!(on.snapshot().unwrap().gauge("journal.job_rejected"), Some(1));
/// ```
#[derive(Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl Telemetry {
    /// The no-op handle. Same as `Telemetry::default()`.
    pub fn disabled() -> Self {
        Telemetry { inner: None }
    }

    /// Starts configuring an enabled handle.
    pub fn builder() -> TelemetryBuilder {
        TelemetryBuilder::default()
    }

    /// Whether events and metrics are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Emits an event. The closure runs only when telemetry is enabled, so
    /// disabled emission costs one branch and never constructs the event.
    ///
    /// Sinks are flushed through automatically every
    /// [`flush_every`](TelemetryBuilder::flush_every) events, so an
    /// aborted run loses at most that much journal tail to buffering.
    pub fn emit(&self, make: impl FnOnce() -> TelemetryEvent) {
        if let Some(inner) = &self.inner {
            let event = make();
            inner.event_counts[event.kind_index()].fetch_add(1, Ordering::Relaxed);
            if let Some(ring) = &inner.ring {
                ring.lock().expect("ring lock").record(&event);
            }
            let mut sinks = inner.sinks.lock().expect("sinks lock");
            for sink in sinks.iter_mut() {
                sink.record(&event);
            }
            if inner.flush_every > 0 && !sinks.is_empty() {
                let n = inner.since_flush.fetch_add(1, Ordering::Relaxed) + 1;
                if n >= inner.flush_every {
                    inner.since_flush.store(0, Ordering::Relaxed);
                    for sink in sinks.iter_mut() {
                        sink.flush();
                    }
                }
            }
        }
    }

    /// A counter handle for `name` (no-op when disabled).
    pub fn counter(&self, name: &str) -> Counter {
        match &self.inner {
            Some(inner) => inner.registry.counter(name),
            None => Counter::noop(),
        }
    }

    /// A gauge handle for `name` (no-op when disabled).
    pub fn gauge(&self, name: &str) -> Gauge {
        match &self.inner {
            Some(inner) => inner.registry.gauge(name),
            None => Gauge::noop(),
        }
    }

    /// A histogram handle for `name` (no-op when disabled).
    pub fn histogram(&self, name: &str) -> Histogram {
        match &self.inner {
            Some(inner) => inner.registry.histogram(name),
            None => Histogram::noop(),
        }
    }

    /// A copy of all metrics, or `None` when disabled.
    pub fn snapshot(&self) -> Option<Snapshot> {
        self.inner.as_ref().map(|inner| inner.registry.snapshot())
    }

    /// The events currently retained by the ring buffer (empty when there
    /// is no ring or telemetry is disabled).
    pub fn ring_events(&self) -> Vec<TelemetryEvent> {
        match &self.inner {
            Some(inner) => match &inner.ring {
                Some(ring) => ring.lock().expect("ring lock").to_vec(),
                None => Vec::new(),
            },
            None => Vec::new(),
        }
    }

    /// Flushes every sink through to its underlying writer (for the file
    /// sinks built by [`TelemetryBuilder::jsonl_path`] that means the
    /// `BufWriter` contents reach the file *now*, not at drop). Also
    /// publishes the current [`SinkHealth`] counters as
    /// `telemetry.ring_dropped` / `telemetry.write_errors` gauges when
    /// they are nonzero, so end-of-run snapshots show journal loss.
    pub fn flush(&self) {
        if let Some(inner) = &self.inner {
            for sink in inner.sinks.lock().expect("sinks lock").iter_mut() {
                sink.flush();
            }
            let health = self.sink_health();
            if health.ring_dropped > 0 {
                inner
                    .registry
                    .gauge("telemetry.ring_dropped")
                    .set(health.ring_dropped as i64);
            }
            if health.write_errors > 0 {
                inner
                    .registry
                    .gauge("telemetry.write_errors")
                    .set(health.write_errors as i64);
            }
            for (name, count) in self.event_counts() {
                if count > 0 {
                    inner
                        .registry
                        .gauge(&format!("journal.{name}"))
                        .set(count as i64);
                }
            }
        }
    }

    /// How many events of each kind this handle has emitted, as
    /// `(wire_name, count)` pairs in [`TelemetryEvent::kind_names`] order.
    /// Empty when disabled.
    pub fn event_counts(&self) -> Vec<(&'static str, u64)> {
        let Some(inner) = &self.inner else {
            return Vec::new();
        };
        TelemetryEvent::kind_names()
            .into_iter()
            .zip(&inner.event_counts)
            .map(|(name, count)| (name, count.load(Ordering::Relaxed)))
            .collect()
    }

    /// The current health of this handle's sinks (all zeros when
    /// disabled). See [`SinkHealth`].
    pub fn sink_health(&self) -> SinkHealth {
        let Some(inner) = &self.inner else {
            return SinkHealth::default();
        };
        let ring_dropped = match &inner.ring {
            Some(ring) => ring.lock().expect("ring lock").dropped(),
            None => 0,
        };
        let (mut events_written, mut write_errors) = (0, 0);
        for sink in inner.sinks.lock().expect("sinks lock").iter() {
            events_written += sink.written();
            write_errors += sink.errors();
        }
        SinkHealth {
            ring_dropped,
            events_written,
            write_errors,
        }
    }
}

/// Default auto-flush interval: bounded tail loss without measurable cost
/// (one `BufWriter::flush` per this many journal lines).
const DEFAULT_FLUSH_EVERY: u64 = 1024;

/// Configures and builds an enabled [`Telemetry`] handle.
pub struct TelemetryBuilder {
    ring_capacity: Option<usize>,
    sinks: Vec<Box<dyn EventSink>>,
    flush_every: u64,
}

impl Default for TelemetryBuilder {
    fn default() -> Self {
        TelemetryBuilder {
            ring_capacity: None,
            sinks: Vec::new(),
            flush_every: DEFAULT_FLUSH_EVERY,
        }
    }
}

impl TelemetryBuilder {
    /// Auto-flushes the sinks every `n` emitted events (default 1024);
    /// `0` disables auto-flush entirely, leaving flushing to explicit
    /// [`Telemetry::flush`] calls and writer drops.
    pub fn flush_every(mut self, n: u64) -> Self {
        self.flush_every = n;
        self
    }

    /// Retains the last `capacity` events in memory, readable after the
    /// run via [`Telemetry::ring_events`].
    pub fn ring_buffer(mut self, capacity: usize) -> Self {
        self.ring_capacity = Some(capacity);
        self
    }

    /// Streams events as JSONL to an arbitrary writer.
    pub fn jsonl_writer(mut self, writer: impl Write + Send + 'static) -> Self {
        self.sinks.push(Box::new(JsonlSink::new(writer)));
        self
    }

    /// Streams events as JSONL to a file (truncating it), buffered.
    pub fn jsonl_path(self, path: impl AsRef<Path>) -> std::io::Result<Self> {
        let file = std::fs::File::create(path)?;
        Ok(self.jsonl_writer(std::io::BufWriter::new(file)))
    }

    /// Adds a custom sink.
    pub fn sink(mut self, sink: Box<dyn EventSink>) -> Self {
        self.sinks.push(sink);
        self
    }

    /// Builds the enabled handle.
    pub fn build(self) -> Telemetry {
        Telemetry {
            inner: Some(Arc::new(Inner {
                ring: self
                    .ring_capacity
                    .map(|cap| Mutex::new(RingBufferSink::new(cap))),
                sinks: Mutex::new(self.sinks),
                registry: MetricsRegistry::new(),
                flush_every: self.flush_every,
                since_flush: AtomicU64::new(0),
                event_counts: std::array::from_fn(|_| AtomicU64::new(0)),
            })),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::one_of_each;
    use pqos_sim_core::time::SimTime;
    use std::sync::atomic::{AtomicBool, Ordering};

    #[test]
    fn disabled_never_constructs_events() {
        let constructed = AtomicBool::new(false);
        let telemetry = Telemetry::disabled();
        telemetry.emit(|| {
            constructed.store(true, Ordering::Relaxed);
            TelemetryEvent::JobRejected {
                at: SimTime::ZERO,
                job: 0,
            }
        });
        assert!(!constructed.load(Ordering::Relaxed));
        assert!(telemetry.snapshot().is_none());
        assert!(telemetry.ring_events().is_empty());
        telemetry.flush();
    }

    #[test]
    fn clones_share_sinks_and_registry() {
        let a = Telemetry::builder().ring_buffer(8).build();
        let b = a.clone();
        b.emit(|| TelemetryEvent::JobRejected {
            at: SimTime::ZERO,
            job: 7,
        });
        b.counter("x").inc();
        assert_eq!(a.ring_events().len(), 1);
        assert_eq!(a.snapshot().unwrap().counter("x"), Some(1));
    }

    #[test]
    fn jsonl_sink_receives_all_events_in_order() {
        let buffer: Arc<Mutex<Vec<u8>>> = Arc::default();

        struct Shared(Arc<Mutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        let telemetry = Telemetry::builder()
            .jsonl_writer(Shared(Arc::clone(&buffer)))
            .build();
        let events = one_of_each();
        for event in &events {
            let e = event.clone();
            telemetry.emit(move || e);
        }
        telemetry.flush();
        let text = String::from_utf8(buffer.lock().unwrap().clone()).unwrap();
        let parsed: Vec<TelemetryEvent> = text
            .lines()
            .map(|l| TelemetryEvent::from_jsonl(l).expect("parses"))
            .collect();
        assert_eq!(parsed, events, "sink preserves emission order");
    }

    #[test]
    fn flush_reaches_the_underlying_file_before_drop() {
        let dir = std::env::temp_dir().join(format!("pqos_flush_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("journal.jsonl");
        let telemetry = Telemetry::builder()
            .flush_every(0) // isolate the explicit flush path
            .jsonl_path(&path)
            .unwrap()
            .build();
        telemetry.emit(|| TelemetryEvent::JobRejected {
            at: SimTime::ZERO,
            job: 1,
        });
        telemetry.flush();
        // The handle is still alive (no drop yet): the line must already
        // be on disk — this is the tail the doctor needs after a crash.
        let on_disk = std::fs::read_to_string(&path).unwrap();
        assert_eq!(on_disk.lines().count(), 1, "flush must write through");
        drop(telemetry);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn auto_flush_bounds_the_unflushed_tail() {
        let dir = std::env::temp_dir().join(format!("pqos_autoflush_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("journal.jsonl");
        let telemetry = Telemetry::builder()
            .flush_every(10)
            .jsonl_path(&path)
            .unwrap()
            .build();
        for job in 0..25 {
            telemetry.emit(|| TelemetryEvent::JobRejected {
                at: SimTime::ZERO,
                job,
            });
        }
        // 25 events with flush_every=10: at least 20 are on disk without
        // any explicit flush or drop.
        let on_disk = std::fs::read_to_string(&path).unwrap();
        assert!(
            on_disk.lines().count() >= 20,
            "auto-flush left {} lines",
            on_disk.lines().count()
        );
        drop(telemetry);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sink_health_reports_drops_and_errors() {
        struct Broken;
        impl Write for Broken {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("disk full"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let telemetry = Telemetry::builder()
            .ring_buffer(2)
            .jsonl_writer(Broken)
            .build();
        for job in 0..5 {
            telemetry.emit(|| TelemetryEvent::JobRejected {
                at: SimTime::ZERO,
                job,
            });
        }
        let health = telemetry.sink_health();
        assert_eq!(health.ring_dropped, 3);
        assert_eq!(health.events_written, 0);
        assert_eq!(health.write_errors, 5);
        // flush surfaces the loss as gauges in the snapshot.
        telemetry.flush();
        let snap = telemetry.snapshot().unwrap();
        assert_eq!(snap.gauge("telemetry.ring_dropped"), Some(3));
        assert_eq!(snap.gauge("telemetry.write_errors"), Some(5));
        // Disabled handles report all zeros.
        assert_eq!(Telemetry::disabled().sink_health(), SinkHealth::default());
    }

    #[test]
    fn clean_runs_do_not_grow_loss_gauges() {
        let telemetry = Telemetry::builder().ring_buffer(64).build();
        telemetry.emit(|| TelemetryEvent::JobRejected {
            at: SimTime::ZERO,
            job: 0,
        });
        telemetry.flush();
        let snap = telemetry.snapshot().unwrap();
        assert_eq!(snap.gauge("telemetry.ring_dropped"), None);
        assert_eq!(snap.gauge("telemetry.write_errors"), None);
    }

    #[test]
    fn event_counts_track_kinds_and_flush_publishes_gauges() {
        let telemetry = Telemetry::builder().ring_buffer(4).build();
        for _ in 0..3 {
            telemetry.emit(|| TelemetryEvent::JobRejected {
                at: SimTime::ZERO,
                job: 0,
            });
        }
        telemetry.emit(|| TelemetryEvent::JobCancelled {
            at: SimTime::ZERO,
            job: 1,
        });
        let counts: std::collections::BTreeMap<_, _> =
            telemetry.event_counts().into_iter().collect();
        assert_eq!(counts["job_rejected"], 3);
        assert_eq!(counts["job_cancelled"], 1);
        assert_eq!(counts["job_placed"], 0);
        telemetry.flush();
        let snap = telemetry.snapshot().unwrap();
        assert_eq!(snap.gauge("journal.job_rejected"), Some(3));
        assert_eq!(snap.gauge("journal.job_cancelled"), Some(1));
        // Zero-count kinds stay out of the snapshot entirely.
        assert_eq!(snap.gauge("journal.job_placed"), None);
        // Disabled handles report nothing.
        assert!(Telemetry::disabled().event_counts().is_empty());
    }

    #[test]
    fn ring_wraps_through_the_handle() {
        let telemetry = Telemetry::builder().ring_buffer(2).build();
        for job in 0..5 {
            telemetry.emit(|| TelemetryEvent::JobRejected {
                at: SimTime::ZERO,
                job,
            });
        }
        let events = telemetry.ring_events();
        assert_eq!(events.len(), 2);
        assert!(matches!(
            events[1],
            TelemetryEvent::JobRejected { job: 4, .. }
        ));
    }
}
