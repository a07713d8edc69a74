//! Event sinks: where emitted [`TelemetryEvent`]s go.
//!
//! Two sinks ship with the crate: a bounded in-memory ring buffer (cheap,
//! always safe to leave on, keeps the *last* `capacity` events for post-run
//! inspection) and a JSONL writer for durable journals that can be grepped,
//! diffed, or replayed offline.

use crate::event::TelemetryEvent;
use std::collections::VecDeque;
use std::io::Write;

/// A destination for telemetry events.
///
/// Sinks receive events in emission order, which the simulator guarantees
/// is deterministic for a fixed seed — so any sink that preserves order
/// (both shipped sinks do) yields identical journals across identically
/// seeded runs.
pub trait EventSink: Send {
    /// Records one event.
    fn record(&mut self, event: &TelemetryEvent);

    /// Flushes any buffered output. The default does nothing.
    fn flush(&mut self) {}

    /// Number of events durably recorded so far. The default reports zero
    /// for sinks that do not track it.
    fn written(&self) -> u64 {
        0
    }

    /// Number of events lost to I/O errors. The default reports zero.
    fn errors(&self) -> u64 {
        0
    }
}

/// A bounded in-memory sink that keeps the most recent events.
///
/// When full, recording a new event evicts the oldest one; [`dropped`]
/// counts evictions so consumers can tell the journal is a suffix.
///
/// [`dropped`]: RingBufferSink::dropped
///
/// # Examples
///
/// ```
/// use pqos_telemetry::journal::{EventSink, RingBufferSink};
/// use pqos_telemetry::TelemetryEvent;
/// use pqos_sim_core::time::SimTime;
///
/// let mut ring = RingBufferSink::new(2);
/// for job in 0..3 {
///     ring.record(&TelemetryEvent::JobRejected { at: SimTime::ZERO, job });
/// }
/// assert_eq!(ring.len(), 2);
/// assert_eq!(ring.dropped(), 1);
/// ```
#[derive(Debug)]
pub struct RingBufferSink {
    capacity: usize,
    events: VecDeque<TelemetryEvent>,
    dropped: u64,
}

impl RingBufferSink {
    /// Creates a ring that retains at most `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ring buffer capacity must be positive");
        RingBufferSink {
            capacity,
            events: VecDeque::with_capacity(capacity),
            dropped: 0,
        }
    }

    /// Maximum number of retained events.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of events currently retained.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the ring holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// How many events have been evicted to make room.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TelemetryEvent> {
        self.events.iter()
    }

    /// Copies the retained events out, oldest first.
    pub fn to_vec(&self) -> Vec<TelemetryEvent> {
        self.events.iter().cloned().collect()
    }
}

impl EventSink for RingBufferSink {
    fn record(&mut self, event: &TelemetryEvent) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(event.clone());
    }
}

/// A sink that writes one JSON object per line to any [`Write`]r.
///
/// Typically wrapped around a `BufWriter<File>`; write errors are counted
/// rather than panicking so a full disk cannot abort a simulation.
///
/// The sink owns its line buffer: each event is encoded into it in place
/// and handed to the writer, newline included, in one `write_all`, so
/// recording allocates nothing once the buffer has grown to the longest
/// event seen.
#[derive(Debug)]
pub struct JsonlSink<W: Write> {
    writer: W,
    line: String,
    written: u64,
    errors: u64,
}

impl<W: Write> JsonlSink<W> {
    /// Wraps a writer.
    pub fn new(writer: W) -> Self {
        JsonlSink {
            writer,
            line: String::new(),
            written: 0,
            errors: 0,
        }
    }

    /// Number of lines successfully written.
    pub fn written(&self) -> u64 {
        self.written
    }

    /// Number of write errors swallowed.
    pub fn errors(&self) -> u64 {
        self.errors
    }

    /// Flushes and returns the underlying writer.
    pub fn into_inner(mut self) -> W {
        let _ = self.writer.flush();
        self.writer
    }
}

impl<W: Write + Send> EventSink for JsonlSink<W> {
    fn record(&mut self, event: &TelemetryEvent) {
        self.line.clear();
        event.append_jsonl(&mut self.line);
        self.line.push('\n');
        match self.writer.write_all(self.line.as_bytes()) {
            Ok(()) => self.written += 1,
            Err(_) => self.errors += 1,
        }
    }

    fn flush(&mut self) {
        if self.writer.flush().is_err() {
            self.errors += 1;
        }
    }

    fn written(&self) -> u64 {
        self.written
    }

    fn errors(&self) -> u64 {
        self.errors
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::one_of_each;
    use pqos_sim_core::time::SimTime;

    fn reject(job: u64) -> TelemetryEvent {
        TelemetryEvent::JobRejected {
            at: SimTime::from_secs(job),
            job,
        }
    }

    #[test]
    fn ring_keeps_most_recent_on_wraparound() {
        let mut ring = RingBufferSink::new(3);
        for job in 0..10 {
            ring.record(&reject(job));
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.capacity(), 3);
        assert_eq!(ring.dropped(), 7);
        let jobs: Vec<u64> = ring
            .events()
            .map(|e| match e {
                TelemetryEvent::JobRejected { job, .. } => *job,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(jobs, vec![7, 8, 9], "oldest first, newest retained");
    }

    #[test]
    fn ring_below_capacity_keeps_everything() {
        let mut ring = RingBufferSink::new(100);
        assert!(ring.is_empty());
        for job in 0..5 {
            ring.record(&reject(job));
        }
        assert_eq!(ring.len(), 5);
        assert_eq!(ring.dropped(), 0);
        assert_eq!(ring.to_vec().len(), 5);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_ring_panics() {
        let _ = RingBufferSink::new(0);
    }

    #[test]
    fn jsonl_sink_writes_parseable_lines_for_every_variant() {
        let mut sink = JsonlSink::new(Vec::new());
        let events = one_of_each();
        for event in &events {
            sink.record(event);
        }
        assert_eq!(sink.written(), events.len() as u64);
        assert_eq!(sink.errors(), 0);
        let bytes = sink.into_inner();
        let text = String::from_utf8(bytes).expect("journal is utf-8");
        let parsed: Vec<TelemetryEvent> = text
            .lines()
            .map(|l| TelemetryEvent::from_jsonl(l).expect("every line parses"))
            .collect();
        assert_eq!(parsed, events);
    }

    #[test]
    fn jsonl_sink_counts_write_errors() {
        struct Broken;
        impl Write for Broken {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("disk full"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut sink = JsonlSink::new(Broken);
        sink.record(&reject(1));
        sink.flush();
        assert_eq!(sink.written(), 0);
        assert_eq!(sink.errors(), 1);
    }

    #[test]
    fn a_reused_line_never_leaks_a_longer_previous_event() {
        // Long, short, long, short: every line must be exactly its own
        // event's, whatever the sink's buffer held before.
        let wide = TelemetryEvent::JobPlaced {
            at: SimTime::from_secs(7),
            job: 1,
            nodes: (0..1_100).collect(),
            failure_probability: 0.25,
        };
        let events = [wide.clone(), reject(2), wide, reject(3)];
        let mut sink = JsonlSink::new(Vec::new());
        for event in &events {
            sink.record(event);
        }
        let text = String::from_utf8(sink.into_inner()).expect("utf-8");
        let want: String = events.iter().map(|e| e.to_jsonl() + "\n").collect();
        assert_eq!(text, want);
    }
}
