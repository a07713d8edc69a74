//! Event sinks: where emitted [`TelemetryEvent`]s go.
//!
//! Two sinks ship with the crate, both installed through
//! [`TelemetryBuilder`](crate::TelemetryBuilder): a bounded in-memory ring
//! buffer (cheap, always safe to leave on, keeps the *last* `capacity`
//! events for post-run inspection) and a JSONL writer for durable journals
//! that can be grepped, diffed, or replayed offline. Any other
//! [`EventSink`] plugs in beside them.

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
/// [`TelemetryBuilder::ring_buffer`](crate::TelemetryBuilder::ring_buffer)
/// installs one.
///
/// [`dropped`]: RingBufferSink::dropped
///
/// # Examples
///
/// ```
/// use pqos_telemetry::{Telemetry, TelemetryEvent};
/// use pqos_sim_core::time::SimTime;
///
/// let telemetry = Telemetry::builder().ring_buffer(2).build();
/// for job in 0..3 {
///     telemetry.emit(|| TelemetryEvent::JobRejected { at: SimTime::ZERO, job });
/// }
/// assert_eq!(telemetry.ring_events().len(), 2);
/// assert_eq!(telemetry.sink_health().ring_dropped, 1);
/// ```
#[derive(Debug)]
pub(crate) struct RingBufferSink {
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
    pub(crate) fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ring buffer capacity must be positive");
        RingBufferSink {
            capacity,
            events: VecDeque::with_capacity(capacity),
            dropped: 0,
        }
    }

    /// How many events have been evicted to make room.
    pub(crate) fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Copies the retained events out, oldest first.
    pub(crate) fn to_vec(&self) -> Vec<TelemetryEvent> {
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
pub(crate) struct JsonlSink<W: Write> {
    writer: W,
    line: String,
    written: u64,
    errors: u64,
}

impl<W: Write> JsonlSink<W> {
    /// Wraps a writer.
    pub(crate) fn new(writer: W) -> Self {
        JsonlSink {
            writer,
            line: String::new(),
            written: 0,
            errors: 0,
        }
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
        assert_eq!(ring.dropped(), 7);
        let jobs: Vec<u64> = ring
            .to_vec()
            .into_iter()
            .map(|e| match e {
                TelemetryEvent::JobRejected { job, .. } => job,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(jobs, vec![7, 8, 9], "oldest first, newest retained");
    }

    #[test]
    fn ring_below_capacity_keeps_everything() {
        let mut ring = RingBufferSink::new(100);
        assert!(ring.to_vec().is_empty());
        for job in 0..5 {
            ring.record(&reject(job));
        }
        assert_eq!(ring.dropped(), 0);
        assert_eq!(ring.to_vec(), (0..5).map(reject).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_ring_panics() {
        let _ = RingBufferSink::new(0);
    }

    #[test]
    fn jsonl_sink_writes_parseable_lines_for_every_variant() {
        let mut bytes = Vec::new();
        let mut sink = JsonlSink::new(&mut bytes);
        let events = one_of_each();
        for event in &events {
            sink.record(event);
        }
        assert_eq!(sink.written(), events.len() as u64);
        assert_eq!(sink.errors(), 0);
        drop(sink);
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
        let mut bytes = Vec::new();
        let mut sink = JsonlSink::new(&mut bytes);
        for event in &events {
            sink.record(event);
        }
        drop(sink);
        let text = String::from_utf8(bytes).expect("utf-8");
        let want: String = events.iter().map(|e| e.to_jsonl() + "\n").collect();
        assert_eq!(text, want);
    }
}
