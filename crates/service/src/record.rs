//! Engine-side request-trace recording (`--record`).
//!
//! A [`TraceRecorder`] sits next to the engine loop and captures every
//! *answered* request as a [`TraceEntry`], stamped with the engine tick
//! (batch epoch) and the virtual time the tick advanced to. Together with
//! the [`TraceMeta`] header (the daemon's session configuration) that is
//! exactly enough for `pqos-replay` to reconstruct the per-tick batching
//! the single-writer engine saw and re-execute it deterministically.
//!
//! What is recorded and what is not:
//!
//! - pass-1 negotiates carry their engine-assigned job id (rejected ones
//!   too — they consume an id and journal `job_submitted`/`job_rejected`);
//! - queue-timeout refusals are recorded with `job: null` so replay knows
//!   those requests never reached the session;
//! - `overloaded`/`shutting_down` refusals are *not* recorded: whether
//!   refused before the queue, while it drains, or behind a `shutdown`
//!   in the same tick, they have no state effect;
//! - the final `shutdown` acknowledgement is the last entry.
//!
//! Like [`Telemetry`](pqos_telemetry::Telemetry), a disabled recorder (the
//! default) costs one branch per answered request.

use crate::protocol::{Request, Response};
use pqos_telemetry::reqtrace::{TraceEntry, TraceMeta};
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};

struct RecState {
    out: Box<dyn Write + Send>,
    /// The entry being recorded and its encoded line: both kept between
    /// calls, so recording allocates nothing once they have grown. The
    /// entry's `seq` is the last sequence number handed out.
    entry: TraceEntry,
    line: String,
    entries: u64,
    write_errors: u64,
}

/// Cheap clonable handle; all clones append to the same trace.
#[derive(Clone, Default)]
pub struct TraceRecorder {
    inner: Option<Arc<Mutex<RecState>>>,
}

impl TraceRecorder {
    /// A recorder that records nothing.
    pub fn disabled() -> Self {
        TraceRecorder { inner: None }
    }

    /// Opens `path` for writing and emits the meta header line.
    pub(crate) fn to_path(path: impl AsRef<Path>, meta: &TraceMeta) -> io::Result<Self> {
        let file = std::fs::File::create(path)?;
        Self::to_writer(BufWriter::new(file), meta)
    }

    /// Records into an arbitrary writer (in-process capture for tests and
    /// benchmarks). Emits the meta header line immediately.
    pub fn to_writer(mut out: impl Write + Send + 'static, meta: &TraceMeta) -> io::Result<Self> {
        out.write_all(meta.encode().as_bytes())?;
        out.write_all(b"\n")?;
        Ok(TraceRecorder {
            inner: Some(Arc::new(Mutex::new(RecState {
                out: Box::new(out),
                entry: TraceEntry::default(),
                line: String::new(),
                entries: 0,
                write_errors: 0,
            }))),
        })
    }

    /// Whether recording is on.
    pub(crate) fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Appends one answered request. A no-op when disabled; write failures
    /// are counted, never propagated — recording must not disturb serving.
    pub(crate) fn record(
        &self,
        epoch: u64,
        tick_secs: u64,
        conn: u64,
        request: &Request,
        response: &Response,
        job: Option<u64>,
    ) {
        let Some(inner) = &self.inner else {
            return;
        };
        let mut guard = inner.lock().expect("trace recorder lock");
        let state = &mut *guard;
        let entry = &mut state.entry;
        entry.seq += 1;
        entry.epoch = epoch;
        entry.tick_secs = tick_secs;
        entry.conn = conn;
        entry.verb.clear();
        entry.verb.push_str(request.verb());
        entry.job = job;
        entry.request.clear();
        request.encode_into(&mut entry.request);
        entry.response.clear();
        response.encode_into(&mut entry.response);
        state.line.clear();
        entry.encode_into(&mut state.line);
        state.line.push('\n');
        let ok = state.out.write_all(state.line.as_bytes()).is_ok();
        if ok {
            state.entries += 1;
        } else {
            state.write_errors += 1;
        }
    }

    /// Flushes the underlying writer.
    pub(crate) fn flush(&self) {
        if let Some(inner) = &self.inner {
            let mut state = inner.lock().expect("trace recorder lock");
            if state.out.flush().is_err() {
                state.write_errors += 1;
            }
        }
    }

    /// Entries durably handed to the writer so far.
    #[cfg(test)]
    fn entries_recorded(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.lock().expect("trace recorder lock").entries)
    }

    /// Entries lost to writer I/O errors.
    #[cfg(test)]
    fn write_errors(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.lock().expect("trace recorder lock").write_errors)
    }
}

/// A clonable in-memory byte sink, used to capture traces and journals
/// in-process (replay, benchmarks, tests).
#[derive(Clone, Default)]
pub struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    /// An empty buffer.
    pub fn new() -> Self {
        SharedBuf::default()
    }

    /// Takes the bytes written since the last take, as UTF-8 text, and
    /// leaves the buffer empty: the bytes move out, nothing is copied, and
    /// a second take returns only what was written after the first.
    pub fn take_string(&self) -> String {
        self.swap_string(String::new())
    }

    /// [`take_string`](Self::take_string), leaving `spare`'s buffer,
    /// emptied, in the taken bytes' place: what is written next lands in
    /// capacity already allocated.
    pub fn swap_string(&self, spare: String) -> String {
        let mut bytes = spare.into_bytes();
        bytes.clear();
        std::mem::swap(&mut bytes, &mut *self.0.lock().expect("shared buffer lock"));
        String::from_utf8(bytes).expect("recorded text is UTF-8")
    }
}

impl Write for SharedBuf {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        self.0
            .lock()
            .expect("shared buffer lock")
            .extend_from_slice(data);
        Ok(data.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pqos_telemetry::reqtrace::RequestTrace;

    fn meta() -> TraceMeta {
        TraceMeta::qosd(8)
    }

    #[test]
    fn records_parse_back_as_a_valid_trace() {
        let buf = SharedBuf::new();
        let rec = TraceRecorder::to_writer(buf.clone(), &meta()).unwrap();
        rec.record(
            1,
            0,
            1,
            &Request::Negotiate {
                id: 1,
                size: 2,
                runtime_secs: 600,
            },
            &Response::Ok { id: 1 },
            Some(1),
        );
        rec.record(
            2,
            5,
            1,
            &Request::Shutdown { id: 2 },
            &Response::Ok { id: 2 },
            None,
        );
        rec.flush();
        let trace = RequestTrace::parse(&buf.take_string()).expect("valid trace");
        assert_eq!(buf.take_string(), "", "a take empties the buffer");
        assert_eq!(trace.meta, meta());
        assert_eq!(trace.entries.len(), 2);
        assert_eq!(trace.entries[0].verb, "negotiate");
        assert_eq!(trace.entries[0].job, Some(1));
        assert_eq!(trace.entries[1].seq, 2);
        assert_eq!(rec.entries_recorded(), 2);
        assert_eq!(rec.write_errors(), 0);
    }

    #[test]
    fn disabled_recorder_is_a_no_op() {
        let rec = TraceRecorder::disabled();
        assert!(!rec.is_enabled());
        rec.record(
            1,
            0,
            1,
            &Request::Status { id: 1 },
            &Response::Ok { id: 1 },
            None,
        );
        rec.flush();
        assert_eq!(rec.entries_recorded(), 0);
    }
}
