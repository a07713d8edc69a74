//! Request-scoped tracing and the in-flight flight recorder.
//!
//! Every request line the daemon accepts can carry a [`TraceCtx`]: a
//! monotonic clock started when the line arrived, marked at the end of
//! each processing stage (`parse` → `queue` → `batch` → `compute` →
//! `write`). Stage durations land in per-verb histograms
//! (`rpc.stage_ns{stage=…,verb=…}`) so a p99 quote latency can be
//! decomposed server-side instead of observed only from the client, and
//! the whole trace is retained by the [`FlightRecorder`]: a fixed-size
//! ring of the last N completed requests plus everything currently in
//! flight. Each verb's histograms and counter are resolved once, on its
//! first finished request, and kept in the recorder: finishing a trace
//! on the daemon's loop thread builds no metric name.
//!
//! The recorder dumps on demand (the `dump` protocol verb, or
//! `--flight-dump` at graceful shutdown) in Chrome `trace_event` format —
//! the same format `pqos-obs` emits for journals — so one request's life
//! through the engine renders in Perfetto with no extra tooling.
//!
//! A disabled recorder ([`FlightRecorder::disabled`]) makes
//! `FlightRecorder::begin` return `None`, so the traced paths cost one
//! branch and zero clock reads when tracing is off (`--no-flight`).

use pqos_telemetry::json::ObjWriter;
use pqos_telemetry::{labeled, Counter, Histogram, Telemetry};
use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Stage names in processing order. `parse` ends when the request line is
/// decoded, `queue` when the tick that answers it starts, `batch` when
/// the coalesced quote batch starts computing (negotiate only), `compute`
/// when the response exists, `write` when it reached the socket.
pub const STAGES: [&str; 5] = ["parse", "queue", "batch", "compute", "write"];

/// One completed (or in-flight) request trace.
#[derive(Debug, Clone)]
struct TraceRecord {
    /// Recorder-assigned sequence number.
    seq: u64,
    /// Protocol verb.
    verb: &'static str,
    /// Connection the request arrived on (trace `tid`).
    conn: u64,
    /// Offset of the request's arrival from the recorder epoch.
    begin_offset: Duration,
    /// `(stage, end offset from begin)` marks in order.
    marks: Vec<(&'static str, Duration)>,
}

struct State {
    inflight: HashMap<u64, TraceRecord>,
    completed: VecDeque<TraceRecord>,
    /// `rpc.stage_ns` by `(stage, verb)` and `rpc.request_ns` plus
    /// `rpc.requests_total` by verb, each resolved the first time a trace
    /// finishes with it — so the registry holds exactly the families it
    /// would if every name were resolved per request.
    stage_ns: HashMap<(&'static str, &'static str), Histogram>,
    requests: HashMap<&'static str, (Histogram, Counter)>,
}

struct Inner {
    epoch: Instant,
    capacity: usize,
    seq: AtomicU64,
    state: Mutex<State>,
    telemetry: Telemetry,
}

/// Shared handle to the recorder ring. Cloning shares state; a handle
/// built by [`FlightRecorder::disabled`] ignores everything.
#[derive(Clone, Default)]
pub struct FlightRecorder {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("enabled", &self.inner.is_some())
            .finish()
    }
}

impl FlightRecorder {
    /// A recorder retaining the last `capacity` completed traces.
    /// Histogram observations go through `telemetry` (no-op when that
    /// handle is disabled; the ring still records).
    pub(crate) fn new(capacity: usize, telemetry: Telemetry) -> Self {
        FlightRecorder {
            inner: Some(Arc::new(Inner {
                epoch: Instant::now(),
                capacity: capacity.max(1),
                seq: AtomicU64::new(0),
                state: Mutex::new(State {
                    inflight: HashMap::new(),
                    completed: VecDeque::new(),
                    stage_ns: HashMap::new(),
                    requests: HashMap::new(),
                }),
                telemetry,
            })),
        }
    }

    /// The no-op recorder (`--no-flight`).
    pub fn disabled() -> Self {
        FlightRecorder { inner: None }
    }

    /// Whether traces are being recorded.
    #[cfg(test)]
    fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Opens a trace for a request that arrived at `begin` on connection
    /// `conn`. Returns `None` when the recorder is disabled, so disabled
    /// tracing never reads the clock again.
    pub(crate) fn begin(&self, verb: &'static str, conn: u64, begin: Instant) -> Option<TraceCtx> {
        let inner = self.inner.as_ref()?;
        let seq = inner.seq.fetch_add(1, Ordering::Relaxed);
        let record = TraceRecord {
            seq,
            verb,
            conn,
            begin_offset: begin.saturating_duration_since(inner.epoch),
            marks: Vec::with_capacity(STAGES.len()),
        };
        inner
            .state
            .lock()
            .expect("flight lock")
            .inflight
            .insert(seq, record);
        Some(TraceCtx {
            recorder: self.clone(),
            seq,
            verb,
            begin,
            marks: Vec::with_capacity(STAGES.len()),
        })
    }

    /// `(inflight, completed)` trace counts.
    #[cfg(test)]
    pub(crate) fn depth(&self) -> (usize, usize) {
        match &self.inner {
            Some(inner) => {
                let state = inner.state.lock().expect("flight lock");
                (state.inflight.len(), state.completed.len())
            }
            None => (0, 0),
        }
    }

    fn finish(&self, ctx: &mut TraceCtx) {
        let Some(inner) = &self.inner else { return };
        let (telemetry, verb) = (&inner.telemetry, ctx.verb);
        let mut state = inner.state.lock().expect("flight lock");
        let mut total = Duration::ZERO;
        let mut prev = ctx.begin;
        for &(stage, at) in &ctx.marks {
            let dur = at.saturating_duration_since(prev);
            prev = at;
            total += dur;
            state
                .stage_ns
                .entry((stage, verb))
                .or_insert_with(|| {
                    telemetry.histogram(&labeled(
                        "rpc.stage_ns",
                        &[("stage", stage), ("verb", verb)],
                    ))
                })
                .observe(dur.as_nanos() as f64);
        }
        let (request_ns, requests) = state.requests.entry(verb).or_insert_with(|| {
            let labels = [("verb", verb)];
            (
                telemetry.histogram(&labeled("rpc.request_ns", &labels)),
                telemetry.counter(&labeled("rpc.requests_total", &labels)),
            )
        });
        request_ns.observe(total.as_nanos() as f64);
        requests.inc();
        let Some(mut record) = state.inflight.remove(&ctx.seq) else {
            return;
        };
        record.marks = ctx
            .marks
            .iter()
            .map(|(stage, at)| (*stage, at.saturating_duration_since(ctx.begin)))
            .collect();
        if state.completed.len() >= inner.capacity {
            state.completed.pop_front();
        }
        state.completed.push_back(record);
    }

    /// Renders the ring — completed traces first, then everything still in
    /// flight — as a Chrome `trace_event` document (`{"traceEvents":[…]}`).
    /// Each connection is a track (`tid`); each stage is a `ph:"X"` span;
    /// in-flight requests appear as open-ended spans flagged
    /// `"inflight":true`. Returns an empty document when disabled.
    pub(crate) fn dump_chrome(&self) -> String {
        let Some(inner) = &self.inner else {
            return String::from("{\"traceEvents\":[]}\n");
        };
        let now_offset = Instant::now().saturating_duration_since(inner.epoch);
        let mut events: Vec<String> = Vec::new();
        let mut named_conns: Vec<u64> = Vec::new();
        let mut meta = ObjWriter::new();
        meta.str("name", "process_name")
            .str("ph", "M")
            .u64("pid", 1);
        let mut args = ObjWriter::new();
        args.str("name", "pqos-qosd requests");
        meta.raw("args", &args.finish());
        events.push(meta.finish());

        let micros = |d: Duration| d.as_micros() as u64;
        let state = inner.state.lock().expect("flight lock");
        let mut emit = |record: &TraceRecord, inflight: bool| {
            if !named_conns.contains(&record.conn) {
                named_conns.push(record.conn);
                let mut w = ObjWriter::new();
                w.str("name", "thread_name")
                    .str("ph", "M")
                    .u64("pid", 1)
                    .u64("tid", record.conn);
                let mut args = ObjWriter::new();
                args.str("name", &format!("conn {}", record.conn));
                w.raw("args", &args.finish());
                events.push(w.finish());
            }
            let begin = micros(record.begin_offset);
            let total_end = record
                .marks
                .last()
                .map(|(_, at)| *at)
                .unwrap_or_else(|| now_offset.saturating_sub(record.begin_offset));
            let mut w = ObjWriter::new();
            w.str("name", record.verb)
                .str("ph", "X")
                .u64("ts", begin)
                .u64("dur", micros(total_end).max(1))
                .u64("pid", 1)
                .u64("tid", record.conn);
            let mut args = ObjWriter::new();
            args.u64("seq", record.seq).bool("inflight", inflight);
            w.raw("args", &args.finish());
            events.push(w.finish());
            let mut prev = Duration::ZERO;
            for (stage, at) in &record.marks {
                let mut w = ObjWriter::new();
                w.str("name", &format!("{}:{stage}", record.verb))
                    .str("ph", "X")
                    .u64("ts", begin + micros(prev))
                    .u64("dur", micros(at.saturating_sub(prev)).max(1))
                    .u64("pid", 1)
                    .u64("tid", record.conn);
                let mut args = ObjWriter::new();
                args.u64("seq", record.seq).str("stage", stage);
                w.raw("args", &args.finish());
                events.push(w.finish());
                prev = *at;
            }
        };
        for record in &state.completed {
            emit(record, false);
        }
        let mut inflight: Vec<&TraceRecord> = state.inflight.values().collect();
        inflight.sort_by_key(|r| r.seq);
        for record in inflight {
            emit(record, true);
        }
        drop(state);

        let mut doc = String::from("{\"traceEvents\":[\n");
        doc.push_str(&events.join(",\n"));
        doc.push_str("\n]}\n");
        doc
    }
}

/// A single request's trace: created by `FlightRecorder::begin` when
/// the request line arrives, marked at each stage end, finished by
/// `TraceCtx::finish` after the reply hits the socket. Dropping an
/// unfinished ctx leaves the request in the in-flight table (it will show
/// in dumps as a lost request) — always finish or `TraceCtx::abandon`.
#[derive(Debug)]
pub struct TraceCtx {
    recorder: FlightRecorder,
    seq: u64,
    verb: &'static str,
    begin: Instant,
    marks: Vec<(&'static str, Instant)>,
}

impl TraceCtx {
    /// Marks the end of `stage` (a name from [`STAGES`]) at now.
    pub(crate) fn mark(&mut self, stage: &'static str) {
        self.marks.push((stage, Instant::now()));
    }

    /// Completes the trace: records stage histograms and moves it from
    /// the in-flight table into the completed ring.
    pub(crate) fn finish(mut self) {
        let recorder = self.recorder.clone();
        recorder.finish(&mut self);
    }

    /// Drops the trace without recording anything (the connection died
    /// before the reply could be written).
    pub(crate) fn abandon(self) {
        if let Some(inner) = &self.recorder.inner {
            inner
                .state
                .lock()
                .expect("flight lock")
                .inflight
                .remove(&self.seq);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pqos_telemetry::json::Json;

    #[test]
    fn disabled_recorder_hands_out_nothing() {
        let recorder = FlightRecorder::disabled();
        assert!(!recorder.is_enabled());
        assert!(recorder.begin("status", 1, Instant::now()).is_none());
        assert_eq!(recorder.depth(), (0, 0));
        let doc = recorder.dump_chrome();
        let v = Json::parse(doc.trim()).expect("valid JSON");
        assert_eq!(v.get("traceEvents").unwrap().as_arr().unwrap().len(), 0);
    }

    #[test]
    fn traces_move_from_inflight_to_the_ring() {
        let recorder = FlightRecorder::new(8, Telemetry::disabled());
        let mut ctx = recorder.begin("negotiate", 3, Instant::now()).unwrap();
        assert_eq!(recorder.depth(), (1, 0));
        for stage in ["parse", "queue", "batch", "compute", "write"] {
            ctx.mark(stage);
        }
        ctx.finish();
        assert_eq!(recorder.depth(), (0, 1));
    }

    #[test]
    fn the_ring_is_bounded() {
        let recorder = FlightRecorder::new(2, Telemetry::disabled());
        for _ in 0..5 {
            let mut ctx = recorder.begin("status", 1, Instant::now()).unwrap();
            ctx.mark("parse");
            ctx.mark("write");
            ctx.finish();
        }
        assert_eq!(recorder.depth(), (0, 2));
    }

    #[test]
    fn stage_histograms_are_per_verb_and_per_stage() {
        let telemetry = Telemetry::builder().ring_buffer(1).build();
        let recorder = FlightRecorder::new(8, telemetry.clone());
        let mut ctx = recorder.begin("negotiate", 1, Instant::now()).unwrap();
        ctx.mark("parse");
        ctx.mark("queue");
        ctx.mark("compute");
        ctx.mark("write");
        ctx.finish();
        let snap = telemetry.snapshot().unwrap();
        for stage in ["parse", "queue", "compute", "write"] {
            let key = labeled("rpc.stage_ns", &[("stage", stage), ("verb", "negotiate")]);
            assert_eq!(snap.histogram(&key).unwrap().count, 1, "{key}");
        }
        let total = labeled("rpc.request_ns", &[("verb", "negotiate")]);
        assert_eq!(snap.histogram(&total).unwrap().count, 1);
        let count = labeled("rpc.requests_total", &[("verb", "negotiate")]);
        assert_eq!(snap.counter(&count), Some(1));
    }

    #[test]
    fn dump_is_a_valid_chrome_trace_with_inflight_flags() {
        let recorder = FlightRecorder::new(8, Telemetry::disabled());
        let mut done = recorder.begin("negotiate", 1, Instant::now()).unwrap();
        done.mark("parse");
        done.mark("queue");
        done.mark("compute");
        done.mark("write");
        done.finish();
        let _open = recorder.begin("accept", 2, Instant::now()).unwrap();
        let doc = recorder.dump_chrome();
        let v = Json::parse(doc.trim()).expect("dump parses as JSON");
        let events = v.get("traceEvents").unwrap().as_arr().unwrap();
        // Metadata + verb span + 4 stage spans + conn names + open span.
        assert!(events.len() >= 7, "got {} events", events.len());
        let inflight: Vec<bool> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
            .filter_map(|e| e.get("args")?.get("inflight")?.as_bool())
            .collect();
        assert!(inflight.contains(&false), "completed span present");
        assert!(inflight.contains(&true), "in-flight span present");
        // Stage spans carry a stage arg and verb:stage names.
        assert!(events.iter().any(|e| {
            e.get("name").and_then(Json::as_str) == Some("negotiate:queue")
                && e.get("args").and_then(|a| a.get("stage")).is_some()
        }));
    }

    #[test]
    fn abandoned_traces_leave_no_residue() {
        let recorder = FlightRecorder::new(8, Telemetry::disabled());
        let ctx = recorder.begin("cancel", 1, Instant::now()).unwrap();
        ctx.abandon();
        assert_eq!(recorder.depth(), (0, 0));
    }
}
