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
//! first finished request, and kept in the recorder by verb and stage
//! index: finishing a trace on the daemon's loop thread builds no metric
//! name and hashes no key, and a trace's marks live inline in it.
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

/// A processing stage, indexing [`STAGES`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Stage {
    Parse,
    Queue,
    Batch,
    Compute,
    Write,
}

impl Stage {
    /// The stage's name in [`STAGES`].
    fn name(self) -> &'static str {
        STAGES[self as usize]
    }
}

/// A trace's stage marks in the order made, inline: a request passes
/// each stage at most once.
#[derive(Debug, Clone, Copy)]
struct Marks<T> {
    at: [(Stage, T); STAGES.len()],
    len: usize,
}

impl<T: Copy> Marks<T> {
    /// No marks; `fill` only pads the array.
    fn new(fill: T) -> Self {
        Marks {
            at: [(Stage::Parse, fill); STAGES.len()],
            len: 0,
        }
    }

    fn push(&mut self, stage: Stage, at: T) {
        debug_assert!(self.len < STAGES.len(), "a stage marked twice");
        if let Some(slot) = self.at.get_mut(self.len) {
            *slot = (stage, at);
            self.len += 1;
        }
    }

    fn as_slice(&self) -> &[(Stage, T)] {
        &self.at[..self.len]
    }
}

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
    marks: Marks<Duration>,
}

/// One verb's metric handles: `rpc.request_ns` and `rpc.requests_total`,
/// and `rpc.stage_ns` by stage index.
struct VerbMeters {
    verb: &'static str,
    request_ns: Histogram,
    requests: Counter,
    stage_ns: [Option<Histogram>; STAGES.len()],
}

struct State {
    inflight: HashMap<u64, TraceRecord>,
    completed: VecDeque<TraceRecord>,
    /// Each verb's handles, resolved the first time a trace finishes with
    /// it (a stage's, the first time one finishes having marked it) — so
    /// the registry holds exactly the families it would if every name were
    /// resolved per request. A handful of verbs: found by a scan.
    verbs: Vec<VerbMeters>,
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
                    verbs: Vec::new(),
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
            marks: Marks::new(Duration::ZERO),
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
            marks: Marks::new(begin),
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
        let state = &mut *state;
        let meters = match state.verbs.iter().position(|m| m.verb == verb) {
            Some(k) => &mut state.verbs[k],
            None => {
                let labels = [("verb", verb)];
                state.verbs.push(VerbMeters {
                    verb,
                    request_ns: telemetry.histogram(&labeled("rpc.request_ns", &labels)),
                    requests: telemetry.counter(&labeled("rpc.requests_total", &labels)),
                    stage_ns: Default::default(),
                });
                state.verbs.last_mut().expect("just pushed")
            }
        };
        let mut total = Duration::ZERO;
        let mut prev = ctx.begin;
        for &(stage, at) in ctx.marks.as_slice() {
            let dur = at.saturating_duration_since(prev);
            prev = at;
            total += dur;
            meters.stage_ns[stage as usize]
                .get_or_insert_with(|| {
                    let labels = [("stage", stage.name()), ("verb", verb)];
                    telemetry.histogram(&labeled("rpc.stage_ns", &labels))
                })
                .observe(dur.as_nanos() as f64);
        }
        meters.request_ns.observe(total.as_nanos() as f64);
        meters.requests.inc();
        let Some(mut record) = state.inflight.remove(&ctx.seq) else {
            return;
        };
        let mut marks = Marks::new(Duration::ZERO);
        for &(stage, at) in ctx.marks.as_slice() {
            marks.push(stage, at.saturating_duration_since(ctx.begin));
        }
        record.marks = marks;
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
                .as_slice()
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
            for &(stage, at) in record.marks.as_slice() {
                let stage = stage.name();
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
                prev = at;
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
    marks: Marks<Instant>,
}

impl TraceCtx {
    /// Marks the end of `stage` at now.
    pub(crate) fn mark(&mut self, stage: Stage) {
        self.marks.push(stage, Instant::now());
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
        for stage in [
            Stage::Parse,
            Stage::Queue,
            Stage::Batch,
            Stage::Compute,
            Stage::Write,
        ] {
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
            ctx.mark(Stage::Parse);
            ctx.mark(Stage::Write);
            ctx.finish();
        }
        assert_eq!(recorder.depth(), (0, 2));
    }

    #[test]
    fn stage_histograms_are_per_verb_and_per_stage() {
        let telemetry = Telemetry::builder().ring_buffer(1).build();
        let recorder = FlightRecorder::new(8, telemetry.clone());
        let mut ctx = recorder.begin("negotiate", 1, Instant::now()).unwrap();
        ctx.mark(Stage::Parse);
        ctx.mark(Stage::Queue);
        ctx.mark(Stage::Compute);
        ctx.mark(Stage::Write);
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
        done.mark(Stage::Parse);
        done.mark(Stage::Queue);
        done.mark(Stage::Compute);
        done.mark(Stage::Write);
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

    /// The request flows the daemon traces, by verb: the stages each marks.
    const FLOWS: [(&str, &[Stage]); 4] = [
        (
            "negotiate",
            &[
                Stage::Parse,
                Stage::Queue,
                Stage::Batch,
                Stage::Compute,
                Stage::Write,
            ],
        ),
        (
            "accept",
            &[Stage::Parse, Stage::Queue, Stage::Compute, Stage::Write],
        ),
        ("status", &[Stage::Parse, Stage::Queue, Stage::Compute]),
        ("cancel", &[Stage::Parse, Stage::Write]),
    ];

    #[test]
    fn the_registry_holds_one_family_per_verb_and_stage_seen() {
        let telemetry = Telemetry::builder().build();
        let recorder = FlightRecorder::new(4, telemetry.clone());
        // What resolving every name per request registers: one stage
        // histogram per (stage, verb) marked, one request histogram and
        // counter per verb, each counting its requests.
        let mut want = std::collections::BTreeMap::new();
        for n in 0..40 {
            let (verb, stages) = FLOWS[n * 7 % FLOWS.len()];
            let mut ctx = recorder.begin(verb, n as u64 % 3, Instant::now()).unwrap();
            for &stage in stages {
                ctx.mark(stage);
                let labels = [("stage", stage.name()), ("verb", verb)];
                *want.entry(labeled("rpc.stage_ns", &labels)).or_insert(0) += 1;
            }
            if n == 39 {
                ctx.abandon();
                continue;
            }
            ctx.finish();
            for family in ["rpc.request_ns", "rpc.requests_total"] {
                *want.entry(labeled(family, &[("verb", verb)])).or_insert(0) += 1;
            }
        }
        // The abandoned request observed nothing.
        for &stage in FLOWS[39 * 7 % FLOWS.len()].1 {
            let labels = [
                ("stage", stage.name()),
                ("verb", FLOWS[39 * 7 % FLOWS.len()].0),
            ];
            *want.get_mut(&labeled("rpc.stage_ns", &labels)).unwrap() -= 1;
        }
        let snap = telemetry.snapshot().unwrap();
        let mut got = std::collections::BTreeMap::new();
        for (name, h) in &snap.histograms {
            got.insert(name.clone(), h.count);
        }
        for (name, count) in &snap.counters {
            got.insert(name.clone(), *count);
        }
        assert_eq!(got, want);
    }

    #[test]
    fn dump_keeps_its_shape() {
        let recorder = FlightRecorder::new(3, Telemetry::disabled());
        for (n, (verb, stages)) in FLOWS.iter().enumerate() {
            let mut ctx = recorder.begin(verb, n as u64 % 2, Instant::now()).unwrap();
            for &stage in *stages {
                ctx.mark(stage);
            }
            ctx.finish();
        }
        let _open = recorder.begin("negotiate", 5, Instant::now()).unwrap();
        let doc = recorder.dump_chrome();
        assert!(doc.starts_with("{\"traceEvents\":[\n") && doc.ends_with("\n]}\n"));
        let v = Json::parse(doc.trim()).expect("dump parses as JSON");
        // Everything but the clock: name, phase, track and argument keys.
        let shape: Vec<String> = v
            .get("traceEvents")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|e| {
                let s = |k| e.get(k).and_then(Json::as_str).unwrap_or("-").to_string();
                let tid = e.get("tid").and_then(Json::as_u64).map_or(-1, |t| t as i64);
                let args = e.get("args").unwrap();
                let arg = |k| match args.get(k) {
                    Some(Json::Str(x)) => x.clone(),
                    Some(Json::Bool(b)) => b.to_string(),
                    Some(n) => n.as_u64().expect("a count").to_string(),
                    None => "-".to_string(),
                };
                let (seq, stage, open) = (arg("seq"), arg("stage"), arg("inflight"));
                format!("{} {} {tid} {seq}/{stage}/{open}", s("name"), s("ph"))
            })
            .collect();
        let want = [
            "process_name M -1 -/-/-",
            "thread_name M 1 -/-/-",
            "accept X 1 1/-/false",
            "accept:parse X 1 1/parse/-",
            "accept:queue X 1 1/queue/-",
            "accept:compute X 1 1/compute/-",
            "accept:write X 1 1/write/-",
            "thread_name M 0 -/-/-",
            "status X 0 2/-/false",
            "status:parse X 0 2/parse/-",
            "status:queue X 0 2/queue/-",
            "status:compute X 0 2/compute/-",
            "cancel X 1 3/-/false",
            "cancel:parse X 1 3/parse/-",
            "cancel:write X 1 3/write/-",
            "thread_name M 5 -/-/-",
            "negotiate X 5 4/-/true",
        ];
        assert_eq!(shape, want);
    }

    #[test]
    fn abandoned_traces_leave_no_residue() {
        let recorder = FlightRecorder::new(8, Telemetry::disabled());
        let ctx = recorder.begin("cancel", 1, Instant::now()).unwrap();
        ctx.abandon();
        assert_eq!(recorder.depth(), (0, 0));
    }
}
