//! TCP front end: one nonblocking event loop owns every socket, and
//! ticks the engine.
//!
//! The `pqos-net` loop accepts connections, frames JSON lines, and
//! enforces write backpressure; this module is its callback, and the
//! loop's thread is the engine's single writer. A request line is
//! parsed, traced and queued on `NetEvent::Line`; at the pass's
//! `NetEvent::Batch` the queued requests run through the `Engine` in
//! ticks of at most `MAX_BATCH`, and every reply is encoded straight onto
//! its connection — so a request is answered in the same loop pass that
//! read it, in that pass's one `write` per connection. Each request's
//! trace finishes once its bytes are flushed (the watermark returned by
//! `Ctx::send` pairs with `NetEvent::Flushed`). No thread is spawned per
//! connection, and none sits between a request and its answer.
//!
//! Backpressure is an explicit answer: a pass hands the engine at most
//! `queue_depth` requests, and the excess answers `overloaded` (counted
//! in `status`); a peer that stops reading is paused at the loop's
//! high-water mark and dropped at its hard cap, so one slow client
//! cannot pin reply memory. A request that waited past `request_timeout`
//! between its line being read and its tick answers `timeout`.
//!
//! Disconnect handling mirrors `pqos-doctor`'s broken-pipe policy: a
//! peer that closes its socket mid-stream is a *clean* disconnect — its
//! unflushed replies and traces are abandoned, nothing else notices.
//! Malformed request lines (bad JSON, unknown verbs, invalid UTF-8)
//! earn a `bad_request` reply and the connection stays open.
//!
//! Shutdown is graceful: the tick that serves `shutdown` refuses
//! everything behind it, the rest of its pass and every later line
//! answer `shutting_down`, the journal and request trace flush, and the
//! loop stops accepting, flushes every queued reply and returns; then
//! [`serve_core`] writes the configured exit artifacts (flight-recorder
//! Chrome trace, final metrics snapshot).

use crate::engine::{Engine, EngineConfig, EngineRequest, MAX_BATCH};
use crate::flight::{FlightRecorder, Stage, TraceCtx};
use crate::metrics_http;
use crate::protocol::{ErrorCode, ParseError, Request, Response};
use crate::record::TraceRecorder;
use crate::tick::EngineCore;
use pqos_net::{Ctx, EventLoop, NetConfig, NetEvent, Token};
use pqos_predict::api::Predictor;
use pqos_telemetry::reqtrace::TraceMeta;
use pqos_telemetry::{WindowStore, DEFAULT_WINDOW_CAPACITY};
use std::collections::HashMap;
use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Everything [`serve_core`] needs beyond the protocol listener: engine
/// tuning plus the observability plane.
#[derive(Debug)]
pub struct ServerConfig {
    /// Engine tuning.
    pub engine: EngineConfig,
    /// Pre-bound listener for the `/metrics` endpoint (`None` disables
    /// HTTP exposition; the registry still fills).
    pub metrics: Option<TcpListener>,
    /// Completed traces the flight recorder retains; `0` disables
    /// request tracing entirely.
    pub flight_capacity: usize,
    /// Where to write the flight recorder's Chrome trace when the daemon
    /// drains.
    pub flight_dump: Option<PathBuf>,
    /// Where to write the final metrics snapshot (JSON) when the daemon
    /// drains.
    pub metrics_dump: Option<PathBuf>,
    /// Record every answered request as a replayable trace (`--record`).
    pub record: Option<RecordConfig>,
    /// Width of one windowed-health-history sample in wall milliseconds
    /// (`0` disables the history plane: no sampler thread, and the
    /// `history` verb and `/history` route answer an empty document).
    pub history_window_ms: u64,
}

/// Where and how to record a request trace: the destination path plus the
/// [`TraceMeta`] header describing the session (the daemon binary knows
/// the predictor and horizon; `serve_core` does not).
#[derive(Debug, Clone)]
pub struct RecordConfig {
    /// Trace destination (JSONL).
    pub path: PathBuf,
    /// Header describing the recording session's configuration.
    pub meta: TraceMeta,
}

/// Default ring size: enough to hold a full engine tick's worth of
/// requests plus context around it.
pub const DEFAULT_FLIGHT_CAPACITY: usize = 256;

/// Default health-history window width: one second per point, two
/// minutes of ring (`DEFAULT_WINDOW_CAPACITY` windows).
pub const DEFAULT_HISTORY_WINDOW_MS: u64 = 1000;

/// How often the history sampler rechecks the draining flag between
/// samples, so shutdown never waits out a wide window.
const HISTORY_POLL: Duration = Duration::from_millis(50);

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            engine: EngineConfig::default(),
            metrics: None,
            flight_capacity: DEFAULT_FLIGHT_CAPACITY,
            flight_dump: None,
            metrics_dump: None,
            record: None,
            history_window_ms: DEFAULT_HISTORY_WINDOW_MS,
        }
    }
}

impl From<EngineConfig> for ServerConfig {
    fn from(engine: EngineConfig) -> Self {
        ServerConfig {
            engine,
            ..ServerConfig::default()
        }
    }
}

/// Serves an admission core on `listener` until a client sends
/// `shutdown`: a bare (possibly sharded)
/// [`ShardedCore`](crate::shard::ShardedCore), or the [`EngineCore`]
/// `pqos-qosd` gets from [`build_core`](crate::tick::build_core); the
/// front end is identical either way.
///
/// Blocks the calling thread for the daemon's lifetime. On return the
/// engine has drained, the telemetry journal is flushed, the event loop
/// has flushed every queued reply, and any configured exit dumps are on
/// disk.
///
/// # Errors
///
/// Only listener-level failures (registering it with the readiness
/// driver) surface as `Err`; per-connection I/O errors are handled as
/// clean disconnects.
pub fn serve_core<P>(
    listener: TcpListener,
    core: impl Into<EngineCore<P>>,
    mut config: ServerConfig,
) -> std::io::Result<()>
where
    P: Predictor + Send + Sync + 'static,
{
    let core = core.into();
    let telemetry = core.core().telemetry().clone();
    // The windowed health history: one store shared by the sampler
    // thread (below), the engine's `history` verb, and the `/history`
    // HTTP route.
    let history = (config.history_window_ms > 0).then(|| {
        Arc::new(WindowStore::new(
            DEFAULT_WINDOW_CAPACITY,
            config.history_window_ms,
        ))
    });
    config.engine.history = history.clone();
    let recorder = if config.flight_capacity > 0 {
        FlightRecorder::new(config.flight_capacity, telemetry.clone())
    } else {
        FlightRecorder::disabled()
    };
    let trace_rec = match &config.record {
        Some(rec) => TraceRecorder::to_path(&rec.path, &rec.meta)?,
        None => TraceRecorder::disabled(),
    };
    // A panicking daemon must still leave a complete journal and flight
    // ring behind — those artifacts are the incident capture.
    pqos_telemetry::panichook::flush_on_panic(&telemetry);
    if let Some(path) = config.flight_dump.clone() {
        let panic_recorder = recorder.clone();
        pqos_telemetry::panichook::on_panic(move || {
            let _ = std::fs::write(&path, panic_recorder.dump_chrome());
        });
    }
    let event_loop = EventLoop::bind(listener, NetConfig::default())?;
    let engine_config = std::mem::take(&mut config.engine);
    let mut engine = Engine::new(core, engine_config, recorder.clone(), trace_rec);
    let monitor = engine.monitor();
    let metrics_join = config.metrics.take().map(|metrics_listener| {
        metrics_http::spawn(
            metrics_listener,
            telemetry.clone(),
            monitor.clone(),
            history.clone(),
        )
    });
    // Wall-clock sampler: folds the registry into the window ring once
    // per window until the engine drains.
    let sampler_join = history.map(|store| {
        let sampler_telemetry = telemetry.clone();
        let sampler = monitor.clone();
        std::thread::Builder::new()
            .name("pqos-history".into())
            .spawn(move || {
                let period = Duration::from_millis(store.window_ms());
                let mut slept = Duration::ZERO;
                while !sampler.is_draining() {
                    std::thread::sleep(HISTORY_POLL);
                    slept += HISTORY_POLL;
                    if slept >= period {
                        slept = Duration::ZERO;
                        sampler.refresh_gauges();
                        store.sample(&sampler_telemetry);
                    }
                }
            })
            .expect("spawn history sampler thread")
    });

    // The pass's requests, queued on `Line` and ticked at `Batch`.
    let mut queue: Vec<EngineRequest<Token>> = Vec::new();
    let mut batch = Vec::with_capacity(MAX_BATCH);
    let mut writer = Writer::default();
    let loop_result = event_loop.run(|event, ctx| match event {
        NetEvent::Line(token, line) => {
            take_line(
                line,
                token,
                &engine,
                &recorder,
                &mut queue,
                &mut writer,
                ctx,
            );
        }
        NetEvent::Batch => {
            let mut answer = |&token: &Token, response: Response, trace| {
                writer.deliver(ctx, token, &response, trace);
            };
            let mut waiting = queue.drain(..);
            let mut shutdown = false;
            while !shutdown {
                batch.extend(waiting.by_ref().take(MAX_BATCH));
                if batch.is_empty() {
                    break;
                }
                shutdown = engine.tick(&mut batch, &mut answer);
            }
            for stale in waiting {
                engine.refuse(stale, &mut answer);
            }
            if shutdown {
                engine.finish();
                ctx.shutdown();
            }
        }
        NetEvent::Flushed(token, flushed_total) => writer.flushed(token, flushed_total),
        NetEvent::Closed(token) => writer.closed(token),
    });
    if !engine.is_draining() {
        // The loop failed under a live engine: drain it all the same, so
        // the journal is whole and the threads beside it stop.
        engine.finish();
    }
    if let Some(join) = metrics_join {
        let _ = join.join();
    }
    if let Some(join) = sampler_join {
        let _ = join.join();
    }
    if let Some(path) = &config.flight_dump {
        std::fs::write(path, recorder.dump_chrome())?;
    }
    if let Some(path) = &config.metrics_dump {
        monitor.refresh_gauges();
        if let Some(snapshot) = telemetry.snapshot() {
            std::fs::write(path, snapshot.to_json())?;
        }
    }
    loop_result
}

/// Parses one request line and offers it to the pass's ticks; a line
/// that is not a request, or one the engine will not take (draining,
/// or the pass already holds `queue_depth`), is answered at once.
fn take_line<P: Predictor + Sync>(
    raw: &[u8],
    token: Token,
    engine: &Engine<P>,
    recorder: &FlightRecorder,
    queue: &mut Vec<EngineRequest<Token>>,
    writer: &mut Writer,
    ctx: &mut Ctx<'_>,
) {
    let arrived = Instant::now();
    // Not UTF-8 is not JSON: the line is refused whole, never repaired.
    let parsed = match std::str::from_utf8(raw).map(str::trim) {
        Ok("") => return,
        Ok(text) => Request::parse(text),
        Err(_) => Err(ParseError {
            id: None,
            detail: "not valid JSON",
        }),
    };
    match parsed {
        Ok(request) => {
            let mut trace = recorder.begin(request.verb(), token, arrived);
            if let Some(t) = trace.as_mut() {
                t.mark(Stage::Parse);
            }
            let item = EngineRequest {
                request,
                reply: token,
                enqueued: arrived,
                trace,
                conn: token,
            };
            if let Err((refusal, trace)) = engine.offer(queue, item) {
                writer.deliver(ctx, token, &refusal, trace);
            }
        }
        Err(parse_error) => {
            let refusal = Response::Error {
                id: parse_error.id.unwrap_or(0),
                code: ErrorCode::BadRequest,
                detail: parse_error.detail.into(),
            };
            writer.deliver(ctx, token, &refusal, None);
        }
    }
}

/// The reply side of the callback: the line every reply is encoded into,
/// and per connection the traces of replies queued but not yet flushed —
/// `(watermark, trace)` in watermark order, finished when
/// `NetEvent::Flushed` passes the watermark.
#[derive(Default)]
struct Writer {
    line: String,
    unflushed: HashMap<Token, Vec<(u64, TraceCtx)>>,
}

impl Writer {
    /// Queues one encoded reply on the connection. If the bytes were
    /// accepted, the trace parks against the returned watermark until the
    /// flush notification; a gone connection abandons it.
    fn deliver(
        &mut self,
        ctx: &mut Ctx<'_>,
        token: Token,
        response: &Response,
        trace: Option<TraceCtx>,
    ) {
        self.line.clear();
        response.encode_into(&mut self.line);
        self.line.push('\n');
        let sent = ctx.send(token, self.line.as_bytes());
        if let Some(t) = trace {
            match sent {
                Some(watermark) => self
                    .unflushed
                    .entry(token)
                    .or_default()
                    .push((watermark, t)),
                None => t.abandon(),
            }
        }
    }

    /// Everything at or under the flushed total is on the wire now
    /// (watermarks are monotonic per connection).
    fn flushed(&mut self, token: Token, flushed_total: u64) {
        if let Some(pending) = self.unflushed.get_mut(&token) {
            let delivered = pending.partition_point(|(w, _)| *w <= flushed_total);
            for (_, mut trace) in pending.drain(..delivered) {
                trace.mark(Stage::Write);
                trace.finish();
            }
        }
    }

    fn closed(&mut self, token: Token) {
        for (_, trace) in self.unflushed.remove(&token).into_iter().flatten() {
            trace.abandon();
        }
    }
}
