//! TCP front end: one nonblocking event loop owns every socket.
//!
//! The `pqos-net` loop accepts connections, frames JSON lines, and
//! enforces write backpressure; this module is its callback. A request
//! line is parsed, traced, and submitted to the engine with a
//! [`ReplySender`] that tags the reply with the connection's token and
//! wakes the loop; the loop relays completed replies onto their sockets
//! — a tick's worth per wake-up, one `write` per connection — and
//! finishes each request's trace once the bytes are flushed (the
//! watermark returned by `Ctx::send` pairs with `NetEvent::Flushed`).
//! No thread is spawned per connection — the old two-threads-per-client
//! relay needed ~200 threads for 100 clients; this plane needs one,
//! which is what makes six-figure request rates approachable.
//!
//! Disconnect handling mirrors `pqos-doctor`'s broken-pipe policy: a
//! peer that closes its socket mid-stream is a *clean* disconnect — its
//! unflushed replies and traces are abandoned, nothing else notices.
//! Malformed request lines (bad JSON, unknown verbs, invalid UTF-8)
//! earn a `bad_request` reply and the connection stays open. A peer
//! that stops reading is paused at the loop's high-water mark and
//! dropped at its hard cap, so one slow client cannot pin reply memory.
//!
//! Shutdown is graceful: the `shutdown` verb makes the engine drain and
//! flush its journal; a watcher thread wakes the loop when the engine
//! exits; the loop stops accepting, flushes every queued reply, and
//! [`serve`] writes the configured exit artifacts (flight-recorder
//! Chrome trace, final metrics snapshot) before returning.

use crate::engine::{self, EngineConfig, EngineHandle, ReplySender};
use crate::flight::{FlightRecorder, TraceCtx};
use crate::metrics_http;
use crate::protocol::{ErrorCode, Request, Response};
use crate::record::TraceRecorder;
use crate::shard::ShardedCore;
use crate::tick::EngineCore;
use pqos_core::session::NegotiationSession;
use pqos_net::{Ctx, EventLoop, NetConfig, NetEvent, Token};
use pqos_predict::api::Predictor;
use pqos_telemetry::reqtrace::TraceMeta;
use pqos_telemetry::{WindowStore, DEFAULT_WINDOW_CAPACITY};
use std::collections::HashMap;
use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::mpsc::Receiver;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Everything [`serve`] needs beyond the protocol listener: engine
/// tuning plus the observability plane.
#[derive(Debug)]
pub struct ServerConfig {
    /// Engine-thread tuning.
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
/// the predictor and horizon; `serve` does not).
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

/// Serves `session` on `listener` until a client sends `shutdown`.
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
pub fn serve<P>(
    listener: TcpListener,
    session: NegotiationSession<P>,
    config: ServerConfig,
) -> std::io::Result<()>
where
    P: Predictor + Send + Sync + 'static,
{
    serve_core(listener, ShardedCore::single(session), config)
}

/// [`serve`] over an admission core — a bare (possibly sharded)
/// [`ShardedCore`], or the [`EngineCore`] `pqos-qosd` gets from
/// [`build_core`](crate::tick::build_core); the front end is identical
/// either way.
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
    let waker = event_loop.waker();
    let engine_config = std::mem::take(&mut config.engine);
    let (handle, engine_join) =
        engine::spawn_core(core, engine_config, recorder.clone(), trace_rec);
    let metrics_join = config.metrics.take().map(|metrics_listener| {
        metrics_http::spawn(
            metrics_listener,
            telemetry.clone(),
            handle.clone(),
            history.clone(),
        )
    });
    // Wall-clock sampler: folds the registry into the window ring once
    // per window until the engine drains.
    let sampler_join = history.map(|store| {
        let sampler_telemetry = telemetry.clone();
        let sampler_handle = handle.clone();
        std::thread::Builder::new()
            .name("pqos-history".into())
            .spawn(move || {
                let period = Duration::from_millis(store.window_ms());
                let mut slept = Duration::ZERO;
                while !sampler_handle.is_draining() {
                    std::thread::sleep(HISTORY_POLL);
                    slept += HISTORY_POLL;
                    if slept >= period {
                        slept = Duration::ZERO;
                        sampler_handle.refresh_gauges();
                        store.sample(&sampler_telemetry);
                    }
                }
            })
            .expect("spawn history sampler thread")
    });
    // The loop sleeps in the readiness driver; when the engine drains
    // (shutdown verb served, journal flushed) this watcher is what
    // knocks it loose so it can stop accepting and flush out.
    let drain_waker = waker.clone();
    let drain_watch = std::thread::spawn(move || {
        let _ = engine_join.join();
        drain_waker.wake();
    });

    // Engine replies for every connection land here, tagged by token;
    // the first send since the loop last looked wakes it, and its Wake
    // handler relays everything queued by then.
    let (done_tx, completions) = std::sync::mpsc::channel::<(Token, Response, Option<TraceCtx>)>();
    let mut conns: HashMap<Token, ConnState> = HashMap::new();
    let loop_result = event_loop.run(|event, ctx| match event {
        NetEvent::Opened(token) => {
            conns.insert(
                token,
                ConnState {
                    reply: ReplySender::net(done_tx.clone(), token, waker.clone()),
                    pending: Vec::new(),
                },
            );
        }
        NetEvent::Line(token, line) => {
            dispatch_line(line, token, &handle, &recorder, &mut conns, ctx);
        }
        NetEvent::Wake | NetEvent::Tick => {
            relay_completions(&completions, &mut conns, ctx);
            if handle.is_draining() && !ctx.is_draining() {
                ctx.shutdown();
            }
        }
        NetEvent::Flushed(token, flushed_total) => {
            if let Some(state) = conns.get_mut(&token) {
                // Watermarks are monotonic per connection: everything
                // at or under the flushed total is on the wire now.
                let delivered = state.pending.partition_point(|(w, _)| *w <= flushed_total);
                for (_, mut trace) in state.pending.drain(..delivered) {
                    trace.mark("write");
                    trace.finish();
                }
            }
        }
        NetEvent::Closed(token) => {
            if let Some(state) = conns.remove(&token) {
                for (_, trace) in state.pending {
                    trace.abandon();
                }
            }
        }
    });
    // The loop is gone: replies still queued can never reach a socket,
    // so drop their traces from the in-flight table.
    while let Ok((_, _, trace)) = completions.try_recv() {
        if let Some(t) = trace {
            t.abandon();
        }
    }
    let _ = drain_watch.join();
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
        handle.refresh_gauges();
        if let Some(snapshot) = telemetry.snapshot() {
            std::fs::write(path, snapshot.to_json())?;
        }
    }
    loop_result
}

/// Per-connection bookkeeping the callback keeps alongside the loop's
/// own socket state.
struct ConnState {
    /// The reply lane requests from this connection carry into the
    /// engine.
    reply: ReplySender,
    /// Replies written to the socket buffer but not yet flushed:
    /// `(watermark, trace)`, in watermark order. Their traces finish
    /// when `NetEvent::Flushed` passes the watermark.
    pending: Vec<(u64, TraceCtx)>,
}

/// Parses one request line and routes it into the engine; refusals and
/// parse errors are answered inline (we are already on the loop thread).
fn dispatch_line(
    raw: &[u8],
    token: Token,
    engine: &EngineHandle,
    recorder: &FlightRecorder,
    conns: &mut HashMap<Token, ConnState>,
    ctx: &mut Ctx<'_>,
) {
    let arrived = Instant::now();
    let text = String::from_utf8_lossy(raw);
    let text = text.trim();
    if text.is_empty() {
        return;
    }
    match Request::parse(text) {
        Ok(request) => {
            let mut trace = recorder.begin(request.verb(), token, arrived);
            if let Some(t) = trace.as_mut() {
                t.mark("parse");
            }
            let Some(state) = conns.get(&token) else {
                if let Some(t) = trace {
                    t.abandon();
                }
                return;
            };
            let reply = state.reply.clone();
            if let Err((refusal, trace)) = engine.submit(request, &reply, trace, token) {
                deliver(ctx, conns, token, &refusal, trace);
            }
        }
        Err(parse_error) => {
            let refusal = Response::Error {
                id: parse_error.id.unwrap_or(0),
                code: ErrorCode::BadRequest,
                detail: parse_error.detail.into(),
            };
            deliver(ctx, conns, token, &refusal, None);
        }
    }
}

/// Drains the completion queue, writing each reply to its connection.
fn relay_completions(
    completions: &Receiver<(Token, Response, Option<TraceCtx>)>,
    conns: &mut HashMap<Token, ConnState>,
    ctx: &mut Ctx<'_>,
) {
    while let Ok((token, response, trace)) = completions.try_recv() {
        deliver(ctx, conns, token, &response, trace);
    }
}

/// Queues one encoded reply on the connection. If the bytes were
/// accepted, the trace parks against the returned watermark until the
/// flush notification; a gone connection abandons it.
fn deliver(
    ctx: &mut Ctx<'_>,
    conns: &mut HashMap<Token, ConnState>,
    token: Token,
    response: &Response,
    trace: Option<TraceCtx>,
) {
    let mut line = response.encode();
    line.push('\n');
    match ctx.send(token, line.as_bytes()) {
        Some(watermark) => {
            if let Some(t) = trace {
                match conns.get_mut(&token) {
                    Some(state) => state.pending.push((watermark, t)),
                    None => t.abandon(),
                }
            }
        }
        None => {
            if let Some(t) = trace {
                t.abandon();
            }
        }
    }
}
