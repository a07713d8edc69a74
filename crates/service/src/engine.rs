//! The single-writer admission engine: one batch body, two drivers.
//!
//! An `Engine` owns the whole mutable service state — an
//! [`EngineCore`]: the admission sessions with their reservation books,
//! predictors, virtual clock and telemetry journals, plus the SLO
//! evaluator — and everything a tick does around it. Whoever holds it is
//! the single writer; nothing else touches the core. One tick
//! (`Engine::tick`) takes a batch of waiting requests and:
//!
//! 1. marks each trace's `queue` stage; requests that waited past their
//!    deadline answer `timeout` and go no further;
//! 2. runs the rest through `EngineCore::tick` at the current virtual
//!    time (wall-clock elapsed × `time_scale`) — the same epoch code
//!    replay runs: advance the clock, drain SLO windows, quote every
//!    `negotiate` in one batch against one book snapshot, apply accepts
//!    and cancels in arrival order;
//! 3. trace-marks (`batch`, `compute`), records and answers each request
//!    the moment the tick produces it; `status`/`dump`/`history` come back
//!    unanswered and are filled in here from wall-clock state;
//! 4. publishes the tick-end gauges and flushes the journal at most once
//!    a second. A served `shutdown` refuses everything behind it
//!    (`shutting_down`), and the driver refuses what is still waiting
//!    (`Engine::refuse`) and calls `Engine::finish`: final gauges,
//!    journal and trace flushed.
//!
//! Two drivers feed it:
//!
//! - **The daemon's net loop** (`server.rs`). Requests read in one loop
//!   pass are handed over at the pass's `NetEvent::Batch`, in ticks of at
//!   most `MAX_BATCH` (256), and answered before the pass writes: no thread hop
//!   between a request and its answer. `queue_depth` caps what one pass
//!   hands over; the excess answers `overloaded`.
//! - **The engine thread** ([`spawn`], [`spawn_core`]) for in-process
//!   callers — tests, replay checks, `experiments`, the perf ledger's
//!   engine lane. They [`EngineHandle::submit`] onto a *bounded* channel
//!   (a full one answers `overloaded` at once) and receive replies on a
//!   [`ReplySender`]. The thread blocks on the channel, then drains what
//!   is waiting into one tick, so an idle engine wakes per request and a
//!   busy one amortizes whole queue-fulls into one snapshot.
//!
//! Either way backpressure is an explicit answer, never unbounded
//! buffering or a lock convoy. The threads beside a running engine (the
//! `/metrics` endpoint, the history sampler) read it through an
//! `EngineMonitor`: shared atomics, never a queue.

use crate::flight::{FlightRecorder, Stage, TraceCtx};
use crate::protocol::{ErrorCode, Request, Response, StatusBody};
use crate::record::TraceRecorder;
use crate::shard::ShardedCore;
use crate::tick::{shutting_down, EngineCore, TickEvent};
use pqos_core::session::{NegotiationSession, SessionStatus};
use pqos_net::Token;
use pqos_predict::api::Predictor;
use pqos_telemetry::{Counter, Gauge, Histogram, SinkHealth, SloEngine, Telemetry, WindowStore};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Where the engine thread sends a reply: an in-process channel. The
/// request's trace rides along, to be marked `write` and finished by
/// whoever writes the reply.
#[derive(Clone)]
pub struct ReplySender {
    tx: Sender<(Response, Option<TraceCtx>)>,
}

impl ReplySender {
    /// An in-process reply lane: the receiver sees `(response, trace)`
    /// pairs in engine order.
    pub fn channel() -> (ReplySender, Receiver<(Response, Option<TraceCtx>)>) {
        let (tx, rx) = std::sync::mpsc::channel();
        (ReplySender { tx }, rx)
    }

    /// Sends the reply. A gone receiver hands the payload back so the
    /// caller can abandon the trace instead of leaking it.
    #[allow(clippy::result_large_err)] // consumed immediately by the caller
    pub(crate) fn send(
        &self,
        response: Response,
        trace: Option<TraceCtx>,
    ) -> Result<(), (Response, Option<TraceCtx>)> {
        self.tx.send((response, trace)).map_err(|e| e.0)
    }
}

/// Most requests coalesced into one tick, by either driver.
pub(crate) const MAX_BATCH: usize = 256;

/// Tuning for the engine, whichever driver runs it.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// The most requests waiting for a tick: the engine thread's bounded
    /// queue, or what one net-loop pass hands the daemon's engine. The
    /// excess answers `overloaded`.
    pub queue_depth: usize,
    /// The most workers one batch of quotes may fan out over. A batch is
    /// quoted inline on the ticking thread unless every worker would get
    /// at least 16 requests (`pqos_core::negotiate::negotiate_batch`).
    pub batch_threads: usize,
    /// Virtual seconds that elapse per wall-clock second.
    pub time_scale: f64,
    /// Wait budget per request, from its line being read (or its submit)
    /// to its tick; exceeded requests answer `timeout`.
    pub request_timeout: Duration,
    /// Sessions that re-check batched quotes against serial negotiation
    /// (`NegotiationSession::verify_parity`) do so only on every Nth
    /// batch (deterministic 1-in-N sampling; 1 = every batch). Tests and
    /// CI keep the default of 1 so parity stays exhaustive where it
    /// matters; release serving dials it up to keep the re-check off the
    /// hot path (`pqos-qosd --parity-sample`).
    pub parity_sample: u64,
    /// Wall-clock windowed health history served by the `history` verb
    /// (sampled by the server's history thread, not by the engine).
    /// `None` answers `history` with an empty document.
    pub history: Option<Arc<WindowStore>>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            queue_depth: 1024,
            batch_threads: std::thread::available_parallelism().map_or(4, |n| n.get()),
            time_scale: 1.0,
            request_timeout: Duration::from_secs(5),
            parity_sample: 1,
            history: None,
        }
    }
}

/// One request waiting for a tick: the request, where its answer goes
/// (`R`: a [`ReplySender`] on the engine thread, a connection token in
/// the daemon), when it arrived, and its trace (if the flight recorder is
/// on).
pub(crate) struct EngineRequest<R = ReplySender> {
    pub(crate) request: Request,
    pub(crate) reply: R,
    pub(crate) enqueued: Instant,
    pub(crate) trace: Option<TraceCtx>,
    /// Connection id the request arrived on (0 for in-process callers);
    /// recorded in the request trace.
    pub(crate) conn: u64,
}

/// State shared between the engine, its handles and monitors, and the
/// metrics endpoint: cheap atomics that are meaningful even while the
/// engine is busy inside a tick.
struct EngineShared {
    draining: AtomicBool,
    /// Requests waiting for a tick right now.
    queue_len: AtomicI64,
    /// Requests refused with `overloaded` since startup.
    overloaded: AtomicU64,
    /// When the engine started (uptime basis).
    epoch: Instant,
}

impl EngineShared {
    fn queue_depth(&self) -> usize {
        self.queue_len.load(Ordering::Relaxed).max(0) as usize
    }

    /// Both drivers' front door: `item` waits for a tick if `push` takes
    /// it. Otherwise the refusal comes back with the trace —
    /// `shutting_down` while draining (then `push` is never called) or
    /// once the engine is gone, `overloaded` (counted) when it is full.
    #[allow(clippy::result_large_err)] // consumed immediately by the caller
    fn enqueue<R>(
        &self,
        item: EngineRequest<R>,
        push: impl FnOnce(EngineRequest<R>) -> Result<(), TrySendError<EngineRequest<R>>>,
    ) -> Result<(), (Response, Option<TraceCtx>)> {
        let id = item.request.id();
        if self.draining.load(Ordering::Acquire) {
            return Err((shutting_down(id), item.trace));
        }
        match push(item) {
            Ok(()) => {
                self.queue_len.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
            Err(TrySendError::Full(item)) => {
                self.overloaded.fetch_add(1, Ordering::Relaxed);
                let refusal = Response::Error {
                    id,
                    code: ErrorCode::Overloaded,
                    detail: "engine queue full; retry".into(),
                };
                Err((refusal, item.trace))
            }
            Err(TrySendError::Disconnected(item)) => Err((shutting_down(id), item.trace)),
        }
    }
}

/// Read-only view of a running engine for the threads beside it: the
/// shared atomics and the registry its gauges live in.
#[derive(Clone)]
pub(crate) struct EngineMonitor {
    shared: Arc<EngineShared>,
    telemetry: Telemetry,
}

impl EngineMonitor {
    /// Whether the engine is draining: a `shutdown` was served, or its
    /// driver stopped.
    pub(crate) fn is_draining(&self) -> bool {
        self.shared.draining.load(Ordering::Acquire)
    }

    /// Pushes the live engine state into gauges, so a `/metrics` scrape
    /// of an idle daemon (no tick running) still reports fresh values.
    pub(crate) fn refresh_gauges(&self) {
        let (shared, telemetry) = (&self.shared, &self.telemetry);
        let set = |name: &str, v: i64| telemetry.gauge(name).set(v);
        set("engine.queue_depth", shared.queue_depth() as i64);
        set(
            "engine.overloaded_total",
            shared.overloaded.load(Ordering::Relaxed) as i64,
        );
        set(
            "process.uptime_seconds",
            shared.epoch.elapsed().as_secs() as i64,
        );
    }
}

/// Cheap clonable front door to the engine thread. Dropping every handle
/// (and the queue emptying) stops the engine.
#[derive(Clone)]
pub struct EngineHandle {
    tx: SyncSender<EngineRequest>,
    shared: Arc<EngineShared>,
}

impl EngineHandle {
    /// Enqueues `request`; its reply (and `trace`, marked and finished by
    /// the writer) will arrive on `reply`. When the engine cannot take it,
    /// the error response to send back — and the trace, returned so the
    /// caller can still finish it — comes back instead (`overloaded` on a
    /// full queue, `shutting_down` during drain).
    // The Err payload is large but is consumed immediately by the caller
    // to send the refusal; boxing it would put an allocation on the
    // overload path, which is exactly when we want to shed load cheaply.
    #[allow(clippy::result_large_err)]
    pub fn submit(
        &self,
        request: Request,
        reply: &ReplySender,
        trace: Option<TraceCtx>,
        conn: u64,
    ) -> Result<(), (Response, Option<TraceCtx>)> {
        let item = EngineRequest {
            request,
            reply: reply.clone(),
            enqueued: Instant::now(),
            trace,
            conn,
        };
        self.shared.enqueue(item, |item| self.tx.try_send(item))
    }

    /// Requests waiting in the engine queue right now.
    #[cfg(test)]
    fn queue_depth(&self) -> usize {
        self.shared.queue_depth()
    }

    /// Requests refused with `overloaded` since startup.
    #[cfg(test)]
    fn overloaded_total(&self) -> u64 {
        self.shared.overloaded.load(Ordering::Relaxed)
    }
}

/// Starts the engine thread around `session`. Returns the handle
/// connections submit through and the join handle to await drain.
/// `recorder` answers the `dump` verb (pass a disabled one to opt out);
/// `trace` captures every answered request for deterministic replay
/// (pass a disabled one to opt out).
pub fn spawn<P>(
    session: NegotiationSession<P>,
    config: EngineConfig,
    recorder: FlightRecorder,
    trace: TraceRecorder,
) -> (EngineHandle, JoinHandle<()>)
where
    P: Predictor + Send + Sync + 'static,
{
    spawn_core(ShardedCore::single(session), config, recorder, trace)
}

/// Starts the engine thread around an admission core: a bare (possibly
/// sharded) [`ShardedCore`], or the [`EngineCore`] that
/// [`build_core`](crate::tick::build_core) assembles with its SLO plane
/// attached. The classic [`spawn`] is this with a one-shard core. The
/// engine loop is identical either way — the core hides the routing.
pub fn spawn_core<P>(
    core: impl Into<EngineCore<P>>,
    config: EngineConfig,
    recorder: FlightRecorder,
    trace: TraceRecorder,
) -> (EngineHandle, JoinHandle<()>)
where
    P: Predictor + Send + Sync + 'static,
{
    let (tx, rx) = std::sync::mpsc::sync_channel(config.queue_depth.max(1));
    let engine = Engine::new(core, config, recorder, trace);
    let handle = EngineHandle {
        tx,
        shared: Arc::clone(&engine.shared),
    };
    let join = std::thread::Builder::new()
        .name("pqos-engine".into())
        .spawn(move || run(engine, rx))
        .expect("spawn engine thread");
    (handle, join)
}

/// The engine thread: block for a request, drain what else is waiting
/// into one tick, repeat until a `shutdown` is served or every handle is
/// gone.
fn run<P: Predictor + Sync>(mut engine: Engine<P>, rx: Receiver<EngineRequest>) {
    let mut batch = Vec::with_capacity(MAX_BATCH);
    let mut answer = |reply: &ReplySender, response, trace: Option<TraceCtx>| {
        if let Err((_, Some(t))) = reply.send(response, trace) {
            // Receiver gone: nobody will write the reply or finish the
            // trace, so drop it from the in-flight table instead of
            // leaking it.
            t.abandon();
        }
    };
    while let Ok(first) = rx.recv() {
        batch.push(first);
        batch.extend(rx.try_iter().take(MAX_BATCH - 1));
        if engine.tick(&mut batch, &mut answer) {
            for stale in rx.try_iter() {
                engine.refuse(stale, &mut answer);
            }
            break;
        }
    }
    engine.finish();
}

/// Journal-derived gauges (journal.*) are published on flush; flush at
/// most once a second so a mid-run /metrics scrape sees fresh session
/// counts without a sink flush on every tick.
const FLUSH_EVERY: Duration = Duration::from_secs(1);

/// The batch body both drivers run; see the [module docs](self).
pub(crate) struct Engine<P> {
    core: EngineCore<P>,
    config: EngineConfig,
    shared: Arc<EngineShared>,
    recorder: FlightRecorder,
    trace_rec: TraceRecorder,
    meters: Meters,
    /// The tick's `(request, recorded job)` items, kept between ticks.
    items: Vec<(Request, Option<u64>)>,
    /// Batch-epoch counter for the request trace: one per tick, starting
    /// at 1, so replay can reconstruct exactly which requests shared a
    /// book snapshot.
    epoch_no: u64,
    last_flush: Instant,
}

impl<P: Predictor + Sync> Engine<P> {
    /// The engine around `core`. Sampling cadence and fan-out are engine
    /// policy, not core construction: they are applied here so every
    /// driver (daemon, tests, benches) gets exactly what `config` says.
    pub(crate) fn new(
        core: impl Into<EngineCore<P>>,
        config: EngineConfig,
        recorder: FlightRecorder,
        trace_rec: TraceRecorder,
    ) -> Self {
        let core = core
            .into()
            .parity_sample(config.parity_sample)
            .batch_threads(config.batch_threads);
        let meters = Meters::new(core.core().telemetry());
        let engine = Engine {
            core,
            config,
            shared: Arc::new(EngineShared {
                draining: AtomicBool::new(false),
                queue_len: AtomicI64::new(0),
                overloaded: AtomicU64::new(0),
                epoch: Instant::now(),
            }),
            recorder,
            trace_rec,
            meters,
            items: Vec::new(),
            epoch_no: 0,
            last_flush: Instant::now(),
        };
        engine.publish();
        engine
    }

    fn telemetry(&self) -> &Telemetry {
        self.core.core().telemetry()
    }

    pub(crate) fn monitor(&self) -> EngineMonitor {
        EngineMonitor {
            shared: Arc::clone(&self.shared),
            telemetry: self.telemetry().clone(),
        }
    }

    pub(crate) fn is_draining(&self) -> bool {
        self.shared.draining.load(Ordering::Acquire)
    }

    /// The daemon's front door: queues `item` for the pass's ticks, which
    /// hold at most `queue_depth` requests; the refusal comes back
    /// otherwise, with the trace (see `EngineShared::enqueue`).
    #[allow(clippy::result_large_err)] // consumed immediately by the caller
    pub(crate) fn offer(
        &self,
        queue: &mut Vec<EngineRequest<Token>>,
        item: EngineRequest<Token>,
    ) -> Result<(), (Response, Option<TraceCtx>)> {
        let room = self.config.queue_depth.max(1);
        self.shared.enqueue(item, |item| {
            if queue.len() >= room {
                return Err(TrySendError::Full(item));
            }
            queue.push(item);
            Ok(())
        })
    }

    /// Answers a request that was still waiting when a `shutdown` was
    /// served: `shutting_down`, never executed, never recorded.
    pub(crate) fn refuse<R>(
        &self,
        item: EngineRequest<R>,
        answer: &mut impl FnMut(&R, Response, Option<TraceCtx>),
    ) {
        self.shared.queue_len.fetch_sub(1, Ordering::Relaxed);
        answer(&item.reply, shutting_down(item.request.id()), item.trace);
    }

    /// Runs one tick over `batch` (emptied), answering every request
    /// through `answer`. Returns whether a `shutdown` was served: the
    /// driver then refuses what is still waiting and calls
    /// [`Engine::finish`].
    pub(crate) fn tick<R>(
        &mut self,
        batch: &mut Vec<EngineRequest<R>>,
        answer: &mut impl FnMut(&R, Response, Option<TraceCtx>),
    ) -> bool {
        let tick_timer = self.meters.tick_ns.start_timer();
        let started = Instant::now();
        self.shared
            .queue_len
            .fetch_sub(batch.len() as i64, Ordering::Relaxed);
        let virtual_now = (started.duration_since(self.shared.epoch).as_secs_f64()
            * self.config.time_scale) as u64;
        self.epoch_no += 1;
        let epoch_no = self.epoch_no;

        // Queue timeouts are a wall-clock fact, so they are settled here
        // and never enter the tick.
        batch.retain_mut(|item| {
            if let Some(t) = item.trace.as_mut() {
                t.mark(Stage::Queue);
            }
            if started.saturating_duration_since(item.enqueued) <= self.config.request_timeout {
                return true;
            }
            self.meters.timeouts.inc();
            let response = Response::Error {
                id: item.request.id(),
                code: ErrorCode::Timeout,
                detail: "request waited past its deadline; retry".into(),
            };
            // Recorded with job:null — the request never reached the
            // session, and replay must skip it the same way.
            self.trace_rec.record(
                epoch_no,
                virtual_now,
                item.conn,
                &item.request,
                &response,
                None,
            );
            answer(&item.reply, response, item.trace.take());
            false
        });

        self.items.clear();
        self.items
            .extend(batch.iter().map(|item| (item.request, None)));
        let mut batched = 0u32;
        let (shared, recorder, trace_rec) = (&*self.shared, &self.recorder, &self.trace_rec);
        let history = self.config.history.as_deref();
        let shutdown = self.core.tick(virtual_now, &self.items, |k, event| {
            let item = &mut batch[k];
            let (response, job) = match event {
                TickEvent::Batched => {
                    batched += 1;
                    if let Some(t) = item.trace.as_mut() {
                        t.mark(Stage::Batch);
                    }
                    return;
                }
                TickEvent::Refused(refusal) => {
                    answer(&item.reply, refusal, item.trace.take());
                    return;
                }
                TickEvent::Reply { response, job } => (response, job),
                TickEvent::WallClock(admission) => {
                    let answer =
                        wall_clock_response(item.request, admission, shared, recorder, history);
                    (answer, None)
                }
            };
            if matches!(item.request, Request::Shutdown { .. }) {
                shared.draining.store(true, Ordering::Release);
            }
            if let Some(t) = item.trace.as_mut() {
                t.mark(Stage::Compute);
            }
            trace_rec.record(
                epoch_no,
                virtual_now,
                item.conn,
                &item.request,
                &response,
                job,
            );
            answer(&item.reply, response, item.trace.take());
        });
        batch.clear();
        if batched > 0 {
            self.meters.batch_size.observe(f64::from(batched));
        }
        if shutdown.is_some() {
            return true;
        }
        self.meters.ticks.inc();
        tick_timer.stop();
        self.publish();
        if self.last_flush.elapsed() >= FLUSH_EVERY {
            self.core.core().flush();
            self.last_flush = Instant::now();
        }
        false
    }

    /// The drain: final gauges (so the last scrape agrees with the
    /// flushed journal), then the journal and the request trace flushed.
    /// Marks the engine draining if no `shutdown` did.
    pub(crate) fn finish(&mut self) {
        self.shared.draining.store(true, Ordering::Release);
        self.publish();
        self.core.core().flush();
        self.trace_rec.flush();
    }

    /// Everything a scrape reads off the engine, set at every tick end
    /// and once more on drain, so the final scrape agrees with the
    /// flushed journal (`pqos-doctor crosscheck` holds us to that).
    /// Publishing never drains SLO windows: those close only inside a
    /// tick, so replay closes exactly the same set.
    fn publish(&self) {
        let (core, shared) = (self.core.core(), &*self.shared);
        let cache = core.quote_cache_stats();
        let promises = core.promise_stats();
        let values = [
            shared.queue_depth() as i64,
            core.live_jobs() as i64,
            shared.overloaded.load(Ordering::Relaxed) as i64,
            shared.epoch.elapsed().as_secs() as i64,
            cache.hits as i64,
            cache.misses as i64,
            cache.profile_rebuilds as i64,
            cache.entries_invalidated as i64,
            promises.made as i64,
            promises.kept as i64,
            promises.broken as i64,
            promises.cancelled as i64,
            promises.worst_residual_milli,
        ];
        for (gauge, value) in self.meters.gauges.iter().zip(values) {
            gauge.set(value);
        }
        if let Some(slo) = self.core.slo() {
            let values = [
                slo.rules().len() as i64,
                slo.active_alerts() as i64,
                slo.fired_total as i64,
                slo.resolved_total as i64,
                slo.windows_closed as i64,
            ];
            for (gauge, value) in self.meters.slo.iter().zip(values) {
                gauge.set(value);
            }
            set_slo_rule_gauges(self.telemetry(), slo);
        }
        set_shard_gauges(self.telemetry(), core);
    }
}

/// The gauges [`Engine::publish`] sets, in its order. Quote-cache
/// counters are cumulative session-side, published as gauges so a
/// /metrics scrape reads the latest totals (pqos_quote_cache_*);
/// `profile_rebuilds` reads 0 for good — the cache walks the book's own
/// timeline — and stays exported so dashboards and the perf ledger keep
/// their series. The promise ledger (pqos_promise_*) is cumulative
/// accepted-quote and resolution-verdict counts plus the worst
/// per-bucket calibration residual, in milli-units (observed − quoted,
/// ×1000; negative = overconfident).
const GAUGES: [&str; 13] = [
    "engine.queue_depth",
    "engine.live_jobs",
    "engine.overloaded_total",
    "process.uptime_seconds",
    "quote_cache.hits",
    "quote_cache.misses",
    "quote_cache.profile_rebuilds",
    "quote_cache.entries_invalidated",
    "promise.made",
    "promise.kept",
    "promise.broken",
    "promise.cancelled",
    "promise.worst_residual_milli",
];

/// The SLO plane's gauges, published when the core carries rules.
const SLO_GAUGES: [&str; 5] = [
    "slo.rules",
    "slo.active_alerts",
    "slo.alerts_fired_total",
    "slo.alerts_resolved_total",
    "slo.windows_closed_total",
];

/// The engine's own metric handles, resolved once.
struct Meters {
    tick_ns: Histogram,
    batch_size: Histogram,
    ticks: Counter,
    timeouts: Counter,
    gauges: [Gauge; GAUGES.len()],
    slo: [Gauge; SLO_GAUGES.len()],
}

impl Meters {
    fn new(telemetry: &Telemetry) -> Self {
        Meters {
            tick_ns: telemetry.histogram("engine.tick_ns"),
            batch_size: telemetry.histogram("engine.batch_size"),
            ticks: telemetry.counter("engine.ticks"),
            timeouts: telemetry.counter("engine.timeouts"),
            gauges: GAUGES.map(|name| telemetry.gauge(name)),
            slo: SLO_GAUGES.map(|name| telemetry.gauge(name)),
        }
    }
}

/// Answers a verb the tick handed back: these read wall-clock state
/// (uptime, queue depth, the flight ring, the sampled history) that only
/// the live engine has.
fn wall_clock_response<P: Predictor + Sync>(
    request: Request,
    core: &ShardedCore<P>,
    shared: &EngineShared,
    recorder: &FlightRecorder,
    history: Option<&WindowStore>,
) -> Response {
    let id = request.id();
    match request {
        Request::Dump { .. } => Response::Dump {
            id,
            trace: recorder.dump_chrome(),
        },
        Request::History { .. } => Response::History {
            id,
            history: history_body(history),
        },
        // `status`, the only other verb the tick hands back.
        _ => Response::Status {
            id,
            body: status_body(
                &core.status(),
                shared,
                core.live_jobs() as u64,
                core.sink_health(),
                core.shard_count() as u64,
                core.routed_last().to_vec(),
            ),
        },
    }
}

/// The sampled history as JSON — the `history` verb's body and the
/// metrics listener's `/history` page. With the history plane disabled it
/// is an empty document of the same shape.
pub(crate) fn history_body(store: Option<&WindowStore>) -> String {
    match store {
        Some(store) => store.to_json(),
        None => r#"{"history":true,"window_ms":0,"windows":0,"families":[]}"#.to_string(),
    }
}

/// Publishes one `slo.rule_firing{rule=..}` gauge per declared rule.
fn set_slo_rule_gauges(telemetry: &Telemetry, slo: &SloEngine) {
    let firing = slo.firing();
    for rule in slo.rules() {
        let labels = [("rule", rule.name.as_str())];
        telemetry
            .gauge(&pqos_telemetry::labeled("slo.rule_firing", &labels))
            .set(i64::from(firing.contains(&rule.name.as_str())));
    }
}

/// Publishes per-shard gauges (`shard="k"` labels on the engine, queue
/// and quote-cache families) on multi-shard cores; `engine.live_jobs`
/// per shard is that shard's own live count, so the shards plus the
/// coordinator sum to the unlabeled gauge. The final label lane in
/// `engine.shard_routed_total` is the cross-shard coordinator. A
/// one-shard core publishes nothing — the unlabeled gauges already tell
/// the whole story.
fn set_shard_gauges<P: Predictor + Sync>(telemetry: &Telemetry, core: &ShardedCore<P>) {
    if core.shard_count() <= 1 {
        return;
    }
    for (k, session) in core.shards().enumerate() {
        let (status, cache) = (session.status(), session.quote_cache_stats());
        let shard = k.to_string();
        let labels = [("shard", shard.as_str())];
        let set = |name: &str, v: i64| {
            telemetry
                .gauge(&pqos_telemetry::labeled(name, &labels))
                .set(v);
        };
        set("engine.live_jobs", session.live_jobs() as i64);
        set("engine.shard_quoted", status.stats.quoted as i64);
        set(
            "engine.shard_occupied_nodes",
            i64::from(status.occupied_nodes),
        );
        set("engine.shard_reservations", status.reservations as i64);
        set("quote_cache.hits", cache.hits as i64);
        set("quote_cache.misses", cache.misses as i64);
        set(
            "quote_cache.profile_rebuilds",
            cache.profile_rebuilds as i64,
        );
        set(
            "quote_cache.entries_invalidated",
            cache.entries_invalidated as i64,
        );
    }
    let routed = core.routed_total();
    for (k, &n) in routed.iter().enumerate() {
        let lane = if k == routed.len() - 1 {
            "wide".to_string()
        } else {
            k.to_string()
        };
        telemetry
            .gauge(&pqos_telemetry::labeled(
                "engine.shard_routed_total",
                &[("shard", lane.as_str())],
            ))
            .set(n as i64);
    }
}

fn status_body(
    status: &SessionStatus,
    shared: &EngineShared,
    live_jobs: u64,
    journal: SinkHealth,
    shards: u64,
    shard_queue: Vec<u64>,
) -> StatusBody {
    StatusBody {
        now_secs: status.now.as_secs(),
        cluster_size: status.cluster_size,
        occupied_nodes: status.occupied_nodes,
        reservations: status.reservations as u64,
        quoted: status.stats.quoted,
        rejected: status.stats.rejected,
        accepted: status.stats.accepted,
        expired: status.stats.expired,
        cancelled: status.stats.cancelled,
        started: status.stats.started,
        completed: status.stats.completed,
        parity_checked: status.stats.parity_checked,
        parity_violations: status.stats.parity_violations,
        parity_sample: status.parity_sample,
        promises_made: status.promises.made,
        promises_kept: status.promises.kept,
        promises_broken: status.promises.broken,
        promises_cancelled: status.promises.cancelled,
        worst_residual_milli: status.promises.worst_residual_milli,
        queue_depth: shared.queue_len.load(Ordering::Relaxed).max(0) as u64,
        uptime_secs: shared.epoch.elapsed().as_secs(),
        live_jobs,
        overloaded: shared.overloaded.load(Ordering::Relaxed),
        journal_events_written: journal.events_written,
        journal_ring_dropped: journal.ring_dropped,
        journal_write_errors: journal.write_errors,
        shards,
        shard_queue,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pqos_core::config::SimConfig;
    use pqos_predict::api::NullPredictor;
    use pqos_telemetry::Telemetry;

    fn engine(nodes: u32, config: EngineConfig) -> (EngineHandle, JoinHandle<()>) {
        let session = NegotiationSession::new(
            SimConfig::paper_defaults().cluster_size_nodes(nodes),
            NullPredictor,
            Telemetry::disabled(),
        )
        .verify_parity(true);
        spawn(
            session,
            config,
            FlightRecorder::disabled(),
            TraceRecorder::disabled(),
        )
    }

    fn ask(handle: &EngineHandle, request: Request) -> Response {
        let (tx, rx) = ReplySender::channel();
        handle
            .submit(request, &tx, None, 0)
            .expect("engine accepts");
        rx.recv_timeout(Duration::from_secs(5)).expect("reply").0
    }

    #[test]
    fn negotiate_accept_status_shutdown() {
        let (handle, join) = engine(16, EngineConfig::default());
        let Response::Quote { id, job, .. } = ask(
            &handle,
            Request::Negotiate {
                id: 1,
                size: 4,
                runtime_secs: 3600,
            },
        ) else {
            panic!("expected a quote");
        };
        assert_eq!(id, 1);
        assert_eq!(
            ask(&handle, Request::Accept { id: 2, job }),
            Response::Ok { id: 2 }
        );
        let Response::Status { body, .. } = ask(&handle, Request::Status { id: 3 }) else {
            panic!("expected status");
        };
        assert_eq!(body.quoted, 1);
        assert_eq!(body.accepted, 1);
        assert_eq!(body.parity_violations, 0);
        assert_eq!(
            ask(&handle, Request::Shutdown { id: 4 }),
            Response::Ok { id: 4 }
        );
        join.join().unwrap();
        // Post-drain submissions are refused, not queued.
        let (tx, _rx) = ReplySender::channel();
        let (refused, _) = handle
            .submit(Request::Status { id: 5 }, &tx, None, 0)
            .unwrap_err();
        assert!(matches!(
            refused,
            Response::Error {
                code: ErrorCode::ShuttingDown,
                ..
            }
        ));
    }

    #[test]
    fn a_full_queue_answers_overloaded_and_counts_it() {
        // Hand-build a handle whose queue nobody drains.
        let (tx, _rx) = std::sync::mpsc::sync_channel(1);
        let handle = EngineHandle {
            tx,
            shared: Arc::new(EngineShared {
                draining: AtomicBool::new(false),
                queue_len: AtomicI64::new(0),
                overloaded: AtomicU64::new(0),
                epoch: Instant::now(),
            }),
        };
        let (reply, _rx) = ReplySender::channel();
        assert!(handle
            .submit(Request::Status { id: 1 }, &reply, None, 0)
            .is_ok());
        assert_eq!(handle.queue_depth(), 1);
        let (refused, _) = handle
            .submit(Request::Status { id: 2 }, &reply, None, 0)
            .unwrap_err();
        assert!(matches!(
            refused,
            Response::Error {
                id: 2,
                code: ErrorCode::Overloaded,
                ..
            }
        ));
        assert_eq!(handle.overloaded_total(), 1);
        assert_eq!(handle.queue_depth(), 1, "refused requests never count");
    }

    #[test]
    fn pipelined_negotiates_coalesce_and_stay_consistent() {
        let (handle, join) = engine(32, EngineConfig::default());
        let (reply, rx) = ReplySender::channel();
        for k in 0..20u64 {
            handle
                .submit(
                    Request::Negotiate {
                        id: k,
                        size: 1 + (k % 4) as u32,
                        runtime_secs: 600,
                    },
                    &reply,
                    None,
                    0,
                )
                .unwrap();
        }
        let mut jobs = Vec::new();
        for _ in 0..20 {
            match rx.recv_timeout(Duration::from_secs(5)).unwrap().0 {
                Response::Quote { job, .. } => jobs.push(job),
                other => panic!("expected quotes, got {other:?}"),
            }
        }
        jobs.sort_unstable();
        jobs.dedup();
        assert_eq!(jobs.len(), 20, "job ids must be unique");
        let Response::Status { body, .. } = ask(&handle, Request::Status { id: 99 }) else {
            panic!();
        };
        assert_eq!(body.quoted, 20);
        assert_eq!(body.parity_violations, 0);
        ask(&handle, Request::Shutdown { id: 100 });
        join.join().unwrap();
    }

    /// Whatever tick boundaries a burst lands on, every request `submit`
    /// took gets exactly one reply — including the ones coalesced into
    /// the shutdown's own tick behind it (`tick::tests` pins that case
    /// exactly).
    #[test]
    fn no_submitted_request_goes_unanswered_across_a_shutdown() {
        let (handle, join) = engine(32, EngineConfig::default());
        let (reply, rx) = ReplySender::channel();
        let mut requests: Vec<Request> = (0..200u64)
            .map(|id| Request::Negotiate {
                id,
                size: 1,
                runtime_secs: 600,
            })
            .collect();
        requests.push(Request::Shutdown { id: 200 });
        requests.push(Request::Status { id: 201 });
        let taken = requests
            .into_iter()
            .filter(|request| handle.submit(*request, &reply, None, 0).is_ok())
            .count();
        let mut answered: Vec<u64> = (0..taken)
            .map(|_| rx.recv_timeout(Duration::from_secs(5)).expect("reply").0)
            .map(|response| response.id())
            .collect();
        answered.sort_unstable();
        assert_eq!(answered, (0..taken as u64).collect::<Vec<_>>());
        join.join().unwrap();
    }

    #[test]
    fn status_reports_engine_observability_fields() {
        let (handle, join) = engine(16, EngineConfig::default());
        let Response::Quote { job, .. } = ask(
            &handle,
            Request::Negotiate {
                id: 1,
                size: 2,
                runtime_secs: 600,
            },
        ) else {
            panic!("expected a quote");
        };
        ask(&handle, Request::Accept { id: 2, job });
        let Response::Status { body, .. } = ask(&handle, Request::Status { id: 3 }) else {
            panic!("expected status");
        };
        // A quoted-and-accepted job is live; the queue drained to answer us.
        assert_eq!(body.live_jobs, 1);
        assert_eq!(body.queue_depth, 0);
        assert_eq!(body.overloaded, 0);
        // Accepting the quote made a promise; it is still pending.
        assert_eq!(body.promises_made, 1);
        assert_eq!(
            body.promises_kept + body.promises_broken + body.promises_cancelled,
            0
        );
        assert_eq!(body.parity_sample, 1, "tests re-check every batch");
        ask(&handle, Request::Shutdown { id: 4 });
        join.join().unwrap();
    }

    /// `engine.live_jobs{shard="k"}` is shard k's own live count: with the
    /// coordinator's added, the shard gauges sum to `engine.live_jobs`
    /// after every transition — a held quote counts, a completed or
    /// cancelled job does not.
    #[test]
    fn per_shard_live_gauges_sum_to_the_live_total() {
        use crate::shard::partition_spans;
        use pqos_core::session::{AdmissionRequest, QuoteDecision};
        use pqos_sim_core::time::{SimDuration, SimTime};
        use pqos_workload::job::JobId;

        let sessions = partition_spans(8, 2)
            .iter()
            .map(|span| {
                NegotiationSession::new(
                    SimConfig::paper_defaults().cluster_size_nodes(span.width),
                    NullPredictor,
                    Telemetry::disabled(),
                )
                .node_base(u64::from(span.base))
            })
            .collect();
        let mut core = ShardedCore::sharded(
            sessions,
            NullPredictor,
            Telemetry::disabled(),
            Telemetry::disabled(),
        );
        let metrics = Telemetry::builder().build();
        let check = |core: &ShardedCore<NullPredictor>, step: &str| {
            set_shard_gauges(&metrics, core);
            let snap = metrics.snapshot().unwrap();
            let shards: i64 = ["0", "1"]
                .iter()
                .map(|k| {
                    let name = pqos_telemetry::labeled("engine.live_jobs", &[("shard", k)]);
                    snap.gauge(&name).expect("published")
                })
                .sum();
            // One held wide quote rides along the whole way.
            let coordinator = 1;
            assert_eq!(shards + coordinator, core.live_jobs() as i64, "{step}");
        };
        let quote = |core: &mut ShardedCore<NullPredictor>, id, size| {
            let request = AdmissionRequest {
                size,
                runtime: SimDuration::from_secs(600),
            };
            let decisions = core.quote_batch(&[(JobId::new(id), request)], 1);
            assert!(matches!(decisions[0], QuoteDecision::Quoted(_)));
        };
        quote(&mut core, 9, 6);
        check(&core, "wide quote held");
        quote(&mut core, 1, 2);
        check(&core, "quoted");
        core.accept(JobId::new(1)).unwrap();
        check(&core, "accepted");
        core.advance_to(SimTime::from_secs(100_000));
        check(&core, "completed");
        quote(&mut core, 2, 2);
        check(&core, "quoted again");
        core.cancel(JobId::new(2)).unwrap();
        check(&core, "cancelled before accept");
    }

    /// The daemon's driver — `offer` at `Line`, `tick` at `Batch` —
    /// honours `request_timeout` from line read to tick: a request read
    /// past its budget answers `timeout` and never reaches the session,
    /// while the rest of its tick is served.
    #[test]
    fn the_daemon_driver_times_out_a_line_read_past_its_budget() {
        let session = NegotiationSession::new(
            SimConfig::paper_defaults().cluster_size_nodes(16),
            NullPredictor,
            Telemetry::disabled(),
        );
        let config = EngineConfig {
            request_timeout: Duration::from_secs(1),
            ..EngineConfig::default()
        };
        let mut engine = Engine::new(
            ShardedCore::single(session),
            config,
            FlightRecorder::disabled(),
            TraceRecorder::disabled(),
        );
        let now = Instant::now();
        let stale = now.checked_sub(Duration::from_secs(2)).expect("clock");
        let negotiate = |id| Request::Negotiate {
            id,
            size: 2,
            runtime_secs: 600,
        };
        let lines = [
            (negotiate(1), stale),
            (negotiate(2), now),
            (Request::Status { id: 3 }, now),
        ];
        let mut queue = Vec::new();
        for (conn, (request, read)) in (1..).zip(lines) {
            let item = EngineRequest {
                request,
                reply: conn,
                enqueued: read,
                trace: None,
                conn,
            };
            assert!(engine.offer(&mut queue, item).is_ok());
        }
        let mut answers = Vec::new();
        let shutdown = engine.tick(&mut queue, &mut |&conn: &Token, response, _| {
            answers.push((conn, response));
        });
        assert!(!shutdown);
        answers.sort_by_key(|(conn, _)| *conn);
        assert!(
            matches!(
                answers[0],
                (
                    1,
                    Response::Error {
                        id: 1,
                        code: ErrorCode::Timeout,
                        ..
                    }
                )
            ),
            "{:?}",
            answers[0]
        );
        assert!(matches!(answers[1], (2, Response::Quote { id: 2, .. })));
        let (3, Response::Status { body, .. }) = &answers[2] else {
            panic!("expected status, got {:?}", answers[2]);
        };
        assert_eq!(body.quoted, 1, "the timed-out negotiate was never quoted");
    }

    #[test]
    fn dump_answers_with_a_chrome_trace_and_the_writer_finishes_traces() {
        let telemetry = Telemetry::builder().ring_buffer(1).build();
        let recorder = FlightRecorder::new(16, telemetry.clone());
        let session = NegotiationSession::new(
            SimConfig::paper_defaults().cluster_size_nodes(16),
            NullPredictor,
            Telemetry::disabled(),
        );
        let (handle, join) = spawn(
            session,
            EngineConfig::default(),
            recorder.clone(),
            TraceRecorder::disabled(),
        );
        let (tx, rx) = ReplySender::channel();

        // A traced negotiate: reader role (begin + parse mark) here,
        // writer role (write mark + finish) after the reply arrives.
        let mut trace = recorder
            .begin("negotiate", 7, Instant::now())
            .expect("recorder is enabled");
        trace.mark(Stage::Parse);
        handle
            .submit(
                Request::Negotiate {
                    id: 1,
                    size: 2,
                    runtime_secs: 600,
                },
                &tx,
                Some(trace),
                0,
            )
            .unwrap();
        let (response, trace) = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert!(matches!(response, Response::Quote { .. }));
        let mut trace = trace.expect("trace rides along with the reply");
        trace.mark(Stage::Write);
        trace.finish();
        assert_eq!(recorder.depth(), (0, 1));

        // The dump verb returns the ring as a Chrome trace document.
        let Response::Dump { trace: doc, .. } = ask(&handle, Request::Dump { id: 2 }) else {
            panic!("expected dump");
        };
        let v = pqos_telemetry::json::Json::parse(doc.trim()).expect("dump is JSON");
        let events = v.get("traceEvents").unwrap().as_arr().unwrap();
        assert!(!events.is_empty());

        // Engine stages landed in the per-verb histograms.
        let snap = telemetry.snapshot().unwrap();
        for stage in ["parse", "queue", "batch", "compute", "write"] {
            let key =
                pqos_telemetry::labeled("rpc.stage_ns", &[("stage", stage), ("verb", "negotiate")]);
            assert_eq!(snap.histogram(&key).unwrap().count, 1, "{key}");
        }
        ask(&handle, Request::Shutdown { id: 3 });
        join.join().unwrap();
    }
}
