//! The single-writer admission engine.
//!
//! One OS thread owns the whole mutable service state — an
//! [`EngineCore`]: the admission sessions with their reservation books,
//! predictors, virtual clock and telemetry journals, plus the SLO
//! evaluator. The net event loop never shares it; it enqueues
//! ([`EngineHandle::submit`]) onto a *bounded* channel and each
//! connection receives replies on its own lane. Backpressure is therefore
//! explicit: a full queue earns the client an `overloaded` response
//! immediately, instead of unbounded buffering or a lock convoy.
//!
//! The engine loop blocks on the queue, then drains everything already
//! waiting into one *tick*:
//!
//! 1. requests that waited past their deadline answer `timeout` and go
//!    no further;
//! 2. the rest run through [`EngineCore::tick`] at the current virtual
//!    time (wall-clock elapsed × `time_scale`) — the same epoch code
//!    replay runs: advance the clock, drain SLO windows, quote every
//!    `negotiate` in one batch against one book snapshot, apply accepts
//!    and cancels in arrival order;
//! 3. each answer is trace-marked, recorded and sent the moment the tick
//!    produces it; `status`/`dump`/`history` come back unanswered and are
//!    filled in here from wall-clock state;
//! 4. on `shutdown`, everything behind it — in the same tick or still in
//!    the queue — answers `shutting_down`, the journal is flushed, and
//!    the thread exits. Requests that race the drain after that are
//!    refused by [`EngineHandle::submit`] itself.
//!
//! There is no fixed tick interval: an idle engine wakes per request, a
//! busy one amortizes whole queue-fulls into one snapshot, which is what
//! keeps quote latency in microseconds at tens of thousands of requests
//! per second.

use crate::flight::{FlightRecorder, TraceCtx};
use crate::protocol::{ErrorCode, Request, Response, StatusBody};
use crate::record::TraceRecorder;
use crate::shard::ShardedCore;
use crate::tick::{shutting_down, EngineCore, TickEvent};
use pqos_core::session::{NegotiationSession, SessionStatus};
use pqos_predict::api::Predictor;
use pqos_telemetry::{SinkHealth, SloEngine, Telemetry, WindowStore};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Where a reply travels once the engine has it: either a plain channel
/// (in-process callers — tests, replay, benches) or the net event
/// loop's completion lane, which tags the reply with its connection
/// token and wakes the loop to relay it onto the socket. Either way the
/// request's trace rides along, to be marked `write` and finished once
/// the bytes hit the wire.
#[derive(Clone)]
pub struct ReplySender {
    lane: ReplyLane,
}

#[derive(Clone)]
enum ReplyLane {
    Channel(Sender<(Response, Option<TraceCtx>)>),
    Net {
        tx: Sender<(pqos_net::Token, Response, Option<TraceCtx>)>,
        token: pqos_net::Token,
        waker: pqos_net::Waker,
    },
}

impl ReplySender {
    /// An in-process reply lane: the receiver sees `(response, trace)`
    /// pairs in engine order.
    pub fn channel() -> (ReplySender, Receiver<(Response, Option<TraceCtx>)>) {
        let (tx, rx) = std::sync::mpsc::channel();
        (
            ReplySender {
                lane: ReplyLane::Channel(tx),
            },
            rx,
        )
    }

    /// The net server's lane: replies land on the shared completions
    /// queue tagged with `token`, and `waker` interrupts the event
    /// loop's sleep so it relays them promptly — the first reply of a
    /// tick pays for the wake, the rest find it pending.
    pub(crate) fn net(
        tx: Sender<(pqos_net::Token, Response, Option<TraceCtx>)>,
        token: pqos_net::Token,
        waker: pqos_net::Waker,
    ) -> ReplySender {
        ReplySender {
            lane: ReplyLane::Net { tx, token, waker },
        }
    }

    /// Sends the reply. A gone receiver hands the payload back so the
    /// caller can abandon the trace instead of leaking it.
    #[allow(clippy::result_large_err)] // consumed immediately by the caller
    pub fn send(
        &self,
        response: Response,
        trace: Option<TraceCtx>,
    ) -> Result<(), (Response, Option<TraceCtx>)> {
        match &self.lane {
            ReplyLane::Channel(tx) => tx.send((response, trace)).map_err(|e| e.0),
            ReplyLane::Net { tx, token, waker } => {
                let sent = tx.send((*token, response, trace)).map_err(|e| {
                    let (_, response, trace) = e.0;
                    (response, trace)
                });
                waker.wake();
                sent
            }
        }
    }
}

/// Tuning for the engine thread.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Bounded request-queue capacity; a full queue answers `overloaded`.
    pub queue_depth: usize,
    /// The most workers one batch of quotes may fan out over. A batch is
    /// quoted inline on the engine thread unless every worker would get
    /// at least 16 requests (`pqos_core::negotiate::negotiate_batch`).
    pub batch_threads: usize,
    /// Virtual seconds that elapse per wall-clock second.
    pub time_scale: f64,
    /// Queue-wait budget per request; exceeded requests answer `timeout`.
    pub request_timeout: Duration,
    /// Most requests coalesced into one tick.
    pub max_batch: usize,
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
            max_batch: 256,
            parity_sample: 1,
            history: None,
        }
    }
}

/// One queued unit of work: the request plus the connection's reply lane
/// and its trace (if the flight recorder is on).
struct EngineRequest {
    request: Request,
    reply: ReplySender,
    enqueued: Instant,
    trace: Option<TraceCtx>,
    /// Connection id the request arrived on (0 for in-process callers);
    /// recorded in the request trace.
    conn: u64,
}

/// State shared between every handle, the engine thread, and the metrics
/// endpoint: cheap atomics that are meaningful even while the engine is
/// busy inside a tick.
struct EngineShared {
    draining: AtomicBool,
    /// Requests sitting in the bounded queue right now.
    queue_len: AtomicI64,
    /// Requests refused with `overloaded` since startup.
    overloaded: AtomicU64,
    /// When the engine started (uptime basis).
    epoch: Instant,
}

/// Cheap clonable front door to the engine thread. Dropping every handle
/// (and the queue emptying) stops the engine.
#[derive(Clone)]
pub struct EngineHandle {
    tx: SyncSender<EngineRequest>,
    shared: Arc<EngineShared>,
    telemetry: Telemetry,
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
        let id = request.id();
        if self.shared.draining.load(Ordering::Acquire) {
            return Err((shutting_down(id), trace));
        }
        let item = EngineRequest {
            request,
            reply: reply.clone(),
            enqueued: Instant::now(),
            trace,
            conn,
        };
        match self.tx.try_send(item) {
            Ok(()) => {
                self.shared.queue_len.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
            Err(TrySendError::Full(item)) => {
                self.shared.overloaded.fetch_add(1, Ordering::Relaxed);
                let overloaded = Response::Error {
                    id,
                    code: ErrorCode::Overloaded,
                    detail: "engine queue full; retry".into(),
                };
                Err((overloaded, item.trace))
            }
            Err(TrySendError::Disconnected(item)) => Err((shutting_down(id), item.trace)),
        }
    }

    /// Whether a shutdown verb has been observed.
    pub fn is_draining(&self) -> bool {
        self.shared.draining.load(Ordering::Acquire)
    }

    /// Requests waiting in the engine queue right now.
    pub fn queue_depth(&self) -> usize {
        self.shared.queue_len.load(Ordering::Relaxed).max(0) as usize
    }

    /// Requests refused with `overloaded` since startup.
    pub fn overloaded_total(&self) -> u64 {
        self.shared.overloaded.load(Ordering::Relaxed)
    }

    /// Wall-clock time since the engine started.
    pub fn uptime(&self) -> Duration {
        self.shared.epoch.elapsed()
    }

    /// Pushes the live engine state into gauges, so a `/metrics` scrape
    /// of an idle daemon (no tick running) still reports fresh values.
    pub fn refresh_gauges(&self) {
        self.telemetry
            .gauge("engine.queue_depth")
            .set(self.queue_depth() as i64);
        self.telemetry
            .gauge("engine.overloaded_total")
            .set(self.overloaded_total() as i64);
        self.telemetry
            .gauge("process.uptime_seconds")
            .set(self.uptime().as_secs() as i64);
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
/// attached. The classic [`spawn`] is this with a single-plane core. The
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
    // Sampling cadence and fan-out are engine policy, not core
    // construction: apply them here so every spawn path (daemon, tests,
    // benches) gets exactly what its EngineConfig says.
    let core = core
        .into()
        .parity_sample(config.parity_sample)
        .batch_threads(config.batch_threads);
    let (tx, rx) = std::sync::mpsc::sync_channel(config.queue_depth.max(1));
    let shared = Arc::new(EngineShared {
        draining: AtomicBool::new(false),
        queue_len: AtomicI64::new(0),
        overloaded: AtomicU64::new(0),
        epoch: Instant::now(),
    });
    let handle = EngineHandle {
        tx,
        shared: Arc::clone(&shared),
        telemetry: core.core().telemetry().clone(),
    };
    let join = std::thread::Builder::new()
        .name("pqos-engine".into())
        .spawn(move || run(core, config, rx, shared, recorder, trace))
        .expect("spawn engine thread");
    (handle, join)
}

fn run<P: Predictor + Sync>(
    mut core: EngineCore<P>,
    config: EngineConfig,
    rx: Receiver<EngineRequest>,
    shared: Arc<EngineShared>,
    recorder: FlightRecorder,
    trace_rec: TraceRecorder,
) {
    let telemetry = core.core().telemetry().clone();
    let tick_ns = telemetry.histogram("engine.tick_ns");
    let batch_size = telemetry.histogram("engine.batch_size");
    let ticks = telemetry.counter("engine.ticks");
    let timeouts = telemetry.counter("engine.timeouts");
    let queue_gauge = telemetry.gauge("engine.queue_depth");
    let live_jobs_gauge = telemetry.gauge("engine.live_jobs");
    let overloaded_gauge = telemetry.gauge("engine.overloaded_total");
    let uptime_gauge = telemetry.gauge("process.uptime_seconds");
    // Quote-cache counters are cumulative session-side; published as
    // gauges so a /metrics scrape reads the latest totals
    // (pqos_quote_cache_*). `profile_rebuilds` reads 0 for good — the
    // cache walks the book's own timeline — and stays exported so
    // dashboards and the perf ledger keep their series.
    let cache_hits_gauge = telemetry.gauge("quote_cache.hits");
    let cache_misses_gauge = telemetry.gauge("quote_cache.misses");
    let cache_rebuilds_gauge = telemetry.gauge("quote_cache.profile_rebuilds");
    let cache_invalidated_gauge = telemetry.gauge("quote_cache.entries_invalidated");
    // Promise-ledger gauges (pqos_promise_*): cumulative accepted-quote
    // and resolution-verdict counts plus the worst per-bucket calibration
    // residual, in milli-units (observed − quoted, ×1000; negative =
    // overconfident).
    let promise_made_gauge = telemetry.gauge("promise.made");
    let promise_kept_gauge = telemetry.gauge("promise.kept");
    let promise_broken_gauge = telemetry.gauge("promise.broken");
    let promise_cancelled_gauge = telemetry.gauge("promise.cancelled");
    let promise_residual_gauge = telemetry.gauge("promise.worst_residual_milli");
    let slo_rules_gauge = telemetry.gauge("slo.rules");
    let slo_active_gauge = telemetry.gauge("slo.active_alerts");
    let slo_fired_gauge = telemetry.gauge("slo.alerts_fired_total");
    let slo_resolved_gauge = telemetry.gauge("slo.alerts_resolved_total");
    let slo_windows_gauge = telemetry.gauge("slo.windows_closed_total");
    // Everything a scrape reads off the deterministic core. Published at
    // every tick end and once more on drain, so the final scrape agrees
    // with the flushed journal (`pqos-doctor crosscheck` holds us to
    // that). Publishing never drains SLO windows: those close only inside
    // a tick, so replay closes exactly the same set.
    let publish_core = |core: &EngineCore<P>| {
        let promises = core.core().promise_stats();
        promise_made_gauge.set(promises.made as i64);
        promise_kept_gauge.set(promises.kept as i64);
        promise_broken_gauge.set(promises.broken as i64);
        promise_cancelled_gauge.set(promises.cancelled as i64);
        promise_residual_gauge.set(promises.worst_residual_milli);
        if let Some(slo) = core.slo() {
            slo_rules_gauge.set(slo.rules().len() as i64);
            slo_active_gauge.set(slo.active_alerts() as i64);
            slo_fired_gauge.set(slo.fired_total as i64);
            slo_resolved_gauge.set(slo.resolved_total as i64);
            slo_windows_gauge.set(slo.windows_closed as i64);
            set_slo_rule_gauges(&telemetry, slo);
        }
        set_shard_gauges(&telemetry, core.core());
    };
    publish_core(&core);
    let epoch = shared.epoch;
    // Batch-epoch counter for the request trace: one per tick, starting
    // at 1, so replay can reconstruct exactly which requests shared a
    // book snapshot.
    let mut epoch_no: u64 = 0;
    // Journal-derived gauges (journal.*) are published on flush; flush at
    // most once a second so a mid-run /metrics scrape sees fresh session
    // counts without a sink flush on every tick.
    let mut last_flush = Instant::now();
    const FLUSH_EVERY: Duration = Duration::from_secs(1);
    let pop = |item: &mut EngineRequest| {
        shared.queue_len.fetch_sub(1, Ordering::Relaxed);
        if let Some(t) = item.trace.as_mut() {
            t.mark("queue");
        }
    };
    loop {
        let Ok(mut first) = rx.recv() else {
            break; // every handle dropped; nothing more can arrive
        };
        pop(&mut first);
        let tick_timer = tick_ns.start_timer();
        let mut queued = vec![first];
        while queued.len() < config.max_batch.max(1) {
            match rx.try_recv() {
                Ok(mut item) => {
                    pop(&mut item);
                    queued.push(item);
                }
                Err(_) => break,
            }
        }
        let virtual_now = (epoch.elapsed().as_secs_f64() * config.time_scale) as u64;
        epoch_no += 1;

        // Queue timeouts are a wall-clock fact, so they are settled here
        // and never enter the tick.
        let mut live = Vec::with_capacity(queued.len());
        for mut item in queued {
            if item.enqueued.elapsed() > config.request_timeout {
                timeouts.inc();
                let response = Response::Error {
                    id: item.request.id(),
                    code: ErrorCode::Timeout,
                    detail: "request waited past its deadline; retry".into(),
                };
                // Recorded with job:null — the request never reached the
                // session, and replay must skip it the same way.
                trace_rec.record(
                    epoch_no,
                    virtual_now,
                    item.conn,
                    &item.request,
                    &response,
                    None,
                );
                respond(&item.reply, response, item.trace.take());
            } else {
                live.push(item);
            }
        }

        let items: Vec<_> = live.iter().map(|item| (item.request, None)).collect();
        let mut batched = 0u32;
        let shutdown = core.tick(virtual_now, &items, |k, event| {
            let item = &mut live[k];
            let (response, job) = match event {
                TickEvent::Batched => {
                    batched += 1;
                    if let Some(t) = item.trace.as_mut() {
                        t.mark("batch");
                    }
                    return;
                }
                TickEvent::Refused(refusal) => {
                    respond(&item.reply, refusal, item.trace.take());
                    return;
                }
                TickEvent::Reply { response, job } => (response, job),
                TickEvent::WallClock(admission) => {
                    let answer = wall_clock_response(
                        item.request,
                        admission,
                        &shared,
                        &recorder,
                        config.history.as_deref(),
                    );
                    (answer, None)
                }
            };
            if matches!(item.request, Request::Shutdown { .. }) {
                shared.draining.store(true, Ordering::Release);
            }
            if let Some(t) = item.trace.as_mut() {
                t.mark("compute");
            }
            trace_rec.record(
                epoch_no,
                virtual_now,
                item.conn,
                &item.request,
                &response,
                job,
            );
            respond(&item.reply, response, item.trace.take());
        });
        if batched > 0 {
            batch_size.observe(f64::from(batched));
        }
        if shutdown.is_some() {
            while let Ok(mut stale) = rx.try_recv() {
                pop(&mut stale);
                let refusal = shutting_down(stale.request.id());
                respond(&stale.reply, refusal, stale.trace.take());
            }
            break;
        }
        ticks.inc();
        tick_timer.stop();
        queue_gauge.set(shared.queue_len.load(Ordering::Relaxed).max(0));
        live_jobs_gauge.set(core.core().live_jobs() as i64);
        overloaded_gauge.set(shared.overloaded.load(Ordering::Relaxed) as i64);
        uptime_gauge.set(epoch.elapsed().as_secs() as i64);
        let cache = core.core().quote_cache_stats();
        cache_hits_gauge.set(cache.hits as i64);
        cache_misses_gauge.set(cache.misses as i64);
        cache_rebuilds_gauge.set(cache.profile_rebuilds as i64);
        cache_invalidated_gauge.set(cache.entries_invalidated as i64);
        publish_core(&core);
        if last_flush.elapsed() >= FLUSH_EVERY {
            core.core().flush();
            last_flush = Instant::now();
        }
    }
    uptime_gauge.set(epoch.elapsed().as_secs() as i64);
    // Shutdown breaks out before the tick-end gauge block.
    publish_core(&core);
    core.core().flush();
    trace_rec.flush();
}

/// Replies are best-effort: a gone client (dropped receiver) is a clean
/// disconnect, not an engine error. The trace travels with the response
/// so the writer can mark the `write` stage and finish it.
fn respond(reply: &ReplySender, response: Response, trace: Option<TraceCtx>) {
    if let Err((_, Some(t))) = reply.send(response, trace) {
        // Receiver gone: nobody will write the reply or finish the trace,
        // so drop it from the in-flight table instead of leaking it.
        t.abandon();
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
            history: match history {
                Some(store) => store.to_json(),
                None => concat!(
                    r#"{"history":true,"window_ms":0,"#,
                    r#""windows":0,"families":[]}"#
                )
                .to_string(),
            },
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
/// and quote-cache families) on multi-shard cores. The final label lane
/// in `engine.shard_routed_total` is the cross-shard coordinator. A
/// single-plane core publishes nothing — the unlabeled gauges already
/// tell the whole story.
fn set_shard_gauges<P: Predictor + Sync>(telemetry: &Telemetry, core: &ShardedCore<P>) {
    if core.shard_count() <= 1 {
        return;
    }
    let statuses = core.shard_statuses();
    let caches = core.shard_cache_stats();
    let routed = core.routed_total();
    for (k, status) in statuses.iter().enumerate() {
        let shard = k.to_string();
        let labels = [("shard", shard.as_str())];
        let set = |name: &str, v: i64| {
            telemetry
                .gauge(&pqos_telemetry::labeled(name, &labels))
                .set(v);
        };
        set(
            "engine.live_jobs",
            status.stats.accepted as i64 + status.stats.started as i64
                - status.stats.completed as i64
                - status.stats.cancelled as i64,
        );
        set("engine.shard_quoted", status.stats.quoted as i64);
        set(
            "engine.shard_occupied_nodes",
            i64::from(status.occupied_nodes),
        );
        set("engine.shard_reservations", status.reservations as i64);
        if let Some(cache) = caches.get(k) {
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
    }
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
            telemetry: Telemetry::disabled(),
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
        trace.mark("parse");
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
        trace.mark("write");
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
