//! One tick, one builder: the epoch code the live engine and replay both
//! run, on a core both get from the same constructor.
//!
//! An [`EngineCore`] is everything deterministic about the engine — the
//! (possibly sharded) admission core, the SLO accumulator and evaluator,
//! the quote fan-out width and the job-id counter — with no socket and no
//! clock. `EngineCore::tick` executes one batch epoch at a virtual time
//! the caller names; [`build_core`] maps a [`TraceMeta`] header to the
//! core it describes. `pqos-qosd` builds the header from its flags and
//! the core from the header, replay reads the header back from the trace,
//! so a recording and its replay cannot be constructed differently.
//!
//! Three things stay with the caller because they differ between a live
//! run and a replay: where job ids come from (the core's counter live,
//! the recorded assignment in replay — bisected traces have gaps), queue
//! timeouts (wall clock live, recorded `timeout` responses in replay;
//! either way the request never enters the tick), and the wall-clock
//! verbs `status`/`dump`/`history` (handed back unanswered: the engine
//! thread fills them in, replay skips them).

use crate::protocol::{ErrorCode, Request, Response};
use crate::replay::ReplayError;
use crate::shard::{partition_spans, ShardedCore};
use pqos_core::config::SimConfig;
use pqos_core::session::{
    AcceptError, AdmissionRequest, CancelError, HeldQuote, NegotiationSession, QuoteDecision,
};
use pqos_failures::synthetic::AixLikeTrace;
use pqos_predict::api::{NullPredictor, Predictor};
use pqos_predict::oracle::TraceOracle;
use pqos_sim_core::time::{SimDuration, SimTime};
use pqos_telemetry::reqtrace::TraceMeta;
use pqos_telemetry::{SloAccum, SloEngine, SloSink, Telemetry, TelemetryBuilder};
use pqos_workload::job::JobId;
use std::sync::Arc;

/// The predictor type [`build_core`] erases to: which one a daemon runs
/// is a header field, not a type parameter.
pub(crate) type BoxedPredictor = Box<dyn Predictor + Send + Sync>;

/// Seed of every synthetic failure trace a built core predicts from:
/// shard `k` draws from `PREDICTOR_SEED ^ k` over its own span, the
/// one-shard core and the wide-job coordinator from the seed itself over
/// the full cluster.
const PREDICTOR_SEED: u64 = 0xD5_2005;

/// What a tick tells its caller about one item, at the moment it happens.
pub(crate) enum TickEvent<'a, P> {
    /// The item is a `negotiate` and has joined the tick's quote batch;
    /// quoting has not run yet.
    Batched,
    /// The item was executed. `job` is the id a `negotiate` consumed
    /// (rejected ones consume one too); `None` for every other verb.
    Reply {
        /// The answer, rendered exactly as it crosses the wire.
        response: Response,
        /// Job id the negotiate was quoted under.
        job: Option<u64>,
    },
    /// The item is a wall-clock verb (`status`, `dump`, `history`), handed
    /// back unanswered with the core as it stands at this point of the
    /// arrival order.
    WallClock(&'a ShardedCore<P>),
    /// The item sat behind a `shutdown` in the same tick: refused with
    /// `shutting_down`, never executed, and — like every refusal — not
    /// part of the recorded trace.
    Refused(Response),
}

/// The deterministic half of the engine; see the [module docs](self).
pub struct EngineCore<P> {
    core: ShardedCore<P>,
    /// Window counts fill through [`SloSink`]s on the journal planes; the
    /// evaluator drains closed windows once per tick.
    slo: Option<(Arc<SloAccum>, SloEngine)>,
    batch_threads: usize,
    next_job: u64,
}

/// A bare admission core: no SLO plane, serial quoting, job ids from 1.
impl<P: Predictor + Sync> From<ShardedCore<P>> for EngineCore<P> {
    fn from(core: ShardedCore<P>) -> Self {
        EngineCore {
            core,
            slo: None,
            batch_threads: 1,
            next_job: 1,
        }
    }
}

impl<P: Predictor + Sync> EngineCore<P> {
    /// Sets the fan-out width for batched quoting (quotes do not depend
    /// on it, only speed does).
    pub(crate) fn batch_threads(mut self, threads: usize) -> Self {
        self.batch_threads = threads.max(1);
        self
    }

    /// Applies the parity re-check cadence to every shard.
    pub(crate) fn parity_sample(mut self, every: u64) -> Self {
        self.core = self.core.parity_sample(every);
        self
    }

    /// The admission core, for status, gauges and flushing.
    pub(crate) fn core(&self) -> &ShardedCore<P> {
        &self.core
    }

    /// The SLO evaluator, when the core was built with rules.
    pub(crate) fn slo(&self) -> Option<&SloEngine> {
        self.slo.as_ref().map(|(_, engine)| engine)
    }

    /// Runs one batch epoch at virtual time `now_secs`:
    ///
    /// 1. advance the clock, firing due starts and completions;
    /// 2. drain closed SLO windows into
    ///    `ShardedCore::alert_telemetry` — the only
    ///    point alerts are ever journaled, so replay closes the same set;
    /// 3. quote every `negotiate` in one batch against this snapshot;
    /// 4. apply accepts and cancels in arrival order, handing wall-clock
    ///    verbs back;
    /// 5. stop at `shutdown`: it is acknowledged, everything behind it is
    ///    refused.
    ///
    /// Each item is a request plus the job id a recording assigned it;
    /// `None` draws from the core's counter, which always stays above
    /// every id it has seen. `on_event(k, ..)` fires for `items[k]` as
    /// each answer is produced, so pass-1 quotes reach their clients
    /// before pass-2 work runs. Returns the index of the served
    /// `shutdown`, if any.
    pub(crate) fn tick(
        &mut self,
        now_secs: u64,
        items: &[(Request, Option<u64>)],
        mut on_event: impl FnMut(usize, TickEvent<'_, P>),
    ) -> Option<usize> {
        self.core.advance_to(SimTime::from_secs(now_secs));
        if let Some((accum, engine)) = self.slo.as_mut() {
            for alert in engine.drain(accum, now_secs) {
                self.core.alert_telemetry().emit(|| alert.clone());
            }
        }
        let shutdown = items
            .iter()
            .position(|(request, _)| matches!(request, Request::Shutdown { .. }));
        let (served, refused) = items.split_at(shutdown.map_or(items.len(), |at| at + 1));

        let mut batch = Vec::new();
        let mut batched = Vec::new();
        for (k, (request, recorded)) in served.iter().enumerate() {
            if let Request::Negotiate {
                size, runtime_secs, ..
            } = *request
            {
                let job = recorded.unwrap_or(self.next_job);
                self.next_job = self.next_job.max(job.saturating_add(1));
                let runtime = SimDuration::from_secs(runtime_secs);
                batch.push((JobId::new(job), AdmissionRequest { size, runtime }));
                batched.push(k);
                on_event(k, TickEvent::Batched);
            }
        }
        if !batch.is_empty() {
            let decisions = self.core.quote_batch(&batch, self.batch_threads);
            for ((&k, (job, _)), decision) in batched.iter().zip(&batch).zip(decisions) {
                let job = job.as_u64();
                let response = quote_response(served[k].0.id(), job, decision);
                on_event(
                    k,
                    TickEvent::Reply {
                        response,
                        job: Some(job),
                    },
                );
            }
        }

        for (k, (request, _)) in served.iter().enumerate() {
            let response = match *request {
                Request::Negotiate { .. } => continue, // answered above
                Request::Accept { id, job } => {
                    accept_response(id, self.core.accept(JobId::new(job)))
                }
                Request::Cancel { id, job } => {
                    cancel_response(id, self.core.cancel(JobId::new(job)))
                }
                Request::Status { .. } | Request::Dump { .. } | Request::History { .. } => {
                    on_event(k, TickEvent::WallClock(&self.core));
                    continue;
                }
                Request::Shutdown { id } => Response::Ok { id },
            };
            on_event(
                k,
                TickEvent::Reply {
                    response,
                    job: None,
                },
            );
        }
        for (k, (request, _)) in refused.iter().enumerate() {
            on_event(
                served.len() + k,
                TickEvent::Refused(shutting_down(request.id())),
            );
        }
        shutdown
    }
}

/// The refusal every request gets once a `shutdown` has been served,
/// whether it sat behind it in the tick or was still in the queue.
pub(crate) fn shutting_down(id: u64) -> Response {
    Response::Error {
        id,
        code: ErrorCode::ShuttingDown,
        detail: "daemon is draining".into(),
    }
}

fn quote_response(id: u64, job: u64, decision: QuoteDecision) -> Response {
    match decision {
        QuoteDecision::Quoted(held) => Response::Quote {
            id,
            job,
            start_secs: held.quote.start.as_secs(),
            promised_secs: held.quote.deadline.as_secs(),
            deadline_secs: held.deadline.as_secs(),
            success_probability: held.quote.promised_success(),
            satisfied_threshold: held.satisfied_threshold,
        },
        QuoteDecision::Rejected => Response::Error {
            id,
            code: ErrorCode::Rejected,
            detail: "job cannot fit the cluster".into(),
        },
    }
}

fn accept_response(id: u64, outcome: Result<HeldQuote, AcceptError>) -> Response {
    match outcome {
        Ok(_) => Response::Ok { id },
        Err(e) => Response::Error {
            id,
            code: match e {
                AcceptError::UnknownQuote => ErrorCode::UnknownQuote,
                AcceptError::QuoteExpired => ErrorCode::QuoteExpired,
            },
            detail: e.to_string(),
        },
    }
}

fn cancel_response(id: u64, outcome: Result<(), CancelError>) -> Response {
    match outcome {
        Ok(()) => Response::Ok { id },
        Err(e) => Response::Error {
            id,
            code: match e {
                CancelError::UnknownJob => ErrorCode::UnknownJob,
                CancelError::AlreadyStarted => ErrorCode::AlreadyStarted,
            },
            detail: e.to_string(),
        },
    }
}

/// Builds the core a trace header describes: one session per
/// [`partition_spans`] span (predictor by name, per-shard seed and
/// `node_base`), the wide-job coordinator when sharded, the quote horizon
/// on every lane, and the SLO evaluator with a [`SloSink`] on every
/// journal plane.
///
/// The caller supplies only what differs between a daemon, a replay and
/// a benchmark: whether sessions re-check batched quotes
/// (`verify_parity`), the metrics `registry` a sharded core publishes
/// into (a one-shard core publishes into its own journal handle), and
/// `journal`, which finishes each plane's telemetry. `journal` is called
/// once per plane in merge order — `""` for one shard, else
/// `".shard0"`..`".shardN-1"` then `".wide"` — with a builder that
/// already carries the SLO sink.
///
/// # Errors
///
/// [`ReplayError::Unsupported`] when the header names more shards than
/// nodes, an unknown predictor or an unparseable SLO rule, or when
/// `journal` fails.
pub fn build_core(
    meta: &TraceMeta,
    verify_parity: bool,
    registry: Telemetry,
    mut journal: impl FnMut(&str, TelemetryBuilder) -> Result<Telemetry, String>,
) -> Result<EngineCore<BoxedPredictor>, ReplayError> {
    let shards = u32::try_from(meta.shards.max(1)).unwrap_or(u32::MAX);
    if shards > meta.cluster_size {
        return Err(ReplayError::Unsupported(format!(
            "{shards} shards over {} nodes — a shard must own at least one node",
            meta.cluster_size
        )));
    }
    let predictor = |seed: u64, nodes: u32| -> Result<BoxedPredictor, ReplayError> {
        match meta.predictor.as_str() {
            "null" => Ok(Box::new(NullPredictor)),
            "synthetic-aix" => {
                let failures = AixLikeTrace::new()
                    .days(365.0)
                    .seed(seed)
                    .nodes(nodes)
                    .build();
                let oracle = TraceOracle::new(Arc::new(failures), 0.9);
                Ok(Box::new(oracle.expect("accuracy in range")))
            }
            other => Err(ReplayError::Unsupported(format!(
                "unknown predictor {other:?} (this build knows \"null\" and \"synthetic-aix\")"
            ))),
        }
    };
    let rules = meta
        .slo
        .iter()
        .map(|spec| pqos_telemetry::slo::parse_rule(spec).map_err(ReplayError::Unsupported))
        .collect::<Result<Vec<_>, _>>()?;
    let slo = (!rules.is_empty()).then(|| {
        let accum = Arc::new(SloAccum::new(meta.slo_window_secs));
        (accum, SloEngine::new(rules))
    });
    let mut plane = |suffix: &str| {
        let mut builder = Telemetry::builder();
        if let Some((accum, _)) = &slo {
            builder = builder.sink(Box::new(SloSink(Arc::clone(accum))));
        }
        journal(suffix, builder).map_err(ReplayError::Unsupported)
    };
    let mut sessions = Vec::with_capacity(shards as usize);
    for (k, span) in partition_spans(meta.cluster_size, shards)
        .iter()
        .enumerate()
    {
        let suffix = if shards == 1 {
            String::new()
        } else {
            format!(".shard{k}")
        };
        let session = NegotiationSession::new(
            SimConfig::paper_defaults().cluster_size_nodes(span.width),
            predictor(PREDICTOR_SEED ^ k as u64, span.width)?,
            plane(&suffix)?,
        );
        sessions.push(
            session
                .verify_parity(verify_parity)
                .node_base(u64::from(span.base)),
        );
    }
    let mut core = if shards == 1 {
        ShardedCore::single(sessions.remove(0))
    } else {
        let wide = predictor(PREDICTOR_SEED, meta.cluster_size)?;
        ShardedCore::sharded(sessions, wide, plane(".wide")?, registry)
    };
    // On the core, not per session: the wide-job coordinator must refuse
    // past-horizon starts exactly like every shard does.
    if let Some(secs) = meta.quote_horizon_secs {
        core = core.quote_horizon(SimDuration::from_secs(secs));
    }
    let batch_threads = usize::try_from(meta.batch_threads).unwrap_or(usize::MAX);
    Ok(EngineCore {
        slo,
        ..EngineCore::from(core).batch_threads(batch_threads)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::SharedBuf;

    /// Builds the core `meta` describes with every journal plane in a
    /// buffer; returns the suffixes `journal` was called with alongside.
    fn build(meta: &TraceMeta) -> (EngineCore<BoxedPredictor>, Vec<(String, SharedBuf)>) {
        let mut planes = Vec::new();
        let core = build_core(meta, true, Telemetry::disabled(), |suffix, builder| {
            let buf = SharedBuf::new();
            planes.push((suffix.to_string(), buf.clone()));
            Ok(builder.flush_every(0).jsonl_writer(buf).build())
        })
        .expect("buildable");
        (core, planes)
    }

    /// Runs one tick and renders what each item saw, in event order.
    fn tick(
        core: &mut EngineCore<BoxedPredictor>,
        now_secs: u64,
        items: &[(Request, Option<u64>)],
    ) -> (Vec<(usize, String)>, Option<usize>) {
        let mut seen = Vec::new();
        let shutdown = core.tick(now_secs, items, |k, event| match event {
            TickEvent::Batched => {}
            TickEvent::Reply { response, .. } | TickEvent::Refused(response) => {
                seen.push((k, response.encode()));
            }
            TickEvent::WallClock(_) => seen.push((k, "wall-clock".into())),
        });
        (seen, shutdown)
    }

    fn negotiate(id: u64, size: u32, runtime_secs: u64) -> (Request, Option<u64>) {
        let request = Request::Negotiate {
            id,
            size,
            runtime_secs,
        };
        (request, None)
    }

    fn quote(line: &str) -> (u64, u64) {
        match Response::parse(line) {
            Some(Response::Quote {
                job, start_secs, ..
            }) => (job, start_secs),
            other => panic!("expected a quote, got {other:?}"),
        }
    }

    #[test]
    fn requests_behind_a_shutdown_are_refused_not_dropped() {
        let (mut core, _) = build(&TraceMeta::qosd(8));
        let (seen, _) = tick(&mut core, 0, &[negotiate(1, 2, 600)]);
        let (job, _) = quote(&seen[0].1);
        let items = [
            (Request::Accept { id: 2, job }, None),
            (Request::Shutdown { id: 3 }, None),
            (Request::Status { id: 4 }, None),
            negotiate(5, 2, 600),
        ];
        let mut events = Vec::new();
        let shutdown = core.tick(1, &items, |k, event| {
            events.push(match event {
                TickEvent::Reply { response, job } => {
                    assert_eq!(job, None);
                    (k, "reply", response)
                }
                TickEvent::Refused(response) => (k, "refused", response),
                TickEvent::Batched | TickEvent::WallClock(_) => {
                    panic!("nothing behind the shutdown may execute")
                }
            });
        });
        assert_eq!(shutdown, Some(1));
        assert_eq!(
            events,
            [
                (0, "reply", Response::Ok { id: 2 }),
                (1, "reply", Response::Ok { id: 3 }),
                (2, "refused", shutting_down(4)),
                (3, "refused", shutting_down(5)),
            ]
        );
        assert_eq!(core.core().status().stats.quoted, 1, "item 3 never quoted");
    }

    /// A cancel and a re-negotiate of the same capacity in one tick: the
    /// quote is computed in pass 1 against the pre-cancel book, so it
    /// queues behind the reservation the same tick then removes — and is
    /// still honorable afterwards.
    #[test]
    fn a_requote_sharing_a_tick_with_a_cancel_sees_the_pre_cancel_book() {
        let (mut core, _) = build(&TraceMeta::qosd(4));
        let accept = |core: &mut EngineCore<BoxedPredictor>, id, job| {
            let (seen, _) = tick(core, 0, &[(Request::Accept { id, job }, None)]);
            assert_eq!(seen[0].1, Response::Ok { id }.encode());
        };
        // A pin runs on the whole cluster from t=0, so everything below
        // is a future reservation and stays cancellable.
        let (seen, _) = tick(&mut core, 0, &[negotiate(1, 4, 100_000)]);
        let (pin, _) = quote(&seen[0].1);
        accept(&mut core, 2, pin);
        let (seen, _) = tick(&mut core, 0, &[negotiate(3, 4, 3600)]);
        let (a, behind_pin) = quote(&seen[0].1);
        accept(&mut core, 4, a);
        // Cancel A, then ask for the same shape again, in one tick.
        let items = [
            (Request::Cancel { id: 5, job: a }, None),
            negotiate(6, 4, 3600),
        ];
        let (seen, _) = tick(&mut core, 0, &items);
        assert_eq!(
            seen[0].0, 1,
            "the quote leaves in pass 1, before the cancel"
        );
        let (b, start) = quote(&seen[0].1);
        assert!(
            start >= behind_pin + 3600,
            "quoted behind the still-booked A"
        );
        assert_eq!(seen[1], (0, Response::Ok { id: 5 }.encode()));
        accept(&mut core, 7, b);
        // Split across two ticks, the re-quote sees the hole instead.
        tick(&mut core, 0, &[(Request::Cancel { id: 8, job: b }, None)]);
        let (seen, _) = tick(&mut core, 0, &[negotiate(9, 4, 3600)]);
        assert_eq!(quote(&seen[0].1).1, behind_pin);
    }

    #[test]
    fn recorded_job_ids_are_honoured_and_the_counter_stays_clear_of_them() {
        let (mut core, _) = build(&TraceMeta::qosd(8));
        let recorded = |id, job| (negotiate(id, 1, 60).0, Some(job));
        // A bisected trace: ids 3, 9, 10 survive, with an oversized
        // (rejected) negotiate among them — it consumed its id too.
        let mut jobs = Vec::new();
        let oversized = (negotiate(2, 64, 60).0, Some(9));
        let items = [recorded(1, 3), oversized, recorded(3, 10)];
        core.tick(0, &items, |_, event| {
            if let TickEvent::Reply { job, .. } = event {
                jobs.push(job);
            }
        });
        assert_eq!(jobs, [Some(3), Some(9), Some(10)]);
        let (seen, _) = tick(&mut core, 0, &[negotiate(4, 1, 60), negotiate(5, 1, 60)]);
        assert_eq!(quote(&seen[0].1).0, 11);
        assert_eq!(quote(&seen[1].1).0, 12);
    }

    /// The alert fires on the tick whose `advance_to` closes the window,
    /// and lands on the plane `alert_telemetry()` names: the only journal
    /// of one shard, the coordinator's (merged last) when sharded.
    #[test]
    fn an_slo_rule_fires_on_the_tick_that_closes_its_window() {
        for shards in [1, 4] {
            let (mut core, planes) = build(&TraceMeta {
                shards,
                slo: vec!["tight:rejects<=0@1".into()],
                slo_window_secs: 60,
                ..TraceMeta::qosd(16)
            });
            // Alerts journaled per plane since the last call (a take
            // empties the buffer).
            let alerts = |core: &EngineCore<BoxedPredictor>| -> Vec<usize> {
                core.core().flush();
                planes
                    .iter()
                    .map(|(_, buf)| buf.take_string().matches("\"slo_alert\"").count())
                    .collect()
            };
            // Wider than the cluster: a reject in window [0, 60).
            tick(&mut core, 10, &[negotiate(1, 32, 600)]);
            tick(&mut core, 59, &[]);
            assert_eq!(alerts(&core).iter().sum::<usize>(), 0, "window still open");
            assert_eq!(core.slo().expect("rules declared").active_alerts(), 0);
            tick(&mut core, 60, &[]);
            let mut expected = vec![0; planes.len()];
            *expected.last_mut().unwrap() = 1;
            assert_eq!(alerts(&core), expected, "{shards} shard(s)");
            assert_eq!(core.slo().unwrap().firing(), ["tight"]);
        }
    }

    /// A hostile `runtime_secs` near `u64::MAX` must never wrap the
    /// promise: the planned execution time saturates, and a reservation
    /// that long either fits before the end of time — only from t=0 — and
    /// is quoted at its full saturated length, or is answered `rejected`;
    /// on one shard, on one of two, and for a wide job through the merged
    /// view. Once accepted it holds its nodes for good and the daemon goes
    /// on serving around it.
    #[test]
    fn a_runtime_near_u64_max_saturates_the_promise_instead_of_wrapping_it() {
        let promised = |line: &str| match Response::parse(line) {
            Some(Response::Quote {
                job,
                start_secs,
                promised_secs,
                deadline_secs,
                ..
            }) => (job, start_secs, promised_secs, deadline_secs),
            other => panic!("expected a quote, got {other:?}"),
        };
        let rejected = |line: &str| matches!(Response::parse(line), Some(Response::Error { .. }));
        for shards in [1, 2] {
            let (mut core, _) = build(&TraceMeta {
                shards,
                ..TraceMeta::qosd(8)
            });
            // Sizes of two stay on a shard of four; eight is the
            // cross-shard coordinator's.
            let hostile = [
                negotiate(1, 2, u64::MAX),
                negotiate(2, 2, u64::MAX - 3600),
                negotiate(3, 8, u64::MAX),
                negotiate(4, 8, u64::MAX - 7),
            ];
            let (seen, _) = tick(&mut core, 0, &hostile);
            let quotes: Vec<_> = seen.iter().map(|(_, line)| promised(line)).collect();
            for (job, start, promised_secs, deadline) in &quotes {
                assert_eq!(
                    (*start, *promised_secs, *deadline),
                    (0, u64::MAX, u64::MAX),
                    "{shards} shard(s), job {job}"
                );
            }
            let (seen, _) = tick(&mut core, 60, &hostile);
            for (k, line) in &seen {
                assert!(
                    rejected(line),
                    "{shards} shard(s), item {k} at t=60: {line}"
                );
            }
            // Taken, the first holds two nodes for good; the rest of the
            // machine still quotes, the whole of it never again.
            let accept = (
                Request::Accept {
                    id: 5,
                    job: quotes[0].0,
                },
                None,
            );
            let (seen, _) = tick(&mut core, 60, &[accept]);
            assert_eq!(seen[0].1, Response::Ok { id: 5 }.encode());
            let asks = [negotiate(6, 2, 600), negotiate(7, 8, 600)];
            let (seen, _) = tick(&mut core, 400, &asks);
            assert_eq!(promised(&seen[0].1).2, 400 + 600);
            assert!(rejected(&seen[1].1), "{shards} shard(s): {}", seen[1].1);
        }
    }

    #[test]
    fn journal_planes_are_opened_in_merge_order() {
        let suffixes = |shards| -> Vec<String> {
            let meta = TraceMeta {
                shards,
                ..TraceMeta::qosd(16)
            };
            build(&meta).1.into_iter().map(|(s, _)| s).collect()
        };
        assert_eq!(suffixes(1), [""]);
        assert_eq!(
            suffixes(4),
            [".shard0", ".shard1", ".shard2", ".shard3", ".wide"]
        );
    }
}
