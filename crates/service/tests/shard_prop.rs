//! Property tests for the sharded admission core.
//!
//! Three invariants keep sharding honest:
//!
//! 1. A one-shard core runs the same router as an N-shard one, and the
//!    router must be invisible there: a randomized op stream — sizes
//!    wider than the cluster included, which a core with no coordinator
//!    must reject as a session does — through `ShardedCore::single` and
//!    through a raw [`NegotiationSession`] must produce identical
//!    decisions AND a byte-identical telemetry journal. If this drifts,
//!    every one-shard trace silently stops replaying.
//! 2. An N-way core is deterministic per seed — two independently
//!    constructed cores fed the same stream must emit byte-identical
//!    merged journals, and that journal must satisfy the doctor's
//!    causal checks. This is the property `pqos-replay` leans on.
//! 3. The wide-job coordinator runs the *same* served lifecycle as a
//!    session (`pqos_core::lifecycle`), differing only in what "book it"
//!    means — so a core fed nothing but jobs wider than any shard must be
//!    indistinguishable from one raw session over the whole cluster.
//! 4. Replay merges the planes' journals tick by tick, releasing each
//!    line once no plane can write an earlier one; what it releases must
//!    be the merge of the planes' whole journals, at every shard count.

use pqos_core::config::SimConfig;
use pqos_core::session::{
    AcceptError, AdmissionRequest, CancelError, HeldQuote, NegotiationSession, QuoteDecision,
};
use pqos_obs::doctor::Doctor;
use pqos_predict::api::NullPredictor;
use pqos_service::engine::{spawn_core, EngineConfig, ReplySender};
use pqos_service::protocol::{Request, Response};
use pqos_service::record::{SharedBuf, TraceRecorder};
use pqos_service::replay::{replay, ReplayOptions};
use pqos_service::shard::{partition_spans, ShardedCore};
use pqos_service::tick::build_core;
use pqos_service::FlightRecorder;
use pqos_sim_core::rng::DetRng;
use pqos_sim_core::time::{SimDuration, SimTime};
use pqos_telemetry::reqtrace::{RequestTrace, TraceMeta};
use pqos_telemetry::Telemetry;
use pqos_workload::job::JobId;
use std::time::Duration;

/// One step of an op stream: the four calls a raw session and a sharded
/// core both answer.
#[derive(Debug, Clone)]
enum Op {
    /// Advance virtual time, firing due starts/completions.
    AdvanceTo(SimTime),
    /// Quote a batch of admission requests, in batch order.
    QuoteBatch(Vec<(JobId, AdmissionRequest)>),
    /// Commit a held quote.
    Accept(JobId),
    /// Withdraw a quoted or accepted (not yet started) job.
    Cancel(JobId),
}

/// What one [`Op`] produced: the return value of the call it made.
#[derive(Debug, PartialEq)]
enum Outcome {
    Advanced(SimTime),
    Quotes(Vec<QuoteDecision>),
    Accepted(Result<HeldQuote, AcceptError>),
    Cancelled(Result<(), CancelError>),
}

/// Applies one [`Op`] to a `NegotiationSession` or a `ShardedCore`, which
/// share the four methods but no trait.
macro_rules! apply {
    ($core:expr, $op:expr, $threads:expr) => {
        match $op {
            Op::AdvanceTo(to) => {
                $core.advance_to(*to);
                Outcome::Advanced($core.status().now)
            }
            Op::QuoteBatch(requests) => Outcome::Quotes($core.quote_batch(requests, $threads)),
            Op::Accept(id) => Outcome::Accepted($core.accept(*id)),
            Op::Cancel(id) => Outcome::Cancelled($core.cancel(*id)),
        }
    };
}

/// Builds a deterministic op stream: interleaved quote batches, accepts
/// and cancels of previously quoted jobs, and time advances. The stream
/// depends only on the seed, never on session responses, so two
/// consumers can be fed the exact same sequence.
fn op_stream(seed: u64, max_size: u32, ops: usize) -> Vec<Op> {
    let mut rng = DetRng::seed_from(seed);
    let mut stream = Vec::with_capacity(ops);
    let mut next_job: u64 = 1;
    let mut quoted: Vec<u64> = Vec::new();
    let mut clock: u64 = 0;
    for _ in 0..ops {
        match rng.uniform_u64(0, 10) {
            0..=3 => {
                let batch: Vec<(JobId, AdmissionRequest)> = (0..rng.uniform_u64(1, 3))
                    .map(|_| {
                        let id = next_job;
                        next_job += 1;
                        quoted.push(id);
                        (
                            JobId::new(id),
                            AdmissionRequest {
                                size: rng.uniform_u64(1, u64::from(max_size)) as u32,
                                runtime: SimDuration::from_secs(rng.uniform_u64(300, 7200)),
                            },
                        )
                    })
                    .collect();
                stream.push(Op::QuoteBatch(batch));
            }
            4..=6 if !quoted.is_empty() => {
                let pick = rng.uniform_u64(0, quoted.len() as u64 - 1) as usize;
                stream.push(Op::Accept(JobId::new(quoted[pick])));
            }
            7..=8 if !quoted.is_empty() => {
                let pick = rng.uniform_u64(0, quoted.len() as u64 - 1) as usize;
                stream.push(Op::Cancel(JobId::new(quoted.swap_remove(pick))));
            }
            _ => {
                clock += rng.uniform_u64(1, 1800);
                stream.push(Op::AdvanceTo(SimTime::from_secs(clock)));
            }
        }
    }
    // Always end with a final advance so starts/completions fire and the
    // journal carries release events, not just admissions.
    clock += 86_400;
    stream.push(Op::AdvanceTo(SimTime::from_secs(clock)));
    stream
}

fn journaled_session(nodes: u32, base: u32) -> (NegotiationSession<NullPredictor>, SharedBuf) {
    let buf = SharedBuf::new();
    let telemetry = Telemetry::builder()
        .flush_every(0)
        .jsonl_writer(buf.clone())
        .build();
    let session = NegotiationSession::new(
        SimConfig::paper_defaults().cluster_size_nodes(nodes),
        NullPredictor,
        telemetry,
    )
    .node_base(u64::from(base));
    (session, buf)
}

/// Builds an N-way sharded core over `cluster` nodes, returning the
/// per-plane journal buffers in merge order (shards, then coordinator).
fn sharded_core(cluster: u32, shards: u32) -> (ShardedCore<NullPredictor>, Vec<SharedBuf>) {
    let mut bufs = Vec::new();
    let mut sessions = Vec::new();
    for span in partition_spans(cluster, shards) {
        let (session, buf) = journaled_session(span.width, span.base);
        bufs.push(buf);
        sessions.push(session);
    }
    let wide_buf = SharedBuf::new();
    let coordinator = Telemetry::builder()
        .flush_every(0)
        .jsonl_writer(wide_buf.clone())
        .build();
    bufs.push(wide_buf);
    let core = ShardedCore::sharded(sessions, NullPredictor, coordinator, Telemetry::disabled());
    (core, bufs)
}

fn merged_journal(core: &mut ShardedCore<NullPredictor>, bufs: &[SharedBuf]) -> String {
    core.flush();
    let texts: Vec<String> = bufs.iter().map(SharedBuf::take_string).collect();
    let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
    pqos_telemetry::merge::merge_journals_to_string(&refs)
}

#[test]
fn single_shard_core_is_byte_identical_to_a_raw_session() {
    for seed in [1u64, 42, 0xFEED, 0xD5_2005] {
        // Sizes up to 20 on 16 nodes: some fit no lane.
        let stream = op_stream(seed, 20, 120);
        let oversized = stream
            .iter()
            .filter_map(|op| match op {
                Op::QuoteBatch(batch) => Some(batch),
                _ => None,
            })
            .flatten()
            .filter(|(_, req)| req.size > 16)
            .count();
        assert!(
            oversized > 0,
            "seed {seed}: no request wider than the cluster"
        );

        let (raw_session, raw_buf) = journaled_session(16, 0);
        let mut raw_session = raw_session;
        let (wrapped_session, wrapped_buf) = journaled_session(16, 0);
        let mut core = ShardedCore::single(wrapped_session);

        for op in &stream {
            let raw = apply!(raw_session, op, 2);
            let wrapped = apply!(core, op, 2);
            assert_eq!(raw, wrapped, "seed {seed}: outcome diverged on {op:?}");
        }
        assert_eq!(raw_session.live_jobs(), core.live_jobs(), "seed {seed}");
        raw_session.flush();
        core.flush();
        assert_eq!(
            raw_buf.take_string(),
            wrapped_buf.take_string(),
            "seed {seed}: journals diverged"
        );
    }
}

/// [`op_stream`] with every request wider than the widest shard (sizes in
/// `(widest, cluster + 2]`, so some can never fit) and every third
/// request re-quoting an id the stream quoted earlier and has not
/// cancelled — held, accepted, running or finished by then, which is
/// every arm of the duplicate-id rule.
fn wide_only_stream(seed: u64, cluster: u32, widest: u32, ops: usize) -> Vec<Op> {
    let mut stream = op_stream(seed, cluster + 2 - widest, ops);
    let mut held: Vec<JobId> = Vec::new();
    let mut requests = 0usize;
    for op in &mut stream {
        match op {
            Op::QuoteBatch(batch) => {
                for (id, req) in batch.iter_mut() {
                    req.size += widest;
                    requests += 1;
                    if requests.is_multiple_of(3) && !held.is_empty() {
                        *id = held[requests % held.len()];
                    }
                }
                held.extend(batch.iter().map(|&(id, _)| id));
            }
            Op::Cancel(id) => held.retain(|h| h != id),
            Op::Accept(_) | Op::AdvanceTo(_) => {}
        }
    }
    stream
}

#[test]
fn wide_only_core_is_byte_identical_to_a_raw_session() {
    let horizons = [None, Some(SimDuration::from_secs(2 * 3600))];
    for (cluster, shards) in [(16u32, 2u32), (32, 4), (30, 4)] {
        let widest = partition_spans(cluster, shards)
            .iter()
            .map(|s| s.width)
            .max()
            .unwrap();
        for seed in [1u64, 7, 42, 1234, 0xBEEF, 0xD5_2005] {
            for horizon in horizons {
                let world = format!("{cluster}x{shards} seed {seed} horizon {horizon:?}");
                let stream = wide_only_stream(seed, cluster, widest, 200);

                let (mut raw, raw_buf) = journaled_session(cluster, 0);
                let (mut core, bufs) = sharded_core(cluster, shards);
                if let Some(h) = horizon {
                    raw = raw.quote_horizon(h);
                    core = core.quote_horizon(h);
                }
                for op in &stream {
                    let expected = apply!(raw, op, 2);
                    let got = apply!(core, op, 2);
                    assert_eq!(expected, got, "{world}: outcome diverged on {op:?}");
                }
                assert_eq!(raw.live_jobs(), core.live_jobs(), "{world}");
                let (expected, got) = (raw.status(), core.status());
                assert_eq!(expected.stats, got.stats, "{world}");
                assert_eq!(expected.promises, got.promises, "{world}");
                assert_eq!(expected.occupied_nodes, got.occupied_nodes, "{world}");
                assert!(
                    got.stats.accepted > 0 && got.stats.completed > 0 && got.stats.cancelled > 0,
                    "{world}: stream never exercised the lifecycle: {:?}",
                    got.stats
                );

                raw.flush();
                core.flush();
                let (wide_buf, shard_bufs) = bufs.split_last().unwrap();
                for (k, buf) in shard_bufs.iter().enumerate() {
                    assert_eq!(buf.take_string(), "", "{world}: shard {k} journaled");
                }
                assert_eq!(
                    raw_buf.take_string(),
                    wide_buf.take_string(),
                    "{world}: coordinator journal diverged from the raw session's"
                );
            }
        }
    }
}

#[test]
fn sharded_journal_merge_is_byte_stable_per_seed() {
    for seed in [7u64, 1234, 0xBEEF] {
        // 4 shards over 32 nodes: 8 nodes each, so sizes up to 8 route
        // narrow and 9..=12 exercise the wide coordinator.
        let stream = op_stream(seed, 12, 150);

        let (mut a, a_bufs) = sharded_core(32, 4);
        let (mut b, b_bufs) = sharded_core(32, 4);
        let mut decisions = 0usize;
        for op in &stream {
            let ra = apply!(a, op, 2);
            let rb = apply!(b, op, 2);
            assert_eq!(ra, rb, "seed {seed}: outcome diverged on {op:?}");
            if let Outcome::Quotes(qs) = &ra {
                decisions += qs.len();
            }
        }
        assert!(decisions > 0, "seed {seed}: stream produced no quotes");

        let ja = merged_journal(&mut a, &a_bufs);
        let jb = merged_journal(&mut b, &b_bufs);
        assert!(!ja.is_empty(), "seed {seed}: empty merged journal");
        assert_eq!(ja, jb, "seed {seed}: merged journals diverged");

        // The merged stream must still satisfy causal ordering: no event
        // about a job before its submission, releases after admissions.
        let report = Doctor::check_str(&ja);
        assert_eq!(
            report.errors(),
            0,
            "seed {seed}: doctor errors in merged journal: {report:#?}"
        );
    }
}

#[test]
fn narrow_routing_is_sticky_and_covers_every_shard_eventually() {
    // A long single-node stream must spread across shards (the router
    // load-balances by earliest-start, tie-broken by shard index), and
    // every decision must land somewhere: routed_total over all lanes
    // equals the number of quote decisions made.
    let (mut core, _bufs) = sharded_core(16, 4);
    let mut quotes = 0u64;
    for k in 0..40u64 {
        let outcome = apply!(
            core,
            &Op::QuoteBatch(vec![(
                JobId::new(k + 1),
                AdmissionRequest {
                    size: 1,
                    runtime: SimDuration::from_secs(600),
                },
            )]),
            1
        );
        let Outcome::Quotes(qs) = outcome else {
            panic!("quote batch must yield quotes");
        };
        quotes += qs.len() as u64;
        apply!(core, &Op::Accept(JobId::new(k + 1)), 1);
    }
    let routed = core.routed_total();
    assert_eq!(routed.len(), 5, "4 shard lanes + wide coordinator lane");
    assert_eq!(routed.iter().sum::<u64>(), quotes);
    assert_eq!(routed[4], 0, "single-node jobs never go wide");
    let shards_hit = routed[..4].iter().filter(|&&n| n > 0).count();
    assert!(
        shards_hit >= 2,
        "40 accepted single-node jobs must spread over shards, got {routed:?}"
    );
}

/// A live engine run over 16 nodes in `shards` shards, recorded as
/// `pqos-qosd --record --journal` records one: the request trace, and each
/// plane's journal in merge order. Bursts of pipelined requests with
/// short runtimes, slept apart: at a nonzero `time_scale` the bursts land
/// at later instants and the jobs they admit start and finish between
/// them; at `0.0` every epoch shares instant 0.
fn recorded_run(shards: u64, time_scale: f64) -> (RequestTrace, Vec<String>) {
    let meta = TraceMeta {
        time_scale,
        batch_threads: 2,
        shards,
        ..TraceMeta::qosd(16)
    };
    let mut planes = Vec::new();
    let core = build_core(&meta, true, Telemetry::disabled(), |_, builder| {
        let buf = SharedBuf::new();
        planes.push(buf.clone());
        Ok(builder.flush_every(0).jsonl_writer(buf).build())
    })
    .expect("meta describes a buildable core");
    let config = EngineConfig {
        time_scale,
        batch_threads: 2,
        ..EngineConfig::default()
    };
    let trace = SharedBuf::new();
    let recorder = TraceRecorder::to_writer(trace.clone(), &meta).expect("in-memory recorder");
    let (handle, join) = spawn_core(core, config, FlightRecorder::disabled(), recorder);
    let (reply, rx) = ReplySender::channel();
    let send = |request| {
        handle
            .submit(request, &reply, None, 1)
            .expect("queue accepts")
    };
    let recv = || rx.recv_timeout(Duration::from_secs(5)).expect("reply").0;
    let mut id = 0u64;
    for burst in 0..6u64 {
        // Sizes 1..=6: a shard owns 16 / shards nodes, so some go wide.
        for k in 0..4u64 {
            id += 1;
            send(Request::Negotiate {
                id,
                size: 1 + ((burst + k) % 6) as u32,
                runtime_secs: 2 + 3 * k,
            });
        }
        let quoted: Vec<u64> = (0..4)
            .filter_map(|_| match recv() {
                Response::Quote { job, .. } => Some(job),
                _ => None,
            })
            .collect();
        for &job in &quoted {
            id += 1;
            send(Request::Accept { id, job });
        }
        for _ in &quoted {
            recv();
        }
        if let Some(&job) = quoted.first() {
            id += 1;
            send(Request::Cancel { id, job });
            recv();
        }
        std::thread::sleep(Duration::from_millis(3));
    }
    send(Request::Shutdown { id: id + 1 });
    assert_eq!(recv(), Response::Ok { id: id + 1 });
    join.join().expect("engine thread");
    let trace = RequestTrace::parse(&trace.take_string()).expect("trace parses");
    (trace, planes.iter().map(SharedBuf::take_string).collect())
}

#[test]
fn replay_releases_what_merging_the_whole_planes_writes() {
    let (mut shared, mut distinct) = (0, 0);
    for shards in 1..=4 {
        for time_scale in [0.0, 2_000.0] {
            let (trace, planes) = recorded_run(shards, time_scale);
            let report = replay(&trace, &ReplayOptions::default()).expect("replayable");
            assert!(
                report.shutdown_seen && report.is_parity_clean(),
                "{shards} shard(s) at {time_scale}: {:#?}",
                report.mismatches
            );
            let refs: Vec<&str> = planes.iter().map(String::as_str).collect();
            assert_eq!(
                report.journal,
                pqos_telemetry::merge::merge_journals_to_string(&refs),
                "{shards} shard(s) at {time_scale}: the tick-by-tick release differs"
            );
            // Consecutive epochs at one instant, and at later ones.
            for pair in trace.entries.windows(2) {
                if pair[0].epoch != pair[1].epoch {
                    if pair[0].tick_secs == pair[1].tick_secs {
                        shared += 1;
                    } else {
                        distinct += 1;
                    }
                }
            }
        }
    }
    assert!(
        shared > 0 && distinct > 0,
        "{shared} shared, {distinct} distinct"
    );
}
