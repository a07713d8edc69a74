//! `replay_wide`: an authored engine trace for 4,096 nodes × 4 shards,
//! measured as `RequestTrace::parse` + `pqos_service::replay::replay`
//! with parity on, looped until the time is up. No sockets and no wall
//! clock: CPU-bound and exactly repeatable. It is also the path
//! `--resume` will recover through.

use crate::gate::Gate;
use crate::gen;
use crate::lanes::{self, Layers};
use crate::spans::Recorder;
use crate::stats::{self, Cost};
use crate::suite::{self, EndToEnd, Opts, Outcome};
use crate::sys;
use crate::yardstick::Yardstick;
use pqos_core::config::SimConfig;
use pqos_core::session::{AdmissionRequest, NegotiationSession};
use pqos_predict::api::NullPredictor;
use pqos_service::protocol::{ErrorCode, Request, Response};
use pqos_service::record::SharedBuf;
use pqos_service::replay::{replay, replay_with, ReplayOptions, ReplayReport};
use pqos_service::shard::{partition_spans, ShardedCore};
use pqos_sim_core::time::{SimDuration, SimTime};
use pqos_telemetry::reqtrace::RequestTrace;
use pqos_telemetry::Telemetry;
use pqos_workload::job::JobId;
use std::collections::HashMap;
use std::io;
use std::time::{Duration, Instant};

/// The trace as text, plus what every replay of it must reproduce.
pub struct Prepared {
    pub text: String,
    pub entries: usize,
    pub epochs: u64,
    pub journal: String,
    pub journal_hash: u64,
    /// Negotiates answered `rejected` (a valid answer under the horizon).
    pub rejected: usize,
}

/// Set-up: author the script, learn the real responses by replaying it
/// once without parity (the `record_corpus` technique), drop the
/// follow-ups that turned out to address a rejected or already-started
/// job — a failed `accept`/`cancel` changes no state, so dropping it
/// changes no other response — and prove the result parity-clean.
pub fn prepare(seed: u64, blocks: usize) -> Result<Prepared, String> {
    let mut trace = gen::wide_trace(seed, blocks);
    let learn = ReplayOptions {
        check_parity: false,
        ..ReplayOptions::default()
    };
    let first = replay(&trace, &learn).map_err(|e| e.to_string())?;
    let mut responses: HashMap<u64, String> = first.responses.into_iter().collect();
    let mut rejected = 0;
    trace.entries.retain_mut(|entry| {
        let Some(line) = responses.remove(&entry.seq) else {
            return false;
        };
        let keep = match Response::parse(&line) {
            Some(Response::Error {
                code: ErrorCode::Rejected,
                ..
            }) => {
                rejected += 1;
                entry.verb == "negotiate"
            }
            Some(Response::Error { .. }) | None => false,
            Some(_) => true,
        };
        entry.response = line;
        keep
    });
    let text = trace.encode();
    let parsed = RequestTrace::parse(&text).map_err(|e| e.to_string())?;
    let proof = replay(&parsed, &ReplayOptions::default()).map_err(|e| e.to_string())?;
    if !proof.is_parity_clean() {
        return Err(format!(
            "reconstructed trace is not parity-clean: {} mismatch(es)",
            proof.mismatches.len()
        ));
    }
    Ok(Prepared {
        text,
        entries: parsed.entries.len(),
        epochs: proof.epochs_replayed,
        journal_hash: suite::fnv1a(proof.journal.as_bytes()),
        journal: proof.journal,
        rejected,
    })
}

/// One measured loop.
struct Loop {
    wall: Duration,
    /// Process CPU seconds the loop was charged.
    cpu_s: f64,
    parse: Duration,
    /// Per-epoch µs, the first epoch (which carries core construction)
    /// left out.
    epoch_us: Vec<f64>,
}

/// Judges one replay against what set-up established. Any mismatch, a
/// short replay or a different journal fails the gate.
pub fn check_loop(gate: &mut Gate, prepared: &Prepared, report: &ReplayReport) {
    gate.check(report.is_parity_clean(), || {
        let m = &report.mismatches[0];
        format!(
            "replay mismatch at seq {}: recorded {} replayed {}",
            m.seq, m.recorded, m.replayed
        )
    });
    gate.check(report.entries_replayed == prepared.entries, || {
        format!(
            "replayed {} of {} entries",
            report.entries_replayed, prepared.entries
        )
    });
    gate.check(
        suite::fnv1a(report.journal.as_bytes()) == prepared.journal_hash,
        || "replayed journal differs from the set-up journal".into(),
    );
}

fn one_loop(
    prepared: &Prepared,
    gate: &mut Gate,
    rec: &mut Recorder,
    op: u64,
) -> Result<Loop, String> {
    let start = Instant::now();
    let cpu0 = sys::cpu_seconds();
    let span = rec.begin("replay.loop", None, op);
    let parse_span = rec.begin("reqtrace.parse", span, op);
    let trace = RequestTrace::parse(&prepared.text).map_err(|e| e.to_string())?;
    rec.end(parse_span);
    let parse = start.elapsed();
    let run_span = rec.begin("replay.run", span, op);
    let mut epoch_us = Vec::with_capacity(prepared.epochs as usize);
    let mut last = Instant::now();
    let report = replay_with(&trace, &ReplayOptions::default(), |epoch| {
        let now = Instant::now();
        if epoch.epoch > 1 {
            epoch_us.push(now.duration_since(last).as_nanos() as f64 / 1e3);
            rec.push("replay.epoch", last, now, run_span, epoch.epoch);
        }
        last = now;
    })
    .map_err(|e| e.to_string())?;
    rec.end(run_span);
    rec.end(span);
    let wall = start.elapsed();
    let cpu_s = sys::cpu_seconds() - cpu0;
    check_loop(gate, prepared, &report);
    Ok(Loop {
        wall,
        cpu_s,
        parse,
        epoch_us,
    })
}

/// Entries per second of the quiet-quarter loop: every loop replays
/// the same entries, so loops differ only by what the host added.
fn entries_per_s(prepared: &Prepared, loops: &[Loop]) -> f64 {
    let rates: Vec<f64> = loops
        .iter()
        .map(|l| prepared.entries as f64 / l.wall.as_secs_f64())
        .collect();
    stats::quiet_high(&rates)
}

/// The quiet quarter over loops of one percentile of the loop's
/// per-epoch times.
fn epoch_percentile(loops: &[Loop], q: f64) -> f64 {
    let per_loop: Vec<f64> = loops
        .iter()
        .map(|l| {
            let mut e = l.epoch_us.clone();
            stats::percentile(stats::sorted(&mut e), q)
        })
        .collect();
    stats::quiet_low(&per_loop)
}

pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let mut setups = Vec::new();
    let mut prepared = None;
    let reps = if opts.trace { 1 } else { opts.scale.setup_reps };
    let mut yard = Yardstick::default();
    for _ in 0..reps {
        yard.tick();
        let t = Instant::now();
        let p = prepare(opts.seed, opts.scale.wide_blocks)?;
        // Warm-up: one full loop, discarded.
        one_loop(&p, &mut outcome.gate, &mut Recorder::new(t, 0, false), 0)?;
        setups.push(t.elapsed().as_secs_f64());
        prepared = Some(p);
    }
    let prepared = prepared.expect("at least one set-up");
    outcome.notes.push(format!(
        "trace: {} entries in {} epochs, {} negotiates rejected under the horizon, {} KiB",
        prepared.entries,
        prepared.epochs,
        prepared.rejected,
        prepared.text.len() / 1024
    ));
    if opts.trace {
        traced(opts, &prepared, &mut yard, &mut outcome)?;
        return Ok(outcome);
    }

    let deadline = Instant::now() + Duration::from_secs_f64(opts.seconds);
    let mut rec = Recorder::new(Instant::now(), 0, false);
    let mut loops = Vec::new();
    let mut peak_rss_mib = 0.0;
    while loops.is_empty() || Instant::now() < deadline {
        yard.tick();
        let op = loops.len() as u64 + 1;
        loops.push(one_loop(&prepared, &mut outcome.gate, &mut rec, op)?);
        if loops.len() == 1 {
            // After a fixed amount of work, not a fixed time: a faster
            // machine must not look hungrier.
            peak_rss_mib = sys::peak_rss_mib();
        }
    }
    let cpu_us: Vec<f64> = loops
        .iter()
        .map(|l| l.cpu_s * 1e6 / prepared.entries as f64)
        .collect();
    let ops = (loops.len() * prepared.entries) as u64;
    EndToEnd {
        setup_s: stats::quiet_low(&setups),
        setup_reps: setups.len() as u64,
        ops_per_s: entries_per_s(&prepared, &loops),
        ops_samples: loops.len() as u64,
        lat_samples: loops.iter().map(|l| l.epoch_us.len() as u64).sum(),
        lat_p50_us: epoch_percentile(&loops, 0.5),
        cpu_us_per_op: stats::quiet_low(&cpu_us),
        ops,
        peak_rss_mib,
    }
    .report(&yard, &mut outcome);
    Ok(outcome)
}

/// The cores replay builds, built here the same way so the shard lane
/// can read their public accessors. `journal` attaches in-memory JSONL
/// sinks like replay's; without it the planes are registry-only.
fn sharded_core(journal: bool) -> ShardedCore<NullPredictor> {
    let telemetry = |on: bool| {
        if on {
            Telemetry::builder()
                .flush_every(0)
                .jsonl_writer(SharedBuf::new())
                .build()
        } else {
            Telemetry::builder().build()
        }
    };
    let sessions = partition_spans(gen::WIDE_NODES, gen::WIDE_SHARDS as u32)
        .into_iter()
        .map(|span| {
            NegotiationSession::new(
                SimConfig::paper_defaults().cluster_size_nodes(span.width),
                NullPredictor,
                telemetry(journal),
            )
            .node_base(u64::from(span.base))
        })
        .collect();
    ShardedCore::sharded(
        sessions,
        NullPredictor,
        telemetry(journal),
        Telemetry::disabled(),
    )
    .quote_horizon(SimDuration::from_secs(gen::WIDE_HORIZON_SECS))
}

/// What the shard lane saw.
#[derive(Default)]
struct ShardLane {
    quote_ns: f64,
    accept_ns: f64,
    advance_ns: f64,
    wall_s: f64,
    peak_reservations: u64,
}

/// `shard`: the trace's operations applied straight to a `ShardedCore`
/// — probe-routing, the merged availability view and two-phase
/// `reserve_slice` without replay's parsing, parity and journal merge.
fn shard_lane(
    trace: &RequestTrace,
    journal: bool,
    rec: &mut Recorder,
    name: &'static str,
    layers: Option<&mut Layers>,
) -> ShardLane {
    let span = rec.begin(name, None, 0);
    let mut core = sharded_core(journal);
    let (mut quote, mut accept, mut advance) = (Cost::default(), Cost::default(), Cost::default());
    let mut peak = 0u64;
    let started = Instant::now();
    let mut idx = 0;
    while idx < trace.entries.len() {
        let epoch = trace.entries[idx].epoch;
        let end = idx
            + trace.entries[idx..]
                .iter()
                .take_while(|e| e.epoch == epoch)
                .count();
        let entries = &trace.entries[idx..end];
        advance.time(|| core.advance_to(SimTime::from_secs(entries[0].tick_secs)));
        let requests: Vec<Request> = entries
            .iter()
            .filter_map(|e| Request::parse(&e.request).ok())
            .collect();
        let batch: Vec<(JobId, AdmissionRequest)> = entries
            .iter()
            .zip(&requests)
            .filter_map(|(e, r)| match r {
                Request::Negotiate {
                    size, runtime_secs, ..
                } => Some((
                    JobId::new(e.job?),
                    AdmissionRequest {
                        size: *size,
                        runtime: SimDuration::from_secs(*runtime_secs),
                    },
                )),
                _ => None,
            })
            .collect();
        if !batch.is_empty() {
            std::hint::black_box(
                quote.time_batch(batch.len() as u64, || core.quote_batch(&batch, 2)),
            );
        }
        for request in &requests {
            match request {
                Request::Accept { job, .. } => {
                    let _ = std::hint::black_box(accept.time(|| core.accept(JobId::new(*job))));
                }
                Request::Cancel { job, .. } => {
                    let _ = core.cancel(JobId::new(*job));
                }
                _ => {}
            }
        }
        peak = peak.max(core.status().reservations as u64);
        idx = end;
    }
    core.flush();
    let wall_s = started.elapsed().as_secs_f64();
    rec.end(span);
    if let Some(layers) = layers {
        let status = core.status();
        let cache = core.quote_cache_stats();
        let routed = core.routed_total();
        let total: u64 = routed.iter().sum();
        let mutations = status.stats.accepted + status.stats.cancelled + status.stats.completed;
        layers.insert("cache.hit_share", cache.hit_rate());
        layers.insert("cache.rebuilds", cache.profile_rebuilds as f64);
        layers.insert(
            "cache.invalidated_per_mutation",
            cache.entries_invalidated as f64 / mutations.max(1) as f64,
        );
        layers.insert(
            "shard.wide_share",
            routed.last().copied().unwrap_or(0) as f64 / total.max(1) as f64,
        );
        layers.insert("shard.twophase_expired", status.stats.expired as f64);
        layers.insert("session.accept_expired_share", {
            status.stats.expired as f64 / accept.calls().max(1) as f64
        });
    }
    ShardLane {
        quote_ns: quote.mean_ns(),
        accept_ns: accept.mean_ns(),
        advance_ns: advance.mean_ns(),
        wall_s,
        peak_reservations: peak,
    }
}

/// `journal.merge_ms`: the replay journal dealt into five per-plane
/// streams by job, each still in time order, and stitched back together
/// the way the daemon and replay stitch shard journals.
fn merge_lane(journal: &str, rec: &mut Recorder, layers: &mut Layers) {
    let mut planes = vec![String::new(); 5];
    for line in journal.lines() {
        let plane = suite::fnv1a(
            line.split("\"job\":")
                .nth(1)
                .map_or("", |rest| rest.split([',', '}']).next().unwrap_or(""))
                .as_bytes(),
        ) as usize
            % planes.len();
        planes[plane].push_str(line);
        planes[plane].push('\n');
    }
    let refs: Vec<&str> = planes.iter().map(String::as_str).collect();
    let span = rec.begin("lane.journal.merge", None, 0);
    let t = Instant::now();
    std::hint::black_box(pqos_telemetry::merge::merge_journals(&refs));
    layers.insert("journal.merge_ms", t.elapsed().as_secs_f64() * 1e3);
    rec.end(span);
}

fn traced(
    opts: &Opts,
    prepared: &Prepared,
    yard: &mut Yardstick,
    outcome: &mut Outcome,
) -> Result<(), String> {
    let io_err = |e: io::Error| e.to_string();
    let origin = Instant::now();
    let mut layers = Layers::new();
    // Untraced and traced loops alternate, so drift in the machine hits
    // both sides alike.
    let deadline = origin + Duration::from_secs_f64(opts.seconds / 2.0);
    let mut off = Recorder::new(origin, 0, false);
    let mut rec = Recorder::new(origin, 0, true);
    let (mut untraced, mut loops) = (Vec::new(), Vec::new());
    while loops.is_empty() || Instant::now() < deadline {
        yard.tick();
        let op = loops.len() as u64 + 1;
        untraced.push(one_loop(prepared, &mut outcome.gate, &mut off, op)?);
        loops.push(one_loop(prepared, &mut outcome.gate, &mut rec, op)?);
    }
    layers.insert(
        "bench.trace_overhead_pct",
        suite::overhead_pct(
            entries_per_s(prepared, &untraced),
            entries_per_s(prepared, &loops),
        ),
    );
    layers.insert("bench.yardstick_ms", yard.ms());
    let wall: f64 = loops.iter().map(|l| l.wall.as_secs_f64()).sum();
    let parse: f64 = loops.iter().map(|l| l.parse.as_secs_f64()).sum();
    let epochs: f64 = loops
        .iter()
        .map(|l| l.epoch_us.iter().sum::<f64>() / 1e6)
        .sum();
    let n = loops.len() as f64;
    layers.insert(
        "reqtrace.parse_ns",
        parse * 1e9 / (n * prepared.entries as f64),
    );
    layers.insert(
        "replay.epochs_per_s",
        n * prepared.epochs as f64 / (wall - parse),
    );
    // A loop has 224 epochs: p95 is the highest percentile with ten
    // samples beyond it. Every loop replays the same epochs, so pooling
    // loops would add repeats, not samples.
    layers.insert("replay.epoch_p95_us", epoch_percentile(&untraced, 0.95));
    layers.insert("replay.mismatches", outcome.gate.failed as f64);
    // Parse plus the epochs; the rest of a loop is building the cores
    // and merging the per-plane journals.
    layers.insert("bench.ledger_accounted_share", (parse + epochs) / wall);

    let div = opts.scale.lane_divisor;
    let trace = RequestTrace::parse(&prepared.text).map_err(|e| e.to_string())?;
    let lines: Vec<(String, String)> = trace
        .entries
        .iter()
        .take(512)
        .map(|e| (e.request.clone(), e.response.clone()))
        .collect();
    lanes::protocol(&lines, &mut rec, &mut layers);
    let with = shard_lane(&trace, true, &mut rec, "lane.shard", Some(&mut layers));
    let without = shard_lane(&trace, false, &mut rec, "lane.shard.nojournal", None);
    layers.insert("shard.quote_ns", with.quote_ns);
    layers.insert("shard.accept_ns", with.accept_ns);
    layers.insert("session.advance_ns", with.advance_ns);
    layers.insert(
        "journal.share",
        (1.0 - without.wall_s / with.wall_s).max(0.0),
    );
    let events = prepared.journal.lines().count() as f64;
    layers.insert(
        "journal.events_per_request",
        events / prepared.entries as f64,
    );
    layers.insert(
        "journal.bytes_per_request",
        prepared.journal.len() as f64 / prepared.entries as f64,
    );
    merge_lane(&prepared.journal, &mut rec, &mut layers);
    lanes::journal_emit(
        &opts.out_dir.join("lane-journal.jsonl"),
        div,
        &mut rec,
        &mut layers,
    )
    .map_err(io_err)?;
    lanes::doctor(&prepared.journal, &mut rec, &mut layers);
    // Scheduling kernels at one shard's width and peak depth.
    let shard_width = gen::WIDE_NODES / gen::WIDE_SHARDS as u32;
    let depth = (with.peak_reservations / gen::WIDE_SHARDS) as usize;
    let book = gen::packed_book("lane-book", shard_width, depth.max(1), 1024);
    let predictor: crate::serve::Pred = Box::new(NullPredictor);
    lanes::sched(shard_width, &book, &predictor, div, &mut rec, &mut layers);

    let spans = rec.into_spans();
    let folded = crate::spans::self_times(&spans);
    if let (Some(l), Some(r)) = (folded.get("replay.loop"), folded.get("replay.run")) {
        // The harness's own share of a loop: what neither parse nor
        // replay covers.
        layers.insert(
            "bench.client_self_share",
            l.self_ns as f64 / l.total_ns.max(1) as f64,
        );
        outcome.notes.push(format!(
            "replay.run self time (core construction + journal merge): {:.3} ms per loop",
            r.self_ns as f64 / 1e6 / r.count.max(1) as f64
        ));
    }
    suite::finish_trace(opts, "replay_wide", &spans, &layers, outcome).map_err(io_err)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_tampered_response_fails_the_gate() {
        let prepared = prepare(gen::DEFAULT_SEED, 2).expect("set-up");
        let mut gate = Gate::default();
        let trace = RequestTrace::parse(&prepared.text).expect("parses");
        let honest = replay(&trace, &ReplayOptions::default()).expect("replays");
        check_loop(&mut gate, &prepared, &honest);
        assert!(gate.correct(), "{:?}", gate.reasons);

        // One recorded quote promises a second later than the engine did.
        let mut tampered = trace.clone();
        let entry = tampered
            .entries
            .iter_mut()
            .find(|e| e.response.contains("promised_secs"))
            .expect("a quoted negotiate");
        let Some(Response::Quote {
            id,
            job,
            start_secs,
            promised_secs,
            deadline_secs,
            success_probability,
            satisfied_threshold,
        }) = Response::parse(&entry.response)
        else {
            panic!("quote parses");
        };
        entry.response = Response::Quote {
            id,
            job,
            start_secs,
            promised_secs: promised_secs + 1,
            deadline_secs,
            success_probability,
            satisfied_threshold,
        }
        .encode();
        let report = replay(&tampered, &ReplayOptions::default()).expect("replays");
        let mut gate = Gate::default();
        check_loop(&mut gate, &prepared, &report);
        assert_eq!(gate.failed, 1);
        assert!(gate.reasons[0].contains("replay mismatch"));
    }

    #[test]
    fn prepared_trace_has_no_failing_operation() {
        let prepared = prepare(gen::HELD_OUT_SEED, 3).expect("set-up");
        let trace = RequestTrace::parse(&prepared.text).expect("parses");
        for entry in &trace.entries {
            if let Response::Error { code, .. } =
                Response::parse(&entry.response).expect("response parses")
            {
                assert_eq!(code, ErrorCode::Rejected);
                assert_eq!(entry.verb, "negotiate");
            }
        }
    }
}
