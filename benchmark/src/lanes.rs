//! Isolated lanes: each layer measured from outside, by timing calls
//! into public functions on inputs shaped like the workload's (its
//! depth, width, line sizes, connection count and pipeline depth). Every
//! lane runs under a span, so the traced run's Chrome trace shows where
//! the lane time went.

use crate::gen::Booking;
use crate::serve::{self, Mix, Pred};
use crate::spans::Recorder;
use crate::stats::{self, Cost};
use pqos_cluster::mask::NodeMask;
use pqos_cluster::node::NodeId;
use pqos_cluster::partition::Partition;
use pqos_cluster::topology::Topology;
use pqos_core::negotiate::{negotiate, NegotiationRequest};
use pqos_core::session::{AdmissionRequest, QuoteDecision};
use pqos_core::user::UserStrategy;
use pqos_net::{EventLoop, NetConfig, NetEvent};
use pqos_predict::api::Predictor;
use pqos_sched::cache::CachedReservationBook;
use pqos_sched::place::{choose_partition, PlacementStrategy};
use pqos_service::engine::{spawn_core, ReplySender};
use pqos_service::flight::FlightRecorder;
use pqos_service::protocol::{Request, Response};
use pqos_service::record::TraceRecorder;
use pqos_sim_core::time::{SimDuration, SimTime, TimeWindow};
use pqos_telemetry::{Telemetry, TelemetryEvent};
use pqos_workload::job::JobId;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::hint::black_box;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::time::Instant;

/// Per-layer results, keyed by the names in [`crate::spec::PER_LAYER`].
pub type Layers = BTreeMap<&'static str, f64>;

/// Mean ns per call of `work` over `iters` calls.
fn per_call_ns(iters: u64, mut work: impl FnMut(u64)) -> f64 {
    let iters = iters.max(1);
    let start = Instant::now();
    for i in 0..iters {
        work(i);
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// `net`: the event loop answering canned reply lines, no engine behind
/// it — sockets, readiness and line framing only — driven over one
/// connection with the workload's pipeline depth and line sizes.
pub fn net_echo(
    mix: Mix,
    lines: &[(String, String)],
    requests: u64,
    rec: &mut Recorder,
    layers: &mut Layers,
) -> io::Result<()> {
    if lines.is_empty() {
        return Ok(());
    }
    let span = rec.begin("lane.net", None, 0);
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let event_loop = EventLoop::bind(listener, NetConfig::default())?;
    let addr = event_loop.local_addr()?;
    let replies: Vec<Vec<u8>> = lines
        .iter()
        .map(|(_, reply)| (reply.clone() + "\n").into_bytes())
        .collect();
    let server = std::thread::spawn(move || {
        let mut served = 0usize;
        event_loop.run(|event, ctx| {
            if let NetEvent::Line(token, line) = event {
                if line == b"quit" {
                    ctx.shutdown();
                } else {
                    ctx.send(token, &replies[served % replies.len()]);
                    served += 1;
                }
            }
        })
    });
    let depth = mix.depth() as u64;
    let started = Instant::now();
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    let mut sent_at: VecDeque<Instant> = VecDeque::new();
    let mut all = Vec::with_capacity(requests as usize);
    let mut line = String::new();
    let mut issued = 0u64;
    while (all.len() as u64) < requests {
        while (sent_at.len() as u64) < depth && issued < requests {
            let request = &lines[issued as usize % lines.len()].0;
            writer.write_all(request.as_bytes())?;
            writer.write_all(b"\n")?;
            sent_at.push_back(Instant::now());
            issued += 1;
        }
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        // The echo loop answers in order.
        let sent = sent_at.pop_front().expect("a reply follows a request");
        all.push(sent.elapsed().as_nanos() as f64 / 1e3);
    }
    let elapsed = started.elapsed();
    let mut control = TcpStream::connect(addr)?;
    control.write_all(b"quit\n")?;
    server
        .join()
        .map_err(|_| io::Error::other("echo loop panicked"))??;
    layers.insert("net.echo_rps", all.len() as f64 / elapsed.as_secs_f64());
    layers.insert(
        "net.echo_p50_us",
        stats::percentile(stats::sorted(&mut all), 0.5),
    );
    rec.end(span);
    Ok(())
}

/// `protocol`: `Request::parse` and `Response::encode` over the run's
/// own lines.
pub fn protocol(lines: &[(String, String)], rec: &mut Recorder, layers: &mut Layers) {
    let parsed: Vec<Response> = lines
        .iter()
        .filter_map(|(_, reply)| Response::parse(reply))
        .collect();
    if lines.is_empty() || parsed.is_empty() {
        return;
    }
    let rounds = (200_000 / lines.len() as u64).max(1);
    let span = rec.begin("lane.protocol.parse", None, 0);
    let parse_ns = per_call_ns(rounds, |_| {
        for (request, _) in lines {
            black_box(Request::parse(black_box(request)).ok());
        }
    }) / lines.len() as f64;
    rec.end(span);
    let span = rec.begin("lane.protocol.encode", None, 0);
    let encode_ns = per_call_ns(rounds, |_| {
        for response in &parsed {
            black_box(black_box(response).encode());
        }
    }) / parsed.len() as f64;
    rec.end(span);
    layers.insert("protocol.parse_ns", parse_ns);
    layers.insert("protocol.encode_ns", encode_ns);
}

/// The mix's stream of job shapes, without sockets.
struct Script {
    mix: Mix,
    reject: crate::gen::RejectStream,
    admit: crate::gen::AdmitStream,
}

impl Script {
    fn new(mix: Mix, seed: u64) -> Self {
        Script {
            mix,
            reject: crate::gen::RejectStream::new(seed),
            admit: crate::gen::AdmitStream::new(seed),
        }
    }

    fn next_shape(&mut self) -> (u32, u64) {
        match self.mix {
            Mix::Reject => self.reject.next_shape(),
            Mix::Admit => self.admit.next_shape(),
        }
    }
}

/// `engine`: requests submitted straight into the engine queue, replies
/// over a channel lane — the queue, tick, batching and reply hand-off
/// with no sockets and no JSON. One thread keeps as many requests in
/// flight as the workload's connections do together.
pub fn engine_roundtrip(
    mix: Mix,
    seed: u64,
    book: &[Booking],
    dialogs: u64,
    rec: &mut Recorder,
    layers: &mut Layers,
) {
    let span = rec.begin("lane.engine", None, 0);
    let core = serve::core(mix, book, Telemetry::builder().build());
    let (handle, join) = spawn_core(
        core,
        serve::engine_config(),
        FlightRecorder::disabled(),
        TraceRecorder::disabled(),
    );
    let (reply, replies) = ReplySender::channel();
    let window = mix.depth();
    let mut script = Script::new(mix, seed);
    // Follow-ups that a reply made due: they go out before new dialogs.
    let mut due: VecDeque<Request> = VecDeque::new();
    let mut lagged: VecDeque<u64> = VecDeque::new();
    let mut inflight: HashMap<u64, (Request, Instant)> = HashMap::new();
    let mut rtt_us = Vec::with_capacity(dialogs as usize);
    let (mut id, mut started) = (0u64, 0u64);
    loop {
        while inflight.len() < window {
            id += 1;
            let request = match due.pop_front() {
                Some(Request::Accept { job, .. }) => Request::Accept { id, job },
                Some(Request::Cancel { job, .. }) => Request::Cancel { id, job },
                Some(other) => other,
                None if started < dialogs => {
                    started += 1;
                    let (size, runtime_secs) = script.next_shape();
                    Request::Negotiate {
                        id,
                        size,
                        runtime_secs,
                    }
                }
                None => break,
            };
            if handle.submit(request, &reply, None, 0).is_ok() {
                inflight.insert(id, (request, Instant::now()));
            }
        }
        if inflight.is_empty() {
            break;
        }
        let Ok((answer, _)) = replies.recv() else {
            break;
        };
        let Some((request, sent)) = inflight.remove(&answer.id()) else {
            continue;
        };
        match (mix, request, answer) {
            (_, Request::Negotiate { .. }, Response::Quote { job, .. }) => {
                rtt_us.push(sent.elapsed().as_nanos() as f64 / 1e3);
                due.push_back(match mix {
                    Mix::Reject => Request::Cancel { id: 0, job },
                    Mix::Admit => Request::Accept { id: 0, job },
                });
            }
            (_, Request::Negotiate { .. }, _) => {
                rtt_us.push(sent.elapsed().as_nanos() as f64 / 1e3);
            }
            (Mix::Admit, Request::Accept { job, .. }, Response::Ok { .. }) => {
                lagged.push_back(job);
                if lagged.len() > crate::gen::ADMIT_CANCEL_LAG {
                    let job = lagged.pop_front().expect("checked non-empty");
                    due.push_back(Request::Cancel { id: 0, job });
                }
            }
            _ => {}
        }
    }
    if handle
        .submit(Request::Shutdown { id: id + 1 }, &reply, None, 0)
        .is_ok()
    {
        let _ = replies.recv();
    }
    let _ = join.join();
    layers.insert(
        "engine.roundtrip_p50_us",
        stats::percentile(stats::sorted(&mut rtt_us), 0.5),
    );
    rec.end(span);
}

/// Mean cost of the session's public calls on the mix's script.
#[derive(Debug, Default, Clone, Copy)]
pub struct SessionCosts {
    pub quote_ns: f64,
    pub accept_ns: f64,
    pub cancel_ns: f64,
    pub advance_ns: f64,
    pub wall_s: f64,
}

/// `session`: direct `NegotiationSession` calls on the script — what the
/// engine's compute stage does, without the engine. Run once with the
/// daemon's journal sink and once without, the difference is the
/// journal's share.
pub fn session_costs(
    mix: Mix,
    seed: u64,
    book: &[Booking],
    telemetry: Telemetry,
    dialogs: u64,
    rec: &mut Recorder,
    span_name: &'static str,
) -> SessionCosts {
    let span = rec.begin(span_name, None, 0);
    let mut session = serve::session(mix, book, telemetry).parity_sample(16);
    if mix == Mix::Reject {
        session = session.quote_horizon(SimDuration::from_secs(crate::gen::REJECT_HORIZON_SECS));
    }
    let mut script = Script::new(mix, seed);
    let mut lagged: VecDeque<JobId> = VecDeque::new();
    let (mut quote, mut accept, mut cancel, mut advance) = (
        Cost::default(),
        Cost::default(),
        Cost::default(),
        Cost::default(),
    );
    let started = Instant::now();
    for dialog in 1..=dialogs {
        // The engine advances virtual time at every tick; nothing falls
        // due behind the blocker, as in the served run.
        advance.time(|| session.advance_to(session.now()));
        let id = JobId::new(dialog);
        let (size, runtime_secs) = script.next_shape();
        let request = AdmissionRequest {
            size,
            runtime: SimDuration::from_secs(runtime_secs),
        };
        let decisions = quote.time(|| session.quote_batch(&[(id, request)], serve::BATCH_THREADS));
        if !matches!(decisions.first(), Some(QuoteDecision::Quoted(_))) {
            continue;
        }
        // Reject mix: walk away from the quote. Admit mix: take it, and
        // withdraw the job accepted `ADMIT_CANCEL_LAG` dialogs ago.
        let withdraw = match mix {
            Mix::Reject => Some(id),
            Mix::Admit => {
                if accept.time(|| session.accept(id)).is_ok() {
                    lagged.push_back(id);
                }
                (lagged.len() > crate::gen::ADMIT_CANCEL_LAG)
                    .then(|| lagged.pop_front().expect("checked non-empty"))
            }
        };
        if let Some(id) = withdraw {
            let _ = cancel.time(|| session.cancel(id));
        }
    }
    session.flush();
    let wall_s = started.elapsed().as_secs_f64();
    rec.end(span);
    SessionCosts {
        quote_ns: quote.mean_ns(),
        accept_ns: accept.mean_ns(),
        cancel_ns: cancel.mean_ns(),
        advance_ns: advance.mean_ns(),
        wall_s,
    }
}

/// `negotiate` / `place` / `predict` / `cache` / `book` / `mask`: the
/// scheduling kernels on a book of the workload's depth and width.
pub fn sched(
    width: u32,
    book: &[Booking],
    predictor: &Pred,
    div: u64,
    rec: &mut Recorder,
    layers: &mut Layers,
) {
    let span = rec.begin("lane.sched", None, 0);
    let mut cached = CachedReservationBook::new(width);
    let mut horizon = 0u64;
    for (k, b) in book.iter().enumerate() {
        cached
            .add(JobId::new(k as u64), b.partition(), b.window())
            .expect("generated bookings never conflict");
        horizon = horizon.max(b.end);
    }
    layers.insert("book.depth", cached.len() as f64);

    // A mutation in the middle of the book's span, in a one-node hole
    // there: what an accept does to the profile and the memo.
    let hole = cached
        .earliest_slots(
            1,
            SimDuration::from_secs(600),
            SimTime::from_secs(horizon / 2),
            &[],
            1,
        )
        .into_iter()
        .next()
        .expect("a one-node, ten-minute hole exists somewhere");
    let mid = hole.start;
    let dummy = || {
        (
            JobId::new(u64::MAX),
            Partition::new([hole.free[0]]).expect("one node"),
            TimeWindow::starting_at(mid, SimDuration::from_secs(600)),
        )
    };
    let size = 16.min(width);
    let duration = SimDuration::from_secs(3600);
    let probe = |book: &CachedReservationBook| {
        black_box(book.earliest_slots(size, duration, SimTime::ZERO, &[], 24));
    };

    let lane = rec.begin("lane.cache.warm", span, 0);
    probe(&cached);
    let warm = per_call_ns(20_000 / div, |_| probe(&cached));
    rec.end(lane);
    layers.insert("cache.probe_warm_ns", warm);

    let lane = rec.begin("lane.book", span, 0);
    let (mut add, mut remove, mut cold) = (Cost::default(), Cost::default(), Cost::default());
    for _ in 0..(200 / div).max(1) {
        let (job, partition, window) = dummy();
        let id = add
            .time(|| cached.add(job, partition, window))
            .expect("free slot");
        // The first probe after a mutation rebuilds the profile.
        cold.time(|| probe(&cached));
        black_box(remove.time(|| cached.remove(id)));
    }
    rec.end(lane);
    layers.insert("book.add_ns", add.mean_ns());
    layers.insert("book.remove_ns", remove.mean_ns());
    layers.insert("cache.probe_cold_ns", cold.mean_ns());

    let lane = rec.begin("lane.negotiate", span, 0);
    let negotiate_ns = per_call_ns(2_000 / div, |i| {
        black_box(negotiate(
            &cached,
            Topology::Flat,
            PlacementStrategy::MinFailureProbability,
            predictor,
            NegotiationRequest {
                size,
                // A fresh shape each call: the memo cannot answer it.
                duration: SimDuration::from_secs(1800 + i),
                now: SimTime::ZERO,
                down: &[],
                recovery_horizon: SimTime::ZERO,
                pre_start_risk: SimDuration::from_secs(120),
            },
            &UserStrategy::AlwaysEarliest,
            24,
            40,
        ));
    });
    rec.end(lane);
    layers.insert("negotiate.ns", negotiate_ns);

    let free: Vec<NodeId> = (0..width).map(NodeId::new).collect();
    let window = TimeWindow::new(mid, mid + duration);
    let lane = rec.begin("lane.place", span, 0);
    let choose_ns = per_call_ns(2_000 / div, |_| {
        black_box(choose_partition(
            Topology::Flat,
            black_box(&free),
            size,
            window,
            predictor,
            PlacementStrategy::MinFailureProbability,
        ));
    });
    rec.end(lane);
    layers.insert("place.choose_ns", choose_ns);

    let nodes = &free[..32.min(free.len())];
    let lane = rec.begin("lane.predict", span, 0);
    let query_ns = per_call_ns(50_000 / div, |_| {
        black_box(predictor.failure_probability(black_box(nodes), black_box(window)));
    });
    rec.end(lane);
    layers.insert("predict.query_ns", query_ns);

    let full = NodeMask::full(width);
    let mut acc = NodeMask::empty(width).words().to_vec();
    let lane = rec.begin("lane.mask", span, 0);
    let or_ns = per_call_ns(2_000_000 / div, |_| {
        NodeMask::or_words(black_box(&mut acc), black_box(full.words()));
    });
    let count_ns = per_call_ns(2_000_000 / div, |_| {
        black_box(NodeMask::count_ones_words(black_box(&acc)));
    });
    rec.end(lane);
    layers.insert("mask.or_ns", or_ns);
    layers.insert("mask.count_ns", count_ns);
    rec.end(span);
}

/// `journal`: `Telemetry::emit` into a JSONL file sink configured as the
/// daemon's.
pub fn journal_emit(
    path: &Path,
    div: u64,
    rec: &mut Recorder,
    layers: &mut Layers,
) -> io::Result<()> {
    let span = rec.begin("lane.journal.emit", None, 0);
    let telemetry = serve::journal_telemetry(path)?;
    let emit_ns = per_call_ns(200_000 / div, |i| {
        telemetry.emit(|| TelemetryEvent::JobSubmitted {
            at: SimTime::from_secs(i),
            job: i,
            size: 16,
            runtime_secs: 3600,
        });
    });
    telemetry.flush();
    rec.end(span);
    std::fs::remove_file(path)?;
    layers.insert("journal.emit_ns", emit_ns);
    Ok(())
}

/// `doctor`: the offline tools' throughput on the run's own journal.
pub fn doctor(journal: &str, rec: &mut Recorder, layers: &mut Layers) {
    let events = journal.lines().count() as f64;
    if events == 0.0 {
        return;
    }
    let span = rec.begin("lane.doctor.check", None, 0);
    let t = Instant::now();
    black_box(pqos_obs::Doctor::check_str(journal));
    let check_s = t.elapsed().as_secs_f64();
    rec.end(span);
    let span = rec.begin("lane.doctor.audit", None, 0);
    let t = Instant::now();
    black_box(pqos_obs::audit_str(journal));
    let audit_s = t.elapsed().as_secs_f64();
    rec.end(span);
    layers.insert("doctor.check_events_per_s", events / check_s);
    layers.insert("doctor.audit_events_per_s", events / audit_s);
}
