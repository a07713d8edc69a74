//! The served workloads: an in-process daemon (`serve_core` on a
//! loopback listener, configured as `pqos-qosd` runs by default) and the
//! benchmark's own closed-loop driver built on `protocol::{Request,
//! Response}`. `pqos_service::loadgen` is not reused: it times only
//! quoted negotiates and cannot hold a mix.

use crate::gate::{judge, Expect, Gate};
use crate::gen::{self, Booking};
use crate::spans::{Recorder, Span};
use crate::stats;
use pqos_core::config::SimConfig;
use pqos_core::session::NegotiationSession;
use pqos_failures::synthetic::AixLikeTrace;
use pqos_predict::api::{NullPredictor, Predictor};
use pqos_predict::oracle::TraceOracle;
use pqos_service::engine::EngineConfig;
use pqos_service::protocol::{Request, Response, StatusBody};
use pqos_service::server::{serve_core, ServerConfig};
use pqos_service::shard::ShardedCore;
use pqos_sim_core::time::SimDuration;
use pqos_telemetry::Telemetry;
use pqos_workload::job::JobId;
use std::collections::{HashMap, VecDeque};
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

pub type Pred = Box<dyn Predictor + Send + Sync>;

/// The two served mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// Saturated book, memo hot, ≈ 90 % `rejected`: sockets, framing,
    /// JSON, queue, batching and journal do the work.
    Reject,
    /// Deep book, every dialog mutates it: session, negotiate, cache,
    /// book and predictor do the work.
    Admit,
}

impl Mix {
    /// Requests the mix's one connection keeps in flight. One connection
    /// and one generator thread, both mixes: the run is confined to one
    /// CPU (`sys::pin_to_one_cpu`), where a second generator would add
    /// context switches and no load. A constant of the benchmark — never
    /// derived from the machine.
    pub fn depth(self) -> usize {
        match self {
            Mix::Reject => 16,
            Mix::Admit => 1,
        }
    }

    /// What one measured round asks of a fresh daemon: negotiates (reject)
    /// or dialogs (admit). A constant, so every round of every run on
    /// either commit does the same work; about a second on the sandbox
    /// the benchmark was written on.
    pub fn round_units(self) -> u64 {
        match self {
            Mix::Reject => 20_000,
            Mix::Admit => 1_500,
        }
    }
}

/// Fan-out width of batched quoting: pinned, where `pqos-qosd` would ask
/// the machine.
pub const BATCH_THREADS: usize = 2;
/// Accuracy of the admit mix's trace oracle (`--synthetic-failures`).
const ORACLE_ACCURACY: f64 = 0.9;
/// Job ids of preloaded reservations sit far above any the engine hands out.
const PRELOAD_JOB_BASE: u64 = 1 << 40;

/// The predictor a mix quotes against.
pub fn predictor(mix: Mix) -> Pred {
    match mix {
        Mix::Reject => Box::new(NullPredictor),
        Mix::Admit => {
            let trace = Arc::new(
                AixLikeTrace::new()
                    .days(365.0)
                    .seed(gen::LAYOUT_SEED)
                    .nodes(gen::SERVED_NODES)
                    .build(),
            );
            Box::new(TraceOracle::new(trace, ORACLE_ACCURACY).expect("accuracy in range"))
        }
    }
}

/// The mix's preloaded reservations.
pub fn bookings(mix: Mix, admit_depth: usize) -> Vec<Booking> {
    match mix {
        Mix::Reject => gen::reject_book(),
        Mix::Admit => gen::admit_book(admit_depth),
    }
}

/// A session over the mix's preloaded book, journaling into `telemetry`.
/// Preloading goes through `reserve_slice`: straight into the book, no
/// negotiation, no journal lines, no lifecycle timers.
pub fn session(mix: Mix, book: &[Booking], telemetry: Telemetry) -> NegotiationSession<Pred> {
    let config = SimConfig::paper_defaults().cluster_size_nodes(gen::SERVED_NODES);
    let mut session =
        NegotiationSession::new(config, predictor(mix), telemetry).verify_parity(true);
    for (k, b) in book.iter().enumerate() {
        session
            .reserve_slice(
                JobId::new(PRELOAD_JOB_BASE + k as u64),
                b.partition(),
                b.window(),
            )
            .expect("generated bookings never conflict");
    }
    session
}

/// The admission core the daemon serves: one shard, the reject mix under
/// its quote horizon.
pub fn core(mix: Mix, book: &[Booking], telemetry: Telemetry) -> ShardedCore<Pred> {
    let core = ShardedCore::single(session(mix, book, telemetry));
    match mix {
        Mix::Reject => core.quote_horizon(SimDuration::from_secs(gen::REJECT_HORIZON_SECS)),
        Mix::Admit => core,
    }
}

/// Engine tuning as `pqos-qosd` defaults it, with the fan-out pinned.
pub fn engine_config() -> EngineConfig {
    EngineConfig {
        queue_depth: 1024,
        batch_threads: BATCH_THREADS,
        time_scale: 1.0,
        parity_sample: 16,
        ..EngineConfig::default()
    }
}

/// A journaling telemetry handle as `pqos-qosd --journal` builds it.
pub fn journal_telemetry(path: &Path) -> io::Result<Telemetry> {
    Ok(Telemetry::builder()
        .flush_every(1024)
        .jsonl_path(path)?
        .build())
}

/// A daemon hosted in this process, exactly as `sweep.rs` hosts one.
pub struct Daemon {
    pub addr: SocketAddr,
    /// A clone of the handle the session journals through: the registry,
    /// event counts and sink health stay readable after the drain.
    pub telemetry: Telemetry,
    pub journal: PathBuf,
    join: JoinHandle<io::Result<()>>,
}

impl Daemon {
    pub fn start(mix: Mix, book: &[Booking], journal: PathBuf) -> io::Result<Daemon> {
        let telemetry = journal_telemetry(&journal)?;
        let core = core(mix, book, telemetry.clone());
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        // Flight recorder 256 and a 1-s history window are ServerConfig's
        // defaults, as they are the daemon's.
        let config = ServerConfig::from(engine_config());
        let join = std::thread::Builder::new()
            .name("bench-daemon".into())
            .spawn(move || serve_core(listener, core, config))?;
        Ok(Daemon {
            addr,
            telemetry,
            journal,
            join,
        })
    }

    /// Asks for a final `status`, sends `shutdown`, and waits for the
    /// drain (journal flushed, loop gone).
    pub fn stop(self) -> io::Result<StatusBody> {
        let mut control = Client::connect(self.addr)?;
        let status = match control.call(&Request::Status { id: 1 })? {
            Some(Response::Status { body, .. }) => body,
            other => return Err(io::Error::other(format!("status answered {other:?}"))),
        };
        match control.call(&Request::Shutdown { id: 2 })? {
            Some(Response::Ok { .. }) => {}
            other => return Err(io::Error::other(format!("shutdown answered {other:?}"))),
        }
        self.join
            .join()
            .map_err(|_| io::Error::other("daemon thread panicked"))??;
        Ok(status)
    }
}

/// One blocking protocol connection.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: String,
    /// Bytes written and read, for `net.bytes_per_request`.
    pub bytes: u64,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        // A reply that never comes must fail the run, not hang it.
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            line: String::new(),
            bytes: 0,
        })
    }

    pub fn send(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.bytes += bytes.len() as u64;
        self.writer.write_all(bytes)
    }

    /// The next reply line, parsed; `None` when it is not a response.
    pub fn recv(&mut self) -> io::Result<Option<Response>> {
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        self.bytes += self.line.len() as u64;
        Ok(Response::parse(&self.line))
    }

    pub fn call(&mut self, request: &Request) -> io::Result<Option<Response>> {
        self.send((request.encode() + "\n").as_bytes())?;
        self.recv()
    }
}

/// Protocol verbs the drivers time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verb {
    Negotiate,
    Accept,
    Cancel,
}

impl Verb {
    fn span_name(self) -> &'static str {
        match self {
            Verb::Negotiate => "client.negotiate",
            Verb::Accept => "client.accept",
            Verb::Cancel => "client.cancel",
        }
    }
}

/// How one phase is run.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Units of work to issue: negotiates (reject; the cancels its quotes
    /// entail follow), dialogs (admit). Constant work, never constant time.
    pub units: u64,
    /// Zero of the span timestamps.
    pub origin: Instant,
    pub traced: bool,
}

/// What the connection did in one phase.
#[derive(Debug, Default)]
pub struct Phase {
    pub replies: u64,
    /// Round trip of every `negotiate`, quoted or rejected, µs.
    pub negotiate_us: Vec<f64>,
    pub gate: Gate,
    pub spans: Vec<Span>,
    pub quoted: u64,
    pub rejected: u64,
    pub dialogs: u64,
    /// The request and reply lines of the first few operations, for the
    /// protocol and net lanes.
    pub lines: Vec<(String, String)>,
}

const KEPT_LINES: usize = 512;

/// One answered request, as a driver hands it to its [`Tally`].
struct Answered<'a> {
    request: &'a Request,
    reply: Option<&'a Response>,
    /// The raw reply line.
    line: &'a str,
    expect: Expect,
    sent: Instant,
    done: Instant,
    /// The dialog span this round trip belongs to, and its id.
    parent: Option<usize>,
    op: u64,
}

/// What a driver accumulates over one phase: the gate, the latencies,
/// the spans, the counters.
struct Tally {
    plan: Plan,
    rec: Recorder,
    phase: Phase,
    /// Units of work issued so far.
    issued: u64,
}

impl Tally {
    fn new(plan: Plan) -> Self {
        Tally {
            plan,
            rec: Recorder::new(plan.origin, 0, plan.traced),
            phase: Phase::default(),
            issued: 0,
        }
    }

    fn stop_reached(&self) -> bool {
        self.issued >= self.plan.units
    }

    /// Judges one reply and records its round trip.
    fn answered(&mut self, a: Answered<'_>) {
        let verdict = judge(a.request, a.reply, a.expect);
        self.phase
            .gate
            .check(verdict.is_ok(), || verdict.unwrap_err());
        if self.phase.lines.len() < KEPT_LINES {
            self.phase
                .lines
                .push((a.request.encode(), a.line.trim_end().to_string()));
        }
        let verb = match a.request {
            Request::Accept { .. } => Verb::Accept,
            Request::Cancel { .. } => Verb::Cancel,
            _ => Verb::Negotiate,
        };
        self.rec
            .push(verb.span_name(), a.sent, a.done, a.parent, a.op);
        self.phase.replies += 1;
        if verb == Verb::Negotiate {
            let lat = a.done.saturating_duration_since(a.sent);
            self.phase.negotiate_us.push(lat.as_nanos() as f64 / 1e3);
        }
    }

    fn finish(mut self) -> Phase {
        self.phase.spans = self.rec.into_spans();
        self.phase
    }
}

/// The reject mix's connection: a sliding window of `depth` requests,
/// negotiates drawn from the catalogue, every quote walked away from
/// with a `cancel`.
pub struct RejectDriver {
    client: Client,
    stream: gen::RejectStream,
    next_id: u64,
    pending_cancels: VecDeque<u64>,
}

impl RejectDriver {
    pub fn connect(addr: SocketAddr, seed: u64) -> io::Result<Self> {
        Ok(RejectDriver {
            client: Client::connect(addr)?,
            stream: gen::RejectStream::new(seed),
            next_id: 0,
            pending_cancels: VecDeque::new(),
        })
    }

    pub fn bytes(&self) -> u64 {
        self.client.bytes
    }

    pub fn run(&mut self, plan: Plan) -> io::Result<Phase> {
        let depth = Mix::Reject.depth();
        let mut tally = Tally::new(plan);
        let mut inflight: HashMap<u64, (Request, Instant)> = HashMap::with_capacity(depth * 2);
        let mut out = Vec::with_capacity(4096);
        loop {
            out.clear();
            while inflight.len() < depth {
                // Cancels of quotes already given go out even past the
                // stop, so the session holds no quote when the phase ends.
                let request = if let Some(job) = self.pending_cancels.pop_front() {
                    self.next_id += 1;
                    Request::Cancel {
                        id: self.next_id,
                        job,
                    }
                } else if !tally.stop_reached() {
                    let (size, runtime_secs) = self.stream.next_shape();
                    self.next_id += 1;
                    tally.issued += 1;
                    Request::Negotiate {
                        id: self.next_id,
                        size,
                        runtime_secs,
                    }
                } else {
                    break;
                };
                out.extend_from_slice(request.encode().as_bytes());
                out.push(b'\n');
                inflight.insert(request.id(), (request, Instant::now()));
            }
            if !out.is_empty() {
                self.client.send(&out)?;
            }
            if inflight.is_empty() {
                break;
            }
            let reply = self.client.recv()?;
            let done = Instant::now();
            let Some((request, sent)) = reply.as_ref().and_then(|r| inflight.remove(&r.id()))
            else {
                // Without an id the window cannot be repaired.
                return Err(io::Error::other(format!(
                    "reply matches no request in flight: {:?}",
                    self.client.line
                )));
            };
            let negotiate = matches!(request, Request::Negotiate { .. });
            tally.answered(Answered {
                request: &request,
                reply: reply.as_ref(),
                line: &self.client.line,
                expect: if negotiate {
                    Expect::QuoteOrRejected
                } else {
                    Expect::Ok
                },
                sent,
                done,
                parent: None,
                op: request.id(),
            });
            if negotiate {
                match reply {
                    Some(Response::Quote { job, .. }) => {
                        tally.phase.quoted += 1;
                        self.pending_cancels.push_back(job);
                    }
                    _ => tally.phase.rejected += 1,
                }
            }
        }
        Ok(tally.finish())
    }
}

/// The admit mix's connection: one dialog at a time — `negotiate`,
/// `accept`, then `cancel` of the job accepted [`gen::ADMIT_CANCEL_LAG`]
/// dialogs earlier.
pub struct AdmitDriver {
    client: Client,
    stream: gen::AdmitStream,
    next_id: u64,
    live: VecDeque<u64>,
}

impl AdmitDriver {
    pub fn connect(addr: SocketAddr, seed: u64) -> io::Result<Self> {
        Ok(AdmitDriver {
            client: Client::connect(addr)?,
            stream: gen::AdmitStream::new(seed),
            next_id: 0,
            live: VecDeque::new(),
        })
    }

    pub fn bytes(&self) -> u64 {
        self.client.bytes
    }

    /// Jobs accepted and not yet cancelled.
    pub fn live(&self) -> usize {
        self.live.len()
    }

    /// One blocking round trip of the current dialog.
    fn exchange(
        &mut self,
        tally: &mut Tally,
        request: Request,
        expect: Expect,
        dialog: (Option<usize>, u64),
    ) -> io::Result<Option<Response>> {
        let sent = Instant::now();
        let reply = self.client.call(&request)?;
        tally.answered(Answered {
            request: &request,
            reply: reply.as_ref(),
            line: &self.client.line,
            expect,
            sent,
            done: Instant::now(),
            parent: dialog.0,
            op: dialog.1,
        });
        Ok(reply)
    }

    pub fn run(&mut self, plan: Plan) -> io::Result<Phase> {
        let mut tally = Tally::new(plan);
        while !tally.stop_reached() {
            tally.issued += 1;
            // Dialogs are numbered by the request id they start at.
            let op = self.next_id + 1;
            let span = tally.rec.begin("client.dialog", None, op);
            let (size, runtime_secs) = self.stream.next_shape();
            let id = self.bump();
            let reply = self.exchange(
                &mut tally,
                Request::Negotiate {
                    id,
                    size,
                    runtime_secs,
                },
                Expect::Quote,
                (span, op),
            )?;
            if let Some(Response::Quote { job, .. }) = reply {
                tally.phase.quoted += 1;
                let id = self.bump();
                let accepted = self.exchange(
                    &mut tally,
                    Request::Accept { id, job },
                    Expect::Ok,
                    (span, op),
                )?;
                if matches!(accepted, Some(Response::Ok { .. })) {
                    self.live.push_back(job);
                }
            } else {
                tally.phase.rejected += 1;
            }
            if self.live.len() > gen::ADMIT_CANCEL_LAG {
                let job = self.live.pop_front().expect("checked non-empty");
                let id = self.bump();
                self.exchange(
                    &mut tally,
                    Request::Cancel { id, job },
                    Expect::Ok,
                    (span, op),
                )?;
            }
            tally.rec.end(span);
            tally.phase.dialogs += 1;
        }
        Ok(tally.finish())
    }

    fn bump(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }
}

/// The mix's connection and the script that drives it.
pub enum Drivers {
    Reject(Box<RejectDriver>),
    Admit(Box<AdmitDriver>),
}

impl Drivers {
    pub fn connect(mix: Mix, addr: SocketAddr, seed: u64) -> io::Result<Drivers> {
        Ok(match mix {
            Mix::Reject => Drivers::Reject(Box::new(RejectDriver::connect(addr, seed)?)),
            Mix::Admit => Drivers::Admit(Box::new(AdmitDriver::connect(addr, seed)?)),
        })
    }

    pub fn bytes(&self) -> u64 {
        match self {
            Drivers::Reject(d) => d.bytes(),
            Drivers::Admit(d) => d.bytes(),
        }
    }

    /// Jobs accepted and not yet cancelled (always 0 for the reject mix).
    pub fn live(&self) -> usize {
        match self {
            Drivers::Reject(_) => 0,
            Drivers::Admit(d) => d.live(),
        }
    }

    /// Runs one phase on the calling thread.
    pub fn run(&mut self, plan: Plan) -> io::Result<Phase> {
        match self {
            Drivers::Reject(d) => d.run(plan),
            Drivers::Admit(d) => d.run(plan),
        }
    }
}

/// The end-to-end numbers of one measured round.
#[derive(Debug, Clone, Copy, Default)]
pub struct RoundNumbers {
    /// Requests answered per wall second.
    pub ops_per_s: f64,
    /// Negotiate round trip: the round's median …
    pub p50_us: f64,
    /// … and its 99th percentile.
    pub p99_us: f64,
    /// Process CPU µs (daemon and generator) per request answered.
    pub cpu_us_per_op: f64,
    pub replies: u64,
    pub negotiates: u64,
}

/// Folds a phase that took `wall_s` wall and `cpu_s` CPU seconds.
pub fn numbers(phase: &Phase, wall_s: f64, cpu_s: f64) -> RoundNumbers {
    let mut lat = phase.negotiate_us.clone();
    let lat = stats::sorted(&mut lat);
    let replies = phase.replies.max(1) as f64;
    RoundNumbers {
        ops_per_s: replies / wall_s,
        p50_us: stats::percentile(lat, 0.5),
        p99_us: stats::percentile(lat, 0.99),
        cpu_us_per_op: cpu_s * 1e6 / replies,
        replies: phase.replies,
        negotiates: lat.len() as u64,
    }
}

/// Round-trip p50 / p99 of one verb over a traced phase's spans, in µs.
pub fn span_percentiles(spans: &[Span], verb: Verb) -> (f64, f64) {
    let mut lat: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == verb.span_name())
        .map(|s| s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3)
        .collect();
    let lat = stats::sorted(&mut lat);
    (stats::percentile(lat, 0.5), stats::percentile(lat, 0.99))
}

/// What a drained daemon leaves for the gate.
#[derive(Clone, Copy)]
pub struct Evidence<'a> {
    pub status: &'a StatusBody,
    /// The handle the session journaled through.
    pub telemetry: &'a Telemetry,
    pub journal: &'a Path,
    /// Counters over every phase the daemon served.
    pub totals: &'a Phase,
    /// Jobs accepted and not cancelled when the clients stopped.
    pub live_at_end: usize,
    /// Reservations preloaded.
    pub book_len: usize,
}

/// The served workloads' final checks, made after the drain: the journal
/// passes the doctor, the sinks are clean, parity held, nothing was shed,
/// and the daemon's counters are exactly what the script implies.
pub fn final_checks(mix: Mix, gate: &mut Gate, drained: &Evidence<'_>) -> io::Result<()> {
    let Evidence {
        status,
        telemetry: daemon_telemetry,
        journal,
        totals,
        live_at_end,
        book_len,
    } = *drained;
    let report = pqos_obs::Doctor::check_reader(BufReader::new(std::fs::File::open(journal)?))?;
    gate.check(report.errors() == 0, || {
        format!("doctor: {} error(s) in the served journal", report.errors())
    });
    let health = daemon_telemetry.sink_health();
    gate.check(health.write_errors == 0 && health.ring_dropped == 0, || {
        format!("sink health not clean: {health:?}")
    });
    gate.check(
        status.journal_write_errors == 0 && status.journal_ring_dropped == 0,
        || "status reports journal loss".into(),
    );
    gate.check(status.parity_violations == 0, || {
        format!("{} parity violation(s)", status.parity_violations)
    });
    gate.check(status.parity_checked > 0, || {
        "no quote batch was parity-checked".into()
    });
    gate.check(status.overloaded == 0, || {
        format!("{} request(s) shed as overloaded", status.overloaded)
    });
    gate.check(status.expired == 0, || {
        format!("{} accept(s) expired", status.expired)
    });
    gate.check(status.started == 0 && status.completed == 0, || {
        "a job started inside the run: outcomes depended on the clock".into()
    });
    gate.check(
        status.quoted == totals.quoted && status.rejected == totals.rejected,
        || {
            format!(
                "daemon counted {} quoted / {} rejected, the clients {} / {}",
                status.quoted, status.rejected, totals.quoted, totals.rejected
            )
        },
    );
    let counts: HashMap<&str, u64> = daemon_telemetry.event_counts().into_iter().collect();
    let count = |kind: &str| counts.get(kind).copied().unwrap_or(0);
    let negotiates = totals.quoted + totals.rejected;
    gate.check(count("job_submitted") == negotiates, || {
        format!(
            "{} job_submitted events for {negotiates} negotiates",
            count("job_submitted")
        )
    });
    gate.check(count("job_rejected") == totals.rejected, || {
        "job_rejected events disagree with rejected replies".into()
    });
    match mix {
        Mix::Reject => {
            let share = totals.rejected as f64 / negotiates.max(1) as f64;
            gate.check((0.85..=0.95).contains(&share), || {
                format!("rejected share {share:.3} outside [0.85, 0.95]")
            });
            gate.check(
                status.accepted == 0 && status.cancelled == totals.quoted,
                || "a quote was left held or got accepted".into(),
            );
            gate.check(status.reservations as usize == book_len, || {
                "the saturated book mutated".into()
            });
        }
        Mix::Admit => {
            let accepted = totals.quoted;
            let cancelled = accepted - live_at_end as u64;
            gate.check(totals.rejected == 0, || {
                format!("{} dialog(s) rejected", totals.rejected)
            });
            gate.check(
                status.accepted == accepted && status.cancelled == cancelled,
                || {
                    format!(
                        "daemon counted {} accepted / {} cancelled, the script implies \
                         {accepted} / {cancelled}",
                        status.accepted, status.cancelled
                    )
                },
            );
            gate.check(
                count("quote_negotiated") == accepted && count("job_placed") == accepted,
                || "quote_negotiated / job_placed events disagree with accepts".into(),
            );
            gate.check(
                count("job_cancelled") == cancelled && count("promise_resolved") == cancelled,
                || "job_cancelled / promise_resolved events disagree with cancels".into(),
            );
            gate.check(
                status.reservations as usize == book_len + live_at_end,
                || {
                    format!(
                        "book depth {} is not preload {book_len} + live {live_at_end}",
                        status.reservations
                    )
                },
            );
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_round_folds_into_rates_and_percentiles() {
        let phase = Phase {
            replies: 300,
            negotiate_us: (1..=100).rev().map(f64::from).collect(),
            ..Phase::default()
        };
        let n = numbers(&phase, 0.5, 0.25);
        assert_eq!(n.ops_per_s, 600.0);
        assert_eq!(n.p50_us, 50.0);
        assert_eq!(n.p99_us, 99.0);
        assert!((n.cpu_us_per_op - 833.333).abs() < 0.001);
        assert_eq!((n.replies, n.negotiates), (300, 100));
    }
}
