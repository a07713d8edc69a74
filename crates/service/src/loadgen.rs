//! Closed-loop load generator for `pqos-qosd`.
//!
//! N client threads each open one connection and replay a synthetic
//! arrival stream (the same NASA iPSC/860 or SDSC SP2 models the trace
//! simulator uses), keeping a fixed number of requests in flight
//! (pipelining) so the engine's batching actually gets exercised. Each
//! quote is followed — with seeded probabilities — by an `accept` and
//! occasionally a `cancel`, so the daemon's whole verb surface sees load.
//!
//! `overloaded` and `timeout` replies are retried (they are the protocol's
//! backpressure, not failures); `rejected` and `quote_expired` are
//! terminal outcomes and counted. Per-quote latency is measured from the
//! last (re)send to the reply, collected exactly (no histogram buckets),
//! and reported as p50/p90/p99 along with sustained throughput on one
//! summary line. The generator is a client, not a benchmark: the daemon's
//! own numbers are on its `/metrics` endpoint and in its `status` reply,
//! and the repository's one performance harness is the ledger under
//! `benchmark/`.
//!
//! A server that goes away mid-run (EOF, reset, broken pipe) is a clean
//! disconnect: the worker keeps its partial counts and the run reports
//! what it measured.

use crate::protocol::{ErrorCode, Request, Response};
use crate::record::TraceRecorder;
use pqos_sim_core::rng::DetRng;
use pqos_telemetry::reqtrace::{TraceMeta, TRACE_FORMAT_VERSION};
use pqos_workload::synthetic::{LogModel, SyntheticLog};
use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// What to throw at the daemon.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Daemon address, e.g. `127.0.0.1:7464`.
    pub addr: String,
    /// Client threads, one connection each.
    pub threads: usize,
    /// Total negotiate requests across all threads.
    pub requests: u64,
    /// In-flight requests per connection. The default of 1 makes the
    /// default profile latency-representative: each thread waits for
    /// its reply before sending the next request, so the reported
    /// latency is the service's, not the client's own pipeline
    /// queueing (at depth `d` a closed loop self-inflicts roughly
    /// `threads * d / throughput` of waiting per request by Little's
    /// law, which at depth 16 dwarfs the sub-millisecond quote path).
    /// Raise `--depth` to measure saturated throughput instead.
    pub pipeline_depth: usize,
    /// Arrival model for job sizes and runtimes.
    pub model: LogModel,
    /// Seed for job streams and accept/cancel coin flips.
    pub seed: u64,
    /// Probability a quote is accepted.
    pub accept_probability: f64,
    /// Probability an accepted job is then cancelled.
    pub cancel_probability: f64,
    /// Send `shutdown` when done (and wait for the ok).
    pub shutdown: bool,
    /// How long to keep retrying the initial connect (the daemon may
    /// still be binding when the generator starts).
    pub connect_timeout: Duration,
    /// Record every request/response pair this client sees to a trace
    /// file (`--record`). Client-side traces carry `source: "loadgen"` —
    /// they document what the client observed (no engine epochs), so
    /// `pqos-replay` refuses them; record on the daemon for replayable
    /// captures.
    pub record: Option<String>,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            addr: String::from("127.0.0.1:7464"),
            threads: 4,
            requests: 20_000,
            pipeline_depth: 1,
            model: LogModel::NasaIpsc,
            seed: 0xD5_2005,
            accept_probability: 0.7,
            cancel_probability: 0.1,
            shutdown: false,
            connect_timeout: Duration::from_secs(10),
            record: None,
        }
    }
}

/// What one run measured.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadgenReport {
    /// Client threads used.
    pub threads: usize,
    /// Negotiate requests that reached a terminal outcome.
    pub requests: u64,
    /// Quotes received.
    pub quoted: u64,
    /// `rejected` outcomes.
    pub rejected: u64,
    /// Accepts acknowledged.
    pub accepted: u64,
    /// Accepts refused as `quote_expired`.
    pub expired: u64,
    /// Cancels acknowledged.
    pub cancelled: u64,
    /// `overloaded`/`timeout` replies retried.
    pub retried: u64,
    /// Replies that were neither success nor a recognized outcome.
    pub errors: u64,
    /// Wall-clock seconds over the request phase.
    pub elapsed_secs: f64,
    /// Terminal negotiate outcomes per wall second.
    pub throughput_rps: f64,
    /// Median quote latency, microseconds.
    pub p50_latency_us: u64,
    /// 90th percentile quote latency, microseconds.
    pub p90_latency_us: u64,
    /// 99th percentile quote latency, microseconds.
    pub p99_latency_us: u64,
    /// Engine-side parity re-checks (from the final `status`).
    pub parity_checked: u64,
    /// Engine-side parity disagreements; must be zero.
    pub parity_violations: u64,
    /// Parity re-check cadence the daemon ran with (1 = every batch).
    pub parity_sample: u64,
    /// Promises made (quotes accepted) per the final `status`.
    pub promises_made: u64,
    /// Promises kept (deadline met).
    pub promises_kept: u64,
    /// Promises broken (deadline missed).
    pub promises_broken: u64,
    /// Worst per-bucket calibration residual in milli-units (observed −
    /// quoted, ×1000; negative = overconfident).
    pub worst_residual_milli: i64,
}

impl LoadgenReport {
    /// The one-line human summary for the terminal.
    pub fn render(&self) -> String {
        format!(
            "{} requests in {:.2}s = {:.0} req/s | quote latency p50 {}us p90 {}us p99 {}us | \
             quoted {} rejected {} accepted {} expired {} cancelled {} retried {} | \
             parity {}/{} (1-in-{}) | promises made {} kept {} broken {} worst residual {:+.3}",
            self.requests,
            self.elapsed_secs,
            self.throughput_rps,
            self.p50_latency_us,
            self.p90_latency_us,
            self.p99_latency_us,
            self.quoted,
            self.rejected,
            self.accepted,
            self.expired,
            self.cancelled,
            self.retried,
            self.parity_checked - self.parity_violations,
            self.parity_checked,
            self.parity_sample,
            self.promises_made,
            self.promises_kept,
            self.promises_broken,
            self.worst_residual_milli as f64 / 1000.0,
        )
    }
}

#[derive(Debug, Default)]
struct WorkerStats {
    terminal: u64,
    quoted: u64,
    rejected: u64,
    accepted: u64,
    expired: u64,
    cancelled: u64,
    retried: u64,
    errors: u64,
    latencies_us: Vec<u64>,
}

/// Connects with retry until `deadline` allows no more attempts.
fn connect(addr: &str, timeout: Duration) -> std::io::Result<TcpStream> {
    let give_up = Instant::now() + timeout;
    loop {
        match TcpStream::connect(addr) {
            Ok(stream) => return Ok(stream),
            Err(e) if Instant::now() >= give_up => return Err(e),
            Err(_) => std::thread::sleep(Duration::from_millis(50)),
        }
    }
}

/// Sends one request and waits for its (matching) reply on a dedicated
/// control connection.
fn control_roundtrip(addr: &str, timeout: Duration, request: &Request) -> Option<Response> {
    let stream = connect(addr, timeout).ok()?;
    let mut writer = BufWriter::new(stream.try_clone().ok()?);
    writeln!(writer, "{}", request.encode()).ok()?;
    writer.flush().ok()?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    while reader.read_line(&mut line).ok()? > 0 {
        if let Some(response) = Response::parse(&line) {
            if response.id() == request.id() {
                return Some(response);
            }
        }
        line.clear();
    }
    None
}

/// Runs the full load: spawn workers, drive the request phase, then fetch
/// the daemon's final counters (and optionally shut it down).
///
/// # Errors
///
/// Fails only when the daemon is unreachable within
/// [`LoadgenConfig::connect_timeout`]; mid-run disconnects degrade to
/// partial counts instead.
pub fn run(config: &LoadgenConfig) -> std::io::Result<LoadgenReport> {
    let threads = config.threads.max(1);
    // One probe connection up front: fail fast if the daemon is absent,
    // and learn the cluster size so job sizes fit it.
    let status = control_roundtrip(
        &config.addr,
        config.connect_timeout,
        &Request::Status { id: 1 },
    );
    let cluster_size = match status {
        Some(Response::Status { body, .. }) => body.cluster_size,
        _ => {
            return Err(std::io::Error::new(
                std::io::ErrorKind::ConnectionRefused,
                format!("no pqos-qosd answering at {}", config.addr),
            ))
        }
    };
    // Client-side capture: one shared trace, each worker stamping its own
    // connection id. Epoch/tick are zero — the client cannot see engine
    // batching; this trace documents what the wire carried, not how the
    // engine grouped it.
    let trace = match &config.record {
        Some(path) => TraceRecorder::to_path(
            path,
            &TraceMeta {
                version: TRACE_FORMAT_VERSION,
                source: "loadgen".into(),
                cluster_size,
                time_scale: 0.0,
                batch_threads: 0,
                quote_horizon_secs: None,
                predictor: "unknown".into(),
                shards: 1,
                slo: Vec::new(),
                slo_window_secs: pqos_telemetry::slo::DEFAULT_WINDOW_SECS,
            },
        )?,
        None => TraceRecorder::disabled(),
    };
    let started = Instant::now();
    let stats: Vec<WorkerStats> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|tid| {
                let trace = trace.clone();
                let quota = worker_quota(config.requests, threads, tid);
                scope.spawn(move || worker(config, tid, quota, cluster_size, &trace))
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("worker thread"))
            .collect()
    });
    trace.flush();
    let elapsed = started.elapsed();

    let mut merged = WorkerStats::default();
    for s in stats {
        merged.terminal += s.terminal;
        merged.quoted += s.quoted;
        merged.rejected += s.rejected;
        merged.accepted += s.accepted;
        merged.expired += s.expired;
        merged.cancelled += s.cancelled;
        merged.retried += s.retried;
        merged.errors += s.errors;
        merged.latencies_us.extend(s.latencies_us);
    }
    merged.latencies_us.sort_unstable();
    let percentile = |q: f64| -> u64 {
        match merged.latencies_us.len() {
            0 => 0,
            n => merged.latencies_us[((n - 1) as f64 * q).round() as usize],
        }
    };

    let final_status = control_roundtrip(
        &config.addr,
        config.connect_timeout,
        &Request::Status { id: 2 },
    );
    let final_body = match final_status {
        Some(Response::Status { body, .. }) => Some(body),
        _ => None,
    };
    let (parity_checked, parity_violations) = final_body
        .as_ref()
        .map_or((0, 0), |b| (b.parity_checked, b.parity_violations));
    if config.shutdown {
        control_roundtrip(
            &config.addr,
            config.connect_timeout,
            &Request::Shutdown { id: 3 },
        );
    }

    let elapsed_secs = elapsed.as_secs_f64().max(1e-9);
    Ok(LoadgenReport {
        threads,
        requests: merged.terminal,
        quoted: merged.quoted,
        rejected: merged.rejected,
        accepted: merged.accepted,
        expired: merged.expired,
        cancelled: merged.cancelled,
        retried: merged.retried,
        errors: merged.errors,
        elapsed_secs,
        throughput_rps: merged.terminal as f64 / elapsed_secs,
        p50_latency_us: percentile(0.50),
        p90_latency_us: percentile(0.90),
        p99_latency_us: percentile(0.99),
        parity_checked,
        parity_violations,
        parity_sample: final_body.as_ref().map_or(1, |b| b.parity_sample),
        promises_made: final_body.as_ref().map_or(0, |b| b.promises_made),
        promises_kept: final_body.as_ref().map_or(0, |b| b.promises_kept),
        promises_broken: final_body.as_ref().map_or(0, |b| b.promises_broken),
        worst_residual_milli: final_body.as_ref().map_or(0, |b| b.worst_residual_milli),
    })
}

/// Worker `tid`'s share of `requests` split over `threads` workers: the
/// first `requests % threads` workers take one more, so the shares sum to
/// `requests` exactly.
fn worker_quota(requests: u64, threads: usize, tid: usize) -> u64 {
    let threads = threads as u64;
    requests / threads + u64::from((tid as u64) < requests % threads)
}

/// What we are waiting on for an in-flight request id.
struct Pending {
    request: Request,
    sent: Instant,
}

fn worker(
    config: &LoadgenConfig,
    tid: usize,
    quota: u64,
    cluster_size: u32,
    trace: &TraceRecorder,
) -> WorkerStats {
    let mut stats = WorkerStats::default();
    let Ok(stream) = connect(&config.addr, config.connect_timeout) else {
        return stats;
    };
    let Ok(write_half) = stream.try_clone() else {
        return stats;
    };
    let mut writer = BufWriter::new(write_half);
    let mut reader = BufReader::new(stream);
    let mut rng = DetRng::seed_from(config.seed).fork(&format!("loadgen-worker-{tid}"));
    let jobs = SyntheticLog::new(config.model)
        .jobs(quota as usize)
        .seed(config.seed ^ (tid as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .cluster_size(cluster_size)
        .build();
    let jobs = jobs.jobs();

    let depth = config.pipeline_depth.max(1);
    let mut outstanding: HashMap<u64, Pending> = HashMap::new();
    let mut followups: VecDeque<Request> = VecDeque::new();
    let mut next_job = 0usize;
    let mut next_id = 1u64;
    let mut line = String::new();

    while stats.terminal < quota || !outstanding.is_empty() || !followups.is_empty() {
        // Fill the pipeline: follow-ups first (they unblock engine state),
        // then fresh negotiates from the job stream.
        let mut wrote = false;
        while outstanding.len() < depth {
            let request = if let Some(f) = followups.pop_front() {
                f
            } else if next_job < jobs.len() {
                let job = &jobs[next_job];
                next_job += 1;
                let request = Request::Negotiate {
                    id: next_id,
                    size: job.nodes().max(1),
                    runtime_secs: job.runtime().as_secs().max(60),
                };
                next_id += 1;
                request
            } else {
                break;
            };
            if writeln!(writer, "{}", request.encode()).is_err() {
                return stats; // peer gone: clean disconnect, keep counts
            }
            outstanding.insert(
                request.id(),
                Pending {
                    request,
                    sent: Instant::now(),
                },
            );
            wrote = true;
        }
        if wrote && writer.flush().is_err() {
            return stats;
        }
        if outstanding.is_empty() {
            break;
        }

        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => return stats, // EOF/reset: clean disconnect
            Ok(_) => {}
        }
        let Some(response) = Response::parse(&line) else {
            stats.errors += 1;
            continue;
        };
        let Some(pending) = outstanding.remove(&response.id()) else {
            stats.errors += 1;
            continue;
        };
        if trace.is_enabled() {
            let job = match (&pending.request, &response) {
                (Request::Negotiate { .. }, Response::Quote { job, .. }) => Some(*job),
                _ => None,
            };
            trace.record(0, 0, tid as u64 + 1, &pending.request, &response, job);
        }
        let retry = |stats: &mut WorkerStats, followups: &mut VecDeque<Request>| {
            stats.retried += 1;
            followups.push_back(pending.request);
        };
        match (&pending.request, &response) {
            (Request::Negotiate { .. }, Response::Quote { job, .. }) => {
                stats.terminal += 1;
                stats.quoted += 1;
                stats
                    .latencies_us
                    .push(pending.sent.elapsed().as_micros() as u64);
                if rng.chance(config.accept_probability) {
                    followups.push_back(Request::Accept {
                        id: next_id,
                        job: *job,
                    });
                    next_id += 1;
                }
            }
            (Request::Negotiate { .. }, Response::Error { code, .. }) => match code {
                ErrorCode::Rejected => {
                    stats.terminal += 1;
                    stats.rejected += 1;
                }
                c if c.is_retryable() => retry(&mut stats, &mut followups),
                _ => {
                    stats.terminal += 1;
                    stats.errors += 1;
                }
            },
            (Request::Accept { job, .. }, Response::Ok { .. }) => {
                stats.accepted += 1;
                if rng.chance(config.cancel_probability) {
                    followups.push_back(Request::Cancel {
                        id: next_id,
                        job: *job,
                    });
                    next_id += 1;
                }
            }
            (Request::Accept { .. }, Response::Error { code, .. }) => match code {
                ErrorCode::QuoteExpired => stats.expired += 1,
                c if c.is_retryable() => retry(&mut stats, &mut followups),
                _ => stats.errors += 1,
            },
            (Request::Cancel { .. }, Response::Ok { .. }) => stats.cancelled += 1,
            (Request::Cancel { .. }, Response::Error { code, .. }) => {
                if code.is_retryable() {
                    retry(&mut stats, &mut followups);
                } else {
                    // Racing a cancel against the job's own start losing
                    // (`already_started`) is expected under time scaling.
                    stats.errors += u64::from(!matches!(code, ErrorCode::AlreadyStarted));
                }
            }
            _ => stats.errors += 1,
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::worker_quota;

    #[test]
    fn worker_quotas_sum_to_the_requested_total() {
        assert_eq!(
            (0..4).map(|t| worker_quota(10, 4, t)).collect::<Vec<_>>(),
            [3, 3, 2, 2]
        );
        for (requests, threads) in [(0, 3), (1, 3), (600, 3), (601, 3), (7, 1), (5, 8)] {
            let total: u64 = (0..threads)
                .map(|t| worker_quota(requests, threads, t))
                .sum();
            assert_eq!(total, requests, "{requests} over {threads}");
        }
    }
}
