//! `pqos-loadgen`: drive a running `pqos-qosd` with synthetic load.
//!
//! ```text
//! pqos-loadgen --addr HOST:PORT [--threads N] [--requests N] [--depth N]
//!              [--model nasa|sdsc] [--seed N] [--accept-prob F]
//!              [--cancel-prob F] [--shutdown] [--record PATH]
//! ```
//!
//! The generator is a client: it prints one summary line (throughput,
//! quote latency percentiles, outcome counts, and the daemon's final
//! parity and promise counters). The daemon's own stage latencies are on
//! its `/metrics` endpoint.
//!
//! Exit status is nonzero when the daemon reports any batched-vs-serial
//! parity violation — the load generator doubles as the online parity
//! assertion.

use pqos_service::loadgen::{self, LoadgenConfig};
use pqos_workload::synthetic::LogModel;
use std::io::Write;
use std::process::ExitCode;

const USAGE: &str = "usage: pqos-loadgen --addr HOST:PORT [options]
  --threads N       client threads, one connection each (default 4)
  --requests N      total negotiate requests (default 20000)
  --depth N         pipelined requests per connection (default 1; raise
                    for throughput runs -- deep pipelines measure the
                    client's own queueing, not service latency)
  --model NAME      arrival model: nasa | sdsc (default nasa)
  --seed N          deterministic seed (default 13967365)
  --accept-prob F   probability a quote is accepted (default 0.7)
  --cancel-prob F   probability an accepted job is cancelled (default 0.1)
  --shutdown        send the shutdown verb when done
  --record PATH     capture every request/response this client sees as a
                    JSONL trace (client-side view; for replayable captures
                    record on the daemon with pqos-qosd --record)
";

fn die(msg: &str) -> ExitCode {
    eprintln!("pqos-loadgen: {msg}");
    eprint!("{USAGE}");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut config = LoadgenConfig::default();
    let mut addr: Option<String> = None;

    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .map(|v| v.to_string())
                .ok_or_else(|| format!("{name} needs a value"))
        };
        let result: Result<(), String> = match flag.as_str() {
            "--addr" => value("--addr").map(|v| addr = Some(v)),
            "--threads" => value("--threads").and_then(|v| {
                v.parse()
                    .map(|n| config.threads = n)
                    .map_err(|_| "--threads: not a count".into())
            }),
            "--requests" => value("--requests").and_then(|v| {
                v.parse()
                    .map(|n| config.requests = n)
                    .map_err(|_| "--requests: not a count".into())
            }),
            "--depth" => value("--depth").and_then(|v| {
                v.parse()
                    .map(|n| config.pipeline_depth = n)
                    .map_err(|_| "--depth: not a count".into())
            }),
            "--model" => value("--model").and_then(|v| match v.as_str() {
                "nasa" => {
                    config.model = LogModel::NasaIpsc;
                    Ok(())
                }
                "sdsc" => {
                    config.model = LogModel::SdscSp2;
                    Ok(())
                }
                other => Err(format!("--model: unknown model {other} (nasa|sdsc)")),
            }),
            "--seed" => value("--seed").and_then(|v| {
                v.parse()
                    .map(|n| config.seed = n)
                    .map_err(|_| "--seed: not a number".into())
            }),
            "--accept-prob" => value("--accept-prob").and_then(|v| {
                v.parse()
                    .ok()
                    .filter(|p: &f64| (0.0..=1.0).contains(p))
                    .map(|p| config.accept_probability = p)
                    .ok_or_else(|| "--accept-prob: need a probability".into())
            }),
            "--cancel-prob" => value("--cancel-prob").and_then(|v| {
                v.parse()
                    .ok()
                    .filter(|p: &f64| (0.0..=1.0).contains(p))
                    .map(|p| config.cancel_probability = p)
                    .ok_or_else(|| "--cancel-prob: need a probability".into())
            }),
            "--shutdown" => {
                config.shutdown = true;
                Ok(())
            }
            "--record" => value("--record").map(|v| config.record = Some(v)),
            "-h" | "--help" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => Err(format!("unknown flag: {other}")),
        };
        if let Err(msg) = result {
            return die(&msg);
        }
    }
    let Some(addr) = addr else {
        return die("--addr is required");
    };
    config.addr = addr;
    let report = match loadgen::run(&config) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("pqos-loadgen: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Downstream closing the pipe (`pqos-loadgen ... | head`) is a normal
    // way to consume the summary, not an error.
    match writeln!(std::io::stdout().lock(), "{}", report.render()) {
        Err(e) if e.kind() != std::io::ErrorKind::BrokenPipe => {
            eprintln!("pqos-loadgen: stdout: {e}");
            return ExitCode::FAILURE;
        }
        _ => {}
    }
    if report.parity_violations > 0 {
        eprintln!(
            "pqos-loadgen: PARITY VIOLATION: {} of {} batched quotes differ from serial negotiation",
            report.parity_violations, report.parity_checked
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
