//! `pqos-qosd`: the online QoS negotiation daemon.
//!
//! ```text
//! pqos-qosd [--addr HOST:PORT] [--metrics-addr HOST:PORT]
//!           [--cluster-size N] [--shards N] [--journal PATH]
//!           [--time-scale F] [--queue-depth N] [--batch-threads N]
//!           [--timeout-ms N] [--quote-horizon-secs N] [--parity-sample N]
//!           [--synthetic-failures] [--no-flight] [--flight-dump PATH]
//!           [--metrics-dump PATH] [--record PATH]
//!           [--slo RULE]... [--slo-window-secs N] [--history-window-ms N]
//! ```
//!
//! Binds, prints `listening on HOST:PORT` (port 0 in `--addr` picks a free
//! one — scrape the printed line), then serves the JSON-lines negotiation
//! protocol until a client sends `{"verb":"shutdown"}`. One thread reads,
//! ticks the engine and writes: each loop pass answers the requests it
//! read before it sleeps again. With `--journal`
//! every served lifecycle is written as a telemetry journal that
//! `pqos-doctor check` certifies clean.
//!
//! With `--shards N` the cluster is split into N contiguous node
//! partitions, each owned by its own engine shard (single-writer book,
//! predictor, journal); jobs wider than any shard go through the
//! two-phase cross-shard coordinator. Each shard journals to
//! `PATH.shardK` (the coordinator to `PATH.wide`) and the files are
//! merged into `PATH` when the daemon drains, so `pqos-doctor check`
//! and the promise audit read one clean journal either way.
//!
//! The observability plane rides along: `--metrics-addr` serves the
//! metrics registry in Prometheus text format (`metrics on HOST:PORT` is
//! printed the same way), request tracing into the flight recorder is on
//! by default (`--no-flight` to opt out), and `--flight-dump` /
//! `--metrics-dump` write the Chrome trace and the final metrics snapshot
//! when the daemon drains.
//!
//! The continuous SLO plane: `--slo NAME:METRIC{<,<=,>,>=}VALUE@NEED[/OVER]`
//! (repeatable) declares burn-rate rules the engine evaluates every tick
//! over fixed `--slo-window-secs` windows of *virtual* time. Fires and
//! resolves journal as `slo_alert` events (deterministic: replay
//! reproduces them byte-for-byte and `pqos-doctor slo` re-derives them),
//! and export live as `pqos_slo_*` gauges. Separately, a wall-clock
//! sampler folds the registry into a ring of `--history-window-ms`
//! windows served by the `history` verb and the `/history` route.

use pqos_service::engine::EngineConfig;
use pqos_service::replay::ReplayError;
use pqos_service::server::{
    serve_core, RecordConfig, ServerConfig, DEFAULT_FLIGHT_CAPACITY, DEFAULT_HISTORY_WINDOW_MS,
};
use pqos_service::tick::build_core;
use pqos_telemetry::reqtrace::TraceMeta;
use pqos_telemetry::Telemetry;
use std::io::Write;
use std::net::TcpListener;
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "usage: pqos-qosd [options]
  --addr HOST:PORT      bind address (default 127.0.0.1:0 = free port; scrape stdout)
  --cluster-size N      nodes in the served cluster (default 64)
  --shards N            engine shards, each owning cluster/N nodes
                        (default 1; shard K journals to PATH.shardK and
                        the files merge into PATH on drain)
  --journal PATH        write the telemetry journal (JSONL) here
  --time-scale F        virtual seconds per wall second (default 1.0)
  --queue-depth N       most requests one loop pass hands the engine; the
                        excess answers `overloaded` (default 1024)
  --batch-threads N     at most N workers quote a batch; batches under 16
                        requests a worker are quoted inline (default: cores)
  --timeout-ms N        per-request wait budget from line read to its tick;
                        past it the request answers `timeout` (default 5000).
                        A pass's ticks run back to back, so it bites only
                        when one pass needs several slow ticks
  --quote-horizon-secs N  reject quotes starting more than N virtual seconds
                        out; bounds the reservation backlog (default: none)
  --parity-sample N     re-check batched quotes against serial negotiation
                        on every Nth quote batch (default 16;
                        1 = every batch, as tests and CI use; replay
                        checks recorded responses instead)
  --synthetic-failures  predict from a synthetic AIX-like failure trace
                        instead of the null predictor
  --metrics-addr HOST:PORT  serve Prometheus /metrics here (port 0 = free
                        port; scrape the `metrics on HOST:PORT` line)
  --no-flight           disable request tracing and the flight recorder
                        (on by default, keeping the last 256 completed
                        request traces)
  --flight-dump PATH    write the flight recorder's Chrome trace here on
                        graceful shutdown
  --metrics-dump PATH   write the final metrics snapshot (JSON) here on
                        graceful shutdown
  --record PATH         record every answered request as a replayable
                        trace (JSONL) for `pqos-replay run`
  --slo RULE            declare a burn-rate SLO rule (repeatable); RULE is
                        NAME:METRIC{<,<=,>,>=}VALUE@NEED[/OVER], e.g.
                        tight:rejects<=0@1 or p99:reject_ratio<0.5@2/5.
                        Alerts journal as slo_alert events and export as
                        pqos_slo_* gauges
  --slo-window-secs N   SLO burn-window width in virtual seconds
                        (default 60)
  --history-window-ms N windowed health-history sample width in wall
                        milliseconds (default 1000; 0 disables the
                        history plane)
";

fn die(msg: &str) -> ExitCode {
    eprintln!("pqos-qosd: {msg}");
    eprint!("{USAGE}");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut addr = String::from("127.0.0.1:0");
    let mut cluster_size: u32 = 64;
    let mut shards: u32 = 1;
    let mut journal: Option<String> = None;
    // Serving default: sample the batched-vs-serial parity re-check
    // 1-in-16. EngineConfig::default() keeps 1 (exhaustive) so tests and
    // CI re-check every batch; `--parity-sample 1` restores that here.
    let mut engine = EngineConfig {
        parity_sample: 16,
        ..EngineConfig::default()
    };
    let mut synthetic_failures = false;
    let mut quote_horizon: Option<u64> = None;
    let mut metrics_addr: Option<String> = None;
    let mut flight_capacity: usize = DEFAULT_FLIGHT_CAPACITY;
    let mut flight_dump: Option<String> = None;
    let mut metrics_dump: Option<String> = None;
    let mut record: Option<String> = None;
    let mut slo_specs: Vec<String> = Vec::new();
    let mut slo_window_secs: u64 = pqos_telemetry::slo::DEFAULT_WINDOW_SECS;
    let mut history_window_ms: u64 = DEFAULT_HISTORY_WINDOW_MS;

    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .map(|v| v.to_string())
                .ok_or_else(|| format!("{name} needs a value"))
        };
        let result: Result<(), String> = match flag.as_str() {
            "--addr" => value("--addr").map(|v| addr = v),
            "--cluster-size" => value("--cluster-size").and_then(|v| {
                v.parse()
                    .map(|n| cluster_size = n)
                    .map_err(|_| "--cluster-size: not a node count".into())
            }),
            // A shard's job tables hold ids strided by the shard count
            // (see `JobIdHasher`): up to 64 shards they stay faster than
            // SipHash; at ~1,024 shards they are several times slower.
            "--shards" => value("--shards").and_then(|v| {
                v.parse()
                    .ok()
                    .filter(|n: &u32| *n > 0)
                    .map(|n| shards = n)
                    .ok_or_else(|| "--shards: need a positive count".into())
            }),
            "--journal" => value("--journal").map(|v| journal = Some(v)),
            "--time-scale" => value("--time-scale").and_then(|v| {
                v.parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .map(|s| engine.time_scale = s)
                    .ok_or_else(|| "--time-scale: need a positive number".into())
            }),
            "--queue-depth" => value("--queue-depth").and_then(|v| {
                v.parse()
                    .map(|n| engine.queue_depth = n)
                    .map_err(|_| "--queue-depth: not a count".into())
            }),
            "--batch-threads" => value("--batch-threads").and_then(|v| {
                v.parse()
                    .map(|n| engine.batch_threads = n)
                    .map_err(|_| "--batch-threads: not a count".into())
            }),
            "--timeout-ms" => value("--timeout-ms").and_then(|v| {
                v.parse()
                    .map(|ms| engine.request_timeout = Duration::from_millis(ms))
                    .map_err(|_| "--timeout-ms: not a duration".into())
            }),
            "--quote-horizon-secs" => value("--quote-horizon-secs").and_then(|v| {
                v.parse()
                    .map(|n| quote_horizon = Some(n))
                    .map_err(|_| "--quote-horizon-secs: not a duration".into())
            }),
            "--metrics-addr" => value("--metrics-addr").map(|v| metrics_addr = Some(v)),
            "--no-flight" => {
                flight_capacity = 0;
                Ok(())
            }
            "--flight-dump" => value("--flight-dump").map(|v| flight_dump = Some(v)),
            "--metrics-dump" => value("--metrics-dump").map(|v| metrics_dump = Some(v)),
            "--record" => value("--record").map(|v| record = Some(v)),
            "--slo" => value("--slo").and_then(|v| {
                pqos_telemetry::slo::parse_rule(&v)
                    .map(|_| slo_specs.push(v))
                    .map_err(|e| format!("--slo: {e}"))
            }),
            "--slo-window-secs" => value("--slo-window-secs").and_then(|v| {
                v.parse()
                    .ok()
                    .filter(|n: &u64| *n > 0)
                    .map(|n| slo_window_secs = n)
                    .ok_or_else(|| "--slo-window-secs: need a positive duration".into())
            }),
            "--history-window-ms" => value("--history-window-ms").and_then(|v| {
                v.parse()
                    .map(|n| history_window_ms = n)
                    .map_err(|_| "--history-window-ms: not a duration".into())
            }),
            "--parity-sample" => value("--parity-sample").and_then(|v| {
                v.parse()
                    .ok()
                    .filter(|n: &u64| *n > 0)
                    .map(|n| engine.parity_sample = n)
                    .ok_or_else(|| "--parity-sample: need a positive count".into())
            }),
            "--synthetic-failures" => {
                synthetic_failures = true;
                Ok(())
            }
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
    if cluster_size == 0 {
        return die("--cluster-size: need at least one node");
    }
    if shards > cluster_size {
        return die("--shards: cannot exceed --cluster-size");
    }

    // The header `--record` writes is also the recipe the core is built
    // from, so a replay of the recording reconstructs this very daemon.
    let meta = TraceMeta {
        time_scale: engine.time_scale,
        batch_threads: engine.batch_threads as u64,
        quote_horizon_secs: quote_horizon,
        predictor: if synthetic_failures {
            "synthetic-aix".into()
        } else {
            "null".into()
        },
        shards: u64::from(shards),
        slo: slo_specs,
        slo_window_secs,
        ..TraceMeta::qosd(cluster_size)
    };
    // One journal file per plane: PATH itself for one shard, else
    // PATH.shardK and PATH.wide, merged into PATH on drain. Telemetry is
    // always enabled — the /metrics endpoint and the stage histograms
    // need a live registry even when no journal is written; without a
    // journal or SLO rules there are no event sinks, so emits stay cheap.
    let mut parts: Vec<String> = Vec::new();
    let built = build_core(
        &meta,
        // The live parity re-check is always on (every `--parity-sample`th
        // batch); only replay, which compares recorded answers, turns it off.
        true,
        Telemetry::builder().build(),
        |suffix, mut builder| {
            if let Some(path) = &journal {
                let part = format!("{path}{suffix}");
                builder = builder
                    .flush_every(1024)
                    .jsonl_path(&part)
                    .map_err(|e| format!("cannot open journal {part}: {e}"))?;
                parts.push(part);
            }
            let telemetry = builder.build();
            // Flush the journal before unwinding on any panic: an incident
            // capture that stops mid-event cannot be replayed or trusted.
            pqos_telemetry::panichook::flush_on_panic(&telemetry);
            Ok(telemetry)
        },
    );
    let core = match built {
        Ok(core) => core,
        Err(e) => {
            let detail = match e {
                ReplayError::Unsupported(detail) => detail,
                other => other.to_string(),
            };
            eprintln!("pqos-qosd: {detail}");
            return ExitCode::from(2);
        }
    };
    // Even a panicking daemon leaves the merged journal behind: the
    // per-plane flush hooks above run first, then this stitches the
    // flushed shard files together.
    let merge = journal.filter(|_| shards > 1).map(|path| (path, parts));
    if let Some((path, parts)) = merge.clone() {
        pqos_telemetry::panichook::on_panic(move || {
            let _ = merge_journal_files(&path, &parts);
        });
    }

    let listener = match TcpListener::bind(&addr) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("pqos-qosd: cannot bind {addr}: {e}");
            return ExitCode::from(2);
        }
    };
    let bound = match listener.local_addr() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pqos-qosd: {e}");
            return ExitCode::from(2);
        }
    };
    let metrics = match &metrics_addr {
        None => None,
        Some(addr) => match TcpListener::bind(addr) {
            Ok(l) => Some(l),
            Err(e) => {
                eprintln!("pqos-qosd: cannot bind metrics {addr}: {e}");
                return ExitCode::from(2);
            }
        },
    };
    // A closed stdout (spawner went away after scraping the port) must not
    // kill the daemon; only report write errors that are not broken pipes.
    let mut banner = format!("listening on {bound}\n");
    if let Some(l) = &metrics {
        if let Ok(a) = l.local_addr() {
            banner.push_str(&format!("metrics on {a}\n"));
        }
    }
    if let Err(e) =
        write!(std::io::stdout().lock(), "{banner}").and_then(|()| std::io::stdout().lock().flush())
    {
        if e.kind() != std::io::ErrorKind::BrokenPipe {
            eprintln!("pqos-qosd: stdout: {e}");
        }
    }
    let record = record.map(|path| RecordConfig {
        path: path.into(),
        meta,
    });
    let config = ServerConfig {
        engine,
        metrics,
        flight_capacity,
        flight_dump: flight_dump.map(Into::into),
        metrics_dump: metrics_dump.map(Into::into),
        record,
        history_window_ms,
    };
    let served = serve_core(listener, core, config);
    if let Some((path, parts)) = &merge {
        if let Err(e) = merge_journal_files(path, parts) {
            eprintln!("pqos-qosd: cannot merge shard journals into {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    match served {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("pqos-qosd: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Stitches the per-shard journals into one doctor-clean stream at
/// `path`. Missing part files are skipped (a shard that never journaled
/// an event writes nothing).
fn merge_journal_files(path: &str, parts: &[String]) -> std::io::Result<()> {
    let mut texts = Vec::new();
    for part in parts {
        match std::fs::read_to_string(part) {
            Ok(text) => texts.push(text),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
    }
    let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
    std::fs::write(path, pqos_telemetry::merge::merge_journals_to_string(&refs))
}
