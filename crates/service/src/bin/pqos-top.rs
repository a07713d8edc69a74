//! `pqos-top`: one-screen live status for a running `pqos-qosd`.
//!
//! ```text
//! pqos-top --metrics HOST:PORT [--interval-ms N] [--once] [--no-history]
//! ```
//!
//! Polls the daemon's `/metrics` endpoint and renders the scrape as a
//! terminal dashboard: request rates per verb (from counter deltas
//! between polls), per-verb p50/p99 latency (interpolated from the
//! exported histogram buckets), engine queue depth, live jobs, session
//! counters, the promise-calibration ledger (`pqos_promise_*`), and the
//! overload rate. Against a daemon running `--shards N` a per-shard
//! table (live jobs, quoted, occupied nodes, reservations, routed) is
//! appended from the `shard="k"`-labeled gauge families. `--once`
//! prints a single snapshot without clearing the screen — the mode CI
//! and scripts use.
//!
//! Two panels ride on the SLO plane: `/history` (the daemon's windowed
//! health ring) renders as sparklines, and when the daemon declares
//! `--slo` rules, an alert panel lists each rule FIRING/ok from the
//! `pqos_slo_*` gauges.
//!
//! A daemon that stops answering does not blank the screen: the last
//! good frame stays up under a STALE banner showing the data's age, and
//! reconnect attempts back off exponentially (interval .. 16x interval)
//! until the scrape succeeds again.
//!
//! No raw-terminal games: the repaint is ANSI clear-home
//! (`ESC[2J ESC[H`), so any terminal (or `watch`-style pager) works, and
//! piping to a file degrades to one frame per poll.

use pqos_service::scrape;
use pqos_telemetry::expo::{self, Sample};
use pqos_telemetry::json::Json;
use std::collections::BTreeMap;
use std::io::Write;
use std::process::ExitCode;
use std::time::{Duration, Instant};

const USAGE: &str = "usage: pqos-top --metrics HOST:PORT [options]
  --interval-ms N   poll interval (default 1000)
  --once            print one snapshot and exit (no screen clearing)
  --no-history      skip the /history sparkline panel
";

/// Reconnect backoff cap, as a multiple of the poll interval.
const MAX_BACKOFF_MULT: u32 = 16;

const VERBS: [&str; 6] = [
    "negotiate",
    "accept",
    "cancel",
    "status",
    "dump",
    "shutdown",
];

fn die(msg: &str) -> ExitCode {
    eprintln!("pqos-top: {msg}");
    eprint!("{USAGE}");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut metrics: Option<String> = None;
    let mut interval = Duration::from_millis(1000);
    let mut once = false;
    let mut no_history = false;

    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .map(|v| v.to_string())
                .ok_or_else(|| format!("{name} needs a value"))
        };
        let result: Result<(), String> = match flag.as_str() {
            "--metrics" => value("--metrics").map(|v| metrics = Some(v)),
            "--interval-ms" => value("--interval-ms").and_then(|v| {
                v.parse()
                    .map(|ms: u64| interval = Duration::from_millis(ms.max(100)))
                    .map_err(|_| "--interval-ms: not a duration".into())
            }),
            "--once" => {
                once = true;
                Ok(())
            }
            "--no-history" => {
                no_history = true;
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
    let Some(addr) = metrics else {
        return die("--metrics is required");
    };

    let timeout = Duration::from_secs(5);
    let mut previous: Option<(Instant, BTreeMap<String, f64>)> = None;
    // The stale-data plane: the last frame that rendered from a live
    // scrape, kept on screen (under a banner) while the daemon is away.
    let mut last_good: Option<(Instant, String)> = None;
    let mut failures: u32 = 0;
    loop {
        let emit = |payload: &str| -> bool {
            let mut stdout = std::io::stdout().lock();
            write!(stdout, "{payload}")
                .and_then(|()| stdout.flush())
                .is_ok()
        };
        match scrape::scrape_metrics(&addr, timeout) {
            Ok(samples) => {
                failures = 0;
                let now = Instant::now();
                let counters = verb_counters(&samples);
                let history = (!no_history)
                    .then(|| scrape::http_get(&addr, "/history", timeout).ok())
                    .flatten();
                let mut frame = render_frame(&addr, &samples, &counters, previous.as_ref(), now);
                frame.push_str(&render_slo(&samples));
                if let Some(body) = &history {
                    frame.push_str(&render_history(body));
                }
                let payload = if once {
                    frame.clone()
                } else {
                    format!("\x1b[2J\x1b[H{frame}")
                };
                if !emit(&payload) {
                    return ExitCode::SUCCESS; // pipe closed: done
                }
                if once {
                    return ExitCode::SUCCESS;
                }
                previous = Some((now, counters));
                last_good = Some((now, frame));
                std::thread::sleep(interval);
            }
            Err(e) => {
                if once {
                    eprintln!("pqos-top: {addr}: {e}");
                    return ExitCode::FAILURE;
                }
                failures = failures.saturating_add(1);
                let backoff = interval * 2u32.pow((failures - 1).min(MAX_BACKOFF_MULT.ilog2()));
                let payload = match &last_good {
                    Some((at, frame)) => format!(
                        "\x1b[2J\x1b[HSTALE: {addr} unreachable ({e}); data is {}s old; \
                         retry {failures} in {:.1}s\n\n{frame}",
                        at.elapsed().as_secs(),
                        backoff.as_secs_f64(),
                    ),
                    None => format!(
                        "\x1b[2J\x1b[Hpqos-top: {addr}: {e}; retry {failures} in {:.1}s\n",
                        backoff.as_secs_f64(),
                    ),
                };
                if !emit(&payload) {
                    return ExitCode::SUCCESS;
                }
                std::thread::sleep(backoff);
            }
        }
    }
}

/// Completed-request counters per verb, for rate deltas between polls.
fn verb_counters(samples: &[Sample]) -> BTreeMap<String, f64> {
    let mut map = BTreeMap::new();
    for s in samples {
        if s.name != "pqos_rpc_requests_total" {
            continue;
        }
        if let Some((_, verb)) = s.labels.iter().find(|(k, _)| k == "verb") {
            map.insert(verb.clone(), s.value);
        }
    }
    map
}

/// Cumulative buckets for one verb's total-latency histogram.
fn latency_buckets(samples: &[Sample], verb: &str) -> Vec<(f64, u64)> {
    samples
        .iter()
        .filter(|s| {
            s.name == "pqos_rpc_request_ns_bucket"
                && s.labels.iter().any(|(k, v)| k == "verb" && v == verb)
        })
        .map(|s| {
            let le = s
                .labels
                .iter()
                .find(|(k, _)| k == "le")
                .map(|(_, v)| {
                    if v == "+Inf" {
                        f64::INFINITY
                    } else {
                        v.parse().unwrap_or(f64::INFINITY)
                    }
                })
                .unwrap_or(f64::INFINITY);
            (le, s.value as u64)
        })
        .collect()
}

fn fmt_us(ns: Option<f64>) -> String {
    match ns {
        Some(ns) if ns >= 1e9 => format!("{:.1}s", ns / 1e9),
        Some(ns) if ns >= 1e6 => format!("{:.1}ms", ns / 1e6),
        Some(ns) => format!("{:.0}us", ns / 1e3),
        None => String::from("-"),
    }
}

fn render_frame(
    addr: &str,
    samples: &[Sample],
    counters: &BTreeMap<String, f64>,
    previous: Option<&(Instant, BTreeMap<String, f64>)>,
    now: Instant,
) -> String {
    let gauge = |name: &str| expo::find(samples, name, &[]).unwrap_or(0.0);
    let uptime = gauge("pqos_process_uptime_seconds") as u64;
    let queue = gauge("pqos_engine_queue_depth") as u64;
    let live = gauge("pqos_engine_live_jobs") as u64;
    let overloaded = gauge("pqos_engine_overloaded_total") as u64;
    let total_requests: f64 = counters.values().sum();

    let mut out = String::new();
    out.push_str(&format!(
        "pqos-qosd @ {addr} | up {}h{:02}m{:02}s | queue {queue} | live jobs {live} | overloaded {overloaded}\n",
        uptime / 3600,
        (uptime % 3600) / 60,
        uptime % 60,
    ));
    let rate_window = previous.map(|(t, _)| now.duration_since(*t).as_secs_f64());
    let total_rate: Option<f64> = rate_window.map(|dt| {
        let prev_total: f64 = previous.map(|(_, c)| c.values().sum()).unwrap_or(0.0);
        ((total_requests - prev_total) / dt.max(1e-9)).max(0.0)
    });
    match total_rate {
        Some(rate) => out.push_str(&format!(
            "{total_requests:.0} requests served | {rate:.0} req/s\n\n"
        )),
        None => out.push_str(&format!("{total_requests:.0} requests served\n\n")),
    }

    out.push_str(&format!(
        "{:<10} {:>12} {:>10} {:>10} {:>10}\n",
        "verb", "total", "req/s", "p50", "p99"
    ));
    for verb in VERBS {
        let Some(&total) = counters.get(verb) else {
            continue;
        };
        let rate = match (rate_window, previous) {
            (Some(dt), Some((_, prev))) => {
                let before = prev.get(verb).copied().unwrap_or(0.0);
                format!("{:.0}", ((total - before) / dt.max(1e-9)).max(0.0))
            }
            _ => String::from("-"),
        };
        let buckets = latency_buckets(samples, verb);
        let p50 = expo::quantile_from_buckets(&buckets, 0.50);
        let p99 = expo::quantile_from_buckets(&buckets, 0.99);
        out.push_str(&format!(
            "{verb:<10} {total:>12.0} {rate:>10} {:>10} {:>10}\n",
            fmt_us(p50),
            fmt_us(p99),
        ));
    }

    out.push_str(&format!(
        "\nsessions: quoted {} placed {} started {} completed {} rejected {} cancelled {}\n",
        gauge("pqos_journal_quote_negotiated") as u64,
        gauge("pqos_journal_job_placed") as u64,
        gauge("pqos_journal_job_started") as u64,
        gauge("pqos_journal_job_completed") as u64,
        gauge("pqos_journal_job_rejected") as u64,
        gauge("pqos_journal_job_cancelled") as u64,
    ));
    // Calibration panel: the promise ledger plus the worst per-bucket
    // residual (observed − quoted; negative = overconfident), exported
    // in milli-units.
    let made = gauge("pqos_promise_made") as u64;
    let resolved = gauge("pqos_promise_kept") as u64
        + gauge("pqos_promise_broken") as u64
        + gauge("pqos_promise_cancelled") as u64;
    out.push_str(&format!(
        "promises: made {made} kept {} broken {} cancelled {} pending {} | worst residual {:+.3}\n",
        gauge("pqos_promise_kept") as u64,
        gauge("pqos_promise_broken") as u64,
        gauge("pqos_promise_cancelled") as u64,
        made.saturating_sub(resolved),
        gauge("pqos_promise_worst_residual_milli") / 1000.0,
    ));
    let overload_rate = if total_requests + overloaded as f64 > 0.0 {
        overloaded as f64 / (total_requests + overloaded as f64) * 100.0
    } else {
        0.0
    };
    out.push_str(&format!(
        "engine: ticks {} timeouts {} | overload rate {overload_rate:.2}%\n",
        gauge("pqos_engine_ticks") as u64,
        gauge("pqos_engine_timeouts") as u64,
    ));
    out.push_str(&render_shards(samples));
    out
}

/// Per-shard panel, present only against multi-shard daemons — a
/// one-shard core exports no `shard="k"` label families, and the
/// panel collapses to nothing. The `wide` lane is the cross-shard
/// coordinator: it routes wide jobs but owns no nodes of its own.
fn render_shards(samples: &[Sample]) -> String {
    let shards = shard_labels(samples);
    if shards.is_empty() {
        return String::new();
    }
    let cell = |name: &str, shard: &str| {
        shard_value(samples, name, shard).map_or(String::from("-"), |v| format!("{v:.0}"))
    };
    let mut out = format!(
        "\n{:<6} {:>8} {:>8} {:>10} {:>8} {:>8}\n",
        "shard", "live", "quoted", "occupied", "resv", "routed"
    );
    for shard in &shards {
        out.push_str(&format!(
            "{shard:<6} {:>8} {:>8} {:>10} {:>8} {:>8}\n",
            cell("pqos_engine_live_jobs", shard),
            cell("pqos_engine_shard_quoted", shard),
            cell("pqos_engine_shard_occupied_nodes", shard),
            cell("pqos_engine_shard_reservations", shard),
            cell("pqos_engine_shard_routed_total", shard),
        ));
    }
    if let Some(wide) = shard_value(samples, "pqos_engine_shard_routed_total", "wide") {
        out.push_str(&format!(
            "{:<6} {:>8} {:>8} {:>10} {:>8} {:>8.0}\n",
            "wide", "-", "-", "-", "-", wide
        ));
    }
    out
}

/// SLO alert panel, present only against daemons that declared `--slo`
/// rules (`pqos_slo_rules` is 0 or absent otherwise).
fn render_slo(samples: &[Sample]) -> String {
    let gauge = |name: &str| expo::find(samples, name, &[]).unwrap_or(0.0);
    let rules = gauge("pqos_slo_rules") as u64;
    if rules == 0 {
        return String::new();
    }
    let mut out = format!(
        "\nslo: {rules} rule(s) | active {} | fired {} resolved {} | windows closed {}\n",
        gauge("pqos_slo_active_alerts") as u64,
        gauge("pqos_slo_alerts_fired_total") as u64,
        gauge("pqos_slo_alerts_resolved_total") as u64,
        gauge("pqos_slo_windows_closed_total") as u64,
    );
    for s in samples {
        if s.name != "pqos_slo_rule_firing" {
            continue;
        }
        if let Some((_, rule)) = s.labels.iter().find(|(k, _)| k == "rule") {
            out.push_str(&format!(
                "  {:<7} {rule}\n",
                if s.value >= 1.0 { "FIRING" } else { "ok" }
            ));
        }
    }
    out
}

const SPARK: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
/// Windows of history drawn per sparkline row.
const SPARK_WIDTH: usize = 48;
/// Sparkline rows shown before the panel truncates.
const HISTORY_ROWS: usize = 8;

/// The last [`SPARK_WIDTH`] windows as one row of block characters,
/// scaled against the row's own peak; a window with no data is a blank.
fn sparkline(points: &[Option<f64>]) -> String {
    let tail = &points[points.len().saturating_sub(SPARK_WIDTH)..];
    let peak = tail.iter().flatten().fold(0.0f64, |a, &b| a.max(b));
    tail.iter()
        .map(|p| match p {
            None => ' ',
            Some(_) if peak <= 0.0 => SPARK[0],
            Some(v) => SPARK[((v.max(0.0) / peak * 7.0).round() as usize).min(7)],
        })
        .collect()
}

/// `/history` sparkline panel: a handful of load-bearing families
/// (pinned ones first, then the busiest per-window rates), each drawn
/// against its own peak with its latest value alongside.
fn render_history(body: &str) -> String {
    const PREFERRED: [&str; 5] = [
        "engine.queue_depth",
        "journal.quote_negotiated",
        "journal.job_completed",
        "journal.job_rejected",
        "slo.active_alerts",
    ];
    let Some(doc) = Json::parse(body) else {
        return String::new();
    };
    let window_ms = doc.get("window_ms").and_then(Json::as_u64).unwrap_or(0);
    let windows = doc.get("windows").and_then(Json::as_u64).unwrap_or(0);
    let Some(families) = doc.get("families").and_then(Json::as_arr) else {
        return String::new();
    };
    if windows == 0 || families.is_empty() {
        return String::new();
    }
    let mut rows: Vec<(i64, String, String, Vec<Option<f64>>)> = Vec::new();
    for f in families {
        let (Some(name), Some(kind), Some(points)) = (
            f.get("name").and_then(Json::as_str),
            f.get("kind").and_then(Json::as_str),
            f.get("points").and_then(Json::as_arr),
        ) else {
            continue;
        };
        let pts: Vec<Option<f64>> = points.iter().map(Json::as_f64).collect();
        let peak = pts.iter().flatten().fold(0.0f64, |a, &b| a.max(b.abs()));
        let score = match PREFERRED.iter().position(|p| *p == name) {
            Some(i) => i64::MIN + i as i64, // pinned to the top, in order
            None if kind == "rate" && peak > 0.0 => -(peak as i64),
            None => continue, // idle unpinned family: not worth a row
        };
        rows.push((score, name.into(), kind.into(), pts));
    }
    if rows.is_empty() {
        return String::new();
    }
    rows.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
    rows.truncate(HISTORY_ROWS);
    let mut out = format!("\nhistory ({window_ms}ms windows, {windows} sampled):\n");
    for (_, name, kind, pts) in &rows {
        let last = pts.iter().rev().flatten().next().copied();
        out.push_str(&format!(
            "  {name:<34} {} {:>9} {kind}\n",
            sparkline(pts),
            last.map_or(String::from("-"), |v| format!("{v:.1}")),
        ));
    }
    out
}

/// The numeric `shard="k"` labels exported by the daemon, sorted by
/// shard index (the non-numeric `wide` lane is handled separately).
fn shard_labels(samples: &[Sample]) -> Vec<String> {
    let mut labels: Vec<String> = samples
        .iter()
        .filter(|s| s.name == "pqos_engine_shard_quoted")
        .filter_map(|s| {
            s.labels
                .iter()
                .find(|(k, _)| k == "shard")
                .map(|(_, v)| v.clone())
        })
        .collect();
    labels.sort_by_key(|v| v.parse::<u64>().unwrap_or(u64::MAX));
    labels.dedup();
    labels
}

fn shard_value(samples: &[Sample], name: &str, shard: &str) -> Option<f64> {
    samples
        .iter()
        .find(|s| s.name == name && s.labels.iter().any(|(k, v)| k == "shard" && v == shard))
        .map(|s| s.value)
}
