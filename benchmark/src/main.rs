//! `pqos-ledger`: the repo's perf ledger.
//!
//! ```text
//! pqos-ledger --workload NAME --seed N --seconds S --trace 0|1
//! pqos-ledger --sets N [--seed N] [--seconds S]
//! pqos-ledger --smoke [--seed N] [--workload NAME --trace 0|1]
//! ```
//!
//! The first form is what `BENCHMARK.json` declares: one workload, one
//! run, every metric printed by name and unit, outputs checked, and one
//! JSON object as the last line of standard output. `--trace 0` reports
//! the end-to-end metrics; `--trace 1` re-runs the workload under the
//! benchmark's own spans, runs the isolated lanes, writes a Chrome trace
//! under `benchmark/out/` and reports the per-layer metrics.
//!
//! `--sets N` runs the untraced suite N times and says, per metric and
//! workload, whether the sets agree within the metric's bound. `--smoke`
//! runs all four workloads, traced and untraced, at tiny counts with
//! every check on.
//!
//! See `benchmark/README.md` for the glossary.

mod gate;
mod gen;
mod lanes;
mod replay_wide;
mod serve;
mod served;
mod sim_sweep;
mod spans;
mod spec;
mod stats;
mod suite;
mod sys;
mod yardstick;

use pqos_telemetry::json::Json;
use spec::{END_TO_END, WORKLOADS};
use std::path::PathBuf;
use std::process::ExitCode;
use suite::{Opts, Outcome, Scale};

const USAGE: &str = "usage: pqos-ledger --workload NAME --seed N --seconds S --trace 0|1
       pqos-ledger --sets N [--seed N] [--seconds S]
       pqos-ledger --smoke [--seed N] [--workload NAME --trace 0|1]
  --workload NAME  serve_reject | serve_admit | replay_wide | sim_sweep
  --seed N         generator seed, decimal or 0x hex (default 0xD52005);
                   `held-out` names the seed kept aside, 0x5EED0FF1
  --seconds S      length of the measured phase (default 27)
  --trace 0|1      0: end-to-end metrics; 1: traced run, per-layer metrics
  --sets N         self-check: N untraced runs of every workload
  --smoke          tiny counts, all checks; without --workload, all four
                   workloads, untraced and traced
";

/// Default length of the measured phase; `BENCHMARK.json` asks for the same.
const DEFAULT_SECONDS: f64 = 27.0;
const OUT_DIR: &str = "benchmark/out";

fn parse_seed(text: &str) -> Option<u64> {
    if text == "held-out" {
        return Some(gen::HELD_OUT_SEED);
    }
    match text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => text.parse().ok(),
    }
}

enum Mode {
    One(String),
    Sets(usize),
    Smoke,
}

fn run_workload(workload: &str, opts: &Opts) -> Result<Outcome, String> {
    match workload {
        "serve_reject" => served::run(serve::Mix::Reject, opts),
        "serve_admit" => served::run(serve::Mix::Admit, opts),
        "replay_wide" => replay_wide::run(opts),
        "sim_sweep" => sim_sweep::run(opts),
        other => Err(format!("unknown workload {other:?}")),
    }
}

/// Prints the run's header. `nproc` is what the OS offered before the
/// run confined itself to one CPU of it.
fn header(workload: &str, opts: &Opts, nproc: usize, cpu: Option<usize>) {
    println!(
        "# pqos-ledger workload={workload} seed={:#x} seconds={} trace={} nproc={nproc} \
         pinned_to={} loadavg={} commit={}",
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        cpu.map_or("none".into(), |c| format!("cpu{c}")),
        sys::loadavg(),
        sys::commit()
    );
}

fn print_outcome(outcome: &Outcome) {
    for note in &outcome.notes {
        println!("# {note}");
    }
    for m in &outcome.metrics {
        println!(
            "{:<34} {:>16.4} {:<7} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
    println!(
        "# gate: {} attempted, {} failed",
        outcome.gate.attempted, outcome.gate.failed
    );
    for reason in &outcome.gate.reasons {
        println!("# FAILED: {reason}");
    }
}

/// The contract's last line: exactly `correct`, `attempted`, `failed`
/// and `metrics`, every value with all its digits.
fn result_line(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.gate.correct(),
        outcome.gate.attempted,
        outcome.gate.failed,
        metrics.join(", ")
    )
}

/// Runs one workload and holds its numbers to being numbers.
fn checked(workload: &str, opts: &Opts) -> Result<Outcome, String> {
    let mut outcome = run_workload(workload, opts)?;
    let finite = outcome.metrics.iter().all(|m| m.value.is_finite());
    outcome
        .gate
        .check(finite, || "a metric is not a finite number".into());
    if !opts.trace {
        let positive = outcome.metrics.iter().all(|m| m.value > 0.0);
        outcome
            .gate
            .check(positive, || "an end-to-end metric is zero".into());
    }
    Ok(outcome)
}

fn one(workload: &str, opts: &Opts) -> ExitCode {
    let nproc = sys::nproc();
    // Before any thread is spawned: threads inherit the confinement.
    let cpu = sys::pin_to_one_cpu();
    header(workload, opts, nproc, cpu);
    match checked(workload, opts) {
        Ok(outcome) => {
            print_outcome(&outcome);
            println!("{}", result_line(&outcome));
            if outcome.gate.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("pqos-ledger: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs one workload in a process of its own, as the benchmark's
/// declared command would — a fresh address space, so `peak_rss_mib` is
/// that run's alone — and relays its report. Returns whether the run was
/// correct and the value of each metric on its result line.
fn child(workload: &str, opts: &Opts, smoke: bool) -> Result<(bool, Json), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut command = std::process::Command::new(exe);
    command
        .args(["--workload", workload])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if opts.trace { "1" } else { "0" }]);
    if smoke {
        command.arg("--smoke");
    }
    // `output` waits for the child to end.
    let output = command.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    eprint!("{}", String::from_utf8_lossy(&output.stderr));
    let result = stdout
        .lines()
        .last()
        .and_then(Json::parse)
        .ok_or_else(|| format!("{workload}: no result line (exit {})", output.status))?;
    let correct = result.get("correct").and_then(Json::as_bool) == Some(true);
    Ok((correct && output.status.success(), result))
}

/// `--sets N`: the untraced suite N times, every run in its own process;
/// per workload and metric the min / median / max over the sets and
/// whether they agree within the metric's bound. From four sets on,
/// agreement is judged by the statistic the acceptance rule uses — the
/// distance between the first and third quartile (Python's
/// `statistics.quantiles(values, n=4)`) as a share of the median; with
/// fewer, where quartiles would be extrapolated, by the full range.
fn sets(n: usize, opts: &Opts) -> ExitCode {
    let mut ok = true;
    let mut table: Vec<(&str, Vec<Json>)> = WORKLOADS.iter().map(|w| (*w, Vec::new())).collect();
    for set in 1..=n {
        for (workload, runs) in &mut table {
            match child(workload, opts, false) {
                Ok((correct, result)) => {
                    ok &= correct;
                    runs.push(result);
                }
                Err(e) => {
                    eprintln!("pqos-ledger: set {set}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    println!("# {n} set(s); spread = (Q3 - Q1) / median from 4 sets on, else (max - min) / median");
    println!(
        "{:<14} {:<16} {:>14} {:>14} {:>14} {:>8} {:>6}  agree",
        "workload", "metric", "min", "median", "max", "spread", "bound"
    );
    for (workload, runs) in &table {
        for &(name, _, _, bound) in &END_TO_END {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|r| r.get("metrics")?.get(name)?.get("value")?.as_f64())
                .collect();
            let (min, max) = values
                .iter()
                .fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
            let median = stats::median(&values);
            let spread = if values.len() >= 4 {
                stats::quartile_spread(&values).unwrap_or(0.0)
            } else {
                (max - min) / median
            };
            // The acceptance rule exempts set-up time from the spread test.
            let agree = values.len() == n && (spread <= bound || name == "setup_s");
            ok &= agree;
            println!(
                "{workload:<14} {name:<16} {min:>14.4} {median:>14.4} {max:>14.4} {spread:>8.4} \
                 {bound:>6.2}  {}",
                if agree { "yes" } else { "NO" }
            );
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `--smoke`: every workload, untraced then traced, in about a second
/// each and a process each. Counts shrink; no check is skipped.
fn smoke(opts: &Opts) -> ExitCode {
    let mut ok = true;
    for workload in WORKLOADS {
        for trace in [false, true] {
            let opts = Opts {
                trace,
                ..opts.clone()
            };
            match child(workload, &opts, true) {
                Ok((correct, _)) => ok &= correct,
                Err(e) => {
                    eprintln!("pqos-ledger: {e}");
                    ok = false;
                }
            }
        }
    }
    println!("# smoke: {}", if ok { "ok" } else { "FAILED" });
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload: Option<String> = None;
    let mut seed = gen::DEFAULT_SEED;
    let mut seconds = DEFAULT_SECONDS;
    let mut trace = false;
    let mut sets_n: Option<usize> = None;
    let mut smoke_mode = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let parsed: Result<(), String> = match flag.as_str() {
            "--workload" => value().map(|v| workload = Some(v.clone())),
            "--seed" => value().and_then(|v| {
                parse_seed(v)
                    .map(|s| seed = s)
                    .ok_or_else(|| "--seed: not a number".into())
            }),
            "--seconds" => value().and_then(|v| {
                v.parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .map(|s| seconds = s)
                    .ok_or_else(|| "--seconds: need a positive number".into())
            }),
            "--trace" => value().and_then(|v| match v.as_str() {
                "0" | "1" => {
                    trace = v == "1";
                    Ok(())
                }
                _ => Err("--trace: 0 or 1".into()),
            }),
            "--sets" => value().and_then(|v| {
                v.parse()
                    .ok()
                    .filter(|n: &usize| *n > 0)
                    .map(|n| sets_n = Some(n))
                    .ok_or_else(|| "--sets: need a positive count".into())
            }),
            "--smoke" => {
                smoke_mode = true;
                Ok(())
            }
            "-h" | "--help" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => Err(format!("unknown flag: {other}")),
        };
        if let Err(msg) = parsed {
            eprintln!("pqos-ledger: {msg}");
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
    }
    let mode = match (workload, sets_n, smoke_mode) {
        (Some(workload), None, _) => Mode::One(workload),
        (None, Some(n), false) => Mode::Sets(n),
        (None, None, true) => Mode::Smoke,
        _ => {
            eprintln!("pqos-ledger: give one of --workload, --sets, --smoke");
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let out_dir = PathBuf::from(OUT_DIR);
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("pqos-ledger: cannot create {OUT_DIR}: {e}");
        return ExitCode::FAILURE;
    }
    let opts = Opts {
        seed,
        // A smoke run measures for a second.
        seconds: if smoke_mode { 1.0 } else { seconds },
        trace,
        scale: if smoke_mode {
            Scale::SMOKE
        } else {
            Scale::FULL
        },
        out_dir,
    };
    match mode {
        Mode::One(workload) => one(&workload, &opts),
        Mode::Sets(n) => sets(n, &opts),
        Mode::Smoke => smoke(&opts),
    }
}
