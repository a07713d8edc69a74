//! What every workload shares: run options, the full and smoke scales,
//! the outcome shape, and the traced run's bookkeeping (fold spans,
//! write and validate the Chrome trace, fill the per-layer table).

use crate::gate::Gate;
use crate::lanes::Layers;
use crate::spans::{self, Span};
use crate::spec::{Metric, END_TO_END, PER_LAYER};
use crate::yardstick::{Yardstick, NOMINAL_MS};
use std::io;
use std::path::PathBuf;

/// Sizes that differ between a real run and `--smoke`. Smoke shrinks
/// counts, never checks.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Times set-up is repeated; `setup_s` is the median.
    pub setup_reps: usize,
    pub admit_depth: usize,
    /// Warm-up requests per reject connection / dialogs of the admit one.
    pub warm_requests: u64,
    pub warm_dialogs: u64,
    /// Blocks of eight epochs in the wide trace.
    pub wide_blocks: usize,
    pub sim_jobs: usize,
    /// Divides every lane's iteration count.
    pub lane_divisor: u64,
}

impl Scale {
    pub const FULL: Scale = Scale {
        setup_reps: 3,
        admit_depth: crate::gen::ADMIT_DEPTH,
        warm_requests: 4_000,
        warm_dialogs: 300,
        wide_blocks: crate::gen::WIDE_BLOCKS,
        sim_jobs: 10_000,
        lane_divisor: 1,
    };
    pub const SMOKE: Scale = Scale {
        setup_reps: 1,
        admit_depth: 400,
        warm_requests: 400,
        warm_dialogs: 80,
        wide_blocks: 3,
        sim_jobs: 400,
        lane_divisor: 20,
    };
}

#[derive(Debug, Clone)]
pub struct Opts {
    pub seed: u64,
    /// How long the measured phase runs.
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    /// Temp journals and the Chrome trace go here; temp files are
    /// removed before the run ends.
    pub out_dir: PathBuf,
}

/// What one run of one workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub gate: Gate,
    pub metrics: Vec<Metric>,
    pub notes: Vec<String>,
}

/// The end-to-end numbers every workload reports, in table order, as
/// measured; [`EndToEnd::report`] brings them to the reference speed.
#[derive(Debug, Clone, Copy, Default)]
pub struct EndToEnd {
    pub setup_s: f64,
    pub setup_reps: u64,
    pub ops_per_s: f64,
    /// Windows, loops or cycles the throughput median is over.
    pub ops_samples: u64,
    pub lat_p50_us: f64,
    pub lat_samples: u64,
    pub cpu_us_per_op: f64,
    pub ops: u64,
    /// `VmHWM` once the workload has done a fixed amount of measured work
    /// (a constant per workload), so that a faster run, which serves more
    /// requests in its `--seconds`, does not read as a hungrier one.
    pub peak_rss_mib: f64,
}

impl EndToEnd {
    /// The run's report: every time multiplied, and the rate divided, by
    /// the yardstick's factor; memory as it is. The factor is noted.
    pub fn report(&self, yard: &Yardstick, outcome: &mut Outcome) {
        let k = yard.to_reference();
        outcome.notes.push(format!(
            "yardstick {:.3} ms over {} ticks (reference {NOMINAL_MS} ms): times x {k:.4}",
            yard.ms(),
            yard.ticks()
        ));
        let values = [
            (self.setup_s * k, self.setup_reps),
            (self.ops_per_s / k, self.ops_samples),
            (self.lat_p50_us * k, self.lat_samples),
            (self.cpu_us_per_op * k, self.ops),
            (self.peak_rss_mib, 1),
        ];
        outcome.metrics = END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit, _, _), (value, samples))| Metric {
                name,
                value,
                unit,
                samples,
            })
            .collect();
    }
}

/// The per-layer table in declaration order; a layer the workload
/// bypasses reports 0. A lane that reports a name the table does not
/// declare fails the gate.
fn layer_metrics(layers: &Layers, gate: &mut Gate) -> Vec<Metric> {
    for name in layers.keys() {
        gate.check(PER_LAYER.iter().any(|m| m.0 == *name), || {
            format!("lane reported undeclared metric {name}")
        });
    }
    PER_LAYER
        .iter()
        .map(|&(name, unit, _)| Metric {
            name,
            value: layers.get(name).copied().unwrap_or(0.0),
            unit,
            samples: u64::from(layers.contains_key(name)),
        })
        .collect()
}

/// Most spans written to the Chrome trace file.
const TRACE_FILE_SPANS: usize = 50_000;

/// Ends a traced run: writes the spans as a Chrome trace under the
/// output directory, checks that `pqos_obs::load_chrome_trace` accepts
/// it, prints the self-time fold and fills the per-layer table.
pub fn finish_trace(
    opts: &Opts,
    workload: &str,
    spans: &[Span],
    layers: &Layers,
    outcome: &mut Outcome,
) -> io::Result<()> {
    let path = opts.out_dir.join(format!("trace-{workload}.json"));
    let doc = spans::chrome_trace(spans, TRACE_FILE_SPANS);
    std::fs::write(&path, &doc)?;
    let loaded = pqos_obs::load_chrome_trace(&doc);
    outcome
        .gate
        .check(loaded.as_ref().is_some_and(|s| s.spans > 0), || {
            "the Chrome trace does not load".into()
        });
    outcome.notes.push(format!(
        "trace: {} ({} of {} spans; open in ui.perfetto.dev)",
        path.display(),
        spans.len().min(TRACE_FILE_SPANS),
        spans.len()
    ));
    let folded = spans::self_times(spans);
    outcome.notes.push("span self times:".into());
    for (name, t) in &folded {
        outcome.notes.push(format!(
            "  {name:<24} n={:<8} total={:>10.3} ms  self={:>10.3} ms",
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        ));
    }
    outcome.metrics = layer_metrics(layers, &mut outcome.gate);
    Ok(())
}

/// Traced-run slowdown in percent of the untraced rate.
pub fn overhead_pct(untraced_ops_per_s: f64, traced_ops_per_s: f64) -> f64 {
    if untraced_ops_per_s <= 0.0 {
        return 0.0;
    }
    (untraced_ops_per_s - traced_ops_per_s) / untraced_ops_per_s * 100.0
}

/// FNV-1a, for "the journal is byte-identical on every loop".
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}
