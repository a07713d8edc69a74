//! Shard-scaling sweep: the same workload against fresh in-process
//! daemons at increasing engine shard counts.
//!
//! `pqos-loadgen --shards 1,2,4` comes in here. For each count the sweep
//! binds an ephemeral port, builds an N-way core over the configured
//! cluster with [`build_core`] (null predictor, registry-only telemetry —
//! the point is admission throughput, not journal I/O), serves it on a
//! background thread, and drives it with the caller's client profile,
//! shutting each daemon down before the next point. Every point sees the
//! identical request stream (same seed, same model), so the rows differ
//! only in how the engine partitions its book.
//!
//! The returned report is the **first** point's run — its top-level
//! throughput and percentiles stay comparable with plain single-daemon
//! benchmarks — with the full sweep attached as
//! [`LoadgenReport::shard_scaling`], speedups relative to that first
//! point.

use crate::engine::EngineConfig;
use crate::loadgen::{self, LoadgenConfig, LoadgenReport, ShardScalingRow};
use crate::server::{serve_core, ServerConfig};
use crate::tick::build_core;
use pqos_telemetry::reqtrace::TraceMeta;
use pqos_telemetry::Telemetry;
use std::net::TcpListener;

/// What to sweep: the shard counts to try and the cluster they carve up.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Engine shard counts, in run order. The first is the baseline the
    /// other points' speedups are computed against.
    pub shard_counts: Vec<u32>,
    /// Cluster size every daemon runs with. Bigger clusters mean more
    /// live reservations per book, which is where sharding's smaller
    /// per-shard books actually pay.
    pub cluster_size: u32,
    /// Engine tuning shared by every point.
    pub engine: EngineConfig,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            shard_counts: vec![1, 2, 4],
            cluster_size: 4096,
            engine: EngineConfig::default(),
        }
    }
}

/// Runs the sweep. The client profile in `client` is reused for every
/// point (`addr` is ignored — each point gets its own loopback daemon;
/// `shutdown`, `metrics_addr`, `record`, and `baseline_rps` are
/// overridden, since the sweep owns daemon lifecycle and the report
/// shape).
///
/// # Errors
///
/// Socket-level failures binding a daemon or running the client surface
/// as `Err`, as does a shard count the cluster cannot carry; an
/// individual daemon panicking surfaces as the client's connection error.
pub fn shard_sweep(client: &LoadgenConfig, sweep: &SweepConfig) -> std::io::Result<LoadgenReport> {
    assert!(
        !sweep.shard_counts.is_empty(),
        "sweep needs at least one shard count"
    );
    let mut rows: Vec<ShardScalingRow> = Vec::new();
    let mut base_report: Option<LoadgenReport> = None;
    for &shards in &sweep.shard_counts {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        // Null predictor, registry-only telemetry (no journal sinks) and
        // no parity re-check: the sweep measures admission work, not disk.
        let meta = TraceMeta {
            shards: u64::from(shards),
            ..TraceMeta::qosd(sweep.cluster_size)
        };
        let core = build_core(&meta, false, Telemetry::builder().build(), |_, plane| {
            Ok(plane.build())
        })
        .map_err(std::io::Error::other)?;
        let engine = sweep.engine.clone();
        let server =
            std::thread::spawn(move || serve_core(listener, core, ServerConfig::from(engine)));

        let mut point = client.clone();
        point.addr = addr.to_string();
        point.shutdown = true;
        point.metrics_addr = None;
        point.record = None;
        point.baseline_rps = None;
        let report = loadgen::run(&point)?;
        server.join().map_err(|_| {
            std::io::Error::other(format!("daemon with {shards} shards panicked"))
        })??;

        let base_rps = base_report
            .as_ref()
            .map_or(report.throughput_rps, |b| b.throughput_rps);
        rows.push(ShardScalingRow {
            shards,
            throughput_rps: report.throughput_rps,
            p99_latency_us: report.p99_latency_us,
            speedup: if base_rps > 0.0 {
                report.throughput_rps / base_rps
            } else {
                0.0
            },
        });
        if base_report.is_none() {
            base_report = Some(report);
        }
    }
    let mut report = base_report.expect("at least one sweep point ran");
    report.shard_scaling = rows;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny sweep end to end: every point answers the same workload,
    /// rows line up with the requested counts, speedups are relative to
    /// the first point, and the report serializes the table.
    #[test]
    fn sweep_runs_every_point_and_tables_the_rows() {
        let client = LoadgenConfig {
            threads: 2,
            requests: 200,
            pipeline_depth: 2,
            ..LoadgenConfig::default()
        };
        let sweep = SweepConfig {
            shard_counts: vec![1, 2],
            cluster_size: 64,
            ..SweepConfig::default()
        };
        let report = shard_sweep(&client, &sweep).expect("sweep runs");
        assert_eq!(report.shard_scaling.len(), 2);
        assert_eq!(report.shard_scaling[0].shards, 1);
        assert_eq!(report.shard_scaling[1].shards, 2);
        assert!((report.shard_scaling[0].speedup - 1.0).abs() < 1e-9);
        assert!(report.shard_scaling[1].throughput_rps > 0.0);
        assert!(report.requests > 0);
        let json = report.to_json();
        assert!(json.contains("\"shard_scaling\": [ { \"shards\": 1,"));
    }
}
