//! Seeded input generators. The seed is consumed here and nowhere else:
//! the program under test receives only the books, request streams,
//! traces and logs these functions produce.
//!
//! Every script is built so that its outcomes do not depend on the few
//! virtual seconds that pass during a served run (`time_scale` is the
//! production 1.0): a full-cluster blocker reservation covers the first
//! virtual hour, so no candidate start, no job start and no completion
//! falls inside the run, and steady state is held by explicit cancels.

use pqos_ckpt::model::planned_execution;
use pqos_cluster::node::NodeId;
use pqos_cluster::partition::Partition;
use pqos_service::protocol::{Request, Response};
use pqos_sim_core::rng::DetRng;
use pqos_sim_core::time::{SimDuration, SimTime, TimeWindow};
use pqos_telemetry::reqtrace::{RequestTrace, TraceEntry, TraceMeta, TRACE_FORMAT_VERSION};

/// The seed reference numbers are quoted at (the repo's experiment seed).
pub const DEFAULT_SEED: u64 = 0xD5_2005;
/// A seed never used while the benchmark was written; a change that
/// claims a gain must also hold here.
pub const HELD_OUT_SEED: u64 = 0x5EED_0FF1;

/// What the request streams run against — the preloaded books, the
/// reject catalogue, the predictor's failure trace, the wide deck — is
/// generated at this seed, a constant of the benchmark. `--seed` draws
/// the streams: which shape is asked for when, in which order a block's
/// jobs arrive. Two seeds then ask differently ordered questions of the
/// same system, and differ in what they measure by little more than two
/// runs of one seed do; a book redrawn per seed moved the served tails
/// by a third.
pub const LAYOUT_SEED: u64 = 0xB00C_2005;

/// One reservation to preload: `nodes` busy over `[start, end)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Booking {
    pub nodes: Vec<u32>,
    pub start: u64,
    pub end: u64,
}

impl Booking {
    pub fn partition(&self) -> Partition {
        Partition::new(self.nodes.iter().map(|&n| NodeId::new(n))).expect("non-empty booking")
    }

    pub fn window(&self) -> TimeWindow {
        TimeWindow::new(SimTime::from_secs(self.start), SimTime::from_secs(self.end))
    }
}

/// Width of the classic served cluster.
pub const SERVED_NODES: u32 = 128;
/// Every served book starts with all nodes busy for this long.
pub const BLOCKER_SECS: u64 = 3600;

fn blocker(nodes: u32) -> Booking {
    Booking {
        nodes: (0..nodes).collect(),
        start: 0,
        end: BLOCKER_SECS,
    }
}

// ---------------------------------------------------------------- serve_reject

/// `--quote-horizon-secs` of the saturated daemon.
pub const REJECT_HORIZON_SECS: u64 = 4 * 3600;
/// Nodes left free behind the blocker: shapes this narrow are quoted.
pub const REJECT_FREE_NODES: u32 = 8;
/// Job shapes the reject stream draws from — far inside the quote
/// memo's 4,096 entries, so after one walk per shape every probe hits.
pub const REJECT_CATALOGUE: usize = 64;
/// Catalogue shapes narrow enough to be quoted (6/64 ≈ 9.4 %).
pub const REJECT_NARROW_SHAPES: usize = 6;

/// The saturated book: behind the blocker, nodes `8..128` are tiled
/// without a gap until well past the quote horizon by strips of
/// back-to-back reservations; nodes `0..8` stay free. A shape wider than
/// 8 nodes therefore starts beyond the horizon (rejected) and a narrower
/// one at the end of the blocker (quoted) — by construction.
pub fn reject_book() -> Vec<Booking> {
    let mut rng = DetRng::seed_from(LAYOUT_SEED).fork("reject-book");
    let tiled_until = BLOCKER_SECS + 10 * 3600;
    let mut book = vec![blocker(SERVED_NODES)];
    let mut first = REJECT_FREE_NODES;
    while first < SERVED_NODES {
        let width = (rng.uniform_u64(4, 16) as u32).min(SERVED_NODES - first);
        let mut at = BLOCKER_SECS;
        while at < tiled_until {
            let len = rng.uniform_u64(300, 1800);
            book.push(Booking {
                nodes: (first..first + width).collect(),
                start: at,
                end: at + len,
            });
            at += len;
        }
        first += width;
    }
    book
}

/// 64 distinct `(size, runtime_secs)` shapes: the first
/// [`REJECT_NARROW_SHAPES`] fit the free nodes, the rest do not.
pub fn reject_catalogue() -> Vec<(u32, u64)> {
    let mut rng = DetRng::seed_from(LAYOUT_SEED).fork("reject-catalogue");
    (0..REJECT_CATALOGUE)
        .map(|k| {
            let size = if k < REJECT_NARROW_SHAPES {
                rng.uniform_u64(1, u64::from(REJECT_FREE_NODES))
            } else {
                rng.uniform_u64(u64::from(REJECT_FREE_NODES) + 1, u64::from(SERVED_NODES))
            };
            // The index keeps runtimes, and so shapes, distinct.
            let runtime = 600 + 60 * rng.uniform_u64(0, 200) + k as u64;
            (size as u32, runtime)
        })
        .collect()
}

/// The connection's endless seeded draw from the catalogue.
pub struct RejectStream {
    rng: DetRng,
    catalogue: Vec<(u32, u64)>,
}

impl RejectStream {
    pub fn new(seed: u64) -> Self {
        RejectStream {
            rng: DetRng::seed_from(seed).fork("reject-stream"),
            catalogue: reject_catalogue(),
        }
    }

    pub fn next_shape(&mut self) -> (u32, u64) {
        self.catalogue[self.rng.uniform_u64(0, REJECT_CATALOGUE as u64 - 1) as usize]
    }
}

// ----------------------------------------------------------------- serve_admit

/// Live reservations the admit book holds before the first dialog.
pub const ADMIT_DEPTH: usize = 8000;
/// A dialog cancels the job accepted this many dialogs earlier, so the
/// book holds `depth + lag` reservations for the whole run.
pub const ADMIT_CANCEL_LAG: usize = 64;

/// The deep book: behind the blocker, `depth` reservations packed
/// greedily, which leaves the staggered holes a real backlog has.
/// Nothing starts before the blocker ends.
pub fn admit_book(depth: usize) -> Vec<Booking> {
    packed_book("admit-book", SERVED_NODES, depth, 32)
}

/// A blocker plus `depth` reservations of 1..=`max_size` nodes and ten
/// minutes to four hours, each taking the nodes that free up first and
/// starting when the last of them does.
pub fn packed_book(label: &str, width: u32, depth: usize, max_size: u32) -> Vec<Booking> {
    let mut rng = DetRng::seed_from(LAYOUT_SEED).fork(label);
    let mut free_at = vec![BLOCKER_SECS; width as usize];
    let mut order: Vec<u32> = (0..width).collect();
    let mut book = vec![blocker(width)];
    for _ in 0..depth {
        let size = rng.uniform_u64(1, u64::from(max_size.min(width))) as usize;
        let len = rng.uniform_u64(600, 4 * 3600);
        order.sort_by_key(|&n| (free_at[n as usize], n));
        let mut nodes: Vec<u32> = order[..size].to_vec();
        nodes.sort_unstable();
        let start = nodes
            .iter()
            .map(|&n| free_at[n as usize])
            .max()
            .expect("size >= 1");
        for &n in &nodes {
            free_at[n as usize] = start + len;
        }
        book.push(Booking {
            nodes,
            start,
            end: start + len,
        });
    }
    book
}

/// The admit dialogs' shapes: every `(size, runtime_secs)` pair is
/// distinct within any 14,400 consecutive dialogs, so the quote memo
/// never answers one from an earlier dialog.
pub struct AdmitStream {
    rng: DetRng,
    dialog: u64,
}

impl AdmitStream {
    pub fn new(seed: u64) -> Self {
        AdmitStream {
            rng: DetRng::seed_from(seed).fork("admit-dialogs"),
            dialog: 0,
        }
    }

    pub fn next_shape(&mut self) -> (u32, u64) {
        let size = self.rng.uniform_u64(1, 32) as u32;
        let runtime = 1800 + self.dialog % 14_400;
        self.dialog += 1;
        (size, runtime)
    }
}

// ----------------------------------------------------------------- replay_wide

pub const WIDE_NODES: u32 = 4096;
pub const WIDE_SHARDS: u64 = 4;
pub const WIDE_HORIZON_SECS: u64 = 24 * 3600;
/// Blocks of eight epochs in the full trace: 224 epochs, 1,008
/// negotiates, about a virtual week at the offered load.
pub const WIDE_BLOCKS: usize = 28;
const WIDE_OFFERED_LOAD: f64 = 0.8;
/// The deck of jobs is a constant of the benchmark; `--seed` deals it.
const WIDE_DECK_SEED: u64 = 0x4096_0004;

/// What the author intends for a negotiated job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fate {
    /// Accepted in the epoch it was quoted in.
    Accept,
    /// Accepted, then cancelled three epochs later.
    AcceptThenCancel,
    /// Quoted and left to lapse.
    Leave,
}

/// The jobs of the wide trace: ≈ 5 % wider than a shard, the rest
/// log-uniform over a shard's width; runtimes log-uniform over ten
/// minutes to eight hours; 85 % accepted, 5 % accepted then cancelled,
/// 10 % left to lapse. The same deck for every seed, so every seed's
/// trace holds the same jobs, the same work and the same number of
/// entries — the seed decides only the order they arrive in.
fn wide_deck(jobs: usize) -> Vec<(u32, u64, Fate)> {
    let mut rng = DetRng::seed_from(WIDE_DECK_SEED);
    let shard_width = WIDE_NODES / WIDE_SHARDS as u32;
    (0..jobs)
        .map(|k| {
            // One job in twenty is wide, at a slot that rotates through
            // the fates; the mix is exact, not sampled.
            let size = if k % 20 == (k / 20) % 20 {
                rng.uniform_u64(u64::from(shard_width) + 1, 3 * u64::from(shard_width))
            } else {
                f64::from(shard_width).powf(rng.unit()).round() as u64
            } as u32;
            let runtime_secs = (600.0 * 48f64.powf(rng.unit())) as u64;
            let fate = match k % 20 {
                0..=16 => Fate::Accept,
                17 => Fate::AcceptThenCancel,
                _ => Fate::Leave,
            };
            (size, runtime_secs, fate)
        })
        .collect()
}

/// The deck cut into blocks of eight epochs holding 1–8 negotiates
/// each (every count once per block, 36 jobs a block) — all of it at the
/// deck's own seed, so which jobs share an epoch is a constant too.
fn wide_blocks(blocks: usize) -> Vec<Vec<Vec<(u32, u64, Fate)>>> {
    let mut rng = DetRng::seed_from(WIDE_DECK_SEED).fork("blocks");
    let shard_width = WIDE_NODES / WIDE_SHARDS as u32;
    let mut deck = wide_deck(blocks * 36);
    deck.chunks_mut(36)
        .map(|block| {
            let mut sizes: Vec<usize> = (1..=8).collect();
            rng.shuffle(&mut sizes);
            rng.shuffle(block);
            // At most one wide job per epoch: negotiating one builds tens
            // of MiB of candidate partitions, and two in one batch do so
            // at the same time on two threads. A second wide job trades
            // places with a narrow one from an epoch that has none.
            let epochs: Vec<std::ops::Range<usize>> = sizes
                .iter()
                .scan(0, |at, &n| {
                    *at += n;
                    Some(*at - n..*at)
                })
                .collect();
            let is_wide = |job: &(u32, u64, Fate)| job.0 > shard_width;
            for e in 0..epochs.len() {
                let wide: Vec<usize> = epochs[e].clone().filter(|&k| is_wide(&block[k])).collect();
                for &extra in wide.iter().skip(1) {
                    let spare = epochs
                        .iter()
                        .find(|r| !(r.start..r.end).any(|k| is_wide(&block[k])))
                        .expect("a block holds at most three wide jobs and eight epochs")
                        .start;
                    block.swap(extra, spare);
                }
            }
            epochs.into_iter().map(|r| block[r].to_vec()).collect()
        })
        .collect()
}

/// Authors the engine trace for `replay_wide`: `blocks` × 8 epochs on
/// 4,096 nodes × 4 shards at offered load ≈ 0.8. The blocks of
/// [`wide_blocks`] come in seeded order, and so do the jobs within each
/// epoch: every seed's trace holds the same epochs doing the same work,
/// met by a different backlog. Virtual time advances by the work each
/// epoch admits, so jobs start, complete and resolve promises as the
/// trace runs.
///
/// Responses are placeholders; [`crate::replay_wide`] reconstructs them
/// in set-up by replaying once, the `record_corpus` technique.
pub fn wide_trace(seed: u64, blocks: usize) -> RequestTrace {
    let mut rng = DetRng::seed_from(seed).fork("wide-trace");
    let mut plan = wide_blocks(blocks);
    rng.shuffle(&mut plan);
    let mut epochs: Vec<Vec<(u32, u64, Fate)>> = plan.into_iter().flatten().collect();
    for epoch in &mut epochs {
        rng.shuffle(epoch);
    }
    let capacity = WIDE_OFFERED_LOAD * f64::from(WIDE_NODES);
    let mut entries: Vec<TraceEntry> = Vec::new();
    let mut push = |epoch: u64, tick: u64, request: Request, job: Option<u64>| {
        let seq = entries.len() as u64 + 1;
        entries.push(TraceEntry {
            seq,
            epoch,
            tick_secs: tick,
            conn: 1,
            verb: request.verb().into(),
            job,
            request: request.encode(),
            response: Response::Ok { id: request.id() }.encode(),
        });
    };
    let mut next_id = 0u64;
    let mut id = || {
        next_id += 1;
        next_id
    };
    let mut job = 0u64;
    let mut cancels: Vec<(u64, u64)> = Vec::new(); // (due epoch, job)
    let mut tick = 0.0f64;
    for (k, jobs) in epochs.into_iter().enumerate() {
        let epoch = k as u64 + 1;
        let now = tick as u64;
        let mut accepts = Vec::new();
        let mut admitted_work = 0.0;
        for (size, runtime_secs, fate) in jobs {
            job += 1;
            push(
                epoch,
                now,
                Request::Negotiate {
                    id: id(),
                    size,
                    runtime_secs,
                },
                Some(job),
            );
            if fate != Fate::Leave {
                accepts.push(job);
            }
            if fate == Fate::Accept {
                let planned = planned_execution(
                    SimDuration::from_secs(runtime_secs),
                    SimDuration::from_secs(3600),
                    SimDuration::from_secs(720),
                );
                admitted_work += f64::from(size) * planned.total.as_secs() as f64;
            }
            if fate == Fate::AcceptThenCancel {
                cancels.push((epoch + 3, job));
            }
        }
        for job in accepts {
            push(epoch, now, Request::Accept { id: id(), job }, None);
        }
        cancels.retain(|&(due, job)| {
            if due == epoch {
                push(epoch, now, Request::Cancel { id: id(), job }, None);
            }
            due != epoch
        });
        tick += (admitted_work / capacity).max(1.0);
    }
    RequestTrace {
        meta: TraceMeta {
            version: TRACE_FORMAT_VERSION,
            source: "qosd".into(),
            cluster_size: WIDE_NODES,
            time_scale: 1.0,
            // What a daemon confined to one CPU, as the benchmark is,
            // records: with a fan-out of 2 on one CPU the loops were
            // slower and half again as unsteady.
            batch_threads: 1,
            quote_horizon_secs: Some(WIDE_HORIZON_SECS),
            predictor: "null".into(),
            shards: WIDE_SHARDS,
            slo: Vec::new(),
            slo_window_secs: pqos_telemetry::slo::DEFAULT_WINDOW_SECS,
        },
        entries,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reject_lines(seed: u64, n: usize) -> String {
        let mut stream = RejectStream::new(seed);
        (0..n)
            .map(|i| {
                let (size, runtime_secs) = stream.next_shape();
                Request::Negotiate {
                    id: i as u64,
                    size,
                    runtime_secs,
                }
                .encode()
                    + "\n"
            })
            .collect()
    }

    fn admit_lines(seed: u64, n: usize) -> String {
        let mut stream = AdmitStream::new(seed);
        (0..n)
            .map(|_| format!("{:?}\n", stream.next_shape()))
            .collect()
    }

    #[test]
    fn generators_are_byte_deterministic_per_seed_and_differ_across_seeds() {
        for (a, b) in [(DEFAULT_SEED, DEFAULT_SEED), (7, 7)] {
            assert_eq!(reject_lines(a, 500), reject_lines(b, 500));
            assert_eq!(admit_lines(a, 500), admit_lines(b, 500));
            assert_eq!(wide_trace(a, 4).encode(), wide_trace(b, 4).encode());
        }
        let (a, b) = (DEFAULT_SEED, HELD_OUT_SEED);
        assert_ne!(reject_lines(a, 500), reject_lines(b, 500));
        assert_ne!(admit_lines(a, 500), admit_lines(b, 500));
        // The layouts are constants of the benchmark.
        assert_eq!(reject_book(), reject_book());
        assert_eq!(reject_catalogue(), reject_catalogue());
        assert_eq!(admit_book(300), admit_book(300));
        assert_ne!(wide_trace(a, 4).encode(), wide_trace(b, 4).encode());
    }

    #[test]
    fn reject_book_tiles_past_the_horizon_and_leaves_eight_nodes() {
        {
            let book = reject_book();
            let mut covered_until = vec![0u64; SERVED_NODES as usize];
            for b in &book {
                for &n in &b.nodes {
                    assert_eq!(
                        covered_until[n as usize], b.start,
                        "gap or overlap on node {n}"
                    );
                    covered_until[n as usize] = b.end;
                }
            }
            for (n, &until) in covered_until.iter().enumerate() {
                if (n as u32) < REJECT_FREE_NODES {
                    assert_eq!(until, BLOCKER_SECS);
                } else {
                    // No start inside [now, now + horizon] for any `now`
                    // a run can reach.
                    assert!(until > BLOCKER_SECS + REJECT_HORIZON_SECS + 3600);
                }
            }
        }
    }

    #[test]
    fn reject_catalogue_shapes_are_distinct_with_six_narrow() {
        let cat = reject_catalogue();
        let mut unique = cat.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), REJECT_CATALOGUE);
        let narrow = cat.iter().filter(|(s, _)| *s <= REJECT_FREE_NODES).count();
        assert_eq!(narrow, REJECT_NARROW_SHAPES);
    }

    #[test]
    fn admit_book_never_double_books_and_starts_after_the_blocker() {
        let book = admit_book(500);
        assert_eq!(book.len(), 501);
        let mut busy: Vec<Vec<(u64, u64)>> = vec![Vec::new(); SERVED_NODES as usize];
        for b in &book {
            assert!(b.end > b.start);
            for &n in &b.nodes {
                busy[n as usize].push((b.start, b.end));
            }
        }
        for spans in &mut busy {
            spans.sort_unstable();
            assert_eq!(spans[0], (0, BLOCKER_SECS));
            assert!(spans.windows(2).all(|w| w[0].1 <= w[1].0));
        }
    }

    #[test]
    fn admit_shapes_do_not_repeat() {
        let mut stream = AdmitStream::new(DEFAULT_SEED);
        let mut shapes: Vec<(u32, u64)> = (0..14_400).map(|_| stream.next_shape()).collect();
        shapes.sort_unstable();
        shapes.dedup();
        assert_eq!(shapes.len(), 14_400);
    }

    #[test]
    fn wide_trace_is_a_valid_engine_trace_with_the_intended_mix() {
        let trace = wide_trace(DEFAULT_SEED, WIDE_BLOCKS);
        let parsed = RequestTrace::parse(&trace.encode()).expect("strict parser accepts it");
        assert_eq!(parsed.entries.len(), trace.entries.len());
        let sizes: Vec<u32> = trace
            .entries
            .iter()
            .filter_map(|e| match Request::parse(&e.request) {
                Ok(Request::Negotiate { size, .. }) => Some(size),
                _ => None,
            })
            .collect();
        let count = |verb: &str| trace.entries.iter().filter(|e| e.verb == verb).count();
        let n = sizes.len();
        assert_eq!(n, WIDE_BLOCKS * 36);
        let share = |k: usize| k as f64 / n as f64;
        assert!((share(count("accept")) - 0.90).abs() < 0.01);
        let wide = sizes
            .iter()
            .filter(|&&s| s > WIDE_NODES / WIDE_SHARDS as u32)
            .count();
        assert!((share(wide) - 0.05).abs() < 0.01);
        // Cancels fall due three epochs on; the last few epochs' never do.
        assert!((share(count("cancel")) - 0.05).abs() < 0.01);
        let days = trace.entries.last().expect("non-empty").tick_secs as f64 / 86_400.0;
        assert!(
            (5.0..=9.0).contains(&days),
            "about a week, got {days:.1} days"
        );
    }

    #[test]
    fn no_epoch_holds_two_wide_jobs() {
        for seed in [DEFAULT_SEED, HELD_OUT_SEED, 1, 2, 3, 4, 5] {
            let mut wide_in_epoch = std::collections::BTreeMap::new();
            for e in &wide_trace(seed, WIDE_BLOCKS).entries {
                if let Ok(Request::Negotiate { size, .. }) = Request::parse(&e.request) {
                    if size > WIDE_NODES / WIDE_SHARDS as u32 {
                        *wide_in_epoch.entry(e.epoch).or_insert(0) += 1;
                    }
                }
            }
            assert!(!wide_in_epoch.is_empty());
            assert!(wide_in_epoch.values().all(|&n| n == 1), "seed {seed}");
        }
    }

    #[test]
    fn every_seed_deals_the_same_jobs() {
        let shapes = |seed: u64| {
            let mut v: Vec<String> = wide_trace(seed, WIDE_BLOCKS)
                .entries
                .iter()
                .filter(|e| e.verb == "negotiate")
                .map(|e| {
                    e.request
                        .split("\"size\"")
                        .nth(1)
                        .expect("size")
                        .to_string()
                })
                .collect();
            v.sort();
            v
        };
        assert_eq!(shapes(DEFAULT_SEED), shapes(HELD_OUT_SEED));
        // Up to the cancels that would fall due after the last epoch.
        let entries = |seed| wide_trace(seed, WIDE_BLOCKS).entries.len();
        assert!(entries(DEFAULT_SEED).abs_diff(entries(7)) <= 3);
    }
}
