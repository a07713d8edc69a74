//! Randomized property tests over the core data structures and the
//! simulator's invariants.
//!
//! Each test draws many random cases from a seeded [`DetRng`], so the suite
//! is deterministic (reproducible failures, no flakes) while still covering
//! a broad slice of the input space. Failure messages include the case
//! index; re-running with the same seed replays the exact case.

use std::collections::BTreeMap;
use std::ops::ControlFlow;
use std::sync::Arc;

use pqos_ckpt::model::planned_execution;
use pqos_cluster::node::NodeId;
use pqos_cluster::partition::Partition;
use pqos_core::config::SimConfig;
use pqos_core::system::QosSimulator;
use pqos_core::user::UserStrategy;
use pqos_failures::trace::{Failure, FailureTrace};
use pqos_predict::api::Predictor;
use pqos_predict::oracle::TraceOracle;
use pqos_sched::reservation::{
    AvailabilityView, FreeNodes, NaiveReservationBook, Reservation, ReservationBook, ReservationId,
    Slot,
};
use pqos_sim_core::queue::EventQueue;
use pqos_sim_core::rng::DetRng;
use pqos_sim_core::stats::OnlineStats;
use pqos_sim_core::time::{SimDuration, SimTime, TimeWindow};
use pqos_workload::job::{Job, JobId};
use pqos_workload::log::JobLog;
use pqos_workload::swf::{parse_swf, to_swf};

const SEED: u64 = 0xD5_2005;

/// Draws `count` tuples via `draw`, one randomized case per tuple.
fn cases<T>(label: &str, count: usize, mut draw: impl FnMut(&mut DetRng) -> T) -> Vec<T> {
    let mut rng = DetRng::seed_from(SEED).fork(label);
    (0..count).map(|_| draw(&mut rng)).collect()
}

fn random_failures(rng: &mut DetRng, max_count: u64, max_time: u64, nodes: u32) -> Vec<Failure> {
    let count = rng.uniform_u64(0, max_count);
    (0..count)
        .map(|_| Failure {
            time: SimTime::from_secs(rng.uniform_u64(0, max_time)),
            node: NodeId::new(rng.uniform_u64(0, u64::from(nodes) - 1) as u32),
            detectability: rng.unit(),
        })
        .collect()
}

/// The event queue pops in exact (time, priority, insertion) order.
#[test]
fn event_queue_is_a_stable_priority_queue() {
    for (case, entries) in cases("event-queue", 64, |rng| {
        let n = rng.uniform_u64(1, 200) as usize;
        (0..n)
            .map(|_| (rng.uniform_u64(0, 999), rng.uniform_u64(0, 3) as u8))
            .collect::<Vec<_>>()
    })
    .into_iter()
    .enumerate()
    {
        let mut q = EventQueue::new();
        for (i, (t, p)) in entries.iter().enumerate() {
            q.push_with_priority(SimTime::from_secs(*t), *p, i);
        }
        let mut popped = Vec::new();
        while let Some((t, i)) = q.pop() {
            popped.push((t, entries[i].1, i));
        }
        assert_eq!(popped.len(), entries.len(), "case {case}");
        for w in popped.windows(2) {
            assert!(
                (w[0].0, w[0].1, w[0].2) < (w[1].0, w[1].1, w[1].2),
                "case {case}: order violated: {:?} then {:?}",
                w[0],
                w[1]
            );
        }
    }
}

/// Partitions are always sorted and duplicate-free regardless of input.
#[test]
fn partition_canonical_form() {
    for (case, nodes) in cases("partition-canonical", 128, |rng| {
        let n = rng.uniform_u64(1, 63) as usize;
        (0..n)
            .map(|_| rng.uniform_u64(0, 63) as u32)
            .collect::<Vec<_>>()
    })
    .into_iter()
    .enumerate()
    {
        let p = Partition::new(nodes.iter().copied().map(NodeId::new)).expect("non-empty");
        let slice = p.as_slice();
        assert!(
            slice.windows(2).all(|w| w[0] < w[1]),
            "case {case}: not strictly sorted"
        );
        for n in &nodes {
            assert!(p.contains(NodeId::new(*n)), "case {case}: lost node {n}");
        }
    }
}

/// Overlap is symmetric and consistent with intersection of node sets.
#[test]
fn partition_overlap_matches_set_intersection() {
    for (case, (a, b)) in cases("partition-overlap", 128, |rng| {
        let draw = |rng: &mut DetRng| {
            let n = rng.uniform_u64(1, 15) as usize;
            (0..n)
                .map(|_| rng.uniform_u64(0, 31) as u32)
                .collect::<Vec<_>>()
        };
        let a = draw(rng);
        (a, draw(rng))
    })
    .into_iter()
    .enumerate()
    {
        let pa = Partition::new(a.iter().copied().map(NodeId::new)).expect("non-empty");
        let pb = Partition::new(b.iter().copied().map(NodeId::new)).expect("non-empty");
        let expected = a.iter().any(|x| b.contains(x));
        assert_eq!(pa.overlaps(&pb), expected, "case {case}");
        assert_eq!(
            pa.overlaps(&pb),
            pb.overlaps(&pa),
            "case {case}: asymmetric"
        );
    }
}

/// Merging statistics accumulators matches single-pass accumulation.
#[test]
fn online_stats_merge_is_associative() {
    for (case, (xs, split)) in cases("stats-merge", 128, |rng| {
        let n = rng.uniform_u64(1, 200) as usize;
        let xs: Vec<f64> = (0..n).map(|_| rng.uniform(-1e6, 1e6)).collect();
        let split = rng.uniform_u64(0, 200) as usize;
        (xs, split)
    })
    .into_iter()
    .enumerate()
    {
        let split = split.min(xs.len());
        let all: OnlineStats = xs.iter().copied().collect();
        let mut left: OnlineStats = xs[..split].iter().copied().collect();
        let right: OnlineStats = xs[split..].iter().copied().collect();
        left.merge(&right);
        assert_eq!(left.count(), all.count(), "case {case}");
        assert!(
            (left.mean() - all.mean()).abs() < 1e-6,
            "case {case}: mean {} vs {}",
            left.mean(),
            all.mean()
        );
        assert!(
            (left.population_variance() - all.population_variance()).abs() < 1e-3,
            "case {case}: variance {} vs {}",
            left.population_variance(),
            all.population_variance()
        );
    }
}

/// SWF serialization round-trips any valid job log.
#[test]
fn swf_round_trip() {
    for (case, jobs) in cases("swf-round-trip", 64, |rng| {
        let n = rng.uniform_u64(0, 59) as usize;
        (0..n)
            .map(|_| {
                (
                    rng.uniform_u64(0, 99_999),
                    rng.uniform_u64(1, 255) as u32,
                    rng.uniform_u64(1, 999_999),
                )
            })
            .collect::<Vec<_>>()
    })
    .into_iter()
    .enumerate()
    {
        let jobs: Vec<Job> = jobs
            .iter()
            .enumerate()
            .map(|(i, (arrive, nodes, runtime))| {
                Job::new(
                    JobId::new(i as u64),
                    SimTime::from_secs(*arrive),
                    *nodes,
                    SimDuration::from_secs(*runtime),
                )
                .expect("valid")
            })
            .collect();
        let log = JobLog::new(jobs).expect("unique ids");
        let parsed = parse_swf(&to_swf(&log)).expect("round trip");
        assert_eq!(parsed.log, log, "case {case}");
        assert_eq!(parsed.skipped, 0, "case {case}");
    }
}

/// The trace oracle never returns a probability above its accuracy, never
/// fires on an empty window, and fires only when a detectable failure is
/// inside the window.
#[test]
fn oracle_bounded_by_accuracy() {
    for (case, (failures, accuracy, start, len)) in cases("oracle-bound", 128, |rng| {
        let failures = random_failures(rng, 100, 10_000, 16);
        (
            failures,
            rng.unit(),
            rng.uniform_u64(0, 9_999),
            rng.uniform_u64(1, 4_999),
        )
    })
    .into_iter()
    .enumerate()
    {
        let trace = Arc::new(FailureTrace::new(failures.clone()).expect("valid detectabilities"));
        let oracle = TraceOracle::new(Arc::clone(&trace), accuracy).expect("valid accuracy");
        let nodes: Vec<NodeId> = (0..16).map(NodeId::new).collect();
        let window = TimeWindow::new(SimTime::from_secs(start), SimTime::from_secs(start + len));
        let pf = oracle.failure_probability(&nodes, window);
        assert!(
            pf <= accuracy + 1e-12,
            "case {case}: pf {pf} > a {accuracy}"
        );
        let any_detectable = failures
            .iter()
            .any(|f| window.contains(f.time) && f.detectability <= accuracy);
        if !any_detectable {
            assert_eq!(pf, 0.0, "case {case}: fired without a detectable failure");
        }
        // Empty window never fires.
        let empty = TimeWindow::new(SimTime::from_secs(start), SimTime::from_secs(start));
        assert_eq!(
            oracle.failure_probability(&nodes, empty),
            0.0,
            "case {case}"
        );
    }
}

/// Reservation books never double-book: after any sequence of adds, every
/// pair of overlapping-time reservations is node-disjoint, and
/// `free_nodes_during` never reports a committed node.
#[test]
fn reservation_book_never_double_books() {
    for (case, requests) in cases("reservation-book", 64, |rng| {
        let n = rng.uniform_u64(1, 40) as usize;
        (0..n)
            .map(|_| {
                (
                    rng.uniform_u64(0, 15) as u32,
                    rng.uniform_u64(1, 7) as u32,
                    rng.uniform_u64(0, 499),
                    rng.uniform_u64(1, 199),
                )
            })
            .collect::<Vec<_>>()
    })
    .into_iter()
    .enumerate()
    {
        let mut book = ReservationBook::new(16);
        for (i, (start_node, len, t, dur)) in requests.iter().enumerate() {
            let first = (*start_node).min(15);
            let size = (*len).min(16 - first);
            if size == 0 {
                continue;
            }
            let partition = Partition::contiguous(first, size);
            let window = TimeWindow::new(SimTime::from_secs(*t), SimTime::from_secs(t + dur));
            // Adds may fail with conflicts; that is the point.
            let _ = book.add(JobId::new(i as u64), partition, window);
        }
        let all: Vec<_> = book.iter().map(|(_, r)| r.clone()).collect();
        for (i, a) in all.iter().enumerate() {
            for b in &all[i + 1..] {
                let time_overlap =
                    a.interval.start() < b.interval.end() && b.interval.start() < a.interval.end();
                if time_overlap {
                    assert!(
                        !a.partition.overlaps(&b.partition),
                        "case {case}: double-booked {} and {}",
                        a.partition,
                        b.partition
                    );
                }
            }
            let free = book.free_nodes_during(a.interval, &[]);
            for n in a.partition.iter() {
                assert!(!free.contains(&n), "case {case}: committed node {n} free");
            }
        }
    }
}

/// One world the reservation-book harnesses run in: a cluster width and a
/// time grid. Widths past 64 make every timeline row multi-word (130 has a
/// ragged last word, 1,024 is the sharded daemon's row), and a coarse grid
/// makes reservations share and coincide on boundaries, so rows are
/// refcounted, split and merged rather than merely inserted.
#[derive(Debug, Clone, Copy)]
struct BookWorld {
    nodes: u32,
    grid: u64,
    cases: usize,
}

const BOOK_WORLDS: [BookWorld; 5] = [
    BookWorld {
        nodes: 24,
        grid: 1,
        cases: 48,
    },
    BookWorld {
        nodes: 24,
        grid: 50,
        cases: 32,
    },
    BookWorld {
        nodes: 130,
        grid: 1,
        cases: 24,
    },
    BookWorld {
        nodes: 130,
        grid: 50,
        cases: 24,
    },
    BookWorld {
        nodes: 1024,
        grid: 25,
        cases: 8,
    },
];

/// One step of a randomized reservation-book history.
enum BookOp {
    Add {
        nodes: Vec<u32>,
        start: u64,
        dur: u64,
    },
    Remove {
        pick: u64,
    },
    Query {
        window: (u64, u64),
        exclude: Vec<u32>,
        from: u64,
        size: u32,
        dur: u64,
        max_slots: usize,
    },
}

impl BookOp {
    /// Draws one op; `query_weight` in ten draws are queries, the rest
    /// split between adds (most) and removes.
    fn draw(rng: &mut DetRng, world: BookWorld, query_weight: u64) -> BookOp {
        let BookWorld { nodes, grid, .. } = world;
        let snap = |t: u64| t / grid * grid;
        let last = u64::from(nodes) - 1;
        match rng.uniform_u64(0, 9) {
            k if k >= 10 - query_weight => BookOp::Query {
                window: {
                    let a = snap(rng.uniform_u64(0, 900));
                    // Bias in zero-length windows: both books must agree
                    // they are strictly-spanning point queries.
                    let b = if rng.uniform_u64(0, 6) == 0 {
                        a
                    } else {
                        snap(rng.uniform_u64(0, 900))
                    };
                    (a, b)
                },
                exclude: {
                    // Includes out-of-range node ids on purpose; wide
                    // clusters sometimes lose a long run of nodes.
                    let mut ids: Vec<u32> = (0..rng.uniform_u64(0, 4))
                        .map(|_| rng.uniform_u64(0, last + 7) as u32)
                        .collect();
                    if nodes > 64 && rng.uniform_u64(0, 3) == 0 {
                        let first = rng.uniform_u64(0, last) as u32;
                        ids.extend(first..(first + 70).min(nodes + 3));
                    }
                    ids
                },
                from: snap(rng.uniform_u64(0, 900)),
                // Uniform, so mostly not a power of two.
                size: rng.uniform_u64(1, u64::from(nodes)) as u32,
                dur: rng.uniform_u64(1, 300),
                max_slots: rng.uniform_u64(1, 6) as usize,
            },
            0 | 1 => BookOp::Remove {
                pick: rng.next_u64(),
            },
            _ => BookOp::Add {
                nodes: if rng.uniform_u64(0, 2) == 0 {
                    // A dense run, up to a third of the cluster: free
                    // counts move in large, odd steps.
                    let first = rng.uniform_u64(0, last);
                    let len = rng.uniform_u64(1, u64::from(nodes) / 3);
                    (first..(first + len).min(last + 1))
                        .map(|n| n as u32)
                        .collect()
                } else {
                    (0..rng.uniform_u64(1, 8))
                        .map(|_| rng.uniform_u64(0, last) as u32)
                        .collect()
                },
                start: snap(rng.uniform_u64(0, 600)),
                dur: snap(rng.uniform_u64(1, 250)).max(grid),
            },
        }
    }
}

fn pick_id(issued: &[ReservationId], pick: u64) -> Option<ReservationId> {
    if issued.is_empty() {
        None
    } else {
        Some(issued[(pick % issued.len() as u64) as usize])
    }
}

/// Checks the timeline's invariants (row layout, masks, refcounts, skip
/// index) against a from-scratch recomputation. `check_invariants` exists
/// only with debug assertions on (and in the book's own unit tests); a
/// `--release` run of this suite keeps the parity assertions.
fn check_book(book: &ReservationBook) {
    #[cfg(debug_assertions)]
    book.check_invariants();
    #[cfg(not(debug_assertions))]
    let _ = book;
}

/// The ids a history has issued, and an ordered model of the live ones.
///
/// The naive book has no `iter` or `get`, so the fast book's index is
/// checked against this model instead: every successful add inserts into
/// `live`, every successful remove takes out of it, and `ids` keeps every
/// id ever handed out, removed ones included.
#[derive(Default)]
struct Issued {
    ids: Vec<ReservationId>,
    live: BTreeMap<ReservationId, Reservation>,
}

impl Issued {
    /// Asserts that `fast` lists exactly the model's live reservations in
    /// id (insertion) order, and that `get` agrees with the model on every
    /// issued id, removed ones included.
    fn check_index(&self, fast: &ReservationBook, at: &str) {
        assert!(
            fast.iter().eq(self.live.iter().map(|(id, r)| (*id, r))),
            "{at}: iter() is not the live reservations in id order"
        );
        for id in &self.ids {
            assert_eq!(fast.get(*id), self.live.get(id), "{at}: get({id}) diverges");
        }
    }

    /// Removes `id` from both books and the model, asserting they agree.
    fn remove(
        &mut self,
        fast: &mut ReservationBook,
        naive: &mut NaiveReservationBook,
        id: ReservationId,
        at: &str,
    ) {
        let removed = fast.remove(id);
        assert_eq!(removed, naive.remove(id), "{at}: removals diverge");
        assert_eq!(
            removed,
            self.live.remove(&id),
            "{at}: removal disagrees with the model"
        );
    }
}

/// Applies history step `i` to both books and asserts they agree on it:
/// the same add outcome (including which conflict is reported), the same
/// removed reservation, and bit-identical `free_nodes_during`,
/// `change_points` and `earliest_slots` answers — with the timeline's
/// invariants and the fast book's index (against `issued`'s model)
/// re-checked after.
fn apply_to_both(
    fast: &mut ReservationBook,
    naive: &mut NaiveReservationBook,
    issued: &mut Issued,
    i: usize,
    op: &BookOp,
    at: &str,
) {
    match op {
        BookOp::Add { nodes, start, dur } => {
            let partition =
                Partition::new(nodes.iter().copied().map(NodeId::new)).expect("non-empty");
            let window =
                TimeWindow::new(SimTime::from_secs(*start), SimTime::from_secs(start + dur));
            let job = JobId::new(i as u64);
            let a = fast.add(job, partition.clone(), window);
            let b = naive.add(job, partition.clone(), window);
            assert_eq!(a, b, "{at}: add outcomes diverge");
            if let Ok(id) = a {
                issued.ids.push(id);
                let r = Reservation {
                    job,
                    partition,
                    interval: window,
                };
                assert!(issued.live.insert(id, r).is_none(), "{at}: {id} reissued");
            }
        }
        BookOp::Remove { pick } => {
            if let Some(id) = pick_id(&issued.ids, *pick) {
                issued.remove(fast, naive, id, at);
            }
        }
        BookOp::Query {
            window,
            exclude,
            from,
            size,
            dur,
            max_slots,
        } => {
            let w = TimeWindow::new(SimTime::from_secs(window.0), SimTime::from_secs(window.1));
            let excl: Vec<NodeId> = exclude.iter().copied().map(NodeId::new).collect();
            assert_eq!(
                fast.free_nodes_during(w, &excl),
                naive.free_nodes_during(w, &excl),
                "{at}: free_nodes_during({w:?}) diverges"
            );
            let from = SimTime::from_secs(*from);
            assert_eq!(
                fast.change_points(from),
                naive.change_points(from),
                "{at}: change_points({from}) diverges"
            );
            let dur = SimDuration::from_secs(*dur);
            assert_eq!(
                fast.earliest_slots(*size, dur, from, &excl, *max_slots),
                naive.earliest_slots(*size, dur, from, &excl, *max_slots),
                "{at}: earliest_slots(size={size}) diverges"
            );
        }
    }
    check_book(fast);
    issued.check_index(fast, at);
    assert_eq!(fast.len(), naive.len(), "{at}: live counts diverge");
}

/// The timeline book and the naive scan-everything reference answer every
/// query identically across randomized add/remove histories
/// ([`apply_to_both`] after every step).
#[test]
fn timeline_reservation_book_matches_naive_reference() {
    for world in BOOK_WORLDS {
        let label = format!("book-parity-{}-{}", world.nodes, world.grid);
        for (case, ops) in cases(&label, world.cases, |rng| {
            let n = rng.uniform_u64(4, 48) as usize;
            (0..n)
                .map(|_| BookOp::draw(rng, world, 4))
                .collect::<Vec<_>>()
        })
        .into_iter()
        .enumerate()
        {
            let mut fast = ReservationBook::new(world.nodes);
            let mut naive = NaiveReservationBook::new(world.nodes);
            let mut issued = Issued::default();
            for (i, op) in ops.iter().enumerate() {
                let at = format!("{world:?} case {case} op {i}");
                apply_to_both(&mut fast, &mut naive, &mut issued, i, op, &at);
            }
            // Final sweep from several origins, including past every
            // commitment, for a small and a most-of-the-cluster job.
            for from in [0u64, 450, 2000] {
                let from = SimTime::from_secs(from);
                assert_eq!(
                    fast.change_points(from),
                    naive.change_points(from),
                    "{world:?} case {case}: final change_points({from}) diverges"
                );
                for size in [3, world.nodes * 3 / 4] {
                    assert_eq!(
                        fast.earliest_slots(size, SimDuration::from_secs(120), from, &[], 8),
                        naive.earliest_slots(size, SimDuration::from_secs(120), from, &[], 8),
                        "{world:?} case {case}: final earliest_slots({size}, {from}) diverges"
                    );
                }
            }
        }
    }
}

/// The same parity over histories deep enough to span many timeline chunks
/// (a chunk holds at most 256 rows; the worlds above never fill one): a
/// one-second grid over a long horizon, several hundred ops, bursts of
/// inserts at the front of the book, and drains that empty whole stretches
/// of it, so chunks split and merge away between comparisons.
#[test]
fn timeline_reservation_book_matches_naive_reference_across_chunks() {
    const NODES: u32 = 130;
    const HORIZON: u64 = 30_000;
    /// A history step: an op, or the removal of every live reservation
    /// starting in `[from, to)`.
    enum Step {
        Op(BookOp),
        Drain(u64, u64),
    }
    fn add(rng: &mut DetRng, from: u64, to: u64) -> Step {
        let first = rng.uniform_u64(0, u64::from(NODES) - 1);
        let end = (first + rng.uniform_u64(1, 12)).min(u64::from(NODES));
        Step::Op(BookOp::Add {
            nodes: (first..end).map(|n| n as u32).collect(),
            start: rng.uniform_u64(from, to),
            dur: rng.uniform_u64(1, 400),
        })
    }
    /// Probes of every size, skewed large: many ask for more nodes than a
    /// typical row has free, so walks hop rows and chunks to find slots.
    fn queries(rng: &mut DetRng) -> impl Iterator<Item = Step> + '_ {
        (0..3).map(|_| {
            let a = rng.uniform_u64(0, HORIZON);
            Step::Op(BookOp::Query {
                window: (a, a + rng.uniform_u64(0, 2_000)),
                exclude: (0..rng.uniform_u64(0, 3))
                    .map(|_| rng.uniform_u64(0, u64::from(NODES)) as u32)
                    .collect(),
                from: rng.uniform_u64(0, HORIZON),
                size: rng
                    .uniform_u64(1, u64::from(NODES))
                    .max(rng.uniform_u64(1, u64::from(NODES))) as u32,
                dur: rng.uniform_u64(1, 3_000),
                max_slots: rng.uniform_u64(1, 6) as usize,
            })
        })
    }

    for (case, steps) in cases("book-parity-chunks", 4, |rng| {
        let mut steps = Vec::new();
        // Fill the horizon in no particular order.
        for k in 0..700 {
            steps.push(add(rng, 0, HORIZON));
            if k % 25 == 24 {
                steps.extend(queries(rng));
            }
        }
        // Bursts at the very front: every insert lands in the first chunk.
        for _ in 0..3 {
            steps.extend((0..40).map(|_| add(rng, 0, 300)));
            steps.extend(queries(rng));
        }
        // Scattered removes.
        for _ in 0..40 {
            steps.push(Step::Op(BookOp::Remove {
                pick: rng.next_u64(),
            }));
        }
        // Drain a quarter of the horizon at a time, then everything.
        for _ in 0..3 {
            let from = rng.uniform_u64(0, HORIZON);
            steps.push(Step::Drain(from, from + HORIZON / 4));
            steps.extend(queries(rng));
        }
        steps.push(Step::Drain(0, u64::MAX));
        steps.extend(queries(rng));
        steps
    })
    .into_iter()
    .enumerate()
    {
        let mut fast = ReservationBook::new(NODES);
        let mut naive = NaiveReservationBook::new(NODES);
        let mut issued = Issued::default();
        let mut deepest = 0;
        for (i, step) in steps.iter().enumerate() {
            let at = format!("chunked case {case} step {i}");
            match step {
                Step::Op(op) => apply_to_both(&mut fast, &mut naive, &mut issued, i, op, &at),
                Step::Drain(from, to) => {
                    let doomed: Vec<ReservationId> = fast
                        .iter()
                        .filter(|(_, r)| (*from..*to).contains(&r.interval.start().as_secs()))
                        .map(|(id, _)| id)
                        .collect();
                    for id in doomed {
                        issued.remove(&mut fast, &mut naive, id, &at);
                        check_book(&fast);
                    }
                    issued.check_index(&fast, &at);
                }
            }
            deepest = deepest.max(fast.change_points(SimTime::ZERO).len() - 1);
        }
        // More rows than three full chunks hold: at least four chunks.
        assert!(deepest > 3 * 256, "case {case}: only {deepest} rows");
        assert!(fast.is_empty() && naive.is_empty());
    }
}

/// Quote-cache fuzz: interleave mutations and probes on a
/// [`CachedReservationBook`] and require every answer it serves — memo
/// hit, cold miss, or post-invalidation re-walk — to byte-match the same
/// probe against a *fresh* uncached [`ReservationBook`] rebuilt from the
/// live reservations (and against the naive executable specification),
/// with the in-place-edited timeline's invariants re-checked after every
/// mutation.
#[test]
fn quote_cache_fuzz_matches_fresh_uncached_books() {
    use pqos_sched::cache::CachedReservationBook;

    for world in BOOK_WORLDS {
        let label = format!("quote-cache-fuzz-{}-{}", world.nodes, world.grid);
        for (case, ops) in cases(&label, world.cases.min(32), |rng| {
            let n = rng.uniform_u64(8, 56) as usize;
            (0..n)
                .map(|_| BookOp::draw(rng, world, 5))
                .collect::<Vec<_>>()
        })
        .into_iter()
        .enumerate()
        {
            let mut cached = CachedReservationBook::new(world.nodes);
            let mut issued = Vec::new();
            let mut probes = 0u64;
            for (i, op) in ops.iter().enumerate() {
                let at = format!("{world:?} case {case} op {i}");
                match op {
                    BookOp::Add { nodes, start, dur } => {
                        let partition = Partition::new(nodes.iter().copied().map(NodeId::new))
                            .expect("non-empty");
                        let window = TimeWindow::new(
                            SimTime::from_secs(*start),
                            SimTime::from_secs(start + dur),
                        );
                        if let Ok(id) = cached.add(JobId::new(i as u64), partition, window) {
                            issued.push(id);
                        }
                    }
                    BookOp::Remove { pick } => {
                        if let Some(id) = pick_id(&issued, *pick) {
                            let _ = cached.remove(id);
                        }
                    }
                    BookOp::Query {
                        from,
                        size,
                        dur,
                        exclude,
                        max_slots,
                        ..
                    } => {
                        // Rebuild pristine books from the live reservations:
                        // no incrementally edited timeline, no memo.
                        let mut fresh = ReservationBook::new(world.nodes);
                        let mut naive = NaiveReservationBook::new(world.nodes);
                        for (_, r) in cached.iter() {
                            fresh
                                .add(r.job, r.partition.clone(), r.interval)
                                .expect("live reservations rebuild conflict-free");
                            naive
                                .add(r.job, r.partition.clone(), r.interval)
                                .expect("live reservations rebuild conflict-free");
                        }
                        let excl: Vec<NodeId> = exclude.iter().copied().map(NodeId::new).collect();
                        let from = SimTime::from_secs(*from);
                        let dur = SimDuration::from_secs(*dur);
                        let want = fresh.earliest_slots(*size, dur, from, &excl, *max_slots);
                        assert_eq!(
                            cached.earliest_slots(*size, dur, from, &excl, *max_slots),
                            want,
                            "{at}: cached probe diverges from a fresh book"
                        );
                        // Ask again immediately: the memoized answer must be
                        // byte-identical to the walked one.
                        assert_eq!(
                            cached.earliest_slots(*size, dur, from, &excl, *max_slots),
                            want,
                            "{at}: memoized probe diverges from a fresh book"
                        );
                        assert_eq!(
                            naive.earliest_slots(*size, dur, from, &excl, *max_slots),
                            want,
                            "{at}: naive spec diverges from the timeline walk"
                        );
                        probes += 1;
                    }
                }
                check_book(cached.inner());
            }
            let stats = cached.stats();
            assert_eq!(
                stats.hits + stats.misses,
                probes * 2,
                "{world:?} case {case}: every probe is either a hit or a miss"
            );
            // The immediate re-ask of each probe always hits the memo.
            assert!(
                probes == 0 || stats.hits >= probes,
                "{world:?} case {case}: repeated probes must hit the memo ({stats:?})"
            );
        }
    }
}

/// The first `k` slots `view` hands a visitor that stops the walk there.
#[allow(clippy::too_many_arguments)]
fn visit_prefix(
    view: &dyn AvailabilityView,
    size: u32,
    dur: SimDuration,
    from: SimTime,
    exclude: &[NodeId],
    max_slots: usize,
    k: usize,
) -> Vec<Slot> {
    let mut got = Vec::new();
    view.visit_slots(size, dur, from, exclude, max_slots, &mut |start, free| {
        got.push(Slot {
            start,
            free: free.to_vec(),
        });
        if got.len() >= k {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    });
    got
}

/// Places the job on a slot's lazily decoded free set the way negotiation
/// does — before anything else reads it — under every topology, both
/// strategies, blind and under `oracle`, and asserts each placement equals
/// the one over the eager list `eager`.
fn assert_placements_match(
    free: &mut FreeNodes<'_>,
    eager: &[NodeId],
    size: u32,
    window: TimeWindow,
    oracle: &TraceOracle,
    at: &str,
) {
    use pqos_cluster::topology::Topology;
    use pqos_predict::api::NullPredictor;
    use pqos_sched::place::{choose_partition, choose_partition_with_telemetry, PlacementStrategy};
    use pqos_telemetry::Telemetry;

    fn check<P: Predictor>(
        free: &mut FreeNodes<'_>,
        eager: &[NodeId],
        size: u32,
        window: TimeWindow,
        predictor: &P,
        at: &str,
    ) {
        for topology in [
            Topology::Flat,
            Topology::Line,
            Topology::Torus3d { x: 2, y: 3, z: 4 },
        ] {
            for strategy in [
                PlacementStrategy::FirstFit,
                PlacementStrategy::MinFailureProbability,
            ] {
                assert_eq!(
                    choose_partition_with_telemetry(
                        topology,
                        free,
                        size,
                        window,
                        predictor,
                        strategy,
                        &Telemetry::disabled(),
                    ),
                    choose_partition(topology, eager, size, window, predictor, strategy),
                    "{at}: {topology} {strategy} size {size} under {}",
                    std::any::type_name::<P>()
                );
            }
        }
    }
    check(free, eager, size, window, &NullPredictor, at);
    check(free, eager, size, window, oracle, at);
}

/// Lazy is a prefix of eager, on every view: a `visit_slots` walk stopped
/// after `k` slots hands over exactly the first `min(k, len)` slots of the
/// naive specification's `earliest_slots` — for the timeline book, the
/// cached book (memo prefixes left behind by earlier, shorter visits
/// included: the histories interleave mutations, and every key is asked
/// with growing and shrinking `k`), the naive book itself, and a 3-shard
/// merged view over the same reservations cut along shard boundaries
/// (`partition_spans` of 24, 130 and 1,024 nodes: bases that are not
/// multiples of 64, widths with a remainder). Each slot's lazy free set
/// is placed on first — every topology, blind and under a `TraceOracle` —
/// and then still decodes to the eager list.
#[test]
fn lazy_visit_is_a_prefix_of_eager_on_every_view() {
    use pqos_sched::cache::CachedReservationBook;
    use pqos_service::shard::{partition_spans, MergedAvailabilityView};

    for world in BOOK_WORLDS {
        let label = format!("lazy-prefix-{}-{}", world.nodes, world.grid);
        let spans = partition_spans(world.nodes, 3);
        for (case, (ops, failures)) in cases(&label, world.cases.min(16), |rng| {
            let n = rng.uniform_u64(8, 40) as usize;
            let ops = (0..n)
                .map(|_| BookOp::draw(rng, world, 4))
                .collect::<Vec<_>>();
            (
                ops,
                random_failures(rng, u64::from(world.nodes) / 2, 1_500, world.nodes),
            )
        })
        .into_iter()
        .enumerate()
        {
            let trace = FailureTrace::new(failures).expect("valid trace");
            let oracle = TraceOracle::new(Arc::new(trace), 0.8).expect("valid accuracy");
            let mut fast = ReservationBook::new(world.nodes);
            let mut cached = CachedReservationBook::new(world.nodes);
            let mut naive = NaiveReservationBook::new(world.nodes);
            // One book per shard; a reservation of the whole machine is one
            // slice in every shard it touches.
            let mut shards: Vec<ReservationBook> = spans
                .iter()
                .map(|span| ReservationBook::new(span.width))
                .collect();
            let mut issued = Vec::new();
            let mut slices = Vec::new();
            let mut visits = 0u64;
            for (i, op) in ops.iter().enumerate() {
                let at = format!("{world:?} case {case} op {i}");
                match op {
                    BookOp::Add { nodes, start, dur } => {
                        let partition = Partition::new(nodes.iter().copied().map(NodeId::new))
                            .expect("non-empty");
                        let window = TimeWindow::new(
                            SimTime::from_secs(*start),
                            SimTime::from_secs(start + dur),
                        );
                        let job = JobId::new(i as u64);
                        let Ok(id) = fast.add(job, partition.clone(), window) else {
                            continue;
                        };
                        assert_eq!(cached.add(job, partition.clone(), window), Ok(id));
                        assert_eq!(naive.add(job, partition.clone(), window), Ok(id));
                        issued.push(id);
                        let cut = spans.iter().enumerate().filter_map(|(k, span)| {
                            let local = partition
                                .iter()
                                .map(|n| n.as_u32())
                                .filter(|n| (span.base..span.base + span.width).contains(n))
                                .map(|n| NodeId::new(n - span.base));
                            let slice = Partition::new(local).ok()?;
                            let id = shards[k].add(job, slice, window);
                            Some((k, id.expect("slices never conflict")))
                        });
                        slices.push(cut.collect::<Vec<_>>());
                    }
                    BookOp::Remove { pick } => {
                        let Some(id) = pick_id(&issued, *pick) else {
                            continue;
                        };
                        let at = issued.iter().position(|&known| known == id).unwrap();
                        for &(k, slice) in &slices[at] {
                            shards[k].remove(slice);
                        }
                        fast.remove(id);
                        cached.remove(id);
                        naive.remove(id);
                    }
                    BookOp::Query {
                        exclude,
                        from,
                        size,
                        dur,
                        max_slots,
                        ..
                    } => {
                        let excl: Vec<NodeId> = exclude.iter().copied().map(NodeId::new).collect();
                        let from = SimTime::from_secs(*from);
                        let dur = SimDuration::from_secs(*dur);
                        let merged = MergedAvailabilityView::new(
                            shards
                                .iter()
                                .map(|book| book as &(dyn AvailabilityView + Sync))
                                .collect(),
                            spans.iter().map(|span| span.base).collect(),
                        );
                        let want = naive.earliest_slots(*size, dur, from, &excl, *max_slots);
                        // Shrinking after growing: the cached book answers
                        // the later, shorter visits out of a longer prefix.
                        for (pass, k) in [1, 2, max_slots - 1, *max_slots, max_slots + 1, 1]
                            .into_iter()
                            .enumerate()
                        {
                            if k == 0 {
                                continue;
                            }
                            // Placed on in the first pass (the cached book
                            // walks) and the last (it replays its memo).
                            let place = pass == 0 || pass == 5;
                            let views: [(&str, &dyn AvailabilityView); 4] = [
                                ("timeline", &fast),
                                ("cached", &cached),
                                ("naive", &naive),
                                ("merged", &merged),
                            ];
                            for (name, view) in views {
                                let at = format!("{at}: {name} visit stopped after {k}");
                                let mut got = Vec::new();
                                view.visit_slots(
                                    *size,
                                    dur,
                                    from,
                                    &excl,
                                    *max_slots,
                                    &mut |start, free| {
                                        if place {
                                            let eager = &want[got.len().min(want.len() - 1)].free;
                                            let window = TimeWindow::starting_at(start, dur);
                                            let at = format!("{at}, slot {}", got.len());
                                            assert_placements_match(
                                                free, eager, *size, window, &oracle, &at,
                                            );
                                        }
                                        got.push(Slot {
                                            start,
                                            free: free.to_vec(),
                                        });
                                        match got.len() >= k {
                                            true => ControlFlow::Break(()),
                                            false => ControlFlow::Continue(()),
                                        }
                                    },
                                );
                                assert_eq!(got, want[..k.min(want.len())], "{at} of {max_slots}");
                            }
                            visits += 1;
                        }
                    }
                }
                check_book(cached.inner());
            }
            let stats = cached.stats();
            assert_eq!(
                stats.hits + stats.misses,
                visits,
                "{world:?} case {case}: every visit is either a hit or a miss"
            );
        }
    }
}

/// The quote memo stores the prefix a walk produced, pinned path by path
/// through its counters: a visit that outlives an unfinished prefix turns
/// its hit into a miss and replaces the entry; a prefix's coverage ends
/// with the last window the *stopped* walk examined, so a mutation just
/// past it spares the entry and one inside drops it; and a visitor may
/// probe the very book it is being handed slots from.
#[test]
fn quote_memo_stores_the_prefix_the_walk_produced() {
    use pqos_sched::cache::{CachedReservationBook, QuoteCacheStats};

    let w = |a: u64, b: u64| TimeWindow::new(SimTime::from_secs(a), SimTime::from_secs(b));
    let mut cached = CachedReservationBook::new(8);
    for (job, first, len, window) in [(1, 0, 8, w(0, 100)), (2, 0, 2, w(300, 400))] {
        cached
            .add(JobId::new(job), Partition::contiguous(first, len), window)
            .unwrap();
    }
    // Four nodes for 50 s from t=0: slots at 100, 300 and 400, then the
    // book runs out — one short of the four asked for.
    let (size, dur, from, max) = (4, SimDuration::from_secs(50), SimTime::ZERO, 4);
    let probe = |book: &CachedReservationBook, k| visit_prefix(book, size, dur, from, &[], max, k);
    let full = cached.inner().earliest_slots(size, dur, from, &[], max);
    assert_eq!(
        full.iter().map(|s| s.start.as_secs()).collect::<Vec<_>>(),
        [100, 300, 400]
    );
    let counters = |book: &CachedReservationBook| {
        let QuoteCacheStats {
            hits,
            misses,
            entries_invalidated,
            ..
        } = book.stats();
        (hits, misses, entries_invalidated, book.memo_len())
    };

    // Stop at the first slot: a miss that stores a one-slot prefix.
    assert_eq!(probe(&cached, 1), full[..1]);
    assert_eq!(counters(&cached), (0, 1, 0, 1));
    // The prefix was examined up to t=150 only. A booking from there on
    // spares it (the eager walk's coverage, off the end of the book, would
    // not have); the same shape again is a hit.
    let spared = cached
        .add(JobId::new(3), Partition::contiguous(7, 1), w(150, 160))
        .unwrap();
    assert_eq!(counters(&cached), (0, 1, 0, 1));
    assert_eq!(probe(&cached, 1), full[..1]);
    assert_eq!(counters(&cached), (1, 1, 0, 1));
    // One second inside the coverage drops it.
    let inside = cached
        .add(JobId::new(4), Partition::contiguous(6, 1), w(149, 150))
        .unwrap();
    assert_eq!(counters(&cached), (1, 1, 1, 0));
    for id in [spared, inside] {
        cached.remove(id).unwrap();
    }

    // Stop at k1, then ask the same key for k2 > k1: the replayed hit turns
    // into a miss, the longer prefix replaces the entry, the answer is right.
    let before = counters(&cached);
    assert_eq!(probe(&cached, 1), full[..1]);
    assert_eq!(probe(&cached, 2), full[..2]);
    assert_eq!(
        counters(&cached),
        (before.0, before.1 + 2, before.2, 1),
        "one miss to seed, one hit-turned-miss, still one entry"
    );
    // Shorter visits, and the one that stops exactly where the prefix
    // ends, replay it.
    assert_eq!(probe(&cached, 1), full[..1]);
    assert_eq!(probe(&cached, 2), full[..2]);
    assert_eq!(counters(&cached), (before.0 + 2, before.1 + 2, before.2, 1));
    // The eager collector outlives it too — once; its walk ran off the
    // book, so the entry is finished and every later caller hits.
    assert_eq!(cached.earliest_slots(size, dur, from, &[], max), full);
    assert_eq!(cached.earliest_slots(size, dur, from, &[], max), full);
    assert_eq!(probe(&cached, 3), full);
    assert_eq!(counters(&cached), (before.0 + 4, before.1 + 3, before.2, 1));

    // A visitor that probes the book it is visiting — the cached one and
    // the timeline under it — sees the same answers, and the outer walk
    // carries on undisturbed.
    let cold = cached.clone();
    for view in [&cold as &dyn AvailabilityView, cold.inner()] {
        let mut outer = Vec::new();
        view.visit_slots(size, dur, from, &[], max, &mut |start, free| {
            assert_eq!(view.earliest_slots(size, dur, from, &[], max), full);
            assert_eq!(
                view.earliest_slots(2, dur, start, &[], 1)[0].start,
                start,
                "a slot for four holds two"
            );
            outer.push((start, free.to_vec()));
            ControlFlow::Continue(())
        });
        let full: Vec<_> = full.iter().map(|s| (s.start, s.free.clone())).collect();
        assert_eq!(outer, full);
    }
}

/// Execution plans: totals are runtime plus one overhead per request, and
/// requests never reach the finish boundary.
#[test]
fn execution_plan_arithmetic() {
    for (case, (runtime, interval, overhead)) in cases("execution-plan", 256, |rng| {
        (
            rng.uniform_u64(1, 999_999),
            rng.uniform_u64(1, 99_999),
            rng.uniform_u64(0, 9_999),
        )
    })
    .into_iter()
    .enumerate()
    {
        let plan = planned_execution(
            SimDuration::from_secs(runtime),
            SimDuration::from_secs(interval),
            SimDuration::from_secs(overhead),
        );
        assert_eq!(
            plan.total.as_secs(),
            runtime + plan.requests * overhead,
            "case {case}"
        );
        assert!(plan.requests * interval < runtime, "case {case}");
        assert!((plan.requests + 1) * interval >= runtime, "case {case}");
    }
}

/// End-to-end simulator invariants on arbitrary small workloads: every job
/// completes, metrics stay in range, and replay is deterministic.
#[test]
fn simulator_invariants() {
    use pqos_telemetry::{Telemetry, TelemetryEvent};
    use std::collections::HashMap;

    for (case, (jobs, failures, accuracy, threshold)) in cases("simulator", 24, |rng| {
        let n = rng.uniform_u64(1, 25) as usize;
        let jobs: Vec<(u64, u32, u64)> = (0..n)
            .map(|_| {
                (
                    rng.uniform_u64(0, 4_999),
                    rng.uniform_u64(1, 7) as u32,
                    rng.uniform_u64(30, 6_999),
                )
            })
            .collect();
        let failures = random_failures(rng, 12, 20_000, 8);
        (jobs, failures, rng.unit(), rng.unit())
    })
    .into_iter()
    .enumerate()
    {
        let log = JobLog::new(
            jobs.iter()
                .enumerate()
                .map(|(i, (arrive, nodes, runtime))| {
                    Job::new(
                        JobId::new(i as u64),
                        SimTime::from_secs(*arrive),
                        *nodes,
                        SimDuration::from_secs(*runtime),
                    )
                    .expect("valid")
                })
                .collect(),
        )
        .expect("unique ids");
        let trace = Arc::new(FailureTrace::new(failures).expect("valid"));
        let config = SimConfig::paper_defaults()
            .cluster_size_nodes(8)
            .accuracy(accuracy)
            .user(UserStrategy::risk_threshold(threshold).expect("valid"));
        let telemetry = Telemetry::builder().ring_buffer(1 << 16).build();
        let out = QosSimulator::new(config.clone(), log.clone(), Arc::clone(&trace))
            .with_telemetry(telemetry.clone())
            .run();
        assert_eq!(
            out.report.jobs + out.rejected.len(),
            jobs.len(),
            "case {case}"
        );
        assert!(
            out.report.qos >= 0.0 && out.report.qos <= 1.0 + 1e-12,
            "case {case}: qos {}",
            out.report.qos
        );
        assert!(
            out.report.utilization >= 0.0 && out.report.utilization <= 1.0 + 1e-12,
            "case {case}: utilization {}",
            out.report.utilization
        );
        assert!(
            out.report.qos <= out.report.mean_promise + 1e-9,
            "case {case}"
        );
        // No job starts or finishes before it arrives, and every promise
        // is a probability.
        let mut arrived = HashMap::new();
        let events = telemetry.ring_events();
        assert!(
            events.len() < 1 << 16,
            "case {case}: the ring kept the journal"
        );
        for event in events {
            match event {
                TelemetryEvent::JobSubmitted { at, job, .. } => {
                    arrived.insert(job, at);
                }
                TelemetryEvent::JobStarted { at, job, .. }
                | TelemetryEvent::JobCompleted { at, job, .. } => {
                    assert!(at >= arrived[&job], "case {case}: job {job} at {at}");
                }
                TelemetryEvent::PromiseResolved {
                    success_probability,
                    ..
                } => {
                    assert!((0.0..=1.0).contains(&success_probability), "case {case}");
                }
                _ => {}
            }
        }
        // Deterministic replay, with or without a journal.
        let again = QosSimulator::new(config, log, trace).run();
        assert_eq!(out.report, again.report, "case {case}: replay diverged");
    }
}

/// The filtering pipeline's temporal invariant: no two kept failures on the
/// same node are closer than the coalescing window.
#[test]
fn filter_output_has_no_same_node_clusters() {
    use pqos_failures::event::{RawEvent, Severity, Subsystem};
    use pqos_failures::filter::{filter_events, FilterConfig};
    let sev = [
        Severity::Info,
        Severity::Warning,
        Severity::Error,
        Severity::Fatal,
        Severity::Failure,
    ];
    let sub = [
        Subsystem::Memory,
        Subsystem::Network,
        Subsystem::Storage,
        Subsystem::NodeSoftware,
        Subsystem::Power,
    ];
    for (case, events) in cases("filter", 64, |rng| {
        let n = rng.uniform_u64(0, 149) as usize;
        (0..n)
            .map(|_| {
                (
                    rng.uniform_u64(0, 199_999),
                    rng.uniform_u64(0, 7) as u32,
                    rng.uniform_u64(0, 4) as usize,
                    rng.uniform_u64(0, 4) as usize,
                )
            })
            .collect::<Vec<_>>()
    })
    .into_iter()
    .enumerate()
    {
        let raw: Vec<RawEvent> = events
            .iter()
            .map(|&(t, n, s, b)| RawEvent {
                time: SimTime::from_secs(t),
                node: NodeId::new(n),
                severity: sev[s],
                subsystem: sub[b],
            })
            .collect();
        let config = FilterConfig::default();
        let (kept, stats) = filter_events(&raw, config);
        assert_eq!(stats.kept, kept.len(), "case {case}");
        assert_eq!(
            stats.raw,
            stats.kept + stats.dropped_severity + stats.dropped_temporal + stats.dropped_spatial,
            "case {case}"
        );
        // Per-node minimum spacing.
        for node in 0..8u32 {
            let times: Vec<u64> = kept
                .iter()
                .filter(|f| f.node == NodeId::new(node))
                .map(|f| f.time.as_secs())
                .collect();
            for w in times.windows(2) {
                assert!(
                    w[1] - w[0] >= config.temporal_window.as_secs(),
                    "case {case}: node {node}: kept failures {w:?} within the window"
                );
            }
        }
    }
}

/// Every candidate partition any topology produces is valid for that
/// topology, has the requested size, and uses only free nodes.
#[test]
fn topology_candidates_are_valid() {
    use pqos_cluster::topology::Topology;
    for (case, (free_bits, size)) in cases("topology", 64, |rng| {
        let bits: Vec<bool> = (0..64).map(|_| rng.chance(0.5)).collect();
        (bits, rng.uniform_u64(1, 15) as usize)
    })
    .into_iter()
    .enumerate()
    {
        let free: Vec<NodeId> = free_bits
            .iter()
            .enumerate()
            .filter(|(_, &b)| b)
            .map(|(i, _)| NodeId::new(i as u32))
            .collect();
        for topology in [
            Topology::Flat,
            Topology::Line,
            Topology::Torus3d { x: 4, y: 4, z: 4 },
        ] {
            for c in topology.candidate_partitions(&free, size) {
                assert_eq!(c.len(), size, "case {case}");
                assert!(
                    topology.is_valid_partition(&c),
                    "case {case}: {c} invalid for {topology}"
                );
                for n in c.iter() {
                    assert!(free.contains(&n), "case {case}: {n} not free");
                }
            }
        }
    }
}

/// Every journal line `to_jsonl` produces parses back to the identical
/// event, across all 13 variants and hostile field values: `u64::MAX`
/// timestamps and counters, huge node arrays, and floats from the full
/// finite range (subnormals through `f64::MAX`, negative zero included).
#[test]
fn telemetry_jsonl_round_trips_any_event() {
    use pqos_telemetry::{one_of_each, SkipReason, TelemetryEvent};

    // The curated sampler first: one of every wire shape.
    for event in one_of_each() {
        let line = event.to_jsonl();
        assert_eq!(
            TelemetryEvent::from_jsonl(&line),
            Some(event),
            "one_of_each round trip changed {line}"
        );
    }

    // A u64 biased toward the edges where encodings break.
    fn hostile_u64(rng: &mut DetRng) -> u64 {
        match rng.uniform_u64(0, 4) {
            0 => rng.uniform_u64(0, 1_000_000),
            1 => u64::MAX - rng.uniform_u64(0, 9),
            2 => (1u64 << 53) + rng.uniform_u64(0, 9), // beyond f64 integer precision
            3 => rng.next_u64(),
            _ => 0,
        }
    }
    // Any finite f64; `{v:?}` uses the shortest round-trippable form, so
    // subnormals and extremes must survive too. NaN/±inf are excluded by
    // contract: the writer encodes them as `null` (tested elsewhere).
    fn hostile_f64(rng: &mut DetRng) -> f64 {
        match rng.uniform_u64(0, 5) {
            0 => rng.unit(),
            1 => -0.0,
            2 => f64::MIN_POSITIVE * rng.unit(), // subnormal territory
            3 => f64::MAX * (rng.unit() * 2.0 - 1.0),
            4 => rng.uniform(-1e-300, 1e-300),
            _ => 1.0,
        }
    }
    let reasons = [
        SkipReason::LowRisk,
        SkipReason::DeadlinePressure,
        SkipReason::Policy,
    ];

    for (case, event) in cases("jsonl-roundtrip", 512, |rng| {
        let at = SimTime::from_secs(hostile_u64(rng));
        let job = hostile_u64(rng);
        match rng.uniform_u64(0, 13) {
            0 => TelemetryEvent::JobSubmitted {
                at,
                job,
                size: hostile_u64(rng) as u32,
                runtime_secs: hostile_u64(rng),
            },
            1 => TelemetryEvent::QuoteNegotiated {
                at,
                job,
                start_secs: hostile_u64(rng),
                promised_secs: hostile_u64(rng),
                deadline_secs: hostile_u64(rng),
                success_probability: hostile_f64(rng),
            },
            2 => TelemetryEvent::JobRejected { at, job },
            3 => TelemetryEvent::JobPlaced {
                at,
                job,
                nodes: {
                    let n = rng.uniform_u64(0, 300) as usize;
                    (0..n).map(|_| hostile_u64(rng)).collect()
                },
                failure_probability: hostile_f64(rng),
            },
            4 => TelemetryEvent::JobStarted {
                at,
                job,
                restarts: hostile_u64(rng) as u32,
            },
            5 => TelemetryEvent::CheckpointRequested { at, job },
            6 => TelemetryEvent::CheckpointTaken {
                at,
                job,
                overhead_secs: hostile_u64(rng),
            },
            7 => TelemetryEvent::CheckpointSkipped {
                at,
                job,
                reason: reasons[rng.uniform_u64(0, 2) as usize],
                failure_probability: hostile_f64(rng),
                at_risk_secs: hostile_u64(rng),
            },
            8 => TelemetryEvent::NodeFailed {
                at,
                node: hostile_u64(rng),
                victim_job: rng.chance(0.5).then(|| hostile_u64(rng)),
                lost_node_seconds: hostile_u64(rng),
                predicted: rng.chance(0.5),
            },
            9 => TelemetryEvent::NodeRecovered {
                at,
                node: hostile_u64(rng),
            },
            10 => TelemetryEvent::JobRequeued {
                at,
                job,
                remaining_secs: hostile_u64(rng),
            },
            11 => TelemetryEvent::JobCompleted {
                at,
                job,
                met_deadline: rng.chance(0.5),
            },
            12 => TelemetryEvent::PromiseResolved {
                at,
                job,
                success_probability: hostile_f64(rng),
                deadline_secs: hostile_u64(rng),
                verdict: match rng.uniform_u64(0, 2) {
                    0 => pqos_telemetry::PromiseVerdict::Kept,
                    1 => pqos_telemetry::PromiseVerdict::Broken,
                    _ => pqos_telemetry::PromiseVerdict::Cancelled,
                },
            },
            _ => TelemetryEvent::DeadlineMissed {
                at,
                job,
                late_by_secs: hostile_u64(rng),
            },
        }
    })
    .into_iter()
    .enumerate()
    {
        let line = event.to_jsonl();
        assert!(
            !line.contains('\n'),
            "case {case}: journal line must be newline-free: {line}"
        );
        let back = TelemetryEvent::from_jsonl(&line)
            .unwrap_or_else(|| panic!("case {case}: failed to parse {line}"));
        assert_eq!(back, event, "case {case}: round trip changed {line}");
    }
}

/// The hand-rolled JSON writer and parser round-trip arbitrary strings:
/// quotes, backslashes, control characters, multi-byte unicode, and long
/// runs all survive `escape_into` → `Json::parse` unchanged — and the
/// writer, which copies unescaped runs whole, emits exactly the bytes of
/// escaping one char at a time.
#[test]
fn telemetry_json_string_escaping_round_trips() {
    use pqos_telemetry::json::{Json, ObjWriter};

    fn escape_by_char(s: &str) -> String {
        let mut out = String::new();
        for ch in s.chars() {
            match ch {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\t' => out.push_str("\\t"),
                '\r' => out.push_str("\\r"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out
    }

    const PALETTE: &[char] = &[
        'a', 'Z', '0', ' ', '"', '\\', '/', '\n', '\t', '\r', '\u{0}', '\u{1}', '\u{1f}', '\u{7f}',
        'é', '中', '🚀', '\u{2028}', '{', '}', '[', ']', ':', ',',
    ];
    for (case, s) in cases("json-escaping", 256, |rng| {
        let n = rng.uniform_u64(0, 400) as usize;
        (0..n)
            .map(|_| PALETTE[rng.uniform_u64(0, PALETTE.len() as u64 - 1) as usize])
            .collect::<String>()
    })
    .into_iter()
    .enumerate()
    {
        let mut w = ObjWriter::new();
        w.str("s", &s).u64("tail", 7);
        let text = w.finish();
        assert_eq!(
            text,
            format!("{{\"s\":\"{}\",\"tail\":7}}", escape_by_char(&s)),
            "case {case}: run-copying and char-by-char escaping differ"
        );
        let v = Json::parse(&text)
            .unwrap_or_else(|| panic!("case {case}: emitted invalid JSON: {text}"));
        assert_eq!(
            v.get("s").and_then(Json::as_str),
            Some(s.as_str()),
            "case {case}: string mangled through {text}"
        );
        assert_eq!(v.get("tail").and_then(Json::as_u64), Some(7), "case {case}");
    }
}

/// Batched quoting is observationally identical to serial quoting: two
/// sessions fed the same randomized interleaving of quote batches,
/// accepts, cancels, and clock advances — one negotiating on a single
/// thread, one fanned out — answer every operation identically and agree
/// on the full status snapshot (clock, occupancy, reservations, stats)
/// after each step. Both run the live parity self-check and must finish
/// with zero recorded violations.
#[test]
fn batched_negotiation_matches_serial_interleavings() {
    use pqos_core::session::{AdmissionRequest, NegotiationSession};
    use pqos_predict::api::NullPredictor;
    use pqos_telemetry::Telemetry;

    enum Op {
        Quotes(Vec<(u64, u32, u64)>), // (job, size, runtime_secs)
        Accept(u64),
        Cancel(u64),
        Advance(u64),
    }

    for (case, ops) in cases("batch-parity", 24, |rng| {
        let mut next_job = 0u64;
        let n = rng.uniform_u64(8, 40) as usize;
        // `negotiate_batch` quotes inline unless every worker gets 16
        // requests, so the usual 1-8 never leave the calling thread: one
        // batch a case is wide enough (32-83) that the fanned-out session
        // really spawns its 2-4 workers.
        let wide_at = rng.uniform_u64(0, n as u64 - 1) as usize;
        (0..n)
            .map(|i| match rng.uniform_u64(0, 9) {
                pick if pick <= 4 || i == wide_at => {
                    let len = if i == wide_at {
                        rng.uniform_u64(32, 83)
                    } else {
                        rng.uniform_u64(1, 8)
                    };
                    Op::Quotes(
                        (0..len)
                            .map(|_| {
                                next_job += 1;
                                (
                                    next_job,
                                    rng.uniform_u64(1, 12) as u32,
                                    rng.uniform_u64(60, 20_000),
                                )
                            })
                            .collect(),
                    )
                }
                // Accept/cancel ids may be unissued or repeated on purpose;
                // the error paths must agree too.
                5 | 6 => Op::Accept(rng.uniform_u64(0, next_job.max(1))),
                7 => Op::Cancel(rng.uniform_u64(0, next_job.max(1))),
                _ => Op::Advance(rng.uniform_u64(1, 5_000)),
            })
            .collect::<Vec<Op>>()
    })
    .into_iter()
    .enumerate()
    {
        let config = SimConfig::paper_defaults().cluster_size_nodes(16);
        let mut serial =
            NegotiationSession::new(config.clone(), NullPredictor, Telemetry::disabled())
                .verify_parity(true);
        let mut batched = NegotiationSession::new(config, NullPredictor, Telemetry::disabled())
            .verify_parity(true);
        let mut now = 0u64;
        for (i, op) in ops.iter().enumerate() {
            match op {
                Op::Quotes(reqs) => {
                    let reqs: Vec<(JobId, AdmissionRequest)> = reqs
                        .iter()
                        .map(|&(job, size, runtime)| {
                            (
                                JobId::new(job),
                                AdmissionRequest {
                                    size,
                                    runtime: SimDuration::from_secs(runtime),
                                },
                            )
                        })
                        .collect();
                    let a = serial.quote_batch(&reqs, 1);
                    let b = batched.quote_batch(&reqs, 4);
                    assert_eq!(a, b, "case {case} op {i}: quote decisions diverge");
                }
                Op::Accept(job) => {
                    assert_eq!(
                        serial.accept(JobId::new(*job)),
                        batched.accept(JobId::new(*job)),
                        "case {case} op {i}: accept({job}) diverges"
                    );
                }
                Op::Cancel(job) => {
                    assert_eq!(
                        serial.cancel(JobId::new(*job)),
                        batched.cancel(JobId::new(*job)),
                        "case {case} op {i}: cancel({job}) diverges"
                    );
                }
                Op::Advance(by) => {
                    now += by;
                    serial.advance_to(SimTime::from_secs(now));
                    batched.advance_to(SimTime::from_secs(now));
                }
            }
            assert_eq!(
                serial.status(),
                batched.status(),
                "case {case} op {i}: status snapshots diverge"
            );
        }
        let stats = batched.status().stats;
        assert_eq!(
            stats.parity_violations, 0,
            "case {case}: live parity self-check reported violations"
        );
        assert_eq!(
            stats.parity_checked,
            stats.quoted + stats.rejected,
            "case {case}: self-check did not cover every negotiation"
        );
    }
}

/// Negotiation postconditions: the accepted quote starts no earlier than
/// `now`, its deadline is exactly `start + duration`, the quoted
/// probability is a probability, and a threshold-satisfied outcome really
/// satisfies the threshold.
#[test]
fn negotiation_postconditions() {
    use pqos_cluster::topology::Topology;
    use pqos_core::negotiate::{negotiate, NegotiationRequest};
    use pqos_sched::place::PlacementStrategy;
    for (case, (size, duration, threshold, failures)) in cases("negotiation", 64, |rng| {
        (
            rng.uniform_u64(1, 7) as u32,
            rng.uniform_u64(1, 9_999),
            rng.unit(),
            random_failures(rng, 20, 50_000, 8),
        )
    })
    .into_iter()
    .enumerate()
    {
        let trace = Arc::new(FailureTrace::new(failures).expect("valid"));
        let oracle = TraceOracle::new(trace, 1.0).expect("valid accuracy");
        let book = ReservationBook::new(8);
        let user = UserStrategy::risk_threshold(threshold).expect("valid");
        let outcome = negotiate(
            &book,
            Topology::Flat,
            PlacementStrategy::MinFailureProbability,
            &oracle,
            NegotiationRequest {
                size,
                duration: SimDuration::from_secs(duration),
                now: SimTime::from_secs(1000),
                down: &[],
                recovery_horizon: SimTime::from_secs(1000),
                pre_start_risk: SimDuration::from_secs(120),
            },
            &user,
            8,
            8,
        )
        .expect("job fits");
        let q = &outcome.accepted;
        assert!(q.start >= SimTime::from_secs(1000), "case {case}");
        assert_eq!(
            q.deadline,
            q.start + SimDuration::from_secs(duration),
            "case {case}"
        );
        assert!(
            (0.0..=1.0).contains(&q.failure_probability),
            "case {case}: pf {}",
            q.failure_probability
        );
        assert_eq!(q.partition.len(), size as usize, "case {case}");
        if outcome.satisfied_threshold {
            assert!(q.promised_success() >= threshold, "case {case}");
        }
        assert!(outcome.quotes_examined >= 1, "case {case}");
    }
}

/// Four books, one answer: a backlog built by negotiating and committing
/// jobs one at a time on the timeline [`ReservationBook`], mirrored into
/// the [`NaiveReservationBook`] specification and a
/// [`CachedReservationBook`](pqos_sched::cache::CachedReservationBook),
/// must give identical `negotiate` outcomes for every probe job on the
/// naive book, the timeline book, the cache with a cold memo and the same
/// cache again — and that warm pass must be served from the memo.
#[test]
fn negotiated_backlog_gives_one_outcome_on_every_book() {
    use pqos_cluster::topology::Topology;
    use pqos_core::negotiate::{negotiate, NegotiationOutcome, NegotiationRequest};
    use pqos_predict::api::NullPredictor;
    use pqos_sched::cache::CachedReservationBook;
    use pqos_sched::place::PlacementStrategy;

    const NODES: u32 = 16;
    fn probe<B: AvailabilityView>(
        book: &B,
        (size, secs): (u32, u64),
    ) -> Option<NegotiationOutcome> {
        negotiate(
            book,
            Topology::Flat,
            PlacementStrategy::MinFailureProbability,
            &NullPredictor,
            NegotiationRequest {
                size,
                duration: SimDuration::from_secs(secs),
                now: SimTime::ZERO,
                down: &[],
                recovery_horizon: SimTime::ZERO,
                pre_start_risk: SimDuration::from_secs(120),
            },
            &UserStrategy::AlwaysEarliest,
            4,
            4,
        )
    }
    // Power-of-two sizes skewed small, clamped to the cluster.
    let jobs = cases("negotiated-backlog", 40 + 3, |rng| {
        let size = (1u32 << rng.uniform_u64(0, 5)).min(NODES);
        (size, rng.uniform_u64(600, 36_000))
    });
    let (backlog, probes) = jobs.split_at(40);

    let mut timeline = ReservationBook::new(NODES);
    for (i, &job) in backlog.iter().enumerate() {
        let outcome = probe(&timeline, job).expect("a backlog job fits the cluster");
        let window = TimeWindow::new(outcome.accepted.start, outcome.accepted.deadline);
        timeline
            .add(JobId::new(i as u64), outcome.accepted.partition, window)
            .expect("an accepted quote is addable");
    }
    let mut naive = NaiveReservationBook::new(NODES);
    let mut cached = CachedReservationBook::new(NODES);
    for (_, r) in timeline.iter() {
        naive
            .add(r.job, r.partition.clone(), r.interval)
            .expect("mirrored reservation is addable");
        cached
            .add(r.job, r.partition.clone(), r.interval)
            .expect("mirrored reservation is addable");
    }
    assert_eq!(timeline.len(), backlog.len(), "every backlog job landed");
    assert_eq!(naive.len(), timeline.len());
    assert!(!timeline.change_points(SimTime::ZERO).is_empty());

    fn pass<B: AvailabilityView>(book: &B, jobs: &[(u32, u64)]) -> Vec<Option<NegotiationOutcome>> {
        jobs.iter().map(|&job| probe(book, job)).collect()
    }
    let want = pass(&naive, probes);
    assert_eq!(
        pass(&timeline, probes),
        want,
        "timeline book vs the naive spec"
    );
    assert_eq!(
        pass(&cached, probes),
        want,
        "cold quote cache vs the naive spec"
    );
    let cold = cached.stats();
    assert_eq!(
        pass(&cached, probes),
        want,
        "warm quote cache vs the naive spec"
    );
    let warm = cached.stats();
    assert!(
        warm.hits > cold.hits,
        "the warm pass must hit the memo: {warm:?}"
    );
    // The cache walks the book's own timeline: there is no profile to
    // rebuild.
    assert_eq!(warm.profile_rebuilds, 0);
}

/// The calibration ledger tiles exactly over randomized journals: every
/// accepted quote lands in exactly one fixed bin, bin counts match an
/// independent recount through [`promise_bin`], the exact-p groups
/// partition the same population, and `kept + broken + cancelled +
/// pending == promised` holds per bucket and in total.
#[test]
fn calibration_ledger_tiles_exactly() {
    use pqos_core::session::{promise_bin, PROMISE_BINS};
    use pqos_telemetry::{PromiseVerdict, TelemetryEvent};

    for (case, journal) in cases("ledger-tiling", 64, |rng| {
        let jobs = rng.uniform_u64(1, 120);
        (0..jobs)
            .map(|job| {
                // Mix smooth draws with the exact values real predictors
                // emit (p = 1.0 from the null predictor, round fractions
                // from oracles) so exact-p groups get real collisions.
                let p = match rng.uniform_u64(0, 3) {
                    0 => 1.0,
                    1 => [0.0, 0.5, 0.9, 0.95][rng.uniform_u64(0, 3) as usize],
                    _ => rng.unit(),
                };
                // 0 = pending, 1 = kept, 2 = broken, 3 = cancelled.
                (job, p, rng.uniform_u64(0, 3))
            })
            .collect::<Vec<_>>()
    })
    .into_iter()
    .enumerate()
    {
        let mut lines = String::new();
        for &(job, p, _) in &journal {
            lines.push_str(
                &TelemetryEvent::QuoteNegotiated {
                    at: SimTime::from_secs(job),
                    job,
                    start_secs: 10,
                    promised_secs: 100,
                    deadline_secs: 200,
                    success_probability: p,
                }
                .to_jsonl(),
            );
            lines.push('\n');
        }
        for &(job, p, fate) in &journal {
            let verdict = match fate {
                1 => PromiseVerdict::Kept,
                2 => PromiseVerdict::Broken,
                3 => PromiseVerdict::Cancelled,
                _ => continue,
            };
            lines.push_str(
                &TelemetryEvent::PromiseResolved {
                    at: SimTime::from_secs(1000 + job),
                    job,
                    success_probability: p,
                    deadline_secs: 200,
                    verdict,
                }
                .to_jsonl(),
            );
            lines.push('\n');
        }
        let ledger = pqos_obs::audit_str(&lines).ledger;
        assert!(ledger.tiling_holds(), "case {case}: tiling broken");
        assert_eq!(ledger.accepted, journal.len() as u64, "case {case}");

        // Independent recount per fixed bin and in total.
        let mut promised = [0u64; PROMISE_BINS];
        let mut kept = [0u64; PROMISE_BINS];
        let mut broken = [0u64; PROMISE_BINS];
        let mut cancelled = [0u64; PROMISE_BINS];
        for &(_, p, fate) in &journal {
            let bin = promise_bin(p);
            promised[bin] += 1;
            match fate {
                1 => kept[bin] += 1,
                2 => broken[bin] += 1,
                3 => cancelled[bin] += 1,
                _ => {}
            }
        }
        for (i, b) in ledger.bins.iter().enumerate() {
            assert_eq!(b.promised, promised[i], "case {case} bin {i}: promised");
            assert_eq!(b.kept, kept[i], "case {case} bin {i}: kept");
            assert_eq!(b.broken, broken[i], "case {case} bin {i}: broken");
            assert_eq!(b.cancelled, cancelled[i], "case {case} bin {i}: cancelled");
            assert_eq!(
                b.kept + b.broken + b.cancelled + b.pending(),
                b.promised,
                "case {case} bin {i}: bucket does not tile"
            );
        }
        // The exact-p groups partition the same population.
        let exact_promised: u64 = ledger.exact_groups().map(|(_, b)| b.promised).sum();
        assert_eq!(exact_promised, ledger.accepted, "case {case}: exact groups");
    }
}

/// Seeded corruption is caught: a calibrated journal audits clean, and the
/// same journal with its high-confidence verdicts flipped to broken is
/// flagged `overconfident_bucket` — the audit cannot be fooled by a
/// journal that restates its quotes but fails to deliver them.
#[test]
fn audit_flags_seeded_overconfident_corruption() {
    use pqos_obs::audit::CODE_OVERCONFIDENT;
    use pqos_telemetry::{PromiseVerdict, TelemetryEvent};

    let jobs: Vec<(u64, f64, bool)> = cases("audit-corruption", 400, |rng| {
        let p = 0.85 + 0.15 * rng.unit();
        (rng.chance(p), p)
    })
    .into_iter()
    .enumerate()
    .map(|(job, (met, p))| (job as u64, p, met))
    .collect();

    let render = |corrupt: bool| {
        let mut lines = String::new();
        for &(job, p, met) in &jobs {
            // Corruption: every other kept promise actually broke — the
            // journal still restates the quoted p, so the ledger joins
            // cleanly and only the calibration check can catch it.
            let met = met && !(corrupt && job % 2 == 0);
            lines.push_str(
                &TelemetryEvent::QuoteNegotiated {
                    at: SimTime::from_secs(job),
                    job,
                    start_secs: 10,
                    promised_secs: 100,
                    deadline_secs: 200,
                    success_probability: p,
                }
                .to_jsonl(),
            );
            lines.push('\n');
            lines.push_str(
                &TelemetryEvent::JobCompleted {
                    at: SimTime::from_secs(1000 + job),
                    job,
                    met_deadline: met,
                }
                .to_jsonl(),
            );
            lines.push('\n');
            lines.push_str(
                &TelemetryEvent::PromiseResolved {
                    at: SimTime::from_secs(1000 + job),
                    job,
                    success_probability: p,
                    deadline_secs: 200,
                    verdict: if met {
                        PromiseVerdict::Kept
                    } else {
                        PromiseVerdict::Broken
                    },
                }
                .to_jsonl(),
            );
            lines.push('\n');
        }
        lines
    };

    let clean = pqos_obs::audit_str(&render(false));
    assert_eq!(
        clean.report.errors(),
        0,
        "calibrated journal must audit clean:\n{}",
        clean.report.render()
    );

    let corrupted = pqos_obs::audit_str(&render(true));
    assert!(
        corrupted.report.errors() > 0,
        "corruption must fail the audit"
    );
    assert!(
        corrupted
            .report
            .findings
            .iter()
            .any(|f| f.code == CODE_OVERCONFIDENT),
        "expected {CODE_OVERCONFIDENT}:\n{}",
        corrupted.report.render()
    );
}
