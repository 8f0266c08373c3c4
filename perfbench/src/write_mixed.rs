//! `write_mixed` phase: inserts beside reads on a working set that fits
//! in cache.
//!
//! ~1M keys of the workload's distribution (≈16 MB of pairs)
//! bulk-loaded into a
//! `ShardedIndex<FitingTree>` of [`SHARDS`] shards at error budget
//! [`ERROR`]. One closed-loop client runs rounds of [`ROUND_OPS`]
//! operations: 50 % inserts of fresh keys — half timestamp-style
//! appends past the current maximum, half at random interior gaps,
//! which fills segment buffers and forces re-segmentation and
//! directory splices — and 50 % gets, half of them on one of the last
//! [`RECENT`] inserted keys. Every round starts from a copy of the
//! bulk-loaded shards and replays the same seeded operations, so a
//! round is one statistics window over identical work. After each
//! round, outside the timed loop, every answer and the final contents
//! are checked against a `BTreeMap` oracle.
//!
//! Timing: each operation is timed on its own with two `Instant::now()`
//! reads (≈40–55 ns on a 2-vCPU Xeon VM).

use crate::check::{contents_mismatches, mismatches, NOT_FOUND};
use crate::layers::{self, TreeIndex, TreeTotals};
use crate::rng::Rng;
use crate::stats::{median, Windows};
use crate::{pairs_of, value_of, PhaseTotals, RunConfig, RunResult};
use fiting_index_api::ShardedIndex;
use fiting_telemetry::Histogram;
use fiting_tree::FitingTree;
use std::collections::{BTreeMap, HashSet};
use std::time::Instant;

/// Keys bulk-loaded.
pub const KEYS: usize = 1_000_000;
/// Error budget of every shard.
pub const ERROR: u64 = 64;
/// Shards of the index.
pub const SHARDS: usize = 2;
/// Operations per round (one statistics window).
pub const ROUND_OPS: usize = 500_000;
/// How many of the latest inserted keys the "recent" gets choose from.
pub const RECENT: usize = 1_024;
/// Index builds per cycle whose median is the phase's set-up time.
const SETUP_REPEATS: usize = 3;

/// One client operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Insert of a key not yet present.
    Insert(u64),
    /// Lookup of a present key.
    Get(u64),
}

/// Draws one round of operations against the sorted loaded `keys`.
#[must_use]
pub fn round_ops(keys: &[u64], rng: &mut Rng, n: usize) -> Vec<Op> {
    let last = keys[keys.len() - 1];
    let mean_gap = ((last - keys[0]) / keys.len() as u64).max(1);
    let mut tail = last;
    let mut inserted: HashSet<u64> = HashSet::new();
    let mut recent: Vec<u64> = Vec::with_capacity(RECENT);
    let mut ops = Vec::with_capacity(n);
    for _ in 0..n {
        if rng.percent(50) {
            let key = if rng.percent(50) {
                tail += 1 + rng.below(2 * mean_gap);
                tail
            } else {
                loop {
                    let i = rng.index(keys.len() - 1);
                    let gap = keys[i + 1] - keys[i];
                    if gap > 1 {
                        let k = keys[i] + 1 + rng.below(gap - 1);
                        if !inserted.contains(&k) {
                            break k;
                        }
                    }
                }
            };
            inserted.insert(key);
            if recent.len() < RECENT {
                recent.push(key);
            } else {
                recent[ops.len() % RECENT] = key;
            }
            ops.push(Op::Insert(key));
        } else if !recent.is_empty() && rng.percent(50) {
            ops.push(Op::Get(recent[rng.index(recent.len())]));
        } else {
            ops.push(Op::Get(keys[rng.index(keys.len())]));
        }
    }
    ops
}

/// The correct answer of every operation: no previous value for a
/// fresh insert, the key's value for a get.
#[must_use]
pub fn expected(ops: &[Op]) -> Vec<u64> {
    ops.iter()
        .map(|op| match *op {
            Op::Insert(_) => NOT_FOUND,
            Op::Get(k) => value_of(k),
        })
        .collect()
}

/// The contents a round must leave behind.
#[must_use]
pub fn oracle(keys: &[u64], ops: &[Op]) -> BTreeMap<u64, u64> {
    let mut map: BTreeMap<u64, u64> = pairs_of(keys).into_iter().collect();
    for op in ops {
        if let Op::Insert(k) = *op {
            map.insert(k, value_of(k));
        }
    }
    map
}

/// Every entry of `index`, in key order.
#[must_use]
pub fn contents(index: &TreeIndex) -> Vec<(u64, u64)> {
    let mut all = Vec::with_capacity(index.len());
    index.for_each_shard(|tree| all.extend(tree.iter().map(|(k, v)| (*k, *v))));
    all
}

/// The bulk-loaded shards every round starts from.
struct Base {
    bounds: Vec<u64>,
    trees: Vec<FitingTree<u64, u64>>,
}

impl Base {
    fn of(index: &TreeIndex) -> Base {
        let mut trees = Vec::new();
        index.for_each_shard(|tree| trees.push(tree.clone()));
        Base {
            bounds: index.boundaries(),
            trees,
        }
    }

    fn fresh(&self) -> TreeIndex {
        ShardedIndex::from_shards(self.bounds.clone(), self.trees.clone())
    }
}

#[derive(Default)]
struct Phase {
    get: Windows,
    insert: Windows,
    throughput: Vec<f64>,
    attempted: u64,
    wrong: u64,
    /// Stats of the last round's final index and its starting copy.
    before: TreeTotals,
    after: TreeTotals,
    last: Option<TreeIndex>,
}

#[derive(Default)]
struct Trace {
    core_insert: Windows,
}

/// The round's operations plus everything needed to check them.
struct Work {
    ops: Vec<Op>,
    expected: Vec<u64>,
    oracle: BTreeMap<u64, u64>,
}

fn measure(base: &Base, work: &Work, seconds: f64, mut trace: Option<&mut Trace>) -> Phase {
    let mut phase = Phase::default();
    let mut timed = 0.0;
    while timed < seconds {
        let index = base.fresh();
        phase.before = TreeTotals::of(&index);
        let mut got = vec![NOT_FOUND; work.ops.len()];
        let get_h = Histogram::new();
        let insert_h = Histogram::new();
        let start = Instant::now();
        match trace.as_deref_mut() {
            None => plain_round(&index, &work.ops, &mut got, &get_h, &insert_h),
            Some(trace) => traced_round(&index, &work.ops, &mut got, &get_h, &insert_h, trace),
        }
        let wall = start.elapsed().as_secs_f64();
        timed += wall;
        phase.get.close(&get_h);
        phase.insert.close(&insert_h);
        phase.throughput.push(work.ops.len() as f64 / wall);
        phase.attempted += work.ops.len() as u64;
        phase.wrong += mismatches(&work.expected, &got);
        phase.wrong += contents_mismatches(contents(&index), &work.oracle);
        phase.after = TreeTotals::of(&index);
        phase.last = Some(index);
    }
    phase
}

/// Runs `ops` against `index`, timing each operation into `get_h` or
/// `insert_h` and storing its answer (value or previous value) in `got`.
pub fn plain_round(
    index: &TreeIndex,
    ops: &[Op],
    got: &mut [u64],
    get_h: &Histogram,
    insert_h: &Histogram,
) {
    for (op, answer) in ops.iter().zip(got.iter_mut()) {
        match *op {
            Op::Insert(k) => {
                let start = Instant::now();
                let previous = index.insert(k, value_of(k));
                insert_h.record_duration(start.elapsed());
                *answer = previous.unwrap_or(NOT_FOUND);
            }
            Op::Get(k) => {
                let start = Instant::now();
                let value = index.get(&k);
                get_h.record_duration(start.elapsed());
                *answer = value.unwrap_or(NOT_FOUND);
            }
        }
    }
}

/// Same operations, inserts timed inside the owning shard's write
/// section (core only) and gets through `with_shard_read` +
/// `get_traced`, as in the traced `read_large` phase.
fn traced_round(
    index: &TreeIndex,
    ops: &[Op],
    got: &mut [u64],
    get_h: &Histogram,
    insert_h: &Histogram,
    trace: &mut Trace,
) {
    let core_insert = Histogram::new();
    for (op, answer) in ops.iter().zip(got.iter_mut()) {
        match *op {
            Op::Insert(k) => {
                let start = Instant::now();
                let (previous, core) = index.with_shard_write(&k, |tree| {
                    let core_start = Instant::now();
                    let previous = tree.insert(k, value_of(k));
                    (previous, core_start.elapsed())
                });
                insert_h.record_duration(start.elapsed());
                core_insert.record_duration(core);
                *answer = previous.unwrap_or(NOT_FOUND);
            }
            Op::Get(k) => {
                let start = Instant::now();
                let (value, _) = layers::traced_get(index, k);
                get_h.record_duration(start.elapsed());
                *answer = value.unwrap_or(NOT_FOUND);
            }
        }
    }
    trace.core_insert.close(&core_insert);
}

/// Builds the index `repeats` times and returns the last build with
/// the median build time in seconds.
fn setup(keys: &[u64], repeats: usize) -> (TreeIndex, f64) {
    let mut times = Vec::with_capacity(repeats);
    let mut index = None;
    for _ in 0..repeats {
        drop(index.take());
        let pairs = pairs_of(keys);
        let start = Instant::now();
        index = Some(layers::build(ERROR, SHARDS, pairs));
        times.push(start.elapsed().as_secs_f64());
    }
    (index.expect("at least one build"), median(&times))
}

/// Runs the phase, adding its end-to-end metrics to `out`, or its
/// per-layer metrics when `traced`.
pub fn run(cfg: &RunConfig, traced: bool, out: &mut RunResult) -> PhaseTotals {
    let keys = cfg.dataset.generate(KEYS, cfg.seed);
    let mut rng = Rng::new(cfg.seed, 2);
    let ops = round_ops(&keys, &mut rng, ROUND_OPS);
    let work = Work {
        expected: expected(&ops),
        oracle: oracle(&keys, &ops),
        ops,
    };
    out.fact("write_mixed.keys", &keys.len());
    out.fact("write_mixed.error_budget", &ERROR);
    out.fact("write_mixed.shards", &SHARDS);
    out.fact("write_mixed.clients", &"1 closed-loop thread");
    out.fact("write_mixed.round_ops", &ROUND_OPS);
    out.fact(
        "write_mixed.mix",
        &"50% fresh inserts (half appends, half interior), 50% gets (half recent)",
    );

    let repeats = if traced { 1 } else { SETUP_REPEATS };
    let (index, setup_s) = setup(&keys, repeats);
    let base = Base::of(&index);
    drop(index);

    if !traced {
        let phase = measure(&base, &work, cfg.seconds, None);
        out.put_windows("insert_p50_ns", &phase.insert, 50.0);
        out.put("write_throughput_ops_s", median(&phase.throughput));
        out.attempted += phase.attempted;
        out.wrong += phase.wrong;
        return PhaseTotals {
            setup_s,
            ..PhaseTotals::default()
        };
    }

    let half = cfg.seconds / 2.0;
    let plain = measure(&base, &work, half, None);
    let mut trace = Trace::default();
    let phase = measure(&base, &work, half, Some(&mut trace));
    let last = phase.last.as_ref().expect("at least one round");
    out.put_windows("core.insert_ns", &trace.core_insert, 50.0);
    out.put("core.buffered_entries", phase.after.buffered as f64);
    out.put(
        "core.directory_splices",
        (phase.after.splices - phase.before.splices) as f64,
    );
    out.put(
        "core.directory_splice_entries",
        (phase.after.splice_entries - phase.before.splice_entries) as f64,
    );
    out.put_windows("bench.insert_p99_ns", &plain.insert, 99.0);
    out.attempted += plain.attempted + phase.attempted;
    out.wrong += plain.wrong + phase.wrong;
    PhaseTotals {
        contended_reads: last.routing_stats().contended_reads,
        trace_overhead_frac: phase.get.percentile(50.0) / plain.get.percentile(50.0) - 1.0,
        ..PhaseTotals::default()
    }
}
