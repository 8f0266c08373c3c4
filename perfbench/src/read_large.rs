//! `read_large` phase: the paper's lookup experiment on data larger
//! than the last-level cache.
//!
//! ~8M keys of the workload's distribution (≈128 MB of pairs) in a
//! `ShardedIndex<FitingTree>`
//! of [`SHARDS`] shards at error budget [`ERROR`]. One closed-loop
//! client: 95 % point gets uniformly over the loaded keys, 5 % range
//! scans of [`RANGE_LEN`] entries, no writes. The run is cut into
//! passes of [`PASS_OPS`] operations, each drawn fresh from the seed;
//! a pass is one statistics window, and its answers are checked
//! against the sorted input after the pass, outside the timed loop.
//!
//! Timing: each operation is timed on its own with two `Instant::now()`
//! reads (≈40–55 ns on a 2-vCPU Xeon VM, against ≈1 µs per get at
//! this size).

use crate::check::{digest, mismatches, NOT_FOUND};
use crate::layers::{self, TreeIndex, TreeTotals};
use crate::rng::Rng;
use crate::stats::{median, Windows};
use crate::{pairs_of, value_of, PhaseTotals, RunConfig, RunResult};
use fiting_telemetry::Histogram;
use std::time::Instant;

/// Keys generated.
pub const KEYS: usize = 8_000_000;
/// Error budget of every shard.
pub const ERROR: u64 = 64;
/// Shards of the index.
pub const SHARDS: usize = 2;
/// Entries per range scan.
pub const RANGE_LEN: usize = 100;
/// Share of operations that are range scans, in percent.
pub const RANGE_PERCENT: u64 = 5;
/// Operations per pass (one statistics window).
pub const PASS_OPS: usize = 500_000;
/// Index builds per cycle whose median is the phase's set-up time.
const SETUP_REPEATS: usize = 2;

/// One client operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Point lookup of a loaded key.
    Get(u64),
    /// Inclusive scan over `RANGE_LEN` loaded keys starting at input
    /// position `at`.
    Range {
        /// First key of the scan.
        lo: u64,
        /// Last key of the scan.
        hi: u64,
        /// Input position of `lo`.
        at: usize,
    },
}

/// Draws one pass of operations over the sorted `keys`.
#[must_use]
pub fn pass_ops(keys: &[u64], rng: &mut Rng, n: usize) -> Vec<Op> {
    (0..n)
        .map(|_| {
            if rng.percent(RANGE_PERCENT) {
                let at = rng.index(keys.len() - RANGE_LEN + 1);
                Op::Range {
                    lo: keys[at],
                    hi: keys[at + RANGE_LEN - 1],
                    at,
                }
            } else {
                Op::Get(keys[rng.index(keys.len())])
            }
        })
        .collect()
}

/// The correct answer of every operation, from the sorted input alone:
/// the value of a get, the digest of a range.
#[must_use]
pub fn expected(keys: &[u64], ops: &[Op]) -> Vec<u64> {
    ops.iter()
        .map(|op| match *op {
            Op::Get(k) => value_of(k),
            Op::Range { at, .. } => digest(&pairs_of(&keys[at..at + RANGE_LEN])),
        })
        .collect()
}

/// Latencies and tallies of one measured phase.
#[derive(Default)]
struct Phase {
    get: Windows,
    range: Windows,
    throughput: Vec<f64>,
    attempted: u64,
    wrong: u64,
}

/// What a traced phase measures besides the end-to-end latencies.
#[derive(Default)]
struct Trace {
    directory: Windows,
    segment: Windows,
    core_range: Windows,
    ranges: u64,
    fanout: u64,
}

/// Runs passes until `seconds` of timed work have elapsed.
fn measure(
    index: &TreeIndex,
    keys: &[u64],
    rng: &mut Rng,
    seconds: f64,
    mut trace: Option<&mut Trace>,
) -> Phase {
    let mut phase = Phase::default();
    let mut timed = 0.0;
    while timed < seconds {
        let ops = pass_ops(keys, rng, PASS_OPS);
        let mut got = vec![NOT_FOUND; ops.len()];
        let get_h = Histogram::new();
        let range_h = Histogram::new();
        let start = Instant::now();
        match trace.as_deref_mut() {
            None => plain_pass(index, &ops, &mut got, &get_h, &range_h),
            Some(trace) => traced_pass(index, &ops, &mut got, &get_h, &range_h, trace),
        }
        let wall = start.elapsed().as_secs_f64();
        timed += wall;
        phase.get.close(&get_h);
        phase.range.close(&range_h);
        phase.throughput.push(ops.len() as f64 / wall);
        phase.attempted += ops.len() as u64;
        phase.wrong += mismatches(&expected(keys, &ops), &got);
    }
    phase
}

/// Runs `ops` against `index`, timing each operation into `get_h` or
/// `range_h` and storing its answer (value or range digest) in `got`.
pub fn plain_pass(
    index: &TreeIndex,
    ops: &[Op],
    got: &mut [u64],
    get_h: &Histogram,
    range_h: &Histogram,
) {
    for (op, answer) in ops.iter().zip(got.iter_mut()) {
        match *op {
            Op::Get(k) => {
                let start = Instant::now();
                let value = index.get(&k);
                get_h.record_duration(start.elapsed());
                *answer = value.unwrap_or(NOT_FOUND);
            }
            Op::Range { lo, hi, .. } => {
                let start = Instant::now();
                let entries = index.range_collect(lo..=hi);
                range_h.record_duration(start.elapsed());
                *answer = digest(&entries);
            }
        }
    }
}

/// Same operations, each split by layer: gets through
/// `with_shard_read` + `get_traced` (directory vs segment search),
/// single-shard ranges timed inside the shard's read section (core
/// only), cross-shard ranges counted as fan-out.
fn traced_pass(
    index: &TreeIndex,
    ops: &[Op],
    got: &mut [u64],
    get_h: &Histogram,
    range_h: &Histogram,
    trace: &mut Trace,
) {
    let directory = Histogram::new();
    let segment = Histogram::new();
    let core_range = Histogram::new();
    for (op, answer) in ops.iter().zip(got.iter_mut()) {
        match *op {
            Op::Get(k) => {
                let start = Instant::now();
                let (value, phases) = layers::traced_get(index, k);
                get_h.record_duration(start.elapsed());
                directory.record(phases.tree_nanos);
                segment.record(phases.segment_nanos);
                *answer = value.unwrap_or(NOT_FOUND);
            }
            Op::Range { lo, hi, .. } => {
                trace.ranges += 1;
                let entries = if index.shard_of(&lo) == index.shard_of(&hi) {
                    let start = Instant::now();
                    let (entries, core) = index.with_shard_read(&lo, |tree| {
                        let core_start = Instant::now();
                        let entries: Vec<(u64, u64)> =
                            tree.range(lo..=hi).map(|(k, v)| (*k, *v)).collect();
                        (entries, core_start.elapsed())
                    });
                    range_h.record_duration(start.elapsed());
                    core_range.record_duration(core);
                    entries
                } else {
                    trace.fanout += 1;
                    let start = Instant::now();
                    let entries = index.range_collect(lo..=hi);
                    range_h.record_duration(start.elapsed());
                    entries
                };
                *answer = digest(&entries);
            }
        }
    }
    trace.directory.close(&directory);
    trace.segment.close(&segment);
    trace.core_range.close(&core_range);
}

/// Builds the index `repeats` times from fresh copies of the input and
/// returns the last build with the median build time in seconds.
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
    out.fact("read_large.keys", &keys.len());
    out.fact("read_large.error_budget", &ERROR);
    out.fact("read_large.shards", &SHARDS);
    out.fact("read_large.clients", &"1 closed-loop thread");
    out.fact(
        "read_large.mix",
        &format!(
            "{}% gets, {RANGE_PERCENT}% ranges of {RANGE_LEN}",
            100 - RANGE_PERCENT
        ),
    );
    let mut rng = Rng::new(cfg.seed, 1);

    if !traced {
        let (index, setup_s) = setup(&keys, SETUP_REPEATS);
        let phase = measure(&index, &keys, &mut rng, cfg.seconds, None);
        out.put_windows("get_p50_ns", &phase.get, 50.0);
        out.put_windows("get_p99_ns", &phase.get, 99.0);
        out.put_windows("range_p50_ns", &phase.range, 50.0);
        out.put_windows("range_p99_ns", &phase.range, 99.0);
        out.put("throughput_ops_s", median(&phase.throughput));
        out.put(
            "index_bytes_per_key",
            TreeTotals::of(&index).bytes_per_key(),
        );
        out.attempted += phase.attempted;
        out.wrong += phase.wrong;
        return PhaseTotals {
            setup_s,
            ..PhaseTotals::default()
        };
    }

    let (index, _) = setup(&keys, 1);
    let half = cfg.seconds / 2.0;
    let plain = measure(&index, &keys, &mut rng, half, None);
    let mut trace = Trace::default();
    let contended_before = index.routing_stats().contended_reads;
    let phase = measure(&index, &keys, &mut rng, half, Some(&mut trace));
    let contended = index.routing_stats().contended_reads - contended_before;
    let (core_get, route) = layers::core_and_route_ns(&index, &keys, &mut rng);
    out.put("core.get_ns", core_get);
    out.put_windows("core.directory_ns", &trace.directory, 50.0);
    out.put_windows("core.segment_search_ns", &trace.segment, 50.0);
    out.put_windows("core.range_ns", &trace.core_range, 50.0);
    out.put("core.segments", TreeTotals::of(&index).segments as f64);
    drop(index);
    out.put(
        "plr.build_s",
        layers::single_tree_build_s(ERROR, pairs_of(&keys)),
    );
    out.put("index-api.route_ns", route);
    out.put(
        "index-api.range_fanout",
        trace.fanout as f64 / trace.ranges.max(1) as f64,
    );
    out.attempted += plain.attempted + phase.attempted;
    out.wrong += plain.wrong + phase.wrong;
    PhaseTotals {
        contended_reads: contended,
        trace_overhead_frac: phase.get.percentile(50.0) / plain.get.percentile(50.0) - 1.0,
        ..PhaseTotals::default()
    }
}
