//! **Concurrent throughput**: the wait-free read path's thread sweep —
//! point and `range100` lookups at 1, 2, 4, … 64 threads over one
//! fixed 8-shard `ShardedIndex<u64, u64, FitingTree>` (beyond the
//! paper, whose evaluation is single-threaded per core). Expected
//! shape: throughput grows with threads up to the machine's available
//! parallelism, since a steady-state read takes no lock.
//!
//! | Variable | Meaning |
//! |---|---|
//! | `FITING_N` | preloaded rows |
//! | `FITING_SCALE_OPS` | total point ops per thread-count cell (range cells run a twentieth) |
//!
//! Run: `cargo run --release -p fiting-bench --bin concurrent_throughput`
//! prints the sweep's two tables and writes nothing. The flags maintain
//! the **read-scaling** recording:
//!
//! * `--record` runs the same sweep and merges a `read_scaling` section
//!   into `BENCH_hotpath.json` (override with `--out`), leaving every
//!   other section of the recording untouched.
//! * `--smoke` re-runs a cheap sweep and gates against the recording:
//!   the 1-thread point latency must stay within 2× of the recorded
//!   value, and point throughput must grow (15% tolerance) from cell
//!   to cell **up to this machine's available parallelism** — beyond
//!   it, extra threads only time-slice one core, so those cells are
//!   reported but not gated.

#![forbid(unsafe_code)]

use fiting_bench::{default_n, default_seed, env_usize, print_table, sample_probes};
use fiting_index_api::ShardedIndex;
use fiting_telemetry::json::Json;
use fiting_tree::{ConcurrentFitingTree, FitingTreeBuilder};
use std::time::Instant;

/// Thread counts of the read-scaling sweep. Fixed (not derived from
/// the running machine) so recordings from different boxes stay
/// comparable row for row.
const SCALE_THREADS: [usize; 7] = [1, 2, 4, 8, 16, 32, 64];

/// Shard count of the read-scaling index: enough that even the widest
/// sweep point keeps multiple readers per shard.
const SCALE_SHARDS: usize = 8;

/// One measured cell of the read-scaling sweep.
struct ScaleCell {
    threads: usize,
    mops: f64,
    ns_per_op: f64,
}

/// Runs `total_ops` operations split across `threads` workers; every
/// worker touches the index once before the clock starts so per-thread
/// routing caches are warm (steady state is what the sweep measures).
fn run_scale_cell(
    index: &ConcurrentFitingTree<u64, u64>,
    threads: usize,
    total_ops: usize,
    probes: &[u64],
    range_span: Option<u64>,
) -> ScaleCell {
    let ops_per_thread = (total_ops / threads).max(1);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..threads {
            let index = index.clone();
            scope.spawn(move || {
                let mut hits = 0usize;
                for i in 0..ops_per_thread {
                    let p = probes[(t * 7919 + i) % probes.len()];
                    match range_span {
                        None => {
                            if index.get(&p).is_some() {
                                hits += 1;
                            }
                        }
                        Some(span) => {
                            hits += index.range_collect(p..p.saturating_add(span)).len();
                        }
                    }
                }
                assert!(hits > 0);
            });
        }
    });
    let elapsed = start.elapsed().as_secs_f64();
    let done = ops_per_thread * threads;
    ScaleCell {
        threads,
        mops: done as f64 / elapsed / 1e6,
        ns_per_op: elapsed * 1e9 / done as f64,
    }
}

/// The full read-scaling sweep: point and 100-entry range lookups at
/// every thread count, on one shared bulk-loaded index.
fn run_scale_sweep(
    n: usize,
    seed: u64,
    point_ops: usize,
    range_ops: usize,
) -> (Vec<ScaleCell>, Vec<ScaleCell>) {
    let pairs: Vec<(u64, u64)> = (0..n as u64).map(|k| (k * 2, k)).collect();
    let keys: Vec<u64> = pairs.iter().map(|&(k, _)| k).collect();
    let probes = sample_probes(&keys, 65_536, seed);
    let index: ConcurrentFitingTree<u64, u64> =
        ShardedIndex::bulk_load(&FitingTreeBuilder::new(64), SCALE_SHARDS, pairs).unwrap();
    let point: Vec<ScaleCell> = SCALE_THREADS
        .iter()
        .map(|&t| run_scale_cell(&index, t, point_ops, &probes, None))
        .collect();
    // Keys are spaced 2 apart: a span of 200 covers ~100 entries,
    // matching the hotpath recording's `range100` op.
    let range: Vec<ScaleCell> = SCALE_THREADS
        .iter()
        .map(|&t| run_scale_cell(&index, t, range_ops, &probes, Some(200)))
        .collect();
    (point, range)
}

fn scale_table(title: &str, cells: &[ScaleCell]) {
    let rows: Vec<Vec<String>> = cells
        .iter()
        .map(|c| {
            vec![
                c.threads.to_string(),
                format!("{:.2}", c.mops),
                format!("{:.0}", c.ns_per_op),
            ]
        })
        .collect();
    print_table(title, &["threads", "M ops/s", "ns/op"], &rows);
}

fn scale_json(cells: &[ScaleCell]) -> Json {
    Json::Arr(
        cells
            .iter()
            .map(|c| {
                Json::obj()
                    .with("threads", Json::Num(c.threads as f64))
                    .with("mops", Json::Num(c.mops))
                    .with("ns_per_op", Json::Num(c.ns_per_op))
            })
            .collect(),
    )
}

/// The full sweep at recording scale, printed; with `out_path` (the
/// `--record` mode) the `read_scaling` section is also merged into
/// that recording, preserving every other key.
fn scale_full(out_path: Option<&str>) {
    let n = default_n();
    let seed = default_seed();
    let point_ops = env_usize("FITING_SCALE_OPS", 400_000);
    let range_ops = point_ops / 20;
    println!("# read-scaling sweep ({n} rows, {SCALE_SHARDS} shards, {point_ops} point ops/cell)");
    let (point, range) = run_scale_sweep(n, seed, point_ops, range_ops);
    scale_table("read scaling — point", &point);
    scale_table("read scaling — range100", &range);
    let Some(out_path) = out_path else {
        return;
    };

    let text = std::fs::read_to_string(out_path).expect("readable recording (run hotpath first)");
    let mut doc = Json::parse(&text).expect("well-formed recording");
    doc.set(
        "read_scaling",
        Json::obj()
            .with("shards", Json::Num(SCALE_SHARDS as f64))
            .with("n", Json::Num(n as f64))
            .with("point_ops_per_cell", Json::Num(point_ops as f64))
            .with("range_ops_per_cell", Json::Num(range_ops as f64))
            .with("point", scale_json(&point))
            .with("range100", scale_json(&range)),
    );
    std::fs::write(out_path, doc.pretty()).expect("writable recording");
    println!("\nmerged read_scaling into {out_path}");
}

/// `--smoke`: cheap sweep gated against the recorded `read_scaling`
/// section. Parallelism-aware: scaling is only demanded of thread
/// counts this machine can actually run in parallel.
fn scale_smoke(out_path: &str) -> i32 {
    let text = match std::fs::read_to_string(out_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("smoke: cannot read {out_path}: {e}");
            return 1;
        }
    };
    let doc = match Json::parse(&text) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("smoke: {out_path} is malformed JSON: {e}");
            return 1;
        }
    };
    let Some(recorded_1t) = doc
        .get("read_scaling")
        .and_then(|s| s.get("point"))
        .and_then(Json::as_arr)
        .and_then(|cells| cells.first())
        .and_then(|c| c.get("ns_per_op"))
        .and_then(Json::as_f64)
    else {
        eprintln!("smoke: {out_path} has no read_scaling.point recording");
        return 1;
    };

    let n = env_usize("FITING_N", 50_000);
    let point_ops = env_usize("FITING_SCALE_OPS", 100_000);
    let (point, _range) = run_scale_sweep(n, default_seed(), point_ops, point_ops / 20);
    scale_table("read scaling — point (smoke)", &point);

    let available = std::thread::available_parallelism().map_or(1, usize::from);
    let mut failures = 0;
    // 1-thread latency regression gate: generous 2x factor absorbs the
    // smoke run's smaller n and cross-machine variance, same spirit as
    // the hotpath smoke gate.
    let measured_1t = point[0].ns_per_op;
    if measured_1t > 2.0 * recorded_1t {
        eprintln!(
            "smoke REGRESSION: 1-thread point {measured_1t:.0} ns/op vs recorded \
             {recorded_1t:.0} ns/op (>2x)"
        );
        failures += 1;
    }
    // Scaling gate: through counts the machine can parallelize, each
    // doubling must not lose more than 15% throughput (monotonic with
    // tolerance). Beyond available parallelism extra threads only
    // time-slice, so those cells are informational.
    for pair in point.windows(2) {
        let (lo, hi) = (&pair[0], &pair[1]);
        if hi.threads > available {
            break;
        }
        if hi.mops < lo.mops * 0.85 {
            eprintln!(
                "smoke REGRESSION: point throughput fell {}→{} threads: {:.2} → {:.2} M ops/s \
                 (beyond 15% tolerance, within available parallelism {available})",
                lo.threads, hi.threads, lo.mops, hi.mops
            );
            failures += 1;
        }
    }
    println!(
        "smoke: read scaling checked against {out_path} \
         (available parallelism {available}), {failures} regressions"
    );
    i32::from(failures > 0)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut record = false;
    let mut smoke = false;
    let mut out_path = "BENCH_hotpath.json".to_string();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--record" => record = true,
            "--smoke" => smoke = true,
            "--out" => {
                i += 1;
                out_path = args.get(i).expect("--out needs a path").clone();
            }
            other => {
                eprintln!("unknown argument {other:?} (expected --record, --smoke, --out)");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    if smoke {
        std::process::exit(scale_smoke(&out_path));
    }
    scale_full(record.then_some(out_path.as_str()));
}
