//! Per-layer measurements of a `ShardedIndex<FitingTree>`, taken from
//! outside through public functions (the traced closed-loop runs).

use crate::rng::Rng;
use crate::stats::median;
use fiting_index_api::ShardedIndex;
use fiting_tree::{FitingTree, FitingTreeBuilder, LookupTrace};
use std::hint::black_box;
use std::time::Instant;

/// The sharded FITing-Tree both closed-loop workloads drive.
pub type TreeIndex = ShardedIndex<u64, u64, FitingTree<u64, u64>>;

/// Bulk loads `pairs` into `shards` shards at error budget `error`.
///
/// # Panics
///
/// Panics if `pairs` is not strictly increasing (generated inputs are).
#[must_use]
pub fn build(error: u64, shards: usize, pairs: crate::Pairs) -> TreeIndex {
    ShardedIndex::bulk_load(&FitingTreeBuilder::new(error), shards, pairs)
        .expect("generated keys are strictly increasing")
}

/// `FitingTreeStats` fields summed over every shard.
#[derive(Debug, Default, Clone, Copy)]
pub struct TreeTotals {
    /// Entries stored.
    pub len: usize,
    /// Index overhead in bytes (the paper's size axis).
    pub index_bytes: usize,
    /// Live segments.
    pub segments: usize,
    /// Entries waiting in segment insert buffers.
    pub buffered: usize,
    /// Cumulative directory splices.
    pub splices: u64,
    /// Cumulative entries written by those splices.
    pub splice_entries: u64,
}

impl TreeTotals {
    /// Sums the stats of every shard of `index`.
    #[must_use]
    pub fn of(index: &TreeIndex) -> TreeTotals {
        let mut t = TreeTotals::default();
        index.for_each_shard(|tree| {
            let s = tree.stats();
            t.len += s.len;
            t.index_bytes += s.index_size_bytes;
            t.segments += s.segment_count;
            t.buffered += s.buffered_entries;
            t.splices += s.directory_splices;
            t.splice_entries += s.directory_splice_entries;
        });
        t
    }

    /// Index bytes per stored key.
    #[must_use]
    pub fn bytes_per_key(&self) -> f64 {
        self.index_bytes as f64 / self.len.max(1) as f64
    }
}

/// A point lookup through the owning shard's read section with the
/// tree's own phase timers (`FitingTree::get_traced`).
#[must_use]
pub fn traced_get(index: &TreeIndex, key: u64) -> (Option<u64>, LookupTrace) {
    index.with_shard_read(&key, |tree| {
        let (value, trace) = tree.get_traced(&key);
        (value.copied(), trace)
    })
}

/// Mean cost of a core lookup and of the sharded routing on top of it,
/// in nanoseconds, without a clock read per lookup.
///
/// Each of `ROUNDS` rounds times two loops of `SAMPLE` lookups of fresh
/// random keys drawn from `keys`: `FitingTree::get` on keys grouped by
/// shard inside one `with_shard_read` per shard (core only), then
/// `ShardedIndex::get` (routing plus core). Each key is made to depend
/// on the previous lookup's value, as in the closed loop, so the
/// processor cannot overlap the cache misses of successive lookups.
/// Returns the median core mean and the difference of the two medians.
#[must_use]
pub fn core_and_route_ns(index: &TreeIndex, keys: &[u64], rng: &mut Rng) -> (f64, f64) {
    const ROUNDS: usize = 8;
    const SAMPLE: usize = 100_000;
    let mut core = Vec::with_capacity(ROUNDS);
    let mut sharded = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        let mut groups: Vec<Vec<u64>> = vec![Vec::new(); index.shard_count()];
        for _ in 0..SAMPLE {
            let k = keys[rng.index(keys.len())];
            groups[index.shard_of(&k)].push(k);
        }
        let start = Instant::now();
        for group in groups.iter().filter(|g| !g.is_empty()) {
            index.with_shard_read(&group[0], |tree| {
                let mut carry = 0;
                for k in group {
                    carry = chained(tree.get(&(k | carry)).copied());
                }
                black_box(carry);
            });
        }
        core.push(start.elapsed().as_nanos() as f64 / SAMPLE as f64);

        let probes: Vec<u64> = (0..SAMPLE).map(|_| keys[rng.index(keys.len())]).collect();
        let start = Instant::now();
        let mut carry = 0;
        for k in &probes {
            carry = chained(index.get(&(k | carry)));
        }
        black_box(carry);
        sharded.push(start.elapsed().as_nanos() as f64 / SAMPLE as f64);
    }
    let core_ns = median(&core);
    (core_ns, median(&sharded) - core_ns)
}

/// A value that is 0 for every lookup result the workloads produce but
/// that the compiler cannot know, so OR-ing it into the next key makes
/// that lookup wait for this one.
fn chained(value: Option<u64>) -> u64 {
    u64::from(value == Some(u64::MAX))
}

/// Seconds to bulk load `pairs` into one unsharded tree — the
/// segmentation pass plus page construction.
#[must_use]
pub fn single_tree_build_s(error: u64, pairs: crate::Pairs) -> f64 {
    let start = Instant::now();
    let tree: FitingTree<u64, u64> = FitingTreeBuilder::new(error)
        .bulk_load(pairs)
        .expect("generated keys are strictly increasing");
    let secs = start.elapsed().as_secs_f64();
    drop(tree);
    secs
}
