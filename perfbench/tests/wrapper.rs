//! The timing wrapper returns exactly what the bare shard type returns,
//! alone and behind `ShardedIndex`, while counting the storage calls.

use fiting_index_api::{BuildableIndex, ShardedIndex, SortedIndex};
use fiting_perfbench::rng::Rng;
use fiting_perfbench::timed_shard::{StorageTimers, TimedConfig, TimedShard};
use fiting_perfbench::{pairs_of, value_of};
use fiting_storage::{DurableConfig, DurableIndex, FsyncPolicy};
use fiting_tree::FitingTreeBuilder;
use std::path::PathBuf;
use std::sync::Arc;

type Bare = DurableIndex<u64, u64>;
type Wrapped = TimedShard<Bare>;

/// A fresh store root under the test target directory.
fn root(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("wrapper-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn configs(
    tag: &str,
) -> (
    DurableConfig<FitingTreeBuilder>,
    TimedConfig<DurableConfig<FitingTreeBuilder>>,
    Arc<StorageTimers>,
) {
    let store = |side: &str| {
        DurableConfig::new(
            root(&format!("{tag}-{side}")),
            FsyncPolicy::Off,
            FitingTreeBuilder::new(16),
        )
        .expect("test store")
    };
    let timers = Arc::new(StorageTimers::default());
    let timed = TimedConfig {
        inner: store("timed"),
        timers: Arc::clone(&timers),
    };
    (store("bare"), timed, timers)
}

fn keys() -> Vec<u64> {
    (0..5_000u64).map(|i| i * 10).collect()
}

#[test]
fn wrapper_answers_like_the_bare_shard() {
    let (bare_cfg, timed_cfg, timers) = configs("single");
    let mut bare = Bare::build_sorted(&bare_cfg, pairs_of(&keys())).expect("bare build");
    let mut timed = Wrapped::build_sorted(&timed_cfg, pairs_of(&keys())).expect("timed build");
    let mut rng = Rng::new(11, 0);
    let (mut syncs, mut checkpoints) = (0, 0);
    for step in 0..20_000u64 {
        let k = rng.below(60_000);
        match rng.below(8) {
            0 | 1 => assert_eq!(bare.insert(k, step), timed.insert(k, step)),
            2 => assert_eq!(bare.remove(&k), timed.remove(&k)),
            3 => assert_eq!(bare.try_insert(k, step), timed.try_insert(k, step)),
            4 => assert_eq!(
                bare.range_collect(k..k + 500),
                timed.range_collect(k..k + 500)
            ),
            5 => {
                let batch: Vec<(u64, u64)> = (0..8).map(|i| (k + i, step)).collect();
                assert_eq!(bare.insert_many(batch.clone()), timed.insert_many(batch));
            }
            6 => {
                syncs += 2;
                assert_eq!(bare.sync(), timed.sync());
                assert_eq!(bare.try_sync(), timed.try_sync());
            }
            _ if step % 2_000 == 0 => {
                checkpoints += 2;
                assert_eq!(bare.checkpoint(), timed.checkpoint());
                assert_eq!(bare.try_checkpoint(), timed.try_checkpoint());
            }
            _ => assert_eq!(bare.get(&k), timed.get(&k)),
        }
        assert_eq!(bare.len(), timed.len());
    }
    assert_eq!(bare.size_bytes(), timed.size_bytes());
    assert_eq!(bare.wal_bytes(), timed.wal_bytes());
    assert_eq!(bare.disk_bytes(), timed.disk_bytes());
    assert_eq!(bare.health(), timed.health());
    assert_eq!(bare.range_collect(..), timed.range_collect(..));
    assert_eq!(timers.sync.snapshot().count(), syncs);
    assert_eq!(timers.checkpoint.snapshot().count(), checkpoints);
    assert!(checkpoints > 0 && syncs > 0);
}

#[test]
fn sharded_wrapper_answers_like_sharded_bare_shards() {
    let (bare_cfg, timed_cfg, timers) = configs("sharded");
    let bare: ShardedIndex<u64, u64, Bare> =
        ShardedIndex::bulk_load(&bare_cfg, 3, pairs_of(&keys())).expect("bare load");
    let timed: ShardedIndex<u64, u64, Wrapped> =
        ShardedIndex::bulk_load(&timed_cfg, 3, pairs_of(&keys())).expect("timed load");
    assert_eq!(bare.boundaries(), timed.boundaries());
    let mut rng = Rng::new(12, 0);
    for step in 0..10_000u64 {
        let k = rng.below(60_000);
        match rng.below(4) {
            0 => assert_eq!(bare.insert(k, value_of(k)), timed.insert(k, value_of(k))),
            1 => assert_eq!(bare.remove(&k), timed.remove(&k)),
            2 => assert_eq!(
                bare.range_collect(k..k + 900),
                timed.range_collect(k..k + 900)
            ),
            _ => assert_eq!(bare.get(&k), timed.get(&k)),
        }
        if step % 1_000 == 0 {
            assert_eq!(bare.try_sync_all(), timed.try_sync_all());
        }
    }
    // Rebalancing goes through `split_off_tail` / `absorb_tail`.
    let at = keys()[keys().len() / 6];
    assert_eq!(
        bare.split_shard(&bare_cfg, 0, at).is_ok(),
        timed.split_shard(&timed_cfg, 0, at).is_ok()
    );
    assert_eq!(bare.boundaries(), timed.boundaries());
    assert_eq!(
        bare.merge_with_next(0).is_ok(),
        timed.merge_with_next(0).is_ok()
    );
    assert_eq!(bare.checkpoint_shards(0), timed.checkpoint_shards(0));
    assert_eq!(bare.range_collect(..), timed.range_collect(..));
    assert_eq!(bare.len(), timed.len());
    assert!(timers.sync.snapshot().count() > 0);
    assert!(timers.checkpoint.snapshot().count() > 0);
    for cfg in [bare_cfg.root(), timed_cfg.inner.root()] {
        let _ = std::fs::remove_dir_all(cfg);
    }
}
