//! Model-checked ports of the sharded front-end's rebalance protocols,
//! run under the workspace's deterministic scheduler (`shuttle`).
//!
//! The models mirror `src/sharded.rs`: the epoch-validated
//! route-then-lock retry loop (`with_shard_read`), the grouped write
//! behind `insert_many` / `with_write_groups` (`write_grouped`),
//! `split_shard`'s publish-before-unlock ordering, and
//! `merge_with_next`'s serialized keep→retire two-write-lock hold.
//! Each correct protocol clears ≥ 10 000 interleavings; each
//! deliberately broken variant (the bug class the protocol exists to
//! prevent) must be *caught*, proving the models have teeth.
//!
//! If a protocol change in `sharded.rs` is intentional, change the
//! mirror here in the same PR — drift between the two is exactly what
//! this file exists to surface.

use shuttle::atomic::{AtomicU64, Ordering};
use shuttle::model;
use shuttle::sync::{Mutex, RwLock};
use shuttle::thread;
use std::sync::Arc;

/// Interleavings every correct model must clear in the CI quick battery.
/// `FITING_MODEL_ITERS` raises the budget for the nightly deep sweep.
const QUICK_BATTERY: usize = 10_000;

fn battery_budget() -> usize {
    std::env::var("FITING_MODEL_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(QUICK_BATTERY)
}

/// DFS up to the budget, then seeded random walks until the total
/// reaches it; asserts zero violations along the way.
fn quick_battery<F: Fn() + Send + Sync + Clone + 'static>(name: &str, body: F) {
    let budget = battery_budget();
    let dfs = model::explore(body.clone(), budget);
    assert!(dfs.failure.is_none(), "{name} (dfs): {:?}", dfs.failure);
    let mut total = dfs.iterations;
    if total < budget {
        let random = model::explore_random(body, 0x5EED_F17E, budget - total);
        assert!(
            random.failure.is_none(),
            "{name} (random): {:?}",
            random.failure
        );
        total += random.iterations;
    }
    assert!(total >= budget, "{name}: only {total} interleavings");
}

// ---------------------------------------------------------------------
// Sharded-index model (mirrors src/sharded.rs)
// ---------------------------------------------------------------------

/// One immutable routing snapshot: `bounds[i]` is the first key of
/// shard `i + 1`; shards are shared so a snapshot taken before a
/// rebalance still reaches the same (locked) storage.
struct Table {
    bounds: Vec<u64>,
    shards: Vec<Arc<RwLock<Vec<u64>>>>,
}

impl Table {
    fn shard_for(&self, key: u64) -> usize {
        self.bounds.partition_point(|b| *b <= key)
    }
}

struct ModelSharded {
    table: RwLock<Arc<Table>>,
    epoch: AtomicU64,
    /// Serializes rebalances — the only operations that hold more than
    /// one shard lock.
    rebalances: Mutex<()>,
}

impl ModelSharded {
    /// Two shards: keys < 10 in shard 0, the rest in shard 1.
    fn new(lower: Vec<u64>, upper: Vec<u64>) -> Self {
        ModelSharded {
            table: RwLock::new(Arc::new(Table {
                bounds: vec![10],
                shards: vec![Arc::new(RwLock::new(lower)), Arc::new(RwLock::new(upper))],
            })),
            epoch: AtomicU64::new(0),
            rebalances: Mutex::new(()),
        }
    }

    fn table(&self) -> Arc<Table> {
        Arc::clone(&self.table.read())
    }

    /// `with_shard_read`: route, lock, then revalidate the epoch; retry
    /// if a rebalance published in the window between routing and
    /// locking.
    fn get(&self, key: u64) -> bool {
        loop {
            let epoch = self.epoch.load(Ordering::Acquire);
            let table = self.table();
            let shard = Arc::clone(&table.shards[table.shard_for(key)]);
            let guard = shard.read();
            if self.epoch.load(Ordering::Acquire) == epoch {
                return guard.contains(&key);
            }
            let cur = self.table();
            if Arc::ptr_eq(&cur, &table) || Arc::ptr_eq(&cur.shards[cur.shard_for(key)], &shard) {
                return guard.contains(&key);
            }
        }
    }

    /// `write_grouped`: route every key under one pinned table, take
    /// the owning shard's write lock once per group, and apply the
    /// whole group when the epoch is unchanged; otherwise keep only the
    /// keys the current table still routes to the locked shard and
    /// queue the rest for another pass. With `validate` false the
    /// model applies the group unchecked — the bug the check prevents.
    fn insert_group(&self, keys: Vec<u64>, validate: bool) {
        let mut pending = keys;
        while !pending.is_empty() {
            let epoch = self.epoch.load(Ordering::Acquire);
            let table = self.table();
            let mut groups: Vec<Vec<u64>> = table.shards.iter().map(|_| Vec::new()).collect();
            for k in pending.drain(..) {
                groups[table.shard_for(k)].push(k);
            }
            for (shard, group) in table.shards.iter().zip(groups) {
                if group.is_empty() {
                    continue;
                }
                let mut guard = shard.write();
                if !validate || self.epoch.load(Ordering::Acquire) == epoch {
                    guard.extend(group);
                    continue;
                }
                let cur = self.table();
                for k in group {
                    if Arc::ptr_eq(&cur.shards[cur.shard_for(k)], shard) {
                        guard.push(k);
                    } else {
                        pending.push(k);
                    }
                }
            }
        }
    }

    /// `split_shard(0, at)`: move the tail under the source's write
    /// lock, publish the new table and bump the epoch (Release)
    /// *before* releasing that lock — when `publish_before_unlock` is
    /// false, the model reproduces the bug the real ordering prevents.
    fn split_first_shard(&self, at: u64, publish_before_unlock: bool) {
        let _serial = self.rebalances.lock();
        let table = self.table();
        let source = Arc::clone(&table.shards[0]);
        let mut guard = source.write();
        let moved: Vec<u64> = guard.iter().copied().filter(|k| *k >= at).collect();
        guard.retain(|k| *k < at);
        let publish = |sharded: &ModelSharded| {
            let mut bounds = table.bounds.clone();
            bounds.insert(0, at);
            let mut shards = table.shards.clone();
            shards.insert(1, Arc::new(RwLock::new(moved.clone())));
            *sharded.table.write() = Arc::new(Table { bounds, shards });
            sharded.epoch.fetch_add(1, Ordering::Release);
        };
        if publish_before_unlock {
            publish(self);
            drop(guard);
        } else {
            // BUG: a reader that routed here under the old table can
            // now lock the drained shard, pass the (un-bumped) epoch
            // check, and miss a moved key.
            drop(guard);
            publish(self);
        }
    }

    /// `merge_with_next(0)`: under the rebalance lock, write-lock keep
    /// (shard 0) then retire (shard 1) — ascending table position —
    /// move the entries, publish, then release both locks.
    fn merge_first_pair(&self) {
        let _serial = self.rebalances.lock();
        let table = self.table();
        if table.shards.len() < 2 {
            return;
        }
        let keep = Arc::clone(&table.shards[0]);
        let retire = Arc::clone(&table.shards[1]);
        let mut keep_guard = keep.write();
        let mut retire_guard = retire.write();
        keep_guard.append(&mut retire_guard);
        let bounds = table.bounds[1..].to_vec();
        let mut shards = table.shards.clone();
        shards.remove(1);
        *self.table.write() = Arc::new(Table { bounds, shards });
        self.epoch.fetch_add(1, Ordering::Release);
        drop(retire_guard);
        drop(keep_guard);
    }
}

/// Epoch-validated `get` racing `split_shard`: a key that starts in the
/// split shard must be found in *every* interleaving — before the
/// split, after it, or in the retry window between routing and publish.
fn get_racing_split(publish_before_unlock: bool) {
    let s = Arc::new(ModelSharded::new(vec![1, 5], vec![10, 15]));
    let splitter_s = Arc::clone(&s);
    let splitter = thread::spawn(move || splitter_s.split_first_shard(5, publish_before_unlock));
    assert!(s.get(5), "key 5 lost during split");
    assert!(s.get(1), "key 1 lost during split");
    splitter.join().unwrap();
    assert!(s.get(5) && s.get(1), "keys lost after split");
}

#[test]
fn epoch_validated_get_racing_split_shard() {
    quick_battery("get_racing_split", || get_racing_split(true));
}

#[test]
fn publish_after_unlock_split_is_caught() {
    let report = model::explore(|| get_racing_split(false), QUICK_BATTERY);
    let failure = report
        .failure
        .expect("unlock-before-publish must lose a routed key in some schedule");
    assert!(
        failure.message.contains("lost during split"),
        "unexpected failure kind: {}",
        failure.message
    );
}

/// Grouped two-key write racing `split_shard`: both keys start routed
/// to the split shard and only one of them stays there, so a group
/// applied under the pre-split table must re-route the moved key.
/// Both must be readable once the writer and the splitter are done.
fn group_write_racing_split(validate: bool) {
    let s = Arc::new(ModelSharded::new(vec![1, 7], vec![10, 15]));
    let splitter_s = Arc::clone(&s);
    let splitter = thread::spawn(move || splitter_s.split_first_shard(5, true));
    s.insert_group(vec![3, 6], validate);
    splitter.join().unwrap();
    assert!(s.get(3), "key 3 lost by grouped write");
    assert!(s.get(6), "key 6 lost by grouped write");
}

#[test]
fn grouped_write_racing_split_shard() {
    quick_battery("group_write_racing_split", || {
        group_write_racing_split(true);
    });
}

#[test]
fn unvalidated_grouped_write_is_caught() {
    let report = model::explore(|| group_write_racing_split(false), QUICK_BATTERY);
    let failure = report
        .failure
        .expect("an unchecked group must strand a moved key in some schedule");
    assert!(
        failure.message.contains("lost by grouped write"),
        "unexpected failure kind: {}",
        failure.message
    );
}

/// Keep→retire merge racing epoch-validated readers of both shards:
/// every key stays reachable in every interleaving, and the serialized
/// ascending lock order cannot deadlock against single-lock readers.
fn get_racing_merge() {
    let s = Arc::new(ModelSharded::new(vec![1], vec![10]));
    let merger_s = Arc::clone(&s);
    let merger = thread::spawn(move || merger_s.merge_first_pair());
    assert!(s.get(10), "retired shard's key lost during merge");
    assert!(s.get(1), "kept shard's key lost during merge");
    merger.join().unwrap();
    assert!(s.get(10) && s.get(1), "keys lost after merge");
}

#[test]
fn keep_retire_merge_racing_get() {
    quick_battery("get_racing_merge", get_racing_merge);
}

/// Two unserialized mergers locking the same pair in opposite orders —
/// the deadlock that `rebalances: Mutex<()>` plus the ascending
/// keep→retire order rules out. The model checker must find it.
#[test]
fn unserialized_opposite_order_merge_deadlocks() {
    let report = model::explore(
        || {
            let a = Arc::new(RwLock::new(vec![1u64]));
            let b = Arc::new(RwLock::new(vec![10u64]));
            let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
            let t = thread::spawn(move || {
                // Ascending: keep (0) then retire (1).
                let keep = a2.write();
                let mut retire = b2.write();
                retire.clear();
                drop(retire);
                drop(keep);
            });
            // BUG: descending order, and no `rebalances` serialization.
            let retire = b.write();
            let mut keep = a.write();
            keep.clear();
            drop(keep);
            drop(retire);
            t.join().unwrap();
        },
        QUICK_BATTERY,
    );
    let failure = report.failure.expect("opposite lock orders must deadlock");
    assert!(
        failure.message.contains("deadlock"),
        "unexpected failure kind: {}",
        failure.message
    );
}
