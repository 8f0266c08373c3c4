//! A shard wrapper that times the storage layer from outside.
//!
//! [`TimedShard`] implements `SortedIndex` by delegating every method
//! to the wrapped shard (a `DurableIndex` in the traced
//! `service_durable` run) and records the wall time of the four
//! storage entry points the service drives — `sync`, `try_sync`,
//! `checkpoint` and `try_checkpoint` — into shared histograms. It adds
//! two clock reads per call and changes no result; `tests/wrapper.rs`
//! checks the second claim against the bare shard type.

use fiting_index_api::{BuildableIndex, Degraded, Key, ShardHealth, SortedIndex};
use fiting_telemetry::Histogram;
use std::ops::RangeBounds;
use std::sync::Arc;
use std::time::Instant;

/// Durations of the timed storage calls, shared by every shard.
#[derive(Default)]
pub struct StorageTimers {
    /// One sample per `sync` / `try_sync` call (the group commit).
    pub sync: Histogram,
    /// One sample per `checkpoint` / `try_checkpoint` call.
    pub checkpoint: Histogram,
}

/// Build configuration of a [`TimedShard`]: the wrapped structure's
/// configuration plus the timers every built shard reports into.
#[derive(Clone)]
pub struct TimedConfig<C> {
    /// Configuration of the wrapped structure.
    pub inner: C,
    /// Where the built shards record their storage calls.
    pub timers: Arc<StorageTimers>,
}

/// A shard that delegates to `I` and times its storage calls.
pub struct TimedShard<I> {
    inner: I,
    timers: Arc<StorageTimers>,
}

impl<I> TimedShard<I> {
    /// Wraps `inner`, recording into `timers`.
    pub fn new(inner: I, timers: Arc<StorageTimers>) -> Self {
        TimedShard { inner, timers }
    }

    /// The wrapped shard.
    pub fn inner(&self) -> &I {
        &self.inner
    }

    fn timed<R>(
        &mut self,
        hist: fn(&StorageTimers) -> &Histogram,
        call: impl FnOnce(&mut I) -> R,
    ) -> R {
        let start = Instant::now();
        let out = call(&mut self.inner);
        hist(&self.timers).record_duration(start.elapsed());
        out
    }
}

fn sync_hist(t: &StorageTimers) -> &Histogram {
    &t.sync
}

fn checkpoint_hist(t: &StorageTimers) -> &Histogram {
    &t.checkpoint
}

impl<K: Key, V: Clone, I: SortedIndex<K, V>> SortedIndex<K, V> for TimedShard<I> {
    type RangeIter<'a>
        = I::RangeIter<'a>
    where
        Self: 'a,
        K: 'a,
        V: 'a;

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn get(&self, key: &K) -> Option<&V> {
        self.inner.get(key)
    }

    fn insert(&mut self, key: K, value: V) -> Option<V> {
        self.inner.insert(key, value)
    }

    fn remove(&mut self, key: &K) -> Option<V> {
        self.inner.remove(key)
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn size_bytes(&self) -> usize {
        self.inner.size_bytes()
    }

    fn range<R: RangeBounds<K>>(&self, range: R) -> Self::RangeIter<'_> {
        self.inner.range(range)
    }

    fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    fn range_collect<R: RangeBounds<K>>(&self, range: R) -> Vec<(K, V)> {
        self.inner.range_collect(range)
    }

    fn range_count<R: RangeBounds<K>>(&self, range: R) -> usize {
        self.inner.range_count(range)
    }

    fn insert_many(&mut self, batch: Vec<(K, V)>) -> usize {
        self.inner.insert_many(batch)
    }

    fn split_off_tail(&mut self, at: &K) -> Option<Self> {
        let tail = self.inner.split_off_tail(at)?;
        Some(TimedShard::new(tail, Arc::clone(&self.timers)))
    }

    fn absorb_tail(&mut self, other: &mut Self) -> bool {
        self.inner.absorb_tail(&mut other.inner)
    }

    fn disk_bytes(&self) -> usize {
        self.inner.disk_bytes()
    }

    fn wal_bytes(&self) -> usize {
        self.inner.wal_bytes()
    }

    fn sync(&mut self) -> bool {
        self.timed(sync_hist, I::sync)
    }

    fn checkpoint(&mut self) -> bool {
        self.timed(checkpoint_hist, I::checkpoint)
    }

    fn try_insert(&mut self, key: K, value: V) -> Result<Option<V>, Degraded> {
        self.inner.try_insert(key, value)
    }

    fn try_remove(&mut self, key: &K) -> Result<Option<V>, Degraded> {
        self.inner.try_remove(key)
    }

    fn try_insert_many(&mut self, batch: Vec<(K, V)>) -> Result<usize, Degraded> {
        self.inner.try_insert_many(batch)
    }

    fn try_sync(&mut self) -> Result<bool, Degraded> {
        self.timed(sync_hist, I::try_sync)
    }

    fn try_checkpoint(&mut self) -> Result<bool, Degraded> {
        self.timed(checkpoint_hist, I::try_checkpoint)
    }

    fn health(&self) -> ShardHealth {
        self.inner.health()
    }

    fn io_retries(&self) -> u64 {
        self.inner.io_retries()
    }

    fn reload(&mut self) -> bool {
        self.inner.reload()
    }
}

impl<K: Key, V: Clone, I: BuildableIndex<K, V>> BuildableIndex<K, V> for TimedShard<I> {
    type Config = TimedConfig<I::Config>;
    type BuildError = I::BuildError;

    fn build_sorted(config: &Self::Config, sorted: Vec<(K, V)>) -> Result<Self, Self::BuildError> {
        let inner = I::build_sorted(&config.inner, sorted)?;
        Ok(TimedShard::new(inner, Arc::clone(&config.timers)))
    }
}
