//! Pipeline observability: the per-lane counters the workers maintain,
//! and the readout that turns them — together with the queue depths,
//! lane health, and the index's shard, routing and rebalance counters —
//! into the typed metrics [`IndexService::metrics`] reports.
//!
//! The counters are plain relaxed atomics — they order nothing, they
//! only count. Every lane field is listed once, in [`LANE_FIELDS`]: the
//! readout exports it per lane as `service.lane.<i>.<field>` and, for
//! summed fields, as the service total `service.<field>`, both from one
//! load per lane, so a total always equals the sum of its lane series.
//!
//! Lanes vs shards: commands are routed to **lanes** — queue/worker
//! pairs fixed at service start — while the index's **shards** move
//! underneath as the rebalancer splits and merges them, so
//! `service.lanes` and `index.shards` are independent.
//!
//! [`IndexService::metrics`]: crate::IndexService::metrics

use crate::ServiceShared;
use fiting_index_api::{Key, ShardHealth, SortedIndex};
use fiting_telemetry::{Metric, Unit};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};

/// The lifecycle state of one lane (queue + worker pair), exported as
/// the `service.lane.<i>.health` gauge: 0 healthy, 1 degraded, 2
/// poisoned, 3 recovering.
///
/// State machine (see ARCHITECTURE.md "Failure model"):
///
/// ```text
/// Healthy <-> Degraded          (writes refused / shard healed)
/// Healthy | Degraded -> Poisoned  (worker panic; queue closed)
/// Poisoned -> Recovering        (supervisor resurrecting the lane)
/// Recovering -> Healthy         (shard reloaded, queue reopened)
/// ```
///
/// Without a supervisor (plain [`IndexService::start`]) `Poisoned` is
/// terminal for the process lifetime, exactly as in the pre-supervisor
/// design.
///
/// [`IndexService::start`]: crate::IndexService::start
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LaneHealth {
    /// Serving normally.
    #[default]
    Healthy,
    /// The lane's worker is alive but recent writes were refused by a
    /// degraded read-only shard (reads still serve).
    Degraded,
    /// The worker caught a panic: the queue is closed and everything
    /// queued was canceled.
    Poisoned,
    /// A supervisor is rebuilding the lane's shard and restarting its
    /// worker.
    Recovering,
}

impl LaneHealth {
    pub(crate) fn as_u8(self) -> u8 {
        match self {
            LaneHealth::Healthy => 0,
            LaneHealth::Degraded => 1,
            LaneHealth::Poisoned => 2,
            LaneHealth::Recovering => 3,
        }
    }

    pub(crate) fn from_u8(raw: u8) -> Self {
        match raw {
            1 => LaneHealth::Degraded,
            2 => LaneHealth::Poisoned,
            3 => LaneHealth::Recovering,
            _ => LaneHealth::Healthy,
        }
    }
}

/// One lane's live health word (an atomic [`LaneHealth`] the worker,
/// supervisor, and metrics readout all share).
#[derive(Debug, Default)]
pub(crate) struct LaneState(AtomicU8);

impl LaneState {
    // Lane health is an advisory signal — the queue mutex
    // (close/reopen) is what submitters actually synchronize on, and
    // the supervisor re-checks under its own joins — so Relaxed
    // suffices for every access on this impl block.
    pub(crate) fn get(&self) -> LaneHealth {
        // ordering: Relaxed load — see the note on this impl block.
        LaneHealth::from_u8(self.0.load(Ordering::Relaxed))
    }

    pub(crate) fn set(&self, health: LaneHealth) {
        // ordering: Relaxed store — see the note on this impl block.
        self.0.store(health.as_u8(), Ordering::Relaxed);
    }

    /// Transitions `from -> to` only if the state is still `from`, so
    /// the worker's Healthy/Degraded flapping can never stomp a
    /// `Poisoned`/`Recovering` mark owned by the panic path or the
    /// supervisor.
    pub(crate) fn transition(&self, from: LaneHealth, to: LaneHealth) -> bool {
        // ordering: Relaxed CAS — see the note on this impl block.
        self.0
            .compare_exchange(
                from.as_u8(),
                to.as_u8(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            )
            .is_ok()
    }
}

/// Live counters for one lane worker, exported through
/// [`LANE_FIELDS`].
#[derive(Debug, Default)]
pub(crate) struct WorkerCounters {
    /// Commands accepted into the lane's queue.
    pub enqueued: AtomicU64,
    /// Commands fully executed (their tickets resolved).
    pub processed: AtomicU64,
    /// Queue drains that produced at least one command.
    pub batches: AtomicU64,
    /// Largest single drain seen.
    pub largest_batch: AtomicU64,
    /// Write-lock acquisitions taken for coalesced point-write runs,
    /// plus one per `InsertMany` command (whose cross-shard call may
    /// take one lock per destination shard internally).
    pub write_runs: AtomicU64,
    /// Individual `Insert`/`InsertMany` pairs applied through a
    /// coalesced batch path instead of one-lock-per-op.
    pub coalesced_writes: AtomicU64,
    /// Panics caught by the lane's worker. A nonzero value means the
    /// lane has been poisoned: its queue is closed and its remaining
    /// commands were canceled (a supervisor, when attached, resurrects
    /// it — see `restarts`).
    pub panics: AtomicU64,
    /// Times a supervisor resurrected this lane after a poisoning.
    pub restarts: AtomicU64,
    /// Write commands refused with `CommandError::Degraded` because
    /// their shard was in degraded read-only mode.
    pub degraded_writes: AtomicU64,
    /// Post-batch group commits (`try_sync_all`) that reported at
    /// least one shard failing to flush its WAL.
    pub sync_failures: AtomicU64,
}

impl WorkerCounters {
    // ordering: all counters here are monotonic statistics read only by
    // the metrics readout; they synchronize nothing, so Relaxed suffices.
    pub(crate) fn note_batch(&self, len: usize) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.processed.fetch_add(len as u64, Ordering::Relaxed);
        self.largest_batch.fetch_max(len as u64, Ordering::Relaxed);
    }
}

/// One lane's live state, borrowed for a single metrics readout.
struct LaneView<'a> {
    counters: &'a WorkerCounters,
    queue_depth: usize,
    queue_capacity: usize,
    health: LaneHealth,
}

/// One lane field: exported per lane as `service.lane.<i>.<name>` and,
/// when `summed`, as the service total `service.<name>`.
struct LaneField {
    name: &'static str,
    /// Counter when true, gauge otherwise.
    counter: bool,
    unit: Unit,
    summed: bool,
    help: &'static str,
    read: fn(&LaneView<'_>) -> u64,
}

impl LaneField {
    fn metric(&self, name: &str, help: &str, value: u64) -> Metric {
        if self.counter {
            Metric::counter(name, self.unit, help, value)
        } else {
            Metric::gauge(name, self.unit, help, value as f64)
        }
    }
}

/// A summed per-lane event counter.
const fn counter(
    name: &'static str,
    help: &'static str,
    read: fn(&LaneView<'_>) -> u64,
) -> LaneField {
    LaneField {
        name,
        counter: true,
        unit: Unit::Count,
        summed: true,
        help,
        read,
    }
}

/// A per-lane gauge, summed into a service total when `summed`.
const fn gauge(
    name: &'static str,
    summed: bool,
    help: &'static str,
    read: fn(&LaneView<'_>) -> u64,
) -> LaneField {
    LaneField {
        name,
        counter: false,
        unit: Unit::Count,
        summed,
        help,
        read,
    }
}

// ordering: statistics readout — approximate cross-counter consistency
// is acceptable, so Relaxed loads suffice.
fn load(counter: &AtomicU64) -> u64 {
    counter.load(Ordering::Relaxed)
}

/// Every lane field, in export order.
const LANE_FIELDS: [LaneField; 13] = [
    gauge(
        "queue.depth",
        true,
        "commands waiting in the lane queue",
        |l| l.queue_depth as u64,
    ),
    gauge(
        "queue.capacity",
        false,
        "the lane queue's fixed bound",
        |l| l.queue_capacity as u64,
    ),
    counter("enqueued", "commands accepted", |l| {
        load(&l.counters.enqueued)
    }),
    counter("processed", "commands executed", |l| {
        load(&l.counters.processed)
    }),
    counter("batches", "non-empty queue drains", |l| {
        load(&l.counters.batches)
    }),
    gauge("largest_batch", false, "largest single drain", |l| {
        load(&l.counters.largest_batch)
    }),
    counter(
        "write_runs",
        "write-lock acquisitions for coalesced write runs",
        |l| load(&l.counters.write_runs),
    ),
    counter(
        "coalesced_writes",
        "writes applied through a coalesced batch path",
        |l| load(&l.counters.coalesced_writes),
    ),
    counter(
        "panics",
        "worker panics caught (each one poisoned its lane)",
        |l| load(&l.counters.panics),
    ),
    counter("restarts", "supervisor lane resurrections", |l| {
        load(&l.counters.restarts)
    }),
    counter(
        "degraded_writes",
        "writes refused by degraded read-only shards",
        |l| load(&l.counters.degraded_writes),
    ),
    counter(
        "sync_failures",
        "group commits that failed on at least one shard",
        |l| load(&l.counters.sync_failures),
    ),
    LaneField {
        name: "health",
        counter: false,
        unit: Unit::Ratio,
        summed: false,
        help: "lane state: 0 healthy, 1 degraded, 2 poisoned, 3 recovering",
        read: |l| u64::from(l.health.as_u8()),
    },
];

impl<K: Key, V: Clone, I: SortedIndex<K, V> + 'static> ServiceShared<K, V, I> {
    /// Every metric the service exports, read from the live counters:
    /// the per-kind latency instruments, the service totals and
    /// per-lane series of [`LANE_FIELDS`], and the index's shard,
    /// routing and rebalance counters (`rebalance.*` only when a
    /// rebalancer is attached).
    pub(crate) fn metrics(&self) -> Vec<Metric> {
        let lanes: Vec<LaneView<'_>> = (0..self.queues.len())
            .map(|i| LaneView {
                counters: &self.counters[i],
                queue_depth: self.queues[i].len(),
                queue_capacity: self.queues[i].capacity(),
                health: self.lane_state[i].get(),
            })
            .collect();
        let values: Vec<Vec<u64>> = LANE_FIELDS
            .iter()
            .map(|f| lanes.iter().map(f.read).collect())
            .collect();
        let total = |name: &str| -> u64 {
            let field = LANE_FIELDS.iter().position(|f| f.name == name);
            values[field.expect("known lane field")].iter().sum()
        };
        let shards = self.index.shard_stats();
        let degraded = shards.iter().any(|s| s.health == ShardHealth::Degraded)
            || lanes.iter().any(|l| l.health == LaneHealth::Degraded);
        let batches = total("batches");

        let mut out = self.telemetry.metrics();
        out.push(Metric::gauge(
            "service.lanes",
            Unit::Count,
            "queue/worker pairs (fixed at service start)",
            lanes.len() as f64,
        ));
        for (field, vals) in LANE_FIELDS.iter().zip(&values) {
            if field.summed {
                let name = format!("service.{}", field.name);
                let help = format!("{} across all lanes", field.help);
                out.push(field.metric(&name, &help, vals.iter().sum()));
            }
        }
        out.push(Metric::gauge(
            "service.mean_batch_len",
            Unit::Ratio,
            "commands per non-empty drain (achieved batching)",
            if batches == 0 {
                0.0
            } else {
                total("processed") as f64 / batches as f64
            },
        ));
        out.push(Metric::counter(
            "service.checkpoint_failures",
            Unit::Count,
            "checkpoint rotations that failed (shard degraded)",
            // ordering: Relaxed — advisory stats counter.
            self.checkpoint_failures.load(Ordering::Relaxed),
        ));
        out.push(Metric::gauge(
            "service.degraded",
            Unit::Ratio,
            "1 when any shard or lane is degraded (writes may be refused)",
            f64::from(u8::from(degraded)),
        ));
        for lane in 0..lanes.len() {
            for (field, vals) in LANE_FIELDS.iter().zip(&values) {
                let name = format!("service.lane.{lane}.{}", field.name);
                out.push(field.metric(&name, field.help, vals[lane]));
            }
        }

        let entries: usize = shards.iter().map(|s| s.entries).sum();
        let fullest = shards.iter().map(|s| s.entries).max().unwrap_or(0);
        let gauges = [
            (
                "index.shards",
                Unit::Count,
                "live shard count (moves under rebalancing)",
                shards.len() as f64,
            ),
            (
                "index.entries",
                Unit::Count,
                "entries across all shards",
                entries as f64,
            ),
            (
                "index.size_bytes",
                Unit::Bytes,
                "in-memory structure bytes across all shards",
                shards.iter().map(|s| s.size_bytes).sum::<usize>() as f64,
            ),
            (
                "index.wal_bytes",
                Unit::Bytes,
                "un-checkpointed WAL bytes across all shards",
                shards.iter().map(|s| s.wal_bytes).sum::<usize>() as f64,
            ),
            (
                "index.imbalance",
                Unit::Ratio,
                "fullest shard's entries over the mean (1.0 = balanced)",
                if entries == 0 {
                    1.0
                } else {
                    (fullest * shards.len()) as f64 / entries as f64
                },
            ),
        ];
        for (name, unit, help, value) in gauges {
            out.push(Metric::gauge(name, unit, help, value));
        }

        let routing = self.index.routing_stats();
        let mut counters = vec![
            (
                "index.io_retries",
                "transient storage faults absorbed by retry",
                shards.iter().map(|s| s.io_retries).sum(),
            ),
            (
                "routing.publishes",
                "routing tables published (one per rebalance step)",
                routing.publishes,
            ),
            (
                "routing.refreshes",
                "reader cache misses that fell back to the publisher mutex",
                routing.refreshes,
            ),
            (
                "routing.contended_reads",
                "shard reads that hit a writer and took the fallback lock",
                routing.contended_reads,
            ),
            (
                "routing.reclaimed",
                "retired routing tables reclaimed after their grace period",
                routing.reclaimed,
            ),
        ];
        if let Some(reb) = self.rebalance.as_ref().map(|c| c.snapshot()) {
            counters.extend([
                ("rebalance.steps", "rebalance policy evaluations", reb.steps),
                ("rebalance.splits", "shard splits performed", reb.splits),
                ("rebalance.merges", "shard merges performed", reb.merges),
                (
                    "rebalance.moved_keys",
                    "entries moved between shards by splits and merges",
                    reb.moved_keys,
                ),
            ]);
        }
        for (name, help, value) in counters {
            out.push(Metric::counter(name, Unit::Count, help, value));
        }
        out.push(Metric::gauge(
            "routing.retired_backlog",
            Unit::Count,
            "retired routing tables still awaiting reclamation",
            routing.retired_backlog as f64,
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::{PanicOnKey, SICK_KEY};
    use crate::{CommandKind, IndexService, RebalancePolicy, Rebalancer, ServiceConfig};
    use fiting_index_api::doctest_support::VecIndex;
    use fiting_index_api::ShardedIndex;
    use fiting_telemetry::{MetricValue, MetricsSnapshot};
    use std::collections::BTreeSet;
    use std::time::Duration;

    fn start<I>(pairs: Vec<(u64, u64)>, shards: usize) -> IndexService<u64, u64, I>
    where
        I: fiting_index_api::BuildableIndex<u64, u64, Config = ()> + Send + Sync + 'static,
        I::BuildError: std::fmt::Debug,
    {
        let index = ShardedIndex::bulk_load(&(), shards, pairs).unwrap();
        IndexService::start(index, ServiceConfig::default())
    }

    fn value(snap: &MetricsSnapshot, name: &str) -> u64 {
        match snap.get(name).map(|m| &m.value) {
            Some(MetricValue::Counter(v)) => *v,
            Some(MetricValue::Gauge(v)) => *v as u64,
            other => panic!("{name}: {other:?}"),
        }
    }

    #[test]
    fn totals_equal_sums_of_lane_series() {
        let svc = start::<VecIndex<u64, u64>>((0..1_000u64).map(|k| (k * 2, k)).collect(), 2);
        let client = svc.client();
        let tickets: Vec<_> = (0..500u64).map(|k| client.insert(k * 4 + 1, k)).collect();
        for t in tickets {
            t.wait().unwrap();
        }
        assert_eq!(client.get(0).wait(), Ok(Some(0)));
        let snap = svc.metrics();
        for field in LANE_FIELDS.iter().filter(|f| f.summed) {
            let lanes: u64 = (0..2)
                .map(|i| value(&snap, &format!("service.lane.{i}.{}", field.name)))
                .sum();
            assert_eq!(value(&snap, &format!("service.{}", field.name)), lanes);
        }
        let processed = value(&snap, "service.processed");
        assert_eq!(processed, 501);
        let batches = value(&snap, "service.batches") as f64;
        let mean = snap.gauge("service.mean_batch_len").unwrap();
        assert!((mean - processed as f64 / batches).abs() < 1e-9);
        let _ = svc.shutdown();
    }

    #[test]
    fn degraded_reflects_shard_and_lane_health() {
        let svc = start::<PanicOnKey>((0..100u64).map(|k| (k, k)).collect(), 2);
        let degraded = || svc.metrics().gauge("service.degraded");
        assert_eq!(degraded(), Some(0.0));
        // A shard holding SICK_KEY reports itself degraded.
        svc.index().insert(SICK_KEY, 0);
        assert_eq!(degraded(), Some(1.0));
        svc.index().remove(&SICK_KEY);
        assert_eq!(degraded(), Some(0.0));
        svc.shared.lane_state[0].set(LaneHealth::Degraded);
        assert_eq!(degraded(), Some(1.0));
        assert_eq!(svc.metrics().gauge("service.lane.0.health"), Some(1.0));
        // Poisoned and recovering lanes are not "degraded".
        svc.shared.lane_state[0].set(LaneHealth::Recovering);
        assert_eq!(degraded(), Some(0.0));
        svc.shared.lane_state[0].set(LaneHealth::Healthy);
        let _ = svc.shutdown();
    }

    #[test]
    fn imbalance_is_fullest_over_mean() {
        let svc = start::<VecIndex<u64, u64>>((0..100u64).map(|k| (k, k)).collect(), 2);
        let imbalance = || svc.metrics().gauge("index.imbalance").unwrap();
        assert!((imbalance() - 1.0).abs() < 1e-9, "50/50 is balanced");
        // 50 more keys past the boundary: 50/100 entries, mean 75.
        for k in 100..150u64 {
            svc.index().insert(k, k);
        }
        assert!((imbalance() - 100.0 / 75.0).abs() < 1e-9);
        let _ = svc.shutdown();
    }

    #[test]
    fn idle_empty_service_degenerates_cleanly() {
        let svc = start::<VecIndex<u64, u64>>(Vec::new(), 2);
        let snap = svc.metrics();
        assert_eq!(
            snap.gauge("service.lanes"),
            Some(1.0),
            "empty load: one shard"
        );
        assert_eq!(snap.gauge("service.mean_batch_len"), Some(0.0));
        assert_eq!(snap.gauge("index.imbalance"), Some(1.0));
        assert_eq!(snap.counter("service.processed"), Some(0));
        assert_eq!(snap.gauge("service.degraded"), Some(0.0));
        let _ = svc.shutdown();
    }

    /// `(name, type, unit)` for every row of the metric catalog in
    /// `docs/OBSERVABILITY.md`, with `{kind}` expanded over the command
    /// kinds and `<i>` over `lanes` lanes.
    fn documented(lanes: usize) -> BTreeSet<(String, String, String)> {
        let doc = include_str!("../../../docs/OBSERVABILITY.md");
        let catalog = doc.split("## Metric catalog").nth(1).unwrap();
        let catalog = catalog.split("\n## ").next().unwrap();
        let kinds: Vec<&str> = CommandKind::ALL.iter().map(|k| k.as_str()).collect();
        let lane_ids: Vec<String> = (0..lanes).map(|i| i.to_string()).collect();
        let mut out = BTreeSet::new();
        for line in catalog.lines().filter(|l| l.starts_with("| `")) {
            let cells: Vec<&str> = line.split('|').map(str::trim).collect();
            let (name, ty, unit) = (cells[1].trim_matches('`'), cells[2], cells[3]);
            let names: Vec<String> = if name.contains("{kind}") {
                kinds.iter().map(|k| name.replace("{kind}", k)).collect()
            } else if name.contains("<i>") {
                lane_ids.iter().map(|i| name.replace("<i>", i)).collect()
            } else {
                vec![name.to_string()]
            };
            for n in names {
                out.insert((n, ty.to_string(), unit.to_string()));
            }
        }
        out
    }

    fn exported(snap: &MetricsSnapshot) -> BTreeSet<(String, String, String)> {
        snap.metrics
            .iter()
            .map(|m| {
                let ty = match m.value {
                    MetricValue::Counter(_) => "counter",
                    MetricValue::Gauge(_) => "gauge",
                    MetricValue::Histogram(_) => "histogram",
                };
                (m.name.clone(), ty.to_string(), m.unit.as_str().to_string())
            })
            .collect()
    }

    #[test]
    fn catalog_matches_exported_metrics() {
        let pairs = || (0..100u64).map(|k| (k, k)).collect::<Vec<_>>();
        let plain = start::<VecIndex<u64, u64>>(pairs(), 2);
        let rebalancing = IndexService::start_rebalancing(
            ShardedIndex::<u64, u64, VecIndex<u64, u64>>::bulk_load(&(), 2, pairs()).unwrap(),
            ServiceConfig::default(),
            Rebalancer::new((), RebalancePolicy::default()),
            Duration::from_secs(3_600),
        );
        let doc = documented(2);
        let without_rebalance: BTreeSet<_> = doc
            .iter()
            .filter(|(name, ..)| !name.starts_with("rebalance."))
            .cloned()
            .collect();
        assert_eq!(exported(&plain.metrics()), without_rebalance);
        assert_eq!(exported(&rebalancing.metrics()), doc);
        let _ = plain.shutdown();
        let _ = rebalancing.shutdown();
    }

    #[test]
    fn lane_state_transitions_guard_ownership() {
        let state = LaneState::default();
        assert_eq!(state.get(), LaneHealth::Healthy);
        assert!(state.transition(LaneHealth::Healthy, LaneHealth::Degraded));
        assert!(!state.transition(LaneHealth::Healthy, LaneHealth::Poisoned));
        state.set(LaneHealth::Poisoned);
        // The worker's Degraded->Healthy heal must not clear Poisoned.
        assert!(!state.transition(LaneHealth::Degraded, LaneHealth::Healthy));
        assert_eq!(state.get(), LaneHealth::Poisoned);
        for h in [
            LaneHealth::Healthy,
            LaneHealth::Degraded,
            LaneHealth::Poisoned,
            LaneHealth::Recovering,
        ] {
            assert_eq!(LaneHealth::from_u8(h.as_u8()), h);
        }
    }
}
