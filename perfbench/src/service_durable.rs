//! `service_durable` phase: the command pipeline over durable shards,
//! at a fixed open-loop rate.
//!
//! ~1M keys of the workload's distribution bulk-loaded into
//! `DurableIndex` shards (one per lane, [`lanes`] ≤ available cores)
//! behind `IndexService::start_durable`, with the store fsync policy
//! [`FSYNC`]. One generator thread sends requests on a fixed schedule
//! of [`RATE`] requests per second — an absolute rate, the same on
//! every machine and commit — 90 % gets of loaded keys and 10 %
//! inserts of fresh keys in the gaps between loaded keys, so inserts
//! follow the distribution. The generator spins (never sleeps) for waits
//! under [`SPIN_BELOW_NS`], because a short `thread::sleep` overshoots
//! by tens of microseconds on a small VM. Latency runs from each
//! request's due time to its ticket's resolution, so generator lag and
//! queueing both count; each quarter second of the schedule is one
//! statistics window.
//!
//! Only medians are gated end to end here: on a small shared machine
//! the p99 of this open loop moves by 30–100 % from run to run with
//! multi-millisecond scheduling stalls, so the traced run reports it
//! (`bench.service_get_p99_ns`, `bench.service_insert_p99_ns`) next to
//! the service and storage tails that explain it.
//! After the schedule drains: clean shutdown, timed reopens with
//! `open_sharded`, and a check that every acknowledged insert is
//! readable with its value.
//!
//! The store lives under `.perfbench-data/` in the working directory
//! and is removed when the run ends.

use crate::check::NOT_FOUND;
use crate::rng::Rng;
use crate::stats::{delta_percentile, median, Windows};
use crate::timed_shard::{StorageTimers, TimedConfig, TimedShard};
use crate::{pairs_of, value_of, PhaseTotals, RunConfig, RunResult};
use fiting_index_api::{BuildableIndex, ShardedIndex};
use fiting_index_service::{
    Command, Completer, DurabilityConfig, IndexService, MetricsSnapshot, Outcome, ServiceConfig,
    TryPushError,
};
use fiting_storage::{open_sharded, DurableConfig, DurableIndex, FsyncPolicy};
use fiting_telemetry::{Histogram, HistogramSnapshot};
use fiting_tree::{FitingTree, FitingTreeBuilder};
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Keys bulk-loaded.
pub const KEYS: usize = 1_000_000;
/// Error budget of every shard.
pub const ERROR: u64 = 64;
/// Requests per second offered by the generator.
pub const RATE: f64 = 20_000.0;
/// Share of requests that insert a fresh key, in percent.
pub const INSERT_PERCENT: u64 = 10;
/// Store fsync policy (the same for every run).
pub const FSYNC: FsyncPolicy = FsyncPolicy::Off;
/// Waits shorter than this are spun, longer ones slept (minus this).
pub const SPIN_BELOW_NS: u64 = 300_000;
/// Length of one statistics window of the schedule, in nanoseconds.
const WINDOW_NS: u64 = 250_000_000;
/// Delay between starting the clock and the first due time.
const LEAD_NS: u64 = 1_000_000;
/// Service set-ups per cycle whose median is the phase's set-up time.
const SETUP_REPEATS: usize = 5;
/// Reopens per cycle whose median is `recover_s`.
const REOPEN_REPEATS: usize = 7;

/// Lanes (= shards): two, or fewer on a machine with fewer cores.
#[must_use]
pub fn lanes() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// The service configuration, stated in the provenance lines.
#[must_use]
pub fn durability() -> DurabilityConfig {
    DurabilityConfig {
        sync_each_batch: true,
        // Checkpoints stay out of the timed schedule; their cost is
        // measured after the run (`storage.checkpoint_s`).
        checkpoint_interval: Duration::from_secs(3_600),
        checkpoint_wal_bytes: 1 << 20,
    }
}

/// One request of the schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Lookup of a loaded key.
    Get(u64),
    /// Insert of a key not loaded and not inserted before.
    Insert(u64),
}

/// Draws `n` requests over the sorted loaded `keys`; a fresh key lands
/// in the gap after a uniformly chosen loaded key.
#[must_use]
pub fn schedule(keys: &[u64], rng: &mut Rng, n: usize) -> Vec<Op> {
    let mut fresh: HashSet<u64> = HashSet::new();
    (0..n)
        .map(|_| {
            if rng.percent(INSERT_PERCENT) {
                loop {
                    let i = rng.index(keys.len() - 1);
                    let gap = keys[i + 1] - keys[i];
                    if gap > 1 {
                        let k = keys[i] + 1 + rng.below(gap - 1);
                        if fresh.insert(k) {
                            break Op::Insert(k);
                        }
                    }
                }
            } else {
                Op::Get(keys[rng.index(keys.len())])
            }
        })
        .collect()
}

/// A durable store directory, removed on drop.
struct Store {
    root: PathBuf,
}

impl Store {
    fn fresh(tag: &str) -> Store {
        let root = Path::new(".perfbench-data").join(format!("{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        Store { root }
    }

    fn config(&self) -> DurableConfig<FitingTreeBuilder> {
        DurableConfig::new(&self.root, FSYNC, FitingTreeBuilder::new(ERROR))
            .expect("store directory is creatable")
    }

    /// Bytes of every file in the store.
    fn bytes(&self) -> u64 {
        fn walk(dir: &Path) -> u64 {
            let Ok(entries) = std::fs::read_dir(dir) else {
                return 0;
            };
            entries
                .filter_map(Result::ok)
                .map(|e| match e.metadata() {
                    Ok(m) if m.is_dir() => walk(&e.path()),
                    Ok(m) => m.len(),
                    Err(_) => 0,
                })
                .sum()
        }
        walk(&self.root)
    }
}

impl Drop for Store {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
        // Leaves `.perfbench-data` itself only if another run still
        // uses it.
        let _ = std::fs::remove_dir(".perfbench-data");
    }
}

/// Where completions land: per-window latency histograms and tallies,
/// written by the lane workers that resolve the tickets.
struct Recorder {
    clock: Instant,
    get: Vec<Histogram>,
    insert: Vec<Histogram>,
    lag: Histogram,
    wrong: AtomicU64,
    refused: AtomicU64,
    resolved: AtomicU64,
    acked: Vec<AtomicBool>,
}

impl Recorder {
    fn new(windows: usize, ops: usize) -> Recorder {
        Recorder {
            clock: Instant::now(),
            get: (0..windows).map(|_| Histogram::new()).collect(),
            insert: (0..windows).map(|_| Histogram::new()).collect(),
            lag: Histogram::new(),
            wrong: AtomicU64::new(0),
            refused: AtomicU64::new(0),
            resolved: AtomicU64::new(0),
            acked: (0..ops).map(|_| AtomicBool::new(false)).collect(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.clock.elapsed().as_nanos() as u64
    }

    fn window(&self, due_ns: u64) -> usize {
        (((due_ns - LEAD_NS) / WINDOW_NS) as usize).min(self.get.len() - 1)
    }

    /// The completer of request `j` (`op`, due at `due_ns`): records
    /// its latency, checks its answer and marks an insert acknowledged.
    fn completer(self: &Arc<Self>, j: usize, op: Op, due_ns: u64) -> Completer<Option<u64>> {
        let rec = Arc::clone(self);
        Completer::from_fn(move |outcome: Outcome<Option<u64>>| {
            if let Outcome::Done(answer) = outcome {
                let done_ns = rec.now_ns();
                let latency = done_ns.saturating_sub(due_ns);
                let window = rec.window(due_ns);
                let (hist, expected) = match op {
                    Op::Get(k) => (&rec.get[window], value_of(k)),
                    Op::Insert(_) => (&rec.insert[window], NOT_FOUND),
                };
                hist.record(latency);
                // ordering: Relaxed for the tallies — read only after
                // `resolved` is observed complete (Acquire below).
                if answer.unwrap_or(NOT_FOUND) != expected {
                    rec.wrong.fetch_add(1, Ordering::Relaxed);
                }
                if matches!(op, Op::Insert(_)) {
                    // ordering: Relaxed — published by the Release
                    // increment of `resolved` below.
                    rec.acked[j].store(true, Ordering::Relaxed);
                }
            } else {
                // ordering: Relaxed — tally, see above.
                rec.refused.fetch_add(1, Ordering::Relaxed);
            }
            // ordering: Release — pairs with the Acquire load in
            // `drain`, publishing this completion's tallies and ack.
            rec.resolved.fetch_add(1, Ordering::Release);
        })
    }

    /// Waits until all `total` requests have resolved.
    fn drain(&self, total: u64) -> Result<(), String> {
        let deadline = Instant::now() + Duration::from_secs(60);
        // ordering: Acquire — pairs with the Release increments in
        // the completers.
        while self.resolved.load(Ordering::Acquire) < total {
            if Instant::now() > deadline {
                return Err("service did not resolve every request within 60 s".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok(())
    }
}

/// Spins or sleeps until `due_ns` on `rec`'s clock; returns the time
/// the wait ended.
fn wait_until(rec: &Recorder, due_ns: u64) -> u64 {
    loop {
        let now = rec.now_ns();
        if now >= due_ns {
            return now;
        }
        let ahead = due_ns - now;
        if ahead > SPIN_BELOW_NS {
            std::thread::sleep(Duration::from_nanos(ahead - SPIN_BELOW_NS));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Everything one service run measured.
#[derive(Default)]
struct Served {
    setup_s: f64,
    get: Windows,
    insert: Windows,
    lag: Option<HistogramSnapshot>,
    attempted: u64,
    wrong: u64,
    refused: u64,
    metrics: Option<(MetricsSnapshot, MetricsSnapshot)>,
    contended: u64,
    wal_bytes: usize,
    recover: Vec<f64>,
    replayed: usize,
    disk_per_user_byte: f64,
    checkpoint_s: f64,
}

/// Sets up the service (`repeats` times, keeping the last), runs the
/// schedule, shuts down, reopens and checks every acknowledged insert.
fn serve<I>(
    keys: &[u64],
    ops: &[Op],
    repeats: usize,
    make_config: impl Fn(&Store) -> I::Config,
) -> Result<Served, String>
where
    I: BuildableIndex<u64, u64> + Send + Sync + 'static,
{
    let mut served = Served::default();
    let mut setups = Vec::with_capacity(repeats);
    let mut running = None;
    for r in 0..repeats {
        if let Some((service, store)) = running.take() {
            let service: IndexService<u64, u64, I> = service;
            drop(service.shutdown());
            drop(store);
        }
        let store = Store::fresh(&format!("setup{r}"));
        let config = make_config(&store);
        let pairs = pairs_of(keys);
        let start = Instant::now();
        let index = ShardedIndex::<u64, u64, I>::bulk_load(&config, lanes(), pairs)
            .map_err(|e| format!("durable bulk load failed: {e:?}"))?;
        let service = IndexService::start_durable(index, ServiceConfig::default(), durability());
        setups.push(start.elapsed().as_secs_f64());
        running = Some((service, store));
    }
    served.setup_s = median(&setups);
    let (service, store) = running.ok_or("no set-up ran")?;

    let windows = ops
        .len()
        .div_ceil((RATE * WINDOW_NS as f64 / 1e9) as usize)
        .max(1);
    let rec = Arc::new(Recorder::new(windows, ops.len()));
    let period_ns = 1e9 / RATE;
    let metrics_before = service.metrics();
    let contended_before = service.index().routing_stats().contended_reads;
    let client = service.client();
    for (j, &op) in ops.iter().enumerate() {
        let due_ns = LEAD_NS + (j as f64 * period_ns) as u64;
        let sent_ns = wait_until(&rec, due_ns);
        rec.lag.record(sent_ns - due_ns);
        let done = rec.completer(j, op, due_ns);
        let cmd = match op {
            Op::Get(key) => Command::Get { key, done },
            Op::Insert(key) => Command::Insert {
                key,
                value: value_of(key),
                done,
            },
        };
        match client.try_submit(cmd) {
            // A refused command resolves Canceled when dropped, which
            // the completer counts as refused.
            Ok(()) | Err(TryPushError::Busy(_)) => {}
            Err(TryPushError::Closed(_)) => return Err("service closed mid-run".into()),
        }
    }
    drop(client);
    rec.drain(ops.len() as u64)?;
    served.metrics = Some((metrics_before, service.metrics()));
    served.contended = service.index().routing_stats().contended_reads - contended_before;

    // ordering: Relaxed — `drain` acquired every completion.
    served.attempted = ops.len() as u64;
    served.wrong = rec.wrong.load(Ordering::Relaxed);
    served.refused = rec.refused.load(Ordering::Relaxed);
    for w in 0..windows {
        served.get.close(&rec.get[w]);
        served.insert.close(&rec.insert[w]);
    }
    served.lag = Some(rec.lag.snapshot());

    let index = service.shutdown();
    served.wal_bytes = index.shard_stats().iter().map(|s| s.wal_bytes).sum();
    drop(index);
    let disk_bytes = store.bytes();

    let config = store.config();
    let mut recovered = None;
    for _ in 0..REOPEN_REPEATS {
        drop(recovered.take());
        let start = Instant::now();
        let (index, report) = open_sharded::<u64, u64, FitingTree<u64, u64>>(&config)
            .map_err(|e| format!("reopen failed: {e:?}"))?;
        served.recover.push(start.elapsed().as_secs_f64());
        served.replayed = report.shards.iter().map(|s| s.replayed).sum();
        recovered = Some(index);
    }
    let recovered: ShardedIndex<u64, u64, DurableIndex<u64, u64>> =
        recovered.ok_or("no reopen ran")?;
    for (j, op) in ops.iter().enumerate() {
        // ordering: Relaxed — `drain` acquired every completion.
        if let Op::Insert(k) = *op {
            if rec.acked[j].load(Ordering::Relaxed) && recovered.get(&k) != Some(value_of(k)) {
                served.wrong += 1;
            }
        }
    }
    let live = recovered.len();
    if served.refused == 0
        && live != keys.len() + ops.iter().filter(|o| matches!(o, Op::Insert(_))).count()
    {
        served.wrong += 1;
    }
    served.disk_per_user_byte = disk_bytes as f64 / (16.0 * live.max(1) as f64);
    let start = Instant::now();
    let (checkpointed, failed) = recovered.try_checkpoint_shards(0);
    if failed > 0 {
        return Err(format!("{failed} shards failed to checkpoint"));
    }
    served.checkpoint_s = start.elapsed().as_secs_f64() / checkpointed.max(1) as f64;
    drop(recovered);
    drop(store);
    Ok(served)
}

/// Runs the phase, adding its end-to-end metrics to `out`, or its
/// per-layer metrics when `traced`.
///
/// # Errors
///
/// A storage or service failure that stops the run.
pub fn run(cfg: &RunConfig, traced: bool, out: &mut RunResult) -> Result<PhaseTotals, String> {
    let keys = cfg.dataset.generate(KEYS, cfg.seed);
    let mut rng = Rng::new(cfg.seed, 3);
    let seconds = if traced {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };
    let ops = schedule(&keys, &mut rng, (RATE * seconds) as usize);
    out.fact("service_durable.keys", &keys.len());
    out.fact("service_durable.error_budget", &ERROR);
    out.fact("service_durable.lanes", &lanes());
    out.fact("service_durable.fsync_policy", &format!("{FSYNC:?}"));
    out.fact("service_durable.rate_per_s", &RATE);
    out.fact(
        "service_durable.mix",
        &format!(
            "{}% gets, {INSERT_PERCENT}% fresh inserts",
            100 - INSERT_PERCENT
        ),
    );
    out.fact(
        "service_durable.service",
        &format!("{:?}", ServiceConfig::default()),
    );
    out.fact("service_durable.durability", &format!("{:?}", durability()));

    if !traced {
        let s = serve::<DurableIndex<u64, u64>>(&keys, &ops, SETUP_REPEATS, Store::config)?;
        out.put_windows("service_get_p50_ns", &s.get, 50.0);
        out.put_windows("service_insert_p50_ns", &s.insert, 50.0);
        out.put("disk_bytes_per_user_byte", s.disk_per_user_byte);
        out.put("recover_s", median(&s.recover));
        out.attempted += s.attempted;
        out.wrong += s.wrong;
        out.refused += s.refused;
        return Ok(PhaseTotals {
            setup_s: s.setup_s,
            ..PhaseTotals::default()
        });
    }

    let plain = serve::<DurableIndex<u64, u64>>(&keys, &ops, 1, Store::config)?;
    let timers = Arc::new(StorageTimers::default());
    let s = serve::<TimedShard<DurableIndex<u64, u64>>>(&keys, &ops, 1, |store| TimedConfig {
        inner: store.config(),
        timers: Arc::clone(&timers),
    })?;
    let (before, after) = s.metrics.as_ref().ok_or("no service metrics")?;
    let hist = |name: &str| -> Result<(HistogramSnapshot, HistogramSnapshot), String> {
        match (before.histogram(name), after.histogram(name)) {
            (Some(b), Some(a)) => Ok((b.clone(), a.clone())),
            _ => Err(format!("service metrics lack {name}")),
        }
    };
    let delta = |name: &str| -> f64 {
        after
            .counter(name)
            .unwrap_or(0)
            .saturating_sub(before.counter(name).unwrap_or(0)) as f64
    };
    let (qb, qa) = hist("service.get.queue_wait")?;
    let (eb, ea) = hist("service.get.execute")?;
    let lag = s.lag.clone().unwrap_or_else(HistogramSnapshot::empty);
    let queue_p50 = delta_percentile(&qb, &qa, 50.0);
    let execute_p50 = delta_percentile(&eb, &ea, 50.0);
    let lag_p50 = lag.percentile(50.0) as f64;
    let get_p50 = s.get.percentile(50.0);
    out.put("index-service.queue_wait_p50_ns", queue_p50);
    out.put(
        "index-service.queue_wait_p99_ns",
        delta_percentile(&qb, &qa, 99.0),
    );
    out.put("index-service.execute_p50_ns", execute_p50);
    out.put(
        "index-service.execute_p99_ns",
        delta_percentile(&eb, &ea, 99.0),
    );
    out.put(
        "index-service.mean_batch_len",
        delta("service.processed") / delta("service.batches").max(1.0),
    );
    out.put(
        "index-service.rejected_busy",
        delta("service.get.rejected_busy") + delta("service.insert.rejected_busy"),
    );
    out.put(
        "index-service.coalesced_writes_frac",
        delta("service.coalesced_writes") / delta("service.insert.submitted").max(1.0),
    );
    let sync = timers.sync.snapshot();
    out.put("storage.sync_calls", sync.count() as f64);
    out.put_pct(
        "storage.sync_p50_ns",
        sync.percentile(50.0) as f64,
        sync.count(),
    );
    out.put_pct(
        "storage.sync_p99_ns",
        sync.percentile(99.0) as f64,
        sync.count(),
    );
    out.put(
        "storage.checkpoints",
        timers.checkpoint.snapshot().count() as f64,
    );
    out.put("storage.checkpoint_s", s.checkpoint_s);
    out.put(
        "storage.wal_bytes_per_insert",
        s.wal_bytes as f64 / s.replayed.max(1) as f64,
    );
    out.put("storage.replayed", s.replayed as f64);
    out.put("storage.open_s", median(&s.recover));
    out.put_pct("bench.gen_lag_p50_ns", lag_p50, lag.count());
    out.put_pct(
        "bench.gen_lag_p99_ns",
        lag.percentile(99.0) as f64,
        lag.count(),
    );
    out.put(
        "bench.get_p50_explained_frac",
        (lag_p50 + queue_p50 + execute_p50) / get_p50,
    );
    out.put_windows("bench.service_get_p99_ns", &s.get, 99.0);
    out.put_windows("bench.service_insert_p99_ns", &s.insert, 99.0);
    out.attempted += plain.attempted + s.attempted;
    out.wrong += plain.wrong + s.wrong;
    out.refused += plain.refused + s.refused;
    Ok(PhaseTotals {
        contended_reads: s.contended,
        trace_overhead_frac: get_p50 / plain.get.percentile(50.0) - 1.0,
        ..PhaseTotals::default()
    })
}
