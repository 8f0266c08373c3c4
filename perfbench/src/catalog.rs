//! Every name the benchmark prints: workloads, end-to-end metrics
//! (untraced run) and per-layer metrics (traced run), with units. Every
//! workload reports every metric of its mode. `BENCHMARK.json` lists
//! the same set; `tests/catalog.rs` keeps the two in step.

use fiting_datasets::Dataset;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The spelling used in `BENCHMARK.json`.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One workload: a key distribution and the reason it was chosen.
#[derive(Debug)]
pub struct Workload {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// One-line reason, as recorded in `BENCHMARK.json`.
    pub why: &'static str,
    /// Distribution of every key the three phases load.
    pub dataset: Dataset,
}

/// One metric: name, unit, direction and bound.
#[derive(Debug)]
pub struct Metric {
    /// Printed name.
    pub name: &'static str,
    /// Printed unit.
    pub unit: &'static str,
    /// Which direction is an improvement.
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen before a change counts as a regression (`None` for
    /// per-layer metrics, which carry no bound).
    pub bound: Option<f64>,
}

/// The workloads, in the order `BENCHMARK.json` lists them. Each runs
/// the `read_large`, `write_mixed` and `service_durable` phases on keys
/// of its distribution.
pub const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "weblogs",
        why: "Weblogs timestamps, the paper's most non-linear headline set (most segments): 8M-key gets and \
              scans, 1M-key inserts, durable service",
        dataset: Dataset::Weblogs,
    },
    Workload {
        name: "iot",
        why: "IoT timestamps, the paper's bursty daily-cycle set (fewer, longer segments): the same three phases \
              with a different directory and insert pattern",
        dataset: Dataset::Iot,
    },
];

/// The workload called `name`.
#[must_use]
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics, reported by an untraced run (`--trace 0`). The
/// phase that measures each is named in `perfbench/README.md`.
///
/// Bounds follow the spread of ten seeds on a shared 2-vCPU machine:
/// latencies, throughput and set-up spread by 0.04–0.24 (interquartile
/// range over median) there, mostly from the machine's own drift, so
/// they carry the largest allowed bound; the size metrics are nearly
/// deterministic per seed.
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("get_p50_ns", "ns", Lower, 0.25),
    e2e("get_p99_ns", "ns", Lower, 0.25),
    e2e("range_p50_ns", "ns", Lower, 0.25),
    e2e("range_p99_ns", "ns", Lower, 0.25),
    e2e("throughput_ops_s", "ops/s", Higher, 0.25),
    e2e("index_bytes_per_key", "B/key", Lower, 0.1),
    e2e("insert_p50_ns", "ns", Lower, 0.25),
    e2e("write_throughput_ops_s", "ops/s", Higher, 0.25),
    e2e("service_get_p50_ns", "ns", Lower, 0.25),
    e2e("service_insert_p50_ns", "ns", Lower, 0.25),
    e2e("disk_bytes_per_user_byte", "B/B", Lower, 0.05),
    e2e("recover_s", "s", Lower, 0.25),
    e2e("success_frac", "frac", Higher, 0.01),
];

/// Per-layer metrics, reported by a traced run (`--trace 1`).
pub const PER_LAYER: &[Metric] = &[
    layer("core.get_ns", "ns", Lower),
    layer("core.directory_ns", "ns", Lower),
    layer("core.segment_search_ns", "ns", Lower),
    layer("core.range_ns", "ns", Lower),
    layer("core.insert_ns", "ns", Lower),
    layer("core.buffered_entries", "count", Lower),
    layer("core.directory_splices", "count", Lower),
    layer("core.directory_splice_entries", "count", Lower),
    layer("bench.insert_p99_ns", "ns", Lower),
    layer("core.segments", "count", Lower),
    layer("plr.build_s", "s", Lower),
    layer("index-api.route_ns", "ns", Lower),
    layer("index-api.range_fanout", "frac", Lower),
    layer("sync.contended_reads", "count", Lower),
    layer("index-service.queue_wait_p50_ns", "ns", Lower),
    layer("index-service.queue_wait_p99_ns", "ns", Lower),
    layer("index-service.execute_p50_ns", "ns", Lower),
    layer("index-service.execute_p99_ns", "ns", Lower),
    layer("index-service.mean_batch_len", "count", Higher),
    layer("index-service.rejected_busy", "count", Lower),
    layer("index-service.coalesced_writes_frac", "frac", Higher),
    layer("storage.sync_calls", "count", Lower),
    layer("storage.sync_p50_ns", "ns", Lower),
    layer("storage.sync_p99_ns", "ns", Lower),
    layer("storage.checkpoints", "count", Lower),
    layer("storage.checkpoint_s", "s", Lower),
    layer("storage.wal_bytes_per_insert", "B/op", Lower),
    layer("storage.replayed", "count", Lower),
    layer("storage.open_s", "s", Lower),
    layer("bench.gen_lag_p50_ns", "ns", Lower),
    layer("bench.gen_lag_p99_ns", "ns", Lower),
    layer("bench.get_p50_explained_frac", "frac", Higher),
    layer("bench.service_get_p99_ns", "ns", Lower),
    layer("bench.service_insert_p99_ns", "ns", Lower),
    layer("bench.clock_read_ns", "ns", Lower),
    layer("bench.trace_overhead_frac", "frac", Lower),
];

/// The metrics every workload reports in the given mode.
#[must_use]
pub fn metrics_for(traced: bool) -> &'static [Metric] {
    if traced {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// The catalog entry of a metric name (either table).
#[must_use]
pub fn lookup(name: &str) -> Option<&'static Metric> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
}

/// Whether `name` is made only of `[A-Za-z0-9_.-]` and starts with a
/// letter or digit.
#[must_use]
pub fn is_valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}
