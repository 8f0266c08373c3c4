//! The repository benchmark: one command, driven through the public
//! entry points only.
//!
//! A workload is a key distribution (see [`catalog::WORKLOADS`]). Every
//! workload runs the same three phases on keys of its distribution, so
//! every run reports every metric:
//!
//! * [`read_large`] — `ShardedIndex<FitingTree>` over ~8M keys, one
//!   closed-loop client doing point gets and short range scans.
//! * [`write_mixed`] — `ShardedIndex<FitingTree>` over ~1M keys, one
//!   closed-loop client mixing fresh inserts with gets.
//! * [`service_durable`] — `IndexService::start_durable` over
//!   `DurableIndex` shards, one open-loop generator at a fixed rate,
//!   followed by a clean shutdown and a timed reopen.
//!
//! An untraced run reports the end-to-end metrics; a traced run
//! (`--trace 1`) times each layer from outside through its public
//! functions and reports the per-layer metrics plus the tracing
//! overhead. The metric names and units are fixed in [`catalog`];
//! `BENCHMARK.json` at the repository root lists the same set. See
//! `perfbench/README.md` for the layer → metric → end-to-end map.

#![forbid(unsafe_code)]

pub mod catalog;
pub mod check;
pub mod layers;
pub mod read_large;
pub mod report;
pub mod rng;
pub mod service_durable;
pub mod stats;
pub mod timed_shard;
pub mod workload;
pub mod write_mixed;

/// Keys and values of every workload.
pub type Pairs = Vec<(u64, u64)>;

/// The value stored under `key` in every workload: a fixed bijective
/// mix, so a lookup can be checked without a second copy of the data.
#[must_use]
pub fn value_of(key: u64) -> u64 {
    key.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x5A5A_5A5A_5A5A_5A5A
}

/// Pairs `(k, value_of(k))` for sorted, strictly increasing `keys`.
#[must_use]
pub fn pairs_of(keys: &[u64]) -> Pairs {
    keys.iter().map(|&k| (k, value_of(k))).collect()
}

/// What one workload run has to say: metrics by catalog name, the
/// sample count behind each percentile, operation tallies and the
/// provenance facts printed above the result line.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Metric values by catalog name.
    pub metrics: Vec<(&'static str, f64)>,
    /// Samples behind each reported percentile, by metric name.
    pub samples: Vec<(&'static str, u64)>,
    /// Operations the workload's client issued.
    pub attempted: u64,
    /// Operations that returned a wrong answer.
    pub wrong: u64,
    /// Operations refused or canceled (no answer at all).
    pub refused: u64,
    /// Workload facts: key counts, error budget, lanes, rate, …
    pub facts: Vec<(&'static str, String)>,
}

impl RunResult {
    /// Records one metric value.
    pub fn put(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    /// Records a percentile metric with its sample count.
    pub fn put_pct(&mut self, name: &'static str, value: f64, samples: u64) {
        self.metrics.push((name, value));
        self.samples.push((name, samples));
    }

    /// Records the `p`-th percentile of `windows` with its sample count.
    pub fn put_windows(&mut self, name: &'static str, windows: &stats::Windows, p: f64) {
        self.put_pct(name, windows.percentile(p), windows.samples());
    }

    /// The value recorded for metric `name`, if any.
    #[must_use]
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|&&(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Records one provenance fact.
    pub fn fact(&mut self, name: &'static str, value: &impl ToString) {
        self.facts.push((name, value.to_string()));
    }
}

/// The run parameters every phase receives.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Distribution of every key the phase loads.
    pub dataset: fiting_datasets::Dataset,
    /// Seed of every generated input.
    pub seed: u64,
    /// Seconds of measured work (split between the untraced and the
    /// traced half in a traced run).
    pub seconds: f64,
}

/// What each phase hands back for the workload to combine: metrics
/// that several phases measure are summed or compared, not repeated.
#[derive(Debug, Default, Clone, Copy)]
pub struct PhaseTotals {
    /// Median set-up time of the phase (untraced run).
    pub setup_s: f64,
    /// Reads that met a writer and retried (traced run).
    pub contended_reads: u64,
    /// Traced get median over untraced get median, minus 1 (traced run).
    pub trace_overhead_frac: f64,
}
