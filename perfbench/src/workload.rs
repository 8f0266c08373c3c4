//! One workload run: [`CYCLES`] cycles, each running the three phases
//! in turn on keys of the workload's distribution, each phase given its
//! share of the cycle's seconds.
//!
//! The machine this was tuned on drifts in speed over seconds, so one
//! phase measured in a single stretch caught a fast or a slow spell
//! whole. Spreading each phase over cycles, and reporting the median
//! cycle, takes the spell of any one cycle out of the result.
//!
//! Within a cycle, metrics that more than one phase measures are
//! combined once: `setup_s` is the sum of the phases' median set-up
//! times, `sync.contended_reads` the sum of their retried reads, and
//! `bench.trace_overhead_frac` the largest of their tracing overheads.

use crate::catalog::Workload;
use crate::stats::{clock_read_ns, median};
use crate::{read_large, service_durable, write_mixed, RunConfig, RunResult};

/// Cycles of the three phases per run.
pub const CYCLES: usize = 3;
/// Share of the measured seconds given to `read_large`.
pub const READ_SHARE: f64 = 0.3;
/// Share given to `write_mixed`, the phase whose figures spread most.
pub const WRITE_SHARE: f64 = 0.4;
/// Share given to `service_durable`.
pub const SERVICE_SHARE: f64 = 0.3;

/// Runs `workload` for `seconds` of measured work: end-to-end metrics,
/// or per-layer metrics when `traced`.
///
/// # Errors
///
/// A storage or service failure that stops the run.
pub fn run(
    workload: &Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Result<RunResult, String> {
    let cycles = (0..CYCLES)
        .map(|_| cycle(workload, seed, seconds / CYCLES as f64, traced))
        .collect::<Result<Vec<_>, _>>()?;
    let mut out = median_cycle(&cycles);
    out.fact("dataset", &workload.dataset.name());
    out.fact("cycles", &CYCLES);
    out.facts.extend(cycles[0].facts.iter().cloned());
    Ok(out)
}

/// One cycle of the three phases, `seconds` long in all.
fn cycle(workload: &Workload, seed: u64, seconds: f64, traced: bool) -> Result<RunResult, String> {
    let phase = |share: f64| RunConfig {
        dataset: workload.dataset,
        seed,
        seconds: seconds * share,
    };
    let mut out = RunResult::default();
    // The 8M-key phase runs first and frees its index before the others
    // allocate.
    let totals = [
        read_large::run(&phase(READ_SHARE), traced, &mut out),
        write_mixed::run(&phase(WRITE_SHARE), traced, &mut out),
        service_durable::run(&phase(SERVICE_SHARE), traced, &mut out)?,
    ];
    if traced {
        out.put(
            "sync.contended_reads",
            totals.iter().map(|t| t.contended_reads).sum::<u64>() as f64,
        );
        out.put("bench.clock_read_ns", clock_read_ns());
        out.put(
            "bench.trace_overhead_frac",
            totals
                .iter()
                .map(|t| t.trace_overhead_frac)
                .fold(f64::NEG_INFINITY, f64::max),
        );
    } else {
        out.put("setup_s", totals.iter().map(|t| t.setup_s).sum());
    }
    Ok(out)
}

/// Each metric's median over `cycles`, with operation tallies and
/// sample counts summed over them.
fn median_cycle(cycles: &[RunResult]) -> RunResult {
    let mut out = RunResult::default();
    for &(name, _) in &cycles[0].metrics {
        let values: Vec<f64> = cycles.iter().filter_map(|c| c.metric(name)).collect();
        out.put(name, median(&values));
    }
    for &(name, _) in &cycles[0].samples {
        let samples = cycles
            .iter()
            .flat_map(|c| c.samples.iter())
            .filter(|&&(n, _)| n == name)
            .map(|&(_, s)| s)
            .sum();
        out.samples.push((name, samples));
    }
    out.attempted = cycles.iter().map(|c| c.attempted).sum();
    out.wrong = cycles.iter().map(|c| c.wrong).sum();
    out.refused = cycles.iter().map(|c| c.refused).sum();
    out
}
