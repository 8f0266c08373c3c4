//! Windowed percentiles and snapshot deltas.
//!
//! A run is cut into windows (a pass, a round, or a quarter second of
//! an open-loop schedule). Each window records its latencies into a
//! `fiting_telemetry::Histogram`; a reported percentile is the median,
//! over windows, of that percentile within each window, so one window
//! disturbed by another tenant of the machine moves the result by at
//! most one rank.

use fiting_telemetry::{Histogram, HistogramSnapshot};
use std::hint::black_box;
use std::time::Instant;

/// Median of `values` (mean of the middle two for an even count); 0
/// for an empty slice.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => f64::midpoint(v[n / 2 - 1], v[n / 2]),
    }
}

/// One latency distribution per window.
#[derive(Default)]
pub struct Windows {
    closed: Vec<HistogramSnapshot>,
}

impl Windows {
    /// Closes a window with the latencies recorded in `hist`.
    pub fn close(&mut self, hist: &Histogram) {
        self.closed.push(hist.snapshot());
    }

    /// Median over non-empty windows of each window's `p`-th
    /// percentile, in nanoseconds.
    #[must_use]
    pub fn percentile(&self, p: f64) -> f64 {
        let per_window: Vec<f64> = self
            .closed
            .iter()
            .filter(|h| h.count() > 0)
            .map(|h| h.percentile(p) as f64)
            .collect();
        median(&per_window)
    }

    /// Samples recorded over all windows.
    #[must_use]
    pub fn samples(&self) -> u64 {
        self.closed.iter().map(HistogramSnapshot::count).sum()
    }
}

/// The `p`-th percentile (0–100) of the values recorded between two
/// snapshots of the same histogram, from their bucket midpoints; 0
/// when nothing was recorded in between.
#[must_use]
pub fn delta_percentile(before: &HistogramSnapshot, after: &HistogramSnapshot, p: f64) -> f64 {
    let mut buckets = after.nonzero_buckets();
    let earlier = before.nonzero_buckets();
    for (mid, n) in &mut buckets {
        if let Ok(i) = earlier.binary_search_by_key(mid, |&(m, _)| m) {
            *n -= earlier[i].1;
        }
    }
    let total: u64 = buckets.iter().map(|&(_, n)| n).sum();
    if total == 0 {
        return 0.0;
    }
    let rank = ((p / 100.0 * total as f64).ceil() as u64).clamp(1, total);
    let mut seen = 0;
    for (mid, n) in buckets {
        seen += n;
        if seen >= rank {
            return mid as f64;
        }
    }
    0.0
}

/// Cost of one `Instant::now()` where the benchmark runs, in ns: the
/// median of five timed runs of 100 000 back-to-back reads.
#[must_use]
pub fn clock_read_ns() -> f64 {
    const READS: u32 = 100_000;
    let trials: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..READS {
                black_box(Instant::now());
            }
            start.elapsed().as_nanos() as f64 / f64::from(READS)
        })
        .collect();
    median(&trials)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn windowed_percentile_is_the_median_window() {
        let mut w = Windows::default();
        for base in [1_000u64, 5_000, 2_000] {
            let h = Histogram::new();
            for i in 0..100 {
                h.record(base + i);
            }
            w.close(&h);
        }
        let p50 = w.percentile(50.0);
        assert!((p50 - 2_050.0).abs() < 30.0, "{p50}");
        assert_eq!(w.samples(), 300);
    }

    #[test]
    fn delta_ignores_values_recorded_before() {
        let h = Histogram::new();
        for _ in 0..1_000 {
            h.record(100_000);
        }
        let before = h.snapshot();
        for _ in 0..10 {
            h.record(500);
        }
        let after = h.snapshot();
        let p99 = delta_percentile(&before, &after, 99.0);
        assert!((p99 - 500.0).abs() <= 5.0, "{p99}");
        assert_eq!(delta_percentile(&after, &after, 50.0), 0.0);
    }
}
