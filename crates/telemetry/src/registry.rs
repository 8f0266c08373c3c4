//! Metrics registry: named instruments + typed snapshots.
//!
//! The registry's lock guards only *registration* and *snapshot* —
//! both cold paths. Recording goes through the `Arc`'d instruments a
//! caller obtained at registration and never touches the lock, so the
//! hot path stays wait-free. Subsystems whose counters predate this
//! crate (lane/shard/routing/durability stats) plug in as *collectors*:
//! closures invoked at snapshot time that read their live counters
//! into typed [`Metric`]s.

use crate::counter::{Counter, Gauge};
use crate::histogram::{Histogram, HistogramSnapshot};
use crate::json::Json;
use parking_lot::Mutex;
use std::sync::Arc;

/// The unit a metric is reported in (part of the exported schema).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unit {
    /// Nanoseconds.
    Nanos,
    /// Bytes.
    Bytes,
    /// A plain count of events or objects.
    Count,
    /// A dimensionless ratio (occupancy, imbalance, fraction).
    Ratio,
}

impl Unit {
    /// Stable schema string (`"ns"`, `"bytes"`, `"count"`, `"ratio"`).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Unit::Nanos => "ns",
            Unit::Bytes => "bytes",
            Unit::Count => "count",
            Unit::Ratio => "ratio",
        }
    }
}

/// A metric's value at snapshot time.
#[derive(Debug, Clone)]
pub enum MetricValue {
    /// Monotonic counter reading.
    Counter(u64),
    /// Point-in-time gauge reading.
    Gauge(f64),
    /// Full histogram snapshot (percentiles are derived at readout).
    Histogram(HistogramSnapshot),
}

/// One named, typed metric in a snapshot.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Dotted lowercase name, e.g. `service.get.end_to_end`.
    pub name: String,
    /// Unit of the value.
    pub unit: Unit,
    /// One-line human description.
    pub help: String,
    /// The reading.
    pub value: MetricValue,
}

impl Metric {
    /// A counter metric.
    #[must_use]
    pub fn counter(name: &str, unit: Unit, help: &str, value: u64) -> Metric {
        Metric {
            name: name.to_string(),
            unit,
            help: help.to_string(),
            value: MetricValue::Counter(value),
        }
    }

    /// A gauge metric.
    #[must_use]
    pub fn gauge(name: &str, unit: Unit, help: &str, value: f64) -> Metric {
        Metric {
            name: name.to_string(),
            unit,
            help: help.to_string(),
            value: MetricValue::Gauge(value),
        }
    }

    /// A histogram metric.
    #[must_use]
    pub fn histogram(name: &str, help: &str, snap: HistogramSnapshot) -> Metric {
        Metric {
            name: name.to_string(),
            unit: Unit::Nanos,
            help: help.to_string(),
            value: MetricValue::Histogram(snap),
        }
    }
}

/// A typed point-in-time view of every registered metric, in
/// registration order.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// The metrics, in registration order.
    pub metrics: Vec<Metric>,
}

impl MetricsSnapshot {
    /// Looks a metric up by name.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// The value of a counter metric, if `name` is one.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.get(name)?.value {
            MetricValue::Counter(v) => Some(v),
            _ => None,
        }
    }

    /// The value of a gauge metric, if `name` is one.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<f64> {
        match self.get(name)?.value {
            MetricValue::Gauge(v) => Some(v),
            _ => None,
        }
    }

    /// The snapshot of a histogram metric, if `name` is one.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        match &self.get(name)?.value {
            MetricValue::Histogram(h) => Some(h),
            _ => None,
        }
    }

    /// Serializes to the exported JSON schema: an object keyed by
    /// metric name; counters/gauges carry `{type, unit, help, value}`,
    /// histograms add a percentile summary
    /// (`count/mean/p50/p90/p99/p999/max`, all ns).
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut root = Json::obj();
        for m in &self.metrics {
            let mut entry = Json::obj()
                .with("unit", Json::Str(m.unit.as_str().to_string()))
                .with("help", Json::Str(m.help.clone()));
            match &m.value {
                MetricValue::Counter(v) => {
                    entry.set("type", Json::Str("counter".into()));
                    entry.set("value", Json::Num(*v as f64));
                }
                MetricValue::Gauge(v) => {
                    entry.set("type", Json::Str("gauge".into()));
                    entry.set("value", Json::Num(*v));
                }
                MetricValue::Histogram(h) => {
                    entry.set("type", Json::Str("histogram".into()));
                    entry.set("count", Json::Num(h.count() as f64));
                    entry.set("mean", Json::Num(h.mean()));
                    entry.set("p50", Json::Num(h.percentile(50.0) as f64));
                    entry.set("p90", Json::Num(h.percentile(90.0) as f64));
                    entry.set("p99", Json::Num(h.percentile(99.0) as f64));
                    entry.set("p999", Json::Num(h.percentile(99.9) as f64));
                    entry.set("max", Json::Num(h.max() as f64));
                }
            }
            root.set(&m.name, entry);
        }
        root
    }
}

/// An instrument the registry owns, or a collector it consults.
enum Entry {
    Counter {
        name: String,
        unit: Unit,
        help: String,
        cell: Arc<Counter>,
    },
    Gauge {
        name: String,
        unit: Unit,
        help: String,
        cell: Arc<Gauge>,
    },
    Histogram {
        name: String,
        help: String,
        cell: Arc<Histogram>,
    },
    Collector {
        collect: Box<dyn Fn() -> Vec<Metric> + Send + Sync>,
    },
}

impl Entry {
    fn name(&self) -> Option<&str> {
        match self {
            Entry::Counter { name, .. }
            | Entry::Gauge { name, .. }
            | Entry::Histogram { name, .. } => Some(name),
            Entry::Collector { .. } => None,
        }
    }
}

/// A named collection of instruments with a unified snapshot.
///
/// Registration hands back `Arc`'d instruments; recording through them
/// is lock-free (the registry lock covers only registration and
/// [`snapshot`](Self::snapshot), both cold). Registration is
/// idempotent by name: asking for an existing name of the same kind
/// returns the same instrument.
///
/// ```
/// use fiting_telemetry::{MetricsRegistry, Unit};
///
/// let registry = MetricsRegistry::new();
/// let served = registry.counter("ops.served", Unit::Count, "ops served");
/// let latency = registry.histogram("ops.latency", "end-to-end latency");
/// served.inc();
/// latency.record(1_500);
///
/// let snap = registry.snapshot();
/// assert_eq!(snap.counter("ops.served"), Some(1));
/// assert_eq!(snap.histogram("ops.latency").unwrap().count(), 1);
/// // `snap.to_json().pretty()` is the exported document.
/// ```
#[derive(Default)]
pub struct MetricsRegistry {
    entries: Mutex<Vec<Entry>>,
}

impl MetricsRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> MetricsRegistry {
        MetricsRegistry {
            entries: Mutex::new(Vec::new()),
        }
    }

    /// Registers (or retrieves) a monotonic counter.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    #[must_use]
    pub fn counter(&self, name: &str, unit: Unit, help: &str) -> Arc<Counter> {
        let mut entries = self.entries.lock();
        if let Some(e) = entries.iter().find(|e| e.name() == Some(name)) {
            let Entry::Counter { cell, .. } = e else {
                panic!("metric `{name}` already registered as a different kind");
            };
            return Arc::clone(cell);
        }
        let cell = Arc::new(Counter::new());
        entries.push(Entry::Counter {
            name: name.to_string(),
            unit,
            help: help.to_string(),
            cell: Arc::clone(&cell),
        });
        cell
    }

    /// Registers (or retrieves) a gauge.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    #[must_use]
    pub fn gauge(&self, name: &str, unit: Unit, help: &str) -> Arc<Gauge> {
        let mut entries = self.entries.lock();
        if let Some(e) = entries.iter().find(|e| e.name() == Some(name)) {
            let Entry::Gauge { cell, .. } = e else {
                panic!("metric `{name}` already registered as a different kind");
            };
            return Arc::clone(cell);
        }
        let cell = Arc::new(Gauge::new());
        entries.push(Entry::Gauge {
            name: name.to_string(),
            unit,
            help: help.to_string(),
            cell: Arc::clone(&cell),
        });
        cell
    }

    /// Registers (or retrieves) a latency histogram (unit: ns).
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    #[must_use]
    pub fn histogram(&self, name: &str, help: &str) -> Arc<Histogram> {
        let mut entries = self.entries.lock();
        if let Some(e) = entries.iter().find(|e| e.name() == Some(name)) {
            let Entry::Histogram { cell, .. } = e else {
                panic!("metric `{name}` already registered as a different kind");
            };
            return Arc::clone(cell);
        }
        let cell = Arc::new(Histogram::new());
        entries.push(Entry::Histogram {
            name: name.to_string(),
            help: help.to_string(),
            cell: Arc::clone(&cell),
        });
        cell
    }

    /// Registers a collector: a closure consulted at snapshot time,
    /// used to export counters that live in another subsystem's own
    /// stats structs (lane/shard/routing/durability stats).
    pub fn register_collector<F>(&self, collect: F)
    where
        F: Fn() -> Vec<Metric> + Send + Sync + 'static,
    {
        self.entries.lock().push(Entry::Collector {
            collect: Box::new(collect),
        });
    }

    /// Reads every instrument and consults every collector, yielding a
    /// typed snapshot in registration order.
    ///
    /// ```
    /// use fiting_telemetry::{Metric, MetricsRegistry, Unit};
    ///
    /// let registry = MetricsRegistry::new();
    /// registry.register_collector(|| {
    ///     vec![Metric::gauge("queue.depth", Unit::Count, "queued", 3.0)]
    /// });
    /// let snap = registry.snapshot();
    /// assert_eq!(snap.gauge("queue.depth"), Some(3.0));
    /// ```
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        let entries = self.entries.lock();
        let mut metrics = Vec::with_capacity(entries.len());
        for e in entries.iter() {
            match e {
                Entry::Counter {
                    name,
                    unit,
                    help,
                    cell,
                } => metrics.push(Metric::counter(name, *unit, help, cell.get())),
                Entry::Gauge {
                    name,
                    unit,
                    help,
                    cell,
                } => metrics.push(Metric::gauge(name, *unit, help, cell.get())),
                Entry::Histogram { name, help, cell } => {
                    metrics.push(Metric::histogram(name, help, cell.snapshot()));
                }
                Entry::Collector { collect } => metrics.extend(collect()),
            }
        }
        MetricsSnapshot { metrics }
    }
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsRegistry")
            .field("entries", &self.entries.lock().len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_is_idempotent_by_name() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("x", Unit::Count, "first");
        let b = reg.counter("x", Unit::Count, "again");
        a.add(2);
        b.add(3);
        assert_eq!(reg.snapshot().counter("x"), Some(5));
        assert_eq!(reg.snapshot().metrics.len(), 1);
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_mismatch_panics() {
        let reg = MetricsRegistry::new();
        let _c = reg.counter("x", Unit::Count, "counter");
        let _g = reg.gauge("x", Unit::Ratio, "gauge");
    }

    #[test]
    fn snapshot_covers_all_kinds_and_serializes() {
        let reg = MetricsRegistry::new();
        reg.counter("c", Unit::Count, "a counter").add(7);
        reg.gauge("g", Unit::Ratio, "a gauge").set(0.5);
        reg.histogram("h", "a histogram").record(1000);
        reg.register_collector(|| vec![Metric::counter("k", Unit::Bytes, "collected", 9)]);

        let snap = reg.snapshot();
        assert_eq!(snap.counter("c"), Some(7));
        assert_eq!(snap.gauge("g"), Some(0.5));
        assert_eq!(snap.histogram("h").unwrap().count(), 1);
        assert_eq!(snap.counter("k"), Some(9));

        let json = snap.to_json();
        let text = json.pretty();
        let back = Json::parse(&text).unwrap();
        assert_eq!(
            back.get("h")
                .and_then(|h| h.get("type"))
                .and_then(Json::as_str),
            Some("histogram")
        );
        assert_eq!(
            back.get("k")
                .and_then(|k| k.get("value"))
                .and_then(Json::as_f64),
            Some(9.0)
        );
    }
}
