//! The printed names follow the naming rules, `BENCHMARK.json` lists
//! exactly the catalog, and the report refuses anything else.

use fiting_perfbench::catalog::{self, Metric, END_TO_END, PER_LAYER, WORKLOADS};
use fiting_perfbench::{report, RunResult};
use fiting_telemetry::Json;

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn entries<'a>(json: &'a Json, key: &str) -> &'a [Json] {
    json.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json lacks the array {key}"))
}

fn field<'a>(entry: &'a Json, key: &str) -> &'a str {
    entry
        .get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("entry lacks {key}: {entry:?}"))
}

fn assert_lists(json: &[Json], catalog: &[Metric], with_bound: bool) {
    let listed: Vec<&str> = json.iter().map(|e| field(e, "name")).collect();
    let known: Vec<&str> = catalog.iter().map(|m| m.name).collect();
    assert_eq!(listed, known);
    for (entry, metric) in json.iter().zip(catalog) {
        assert_eq!(field(entry, "unit"), metric.unit, "{}", metric.name);
        assert_eq!(
            field(entry, "better"),
            metric.better.as_str(),
            "{}",
            metric.name
        );
        let bound = entry.get("bound").and_then(Json::as_f64);
        assert_eq!(
            bound,
            metric.bound.filter(|_| with_bound),
            "{}",
            metric.name
        );
    }
}

#[test]
fn printed_names_and_units_use_the_allowed_characters() {
    let unit_ok = |u: &str| {
        !u.is_empty()
            && u.len() <= 16
            && u.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    };
    for m in END_TO_END.iter().chain(PER_LAYER) {
        assert!(catalog::is_valid_name(m.name), "{}", m.name);
        assert!(unit_ok(m.unit), "{}: {}", m.name, m.unit);
    }
    for w in &WORKLOADS {
        assert!(catalog::is_valid_name(w.name), "{}", w.name);
        assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
    }
    assert!(!catalog::is_valid_name("get p50"));
    assert!(!catalog::is_valid_name("_leading"));
}

#[test]
fn names_are_unique_and_bounds_are_in_range() {
    let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).collect();
    names.extend(WORKLOADS.iter().map(|w| w.name));
    let count = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), count, "a name is used twice");
    assert!(END_TO_END
        .iter()
        .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
    let setup = END_TO_END
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s");
    assert!(
        END_TO_END.iter().all(|m| m.bound <= setup.bound),
        "setup_s has the largest bound"
    );
}

#[test]
fn benchmark_json_lists_exactly_the_catalog() {
    let json = benchmark_json();
    let workloads = entries(&json, "workloads");
    let listed: Vec<(&str, &str)> = workloads
        .iter()
        .map(|w| (field(w, "name"), field(w, "why")))
        .collect();
    let known: Vec<(&str, &str)> = WORKLOADS.iter().map(|w| (w.name, w.why)).collect();
    assert_eq!(listed, known);
    assert_lists(entries(&json, "end_to_end"), END_TO_END, true);
    assert_lists(entries(&json, "per_layer"), PER_LAYER, false);
    let strings = |key: &str| -> Vec<&str> {
        entries(&json, key)
            .iter()
            .map(|s| s.as_str().unwrap())
            .collect()
    };
    assert_eq!(strings("command"), ["python3", "perfbench/run.py"]);
    assert_eq!(strings("paths"), ["perfbench"]);
}

#[test]
fn report_prints_exactly_the_catalog_metrics_of_a_mode() {
    for traced in [false, true] {
        let mut result = RunResult {
            attempted: 1,
            ..RunResult::default()
        };
        for m in catalog::metrics_for(traced) {
            if m.name != "success_frac" {
                result.put(m.name, 2.0);
            }
        }
        let rendered = report::render(traced, &[], &result).expect("catalog set");
        for m in catalog::metrics_for(traced) {
            assert!(
                rendered.json.contains(&format!("\"{}\": {{", m.name)),
                "{}",
                m.name
            );
        }
        let mut extra = RunResult {
            attempted: 1,
            metrics: result.metrics.clone(),
            ..RunResult::default()
        };
        extra.put("not_in_catalog", 1.0);
        assert!(report::render(traced, &[], &extra).is_err());
        result.metrics.pop();
        assert!(report::render(traced, &[], &result).is_err());
    }
}

#[test]
fn every_workload_names_a_distinct_dataset() {
    for (i, w) in WORKLOADS.iter().enumerate() {
        assert_eq!(catalog::workload(w.name).map(|k| k.name), Some(w.name));
        assert!(WORKLOADS[i + 1..].iter().all(|k| k.dataset != w.dataset));
    }
    assert!(catalog::workload("read_large").is_none());
}
