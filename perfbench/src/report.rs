//! Turns a [`RunResult`] into the printed report: provenance and a
//! metric table for people, then the one-line JSON result.

use crate::catalog;
use crate::RunResult;
use std::fmt::Write as _;

/// The rendered report.
#[derive(Debug)]
pub struct Rendered {
    /// Human-readable lines (provenance, facts, metric table).
    pub text: String,
    /// The final result line.
    pub json: String,
    /// Whether every checked answer was right.
    pub correct: bool,
}

/// Renders `result`, adding `success_frac` to an untraced run.
///
/// # Errors
///
/// When the metrics do not match the catalog for this mode, or a value
/// is not a finite number.
pub fn render(
    traced: bool,
    provenance: &[(&str, String)],
    result: &RunResult,
) -> Result<Rendered, String> {
    let failed = result.wrong + result.refused;
    let mut metrics = result.metrics.clone();
    if !traced {
        let attempted = result.attempted.max(1) as f64;
        metrics.push(("success_frac", 1.0 - failed as f64 / attempted));
    }

    let mut want: Vec<&str> = catalog::metrics_for(traced)
        .iter()
        .map(|m| m.name)
        .collect();
    let mut have: Vec<&str> = metrics.iter().map(|&(n, _)| n).collect();
    want.sort_unstable();
    have.sort_unstable();
    if want != have {
        return Err(format!("printed metrics {have:?}, catalog lists {want:?}"));
    }
    if let Some((name, value)) = metrics.iter().find(|(_, v)| !v.is_finite()) {
        return Err(format!("{name} is not a finite number: {value}"));
    }
    if result.attempted == 0 {
        return Err("no operation was attempted".into());
    }

    let mut text = String::new();
    for (key, value) in provenance {
        let _ = writeln!(text, "# {key}: {value}");
    }
    for (key, value) in &result.facts {
        let _ = writeln!(text, "# {key}: {value}");
    }
    let _ = writeln!(
        text,
        "# ops: attempted {} wrong {} refused {}",
        result.attempted, result.wrong, result.refused
    );
    for &(name, value) in &metrics {
        let unit = catalog::lookup(name).map_or("?", |m| m.unit);
        let samples = result
            .samples
            .iter()
            .find(|&&(n, _)| n == name)
            .map_or(String::new(), |&(_, s)| format!("  (samples {s})"));
        let _ = writeln!(text, "{name:<36} {value:>16.4} {unit}{samples}");
    }

    let body: Vec<String> = metrics
        .iter()
        .map(|&(name, value)| {
            let unit = catalog::lookup(name).map_or("?", |m| m.unit);
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    let correct = result.wrong == 0;
    let json = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        result.attempted,
        body.join(", ")
    );
    Ok(Rendered {
        text,
        json,
        correct,
    })
}
