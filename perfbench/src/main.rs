//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload (its three phases), prints provenance and a metric table, and ends
//! with one JSON line: `{"correct", "attempted", "failed", "metrics"}`.
//! Exits 1 when any answer was wrong, 2 on bad arguments or a failed
//! run. Normally started through `perfbench/run.py`, which builds it
//! first.

#![forbid(unsafe_code)]

use fiting_perfbench::catalog::{self, Workload};
use fiting_perfbench::{report, workload};
use std::process::ExitCode;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut traced) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let name: String = workload.ok_or("--workload is required")?;
    let workload = catalog::workload(&name).ok_or(format!("unknown workload {name}"))?;
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        traced: traced.unwrap_or(false),
    })
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = workload::run(args.workload, args.seed, args.seconds, args.traced);
    let provenance = [
        ("workload", args.workload.name.to_string()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.traced).to_string()),
        (
            "source",
            std::env::var("PERFBENCH_SOURCE").unwrap_or_else(|_| "unknown".into()),
        ),
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(0, std::num::NonZero::get)
                .to_string(),
        ),
        ("cpu", cpu_model()),
    ];
    let rendered = result.and_then(|r| report::render(args.traced, &provenance, &r));
    match rendered {
        Ok(r) => {
            print!("{}", r.text);
            println!("{}", r.json);
            if r.correct {
                ExitCode::SUCCESS
            } else {
                eprintln!("perfbench: {} returned wrong answers", args.workload.name);
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
