//! The CI perf gate: compares a committed `BENCH_*.json` baseline
//! against a fresh run (see [`qxmap_bench::diff`]) and exits nonzero on
//! gross regression.
//!
//! ```text
//! bench_diff BASELINE FRESH [--latency-ratio X] [--latency-floor-ms X]
//!            [--objective-ratio X] [--hit-rate-drop X] [--throughput-ratio X]
//! ```
//!
//! Exit codes: 0 — no gross regressions; 1 — regressions found (each
//! printed on its own line); 2 — the files are not comparable (missing,
//! unparsable, different schema, or a different corpus manifest — fix
//! the baseline, don't revert the PR).
//!
//! Both documents' host core counts (`host.cores`) are printed first; a
//! mismatch, or a side that does not record one, draws a warning on
//! stderr but never changes the exit code.

use std::process::ExitCode;

use qxmap_bench::diff::{diff, host_cores, host_warning, Thresholds};
use qxmap_serve::Json;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut paths: Vec<&String> = Vec::new();
    let mut thresholds = Thresholds::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut ratio = |flag: &str| -> Result<f64, String> {
            it.next()
                .and_then(|v| v.parse::<f64>().ok())
                .filter(|v| v.is_finite() && *v >= 0.0)
                .ok_or_else(|| format!("{flag} needs a non-negative number"))
        };
        let parsed = match arg.as_str() {
            "--latency-ratio" => ratio("--latency-ratio").map(|v| thresholds.latency_ratio = v),
            "--latency-floor-ms" => {
                ratio("--latency-floor-ms").map(|v| thresholds.latency_floor_ms = v)
            }
            "--objective-ratio" => {
                ratio("--objective-ratio").map(|v| thresholds.objective_ratio = v)
            }
            "--hit-rate-drop" => ratio("--hit-rate-drop").map(|v| thresholds.hit_rate_drop = v),
            "--throughput-ratio" => {
                ratio("--throughput-ratio").map(|v| thresholds.throughput_ratio = v)
            }
            _ => {
                paths.push(arg);
                Ok(())
            }
        };
        if let Err(message) = parsed {
            eprintln!("bench_diff: {message}");
            return ExitCode::from(2);
        }
    }
    let [baseline_path, fresh_path] = paths[..] else {
        eprintln!("usage: bench_diff BASELINE FRESH [--latency-ratio X] [...]");
        return ExitCode::from(2);
    };

    let load = |path: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path} is not valid JSON: {e}"))
    };
    let documents = load(baseline_path).and_then(|baseline| {
        let fresh = load(fresh_path)?;
        Ok((baseline, fresh))
    });
    let (baseline, fresh) = match documents {
        Ok(documents) => documents,
        Err(message) => {
            eprintln!("bench_diff: {message}");
            return ExitCode::from(2);
        }
    };

    let cores = |doc: &Json| host_cores(doc).map_or("unrecorded".to_string(), |n| n.to_string());
    println!(
        "bench_diff: host cores: baseline {}, fresh {}",
        cores(&baseline),
        cores(&fresh)
    );
    if let Some(warning) = host_warning(&baseline, &fresh) {
        eprintln!("bench_diff: warning: {warning}");
    }

    match diff(&baseline, &fresh, &thresholds) {
        Err(message) => {
            eprintln!("bench_diff: not comparable: {message}");
            ExitCode::from(2)
        }
        Ok(regressions) if regressions.is_empty() => {
            println!("bench_diff: {fresh_path} vs {baseline_path}: no gross regressions");
            ExitCode::SUCCESS
        }
        Ok(regressions) => {
            eprintln!(
                "bench_diff: {} gross regression(s) vs {baseline_path}:",
                regressions.len()
            );
            for regression in &regressions {
                eprintln!("  REGRESSION: {regression}");
            }
            ExitCode::FAILURE
        }
    }
}
