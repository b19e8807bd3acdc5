//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <exact_table1|route_large|serve_mix> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Three seeded workloads drive qxmap through its public entry points:
//! `exact_table1` and `route_large` call the library (`map_one`,
//! `WindowedEngine::run`), `serve_mix` talks to the daemon over loopback
//! TCP. With `--trace 0` the run reports the end-to-end metrics with
//! tracing off; with `--trace 1` it measures half its time untraced and
//! half traced, and reports the per-layer metrics from the traced half
//! (spans go to `.bench_out/`). Every answer is verified after the
//! clock stops; a failed check makes the exit code non-zero. The last
//! line of standard output is the result object; the line before it
//! records the host, the provenance and the details behind the metrics.

mod catalog;
mod check;
mod common;
mod library;
mod serve_mix;
mod spans;

use std::path::PathBuf;
use std::process::ExitCode;

use common::{failure_counts, EndToEnd, Failure, Sample};
use qxmap_serve::Json;
use spans::SpanLog;

pub const WORKLOADS: &[&str] = &["exact_table1", "route_large", "serve_mix"];

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 11;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |name: &str| -> Result<&str, String> {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
            .ok_or(format!("missing {name}"))
    };
    let workload = value("--workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; expected one of {WORKLOADS:?}"
        ));
    }
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    Ok(Args {
        workload,
        seed: value("--seed")?
            .parse()
            .map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: match value("--trace").unwrap_or("0") {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
        },
    })
}

/// The per-layer metrics of a traced run, every catalogue name present
/// (0 where the workload does not reach the layer).
pub struct Layers(Vec<(&'static str, f64)>);

impl Layers {
    pub fn zeroed() -> Layers {
        Layers(catalog::PER_LAYER.iter().map(|m| (m.name, 0.0)).collect())
    }

    pub fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .0
            .iter_mut()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("{name} is not in the per-layer catalogue"));
        // An empty float sum is -0.0; report it as 0.
        slot.1 = value + 0.0;
    }
}

/// What a workload run hands back.
pub struct Run {
    /// End-to-end metrics of the untraced measurement.
    pub e2e: EndToEnd,
    /// Every attempted request (both halves of a traced run).
    pub samples: Vec<Sample>,
    pub layers: Option<Layers>,
    pub log: SpanLog,
    pub verify_errors: Vec<String>,
    pub sim_checked: usize,
    pub sim_skipped: usize,
    pub notes: Vec<(String, f64)>,
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|l| l.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The checkout's commit, read from `.git` when the benchmark runs in a
/// git working tree.
fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown (not a git checkout)".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(&format!(".git/{reference}"))
        .map(|c| c.trim().to_string())
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| format!("unresolved {reference}"))
}

fn provenance(args: &Args, run: &Run) -> Json {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let tail = &run.e2e.latency_tail;
    let mut classes: Vec<&str> = run.samples.iter().map(|s| s.class).collect();
    classes.sort_unstable();
    classes.dedup();
    Json::Obj(vec![
        (
            "host".to_string(),
            Json::obj([
                ("cores", Json::num(cores as u64)),
                ("cpu_model", Json::str(cpu_model())),
                ("rustc", Json::str(env!("PERFBENCH_RUSTC"))),
                ("git_commit", Json::str(git_commit())),
                ("peak_rss_mb", Json::Num(common::peak_rss_mb())),
            ]),
        ),
        ("workload".to_string(), Json::str(&args.workload)),
        ("seed".to_string(), Json::num(args.seed)),
        ("seconds".to_string(), Json::Num(args.seconds)),
        ("trace".to_string(), Json::Bool(args.trace)),
        (
            "latency_tail".to_string(),
            Json::obj([
                ("percentile", Json::Num(tail.percentile)),
                ("samples", Json::num(tail.samples as u64)),
            ]),
        ),
        (
            "failures".to_string(),
            Json::Obj(
                failure_counts(&run.samples)
                    .into_iter()
                    .map(|(k, n)| (k.to_string(), Json::num(n as u64)))
                    .collect(),
            ),
        ),
        (
            "requests_by_class".to_string(),
            Json::Obj(
                classes
                    .iter()
                    .map(|c| {
                        let n = run.samples.iter().filter(|s| s.class == *c).count();
                        (c.to_string(), Json::num(n as u64))
                    })
                    .collect(),
            ),
        ),
        (
            "simulation_checks".to_string(),
            Json::obj([
                ("equivalent", Json::num(run.sim_checked as u64)),
                ("skipped", Json::num(run.sim_skipped as u64)),
            ]),
        ),
        (
            "verify_errors".to_string(),
            Json::Arr(run.verify_errors.iter().take(20).map(Json::str).collect()),
        ),
        (
            "notes".to_string(),
            Json::Obj(
                run.notes
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::Num(*v)))
                    .collect(),
            ),
        ),
    ])
}

/// `{"value": v, "unit": u}` with every digit of `v` (Rust prints the
/// shortest representation that round-trips).
fn metric_json(value: f64, unit: &str) -> String {
    let value = if value.is_finite() { value } else { 0.0 };
    format!("{{\"value\": {value:?}, \"unit\": {}}}", Json::str(unit))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut run = match args.workload.as_str() {
        "serve_mix" => serve_mix::run(&args),
        _ => library::run(&args),
    };

    let (catalogue, values): (&[catalog::Metric], Vec<(&str, f64)>) = if args.trace {
        let mut layers = run.layers.take().expect("traced runs measure the layers");
        layers.set("peak_rss_mb", common::peak_rss_mb());
        (catalog::PER_LAYER, layers.0)
    } else {
        (catalog::END_TO_END, run.e2e.metrics())
    };
    // Self-check: the result carries exactly the catalogue, each metric
    // with its unit.
    let names: Vec<&str> = values.iter().map(|(n, _)| *n).collect();
    let expected: Vec<&str> = catalogue.iter().map(|m| m.name).collect();
    assert_eq!(names, expected, "printed metrics must match the catalogue");

    if args.trace {
        let path = PathBuf::from(".bench_out")
            .join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        if let Err(e) = run.log.write_jsonl(&path) {
            eprintln!("perfbench: writing {}: {e}", path.display());
        }
    }

    let failed = run.samples.iter().filter(|s| s.result.is_err()).count();
    // Wrong output is incorrect; refusals and timeouts are failures the
    // metrics count, not wrong answers.
    let wrong = run.samples.iter().any(|s| {
        matches!(
            s.result,
            Err(Failure::Verify | Failure::ValidInputError | Failure::InvalidInput)
        )
    });
    let correct = run.verify_errors.is_empty() && !wrong;
    for e in &run.verify_errors {
        eprintln!("perfbench: verification failed: {e}");
    }
    for (metric, (name, value)) in catalogue.iter().zip(&values) {
        eprintln!(
            "{:<30} {:>16.4} {:<6} ({} is better; {} -> {})",
            name, value, metric.unit, metric.better, metric.layer, metric.moves
        );
    }

    let metrics: Vec<String> = catalogue
        .iter()
        .zip(&values)
        .map(|(m, (name, value))| format!("{}: {}", Json::str(*name), metric_json(*value, m.unit)))
        .collect();
    println!("{}", provenance(&args, &run));
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        run.samples.len().max(1),
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
