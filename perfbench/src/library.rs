//! The two library workloads, `exact_table1` and `route_large`: a seeded
//! deck of (circuit, device, engine) items driven through
//! `qxmap_map::map_one` and `qxmap_window::WindowedEngine::run`, one
//! request at a time, every request cold (the solve cache is cleared
//! before each one).
//!
//! A run goes through the deck in whole passes — at least one, and
//! another only while the time left fits one more — so every run
//! measures the same multiset of requests whatever the machine's speed.
//! Each pass draws a fresh order and a fresh logical-qubit relabeling of
//! every circuit from the seed.

use std::time::{Duration, Instant};

use qxmap_arch::{devices, CouplingMap, DeviceModel};
use qxmap_benchmarks::{circuit_for, famous, synthetic_circuit, table1_profiles};
use qxmap_circuit::Circuit;
use qxmap_core::trace::SpanRecorder;
use qxmap_map::{
    map_one, probe_one, CacheProbe, Engine, ExactEngine, HeuristicEngine, MapReport, MapRequest,
    MapperError, SolveCache,
};
use qxmap_window::WindowedEngine;

use crate::check::{self, SimCheck};
use crate::common::{median, p50_ms, Answer, EndToEnd, Failure, Rng, Sample};
use crate::spans::{SpanId, SpanLog};
use crate::{Args, Layers, Run, SETUP_REPEATS};

/// Best-effort deadline of every `exact_table1` request: about 30% of
/// the deck proves within it and the rest runs into it, and a pass of
/// the 75-request deck takes about 12 s.
const EXACT_DEADLINE: Duration = Duration::from_millis(200);
/// Deadline of every `route_large` request.
const ROUTE_DEADLINE: Duration = Duration::from_millis(1000);
#[derive(Clone, Copy, PartialEq, Eq)]
enum Via {
    MapOne,
    Windowed,
}

impl Via {
    fn label(self) -> &'static str {
        match self {
            Via::MapOne => "map_one",
            Via::Windowed => "windowed",
        }
    }
}

struct Target {
    cm: CouplingMap,
    model: DeviceModel,
}

/// One workload circuit before the per-pass relabeling.
struct Base {
    name: String,
    circuit: Circuit,
    target: usize,
    via: Via,
}

/// One request of a pass.
struct Item {
    /// Index of the [`Base`] it was drawn from.
    slot: usize,
    name: String,
    circuit: Circuit,
    qasm: String,
    target: usize,
    via: Via,
}

struct Setup {
    targets: Vec<Target>,
    bases: Vec<Base>,
    deadline: Duration,
    /// Whether passes relabel the circuits' logical qubits.
    relabel: bool,
    first_deck: Vec<Item>,
}

fn build_targets(names: &[&str], log: &mut SpanLog) -> Vec<Target> {
    names
        .iter()
        .map(|name| {
            let cm = devices::by_name(name).expect("workload devices are library names");
            let (model, _) = log.time("arch.DeviceModel::new", None, 0, || {
                DeviceModel::new(cm.clone())
            });
            Target { cm, model }
        })
        .collect()
}

fn exact_table1_bases() -> (Vec<&'static str>, Vec<Base>) {
    let devices = vec!["qx4", "heavy-hex-1", "linear-8"];
    let mut bases = Vec::new();
    for profile in table1_profiles() {
        let circuit = circuit_for(&profile);
        for (target, device) in devices.iter().enumerate() {
            bases.push(Base {
                name: format!("{}@{device}", profile.name),
                circuit: circuit.clone(),
                target,
                via: Via::MapOne,
            });
        }
    }
    (devices, bases)
}

fn route_large_bases() -> (Vec<&'static str>, Vec<Base>) {
    let devices = vec!["qx5", "tokyo", "grid-4x4", "heavy-hex-4"];
    let circuits = [
        (
            synthetic_circuit(8, 24, 40, 0xC0FFEE).named("synth_8q_40cx"),
            0,
        ),
        (
            synthetic_circuit(16, 60, 90, 0xBEEF).named("synth_16q_90cx"),
            1,
        ),
        (
            synthetic_circuit(16, 60, 90, 0xBEEF).named("synth_16q_90cx"),
            2,
        ),
        (famous::ghz(52), 3),
        (famous::ripple_adder(24), 3),
        (famous::toffoli_chain(50, 25), 3),
        (famous::qft_blocks(9, 4), 3),
    ];
    let mut bases = Vec::new();
    for (circuit, target) in circuits {
        for via in [Via::MapOne, Via::Windowed] {
            bases.push(Base {
                name: format!("{}@{}/{}", circuit.name(), devices[target], via.label()),
                circuit: circuit.clone(),
                target,
                via,
            });
        }
    }
    (devices, bases)
}

/// A pass: every base once, in a seeded order, and (when `relabel` is
/// set) each circuit under a seeded relabeling of its logical qubits.
fn deck(bases: &[Base], relabel: bool, rng: &mut Rng) -> Vec<Item> {
    rng.permutation(bases.len())
        .into_iter()
        .map(|i| {
            let base = &bases[i];
            let n = base.circuit.num_qubits();
            let labels = if relabel {
                rng.permutation(n)
            } else {
                (0..n).collect()
            };
            let circuit = base
                .circuit
                .map_qubits(n, |q| labels[q])
                .named(base.circuit.name());
            Item {
                slot: i,
                name: base.name.clone(),
                qasm: qxmap_qasm::to_qasm(&circuit),
                circuit,
                target: base.target,
                via: base.via,
            }
        })
        .collect()
}

fn setup(workload: &str, rng: &mut Rng, log: &mut SpanLog) -> Setup {
    // The windowed engine places windows by logical index, so a
    // relabeling moves its latency by tens of percent: `route_large`
    // keeps the corpus labels and draws only the order.
    let (names, bases, deadline, relabel) = match workload {
        "exact_table1" => {
            let (n, b) = exact_table1_bases();
            (n, b, EXACT_DEADLINE, true)
        }
        _ => {
            let (n, b) = route_large_bases();
            (n, b, ROUTE_DEADLINE, false)
        }
    };
    let targets = build_targets(&names, log);
    let first_deck = deck(&bases, relabel, rng);
    Setup {
        targets,
        bases,
        deadline,
        relabel,
        first_deck,
    }
}

/// What one request left behind for verification and the layer metrics.
struct Done {
    item: Item,
    report: Option<MapReport>,
    traced: bool,
    /// The request raced the exact engine (a `race/exact` span).
    exact_raced: bool,
    /// SABRE's objective on the same input (traced `map_one` items).
    sabre_cost: Option<u64>,
}

fn answer(report: &MapReport) -> Answer {
    let (certificates, proved) = match &report.windows {
        Some(windows) => (
            windows.len() as u64,
            windows.iter().filter(|w| w.proved_optimal).count() as u64,
        ),
        None => (1, u64::from(report.proved_optimal)),
    };
    Answer {
        objective: report.cost.objective,
        certificates,
        proved,
        mapping: true,
    }
}

struct Runner<'a> {
    setup: &'a Setup,
    samples: Vec<Sample>,
    done: Vec<Done>,
    log: SpanLog,
    next_request: u64,
    /// Layer counts gathered in the traced half.
    encoding: [u64; 3],
    cache_before: (u64, u64),
}

impl Runner<'_> {
    fn request(&self, item: &Item) -> MapRequest {
        let target = &self.setup.targets[item.target];
        MapRequest::for_model(item.circuit.clone(), target.model.clone())
            .with_deadline(self.setup.deadline)
    }

    fn solve(item: &Item, request: &MapRequest) -> Result<MapReport, MapperError> {
        match item.via {
            Via::MapOne => map_one(request),
            Via::Windowed => WindowedEngine::new().run(request),
        }
    }

    /// One request, untraced: only the solve is timed.
    fn plain(&mut self, item: Item) {
        let request = self.request(&item);
        SolveCache::shared().clear();
        let start = Instant::now();
        let result = Self::solve(&item, &request);
        let latency_ms = start.elapsed().as_secs_f64() * 1e3;
        self.finish(item, result, latency_ms, false, false, None);
    }

    /// One request, traced: spans around every public call, the
    /// program's own timeline grafted under the solve.
    fn traced(&mut self, item: Item) {
        let id = self.next_request;
        self.next_request += 1;
        let request = self.request(&item);
        let target = &self.setup.targets[item.target];
        let root_start = Instant::now();
        let root = self.log.record("request", root_start, root_start, None, id);
        let parent = Some(root);

        let parse_start = Instant::now();
        let (skeleton, skeleton_span) = self.log.time("qasm.parse_skeleton", parent, id, || {
            qxmap_qasm::parse_skeleton(&item.qasm).expect("generated QASM parses")
        });
        let (_, program_span) = self.log.time("qasm.parse_program", parent, id, || {
            qxmap_qasm::parse_program(&item.qasm).expect("generated QASM parses")
        });
        let parse = self
            .log
            .record("qasm.parse", parse_start, Instant::now(), parent, id);
        self.reparent(&[skeleton_span, program_span], parse);

        SolveCache::shared().clear();
        let probe =
            CacheProbe::for_model(skeleton, &target.model).with_deadline(self.setup.deadline);
        let (hit, _) = self
            .log
            .time("map.probe_one", parent, id, || probe_one(&probe));
        debug_assert!(hit.is_none(), "the cache was just cleared");

        let origin = Instant::now();
        let traced_request = request
            .clone()
            .with_trace(SpanRecorder::with_origin(origin));
        let call = match item.via {
            Via::MapOne => "map.map_one",
            Via::Windowed => "window.run",
        };
        let start = Instant::now();
        let result = Self::solve(&item, &traced_request);
        let end = Instant::now();
        let latency_ms = end.duration_since(start).as_secs_f64() * 1e3;
        let call_span = self.log.record(call, start, end, parent, id);
        let mut exact_raced = false;
        if let Some(trace) = result.as_ref().ok().and_then(|r| r.trace.as_ref()) {
            self.log.graft(trace, origin, call_span, id);
            exact_raced = trace.spans.iter().any(|s| s.path.starts_with("race/exact"));
        }

        let mut sabre_cost = None;
        if item.via == Via::MapOne {
            let (sabre, _) = self.log.time("heuristic.sabre", parent, id, || {
                HeuristicEngine::sabre().run(&request)
            });
            sabre_cost = sabre.ok().map(|r| r.cost.objective);
        }
        if target.cm.num_qubits() <= 5 {
            // The full-device encoding is the paper's n!-selector model;
            // on 5 qubits it builds in milliseconds.
            let (stats, _) = self.log.time("core.encoding_stats", parent, id, || {
                ExactEngine::new().encoding_stats(&request)
            });
            if let Ok(stats) = stats {
                self.encoding[0] += stats.clauses as u64;
                self.encoding[1] += stats.variables as u64;
                self.encoding[2] += stats.permutations as u64;
            }
        }
        self.log.close(root, Instant::now());
        self.finish(item, result, latency_ms, true, exact_raced, sabre_cost);
    }

    fn reparent(&mut self, spans: &[SpanId], parent: SpanId) {
        for &s in spans {
            self.log.set_parent(s, parent);
        }
    }

    fn finish(
        &mut self,
        item: Item,
        result: Result<MapReport, MapperError>,
        latency_ms: f64,
        traced: bool,
        exact_raced: bool,
        sabre_cost: Option<u64>,
    ) {
        let (outcome, report) = match result {
            Ok(report) => (Ok(answer(&report)), Some(report)),
            Err(_) => (Err(Failure::ValidInputError), None),
        };
        self.samples.push(Sample {
            class: item.via.label(),
            slot: Some(item.slot),
            latency_ms,
            deadline: Some(self.setup.deadline),
            result: outcome,
        });
        self.done.push(Done {
            item,
            report,
            traced,
            exact_raced,
            sabre_cost,
        });
    }

    /// Whole passes until `budget` would be overrun by one more.
    fn passes(
        &mut self,
        budget: Duration,
        first: Option<Vec<Item>>,
        rng: &mut Rng,
        traced: bool,
    ) -> (usize, f64) {
        let start = Instant::now();
        let mut passes = 0usize;
        let mut next = first;
        loop {
            let items = next
                .take()
                .unwrap_or_else(|| deck(&self.setup.bases, self.setup.relabel, rng));
            for item in items {
                if traced {
                    self.traced(item);
                } else {
                    self.plain(item);
                }
            }
            passes += 1;
            let elapsed = start.elapsed();
            if elapsed + elapsed / passes as u32 > budget {
                break;
            }
        }
        (passes, start.elapsed().as_secs_f64())
    }
}

/// One timed set-up: the inputs it built, their span log, the seed
/// stream positioned after them, and the seconds it took.
fn timed_setup(args: &Args) -> (Setup, SpanLog, Rng, f64) {
    let mut rng = Rng::new(args.seed);
    let mut log = SpanLog::new(Instant::now());
    let start = Instant::now();
    let setup = setup(&args.workload, &mut rng, &mut log);
    (setup, log, rng, start.elapsed().as_secs_f64())
}

pub fn run(args: &Args) -> Run {
    // Set-up runs several times before the measurement and again after
    // it; the median of all of them is the metric, and the last
    // repetition before the measurement supplies its inputs.
    let mut setup_times = Vec::new();
    let mut built = None;
    for _ in 0..SETUP_REPEATS {
        let (setup, log, rng, seconds) = timed_setup(args);
        setup_times.push(seconds);
        built = Some((setup, log, rng));
    }
    let (mut setup, setup_log, mut rng) = built.expect("at least one set-up");
    let first = std::mem::take(&mut setup.first_deck);

    let budget = Duration::from_secs_f64(args.seconds);
    let mut runner = Runner {
        setup: &setup,
        samples: Vec::new(),
        done: Vec::new(),
        log: setup_log,
        next_request: 1,
        encoding: [0; 3],
        cache_before: (0, 0),
    };

    let (plain_budget, traced_budget) = if args.trace {
        (budget / 2, budget / 2)
    } else {
        (budget, Duration::ZERO)
    };
    let (plain_passes, plain_wall) = runner.passes(plain_budget, Some(first), &mut rng, false);
    let plain_samples = runner.samples.len();
    let mut traced_passes = 0;
    if args.trace {
        let stats = SolveCache::shared().stats();
        runner.cache_before = (stats.hits, stats.misses);
        traced_passes = runner.passes(traced_budget, None, &mut rng, true).0;
    }

    setup_times.extend((0..SETUP_REPEATS).map(|_| timed_setup(args).3));
    let setup_s = median(&setup_times);

    // Verification, after the clock stopped.
    let mut verify_errors = Vec::new();
    let mut sim = [0usize; 2];
    for (sample, done) in runner.samples.iter_mut().zip(&runner.done) {
        let Some(report) = &done.report else { continue };
        let cm = &setup.targets[done.item.target].cm;
        match check::report(report, &done.item.circuit, cm) {
            Ok(SimCheck::Equivalent) => sim[0] += 1,
            Ok(SimCheck::Skipped) => sim[1] += 1,
            Err(e) => {
                verify_errors.push(format!("{}: {e}", done.item.name));
                sample.result = Err(Failure::Verify);
            }
        }
    }

    let plain = &runner.samples[..plain_samples];
    let e2e = EndToEnd::from_samples(plain, plain_wall, plain_passes as f64, setup_s);
    let layers = args
        .trace
        .then(|| layers(&runner, traced_passes, p50_ms(plain)));
    Run {
        e2e,
        samples: runner.samples,
        layers,
        log: runner.log,
        verify_errors,
        sim_checked: sim[0],
        sim_skipped: sim[1],
        notes: vec![
            ("passes".to_string(), (plain_passes + traced_passes) as f64),
            ("deck_size".to_string(), setup.bases.len() as f64),
            (
                "deadline_ms".to_string(),
                setup.deadline.as_secs_f64() * 1e3,
            ),
        ],
    }
}

fn layers(runner: &Runner<'_>, passes: usize, plain_p50: f64) -> Layers {
    let log = &runner.log;
    let passes = passes.max(1) as f64;
    let traced: Vec<&Done> = runner.done.iter().filter(|d| d.traced).collect();
    let traced_samples: Vec<Sample> = runner
        .samples
        .iter()
        .zip(&runner.done)
        .filter(|(_, d)| d.traced)
        .map(|(s, _)| s.clone())
        .collect();
    let requests = traced.len().max(1) as f64;
    let reports: Vec<&MapReport> = traced.iter().filter_map(|d| d.report.as_ref()).collect();
    let ms = |us: Vec<f64>| us.into_iter().map(|u| u / 1e3).collect::<Vec<_>>();
    let total_ms = |pick: &dyn Fn(&str) -> bool| log.durations(pick).iter().sum::<f64>() / 1e3;
    let wins = |engine: &str| reports.iter().filter(|r| r.winner == engine).count() as f64 / passes;
    let windows: Vec<_> = reports
        .iter()
        .filter_map(|r| r.windows.as_ref())
        .flatten()
        .collect();
    let windowed_requests = traced.iter().filter(|d| d.item.via != Via::MapOne).count();
    let exact: Vec<&&Done> = traced.iter().filter(|d| d.exact_raced).collect();
    let stats = SolveCache::shared().stats();
    let (hits, misses) = (
        stats.hits - runner.cache_before.0,
        stats.misses - runner.cache_before.1,
    );
    let traced_p50 = p50_ms(&traced_samples);

    let mut l = Layers::zeroed();
    l.set(
        "qasm.parse_us",
        median(&log.durations(|n| n == "qasm.parse")),
    );
    l.set(
        "arch.model_build_ms",
        total_ms(&|n| n == "arch.DeviceModel::new"),
    );
    l.set(
        "core.encode_ms",
        total_ms(&|n| n.ends_with("/encode")) / requests,
    );
    l.set("core.clauses", runner.encoding[0] as f64 / passes);
    l.set("core.variables", runner.encoding[1] as f64 / passes);
    l.set("core.permutations", runner.encoding[2] as f64 / passes);
    l.set(
        "sat.minimize_ms",
        total_ms(&|n| n.ends_with("/minimize")) / requests,
    );
    l.set(
        "sat.iterations",
        reports
            .iter()
            .filter_map(|r| r.iterations)
            .map(f64::from)
            .sum::<f64>()
            / passes,
    );
    l.set(
        "sat.proof_ratio",
        exact
            .iter()
            .filter(|d| d.report.as_ref().is_some_and(|r| r.proved_optimal))
            .count() as f64
            / exact.len().max(1) as f64,
    );
    l.set("map.race_ms", median(&ms(log.durations(|n| n == "race"))));
    let unwind: Vec<f64> = traced
        .iter()
        .filter(|d| d.item.via == Via::MapOne)
        .filter_map(|d| d.report.as_ref())
        .map(|r| r.elapsed.saturating_sub(r.runtime).as_secs_f64() * 1e3)
        .collect();
    l.set(
        "map.race.unwind_ms",
        unwind.iter().sum::<f64>() / unwind.len().max(1) as f64,
    );
    l.set("map.race.wins.exact", wins("exact"));
    l.set("map.race.wins.sabre", wins("sabre"));
    l.set("map.race.wins.naive", wins("naive"));
    l.set(
        "map.cache.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    l.set(
        "map.cache.probe_us",
        median(&log.durations(|n| n == "map.probe_one")),
    );
    l.set(
        "heuristic.sabre_ms",
        median(&ms(log.durations(|n| n == "heuristic.sabre"))),
    );
    l.set(
        "heuristic.sabre_cost",
        traced.iter().filter_map(|d| d.sabre_cost).sum::<u64>() as f64 / passes,
    );
    l.set("window.count", windows.len() as f64 / passes);
    l.set(
        "window.solve_ms",
        total_ms(&|n| n == "windows/solve") / windowed_requests.max(1) as f64,
    );
    l.set(
        "window.proved_ratio",
        windows.iter().filter(|w| w.proved_optimal).count() as f64 / windows.len().max(1) as f64,
    );
    l.set(
        "window.bridge_cost",
        windows.iter().map(|w| w.bridge_cost as f64).sum::<f64>() / passes,
    );
    l.set("trace.overhead_pct", (traced_p50 / plain_p50 - 1.0) * 100.0);
    l
}
