//! `serve_mix`: the daemon (`Server::start` with a cache journal,
//! `serve_tcp` on loopback) under a closed loop of two client
//! connections. Each client sends its next line only after the reply
//! to the previous one arrived, the way a compile pipeline waits for
//! its mapping. The traffic holds four classes, dealt from a seeded
//! 20-slot deck so every stretch of traffic keeps the same proportions:
//!
//! * `warm` (10/20): repeated QX4 Table 1 payloads, each row under a
//!   seeded relabeling, answered from the solve cache (the rows are
//!   solved once before set-up and replayed from the journal at boot);
//! * `cold_in` (5/20): a QX4 Table 1 row, relabeled, under a fresh
//!   `seed` — a cache miss that races the exact engine and appends to
//!   the journal;
//! * `cold_out` (2/20): a Table 1 row on `qx5` or `tokyo`, best effort,
//!   which the daemon routes through the windowed engine;
//!
//! Rows are dealt from per-class seeded decks too (every row once per
//! round), so the mix of circuits does not drift from seed to seed.
//! * `invalid` (3/20): malformed lines, which must come back as
//!   structured errors.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use qxmap_arch::{devices, CouplingMap, DeviceModel};
use qxmap_benchmarks::{circuit_for, table1_profiles};
use qxmap_circuit::Circuit;
use qxmap_map::{Engine, ExactEngine, HeuristicEngine, MapRequest, SolveCache};
use qxmap_serve::{Json, Server, ServerConfig};

use crate::check::{self, SimCheck};
use crate::common::{median, p50_ms, tail, Answer, EndToEnd, Failure, Rng, Sample};
use crate::spans::SpanLog;
use crate::{Args, Layers, Run, SETUP_REPEATS};

const CLIENTS: usize = 2;
const WORKERS: usize = 2;
const WARM_DEADLINE_MS: u64 = 300;
const COLD_IN_DEADLINE_MS: u64 = 300;
const COLD_OUT_DEADLINE_MS: u64 = 500;
const COLD_OUT_DEVICES: [usize; 2] = [1, 2];
const DEVICES: [&str; 3] = ["qx4", "qx5", "tokyo"];

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Class {
    Warm,
    ColdIn,
    ColdOut,
    Invalid,
}

impl Class {
    const ALL: [Class; 4] = [Class::Warm, Class::ColdIn, Class::ColdOut, Class::Invalid];

    fn name(self) -> &'static str {
        match self {
            Class::Warm => "warm",
            Class::ColdIn => "cold_in",
            Class::ColdOut => "cold_out",
            Class::Invalid => "invalid",
        }
    }
}

/// The per-client deck: slots per class out of 20.
const DECK: [(Class, usize); 4] = [
    (Class::Warm, 10),
    (Class::ColdIn, 5),
    (Class::ColdOut, 2),
    (Class::Invalid, 3),
];
const DECK_LEN: usize = 20;

const INVALID_LINES: [&str; 4] = [
    "this is not json",
    "{\"type\":\"map\"}",
    "{\"type\":\"map\",\"qasm\":\"OPENQASM 2.0;\",\"device\":\"atlantis\"}",
    "{\"type\":\"frobnicate\"}",
];

/// A payload and the circuit it encodes, for client-side verification.
struct Payload {
    circuit: Circuit,
    /// The QASM source (for the `qasm` layer probe).
    qasm: String,
    /// The QASM source as a JSON string literal.
    qasm_json: String,
}

impl Payload {
    fn new(circuit: Circuit) -> Payload {
        let qasm = qxmap_qasm::to_qasm(&circuit);
        let qasm_json = Json::str(qasm.clone()).to_string();
        Payload {
            circuit,
            qasm,
            qasm_json,
        }
    }
}

struct Inputs {
    devices: Vec<CouplingMap>,
    models: Vec<DeviceModel>,
    rows: Vec<Circuit>,
    /// One payload per row, relabeled; the cache holds the rows as
    /// pre-solved, so a hit also exercises the relabel-invariant key.
    warm: Vec<Arc<Payload>>,
    model_build_ms: f64,
}

fn relabeled(circuit: &Circuit, rng: &mut Rng) -> Circuit {
    let n = circuit.num_qubits();
    let p = rng.permutation(n);
    circuit.map_qubits(n, |q| p[q]).named(circuit.name())
}

fn build_inputs(rng: &mut Rng) -> Inputs {
    let devices: Vec<CouplingMap> = DEVICES
        .iter()
        .map(|d| devices::by_name(d).expect("workload devices are library names"))
        .collect();
    let start = Instant::now();
    let models = devices
        .iter()
        .map(|cm| DeviceModel::new(cm.clone()))
        .collect();
    let model_build_ms = start.elapsed().as_secs_f64() * 1e3;
    let rows: Vec<Circuit> = table1_profiles().iter().map(circuit_for).collect();
    let warm = rows
        .iter()
        .map(|row| Arc::new(Payload::new(relabeled(row, rng))))
        .collect();
    Inputs {
        devices,
        models,
        rows,
        warm,
        model_build_ms,
    }
}

fn map_line(
    id: u64,
    payload: &Payload,
    device: &str,
    deadline_ms: u64,
    seed: Option<u64>,
    trace: bool,
) -> String {
    let mut line = format!(
        "{{\"type\":\"map\",\"id\":{id},\"qasm\":{},\"device\":\"{device}\",\"deadline_ms\":{deadline_ms}",
        payload.qasm_json
    );
    if let Some(seed) = seed {
        line.push_str(&format!(",\"seed\":{seed}"));
    }
    if trace {
        line.push_str(",\"trace\":true");
    }
    line.push('}');
    line
}

/// A running daemon and its accept loop.
struct Daemon {
    server: Arc<Server>,
    addr: SocketAddr,
    accept: JoinHandle<std::io::Result<()>>,
}

fn config(journal: &Path) -> ServerConfig {
    ServerConfig {
        workers: WORKERS,
        journal: Some(journal.to_path_buf()),
        ..ServerConfig::default()
    }
}

fn boot(journal: &Path) -> Daemon {
    let server = Server::start(config(journal));
    server.warm_start().expect("the journal replays");
    let listener = TcpListener::bind("127.0.0.1:0").expect("loopback bind");
    let addr = listener.local_addr().expect("bound address");
    let accept = std::thread::spawn({
        let server = Arc::clone(&server);
        move || server.serve_tcp(listener)
    });
    Daemon {
        server,
        addr,
        accept,
    }
}

impl Daemon {
    fn stop(self) {
        self.server.begin_shutdown();
        self.accept
            .join()
            .expect("the accept loop does not panic")
            .expect("the accept loop exits cleanly");
        self.server.finish().expect("the journal drains");
    }
}

/// Solves every Table 1 row once (two at a time) and leaves the answers
/// in the journal, so every boot replays them.
fn prewarm(journal: &Path, inputs: &Inputs) {
    SolveCache::shared().clear();
    let server = Server::start(config(journal));
    server.warm_start().expect("the journal attaches");
    let lines: Vec<String> = inputs
        .rows
        .iter()
        .map(|row| {
            map_line(
                0,
                &Payload::new(row.clone()),
                DEVICES[0],
                WARM_DEADLINE_MS,
                None,
                false,
            )
        })
        .collect();
    std::thread::scope(|scope| {
        for part in lines.chunks(lines.len().div_ceil(CLIENTS)) {
            let server = &server;
            scope.spawn(move || {
                for line in part {
                    let reply = server.handle_line(line);
                    assert!(
                        reply.response().contains("\"type\":\"result\""),
                        "Table 1 rows map on QX4: {}",
                        reply.response()
                    );
                }
            });
        }
    });
    server.finish().expect("the journal drains");
}

/// One request line as the client sent it.
struct Record {
    class: Class,
    payload: Option<Arc<Payload>>,
    device: usize,
    deadline: Option<Duration>,
    latency_ms: f64,
    reply: Result<Json, Failure>,
    request: u64,
}

fn round_trip(
    writer: &mut TcpStream,
    reader: &mut impl BufRead,
    line: &str,
) -> Result<Json, Failure> {
    writeln!(writer, "{line}").map_err(|_| Failure::Timeout)?;
    writer.flush().map_err(|_| Failure::Timeout)?;
    let mut reply = String::new();
    match reader.read_line(&mut reply) {
        Ok(n) if n > 0 => Json::parse(&reply).map_err(|_| Failure::InvalidInput),
        _ => Err(Failure::Timeout),
    }
}

struct Client {
    records: Vec<Record>,
    log: SpanLog,
}

fn client(
    index: usize,
    inputs: &Inputs,
    addr: SocketAddr,
    stop: Instant,
    traced: bool,
    mut rng: Rng,
    origin: Instant,
) -> Client {
    let stream = TcpStream::connect(addr).expect("the daemon listens");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("socket option");
    stream.set_nodelay(true).expect("socket option");
    let mut writer = stream.try_clone().expect("socket clone");
    let mut reader = BufReader::new(stream);
    let mut log = SpanLog::new(origin);
    let mut records = Vec::new();
    // Per-class decks: every row once per round, in a seeded order.
    let mut deck: Vec<Class> = Vec::new();
    let mut warm_rows = Vec::new();
    let mut cold_in_rows = Vec::new();
    let mut cold_out_rows = Vec::new();
    let deal = |deck: &mut Vec<usize>, n: usize, rng: &mut Rng| {
        if deck.is_empty() {
            *deck = rng.permutation(n);
        }
        deck.pop().expect("refilled above")
    };
    let mut seq = 0u64;
    while Instant::now() < stop {
        if deck.is_empty() {
            deck = DECK
                .iter()
                .flat_map(|&(class, n)| std::iter::repeat_n(class, n))
                .collect();
            rng.shuffle(&mut deck);
        }
        let class = deck.pop().expect("refilled above");
        seq += 1;
        let request = ((index as u64 + 1) << 32) | seq;
        // Masked to 48 bits: the protocol carries integers as f64.
        let fresh_seed = rng.next_u64() & 0xFFFF_FFFF_FFFF;
        let rows = inputs.rows.len();
        let (line, payload, device, deadline_ms) = match class {
            Class::Warm => {
                let payload = Arc::clone(&inputs.warm[deal(&mut warm_rows, rows, &mut rng)]);
                let line = map_line(
                    request,
                    &payload,
                    DEVICES[0],
                    WARM_DEADLINE_MS,
                    None,
                    traced,
                );
                (line, Some(payload), 0, Some(WARM_DEADLINE_MS))
            }
            Class::ColdIn | Class::ColdOut => {
                let (row, device, deadline_ms) = if class == Class::ColdIn {
                    (
                        deal(&mut cold_in_rows, rows, &mut rng),
                        0,
                        COLD_IN_DEADLINE_MS,
                    )
                } else {
                    let pick = deal(&mut cold_out_rows, rows * COLD_OUT_DEVICES.len(), &mut rng);
                    (
                        pick % rows,
                        COLD_OUT_DEVICES[pick / rows],
                        COLD_OUT_DEADLINE_MS,
                    )
                };
                let payload = Arc::new(Payload::new(relabeled(&inputs.rows[row], &mut rng)));
                let line = map_line(
                    request,
                    &payload,
                    DEVICES[device],
                    deadline_ms,
                    Some(fresh_seed),
                    traced,
                );
                (line, Some(payload), device, Some(deadline_ms))
            }
            Class::Invalid => {
                let line = INVALID_LINES[rng.below(INVALID_LINES.len())].to_string();
                (line, None, 0, None)
            }
        };
        let start = Instant::now();
        let reply = round_trip(&mut writer, &mut reader, &line);
        let end = Instant::now();
        if traced {
            let span = log.record("serve.round_trip", start, end, None, request);
            if let Some(trace) = reply.as_ref().ok().and_then(|r| r.get("trace")) {
                log.graft_wire(trace, start, span, request);
            }
        }
        let broken = reply == Err(Failure::Timeout);
        records.push(Record {
            class,
            payload,
            device,
            deadline: deadline_ms.map(Duration::from_millis),
            latency_ms: end.duration_since(start).as_secs_f64() * 1e3,
            reply,
            request,
        });
        if broken {
            break;
        }
    }
    Client { records, log }
}

/// Drives both clients until `budget` runs out; returns the records and
/// the wall time.
fn phase(
    inputs: &Arc<Inputs>,
    addr: SocketAddr,
    budget: Duration,
    traced: bool,
    rng: &mut Rng,
    log: &mut SpanLog,
) -> (Vec<Record>, f64) {
    let start = Instant::now();
    let stop = start + budget;
    let clients: Vec<_> = (0..CLIENTS)
        .map(|i| {
            let inputs = Arc::clone(inputs);
            let rng = rng.fork(i as u64);
            let origin = start;
            std::thread::spawn(move || client(i, &inputs, addr, stop, traced, rng, origin))
        })
        .collect();
    let mut records = Vec::new();
    for handle in clients {
        let client = handle.join().expect("client threads do not panic");
        records.extend(client.records);
        log.extend(client.log);
    }
    (records, start.elapsed().as_secs_f64())
}

fn daemon_metrics(addr: SocketAddr) -> Json {
    let stream = TcpStream::connect(addr).expect("the daemon listens");
    let mut writer = stream.try_clone().expect("socket clone");
    let mut reader = BufReader::new(stream);
    round_trip(&mut writer, &mut reader, "{\"type\":\"metrics\"}").expect("metrics reply")
}

fn at(doc: &Json, path: &[&str]) -> f64 {
    path.iter()
        .try_fold(doc, |v, k| v.get(k))
        .and_then(Json::as_f64)
        .unwrap_or(0.0)
}

fn error_code(reply: &Json) -> Option<&str> {
    (reply.get("type").and_then(Json::as_str) == Some("error"))
        .then(|| reply.get("code").and_then(Json::as_str).unwrap_or(""))
}

/// Classifies and verifies one reply.
fn judge(
    record: &Record,
    inputs: &Inputs,
    sim: &mut [usize; 2],
    errors: &mut Vec<String>,
) -> Sample {
    let result = match (&record.reply, record.class) {
        (Err(f), _) => Err(*f),
        (Ok(reply), Class::Invalid) => match error_code(reply) {
            Some("parse" | "bad_request") => Ok(Answer::default()),
            _ => {
                errors.push(format!("malformed line answered with {reply}"));
                Err(Failure::InvalidInput)
            }
        },
        (Ok(reply), _) => match error_code(reply) {
            Some("overloaded") => Err(Failure::Overload),
            Some("deadline_expired") => Err(Failure::Shed),
            Some("parse" | "bad_request") => {
                errors.push(format!(
                    "valid {} request rejected: {reply}",
                    record.class.name()
                ));
                Err(Failure::InvalidInput)
            }
            Some(_) => {
                errors.push(format!(
                    "valid {} request failed: {reply}",
                    record.class.name()
                ));
                Err(Failure::ValidInputError)
            }
            None => {
                let payload = record
                    .payload
                    .as_ref()
                    .expect("mapping classes carry a payload");
                match check::wire(reply, &payload.circuit, &inputs.devices[record.device]) {
                    Ok(s) => {
                        sim[usize::from(s == SimCheck::Skipped)] += 1;
                        Ok(answer(reply))
                    }
                    Err(e) => {
                        errors.push(format!(
                            "{} request {}: {e}",
                            record.class.name(),
                            record.request
                        ));
                        Err(Failure::Verify)
                    }
                }
            }
        },
    };
    Sample {
        class: record.class.name(),
        slot: None,
        latency_ms: record.latency_ms,
        deadline: record.deadline,
        result,
    }
}

fn answer(reply: &Json) -> Answer {
    let (certificates, proved) = match reply.get("windows").and_then(Json::as_array) {
        Some(windows) => (
            windows.len() as u64,
            windows
                .iter()
                .filter(|w| w.get("proved_optimal").and_then(Json::as_bool) == Some(true))
                .count() as u64,
        ),
        None => (
            1,
            u64::from(reply.get("proved_optimal").and_then(Json::as_bool) == Some(true)),
        ),
    };
    Answer {
        objective: at(reply, &["cost", "objective"]) as u64,
        certificates,
        proved,
        mapping: true,
    }
}

/// One timed set-up: inputs, device models, payloads, daemon boot and
/// the replay of a fresh copy of the prewarmed journal (the copy itself
/// is not timed).
fn timed_setup(args: &Args, prewarmed: &Path, journal: &Path) -> (Inputs, Daemon, Rng, f64) {
    std::fs::copy(prewarmed, journal).expect("the checkout is writable");
    SolveCache::shared().clear();
    let start = Instant::now();
    let mut rng = Rng::new(args.seed);
    let inputs = build_inputs(&mut rng);
    let daemon = boot(journal);
    (inputs, daemon, rng, start.elapsed().as_secs_f64())
}

pub fn run(args: &Args) -> Run {
    let dir = PathBuf::from(".bench_out").join(format!("serve-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("the checkout is writable");
    let prewarmed = dir.join("prewarmed.journal");
    let journal = dir.join("cache.journal");

    // The warm pool is solved once, before set-up is timed.
    prewarm(&prewarmed, &build_inputs(&mut Rng::new(args.seed)));

    // Set-up runs several times before the measurement and again after
    // it; the median of all of them is the metric, and the last boot
    // before the measurement serves it.
    let mut setup_times = Vec::new();
    let mut built: Option<(Inputs, Daemon, Rng)> = None;
    for _ in 0..SETUP_REPEATS {
        if let Some((_, daemon, _)) = built.take() {
            daemon.stop();
        }
        let (inputs, daemon, rng, seconds) = timed_setup(args, &prewarmed, &journal);
        setup_times.push(seconds);
        built = Some((inputs, daemon, rng));
    }
    let (inputs, daemon, mut rng) = built.expect("at least one boot");
    let inputs = Arc::new(inputs);

    let budget = Duration::from_secs_f64(args.seconds);
    let mut log = SpanLog::new(Instant::now());
    let plain_budget = if args.trace { budget / 2 } else { budget };
    let (mut records, plain_wall) = phase(
        &inputs,
        daemon.addr,
        plain_budget,
        false,
        &mut rng,
        &mut log,
    );
    let plain_len = records.len();
    let mut traced_phase = None;
    if args.trace {
        let before = daemon_metrics(daemon.addr);
        let cache_before = SolveCache::shared().stats();
        let (traced, _) = phase(&inputs, daemon.addr, budget / 2, true, &mut rng, &mut log);
        records.extend(traced);
        let after = daemon_metrics(daemon.addr);
        let cache_after = SolveCache::shared().stats();
        traced_phase = Some((before, after, cache_before, cache_after));
    }
    let server = Arc::clone(&daemon.server);
    daemon.stop();
    let final_metrics = server.metrics_json(None);
    let journal_bytes = std::fs::metadata(&journal).map_or(0, |m| m.len());
    for _ in 0..SETUP_REPEATS {
        let (_, daemon, _, seconds) = timed_setup(args, &prewarmed, &journal);
        daemon.stop();
        setup_times.push(seconds);
    }
    let setup_s = median(&setup_times);
    std::fs::remove_dir_all(&dir).ok();

    // Verification, after the clock stopped.
    let mut sim = [0usize; 2];
    let mut verify_errors = Vec::new();
    let samples: Vec<Sample> = records
        .iter()
        .map(|r| judge(r, &inputs, &mut sim, &mut verify_errors))
        .collect();
    let plain = &samples[..plain_len];
    let passes = plain.len() as f64 / DECK_LEN as f64;
    let e2e = EndToEnd::from_samples(plain, plain_wall, passes.max(1e-9), setup_s);

    let layers = traced_phase.map(|(before, after, cache_before, cache_after)| {
        let mut l = layers(&records, &samples, &inputs, &mut log, plain_len);
        let delta = |path: &[&str]| at(&after, path) - at(&before, path);
        let waits = delta(&["phases", "queue_wait", "count"]).max(1.0);
        l.set(
            "serve.queue_wait_ms",
            delta(&["queue", "wait_total_us"]) / waits / 1e3,
        );
        l.set("serve.shed", delta(&["requests", "rejected_deadline"]));
        l.set(
            "serve.rejected_overload",
            delta(&["requests", "rejected_overload"]),
        );
        l.set(
            "serve.deadline_misses",
            delta(&["requests", "deadline_misses"]),
        );
        let hits = (cache_after.hits - cache_before.hits) as f64;
        let misses = (cache_after.misses - cache_before.misses) as f64;
        l.set("map.cache.hit_ratio", hits / (hits + misses).max(1.0));
        l.set(
            "map.journal.appends",
            at(&final_metrics, &["journal", "appended"]),
        );
        l.set("map.journal.bytes", journal_bytes as f64);
        l.set("arch.model_build_ms", inputs.model_build_ms);
        let traced_p50 = p50_ms(&samples[plain_len..]);
        let plain_p50 = p50_ms(plain);
        l.set("trace.overhead_pct", (traced_p50 / plain_p50 - 1.0) * 100.0);
        l
    });

    let class_counts = Class::ALL.iter().map(|c| {
        let n = samples.iter().filter(|s| s.class == c.name()).count();
        (format!("requests.{}", c.name()), n as f64)
    });
    let mut notes: Vec<(String, f64)> = class_counts.collect();
    notes.push((
        "daemon.deadline_misses".to_string(),
        at(&final_metrics, &["requests", "deadline_misses"]),
    ));
    notes.push((
        "journal.appended".to_string(),
        at(&final_metrics, &["journal", "appended"]),
    ));
    notes.push(("journal.bytes".to_string(), journal_bytes as f64));
    let warm_misses = records
        .iter()
        .filter(|r| r.class == Class::Warm)
        .filter_map(|r| r.reply.as_ref().ok())
        .filter(|reply| reply.get("served_from_cache").and_then(Json::as_bool) != Some(true))
        .count();
    notes.push(("warm.not_from_cache".to_string(), warm_misses as f64));
    Run {
        e2e,
        samples,
        layers,
        log,
        verify_errors,
        sim_checked: sim[0],
        sim_skipped: sim[1],
        notes,
    }
}

/// The layer metrics readable from the traced phase's replies and wire
/// timelines, plus the benchmark's own calls on the same payloads.
fn layers(
    records: &[Record],
    samples: &[Sample],
    inputs: &Inputs,
    log: &mut SpanLog,
    plain_len: usize,
) -> Layers {
    let traced: Vec<(&Record, &Sample)> = records.iter().zip(samples).skip(plain_len).collect();
    let decks = (traced.len() as f64 / DECK_LEN as f64).max(1e-9);
    let results: Vec<&Json> = traced
        .iter()
        .filter(|(_, s)| s.result.as_ref().is_ok_and(|a| a.mapping))
        .filter_map(|(r, _)| r.reply.as_ref().ok())
        .collect();
    let solved: Vec<&Json> = results
        .iter()
        .copied()
        .filter(|r| r.get("served_from_cache").and_then(Json::as_bool) == Some(false))
        .collect();
    let cached: Vec<&Json> = results
        .iter()
        .copied()
        .filter(|r| r.get("served_from_cache").and_then(Json::as_bool) == Some(true))
        .collect();
    let spans_of = |reply: &Json, pick: &dyn Fn(&str) -> bool| -> Vec<(f64, Option<f64>)> {
        reply
            .get("trace")
            .and_then(|t| t.get("spans"))
            .and_then(Json::as_array)
            .unwrap_or(&[])
            .iter()
            .filter(|s| s.get("path").and_then(Json::as_str).is_some_and(pick))
            .map(|s| {
                let iterations = s
                    .get("counters")
                    .and_then(|c| c.get("iterations"))
                    .and_then(Json::as_f64);
                (at(s, &["duration_us"]), iterations)
            })
            .collect()
    };
    let durations_us = |set: &[&Json], pick: &dyn Fn(&str) -> bool| -> Vec<f64> {
        set.iter()
            .flat_map(|r| spans_of(r, pick))
            .map(|(d, _)| d)
            .collect()
    };
    let per_solve = (solved.len().max(1)) as f64;
    let exact_raced: Vec<&&Json> = solved
        .iter()
        .filter(|r| !spans_of(r, &|p| p == "race/exact").is_empty())
        .collect();
    let windows: Vec<&Json> = solved
        .iter()
        .filter_map(|r| r.get("windows").and_then(Json::as_array))
        .flatten()
        .collect();
    let windowed = solved
        .iter()
        .filter(|r| r.get("windows").is_some())
        .count()
        .max(1) as f64;
    let wins = |engine: &str| {
        solved
            .iter()
            .filter(|r| r.get("winner").and_then(Json::as_str) == Some(engine))
            .count() as f64
            / decks
    };

    // The benchmark's own calls on the traced payloads: QASM ingest,
    // SABRE, and the exact encoding's size on QX4.
    let mut parse_us = Vec::new();
    let mut sabre_ms = Vec::new();
    let mut sabre_cost = 0.0;
    let mut encoding = [0u64; 3];
    for (record, _) in &traced {
        let Some(payload) = &record.payload else {
            continue;
        };
        let parent = Some(log.record(
            "request",
            Instant::now(),
            Instant::now(),
            None,
            record.request,
        ));
        let start = Instant::now();
        let (_, skeleton) = log.time("qasm.parse_skeleton", None, record.request, || {
            qxmap_qasm::parse_skeleton(&payload.qasm).expect("generated QASM parses")
        });
        let (_, program) = log.time("qasm.parse_program", None, record.request, || {
            qxmap_qasm::parse_program(&payload.qasm).expect("generated QASM parses")
        });
        let parse = log.record("qasm.parse", start, Instant::now(), parent, record.request);
        log.set_parent(skeleton, parse);
        log.set_parent(program, parse);
        parse_us.push(log.spans()[parse].duration_us());
        if record.class == Class::Warm {
            continue;
        }
        let request = MapRequest::for_model(
            payload.circuit.clone(),
            inputs.models[record.device].clone(),
        )
        .with_deadline(record.deadline.unwrap_or_default());
        let (sabre, span) = log.time("heuristic.sabre", parent, record.request, || {
            HeuristicEngine::sabre().run(&request)
        });
        sabre_ms.push(log.spans()[span].duration_us() / 1e3);
        sabre_cost += sabre.map_or(0.0, |r| r.cost.objective as f64);
        if record.class == Class::ColdIn {
            let (stats, _) = log.time("core.encoding_stats", parent, record.request, || {
                ExactEngine::new().encoding_stats(&request)
            });
            if let Ok(stats) = stats {
                encoding[0] += stats.clauses as u64;
                encoding[1] += stats.variables as u64;
                encoding[2] += stats.permutations as u64;
            }
        }
    }

    let mut l = Layers::zeroed();
    l.set("qasm.parse_us", median(&parse_us));
    let total_ms = |set: &[&Json], pick: &dyn Fn(&str) -> bool| {
        durations_us(set, pick).iter().sum::<f64>() / 1e3
    };
    l.set(
        "core.encode_ms",
        total_ms(&solved, &|p| p.ends_with("/encode")) / per_solve,
    );
    l.set("core.clauses", encoding[0] as f64 / decks);
    l.set("core.variables", encoding[1] as f64 / decks);
    l.set("core.permutations", encoding[2] as f64 / decks);
    l.set(
        "sat.minimize_ms",
        total_ms(&solved, &|p| p.ends_with("/minimize")) / per_solve,
    );
    let iterations: f64 = solved
        .iter()
        .flat_map(|r| spans_of(r, &|p| p == "race/exact"))
        .filter_map(|(_, i)| i)
        .sum();
    l.set("sat.iterations", iterations / decks);
    l.set(
        "sat.proof_ratio",
        exact_raced
            .iter()
            .filter(|r| r.get("proved_optimal").and_then(Json::as_bool) == Some(true))
            .count() as f64
            / exact_raced.len().max(1) as f64,
    );
    let race: Vec<f64> = durations_us(&solved, &|p| p == "race")
        .iter()
        .map(|u| u / 1e3)
        .collect();
    l.set("map.race_ms", median(&race));
    let unwind: Vec<f64> = solved
        .iter()
        .filter(|r| r.get("windows").is_none())
        .map(|r| (at(r, &["elapsed_us"]) - at(r, &["runtime_us"])).max(0.0) / 1e3)
        .collect();
    l.set(
        "map.race.unwind_ms",
        unwind.iter().sum::<f64>() / unwind.len().max(1) as f64,
    );
    l.set("map.race.wins.exact", wins("exact"));
    l.set("map.race.wins.sabre", wins("sabre"));
    l.set("map.race.wins.naive", wins("naive"));
    l.set(
        "map.cache.probe_us",
        median(&durations_us(&results, &|p| p == "ingest/probe")),
    );
    l.set("heuristic.sabre_ms", median(&sabre_ms));
    l.set("heuristic.sabre_cost", sabre_cost / decks);
    l.set("window.count", windows.len() as f64 / decks);
    l.set(
        "window.solve_ms",
        total_ms(&solved, &|p| p == "windows/solve") / windowed,
    );
    l.set(
        "window.proved_ratio",
        windows
            .iter()
            .filter(|w| w.get("proved_optimal").and_then(Json::as_bool) == Some(true))
            .count() as f64
            / windows.len().max(1) as f64,
    );
    l.set(
        "window.bridge_cost",
        windows.iter().map(|w| at(w, &["bridge_cost"])).sum::<f64>() / decks,
    );
    l.set(
        "serve.phase.ingest_us",
        median(&durations_us(&results, &|p| p == "ingest")),
    );
    l.set(
        "serve.phase.queue_wait_us",
        median(&durations_us(&solved, &|p| p == "queue")),
    );
    l.set(
        "serve.phase.solve_us",
        median(
            &solved
                .iter()
                .map(|r| at(r, &["elapsed_us"]))
                .collect::<Vec<_>>(),
        ),
    );
    l.set(
        "serve.phase.warm_hit_us",
        median(
            &cached
                .iter()
                .map(|r| at(r, &["trace", "elapsed_us"]))
                .collect::<Vec<_>>(),
        ),
    );
    for class in Class::ALL {
        let latencies: Vec<f64> = traced
            .iter()
            .filter(|(r, _)| r.class == class)
            .map(|(r, s)| {
                if s.result.is_ok() {
                    r.latency_ms
                } else {
                    f64::INFINITY
                }
            })
            .collect();
        let finite = |v: f64| if v.is_finite() { v } else { 0.0 };
        l.set(
            &format!("serve.class.{}.p50_ms", class.name()),
            finite(median(&latencies)),
        );
        l.set(
            &format!("serve.class.{}.tail_ms", class.name()),
            finite(tail(&latencies).value),
        );
    }
    l
}
