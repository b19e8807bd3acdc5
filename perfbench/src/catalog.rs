//! Every metric the benchmark prints: name, unit, direction, the layer it
//! belongs to, and — written down before any optimisation — the
//! end-to-end metric and workload a change to that layer should move.
//! `BENCHMARK.json` lists the same names, units and directions; the test
//! below keeps the two in step, and `main` refuses to print a result
//! that misses one of them.

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub layer: &'static str,
    pub moves: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    layer: &'static str,
    moves: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        layer,
        moves,
    }
}

/// Printed by every `--trace 0` run, on every workload.
pub const END_TO_END: &[Metric] = &[
    m(
        "maps_per_s",
        "req/s",
        "higher",
        "all",
        "requests answered per second of wall time",
    ),
    m(
        "latency_p50_ms",
        "ms",
        "lower",
        "all",
        "median per-request latency",
    ),
    m(
        "latency_tail_ms",
        "ms",
        "lower",
        "all",
        "highest percentile with at least ten samples beyond it",
    ),
    m(
        "added_cost",
        "F",
        "lower",
        "all",
        "sum of F = 7*SWAP + 4*reversal per deck pass",
    ),
    m(
        "proved_share",
        "ratio",
        "higher",
        "all",
        "proved certificates / certificates (windows count one each)",
    ),
    m(
        "deadline_met_share",
        "ratio",
        "higher",
        "all",
        "answers within deadline + max(5%, 10 ms) / attempted",
    ),
    m(
        "answered_share",
        "ratio",
        "higher",
        "all",
        "successes / attempted",
    ),
    m(
        "setup_s",
        "s",
        "lower",
        "all",
        "median of the set-up repetitions before and after",
    ),
];

/// Printed by every `--trace 1` run, on every workload (0 where the
/// workload does not reach the layer).
pub const PER_LAYER: &[Metric] = &[
    m(
        "qasm.parse_us",
        "us",
        "lower",
        "qasm",
        "latency_p50_ms @ serve_mix",
    ),
    m(
        "arch.model_build_ms",
        "ms",
        "lower",
        "arch",
        "setup_s @ all; latency_p50_ms @ route_large",
    ),
    m(
        "core.encode_ms",
        "ms",
        "lower",
        "core",
        "latency_tail_ms, proved_share @ exact_table1",
    ),
    m(
        "core.clauses",
        "count",
        "lower",
        "core",
        "latency_tail_ms, proved_share @ exact_table1",
    ),
    m(
        "core.variables",
        "count",
        "lower",
        "core",
        "latency_tail_ms, proved_share @ exact_table1",
    ),
    m(
        "core.permutations",
        "count",
        "lower",
        "core",
        "latency_tail_ms, proved_share @ exact_table1",
    ),
    m(
        "sat.minimize_ms",
        "ms",
        "lower",
        "sat",
        "latency_p50_ms @ exact_table1",
    ),
    m(
        "sat.iterations",
        "count",
        "lower",
        "sat",
        "latency_p50_ms @ exact_table1",
    ),
    m(
        "sat.proof_ratio",
        "ratio",
        "higher",
        "sat",
        "proved_share @ exact_table1",
    ),
    m(
        "map.race_ms",
        "ms",
        "lower",
        "map",
        "latency_p50_ms @ exact_table1",
    ),
    m(
        "map.race.unwind_ms",
        "ms",
        "lower",
        "map",
        "deadline_met_share @ exact_table1",
    ),
    m(
        "map.race.wins.exact",
        "count",
        "higher",
        "map",
        "added_cost @ exact_table1",
    ),
    m(
        "map.race.wins.sabre",
        "count",
        "lower",
        "map",
        "added_cost @ exact_table1",
    ),
    m(
        "map.race.wins.naive",
        "count",
        "lower",
        "map",
        "added_cost @ exact_table1",
    ),
    m(
        "map.cache.hit_ratio",
        "ratio",
        "higher",
        "map",
        "maps_per_s @ serve_mix",
    ),
    m(
        "map.cache.probe_us",
        "us",
        "lower",
        "map",
        "latency_p50_ms @ serve_mix",
    ),
    m(
        "map.journal.appends",
        "count",
        "higher",
        "map",
        "maps_per_s @ serve_mix",
    ),
    m(
        "map.journal.bytes",
        "bytes",
        "lower",
        "map",
        "maps_per_s @ serve_mix",
    ),
    m(
        "heuristic.sabre_ms",
        "ms",
        "lower",
        "heuristic",
        "latency_p50_ms @ route_large",
    ),
    m(
        "heuristic.sabre_cost",
        "F",
        "lower",
        "heuristic",
        "added_cost @ route_large",
    ),
    m(
        "window.count",
        "count",
        "lower",
        "window",
        "latency_tail_ms @ route_large",
    ),
    m(
        "window.solve_ms",
        "ms",
        "lower",
        "window",
        "latency_tail_ms @ route_large, serve_mix (cold_out)",
    ),
    m(
        "window.proved_ratio",
        "ratio",
        "higher",
        "window",
        "added_cost @ route_large",
    ),
    m(
        "window.bridge_cost",
        "F",
        "lower",
        "window",
        "added_cost @ route_large",
    ),
    m(
        "serve.queue_wait_ms",
        "ms",
        "lower",
        "serve",
        "latency_tail_ms, answered_share @ serve_mix",
    ),
    m(
        "serve.shed",
        "count",
        "lower",
        "serve",
        "answered_share @ serve_mix",
    ),
    m(
        "serve.rejected_overload",
        "count",
        "lower",
        "serve",
        "answered_share @ serve_mix",
    ),
    m(
        "serve.phase.ingest_us",
        "us",
        "lower",
        "serve",
        "latency_p50_ms @ serve_mix",
    ),
    m(
        "serve.phase.queue_wait_us",
        "us",
        "lower",
        "serve",
        "latency_p50_ms @ serve_mix",
    ),
    m(
        "serve.phase.solve_us",
        "us",
        "lower",
        "serve",
        "latency_p50_ms @ serve_mix",
    ),
    m(
        "serve.phase.warm_hit_us",
        "us",
        "lower",
        "serve",
        "latency_p50_ms @ serve_mix",
    ),
    m(
        "serve.class.warm.p50_ms",
        "ms",
        "lower",
        "serve",
        "latency_p50_ms @ serve_mix",
    ),
    m(
        "serve.class.warm.tail_ms",
        "ms",
        "lower",
        "serve",
        "latency_tail_ms @ serve_mix",
    ),
    m(
        "serve.class.cold_in.p50_ms",
        "ms",
        "lower",
        "serve",
        "latency_p50_ms @ serve_mix",
    ),
    m(
        "serve.class.cold_in.tail_ms",
        "ms",
        "lower",
        "serve",
        "latency_tail_ms @ serve_mix",
    ),
    m(
        "serve.class.cold_out.p50_ms",
        "ms",
        "lower",
        "serve",
        "latency_p50_ms @ serve_mix",
    ),
    m(
        "serve.class.cold_out.tail_ms",
        "ms",
        "lower",
        "serve",
        "latency_tail_ms @ serve_mix",
    ),
    m(
        "serve.class.invalid.p50_ms",
        "ms",
        "lower",
        "serve",
        "latency_p50_ms @ serve_mix",
    ),
    m(
        "serve.class.invalid.tail_ms",
        "ms",
        "lower",
        "serve",
        "latency_tail_ms @ serve_mix",
    ),
    m(
        "serve.deadline_misses",
        "count",
        "lower",
        "serve",
        "deadline_met_share @ serve_mix",
    ),
    m(
        "peak_rss_mb",
        "MiB",
        "lower",
        "process",
        "VmHWM of the whole run; kept off the end-to-end list because glibc's \
         per-thread arenas move it by up to a third between identical runs",
    ),
    m(
        "trace.overhead_pct",
        "%",
        "lower",
        "trace",
        "traced latency_p50_ms against untraced, same run",
    ),
];

#[cfg(test)]
mod tests {
    use super::*;
    use qxmap_serve::Json;

    fn listed(doc: &Json, key: &str) -> Vec<(String, String, String)> {
        doc.get(key)
            .and_then(Json::as_array)
            .expect("BENCHMARK.json lists the metrics")
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    }

    fn ours(metrics: &[Metric]) -> Vec<(String, String, String)> {
        metrics
            .iter()
            .map(|m| (m.name.into(), m.unit.into(), m.better.into()))
            .collect()
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let doc = Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        assert_eq!(listed(&doc, "end_to_end"), ours(END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), ours(PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_array)
            .expect("BENCHMARK.json lists the workloads")
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str))
            .collect();
        assert_eq!(workloads, crate::WORKLOADS);
    }

    #[test]
    fn every_metric_names_its_layer_and_what_it_moves() {
        for metric in END_TO_END.iter().chain(PER_LAYER) {
            assert!(
                !metric.layer.is_empty() && !metric.moves.is_empty(),
                "{}",
                metric.name
            );
        }
    }
}
