//! Cross-engine invariants through the unified `qxmap-map` surface: the
//! exact optimum is a true floor for every heuristic, and every engine's
//! report is hardware-legal and functionally equivalent to its input.

use qxmap::arch::devices;
use qxmap::circuit::Circuit;
use qxmap::map::{Engine, ExactEngine, HeuristicEngine, MapRequest};
use qxmap::sim::mapped_equivalent;

/// A deterministic family of small test circuits.
fn test_circuits() -> Vec<Circuit> {
    let mut out = Vec::new();
    for seed in 0..6u64 {
        let n = 3 + (seed as usize % 3); // 3..=5 qubits
        let cnots = 4 + (seed as usize * 2) % 7;
        out.push(qxmap::benchmarks::synthetic_circuit(n, 3, cnots, seed));
    }
    out.push(qxmap::circuit::paper_example());
    out.push(qxmap::benchmarks::famous::ghz(5));
    out.push(qxmap::benchmarks::famous::toffoli_chain(3, 2));
    out
}

fn heuristic_engines() -> Vec<(&'static str, HeuristicEngine)> {
    vec![
        ("stochastic", HeuristicEngine::stochastic(1)),
        ("sabre", HeuristicEngine::sabre()),
        ("naive", HeuristicEngine::naive()),
    ]
}

#[test]
fn exact_is_a_floor_for_all_heuristics() {
    let cm = devices::ibm_qx4();
    for (idx, circuit) in test_circuits().iter().enumerate() {
        let request = MapRequest::new(circuit.clone(), cm.clone()).with_seed(idx as u64);
        let exact = ExactEngine::new().run(&request).expect("mappable");
        assert!(exact.proved_optimal, "circuit {idx}");

        for (name, engine) in heuristic_engines() {
            let added = engine.run(&request).expect("mappable").cost.added_gates;
            assert!(
                exact.cost.added_gates <= added,
                "circuit {idx}: {name} added {added} < exact {}",
                exact.cost.added_gates
            );
        }
    }
}

#[test]
fn every_engine_report_is_equivalent_and_legal() {
    let cm = devices::ibm_qx4();
    for (idx, circuit) in test_circuits().iter().enumerate() {
        let request = MapRequest::new(circuit.clone(), cm.clone()).with_seed(99);
        for (name, engine) in heuristic_engines() {
            let r = engine.run(&request).expect("mappable");
            r.verify(circuit, &cm)
                .unwrap_or_else(|e| panic!("circuit {idx}, {name}: {e}"));
            assert!(
                mapped_equivalent(
                    &circuit.decompose_swaps(),
                    &r.mapped,
                    &r.initial_layout,
                    &r.final_layout,
                    1e-9,
                )
                .expect("unitary"),
                "circuit {idx}: {name} output diverged"
            );
            // Cost accounting: added gates decompose into 7/4 units.
            assert_eq!(
                r.cost.added_gates,
                7 * u64::from(r.cost.swaps) + 4 * u64::from(r.cost.reversals),
                "circuit {idx}: {name}"
            );
            assert_eq!(r.engine, name, "engine must sign its report");
        }
    }
}

#[test]
fn heuristic_cost_model_identity_on_qx4() {
    // On QX4 every edge is unidirectional: each SWAP is 7 gates, each
    // reversal 4 — so mapped_cost − original = 7s + 4r exactly, for every
    // engine on every circuit. (Already asserted above per-engine; this
    // aggregates as a final sanity sum.)
    let cm = devices::ibm_qx4();
    let engine = HeuristicEngine::stochastic(1);
    let mut total_added = 0u64;
    let mut total_units = 0u64;
    for circuit in test_circuits() {
        let request = MapRequest::new(circuit, cm.clone()).with_seed(5);
        let r = engine.run(&request).expect("mappable");
        total_added += r.cost.added_gates;
        total_units += 7 * u64::from(r.cost.swaps) + 4 * u64::from(r.cost.reversals);
    }
    assert_eq!(total_added, total_units);
}
