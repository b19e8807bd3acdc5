//! Compares the exact minimum against every heuristic baseline on a slice
//! of the evaluation suite — a miniature of the paper's headline result
//! ("IBM's heuristic exceeds the lower bound by more than 100%").
//!
//! Every engine answers the *same* `MapRequest` through the unified
//! `qxmap-map` surface; no per-engine glue required.
//!
//! ```bash
//! cargo run --release --example exact_vs_heuristic
//! ```

use qxmap::arch::devices;
use qxmap::benchmarks::{circuit_for, profiles};
use qxmap::core::bound;
use qxmap::map::{Engine, ExactEngine, HeuristicEngine, MapRequest};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cm = devices::ibm_qx4();
    let names = [
        "ex-1_166",
        "ham3_102",
        "4gt11_84",
        "4mod5-v0_20",
        "4mod5-v1_22",
        "mod5d1_63",
    ];

    let engines: Vec<Box<dyn Engine>> = vec![
        Box::new(ExactEngine::new()),
        Box::new(HeuristicEngine::stochastic(5)), // best of 5, as in Table 1
        Box::new(HeuristicEngine::sabre()),
        Box::new(HeuristicEngine::naive()),
    ];

    println!(
        "{:<14} {:>4} {:>6} {:>6} {:>12} {:>8} {:>8} {:>8}",
        "benchmark", "n", "orig", "LB", "exact", "qiskit*", "sabre", "naive"
    );
    let mut total_exact_added = 0u64;
    let mut total_stoch_added = 0u64;
    for name in names {
        let profile = profiles::by_name(name).expect("known benchmark");
        let circuit = circuit_for(&profile);
        let lb = bound::lower_bound(
            &circuit.cnot_skeleton(),
            circuit.num_qubits(),
            &cm,
            Default::default(),
        );

        let request = MapRequest::new(circuit.clone(), cm.clone());
        let reports: Vec<_> = engines
            .iter()
            .map(|e| e.run(&request).expect("QX4 maps the whole suite"))
            .collect();
        let exact = &reports[0];

        assert!(
            lb <= exact.cost.objective,
            "lower bound may never exceed the optimum"
        );
        for heuristic in &reports[1..] {
            assert!(
                exact.cost.added_gates <= heuristic.cost.added_gates,
                "{} beat the exact minimum",
                heuristic.engine
            );
        }
        total_exact_added += exact.cost.added_gates;
        total_stoch_added += reports[1].cost.added_gates;

        println!(
            "{:<14} {:>4} {:>6} {:>6} {:>12} {:>8} {:>8} {:>8}",
            name,
            circuit.num_qubits(),
            circuit.original_cost(),
            lb,
            format!("{} (F={})", exact.mapped_cost(), exact.cost.objective),
            reports[1].mapped_cost(),
            reports[2].mapped_cost(),
            reports[3].mapped_cost(),
        );
    }
    println!(
        "\nadded-gate overhead of the stochastic (Qiskit-style) mapper vs the exact minimum: {:+.0}%",
        100.0 * (total_stoch_added as f64 - total_exact_added as f64) / total_exact_added as f64
    );
    println!("(the paper reports ≈ +104% over its full suite)");
    Ok(())
}
