//! Shared mapper plumbing.
//!
//! [`run_engine`] is the layer-routing skeleton behind the stochastic
//! mapper: walk the circuit's ASAP layers, ask the planner for a SWAP
//! sequence making the layer's CNOT pairs adjacent, emit the SWAPs and
//! then the layer's gates (repairing directions with 4 H). Distances come
//! from the [`DeviceModel`]'s precomputed tables (one BFS per *model*,
//! not one per `map` call), and every insertion is priced with the
//! model's per-edge costs. [`prepare`] and [`emit_relabeled`] are shared
//! with the naive mapper.

use std::time::Instant;

use qxmap_arch::{route, CouplingMap, DeviceModel, Layout};
use qxmap_circuit::{asap_layers, Circuit, Gate};

use crate::stochastic::StochasticPlanner;
use crate::traits::{HeuristicError, HeuristicResult};

/// Whether every pair is adjacent (either direction) under `layout`.
pub(crate) fn all_adjacent(layout: &Layout, pairs: &[(usize, usize)], cm: &CouplingMap) -> bool {
    pairs.iter().all(|&(c, t)| {
        let pc = layout.phys_of(c).expect("complete layout");
        let pt = layout.phys_of(t).expect("complete layout");
        cm.connected_either(pc, pt)
    })
}

/// Routes `circuit` layer by layer, taking each layer's SWAPs from
/// `planner`, which must return edges of the model's coupling map.
pub(crate) fn run_engine(
    circuit: &Circuit,
    model: &DeviceModel,
    planner: &mut StochasticPlanner,
) -> Result<HeuristicResult, HeuristicError> {
    let start = Instant::now();
    let cm = model.coupling_map();
    let circuit = prepare(circuit, cm)?;

    let n = circuit.num_qubits();
    let m = cm.num_qubits();
    let mut layout = Layout::identity(n, m); // Qiskit 0.4's trivial layout
    let initial_layout = layout.clone();
    let mut out = Circuit::with_clbits(m, circuit.num_clbits());
    let mut swaps = 0u32;
    let mut reversals = 0u32;
    let mut model_cost = 0u64;

    for layer in asap_layers(&circuit) {
        let pairs: Vec<(usize, usize)> = layer
            .gates
            .iter()
            .filter_map(|&g| match circuit.gates()[g] {
                Gate::Cnot { control, target } => Some((control, target)),
                _ => None,
            })
            .collect();
        if !pairs.is_empty() && !all_adjacent(&layout, &pairs, cm) {
            let plan = planner.plan(&layout, &pairs, model)?;
            for (a, b) in plan {
                route::emit_swap(&mut out, cm, a, b).expect("the planner returns coupling edges");
                layout.swap_phys(a, b);
                swaps += 1;
                model_cost += u64::from(model.swap_cost(a, b).expect("coupling edge"));
            }
            debug_assert!(all_adjacent(&layout, &pairs, cm), "planner failed layer");
        }
        for &g in &layer.gates {
            match &circuit.gates()[g] {
                Gate::Cnot { control, target } => {
                    let pc = layout.phys_of(*control).expect("complete layout");
                    let pt = layout.phys_of(*target).expect("complete layout");
                    let emitted =
                        route::emit_cnot(&mut out, cm, pc, pt).expect("pairs are adjacent");
                    if emitted > 1 {
                        reversals += 1;
                    }
                    // Reversal surcharge + any calibrated CNOT overhead,
                    // the same per-edge price the SAT objective charges.
                    model_cost += model.execution_overhead(pc, pt).expect("adjacent pair");
                }
                other => emit_relabeled(&mut out, &layout, other),
            }
        }
    }

    let added = (out.original_cost() - circuit.original_cost()) as u64;
    Ok(HeuristicResult {
        mapped: out,
        initial_layout,
        final_layout: layout,
        added_gates: added,
        swaps,
        reversals,
        model_cost,
        runtime: start.elapsed(),
        wound_down: planner.wound_down(),
    })
}

/// Shared mapper preamble: capacity check, SWAP decomposition, and the
/// connectivity guard every routing heuristic relies on.
pub(crate) fn prepare(circuit: &Circuit, cm: &CouplingMap) -> Result<Circuit, HeuristicError> {
    let n = circuit.num_qubits();
    let m = cm.num_qubits();
    if n > m {
        return Err(HeuristicError::TooManyQubits {
            logical: n,
            physical: m,
        });
    }
    let circuit = circuit.decompose_swaps();
    if !cm.is_connected() && circuit.num_cnots() > 0 {
        return Err(HeuristicError::Unroutable);
    }
    Ok(circuit)
}

/// Emits a non-routing gate relabeled under `layout`. CNOTs are each
/// mapper's own business; input SWAPs must already be decomposed.
pub(crate) fn emit_relabeled(out: &mut Circuit, layout: &Layout, gate: &Gate) {
    match gate {
        Gate::One { kind, qubit } => {
            let p = layout.phys_of(*qubit).expect("complete layout");
            out.one(*kind, p);
        }
        Gate::Barrier(qs) => {
            let mapped: Vec<usize> = qs
                .iter()
                .map(|&q| layout.phys_of(q).expect("complete layout"))
                .collect();
            out.push(Gate::Barrier(mapped));
        }
        Gate::Measure { qubit, clbit } => {
            let p = layout.phys_of(*qubit).expect("complete layout");
            out.measure(p, *clbit);
        }
        Gate::Cnot { .. } => unreachable!("CNOT routing is per-mapper"),
        Gate::Swap { .. } => unreachable!("decomposed by prepare"),
    }
}
