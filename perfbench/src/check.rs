//! Output verification. Library reports go through `MapReport::verify`;
//! daemon answers are re-parsed from their `mapped_qasm` and checked on
//! the client side. Where the simulator can afford it, the mapped
//! circuit is also compared with the *unmapped input* by state-vector
//! simulation, so the reference is the simulator and not the mapper.

use qxmap_arch::{CouplingMap, Layout};
use qxmap_circuit::Circuit;
use qxmap_map::MapReport;
use qxmap_serve::Json;

/// Largest simulation a check may run, in basis inputs × amplitudes ×
/// gates (within `qxmap_sim`'s own limits of 12 logical and 20 physical
/// qubits). Larger answers keep the structural checks only.
const SIM_BUDGET: u64 = 50_000_000;

/// How far the simulator got.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimCheck {
    Equivalent,
    /// Outside the simulator's limits or budget (or non-unitary input).
    Skipped,
}

fn simulate(
    original: &Circuit,
    mapped: &Circuit,
    initial: &Layout,
    fin: &Layout,
) -> Result<SimCheck, String> {
    if !initial.is_complete() || !fin.is_complete() {
        return Err("layout does not place every logical qubit".to_string());
    }
    // Physical qubits that no gate touches and no layout names stay |0>
    // in both circuits. Dropping them keeps the comparison exact and
    // brings answers on large devices within the simulator's reach.
    let mut used = vec![false; mapped.num_qubits()];
    for gate in mapped.gates() {
        for q in gate.qubits() {
            used[q] = true;
        }
    }
    for layout in [initial, fin] {
        for &p in layout.as_log2phys().iter().flatten() {
            used[p] = true;
        }
    }
    let mut index = vec![usize::MAX; used.len()];
    let mut m = 0;
    for (p, _) in used.iter().enumerate().filter(|(_, &u)| u) {
        index[p] = m;
        m += 1;
    }
    let n = original.num_qubits();
    if n > 12 || m > 20 {
        return Ok(SimCheck::Skipped);
    }
    let work = (1u64 << n)
        .saturating_mul(1u64 << m)
        .saturating_mul(mapped.gates().len() as u64);
    if work > SIM_BUDGET {
        return Ok(SimCheck::Skipped);
    }
    let compact = mapped.map_qubits(m, |p| index[p]);
    let relayout = |layout: &Layout| {
        let slots = layout
            .as_log2phys()
            .iter()
            .map(|p| p.map(|p| index[p]))
            .collect();
        Layout::from_log2phys(slots, m).map_err(|e| format!("layout: {e}"))
    };
    match qxmap_sim::mapped_equivalent(
        original,
        &compact,
        &relayout(initial)?,
        &relayout(fin)?,
        1e-6,
    ) {
        Ok(true) => Ok(SimCheck::Equivalent),
        Ok(false) => Err("simulation: mapped circuit differs from the input".to_string()),
        Err(_) => Ok(SimCheck::Skipped),
    }
}

/// A library report against the circuit and device it was asked for.
pub fn report(
    report: &MapReport,
    original: &Circuit,
    cm: &CouplingMap,
) -> Result<SimCheck, String> {
    report
        .verify(original, cm)
        .map_err(|e| format!("verify: {e}"))?;
    simulate(
        original,
        &report.mapped,
        &report.initial_layout,
        &report.final_layout,
    )
}

fn layout(value: Option<&Json>, num_phys: usize) -> Result<Layout, String> {
    let slots = value
        .and_then(Json::as_array)
        .ok_or("result carries no layout")?
        .iter()
        .map(Json::as_usize)
        .collect();
    Layout::from_log2phys(slots, num_phys).map_err(|e| format!("layout: {e}"))
}

/// A daemon `result` line: its `mapped_qasm` must parse, every CNOT must
/// sit on a coupling edge, the reported added gates must recount, and
/// (within the simulator's reach) the circuit must implement the input.
pub fn wire(result: &Json, original: &Circuit, cm: &CouplingMap) -> Result<SimCheck, String> {
    let qasm = result
        .get("mapped_qasm")
        .and_then(Json::as_str)
        .ok_or("result carries no mapped_qasm")?;
    let mapped = qxmap_qasm::parse(qasm).map_err(|e| format!("mapped_qasm: {e}"))?;
    qxmap_core::verify::check_coupling(&mapped, cm).map_err(|e| format!("verify: {e}"))?;
    let added = result
        .get("cost")
        .and_then(|c| c.get("added_gates"))
        .and_then(Json::as_u64)
        .ok_or("result carries no cost.added_gates")?;
    let input = original.decompose_swaps().original_cost() as u64;
    let recounted = (mapped.original_cost() as u64).checked_sub(input);
    if recounted != Some(added) {
        return Err(format!(
            "verify: reported {added} added gates, mapped circuit recounts to {recounted:?}"
        ));
    }
    let initial = layout(result.get("initial_layout"), mapped.num_qubits())?;
    let fin = layout(result.get("final_layout"), mapped.num_qubits())?;
    simulate(original, &mapped, &initial, &fin)
}
