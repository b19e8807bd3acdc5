//! Solving one representative per subset isomorphism class loses nothing:
//! on Table 1 rows, the subset-restricted exact mapper reaches the minimum
//! over solving every connected subset on its own, proves it, and returns
//! a mapping that checks out — under the default model and under a model
//! with one dear edge, which splits classes the default model merges.

use qxmap_arch::{connected_subsets, devices, subset_classes, DeviceModel};
use qxmap_benchmarks::{circuit_for, profiles::by_name};
use qxmap_core::{verify, ExactMapper, MapperConfig};

/// QX4 and linear-5, each under its default model and with one coupling
/// made dear in both its CNOT and its SWAP cost.
fn models() -> Vec<(&'static str, DeviceModel)> {
    let qx4 = DeviceModel::new(devices::ibm_qx4());
    let line = DeviceModel::new(devices::linear(5));
    vec![
        ("qx4", qx4.clone()),
        (
            "qx4 dear p4-p3",
            qx4.with_cnot_cost(3, 2, 4).with_swap_cost(3, 2, 15),
        ),
        ("linear-5", line.clone()),
        (
            "linear-5 dear 1-2",
            line.with_cnot_cost(1, 2, 4).with_swap_cost(1, 2, 15),
        ),
    ]
}

#[test]
fn class_representatives_reach_the_all_subsets_minimum() {
    for (device, model) in models() {
        for row in ["ex-1_166", "ham3_102", "4gt11_84"] {
            let circuit = circuit_for(&by_name(row).expect("a Table 1 row"));
            let n = circuit.num_qubits();
            let oracle = connected_subsets(model.coupling_map(), n)
                .iter()
                .map(|subset| {
                    let local = ExactMapper::for_model(
                        model.subgraph_model(subset),
                        MapperConfig::minimal(),
                    )
                    .map(&circuit)
                    .expect("a connected subset hosts the circuit");
                    assert!(local.proved_optimal, "{row} on {device} {subset:?}");
                    local.cost
                })
                .min()
                .expect("the device has connected subsets");

            let mapper =
                ExactMapper::for_model(model.clone(), MapperConfig::minimal().with_subsets(true));
            let result = mapper.map(&circuit).expect("mappable");
            assert_eq!(result.cost, oracle, "{row} on {device}");
            assert!(result.proved_optimal, "{row} on {device}: no proof");
            assert!(
                subset_classes(&model, n)
                    .iter()
                    .any(|class| class.representative() == result.subset),
                "{row} on {device}: {:?} is no class representative",
                result.subset
            );
            verify::check_result(&circuit, &result, model.coupling_map())
                .expect("the mapping verifies");
        }
    }
}

#[test]
fn the_dear_edge_splits_classes() {
    for pair in models().chunks(2) {
        let [(device, default), (_, dear)] = pair else {
            panic!("models come in (default, dear) pairs");
        };
        for n in [3, 4] {
            assert!(
                subset_classes(dear, n).len() > subset_classes(default, n).len(),
                "{device}, n = {n}"
            );
        }
    }
}
