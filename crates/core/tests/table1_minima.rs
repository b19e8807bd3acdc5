//! The proved Table 1 minima on IBM QX4, the paper's device: the
//! unrestricted exact mapper must reach them, certify them and return a
//! mapping that checks out.

use qxmap_arch::devices;
use qxmap_benchmarks::{circuit_for, profiles::by_name};
use qxmap_core::{verify, ExactMapper, MapperConfig};

#[test]
fn proved_table1_minima_on_qx4() {
    let cm = devices::ibm_qx4();
    let mapper = ExactMapper::with_config(cm.clone(), MapperConfig::minimal());
    for (name, min_c) in [("3_17_13", 60), ("ex-1_166", 30), ("ham3_102", 31)] {
        let profile = by_name(name).expect("a Table 1 row");
        let circuit = circuit_for(&profile);
        let result = mapper.map(&circuit).expect("mappable");
        assert!(result.proved_optimal, "{name}: minimum not proved");
        assert_eq!(result.mapped.original_cost(), min_c, "{name}: min c");
        assert_eq!(
            circuit.original_cost() + result.cost as usize,
            min_c,
            "{name}: F is the added cost"
        );
        verify::check_result(&circuit, &result, &cm).expect("the mapping verifies");
    }
}
