//! Pins the ingest counter behind `qxmap_qasm::hooks::circuits_built`:
//! parsing to a circuit bumps it, skeleton conversion does not.
//!
//! The counter is process-wide and every parsing test bumps it, so this
//! file holds exactly one test function — sharing a test binary with
//! parallel parsing tests would blur the deltas.

#[test]
fn parsing_bumps_the_counter_and_skeletons_do_not() {
    let src = "OPENQASM 2.0;\nqreg q[2];\nCX q[0], q[1];";
    let before = qxmap_qasm::hooks::circuits_built();
    let program = qxmap_qasm::parse_program(src).unwrap();
    qxmap_qasm::to_skeleton(&program).unwrap();
    assert_eq!(
        qxmap_qasm::hooks::circuits_built(),
        before,
        "skeleton conversion must not count as a circuit build"
    );
    qxmap_qasm::parse(src).unwrap();
    assert!(qxmap_qasm::hooks::circuits_built() > before);
}
