//! Property-based tests for permutation algebra, swap tables and layouts.

use proptest::prelude::*;
use proptest::test_runner::TestRng;
use qxmap_arch::{
    connected_subsets, devices, subset_classes, CouplingMap, DeviceModel, Layout, Permutation,
    SwapTable,
};

fn permutation_strategy(n: usize) -> impl Strategy<Value = Permutation> {
    Just(()).prop_perturb(move |_, mut rng| {
        let mut image: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = (rng.next_u64() % (i as u64 + 1)) as usize;
            image.swap(i, j);
        }
        Permutation::from_image(image)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Group axioms: associativity, inverse, identity.
    #[test]
    fn permutation_group_axioms(
        a in permutation_strategy(6),
        b in permutation_strategy(6),
        c in permutation_strategy(6),
    ) {
        prop_assert_eq!(a.compose(&b).compose(&c), a.compose(&b.compose(&c)));
        prop_assert!(a.compose(&a.inverse()).is_identity());
        let id = Permutation::identity(6);
        prop_assert_eq!(a.compose(&id), a.clone());
        prop_assert_eq!(id.compose(&a), a.clone());
    }

    /// `min_transpositions` is invariant under inversion and zero iff id.
    #[test]
    fn transposition_count_invariants(a in permutation_strategy(7)) {
        prop_assert_eq!(a.min_transpositions(), a.inverse().min_transpositions());
        prop_assert_eq!(a.min_transpositions() == 0, a.is_identity());
        prop_assert!(a.min_transpositions() < 7);
    }

    /// swaps(π) on QX4: symmetric under inversion, triangle inequality
    /// under composition, witness length equals the reported distance.
    #[test]
    fn swap_table_metric_properties(
        a in permutation_strategy(5),
        b in permutation_strategy(5),
    ) {
        let table = SwapTable::new(&devices::ibm_qx4());
        let da = table.swaps(&a).expect("QX4 is connected");
        let db = table.swaps(&b).expect("connected");
        let dainv = table.swaps(&a.inverse()).expect("connected");
        prop_assert_eq!(da, dainv, "swaps(π) must equal swaps(π⁻¹)");
        let dab = table.swaps(&a.compose(&b)).expect("connected");
        prop_assert!(dab <= da + db, "triangle inequality violated");
        prop_assert_eq!(table.sequence(&a).unwrap().len() as u32, da);
        // Lower bound from free (non-adjacent) transpositions.
        prop_assert!(da as usize >= a.min_transpositions());
    }

    /// Layout ↔ permutation round trip.
    #[test]
    fn layout_permutation_roundtrip(pi in permutation_strategy(5)) {
        let mut layout = Layout::identity(5, 5);
        layout.apply_permutation(&pi);
        let recovered = Layout::identity(5, 5).permutation_to(&layout).expect("same logical set");
        prop_assert_eq!(recovered, pi);
    }

    /// Applying the witness SWAP sequence to a layout lands exactly on the
    /// permuted layout.
    #[test]
    fn witness_sequences_move_layouts(pi in permutation_strategy(5)) {
        let cm = devices::ibm_qx4();
        let table = SwapTable::new(&cm);
        let seq = table.sequence(&pi).expect("connected").to_vec();
        let mut via_swaps = Layout::identity(5, 5);
        for (a, b) in seq {
            prop_assert!(cm.connected_either(a, b), "witness must use edges");
            via_swaps.swap_phys(a, b);
        }
        let mut via_perm = Layout::identity(5, 5);
        via_perm.apply_permutation(&pi);
        prop_assert_eq!(via_swaps, via_perm);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Connected subsets really are connected, and the count matches a
    /// brute-force check on random graphs.
    #[test]
    fn connected_subsets_are_sound_and_complete(
        edges in prop::collection::vec((0usize..7, 0usize..7), 0..12),
        size in 1usize..4,
    ) {
        let cm = CouplingMap::from_edges(
            7,
            edges.into_iter().filter(|(a, b)| a != b),
        ).expect("filtered self-loops");
        let subs = connected_subsets(&cm, size);
        for s in &subs {
            prop_assert!(cm.is_connected_subset(s), "{s:?} not connected");
        }
        // Completeness: bitmask enumeration finds the same count.
        let mut count = 0usize;
        for mask in 0u32..(1 << 7) {
            if mask.count_ones() as usize != size {
                continue;
            }
            let subset: Vec<usize> = (0..7).filter(|i| mask & (1 << i) != 0).collect();
            if cm.is_connected_subset(&subset) {
                count += 1;
            }
        }
        prop_assert_eq!(subs.len(), count);
    }

    /// Distance matrices are symmetric metrics on connected devices.
    #[test]
    fn distance_matrix_is_a_metric(seed in 0u64..1000) {
        let cm = match seed % 4 {
            0 => devices::ibm_qx4(),
            1 => devices::ibm_qx5(),
            2 => devices::linear(8),
            _ => devices::grid(3, 3),
        };
        let d = cm.distance_matrix();
        let m = cm.num_qubits();
        for a in 0..m {
            prop_assert_eq!(d[a][a], 0);
            for b in 0..m {
                prop_assert_eq!(d[a][b], d[b][a]);
                for c in 0..m {
                    prop_assert!(d[a][c] <= d[a][b] + d[b][c]);
                }
            }
        }
    }
}

/// A random connected device on 2..=6 qubits (a random spanning tree plus
/// extra couplings, each one-way or both ways) under the default or the
/// paper model, with a few SWAP, CNOT and reversal calibrations drawn
/// from small value sets so that equal labels recur.
fn calibrated_device_strategy() -> impl Strategy<Value = DeviceModel> {
    Just(()).prop_perturb(|_, mut rng| {
        let m = 2 + rng.index(5);
        fn couple(cm: &mut CouplingMap, a: usize, b: usize, rng: &mut TestRng) {
            let way = rng.index(3);
            if way != 1 {
                cm.add_edge(a, b).expect("distinct in-range qubits");
            }
            if way != 0 {
                cm.add_edge(b, a).expect("distinct in-range qubits");
            }
        }
        let mut cm = CouplingMap::new(m);
        for v in 1..m {
            let u = rng.index(v);
            couple(&mut cm, u, v, &mut rng);
        }
        for a in 0..m {
            for b in a + 1..m {
                if !cm.connected_either(a, b) && rng.index(4) == 0 {
                    couple(&mut cm, a, b, &mut rng);
                }
            }
        }
        let mut model = if rng.index(2) == 0 {
            DeviceModel::new(cm.clone())
        } else {
            DeviceModel::paper(cm.clone())
        };
        for (a, b) in cm.undirected_edges() {
            if rng.index(3) == 0 {
                model = model.with_swap_cost(a, b, [2, 9][rng.index(2)]);
            }
        }
        let edges: Vec<(usize, usize)> = cm.edges().collect();
        for (c, t) in edges {
            if rng.index(4) == 0 {
                model = model.with_cnot_cost(c, t, [2, 3][rng.index(2)]);
            }
            if !cm.has_edge(t, c) && rng.index(4) == 0 {
                model = model.with_reversal_cost(t, c, [2, 6][rng.index(2)]);
            }
        }
        model
    })
}

/// Brute-force canonical form of a labelled local model: the least, over
/// all relabelings, of its row-major table of (CNOT, reversal, SWAP)
/// costs per ordered qubit pair.
fn brute_canonical_form(local: &DeviceModel) -> Vec<(Option<u32>, Option<u32>, Option<u32>)> {
    fn permutations(prefix: &mut Vec<usize>, n: usize, visit: &mut impl FnMut(&[usize])) {
        if prefix.len() == n {
            visit(prefix);
            return;
        }
        for q in 0..n {
            if !prefix.contains(&q) {
                prefix.push(q);
                permutations(prefix, n, visit);
                prefix.pop();
            }
        }
    }
    let n = local.num_qubits();
    let mut best = None;
    permutations(&mut Vec::new(), n, &mut |relabel| {
        let form: Vec<_> = relabel
            .iter()
            .flat_map(|&a| {
                relabel.iter().map(move |&b| {
                    (
                        local.cnot_cost(a, b),
                        local.reversal_cost(a, b),
                        local.swap_cost(a, b),
                    )
                })
            })
            .collect();
        if best.as_ref().is_none_or(|b| form < *b) {
            best = Some(form);
        }
    });
    best.expect("at least the identity relabeling")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `subset_classes` partitions exactly as brute-force canonical forms
    /// of the subgraph models do, with each class's lowest member as its
    /// representative and classes in representative order.
    #[test]
    fn subset_classes_match_brute_force_canonical_forms(model in calibrated_device_strategy()) {
        for size in 1..=model.num_qubits() {
            let subsets = connected_subsets(model.coupling_map(), size);
            let mut expected: Vec<(Vec<_>, usize, Vec<Vec<usize>>)> = Vec::new();
            for (index, subset) in subsets.iter().enumerate() {
                let form = brute_canonical_form(&model.subgraph_model(subset));
                match expected.iter_mut().find(|(f, ..)| *f == form) {
                    Some((_, _, members)) => members.push(subset.clone()),
                    None => expected.push((form, index, vec![subset.clone()])),
                }
            }
            let classes = subset_classes(&model, size);
            prop_assert_eq!(classes.len(), expected.len(), "size {} on {}", size, model);
            for (class, (_, index, members)) in classes.iter().zip(&expected) {
                prop_assert_eq!(class.index(), *index);
                prop_assert_eq!(class.members(), &members[..]);
                prop_assert_eq!(class.representative(), &subsets[*index][..]);
            }
        }
    }
}
