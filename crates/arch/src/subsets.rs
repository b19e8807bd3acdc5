//! Physical-qubit subset enumeration (Section 4.1).
//!
//! When a circuit uses `n < m` logical qubits, the exact mapper may restrict
//! itself to `n` of the `m` physical qubits and try every such subset. Only
//! *connected* subsets can host a mapping; the paper prunes subsets with
//! isolated qubits — we prune every disconnected subset, which subsumes the
//! isolation check and never discards a feasible instance (a CNOT between
//! qubits in different components could never be routed).
//!
//! Two subsets whose induced [`DeviceModel::subgraph_model`]s are
//! isomorphic pose the same exact instance up to a relabeling of physical
//! qubits, so they share one minimum. [`subset_classes`] partitions the
//! connected subsets into such classes, and the exact mapper solves one
//! representative per class (the subarchitecture argument of Peham,
//! Burgholzer & Wille, "On Optimal Subarchitectures for Quantum Circuit
//! Mapping", TQC 2023).

use std::collections::HashMap;

use crate::coupling::CouplingMap;
use crate::model::DeviceModel;

/// Enumerates all size-`size` subsets of physical qubits whose induced
/// subgraph is connected, in lexicographic order.
///
/// Returns the empty vector if `size > m`. For `size == 0` a single empty
/// subset is returned.
///
/// ```
/// use qxmap_arch::{connected_subsets, devices};
///
/// // Example 9 of the paper: of the C(5,4) = 5 subsets of QX4, only the 4
/// // containing the hub p3 (index 2) are connected.
/// let subs = connected_subsets(&devices::ibm_qx4(), 4);
/// assert_eq!(subs.len(), 4);
/// assert!(subs.iter().all(|s| s.contains(&2)));
/// ```
pub fn connected_subsets(cm: &CouplingMap, size: usize) -> Vec<Vec<usize>> {
    let m = cm.num_qubits();
    if size > m {
        return Vec::new();
    }
    if size == 0 {
        return vec![Vec::new()];
    }
    let mut out = Vec::new();
    let mut current: Vec<usize> = Vec::with_capacity(size);
    combinations(m, size, 0, &mut current, &mut |subset| {
        if cm.is_connected_subset(subset) {
            out.push(subset.to_vec());
        }
    });
    out
}

fn combinations(
    m: usize,
    size: usize,
    start: usize,
    current: &mut Vec<usize>,
    visit: &mut impl FnMut(&[usize]),
) {
    if current.len() == size {
        visit(current);
        return;
    }
    let needed = size - current.len();
    for q in start..=(m - needed) {
        current.push(q);
        combinations(m, size, q + 1, current, visit);
        current.pop();
    }
}

/// One isomorphism class of connected subsets (see [`subset_classes`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubsetClass {
    /// Position of the representative in [`connected_subsets`] order.
    index: usize,
    /// Every member, in lexicographic order; never empty, and the first
    /// is the representative.
    members: Vec<Vec<usize>>,
}

impl SubsetClass {
    /// Position of the representative in [`connected_subsets`] order.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Every member, in lexicographic order.
    pub fn members(&self) -> &[Vec<usize>] {
        &self.members
    }

    /// The class's lexicographically lowest member.
    pub fn representative(&self) -> &[usize] {
        &self.members[0]
    }
}

/// Partitions the connected size-`size` subsets of `model`'s device into
/// isomorphism classes of their [`DeviceModel::subgraph_model`]s.
///
/// Two subsets share a class exactly when some bijection between them
/// preserves, for every ordered pair of qubits, the directed edge, its
/// CNOT cost, its reversal surcharge and the pair's SWAP cost. A
/// calibrated dear edge therefore splits a class that the uniform paper
/// model merges. Each class's representative is its lowest member, and
/// classes are ordered by representative.
///
/// Candidates are compared by colour refinement (each qubit's colour
/// absorbs the multiset of its incident labels and neighbour colours
/// until the partition is stable), then by backtracking within the
/// colour cells; both are cheap at the ≤ 8 qubits of the exact regime.
///
/// ```
/// use qxmap_arch::{devices, subset_classes, DeviceModel};
///
/// // Example 9's four connected 4-subsets of QX4 fall into two classes.
/// let classes = subset_classes(&DeviceModel::new(devices::ibm_qx4()), 4);
/// assert_eq!(classes.len(), 2);
/// assert_eq!(classes.iter().map(|c| c.members().len()).sum::<usize>(), 4);
/// assert_eq!(classes[0].representative(), &[0, 1, 2, 3]);
/// ```
pub fn subset_classes(model: &DeviceModel, size: usize) -> Vec<SubsetClass> {
    let mut interner = HashMap::new();
    let mut classes: Vec<(SubsetClass, Labelled)> = Vec::new();
    for (index, subset) in connected_subsets(model.coupling_map(), size)
        .into_iter()
        .enumerate()
    {
        let graph = Labelled::new(model, &subset, &mut interner);
        match classes.iter_mut().find(|(_, rep)| rep.isomorphic(&graph)) {
            Some((class, _)) => class.members.push(subset),
            None => classes.push((
                SubsetClass {
                    index,
                    members: vec![subset],
                },
                graph,
            )),
        }
    }
    classes.into_iter().map(|(class, _)| class).collect()
}

/// What the local model says about an ordered qubit pair `(a, b)`: the
/// CNOT cost of the edge `a → b`, the reversal surcharge of executing
/// `CNOT(a, b)` against `b → a`, and the SWAP cost of the pair — each
/// `None` where the model has no such entry.
type PairLabel = (Option<u32>, Option<u32>, Option<u32>);

/// A vertex colour's refinement signature: its previous colour and the
/// sorted multiset of (neighbour colour, outgoing label, incoming label).
type Signature = (u32, Vec<(u32, PairLabel, PairLabel)>);

/// A subset's labelled local model with its stable colouring. Colours are
/// interned per [`subset_classes`] call, so they compare across subsets.
struct Labelled {
    n: usize,
    /// `labels[i * n + j]` for local qubits `i`, `j`.
    labels: Vec<PairLabel>,
    /// Stable colour of each local qubit.
    colours: Vec<u32>,
    /// The colours, sorted: equal for isomorphic subsets.
    histogram: Vec<u32>,
}

impl Labelled {
    fn new(model: &DeviceModel, subset: &[usize], interner: &mut HashMap<Signature, u32>) -> Self {
        let n = subset.len();
        let labels = subset
            .iter()
            .flat_map(|&a| {
                subset.iter().map(move |&b| {
                    (
                        model.cnot_cost(a, b),
                        model.reversal_cost(a, b),
                        model.swap_cost(a, b),
                    )
                })
            })
            .collect();
        let mut graph = Labelled {
            n,
            labels,
            colours: vec![0; n],
            histogram: Vec::new(),
        };
        graph.refine(interner);
        graph.histogram = graph.colours.clone();
        graph.histogram.sort_unstable();
        graph
    }

    fn label(&self, i: usize, j: usize) -> PairLabel {
        self.labels[i * self.n + j]
    }

    /// Colour refinement to the stable partition. The first round splits
    /// qubits by in/out degree and incident costs; later rounds by the
    /// colours of their neighbourhoods.
    fn refine(&mut self, interner: &mut HashMap<Signature, u32>) {
        let mut cells = 1;
        loop {
            let next: Vec<u32> = (0..self.n)
                .map(|v| {
                    let mut incident: Vec<_> = (0..self.n)
                        .filter(|&w| w != v)
                        .map(|w| (self.colours[w], self.label(v, w), self.label(w, v)))
                        .collect();
                    incident.sort_unstable();
                    let fresh = interner.len() as u32;
                    *interner.entry((self.colours[v], incident)).or_insert(fresh)
                })
                .collect();
            let mut distinct = next.clone();
            distinct.sort_unstable();
            distinct.dedup();
            self.colours = next;
            if distinct.len() == cells {
                return;
            }
            cells = distinct.len();
        }
    }

    /// Whether a colour-preserving bijection maps every pair label of
    /// `self` onto `other`'s.
    fn isomorphic(&self, other: &Labelled) -> bool {
        if self.histogram != other.histogram {
            return false;
        }
        // Place qubits from the smallest colour cells first: singletons
        // are forced, so the search branches as late as possible.
        let cell_size = |c: u32| self.colours.iter().filter(|&&x| x == c).count();
        let mut order: Vec<usize> = (0..self.n).collect();
        order.sort_by_key(|&v| (cell_size(self.colours[v]), v));
        let mut image = vec![usize::MAX; self.n];
        let mut used = vec![false; self.n];
        self.extend(other, &order, 0, &mut image, &mut used)
    }

    /// Backtracking step: maps `order[placed]` to an unused qubit of
    /// `other` with the same colour whose labels agree with every pair
    /// already mapped.
    fn extend(
        &self,
        other: &Labelled,
        order: &[usize],
        placed: usize,
        image: &mut [usize],
        used: &mut [bool],
    ) -> bool {
        let Some(&v) = order.get(placed) else {
            return true;
        };
        for w in 0..self.n {
            if used[w] || other.colours[w] != self.colours[v] {
                continue;
            }
            let consistent = order[..placed].iter().all(|&u| {
                self.label(v, u) == other.label(w, image[u])
                    && self.label(u, v) == other.label(image[u], w)
            });
            if consistent {
                image[v] = w;
                used[w] = true;
                if self.extend(other, order, placed + 1, image, used) {
                    return true;
                }
                used[w] = false;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::devices;

    #[test]
    fn full_size_subset_is_whole_device() {
        let cm = devices::ibm_qx4();
        let subs = connected_subsets(&cm, 5);
        assert_eq!(subs, vec![vec![0, 1, 2, 3, 4]]);
    }

    #[test]
    fn qx4_three_subsets() {
        // Connected 3-subsets of QX4: the triangles {0,1,2} and {2,3,4},
        // and the four paths through the hub p3 = 2. Every one contains
        // 2: the only edge avoiding it is 0-1, and 3 and 4 reach 0 and 1
        // only through 2.
        let subs = connected_subsets(&devices::ibm_qx4(), 3);
        assert_eq!(
            subs,
            vec![
                vec![0, 1, 2],
                vec![0, 2, 3],
                vec![0, 2, 4],
                vec![1, 2, 3],
                vec![1, 2, 4],
                vec![2, 3, 4],
            ]
        );
    }

    #[test]
    fn oversized_requests_are_empty() {
        assert!(connected_subsets(&devices::ibm_qx4(), 6).is_empty());
    }

    #[test]
    fn zero_size_is_single_empty_subset() {
        assert_eq!(
            connected_subsets(&devices::ibm_qx4(), 0),
            vec![Vec::<usize>::new()]
        );
    }

    #[test]
    fn singletons_are_all_connected() {
        let subs = connected_subsets(&devices::ibm_qx4(), 1);
        assert_eq!(subs.len(), 5);
    }

    #[test]
    fn line_subsets_are_intervals() {
        let cm = devices::linear(5);
        let subs = connected_subsets(&cm, 3);
        assert_eq!(subs, vec![vec![0, 1, 2], vec![1, 2, 3], vec![2, 3, 4]]);
    }

    /// (subsets, classes) per size, under the default and the paper model.
    fn class_counts(cm: &CouplingMap, sizes: &[usize]) -> Vec<(usize, usize)> {
        let counts = |model: &DeviceModel| {
            sizes
                .iter()
                .map(|&n| {
                    let classes = subset_classes(model, n);
                    let members = classes.iter().map(|c| c.members.len()).sum();
                    (members, classes.len())
                })
                .collect::<Vec<_>>()
        };
        let default = counts(&DeviceModel::new(cm.clone()));
        assert_eq!(default, counts(&DeviceModel::paper(cm.clone())));
        default
    }

    #[test]
    fn pinned_class_counts() {
        // QX4: the two transitive triangles are one class, the four
        // directed paths through the hub another (6 -> 2); each 4-subset
        // is a triangle plus a pendant edge at its source or its sink
        // (4 -> 2).
        assert_eq!(class_counts(&devices::ibm_qx4(), &[3, 4]), [(6, 2), (4, 2)]);
        // Every interval of a uniformly priced line is the same line.
        let heavy_hex = devices::by_name("heavy-hex-1").expect("a generated device");
        assert_eq!(
            class_counts(&heavy_hex, &[3, 4, 5]),
            [(5, 1), (4, 1), (3, 1)]
        );
        assert_eq!(
            class_counts(&devices::linear(8), &[3, 4, 5]),
            [(6, 1), (5, 1), (4, 1)]
        );
    }

    #[test]
    fn qx4_classes_are_ordered_by_lowest_member() {
        let classes = subset_classes(&DeviceModel::new(devices::ibm_qx4()), 3);
        assert_eq!(classes[0].index, 0);
        assert_eq!(classes[0].members, [vec![0, 1, 2], vec![2, 3, 4]]);
        assert_eq!(classes[1].index, 1);
        assert_eq!(
            classes[1].members,
            [vec![0, 2, 3], vec![0, 2, 4], vec![1, 2, 3], vec![1, 2, 4]]
        );
    }

    #[test]
    fn one_dear_edge_splits_the_line_class() {
        // The edge 3 -> 4 is second on [2, 3, 4] and first on [3, 4, 5]:
        // a directed path has no symmetry, so each becomes its own class.
        let line = DeviceModel::new(devices::linear(8));
        for dear in [
            line.clone().with_swap_cost(3, 4, 21),
            line.clone().with_cnot_cost(3, 4, 5),
        ] {
            let classes = subset_classes(&dear, 3);
            assert_eq!(classes.len(), 3);
            assert_eq!(classes[0].members.len(), 4);
            assert_eq!(classes[1].members, [vec![2, 3, 4]]);
            assert_eq!(classes[2].members, [vec![3, 4, 5]]);
            assert_eq!((classes[1].index, classes[2].index), (2, 3));
        }
    }

    #[test]
    fn backtracking_separates_what_refinement_cannot() {
        // Two of these 6-subsets induce the triangular prism and one
        // induces K3,3. Both are 3-regular, so colour refinement leaves
        // each a single cell and only the search within cells tells the
        // two shapes apart.
        let edges = [
            (0, 2),
            (0, 4),
            (0, 5),
            (0, 7),
            (1, 4),
            (1, 5),
            (1, 6),
            (1, 7),
            (2, 3),
            (2, 4),
            (2, 6),
            (3, 4),
            (3, 5),
            (3, 7),
            (6, 7),
        ];
        let cm = CouplingMap::from_edges(8, edges.iter().flat_map(|&(a, b)| [(a, b), (b, a)]))
            .expect("a valid edge list");
        let classes = subset_classes(&DeviceModel::new(cm), 6);
        let class_of = |subset: &[usize]| {
            classes
                .iter()
                .position(|c| c.members.iter().any(|m| m == subset))
                .expect("a connected subset")
        };
        let prism = class_of(&[0, 1, 2, 4, 6, 7]);
        assert_eq!(prism, class_of(&[1, 2, 3, 4, 6, 7]));
        assert_ne!(prism, class_of(&[0, 1, 3, 4, 5, 7]));
    }

    #[test]
    fn counts_match_paper_example8() {
        // Example 8/9: C(5,4)=5 subsets, 4 connected ones on QX4.
        let subs = connected_subsets(&devices::ibm_qx4(), 4);
        assert_eq!(subs.len(), 4);
    }
}
