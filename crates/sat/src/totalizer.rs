//! Generalized totalizer encoding for weighted sums.
//!
//! Encodes the objective `F = Σ wᵢ·ℓᵢ` (Eq. 5 of the paper) into CNF as a
//! balanced merge tree. Each tree node carries the set of *attainable*
//! partial sums, one fresh output literal per sum with the semantics
//! "the partial sum is **at least** this value". Sums above a `cap` are
//! clamped to the cap, keeping the encoding small when only bounds below
//! the cap will ever be queried.
//!
//! The leaves follow the [`Objective`]'s structure. An independent term is
//! a leaf whose one output is the term's own literal. An at-most-one
//! group — at most one of its literals is true, as with the permutation
//! selectors of one change point — is a *grouped leaf*: the group's sum
//! is the weight of its one true term, so the leaf gets one fresh output
//! `o_w` per distinct clamped weight, a clause `ℓ → o_{w(ℓ)}` per term, and
//! the ordering clauses. A change point's 119 non-identity selectors on a
//! 5-qubit device thus enter the tree as one leaf with a handful of
//! outputs (one per SWAP-cost level) instead of 119 leaves whose merges
//! would enumerate sums of several selectors that can never hold
//! together (Joshi, Martins & Manquinho, CP 2015; Bofill et al.,
//! CPAIOR 2019).
//!
//! The root's output literals let a caller bound the objective
//! *incrementally*: `F ≤ B` is the single assumption `¬(first output
//! literal with weight > B)`, thanks to the ordering clauses
//! `o_{w₊} → o_{w₋}` added at every node.

use crate::lit::Lit;
use crate::optimize::Objective;
use crate::solver::Solver;

/// The root outputs of an encoded weighted sum.
#[derive(Debug, Clone)]
pub struct Totalizer {
    /// `(w, o_w)` sorted ascending by `w`; `o_w` means "sum ≥ w".
    outputs: Vec<(u64, Lit)>,
    cap: u64,
}

impl Totalizer {
    /// Encodes `objective` into `solver`, one leaf per independent term
    /// and per at-most-one group, clamping attainable sums at `cap`.
    ///
    /// Zero-weight terms are ignored. With no (non-trivial) terms the sum
    /// is constantly 0 and there are no outputs.
    ///
    /// # Panics
    ///
    /// Panics if `cap == 0`.
    pub fn encode(solver: &mut Solver, objective: &Objective, cap: u64) -> Totalizer {
        Totalizer::encode_impl(solver, objective, cap, false)
            .expect("uninterruptible encoding always completes")
    }

    /// [`Totalizer::encode`] with cooperative interruption: the solver's
    /// own stop state ([`Solver::stop_requested`] — its interrupt flag,
    /// deadline, and shared conflict pool) is polled between merge nodes,
    /// and `None` is returned when it fires. A large objective found just
    /// before a deadline therefore cannot overshoot it while encoding; the
    /// caller keeps the model it has, honestly unproved.
    ///
    /// Clauses added before the interruption stay in the solver; they are
    /// sound (pure implications over fresh literals) and harmless without
    /// the bound assumptions that would have used them.
    ///
    /// # Panics
    ///
    /// Panics if `cap == 0`.
    pub fn encode_interruptible(
        solver: &mut Solver,
        objective: &Objective,
        cap: u64,
    ) -> Option<Totalizer> {
        Totalizer::encode_impl(solver, objective, cap, true)
    }

    fn encode_impl(
        solver: &mut Solver,
        objective: &Objective,
        cap: u64,
        interruptible: bool,
    ) -> Option<Totalizer> {
        assert!(cap > 0, "cap must be positive");
        let terms = objective.terms();
        let mut groups = objective.groups().iter().peekable();
        let mut leaves: Vec<Vec<(u64, Lit)>> = Vec::new();
        let mut i = 0;
        while i < terms.len() {
            let range = groups
                .next_if(|g| g.start == i)
                .cloned()
                .unwrap_or(i..i + 1);
            i = range.end;
            let leaf = leaf(solver, &terms[range], cap);
            if !leaf.is_empty() {
                leaves.push(leaf);
            }
        }
        if leaves.is_empty() {
            return Some(Totalizer {
                outputs: Vec::new(),
                cap,
            });
        }
        // Balanced bottom-up merge. The per-node work is bounded by the
        // cap-clamped sum count, so the per-merge stop check bounds the
        // overshoot to one node's clauses.
        while leaves.len() > 1 {
            let mut next = Vec::with_capacity(leaves.len().div_ceil(2));
            let mut it = leaves.into_iter();
            while let Some(a) = it.next() {
                match it.next() {
                    Some(b) => {
                        if interruptible && solver.stop_requested() {
                            return None;
                        }
                        next.push(merge(solver, &a, &b, cap));
                    }
                    None => next.push(a),
                }
            }
            leaves = next;
        }
        Some(Totalizer {
            outputs: leaves.pop().expect("one root remains"),
            cap,
        })
    }

    /// The literal to *refute* in order to assert `sum ≤ bound`:
    /// the output literal of the smallest attainable sum exceeding `bound`.
    /// Returns `None` if no attainable sum exceeds `bound` (the constraint
    /// is vacuous).
    ///
    /// # Panics
    ///
    /// Panics if `bound >= cap` would make the clamped encoding unsound —
    /// i.e. `bound` must be `< cap`.
    pub fn bound_literal(&self, bound: u64) -> Option<Lit> {
        assert!(
            bound < self.cap,
            "bound {bound} not representable under cap {}",
            self.cap
        );
        self.outputs
            .iter()
            .find(|(w, _)| *w > bound)
            .map(|&(_, l)| l)
    }

    /// All `(w, o_w)` outputs, ascending.
    pub fn outputs(&self) -> &[(u64, Lit)] {
        &self.outputs
    }

    /// The clamp value used at encoding time.
    pub fn cap(&self) -> u64 {
        self.cap
    }
}

/// The leaf of terms of which at most one is true: its outputs are the
/// distinct clamped weights, each implied by the terms of that weight. A
/// lone term is its own output, with no fresh literal.
fn leaf(solver: &mut Solver, terms: &[(u64, Lit)], cap: u64) -> Vec<(u64, Lit)> {
    let mut live: Vec<(u64, Lit)> = terms
        .iter()
        .filter(|(w, _)| *w > 0)
        .map(|&(w, l)| (w.min(cap), l))
        .collect();
    if live.len() <= 1 {
        return live;
    }
    live.sort_unstable_by_key(|&(w, _)| w);
    let mut out: Vec<(u64, Lit)> = Vec::new();
    for (w, l) in live {
        let o = match out.last() {
            Some(&(last, o)) if last == w => o,
            _ => {
                let o = solver.new_lit();
                out.push((w, o));
                o
            }
        };
        solver.add_clause([!l, o]);
    }
    // Ordering: sum ≥ w₊ implies sum ≥ w₋.
    for pair in out.windows(2) {
        solver.add_clause([!pair[1].1, pair[0].1]);
    }
    out
}

/// Merges two children, producing the parent's `(sum, literal)` list with
/// implication clauses:
/// `a_w → o_w`, `b_w → o_w`, `a_u ∧ b_v → o_{min(u+v, cap)}`, plus ordering
/// clauses `o_{wᵢ₊₁} → o_{wᵢ}`.
fn merge(solver: &mut Solver, a: &[(u64, Lit)], b: &[(u64, Lit)], cap: u64) -> Vec<(u64, Lit)> {
    use std::collections::BTreeMap;
    let mut sums: BTreeMap<u64, Lit> = BTreeMap::new();
    let fresh = |solver: &mut Solver, sums: &mut BTreeMap<u64, Lit>, w: u64| -> Lit {
        *sums.entry(w).or_insert_with(|| solver.new_lit())
    };
    // Collect all attainable sums first.
    let mut wanted: Vec<u64> = Vec::new();
    for &(u, _) in a {
        wanted.push(u.min(cap));
    }
    for &(v, _) in b {
        wanted.push(v.min(cap));
    }
    for &(u, _) in a {
        for &(v, _) in b {
            wanted.push((u + v).min(cap));
        }
    }
    wanted.sort_unstable();
    wanted.dedup();
    for w in wanted {
        let _ = fresh(solver, &mut sums, w);
    }
    // Implications.
    for &(u, la) in a {
        let o = sums[&u.min(cap)];
        solver.add_clause([!la, o]);
    }
    for &(v, lb) in b {
        let o = sums[&v.min(cap)];
        solver.add_clause([!lb, o]);
    }
    for &(u, la) in a {
        for &(v, lb) in b {
            let o = sums[&(u + v).min(cap)];
            solver.add_clause([!la, !lb, o]);
        }
    }
    let out: Vec<(u64, Lit)> = sums.into_iter().collect();
    // Ordering: sum ≥ w₊ implies sum ≥ w₋.
    for pair in out.windows(2) {
        solver.add_clause([!pair[1].1, pair[0].1]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::SolveResult;

    fn lits(s: &mut Solver, n: usize) -> Vec<Lit> {
        (0..n).map(|_| s.new_lit()).collect()
    }

    /// Exhaustively verify: for every assignment of the term literals, the
    /// formula with assumption `sum ≤ bound` is satisfiable extending that
    /// assignment iff the true weighted sum is ≤ bound. Each `(start, end)`
    /// group in `groups` is made at-most-one by hard clauses, and
    /// assignments that break one must be unsatisfiable whatever the bound.
    fn check_bounds_exhaustively(weights: &[u64], groups: &[(usize, usize)]) {
        let groups: Vec<std::ops::Range<usize>> = groups.iter().map(|&(a, b)| a..b).collect();
        let cap: u64 = weights.iter().sum::<u64>() + 1;
        for bound in 0..weights.iter().sum::<u64>() {
            let mut s = Solver::new();
            let v = lits(&mut s, weights.len());
            let mut objective = Objective::new();
            let mut i = 0;
            for g in &groups {
                for j in i..g.start {
                    objective.push(weights[j], v[j]);
                }
                crate::encode::at_most_one(&mut s, &v[g.clone()]);
                objective.push_group(g.clone().map(|j| (weights[j], v[j])));
                i = g.end;
            }
            for j in i..weights.len() {
                objective.push(weights[j], v[j]);
            }
            assert_eq!(objective.groups(), groups);
            let tot = Totalizer::encode(&mut s, &objective, cap);
            let bound_lit = tot.bound_literal(bound);
            for mask in 0..(1u32 << weights.len()) {
                let mut assumptions: Vec<Lit> = (0..weights.len())
                    .map(|i| if mask & (1 << i) != 0 { v[i] } else { !v[i] })
                    .collect();
                if let Some(bl) = bound_lit {
                    assumptions.push(!bl);
                }
                let sum: u64 = (0..weights.len())
                    .filter(|i| mask & (1 << i) != 0)
                    .map(|i| weights[i])
                    .sum();
                let feasible = groups
                    .iter()
                    .all(|g| g.clone().filter(|i| mask & (1 << i) != 0).count() <= 1);
                let res = s.solve_with_assumptions(&assumptions);
                if feasible && sum <= bound {
                    assert!(
                        res.is_sat(),
                        "weights={weights:?} mask={mask:b} bound={bound}"
                    );
                } else {
                    assert_eq!(
                        res,
                        SolveResult::Unsat,
                        "weights={weights:?} mask={mask:b} bound={bound}"
                    );
                }
            }
        }
    }

    #[test]
    fn unit_weights_behave_like_cardinality() {
        check_bounds_exhaustively(&[1, 1, 1, 1], &[]);
    }

    #[test]
    fn paper_weights_seven_and_four() {
        // The actual weight profile of Eq. 5: multiples of 7 plus 4s.
        check_bounds_exhaustively(&[7, 7, 14, 4, 4], &[]);
    }

    #[test]
    fn mixed_weights() {
        check_bounds_exhaustively(&[3, 5, 2], &[]);
        check_bounds_exhaustively(&[10, 1, 1, 1], &[]);
    }

    #[test]
    fn zero_weight_terms_are_ignored() {
        let mut s = Solver::new();
        let v = lits(&mut s, 2);
        let tot = Totalizer::encode(&mut s, &vec![(0, v[0]), (5, v[1])].into(), 10);
        assert_eq!(tot.outputs().len(), 1);
    }

    #[test]
    fn empty_objective_has_no_outputs() {
        let mut s = Solver::new();
        let tot = Totalizer::encode(&mut s, &Objective::new(), 10);
        assert!(tot.outputs().is_empty());
        assert_eq!(tot.bound_literal(3), None);
        assert_eq!(tot.cap(), 10);
    }

    #[test]
    fn cap_clamps_large_sums() {
        let mut s = Solver::new();
        let v = lits(&mut s, 3);
        let terms = Objective::from(vec![(100u64, v[0]), (100, v[1]), (100, v[2])]);
        let tot = Totalizer::encode(&mut s, &terms, 150);
        // Attainable clamped sums: 100, 150.
        let ws: Vec<u64> = tot.outputs().iter().map(|(w, _)| *w).collect();
        assert_eq!(ws, vec![100, 150]);
        // Bound 99 refutes "≥ 100": no term may be true.
        let bl = tot.bound_literal(99).unwrap();
        let m = s.solve_with_assumptions(&[!bl]).model().cloned().unwrap();
        assert!(!m.value(v[0]) && !m.value(v[1]) && !m.value(v[2]));
    }

    #[test]
    #[should_panic(expected = "not representable")]
    fn bound_at_or_above_cap_panics() {
        let mut s = Solver::new();
        let v = s.new_lit();
        let tot = Totalizer::encode(&mut s, &vec![(5, v)].into(), 6);
        let _ = tot.bound_literal(6);
    }

    #[test]
    fn interrupted_encoding_returns_none_and_plain_encode_ignores_stops() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;

        let mut s = Solver::new();
        let v = lits(&mut s, 4);
        let terms = Objective::from(v.iter().map(|&l| (1, l)).collect::<Vec<_>>());
        let flag = Arc::new(AtomicBool::new(true));
        s.set_interrupt(Some(flag.clone()));
        assert!(s.stop_requested());
        // The interruptible form winds down at the first merge node...
        assert!(Totalizer::encode_interruptible(&mut s, &terms, 5).is_none());
        // ... the plain form completes regardless (it promises a result).
        let tot = Totalizer::encode(&mut s, &terms, 5);
        assert_eq!(tot.outputs().len(), 4);
        // With the flag cleared, the interruptible form completes too.
        flag.store(false, std::sync::atomic::Ordering::Relaxed);
        let tot = Totalizer::encode_interruptible(&mut s, &terms, 5).expect("not stopped");
        assert_eq!(tot.outputs().len(), 4);
    }

    #[test]
    fn single_term_encoding_survives_interruption() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;

        // One leaf means no merge: nothing to interrupt.
        let mut s = Solver::new();
        let v = s.new_lit();
        s.set_interrupt(Some(Arc::new(AtomicBool::new(true))));
        let tot =
            Totalizer::encode_interruptible(&mut s, &vec![(3, v)].into(), 5).expect("no merges");
        assert_eq!(tot.outputs().len(), 1);
    }

    #[test]
    fn grouped_leaves_bound_exactly() {
        // One change point's SWAP-cost levels next to independent
        // reversal weights, and two groups side by side.
        check_bounds_exhaustively(&[4, 7, 14, 7, 21, 4], &[(1, 5)]);
        check_bounds_exhaustively(&[7, 14, 3, 5, 2], &[(0, 2), (2, 5)]);
        check_bounds_exhaustively(&[0, 6, 6], &[(0, 3)]);
    }

    #[test]
    fn grouped_leaf_has_one_output_per_distinct_weight() {
        let mut s = Solver::new();
        let v = lits(&mut s, 5);
        let mut objective = Objective::new();
        objective.push_group([(7, v[0]), (14, v[1]), (7, v[2]), (0, v[3]), (21, v[4])]);
        let (vars, clauses) = (s.num_vars(), s.num_clauses());
        let tot = Totalizer::encode(&mut s, &objective, 15);
        // 21 clamps to the cap, a level of its own; the zero weight has none.
        let ws: Vec<u64> = tot.outputs().iter().map(|(w, _)| *w).collect();
        assert_eq!(ws, vec![7, 14, 15]);
        // One fresh literal per level; one clause per non-zero term plus
        // two ordering clauses; no merge, since the group is the only leaf.
        assert_eq!(s.num_vars() - vars, 3);
        assert_eq!(s.num_clauses() - clauses, 4 + 2);
    }

    #[test]
    fn lone_grouped_term_is_its_own_output() {
        let mut s = Solver::new();
        let v = lits(&mut s, 2);
        let mut objective = Objective::new();
        objective.push_group([(0, v[0]), (9, v[1])]);
        let vars = s.num_vars();
        let tot = Totalizer::encode(&mut s, &objective, 20);
        assert_eq!(tot.outputs(), &[(9, v[1])]);
        assert_eq!(s.num_vars(), vars);
    }
}
