//! Property-based validation of the CDCL solver against the brute-force
//! reference on random CNF formulas and objectives.

use proptest::prelude::*;
use qxmap_sat::{
    brute, encode, minimize, Lit, MinimizeOptions, MinimizeStrategy, Objective, SolveResult, Solver,
};

/// A random clause over `num_vars` variables, as DIMACS-style integers.
fn clause_strategy(num_vars: usize) -> impl Strategy<Value = Vec<i64>> {
    prop::collection::vec(
        (1..=num_vars as i64).prop_flat_map(|v| prop_oneof![Just(v), Just(-v)]),
        1..=4,
    )
}

fn formula_strategy(num_vars: usize) -> impl Strategy<Value = Vec<Vec<i64>>> {
    prop::collection::vec(clause_strategy(num_vars), 0..40)
}

fn to_lits(clause: &[i64]) -> Vec<Lit> {
    clause.iter().map(|&v| Lit::from_dimacs(v)).collect()
}

/// Exactly-one group sizes followed by a count of independent variables,
/// at most 16 variables in all.
fn grouped_shape_strategy() -> impl Strategy<Value = (Vec<usize>, usize)> {
    (prop::collection::vec(1usize..=4, 1..=3), 0usize..=4)
}

fn build_solver(num_vars: usize, clauses: &[Vec<i64>]) -> Solver {
    let mut s = Solver::new();
    for _ in 0..num_vars {
        s.new_var();
    }
    for c in clauses {
        s.add_clause(to_lits(c));
    }
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// SAT/UNSAT verdicts agree with exhaustive enumeration.
    #[test]
    fn verdict_matches_brute_force(clauses in formula_strategy(10)) {
        let lit_clauses: Vec<Vec<Lit>> = clauses.iter().map(|c| to_lits(c)).collect();
        let expected = brute::is_satisfiable(10, &lit_clauses);
        let mut s = build_solver(10, &clauses);
        let got = s.solve();
        match (expected, &got) {
            (true, SolveResult::Sat(model)) => {
                // The model must actually satisfy every clause.
                for c in &lit_clauses {
                    prop_assert!(c.iter().any(|&l| model.value(l)),
                                 "model violates clause {c:?}");
                }
            }
            (false, SolveResult::Unsat) => {}
            _ => prop_assert!(false, "verdict mismatch: expected sat={expected}, got {got:?}"),
        }
    }

    /// Solving twice (incremental reuse) gives the same verdict.
    #[test]
    fn idempotent_resolve(clauses in formula_strategy(8)) {
        let mut s = build_solver(8, &clauses);
        let first = s.solve().is_sat();
        let second = s.solve().is_sat();
        prop_assert_eq!(first, second);
    }

    /// Assumptions behave like temporary unit clauses.
    #[test]
    fn assumptions_equal_units(clauses in formula_strategy(8), pol in prop::collection::vec(any::<bool>(), 8)) {
        let assumptions: Vec<Lit> = pol
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                let l = Lit::from_dimacs(i as i64 + 1);
                if p { l } else { !l }
            })
            .collect();
        let mut s1 = build_solver(8, &clauses);
        let with_assumptions = s1.solve_with_assumptions(&assumptions).is_sat();
        let mut s2 = build_solver(8, &clauses);
        for &a in &assumptions {
            s2.add_clause([a]);
        }
        let with_units = s2.solve().is_sat();
        prop_assert_eq!(with_assumptions, with_units);
    }

    /// The minimizer returns the true minimum cost.
    #[test]
    fn minimize_matches_brute_force(
        clauses in formula_strategy(8),
        weights in prop::collection::vec(0u64..8, 8),
    ) {
        let lit_clauses: Vec<Vec<Lit>> = clauses.iter().map(|c| to_lits(c)).collect();
        let objective: Vec<(u64, Lit)> = weights
            .iter()
            .enumerate()
            .map(|(i, &w)| (w, Lit::from_dimacs(i as i64 + 1)))
            .collect();
        let expected = brute::minimum_cost(8, &lit_clauses, &objective);
        let mut s = build_solver(8, &clauses);
        let got = minimize(&mut s, &objective.into(), MinimizeOptions::default());
        match (expected, got) {
            (None, Err(qxmap_sat::MinimizeError::Unsatisfiable)) => {}
            (Some(e), Ok(m)) => {
                prop_assert_eq!(e, m.cost);
                prop_assert!(m.proved_optimal);
            }
            (e, g) => prop_assert!(false, "expected {e:?}, got {g:?}"),
        }
    }

    /// A grouped objective — weighted exactly-one groups plus independent
    /// terms, under random side clauses — minimizes to the exhaustive
    /// minimum under both search schedules.
    #[test]
    fn grouped_minimize_matches_exhaustive_minimum(
        (sizes, free, weights, clauses, binary) in grouped_shape_strategy()
            .prop_flat_map(|(sizes, free)| {
                let n = sizes.iter().sum::<usize>() + free;
                (
                    Just(sizes),
                    Just(free),
                    prop::collection::vec(0u64..12, n),
                    prop::collection::vec(clause_strategy(n), 0..8),
                    any::<bool>(),
                )
            }),
    ) {
        let n = weights.len();
        let mut s = build_solver(n, &clauses);
        let vars: Vec<Lit> = (1..=n as i64).map(Lit::from_dimacs).collect();
        let mut groups = Vec::new();
        let mut objective = Objective::new();
        let mut next = 0;
        for &size in &sizes {
            let group = next..next + size;
            encode::exactly_one(&mut s, &vars[group.clone()]);
            objective.push_group(group.clone().map(|i| (weights[i], vars[i])));
            groups.push(group);
            next += size;
        }
        for i in next..next + free {
            objective.push(weights[i], vars[i]);
        }
        prop_assert_eq!(objective.groups(), &groups[..]);

        // Exhaustive minimum over every assignment of the n variables.
        let holds = |mask: u32, v: i64| (mask >> (v.unsigned_abs() - 1) & 1 == 1) == (v > 0);
        let expected = (0..1u32 << n)
            .filter(|&mask| {
                groups.iter().all(|g| g.clone().filter(|&i| mask >> i & 1 == 1).count() == 1)
                    && clauses.iter().all(|c| c.iter().any(|&v| holds(mask, v)))
            })
            .map(|mask| (0..n).filter(|&i| mask >> i & 1 == 1).map(|i| weights[i]).sum::<u64>())
            .min();

        let strategy = if binary {
            MinimizeStrategy::BinarySearch
        } else {
            MinimizeStrategy::LinearDescent
        };
        let got = minimize(&mut s, &objective, MinimizeOptions::default().with_strategy(strategy));
        match (expected, got) {
            (None, Err(qxmap_sat::MinimizeError::Unsatisfiable)) => {}
            (Some(e), Ok(m)) => {
                prop_assert_eq!(e, m.cost);
                prop_assert_eq!(objective.evaluate(&m.model), m.cost);
                prop_assert!(m.proved_optimal);
            }
            (e, g) => prop_assert!(false, "expected {e:?}, got {g:?}"),
        }
    }
}
