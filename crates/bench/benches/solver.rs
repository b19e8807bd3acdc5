//! Microbenchmarks of the reasoning engine (the Z3 substitute): raw CDCL
//! search, the generalized-totalizer objective machinery, and the two
//! minimization schedules of Section 3.3 (objective-driven descent vs
//! binary search).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qxmap_sat::{
    encode, minimize, Lit, MinimizeOptions, MinimizeStrategy, Objective, SolveResult, Solver,
};

/// PHP(h+1, h) — a classic resolution-hard UNSAT family.
fn pigeonhole(holes: usize) -> Solver {
    let pigeons = holes + 1;
    let mut s = Solver::new();
    let vars: Vec<Vec<Lit>> = (0..pigeons)
        .map(|_| (0..holes).map(|_| s.new_lit()).collect())
        .collect();
    for p in &vars {
        s.add_clause(p.iter().copied());
    }
    for p1 in 0..pigeons {
        for p2 in (p1 + 1)..pigeons {
            for (&a, &b) in vars[p1].iter().zip(&vars[p2]) {
                s.add_clause([!a, !b]);
            }
        }
    }
    s
}

fn planted_3sat(num_vars: usize, num_clauses: usize, seed: u64) -> (Solver, Vec<Lit>) {
    let mut state = seed;
    let mut rnd = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as usize
    };
    let mut s = Solver::new();
    let vars: Vec<Lit> = (0..num_vars).map(|_| s.new_lit()).collect();
    let planted: Vec<bool> = (0..num_vars).map(|_| rnd() % 2 == 0).collect();
    for _ in 0..num_clauses {
        let mut clause: Vec<Lit> = (0..3)
            .map(|_| {
                let v = rnd() % num_vars;
                if rnd() % 2 == 0 {
                    vars[v]
                } else {
                    !vars[v]
                }
            })
            .collect();
        if !clause
            .iter()
            .any(|l| planted[l.var().index()] == l.is_positive())
        {
            let l = clause[0];
            clause[0] = if planted[l.var().index()] {
                l.var().positive()
            } else {
                l.var().negative()
            };
        }
        s.add_clause(clause);
    }
    (s, vars)
}

fn bench_search(c: &mut Criterion) {
    let mut group = c.benchmark_group("sat");
    for holes in [5usize, 6, 7] {
        group.bench_function(BenchmarkId::new("pigeonhole-unsat", holes), |b| {
            b.iter_batched(
                || pigeonhole(holes),
                |mut s| s.solve(),
                criterion::BatchSize::SmallInput,
            );
        });
    }
    group.bench_function("planted-3sat-200v", |b| {
        b.iter_batched(
            || planted_3sat(200, 850, 7).0,
            |mut s| s.solve(),
            criterion::BatchSize::SmallInput,
        );
    });
    group.finish();
}

fn bench_minimize_schedules(c: &mut Criterion) {
    let mut group = c.benchmark_group("minimize");
    for strategy in [
        MinimizeStrategy::LinearDescent,
        MinimizeStrategy::BinarySearch,
    ] {
        group.bench_function(format!("{strategy:?}"), |b| {
            b.iter_batched(
                || {
                    let mut s = Solver::new();
                    let vars: Vec<Lit> = (0..24).map(|_| s.new_lit()).collect();
                    // Exactly-one groups force a non-trivial optimum; the
                    // objective records each as an at-most-one group.
                    let mut obj = Objective::new();
                    for (c, chunk) in vars.chunks(6).enumerate() {
                        encode::exactly_one(&mut s, chunk);
                        obj.push_group(
                            chunk
                                .iter()
                                .enumerate()
                                .map(|(j, &l)| (((6 * c + j) % 9 + 1) as u64, l)),
                        );
                    }
                    (s, obj)
                },
                |(mut s, obj)| {
                    minimize(
                        &mut s,
                        &obj,
                        MinimizeOptions {
                            strategy,
                            ..Default::default()
                        },
                    )
                    .expect("satisfiable")
                },
                criterion::BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

/// AMO-encoding ablation: same exactly-one-heavy instance under the
/// pairwise, sequential and commander encodings. The mapping encoding's
/// per-step Eq. (1) constraints and per-change-point selector constraints
/// are exactly this shape.
fn bench_amo_encodings(c: &mut Criterion) {
    let mut group = c.benchmark_group("amo-ablation");
    // 30 overlapping exactly-one groups of 12 literals with shared members,
    // then solve to force propagation through the encodings.
    type Encoder = fn(&mut Solver, &[Lit]);
    let encoders: Vec<(&str, Encoder)> = vec![
        ("pairwise", |s, l| encode::at_most_one_pairwise(s, l)),
        ("sequential", |s, l| encode::at_most_one_sequential(s, l)),
        ("commander3", |s, l| encode::at_most_one_commander(s, l, 3)),
    ];
    for (label, enc) in encoders {
        group.bench_function(label, |b| {
            b.iter(|| {
                let mut s = Solver::new();
                let vars: Vec<Lit> = (0..120).map(|_| s.new_lit()).collect();
                for start in 0..30 {
                    let group_lits: Vec<Lit> =
                        (0..12).map(|i| vars[(start * 4 + i) % 120]).collect();
                    encode::at_least_one(&mut s, &group_lits);
                    enc(&mut s, &group_lits);
                }
                assert!(matches!(s.solve(), SolveResult::Sat(_)));
                s.num_clauses()
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_search,
    bench_minimize_schedules,
    bench_amo_encodings
);
criterion_main!(benches);
