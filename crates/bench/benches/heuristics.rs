//! Benchmarks the heuristic baselines (Table 1, last column + the
//! additional SABRE/naive comparators) — these run orders of magnitude
//! faster than the exact method, which is exactly the trade-off the paper
//! quantifies.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qxmap_arch::devices;
use qxmap_benchmarks::{circuit_for, profiles};
use qxmap_heuristic::{Mapper, NaiveMapper, SabreMapper, StochasticSwapMapper};

fn bench_heuristics(c: &mut Criterion) {
    let cm = devices::ibm_qx4();
    let mut group = c.benchmark_group("heuristic");
    for name in ["4mod5-v0_20", "alu-v0_27", "qe_qft_5"] {
        let profile = profiles::by_name(name).expect("known benchmark");
        let circuit = circuit_for(&profile);
        group.bench_with_input(
            BenchmarkId::new("stochastic-x5", name),
            &circuit,
            |b, circuit| {
                b.iter(|| qxmap_bench::best_of_stochastic(circuit, &cm, 5));
            },
        );
        group.bench_with_input(BenchmarkId::new("sabre", name), &circuit, |b, circuit| {
            let mapper = SabreMapper::new();
            b.iter(|| mapper.map(circuit, &cm).expect("mappable"));
        });
        group.bench_with_input(BenchmarkId::new("naive", name), &circuit, |b, circuit| {
            let mapper = NaiveMapper::new();
            b.iter(|| mapper.map(circuit, &cm).expect("mappable"));
        });
        group.bench_with_input(
            BenchmarkId::new("stochastic-x1", name),
            &circuit,
            |b, circuit| {
                let mapper = StochasticSwapMapper::with_seed(0);
                b.iter(|| mapper.map(circuit, &cm).expect("mappable"));
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_heuristics);
criterion_main!(benches);
