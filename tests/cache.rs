//! Contract tests for the whole-solve cache and the deadline-aware
//! heuristic engines: cache identity under register relabeling (and
//! non-identity under device changes), one key for a skeleton probe and
//! a request built from the same options, the cache-served report
//! contract (sub-millisecond, flagged, layouts translated), and
//! stochastic-engine deadline interruption.

use std::time::{Duration, Instant};

use proptest::prelude::*;
use qxmap::arch::devices;
use qxmap::circuit::{paper_example, Circuit, CircuitSkeleton};
use qxmap::core::Strategy as SiteStrategy;
use qxmap::map::{
    map_one, CacheProbe, Engine, Guarantee, HeuristicEngine, MapRequest, Portfolio, SolveCache,
    SolveOptions,
};

#[test]
fn second_identical_request_is_a_flagged_submillisecond_hit() {
    // A circuit no other test uses, so the first call is the solve.
    let mut circuit = Circuit::new(4);
    circuit.cx(0, 2);
    circuit.cx(2, 1);
    circuit.h(1);
    circuit.cx(1, 3);
    circuit.cx(3, 0);
    let cm = devices::ibm_qx4();
    let request = MapRequest::new(circuit.clone(), cm.clone());

    let first = map_one(&request).expect("mappable");
    assert!(!first.served_from_cache);

    let waited = Instant::now();
    let second = map_one(&request).expect("mappable");
    let waited = waited.elapsed();

    // The acceptance contract: a cache hit, flagged as cache-served,
    // with the lookup time (not the original solve's wall-clock) in
    // `elapsed`. Uncontended, the lookup is single-digit microseconds
    // (the <1 ms acceptance criterion with three orders of margin); the
    // in-suite bounds are looser only because sibling tests saturate
    // every core of a CI runner and a preemption inside the timed window
    // must not flake the suite.
    assert!(second.served_from_cache);
    assert!(second.winner.starts_with("cache/"), "{}", second.winner);
    assert!(
        second.elapsed < Duration::from_millis(10),
        "cache lookup took {:?}",
        second.elapsed
    );
    assert!(second.elapsed <= waited);
    assert!(waited < Duration::from_millis(100), "round trip {waited:?}");
    assert_eq!(second.cost, first.cost);
    assert_eq!(second.proved_optimal, first.proved_optimal);
    assert_eq!(second.mapped, first.mapped);
    assert_eq!(second.runtime, first.runtime, "original solve time kept");
    second.verify(&circuit, &cm).expect("served reports verify");
}

#[test]
fn relabeled_register_equivalent_hits_the_same_entry() {
    // Same interaction structure, renamed registers — the ISSUE's "two
    // QASM files with renamed registers" scenario, through the public
    // portfolio path.
    let mut circuit = Circuit::new(4);
    circuit.cx(1, 0);
    circuit.t(0);
    circuit.cx(0, 3);
    circuit.cx(3, 2);
    circuit.cx(1, 2);
    let cm = devices::ibm_qx4();
    let first = map_one(&MapRequest::new(circuit.clone(), cm.clone())).expect("mappable");

    let sigma = [3usize, 1, 0, 2];
    let renamed = circuit.map_qubits(circuit.num_qubits(), |q| sigma[q]);
    assert_eq!(
        CircuitSkeleton::of(&circuit),
        CircuitSkeleton::of(&renamed),
        "precondition: canonical skeletons agree"
    );
    let hit = map_one(&MapRequest::new(renamed.clone(), cm.clone())).expect("mappable");
    assert!(hit.served_from_cache, "relabeled request must hit");
    assert_eq!(hit.cost, first.cost);
    // The physical circuit is label-free and reused verbatim; the layouts
    // were translated, and the whole report verifies for the *renamed*
    // circuit.
    assert_eq!(hit.mapped, first.mapped);
    hit.verify(&renamed, &cm)
        .expect("translated layouts are sound");
    for (q, &s) in sigma.iter().enumerate() {
        assert_eq!(
            hit.initial_layout.phys_of(s),
            first.initial_layout.phys_of(q),
            "layout of renamed qubit {s} must follow the correspondence"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Cache identity, property-tested: a relabeled-register circuit hits
    /// the same entry (with sound translated layouts); a different
    /// coupling graph misses.
    #[test]
    fn cache_identity_under_relabeling_and_device_change(
        gates in prop::collection::vec((0usize..4, 1usize..4, 0u8..2), 1..10),
        perm_seed in 0u64..24,
    ) {
        let n = 4usize;
        let mut circuit = Circuit::new(n);
        for &(a, d, kind) in &gates {
            if kind == 1 {
                circuit.h(a);
            } else {
                circuit.cx(a, (a + d) % n);
            }
        }
        // The perm_seed indexes the 4! permutations via factorial digits.
        let mut pool: Vec<usize> = (0..n).collect();
        let mut sigma = Vec::with_capacity(n);
        let mut k = perm_seed as usize;
        for radix in (1..=n).rev() {
            sigma.push(pool.remove(k % radix));
            k /= radix;
        }
        let renamed = circuit.map_qubits(n, |q| sigma[q]);

        // A private cache instance keeps the property hermetic.
        let cache = SolveCache::with_capacity(16);
        let engine = HeuristicEngine::naive();
        let cm = devices::ibm_qx4();
        let request = MapRequest::new(circuit.clone(), cm.clone());
        let report = engine.run(&request).expect("mappable");
        cache.insert(&engine.cache_signature(), &request, &report);

        // Relabeled equivalent: hit, and the served report is sound for
        // the renamed circuit.
        let renamed_request = MapRequest::new(renamed.clone(), cm.clone());
        let hit = cache.lookup(&engine.cache_signature(), &renamed_request);
        let hit = hit.expect("relabeled-register circuit hits the same entry");
        prop_assert!(hit.served_from_cache);
        prop_assert_eq!(hit.cost, report.cost);
        hit.verify(&renamed, &cm).expect("translated layouts verify");

        // Different coupling graph: miss.
        let other_device = MapRequest::new(circuit.clone(), devices::linear(5));
        prop_assert!(
            cache.lookup(&engine.cache_signature(), &other_device).is_none(),
            "a different coupling graph must miss"
        );
    }
}

/// `Some(value)` half the time.
fn optional<S: Strategy>(values: S) -> impl Strategy<Value = Option<S::Value>> {
    (any::<bool>(), values).prop_map(|(some, value)| some.then_some(value))
}

/// Solve options drawn over all seven knobs.
fn solve_options() -> impl Strategy<Value = SolveOptions> {
    let strategy = prop_oneof![
        Just(SiteStrategy::BeforeEveryGate),
        Just(SiteStrategy::DisjointQubits),
        Just(SiteStrategy::OddGates),
        Just(SiteStrategy::QubitTriangle),
        (1usize..4).prop_map(SiteStrategy::Window),
        prop::collection::vec(0usize..6, 0..4).prop_map(SiteStrategy::Custom),
    ];
    let knobs = (any::<bool>(), strategy, any::<bool>());
    let budgets = (
        optional(0u64..1_000_000),
        optional(1u64..10_000),
        optional(0u64..1_000),
        any::<u64>(),
    );
    (knobs, budgets).prop_map(
        |((optimal, strategy, subsets), (conflict_budget, deadline_ms, upper_bound, seed))| {
            SolveOptions {
                guarantee: if optimal {
                    Guarantee::Optimal
                } else {
                    Guarantee::BestEffort
                },
                strategy,
                subsets,
                conflict_budget,
                deadline: deadline_ms.map(Duration::from_millis),
                upper_bound,
                seed,
            }
        },
    )
}

/// `options` with knob `field` (0..7, in declaration order) changed to
/// a different value.
fn with_one_knob_changed(options: &SolveOptions, field: usize) -> SolveOptions {
    let mut changed = options.clone();
    match field {
        0 => {
            changed.guarantee = match options.guarantee {
                Guarantee::Optimal => Guarantee::BestEffort,
                Guarantee::BestEffort => Guarantee::Optimal,
            }
        }
        1 => {
            changed.strategy = match options.strategy {
                SiteStrategy::BeforeEveryGate => SiteStrategy::DisjointQubits,
                _ => SiteStrategy::BeforeEveryGate,
            }
        }
        2 => changed.subsets = !options.subsets,
        3 => changed.conflict_budget = Some(options.conflict_budget.map_or(0, |b| b + 1)),
        4 => {
            let later = options
                .deadline
                .map_or(Duration::ZERO, |d| d + Duration::from_millis(1));
            changed.deadline = Some(later);
        }
        5 => changed.upper_bound = Some(options.upper_bound.map_or(0, |b| b + 1)),
        _ => changed.seed = options.seed.wrapping_add(1),
    }
    assert_ne!(&changed, options);
    changed
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A skeleton probe and a materialized request built from the same
    /// options resolve to one cache key: the probe hits what the request
    /// stored, and changing any one knob misses on both paths — except
    /// that a proved answer is published to every budget class, so a
    /// changed deadline or conflict budget alone still hits it.
    #[test]
    fn probe_and_request_built_from_one_options_value_share_a_key(
        options in solve_options(),
        proved in any::<bool>(),
    ) {
        let cache = SolveCache::with_capacity(16);
        let engine = HeuristicEngine::naive();
        let signature = engine.cache_signature();
        let circuit = paper_example();
        let cm = devices::ibm_qx4();
        // The stored answer comes from a default-options solve (a drawn
        // Optimal demand or bound could refuse one); the options it is
        // stored under are what pin the key. `proved` stands in for a
        // certificate, to exercise the proved tier.
        let mut report = engine
            .run(&MapRequest::new(circuit.clone(), cm.clone()))
            .expect("mappable");
        report.proved_optimal = proved;
        let request = |o: &SolveOptions| {
            MapRequest::new(circuit.clone(), cm.clone()).with_options(o.clone())
        };
        cache.insert(&signature, &request(&options), &report);
        let skeleton = CircuitSkeleton::of(&circuit);
        let probe = |o: &SolveOptions| {
            let probe = CacheProbe::new(skeleton.clone(), &cm).with_options(o.clone());
            cache.probe(&signature, &probe)
        };

        let hit = probe(&options).expect("the probe hits the request's entry");
        prop_assert_eq!(hit.cost, report.cost);
        prop_assert!(cache.lookup(&signature, &request(&options)).is_some());
        for field in 0..7 {
            let changed = with_one_knob_changed(&options, field);
            let budget_only = field == 3 || field == 4;
            let hits = proved && budget_only;
            prop_assert_eq!(probe(&changed).is_some(), hits, "knob {} {:?}", field, changed);
            let looked_up = cache.lookup(&signature, &request(&changed));
            prop_assert_eq!(looked_up.is_some(), hits, "knob {} {:?}", field, changed);
        }
    }
}

#[test]
fn stochastic_engine_honors_the_deadline_within_one_trial() {
    // Heavy enough that 400 seeded trials take many hundreds of ms, so a
    // 25 ms deadline is a real interruption, not a no-op.
    let mut circuit = Circuit::new(16);
    for q in 0..15 {
        circuit.cx(q, q + 1);
    }
    for q in 0..8 {
        circuit.cx(q, q + 8);
    }
    circuit.cx(0, 15);
    circuit.cx(3, 12);
    let cm = devices::ibm_tokyo();
    let engine = HeuristicEngine::stochastic(400);

    let full_timer = Instant::now();
    let full = engine
        .run(&MapRequest::new(circuit.clone(), cm.clone()))
        .expect("tokyo routes this");
    let full_elapsed = full_timer.elapsed();

    let bounded_timer = Instant::now();
    let bounded = engine
        .run(&MapRequest::new(circuit.clone(), cm.clone()).with_deadline(Duration::from_millis(25)))
        .expect("a deadline degrades quality, never validity");
    let bounded_elapsed = bounded_timer.elapsed();

    // The bounded run interrupts: far below the full run's wall-clock
    // (within one trial's latency of the 25 ms budget), yet still a
    // complete, verified result.
    assert!(
        bounded_elapsed < full_elapsed / 2 + Duration::from_millis(100),
        "deadline not honored: bounded {bounded_elapsed:?} vs full {full_elapsed:?}"
    );
    bounded.verify(&circuit, &cm).expect("valid under deadline");
    full.verify(&circuit, &cm).expect("valid without deadline");
    // No relation between the two costs is asserted: a deadline-degraded
    // trial takes first-plan layers the full run never explored, so it
    // can legitimately land on either side of the full run's best.
}

#[test]
fn deadline_and_unbudgeted_requests_do_not_share_cache_entries() {
    // Same circuit/device/engine, different budget class: the unproved
    // deadline-class result must not be served to the patient caller.
    let mut circuit = Circuit::new(9);
    for q in 0..8 {
        circuit.cx(q, q + 1);
    }
    circuit.cx(0, 8);
    let cm = devices::ibm_tokyo(); // out of exact regime: nothing proved
    let budgeted =
        MapRequest::new(circuit.clone(), cm.clone()).with_deadline(Duration::from_millis(200));
    let first = Portfolio::new().run_cached(&budgeted).expect("mappable");
    assert!(!first.proved_optimal, "tokyo is beyond the exact regime");

    let unbudgeted = MapRequest::new(circuit.clone(), cm.clone());
    let second = Portfolio::new().run_cached(&unbudgeted).expect("mappable");
    assert!(
        !second.served_from_cache,
        "an unproved deadline-class result leaked into the unbudgeted class"
    );
    // Re-asking within the same class hits.
    let third = Portfolio::new().run_cached(&budgeted).expect("mappable");
    assert!(third.served_from_cache);
}
