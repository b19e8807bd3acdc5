//! Property and contract tests for solve-cache persistence through the
//! journal: attach → insert → graceful finish → replay round-trips
//! (entries, hits, byte accounting, the proved-optimal tier), per-record
//! damage tolerance under every truncation and single-bit flip, and the
//! version gate — the serving tier's warm-start guarantees, tested at
//! the library layer.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use proptest::prelude::*;
use qxmap::arch::devices;
use qxmap::circuit::Circuit;
use qxmap::map::{
    replay_journal, Engine, ExactEngine, HeuristicEngine, Journal, MapReport, MapRequest,
    SnapshotError, SolveCache, JOURNAL_MAGIC, JOURNAL_VERSION,
};

/// Builds a small circuit from a proptest-generated gate list.
fn circuit_from(gates: &[(usize, usize, u8)], n: usize) -> Circuit {
    let mut circuit = Circuit::new(n);
    for &(a, d, kind) in gates {
        match kind {
            0 => {
                circuit.cx(a % n, (a + 1 + d) % n);
            }
            1 => {
                circuit.h(a % n);
            }
            _ => {
                circuit.t(a % n);
            }
        }
    }
    circuit
}

/// A private cache with the `'static` lifetime a journal writer needs.
fn leaked(capacity: usize) -> &'static SolveCache {
    Box::leak(Box::new(SolveCache::with_capacity(capacity)))
}

/// A journal path unique to this process and call.
fn temp_journal(name: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "qxmap-persistence-{}-{name}-{n}.qxjournal",
        std::process::id()
    ))
}

/// Attaches a journal to a fresh cache, solves and inserts every
/// request, and finishes gracefully. Returns the cache, the journal's
/// bytes and each request with its solved report.
fn journal_of(
    requests: Vec<MapRequest>,
    engine: &dyn Engine,
) -> (&'static SolveCache, Vec<u8>, Vec<(MapRequest, MapReport)>) {
    let path = temp_journal("source");
    let _ = std::fs::remove_file(&path);
    let cache = leaked(32);
    let (journal, replay) = Journal::attach(cache, &path, 1024).expect("journal attaches");
    assert_eq!(replay.admitted, 0);
    let solved = requests
        .into_iter()
        .map(|request| {
            let report = engine.run(&request).expect("QX4 maps 4-qubit circuits");
            cache.insert(&engine.cache_signature(), &request, &report);
            (request, report)
        })
        .collect();
    journal.finish().expect("the journal drains and compacts");
    let bytes = std::fs::read(&path).expect("the journal exists");
    let _ = std::fs::remove_file(&path);
    (cache, bytes, solved)
}

/// Every entry `restored` holds is an unaltered original: each hit
/// matches the report solved for its request, and nothing else is held.
/// Returns the number of requests that hit.
fn only_originals(
    restored: &SolveCache,
    engine: &dyn Engine,
    solved: &[(MapRequest, MapReport)],
) -> usize {
    let mut hits = 0;
    for (request, original) in solved {
        if let Some(hit) = restored.lookup(&engine.cache_signature(), request) {
            assert_eq!(hit.cost, original.cost);
            assert_eq!(hit.mapped, original.mapped);
            assert_eq!(hit.initial_layout, original.initial_layout);
            assert_eq!(hit.final_layout, original.final_layout);
            hits += 1;
        }
    }
    assert_eq!(
        restored.stats().entries,
        hits,
        "an entry no request asked for"
    );
    hits
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Attach → insert → finish → replay round-trips every entry: each
    /// cached request is still a hit in a fresh cache instance (which
    /// is exactly a daemon restart), with identical cost, circuit and
    /// byte accounting.
    #[test]
    fn journal_round_trip_preserves_entries_and_accounting(
        gate_lists in prop::collection::vec(
            prop::collection::vec((0usize..4, 0usize..2, 0u8..3), 1..8),
            1..5,
        ),
        deadline_ms in 0u64..200,
    ) {
        let engine = HeuristicEngine::naive();
        // Gate lists that canonicalize to one skeleton share an entry:
        // the compaction at `finish` keeps it once, and each request's
        // hit goes through the correspondence read back from the file.
        let requests = gate_lists
            .iter()
            .map(|gates| {
                let request = MapRequest::new(circuit_from(gates, 4), devices::ibm_qx4());
                // Values below 50 mean "no deadline": the budget class is
                // part of the persisted key either way.
                if deadline_ms >= 50 {
                    request.with_deadline(Duration::from_millis(deadline_ms))
                } else {
                    request
                }
            })
            .collect();
        let (cache, bytes, solved) = journal_of(requests, &engine);

        let restarted = SolveCache::with_capacity(32);
        let replay = replay_journal(&restarted, &bytes).expect("own journal replays");
        prop_assert_eq!((replay.rejected, replay.torn), (0, false));
        prop_assert_eq!(replay.admitted, cache.stats().entries);
        prop_assert_eq!(
            restarted.stats().approx_bytes,
            cache.stats().approx_bytes,
            "byte accounting must match a live insert's"
        );
        // A request whose key another request stored first is served
        // that request's answer, so each hit is compared with the live
        // cache's hit for the same request, not with its own solve.
        for (request, _) in &solved {
            let live = cache
                .lookup(&engine.cache_signature(), request)
                .expect("every inserted request hits the live cache");
            let hit = restarted
                .lookup(&engine.cache_signature(), request)
                .expect("every persisted request hits after restart");
            prop_assert!(hit.served_from_cache);
            prop_assert_eq!(&hit.cost, &live.cost);
            prop_assert_eq!(&hit.mapped, &live.mapped);
            prop_assert_eq!(&hit.initial_layout, &live.initial_layout);
            prop_assert_eq!(&hit.final_layout, &live.final_layout);
            prop_assert_eq!(hit.proved_optimal, live.proved_optimal);
            hit.verify(request.circuit(), request.device())
                .expect("replayed entries still verify");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Every truncation and every single-bit flip of a journal replays
    /// without panicking, admits only intact records, and never admits
    /// an altered one.
    #[test]
    fn journal_damage_admits_only_intact_records(
        gate_lists in prop::collection::vec(
            prop::collection::vec((0usize..4, 0usize..2, 0u8..3), 1..6),
            2..4,
        ),
    ) {
        let engine = HeuristicEngine::naive();
        let requests = gate_lists
            .iter()
            .zip(0u64..)
            .map(|(gates, seed)| {
                // All six CNOT pairs of four qubits: QX4 has no K4, so
                // every solve needs a SWAP, proves nothing, and stores
                // exactly one entry — one record per request.
                let mut circuit = circuit_from(gates, 4);
                for (a, b) in [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)] {
                    circuit.cx(a, b);
                }
                MapRequest::new(circuit, devices::ibm_qx4()).with_seed(seed)
            })
            .collect();
        let (cache, bytes, solved) = journal_of(requests, &engine);
        let records = cache.stats().entries;
        prop_assert_eq!(records, solved.len());

        // A cut keeps every record that ends before it, and flags the
        // partial one behind it as a torn tail.
        let mut whole = 0;
        for cut in 0..=bytes.len() {
            let restored = SolveCache::with_capacity(32);
            match replay_journal(&restored, &bytes[..cut]) {
                Err(e) => {
                    prop_assert!(cut < 12, "cut {} rejected the header: {}", cut, e);
                    prop_assert_eq!(e, SnapshotError::Truncated);
                }
                Ok(replay) => {
                    prop_assert_eq!(replay.rejected, 0, "cut {}", cut);
                    prop_assert!(replay.admitted >= whole, "cut {}", cut);
                    whole = replay.admitted;
                    prop_assert_eq!(replay.torn, replay.bytes_consumed != cut as u64);
                    prop_assert_eq!(only_originals(&restored, &engine, &solved), whole);
                }
            }
        }
        prop_assert_eq!(whole, records);

        // A flipped bit costs at most the record it lands in (or, in a
        // length field, the rest of the file as a torn tail).
        for bit in 0..bytes.len() * 8 {
            let mut flipped = bytes.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            let restored = SolveCache::with_capacity(32);
            match replay_journal(&restored, &flipped) {
                Err(_) => prop_assert!(bit < 12 * 8, "bit {} rejected the header", bit),
                Ok(replay) => {
                    prop_assert!(replay.admitted < records, "bit {} went unnoticed", bit);
                    prop_assert_eq!(only_originals(&restored, &engine, &solved), replay.admitted);
                }
            }
        }
    }
}

#[test]
fn proved_optimal_tier_survives_the_round_trip() {
    let engine = ExactEngine::new();
    let mut circuit = Circuit::new(4);
    circuit.cx(0, 1);
    circuit.cx(1, 2);
    circuit.cx(0, 3);
    let unbudgeted = MapRequest::new(circuit.clone(), devices::ibm_qx4());
    let (cache, bytes, solved) = journal_of(vec![unbudgeted], &engine);
    assert!(solved[0].1.proved_optimal);
    assert_eq!(cache.stats().entries, 2, "budget entry + proved tier");

    let restarted = SolveCache::with_capacity(8);
    let replay = replay_journal(&restarted, &bytes).expect("own journal replays");
    assert_eq!(replay.admitted, 2);
    // The certificate serves budget classes that never ran before the
    // restart — the tier survived, not just the entry.
    let budgeted = MapRequest::new(circuit, devices::ibm_qx4())
        .with_deadline(Duration::from_millis(75))
        .with_conflict_budget(Some(12_345));
    let hit = restarted
        .lookup(&engine.cache_signature(), &budgeted)
        .expect("proved tier serves any budget class");
    assert!(hit.proved_optimal && hit.served_from_cache);
}

#[test]
fn a_bumped_journal_version_is_rejected_and_reset() {
    let engine = HeuristicEngine::naive();
    let mut circuit = Circuit::new(3);
    circuit.cx(0, 1).cx(1, 2);
    let (_, bytes, _) = journal_of(vec![MapRequest::new(circuit, devices::ibm_qx4())], &engine);

    // A future (or past) encoding version is rejected by number, before
    // any record is trusted.
    let mut bumped = bytes.clone();
    bumped[JOURNAL_MAGIC.len()..12].copy_from_slice(&(JOURNAL_VERSION + 1).to_le_bytes());
    let target = SolveCache::with_capacity(8);
    assert_eq!(
        replay_journal(&target, &bumped),
        Err(SnapshotError::VersionMismatch {
            found: JOURNAL_VERSION + 1,
            supported: JOURNAL_VERSION,
        })
    );
    assert_eq!(target.stats().entries, 0);

    // Attaching to such a file starts it over rather than appending
    // records of this version behind another version's header.
    let path = temp_journal("bumped");
    std::fs::write(&path, &bumped).unwrap();
    let cache = leaked(8);
    let (journal, replay) = Journal::attach(cache, &path, 1024).expect("journal attaches");
    assert!(replay.reset);
    assert_eq!((replay.admitted, cache.stats().entries), (0, 0));
    journal.finish().unwrap();
    let reset = std::fs::read(&path).unwrap();
    assert_eq!(&reset[..JOURNAL_MAGIC.len()], JOURNAL_MAGIC);
    assert_eq!(
        reset[JOURNAL_MAGIC.len()..12],
        JOURNAL_VERSION.to_le_bytes()
    );
    let _ = std::fs::remove_file(&path);
}
