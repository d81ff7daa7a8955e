//! Shared driver for the storage experiment: the `storage` bench (the
//! CI flat-cost gate) and the `reproduce --only storage` trajectory
//! section (`BENCH_storage.json`) run the **same** chain, table sizes
//! and gates through this module, so the two cannot drift apart.
//!
//! Workload: the Figure 4 list chain over a Slashdot-scale activity
//! table `A(id, topic, day)` whose topic pool and day range both have
//! ≈√N values — each query body pins a (topic, day) pair, so a
//! single-column index bucket holds ≈√N rows while the composite
//! (topic, day) bucket holds exactly one. Cost is database **probe
//! work** (rows scanned + ground membership probes — the `QueryStats`
//! counters), not wall clock: counters are deterministic.

use coord_core::engine::{CoordinationEngine, QueryAnswer};
use coord_core::EntangledQuery;
use coord_db::{BackendKind, Database, Symbol};
use coord_gen::workloads::{activity_chain_queries, activity_db, ACTIVITY_TABLE};

/// Chain length: 60 queries, matching the paper's Figure 4 midpoint.
pub const CHAIN: usize = 60;

/// Table sizes of the sweep: 100× growth up to 10⁶ rows, the midpoint
/// skipped under `--quick`.
pub fn sizes(quick: bool) -> &'static [usize] {
    if quick {
        &[10_000, 1_000_000]
    } else {
        &[10_000, 100_000, 1_000_000]
    }
}

/// Drive the activity chain through the online engine and return
/// (per-submit probe work, submit-by-submit answer transcript).
pub fn drive(db: &Database, queries: &[EntangledQuery]) -> (f64, Vec<Vec<QueryAnswer>>) {
    db.stats().reset();
    let mut engine = CoordinationEngine::new(db);
    let mut transcript = Vec::new();
    for q in queries {
        transcript.push(engine.submit(q.clone()).unwrap().answers);
    }
    assert_eq!(engine.pending().len(), 0, "chain must fully coordinate");
    let per_submit = db.stats().probe_work() as f64 / queries.len() as f64;
    (per_submit, transcript)
}

/// Per-submit probe work of every backend at every table size, asserted
/// while measured:
///
/// * **flat cost**: with composite indexes active (advised by
///   `preprocess` on every submit's evaluation), per-submit probe work
///   grows ≤ 2× while the table grows 100×;
/// * **the contrast is real**: the plain row store's per-submit work
///   grows ≥ 3× over the same span (≈√100 = 10× expected);
/// * **results stay identical**: every backend's submit-by-submit
///   answers are byte-identical.
pub fn probe_work_sweep(sizes: &[usize]) -> Vec<(BackendKind, Vec<f64>)> {
    let mut work = Vec::new();
    let mut reference: Option<Vec<Vec<Vec<QueryAnswer>>>> = None;
    for kind in BackendKind::ALL {
        let mut per_size = Vec::new();
        let mut transcripts = Vec::new();
        for &rows in sizes {
            // One backend × size in memory at a time: a 10⁶-row table
            // with per-column hash indexes is the dominant allocation
            // of the run.
            let db = activity_db(rows, kind);
            let (per_submit, transcript) = drive(&db, &activity_chain_queries(CHAIN, rows));
            if kind == BackendKind::Composite {
                let patterns = db
                    .table(&Symbol::new(ACTIVITY_TABLE))
                    .unwrap()
                    .storage()
                    .composite_patterns();
                assert!(
                    patterns.contains(&vec![1, 2]),
                    "preprocess must advise the (topic, day) composite index, got {patterns:?}"
                );
            }
            per_size.push(per_submit);
            transcripts.push(transcript);
        }
        match &reference {
            None => reference = Some(transcripts),
            Some(reference) => assert_eq!(
                reference,
                &transcripts,
                "{} answers diverged from the row store",
                kind.name()
            ),
        }
        let (first, last) = (per_size[0], per_size[per_size.len() - 1]);
        let growth = growth(&per_size);
        match kind {
            BackendKind::Composite => assert!(
                growth <= 2.0,
                "composite per-submit probe work grew {growth:.2}× (> 2×) \
                 across a 100× table: {first:.0} → {last:.0}"
            ),
            BackendKind::Row => assert!(
                growth >= 3.0,
                "row-store per-submit probe work grew only {growth:.2}×; \
                 the workload no longer stresses single-column buckets"
            ),
        }
        work.push((kind, per_size));
    }
    work
}

/// Probe-work growth from the smallest to the largest table.
pub fn growth(per_size: &[f64]) -> f64 {
    per_size[per_size.len() - 1] / per_size[0].max(1.0)
}
