//! Engine-level storage equivalence: the online coordination engine and
//! the batch SCC coordinator must deliver identical outcomes —
//! submit-by-submit answers included — on the row store and on the
//! full-scan oracle (`coord_db::testkit::scan_copy`).

use social_coordination::core::engine::{CoordinationEngine, QueryAnswer};
use social_coordination::core::scc::SccCoordinator;
use social_coordination::core::EntangledQuery;
use social_coordination::db::testkit::scan_copy;
use social_coordination::db::Database;
use social_coordination::gen::workloads::{
    activity_chain_queries, activity_db, fig4_queries, pool_db,
};

/// Submit `queries` one by one and keep each submit's full answer set;
/// every query must be delivered.
fn transcript(db: &Database, queries: &[EntangledQuery]) -> Vec<Vec<QueryAnswer>> {
    let mut engine = CoordinationEngine::new(db);
    let answers: Vec<_> = queries
        .iter()
        .map(|q| engine.submit(q.clone()).unwrap().answers)
        .collect();
    assert_eq!(engine.pending().len(), 0);
    assert_eq!(engine.delivered(), queries.len());
    answers
}

/// Submit the Figure 4 chain query-by-query on the row store and on the
/// oracle and compare each submit's full answer set.
#[test]
fn online_chain_outcomes_identical_per_submit() {
    let queries = fig4_queries(25);
    let db = pool_db(200);
    assert_eq!(
        transcript(&db, &queries),
        transcript(&scan_copy(&db), &queries)
    );
}

/// The activity-table chain (two body constants per query — the
/// intersection's stress shape) coordinates identically online on the
/// row store and on the oracle, submit by submit.
#[test]
fn online_activity_chain_outcomes_identical_per_submit() {
    let rows = 2_500; // k = 50
    let queries = activity_chain_queries(20, rows);
    let db = activity_db(rows);
    assert_eq!(
        transcript(&db, &queries),
        transcript(&scan_copy(&db), &queries)
    );
}

/// Batch coordination over the activity chain: identical coordinating
/// sets and identical per-query answers on the row store and on the
/// oracle.
#[test]
fn batch_activity_outcomes_identical() {
    let rows = 2_500;
    let n = 15;
    let queries = activity_chain_queries(n, rows);
    let db = activity_db(rows);
    let mut outcomes = Vec::new();
    for db in [&db, &scan_copy(&db)] {
        let out = SccCoordinator::new(db).run(&queries).unwrap();
        assert_eq!(out.found.len(), n);
        let best: Vec<String> = out.best_names().iter().map(ToString::to_string).collect();
        assert_eq!(best.len(), n);
        outcomes.push(best);
    }
    assert_eq!(outcomes[0], outcomes[1]);
}
