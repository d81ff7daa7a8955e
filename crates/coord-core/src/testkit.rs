//! Test oracles for the SCC algorithm and the online engines.
//!
//! Reference implementations the property suites and `reproduce` compare the
//! product paths against — kept out of [`crate::scc`] and [`crate::engine`]
//! so the product modules hold only what a service would run. A plain
//! `pub mod` (no feature flag), like `coord_store::testkit`: integration
//! tests and the `reproduce` binary of other crates need it.

use crate::engine::{answer_for, SubmitResult};
use crate::error::CoordError;
use crate::graphs::coordination_graph;
use crate::instance::QuerySet;
use crate::query::EntangledQuery;
use crate::scc::SccCoordinator;
use coord_db::Database;
use coord_graph::reach::weakly_connected_components;

/// The SCC Coordination Algorithm with differential evaluation turned
/// off: every closure is re-unified and re-rewritten from scratch. Its
/// results are byte-identical to [`SccCoordinator::new`]'s; it is the
/// baseline the differential equivalence suite and the grounding-work
/// scaling test compare against, and the evaluation [`RebuildEngine`]
/// runs.
pub fn from_scratch_scc(db: &Database) -> SccCoordinator<'_> {
    SccCoordinator::new(db).with_from_scratch_evaluation()
}

/// The pre-incremental engine: rebuilds the entire coordination graph
/// over all pending queries on every submit and evaluates the new
/// query's weakly connected component. Kept as the baseline the
/// `reproduce --only online` gate and the engine property tests compare the
/// incremental path against. Uses the same evaluation (the SCC
/// algorithm, from scratch instead of differentially) so the two paths
/// are behaviorally identical on workloads whose key-level candidates
/// match exactly the unifiable pairs.
pub struct RebuildEngine<'a> {
    db: &'a Database,
    pending: Vec<EntangledQuery>,
    delivered: usize,
    queries_examined: u64,
}

impl<'a> RebuildEngine<'a> {
    /// An engine over the given database.
    pub fn new(db: &'a Database) -> Self {
        RebuildEngine {
            db,
            pending: Vec::new(),
            delivered: 0,
            queries_examined: 0,
        }
    }

    /// Queries currently buffered.
    pub fn pending(&self) -> &[EntangledQuery] {
        &self.pending
    }

    /// Total queries answered and retired so far.
    pub fn delivered(&self) -> usize {
        self.delivered
    }

    /// Cumulative pending queries examined across submits — the graph is
    /// rebuilt over *all* pending queries per submit, so this grows
    /// quadratically in steady pending size (what the incremental engine
    /// avoids; compare with `MetricsSnapshot::queries_evaluated`).
    pub fn queries_examined(&self) -> u64 {
        self.queries_examined
    }

    /// Submit a new query: rebuild the coordination graph from scratch,
    /// evaluate the new query's component, deliver and retire on success.
    pub fn submit(&mut self, query: EntangledQuery) -> Result<SubmitResult, CoordError> {
        query.validate(self.db)?;
        self.pending.push(query);
        let new_idx = self.pending.len() - 1;
        self.queries_examined += self.pending.len() as u64;

        // Full rebuild: the coordination graph over every pending query.
        let qs = QuerySet::new(self.pending.clone());
        let graph = coordination_graph(&qs);
        let comps = weakly_connected_components(&graph);
        let component: Vec<usize> = comps
            .into_iter()
            .find(|c| c.iter().any(|n| n.index() == new_idx))
            .expect("new query must be in some component")
            .into_iter()
            .map(coord_graph::NodeId::index)
            .collect();

        let comp_queries: Vec<EntangledQuery> =
            component.iter().map(|&i| self.pending[i].clone()).collect();

        let outcome = match from_scratch_scc(self.db).run(&comp_queries) {
            Ok(o) => o,
            Err(e) => {
                // Reject the offending submission, keep earlier queries.
                self.pending.pop();
                return Err(e);
            }
        };

        let Some(best) = outcome.best() else {
            return Ok(SubmitResult::default());
        };

        // Build answers (variable names resolved per query).
        let comp_qs = QuerySet::new(comp_queries.clone());
        let mut answers = Vec::with_capacity(best.queries.len());
        for &q in &best.queries {
            answers.push(answer_for(&comp_qs, q, &best.grounding));
        }

        // Retire the coordinated queries from the buffer (descending
        // pending-index order keeps removal indices valid).
        let mut to_remove: Vec<usize> = best.queries.iter().map(|q| component[q.index()]).collect();
        to_remove.sort_unstable_by(|a, b| b.cmp(a));
        for i in to_remove {
            self.pending.remove(i);
        }
        self.delivered += answers.len();
        Ok(SubmitResult { answers })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::CoordinationEngine;
    use crate::parse::parse_query;
    use coord_db::Value;

    #[test]
    fn rebuild_engine_behaves_identically_on_the_running_example() {
        let mut db = Database::new();
        db.create_table("Flights", &["id", "dest"]).unwrap();
        db.insert("Flights", vec![Value::int(101), Value::str("Zurich")])
            .unwrap();
        let arrivals = [
            "gwyneth: {R(Chris, x)} R(Gwyneth, x) :- Flights(x, Zurich)",
            "chris: {} R(Chris, y) :- Flights(y, Zurich)",
        ]
        .map(|text| parse_query(text).unwrap());
        let mut inc = CoordinationEngine::new(&db);
        let mut reb = RebuildEngine::new(&db);
        for q in arrivals {
            let a = inc.submit(q.clone()).unwrap();
            let b = reb.submit(q).unwrap();
            assert_eq!(a.answers, b.answers);
        }
        assert_eq!(inc.pending().len(), reb.pending().len());
        assert_eq!(inc.delivered(), reb.delivered());
        // The rebuild engine examined 1 + 2 pending queries; the
        // incremental engine evaluated the same components but records
        // what it skipped.
        assert_eq!(reb.queries_examined(), 3);
    }
}
