//! A Youtopia-style online coordination engine (Section 6.1's system
//! context and the on-line setting raised in Section 7).
//!
//! The paper's prototype runs inside the Youtopia system: "when a new
//! query arrives, the system finds the set of queries this query can
//! coordinate with and updates the coordination graph accordingly. The
//! system then calls an evaluation method on the connected component that
//! the query belongs to" — and deletes answered queries afterwards.
//!
//! This module is now a thin adapter over the [`coord_engine`] service
//! crate, which maintains that loop *incrementally*: a persistent atom
//! index finds candidate partners without pairing against all pending
//! queries, and a union-find component index is updated on submit and
//! retire instead of being recomputed. [`CoordinationEngine`] keeps the
//! original single-submitter API on top of
//! [`coord_engine::IncrementalEngine`]; [`SharedEngine`] keeps the
//! thread-safe facade but is now backed by
//! [`coord_engine::ShardedEngine`], so submitters touching disjoint
//! components proceed concurrently instead of serializing behind one
//! mutex. The pre-incremental full-rebuild-per-submit loop survives as
//! the oracle [`crate::testkit::RebuildEngine`].

use crate::error::CoordError;
use crate::instance::QuerySet;
use crate::query::{EntangledQuery, QueryId};
use crate::scc::SccCoordinator;
use crate::semantics::Grounding;
use coord_db::{Atom, Database, Symbol, Term, Value};
use coord_engine::{ComponentEvaluator, CoordinationQuery, IncrementalEngine, ShardedEngine};
use coord_obs::Registry as ObsRegistry;
use std::sync::atomic::{AtomicU64, Ordering};

pub use coord_engine::{
    EngineMetrics, MetricsSnapshot, Placement, RebalanceConfig, RebalanceReport, Rebalancer,
    ShardStatsSnapshot,
};

/// Components at or below this size are evaluated with the exhaustive
/// search instead of the full SCC algorithm — the regime where the
/// `ablation_scc_vs_bruteforce` bench shows brute force winning (12µs vs
/// 30µs at n = 6). Online components are mostly tiny, so this is the
/// engine's common case.
pub const SMALL_COMPONENT_CUTOFF: usize = 6;

/// An answer delivered to a coordinated query: for each variable, its
/// chosen value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QueryAnswer {
    /// The answered query's name.
    pub query: String,
    /// (variable name, value) pairs in variable order.
    pub bindings: Vec<(String, Value)>,
}

/// Result of submitting a query to the engine.
#[derive(Clone, Debug, Default)]
pub struct SubmitResult {
    /// Answers for every query of the coordinating set found (possibly
    /// including queries submitted earlier), or empty if the new query
    /// stays pending.
    pub answers: Vec<QueryAnswer>,
}

impl SubmitResult {
    /// Whether a coordinating set was found and delivered.
    pub fn coordinated(&self) -> bool {
        !self.answers.is_empty()
    }
}

/// The key pattern of an answer atom: its relation plus the first
/// argument when it is a constant (the coordination-attribute position of
/// the common `R(user, tuple)` shape), or a wildcard otherwise.
fn key_pattern(atom: &Atom) -> (Symbol, Option<Value>) {
    match atom.terms.first() {
        Some(Term::Const(c)) => (atom.relation.clone(), Some(c.clone())),
        _ => (atom.relation.clone(), None),
    }
}

impl CoordinationQuery for EntangledQuery {
    type Rel = Symbol;
    type Cst = Value;

    fn provides(&self) -> Vec<(Symbol, Option<Value>)> {
        self.heads().iter().map(key_pattern).collect()
    }

    fn requires(&self) -> Vec<(Symbol, Option<Value>)> {
        self.postconditions().iter().map(key_pattern).collect()
    }
}

/// The component evaluator wiring the SCC Coordination Algorithm (with
/// the small-instance brute-force fast path) into the service crate.
/// It keeps no state between evaluations: each one is a fresh sweep over
/// the component's pending queries, so clones (one per shard in the
/// sharded engine) are interchangeable and component migration between
/// shards has nothing to carry along.
#[derive(Clone)]
pub struct SccEvaluator<'a> {
    db: &'a Database,
}

impl<'a> SccEvaluator<'a> {
    /// An evaluator over the given database.
    pub fn new(db: &'a Database) -> Self {
        SccEvaluator { db }
    }
}

impl ComponentEvaluator<EntangledQuery> for SccEvaluator<'_> {
    type Delivery = Vec<QueryAnswer>;
    type Error = CoordError;

    fn evaluate(
        &self,
        queries: &[EntangledQuery],
    ) -> Result<Option<(Vec<usize>, Vec<QueryAnswer>)>, CoordError> {
        let outcome = SccCoordinator::new(self.db)
            .with_bruteforce_cutoff(SMALL_COMPONENT_CUTOFF)
            .run(queries)?;
        let Some(best) = outcome.best() else {
            return Ok(None);
        };
        let answers = best
            .queries
            .iter()
            .map(|&q| answer_for(&outcome.qs, q, &best.grounding))
            .collect();
        let members = best.queries.iter().map(|q| q.index()).collect();
        Ok(Some((members, answers)))
    }
}

/// The online evaluation loop: buffer queries, evaluate the affected
/// connected component on each arrival, deliver and retire coordinated
/// queries. Coordination state (atom index, components) is maintained
/// incrementally across submits.
pub struct CoordinationEngine<'a> {
    db: &'a Database,
    inner: IncrementalEngine<EntangledQuery, SccEvaluator<'a>>,
    /// The id handed to the engine by the latest submit.
    last_id: u64,
}

impl<'a> CoordinationEngine<'a> {
    /// An engine over the given database.
    pub fn new(db: &'a Database) -> Self {
        CoordinationEngine {
            db,
            inner: IncrementalEngine::new(SccEvaluator::new(db)),
            last_id: 0,
        }
    }

    /// Queries currently buffered (unsatisfied coordination requirements).
    pub fn pending(&self) -> Vec<&EntangledQuery> {
        self.inner.pending().map(|(_, q)| q).collect()
    }

    /// Total queries answered and retired so far.
    pub fn delivered(&self) -> usize {
        self.inner.delivered() as usize
    }

    /// The engine's incremental-maintenance metrics.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.inner.metrics().snapshot()
    }

    /// Number of incrementally maintained components over the pending
    /// queries.
    pub fn component_count(&self) -> usize {
        self.inner.component_count()
    }

    /// Submit a new query: update the coordination state, evaluate the
    /// component the query belongs to, and — if a coordinating set is
    /// found there — deliver answers and delete those queries from the
    /// buffer.
    ///
    /// If the new query makes its component unsafe, the query is rejected
    /// and the error returned; previously pending queries are unaffected.
    pub fn submit(&mut self, query: EntangledQuery) -> Result<SubmitResult, CoordError> {
        query.validate(self.db)?;
        self.last_id += 1;
        let outcome = self.inner.submit(self.last_id, query)?;
        Ok(SubmitResult {
            answers: outcome.delivery.unwrap_or_default(),
        })
    }

    /// Submit a batch of queries, collecting every delivered answer.
    pub fn submit_all(
        &mut self,
        queries: impl IntoIterator<Item = EntangledQuery>,
    ) -> Result<Vec<QueryAnswer>, CoordError> {
        let mut out = Vec::new();
        for q in queries {
            out.extend(self.submit(q)?.answers);
        }
        Ok(out)
    }

    /// Check the engine's internal invariants (slab/index/component
    /// consistency); panics with a description on violation.
    pub fn validate_invariants(&mut self) {
        self.inner.validate_invariants();
    }
}

pub(crate) fn answer_for(qs: &QuerySet, q: QueryId, grounding: &Grounding) -> QueryAnswer {
    let query = qs.query(q);
    let mut bindings = Vec::with_capacity(query.var_count() as usize);
    for local in 0..query.var_count() {
        let v = coord_db::Var(local);
        let g = qs.global_var(q, v);
        if let Some(value) = grounding.get(g) {
            bindings.push((query.var_name(v).to_string(), value.clone()));
        }
    }
    QueryAnswer {
        query: query.name().to_string(),
        bindings,
    }
}

/// A thread-safe facade over the coordination engine for concurrent
/// submitters (e.g. a server front end). Backed by the sharded service:
/// each component shard has its own lock, so submitters touching
/// disjoint components make concurrent progress.
pub struct SharedEngine<'a> {
    db: &'a Database,
    inner: ShardedEngine<EntangledQuery, SccEvaluator<'a>>,
    /// The id the next submit hands the engine.
    next_id: AtomicU64,
}

/// The default shard count of the concurrent engines: one per available
/// CPU, capped at 16.
pub(crate) fn default_shards() -> usize {
    std::thread::available_parallelism()
        .map_or(4, std::num::NonZero::get)
        .clamp(1, 16)
}

impl<'a> SharedEngine<'a> {
    /// An engine with one shard per available CPU (capped at 16).
    pub fn new(db: &'a Database) -> Self {
        Self::with_shards(db, default_shards())
    }

    /// An engine with an explicit shard count (least-loaded placement,
    /// default rebalance tuning).
    pub fn with_shards(db: &'a Database, shards: usize) -> Self {
        Self::with_config(db, shards, Placement::default(), RebalanceConfig::default())
    }

    /// An engine with explicit shard count, placement policy, and
    /// rebalance tuning (and its own enabled observability registry).
    pub fn with_config(
        db: &'a Database,
        shards: usize,
        placement: Placement,
        rebalance: RebalanceConfig,
    ) -> Self {
        Self::with_obs(db, shards, placement, rebalance, ObsRegistry::new())
    }

    /// An engine recording into an explicit observability registry —
    /// pass [`ObsRegistry::disabled`] to compile every histogram, trace
    /// event, and export hook down to a branch per call (the overhead
    /// gate in `online_throughput` holds the enabled/disabled gap under
    /// 5%).
    pub fn with_obs(
        db: &'a Database,
        shards: usize,
        placement: Placement,
        rebalance: RebalanceConfig,
        obs: ObsRegistry,
    ) -> Self {
        let inner = ShardedEngine::with_obs(SccEvaluator::new(db), shards, placement, obs);
        inner.set_rebalance_config(rebalance);
        SharedEngine {
            db,
            inner,
            next_id: AtomicU64::new(0),
        }
    }

    /// One skew-correction pass: detect a hot shard from the per-shard
    /// load windows and move its costliest component groups to colder
    /// shards via the marker-based migration protocol. Safe to call
    /// from any thread at any time — rebalancing never changes a
    /// coordination result (see `tests/equivalence_props.rs`).
    pub fn rebalance(&self) -> RebalanceReport {
        self.inner.rebalance()
    }

    /// Submit a query under its component shard's lock.
    pub fn submit(&self, query: EntangledQuery) -> Result<SubmitResult, CoordError> {
        query.validate(self.db)?;
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let outcome = self.inner.submit(id, query)?;
        Ok(SubmitResult {
            answers: outcome.delivery.unwrap_or_default(),
        })
    }

    /// Number of pending queries (across all shards).
    pub fn pending_count(&self) -> usize {
        self.inner.pending_count()
    }

    /// Clones of all pending queries (a moving snapshot under
    /// concurrent submits).
    pub fn pending(&self) -> Vec<EntangledQuery> {
        self.inner.pending().into_iter().map(|(_, q)| q).collect()
    }

    /// Total delivered answers.
    pub fn delivered(&self) -> usize {
        self.inner.delivered() as usize
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.inner.shard_count()
    }

    /// Aggregated engine metrics.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.inner.metrics().snapshot()
    }

    /// Per-shard submit/contention statistics.
    pub fn shard_stats(&self) -> Vec<ShardStatsSnapshot> {
        self.inner.shard_stats()
    }

    /// The observability registry this engine records into: `engine_*`
    /// counters, submit/lock-wait/migration/rebalance histograms, and
    /// the trace ring.
    pub fn obs(&self) -> &ObsRegistry {
        self.inner.obs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::QueryBuilder;

    fn db() -> Database {
        let mut db = Database::new();
        db.create_table("Flights", &["id", "dest"]).unwrap();
        db.insert("Flights", vec![Value::int(101), Value::str("Zurich")])
            .unwrap();
        db
    }

    fn gwyneth() -> EntangledQuery {
        QueryBuilder::new("gwyneth")
            .postcondition("R", |a| a.constant("Chris").var("x"))
            .head("R", |a| a.constant("Gwyneth").var("x"))
            .body("Flights", |a| a.var("x").constant("Zurich"))
            .build()
            .unwrap()
    }

    fn chris() -> EntangledQuery {
        QueryBuilder::new("chris")
            .head("R", |a| a.constant("Chris").var("y"))
            .body("Flights", |a| a.var("y").constant("Zurich"))
            .build()
            .unwrap()
    }

    #[test]
    fn coordination_happens_on_second_arrival() {
        let db = db();
        let mut engine = CoordinationEngine::new(&db);
        // Gwyneth arrives first: she needs Chris, so she waits.
        let r1 = engine.submit(gwyneth()).unwrap();
        assert!(!r1.coordinated());
        assert_eq!(engine.pending().len(), 1);
        // Chris arrives: both coordinate and are retired.
        let r2 = engine.submit(chris()).unwrap();
        assert!(r2.coordinated());
        assert_eq!(r2.answers.len(), 2);
        assert_eq!(engine.pending().len(), 0);
        assert_eq!(engine.delivered(), 2);
        // Both got flight 101.
        for a in &r2.answers {
            assert_eq!(a.bindings[0].1, Value::int(101));
        }
    }

    #[test]
    fn chris_alone_coordinates_immediately() {
        // Chris has no postconditions: a singleton coordinating set.
        let db = db();
        let mut engine = CoordinationEngine::new(&db);
        let r = engine.submit(chris()).unwrap();
        assert!(r.coordinated());
        assert_eq!(r.answers[0].query, "chris");
    }

    #[test]
    fn unrelated_pending_queries_are_untouched() {
        let db = db();
        let mut engine = CoordinationEngine::new(&db);
        engine.submit(gwyneth()).unwrap();
        // An unrelated waiting query in a different component.
        let waiting = QueryBuilder::new("waiting")
            .postcondition("S", |a| a.constant("nobody").var("z"))
            .head("S", |a| a.constant("waiting").var("z"))
            .body("Flights", |a| a.var("z").constant("Zurich"))
            .build()
            .unwrap();
        let r = engine.submit(waiting).unwrap();
        assert!(!r.coordinated());
        assert_eq!(engine.pending().len(), 2);
        assert_eq!(engine.component_count(), 2);
        // Chris's arrival answers Gwyneth + Chris but not `waiting`.
        let r2 = engine.submit(chris()).unwrap();
        assert_eq!(r2.answers.len(), 2);
        assert_eq!(engine.pending().len(), 1);
        assert_eq!(engine.pending()[0].name(), "waiting");
        engine.validate_invariants();
    }

    #[test]
    fn unsafe_submission_is_rejected_and_buffer_preserved() {
        let db = db();
        let mut engine = CoordinationEngine::new(&db);
        engine.submit(gwyneth()).unwrap();
        // A second producer of R(Chris, ·) *plus* a consumer makes the
        // component unsafe once Chris arrives twice. Simulate: submit two
        // Chris-producers; the second makes Gwyneth's postcondition
        // ambiguous.
        engine.submit(chris()).unwrap(); // coordinates and retires both
        engine.submit(gwyneth()).unwrap();
        let chris2 = QueryBuilder::new("chris2")
            .head("R", |a| a.constant("Chris").var("y"))
            .body("Flights", |a| a.var("y").constant("Zurich"))
            .build()
            .unwrap();
        // chris2 coordinates with gwyneth (safe: one producer).
        let r = engine.submit(chris2).unwrap();
        assert!(r.coordinated());

        // Now build an actually-unsafe arrival: two producers pending at
        // once. Pend a consumer and one producer that cannot ground, then
        // submit a second producer — the set {consumer, p1, p2} is unsafe.
        let consumer = QueryBuilder::new("consumer")
            .postcondition("R", |a| a.constant("X").var("v"))
            .head("R", |a| a.constant("consumer").var("v"))
            .body("Flights", |a| a.var("v").constant("Nowhere"))
            .build()
            .unwrap();
        let p1 = QueryBuilder::new("p1")
            .head("R", |a| a.constant("X").var("w"))
            .body("Flights", |a| a.var("w").constant("Nowhere"))
            .build()
            .unwrap();
        let p2 = QueryBuilder::new("p2")
            .head("R", |a| a.constant("X").var("u"))
            .body("Flights", |a| a.var("u").constant("Nowhere"))
            .build()
            .unwrap();
        engine.submit(consumer).unwrap();
        engine.submit(p1).unwrap();
        let before = engine.pending().len();
        let err = engine.submit(p2).unwrap_err();
        assert!(matches!(err, CoordError::UnsafeSet { .. }));
        assert_eq!(engine.pending().len(), before, "rejected query dropped");
        engine.validate_invariants();
    }

    #[test]
    fn shared_engine_is_threadable() {
        let db = db();
        let engine = SharedEngine::new(&db);
        std::thread::scope(|s| {
            s.spawn(|| {
                engine.submit(gwyneth()).unwrap();
            });
        });
        // After Gwyneth (from the other thread), Chris completes the pair.
        let r = engine.submit(chris()).unwrap();
        assert!(r.coordinated());
        assert_eq!(engine.pending_count(), 0);
        assert_eq!(engine.delivered(), 2);
    }

    #[test]
    fn incremental_metrics_track_avoided_work() {
        let db = db();
        let mut engine = CoordinationEngine::new(&db);
        // Ten unrelated waiters, then one more: the last submit must only
        // evaluate its own singleton component, not all pending queries.
        for i in 0..10 {
            let waiting = QueryBuilder::new(format!("w{i}"))
                .postcondition("W", |a| a.constant(format!("nobody{i}")).var("z"))
                .head("W", |a| a.constant(format!("w{i}")).var("z"))
                .body("Flights", |a| a.var("z").constant("Zurich"))
                .build()
                .unwrap();
            engine.submit(waiting).unwrap();
        }
        let snap = engine.metrics();
        assert_eq!(snap.submits, 10);
        // Every component was a singleton: one query evaluated per submit.
        assert_eq!(snap.queries_evaluated, 10);
        // A full rebuild would have examined 1+2+…+10 = 55 queries.
        assert_eq!(snap.rebuild_avoided, 45);
    }
}
