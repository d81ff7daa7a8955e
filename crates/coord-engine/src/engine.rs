//! The incremental online coordination engine.
//!
//! The paper's Youtopia setting (Section 7): queries arrive online, the
//! system updates the coordination graph and evaluates only the affected
//! connected component. The pre-incremental engine recomputed the entire
//! coordination graph from scratch on every submit — O(n²) pairing work
//! over all pending queries. [`IncrementalEngine`] instead maintains
//! coordination state *across* submits:
//!
//! * a persistent [`AtomIndex`] so a new query unifies only against
//!   candidate partners (queries sharing a bucket),
//! * a [`UnionFind`] component index updated on submit (union with each
//!   candidate) and on retire (local re-partition of the survivors),
//! * pluggable component evaluation via [`ComponentEvaluator`], so this
//!   crate stays below the algorithm crate in the workspace DAG.
//!
//! Candidate discovery is conservative (bucket-level, not full
//! unification), so a maintained component is a *superset* of the true
//! weakly connected component — never a split of one. Evaluating a
//! superset is sound: extra queries were already stable (their own
//! components were evaluated when they last changed), and the evaluator
//! sees every query the true component contains.
//!
//! Every pending query carries a `u64` id chosen by the caller at submit
//! (the durable layer passes its log seq, the bare facades a counter).
//! It must be unique among pending queries and is otherwise opaque: it
//! travels with the query through migrations and comes back with the
//! query when it retires or is extracted, so callers name retired
//! queries by id, not by value.

use crate::index::{AtomIndex, KeyPattern, Polarity};
use crate::metrics::{EngineMetrics, ShardStats};
use coord_graph::UnionFind;
use coord_obs::Tracer;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::hash::Hash;
use std::sync::Arc;

/// A query the coordination service can index and route: it declares the
/// key patterns of what it *provides* (head atoms) and *requires*
/// (postcondition atoms). Two queries may coordinate only if a required
/// pattern of one matches a provided pattern of the other (see
/// [`crate::index::AtomIndex`] for the matching rules).
pub trait CoordinationQuery: Clone {
    /// Relation symbol type.
    type Rel: Clone + Eq + Hash;
    /// Coordination-attribute constant type. `Ord` because the shared
    /// index keeps a relation's buckets sorted, making wildcard
    /// candidate enumeration deterministic.
    type Cst: Clone + Eq + Hash + Ord;

    /// Key patterns of the query's produced (head) atoms.
    fn provides(&self) -> Vec<KeyPattern<Self::Rel, Self::Cst>>;

    /// Key patterns of the query's required (postcondition) atoms.
    fn requires(&self) -> Vec<KeyPattern<Self::Rel, Self::Cst>>;
}

/// A component evaluation verdict: `Ok(Some((members, delivery)))` when a
/// coordinating set was found (member indices into the evaluated slice),
/// `Ok(None)` when nothing coordinates yet.
pub type EvalVerdict<D, E> = Result<Option<(Vec<usize>, D)>, E>;

/// Evaluates one (conservatively over-approximated) connected component
/// of pending queries and reports a coordinating set, if any.
pub trait ComponentEvaluator<Q> {
    /// What a coordinated set delivers to its submitters (e.g. answers).
    type Delivery;
    /// Evaluation failure (e.g. the component became unsafe).
    type Error;

    /// Evaluate `queries`; on success return the indices (into `queries`)
    /// of the coordinating-set members plus the delivery, or `None` if no
    /// set coordinates yet.
    fn evaluate(&self, queries: &[Q]) -> EvalVerdict<Self::Delivery, Self::Error>;
}

/// Result of one submit.
#[derive(Clone, Debug)]
pub struct SubmitOutcome<Q, D> {
    /// The delivery produced by a coordinating set, or `None` while the
    /// submitted query stays pending.
    pub delivery: Option<D>,
    /// The queries answered and removed from the pending set, each with
    /// the id it was submitted under (possibly including the one just
    /// submitted).
    pub retired: Vec<(u64, Q)>,
}

impl<Q, D> SubmitOutcome<Q, D> {
    /// Whether a coordinating set was found and delivered.
    pub fn coordinated(&self) -> bool {
        self.delivery.is_some()
    }
}

/// Result of the transitive related-component selection: the selected
/// live tokens plus the full key set they hold.
type RelatedSelection<Q> = (
    HashSet<usize>,
    Vec<KeyPattern<<Q as CoordinationQuery>::Rel, <Q as CoordinationQuery>::Cst>>,
);

/// One pending query with its caller-assigned id and its cached key
/// patterns (cached so removal un-indexes exactly what insertion
/// indexed).
struct Entry<Q: CoordinationQuery> {
    id: u64,
    query: Q,
    provides: Vec<KeyPattern<Q::Rel, Q::Cst>>,
    requires: Vec<KeyPattern<Q::Rel, Q::Cst>>,
    /// Evaluations this query participated in while pending here — the
    /// observed-cost signal the rebalancer sums per component when
    /// picking victims. Reset when the query migrates to another shard
    /// (migration re-inserts it), which keeps the figure local to the
    /// shard being drained.
    cost: u64,
}

impl<Q: CoordinationQuery> Entry<Q> {
    /// Append every key this entry holds that `keys` lacks.
    fn add_keys_to(&self, keys: &mut Vec<KeyPattern<Q::Rel, Q::Cst>>) {
        for k in self.provides.iter().chain(&self.requires) {
            if !keys.contains(k) {
                keys.push(k.clone());
            }
        }
    }
}

/// One maintained component's routing keys, membership size, and
/// observed evaluation cost — the unit the rebalancer moves.
#[derive(Clone, Debug)]
pub struct ComponentGroup<R, C> {
    /// Every key pattern held by the component's members (deduplicated).
    pub keys: Vec<KeyPattern<R, C>>,
    /// Number of pending queries in the component.
    pub size: usize,
    /// Sum of the members' evaluation-participation counts.
    pub cost: u64,
}

/// The single-writer incremental engine: one of these sits behind each
/// shard lock of a [`crate::sharded::ShardedEngine`], or can be used
/// directly for a single-threaded service.
pub struct IncrementalEngine<Q: CoordinationQuery, V> {
    evaluator: V,
    metrics: Arc<EngineMetrics>,
    /// Per-shard load sink when this engine sits behind a shard lock
    /// (`None` for standalone use): receives the evaluation-work counts
    /// the rebalancer's skew detection reads.
    shard_stats: Option<Arc<ShardStats>>,
    /// Trace sink for per-submit evaluate spans (disabled by default;
    /// the sharded engine wires its registry's tracer in).
    tracer: Tracer,
    /// Slab of pending queries; retired slots are recycled via `free`.
    slots: Vec<Option<Entry<Q>>>,
    free: Vec<usize>,
    live: usize,
    index: AtomIndex<Q::Rel, Q::Cst>,
    uf: UnionFind,
    /// Component membership: union-find root → live tokens.
    members: HashMap<usize, Vec<usize>>,
    delivered: u64,
}

impl<Q: CoordinationQuery, V: ComponentEvaluator<Q>> IncrementalEngine<Q, V> {
    /// An engine with fresh metrics.
    pub fn new(evaluator: V) -> Self {
        Self::with_metrics(evaluator, Arc::new(EngineMetrics::new()))
    }

    /// An engine reporting into shared metrics (used by the sharded
    /// engine so all shards aggregate into one set of counters).
    pub fn with_metrics(evaluator: V, metrics: Arc<EngineMetrics>) -> Self {
        IncrementalEngine {
            evaluator,
            metrics,
            shard_stats: None,
            tracer: Tracer::disabled(),
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            index: AtomIndex::new(),
            uf: UnionFind::new(0),
            members: HashMap::new(),
            delivered: 0,
        }
    }

    /// Attach a per-shard load sink: evaluation work performed by this
    /// engine is also recorded there (used by the sharded engine so the
    /// rebalancer can see *which* shard the work landed on).
    pub fn set_shard_stats(&mut self, stats: Arc<ShardStats>) {
        self.shard_stats = Some(stats);
    }

    /// Attach a trace sink: each submit's component evaluation becomes
    /// a `evaluate` begin/end span in the ring.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Number of pending queries.
    pub fn pending_count(&self) -> usize {
        self.live
    }

    /// Pending queries with their ids, in slot order.
    pub fn pending(&self) -> impl Iterator<Item = (u64, &Q)> {
        self.slots
            .iter()
            .filter_map(|s| s.as_ref())
            .map(|e| (e.id, &e.query))
    }

    /// Total queries answered and retired.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Number of maintained (conservative) connected components.
    pub fn component_count(&self) -> usize {
        self.members.len()
    }

    /// The engine's metrics handle.
    pub fn metrics(&self) -> &Arc<EngineMetrics> {
        &self.metrics
    }

    /// Submit a new query: look up candidate partners through the atom
    /// index, evaluate the (incrementally maintained) component the query
    /// would join, and — if a coordinating set is found — deliver and
    /// retire its members, re-partitioning the survivors locally.
    ///
    /// On evaluator error the query is rejected and the pending set is
    /// left untouched (evaluation happens *before* the state commits).
    /// `id` names the query while it is pending and when it retires.
    pub fn submit(&mut self, id: u64, query: Q) -> Result<SubmitOutcome<Q, V::Delivery>, V::Error> {
        EngineMetrics::add(&self.metrics.submits, 1);
        let provides = query.provides();
        let requires = query.requires();
        let (candidates, examined) = self.index.candidates(&provides, &requires);
        EngineMetrics::add(&self.metrics.pairings_checked, examined);

        // The component the query joins: every candidate's current
        // component, merged. (Computed read-only so a rejection leaves no
        // trace.)
        let roots: BTreeSet<usize> = candidates.iter().map(|&c| self.uf.find(c)).collect();
        let mut tokens: Vec<usize> = Vec::new();
        for r in &roots {
            tokens.extend_from_slice(&self.members[r]);
        }

        let mut batch: Vec<Q> = tokens
            .iter()
            .map(|&t| {
                self.slots[t]
                    .as_ref()
                    .expect("member token is live")
                    .query
                    .clone()
            })
            .collect();
        batch.push(query.clone());

        EngineMetrics::add(&self.metrics.queries_evaluated, batch.len() as u64);
        if let Some(stats) = &self.shard_stats {
            EngineMetrics::add(&stats.eval_queries, batch.len() as u64);
        }
        EngineMetrics::add(
            &self.metrics.rebuild_avoided,
            (self.live + 1 - batch.len()) as u64,
        );
        EngineMetrics::add(&self.metrics.evaluations, 1);

        let verdict = {
            // The evaluate span carries the submit's request id (the
            // sharded layer installed it as the thread's current
            // context); a bare engine with no enclosing ticket records
            // id 0 as before.
            let _span = self
                .tracer
                .begin_in(coord_obs::TraceCtx::current(), "evaluate");
            self.evaluator.evaluate(&batch)?
        };

        // Commit: insert the query and link it with every candidate;
        // every evaluated member's observed cost grows by one.
        for &t in &tokens {
            self.slots[t].as_mut().expect("member token is live").cost += 1;
        }
        let token = self.insert(id, query, provides, requires);
        self.slots[token].as_mut().expect("just inserted").cost += 1;
        for &c in &candidates {
            self.link(token, c);
        }

        match verdict {
            None => Ok(SubmitOutcome {
                delivery: None,
                retired: Vec::new(),
            }),
            Some((set, delivery)) => {
                // Batch order was `tokens` then the new query.
                let retired_tokens: Vec<usize> = set
                    .iter()
                    .map(|&i| if i < tokens.len() { tokens[i] } else { token })
                    .collect();
                let retired = self.retire(&retired_tokens);
                self.delivered += retired.len() as u64;
                EngineMetrics::add(&self.metrics.delivered, retired.len() as u64);
                Ok(SubmitOutcome {
                    delivery: Some(delivery),
                    retired,
                })
            }
        }
    }

    /// Insert a query that is already known to be stable-pending, linking
    /// it into the component index without evaluating. Used when a
    /// cross-shard merge migrates queries between shards: linked pairs
    /// are always co-sharded, so migrated queries cannot newly coordinate
    /// until a later submit touches their component.
    pub fn insert_pending(&mut self, id: u64, query: Q) {
        let provides = query.provides();
        let requires = query.requires();
        let (candidates, examined) = self.index.candidates(&provides, &requires);
        EngineMetrics::add(&self.metrics.pairings_checked, examined);
        let token = self.insert(id, query, provides, requires);
        for &c in &candidates {
            self.link(token, c);
        }
    }

    /// The transitive selection shared by [`Self::extract_related`] and
    /// [`Self::related_keys`]: every live token in a component holding a
    /// key related to `seed`, plus the full key set those tokens hold
    /// (seeded with `seed` itself). `&mut` only for union-find path
    /// compression — the engine's observable state is untouched.
    fn select_related(&mut self, seed: &[KeyPattern<Q::Rel, Q::Cst>]) -> RelatedSelection<Q> {
        let mut keys: Vec<KeyPattern<Q::Rel, Q::Cst>> = seed.to_vec();
        let mut selected: HashSet<usize> = HashSet::new();
        loop {
            let mut newly: Vec<usize> = Vec::new();
            for (t, slot) in self.slots.iter().enumerate() {
                let Some(e) = slot else { continue };
                if selected.contains(&t) {
                    continue;
                }
                let hit = e
                    .provides
                    .iter()
                    .chain(&e.requires)
                    .any(|k| keys.iter().any(|s| crate::index::keys_related(s, k)));
                if hit {
                    newly.push(t);
                }
            }
            if newly.is_empty() {
                break;
            }
            // Expand to whole components and grow the key set.
            for t in newly {
                let root = self.uf.find(t);
                let members = self.members[&root].clone();
                for m in members {
                    if selected.insert(m) {
                        let e = self.slots[m].as_ref().expect("member token is live");
                        e.add_keys_to(&mut keys);
                    }
                }
            }
        }
        (selected, keys)
    }

    /// Every maintained component's routing keys, size, and observed
    /// evaluation cost. The sharded engine's rebalancer scans the hot
    /// shard with this — under that shard's lock only — to pick victim
    /// groups by cost. Ordered by component root token so victim
    /// selection (and therefore single-threaded rebalancing) is
    /// deterministic.
    pub fn component_groups(&self) -> Vec<ComponentGroup<Q::Rel, Q::Cst>> {
        let mut roots: Vec<usize> = self.members.keys().copied().collect();
        roots.sort_unstable();
        roots
            .into_iter()
            .map(|root| {
                let members = &self.members[&root];
                let mut keys: Vec<KeyPattern<Q::Rel, Q::Cst>> = Vec::new();
                let mut cost = 0u64;
                for &m in members {
                    let e = self.slots[m].as_ref().expect("member token is live");
                    cost += e.cost;
                    e.add_keys_to(&mut keys);
                }
                ComponentGroup {
                    keys,
                    size: members.len(),
                    cost,
                }
            })
            .collect()
    }

    /// The full key set held by components related — transitively over
    /// shared keys — to `seed`, including `seed` itself, without removing
    /// anything. The sharded engine's migration protocol uses this to
    /// freeze (mark) a component group's complete key closure *before*
    /// extracting it, so the router write lock never has to be held
    /// across the slab scan.
    pub fn related_keys(
        &mut self,
        seed: &[KeyPattern<Q::Rel, Q::Cst>],
    ) -> Vec<KeyPattern<Q::Rel, Q::Cst>> {
        self.select_related(seed).1
    }

    /// Remove and return, with its id, every query in a component holding
    /// a key related to `seed` — *transitively*: keys of extracted
    /// queries join the working set, so all holders of every affected
    /// key leave together (the invariant cross-shard routing relies on).
    pub fn extract_related(&mut self, seed: &[KeyPattern<Q::Rel, Q::Cst>]) -> Vec<(u64, Q)> {
        let (selected, _keys) = self.select_related(seed);

        // Selected tokens are whole components: drop them wholesale.
        let roots: BTreeSet<usize> = selected.iter().map(|&t| self.uf.find(t)).collect();
        for r in roots {
            self.members.remove(&r);
        }
        let mut tokens: Vec<usize> = selected.into_iter().collect();
        tokens.sort_unstable();
        tokens.into_iter().map(|t| self.remove(t)).collect()
    }

    /// Check internal consistency (slab, index, union-find, membership).
    /// Cheap enough for a service health endpoint; the property tests
    /// call it after every submit.
    ///
    /// # Panics
    /// Panics with a description if an invariant is violated.
    pub fn validate_invariants(&mut self) {
        let live_tokens: Vec<usize> = self
            .slots
            .iter()
            .enumerate()
            .filter_map(|(t, s)| s.as_ref().map(|_| t))
            .collect();
        assert_eq!(live_tokens.len(), self.live, "live count drifted");
        let mut ids: HashSet<u64> = HashSet::new();
        for (id, _) in self.pending() {
            assert!(ids.insert(id), "id {id} pending twice");
        }
        let freed: HashSet<usize> = self.free.iter().copied().collect();
        assert_eq!(freed.len(), self.free.len(), "free list has duplicates");
        for &t in &live_tokens {
            assert!(!freed.contains(&t), "token {t} both live and free");
        }

        // `members` partitions the live tokens by union-find root.
        let mut seen: HashSet<usize> = HashSet::new();
        for (&root, members) in &self.members {
            assert!(!members.is_empty(), "empty component {root}");
            for &m in members {
                assert!(self.slots[m].is_some(), "member {m} not live");
                assert!(seen.insert(m), "token {m} in two components");
                assert_eq!(
                    self.uf.find(m),
                    self.uf.find(root),
                    "member {m} root drifted"
                );
            }
        }
        assert_eq!(seen.len(), self.live, "components do not cover pending");
    }

    fn insert(
        &mut self,
        id: u64,
        query: Q,
        provides: Vec<KeyPattern<Q::Rel, Q::Cst>>,
        requires: Vec<KeyPattern<Q::Rel, Q::Cst>>,
    ) -> usize {
        let token = match self.free.pop() {
            Some(t) => {
                // A recycled slot: make it a singleton again (sound: no
                // live element has a freed token as union-find parent).
                self.uf.reset(&[t]);
                t
            }
            None => {
                self.slots.push(None);
                self.uf.push()
            }
        };
        for k in &provides {
            self.index.insert(token, Polarity::Provides, k);
        }
        for k in &requires {
            self.index.insert(token, Polarity::Requires, k);
        }
        self.slots[token] = Some(Entry {
            id,
            query,
            provides,
            requires,
            cost: 0,
        });
        self.members.insert(token, vec![token]);
        self.live += 1;
        token
    }

    /// Take live `token` out of the slab and the index, returning its id
    /// and query. Its component membership is the caller's to fix.
    fn remove(&mut self, token: usize) -> (u64, Q) {
        let e = self.slots[token].take().expect("removed token is live");
        for k in &e.provides {
            self.index.remove(token, Polarity::Provides, k);
        }
        for k in &e.requires {
            self.index.remove(token, Polarity::Requires, k);
        }
        self.free.push(token);
        self.live -= 1;
        (e.id, e.query)
    }

    /// Union the components of `a` and `b`, merging membership lists.
    fn link(&mut self, a: usize, b: usize) {
        let ra = self.uf.find(a);
        let rb = self.uf.find(b);
        if ra == rb {
            return;
        }
        let winner = self.uf.union(ra, rb).expect("distinct roots merge");
        let loser = if winner == ra { rb } else { ra };
        let mut moved = self.members.remove(&loser).expect("loser had members");
        self.members
            .get_mut(&winner)
            .expect("winner has members")
            .append(&mut moved);
    }

    /// Remove the retired tokens and locally re-partition the surviving
    /// members of the affected components: survivors are reset to
    /// singletons and re-linked through the index — work bounded by the
    /// component size, not the pending-set size.
    fn retire(&mut self, retired: &[usize]) -> Vec<(u64, Q)> {
        let roots: BTreeSet<usize> = retired.iter().map(|&t| self.uf.find(t)).collect();
        let mut affected: Vec<usize> = Vec::new();
        for r in &roots {
            affected.extend(self.members.remove(r).expect("affected root has members"));
        }
        let retired_set: HashSet<usize> = retired.iter().copied().collect();
        let survivors: Vec<usize> = affected
            .iter()
            .copied()
            .filter(|t| !retired_set.contains(t))
            .collect();

        let out = retired.iter().map(|&t| self.remove(t)).collect();

        if !survivors.is_empty() {
            EngineMetrics::add(&self.metrics.repartitions, 1);
            // `affected` is the complete membership of the affected
            // components (closed under union-find parents), so resetting
            // it wholesale is sound.
            self.uf.reset(&affected);
            for &s in &survivors {
                self.members.insert(s, vec![s]);
            }
            for &s in &survivors {
                let (candidates, examined) = {
                    let e = self.slots[s].as_ref().expect("survivor is live");
                    self.index.candidates(&e.provides, &e.requires)
                };
                EngineMetrics::add(&self.metrics.pairings_checked, examined);
                for c in candidates {
                    if c != s {
                        self.link(s, c);
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::{chain_query, SaturationEvaluator, TestQuery};

    #[test]
    fn chain_coordinates_when_complete() {
        let mut engine = IncrementalEngine::new(SaturationEvaluator);
        // q0 → q1 → q2; nothing coordinates until q2 (free) arrives.
        let r0 = engine.submit(0, chain_query(0, Some(1))).unwrap();
        assert!(!r0.coordinated());
        let r1 = engine.submit(1, chain_query(1, Some(2))).unwrap();
        assert!(!r1.coordinated());
        assert_eq!(engine.pending_count(), 2);
        assert_eq!(engine.component_count(), 1);
        engine.validate_invariants();

        let r2 = engine.submit(2, chain_query(2, None)).unwrap();
        assert!(r2.coordinated());
        assert_eq!(r2.retired.len(), 3);
        assert_eq!(engine.pending_count(), 0);
        assert_eq!(engine.delivered(), 3);
        engine.validate_invariants();
    }

    #[test]
    fn disjoint_components_stay_disjoint() {
        let mut engine = IncrementalEngine::new(SaturationEvaluator);
        engine.submit(0, chain_query(0, Some(1))).unwrap();
        engine.submit(10, chain_query(10, Some(11))).unwrap();
        assert_eq!(engine.component_count(), 2);
        // Completing the second chain retires it without touching the
        // first.
        let r = engine.submit(11, chain_query(11, None)).unwrap();
        assert!(r.coordinated());
        assert_eq!(engine.pending_count(), 1);
        assert_eq!(engine.pending().next().unwrap().1.name, "q0");
        engine.validate_invariants();
    }

    #[test]
    fn per_submit_work_tracks_component_not_pending() {
        let mut engine = IncrementalEngine::new(SaturationEvaluator);
        // 30 disjoint waiting pairs: every submit evaluates at most 2
        // queries even as pending grows.
        for i in 0..30 {
            engine
                .submit(2 * i as u64, chain_query(10 * i, Some(10 * i + 1)))
                .unwrap();
            engine
                .submit(2 * i as u64 + 1, chain_query(10 * i + 1, Some(10 * i + 2)))
                .unwrap();
        }
        assert_eq!(engine.pending_count(), 60);
        let snap = engine.metrics().snapshot();
        assert_eq!(snap.submits, 60);
        // Each submit evaluated its own (≤2-query) component only.
        assert!(snap.evaluated_per_submit() <= 2.0, "{snap:?}");
        // A full-rebuild engine would have looked at Σ pending ≈ 60²/2.
        assert!(snap.rebuild_avoided > 1500, "{snap:?}");
        engine.validate_invariants();
    }

    #[test]
    fn evaluator_error_rejects_without_state_change() {
        struct FailOn(&'static str);
        impl ComponentEvaluator<TestQuery> for FailOn {
            type Delivery = ();
            type Error = String;
            fn evaluate(&self, queries: &[TestQuery]) -> Result<Option<(Vec<usize>, ())>, String> {
                if queries.iter().any(|q| q.name == self.0) {
                    Err(format!("query {} poisons the component", self.0))
                } else {
                    Ok(None)
                }
            }
        }
        let mut engine = IncrementalEngine::new(FailOn("bad"));
        engine
            .submit(
                0,
                TestQuery::new("ok", vec![("R", Some(1))], vec![("R", Some(2))]),
            )
            .unwrap();
        let err = engine
            .submit(1, TestQuery::new("bad", vec![("R", Some(2))], vec![]))
            .unwrap_err();
        assert!(err.contains("bad"));
        assert_eq!(engine.pending_count(), 1);
        assert_eq!(engine.component_count(), 1);
        engine.validate_invariants();
        // The survivor is untouched and can still link with a later
        // arrival.
        engine
            .submit(
                2,
                TestQuery::new("later", vec![("R", Some(3))], vec![("R", Some(1))]),
            )
            .unwrap();
        assert_eq!(engine.component_count(), 1);
    }

    #[test]
    fn retirement_repartitions_survivors() {
        // One component where a sub-chain retires and the leftover splits
        // into two separate components.
        struct RetireSub;
        impl ComponentEvaluator<TestQuery> for RetireSub {
            type Delivery = ();
            type Error = String;
            fn evaluate(&self, queries: &[TestQuery]) -> Result<Option<(Vec<usize>, ())>, String> {
                // Retire the "hub" and everything named `done*` once the
                // hub is present.
                let retire: Vec<usize> = queries
                    .iter()
                    .enumerate()
                    .filter(|(_, q)| q.name == "hub" || q.name.starts_with("done"))
                    .map(|(i, _)| i)
                    .collect();
                if queries.iter().any(|q| q.name == "hub") {
                    Ok(Some((retire, ())))
                } else {
                    Ok(None)
                }
            }
        }
        let mut engine = IncrementalEngine::new(RetireSub);
        // left requires hub; right requires hub; done0 requires hub.
        // After hub (+done0) retire, left and right no longer share a
        // partner → two singleton components.
        engine
            .submit(
                0,
                TestQuery::new("left", vec![("R", Some(1))], vec![("H", Some(0))]),
            )
            .unwrap();
        engine
            .submit(
                1,
                TestQuery::new("right", vec![("R", Some(2))], vec![("H", Some(0))]),
            )
            .unwrap();
        engine
            .submit(
                2,
                TestQuery::new("done0", vec![("D", Some(0))], vec![("H", Some(0))]),
            )
            .unwrap();
        // Requiring the same key does not link queries by itself — the
        // three waiters are separate components until the hub provides it.
        assert_eq!(engine.component_count(), 3);
        let r = engine
            .submit(3, TestQuery::new("hub", vec![("H", Some(0))], vec![]))
            .unwrap();
        assert!(r.coordinated());
        assert_eq!(
            r.retired
                .iter()
                .map(|(id, q)| (*id, q.name.as_str()))
                .collect::<Vec<_>>(),
            vec![(2, "done0"), (3, "hub")]
        );
        assert_eq!(engine.pending_count(), 2);
        // Survivors re-partitioned: left and right are now separate
        // components (their only shared neighbour is gone).
        assert_eq!(engine.component_count(), 2);
        assert_eq!(engine.metrics().snapshot().repartitions, 1);
        engine.validate_invariants();
    }

    #[test]
    fn slots_are_recycled_after_retirement() {
        let mut engine = IncrementalEngine::new(SaturationEvaluator);
        for round in 0..5 {
            engine.submit(2 * round, chain_query(0, Some(1))).unwrap();
            let r = engine.submit(2 * round + 1, chain_query(1, None)).unwrap();
            assert!(r.coordinated(), "round {round}");
            engine.validate_invariants();
        }
        // Five rounds of two queries reused the same two slots.
        assert!(engine.slots.len() <= 2);
        assert_eq!(engine.delivered(), 10);
    }

    #[test]
    fn extract_related_moves_whole_key_groups_transitively() {
        let mut engine = IncrementalEngine::new(SaturationEvaluator);
        // x holds keys A and B; y holds only B; z is unrelated.
        engine
            .submit(
                0,
                TestQuery::new("x", vec![("A", Some(1))], vec![("B", Some(1))]),
            )
            .unwrap();
        engine
            .submit(1, TestQuery::new("y", vec![], vec![("B", Some(1))]))
            .unwrap();
        engine
            .submit(
                2,
                TestQuery::new("z", vec![("C", Some(9))], vec![("C", Some(8))]),
            )
            .unwrap();
        // Seeding with key A must transitively drag y along (via B).
        let moved = engine.extract_related(&[("A", Some(1))]);
        let mut names: Vec<(u64, &str)> =
            moved.iter().map(|(id, q)| (*id, q.name.as_str())).collect();
        names.sort_unstable();
        assert_eq!(names, vec![(0, "x"), (1, "y")]);
        assert_eq!(engine.pending_count(), 1);
        engine.validate_invariants();
    }

    #[test]
    fn component_groups_report_keys_size_and_observed_cost() {
        let mut engine = IncrementalEngine::new(SaturationEvaluator);
        // A 3-member chain: each submit evaluates the growing component,
        // so costs accumulate 1, 2, 3 across members → 6 total.
        engine.submit(0, chain_query(0, Some(1))).unwrap();
        engine.submit(1, chain_query(1, Some(2))).unwrap();
        engine.submit(2, chain_query(2, Some(3))).unwrap();
        // A never-evaluated singleton has cost 1 (its own submit).
        engine.submit(50, chain_query(50, Some(51))).unwrap();
        let mut groups = engine.component_groups();
        groups.sort_by_key(|g| g.size);
        assert_eq!(groups.len(), 2);
        assert_eq!((groups[0].size, groups[0].cost), (1, 1));
        assert_eq!((groups[1].size, groups[1].cost), (3, 6));
        assert!(groups[1].keys.contains(&("R", Some(0))));
        assert!(groups[1].keys.contains(&("R", Some(3))));
        // insert_pending (a migration arrival) starts cost back at 0.
        engine.insert_pending(90, chain_query(90, None));
        let fresh = engine
            .component_groups()
            .into_iter()
            .find(|g| g.keys.contains(&("R", Some(90))))
            .unwrap();
        assert_eq!(fresh.cost, 0);
    }

    #[test]
    fn insert_pending_links_without_evaluating() {
        let mut engine = IncrementalEngine::new(SaturationEvaluator);
        // A free query inserted as already-pending must NOT coordinate on
        // insertion (that is the migration contract)…
        engine.insert_pending(1, chain_query(1, None));
        assert_eq!(engine.pending_count(), 1);
        assert_eq!(engine.delivered(), 0);
        // …but the next submit touching its component evaluates it.
        let r = engine.submit(0, chain_query(0, Some(1))).unwrap();
        assert!(r.coordinated());
        assert_eq!(r.retired.len(), 2);
    }
}
