//! The **SCC Coordination Algorithm** (Section 4): finding a coordinating
//! set for *safe* query sets without requiring *uniqueness*.
//!
//! Key observation: for a safe set, if a query `q` belongs to a
//! coordinating set `S`, all of `q`'s successors in the coordination graph
//! must be in `S` too — so every strongly connected component is either
//! wholly inside or wholly outside `S`. The algorithm therefore:
//!
//! 1. prunes queries whose postconditions cannot be matched by any head
//!    (the implementation-section preprocessing step),
//! 2. contracts the coordination graph into its components DAG `G'`,
//! 3. walks `G'` in reverse topological order; for each component it
//!    unifies the component's queries with the combined queries of its
//!    successors and issues **one** conjunctive query to the database,
//! 4. among the successful closures `R(q)` returns the one preferred by
//!    the configured [`Selector`] (maximum size by default — the paper's
//!    guarantee: a maximum-size set among `{R(q) | q ∈ Q}`).
//!
//! At most `|Q|` database queries are issued; the graph work is at most
//! quadratic in `|Q|` (Section 4, "Running Time").
//!
//! **Cost model of the sweep.** Every component reports its closure as a
//! candidate set, so Σ|closure| is the size of the output and the floor
//! for the sweep. Each per-component step stays within O(|closure| + Δ),
//! Δ being the component's own queries: merging successor closures,
//! cloning the largest successor memo (its MGU stores only variables the
//! closure has merged or bound — see [`crate::unify::Substitution`]),
//! unifying the Δ new postconditions, assembling the combined body, the
//! database's compiled join over it, and the grounding. Nothing a
//! component does is proportional to the batch (`qs.total_vars()`) or
//! quadratic in its closure.

use crate::combined::ground_assembled;
use crate::differential::{delta_unify, scratch_closure, ClosureMemo, GroundWork};
use crate::error::CoordError;
use crate::graphs::{coordination_graph_counted, safety_violations_counted, HeadIndex};
use crate::instance::QuerySet;
use crate::outcome::FoundSet;
use crate::query::{EntangledQuery, QueryId};
use crate::selector::{MaxSize, Selector};
use crate::semantics::Grounding;
use crate::unify::UnifyCounter;
use coord_db::Database;
use coord_graph::{condensation, Condensation, DiGraph, NodeId};
use std::collections::BTreeSet;

/// Statistics gathered during a run (mirrors the measurements of
/// Figures 4–6).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SccStats {
    /// Queries removed by preprocessing (unmatchable postconditions).
    pub removed: usize,
    /// Edges of the (collapsed) coordination graph.
    pub graph_edges: usize,
    /// Strongly connected components.
    pub components: usize,
    /// Conjunctive queries issued to the database (≤ components ≤ |Q|).
    pub db_queries: usize,
    /// Candidate coordinating sets discovered.
    pub candidates: usize,
    /// Syntactic atom-unifiability tests performed by the safety check,
    /// preprocessing and graph construction. Near-linear in the number
    /// of atoms thanks to the shared head index — the all-pairs sweep
    /// would be Θ(posts × heads) — and asserted against exactly that
    /// bound by the scaling tests and the ablation bench's `--quick`
    /// gate.
    pub unify_calls: u64,
    /// Closure-evaluation operations ([`GroundWork::total`]): MGU
    /// merges, body-atom rewrites and fragment staleness checks. Under
    /// the default differential evaluation this grows ~O(n·Δ) on a list
    /// workload where from-scratch evaluation pays Σ|closure| ≈ n²/2
    /// (gated by the scaling tests and the ablation bench).
    pub ground_work: u64,
}

/// How component closures are evaluated along the condensation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Evaluation {
    /// Delta joins against memoized successor closures (the default) —
    /// byte-identical results, work proportional to the delta.
    #[default]
    Differential,
    /// Re-unify and re-rewrite every closure from scratch — the
    /// baseline the differential equivalence suite compares against.
    FromScratch,
}

/// Everything the algorithm computes before touching the database:
/// validation, safety check, preprocessing, coordination graph and its
/// condensation. This is exactly the work measured by Figure 6 ("graph
/// processing time").
#[derive(Debug)]
pub struct Preprocessed {
    /// The query set with its global variable space.
    pub qs: QuerySet,
    /// Queries removed because some postcondition matches no head.
    pub removed: Vec<QueryId>,
    /// The collapsed coordination graph over all queries (removed queries
    /// keep their nodes but contribute no usable closure).
    pub graph: DiGraph<QueryId>,
    /// Condensation of the coordination graph. Component ids are in
    /// reverse topological order (successors have smaller ids).
    pub cond: Condensation,
    /// Atom-unifiability tests performed so far (safety check +
    /// preprocessing fixpoint + graph construction) — the candidate-
    /// enumeration cost the head index keeps near-linear.
    pub unify_calls: u64,
}

/// Run validation, the safety check, preprocessing and graph construction
/// (steps 1–2 of the algorithm; no database queries are issued beyond
/// schema validation).
pub fn preprocess(db: &Database, queries: &[EntangledQuery]) -> Result<Preprocessed, CoordError> {
    let qs = QuerySet::new(queries.to_vec());
    qs.validate(db)?;

    // Advise storage about the multi-column equality patterns the body
    // atoms will probe (constant positions; variables stay unbound at
    // probe time in the common workloads). Backends with composite
    // indexes materialize them here, the only place they are built;
    // everyone else ignores the hint.
    for q in queries {
        for atom in q.body() {
            let cols: Vec<usize> = atom
                .terms
                .iter()
                .enumerate()
                .filter(|(_, t)| matches!(t, coord_db::Term::Const(_)))
                .map(|(c, _)| c)
                .collect();
            if cols.len() >= 2 {
                db.advise_pattern(&atom.relation, &cols);
            }
        }
    }

    let mut counter = UnifyCounter::new();

    // Safety check (Definition 2). The algorithm's guarantees require it;
    // the first violation is the error.
    if let Some(v) = safety_violations_counted(&qs, &mut counter).first() {
        let q = qs.query(v.query);
        return Err(CoordError::UnsafeSet {
            query: q.name().to_string(),
            postcondition: format!("{:?}", q.postconditions()[v.post_idx]),
        });
    }

    // Preprocessing: iteratively remove queries that have a postcondition
    // no remaining head can satisfy.
    let index = HeadIndex::build(&qs);
    let mut active = vec![true; qs.len()];
    let mut cands: Vec<(QueryId, usize)> = Vec::new();
    loop {
        let mut changed = false;
        for src in qs.ids() {
            if !active[src.index()] {
                continue;
            }
            let all_matched = qs.query(src).postconditions().iter().all(|p| {
                cands.clear();
                index.candidates_into(p, &mut cands);
                cands.iter().any(|&(dst, hi)| {
                    active[dst.index()] && counter.check(p, &qs.query(dst).heads()[hi])
                })
            });
            if !all_matched {
                active[src.index()] = false;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    let removed: Vec<QueryId> = qs.ids().filter(|q| !active[q.index()]).collect();

    // Coordination graph over the active queries; removed queries keep
    // their (isolated) nodes so QueryId == NodeId everywhere.
    let full = coordination_graph_counted(&qs, &mut counter);
    let mut graph: DiGraph<QueryId> = DiGraph::with_capacity(qs.len(), full.edge_count());
    for id in qs.ids() {
        graph.add_node(id);
    }
    for e in full.edge_ids() {
        let (u, v) = full.endpoints(e);
        if active[u.index()] && active[v.index()] {
            graph.add_edge(u, v, ());
        }
    }

    let cond = condensation(&graph);
    Ok(Preprocessed {
        qs,
        removed,
        graph,
        cond,
        unify_calls: counter.calls(),
    })
}

/// Outcome of the SCC Coordination Algorithm.
#[derive(Debug)]
pub struct SccOutcome {
    /// The query set (for mapping ids back to names).
    pub qs: QuerySet,
    /// All candidate coordinating sets (one per successfully grounded
    /// component closure `R(q)`).
    pub found: Vec<FoundSet>,
    /// Index of the selector's choice within `found`.
    best: Option<usize>,
    /// Run statistics.
    pub stats: SccStats,
}

impl SccOutcome {
    /// The selected coordinating set, if any closure coordinated.
    pub fn best(&self) -> Option<&FoundSet> {
        self.best.map(|i| &self.found[i])
    }

    /// Names of the member queries of the best set.
    pub fn best_names(&self) -> Vec<&str> {
        self.best()
            .map(|f| f.queries.iter().map(|&q| self.qs.query(q).name()).collect())
            .unwrap_or_default()
    }
}

/// The SCC Coordination Algorithm, parameterized by a selection criterion.
pub struct SccCoordinator<'a> {
    db: &'a Database,
    selector: Box<dyn Selector + 'a>,
    evaluation: Evaluation,
}

impl<'a> SccCoordinator<'a> {
    /// A coordinator with the paper's default maximum-size selection.
    pub fn new(db: &'a Database) -> Self {
        SccCoordinator {
            db,
            selector: Box::new(MaxSize),
            evaluation: Evaluation::default(),
        }
    }

    /// Override the selection criterion.
    pub fn with_selector(db: &'a Database, selector: impl Selector + 'a) -> Self {
        SccCoordinator {
            db,
            selector: Box::new(selector),
            evaluation: Evaluation::default(),
        }
    }

    /// Disable differential evaluation: every closure is re-unified and
    /// re-rewritten from scratch. The results are byte-identical to the
    /// default — this exists as the baseline the equivalence suite and
    /// the ablation bench compare against.
    pub fn with_from_scratch_evaluation(mut self) -> Self {
        self.evaluation = Evaluation::FromScratch;
        self
    }

    /// Run the full algorithm on `queries`.
    pub fn run(&self, queries: &[EntangledQuery]) -> Result<SccOutcome, CoordError> {
        let pre = preprocess(self.db, queries)?;
        self.run_preprocessed(pre)
    }

    /// Run the database phase on a preprocessed instance.
    pub fn run_preprocessed(&self, pre: Preprocessed) -> Result<SccOutcome, CoordError> {
        self.run_preprocessed_inner(pre, 1)
    }

    /// Run the full algorithm with the condensation-DAG sweep
    /// parallelized over `threads` workers (the "parallel processes"
    /// future work of Section 6.2, applied to the SCC algorithm).
    /// **Weakly connected groups** of the condensation share nothing at
    /// all, so each `std::thread::scope` worker sweeps whole groups
    /// sequentially: a forest of independent chains parallelizes with
    /// one thread spawn per worker. A condensation that is one connected
    /// group runs the sequential sweep: its components wait on one
    /// another, and on the committed one-group workloads (list,
    /// scale-free) splitting them across threads costs more than
    /// [`SccCoordinator::run`] does.
    ///
    /// The outcome is identical to [`SccCoordinator::run`]: the same
    /// candidate sets in the same order, the same groundings and the
    /// same [`SccStats`] (the equivalence suites assert `==` on both).
    /// The only observable difference is on *error* paths: components
    /// after the failing one in sequential order may already have
    /// issued their database queries before the error surfaces, and
    /// when several components would error, the one whose error is
    /// returned may differ from the sequential sweep's (which always
    /// reports the smallest component id).
    pub fn run_parallel(
        &self,
        queries: &[EntangledQuery],
        threads: usize,
    ) -> Result<SccOutcome, CoordError> {
        let pre = preprocess(self.db, queries)?;
        self.run_preprocessed_parallel(pre, threads)
    }

    /// [`SccCoordinator::run_preprocessed`] with the group-parallel
    /// component sweep of [`SccCoordinator::run_parallel`].
    pub fn run_preprocessed_parallel(
        &self,
        pre: Preprocessed,
        threads: usize,
    ) -> Result<SccOutcome, CoordError> {
        self.run_preprocessed_inner(pre, threads.max(1))
    }

    fn run_preprocessed_inner(
        &self,
        pre: Preprocessed,
        threads: usize,
    ) -> Result<SccOutcome, CoordError> {
        let Preprocessed {
            qs,
            removed,
            graph,
            cond,
            unify_calls,
        } = pre;
        let n_comp = cond.len();
        let removed_set: Vec<bool> = {
            let mut v = vec![false; qs.len()];
            for r in &removed {
                v[r.index()] = true;
            }
            v
        };

        let mut stats = SccStats {
            removed: removed.len(),
            graph_edges: graph.edge_count(),
            components: n_comp,
            unify_calls,
            ..SccStats::default()
        };

        // One head index shared by every component's unification pass.
        let head_index = HeadIndex::build(&qs);

        let ctx = SweepCtx {
            db: self.db,
            qs: &qs,
            head_index: &head_index,
            cond: &cond,
            removed_set: &removed_set,
            mode: self.evaluation,
        };

        // Per-component state: whether it failed, and the set of component
        // ids in its closure (itself + closures of successors). Component
        // ids are in reverse topological order, so walking them in
        // ascending order always finds successors already evaluated.
        let mut state = SweepState::new(n_comp);
        // Weakly connected groups of the condensation are fully
        // independent; one spawn per worker covers the common
        // many-component case. A lone group has nothing to split.
        let groups = if threads > 1 {
            weak_groups(&cond)
        } else {
            Vec::new()
        };
        if groups.len() > 1 {
            sweep_groups(&ctx, groups, threads, &mut state)?;
        } else {
            for c in 0..n_comp {
                let ev = eval_component(&ctx, &state.failed, &state.closures, &state.memos, c)?;
                state.commit(c, ev);
            }
        }

        stats.db_queries = state.db_queries;
        stats.ground_work = state.ground.total();
        // Candidate sets in component-id order — exactly the sequential
        // discovery order.
        let found: Vec<FoundSet> = state.found_per.into_iter().flatten().collect();
        stats.candidates = found.len();
        let best = self.selector.choose(&found);
        Ok(SccOutcome {
            qs,
            found,
            best,
            stats,
        })
    }
}

/// Read-only inputs shared by every component evaluation of one sweep.
#[derive(Clone, Copy)]
struct SweepCtx<'a> {
    db: &'a Database,
    qs: &'a QuerySet,
    head_index: &'a HeadIndex,
    cond: &'a Condensation,
    removed_set: &'a [bool],
    mode: Evaluation,
}

/// Mutable per-component results of a sweep, committed in id order.
struct SweepState {
    failed: Vec<bool>,
    closures: Vec<BTreeSet<usize>>,
    /// Memoized closure of each successfully grounded component —
    /// what predecessors delta-join against. `None` for failed
    /// components, and throughout under [`Evaluation::FromScratch`].
    memos: Vec<Option<ClosureMemo>>,
    found_per: Vec<Option<FoundSet>>,
    db_queries: usize,
    ground: GroundWork,
}

impl SweepState {
    fn new(n_comp: usize) -> Self {
        SweepState {
            failed: vec![false; n_comp],
            closures: vec![BTreeSet::new(); n_comp],
            memos: (0..n_comp).map(|_| None).collect(),
            found_per: (0..n_comp).map(|_| None).collect(),
            db_queries: 0,
            ground: GroundWork::default(),
        }
    }

    fn commit(&mut self, c: usize, ev: ComponentEval) {
        if ev.queried_db {
            self.db_queries += 1;
        }
        self.ground.absorb(ev.work);
        self.failed[c] = ev.failed;
        self.closures[c] = ev.closure;
        self.memos[c] = ev.memo;
        self.found_per[c] = ev.found;
    }
}

/// Partition the condensation's components into weakly connected groups
/// (ids ascending within each group). Two components in different
/// groups share no path at all, so whole groups evaluate independently.
fn weak_groups(cond: &Condensation) -> Vec<Vec<usize>> {
    let n_comp = cond.len();
    let mut uf = coord_graph::UnionFind::new(n_comp);
    for c in 0..n_comp {
        for succ in cond.dag.successors(NodeId(c)) {
            let (rc, rs) = (uf.find(c), uf.find(succ.index()));
            if rc != rs {
                uf.union(rc, rs);
            }
        }
    }
    let mut by_root: std::collections::HashMap<usize, Vec<usize>> =
        std::collections::HashMap::new();
    for c in 0..n_comp {
        by_root.entry(uf.find(c)).or_default().push(c);
    }
    let mut groups: Vec<Vec<usize>> = by_root.into_values().collect();
    // Deterministic order (largest member count first helps the greedy
    // balancer; ties broken by first component id).
    groups.sort_by_key(|g| (std::cmp::Reverse(g.len()), g[0]));
    groups
}

/// One component's verdict as shipped back by a group worker. The
/// closure set stays worker-local: successor lookups never cross group
/// (hence worker) boundaries, and nothing reads closures once the
/// sweep is done.
struct WorkerVerdict {
    comp: usize,
    failed: bool,
    queried_db: bool,
    work: GroundWork,
    found: Option<FoundSet>,
}

/// Per-worker result of a group sweep: verdicts in ascending id order,
/// or the id of the first failing component with its error.
type WorkerSweep = Result<Vec<WorkerVerdict>, (usize, CoordError)>;

/// Sweep independent weakly-connected groups across `threads` scoped
/// workers: groups are balanced greedily by query count, each worker
/// processes its groups' components sequentially in ascending id order
/// (all dependencies stay inside the group), and results are committed
/// in global id order afterwards.
fn sweep_groups(
    ctx: &SweepCtx<'_>,
    groups: Vec<Vec<usize>>,
    threads: usize,
    state: &mut SweepState,
) -> Result<(), CoordError> {
    // Greedy longest-processing-time balance by total member queries.
    let workers = threads.min(groups.len());
    let mut assignment: Vec<Vec<usize>> = vec![Vec::new(); workers];
    let mut load = vec![0usize; workers];
    for g in groups {
        let cost: usize = g.iter().map(|&c| ctx.cond.members(c).len()).sum();
        let w = (0..workers).min_by_key(|&w| load[w]).expect("workers > 0");
        load[w] += cost.max(1);
        assignment[w].extend(g);
    }
    for a in &mut assignment {
        a.sort_unstable();
    }

    let per_worker: Vec<WorkerSweep> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for own in &assignment {
            handles.push(scope.spawn(move || {
                // Worker-local successor state: every successor of an
                // owned component is owned too, so full-size local
                // arrays filled in id order are exactly the sequential
                // sweep restricted to this worker's groups (full-size
                // keeps indexing trivial; the unowned slots are one
                // bool and one empty set each).
                let mut local = SweepState::new(ctx.cond.len());
                let mut out = Vec::with_capacity(own.len());
                for &c in own {
                    match eval_component(ctx, &local.failed, &local.closures, &local.memos, c) {
                        Ok(mut ev) => {
                            out.push(WorkerVerdict {
                                comp: c,
                                failed: ev.failed,
                                queried_db: ev.queried_db,
                                work: ev.work,
                                found: ev.found.take(),
                            });
                            local.commit(c, ev);
                        }
                        Err(e) => return Err((c, e)),
                    }
                }
                Ok(out)
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("group worker panicked"))
            .collect()
    });

    let mut verdicts: Vec<WorkerVerdict> = Vec::with_capacity(ctx.cond.len());
    let mut first_error: Option<(usize, CoordError)> = None;
    for r in per_worker {
        match r {
            Ok(list) => verdicts.extend(list),
            Err((c, e)) => {
                if first_error.as_ref().is_none_or(|(fc, _)| c < *fc) {
                    first_error = Some((c, e));
                }
            }
        }
    }
    if let Some((_, e)) = first_error {
        return Err(e);
    }
    verdicts.sort_by_key(|v| v.comp);
    for v in verdicts {
        if v.queried_db {
            state.db_queries += 1;
        }
        state.ground.absorb(v.work);
        state.failed[v.comp] = v.failed;
        state.found_per[v.comp] = v.found;
        // `state.closures` and `state.memos` stay empty for group-swept
        // components: closures and memos never cross group boundaries
        // and nothing reads them after the sweep completes.
    }
    Ok(())
}

/// What evaluating one component produced. Exactly one of `failed` /
/// `found` describes the verdict; `closure` is empty on failure so
/// predecessors merging it see the same sets the sequential sweep built.
/// `memo` is the closure's reusable unification state (absent on
/// failures and from-scratch evaluation).
struct ComponentEval {
    failed: bool,
    closure: BTreeSet<usize>,
    queried_db: bool,
    found: Option<FoundSet>,
    memo: Option<ClosureMemo>,
    work: GroundWork,
}

/// Evaluate one component of the condensation DAG: merge successor
/// closures, unify the closure's postconditions with their unique heads,
/// and ground the combined body with one conjunctive query. Reads only
/// already-evaluated successor state (`failed` / `closures` / `memos`),
/// so the sequential sweep and the group-parallel sweep share it verbatim
/// — which is what keeps their per-closure candidates and stats identical.
///
/// Under the default [`Evaluation::Differential`] mode the closure is
/// built as a delta join against the successors' memos (a sink, having
/// none, is unified from scratch); under [`Evaluation::FromScratch`]
/// every closure is re-unified in full. Either way the assembled
/// conjunctive query is isomorphic and the verdict byte-identical (see
/// [`crate::differential`]).
fn eval_component(
    ctx: &SweepCtx<'_>,
    failed: &[bool],
    closures: &[BTreeSet<usize>],
    memos: &[Option<ClosureMemo>],
    c: usize,
) -> Result<ComponentEval, CoordError> {
    let mut work = GroundWork::default();
    let failure = |work: GroundWork| ComponentEval {
        failed: true,
        closure: BTreeSet::new(),
        queried_db: false,
        found: None,
        memo: None,
        work,
    };

    // Removed queries cannot participate.
    if ctx
        .cond
        .members(c)
        .iter()
        .any(|n| ctx.removed_set[n.index()])
    {
        return Ok(failure(work));
    }

    // Merge successor closures; fail if any successor failed.
    let mut succs: BTreeSet<usize> = BTreeSet::new();
    for succ in ctx.cond.dag.successors(NodeId(c)) {
        succs.insert(succ.index());
    }
    let mut closure: BTreeSet<usize> = BTreeSet::new();
    closure.insert(c);
    for &s in &succs {
        if failed[s] {
            return Ok(failure(work));
        }
        closure.extend(closures[s].iter().copied());
    }

    // Collect the member queries of the whole closure R(q).
    let mut member_queries: Vec<QueryId> = closure
        .iter()
        .flat_map(|&ci| ctx.cond.members(ci).iter().map(|n| QueryId(n.index())))
        .collect();
    member_queries.sort_unstable();

    // Unify the closure: every postcondition with its unique head —
    // differentially against successor memos where possible.
    let memo = match ctx.mode {
        Evaluation::FromScratch => {
            scratch_closure(ctx.qs, ctx.head_index, &member_queries, &mut work)
        }
        Evaluation::Differential => {
            if succs.is_empty() {
                scratch_closure(ctx.qs, ctx.head_index, &member_queries, &mut work)
            } else {
                // No successor failed (checked above), and a component
                // that grounds under this mode always commits its memo.
                let succ_memos: Vec<&ClosureMemo> = succs
                    .iter()
                    .map(|&s| memos[s].as_ref().expect("live successor carries a memo"))
                    .collect();
                let mut own: Vec<QueryId> = ctx
                    .cond
                    .members(c)
                    .iter()
                    .map(|n| QueryId(n.index()))
                    .collect();
                own.sort_unstable();
                delta_unify(
                    ctx.qs,
                    ctx.head_index,
                    &member_queries,
                    &own,
                    &succ_memos,
                    &mut work,
                )
            }
        }
    };
    let Some(mut memo) = memo else {
        return Ok(failure(work));
    };

    // One conjunctive query to the database for this component.
    let cq = memo.assemble();
    match ground_assembled(ctx.db, ctx.qs, &member_queries, &mut memo.subst, &cq)? {
        Some(grounding) => Ok(ComponentEval {
            failed: false,
            closure,
            queried_db: true,
            found: Some(FoundSet {
                queries: member_queries,
                grounding,
            }),
            memo: match ctx.mode {
                Evaluation::Differential => Some(memo),
                Evaluation::FromScratch => None,
            },
            work,
        }),
        None => Ok(ComponentEval {
            queried_db: true,
            ..failure(work)
        }),
    }
}

/// Convenience: run the SCC Coordination Algorithm with default selection
/// and return only the best coordinating set.
pub fn scc_coordinate(
    db: &Database,
    queries: &[EntangledQuery],
) -> Result<Option<(Vec<QueryId>, Grounding)>, CoordError> {
    let outcome = SccCoordinator::new(db).run(queries)?;
    Ok(outcome
        .best()
        .map(|f| (f.queries.clone(), f.grounding.clone())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::QueryBuilder;
    use crate::semantics::check_coordinating_set;
    use coord_db::Value;

    /// Database for the flight-hotel example: Paris has flight+hotel,
    /// Athens has flight+hotel, Madrid has a flight but no hotel.
    fn fh_db() -> Database {
        let mut db = Database::new();
        db.create_table("F", &["id", "dest"]).unwrap();
        db.create_table("H", &["id", "loc"]).unwrap();
        for (id, d) in [(1, "Paris"), (2, "Athens"), (3, "Madrid")] {
            db.insert("F", vec![Value::int(id), Value::str(d)]).unwrap();
        }
        for (id, l) in [(10, "Paris"), (11, "Athens")] {
            db.insert("H", vec![Value::int(id), Value::str(l)]).unwrap();
        }
        db
    }

    fn fh_queries() -> Vec<EntangledQuery> {
        crate::graphs::tests::flight_hotel_queries()
            .queries()
            .to_vec()
    }

    #[test]
    fn flight_hotel_components() {
        let db = fh_db();
        let pre = preprocess(&db, &fh_queries()).unwrap();
        // SCCs: {qC, qG}, {qJ}, {qW} (Section 4).
        assert_eq!(pre.cond.len(), 3);
        assert!(pre.removed.is_empty());
        // {qC, qG} is the sink component: id 0 in reverse topo order.
        let comp0: Vec<usize> = pre.cond.members(0).iter().map(|n| n.index()).collect();
        let mut c0 = comp0.clone();
        c0.sort_unstable();
        assert_eq!(c0, vec![0, 1]);
    }

    #[test]
    fn flight_hotel_best_is_chris_guy_jonny() {
        // Chris+Guy coordinate on Paris. Jonny requires Athens for
        // himself while flying *with* Chris and Guy — grounding forces one
        // flight to go to both Paris and Athens, so R(qJ) fails; so does
        // R(qW) (it contains qJ via Q(J,·)... actually qW needs qJ's
        // hotel and qC's flight). The best coordinating set is {qC, qG}.
        let db = fh_db();
        let out = SccCoordinator::new(&db).run(&fh_queries()).unwrap();
        let names = out.best_names();
        assert_eq!(names, vec!["qC", "qG"]);
        // One DB query per component at most.
        assert!(out.stats.db_queries <= out.stats.components);
        // Verify against Definition 1.
        let best = out.best().unwrap();
        check_coordinating_set(&db, &out.qs, &best.queries, &best.grounding).unwrap();
    }

    #[test]
    fn list_structure_finds_whole_chain() {
        // q0 → q1 → q2, last query free: the whole list coordinates when
        // the database has a satisfying tuple (Figure 4 workload shape).
        let mut db = Database::new();
        db.create_table("T", &["id"]).unwrap();
        db.insert("T", vec![Value::int(7)]).unwrap();
        let mk = |i: usize, next: Option<usize>| {
            let mut b = QueryBuilder::new(format!("q{i}"));
            if let Some(n) = next {
                b = b.postcondition("R", |a| a.constant(format!("u{n}")).var("x"));
            }
            b.head("R", |a| a.constant(format!("u{i}")).var("x"))
                .body("T", |a| a.var("x"))
                .build()
                .unwrap()
        };
        let queries = vec![mk(0, Some(1)), mk(1, Some(2)), mk(2, None)];
        let out = SccCoordinator::new(&db).run(&queries).unwrap();
        // Candidates: {q2}, {q1,q2}, {q0,q1,q2} — non-unique structure.
        assert_eq!(out.found.len(), 3);
        assert_eq!(out.best().unwrap().len(), 3);
        assert_eq!(out.stats.db_queries, 3);
        let best = out.best().unwrap();
        check_coordinating_set(&db, &out.qs, &best.queries, &best.grounding).unwrap();
    }

    #[test]
    fn failure_propagates_to_predecessors() {
        // q0 needs q1; q1's body is unsatisfiable ⇒ both fail, but q2
        // (independent) succeeds.
        let mut db = Database::new();
        db.create_table("T", &["id", "kind"]).unwrap();
        db.insert("T", vec![Value::int(1), Value::str("good")])
            .unwrap();
        let q0 = QueryBuilder::new("q0")
            .postcondition("R", |a| a.constant("u1").var("x"))
            .head("R", |a| a.constant("u0").var("x"))
            .body("T", |a| a.var("x").constant("good"))
            .build()
            .unwrap();
        let q1 = QueryBuilder::new("q1")
            .head("R", |a| a.constant("u1").var("y"))
            .body("T", |a| a.var("y").constant("missing"))
            .build()
            .unwrap();
        let q2 = QueryBuilder::new("q2")
            .head("R", |a| a.constant("u2").var("z"))
            .body("T", |a| a.var("z").constant("good"))
            .build()
            .unwrap();
        let out = SccCoordinator::new(&db).run(&[q0, q1, q2]).unwrap();
        assert_eq!(out.best_names(), vec!["q2"]);
        assert_eq!(out.found.len(), 1);
    }

    #[test]
    fn preprocessing_removes_unmatchable_postconditions() {
        // q0 requires R(ghost, ·) which nobody produces; q1 requires q0.
        // Both are removed; q2 survives.
        let mut db = Database::new();
        db.create_table("T", &["id"]).unwrap();
        db.insert("T", vec![Value::int(1)]).unwrap();
        let q0 = QueryBuilder::new("q0")
            .postcondition("R", |a| a.constant("ghost").var("x"))
            .head("R", |a| a.constant("u0").var("x"))
            .body("T", |a| a.var("x"))
            .build()
            .unwrap();
        let q1 = QueryBuilder::new("q1")
            .postcondition("R", |a| a.constant("u0").var("y"))
            .head("R", |a| a.constant("u1").var("y"))
            .body("T", |a| a.var("y"))
            .build()
            .unwrap();
        let q2 = QueryBuilder::new("q2")
            .head("R", |a| a.constant("u2").var("z"))
            .body("T", |a| a.var("z"))
            .build()
            .unwrap();
        let pre = preprocess(&db, &[q0, q1, q2]).unwrap();
        assert_eq!(pre.removed.len(), 2);
        let out = SccCoordinator::new(&db).run_preprocessed(pre).unwrap();
        assert_eq!(out.best_names(), vec!["q2"]);
        assert_eq!(out.stats.removed, 2);
    }

    #[test]
    fn unsafe_set_is_rejected() {
        let mut db = Database::new();
        db.create_table("T", &["id"]).unwrap();
        db.insert("T", vec![Value::int(1)]).unwrap();
        // Two producers of R(u, ·) and one consumer ⇒ unsafe.
        let a = QueryBuilder::new("a")
            .head("R", |x| x.constant("u").var("p"))
            .body("T", |x| x.var("p"))
            .build()
            .unwrap();
        let b = QueryBuilder::new("b")
            .head("R", |x| x.constant("u").var("q"))
            .body("T", |x| x.var("q"))
            .build()
            .unwrap();
        let c = QueryBuilder::new("c")
            .postcondition("R", |x| x.constant("u").var("r"))
            .head("R", |x| x.constant("me").var("r"))
            .body("T", |x| x.var("r"))
            .build()
            .unwrap();
        let err = SccCoordinator::new(&db).run(&[a, b, c]).unwrap_err();
        assert!(matches!(err, CoordError::UnsafeSet { .. }));
    }

    #[test]
    fn db_query_bound_holds() {
        // The number of database queries never exceeds the number of SCCs.
        let db = fh_db();
        db.stats().reset();
        let out = SccCoordinator::new(&db).run(&fh_queries()).unwrap();
        assert!(out.stats.db_queries <= out.stats.components);
        assert_eq!(db.stats().find_one_count() as usize, out.stats.db_queries);
    }

    #[test]
    fn components_graph_example_from_section_4() {
        // q3+q4 → q1+q2 ← q5+q6: candidates {q1,q2}, {q1..q4}, {q1,q2,q5,q6};
        // the algorithm does NOT check the union of all six.
        let mut db = Database::new();
        db.create_table("T", &["id"]).unwrap();
        db.insert("T", vec![Value::int(1)]).unwrap();
        let pair = |i: usize, j: usize, dep: Option<usize>| {
            let a_name = format!("q{i}");
            let b_name = format!("q{j}");
            let mut a = QueryBuilder::new(&a_name)
                .postcondition("R", |x| x.constant(format!("u{j}")).var("v"))
                .head("R", |x| x.constant(format!("u{i}")).var("v"))
                .body("T", |x| x.var("v"));
            if let Some(d) = dep {
                a = a.postcondition("R", |x| x.constant(format!("u{d}")).var("v"));
            }
            let b = QueryBuilder::new(&b_name)
                .postcondition("R", |x| x.constant(format!("u{i}")).var("w"))
                .head("R", |x| x.constant(format!("u{j}")).var("w"))
                .body("T", |x| x.var("w"))
                .build()
                .unwrap();
            (a.build().unwrap(), b)
        };
        let (q1, q2) = pair(1, 2, None);
        let (q3, q4) = pair(3, 4, Some(1));
        let (q5, q6) = pair(5, 6, Some(1));
        let out = SccCoordinator::new(&db)
            .run(&[q1, q2, q3, q4, q5, q6])
            .unwrap();
        assert_eq!(out.found.len(), 3);
        let sizes: Vec<usize> = out.found.iter().map(FoundSet::len).collect();
        let mut sorted = sizes.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![2, 4, 4]);
        assert_eq!(out.best().unwrap().len(), 4);
    }
}
