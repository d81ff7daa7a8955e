//! Differential closure evaluation: memoized SCC groundings along the
//! condensation, in the style of incremental view maintenance (DBSP /
//! differential dataflow).
//!
//! The SCC Coordination Algorithm evaluates one closure `R(q)` per
//! component, walking the condensation in reverse topological order.
//! Evaluated from scratch, the closure work is Σ|closure| — quadratic on
//! a list workload, where the i-th closure repeats all the unification
//! and body rewriting already done for closure i−1. This module caches
//! per-component results at two granularities:
//!
//! * **Per-run memos** ([`ClosureMemo`]): after a component's closure is
//!   unified and grounded, its MGU ([`Substitution`]) and its body atoms
//!   rewritten under that MGU (per-member *fragments*) are kept. A
//!   predecessor evaluates as a **delta join**: clone the largest
//!   successor memo, absorb any others, unify only the component's *own*
//!   postconditions into the cached MGU with the representative-
//!   preserving ops of [`crate::unify`], and rebuild only the fragments
//!   whose variables were dethroned or newly bound (tracked by
//!   [`DeltaLog`]). On a chain, a component touches O(Δ) atoms instead
//!   of O(|closure|). A memo costs O(|closure|) to keep and to clone —
//!   fragments are shared by `Arc`, and the MGU stores only variables
//!   its closure has merged or bound — so a sweep spends O(|closure| + Δ)
//!   per component and Σ|closure|, the size of its output, in total.
//! * **Cross-run verdicts** ([`ClosureCache`]): a content-addressed map
//!   from the closure's member digests to its evaluation verdict. The
//!   online engine re-evaluates a component every time a query arrives;
//!   with the cache, a closure whose member *contents* were already
//!   decided against this database is answered without unification or a
//!   database query. Keys are 128-bit FNV-1a digests of the members'
//!   canonical byte encoding, so invalidation is structural: any change
//!   to a member changes the key, and stale entries are simply never
//!   looked up again. Explicit eviction (on retire) is an optimization,
//!   never a correctness requirement.
//!
//! # Why memoized evaluation is byte-identical to from-scratch
//!
//! The delta join and the scratch evaluation accumulate exactly the same
//! *set* of postcondition–head constraints: successor memos carry the
//! constraints of their closures (closures are closed under coordination
//! edges, and condensation edges only point from a component to its
//! successors, so a successor's postconditions never target this
//! component), and the component's own postconditions are unified on
//! top. Safety (Definition 2) makes the matching head unique, so both
//! paths pick the same head per postcondition. The resulting MGUs are
//! therefore equal up to the choice of class representatives, and the
//! assembled conjunctive queries are isomorphic: same atoms in the same
//! member-sorted order, with variables renamed by a bijection. Fragment
//! atoms are kept only while their variables remain unbound class
//! representatives (the staleness check), so every atom displays a
//! current representative or a constant and co-occurrence of variables
//! is preserved. `find_one` backtracks in atom order and is invariant
//! under variable renaming, so it returns the same row values; grounding
//! then resolves every member variable to the same [`Value`]s. The
//! differential proptest suite asserts this equality byte-for-byte.
//!
//! Cached verdicts are pure functions of (ordered member contents,
//! database): member names and batch-global variable offsets do not
//! affect the values, and the borrow checker guarantees the database
//! cannot change while an evaluator holds it. Verdicts therefore store
//! per-member, *local*-variable value rows, reusable across batches.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use coord_obs::{Counter, TraceCtx, Tracer};
use parking_lot::Mutex;

use crate::combined::unify_members_counted;
use crate::graphs::HeadIndex;
use crate::instance::QuerySet;
use crate::persist::EntangledQueryCodec;
use crate::query::{EntangledQuery, QueryId};
use crate::semantics::Grounding;
use crate::unify::{atoms_unifiable, DeltaLog, Substitution};
use coord_db::{Atom, ConjunctiveQuery, Term, Value, Var};
use coord_store::QueryCodec;

/// Work performed inside closure evaluation — the counter the
/// differential layer keeps proportional to the delta where from-scratch
/// evaluation pays Σ|closure|.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GroundWork {
    /// Postcondition–head pairs merged into an MGU.
    pub unified: u64,
    /// Body atoms rewritten under an MGU.
    pub rewritten: u64,
    /// Cached fragment atoms checked for staleness (and found fresh).
    pub checked: u64,
}

impl GroundWork {
    /// Total closure-evaluation operations.
    pub fn total(&self) -> u64 {
        self.unified + self.rewritten + self.checked
    }

    /// Accumulate another tally into this one.
    pub fn absorb(&mut self, other: GroundWork) {
        self.unified += other.unified;
        self.rewritten += other.rewritten;
        self.checked += other.checked;
    }
}

/// A successfully unified closure, memoized for reuse by predecessor
/// components within the same sweep.
#[derive(Clone, Debug)]
pub struct ClosureMemo {
    /// The closure's MGU: addressed by the batch's global variables,
    /// storing only those of the closure's members.
    pub subst: Substitution,
    /// Per-member body atoms rewritten under `subst`. `BTreeMap`
    /// iteration order is [`QueryId`] order — exactly the member-sorted
    /// atom order [`crate::combined::combined_body`] produces, which
    /// `find_one`'s atom-order backtracking makes load-bearing.
    pub fragments: BTreeMap<QueryId, Arc<Vec<Atom>>>,
    /// Total atoms across all fragments (delta-join base selection).
    pub atom_count: usize,
}

impl ClosureMemo {
    /// Assemble the combined conjunctive query from the cached fragments.
    pub fn assemble(&self) -> ConjunctiveQuery {
        let mut atoms = Vec::with_capacity(self.atom_count);
        for frag in self.fragments.values() {
            atoms.extend(frag.iter().cloned());
        }
        ConjunctiveQuery::new(atoms)
    }
}

/// Unify and rewrite a closure from scratch, producing its memo.
/// Returns `None` if unification fails (the closure cannot coordinate).
pub fn scratch_closure(
    qs: &QuerySet,
    index: &HeadIndex,
    members: &[QueryId],
    work: &mut GroundWork,
) -> Option<ClosureMemo> {
    let subst = Substitution::identity(qs.total_vars());
    let mut subst = unify_members_counted(qs, members, subst, index, work).ok()?;
    let mut fragments = BTreeMap::new();
    let mut atom_count = 0;
    for &m in members {
        let mut frag = Vec::new();
        for atom in qs.body(m) {
            frag.push(subst.apply(&atom));
            work.rewritten += 1;
        }
        atom_count += frag.len();
        fragments.insert(m, Arc::new(frag));
    }
    Some(ClosureMemo {
        subst,
        fragments,
        atom_count,
    })
}

/// Is this fragment atom stale under the (possibly extended) MGU?
/// Fragment variables are unbound class representatives of the MGU they
/// were rewritten under; the atom must be rebuilt once such a variable
/// is dethroned or its class acquires a binding.
fn atom_is_stale(subst: &Substitution, atom: &Atom) -> bool {
    atom.terms.iter().any(|t| match t {
        Term::Const(_) => false,
        Term::Var(v) => {
            let r = subst.find_immutable(*v);
            r != *v || subst.is_bound(r)
        }
    })
}

/// Evaluate a closure as a delta join against its successors' memos:
/// clone the largest successor memo (ties broken toward the first, i.e.
/// the smallest component id as passed by the caller), absorb the rest,
/// unify only `own`'s postconditions into the cached MGU, and rebuild
/// only the stale fragments. Returns `None` if unification fails —
/// exactly when the from-scratch union of the same constraints would.
pub fn delta_unify(
    qs: &QuerySet,
    index: &HeadIndex,
    closure: &[QueryId],
    own: &[QueryId],
    successors: &[&ClosureMemo],
    work: &mut GroundWork,
) -> Option<ClosureMemo> {
    debug_assert!(!successors.is_empty(), "sinks take the scratch path");
    let mut base = 0;
    for (i, m) in successors.iter().enumerate() {
        if m.atom_count > successors[base].atom_count {
            base = i;
        }
    }

    let mut subst = successors[base].subst.clone();
    let mut fragments = successors[base].fragments.clone();
    let mut atom_count = successors[base].atom_count;
    let multi = successors.len() > 1;
    for (i, s) in successors.iter().enumerate() {
        if i == base {
            continue;
        }
        // Plain (unlogged) union of the other memo's constraints; the
        // unconditional multi-successor scan below repairs any fragment
        // this dethrones.
        subst.absorb(&s.subst).ok()?;
        for (q, frag) in &s.fragments {
            if fragments.insert(*q, Arc::clone(frag)).is_none() {
                atom_count += frag.len();
            }
        }
    }

    // Unify the component's own postconditions into the cached MGU,
    // preferring cached representatives so clean extensions (chains)
    // leave every cached fragment untouched.
    let mut log = DeltaLog::default();
    let in_closure = |q: QueryId| closure.binary_search(&q).is_ok();
    for &m in own {
        for (p_local, p) in qs
            .query(m)
            .postconditions()
            .iter()
            .zip(qs.postconditions(m))
        {
            let mut matched = None;
            for (dst, hi) in index.candidates(p_local) {
                if in_closure(dst) && atoms_unifiable(p_local, &qs.query(dst).heads()[hi]) {
                    matched = Some(qs.globalize(dst, &qs.query(dst).heads()[hi]));
                    break;
                }
            }
            let h = matched?;
            subst.unify_atoms_directed(&p, &h, &mut log).ok()?;
            work.unified += 1;
        }
    }

    // A dirty entry only matters if the variable can occur in a cached
    // fragment — i.e. its owner query is in a successor's closure.
    // Fresh own-member variables never do.
    if !multi && !log.is_clean() {
        let cached = &successors[base].fragments;
        log.dirty
            .retain(|&v| cached.contains_key(&qs.owner_of(v).0));
    }

    if multi || !log.is_clean() {
        let mut fresh: Vec<(QueryId, Arc<Vec<Atom>>)> = Vec::new();
        for (q, frag) in &fragments {
            let mut stale = false;
            for atom in frag.iter() {
                work.checked += 1;
                if atom_is_stale(&subst, atom) {
                    stale = true;
                    break;
                }
            }
            if stale {
                let mut out = Vec::with_capacity(frag.len());
                for atom in frag.iter() {
                    out.push(subst.apply(atom));
                    work.rewritten += 1;
                }
                fresh.push((*q, Arc::new(out)));
            }
        }
        for (q, frag) in fresh {
            fragments.insert(q, frag);
        }
    }

    // The component's own fragments are always built fresh.
    for &m in own {
        let mut frag = Vec::new();
        for atom in qs.body(m) {
            frag.push(subst.apply(&atom));
            work.rewritten += 1;
        }
        atom_count += frag.len();
        let prev = fragments.insert(m, Arc::new(frag));
        debug_assert!(prev.is_none(), "own members never appear in successors");
    }

    Some(ClosureMemo {
        subst,
        fragments,
        atom_count,
    })
}

/// Rebuild a total grounding over `members` from cached per-member
/// value rows (inverse of [`bindings_from_grounding`]).
pub fn grounding_from_bindings(
    qs: &QuerySet,
    members: &[QueryId],
    bindings: &[Vec<Value>],
) -> Grounding {
    debug_assert_eq!(members.len(), bindings.len());
    let mut g = Grounding::new();
    for (&m, vals) in members.iter().zip(bindings) {
        for (l, v) in vals.iter().enumerate() {
            g.set(qs.global_var(m, Var(l as u32)), v.clone());
        }
    }
    g
}

/// Extract batch-independent per-member value rows from a total
/// grounding over `members` (local variable order within each member).
pub fn bindings_from_grounding(
    qs: &QuerySet,
    members: &[QueryId],
    g: &Grounding,
) -> Vec<Vec<Value>> {
    members
        .iter()
        .map(|&m| {
            qs.vars_of(m)
                .map(|v| g.get(v).expect("groundings are total").clone())
                .collect()
        })
        .collect()
}

const FNV_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
const FNV_PRIME: u128 = 0x0000000001000000000000000000013B;

fn fnv128(h: u128, bytes: &[u8]) -> u128 {
    let mut h = h;
    for &b in bytes {
        h ^= u128::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// 128-bit FNV-1a digest of a query's canonical byte encoding
/// ([`EntangledQueryCodec`]). 128 bits because digest collisions would
/// alias cache entries — a correctness, not performance, concern.
pub fn digest_query(q: &EntangledQuery) -> u128 {
    let mut buf = Vec::with_capacity(128);
    EntangledQueryCodec.encode(q, &mut buf);
    fnv128(FNV_OFFSET, &buf)
}

/// Cache key for a closure: the fold of its members' digests in
/// member-sorted order (order is part of the identity — fragments and
/// the combined query depend on it).
pub fn closure_key(member_digests: &[u128]) -> u128 {
    let mut h = FNV_OFFSET;
    for d in member_digests {
        h = fnv128(h, &d.to_le_bytes());
    }
    h
}

/// A closure's cached evaluation verdict — a pure function of the
/// members' ordered contents and the database.
#[derive(Clone, Debug)]
pub enum CachedVerdict {
    /// Unification failed or the combined query had no satisfying row.
    Failed,
    /// Grounded: one value row per member, indexed by local variable.
    Found {
        /// Per-member value rows in member-sorted order.
        bindings: Arc<Vec<Vec<Value>>>,
    },
}

struct CacheEntry {
    members: Box<[u128]>,
    verdict: CachedVerdict,
    last_used: u64,
}

#[derive(Default)]
struct CacheInner {
    map: HashMap<u128, CacheEntry>,
    generation: u64,
    /// Trace sink for per-lookup `cache_hit` / `cache_miss` instants
    /// (disabled until [`ClosureCache::attach`] wires a registry in).
    tracer: Tracer,
}

/// Observable cache counters (`hits`/`misses` per lookup, cumulative
/// grounding work recorded by the owning evaluator).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemoStats {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub entries: usize,
    pub ground_work: u64,
}

/// Content-addressed cross-run verdict cache, shared by every sweep (and
/// every shard — clones of an evaluator share it through an [`Arc`]).
///
/// Recency is a generation counter bumped per lookup, not wall-clock
/// time, so eviction order is deterministic.
pub struct ClosureCache {
    inner: Mutex<CacheInner>,
    capacity: usize,
    /// Lock-free counters, readable without the map mutex and
    /// exportable through a [`coord_obs::Registry`] via
    /// [`ClosureCache::attach`].
    hits: Counter,
    misses: Counter,
    evictions: Counter,
    work: Counter,
}

impl Default for ClosureCache {
    fn default() -> Self {
        Self::new()
    }
}

impl ClosureCache {
    /// Default capacity: 4096 closures.
    pub fn new() -> Self {
        Self::with_capacity(4096)
    }

    /// A cache evicting down to ~¾ of `capacity` (least recently used
    /// first) whenever an insert exceeds it.
    pub fn with_capacity(capacity: usize) -> Self {
        ClosureCache {
            inner: Mutex::new(CacheInner::default()),
            capacity: capacity.max(4),
            hits: Counter::new(),
            misses: Counter::new(),
            evictions: Counter::new(),
            work: Counter::new(),
        }
    }

    /// Export this cache's counters through `obs` (as `memo_hits`,
    /// `memo_misses`, `memo_evictions`, `memo_ground_work`) and route
    /// per-lookup `cache_hit`/`cache_miss` instants into its tracer —
    /// stamped with the submitting request's [`TraceCtx`] and carrying
    /// the lookup's nanos as `arg`, so the trace analyzer can attribute
    /// memo time per trace.
    pub fn attach(&self, obs: &coord_obs::Registry) {
        obs.register_counter("memo_hits", &self.hits);
        obs.register_counter("memo_misses", &self.misses);
        obs.register_counter("memo_evictions", &self.evictions);
        obs.register_counter("memo_ground_work", &self.work);
        self.inner.lock().tracer = obs.tracer();
    }

    /// Look up a closure verdict by key.
    pub fn lookup(&self, key: u128) -> Option<CachedVerdict> {
        let mut inner = self.inner.lock();
        // Timed only when a tracer is attached (no clock reads on the
        // unattached path); the instant's arg is the lookup's nanos.
        let started = inner.tracer.is_enabled().then(std::time::Instant::now);
        inner.generation += 1;
        let generation = inner.generation;
        match inner.map.get_mut(&key) {
            Some(e) => {
                e.last_used = generation;
                let v = e.verdict.clone();
                self.hits.incr();
                if let Some(t) = started {
                    let nanos = t.elapsed().as_nanos() as u64;
                    inner
                        .tracer
                        .instant_in(TraceCtx::current(), "cache_hit", nanos);
                }
                Some(v)
            }
            None => {
                self.misses.incr();
                if let Some(t) = started {
                    let nanos = t.elapsed().as_nanos() as u64;
                    inner
                        .tracer
                        .instant_in(TraceCtx::current(), "cache_miss", nanos);
                }
                None
            }
        }
    }

    /// Record a freshly evaluated verdict.
    pub fn insert(&self, key: u128, members: Box<[u128]>, verdict: CachedVerdict) {
        let mut inner = self.inner.lock();
        inner.generation += 1;
        let generation = inner.generation;
        inner.map.insert(
            key,
            CacheEntry {
                members,
                verdict,
                last_used: generation,
            },
        );
        if inner.map.len() > self.capacity {
            // Evict the least recently used quarter in one pass.
            let mut order: Vec<(u64, u128)> =
                inner.map.iter().map(|(k, e)| (e.last_used, *k)).collect();
            order.sort_unstable();
            let drop_n = (self.capacity / 4).max(1);
            for (_, k) in order.into_iter().take(drop_n) {
                inner.map.remove(&k);
                self.evictions.incr();
            }
        }
    }

    /// Drop every entry naming one of `departed` among its members
    /// (called when queries retire). Purely an optimization: retired
    /// queries never reappear in a closure, so their entries would just
    /// age out — correctness relies on content addressing alone.
    pub fn evict_members(&self, departed: &[u128]) {
        if departed.is_empty() {
            return;
        }
        let mut inner = self.inner.lock();
        let before = inner.map.len();
        inner
            .map
            .retain(|_, e| !e.members.iter().any(|m| departed.contains(m)));
        self.evictions.add((before - inner.map.len()) as u64);
    }

    /// Accumulate grounding work observed by the owning evaluator.
    pub fn record_work(&self, work: u64) {
        self.work.add(work);
    }

    /// Current counters.
    pub fn stats(&self) -> MemoStats {
        let entries = self.inner.lock().map.len();
        MemoStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            evictions: self.evictions.get(),
            entries,
            ground_work: self.work.get(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::QueryBuilder;

    fn q(name: &str, tag: &str) -> EntangledQuery {
        QueryBuilder::new(name)
            .head("R", |a| a.constant(name.to_string()).var("x"))
            .body("T", |a| a.var("x").constant(tag.to_string()))
            .build()
            .unwrap()
    }

    #[test]
    fn digests_separate_contents_and_respect_order() {
        let a = digest_query(&q("a", "t0"));
        let b = digest_query(&q("b", "t0"));
        let a2 = digest_query(&q("a", "t1"));
        assert_ne!(a, b, "names are part of the identity");
        assert_ne!(a, a2, "bodies are part of the identity");
        assert_eq!(a, digest_query(&q("a", "t0")), "digests are stable");
        assert_ne!(closure_key(&[a, b]), closure_key(&[b, a]));
    }

    #[test]
    fn cache_round_trips_verdicts_and_counts() {
        let cache = ClosureCache::new();
        let key = closure_key(&[1, 2]);
        assert!(cache.lookup(key).is_none());
        cache.insert(key, Box::new([1, 2]), CachedVerdict::Failed);
        assert!(matches!(cache.lookup(key), Some(CachedVerdict::Failed)));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
    }

    #[test]
    fn eviction_prefers_least_recently_used() {
        let cache = ClosureCache::with_capacity(4);
        for i in 0..4u128 {
            cache.insert(closure_key(&[i]), Box::new([i]), CachedVerdict::Failed);
        }
        // Touch entry 0 so it is the most recently used.
        assert!(cache.lookup(closure_key(&[0])).is_some());
        cache.insert(closure_key(&[9]), Box::new([9]), CachedVerdict::Failed);
        assert!(
            cache.lookup(closure_key(&[0])).is_some(),
            "recently used survives"
        );
        assert!(
            cache.lookup(closure_key(&[1])).is_none(),
            "LRU entry evicted"
        );
        assert!(cache.stats().evictions >= 1);
    }

    #[test]
    fn member_eviction_drops_exactly_intersecting_entries() {
        let cache = ClosureCache::new();
        cache.insert(
            closure_key(&[1, 2]),
            Box::new([1, 2]),
            CachedVerdict::Failed,
        );
        cache.insert(closure_key(&[3]), Box::new([3]), CachedVerdict::Failed);
        cache.evict_members(&[2]);
        assert!(cache.lookup(closure_key(&[1, 2])).is_none());
        assert!(cache.lookup(closure_key(&[3])).is_some());
    }

    #[test]
    fn binding_rows_round_trip_through_groundings() {
        let qs = QuerySet::new(vec![q("a", "t0"), q("b", "t1")]);
        let members = [QueryId(0), QueryId(1)];
        let mut g = Grounding::new();
        for (i, m) in members.iter().enumerate() {
            for v in qs.vars_of(*m) {
                g.set(v, Value::int(i as i64));
            }
        }
        let rows = bindings_from_grounding(&qs, &members, &g);
        let back = grounding_from_bindings(&qs, &members, &rows);
        for m in &members {
            for v in qs.vars_of(*m) {
                assert_eq!(g.get(v), back.get(v));
            }
        }
    }

    /// Scaling pin for the sweep's memory: along a BA(500, 2) batch every
    /// memo's MGU stores variables of its own closure's members only (so
    /// O(|closure|) to keep), and the identity over the batch nothing.
    #[test]
    fn memo_substitutions_are_confined_to_their_closure() {
        // Query i names up to two earlier partners drawn by degree (an LCG
        // stands in for a generator): ids ascend in reverse topological
        // order and every query is its own component.
        let (mut state, mut ends) = (7u64, Vec::<usize>::new());
        let (mut partners, mut queries) = (Vec::new(), Vec::new());
        for i in 0..500 {
            let mut ps: Vec<usize> = Vec::new();
            for _ in 0..ends.len().min(2) {
                state = state.wrapping_mul(0x5851_F42D_4C95_7F2D).wrapping_add(1);
                ps.push(ends[(state >> 33) as usize % ends.len()]);
            }
            ps.sort_unstable();
            ps.dedup();
            let posts: Vec<String> = ps.iter().map(|p| format!("R(\"u{p}\", y{p})")).collect();
            let posts = posts.join(", ");
            let text = format!("q{i}: {{{posts}}} R(\"u{i}\", x) :- S(x, \"t{i}\")");
            queries.push(crate::parse::parse_query(&text).unwrap());
            ends.extend(ps.iter().copied().chain([i]));
            partners.push(ps);
        }
        let qs = QuerySet::new(queries);
        let index = HeadIndex::build(&qs);
        assert_eq!(Substitution::identity(qs.total_vars()).touched().count(), 0);

        let mut memos: Vec<ClosureMemo> = Vec::new();
        for (i, succs) in partners.iter().enumerate() {
            let succ_memos: Vec<&ClosureMemo> = succs.iter().map(|&p| &memos[p]).collect();
            let members = succ_memos.iter().flat_map(|m| m.fragments.keys().copied());
            let closure: std::collections::BTreeSet<_> = members.chain([QueryId(i)]).collect();
            let closure: Vec<QueryId> = closure.into_iter().collect();
            let work = &mut GroundWork::default();
            let memo = if succ_memos.is_empty() {
                scratch_closure(&qs, &index, &closure, work)
            } else {
                delta_unify(&qs, &index, &closure, &[QueryId(i)], &succ_memos, work)
            };
            let memo = memo.expect("partner queries always unify");
            let member = |v: Var| memo.fragments.contains_key(&qs.owner_of(v).0);
            assert!(memo.subst.touched().all(member), "memo {i}");
            memos.push(memo);
        }
        let widest = memos.iter().map(|m| m.fragments.len()).max().unwrap();
        assert!((10..250).contains(&widest), "closures are deep but partial");
    }
}
