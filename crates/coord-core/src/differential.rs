//! Differential closure evaluation: memoized SCC groundings along the
//! condensation, in the style of incremental view maintenance (DBSP /
//! differential dataflow).
//!
//! The SCC Coordination Algorithm evaluates one closure `R(q)` per
//! component, walking the condensation in reverse topological order.
//! Evaluated from scratch, the closure work is Σ|closure| — quadratic on
//! a list workload, where the i-th closure repeats all the unification
//! and body rewriting already done for closure i−1. This module memoizes
//! per-component results for the length of one sweep ([`ClosureMemo`]):
//! after a component's closure is unified and grounded, its MGU
//! ([`Substitution`]) and its body atoms rewritten under that MGU
//! (per-member *fragments*) are kept. A predecessor evaluates as a
//! **delta join**: clone the largest successor memo, absorb any others,
//! unify only the component's *own* postconditions into the cached MGU
//! with the representative-preserving ops of [`crate::unify`], and rebuild
//! only the fragments whose variables were dethroned or newly bound
//! (tracked by [`DeltaLog`]). On a chain, a component touches O(Δ) atoms
//! instead of O(|closure|). A memo costs O(|closure|) to keep and to
//! clone — fragments are shared by `Arc`, and the MGU stores only
//! variables its closure has merged or bound — so a sweep spends
//! O(|closure| + Δ) per component and Σ|closure|, the size of its output,
//! in total. Nothing outlives the sweep: the online engine re-evaluates a
//! component from its pending queries every time one arrives.
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
//! then resolves every member variable to the same [`coord_db::Value`]s. The
//! differential proptest suite asserts this equality byte-for-byte.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::combined::unify_members_counted;
use crate::graphs::HeadIndex;
use crate::instance::QuerySet;
use crate::query::QueryId;
use crate::unify::{atoms_unifiable, DeltaLog, Substitution};
use coord_db::{Atom, ConjunctiveQuery, Term};

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

#[cfg(test)]
mod tests {
    use super::*;
    use coord_db::Var;

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
