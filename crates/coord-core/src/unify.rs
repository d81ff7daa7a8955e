//! Unification of atoms over the global variable space.
//!
//! The algorithms of Sections 4–5 repeatedly compute Most General Unifiers
//! of postcondition atoms with head atoms. A [`Substitution`] is a
//! union-find structure over global variables, where each equivalence
//! class optionally carries a constant binding. Unifying two atoms merges
//! classes positionally; a conflict between two distinct constants makes
//! unification fail.

use coord_db::{Atom, Term, Value, Var};
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// Why unification failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UnifyError {
    /// The atoms are over different relations.
    RelationMismatch { left: String, right: String },
    /// The atoms have different arities.
    ArityMismatch {
        relation: String,
        left: usize,
        right: usize,
    },
    /// Two distinct constants collided (directly or through variable
    /// classes).
    ConstantConflict { left: Value, right: Value },
}

impl fmt::Display for UnifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UnifyError::RelationMismatch { left, right } => {
                write!(f, "cannot unify atoms over `{left}` and `{right}`")
            }
            UnifyError::ArityMismatch {
                relation,
                left,
                right,
            } => {
                write!(f, "arity mismatch on `{relation}`: {left} vs {right}")
            }
            UnifyError::ConstantConflict { left, right } => {
                write!(f, "constant conflict: {left} ≠ {right}")
            }
        }
    }
}

impl std::error::Error for UnifyError {}

/// One multiplication per variable id. The std default (SipHash under a
/// per-process random key) makes bucket layout, and cost, differ per run.
#[derive(Default)]
struct VarHasher(u64);

impl Hasher for VarHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, _: &[u8]) {
        unreachable!("variable ids hash through write_u32");
    }
    fn write_u32(&mut self, v: u32) {
        self.0 = u64::from(v).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

/// One variable's departure from the identity substitution.
#[derive(Clone, Debug)]
struct Node {
    parent: u32,
    rank: u8,
    binding: Option<Value>,
}

/// A substitution over `n` global variables: union-find with per-class
/// constant bindings. The identity is implied — only variables that have
/// been merged or bound are stored — so creating, cloning and absorbing
/// one costs O(variables it has touched), never O(`n`): a closure's MGU
/// is as large as the closure, whatever the batch around it.
#[derive(Clone, Debug)]
pub struct Substitution {
    n_vars: u32,
    nodes: HashMap<u32, Node, BuildHasherDefault<VarHasher>>,
}

impl Substitution {
    /// The identity substitution over `n_vars` variables.
    pub fn identity(n_vars: u32) -> Self {
        Substitution {
            n_vars,
            nodes: HashMap::default(),
        }
    }

    /// Number of variables covered.
    pub fn n_vars(&self) -> u32 {
        self.n_vars
    }

    /// The variables stored explicitly, in no particular order.
    #[cfg(test)]
    pub(crate) fn touched(&self) -> impl Iterator<Item = Var> + '_ {
        self.nodes.keys().map(|&v| Var(v))
    }

    fn parent(&self, x: u32) -> u32 {
        debug_assert!(x < self.n_vars, "variable outside the substitution");
        self.nodes.get(&x).map_or(x, |n| n.parent)
    }

    fn rank(&self, root: u32) -> u8 {
        self.nodes.get(&root).map_or(0, |n| n.rank)
    }

    fn binding(&self, root: u32) -> Option<&Value> {
        self.nodes.get(&root).and_then(|n| n.binding.as_ref())
    }

    fn node(&mut self, x: u32) -> &mut Node {
        self.nodes.entry(x).or_insert(Node {
            parent: x,
            rank: 0,
            binding: None,
        })
    }

    /// Representative of `v`'s class (with path halving).
    pub fn find(&mut self, v: Var) -> Var {
        let mut x = v.0;
        loop {
            let p = self.parent(x);
            if p == x {
                return Var(x);
            }
            let grandparent = self.parent(p);
            if grandparent != p {
                self.node(x).parent = grandparent;
            }
            x = grandparent;
        }
    }

    /// Representative without mutation (no path compression).
    pub fn find_immutable(&self, v: Var) -> Var {
        let mut x = v.0;
        loop {
            let p = self.parent(x);
            if p == x {
                return Var(x);
            }
            x = p;
        }
    }

    /// Whether `v`'s class is bound to a constant (immutable lookup, no
    /// path compression — safe on shared substitutions).
    pub fn is_bound(&self, v: Var) -> bool {
        self.binding(self.find_immutable(v).0).is_some()
    }

    /// The constant bound to `v`'s class, if any.
    pub fn value_of(&mut self, v: Var) -> Option<Value> {
        let r = self.find(v);
        self.binding(r.0).cloned()
    }

    /// Resolve a term: constants stay; variables become their class
    /// constant if bound, otherwise their representative variable.
    pub fn resolve(&mut self, term: &Term) -> Term {
        match term {
            Term::Const(c) => Term::Const(c.clone()),
            Term::Var(v) => {
                let r = self.find(*v);
                match self.binding(r.0) {
                    Some(c) => Term::Const(c.clone()),
                    None => Term::Var(r),
                }
            }
        }
    }

    /// Apply the substitution to every term of an atom.
    pub fn apply(&mut self, atom: &Atom) -> Atom {
        Atom::new(
            atom.relation.clone(),
            atom.terms.iter().map(|t| self.resolve(t)).collect(),
        )
    }

    /// Bind variable `v` to constant `c`.
    pub fn bind(&mut self, v: Var, c: Value) -> Result<(), UnifyError> {
        let r = self.find(v);
        match self.binding(r.0) {
            Some(existing) if existing != &c => Err(UnifyError::ConstantConflict {
                left: existing.clone(),
                right: c,
            }),
            Some(_) => Ok(()),
            None => {
                self.node(r.0).binding = Some(c);
                Ok(())
            }
        }
    }

    /// The binding of the class that merging roots `a` and `b` forms;
    /// two distinct constants conflict (and nothing has been changed).
    fn merged_binding(&self, a: Var, b: Var) -> Result<Option<Value>, UnifyError> {
        match (self.binding(a.0), self.binding(b.0)) {
            (Some(x), Some(y)) if x != y => Err(UnifyError::ConstantConflict {
                left: x.clone(),
                right: y.clone(),
            }),
            (Some(x), _) => Ok(Some(x.clone())),
            (_, y) => Ok(y.cloned()),
        }
    }

    /// Hang root `lo` under root `hi`, whose class takes `binding`.
    fn link(&mut self, lo: Var, hi: Var, binding: Option<Value>) {
        let bump = self.rank(hi.0) == self.rank(lo.0);
        let below = self.node(lo.0);
        below.parent = hi.0;
        below.binding = None;
        if bump || binding.is_some() {
            let above = self.node(hi.0);
            above.rank += u8::from(bump);
            above.binding = binding;
        }
    }

    /// Merge the classes of `a` and `b`.
    pub fn union(&mut self, a: Var, b: Var) -> Result<(), UnifyError> {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra == rb {
            return Ok(());
        }
        let merged = self.merged_binding(ra, rb)?;
        // Union by rank.
        if self.rank(ra.0) >= self.rank(rb.0) {
            self.link(rb, ra, merged);
        } else {
            self.link(ra, rb, merged);
        }
        Ok(())
    }

    /// Unify two terms.
    pub fn unify_terms(&mut self, a: &Term, b: &Term) -> Result<(), UnifyError> {
        self.unify_terms_logged(a, b, None)
    }

    /// Unify two atoms positionally (the MGU step of the paper's
    /// algorithms). Both atoms must be over the same relation with equal
    /// arity.
    ///
    /// On failure the substitution may be left partially updated; callers
    /// that need transactional behaviour clone first (component-level
    /// unification in the SCC algorithm does exactly that).
    pub fn unify_atoms(&mut self, a: &Atom, b: &Atom) -> Result<(), UnifyError> {
        self.unify_atoms_logged(a, b, None)
    }

    /// Unify a postcondition term against a head term, preferring the
    /// head side's representative on variable–variable merges (the head
    /// belongs to an already-memoized closure whose cached fragments
    /// were rewritten under its representative; the postcondition side
    /// is fresh). Mutations that can invalidate cached fragments are
    /// logged.
    pub fn unify_terms_directed(
        &mut self,
        post: &Term,
        head: &Term,
        log: &mut DeltaLog,
    ) -> Result<(), UnifyError> {
        self.unify_terms_logged(post, head, Some(log))
    }

    /// [`Substitution::unify_atoms`] with the head-preferring,
    /// fragment-dirt-logging term unification of
    /// [`Substitution::unify_terms_directed`].
    pub fn unify_atoms_directed(
        &mut self,
        post: &Atom,
        head: &Atom,
        log: &mut DeltaLog,
    ) -> Result<(), UnifyError> {
        self.unify_atoms_logged(post, head, Some(log))
    }

    /// Term unification, plain (`log` absent) or directed and logged.
    fn unify_terms_logged(
        &mut self,
        a: &Term,
        b: &Term,
        log: Option<&mut DeltaLog>,
    ) -> Result<(), UnifyError> {
        match (a, b, log) {
            (Term::Const(x), Term::Const(y), _) if x == y => Ok(()),
            (Term::Const(x), Term::Const(y), _) => Err(UnifyError::ConstantConflict {
                left: x.clone(),
                right: y.clone(),
            }),
            (Term::Var(v), Term::Const(c), None) | (Term::Const(c), Term::Var(v), None) => {
                self.bind(*v, c.clone())
            }
            (Term::Var(v), Term::Const(c), Some(log))
            | (Term::Const(c), Term::Var(v), Some(log)) => self.bind_logged(*v, c.clone(), log),
            (Term::Var(v), Term::Var(w), None) => self.union(*v, *w),
            (Term::Var(post), Term::Var(head), Some(log)) => self.union_keeping(*head, *post, log),
        }
    }

    /// Positional atom unification over [`Substitution::unify_terms_logged`].
    fn unify_atoms_logged(
        &mut self,
        a: &Atom,
        b: &Atom,
        mut log: Option<&mut DeltaLog>,
    ) -> Result<(), UnifyError> {
        if a.relation != b.relation {
            return Err(UnifyError::RelationMismatch {
                left: a.relation.to_string(),
                right: b.relation.to_string(),
            });
        }
        if a.arity() != b.arity() {
            return Err(UnifyError::ArityMismatch {
                relation: a.relation.to_string(),
                left: a.arity(),
                right: b.arity(),
            });
        }
        for (ta, tb) in a.terms.iter().zip(&b.terms) {
            self.unify_terms_logged(ta, tb, log.as_deref_mut())?;
        }
        Ok(())
    }

    /// Bind, logging the class representative into `log` when the class
    /// goes from unbound to bound (cached atoms showing that variable are
    /// now stale).
    pub fn bind_logged(&mut self, v: Var, c: Value, log: &mut DeltaLog) -> Result<(), UnifyError> {
        let r = self.find(v);
        let was_unbound = self.binding(r.0).is_none();
        self.bind(r, c)?;
        if was_unbound {
            log.dirty.push(r);
        }
        Ok(())
    }

    /// Merge the classes of `keep` and `other`, making `keep`'s current
    /// representative the representative of the merged class regardless
    /// of rank. The differential closure evaluation uses this to keep
    /// the representatives that cached closure fragments were rewritten
    /// under: the dethroned representative (and, if the merge imports a
    /// binding onto a previously unbound winner, the winner itself) is
    /// logged into `log` so stale fragments can be found and repaired.
    pub fn union_keeping(
        &mut self,
        keep: Var,
        other: Var,
        log: &mut DeltaLog,
    ) -> Result<(), UnifyError> {
        let rk = self.find(keep);
        let ro = self.find(other);
        if rk == ro {
            return Ok(());
        }
        let merged = self.merged_binding(rk, ro)?;
        if merged.is_some() && self.binding(rk.0).is_none() {
            // The winner was unbound and inherits a constant:
            // fragments still showing `rk` as a variable are stale.
            log.dirty.push(rk);
        }
        self.link(ro, rk, merged);
        log.dirty.push(ro);
        Ok(())
    }

    /// Fold every equivalence and binding of `other` into `self`:
    /// afterwards `self` entails the union of both constraint sets.
    /// Fails with the usual [`UnifyError::ConstantConflict`] exactly
    /// when that union is inconsistent — the same verdict a from-scratch
    /// unification of the combined constraints would reach. Used when a
    /// closure has several memoized successors: one memo is cloned as
    /// the base, the others absorbed. O(variables `other` has touched).
    pub fn absorb(&mut self, other: &Substitution) -> Result<(), UnifyError> {
        debug_assert_eq!(self.n_vars(), other.n_vars());
        // Ascending variable order, so representatives are reproducible.
        let mut nodes: Vec<(u32, &Node)> = other.nodes.iter().map(|(&v, n)| (v, n)).collect();
        nodes.sort_unstable_by_key(|&(v, _)| v);
        for &(v, node) in &nodes {
            if node.parent != v {
                self.union(Var(v), other.find_immutable(Var(v)))?;
            }
        }
        for &(v, node) in &nodes {
            if let Some(c) = &node.binding {
                self.bind(Var(v), c.clone())?;
            }
        }
        Ok(())
    }
}

/// Mutation log of a delta unification pass: representatives whose class
/// identity or binding changed, i.e. variables that may appear inside
/// memoized closure fragments that are now stale. An empty log proves
/// every cached fragment is still exact and the validation scan can be
/// skipped entirely — the common case on chain-shaped condensations,
/// where each component adds constraints only over fresh variables.
#[derive(Debug, Default)]
pub struct DeltaLog {
    /// Representatives dethroned or newly bound during the delta pass.
    pub dirty: Vec<Var>,
}

impl DeltaLog {
    /// Whether no cached fragment can have gone stale.
    pub fn is_clean(&self) -> bool {
        self.dirty.is_empty()
    }
}

/// Syntactic unifiability test used to build coordination graphs
/// (Section 2.3): two atoms are unifiable if they are over the same
/// relation (with the same arity) and no position has two distinct
/// constants. This is a *stateless* check — it ignores any existing
/// substitution context, exactly as in the paper's definition.
pub fn atoms_unifiable(a: &Atom, b: &Atom) -> bool {
    a.relation == b.relation
        && a.arity() == b.arity()
        && a.terms.iter().zip(&b.terms).all(|(x, y)| match (x, y) {
            (Term::Const(cx), Term::Const(cy)) => cx == cy,
            _ => true,
        })
}

/// Counts syntactic [`atoms_unifiable`] tests, so the candidate
/// enumeration of graph construction, the safety check and preprocessing
/// can *prove* it is near-linear: with the shared
/// [`coord_graph::index`] layer the count grows as O(n·k) in the number
/// of atoms (`k` = index bucket width), where the naive all-pairs sweep
/// performs Θ(posts × heads) tests. The counter is plain owned state —
/// no globals, no atomics — so concurrent runs never bleed into each
/// other's figures.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct UnifyCounter {
    calls: u64,
}

impl UnifyCounter {
    /// A fresh counter.
    pub fn new() -> Self {
        UnifyCounter::default()
    }

    /// [`atoms_unifiable`], counted.
    pub fn check(&mut self, a: &Atom, b: &Atom) -> bool {
        self.calls += 1;
        atoms_unifiable(a, b)
    }

    /// Number of unifiability tests performed so far.
    pub fn calls(&self) -> u64 {
        self.calls
    }

    /// Fold another counter's tally into this one.
    pub fn absorb(&mut self, other: UnifyCounter) {
        self.calls += other.calls;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn atom(rel: &str, terms: Vec<Term>) -> Atom {
        Atom::new(rel, terms)
    }

    #[test]
    fn paper_unifiability_examples() {
        // R(C, x1) unifies with R(C, y1); R(C, x1) does not unify with
        // R(G, y1). (Section 2.3.)
        let c_x1 = atom("R", vec![Term::constant("C"), Term::var(0)]);
        let c_y1 = atom("R", vec![Term::constant("C"), Term::var(1)]);
        let g_y1 = atom("R", vec![Term::constant("G"), Term::var(1)]);
        assert!(atoms_unifiable(&c_x1, &c_y1));
        assert!(!atoms_unifiable(&c_x1, &g_y1));
    }

    #[test]
    fn unifiable_ignores_variable_positions() {
        let a = atom("R", vec![Term::var(0), Term::constant(1i64)]);
        let b = atom("R", vec![Term::constant("u"), Term::var(5)]);
        assert!(atoms_unifiable(&a, &b));
    }

    #[test]
    fn different_relations_or_arity_not_unifiable() {
        let a = atom("R", vec![Term::var(0)]);
        let b = atom("Q", vec![Term::var(0)]);
        assert!(!atoms_unifiable(&a, &b));
        let c = atom("R", vec![Term::var(0), Term::var(1)]);
        assert!(!atoms_unifiable(&a, &c));
    }

    #[test]
    fn union_and_find() {
        let mut s = Substitution::identity(4);
        s.union(Var(0), Var(1)).unwrap();
        s.union(Var(2), Var(3)).unwrap();
        assert_eq!(s.find(Var(0)), s.find(Var(1)));
        assert_ne!(s.find(Var(0)), s.find(Var(2)));
        s.union(Var(1), Var(2)).unwrap();
        assert_eq!(s.find(Var(0)), s.find(Var(3)));
    }

    #[test]
    fn bind_propagates_through_classes() {
        let mut s = Substitution::identity(3);
        s.union(Var(0), Var(1)).unwrap();
        s.bind(Var(0), Value::int(7)).unwrap();
        assert_eq!(s.value_of(Var(1)), Some(Value::int(7)));
        // Joining an unbound class keeps the binding.
        s.union(Var(2), Var(1)).unwrap();
        assert_eq!(s.value_of(Var(2)), Some(Value::int(7)));
    }

    #[test]
    fn conflicting_bindings_fail() {
        let mut s = Substitution::identity(2);
        s.bind(Var(0), Value::int(1)).unwrap();
        s.bind(Var(1), Value::int(2)).unwrap();
        assert!(s.union(Var(0), Var(1)).is_err());
        // The failed union must not corrupt bindings.
        assert_eq!(s.value_of(Var(0)), Some(Value::int(1)));
        assert_eq!(s.value_of(Var(1)), Some(Value::int(2)));
    }

    #[test]
    fn rebind_same_value_is_ok() {
        let mut s = Substitution::identity(1);
        s.bind(Var(0), Value::str("a")).unwrap();
        s.bind(Var(0), Value::str("a")).unwrap();
        assert!(s.bind(Var(0), Value::str("b")).is_err());
    }

    #[test]
    fn unify_atoms_mgu() {
        // R(C, x) ≐ R(y, 5) ⇒ y ↦ C, x ↦ 5.
        let mut s = Substitution::identity(2);
        let a = atom("R", vec![Term::constant("C"), Term::var(0)]);
        let b = atom("R", vec![Term::var(1), Term::constant(5i64)]);
        s.unify_atoms(&a, &b).unwrap();
        assert_eq!(s.value_of(Var(0)), Some(Value::int(5)));
        assert_eq!(s.value_of(Var(1)), Some(Value::str("C")));
    }

    #[test]
    fn unify_atoms_relation_mismatch() {
        let mut s = Substitution::identity(1);
        let a = atom("R", vec![Term::var(0)]);
        let b = atom("Q", vec![Term::var(0)]);
        assert!(matches!(
            s.unify_atoms(&a, &b),
            Err(UnifyError::RelationMismatch { .. })
        ));
    }

    #[test]
    fn resolve_and_apply() {
        let mut s = Substitution::identity(3);
        s.union(Var(0), Var(1)).unwrap();
        s.bind(Var(2), Value::str("Paris")).unwrap();
        let a = atom("F", vec![Term::var(0), Term::var(1), Term::var(2)]);
        let applied = s.apply(&a);
        // Vars 0 and 1 resolve to the same representative; var 2 to Paris.
        assert_eq!(applied.terms[0], applied.terms[1]);
        assert_eq!(applied.terms[2], Term::Const(Value::str("Paris")));
    }

    #[test]
    fn union_keeping_preserves_the_requested_representative() {
        let mut s = Substitution::identity(4);
        // Build a class around var 0 with higher rank.
        s.union(Var(0), Var(1)).unwrap();
        s.union(Var(0), Var(2)).unwrap();
        let mut log = DeltaLog::default();
        // Keep var 3's rep even though var 0's class outranks it.
        s.union_keeping(Var(3), Var(0), &mut log).unwrap();
        assert_eq!(s.find(Var(0)), Var(3));
        assert_eq!(s.find(Var(1)), Var(3));
        // The dethroned representative is logged.
        assert_eq!(log.dirty, vec![Var(0)]);
        assert!(!log.is_clean());
    }

    #[test]
    fn union_keeping_logs_winner_when_it_inherits_a_binding() {
        let mut s = Substitution::identity(2);
        s.bind(Var(1), Value::int(9)).unwrap();
        let mut log = DeltaLog::default();
        s.union_keeping(Var(0), Var(1), &mut log).unwrap();
        // Var 0 stayed representative but went from unbound to bound, so
        // both it and the dethroned rep are dirty.
        assert_eq!(s.value_of(Var(0)), Some(Value::int(9)));
        assert!(log.dirty.contains(&Var(0)));
        assert!(log.dirty.contains(&Var(1)));
    }

    #[test]
    fn union_keeping_detects_conflicts_without_corruption() {
        let mut s = Substitution::identity(2);
        s.bind(Var(0), Value::int(1)).unwrap();
        s.bind(Var(1), Value::int(2)).unwrap();
        let mut log = DeltaLog::default();
        assert!(s.union_keeping(Var(0), Var(1), &mut log).is_err());
        assert_eq!(s.value_of(Var(0)), Some(Value::int(1)));
        assert_eq!(s.value_of(Var(1)), Some(Value::int(2)));
    }

    #[test]
    fn directed_unification_reaches_the_same_mgu() {
        let post = atom("R", vec![Term::constant("C"), Term::var(0)]);
        let head = atom("R", vec![Term::var(1), Term::constant(5i64)]);
        let mut plain = Substitution::identity(2);
        plain.unify_atoms(&post, &head).unwrap();
        let mut directed = Substitution::identity(2);
        let mut log = DeltaLog::default();
        directed
            .unify_atoms_directed(&post, &head, &mut log)
            .unwrap();
        for v in 0..2 {
            assert_eq!(plain.value_of(Var(v)), directed.value_of(Var(v)));
        }
    }

    #[test]
    fn absorb_entails_the_union_of_constraints() {
        // other: {0 ~ 1 ↦ 7}; self: {1 ~ 2}. After absorb, all three
        // share a class bound to 7.
        let mut other = Substitution::identity(3);
        other.union(Var(0), Var(1)).unwrap();
        other.bind(Var(0), Value::int(7)).unwrap();
        let mut s = Substitution::identity(3);
        s.union(Var(1), Var(2)).unwrap();
        s.absorb(&other).unwrap();
        assert_eq!(s.find(Var(0)), s.find(Var(2)));
        assert_eq!(s.value_of(Var(2)), Some(Value::int(7)));
        // Conflicting absorb fails like from-scratch unification would.
        let mut conflicted = Substitution::identity(3);
        conflicted.bind(Var(1), Value::int(8)).unwrap();
        assert!(conflicted.absorb(&other).is_err());
    }

    #[test]
    fn transitive_constant_conflict_detected() {
        // x ≐ 1, y ≐ 2, then x ≐ y must fail through the classes.
        let mut s = Substitution::identity(2);
        let a1 = atom("R", vec![Term::var(0), Term::var(1)]);
        let a2 = atom("R", vec![Term::constant(1i64), Term::constant(2i64)]);
        s.unify_atoms(&a1, &a2).unwrap();
        let a3 = atom("R", vec![Term::var(0), Term::var(0)]);
        let a4 = atom("R", vec![Term::var(1), Term::var(1)]);
        assert!(s.unify_atoms(&a3, &a4).is_err());
    }
}
