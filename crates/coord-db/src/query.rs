//! Conjunctive queries over database relations.
//!
//! A [`ConjunctiveQuery`] is a list of [`Atom`]s whose arguments are
//! [`Term`]s — variables or constants. This is exactly the *body* language
//! of entangled queries; the coordination algorithms construct combined
//! bodies in this form and send them to the database.

use crate::error::DbError;
use crate::symbol::Symbol;
use crate::table::Table;
use crate::value::Value;
use std::fmt;

/// A query variable, identified by a dense non-negative id.
///
/// Variable ids are scoped by the query set that created them; the
/// coordination layer renames per-query variables into one global space
/// before unification.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Var(pub u32);

impl Var {
    /// The variable's raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "?{}", self.0)
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "?{}", self.0)
    }
}

/// An atom argument: a variable or a constant value.
#[derive(Clone, PartialEq, Eq, Hash)]
pub enum Term {
    Var(Var),
    Const(Value),
}

impl Term {
    /// Convenience constructor for a constant term.
    pub fn constant(v: impl Into<Value>) -> Self {
        Term::Const(v.into())
    }

    /// Convenience constructor for a variable term.
    pub fn var(i: u32) -> Self {
        Term::Var(Var(i))
    }

    /// The variable inside, if this term is a variable.
    pub fn as_var(&self) -> Option<Var> {
        match self {
            Term::Var(v) => Some(*v),
            Term::Const(_) => None,
        }
    }

    /// The constant inside, if this term is a constant.
    pub fn as_const(&self) -> Option<&Value> {
        match self {
            Term::Var(_) => None,
            Term::Const(v) => Some(v),
        }
    }

    /// Whether this term is a constant.
    pub fn is_const(&self) -> bool {
        matches!(self, Term::Const(_))
    }
}

impl fmt::Debug for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Var(v) => write!(f, "{v}"),
            Term::Const(c) => write!(f, "{c:?}"),
        }
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Var(v) => write!(f, "{v}"),
            Term::Const(c) => write!(f, "{c}"),
        }
    }
}

impl From<Var> for Term {
    fn from(v: Var) -> Self {
        Term::Var(v)
    }
}

impl From<Value> for Term {
    fn from(v: Value) -> Self {
        Term::Const(v)
    }
}

/// A relational atom `R(t_1, ..., t_k)`.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Atom {
    pub relation: Symbol,
    pub terms: Vec<Term>,
}

impl Atom {
    /// Build an atom over relation `relation` with the given terms.
    pub fn new(relation: impl Into<Symbol>, terms: Vec<Term>) -> Self {
        Atom {
            relation: relation.into(),
            terms,
        }
    }

    /// The atom's arity.
    pub fn arity(&self) -> usize {
        self.terms.len()
    }

    /// Iterate over the variables occurring in this atom (with repeats).
    pub fn vars(&self) -> impl Iterator<Item = Var> + '_ {
        self.terms.iter().filter_map(Term::as_var)
    }

    /// The table this atom ranges over, checked against the atom's
    /// arity: an unknown relation is reported before an arity mismatch.
    pub(crate) fn table_in<'a>(&self, db: &'a crate::Database) -> Result<&'a Table, DbError> {
        let table = db.table(&self.relation)?;
        if self.arity() != table.schema().arity() {
            return Err(DbError::ArityMismatch {
                relation: self.relation.to_string(),
                expected: table.schema().arity(),
                actual: self.arity(),
            });
        }
        Ok(table)
    }
}

impl fmt::Debug for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.relation)?;
        for (i, t) in self.terms.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{t:?}")?;
        }
        write!(f, ")")
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.relation)?;
        for (i, t) in self.terms.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, ")")
    }
}

/// A conjunction of atoms, evaluated against a [`crate::Database`].
///
/// An empty conjunction is trivially satisfiable (used by the hardness
/// reductions, whose queries have body `∅`).
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct ConjunctiveQuery {
    pub atoms: Vec<Atom>,
}

impl ConjunctiveQuery {
    /// Build a query from atoms.
    pub fn new(atoms: Vec<Atom>) -> Self {
        ConjunctiveQuery { atoms }
    }

    /// The empty (trivially true) query.
    pub fn empty() -> Self {
        ConjunctiveQuery { atoms: Vec::new() }
    }

    /// All distinct variables, in first-occurrence order.
    pub fn vars(&self) -> Vec<Var> {
        let mut seen = std::collections::HashSet::new();
        let mut out = Vec::new();
        for atom in &self.atoms {
            for v in atom.vars() {
                if seen.insert(v) {
                    out.push(v);
                }
            }
        }
        out
    }

    /// Validate relation names and arities against the database schema.
    pub fn validate(&self, db: &crate::Database) -> Result<(), DbError> {
        self.atoms.iter().try_for_each(|a| a.table_in(db).map(drop))
    }
}

impl fmt::Display for ConjunctiveQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.atoms.is_empty() {
            return write!(f, "∅");
        }
        for (i, a) in self.atoms.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{a}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn term_accessors() {
        let t = Term::constant(5i64);
        assert!(t.is_const());
        assert_eq!(t.as_const(), Some(&Value::int(5)));
        assert_eq!(t.as_var(), None);

        let v = Term::var(3);
        assert_eq!(v.as_var(), Some(Var(3)));
        assert!(!v.is_const());
    }

    #[test]
    fn atom_vars() {
        let a = Atom::new("F", vec![Term::var(0), Term::constant("Zurich")]);
        assert_eq!(a.vars().collect::<Vec<_>>(), vec![Var(0)]);

        let g = Atom::new("F", vec![Term::constant(1i64), Term::constant("Zurich")]);
        assert_eq!(g.vars().count(), 0);
    }

    #[test]
    fn query_vars_dedup_in_order() {
        let q = ConjunctiveQuery::new(vec![
            Atom::new("F", vec![Term::var(1), Term::var(0)]),
            Atom::new("H", vec![Term::var(0), Term::var(2)]),
        ]);
        assert_eq!(q.vars(), vec![Var(1), Var(0), Var(2)]);
    }

    #[test]
    fn display_round_trip_shapes() {
        let q = ConjunctiveQuery::new(vec![Atom::new(
            "F",
            vec![Term::var(0), Term::constant("Paris")],
        )]);
        assert_eq!(q.to_string(), "F(?0, Paris)");
        assert_eq!(ConjunctiveQuery::empty().to_string(), "∅");
    }
}
