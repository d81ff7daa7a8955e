//! Entangled query syntax: `{P} H :- B`.
//!
//! An entangled query (Section 2.1 of the paper) is a triple of
//!
//! * **postconditions** `P` — answer-relation atoms the query *requires*
//!   other queries (or itself) to produce,
//! * **head** `H` — answer-relation atoms the query *produces*,
//! * **body** `B` — a conjunction over database relations that constrains
//!   the query's variables.
//!
//! Example (the paper's running example): Gwyneth wants to fly with Chris
//! to Zurich:
//!
//! ```text
//! q1 = {R(Chris, x)}  R(Gwyneth, x)  :-  Flights(x, Zurich)
//! ```

use crate::error::CoordError;
use coord_db::{Atom, Database, Symbol, Term, Value, Var};
use std::collections::HashMap;
use std::fmt;

/// Identifier of a query within a [`crate::instance::QuerySet`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QueryId(pub usize);

impl QueryId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Debug for QueryId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "q{}", self.0)
    }
}

/// An entangled query `{P} H :- B`.
///
/// Variables are local to the query (dense ids `0..var_count`); a
/// [`crate::instance::QuerySet`] renames them into a global space before
/// unification. Use [`QueryBuilder`] to construct queries with named
/// variables.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EntangledQuery {
    name: String,
    postconditions: Vec<Atom>,
    heads: Vec<Atom>,
    body: Vec<Atom>,
    var_names: Vec<String>,
}

impl EntangledQuery {
    /// Construct a query from parts. Prefer [`QueryBuilder`].
    ///
    /// `var_names[i]` names local variable `Var(i)`; every variable used in
    /// an atom must be named.
    pub fn new(
        name: impl Into<String>,
        postconditions: Vec<Atom>,
        heads: Vec<Atom>,
        body: Vec<Atom>,
        var_names: Vec<String>,
    ) -> Result<Self, CoordError> {
        let name = name.into();
        if heads.is_empty() {
            return Err(CoordError::EmptyHead { query: name });
        }
        let q = EntangledQuery {
            name,
            postconditions,
            heads,
            body,
            var_names,
        };
        // Internal invariant: all variables are in range.
        let n = q.var_names.len() as u32;
        for atom in q.all_atoms() {
            for v in atom.vars() {
                assert!(v.0 < n, "variable {v:?} out of range in query `{}`", q.name);
            }
        }
        Ok(q)
    }

    /// The query's display name (e.g. `"qC"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Postcondition atoms `P`.
    pub fn postconditions(&self) -> &[Atom] {
        &self.postconditions
    }

    /// Head atoms `H`.
    pub fn heads(&self) -> &[Atom] {
        &self.heads
    }

    /// Body atoms `B`.
    pub fn body(&self) -> &[Atom] {
        &self.body
    }

    /// Number of local variables.
    pub fn var_count(&self) -> u32 {
        self.var_names.len() as u32
    }

    /// The name of a local variable.
    pub fn var_name(&self, v: Var) -> &str {
        &self.var_names[v.index()]
    }

    /// All atoms of the query: postconditions, heads, then body.
    pub fn all_atoms(&self) -> impl Iterator<Item = &Atom> {
        self.postconditions
            .iter()
            .chain(&self.heads)
            .chain(&self.body)
    }

    /// Relations used in heads and postconditions (the *answer relations*).
    fn answer_relations(&self) -> impl Iterator<Item = &Symbol> {
        self.postconditions
            .iter()
            .chain(&self.heads)
            .map(|a| &a.relation)
    }

    /// Validate this query against a database per the syntax requirements
    /// of Section 2.1: body relations must exist in the schema (with the
    /// right arity), answer relations must not.
    pub fn validate(&self, db: &Database) -> Result<(), CoordError> {
        for atom in &self.body {
            let table = db
                .table(&atom.relation)
                .map_err(|_| CoordError::BodyRelationMissing {
                    query: self.name.clone(),
                    relation: atom.relation.to_string(),
                })?;
            if table.schema().arity() != atom.arity() {
                return Err(CoordError::Db(coord_db::DbError::ArityMismatch {
                    relation: atom.relation.to_string(),
                    expected: table.schema().arity(),
                    actual: atom.arity(),
                }));
            }
        }
        for rel in self.answer_relations() {
            if db.has_relation(rel) {
                return Err(CoordError::AnswerRelationInSchema {
                    query: self.name.clone(),
                    relation: rel.to_string(),
                });
            }
        }
        Ok(())
    }
}

impl fmt::Display for EntangledQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let fmt_atom = |atom: &Atom| {
            let args: Vec<String> = atom
                .terms
                .iter()
                .map(|t| match t {
                    Term::Var(v) => self.var_names[v.index()].clone(),
                    Term::Const(c) => c.to_string(),
                })
                .collect();
            format!("{}({})", atom.relation, args.join(", "))
        };
        let list = |atoms: &[Atom]| atoms.iter().map(fmt_atom).collect::<Vec<_>>().join(", ");
        write!(
            f,
            "{}: {{{}}} {} :- {}",
            self.name,
            list(&self.postconditions),
            list(&self.heads),
            if self.body.is_empty() {
                "∅".to_string()
            } else {
                list(&self.body)
            }
        )
    }
}

/// Fluent builder for atoms inside a [`QueryBuilder`].
///
/// Variables are referenced by name and shared across all atoms of the
/// query being built; constants may be strings or integers.
pub struct AtomArgs<'b> {
    vars: &'b mut HashMap<String, Var>,
    names: &'b mut Vec<String>,
    terms: Vec<Term>,
}

impl AtomArgs<'_> {
    /// Append a named variable argument (created on first use).
    pub fn var(mut self, name: impl AsRef<str>) -> Self {
        let name = name.as_ref();
        let next = Var(self.names.len() as u32);
        let v = *self.vars.entry(name.to_string()).or_insert_with(|| {
            self.names.push(name.to_string());
            next
        });
        self.terms.push(Term::Var(v));
        self
    }

    /// Append a constant argument.
    pub fn constant(mut self, value: impl Into<Value>) -> Self {
        self.terms.push(Term::Const(value.into()));
        self
    }
}

/// Fluent builder for [`EntangledQuery`] values.
///
/// ```
/// use coord_core::QueryBuilder;
///
/// // {R(Chris, x)} R(Gwyneth, x) :- Flights(x, Zurich)
/// let q = QueryBuilder::new("q1")
///     .postcondition("R", |a| a.constant("Chris").var("x"))
///     .head("R", |a| a.constant("Gwyneth").var("x"))
///     .body("Flights", |a| a.var("x").constant("Zurich"))
///     .build()
///     .unwrap();
/// assert_eq!(q.postconditions().len(), 1);
/// ```
pub struct QueryBuilder {
    name: String,
    vars: HashMap<String, Var>,
    var_names: Vec<String>,
    postconditions: Vec<Atom>,
    heads: Vec<Atom>,
    body: Vec<Atom>,
}

impl QueryBuilder {
    /// Start building a query with the given display name.
    pub fn new(name: impl Into<String>) -> Self {
        QueryBuilder {
            name: name.into(),
            vars: HashMap::new(),
            var_names: Vec::new(),
            postconditions: Vec::new(),
            heads: Vec::new(),
            body: Vec::new(),
        }
    }

    fn make_atom(
        &mut self,
        relation: impl Into<Symbol>,
        f: impl FnOnce(AtomArgs<'_>) -> AtomArgs<'_>,
    ) -> Atom {
        let args = f(AtomArgs {
            vars: &mut self.vars,
            names: &mut self.var_names,
            terms: Vec::new(),
        });
        Atom::new(relation, args.terms)
    }

    /// Add a postcondition atom.
    pub fn postcondition(
        mut self,
        relation: impl Into<Symbol>,
        f: impl FnOnce(AtomArgs<'_>) -> AtomArgs<'_>,
    ) -> Self {
        let atom = self.make_atom(relation, f);
        self.postconditions.push(atom);
        self
    }

    /// Add a head atom.
    pub fn head(
        mut self,
        relation: impl Into<Symbol>,
        f: impl FnOnce(AtomArgs<'_>) -> AtomArgs<'_>,
    ) -> Self {
        let atom = self.make_atom(relation, f);
        self.heads.push(atom);
        self
    }

    /// Add a body atom.
    pub fn body(
        mut self,
        relation: impl Into<Symbol>,
        f: impl FnOnce(AtomArgs<'_>) -> AtomArgs<'_>,
    ) -> Self {
        let atom = self.make_atom(relation, f);
        self.body.push(atom);
        self
    }

    /// Finish building.
    pub fn build(self) -> Result<EntangledQuery, CoordError> {
        EntangledQuery::new(
            self.name,
            self.postconditions,
            self.heads,
            self.body,
            self.var_names,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gwyneth() -> EntangledQuery {
        QueryBuilder::new("q1")
            .postcondition("R", |a| a.constant("Chris").var("x"))
            .head("R", |a| a.constant("Gwyneth").var("x"))
            .body("Flights", |a| a.var("x").constant("Zurich"))
            .build()
            .unwrap()
    }

    #[test]
    fn builder_shares_variables_across_atoms() {
        let q = gwyneth();
        assert_eq!(q.var_count(), 1);
        let post_var = q.postconditions()[0].terms[1].as_var().unwrap();
        let head_var = q.heads()[0].terms[1].as_var().unwrap();
        let body_var = q.body()[0].terms[0].as_var().unwrap();
        assert_eq!(post_var, head_var);
        assert_eq!(head_var, body_var);
        assert_eq!(q.var_name(post_var), "x");
    }

    #[test]
    fn empty_head_rejected() {
        let err = QueryBuilder::new("bad")
            .body("F", |a| a.var("x"))
            .build()
            .unwrap_err();
        assert!(matches!(err, CoordError::EmptyHead { .. }));
    }

    #[test]
    fn display_matches_paper_notation() {
        let q = gwyneth();
        assert_eq!(
            q.to_string(),
            "q1: {R(Chris, x)} R(Gwyneth, x) :- Flights(x, Zurich)"
        );
    }

    #[test]
    fn empty_body_displays_as_empty_set() {
        let q = QueryBuilder::new("c")
            .head("C", |a| a.constant(1i64))
            .build()
            .unwrap();
        assert!(q.to_string().ends_with(":- ∅"));
    }

    #[test]
    fn validate_against_schema() {
        let mut db = Database::new();
        db.create_table("Flights", &["id", "dest"]).unwrap();
        let q = gwyneth();
        q.validate(&db).unwrap();

        // Body relation missing.
        let empty = Database::new();
        assert!(matches!(
            q.validate(&empty),
            Err(CoordError::BodyRelationMissing { .. })
        ));

        // Answer relation clashing with schema.
        let mut db2 = Database::new();
        db2.create_table("Flights", &["id", "dest"]).unwrap();
        db2.create_table("R", &["a", "b"]).unwrap();
        assert!(matches!(
            q.validate(&db2),
            Err(CoordError::AnswerRelationInSchema { .. })
        ));
    }

    #[test]
    fn validate_checks_body_arity() {
        let mut db = Database::new();
        db.create_table("Flights", &["id", "dest", "airline"])
            .unwrap();
        let q = gwyneth(); // body atom has arity 2
        assert!(q.validate(&db).is_err());
    }

    #[test]
    fn answer_relations_listed() {
        let q = gwyneth();
        let rels: Vec<String> = q
            .answer_relations()
            .map(std::string::ToString::to_string)
            .collect();
        assert_eq!(rels, vec!["R", "R"]);
    }
}
