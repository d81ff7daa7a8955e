//! Query sets: a batch of entangled queries with one global variable space.
//!
//! Each [`crate::query::EntangledQuery`] names its variables locally
//! (`Var(0)..Var(k)`). Unification and combined-query construction need a
//! single namespace, so a [`QuerySet`] assigns each query a contiguous
//! block of *global* variable ids and rewrites atoms on demand.

use crate::error::CoordError;
use crate::query::{EntangledQuery, QueryId};
use coord_db::{Atom, Database, Symbol, Term, Var};
use std::collections::HashMap;

/// A batch of entangled queries sharing a global variable space.
#[derive(Clone, Debug)]
pub struct QuerySet {
    queries: Vec<EntangledQuery>,
    /// Global id of each query's `Var(0)`.
    offsets: Vec<u32>,
    total_vars: u32,
}

impl QuerySet {
    /// Build a query set from queries.
    pub fn new(queries: impl Into<Vec<EntangledQuery>>) -> Self {
        let queries = queries.into();
        let mut offsets = Vec::with_capacity(queries.len());
        let mut total = 0u32;
        for q in &queries {
            offsets.push(total);
            total += q.var_count();
        }
        QuerySet {
            queries,
            offsets,
            total_vars: total,
        }
    }

    /// Number of queries.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// Iterate over query ids.
    pub fn ids(&self) -> impl Iterator<Item = QueryId> {
        (0..self.queries.len()).map(QueryId)
    }

    /// The query with the given id.
    pub fn query(&self, id: QueryId) -> &EntangledQuery {
        &self.queries[id.index()]
    }

    /// All queries in order.
    pub fn queries(&self) -> &[EntangledQuery] {
        &self.queries
    }

    /// Total number of global variables.
    pub fn total_vars(&self) -> u32 {
        self.total_vars
    }

    /// Map a query-local variable to its global id.
    pub fn global_var(&self, id: QueryId, local: Var) -> Var {
        debug_assert!(local.0 < self.queries[id.index()].var_count());
        Var(self.offsets[id.index()] + local.0)
    }

    /// The query owning a global variable, with the local variable.
    pub fn owner_of(&self, global: Var) -> (QueryId, Var) {
        // Binary search over offsets: offsets is sorted ascending.
        let i = match self.offsets.binary_search(&global.0) {
            Ok(mut i) => {
                // Zero-variable queries share offsets; take the last query
                // whose offset equals the global id and which has variables.
                while i + 1 < self.offsets.len() && self.offsets[i + 1] == global.0 {
                    i += 1;
                }
                i
            }
            Err(i) => i - 1,
        };
        (QueryId(i), Var(global.0 - self.offsets[i]))
    }

    /// Rewrite an atom of query `id` into the global variable space.
    pub fn globalize(&self, id: QueryId, atom: &Atom) -> Atom {
        let off = self.offsets[id.index()];
        Atom::new(
            atom.relation.clone(),
            atom.terms
                .iter()
                .map(|t| match t {
                    Term::Var(v) => Term::Var(Var(off + v.0)),
                    Term::Const(c) => Term::Const(c.clone()),
                })
                .collect(),
        )
    }

    /// Globalized postcondition atoms of query `id`.
    pub fn postconditions(&self, id: QueryId) -> Vec<Atom> {
        self.query(id)
            .postconditions()
            .iter()
            .map(|a| self.globalize(id, a))
            .collect()
    }

    /// Globalized head atoms of query `id`.
    pub fn heads(&self, id: QueryId) -> Vec<Atom> {
        self.query(id)
            .heads()
            .iter()
            .map(|a| self.globalize(id, a))
            .collect()
    }

    /// Globalized body atoms of query `id`.
    pub fn body(&self, id: QueryId) -> Vec<Atom> {
        self.query(id)
            .body()
            .iter()
            .map(|a| self.globalize(id, a))
            .collect()
    }

    /// Global variables of query `id`.
    pub fn vars_of(&self, id: QueryId) -> impl Iterator<Item = Var> + '_ {
        let off = self.offsets[id.index()];
        (0..self.query(id).var_count()).map(move |i| Var(off + i))
    }

    /// Validate every query against the database (Section 2.1 syntax
    /// requirements) and check that each answer relation is used with a
    /// consistent arity across the whole set.
    pub fn validate(&self, db: &Database) -> Result<(), CoordError> {
        let mut arities: HashMap<Symbol, usize> = HashMap::new();
        for q in &self.queries {
            q.validate(db)?;
            for atom in q.postconditions().iter().chain(q.heads()) {
                match arities.get(&atom.relation) {
                    Some(&n) if n != atom.arity() => {
                        return Err(CoordError::AnswerArityMismatch {
                            relation: atom.relation.to_string(),
                            expected: n,
                            actual: atom.arity(),
                        });
                    }
                    Some(_) => {}
                    None => {
                        arities.insert(atom.relation.clone(), atom.arity());
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::QueryBuilder;

    fn two_queries() -> QuerySet {
        let q1 = QueryBuilder::new("q1")
            .postcondition("R", |a| a.constant("Chris").var("x"))
            .head("R", |a| a.constant("Gwyneth").var("x"))
            .body("Flights", |a| a.var("x").constant("Zurich"))
            .build()
            .unwrap();
        let q2 = QueryBuilder::new("q2")
            .head("R", |a| a.constant("Chris").var("y"))
            .body("Flights", |a| a.var("y").constant("Zurich"))
            .build()
            .unwrap();
        QuerySet::new(vec![q1, q2])
    }

    #[test]
    fn offsets_are_contiguous() {
        let qs = two_queries();
        assert_eq!(qs.total_vars(), 2);
        assert_eq!(qs.global_var(QueryId(0), Var(0)), Var(0));
        assert_eq!(qs.global_var(QueryId(1), Var(0)), Var(1));
    }

    #[test]
    fn owner_of_round_trips() {
        let qs = two_queries();
        for id in qs.ids() {
            for g in qs.vars_of(id) {
                let (owner, local) = qs.owner_of(g);
                assert_eq!(owner, id);
                assert_eq!(qs.global_var(owner, local), g);
            }
        }
    }

    #[test]
    fn owner_of_with_zero_var_queries() {
        let q0 = QueryBuilder::new("a")
            .head("C", |a| a.constant(1i64))
            .build()
            .unwrap();
        let q1 = QueryBuilder::new("b")
            .head("R", |a| a.var("x"))
            .build()
            .unwrap();
        let qs = QuerySet::new(vec![q0, q1]);
        // Global var 0 belongs to query "b" even though "a" has offset 0.
        let (owner, local) = qs.owner_of(Var(0));
        assert_eq!(qs.query(owner).name(), "b");
        assert_eq!(local, Var(0));
    }

    #[test]
    fn globalize_shifts_vars_not_consts() {
        let qs = two_queries();
        let heads = qs.heads(QueryId(1));
        assert_eq!(heads[0].terms[1], Term::Var(Var(1)));
        assert!(heads[0].terms[0].is_const());
    }

    #[test]
    fn validate_checks_answer_arity_consistency() {
        let mut db = Database::new();
        db.create_table("Flights", &["id", "dest"]).unwrap();
        let q1 = QueryBuilder::new("q1")
            .head("R", |a| a.constant("A").var("x"))
            .body("Flights", |a| a.var("x").constant("Zurich"))
            .build()
            .unwrap();
        let q2 = QueryBuilder::new("q2")
            .head("R", |a| a.var("y")) // arity 1 vs 2
            .build()
            .unwrap();
        let qs = QuerySet::new(vec![q1, q2]);
        assert!(matches!(
            qs.validate(&db),
            Err(CoordError::AnswerArityMismatch { .. })
        ));
    }
}
