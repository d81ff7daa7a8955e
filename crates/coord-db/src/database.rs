//! The database: a collection of named tables plus query instrumentation.

use crate::error::DbError;
use crate::eval::{self, Assignment};
use crate::query::ConjunctiveQuery;
use crate::schema::RelationSchema;
use crate::stats::QueryStats;
use crate::symbol::Symbol;
use crate::table::Table;
use crate::tuple::Tuple;
use crate::value::Value;
use coord_obs::Registry as ObsRegistry;
use std::collections::HashMap;

/// An in-memory relational database instance.
///
/// Plays the role of the MySQL instance in the paper's prototype: the
/// coordination algorithms only interact with it through conjunctive
/// queries ([`Database::find_one`], [`Database::find_all`]), distinct-value
/// projections ([`Database::distinct_values`]) and grounded membership
/// tests ([`Database::contains`]). Every interaction is counted in
/// [`Database::stats`] so the paper's query-count bounds can be asserted.
///
/// Tables are physically stored on a [`crate::storage::RowStore`], whose
/// multi-column probes intersect its per-column posting lists. Answers
/// do not depend on the store (see [`crate::storage`]'s determinism
/// contract): [`crate::testkit::scan_copy`] moves a database onto the
/// full-scan oracle, and the tests compare the two.
#[derive(Debug, Default)]
pub struct Database {
    tables: HashMap<Symbol, Table>,
    /// Relation names in creation order (stable iteration for tests/demos).
    order: Vec<Symbol>,
    stats: QueryStats,
}

impl Database {
    /// Create an empty database.
    pub fn new() -> Self {
        Database::default()
    }

    /// Create a table with the given relation name and attribute names.
    pub fn create_table(&mut self, name: impl Into<Symbol>, attrs: &[&str]) -> Result<(), DbError> {
        let name = name.into();
        let schema = RelationSchema::new(name.clone(), attrs.iter().copied())?;
        self.add_table(Table::new(schema))
    }

    /// Add a table built elsewhere (on any [`crate::Storage`]).
    pub(crate) fn add_table(&mut self, table: Table) -> Result<(), DbError> {
        let name = table.schema().name().clone();
        if self.tables.contains_key(&name) {
            return Err(DbError::DuplicateRelation {
                relation: name.to_string(),
            });
        }
        self.order.push(name.clone());
        self.tables.insert(name, table);
        Ok(())
    }

    /// Insert a tuple into the named relation.
    pub fn insert(
        &mut self,
        relation: impl Into<Symbol>,
        values: impl Into<Tuple>,
    ) -> Result<bool, DbError> {
        let relation = relation.into();
        let table = self
            .tables
            .get_mut(&relation)
            .ok_or(DbError::UnknownRelation {
                relation: relation.to_string(),
            })?;
        table.insert(values)
    }

    /// Bulk-insert tuples into the named relation.
    pub fn insert_all(
        &mut self,
        relation: impl Into<Symbol>,
        rows: impl IntoIterator<Item = Vec<Value>>,
    ) -> Result<usize, DbError> {
        let relation = relation.into();
        let table = self
            .tables
            .get_mut(&relation)
            .ok_or(DbError::UnknownRelation {
                relation: relation.to_string(),
            })?;
        let mut n = 0;
        for row in rows {
            if table.insert(row)? {
                n += 1;
            }
        }
        Ok(n)
    }

    /// Look up a table by relation name.
    pub fn table(&self, relation: &Symbol) -> Result<&Table, DbError> {
        self.tables
            .get(relation)
            .ok_or_else(|| DbError::UnknownRelation {
                relation: relation.to_string(),
            })
    }

    /// Look up a table by textual relation name.
    pub fn table_named(&self, relation: &str) -> Result<&Table, DbError> {
        self.table(&Symbol::new(relation))
    }

    /// Whether a relation with this name exists.
    pub fn has_relation(&self, relation: &Symbol) -> bool {
        self.tables.contains_key(relation)
    }

    /// Relation names in creation order.
    pub fn relations(&self) -> impl Iterator<Item = &Symbol> {
        self.order.iter()
    }

    /// Query counters.
    pub fn stats(&self) -> &QueryStats {
        &self.stats
    }

    /// Mirror this database's query counters into a `coord-obs`
    /// registry (`db_*` counters) and record `find_one`/`find_all`
    /// latencies into its `db_probe_nanos` histogram — storage cost in
    /// the same snapshot as submit latency. The first attach wins;
    /// later calls are no-ops.
    pub fn attach_obs(&self, registry: &ObsRegistry) {
        self.stats.attach(registry);
    }

    /// Choose-1 evaluation: find one satisfying assignment, if any.
    pub fn find_one(&self, query: &ConjunctiveQuery) -> Result<Option<Assignment>, DbError> {
        self.stats.record_find_one();
        let timer = self.stats.probe_timer();
        let out = eval::find_one(self, query);
        self.stats.observe_probe(timer);
        out
    }

    /// Enumerate satisfying assignments, up to `limit` if given.
    pub fn find_all(
        &self,
        query: &ConjunctiveQuery,
        limit: Option<usize>,
    ) -> Result<Vec<Assignment>, DbError> {
        self.stats.record_find_all();
        let timer = self.stats.probe_timer();
        let out = eval::find_all(self, query, limit);
        self.stats.observe_probe(timer);
        out
    }

    /// Distinct projections of named attributes of `relation`, restricted by
    /// `bound` (attribute-name, value) constraints.
    pub fn distinct_values(
        &self,
        relation: &Symbol,
        project: &[&str],
        bound: &[(&str, Value)],
    ) -> Result<Vec<Vec<Value>>, DbError> {
        self.stats.record_distinct();
        let table = self.table(relation)?;
        let schema = table.schema();
        let proj: Vec<usize> = project
            .iter()
            .map(|a| schema.require_attr(a))
            .collect::<Result<_, _>>()?;
        let bnd: Vec<(usize, Value)> = bound
            .iter()
            .map(|(a, v)| Ok((schema.require_attr(a)?, v.clone())))
            .collect::<Result<_, DbError>>()?;
        Ok(table.distinct_project(&proj, &bnd))
    }

    /// Grounded-tuple membership test (used by the coordinating-set
    /// verifier: condition (2) of Definition 1).
    pub fn contains(&self, relation: &Symbol, values: &[Value]) -> Result<bool, DbError> {
        self.stats.record_membership();
        Ok(self.table(relation)?.contains(values))
    }

    /// Some value from the database's active domain, if any exists.
    ///
    /// Entangled queries with variables that occur in heads/postconditions
    /// but not in any body atom may take any domain value (Definition 1
    /// only requires that every variable be assigned). The algorithms use
    /// this as the default grounding for such unconstrained variables.
    pub fn any_domain_value(&self) -> Option<Value> {
        self.order
            .iter()
            .map(|name| &self.tables[name])
            .find(|t| !t.is_empty() && t.schema().arity() > 0)
            .map(|t| t.cell(0, 0).clone())
    }

    /// Total number of tuples across all relations.
    pub fn tuple_count(&self) -> usize {
        self.tables.values().map(Table::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{Atom, Term, Var};
    use crate::storage::{RowStore, Scan, Storage};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn sample_db() -> Database {
        let mut db = Database::new();
        db.create_table("Flights", &["id", "dest"]).unwrap();
        db.insert("Flights", vec![Value::int(101), Value::str("Zurich")])
            .unwrap();
        db.insert("Flights", vec![Value::int(102), Value::str("Paris")])
            .unwrap();
        db
    }

    #[test]
    fn create_and_insert() {
        let db = sample_db();
        assert_eq!(db.table_named("Flights").unwrap().len(), 2);
        assert_eq!(db.tuple_count(), 2);
    }

    #[test]
    fn duplicate_relation_rejected() {
        let mut db = sample_db();
        let err = db.create_table("Flights", &["x"]).unwrap_err();
        assert!(matches!(err, DbError::DuplicateRelation { .. }));
    }

    #[test]
    fn unknown_relation_errors() {
        let db = sample_db();
        assert!(db.table_named("Hotels").is_err());
        let mut db = sample_db();
        assert!(db.insert("Hotels", vec![Value::int(0)]).is_err());
    }

    #[test]
    fn find_one_counts_queries() {
        let db = sample_db();
        let q = ConjunctiveQuery::new(vec![Atom::new(
            "Flights",
            vec![Term::Var(Var(0)), Term::constant("Paris")],
        )]);
        assert!(db.find_one(&q).unwrap().is_some());
        assert_eq!(db.stats().find_one_count(), 1);
    }

    #[test]
    fn distinct_values_by_attr_name() {
        let db = sample_db();
        let dests = db
            .distinct_values(&Symbol::new("Flights"), &["dest"], &[])
            .unwrap();
        assert_eq!(dests.len(), 2);
        assert_eq!(db.stats().distinct_count(), 1);
    }

    #[test]
    fn contains_checks_membership() {
        let db = sample_db();
        let f = Symbol::new("Flights");
        assert!(db
            .contains(&f, &[Value::int(101), Value::str("Zurich")])
            .unwrap());
        assert!(!db
            .contains(&f, &[Value::int(101), Value::str("Paris")])
            .unwrap());
    }

    #[test]
    fn any_domain_value_present() {
        let db = sample_db();
        assert!(db.any_domain_value().is_some());
        let empty = Database::new();
        assert!(empty.any_domain_value().is_none());
    }

    #[test]
    fn relations_in_creation_order() {
        let mut db = sample_db();
        db.create_table("Hotels", &["id", "loc"]).unwrap();
        let names: Vec<String> = db
            .relations()
            .map(std::string::ToString::to_string)
            .collect();
        assert_eq!(names, vec!["Flights", "Hotels"]);
    }

    /// A row store that counts `estimate()` calls, installed through
    /// [`Table::with_storage`].
    #[derive(Debug)]
    struct CountingStore {
        inner: RowStore,
        estimates: Arc<AtomicUsize>,
    }

    impl Storage for CountingStore {
        fn len(&self) -> usize {
            self.inner.len()
        }
        fn arity(&self) -> usize {
            self.inner.arity()
        }
        fn insert(&mut self, tuple: Tuple) -> bool {
            self.inner.insert(tuple)
        }
        fn contains(&self, values: &[Value]) -> bool {
            self.inner.contains(values)
        }
        fn cell(&self, row: usize, col: usize) -> &Value {
            self.inner.cell(row, col)
        }
        fn scan(&self, bound: &[(usize, Value)]) -> Scan<'_> {
            self.inner.scan(bound)
        }
        fn estimate(&self, bound: &[(usize, Value)]) -> usize {
            self.estimates.fetch_add(1, Ordering::Relaxed);
            self.inner.estimate(bound)
        }
        fn distinct_count(&self, col: usize) -> usize {
            self.inner.distinct_count(col)
        }
    }

    /// `estimate()` calls one `find_one` makes on `E(a, b)` holding
    /// `(i, 100 + i)` and `(0, 200 + i)` for `i < 40`.
    fn estimate_calls(atoms: Vec<Atom>) -> usize {
        let estimates = Arc::new(AtomicUsize::new(0));
        let mut store = CountingStore {
            inner: RowStore::new(2),
            estimates: estimates.clone(),
        };
        for i in 0..40 {
            store.insert(vec![Value::int(i), Value::int(100 + i)].into());
            store.insert(vec![Value::int(0), Value::int(200 + i)].into());
        }
        let schema = RelationSchema::new("E", ["a", "b"]).unwrap();
        let mut db = Database::new();
        db.add_table(Table::with_storage(schema, Box::new(store)).unwrap())
            .unwrap();
        assert!(db
            .find_one(&ConjunctiveQuery::new(atoms))
            .unwrap()
            .is_some());
        estimates.load(Ordering::Relaxed)
    }

    /// Scaling pins for the compiled join, in `estimate()` calls rather
    /// than wall clock: re-estimating every unjoined atom at every step
    /// costs k(k+1)/2 on both shapes.
    #[test]
    fn join_estimates_grow_linearly_with_atoms() {
        for k in [4u32, 16, 32] {
            // k independent selective atoms E(x_i, 100 + i): nothing a
            // row binds is mentioned elsewhere, so only the k initial
            // estimates are ever taken.
            let independent = (0..k).map(|i| {
                let b = Term::constant(100 + i64::from(i));
                Atom::new("E", vec![Term::var(i), b])
            });
            let calls = estimate_calls(independent.collect());
            assert!(calls <= 2 * k as usize, "independent k={k}: {calls}");

            // A k-atom star on one shared variable: E(x, 100) binds x,
            // and each E(x, y_i) is re-estimated exactly once for it.
            let star = (0..k).map(|i| match i {
                0 => Atom::new("E", vec![Term::var(0), Term::constant(100i64)]),
                _ => Atom::new("E", vec![Term::var(0), Term::var(i)]),
            });
            let calls = estimate_calls(star.collect());
            assert!(calls <= 3 * k as usize, "star k={k}: {calls}");
        }
    }
}
