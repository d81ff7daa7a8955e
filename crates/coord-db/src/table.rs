//! Tables: a relation schema bound to a [`Storage`].

use crate::error::DbError;
use crate::schema::RelationSchema;
use crate::storage::{RowStore, Scan, Storage};
use crate::tuple::Tuple;
use crate::value::Value;
use std::collections::HashSet;

/// A stored relation: schema plus physical storage.
///
/// All data access goes through the [`Storage`] trait, so the evaluator
/// and the engines above it are agnostic to the representation: tables
/// live on a [`RowStore`], and test fakes and oracles come in through
/// [`Table::with_storage`]. For the paper's workloads (tables of up to
/// 10⁶ rows with 2–4 columns) a probe costs O(matching rows) plus one
/// galloping seek per extra bound column, which is what the
/// backtracking join in [`crate::eval`] relies on.
#[derive(Debug)]
pub struct Table {
    schema: RelationSchema,
    store: Box<dyn Storage>,
}

impl Table {
    /// Create an empty table with the given schema on a [`RowStore`].
    pub fn new(schema: RelationSchema) -> Self {
        let store = Box::new(RowStore::new(schema.arity()));
        Table { schema, store }
    }

    /// Create a table on the given storage, which must agree with the
    /// schema's arity; rows it already holds become the table's rows.
    pub fn with_storage(schema: RelationSchema, store: Box<dyn Storage>) -> Result<Self, DbError> {
        if store.arity() != schema.arity() {
            return Err(DbError::ArityMismatch {
                relation: schema.name().to_string(),
                expected: schema.arity(),
                actual: store.arity(),
            });
        }
        Ok(Table { schema, store })
    }

    /// The table's schema.
    pub fn schema(&self) -> &RelationSchema {
        &self.schema
    }

    /// The table's storage.
    pub fn storage(&self) -> &dyn Storage {
        self.store.as_ref()
    }

    /// Number of (distinct) rows.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// Insert a tuple. Duplicate tuples are ignored; returns whether the
    /// tuple was newly inserted.
    pub fn insert(&mut self, values: impl Into<Tuple>) -> Result<bool, DbError> {
        let tuple = values.into();
        if tuple.len() != self.schema.arity() {
            return Err(DbError::ArityMismatch {
                relation: self.schema.name().to_string(),
                expected: self.schema.arity(),
                actual: tuple.len(),
            });
        }
        Ok(self.store.insert(tuple))
    }

    /// Membership test for a fully grounded tuple (on a [`RowStore`],
    /// the intersection of its values' posting lists).
    pub fn contains(&self, values: &[Value]) -> bool {
        // Cheap arity guard: a wrong-arity tuple is never a member.
        if values.len() != self.schema.arity() {
            return false;
        }
        self.store.contains(values)
    }

    /// The value at (`row`, `col`); rows are dense ids in insertion
    /// order.
    pub fn cell(&self, row: usize, col: usize) -> &Value {
        self.store.cell(row, col)
    }

    /// Materialized rows in insertion order (test/diagnostic helper —
    /// hot paths use [`Table::scan`] + [`Table::cell`]).
    pub fn iter_rows(&self) -> impl Iterator<Item = Vec<Value>> + '_ {
        let store = self.storage();
        (0..store.len()).map(move |r| {
            (0..store.arity())
                .map(|c| store.cell(r, c).clone())
                .collect()
        })
    }

    /// Candidate rows for the given equality constraints, strictly
    /// ascending, with the access path that serves them (possibly a
    /// superset — callers re-verify).
    pub fn scan(&self, bound: &[(usize, Value)]) -> Scan<'_> {
        self.store.scan(bound)
    }

    /// Exact number of rows matching the most selective single bound
    /// column (store-independent; see [`crate::storage`]'s determinism
    /// contract).
    pub fn estimate(&self, bound: &[(usize, Value)]) -> usize {
        self.store.estimate(bound)
    }

    /// Row ids whose column `col` equals `value` (ascending, possibly
    /// empty).
    pub fn lookup(&self, col: usize, value: &Value) -> Vec<usize> {
        let bound = [(col, value.clone())];
        self.scan(&bound)
            .filter(|&r| self.cell(r, col) == value)
            .collect()
    }

    /// Number of distinct values in column `col`.
    pub fn distinct_count(&self, col: usize) -> usize {
        self.store.distinct_count(col)
    }

    /// Distinct projections of the given columns over rows matching the
    /// `bound` constraints (column, value pairs).
    ///
    /// This implements the option-list query of the Consistent Coordination
    /// Algorithm: `SELECT DISTINCT project FROM S WHERE bound`.
    pub fn distinct_project(&self, project: &[usize], bound: &[(usize, Value)]) -> Vec<Vec<Value>> {
        let mut seen = HashSet::new();
        let mut out = Vec::new();
        for rid in self.scan(bound) {
            if bound.iter().all(|(c, v)| self.cell(rid, *c) == v) {
                let key: Vec<Value> = project.iter().map(|&c| self.cell(rid, c).clone()).collect();
                if seen.insert(key.clone()) {
                    out.push(key);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::ScanStore;

    fn fill(mut t: Table) -> Table {
        t.insert(vec![Value::int(1), Value::str("Zurich")]).unwrap();
        t.insert(vec![Value::int(2), Value::str("Paris")]).unwrap();
        t.insert(vec![Value::int(3), Value::str("Zurich")]).unwrap();
        t
    }

    fn schema() -> RelationSchema {
        RelationSchema::new("Flights", ["id", "dest"]).unwrap()
    }

    fn flights() -> Table {
        fill(Table::new(schema()))
    }

    /// The flights table on a [`RowStore`], then on the full-scan oracle.
    fn flights_and_oracle() -> [Table; 2] {
        let oracle = Table::with_storage(schema(), Box::new(ScanStore::new(2))).unwrap();
        [flights(), fill(oracle)]
    }

    #[test]
    fn insert_and_len() {
        let t = flights();
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
    }

    #[test]
    fn duplicate_insert_is_ignored() {
        let mut t = flights();
        let fresh = t.insert(vec![Value::int(1), Value::str("Zurich")]).unwrap();
        assert!(!fresh);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn arity_checked() {
        let mut t = flights();
        let err = t.insert(vec![Value::int(9)]).unwrap_err();
        assert!(matches!(err, DbError::ArityMismatch { .. }));
    }

    #[test]
    fn contains_grounded() {
        for t in flights_and_oracle() {
            assert!(t.contains(&[Value::int(2), Value::str("Paris")]));
            assert!(!t.contains(&[Value::int(2), Value::str("Zurich")]));
            assert!(!t.contains(&[Value::int(2)]));
        }
    }

    #[test]
    fn lookup_uses_index() {
        for t in flights_and_oracle() {
            let zurich_rows = t.lookup(1, &Value::str("Zurich"));
            assert_eq!(zurich_rows, vec![0, 2]);
            assert_eq!(t.lookup(1, &Value::str("Oslo")).len(), 0);
        }
    }

    #[test]
    fn distinct_count_per_column() {
        for t in flights_and_oracle() {
            assert_eq!(t.distinct_count(0), 3);
            assert_eq!(t.distinct_count(1), 2);
        }
    }

    #[test]
    fn distinct_project_unbounded() {
        let t = flights();
        let dests = t.distinct_project(&[1], &[]);
        assert_eq!(dests.len(), 2);
        assert!(dests.contains(&vec![Value::str("Zurich")]));
        assert!(dests.contains(&vec![Value::str("Paris")]));
    }

    #[test]
    fn distinct_project_bound() {
        for t in flights_and_oracle() {
            let ids = t.distinct_project(&[0], &[(1, Value::str("Zurich"))]);
            assert_eq!(ids.len(), 2);
            let none = t.distinct_project(&[0], &[(1, Value::str("Oslo"))]);
            assert!(none.is_empty());
        }
    }

    #[test]
    fn iter_rows_in_insertion_order() {
        for t in flights_and_oracle() {
            let rows: Vec<Vec<Value>> = t.iter_rows().collect();
            assert_eq!(rows.len(), 3);
            assert_eq!(rows[1], vec![Value::int(2), Value::str("Paris")]);
        }
    }

    #[test]
    fn custom_storage_arity_is_checked() {
        let schema = RelationSchema::new("R", ["a", "b"]).unwrap();
        assert!(Table::with_storage(schema.clone(), Box::new(RowStore::new(3))).is_err());
        let t = Table::with_storage(schema, Box::new(RowStore::new(2))).unwrap();
        assert_eq!(t.len(), 0);
    }
}
