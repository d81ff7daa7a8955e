//! A from-scratch storage oracle for the tests.
//!
//! [`ScanStore`] answers every probe the naive way — every scan is a
//! full scan, membership a linear search, estimates a count over all
//! rows — so a suite that runs the same queries on a database and on its
//! [`scan_copy`] checks [`crate::storage::RowStore`]'s intersection
//! against the plain filter it must equal. A plain `pub mod` (no feature
//! flag), like `coord_core::testkit`: integration tests and the
//! `reproduce` binary of other crates need it.

use crate::database::Database;
use crate::storage::{AccessPath, Scan, Storage};
use crate::table::Table;
use crate::tuple::Tuple;
use crate::value::Value;
use std::collections::HashSet;

/// Rows in insertion order and nothing else.
#[derive(Clone, Debug)]
pub struct ScanStore {
    arity: usize,
    rows: Vec<Tuple>,
}

impl ScanStore {
    /// An empty store with `arity` columns.
    pub fn new(arity: usize) -> Self {
        ScanStore {
            arity,
            rows: Vec::new(),
        }
    }

    fn count(&self, col: usize, value: &Value) -> usize {
        self.rows.iter().filter(|r| &r[col] == value).count()
    }
}

impl Storage for ScanStore {
    fn len(&self) -> usize {
        self.rows.len()
    }

    fn arity(&self) -> usize {
        self.arity
    }

    fn insert(&mut self, tuple: Tuple) -> bool {
        if self.contains(&tuple) {
            return false;
        }
        self.rows.push(tuple);
        true
    }

    fn contains(&self, values: &[Value]) -> bool {
        self.rows.iter().any(|r| **r == *values)
    }

    fn cell(&self, row: usize, col: usize) -> &Value {
        &self.rows[row][col]
    }

    fn scan(&self, _bound: &[(usize, Value)]) -> Scan<'_> {
        Scan::new(0..self.rows.len(), AccessPath::FullScan)
    }

    fn estimate(&self, bound: &[(usize, Value)]) -> usize {
        bound
            .iter()
            .map(|(c, v)| self.count(*c, v))
            .min()
            .unwrap_or(self.rows.len())
    }

    fn distinct_count(&self, col: usize) -> usize {
        self.rows
            .iter()
            .map(|r| &r[col])
            .collect::<HashSet<_>>()
            .len()
    }
}

/// A copy of `db` with every table on a [`ScanStore`]: same relations in
/// the same order, same rows under the same row ids, fresh counters.
pub fn scan_copy(db: &Database) -> Database {
    let mut copy = Database::new();
    for relation in db.relations() {
        let table = db.table(relation).expect("listed relations exist");
        let mut store = ScanStore::new(table.schema().arity());
        for row in table.iter_rows() {
            store.insert(row.into());
        }
        let table = Table::with_storage(table.schema().clone(), Box::new(store))
            .expect("the store takes the schema's arity");
        copy.add_table(table).expect("relation names are unique");
    }
    copy
}
