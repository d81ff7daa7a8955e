//! Pluggable tuple storage: the [`Storage`] trait and its backends.
//!
//! [`crate::Table`] holds a `Box<dyn Storage>` and delegates all
//! physical data access to it, so the evaluator and every engine above
//! it are agnostic to the representation. Two backends ship in-tree:
//!
//! * [`RowStore`] — the original row store with one hash index per
//!   column (insertion-ordered `Vec<Tuple>` + `indexes[c][v]` buckets).
//! * [`CompositeStore`] — a [`RowStore`] plus *multi-column* hash
//!   indexes with an exact bucket per value combination, collapsing a
//!   `min(bucket)` scan into a point lookup. An index is built either
//!   when the batch path advises its pattern up front
//!   ([`Storage::ensure_index`], called by `coord_core::scc::preprocess`)
//!   or adaptively, once the pattern has been probed
//!   [`COMPOSITE_BUILD_THRESHOLD`] times. The adaptive path is not
//!   redundant with the advice: the online engine evaluates components
//!   of at most six queries on a fast path that never runs `preprocess`,
//!   so there sighting-counting is the only thing that ever builds one.
//!
//! ## The determinism contract
//!
//! The backtracking evaluator promises byte-identical answers across
//! backends (see `tests/storage_props.rs`). Two invariants make that
//! hold, and every backend must preserve them:
//!
//! 1. **Ascending candidates:** [`Storage::scan`] yields candidate row
//!    ids in ascending insertion order. Access paths may over-approximate
//!    (a superset of the matching rows) but never reorder, so the
//!    sequence of *matching* rows — and therefore the DFS exploration
//!    order — is backend-independent.
//! 2. **Exact, path-independent estimates:** [`Storage::estimate`]
//!    returns the exact number of rows matching the *most selective
//!    single bound column*, regardless of which access path `scan`
//!    would actually take. Atom ordering decisions are therefore
//!    identical across backends even when one of them could serve the
//!    probe from a strictly better index.

use crate::tuple::Tuple;
use crate::value::Value;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::{Arc, RwLock};

/// Probe count after which [`CompositeStore`] materializes an index for
/// an observed multi-column pattern.
pub const COMPOSITE_BUILD_THRESHOLD: u32 = 4;

/// How a [`Scan`] is being served — recorded by the evaluator as index
/// hit/miss counters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessPath {
    /// Every row id, no index consulted.
    FullScan,
    /// Single-column hash bucket for the given column.
    ColumnIndex(usize),
    /// Exact multi-column hash bucket.
    CompositeIndex,
}

impl AccessPath {
    /// Whether an index served the scan (anything but a full scan).
    pub fn is_indexed(&self) -> bool {
        !matches!(self, AccessPath::FullScan)
    }
}

/// A stream of candidate row ids plus the access path that produced it.
/// Candidates arrive in ascending insertion order (see the module docs'
/// determinism contract); equality paths are exact or superset,
/// depending on the backend.
pub struct Scan<'a> {
    rows: Box<dyn Iterator<Item = usize> + 'a>,
    path: AccessPath,
}

impl<'a> Scan<'a> {
    /// A scan over a borrowed iterator.
    pub fn new(rows: impl Iterator<Item = usize> + 'a, path: AccessPath) -> Self {
        Scan {
            rows: Box::new(rows),
            path,
        }
    }

    /// A scan that owns a shared bucket (used by backends whose indexes
    /// live behind interior mutability: the iterator keeps the bucket
    /// alive via the `Arc`, no lock is held while iterating).
    pub fn from_arc(bucket: Arc<Vec<usize>>, path: AccessPath) -> Scan<'static> {
        let len = bucket.len();
        Scan {
            rows: Box::new((0..len).map(move |i| bucket[i])),
            path,
        }
    }

    /// The access path serving this scan.
    pub fn path(&self) -> AccessPath {
        self.path
    }
}

impl fmt::Debug for Scan<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Scan({:?})", self.path)
    }
}

impl Iterator for Scan<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        self.rows.next()
    }
}

/// Physical storage for one relation. Object-safe: a [`crate::Table`]
/// holds it boxed, so out-of-tree backends and test fakes plug in
/// through [`crate::Table::with_storage`]; see the module docs for the
/// determinism contract every implementation must uphold.
pub trait Storage: fmt::Debug + Send + Sync {
    /// Number of (distinct) rows.
    fn len(&self) -> usize;

    /// Whether the store holds no rows.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of columns (the caller has already arity-checked tuples).
    fn arity(&self) -> usize;

    /// Insert a tuple; returns whether it was new. Duplicates are
    /// ignored.
    fn insert(&mut self, tuple: Tuple) -> bool;

    /// O(1)-ish membership test for a fully grounded tuple of the right
    /// arity.
    fn contains(&self, values: &[Value]) -> bool;

    /// The value at (`row`, `col`). Rows are dense ids `0..len()` in
    /// insertion order.
    fn cell(&self, row: usize, col: usize) -> &Value;

    /// Candidate rows for the given `(column, value)` equality
    /// constraints (ascending row ids; possibly a superset — callers
    /// re-verify). An empty `bound` is a full scan.
    fn scan(&self, bound: &[(usize, Value)]) -> Scan<'_>;

    /// Exact number of rows matching the most selective single bound
    /// column (`len()` when `bound` is empty). Must be identical across
    /// backends — see the determinism contract.
    fn estimate(&self, bound: &[(usize, Value)]) -> usize;

    /// Number of distinct values in `col`.
    fn distinct_count(&self, col: usize) -> usize;

    /// Advise the backend that the given multi-column equality pattern
    /// will be probed (columns ascending, length ≥ 2). Backends without
    /// composite indexes ignore it.
    fn ensure_index(&self, _cols: &[usize]) {}

    /// Column sets with a materialized multi-column index (empty for
    /// backends without them).
    fn composite_patterns(&self) -> Vec<Vec<usize>> {
        Vec::new()
    }
}

// ---------------------------------------------------------------------
// RowStore: insertion-ordered rows + one hash index per column.
// ---------------------------------------------------------------------

/// The original backend: rows in insertion order, one hash index per
/// column, and a set view for O(1) membership.
#[derive(Clone, Debug)]
pub struct RowStore {
    arity: usize,
    rows: Vec<Tuple>,
    /// `indexes[c][v]` = ascending row ids whose column `c` equals `v`.
    indexes: Vec<HashMap<Value, Vec<usize>>>,
    row_set: HashSet<Tuple>,
}

impl RowStore {
    /// An empty store with `arity` columns.
    pub fn new(arity: usize) -> Self {
        RowStore {
            arity,
            rows: Vec::new(),
            indexes: vec![HashMap::new(); arity],
            row_set: HashSet::new(),
        }
    }

    /// Row ids whose column `col` equals `value` (ascending).
    pub fn bucket(&self, col: usize, value: &Value) -> &[usize] {
        self.indexes[col].get(value).map_or(&[], Vec::as_slice)
    }
}

impl Storage for RowStore {
    fn len(&self) -> usize {
        self.rows.len()
    }

    fn arity(&self) -> usize {
        self.arity
    }

    fn insert(&mut self, tuple: Tuple) -> bool {
        if self.row_set.contains(&tuple) {
            return false;
        }
        let row_id = self.rows.len();
        for (c, v) in tuple.iter().enumerate() {
            self.indexes[c].entry(v.clone()).or_default().push(row_id);
        }
        self.row_set.insert(tuple.clone());
        self.rows.push(tuple);
        true
    }

    fn contains(&self, values: &[Value]) -> bool {
        // `Tuple: Borrow<[Value]>` makes this allocation-free.
        self.row_set.contains(values)
    }

    fn cell(&self, row: usize, col: usize) -> &Value {
        &self.rows[row][col]
    }

    fn scan(&self, bound: &[(usize, Value)]) -> Scan<'_> {
        let driver = bound
            .iter()
            .map(|(c, v)| (self.bucket(*c, v), *c))
            .min_by_key(|(b, _)| b.len());
        match driver {
            Some((bucket, c)) => Scan::new(bucket.iter().copied(), AccessPath::ColumnIndex(c)),
            None => Scan::new(0..self.rows.len(), AccessPath::FullScan),
        }
    }

    fn estimate(&self, bound: &[(usize, Value)]) -> usize {
        bound
            .iter()
            .map(|(c, v)| self.bucket(*c, v).len())
            .min()
            .unwrap_or(self.rows.len())
    }

    fn distinct_count(&self, col: usize) -> usize {
        self.indexes[col].len()
    }
}

// ---------------------------------------------------------------------
// CompositeStore: RowStore + adaptive multi-column hash indexes.
// ---------------------------------------------------------------------

/// Observed-or-built state for one multi-column pattern.
#[derive(Debug)]
enum PatternState {
    /// Seen this many probes; builds at [`COMPOSITE_BUILD_THRESHOLD`].
    Counting(u32),
    /// Materialized: exact bucket per value combination. Buckets sit
    /// behind `Arc` so scans own them without holding the lock; inserts
    /// copy-on-write via [`Arc::make_mut`].
    Built(HashMap<Vec<Value>, Arc<Vec<usize>>>),
}

/// A [`RowStore`] that additionally materializes exact multi-column
/// hash indexes for the bound-column patterns the workload actually
/// probes (adaptively after [`COMPOSITE_BUILD_THRESHOLD`] sightings, or
/// immediately via [`Storage::ensure_index`]).
#[derive(Debug)]
pub struct CompositeStore {
    base: RowStore,
    /// Pattern (ascending column ids, length ≥ 2) → state.
    patterns: RwLock<HashMap<Vec<usize>, PatternState>>,
}

impl CompositeStore {
    /// An empty store with `arity` columns.
    pub fn new(arity: usize) -> Self {
        CompositeStore {
            base: RowStore::new(arity),
            patterns: RwLock::new(HashMap::new()),
        }
    }

    fn build_index(&self, cols: &[usize]) -> HashMap<Vec<Value>, Arc<Vec<usize>>> {
        let mut map: HashMap<Vec<Value>, Vec<usize>> = HashMap::new();
        for rid in 0..self.base.len() {
            let key: Vec<Value> = cols
                .iter()
                .map(|&c| self.base.cell(rid, c).clone())
                .collect();
            map.entry(key).or_default().push(rid);
        }
        map.into_iter().map(|(k, v)| (k, Arc::new(v))).collect()
    }

    /// The exact bucket for `bound` if a composite index covers its
    /// column set: `None` means "no index (yet)", `Some` with an empty
    /// bucket means "indexed, no matching rows". Counts the pattern
    /// sighting and builds the index at the threshold.
    fn composite_bucket(
        &self,
        cols: &[usize],
        bound: &[(usize, Value)],
    ) -> Option<Arc<Vec<usize>>> {
        let key = || -> Vec<Value> { bound.iter().map(|(_, v)| v.clone()).collect() };
        // Fast path: pattern already built — read lock only.
        {
            let guard = self.patterns.read().unwrap();
            match guard.get(cols) {
                Some(PatternState::Built(map)) => {
                    return Some(map.get(&key()).cloned().unwrap_or_default());
                }
                Some(PatternState::Counting(_)) | None => {}
            }
        }
        // Slow path (only until the pattern is built): count, maybe build.
        let mut guard = self.patterns.write().unwrap();
        let state = guard
            .entry(cols.to_vec())
            .or_insert(PatternState::Counting(0));
        if let PatternState::Counting(n) = state {
            *n += 1;
            if *n < COMPOSITE_BUILD_THRESHOLD {
                return None;
            }
            *state = PatternState::Built(self.build_index(cols));
        }
        match state {
            PatternState::Built(map) => Some(map.get(&key()).cloned().unwrap_or_default()),
            PatternState::Counting(_) => unreachable!("pattern built above"),
        }
    }
}

impl Storage for CompositeStore {
    fn len(&self) -> usize {
        self.base.len()
    }

    fn arity(&self) -> usize {
        self.base.arity()
    }

    fn insert(&mut self, tuple: Tuple) -> bool {
        if !self.base.insert(tuple) {
            return false;
        }
        let rid = self.base.len() - 1;
        let mut guard = self.patterns.write().unwrap();
        for (cols, state) in guard.iter_mut() {
            if let PatternState::Built(map) = state {
                let key: Vec<Value> = cols
                    .iter()
                    .map(|&c| self.base.cell(rid, c).clone())
                    .collect();
                Arc::make_mut(map.entry(key).or_default()).push(rid);
            }
        }
        true
    }

    fn contains(&self, values: &[Value]) -> bool {
        self.base.contains(values)
    }

    fn cell(&self, row: usize, col: usize) -> &Value {
        self.base.cell(row, col)
    }

    fn scan(&self, bound: &[(usize, Value)]) -> Scan<'_> {
        if bound.len() >= 2 {
            let cols: Vec<usize> = bound.iter().map(|(c, _)| *c).collect();
            if let Some(bucket) = self.composite_bucket(&cols, bound) {
                return Scan::from_arc(bucket, AccessPath::CompositeIndex);
            }
        }
        self.base.scan(bound)
    }

    fn estimate(&self, bound: &[(usize, Value)]) -> usize {
        // Deliberately the single-column estimate (not the composite
        // bucket size): estimates must be backend-independent so atom
        // ordering — and therefore answers — never diverge.
        self.base.estimate(bound)
    }

    fn distinct_count(&self, col: usize) -> usize {
        self.base.distinct_count(col)
    }

    fn ensure_index(&self, cols: &[usize]) {
        if cols.len() < 2 || cols.iter().any(|&c| c >= self.arity()) {
            return;
        }
        // `preprocess` advises every multi-constant body atom of every
        // batch: an already-built pattern must not cost a write lock.
        let built = matches!(
            self.patterns.read().unwrap().get(cols),
            Some(PatternState::Built(_))
        );
        if built {
            return;
        }
        let mut guard = self.patterns.write().unwrap();
        let state = guard
            .entry(cols.to_vec())
            .or_insert(PatternState::Counting(0));
        if let PatternState::Counting(_) = state {
            *state = PatternState::Built(self.build_index(cols));
        }
    }

    fn composite_patterns(&self) -> Vec<Vec<usize>> {
        let mut out: Vec<Vec<usize>> = self
            .patterns
            .read()
            .unwrap()
            .iter()
            .filter(|(_, s)| matches!(s, PatternState::Built(_)))
            .map(|(k, _)| k.clone())
            .collect();
        out.sort();
        out
    }
}

// ---------------------------------------------------------------------
// BackendKind: which in-tree store a table is built on.
// ---------------------------------------------------------------------

/// Which in-tree backend a [`crate::Database`] builds its tables with.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// [`RowStore`] (the default).
    #[default]
    Row,
    /// [`CompositeStore`].
    Composite,
}

impl BackendKind {
    /// All in-tree backends (handy for equivalence sweeps).
    pub const ALL: [BackendKind; 2] = [BackendKind::Row, BackendKind::Composite];

    /// Stable lowercase name (bench/series labels).
    pub fn name(&self) -> &'static str {
        match self {
            BackendKind::Row => "row",
            BackendKind::Composite => "composite",
        }
    }

    /// An empty store of this kind for `arity` columns.
    pub(crate) fn new_store(self, arity: usize) -> Box<dyn Storage> {
        match self {
            BackendKind::Row => Box::new(RowStore::new(arity)),
            BackendKind::Composite => Box::new(CompositeStore::new(arity)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tuples() -> Vec<Tuple> {
        vec![
            Tuple::new(vec![Value::int(1), Value::str("a"), Value::int(10)]),
            Tuple::new(vec![Value::int(2), Value::str("b"), Value::int(10)]),
            Tuple::new(vec![Value::int(3), Value::str("a"), Value::int(20)]),
            Tuple::new(vec![Value::int(4), Value::str("a"), Value::int(10)]),
        ]
    }

    fn filled(kind: BackendKind) -> Box<dyn Storage> {
        let mut b = kind.new_store(3);
        for t in tuples() {
            assert!(b.insert(t));
        }
        b
    }

    #[test]
    fn all_backends_agree_on_scans_and_estimates() {
        let row = filled(BackendKind::Row);
        let other = filled(BackendKind::Composite);
        for bound in [
            vec![],
            vec![(1, Value::str("a"))],
            vec![(1, Value::str("a")), (2, Value::int(10))],
            vec![(0, Value::int(3)), (2, Value::int(20))],
            vec![(1, Value::str("zzz"))],
        ] {
            // Repeat so the composite store crosses its build
            // threshold and switches access paths mid-test: matching
            // rows must not change.
            for _ in 0..=COMPOSITE_BUILD_THRESHOLD {
                let verify = |s: &dyn Storage| -> Vec<usize> {
                    s.scan(&bound)
                        .filter(|&r| bound.iter().all(|(c, v)| s.cell(r, *c) == v))
                        .collect()
                };
                assert_eq!(
                    verify(row.as_ref()),
                    verify(other.as_ref()),
                    "composite diverged on {bound:?}"
                );
                assert_eq!(
                    row.estimate(&bound),
                    other.estimate(&bound),
                    "composite estimate diverged on {bound:?}"
                );
            }
        }
    }

    #[test]
    fn composite_index_builds_after_threshold() {
        let b = filled(BackendKind::Composite);
        let bound = vec![(1, Value::str("a")), (2, Value::int(10))];
        for i in 0..COMPOSITE_BUILD_THRESHOLD {
            let path = b.scan(&bound).path();
            if i + 1 < COMPOSITE_BUILD_THRESHOLD {
                assert_eq!(path, AccessPath::ColumnIndex(1));
            } else {
                assert_eq!(path, AccessPath::CompositeIndex);
            }
        }
        assert_eq!(b.composite_patterns(), vec![vec![1, 2]]);
        let hits: Vec<usize> = b.scan(&bound).collect();
        assert_eq!(hits, vec![0, 3]);
    }

    #[test]
    fn composite_index_tracks_inserts() {
        let mut b = filled(BackendKind::Composite);
        b.ensure_index(&[1, 2]);
        let bound = vec![(1, Value::str("a")), (2, Value::int(10))];
        assert_eq!(b.scan(&bound).collect::<Vec<_>>(), vec![0, 3]);
        b.insert(Tuple::new(vec![
            Value::int(5),
            Value::str("a"),
            Value::int(10),
        ]));
        // Advising a built pattern again is a no-op, not a rebuild.
        b.ensure_index(&[1, 2]);
        assert_eq!(b.scan(&bound).collect::<Vec<_>>(), vec![0, 3, 4]);
        assert_eq!(b.scan(&bound).path(), AccessPath::CompositeIndex);
        assert_eq!(b.composite_patterns(), vec![vec![1, 2]]);
    }

    #[test]
    fn ensure_index_ignores_bad_patterns() {
        let b = filled(BackendKind::Composite);
        b.ensure_index(&[0]); // too short
        b.ensure_index(&[0, 9]); // out of range
        assert!(b.composite_patterns().is_empty());
    }

    #[test]
    fn zero_arity_stores_behave() {
        for kind in BackendKind::ALL {
            let mut b = kind.new_store(0);
            assert!(!b.contains(&[]));
            assert!(b.insert(Tuple::new(Vec::new())));
            assert!(!b.insert(Tuple::new(Vec::new())));
            assert_eq!(b.len(), 1);
            assert!(b.contains(&[]));
            assert_eq!(b.scan(&[]).collect::<Vec<_>>(), vec![0]);
        }
    }

    #[test]
    fn duplicates_ignored_everywhere() {
        for kind in BackendKind::ALL {
            let mut b = filled(kind);
            assert!(!b.insert(tuples().swap_remove(0)));
            assert_eq!(b.len(), 4, "{kind:?}");
        }
    }
}
