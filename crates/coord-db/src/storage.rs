//! Tuple storage: the [`Storage`] trait and [`RowStore`], the one
//! in-tree store.
//!
//! [`crate::Table`] holds a `Box<dyn Storage>` and delegates all
//! physical data access to it, so the evaluator and every engine above
//! it are agnostic to the representation. The trait is also where test
//! fakes plug in: `database.rs`'s estimate-counting store and
//! [`crate::testkit::ScanStore`], the full-scan oracle [`RowStore`] is
//! checked against.
//!
//! [`RowStore`] keeps rows in insertion order plus, per column, an
//! ascending posting list of row ids for every value. A probe with one
//! bound column walks that column's list; a probe with k ≥ 2 bound
//! columns *leapfrog-intersects* all k lists (Veldhuizen, *Leapfrog
//! Triejoin*, ICDT 2014): starting from the smallest, each list gallops
//! (exponential, then binary search) to the current candidate, so the
//! scan yields exactly the matching rows for O(k · |smallest| · log)
//! integer compares, and never fetches a row that fails a bound column.
//! Membership is the same intersection over every column, which is also
//! how [`Storage::insert`] drops duplicates.
//!
//! ## The determinism contract
//!
//! The backtracking evaluator promises that its answers do not depend
//! on the store (see `tests/storage_props.rs`, which checks [`RowStore`]
//! against the full-scan oracle). Two invariants make that hold, and
//! every store must preserve them:
//!
//! 1. **Ascending candidates:** [`Storage::scan`] yields candidate row
//!    ids in strictly ascending insertion order. A store may
//!    over-approximate (a superset of the matching rows, as the oracle's
//!    full scan does) but never reorder, so the sequence of *matching*
//!    rows — and therefore the DFS exploration order — is
//!    store-independent. [`Scan`] asserts the order under
//!    `debug_assertions`.
//! 2. **Exact, path-independent estimates:** [`Storage::estimate`]
//!    returns the exact number of rows matching the *most selective
//!    single bound column*, regardless of which access path `scan`
//!    takes. Atom ordering decisions are therefore identical on every
//!    store, even though the intersection serves a multi-column probe
//!    from far fewer rows than that estimate.

use crate::tuple::Tuple;
use crate::value::Value;
use std::collections::HashMap;
use std::fmt;

/// How a [`Scan`] is being served — recorded by the evaluator as index
/// hit/miss counters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessPath {
    /// Every row id, no index consulted.
    FullScan,
    /// The posting list of the given column.
    ColumnIndex(usize),
    /// The intersection of the posting lists of every bound column.
    Intersection,
}

impl AccessPath {
    /// Whether an index served the scan (anything but a full scan).
    pub fn is_indexed(&self) -> bool {
        !matches!(self, AccessPath::FullScan)
    }
}

/// A stream of candidate row ids plus the access path that produced it.
/// Candidates arrive in strictly ascending insertion order (see the
/// module docs' determinism contract); equality paths are exact or a
/// superset, depending on the store.
pub struct Scan<'a> {
    rows: Box<dyn Iterator<Item = usize> + 'a>,
    path: AccessPath,
    /// The last row id yielded, for the ascending-order check.
    last: Option<usize>,
}

impl<'a> Scan<'a> {
    /// A scan over a borrowed iterator.
    pub fn new(rows: impl Iterator<Item = usize> + 'a, path: AccessPath) -> Self {
        Scan {
            rows: Box::new(rows),
            path,
            last: None,
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
        let row = self.rows.next()?;
        debug_assert!(
            self.last.is_none_or(|last| last < row),
            "{:?} yielded row {row} after row {:?}: scans must be strictly ascending",
            self.path,
            self.last
        );
        self.last = Some(row);
        Some(row)
    }
}

/// Physical storage for one relation. Object-safe: a [`crate::Table`]
/// holds it boxed, so test fakes and oracles plug in through
/// [`crate::Table::with_storage`]; see the module docs for the
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

    /// Membership test for a fully grounded tuple of the right arity.
    fn contains(&self, values: &[Value]) -> bool;

    /// The value at (`row`, `col`). Rows are dense ids `0..len()` in
    /// insertion order.
    fn cell(&self, row: usize, col: usize) -> &Value;

    /// Candidate rows for the given `(column, value)` equality
    /// constraints (strictly ascending row ids; possibly a superset —
    /// callers re-verify). An empty `bound` is a full scan.
    fn scan(&self, bound: &[(usize, Value)]) -> Scan<'_>;

    /// Exact number of rows matching the most selective single bound
    /// column (`len()` when `bound` is empty). Must be identical on
    /// every store — see the determinism contract.
    fn estimate(&self, bound: &[(usize, Value)]) -> usize;

    /// Number of distinct values in `col`.
    fn distinct_count(&self, col: usize) -> usize;
}

/// Rows in insertion order plus one posting list per (column, value);
/// multi-column probes and membership tests intersect the lists (see
/// the module docs).
#[derive(Clone, Debug)]
pub struct RowStore {
    arity: usize,
    rows: Vec<Tuple>,
    /// `indexes[c][v]` = ascending row ids whose column `c` equals `v`.
    indexes: Vec<HashMap<Value, Vec<usize>>>,
}

impl RowStore {
    /// An empty store with `arity` columns.
    pub fn new(arity: usize) -> Self {
        RowStore {
            arity,
            rows: Vec::new(),
            indexes: vec![HashMap::new(); arity],
        }
    }

    /// Row ids whose column `col` equals `value` (ascending).
    pub fn bucket(&self, col: usize, value: &Value) -> &[usize] {
        self.indexes[col].get(value).map_or(&[], Vec::as_slice)
    }

    /// The rows whose column `c` equals `v` for every `(c, v)`, in
    /// ascending order. `columns` must not be empty.
    fn intersect<'v>(&self, columns: impl Iterator<Item = (usize, &'v Value)>) -> Leapfrog<'_> {
        let mut lists: Vec<&[usize]> = columns.map(|(c, v)| self.bucket(c, v)).collect();
        lists.sort_by_key(|list| list.len());
        Leapfrog {
            pos: vec![0; lists.len()],
            lists,
        }
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
        if self.contains(&tuple) {
            return false;
        }
        let row_id = self.rows.len();
        for (c, v) in tuple.iter().enumerate() {
            self.indexes[c].entry(v.clone()).or_default().push(row_id);
        }
        self.rows.push(tuple);
        true
    }

    fn contains(&self, values: &[Value]) -> bool {
        if values.is_empty() {
            // The nullary relation holds at most the empty tuple.
            return !self.rows.is_empty();
        }
        self.intersect(values.iter().enumerate()).next().is_some()
    }

    fn cell(&self, row: usize, col: usize) -> &Value {
        &self.rows[row][col]
    }

    fn scan(&self, bound: &[(usize, Value)]) -> Scan<'_> {
        match bound {
            [] => Scan::new(0..self.rows.len(), AccessPath::FullScan),
            [(c, v)] => Scan::new(
                self.bucket(*c, v).iter().copied(),
                AccessPath::ColumnIndex(*c),
            ),
            _ => Scan::new(
                self.intersect(bound.iter().map(|(c, v)| (*c, v))),
                AccessPath::Intersection,
            ),
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

/// Leapfrog intersection of ascending row-id lists, smallest first:
/// yields the ids present in every list, ascending.
struct Leapfrog<'a> {
    lists: Vec<&'a [usize]>,
    /// Per list, the index of its first id not yet passed.
    pos: Vec<usize>,
}

impl Iterator for Leapfrog<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        let k = self.lists.len();
        let mut target = *self.lists[0].get(self.pos[0])?;
        // Lists positioned at `target`, counted cyclically from the one
        // that set it; once all k agree, `target` is in every list.
        let mut agreed = 1;
        let mut i = 0;
        while agreed < k {
            i = (i + 1) % k;
            let list = self.lists[i];
            self.pos[i] = seek(list, self.pos[i], target);
            let id = *list.get(self.pos[i])?;
            if id == target {
                agreed += 1;
            } else {
                (target, agreed) = (id, 1);
            }
        }
        // Every list sits at `target`; step past it in the first.
        self.pos[0] += 1;
        Some(target)
    }
}

/// The index of the first id ≥ `target` in `list[from..]` (or
/// `list.len()`): gallop by doubling steps, then binary-search the last
/// step, so a seek costs O(log distance).
fn seek(list: &[usize], from: usize, target: usize) -> usize {
    let rest = &list[from..];
    let mut step = 1;
    while step < rest.len() && rest[step] < target {
        step *= 2;
    }
    let lo = step / 2;
    let hi = (step + 1).min(rest.len());
    from + lo + rest[lo..hi].partition_point(|&id| id < target)
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

    fn filled() -> RowStore {
        let mut b = RowStore::new(3);
        for t in tuples() {
            assert!(b.insert(t));
        }
        b
    }

    /// The oracle: every row whose bound columns all match, ascending.
    fn filter(s: &RowStore, bound: &[(usize, Value)]) -> Vec<usize> {
        (0..s.len())
            .filter(|&r| bound.iter().all(|(c, v)| s.cell(r, *c) == v))
            .collect()
    }

    #[test]
    fn seek_finds_the_first_id_not_below_the_target() {
        let list: Vec<usize> = (0..50).map(|i| 3 * i).collect();
        for from in [0, 1, 7, 49, 50] {
            for target in 0..160 {
                let expected = from + list[from..].partition_point(|&id| id < target);
                assert_eq!(
                    seek(&list, from, target),
                    expected,
                    "from {from} target {target}"
                );
            }
        }
        assert_eq!(seek(&[], 0, 5), 0);
    }

    #[test]
    fn scans_yield_exactly_the_matching_rows_in_order() {
        let s = filled();
        for bound in [
            vec![],
            vec![(1, Value::str("a"))],
            vec![(1, Value::str("a")), (2, Value::int(10))],
            vec![(0, Value::int(3)), (2, Value::int(20))],
            vec![
                (0, Value::int(4)),
                (1, Value::str("a")),
                (2, Value::int(10)),
            ],
            // A value absent from its column: an empty list sorts first.
            vec![(1, Value::str("a")), (2, Value::int(30))],
            // Non-empty lists with an empty intersection.
            vec![(0, Value::int(2)), (1, Value::str("a"))],
            // The same column bound twice: to one value, then to two.
            vec![(1, Value::str("a")), (1, Value::str("a"))],
            vec![(1, Value::str("a")), (1, Value::str("b"))],
        ] {
            assert_eq!(
                s.scan(&bound).collect::<Vec<_>>(),
                filter(&s, &bound),
                "{bound:?}"
            );
        }
        let two = [(1, Value::str("a")), (2, Value::int(10))];
        assert_eq!(s.scan(&two).path(), AccessPath::Intersection);
        assert_eq!(s.scan(&two[..1]).path(), AccessPath::ColumnIndex(1));
        assert_eq!(s.scan(&[]).path(), AccessPath::FullScan);
        // The estimate stays the smallest single-column bucket.
        assert_eq!(s.estimate(&two), 3);
        assert_eq!(RowStore::new(3).scan(&two).count(), 0);
    }

    /// The `coord-gen` activity shape: a strided topic bucket (every
    /// k-th row) crossed with a contiguous day bucket (k rows in a run)
    /// meets in exactly one row, without walking either bucket.
    #[test]
    fn strided_topic_meets_contiguous_day_in_one_row() {
        let k = 30;
        let mut s = RowStore::new(3);
        for i in 0..k * k {
            let row = vec![
                Value::int(i as i64),
                Value::int((i % k) as i64),
                Value::int((i / k) as i64),
            ];
            s.insert(row.into());
        }
        for (topic, day) in [(0, 0), (7, 12), (k - 1, k - 1)] {
            let bound = [(1, Value::int(topic as i64)), (2, Value::int(day as i64))];
            assert_eq!(s.scan(&bound).collect::<Vec<_>>(), vec![day * k + topic]);
            assert_eq!(s.estimate(&bound), k);
        }
    }

    #[test]
    fn zero_arity_store_behaves() {
        let mut b = RowStore::new(0);
        assert!(!b.contains(&[]));
        assert!(b.insert(Tuple::new(Vec::new())));
        assert!(!b.insert(Tuple::new(Vec::new())));
        assert_eq!(b.len(), 1);
        assert!(b.contains(&[]));
        assert_eq!(b.scan(&[]).collect::<Vec<_>>(), vec![0]);
    }

    #[test]
    fn duplicates_ignored() {
        let mut b = filled();
        assert!(!b.insert(tuples().swap_remove(0)));
        assert_eq!(b.len(), 4);
        assert_eq!(b.bucket(0, &Value::int(1)), &[0]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "strictly ascending")]
    fn a_descending_scan_is_caught() {
        Scan::new([2, 1].into_iter(), AccessPath::FullScan).for_each(drop);
    }
}
