//! Property tests: the row store against the full-scan oracle
//! (`coord_db::testkit`). Its leapfrog intersection yields exactly the
//! rows a filter over all rows keeps, in the same order; membership is a
//! linear search; and `find_one`, `find_all` (including answer *order*)
//! and `distinct_project` are byte-identical on a database and on its
//! `scan_copy` — plus deterministic zero-arity and repeated-variable
//! edge cases.

use coord_db::testkit::scan_copy;
use coord_db::{Atom, ConjunctiveQuery, Database, RelationSchema, Symbol, Table, Term, Value, Var};
use proptest::prelude::*;

#[derive(Clone, Debug)]
struct QuerySpec {
    atoms: Vec<(usize, Vec<TermSpec>)>, // (relation index, terms)
}

#[derive(Clone, Debug)]
enum TermSpec {
    Var(u32),
    Const(i64),
}

fn term_strategy() -> impl Strategy<Value = TermSpec> {
    prop_oneof![
        (0u32..3).prop_map(TermSpec::Var),
        (0i64..4).prop_map(TermSpec::Const),
    ]
}

fn query_strategy() -> impl Strategy<Value = QuerySpec> {
    prop::collection::vec((0usize..2, prop::collection::vec(term_strategy(), 2)), 1..4)
        .prop_map(|atoms| QuerySpec { atoms })
}

fn build_db(rows_a: &[(i64, i64)], rows_b: &[(i64, i64)]) -> Database {
    let mut db = Database::new();
    db.create_table("A", &["x", "y"]).unwrap();
    db.create_table("B", &["x", "y"]).unwrap();
    for &(a, b) in rows_a {
        db.insert("A", vec![Value::int(a), Value::int(b)]).unwrap();
    }
    for &(a, b) in rows_b {
        db.insert("B", vec![Value::int(a), Value::int(b)]).unwrap();
    }
    db
}

fn build_query(spec: &QuerySpec) -> ConjunctiveQuery {
    ConjunctiveQuery::new(
        spec.atoms
            .iter()
            .map(|(rel, terms)| {
                Atom::new(
                    if *rel == 0 { "A" } else { "B" },
                    terms
                        .iter()
                        .map(|t| match t {
                            TermSpec::Var(v) => Term::Var(Var(*v)),
                            TermSpec::Const(c) => Term::constant(*c),
                        })
                        .collect(),
                )
            })
            .collect(),
    )
}

/// A skewed cell: 0 half the time, 1 a fifth, 2–4 a tenth each, and
/// never 5 — so buckets range from most of the table to empty.
fn skewed_cell() -> impl Strategy<Value = i64> {
    (0i64..10).prop_map(|x| x * x / 20)
}

/// A four-column table of skewed rows (duplicates dropped on insert).
fn skewed_table(rows: &[(i64, i64, i64, i64)]) -> Table {
    let schema = RelationSchema::new("S", ["a", "b", "c", "d"]).unwrap();
    let mut t = Table::new(schema);
    for &(a, b, c, d) in rows {
        t.insert(vec![
            Value::int(a),
            Value::int(b),
            Value::int(c),
            Value::int(d),
        ])
        .unwrap();
    }
    t
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `find_all` answers — including their order — and the `find_one`
    /// witness are byte-identical on the row store and the oracle.
    #[test]
    fn store_and_oracle_agree_on_answers(
        spec in query_strategy(),
        rows_a in prop::collection::vec((0i64..4, 0i64..4), 0..6),
        rows_b in prop::collection::vec((0i64..4, 0i64..4), 0..6),
    ) {
        let q = build_query(&spec);
        let db = build_db(&rows_a, &rows_b);
        let oracle = scan_copy(&db);
        prop_assert_eq!(db.find_all(&q, None).unwrap(), oracle.find_all(&q, None).unwrap());
        prop_assert_eq!(db.find_one(&q).unwrap(), oracle.find_one(&q).unwrap());
    }

    /// `distinct_project` — bound and unbound — is byte-identical on the
    /// row store and the oracle, row order included.
    #[test]
    fn store_and_oracle_agree_on_distinct_project(
        rows_a in prop::collection::vec((0i64..4, 0i64..4), 0..8),
        bound in 0i64..4,
    ) {
        let db = build_db(&rows_a, &[]);
        let oracle = scan_copy(&db);
        let rel = Symbol::new("A");
        let (t, o) = (db.table(&rel).unwrap(), oracle.table(&rel).unwrap());
        let by_first = [(0, Value::int(bound))];
        prop_assert_eq!(t.distinct_project(&[1], &by_first), o.distinct_project(&[1], &by_first));
        prop_assert_eq!(t.distinct_project(&[0, 1], &[]), o.distinct_project(&[0, 1], &[]));
    }

    /// A scan with 1–4 bound columns — a column may be bound twice, to
    /// the same or another value, and value 5 is absent from every
    /// column — yields exactly the rows the filter over all rows keeps,
    /// in the same order, and never more than the estimate.
    #[test]
    fn intersection_equals_the_filter(
        rows in prop::collection::vec((skewed_cell(), skewed_cell(), skewed_cell(), skewed_cell()), 0..80),
        bound in prop::collection::vec((0usize..4, 0i64..6), 1..5),
    ) {
        let t = skewed_table(&rows);
        let bound: Vec<(usize, Value)> = bound.into_iter().map(|(c, v)| (c, Value::int(v))).collect();
        let filtered: Vec<usize> = (0..t.len())
            .filter(|&r| bound.iter().all(|(c, v)| t.cell(r, *c) == v))
            .collect();
        let scanned: Vec<usize> = t.scan(&bound).collect();
        prop_assert!(scanned.len() <= t.estimate(&bound));
        prop_assert_eq!(scanned, filtered, "bound {:?}", bound);
    }

    /// Membership is a linear search over the rows, and re-inserting a
    /// stored row returns `false` and leaves `len` alone.
    #[test]
    fn contains_equals_a_linear_search(
        rows in prop::collection::vec((skewed_cell(), skewed_cell(), skewed_cell(), skewed_cell()), 0..80),
        probe in (0i64..6, 0i64..6, 0i64..6, 0i64..6),
    ) {
        let mut t = skewed_table(&rows);
        let (a, b, c, d) = probe;
        let probe = [Value::int(a), Value::int(b), Value::int(c), Value::int(d)];
        let linear = t.iter_rows().any(|row| row == probe);
        prop_assert_eq!(t.contains(&probe), linear);
        let len = t.len();
        for &(a, b, c, d) in &rows {
            let again = vec![Value::int(a), Value::int(b), Value::int(c), Value::int(d)];
            prop_assert!(!t.insert(again).unwrap());
        }
        prop_assert_eq!(t.len(), len);
    }
}

/// Zero-arity relations behave identically on the row store and the
/// oracle: the nullary tuple is present or absent, a duplicate nullary
/// insert is a no-op, and a nullary atom is satisfiable iff the tuple
/// is present.
#[test]
fn zero_arity_tables_agree_with_the_oracle() {
    for populated in [false, true] {
        let mut db = Database::new();
        db.create_table("Z", &[]).unwrap();
        if populated {
            assert!(db.insert("Z", vec![]).unwrap());
            assert!(!db.insert("Z", vec![]).unwrap());
        }
        let oracle = scan_copy(&db);
        let q = ConjunctiveQuery::new(vec![Atom::new("Z", vec![])]);
        let mut answers = Vec::new();
        for db in [&db, &oracle] {
            let t = db.table(&Symbol::new("Z")).unwrap();
            assert_eq!(t.len(), usize::from(populated));
            assert_eq!(t.contains(&[]), populated);
            answers.push((db.find_one(&q).unwrap(), db.find_all(&q, None).unwrap()));
        }
        assert_eq!(answers[0], answers[1]);
    }
}

/// Repeated-variable atoms (`A(x, x)`) filter identically on the row
/// store and the oracle.
#[test]
fn repeated_variable_atoms_agree_with_the_oracle() {
    let rows = [(0, 0), (0, 1), (1, 1), (2, 3), (3, 3)];
    let q = ConjunctiveQuery::new(vec![Atom::new(
        "A",
        vec![Term::Var(Var(0)), Term::Var(Var(0))],
    )]);
    let db = build_db(&rows, &[]);
    let oracle = scan_copy(&db);
    let expected = oracle.find_all(&q, None).unwrap();
    assert_eq!(expected.len(), 3); // (0,0), (1,1), (3,3)
    assert_eq!(db.find_all(&q, None).unwrap(), expected);
    assert_eq!(db.find_one(&q).unwrap(), oracle.find_one(&q).unwrap());
}
