//! Property tests: the composite store answers byte-identically to
//! the row store — `find_one`, `find_all` (including answer *order*),
//! and `distinct_project` — on random tables and conjunctive queries,
//! plus deterministic zero-arity and repeated-variable edge cases.

use coord_db::{Atom, BackendKind, ConjunctiveQuery, Database, Symbol, Term, Value, Var};
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

fn build_db(kind: BackendKind, rows_a: &[(i64, i64)], rows_b: &[(i64, i64)]) -> Database {
    let mut db = Database::with_backend(kind);
    db.create_table("A", &["x", "y"]).unwrap();
    db.create_table("B", &["x", "y"]).unwrap();
    for &(a, b) in rows_a {
        db.insert("A", vec![Value::int(a), Value::int(b)]).unwrap();
    }
    for &(a, b) in rows_b {
        db.insert("B", vec![Value::int(a), Value::int(b)]).unwrap();
    }
    // Force the composite backend onto its multi-column index path so
    // equivalence is tested against *built* indexes, not the counting
    // fallback (which just delegates to the row store).
    db.advise_pattern(&Symbol::new("A"), &[0, 1]);
    db.advise_pattern(&Symbol::new("B"), &[0, 1]);
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `find_all` answers — including their order — and the `find_one`
    /// witness are byte-identical across backends.
    #[test]
    fn backends_agree_on_answers(
        spec in query_strategy(),
        rows_a in prop::collection::vec((0i64..4, 0i64..4), 0..6),
        rows_b in prop::collection::vec((0i64..4, 0i64..4), 0..6),
    ) {
        let q = build_query(&spec);
        let reference = build_db(BackendKind::Row, &rows_a, &rows_b);
        let expected_all = reference.find_all(&q, None).unwrap();
        let expected_one = reference.find_one(&q).unwrap();
        let db = build_db(BackendKind::Composite, &rows_a, &rows_b);
        prop_assert_eq!(db.find_all(&q, None).unwrap(), expected_all);
        prop_assert_eq!(db.find_one(&q).unwrap(), expected_one);
    }

    /// `distinct_project` — bound and unbound — is byte-identical
    /// across backends, row order included.
    #[test]
    fn backends_agree_on_distinct_project(
        rows_a in prop::collection::vec((0i64..4, 0i64..4), 0..8),
        bound in 0i64..4,
    ) {
        let reference = build_db(BackendKind::Row, &rows_a, &[]);
        let rel = Symbol::new("A");
        let t = reference.table(&rel).unwrap();
        let expected_bound = t.distinct_project(&[1], &[(0, Value::int(bound))]);
        let expected_free = t.distinct_project(&[0, 1], &[]);
        let db = build_db(BackendKind::Composite, &rows_a, &[]);
        let t = db.table(&rel).unwrap();
        prop_assert_eq!(
            t.distinct_project(&[1], &[(0, Value::int(bound))]),
            expected_bound
        );
        prop_assert_eq!(t.distinct_project(&[0, 1], &[]), expected_free);
    }
}

/// Zero-arity relations behave identically everywhere: the nullary
/// tuple is present or absent, and a nullary atom is satisfiable iff
/// it is present.
#[test]
fn zero_arity_tables_agree_across_backends() {
    for populated in [false, true] {
        let mut answers = Vec::new();
        for kind in BackendKind::ALL {
            let mut db = Database::with_backend(kind);
            db.create_table("Z", &[]).unwrap();
            if populated {
                db.insert("Z", vec![]).unwrap();
                // Duplicate nullary insert is a no-op on every backend.
                db.insert("Z", vec![]).unwrap();
            }
            let t = db.table(&Symbol::new("Z")).unwrap();
            assert_eq!(t.len(), usize::from(populated), "{}", kind.name());
            assert_eq!(t.contains(&[]), populated, "{}", kind.name());
            let q = ConjunctiveQuery::new(vec![Atom::new("Z", vec![])]);
            answers.push((db.find_one(&q).unwrap(), db.find_all(&q, None).unwrap()));
        }
        assert!(answers.windows(2).all(|w| w[0] == w[1]));
    }
}

/// Repeated-variable atoms (`A(x, x)`) filter identically on every
/// backend, including under an advised composite pattern.
#[test]
fn repeated_variable_atoms_agree_across_backends() {
    let rows = [(0, 0), (0, 1), (1, 1), (2, 3), (3, 3)];
    let q = ConjunctiveQuery::new(vec![Atom::new(
        "A",
        vec![Term::Var(Var(0)), Term::Var(Var(0))],
    )]);
    let reference = build_db(BackendKind::Row, &rows, &[]);
    let expected = reference.find_all(&q, None).unwrap();
    assert_eq!(expected.len(), 3); // (0,0), (1,1), (3,3)
    let db = build_db(BackendKind::Composite, &rows, &[]);
    assert_eq!(db.find_all(&q, None).unwrap(), expected);
    assert_eq!(db.find_one(&q).unwrap(), reference.find_one(&q).unwrap());
}
