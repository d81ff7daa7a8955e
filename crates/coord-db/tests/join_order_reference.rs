//! Join-order oracle: the evaluator's compiled join (cached estimates,
//! re-estimated only where a binding changed) against the rule it
//! implements, spelled out naively — at every step re-resolve and
//! re-estimate *every* unjoined atom under the current bindings and take
//! the minimum, ties to the lowest atom index. The reference runs over
//! the public [`coord_db::Table`] API and keeps its own probe counters,
//! so the comparison covers answer *sequences* (order, not just sets),
//! the `find_one` witness, and the exact access-path work.

use coord_db::{Atom, BackendKind, ConjunctiveQuery, Database, Symbol, Term, Value, Var};
use proptest::prelude::*;
use std::collections::HashMap;

/// The probe work the evaluator reports through `QueryStats`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Probes {
    scanned: u64,
    ground: u64,
    index_hits: u64,
    index_misses: u64,
}

impl Probes {
    fn of(db: &Database) -> Self {
        let s = db.stats();
        Probes {
            scanned: s.rows_scanned(),
            ground: s.ground_probe_count(),
            index_hits: s.index_hit_count(),
            index_misses: s.index_miss_count(),
        }
    }

    fn since(self, earlier: Probes) -> Self {
        Probes {
            scanned: self.scanned - earlier.scanned,
            ground: self.ground - earlier.ground,
            index_hits: self.index_hits - earlier.index_hits,
            index_misses: self.index_misses - earlier.index_misses,
        }
    }
}

type Answer = Vec<(Var, Value)>;
/// `(column, value)` pairs an atom resolves to under the bindings.
type Bound = Vec<(usize, Value)>;

/// The reference evaluator: O(k²) selection, hashed bindings.
struct Reference<'a> {
    db: &'a Database,
    query: &'a ConjunctiveQuery,
    used: Vec<bool>,
    binding: HashMap<Var, Value>,
    probes: Probes,
    answers: Vec<Answer>,
    limit: usize,
}

impl Reference<'_> {
    fn resolve(&self, term: &Term) -> Option<Value> {
        match term {
            Term::Const(c) => Some(c.clone()),
            Term::Var(v) => self.binding.get(v).cloned(),
        }
    }

    /// Greedy ordering: the unjoined atom with the smallest estimate
    /// (ground = 0, nothing bound = full scan as a last resort), plus
    /// its resolved `(column, value)` pairs.
    fn pick_next_atom(&self) -> Option<(usize, Bound)> {
        let mut best: Option<(usize, usize, Bound)> = None;
        for (i, atom) in self.query.atoms.iter().enumerate() {
            if self.used[i] {
                continue;
            }
            let table = self.db.table(&atom.relation).unwrap();
            let bound: Bound = atom
                .terms
                .iter()
                .enumerate()
                .filter_map(|(c, t)| self.resolve(t).map(|v| (c, v)))
                .collect();
            let est = if bound.len() == atom.terms.len() {
                0
            } else if bound.is_empty() {
                table.len().max(1) + 1_000_000
            } else {
                table.estimate(&bound)
            };
            if best.as_ref().is_none_or(|(b, _, _)| est < *b) {
                best = Some((est, i, bound));
            }
        }
        best.map(|(_, i, bound)| (i, bound))
    }

    /// One level of the join; returns `true` once `limit` answers exist.
    fn step(&mut self) -> bool {
        let Some((next, bound)) = self.pick_next_atom() else {
            let mut answer: Answer = self.binding.iter().map(|(v, c)| (*v, c.clone())).collect();
            answer.sort_by_key(|(v, _)| *v);
            self.answers.push(answer);
            return self.answers.len() >= self.limit;
        };
        self.used[next] = true;
        let stop = self.enumerate_matches(next, &bound);
        self.used[next] = false;
        stop
    }

    fn enumerate_matches(&mut self, next: usize, bound: &[(usize, Value)]) -> bool {
        let atom = &self.query.atoms[next];
        let table = self.db.table(&atom.relation).unwrap();
        if bound.len() == atom.terms.len() {
            let values: Vec<Value> = bound.iter().map(|(_, v)| v.clone()).collect();
            self.probes.ground += 1;
            return table.contains(&values) && self.step();
        }
        let scan = table.scan(bound);
        if scan.path().is_indexed() {
            self.probes.index_hits += 1;
        } else {
            self.probes.index_misses += 1;
        }
        for rid in scan {
            self.probes.scanned += 1;
            let mut newly_bound: Vec<Var> = Vec::new();
            let mut ok = true;
            for (c, term) in atom.terms.iter().enumerate() {
                let cell = table.cell(rid, c);
                match term {
                    Term::Const(v) => ok = v == cell,
                    Term::Var(var) => match self.binding.get(var) {
                        Some(b) => ok = b == cell,
                        None => {
                            self.binding.insert(*var, cell.clone());
                            newly_bound.push(*var);
                        }
                    },
                }
                if !ok {
                    break;
                }
            }
            let stop = ok && self.step();
            for v in &newly_bound {
                self.binding.remove(v);
            }
            if stop {
                return true;
            }
        }
        false
    }
}

fn reference_answers(
    db: &Database,
    query: &ConjunctiveQuery,
    limit: usize,
) -> (Vec<Answer>, Probes) {
    let mut r = Reference {
        db,
        query,
        used: vec![false; query.atoms.len()],
        binding: HashMap::new(),
        probes: Probes::default(),
        answers: Vec::new(),
        limit,
    };
    r.step();
    (r.answers, r.probes)
}

#[derive(Clone, Debug)]
enum TermSpec {
    Var(u32),
    Const(i64),
}

/// Five terms in six are variables from a pool of four (shared across
/// atoms and repeated within one), so most queries join over several
/// steps; constants 0–2 occur in the tables, 3 never does.
fn term_strategy() -> impl Strategy<Value = TermSpec> {
    (0u32..24).prop_map(|n| match n {
        0..=19 => TermSpec::Var(n % 4),
        _ => TermSpec::Const(i64::from(n) - 20),
    })
}

/// 1–12 atoms over `A/2` (relation 0) and `C/3` (relation 1); three
/// terms are drawn and `A` uses the first two. All-constant draws give
/// ground atoms, disjoint variables give cross products.
fn query_strategy() -> impl Strategy<Value = Vec<(usize, Vec<TermSpec>)>> {
    prop::collection::vec(
        (0usize..2, prop::collection::vec(term_strategy(), 3)),
        1..13,
    )
}

fn build_db(kind: BackendKind, rows_a: &[(i64, i64)], rows_c: &[(i64, i64, i64)]) -> Database {
    let mut db = Database::with_backend(kind);
    db.create_table("A", &["x", "y"]).unwrap();
    db.create_table("C", &["x", "y", "z"]).unwrap();
    for &(a, b) in rows_a {
        db.insert("A", vec![Value::int(a), Value::int(b)]).unwrap();
    }
    for &(a, b, c) in rows_c {
        db.insert("C", vec![Value::int(a), Value::int(b), Value::int(c)])
            .unwrap();
    }
    // One pattern built up front, the rest left to the composite
    // backend's adaptive counting: both states are on the compared path.
    db.advise_pattern(&Symbol::new("C"), &[0, 1]);
    db
}

fn build_query(spec: &[(usize, Vec<TermSpec>)]) -> ConjunctiveQuery {
    let atoms = spec.iter().map(|(rel, terms)| {
        let (name, arity) = if *rel == 0 { ("A", 2) } else { ("C", 3) };
        let terms = terms[..arity].iter().map(|t| match t {
            TermSpec::Var(v) => Term::Var(Var(*v)),
            TermSpec::Const(c) => Term::constant(*c),
        });
        Atom::new(name, terms.collect())
    });
    ConjunctiveQuery::new(atoms.collect())
}

/// Enough to see the order of a cross product without enumerating it.
const LIMIT: usize = 64;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Same answers in the same order, same witness, same probe work —
    /// on every backend. The reference and the product each get a
    /// database of their own: the composite backend builds indexes
    /// adaptively from the scans it sees, so sharing one would let the
    /// first evaluation change the second's access paths.
    #[test]
    fn compiled_join_follows_the_greedy_rule(
        spec in query_strategy(),
        rows_a in prop::collection::vec((0i64..3, 0i64..3), 0..13),
        rows_c in prop::collection::vec((0i64..3, 0i64..3, 0i64..3), 4..40),
    ) {
        let q = build_query(&spec);
        for kind in BackendKind::ALL {
            let oracle_db = build_db(kind, &rows_a, &rows_c);
            let (expected_all, expected_all_probes) = reference_answers(&oracle_db, &q, LIMIT);
            let (expected_one, expected_one_probes) = reference_answers(&oracle_db, &q, 1);

            let db = build_db(kind, &rows_a, &rows_c);
            let before = Probes::of(&db);
            let all: Vec<Answer> = db
                .find_all(&q, Some(LIMIT))
                .unwrap()
                .iter()
                .map(|a| a.iter().map(|(v, c)| (v, c.clone())).collect())
                .collect();
            let after_all = Probes::of(&db);
            let one: Option<Answer> = db
                .find_one(&q)
                .unwrap()
                .map(|a| a.iter().map(|(v, c)| (v, c.clone())).collect());
            let after_one = Probes::of(&db);

            prop_assert_eq!(&all, &expected_all, "{}: find_all sequence", kind.name());
            prop_assert_eq!(after_all.since(before), expected_all_probes, "{}", kind.name());
            prop_assert_eq!(one, expected_one.into_iter().next(), "{}: find_one", kind.name());
            prop_assert_eq!(after_one.since(after_all), expected_one_probes, "{}", kind.name());
        }
    }
}
