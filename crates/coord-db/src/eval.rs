//! Backtracking evaluation of conjunctive queries.
//!
//! The evaluator performs a depth-first join over the query's atoms with
//! *greedy dynamic atom ordering*: at each step it picks the
//! not-yet-joined atom with the smallest candidate-row estimate under
//! the current bindings (ties to the lowest atom index). Fully ground
//! atoms estimate 0 and are short-circuited through an O(1) membership
//! test — no rows are walked. Everything else is served through
//! [`crate::Table::scan`], which lets the selected
//! [`crate::storage::Storage`] backend pick its best access path
//! (single-column bucket or composite index).
//!
//! The join is *compiled once per query* (`Join::compile`): one pass
//! validates each atom and resolves its `&Table`, variables are numbered
//! into dense slots, and every atom gets a cached estimate plus, per
//! variable, the list of atoms mentioning it — flat vectors, nothing
//! hashed. Picking the next atom scans the cached estimates; when a row
//! binds new variables only the unjoined atoms mentioning them are
//! re-estimated, and a trail restores the old estimates on backtrack. A
//! k-atom query costs k `estimate` calls up front and, along one answer
//! path, one more per occurrence of each variable it binds — O(k + Σ
//! occurrences of bound variables) — where re-estimating every unjoined
//! atom at every step costs k²/2: the combined body of a list-shaped
//! closure has one atom per query of the chain. Bindings borrow table
//! cells; values are cloned only into probes and reported answers.
//!
//! Estimates are backend-independent by the [`crate::storage`]
//! determinism contract, so `find_one`/`find_all` answers are
//! byte-identical across backends.

use crate::database::Database;
use crate::error::DbError;
use crate::query::{ConjunctiveQuery, Term, Var};
use crate::stats::QueryStats;
use crate::table::Table;
use crate::value::Value;
use std::ops::Range;

/// A mapping from query variables to database values — one answer of
/// the join — stored sorted by variable: O(variables) to build and clone.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Assignment {
    entries: Vec<(Var, Value)>,
}

impl Assignment {
    /// An empty assignment.
    pub fn new() -> Self {
        Assignment::default()
    }

    /// The value bound to `v`, if any.
    pub fn get(&self, v: Var) -> Option<&Value> {
        let i = self.entries.binary_search_by_key(&v, |e| e.0).ok()?;
        Some(&self.entries[i].1)
    }

    /// Number of bound variables.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no variable is bound.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterate over (variable, value) bindings in ascending variable order.
    pub fn iter(&self) -> impl Iterator<Item = (Var, &Value)> {
        self.entries.iter().map(|(v, val)| (*v, val))
    }

    /// Resolve a term to a value under this assignment.
    pub fn resolve(&self, term: &Term) -> Option<Value> {
        match term {
            Term::Const(c) => Some(c.clone()),
            Term::Var(v) => self.get(*v).cloned(),
        }
    }
}

/// Find one satisfying assignment for `query`, if any.
pub fn find_one(db: &Database, query: &ConjunctiveQuery) -> Result<Option<Assignment>, DbError> {
    let mut result = None;
    Join::compile(db, query)?.step(&mut |a| {
        result = Some(a);
        true // stop at first answer: choose-1 semantics
    });
    Ok(result)
}

/// Enumerate satisfying assignments (up to `limit`).
pub fn find_all(
    db: &Database,
    query: &ConjunctiveQuery,
    limit: Option<usize>,
) -> Result<Vec<Assignment>, DbError> {
    let mut out = Vec::new();
    Join::compile(db, query)?.step(&mut |a| {
        out.push(a);
        limit.is_some_and(|l| out.len() >= l)
    });
    Ok(out)
}

/// Cached estimate of an atom already joined on the current path: never
/// the minimum, so selection skips it without a second flag.
const JOINED: usize = usize::MAX;

/// An atom argument with its variable numbered into a dense slot.
#[derive(Clone, Copy)]
enum JoinTerm<'a> {
    Const(&'a Value),
    Slot(usize),
}

struct JoinAtom<'a> {
    table: &'a Table,
    /// This atom's arguments in [`Join::terms`], in column order.
    terms: Range<usize>,
    /// Candidate-row estimate under the current bindings, or [`JOINED`].
    estimate: usize,
}

struct Slot<'a> {
    var: Var,
    /// The atoms mentioning this variable, in [`Join::mentions`].
    mentions: Range<usize>,
    /// Current binding: a cell of the table row that bound it.
    value: Option<&'a Value>,
}

/// A conjunctive query compiled against a database, plus the state of
/// the depth-first join over it.
struct Join<'a> {
    atoms: Vec<JoinAtom<'a>>,
    terms: Vec<JoinTerm<'a>>,
    /// One per distinct variable, ascending by [`Var`].
    slots: Vec<Slot<'a>>,
    mentions: Vec<usize>,
    stats: &'a QueryStats,
    /// Slots bound on the current path, innermost last.
    bound_slots: Vec<usize>,
    /// `(atom, previous estimate)` of every re-estimate on the current path.
    trail: Vec<(usize, usize)>,
    /// Scratch: `(column, value)` of the bound arguments of the atom
    /// being estimated or probed, ascending by column.
    bound: Vec<(usize, Value)>,
}

impl<'a> Join<'a> {
    /// One pass validates each atom and resolves its table (so the first
    /// failing atom's error is reported, as [`ConjunctiveQuery::validate`]
    /// would); then variables are numbered and initial estimates taken.
    fn compile(db: &'a Database, query: &'a ConjunctiveQuery) -> Result<Self, DbError> {
        let mut atoms = Vec::with_capacity(query.atoms.len());
        let mut terms = Vec::new();
        // (variable, atom, index into `terms`) of every variable occurrence.
        let mut occurrences: Vec<(Var, usize, usize)> = Vec::new();
        for (a, atom) in query.atoms.iter().enumerate() {
            let start = terms.len();
            for term in &atom.terms {
                if let Term::Var(v) = term {
                    occurrences.push((*v, a, terms.len()));
                }
                // Variables are numbered below, once all are known.
                terms.push(term.as_const().map_or(JoinTerm::Slot(0), JoinTerm::Const));
            }
            atoms.push(JoinAtom {
                table: atom.table_in(db)?,
                terms: start..terms.len(),
                estimate: JOINED,
            });
        }
        occurrences.sort_unstable();
        let mut slots: Vec<Slot<'a>> = Vec::new();
        for (o, &(var, _, t)) in occurrences.iter().enumerate() {
            if slots.last().is_none_or(|s| s.var != var) {
                slots.push(Slot {
                    var,
                    mentions: o..o,
                    value: None,
                });
            }
            terms[t] = JoinTerm::Slot(slots.len() - 1);
            slots.last_mut().expect("pushed above").mentions.end = o + 1;
        }
        let mut join = Join {
            atoms,
            terms,
            slots,
            mentions: occurrences.into_iter().map(|(_, a, _)| a).collect(),
            stats: db.stats(),
            bound_slots: Vec::new(),
            trail: Vec::new(),
            bound: Vec::new(),
        };
        for a in 0..join.atoms.len() {
            join.atoms[a].estimate = join.estimate(a);
        }
        Ok(join)
    }

    /// Fill `self.bound` with atom `a`'s arguments that are constants or
    /// bound variables; returns whether that is all of them.
    fn resolve_bound(&mut self, a: usize) -> bool {
        self.bound.clear();
        let terms = &self.terms[self.atoms[a].terms.clone()];
        for (c, term) in terms.iter().enumerate() {
            let value = match *term {
                JoinTerm::Const(v) => Some(v),
                JoinTerm::Slot(s) => self.slots[s].value,
            };
            if let Some(v) = value {
                self.bound.push((c, v.clone()));
            }
        }
        self.bound.len() == terms.len()
    }

    /// The greedy rule's cost of joining atom `a` next: ground atoms cost
    /// one membership probe (0), atoms with nothing bound are a last
    /// resort (full scan), the rest ask [`Table::estimate`], which is
    /// backend-independent.
    fn estimate(&mut self, a: usize) -> usize {
        let table = self.atoms[a].table;
        if self.resolve_bound(a) {
            0
        } else if self.bound.is_empty() {
            table.len().max(1) + 1_000_000
        } else {
            table.estimate(&self.bound)
        }
    }

    /// One level of the join: pick the unjoined atom with the smallest
    /// cached estimate (ties to the lowest index), enumerate its
    /// matches, recurse. Calls `on_answer` for every satisfying
    /// assignment; returns `true` once it asks to stop.
    fn step(&mut self, on_answer: &mut dyn FnMut(Assignment) -> bool) -> bool {
        let (mut best, mut next) = (JOINED, 0);
        for (a, atom) in self.atoms.iter().enumerate() {
            if atom.estimate < best {
                (best, next) = (atom.estimate, a);
            }
        }
        if best == JOINED {
            // All atoms joined, so every variable is bound: report.
            let value = |s: &Slot<'_>| s.value.expect("joined atoms bind their variables").clone();
            let entries = self.slots.iter().map(|s| (s.var, value(s))).collect();
            return on_answer(Assignment { entries });
        }
        self.atoms[next].estimate = JOINED;
        let stop = self.enumerate_matches(next, on_answer);
        self.atoms[next].estimate = best;
        stop
    }

    /// Enumerate the rows of atom `a`'s relation that are compatible
    /// with the current bindings, extending them and recursing for each.
    /// Fully ground atoms short-circuit through the storage membership
    /// test without touching any row.
    fn enumerate_matches(
        &mut self,
        a: usize,
        on_answer: &mut dyn FnMut(Assignment) -> bool,
    ) -> bool {
        let table = self.atoms[a].table;
        if self.resolve_bound(a) {
            // `bound` is complete and in column order, so its values
            // form the candidate tuple directly.
            let tuple: Vec<Value> = self.bound.drain(..).map(|(_, v)| v).collect();
            self.stats.record_ground_probe();
            return table.contains(&tuple) && self.step(on_answer);
        }

        // The bound set drives the scan: the backend picks its best
        // access path, and the iterator is consumed in place — no row-id
        // clone, no lock held while iterating.
        let scan = table.scan(&self.bound);
        if scan.path().is_indexed() {
            self.stats.record_index_hit();
        } else {
            self.stats.record_index_miss();
        }

        let first_new = self.bound_slots.len();
        let mut scanned: u64 = 0;
        let mut stopped = false;
        for rid in scan {
            scanned += 1;
            // Match the atom's terms against this row, binding its
            // unbound variables to the row's cells.
            let terms = self.atoms[a].terms.clone();
            let ok = terms.enumerate().all(|(c, t)| {
                let cell = table.cell(rid, c);
                match self.terms[t] {
                    JoinTerm::Const(v) => v == cell,
                    JoinTerm::Slot(s) => match self.slots[s].value {
                        Some(v) => v == cell,
                        None => {
                            self.slots[s].value = Some(cell);
                            self.bound_slots.push(s);
                            true
                        }
                    },
                }
            });
            if ok {
                let mark = self.trail.len();
                self.reestimate_mentions(first_new);
                stopped = self.step(on_answer);
                for (atom, estimate) in self.trail.drain(mark..).rev() {
                    self.atoms[atom].estimate = estimate;
                }
            }
            for s in self.bound_slots.drain(first_new..) {
                self.slots[s].value = None;
            }
            if stopped {
                break;
            }
        }
        self.stats.record_rows_scanned(scanned);
        stopped
    }

    /// Refresh the cached estimate of every unjoined atom mentioning a
    /// slot in `bound_slots[first_new..]`, trailing the old values.
    fn reestimate_mentions(&mut self, first_new: usize) {
        for i in first_new..self.bound_slots.len() {
            for m in self.slots[self.bound_slots[i]].mentions.clone() {
                let a = self.mentions[m];
                if self.atoms[a].estimate != JOINED {
                    let old = self.atoms[a].estimate;
                    self.atoms[a].estimate = self.estimate(a);
                    self.trail.push((a, old));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Atom;
    use crate::value::Value;

    fn db() -> Database {
        let mut db = Database::new();
        db.create_table("F", &["id", "dest"]).unwrap();
        db.create_table("H", &["id", "loc"]).unwrap();
        for (id, dest) in [(1, "Zurich"), (2, "Paris"), (3, "Paris"), (4, "Athens")] {
            db.insert("F", vec![Value::int(id), Value::str(dest)])
                .unwrap();
        }
        for (id, loc) in [(10, "Paris"), (11, "Athens")] {
            db.insert("H", vec![Value::int(id), Value::str(loc)])
                .unwrap();
        }
        db
    }

    fn atom(rel: &str, terms: Vec<Term>) -> Atom {
        Atom::new(rel, terms)
    }

    #[test]
    fn empty_query_is_trivially_satisfiable() {
        let db = db();
        let q = ConjunctiveQuery::empty();
        let a = find_one(&db, &q).unwrap().unwrap();
        assert!(a.is_empty());
    }

    #[test]
    fn constant_selection() {
        let db = db();
        let q = ConjunctiveQuery::new(vec![atom("F", vec![Term::var(0), Term::constant("Paris")])]);
        let a = find_one(&db, &q).unwrap().unwrap();
        let id = a.get(Var(0)).unwrap().as_int().unwrap();
        assert!(id == 2 || id == 3);
    }

    #[test]
    fn unsatisfiable_constant() {
        let db = db();
        let q = ConjunctiveQuery::new(vec![atom("F", vec![Term::var(0), Term::constant("Oslo")])]);
        assert!(find_one(&db, &q).unwrap().is_none());
    }

    #[test]
    fn join_on_shared_variable() {
        // F(x, d), H(y, d): flight destination with a hotel in the same city.
        let db = db();
        let q = ConjunctiveQuery::new(vec![
            atom("F", vec![Term::var(0), Term::var(2)]),
            atom("H", vec![Term::var(1), Term::var(2)]),
        ]);
        let all = find_all(&db, &q, None).unwrap();
        // Paris: flights 2,3 × hotel 10 → 2 answers. Athens: flight 4 ×
        // hotel 11 → 1 answer. Zurich: no hotel.
        assert_eq!(all.len(), 3);
        for a in &all {
            let d = a.get(Var(2)).unwrap().as_str().unwrap().to_string();
            assert!(d == "Paris" || d == "Athens");
        }
    }

    #[test]
    fn find_all_respects_limit() {
        let db = db();
        let q = ConjunctiveQuery::new(vec![atom("F", vec![Term::var(0), Term::var(1)])]);
        let two = find_all(&db, &q, Some(2)).unwrap();
        assert_eq!(two.len(), 2);
        let all = find_all(&db, &q, None).unwrap();
        assert_eq!(all.len(), 4);
    }

    #[test]
    fn repeated_variable_in_one_atom() {
        // F(x, x) should have no answers (ids are ints, dests strings).
        let db = db();
        let q = ConjunctiveQuery::new(vec![atom("F", vec![Term::var(0), Term::var(0)])]);
        assert!(find_one(&db, &q).unwrap().is_none());
    }

    #[test]
    fn repeated_variable_matching() {
        let mut db = Database::new();
        db.create_table("E", &["a", "b"]).unwrap();
        db.insert("E", vec![Value::int(1), Value::int(1)]).unwrap();
        db.insert("E", vec![Value::int(1), Value::int(2)]).unwrap();
        let q = ConjunctiveQuery::new(vec![atom("E", vec![Term::var(0), Term::var(0)])]);
        let all = find_all(&db, &q, None).unwrap();
        assert_eq!(all.len(), 1);
        assert_eq!(all[0].get(Var(0)), Some(&Value::int(1)));
    }

    #[test]
    fn ground_atom_membership() {
        let db = db();
        let sat = ConjunctiveQuery::new(vec![atom(
            "F",
            vec![Term::constant(1i64), Term::constant("Zurich")],
        )]);
        assert!(find_one(&db, &sat).unwrap().is_some());
        let unsat = ConjunctiveQuery::new(vec![atom(
            "F",
            vec![Term::constant(1i64), Term::constant("Paris")],
        )]);
        assert!(find_one(&db, &unsat).unwrap().is_none());
    }

    #[test]
    fn triangle_join() {
        // R(x,y), R(y,z), R(z,x) on a small cyclic relation.
        let mut db = Database::new();
        db.create_table("R", &["a", "b"]).unwrap();
        db.insert("R", vec![Value::int(1), Value::int(2)]).unwrap();
        db.insert("R", vec![Value::int(2), Value::int(3)]).unwrap();
        db.insert("R", vec![Value::int(3), Value::int(1)]).unwrap();
        db.insert("R", vec![Value::int(3), Value::int(4)]).unwrap();
        let q = ConjunctiveQuery::new(vec![
            atom("R", vec![Term::var(0), Term::var(1)]),
            atom("R", vec![Term::var(1), Term::var(2)]),
            atom("R", vec![Term::var(2), Term::var(0)]),
        ]);
        let all = find_all(&db, &q, None).unwrap();
        // The triangle 1→2→3→1 in its three rotations.
        assert_eq!(all.len(), 3);
    }

    #[test]
    fn validation_rejects_unknown_relation_and_bad_arity() {
        let db = db();
        let bad_rel = ConjunctiveQuery::new(vec![atom("Nope", vec![Term::var(0)])]);
        assert!(find_one(&db, &bad_rel).is_err());
        let bad_arity = ConjunctiveQuery::new(vec![atom("F", vec![Term::var(0)])]);
        assert!(find_one(&db, &bad_arity).is_err());
    }

    /// Regression pin for the ground-atom short-circuit: a fully
    /// resolved atom must cost exactly one membership probe and walk
    /// zero rows, even when its values land in a hot (large) bucket.
    #[test]
    fn ground_atom_probe_counts_are_pinned() {
        for kind in crate::storage::BackendKind::ALL {
            let mut db = Database::with_backend(kind);
            db.create_table("A", &["k", "v"]).unwrap();
            // One hot key: the column-0 bucket for `1` holds 1000 rows.
            for i in 0..1000 {
                db.insert("A", vec![Value::int(1), Value::int(i)]).unwrap();
            }
            db.stats().reset();
            let sat = ConjunctiveQuery::new(vec![atom(
                "A",
                vec![Term::constant(1i64), Term::constant(500i64)],
            )]);
            assert!(db.find_one(&sat).unwrap().is_some());
            let unsat = ConjunctiveQuery::new(vec![atom(
                "A",
                vec![Term::constant(1i64), Term::constant(5000i64)],
            )]);
            assert!(db.find_one(&unsat).unwrap().is_none());
            let stats = db.stats();
            assert_eq!(stats.ground_probe_count(), 2, "{kind:?}");
            assert_eq!(
                stats.rows_scanned(),
                0,
                "{kind:?}: ground atoms walk no rows"
            );
        }
    }

    /// Regression pin for scan-driven enumeration: a single-constant
    /// probe into a selective bucket walks exactly the bucket, through
    /// an index.
    #[test]
    fn selective_scan_probe_counts_are_pinned() {
        for kind in crate::storage::BackendKind::ALL {
            let mut db = Database::with_backend(kind);
            db.create_table("A", &["k", "v"]).unwrap();
            for i in 0..100 {
                db.insert("A", vec![Value::int(i), Value::int(i % 10)])
                    .unwrap();
            }
            db.stats().reset();
            // A(x, 7): the column-1 bucket holds exactly 10 rows.
            let q =
                ConjunctiveQuery::new(vec![atom("A", vec![Term::var(0), Term::constant(7i64)])]);
            assert_eq!(db.find_all(&q, None).unwrap().len(), 10);
            let stats = db.stats();
            assert_eq!(stats.rows_scanned(), 10, "{kind:?}");
            assert_eq!(stats.index_hit_count(), 1, "{kind:?}");
            assert_eq!(stats.index_miss_count(), 0, "{kind:?}");
        }
    }

    /// Answers are byte-identical across backends: same assignments in
    /// the same order, per the storage determinism contract.
    #[test]
    fn backends_agree_on_answer_order() {
        let build = |kind| {
            let mut db = Database::with_backend(kind);
            db.create_table("R", &["a", "b"]).unwrap();
            for (a, b) in [(1, 2), (2, 3), (3, 1), (3, 4), (1, 4), (4, 2)] {
                db.insert("R", vec![Value::int(a), Value::int(b)]).unwrap();
            }
            db
        };
        let q = ConjunctiveQuery::new(vec![
            atom("R", vec![Term::var(0), Term::var(1)]),
            atom("R", vec![Term::var(1), Term::var(2)]),
        ]);
        let reference = build(crate::storage::BackendKind::Row);
        let expected = reference.find_all(&q, None).unwrap();
        for kind in crate::storage::BackendKind::ALL {
            let db = build(kind);
            assert_eq!(db.find_all(&q, None).unwrap(), expected, "{kind:?}");
            assert_eq!(
                db.find_one(&q).unwrap(),
                expected.first().cloned(),
                "{kind:?}"
            );
        }
    }

    #[test]
    fn cross_product_when_no_shared_vars() {
        let db = db();
        let q = ConjunctiveQuery::new(vec![
            atom("F", vec![Term::var(0), Term::constant("Zurich")]),
            atom("H", vec![Term::var(1), Term::constant("Paris")]),
        ]);
        let all = find_all(&db, &q, None).unwrap();
        assert_eq!(all.len(), 1); // 1 Zurich flight × 1 Paris hotel
        let a = &all[0];
        assert_eq!(a.get(Var(0)), Some(&Value::int(1)));
        assert_eq!(a.get(Var(1)), Some(&Value::int(10)));
    }
}
