//! The semantics of coordination: Definition 1 and its verifier.
//!
//! A non-empty subset `S` of queries is a **coordinating set** under an
//! assignment `h` iff
//!
//! 1. every variable occurring in `S` is assigned a value by `h`,
//! 2. the grounded version of every body atom appears in the instance,
//! 3. the set of grounded postcondition atoms of `S` is a subset of the
//!    set of grounded head atoms of `S`.
//!
//! [`check_coordinating_set`] verifies the definition directly against the
//! database; every algorithm's output is validated through it in tests,
//! making it the ground truth for the whole system.

use crate::instance::QuerySet;
use crate::query::QueryId;
use coord_db::{Atom, Database, Symbol, Term, Value, Var};
use std::collections::{HashMap, HashSet};
use std::fmt;

/// A total assignment of database values to global variables.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Grounding {
    map: HashMap<Var, Value>,
}

impl Grounding {
    /// An empty grounding.
    pub fn new() -> Self {
        Grounding::default()
    }

    /// The value assigned to `v`, if any.
    pub fn get(&self, v: Var) -> Option<&Value> {
        self.map.get(&v)
    }

    /// Assign `v := value`.
    pub fn set(&mut self, v: Var, value: Value) {
        self.map.insert(v, value);
    }

    /// Number of assigned variables.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether no variable is assigned.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Iterate over assignments.
    pub fn iter(&self) -> impl Iterator<Item = (Var, &Value)> {
        self.map.iter().map(|(v, val)| (*v, val))
    }

    /// Ground an atom: substitute every variable. Returns `None` if some
    /// variable is unassigned.
    fn ground_atom(&self, atom: &Atom) -> Option<GroundAtom> {
        let mut values = Vec::with_capacity(atom.arity());
        for t in &atom.terms {
            match t {
                Term::Const(c) => values.push(c.clone()),
                Term::Var(v) => values.push(self.map.get(v)?.clone()),
            }
        }
        Some(GroundAtom {
            relation: atom.relation.clone(),
            values,
        })
    }
}

impl FromIterator<(Var, Value)> for Grounding {
    fn from_iter<T: IntoIterator<Item = (Var, Value)>>(iter: T) -> Self {
        Grounding {
            map: iter.into_iter().collect(),
        }
    }
}

/// A fully grounded atom `R(v_1, ..., v_k)`.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct GroundAtom {
    pub relation: Symbol,
    pub values: Vec<Value>,
}

impl fmt::Display for GroundAtom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.relation)?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

/// Why a candidate (subset, assignment) fails Definition 1.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Violation {
    /// Coordinating sets must be non-empty.
    EmptySet,
    /// Condition (1): a variable of a member query is unassigned.
    UnassignedVar { query: QueryId, var: Var },
    /// Condition (2): a grounded body atom is not in the instance.
    BodyAtomNotInInstance { query: QueryId, atom: GroundAtom },
    /// Condition (3): a grounded postcondition has no matching grounded
    /// head within the set.
    PostconditionUnmatched { query: QueryId, atom: GroundAtom },
    /// A database error occurred while checking membership.
    Db(String),
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::EmptySet => write!(f, "coordinating sets must be non-empty"),
            Violation::UnassignedVar { query, var } => {
                write!(f, "variable {var} of query {query:?} is unassigned")
            }
            Violation::BodyAtomNotInInstance { query, atom } => {
                write!(
                    f,
                    "body atom {atom} of query {query:?} is not in the instance"
                )
            }
            Violation::PostconditionUnmatched { query, atom } => write!(
                f,
                "postcondition {atom} of query {query:?} is not produced by any head in the set"
            ),
            Violation::Db(e) => write!(f, "database error: {e}"),
        }
    }
}

/// Verify Definition 1 for `members ⊆ Q` under grounding `h`.
///
/// Returns `Ok(())` iff `members` is a coordinating set witnessed by `h`.
pub fn check_coordinating_set(
    db: &Database,
    qs: &QuerySet,
    members: &[QueryId],
    h: &Grounding,
) -> Result<(), Violation> {
    if members.is_empty() {
        return Err(Violation::EmptySet);
    }

    // Condition (1): all variables assigned.
    for &m in members {
        for v in qs.vars_of(m) {
            if h.get(v).is_none() {
                return Err(Violation::UnassignedVar { query: m, var: v });
            }
        }
    }

    // Condition (2): grounded bodies are in the instance.
    for &m in members {
        for atom in qs.body(m) {
            let ga = h.ground_atom(&atom).expect("checked in condition (1)");
            let present = db
                .contains(&ga.relation, &ga.values)
                .map_err(|e| Violation::Db(e.to_string()))?;
            if !present {
                return Err(Violation::BodyAtomNotInInstance { query: m, atom: ga });
            }
        }
    }

    // Condition (3): grounded postconditions ⊆ grounded heads.
    let mut heads: HashSet<GroundAtom> = HashSet::new();
    for &m in members {
        for atom in qs.heads(m) {
            heads.insert(h.ground_atom(&atom).expect("checked in condition (1)"));
        }
    }
    for &m in members {
        for atom in qs.postconditions(m) {
            let ga = h.ground_atom(&atom).expect("checked in condition (1)");
            if !heads.contains(&ga) {
                return Err(Violation::PostconditionUnmatched { query: m, atom: ga });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::QueryBuilder;

    fn zurich_db() -> Database {
        let mut db = Database::new();
        db.create_table("Flights", &["id", "dest"]).unwrap();
        db.insert("Flights", vec![Value::int(101), Value::str("Zurich")])
            .unwrap();
        db
    }

    fn gwyneth_chris() -> QuerySet {
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
    fn paper_example_verifies() {
        // h(x) = h(y) = 101 makes {q1, q2} a coordinating set.
        let db = zurich_db();
        let qs = gwyneth_chris();
        let h: Grounding = [(Var(0), Value::int(101)), (Var(1), Value::int(101))]
            .into_iter()
            .collect();
        check_coordinating_set(&db, &qs, &[QueryId(0), QueryId(1)], &h).unwrap();
    }

    #[test]
    fn q2_alone_is_a_coordinating_set() {
        // q2 has no postconditions: {q2} coordinates by itself.
        let db = zurich_db();
        let qs = gwyneth_chris();
        let h: Grounding = [(Var(1), Value::int(101))].into_iter().collect();
        check_coordinating_set(&db, &qs, &[QueryId(1)], &h).unwrap();
    }

    #[test]
    fn q1_alone_fails_condition_3() {
        // q1's postcondition R(Chris, 101) has no head producing it.
        let db = zurich_db();
        let qs = gwyneth_chris();
        let h: Grounding = [(Var(0), Value::int(101))].into_iter().collect();
        let err = check_coordinating_set(&db, &qs, &[QueryId(0)], &h).unwrap_err();
        assert!(matches!(err, Violation::PostconditionUnmatched { .. }));
    }

    #[test]
    fn mismatched_values_fail_condition_3() {
        // Different flights for Gwyneth and Chris do not coordinate.
        let mut db = zurich_db();
        db.insert("Flights", vec![Value::int(102), Value::str("Zurich")])
            .unwrap();
        let qs = gwyneth_chris();
        let h: Grounding = [(Var(0), Value::int(101)), (Var(1), Value::int(102))]
            .into_iter()
            .collect();
        let err = check_coordinating_set(&db, &qs, &[QueryId(0), QueryId(1)], &h).unwrap_err();
        assert!(matches!(err, Violation::PostconditionUnmatched { .. }));
    }

    #[test]
    fn nonexistent_flight_fails_condition_2() {
        let db = zurich_db();
        let qs = gwyneth_chris();
        let h: Grounding = [(Var(0), Value::int(999)), (Var(1), Value::int(999))]
            .into_iter()
            .collect();
        let err = check_coordinating_set(&db, &qs, &[QueryId(0), QueryId(1)], &h).unwrap_err();
        assert!(matches!(err, Violation::BodyAtomNotInInstance { .. }));
    }

    #[test]
    fn unassigned_var_fails_condition_1() {
        let db = zurich_db();
        let qs = gwyneth_chris();
        let h = Grounding::new();
        let err = check_coordinating_set(&db, &qs, &[QueryId(1)], &h).unwrap_err();
        assert!(matches!(err, Violation::UnassignedVar { .. }));
    }

    #[test]
    fn empty_set_rejected() {
        let db = zurich_db();
        let qs = gwyneth_chris();
        let err = check_coordinating_set(&db, &qs, &[], &Grounding::new()).unwrap_err();
        assert_eq!(err, Violation::EmptySet);
    }

    #[test]
    fn ground_atom_requires_all_vars() {
        let h = Grounding::new();
        let atom = Atom::new("R", vec![Term::var(0)]);
        assert!(h.ground_atom(&atom).is_none());
        let c = Atom::new("R", vec![Term::constant(1i64)]);
        assert_eq!(
            h.ground_atom(&c).unwrap(),
            GroundAtom {
                relation: "R".into(),
                values: vec![Value::int(1)]
            }
        );
    }
}
