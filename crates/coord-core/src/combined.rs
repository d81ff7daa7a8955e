//! Combined queries: unifying a set of entangled queries into one
//! conjunctive query and grounding it against the database.
//!
//! Both the Gupta et al. baseline and the SCC Coordination Algorithm work
//! by (a) unifying every postcondition atom in a candidate set with its
//! (unique, by safety) matching head atom, then (b) sending the union of
//! the member bodies — rewritten under the resulting Most General Unifier —
//! to the database as a single conjunctive query.

use crate::differential::GroundWork;
use crate::error::CoordError;
use crate::graphs::HeadIndex;
use crate::instance::QuerySet;
use crate::query::QueryId;
use crate::semantics::Grounding;
use crate::unify::{atoms_unifiable, Substitution, UnifyError};
use coord_db::{ConjunctiveQuery, Database, Term};

/// Unify every postcondition of every member with its matching head among
/// the members, starting from `subst` (usually the identity).
///
/// `index` must cover (at least) the heads of `members`; candidates
/// outside `members` are ignored. Requires that each postcondition has
/// **exactly one** unifiable head within `members` — guaranteed for
/// closed sets `R(q)` of a safe query set. Fails if a postcondition has
/// no match (the set cannot coordinate) or if the accumulated MGU becomes
/// inconsistent.
pub fn unify_members(
    qs: &QuerySet,
    members: &[QueryId],
    subst: Substitution,
    index: &HeadIndex,
) -> Result<Substitution, UnifyError> {
    unify_members_counted(qs, members, subst, index, &mut GroundWork::default())
}

/// [`unify_members`], tallying one [`GroundWork::unified`] operation per
/// postcondition–head MGU merge — the per-closure unification cost the
/// differential evaluation layer keeps proportional to the delta.
pub fn unify_members_counted(
    qs: &QuerySet,
    members: &[QueryId],
    mut subst: Substitution,
    index: &HeadIndex,
    work: &mut GroundWork,
) -> Result<Substitution, UnifyError> {
    debug_assert!(
        members.windows(2).all(|w| w[0] < w[1]),
        "members must be sorted"
    );
    let in_members = |q: QueryId| members.binary_search(&q).is_ok();
    for &m in members {
        for (p_local, p) in qs
            .query(m)
            .postconditions()
            .iter()
            .zip(qs.postconditions(m))
        {
            // Find the unique matching head among members (index lookup on
            // the query-local atom, confirmation + unification on the
            // globalized atoms).
            let mut matched = None;
            for (dst, hi) in index.candidates(p_local) {
                if in_members(dst) && atoms_unifiable(p_local, &qs.query(dst).heads()[hi]) {
                    matched = Some(qs.globalize(dst, &qs.query(dst).heads()[hi]));
                    break;
                }
            }
            match matched {
                Some(h) => {
                    subst.unify_atoms(&p, &h)?;
                    work.unified += 1;
                }
                None => {
                    // No producer for this postcondition: unsatisfiable.
                    return Err(UnifyError::RelationMismatch {
                        left: p.relation.to_string(),
                        right: "<no matching head>".to_string(),
                    });
                }
            }
        }
    }
    Ok(subst)
}

/// Build the combined conjunctive query: all body atoms of `members`
/// rewritten under `subst`.
pub fn combined_body(
    qs: &QuerySet,
    members: &[QueryId],
    subst: &mut Substitution,
) -> ConjunctiveQuery {
    combined_body_counted(qs, members, subst, &mut GroundWork::default())
}

/// [`combined_body`], tallying one [`GroundWork::rewritten`] operation per
/// body atom rewritten under the MGU. Differential evaluation reuses
/// cached fragments instead of paying this per closure.
fn combined_body_counted(
    qs: &QuerySet,
    members: &[QueryId],
    subst: &mut Substitution,
    work: &mut GroundWork,
) -> ConjunctiveQuery {
    let mut atoms = Vec::new();
    for &m in members {
        for atom in qs.body(m) {
            atoms.push(subst.apply(&atom));
            work.rewritten += 1;
        }
    }
    ConjunctiveQuery::new(atoms)
}

/// Ground a unified member set against the database with **one**
/// conjunctive query.
///
/// Returns a total [`Grounding`] over all variables of the members, or
/// `None` if the combined query has no satisfying assignment. Variables
/// that are not constrained by any body atom (legal under Definition 1,
/// which only requires them to take *some* domain value) default to an
/// arbitrary value from the database's active domain.
pub fn ground_members(
    db: &Database,
    qs: &QuerySet,
    members: &[QueryId],
    subst: &mut Substitution,
) -> Result<Option<Grounding>, CoordError> {
    let cq = combined_body(qs, members, subst);
    ground_assembled(db, qs, members, subst, &cq)
}

/// Ground a pre-assembled combined query: [`ground_members`] with the
/// body-rewriting step factored out, so differential evaluation can feed
/// in a query assembled from cached fragments.
pub fn ground_assembled(
    db: &Database,
    qs: &QuerySet,
    members: &[QueryId],
    subst: &mut Substitution,
    cq: &ConjunctiveQuery,
) -> Result<Option<Grounding>, CoordError> {
    let Some(assignment) = db.find_one(cq)? else {
        return Ok(None);
    };

    let mut grounding = Grounding::new();
    let mut default_value = None;
    for &m in members {
        for v in qs.vars_of(m) {
            // Resolve through the substitution first, then the DB valuation.
            let value = match subst.resolve(&Term::Var(v)) {
                Term::Const(c) => Some(c),
                Term::Var(rep) => assignment.get(rep).cloned(),
            };
            let value = match value {
                Some(c) => c,
                None => {
                    // Unconstrained variable: any domain value will do.
                    if default_value.is_none() {
                        default_value = db.any_domain_value();
                    }
                    match &default_value {
                        Some(c) => c.clone(),
                        None => return Ok(None), // empty domain: condition (1) unsatisfiable
                    }
                }
            };
            grounding.set(v, value);
        }
    }
    Ok(Some(grounding))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::QueryBuilder;
    use crate::semantics::check_coordinating_set;
    use coord_db::{Value, Var};

    fn db() -> Database {
        let mut db = Database::new();
        db.create_table("Flights", &["id", "dest"]).unwrap();
        db.insert("Flights", vec![Value::int(101), Value::str("Zurich")])
            .unwrap();
        db.insert("Flights", vec![Value::int(102), Value::str("Paris")])
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

    /// `members` unified from the identity substitution; panics if
    /// unification fails.
    fn unified(qs: &QuerySet, members: &[QueryId]) -> Substitution {
        let index = HeadIndex::build(qs);
        unify_members(qs, members, Substitution::identity(qs.total_vars()), &index).unwrap()
    }

    #[test]
    fn unify_links_postcondition_to_head() {
        let qs = gwyneth_chris();
        let members = [QueryId(0), QueryId(1)];
        let index = HeadIndex::build(&qs);
        let mut s = unify_members(
            &qs,
            &members,
            Substitution::identity(qs.total_vars()),
            &index,
        )
        .unwrap();
        // x (global 0) and y (global 1) must be in the same class.
        assert_eq!(s.find(Var(0)), s.find(Var(1)));
    }

    #[test]
    fn ground_produces_verified_coordinating_set() {
        let db = db();
        let qs = gwyneth_chris();
        let members = [QueryId(0), QueryId(1)];
        let mut s = unified(&qs, &members);
        let g = ground_members(&db, &qs, &members, &mut s).unwrap().unwrap();
        check_coordinating_set(&db, &qs, &members, &g).unwrap();
        // Both fly on flight 101 (the only Zurich flight).
        assert_eq!(g.get(Var(0)), Some(&Value::int(101)));
        assert_eq!(g.get(Var(1)), Some(&Value::int(101)));
    }

    #[test]
    fn grounding_fails_when_no_flight() {
        let mut db = Database::new();
        db.create_table("Flights", &["id", "dest"]).unwrap();
        db.insert("Flights", vec![Value::int(1), Value::str("Oslo")])
            .unwrap();
        let qs = gwyneth_chris();
        let members = [QueryId(0), QueryId(1)];
        let mut s = unified(&qs, &members);
        assert!(ground_members(&db, &qs, &members, &mut s)
            .unwrap()
            .is_none());
    }

    #[test]
    fn unmatched_postcondition_fails_unification() {
        let qs = gwyneth_chris();
        // q1 alone: its postcondition R(Chris, x) has no head.
        let members = [QueryId(0)];
        let index = HeadIndex::build(&qs);
        assert!(unify_members(
            &qs,
            &members,
            Substitution::identity(qs.total_vars()),
            &index
        )
        .is_err());
    }

    #[test]
    fn conflicting_destinations_fail() {
        // Gwyneth wants Zurich, Chris wants Paris; unification succeeds
        // (different flight-id variables merge) but grounding fails since
        // no single flight goes to both.
        let q1 = QueryBuilder::new("q1")
            .postcondition("R", |a| a.constant("Chris").var("x"))
            .head("R", |a| a.constant("Gwyneth").var("x"))
            .body("Flights", |a| a.var("x").constant("Zurich"))
            .build()
            .unwrap();
        let q2 = QueryBuilder::new("q2")
            .head("R", |a| a.constant("Chris").var("y"))
            .body("Flights", |a| a.var("y").constant("Paris"))
            .build()
            .unwrap();
        let qs = QuerySet::new(vec![q1, q2]);
        let db = db();
        let members = [QueryId(0), QueryId(1)];
        let mut s = unified(&qs, &members);
        assert!(ground_members(&db, &qs, &members, &mut s)
            .unwrap()
            .is_none());
    }

    #[test]
    fn unconstrained_head_var_gets_domain_value() {
        // A head variable not mentioned in the body is assigned an
        // arbitrary domain value (Definition 1 condition (1)).
        let q = QueryBuilder::new("free")
            .head("R", |a| a.constant("Me").var("anything"))
            .body("Flights", |a| a.var("x").constant("Zurich"))
            .build()
            .unwrap();
        let qs = QuerySet::new(vec![q]);
        let db = db();
        let mut s = unified(&qs, &[QueryId(0)]);
        let g = ground_members(&db, &qs, &[QueryId(0)], &mut s)
            .unwrap()
            .unwrap();
        assert_eq!(g.len(), 2);
        check_coordinating_set(&db, &qs, &[QueryId(0)], &g).unwrap();
    }

    #[test]
    fn one_db_query_issued_per_grounding() {
        let db = db();
        let qs = gwyneth_chris();
        let members = [QueryId(0), QueryId(1)];
        let mut s = unified(&qs, &members);
        let before = db.stats().find_one_count();
        ground_members(&db, &qs, &members, &mut s).unwrap().unwrap();
        assert_eq!(db.stats().find_one_count() - before, 1);
    }
}
