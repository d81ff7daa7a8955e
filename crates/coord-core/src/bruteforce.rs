//! Exhaustive (exponential) search for coordinating sets.
//!
//! This is the ground-truth solver used to validate the practical
//! algorithms on small instances and to *measure* the hardness separation
//! of Section 3: it enumerates candidate subsets `S ⊆ Q` and, within each
//! subset, all ways of matching postconditions to unifiable heads —
//! exactly the nondeterminism that makes `Entangled(Q_all)` NP-complete
//! (Theorem 1) even over a two-value database.

use crate::combined::ground_members;
use crate::error::CoordError;
use crate::instance::QuerySet;
use crate::outcome::FoundSet;
use crate::query::{EntangledQuery, QueryId};
use crate::semantics::Grounding;
use crate::unify::{atoms_unifiable, Substitution};
use coord_db::{Atom, Database};

/// Hard cap on instance size: the subset enumeration materializes 2^n
/// masks, so 20 queries (1M subsets) is the sensible ceiling. Both
/// searches panic above it.
pub const MAX_QUERIES: usize = 20;

/// Result of an exhaustive search.
#[derive(Clone, Debug)]
pub struct BruteForceResult {
    /// A maximum-size coordinating set, if any exists.
    pub best: Option<FoundSet>,
    /// Number of subsets examined.
    pub subsets_checked: u64,
    /// Number of postcondition→head matchings attempted.
    pub matchings_tried: u64,
}

/// Find a **maximum-size** coordinating set by exhaustive search
/// (the `EntangledMax` problem of Definition 5 — NP-hard per Theorem 2,
/// hence the exponential strategy).
///
/// Panics if more than [`MAX_QUERIES`] queries are supplied.
pub fn max_coordinating_set(
    db: &Database,
    queries: &[EntangledQuery],
) -> Result<BruteForceResult, CoordError> {
    search(db, queries, false)
}

/// Decide whether **any** coordinating set exists (the `Entangled`
/// problem of Definition 4 — NP-complete per Theorem 1) and return one if
/// so. Stops at the first witness.
pub fn any_coordinating_set(
    db: &Database,
    queries: &[EntangledQuery],
) -> Result<BruteForceResult, CoordError> {
    search(db, queries, true)
}

fn search(
    db: &Database,
    queries: &[EntangledQuery],
    stop_at_first: bool,
) -> Result<BruteForceResult, CoordError> {
    assert!(
        queries.len() <= MAX_QUERIES,
        "brute force is limited to {MAX_QUERIES} queries (got {})",
        queries.len()
    );
    let qs = QuerySet::new(queries.to_vec());
    qs.validate(db)?;

    let n = qs.len();
    let mut result = BruteForceResult {
        best: None,
        subsets_checked: 0,
        matchings_tried: 0,
    };
    if n == 0 {
        return Ok(result);
    }

    // Enumerate non-empty subsets largest-first so that (a) EntangledMax
    // can stop as soon as a set of the current mask size is found when
    // sizes are scanned descending, and (b) Entangled tends to find
    // witnesses quickly on easy instances.
    let mut masks: Vec<u32> = (1..(1u32 << n)).collect();
    masks.sort_unstable_by_key(|m| std::cmp::Reverse(m.count_ones()));

    for mask in masks {
        let size = mask.count_ones() as usize;
        if let Some(best) = &result.best {
            if size <= best.len() {
                break; // masks are size-descending: nothing better remains
            }
        }
        let members: Vec<QueryId> = (0..n)
            .filter(|i| mask & (1 << i) != 0)
            .map(QueryId)
            .collect();
        result.subsets_checked += 1;
        if let Some(grounding) = coordinate_subset(db, &qs, &members, &mut result.matchings_tried)?
        {
            result.best = Some(FoundSet {
                queries: members,
                grounding,
            });
            if stop_at_first {
                break;
            }
        }
    }
    Ok(result)
}

/// Try to coordinate exactly the subset `members`: backtrack over all
/// assignments of each postcondition to a unifiable head within the
/// subset, grounding each consistent matching against the database.
pub fn coordinate_subset(
    db: &Database,
    qs: &QuerySet,
    members: &[QueryId],
    matchings_tried: &mut u64,
) -> Result<Option<Grounding>, CoordError> {
    // Collect (postcondition, candidate heads) pairs.
    let mut posts: Vec<(Atom, Vec<Atom>)> = Vec::new();
    let mut all_heads: Vec<Atom> = Vec::new();
    for &m in members {
        all_heads.extend(qs.heads(m));
    }
    for &m in members {
        for p in qs.postconditions(m) {
            let candidates: Vec<Atom> = all_heads
                .iter()
                .filter(|h| atoms_unifiable(&p, h))
                .cloned()
                .collect();
            if candidates.is_empty() {
                return Ok(None); // an unmatched postcondition dooms the subset
            }
            posts.push((p, candidates));
        }
    }

    // Depth-first over matching choices.
    fn descend(
        db: &Database,
        qs: &QuerySet,
        members: &[QueryId],
        posts: &[(Atom, Vec<Atom>)],
        level: usize,
        subst: &Substitution,
        matchings_tried: &mut u64,
    ) -> Result<Option<Grounding>, CoordError> {
        if level == posts.len() {
            *matchings_tried += 1;
            let mut s = subst.clone();
            return ground_members(db, qs, members, &mut s);
        }
        let (p, candidates) = &posts[level];
        for h in candidates {
            let mut s = subst.clone();
            if s.unify_atoms(p, h).is_err() {
                continue;
            }
            if let Some(g) = descend(db, qs, members, posts, level + 1, &s, matchings_tried)? {
                return Ok(Some(g));
            }
        }
        Ok(None)
    }

    let subst = Substitution::identity(qs.total_vars());
    descend(db, qs, members, &posts, 0, &subst, matchings_tried)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::QueryBuilder;
    use crate::semantics::check_coordinating_set;
    use coord_db::Value;

    fn db() -> Database {
        let mut db = Database::new();
        db.create_table("Flights", &["id", "dest"]).unwrap();
        db.insert("Flights", vec![Value::int(101), Value::str("Zurich")])
            .unwrap();
        db.insert("Flights", vec![Value::int(102), Value::str("Paris")])
            .unwrap();
        db
    }

    #[test]
    fn finds_pair_and_verifies() {
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
        let db = db();
        let queries = vec![q1, q2];
        let r = max_coordinating_set(&db, &queries).unwrap();
        let best = r.best.unwrap();
        assert_eq!(best.len(), 2);
        let qs = QuerySet::new(queries);
        check_coordinating_set(&db, &qs, &best.queries, &best.grounding).unwrap();
    }

    #[test]
    fn unsafe_sets_are_handled() {
        // Two producers of R(Chris, ·) with different destinations and a
        // consumer: brute force must find a matching through the
        // compatible producer. Unsafe, so SCC algorithm refuses — this is
        // exactly the case that needs exhaustive matching enumeration.
        let p1 = QueryBuilder::new("p1")
            .head("R", |a| a.constant("Chris").var("x"))
            .body("Flights", |a| a.var("x").constant("Zurich"))
            .build()
            .unwrap();
        let p2 = QueryBuilder::new("p2")
            .head("R", |a| a.constant("Chris").var("y"))
            .body("Flights", |a| a.var("y").constant("Paris"))
            .build()
            .unwrap();
        let c = QueryBuilder::new("c")
            .postcondition("R", |a| a.constant("Chris").var("z"))
            .head("R", |a| a.constant("Me").var("z"))
            .body("Flights", |a| a.var("z").constant("Paris"))
            .build()
            .unwrap();
        let db = db();
        let queries = vec![p1, p2, c];
        let r = max_coordinating_set(&db, &queries).unwrap();
        let best = r.best.unwrap();
        // All three can coordinate: c matches p2 (Paris flight 102), while
        // p1 rides along with Zurich flight 101.
        assert_eq!(best.len(), 3);
        let qs = QuerySet::new(queries);
        check_coordinating_set(&db, &qs, &best.queries, &best.grounding).unwrap();
    }

    #[test]
    fn no_set_when_bodies_unsatisfiable() {
        let q = QueryBuilder::new("q")
            .head("R", |a| a.constant("u").var("x"))
            .body("Flights", |a| a.var("x").constant("Nowhere"))
            .build()
            .unwrap();
        let db = db();
        let r = any_coordinating_set(&db, &[q]).unwrap();
        assert!(r.best.is_none());
        assert_eq!(r.subsets_checked, 1);
    }

    #[test]
    fn any_stops_at_first_witness() {
        let mk = |name: &str| {
            QueryBuilder::new(name)
                .head("R", |a| a.constant(name.to_string()).var("x"))
                .body("Flights", |a| a.var("x").constant("Zurich"))
                .build()
                .unwrap()
        };
        let db = db();
        let queries = vec![mk("a"), mk("b"), mk("c")];
        let r = any_coordinating_set(&db, &queries).unwrap();
        assert!(r.best.is_some());
        assert_eq!(r.subsets_checked, 1); // the full set works immediately
    }

    #[test]
    fn max_is_maximum_not_just_maximal() {
        // q_big needs an unsatisfiable partner; {a, b} is the max set.
        let a = QueryBuilder::new("a")
            .head("R", |x| x.constant("a").var("u"))
            .body("Flights", |x| x.var("u").constant("Zurich"))
            .build()
            .unwrap();
        let b = QueryBuilder::new("b")
            .postcondition("R", |x| x.constant("a").var("u"))
            .head("R", |x| x.constant("b").var("u"))
            .body("Flights", |x| x.var("u").constant("Zurich"))
            .build()
            .unwrap();
        let big = QueryBuilder::new("big")
            .postcondition("R", |x| x.constant("missing").var("v"))
            .head("R", |x| x.constant("big").var("v"))
            .body("Flights", |x| x.var("v").constant("Zurich"))
            .build()
            .unwrap();
        let db = db();
        let queries = vec![a, b, big];
        let r = max_coordinating_set(&db, &queries).unwrap();
        assert_eq!(r.best.unwrap().len(), 2);
    }

    #[test]
    #[should_panic(expected = "brute force is limited")]
    fn too_many_queries_panics() {
        let db = db();
        let queries: Vec<_> = (0..21)
            .map(|i| {
                QueryBuilder::new(format!("q{i}"))
                    .head("R", |a| a.constant(i64::from(i)).var("x"))
                    .body("Flights", |a| a.var("x").constant("Zurich"))
                    .build()
                    .unwrap()
            })
            .collect();
        let _ = max_coordinating_set(&db, &queries);
    }
}
