//! Theorem 1: `Entangled(Q_all)` is NP-complete, even when every
//! conjunctive query over the database is polynomial-time decidable.
//!
//! The construction encodes a 3SAT formula `C = {C_1, ..., C_k}` over
//! variables `x_1, ..., x_m` as entangled queries over a database with a
//! single unary relation `D = {0, 1}`:
//!
//! ```text
//! Clause-Query:  {C_1(1), ..., C_k(1)}  C(1)    :- ∅
//! x_i-Val:       {C(1)}                 R_i(x)  :- D(x)
//! x_i-True:      {R_i(1)}   ∧_{j: x_i ∈ C_j}  C_j(1)  :- ∅
//! x_i-False:     {R_i(0)}   ∧_{j: ¬x_i ∈ C_j} C_j(1)  :- ∅
//! ```
//!
//! `C` is satisfiable iff the instance has a coordinating set
//! (Appendix A). The crucial mechanics: at most one of `x_i-True` /
//! `x_i-False` can coordinate, because both postconditions must ground
//! against the *single* head `R_i(x)` of `x_i-Val`, forcing `x = 1` and
//! `x = 0` simultaneously.

use crate::cnf::Cnf;
use coord_core::{EntangledQuery, QueryBuilder};
use coord_db::{Database, Value};

/// The reduced instance: a query set and a two-value database.
pub struct Reduction1 {
    pub queries: Vec<EntangledQuery>,
    pub db: Database,
}

/// Index of `x_i-False`, for interpreting coordinating sets back as
/// truth assignments: query 0 is the Clause-Query, then `x_i-Val`,
/// `x_i-True` and `x_i-False` at `1 + 3i`, `2 + 3i` and `3 + 3i`.
fn false_query(i: usize) -> usize {
    3 + 3 * i
}

/// Build the Theorem 1 instance for `formula`.
pub fn reduce(formula: &Cnf) -> Reduction1 {
    let mut db = Database::new();
    db.create_table("D", &["v"]).expect("fresh database");
    db.insert("D", vec![Value::int(0)]).expect("insert 0");
    db.insert("D", vec![Value::int(1)]).expect("insert 1");

    let mut queries = Vec::with_capacity(1 + 3 * formula.n_vars);

    // Clause-Query: {C_1(1), ..., C_k(1)} C(1) :- ∅.
    let mut cq = QueryBuilder::new("Clause-Query");
    for j in 0..formula.n_clauses() {
        cq = cq.postcondition(format!("C{}", j + 1), |a| a.constant(1i64));
    }
    queries.push(
        cq.head("C", |a| a.constant(1i64))
            .build()
            .expect("clause query"),
    );

    for i in 0..formula.n_vars {
        // x_i-Val: {C(1)} R_i(x) :- D(x).
        queries.push(
            QueryBuilder::new(format!("x{}-Val", i + 1))
                .postcondition("C", |a| a.constant(1i64))
                .head(format!("R{}", i + 1), |a| a.var("x"))
                .body("D", |a| a.var("x"))
                .build()
                .expect("val query"),
        );
        // x_i-True / x_i-False. If a polarity appears in no clause, the
        // query would have no heads (ill-formed), so we add an inert
        // witness head T_i(1) / F_i(1) that nothing requires — it cannot
        // affect any other query's coordination.
        for (polarity, tag) in [(true, "True"), (false, "False")] {
            let mut b = QueryBuilder::new(format!("x{}-{tag}", i + 1));
            b = b.postcondition(format!("R{}", i + 1), |a| a.constant(i64::from(polarity)));
            let mut any_head = false;
            for (j, clause) in formula.clauses.iter().enumerate() {
                if clause
                    .0
                    .iter()
                    .any(|l| l.var == i && l.positive == polarity)
                {
                    b = b.head(format!("C{}", j + 1), |a| a.constant(1i64));
                    any_head = true;
                }
            }
            if !any_head {
                let witness = if polarity {
                    format!("T{}", i + 1)
                } else {
                    format!("F{}", i + 1)
                };
                b = b.head(witness, |a| a.constant(1i64));
            }
            queries.push(b.build().expect("literal query"));
        }
    }

    Reduction1 { queries, db }
}

/// Extract the truth assignment encoded by a coordinating set: `x_i` is
/// false iff `x_i-False` is a member (so it is true when `x_i-True` is,
/// and variables with neither literal query in the set default to true,
/// as in the Appendix A proof).
pub fn decode_assignment(formula: &Cnf, members: &[usize]) -> Vec<bool> {
    (0..formula.n_vars)
        .map(|i| !members.contains(&false_query(i)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cnf::{Clause, Lit};
    use crate::dpll;
    use crate::gen::random_3sat;
    use coord_core::bruteforce;
    use rand::prelude::*;

    #[test]
    fn instance_shape() {
        let f = Cnf::new(2, vec![Clause(vec![Lit::pos(0), Lit::neg(1)])]);
        let r = reduce(&f);
        assert_eq!(r.queries.len(), 1 + 3 * 2);
        // Database is exactly {D(0), D(1)}.
        assert_eq!(r.db.tuple_count(), 2);
    }

    #[test]
    fn satisfiable_formula_has_coordinating_set() {
        // (x1 ∨ ¬x2 ∨ x1): satisfiable.
        let f = Cnf::new(2, vec![Clause(vec![Lit::pos(0), Lit::neg(1)])]);
        let r = reduce(&f);
        let res = bruteforce::any_coordinating_set(&r.db, &r.queries).unwrap();
        let best = res.best.expect("coordinating set must exist");
        // Decode and check it satisfies the formula.
        let members: Vec<usize> = best.queries.iter().map(|q| q.index()).collect();
        let assignment = decode_assignment(&f, &members);
        assert!(f.satisfied_by(&assignment));
    }

    #[test]
    fn unsatisfiable_formula_has_none() {
        // (x1) ∧ (¬x1) as width-1 clauses.
        let f = Cnf::new(
            1,
            vec![Clause(vec![Lit::pos(0)]), Clause(vec![Lit::neg(0)])],
        );
        let r = reduce(&f);
        let res = bruteforce::any_coordinating_set(&r.db, &r.queries).unwrap();
        assert!(
            res.best.is_none(),
            "UNSAT formula must yield no coordinating set"
        );
    }

    #[test]
    fn reduction_agrees_with_dpll_on_random_instances() {
        let mut rng = StdRng::seed_from_u64(99);
        for _case in 0..12 {
            let n = rng.random_range(1..4usize);
            let k = rng.random_range(1..4usize);
            let f = random_3sat(n, k, &mut rng);
            let r = reduce(&f);
            let entangled_sat = bruteforce::any_coordinating_set(&r.db, &r.queries)
                .unwrap()
                .best
                .is_some();
            let sat = dpll::solve(&f).is_some();
            assert_eq!(entangled_sat, sat, "disagreement on {f}");
        }
    }

    #[test]
    fn both_literal_queries_cannot_coexist() {
        // Force a set containing x1-True and x1-False: it must fail.
        let f = Cnf::new(
            1,
            vec![Clause(vec![Lit::pos(0)]), Clause(vec![Lit::neg(0)])],
        );
        let r = reduce(&f);
        // Full set: Clause-Query, x1-Val, x1-True, x1-False.
        let qs = coord_core::QuerySet::new(r.queries.clone());
        let all: Vec<coord_core::QueryId> = qs.ids().collect();
        let mut tried = 0;
        let res = bruteforce::coordinate_subset(&r.db, &qs, &all, &mut tried).unwrap();
        assert!(res.is_none());
    }
}
