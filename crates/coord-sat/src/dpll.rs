//! A DPLL SAT solver with unit propagation and pure-literal elimination.
//!
//! This is the "efficient algorithm" side of the hardness experiments: on
//! the small random 3SAT instances used to exercise the reductions, DPLL
//! solves in microseconds what the brute-force entangled-query search
//! takes exponential time to decide — making the Section 3 separation
//! *measurable* (see `reproduce --only hardness`).

use crate::cnf::{Cnf, Lit};

/// Solve `formula`, returning a satisfying assignment if one exists.
pub fn solve(formula: &Cnf) -> Option<Vec<bool>> {
    let mut assignment: Vec<Option<bool>> = vec![None; formula.n_vars];
    if dpll(formula, &mut assignment) {
        // Unconstrained variables default to false.
        Some(assignment.into_iter().map(|a| a.unwrap_or(false)).collect())
    } else {
        None
    }
}

/// Status of a clause under a partial assignment.
enum ClauseState {
    Satisfied,
    /// All literals false.
    Conflict,
    /// Exactly one literal unassigned, rest false.
    Unit(Lit),
    /// Multiple literals unassigned.
    Open,
}

fn clause_state(lits: &[Lit], assignment: &[Option<bool>]) -> ClauseState {
    let mut unassigned: Option<Lit> = None;
    let mut n_unassigned = 0;
    for &l in lits {
        match assignment[l.var] {
            Some(v) if v == l.positive => return ClauseState::Satisfied,
            Some(_) => {}
            None => {
                unassigned = Some(l);
                n_unassigned += 1;
            }
        }
    }
    match n_unassigned {
        0 => ClauseState::Conflict,
        1 => ClauseState::Unit(unassigned.expect("counted one unassigned literal")),
        _ => ClauseState::Open,
    }
}

fn dpll(formula: &Cnf, assignment: &mut Vec<Option<bool>>) -> bool {
    // Unit propagation to fixpoint.
    let mut trail: Vec<usize> = Vec::new();
    loop {
        let mut propagated = false;
        for clause in &formula.clauses {
            match clause_state(&clause.0, assignment) {
                ClauseState::Conflict => {
                    for v in trail {
                        assignment[v] = None;
                    }
                    return false;
                }
                ClauseState::Unit(l) => {
                    assignment[l.var] = Some(l.positive);
                    trail.push(l.var);
                    propagated = true;
                }
                _ => {}
            }
        }
        if !propagated {
            break;
        }
    }

    // Pure-literal elimination: a variable appearing with only one
    // polarity in not-yet-satisfied clauses can be set to that polarity.
    let mut seen_pos = vec![false; formula.n_vars];
    let mut seen_neg = vec![false; formula.n_vars];
    let mut any_open = false;
    for clause in &formula.clauses {
        if matches!(clause_state(&clause.0, assignment), ClauseState::Satisfied) {
            continue;
        }
        any_open = true;
        for &l in &clause.0 {
            if assignment[l.var].is_none() {
                if l.positive {
                    seen_pos[l.var] = true;
                } else {
                    seen_neg[l.var] = true;
                }
            }
        }
    }
    if !any_open {
        return true; // every clause satisfied
    }
    for v in 0..formula.n_vars {
        if assignment[v].is_none() && (seen_pos[v] ^ seen_neg[v]) {
            assignment[v] = Some(seen_pos[v]);
            trail.push(v);
        }
    }

    // Branch on the first unassigned variable of an open clause.
    let branch_var = formula
        .clauses
        .iter()
        .filter(|c| !matches!(clause_state(&c.0, assignment), ClauseState::Satisfied))
        .flat_map(|c| c.0.iter())
        .find(|l| assignment[l.var].is_none())
        .map(|l| l.var);

    let result = match branch_var {
        None => {
            // No open clause has unassigned literals; re-check for conflicts.
            formula
                .clauses
                .iter()
                .all(|c| !matches!(clause_state(&c.0, assignment), ClauseState::Conflict))
        }
        Some(v) => {
            let mut ok = false;
            for value in [true, false] {
                assignment[v] = Some(value);
                if dpll(formula, assignment) {
                    ok = true;
                    break;
                }
                assignment[v] = None;
            }
            ok
        }
    };

    if !result {
        for v in trail {
            assignment[v] = None;
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cnf::Clause;
    use crate::gen::random_3sat;
    use rand::prelude::*;

    #[test]
    fn solves_satisfiable_formula() {
        // (x1 ∨ x2) ∧ (¬x1 ∨ x2) ∧ (¬x2 ∨ x3)
        let f = Cnf::new(
            3,
            vec![
                Clause(vec![Lit::pos(0), Lit::pos(1)]),
                Clause(vec![Lit::neg(0), Lit::pos(1)]),
                Clause(vec![Lit::neg(1), Lit::pos(2)]),
            ],
        );
        let model = solve(&f).unwrap();
        assert!(f.satisfied_by(&model));
    }

    #[test]
    fn detects_unsat() {
        // (x1) ∧ (¬x1)
        let f = Cnf::new(
            1,
            vec![Clause(vec![Lit::pos(0)]), Clause(vec![Lit::neg(0)])],
        );
        assert!(solve(&f).is_none());

        // All 8 polarity combinations over 3 vars in 2-var clauses: UNSAT.
        let mut clauses = Vec::new();
        for a in [true, false] {
            for b in [true, false] {
                clauses.push(Clause(vec![
                    Lit {
                        var: 0,
                        positive: a,
                    },
                    Lit {
                        var: 1,
                        positive: b,
                    },
                ]));
            }
        }
        let f2 = Cnf::new(2, clauses);
        assert!(solve(&f2).is_none());
    }

    #[test]
    fn empty_formula_is_sat() {
        let f = Cnf::new(3, vec![]);
        let model = solve(&f).unwrap();
        assert_eq!(model.len(), 3);
    }

    #[test]
    fn agrees_with_exhaustive_on_random_instances() {
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..200 {
            let n = rng.random_range(1..8);
            let k = rng.random_range(0..12);
            let f = random_3sat(n, k, &mut rng);
            let dpll_sat = solve(&f);
            let exhaustive = f.satisfiable_exhaustive();
            assert_eq!(
                dpll_sat.is_some(),
                exhaustive.is_some(),
                "disagreement on {f}"
            );
            if let Some(m) = dpll_sat {
                assert!(f.satisfied_by(&m), "DPLL returned a non-model for {f}");
            }
        }
    }
}
