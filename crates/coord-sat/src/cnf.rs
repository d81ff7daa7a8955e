//! CNF formulas.

use std::fmt;

/// A literal: variable index (0-based) with polarity.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Lit {
    pub var: usize,
    pub positive: bool,
}

impl Lit {
    /// A positive literal `x_var`.
    pub fn pos(var: usize) -> Self {
        Lit {
            var,
            positive: true,
        }
    }

    /// A negative literal `¬x_var`.
    pub fn neg(var: usize) -> Self {
        Lit {
            var,
            positive: false,
        }
    }

    /// Whether the literal is satisfied under `assignment`.
    pub fn satisfied_by(self, assignment: &[bool]) -> bool {
        assignment[self.var] == self.positive
    }
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.positive {
            write!(f, "x{}", self.var + 1)
        } else {
            write!(f, "¬x{}", self.var + 1)
        }
    }
}

/// A disjunction of literals.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Clause(pub Vec<Lit>);

impl Clause {
    /// Whether the clause is satisfied under `assignment`.
    pub fn satisfied_by(&self, assignment: &[bool]) -> bool {
        self.0.iter().any(|l| l.satisfied_by(assignment))
    }
}

impl fmt::Display for Clause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, l) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, " ∨ ")?;
            }
            write!(f, "{l}")?;
        }
        write!(f, ")")
    }
}

/// A CNF formula over variables `x_0 .. x_{n_vars-1}`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Cnf {
    pub n_vars: usize,
    pub clauses: Vec<Clause>,
}

impl Cnf {
    /// Build a formula, checking variable indices are in range.
    pub fn new(n_vars: usize, clauses: Vec<Clause>) -> Self {
        for c in &clauses {
            for l in &c.0 {
                assert!(l.var < n_vars, "literal variable out of range");
            }
        }
        Cnf { n_vars, clauses }
    }

    /// Number of clauses.
    pub fn n_clauses(&self) -> usize {
        self.clauses.len()
    }

    /// Whether `assignment` (length `n_vars`) satisfies every clause.
    pub fn satisfied_by(&self, assignment: &[bool]) -> bool {
        assert_eq!(assignment.len(), self.n_vars);
        self.clauses.iter().all(|c| c.satisfied_by(assignment))
    }

    /// Brute-force satisfiability over all 2^n assignments (test oracle;
    /// panics above 20 variables).
    pub fn satisfiable_exhaustive(&self) -> Option<Vec<bool>> {
        assert!(self.n_vars <= 20, "exhaustive check limited to 20 vars");
        for mask in 0u32..(1u32 << self.n_vars) {
            let a: Vec<bool> = (0..self.n_vars).map(|i| mask & (1 << i) != 0).collect();
            if self.satisfied_by(&a) {
                return Some(a);
            }
        }
        None
    }
}

impl fmt::Display for Cnf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, c) in self.clauses.iter().enumerate() {
            if i > 0 {
                write!(f, " ∧ ")?;
            }
            write!(f, "{c}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn example() -> Cnf {
        // (x1 ∨ ¬x2 ∨ x3) ∧ (x2 ∨ ¬x3 ∨ ¬x4)
        Cnf::new(
            4,
            vec![
                Clause(vec![Lit::pos(0), Lit::neg(1), Lit::pos(2)]),
                Clause(vec![Lit::pos(1), Lit::neg(2), Lit::neg(3)]),
            ],
        )
    }

    #[test]
    fn literal_semantics() {
        let a = vec![true, false];
        assert!(Lit::pos(0).satisfied_by(&a));
        assert!(!Lit::pos(1).satisfied_by(&a));
        assert!(Lit::neg(1).satisfied_by(&a));
    }

    #[test]
    fn clause_and_formula_evaluation() {
        let f = example();
        assert!(f.satisfied_by(&[true, true, true, false]));
        assert!(!f.satisfied_by(&[false, true, false, true]));
    }

    #[test]
    fn exhaustive_finds_model() {
        let f = example();
        let model = f.satisfiable_exhaustive().unwrap();
        assert!(f.satisfied_by(&model));
    }

    #[test]
    fn unsat_detected() {
        // (x1) ∧ (¬x1)
        let f = Cnf::new(
            1,
            vec![Clause(vec![Lit::pos(0)]), Clause(vec![Lit::neg(0)])],
        );
        assert!(f.satisfiable_exhaustive().is_none());
    }

    #[test]
    fn display_notation() {
        let f = example();
        assert_eq!(f.to_string(), "(x1 ∨ ¬x2 ∨ x3) ∧ (x2 ∨ ¬x3 ∨ ¬x4)");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_literal_rejected() {
        Cnf::new(1, vec![Clause(vec![Lit::pos(3)])]);
    }
}
