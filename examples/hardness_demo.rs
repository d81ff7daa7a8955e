//! The Section 3 hardness story, made executable.
//!
//! Encodes a small 3SAT formula through all three of the paper's
//! reductions (Theorem 1, Theorem 2, Appendix B), solves the entangled
//! instances by exhaustive search and the formula by DPLL, and shows they
//! agree — plus the Figure 9 coordination graph of the Theorem 2 gadget.
//!
//! Run with: `cargo run --example hardness_demo`

use social_coordination::core::graphs::{coordination_graph, is_safe};
use social_coordination::core::{bruteforce, FoundSet, QuerySet};
use social_coordination::graph::dot::to_dot;
use social_coordination::sat::{dpll_solve, reduction1, reduction2, reduction_b, Clause, Cnf, Lit};

fn main() {
    // The paper's Figure 9 formula: C1 = x1 ∨ ¬x2 ∨ x3, C2 = x2 ∨ ¬x3 ∨ ¬x4.
    let f = Cnf::new(
        4,
        vec![
            Clause(vec![Lit::pos(0), Lit::neg(1), Lit::pos(2)]),
            Clause(vec![Lit::pos(1), Lit::neg(2), Lit::neg(3)]),
        ],
    );
    println!("Formula: {f}");
    let model = dpll_solve(&f);
    println!(
        "DPLL: {}",
        match &model {
            Some(m) => format!("satisfiable, e.g. {m:?}"),
            None => "unsatisfiable".to_string(),
        }
    );

    // ---- Theorem 1: Entangled(Q_all) over a {0,1} database. -------------
    let r1 = reduction1::reduce(&f);
    println!(
        "\nTheorem 1 instance: {} queries over a database of {} tuples",
        r1.queries.len(),
        r1.db.tuple_count()
    );
    let res1 = bruteforce::any_coordinating_set(&r1.db, &r1.queries).unwrap();
    println!(
        "  exhaustive search: coordinating set {} (checked {} subsets, {} matchings)",
        if res1.best.is_some() {
            "EXISTS"
        } else {
            "does not exist"
        },
        res1.subsets_checked,
        res1.matchings_tried
    );
    if let Some(best) = &res1.best {
        let members: Vec<usize> = best.queries.iter().map(|q| q.index()).collect();
        let assignment = reduction1::decode_assignment(&f, &members);
        println!("  decoded assignment: {assignment:?}");
        assert!(f.satisfied_by(&assignment));
    }

    // ---- Theorem 2: EntangledMax(Q_safe) and the Figure 9 gadget. -------
    let r2 = reduction2::reduce(&f);
    let qs2 = QuerySet::new(r2.queries.clone());
    println!(
        "\nTheorem 2 instance: {} queries (safe: {}), target size k+m = {}",
        r2.queries.len(),
        is_safe(&qs2),
        r2.target_size
    );
    println!(
        "Figure 9 coordination graph (DOT):\n{}",
        to_dot(
            &coordination_graph(&qs2),
            "figure9",
            |q| qs2.query(*q).name().to_string(),
            |()| None,
        )
    );
    let res2 = bruteforce::max_coordinating_set(&r2.db, &r2.queries).unwrap();
    let max_size = res2.best.as_ref().map_or(0, FoundSet::len);
    println!(
        "  maximum coordinating set: {max_size} (= target ⇔ satisfiable: {})",
        max_size == r2.target_size
    );

    // ---- Appendix B: the limit of consistent coordination. --------------
    // Use a smaller formula to keep the exhaustive search quick: the
    // Appendix B instances are deliberately unsafe, so matching choices
    // multiply.
    let g = Cnf::new(
        2,
        vec![
            Clause(vec![Lit::pos(0), Lit::pos(1)]),
            Clause(vec![Lit::neg(0)]),
        ],
    );
    println!("\nAppendix B formula: {g}");
    let rb = reduction_b::reduce(&g);
    let qsb = QuerySet::new(rb.queries.clone());
    println!(
        "Appendix B instance: {} queries (safe: {})",
        rb.queries.len(),
        is_safe(&qsb)
    );
    let resb = bruteforce::any_coordinating_set(&rb.db, &rb.queries).unwrap();
    match &resb.best {
        Some(best) => {
            let names: Vec<&str> = best.queries.iter().map(|&q| qsb.query(q).name()).collect();
            println!("  coordinating set exists: {names:?}");
        }
        None => println!("  no coordinating set (formula unsatisfiable)"),
    }
    assert_eq!(resb.best.is_some(), dpll_solve(&g).is_some());

    println!("\nAll three reductions agree with DPLL. ✔");
}
