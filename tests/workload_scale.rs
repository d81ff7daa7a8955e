//! Medium-scale workload tests: the experiment generators driven end to
//! end, with every reported coordinating set re-verified against
//! Definition 1 and the paper's resource bounds asserted.

use rand::prelude::*;
use social_coordination::core::check_coordinating_set;
use social_coordination::core::consistent::ConsistentCoordinator;
use social_coordination::core::scc::{preprocess, SccCoordinator};
use social_coordination::core::EntangledQuery;
use social_coordination::db::Database;
use social_coordination::gen::workloads::{
    fig4_instance, fig4_queries, fig5_instance, fig5_queries, fig7_instance, fig8_instance,
    forest_queries, partner_query, pool_db,
};
use social_coordination::graph::reach::weakly_connected_components;

#[test]
fn fig4_workload_all_candidates_verify() {
    let (db, queries) = fig4_instance(60, 2_000);
    db.stats().reset();
    let out = SccCoordinator::new(&db).run(&queries).unwrap();
    // One candidate per suffix; every one is a real coordinating set.
    assert_eq!(out.found.len(), 60);
    for f in &out.found {
        check_coordinating_set(&db, &out.qs, &f.queries, &f.grounding).unwrap();
    }
    // Bound from Section 4: at most |Q| database queries.
    assert!(db.stats().find_one_count() <= 60);
    assert_eq!(out.stats.components, 60);
    assert_eq!(out.stats.graph_edges, 59);
}

#[test]
fn fig5_workload_verifies_across_seeds() {
    for seed in 0..5u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let (db, queries) = fig5_instance(80, 3, 1_000, &mut rng);
        let out = SccCoordinator::new(&db).run(&queries).unwrap();
        let best = out.best().expect("all bodies satisfiable");
        check_coordinating_set(&db, &out.qs, &best.queries, &best.grounding).unwrap();
        assert!(out.stats.db_queries <= queries.len());
    }
}

#[test]
fn fig6_preprocessing_scales_and_is_sound() {
    let mut rng = StdRng::seed_from_u64(3);
    let (db, queries) = fig5_instance(500, 2, 1_000, &mut rng);
    let pre = preprocess(&db, &queries).unwrap();
    assert!(pre.removed.is_empty(), "all postconditions are matchable");
    // Every query sits in exactly one component.
    let total: usize = (0..pre.cond.len()).map(|c| pre.cond.members(c).len()).sum();
    assert_eq!(total, 500);
}

#[test]
fn fig7_worst_case_keeps_everyone() {
    let (db, config, queries) = fig7_instance(30, 200);
    db.stats().reset();
    let coordinator = ConsistentCoordinator::new(&db, config).unwrap();
    let out = coordinator.run(&queries).unwrap();
    assert_eq!(out.stats.values_considered, 200);
    assert!(out.per_value.iter().all(|(_, size)| *size == 30));
    // DB queries linear in n (options + friends + groundings), never per
    // value.
    assert!(db.stats().total() as usize <= 2 * 30 + 30 + 1);
}

#[test]
fn fig8_groundings_map_every_member_to_a_real_flight() {
    let (db, config, queries) = fig8_instance(25, 100);
    let coordinator = ConsistentCoordinator::new(&db, config.clone()).unwrap();
    let out = coordinator.run(&queries).unwrap();
    let best = out.best.unwrap();
    assert_eq!(best.members.len(), 25);
    // Each assigned flight must actually have the agreed (dest, day).
    let fl = db.table_named("Fl").unwrap();
    for (_user, key) in &best.assignment {
        let rows = fl.distinct_project(&[1, 2], &[(0, key.clone())]);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0], best.value);
    }
}

#[test]
fn parallel_sweep_agrees_at_scale() {
    let (db, config, queries) = fig7_instance(20, 300);
    let coordinator = ConsistentCoordinator::new(&db, config).unwrap();
    let seq = coordinator.run(&queries).unwrap();
    for threads in [2, 3, 8] {
        let par = coordinator.run_parallel(&queries, threads).unwrap();
        assert_eq!(seq.per_value, par.per_value);
    }

    // The SCC sweep at the benchmark's `batch-scc` shapes — a 300-query
    // list (deep closures) and a BA(2000, 2) set (wide, shallow ones),
    // one weak group each, swept sequentially — and on the forests the
    // group-parallel sweep splits across workers.
    let db = pool_db(2_400);
    let scale_free = fig5_queries(2_000, 2, &mut StdRng::seed_from_u64(1));
    for (name, queries, many_groups) in [
        ("list", fig4_queries(300), false),
        ("scale-free", scale_free, false),
        ("forest", forest_queries(8, 40), true),
        ("ragged-forest", ragged_forest_queries(), true),
    ] {
        assert_eq!(weak_group_count(&db, &queries) > 1, many_groups, "{name}");
        let coordinator = SccCoordinator::new(&db);
        let seq = coordinator.run(&queries).unwrap();
        assert_eq!(
            seq.stats.db_queries,
            queries.len() - seq.stats.removed,
            "{name}"
        );
        for threads in [2, 3] {
            let par = coordinator.run_parallel(&queries, threads).unwrap();
            assert_eq!(seq.found, par.found, "{name}/{threads}: candidate sets");
            assert_eq!(seq.stats, par.stats, "{name}/{threads}: stats");
        }
    }
}

/// A unique cycle: query i coordinates with query (i+1) mod n — one SCC.
fn cycle_queries(n: usize) -> Vec<EntangledQuery> {
    (0..n).map(|i| partner_query(i, &[(i + 1) % n])).collect()
}

/// The 8 × 40 forest with the middle of chain 3 missing: the chain's
/// upper half loses its partner and is removed by preprocessing (failed
/// components among the groups), its lower half is a shorter chain.
fn ragged_forest_queries() -> Vec<EntangledQuery> {
    let mut queries = forest_queries(8, 40);
    queries.remove(3 * 40 + 20);
    queries
}

/// Weakly connected groups of the condensation — what decides whether
/// `run_parallel` splits the sweep across workers (≥ 2) or runs the
/// sequential loop (1).
fn weak_group_count(db: &Database, queries: &[EntangledQuery]) -> usize {
    weakly_connected_components(&preprocess(db, queries).unwrap().graph).len()
}

/// Regression gate for the ROADMAP superlinearity item: on the list
/// workload the candidate-enumeration unify-call counter must grow
/// ≤ c·n·k from n = 20 to n = 100 — near-linear thanks to the shared
/// (relation, first-arg constant) index — where the all-pairs sweep
/// would grow ~n² (25× over this 5× size step).
#[test]
fn list_workload_unify_calls_grow_linearly_not_quadratically() {
    let db = pool_db(1_000);
    let calls_at = |n: usize| {
        let pre = preprocess(&db, &fig4_queries(n)).unwrap();
        assert!(pre.removed.is_empty());
        pre.unify_calls
    };
    let small = calls_at(20);
    let large = calls_at(100);
    // Linear growth would be exactly 5×; leave headroom for constant
    // bucket width k, but stay far below the quadratic 25×.
    assert!(
        large <= 8 * small,
        "unify calls grew {small} → {large} (> 8×) on a 5× size step: superlinear regression"
    );
    // Absolute near-linearity: the all-pairs baseline is posts × heads
    // = (n−1)·n per sweep; the indexed pipeline must sit ≥ 10× below it.
    let all_pairs = (100u64 - 1) * 100;
    assert!(
        large * 10 <= all_pairs,
        "unify calls {large} not ≥ 10× below the all-pairs baseline {all_pairs}"
    );
}

/// Differential-evaluation gate for the ROADMAP "quadratic closure
/// wall clock" item: on the list workload, closure `i` (counting from
/// the free tail) contains i + 1 queries, so from-scratch evaluation
/// pays Σ|closure| ≈ n²/2 grounding work, while delta joins against the
/// successor's memo pay O(Δ) = O(1) per component — ~2n − 1 total.
/// Assert the differential counter grows ≤ c·n·Δ over a 5× size step
/// (quadratic growth would be 25×), and that it sits ≥ 10× below the
/// from-scratch baseline on the same instance.
#[test]
fn list_workload_grounding_work_grows_with_n_delta_not_n_squared() {
    let db = pool_db(1_000);
    let work_at = |n: usize| {
        let out = SccCoordinator::new(&db).run(&fig4_queries(n)).unwrap();
        assert_eq!(out.found.len(), n, "every suffix must still coordinate");
        out.stats.ground_work
    };
    let small = work_at(20);
    let large = work_at(100);
    assert!(small > 0, "the SCC path must account its closure work");
    // n·Δ growth is exactly 5× here (Δ = 1 per component); allow
    // constant-factor headroom but stay far below the quadratic 25×.
    assert!(
        large <= 8 * small,
        "grounding work grew {small} → {large} (> 8×) on a 5× size step: \
         differential evaluation regressed toward from-scratch"
    );
    // The from-scratch baseline on the same instance: Σ|closure| work.
    let scratch = SccCoordinator::new(&db)
        .with_from_scratch_evaluation()
        .run(&fig4_queries(100))
        .unwrap()
        .stats
        .ground_work;
    assert!(
        large * 10 <= scratch,
        "differential grounding work {large} not ≥ 10× below the \
         from-scratch baseline {scratch}"
    );
}

/// `SccCoordinator::run_parallel` must return results *identical* to the
/// sequential sweep — same candidate sets in the same order, same
/// groundings, same stats — on the cycle, list and random scale-free
/// safe workloads (one weak group: the sequential loop) and on the
/// forests (several: the group-parallel sweep), at every thread count.
#[test]
fn scc_parallel_equals_sequential_on_all_workloads() {
    let db = pool_db(1_000);
    let mut workloads: Vec<(&str, Vec<EntangledQuery>, bool)> = vec![
        ("cycle", cycle_queries(40), false),
        ("list", fig4_queries(40), false),
        ("forest", forest_queries(8, 40), true),
        ("ragged-forest", ragged_forest_queries(), true),
    ];
    for seed in 0..3u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        workloads.push(("scale-free", fig5_queries(48, 2, &mut rng), false));
    }
    for (name, queries, many_groups) in &workloads {
        assert_eq!(weak_group_count(&db, queries) > 1, *many_groups, "{name}");
        let coordinator = SccCoordinator::new(&db);
        let seq = coordinator.run(queries).unwrap();
        for threads in [1, 2, 4, 8] {
            let par = coordinator.run_parallel(queries, threads).unwrap();
            assert_eq!(
                seq.found, par.found,
                "{name}/{threads}: candidate sets diverged"
            );
            assert_eq!(seq.stats, par.stats, "{name}/{threads}: stats diverged");
            assert_eq!(
                seq.best_names(),
                par.best_names(),
                "{name}/{threads}: selection diverged"
            );
        }
    }
}

/// The parallel sweep composes with preprocessing reuse and the
/// bruteforce cutoff exactly like the sequential path.
#[test]
fn scc_parallel_respects_preprocessed_and_cutoff_paths() {
    let db = pool_db(200);
    let queries = fig4_queries(30);

    let seq = SccCoordinator::new(&db)
        .run_preprocessed(preprocess(&db, &queries).unwrap())
        .unwrap();
    let par = SccCoordinator::new(&db)
        .run_preprocessed_parallel(preprocess(&db, &queries).unwrap(), 4)
        .unwrap();
    assert_eq!(seq.found, par.found);
    assert_eq!(seq.stats, par.stats);

    // Below the cutoff both delegate to the same exhaustive search.
    let small = fig4_queries(5);
    let fast_seq = SccCoordinator::new(&db)
        .with_bruteforce_cutoff(6)
        .run(&small)
        .unwrap();
    let fast_par = SccCoordinator::new(&db)
        .with_bruteforce_cutoff(6)
        .run_parallel(&small, 4)
        .unwrap();
    assert_eq!(fast_seq.best_names(), fast_par.best_names());
    assert_eq!(fast_seq.stats, fast_par.stats);
}
