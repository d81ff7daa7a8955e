//! Engine correctness under online arrival: the incremental
//! `coord-engine`-backed path cross-checked against the full-rebuild
//! baseline and a fresh batch `SccCoordinator` run, plus a
//! multi-threaded stress test of the sharded engine.
//!
//! Workloads are disjoint chains and cycles in the `partner_query` shape
//! (`R(user, tuple)` answer atoms), where the atom index's key-level
//! candidates coincide exactly with the unifiable pairs and no two
//! candidate coordinating sets tie in size — so the incremental and
//! rebuild engines must agree *exactly*, step by step.

use coord_core::engine::{CoordinationEngine, SharedEngine};
use coord_core::scc::SccCoordinator;
use coord_core::testkit::RebuildEngine;
use coord_core::{EntangledQuery, QueryBuilder};
use coord_db::{Database, Value};
use proptest::prelude::*;
use rand::prelude::*;

/// The `coord-gen` partner-query shape, inlined (coord-core cannot
/// depend on coord-gen without cycling the workspace DAG):
/// `q_i = {R(u_p, y_p) : p ∈ partners}  R(u_i, x)  :-  S(x, t_{i%5})`.
fn partner_query(i: usize, partners: &[usize]) -> EntangledQuery {
    let mut b = QueryBuilder::new(format!("q{i}"));
    for &p in partners {
        let y = format!("y{p}");
        b = b.postcondition("R", |a| a.constant(format!("u{p}")).var(&y));
    }
    b.head("R", |a| a.constant(format!("u{i}")).var("x"))
        .body("S", |a| a.var("x").constant(format!("t{}", i % 5)))
        .build()
        .unwrap()
}

/// A tuple-pool table matching the workload bodies.
fn pool_db(rows: usize) -> Database {
    let mut db = Database::new();
    db.create_table("S", &["id", "tag"]).unwrap();
    for r in 0..rows {
        db.insert(
            "S",
            vec![Value::int(r as i64), Value::str(format!("t{}", r % 5))],
        )
        .unwrap();
    }
    db
}

/// One group: `size` queries with user ids `offset..offset+size`, in a
/// chain (last member free) or a cycle.
fn group(offset: usize, size: usize, cycle: bool) -> Vec<EntangledQuery> {
    (0..size)
        .map(|i| {
            let partners: Vec<usize> = if i + 1 < size {
                vec![offset + i + 1]
            } else if cycle && size > 1 {
                vec![offset]
            } else {
                vec![]
            };
            partner_query(offset + i, &partners)
        })
        .collect()
}

/// Interleave the groups' members into one arrival order, driven by the
/// seed.
fn interleave(groups: Vec<Vec<EntangledQuery>>, seed: u64) -> Vec<EntangledQuery> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut queues: Vec<std::collections::VecDeque<EntangledQuery>> =
        groups.into_iter().map(Into::into).collect();
    let mut order = Vec::new();
    while queues.iter().any(|q| !q.is_empty()) {
        let pick = rng.random_range(0..queues.len());
        if let Some(q) = queues[pick].pop_front() {
            order.push(q);
        }
    }
    order
}

fn sorted_names(queries: impl IntoIterator<Item = String>) -> Vec<String> {
    let mut names: Vec<String> = queries.into_iter().collect();
    names.sort_unstable();
    names
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Step-by-step equivalence: every submit delivers the same answer
    /// set and leaves the same pending set as the full-rebuild baseline;
    /// at the end, a fresh batch `SccCoordinator` over the remaining
    /// pending set finds nothing left to coordinate (everything
    /// coordinatable was delivered online).
    #[test]
    fn incremental_engine_matches_rebuild_and_fresh_batch(
        shapes in prop::collection::vec((prop::arbitrary::any::<bool>(), 1usize..=5), 1..=4),
        seed in prop::arbitrary::any::<u64>(),
    ) {
        let db = pool_db(64);
        let groups: Vec<Vec<EntangledQuery>> = shapes
            .iter()
            .enumerate()
            .map(|(g, &(cycle, size))| group(100 * g, size, cycle))
            .collect();
        let arrivals = interleave(groups, seed);

        let mut incremental = CoordinationEngine::new(&db);
        let mut rebuild = RebuildEngine::new(&db);
        for query in arrivals {
            let a = incremental.submit(query.clone()).unwrap();
            let b = rebuild.submit(query).unwrap();
            prop_assert_eq!(
                sorted_names(a.answers.iter().map(|x| x.query.clone())),
                sorted_names(b.answers.iter().map(|x| x.query.clone())),
                "delivered sets diverged"
            );
            // Same answers, not just same members.
            let mut a_sorted = a.answers.clone();
            let mut b_sorted = b.answers.clone();
            a_sorted.sort_by(|x, y| x.query.cmp(&y.query));
            b_sorted.sort_by(|x, y| x.query.cmp(&y.query));
            prop_assert_eq!(a_sorted, b_sorted, "answer bindings diverged");
            prop_assert_eq!(
                sorted_names(incremental.pending().iter().map(|q| q.name().to_string())),
                sorted_names(rebuild.pending().iter().map(|q| q.name().to_string())),
                "pending sets diverged"
            );
            incremental.validate_invariants();
        }
        prop_assert_eq!(incremental.delivered(), rebuild.delivered());

        // Fresh batch cross-check over the same pending set: the online
        // loop must have drained every coordinatable set.
        let pending: Vec<EntangledQuery> =
            incremental.pending().into_iter().cloned().collect();
        let batch = SccCoordinator::new(&db).run(&pending).unwrap();
        prop_assert!(
            batch.best().is_none(),
            "engine left a coordinatable set pending: {:?}",
            batch.best_names()
        );
    }

    /// The sharded engine agrees with the single-threaded incremental
    /// engine when driven sequentially.
    #[test]
    fn sharded_engine_matches_sequential(
        shapes in prop::collection::vec((prop::arbitrary::any::<bool>(), 1usize..=5), 1..=4),
        seed in prop::arbitrary::any::<u64>(),
    ) {
        let db = pool_db(64);
        let groups: Vec<Vec<EntangledQuery>> = shapes
            .iter()
            .enumerate()
            .map(|(g, &(cycle, size))| group(100 * g, size, cycle))
            .collect();
        let arrivals = interleave(groups, seed);

        let mut reference = CoordinationEngine::new(&db);
        let sharded = SharedEngine::with_shards(&db, 3);
        for query in arrivals {
            let a = reference.submit(query.clone()).unwrap();
            let b = sharded.submit(query).unwrap();
            prop_assert_eq!(
                sorted_names(a.answers.iter().map(|x| x.query.clone())),
                sorted_names(b.answers.iter().map(|x| x.query.clone()))
            );
        }
        prop_assert_eq!(reference.delivered(), sharded.delivered());
        prop_assert_eq!(reference.pending().len(), sharded.pending_count());
    }
}

/// Hammer disjoint components through the sharded engine from many
/// threads: every chain must coordinate exactly once, with no lost or
/// duplicated deliveries.
#[test]
fn sharded_engine_stress_disjoint_components() {
    const THREADS: usize = 8;
    const CHAINS_PER_THREAD: usize = 6;
    const CHAIN: usize = 5;

    let db = pool_db(256);
    let engine = SharedEngine::with_shards(&db, THREADS);
    let total = THREADS * CHAINS_PER_THREAD * CHAIN;

    std::thread::scope(|s| {
        for t in 0..THREADS {
            let engine = &engine;
            s.spawn(move || {
                for c in 0..CHAINS_PER_THREAD {
                    // Head → … → free tail: the tail's arrival delivers
                    // the whole chain.
                    let offset = 10_000 * t + 100 * c;
                    let chain = group(offset, CHAIN, false);
                    for (i, q) in chain.into_iter().enumerate() {
                        let r = engine.submit(q).unwrap();
                        assert_eq!(
                            r.coordinated(),
                            i == CHAIN - 1,
                            "thread {t} chain {c} member {i}"
                        );
                        if i == CHAIN - 1 {
                            assert_eq!(r.answers.len(), CHAIN);
                        }
                    }
                }
            });
        }
    });

    assert_eq!(engine.delivered(), total);
    assert_eq!(engine.pending_count(), 0);
    let snap = engine.metrics();
    assert_eq!(snap.submits, total as u64);
    assert_eq!(snap.delivered, total as u64);
    // Disjoint components must have spread over several shards.
    let active_shards = engine
        .shard_stats()
        .iter()
        .filter(|s| s.submits > 0)
        .count();
    assert!(
        active_shards >= 2,
        "all load on one shard: {:?}",
        engine.shard_stats()
    );
}

/// Components bridged *across* shards still coordinate correctly: two
/// halves of each cycle are submitted from different threads, forcing
/// migrations whenever the halves were routed to different shards.
#[test]
fn sharded_engine_stress_cross_shard_bridges() {
    const CYCLES: usize = 12;
    const HALF: usize = 3;

    let db = pool_db(256);
    let engine = SharedEngine::with_shards(&db, 4);

    // Cycle over users [offset .. offset+2*HALF): thread A submits the
    // first half, thread B the second; the closing member can arrive
    // from either side.
    let make_member = |offset: usize, i: usize| {
        let size = 2 * HALF;
        let partner = offset + (i + 1) % size;
        partner_query(offset + i, &[partner])
    };

    std::thread::scope(|s| {
        for half in 0..2 {
            let engine = &engine;
            s.spawn(move || {
                for c in 0..CYCLES {
                    let offset = 1_000 * c;
                    for i in (half * HALF)..((half + 1) * HALF) {
                        engine.submit(make_member(offset, i)).unwrap();
                    }
                }
            });
        }
    });

    // Every cycle coordinates only when complete; all must have been
    // delivered by whichever thread closed them.
    assert_eq!(engine.delivered(), CYCLES * 2 * HALF);
    assert_eq!(engine.pending_count(), 0);
}
