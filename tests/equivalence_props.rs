//! Property-based cross-validation of the practical algorithms against
//! exhaustive search on randomly generated small instances.

use proptest::prelude::*;
use social_coordination::core::bruteforce;
use social_coordination::core::consistent::{
    ConsistentConfig, ConsistentCoordinator, ConsistentQuery,
};
use social_coordination::core::engine::{
    CoordinationEngine, Placement, QueryAnswer, RebalanceConfig, SharedEngine,
};
use social_coordination::core::graphs::{is_safe, is_unique};
use social_coordination::core::gupta::gupta_coordinate;
use social_coordination::core::persist::{DurabilityOptions, DurableSharedEngine};
use social_coordination::core::scc::SccCoordinator;
use social_coordination::core::{check_coordinating_set, EntangledQuery, QueryBuilder};
use social_coordination::db::{Database, Value};
use social_coordination::gen::workloads::{interleave_arrivals, partner_query, pool_db};
use social_coordination::store::temp::TempDir;

// ---------------------------------------------------------------------
// Random *safe* instances for the SCC algorithm.
// ---------------------------------------------------------------------

/// Specification of one random safe query: a body tag index (some of
/// which are unsatisfiable) and the set of coordination partners.
#[derive(Clone, Debug)]
struct SafeSpec {
    body_tag: usize,
    partners: Vec<usize>,
}

/// Database with tags t0..t3 present; t4, t5 generate unsatisfiable
/// bodies.
fn safe_db() -> Database {
    let mut db = Database::new();
    db.create_table("S", &["id", "tag"]).unwrap();
    for i in 0..8i64 {
        db.insert("S", vec![Value::int(i), Value::str(format!("t{}", i % 4))])
            .unwrap();
    }
    db
}

/// Build a safe query set: user `i` has the unique head `R(u_i, x)`, so
/// any postcondition `R(u_j, ·)` unifies with exactly one head.
fn build_safe_queries(specs: &[SafeSpec]) -> Vec<EntangledQuery> {
    specs
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let mut b = QueryBuilder::new(format!("q{i}"));
            for &p in &spec.partners {
                if p != i && p < specs.len() {
                    let y = format!("y{p}");
                    b = b.postcondition("R", |a| a.constant(format!("u{p}")).var(&y));
                }
            }
            b.head("R", |a| a.constant(format!("u{i}")).var("x"))
                .body("S", |a| a.var("x").constant(format!("t{}", spec.body_tag)))
                .build()
                .unwrap()
        })
        .collect()
}

fn safe_spec_strategy(n: usize) -> impl Strategy<Value = Vec<SafeSpec>> {
    prop::collection::vec(
        (0usize..6, prop::collection::vec(0usize..n, 0..3))
            .prop_map(|(body_tag, partners)| SafeSpec { body_tag, partners }),
        n,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// On safe instances: (a) the SCC algorithm's answer always verifies
    /// against Definition 1; (b) it finds a coordinating set iff one
    /// exists (checked exhaustively); (c) its best size never exceeds the
    /// true maximum.
    #[test]
    fn scc_agrees_with_bruteforce(specs in (2usize..6).prop_flat_map(safe_spec_strategy)) {
        let db = safe_db();
        let queries = build_safe_queries(&specs);
        prop_assume!(is_safe(&social_coordination::core::QuerySet::new(queries.clone())));

        let scc = SccCoordinator::new(&db).run(&queries).unwrap();
        let bf = bruteforce::max_coordinating_set(&db, &queries).unwrap();

        prop_assert_eq!(scc.best().is_some(), bf.best.is_some());
        if let Some(best) = scc.best() {
            check_coordinating_set(&db, &scc.qs, &best.queries, &best.grounding)
                .map_err(|v| TestCaseError::fail(format!("invalid set: {v}")))?;
            let max = bf.best.as_ref().unwrap().len();
            prop_assert!(best.len() <= max);
        }
        // Every *candidate* the algorithm reports must also verify.
        for f in &scc.found {
            check_coordinating_set(&db, &scc.qs, &f.queries, &f.grounding)
                .map_err(|v| TestCaseError::fail(format!("invalid candidate: {v}")))?;
        }
        // DB-query bound from the running-time analysis.
        prop_assert!(scc.stats.db_queries <= queries.len());
    }

    /// The group-parallel condensation sweep is *indistinguishable*
    /// from the sequential one on random safe instances: identical
    /// candidate sets (same order, same groundings) and identical stats,
    /// at several thread counts.
    #[test]
    fn scc_parallel_equals_sequential(specs in (2usize..7).prop_flat_map(safe_spec_strategy)) {
        let db = safe_db();
        let queries = build_safe_queries(&specs);
        prop_assume!(is_safe(&social_coordination::core::QuerySet::new(queries.clone())));

        let coordinator = SccCoordinator::new(&db);
        let seq = coordinator.run(&queries).unwrap();
        for threads in [2usize, 4] {
            let par = coordinator.run_parallel(&queries, threads).unwrap();
            prop_assert_eq!(&seq.found, &par.found, "threads = {}", threads);
            prop_assert_eq!(seq.stats, par.stats, "threads = {}", threads);
            prop_assert_eq!(seq.best_names(), par.best_names(), "threads = {}", threads);
        }
    }

    /// On safe+unique instances the Gupta baseline and the SCC algorithm
    /// agree exactly.
    #[test]
    fn gupta_matches_scc_on_unique_instances(specs in (2usize..5).prop_flat_map(safe_spec_strategy)) {
        let db = safe_db();
        let queries = build_safe_queries(&specs);
        let qs = social_coordination::core::QuerySet::new(queries.clone());
        prop_assume!(is_safe(&qs) && is_unique(&qs));

        let gupta = gupta_coordinate(&db, &queries).unwrap();
        let scc = SccCoordinator::new(&db).run(&queries).unwrap();
        match (gupta, scc.best()) {
            (Some(g), Some(s)) => {
                prop_assert_eq!(&g.queries, &s.queries);
            }
            (None, None) => {}
            (g, s) => {
                return Err(TestCaseError::fail(format!(
                    "gupta={:?} scc={:?}",
                    g.map(|f| f.queries),
                    s.map(|f| f.queries.clone())
                )));
            }
        }
    }
}

// ---------------------------------------------------------------------
// Random consistent instances vs the entangled encoding.
// ---------------------------------------------------------------------

#[derive(Clone, Debug)]
struct ConsistentSpec {
    /// Subset of the 12 possible (place, item) rows present in the table.
    rows_mask: u16,
    /// Directed friendship pairs (u, v), u ≠ v, over `n_users`.
    friendships: Vec<(usize, usize)>,
    /// Per user: partner kind (0 = none, 1 = any friend, 2.. = named user
    /// offset), coordination constant, personal constant.
    users: Vec<(usize, Option<usize>, Option<usize>)>,
}

fn consistent_strategy() -> impl Strategy<Value = ConsistentSpec> {
    (2usize..5).prop_flat_map(|n| {
        (
            any::<u16>(),
            prop::collection::vec((0usize..n, 0usize..n), 0..5),
            prop::collection::vec(
                (
                    0usize..(2 + n),
                    prop::option::of(0usize..4),
                    prop::option::of(0usize..3),
                ),
                n,
            ),
        )
            .prop_map(|(rows_mask, friendships, users)| ConsistentSpec {
                rows_mask,
                friendships: friendships.into_iter().filter(|(u, v)| u != v).collect(),
                users,
            })
    })
}

fn build_consistent_instance(
    spec: &ConsistentSpec,
) -> (Database, ConsistentConfig, Vec<ConsistentQuery>) {
    let mut db = Database::new();
    db.create_table("S", &["key", "place", "item"]).unwrap();
    let mut key = 0i64;
    for place in 0..4 {
        for item in 0..3 {
            if spec.rows_mask & (1 << (place * 3 + item)) != 0 {
                db.insert(
                    "S",
                    vec![
                        Value::int(key),
                        Value::str(format!("p{place}")),
                        Value::str(format!("i{item}")),
                    ],
                )
                .unwrap();
                key += 1;
            }
        }
    }
    db.create_table("F", &["user", "friend"]).unwrap();
    for &(u, v) in &spec.friendships {
        db.insert(
            "F",
            vec![Value::str(format!("u{u}")), Value::str(format!("u{v}"))],
        )
        .unwrap();
    }

    let config = ConsistentConfig::new("S", "key", &["place"], &["item"], "F");
    let n = spec.users.len();
    let queries = spec
        .users
        .iter()
        .enumerate()
        .map(|(i, &(partner_kind, coord, personal))| {
            let mut q = ConsistentQuery::for_user(format!("u{i}"), 1, 1);
            match partner_kind {
                0 => {}
                1 => q = q.with_any_friend(),
                k => {
                    // Named partner: another user, never self.
                    let target = (i + (k - 1)) % n;
                    if target != i {
                        q = q.with_named_partner(format!("u{target}"));
                    }
                }
            }
            if let Some(c) = coord {
                q = q.coord_const(0, format!("p{c}"));
            }
            if let Some(p) = personal {
                q = q.personal_const(0, format!("i{p}"));
            }
            q
        })
        .collect();
    (db, config, queries)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Proposition 1 in action: the Consistent Coordination Algorithm
    /// finds a coordinating set iff exhaustive search over the general
    /// entangled encoding does. (Sizes may differ: brute force may merge
    /// groups that coordinate at *different* option values, which the
    /// same-value guarantee deliberately excludes.)
    #[test]
    fn consistent_existence_matches_bruteforce(spec in consistent_strategy()) {
        let (db, config, queries) = build_consistent_instance(&spec);
        let coordinator = ConsistentCoordinator::new(&db, config.clone()).unwrap();
        let out = coordinator.run(&queries).unwrap();

        let entangled: Vec<_> = queries
            .iter()
            .map(|q| q.to_entangled(&config, &db).unwrap())
            .collect();
        let bf = bruteforce::any_coordinating_set(&db, &entangled).unwrap();

        prop_assert_eq!(
            out.best.is_some(),
            bf.best.is_some(),
            "consistent={:?} vs bruteforce={:?} on {:?}",
            out.best.as_ref().map(|b| &b.members),
            bf.best.as_ref().map(|b| &b.queries),
            spec
        );
    }

    /// The parallel sweep gives exactly the sequential answer.
    #[test]
    fn consistent_parallel_equals_sequential(spec in consistent_strategy()) {
        let (db, config, queries) = build_consistent_instance(&spec);
        let coordinator = ConsistentCoordinator::new(&db, config).unwrap();
        let seq = coordinator.run(&queries).unwrap();
        let par = coordinator.run_parallel(&queries, 3).unwrap();
        prop_assert_eq!(seq.per_value, par.per_value);
        prop_assert_eq!(
            seq.best.map(|b| (b.value, b.members)),
            par.best.map(|b| (b.value, b.members))
        );
    }

    /// Definitions 7–9 as code: `to_entangled` always produces a query the
    /// classifier recognizes, and classification recovers the original
    /// structured form exactly.
    #[test]
    fn classify_inverts_to_entangled(spec in consistent_strategy()) {
        let (db, config, queries) = build_consistent_instance(&spec);
        for q in &queries {
            let ent = q.to_entangled(&config, &db).unwrap();
            let back = social_coordination::core::classify::classify(&ent, &config, &db)
                .map_err(|e| TestCaseError::fail(format!("classify rejected {q:?}: {e}")))?;
            prop_assert_eq!(&back, q);
        }
    }
}

// ---------------------------------------------------------------------
// The sharded engine with the rebalancer vs the sequential engine, on
// random skewed submit/retire interleavings.
// ---------------------------------------------------------------------

/// Pool rows: must cover every user id the workloads below mint.
const POOL: usize = 4096;

/// One closed chain of `size` partner queries starting at `offset`:
/// member `i` requires member `i + 1`, the last member is free — so the
/// whole group retires once complete, whenever its free tail happens to
/// arrive in the interleaving.
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

/// One hot group plus a tail of small ones — the skew shape the
/// rebalancer exists for.
fn skewed_groups(hot_size: usize, tail_sizes: &[usize]) -> Vec<Vec<EntangledQuery>> {
    let mut groups = vec![chain_group(0, hot_size)];
    for (g, &size) in tail_sizes.iter().enumerate() {
        groups.push(chain_group(100 * (g + 1), size));
    }
    groups
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
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Rebalancing is invisible to coordination semantics: a sharded
    /// engine whose components are periodically moved by the rebalancer
    /// delivers, submit by submit, exactly the sequential engine's
    /// answers on random skewed interleavings — and ends with the same
    /// pending set.
    #[test]
    fn sharded_with_rebalancer_equals_sequential_engine(
        hot_size in 6usize..=12,
        tail_sizes in prop::collection::vec(1usize..=4, 2..=5),
        seed in prop::arbitrary::any::<u64>(),
        rebalance_every in 3usize..=9,
    ) {
        let db = pool_db(POOL);
        let arrivals = interleave_arrivals(skewed_groups(hot_size, &tail_sizes), seed);
        // Aggressive tuning so small property-sized windows still
        // trigger real moves; round-robin placement so the hot group
        // actually co-locates with tail groups.
        let sharded = SharedEngine::with_config(
            &db,
            3,
            Placement::RoundRobin,
            RebalanceConfig { skew_threshold: 0.34, min_window_load: 8, max_moves: 8 },
        );
        let mut sequential = CoordinationEngine::new(&db);
        for (i, q) in arrivals.iter().enumerate() {
            let a = sharded.submit(q.clone()).unwrap();
            let b = sequential.submit(q.clone()).unwrap();
            prop_assert_eq!(
                sorted_answers(a.answers),
                sorted_answers(b.answers),
                "answers diverged at submit {} (seed {})", i, seed
            );
            if (i + 1) % rebalance_every == 0 {
                sharded.rebalance();
            }
        }
        let pending = sharded.pending();
        prop_assert_eq!(
            sorted_query_names(pending.iter()),
            sorted_query_names(sequential.pending().iter().copied())
        );
        prop_assert_eq!(sharded.delivered(), sequential.delivered());
    }

    /// The durable variant: crash right after a rebalance (the worst
    /// point — moves are in-memory only, so the log knows nothing of
    /// them), recover, and the replayed engine continues exactly like
    /// an engine that never crashed or rebalanced.
    #[test]
    fn durable_rebalance_crash_recovery_equals_live(
        hot_size in 6usize..=10,
        tail_sizes in prop::collection::vec(1usize..=3, 2..=4),
        seed in prop::arbitrary::any::<u64>(),
        crash_at in 0usize..=100,
        rebalance_every in 2usize..=6,
    ) {
        let db = pool_db(POOL);
        let arrivals = interleave_arrivals(skewed_groups(hot_size, &tail_sizes), seed);
        let crash_at = crash_at % (arrivals.len() + 1);
        let dir = TempDir::new("rebalance-crash");
        let opts = DurabilityOptions::default();

        // Aggressive tuning (as in the non-durable twin property): the
        // default window/threshold would rarely trigger on
        // property-sized workloads, leaving the crash-after-rebalance
        // scenario vacuous.
        let tuning = RebalanceConfig { skew_threshold: 0.34, min_window_load: 8, max_moves: 8 };

        let mut live = CoordinationEngine::new(&db);
        {
            let durable =
                DurableSharedEngine::open_with(&db, dir.path(), 3, opts).unwrap();
            durable.set_rebalance_config(tuning);
            for (i, q) in arrivals[..crash_at].iter().enumerate() {
                durable.submit(q.clone()).unwrap();
                live.submit(q.clone()).unwrap();
                if (i + 1) % rebalance_every == 0 {
                    durable.rebalance();
                }
            }
            // The last thing before the crash is a rebalance pass.
            durable.rebalance();
        } // crash

        let recovered = DurableSharedEngine::open_with(&db, dir.path(), 3, opts).unwrap();
        recovered.set_rebalance_config(tuning);
        prop_assert_eq!(
            sorted_query_names(recovered.pending().iter()),
            sorted_query_names(live.pending().iter().copied()),
            "recovered pending set diverged at crash point {}", crash_at
        );
        // The rest of the workload — rebalancing as it goes — delivers
        // identical answers.
        for (i, q) in arrivals[crash_at..].iter().enumerate() {
            let a = recovered.submit(q.clone()).unwrap();
            let b = live.submit(q.clone()).unwrap();
            prop_assert_eq!(
                sorted_answers(a.answers),
                sorted_answers(b.answers),
                "post-recovery answers diverged at submit {}", i
            );
            if (i + 1) % rebalance_every == 0 {
                recovered.rebalance();
            }
        }
        prop_assert_eq!(
            sorted_query_names(recovered.pending().iter()),
            sorted_query_names(live.pending().iter().copied())
        );
    }
}
