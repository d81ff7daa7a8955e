//! Per-figure experiment instances (Section 6).

use crate::networks::barabasi_albert;
use crate::social::{complete_friendship_table, tag_for, tuple_pool, user_name};
use crate::tables::{activity_pool, activity_topic_count, flights_coordination};
use coord_core::consistent::{ConsistentConfig, ConsistentQuery};
use coord_core::{EntangledQuery, QueryBuilder};
use coord_db::{BackendKind, Database};
use coord_graph::{DiGraph, NodeId};
use rand::prelude::*;

/// Name of the tuple-pool table used by the SCC-algorithm workloads.
pub const POOL_TABLE: &str = "S";

/// Build the query of user `i` whose coordination partners are `partners`
/// (all in the list/scale-free workload family):
///
/// ```text
/// q_i = {R(u_p, y_p) : p ∈ partners}  R(u_i, x)  :-  S(x, t_i)
/// ```
///
/// The body selects exactly one pool tuple, so every body is satisfiable
/// — the paper's "most demanding scenario for finding a coordinating
/// set". Safety holds because each user has exactly one head `R(u_i, ·)`.
pub fn partner_query(i: usize, partners: &[usize]) -> EntangledQuery {
    let mut b = QueryBuilder::new(format!("q{i}"));
    for &p in partners {
        let y = format!("y{p}");
        b = b.postcondition("R", |a| a.constant(user_name(p)).var(&y));
    }
    b.head("R", |a| a.constant(user_name(i)).var("x"))
        .body(POOL_TABLE, |a| a.var("x").constant(tag_for(i)))
        .build()
        .expect("workload query is well-formed")
}

/// A [`partner_query`] variant whose postconditions *contend* on the
/// head variable:
///
/// ```text
/// c_i = {R(u_p, x) : p ∈ partners}  R(u_i, x)  :-  S(x, t_i)
/// ```
///
/// A cycle of these unifies every member's `x` into one class, so the
/// combined body demands one pool tuple carrying every member's tag —
/// unsatisfiable for cycles of length ≥ 2 (pool tags are per-user
/// distinct). The grounding *fails* rather than the unification, so
/// every evaluation of such a cycle costs one (fruitless) database
/// query.
pub fn contending_partner_query(i: usize, partners: &[usize]) -> EntangledQuery {
    let mut b = QueryBuilder::new(format!("c{i}"));
    for &p in partners {
        b = b.postcondition("R", |a| a.constant(user_name(p)).var("x"));
    }
    b.head("R", |a| a.constant(user_name(i)).var("x"))
        .body(POOL_TABLE, |a| a.var("x").constant(tag_for(i)))
        .build()
        .expect("workload query is well-formed")
}

/// An unsatisfiable-core workload: a [`contending_partner_query`] cycle
/// of `k` members (one SCC whose grounding always fails) plus
/// `spokes` independent [`partner_query`] chains of length 2 hanging off
/// users `k, k+1, …` — each spoke requires a cycle member, so the online
/// engine re-probes the failed cycle once per spoke.
/// Returns `(cycle, spokes)` in arrival order.
pub fn unsat_cycle_with_spokes(
    k: usize,
    spokes: usize,
) -> (Vec<EntangledQuery>, Vec<EntangledQuery>) {
    let cycle: Vec<EntangledQuery> = (0..k)
        .map(|i| contending_partner_query(i, &[(i + 1) % k]))
        .collect();
    let spoke_queries: Vec<EntangledQuery> =
        (0..spokes).map(|s| partner_query(k + s, &[0])).collect();
    (cycle, spoke_queries)
}

/// A database holding just the tuple-pool table with `rows` rows —
/// build once and share across workload sizes (the table is the same for
/// every point of Figures 4–6).
pub fn pool_db(rows: usize) -> Database {
    let mut db = Database::new();
    tuple_pool(&mut db, POOL_TABLE, rows).expect("pool table");
    db
}

/// Name of the Slashdot-scale activity table used by the storage
/// workloads.
pub const ACTIVITY_TABLE: &str = "A";

/// A database holding only the [`activity_pool`] table `A(id, topic,
/// day)` with `rows` rows, every table created with the given storage
/// backend.
pub fn activity_db(rows: usize, kind: BackendKind) -> Database {
    let mut db = Database::with_backend(kind);
    activity_pool(&mut db, ACTIVITY_TABLE, rows).expect("activity table");
    db
}

/// A [`partner_query`] variant over the activity table: user `i`'s body
/// pins both the topic *and* the day of activity row `r = rows − 1 − i`,
///
/// ```text
/// q_i = {R(u_p, y_p) : p ∈ partners}  R(u_i, x)  :-  A(x, g_{r%k}, r/k)
/// ```
///
/// where `k = ⌈√rows⌉` matches the pool built by [`activity_db`]. The
/// two body constants select exactly one row, but any *single*-column
/// index bucket for either constant holds ≈√rows rows — and because `r`
/// is the *largest* row id in its topic bucket (for `i < k`), a
/// single-column scan walks the whole bucket before matching instead of
/// stopping at its first candidate. Per-submit probe work therefore
/// grows with √N on the plain row store and stays flat once a composite
/// (topic, day) index is active.
pub fn activity_partner_query(i: usize, partners: &[usize], rows: usize) -> EntangledQuery {
    assert!(i < rows, "user id {i} needs an activity row to target");
    let r = rows - 1 - i;
    let k = activity_topic_count(rows);
    let mut b = QueryBuilder::new(format!("q{i}"));
    for &p in partners {
        let y = format!("y{p}");
        b = b.postcondition("R", |a| a.constant(user_name(p)).var(&y));
    }
    b.head("R", |a| a.constant(user_name(i)).var("x"))
        .body(ACTIVITY_TABLE, |a| {
            a.var("x")
                .constant(format!("g{}", r % k))
                .constant((r / k) as i64)
        })
        .build()
        .expect("workload query is well-formed")
}

/// The Figure 4 list structure over the activity table: each query
/// coordinates with the next, the last requires nobody. Pair with
/// [`activity_db`]`(rows, kind)` for the storage-backend experiments.
pub fn activity_chain_queries(n: usize, rows: usize) -> Vec<EntangledQuery> {
    (0..n)
        .map(|i| {
            let partners: Vec<usize> = if i + 1 < n { vec![i + 1] } else { vec![] };
            activity_partner_query(i, &partners, rows)
        })
        .collect()
}

/// The Figure 4 list-structure queries: each query coordinates with the
/// next, the last requires nobody.
pub fn fig4_queries(n: usize) -> Vec<EntangledQuery> {
    (0..n)
        .map(|i| {
            let partners: Vec<usize> = if i + 1 < n { vec![i + 1] } else { vec![] };
            partner_query(i, &partners)
        })
        .collect()
}

/// A forest of `chains` independent list-structured chains of length
/// `len`: within each chain query i requires query i+1, and the chains
/// share nothing. The condensation is `chains` disjoint paths — that
/// many weakly connected groups, the shape
/// `SccCoordinator::run_parallel` splits across workers. (A single list
/// is one group and runs sequentially.)
pub fn forest_queries(chains: usize, len: usize) -> Vec<EntangledQuery> {
    (0..chains)
        .flat_map(|ch| {
            let base = ch * len;
            (0..len).map(move |i| {
                let partners: Vec<usize> = if i + 1 < len {
                    vec![base + i + 1]
                } else {
                    vec![]
                };
                partner_query(base + i, &partners)
            })
        })
        .collect()
}

/// Figure 4 instance: `n` queries in a list structure over a pool table
/// of `table_rows` tuples (82,168 in the paper).
pub fn fig4_instance(n: usize, table_rows: usize) -> (Database, Vec<EntangledQuery>) {
    (pool_db(table_rows.max(n)), fig4_queries(n))
}

/// The Figure 5/6 scale-free queries: coordination partners are the
/// successors in a Barabási–Albert digraph.
pub fn fig5_queries(n: usize, m_attach: usize, rng: &mut impl Rng) -> Vec<EntangledQuery> {
    queries_from_graph(&barabasi_albert(n, m_attach, rng))
}

/// Figure 5/6 instance: `n` queries whose coordination structure is a
/// Barabási–Albert scale-free digraph (each query's partners are its
/// graph successors).
pub fn fig5_instance(
    n: usize,
    m_attach: usize,
    table_rows: usize,
    rng: &mut impl Rng,
) -> (Database, Vec<EntangledQuery>) {
    (pool_db(table_rows.max(n)), fig5_queries(n, m_attach, rng))
}

/// Build partner queries from an arbitrary coordination digraph.
pub fn queries_from_graph(graph: &DiGraph<usize>) -> Vec<EntangledQuery> {
    (0..graph.node_count())
        .map(|i| {
            let mut partners: Vec<usize> = graph
                .successors(NodeId(i))
                .map(coord_graph::NodeId::index)
                .collect();
            partners.sort_unstable();
            partners.dedup();
            partner_query(i, &partners)
        })
        .collect()
}

/// A Zipf keystone-chain workload for the shard-skew experiments: `G`
/// open partner chains whose sizes follow a Zipf law with exponent ½
/// (`size_g = K / √(g+1)`, floored at 1) — one hot group, a heavy tail.
pub struct SkewWorkload {
    /// Phase 1 in arrival order: the chains' members, randomly
    /// interleaved with intra-group order preserved. Every member
    /// requires its successor and the keystone is withheld, so nothing
    /// coordinates.
    pub phase1: Vec<EntangledQuery>,
    /// Phase 2: one free keystone per group, closing its chain.
    pub keystones: Vec<EntangledQuery>,
    /// Per-group chain sizes (keystones excluded).
    pub sizes: Vec<usize>,
}

/// Zipf(½) group sizes: `K / √(g+1)`, floored at 1.
pub fn zipf_sizes(groups: usize, k: usize) -> Vec<usize> {
    (0..groups)
        .map(|g| ((k as f64) / ((g + 1) as f64).sqrt()).round().max(1.0) as usize)
        .collect()
}

/// Randomly interleave the groups' members into one arrival order,
/// preserving each group's internal order (so chains arrive head
/// first). Deterministic for a fixed seed.
pub fn interleave_arrivals(groups: Vec<Vec<EntangledQuery>>, seed: u64) -> Vec<EntangledQuery> {
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

/// Build the skew workload: group `g` occupies user ids
/// `100·g .. 100·g + size_g` with its keystone at `100·g + size_g`
/// (size the pool table for `100·groups + k + 2` ids).
pub fn zipf_chain_workload(groups: usize, k: usize, seed: u64) -> SkewWorkload {
    // Group id ranges are strided at 100: a hot-group size reaching the
    // stride would make chains cross-entangle and the workload's
    // "independent groups" premise silently fail.
    assert!(k < 100, "hot-group size {k} must stay below the id stride");
    let sizes = zipf_sizes(groups, k);
    let chains: Vec<Vec<EntangledQuery>> = sizes
        .iter()
        .enumerate()
        .map(|(g, &n)| {
            (0..n)
                .map(|i| partner_query(100 * g + i, &[100 * g + i + 1]))
                .collect()
        })
        .collect();
    let keystones = sizes
        .iter()
        .enumerate()
        .map(|(g, &n)| partner_query(100 * g + n, &[]))
        .collect();
    SkewWorkload {
        phase1: interleave_arrivals(chains, seed),
        keystones,
        sizes,
    }
}

/// The flights schema-binding shared by the Figure 7–8 experiments:
/// coordinate on (destination, day), personal attributes (source,
/// airline).
pub fn flights_config() -> ConsistentConfig {
    ConsistentConfig::new(
        "Fl",
        "flightId",
        &["destination", "day"],
        &["source", "airline"],
        "Fr",
    )
}

/// Figure 7 instance: `n_queries` fully unconstrained queries (every
/// user coordinates with any friend, "don't care" on every attribute)
/// over a flights table with `flight_rows` rows, **all distinct**
/// (destination, day) pairs, and a complete friendship graph — the
/// worst case: nothing is ever pruned and every value is an option.
pub fn fig7_instance(
    n_queries: usize,
    flight_rows: usize,
) -> (Database, ConsistentConfig, Vec<ConsistentQuery>) {
    let mut db = Database::new();
    flights_coordination(&mut db, "Fl", flight_rows, true).expect("flights");
    complete_friendship_table(&mut db, "Fr", n_queries).expect("friends");
    let queries = worst_case_consistent_queries(n_queries);
    (db, flights_config(), queries)
}

/// Figure 8 instance: flights table fixed at `flight_rows` (100 in the
/// paper) rows with distinct (destination, day) combinations; the query
/// count varies.
pub fn fig8_instance(
    n_queries: usize,
    flight_rows: usize,
) -> (Database, ConsistentConfig, Vec<ConsistentQuery>) {
    let mut db = Database::new();
    flights_coordination(&mut db, "Fl", flight_rows, false).expect("flights");
    complete_friendship_table(&mut db, "Fr", n_queries).expect("friends");
    let queries = worst_case_consistent_queries(n_queries);
    (db, flights_config(), queries)
}

/// `n` queries with a single any-friend partner and no attribute
/// constraints: "all the queries are such that every tuple in the DB
/// satisfies them, which is the worst case for our algorithm".
pub fn worst_case_consistent_queries(n: usize) -> Vec<ConsistentQuery> {
    (0..n)
        .map(|i| ConsistentQuery::for_user(user_name(i), 2, 2).with_any_friend())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use coord_core::consistent::ConsistentCoordinator;
    use coord_core::graphs::{is_safe, is_unique};
    use coord_core::scc::SccCoordinator;
    use coord_core::QuerySet;

    #[test]
    fn fig4_chain_is_safe_not_unique_and_fully_coordinates() {
        let (db, queries) = fig4_instance(10, 100);
        let qs = QuerySet::new(queries.clone());
        assert!(is_safe(&qs));
        assert!(!is_unique(&qs), "the list structure is non-unique");
        let out = SccCoordinator::new(&db).run(&queries).unwrap();
        // Every suffix of the chain is a candidate; the whole chain wins.
        assert_eq!(out.found.len(), 10);
        assert_eq!(out.best().unwrap().len(), 10);
        assert_eq!(out.stats.db_queries, 10);
    }

    #[test]
    fn fig5_scale_free_coordinates_everyone() {
        let mut rng = StdRng::seed_from_u64(21);
        let (db, queries) = fig5_instance(40, 2, 100, &mut rng);
        let qs = QuerySet::new(queries.clone());
        assert!(is_safe(&qs));
        let out = SccCoordinator::new(&db).run(&queries).unwrap();
        // All bodies satisfiable and all postconditions matched: the
        // closure of any source node coordinates; the best covers at
        // least the largest closure. With seeds having no out-edges,
        // singleton seeds always coordinate.
        assert!(out.best().is_some());
        assert!(out.stats.db_queries <= out.stats.components);
    }

    #[test]
    fn fig7_every_value_survives_cleaning() {
        let (db, config, queries) = fig7_instance(8, 25);
        let coord = ConsistentCoordinator::new(&db, config).unwrap();
        let out = coord.run(&queries).unwrap();
        // Worst case: 25 distinct values, none prunable; with a complete
        // friendship graph every query survives at every value.
        assert_eq!(out.stats.values_considered, 25);
        assert!(out.per_value.iter().all(|(_, size)| *size == 8));
        assert_eq!(out.best.as_ref().unwrap().members.len(), 8);
    }

    #[test]
    fn fig8_option_count_is_capped_by_table() {
        let (db, config, queries) = fig8_instance(12, 100);
        let coord = ConsistentCoordinator::new(&db, config).unwrap();
        let out = coord.run(&queries).unwrap();
        assert_eq!(out.stats.values_considered, 100);
        assert_eq!(out.best.as_ref().unwrap().members.len(), 12);
    }

    #[test]
    fn activity_chain_coordinates_on_every_backend() {
        let rows = 10_000; // k = 100: single-column buckets of 100 rows
        let n = 12;
        let queries = activity_chain_queries(n, rows);
        let mut per_backend = Vec::new();
        for kind in BackendKind::ALL {
            let db = activity_db(rows, kind);
            let out = SccCoordinator::new(&db).run(&queries).unwrap();
            assert_eq!(out.found.len(), n, "backend {}", kind.name());
            per_backend.push(out.best().unwrap().len());
        }
        assert!(per_backend.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn partner_query_shape() {
        let q = partner_query(3, &[5, 7]);
        assert_eq!(q.postconditions().len(), 2);
        assert_eq!(q.heads().len(), 1);
        assert_eq!(q.body().len(), 1);
        assert_eq!(q.name(), "q3");
    }

    #[test]
    fn contending_cycle_is_safe_but_never_coordinates() {
        let (cycle, spokes) = unsat_cycle_with_spokes(7, 2);
        assert_eq!(cycle.len(), 7);
        assert_eq!(spokes.len(), 2);
        let all: Vec<_> = cycle.iter().chain(spokes.iter()).cloned().collect();
        let qs = QuerySet::new(all.clone());
        assert!(is_safe(&qs));
        let db = pool_db(100);
        let out = SccCoordinator::new(&db).run(&all).unwrap();
        // The cycle's head variables all unify into one class, so its
        // combined body asks for a single pool tuple with seven distinct
        // tags: grounding fails, and the spokes fail with it.
        assert!(out.found.is_empty());
        // The failure costs exactly one database probe (the cycle SCC);
        // spokes fail by propagation without touching the database.
        assert_eq!(out.stats.db_queries, 1);
    }
}
