//! Ablations for the SCC Coordination Algorithm's design choices
//! (Section 4 running-time analysis):
//!
//! * **components matter**: a unique cycle of `n` queries forms one SCC
//!   (one database query), while the non-unique list of `n` queries forms
//!   `n` SCCs (n database queries) — same query count, very different
//!   work.
//! * **preprocessing pays**: a workload whose suffix is doomed (an
//!   unmatchable postcondition deep in the chain) is cut before any
//!   database work.
//! * **indexing matters** (the `analysis` section, asserted while
//!   measuring and gated in CI via `--quick`): candidate enumeration
//!   through the shared (relation, first-arg constant) index performs
//!   ≥ 10× fewer atom-unifiability tests than the all-pairs sweep at
//!   n = 100, and grows near-linearly from n = 20 to n = 100.

use coord_core::scc::{preprocess, SccCoordinator};
use coord_gen::workloads::{fig4_queries, partner_query, pool_db};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick")
}

/// A unique cycle: query i coordinates with query (i+1) mod n.
fn cycle_queries(n: usize) -> Vec<coord_core::EntangledQuery> {
    (0..n).map(|i| partner_query(i, &[(i + 1) % n])).collect()
}

fn bench_cycle_vs_list(c: &mut Criterion) {
    let db = pool_db(1000);
    let mut group = c.benchmark_group("ablation_cycle_vs_list");
    group.sample_size(if quick_mode() { 3 } else { 20 });
    for n in [20, 60, 100] {
        let list = fig4_queries(n);
        let cycle = cycle_queries(n);
        group.bench_with_input(BenchmarkId::new("list", n), &list, |b, qs| {
            b.iter(|| {
                let out = SccCoordinator::new(&db).run(qs).unwrap();
                assert_eq!(out.stats.db_queries, n);
                out.stats.db_queries
            });
        });
        group.bench_with_input(BenchmarkId::new("cycle", n), &cycle, |b, qs| {
            b.iter(|| {
                let out = SccCoordinator::new(&db).run(qs).unwrap();
                assert_eq!(out.stats.db_queries, 1);
                out.stats.db_queries
            });
        });
    }
    group.finish();

    // Assert-while-measuring: the indexed candidate enumeration must be
    // near-linear where the all-pairs sweep is quadratic. The all-pairs
    // baseline for one sweep of the list workload is posts × heads
    // = (n−1)·n unifiability tests; the indexed pipeline (safety +
    // preprocessing fixpoint + graph construction combined) must sit at
    // least 10× below it at n = 100, and grow ≤ 8× over the 5× size
    // step from n = 20 (quadratic growth would be 25×). Asserted in
    // `--quick` too, so the CI run gates superlinear regressions.
    let calls_at = |n: usize| {
        let pre = preprocess(&db, &fig4_queries(n)).unwrap();
        assert!(pre.removed.is_empty());
        pre.unify_calls
    };
    let (small, large) = (calls_at(20), calls_at(100));
    let all_pairs = (100u64 - 1) * 100;
    assert!(
        large * 10 <= all_pairs,
        "indexed enumeration did {large} unify calls at n = 100; \
         all-pairs baseline is {all_pairs} (< 10× saving)"
    );
    assert!(
        large <= 8 * small,
        "unify calls grew {small} → {large} (> 8×) over a 5× size step"
    );
    println!(
        "ablation_cycle_vs_list/analysis: unify calls {small} @ n=20 → {large} @ n=100 \
         ({:.1}× below the {all_pairs}-test all-pairs baseline)",
        all_pairs as f64 / large as f64,
    );

    // Assert-while-measuring, differential gate: on the list workload
    // closure i contains i + 1 queries, so from-scratch evaluation pays
    // Σ|closure| ≈ n²/2 grounding operations where delta joins against
    // memoized successors pay O(n·Δ) = O(n). Gate both the growth rate
    // (≤ 8× over the 5× step; quadratic would be 25×) and the absolute
    // gap to the from-scratch baseline (≥ 10× at n = 100). Asserted in
    // `--quick` too, so CI catches a regression to scratch evaluation.
    let ground_at = |n: usize, scratch: bool| {
        let coordinator = SccCoordinator::new(&db);
        let coordinator = if scratch {
            coordinator.with_from_scratch_evaluation()
        } else {
            coordinator
        };
        let out = coordinator.run(&fig4_queries(n)).unwrap();
        assert_eq!(out.found.len(), n);
        out.stats.ground_work
    };
    let (d_small, d_large) = (ground_at(20, false), ground_at(100, false));
    let scratch_large = ground_at(100, true);
    assert!(
        d_large <= 8 * d_small,
        "differential grounding work grew {d_small} → {d_large} (> 8×) over a 5× size step"
    );
    assert!(
        d_large * 10 <= scratch_large,
        "differential grounding work {d_large} at n = 100 not ≥ 10× below \
         the from-scratch baseline {scratch_large}"
    );
    println!(
        "ablation_cycle_vs_list/analysis: grounding work {d_small} @ n=20 → {d_large} @ n=100 \
         differential vs {scratch_large} from-scratch ({:.1}× saving)",
        scratch_large as f64 / d_large as f64,
    );
}

fn bench_preprocessing_cut(c: &mut Criterion) {
    let db = pool_db(1000);
    let mut group = c.benchmark_group("ablation_preprocessing");
    group.sample_size(if quick_mode() { 3 } else { 20 });
    for n in [20, 60, 100] {
        // A list whose head query demands a partner nobody provides: the
        // whole prefix is removed by preprocessing, leaving only suffix
        // singleton coordination.
        let mut doomed = fig4_queries(n);
        doomed[0] = partner_query(0, &[n + 7]); // nonexistent partner
        group.bench_with_input(BenchmarkId::new("doomed_head", n), &doomed, |b, qs| {
            b.iter(|| {
                let out = SccCoordinator::new(&db).run(qs).unwrap();
                assert_eq!(out.stats.removed, 1);
                out.stats.db_queries
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_cycle_vs_list, bench_preprocessing_cut);
criterion_main!(benches);
