//! The parallelism the paper leaves as future work (Section 6.2): "our
//! algorithm naturally breaks into parallel processes, where each
//! possible value can be easily checked independently". This ablation
//! compares the sequential sweeps against their scoped-thread parallel
//! versions for *both* coordination algorithms:
//!
//! * the Consistent algorithm's per-value sweep (each option value is
//!   checked independently), and
//! * the SCC algorithm's condensation sweep (weakly connected groups of
//!   the condensation are swept concurrently) — asserted equal to the
//!   sequential outcome while measuring.

use coord_core::consistent::ConsistentCoordinator;
use coord_core::scc::SccCoordinator;
use coord_gen::workloads::{fig7_instance, forest_queries, pool_db};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_parallel_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_parallel_sweep");
    group.sample_size(10);
    let (db, config, queries) = fig7_instance(50, 600);
    let coordinator = ConsistentCoordinator::new(&db, config).unwrap();

    group.bench_function(BenchmarkId::new("threads", 1), |b| {
        b.iter(|| {
            coordinator
                .run(&queries)
                .unwrap()
                .best
                .map(|s| s.members.len())
        });
    });
    for threads in [2, 4, 8] {
        group.bench_function(BenchmarkId::new("threads", threads), |b| {
            b.iter(|| {
                coordinator
                    .run_parallel(&queries, threads)
                    .unwrap()
                    .best
                    .map(|s| s.members.len())
            });
        });
    }
    group.finish();
}

fn bench_scc_parallel_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_scc_parallel_sweep");
    group.sample_size(5);
    // 8 independent chains of 40: 8 weakly connected groups, with
    // nontrivial suffix-closure work per component.
    let db = pool_db(1_000);
    let queries = forest_queries(8, 40);
    let coordinator = SccCoordinator::new(&db);
    let sequential = coordinator.run(&queries).unwrap();

    group.bench_function(BenchmarkId::new("threads", 1), |b| {
        b.iter(|| {
            let out = coordinator.run(&queries).unwrap();
            assert_eq!(out.stats.db_queries, queries.len());
            out.found.len()
        });
    });
    for threads in [2, 4, 8] {
        group.bench_function(BenchmarkId::new("threads", threads), |b| {
            b.iter(|| {
                let out = coordinator.run_parallel(&queries, threads).unwrap();
                // Assert-while-measuring: per-closure candidates and
                // stats must match the sequential sweep exactly.
                assert_eq!(out.found, sequential.found);
                assert_eq!(out.stats, sequential.stats);
                out.found.len()
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_parallel_sweep, bench_scc_parallel_sweep);
criterion_main!(benches);
