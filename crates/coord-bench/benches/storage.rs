//! Storage backends: flat per-submit coordination cost under composite
//! indexes (the PR 8 tentpole gate).
//!
//! Workload, cost metric and gates live in [`coord_bench::storage`]
//! (shared with `reproduce --only storage`): composite per-submit probe
//! work grows ≤ 2× while the table grows 100× (10⁴ → 10⁶ rows), the row
//! store's grows ≥ 3×, and the submit-by-submit answers are
//! byte-identical. This target adds the wall-clock timing of one chain
//! run per backend at the small size.

use coord_bench::storage::{drive, growth, probe_work_sweep, sizes, CHAIN};
use coord_db::BackendKind;
use coord_gen::workloads::{activity_chain_queries, activity_db};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_storage(c: &mut Criterion) {
    let quick = std::env::args().any(|a| a == "--quick");
    let sizes = sizes(quick);
    let small = sizes[0];

    // ── Criterion timing: chain run per backend at the small size ────
    let mut group = c.benchmark_group("storage");
    group.sample_size(if quick { 2 } else { 3 });
    for kind in BackendKind::ALL {
        let db = activity_db(small, kind);
        let queries = activity_chain_queries(CHAIN, small);
        group.bench_with_input(
            BenchmarkId::new(kind.name(), small),
            &queries,
            |b, queries| b.iter(|| drive(&db, queries)),
        );
    }
    group.finish();

    // ── Assert-while-measuring: the flat-cost gate ───────────────────
    for (kind, per_size) in probe_work_sweep(sizes) {
        println!(
            "storage/analysis/{}: per-submit probe work {:?} over table sizes {:?} \
             (growth {:.2}× across 100× rows)",
            kind.name(),
            per_size.iter().map(|w| *w as u64).collect::<Vec<_>>(),
            sizes,
            growth(&per_size),
        );
    }
}

criterion_group!(benches, bench_storage);
criterion_main!(benches);
