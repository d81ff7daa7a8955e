//! Online engine throughput: the incremental `coord-engine` path against
//! the pre-incremental full-rebuild baseline, on Barabási–Albert
//! workloads arriving online.
//!
//! Workload: `n` queries in groups of 16; each group's coordination
//! structure is a BA(16, 2) digraph whose seed nodes additionally point
//! at a designated *keystone* member, so every member's closure
//! transitively requires the keystone. Phase 1 submits all non-keystone
//! queries (interleaved across groups): nothing can coordinate, pending
//! grows to `15n/16`. Phase 2 submits the keystones: each group
//! coordinates and retires within its own component.
//!
//! This is the regime the incremental engine exists for — a large steady
//! pending set whose arrivals each touch a tiny component. The bench
//! *asserts the per-submit query-count analysis while it measures*:
//!
//! * incremental per-submit evaluated queries stay bounded by the group
//!   size (sub-linear — in fact O(1) — in the pending-set size), while
//!   the rebuild baseline's examined-queries counter grows quadratically;
//! * at n = 1024 pending-scale, the incremental path does at least 8×
//!   less evaluation work than the rebuild path;
//! * the sharded engine with 4 submitter threads over disjoint groups
//!   delivers the same coordinations.

use coord_core::engine::{CoordinationEngine, SharedEngine};
use coord_core::testkit::RebuildEngine;
use coord_core::EntangledQuery;
use coord_gen::networks::barabasi_albert;
use coord_gen::workloads::{partner_query, pool_db};
use coord_graph::NodeId;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::prelude::*;

const GROUP: usize = 16;

/// One group's queries, in arrival order: members 0..GROUP-1 with the
/// keystone (the highest-index member) last. User indices are offset so
/// groups are disjoint.
fn group_queries(group: usize, rng: &mut impl Rng) -> Vec<EntangledQuery> {
    let graph = barabasi_albert(GROUP, 2, rng);
    let keystone = GROUP - 1;
    let offset = group * GROUP;
    (0..GROUP)
        .map(|i| {
            let mut partners: Vec<usize> = graph
                .successors(NodeId(i))
                .map(coord_graph::NodeId::index)
                .collect();
            if partners.is_empty() && i != keystone {
                // Seed nodes point at the keystone so the whole group
                // waits for it.
                partners.push(keystone);
            }
            partners.sort_unstable();
            partners.dedup();
            let partners: Vec<usize> = partners.iter().map(|&p| p + offset).collect();
            partner_query(i + offset, &partners)
        })
        .collect()
}

/// The full workload: per-group query lists, keystones last within each.
fn workload(n: usize) -> Vec<Vec<EntangledQuery>> {
    assert_eq!(n % GROUP, 0, "workload size must be a multiple of {GROUP}");
    let mut rng = StdRng::seed_from_u64(42);
    (0..n / GROUP).map(|g| group_queries(g, &mut rng)).collect()
}

/// Arrival order: phase 1 interleaves the non-keystones of all groups,
/// phase 2 releases the keystones.
fn arrival_order(groups: &[Vec<EntangledQuery>]) -> Vec<EntangledQuery> {
    let mut order = Vec::new();
    for i in 0..GROUP - 1 {
        for g in groups {
            order.push(g[i].clone());
        }
    }
    for g in groups {
        order.push(g[GROUP - 1].clone());
    }
    order
}

fn bench_online_throughput(c: &mut Criterion) {
    let quick = std::env::args().any(|a| a == "--quick");
    let sizes: &[usize] = if quick { &[256] } else { &[256, 1024] };
    let samples = if quick { 2 } else { 3 };

    let mut group = c.benchmark_group("online_throughput");
    group.sample_size(samples);

    for &n in sizes {
        let db = pool_db(n.max(256));
        let groups = workload(n);
        let arrivals = arrival_order(&groups);
        let keystones = groups.len();

        group.bench_with_input(BenchmarkId::new("rebuild", n), &arrivals, |b, arrivals| {
            b.iter(|| {
                let mut engine = RebuildEngine::new(&db);
                let mut coordinated = 0usize;
                for q in arrivals.iter().cloned() {
                    if engine.submit(q).unwrap().coordinated() {
                        coordinated += 1;
                    }
                }
                // Phase 1 cannot coordinate; every keystone must.
                assert_eq!(coordinated, keystones);
                // Full rebuild examines Σ pending — quadratic in the
                // steady pending size.
                let examined = engine.queries_examined();
                assert!(
                    examined as usize > n * n / 8,
                    "rebuild examined {examined} ≤ n²/8"
                );
                examined
            });
        });

        group.bench_with_input(
            BenchmarkId::new("incremental", n),
            &arrivals,
            |b, arrivals| {
                b.iter(|| {
                    let mut engine = CoordinationEngine::new(&db);
                    let mut coordinated = 0usize;
                    for q in arrivals.iter().cloned() {
                        if engine.submit(q).unwrap().coordinated() {
                            coordinated += 1;
                        }
                    }
                    assert_eq!(coordinated, keystones);
                    let snap = engine.metrics();
                    // Per-submit work is bounded by the component (≤ one
                    // group), independent of the pending-set size.
                    assert!(
                        snap.evaluated_per_submit() <= (GROUP + 1) as f64,
                        "per-submit work {} exceeds the group bound",
                        snap.evaluated_per_submit()
                    );
                    // Candidate pairing through the index stays far below
                    // the all-pairs regime.
                    assert!(
                        snap.pairings_checked < (n * n / 8) as u64,
                        "pairings {} not sub-quadratic",
                        snap.pairings_checked
                    );
                    snap.queries_evaluated
                });
            },
        );

        group.bench_with_input(
            BenchmarkId::new("sharded_4_threads", n),
            &groups,
            |b, groups| {
                b.iter(|| {
                    let engine = SharedEngine::with_shards(&db, 4);
                    std::thread::scope(|s| {
                        for chunk in groups.chunks(groups.len().div_ceil(4)) {
                            let engine = &engine;
                            s.spawn(move || {
                                // Each thread owns disjoint groups: phase
                                // 1 arrives in cross-group waves, then the
                                // keystones release each group.
                                for i in 0..GROUP - 1 {
                                    for g in chunk {
                                        let r = engine.submit(g[i].clone()).unwrap();
                                        assert!(!r.coordinated());
                                    }
                                }
                                for g in chunk {
                                    let r = engine.submit(g[GROUP - 1].clone()).unwrap();
                                    assert!(r.coordinated());
                                }
                            });
                        }
                    });
                    engine.delivered()
                });
            },
        );

        // Assert-while-measuring, cross-engine: the incremental path must
        // do at least 8× less evaluation work than the rebuild path.
        // Asserted at *every* measured size (observed: 14.8× at n = 256,
        // 58.8× at n = 1024) so the CI `--quick` run gates it too.
        let mut reb = RebuildEngine::new(&db);
        let mut inc = CoordinationEngine::new(&db);
        for q in arrivals.iter().cloned() {
            reb.submit(q.clone()).unwrap();
            inc.submit(q).unwrap();
        }
        let inc_work = inc.metrics().queries_evaluated;
        let reb_work = reb.queries_examined();
        assert!(
            inc_work * 8 < reb_work,
            "at n = {n}: incremental {inc_work} vs rebuild {reb_work} (< 8× saving)"
        );
        println!(
            "online_throughput/analysis/{n}: incremental evaluated {inc_work} vs rebuild {reb_work} \
             ({:.1}× less), {:.2} queries/submit",
            reb_work as f64 / inc_work as f64,
            inc.metrics().evaluated_per_submit(),
        );

        // Assert-while-measuring, observability overhead gate: the same
        // single-threaded workload through the sharded engine with an
        // enabled registry (histograms, plus the full request-scoped
        // tracing path — a trace-id ticket per submit, ctx-stamped ring
        // events, and an armed slow-query flight recorder whose
        // threshold check runs on every root span) vs a disabled one
        // (one branch per instrument, no clock reads). Best-of-5 wall
        // clock on each side to shed scheduler noise on the 1-CPU
        // runner; the enabled run must stay within 5% (plus a 2ms
        // absolute floor so a sub-millisecond quick workload cannot
        // fail on timer granularity alone).
        let run_once = |obs: coord_obs::Registry| -> std::time::Duration {
            // 1s threshold: the per-root check is paid, captures stay
            // rare — the cost under gate is the bookkeeping, not copies.
            obs.set_slow_query_log(1_000_000_000, 32);
            let engine = SharedEngine::with_obs(
                &db,
                4,
                coord_core::engine::Placement::default(),
                coord_core::engine::RebalanceConfig::default(),
                obs,
            );
            let start = std::time::Instant::now();
            let mut coordinated = 0usize;
            for q in arrivals.iter().cloned() {
                if engine.submit(q).unwrap().coordinated() {
                    coordinated += 1;
                }
            }
            assert_eq!(coordinated, keystones);
            start.elapsed()
        };
        let best_of = |disabled: bool| -> std::time::Duration {
            (0..5)
                .map(|_| {
                    run_once(if disabled {
                        coord_obs::Registry::disabled()
                    } else {
                        coord_obs::Registry::new()
                    })
                })
                .min()
                .unwrap()
        };
        let off = best_of(true);
        let on = best_of(false);
        let budget = off.mul_f64(1.05) + std::time::Duration::from_millis(2);
        assert!(
            on <= budget,
            "at n = {n}: enabled observability took {on:?} vs {off:?} disabled \
             (> 5% + 2ms overhead)"
        );
        println!(
            "online_throughput/analysis/{n}: observability overhead {on:?} enabled \
             vs {off:?} disabled ({:+.1}%)",
            100.0 * (on.as_secs_f64() / off.as_secs_f64() - 1.0),
        );

        // The gated run is the *traced* configuration: verify (untimed)
        // that an enabled registry really does put a nonzero trace id
        // on every submit span — the gate must not pass by silently
        // measuring id-less tracing.
        let check = coord_obs::Registry::new();
        run_once(check.clone());
        let (events, _) = check.tracer().events();
        let submits: Vec<_> = events.iter().filter(|e| e.kind == "submit").collect();
        assert!(!submits.is_empty(), "traced run recorded no submit spans");
        assert!(
            submits.iter().all(|e| e.trace_id != 0),
            "a submit span carried trace id 0 in the enabled run"
        );
    }
    group.finish();
}

criterion_group!(benches, bench_online_throughput);
criterion_main!(benches);
