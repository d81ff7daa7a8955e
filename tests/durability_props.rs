//! Recovery determinism for the durable online engines:
//! `replay(snapshot + wal) ≡ live engine` over random submit/retire
//! interleavings, crash-point truncation fuzz against the acknowledged
//! prefix, and sharded recovery with concurrent submitters.

use proptest::prelude::*;
use social_coordination::core::engine::CoordinationEngine;
use social_coordination::core::persist::{
    DurabilityOptions, DurableSharedEngine, EntangledQueryCodec,
};
use social_coordination::core::scc::SccCoordinator;
use social_coordination::core::testkit::RebuildEngine;
use social_coordination::core::EntangledQuery;
use social_coordination::db::Database;
use social_coordination::gen::workloads::{interleave_arrivals, partner_query, pool_db};
use social_coordination::store::temp::TempDir;
use social_coordination::store::wal::read_wal;
use social_coordination::store::{CommitRecord, QueryCodec};

/// Pool rows: must cover every user id the workloads mint (each
/// `partner_query(i, …)` body selects pool row `i`).
const POOL: usize = 4096;

/// One group: `size` queries in a chain (last member free, so the group
/// retires when complete) or a cycle.
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

fn sorted_names<'a>(queries: impl IntoIterator<Item = &'a EntangledQuery>) -> Vec<String> {
    let mut names: Vec<String> = queries.into_iter().map(|q| q.name().to_string()).collect();
    names.sort_unstable();
    names
}

fn opts(snapshot_every: Option<u64>) -> DurabilityOptions {
    DurabilityOptions {
        snapshot_every,
        ..DurabilityOptions::default()
    }
}

/// The single-writer durable engine: one shard driven from this thread
/// only, so the log's order is this thread's submit order and recovery
/// restores a prefix of it.
fn open_single_writer<'a>(
    db: &'a Database,
    dir: &std::path::Path,
    snapshot_every: Option<u64>,
) -> DurableSharedEngine<'a> {
    DurableSharedEngine::open_with(db, dir, 1, opts(snapshot_every)).unwrap()
}

/// Length of the one log after the last acknowledged submit.
fn wal_len(engine: &DurableSharedEngine<'_>) -> u64 {
    engine.wal_stream_lens()[0]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The tentpole property: crash after a random prefix of a random
    /// submit/retire interleaving (snapshots on or off), recover, and
    /// the restored engine's pending set, component structure, and
    /// every subsequent coordination match an engine that never
    /// crashed. At the end, nothing coordinatable is left pending.
    #[test]
    fn replay_of_snapshot_plus_wal_equals_live_engine(
        shapes in prop::collection::vec((prop::arbitrary::any::<bool>(), 1usize..=5), 1..=4),
        seed in prop::arbitrary::any::<u64>(),
        crash_at in 0usize..=100,
        snapshot_every in prop::option::of(1u64..=6),
    ) {
        let db = pool_db(POOL);
        let groups: Vec<Vec<EntangledQuery>> = shapes
            .iter()
            .enumerate()
            .map(|(g, &(cycle, size))| group(100 * g, size, cycle))
            .collect();
        let arrivals = interleave_arrivals(groups, seed);
        let crash_at = crash_at % (arrivals.len() + 1);
        let dir = TempDir::new("durability-props");

        // Uninterrupted twin.
        let mut live = CoordinationEngine::new(&db);
        // Durable engine: submit a prefix, then "crash" (drop).
        {
            let durable = open_single_writer(&db, dir.path(), snapshot_every);
            for q in &arrivals[..crash_at] {
                durable.submit(q.clone()).unwrap();
                live.submit(q.clone()).unwrap();
            }
        }

        let delivered_before_crash = live.delivered();
        let recovered = open_single_writer(&db, dir.path(), snapshot_every);
        if snapshot_every.is_some() && crash_at as u64 >= snapshot_every.unwrap() {
            prop_assert!(recovered.recovery_report().had_snapshot);
        }
        prop_assert_eq!(
            sorted_names(&recovered.pending()),
            sorted_names(live.pending().iter().copied()),
            "recovered pending set diverged at crash point {}", crash_at
        );
        prop_assert_eq!(recovered.component_count(), live.component_count());
        recovered.validate_invariants();

        // Subsequent coordination results must be identical, step by
        // step, through the rest of the workload.
        for q in &arrivals[crash_at..] {
            let a = recovered.submit(q.clone()).unwrap();
            let b = live.submit(q.clone()).unwrap();
            let mut a_sorted = a.answers.clone();
            let mut b_sorted = b.answers.clone();
            a_sorted.sort_by(|x, y| x.query.cmp(&y.query));
            b_sorted.sort_by(|x, y| x.query.cmp(&y.query));
            prop_assert_eq!(a_sorted, b_sorted, "post-recovery answers diverged");
        }
        // `delivered` counts an engine's own lifetime; the recovered
        // engine restarts at zero, so compare post-crash deltas.
        prop_assert_eq!(
            recovered.delivered(),
            live.delivered() - delivered_before_crash
        );
        prop_assert_eq!(
            sorted_names(&recovered.pending()),
            sorted_names(live.pending().iter().copied())
        );

        // Fresh batch cross-check: recovery left nothing coordinatable.
        let batch = SccCoordinator::new(&db).run(&recovered.pending()).unwrap();
        prop_assert!(batch.best().is_none());
    }

    /// Crash-point fuzz at the byte level: truncating the WAL anywhere —
    /// including mid-record — recovers exactly the state after the
    /// longest fully-logged prefix of acknowledged submits.
    #[test]
    fn truncated_wal_recovers_the_acknowledged_prefix(
        shapes in prop::collection::vec((prop::arbitrary::any::<bool>(), 1usize..=4), 1..=3),
        seed in prop::arbitrary::any::<u64>(),
        cut_per_mille in 0usize..=1000,
    ) {
        let db = pool_db(POOL);
        let groups: Vec<Vec<EntangledQuery>> = shapes
            .iter()
            .enumerate()
            .map(|(g, &(cycle, size))| group(100 * g, size, cycle))
            .collect();
        let arrivals = interleave_arrivals(groups, seed);
        let dir = TempDir::new("durability-cut");

        // Drive, recording (wal end, pending set) after every ack.
        let mut timeline: Vec<(u64, Vec<String>)> = vec![(0, Vec::new())];
        {
            let durable = open_single_writer(&db, dir.path(), None);
            timeline.push((wal_len(&durable), Vec::new()));
            for q in &arrivals {
                durable.submit(q.clone()).unwrap();
                timeline.push((
                    wal_len(&durable),
                    sorted_names(&durable.pending()),
                ));
            }
        }
        let wal = std::fs::read_dir(dir.path())
            .unwrap()
            .map(|e| e.unwrap().path())
            .find(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("wal-"))
            })
            .unwrap();
        let full = std::fs::read(&wal).unwrap();
        let cut = full.len() * cut_per_mille / 1000;

        let crash_dir = TempDir::new("durability-cut-case");
        std::fs::write(crash_dir.path().join(wal.file_name().unwrap()), &full[..cut]).unwrap();
        let recovered = open_single_writer(&db, crash_dir.path(), None);
        let expected = &timeline
            .iter()
            .rev()
            .find(|(len, _)| *len <= cut as u64)
            .unwrap()
            .1;
        prop_assert_eq!(
            &sorted_names(&recovered.pending()),
            expected,
            "cut at byte {} of {}", cut, full.len()
        );
        recovered.validate_invariants();
        // The truncated store remains appendable and durable.
        recovered.submit(partner_query(999, &[998])).unwrap();
        drop(recovered);
        let reopened = open_single_writer(&db, crash_dir.path(), None);
        prop_assert!(sorted_names(&reopened.pending())
            .contains(&"q999".to_string()));
    }

    /// The ack/WAL crash window (the name dates from the cross-run
    /// verdict cache, whose invalidation once sat in it): the keystone
    /// submit coordinates and retires the chain in memory *before* the
    /// crash destroys the commit record. Recovery must not depend on
    /// anything the lost process held: the replayed engine reaches the
    /// same pending set, and re-coordinating the keystone yields answers
    /// byte-identical both to the original acknowledgment and to a
    /// from-scratch `RebuildEngine` twin.
    #[test]
    fn crash_between_memo_invalidation_and_wal_commit_replays_identically(
        size in 2usize..=10,
        probe in 0usize..=2,
    ) {
        // The vendored proptest shim shrinks below strategy bounds; keep
        // the body total regardless.
        let size = size.max(2);
        let db = pool_db(POOL);
        let chain = group(0, size, false);
        let keystone = chain[size - 1].clone();
        let dir = TempDir::new("memo-crash-window");

        let (wal_before, original) = {
            let durable = open_single_writer(&db, dir.path(), None);
            for q in &chain[..size - 1] {
                prop_assert!(!durable.submit(q.clone()).unwrap().coordinated());
            }
            // A few unrelated still-pending probes (their partners never
            // arrive) so the recovered state holds more than the chain.
            for p in 0..probe {
                durable.submit(partner_query(500 + p, &[600 + p])).unwrap();
            }
            let wal_before = wal_len(&durable);
            let r = durable.submit(keystone.clone()).unwrap();
            prop_assert!(r.coordinated());
            let mut answers = r.answers;
            answers.sort_by(|x, y| x.query.cmp(&y.query));
            (wal_before, answers)
        }; // crash — after the ack

        // Destroy the keystone's commit record: truncate the WAL back to
        // its pre-submit length.
        let wal = std::fs::read_dir(dir.path())
            .unwrap()
            .map(|e| e.unwrap().path())
            .find(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("wal-"))
            })
            .unwrap();
        let full = std::fs::read(&wal).unwrap();
        prop_assert!((wal_before as usize) < full.len());
        std::fs::write(&wal, &full[..wal_before as usize]).unwrap();

        // Recover (fresh engine): the whole chain is pending again, as
        // if the keystone had never arrived.
        let recovered = open_single_writer(&db, dir.path(), None);
        recovered.validate_invariants();
        let mut expected: Vec<String> = sorted_names(chain[..size - 1].iter());
        for p in 0..probe {
            expected.push(format!("q{}", 500 + p));
        }
        expected.sort_unstable();
        prop_assert_eq!(
            sorted_names(&recovered.pending()),
            expected,
            "recovery must replay exactly the pre-keystone pending set"
        );

        // A from-scratch twin that never crashed.
        let mut twin = RebuildEngine::new(&db);
        for q in &chain[..size - 1] {
            twin.submit(q.clone()).unwrap();
        }
        let replayed = recovered.submit(keystone.clone()).unwrap();
        let scratch = twin.submit(keystone).unwrap();
        let mut replayed = replayed.answers;
        replayed.sort_by(|x, y| x.query.cmp(&y.query));
        let mut scratch = scratch.answers;
        scratch.sort_by(|x, y| x.query.cmp(&y.query));
        prop_assert_eq!(&replayed, &original, "replay diverged from the lost ack");
        prop_assert_eq!(&replayed, &scratch, "replay diverged from from-scratch evaluation");
    }
}

/// Sharded durability: concurrent submitters, per-shard logs, snapshot
/// rotation mid-stream; the recovered service completes every chain.
#[test]
fn sharded_durable_engine_recovers_concurrent_workload() {
    const THREADS: usize = 4;
    const CHAINS_PER_THREAD: usize = 3;
    const CHAIN: usize = 4;

    let db = pool_db(POOL);
    let dir = TempDir::new("durable-sharded-stress");
    {
        let engine =
            DurableSharedEngine::open_with(&db, dir.path(), THREADS, opts(Some(16))).unwrap();
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let engine = &engine;
                s.spawn(move || {
                    for c in 0..CHAINS_PER_THREAD {
                        let offset = 1_000 * t + 100 * c;
                        // Submit all but the chain-closing member.
                        for q in group(offset, CHAIN, false).into_iter().take(CHAIN - 1) {
                            let r = engine.submit(q).unwrap();
                            assert!(!r.coordinated());
                        }
                    }
                });
            }
        });
        assert_eq!(
            engine.pending_count(),
            THREADS * CHAINS_PER_THREAD * (CHAIN - 1)
        );
    } // crash

    let engine = DurableSharedEngine::open_with(&db, dir.path(), THREADS, opts(Some(16))).unwrap();
    assert_eq!(
        engine.pending_count(),
        THREADS * CHAINS_PER_THREAD * (CHAIN - 1)
    );
    assert_eq!(engine.component_count(), THREADS * CHAINS_PER_THREAD);
    // Every recovered chain completes when its free tail arrives.
    for t in 0..THREADS {
        for c in 0..CHAINS_PER_THREAD {
            let offset = 1_000 * t + 100 * c;
            let tail = partner_query(offset + CHAIN - 1, &[]);
            let r = engine.submit(tail).unwrap();
            assert!(r.coordinated(), "chain at offset {offset} lost");
            assert_eq!(r.answers.len(), CHAIN);
        }
    }
    assert_eq!(engine.pending_count(), 0);
}

/// The acknowledgment invariant under concurrent coordinating
/// submitters on several shards: at the moment a coordination is
/// acknowledged, the commit record of **every** partner it retired is
/// already in the durable prefix of the one log. Each coordinated ack
/// samples the log's length (a record boundary: a commit publishes whole
/// drained tails); truncating the log there is the worst crash that can
/// follow the ack, and the delivering record plus all its partners must
/// survive it. And the log is one linearization: every seq a record
/// retires is that record's own or an earlier record's.
#[test]
fn delivered_coordination_names_only_logged_partners() {
    const THREADS: usize = 4;
    const CHAINS_PER_THREAD: usize = 6;
    const CHAIN: usize = 3;

    let db = pool_db(POOL);
    let dir = TempDir::new("durable-ack-window");
    // (keystone name, log length sampled right after the coordinated
    // ack)
    let samples: std::sync::Mutex<Vec<(String, u64)>> = std::sync::Mutex::new(Vec::new());
    {
        let engine = DurableSharedEngine::open_with(&db, dir.path(), THREADS, opts(None)).unwrap();
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let engine = &engine;
                let samples = &samples;
                s.spawn(move || {
                    for c in 0..CHAINS_PER_THREAD {
                        let offset = 1_000 * t + 100 * c;
                        for q in group(offset, CHAIN, false).into_iter().take(CHAIN - 1) {
                            assert!(!engine.submit(q).unwrap().coordinated());
                        }
                        // The free tail coordinates and retires the
                        // chain: sample the crash cut at the ack.
                        let tail = partner_query(offset + CHAIN - 1, &[]);
                        let r = engine.submit(tail).unwrap();
                        assert!(r.coordinated());
                        let len = wal_len(engine);
                        samples
                            .lock()
                            .unwrap()
                            .push((format!("q{}", offset + CHAIN - 1), len));
                    }
                });
            }
        });
        assert_eq!(engine.pending_count(), 0);
    } // crash

    // Decode the log's records with their end offsets.
    let path = dir.path().join(format!("wal-{:020}-{:04}.log", 0, 0));
    let contents = read_wal(&path).unwrap();
    assert!(!contents.torn, "log torn without a crash");
    let records: Vec<(u64, CommitRecord)> = contents
        .records
        .iter()
        .zip(&contents.record_ends)
        .map(|(payload, &end)| (end, CommitRecord::decode(payload).unwrap()))
        .collect();
    let keystone_of = |record: &CommitRecord| {
        EntangledQueryCodec
            .decode(&record.query)
            .expect("logged query decodes")
            .name()
            .to_string()
    };

    let samples = samples.into_inner().unwrap();
    assert_eq!(samples.len(), THREADS * CHAINS_PER_THREAD);
    for (keystone, cut) in &samples {
        // The records surviving a crash at this ack's sampled offset.
        let visible: Vec<&CommitRecord> = records
            .iter()
            .filter(|(end, _)| end <= cut)
            .map(|(_, r)| r)
            .collect();
        let visible_seqs: std::collections::HashSet<u64> = visible.iter().map(|r| r.seq).collect();
        // The acknowledged coordination's own record survived the cut…
        let delivered = visible
            .iter()
            .find(|r| !r.retired.is_empty() && keystone_of(r) == *keystone)
            .unwrap_or_else(|| panic!("{keystone}'s delivered record lost by its own ack cut"));
        // …and so did every partner it named.
        assert_eq!(delivered.retired.len(), CHAIN);
        for seq in &delivered.retired {
            assert!(
                visible_seqs.contains(seq),
                "{keystone}'s delivery names partner seq {seq} whose commit record \
                 was not durable at ack time"
            );
        }
    }

    // One linearization: every retire names the record itself or an
    // earlier one, so nothing in the log names a phantom or a later
    // record.
    let mut earlier: std::collections::HashSet<u64> = std::collections::HashSet::new();
    for (_, record) in &records {
        earlier.insert(record.seq);
        for seq in &record.retired {
            assert!(
                earlier.contains(seq),
                "record {} retires seq {seq}, which no earlier record logged",
                record.seq
            );
        }
    }
}

/// A crash mid-rotation (snapshot renamed, WALs of the new epoch never
/// created) still recovers the full pending set.
#[test]
fn crash_between_snapshot_and_new_wals_recovers() {
    let db = pool_db(POOL);
    let dir = TempDir::new("durable-rotation-crash");
    {
        let engine = open_single_writer(&db, dir.path(), None);
        for q in group(0, 4, false).into_iter().take(3) {
            engine.submit(q).unwrap();
        }
        engine.snapshot().unwrap();
    }
    // Simulate the crash window: delete the fresh epoch's WAL files.
    for entry in std::fs::read_dir(dir.path()).unwrap() {
        let p = entry.unwrap().path();
        if p.file_name()
            .and_then(|n| n.to_str())
            .is_some_and(|n| n.starts_with("wal-"))
        {
            std::fs::remove_file(p).unwrap();
        }
    }
    let engine = open_single_writer(&db, dir.path(), None);
    assert!(engine.recovery_report().had_snapshot);
    assert_eq!(engine.pending().len(), 3);
}
