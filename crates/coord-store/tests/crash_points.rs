//! Crash-point fuzzing of the durable engine in its single-writer
//! configuration (`DurableShardedEngine`, one shard, one submitting
//! thread — one stream, records in submit order): truncate the WAL at
//! *every* byte offset — including mid-record — and at randomly flipped
//! bytes, and assert recovery restores exactly the state after the
//! longest clean prefix of acknowledged submits.

use coord_store::temp::TempDir;
use coord_store::testkit::{chain, MiniCodec, MiniQuery, SaturationEvaluator as Saturation};
use coord_store::{DurabilityOptions, DurableShardedEngine, SyncPolicy};
use proptest::prelude::*;
use rand::prelude::*;
use std::path::Path;

fn no_snapshots() -> DurabilityOptions {
    DurabilityOptions {
        sync: SyncPolicy::Never,
        snapshot_every: None,
    }
}

type Engine = DurableShardedEngine<MiniQuery, Saturation, MiniCodec>;

fn open(dir: &Path) -> Engine {
    DurableShardedEngine::open(dir, Saturation, 1, MiniCodec, no_snapshots()).unwrap()
}

fn wal_len(engine: &Engine) -> u64 {
    engine.wal_stream_lens()[0]
}

fn pending_names(engine: &Engine) -> Vec<String> {
    let mut names: Vec<String> = engine
        .engine()
        .pending()
        .into_iter()
        .map(|(_, q)| q.name)
        .collect();
    names.sort_unstable();
    names
}

/// A workload of interleaved chain groups; completed chains exercise
/// retirement records.
fn workload(groups: usize, len: usize, complete_every: usize) -> Vec<MiniQuery> {
    let mut queries = Vec::new();
    for step in 0..len {
        for g in 0..groups {
            let base = 1_000 * g as i64;
            let i = base + step as i64;
            // Every `complete_every`-th step closes the chain (a free
            // query), producing a retirement; otherwise keep waiting.
            if (step + 1) % complete_every == 0 {
                queries.push(chain(i, None));
            } else {
                queries.push(chain(i, Some(i + 1)));
            }
        }
    }
    queries
}

/// Drive the engine, recording `(wal_len, pending set)` after every
/// acknowledged submit. Returns the WAL path and the state timeline.
fn drive(dir: &Path, arrivals: &[MiniQuery]) -> (std::path::PathBuf, Vec<(u64, Vec<String>)>) {
    let engine = open(dir);
    let mut timeline = vec![(0, Vec::new()), (wal_len(&engine), Vec::new())];
    for q in arrivals {
        engine.submit(q.clone()).unwrap();
        timeline.push((wal_len(&engine), pending_names(&engine)));
    }
    let wal = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("wal-"))
        })
        .expect("wal file exists");
    (wal, timeline)
}

/// The recorded state for the longest acknowledged prefix whose WAL end
/// fits inside `cut` bytes.
fn expected_at(timeline: &[(u64, Vec<String>)], cut: u64) -> &[String] {
    &timeline
        .iter()
        .rev()
        .find(|(len, _)| *len <= cut)
        .expect("baseline entry always fits")
        .1
}

#[test]
fn truncation_at_every_byte_recovers_the_exact_prefix() {
    let dir = TempDir::new("fuzz-exhaustive");
    let arrivals = workload(2, 8, 4);
    let (wal, timeline) = drive(dir.path(), &arrivals);
    let full = std::fs::read(&wal).unwrap();
    assert_eq!(timeline.last().unwrap().0, full.len() as u64);

    for cut in 0..=full.len() {
        let crash_dir = TempDir::new("fuzz-cut");
        std::fs::write(
            crash_dir.path().join(wal.file_name().unwrap()),
            &full[..cut],
        )
        .unwrap();
        let engine = open(crash_dir.path());
        assert_eq!(
            pending_names(&engine),
            expected_at(&timeline, cut as u64),
            "cut at byte {cut} of {}",
            full.len()
        );
        engine.validate_invariants();
        // The truncated store stays appendable: one more submit both
        // applies and persists.
        engine.submit(chain(777_000, Some(777_001))).unwrap();
        drop(engine);
        let reopened = open(crash_dir.path());
        assert!(
            pending_names(&reopened).contains(&"q777000".to_string()),
            "cut at byte {cut}: post-recovery append lost"
        );
    }
}

#[test]
fn corrupted_byte_recovers_the_preceding_records() {
    let dir = TempDir::new("fuzz-flip");
    let arrivals = workload(2, 6, 3);
    let (wal, timeline) = drive(dir.path(), &arrivals);
    let full = std::fs::read(&wal).unwrap();
    let header = 16usize;

    // Flip every byte after the header (the header is validated
    // separately: damage there means an empty clean prefix).
    for pos in header..full.len() {
        let mut damaged = full.clone();
        damaged[pos] ^= 0x40;
        let crash_dir = TempDir::new("fuzz-flip-case");
        std::fs::write(crash_dir.path().join(wal.file_name().unwrap()), &damaged).unwrap();
        let engine = open(crash_dir.path());
        // Recovery keeps exactly the records before the damaged one.
        let boundary = timeline
            .iter()
            .rev()
            .find(|(len, _)| *len <= pos as u64)
            .unwrap();
        assert_eq!(pending_names(&engine), boundary.1, "flip at byte {pos}");
    }
}

#[test]
fn header_damage_means_empty_store_not_a_crash() {
    let dir = TempDir::new("fuzz-header");
    let arrivals = workload(1, 4, 9);
    let (wal, _) = drive(dir.path(), &arrivals);
    let full = std::fs::read(&wal).unwrap();
    for pos in 0..16 {
        let mut damaged = full.clone();
        damaged[pos] ^= 0xFF;
        let crash_dir = TempDir::new("fuzz-header-case");
        std::fs::write(crash_dir.path().join(wal.file_name().unwrap()), &damaged).unwrap();
        let engine = open(crash_dir.path());
        assert_eq!(engine.engine().pending_count(), 0, "header flip at {pos}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random workload shapes × random crash offsets: recovery is the
    /// exact acknowledged prefix, and the recovered engine coordinates
    /// like a fresh engine fed that prefix directly.
    #[test]
    fn random_crash_points_recover_an_acknowledged_prefix(
        groups in 1usize..=3,
        len in 2usize..=10,
        complete_every in 2usize..=5,
        cut_per_mille in 0usize..=1000,
    ) {
        let dir = TempDir::new("fuzz-prop");
        let arrivals = workload(groups, len, complete_every);
        let (wal, timeline) = drive(dir.path(), &arrivals);
        let full = std::fs::read(&wal).unwrap();
        let cut = full.len() * cut_per_mille / 1000;

        let crash_dir = TempDir::new("fuzz-prop-case");
        std::fs::write(crash_dir.path().join(wal.file_name().unwrap()), &full[..cut]).unwrap();
        let engine = open(crash_dir.path());
        let expected = expected_at(&timeline, cut as u64);
        prop_assert_eq!(pending_names(&engine), expected);
        engine.validate_invariants();

        // Behavioral equivalence: a reference engine fed the same prefix
        // of submits agrees on the next coordination. The timeline has
        // two pre-submit baselines (offset 0 and the bare header); a cut
        // inside the header keeps neither, hence the saturation.
        let prefix_submits = timeline
            .iter()
            .filter(|(l, _)| *l <= cut as u64)
            .count()
            .saturating_sub(2);
        let ref_dir = TempDir::new("fuzz-prop-ref");
        let reference = open(ref_dir.path());
        for q in &arrivals[..prefix_submits] {
            reference.submit(q.clone()).unwrap();
        }
        prop_assert_eq!(pending_names(&engine), pending_names(&reference));
        prop_assert_eq!(
            engine.engine().component_count(),
            reference.engine().component_count()
        );
        for q in &arrivals[prefix_submits..] {
            let a = engine.submit(q.clone()).unwrap();
            let b = reference.submit(q.clone()).unwrap();
            let mut ra: Vec<String> = a.retired.iter().map(|(_, x)| x.name.clone()).collect();
            let mut rb: Vec<String> = b.retired.iter().map(|(_, x)| x.name.clone()).collect();
            ra.sort_unstable();
            rb.sort_unstable();
            prop_assert_eq!(ra, rb, "post-recovery retirement diverged");
        }
        prop_assert_eq!(pending_names(&engine), pending_names(&reference));
    }

    /// Crashing, recovering, appending, and crashing again composes:
    /// the second recovery sees the survivors of both lives.
    #[test]
    fn recovery_composes_across_multiple_crashes(
        seed in prop::arbitrary::any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let dir = TempDir::new("fuzz-multi");
        let arrivals = workload(2, 6, 3);
        let (first, second) = arrivals.split_at(arrivals.len() / 2);

        let (wal, timeline) = drive(dir.path(), first);
        let full = std::fs::read(&wal).unwrap();
        let cut = rng.random_range(0..=full.len());
        let crash_dir = TempDir::new("fuzz-multi-case");
        let wal_name = wal.file_name().unwrap().to_owned();
        std::fs::write(crash_dir.path().join(&wal_name), &full[..cut]).unwrap();

        let survivors;
        {
            let engine = open(crash_dir.path());
            prop_assert_eq!(pending_names(&engine), expected_at(&timeline, cut as u64));
            for q in second {
                engine.submit(q.clone()).unwrap();
            }
            survivors = pending_names(&engine);
        } // second crash (clean tail this time)

        let engine = open(crash_dir.path());
        prop_assert_eq!(pending_names(&engine), survivors);
    }
}
