//! The migration-stall bound: a cross-shard migration that is stuck
//! waiting for a shard lock (held by a long component evaluation) must
//! not stall unrelated submitters.
//!
//! Before the marker-based protocol, a migration held the router write
//! lock while waiting for source/target shard locks, so *every*
//! submitter — even ones touching completely unrelated keys — queued
//! behind it for the duration of the evaluation. Now the migration only
//! marks the affected keys (brief router writes) and waits with no
//! router lock held: submitters with unrelated keys route and evaluate
//! freely, and only submitters whose keys are mid-migration back off.

use coord_engine::index::{keys_related, KeyPattern};
use coord_engine::{ComponentEvaluator, CoordinationQuery, Placement, ShardedEngine};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Clone, Debug, PartialEq, Eq)]
struct Query {
    name: String,
    provides: Vec<KeyPattern<&'static str, i64>>,
    requires: Vec<KeyPattern<&'static str, i64>>,
}

impl CoordinationQuery for Query {
    type Rel = &'static str;
    type Cst = i64;
    fn provides(&self) -> Vec<KeyPattern<&'static str, i64>> {
        self.provides.clone()
    }
    fn requires(&self) -> Vec<KeyPattern<&'static str, i64>> {
        self.requires.clone()
    }
}

fn q(
    name: &str,
    provides: Vec<KeyPattern<&'static str, i64>>,
    requires: Vec<KeyPattern<&'static str, i64>>,
) -> Query {
    Query {
        name: name.into(),
        provides,
        requires,
    }
}

/// Saturation semantics, except that a component containing the query
/// named `slow` blocks until the release flag is set — simulating a
/// long-running evaluation that pins its shard's lock.
#[derive(Clone)]
struct GatedEvaluator {
    started: Arc<AtomicBool>,
    release: Arc<AtomicBool>,
}

impl ComponentEvaluator<Query> for GatedEvaluator {
    type Delivery = Vec<String>;
    type Error = String;

    fn evaluate(&self, queries: &[Query]) -> Result<Option<(Vec<usize>, Vec<String>)>, String> {
        if queries.iter().any(|x| x.name == "slow") && !self.release.load(Ordering::SeqCst) {
            self.started.store(true, Ordering::SeqCst);
            let deadline = Instant::now() + Duration::from_secs(30);
            while !self.release.load(Ordering::SeqCst) {
                if Instant::now() > deadline {
                    return Err("gate never released".into());
                }
                std::thread::yield_now();
            }
        }
        let provided: Vec<_> = queries.iter().flat_map(|x| x.provides.clone()).collect();
        let ok = queries.iter().all(|x| {
            x.requires
                .iter()
                .all(|r| provided.iter().any(|p| keys_related(p, r)))
        });
        if ok {
            Ok(Some((
                (0..queries.len()).collect(),
                queries.iter().map(|x| x.name.clone()).collect(),
            )))
        } else {
            Ok(None)
        }
    }
}

#[test]
fn unrelated_submitters_proceed_while_a_migration_waits() {
    let started = Arc::new(AtomicBool::new(false));
    let release = Arc::new(AtomicBool::new(false));
    let engine = Arc::new(ShardedEngine::new(
        GatedEvaluator {
            started: Arc::clone(&started),
            release: Arc::clone(&release),
        },
        4,
    ));

    // Round-robin placement: three disjoint waiters on shards 0, 1, 2.
    engine
        .submit(0, q("a", vec![("R", Some(0))], vec![("R", Some(1))]))
        .unwrap(); // shard 0
    engine
        .submit(1, q("b", vec![("R", Some(10))], vec![("R", Some(11))]))
        .unwrap(); // shard 1
    engine
        .submit(2, q("c", vec![("Y", Some(0))], vec![("Y", Some(999))]))
        .unwrap(); // shard 2

    std::thread::scope(|s| {
        // A slow evaluation pins shard 0's lock: `slow` joins a's
        // component (provides R(1)) and blocks inside the evaluator.
        let slow_engine = Arc::clone(&engine);
        let slow = s.spawn(move || {
            slow_engine
                .submit(3, q("slow", vec![("R", Some(1))], vec![("R", Some(2))]))
                .unwrap()
        });
        let spin_deadline = Instant::now() + Duration::from_secs(30);
        while !started.load(Ordering::SeqCst) {
            assert!(
                Instant::now() < spin_deadline,
                "slow evaluation never started"
            );
            std::thread::yield_now();
        }

        // A bridge between shard 0's and shard 1's components forces a
        // migration that must wait for shard 0 — held by `slow`.
        let bridge_engine = Arc::clone(&engine);
        let bridge = s.spawn(move || {
            bridge_engine
                .submit(
                    4,
                    q("bridge", vec![("R", Some(2)), ("R", Some(11))], vec![]),
                )
                .unwrap()
        });
        while engine.metrics().snapshot().migrations < 1 {
            assert!(
                Instant::now() < spin_deadline,
                "bridge never started its migration"
            );
            std::thread::yield_now();
        }
        // Give the migrator a moment to reach its blocking shard
        // acquisition (it has already marked its keys).
        std::thread::sleep(Duration::from_millis(50));

        // Unrelated submitters — different keys, different shard — must
        // make progress while both `slow` and the migration are stuck.
        let done = Arc::new(AtomicBool::new(false));
        let unrelated_engine = Arc::clone(&engine);
        let done_flag = Arc::clone(&done);
        s.spawn(move || {
            for i in 0..8 {
                let r = unrelated_engine
                    .submit(
                        100 + i as u64,
                        q("u", vec![("Y", Some(100 + i))], vec![("Y", Some(0))]),
                    )
                    .unwrap();
                assert!(!r.coordinated());
            }
            done_flag.store(true, Ordering::SeqCst);
        });
        let unrelated_deadline = Instant::now() + Duration::from_secs(10);
        while !done.load(Ordering::SeqCst) {
            if Instant::now() > unrelated_deadline {
                // Unblock everything so the harness reports the failure
                // instead of hanging.
                release.store(true, Ordering::SeqCst);
                panic!("unrelated submitters stalled behind a waiting migration");
            }
            std::thread::yield_now();
        }
        // The migration is still in flight (the gate is still closed):
        // progress happened *during* it, not after.
        assert!(!release.load(Ordering::SeqCst));

        // Release the gate: slow finishes, the migration completes, and
        // the bridge coordinates the merged component.
        release.store(true, Ordering::SeqCst);
        let slow_result = slow.join().unwrap();
        assert!(!slow_result.coordinated());
        let bridge_result = bridge.join().unwrap();
        assert!(bridge_result.coordinated(), "migrated component lost");
        let mut names: Vec<String> = bridge_result
            .retired
            .iter()
            .map(|(_, x)| x.name.clone())
            .collect();
        names.sort_unstable();
        assert_eq!(names, vec!["a", "b", "bridge", "slow"]);
    });

    // The unrelated waiters (and c) are still pending; nothing leaked.
    assert_eq!(engine.pending_count(), 9);
    assert_eq!(engine.metrics().snapshot().migrations, 1);
}

/// Saturation semantics with two gates: a query named `bridge` blocks
/// until released and is then rejected; a component containing `wake`
/// blocks until released (pinning its shard's lock).
#[derive(Clone)]
struct RollbackEvaluator {
    bridge_entered: Arc<AtomicBool>,
    release_bridge: Arc<AtomicBool>,
    wake_entered: Arc<AtomicBool>,
    release_wake: Arc<AtomicBool>,
}

impl ComponentEvaluator<Query> for RollbackEvaluator {
    type Delivery = Vec<String>;
    type Error = String;

    fn evaluate(&self, queries: &[Query]) -> Result<Option<(Vec<usize>, Vec<String>)>, String> {
        let deadline = Instant::now() + Duration::from_secs(30);
        if queries.iter().any(|x| x.name == "bridge") {
            self.bridge_entered.store(true, Ordering::SeqCst);
            while !self.release_bridge.load(Ordering::SeqCst) {
                if Instant::now() > deadline {
                    return Err("bridge gate never released".into());
                }
                std::thread::yield_now();
            }
            return Err("bridge poisons the component".into());
        }
        if queries.iter().any(|x| x.name == "wake") {
            self.wake_entered.store(true, Ordering::SeqCst);
            while !self.release_wake.load(Ordering::SeqCst) {
                if Instant::now() > deadline {
                    return Err("wake gate never released".into());
                }
                std::thread::yield_now();
            }
        }
        Ok(None)
    }
}

/// Regression for the residual PR 4 bug: the rejected-bridge rollback
/// used to move components back *while holding the router write lock*,
/// so a rollback blocked on a busy source shard stalled every submitter
/// in the service. The rollback now goes through the marker-based move
/// path (mark → freeze/move under shard locks → publish), so unrelated
/// traffic keeps routing while the rollback waits.
#[test]
fn unrelated_submitters_proceed_while_a_rollback_waits() {
    let bridge_entered = Arc::new(AtomicBool::new(false));
    let release_bridge = Arc::new(AtomicBool::new(false));
    let wake_entered = Arc::new(AtomicBool::new(false));
    let release_wake = Arc::new(AtomicBool::new(false));
    let engine = Arc::new(ShardedEngine::with_placement(
        RollbackEvaluator {
            bridge_entered: Arc::clone(&bridge_entered),
            release_bridge: Arc::clone(&release_bridge),
            wake_entered: Arc::clone(&wake_entered),
            release_wake: Arc::clone(&release_wake),
        },
        4,
        Placement::RoundRobin,
    ));

    // Round-robin placement: a → shard 0, b → shard 1, three fillers →
    // shards 2, 3, 0, and v (the rollback's roadblock) → shard 1,
    // co-resident with b.
    engine
        .submit(5, q("a", vec![("R", Some(0))], vec![("R", Some(1))]))
        .unwrap();
    engine
        .submit(6, q("b", vec![("R", Some(10))], vec![("R", Some(11))]))
        .unwrap();
    engine
        .submit(7, q("f2", vec![("Z", Some(2))], vec![("Z", Some(99))]))
        .unwrap(); // shard 2 — the unrelated submitters' anchor
    engine
        .submit(8, q("f3", vec![("Z", Some(3))], vec![("Z", Some(98))]))
        .unwrap(); // shard 3
    engine
        .submit(9, q("f0", vec![("Z", Some(4))], vec![("Z", Some(97))]))
        .unwrap(); // shard 0
    engine
        .submit(10, q("v", vec![("V", Some(0))], vec![("V", Some(99))]))
        .unwrap(); // shard 1

    std::thread::scope(|s| {
        // The bridge merges a's and b's groups (migrating b's from
        // shard 1 to shard 0) and then blocks inside its evaluation.
        let bridge_engine = Arc::clone(&engine);
        let bridge = s.spawn(move || {
            bridge_engine
                .submit(
                    11,
                    q("bridge", vec![("R", Some(1)), ("R", Some(11))], vec![]),
                )
                .unwrap_err()
        });
        let spin_deadline = Instant::now() + Duration::from_secs(30);
        while !bridge_entered.load(Ordering::SeqCst) {
            assert!(Instant::now() < spin_deadline, "bridge never evaluated");
            std::thread::yield_now();
        }
        assert_eq!(engine.metrics().snapshot().migrations, 1);

        // Pin shard 1 (the rollback's destination) with a long
        // evaluation on v's — unrelated — component.
        let wake_engine = Arc::clone(&engine);
        let wake = s.spawn(move || {
            wake_engine
                .submit(12, q("wake", vec![("V", Some(99))], vec![("V", Some(0))]))
                .unwrap()
        });
        while !wake_entered.load(Ordering::SeqCst) {
            assert!(Instant::now() < spin_deadline, "wake never evaluated");
            std::thread::yield_now();
        }

        // Reject the bridge: its rollback wants to move b's group from
        // shard 0 back to shard 1 — whose lock `wake` holds.
        release_bridge.store(true, Ordering::SeqCst);
        // Wait until the rollback is demonstrably in flight (it marks
        // b's keys before touching any shard lock), then give it a
        // moment to reach the blocking shard-1 acquisition.
        std::thread::sleep(Duration::from_millis(50));

        // Unrelated submitters — keys anchored to shard 2 — must make
        // progress while the rollback waits. Before the fix, the
        // rollback held the router write lock here and every one of
        // these stalled for the duration of the wake evaluation.
        let done = Arc::new(AtomicBool::new(false));
        let unrelated_engine = Arc::clone(&engine);
        let done_flag = Arc::clone(&done);
        s.spawn(move || {
            for i in 0..8 {
                let r = unrelated_engine
                    .submit(
                        200 + i as u64,
                        q("u", vec![("Z", Some(200 + i))], vec![("Z", Some(2))]),
                    )
                    .unwrap();
                assert!(!r.coordinated());
            }
            done_flag.store(true, Ordering::SeqCst);
        });
        let unrelated_deadline = Instant::now() + Duration::from_secs(10);
        while !done.load(Ordering::SeqCst) {
            if Instant::now() > unrelated_deadline {
                release_wake.store(true, Ordering::SeqCst);
                panic!("unrelated submitters stalled behind a waiting rollback");
            }
            std::thread::yield_now();
        }
        // The rollback is still blocked (the wake gate is closed):
        // progress happened *during* it.
        assert!(!release_wake.load(Ordering::SeqCst));

        // Release the roadblock: the rollback completes and the
        // rejected bridge returns its error.
        release_wake.store(true, Ordering::SeqCst);
        let err = bridge.join().unwrap();
        assert!(err.contains("poisons"));
        assert!(!wake.join().unwrap().coordinated());
    });

    // Everything is still pending (a, b, f2, f3, f0, v, wake, u×8 =
    // 15 queries — the rejected bridge is not), and the merge was
    // undone: one query migrated out for the merge, one moved back by
    // the rollback.
    assert_eq!(engine.pending_count(), 15);
    assert_eq!(engine.metrics().snapshot().migrations, 1);
    let stats = engine.shard_stats();
    let moved_out: u64 = stats.iter().map(|s| s.migrated_out).sum();
    let moved_in: u64 = stats.iter().map(|s| s.migrated_in).sum();
    assert_eq!(
        (moved_out, moved_in),
        (2, 2),
        "rollback did not move the group back: {stats:?}"
    );
    // Reaching b's group afterwards needs no migration: its routing
    // was restored along with the move.
    let before = engine.metrics().snapshot().migrations;
    engine
        .submit(13, q("w", vec![("R", Some(11))], vec![("R", Some(10))]))
        .unwrap();
    assert_eq!(engine.metrics().snapshot().migrations, before);
}
