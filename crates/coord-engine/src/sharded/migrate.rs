//! The sharded engine's marker-based migration protocol (mark → freeze
//! → move → publish, see the parent module's docs): claiming a route for
//! a submit, merging the components a bridging query spans, rebalancer
//! moves, the post-lock claim check and the rollback of a rejected
//! bridge.

use super::{route_keys, Router, ShardedEngine};
use crate::engine::{ComponentEvaluator, CoordinationQuery, IncrementalEngine, SubmitOutcome};
use crate::index::KeyPattern;
use crate::lock_order::{self, LockAfter, LockCtx, Unlocked};
use crate::metrics::EngineMetrics;
use coord_obs::TraceCtx;
use std::collections::HashSet;
use std::time::Duration;

/// Key groups moved by migrations performed for one submission:
/// `(source shard, moved queries' keys)` — enough to undo the merges if
/// the submission is rejected.
pub(super) type MigrationRecord<Q> = Vec<(
    usize,
    Vec<KeyPattern<<Q as CoordinationQuery>::Rel, <Q as CoordinationQuery>::Cst>>,
)>;

/// A located migration seed: the keys to move plus the shard they
/// currently live on (see `ShardedEngine::seed_on_one_shard`).
type SeedPlan<Q> = (
    Vec<KeyPattern<<Q as CoordinationQuery>::Rel, <Q as CoordinationQuery>::Cst>>,
    usize,
);

/// A planned migration: the marked seed keys, the shards to drain, and
/// the shard everything lands on.
struct MigrationPlan<R, C> {
    seed: Vec<KeyPattern<R, C>>,
    sources: Vec<usize>,
    target: usize,
}

impl<Q: CoordinationQuery, V: ComponentEvaluator<Q>> ShardedEngine<Q, V> {
    /// Route `qkeys` to one shard and (optionally) claim them there,
    /// performing marker-based migrations first when the keys bridge
    /// shards. Never holds the router lock while migrating.
    pub(super) fn claim(
        &self,
        ctx: &mut LockCtx<'_, Unlocked>,
        qkeys: &[KeyPattern<Q::Rel, Q::Cst>],
        migrated: &mut MigrationRecord<Q>,
        register: bool,
    ) -> usize {
        if qkeys.is_empty() {
            return self.place();
        }
        let mut backoffs = 0u32;
        loop {
            // Sample the gate's generation *before* probing the marks:
            // a migration that publishes between the probe and the wait
            // has already bumped past the sample, so the wait returns
            // immediately (no lost wake-up).
            let mark_generation = self.mark_gate.generation();
            let plan = {
                let (mut router, _) = self.router.write(ctx);
                if router.blocked(qkeys) {
                    None
                } else {
                    let owners = router.owners_related(qkeys);
                    match owners.len() {
                        0 => {
                            let t = self.place();
                            if register {
                                for k in qkeys {
                                    router.register(k, t);
                                }
                            }
                            return t;
                        }
                        1 => {
                            let t = *owners.iter().next().unwrap();
                            if register {
                                for k in qkeys {
                                    router.register(k, t);
                                }
                            }
                            return t;
                        }
                        _ => {
                            // Bridging keys: migrate first (planned and
                            // marked under the serializing migration
                            // lock, outside this router acquisition).
                            Some(())
                        }
                    }
                }
            };
            match plan {
                None => {
                    // The in-flight migration owns (some of) our keys:
                    // wait it out without holding any lock. Migrations
                    // can span a long component evaluation, so after a
                    // few optimistic yields the waiter parks on the
                    // mark gate and is woken the instant the marks lift
                    // — a blind sleep here used to add milliseconds of
                    // idle latency on a single-CPU host after a long
                    // gate. The timeout is a safety net only.
                    EngineMetrics::add(&self.metrics.migration_backoffs, 1);
                    if backoffs < 4 {
                        std::thread::yield_now();
                    } else {
                        // Generous timeout: the condvar bump is the
                        // normal wake path, and every timeout wake
                        // re-probes the marks under the router *write*
                        // lock — a short timeout would have long-gated
                        // waiters hammering exactly the lock the
                        // marker protocol keeps free.
                        self.mark_gate
                            .wait_past(ctx, mark_generation, Duration::from_millis(50));
                    }
                    backoffs += 1;
                }
                Some(()) => self.perform_migration(ctx, qkeys, migrated),
            }
        }
    }

    /// Merge the components bridged by `qkeys` onto one shard. Runs
    /// under the serializing migration lock: the routing decision is
    /// re-made there (an earlier migration may have merged or retired
    /// everything already), the related registered keys are marked, the
    /// transitive key closure is frozen and moved, and the new routes
    /// published. Shard locks are taken one at a time; the router write
    /// lock is only held for brief table work.
    fn perform_migration(
        &self,
        ctx: &mut LockCtx<'_, Unlocked>,
        qkeys: &[KeyPattern<Q::Rel, Q::Cst>],
        migrated: &mut MigrationRecord<Q>,
    ) {
        let (_one_at_a_time, mut ctx) = self.migration_lock.lock(ctx);
        // Re-plan under the lock with fresh routing state.
        let plan = {
            let (mut router, _) = self.router.write(&mut ctx);
            let owners = router.owners_related(qkeys);
            if owners.len() <= 1 {
                return;
            }
            let target = *owners.iter().next().unwrap();
            let seed = router.registered_related(qkeys);
            router.mark(&seed);
            EngineMetrics::add(&self.metrics.migrations, 1);
            MigrationPlan {
                seed,
                sources: owners.iter().copied().filter(|&s| s != target).collect(),
                target,
            }
        };
        let (moved, _) = self.execute_migration(&mut ctx, plan.seed, &plan.sources, plan.target);
        migrated.extend(moved);
    }

    /// Freeze, move, and publish already-marked `seed` keys from
    /// `sources` onto `target`. The caller holds the migration lock and
    /// has marked `seed` under a (brief) router write; this routine
    /// never holds the router write lock while blocking on a shard lock
    /// or scanning a slab. Returns `(source, moved keys)` per drained
    /// shard — enough to undo the move — plus the number of queries
    /// moved.
    fn execute_migration(
        &self,
        ctx: &mut LockCtx<'_, lock_order::Migration>,
        mut seed: Vec<KeyPattern<Q::Rel, Q::Cst>>,
        sources: &[usize],
        target: usize,
    ) -> (MigrationRecord<Q>, usize) {
        // A migration performed on behalf of a bridging submit carries
        // that submit's trace id; rebalancer-driven moves run with no
        // current context and stay unattributed (id 0).
        let _span = self.obs.tracer.begin_in(TraceCtx::current(), "migrate");
        let _timer = self.obs.migration_hist.start();
        // Freeze: grow the marked set to the transitive key closure of
        // the components being moved. Marked keys block related routing,
        // so once a scan finds nothing new the closure can no longer
        // change. Each pass scans only the *frontier* (keys found by
        // the previous pass): components related solely to older keys
        // were already collected, and marks stop new arrivals from
        // re-relating to them — so the fixed point stays linear in the
        // closure instead of rescanning the full seed every round.
        let mut seen: HashSet<KeyPattern<Q::Rel, Q::Cst>> = seed.iter().cloned().collect();
        let mut frontier: Vec<KeyPattern<Q::Rel, Q::Cst>> = seed.clone();
        loop {
            let mut extra: Vec<KeyPattern<Q::Rel, Q::Cst>> = Vec::new();
            for &src in sources {
                // Plain lock(): a migration waiting out a long
                // evaluation is expected, and must not pollute the
                // submitter-facing contended / lock-wait signals.
                let found = self.shards[src].engine.lock(ctx).0.related_keys(&frontier);
                for k in found {
                    if seen.insert(k.clone()) {
                        extra.push(k);
                    }
                }
            }
            if extra.is_empty() {
                break;
            }
            self.router.write(ctx).0.mark(&extra);
            seed.extend(extra.iter().cloned());
            frontier = extra;
        }

        // Move: drain each source shard and refill the target, one
        // shard lock at a time, with no router lock held.
        let mut migrated: MigrationRecord<Q> = Vec::new();
        let mut queries_moved = 0usize;
        for &src in sources {
            let moved = {
                let (mut engine, _) = self.shards[src].engine.lock(ctx);
                let moved = engine.extract_related(&seed);
                self.shards[src]
                    .pending_gauge
                    .set(engine.pending_count() as u64);
                moved
            };
            if moved.is_empty() {
                continue;
            }
            queries_moved += moved.len();
            EngineMetrics::add(&self.shards[src].stats.migrated_out, moved.len() as u64);
            EngineMetrics::add(&self.shards[target].stats.migrated_in, moved.len() as u64);
            let mut moved_keys: Vec<KeyPattern<Q::Rel, Q::Cst>> = Vec::new();
            {
                let (mut tgt, _) = self.shards[target].engine.lock(ctx);
                for (id, q) in moved {
                    for k in route_keys(&q) {
                        if !moved_keys.contains(&k) {
                            moved_keys.push(k);
                        }
                    }
                    tgt.insert_pending(id, q);
                }
                self.shards[target]
                    .pending_gauge
                    .set(tgt.pending_count() as u64);
            }
            migrated.push((src, moved_keys));
        }

        // Publish: point every closure key at the target — including
        // keys claimed by in-flight submitters whose query is not
        // inserted anywhere yet; their post-lock validation sees the
        // move (or the marks) and follows — then lift the marks and
        // wake everyone parked on them.
        {
            let (mut router, _) = self.router.write(ctx);
            for k in &seed {
                router.reassign(k, target);
            }
            router.unmark(&seen);
        }
        self.mark_gate.bump();
        (migrated, queries_moved)
    }

    /// Move the component group holding `seed_keys` (and, transitively,
    /// everything key-related to it) onto `target` through the
    /// marker-based migration protocol. Used by the
    /// [`crate::rebalance::Rebalancer`]; the group is located through
    /// the routing table, so a group that retired, merged, or already
    /// moved since the caller scanned it is skipped. Returns the number
    /// of queries moved.
    pub fn rebalance_group(
        &self,
        seed_keys: &[KeyPattern<Q::Rel, Q::Cst>],
        target: usize,
    ) -> usize {
        self.rebalance_group_in(&mut LockCtx::root(), seed_keys, target)
    }

    pub(crate) fn rebalance_group_in<A>(
        &self,
        ctx: &mut LockCtx<'_, A>,
        seed_keys: &[KeyPattern<Q::Rel, Q::Cst>],
        target: usize,
    ) -> usize
    where
        lock_order::Migration: LockAfter<A>,
    {
        assert!(target < self.shards.len(), "target shard out of range");
        let (_one_at_a_time, mut ctx) = self.migration_lock.lock(ctx);
        let plan = {
            let (mut router, _) = self.router.write(&mut ctx);
            let Some((seed, source)) = Self::seed_on_one_shard(&router, seed_keys) else {
                return 0;
            };
            if source == target {
                return 0;
            }
            router.mark(&seed);
            (seed, source)
        };
        let (seed, source) = plan;
        let moved = self.execute_migration(&mut ctx, seed, &[source], target).1;
        if moved > 0 {
            EngineMetrics::add(&self.metrics.rebalance_moves, 1);
        }
        moved
    }

    /// The subset of `candidate` keys still registered **on one shard**
    /// — the shard of the first surviving key — plus that shard. The
    /// caller recorded the keys when their holders were co-sharded, but
    /// the group may have retired since and its key *patterns* been
    /// re-registered by unrelated fresh queries on several shards;
    /// moving (or republishing) a key that lives elsewhere would point
    /// the router away from that key's actual holder, so such keys are
    /// dropped from the seed rather than dragged along.
    fn seed_on_one_shard(
        router: &Router<Q::Rel, Q::Cst>,
        candidate: &[KeyPattern<Q::Rel, Q::Cst>],
    ) -> Option<SeedPlan<Q>> {
        let source = candidate.iter().find_map(|k| router.shard_of(k))?;
        let seed: Vec<KeyPattern<Q::Rel, Q::Cst>> = candidate
            .iter()
            .filter(|k| router.shard_of(k) == Some(source))
            .cloned()
            .collect();
        Some((seed, source))
    }

    /// Run `op` on the shard that owns `qkeys`, re-validating the claim
    /// after acquiring the shard lock: every key must still point at the
    /// target and none may be frozen by a migration (see the module docs
    /// for why this cannot deadlock or lose the query). `op` also gets
    /// the shard guard's context.
    pub(super) fn with_owned_shard<T>(
        &self,
        ctx: &mut LockCtx<'_, Unlocked>,
        qkeys: &[KeyPattern<Q::Rel, Q::Cst>],
        mut target: usize,
        migrated: &mut MigrationRecord<Q>,
        record_submit: bool,
        op: impl FnOnce(&mut IncrementalEngine<Q, V>, &mut LockCtx<'_, lock_order::ShardEngine>) -> T,
    ) -> T {
        let mut op = Some(op);
        loop {
            let shard = &self.shards[target];
            let (mut engine, mut engine_ctx) = self.lock_shard(ctx, shard);
            if !qkeys.is_empty() {
                // A thread holding a shard lock never blocks on the
                // router (there is no `Router` edge under `ShardEngine`);
                // on a miss both locks are released before retrying.
                let consistent = self.router.try_read(&mut engine_ctx).map(|(router, _)| {
                    qkeys.iter().all(|k| router.shard_of(k) == Some(target))
                        && !router.blocked(qkeys)
                });
                match consistent {
                    Some(true) => {}
                    Some(false) => {
                        // A migration raced our claim: follow the keys
                        // (or wait out the marks) and retry.
                        drop(engine);
                        target = self.claim(ctx, qkeys, migrated, false);
                        continue;
                    }
                    None => {
                        // A writer is active — possibly a migrator about
                        // to publish a move of our keys. Back off and
                        // retry without holding the shard lock.
                        drop(engine);
                        target = (self.router.read(ctx).0)
                            .shard_of(&qkeys[0])
                            .expect("a claimed key stays registered until finish");
                        continue;
                    }
                }
            }
            if record_submit {
                EngineMetrics::add(&shard.stats.submits, 1);
            }
            let result = (op.take().expect("op runs once"))(&mut engine, &mut engine_ctx);
            shard.pending_gauge.set(engine.pending_count() as u64);
            break result;
        }
    }

    /// Release the routing claims of whatever left the pending set — the
    /// rejected query, or the retired set — and undo a rejected bridge's
    /// migrations.
    pub(super) fn finish(
        &self,
        ctx: &mut LockCtx<'_, Unlocked>,
        qkeys: &[KeyPattern<Q::Rel, Q::Cst>],
        migrated: MigrationRecord<Q>,
        outcome: Result<SubmitOutcome<Q, V::Delivery>, V::Error>,
    ) -> Result<SubmitOutcome<Q, V::Delivery>, V::Error> {
        match outcome {
            Err(e) => {
                {
                    let (mut router, _) = self.router.write(ctx);
                    for k in qkeys {
                        router.unregister(k);
                    }
                }
                // Undo the merges performed for this submission: they
                // were justified only by the now-rejected bridging
                // query. Without this, repeated rejected bridges would
                // progressively collapse unrelated components onto one
                // shard with no way to re-split before retirement. The
                // undo is an ordinary marker-based migration back to
                // the source shard — mark under a brief router write,
                // freeze and move under shard locks only, publish —
                // NEVER a slab scan under the router write lock, so
                // unrelated submitters keep routing while a rollback
                // waits on a busy shard.
                for (src, keys) in &migrated {
                    let (_one_at_a_time, mut ctx) = self.migration_lock.lock(ctx);
                    let plan = {
                        let (mut router, _) = self.router.write(&mut ctx);
                        // The group may have (partially) retired
                        // meanwhile — follow the surviving keys to
                        // wherever they live now, dropping any key
                        // pattern that unrelated fresh queries have
                        // since re-registered on another shard (see
                        // `seed_on_one_shard`).
                        let Some((seed, cur)) = Self::seed_on_one_shard(&router, keys) else {
                            continue;
                        };
                        if cur == *src {
                            continue;
                        }
                        router.mark(&seed);
                        (seed, cur)
                    };
                    self.execute_migration(&mut ctx, plan.0, &[plan.1], *src);
                }
                Err(e)
            }
            Ok(out) => {
                if !out.retired.is_empty() {
                    let (mut router, _) = self.router.write(ctx);
                    for (_, q) in &out.retired {
                        for k in route_keys(q) {
                            router.unregister(&k);
                        }
                    }
                }
                Ok(out)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::*;
    use crate::testing::{chain_query, SaturationEvaluator, TestQuery};
    use std::time::{Duration, Instant};

    #[test]
    fn bridging_query_migrates_components_to_one_shard() {
        let engine = ShardedEngine::new(SaturationEvaluator, 2);
        // Two disjoint waiters on different shards…
        engine.submit(7, chain_query(0, Some(1))).unwrap();
        engine.submit(8, chain_query(10, Some(11))).unwrap();
        assert_eq!(engine.pending_count(), 2);
        // …bridged by a query that requires both: it provides R(1)
        // (wanted by q0) and requires R(11) (provided by nobody yet) plus
        // R(10)'s chain — make it provide 11's need and need 10.
        let bridge = TestQuery::new(
            "bridge",
            vec![("R", Some(1)), ("R", Some(11))],
            vec![("R", Some(10))],
        );
        let r = engine.submit(9, bridge).unwrap();
        // Everything is now mutually satisfied: q0 needs R(1) ✓ (bridge),
        // q10 needs R(11) ✓ (bridge), bridge needs R(10) ✓ (q10).
        assert!(r.coordinated());
        assert_eq!(r.retired.len(), 3);
        // The migrated query retired under the id it was submitted with.
        let mut retired: Vec<(u64, &str)> = r
            .retired
            .iter()
            .map(|(id, q)| (*id, q.name.as_str()))
            .collect();
        retired.sort_unstable();
        assert_eq!(retired, vec![(7, "q0"), (8, "q10"), (9, "bridge")]);
        assert_eq!(engine.pending_count(), 0);
        assert_eq!(engine.metrics().snapshot().migrations, 1);
        // All routing state was released, no marks linger.
        let mut ctx = LockCtx::root();
        let (router, _) = engine.router.read(&mut ctx);
        assert_eq!(router.key_count(), 0);
        assert!(router.marks_lifted());
    }

    #[test]
    fn rejected_bridge_rolls_back_its_migration() {
        #[derive(Clone)]
        struct RejectBridge;
        impl ComponentEvaluator<TestQuery> for RejectBridge {
            type Delivery = ();
            type Error = String;
            fn evaluate(&self, queries: &[TestQuery]) -> Result<Option<(Vec<usize>, ())>, String> {
                if queries.iter().any(|q| q.name == "bridge") {
                    Err("bridge poisons the component".into())
                } else {
                    Ok(None)
                }
            }
        }
        let engine = ShardedEngine::new(RejectBridge, 2);
        engine.submit(7, chain_query(0, Some(1))).unwrap(); // shard 0
        engine.submit(8, chain_query(10, Some(11))).unwrap(); // shard 1
                                                              // A bridge touching both groups, rejected by the evaluator: the
                                                              // phase-1 merge it forced must be undone.
        let bridge = TestQuery::new("bridge", vec![("R", Some(1)), ("R", Some(11))], vec![]);
        engine.submit(9, bridge).unwrap_err();
        assert_eq!(engine.pending_count(), 2);
        assert_eq!(engine.metrics().snapshot().migrations, 1);
        let per_shard: Vec<usize> = engine
            .shards
            .iter()
            .map(|s| s.engine.lock(&mut LockCtx::root()).0.pending_count())
            .collect();
        assert_eq!(
            per_shard.iter().filter(|&&n| n == 1).count(),
            2,
            "merge not rolled back: {per_shard:?}"
        );
        // Moved out and back, each query is still pending under its id.
        let ids: Vec<Vec<(u64, String)>> = engine
            .shards
            .iter()
            .map(|s| {
                s.engine
                    .lock(&mut LockCtx::root())
                    .0
                    .pending()
                    .map(|(id, q)| (id, q.name.clone()))
                    .collect()
            })
            .collect();
        assert_eq!(ids, vec![vec![(7, "q0".into())], vec![(8, "q10".into())]]);
        // Routing reflects the split: reaching group 0 afterwards needs
        // no further migration.
        let stats_before = engine.metrics().snapshot().migrations;
        engine
            .submit(
                10,
                TestQuery::new("w0", vec![("R", Some(99))], vec![("R", Some(0))]),
            )
            .unwrap();
        assert_eq!(
            engine.metrics().snapshot().migrations,
            stats_before,
            "no further migration needed to reach group 0"
        );
    }

    #[test]
    fn rejected_query_releases_its_keys() {
        #[derive(Clone)]
        struct AlwaysFail;
        impl ComponentEvaluator<TestQuery> for AlwaysFail {
            type Delivery = ();
            type Error = String;
            fn evaluate(&self, _queries: &[TestQuery]) -> Result<Option<(Vec<usize>, ())>, String> {
                Err("nope".into())
            }
        }
        let engine = ShardedEngine::new(AlwaysFail, 2);
        engine.submit(0, chain_query(0, Some(1))).unwrap_err();
        assert_eq!(engine.pending_count(), 0);
        assert_eq!(engine.router.read(&mut LockCtx::root()).0.key_count(), 0);
    }

    /// Regression: a rebalance seeded with a *stale* key list — the
    /// group retired and unrelated fresh queries re-registered its key
    /// patterns on different shards — must only move (and republish)
    /// the keys resident on the chosen source shard. Reassigning the
    /// foreign key would point the router away from its actual holder
    /// and silently lose the coordination.
    #[test]
    fn rebalance_group_ignores_seed_keys_owned_elsewhere() {
        let engine = ShardedEngine::with_placement(SaturationEvaluator, 3, Placement::RoundRobin);
        // Two unrelated queries holding (R,10) and (R,11) on distinct
        // shards — the same key patterns a retired group once held.
        engine
            .submit(
                0,
                TestQuery::new("a", vec![("R", Some(10))], vec![("A", Some(0))]),
            )
            .unwrap(); // shard 0
        engine
            .submit(
                1,
                TestQuery::new("b", vec![("R", Some(11))], vec![("B", Some(0))]),
            )
            .unwrap(); // shard 1
        let stale_seed = vec![("R", Some(10)), ("R", Some(11))];
        // The move relocates only shard 0's resident (a); b's key must
        // keep pointing at b's shard.
        assert_eq!(engine.rebalance_group(&stale_seed, 2), 1);
        {
            let mut ctx = LockCtx::root();
            let (router, _) = engine.router.read(&mut ctx);
            assert_eq!(router.shard_of(&("R", Some(10))), Some(2));
            assert_eq!(router.shard_of(&("R", Some(11))), Some(1));
        }
        // b is still reachable through its key: a partner requiring
        // R(11) routes to it and coordinates.
        let r = engine
            .submit(
                2,
                TestQuery::new("c", vec![("B", Some(0))], vec![("R", Some(11))]),
            )
            .unwrap();
        assert!(r.coordinated(), "b lost by the stale-seed rebalance");
        assert_eq!(r.retired.len(), 2);
    }

    #[test]
    fn rebalance_group_follows_stale_keys_and_skips_gone_groups() {
        let engine = ShardedEngine::with_placement(SaturationEvaluator, 2, Placement::RoundRobin);
        engine.submit(0, chain_query(0, Some(1))).unwrap(); // shard 0
        let keys = vec![("R", Some(0)), ("R", Some(1))];
        // Moving to its own shard is a no-op.
        assert_eq!(engine.rebalance_group(&keys, 0), 0);
        // A real move relocates the whole group.
        assert_eq!(engine.rebalance_group(&keys, 1), 1);
        let r = engine.submit(1, chain_query(1, None)).unwrap();
        assert!(r.coordinated());
        // Keys of a retired group are gone: skipped, not panicked.
        assert_eq!(engine.rebalance_group(&keys, 0), 0);
    }

    /// A submitter parked on migration marks must wake when the
    /// migration publishes — promptly via the gate, not via a blind
    /// sleep schedule (the behavior is asserted here; backoffs are
    /// counted by the benchmark's `sharded.backoffs`).
    #[test]
    fn parked_submitter_wakes_when_marks_lift() {
        use std::sync::atomic::AtomicBool;

        #[derive(Clone)]
        struct Gate {
            started: Arc<AtomicBool>,
            release: Arc<AtomicBool>,
        }
        impl ComponentEvaluator<TestQuery> for Gate {
            type Delivery = ();
            type Error = String;
            fn evaluate(&self, queries: &[TestQuery]) -> Result<Option<(Vec<usize>, ())>, String> {
                if queries.iter().any(|q| q.name == "slow") {
                    self.started.store(true, Ordering::SeqCst);
                    let deadline = Instant::now() + Duration::from_secs(30);
                    while !self.release.load(Ordering::SeqCst) {
                        assert!(Instant::now() < deadline, "gate never released");
                        std::thread::yield_now();
                    }
                }
                Ok(None)
            }
        }

        let started = Arc::new(AtomicBool::new(false));
        let release = Arc::new(AtomicBool::new(false));
        let engine = ShardedEngine::with_placement(
            Gate {
                started: Arc::clone(&started),
                release: Arc::clone(&release),
            },
            2,
            Placement::RoundRobin,
        );
        engine.submit(0, chain_query(0, Some(1))).unwrap(); // shard 0
        engine.submit(1, chain_query(10, Some(11))).unwrap(); // shard 1
        std::thread::scope(|s| {
            // Pin shard 0 with a long evaluation…
            let e = &engine;
            let slow = s.spawn(move || {
                e.submit(
                    2,
                    TestQuery::new("slow", vec![("R", Some(1))], vec![("R", Some(2))]),
                )
            });
            while !started.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
            // …so the bridge's migration marks both groups' keys and
            // then blocks waiting for shard 0.
            let bridge = s.spawn(move || {
                e.submit(
                    3,
                    TestQuery::new("bridge", vec![("R", Some(2)), ("R", Some(11))], vec![]),
                )
            });
            while e.metrics().snapshot().migrations < 1 {
                std::thread::yield_now();
            }
            std::thread::sleep(Duration::from_millis(20));
            // A submitter whose keys are marked parks on the gate.
            // R(10) belongs to the frozen closure, so this submitter
            // backs off on the marks and parks on the gate.
            let parked = s.spawn(move || {
                e.submit(
                    4,
                    TestQuery::new("parked", vec![("R", Some(99))], vec![("R", Some(10))]),
                )
            });
            while e.metrics().snapshot().migration_backoffs == 0 {
                std::thread::yield_now();
            }
            // Lift the gate: everything must drain.
            release.store(true, Ordering::SeqCst);
            slow.join().unwrap().unwrap();
            bridge.join().unwrap().unwrap();
            parked.join().unwrap().unwrap();
        });
        assert!(engine.metrics().snapshot().migration_backoffs > 0);
        assert_eq!(engine.pending_count(), 5);
    }
}
