//! Per-component sharding: concurrent submitters touching disjoint
//! components proceed in parallel instead of serializing behind one
//! engine mutex.
//!
//! ## Design
//!
//! Each shard owns an [`IncrementalEngine`] behind its own mutex. A
//! read-mostly **routing table** (an [`OrderedRwLock`]) maps every key
//! pattern held by a pending query to the shard that owns it, with the
//! invariant that *all holders of related keys are co-sharded* — so any
//! two queries that could ever coordinate always meet inside one shard.
//!
//! * A query whose keys are unclaimed is **placed**: on the least-loaded
//!   shard by default ([`Placement::LeastLoaded`], ties broken
//!   round-robin so an idle engine degenerates to round-robin), or
//!   strictly round-robin ([`Placement::RoundRobin`]). The routing table
//!   stays the single source of truth either way — placement only picks
//!   where a *fresh* component lands; lookups remain exact.
//! * A query whose keys hit one shard is routed there.
//! * A query bridging several shards triggers a **migration**: the
//!   bridged components are moved to one target shard before the query
//!   lands.
//!
//! Skewed workloads (a hot relation with Zipf-distributed keys) can
//! still pile expensive components onto one shard; the
//! [`crate::rebalance::Rebalancer`] detects that from the per-shard
//! load stats and moves victim components — picked by observed cost
//! from the hot shard's [`IncrementalEngine::component_groups`] — to
//! colder shards through [`ShardedEngine::rebalance_group`], which
//! reuses the same marker-based migration protocol as bridging queries.
//!
//! ## Layout
//!
//! This file holds the engine, its shards, placement and the submit
//! entry points. Two submodules hold the two seams:
//!
//! * `router` — the routing table (`Router`): key → shard with
//!   reference counts, the per-relation shard index wildcard lookups
//!   use, and the migration marks. Its fields are private; the engine
//!   reads it through its methods.
//! * `migrate` — the migration protocol below: claiming a route
//!   (`claim`), the mark → freeze → move → publish steps
//!   (`execute_migration`), rebalancer moves
//!   ([`ShardedEngine::rebalance_group`]), the post-lock claim check
//!   (`with_owned_shard`) and the rollback of a rejected bridge
//!   (`finish`).
//!
//! ## Migration protocol (marker-based)
//!
//! A migration must not hold the router write lock while it waits for
//! shard locks or scans shard slabs — that would stall every unrelated
//! submitter for the duration of a possibly long component evaluation.
//! Instead the router keeps a set of **migrating key markers**:
//!
//! 1. *Mark* (router write, brief): every registered key related to the
//!    bridging query's keys is marked. Routing and shard-side validation
//!    treat marked keys as "in flux": submitters touching them back off
//!    and retry, submitters touching anything else proceed.
//! 2. *Freeze* (no router lock): each source shard's slab is scanned —
//!    under that shard's lock alone — for the transitive key closure of
//!    the marked set; newly found keys are marked too (brief router
//!    writes) until a fixed point. Once the whole closure is marked, no
//!    new query can join the components being moved, and no in-flight
//!    claimant can slip in: a claimant validates its keys against the
//!    marker set *after* taking its shard lock, so it either landed
//!    before the freeze (and is seen by the scan) or backs off.
//! 3. *Move* (no router lock): extract the closure from each source
//!    shard and insert it into the target, taking one shard lock at a
//!    time.
//! 4. *Publish* (router write, brief): point every closure key at the
//!    target and lift the marks.
//!
//! ## Lock discipline
//!
//! The router write lock is only ever held for in-memory table work —
//! never while blocking on a shard lock or scanning a slab. That
//! includes the rejected-bridge rollback, which goes back through the
//! same marker-based move path as a forward migration (mark → freeze →
//! move under shard locks → publish) instead of holding the router
//! write lock across the whole undo. Threads
//! holding a shard lock only ever poll the router with non-blocking
//! `try_read` and back off on failure, so the two lock levels cannot
//! deadlock. Migrations (bridge-driven, rollback, and rebalancer moves
//! alike) take shard locks one at a time with no router lock held, and
//! are **serialized** on a dedicated migration lock (acquired with no
//! other lock held, except by a rebalance pass): seeds that look
//! disjoint can still grow colliding transitive closures, and
//! one-at-a-time execution keeps the marker set owned by exactly one
//! migration. Unrelated submitters never touch
//! that lock.
//!
//! ## Lock ordering
//!
//! The prose above is *checked*, not just documented: every lock here
//! is an ordered lock of [`crate::lock_order`], whose DAG for this
//! module is
//!
//! ```text
//! Rebalancer → Migration → Router,  Migration → ShardEngine,  Rebalancer → ShardEngine
//! ShardEngine → LogBuf   (the durable layer's commit hook, see `submit_with_hook`)
//! ```
//!
//! Public methods start from the root context; private helpers take
//! their caller's, so acquiring against the DAG does not compile. There
//! is no `Router → ShardEngine` edge, which is what keeps slab scans out
//! from under the router lock, and no `ShardEngine → ShardEngine` edge,
//! so a migration moves queries one shard lock at a time. Shard-lock
//! holders poll the router with `try_read` only, which needs no edge: a
//! thread that backs off on failure cannot close a deadlock cycle. The
//! mark gate's wait demands the root context, so nobody parks while
//! holding a guard.
//!
//! Submitters whose keys *are* mid-migration park on a condvar-backed
//! mark gate that the migration notifies when it lifts its marks —
//! so a wait bounded by a long component evaluation costs wake-up
//! latency, not blind-sleep latency (the `migration_backoffs` metric
//! still counts every wait round).

use crate::engine::{
    ComponentEvaluator, ComponentGroup, CoordinationQuery, IncrementalEngine, SubmitOutcome,
};
use crate::index::KeyPattern;
use crate::lock_order::{
    self, Guard, LockAfter, LockCtx, MarkGate, OrderedMutex, OrderedRwLock, Unlocked,
};
use crate::metrics::{EngineMetrics, ShardStats, ShardStatsSnapshot};
use crate::rebalance::{RebalanceConfig, RebalanceReport, Rebalancer};
use coord_obs::{Gauge, Histogram, Registry, TraceCtx, Tracer};
use migrate::MigrationRecord;
use router::Router;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, MutexGuard};

mod migrate;
mod router;

/// How a query whose keys are unclaimed picks its shard.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Placement {
    /// Cycle through shards regardless of load.
    RoundRobin,
    /// Place on the shard with the least observed load
    /// ([`ShardStats::load_score`]: submits + evaluation work), ties
    /// broken round-robin — an idle engine behaves exactly like
    /// [`Placement::RoundRobin`].
    #[default]
    LeastLoaded,
}

struct Shard<Q: CoordinationQuery, V> {
    engine: OrderedMutex<lock_order::ShardEngine, IncrementalEngine<Q, V>>,
    /// Shared with the shard's engine (which records its evaluation
    /// work here) and read lock-free by placement and the rebalancer.
    stats: Arc<ShardStats>,
    /// Queue-depth gauge (`shard_pending_<i>`): the shard's pending-set
    /// size, refreshed after every mutation under the shard lock.
    pending_gauge: Gauge,
}

/// The engine's observability handles: one registry plus the latency
/// histograms and tracer every shard records into. Histograms and
/// tracer are inert (a branch per call, no clock reads) when the
/// registry is disabled; the [`EngineMetrics`] counters count either
/// way.
pub(crate) struct EngineObs {
    registry: Registry,
    /// End-to-end submit latency (routing + lock + evaluate + commit).
    pub(crate) submit_hist: Histogram,
    /// Nanoseconds submitters spent blocked on a contended shard lock.
    pub(crate) lock_wait_hist: Histogram,
    /// Duration of one marker-based migration (freeze + move + publish).
    pub(crate) migration_hist: Histogram,
    /// Duration of one rebalancer detection + move pass.
    pub(crate) rebalance_hist: Histogram,
    /// Submits currently inside the engine (`engine_inflight` gauge) —
    /// the admission-control signal the ROADMAP's async front-end
    /// consumes alongside the per-shard queue depths.
    pub(crate) inflight: Gauge,
    pub(crate) tracer: Tracer,
}

impl EngineObs {
    fn new(registry: Registry) -> Self {
        EngineObs {
            submit_hist: registry.histogram("engine_submit_nanos"),
            lock_wait_hist: registry.histogram("engine_lock_wait_nanos"),
            migration_hist: registry.histogram("engine_migration_nanos"),
            rebalance_hist: registry.histogram("engine_rebalance_nanos"),
            inflight: registry.gauge("engine_inflight"),
            tracer: registry.tracer(),
            registry,
        }
    }
}

/// Guard holding the `engine_inflight` gauge up by one for the duration
/// of one submit.
struct InflightGuard<'a>(&'a Gauge);

impl<'a> InflightGuard<'a> {
    fn enter(gauge: &'a Gauge) -> Self {
        gauge.incr();
        InflightGuard(gauge)
    }
}

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        self.0.decr();
    }
}

/// The sharded online coordination service: replaces the pre-incremental
/// `SharedEngine`'s single global mutex with per-component shards.
pub struct ShardedEngine<Q: CoordinationQuery, V> {
    shards: Vec<Shard<Q, V>>,
    router: OrderedRwLock<lock_order::Router, Router<Q::Rel, Q::Cst>>,
    metrics: Arc<EngineMetrics>,
    placement: Placement,
    next_shard: AtomicUsize,
    /// Serializes migrations. Two migrations whose *seeds* look
    /// unrelated can still grow colliding transitive closures; running
    /// them one at a time means the marker set always belongs to
    /// exactly one in-flight migration — which is what lets `mark`
    /// skip dedup and `unmark` clear wholesale. Migrations are rare;
    /// unrelated submitters never touch this lock.
    migration_lock: OrderedMutex<lock_order::Migration, ()>,
    /// Wakes submitters parked on migration marks when a migration
    /// publishes and lifts them.
    mark_gate: MarkGate,
    /// Skew correction state (see [`Self::rebalance`]): the one owner of
    /// the load watermarks, so concurrent passes serialize here.
    rebalancer: OrderedMutex<lock_order::Rebalancer, Rebalancer>,
    /// Registry-backed histograms and tracer (see [`EngineObs`]).
    obs: EngineObs,
}

impl<Q: CoordinationQuery, V: ComponentEvaluator<Q> + Clone> ShardedEngine<Q, V> {
    /// A service with `shards` shards, each evaluating components with a
    /// clone of `evaluator`, placing fresh components least-loaded.
    pub fn new(evaluator: V, shards: usize) -> Self {
        Self::with_placement(evaluator, shards, Placement::default())
    }

    /// A service with an explicit placement policy for fresh components
    /// and its own enabled observability registry.
    pub fn with_placement(evaluator: V, shards: usize, placement: Placement) -> Self {
        Self::with_obs(evaluator, shards, placement, Registry::new())
    }

    /// A service recording into an explicit observability registry —
    /// shared with other layers (the durable store threads one registry
    /// through engine, WAL and database), or [`Registry::disabled`] to
    /// compile the histograms and tracer down to a branch per call.
    pub fn with_obs(evaluator: V, shards: usize, placement: Placement, registry: Registry) -> Self {
        assert!(shards > 0, "at least one shard required");
        let obs = EngineObs::new(registry);
        let metrics = Arc::new(EngineMetrics::new());
        metrics.register(&obs.registry);
        let shards = (0..shards)
            .map(|i| {
                let stats = Arc::new(ShardStats::default());
                let mut engine =
                    IncrementalEngine::with_metrics(evaluator.clone(), Arc::clone(&metrics));
                engine.set_shard_stats(Arc::clone(&stats));
                engine.set_tracer(obs.tracer.clone());
                Shard {
                    engine: OrderedMutex::new(engine),
                    stats,
                    pending_gauge: obs.registry.gauge(&format!("shard_pending_{i}")),
                }
            })
            .collect();
        ShardedEngine {
            shards,
            router: OrderedRwLock::new(Router::new()),
            metrics,
            placement,
            next_shard: AtomicUsize::new(0),
            migration_lock: OrderedMutex::new(()),
            mark_gate: MarkGate::new(),
            rebalancer: OrderedMutex::new(Rebalancer::new(RebalanceConfig::default())),
            obs,
        }
    }
}

impl<Q: CoordinationQuery, V: ComponentEvaluator<Q>> ShardedEngine<Q, V> {
    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Aggregated metrics across all shards.
    pub fn metrics(&self) -> &Arc<EngineMetrics> {
        &self.metrics
    }

    /// The observability registry this engine records into: counters,
    /// submit-latency / lock-wait / migration / rebalance histograms,
    /// and the trace ring.
    pub fn obs(&self) -> &Registry {
        &self.obs.registry
    }

    /// The engine's recording handles (crate-internal: the rebalancer
    /// times its passes through these).
    pub(crate) fn obs_handles(&self) -> &EngineObs {
        &self.obs
    }

    /// Per-shard load and contention statistics.
    pub fn shard_stats(&self) -> Vec<ShardStatsSnapshot> {
        self.shards.iter().map(|s| s.stats.snapshot()).collect()
    }

    /// The placement policy for fresh components.
    pub fn placement(&self) -> Placement {
        self.placement
    }

    /// Component groups (keys, size, observed cost) currently resident
    /// on `shard`, scanned under that shard's lock only — the
    /// rebalancer's victim-selection input.
    pub(crate) fn shard_component_groups_in<A>(
        &self,
        ctx: &mut LockCtx<'_, A>,
        shard: usize,
    ) -> Vec<ComponentGroup<Q::Rel, Q::Cst>>
    where
        lock_order::ShardEngine: LockAfter<A>,
    {
        self.shards[shard].engine.lock(ctx).0.component_groups()
    }

    /// Pick the shard a fresh component lands on.
    fn place(&self) -> usize {
        match self.placement {
            Placement::RoundRobin => {
                self.next_shard.fetch_add(1, Ordering::Relaxed) % self.shards.len()
            }
            Placement::LeastLoaded => {
                let mut min = u64::MAX;
                let mut coldest: Vec<usize> = Vec::with_capacity(self.shards.len());
                for (i, shard) in self.shards.iter().enumerate() {
                    let load = shard.stats.load_score();
                    match load.cmp(&min) {
                        std::cmp::Ordering::Less => {
                            min = load;
                            coldest.clear();
                            coldest.push(i);
                        }
                        std::cmp::Ordering::Equal => coldest.push(i),
                        std::cmp::Ordering::Greater => {}
                    }
                }
                coldest[self.next_shard.fetch_add(1, Ordering::Relaxed) % coldest.len()]
            }
        }
    }

    /// Take a shard's engine lock, recording contention and lock-wait
    /// time when it is already held.
    fn lock_shard<'a>(
        &'a self,
        ctx: &'a mut LockCtx<'_, Unlocked>,
        shard: &'a Shard<Q, V>,
    ) -> (
        Guard<MutexGuard<'a, IncrementalEngine<Q, V>>>,
        LockCtx<'a, lock_order::ShardEngine>,
    ) {
        let (guard, ctx, waited) = shard.engine.lock_timed(ctx);
        if let Some(waited) = waited {
            let waited = waited.as_nanos() as u64;
            EngineMetrics::add(&shard.stats.contended, 1);
            EngineMetrics::add(&shard.stats.lock_wait_nanos, waited);
            self.obs.lock_wait_hist.record(waited);
            self.obs
                .tracer
                .instant_in(TraceCtx::current(), "lock_wait", waited);
        }
        (guard, ctx)
    }

    /// Total pending queries across shards.
    pub fn pending_count(&self) -> usize {
        let mut ctx = LockCtx::root();
        self.shards
            .iter()
            .map(|s| s.engine.lock(&mut ctx).0.pending_count())
            .sum()
    }

    /// Total maintained components across shards.
    pub fn component_count(&self) -> usize {
        let mut ctx = LockCtx::root();
        self.shards
            .iter()
            .map(|s| s.engine.lock(&mut ctx).0.component_count())
            .sum()
    }

    /// Total queries answered and retired.
    pub fn delivered(&self) -> u64 {
        self.metrics.delivered.get()
    }

    /// Clones of all pending queries with their ids (shard by shard; a
    /// moving snapshot under concurrent submits).
    pub fn pending(&self) -> Vec<(u64, Q)> {
        let mut ctx = LockCtx::root();
        let mut out = Vec::new();
        for s in &self.shards {
            out.extend(
                s.engine
                    .lock(&mut ctx)
                    .0
                    .pending()
                    .map(|(id, q)| (id, q.clone())),
            );
        }
        out
    }

    /// One skew-correction pass: detect a hot shard from the per-shard
    /// load windows and move its costliest component groups to colder
    /// shards via the marker-based migration protocol (related traffic
    /// backs off briefly, unrelated traffic never blocks). Safe to call
    /// from any thread at any time — rebalancing never changes a
    /// coordination result (see `tests/equivalence_props.rs`).
    pub fn rebalance(&self) -> RebalanceReport {
        let mut root = LockCtx::root();
        let (mut rebalancer, mut ctx) = self.rebalancer.lock(&mut root);
        rebalancer.run(&mut ctx, self)
    }

    /// Replace the rebalancer's tuning (and reset its load watermarks).
    /// The default is conservative; tests and small deployments can
    /// lower the window/threshold so passes trigger on light traffic.
    pub fn set_rebalance_config(&self, config: RebalanceConfig) {
        *self.rebalancer.lock(&mut LockCtx::root()).0 = Rebalancer::new(config);
    }

    /// Check every shard's internal consistency (slab, index,
    /// union-find, membership), each under its own shard lock.
    ///
    /// # Panics
    /// Panics with a description if an invariant is violated.
    pub fn validate_invariants(&self) {
        let mut ctx = LockCtx::root();
        for s in &self.shards {
            s.engine.lock(&mut ctx).0.validate_invariants();
        }
    }

    /// Submit a query: route it to the shard owning its keys (migrating
    /// bridged components first if it spans shards), then run the
    /// incremental submit under that shard's lock only. `id` names the
    /// query while it is pending — across every migration — and when it
    /// retires.
    pub fn submit(&self, id: u64, query: Q) -> Result<SubmitOutcome<Q, V::Delivery>, V::Error> {
        self.submit_with_hook(id, query, |_, _| {})
    }

    /// Like [`Self::submit`], running `on_commit` under the shard guard
    /// once the submit is accepted. The durable layer appends the
    /// commit record there: any later submit that retires this query
    /// runs under the same guard (or under the guard of the shard a
    /// migration moved it to, which took this one first), so its record
    /// lands after this one. The context admits only `LogBuf`, never a
    /// lock held across I/O.
    pub fn submit_with_hook(
        &self,
        id: u64,
        query: Q,
        on_commit: impl FnOnce(
            &mut LockCtx<'_, lock_order::ShardEngine>,
            &SubmitOutcome<Q, V::Delivery>,
        ),
    ) -> Result<SubmitOutcome<Q, V::Delivery>, V::Error> {
        // One TraceCtx per submit: allocated here unless an enclosing
        // layer (the durable engine) already installed the request's
        // context on this thread, in which case the ticket nests.
        let _ticket = self.obs.tracer.ticket("submit");
        let _inflight = InflightGuard::enter(&self.obs.inflight);
        let _timer = self.obs.submit_hist.start();
        let mut ctx = LockCtx::root();
        let qkeys = route_keys(&query);
        let mut migrated: MigrationRecord<Q> = Vec::new();
        let target = self.claim(&mut ctx, &qkeys, &mut migrated, true);
        let outcome = self.with_owned_shard(
            &mut ctx,
            &qkeys,
            target,
            &mut migrated,
            true,
            |e, engine_ctx| {
                let outcome = e.submit(id, query);
                if let Ok(out) = &outcome {
                    on_commit(engine_ctx, out);
                }
                outcome
            },
        );
        self.finish(&mut ctx, &qkeys, migrated, outcome)
    }

    /// Insert a query that is known to be stable-pending — recovered
    /// from the durable store's log, where it demonstrably did not
    /// coordinate — routing it like a submit but skipping evaluation.
    pub fn insert_pending(&self, id: u64, query: Q) {
        let mut ctx = LockCtx::root();
        let qkeys = route_keys(&query);
        let mut migrated: MigrationRecord<Q> = Vec::new();
        let target = self.claim(&mut ctx, &qkeys, &mut migrated, true);
        self.with_owned_shard(&mut ctx, &qkeys, target, &mut migrated, false, |e, _| {
            e.insert_pending(id, query);
        });
    }
}

/// A query's deduplicated routing keys: every provided and required key
/// pattern.
fn route_keys<Q: CoordinationQuery>(q: &Q) -> Vec<KeyPattern<Q::Rel, Q::Cst>> {
    let mut keys = q.provides();
    for k in q.requires() {
        if !keys.contains(&k) {
            keys.push(k);
        }
    }
    // Dedup the provides side too (keys are Hash+Eq, not Ord).
    let mut out: Vec<KeyPattern<Q::Rel, Q::Cst>> = Vec::with_capacity(keys.len());
    for k in keys {
        if !out.contains(&k) {
            out.push(k);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::{chain_query, SaturationEvaluator, TestQuery};
    use std::sync::atomic::AtomicU64;
    use std::time::{Duration, Instant};

    #[test]
    fn disjoint_chains_land_on_distinct_shards() {
        let engine = ShardedEngine::new(SaturationEvaluator, 4);
        // Four disjoint waiting pairs → round-robin over all shards.
        for g in 0..4 {
            engine
                .submit(2 * g as u64, chain_query(100 * g, Some(100 * g + 1)))
                .unwrap();
        }
        assert_eq!(engine.pending_count(), 4);
        let stats = engine.shard_stats();
        assert!(stats.iter().all(|s| s.submits == 1), "{stats:?}");
        // Completing each chain coordinates within its shard.
        for g in 0..4 {
            let r = engine
                .submit(2 * g as u64 + 1, chain_query(100 * g + 1, None))
                .unwrap();
            assert!(r.coordinated());
        }
        assert_eq!(engine.pending_count(), 0);
        assert_eq!(engine.delivered(), 8);
    }

    /// The concurrency proof: two submitters to disjoint components must
    /// both be *inside* component evaluation at the same time. A
    /// single-mutex engine would serialize them and time out.
    #[test]
    fn disjoint_submitters_evaluate_concurrently() {
        #[derive(Clone)]
        struct Rendezvous(Arc<AtomicU64>);
        impl ComponentEvaluator<TestQuery> for Rendezvous {
            type Delivery = ();
            type Error = String;
            fn evaluate(&self, _queries: &[TestQuery]) -> Result<Option<(Vec<usize>, ())>, String> {
                self.0.fetch_add(1, Ordering::SeqCst);
                let deadline = Instant::now() + Duration::from_secs(10);
                while self.0.load(Ordering::SeqCst) < 2 {
                    if Instant::now() > deadline {
                        return Err("no concurrent evaluation within 10s".into());
                    }
                    std::thread::yield_now();
                }
                Ok(None)
            }
        }

        let inside = Arc::new(AtomicU64::new(0));
        let engine = ShardedEngine::new(Rendezvous(Arc::clone(&inside)), 2);
        std::thread::scope(|s| {
            let e1 = &engine;
            let e2 = &engine;
            let t1 = s.spawn(move || e1.submit(0, chain_query(0, Some(1))));
            let t2 = s.spawn(move || e2.submit(1, chain_query(100, Some(101))));
            t1.join().unwrap().expect("first submitter");
            t2.join().unwrap().expect("second submitter");
        });
        assert_eq!(inside.load(Ordering::SeqCst), 2);
        assert_eq!(engine.pending_count(), 2);
    }

    #[test]
    fn insert_pending_routes_without_evaluating() {
        let engine = ShardedEngine::new(SaturationEvaluator, 2);
        // A free query inserted as already-pending must NOT coordinate on
        // insertion (the recovery contract)…
        engine.insert_pending(0, chain_query(1, None));
        engine.insert_pending(1, chain_query(100, Some(101)));
        assert_eq!(engine.pending_count(), 2);
        assert_eq!(engine.delivered(), 0);
        // …but a later submit touching its component evaluates it.
        let r = engine.submit(2, chain_query(0, Some(1))).unwrap();
        assert!(r.coordinated());
        assert_eq!(r.retired.len(), 2);
        assert_eq!(engine.pending_count(), 1);
    }

    #[test]
    fn insert_pending_colocates_related_keys() {
        let engine = ShardedEngine::new(SaturationEvaluator, 4);
        // Recovery inserts chain members one by one; all must co-shard.
        for i in 0..5 {
            engine.insert_pending(i as u64, chain_query(i, Some(i + 1)));
        }
        let active: Vec<usize> = engine
            .shards
            .iter()
            .map(|s| s.engine.lock(&mut LockCtx::root()).0.pending_count())
            .filter(|&n| n > 0)
            .collect();
        assert_eq!(active, vec![5], "chain split across shards");
        let r = engine.submit(5, chain_query(5, None)).unwrap();
        assert!(r.coordinated());
        assert_eq!(r.retired.len(), 6);
    }

    #[test]
    fn least_loaded_placement_avoids_the_hot_shard() {
        let engine = ShardedEngine::new(SaturationEvaluator, 2);
        // Build a heavy component on one shard: a chain that every new
        // member re-evaluates.
        for i in 0..6 {
            engine
                .submit(i as u64, chain_query(i, Some(i + 1)))
                .unwrap();
        }
        let loads: Vec<u64> = engine
            .shard_stats()
            .iter()
            .map(super::super::metrics::ShardStatsSnapshot::load)
            .collect();
        let hot = usize::from(loads[0] <= loads[1]);
        // Fresh unrelated components must land on the colder shard.
        for g in 0..3 {
            let i = 1000 + 10 * g;
            engine
                .submit(i as u64, chain_query(i, Some(i + 1)))
                .unwrap();
        }
        let stats = engine.shard_stats();
        assert_eq!(
            stats[1 - hot].submits,
            3,
            "fresh components did not avoid the hot shard: {stats:?}"
        );
    }

    #[test]
    fn rebalancer_moves_costly_groups_off_the_hot_shard() {
        // Round-robin placement over 2 shards: groups alternate, so
        // pinning extra traffic on shard 0's groups creates real skew.
        let engine = ShardedEngine::with_placement(SaturationEvaluator, 2, Placement::RoundRobin);
        // Four waiting groups: 0 and 2 land on shard 0, 1 and 3 on 1.
        // Each query's id is its chain index, so a retired (id, query)
        // pair shows whether the id survived the move.
        let submit = |i: i64, next: Option<i64>| engine.submit(i as u64, chain_query(i, next));
        for g in 0..4i64 {
            submit(100 * g, Some(100 * g + 1)).unwrap();
        }
        // Grow the shard-0 groups into long chains: every submit
        // re-evaluates the whole component, so shard 0's load and the
        // groups' observed cost climb together.
        for g in [0i64, 2] {
            for i in 1..8 {
                submit(100 * g + i, Some(100 * g + i + 1)).unwrap();
            }
        }
        engine.set_rebalance_config(RebalanceConfig {
            skew_threshold: 0.7,
            min_window_load: 8,
            max_moves: 4,
        });
        let loads: Vec<u64> = engine
            .shard_stats()
            .iter()
            .map(super::super::metrics::ShardStatsSnapshot::load)
            .collect();
        assert!(loads[0] > loads[1], "setup did not skew shard 0: {loads:?}");

        let report = engine.rebalance();
        assert!(report.triggered, "{report:?}");
        assert_eq!(report.hot_shard, 0);
        assert!(report.hot_share > 0.7, "{report:?}");
        assert!(report.groups_moved >= 1, "{report:?}");
        assert!(report.queries_moved >= 8, "{report:?}");
        assert_eq!(
            engine.metrics().snapshot().rebalance_moves,
            report.groups_moved as u64
        );
        // The moved group left shard 0 whole…
        let per_shard: Vec<usize> = engine
            .shards
            .iter()
            .map(|s| s.engine.lock(&mut LockCtx::root()).0.pending_count())
            .collect();
        assert_eq!(per_shard.iter().sum::<usize>(), 18);
        assert!(
            per_shard[0] < 16 && per_shard[1] > 2,
            "nothing actually moved: {per_shard:?}"
        );
        assert!(
            engine.router.read(&mut LockCtx::root()).0.marks_lifted(),
            "marks leaked"
        );
        // …and every group still coordinates exactly as before: the
        // routing table followed the move.
        for (g, len) in [(0i64, 8i64), (1, 1), (2, 8), (3, 1)] {
            let r = submit(100 * g + len, None).unwrap();
            assert!(r.coordinated(), "group {g} lost by the rebalance");
            assert_eq!(r.retired.len() as i64, len + 1, "group {g}");
            assert!(
                r.retired.iter().all(|(id, q)| q.name == format!("q{id}")),
                "group {g} retired under foreign ids: {:?}",
                r.retired
            );
        }
        assert_eq!(engine.pending_count(), 0);

        // A balanced engine does not trigger another pass.
        let quiet = engine.rebalance();
        assert!(!quiet.triggered, "{quiet:?}");
    }
}
