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
//! load stats and moves victim components — picked by observed cost via
//! [`ShardedEngine::shard_component_groups`] — to colder shards through
//! [`ShardedEngine::rebalance_group`], which reuses the same
//! marker-based migration protocol as bridging queries.
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
use crate::index::{keys_related, KeyPattern};
use crate::lock_order::{
    self, Guard, LockAfter, LockCtx, MarkGate, OrderedMutex, OrderedRwLock, Unlocked,
};
use crate::metrics::{EngineMetrics, ShardStats, ShardStatsSnapshot};
use crate::rebalance::{RebalanceConfig, RebalanceReport, Rebalancer};
use coord_obs::{Gauge, Histogram, Registry, TraceCtx, Tracer};
use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, MutexGuard};
use std::time::Duration;

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

/// One key pattern's routing entry.
struct KeySlot {
    shard: usize,
    /// How many pending queries hold this key.
    refs: usize,
}

/// The routing table: key pattern → owning shard, plus the keys
/// currently frozen by the in-flight migration.
struct Router<R, C> {
    keys: HashMap<KeyPattern<R, C>, KeySlot>,
    /// relation → shard → number of distinct keys (for wildcard lookups).
    by_rel: HashMap<R, HashMap<usize, usize>>,
    /// Keys mid-migration, bucketed by relation so the `blocked` probe
    /// run by every route/validation stays proportional to the query's
    /// own keys, not to the (possibly large) frozen closure. Routing
    /// related keys backs off until the migration publishes and lifts
    /// these.
    migrating: HashMap<R, Vec<Option<C>>>,
}

impl<R: Clone + Eq + std::hash::Hash, C: Clone + Eq + std::hash::Hash> Router<R, C> {
    fn new() -> Self {
        Router {
            keys: HashMap::new(),
            by_rel: HashMap::new(),
            migrating: HashMap::new(),
        }
    }

    /// Whether any of `keys` is related to a key frozen by the
    /// in-flight migration.
    fn blocked(&self, keys: &[KeyPattern<R, C>]) -> bool {
        !self.migrating.is_empty()
            && keys.iter().any(|(rel, c)| {
                self.migrating
                    .get(rel)
                    .is_some_and(|marks| marks.iter().any(|m| m.is_none() || c.is_none() || m == c))
            })
    }

    /// Add keys to the migrating set. Migrations are serialized and
    /// dedup their closure growth, so the keys are guaranteed fresh —
    /// no membership scan is needed.
    fn mark(&mut self, keys: &[KeyPattern<R, C>]) {
        for (rel, c) in keys {
            self.migrating
                .entry(rel.clone())
                .or_default()
                .push(c.clone());
        }
    }

    fn unmark(&mut self, keys: &std::collections::HashSet<KeyPattern<R, C>>) {
        for (rel, c) in keys {
            if let Some(marks) = self.migrating.get_mut(rel) {
                if let Some(pos) = marks.iter().position(|m| m == c) {
                    marks.swap_remove(pos);
                }
                if marks.is_empty() {
                    self.migrating.remove(rel);
                }
            }
        }
    }

    /// Shards owning any key related to one of `keys`.
    fn owners_related(&self, keys: &[KeyPattern<R, C>]) -> BTreeSet<usize> {
        let mut out = BTreeSet::new();
        for key in keys {
            match &key.1 {
                Some(_) => {
                    for k in [key.clone(), (key.0.clone(), None)] {
                        if let Some(slot) = self.keys.get(&k) {
                            out.insert(slot.shard);
                        }
                    }
                }
                None => {
                    // Wildcard: every shard holding any key of the
                    // relation.
                    if let Some(shards) = self.by_rel.get(&key.0) {
                        out.extend(shards.keys().copied());
                    }
                }
            }
        }
        out
    }

    fn register(&mut self, key: &KeyPattern<R, C>, shard: usize) {
        match self.keys.get_mut(key) {
            Some(slot) => {
                debug_assert_eq!(slot.shard, shard, "key registered on two shards");
                slot.refs += 1;
            }
            None => {
                self.keys.insert(key.clone(), KeySlot { shard, refs: 1 });
                *self
                    .by_rel
                    .entry(key.0.clone())
                    .or_default()
                    .entry(shard)
                    .or_insert(0) += 1;
            }
        }
    }

    fn unregister(&mut self, key: &KeyPattern<R, C>) {
        let Some(slot) = self.keys.get_mut(key) else {
            return;
        };
        slot.refs -= 1;
        if slot.refs == 0 {
            let shard = slot.shard;
            self.keys.remove(key);
            if let Some(shards) = self.by_rel.get_mut(&key.0) {
                if let Some(n) = shards.get_mut(&shard) {
                    *n -= 1;
                    if *n == 0 {
                        shards.remove(&shard);
                    }
                }
                if shards.is_empty() {
                    self.by_rel.remove(&key.0);
                }
            }
        }
    }

    /// Point an existing key at a new shard (during migration).
    fn reassign(&mut self, key: &KeyPattern<R, C>, to: usize) {
        let Some(slot) = self.keys.get_mut(key) else {
            return;
        };
        let from = slot.shard;
        if from == to {
            return;
        }
        slot.shard = to;
        if let Some(shards) = self.by_rel.get_mut(&key.0) {
            if let Some(n) = shards.get_mut(&from) {
                *n -= 1;
                if *n == 0 {
                    shards.remove(&from);
                }
            }
            *shards.entry(to).or_insert(0) += 1;
        }
    }
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

/// Key groups moved by migrations performed for one submission:
/// `(source shard, moved queries' keys)` — enough to undo the merges if
/// the submission is rejected.
type MigrationRecord<Q> = Vec<(
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
    pub fn shard_component_groups(&self, shard: usize) -> Vec<ComponentGroup<Q::Rel, Q::Cst>> {
        self.shard_component_groups_in(&mut LockCtx::root(), shard)
    }

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

    /// Route `qkeys` to one shard and (optionally) claim them there,
    /// performing marker-based migrations first when the keys bridge
    /// shards. Never holds the router lock while migrating.
    fn claim(
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
            let seed: Vec<KeyPattern<Q::Rel, Q::Cst>> = router
                .keys
                .keys()
                .filter(|k| qkeys.iter().any(|q| keys_related(q, k)))
                .cloned()
                .collect();
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
        let source = candidate
            .iter()
            .find_map(|k| router.keys.get(k).map(|slot| slot.shard))?;
        let seed: Vec<KeyPattern<Q::Rel, Q::Cst>> = candidate
            .iter()
            .filter(|k| router.keys.get(*k).is_some_and(|slot| slot.shard == source))
            .cloned()
            .collect();
        Some((seed, source))
    }

    /// Run `op` on the shard that owns `qkeys`, re-validating the claim
    /// after acquiring the shard lock: every key must still point at the
    /// target and none may be frozen by a migration (see the module docs
    /// for why this cannot deadlock or lose the query). `op` also gets
    /// the shard guard's context.
    fn with_owned_shard<T>(
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
                    qkeys.iter().all(|k| router.keys[k].shard == target) && !router.blocked(qkeys)
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
                        target = self.router.read(ctx).0.keys[&qkeys[0]].shard;
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
    fn finish(
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
    use crate::engine::tests::{SaturationEvaluator, TestQuery};
    use std::sync::atomic::AtomicU64;
    use std::time::{Duration, Instant};

    fn chain_query(i: i64, next: Option<i64>) -> TestQuery {
        let requires = next.map(|n| ("R", Some(n))).into_iter().collect();
        TestQuery::new(format!("q{i}"), vec![("R", Some(i))], requires)
    }

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
        assert!(engine.router.read(&mut LockCtx::root()).0.keys.is_empty());
        assert!(engine
            .router
            .read(&mut LockCtx::root())
            .0
            .migrating
            .is_empty());
    }

    #[test]
    fn router_refcounts_shared_keys() {
        let engine = ShardedEngine::new(SaturationEvaluator, 2);
        // Two queries requiring the same (unprovided) key share a route
        // key and must co-shard.
        engine
            .submit(
                0,
                TestQuery::new("a", vec![("A", Some(1))], vec![("X", Some(9))]),
            )
            .unwrap();
        engine
            .submit(
                1,
                TestQuery::new("b", vec![("B", Some(1))], vec![("X", Some(9))]),
            )
            .unwrap();
        {
            let mut ctx = LockCtx::root();
            let (router, _) = engine.router.read(&mut ctx);
            let slot = &router.keys[&("X", Some(9))];
            assert_eq!(slot.refs, 2);
        }
        let stats = engine.shard_stats();
        assert_eq!(stats.iter().filter(|s| s.submits > 0).count(), 1);
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
        assert!(engine.router.read(&mut LockCtx::root()).0.keys.is_empty());
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
            engine
                .router
                .read(&mut LockCtx::root())
                .0
                .migrating
                .is_empty(),
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
            assert_eq!(router.keys[&("R", Some(10))].shard, 2);
            assert_eq!(router.keys[&("R", Some(11))].shard, 1);
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
