//! Lock order by construction: the workspace's lock DAG as types, so
//! the compiler rejects an out-of-order acquisition.
//!
//! The design follows the `lock-order` crate of Fuchsia's netstack3
//! (<https://fuchsia.googlesource.com/fuchsia/+/main/src/connectivity/network/netstack3/core/lock-order/>):
//! every lock has a zero-sized **level** type, an edge of the DAG is an
//! impl `LockAfter<A> for B` ("`B` may be acquired while `A` is the
//! level last acquired"), and acquiring a lock takes the caller's
//! [`LockCtx`] as proof of where on the DAG the thread stands.
//!
//! * [`OrderedMutex::lock`] and [`OrderedRwLock::read`]/[`write`]
//!   take `&mut LockCtx<A>` and require `L: LockAfter<A>`. They return
//!   the guard plus a `LockCtx<L>`, and **both borrow the old
//!   context**: while the guard lives, the context it came from is
//!   unusable, so the only way to acquire more is through the new
//!   context, which admits only `L`'s declared successors.
//! * A public entry point creates the root, [`LockCtx::root`]
//!   (level [`Unlocked`]); private helpers take a context from their
//!   caller.
//! * Contexts are zero-sized and the checks are compile-time: in a
//!   release build an ordered lock is a `std::sync` lock and nothing
//!   else.
//!
//! [`write`]: OrderedRwLock::write
//! [`try_read`]: OrderedRwLock::try_read
//!
//! ## The DAG
//!
//! ```text
//!   Rebalancer ──► Migration ──► Router
//!        │             │
//!        └─────────────┴──────► ShardEngine ──► LogBuf
//!                                                  ▲
//!   LogFlush ──────────────────────────────────────┘
//! ```
//!
//! Every edge is a nesting the code performs: a rebalance pass scans a
//! shard's component groups and runs migrations; a migration marks and
//! publishes under the router and freezes and moves under one shard
//! engine at a time; a durable submit appends its commit record to the
//! log buffer under the shard engine that accepted it; a group commit
//! or a rotation drains the log buffer under the log file. Every level
//! may also be taken from [`Unlocked`]. No site holds two shard engines
//! at once, and nothing is acquired under the log buffer.
//!
//! ## The four rules, as type errors
//!
//! * **L1, lock order**: acquiring a level with no declared edge from
//!   the held one fails the `LockAfter` bound.
//! * **L2, no slab scan under the router write lock**: every scan needs
//!   a shard engine, and there is no `ShardEngine: LockAfter<Router>`
//!   edge. Two bugs are why. A rejected bridge's rollback once held the
//!   router write lock while it waited on a busy shard and scanned its
//!   slab, stalling every unrelated submitter behind one evaluation;
//!   the marker-based migration protocol replaced it, and the missing
//!   edge keeps it replaced. And a shard-lock holder that blocked on
//!   the router would close a cycle with any router holder that
//!   blocked on a shard, so shard-lock holders only [`try_read`] the
//!   router.
//! * **L3, no wait while holding a foreign guard**: [`MarkGate::wait_past`]
//!   demands `&mut LockCtx<Unlocked>`, which no caller holding an
//!   ordered guard can produce, because the guard borrows it.
//! * **L4, no write or fsync under a shard lock**: a shard engine may
//!   take only `LogBuf`, under which no syscall runs; `LogFlush`, held
//!   across the write and fsync, has no edge from `ShardEngine`.
//!
//! The types cannot stop a function from calling [`LockCtx::root`]
//! while it holds a guard. Under `debug-assertions` a thread-local
//! count of live ordered guards closes that gap: creating a root
//! context while the count is not zero panics.
//!
//! ## Poisoning
//!
//! A thread that panics while holding an ordered lock does not make it
//! unusable: the next acquisition recovers the guard and sees the value
//! as the panicking thread left it. The shard engine commits a submit
//! only after evaluation returns, so an unwinding evaluator leaves the
//! engine's pending set as it was (the submit's routing claims are not
//! rolled back).
//!
//! ## Leaves
//!
//! [`MarkGate`]'s mutex and condvar and `DurableShardedEngine`'s
//! `snapshot_error` mutex stay private `std::sync` locks with the same
//! recover-on-poison policy. Their guards never leave one method and
//! nothing is called while they are held, so they cannot take part in
//! a cycle.
//!
//! ## Examples
//!
//! Each rule below is a `compile_fail` test paired with a twin that
//! differs only in the violation and compiles.
//!
//! L1: `Migration` may not be acquired under `Router`.
//!
//! ```compile_fail,E0277
//! use coord_engine::lock_order::{LockCtx, Migration, OrderedMutex, OrderedRwLock, Router};
//! let migration = OrderedMutex::<Migration, ()>::new(());
//! let router = OrderedRwLock::<Router, u32>::new(0);
//! let mut root = LockCtx::root();
//! let (_routes, mut ctx) = router.write(&mut root);
//! let (_one_at_a_time, _) = migration.lock(&mut ctx);
//! ```
//!
//! ```
//! use coord_engine::lock_order::{LockCtx, Migration, OrderedMutex, OrderedRwLock, Router};
//! let migration = OrderedMutex::<Migration, ()>::new(());
//! let router = OrderedRwLock::<Router, u32>::new(0);
//! let mut root = LockCtx::root();
//! let (_one_at_a_time, mut ctx) = migration.lock(&mut root);
//! let (_routes, _) = router.write(&mut ctx);
//! ```
//!
//! L2: a shard engine may not be locked while a router write guard is
//! live.
//!
//! ```compile_fail,E0277
//! use coord_engine::lock_order::{LockCtx, OrderedMutex, OrderedRwLock, Router, ShardEngine};
//! let router = OrderedRwLock::<Router, u32>::new(0);
//! let shard = OrderedMutex::<ShardEngine, u32>::new(7);
//! let mut root = LockCtx::root();
//! let (mut routes, mut ctx) = router.write(&mut root);
//! let (engine, _) = shard.lock(&mut ctx);
//! *routes = *engine;
//! ```
//!
//! ```
//! use coord_engine::lock_order::{LockCtx, OrderedMutex, OrderedRwLock, Router, ShardEngine};
//! let router = OrderedRwLock::<Router, u32>::new(0);
//! let shard = OrderedMutex::<ShardEngine, u32>::new(7);
//! let mut root = LockCtx::root();
//! let (engine, _) = shard.lock(&mut root);
//! let seen = *engine;
//! drop(engine);
//! let (mut routes, _) = router.write(&mut root);
//! *routes = seen;
//! ```
//!
//! L3: no wait on the mark gate while a guard is held.
//!
//! ```compile_fail,E0499
//! use coord_engine::lock_order::{LockCtx, MarkGate, OrderedRwLock, Router};
//! use std::time::Duration;
//! let router = OrderedRwLock::<Router, u32>::new(0);
//! let gate = MarkGate::new();
//! let mut root = LockCtx::root();
//! let seen = gate.generation();
//! let (routes, _) = router.read(&mut root);
//! gate.wait_past(&mut root, seen, Duration::ZERO);
//! drop(routes);
//! ```
//!
//! ```
//! use coord_engine::lock_order::{LockCtx, MarkGate, OrderedRwLock, Router};
//! use std::time::Duration;
//! let router = OrderedRwLock::<Router, u32>::new(0);
//! let gate = MarkGate::new();
//! let mut root = LockCtx::root();
//! let seen = gate.generation();
//! let (routes, _) = router.read(&mut root);
//! drop(routes);
//! gate.wait_past(&mut root, seen, Duration::ZERO);
//! ```
//!
//! L4: the log file, which a group commit holds across its write and
//! fsync, may not be locked under a shard engine; the log buffer may.
//!
//! ```compile_fail,E0277
//! use coord_engine::lock_order::{LockCtx, LogFlush, OrderedMutex, ShardEngine};
//! let shard = OrderedMutex::<ShardEngine, u8>::new(7);
//! let log = OrderedMutex::<LogFlush, Vec<u8>>::new(Vec::new());
//! let mut root = LockCtx::root();
//! let (engine, mut ctx) = shard.lock(&mut root);
//! let (mut file, _) = log.lock(&mut ctx);
//! file.push(*engine);
//! ```
//!
//! ```
//! use coord_engine::lock_order::{LockCtx, LogBuf, OrderedMutex, ShardEngine};
//! let shard = OrderedMutex::<ShardEngine, u8>::new(7);
//! let log = OrderedMutex::<LogBuf, Vec<u8>>::new(Vec::new());
//! let mut root = LockCtx::root();
//! let (engine, mut ctx) = shard.lock(&mut root);
//! let (mut tail, _) = log.lock(&mut ctx);
//! tail.push(*engine);
//! ```

use std::marker::PhantomData;
use std::ops::{Deref, DerefMut};
use std::sync::{
    Condvar, LockResult, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard,
    TryLockError,
};
use std::time::{Duration, Instant};

/// The level of a thread that holds no ordered lock: the root of the
/// DAG, from which every level may be acquired.
pub enum Unlocked {}

/// `Self` may be acquired while `A` is the level last acquired.
/// Implemented for this crate's levels only by the `lock_dag!`
/// invocation below.
pub trait LockAfter<A> {}

/// Declares one level type per lock and the DAG's edges in one place:
/// `A => B, C;` makes `B` and `C` acquirable under `A`. Levels are
/// listed in a topological order (every edge points down the list),
/// which the `dag_is_listed_in_topological_order` test checks.
macro_rules! lock_dag {
    ($($(#[$doc:meta])* $level:ident $(=> $($next:ident),+)?;)*) => {
        $(
            $(#[$doc])*
            pub enum $level {}
            impl LockAfter<Unlocked> for $level {}
            $($(impl LockAfter<$level> for $next {})+)?
        )*

        /// `(level, successors)` in declaration order, for the test
        /// that the declared edges form a DAG.
        #[cfg(test)]
        const DAG: &[(&str, &[&str])] =
            &[$((stringify!($level), &[$($(stringify!($next)),+)?])),*];
    };
}

lock_dag! {
    /// `ShardedEngine::rebalancer`: held across a whole rebalance pass,
    /// which scans shard component groups and runs migrations.
    Rebalancer => Migration, ShardEngine;
    /// `ShardedEngine::migration_lock`: serializes marker-based
    /// migrations, which mark and publish under the router and freeze
    /// and move under one shard engine at a time.
    Migration => Router, ShardEngine;
    /// `ShardedEngine::router`: the routing table. Read and write share
    /// the level, since a blocking read can queue behind a writer.
    Router;
    /// `Shard::engine`: one shard's `IncrementalEngine`. A durable
    /// submit's commit hook appends its record under this guard, so a
    /// record always follows the records of the queries it retires.
    ShardEngine => LogBuf;
    /// `CoordStore::file`: the live WAL file. Held across a group
    /// commit's write and fsync and across a whole rotation, so it is
    /// taken from the root context only.
    LogFlush => LogBuf;
    /// `CoordStore::buf`: framed records not yet written and the live
    /// pending set. A leaf, and no syscall runs under it.
    LogBuf;
}

/// Proof that the current thread's last acquired ordered lock is of
/// level `L` (or that it holds none, for [`Unlocked`]). Zero-sized,
/// bound to its thread, and borrowed by every guard acquired through
/// it.
pub struct LockCtx<'a, L> {
    _borrow: PhantomData<&'a mut ()>,
    _level: PhantomData<fn() -> L>,
    /// Not `Send`: the context describes this thread's locks.
    _thread: PhantomData<*const ()>,
}

impl<L> LockCtx<'_, L> {
    fn next() -> Self {
        LockCtx {
            _borrow: PhantomData,
            _level: PhantomData,
            _thread: PhantomData,
        }
    }
}

impl LockCtx<'static, Unlocked> {
    /// The root context, for a public entry point that holds no lock.
    ///
    /// # Panics
    /// Under `debug-assertions`, if the thread holds an ordered guard:
    /// a root context there would let it acquire any level.
    #[must_use]
    pub fn root() -> Self {
        live::assert_none();
        LockCtx::next()
    }
}

/// Debug-only count of the live ordered guards on this thread, checked
/// only when a root context is created.
mod live {
    #[cfg(debug_assertions)]
    thread_local! {
        static GUARDS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    }

    /// Counts one live guard from acquisition to drop.
    pub(super) struct Held(());

    impl Held {
        pub(super) fn new() -> Self {
            #[cfg(debug_assertions)]
            GUARDS.with(|n| n.set(n.get() + 1));
            Held(())
        }
    }

    #[cfg(debug_assertions)]
    impl Drop for Held {
        fn drop(&mut self) {
            GUARDS.with(|n| n.set(n.get() - 1));
        }
    }

    pub(super) fn assert_none() {
        #[cfg(debug_assertions)]
        GUARDS.with(|n| {
            assert!(
                n.get() == 0,
                "root lock context created while this thread holds {} ordered guard(s)",
                n.get()
            );
        });
    }
}

/// A guard of an ordered lock. Derefs to the protected value.
#[must_use = "the lock is released when the guard drops"]
pub struct Guard<G> {
    guard: G,
    _held: live::Held,
}

impl<G: Deref> Deref for Guard<G> {
    type Target = G::Target;
    fn deref(&self) -> &G::Target {
        &self.guard
    }
}

impl<G: DerefMut> DerefMut for Guard<G> {
    fn deref_mut(&mut self) -> &mut G::Target {
        &mut self.guard
    }
}

fn held<'a, G, L>(result: LockResult<G>) -> (Guard<G>, LockCtx<'a, L>) {
    let guard = result.unwrap_or_else(PoisonError::into_inner);
    (
        Guard {
            guard,
            _held: live::Held::new(),
        },
        LockCtx::next(),
    )
}

/// A [`std::sync::Mutex`] at level `L` of the lock DAG.
pub struct OrderedMutex<L, T> {
    inner: Mutex<T>,
    _level: PhantomData<fn() -> L>,
}

impl<L, T> OrderedMutex<L, T> {
    pub const fn new(value: T) -> Self {
        OrderedMutex {
            inner: Mutex::new(value),
            _level: PhantomData,
        }
    }

    /// Block until the lock is free. `ctx` stays borrowed while the
    /// guard or the returned context lives.
    pub fn lock<'a, A>(
        &'a self,
        _ctx: &'a mut LockCtx<'_, A>,
    ) -> (Guard<MutexGuard<'a, T>>, LockCtx<'a, L>)
    where
        L: LockAfter<A>,
    {
        held(self.inner.lock())
    }

    /// Like [`Self::lock`], also reporting how long the caller blocked:
    /// `None` when the lock was free. The probe is a `try_lock` that
    /// falls through to the blocking acquisition, so it needs the same
    /// `LockAfter` bound.
    pub fn lock_timed<'a, A>(
        &'a self,
        _ctx: &'a mut LockCtx<'_, A>,
    ) -> (Guard<MutexGuard<'a, T>>, LockCtx<'a, L>, Option<Duration>)
    where
        L: LockAfter<A>,
    {
        let (result, waited) = match self.inner.try_lock() {
            Ok(guard) => (Ok(guard), None),
            Err(TryLockError::Poisoned(poisoned)) => (Err(poisoned), None),
            Err(TryLockError::WouldBlock) => {
                let start = Instant::now();
                let result = self.inner.lock();
                (result, Some(start.elapsed()))
            }
        };
        let (guard, ctx) = held(result);
        (guard, ctx, waited)
    }
}

/// A [`std::sync::RwLock`] at level `L` of the lock DAG. Readers and
/// writers share the level.
pub struct OrderedRwLock<L, T> {
    inner: RwLock<T>,
    _level: PhantomData<fn() -> L>,
}

impl<L, T> OrderedRwLock<L, T> {
    pub const fn new(value: T) -> Self {
        OrderedRwLock {
            inner: RwLock::new(value),
            _level: PhantomData,
        }
    }

    /// Block until shared access is granted.
    pub fn read<'a, A>(
        &'a self,
        _ctx: &'a mut LockCtx<'_, A>,
    ) -> (Guard<RwLockReadGuard<'a, T>>, LockCtx<'a, L>)
    where
        L: LockAfter<A>,
    {
        held(self.inner.read())
    }

    /// Block until exclusive access is granted.
    pub fn write<'a, A>(
        &'a self,
        _ctx: &'a mut LockCtx<'_, A>,
    ) -> (Guard<RwLockWriteGuard<'a, T>>, LockCtx<'a, L>)
    where
        L: LockAfter<A>,
    {
        held(self.inner.write())
    }

    /// Take shared access only if no writer holds it. A thread that
    /// backs off on `None` cannot close a deadlock cycle, so this needs
    /// no `LockAfter` bound; on `None` the caller must release what it
    /// holds before it retries with a blocking acquisition.
    pub fn try_read<'a, A>(
        &'a self,
        _ctx: &'a mut LockCtx<'_, A>,
    ) -> Option<(Guard<RwLockReadGuard<'a, T>>, LockCtx<'a, L>)> {
        match self.inner.try_read() {
            Ok(guard) => Some(held(Ok(guard))),
            Err(TryLockError::Poisoned(poisoned)) => Some(held(Err(poisoned))),
            Err(TryLockError::WouldBlock) => None,
        }
    }
}

/// A condvar-backed generation counter: submitters blocked on
/// migration marks park here instead of sleeping blind, and every
/// migration bumps the generation, waking all waiters, when it lifts
/// its marks.
pub struct MarkGate {
    // Leaf: private std locks, recovered on poison; no guard leaves a
    // method.
    generation: Mutex<u64>,
    lifted: Condvar,
}

impl Default for MarkGate {
    fn default() -> Self {
        Self::new()
    }
}

impl MarkGate {
    pub fn new() -> Self {
        MarkGate {
            generation: Mutex::new(0),
            lifted: Condvar::new(),
        }
    }

    fn count(&self) -> MutexGuard<'_, u64> {
        self.generation
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// The current generation. Sample it before probing the marks.
    pub fn generation(&self) -> u64 {
        *self.count()
    }

    /// Marks were lifted: wake every parked submitter.
    pub fn bump(&self) {
        *self.count() += 1;
        self.lifted.notify_all();
    }

    /// Park until the generation moves past `seen` (some migration
    /// lifted marks after the caller sampled it) or `timeout` elapses;
    /// the timeout is only a safety net, the normal exit is a wake-up.
    /// The root context proves the caller holds no ordered lock.
    pub fn wait_past(&self, _ctx: &mut LockCtx<'_, Unlocked>, seen: u64, timeout: Duration) {
        let guard = self.count();
        if *guard != seen {
            return;
        }
        let _ = self
            .lifted
            .wait_timeout_while(guard, timeout, |generation| *generation == seen);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dag_is_listed_in_topological_order() {
        let position = |name: &str| DAG.iter().position(|(level, _)| *level == name);
        for (i, (level, next)) in DAG.iter().enumerate() {
            for successor in *next {
                let j = position(successor)
                    .unwrap_or_else(|| panic!("{successor} is not a declared level"));
                assert!(j > i, "edge {level} -> {successor} points up the list");
            }
        }
    }

    #[test]
    fn out_of_order_drop_then_fresh_acquisition() {
        // The with_owned_shard retry: a router guard taken under a
        // shard engine, both released in acquisition order reversed,
        // then the migration lock taken fresh from the root.
        let migration = OrderedMutex::<Migration, ()>::new(());
        let router = OrderedRwLock::<Router, u32>::new(1);
        let shard = OrderedMutex::<ShardEngine, u32>::new(2);
        let mut root = LockCtx::root();
        let (engine, mut ctx) = shard.lock(&mut root);
        let (routes, _) = router.try_read(&mut ctx).expect("uncontended");
        assert_eq!(*engine + *routes, 3);
        drop(engine);
        drop(routes);
        let (_one_at_a_time, _) = migration.lock(&mut root);
    }

    #[test]
    fn try_read_backs_off_while_a_writer_holds_the_lock() {
        let router = OrderedRwLock::<Router, u32>::new(0);
        let mut root = LockCtx::root();
        let (routes, mut ctx) = router.write(&mut root);
        assert!(router.try_read(&mut ctx).is_none());
        drop(routes);
        assert!(router.try_read(&mut root).is_some());
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "the check is compiled out")]
    fn root_context_under_a_live_guard_panics() {
        let shard = OrderedMutex::<ShardEngine, u32>::new(0);
        let result = std::panic::catch_unwind(|| {
            let mut root = LockCtx::root();
            let (_engine, _) = shard.lock(&mut root);
            let _second_root = LockCtx::root();
        });
        assert!(result.is_err(), "a second root under a guard must panic");
        // The unwound guard no longer counts.
        let _ = LockCtx::root();
    }

    #[test]
    fn guard_is_transparent_and_releases_on_drop() {
        let log = OrderedMutex::<LogBuf, u32>::new(7);
        let mut root = LockCtx::root();
        let (mut guard, _) = log.lock(&mut root);
        *guard += 1;
        assert_eq!(*guard, 8);
        drop(guard);
        let (guard, _, waited) = log.lock_timed(&mut root);
        assert_eq!((*guard, waited), (8, None), "released on drop");
    }

    #[test]
    fn a_panic_under_the_lock_leaves_it_usable() {
        let shard = OrderedMutex::<ShardEngine, Vec<u32>>::new(vec![1]);
        std::thread::scope(|s| {
            let result = s
                .spawn(|| {
                    let mut root = LockCtx::root();
                    let (mut engine, _) = shard.lock(&mut root);
                    engine.push(2);
                    panic!("evaluator panicked under the shard lock");
                })
                .join();
            assert!(result.is_err());
        });
        let mut root = LockCtx::root();
        let (engine, _, waited) = shard.lock_timed(&mut root);
        assert_eq!(
            (&*engine, waited),
            (&vec![1, 2], None),
            "free after the panic"
        );
    }
}
