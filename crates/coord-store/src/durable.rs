//! The durable layer over the sharded online coordination engine.
//!
//! [`DurableShardedEngine`] wraps a [`ShardedEngine`] with as many WAL
//! streams as shards under a shared snapshot epoch; each commit record
//! goes to the stream of the shard that evaluated the submit (see
//! "Rebalancing and the per-shard streams" below). Recovery is
//! order-independent across streams. The commit protocol:
//!
//! 1. apply the submit to the in-memory engine (a rejected submit
//!    mutates nothing and logs nothing),
//! 2. record the accepted mutation — the query plus the seqs it retired
//!    — as **one** checksummed commit record,
//! 3. acknowledge the caller.
//!
//! A crash before step 2 loses only unacknowledged work; recovery
//! rebuilds exactly the state produced by the clean record prefix.
//! Replay never re-evaluates components: the log already says which
//! queries retired, so recovery decodes the surviving pending set and
//! re-indexes it with `insert_pending` — which is why replay is *faster*
//! than live submission (the benchmark's `store.replay_records_per_s`).
//!
//! ## Query ids and the registry
//!
//! A submit's seq is also its query's id in the engine: the engine
//! carries it across migrations and names each retired query by it, so
//! a commit record's retired list is read straight off the engine's
//! outcome — nothing is looked up by value, and byte-identical queries
//! keep distinct seqs. The wrapper's registry maps each pending seq to
//! its encoding (the snapshot payload) and whether its record is
//! appended. An entry is inserted *after* the engine applied the submit
//! and *before* its record is appended: a rejected submit never touches
//! the registry, a snapshot never captures a query the engine does not
//! hold, and a query applied but not yet inserted has its record
//! appended in the post-rotation epoch. A query that retires in its own
//! submit is never inserted.
//!
//! ## Acknowledgment window (closed)
//!
//! With multiple log streams, a submit used to be able to retire a
//! query whose own commit record (on another stream) had not hit the
//! log yet: recovery stayed exact — a retire naming a never-logged seq
//! is simply ignored, and the unlogged query was never acknowledged —
//! but a *delivered* coordination could mention a partner whose commit
//! record was lost with the crash. The wrapper now enforces a
//! **per-coordination flush barrier**: a retire takes a partner's seq
//! out of the registry only once its entry is present and logged
//! (waiting out the short apply-to-append window of a concurrent
//! partner), and a delivering submit syncs every stream before
//! acknowledging (under any policy stronger than [`SyncPolicy::Never`]).
//! So at the moment a coordination is delivered, every partner's commit
//! record is appended — and as durable as the deliverer's own record.
//! The one residual caveat: if a partner's *append itself failed* (a
//! [`StoreError`] already surfaced to that partner's submitter), its
//! entry is marked logged anyway rather than blocking the retirer
//! forever — that degraded-durability state is explicit on both sides.
//!
//! ## Single writer: strict prefix
//!
//! With **one shard and one submitting thread** there is one stream and
//! its records are in submit order, so the recovered state is exactly
//! the state after some prefix of the acknowledged submits — the
//! contract `tests/crash_points.rs` checks at every byte offset. That
//! configuration *is* the single-writer durable engine; there is no
//! separate type for it.
//!
//! ## Rebalancing and the per-shard streams
//!
//! [`DurableShardedEngine`] routes each commit record to the WAL stream
//! of the shard that ran the submit (`submit_with_shard`), so the
//! stream mapping stays correct as the [`coord_engine::Rebalancer`]
//! moves components between shards — a component's post-move commits
//! land on its new shard's stream with no `Rebalanced` log record
//! needed, because recovery is order-independent across streams and
//! re-routes the surviving pending set against the *current* placement
//! on replay.

use crate::codec::QueryCodec;
use crate::error::{DurableError, StoreError};
use crate::store::{CommitRecord, CoordStore, RecoveryReport, StoreOptions};
use crate::wal::SyncPolicy;
use coord_engine::lock_order::{self, LockCtx, OrderedMutex, StoreState};
use coord_engine::{
    ComponentEvaluator, CoordinationQuery, Placement, ShardedEngine, SubmitOutcome,
};
use coord_obs::Registry as ObsRegistry;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Durability configuration for [`DurableShardedEngine`].
#[derive(Clone, Copy, Debug)]
pub struct DurabilityOptions {
    /// When appended records reach stable storage.
    pub sync: SyncPolicy,
    /// Snapshot (and rotate the WAL epoch) after this many commit
    /// records; `None` disables snapshotting.
    pub snapshot_every: Option<u64>,
}

impl Default for DurabilityOptions {
    fn default() -> Self {
        DurabilityOptions {
            sync: SyncPolicy::Never,
            snapshot_every: Some(1024),
        }
    }
}

impl DurabilityOptions {
    fn store_options(&self, streams: usize) -> StoreOptions {
        StoreOptions {
            streams,
            sync: self.sync,
            snapshot_every: self.snapshot_every,
        }
    }
}

/// One registered pending query: its encoding (the snapshot payload)
/// and whether its commit record is appended to its stream (or its
/// append definitively failed). Every entry is a query the engine holds
/// — it is inserted only after the engine applied the submit.
struct RegistryEntry {
    bytes: Vec<u8>,
    logged: bool,
}

/// Pending-set bookkeeping: seq → entry.
type Registry = BTreeMap<u64, RegistryEntry>;

/// Take every seq in `waiting` whose entry is present and logged out of
/// the registry, leaving in `waiting` the seqs a retire must still wait
/// for: absent (its submitter sits between engine apply and insert) or
/// unlogged (its append is in flight). Waiting instead of taking is the
/// acknowledgment-window barrier: a coordination is never delivered
/// naming a partner whose record might never reach the log.
fn take_logged(registry: &mut Registry, waiting: &mut Vec<u64>) {
    waiting.retain(|seq| {
        let logged = registry.get(seq).is_some_and(|e| e.logged);
        if logged {
            registry.remove(seq);
        }
        !logged
    });
}

/// A [`ShardedEngine`] with one WAL stream per shard and a shared
/// snapshot epoch. With `shards = 1` and a single submitting thread it
/// is the single-writer durable engine: one stream, records in submit
/// order, so recovery restores exactly the state after some prefix of
/// the acknowledged submits.
pub struct DurableShardedEngine<Q: CoordinationQuery, V, C> {
    inner: ShardedEngine<Q, V>,
    store: CoordStore,
    codec: C,
    registry: OrderedMutex<lock_order::Registry, Registry>,
    next_seq: AtomicU64,
    report: RecoveryReport,
    /// Last failed background rotation (see [`Self::take_snapshot_error`]).
    /// Leaf: a private std mutex, recovered on poison; each guard lives
    /// for one statement.
    snapshot_error: Mutex<Option<StoreError>>,
}

impl<Q, V, C> DurableShardedEngine<Q, V, C>
where
    Q: CoordinationQuery,
    V: ComponentEvaluator<Q> + Clone,
    C: QueryCodec<Q>,
{
    /// Open (or create) a durable sharded engine at `dir` with `shards`
    /// shards, recovering and re-routing any surviving pending set.
    pub fn open(
        dir: impl AsRef<Path>,
        evaluator: V,
        shards: usize,
        codec: C,
        options: DurabilityOptions,
    ) -> Result<Self, StoreError> {
        Self::open_with_obs(dir, evaluator, shards, codec, options, ObsRegistry::new())
    }

    /// Like [`Self::open`], with one observability registry shared by
    /// the store (WAL append/sync, rotation, replay instruments) and
    /// the wrapped sharded engine (submit/lock-wait/migration/rebalance
    /// histograms and the trace ring) — so one
    /// [`ObsRegistry::snapshot`] covers the whole durable stack.
    pub fn open_with_obs(
        dir: impl AsRef<Path>,
        evaluator: V,
        shards: usize,
        codec: C,
        options: DurabilityOptions,
        obs: ObsRegistry,
    ) -> Result<Self, StoreError> {
        let recovered = CoordStore::open_with_obs(dir, options.store_options(shards), obs.clone())?;
        let inner = ShardedEngine::with_obs(evaluator, shards, Placement::default(), obs);
        let mut registry = Registry::new();
        for (seq, bytes) in recovered.live {
            // Replay never re-evaluates: pending survivors are routed
            // and re-indexed only (the log proved they did not
            // coordinate before the crash).
            inner.insert_pending(seq, codec.decode(&bytes)?);
            registry.insert(
                seq,
                RegistryEntry {
                    bytes,
                    logged: true,
                },
            );
        }
        Ok(DurableShardedEngine {
            inner,
            store: recovered.store,
            codec,
            registry: OrderedMutex::new(registry),
            next_seq: AtomicU64::new(recovered.next_seq),
            report: recovered.report,
            snapshot_error: Mutex::new(None),
        })
    }

    /// Submit under the owning shard's lock; the accepted mutation is
    /// logged — to **that shard's** WAL stream, so the stream mapping
    /// tracks rebalancing moves — before the caller is acknowledged.
    /// A submit that delivers a coordination additionally waits for
    /// every retired partner's commit record to be appended, and syncs
    /// all streams before returning (the per-coordination flush
    /// barrier; see the module docs). Snapshot failures during a
    /// background rotation do not fail the submit — see
    /// [`Self::take_snapshot_error`].
    pub fn submit(
        &self,
        query: Q,
    ) -> Result<SubmitOutcome<Q, V::Delivery>, DurableError<V::Error>> {
        // Open the request's root trace ticket here, at the durable
        // stack's entry point, so the root "submit" span covers the
        // engine apply *and* the WAL append/sync that follow it; the
        // sharded engine's own submit ticket nests under this context
        // and reuses the same trace id.
        let _ticket = self.inner.obs().tracer().ticket("submit");
        let mut qbytes = Vec::new();
        self.codec.encode(&query, &mut qbytes);
        // The seq is the query's id in the engine, so the engine names
        // this query by it if a later submit retires it.
        let seq = self.next_seq.fetch_add(1, Ordering::SeqCst);
        let (shard, outcome) = match self.inner.submit_with_shard(seq, query) {
            (_, Err(e)) => return Err(DurableError::Engine(e)),
            (shard, Ok(o)) => (shard, o),
        };
        let retired: Vec<u64> = outcome.retired.iter().map(|(s, _)| *s).collect();
        // Register this query (unless it retired at once) and take every
        // retired partner out of the registry. A partner not yet logged
        // sits in the short window between its engine apply and its
        // append: wait it out (without holding the registry lock) rather
        // than deliver a coordination naming a partner whose commit
        // record never reached its stream. The waited-on submit never
        // waits on us in turn — its own retire targets were applied
        // strictly before it applied — so the wait graph follows
        // engine-apply order and cannot cycle.
        let mut waiting: Vec<u64> = retired.iter().copied().filter(|&s| s != seq).collect();
        let mut ctx = LockCtx::root();
        {
            let (mut registry, _) = self.registry.lock(&mut ctx);
            if !retired.contains(&seq) {
                registry.insert(
                    seq,
                    RegistryEntry {
                        bytes: qbytes.clone(),
                        logged: false,
                    },
                );
            }
            take_logged(&mut registry, &mut waiting);
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while !waiting.is_empty() {
            assert!(
                Instant::now() < deadline,
                "retired partner seqs {waiting:?} never logged"
            );
            std::thread::yield_now();
            take_logged(&mut self.registry.lock(&mut ctx).0, &mut waiting);
        }
        let delivered = !retired.is_empty();
        let appended = self.store.append_commit(
            shard,
            &CommitRecord {
                seq,
                query: qbytes,
                retired,
            },
        );
        // Release waiters either way: on success the record is on its
        // stream; on failure the submit is about to surface a store
        // error (the documented applied-but-not-durable state) and no
        // record will ever come — blocking a retirer forever would turn
        // one stream's fault into a service-wide stall. (No entry if
        // the query retired in its own submit.)
        if let Some(entry) = self.registry.lock(&mut ctx).0.get_mut(&seq) {
            entry.logged = true;
        }
        appended?;
        // Per-coordination flush barrier: partners' records are
        // *appended* (the retire wait made sure of that); make them as
        // durable as this record before acknowledging the delivery.
        // Only `EveryN` needs the explicit sync — under `EveryRecord`
        // every partner append already synced itself before it was
        // marked logged, and under `Never` nothing is ever synced, so
        // there is nothing to strengthen.
        if delivered && matches!(self.store.options().sync, SyncPolicy::EveryN(_)) {
            self.store.sync_all()?;
        }
        if self.store.snapshot_due() {
            if let Err(e) = self.snapshot_if_due() {
                *self
                    .snapshot_error
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner) = Some(e);
            }
        }
        Ok(outcome)
    }

    /// Take a snapshot now, rotating every shard's WAL to the next
    /// epoch. Concurrent submitters keep running; the capture happens
    /// under the store's rotation lock with no appends in flight.
    pub fn snapshot(&self) -> Result<(), StoreError> {
        self.store.snapshot(|ctx| self.capture(ctx))
    }

    /// Rotate only if the record threshold is still exceeded — many
    /// submitters crossing it together produce one rotation, not one
    /// each.
    fn snapshot_if_due(&self) -> Result<(), StoreError> {
        self.store
            .snapshot_if_due(|ctx| self.capture(ctx))
            .map(|_| ())
    }

    /// Registry captured under the rotation lock: every record already
    /// appended is reflected, every in-flight submit will append to the
    /// new epoch (replay is idempotent either way).
    fn capture(&self, ctx: &mut LockCtx<'_, StoreState>) -> (u64, Vec<(u64, Vec<u8>)>) {
        let (registry, _) = self.registry.lock(ctx);
        let entries = registry.iter().map(|(s, e)| (*s, e.bytes.clone()));
        (self.next_seq.load(Ordering::SeqCst), entries.collect())
    }

    /// The last *background* snapshot failure (a rotation triggered by
    /// `snapshot_every` during a submit), if any, cleared on read.
    /// Submits stay durable through the still-open WAL when a rotation
    /// fails; this surfaces the degraded state for monitoring.
    pub fn take_snapshot_error(&self) -> Option<StoreError> {
        self.snapshot_error
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
    }

    /// What recovery found when this engine was opened.
    pub fn recovery_report(&self) -> &RecoveryReport {
        &self.report
    }

    /// The underlying store (stats, epoch, stream offsets).
    pub fn store(&self) -> &CoordStore {
        &self.store
    }

    /// Clean end offset of every WAL stream (stream index = shard
    /// index) — the per-stream truncation points crash tests cut at.
    pub fn wal_stream_lens(&self) -> Vec<u64> {
        (0..self.store.options().streams)
            .map(|s| self.store.stream_len(s))
            .collect()
    }

    /// The wrapped in-memory engine: pending set, component and shard
    /// statistics, metrics, the observability registry (shared with the
    /// store, so one snapshot covers submit latency, WAL append/sync,
    /// rotations, migrations and rebalance passes), and
    /// [`ShardedEngine::rebalance`] — a rebalance is purely an in-memory
    /// placement change, so it needs no log record and a crash at any
    /// point stays exactly recoverable. Do **not** submit through it:
    /// only [`Self::submit`] logs.
    pub fn engine(&self) -> &ShardedEngine<Q, V> {
        &self.inner
    }

    /// Check the wrapped engine's invariants plus the registry mirror
    /// (the registry's seqs are exactly the engine's pending ids).
    /// Quiescent only: a submit in flight on another thread may have
    /// been applied by the engine but not yet registered.
    ///
    /// # Panics
    /// Panics with a description if an invariant is violated.
    pub fn validate_invariants(&self) {
        self.inner.validate_invariants();
        let mut ids: Vec<u64> = self.inner.pending().into_iter().map(|(id, _)| id).collect();
        ids.sort_unstable();
        let mut ctx = LockCtx::root();
        let (registry, _) = self.registry.lock(&mut ctx);
        let seqs: Vec<u64> = registry.keys().copied().collect();
        assert_eq!(seqs, ids, "registry drifted from the pending set");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::temp::TempDir;
    use crate::testkit::{chain, mini, MiniCodec, MiniQuery, SaturationEvaluator as Saturation};

    fn opts(snapshot_every: Option<u64>) -> DurabilityOptions {
        DurabilityOptions {
            sync: SyncPolicy::Never,
            snapshot_every,
        }
    }

    fn names(mut v: Vec<String>) -> Vec<String> {
        v.sort_unstable();
        v
    }

    /// The single-writer configuration the strict-prefix tests drive.
    fn open_one<V: ComponentEvaluator<MiniQuery> + Clone>(
        dir: &TempDir,
        evaluator: V,
        snapshot_every: Option<u64>,
    ) -> DurableShardedEngine<MiniQuery, V, MiniCodec> {
        DurableShardedEngine::open(dir.path(), evaluator, 1, MiniCodec, opts(snapshot_every))
            .unwrap()
    }

    #[test]
    fn retirement_is_durable() {
        let dir = TempDir::new("durable-retire");
        {
            let e = open_one(&dir, Saturation, None);
            e.submit(chain(0, Some(1))).unwrap();
            let r = e.submit(chain(1, None)).unwrap();
            assert!(r.coordinated());
        }
        let e = open_one(&dir, Saturation, None);
        assert_eq!(e.engine().pending_count(), 0, "retired queries resurrected");
        assert_eq!(e.recovery_report().records_replayed, 2);
    }

    #[test]
    fn duplicate_queries_recover_as_a_multiset() {
        let dir = TempDir::new("durable-dup");
        {
            let e = open_one(&dir, Saturation, None);
            // Two byte-identical waiters plus one that retires with one
            // of them (saturation retires whole components; both
            // duplicates share a component, so submit a separate pair).
            e.submit(chain(5, Some(6))).unwrap();
            e.submit(chain(5, Some(6))).unwrap();
            assert_eq!(e.engine().pending_count(), 2);
        }
        let e = open_one(&dir, Saturation, None);
        assert_eq!(e.engine().pending_count(), 2, "duplicate collapsed");
    }

    #[test]
    fn rejected_submit_logs_nothing() {
        #[derive(Clone)]
        struct RejectNamed(&'static str);
        impl ComponentEvaluator<MiniQuery> for RejectNamed {
            type Delivery = ();
            type Error = String;
            fn evaluate(&self, queries: &[MiniQuery]) -> Result<Option<(Vec<usize>, ())>, String> {
                if queries.iter().any(|x| x.name == self.0) {
                    Err("rejected".into())
                } else {
                    Ok(None)
                }
            }
        }
        let dir = TempDir::new("durable-reject");
        {
            let e = open_one(&dir, RejectNamed("q9"), None);
            e.submit(chain(0, Some(1))).unwrap();
            e.submit(chain(9, None)).unwrap_err();
            assert_eq!(e.engine().pending_count(), 1);
            e.validate_invariants();
        }
        let e = open_one(&dir, RejectNamed("q9"), None);
        assert_eq!(e.recovery_report().records_replayed, 1);
        assert_eq!(e.engine().pending_count(), 1);
    }

    #[test]
    fn snapshots_bound_replay_work() {
        let dir = TempDir::new("durable-snap");
        {
            let e = open_one(&dir, Saturation, Some(4));
            for i in 0..10 {
                e.submit(chain(10 * i, Some(10 * i + 1))).unwrap();
            }
            assert!(e.store().stats().snapshots_taken >= 2);
        }
        let e = open_one(&dir, Saturation, Some(4));
        let report = e.recovery_report().clone();
        assert!(report.had_snapshot);
        assert!(
            report.records_replayed <= 4,
            "snapshot did not bound the tail: {report:?}"
        );
        assert_eq!(
            report.snapshot_entries + report.records_replayed,
            10,
            "{report:?}"
        );
        assert_eq!(e.engine().pending_count(), 10);
        e.validate_invariants();
        // Seqs keep advancing across the snapshot boundary.
        e.submit(chain(500, None)).unwrap();
        assert_eq!(e.engine().pending_count(), 10);
    }

    #[test]
    fn sharded_pending_set_survives_reopen() {
        let dir = TempDir::new("durable-sharded");
        {
            let e = DurableShardedEngine::open(dir.path(), Saturation, 4, MiniCodec, opts(None))
                .unwrap();
            std::thread::scope(|s| {
                for t in 0..4i64 {
                    let e = &e;
                    s.spawn(move || {
                        for c in 0..3 {
                            let base = 1000 * t + 10 * c;
                            e.submit(chain(base, Some(base + 1))).unwrap();
                            e.submit(chain(base + 1, Some(base + 2))).unwrap();
                        }
                    });
                }
            });
            assert_eq!(e.engine().pending_count(), 24);
            e.validate_invariants();
        } // crash (no clean shutdown exists)
        let e =
            DurableShardedEngine::open(dir.path(), Saturation, 4, MiniCodec, opts(None)).unwrap();
        assert_eq!(e.recovery_report().records_replayed, 24);
        assert_eq!(e.engine().pending_count(), 24);
        assert_eq!(e.engine().component_count(), 12);
        e.validate_invariants();
        // Each recovered chain still completes.
        for t in 0..4i64 {
            for c in 0..3 {
                let base = 1000 * t + 10 * c;
                let r = e.submit(chain(base + 2, None)).unwrap();
                assert_eq!(r.retired.len(), 3, "chain {base} lost by recovery");
                assert_eq!(
                    names(r.delivery.unwrap()),
                    names((base..=base + 2).map(|i| format!("q{i}")).collect())
                );
            }
        }
        assert_eq!(e.engine().pending_count(), 0);
    }

    #[test]
    fn sharded_snapshot_rotation_under_concurrent_submits() {
        let dir = TempDir::new("durable-sharded-snap");
        {
            let e = DurableShardedEngine::open(dir.path(), Saturation, 2, MiniCodec, opts(Some(8)))
                .unwrap();
            std::thread::scope(|s| {
                for t in 0..2i64 {
                    let e = &e;
                    s.spawn(move || {
                        for i in 0..20 {
                            let base = 10_000 * t + 10 * i;
                            e.submit(chain(base, Some(base + 1))).unwrap();
                        }
                    });
                }
            });
            assert!(e.store().stats().snapshots_taken >= 1);
            assert_eq!(e.engine().pending_count(), 40);
        }
        let e = DurableShardedEngine::open(dir.path(), Saturation, 2, MiniCodec, opts(Some(8)))
            .unwrap();
        assert!(e.recovery_report().had_snapshot);
        assert_eq!(e.engine().pending_count(), 40);
    }

    /// Regression: a snapshot racing a submit that the engine later
    /// *rejects* must not capture the rejected query — otherwise
    /// recovery resurrects a query whose submitter was told `Err`.
    #[test]
    fn snapshot_during_rejected_submit_does_not_resurrect_it() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;

        #[derive(Clone)]
        struct GateReject {
            started: Arc<AtomicBool>,
            release: Arc<AtomicBool>,
        }
        impl ComponentEvaluator<MiniQuery> for GateReject {
            type Delivery = ();
            type Error = String;
            fn evaluate(&self, queries: &[MiniQuery]) -> Result<Option<(Vec<usize>, ())>, String> {
                if queries.iter().any(|x| x.name == "bad") {
                    self.started.store(true, Ordering::SeqCst);
                    while !self.release.load(Ordering::SeqCst) {
                        std::thread::yield_now();
                    }
                    return Err("rejected mid-snapshot".into());
                }
                Ok(None)
            }
        }

        let started = Arc::new(AtomicBool::new(false));
        let release = Arc::new(AtomicBool::new(false));
        let dir = TempDir::new("durable-reject-snap");
        {
            let e = DurableShardedEngine::open(
                dir.path(),
                GateReject {
                    started: Arc::clone(&started),
                    release: Arc::clone(&release),
                },
                2,
                MiniCodec,
                opts(None),
            )
            .unwrap();
            std::thread::scope(|s| {
                let engine = &e;
                let rejected = s.spawn(move || {
                    engine
                        .submit(mini("bad", &[("R", 1)], &[]))
                        .expect_err("evaluator rejects `bad`")
                });
                while !started.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
                // `bad` is mid-evaluation, not applied: the snapshot
                // must skip it.
                e.snapshot().unwrap();
                release.store(true, Ordering::SeqCst);
                rejected.join().unwrap();
            });
            assert_eq!(e.engine().pending_count(), 0);
        }
        let e = DurableShardedEngine::open(
            dir.path(),
            GateReject { started, release },
            2,
            MiniCodec,
            opts(None),
        )
        .unwrap();
        assert!(e.recovery_report().had_snapshot);
        assert_eq!(e.engine().pending_count(), 0, "rejected submit resurrected");
    }

    /// The acknowledgment-window barrier at the registry level: an entry
    /// whose commit record is still in flight cannot be taken by a
    /// retirer, and neither can a seq not registered yet; a logged one
    /// can.
    #[test]
    fn registry_retire_waits_for_logged_entries() {
        let entry = |logged| RegistryEntry {
            bytes: b"q".to_vec(),
            logged,
        };
        let mut r = Registry::new();
        r.insert(1, entry(false)); // append in flight
        r.insert(2, entry(true));
        let mut waiting = vec![1, 2, 3]; // 3: applied, not yet registered
        take_logged(&mut r, &mut waiting);
        assert_eq!(waiting, vec![1, 3], "unlogged or absent entry taken");
        assert_eq!(r.keys().copied().collect::<Vec<_>>(), vec![1]);
        r.get_mut(&1).unwrap().logged = true;
        r.insert(3, entry(true));
        take_logged(&mut r, &mut waiting);
        assert!(waiting.is_empty() && r.is_empty());
    }

    /// A retire record names the seq the engine retired, never a
    /// byte-identical duplicate's: of two identical pending queries the
    /// newer one retires (in its own submit), and the record says so.
    #[test]
    fn retire_record_names_the_seq_the_engine_retired() {
        #[derive(Clone)]
        struct RetireNewerDuplicate;
        impl ComponentEvaluator<MiniQuery> for RetireNewerDuplicate {
            type Delivery = ();
            type Error = String;
            fn evaluate(&self, queries: &[MiniQuery]) -> Result<Option<(Vec<usize>, ())>, String> {
                // The arrival comes last in the evaluated batch.
                let (arrival, pending) = queries.split_last().expect("batch holds the arrival");
                Ok(pending.contains(arrival).then(|| (vec![pending.len()], ())))
            }
        }
        let dir = TempDir::new("durable-dup-retire");
        // Provides what it requires, so the two copies share a component.
        let dup = || mini("dup", &[("K", 1)], &[("K", 1)]);
        let e = open_one(&dir, RetireNewerDuplicate, None);
        assert!(!e.submit(dup()).unwrap().coordinated());
        assert!(e.submit(dup()).unwrap().coordinated());
        let wal =
            crate::wal::read_wal(&dir.path().join(format!("wal-{:020}-{:04}.log", 0, 0))).unwrap();
        let records: Vec<CommitRecord> = wal
            .records
            .iter()
            .map(|payload| CommitRecord::decode(payload).unwrap())
            .collect();
        let (s0, s1) = (records[0].seq, records[1].seq);
        assert!(s0 < s1);
        assert_eq!(
            records[1].retired,
            vec![s1],
            "retire named the older duplicate"
        );
        let pending: Vec<u64> = e.engine().pending().into_iter().map(|(id, _)| id).collect();
        assert_eq!(pending, vec![s0]);
        e.validate_invariants();
    }

    /// A background rotation that fails does not fail the submit that
    /// triggered it: the error is parked for `take_snapshot_error`, the
    /// old epoch stays authoritative, and the next due rotation retries.
    #[test]
    fn failed_background_rotation_is_reported_and_retried() {
        let dir = TempDir::new("durable-rotation-error");
        {
            let e = open_one(&dir, Saturation, Some(2));
            // A directory where the next epoch's tmp snapshot goes makes
            // the rotation's open fail.
            let blocker = dir.path().join(format!("snap-{:020}.bin.tmp", 1));
            std::fs::create_dir(&blocker).unwrap();
            for i in 0..3 {
                e.submit(chain(10 * i, Some(10 * i + 1))).unwrap();
            }
            assert!(e.take_snapshot_error().is_some(), "rotation failure lost");
            assert!(
                e.take_snapshot_error().is_none(),
                "error not cleared on read"
            );
            assert_eq!(e.store().epoch(), 0);
            std::fs::remove_dir(&blocker).unwrap();
            e.submit(chain(30, Some(31))).unwrap();
            assert!(e.take_snapshot_error().is_none());
            assert_eq!(e.store().epoch(), 1, "rotation not retried");
            e.submit(chain(40, Some(41))).unwrap();
        }
        let e = open_one(&dir, Saturation, Some(2));
        assert!(e.recovery_report().had_snapshot);
        let pending = e.engine().pending().into_iter().map(|(_, q)| q.name);
        assert_eq!(
            names(pending.collect()),
            names((0..5).map(|i| format!("q{}", 10 * i)).collect())
        );
        e.validate_invariants();
    }

    /// A rebalance pass between submits is invisible to durability:
    /// post-move commits land on the new shard's stream, and recovery
    /// restores the exact pending set.
    #[test]
    fn rebalance_then_crash_recovers_the_exact_pending_set() {
        let dir = TempDir::new("durable-rebalance");
        {
            let e = DurableShardedEngine::open(dir.path(), Saturation, 2, MiniCodec, opts(None))
                .unwrap();
            // Two medium chains land on distinct shards; the third —
            // twice as long — co-locates with one of them and makes
            // its shard hot.
            for i in 0..8i64 {
                e.submit(chain(i, Some(i + 1))).unwrap();
            }
            for i in 0..8i64 {
                e.submit(chain(100 + i, Some(100 + i + 1))).unwrap();
            }
            for i in 0..16i64 {
                e.submit(chain(200 + i, Some(200 + i + 1))).unwrap();
            }
            let report = e.engine().rebalance();
            assert!(report.triggered, "no skew detected: {report:?}");
            assert!(report.groups_moved >= 1, "nothing moved: {report:?}");
            // Post-move submits follow the moved component; their
            // records go to its new shard's stream.
            let lens_before = e.wal_stream_lens();
            e.submit(chain(8, Some(9))).unwrap();
            e.submit(chain(108, Some(109))).unwrap();
            e.submit(chain(216, Some(217))).unwrap();
            let lens_after = e.wal_stream_lens();
            assert!(
                lens_before.iter().zip(&lens_after).all(|(b, a)| a >= b)
                    && lens_after.iter().sum::<u64>() > lens_before.iter().sum::<u64>(),
                "commit records not appended: {lens_before:?} → {lens_after:?}"
            );
            assert_eq!(e.engine().pending_count(), 35);
        } // crash
        let e =
            DurableShardedEngine::open(dir.path(), Saturation, 2, MiniCodec, opts(None)).unwrap();
        assert_eq!(e.engine().pending_count(), 35);
        // Every chain — moved or not — still completes.
        for (start, len) in [(0i64, 10i64), (100, 10), (200, 18)] {
            let r = e.submit(chain(start + len - 1, None)).unwrap();
            assert!(r.coordinated(), "chain at {start} lost");
            assert_eq!(r.retired.len() as i64, len, "chain at {start}");
        }
        assert_eq!(e.engine().pending_count(), 0);
    }

    #[test]
    fn shard_count_can_change_across_restarts() {
        let dir = TempDir::new("durable-reshard");
        {
            let e = DurableShardedEngine::open(dir.path(), Saturation, 4, MiniCodec, opts(None))
                .unwrap();
            for i in 0..6i64 {
                e.submit(chain(100 * i, Some(100 * i + 1))).unwrap();
            }
        }
        let e =
            DurableShardedEngine::open(dir.path(), Saturation, 2, MiniCodec, opts(None)).unwrap();
        assert_eq!(e.engine().pending_count(), 6);
        let r = e.submit(chain(1, None)).unwrap();
        assert!(r.coordinated());
        assert_eq!(r.retired.len(), 2);
    }
}
