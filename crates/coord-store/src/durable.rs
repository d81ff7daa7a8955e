//! The durable layer over the sharded online coordination engine.
//!
//! [`DurableShardedEngine`] wraps a [`ShardedEngine`] with one
//! [`CoordStore`]: one ordered write-ahead log per snapshot epoch. The
//! commit protocol:
//!
//! 1. apply the submit to the in-memory engine (a rejected submit
//!    mutates nothing and logs nothing),
//! 2. still under the shard lock that accepted it, append the mutation
//!    — the query plus the seqs it retired — as **one** checksummed
//!    commit record to the store's in-memory tail,
//! 3. after the shard lock drops, commit the record (write it, and sync
//!    it per policy, by group commit),
//! 4. acknowledge the caller.
//!
//! Recovery never re-evaluates components: the log already says which
//! queries retired, so recovery decodes the surviving pending set and
//! re-indexes it with `insert_pending` — which is why replay is *faster*
//! than live submission (the benchmark's `store.replay_records_per_s`).
//!
//! ## Query ids and the live set
//!
//! A submit's seq is also its query's id in the engine: the engine
//! carries it across migrations and names each retired query by it, so
//! a commit record's retired list is read straight off the engine's
//! outcome — nothing is looked up by value, and byte-identical queries
//! keep distinct seqs. The store keeps the live set (seq → encoding,
//! the snapshot payload) itself, updating it in the same critical
//! section that buffers the record: a rejected submit never reaches it,
//! and a snapshot captures exactly the records it drains.
//!
//! ## One ordered log
//!
//! Linked queries are always co-sharded, and a migration moves a
//! component between submits under the same shard locks. So the submit
//! that retires a partner runs under a shard lock that was taken after
//! the partner's own submit released it, and the partner's record is
//! already in the log's append order. Every record therefore follows the
//! records of the queries it retires, for any number of shards and
//! threads, and the log is one linearization of the accepted submits.
//! Commits make prefixes of that order durable, so:
//!
//! * **acked ⇒ recovered**: an acknowledged submit's record, and every
//!   record before it — each partner its coordination names included —
//!   survives any crash;
//! * **strict prefix**: recovery restores exactly the state after some
//!   prefix of that linearization (the contract `tests/crash_points.rs`
//!   checks at every byte offset, and at every record boundary of a
//!   multi-shard, multi-threaded run).
//!
//! A rebalance is an in-memory placement change: it writes no record,
//! and recovery re-routes the surviving pending set against the current
//! shards, whose count may differ from the one that wrote the log.

use crate::codec::QueryCodec;
use crate::error::{DurableError, StoreError};
use crate::store::{CommitRecord, CoordStore, RecoveryReport, StoreOptions};
use coord_engine::{
    ComponentEvaluator, CoordinationQuery, Placement, ShardedEngine, SubmitOutcome,
};
use coord_obs::Registry as ObsRegistry;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

/// Durability configuration for [`DurableShardedEngine`]: the store's
/// options (sync policy and snapshot interval).
pub type DurabilityOptions = StoreOptions;

/// A [`ShardedEngine`] whose accepted submits are logged to one ordered
/// WAL. With `shards = 1` and a single submitting thread it is the
/// single-writer durable engine; with more of either, recovery is still
/// a strict prefix of one linearization of the submits.
pub struct DurableShardedEngine<Q: CoordinationQuery, V, C> {
    inner: ShardedEngine<Q, V>,
    store: CoordStore,
    codec: C,
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
        let recovered = CoordStore::open_with_obs(dir, options, obs.clone())?;
        let inner = ShardedEngine::with_obs(evaluator, shards, Placement::default(), obs);
        // By value: each encoding is freed once its query is indexed, so
        // the store's own copy of the live set is the only one left.
        for (seq, bytes) in recovered.live {
            // Replay never re-evaluates: pending survivors are routed
            // and re-indexed only (the log proved they did not
            // coordinate before the crash).
            inner.insert_pending(seq, codec.decode(&bytes)?);
        }
        Ok(DurableShardedEngine {
            inner,
            store: recovered.store,
            codec,
            next_seq: AtomicU64::new(recovered.next_seq),
            report: recovered.report,
            snapshot_error: Mutex::new(None),
        })
    }

    /// Submit under the owning shard's lock, which also appends the
    /// accepted mutation's commit record; the record is committed —
    /// written, and synced per policy — before the caller is
    /// acknowledged. Snapshot failures during a background rotation do
    /// not fail the submit — see [`Self::take_snapshot_error`].
    pub fn submit(
        &self,
        query: Q,
    ) -> Result<SubmitOutcome<Q, V::Delivery>, DurableError<V::Error>> {
        // Open the request's root trace ticket here, at the durable
        // stack's entry point, so the root "submit" span covers the
        // engine apply *and* the WAL commit that follows it; the
        // sharded engine's own submit ticket nests under this context
        // and reuses the same trace id.
        let _ticket = self.inner.obs().tracer().ticket("submit");
        let mut query_bytes = Vec::new();
        self.codec.encode(&query, &mut query_bytes);
        // The seq is the query's id in the engine, so the engine names
        // this query by it if a later submit retires it.
        let seq = self.next_seq.fetch_add(1, Ordering::SeqCst);
        let mut lsn = 0;
        let outcome = self
            .inner
            .submit_with_hook(seq, query, |ctx, outcome| {
                let record = CommitRecord {
                    seq,
                    query: query_bytes,
                    retired: outcome.retired.iter().map(|(s, _)| *s).collect(),
                };
                lsn = self.store.append(ctx, record);
            })
            .map_err(DurableError::Engine)?;
        self.store.commit(lsn)?;
        if self.store.snapshot_due() {
            if let Err(e) = self.store.snapshot_if_due() {
                *self
                    .snapshot_error
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner) = Some(e);
            }
        }
        Ok(outcome)
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

    /// The underlying store (stats, epoch, log length, and
    /// [`CoordStore::snapshot`] — concurrent submitters keep running).
    pub fn store(&self) -> &CoordStore {
        &self.store
    }

    /// The live log's length as a one-element list: after an
    /// acknowledged submit, the offset a crash that keeps only synced
    /// bytes cuts at (see [`CoordStore::wal_len`]). A list because
    /// callers cut `wal-{epoch}-{index}.log` at `lens[index]`.
    pub fn wal_stream_lens(&self) -> Vec<u64> {
        vec![self.store.wal_len()]
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

    /// Check the wrapped engine's invariants plus the store's live set
    /// (its seqs are exactly the engine's pending ids). Quiescent only:
    /// the two sets are read at different moments, shard by shard.
    ///
    /// # Panics
    /// Panics with a description if an invariant is violated.
    pub fn validate_invariants(&self) {
        self.inner.validate_invariants();
        let mut ids: Vec<u64> = self.inner.pending().into_iter().map(|(id, _)| id).collect();
        ids.sort_unstable();
        assert_eq!(
            self.store.live_seqs(),
            ids,
            "the store's live set drifted from the pending set"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::temp::TempDir;
    use crate::testkit::{chain, mini, MiniCodec, MiniQuery, SaturationEvaluator as Saturation};
    use crate::wal::SyncPolicy;

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
                e.store().snapshot().unwrap();
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
    /// post-move commits follow the moved component into the one log,
    /// and recovery restores the exact pending set.
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
            // records go to the one log.
            let len_before = e.store().wal_len();
            e.submit(chain(8, Some(9))).unwrap();
            e.submit(chain(108, Some(109))).unwrap();
            e.submit(chain(216, Some(217))).unwrap();
            let len_after = e.store().wal_len();
            assert!(
                len_after > len_before,
                "commit records not appended: {len_before} → {len_after}"
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
