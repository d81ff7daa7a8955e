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
//! re-indexes it with `insert_pending` — which is why the `durability`
//! bench measures replay *faster* than live submission.
//!
//! ## The retired-seq registry
//!
//! The engine retires queries by value, not by any stable id, so the
//! wrapper keeps a registry mapping each pending query's encoding to the
//! seqs that submitted it (a multiset: duplicate queries pop oldest
//! first — retiring either duplicate reconstructs the same pending
//! multiset). The registry entry is made *before* the engine apply, so a
//! concurrent submit on another thread that retires the query always
//! finds its seq.
//!
//! ## Acknowledgment window (closed)
//!
//! With multiple log streams, a submit used to be able to retire a
//! query whose own commit record (on another stream) had not hit the
//! log yet: recovery stayed exact — a retire naming a never-logged seq
//! is simply ignored, and the unlogged query was never acknowledged —
//! but a *delivered* coordination could mention a partner whose commit
//! record was lost with the crash. The wrapper now enforces a
//! **per-coordination flush barrier**: the registry tracks, per seq,
//! whether the submit's commit record has been appended, a retire only
//! pops seqs whose record is on its stream (waiting out the short
//! append-in-flight window of a concurrent partner), and a delivering
//! submit syncs every stream before acknowledging (under any policy
//! stronger than [`SyncPolicy::Never`]). So at the moment a
//! coordination is delivered, every partner's commit record is appended
//! — and as durable as the deliverer's own record. The one residual
//! caveat: if a partner's *append itself failed* (a [`StoreError`]
//! already surfaced to that partner's submitter), its seq is released
//! rather than blocking the retirer forever — that degraded-durability
//! state is explicit on both sides.
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
use coord_engine::lockrank::{self, LockRank};
use coord_engine::{
    ComponentEvaluator, CoordinationQuery, Placement, ShardedEngine, SubmitOutcome,
};
use coord_obs::Registry as ObsRegistry;
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

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

/// One registered pending query: its encoding plus where its submit
/// stands. Submits *reserve* an entry before the engine apply
/// (so a racing retire on another thread always finds the seq) and
/// confirm it afterwards; snapshots skip unconfirmed entries — a
/// reserved entry may belong to a submit the engine is about to reject,
/// and capturing it would resurrect a query no uninterrupted run ever
/// held. `logged` flips once the submit's commit record is appended to
/// its stream (or its append definitively failed): the ack-window
/// barrier only lets a retire pop logged entries, so a delivered
/// coordination can never name a partner whose record is still in
/// flight.
struct RegistryEntry {
    bytes: Vec<u8>,
    applied: bool,
    logged: bool,
}

/// Pending-set bookkeeping: seq → encoding (the
/// snapshot payload) and encoding → seqs (retired-query lookup).
#[derive(Default)]
struct Registry {
    live: BTreeMap<u64, RegistryEntry>,
    by_bytes: HashMap<Vec<u8>, VecDeque<u64>>,
}

impl Registry {
    fn insert(&mut self, seq: u64, bytes: Vec<u8>, applied: bool, logged: bool) {
        self.by_bytes
            .entry(bytes.clone())
            .or_default()
            .push_back(seq);
        self.live.insert(
            seq,
            RegistryEntry {
                bytes,
                applied,
                logged,
            },
        );
    }

    /// Mark a reserved seq as applied by the engine (snapshots may now
    /// capture it).
    fn confirm(&mut self, seq: u64) {
        if let Some(entry) = self.live.get_mut(&seq) {
            entry.applied = true;
        }
    }

    /// Mark a seq's commit record as appended to its stream (no-op if
    /// the entry was already retired — a submit that coordinated
    /// immediately pops its own entry before appending).
    fn mark_logged(&mut self, seq: u64) {
        if let Some(entry) = self.live.get_mut(&seq) {
            entry.logged = true;
        }
    }

    /// Pop the oldest **applied and logged** live seq whose query has
    /// this encoding (`own_seq` — the retiring submit's own reservation
    /// — is exempt from the logged requirement: its record is appended,
    /// with the retire list, right after). Reserved (unapplied) seqs
    /// are never taken: they may belong to a concurrent submit the
    /// engine is about to reject, and retiring one would leave the
    /// applied duplicate's seq in the registry with no engine copy
    /// behind it — which a snapshot or replay would then resurrect.
    /// Applied-but-unlogged seqs are not taken either — that is the
    /// acknowledgment-window barrier: the caller waits out the
    /// partner's in-flight append instead of delivering a coordination
    /// whose partner might never reach the log.
    fn retire(&mut self, bytes: &[u8], own_seq: Option<u64>) -> Option<u64> {
        let seqs = self.by_bytes.get(bytes)?;
        let pos = seqs.iter().position(|s| {
            self.live
                .get(s)
                .is_some_and(|e| e.applied && (e.logged || own_seq == Some(*s)))
        })?;
        let seqs = self.by_bytes.get_mut(bytes).expect("checked above");
        let seq = seqs.remove(pos).expect("position in bounds");
        if seqs.is_empty() {
            self.by_bytes.remove(bytes);
        }
        self.live.remove(&seq);
        Some(seq)
    }

    /// Remove a specific reserved seq (a rejected submit).
    fn remove(&mut self, seq: u64) {
        if let Some(entry) = self.live.remove(&seq) {
            if let Some(seqs) = self.by_bytes.get_mut(&entry.bytes) {
                seqs.retain(|&s| s != seq);
                if seqs.is_empty() {
                    self.by_bytes.remove(&entry.bytes);
                }
            }
        }
    }

    /// Applied entries only: a reserved-but-unconfirmed entry's record
    /// (if the submit is accepted at all) will land in the post-rotation
    /// epoch, so skipping it here loses nothing.
    fn capture(&self) -> Vec<(u64, Vec<u8>)> {
        self.live
            .iter()
            .filter(|(_, e)| e.applied)
            .map(|(s, e)| (*s, e.bytes.clone()))
            .collect()
    }

    fn len(&self) -> usize {
        self.live.len()
    }
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
    registry: Mutex<Registry>,
    next_seq: AtomicU64,
    report: RecoveryReport,
    /// Last failed background rotation (see [`Self::take_snapshot_error`]).
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
        let mut registry = Registry::default();
        for (seq, bytes) in &recovered.live {
            // Replay never re-evaluates: pending survivors are routed
            // and re-indexed only (the log proved they did not
            // coordinate before the crash).
            inner.insert_pending(codec.decode(bytes)?);
            registry.insert(*seq, bytes.clone(), true, true);
        }
        Ok(DurableShardedEngine {
            inner,
            store: recovered.store,
            codec,
            registry: Mutex::new(registry),
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
        // Reserve the seq *before* the engine apply so a concurrent
        // submit that retires this query can always find its seq; the
        // reservation is unapplied, so a concurrent snapshot will not
        // capture it (the submit might still be rejected).
        let seq = self.next_seq.fetch_add(1, Ordering::SeqCst);
        lockrank::ranked(LockRank::Registry, self.registry.lock()).insert(
            seq,
            qbytes.clone(),
            false,
            false,
        );
        let (shard, outcome) = match self.inner.submit_with_shard(query) {
            (_, Err(e)) => {
                lockrank::ranked(LockRank::Registry, self.registry.lock()).remove(seq);
                return Err(DurableError::Engine(e));
            }
            (shard, Ok(o)) => (shard, o),
        };
        let mut retired = Vec::with_capacity(outcome.retired.len());
        lockrank::ranked(LockRank::Registry, self.registry.lock()).confirm(seq);
        for q in &outcome.retired {
            let mut b = Vec::new();
            self.codec.encode(q, &mut b);
            // The retired query was in the engine, so a matching
            // *applied* entry exists — or its submitter sits in the
            // short window between engine apply and confirm, or between
            // confirm and its append. Wait those windows out (without
            // holding the registry lock) rather than pop a reserved
            // entry that may belong to a submit about to be rejected,
            // or deliver a coordination naming a partner whose commit
            // record never reached its stream. The waited-on submit
            // never waits on us in turn — its own retire targets were
            // applied strictly before it applied — so the wait graph
            // follows engine-apply order and cannot cycle.
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
            let s = loop {
                if let Some(s) =
                    lockrank::ranked(LockRank::Registry, self.registry.lock()).retire(&b, Some(seq))
                {
                    break s;
                }
                assert!(
                    std::time::Instant::now() < deadline,
                    "retired query has no applied+logged registry entry"
                );
                std::thread::yield_now();
            };
            retired.push(s);
        }
        let appended = self.store.append_commit(
            shard,
            &CommitRecord {
                seq,
                query: qbytes,
                retired: retired.clone(),
            },
        );
        // Release waiters either way: on success the record is on its
        // stream; on failure the submit is about to surface a store
        // error (the documented applied-but-not-durable state) and no
        // record will ever come — blocking a retirer forever would turn
        // one stream's fault into a service-wide stall.
        lockrank::ranked(LockRank::Registry, self.registry.lock()).mark_logged(seq);
        appended?;
        // Per-coordination flush barrier: partners' records are
        // *appended* (the retire loop waited for that); make them as
        // durable as this record before acknowledging the delivery.
        // Only `EveryN` needs the explicit sync — under `EveryRecord`
        // every partner append already synced itself before its
        // `mark_logged`, and under `Never` nothing is ever synced, so
        // there is nothing to strengthen.
        if !retired.is_empty() && matches!(self.store.options().sync, SyncPolicy::EveryN(_)) {
            self.store.sync_all()?;
        }
        if self.store.snapshot_due() {
            if let Err(e) = self.snapshot_if_due() {
                *self.snapshot_error.lock() = Some(e);
            }
        }
        Ok(outcome)
    }

    /// Take a snapshot now, rotating every shard's WAL to the next
    /// epoch. Concurrent submitters keep running; the capture happens
    /// under the store's rotation lock with no appends in flight.
    pub fn snapshot(&self) -> Result<(), StoreError> {
        self.store.snapshot(|| self.capture())
    }

    /// Rotate only if the record threshold is still exceeded — many
    /// submitters crossing it together produce one rotation, not one
    /// each.
    // lint: acquires(snap_lock, store.state, registry)
    fn snapshot_if_due(&self) -> Result<(), StoreError> {
        self.store.snapshot_if_due(|| self.capture()).map(|_| ())
    }

    /// Registry captured under the rotation lock: every record already
    /// appended is reflected, every in-flight submit will append to the
    /// new epoch (replay is idempotent either way).
    // lint: acquires(registry)
    fn capture(&self) -> (u64, Vec<(u64, Vec<u8>)>) {
        let registry = lockrank::ranked(LockRank::Registry, self.registry.lock());
        (self.next_seq.load(Ordering::SeqCst), registry.capture())
    }

    /// The last *background* snapshot failure (a rotation triggered by
    /// `snapshot_every` during a submit), if any, cleared on read.
    /// Submits stay durable through the still-open WAL when a rotation
    /// fails; this surfaces the degraded state for monitoring.
    pub fn take_snapshot_error(&self) -> Option<StoreError> {
        self.snapshot_error.lock().take()
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
    /// (one registry entry per pending query). Quiescent only: a submit
    /// in flight on another thread holds a reserved entry the engine
    /// does not have yet.
    ///
    /// # Panics
    /// Panics with a description if an invariant is violated.
    pub fn validate_invariants(&self) {
        self.inner.validate_invariants();
        let pending = self.inner.pending_count();
        assert_eq!(
            lockrank::ranked(LockRank::Registry, self.registry.lock()).len(),
            pending,
            "registry drifted from the pending set"
        );
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
    /// *rejects* must not capture the reserved (unapplied) registry
    /// entry — otherwise recovery resurrects a query whose submitter
    /// was told `Err`.
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
                // `bad` is reserved in the registry but not applied:
                // the snapshot must skip it.
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

    /// The acknowledgment-window barrier at the registry level: an
    /// applied entry whose commit record is still in flight cannot be
    /// popped by a concurrent retirer — only by its own submit.
    #[test]
    fn registry_retire_waits_for_logged_entries() {
        let mut r = Registry::default();
        r.insert(1, b"q".to_vec(), true, false); // applied, append in flight
        assert_eq!(r.retire(b"q", None), None, "unlogged entry popped");
        assert_eq!(r.retire(b"q", Some(1)), Some(1), "own seq is exempt");
        r.insert(2, b"q".to_vec(), true, false);
        assert_eq!(r.retire(b"q", None), None);
        r.mark_logged(2);
        assert_eq!(r.retire(b"q", None), Some(2));
        // Reserved (unapplied) entries stay untouchable either way.
        r.insert(3, b"q".to_vec(), false, true);
        assert_eq!(r.retire(b"q", None), None);
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
