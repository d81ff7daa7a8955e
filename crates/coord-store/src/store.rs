//! The coordination store: one ordered write-ahead log per epoch plus
//! snapshots, with deterministic prefix recovery.
//!
//! ## On-disk layout
//!
//! ```text
//! <dir>/snap-{epoch:020}.bin        point-in-time pending set (at most one live)
//! <dir>/wal-{epoch:020}-0000.log    the log of the current epoch
//! ```
//!
//! The `-0000` suffix is a stream index left from an older layout that
//! kept one log per shard. [`CoordStore::open_with_obs`] refuses a live epoch
//! that still holds a `-000N` log with N ≠ 0 rather than drop its
//! records.
//!
//! Engine mutations are **commit records**: one per accepted submit,
//! carrying the submitted query and the seqs of every query the submit
//! retired. A record is atomic (one checksummed frame), so any clean
//! record prefix corresponds exactly to a prefix of logged submits.
//!
//! ## Append and group commit
//!
//! [`CoordStore::append`] touches memory only: under the `LogBuf` mutex
//! it adds the record's frame to the unwritten tail, applies the record
//! to the store's live pending set (seq → encoded query), and returns
//! its LSN, the log's byte count just past it (growing across epochs).
//! [`CoordStore::commit`] takes the `LogFlush` mutex from the root
//! context. If an earlier flush covered the LSN it returns at once;
//! otherwise it drains the whole tail, writes and syncs it outside
//! `LogBuf`, and publishes the durable LSN. Submitters queued on
//! `LogFlush` find their records covered by the flush ahead of them:
//! that queue is the group commit. No syscall ever runs under `LogBuf`.
//!
//! The log is **fail-stop**: after a failed write or sync the file may
//! end in torn bytes, so every later commit — the failed batch's other
//! records included — returns a [`StoreError`] until the store is
//! reopened, and recovery keeps the clean prefix.
//!
//! ## Recovery
//!
//! Recovery applies `snapshot + log` in log order: insert each logged
//! submit, remove each seq it retired. A record always follows the
//! records of the queries it retires (see [`crate::durable`]), so the
//! result is the state after a prefix of one linearization of the
//! submits.
//!
//! Recovery is **availability-first**: damage to the log — a torn tail,
//! a flipped byte, a zero-filled region, even a garbled header — shrinks
//! the recovered prefix (reported via [`RecoveryReport::torn_tails`])
//! but never refuses to open the store. Only a *renamed* snapshot that
//! fails validation is a hard error, because it was fsynced before the
//! rename made it visible and the data it carried is gone with it.
//!
//! ## Snapshot rotation
//!
//! A snapshot advances the epoch while holding `LogFlush`, so nothing
//! acknowledged in the new epoch precedes the rename. Under `LogBuf`,
//! briefly, it drains the tail and copies the live set; later appends
//! belong to the new epoch. Then it writes the drained tail to the old
//! log, writes `snap-{e+1}.bin.tmp` (fsynced), creates the empty log of
//! epoch `e+1`, fsyncs the directory, renames the snapshot into place
//! (the commit point), and deletes the old epoch's files. Every fallible
//! step precedes the rename, so a failed or crashed rotation leaves
//! epoch `e` fully authoritative (tmp and stray new-epoch files are
//! swept on the next open), and once the rename lands, epoch `e+1` is
//! complete.

use crate::bytes::{put_bytes, put_u32, put_u64, Reader};
use crate::error::StoreError;
use crate::frame::{scan_frames, write_frame};
use crate::wal::{read_wal, SyncPolicy, WalWriter, WAL_HEADER_LEN};
use coord_engine::lock_order::{self, LockAfter, LockCtx, OrderedMutex};
use coord_obs::{Counter, Gauge, Histogram, Registry as ObsRegistry, TraceCtx, Tracer};
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Snapshot file magic: `CSNP` + format version 1.
pub const SNAP_MAGIC: [u8; 8] = *b"CSNP\x00\x00\x00\x01";

/// Record tag: one accepted submit plus the set it retired.
const TAG_COMMIT: u8 = 1;

/// A log sequence number: the log's byte count just past a record,
/// growing across epochs from 0 at open.
pub type Lsn = u64;

/// Store configuration.
#[derive(Clone, Copy, Debug)]
pub struct StoreOptions {
    /// When records reach stable storage.
    pub sync: SyncPolicy,
    /// Take a snapshot (and rotate the epoch) after this many records;
    /// `None` disables snapshotting.
    pub snapshot_every: Option<u64>,
}

impl Default for StoreOptions {
    fn default() -> Self {
        StoreOptions {
            sync: SyncPolicy::Never,
            snapshot_every: Some(1024),
        }
    }
}

/// One engine mutation as logged: an accepted submit and the retired
/// set it produced.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CommitRecord {
    /// The submit's globally unique sequence number.
    pub seq: u64,
    /// The submitted query, encoded by the caller's codec.
    pub query: Vec<u8>,
    /// Seqs retired by this submit's coordination (possibly including
    /// `seq` itself when the new query coordinated immediately).
    pub retired: Vec<u64>,
}

impl CommitRecord {
    /// Encode into a WAL payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.query.len() + 16 * self.retired.len() + 32);
        out.push(TAG_COMMIT);
        put_u64(&mut out, self.seq);
        put_bytes(&mut out, &self.query);
        put_u32(&mut out, self.retired.len() as u32);
        for &r in &self.retired {
            put_u64(&mut out, r);
        }
        out
    }

    /// Decode from a WAL payload.
    pub fn decode(payload: &[u8]) -> Result<Self, StoreError> {
        let mut r = Reader::new(payload);
        let tag = r.u8()?;
        if tag != TAG_COMMIT {
            return Err(StoreError::codec(format!("unknown record tag {tag}")));
        }
        let seq = r.u64()?;
        let query = r.bytes()?.to_vec();
        let n = r.count(8)?;
        let mut retired = Vec::with_capacity(n);
        for _ in 0..n {
            retired.push(r.u64()?);
        }
        Ok(CommitRecord {
            seq,
            query,
            retired,
        })
    }
}

/// What recovery found on disk.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Whether a snapshot seeded the state.
    pub had_snapshot: bool,
    /// Pending entries loaded from the snapshot.
    pub snapshot_entries: usize,
    /// Commit records replayed from the epoch's log.
    pub records_replayed: usize,
    /// Damage found in the log: a torn or corrupt tail cut off, an
    /// undecodable record, or an unreadable header.
    pub torn_tails: usize,
}

/// Point-in-time counters for the store.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStatsSnapshot {
    pub records_appended: u64,
    pub bytes_appended: u64,
    pub snapshots_taken: u64,
    pub epoch: u64,
}

/// What `LogBuf` guards: the records appended but not yet written, and
/// the pending set the appended records leave. Recovery builds one by
/// applying the log.
#[derive(Default)]
struct Buffered {
    /// Framed records, in append order.
    tail: Vec<u8>,
    /// LSN just past the last appended record.
    end: Lsn,
    /// seq → encoded query of every pending query.
    live: BTreeMap<u64, Vec<u8>>,
    /// The first seq no record has named.
    next_seq: u64,
}

impl Buffered {
    /// Apply one commit record: its query joins the pending set and
    /// every seq it retired leaves it. A retire can name a seq whose own
    /// record a damaged log lost; `next_seq` still advances past it,
    /// because reusing the seq would let this stale retire delete a
    /// *new* query on the following recovery.
    fn apply(&mut self, record: CommitRecord) {
        self.next_seq = self.next_seq.max(record.seq + 1);
        self.live.insert(record.seq, record.query);
        for seq in record.retired {
            self.live.remove(&seq);
            self.next_seq = self.next_seq.max(seq + 1);
        }
    }
}

/// What `LogFlush` guards: the live epoch's log file.
struct LogFile {
    writer: WalWriter,
    epoch: u64,
}

/// The store's observability handles: one registry shared with the
/// engine layer (the durable wrappers thread a single registry through
/// both), plus the recording instruments drawn from it.
struct StoreObs {
    registry: ObsRegistry,
    /// "wal_append_nanos": latency of one commit as the submitter sees
    /// it (the wait for the log file, the write, and the policy's sync).
    append_hist: Histogram,
    /// "wal_sync_nanos": latency of one fsync.
    sync_hist: Histogram,
    /// "snapshot_rotation_nanos": one full rotation.
    rotation_hist: Histogram,
    /// "store_epoch": the current epoch, updated on open and rotation.
    epoch_gauge: Gauge,
    tracer: Tracer,
}

impl StoreObs {
    fn new(registry: ObsRegistry) -> Self {
        StoreObs {
            append_hist: registry.histogram("wal_append_nanos"),
            sync_hist: registry.histogram("wal_sync_nanos"),
            rotation_hist: registry.histogram("snapshot_rotation_nanos"),
            epoch_gauge: registry.gauge("store_epoch"),
            tracer: registry.tracer(),
            registry,
        }
    }

    /// Open the log of `epoch` for appending: a fresh file when
    /// `clean_len` is 0, else the existing one cut back to `clean_len`.
    fn writer(
        &self,
        path: &Path,
        epoch: u64,
        clean_len: u64,
        sync: SyncPolicy,
    ) -> Result<WalWriter, StoreError> {
        let mut writer = if clean_len == 0 {
            WalWriter::create(path, epoch, sync)?
        } else {
            WalWriter::reopen(path, clean_len, sync)?
        };
        writer.set_obs(self.sync_hist.clone(), self.tracer.clone());
        Ok(writer)
    }
}

/// The durable store: one ordered WAL plus snapshots in one directory.
pub struct CoordStore {
    dir: PathBuf,
    opts: StoreOptions,
    file: OrderedMutex<lock_order::LogFlush, LogFile>,
    buf: OrderedMutex<lock_order::LogBuf, Buffered>,
    /// Every record up to this LSN is written, and synced under
    /// [`SyncPolicy::EveryRecord`]. Published under `LogFlush`.
    durable: AtomicU64,
    /// Records appended since the last rotation (updated under
    /// `LogBuf`).
    since_snapshot: AtomicU64,
    records_appended: Counter,
    bytes_appended: Counter,
    snapshots_taken: Counter,
    obs: StoreObs,
}

/// Result of opening a store directory: the store plus the recovered
/// pending set (encoded queries by seq).
pub struct Recovered {
    pub store: CoordStore,
    /// First unused sequence number.
    pub next_seq: u64,
    /// Surviving pending set: seq → encoded query, in seq order.
    pub live: BTreeMap<u64, Vec<u8>>,
    pub report: RecoveryReport,
}

fn snap_name(epoch: u64) -> String {
    format!("snap-{epoch:020}.bin")
}

fn wal_name(epoch: u64) -> String {
    format!("wal-{epoch:020}-0000.log")
}

fn parse_snap(name: &str) -> Option<u64> {
    let rest = name.strip_prefix("snap-")?.strip_suffix(".bin")?;
    rest.parse().ok()
}

/// `(epoch, stream)` of a log file name.
fn parse_wal(name: &str) -> Option<(u64, usize)> {
    let rest = name.strip_prefix("wal-")?.strip_suffix(".log")?;
    let (epoch, stream) = rest.split_once('-')?;
    Some((epoch.parse().ok()?, stream.parse().ok()?))
}

/// Push the directory's entry table to stable storage, so renames and
/// newly created files survive power loss in the order we committed
/// them.
fn fsync_dir(dir: &Path) -> Result<(), StoreError> {
    File::open(dir)?.sync_all()?;
    Ok(())
}

/// Replay the log at `path` into `live`; returns its clean length, or 0
/// when the header is damaged and the file must be recreated.
fn replay(
    path: &Path,
    epoch: u64,
    live: &mut Buffered,
    report: &mut RecoveryReport,
) -> Result<u64, StoreError> {
    let contents = match read_wal(path) {
        Ok(contents) if contents.epoch == epoch => contents,
        // A header that never made it to disk, or whose epoch disagrees
        // with the file name, cannot vouch for its records: an empty
        // clean prefix.
        Ok(_) | Err(StoreError::Corrupt(_)) => {
            report.torn_tails += 1;
            return Ok(0);
        }
        Err(e) => return Err(e),
    };
    if contents.torn {
        report.torn_tails += 1;
    }
    for (i, payload) in contents.records.iter().enumerate() {
        match CommitRecord::decode(payload) {
            Ok(record) => {
                live.apply(record);
                report.records_replayed += 1;
            }
            Err(_) => {
                // Checksum-clean but undecodable — e.g. a zero-filled
                // region from a crashed allocation parses as endless
                // empty frames. Availability-first prefix stop, like any
                // other corruption: recovery never refuses to open.
                report.torn_tails += 1;
                return Ok(if i == 0 {
                    WAL_HEADER_LEN
                } else {
                    contents.record_ends[i - 1]
                });
            }
        }
    }
    Ok(contents.clean_len)
}

impl CoordStore {
    /// Open (or create) a store directory, recovering the pending set
    /// from `snapshot + log`. A torn tail is truncated; files from
    /// superseded epochs and abandoned `.tmp` snapshots are removed.
    /// Records into `registry` (shared with the engine layer by the
    /// durable wrappers, or [`ObsRegistry::disabled`]); recovery itself
    /// is measured: `store_replay_records` counts the commit records
    /// replayed, `store_replay_nanos` gauges the open-to-ready time.
    /// Fails on I/O errors, on a damaged snapshot, and when the live
    /// epoch holds a log with a stream index other than 0, which an
    /// older layout wrote and this store cannot order against stream 0.
    pub fn open_with_obs(
        dir: impl AsRef<Path>,
        opts: StoreOptions,
        registry: ObsRegistry,
    ) -> Result<Recovered, StoreError> {
        let obs = StoreObs::new(registry);
        let replay_start = Instant::now();
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;

        // Inventory the directory.
        let mut snaps: Vec<u64> = Vec::new();
        let mut wals: Vec<(u64, usize, PathBuf)> = Vec::new();
        let mut tmps: Vec<PathBuf> = Vec::new();
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            // Case-sensitive on purpose: only names this store itself
            // wrote (always lower-case) are sweep candidates.
            #[allow(clippy::case_sensitive_file_extension_comparisons)]
            if name.ends_with(".tmp") {
                tmps.push(entry.path());
            } else if let Some(e) = parse_snap(name) {
                snaps.push(e);
            } else if let Some((e, s)) = parse_wal(name) {
                wals.push((e, s, entry.path()));
            }
        }
        let epoch = snaps.iter().copied().max().unwrap_or(0);
        if let Some((_, _, path)) = wals.iter().find(|(e, s, _)| *e == epoch && *s != 0) {
            return Err(StoreError::corrupt(format!(
                "{} is a per-shard log of an older layout; its records cannot be ordered \
                 against the one log this store keeps",
                path.display()
            )));
        }
        for tmp in tmps {
            let _ = std::fs::remove_file(tmp);
        }

        // Seed from the newest snapshot, if any. A renamed snapshot was
        // fully written and synced before the rename, so a decode
        // failure here is real corruption, not a crash artifact.
        let mut report = RecoveryReport::default();
        let mut live = Buffered::default();
        if !snaps.is_empty() {
            let (next_seq, entries) = read_snapshot(&dir.join(snap_name(epoch)), epoch)?;
            report.had_snapshot = true;
            report.snapshot_entries = entries.len();
            live.live.extend(entries);
            live.next_seq = next_seq;
        }
        let path = dir.join(wal_name(epoch));
        let clean_len = if wals.iter().any(|(e, _, _)| *e == epoch) {
            replay(&path, epoch, &mut live, &mut report)?
        } else {
            0
        };

        // Remove files of superseded epochs.
        for (e, _, path) in &wals {
            if *e != epoch {
                let _ = std::fs::remove_file(path);
            }
        }
        for &e in &snaps {
            if e != epoch {
                let _ = std::fs::remove_file(dir.join(snap_name(e)));
            }
        }

        let writer = obs.writer(&path, epoch, clean_len, opts.sync)?;
        // Best-effort: persist the truncations/creations/deletions this
        // recovery performed (recovery is re-runnable, so a lost batch
        // of metadata just repeats the cleanup next time).
        let _ = fsync_dir(&dir);

        obs.registry
            .counter("store_replay_records")
            .add(report.records_replayed as u64);
        obs.registry
            .gauge("store_replay_nanos")
            .set(replay_start.elapsed().as_nanos() as u64);
        obs.epoch_gauge.set(epoch);
        let (next_seq, pending) = (live.next_seq, live.live.clone());
        let store = CoordStore {
            dir,
            opts,
            file: OrderedMutex::new(LogFile { writer, epoch }),
            buf: OrderedMutex::new(live),
            durable: AtomicU64::new(0),
            since_snapshot: AtomicU64::new(0),
            records_appended: Counter::new(),
            bytes_appended: Counter::new(),
            snapshots_taken: Counter::new(),
            obs,
        };
        let registry = &store.obs.registry;
        registry.register_counter("store_records_appended", &store.records_appended);
        registry.register_counter("store_bytes_appended", &store.bytes_appended);
        registry.register_counter("store_snapshots_taken", &store.snapshots_taken);
        Ok(Recovered {
            store,
            next_seq,
            live: pending,
            report,
        })
    }

    /// Append one commit record to the log buffer and apply it to the
    /// live set; returns its LSN for [`Self::commit`]. Memory only: the
    /// durable layer calls it under the shard lock that accepted the
    /// submit, and the frame is built before `LogBuf` is taken.
    pub fn append<A>(&self, ctx: &mut LockCtx<'_, A>, record: CommitRecord) -> Lsn
    where
        lock_order::LogBuf: LockAfter<A>,
    {
        let mut frame = Vec::new();
        write_frame(&mut frame, &record.encode());
        let lsn = {
            let (mut buf, _) = self.buf.lock(ctx);
            buf.tail.extend_from_slice(&frame);
            buf.end += frame.len() as u64;
            buf.apply(record);
            self.since_snapshot.fetch_add(1, Ordering::Relaxed);
            buf.end
        };
        self.records_appended.incr();
        self.bytes_appended.add(frame.len() as u64);
        lsn
    }

    /// Make every record up to `lsn` durable: written, and synced under
    /// [`SyncPolicy::EveryRecord`]. A record an earlier flush covered
    /// returns at once; otherwise this flushes the whole tail — the
    /// caller's record and every record appended before or since — in
    /// one write and at most one fsync. Fails if the write or the sync
    /// failed, now or in an earlier flush: the log is fail-stop.
    pub fn commit(&self, lsn: Lsn) -> Result<(), StoreError> {
        let _span = self.obs.tracer.begin_in(TraceCtx::current(), "wal_append");
        let _timer = self.obs.append_hist.start();
        if self.durable.load(Ordering::Acquire) >= lsn {
            return Ok(());
        }
        let mut root = LockCtx::root();
        let (mut file, mut ctx) = self.file.lock(&mut root);
        if self.durable.load(Ordering::Acquire) >= lsn {
            return Ok(());
        }
        let (tail, end) = {
            let (mut buf, _) = self.buf.lock(&mut ctx);
            (std::mem::take(&mut buf.tail), buf.end)
        };
        self.write_drained(&mut file, &tail, end)
    }

    /// Write a drained tail to the live log and publish `end` as
    /// durable. On failure the writer refuses every later write.
    fn write_drained(&self, file: &mut LogFile, tail: &[u8], end: Lsn) -> Result<(), StoreError> {
        file.writer.write(tail)?;
        self.durable.store(end, Ordering::Release);
        Ok(())
    }

    /// Whether enough records accumulated since the last rotation for a
    /// snapshot to be due.
    pub fn snapshot_due(&self) -> bool {
        match self.opts.snapshot_every {
            None => false,
            Some(n) => self.since_snapshot.load(Ordering::Relaxed) >= n.max(1),
        }
    }

    /// Snapshot the live set and rotate the epoch. Appends and commits
    /// may run concurrently: what the snapshot holds and what the new
    /// epoch's log holds split at one point of the append order.
    pub fn snapshot(&self) -> Result<(), StoreError> {
        self.rotate(false).map(|_| ())
    }

    /// Like [`Self::snapshot`], but re-checks [`Self::snapshot_due`]
    /// once it holds the log file and skips the rotation (returning
    /// `false`) if another thread already took it — N submitters
    /// crossing the threshold together produce one rotation, not N.
    /// Returns `true` if a snapshot was taken.
    pub fn snapshot_if_due(&self) -> Result<bool, StoreError> {
        self.rotate(true)
    }

    fn rotate(&self, only_if_due: bool) -> Result<bool, StoreError> {
        let mut root = LockCtx::root();
        let (mut file, mut ctx) = self.file.lock(&mut root);
        if only_if_due && !self.snapshot_due() {
            return Ok(false);
        }
        let _span = self
            .obs
            .tracer
            .begin_in(TraceCtx::current(), "snapshot_rotation");
        let _timer = self.obs.rotation_hist.start();
        // Drain the tail and copy the live set in one critical section:
        // the snapshot holds exactly the drained records' effects, and
        // every record appended later belongs to the new epoch.
        let (mut buf, _) = self.buf.lock(&mut ctx);
        let (tail, end) = (std::mem::take(&mut buf.tail), buf.end);
        let drained = self.since_snapshot.load(Ordering::Relaxed);
        let (next_seq, entries) = (buf.next_seq, buf.live.clone());
        drop(buf);
        // The drained records go to the old epoch's log first, so that
        // epoch stays complete if any step below fails.
        self.write_drained(&mut file, &tail, end)?;
        let new_epoch = file.epoch + 1;

        // Write the snapshot to a tmp file and fsync before the rename
        // commit point.
        let tmp = self.dir.join(format!("{}.tmp", snap_name(new_epoch)));
        {
            let mut out = OpenOptions::new()
                .write(true)
                .create(true)
                .truncate(true)
                .open(&tmp)?;
            let mut buf = Vec::new();
            buf.extend_from_slice(&SNAP_MAGIC);
            buf.extend_from_slice(&new_epoch.to_le_bytes());
            let mut meta = Vec::new();
            put_u64(&mut meta, next_seq);
            put_u64(&mut meta, entries.len() as u64);
            write_frame(&mut buf, &meta);
            for (seq, query) in &entries {
                let mut e = Vec::with_capacity(query.len() + 12);
                put_u64(&mut e, *seq);
                put_bytes(&mut e, query);
                write_frame(&mut buf, &e);
            }
            out.write_all(&buf)?;
            out.sync_data()?;
        }

        // Create the new epoch's log BEFORE the rename commit point:
        // every fallible step must precede it, so a failed rotation
        // leaves the old epoch fully authoritative (its log keeps
        // taking durable writes, and the next recovery — seeing no new
        // snapshot — replays it and sweeps the stray tmp/new-epoch
        // files).
        let writer = self.obs.writer(
            &self.dir.join(wal_name(new_epoch)),
            new_epoch,
            0,
            self.opts.sync,
        )?;
        // Make the tmp snapshot's and the new log's directory entries
        // durable before the rename commit point: metadata must not
        // reach disk out of order with the rename, or a power loss
        // could surface the new snapshot without its log file.
        fsync_dir(&self.dir)?;
        std::fs::rename(&tmp, self.dir.join(snap_name(new_epoch)))?;
        // Persist the rename itself before the old epoch's files are
        // unlinked below. Best-effort by design: the rename already
        // happened, so aborting here would leave the in-memory epoch
        // behind the filesystem and funnel acknowledged records into a
        // log the next recovery ignores — strictly worse than a
        // possibly-unpersisted rename.
        let _ = fsync_dir(&self.dir);

        let old_epoch = std::mem::replace(&mut file.epoch, new_epoch);
        file.writer = writer;
        self.since_snapshot.fetch_sub(drained, Ordering::Relaxed);
        self.snapshots_taken.incr();
        self.obs.epoch_gauge.set(new_epoch);
        let _ = std::fs::remove_file(self.dir.join(snap_name(old_epoch)));
        let _ = std::fs::remove_file(self.dir.join(wal_name(old_epoch)));
        Ok(true)
    }

    /// Current epoch.
    pub fn epoch(&self) -> u64 {
        self.file.lock(&mut LockCtx::root()).0.epoch
    }

    /// Length of the live epoch's log. Once a commit returned, this is
    /// the offset a crash that keeps only synced bytes cuts at (under
    /// [`SyncPolicy::Never`], the written bytes).
    pub fn wal_len(&self) -> u64 {
        self.file.lock(&mut LockCtx::root()).0.writer.len()
    }

    /// The seqs of the live pending set, ascending: every appended
    /// submit minus every seq an appended record retired.
    pub fn live_seqs(&self) -> Vec<u64> {
        let mut root = LockCtx::root();
        let (buf, _) = self.buf.lock(&mut root);
        buf.live.keys().copied().collect()
    }

    /// Point-in-time counters.
    pub fn stats(&self) -> StoreStatsSnapshot {
        StoreStatsSnapshot {
            records_appended: self.records_appended.get(),
            bytes_appended: self.bytes_appended.get(),
            snapshots_taken: self.snapshots_taken.get(),
            epoch: self.epoch(),
        }
    }

    /// The observability registry this store records into: WAL append
    /// and sync latency histograms, snapshot-rotation timings, replay
    /// counters, and the epoch gauge.
    pub fn obs(&self) -> &ObsRegistry {
        &self.obs.registry
    }
}

/// A decoded snapshot: the next unused seq plus the pending entries
/// (seq, encoded query).
type SnapshotContents = (u64, Vec<(u64, Vec<u8>)>);

/// Read and validate a snapshot file. Unlike WAL tails, a snapshot must
/// be *entirely* clean — it was fsynced before its rename made it
/// visible, so any damage is real corruption.
fn read_snapshot(path: &Path, expect_epoch: u64) -> Result<SnapshotContents, StoreError> {
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;
    if bytes.len() < 16 || bytes[..8] != SNAP_MAGIC {
        return Err(StoreError::corrupt(format!(
            "{} is not a snapshot (short or bad magic)",
            path.display()
        )));
    }
    let epoch = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
    if epoch != expect_epoch {
        return Err(StoreError::corrupt(format!(
            "{} header epoch {epoch} disagrees with its name",
            path.display()
        )));
    }
    let scan = scan_frames(&bytes[16..]);
    if scan.truncated || scan.payloads.is_empty() {
        return Err(StoreError::corrupt(format!(
            "{} has a damaged frame",
            path.display()
        )));
    }
    let mut meta = Reader::new(&scan.payloads[0]);
    let next_seq = meta.u64()?;
    let count = meta.u64()?;
    let held = scan.payloads.len() - 1;
    if held as u64 != count {
        return Err(StoreError::corrupt(format!(
            "{} holds {held} entries, header promised {count}",
            path.display()
        )));
    }
    let mut entries = Vec::with_capacity(held);
    for payload in &scan.payloads[1..] {
        let mut r = Reader::new(payload);
        let seq = r.u64()?;
        let query = r.bytes()?.to_vec();
        entries.push((seq, query));
    }
    Ok((next_seq, entries))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::temp::TempDir;

    fn commit(seq: u64, q: &str, retired: &[u64]) -> CommitRecord {
        CommitRecord {
            seq,
            query: q.as_bytes().to_vec(),
            retired: retired.to_vec(),
        }
    }

    fn opts() -> StoreOptions {
        StoreOptions {
            sync: SyncPolicy::Never,
            snapshot_every: None,
        }
    }

    fn open(dir: &TempDir, opts: StoreOptions) -> Result<Recovered, StoreError> {
        CoordStore::open_with_obs(dir.path(), opts, ObsRegistry::new())
    }

    fn append(store: &CoordStore, record: CommitRecord) -> Lsn {
        store.append(&mut LockCtx::root(), record)
    }

    /// Append and commit one record; returns the log's length after it.
    fn log(store: &CoordStore, record: CommitRecord) -> u64 {
        store.commit(append(store, record)).unwrap();
        store.wal_len()
    }

    #[test]
    fn record_roundtrip() {
        let r = commit(9, "query-bytes", &[1, 2, 9]);
        assert_eq!(CommitRecord::decode(&r.encode()).unwrap(), r);
        assert!(CommitRecord::decode(&[77]).is_err());
    }

    /// A retired count the payload cannot hold is an error, not a
    /// `u32::MAX`-element reservation.
    #[test]
    fn record_decode_rejects_counts_the_payload_cannot_hold() {
        let mut payload = commit(9, "q", &[]).encode();
        payload.truncate(payload.len() - 4);
        put_u32(&mut payload, u32::MAX);
        payload.extend_from_slice(&3u64.to_le_bytes());
        assert!(CommitRecord::decode(&payload).is_err());
    }

    /// A snapshot header promising `u64::MAX` entries is corruption, not
    /// an overflow in the entry-count check.
    #[test]
    fn snapshot_with_an_overflowing_entry_count_is_corrupt() {
        let dir = TempDir::new("store-snap-count");
        let mut buf = SNAP_MAGIC.to_vec();
        buf.extend_from_slice(&1u64.to_le_bytes());
        let mut meta = Vec::new();
        put_u64(&mut meta, 1);
        put_u64(&mut meta, u64::MAX);
        write_frame(&mut buf, &meta);
        let path = dir.path().join(snap_name(1));
        std::fs::write(&path, &buf).unwrap();
        assert!(matches!(
            read_snapshot(&path, 1),
            Err(StoreError::Corrupt(_))
        ));
    }

    #[test]
    fn open_empty_then_reopen_with_records() {
        let dir = TempDir::new("store-basic");
        let rec = open(&dir, opts()).unwrap();
        assert_eq!(rec.next_seq, 0);
        assert!(rec.live.is_empty());
        assert!(!rec.report.had_snapshot);
        log(&rec.store, commit(0, "a", &[]));
        log(&rec.store, commit(1, "b", &[]));
        // Submit 2 coordinates and retires 0 and itself.
        log(&rec.store, commit(2, "c", &[0, 2]));
        assert_eq!(rec.store.live_seqs(), vec![1]);
        drop(rec);

        let rec = open(&dir, opts()).unwrap();
        assert_eq!(rec.next_seq, 3);
        assert_eq!(rec.report.records_replayed, 3);
        let live: Vec<(u64, String)> = rec
            .live
            .iter()
            .map(|(s, q)| (*s, String::from_utf8(q.clone()).unwrap()))
            .collect();
        assert_eq!(live, vec![(1, "b".into())]);
    }

    /// One flush covers every record buffered before it: the last
    /// record's commit writes and syncs all three, and the earlier
    /// records' commits find them durable without another fsync.
    #[test]
    fn group_commit_covers_every_buffered_record() {
        let dir = TempDir::new("store-group");
        let mut every_record = opts();
        every_record.sync = SyncPolicy::EveryRecord;
        let rec = open(&dir, every_record).unwrap();
        let lsns: Vec<Lsn> = (0..3)
            .map(|i| append(&rec.store, commit(i, "q", &[])))
            .collect();
        assert_eq!(rec.store.wal_len(), WAL_HEADER_LEN, "append wrote to disk");
        for i in [2, 0, 1] {
            rec.store.commit(lsns[i]).unwrap();
        }
        let syncs = rec
            .store
            .obs()
            .snapshot()
            .histogram("wal_sync_nanos")
            .map(|h| h.count);
        assert_eq!(syncs, Some(1), "one fsync for the group");
        assert_eq!(rec.store.wal_len(), WAL_HEADER_LEN + lsns[2]);
        drop(rec);
        assert_eq!(open(&dir, opts()).unwrap().live.len(), 3);
    }

    /// Fail-stop: once a write fails, the log refuses every later
    /// commit — the failed batch's other records included, and even
    /// after the fault clears — until it is reopened, and the reopened
    /// store recovers the acknowledged prefix and takes appends again.
    #[test]
    fn failed_write_stops_the_log_until_reopen() {
        let dir = TempDir::new("store-fail-stop");
        let rec = open(&dir, opts()).unwrap();
        log(&rec.store, commit(0, "acked", &[]));
        let swap = |file| {
            rec.store
                .file
                .lock(&mut LockCtx::root())
                .0
                .writer
                .swap_file(file)
        };
        // A read-only handle makes the next write fail, as a full or
        // failing disk would.
        let writable = swap(File::open(dir.path().join(wal_name(0))).unwrap());
        let first = append(&rec.store, commit(1, "lost", &[]));
        let second = append(&rec.store, commit(2, "lost", &[]));
        assert!(rec.store.commit(second).is_err(), "failed write acked");
        assert!(
            rec.store.commit(first).is_err(),
            "failed batch's waiter acked"
        );
        // The fault clears; the log still refuses until reopened.
        swap(writable);
        let third = append(&rec.store, commit(3, "lost", &[]));
        assert!(rec.store.commit(third).is_err(), "commit after a failure");
        assert!(rec.store.snapshot().is_err(), "rotation after a failure");
        drop(rec);

        let rec = open(&dir, opts()).unwrap();
        assert_eq!(rec.live.keys().copied().collect::<Vec<_>>(), vec![0]);
        log(&rec.store, commit(4, "after", &[]));
        drop(rec);
        let rec = open(&dir, opts()).unwrap();
        assert_eq!(rec.live.keys().copied().collect::<Vec<_>>(), vec![0, 4]);
    }

    #[test]
    fn snapshot_rotates_epoch_and_prunes_old_files() {
        let dir = TempDir::new("store-rotate");
        let rec = open(&dir, opts()).unwrap();
        log(&rec.store, commit(0, "a", &[]));
        // Buffered, not yet committed: the rotation drains it into the
        // snapshot.
        let lsn = append(&rec.store, commit(1, "b", &[]));
        rec.store.snapshot().unwrap();
        rec.store.commit(lsn).unwrap();
        assert_eq!(rec.store.epoch(), 1);
        // Old epoch files are gone; snapshot + fresh WAL remain.
        let names: Vec<String> = std::fs::read_dir(dir.path())
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        assert!(names.iter().any(|n| n.starts_with("snap-")), "{names:?}");
        assert!(
            names
                .iter()
                .all(|n| !n.contains("-00000000000000000000-") || n.starts_with("snap-")),
            "old epoch wal lingers: {names:?}"
        );
        // Tail records after the snapshot land in the new epoch.
        log(&rec.store, commit(2, "c", &[1]));
        drop(rec);

        let rec = open(&dir, opts()).unwrap();
        assert!(rec.report.had_snapshot);
        assert_eq!(rec.report.snapshot_entries, 2);
        assert_eq!(rec.report.records_replayed, 1);
        assert_eq!(rec.next_seq, 3);
        let seqs: Vec<u64> = rec.live.keys().copied().collect();
        assert_eq!(seqs, vec![0, 2]);
    }

    /// Regression: a retire naming a seq whose own commit record a
    /// damaged log lost must still advance next_seq past it — reusing
    /// the seq would let the stale retire delete a new query on the
    /// following recovery.
    #[test]
    fn next_seq_advances_past_retired_only_seqs() {
        let dir = TempDir::new("store-retired-seq");
        {
            let rec = open(&dir, opts()).unwrap();
            // Seq 4 coordinated with seq 5 and retired both; seq 5's
            // own commit record is not in the log.
            log(&rec.store, commit(4, "t2", &[4, 5]));
        }
        let rec = open(&dir, opts()).unwrap();
        assert_eq!(rec.next_seq, 6, "retired-only seq 5 must not be reused");
        // A new query at the (now unused) next seq survives the stale
        // retire record across another recovery.
        log(&rec.store, commit(6, "new", &[]));
        drop(rec);
        let rec = open(&dir, opts()).unwrap();
        assert_eq!(rec.live.len(), 1);
        assert_eq!(rec.live.keys().copied().collect::<Vec<_>>(), vec![6]);
    }

    /// Regression: a rotation that fails partway must leave the old
    /// epoch fully authoritative — acknowledged appends after the
    /// failure must survive the next recovery. (Every fallible rotation
    /// step precedes the snapshot-rename commit point.)
    #[test]
    fn failed_rotation_keeps_existing_wal_authoritative() {
        let dir = TempDir::new("store-failed-rotation");
        let rec = open(&dir, opts()).unwrap();
        log(&rec.store, commit(0, "a", &[]));
        // Block creation of the new epoch's WAL (a directory squats on
        // its path): the rotation must fail *before* renaming the
        // snapshot into place.
        let blocker = dir.path().join(wal_name(1));
        std::fs::create_dir(&blocker).unwrap();
        assert!(rec.store.snapshot().is_err());
        assert_eq!(rec.store.epoch(), 0, "failed rotation advanced the epoch");
        // Appends continue durably in the old epoch.
        log(&rec.store, commit(1, "b", &[]));
        drop(rec);
        std::fs::remove_dir(&blocker).unwrap();

        let rec = open(&dir, opts()).unwrap();
        assert!(!rec.report.had_snapshot, "half-rotated snapshot chosen");
        assert_eq!(rec.live.len(), 2, "post-failure append lost");
    }

    #[test]
    fn snapshot_if_due_collapses_to_one_rotation() {
        let dir = TempDir::new("store-if-due");
        let mut every_two = opts();
        every_two.snapshot_every = Some(2);
        let rec = open(&dir, every_two).unwrap();
        log(&rec.store, commit(0, "a", &[]));
        assert!(!rec.store.snapshot_due());
        assert!(!rec.store.snapshot_if_due().unwrap());
        log(&rec.store, commit(1, "b", &[]));
        assert!(rec.store.snapshot_due());
        // First caller rotates…
        assert!(rec.store.snapshot_if_due().unwrap());
        // …stragglers that also saw the threshold do nothing.
        assert!(!rec.store.snapshot_if_due().unwrap());
        assert_eq!(rec.store.stats().snapshots_taken, 1);
    }

    /// A live epoch with a per-shard log of the older layout is refused
    /// by name rather than half-read; the same file in a superseded
    /// epoch is swept like any stale file.
    #[test]
    fn open_refuses_a_per_shard_log_of_the_live_epoch() {
        let dir = TempDir::new("store-old-layout");
        {
            let rec = open(&dir, opts()).unwrap();
            log(&rec.store, commit(0, "a", &[]));
        }
        let stream1 = dir.path().join("wal-00000000000000000000-0001.log");
        std::fs::copy(dir.path().join(wal_name(0)), &stream1).unwrap();
        let Err(StoreError::Corrupt(msg)) = open(&dir, opts()) else {
            panic!("a second stream of the live epoch was accepted");
        };
        assert!(msg.contains("wal-00000000000000000000-0001.log"), "{msg}");
        assert!(stream1.exists(), "the refused file was touched");

        std::fs::remove_file(&stream1).unwrap();
        {
            let rec = open(&dir, opts()).unwrap();
            rec.store.snapshot().unwrap();
        }
        std::fs::write(&stream1, b"stale").unwrap();
        let rec = open(&dir, opts()).unwrap();
        assert_eq!(rec.live.len(), 1);
        assert!(!stream1.exists(), "stale per-shard log not swept");
    }

    #[test]
    fn torn_tail_is_truncated_and_appendable() {
        let dir = TempDir::new("store-torn");
        let rec = open(&dir, opts()).unwrap();
        log(&rec.store, commit(0, "keep", &[]));
        let clean = log(&rec.store, commit(1, "torn", &[]));
        drop(rec);
        let path = dir.path().join(wal_name(0));
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..clean as usize - 3]).unwrap();

        let rec = open(&dir, opts()).unwrap();
        assert_eq!(rec.report.torn_tails, 1);
        assert_eq!(rec.live.len(), 1);
        log(&rec.store, commit(1, "retry", &[]));
        drop(rec);

        let rec = open(&dir, opts()).unwrap();
        assert_eq!(rec.report.torn_tails, 0);
        let live: Vec<String> = rec
            .live
            .values()
            .map(|q| String::from_utf8(q.clone()).unwrap())
            .collect();
        assert_eq!(live, vec!["keep", "retry"]);
    }

    /// Regression: a zero-filled tail (e.g. a crashed file allocation)
    /// is *checksum-clean* — `len 0, crc 0` frames repeat forever — but
    /// undecodable. Recovery must prefix-stop there, not refuse to open.
    #[test]
    fn zero_filled_tail_is_a_prefix_stop_not_a_hard_error() {
        let dir = TempDir::new("store-zeros");
        let clean_end;
        {
            let rec = open(&dir, opts()).unwrap();
            log(&rec.store, commit(0, "keep", &[]));
            clean_end = log(&rec.store, commit(1, "also", &[]));
        }
        let path = dir.path().join(wal_name(0));
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&[0u8; 256]);
        std::fs::write(&path, &bytes).unwrap();

        let rec = open(&dir, opts()).unwrap();
        assert_eq!(rec.report.torn_tails, 1);
        assert_eq!(rec.live.len(), 2, "clean records before the zeros lost");
        // The zeros were truncated away; appends continue from the
        // clean boundary.
        assert_eq!(rec.store.wal_len(), clean_end);
        log(&rec.store, commit(2, "after", &[]));
        drop(rec);
        let rec = open(&dir, opts()).unwrap();
        assert_eq!(rec.live.len(), 3);
    }

    #[test]
    fn abandoned_tmp_snapshot_is_ignored_and_removed() {
        let dir = TempDir::new("store-tmp");
        {
            let rec = open(&dir, opts()).unwrap();
            log(&rec.store, commit(0, "a", &[]));
        }
        // A crash mid-snapshot leaves a tmp file behind.
        std::fs::write(
            dir.path().join("snap-00000000000000000001.bin.tmp"),
            b"junk",
        )
        .unwrap();
        let rec = open(&dir, opts()).unwrap();
        assert!(!rec.report.had_snapshot);
        assert_eq!(rec.live.len(), 1);
        assert!(!dir
            .path()
            .join("snap-00000000000000000001.bin.tmp")
            .exists());
    }

    #[test]
    fn missing_wal_after_snapshot_reads_as_empty() {
        let dir = TempDir::new("store-missing-wal");
        {
            let rec = open(&dir, opts()).unwrap();
            log(&rec.store, commit(0, "a", &[]));
            rec.store.snapshot().unwrap();
        }
        // Simulate a crash right after the snapshot rename: the new
        // epoch's WAL never got created.
        std::fs::remove_file(dir.path().join(wal_name(1))).unwrap();
        let rec = open(&dir, opts()).unwrap();
        assert!(rec.report.had_snapshot);
        assert_eq!(rec.report.records_replayed, 0);
        assert_eq!(rec.live.len(), 1);
    }
}
