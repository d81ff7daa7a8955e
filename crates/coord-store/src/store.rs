//! The coordination store: a directory of epoch-stamped WAL streams and
//! snapshots, with deterministic prefix recovery.
//!
//! ## On-disk layout
//!
//! ```text
//! <dir>/snap-{epoch:020}.bin        point-in-time pending set (at most one live)
//! <dir>/wal-{epoch:020}-{s:04}.log  mutation streams of the current epoch
//! ```
//!
//! Engine mutations are **commit records**: one per accepted submit,
//! carrying the submitted query and the seqs of every query the submit
//! retired. A record is atomic (one checksummed frame), so any clean
//! record prefix corresponds exactly to a prefix of acknowledged
//! submits — there is no window where a delivered coordination is
//! half-logged.
//!
//! Recovery applies `snapshot + log tail` as a *set difference*: insert
//! every logged submit, remove every retired seq. Records carry globally
//! unique seqs and a retire always names an already-logged (or lost,
//! hence ignorable) submit, so the reconstruction is independent of the
//! interleaving order across streams — which is what makes one log per
//! shard sound without any cross-stream ordering.
//!
//! Recovery is **availability-first**: damage to a WAL — a torn tail, a
//! flipped byte, a zero-filled region, even a garbled header — shrinks
//! that stream's recovered prefix (reported via
//! [`RecoveryReport::torn_tails`]) but never refuses to open the store.
//! Only a *renamed* snapshot that fails validation is a hard error,
//! because it was fsynced before the rename made it visible and the
//! data it carried is gone with it.
//!
//! ## Snapshot rotation
//!
//! A snapshot advances the epoch: capture the live set under the
//! rotation write lock (no appends in flight), write
//! `snap-{e+1}.bin.tmp` (fsynced), create empty WALs for epoch `e+1`,
//! fsync the directory, rename the snapshot into place (the commit
//! point), then delete the old epoch's files. Every fallible step
//! precedes the rename, so a failed or crashed rotation leaves epoch
//! `e` fully authoritative (tmp and stray new-epoch files are swept on
//! the next open) — and once the rename lands, epoch `e+1` is complete.

use crate::bytes::{put_bytes, put_u32, put_u64, Reader};
use crate::error::StoreError;
use crate::frame::{scan_frames, write_frame};
use crate::wal::{read_wal, SyncPolicy, WalWriter, WAL_HEADER_LEN};
use coord_engine::lock_order::{
    LockCtx, OrderedMutex, OrderedRwLock, SnapRotation, StoreState, WalStream,
};
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

/// Store configuration.
#[derive(Clone, Copy, Debug)]
pub struct StoreOptions {
    /// Number of WAL streams (the sharded engine uses one per shard so
    /// concurrent submitters do not serialize on a single log mutex).
    pub streams: usize,
    /// When records reach stable storage.
    pub sync: SyncPolicy,
    /// Take a snapshot (and rotate the epoch) after this many records;
    /// `None` disables snapshotting.
    pub snapshot_every: Option<u64>,
}

impl Default for StoreOptions {
    fn default() -> Self {
        StoreOptions {
            streams: 1,
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
        let n = r.u32()? as usize;
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
    /// Epoch the store resumed in.
    pub epoch: u64,
    /// Whether a snapshot seeded the state.
    pub had_snapshot: bool,
    /// Pending entries loaded from the snapshot.
    pub snapshot_entries: usize,
    /// Commit records replayed from the epoch's WAL tails.
    pub records_replayed: usize,
    /// WAL files whose torn/corrupt tail was truncated.
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

struct EpochState {
    epoch: u64,
    wals: Vec<OrderedMutex<WalStream, WalWriter>>,
}

/// The store's observability handles: one registry shared with the
/// engine layer (the durable wrappers thread a single registry through
/// both), plus the recording instruments drawn from it.
struct StoreObs {
    registry: ObsRegistry,
    /// "wal_append_nanos": latency of one record append as the caller
    /// sees it (framing + write + any policy-triggered sync).
    append_hist: Histogram,
    /// "snapshot_rotation_nanos": full rotation under the write lock.
    rotation_hist: Histogram,
    /// "store_epoch": the current epoch, updated on open and rotation.
    epoch_gauge: Gauge,
    tracer: Tracer,
}

impl StoreObs {
    fn new(registry: ObsRegistry) -> Self {
        StoreObs {
            append_hist: registry.histogram("wal_append_nanos"),
            rotation_hist: registry.histogram("snapshot_rotation_nanos"),
            epoch_gauge: registry.gauge("store_epoch"),
            tracer: registry.tracer(),
            registry,
        }
    }
}

/// The durable store: WAL streams + snapshots in one directory.
pub struct CoordStore {
    dir: PathBuf,
    opts: StoreOptions,
    state: OrderedRwLock<StoreState, EpochState>,
    /// Serializes snapshotters (the rotation write lock alone would let
    /// two threads race to the same new epoch).
    snap_lock: OrderedMutex<SnapRotation, ()>,
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

fn wal_name(epoch: u64, stream: usize) -> String {
    format!("wal-{epoch:020}-{stream:04}.log")
}

fn parse_snap(name: &str) -> Option<u64> {
    let rest = name.strip_prefix("snap-")?.strip_suffix(".bin")?;
    rest.parse().ok()
}

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

impl CoordStore {
    /// Open (or create) a store directory, recovering the pending set
    /// from `snapshot + WAL tails`. Torn tails are truncated; files from
    /// superseded epochs and abandoned `.tmp` snapshots are removed.
    pub fn open(dir: impl AsRef<Path>, opts: StoreOptions) -> Result<Recovered, StoreError> {
        Self::open_with_obs(dir, opts, ObsRegistry::new())
    }

    /// Like [`Self::open`], recording into an explicit observability
    /// registry (shared with the engine layer by the durable wrappers,
    /// or [`ObsRegistry::disabled`] for near-zero instrument cost).
    /// Recovery itself is measured: `store_replay_records` counts the
    /// commit records replayed, `store_replay_nanos` gauges the full
    /// open-to-ready recovery time.
    pub fn open_with_obs(
        dir: impl AsRef<Path>,
        opts: StoreOptions,
        registry: ObsRegistry,
    ) -> Result<Recovered, StoreError> {
        assert!(opts.streams > 0, "at least one WAL stream required");
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
        for tmp in tmps {
            let _ = std::fs::remove_file(tmp);
        }
        snaps.sort_unstable();

        // Seed from the newest snapshot, if any. A renamed snapshot was
        // fully written and synced before the rename, so a decode
        // failure here is real corruption, not a crash artifact.
        let mut report = RecoveryReport::default();
        let mut live: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
        let mut next_seq = 0u64;
        let mut epoch = 0u64;
        if let Some(&e) = snaps.last() {
            let (snap_next, entries) = read_snapshot(&dir.join(snap_name(e)), e)?;
            next_seq = snap_next;
            report.had_snapshot = true;
            report.snapshot_entries = entries.len();
            live.extend(entries);
            epoch = e;
        }

        // Replay the chosen epoch's WAL tails: two passes (insert every
        // submit, then remove every retired seq) make the result
        // independent of cross-stream record order.
        let mut records: Vec<CommitRecord> = Vec::new();
        let mut clean: BTreeMap<usize, (PathBuf, u64)> = BTreeMap::new();
        for (e, s, path) in &wals {
            if *e != epoch {
                continue;
            }
            match read_wal(path) {
                Ok(contents) => {
                    if contents.epoch != epoch {
                        // A header whose epoch disagrees with the file
                        // name cannot vouch for its records: same
                        // treatment as a damaged header — an empty
                        // clean prefix.
                        report.torn_tails += 1;
                        clean.insert(*s, (path.clone(), 0));
                        continue;
                    }
                    if contents.torn {
                        report.torn_tails += 1;
                    }
                    let mut clean_len = contents.clean_len;
                    for (i, payload) in contents.records.iter().enumerate() {
                        match CommitRecord::decode(payload) {
                            Ok(r) => records.push(r),
                            Err(_) => {
                                // Checksum-clean but undecodable — e.g.
                                // a zero-filled region from a crashed
                                // allocation parses as endless empty
                                // frames. Availability-first prefix
                                // stop, like any other corruption:
                                // recovery never refuses to open.
                                clean_len = if i == 0 {
                                    WAL_HEADER_LEN
                                } else {
                                    contents.record_ends[i - 1]
                                };
                                report.torn_tails += 1;
                                break;
                            }
                        }
                    }
                    clean.insert(*s, (path.clone(), clean_len));
                }
                Err(StoreError::Corrupt(_)) => {
                    // Header never made it to disk: an empty clean
                    // prefix. Recreate the file below.
                    report.torn_tails += 1;
                    clean.insert(*s, (path.clone(), 0));
                }
                Err(e) => return Err(e),
            }
        }
        report.records_replayed = records.len();
        for r in &records {
            live.insert(r.seq, r.query.clone());
            next_seq = next_seq.max(r.seq + 1);
        }
        for r in &records {
            for retired in &r.retired {
                live.remove(retired);
                // A retire can name a seq whose own commit record was
                // lost to the crash (the cross-stream ack window).
                // next_seq must still advance past it: reusing the seq
                // would let this stale retire delete a *new* query on
                // the following recovery.
                next_seq = next_seq.max(retired + 1);
            }
        }

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

        // Re-open every stream for append at its clean prefix.
        let sync_hist = obs.registry.histogram("wal_sync_nanos");
        let mut writers = Vec::with_capacity(opts.streams);
        for s in 0..opts.streams {
            let mut writer = match clean.get(&s) {
                Some((path, 0)) => WalWriter::create(path, epoch, opts.sync)?,
                Some((path, len)) => WalWriter::reopen(path, *len, opts.sync)?,
                None => WalWriter::create(&dir.join(wal_name(epoch, s)), epoch, opts.sync)?,
            };
            writer.set_obs(sync_hist.clone(), obs.tracer.clone());
            writers.push(OrderedMutex::new(writer));
        }
        // Streams beyond the configured count (a shard-count change)
        // were replayed above; their files stay until the next rotation
        // captures their records in a snapshot.

        // Best-effort: persist the truncations/creations/deletions this
        // recovery performed (recovery is re-runnable, so a lost batch
        // of metadata just repeats the cleanup next time).
        let _ = fsync_dir(&dir);

        report.epoch = epoch;
        let replay_records = obs.registry.counter("store_replay_records");
        replay_records.add(records.len() as u64);
        obs.registry
            .gauge("store_replay_nanos")
            .set(replay_start.elapsed().as_nanos() as u64);
        obs.epoch_gauge.set(epoch);
        let store = CoordStore {
            dir,
            opts,
            state: OrderedRwLock::new(EpochState {
                epoch,
                wals: writers,
            }),
            snap_lock: OrderedMutex::new(()),
            since_snapshot: AtomicU64::new(0),
            records_appended: Counter::new(),
            bytes_appended: Counter::new(),
            snapshots_taken: Counter::new(),
            obs,
        };
        store
            .obs
            .registry
            .register_counter("store_records_appended", &store.records_appended);
        store
            .obs
            .registry
            .register_counter("store_bytes_appended", &store.bytes_appended);
        store
            .obs
            .registry
            .register_counter("store_snapshots_taken", &store.snapshots_taken);
        Ok(Recovered {
            store,
            next_seq,
            live,
            report,
        })
    }

    /// The store's configuration.
    pub fn options(&self) -> &StoreOptions {
        &self.opts
    }

    /// Append one commit record to `stream` (wrapped modulo the stream
    /// count); returns the stream's clean length after the append.
    pub fn append_commit(&self, stream: usize, record: &CommitRecord) -> Result<u64, StoreError> {
        let payload = record.encode();
        let mut root = LockCtx::root();
        let (state, mut ctx) = self.state.read(&mut root);
        let (mut wal, _) = state.wals[stream % state.wals.len()].lock(&mut ctx);
        let _span = self.obs.tracer.begin_in(TraceCtx::current(), "wal_append");
        let _timer = self.obs.append_hist.start();
        let end = wal.append(&payload)?;
        self.records_appended.incr();
        self.bytes_appended.add(payload.len() as u64 + 8);
        self.since_snapshot.fetch_add(1, Ordering::Relaxed);
        Ok(end)
    }

    /// Whether enough records accumulated since the last rotation for a
    /// snapshot to be due.
    pub fn snapshot_due(&self) -> bool {
        match self.opts.snapshot_every {
            None => false,
            Some(n) => self.since_snapshot.load(Ordering::Relaxed) >= n.max(1),
        }
    }

    /// Take a snapshot and rotate the epoch. `capture` runs under the
    /// rotation write lock — no appends are in flight — and must return
    /// the current `(next_seq, pending set)`; state captured there is
    /// exactly what a subsequent recovery restores before replaying the
    /// (empty) new WALs. It receives the store-state context, so the
    /// locks it may take are the store state's successors.
    pub fn snapshot<F>(&self, capture: F) -> Result<(), StoreError>
    where
        F: FnOnce(&mut LockCtx<'_, StoreState>) -> (u64, Vec<(u64, Vec<u8>)>),
    {
        let mut root = LockCtx::root();
        let (_one_at_a_time, mut ctx) = self.snap_lock.lock(&mut root);
        self.snapshot_locked(&mut ctx, capture)
    }

    /// Like [`Self::snapshot`], but re-checks [`Self::snapshot_due`]
    /// *after* serializing on the snapshot lock and skips the rotation
    /// (returning `false`) if another thread already took it — N
    /// submitters crossing the threshold together produce one
    /// rotation, not N. Returns `true` if a snapshot was taken.
    pub fn snapshot_if_due<F>(&self, capture: F) -> Result<bool, StoreError>
    where
        F: FnOnce(&mut LockCtx<'_, StoreState>) -> (u64, Vec<(u64, Vec<u8>)>),
    {
        let mut root = LockCtx::root();
        let (_one_at_a_time, mut ctx) = self.snap_lock.lock(&mut root);
        if !self.snapshot_due() {
            return Ok(false);
        }
        self.snapshot_locked(&mut ctx, capture)?;
        Ok(true)
    }

    fn snapshot_locked<F>(
        &self,
        ctx: &mut LockCtx<'_, SnapRotation>,
        capture: F,
    ) -> Result<(), StoreError>
    where
        F: FnOnce(&mut LockCtx<'_, StoreState>) -> (u64, Vec<(u64, Vec<u8>)>),
    {
        let _span = self
            .obs
            .tracer
            .begin_in(TraceCtx::current(), "snapshot_rotation");
        let _timer = self.obs.rotation_hist.start();
        let (mut state, mut state_ctx) = self.state.write(ctx);
        let (next_seq, entries) = capture(&mut state_ctx);
        let new_epoch = state.epoch + 1;

        // Write the snapshot to a tmp file and fsync before the rename
        // commit point.
        let tmp = self.dir.join(format!("{}.tmp", snap_name(new_epoch)));
        {
            let mut file = OpenOptions::new()
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
            file.write_all(&buf)?;
            file.sync_data()?;
        }

        // Create the new epoch's streams BEFORE the rename commit
        // point: every fallible step must precede it, so a failed
        // rotation leaves the old epoch fully authoritative (the
        // still-open old WALs keep accepting durable appends, and the
        // next recovery — seeing no new snapshot — replays them and
        // sweeps the stray tmp/new-epoch files).
        let old_epoch = state.epoch;
        let sync_hist = self.obs.registry.histogram("wal_sync_nanos");
        let mut new_wals = Vec::with_capacity(self.opts.streams);
        for s in 0..self.opts.streams {
            let mut w = WalWriter::create(
                &self.dir.join(wal_name(new_epoch, s)),
                new_epoch,
                self.opts.sync,
            )?;
            w.set_obs(sync_hist.clone(), self.obs.tracer.clone());
            new_wals.push(OrderedMutex::new(w));
        }
        // Make the tmp snapshot's and the new WALs' directory entries
        // durable before the rename commit point: metadata must not
        // reach disk out of order with the rename, or a power loss
        // could surface the new snapshot without its WAL files'
        // content.
        fsync_dir(&self.dir)?;
        let final_path = self.dir.join(snap_name(new_epoch));
        std::fs::rename(&tmp, &final_path)?;
        // Persist the rename itself before the old epoch's files are
        // unlinked below. Best-effort by design: the rename already
        // happened, so aborting here would leave the in-memory epoch
        // behind the filesystem and funnel acknowledged appends into
        // WALs the next recovery ignores — strictly worse than a
        // possibly-unpersisted rename.
        let _ = fsync_dir(&self.dir);

        state.epoch = new_epoch;
        state.wals = new_wals;
        self.since_snapshot.store(0, Ordering::Relaxed);
        self.snapshots_taken.incr();
        self.obs.epoch_gauge.set(new_epoch);
        drop(state);

        let _ = std::fs::remove_file(self.dir.join(snap_name(old_epoch)));
        // Sweep the directory for *every* WAL of the old epoch — a
        // stream-count reduction leaves replayed-but-writerless stream
        // files behind that indexed deletion would miss.
        if let Ok(entries) = std::fs::read_dir(&self.dir) {
            for entry in entries.flatten() {
                let name = entry.file_name();
                let Some(name) = name.to_str() else { continue };
                if parse_wal(name).is_some_and(|(e, _)| e == old_epoch) {
                    let _ = std::fs::remove_file(entry.path());
                }
            }
        }
        Ok(())
    }

    /// Current epoch.
    pub fn epoch(&self) -> u64 {
        self.state.read(&mut LockCtx::root()).0.epoch
    }

    /// Clean length (bytes) of one WAL stream — the offset a crash-point
    /// test truncates at.
    pub fn stream_len(&self, stream: usize) -> u64 {
        let mut root = LockCtx::root();
        let (state, mut ctx) = self.state.read(&mut root);
        let (wal, _) = state.wals[stream % state.wals.len()].lock(&mut ctx);
        wal.len()
    }

    /// Byte offset where records start in a WAL file (after the header).
    pub fn wal_header_len() -> u64 {
        WAL_HEADER_LEN
    }

    /// Force all streams to stable storage.
    pub fn sync_all(&self) -> Result<(), StoreError> {
        let mut root = LockCtx::root();
        let (state, mut ctx) = self.state.read(&mut root);
        for wal in &state.wals {
            wal.lock(&mut ctx).0.sync()?;
        }
        Ok(())
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
    let count = meta.u64()? as usize;
    if scan.payloads.len() != count + 1 {
        return Err(StoreError::corrupt(format!(
            "{} holds {} entries, header promised {count}",
            path.display(),
            scan.payloads.len() - 1
        )));
    }
    let mut entries = Vec::with_capacity(count);
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

    fn opts(streams: usize) -> StoreOptions {
        StoreOptions {
            streams,
            sync: SyncPolicy::Never,
            snapshot_every: None,
        }
    }

    #[test]
    fn record_roundtrip() {
        let r = commit(9, "query-bytes", &[1, 2, 9]);
        assert_eq!(CommitRecord::decode(&r.encode()).unwrap(), r);
        assert!(CommitRecord::decode(&[77]).is_err());
    }

    #[test]
    fn open_empty_then_reopen_with_records() {
        let dir = TempDir::new("store-basic");
        let rec = CoordStore::open(dir.path(), opts(1)).unwrap();
        assert_eq!(rec.next_seq, 0);
        assert!(rec.live.is_empty());
        assert!(!rec.report.had_snapshot);
        rec.store.append_commit(0, &commit(0, "a", &[])).unwrap();
        rec.store.append_commit(0, &commit(1, "b", &[])).unwrap();
        // Submit 2 coordinates and retires 0 and itself.
        rec.store
            .append_commit(0, &commit(2, "c", &[0, 2]))
            .unwrap();
        drop(rec);

        let rec = CoordStore::open(dir.path(), opts(1)).unwrap();
        assert_eq!(rec.next_seq, 3);
        assert_eq!(rec.report.records_replayed, 3);
        let live: Vec<(u64, String)> = rec
            .live
            .iter()
            .map(|(s, q)| (*s, String::from_utf8(q.clone()).unwrap()))
            .collect();
        assert_eq!(live, vec![(1, "b".into())]);
    }

    #[test]
    fn snapshot_rotates_epoch_and_prunes_old_files() {
        let dir = TempDir::new("store-rotate");
        let rec = CoordStore::open(dir.path(), opts(2)).unwrap();
        rec.store.append_commit(0, &commit(0, "a", &[])).unwrap();
        rec.store.append_commit(1, &commit(1, "b", &[])).unwrap();
        rec.store
            .snapshot(|_| (2, vec![(0, b"a".to_vec()), (1, b"b".to_vec())]))
            .unwrap();
        assert_eq!(rec.store.epoch(), 1);
        // Old epoch files are gone; snapshot + fresh WALs remain.
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
        rec.store.append_commit(0, &commit(2, "c", &[1])).unwrap();
        drop(rec);

        let rec = CoordStore::open(dir.path(), opts(2)).unwrap();
        assert!(rec.report.had_snapshot);
        assert_eq!(rec.report.snapshot_entries, 2);
        assert_eq!(rec.report.records_replayed, 1);
        assert_eq!(rec.next_seq, 3);
        let seqs: Vec<u64> = rec.live.keys().copied().collect();
        assert_eq!(seqs, vec![0, 2]);
    }

    /// Regression: a retire naming a seq whose own commit record was
    /// lost (cross-stream ack window) must still advance next_seq past
    /// it — reusing the seq would let the stale retire delete a new
    /// query on the following recovery.
    #[test]
    fn next_seq_advances_past_retired_only_seqs() {
        let dir = TempDir::new("store-retired-seq");
        {
            let rec = CoordStore::open(dir.path(), opts(2)).unwrap();
            // Seq 4 coordinated with seq 5 and retired both; seq 5's
            // own commit record never hit disk (lost stream).
            rec.store
                .append_commit(0, &commit(4, "t2", &[4, 5]))
                .unwrap();
        }
        let rec = CoordStore::open(dir.path(), opts(2)).unwrap();
        assert_eq!(rec.next_seq, 6, "retired-only seq 5 must not be reused");
        // A new query at the (now unused) next seq survives the stale
        // retire record across another recovery.
        rec.store.append_commit(1, &commit(6, "new", &[])).unwrap();
        drop(rec);
        let rec = CoordStore::open(dir.path(), opts(2)).unwrap();
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
        let rec = CoordStore::open(dir.path(), opts(1)).unwrap();
        rec.store.append_commit(0, &commit(0, "a", &[])).unwrap();
        // Block creation of the new epoch's WAL (a directory squats on
        // its path): the rotation must fail *before* renaming the
        // snapshot into place.
        let blocker = dir.path().join(wal_name(1, 0));
        std::fs::create_dir(&blocker).unwrap();
        assert!(rec
            .store
            .snapshot(|_| (1, vec![(0, b"a".to_vec())]))
            .is_err());
        assert_eq!(rec.store.epoch(), 0, "failed rotation advanced the epoch");
        // Appends continue durably in the old epoch.
        rec.store.append_commit(0, &commit(1, "b", &[])).unwrap();
        drop(rec);
        std::fs::remove_dir(&blocker).unwrap();

        let rec = CoordStore::open(dir.path(), opts(1)).unwrap();
        assert!(!rec.report.had_snapshot, "half-rotated snapshot chosen");
        assert_eq!(rec.live.len(), 2, "post-failure append lost");
    }

    #[test]
    fn snapshot_if_due_collapses_to_one_rotation() {
        let dir = TempDir::new("store-if-due");
        let rec = CoordStore::open(
            dir.path(),
            StoreOptions {
                streams: 1,
                sync: SyncPolicy::Never,
                snapshot_every: Some(2),
            },
        )
        .unwrap();
        rec.store.append_commit(0, &commit(0, "a", &[])).unwrap();
        assert!(!rec.store.snapshot_due());
        assert!(!rec.store.snapshot_if_due(|_| unreachable!()).unwrap());
        rec.store.append_commit(0, &commit(1, "b", &[])).unwrap();
        assert!(rec.store.snapshot_due());
        // First caller rotates…
        assert!(rec
            .store
            .snapshot_if_due(|_| (2, vec![(0, b"a".to_vec()), (1, b"b".to_vec())]))
            .unwrap());
        // …stragglers that also saw the threshold do nothing.
        assert!(!rec.store.snapshot_if_due(|_| unreachable!()).unwrap());
        assert_eq!(rec.store.stats().snapshots_taken, 1);
    }

    #[test]
    fn rotation_sweeps_stale_extra_stream_files() {
        let dir = TempDir::new("store-sweep");
        {
            let rec = CoordStore::open(dir.path(), opts(4)).unwrap();
            for s in 0..4 {
                rec.store
                    .append_commit(s, &commit(s as u64, "q", &[]))
                    .unwrap();
            }
        }
        // Re-open with fewer streams (streams 2 and 3 have no writer),
        // then rotate: every epoch-0 WAL must be swept, including the
        // writerless ones.
        let rec = CoordStore::open(dir.path(), opts(2)).unwrap();
        assert_eq!(rec.live.len(), 4);
        rec.store
            .snapshot(|_| (4, rec.live.iter().map(|(s, b)| (*s, b.clone())).collect()))
            .unwrap();
        let stale: Vec<String> = std::fs::read_dir(dir.path())
            .unwrap()
            .filter_map(|e| e.unwrap().file_name().into_string().ok())
            .filter(|n| parse_wal(n).is_some_and(|(e, _)| e == 0))
            .collect();
        assert!(stale.is_empty(), "epoch-0 WALs linger: {stale:?}");
        drop(rec);
        let rec = CoordStore::open(dir.path(), opts(2)).unwrap();
        assert_eq!(rec.live.len(), 4);
    }

    #[test]
    fn torn_tail_is_truncated_and_appendable() {
        let dir = TempDir::new("store-torn");
        let rec = CoordStore::open(dir.path(), opts(1)).unwrap();
        rec.store.append_commit(0, &commit(0, "keep", &[])).unwrap();
        let clean = rec.store.append_commit(0, &commit(1, "torn", &[])).unwrap();
        drop(rec);
        let path = dir.path().join(wal_name(0, 0));
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..clean as usize - 3]).unwrap();

        let rec = CoordStore::open(dir.path(), opts(1)).unwrap();
        assert_eq!(rec.report.torn_tails, 1);
        assert_eq!(rec.live.len(), 1);
        rec.store
            .append_commit(0, &commit(1, "retry", &[]))
            .unwrap();
        drop(rec);

        let rec = CoordStore::open(dir.path(), opts(1)).unwrap();
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
            let rec = CoordStore::open(dir.path(), opts(1)).unwrap();
            rec.store.append_commit(0, &commit(0, "keep", &[])).unwrap();
            clean_end = rec.store.append_commit(0, &commit(1, "also", &[])).unwrap();
        }
        let path = dir.path().join(wal_name(0, 0));
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&[0u8; 256]);
        std::fs::write(&path, &bytes).unwrap();

        let rec = CoordStore::open(dir.path(), opts(1)).unwrap();
        assert_eq!(rec.report.torn_tails, 1);
        assert_eq!(rec.live.len(), 2, "clean records before the zeros lost");
        // The zeros were truncated away; appends continue from the
        // clean boundary.
        assert_eq!(rec.store.stream_len(0), clean_end);
        rec.store
            .append_commit(0, &commit(2, "after", &[]))
            .unwrap();
        drop(rec);
        let rec = CoordStore::open(dir.path(), opts(1)).unwrap();
        assert_eq!(rec.live.len(), 3);
    }

    #[test]
    fn abandoned_tmp_snapshot_is_ignored_and_removed() {
        let dir = TempDir::new("store-tmp");
        {
            let rec = CoordStore::open(dir.path(), opts(1)).unwrap();
            rec.store.append_commit(0, &commit(0, "a", &[])).unwrap();
        }
        // A crash mid-snapshot leaves a tmp file behind.
        std::fs::write(
            dir.path().join("snap-00000000000000000001.bin.tmp"),
            b"junk",
        )
        .unwrap();
        let rec = CoordStore::open(dir.path(), opts(1)).unwrap();
        assert!(!rec.report.had_snapshot);
        assert_eq!(rec.live.len(), 1);
        assert!(!dir
            .path()
            .join("snap-00000000000000000001.bin.tmp")
            .exists());
    }

    #[test]
    fn stream_count_change_still_replays_old_streams() {
        let dir = TempDir::new("store-streams");
        {
            let rec = CoordStore::open(dir.path(), opts(4)).unwrap();
            for s in 0..4 {
                rec.store
                    .append_commit(s, &commit(s as u64, "q", &[]))
                    .unwrap();
            }
        }
        // Re-open with fewer streams: every old stream's records count.
        let rec = CoordStore::open(dir.path(), opts(2)).unwrap();
        assert_eq!(rec.live.len(), 4);
        assert_eq!(rec.next_seq, 4);
    }

    #[test]
    fn missing_wal_after_snapshot_reads_as_empty() {
        let dir = TempDir::new("store-missing-wal");
        {
            let rec = CoordStore::open(dir.path(), opts(2)).unwrap();
            rec.store.append_commit(0, &commit(0, "a", &[])).unwrap();
            rec.store
                .snapshot(|_| (1, vec![(0, b"a".to_vec())]))
                .unwrap();
        }
        // Simulate a crash right after the snapshot rename: the new
        // epoch's WALs never got created.
        for s in 0..2 {
            let _ = std::fs::remove_file(dir.path().join(wal_name(1, s)));
        }
        let rec = CoordStore::open(dir.path(), opts(2)).unwrap();
        assert!(rec.report.had_snapshot);
        assert_eq!(rec.report.records_replayed, 0);
        assert_eq!(rec.live.len(), 1);
    }
}
