//! The append-only write-ahead log file.
//!
//! Layout: a fixed 16-byte header (`CWAL` magic + format version +
//! epoch), then a run of [`crate::frame`] records. Writes go through a
//! [`WalWriter`] that tracks the file offset (so callers learn exactly
//! where each record ends — the crash-point tests depend on it),
//! applies the configured [`SyncPolicy`], and stops for good at the
//! first failed write or sync.
//!
//! Reading ([`read_wal`]) validates the header, scans the clean frame
//! prefix, and reports whether a torn tail was found; recovery truncates
//! the file back to the clean prefix before re-opening it for append, so
//! fresh records never interleave with garbage.

use crate::error::StoreError;
use crate::frame::{scan_frames, write_frame};
use coord_obs::{Histogram, TraceCtx, Tracer};
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::time::Instant;

/// WAL file magic: `CWAL` + format version 1 (big-endian in spirit; the
/// trailing byte is the version).
pub const WAL_MAGIC: [u8; 8] = *b"CWAL\x00\x00\x00\x01";

/// Header length: magic + epoch.
pub const WAL_HEADER_LEN: u64 = 16;

/// When written records are pushed to stable storage.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SyncPolicy {
    /// Never `fsync`; durability rides on the OS page cache (fastest —
    /// survives process crashes, not power loss).
    Never,
    /// `fsync` every write before it returns, so no record is
    /// acknowledged before it is on stable storage. One group commit is
    /// one write, however many records it carries.
    EveryRecord,
}

/// An open WAL file positioned for appending.
pub struct WalWriter {
    file: File,
    /// Byte offset of the end of the file (= end of the last record).
    len: u64,
    sync: SyncPolicy,
    /// Why the first failed write or sync failed. Once set, every write
    /// is refused: the file may end in torn bytes, and a record written
    /// after them would sit past the clean prefix recovery keeps.
    failed: Option<String>,
    /// `fsync` latency sink (disabled unless the owning store attaches
    /// its observability registry via [`WalWriter::set_obs`]).
    sync_hist: Histogram,
    tracer: Tracer,
}

impl WalWriter {
    /// Create a fresh WAL at `path` (truncating any existing file) and
    /// write its header.
    pub fn create(path: &Path, epoch: u64, sync: SyncPolicy) -> Result<Self, StoreError> {
        let mut file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        file.write_all(&WAL_MAGIC)?;
        file.write_all(&epoch.to_le_bytes())?;
        file.sync_data()?;
        Ok(WalWriter {
            file,
            len: WAL_HEADER_LEN,
            sync,
            failed: None,
            sync_hist: Histogram::disabled(),
            tracer: Tracer::disabled(),
        })
    }

    /// Open an existing WAL for appending at `clean_len` (as reported by
    /// [`read_wal`]), truncating any torn tail beyond it first.
    pub fn reopen(path: &Path, clean_len: u64, sync: SyncPolicy) -> Result<Self, StoreError> {
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        file.set_len(clean_len)?;
        let mut file = file;
        file.seek(SeekFrom::End(0))?;
        Ok(WalWriter {
            file,
            len: clean_len,
            sync,
            failed: None,
            sync_hist: Histogram::disabled(),
            tracer: Tracer::disabled(),
        })
    }

    /// Attach observability sinks: every `fsync` this writer performs is
    /// recorded in `sync_hist` and traced as a `wal_sync` instant.
    pub fn set_obs(&mut self, sync_hist: Histogram, tracer: Tracer) {
        self.sync_hist = sync_hist;
        self.tracer = tracer;
    }

    /// Sync to stable storage, recording the latency.
    fn timed_sync(&mut self) -> Result<(), StoreError> {
        let start = self.sync_hist.is_enabled().then(Instant::now);
        self.file.sync_data()?;
        if let Some(start) = start {
            let nanos = start.elapsed().as_nanos() as u64;
            self.sync_hist.record(nanos);
            // The sync runs inside the committing request's wal_append
            // span, so the thread-local ctx attributes it to that trace.
            self.tracer
                .instant_in(TraceCtx::current(), "wal_sync", nanos);
        }
        Ok(())
    }

    /// Append one framed record; returns the file offset of the record's
    /// end (the clean length of the log if a crash follows immediately).
    pub fn append(&mut self, payload: &[u8]) -> Result<u64, StoreError> {
        let mut buf = Vec::with_capacity(payload.len() + 8);
        write_frame(&mut buf, payload);
        self.write(&buf)
    }

    /// Write already-framed records and sync them per policy; returns
    /// the new end-of-log offset. Fails if the write or the sync failed,
    /// now or in an earlier call: the writer is fail-stop.
    pub(crate) fn write(&mut self, frames: &[u8]) -> Result<u64, StoreError> {
        if let Some(cause) = &self.failed {
            return Err(StoreError::Io(io::Error::other(format!(
                "the log stopped after a failed write or sync ({cause}); reopen the store"
            ))));
        }
        if frames.is_empty() {
            return Ok(self.len);
        }
        let result = match self.file.write_all(frames) {
            Ok(()) => {
                self.len += frames.len() as u64;
                match self.sync {
                    SyncPolicy::Never => Ok(()),
                    SyncPolicy::EveryRecord => self.timed_sync(),
                }
            }
            Err(e) => Err(StoreError::Io(e)),
        };
        if let Err(e) = &result {
            self.failed = Some(e.to_string());
        }
        result.map(|()| self.len)
    }

    /// Current end-of-log offset.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the log holds no records (header only).
    pub fn is_empty(&self) -> bool {
        self.len <= WAL_HEADER_LEN
    }

    /// Replace the file handle, returning the old one: a test swaps in a
    /// read-only handle to make the next write fail.
    #[cfg(test)]
    pub(crate) fn swap_file(&mut self, file: File) -> File {
        std::mem::replace(&mut self.file, file)
    }
}

/// A scanned WAL file: record payloads of the clean prefix plus where it
/// ends.
#[derive(Debug)]
pub struct WalContents {
    /// The epoch stamped in the header.
    pub epoch: u64,
    /// Clean record payloads, in append order.
    pub records: Vec<Vec<u8>>,
    /// Absolute end offset of each clean record (parallel to
    /// `records`), so recovery can truncate back to a record boundary
    /// when a checksum-clean payload fails to decode.
    pub record_ends: Vec<u64>,
    /// Byte offset of the end of the clean prefix.
    pub clean_len: u64,
    /// Whether a torn or corrupt tail was cut off.
    pub torn: bool,
}

/// Read and validate a WAL file, stopping at the first torn or corrupt
/// frame. A file too short to hold a header, or with the wrong magic,
/// is reported as corrupt (the caller decides whether that is fatal —
/// for the *current* epoch's log it means "no clean records").
pub fn read_wal(path: &Path) -> Result<WalContents, StoreError> {
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;
    if bytes.len() < WAL_HEADER_LEN as usize || bytes[..8] != WAL_MAGIC {
        return Err(StoreError::corrupt(format!(
            "{} is not a WAL (short or bad magic)",
            path.display()
        )));
    }
    let epoch = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
    let scan = scan_frames(&bytes[WAL_HEADER_LEN as usize..]);
    Ok(WalContents {
        epoch,
        records: scan.payloads,
        record_ends: scan
            .ends
            .iter()
            .map(|&e| WAL_HEADER_LEN + e as u64)
            .collect(),
        clean_len: WAL_HEADER_LEN + scan.clean_len as u64,
        torn: scan.truncated,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::temp::TempDir;

    #[test]
    fn create_append_read_roundtrip() {
        let dir = TempDir::new("wal-roundtrip");
        let path = dir.path().join("wal-0.log");
        let mut w = WalWriter::create(&path, 7, SyncPolicy::Never).unwrap();
        assert!(w.is_empty());
        let end1 = w.append(b"one").unwrap();
        let end2 = w.append(b"two-two").unwrap();
        assert!(end2 > end1);
        assert_eq!(w.len(), end2);
        drop(w);

        let c = read_wal(&path).unwrap();
        assert_eq!(c.epoch, 7);
        assert!(!c.torn);
        assert_eq!(c.records, vec![b"one".to_vec(), b"two-two".to_vec()]);
        assert_eq!(c.clean_len, end2);
    }

    #[test]
    fn torn_tail_is_cut_and_reopen_truncates() {
        let dir = TempDir::new("wal-torn");
        let path = dir.path().join("wal.log");
        let mut w = WalWriter::create(&path, 0, SyncPolicy::Never).unwrap();
        let end1 = w.append(b"keep").unwrap();
        w.append(b"lost-in-the-crash").unwrap();
        drop(w);
        // Simulate a torn write: cut the file mid-record.
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..end1 as usize + 5]).unwrap();

        let c = read_wal(&path).unwrap();
        assert!(c.torn);
        assert_eq!(c.records, vec![b"keep".to_vec()]);
        assert_eq!(c.clean_len, end1);

        // Reopen for append at the clean prefix; new records follow it.
        let mut w = WalWriter::reopen(&path, c.clean_len, SyncPolicy::EveryRecord).unwrap();
        w.append(b"after-recovery").unwrap();
        let c = read_wal(&path).unwrap();
        assert!(!c.torn);
        assert_eq!(
            c.records,
            vec![b"keep".to_vec(), b"after-recovery".to_vec()]
        );
    }

    #[test]
    fn bad_magic_is_corrupt() {
        let dir = TempDir::new("wal-magic");
        let path = dir.path().join("junk.log");
        std::fs::write(&path, b"not a wal at all").unwrap();
        assert!(matches!(read_wal(&path), Err(StoreError::Corrupt(_))));
        std::fs::write(&path, b"shrt").unwrap();
        assert!(matches!(read_wal(&path), Err(StoreError::Corrupt(_))));
    }
}
