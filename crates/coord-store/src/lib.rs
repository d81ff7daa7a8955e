//! # coord-store — durable persistence for the online coordination engine
//!
//! The sharded incremental engine (`coord-engine`) keeps its entire
//! pending set in memory: a crash loses every in-flight entangled query.
//! This crate adds log-structured durability with deterministic replay:
//!
//! * [`frame`] — `[len][crc32][payload]` record framing; a clean frame
//!   prefix is exactly a prefix of acknowledged mutations,
//! * [`wal`] — epoch-stamped append-only log files with configurable
//!   [`wal::SyncPolicy`], fail-stop writes and torn-tail truncation on
//!   reopen,
//! * [`store`] — the store directory: one ordered WAL per snapshot
//!   epoch, appended in memory and made durable by group commit,
//!   tmp+rename snapshot rotation, and in-order prefix recovery,
//! * [`codec`] — pluggable query serialization ([`codec::QueryCodec`]),
//!   keeping this crate below `coord-core` in the workspace DAG,
//! * [`durable`] — [`DurableShardedEngine`], the durable layer over the
//!   sharded engine (one shard + one submitter = the single-writer
//!   durable engine): submit → apply and append one atomic commit
//!   record under the shard lock → commit → acknowledge; each submit's
//!   seq is its query's id in the engine, so
//!   the record's retired seqs come straight from the engine; recovery
//!   replays `snapshot + log tail` with `insert_pending` (no
//!   re-evaluation), so replay is *faster* than live submission — the
//!   benchmark's `recovery_ms` and `store.replay_records_per_s` measure it.
//!
//! `coord_core::persist` wires the entangled-query codec in and exposes
//! `DurableSharedEngine` so service callers opt into durability with
//! one constructor.

#![forbid(unsafe_code)]

pub mod bytes;
pub mod codec;
pub mod durable;
pub mod error;
pub mod frame;
pub mod store;
pub mod temp;
pub mod testkit;
pub mod wal;

pub use codec::QueryCodec;
pub use durable::{DurabilityOptions, DurableShardedEngine};
pub use error::{DurableError, StoreError};
pub use store::{CommitRecord, CoordStore, Lsn, RecoveryReport, StoreOptions, StoreStatsSnapshot};
pub use wal::SyncPolicy;
