//! The durable online engine for entangled queries: the `coord-store`
//! WAL/snapshot subsystem wired to the paper's query type.
//!
//! * [`EntangledQueryCodec`] — deterministic byte serialization of
//!   [`EntangledQuery`] (name, variable table, postcondition/head/body
//!   atoms) for the log and snapshots,
//! * [`DurableSharedEngine`] — the sharded service over one ordered
//!   log: each shard appends its accepted submits' commit records under
//!   its own lock, and submitters make them durable by group commit.
//!   For any number of shards and threads the state after recovery is
//!   exactly the state after some prefix of one linearization of the
//!   submits, and every acknowledged submit is in that prefix; with
//!   `shards = 1` and one submitting thread, the prefix is of the
//!   thread's own submit order. `SharedEngine` callers opt into
//!   durability by swapping one constructor:
//!
//! ```no_run
//! use coord_core::persist::DurableSharedEngine;
//! use coord_db::Database;
//!
//! let db = Database::new();
//! let engine = DurableSharedEngine::open(&db, "/var/lib/coord").unwrap();
//! // …submit like a SharedEngine; state survives a crash…
//! ```
//!
//! Recovery replays `snapshot + log tail` without re-evaluating any
//! component (the log records which queries retired), then re-routes
//! the surviving pending set — so the restored engine's pending set,
//! component structure and subsequent coordination results match an
//! uninterrupted run (property-tested in `tests/durability_props.rs`).

use crate::engine::{default_shards, SccEvaluator, SubmitResult};
use crate::error::CoordError;
use crate::query::EntangledQuery;
use coord_db::{Atom, Database, Term, Value, Var};
use coord_engine::MetricsSnapshot;
use coord_obs::Registry as ObsRegistry;
use coord_store::bytes::{put_i64, put_str, put_u32, Reader};
use coord_store::{DurableError, QueryCodec, RecoveryReport, StoreError};
use std::path::Path;

pub use coord_store::{DurabilityOptions, StoreStatsSnapshot, SyncPolicy};

/// Deterministic byte codec for [`EntangledQuery`].
#[derive(Clone, Copy, Debug, Default)]
pub struct EntangledQueryCodec;

const TERM_VAR: u8 = 0;
const TERM_INT: u8 = 1;
const TERM_STR: u8 = 2;

fn put_atoms(out: &mut Vec<u8>, atoms: &[Atom]) {
    put_u32(out, atoms.len() as u32);
    for atom in atoms {
        put_str(out, atom.relation.as_str());
        put_u32(out, atom.terms.len() as u32);
        for term in &atom.terms {
            match term {
                Term::Var(v) => {
                    out.push(TERM_VAR);
                    put_u32(out, v.0);
                }
                Term::Const(Value::Int(i)) => {
                    out.push(TERM_INT);
                    put_i64(out, *i);
                }
                Term::Const(Value::Str(s)) => {
                    out.push(TERM_STR);
                    put_str(out, s);
                }
            }
        }
    }
}

fn read_atoms(r: &mut Reader<'_>) -> Result<Vec<Atom>, StoreError> {
    // An atom takes at least a relation length and an arity (8 bytes),
    // a term a tag and a 4-byte operand.
    let count = r.count(8)?;
    let mut atoms = Vec::with_capacity(count);
    for _ in 0..count {
        let relation = r.str()?;
        let arity = r.count(5)?;
        let mut terms = Vec::with_capacity(arity);
        for _ in 0..arity {
            let term = match r.u8()? {
                TERM_VAR => Term::Var(Var(r.u32()?)),
                TERM_INT => Term::Const(Value::Int(r.i64()?)),
                TERM_STR => Term::Const(Value::str(r.str()?)),
                t => return Err(StoreError::Codec(format!("unknown term tag {t}"))),
            };
            terms.push(term);
        }
        atoms.push(Atom::new(relation, terms));
    }
    Ok(atoms)
}

impl QueryCodec<EntangledQuery> for EntangledQueryCodec {
    fn encode(&self, query: &EntangledQuery, out: &mut Vec<u8>) {
        put_str(out, query.name());
        put_u32(out, query.var_count());
        for i in 0..query.var_count() {
            put_str(out, query.var_name(Var(i)));
        }
        put_atoms(out, query.postconditions());
        put_atoms(out, query.heads());
        put_atoms(out, query.body());
    }

    fn decode(&self, bytes: &[u8]) -> Result<EntangledQuery, StoreError> {
        let mut r = Reader::new(bytes);
        let name = r.str()?;
        let vars = r.count(4)?;
        let mut var_names = Vec::with_capacity(vars);
        for _ in 0..vars {
            var_names.push(r.str()?);
        }
        let postconditions = read_atoms(&mut r)?;
        let heads = read_atoms(&mut r)?;
        let body = read_atoms(&mut r)?;
        if !r.is_empty() {
            return Err(StoreError::Codec(format!(
                "trailing bytes after query `{name}`"
            )));
        }
        EntangledQuery::new(name, postconditions, heads, body, var_names)
            .map_err(|e| StoreError::Codec(e.to_string()))
    }
}

fn store_err(e: StoreError) -> CoordError {
    CoordError::Store {
        message: e.to_string(),
    }
}

fn durable_err(e: DurableError<CoordError>) -> CoordError {
    match e {
        DurableError::Engine(e) => e,
        DurableError::Store(e) => store_err(e),
    }
}

/// The sharded, thread-safe online service with durability: the
/// [`crate::engine::SharedEngine`] API plus crash recovery, over one
/// ordered WAL per snapshot epoch; `shards = 1` driven from one thread
/// is the single-writer durable engine.
pub struct DurableSharedEngine<'a> {
    db: &'a Database,
    inner: coord_store::DurableShardedEngine<EntangledQuery, SccEvaluator<'a>, EntangledQueryCodec>,
}

impl<'a> DurableSharedEngine<'a> {
    /// Open (or create) a durable service at `dir` with one shard per
    /// available CPU (capped at 16) and default durability options.
    pub fn open(db: &'a Database, dir: impl AsRef<Path>) -> Result<Self, CoordError> {
        Self::open_with(db, dir, default_shards(), DurabilityOptions::default())
    }

    /// Open with explicit shard count and durability configuration. The
    /// shard count may differ from the one that wrote the store — the
    /// recovered pending set is re-routed across the new shards.
    pub fn open_with(
        db: &'a Database,
        dir: impl AsRef<Path>,
        shards: usize,
        options: DurabilityOptions,
    ) -> Result<Self, CoordError> {
        Self::open_with_obs(db, dir, shards, options, ObsRegistry::new())
    }

    /// Open with an explicit observability registry threaded through
    /// the whole durable stack — one [`ObsRegistry::snapshot`] then
    /// covers submit latency, WAL append/sync, snapshot rotations,
    /// migrations, rebalance passes, per-shard `shard_pending` /
    /// `engine_inflight` gauges, and the database's `db_*` probe
    /// counters plus the `db_probe_nanos` histogram. Every submit also
    /// opens a request-scoped trace ticket ([`coord_obs::TraceCtx`]) at
    /// the durable entry point, so lock-wait, evaluation, storage probes
    /// and WAL append/sync events in the trace ring all carry that
    /// submit's trace id — [`coord_obs::TraceAnalyzer`] turns the ring
    /// into per-request latency breakdowns. Pass
    /// [`ObsRegistry::disabled`] for near-zero-cost instruments.
    pub fn open_with_obs(
        db: &'a Database,
        dir: impl AsRef<Path>,
        shards: usize,
        options: DurabilityOptions,
        obs: ObsRegistry,
    ) -> Result<Self, CoordError> {
        db.attach_obs(&obs);
        let inner = coord_store::DurableShardedEngine::open_with_obs(
            dir,
            SccEvaluator::new(db),
            shards,
            EntangledQueryCodec,
            options,
            obs,
        )
        .map_err(store_err)?;
        Ok(DurableSharedEngine { db, inner })
    }

    /// Submit a query under its component shard's lock; the accepted
    /// mutation is logged before this returns.
    pub fn submit(&self, query: EntangledQuery) -> Result<SubmitResult, CoordError> {
        query.validate(self.db)?;
        let outcome = self.inner.submit(query).map_err(durable_err)?;
        Ok(SubmitResult {
            answers: outcome.delivery.unwrap_or_default(),
        })
    }

    /// Number of pending queries (across all shards).
    pub fn pending_count(&self) -> usize {
        self.inner.engine().pending_count()
    }

    /// Clones of all pending queries.
    pub fn pending(&self) -> Vec<EntangledQuery> {
        let pending = self.inner.engine().pending();
        pending.into_iter().map(|(_, q)| q).collect()
    }

    /// Total delivered answers.
    pub fn delivered(&self) -> usize {
        self.inner.engine().delivered() as usize
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.inner.engine().shard_count()
    }

    /// Total maintained components across shards.
    pub fn component_count(&self) -> usize {
        self.inner.engine().component_count()
    }

    /// Aggregated engine metrics.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.inner.engine().metrics().snapshot()
    }

    /// Per-shard load/contention statistics.
    pub fn shard_stats(&self) -> Vec<coord_engine::ShardStatsSnapshot> {
        self.inner.engine().shard_stats()
    }

    /// One skew-correction pass over the sharded engine: detect a hot
    /// shard and move its costliest component groups to colder shards.
    /// Purely an in-memory placement change that writes no log record:
    /// the moved component's later records follow it into the one log,
    /// and recovery re-routes the pending set regardless, so a crash at
    /// any point stays exactly recoverable.
    pub fn rebalance(&self) -> coord_engine::RebalanceReport {
        self.inner.engine().rebalance()
    }

    /// Replace the rebalancer's tuning (and reset its load watermarks).
    pub fn set_rebalance_config(&self, config: coord_engine::RebalanceConfig) {
        self.inner.engine().set_rebalance_config(config);
    }

    /// What recovery found when this engine was opened.
    pub fn recovery_report(&self) -> &RecoveryReport {
        self.inner.recovery_report()
    }

    /// Durable-store counters (records, bytes, snapshots, epoch).
    pub fn store_stats(&self) -> StoreStatsSnapshot {
        self.inner.store().stats()
    }

    /// The observability registry threaded through the whole durable
    /// stack: `engine_*`/`store_*`/`db_*` counters, submit and WAL
    /// latency histograms, and the trace ring. One
    /// [`ObsRegistry::snapshot`] covers engine, store, and database.
    pub fn obs(&self) -> &ObsRegistry {
        self.inner.engine().obs()
    }

    /// The live log's length as a one-element list: after an acked
    /// submit, where a crash that keeps only synced bytes (under
    /// `SyncPolicy::Never`, written bytes) cuts `wal-{epoch}-0000.log`.
    pub fn wal_stream_lens(&self) -> Vec<u64> {
        self.inner.wal_stream_lens()
    }

    /// Snapshot the pending set now, rotating the WAL to the next
    /// epoch. Safe under concurrent submits.
    pub fn snapshot(&self) -> Result<(), CoordError> {
        self.inner.store().snapshot().map_err(store_err)
    }

    /// The last background rotation failure, if any (cleared on read).
    /// Submits stay durable through the still-open WAL when a rotation
    /// fails.
    pub fn take_snapshot_error(&self) -> Option<CoordError> {
        self.inner.take_snapshot_error().map(store_err)
    }

    /// Check engine + live-set invariants; panics with a description on
    /// violation. Quiescent only (no submit in flight on another
    /// thread).
    pub fn validate_invariants(&self) {
        self.inner.validate_invariants();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::QueryBuilder;

    fn roundtrip(q: &EntangledQuery) -> EntangledQuery {
        let codec = EntangledQueryCodec;
        let mut bytes = Vec::new();
        codec.encode(q, &mut bytes);
        codec.decode(&bytes).unwrap()
    }

    #[test]
    fn codec_roundtrips_the_running_example() {
        let q = QueryBuilder::new("gwyneth")
            .postcondition("R", |a| a.constant("Chris").var("x"))
            .head("R", |a| a.constant("Gwyneth").var("x"))
            .body("Flights", |a| a.var("x").constant("Zurich"))
            .build()
            .unwrap();
        assert_eq!(roundtrip(&q), q);
    }

    #[test]
    fn codec_roundtrips_ints_strings_and_shared_vars() {
        let q = QueryBuilder::new("mixed")
            .postcondition("R", |a| a.constant(7i64).var("x").var("y"))
            .head("R", |a| a.constant("me").var("y"))
            .head("S", |a| a.var("x").constant(-3i64))
            .body("T", |a| a.var("x").var("y").constant("tag"))
            .build()
            .unwrap();
        let back = roundtrip(&q);
        assert_eq!(back, q);
        assert_eq!(back.var_count(), 2);
        assert_eq!(back.var_name(Var(0)), "x");
    }

    #[test]
    fn codec_is_deterministic() {
        let make = || {
            QueryBuilder::new("q")
                .head("R", |a| a.constant("u").var("v"))
                .body("S", |a| a.var("v").constant(1i64))
                .build()
                .unwrap()
        };
        let codec = EntangledQueryCodec;
        let (mut a, mut b) = (Vec::new(), Vec::new());
        codec.encode(&make(), &mut a);
        codec.encode(&make(), &mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn decode_rejects_garbage_and_trailing_bytes() {
        let codec = EntangledQueryCodec;
        assert!(codec.decode(&[1, 2, 3]).is_err());
        let q = QueryBuilder::new("q")
            .head("R", |a| a.constant(1i64))
            .build()
            .unwrap();
        let mut bytes = Vec::new();
        codec.encode(&q, &mut bytes);
        bytes.push(0);
        assert!(codec.decode(&bytes).is_err());
    }

    /// A count field claiming more elements than the payload can hold is
    /// an error, not a reservation sized by the claim: 9 bytes that
    /// promise `u32::MAX` variable names would otherwise ask for a
    /// 100 GB `Vec<String>` and abort the process.
    #[test]
    fn decode_rejects_counts_the_payload_cannot_hold() {
        let codec = EntangledQueryCodec;
        let mut vars = Vec::new();
        put_str(&mut vars, "");
        put_u32(&mut vars, u32::MAX);
        vars.push(0);
        assert!(codec.decode(&vars).is_err());
        // The same for an atom list and for one atom's arity.
        let mut atoms = Vec::new();
        put_str(&mut atoms, "q");
        put_u32(&mut atoms, 0);
        put_u32(&mut atoms, u32::MAX);
        assert!(codec.decode(&atoms).is_err());
        let mut arity = Vec::new();
        put_str(&mut arity, "q");
        put_u32(&mut arity, 0);
        put_u32(&mut arity, 1);
        put_str(&mut arity, "R");
        put_u32(&mut arity, u32::MAX);
        assert!(codec.decode(&arity).is_err());
    }
}
