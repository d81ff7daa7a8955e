//! The system under test. Every `use coord_*` of the benchmark lives in
//! this file: the rest of the benchmark sees the program only through
//! the plain-data wrappers below, and `README.md` lists the symbols
//! imported here — the exact public surface the benchmark holds the
//! repo to.
//!
//! Nothing here measures. The wrappers forward one call each; timing,
//! spans and statistics are the callers' business.

use crate::gen::Cell;
use coord_core::consistent::{ConsistentConfig, ConsistentCoordinator, ConsistentQuery};
use coord_core::engine::{
    CoordinationEngine, Placement, QueryAnswer, RebalanceConfig, SharedEngine,
};
use coord_core::graphs::{atom_key, coordination_graph};
use coord_core::parse::parse_query;
use coord_core::persist::{
    DurabilityOptions, DurableSharedEngine, EntangledQueryCodec, SyncPolicy,
};
use coord_core::scc::{preprocess, Preprocessed, SccCoordinator, SccOutcome};
use coord_core::unify::atoms_unifiable;
use coord_core::{check_coordinating_set, EntangledQuery, QuerySet};
use coord_db::{Atom, ConjunctiveQuery, Database, Symbol, Value};
use coord_graph::{tarjan_scc, AtomIndex, DiGraph, KeyPattern, Polarity};
use coord_obs::{Registry, TraceAnalyzer, PHASES};
use coord_store::frame::{crc32, write_frame};
use coord_store::wal::WalWriter;
use coord_store::QueryCodec;
use std::path::Path;

fn value(cell: Cell<'_>) -> Value {
    match cell {
        Cell::Int(i) => Value::int(i),
        Cell::Str(s) => Value::str(s),
    }
}

/// Counters the database keeps on its own (`Database::stats()`).
#[derive(Clone, Copy, Debug, Default)]
pub struct DbCounters {
    pub find_one: u64,
    pub rows_scanned: u64,
    pub probe_work: u64,
    pub index_hits: u64,
    pub index_misses: u64,
}

impl DbCounters {
    pub fn since(self, earlier: DbCounters) -> DbCounters {
        DbCounters {
            find_one: self.find_one - earlier.find_one,
            rows_scanned: self.rows_scanned - earlier.rows_scanned,
            probe_work: self.probe_work - earlier.probe_work,
            index_hits: self.index_hits - earlier.index_hits,
            index_misses: self.index_misses - earlier.index_misses,
        }
    }
}

/// A database on the default (`Database::new()`) backend.
pub struct Db(Database);

impl Db {
    pub fn new() -> Self {
        Db(Database::new())
    }

    pub fn create_table(&mut self, name: &str, attrs: &[&str]) {
        self.0.create_table(name, attrs).expect("fresh table name");
    }

    pub fn insert(&mut self, table: &str, row: &[Cell<'_>]) {
        let row: Vec<Value> = row.iter().map(|&c| value(c)).collect();
        self.0.insert(table, row).expect("row matches the schema");
    }

    pub fn rows(&self) -> usize {
        self.0.tuple_count()
    }

    pub fn counters(&self) -> DbCounters {
        let s = self.0.stats();
        DbCounters {
            find_one: s.find_one_count(),
            rows_scanned: s.rows_scanned(),
            probe_work: s.probe_work(),
            index_hits: s.index_hit_count(),
            index_misses: s.index_miss_count(),
        }
    }
}

/// A parsed entangled query.
#[derive(Clone)]
pub struct Query(EntangledQuery);

/// `coord_core::parse::parse_query`.
pub fn parse(text: &str) -> Result<Query, String> {
    parse_query(text).map(Query).map_err(|e| e.to_string())
}

/// One bound variable of an answer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Bound<'a> {
    Int(i64),
    Str(&'a str),
}

/// What one submit delivered: empty when the query stays pending.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Delivery(Vec<QueryAnswer>);

impl Delivery {
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// `(query name, bindings)` per answered query.
    pub fn answers(&self) -> impl Iterator<Item = (&str, Vec<(&str, Bound<'_>)>)> {
        self.0.iter().map(|a| {
            let bindings = a
                .bindings
                .iter()
                .map(|(n, v)| {
                    let b = match v {
                        Value::Int(i) => Bound::Int(*i),
                        Value::Str(s) => Bound::Str(s),
                    };
                    (n.as_str(), b)
                })
                .collect();
            (a.query.as_str(), bindings)
        })
    }

    /// The same delivery with answers in query-name order, for comparing
    /// engines that may list one coordinating set in different orders.
    pub fn sorted(mut self) -> Delivery {
        self.0.sort_by(|a, b| a.query.cmp(&b.query));
        self
    }
}

/// `CoordinationEngine`: the sequential in-memory engine — ladder rung
/// R2 and the reference every other configuration must agree with.
pub struct Reference<'a>(CoordinationEngine<'a>);

impl<'a> Reference<'a> {
    pub fn new(db: &'a Db) -> Self {
        Reference(CoordinationEngine::new(&db.0))
    }

    pub fn submit(&mut self, q: Query) -> Result<Delivery, String> {
        self.0
            .submit(q.0)
            .map(|r| Delivery(r.answers))
            .map_err(|e| e.to_string())
    }

    pub fn evaluated_per_submit(&self) -> f64 {
        self.0.metrics().evaluated_per_submit()
    }

    pub fn pairings_per_submit(&self) -> f64 {
        let m = self.0.metrics();
        m.pairings_checked as f64 / m.submits.max(1) as f64
    }
}

/// `SharedEngine` with observability disabled: ladder rung R3.
pub struct Sharded<'a>(SharedEngine<'a>);

impl<'a> Sharded<'a> {
    pub fn new(db: &'a Db, shards: usize) -> Self {
        Sharded(SharedEngine::with_obs(
            &db.0,
            shards,
            Placement::default(),
            RebalanceConfig::default(),
            Registry::disabled(),
        ))
    }

    pub fn submit(&self, q: Query) -> Result<Delivery, String> {
        self.0
            .submit(q.0)
            .map(|r| Delivery(r.answers))
            .map_err(|e| e.to_string())
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Sync {
    Never,
    EveryRecord,
}

#[derive(Clone, Copy, Debug)]
pub struct DurableConfig {
    pub shards: usize,
    pub sync: Sync,
    pub snapshot_every: Option<u64>,
    /// `None`: `Registry::disabled()`. `Some(n)`: an enabled registry
    /// with an `n`-event trace ring.
    pub trace_capacity: Option<usize>,
}

/// Engine, shard and store counters of a durable engine, flattened.
#[derive(Clone, Copy, Debug, Default)]
pub struct EngineCounters {
    pub migrations: u64,
    pub migration_backoffs: u64,
    pub contended: u64,
    pub lock_wait_nanos: u64,
    pub bytes_appended: u64,
    pub snapshots_taken: u64,
}

/// What the program's own observability layer reports after a traced
/// run (`ObsSnapshot` + `TraceAnalyzer`).
#[derive(Clone, Debug, Default)]
pub struct ObsReport {
    pub memo_hits: u64,
    pub memo_misses: u64,
    pub memo_evictions: u64,
    pub wal_syncs: u64,
    pub rotations: u64,
    pub rotation_sum_ns: u64,
    pub ring_dropped: u64,
    pub complete_traces: usize,
    /// Share of complete traces' wall nanos per phase, in `PHASES` order.
    pub phase_frac: Vec<(&'static str, f64)>,
}

/// `DurableSharedEngine`: the full stack every online workload drives.
pub struct Durable<'a>(DurableSharedEngine<'a>);

impl<'a> Durable<'a> {
    pub fn open(db: &'a Db, dir: &Path, cfg: DurableConfig) -> Result<Self, String> {
        let options = DurabilityOptions {
            sync: match cfg.sync {
                Sync::Never => SyncPolicy::Never,
                Sync::EveryRecord => SyncPolicy::EveryRecord,
            },
            snapshot_every: cfg.snapshot_every,
        };
        let obs = match cfg.trace_capacity {
            None => Registry::disabled(),
            Some(n) => Registry::with_trace_capacity(n),
        };
        DurableSharedEngine::open_with_obs(&db.0, dir, cfg.shards, options, obs)
            .map(Durable)
            .map_err(|e| e.to_string())
    }

    pub fn submit(&self, q: Query) -> Result<Delivery, String> {
        self.0
            .submit(q.0)
            .map(|r| Delivery(r.answers))
            .map_err(|e| e.to_string())
    }

    pub fn pending_names(&self) -> Vec<String> {
        self.0
            .pending()
            .iter()
            .map(|q| q.name().to_string())
            .collect()
    }

    /// Clean end offset of every WAL stream — after the last
    /// acknowledged submit, the bytes a crash is guaranteed to keep.
    pub fn stream_lens(&self) -> Vec<u64> {
        self.0.wal_stream_lens()
    }

    pub fn replayed_records(&self) -> usize {
        self.0.recovery_report().records_replayed
    }

    pub fn counters(&self) -> EngineCounters {
        let m = self.0.metrics();
        let s = self.0.store_stats();
        let shards = self.0.shard_stats();
        EngineCounters {
            migrations: m.migrations,
            migration_backoffs: m.migration_backoffs,
            contended: shards.iter().map(|s| s.contended).sum(),
            lock_wait_nanos: shards.iter().map(|s| s.lock_wait_nanos).sum(),
            bytes_appended: s.bytes_appended,
            snapshots_taken: s.snapshots_taken,
        }
    }

    pub fn obs_report(&self) -> ObsReport {
        let snap = self.0.obs().snapshot();
        let analyzer = TraceAnalyzer::from_tracer(&self.0.obs().tracer());
        let complete: Vec<_> = analyzer.traces().iter().filter(|t| t.complete).collect();
        let wall: u64 = complete
            .iter()
            .map(|t| t.breakdown.critical_path_nanos)
            .sum();
        let phase_frac = PHASES
            .iter()
            .enumerate()
            .map(|(i, name)| {
                let nanos: u64 = complete.iter().map(|t| t.breakdown.phases()[i].1).sum();
                (*name, nanos as f64 / wall.max(1) as f64)
            })
            .collect();
        let sync = snap.histogram("wal_sync_nanos");
        let rotation = snap.histogram("snapshot_rotation_nanos");
        ObsReport {
            memo_hits: snap.counter("memo_hits").unwrap_or(0),
            memo_misses: snap.counter("memo_misses").unwrap_or(0),
            memo_evictions: snap.counter("memo_evictions").unwrap_or(0),
            wal_syncs: sync.map_or(0, |h| h.count),
            rotations: rotation.map_or(0, |h| h.count),
            rotation_sum_ns: rotation.map_or(0, |h| h.sum),
            ring_dropped: analyzer.dropped,
            complete_traces: complete.len(),
            phase_frac,
        }
    }
}

// ---------------------------------------------------------------------
// Batch algorithms
// ---------------------------------------------------------------------

/// `SccStats`, the counts that repeat exactly from run to run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SccCounts {
    pub found: usize,
    pub best: usize,
    pub components: usize,
    pub graph_edges: usize,
    pub db_queries: usize,
    pub unify_calls: u64,
    pub ground_work: u64,
}

pub struct SccResult(SccOutcome);

impl SccResult {
    pub fn counts(&self) -> SccCounts {
        let s = self.0.stats;
        SccCounts {
            found: self.0.found.len(),
            best: self.0.best().map_or(0, |b| b.queries.len()),
            components: s.components,
            graph_edges: s.graph_edges,
            db_queries: s.db_queries,
            unify_calls: s.unify_calls,
            ground_work: s.ground_work,
        }
    }

    /// Definition 1, checked by `check_coordinating_set` on every
    /// candidate set the run returned.
    pub fn verify(&self, db: &Db) -> Result<(), String> {
        for f in &self.0.found {
            check_coordinating_set(&db.0, &self.0.qs, &f.queries, &f.grounding)
                .map_err(|v| v.to_string())?;
        }
        Ok(())
    }
}

fn queries(qs: &[Query]) -> Vec<EntangledQuery> {
    qs.iter().map(|q| q.0.clone()).collect()
}

/// `SccCoordinator::new(&db).run` — the paper's §4 algorithm, one call.
pub fn scc_run(db: &Db, qs: &[Query]) -> Result<SccResult, String> {
    SccCoordinator::new(&db.0)
        .run(&queries(qs))
        .map(SccResult)
        .map_err(|e| e.to_string())
}

pub fn scc_run_parallel(db: &Db, qs: &[Query], threads: usize) -> Result<SccResult, String> {
    SccCoordinator::new(&db.0)
        .run_parallel(&queries(qs), threads)
        .map(SccResult)
        .map_err(|e| e.to_string())
}

/// Everything `run` does before it touches the database.
pub struct SccPre(Preprocessed);

pub fn scc_preprocess(db: &Db, qs: &[Query]) -> Result<SccPre, String> {
    preprocess(&db.0, &queries(qs))
        .map(SccPre)
        .map_err(|e| e.to_string())
}

pub fn scc_sweep(db: &Db, pre: SccPre) -> Result<SccResult, String> {
    SccCoordinator::new(&db.0)
        .run_preprocessed(pre.0)
        .map(SccResult)
        .map_err(|e| e.to_string())
}

/// `ConsistentStats` plus the chosen set, as plain data.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ConsistentResult {
    pub db_queries: usize,
    pub values_considered: usize,
    pub graph_edges: usize,
    /// Agreed (destination, day) of the best set.
    pub value: Option<(String, i64)>,
    /// `(user index, flight id)` per member of the best set.
    pub assignment: Vec<(usize, i64)>,
}

/// The `batch-consistent` instance bound to its schema: flights table
/// `Fl`, friendship table `Fr`, coordinate on (destination, day).
pub struct Consistent<'a> {
    coordinator: ConsistentCoordinator<'a>,
    queries: Vec<ConsistentQuery>,
}

impl<'a> Consistent<'a> {
    /// One any-friend query per user; `pins[u]` constrains the user's own
    /// flight to leave from `src{pin}`.
    pub fn new(db: &'a Db, pins: &[Option<usize>]) -> Result<Self, String> {
        let config = ConsistentConfig::new(
            "Fl",
            "flightId",
            &["destination", "day"],
            &["source", "airline"],
            "Fr",
        );
        let coordinator = ConsistentCoordinator::new(&db.0, config).map_err(|e| e.to_string())?;
        let queries = pins
            .iter()
            .enumerate()
            .map(|(u, pin)| {
                let q = ConsistentQuery::for_user(crate::gen::user_name(u), 2, 2).with_any_friend();
                match pin {
                    Some(s) => q.personal_const(0, format!("src{s}")),
                    None => q,
                }
            })
            .collect();
        Ok(Consistent {
            coordinator,
            queries,
        })
    }

    fn result(out: coord_core::consistent::ConsistentOutcome) -> ConsistentResult {
        let (value, assignment) = match out.best {
            Some(best) => {
                let value = match best.value.as_slice() {
                    [Value::Str(d), Value::Int(day)] => Some((d.to_string(), *day)),
                    _ => None,
                };
                let assignment = best
                    .members
                    .iter()
                    .zip(&best.assignment)
                    .map(|(&m, (_, key))| (m, key.as_int().unwrap_or(-1)))
                    .collect();
                (value, assignment)
            }
            None => (None, Vec::new()),
        };
        ConsistentResult {
            db_queries: out.stats.db_queries,
            values_considered: out.stats.values_considered,
            graph_edges: out.stats.graph_edges,
            value,
            assignment,
        }
    }

    /// `ConsistentCoordinator::run` — the paper's §5 algorithm, one call.
    pub fn run(&self) -> Result<ConsistentResult, String> {
        self.coordinator
            .run(&self.queries)
            .map(Self::result)
            .map_err(|e| e.to_string())
    }

    pub fn run_parallel(&self, threads: usize) -> Result<ConsistentResult, String> {
        self.coordinator
            .run_parallel(&self.queries, threads)
            .map(Self::result)
            .map_err(|e| e.to_string())
    }
}

// ---------------------------------------------------------------------
// Direct calls into single layers, over a workload's own queries.
// Each probe prepares its inputs up front; `run` is the part to time.
// ---------------------------------------------------------------------

type Key = KeyPattern<Symbol, Value>;

fn keys(atoms: &[Atom]) -> Vec<Key> {
    atoms.iter().map(atom_key).collect()
}

/// `coord_graph::index::AtomIndex` as the online engine uses it: insert
/// every query's head and postcondition keys, then look each one up.
pub struct IndexProbe {
    keys: Vec<(Vec<Key>, Vec<Key>)>,
    index: AtomIndex<Symbol, Value>,
}

impl IndexProbe {
    pub fn new(qs: &[Query]) -> Self {
        IndexProbe {
            keys: qs
                .iter()
                .map(|q| (keys(q.0.heads()), keys(q.0.postconditions())))
                .collect(),
            index: AtomIndex::new(),
        }
    }

    /// Returns the number of key insertions.
    pub fn insert_all(&mut self) -> usize {
        let mut n = 0;
        for (token, (provides, requires)) in self.keys.iter().enumerate() {
            for k in provides {
                self.index.insert(token, Polarity::Provides, k);
            }
            for k in requires {
                self.index.insert(token, Polarity::Requires, k);
            }
            n += provides.len() + requires.len();
        }
        n
    }

    /// Returns `(lookups, candidate tokens returned)`.
    pub fn lookup_all(&self) -> (usize, usize) {
        let mut candidates = 0;
        for (provides, requires) in &self.keys {
            candidates += self.index.candidates(provides, requires).0.len();
        }
        (self.keys.len(), candidates)
    }

    /// The (postcondition, head) atom pairs the index proposes — what
    /// the engine then confirms with `atoms_unifiable`.
    pub fn candidate_pairs(&self, qs: &[Query]) -> UnifyProbe {
        let mut pairs = Vec::new();
        for (token, (provides, requires)) in self.keys.iter().enumerate() {
            for other in self.index.candidates(provides, requires).0 {
                for post in qs[token].0.postconditions() {
                    for head in qs[other].0.heads() {
                        pairs.push((post.clone(), head.clone()));
                    }
                }
            }
        }
        UnifyProbe { pairs }
    }
}

/// `coord_core::unify::atoms_unifiable` over candidate pairs.
pub struct UnifyProbe {
    pairs: Vec<(Atom, Atom)>,
}

impl UnifyProbe {
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Returns how many pairs unify.
    pub fn run(&self) -> usize {
        self.pairs
            .iter()
            .filter(|(a, b)| atoms_unifiable(a, b))
            .count()
    }
}

/// `coord_graph::scc::tarjan_scc` on the coordination graph of a query
/// set (built with `coord_core::graphs::coordination_graph`).
pub struct GraphProbe {
    graph: DiGraph<coord_core::QueryId>,
}

impl GraphProbe {
    pub fn new(qs: &[Query]) -> Self {
        GraphProbe {
            graph: coordination_graph(&QuerySet::new(queries(qs))),
        }
    }

    pub fn edges(&self) -> usize {
        self.graph.edge_count()
    }

    /// Returns the number of strongly connected components.
    pub fn run(&self) -> usize {
        tarjan_scc(&self.graph).len()
    }
}

/// `EntangledQueryCodec` and `coord_store::frame` over a query set.
pub struct CodecProbe {
    queries: Vec<EntangledQuery>,
    encoded: Vec<Vec<u8>>,
}

impl CodecProbe {
    pub fn new(qs: &[Query]) -> Self {
        let queries = queries(qs);
        let encoded = queries
            .iter()
            .map(|q| {
                let mut out = Vec::new();
                EntangledQueryCodec.encode(q, &mut out);
                out
            })
            .collect();
        CodecProbe { queries, encoded }
    }

    pub fn encoded_bytes(&self) -> usize {
        self.encoded.iter().map(Vec::len).sum()
    }

    /// Encodes every query; returns the bytes produced.
    pub fn encode_all(&self) -> usize {
        let mut out = Vec::with_capacity(256);
        let mut total = 0;
        for q in &self.queries {
            out.clear();
            EntangledQueryCodec.encode(q, &mut out);
            total += out.len();
        }
        total
    }

    /// Decodes every encoding; returns how many decoded.
    pub fn decode_all(&self) -> usize {
        self.encoded
            .iter()
            .filter(|b| EntangledQueryCodec.decode(b).is_ok())
            .count()
    }

    /// CRC-32 of every encoding; returns a checksum of checksums.
    pub fn crc_all(&self) -> u32 {
        self.encoded.iter().fold(0, |acc, b| acc ^ crc32(b))
    }

    /// `write_frame` of every encoding into one buffer; returns its
    /// length.
    pub fn frame_all(&self) -> usize {
        let mut buf = Vec::with_capacity(self.encoded_bytes() + 8 * self.encoded.len());
        for b in &self.encoded {
            write_frame(&mut buf, b);
        }
        buf.len()
    }

    /// `WalWriter::append` of the first `limit` encodings to a fresh log
    /// at `path` under the given policy; returns the log's final length.
    pub fn wal_append_all(&self, path: &Path, sync: Sync, limit: usize) -> Result<u64, String> {
        let policy = match sync {
            Sync::Never => SyncPolicy::Never,
            Sync::EveryRecord => SyncPolicy::EveryRecord,
        };
        let mut wal = WalWriter::create(path, 0, policy).map_err(|e| e.to_string())?;
        for b in self.encoded.iter().take(limit) {
            wal.append(b).map_err(|e| e.to_string())?;
        }
        Ok(wal.len())
    }
}

/// `Database::find_one` on each query's own body.
pub struct FindOneProbe {
    bodies: Vec<ConjunctiveQuery>,
}

impl FindOneProbe {
    pub fn new(qs: &[Query]) -> Self {
        FindOneProbe {
            bodies: qs
                .iter()
                .map(|q| ConjunctiveQuery::new(q.0.body().to_vec()))
                .collect(),
        }
    }

    pub fn len(&self) -> usize {
        self.bodies.len()
    }

    /// Returns how many bodies are satisfiable.
    pub fn run(&self, db: &Db) -> usize {
        self.bodies
            .iter()
            .filter(|b| matches!(db.0.find_one(b), Ok(Some(_))))
            .count()
    }
}
