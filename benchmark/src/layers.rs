//! The traced run (`--trace 1`): per-layer metrics, measured from
//! outside the program three ways.
//!
//! * **Spans** the driver records around its own calls (`spans.rs`).
//! * **The ladder**: the same arrivals through successively taller
//!   stacks built from public constructors — R1 `parse_query`, R2
//!   `CoordinationEngine`, R3 `SharedEngine` (4 shards), R4
//!   `DurableSharedEngine` without snapshots, R5 with a snapshot every
//!   1024 records, R6 with `EveryRecord` on top. A layer's cost is the
//!   difference between adjacent rungs, and R1 plus the workload's own
//!   top rung must come back to the workload's measured per-submit time.
//! * **Direct calls** into single layers over the workload's own
//!   queries, plus the counters the program already exports.
//!
//! Every workload reports every name in [`PER_LAYER`]; a layer the
//! workload never enters reads 0.

use crate::batch;
use crate::gen::ConsistentBatch;
use crate::online::{self, ClientLog, Inputs, Pace, Recovery};
use crate::spans::Spans;
use crate::spec::{self, Online, Workload};
use crate::stats;
use crate::sut::{
    self, CodecProbe, Consistent, ConsistentResult, Db, DbCounters, Delivery, Durable,
    DurableConfig, EngineCounters, FindOneProbe, GraphProbe, IndexProbe, Query, Reference, Sharded,
    Sync,
};
use crate::{Outcome, WorkDir};
use std::hint::black_box;
use std::time::Instant;

pub const PER_LAYER: [(&str, &str); 87] = [
    // What a user sees, in more detail than the six bounded metrics:
    // these are end-to-end numbers that only some workloads have, so
    // they cannot be bounded for all (see README, "Metrics").
    ("wait_p50_us", "us"),
    ("wait_p99_us", "us"),
    ("deliver_p50_us", "us"),
    ("deliver_p99_us", "us"),
    ("open_p50_us", "us"),
    ("open_p99_us", "us"),
    ("max_rate_ok", "1/s"),
    ("open.p99_us_at_half_rate", "us"),
    ("open.p99_us_at_1p5_rate", "us"),
    ("open.late_p99_us", "us"),
    ("open.backlog_frac", "ratio"),
    ("recovery_ms", "ms"),
    ("disk_bytes_per_submit", "B"),
    ("batch_ms", "ms"),
    ("failed_frac", "ratio"),
    // coord-core::parse
    ("parse.ns_per_query", "ns"),
    // coord-core::unify
    ("unify.ns_per_call", "ns"),
    ("unify.calls_per_submit", "count"),
    // coord-graph::index
    ("index.insert_ns", "ns"),
    ("index.lookup_ns", "ns"),
    ("index.candidates_per_lookup", "count"),
    // coord-graph::scc
    ("graph.tarjan_ns_per_edge", "ns"),
    // coord-core::scc, coord-core::differential
    ("scc.preprocess_ms", "ms"),
    ("scc.sweep_ms", "ms"),
    ("scc.list300_ms", "ms"),
    ("scc.sf2000_ms", "ms"),
    ("scc.parallel2_ms", "ms"),
    ("scc.db_queries", "count"),
    ("scc.unify_calls", "count"),
    ("scc.ground_work", "count"),
    ("memo.hit_rate", "ratio"),
    ("memo.evictions_per_submit", "count"),
    // coord-core::consistent
    ("consistent.ms_per_value", "ms"),
    ("consistent.values_considered", "count"),
    ("consistent.db_queries", "count"),
    ("consistent.parallel2_ms", "ms"),
    // coord-db
    ("db.find_one_ns", "ns"),
    ("db.rows_scanned_per_submit", "count"),
    ("db.probe_work_per_submit", "count"),
    ("db.index_hit_rate", "ratio"),
    ("db.insert_rows_per_s", "1/s"),
    // coord-engine::engine
    ("engine.mem_submit_ns", "ns"),
    ("engine.evaluated_per_submit", "count"),
    // coord-engine::sharded
    ("sharded.overhead_ns", "ns"),
    ("sharded.lock_wait_frac", "ratio"),
    ("sharded.contended", "count"),
    ("sharded.migrations", "count"),
    ("sharded.backoffs", "count"),
    // coord-store::codec
    ("codec.encode_ns", "ns"),
    ("codec.decode_ns", "ns"),
    ("codec.bytes_per_query", "B"),
    // coord-store::frame
    ("frame.crc32_mb_per_s", "MB/s"),
    ("frame.write_ns", "ns"),
    // coord-store::wal
    ("wal.append_ns", "ns"),
    ("wal.sync_ns", "ns"),
    ("wal.syncs_per_submit", "count"),
    // coord-store::store
    ("store.append_overhead_ns", "ns"),
    ("store.snapshot_overhead_ns", "ns"),
    ("store.fsync_overhead_ns", "ns"),
    ("store.rotation_mean_ms", "ms"),
    ("store.rotation_stall_frac", "ratio"),
    ("store.snapshots", "count"),
    ("store.replay_records_per_s", "1/s"),
    ("store.wal_bytes_per_submit", "B"),
    // coord-obs
    ("obs.overhead_frac", "ratio"),
    ("obs.ring_dropped", "count"),
    ("obs.complete_traces", "count"),
    ("obs.phase.lock_wait_frac", "ratio"),
    ("obs.phase.evaluate_frac", "ratio"),
    ("obs.phase.db_probe_frac", "ratio"),
    ("obs.phase.memo_frac", "ratio"),
    ("obs.phase.wal_append_frac", "ratio"),
    ("obs.phase.wal_sync_frac", "ratio"),
    ("obs.phase.other_frac", "ratio"),
    // The ladder itself, and how well the traced run closes.
    ("ladder.r1_parse_ns", "ns"),
    ("ladder.r2_engine_ns", "ns"),
    ("ladder.r3_sharded_ns", "ns"),
    ("ladder.r4_wal_ns", "ns"),
    ("ladder.r5_snapshot_ns", "ns"),
    ("ladder.r6_fsync_ns", "ns"),
    ("ladder.top_at_clients_ns", "ns"),
    ("ladder.workload_submit_ns", "ns"),
    ("ladder.closure_err_frac", "ratio"),
    ("ladder.reference_mismatches", "count"),
    ("spans.count", "count"),
    ("spans.min_root_coverage", "ratio"),
    ("proc.cpu_us_per_op", "us"),
];

/// Per-layer metrics where a larger reading is the better one; for all
/// the others — times, counts of work, shares of time — smaller is.
pub const HIGHER_IS_BETTER: [&str; 8] = [
    "max_rate_ok",
    "memo.hit_rate",
    "db.index_hit_rate",
    "db.insert_rows_per_s",
    "frame.crc32_mb_per_s",
    "store.replay_records_per_s",
    "obs.complete_traces",
    "spans.min_root_coverage",
];

/// Per-layer values by name; unset names read 0.
struct Layers(Vec<(&'static str, f64)>);

impl Layers {
    fn new() -> Self {
        Layers(PER_LAYER.iter().map(|(n, _)| (*n, 0.0)).collect())
    }

    fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .0
            .iter_mut()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("`{name}` is not a per-layer metric"));
        slot.1 = if value.is_finite() { value } else { 0.0 };
    }

    /// The database's own counters over a stretch of `ops` operations.
    fn set_db(&mut self, counters: DbCounters, ops: f64) {
        self.set(
            "db.rows_scanned_per_submit",
            counters.rows_scanned as f64 / ops,
        );
        self.set("db.probe_work_per_submit", counters.probe_work as f64 / ops);
        self.set(
            "db.index_hit_rate",
            counters.index_hits as f64
                / (counters.index_hits + counters.index_misses).max(1) as f64,
        );
    }

    fn finish(mut self, out: &mut Outcome) {
        self.set(
            "failed_frac",
            out.failed as f64 / out.attempted.max(1) as f64,
        );
        for (name, value) in self.0 {
            out.metric(name, value);
        }
    }
}

/// Time `f` repeated until it has run for at least 20 ms (and at least
/// twice); returns nanoseconds per repetition.
fn time_ns(mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut reps = 0u32;
    while reps < 2 || start.elapsed().as_millis() < 20 {
        f();
        reps += 1;
    }
    start.elapsed().as_nanos() as f64 / f64::from(reps)
}

/// Direct calls into the layers every query passes through, over a
/// sample of the workload's own parsed queries.
fn probe_kit(l: &mut Layers, db: &Db, sample: &[Query], work: &WorkDir) -> Result<(), String> {
    let n = sample.len().max(1) as f64;

    let mut index = IndexProbe::new(sample);
    let t = Instant::now();
    let inserts = index.insert_all();
    l.set(
        "index.insert_ns",
        t.elapsed().as_nanos() as f64 / inserts.max(1) as f64,
    );
    let (lookups, candidates) = index.lookup_all();
    l.set(
        "index.lookup_ns",
        time_ns(|| {
            black_box(index.lookup_all());
        }) / lookups.max(1) as f64,
    );
    l.set(
        "index.candidates_per_lookup",
        candidates as f64 / lookups.max(1) as f64,
    );

    let unify = index.candidate_pairs(sample);
    if unify.len() > 0 {
        l.set(
            "unify.ns_per_call",
            time_ns(|| {
                black_box(unify.run());
            }) / unify.len() as f64,
        );
    }

    let graph = GraphProbe::new(sample);
    if graph.edges() > 0 {
        l.set(
            "graph.tarjan_ns_per_edge",
            time_ns(|| {
                black_box(graph.run());
            }) / graph.edges() as f64,
        );
    }

    let codec = CodecProbe::new(sample);
    let bytes = codec.encoded_bytes() as f64;
    l.set("codec.bytes_per_query", bytes / n);
    l.set(
        "codec.encode_ns",
        time_ns(|| {
            black_box(codec.encode_all());
        }) / n,
    );
    l.set(
        "codec.decode_ns",
        time_ns(|| {
            black_box(codec.decode_all());
        }) / n,
    );
    let crc_ns = time_ns(|| {
        black_box(codec.crc_all());
    });
    l.set("frame.crc32_mb_per_s", bytes / 1e6 / (crc_ns / 1e9));
    l.set(
        "frame.write_ns",
        time_ns(|| {
            black_box(codec.frame_all());
        }) / n,
    );

    // One log, appended to under each policy. `EveryRecord` flushes per
    // record, so it gets a shorter run: 512 flushes are enough.
    let dir = work.fresh("wal-probe")?;
    let t = Instant::now();
    codec.wal_append_all(&dir.join("never.log"), Sync::Never, usize::MAX)?;
    let append_ns = t.elapsed().as_nanos() as f64 / n;
    l.set("wal.append_ns", append_ns);
    let synced = sample.len().min(512);
    let t = Instant::now();
    codec.wal_append_all(&dir.join("every.log"), Sync::EveryRecord, synced)?;
    let every_ns = t.elapsed().as_nanos() as f64 / synced.max(1) as f64;
    l.set("wal.sync_ns", (every_ns - append_ns).max(0.0));

    let find = FindOneProbe::new(sample);
    let hits = find.run(db);
    if hits != find.len() {
        return Err(format!(
            "find_one satisfied {hits} of {} bodies",
            find.len()
        ));
    }
    l.set(
        "db.find_one_ns",
        time_ns(|| {
            black_box(find.run(db));
        }) / n,
    );
    Ok(())
}

/// The online run a traced pass extends: the workload, its inputs and
/// the (untraced) table they were generated for.
pub struct OnlineRun<'a> {
    pub w: &'a Workload,
    pub o: &'a Online,
    pub seconds: u64,
    pub db: &'a Db,
    pub inputs: &'a Inputs,
    pub work: &'a WorkDir,
}

/// What the untraced half of a traced online run measured.
pub struct Base<'a> {
    /// `section_submit_ns` of the untraced half.
    pub per_submit_ns: f64,
    pub logs: &'a [ClientLog],
    pub written_per_submit: f64,
    pub recovery: &'a Recovery,
    pub counters: EngineCounters,
    pub cpu_us_per_op: f64,
}

fn pct_us(values: &mut [u64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_unstable();
    stats::percentile(values, p) as f64 / 1e3
}

/// Latency from the due time, split by whether the submit delivered.
fn wait_and_deliver(logs: &[ClientLog]) -> (Vec<u64>, Vec<u64>) {
    let (mut wait, mut deliver) = (Vec::new(), Vec::new());
    for log in logs {
        let mut delivered = log.deliveries.iter().map(|(i, _)| *i).peekable();
        for (i, op) in log.ops.iter().enumerate() {
            if delivered.peek() == Some(&i) {
                delivered.next();
                deliver.push(op.done - op.due);
            } else {
                wait.push(op.done - op.due);
            }
        }
    }
    (wait, deliver)
}

/// A section's `done − start` per submit (parse included), averaged
/// over its clients.
pub fn section_submit_ns(logs: &[ClientLog]) -> f64 {
    let per_client: Vec<f64> = logs
        .iter()
        .map(|l| per_submit_ns(l.ops.iter().map(|o| o.done - o.start)))
        .collect();
    per_client.iter().sum::<f64>() / per_client.len().max(1) as f64
}

/// The driver's spans of one online section: a `request` per submit with
/// a `parse` and a `submit` child.
fn online_spans(logs: &[ClientLog]) -> Spans {
    let mut spans = Spans::new(true);
    for (client, log) in logs.iter().enumerate() {
        for (i, op) in log.ops.iter().enumerate() {
            let request = (i * logs.len() + client) as u64;
            let root = spans.record("request", None, request, op.start, op.done);
            spans.record("parse", Some(root), request, op.start, op.parsed);
            spans.record("submit", Some(root), request, op.parsed, op.done);
        }
    }
    spans
}

fn write_spans(l: &mut Layers, w: &Workload, spans: &Spans, out: &mut Outcome) {
    let path = crate::out_dir().join(format!("trace-{}.jsonl", w.name));
    match spans.write_jsonl(&path) {
        Ok(()) => out.note(format!(
            "{} spans written to {}",
            spans.all().len(),
            path.display()
        )),
        Err(e) => out.note(format!("warning: could not write {}: {e}", path.display())),
    }
    l.set("spans.count", spans.all().len() as f64);
    l.set("spans.min_root_coverage", spans.min_root_coverage());
}

/// Nanoseconds per submit of a run of per-call times: the mean of each
/// chunk of 1024 calls — one snapshot rotation's worth, so that every
/// chunk carries the same share of that cost — and of those means the
/// second lowest (`stats::quiet_low`).
pub fn per_submit_ns(call_ns: impl IntoIterator<Item = u64>) -> f64 {
    let calls: Vec<u64> = call_ns.into_iter().collect();
    let whole = calls.len() / 1024 * 1024;
    let means: Vec<f64> = if whole == 0 {
        vec![calls.iter().sum::<u64>() as f64 / calls.len().max(1) as f64]
    } else {
        calls[..whole]
            .chunks(1024)
            .map(|c| c.iter().sum::<u64>() as f64 / 1024.0)
            .collect()
    };
    stats::quiet_low(&means)
}

/// One rung: warm the stack up, then time each of `timed` through it.
/// Returns nanoseconds per submit and what each submit delivered.
fn rung(
    warm: &[Query],
    timed: &[Query],
    mut submit: impl FnMut(Query) -> Result<Delivery, String>,
) -> Result<(f64, Vec<Delivery>), String> {
    for q in warm.iter().cloned() {
        submit(q)?;
    }
    let queries = timed.to_vec();
    let mut deliveries = Vec::with_capacity(queries.len());
    let mut call_ns = Vec::with_capacity(queries.len());
    for q in queries {
        let t = Instant::now();
        deliveries.push(submit(q)?);
        call_ns.push(t.elapsed().as_nanos() as u64);
    }
    Ok((per_submit_ns(call_ns), deliveries))
}

/// Arrivals the ladder replays: each client's first `per_client` timed
/// arrivals, one client after the other (clients own disjoint groups, so
/// any interleaving delivers the same sets).
fn ladder_arrivals(inputs: &Inputs, logs: &[ClientLog]) -> Vec<(usize, usize)> {
    let per_client = logs
        .iter()
        .map(|l| l.ops.len())
        .min()
        .unwrap_or(0)
        .min(8192 / logs.len().max(1));
    (0..inputs.timed.len())
        .flat_map(|c| (0..per_client).map(move |i| (c, i)))
        .collect()
}

fn ladder(
    l: &mut Layers,
    run: &OnlineRun<'_>,
    base: &Base<'_>,
    out: &mut Outcome,
) -> Result<Vec<Query>, String> {
    let OnlineRun {
        o,
        db,
        inputs,
        work,
        ..
    } = *run;
    let picks = ladder_arrivals(inputs, base.logs);
    let clients = inputs.timed.len().max(1);
    let per_client = picks.len() / clients;
    let texts: Vec<&String> = picks
        .iter()
        .map(|&(c, i)| &inputs.timed[c].texts[i])
        .collect();
    let warm: Vec<Query> = inputs
        .warm
        .texts
        .iter()
        .map(|t| sut::parse(t))
        .collect::<Result<_, _>>()?;

    // R1: parse alone.
    let mut parse_ns = Vec::with_capacity(texts.len());
    let mut timed = Vec::with_capacity(texts.len());
    for text in &texts {
        let t = Instant::now();
        timed.push(sut::parse(text)?);
        parse_ns.push(t.elapsed().as_nanos() as u64);
    }
    let r1 = per_submit_ns(parse_ns);

    // R2: the sequential in-memory engine — and the second oracle: what
    // it delivers, submit by submit, is what the durable sharded engine
    // delivered for the same arrival in the workload's own run.
    let mut reference = Reference::new(db);
    let (r2, ref_deliveries) = rung(&warm, &timed, |q| reference.submit(q))?;
    let mut mismatches = 0u64;
    for (&(c, i), expected) in picks.iter().zip(ref_deliveries) {
        let log = &base.logs[c];
        let got = log
            .deliveries
            .binary_search_by_key(&i, |(at, _)| *at)
            .map_or_else(|_| Delivery::default(), |at| log.deliveries[at].1.clone());
        if got.sorted() != expected.sorted() {
            mismatches += 1;
        }
    }
    out.fail(
        mismatches,
        "durable sharded engine and CoordinationEngine delivered different answers",
    );
    l.set(
        "engine.evaluated_per_submit",
        reference.evaluated_per_submit(),
    );
    l.set("unify.calls_per_submit", reference.pairings_per_submit());
    drop(reference);

    let sharded = Sharded::new(db, spec::SHARDS);
    let (r3, _) = rung(&warm, &timed, |q| sharded.submit(q))?;
    drop(sharded);

    let config = |sync, snapshot_every| DurableConfig {
        shards: spec::SHARDS,
        sync,
        snapshot_every,
        trace_capacity: None,
    };
    let durable = |cfg: DurableConfig, label: &str| -> Result<(f64, std::path::PathBuf), String> {
        let dir = work.fresh(label)?;
        let engine = Durable::open(db, &dir, cfg)?;
        let (ns, _) = rung(&warm, &timed, |q| engine.submit(q))?;
        Ok((ns, dir))
    };
    let (r4, r4_dir) = durable(config(Sync::Never, None), "r4")?;
    let (r5, _) = durable(config(Sync::Never, Some(spec::SNAPSHOT_EVERY)), "r5")?;
    let r6 = if o.sync == Sync::EveryRecord {
        durable(config(Sync::EveryRecord, Some(spec::SNAPSHOT_EVERY)), "r6")?.0
    } else {
        0.0
    };

    // R4's directory holds one log and no snapshot: reopening it replays
    // every record.
    let t = Instant::now();
    let reopened = Durable::open(db, &r4_dir, config(Sync::Never, None))?;
    let replay_s = t.elapsed().as_secs_f64();
    l.set(
        "store.replay_records_per_s",
        reopened.replayed_records() as f64 / replay_s,
    );
    drop(reopened);

    // The rungs above run on one thread, so that their differences are
    // layer costs. A workload with several clients also pays for their
    // contention: to close against its measured time, its own top rung is
    // run once more with one thread per client.
    let single = if o.sync == Sync::EveryRecord { r6 } else { r5 };
    let top = if clients > 1 {
        let dir = work.fresh("top")?;
        let engine = Durable::open(db, &dir, online::durable_config(o, None))?;
        rung(&warm, &[], |q| engine.submit(q))?;
        let per_thread: Vec<Result<f64, String>> = std::thread::scope(|s| {
            let handles: Vec<_> = timed
                .chunks(per_client)
                .map(|chunk| {
                    let engine = &engine;
                    s.spawn(move || rung(&[], chunk, |q| engine.submit(q)).map(|(ns, _)| ns))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("ladder client panicked"))
                .collect()
        });
        let per_thread: Vec<f64> = per_thread.into_iter().collect::<Result<_, _>>()?;
        per_thread.iter().sum::<f64>() / clients as f64
    } else {
        single
    };
    l.set("ladder.top_at_clients_ns", top);
    l.set("parse.ns_per_query", r1);
    l.set("ladder.r1_parse_ns", r1);
    l.set("ladder.r2_engine_ns", r2);
    l.set("ladder.r3_sharded_ns", r3);
    l.set("ladder.r4_wal_ns", r4);
    l.set("ladder.r5_snapshot_ns", r5);
    l.set("ladder.r6_fsync_ns", r6);
    l.set("engine.mem_submit_ns", r2);
    l.set("sharded.overhead_ns", r3 - r2);
    l.set("store.append_overhead_ns", r4 - r3);
    l.set("store.snapshot_overhead_ns", r5 - r4);
    l.set(
        "store.fsync_overhead_ns",
        if r6 > 0.0 { r6 - r5 } else { 0.0 },
    );
    // The workload's own time for the same arrivals, estimated the same
    // way from the same number of chunks.
    let workload_ns = base
        .logs
        .iter()
        .map(|log| per_submit_ns(log.ops[..per_client].iter().map(|o| o.done - o.start)))
        .sum::<f64>()
        / clients as f64;
    l.set("ladder.workload_submit_ns", workload_ns);
    l.set(
        "ladder.closure_err_frac",
        (r1 + top - workload_ns) / workload_ns,
    );
    l.set("ladder.reference_mismatches", mismatches as f64);
    out.note(format!(
        "ladder over {} arrivals (ns/submit): R1 {r1:.0}  R2 {r2:.0}  R3 {r3:.0}  R4 {r4:.0}  R5 {r5:.0}  R6 {r6:.0}; \
         R1 + top rung at {} clients = {:.0} vs the workload's {:.0}",
        timed.len(),
        clients,
        r1 + top,
        workload_ns
    ));
    Ok(timed)
}

/// The open-loop rate ladder: ½×, 1× and 1½× the workload's rate, a
/// third of the time each, on one engine.
fn open_rates(
    l: &mut Layers,
    run: &OnlineRun<'_>,
    rate: u64,
    out: &mut Outcome,
) -> Result<(), String> {
    let OnlineRun {
        o,
        seconds,
        db,
        inputs,
        work,
        ..
    } = *run;
    let dir = work.fresh("open-rates")?;
    let (engine, _) = online::set_up(o, db, inputs, &dir, None)?;
    let section_ns = seconds * 1_000_000_000 / 3;
    let workers = inputs.timed.len() as u64;
    let mut offset = vec![0usize; inputs.timed.len()];
    // The highest rate met, all lower rates having been met too.
    let mut max_ok = 0u64;
    let mut all_met = true;
    for (label, r) in [("half", rate / 2), ("full", rate), ("1p5", rate * 3 / 2)] {
        let texts: Vec<&[String]> = inputs
            .timed
            .iter()
            .zip(&offset)
            .map(|(arrivals, &from)| &arrivals.texts[from..])
            .collect();
        let (logs, _) = online::run_clients(&engine, &texts, |w| Pace::Open {
            rate: r,
            worker: w as u64,
            workers,
            until_ns: section_ns,
            give_up_ns: section_ns + 3_000_000_000,
        });
        for (w, log) in logs.iter().enumerate() {
            offset[w] += log.ops.len();
            out.fail(log.errors.len() as u64, "open-loop submit refused");
        }
        let scheduled = (r * section_ns / 1_000_000_000).max(1);
        let mut latency = Vec::new();
        let mut late = Vec::new();
        let mut started_in_time = 0u64;
        for op in logs.iter().flat_map(|l| &l.ops) {
            let (lat, lateness) = stats::open_loop_times(op.due, op.start, op.done);
            latency.push(lat);
            late.push(lateness);
            started_in_time += u64::from(op.start < section_ns);
        }
        let backlog = (1.0 - started_in_time as f64 / scheduled as f64).max(0.0);
        let p50 = pct_us(&mut latency, 50.0);
        let p99 = pct_us(&mut latency, 99.0);
        let ok = p99 <= spec::OPEN_LIMIT_US && backlog < 0.01;
        all_met &= ok;
        if all_met {
            max_ok = r;
        }
        out.note(format!(
            "open loop at {r}/s: p50 {p50:.0} us, p99 {p99:.0} us from due ({} samples), \
             generator late p99 {:.0} us, {:.2} % still queued at the end — {}",
            latency.len(),
            pct_us(&mut late.clone(), 99.0),
            backlog * 100.0,
            if ok { "met" } else { "missed" }
        ));
        match label {
            "half" => l.set("open.p99_us_at_half_rate", p99),
            "1p5" => l.set("open.p99_us_at_1p5_rate", p99),
            _ => {
                l.set("open_p50_us", p50);
                l.set("open_p99_us", p99);
                l.set("open.late_p99_us", pct_us(&mut late, 99.0));
                l.set("open.backlog_frac", backlog);
            }
        }
    }
    l.set("max_rate_ok", max_ok as f64);
    Ok(())
}

/// The rest of a traced online run, after its untraced half.
pub fn online(run: &OnlineRun<'_>, base: &Base<'_>, out: &mut Outcome) -> Result<(), String> {
    let OnlineRun {
        w,
        o,
        seconds,
        db,
        inputs,
        work,
    } = *run;
    let mut l = Layers::new();

    // What the untraced half says beyond the six bounded metrics.
    let (mut wait, mut deliver) = wait_and_deliver(base.logs);
    l.set("wait_p50_us", pct_us(&mut wait, 50.0));
    l.set("wait_p99_us", pct_us(&mut wait, 99.0));
    l.set("deliver_p50_us", pct_us(&mut deliver, 50.0));
    l.set("deliver_p99_us", pct_us(&mut deliver, 99.0));
    out.note(format!(
        "untraced half: wait p50 {:.0} us p99 {:.0} us ({} samples), deliver p50 {:.0} us p99 {:.0} us ({} samples)",
        pct_us(&mut wait, 50.0),
        pct_us(&mut wait, 99.0),
        wait.len(),
        pct_us(&mut deliver, 50.0),
        pct_us(&mut deliver, 99.0),
        deliver.len()
    ));
    l.set("recovery_ms", base.recovery.median_ms);
    l.set("disk_bytes_per_submit", base.written_per_submit);
    l.set("proc.cpu_us_per_op", base.cpu_us_per_op);
    l.set("store.snapshots", base.counters.snapshots_taken as f64);

    // The traced half: the same arrivals through a second engine whose
    // registry records, over a second copy of the table (a database
    // keeps the first registry it is attached to).
    let t = Instant::now();
    let traced_db = online::build_db(o.body);
    l.set(
        "db.insert_rows_per_s",
        traced_db.rows() as f64 / t.elapsed().as_secs_f64(),
    );
    let dir = work.fresh("traced")?;
    let (engine, _) = online::set_up(o, &traced_db, inputs, &dir, Some(1 << 21))?;
    let db0 = traced_db.counters();
    let before = engine.counters();
    let (logs, wall_s) = online::timed_section(&engine, o, &inputs.timed, seconds as f64 / 2.0);
    let pending = engine.pending_names();
    out.fail_each(online::check_logs(inputs, &logs, o.body, &pending));
    let traced_n = logs.iter().map(|l| l.ops.len()).sum::<usize>().max(1) as f64;
    let dbc = traced_db.counters().since(db0);
    let after = engine.counters();
    let obs = engine.obs_report();
    drop(engine);

    l.set(
        "obs.overhead_frac",
        (section_submit_ns(&logs) - base.per_submit_ns) / base.per_submit_ns,
    );
    l.set("obs.ring_dropped", obs.ring_dropped as f64);
    l.set("obs.complete_traces", obs.complete_traces as f64);
    for (phase, frac) in &obs.phase_frac {
        l.set(&format!("obs.phase.{phase}_frac"), *frac);
    }
    let lookups = obs.memo_hits + obs.memo_misses;
    l.set(
        "memo.hit_rate",
        obs.memo_hits as f64 / lookups.max(1) as f64,
    );
    l.set(
        "memo.evictions_per_submit",
        obs.memo_evictions as f64 / traced_n,
    );
    l.set(
        "wal.syncs_per_submit",
        obs.wal_syncs as f64 / (traced_n + inputs.warm.len() as f64),
    );
    l.set(
        "store.rotation_mean_ms",
        obs.rotation_sum_ns as f64 / obs.rotations.max(1) as f64 / 1e6,
    );
    l.set(
        "store.rotation_stall_frac",
        obs.rotation_sum_ns as f64 / (wall_s * 1e9),
    );
    l.set_db(dbc, traced_n);
    let submit_ns: f64 = logs
        .iter()
        .flat_map(|l| &l.ops)
        .map(|o| (o.done - o.parsed) as f64)
        .sum();
    l.set(
        "sharded.lock_wait_frac",
        (after.lock_wait_nanos - before.lock_wait_nanos) as f64 / submit_ns.max(1.0),
    );
    l.set(
        "store.wal_bytes_per_submit",
        (after.bytes_appended - before.bytes_appended) as f64 / traced_n,
    );
    l.set(
        "sharded.contended",
        (after.contended - before.contended) as f64,
    );
    l.set(
        "sharded.migrations",
        (after.migrations - before.migrations) as f64,
    );
    l.set(
        "sharded.backoffs",
        (after.migration_backoffs - before.migration_backoffs) as f64,
    );
    out.note(format!(
        "traced half: {traced_n} submits, {} complete traces, phases {}",
        obs.complete_traces,
        obs.phase_frac
            .iter()
            .map(|(p, f)| format!("{p} {:.1} %", f * 100.0))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    write_spans(&mut l, w, &online_spans(&logs), out);
    drop(logs);
    drop(traced_db);

    let sample = ladder(&mut l, run, base, out)?;
    probe_kit(&mut l, db, &sample[..sample.len().min(4096)], work)?;
    if let Some(rate) = o.open_rate {
        open_rates(&mut l, run, rate, out)?;
    }
    l.finish(out);
    Ok(())
}

fn median_ms(unit_ns: &[u64]) -> f64 {
    let mut v = unit_ns.to_vec();
    pct_us(&mut v, 50.0) / 1e3
}

/// What a traced batch run measured while it was timed.
pub struct BatchRun<'a> {
    pub w: &'a Workload,
    pub db: &'a Db,
    pub spans: &'a Spans,
    pub unit_ns: &'a [u64],
    pub cpu_us_per_op: f64,
}

pub fn batch_scc(
    run: &BatchRun<'_>,
    list: &[Query],
    scale_free: &[Query],
    work: &WorkDir,
    out: &mut Outcome,
) -> Result<(), String> {
    let BatchRun {
        w,
        db,
        spans,
        unit_ns,
        cpu_us_per_op,
    } = *run;
    let mut l = Layers::new();
    l.set("proc.cpu_us_per_op", cpu_us_per_op);
    let units = unit_ns.len().max(1) as f64;
    let queries = (list.len() + scale_free.len()) as f64;
    l.set("batch_ms", median_ms(unit_ns));
    l.set(
        "parse.ns_per_query",
        spans.total_ns("parse") as f64 / units / queries,
    );
    l.set(
        "ladder.r1_parse_ns",
        spans.total_ns("parse") as f64 / units / queries,
    );
    l.set(
        "scc.preprocess_ms",
        spans.total_ns("preprocess") as f64 / units / 1e6,
    );
    l.set("scc.sweep_ms", spans.total_ns("sweep") as f64 / units / 1e6);
    l.set(
        "scc.list300_ms",
        spans.total_ns("list") as f64 / units / 1e6,
    );
    l.set(
        "scc.sf2000_ms",
        spans.total_ns("scale_free") as f64 / units / 1e6,
    );

    let db0 = db.counters();
    let t = Instant::now();
    let a = sut::scc_run_parallel(db, list, 2)?.counts();
    let b = sut::scc_run_parallel(db, scale_free, 2)?.counts();
    l.set("scc.parallel2_ms", t.elapsed().as_secs_f64() * 1e3);
    let dbc = db.counters().since(db0);
    l.set("scc.db_queries", (a.db_queries + b.db_queries) as f64);
    l.set("scc.unify_calls", (a.unify_calls + b.unify_calls) as f64);
    l.set("scc.ground_work", (a.ground_work + b.ground_work) as f64);
    l.set(
        "unify.calls_per_submit",
        (a.unify_calls + b.unify_calls) as f64 / queries,
    );
    l.set_db(dbc, queries);

    let t = Instant::now();
    let copy = batch::pool_db();
    l.set(
        "db.insert_rows_per_s",
        copy.rows() as f64 / t.elapsed().as_secs_f64(),
    );
    drop(copy);

    probe_kit(&mut l, db, scale_free, work)?;
    write_spans(&mut l, w, spans, out);
    l.finish(out);
    Ok(())
}

pub fn batch_consistent(
    run: &BatchRun<'_>,
    batch: &ConsistentBatch,
    instance: &Consistent<'_>,
    result: &ConsistentResult,
    out: &mut Outcome,
) -> Result<(), String> {
    let BatchRun {
        w,
        db,
        spans,
        unit_ns,
        cpu_us_per_op,
    } = *run;
    let mut l = Layers::new();
    l.set("proc.cpu_us_per_op", cpu_us_per_op);
    let (users, values) = (batch.users as f64, batch.values);
    l.set("batch_ms", median_ms(unit_ns));
    l.set(
        "consistent.ms_per_value",
        median_ms(unit_ns) / values.max(1) as f64,
    );
    l.set(
        "consistent.values_considered",
        result.values_considered as f64,
    );
    l.set("consistent.db_queries", result.db_queries as f64);

    let db0 = db.counters();
    let t = Instant::now();
    let parallel = instance.run_parallel(2)?;
    l.set("consistent.parallel2_ms", t.elapsed().as_secs_f64() * 1e3);
    if parallel != *result {
        out.fail(1, "run_parallel(2) and run disagree");
    }
    let dbc = db.counters().since(db0);
    l.set_db(dbc, users.max(1.0));
    let load_ns = time_ns(|| {
        black_box(batch::consistent_db(batch));
    });
    l.set("db.insert_rows_per_s", db.rows() as f64 / (load_ns / 1e9));
    write_spans(&mut l, w, spans, out);
    l.finish(out);
    Ok(())
}
