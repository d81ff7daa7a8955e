//! Acceptance and stress tests for the unified observability layer: one
//! live durable run reported from a single registry snapshot, the trace
//! ring replaying a submit's full span path, multi-threaded snapshot
//! monotonicity, the submit-histogram/counter agreement, and ring-buffer
//! overflow accounting.

use social_coordination::core::engine::{Placement, RebalanceConfig, SharedEngine};
use social_coordination::core::persist::DurableSharedEngine;
use social_coordination::gen::workloads::{
    fig4_queries, partner_query, pool_db, unsat_cycle_with_spokes,
};
use social_coordination::obs::{Registry, TracePhase};
use social_coordination::store::temp::TempDir;
use social_coordination::store::{DurabilityOptions, SyncPolicy};

/// The tentpole acceptance check: one `Registry::snapshot()` from one
/// live `DurableSharedEngine` run reports the submit-latency histogram,
/// WAL append/sync timings, snapshot rotations, and the database's
/// probe counters.
#[test]
fn one_snapshot_covers_the_whole_durable_stack() {
    let db = pool_db(2_000);
    let dir = TempDir::new("obs-acceptance");
    let options = DurabilityOptions {
        sync: SyncPolicy::EveryRecord,
        snapshot_every: Some(16),
    };
    let engine = DurableSharedEngine::open_with(&db, dir.path(), 4, options).unwrap();
    let n = 40;
    for q in fig4_queries(n) {
        engine.submit(q).unwrap();
    }
    let (cycle, spokes) = unsat_cycle_with_spokes(8, 6);
    let spoke_count = spokes.len() as u64;
    let extra = cycle.len() as u64 + spoke_count;
    for q in cycle.into_iter().chain(spokes) {
        engine.submit(q).unwrap();
    }

    let snap = engine.obs().snapshot();

    // Submit latency: every submit recorded, quantiles ordered.
    let submit = snap.histogram("engine_submit_nanos").unwrap();
    assert_eq!(submit.count, n as u64 + extra);
    assert!(submit.p50() <= submit.p99());
    assert!(submit.p99() <= submit.max);
    assert!(submit.sum > 0);

    // WAL timings: one append per accepted submit, and the EveryRecord
    // policy syncs each of them.
    let append = snap.histogram("wal_append_nanos").unwrap();
    assert_eq!(append.count, n as u64 + extra);
    let sync = snap.histogram("wal_sync_nanos").unwrap();
    assert_eq!(sync.count, n as u64 + extra);

    // Snapshot rotations happened (snapshot_every = 16 over 54 commits)
    // and were timed.
    let rotations = snap.counter("store_snapshots_taken").unwrap();
    assert!(rotations >= 2);
    let rotation = snap.histogram("snapshot_rotation_nanos").unwrap();
    assert_eq!(rotation.count, rotations);

    // The database's probe counters carry real traffic: no verdict is
    // kept between submits, so each spoke arrival re-probes the failed
    // cycle closure.
    assert!(snap.counter("db_find_one").unwrap() >= spoke_count);
    assert!(snap.counter("memo_hits").is_none());

    // Engine counters flowed into the same registry.
    assert_eq!(snap.counter("engine_submits").unwrap(), n as u64 + extra);
    assert_eq!(snap.counter("engine_delivered").unwrap(), n as u64);
    assert_eq!(snap.gauge("store_epoch").unwrap(), rotations);
}

/// The trace ring replays one submit's full span path through the
/// stack: submit begin → evaluate begin/end → submit end, then the
/// durable layer's wal_append begin/end before the next arrival.
#[test]
fn trace_ring_replays_a_submit_span_path() {
    let db = pool_db(500);
    let dir = TempDir::new("obs-trace");
    let engine =
        DurableSharedEngine::open_with(&db, dir.path(), 2, DurabilityOptions::default()).unwrap();
    for q in fig4_queries(5) {
        engine.submit(q).unwrap();
    }

    let (events, dropped) = engine.obs().tracer().events();
    assert_eq!(dropped, 0);
    // Sequence numbers are contiguous from zero.
    for (i, e) in events.iter().enumerate() {
        assert_eq!(e.seq, i as u64);
    }

    // Find a submit span and check the nested path inside it.
    let begin = events
        .iter()
        .position(|e| e.kind == "submit" && e.phase == TracePhase::Begin)
        .expect("a submit span begins");
    let end = events[begin..]
        .iter()
        .position(|e| e.kind == "submit" && e.phase == TracePhase::End)
        .map(|off| begin + off)
        .expect("the submit span ends");
    // Evaluation is nested inside the submit span…
    let inside = &events[begin..=end];
    let pos = |slice: &[social_coordination::obs::TraceEvent], kind: &str, phase: TracePhase| {
        slice
            .iter()
            .position(|e| e.kind == kind && e.phase == phase)
    };
    let eval_begin = pos(inside, "evaluate", TracePhase::Begin).expect("evaluate inside submit");
    let eval_end = pos(inside, "evaluate", TracePhase::End).expect("evaluate ends inside submit");
    assert!(eval_begin < eval_end);
    // …and the durable layer's WAL commit follows the span, before the
    // next arrival starts.
    let after = &events[end + 1..];
    let next_submit = pos(after, "submit", TracePhase::Begin).unwrap_or(after.len());
    let append_begin =
        pos(after, "wal_append", TracePhase::Begin).expect("wal_append follows the submit");
    let append_end =
        pos(after, "wal_append", TracePhase::End).expect("wal_append ends after the submit");
    assert!(append_begin < append_end);
    assert!(
        append_end < next_submit,
        "the WAL commit lands before the next submit begins"
    );

    // The same path renders as JSON lines with a meta header.
    let dump = engine.obs().tracer().dump_json_lines();
    let mut lines = dump.lines();
    let meta = lines.next().unwrap();
    assert!(meta.contains("\"dropped\":0"));
    assert!(dump.contains("\"kind\":\"submit\",\"phase\":\"begin\""));
    assert!(dump.contains("\"kind\":\"wal_append\""));
}

/// Satellite stress test: concurrent submitters and a snapshot reader.
/// Snapshots must be monotone (counters and histogram counts never go
/// backwards), the histogram count never overtakes the submit counter,
/// and at the end the two agree exactly.
#[test]
fn concurrent_snapshots_are_monotone_and_histogram_matches_submits() {
    const THREADS: usize = 4;
    const CHAINS_PER_THREAD: usize = 8;
    const CHAIN: usize = 6;

    let db = pool_db(2_000);
    let engine = SharedEngine::with_obs(
        &db,
        4,
        Placement::default(),
        RebalanceConfig::default(),
        Registry::new(),
    );
    let total = (THREADS * CHAINS_PER_THREAD * CHAIN) as u64;

    std::thread::scope(|s| {
        for t in 0..THREADS {
            let engine = &engine;
            s.spawn(move || {
                for c in 0..CHAINS_PER_THREAD {
                    // Disjoint user ranges per thread keep components local.
                    let base = (t * CHAINS_PER_THREAD + c) * CHAIN;
                    for i in 0..CHAIN {
                        let partners: Vec<usize> = if i + 1 < CHAIN {
                            vec![base + i + 1]
                        } else {
                            vec![]
                        };
                        engine.submit(partner_query(base + i, &partners)).unwrap();
                    }
                }
            });
        }
        // Reader: counters and histogram totals move forward only.
        let engine = &engine;
        s.spawn(move || {
            let mut last_submits = 0u64;
            let mut last_hist = 0u64;
            for _ in 0..200 {
                let snap = engine.obs().snapshot();
                let submits = snap.counter("engine_submits").unwrap_or(0);
                let hist = snap.histogram("engine_submit_nanos").map_or(0, |h| h.count);
                assert!(submits >= last_submits, "submit counter went backwards");
                assert!(hist >= last_hist, "histogram count went backwards");
                assert!(
                    hist <= submits,
                    "histogram recorded a submit the counter has not seen"
                );
                last_submits = submits;
                last_hist = hist;
                std::thread::yield_now();
            }
        });
    });

    let snap = engine.obs().snapshot();
    assert_eq!(snap.counter("engine_submits").unwrap(), total);
    assert_eq!(
        snap.histogram("engine_submit_nanos").unwrap().count,
        total,
        "every submit must be recorded exactly once"
    );
    // Every chain coordinates when its tail arrives.
    assert_eq!(
        snap.counter("engine_delivered").unwrap(),
        total,
        "all chains coordinate"
    );
}

/// Satellite stress test: a ring smaller than the event stream counts
/// every drop and keeps the newest events with contiguous sequence
/// numbers.
#[test]
fn trace_ring_overflow_counts_drops_and_keeps_the_tail() {
    const CAPACITY: usize = 32;
    const EMITTED: u64 = 1000;
    let registry = Registry::with_trace_capacity(CAPACITY);
    let tracer = registry.tracer();
    for i in 0..EMITTED {
        tracer.instant("tick", i);
    }
    let (events, dropped) = tracer.events();
    assert_eq!(events.len(), CAPACITY);
    assert_eq!(dropped, EMITTED - CAPACITY as u64);
    // The survivors are exactly the newest events, in order.
    for (i, e) in events.iter().enumerate() {
        assert_eq!(e.seq, EMITTED - CAPACITY as u64 + i as u64);
        assert_eq!(e.arg, e.seq);
    }
    let dump = tracer.dump_json_lines();
    assert!(dump
        .lines()
        .next()
        .unwrap()
        .contains(&format!("\"dropped\":{}", EMITTED - CAPACITY as u64)));
}

/// Satellite: the per-shard `shard_pending_<i>` gauges and the
/// `engine_inflight` gauge are registered by construction, track live
/// state, and show up in both exporters.
#[test]
fn shard_pending_and_inflight_gauges_track_live_state() {
    let db = pool_db(2_000);
    let shards = 4;
    let engine = SharedEngine::with_obs(
        &db,
        shards,
        Placement::default(),
        RebalanceConfig::default(),
        Registry::new(),
    );
    // A full chain coordinates, retires, and leaves nothing behind…
    for q in fig4_queries(10) {
        engine.submit(q).unwrap();
    }
    // …while an unsatisfiable cycle plus spokes stays pending forever.
    let (cycle, spokes) = unsat_cycle_with_spokes(8, 6);
    for q in cycle.into_iter().chain(spokes) {
        engine.submit(q).unwrap();
    }

    let snap = engine.obs().snapshot();
    let pending_total: u64 = (0..shards)
        .map(|i| {
            snap.gauge(&format!("shard_pending_{i}"))
                .expect("per-shard gauge registered at construction")
        })
        .sum();
    assert_eq!(
        pending_total as usize,
        engine.pending_count(),
        "shard_pending gauges must sum to the live pending count"
    );
    assert!(pending_total > 0, "the unsat cycle stays pending");
    assert_eq!(
        snap.gauge("engine_inflight").unwrap(),
        0,
        "no submit is in flight after all submits returned"
    );

    // Both exporters carry the gauges.
    let json = snap.to_json();
    let prom = snap.to_prometheus();
    for name in ["shard_pending_0", "engine_inflight"] {
        assert!(json.contains(name), "JSON exporter missing {name}");
        assert!(prom.contains(name), "Prometheus exporter missing {name}");
    }
}

/// A disabled registry records nothing and exports nothing, and the
/// engine runs fine on top of it.
#[test]
fn disabled_registry_records_nothing() {
    let db = pool_db(500);
    let engine = SharedEngine::with_obs(
        &db,
        2,
        Placement::default(),
        RebalanceConfig::default(),
        Registry::disabled(),
    );
    for q in fig4_queries(8) {
        engine.submit(q).unwrap();
    }
    assert_eq!(engine.delivered(), 8);
    let snap = engine.obs().snapshot();
    assert!(snap.counter("engine_submits").is_none());
    assert!(snap.histogram("engine_submit_nanos").is_none());
    let (events, dropped) = engine.obs().tracer().events();
    assert!(events.is_empty());
    assert_eq!(dropped, 0);
    // The always-live metrics accessors still work.
    assert_eq!(engine.metrics().submits, 8);
}
