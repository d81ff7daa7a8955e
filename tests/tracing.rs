//! Request-scoped tracing acceptance tests: trace-id propagation from a
//! submit through every layer it touches (evaluation, migrations, WAL
//! append/sync), fresh ids for rebalance passes, orphaned-end
//! accounting when the ring overwrites a span's begin, the slow-query
//! flight recorder's retention guarantee, and the books-balance
//! property — per-phase nanos never exceed the root span's wall nanos.

use proptest::prelude::*;
use social_coordination::core::engine::{Placement, RebalanceConfig, SharedEngine};
use social_coordination::core::persist::DurableSharedEngine;
use social_coordination::gen::workloads::{fig4_queries, partner_query, pool_db};
use social_coordination::obs::{Registry, TraceAnalyzer, TraceEvent, TracePhase};
use social_coordination::store::temp::TempDir;
use social_coordination::store::{DurabilityOptions, SyncPolicy};
use std::collections::BTreeSet;

fn begin_ids(events: &[TraceEvent], kind: &str) -> Vec<u64> {
    events
        .iter()
        .filter(|e| e.kind == kind && e.phase == TracePhase::Begin)
        .map(|e| e.trace_id)
        .collect()
}

/// Tentpole: one durable submit is one trace. Every evaluate span, WAL
/// append, and fsync the submit causes carries the submit's trace id —
/// none leak to id 0, none borrow another submit's id.
#[test]
fn durable_submit_attributes_every_layer_to_one_trace() {
    let db = pool_db(2_000);
    let dir = TempDir::new("tracing-propagation");
    let options = DurabilityOptions {
        sync: SyncPolicy::EveryRecord,
        snapshot_every: None,
    };
    let obs = Registry::new();
    let engine =
        DurableSharedEngine::open_with_obs(&db, dir.path(), 4, options, obs.clone()).unwrap();
    let n = 10;
    for q in fig4_queries(n) {
        engine.submit(q).unwrap();
    }

    let (events, dropped) = obs.tracer().events();
    assert_eq!(dropped, 0);
    // The durable entry point roots one trace per submit; the sharded
    // engine's nested submit span reuses it, so distinct ids == n.
    let submit_ids: BTreeSet<u64> = begin_ids(&events, "submit").into_iter().collect();
    assert!(!submit_ids.contains(&0), "a submit span lost its trace id");
    assert_eq!(submit_ids.len(), n, "one trace id per submitted request");

    for kind in ["evaluate", "wal_append", "wal_sync"] {
        let of_kind: Vec<&TraceEvent> = events.iter().filter(|e| e.kind == kind).collect();
        assert!(!of_kind.is_empty(), "no {kind} events recorded");
        for e in of_kind {
            assert!(
                submit_ids.contains(&e.trace_id),
                "{kind} event carries id {} which no submit allocated",
                e.trace_id
            );
        }
    }
}

/// A submit that merges components across shards migrates under the
/// submitting request's trace id — the migration is that request's
/// latency, not anonymous background work.
#[test]
fn submit_migrations_carry_the_submitting_request_id() {
    let db = pool_db(2_000);
    let obs = Registry::new();
    let engine = SharedEngine::with_obs(
        &db,
        2,
        Placement::RoundRobin,
        RebalanceConfig::default(),
        obs.clone(),
    );
    // Two unrelated pending components land on distinct shards under
    // round-robin placement…
    engine.submit(partner_query(0, &[1])).unwrap();
    engine.submit(partner_query(10, &[11])).unwrap();
    // …then one bridge query relates both (provides for user 1, wants
    // user 10), forcing a cross-shard merge during its submit.
    engine.submit(partner_query(1, &[10])).unwrap();

    let (events, dropped) = obs.tracer().events();
    assert_eq!(dropped, 0);
    let submits = begin_ids(&events, "submit");
    assert_eq!(submits.len(), 3);
    let bridge_id = submits[2];
    let migrates: Vec<&TraceEvent> = events
        .iter()
        .filter(|e| e.kind == "migrate" && e.phase == TracePhase::Begin)
        .collect();
    assert!(
        !migrates.is_empty(),
        "the bridge query must merge the two components across shards"
    );
    for m in migrates {
        assert_eq!(
            m.trace_id, bridge_id,
            "the merge migration belongs to the bridge submit's trace"
        );
    }
}

/// A rebalance pass is not a submit: it allocates its own fresh trace
/// id, and the group moves it performs carry that id.
#[test]
fn rebalance_pass_and_its_migrations_share_one_fresh_id() {
    let db = pool_db(2_000);
    let obs = Registry::new();
    let engine = SharedEngine::with_obs(
        &db,
        2,
        Placement::RoundRobin,
        RebalanceConfig {
            skew_threshold: 0.7,
            min_window_load: 8,
            max_moves: 4,
        },
        obs.clone(),
    );
    // Four waiting chains alternate onto the two shards; growing the
    // shard-0 chains long re-evaluates their whole component on every
    // link, skewing shard 0's observed load.
    for g in 0..4 {
        let base = 100 * g;
        engine.submit(partner_query(base, &[base + 1])).unwrap();
    }
    for g in [0usize, 2] {
        let base = 100 * g;
        for i in 1..8 {
            engine
                .submit(partner_query(base + i, &[base + i + 1]))
                .unwrap();
        }
    }
    let report = engine.rebalance();
    assert!(report.triggered, "{report:?}");
    assert!(report.groups_moved >= 1, "{report:?}");

    let (events, _) = obs.tracer().events();
    let submit_ids: BTreeSet<u64> = begin_ids(&events, "submit").into_iter().collect();
    let rebalance_ids = begin_ids(&events, "rebalance");
    assert_eq!(rebalance_ids.len(), 1);
    let pass_id = rebalance_ids[0];
    assert_ne!(pass_id, 0, "rebalance pass must allocate a trace id");
    assert!(
        !submit_ids.contains(&pass_id),
        "rebalance pass reused a submit's id"
    );
    let moved_under_pass = events
        .iter()
        .filter(|e| e.kind == "migrate" && e.trace_id == pass_id)
        .count();
    assert!(
        moved_under_pass > 0,
        "the pass's migrations must carry the pass's trace id"
    );
}

/// Ring-overflow regression: when a long span's begin is overwritten,
/// its end is counted as orphaned — in the dump meta line and by the
/// analyzer — rather than silently skewing the breakdown.
#[test]
fn overflowed_ring_counts_orphaned_ends() {
    let registry = Registry::with_trace_capacity(8);
    let tracer = registry.tracer();
    let ctx = tracer.alloc_ctx();
    let span = tracer.begin_in(ctx, "submit");
    for i in 0..32 {
        // Eight instants evict the begin; the rest keep the ring
        // churning the way a busy engine would.
        tracer.instant_in(ctx, "db_probe", i);
    }
    drop(span);

    let (events, dropped) = tracer.events();
    assert!(dropped > 0, "the 8-slot ring must have overflowed");
    let meta = tracer.dump_json_lines();
    assert!(
        meta.lines().next().unwrap().contains("\"orphaned_ends\":1"),
        "meta line must report the orphan: {}",
        meta.lines().next().unwrap()
    );
    let analyzer = TraceAnalyzer::from_events(&events, dropped);
    assert_eq!(analyzer.orphaned_ends, 1);
    let t = analyzer.trace(ctx.0).expect("the trace was reconstructed");
    assert_eq!(t.orphaned_ends, 1);
    assert!(
        !t.complete,
        "a trace whose root begin was overwritten is not complete"
    );
}

/// Acceptance: every trace whose root span tops the threshold survives
/// a run that overflows the ring many times over — the flight recorder
/// copies the trace out at root-span end, before overwrite can reach it.
#[test]
fn slow_query_log_retains_every_slow_trace_across_ring_overflow() {
    let db = pool_db(2_000);
    let obs = Registry::with_trace_capacity(64);
    // Threshold 1ns: every submit qualifies as slow, so retention is
    // exact and assertable.
    obs.set_slow_query_log(1, 256);
    let dir = TempDir::new("tracing-slowlog");
    let options = DurabilityOptions {
        sync: SyncPolicy::EveryRecord,
        snapshot_every: Some(16),
    };
    let engine =
        DurableSharedEngine::open_with_obs(&db, dir.path(), 4, options, obs.clone()).unwrap();
    let n = 40u64;
    for q in fig4_queries(n as usize) {
        engine.submit(q).unwrap();
    }

    let (_, ring_dropped) = obs.tracer().events();
    assert!(ring_dropped > 0, "the 64-event ring must overflow");
    let (recorded, discarded) = obs.tracer().slow_trace_counts();
    assert_eq!(recorded, n, "every slow trace must be retained");
    assert_eq!(discarded, 0, "capacity 256 must not evict any of them");
    let slow = obs.tracer().slow_traces();
    assert_eq!(slow.len(), n as usize);
    let ids: BTreeSet<u64> = slow.iter().map(|s| s.trace_id).collect();
    assert_eq!(ids.len(), n as usize, "one entry per trace, no duplicates");
    for s in &slow {
        assert_eq!(s.root_kind, "submit");
        assert!(s.root_nanos >= 1);
        assert!(!s.events.is_empty(), "captured trace carries its events");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Books-balance property: across random chain workloads, no
    /// reconstructed trace attributes more phase time than its root
    /// span's measured wall nanos — and complete traces balance
    /// exactly (`other` absorbs the residual).
    #[test]
    fn phase_sums_never_exceed_root_span_wall_nanos(
        chains in prop::collection::vec(2usize..=5, 1..=4),
        shards in 1usize..=4,
    ) {
        let db = pool_db(2_000);
        let obs = Registry::new();
        let engine = SharedEngine::with_obs(
            &db,
            shards,
            Placement::default(),
            RebalanceConfig::default(),
            obs.clone(),
        );
        let mut submitted = 0usize;
        for (c, len) in chains.iter().enumerate() {
            let base = 100 * c;
            for i in 0..*len {
                let partners: Vec<usize> =
                    if i + 1 < *len { vec![base + i + 1] } else { vec![] };
                engine.submit(partner_query(base + i, &partners)).unwrap();
                submitted += 1;
            }
        }

        let analyzer = TraceAnalyzer::from_tracer(&obs.tracer());
        prop_assert_eq!(analyzer.traces().len(), submitted);
        for t in analyzer.traces() {
            prop_assert!(t.complete, "default ring must hold the whole run");
            prop_assert_eq!(
                t.breakdown.phase_sum(),
                t.breakdown.critical_path_nanos,
                "trace {} does not balance",
                t.trace_id
            );
            for (name, nanos) in t.breakdown.phases() {
                prop_assert!(
                    nanos <= t.breakdown.critical_path_nanos,
                    "phase {} exceeds the root span on trace {}",
                    name,
                    t.trace_id
                );
            }
        }
    }
}
