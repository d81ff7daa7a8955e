//! Observability tour: run a small live durable workload and dump every
//! export surface of the `obs` registry — the JSON snapshot, the
//! Prometheus text rendering, the span-trace ring as JSON lines, the
//! per-trace latency breakdown report, and the slow-query flight
//! recorder.
//!
//! One registry is threaded through the whole stack
//! ([`DurableSharedEngine`] → WAL/snapshot store → sharded engine →
//! database), so a single `snapshot()` covers submit latency, WAL
//! append/sync timings, snapshot rotations, migrations, and database
//! probe counters — and every submit opens a request-scoped trace
//! ticket, so the ring attributes each event to the submit that caused
//! it.
//!
//! Run with: `cargo run --example obs_dump`

use social_coordination::core::persist::DurableSharedEngine;
use social_coordination::gen::workloads::{fig4_queries, pool_db, unsat_cycle_with_spokes};
use social_coordination::obs::{Registry, TraceAnalyzer};
use social_coordination::store::temp::TempDir;
use social_coordination::store::{DurabilityOptions, SyncPolicy};

fn main() {
    let db = pool_db(2_000);
    let dir = TempDir::new("obs-dump");
    let options = DurabilityOptions {
        sync: SyncPolicy::EveryRecord,
        snapshot_every: Some(16),
    };
    let obs = Registry::new();
    // Arm the flight recorder before the workload: any submit whose
    // root span tops 200µs is copied to the side buffer, surviving
    // later ring overwrites.
    obs.set_slow_query_log(200_000, 16);
    let engine = DurableSharedEngine::open_with_obs(&db, dir.path(), 4, options, obs).unwrap();

    // A list chain that coordinates in full on its last submit…
    for q in fig4_queries(40) {
        engine.submit(q).unwrap();
    }
    // …and an unsatisfiable contending cycle plus spokes: every spoke
    // re-probes the failed cycle, so `db_find_one` carries real traffic.
    let (cycle, spokes) = unsat_cycle_with_spokes(8, 6);
    for q in cycle.into_iter().chain(spokes) {
        engine.submit(q).unwrap();
    }

    println!("=== registry snapshot as JSON ===");
    println!("{}", engine.obs().snapshot().to_json());

    println!();
    println!("=== registry snapshot as Prometheus text ===");
    print!("{}", engine.obs().snapshot().to_prometheus());

    println!();
    println!("=== trace ring as JSON lines (last 20) ===");
    let dump = engine.obs().tracer().dump_json_lines();
    let lines: Vec<&str> = dump.lines().collect();
    // The first line is the meta record (event count + drops); keep it.
    println!("{}", lines[0]);
    for line in lines.iter().skip(1).rev().take(20).rev() {
        println!("{line}");
    }

    println!();
    println!("=== per-trace latency attribution (top 3 slowest) ===");
    let tracer = engine.obs().tracer();
    let analyzer = TraceAnalyzer::from_tracer(&tracer);
    println!("{}", analyzer.to_json(3));
    for t in analyzer.slowest(3) {
        let b = &t.breakdown;
        println!(
            "trace {}: {} ns critical path — evaluate {} ns, wal_sync {} ns, other {} ns",
            t.trace_id, b.critical_path_nanos, b.evaluate, b.wal_sync, b.other
        );
    }

    println!();
    println!("=== slow-query flight recorder (root span > 200µs) ===");
    let (recorded, discarded) = tracer.slow_trace_counts();
    println!("recorded {recorded} slow traces ({discarded} discarded past capacity)");
    for slow in tracer.slow_traces() {
        println!(
            "trace {}: root {} took {} ns, {} events retained",
            slow.trace_id,
            slow.root_kind,
            slow.root_nanos,
            slow.events.len()
        );
    }
}
