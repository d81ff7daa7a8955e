//! Regenerate every figure of the paper's Section 6 evaluation as text
//! series (the data recorded in EXPERIMENTS.md).
//!
//! Usage: `cargo run --release -p coord-bench --bin reproduce
//! [--quick] [--json] [--only <section>]`
//!
//! `--quick` shrinks repetition counts for a fast smoke run. `--json`
//! emits every series as one machine-readable JSON array on stdout
//! instead of the aligned text tables. `--only <section>` runs a single
//! section (`fig4` … `fig8`, `hardness`, `shard_skew`, `differential`,
//! `trace`, `storage`) — CI uses `--only shard_skew --json`, `--only
//! differential --json`, `--only trace --json`, and `--only storage
//! --json` to emit the `BENCH_shard_skew.json`,
//! `BENCH_differential.json`, `BENCH_trace.json`, and
//! `BENCH_storage.json` trajectory artifacts.

use coord_bench::{drive_phase1, measure, series_to_json, storage, Series};
use coord_core::bruteforce;
use coord_core::consistent::ConsistentCoordinator;
use coord_core::engine::{Placement, RebalanceConfig, SharedEngine};
use coord_core::persist::DurableSharedEngine;
use coord_core::scc::{preprocess, SccCoordinator};
use coord_gen::social::SLASHDOT_ROWS;
use coord_gen::workloads::{
    fig4_queries, fig5_queries, fig7_instance, fig8_instance, pool_db, unsat_cycle_with_spokes,
    zipf_chain_workload,
};
use coord_sat::{dpll_solve, random_3sat, reduction1};
use coord_store::temp::TempDir;
use coord_store::{DurabilityOptions, SyncPolicy};
use rand::prelude::*;

/// Collects every measured series; prints tables as it goes unless the
/// run asked for JSON, in which case one array is emitted at the end.
struct Report {
    json: bool,
    only: Option<String>,
    series: Vec<Series>,
}

impl Report {
    /// Whether `--only` (if given) selects this section.
    fn wants(&self, section: &str) -> bool {
        self.only.as_deref().is_none_or(|only| only == section)
    }

    fn add(&mut self, series: Series) {
        if !self.json {
            print!("{}", series.to_table());
        }
        self.series.push(series);
    }

    /// A commentary line (slope, paper expectation); suppressed in JSON
    /// mode to keep stdout parseable.
    fn note(&self, msg: std::fmt::Arguments<'_>) {
        if !self.json {
            println!("{msg}");
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let json = args.iter().any(|a| a == "--json");
    let only = args
        .iter()
        .position(|a| a == "--only")
        .and_then(|i| args.get(i + 1).cloned());
    const SECTIONS: &[&str] = &[
        "fig4",
        "fig5",
        "fig6",
        "fig7",
        "fig8",
        "hardness",
        "shard_skew",
        "differential",
        "trace",
        "storage",
    ];
    if let Some(section) = &only {
        // A typo must fail loudly, not upload an empty artifact.
        if !SECTIONS.contains(&section.as_str()) {
            eprintln!("unknown --only section `{section}`; expected one of {SECTIONS:?}");
            std::process::exit(2);
        }
    }
    let runs: u32 = if quick { 2 } else { 10 };

    let mut report = Report {
        json,
        only,
        series: Vec::new(),
    };
    report.note(format_args!(
        "Reproducing the evaluation of \"The Complexity of Social Coordination\"\n\
         (VLDB 2012). One table per paper figure; times are means over {runs} runs.\n"
    ));

    if report.wants("fig4") {
        fig4(runs, quick, &mut report);
    }
    if report.wants("fig5") {
        fig5(runs, quick, &mut report);
    }
    if report.wants("fig6") {
        fig6(if quick { 1 } else { 3 }, quick, &mut report);
    }
    if report.wants("fig7") {
        fig7(runs, quick, &mut report);
    }
    if report.wants("fig8") {
        fig8(runs, quick, &mut report);
    }
    if report.wants("hardness") {
        hardness(quick, &mut report);
    }
    if report.wants("shard_skew") {
        shard_skew(quick, &mut report);
    }
    if report.wants("differential") {
        differential(quick, &mut report);
    }
    if report.wants("trace") {
        trace(quick, &mut report);
    }
    if report.wants("storage") {
        storage(quick, &mut report);
    }

    if json {
        println!("{}", series_to_json(&report.series));
    }
}

/// Figure 4: SCC algorithm, list structure, Slashdot-sized pool.
fn fig4(runs: u32, quick: bool, report: &mut Report) {
    let rows = if quick { 5_000 } else { SLASHDOT_ROWS };
    let db = pool_db(rows);
    let mut series = Series::new(format!(
        "Figure 4 — SCC algorithm, list structure ({rows}-row table)"
    ));
    for n in [10, 20, 40, 60, 80, 100] {
        let queries = fig4_queries(n);
        let d = measure(runs, || {
            let out = SccCoordinator::new(&db).run(&queries).unwrap();
            assert_eq!(out.best().unwrap().len(), n);
        });
        series.push(n as u64, d.as_secs_f64() * 1e3, runs);
    }
    let slope = series.slope();
    report.add(series);
    report.note(format_args!(
        "slope ≈ {slope:.4} ms/query (paper: linear growth)\n"
    ));
}

/// Figure 5: SCC algorithm, scale-free structure, averaged over 10 seeds.
fn fig5(runs: u32, quick: bool, report: &mut Report) {
    let rows = if quick { 5_000 } else { SLASHDOT_ROWS };
    let db = pool_db(rows);
    let mut series = Series::new(format!(
        "Figure 5 — SCC algorithm, scale-free structure ({rows}-row table, 10 seeds)"
    ));
    for n in [10, 20, 40, 60, 80, 100] {
        let workloads: Vec<_> = (0..10u64)
            .map(|seed| fig5_queries(n, 2, &mut StdRng::seed_from_u64(seed)))
            .collect();
        let d = measure(runs, || {
            for queries in &workloads {
                let out = SccCoordinator::new(&db).run(queries).unwrap();
                assert!(out.best().is_some());
            }
        });
        // Report the per-graph mean, matching the paper's averaging.
        series.push(n as u64, d.as_secs_f64() * 1e3 / 10.0, runs * 10);
    }
    let slope = series.slope();
    report.add(series);
    report.note(format_args!(
        "slope ≈ {slope:.4} ms/query (paper: linear, faster than Figure 4)\n"
    ));
}

/// Figure 6: graph construction + preprocessing only, 100–1000 queries.
fn fig6(runs: u32, quick: bool, report: &mut Report) {
    let db = pool_db(1_000);
    let sizes: &[usize] = if quick {
        &[100, 400, 1000]
    } else {
        &[100, 200, 400, 600, 800, 1000]
    };
    let mut series = Series::new("Figure 6 — graph processing time, scale-free (10 seeds)");
    for &n in sizes {
        let workloads: Vec<_> = (0..10u64)
            .map(|seed| fig5_queries(n, 2, &mut StdRng::seed_from_u64(seed)))
            .collect();
        let d = measure(runs, || {
            for queries in &workloads {
                let pre = preprocess(&db, queries).unwrap();
                assert!(!pre.cond.is_empty());
            }
        });
        series.push(n as u64, d.as_secs_f64() * 1e3 / 10.0, runs * 10);
    }
    report.add(series);
    report.note(format_args!("(paper: negligible, grows very slowly)\n"));
}

/// Figure 7: Consistent algorithm vs number of option values.
fn fig7(runs: u32, quick: bool, report: &mut Report) {
    let sizes: &[usize] = if quick {
        &[100, 400, 1000]
    } else {
        &[100, 200, 400, 600, 800, 1000]
    };
    let mut series =
        Series::new("Figure 7 — Consistent algorithm vs #values (50 queries, complete friends)");
    for &rows in sizes {
        let (db, config, queries) = fig7_instance(50, rows);
        let coordinator = ConsistentCoordinator::new(&db, config).unwrap();
        let d = measure(runs, || {
            let out = coordinator.run(&queries).unwrap();
            assert_eq!(out.stats.values_considered, rows);
        });
        series.push(rows as u64, d.as_secs_f64() * 1e3, runs);
    }
    let slope = series.slope();
    report.add(series);
    report.note(format_args!(
        "slope ≈ {slope:.4} ms/value (paper: linear growth)\n"
    ));
}

/// Figure 8: Consistent algorithm vs number of queries.
fn fig8(runs: u32, quick: bool, report: &mut Report) {
    let sizes: &[usize] = if quick {
        &[10, 50, 100]
    } else {
        &[10, 20, 40, 60, 80, 100]
    };
    let mut series =
        Series::new("Figure 8 — Consistent algorithm vs #queries (100-tuple flights table)");
    for &n in sizes {
        let (db, config, queries) = fig8_instance(n, 100);
        let coordinator = ConsistentCoordinator::new(&db, config).unwrap();
        let d = measure(runs, || {
            let out = coordinator.run(&queries).unwrap();
            assert_eq!(out.best.as_ref().map(|s| s.members.len()), Some(n));
        });
        series.push(n as u64, d.as_secs_f64() * 1e3, runs);
    }
    let slope = series.slope();
    report.add(series);
    report.note(format_args!(
        "slope ≈ {slope:.4} ms/query (paper: linear growth)\n"
    ));
}

/// Section 3 (extra experiment): the hardness separation — DPLL vs
/// exhaustive entangled search on the Theorem 1 reduction.
fn hardness(quick: bool, report: &mut Report) {
    let max_vars = if quick { 3 } else { 5 };
    let mut dpll_series = Series::new("Hardness — DPLL on random 3SAT");
    let mut bf_series =
        Series::new("Hardness — brute-force entangled search on the Theorem 1 reduction");
    for n_vars in 2..=max_vars {
        let formulas: Vec<_> = (0..4u64)
            .map(|seed| random_3sat(n_vars, n_vars + 1, &mut StdRng::seed_from_u64(seed)))
            .collect();
        let d1 = measure(3, || {
            formulas.iter().filter(|f| dpll_solve(f).is_some()).count()
        });
        dpll_series.push(n_vars as u64, d1.as_secs_f64() * 1e3 / 4.0, 12);

        let reductions: Vec<_> = formulas.iter().map(reduction1::reduce).collect();
        let agreement: Vec<bool> = formulas
            .iter()
            .zip(&reductions)
            .map(|(f, r)| {
                let sat = dpll_solve(f).is_some();
                let ent = bruteforce::any_coordinating_set(&r.db, &r.queries)
                    .unwrap()
                    .best
                    .is_some();
                sat == ent
            })
            .collect();
        assert!(
            agreement.iter().all(|&a| a),
            "reduction must agree with DPLL"
        );
        let d2 = measure(3, || {
            reductions
                .iter()
                .filter(|r| {
                    bruteforce::any_coordinating_set(&r.db, &r.queries)
                        .unwrap()
                        .best
                        .is_some()
                })
                .count()
        });
        bf_series.push(n_vars as u64, d2.as_secs_f64() * 1e3 / 4.0, 12);
    }
    report.add(dpll_series);
    report.add(bf_series);
    report.note(format_args!(
        "(Theorem 1: the entangled side grows exponentially; DPLL stays flat)"
    ));
}

/// Extra experiment (engine scaling): shard skew under a Zipf keystone
/// workload — the hottest shard's share of evaluation work over the
/// steady-state second half of phase 1, size-blind round-robin
/// placement vs the adaptive rebalancer. Values are percentages (the
/// balanced share on 4 shards is 25%), so the series doubles as the
/// perf-trajectory record the CI `BENCH_shard_skew.json` step captures.
fn shard_skew(quick: bool, report: &mut Report) {
    const SHARDS: usize = 4;
    const REBALANCE_EVERY: usize = 32;
    let cases: &[(usize, usize)] = if quick {
        &[(48, 24)]
    } else {
        &[(32, 16), (48, 24), (96, 40)]
    };
    let config = RebalanceConfig {
        skew_threshold: 0.3,
        min_window_load: 24,
        max_moves: 8,
    };
    let mut baseline_series = Series::new(format!(
        "Shard skew — hottest-shard eval share %, round-robin baseline ({SHARDS} shards)"
    ));
    let mut rebalanced_series = Series::new(format!(
        "Shard skew — hottest-shard eval share %, with rebalancer ({SHARDS} shards)"
    ));
    for &(groups, k) in cases {
        let db = pool_db(100 * groups + k + 2);
        let w = zipf_chain_workload(groups, k, 42);
        let n = w.phase1.len();
        // Same driver as the `shard_skew` bench gate, so the trajectory
        // figure and the CI assertion cannot drift apart.
        let run = |rebalance_every: Option<usize>| -> f64 {
            let engine = SharedEngine::with_config(&db, SHARDS, Placement::RoundRobin, config);
            100.0 * drive_phase1(&engine, &w.phase1, rebalance_every).hottest_share
        };
        baseline_series.push(n as u64, run(None), 1);
        rebalanced_series.push(n as u64, run(Some(REBALANCE_EVERY)), 1);
    }
    report.add(baseline_series);
    report.add(rebalanced_series);
    report.note(format_args!(
        "(adaptive rebalancing: lower is better; {:.0}% is perfectly balanced)",
        100.0 / SHARDS as f64
    ));
}

/// Extra experiment (differential closure evaluation): grounding-work
/// operations vs n on the list workload, memoized delta joins vs
/// from-scratch re-evaluation. From-scratch pays Σ|closure| ≈ n²/2;
/// differential pays ~2n − 1. Counter-based (deterministic on a 1-CPU
/// runner), asserted while measuring, and emitted as the CI
/// `BENCH_differential.json` trajectory artifact.
fn differential(quick: bool, report: &mut Report) {
    let db = pool_db(1_000);
    let sizes: &[usize] = if quick {
        &[20, 60, 100]
    } else {
        &[10, 20, 40, 60, 80, 100]
    };
    let mut diff_series =
        Series::new("Differential — grounding work on the list workload, memoized delta joins");
    let mut scratch_series =
        Series::new("Differential — grounding work on the list workload, from-scratch baseline");
    let work_at = |n: usize, scratch: bool| -> u64 {
        let coordinator = SccCoordinator::new(&db);
        let coordinator = if scratch {
            coordinator.with_from_scratch_evaluation()
        } else {
            coordinator
        };
        let out = coordinator.run(&fig4_queries(n)).unwrap();
        // Both evaluation modes must produce byte-identical answers.
        assert_eq!(out.found.len(), n);
        assert_eq!(out.best().unwrap().len(), n);
        out.stats.ground_work
    };
    let mut last = (0u64, 0u64);
    for &n in sizes {
        let diff = work_at(n, false);
        let scratch = work_at(n, true);
        diff_series.push(n as u64, diff as f64, 1);
        scratch_series.push(n as u64, scratch as f64, 1);
        last = (diff, scratch);
    }
    // The same gate the ablation bench asserts: ≥ 10× saving at n = 100.
    let (diff, scratch) = last;
    assert!(
        diff * 10 <= scratch,
        "differential grounding work {diff} not ≥ 10× below from-scratch {scratch}"
    );
    report.add(diff_series);
    report.add(scratch_series);
    report.note(format_args!(
        "(differential evaluation: ~2n−1 operations vs Σ|closure| ≈ n²/2 from scratch; \
         {:.1}× saving at n = {})",
        scratch as f64 / diff as f64,
        sizes.last().unwrap(),
    ));
}

/// Extra experiment (request-scoped tracing): contending submitter
/// threads drive the unsat-cycle-with-spokes workload into one durable
/// engine while every layer stamps its trace-ring events with the
/// submitting request's trace id; `TraceAnalyzer` then attributes each
/// request's wall time across lock-wait / evaluate / db-probe /
/// wal-append / wal-sync / other. Emitted as the CI `BENCH_trace.json`
/// artifact, asserting while measuring that the books balance — every
/// complete trace's phase sum equals its root span's wall nanos, and
/// never exceeds it — and that a deliberately ring-overflowing sub-run
/// still retains every over-threshold trace in the slow-query log.
fn trace(quick: bool, report: &mut Report) {
    use coord_obs::{Registry as ObsRegistry, TraceAnalyzer, PHASES};

    let rows = if quick { 2_000 } else { 5_000 };
    let cycle_len = if quick { 6 } else { 8 };
    let spoke_count = if quick { 24 } else { 60 };
    const THREADS: usize = 4;

    let db = pool_db(rows);
    let dir = TempDir::new("reproduce-trace");
    let options = DurabilityOptions {
        sync: SyncPolicy::EveryRecord,
        snapshot_every: Some(64),
    };
    let obs = ObsRegistry::new();
    let engine =
        DurableSharedEngine::open_with_obs(&db, dir.path(), 4, options, obs.clone()).unwrap();

    // The unsatisfiable cycle establishes one hot pending component…
    let (cycle, spokes) = unsat_cycle_with_spokes(cycle_len, spoke_count);
    let total = (cycle.len() + spokes.len()) as u64;
    for q in cycle {
        engine.submit(q).unwrap();
    }
    // …then the spokes race in from contending submitters, every one
    // re-confronting that component's shard: lock-wait, evaluation,
    // probes, and WAL appends all interleave in the ring, each event
    // stamped with its submitter's trace id.
    std::thread::scope(|s| {
        for chunk in spokes.chunks(spoke_count.div_ceil(THREADS)) {
            let engine = &engine;
            s.spawn(move || {
                for q in chunk.iter().cloned() {
                    engine.submit(q).unwrap();
                }
            });
        }
    });

    let analyzer = TraceAnalyzer::from_tracer(&obs.tracer());
    let mut complete = 0u32;
    for t in analyzer.traces() {
        if t.complete {
            complete += 1;
            assert_eq!(
                t.breakdown.phase_sum(),
                t.breakdown.critical_path_nanos,
                "complete trace {}: phases must sum to the root span's wall nanos",
                t.trace_id
            );
        } else if t.breakdown.critical_path_nanos > 0 {
            assert!(
                t.breakdown.phase_sum() <= t.breakdown.critical_path_nanos,
                "trace {}: phase sum exceeds measured submit wall time",
                t.trace_id
            );
        }
    }
    assert!(
        complete > 0,
        "the default ring must capture complete traces"
    );

    // Per-phase p50/p99 across complete traces; the series name spells
    // out the x-axis (phase index) so the JSON artifact is
    // self-describing.
    let pct = analyzer.phase_percentiles();
    let axis = format!("[{}, critical_path]", PHASES.join(", "));
    let mut p50 = Series::new(format!("Tracing — per-phase p50 ns, x = phase {axis}"));
    let mut p99 = Series::new(format!("Tracing — per-phase p99 ns, x = phase {axis}"));
    for (i, (_, lo, hi)) in pct.iter().enumerate() {
        p50.push(i as u64, *lo as f64, complete);
        p99.push(i as u64, *hi as f64, complete);
    }
    report.add(p50);
    report.add(p99);
    for (name, lo, hi) in &pct {
        report.note(format_args!("  {name:>14}: p50 {lo:>9} ns  p99 {hi:>9} ns"));
    }
    report.note(format_args!(
        "({} traces reconstructed, {complete} complete, {} unattributed events, \
         {} orphaned ends, {} dropped)",
        analyzer.traces().len(),
        analyzer.unattributed_events,
        analyzer.orphaned_ends,
        analyzer.dropped,
    ));

    // Flight-recorder sub-run: a 64-event ring overflows many times
    // over, yet with a 1ns threshold (every root qualifies) the
    // slow-query log must still retain every submitted trace.
    let obs = ObsRegistry::with_trace_capacity(64);
    obs.set_slow_query_log(1, total as usize + 8);
    let dir = TempDir::new("reproduce-trace-slow");
    let engine = DurableSharedEngine::open_with_obs(
        &db,
        dir.path(),
        4,
        DurabilityOptions {
            sync: SyncPolicy::EveryRecord,
            snapshot_every: Some(64),
        },
        obs.clone(),
    )
    .unwrap();
    let (cycle, spokes) = unsat_cycle_with_spokes(cycle_len, spoke_count);
    for q in cycle.into_iter().chain(spokes) {
        engine.submit(q).unwrap();
    }
    let (_, ring_dropped) = obs.tracer().events();
    assert!(
        ring_dropped > 0,
        "the 64-event ring must overflow during {total} submits"
    );
    let (recorded, discarded) = obs.tracer().slow_trace_counts();
    assert_eq!(
        (recorded, discarded),
        (total, 0),
        "slow-query log must retain every over-threshold trace despite ring overflow"
    );
    report.note(format_args!(
        "(flight recorder: {recorded} slow traces retained across a ring that \
         dropped {ring_dropped} events)"
    ));
}

/// Extra experiment (storage backends): per-submit database probe work
/// (rows scanned + ground membership probes) on the 60-query activity
/// chain as the table grows 100× to 10⁶ rows, one series per backend.
/// Counter-based (deterministic on a 1-CPU runner) and gated by
/// [`coord_bench::storage::probe_work_sweep`] exactly as the `storage`
/// bench is — the composite backend must stay flat (≤ 2×) where
/// single-column indexing pays √N — and emitted as the CI
/// `BENCH_storage.json` trajectory artifact.
fn storage(quick: bool, report: &mut Report) {
    let sizes = storage::sizes(quick);
    let mut growths = Vec::new();
    for (kind, per_size) in storage::probe_work_sweep(sizes) {
        let mut series = Series::new(format!(
            "Storage — per-submit probe work, {} backend ({}-query activity chain)",
            kind.name(),
            storage::CHAIN
        ));
        for (&rows, &per_submit) in sizes.iter().zip(&per_size) {
            series.push(rows as u64, per_submit, 1);
        }
        growths.push((kind.name(), storage::growth(&per_size)));
        report.add(series);
    }
    report.note(format_args!(
        "(probe-work growth across 100× rows: {}; composite indexes keep \
         per-submit coordination cost flat)",
        growths
            .iter()
            .map(|(name, g)| format!("{name} {g:.2}×"))
            .collect::<Vec<_>>()
            .join(", "),
    ));
}
