//! Regenerate the paper's Section 6 evaluation (Figures 4–8) and the
//! Section 3 hardness separation as text tables, and assert the counter
//! gates of the online engine, the shard rebalancer and the storage
//! layer while printing them. This is the one command that answers
//! "does it still match the paper and our complexity claims" (README,
//! "Build, test, bench").
//!
//! Usage: `cargo run --release -p coord-bench --bin reproduce --
//! [--quick] [--only <section>]`
//!
//! `--quick` shrinks sizes and repetition counts for a fast smoke run.
//! `--only <section>` runs one section: `fig4` … `fig8`, `hardness`,
//! `online`, `shard_skew` or `storage`. Any other argument exits 2 with
//! a usage line. A gate that does not hold panics with its message.

use coord_bench::{measure, Series};
use coord_core::bruteforce;
use coord_core::consistent::ConsistentCoordinator;
use coord_core::engine::{
    CoordinationEngine, Placement, QueryAnswer, RebalanceConfig, SharedEngine, SubmitResult,
};
use coord_core::scc::{preprocess, SccCoordinator};
use coord_core::testkit::RebuildEngine;
use coord_core::EntangledQuery;
use coord_db::testkit::scan_copy;
use coord_db::{Database, Value};
use coord_gen::networks::barabasi_albert;
use coord_gen::social::SLASHDOT_ROWS;
use coord_gen::workloads::{
    activity_chain_queries, activity_db, fig4_queries, fig5_queries, fig7_instance, fig8_instance,
    partner_query, pool_db, zipf_chain_workload,
};
use coord_graph::NodeId;
use coord_sat::{dpll_solve, random_3sat, reduction1};
use rand::prelude::*;

/// A section's `--only` name and its entry point (taking `--quick`).
type Section = (&'static str, fn(bool));

/// Every section, in run order.
const SECTIONS: &[Section] = &[
    ("fig4", fig4),
    ("fig5", fig5),
    ("fig6", fig6),
    ("fig7", fig7),
    ("fig8", fig8),
    ("hardness", hardness),
    ("online", online),
    ("shard_skew", shard_skew),
    ("storage", storage),
];

/// What the command line asked for.
#[derive(Debug, PartialEq)]
struct Options {
    quick: bool,
    /// The one section `--only` selected; `None` runs them all.
    only: Option<&'static str>,
}

/// Parse the arguments after the program name. Anything but `--quick`
/// and `--only <section>` is an error: a mistyped flag must not start
/// the multi-minute full evaluation.
fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Options, String> {
    let mut options = Options {
        quick: false,
        only: None,
    };
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => options.quick = true,
            "--only" => {
                let section = args.next().ok_or("--only needs a section")?;
                let (name, _) = SECTIONS
                    .iter()
                    .find(|(name, _)| *name == section)
                    .ok_or_else(|| format!("unknown --only section `{section}`"))?;
                options.only = Some(*name);
            }
            _ => return Err(format!("unknown argument `{arg}`")),
        }
    }
    Ok(options)
}

fn main() {
    let options = parse_args(std::env::args().skip(1)).unwrap_or_else(|msg| {
        let names: Vec<&str> = SECTIONS.iter().map(|(name, _)| *name).collect();
        eprintln!(
            "{msg}\nusage: reproduce [--quick] [--only <section>]; sections: {}",
            names.join(", ")
        );
        std::process::exit(2);
    });
    println!(
        "Reproducing the evaluation of \"The Complexity of Social Coordination\"\n\
         (VLDB 2012). One table per series; timings are means over {} runs, and\n\
         every gate is asserted as its table is printed.\n",
        runs(options.quick)
    );
    for (name, section) in SECTIONS {
        if options.only.is_none_or(|only| only == *name) {
            section(options.quick);
        }
    }
}

/// Repetitions per timed point.
fn runs(quick: bool) -> u32 {
    if quick {
        2
    } else {
        10
    }
}

/// Figure 4: SCC algorithm, list structure, Slashdot-sized pool.
fn fig4(quick: bool) {
    let runs = runs(quick);
    let rows = if quick { 5_000 } else { SLASHDOT_ROWS };
    let db = pool_db(rows);
    let mut series = Series::new(format!(
        "Figure 4 — SCC algorithm, list structure ({rows}-row table), ms per run"
    ));
    for n in [10, 20, 40, 60, 80, 100] {
        let queries = fig4_queries(n);
        let d = measure(runs, || {
            let out = SccCoordinator::new(&db).run(&queries).unwrap();
            assert_eq!(out.best().unwrap().len(), n);
        });
        series.push(n as u64, d.as_secs_f64() * 1e3, runs);
    }
    print!("{}", series.to_table());
    println!(
        "slope ≈ {:.4} ms/query (paper: linear growth)\n",
        series.slope()
    );
}

/// Figure 5: SCC algorithm, scale-free structure, averaged over 10 seeds.
fn fig5(quick: bool) {
    let runs = runs(quick);
    let rows = if quick { 5_000 } else { SLASHDOT_ROWS };
    let db = pool_db(rows);
    let mut series = Series::new(format!(
        "Figure 5 — SCC algorithm, scale-free structure ({rows}-row table, 10 seeds), \
         ms per graph"
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
    print!("{}", series.to_table());
    println!(
        "slope ≈ {:.4} ms/query (paper: linear, faster than Figure 4)\n",
        series.slope()
    );
}

/// Figure 6: graph construction + preprocessing only, 100–1000 queries.
fn fig6(quick: bool) {
    let runs = if quick { 1 } else { 3 };
    let db = pool_db(1_000);
    let sizes: &[usize] = if quick {
        &[100, 400, 1000]
    } else {
        &[100, 200, 400, 600, 800, 1000]
    };
    let mut series =
        Series::new("Figure 6 — graph processing time, scale-free (10 seeds), ms per graph");
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
    print!("{}", series.to_table());
    println!("(paper: negligible, grows very slowly)\n");
}

/// Figure 7: Consistent algorithm vs number of option values.
fn fig7(quick: bool) {
    let runs = runs(quick);
    let sizes: &[usize] = if quick {
        &[100, 400, 1000]
    } else {
        &[100, 200, 400, 600, 800, 1000]
    };
    let mut series = Series::new(
        "Figure 7 — Consistent algorithm vs #values (50 queries, complete friends), ms per run",
    );
    for &rows in sizes {
        let (db, config, queries) = fig7_instance(50, rows);
        let coordinator = ConsistentCoordinator::new(&db, config).unwrap();
        let d = measure(runs, || {
            let out = coordinator.run(&queries).unwrap();
            assert_eq!(out.stats.values_considered, rows);
        });
        series.push(rows as u64, d.as_secs_f64() * 1e3, runs);
    }
    print!("{}", series.to_table());
    println!(
        "slope ≈ {:.4} ms/value (paper: linear growth)\n",
        series.slope()
    );
}

/// Figure 8: Consistent algorithm vs number of queries.
fn fig8(quick: bool) {
    let runs = runs(quick);
    let sizes: &[usize] = if quick {
        &[10, 50, 100]
    } else {
        &[10, 20, 40, 60, 80, 100]
    };
    let mut series = Series::new(
        "Figure 8 — Consistent algorithm vs #queries (100-tuple flights table), ms per run",
    );
    for &n in sizes {
        let (db, config, queries) = fig8_instance(n, 100);
        let coordinator = ConsistentCoordinator::new(&db, config).unwrap();
        let d = measure(runs, || {
            let out = coordinator.run(&queries).unwrap();
            assert_eq!(out.best.as_ref().map(|s| s.members.len()), Some(n));
        });
        series.push(n as u64, d.as_secs_f64() * 1e3, runs);
    }
    print!("{}", series.to_table());
    println!(
        "slope ≈ {:.4} ms/query (paper: linear growth)\n",
        series.slope()
    );
}

/// Section 3 (extra experiment): the hardness separation — DPLL vs
/// exhaustive entangled search on the Theorem 1 reduction.
fn hardness(quick: bool) {
    let max_vars = if quick { 3 } else { 5 };
    let mut dpll_series = Series::new("Hardness — DPLL on random 3SAT, ms per formula");
    let mut bf_series = Series::new(
        "Hardness — brute-force entangled search on the Theorem 1 reduction, ms per formula",
    );
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
    print!("{}{}", dpll_series.to_table(), bf_series.to_table());
    println!("(Theorem 1: the entangled side grows exponentially; DPLL stays flat)\n");
}

/// Queries per group of the `online` workload.
const GROUP: usize = 16;

/// One group of the `online` workload, in arrival order: a BA(16, 2)
/// digraph whose seed nodes additionally point at the keystone (the
/// highest-index member, last), so every member's closure transitively
/// requires it. User indices are offset so groups are disjoint.
fn ba_group(group: usize, rng: &mut impl Rng) -> Vec<EntangledQuery> {
    let graph = barabasi_albert(GROUP, 2, rng);
    let keystone = GROUP - 1;
    let offset = group * GROUP;
    (0..GROUP)
        .map(|i| {
            let mut partners: Vec<usize> = graph.successors(NodeId(i)).map(NodeId::index).collect();
            if partners.is_empty() && i != keystone {
                partners.push(keystone);
            }
            partners.sort_unstable();
            partners.dedup();
            let partners: Vec<usize> = partners.iter().map(|&p| p + offset).collect();
            partner_query(i + offset, &partners)
        })
        .collect()
}

/// Extra experiment (§7, the online setting): evaluation work of the
/// incremental engine against the full-rebuild oracle, on `n` queries
/// in BA groups of 16 arriving online. Phase 1 interleaves every
/// group's non-keystones (nothing can coordinate; pending grows to
/// 15n/16), phase 2 releases the keystones (each closes its group).
/// This is the regime the incremental engine exists for: a large
/// steady pending set whose arrivals each touch a tiny component.
/// Counters only, asserted while printed:
///
/// * every phase-1 submit stays pending and every keystone coordinates,
///   on both engines;
/// * the rebuild examines Σ pending > n²/8 queries (quadratic);
/// * the incremental engine evaluates ≤ 17 queries per submit (one
///   group, independent of the pending-set size) and checks < n²/8
///   candidate pairings through its index;
/// * the incremental engine does at least 8× less evaluation work.
fn online(quick: bool) {
    let sizes: &[usize] = if quick { &[256] } else { &[256, 1024] };
    let mut rebuild_series =
        Series::new("Online — queries examined (count), full-rebuild baseline");
    let mut incremental_series =
        Series::new("Online — queries evaluated (count), incremental engine");
    for &n in sizes {
        let db = pool_db(n);
        let mut rng = StdRng::seed_from_u64(42);
        let groups: Vec<_> = (0..n / GROUP).map(|g| ba_group(g, &mut rng)).collect();
        let arrivals = (0..GROUP).flat_map(|i| groups.iter().map(move |g| g[i].clone()));

        let mut rebuild = RebuildEngine::new(&db);
        let mut incremental = CoordinationEngine::new(&db);
        for (i, q) in arrivals.enumerate() {
            let keystone = i / groups.len() == GROUP - 1;
            let a = rebuild.submit(q.clone()).unwrap();
            let b = incremental.submit(q).unwrap();
            assert_eq!(a.coordinated(), keystone, "rebuild, arrival {i} at n = {n}");
            assert_eq!(
                b.coordinated(),
                keystone,
                "incremental, arrival {i} at n = {n}"
            );
        }

        let examined = rebuild.queries_examined();
        let metrics = incremental.metrics();
        let evaluated = metrics.queries_evaluated;
        let quadratic = (n * n / 8) as u64;
        assert!(
            examined > quadratic,
            "at n = {n}: rebuild examined {examined} ≤ n²/8"
        );
        assert!(
            metrics.evaluated_per_submit() <= (GROUP + 1) as f64,
            "at n = {n}: per-submit work {} exceeds the group bound",
            metrics.evaluated_per_submit()
        );
        assert!(
            metrics.pairings_checked < quadratic,
            "at n = {n}: pairings {} not sub-quadratic",
            metrics.pairings_checked
        );
        assert!(
            evaluated * 8 < examined,
            "at n = {n}: incremental {evaluated} vs rebuild {examined} (< 8× saving)"
        );
        rebuild_series.push(n as u64, examined as f64, 1);
        incremental_series.push(n as u64, evaluated as f64, 1);
        println!(
            "gate ok (n = {n}): incremental evaluated {evaluated} vs rebuild {examined} \
             ({:.1}× less, ≥ 8× required); {:.2} evaluated/submit (≤ {}); {} pairings \
             checked (< n²/8 = {quadratic}); every keystone coordinated",
            examined as f64 / evaluated as f64,
            metrics.evaluated_per_submit(),
            GROUP + 1,
            metrics.pairings_checked,
        );
    }
    print!(
        "{}{}",
        rebuild_series.to_table(),
        incremental_series.to_table()
    );
    println!("(incremental: O(group) per submit; rebuild: O(pending))\n");
}

/// What one phase-1 drive of the `shard_skew` workload observed.
struct SkewRun {
    /// Hottest shard's share of the evaluation work accumulated over
    /// the steady-state second half of phase 1 (1/shards is balanced).
    hottest_share: f64,
    /// Component groups moved by the rebalancer (0 when disabled).
    groups_moved: usize,
    /// Pending queries those groups contained.
    queries_moved: usize,
}

/// Per-shard cumulative evaluation-work counters.
fn eval_counts(engine: &SharedEngine<'_>) -> Vec<u64> {
    engine
        .shard_stats()
        .iter()
        .map(|s| s.eval_queries)
        .collect()
}

/// Drive phase 1 of a skew workload: submit every query in order
/// (asserting nothing coordinates — the keystones are withheld), hand
/// each outcome to `observe`, and, when `rebalance_every` is set, run a
/// rebalance pass at that cadence. The hottest-shard share is measured
/// over the second half, after the skew has emerged and the rebalancer
/// has had windows to react.
fn drive_phase1(
    engine: &SharedEngine<'_>,
    phase1: &[EntangledQuery],
    rebalance_every: Option<usize>,
    mut observe: impl FnMut(&EntangledQuery, &SubmitResult),
) -> SkewRun {
    let mut groups_moved = 0;
    let mut queries_moved = 0;
    let mut at_midpoint = Vec::new();
    for (i, q) in phase1.iter().enumerate() {
        if i == phase1.len() / 2 {
            at_midpoint = eval_counts(engine);
        }
        let r = engine.submit(q.clone()).unwrap();
        assert!(!r.coordinated(), "phase 1 must stay pending");
        observe(q, &r);
        if rebalance_every.is_some_and(|every| (i + 1) % every == 0) {
            let report = engine.rebalance();
            groups_moved += report.groups_moved;
            queries_moved += report.queries_moved;
        }
    }
    let deltas: Vec<u64> = eval_counts(engine)
        .iter()
        .zip(&at_midpoint)
        .map(|(after, before)| after.saturating_sub(*before))
        .collect();
    let total: u64 = deltas.iter().sum();
    SkewRun {
        hottest_share: deltas.iter().copied().max().unwrap_or(0) as f64 / total.max(1) as f64,
        groups_moved,
        queries_moved,
    }
}

/// Answers in query order, so two engines' deliveries compare equal.
fn sorted(mut answers: Vec<QueryAnswer>) -> Vec<QueryAnswer> {
    answers.sort_by(|a, b| a.query.cmp(&b.query));
    answers
}

/// Extra experiment (engine scaling): shard skew under a Zipf keystone
/// workload — `G` open partner chains whose sizes follow a Zipf(½) law
/// arrive interleaved with their keystones withheld, so one hot
/// component pins one shard. Round-robin placement alone vs the same
/// with a rebalance pass every 32 submits, on 4 shards. Asserted at
/// every case:
///
/// * **skew exists**: without rebalancing the hottest shard's share of
///   evaluation work exceeds the balanced 1/4 by more than 0.05;
/// * **the rebalancer reduces it**: at least one group moves and the
///   hottest share drops by more than 0.05;
/// * **results stay identical**: every phase-1 submit matches a
///   sequential `CoordinationEngine` twin; in phase 2 every keystone
///   delivers its whole group (`size + 1` answers) identically on both,
///   and nothing is left pending.
fn shard_skew(quick: bool) {
    const SHARDS: usize = 4;
    const REBALANCE_EVERY: usize = 32;
    let cases: &[(usize, usize)] = if quick {
        &[(48, 24)]
    } else {
        &[(48, 24), (96, 40)]
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
        let engine = || SharedEngine::with_config(&db, SHARDS, Placement::RoundRobin, config);

        let baseline = engine();
        let baseline_share = drive_phase1(&baseline, &w.phase1, None, |_, _| {}).hottest_share;
        assert_eq!(baseline.pending_count(), n);
        assert!(
            baseline_share > 1.0 / SHARDS as f64 + 0.05,
            "no skew to correct at n = {n}: hottest share {baseline_share:.3}"
        );

        let rebalanced = engine();
        let mut sequential = CoordinationEngine::new(&db);
        let run = drive_phase1(&rebalanced, &w.phase1, Some(REBALANCE_EVERY), |q, a| {
            let b = sequential.submit(q.clone()).unwrap();
            assert_eq!(a.answers, b.answers, "phase-1 submit diverged at n = {n}");
        });
        assert_eq!(rebalanced.pending_count(), n);
        assert!(
            run.groups_moved >= 1,
            "rebalancer never moved a group at n = {n}"
        );
        assert!(
            run.hottest_share < baseline_share - 0.05,
            "hottest-shard share did not drop at n = {n}: \
             baseline {baseline_share:.3} vs rebalanced {:.3}",
            run.hottest_share
        );

        for (g, keystone) in w.keystones.iter().enumerate() {
            let a = rebalanced.submit(keystone.clone()).unwrap();
            let b = sequential.submit(keystone.clone()).unwrap();
            assert!(a.coordinated(), "group {g} lost by rebalancing at n = {n}");
            assert_eq!(a.answers.len(), w.sizes[g] + 1);
            assert_eq!(sorted(a.answers), sorted(b.answers), "group {g} diverged");
        }
        assert_eq!(rebalanced.pending_count(), 0);
        assert_eq!(sequential.pending().len(), 0);

        baseline_series.push(n as u64, 100.0 * baseline_share, 1);
        rebalanced_series.push(n as u64, 100.0 * run.hottest_share, 1);
        println!(
            "gate ok (n = {n}): hottest-shard eval share {baseline_share:.3} → {:.3} \
             (> {:.2} before, drop > 0.05; {} groups moved, {} queries rerouted, \
             {} backoffs); answers ≡ sequential engine",
            run.hottest_share,
            1.0 / SHARDS as f64 + 0.05,
            run.groups_moved,
            run.queries_moved,
            rebalanced.metrics().migration_backoffs,
        );
    }
    print!(
        "{}{}",
        baseline_series.to_table(),
        rebalanced_series.to_table()
    );
    println!(
        "(adaptive rebalancing: lower is better; {:.0}% is perfectly balanced)\n",
        100.0 / SHARDS as f64
    );
}

/// Drive a query chain through the online engine and return
/// (per-submit probe work, submit-by-submit answer transcript).
fn drive_chain(db: &Database, queries: &[EntangledQuery]) -> (f64, Vec<Vec<QueryAnswer>>) {
    let before = db.stats().probe_work();
    let mut engine = CoordinationEngine::new(db);
    let transcript: Vec<_> = queries
        .iter()
        .map(|q| engine.submit(q.clone()).unwrap().answers)
        .collect();
    assert_eq!(engine.pending().len(), 0, "chain must fully coordinate");
    let per_submit = (db.stats().probe_work() - before) as f64 / queries.len() as f64;
    (per_submit, transcript)
}

/// The rows one body atom of `query` would walk on a one-column scan:
/// [`coord_db::Table::estimate`] of its constants, the smallest of their
/// posting lists.
fn body_estimate(db: &Database, query: &EntangledQuery) -> usize {
    let atom = &query.body()[0];
    let bound: Vec<(usize, Value)> = atom
        .terms
        .iter()
        .enumerate()
        .filter_map(|(c, t)| t.as_const().map(|v| (c, v.clone())))
        .collect();
    db.table(&atom.relation).unwrap().estimate(&bound)
}

/// Extra experiment (storage): per-submit database probe work (rows
/// scanned + ground membership probes, `QueryStats::probe_work`) on the
/// 60-query activity chain as the table grows 100× to 10⁶ rows. The
/// activity table `A(id, topic, day)` has ≈√N topics and ≈√N days and
/// each query body pins one (topic, day) pair, so a single-column
/// posting list holds ≈√N rows while the two lists intersect in one.
/// Asserted while printed:
///
/// * **flat cost**: per-submit probe work grows ≤ 2× — the row store's
///   leapfrog intersection walks only the matching row;
/// * **the workload stresses single-column lists**: a body atom's
///   `Table::estimate`, the list a one-column walk would scan, grows
///   ≥ 3× (≈√100 = 10× expected);
/// * **answers match the oracle**: at the smallest size the
///   submit-by-submit transcript equals the one over the table's
///   `coord_db::testkit::ScanStore` copy, which answers every probe by
///   a full scan.
fn storage(quick: bool) {
    const CHAIN: usize = 60;
    let sizes: &[usize] = if quick {
        &[10_000, 1_000_000]
    } else {
        &[10_000, 100_000, 1_000_000]
    };
    let mut work = Series::new(format!(
        "Storage — per-submit probe work (count), {CHAIN}-query activity chain"
    ));
    let mut list = Series::new("Storage — one body atom's single-column estimate (rows)");
    for &rows in sizes {
        // One size in memory at a time: a 10⁶-row table with per-column
        // posting lists is the run's largest allocation.
        let db = activity_db(rows);
        let queries = activity_chain_queries(CHAIN, rows);
        let (per_submit, transcript) = drive_chain(&db, &queries);
        if rows == sizes[0] {
            let (_, expected) = drive_chain(&scan_copy(&db), &queries);
            assert_eq!(
                transcript, expected,
                "row-store answers diverged from the full-scan oracle at {rows} rows"
            );
        }
        work.push(rows as u64, per_submit, 1);
        list.push(rows as u64, body_estimate(&db, &queries[0]) as f64, 1);
    }
    let growth = |s: &Series| s.points[sizes.len() - 1].y / s.points[0].y.max(1.0);
    let (work_growth, list_growth) = (growth(&work), growth(&list));
    assert!(
        work_growth <= 2.0,
        "per-submit probe work grew {work_growth:.2}× (> 2×) across a 100× table: {:.0} → {:.0}",
        work.points[0].y,
        work.points[sizes.len() - 1].y
    );
    assert!(
        list_growth >= 3.0,
        "a body atom's single-column list grew only {list_growth:.2}×; \
         the workload no longer stresses single-column lists"
    );
    print!("{}{}", work.to_table(), list.to_table());
    println!(
        "gate ok: across 100× rows probe work grew {work_growth:.2}× (≤ 2×) while a \
         single-column list grew {list_growth:.2}× (≥ 3×); answers ≡ the full-scan oracle\n"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Options, String> {
        parse_args(args.iter().map(|a| (*a).to_string()))
    }

    #[test]
    fn parse_args_rejects_anything_but_quick_and_a_known_section() {
        assert_eq!(
            parse(&[]),
            Ok(Options {
                quick: false,
                only: None
            })
        );
        assert_eq!(
            parse(&["--quick", "--only", "shard_skew"]),
            Ok(Options {
                quick: true,
                only: Some("shard_skew")
            })
        );
        assert!(parse(&["--quik"]).is_err());
        assert!(parse(&["--quick", "--only"]).is_err());
        assert!(parse(&["--only", "trace"]).is_err());
    }
}
