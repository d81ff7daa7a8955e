//! The benchmark's fixed parts: workload sizes, metric names and units.
//! `BENCHMARK.json` at the repo root repeats the names, units, bounds
//! and reasons for the driver; a unit test keeps the two in step.

use crate::gen::{Body, POOL_ROWS};
use crate::json::Json;
use crate::layers;
use crate::sut::Sync;

/// Seconds a timed section measures unless `--seconds` says otherwise.
pub const RUN_SECONDS: u64 = 10;
/// `setup_s` is the second fastest (`stats::quiet_low`) of several
/// set-ups in one run: at least three — of which it is the median — and
/// for a set-up of a few milliseconds as many as it takes to fill a
/// quarter of a second (at most 25), so that a short set-up is not a
/// single noisy sample. A traced or `--quick` run sets up once.
pub fn enough_setups(times_s: &[f64], once: bool) -> bool {
    let total: f64 = times_s.iter().sum();
    once || (times_s.len() >= 3 && (total >= 0.25 || times_s.len() >= 25))
}
/// Shards of every online workload's engine.
pub const SHARDS: usize = 4;
/// `DurabilityOptions::default().snapshot_every`.
pub const SNAPSHOT_EVERY: u64 = 1024;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// End-to-end metrics: every workload reports every one (the driver's
/// contract), so each is defined for a submit and for a batch run alike.
/// The bounds are the measured A/A spreads on the 2-core build box,
/// rounded up (README, "Steadiness").
pub const END_TO_END: [EndToEnd; 6] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("ops_per_s", "1/s", Better::Higher, 0.25),
    e2e("cpu_us_per_op", "us", Better::Lower, 0.25),
    e2e("latency_p50_us", "us", Better::Lower, 0.25),
    e2e("latency_tail_us", "us", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.10),
];

#[derive(Clone, Copy, Debug)]
pub struct Online {
    /// Closed-loop client threads, or open-loop workers.
    pub clients: usize,
    pub sync: Sync,
    /// Open groups across all clients (pending ≈ 7.5 × window).
    pub window: usize,
    /// Unsatisfiable cycles pre-loaded for spokes to hit (0: no spokes).
    pub cycles: u64,
    pub body: Body,
    /// `Some(rate)`: open loop at `rate` submits/s. `None`: closed loop.
    pub open_rate: Option<u64>,
    /// Percentile `latency_tail_us` reports: the highest that keeps ten
    /// samples beyond it in every one-second slice.
    pub tail_pct: f64,
    /// Arrivals generated per second of `--seconds`, per run: the
    /// closed loop stops early if it ever gets through them all.
    pub arrivals_per_s: usize,
}

#[derive(Clone, Copy, Debug)]
pub enum Kind {
    Online(Online),
    /// `SccCoordinator::run` on a list chain then on a scale-free set.
    /// An end-to-end run spreads its units over `processes` child
    /// processes (see `batch.rs`): few here, because a process needs
    /// several 0.6 s units before its allocator has settled.
    BatchScc {
        list: usize,
        scale_free: usize,
        processes: u64,
    },
    /// `ConsistentCoordinator::run`, `users` queries × `values` values.
    /// Many processes: a unit is 40 ms, and only one call in five draws
    /// the cheapest of this workload's cost levels.
    BatchConsistent {
        users: usize,
        values: usize,
        processes: u64,
    },
}

#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    /// Why the workload exists, in one line (`BENCHMARK.json` carries it).
    pub why: &'static str,
    pub kind: Kind,
}

const POOL: Body = Body::Pool { rows: POOL_ROWS };

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "online-nosync",
        why: "CPU-bound durable path: 1 closed-loop client, no fsync, ~21k pending, so index, unify, SCC, codec and snapshot rotation do the work; 8k+ groups overflow the closure cache; spokes are its only hits",
        kind: Kind::Online(Online {
            clients: 1,
            sync: Sync::Never,
            window: 2048,
            cycles: 512,
            body: POOL,
            open_rate: None,
            tail_pct: 99.0,
            arrivals_per_s: 30_000,
        }),
    },
    Workload {
        name: "online-fsync",
        why: "fsync on every record with 2 closed-loop clients: WAL sync is half of a submit, so log, flush-barrier and shard-lock changes show here and CPU work barely does; the closure cache fits",
        kind: Kind::Online(Online {
            clients: 2,
            sync: Sync::EveryRecord,
            window: 256,
            cycles: 0,
            body: POOL,
            open_rate: None,
            tail_pct: 99.0,
            arrivals_per_s: 20_000,
        }),
    },
    Workload {
        name: "online-open",
        why: "open loop at a fixed 6000 submits/s, timed from when each submit was due: queueing behind a snapshot rotation or a long evaluation shows here and is invisible to a closed loop",
        kind: Kind::Online(Online {
            clients: 2,
            sync: Sync::Never,
            window: 256,
            cycles: 0,
            body: POOL,
            open_rate: Some(OPEN_RATE),
            tail_pct: 99.0,
            arrivals_per_s: OPEN_RATE as usize * 3 / 2,
        }),
    },
    Workload {
        name: "online-bigtable",
        why: "bodies select from a 1,000,000-row table on the default backend: the one workload where coord-db probing dominates a submit and table load dominates set-up; data far larger than any cache",
        kind: Kind::Online(Online {
            clients: 1,
            sync: Sync::Never,
            window: 256,
            cycles: 0,
            body: Body::Activity { rows: 1_000_000 },
            open_rate: None,
            tail_pct: 99.0,
            arrivals_per_s: 12_000,
        }),
    },
    Workload {
        name: "batch-scc",
        why: "the paper's SCC algorithm alone (300-query list chain + 2000-query scale-free set): no engine, shards or WAL, so core/graph changes show and store changes cannot; bypass for every online change",
        kind: Kind::BatchScc {
            list: 300,
            scale_free: 2000,
            processes: 2,
        },
    },
    Workload {
        name: "batch-consistent",
        why: "the paper's Consistent algorithm (100 queries x 1000 values, complete friendship): shares only coord-db with the rest; bypass for every online and SCC optimisation; only user of consistent.rs",
        kind: Kind::BatchConsistent {
            users: 100,
            values: 1000,
            processes: 20,
        },
    },
];

/// The fixed open-loop rate `online-open` is measured at, and the
/// middle rung of the traced run's rate ladder (½×, 1×, 1½×).
pub const OPEN_RATE: u64 = 6000;
/// `open.max_rate_ok`: a rate is met when p99 from the due time stays
/// within this limit and under 1 % of the schedule is still queued when
/// the schedule ends.
pub const OPEN_LIMIT_US: f64 = 5000.0;

pub fn workload(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// The command the driver runs, from the root of a checkout.
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

/// `BENCHMARK.json`, from the tables above: `--spec` prints it, and a
/// unit test holds the committed file to it.
pub fn benchmark_json() -> Json {
    let strs = |items: &[&str]| Json::Arr(items.iter().map(|s| Json::Str((*s).into())).collect());
    let better = |higher: bool| Json::Str(if higher { "higher" } else { "lower" }.into());
    Json::obj(vec![
        ("command", strs(&COMMAND)),
        ("paths", strs(&["benchmark"])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| {
                        Json::obj(vec![
                            ("name", Json::Str(w.name.into())),
                            ("why", Json::Str(w.why.into())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj(vec![
                            ("name", Json::Str(m.name.into())),
                            ("unit", Json::Str(m.unit.into())),
                            ("better", better(m.better == Better::Higher)),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                layers::PER_LAYER
                    .iter()
                    .map(|(name, unit)| {
                        Json::obj(vec![
                            ("name", Json::Str((*name).into())),
                            ("unit", Json::Str((*unit).into())),
                            ("better", better(layers::HIGHER_IS_BETTER.contains(name))),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// [`benchmark_json`] laid out one entry to a line.
pub fn benchmark_json_text() -> String {
    let doc = benchmark_json();
    let mut out = String::from("{\n");
    let n = doc.entries().len();
    for (i, (key, value)) in doc.entries().iter().enumerate() {
        let comma = if i + 1 < n { "," } else { "" };
        match value
            .as_arr()
            .filter(|a| matches!(a.first(), Some(Json::Obj(_))))
        {
            Some(items) => {
                out.push_str(&format!("  \"{key}\": [\n"));
                for (j, item) in items.iter().enumerate() {
                    let sep = if j + 1 < items.len() { "," } else { "" };
                    out.push_str(&format!("    {item}{sep}\n"));
                }
                out.push_str(&format!("  ]{comma}\n"));
            }
            None => out.push_str(&format!("  \"{key}\": {value}{comma}\n")),
        }
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` is what the driver reads; the tables here are
    /// what the program does. They must say the same thing.
    #[test]
    fn benchmark_json_is_the_committed_file_and_within_the_contract() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root");
        assert_eq!(text, benchmark_json_text(), "regenerate it with --spec");
        assert!(text.len() <= 64 * 1024);
        assert_eq!(Json::parse(&text).unwrap(), benchmark_json());

        assert!((2..=8).contains(&WORKLOADS.len()));
        for w in &WORKLOADS {
            assert!(
                w.why.chars().count() <= 200 && !w.why.contains('\n'),
                "{}",
                w.why
            );
        }
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
        assert!((1..=128).contains(&layers::PER_LAYER.len()));
        for name in layers::HIGHER_IS_BETTER {
            assert!(layers::PER_LAYER.iter().any(|(n, _)| *n == name), "{name}");
        }

        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(layers::PER_LAYER.iter().map(|(n, _)| *n));
        for name in &names {
            assert!(name.len() <= 64 && name.chars().all(ok), "{name}");
            assert!(
                name.chars().next().unwrap().is_ascii_alphanumeric(),
                "{name}"
            );
        }
        let distinct: std::collections::BTreeSet<&&str> = names.iter().collect();
        assert_eq!(distinct.len(), names.len(), "a name is used once");
        let unit_ok =
            |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
        for unit in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(layers::PER_LAYER.iter().map(|(_, u)| *u))
        {
            assert!(unit.len() <= 16 && unit.chars().all(unit_ok), "{unit}");
        }
    }
}
