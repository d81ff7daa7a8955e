//! The repo's benchmark. One invocation runs one workload:
//!
//! ```text
//! coord-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! and prints, as the last line of standard output, one JSON object
//! `{"correct", "attempted", "failed", "metrics"}` — the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! `--all` runs every workload (each in a child process of its own, so
//! CPU time and peak memory are per workload) and prints one table;
//! `--aa` does that twice and compares; `--compare A.json B.json`
//! compares two saved result files. See `README.md`.

mod batch;
mod compare;
mod gen;
mod json;
mod layers;
mod online;
mod oracle;
mod procfs;
mod quiet;
mod spans;
mod spec;
mod stats;
mod sut;

use json::Json;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// What one run of one workload found.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64)>,
    notes: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64) {
        self.metrics.push((name.to_string(), value));
    }

    /// A line for the human reading standard error.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// `n` operations failed (refused, wrong, or lost), for this reason.
    pub fn fail(&mut self, n: u64, why: &str) {
        if n > 0 {
            self.failed += n;
            if self
                .notes
                .iter()
                .filter(|l| l.starts_with("FAILED"))
                .count()
                < 8
            {
                self.notes.push(format!("FAILED ({n}): {why}"));
            }
        }
    }

    pub fn fail_each(&mut self, problems: Vec<String>) {
        for p in problems {
            self.fail(1, &p);
        }
    }

    fn to_json(&self, units: &[(&str, &str)]) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value)| {
                let unit = units
                    .iter()
                    .find(|(n, _)| n == name)
                    .map_or("", |(_, u)| *u);
                (
                    name.clone(),
                    Json::obj(vec![
                        ("value", Json::Num(*value)),
                        ("unit", Json::Str(unit.to_string())),
                    ]),
                )
            })
            .collect();
        Json::obj(vec![
            ("correct", Json::Bool(self.failed == 0)),
            ("attempted", Json::Num(self.attempted.max(1) as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ])
    }
}

/// Scratch space inside the checkout (`benchmark/out/work-<pid>/`),
/// removed when the run ends: WAL directories and probe files.
pub struct WorkDir {
    root: PathBuf,
    next: std::cell::Cell<u32>,
}

/// `benchmark/out/`: scratch directories, span files, saved results.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

impl WorkDir {
    fn new() -> Result<Self, String> {
        let root = out_dir().join(format!("work-{}", std::process::id()));
        std::fs::create_dir_all(&root).map_err(|e| format!("{}: {e}", root.display()))?;
        Ok(WorkDir {
            root,
            next: std::cell::Cell::new(0),
        })
    }

    /// A new empty directory.
    pub fn fresh(&self, label: &str) -> Result<PathBuf, String> {
        let n = self.next.get();
        self.next.set(n + 1);
        let dir = self.root.join(format!("{label}-{n}"));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(dir)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// The arguments of one run of one workload.
#[derive(Clone, Copy, Debug)]
pub struct Run {
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Set up once instead of several times (traced and `--quick` runs,
    /// which report no `setup_s` anyone compares).
    pub setup_once: bool,
    /// `Some`: this process is one of the children an end-to-end batch
    /// run spreads its units over. It measures for this many
    /// milliseconds, not for `seconds`, and prints a report for its
    /// parent instead of a result.
    pub child: Option<Child>,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Child {
    pub millis: u64,
    /// Also check the outcome against the oracle in full (one child of a
    /// run does; all must agree with it).
    pub verify: bool,
}

impl Run {
    /// How long this process measures for.
    pub fn millis(&self) -> u64 {
        self.child.map_or(self.seconds * 1000, |c| c.millis)
    }
}

pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub all: bool,
    pub aa: bool,
    pub quick: bool,
    pub runs: Option<u64>,
    pub compare: Option<(String, String)>,
    pub out: Option<String>,
    pub spec: bool,
    pub units_child: Option<Child>,
}

fn usage() -> String {
    let names: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: coord-benchmark --workload <{}> [--seed N] [--seconds S] [--trace 0|1]\n\
         \x20      coord-benchmark --all [--seed N] [--seconds S] [--runs R] [--quick] [--out FILE]\n\
         \x20      coord-benchmark --aa [--seed N] [--seconds S] [--runs R]\n\
         \x20      coord-benchmark --compare A.json B.json\n\
         \x20      coord-benchmark --spec    (prints BENCHMARK.json)",
        names.join("|")
    )
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: spec::RUN_SECONDS,
        trace: false,
        all: false,
        aa: false,
        quick: false,
        runs: None,
        compare: None,
        out: None,
        spec: false,
        units_child: None,
    };
    let mut it = argv.iter();
    let value = |it: &mut std::slice::Iter<'_, String>, flag: &str| {
        it.next()
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => args.workload = Some(value(&mut it, flag)?),
            "--seed" => {
                args.seed = value(&mut it, flag)?
                    .parse()
                    .map_err(|_| "--seed takes a whole number".to_string())?;
            }
            "--seconds" => {
                args.seconds = value(&mut it, flag)?
                    .parse()
                    .ok()
                    .filter(|s| (1..=60).contains(s))
                    .ok_or("--seconds takes a whole number from 1 to 60")?;
            }
            "--trace" => {
                args.trace = match value(&mut it, flag)?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                };
            }
            "--all" => args.all = true,
            "--spec" => args.spec = true,
            // Not for people: how a batch run starts its child processes.
            "--units-child" => {
                let verify = match value(&mut it, flag)?.as_str() {
                    "verify" => true,
                    "plain" => false,
                    _ => return Err("--units-child takes verify|plain and milliseconds".into()),
                };
                let millis = value(&mut it, flag)?
                    .parse()
                    .map_err(|_| "--units-child takes verify|plain and milliseconds".to_string())?;
                args.units_child = Some(Child { millis, verify });
            }
            "--aa" => args.aa = true,
            "--quick" => args.quick = true,
            "--runs" => {
                args.runs = Some(
                    value(&mut it, flag)?
                        .parse()
                        .ok()
                        .filter(|r| *r >= 1)
                        .ok_or("--runs takes a whole number, at least 1")?,
                );
            }
            "--out" => args.out = Some(value(&mut it, flag)?),
            "--compare" => args.compare = Some((value(&mut it, flag)?, value(&mut it, flag)?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

/// One workload, as the driver asks for it: measured once, and once more
/// if the machine was evidently slow the first time (see `quiet.rs`).
fn run_workload(args: &Args) -> Result<Outcome, String> {
    let first = measure_workload(args)?;
    if args.trace || args.units_child.is_some() || args.quick {
        return Ok(first);
    }
    let memory = quiet::Memory::load(args.workload.as_deref().unwrap_or_default());
    let retry = memory.wants_retry(&first);
    let reported = if retry {
        eprintln!("the machine was slow (CPU per operation well above this checkout's best): measuring once more");
        quiet::Memory::better(first, measure_workload(args)?)
    } else {
        first
    };
    memory.save(&reported, retry);
    Ok(reported)
}

fn measure_workload(args: &Args) -> Result<Outcome, String> {
    let name = args.workload.as_deref().ok_or_else(usage)?;
    let w =
        spec::workload(name).ok_or_else(|| format!("unknown workload `{name}`\n{}", usage()))?;
    let work = WorkDir::new()?;
    let run = Run {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        setup_once: args.trace || args.quick,
        child: args.units_child,
    };
    match w.kind {
        spec::Kind::Online(o) => online::run(&w, &o, &run, &work),
        spec::Kind::BatchScc {
            list,
            scale_free,
            processes,
        } => batch::run_scc(&w, list, scale_free, processes, &run, &work),
        spec::Kind::BatchConsistent {
            users,
            values,
            processes,
        } => batch::run_consistent(&w, users, values, processes, &run),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if args.spec {
        print!("{}", spec::benchmark_json_text());
        return ExitCode::SUCCESS;
    }
    let result = if let Some((a, b)) = &args.compare {
        compare::compare_files(a, b)
    } else if args.aa {
        compare::aa(&args)
    } else if args.all {
        compare::all(&args)
    } else {
        run_workload(&args).map(|outcome| {
            for line in &outcome.notes {
                eprintln!("{line}");
            }
            let units: Vec<(&str, &str)> = if args.trace {
                layers::PER_LAYER.to_vec()
            } else {
                spec::END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
            };
            // A batch run's child has printed its report already.
            if args.units_child.is_none() {
                println!("{}", outcome.to_json(&units));
            }
            true
        })
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}
