//! The two batch workloads: the paper's algorithms called directly, with
//! no engine, shards or log in the way.
//!
//! A unit does the same work on the same input every time, so whatever
//! makes one unit slower than another is not the input. Two things do, on
//! the build box. Other tenants slow the machine down for seconds at a
//! time. And the program itself: every call builds fresh `HashMap`s with
//! fresh hash keys, and the cost of a call moves between a few levels
//! 10 % apart with them (`batch-consistent`: 360, 400, 440 or 480 µs of
//! CPU per query, same binary, same seed, ASLR on or off), with a bias
//! that lasts the life of the process. Taking the fastest units of a run
//! removes the first; only many units in many processes reach the
//! cheapest level every time. So an end-to-end batch run is a parent that
//! runs its units in several child processes, one after the other, and
//! reports the second fastest unit of them all (`stats::quiet_low`).

use crate::gen::{self, ConsistentBatch, SccBatch, POOL_ROWS};
use crate::json::Json;
use crate::layers;
use crate::procfs::{self, CpuSampler};
use crate::spans::Spans;
use crate::spec::Workload;
use crate::stats;
use crate::sut::{self, Consistent, ConsistentResult, Db, Query, SccCounts};
use crate::{Outcome, Run, WorkDir};
use std::process::{Command, Stdio};
use std::time::Instant;

pub fn pool_db() -> Db {
    let mut db = Db::new();
    db.create_table("S", &["id", "tag"]);
    gen::pool_rows(POOL_ROWS, |row| db.insert("S", row));
    db
}

fn parse_all(texts: &[String]) -> Result<Vec<Query>, String> {
    texts.iter().map(|t| sut::parse(t)).collect()
}

/// The timed section of one process: whole units until the time is up.
struct Units {
    /// Wall nanoseconds of each unit.
    ns: Vec<u64>,
    /// Nanoseconds of this thread's CPU time in each unit, where the
    /// kernel tells (`procfs::thread_cpu_ns`).
    cpu_ns: Vec<u64>,
    /// When each unit ended on the section's clock, and the process's CPU
    /// time sampled about once a second: the fallback for `cpu_ns`.
    ends: Vec<u64>,
    cpu: CpuSampler,
}

impl Units {
    fn run(millis: u64, mut unit: impl FnMut(u64) -> Result<(), String>) -> Result<Self, String> {
        let mut units = Units {
            ns: Vec::new(),
            cpu_ns: Vec::new(),
            ends: Vec::new(),
            cpu: CpuSampler::start(),
        };
        let clock = Instant::now();
        while clock.elapsed().as_millis() < u128::from(millis) {
            let cpu0 = procfs::thread_cpu_ns();
            let t = Instant::now();
            unit(units.ns.len() as u64)?;
            units.ns.push(t.elapsed().as_nanos() as u64);
            if let (Some(from), Some(to)) = (cpu0, procfs::thread_cpu_ns()) {
                units.cpu_ns.push(to - from);
            }
            let end = clock.elapsed().as_nanos() as u64;
            units.ends.push(end);
            units.cpu.poll(end);
        }
        units.cpu.finish(clock.elapsed().as_nanos() as u64);
        Ok(units)
    }

    fn wall_s(&self) -> f64 {
        self.ends.last().map_or(0.0, |&e| e as f64 / 1e9)
    }

    /// CPU per query from the once-a-second samples of process CPU time:
    /// what is reported where the kernel keeps no per-thread times.
    fn window_cpu_us_per_op(&self, queries_per_unit: usize) -> f64 {
        self.cpu
            .quiet_us_per_op(|from, to| {
                let units = self.ends.iter().filter(|&&e| e > from && e <= to).count();
                ((units * queries_per_unit) as u64, 0)
            })
            .unwrap_or(0.0)
    }
}

/// What one process found, in a form a parent can pool: one line of JSON
/// on the child's standard output.
struct Report {
    ns: Vec<u64>,
    cpu_ns: Vec<u64>,
    window_cpu_us_per_op: f64,
    setup_s: f64,
    rss_mb: f64,
    attempted: u64,
    failed: u64,
    /// The outcome every process must agree on, as text.
    digest: String,
}

impl Report {
    fn new(
        units: &Units,
        queries_per_unit: usize,
        setup_s: f64,
        out: &Outcome,
        digest: String,
    ) -> Self {
        Report {
            ns: units.ns.clone(),
            cpu_ns: units.cpu_ns.clone(),
            window_cpu_us_per_op: units.window_cpu_us_per_op(queries_per_unit),
            setup_s,
            rss_mb: procfs::peak_rss_mb(),
            attempted: out.attempted,
            failed: out.failed,
            digest,
        }
    }

    fn to_json(&self) -> Json {
        let nums = |v: &[u64]| Json::Arr(v.iter().map(|&n| Json::Num(n as f64)).collect());
        Json::obj(vec![
            ("ns", nums(&self.ns)),
            ("cpu_ns", nums(&self.cpu_ns)),
            ("window_cpu_us_per_op", Json::Num(self.window_cpu_us_per_op)),
            ("setup_s", Json::Num(self.setup_s)),
            ("rss_mb", Json::Num(self.rss_mb)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("digest", Json::Str(self.digest.clone())),
        ])
    }

    fn from_json(j: &Json) -> Option<Self> {
        let nums = |key: &str| -> Option<Vec<u64>> {
            j.get(key)?
                .as_arr()?
                .iter()
                .map(|n| n.as_f64().map(|f| f as u64))
                .collect()
        };
        let num = |key: &str| j.get(key)?.as_f64();
        Some(Report {
            ns: nums("ns")?,
            cpu_ns: nums("cpu_ns")?,
            window_cpu_us_per_op: num("window_cpu_us_per_op")?,
            setup_s: num("setup_s")?,
            rss_mb: num("rss_mb")?,
            attempted: num("attempted")? as u64,
            failed: num("failed")? as u64,
            digest: j.get("digest")?.as_str()?.to_string(),
        })
    }
}

/// The six end-to-end metrics from the pooled reports of every process.
/// A call is a unit and an operation one of its queries; with a handful
/// of units a second there is no tail to speak of, and `latency_tail_us`
/// repeats the unit time.
fn end_to_end(
    reports: &[Report],
    queries_per_unit: usize,
    out: &mut Outcome,
) -> Result<(), String> {
    let pooled = |pick: fn(&Report) -> &Vec<u64>| -> Vec<f64> {
        reports
            .iter()
            .flat_map(|r| pick(r).iter().map(|&n| n as f64))
            .collect()
    };
    let ns = pooled(|r| &r.ns);
    if ns.is_empty() {
        return Err("no unit completed".into());
    }
    let unit_ns = stats::quiet_low(&ns);
    let cpu_ns = pooled(|r| &r.cpu_ns);
    let cpu_us_per_op = if cpu_ns.len() == ns.len() {
        stats::quiet_low(&cpu_ns) / 1e3 / queries_per_unit as f64
    } else {
        let windows: Vec<f64> = reports.iter().map(|r| r.window_cpu_us_per_op).collect();
        stats::quiet_low(&windows)
    };
    let setups: Vec<f64> = reports.iter().map(|r| r.setup_s).collect();
    out.metric("setup_s", stats::quiet_low(&setups));
    out.metric("ops_per_s", queries_per_unit as f64 / (unit_ns / 1e9));
    out.metric("cpu_us_per_op", cpu_us_per_op);
    out.metric("latency_p50_us", unit_ns / 1e3);
    out.metric("latency_tail_us", unit_ns / 1e3);
    out.metric(
        "peak_rss_mb",
        reports.iter().map(|r| r.rss_mb).fold(0.0, f64::max),
    );
    Ok(())
}

/// The parent of an end-to-end batch run: the same workload, seed and
/// share of the time in each of `processes` children, one after the
/// other. Only the first verifies its outcome against the oracle in
/// full; all must agree on it.
fn fan_out(
    w: &Workload,
    run: &Run,
    processes: u64,
    queries_per_unit: usize,
) -> Result<Outcome, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut reports = Vec::new();
    let millis = (run.seconds * 1000 / processes).to_string();
    for k in 0..processes {
        let verify = if k == 0 { "verify" } else { "plain" };
        let output = Command::new(&exe)
            .args(["--workload", w.name])
            .args(["--seed", &run.seed.to_string()])
            .args(["--units-child", verify, &millis])
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| e.to_string())?;
        if !output.status.success() {
            return Err(format!(
                "{}: child {k} exited with {}",
                w.name, output.status
            ));
        }
        let stdout = String::from_utf8_lossy(&output.stdout);
        let report = stdout
            .lines()
            .last()
            .and_then(|line| Json::parse(line).ok())
            .and_then(|j| Report::from_json(&j))
            .ok_or_else(|| format!("{}: child {k} printed no report", w.name))?;
        reports.push(report);
    }
    let mut out = Outcome {
        attempted: reports.iter().map(|r| r.attempted).sum(),
        ..Outcome::default()
    };
    out.fail(
        reports.iter().map(|r| r.failed).sum(),
        "failures in the child processes (see above)",
    );
    let disagree = reports
        .iter()
        .filter(|r| r.digest != reports[0].digest)
        .count();
    out.fail(
        disagree as u64,
        "processes disagree on the outcome of one input",
    );
    end_to_end(&reports, queries_per_unit, &mut out)?;
    out.note(format!(
        "{}: {} units in {processes} processes",
        w.name,
        reports.iter().map(|r| r.ns.len()).sum::<usize>()
    ));
    Ok(out)
}

/// The paper's query-count identities for the two `batch-scc` shapes.
fn check_scc_counts(out: &mut Outcome, list: SccCounts, sf: SccCounts, n_list: usize, n_sf: usize) {
    // List chain: every suffix is a candidate, the whole chain wins, one
    // database query per component (= per query).
    if (list.found, list.best, list.db_queries, list.components) != (n_list, n_list, n_list, n_list)
    {
        out.fail(1, &format!("list chain identities broken: {list:?}"));
    }
    // Scale-free: acyclic, all bodies satisfiable — every closure
    // coordinates, one query per component, the best is the largest.
    if sf.found != n_sf || sf.db_queries != n_sf || sf.components != n_sf || sf.best == 0 {
        out.fail(1, &format!("scale-free identities broken: {sf:?}"));
    }
}

pub fn run_scc(
    w: &Workload,
    n_list: usize,
    n_sf: usize,
    processes: u64,
    run: &Run,
    work: &WorkDir,
) -> Result<Outcome, String> {
    let queries_per_unit = n_list + n_sf;
    if !run.trace && run.child.is_none() {
        return fan_out(w, run, processes, queries_per_unit);
    }
    let mut out = Outcome::default();
    let t = Instant::now();
    let (db, batch): (Db, SccBatch) = (pool_db(), gen::scc_batch(run.seed, n_list, n_sf));
    let setup_s = t.elapsed().as_secs_f64();

    // One unit: parse both instances, run the algorithm on each. The
    // spans are the driver's own, recorded around the calls it makes.
    let mut spans = Spans::new(run.trace);
    let mut counts: Option<(SccCounts, SccCounts)> = None;
    let mut counts_moved = 0;
    let units = Units::run(run.millis(), |unit| {
        let root = spans.begin("batch", None, unit);
        let got = if run.trace {
            let mut halves = Vec::new();
            for (name, texts) in [("list", &batch.list), ("scale_free", &batch.scale_free)] {
                let half = spans.begin(name, Some(root), unit);
                let s = spans.begin("parse", Some(half), unit);
                let qs = parse_all(texts)?;
                spans.end(s);
                let s = spans.begin("preprocess", Some(half), unit);
                let pre = sut::scc_preprocess(&db, &qs)?;
                spans.end(s);
                let s = spans.begin("sweep", Some(half), unit);
                let result = sut::scc_sweep(&db, pre)?;
                spans.end(s);
                spans.end(half);
                halves.push(result.counts());
            }
            (halves[0], halves[1])
        } else {
            let list = sut::scc_run(&db, &parse_all(&batch.list)?)?;
            let sf = sut::scc_run(&db, &parse_all(&batch.scale_free)?)?;
            (list.counts(), sf.counts())
        };
        spans.end(root);
        // Counts are a property of the input: they repeat exactly.
        counts_moved += u64::from(*counts.get_or_insert(got) != got);
        Ok(())
    })?;
    out.fail(
        counts_moved,
        "SccStats changed between two runs on one input",
    );
    let counts = counts.ok_or("no unit completed")?;
    check_scc_counts(&mut out, counts.0, counts.1, n_list, n_sf);
    out.attempted = (units.ns.len() * queries_per_unit) as u64;

    // Untimed: Definition 1 on every candidate set the algorithm returns.
    let list_q = parse_all(&batch.list)?;
    let sf_q = parse_all(&batch.scale_free)?;
    if run.child.is_none_or(|c| c.verify) {
        let list = sut::scc_run(&db, &list_q)?;
        let sf = sut::scc_run(&db, &sf_q)?;
        for (name, r) in [("list", &list), ("scale-free", &sf)] {
            if let Err(e) = r.verify(&db) {
                out.fail(1, &format!("{name}: not a coordinating set: {e}"));
            }
        }
        if counts != (list.counts(), sf.counts()) {
            out.fail(1, "timed runs and the verified run disagree on SccStats");
        }
    }
    out.note(format!(
        "{}: {} units of {n_list} + {n_sf} queries in {:.2} s; list {:?}; scale-free {:?}",
        w.name,
        units.ns.len(),
        units.wall_s(),
        counts.0,
        counts.1
    ));

    if run.trace {
        let traced = layers::BatchRun {
            w,
            db: &db,
            spans: &spans,
            unit_ns: &units.ns,
            cpu_us_per_op: units.window_cpu_us_per_op(queries_per_unit),
        };
        layers::batch_scc(&traced, &list_q, &sf_q, work, &mut out)?;
    }
    if run.child.is_some() {
        let report = Report::new(
            &units,
            queries_per_unit,
            setup_s,
            &out,
            format!("{counts:?}"),
        );
        println!("{}", report.to_json());
    }
    Ok(out)
}

pub fn consistent_db(batch: &ConsistentBatch) -> Db {
    let mut db = Db::new();
    db.create_table(
        "Fl",
        &["flightId", "destination", "day", "source", "airline"],
    );
    batch.flight_rows(|row| db.insert("Fl", row));
    db.create_table("Fr", &["user", "friend"]);
    batch.friend_rows(|row| db.insert("Fr", row));
    db
}

/// The §5 outcome against what the instance dictates.
fn check_consistent(out: &mut Outcome, batch: &ConsistentBatch, r: &ConsistentResult) {
    let n = batch.users;
    let want = batch.expected_best();
    if r.values_considered != batch.values {
        out.fail(
            1,
            &format!(
                "considered {} values, table has {}",
                r.values_considered, batch.values
            ),
        );
    }
    if r.assignment.len() != want {
        out.fail(
            1,
            &format!(
                "best set has {} members, instance allows {want}",
                r.assignment.len()
            ),
        );
    }
    // One option-list query and one friend lookup per query, one
    // grounding per member of the chosen set.
    if r.db_queries != 2 * n + r.assignment.len() {
        out.fail(
            1,
            &format!(
                "{} database queries, identity says {}",
                r.db_queries,
                2 * n + r.assignment.len()
            ),
        );
    }
    let Some((dest, day)) = &r.value else {
        out.fail(1, "no coordinating set found");
        return;
    };
    // Flight i is ("city{i}", day i, "src{i % 5}"): every member must
    // hold the one flight with the agreed (destination, day), and that
    // flight must leave from the member's pinned source.
    let agreed = *day;
    if *dest != format!("city{agreed}") {
        out.fail(1, &format!("agreed value ({dest}, {day}) is not a flight"));
    }
    for &(user, flight) in &r.assignment {
        if flight != agreed {
            out.fail(
                1,
                &format!("u{user} holds flight {flight}, the set agreed on {agreed}"),
            );
        }
        if let Some(pin) = batch.pins[user] {
            if pin != agreed as usize % gen::SOURCES {
                out.fail(
                    1,
                    &format!("u{user} pinned src{pin}, flight {agreed} leaves elsewhere"),
                );
            }
        }
    }
}

pub fn run_consistent(
    w: &Workload,
    users: usize,
    values: usize,
    processes: u64,
    run: &Run,
) -> Result<Outcome, String> {
    if !run.trace && run.child.is_none() {
        return fan_out(w, run, processes, users);
    }
    let mut out = Outcome::default();
    let t = Instant::now();
    let batch = gen::consistent_batch(run.seed, users, values);
    let db = consistent_db(&batch);
    let setup_s = t.elapsed().as_secs_f64();
    let instance = Consistent::new(&db, &batch.pins)?;

    let mut spans = Spans::new(run.trace);
    let mut first: Option<ConsistentResult> = None;
    let mut disagreed = 0;
    let units = Units::run(run.millis(), |unit| {
        let root = spans.begin("batch", None, unit);
        let s = spans.begin("consistent.run", Some(root), unit);
        let got = instance.run()?;
        spans.end(s);
        spans.end(root);
        disagreed += u64::from(*first.get_or_insert_with(|| got.clone()) != got);
        Ok(())
    })?;
    out.fail(disagreed, "two runs on one input disagree");
    let result = first.ok_or("no unit completed")?;
    check_consistent(&mut out, &batch, &result);
    out.attempted = (units.ns.len() * users) as u64;
    out.note(format!(
        "{}: {} units of {users} queries × {values} values in {:.2} s; best {} members at {:?}, {} database queries",
        w.name,
        units.ns.len(),
        units.wall_s(),
        result.assignment.len(),
        result.value,
        result.db_queries
    ));

    if run.trace {
        let traced = layers::BatchRun {
            w,
            db: &db,
            spans: &spans,
            unit_ns: &units.ns,
            cpu_us_per_op: units.window_cpu_us_per_op(users),
        };
        layers::batch_consistent(&traced, &batch, &instance, &result, &mut out)?;
    }
    if run.child.is_some() {
        let report = Report::new(&units, users, setup_s, &out, format!("{result:?}"));
        println!("{}", report.to_json());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(ns: &[u64], cpu_ns: &[u64], setup_s: f64, rss_mb: f64) -> Report {
        Report {
            ns: ns.to_vec(),
            cpu_ns: cpu_ns.to_vec(),
            window_cpu_us_per_op: 7.0,
            setup_s,
            rss_mb,
            attempted: 10,
            failed: 0,
            digest: "same".into(),
        }
    }

    #[test]
    fn reports_survive_the_pipe_and_pool_to_the_second_fastest_unit() {
        let slow = report(&[5_000_000, 5_100_000], &[4_000_000, 4_100_000], 0.3, 10.0);
        let fast = report(
            &[4_000_000, 4_200_000, 4_100_000],
            &[3_000_000, 3_300_000, 3_200_000],
            0.2,
            12.0,
        );
        let back = Report::from_json(&Json::parse(&fast.to_json().to_string()).unwrap()).unwrap();
        assert_eq!(
            (back.ns.clone(), back.digest.as_str()),
            (fast.ns.clone(), "same")
        );

        let mut out = Outcome::default();
        end_to_end(&[slow, back], 100, &mut out).unwrap();
        let metric = |name: &str| out.metrics.iter().find(|(n, _)| n == name).unwrap().1;
        assert_eq!(
            metric("latency_p50_us"),
            4100.0,
            "second fastest of all five"
        );
        assert_eq!(metric("ops_per_s"), 100.0 / 0.0041);
        assert_eq!(metric("cpu_us_per_op"), 32.0);
        assert_eq!(metric("setup_s"), 0.3, "second fastest of two set-ups");
        assert_eq!(metric("peak_rss_mb"), 12.0);

        // Without per-thread CPU times the sampled windows stand in.
        let mut out = Outcome::default();
        end_to_end(&[report(&[1, 2], &[], 0.1, 1.0)], 100, &mut out).unwrap();
        assert_eq!(out.metrics[2], ("cpu_us_per_op".to_string(), 7.0));
        assert!(end_to_end(&[], 100, &mut Outcome::default()).is_err());
    }
}
