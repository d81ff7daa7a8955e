//! The four online workloads: query text in, `parse_query` then
//! `DurableSharedEngine::submit`, closed loop or open loop, then a crash
//! and a recovery.

use crate::gen::{self, Arrivals, Body, Stream, Traffic};
use crate::oracle;
use crate::procfs::{self, CpuSampler};
use crate::spec::{self, Online, Workload};
use crate::stats::{self, Op};
use crate::sut::{self, Db, Delivery, Durable, DurableConfig, Query, Sync};
use crate::{layers, Outcome, Run, WorkDir};
use std::path::Path;
use std::time::{Duration, Instant};

/// Everything a run feeds the engine, generated from the seed.
pub struct Inputs {
    /// Untimed: window fill of every client, then the cycles.
    pub warm: Arrivals,
    /// Timed arrivals, one list per client.
    pub timed: Vec<Arrivals>,
}

pub fn build_db(body: Body) -> Db {
    let mut db = Db::new();
    match body {
        Body::Pool { rows } => {
            db.create_table("S", &["id", "tag"]);
            gen::pool_rows(rows, |row| db.insert("S", row));
        }
        Body::Activity { rows } => {
            db.create_table("A", &["id", "topic", "day"]);
            gen::activity_rows(rows, |row| db.insert("A", row));
        }
    }
    db
}

pub fn generate(o: &Online, seed: u64, seconds: u64) -> Inputs {
    let per_client = o.arrivals_per_s * seconds as usize / o.clients;
    let mut warm = Arrivals::default();
    let mut timed = Vec::new();
    for client in 0..o.clients {
        let mut stream = Stream::new(
            seed,
            Traffic {
                window: o.window / o.clients,
                client: client as u64,
                clients: o.clients as u64,
                cycles: o.cycles,
                body: o.body,
            },
        );
        warm.extend(stream.warm_up());
        timed.push(stream.take(per_client));
    }
    Inputs { warm, timed }
}

pub fn durable_config(o: &Online, trace_capacity: Option<usize>) -> DurableConfig {
    DurableConfig {
        shards: spec::SHARDS,
        sync: o.sync,
        snapshot_every: Some(spec::SNAPSHOT_EVERY),
        trace_capacity,
    }
}

/// Timestamps of one request, in nanoseconds since the section began.
/// `due` is when it should have been sent (equal to `start` in a closed
/// loop), `parsed` separates the `parse` span from the `submit` span.
#[derive(Clone, Copy, Debug)]
pub struct OpLog {
    pub due: u64,
    pub start: u64,
    pub parsed: u64,
    pub done: u64,
    /// Nanoseconds an open-loop worker spun waiting for `due`: CPU the
    /// load generator burnt, to be left out of `cpu_us_per_op`.
    pub spin: u64,
}

/// What one client saw.
#[derive(Default)]
pub struct ClientLog {
    pub ops: Vec<OpLog>,
    /// `(arrival index, answers)` of every submit that delivered.
    pub deliveries: Vec<(usize, Delivery)>,
    /// `(arrival index, error)` of every submit the program refused.
    pub errors: Vec<(usize, String)>,
    /// Process CPU time, sampled each second by the first client.
    pub cpu: Option<CpuSampler>,
}

#[derive(Clone, Copy, Debug)]
pub enum Pace {
    /// Next request as soon as the previous one returned, until `until_ns`.
    Closed { until_ns: u64 },
    /// Request `k` is due at `due_ns(k, worker, workers, rate)`; the
    /// schedule ends at `until_ns` and is drained until `give_up_ns`.
    Open {
        rate: u64,
        worker: u64,
        workers: u64,
        until_ns: u64,
        give_up_ns: u64,
    },
}

/// Wait for a due time; returns the nanoseconds spent spinning. Sleep
/// through most of a long wait and spin through the rest: a sleeping
/// worker wakes tens of microseconds late. The spin burns CPU that is
/// the load generator's, not the program's, so it is handed back to be
/// taken out of `cpu_us_per_op`.
fn wait_until(clock: Instant, due_ns: u64) -> u64 {
    let mut spin_from = None;
    loop {
        let now = clock.elapsed().as_nanos() as u64;
        if now >= due_ns {
            return spin_from.map_or(0, |from| now - from);
        }
        if due_ns - now > 300_000 {
            std::thread::sleep(Duration::from_nanos(due_ns - now - 200_000));
        } else {
            spin_from.get_or_insert(now);
            std::hint::spin_loop();
        }
    }
}

/// One client: parse and submit `texts` in order at the given pace.
pub fn run_client(
    texts: &[String],
    clock: Instant,
    pace: Pace,
    sample_cpu: bool,
    mut submit: impl FnMut(Query) -> Result<Delivery, String>,
) -> ClientLog {
    let mut log = ClientLog {
        cpu: sample_cpu.then(CpuSampler::start),
        ..ClientLog::default()
    };
    log.ops.reserve(texts.len());
    for (i, text) in texts.iter().enumerate() {
        let (due, start, spin) = match pace {
            Pace::Closed { until_ns } => {
                let now = clock.elapsed().as_nanos() as u64;
                if now >= until_ns {
                    break;
                }
                (now, now, 0)
            }
            Pace::Open {
                rate,
                worker,
                workers,
                until_ns,
                give_up_ns,
            } => {
                let due = stats::due_ns(i as u64, worker, workers, rate);
                if due >= until_ns || clock.elapsed().as_nanos() as u64 >= give_up_ns {
                    break;
                }
                let spin = wait_until(clock, due);
                (due, clock.elapsed().as_nanos() as u64, spin)
            }
        };
        let parsed = sut::parse(text);
        let t_parsed = clock.elapsed().as_nanos() as u64;
        let result = parsed.and_then(&mut submit);
        let done = clock.elapsed().as_nanos() as u64;
        log.ops.push(OpLog {
            due,
            start,
            parsed: t_parsed,
            done,
            spin,
        });
        if let Some(cpu) = &mut log.cpu {
            cpu.poll(done);
        }
        match result {
            Ok(d) if d.is_empty() => {}
            Ok(d) => log.deliveries.push((i, d)),
            Err(e) => log.errors.push((i, e)),
        }
    }
    if let Some(cpu) = &mut log.cpu {
        cpu.finish(clock.elapsed().as_nanos() as u64);
    }
    log
}

/// Submit the warm-up from this thread; returns the refusals (none, on
/// a correct program: nothing in a warm-up delivers or fails).
pub fn warm_up(
    warm: &Arrivals,
    body: Body,
    mut submit: impl FnMut(Query) -> Result<Delivery, String>,
) -> Vec<String> {
    let mut problems = Vec::new();
    for (text, &meta) in warm.texts.iter().zip(&warm.meta) {
        match sut::parse(text).and_then(&mut submit) {
            Ok(d) => {
                if let Err(e) = oracle::check_delivery(meta, body, &d) {
                    problems.push(format!("warm-up: {e}"));
                }
            }
            Err(e) => problems.push(format!("warm-up `{}`: {e}", oracle::name_of(text))),
        }
    }
    problems
}

/// One thread per client, all on one clock: client `w` parses and
/// submits `texts[w]` at pace `pace_of(w)`. The first client also samples
/// the process's CPU time. Returns the logs and the wall seconds taken.
pub fn run_clients(
    engine: &Durable<'_>,
    texts: &[&[String]],
    pace_of: impl Fn(usize) -> Pace,
) -> (Vec<ClientLog>, f64) {
    let clock = Instant::now();
    let logs: Vec<ClientLog> = std::thread::scope(|s| {
        let handles: Vec<_> = texts
            .iter()
            .enumerate()
            .map(|(w, &texts)| {
                let pace = pace_of(w);
                s.spawn(move || run_client(texts, clock, pace, w == 0, |q| engine.submit(q)))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    (logs, clock.elapsed().as_secs_f64())
}

/// The timed section of a workload: closed loop, or open loop at the
/// workload's rate, for `seconds`.
pub fn timed_section(
    engine: &Durable<'_>,
    o: &Online,
    timed: &[Arrivals],
    seconds: f64,
) -> (Vec<ClientLog>, f64) {
    let until_ns = (seconds * 1e9) as u64;
    let texts: Vec<&[String]> = timed.iter().map(|a| a.texts.as_slice()).collect();
    run_clients(engine, &texts, |w| match o.open_rate {
        None => Pace::Closed { until_ns },
        Some(rate) => Pace::Open {
            rate,
            worker: w as u64,
            workers: timed.len() as u64,
            until_ns,
            give_up_ns: until_ns + 5_000_000_000,
        },
    })
}

/// Closed-form check of everything the clients saw, plus the pending set
/// the engine must be left with. Returns the problems found.
pub fn check_logs(
    inputs: &Inputs,
    logs: &[ClientLog],
    body: Body,
    pending_now: &[String],
) -> Vec<String> {
    let empty = Delivery::default();
    let mut problems = Vec::new();
    let mut expect_pending: Vec<&str> = inputs
        .warm
        .texts
        .iter()
        .map(|t| oracle::name_of(t))
        .collect();
    let mut delivered: Vec<&str> = Vec::new();
    for (arrivals, log) in inputs.timed.iter().zip(logs) {
        let mut deliveries = log.deliveries.iter().peekable();
        for i in 0..log.ops.len() {
            if log.errors.iter().any(|(e, _)| *e == i) {
                continue;
            }
            expect_pending.push(oracle::name_of(&arrivals.texts[i]));
            let got = match deliveries.peek() {
                Some((at, d)) if *at == i => {
                    deliveries.next();
                    d
                }
                _ => &empty,
            };
            if let Err(e) = oracle::check_delivery(arrivals.meta[i], body, got) {
                problems.push(e);
            }
            delivered.extend(got.answers().map(|(name, _)| name));
        }
        for (i, e) in &log.errors {
            problems.push(format!(
                "`{}` refused: {e}",
                oracle::name_of(&arrivals.texts[*i])
            ));
        }
    }
    // Pending = submitted − delivered, as multisets.
    let stray = oracle::multiset_diff(
        expect_pending.iter().copied(),
        delivered
            .iter()
            .copied()
            .chain(pending_now.iter().map(String::as_str)),
    );
    if stray > 0 {
        problems.push(format!(
            "pending set is off by {stray} names from submitted − delivered"
        ));
    }
    problems
}

/// What the crash and the reopens found.
pub struct Recovery {
    /// Names in the live pending set but not the recovered one, or the
    /// reverse: acknowledged submits the crash lost (or resurrected).
    pub lost: usize,
    pub median_ms: f64,
    pub discarded_bytes: u64,
    pub replayed_records: usize,
}

/// Crash the engine and reopen it `reopens` times. The crash is a drop
/// (a process crash: the page cache survives); under `EveryRecord` every
/// stream is first cut back to its length at the last acknowledged
/// submit, so recovery sees only bytes that were flushed.
pub fn crash_and_recover(
    engine: Durable<'_>,
    db: &Db,
    dir: &Path,
    cfg: DurableConfig,
    reopens: usize,
) -> Result<Recovery, String> {
    let live = engine.pending_names();
    let acked = engine.stream_lens();
    drop(engine);
    let discarded_bytes = if cfg.sync == Sync::EveryRecord {
        oracle::cut_to_last_ack(dir, &acked).map_err(|e| e.to_string())?
    } else {
        0
    };
    let mut times = Vec::new();
    let mut lost = 0;
    let mut replayed_records = 0;
    for i in 0..reopens {
        let t = Instant::now();
        let reopened = Durable::open(db, dir, cfg)?;
        times.push(t.elapsed().as_secs_f64() * 1e3);
        if i == 0 {
            let recovered = reopened.pending_names();
            lost = oracle::multiset_diff(
                live.iter().map(String::as_str),
                recovered.iter().map(String::as_str),
            );
            replayed_records = reopened.replayed_records();
        }
    }
    Ok(Recovery {
        lost,
        median_ms: stats::median_f64(&times),
        discarded_bytes,
        replayed_records,
    })
}

/// CPU per submit: a quiet one-second window's process CPU time,
/// less what open-loop workers spent spinning, over the submits that
/// completed in the window.
pub fn cpu_us_per_op(logs: &[ClientLog]) -> Option<f64> {
    let cpu = logs.first()?.cpu.as_ref()?;
    cpu.quiet_us_per_op(|from, to| {
        let mut ops = 0;
        let mut spin_ns = 0;
        for op in logs.iter().flat_map(|l| &l.ops) {
            if op.done > from && op.done <= to {
                ops += 1;
                spin_ns += op.spin;
            }
        }
        (ops, spin_ns / 1000)
    })
}

pub fn ops_of(logs: &[ClientLog]) -> Vec<Op> {
    logs.iter()
        .flat_map(|l| l.ops.iter())
        .map(|o| Op {
            done_ns: o.done,
            latency_ns: o.done - o.due,
        })
        .collect()
}

/// Open an engine on `dir` and submit the warm-up. Returns the engine and
/// whatever the warm-up got wrong.
pub fn set_up<'a>(
    o: &Online,
    db: &'a Db,
    inputs: &Inputs,
    dir: &Path,
    trace_capacity: Option<usize>,
) -> Result<(Durable<'a>, Vec<String>), String> {
    let engine = Durable::open(db, dir, durable_config(o, trace_capacity))?;
    let problems = warm_up(&inputs.warm, o.body, |q| engine.submit(q));
    Ok((engine, problems))
}

pub fn run(w: &Workload, o: &Online, run: &Run, work: &WorkDir) -> Result<Outcome, String> {
    // Set up several times and report the second fastest (of three, the
    // median): one set-up is a single sample of a second or two, too few
    // to hold a bound. The last set-up is the one the run measures.
    let mut setup_times = Vec::new();
    loop {
        let t = Instant::now();
        let db = build_db(o.body);
        let inputs = generate(o, run.seed, run.seconds);
        let dir = work.fresh("engine")?;
        let (engine, warm_problems) = set_up(o, &db, &inputs, &dir, None)?;
        setup_times.push(t.elapsed().as_secs_f64());
        if spec::enough_setups(&setup_times, run.setup_once) {
            let mut out = Outcome::default();
            out.fail_each(warm_problems);
            let ready = Ready {
                db: &db,
                inputs: &inputs,
                dir: &dir,
                setup_s: stats::quiet_low(&setup_times),
            };
            measure(w, o, run, work, &ready, engine, &mut out)?;
            return Ok(out);
        }
    }
}

/// A finished set-up, minus the engine.
struct Ready<'a> {
    db: &'a Db,
    inputs: &'a Inputs,
    dir: &'a Path,
    setup_s: f64,
}

fn measure(
    w: &Workload,
    o: &Online,
    run: &Run,
    work: &WorkDir,
    ready: &Ready<'_>,
    engine: Durable<'_>,
    out: &mut Outcome,
) -> Result<(), String> {
    let Run { seconds, trace, .. } = *run;
    let Ready {
        db,
        inputs,
        dir,
        setup_s,
    } = *ready;

    // With tracing on, the first half of the time is this same untraced
    // section: the base the traced half is compared against.
    let section_s = if trace {
        seconds as f64 / 2.0
    } else {
        seconds as f64
    };
    let wchar0 = procfs::written_bytes();
    let (logs, wall_s) = timed_section(&engine, o, &inputs.timed, section_s);
    let written = procfs::written_bytes() - wchar0;

    let pending = engine.pending_names();
    out.fail_each(check_logs(inputs, &logs, o.body, &pending));
    let counters = engine.counters();
    let reopens = if trace { 5 } else { 1 };
    let recovery = crash_and_recover(engine, db, dir, durable_config(o, None), reopens)?;
    out.fail(
        recovery.lost as u64,
        "acknowledged submits lost (or resurrected) by the crash",
    );

    let ops = ops_of(&logs);
    let n = ops.len() as u64;
    out.attempted = n + inputs.warm.len() as u64;
    let sliced = stats::slice_by_second(&ops, o.tail_pct).ok_or("no submit completed")?;
    out.note(format!(
        "{}: {n} submits in {wall_s:.2} s, {} one-second slices of at least {} samples; \
         pending {} at the crash, {} rotations, the crash discarded {} unflushed bytes, recovery replayed {} \
         records; per-second rates {:?}",
        w.name,
        sliced.slices,
        sliced.min_count,
        pending.len(),
        counters.snapshots_taken,
        recovery.discarded_bytes,
        recovery.replayed_records,
        sliced.rates,
    ));
    if stats::samples_beyond(sliced.min_count, o.tail_pct) < 10 {
        out.note(format!(
            "warning: p{} has fewer than ten samples beyond it in some slice",
            o.tail_pct
        ));
    }

    let cpu_per_op = cpu_us_per_op(&logs).ok_or("no CPU sample in the timed section")?;
    if trace {
        let base = layers::Base {
            per_submit_ns: layers::section_submit_ns(&logs),
            logs: &logs,
            written_per_submit: written as f64 / n.max(1) as f64,
            recovery: &recovery,
            counters,
            cpu_us_per_op: cpu_per_op,
        };
        let traced = layers::OnlineRun {
            w,
            o,
            seconds,
            db,
            inputs,
            work,
        };
        layers::online(&traced, &base, out)?;
    } else {
        out.metric("setup_s", setup_s);
        out.metric("ops_per_s", sliced.rate_per_s);
        out.metric("cpu_us_per_op", cpu_per_op);
        out.metric("latency_p50_us", sliced.p50_ns / 1e3);
        out.metric("latency_tail_us", sliced.tail_ns / 1e3);
        out.metric("peak_rss_mb", procfs::peak_rss_mb());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small two-client `EveryRecord` run through the real engine: the
    /// closed-form oracle accepts it, notices a tampered transcript, and
    /// the cut-to-last-ack crash loses nothing.
    #[test]
    fn small_stream_passes_the_oracle_and_survives_the_crash() {
        let o = Online {
            clients: 2,
            sync: Sync::EveryRecord,
            window: 16,
            cycles: 0,
            body: Body::Pool { rows: 2000 },
            open_rate: None,
            tail_pct: 99.0,
            arrivals_per_s: 600,
        };
        let db = build_db(o.body);
        let inputs = generate(&o, 5, 1);
        let dir = crate::out_dir().join(format!("test-online-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let (engine, warm_problems) = set_up(&o, &db, &inputs, &dir, None).unwrap();
        assert_eq!(warm_problems, Vec::<String>::new());

        let (mut logs, _) = timed_section(&engine, &o, &inputs.timed, 30.0);
        assert_eq!(logs[0].ops.len(), 300, "the whole list fits in the time");
        let delivered: usize = logs.iter().map(|l| l.deliveries.len()).sum();
        assert!(delivered > 10, "{delivered} keystones delivered");
        let pending = engine.pending_names();
        assert_eq!(
            check_logs(&inputs, &logs, o.body, &pending),
            Vec::<String>::new()
        );

        let recovery = crash_and_recover(engine, &db, &dir, durable_config(&o, None), 2).unwrap();
        assert_eq!(recovery.lost, 0);
        assert!(recovery.median_ms > 0.0);

        // A delivery credited to the submit before it: a member that
        // delivers, a keystone that does not, and a pending set that no
        // longer adds up are each a problem.
        logs[0].deliveries[0].0 -= 1;
        assert!(check_logs(&inputs, &logs, o.body, &pending).len() >= 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_loop_keeps_its_schedule() {
        let texts: Vec<String> = (0..50).map(|i| format!("not a query {i}")).collect();
        let clock = Instant::now();
        let pace = Pace::Open {
            rate: 1000,
            worker: 1,
            workers: 2,
            until_ns: 40_000_000,
            give_up_ns: 1_000_000_000,
        };
        let log = run_client(&texts, clock, pace, false, |_| Ok(Delivery::default()));
        // Worker 1 of 2 at 1000/s: due at 1, 3, 5, … ms; 20 fit in 40 ms.
        assert_eq!(log.ops.len(), 20);
        assert_eq!(log.errors.len(), 20, "unparsable text is refused, not lost");
        for (k, op) in log.ops.iter().enumerate() {
            assert_eq!(op.due, (2 * k as u64 + 1) * 1_000_000);
            assert!(op.start >= op.due, "never sent early");
        }
    }
}
