//! Everything above a single run: `--all` runs the suite and saves it,
//! `--compare A.json B.json` judges B against A with each metric's own
//! bound, `--aa` runs the suite twice and compares the two.

use crate::json::Json;
use crate::spec::{self, Better};
use crate::stats;
use crate::Args;
use std::path::PathBuf;
use std::process::{Command, Stdio};

/// Run one workload in a child process — so that CPU time, peak memory
/// and bytes written are that workload's alone — and parse the result
/// line it prints last.
fn run_child(
    workload: &str,
    seed: u64,
    seconds: u64,
    trace: bool,
    quick: bool,
) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit());
    if quick {
        cmd.arg("--quick");
    }
    let output = cmd.output().map_err(|e| e.to_string())?;
    if !output.status.success() {
        return Err(format!("{workload}: child exited with {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{workload}: no result line"))?;
    Json::parse(last).map_err(|e| format!("{workload}: bad result line: {e}"))
}

fn print_result(workload: &str, trace: bool, result: &Json) {
    let flag = |k: &str| result.get(k).map_or("?".to_string(), Json::to_string);
    println!(
        "\n{workload} ({}): correct {}, attempted {}, failed {}",
        if trace { "per layer" } else { "end to end" },
        flag("correct"),
        flag("attempted"),
        flag("failed")
    );
    for (name, m) in result.get("metrics").map_or(&[][..], Json::entries) {
        let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
        let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
        println!("  {name:<32} {value:>16.4} {unit}");
    }
}

/// Run the whole suite `runs` times (seeds `seed`, `seed + 1`, …): every
/// workload untraced each time, and traced once. Returns the saved form.
fn suite(args: &Args, runs: u64, traced: bool) -> Result<Json, String> {
    let seconds = if args.quick { 1 } else { args.seconds };
    let mut records = Vec::new();
    for w in &spec::WORKLOADS {
        for i in 0..runs {
            let result = run_child(w.name, args.seed + i, seconds, false, args.quick)?;
            print_result(w.name, false, &result);
            records.push(Json::obj(vec![
                ("workload", Json::Str(w.name.into())),
                ("seed", Json::Num((args.seed + i) as f64)),
                ("trace", Json::Num(0.0)),
                ("result", result),
            ]));
        }
        if traced {
            let result = run_child(w.name, args.seed, seconds, true, args.quick)?;
            print_result(w.name, true, &result);
            records.push(Json::obj(vec![
                ("workload", Json::Str(w.name.into())),
                ("seed", Json::Num(args.seed as f64)),
                ("trace", Json::Num(1.0)),
                ("result", result),
            ]));
        }
    }
    Ok(Json::obj(vec![
        ("seconds", Json::Num(seconds as f64)),
        // A quick run is a smoke test: one second, one set-up. Its
        // numbers are not comparable with anything, itself included.
        ("quick", Json::Bool(args.quick)),
        (
            "parallelism",
            Json::Num(std::thread::available_parallelism().map_or(0, usize::from) as f64),
        ),
        ("runs", Json::Arr(records)),
    ]))
}

fn save(suite: &Json, path: &PathBuf) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    }
    std::fs::write(path, format!("{suite}\n")).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("\nsaved {}", path.display());
    Ok(())
}

fn all_correct(suite: &Json) -> bool {
    suite
        .get("runs")
        .and_then(Json::as_arr)
        .is_some_and(|runs| {
            runs.iter()
                .all(|r| r.get("result").and_then(|x| x.get("correct")) == Some(&Json::Bool(true)))
        })
}

/// `--all`: every metric of every workload by name and unit, from one
/// command. Returns whether every output was correct.
pub fn all(args: &Args) -> Result<bool, String> {
    // A quick run is end to end only: the traced half would triple it.
    let result = suite(args, args.runs.unwrap_or(1), !args.quick)?;
    let path = args.out.as_ref().map_or_else(
        || crate::out_dir().join(format!("results-seed{}.json", args.seed)),
        PathBuf::from,
    );
    save(&result, &path)?;
    if args.quick {
        println!("quick run: a smoke test, not comparable with any other run");
    }
    Ok(all_correct(&result))
}

/// `(workload, metric)` and its value in every untraced run.
type Series = ((String, String), Vec<f64>);

/// End-to-end values of a saved suite.
fn values_of(suite: &Json) -> Result<Vec<Series>, String> {
    if suite.get("quick") == Some(&Json::Bool(true)) {
        return Err("a --quick result is a smoke test and cannot be compared".into());
    }
    let mut out: Vec<Series> = Vec::new();
    for run in suite
        .get("runs")
        .and_then(Json::as_arr)
        .ok_or("no `runs` array")?
    {
        if run.get("trace").and_then(Json::as_f64) != Some(0.0) {
            continue;
        }
        let workload = run
            .get("workload")
            .and_then(Json::as_str)
            .ok_or("run without workload")?;
        let metrics = run
            .get("result")
            .and_then(|r| r.get("metrics"))
            .ok_or("run without metrics")?;
        for (name, m) in metrics.entries() {
            let value = m
                .get("value")
                .and_then(Json::as_f64)
                .ok_or("metric without value")?;
            let key = (workload.to_string(), name.clone());
            match out.iter_mut().find(|(k, _)| *k == key) {
                Some((_, values)) => values.push(value),
                None => out.push((key, vec![value])),
            }
        }
    }
    Ok(out)
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Worse,
    /// Run-to-run spread is wider than the bound: the runs made cannot
    /// tell a regression from noise.
    Unresolved,
}

/// Judge one (workload, metric) pair: `b` against `a`. Returns how much
/// worse `b`'s median is, as a share of `a`'s, and the verdict.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> (f64, Verdict) {
    let (ma, mb) = (stats::median_f64(a), stats::median_f64(b));
    let worse_by = match better {
        Better::Lower => (mb - ma) / ma.abs(),
        Better::Higher => (ma - mb) / ma.abs(),
    };
    let wide = [a, b]
        .iter()
        .any(|v| stats::spread(v).is_some_and(|s| s > bound));
    let every_b_better = a.iter().all(|&x| {
        b.iter().all(|&y| match better {
            Better::Lower => y < x,
            Better::Higher => y > x,
        })
    });
    let verdict = if wide && !every_b_better {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::Same
    };
    (worse_by, verdict)
}

fn compare(a: &Json, b: &Json) -> Result<bool, String> {
    let (va, vb) = (values_of(a)?, values_of(b)?);
    if a.get("seconds") != b.get("seconds") {
        return Err("the two results measured for different lengths of time".into());
    }
    println!(
        "{:<16} {:<16} {:>14} {:>14} {:>9} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "A median", "B median", "worse by", "A iqr", "B iqr", "bound"
    );
    let mut any_worse = false;
    for ((workload, metric), xs) in &va {
        let Some((_, ys)) = vb.iter().find(|(k, _)| k.0 == *workload && k.1 == *metric) else {
            return Err(format!("B has no {workload}/{metric}"));
        };
        let Some(m) = spec::END_TO_END.iter().find(|m| m.name == metric) else {
            return Err(format!("`{metric}` is not an end-to-end metric"));
        };
        let (worse_by, verdict) = judge(xs, ys, m.better, m.bound);
        any_worse |= verdict == Verdict::Worse;
        let iqr =
            |v: &[f64]| stats::spread(v).map_or("-".to_string(), |s| format!("{:.1}%", s * 100.0));
        println!(
            "{workload:<16} {metric:<16} {:>14.3} {:>14.3} {:>8.1}% {:>8} {:>8} {:>5.0}%  {}",
            stats::median_f64(xs),
            stats::median_f64(ys),
            worse_by * 100.0,
            iqr(xs),
            iqr(ys),
            m.bound * 100.0,
            match verdict {
                Verdict::Same => "same",
                Verdict::Worse => "WORSE",
                Verdict::Unresolved => "unresolved",
            }
        );
    }
    Ok(!any_worse)
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// `--compare A.json B.json`. Returns whether no metric got worse.
pub fn compare_files(a: &str, b: &str) -> Result<bool, String> {
    compare(&load(a)?, &load(b)?)
}

/// `--aa`: the same code measured twice must agree with itself.
pub fn aa(args: &Args) -> Result<bool, String> {
    if args.quick {
        return Err("--aa compares, and a --quick run cannot be compared".into());
    }
    let runs = args.runs.unwrap_or(3);
    let a = suite(args, runs, false)?;
    save(&a, &crate::out_dir().join("aa-first.json"))?;
    let b = suite(args, runs, false)?;
    save(&b, &crate::out_dir().join("aa-second.json"))?;
    println!();
    Ok(compare(&a, &b)? && all_correct(&a) && all_correct(&b))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let steady = [100.0, 101.0, 99.0, 100.5];
        // 4 % slower, bound 10 %: same.
        let (by, v) = judge(&steady, &[104.0, 105.0, 103.0, 104.5], Better::Lower, 0.10);
        assert!((by - 0.0399).abs() < 1e-3, "{by}");
        assert_eq!(v, Verdict::Same);
        // 20 % slower: worse. For a rate, 20 % *lower* is worse.
        assert_eq!(
            judge(&steady, &[120.0, 121.0, 119.0, 120.0], Better::Lower, 0.10).1,
            Verdict::Worse
        );
        assert_eq!(
            judge(&steady, &[80.0, 81.0, 79.0, 80.0], Better::Higher, 0.10).1,
            Verdict::Worse
        );
        assert_eq!(
            judge(&steady, &[80.0, 81.0, 79.0, 80.0], Better::Lower, 0.10).1,
            Verdict::Same
        );
        // Spread wider than the bound: cannot tell…
        let noisy = [100.0, 140.0, 80.0, 120.0];
        assert_eq!(
            judge(&steady, &noisy, Better::Lower, 0.10).1,
            Verdict::Unresolved
        );
        // …unless every run of B beats every run of A.
        assert_eq!(
            judge(&noisy, &[50.0, 60.0, 55.0, 52.0], Better::Lower, 0.10).1,
            Verdict::Same
        );
        // One run a side has no spread to speak of: the bound decides.
        assert_eq!(
            judge(&[100.0], &[130.0], Better::Lower, 0.25).1,
            Verdict::Worse
        );
    }

    #[test]
    fn saved_suites_read_back_and_quick_ones_are_refused() {
        let result = Json::parse(
            r#"{"correct": true, "attempted": 10, "failed": 0,
                "metrics": {"setup_s": {"value": 0.5, "unit": "s"}, "ops_per_s": {"value": 900, "unit": "1/s"}}}"#,
        )
        .unwrap();
        let run = |trace: f64| {
            Json::obj(vec![
                ("workload", Json::Str("batch-scc".into())),
                ("seed", Json::Num(1.0)),
                ("trace", Json::Num(trace)),
                ("result", result.clone()),
            ])
        };
        let suite = |quick| {
            Json::obj(vec![
                ("seconds", Json::Num(10.0)),
                ("quick", Json::Bool(quick)),
                ("runs", Json::Arr(vec![run(0.0), run(0.0), run(1.0)])),
            ])
        };
        let reread = Json::parse(&suite(false).to_string()).unwrap();
        let values = values_of(&reread).unwrap();
        assert_eq!(values.len(), 2, "traced runs are not end-to-end values");
        assert_eq!(
            values[1],
            (("batch-scc".into(), "ops_per_s".into()), vec![900.0, 900.0])
        );
        assert!(all_correct(&reread));
        assert!(compare(&reread, &reread).unwrap());
        assert!(values_of(&suite(true)).is_err());
    }
}
