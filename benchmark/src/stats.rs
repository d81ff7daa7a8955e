//! The arithmetic behind every reported number: percentiles, the
//! per-second slicing of a closed-loop run, the open-loop schedule, and
//! the quartile spread `--compare` judges by.

/// The `p`-th percentile (nearest rank) of an ascending slice.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly beyond the `p`-th percentile's rank. A percentile is
/// reported only with at least ten of them.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - ((p / 100.0) * n as f64).ceil() as usize
}

pub fn median_f64(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The second-best of a run's per-second (or per-window) readings: the
/// second lowest time, the second highest rate. Used instead of their
/// median wherever a timed section is cut into slices.
///
/// The build box shares its cores with other tenants, and runs in two
/// modes: alone on its cores, or next to a busy neighbour and a quarter
/// to a third slower, for seconds or minutes at a stretch. The noise is
/// one-sided — nothing ever makes a second faster than the quiet
/// machine — so the readings nearest the quiet machine are the lowest
/// times, and they repeat from run to run where the median follows
/// whichever mode the run happened to sit in (README, "Steadiness").
/// The very best reading is left out as a possible fluke.
///
/// What the program itself does every second is in every slice and
/// shows; what it does in fewer than nine seconds of ten does not.
pub fn quiet_low(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "no readings");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[1.min(v.len() - 1)]
}

pub fn quiet_high(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "no readings");
    let mut v = values.to_vec();
    v.sort_by(|a, b| b.total_cmp(a));
    v[1.min(v.len() - 1)]
}

/// One operation of a timed section: when it completed (nanoseconds
/// since the section began) and how long the caller waited for it.
#[derive(Clone, Copy, Debug)]
pub struct Op {
    pub done_ns: u64,
    pub latency_ns: u64,
}

/// What the per-second slices of a timed section say.
#[derive(Clone, Debug, PartialEq)]
pub struct Sliced {
    /// Whole seconds the section covered (a trailing part-second is
    /// dropped: its rate would be computed over a shorter window).
    pub slices: usize,
    /// Second highest of the per-second completion counts.
    pub rate_per_s: f64,
    /// Second lowest of the per-second latency percentiles.
    pub p50_ns: f64,
    pub tail_ns: f64,
    /// Smallest per-second sample count (decides whether the tail
    /// percentile had its ten samples in every slice).
    pub min_count: usize,
    /// Completions in each second, for the human reading the log.
    pub rates: Vec<f64>,
}

/// Cut a timed section into one-second slices by completion time and
/// report the second-best slice (see [`quiet_low`]).
pub fn slice_by_second(ops: &[Op], tail_pct: f64) -> Option<Sliced> {
    let end = ops.iter().map(|o| o.done_ns).max()?;
    // The ragged last part-second is dropped: its rate would be counted
    // over a shorter window. A section with no operation in any whole
    // second (a `--quick` smoke run, or one long first batch unit) is a
    // single slice as long as the section, its count scaled to a rate.
    let whole = (end / 1_000_000_000) as usize;
    let in_whole = ops
        .iter()
        .any(|o| ((o.done_ns / 1_000_000_000) as usize) < whole);
    let (slices, width_ns) = if in_whole {
        (whole, 1_000_000_000)
    } else {
        (1, end + 1)
    };
    let mut buckets: Vec<Vec<u64>> = vec![Vec::new(); slices];
    for op in ops {
        let s = (op.done_ns / width_ns) as usize;
        if s < slices {
            buckets[s].push(op.latency_ns);
        }
    }
    let mut rates = Vec::new();
    let mut p50s = Vec::new();
    let mut tails = Vec::new();
    for b in &mut buckets {
        rates.push(b.len() as f64 * 1e9 / width_ns as f64);
        if b.is_empty() {
            continue;
        }
        b.sort_unstable();
        p50s.push(percentile(b, 50.0) as f64);
        tails.push(percentile(b, tail_pct) as f64);
    }
    if p50s.is_empty() {
        return None;
    }
    Some(Sliced {
        slices,
        rate_per_s: quiet_high(&rates),
        p50_ns: quiet_low(&p50s),
        tail_ns: quiet_low(&tails),
        min_count: buckets.iter().map(Vec::len).min().unwrap_or(0),
        rates,
    })
}

/// Due time of the `k`-th request of an open-loop worker: worker `w` of
/// `workers` sends at `rate / workers`, offset by `w` slots, so the
/// workers together send one request every `1 / rate` seconds.
pub fn due_ns(k: u64, worker: u64, workers: u64, rate_per_s: u64) -> u64 {
    (k * workers + worker) * 1_000_000_000 / rate_per_s
}

/// Open-loop accounting for one request. `sent_ns` is when the worker
/// actually started it; a worker still busy with the previous request
/// starts late, and that wait is the user's, so latency counts from
/// `due_ns`. Lateness (`sent − due`) is reported on its own: it is
/// queueing when the program is slow and generator error when it is not.
pub fn open_loop_times(due_ns: u64, sent_ns: u64, done_ns: u64) -> (u64, u64) {
    (
        done_ns.saturating_sub(due_ns),
        sent_ns.saturating_sub(due_ns),
    )
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the exclusive method), so `--compare` judges spread exactly as the
/// driver does.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let q = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((q(1), q(2), q(3)))
}

/// Interquartile range as a share of the median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q2, q3) = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&[7], 99.0), 7);
        assert_eq!(percentile(&[1, 2, 3], 50.0), 2);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // p99 of 1000 samples leaves exactly ten beyond it; of 999, nine.
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(samples_beyond(999, 99.0), 9);
        assert_eq!(samples_beyond(20, 50.0), 10);
        assert_eq!(samples_beyond(100, 90.0), 10);
    }

    #[test]
    fn slices_take_the_median_second_and_drop_the_ragged_end() {
        let mut ops = Vec::new();
        // Second 0: 4 ops; second 1: 2 slow ops (a stall); second 2: 4
        // ops; then half a second more that must not count.
        for (sec, n, lat) in [(0u64, 4u64, 100u64), (1, 2, 9000), (2, 4, 100)] {
            for i in 0..n {
                ops.push(Op {
                    done_ns: sec * 1_000_000_000 + (i + 1) * 1000,
                    latency_ns: lat + i,
                });
            }
        }
        ops.push(Op {
            done_ns: 3_400_000_000,
            latency_ns: 1,
        });
        let s = slice_by_second(&ops, 99.0).unwrap();
        assert_eq!(s.slices, 3);
        // The stalled second is the odd one out on every count: the
        // second-best slice does not see it.
        assert_eq!(s.rates, vec![4.0, 2.0, 4.0]);
        assert_eq!(s.rate_per_s, 4.0);
        assert_eq!(s.p50_ns, 101.0);
        assert_eq!(s.tail_ns, 103.0);
        assert_eq!(s.min_count, 2);
        // Under a second: one slice, the count scaled to a rate.
        let short = slice_by_second(&ops[..4], 99.0).unwrap();
        assert_eq!(short.slices, 1);
        assert!((short.rate_per_s - 4.0 * 1e9 / 4001.0).abs() < 1e-6);
        assert!(slice_by_second(&[], 99.0).is_none());
        // One operation, ending after the first second: still a slice.
        let late = [Op {
            done_ns: 1_300_000_000,
            latency_ns: 1_300_000_000,
        }];
        assert_eq!(slice_by_second(&late, 50.0).unwrap().p50_ns, 1.3e9);
    }

    #[test]
    fn open_loop_counts_from_the_due_time() {
        // Two workers at 1000/s: a request every millisecond overall.
        assert_eq!(due_ns(0, 0, 2, 1000), 0);
        assert_eq!(due_ns(0, 1, 2, 1000), 1_000_000);
        assert_eq!(due_ns(1, 0, 2, 1000), 2_000_000);
        assert_eq!(due_ns(3, 1, 2, 1000), 7_000_000);
        // Sent 2 ms late, served in 1 ms: the user waited 3 ms.
        assert_eq!(
            open_loop_times(5_000_000, 7_000_000, 8_000_000),
            (3_000_000, 2_000_000)
        );
        // A worker that runs early (clock granularity) is not negative.
        assert_eq!(
            open_loop_times(5_000_000, 4_999_000, 5_200_000),
            (200_000, 0)
        );
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), Some((0.5, 2.0, 3.5)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(spread(&v), Some(1.0));
        assert_eq!(median_f64(&[4.0, 1.0, 3.0]), 3.0);
        assert_eq!(median_f64(&[4.0, 1.0]), 2.5);
        assert_eq!((quiet_low(&v), quiet_high(&v)), (2.0, 9.0));
        assert_eq!((quiet_low(&[5.0]), quiet_high(&[5.0])), (5.0, 5.0));
    }
}
