//! What the kernel says about this process: CPU time, peak resident
//! memory, bytes handed to `write`. Read from `/proc/self`, so the
//! numbers cover the whole process — which is why `--all` runs every
//! workload in a child of its own.

use std::fs;

/// User + system CPU time of the process so far, in microseconds.
/// `/proc/self/stat` counts in clock ticks; Linux has fixed `USER_HZ`
/// at 100 on every architecture, so a tick is 10 ms — coarse, but a
/// timed section is a thousand ticks long.
pub fn cpu_us() -> u64 {
    let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may contain spaces; fields are counted
    // from the closing parenthesis. utime and stime are fields 14, 15.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next().and_then(|f| f.parse().ok()).unwrap_or(0);
    let stime: u64 = fields.next().and_then(|f| f.parse().ok()).unwrap_or(0);
    (utime + stime) * 10_000
}

/// CPU time of the calling thread so far, in nanoseconds, where the
/// kernel keeps scheduler statistics (`/proc/thread-self/schedstat`).
pub fn thread_cpu_ns() -> Option<u64> {
    fs::read_to_string("/proc/thread-self/schedstat")
        .ok()?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// CPU time sampled about once a second while a timed section runs, so
/// that CPU per operation can be reported as a quiet second's rather
/// than the whole section's (`stats::quiet_low`): a burst from a noisy
/// neighbour then costs a sample or two, not the result.
pub struct CpuSampler {
    next_ns: u64,
    /// `(nanoseconds since the section began, cpu_us())`.
    pub samples: Vec<(u64, u64)>,
}

impl CpuSampler {
    pub fn start() -> Self {
        CpuSampler {
            next_ns: 1_000_000_000,
            samples: vec![(0, cpu_us())],
        }
    }

    /// Call between operations with the section clock's reading.
    pub fn poll(&mut self, now_ns: u64) {
        if now_ns >= self.next_ns {
            self.samples.push((now_ns, cpu_us()));
            self.next_ns = now_ns + 1_000_000_000;
        }
    }

    /// Close the last window at the end of the section, unless it would
    /// be a sliver (under half a second) next to full ones.
    pub fn finish(&mut self, now_ns: u64) {
        let last = self.samples.last().map_or(0, |s| s.0);
        if self.samples.len() == 1 || now_ns - last >= 500_000_000 {
            self.samples.push((now_ns, cpu_us()));
        }
    }

    /// Second lowest, over the sampled windows, of `(Δcpu − idle) / operations`,
    /// where `window(from_ns, to_ns)` returns the operations completed
    /// in the window and the microseconds of CPU to leave out of it.
    pub fn quiet_us_per_op(&self, mut window: impl FnMut(u64, u64) -> (u64, u64)) -> Option<f64> {
        let per_op: Vec<f64> = self
            .samples
            .windows(2)
            .filter_map(|w| {
                let (ops, idle_us) = window(w[0].0, w[1].0);
                (ops > 0).then(|| (w[1].1 - w[0].1).saturating_sub(idle_us) as f64 / ops as f64)
            })
            .collect();
        (!per_op.is_empty()).then(|| crate::stats::quiet_low(&per_op))
    }
}

fn status_kb(key: &str) -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set size (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:").unwrap_or(0.0) / 1024.0
}

/// Bytes this process has passed to `write`-family calls (`wchar`): WAL
/// records *and* snapshots, unlike the store's own `bytes_appended`.
pub fn written_bytes() -> u64 {
    fs::read_to_string("/proc/self/io")
        .ok()
        .and_then(|io| {
            io.lines()
                .find_map(|l| l.strip_prefix("wchar:"))
                .and_then(|v| v.trim().parse().ok())
        })
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_see_this_process() {
        assert!(peak_rss_mb() > 0.5, "a running test has resident pages");
        let before = written_bytes();
        let file = crate::out_dir().join(format!("test-wchar-{}", std::process::id()));
        std::fs::create_dir_all(crate::out_dir()).unwrap();
        std::fs::write(&file, vec![b'x'; 4096]).unwrap();
        std::fs::remove_file(&file).unwrap();
        assert!(written_bytes() >= before + 4096);
        // Burn at least two ticks of CPU.
        let start = std::time::Instant::now();
        let mut x = 0u64;
        while start.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(cpu_us() >= 20_000, "cpu_us = {}", cpu_us());
        if let Some(ns) = thread_cpu_ns() {
            assert!(ns >= 20_000_000, "thread_cpu_ns = {ns}");
        }
    }

    #[test]
    fn sampler_reports_the_quiet_windows() {
        // Four one-second windows of 100 ops each costing 10, 10, 30 and
        // 10 ms of CPU; the third also carries 5 ms of generator spin.
        let sampler = CpuSampler {
            next_ns: 0,
            samples: vec![(0, 0), (1, 10_000), (2, 20_000), (3, 50_000), (4, 60_000)],
        };
        let per_op = sampler
            .quiet_us_per_op(|from, _| (100, if from == 2 { 5_000 } else { 0 }))
            .unwrap();
        assert_eq!(per_op, 100.0);
        assert!(sampler.quiet_us_per_op(|_, _| (0, 0)).is_none());
    }
}
