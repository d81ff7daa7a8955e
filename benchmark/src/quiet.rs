//! Re-measuring when the machine was evidently slow.
//!
//! The build box shares its cores with other tenants and is, for half a
//! minute to minutes at a stretch, a quarter to a third slower at
//! everything: CPU per operation, latency and throughput move together
//! (`online-fsync`, three runs in a row: 154 → 206 µs of CPU per submit,
//! 7 000 → 5 200 submits/s). Second-best slices take out what is shorter
//! than a run; nothing inside a run can take out what outlasts it, and
//! three such runs in ten put any spread past any bound.
//!
//! `cpu_us_per_op` is the steadiest thing a run measures (2–6 % between
//! quiet runs), so it doubles as the detector: each workload remembers,
//! in `benchmark/out/quiet-<workload>`, the lowest value it has reported
//! in this checkout, and a run that comes out more than 15 % above it is
//! measured once more, the attempt with the lower CPU cost being the one
//! reported. The numbers stay as measured; only which attempt is
//! reported is chosen. The memory lives in the checkout's ignored `out/`
//! directory, so two commits never share it, and re-measurements are
//! capped per checkout so that a box that is always noisy costs a bounded
//! amount of time.

use crate::Outcome;
use std::path::PathBuf;

/// A run this much above the workload's best-known CPU cost is retried.
const SLOW: f64 = 1.15;
/// Re-measurements a workload may spend in one checkout.
const RETRIES: u32 = 8;

pub struct Memory {
    path: PathBuf,
    best_cpu_us: Option<f64>,
    retries_used: u32,
}

fn cpu_of(outcome: &Outcome) -> Option<f64> {
    outcome
        .metrics
        .iter()
        .find(|(name, _)| name == "cpu_us_per_op")
        .map(|(_, v)| *v)
}

impl Memory {
    pub fn load(workload: &str) -> Self {
        let path = crate::out_dir().join(format!("quiet-{workload}"));
        let text = std::fs::read_to_string(&path).unwrap_or_default();
        let mut fields = text.split_whitespace();
        Memory {
            path,
            best_cpu_us: fields.next().and_then(|f| f.parse().ok()),
            retries_used: fields.next().and_then(|f| f.parse().ok()).unwrap_or(0),
        }
    }

    /// Was this run measured on a slow machine, and may it be repeated?
    pub fn wants_retry(&self, outcome: &Outcome) -> bool {
        match (self.best_cpu_us, cpu_of(outcome)) {
            (Some(best), Some(cpu)) => cpu > best * SLOW && self.retries_used < RETRIES,
            _ => false,
        }
    }

    /// The attempt to report: the one that cost less CPU per operation
    /// (a failed attempt never wins over a correct one).
    pub fn better(first: Outcome, second: Outcome) -> Outcome {
        let key = |o: &Outcome| (o.failed > 0, cpu_of(o).unwrap_or(f64::MAX));
        if key(&second) < key(&first) {
            second
        } else {
            first
        }
    }

    /// Remember what was reported; best effort, a read-only checkout
    /// simply never retries.
    pub fn save(mut self, reported: &Outcome, retried: bool) {
        self.retries_used += u32::from(retried);
        if let Some(cpu) = cpu_of(reported) {
            self.best_cpu_us = Some(self.best_cpu_us.map_or(cpu, |best| best.min(cpu)));
        }
        if let (Some(best), Some(dir)) = (self.best_cpu_us, self.path.parent()) {
            let _ = std::fs::create_dir_all(dir);
            let _ = std::fs::write(&self.path, format!("{best} {}\n", self.retries_used));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(cpu: f64, failed: u64) -> Outcome {
        let mut o = Outcome {
            failed,
            ..Outcome::default()
        };
        o.metric("cpu_us_per_op", cpu);
        o
    }

    #[test]
    fn retries_only_when_clearly_slower_than_remembered_and_within_budget() {
        let mut m = Memory {
            path: PathBuf::from("/nonexistent/quiet-test"),
            best_cpu_us: None,
            retries_used: 0,
        };
        assert!(!m.wants_retry(&outcome(500.0, 0)), "nothing remembered yet");
        m.best_cpu_us = Some(100.0);
        assert!(!m.wants_retry(&outcome(114.0, 0)));
        assert!(m.wants_retry(&outcome(116.0, 0)));
        m.retries_used = RETRIES;
        assert!(!m.wants_retry(&outcome(200.0, 0)), "budget spent");
    }

    #[test]
    fn the_cheaper_correct_attempt_is_reported() {
        let cpu = |o: Outcome| cpu_of(&o).unwrap();
        assert_eq!(
            cpu(Memory::better(outcome(130.0, 0), outcome(101.0, 0))),
            101.0
        );
        assert_eq!(
            cpu(Memory::better(outcome(101.0, 0), outcome(130.0, 0))),
            101.0
        );
        assert_eq!(
            cpu(Memory::better(outcome(130.0, 0), outcome(101.0, 3))),
            130.0
        );
        assert_eq!(
            cpu(Memory::better(outcome(130.0, 2), outcome(140.0, 0))),
            140.0
        );
    }

    #[test]
    fn memory_round_trips_through_its_file() {
        let name = format!("selftest-{}", std::process::id());
        let m = Memory::load(&name);
        assert!(m.best_cpu_us.is_none());
        m.save(&outcome(120.0, 0), false);
        let m = Memory::load(&name);
        assert_eq!((m.best_cpu_us, m.retries_used), (Some(120.0), 0));
        let path = m.path.clone();
        m.save(&outcome(110.0, 0), true);
        let m = Memory::load(&name);
        assert_eq!((m.best_cpu_us, m.retries_used), (Some(110.0), 1));
        std::fs::remove_file(path).unwrap();
    }
}
