//! Engine observability: cheap atomic counters shared by every shard,
//! registry-backed so one [`coord_obs::Registry::snapshot`] exports
//! them next to the latency histograms.
//!
//! The counters double as the *assert-while-measuring* hooks of the
//! `online_throughput` bench: `queries_evaluated` is exactly the
//! per-submit work the paper's online setting cares about, and
//! `rebuild_avoided` is the work the pre-incremental engine (a full
//! coordination-graph rebuild over all pending queries per submit) would
//! have done on top.
//!
//! Each counter is a [`coord_obs::Counter`] — the same relaxed atomic
//! the pre-registry ad-hoc fields were, so the counters stay live (and
//! every existing accessor keeps working) whether or not a registry is
//! attached; [`EngineMetrics::register`] only makes them visible to
//! registry snapshots and the JSON/Prometheus exporters.

use coord_obs::{Counter, Registry};

/// Shared counters for one engine (or one sharded engine — all shards
/// update the same metrics).
#[derive(Debug, Default)]
pub struct EngineMetrics {
    /// Queries submitted (accepted or rejected).
    pub submits: Counter,
    /// Queries answered and retired.
    pub delivered: Counter,
    /// Candidate partner pairs examined through the atom index.
    pub pairings_checked: Counter,
    /// Total queries handed to the component evaluator across submits.
    pub queries_evaluated: Counter,
    /// Pending queries *not* re-examined compared to a full per-submit
    /// rebuild: Σ (pending − component size) over submits.
    pub rebuild_avoided: Counter,
    /// Component evaluations performed.
    pub evaluations: Counter,
    /// Retirement-triggered local component re-partitions.
    pub repartitions: Counter,
    /// Cross-shard component migrations.
    pub migrations: Counter,
    /// Routing attempts that backed off because a key was mid-migration.
    pub migration_backoffs: Counter,
    /// Component groups moved off a hot shard by the rebalancer.
    pub rebalance_moves: Counter,
}

impl EngineMetrics {
    /// Fresh zeroed metrics.
    pub fn new() -> Self {
        Self::default()
    }

    pub(crate) fn add(counter: &Counter, n: u64) {
        counter.add(n);
    }

    /// Register every counter with `obs` under its `engine_*` name, so
    /// registry snapshots and exporters see the live values. No-op when
    /// the registry is disabled; the counters count either way.
    pub fn register(&self, obs: &Registry) {
        obs.register_counter("engine_submits", &self.submits);
        obs.register_counter("engine_delivered", &self.delivered);
        obs.register_counter("engine_pairings_checked", &self.pairings_checked);
        obs.register_counter("engine_queries_evaluated", &self.queries_evaluated);
        obs.register_counter("engine_rebuild_avoided", &self.rebuild_avoided);
        obs.register_counter("engine_evaluations", &self.evaluations);
        obs.register_counter("engine_repartitions", &self.repartitions);
        obs.register_counter("engine_migrations", &self.migrations);
        obs.register_counter("engine_migration_backoffs", &self.migration_backoffs);
        obs.register_counter("engine_rebalance_moves", &self.rebalance_moves);
    }

    /// A consistent-enough point-in-time copy (counters are read with
    /// relaxed ordering; exact cross-counter consistency is not needed
    /// for monitoring).
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            submits: self.submits.get(),
            delivered: self.delivered.get(),
            pairings_checked: self.pairings_checked.get(),
            queries_evaluated: self.queries_evaluated.get(),
            rebuild_avoided: self.rebuild_avoided.get(),
            evaluations: self.evaluations.get(),
            repartitions: self.repartitions.get(),
            migrations: self.migrations.get(),
            migration_backoffs: self.migration_backoffs.get(),
            rebalance_moves: self.rebalance_moves.get(),
        }
    }
}

/// Plain-data copy of [`EngineMetrics`] at one instant.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    pub submits: u64,
    pub delivered: u64,
    pub pairings_checked: u64,
    pub queries_evaluated: u64,
    pub rebuild_avoided: u64,
    pub evaluations: u64,
    pub repartitions: u64,
    pub migrations: u64,
    pub migration_backoffs: u64,
    pub rebalance_moves: u64,
}

impl MetricsSnapshot {
    /// Mean queries evaluated per submit — the per-submit work figure the
    /// bench asserts stays sub-linear in the pending-set size.
    pub fn evaluated_per_submit(&self) -> f64 {
        if self.submits == 0 {
            0.0
        } else {
            self.queries_evaluated as f64 / self.submits as f64
        }
    }
}

/// Per-shard load and contention statistics for the sharded engine.
///
/// The three load signals the rebalancer reads are `submits` (routing
/// pressure), `eval_queries` (evaluation work actually performed under
/// this shard's lock), and `lock_wait_nanos` (time submitters spent
/// blocked on the shard lock). [`ShardStats::load_score`] combines the
/// first two into the scalar used for skew detection and least-loaded
/// placement; lock-wait stays a separate signal because its unit
/// (nanoseconds) is incommensurable with query counts.
#[derive(Debug, Default)]
pub struct ShardStats {
    /// Submits routed to this shard.
    pub submits: Counter,
    /// Submits that found the shard lock already held (acquired it only
    /// after blocking).
    pub contended: Counter,
    /// Total nanoseconds submitters spent blocked on this shard's lock.
    pub lock_wait_nanos: Counter,
    /// Queries handed to the component evaluator under this shard's
    /// lock (the per-shard slice of `EngineMetrics::queries_evaluated`).
    pub eval_queries: Counter,
    /// Queries migrated into this shard by a merge or rebalance.
    pub migrated_in: Counter,
    /// Queries migrated out of this shard by a cross-shard merge or
    /// rebalance.
    pub migrated_out: Counter,
}

impl ShardStats {
    /// The scalar load figure used for least-loaded placement and skew
    /// detection. Delegates to [`ShardStatsSnapshot::load`] — one
    /// formula, two access paths, so the live and snapshot views can
    /// never drift.
    pub fn load_score(&self) -> u64 {
        self.snapshot().load()
    }

    /// Plain-data copy.
    pub fn snapshot(&self) -> ShardStatsSnapshot {
        ShardStatsSnapshot {
            submits: self.submits.get(),
            contended: self.contended.get(),
            lock_wait_nanos: self.lock_wait_nanos.get(),
            eval_queries: self.eval_queries.get(),
            migrated_in: self.migrated_in.get(),
            migrated_out: self.migrated_out.get(),
        }
    }
}

/// Plain-data copy of [`ShardStats`] at one instant.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardStatsSnapshot {
    pub submits: u64,
    pub contended: u64,
    pub lock_wait_nanos: u64,
    pub eval_queries: u64,
    pub migrated_in: u64,
    pub migrated_out: u64,
}

impl ShardStatsSnapshot {
    /// The scalar load figure: routing pressure plus evaluation work.
    /// The **single** definition of the load formula —
    /// [`ShardStats::load_score`] delegates here.
    pub fn load(&self) -> u64 {
        self.submits + self.eval_queries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_copies_counters() {
        let m = EngineMetrics::new();
        EngineMetrics::add(&m.submits, 3);
        EngineMetrics::add(&m.queries_evaluated, 12);
        let s = m.snapshot();
        assert_eq!(s.submits, 3);
        assert_eq!(s.queries_evaluated, 12);
        assert!((s.evaluated_per_submit() - 4.0).abs() < 1e-12);
    }

    #[test]
    // Exact zero: the zero-submit guard returns literal 0.0.
    #[allow(clippy::float_cmp)]
    fn evaluated_per_submit_handles_zero() {
        assert_eq!(MetricsSnapshot::default().evaluated_per_submit(), 0.0);
    }

    #[test]
    fn shard_load_score_combines_submits_and_eval_work() {
        let s = ShardStats::default();
        EngineMetrics::add(&s.submits, 4);
        EngineMetrics::add(&s.eval_queries, 10);
        EngineMetrics::add(&s.lock_wait_nanos, 1_000_000);
        assert_eq!(s.load_score(), 14);
        let snap = s.snapshot();
        assert_eq!(snap.load(), 14);
        assert_eq!(snap.lock_wait_nanos, 1_000_000);
    }

    /// Pin the live and snapshot load formulas to each other on the
    /// same inputs — the two used to be written out twice and could
    /// drift; now `load_score` delegates and this test keeps it so.
    #[test]
    fn load_score_and_snapshot_load_agree_on_same_inputs() {
        for (submits, evals, wait) in [(0, 0, 0), (1, 0, 7), (0, 9, 3), (17, 4, 99), (1000, 1, 0)] {
            let s = ShardStats::default();
            EngineMetrics::add(&s.submits, submits);
            EngineMetrics::add(&s.eval_queries, evals);
            EngineMetrics::add(&s.lock_wait_nanos, wait);
            assert_eq!(
                s.load_score(),
                s.snapshot().load(),
                "live and snapshot load diverged at submits={submits} evals={evals}"
            );
            assert_eq!(s.load_score(), submits + evals);
        }
    }

    #[test]
    fn register_exports_counters_into_a_registry() {
        let m = EngineMetrics::new();
        let obs = coord_obs::Registry::new();
        m.register(&obs);
        EngineMetrics::add(&m.submits, 2);
        EngineMetrics::add(&m.delivered, 1);
        let snap = obs.snapshot();
        assert_eq!(snap.counter("engine_submits"), Some(2));
        assert_eq!(snap.counter("engine_delivered"), Some(1));
        // Registration shares the counter, not a copy.
        EngineMetrics::add(&m.submits, 1);
        assert_eq!(obs.snapshot().counter("engine_submits"), Some(3));
    }
}
