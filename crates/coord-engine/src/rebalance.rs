//! Adaptive shard rebalancing under skew.
//!
//! `ShardedEngine` co-shards every pair of queries that could ever
//! coordinate, so a hot relation (Zipf-distributed keys, as in any
//! realistic keyword or entity workload) concentrates expensive
//! components on whichever shards happened to receive them. Least-loaded
//! placement only steers *fresh* components; components that grow hot
//! after placement still pin their shard. The [`Rebalancer`] closes that
//! gap:
//!
//! 1. **Detect** — per-shard load windows (deltas of
//!    [`crate::metrics::ShardStatsSnapshot::load`] since the last run).
//!    When the hottest shard's share of the window exceeds
//!    [`RebalanceConfig::skew_threshold`], the pass triggers.
//! 2. **Select** — scan the resident component groups of every shard
//!    (each under its own shard lock only) and greedily move the
//!    costliest groups off the hot shard onto the coldest one, but only
//!    while a move strictly shrinks the spread (a group costlier than
//!    the hot/cold gap would just relocate the hot spot).
//! 3. **Move** — each victim goes through
//!    `ShardedEngine::rebalance_group`, i.e. the same marker-based
//!    migration protocol bridging queries use: related traffic backs
//!    off briefly, unrelated traffic never blocks, and the router write
//!    lock is never held across a slab scan.
//!
//! Correctness is placement-independent — the routing table stays the
//! single source of truth and moved groups stay whole — so a rebalance
//! can run at any point without changing any coordination result
//! (property-tested against the sequential engine in
//! `tests/equivalence_props.rs`, gated by `reproduce --only shard_skew`).

use crate::engine::{ComponentEvaluator, CoordinationQuery};
use crate::lock_order::{self, LockCtx};
use crate::sharded::ShardedEngine;

/// Tuning for [`Rebalancer`].
#[derive(Clone, Copy, Debug)]
pub struct RebalanceConfig {
    /// Trigger when the hottest shard's share of the window load
    /// exceeds this (must be above `1 / shards` to be meaningful).
    pub skew_threshold: f64,
    /// Skip the pass entirely when the window saw less total load than
    /// this — tiny windows make share estimates meaningless.
    pub min_window_load: u64,
    /// Upper bound on component groups moved per pass.
    pub max_moves: usize,
}

impl Default for RebalanceConfig {
    fn default() -> Self {
        RebalanceConfig {
            skew_threshold: 0.4,
            min_window_load: 32,
            max_moves: 8,
        }
    }
}

/// What one [`Rebalancer::run`] pass observed and did.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RebalanceReport {
    /// Whether skew detection fired (enough load, share over threshold).
    pub triggered: bool,
    /// The shard detected as hottest.
    pub hot_shard: usize,
    /// The hottest shard's share of the window load.
    pub hot_share: f64,
    /// Component groups moved off the hot shard.
    pub groups_moved: usize,
    /// Pending queries those groups contained.
    pub queries_moved: usize,
}

/// Skew detector + victim mover over a [`ShardedEngine`]. Holds the
/// load watermarks of the previous pass, so each `run` judges the
/// *window* since the last one rather than all-time totals.
pub struct Rebalancer {
    config: RebalanceConfig,
    /// Cumulative per-shard load at the end of the last window.
    watermarks: Vec<u64>,
}

impl Rebalancer {
    /// A rebalancer with explicit tuning.
    pub fn new(config: RebalanceConfig) -> Self {
        Rebalancer {
            config,
            watermarks: Vec::new(),
        }
    }

    /// The active tuning.
    pub fn config(&self) -> &RebalanceConfig {
        &self.config
    }

    /// One detection + (if triggered) move pass. Cheap when balanced:
    /// a lock-free stats scan and nothing else. `ctx` is the context of
    /// the engine's rebalancer lock, which the pass holds throughout.
    pub fn run<Q, V>(
        &mut self,
        ctx: &mut LockCtx<'_, lock_order::Rebalancer>,
        engine: &ShardedEngine<Q, V>,
    ) -> RebalanceReport
    where
        Q: CoordinationQuery,
        V: ComponentEvaluator<Q>,
    {
        // A rebalance pass is its own request: the ticket allocates a
        // fresh trace id (no submit ctx is current on this thread), so
        // the migrations it triggers are attributed to the pass rather
        // than blending into unattributed background noise.
        let obs = engine.obs_handles();
        let _span = obs.tracer.ticket("rebalance");
        let _timer = obs.rebalance_hist.start();
        let stats = engine.shard_stats();
        let cumulative: Vec<u64> = stats
            .iter()
            .map(super::metrics::ShardStatsSnapshot::load)
            .collect();
        if self.watermarks.len() != cumulative.len() {
            self.watermarks = vec![0; cumulative.len()];
        }
        let window: Vec<u64> = cumulative
            .iter()
            .zip(&self.watermarks)
            .map(|(c, w)| c.saturating_sub(*w))
            .collect();
        let total: u64 = window.iter().sum();
        let mut report = RebalanceReport::default();
        if total < self.config.min_window_load.max(1) || window.len() < 2 {
            return report;
        }
        let hot = window
            .iter()
            .enumerate()
            .max_by_key(|(_, w)| **w)
            .map(|(i, _)| i)
            .expect("at least two shards");
        report.hot_shard = hot;
        report.hot_share = window[hot] as f64 / total as f64;
        if report.hot_share <= self.config.skew_threshold {
            return report;
        }
        report.triggered = true;
        // Consume the window only when acting, so repeated quiet passes
        // keep accumulating evidence.
        self.watermarks = cumulative;

        // Victim selection by observed cost: the hot shard's window
        // load is attributed across its resident component groups in
        // proportion to their accumulated evaluation cost — the groups
        // that made the shard hot keep receiving the traffic that did
        // it, and their routing keys follow them to the new shard. The
        // projection then works entirely in window-load units: moving a
        // group shifts its attributed load onto the coldest shard, and
        // a move happens only while it strictly shrinks the hot/cold
        // spread (a group hotter than the gap would just relocate the
        // hot spot). Known approximation: cost is accumulated over a
        // group's residence, not the window, so a formerly-hot
        // now-idle group can outrank the one causing the current skew
        // — the mis-aimed move still resets its cost (migration
        // re-inserts), so subsequent passes re-attribute correctly and
        // the system converges instead of oscillating.
        let mut victims = engine.shard_component_groups_in(ctx, hot);
        // Stable sort over the (root-ordered) scan: costliest first,
        // deterministic among ties.
        victims.sort_by_key(|g| std::cmp::Reverse(g.cost));
        let total_cost: u64 = victims.iter().map(|g| g.cost).sum();
        if total_cost == 0 {
            return report;
        }
        let mut projected = window.clone();
        for group in victims {
            if report.groups_moved >= self.config.max_moves {
                break;
            }
            let load = window[hot] * group.cost / total_cost;
            let cold = projected
                .iter()
                .enumerate()
                .min_by_key(|(_, w)| **w)
                .map(|(i, _)| i)
                .expect("at least two shards");
            if cold == hot || load == 0 || load >= projected[hot].saturating_sub(projected[cold]) {
                continue;
            }
            let moved = engine.rebalance_group_in(ctx, &group.keys, cold);
            if moved == 0 {
                continue; // retired or merged since the scan
            }
            report.groups_moved += 1;
            report.queries_moved += moved;
            projected[hot] = projected[hot].saturating_sub(load);
            projected[cold] += load;
        }
        report
    }
}
