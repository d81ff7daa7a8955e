//! # coord-engine — sharded, incremental online coordination service
//!
//! The paper's Section 7 raises the on-line setting (and its Youtopia
//! prototype lives it): queries arrive one at a time, the system updates
//! the coordination graph and evaluates only the affected connected
//! component. This crate is that loop as a *service*, replacing the
//! per-submit full rebuild with incrementally maintained state:
//!
//! * [`index::AtomIndex`] — a persistent index of pending heads and
//!   postconditions keyed by (relation, coordination-attribute constant),
//!   so a new query unifies only against candidate partners instead of
//!   all pairs (the index structure is the shared
//!   [`coord_graph::index`] layer, which the batch algorithms also use),
//! * [`engine::IncrementalEngine`] — union-find component maintenance on
//!   submit/retire around a pluggable [`engine::ComponentEvaluator`],
//! * [`sharded::ShardedEngine`] — per-component shards, each behind its
//!   own lock, with a read-mostly routing table, least-loaded placement
//!   of fresh components, and cross-shard component migration, so
//!   submitters touching disjoint components proceed concurrently,
//! * [`rebalance::Rebalancer`] — adaptive skew correction: detects a
//!   hot shard from the per-shard load windows and moves its costliest
//!   component groups to colder shards through the marker-based
//!   migration protocol,
//! * [`lock_order`] — the lock DAG as types: every engine and store
//!   lock is a [`lock_order::OrderedMutex`] or
//!   [`lock_order::OrderedRwLock`] at a declared level, so an
//!   out-of-order acquisition does not compile,
//! * [`metrics::EngineMetrics`] — submit/pairing/evaluation counters
//!   (including the per-submit work figures `reproduce --only online`
//!   gates) and per-shard load/contention stats
//!   (submits, evaluation work, lock-wait).
//!
//! The crate is generic over the query type ([`engine::
//! CoordinationQuery`]) and the evaluation algorithm, which keeps it
//! *below* `coord-core` in the workspace DAG: `coord_core::engine` wires
//! the SCC Coordination Algorithm in as the evaluator and re-exports the
//! familiar `CoordinationEngine` / `SharedEngine` API on top.

#![forbid(unsafe_code)]

pub mod engine;
pub mod index;
pub mod lock_order;
pub mod metrics;
pub mod rebalance;
pub mod sharded;
#[cfg(test)]
mod testing;

pub use engine::{
    ComponentEvaluator, ComponentGroup, CoordinationQuery, EvalVerdict, IncrementalEngine,
    SubmitOutcome,
};
pub use index::{AtomIndex, KeyPattern, Polarity};
pub use metrics::{EngineMetrics, MetricsSnapshot, ShardStats, ShardStatsSnapshot};
pub use rebalance::{RebalanceConfig, RebalanceReport, Rebalancer};
pub use sharded::{Placement, ShardedEngine};
