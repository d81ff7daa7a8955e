//! The workspace's declared lock-order DAG — the **single source of
//! truth** shared by the static analyzer (rule L1) and the runtime
//! validator (`coord_engine::lockrank` re-exports this module), so the
//! two oracles can never disagree about which nesting is legal.
//!
//! ## The rank DAG
//!
//! Locks may only be acquired in **descending** rank order: while a
//! guard of rank `r` is live, only locks of rank `≤ r` may be acquired
//! (equal rank is allowed — e.g. the source and target shard engines
//! during a migration, which is serialized by the higher-ranked
//! migration lock). Non-blocking `try_*` acquisitions are exempt: a
//! thread that backs off on failure cannot participate in a deadlock
//! cycle (that discipline is checked separately by rule L4, which
//! requires every `try_*` fallback path to document its backoff).
//!
//! ```text
//!   rebalancer (70)            one pass at a time; held across whole passes
//!        │
//!   migration_lock (60)        serializes marker-based migrations
//!        │
//!   router (50)                routing table (write OR read — a reader
//!        │                     can block behind a queued writer)
//!   shard engine (40)          per-shard IncrementalEngine mutex
//!        │
//!   snap_lock (35)             snapshot/rotation serialization
//!        │
//!   store state (30)           epoch + WAL-stream vector RwLock
//!        │
//!   WAL stream (25)            per-stream writer mutex
//!        │
//!   registry (10)              durable seq registry
//! ```
//!
//! Every edge in the diagram is a nesting that really occurs in the
//! tree: `rebalancer → migration` (a rebalance pass runs migrations),
//! `migration → router/engine` (mark, freeze, move, publish),
//! `snap_lock → state → registry` (snapshot capture under the rotation
//! write lock), `state → wal` (append and sync), and so on.

/// A rank in the lock-order DAG. Higher numeric rank = acquired
/// earlier. `u8` repr so the runtime validator's thread-local stack
/// stays trivially copyable.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum LockRank {
    /// `ShardedEngine::rebalancer` (its only owner):
    /// held across an entire rebalance pass (which runs migrations).
    Rebalancer = 70,
    /// `ShardedEngine::migration_lock`: serializes marker-based
    /// migrations; acquired with no other ranked lock held except the
    /// rebalancer guard.
    Migration = 60,
    /// `ShardedEngine::router`: the routing table `RwLock`. Read and
    /// write share one rank — a blocking `read()` can queue behind a
    /// writer, so it is just as dangerous under a lower-ranked guard.
    Router = 50,
    /// `Shard::engine`: one shard's `IncrementalEngine` mutex.
    ShardEngine = 40,
    /// `CoordStore::snap_lock`: snapshot/rotation serialization.
    SnapRotation = 35,
    /// `CoordStore::state`: the epoch + WAL-stream vector `RwLock`.
    StoreState = 30,
    /// One WAL stream's writer mutex (`state.wals[i]`).
    WalStream = 25,
    /// `DurableShardedEngine::registry`: the durable seq registry mutex.
    Registry = 10,
}

impl LockRank {
    /// The rank's numeric level (higher = acquired earlier).
    #[must_use]
    pub fn level(self) -> u8 {
        self as u8
    }

    /// Stable display name (matches the receiver patterns the static
    /// pass recognizes).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            LockRank::Rebalancer => "rebalancer",
            LockRank::Migration => "migration_lock",
            LockRank::Router => "router",
            LockRank::ShardEngine => "shard.engine",
            LockRank::SnapRotation => "snap_lock",
            LockRank::StoreState => "store.state",
            LockRank::WalStream => "wal_stream",
            LockRank::Registry => "registry",
        }
    }
}

/// One row of the rank table: the receiver identifiers whose
/// `.lock()`/`.read()`/`.write()` acquisition carries the rank.
///
/// Matching is by the **last identifier of the receiver chain** at the
/// acquisition site (`self.shards[i].engine.lock()` matches `engine`;
/// `state.wals[s].lock()` matches `wals`). This is a naming contract:
/// the workspace's ranked locks are always reached through fields with
/// these exact names, and the self-check test keeps it honest.
pub struct RankEntry {
    pub rank: LockRank,
    /// Receiver identifiers that resolve to this lock.
    pub receivers: &'static [&'static str],
    /// Annotation alias accepted by `// lint: acquires(<name>)`.
    pub alias: &'static str,
}

/// The rank table, in descending rank order.
pub const RANK_TABLE: &[RankEntry] = &[
    RankEntry {
        rank: LockRank::Rebalancer,
        receivers: &["rebalancer"],
        alias: "rebalancer",
    },
    RankEntry {
        rank: LockRank::Migration,
        receivers: &["migration_lock"],
        alias: "migration_lock",
    },
    RankEntry {
        rank: LockRank::Router,
        receivers: &["router"],
        alias: "router",
    },
    RankEntry {
        rank: LockRank::ShardEngine,
        receivers: &["engine"],
        alias: "shard.engine",
    },
    RankEntry {
        rank: LockRank::SnapRotation,
        receivers: &["snap_lock"],
        alias: "snap_lock",
    },
    RankEntry {
        rank: LockRank::StoreState,
        receivers: &["state"],
        alias: "store.state",
    },
    RankEntry {
        rank: LockRank::WalStream,
        receivers: &["wal", "wals"],
        alias: "wal_stream",
    },
    RankEntry {
        rank: LockRank::Registry,
        receivers: &["registry"],
        alias: "registry",
    },
];

/// The rank acquired by locking a receiver with the given final
/// identifier, if it is one of the ranked locks.
#[must_use]
pub fn rank_of_receiver(ident: &str) -> Option<LockRank> {
    RANK_TABLE
        .iter()
        .find(|e| e.receivers.contains(&ident))
        .map(|e| e.rank)
}

/// The rank named by an `// lint: acquires(<name>)` annotation, if any.
/// Accepts both the alias and any receiver spelling.
#[must_use]
pub fn rank_of_alias(name: &str) -> Option<LockRank> {
    RANK_TABLE
        .iter()
        .find(|e| e.alias == name || e.receivers.contains(&name))
        .map(|e| e.rank)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_is_strictly_descending_with_unique_receivers() {
        let mut seen = std::collections::HashSet::new();
        let mut last = u8::MAX;
        for entry in RANK_TABLE {
            assert!(
                entry.rank.level() < last,
                "table must be strictly descending"
            );
            last = entry.rank.level();
            for r in entry.receivers {
                assert!(seen.insert(*r), "receiver {r} claimed by two ranks");
            }
            assert_eq!(rank_of_alias(entry.alias), Some(entry.rank));
        }
    }

    #[test]
    fn receiver_resolution_matches_declared_dag() {
        assert_eq!(
            rank_of_receiver("migration_lock"),
            Some(LockRank::Migration)
        );
        assert_eq!(rank_of_receiver("router"), Some(LockRank::Router));
        assert_eq!(rank_of_receiver("engine"), Some(LockRank::ShardEngine));
        assert_eq!(rank_of_receiver("wals"), Some(LockRank::WalStream));
        assert_eq!(rank_of_receiver("registry"), Some(LockRank::Registry));
        assert_eq!(rank_of_receiver("ring"), None);
        assert!(LockRank::Migration > LockRank::Router);
        assert!(LockRank::Router > LockRank::ShardEngine);
        assert!(LockRank::ShardEngine > LockRank::WalStream);
        assert!(LockRank::WalStream > LockRank::Registry);
    }
}
