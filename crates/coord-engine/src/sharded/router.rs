//! The sharded engine's routing table: every key pattern a pending
//! query holds, the shard that owns it and how many queries hold it, plus
//! the keys frozen by the in-flight migration (see the parent module's
//! docs for the protocol).

use crate::index::{keys_related, KeyPattern};
use std::collections::{BTreeSet, HashMap};

/// One key pattern's routing entry.
struct KeySlot {
    shard: usize,
    /// How many pending queries hold this key.
    refs: usize,
}

/// The routing table: key pattern → owning shard, plus the keys
/// currently frozen by the in-flight migration.
pub(super) struct Router<R, C> {
    keys: HashMap<KeyPattern<R, C>, KeySlot>,
    /// relation → shard → number of distinct keys (for wildcard lookups).
    by_rel: HashMap<R, HashMap<usize, usize>>,
    /// Keys mid-migration, bucketed by relation so the `blocked` probe
    /// run by every route/validation stays proportional to the query's
    /// own keys, not to the (possibly large) frozen closure. Routing
    /// related keys backs off until the migration publishes and lifts
    /// these.
    migrating: HashMap<R, Vec<Option<C>>>,
}

impl<R: Clone + Eq + std::hash::Hash, C: Clone + Eq + std::hash::Hash> Router<R, C> {
    pub(super) fn new() -> Self {
        Router {
            keys: HashMap::new(),
            by_rel: HashMap::new(),
            migrating: HashMap::new(),
        }
    }

    /// Whether any of `keys` is related to a key frozen by the
    /// in-flight migration.
    pub(super) fn blocked(&self, keys: &[KeyPattern<R, C>]) -> bool {
        !self.migrating.is_empty()
            && keys.iter().any(|(rel, c)| {
                self.migrating
                    .get(rel)
                    .is_some_and(|marks| marks.iter().any(|m| m.is_none() || c.is_none() || m == c))
            })
    }

    /// Add keys to the migrating set. Migrations are serialized and
    /// dedup their closure growth, so the keys are guaranteed fresh —
    /// no membership scan is needed.
    pub(super) fn mark(&mut self, keys: &[KeyPattern<R, C>]) {
        for (rel, c) in keys {
            self.migrating
                .entry(rel.clone())
                .or_default()
                .push(c.clone());
        }
    }

    pub(super) fn unmark(&mut self, keys: &std::collections::HashSet<KeyPattern<R, C>>) {
        for (rel, c) in keys {
            if let Some(marks) = self.migrating.get_mut(rel) {
                if let Some(pos) = marks.iter().position(|m| m == c) {
                    marks.swap_remove(pos);
                }
                if marks.is_empty() {
                    self.migrating.remove(rel);
                }
            }
        }
    }

    /// Shards owning any key related to one of `keys`.
    pub(super) fn owners_related(&self, keys: &[KeyPattern<R, C>]) -> BTreeSet<usize> {
        let mut out = BTreeSet::new();
        for key in keys {
            match &key.1 {
                Some(_) => {
                    for k in [key.clone(), (key.0.clone(), None)] {
                        if let Some(slot) = self.keys.get(&k) {
                            out.insert(slot.shard);
                        }
                    }
                }
                None => {
                    // Wildcard: every shard holding any key of the
                    // relation.
                    if let Some(shards) = self.by_rel.get(&key.0) {
                        out.extend(shards.keys().copied());
                    }
                }
            }
        }
        out
    }

    pub(super) fn register(&mut self, key: &KeyPattern<R, C>, shard: usize) {
        match self.keys.get_mut(key) {
            Some(slot) => {
                debug_assert_eq!(slot.shard, shard, "key registered on two shards");
                slot.refs += 1;
            }
            None => {
                self.keys.insert(key.clone(), KeySlot { shard, refs: 1 });
                *self
                    .by_rel
                    .entry(key.0.clone())
                    .or_default()
                    .entry(shard)
                    .or_insert(0) += 1;
            }
        }
    }

    pub(super) fn unregister(&mut self, key: &KeyPattern<R, C>) {
        let Some(slot) = self.keys.get_mut(key) else {
            return;
        };
        slot.refs -= 1;
        if slot.refs == 0 {
            let shard = slot.shard;
            self.keys.remove(key);
            if let Some(shards) = self.by_rel.get_mut(&key.0) {
                if let Some(n) = shards.get_mut(&shard) {
                    *n -= 1;
                    if *n == 0 {
                        shards.remove(&shard);
                    }
                }
                if shards.is_empty() {
                    self.by_rel.remove(&key.0);
                }
            }
        }
    }

    /// Point an existing key at a new shard (during migration).
    pub(super) fn reassign(&mut self, key: &KeyPattern<R, C>, to: usize) {
        let Some(slot) = self.keys.get_mut(key) else {
            return;
        };
        let from = slot.shard;
        if from == to {
            return;
        }
        slot.shard = to;
        if let Some(shards) = self.by_rel.get_mut(&key.0) {
            if let Some(n) = shards.get_mut(&from) {
                *n -= 1;
                if *n == 0 {
                    shards.remove(&from);
                }
            }
            *shards.entry(to).or_insert(0) += 1;
        }
    }

    /// The shard `key` is registered on, if any pending query holds it.
    pub(super) fn shard_of(&self, key: &KeyPattern<R, C>) -> Option<usize> {
        self.keys.get(key).map(|slot| slot.shard)
    }

    /// Every registered key related to one of `keys`.
    pub(super) fn registered_related(&self, keys: &[KeyPattern<R, C>]) -> Vec<KeyPattern<R, C>> {
        self.keys
            .keys()
            .filter(|k| keys.iter().any(|q| keys_related(q, k)))
            .cloned()
            .collect()
    }

    /// Number of registered keys.
    #[cfg(test)]
    pub(super) fn key_count(&self) -> usize {
        self.keys.len()
    }

    /// Whether no key is frozen by a migration.
    #[cfg(test)]
    pub(super) fn marks_lifted(&self) -> bool {
        self.migrating.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::super::ShardedEngine;
    use crate::lock_order::LockCtx;
    use crate::testing::{SaturationEvaluator, TestQuery};

    #[test]
    fn router_refcounts_shared_keys() {
        let engine = ShardedEngine::new(SaturationEvaluator, 2);
        // Two queries requiring the same (unprovided) key share a route
        // key and must co-shard.
        engine
            .submit(
                0,
                TestQuery::new("a", vec![("A", Some(1))], vec![("X", Some(9))]),
            )
            .unwrap();
        engine
            .submit(
                1,
                TestQuery::new("b", vec![("B", Some(1))], vec![("X", Some(9))]),
            )
            .unwrap();
        {
            let mut ctx = LockCtx::root();
            let (router, _) = engine.router.read(&mut ctx);
            let slot = &router.keys[&("X", Some(9))];
            assert_eq!(slot.refs, 2);
        }
        let stats = engine.shard_stats();
        assert_eq!(stats.iter().filter(|s| s.submits > 0).count(), 1);
    }
}
