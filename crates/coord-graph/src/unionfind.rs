//! Disjoint-set union (union-find) with path compression and union by
//! rank — the incremental counterpart of [`crate::reach::
//! weakly_connected_components`].
//!
//! The online coordination service maintains the weakly connected
//! components of the coordination graph *incrementally*: a submitted
//! query becomes a fresh singleton and is unioned with every candidate
//! partner, instead of recomputing all components from scratch. Union-find
//! cannot delete elements, so retirement resets exactly the surviving
//! members of an affected component to singletons (sound because every
//! parent pointer stays within its component) and re-links them locally.

/// A disjoint-set forest over dense `usize` elements.
#[derive(Clone, Debug, Default)]
pub struct UnionFind {
    parent: Vec<usize>,
    rank: Vec<u8>,
}

impl UnionFind {
    /// A forest of `n` singleton sets `0..n`.
    pub fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n).collect(),
            rank: vec![0; n],
        }
    }

    /// Number of elements (not sets).
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Whether the forest has no elements.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Append one new singleton element, returning its id.
    pub fn push(&mut self) -> usize {
        let id = self.parent.len();
        self.parent.push(id);
        self.rank.push(0);
        id
    }

    /// Representative of the set containing `x`, with path compression.
    pub fn find(&mut self, x: usize) -> usize {
        let mut root = x;
        while self.parent[root] != root {
            root = self.parent[root];
        }
        // Second pass: point every node on the path at the root.
        let mut cur = x;
        while self.parent[cur] != root {
            let next = self.parent[cur];
            self.parent[cur] = root;
            cur = next;
        }
        root
    }

    /// Representative without compression (no `&mut` needed).
    pub fn find_immutable(&self, x: usize) -> usize {
        let mut root = x;
        while self.parent[root] != root {
            root = self.parent[root];
        }
        root
    }

    /// Merge the sets containing `a` and `b`. Returns the surviving root,
    /// or `None` if they were already in the same set.
    pub fn union(&mut self, a: usize, b: usize) -> Option<usize> {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra == rb {
            return None;
        }
        let (winner, loser) = if self.rank[ra] >= self.rank[rb] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[loser] = winner;
        if self.rank[winner] == self.rank[loser] {
            self.rank[winner] += 1;
        }
        Some(winner)
    }

    /// Whether `a` and `b` are in the same set.
    pub fn connected(&mut self, a: usize, b: usize) -> bool {
        self.find(a) == self.find(b)
    }

    /// Reset each element of `elems` to its own singleton set.
    ///
    /// Sound only when `elems` is closed under parent pointers — e.g. the
    /// complete membership of one or more sets. The coordination engine
    /// uses this on retirement: it resets *all* remaining members of an
    /// affected component and re-links them through the atom index.
    pub fn reset(&mut self, elems: &[usize]) {
        for &e in elems {
            self.parent[e] = e;
            self.rank[e] = 0;
        }
    }

    /// Group all elements by representative: `(root, members)` pairs.
    pub fn sets(&mut self) -> Vec<(usize, Vec<usize>)> {
        use std::collections::HashMap;
        let mut groups: HashMap<usize, Vec<usize>> = HashMap::new();
        for x in 0..self.parent.len() {
            let r = self.find(x);
            groups.entry(r).or_default().push(x);
        }
        let mut out: Vec<(usize, Vec<usize>)> = groups.into_iter().collect();
        out.sort_unstable_by_key(|(r, _)| *r);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singletons_then_unions() {
        let mut uf = UnionFind::new(5);
        assert_eq!(uf.len(), 5);
        assert!(!uf.connected(0, 1));
        assert!(uf.union(0, 1).is_some());
        assert!(uf.union(1, 2).is_some());
        assert!(uf.connected(0, 2));
        assert!(!uf.connected(0, 3));
        // Re-union of the same set is a no-op.
        assert!(uf.union(0, 2).is_none());
    }

    #[test]
    fn push_appends_singletons() {
        let mut uf = UnionFind::new(0);
        let a = uf.push();
        let b = uf.push();
        assert_eq!((a, b), (0, 1));
        assert!(!uf.connected(a, b));
        uf.union(a, b);
        assert!(uf.connected(a, b));
    }

    #[test]
    fn find_immutable_agrees_with_find() {
        let mut uf = UnionFind::new(6);
        uf.union(0, 1);
        uf.union(2, 3);
        uf.union(1, 3);
        for x in 0..4 {
            assert_eq!(uf.find_immutable(x), uf.find(x));
        }
    }

    #[test]
    fn reset_splits_a_whole_component() {
        let mut uf = UnionFind::new(6);
        uf.union(0, 1);
        uf.union(1, 2);
        uf.union(3, 4);
        // Reset the whole {0,1,2} component.
        uf.reset(&[0, 1, 2]);
        assert!(!uf.connected(0, 1));
        assert!(!uf.connected(1, 2));
        // The untouched component survives.
        assert!(uf.connected(3, 4));
        // Re-link a subset.
        uf.union(0, 2);
        assert!(uf.connected(0, 2));
        assert!(!uf.connected(0, 1));
    }

    #[test]
    fn sets_partition_all_elements() {
        let mut uf = UnionFind::new(5);
        uf.union(0, 4);
        uf.union(1, 2);
        let sets = uf.sets();
        assert_eq!(sets.len(), 3);
        let total: usize = sets.iter().map(|(_, m)| m.len()).sum();
        assert_eq!(total, 5);
        for (root, members) in &sets {
            assert!(members.contains(root));
        }
    }

    #[test]
    fn deep_chain_compresses() {
        // Union a long chain, then find from the tail: path compression
        // must leave every node pointing near the root.
        let mut uf = UnionFind::new(1000);
        for i in 0..999 {
            uf.union(i, i + 1);
        }
        let root = uf.find(999);
        assert_eq!(uf.find(0), root);
    }
}
