//! Directed social-network topologies.

use coord_graph::{DiGraph, NodeId};
use rand::prelude::*;

/// Barabási–Albert preferential-attachment digraph (the paper's model for
/// the Figure 5–6 coordination structures, citing Barabási & Albert
/// 1999).
///
/// Starts from `m` seed nodes; every new node attaches `m` out-edges to
/// distinct existing nodes, chosen proportionally to (in-degree + 1). The
/// result has the power-law in-degree distribution the paper calls "a
/// reasonable model of social networks": few high-in-degree hubs, many
/// low-in-degree nodes.
pub fn barabasi_albert(n: usize, m: usize, rng: &mut impl Rng) -> DiGraph<usize> {
    assert!(m >= 1, "attachment count must be positive");
    let mut g: DiGraph<usize> = DiGraph::with_capacity(n, n.saturating_mul(m));
    for i in 0..n {
        g.add_node(i);
    }
    if n == 0 {
        return g;
    }

    // Repeated-node list for preferential attachment: node `v` appears
    // (in_degree(v) + 1) times.
    let seed = m.min(n);
    let mut pool: Vec<usize> = (0..seed).collect();

    for v in seed..n {
        let mut targets: Vec<usize> = Vec::with_capacity(m);
        // Sample m distinct targets (bounded retries, then fall back to
        // any not-yet-chosen node to guarantee progress).
        while targets.len() < m.min(v) {
            let candidate = pool[rng.random_range(0..pool.len())];
            if !targets.contains(&candidate) {
                targets.push(candidate);
            }
        }
        for &t in &targets {
            g.add_edge(NodeId(v), NodeId(t), ());
            pool.push(t);
        }
        pool.push(v);
    }
    g
}

/// A directed chain `0 → 1 → ... → n-1` (the Figure 4 list structure:
/// each query coordinates with the next, the last is free).
pub fn chain(n: usize) -> DiGraph<usize> {
    let mut g: DiGraph<usize> = DiGraph::with_capacity(n, n.saturating_sub(1));
    for i in 0..n {
        g.add_node(i);
    }
    for i in 0..n.saturating_sub(1) {
        g.add_edge(NodeId(i), NodeId(i + 1), ());
    }
    g
}

/// A complete digraph (everyone coordinates with everyone; the paper's
/// "complete friendship graph" used by the Figure 7–8 experiments).
pub fn complete(n: usize) -> DiGraph<usize> {
    let mut g: DiGraph<usize> = DiGraph::with_capacity(n, n.saturating_mul(n.saturating_sub(1)));
    for i in 0..n {
        g.add_node(i);
    }
    for u in 0..n {
        for v in 0..n {
            if u != v {
                g.add_edge(NodeId(u), NodeId(v), ());
            }
        }
    }
    g
}

/// A star: spokes `1..n` all point at hub `0`.
pub fn star(n: usize) -> DiGraph<usize> {
    let mut g: DiGraph<usize> = DiGraph::with_capacity(n, n.saturating_sub(1));
    for i in 0..n {
        g.add_node(i);
    }
    for i in 1..n {
        g.add_edge(NodeId(i), NodeId(0), ());
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ba_shape() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = barabasi_albert(100, 3, &mut rng);
        assert_eq!(g.node_count(), 100);
        // Every non-seed node has out-degree min(m, v).
        for v in 3..100 {
            assert_eq!(g.out_degree(NodeId(v)), 3);
        }
        // Seed nodes have no out-edges.
        for v in 0..3 {
            assert_eq!(g.out_degree(NodeId(v)), 0);
        }
    }

    #[test]
    fn ba_prefers_high_degree_nodes() {
        // The max in-degree should far exceed the mean for a large graph —
        // the hub signature of scale-free networks.
        let mut rng = StdRng::seed_from_u64(6);
        let g = barabasi_albert(2000, 2, &mut rng);
        let max_in = (0..2000).map(|v| g.in_degree(NodeId(v))).max().unwrap();
        let mean_in = g.edge_count() as f64 / 2000.0;
        assert!(
            (max_in as f64) > 10.0 * mean_in,
            "max {max_in} vs mean {mean_in}"
        );
    }

    #[test]
    fn ba_no_duplicate_targets_per_node() {
        let mut rng = StdRng::seed_from_u64(7);
        let g = barabasi_albert(200, 4, &mut rng);
        for v in 0..200 {
            let mut succ: Vec<usize> = g
                .successors(NodeId(v))
                .map(coord_graph::NodeId::index)
                .collect();
            let before = succ.len();
            succ.sort_unstable();
            succ.dedup();
            assert_eq!(succ.len(), before, "node {v} has duplicate out-edges");
        }
    }

    #[test]
    fn ba_deterministic_for_seed() {
        let g1 = barabasi_albert(50, 2, &mut StdRng::seed_from_u64(1));
        let g2 = barabasi_albert(50, 2, &mut StdRng::seed_from_u64(1));
        assert_eq!(g1.edge_count(), g2.edge_count());
        for e in g1.edge_ids() {
            assert_eq!(g1.endpoints(e), g2.endpoints(e));
        }
    }

    #[test]
    fn chain_complete_star_shapes() {
        let c = chain(5);
        assert_eq!(c.edge_count(), 4);
        assert_eq!(c.out_degree(NodeId(4)), 0);

        let k = complete(4);
        assert_eq!(k.edge_count(), 12);

        let s = star(6);
        assert_eq!(s.edge_count(), 5);
        assert_eq!(s.in_degree(NodeId(0)), 5);
    }

    #[test]
    fn degenerate_sizes() {
        let mut rng = StdRng::seed_from_u64(9);
        assert_eq!(barabasi_albert(0, 2, &mut rng).node_count(), 0);
        assert_eq!(barabasi_albert(1, 2, &mut rng).edge_count(), 0);
        assert_eq!(chain(0).node_count(), 0);
        assert_eq!(chain(1).edge_count(), 0);
        assert_eq!(complete(1).edge_count(), 0);
        assert_eq!(star(1).edge_count(), 0);
    }
}
