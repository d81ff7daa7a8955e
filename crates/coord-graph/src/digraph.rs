//! Adjacency-list directed graphs.

use std::fmt;

/// Index of a node in a [`DiGraph`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

impl NodeId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Index of an edge in a [`DiGraph`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EdgeId(pub usize);

impl EdgeId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Debug for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

#[derive(Clone, Debug)]
struct Edge<E> {
    from: NodeId,
    to: NodeId,
    weight: E,
}

/// A directed graph with node weights `N` and edge weights `E`.
///
/// Parallel edges and self-loops are allowed — the extended coordination
/// graph of the paper is a directed *multigraph* whose edges are labelled
/// with (postcondition atom, head atom) pairs.
#[derive(Clone, Debug, Default)]
pub struct DiGraph<N, E = ()> {
    nodes: Vec<N>,
    edges: Vec<Edge<E>>,
    /// Outgoing edge ids per node.
    out_edges: Vec<Vec<EdgeId>>,
    /// Incoming edge ids per node.
    in_edges: Vec<Vec<EdgeId>>,
}

impl<N, E> DiGraph<N, E> {
    /// An empty graph.
    pub fn new() -> Self {
        DiGraph {
            nodes: Vec::new(),
            edges: Vec::new(),
            out_edges: Vec::new(),
            in_edges: Vec::new(),
        }
    }

    /// An empty graph with reserved node capacity.
    pub fn with_capacity(nodes: usize, edges: usize) -> Self {
        DiGraph {
            nodes: Vec::with_capacity(nodes),
            edges: Vec::with_capacity(edges),
            out_edges: Vec::with_capacity(nodes),
            in_edges: Vec::with_capacity(nodes),
        }
    }

    /// Add a node, returning its id.
    pub fn add_node(&mut self, weight: N) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(weight);
        self.out_edges.push(Vec::new());
        self.in_edges.push(Vec::new());
        id
    }

    /// Add a directed edge `from → to`, returning its id.
    pub fn add_edge(&mut self, from: NodeId, to: NodeId, weight: E) -> EdgeId {
        assert!(from.0 < self.nodes.len(), "edge source out of bounds");
        assert!(to.0 < self.nodes.len(), "edge target out of bounds");
        let id = EdgeId(self.edges.len());
        self.edges.push(Edge { from, to, weight });
        self.out_edges[from.0].push(id);
        self.in_edges[to.0].push(id);
        id
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Node weight.
    pub fn node(&self, id: NodeId) -> &N {
        &self.nodes[id.0]
    }

    /// Edge weight.
    pub fn edge(&self, id: EdgeId) -> &E {
        &self.edges[id.0].weight
    }

    /// The (source, target) endpoints of an edge.
    pub fn endpoints(&self, id: EdgeId) -> (NodeId, NodeId) {
        let e = &self.edges[id.0];
        (e.from, e.to)
    }

    /// Iterate over all node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len()).map(NodeId)
    }

    /// Iterate over all edge ids.
    pub fn edge_ids(&self) -> impl Iterator<Item = EdgeId> + '_ {
        (0..self.edges.len()).map(EdgeId)
    }

    /// Successor nodes of `node` (with multiplicity for parallel edges).
    pub fn successors(&self, node: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.out_edges[node.0].iter().map(|e| self.edges[e.0].to)
    }

    /// Predecessor nodes of `node` (with multiplicity).
    pub fn predecessors(&self, node: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.in_edges[node.0].iter().map(|e| self.edges[e.0].from)
    }

    /// Out-degree of `node`.
    pub fn out_degree(&self, node: NodeId) -> usize {
        self.out_edges[node.0].len()
    }

    /// In-degree of `node`.
    pub fn in_degree(&self, node: NodeId) -> usize {
        self.in_edges[node.0].len()
    }

    /// Whether an edge `from → to` exists (ignoring weights).
    pub fn has_edge(&self, from: NodeId, to: NodeId) -> bool {
        self.out_edges[from.0]
            .iter()
            .any(|e| self.edges[e.0].to == to)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> DiGraph<&'static str> {
        // a → b → d, a → c → d
        let mut g = DiGraph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        let c = g.add_node("c");
        let d = g.add_node("d");
        g.add_edge(a, b, ());
        g.add_edge(a, c, ());
        g.add_edge(b, d, ());
        g.add_edge(c, d, ());
        g
    }

    #[test]
    fn counts() {
        let g = diamond();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 4);
    }

    #[test]
    fn degrees() {
        let g = diamond();
        assert_eq!(g.out_degree(NodeId(0)), 2);
        assert_eq!(g.in_degree(NodeId(0)), 0);
        assert_eq!(g.in_degree(NodeId(3)), 2);
        assert_eq!(g.out_degree(NodeId(3)), 0);
    }

    #[test]
    fn successors_and_predecessors() {
        let g = diamond();
        let succ: Vec<_> = g.successors(NodeId(0)).collect();
        assert_eq!(succ, vec![NodeId(1), NodeId(2)]);
        let pred: Vec<_> = g.predecessors(NodeId(3)).collect();
        assert_eq!(pred, vec![NodeId(1), NodeId(2)]);
    }

    #[test]
    fn parallel_edges_and_self_loops() {
        let mut g: DiGraph<(), u32> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        g.add_edge(a, b, 1);
        g.add_edge(a, b, 2);
        g.add_edge(a, a, 3);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.out_degree(a), 3);
        assert_eq!(g.successors(a).filter(|&n| n == b).count(), 2);
        assert!(g.has_edge(a, a));
    }

    #[test]
    fn edge_weights_and_endpoints() {
        let mut g: DiGraph<&str, &str> = DiGraph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        let e = g.add_edge(a, b, "lbl");
        assert_eq!(*g.edge(e), "lbl");
        assert_eq!(g.endpoints(e), (a, b));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn edge_to_missing_node_panics() {
        let mut g: DiGraph<()> = DiGraph::new();
        let a = g.add_node(());
        g.add_edge(a, NodeId(5), ());
    }
}
