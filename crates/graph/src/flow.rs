//! Dinic's max-flow on integer-capacity directed networks.
//!
//! Used as the ground-truth engine for exact edge/vertex connectivity and
//! to count the disjoint connector paths of Lemma 4.3 (whose proof is "a
//! simple application of Menger's theorem" — we verify it computationally).

use crate::graph::{Graph, NodeId};

/// A directed flow network with integer capacities.
///
/// Arcs are stored with their reverse arcs interleaved (standard residual
/// representation).
///
/// # Example
///
/// ```
/// use decomp_graph::flow::FlowNetwork;
///
/// let mut net = FlowNetwork::new(4);
/// net.add_arc(0, 1, 1);
/// net.add_arc(0, 2, 1);
/// net.add_arc(1, 3, 1);
/// net.add_arc(2, 3, 1);
/// assert_eq!(net.max_flow(0, 3), 2);
/// ```
#[derive(Clone, Debug)]
pub struct FlowNetwork {
    /// `head[a]` is the head vertex of arc `a`; arc `a^1` is its reverse.
    head: Vec<usize>,
    /// Residual capacity per arc.
    cap: Vec<i64>,
    /// `adj[v]` lists arc ids leaving `v`.
    adj: Vec<Vec<usize>>,
}

impl FlowNetwork {
    /// An empty network on `n` vertices.
    pub fn new(n: usize) -> Self {
        FlowNetwork {
            head: Vec::new(),
            cap: Vec::new(),
            adj: vec![Vec::new(); n],
        }
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.adj.len()
    }

    /// Adds a directed arc `u -> v` with capacity `c` (and its residual
    /// reverse arc of capacity 0). Returns the arc id.
    ///
    /// # Panics
    /// Panics if endpoints are out of range or `c < 0`.
    pub fn add_arc(&mut self, u: usize, v: usize, c: i64) -> usize {
        assert!(u < self.n() && v < self.n(), "arc endpoint out of range");
        assert!(c >= 0, "negative capacity");
        let id = self.head.len();
        self.head.push(v);
        self.cap.push(c);
        self.adj[u].push(id);
        self.head.push(u);
        self.cap.push(0);
        self.adj[v].push(id + 1);
        id
    }

    /// Computes the maximum `s`→`t` flow via Dinic's algorithm, mutating
    /// the residual network in place.
    ///
    /// # Panics
    /// Panics if `s == t` or endpoints are out of range.
    pub fn max_flow(&mut self, s: usize, t: usize) -> i64 {
        assert!(s < self.n() && t < self.n(), "terminal out of range");
        assert_ne!(s, t, "source equals sink");
        let mut total = 0i64;
        loop {
            let level = self.bfs_levels(s, t);
            if level[t] == usize::MAX {
                break;
            }
            let mut iter = vec![0usize; self.n()];
            loop {
                let pushed = self.dfs_push(s, t, i64::MAX, &level, &mut iter);
                if pushed == 0 {
                    break;
                }
                total += pushed;
            }
        }
        total
    }

    /// Max flow with an early-exit `limit`: stops once the flow reaches
    /// `limit`. Useful when only "is connectivity >= x" is needed.
    pub fn max_flow_bounded(&mut self, s: usize, t: usize, limit: i64) -> i64 {
        assert_ne!(s, t, "source equals sink");
        let mut total = 0i64;
        while total < limit {
            let level = self.bfs_levels(s, t);
            if level[t] == usize::MAX {
                break;
            }
            let mut iter = vec![0usize; self.n()];
            loop {
                let pushed = self.dfs_push(s, t, limit - total, &level, &mut iter);
                if pushed == 0 {
                    break;
                }
                total += pushed;
                if total >= limit {
                    break;
                }
            }
        }
        total
    }

    fn bfs_levels(&self, s: usize, t: usize) -> Vec<usize> {
        let mut level = vec![usize::MAX; self.n()];
        let mut q = std::collections::VecDeque::new();
        level[s] = 0;
        q.push_back(s);
        while let Some(u) = q.pop_front() {
            if u == t {
                break;
            }
            for &a in &self.adj[u] {
                let v = self.head[a];
                if self.cap[a] > 0 && level[v] == usize::MAX {
                    level[v] = level[u] + 1;
                    q.push_back(v);
                }
            }
        }
        level
    }

    fn dfs_push(
        &mut self,
        u: usize,
        t: usize,
        limit: i64,
        level: &[usize],
        iter: &mut [usize],
    ) -> i64 {
        if u == t {
            return limit;
        }
        while iter[u] < self.adj[u].len() {
            let a = self.adj[u][iter[u]];
            let v = self.head[a];
            if self.cap[a] > 0 && level[v] == level[u] + 1 {
                let pushed = self.dfs_push(v, t, limit.min(self.cap[a]), level, iter);
                if pushed > 0 {
                    self.cap[a] -= pushed;
                    self.cap[a ^ 1] += pushed;
                    return pushed;
                }
            }
            iter[u] += 1;
        }
        0
    }
}

/// Builds the unit-capacity digraph of an undirected graph: each edge
/// becomes two opposite arcs of capacity 1. Returns the network and, for
/// each undirected edge index, the pair of arc ids.
pub fn unit_digraph(g: &Graph) -> (FlowNetwork, Vec<(usize, usize)>) {
    let mut net = FlowNetwork::new(g.n());
    let mut arc_of_edge = Vec::with_capacity(g.m());
    for &(u, v) in g.edges() {
        let a = net.add_arc(u, v, 1);
        let b = net.add_arc(v, u, 1);
        arc_of_edge.push((a, b));
    }
    (net, arc_of_edge)
}

/// Builds the vertex-split network for internally-vertex-disjoint paths:
/// vertex `v` becomes `v_in = 2v` and `v_out = 2v+1` joined by a capacity-1
/// arc (capacity `INF` for the terminals `s` and `t`); each undirected edge
/// `{u,v}` becomes arcs `u_out -> v_in` and `v_out -> u_in` of capacity 1
/// (effectively unbounded multiplicity is unnecessary on simple graphs).
pub fn vertex_split_digraph(g: &Graph, s: NodeId, t: NodeId) -> FlowNetwork {
    const INF: i64 = i64::MAX / 4;
    let mut net = FlowNetwork::new(2 * g.n());
    for v in g.vertices() {
        let c = if v == s || v == t { INF } else { 1 };
        net.add_arc(2 * v, 2 * v + 1, c);
    }
    for &(u, v) in g.edges() {
        net.add_arc(2 * u + 1, 2 * v, INF);
        net.add_arc(2 * v + 1, 2 * u, INF);
    }
    net
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn unit_flow_on_path() {
        let g = generators::path(4);
        let (mut net, _) = unit_digraph(&g);
        assert_eq!(net.max_flow(0, 3), 1);
    }

    #[test]
    fn unit_flow_on_complete() {
        let g = generators::complete(5);
        let (mut net, _) = unit_digraph(&g);
        // 4 edge-disjoint paths between any pair in K5
        assert_eq!(net.max_flow(0, 4), 4);
    }

    #[test]
    fn flow_on_disconnected() {
        let g = Graph::from_edges(4, [(0, 1), (2, 3)]);
        let (mut net, _) = unit_digraph(&g);
        assert_eq!(net.max_flow(0, 3), 0);
    }

    #[test]
    fn bounded_flow_stops_early() {
        let g = generators::complete(6);
        let (mut net, _) = unit_digraph(&g);
        assert_eq!(net.max_flow_bounded(0, 5, 2), 2);
    }

    #[test]
    fn classic_diamond() {
        let mut net = FlowNetwork::new(4);
        net.add_arc(0, 1, 3);
        net.add_arc(0, 2, 2);
        net.add_arc(1, 2, 5);
        net.add_arc(1, 3, 2);
        net.add_arc(2, 3, 3);
        assert_eq!(net.max_flow(0, 3), 5);
    }

    #[test]
    fn vertex_split_counts_internal_disjoint_paths() {
        // Two internally disjoint paths 0-1-3 and 0-2-3.
        let g = Graph::from_edges(4, [(0, 1), (1, 3), (0, 2), (2, 3)]);
        let mut net = vertex_split_digraph(&g, 0, 3);
        // Source is v_out(0) = 1, sink is v_in(3) = 6 in the split digraph.
        assert_eq!(net.max_flow(1, 6), 2);
    }

    #[test]
    fn vertex_split_bottleneck() {
        // Paths 0-1-3 and 0-2-3 but 1 and 2 merged via a cut vertex 4:
        // 0-4-3 only, plus 0-1-4, etc. Simplest: star through one center.
        let g = Graph::from_edges(3, [(0, 1), (1, 2)]);
        let mut net = vertex_split_digraph(&g, 0, 2);
        assert_eq!(net.max_flow(1, 4), 1); // only through vertex 1
    }

    #[test]
    #[should_panic(expected = "source equals sink")]
    fn flow_rejects_equal_terminals() {
        let mut net = FlowNetwork::new(2);
        net.add_arc(0, 1, 1);
        net.max_flow(1, 1);
    }
}
