//! Compact undirected graph representation.
//!
//! [`Graph`] stores an undirected simple graph in CSR (compressed sparse
//! row) form: all algorithms in this workspace iterate neighbors far more
//! often than they mutate the structure, so construction goes through
//! [`GraphBuilder`] and the finished graph is immutable.

use std::collections::BTreeSet;
use std::fmt;

/// Index of a vertex in a [`Graph`]. Vertices are `0..n`.
pub type NodeId = usize;

/// An immutable, undirected simple graph in CSR form.
///
/// Self-loops and parallel edges are rejected at build time. Edges are
/// stored once in [`Graph::edges`] (with `u < v`) and twice in the
/// adjacency arrays.
///
/// # Example
///
/// ```
/// use decomp_graph::{Graph, GraphBuilder};
///
/// let mut b = GraphBuilder::new(3);
/// b.add_edge(0, 1);
/// b.add_edge(1, 2);
/// let g: Graph = b.build();
/// assert_eq!(g.n(), 3);
/// assert_eq!(g.m(), 2);
/// assert_eq!(g.degree(1), 2);
/// assert!(g.has_edge(0, 1));
/// assert!(!g.has_edge(0, 2));
/// ```
// serde derives dropped: the build environment has no crates registry, so
// serialization is hand-rolled where needed (see decomp-bench's table module).
#[derive(Clone, PartialEq, Eq)]
pub struct Graph {
    /// `offsets[v]..offsets[v+1]` indexes `neighbors` for vertex `v`.
    offsets: Vec<usize>,
    /// Concatenated sorted adjacency lists.
    neighbors: Vec<NodeId>,
    /// Unique edges as `(u, v)` with `u < v`, sorted lexicographically.
    edges: Vec<(NodeId, NodeId)>,
}

impl Graph {
    /// Builds a graph with `n` vertices and no edges.
    pub fn empty(n: usize) -> Self {
        GraphBuilder::new(n).build()
    }

    /// Builds a graph directly from an edge list.
    ///
    /// Duplicate edges and self-loops are silently dropped, making this
    /// convenient for randomized generators.
    pub fn from_edges(n: usize, edges: impl IntoIterator<Item = (NodeId, NodeId)>) -> Self {
        let mut b = GraphBuilder::new(n);
        for (u, v) in edges {
            b.try_add_edge(u, v);
        }
        b.build()
    }

    /// Number of vertices.
    #[inline]
    pub fn n(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of edges.
    #[inline]
    pub fn m(&self) -> usize {
        self.edges.len()
    }

    /// Degree of vertex `v`.
    ///
    /// # Panics
    /// Panics if `v >= self.n()`.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        self.offsets[v + 1] - self.offsets[v]
    }

    /// Sorted neighbors of `v`.
    ///
    /// # Panics
    /// Panics if `v >= self.n()`.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        &self.neighbors[self.offsets[v]..self.offsets[v + 1]]
    }

    /// All vertices, `0..n`.
    #[inline]
    pub fn vertices(&self) -> std::ops::Range<NodeId> {
        0..self.n()
    }

    /// Unique edges `(u, v)` with `u < v`, lexicographically sorted.
    #[inline]
    pub fn edges(&self) -> &[(NodeId, NodeId)] {
        &self.edges
    }

    /// Whether the edge `{u, v}` exists. `O(log deg)`.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        if u >= self.n() || v >= self.n() || u == v {
            return false;
        }
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Index of edge `{u,v}` in [`Graph::edges`], if present. `O(log m)`.
    pub fn edge_index(&self, u: NodeId, v: NodeId) -> Option<usize> {
        let key = (u.min(v), u.max(v));
        self.edges.binary_search(&key).ok()
    }

    /// Minimum degree over all vertices; `None` for the empty graph.
    pub fn min_degree(&self) -> Option<usize> {
        (0..self.n()).map(|v| self.degree(v)).min()
    }

    /// The subgraph induced by `keep`, together with the mapping from new
    /// vertex ids to original ids.
    ///
    /// Vertices are renumbered `0..` in ascending original order (`keep`
    /// may be unsorted and repeat ids), which keeps the edges sorted.
    pub fn induced_subgraph(&self, keep: &[NodeId]) -> (Graph, Vec<NodeId>) {
        let mut order = keep.to_vec();
        order.sort_unstable();
        order.dedup();
        let mut back = vec![usize::MAX; self.n()];
        for (new, &old) in order.iter().enumerate() {
            back[old] = new;
        }
        let relabelled = self.edges.iter().map(|&(u, v)| (back[u], back[v]));
        let edges = relabelled
            .filter(|&(u, v)| u != usize::MAX && v != usize::MAX)
            .collect();
        (Graph::from_sorted_edges(order.len(), edges), order)
    }

    /// The spanning subgraph containing exactly the edges for which
    /// `pred(u, v)` holds (same vertex set).
    pub fn edge_subgraph(&self, mut pred: impl FnMut(NodeId, NodeId) -> bool) -> Graph {
        let edges = self.edges.iter().copied().filter(|&(u, v)| pred(u, v));
        Graph::from_sorted_edges(self.n(), edges.collect())
    }

    /// The one CSR writer, from sorted, duplicate-free `u < v < n` edges:
    /// each vertex `w` receives its smaller neighbours (edges `(u, w)`) in
    /// ascending order, then its larger ones (edges `(w, v)`), so every
    /// adjacency list comes out sorted without a sort.
    fn from_sorted_edges(n: usize, edges: Vec<(NodeId, NodeId)>) -> Graph {
        debug_assert!(edges.windows(2).all(|w| w[0] < w[1]), "edges unsorted");
        let mut offsets = vec![0usize; n + 1];
        for &(u, v) in &edges {
            offsets[u + 1] += 1;
            offsets[v + 1] += 1;
        }
        for v in 0..n {
            offsets[v + 1] += offsets[v];
        }
        let mut cursor = offsets.clone();
        let mut neighbors = vec![0; offsets[n]];
        for &(u, v) in &edges {
            neighbors[cursor[u]] = v;
            cursor[u] += 1;
            neighbors[cursor[v]] = u;
            cursor[v] += 1;
        }
        Graph {
            offsets,
            neighbors,
            edges,
        }
    }

    /// A DOT rendering of the graph, for the figure-reproduction examples.
    pub fn to_dot(&self, name: &str) -> String {
        let mut s = format!("graph {name} {{\n");
        for v in self.vertices() {
            s.push_str(&format!("  {v};\n"));
        }
        for &(u, v) in &self.edges {
            s.push_str(&format!("  {u} -- {v};\n"));
        }
        s.push_str("}\n");
        s
    }
}

impl fmt::Debug for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Graph")
            .field("n", &self.n())
            .field("m", &self.m())
            .finish()
    }
}

/// Incremental builder for [`Graph`].
///
/// # Example
///
/// ```
/// use decomp_graph::GraphBuilder;
/// let mut b = GraphBuilder::new(4);
/// b.add_edge(0, 1);
/// assert!(!b.try_add_edge(0, 1)); // duplicate rejected
/// assert!(!b.try_add_edge(2, 2)); // self-loop rejected
/// let g = b.build();
/// assert_eq!(g.m(), 1);
/// ```
#[derive(Clone, Debug)]
pub struct GraphBuilder {
    n: usize,
    edges: BTreeSet<(NodeId, NodeId)>,
}

impl GraphBuilder {
    /// A builder for a graph on `n` vertices.
    pub fn new(n: usize) -> Self {
        GraphBuilder {
            n,
            edges: BTreeSet::new(),
        }
    }

    /// Number of vertices the built graph will have.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of distinct edges added so far.
    pub fn m(&self) -> usize {
        self.edges.len()
    }

    /// Adds the undirected edge `{u, v}`.
    ///
    /// # Panics
    /// Panics on self-loops, duplicate edges, or out-of-range endpoints.
    /// Use [`GraphBuilder::try_add_edge`] for a non-panicking variant.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) {
        assert!(u < self.n && v < self.n, "edge endpoint out of range");
        assert_ne!(u, v, "self-loops are not allowed");
        let inserted = self.edges.insert((u.min(v), u.max(v)));
        assert!(inserted, "duplicate edge {{{u}, {v}}}");
    }

    /// Adds `{u, v}` if it is a valid new edge; returns whether it was added.
    pub fn try_add_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        if u >= self.n || v >= self.n || u == v {
            return false;
        }
        self.edges.insert((u.min(v), u.max(v)))
    }

    /// Whether `{u, v}` has already been added.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.edges.contains(&(u.min(v), u.max(v)))
    }

    /// Finalizes the CSR representation.
    pub fn build(self) -> Graph {
        Graph::from_sorted_edges(self.n, self.edges.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn empty_graph() {
        let g = Graph::empty(5);
        assert_eq!(g.n(), 5);
        assert_eq!(g.m(), 0);
        assert_eq!(g.min_degree(), Some(0));
    }

    #[test]
    fn zero_vertex_graph() {
        let g = Graph::empty(0);
        assert_eq!(g.n(), 0);
        assert_eq!(g.m(), 0);
        assert_eq!(g.min_degree(), None);
    }

    #[test]
    fn triangle() {
        let g = Graph::from_edges(3, [(0, 1), (1, 2), (2, 0)]);
        assert_eq!(g.m(), 3);
        for v in 0..3 {
            assert_eq!(g.degree(v), 2);
        }
        assert!(g.has_edge(2, 0));
        assert!(g.has_edge(0, 2));
        assert_eq!(g.edges(), &[(0, 1), (0, 2), (1, 2)]);
    }

    #[test]
    fn from_edges_dedups_and_drops_loops() {
        let g = Graph::from_edges(3, [(0, 1), (1, 0), (2, 2), (1, 2)]);
        assert_eq!(g.m(), 2);
    }

    #[test]
    #[should_panic(expected = "duplicate edge")]
    fn builder_panics_on_duplicate() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1);
        b.add_edge(1, 0);
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn builder_panics_on_loop() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(1, 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn builder_panics_on_range() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 3);
    }

    #[test]
    fn neighbors_sorted() {
        let g = Graph::from_edges(5, [(3, 1), (3, 0), (3, 4), (3, 2)]);
        assert_eq!(g.neighbors(3), &[0, 1, 2, 4]);
        assert_eq!(g.degree(3), 4);
    }

    #[test]
    fn edge_index_lookup() {
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]);
        assert_eq!(g.edge_index(2, 1), Some(1));
        assert_eq!(g.edge_index(0, 3), None);
    }

    #[test]
    fn induced_subgraph_renumbers() {
        let g = Graph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 3)]);
        let (h, map) = g.induced_subgraph(&[1, 3, 4]);
        assert_eq!(h.n(), 3);
        assert_eq!(map, vec![1, 3, 4]);
        // edges among {1,3,4}: (1,3) and (3,4) -> (0,1) and (1,2)
        assert_eq!(h.edges(), &[(0, 1), (1, 2)]);
    }

    #[test]
    fn edge_subgraph_filters() {
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]);
        let h = g.edge_subgraph(|u, v| u + v >= 3);
        assert_eq!(h.n(), 4);
        assert_eq!(h.edges(), &[(1, 2), (2, 3)]);
    }

    #[test]
    fn dot_output_contains_edges() {
        let g = Graph::from_edges(2, [(0, 1)]);
        let dot = g.to_dot("g");
        assert!(dot.contains("0 -- 1"));
    }

    /// The builder route both subgraph methods took before they wrote the
    /// CSR directly, kept as the reference: the induced subgraph through
    /// a `BTreeSet` of kept ids and `GraphBuilder::add_edge`.
    fn induced_via_builder(g: &Graph, keep: &[NodeId]) -> (Graph, Vec<NodeId>) {
        let order: Vec<NodeId> = keep
            .iter()
            .copied()
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        let mut back = vec![usize::MAX; g.n()];
        for (new, &old) in order.iter().enumerate() {
            back[old] = new;
        }
        let mut b = GraphBuilder::new(order.len());
        for &(u, v) in g.edges() {
            if back[u] != usize::MAX && back[v] != usize::MAX {
                b.add_edge(back[u], back[v]);
            }
        }
        (b.build(), order)
    }

    /// Each adjacency list recomputed from the edge list and sorted — the
    /// check that the CSR writer's unsorted fill order is already sorted.
    fn adjacency_from_edges(g: &Graph) -> Vec<Vec<NodeId>> {
        let mut adj = vec![Vec::new(); g.n()];
        for &(u, v) in g.edges() {
            adj[u].push(v);
            adj[v].push(u);
        }
        adj.iter_mut().for_each(|list| list.sort_unstable());
        adj
    }

    proptest! {
        /// `edge_subgraph` and `induced_subgraph` build exactly the graph
        /// the `GraphBuilder` route builds, on random graphs, random edge
        /// filters, and unsorted `keep` lists with repeated ids; every
        /// adjacency list matches its edges.
        fn subgraphs_match_the_builder_route(seed in any::<u64>(), n in 1usize..40) {
            let mut rng = StdRng::seed_from_u64(seed);
            let g = generators::gnm(n, rng.gen_range(0..=n * (n - 1) / 2), seed);
            let kept: Vec<bool> = g.edges().iter().map(|_| rng.gen_bool(0.6)).collect();
            let pred = |u, v| kept[g.edge_index(u, v).expect("an edge of g")];
            let kept_edges = g.edges().iter().copied().filter(|&(u, v)| pred(u, v));
            let by_builder = Graph::from_edges(n, kept_edges);
            let direct = g.edge_subgraph(pred);
            prop_assert_eq!(&direct, &by_builder);
            let len = rng.gen_range(0..2 * n);
            let keep: Vec<NodeId> = (0..len).map(|_| rng.gen_range(0..n)).collect();
            let (h, map) = g.induced_subgraph(&keep);
            let (want, want_map) = induced_via_builder(&g, &keep);
            prop_assert_eq!(&map, &want_map);
            prop_assert_eq!(&h, &want);
            for graph in [&g, &direct, &h] {
                let adj = adjacency_from_edges(graph);
                for v in graph.vertices() {
                    prop_assert_eq!(graph.neighbors(v), adj[v].as_slice(), "vertex {}", v);
                }
            }
        }
    }
}
