//! Minimum spanning trees / forests on weighted views of a [`Graph`].
//!
//! Two places in the paper require an MST:
//!
//! * CDS packing → dominating trees (Section 3.1): 0/1 weights, where
//!   weight-0 edges join virtual nodes of the same class;
//! * the MWU spanning-tree packing (Section 5.1): exponential costs
//!   `c_e = exp(α·z_e)`.
//!
//! Weights are `f64` supplied per edge index; ties are broken by edge index
//! so results are deterministic.

use crate::graph::{Graph, NodeId};
use crate::unionfind::UnionFind;

/// A spanning forest as a set of edge indices into [`Graph::edges`].
#[derive(Clone, Debug, PartialEq)]
pub struct SpanningForest {
    /// Indices into `g.edges()` of the chosen edges.
    pub edge_indices: Vec<usize>,
    /// Total weight of the chosen edges.
    pub total_weight: f64,
    /// Number of trees in the forest (1 for connected graphs).
    pub num_trees: usize,
}

impl SpanningForest {
    /// The chosen edges as endpoint pairs.
    pub fn edges(&self, g: &Graph) -> Vec<(NodeId, NodeId)> {
        self.edge_indices.iter().map(|&i| g.edges()[i]).collect()
    }

    /// Whether this forest is a single spanning tree of `g`.
    pub fn is_spanning_tree(&self, g: &Graph) -> bool {
        self.num_trees == 1 && self.edge_indices.len() + 1 == g.n()
    }
}

/// Kruskal's algorithm: minimum spanning forest under `weight(edge_index)`.
///
/// # Panics
/// Panics if any weight is NaN.
pub fn minimum_spanning_forest(g: &Graph, weight: impl Fn(usize) -> f64) -> SpanningForest {
    let mut order: Vec<usize> = (0..g.m()).collect();
    let weights: Vec<f64> = order.iter().map(|&i| weight(i)).collect();
    assert!(
        weights.iter().all(|w| !w.is_nan()),
        "NaN edge weight in MST"
    );
    order.sort_by(|&a, &b| {
        weights[a]
            .partial_cmp(&weights[b])
            .expect("NaN filtered above")
            .then(a.cmp(&b))
    });
    let mut uf = UnionFind::new(g.n());
    let mut chosen = Vec::new();
    let mut total = 0.0;
    for i in order {
        let (u, v) = g.edges()[i];
        if uf.union(u, v) {
            chosen.push(i);
            total += weights[i];
        }
    }
    chosen.sort_unstable();
    SpanningForest {
        edge_indices: chosen,
        total_weight: total,
        num_trees: uf.num_sets(),
    }
}

/// A rooted tree on a subset of `g`'s vertices, as used for dominating and
/// spanning trees throughout the workspace.
///
/// Stored as parent pointers over the *original* vertex ids; vertices not in
/// the tree have parent `usize::MAX` and `in_tree == false`.
#[derive(Clone, Debug)]
pub struct RootedTree {
    /// Root vertex.
    pub root: NodeId,
    /// Parent of each vertex (`usize::MAX` for root / non-members).
    pub parent: Vec<NodeId>,
    /// Membership flags.
    pub in_tree: Vec<bool>,
}

impl RootedTree {
    /// Builds a rooted tree from an undirected edge set by BFS from `root`.
    ///
    /// Returns `None` if the edge set is not connected when restricted to
    /// the vertices it touches, or contains a cycle (a duplicated edge is
    /// a cycle).
    pub fn from_edges(n: usize, root: NodeId, edges: &[(NodeId, NodeId)]) -> Option<RootedTree> {
        let mut in_tree = vec![false; n];
        in_tree[root] = true;
        for &(u, v) in edges {
            in_tree[u] = true;
            in_tree[v] = true;
        }
        let member_count = in_tree.iter().filter(|&&b| b).count();
        if edges.len() + 1 != member_count {
            return None; // cycle or disconnected
        }
        let mut parent = vec![usize::MAX; n];
        let order = TreeAdjacency::new(n, edges).bfs(root, &mut vec![usize::MAX; n], &mut parent);
        (order.len() == member_count).then_some(RootedTree {
            root,
            parent,
            in_tree,
        })
    }

    /// Number of vertices in the tree.
    pub fn size(&self) -> usize {
        self.in_tree.iter().filter(|&&b| b).count()
    }

    /// The tree's vertices.
    pub fn vertices(&self) -> Vec<NodeId> {
        (0..self.in_tree.len())
            .filter(|&v| self.in_tree[v])
            .collect()
    }

    /// The tree's edges as `(parent, child)` pairs.
    pub fn edges(&self) -> Vec<(NodeId, NodeId)> {
        (0..self.parent.len())
            .filter(|&v| self.in_tree[v] && v != self.root)
            .map(|v| (self.parent[v], v))
            .collect()
    }

    /// Depth of vertex `v` (hops to the root); `None` if not in the tree.
    pub fn depth(&self, v: NodeId) -> Option<usize> {
        if !self.in_tree[v] {
            return None;
        }
        let mut d = 0;
        let mut cur = v;
        while cur != self.root {
            cur = self.parent[cur];
            d += 1;
        }
        Some(d)
    }

    /// Diameter of the tree (longest path, in edges).
    ///
    /// Two-sweep BFS, the standard exact method on trees: a vertex
    /// farthest from the root ends a longest path, and its eccentricity
    /// is the diameter.
    pub fn diameter(&self) -> usize {
        let edges = self.edges();
        if edges.is_empty() {
            return 0;
        }
        let n = self.parent.len();
        let adj = TreeAdjacency::new(n, &edges);
        let (mut dist, mut parent) = (vec![usize::MAX; n], vec![usize::MAX; n]);
        let order = adj.bfs(self.root, &mut dist, &mut parent);
        let far = *order.last().expect("the BFS visits its source");
        for &v in &order {
            dist[v] = usize::MAX;
        }
        let order = adj.bfs(far, &mut dist, &mut parent);
        dist[*order.last().expect("the BFS visits its source")]
    }
}

/// A tree's adjacency in CSR form: `nbrs[offsets[v]..offsets[v + 1]]`
/// are `v`'s neighbours, in edge-list order.
struct TreeAdjacency {
    offsets: Vec<usize>,
    nbrs: Vec<NodeId>,
}

impl TreeAdjacency {
    fn new(n: usize, edges: &[(NodeId, NodeId)]) -> Self {
        let mut offsets = vec![0; n + 1];
        for &(u, v) in edges {
            offsets[u + 1] += 1;
            offsets[v + 1] += 1;
        }
        for v in 0..n {
            offsets[v + 1] += offsets[v];
        }
        let mut next = offsets.clone();
        let mut nbrs = vec![0; 2 * edges.len()];
        for &(u, v) in edges {
            nbrs[next[u]] = v;
            next[u] += 1;
            nbrs[next[v]] = u;
            next[v] += 1;
        }
        TreeAdjacency { offsets, nbrs }
    }

    /// BFS from `s` through the vertices whose `dist` is still
    /// `usize::MAX`: sets their `dist` and `parent`, and returns them in
    /// visit order (so the last one is a farthest from `s`).
    fn bfs(&self, s: NodeId, dist: &mut [usize], parent: &mut [NodeId]) -> Vec<NodeId> {
        dist[s] = 0;
        let mut order = vec![s];
        let mut head = 0;
        while let Some(&u) = order.get(head) {
            head += 1;
            for &v in &self.nbrs[self.offsets[u]..self.offsets[u + 1]] {
                if dist[v] == usize::MAX {
                    dist[v] = dist[u] + 1;
                    parent[v] = u;
                    order.push(v);
                }
            }
        }
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use proptest::prelude::*;

    #[test]
    fn mst_on_connected_graph_is_tree() {
        let g = generators::gnp(20, 0.3, 3);
        if crate::traversal::is_connected(&g) {
            let f = minimum_spanning_forest(&g, |_| 1.0);
            assert!(f.is_spanning_tree(&g));
        }
    }

    #[test]
    fn mst_counts_components() {
        let g = Graph::from_edges(5, [(0, 1), (2, 3)]);
        let f = minimum_spanning_forest(&g, |_| 1.0);
        assert_eq!(f.num_trees, 3);
        assert_eq!(f.edge_indices.len(), 2);
    }

    #[test]
    fn mst_prefers_light_edges() {
        // Triangle with one heavy edge: MST avoids it.
        let g = Graph::from_edges(3, [(0, 1), (0, 2), (1, 2)]);
        let w = [10.0, 1.0, 1.0];
        let f = minimum_spanning_forest(&g, |i| w[i]);
        assert_eq!(f.total_weight, 2.0);
        assert!(!f.edge_indices.contains(&0));
    }

    #[test]
    fn mst_deterministic_tie_break() {
        let g = generators::complete(6);
        let a = minimum_spanning_forest(&g, |_| 1.0);
        let b = minimum_spanning_forest(&g, |_| 1.0);
        assert_eq!(a.edge_indices, b.edge_indices);
    }

    #[test]
    fn rooted_tree_from_path() {
        let t = RootedTree::from_edges(4, 0, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        assert_eq!(t.size(), 4);
        assert_eq!(t.depth(3), Some(3));
        assert_eq!(t.diameter(), 3);
        assert_eq!(t.parent[3], 2);
    }

    #[test]
    fn rooted_tree_rejects_cycle() {
        assert!(RootedTree::from_edges(3, 0, &[(0, 1), (1, 2), (2, 0)]).is_none());
        // A duplicated edge is a 2-cycle.
        assert!(RootedTree::from_edges(3, 0, &[(0, 1), (1, 2), (1, 0)]).is_none());
    }

    #[test]
    fn rooted_tree_rejects_disconnected() {
        assert!(RootedTree::from_edges(5, 0, &[(0, 1), (3, 4)]).is_none());
        // As many edges as a tree on the touched vertices, but the root
        // sits apart from a triangle.
        assert!(RootedTree::from_edges(4, 0, &[(1, 2), (2, 3), (3, 1)]).is_none());
    }

    #[test]
    fn rooted_tree_singleton() {
        let t = RootedTree::from_edges(3, 1, &[]).unwrap();
        assert_eq!(t.size(), 1);
        assert_eq!(t.diameter(), 0);
        assert_eq!(t.depth(0), None);
    }

    #[test]
    fn star_tree_diameter() {
        let t = RootedTree::from_edges(5, 0, &[(0, 1), (0, 2), (0, 3), (0, 4)]).unwrap();
        assert_eq!(t.diameter(), 2);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The two-sweep diameter equals the largest BFS eccentricity over
        /// the tree's vertices, on random trees over a random subset of
        /// the ids, with the edges in random order and a random root.
        fn rooted_tree_diameter_is_the_largest_eccentricity(seed in 0u64..1000) {
            use rand::seq::SliceRandom;
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let n = rng.gen_range(1..40);
            let mut ids: Vec<NodeId> = (0..n).collect();
            ids.shuffle(&mut rng);
            let size = rng.gen_range(1..=n);
            let mut edges: Vec<(NodeId, NodeId)> = (1..size)
                .map(|i| (ids[rng.gen_range(0..i)], ids[i]))
                .collect();
            edges.shuffle(&mut rng);
            let root = ids[rng.gen_range(0..size)];
            let t = RootedTree::from_edges(n, root, &edges).expect("a tree");
            let g = Graph::from_edges(n, edges.iter().copied());
            let eccentricity = ids[..size]
                .iter()
                .map(|&s| crate::traversal::bfs(&g, s).eccentricity())
                .max();
            prop_assert_eq!(Some(t.diameter()), eccentricity);
        }

        /// The MST weight is minimal: no single-edge swap improves it
        /// (cut/cycle property check on random weights).
        fn mst_cut_property(seed in 0u64..500) {
            use rand::{Rng, SeedableRng};
            let g = generators::random_connected(12, 8, seed);
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xabc);
            let w: Vec<f64> = (0..g.m()).map(|_| rng.gen_range(0.0..10.0)).collect();
            let f = minimum_spanning_forest(&g, |i| w[i]);
            prop_assert!(f.is_spanning_tree(&g));
            // Exchange argument: adding any non-tree edge e creates a cycle;
            // every tree edge on that cycle must weigh <= w[e].
            let in_tree: std::collections::HashSet<usize> = f.edge_indices.iter().copied().collect();
            let tree_edges: Vec<(usize, usize)> = f.edges(&g);
            for e in 0..g.m() {
                if in_tree.contains(&e) { continue; }
                let (u, v) = g.edges()[e];
                // path u->v in tree
                let t = RootedTree::from_edges(g.n(), 0, &tree_edges).unwrap();
                // collect path via parents to root then splice
                let mut pu = vec![u];
                let mut cur = u;
                while cur != t.root { cur = t.parent[cur]; pu.push(cur); }
                let mut pv = vec![v];
                cur = v;
                while cur != t.root { cur = t.parent[cur]; pv.push(cur); }
                let setu: std::collections::HashSet<usize> = pu.iter().copied().collect();
                let lca = *pv.iter().find(|x| setu.contains(x)).unwrap();
                let mut cycle_edges = Vec::new();
                for path in [&pu, &pv] {
                    for win in path.windows(2) {
                        if win[0] == lca { break; }
                        cycle_edges.push(g.edge_index(win[0], win[1]).unwrap());
                        if win[1] == lca { break; }
                    }
                }
                for te in cycle_edges {
                    prop_assert!(w[te] <= w[e] + 1e-9,
                        "tree edge {} heavier than cycle-closing edge {}", te, e);
                }
            }
        }
    }
}
