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
    /// the vertices it touches, or contains a cycle.
    pub fn from_edges(n: usize, root: NodeId, edges: &[(NodeId, NodeId)]) -> Option<RootedTree> {
        let mut adj: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        let mut members = vec![false; n];
        members[root] = true;
        for &(u, v) in edges {
            adj[u].push(v);
            adj[v].push(u);
            members[u] = true;
            members[v] = true;
        }
        let member_count = members.iter().filter(|&&b| b).count();
        if edges.len() + 1 != member_count {
            return None; // cycle or disconnected
        }
        let mut parent = vec![usize::MAX; n];
        let mut seen = vec![false; n];
        let mut queue = std::collections::VecDeque::new();
        seen[root] = true;
        queue.push_back(root);
        let mut reached = 1;
        while let Some(u) = queue.pop_front() {
            for &v in &adj[u] {
                if !seen[v] {
                    seen[v] = true;
                    parent[v] = u;
                    reached += 1;
                    queue.push_back(v);
                }
            }
        }
        if reached != member_count {
            return None;
        }
        Some(RootedTree {
            root,
            parent,
            in_tree: members,
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
    /// Two-sweep BFS: the standard exact method on trees.
    pub fn diameter(&self) -> usize {
        let verts = self.vertices();
        if verts.len() <= 1 {
            return 0;
        }
        let mut adj: Vec<Vec<NodeId>> = vec![Vec::new(); self.parent.len()];
        for (p, c) in self.edges() {
            adj[p].push(c);
            adj[c].push(p);
        }
        let far = |s: NodeId| -> (NodeId, usize) {
            let mut dist = vec![usize::MAX; adj.len()];
            let mut q = std::collections::VecDeque::new();
            dist[s] = 0;
            q.push_back(s);
            let mut best = (s, 0);
            while let Some(u) = q.pop_front() {
                if dist[u] > best.1 {
                    best = (u, dist[u]);
                }
                for &v in &adj[u] {
                    if dist[v] == usize::MAX {
                        dist[v] = dist[u] + 1;
                        q.push_back(v);
                    }
                }
            }
            best
        };
        let (a, _) = far(self.root);
        far(a).1
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
    }

    #[test]
    fn rooted_tree_rejects_disconnected() {
        assert!(RootedTree::from_edges(5, 0, &[(0, 1), (3, 4)]).is_none());
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
