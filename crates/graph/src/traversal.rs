//! Breadth-first traversal, connected components, diameter.
//!
//! These are the primitives the paper's preamble assumes: nodes learn `n`
//! and a 2-approximation of the diameter `D` via "a simple and standard BFS
//! tree approach" (Section 2).

use crate::graph::{Graph, NodeId};

/// Result of a BFS from a single source: hop distances and BFS-tree parents.
#[derive(Clone, Debug)]
pub struct BfsTree {
    /// `dist[v]` is the hop distance from the source, or `usize::MAX` if
    /// unreachable.
    pub dist: Vec<usize>,
    /// `parent[v]` is the BFS-tree parent, `usize::MAX` for the source and
    /// unreachable vertices.
    pub parent: Vec<NodeId>,
    /// The source vertex.
    pub source: NodeId,
}

impl BfsTree {
    /// Whether `v` was reached.
    pub fn reached(&self, v: NodeId) -> bool {
        self.dist[v] != usize::MAX
    }

    /// Maximum finite distance (the source's eccentricity within its
    /// component).
    pub fn eccentricity(&self) -> usize {
        self.dist
            .iter()
            .copied()
            .filter(|&d| d != usize::MAX)
            .max()
            .unwrap_or(0)
    }

    /// Tree edges `(parent, child)` of the BFS tree.
    pub fn tree_edges(&self) -> Vec<(NodeId, NodeId)> {
        (0..self.dist.len())
            .filter(|&v| v != self.source && self.reached(v))
            .map(|v| (self.parent[v], v))
            .collect()
    }
}

/// BFS from `source`.
///
/// # Panics
/// Panics if `source >= g.n()`.
pub fn bfs(g: &Graph, source: NodeId) -> BfsTree {
    assert!(source < g.n(), "BFS source out of range");
    let mut dist = vec![usize::MAX; g.n()];
    let mut parent = vec![usize::MAX; g.n()];
    let mut queue = std::collections::VecDeque::new();
    dist[source] = 0;
    queue.push_back(source);
    while let Some(u) = queue.pop_front() {
        for &v in g.neighbors(u) {
            if dist[v] == usize::MAX {
                dist[v] = dist[u] + 1;
                parent[v] = u;
                queue.push_back(v);
            }
        }
    }
    BfsTree {
        dist,
        parent,
        source,
    }
}

/// Connected-component labels: `labels[v]` is the smallest vertex id in
/// `v`'s component. Also returns the number of components.
pub fn connected_components(g: &Graph) -> (Vec<usize>, usize) {
    let n = g.n();
    let mut labels = vec![usize::MAX; n];
    let mut count = 0;
    for s in 0..n {
        if labels[s] != usize::MAX {
            continue;
        }
        count += 1;
        let mut stack = vec![s];
        labels[s] = s;
        while let Some(u) = stack.pop() {
            for &v in g.neighbors(u) {
                if labels[v] == usize::MAX {
                    labels[v] = s;
                    stack.push(v);
                }
            }
        }
    }
    (labels, count)
}

/// Whether the graph is connected. The empty graph counts as connected.
pub fn is_connected(g: &Graph) -> bool {
    g.n() == 0 || connected_components(g).1 == 1
}

/// Exact diameter via BFS from every vertex. `O(n·m)`; `None` if the graph
/// is disconnected or empty.
pub fn diameter(g: &Graph) -> Option<usize> {
    if g.n() == 0 || !is_connected(g) {
        return None;
    }
    Some(
        (0..g.n())
            .map(|s| bfs(g, s).eccentricity())
            .max()
            .unwrap_or(0),
    )
}

/// A 2-approximation of the diameter via a single BFS: the eccentricity `e`
/// of any vertex satisfies `e <= D <= 2e`. `None` if disconnected/empty.
///
/// This mirrors what the distributed preamble computes in `O(D)` rounds.
pub fn diameter_2approx(g: &Graph) -> Option<usize> {
    if g.n() == 0 || !is_connected(g) {
        return None;
    }
    Some(2 * bfs(g, 0).eccentricity())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use proptest::prelude::*;

    #[test]
    fn bfs_path_distances() {
        let g = generators::path(5);
        let t = bfs(&g, 0);
        assert_eq!(t.dist, vec![0, 1, 2, 3, 4]);
        assert_eq!(t.parent, vec![usize::MAX, 0, 1, 2, 3]);
        assert_eq!(t.eccentricity(), 4);
    }

    #[test]
    fn bfs_unreachable() {
        let g = Graph::from_edges(4, [(0, 1), (2, 3)]);
        let t = bfs(&g, 0);
        assert!(!t.reached(2));
        assert!(!t.reached(3));
        assert_eq!(t.parent[3], usize::MAX);
        assert_eq!(t.tree_edges(), vec![(0, 1)]);
    }

    #[test]
    fn components_counts() {
        let g = Graph::from_edges(6, [(0, 1), (1, 2), (4, 5)]);
        let (labels, count) = connected_components(&g);
        assert_eq!(count, 3);
        assert_eq!(labels[0], labels[2]);
        assert_eq!(labels[3], 3);
        assert_eq!(labels[4], labels[5]);
        assert!(!is_connected(&g));
    }

    #[test]
    fn diameter_of_cycle() {
        let g = generators::cycle(8);
        assert_eq!(diameter(&g), Some(4));
        let approx = diameter_2approx(&g).unwrap();
        assert!((4..=8).contains(&approx));
    }

    #[test]
    fn diameter_of_complete() {
        let g = generators::complete(6);
        assert_eq!(diameter(&g), Some(1));
    }

    #[test]
    fn diameter_disconnected_is_none() {
        let g = Graph::from_edges(3, [(0, 1)]);
        assert_eq!(diameter(&g), None);
        assert_eq!(diameter_2approx(&g), None);
    }

    #[test]
    fn single_vertex() {
        let g = Graph::empty(1);
        assert_eq!(diameter(&g), Some(0));
        assert!(is_connected(&g));
    }

    proptest! {
        /// BFS distance is symmetric on undirected graphs:
        /// dist(u -> v) == dist(v -> u).
        fn bfs_distance_symmetric(seed in 0u64..50) {
            let g = generators::gnp(24, 0.15, seed);
            let from0 = bfs(&g, 0);
            for v in g.vertices() {
                let from_v = bfs(&g, v);
                prop_assert_eq!(from0.dist[v], from_v.dist[0]);
            }
        }

        /// Triangle inequality on BFS distances.
        fn bfs_triangle_inequality(seed in 0u64..30) {
            let g = generators::gnp(20, 0.2, seed);
            let d0 = bfs(&g, 0).dist;
            let d1 = bfs(&g, 1).dist;
            for v in g.vertices() {
                if d0[v] != usize::MAX && d0[1] != usize::MAX && d1[v] != usize::MAX {
                    prop_assert!(d0[v] <= d0[1].saturating_add(d1[v]));
                }
            }
        }
    }
}
