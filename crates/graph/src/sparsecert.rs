//! Sparse connectivity certificates (Nagamochi–Ibaraki scan-first search).
//!
//! The paper cites Thurimella's distributed sparse certificates (reference \[49\] there); the
//! centralized engine behind them is the Nagamochi–Ibaraki forest
//! decomposition: partition the edges into forests `F_1, F_2, ...` where
//! `F_i` is a spanning forest of `G − (F_1 ∪ ... ∪ F_{i−1})`; then
//! `F_1 ∪ ... ∪ F_k` has at most `k(n−1)` edges and preserves both edge
//! and vertex connectivity up to `k`. Used as a preprocessing step to
//! shrink dense instances before running the decompositions.

use crate::graph::{Graph, NodeId};

/// The forest decomposition: `forest_of[e]` is the 1-based forest index of
/// edge `e` (in `g.edges()` order).
#[derive(Clone, Debug)]
pub struct ForestDecomposition {
    /// 1-based forest index per edge.
    pub forest_of: Vec<usize>,
    /// Number of forests used (equals the graph's degeneracy-ish bound).
    pub num_forests: usize,
}

/// Computes the Nagamochi–Ibaraki forest decomposition in `O(m α(n))`
/// (repeated spanning-forest peeling — equivalent output to the
/// scan-first-search labeling for certificate purposes).
pub fn forest_decomposition(g: &Graph) -> ForestDecomposition {
    let m = g.m();
    let mut forest_of = vec![0usize; m];
    let mut remaining: Vec<usize> = (0..m).collect();
    let mut index = 0usize;
    while !remaining.is_empty() {
        index += 1;
        let mut uf = crate::unionfind::UnionFind::new(g.n());
        let mut next = Vec::new();
        for &e in &remaining {
            let (u, v) = g.edges()[e];
            if uf.union(u, v) {
                forest_of[e] = index;
            } else {
                next.push(e);
            }
        }
        remaining = next;
    }
    ForestDecomposition {
        forest_of,
        num_forests: index,
    }
}

/// The sparse `k`-connectivity certificate: the union of the first `k`
/// forests. Preserves `min(k, vertex connectivity)` and
/// `min(k, edge connectivity)`, with at most `k(n−1)` edges.
pub fn sparse_certificate(g: &Graph, k: usize) -> Graph {
    assert!(k >= 1, "certificate order must be positive");
    let fd = forest_decomposition(g);
    let edges: Vec<(NodeId, NodeId)> = g
        .edges()
        .iter()
        .enumerate()
        .filter(|(e, _)| fd.forest_of[*e] <= k)
        .map(|(_, &uv)| uv)
        .collect();
    Graph::from_edges(g.n(), edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::connectivity::{edge_connectivity, vertex_connectivity};
    use crate::generators;
    use proptest::prelude::*;

    #[test]
    fn forest_indices_are_forests() {
        let g = generators::complete(8);
        let fd = forest_decomposition(&g);
        for i in 1..=fd.num_forests {
            let f = g.edge_subgraph(|u, v| fd.forest_of[g.edge_index(u, v).unwrap()] == i);
            // A forest has no cycle: every component has |E| = |V| - 1.
            let mut uf = crate::unionfind::UnionFind::new(f.n());
            for &(u, v) in f.edges() {
                assert!(uf.union(u, v), "forest {i} contains a cycle");
            }
        }
    }

    #[test]
    fn certificate_size_bound() {
        let g = generators::complete(20);
        for k in 1..6 {
            let cert = sparse_certificate(&g, k);
            assert!(cert.m() <= k * (g.n() - 1), "k={k}: {} edges", cert.m());
        }
    }

    #[test]
    fn certificate_preserves_connectivity_up_to_k() {
        let g = generators::harary(6, 20);
        for k in 1..=7 {
            let cert = sparse_certificate(&g, k);
            assert_eq!(
                edge_connectivity(&cert).min(k),
                edge_connectivity(&g).min(k),
                "edge connectivity at k={k}"
            );
            assert_eq!(
                vertex_connectivity(&cert).min(k),
                vertex_connectivity(&g).min(k),
                "vertex connectivity at k={k}"
            );
        }
    }

    #[test]
    fn certificate_of_sparse_graph_is_itself() {
        let g = generators::path(6);
        let cert = sparse_certificate(&g, 3);
        assert_eq!(cert.edges(), g.edges());
    }

    #[test]
    fn first_forest_spans() {
        let g = generators::harary(4, 12);
        let f1 = sparse_certificate(&g, 1);
        assert!(crate::traversal::is_connected(&f1));
        assert_eq!(f1.m(), g.n() - 1);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Certificates never increase and never lose low connectivity.
        fn certificate_invariants(seed in 0u64..200, k in 1usize..5) {
            let g = generators::gnp(14, 0.5, seed);
            let cert = sparse_certificate(&g, k);
            prop_assert!(cert.m() <= g.m());
            prop_assert!(cert.m() <= k * (g.n().saturating_sub(1)));
            prop_assert_eq!(
                edge_connectivity(&cert).min(k),
                edge_connectivity(&g).min(k)
            );
        }
    }
}
