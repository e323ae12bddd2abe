//! Exact edge and vertex connectivity.
//!
//! These provide the ground truth (`λ`, `k`) against which the paper's
//! decomposition sizes and the approximation ratios of Corollary 1.7 are
//! measured. Both reduce to unit-capacity max-flows ([`crate::flow`]).

use crate::flow::{unit_digraph, vertex_split_digraph};
use crate::graph::Graph;
use crate::traversal::is_connected;

/// Exact edge connectivity `λ(G)`.
///
/// Uses the classical reduction: fix `s = 0`; `λ = min over t != s` of
/// maxflow(s, t) in the unit-capacity digraph (every global min cut
/// separates `s` from some `t`). Returns 0 for disconnected or trivial
/// (`n <= 1`) graphs.
pub fn edge_connectivity(g: &Graph) -> usize {
    if g.n() <= 1 || !is_connected(g) {
        return 0;
    }
    // λ ≤ min degree, so the min degree is a safe flow bound.
    let mut best = g.min_degree().unwrap_or(0);
    for t in 1..g.n() {
        if best == 0 {
            break;
        }
        let (mut net, _) = unit_digraph(g);
        let f = net.max_flow_bounded(0, t, best as i64);
        best = best.min(f as usize);
        if best == 0 {
            break;
        }
    }
    best
}

/// Exact vertex connectivity `k(G)`.
///
/// Even's algorithm: `k = min( min_{t not adjacent to s_i} κ(s_i, t) )`
/// where `s_0, ..., s_k` are `k+1` fixed vertices — since a minimum vertex
/// cut has size `k`, at least one `s_i` avoids it. We iterate: maintain an
/// upper bound `ub` (initially `min degree`), take the first `ub + 1`
/// vertices as sources, and for each compute local connectivity to every
/// non-neighbor; additionally pair each source's neighbors (standard
/// Even–Tarjan refinement is unnecessary at our scales — covering `ub+1`
/// sources suffices for correctness).
///
/// For complete graphs returns `n - 1` by convention.
pub fn vertex_connectivity(g: &Graph) -> usize {
    let n = g.n();
    if n <= 1 {
        return 0;
    }
    if !is_connected(g) {
        return 0;
    }
    let mindeg = g.min_degree().unwrap_or(0);
    // Complete graph: no non-adjacent pair exists.
    if g.m() == n * (n - 1) / 2 {
        return n - 1;
    }
    let mut ub = mindeg;
    // We need ub+1 sources; recompute lazily since ub only decreases.
    let mut s_idx = 0;
    while s_idx <= ub && s_idx < n {
        let s = s_idx;
        for t in g.vertices() {
            if t == s || g.has_edge(s, t) {
                continue;
            }
            let mut net = vertex_split_digraph(g, s, t);
            let f = net.max_flow_bounded(2 * s + 1, 2 * t, ub as i64 + 1) as usize;
            ub = ub.min(f);
        }
        s_idx += 1;
    }
    ub
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use proptest::prelude::*;

    #[test]
    fn connectivity_of_path() {
        let g = generators::path(6);
        assert_eq!(edge_connectivity(&g), 1);
        assert_eq!(vertex_connectivity(&g), 1);
    }

    #[test]
    fn connectivity_of_cycle() {
        let g = generators::cycle(7);
        assert_eq!(edge_connectivity(&g), 2);
        assert_eq!(vertex_connectivity(&g), 2);
    }

    #[test]
    fn connectivity_of_complete() {
        let g = generators::complete(6);
        assert_eq!(edge_connectivity(&g), 5);
        assert_eq!(vertex_connectivity(&g), 5);
    }

    #[test]
    fn connectivity_of_hypercube() {
        for d in 2..=4 {
            let g = generators::hypercube(d);
            assert_eq!(edge_connectivity(&g), d as usize);
            assert_eq!(vertex_connectivity(&g), d as usize);
        }
    }

    #[test]
    fn connectivity_of_harary() {
        for k in 2..=5 {
            for n in [k + 2, 2 * k + 1, 13] {
                let g = generators::harary(k, n);
                assert_eq!(vertex_connectivity(&g), k, "H_{{{k},{n}}} vertex");
                assert_eq!(edge_connectivity(&g), k, "H_{{{k},{n}}} edge");
            }
        }
    }

    #[test]
    fn connectivity_of_bipartite() {
        let g = generators::complete_bipartite(3, 5);
        assert_eq!(vertex_connectivity(&g), 3);
        assert_eq!(edge_connectivity(&g), 3);
    }

    #[test]
    fn disconnected_is_zero() {
        let g = Graph::from_edges(4, [(0, 1), (2, 3)]);
        assert_eq!(edge_connectivity(&g), 0);
        assert_eq!(vertex_connectivity(&g), 0);
    }

    #[test]
    fn barbell_is_one_connected() {
        let g = generators::barbell(5, 3);
        assert_eq!(vertex_connectivity(&g), 1);
        assert_eq!(edge_connectivity(&g), 1);
    }

    #[test]
    fn clique_plus_triples_is_three_connected() {
        let g = generators::clique_plus_triples(5);
        assert_eq!(vertex_connectivity(&g), 3);
    }

    #[test]
    fn thick_path_connectivity() {
        let g = generators::thick_path(3, 4);
        // Removing one interior block (3 vertices) disconnects the path of
        // cliques, so k = 3; the cheapest edge cut isolates an end-block
        // vertex of degree 2 + 3 = 5.
        assert_eq!(vertex_connectivity(&g), 3);
        assert_eq!(edge_connectivity(&g), 5);
    }

    #[test]
    fn star_vertex_connectivity() {
        let g = generators::star(6);
        assert_eq!(vertex_connectivity(&g), 1);
    }

    /// Whether the vertices outside the bitmask `removed` induce a
    /// connected subgraph (vacuously true for fewer than two survivors).
    fn survivors_connected(g: &Graph, removed: u32) -> bool {
        let alive = !removed & ((1u32 << g.n()) - 1);
        if alive.count_ones() < 2 {
            return true;
        }
        let start = alive.trailing_zeros() as usize;
        let mut seen = 1u32 << start;
        let mut stack = vec![start];
        while let Some(u) = stack.pop() {
            for &v in g.neighbors(u) {
                if alive & !seen & (1 << v) != 0 {
                    seen |= 1 << v;
                    stack.push(v);
                }
            }
        }
        seen == alive
    }

    /// `k(G)` by enumerating every vertex subset: the smallest set whose
    /// removal disconnects the graph (the empty set when it is already
    /// disconnected), or `n - 1` when no set does.
    fn brute_force_vertex_connectivity(g: &Graph) -> usize {
        (0u32..1 << g.n())
            .filter(|&s| !survivors_connected(g, s))
            .map(|s| s.count_ones() as usize)
            .min()
            .unwrap_or(g.n() - 1)
    }

    /// `λ(G)` by enumerating every proper non-empty side `S`: the smallest
    /// number of edges crossing `δ(S)`.
    fn brute_force_edge_connectivity(g: &Graph) -> usize {
        (1u32..(1 << g.n()) - 1)
            .map(|s| {
                g.edges()
                    .iter()
                    .filter(|&&(u, v)| (s >> u & 1) != (s >> v & 1))
                    .count()
            })
            .min()
            .unwrap_or(0)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Exactness: two dense 5-vertex blocks joined by 1–6 cross edges
        /// put `k` and `λ` below the minimum degree, where only a correct
        /// flow reduction (every one of Even's sources, every sink) finds
        /// them; both must equal brute force over all 2^10 vertex subsets.
        fn connectivity_matches_brute_force(
            seeds in (0u64..1000, 0u64..1000),
            cross in collection::vec((0usize..5, 5usize..10), 1..7),
        ) {
            let (a, b) = (generators::gnp(5, 0.9, seeds.0), generators::gnp(5, 0.9, seeds.1));
            let edges = a
                .edges()
                .iter()
                .copied()
                .chain(b.edges().iter().map(|&(u, v)| (u + 5, v + 5)))
                .chain(cross);
            let g = Graph::from_edges(10, edges);
            prop_assert_eq!(vertex_connectivity(&g), brute_force_vertex_connectivity(&g));
            prop_assert_eq!(edge_connectivity(&g), brute_force_edge_connectivity(&g));
        }

        /// k <= λ <= min degree (Whitney's inequalities).
        fn whitney_inequalities(seed in 0u64..500) {
            let g = generators::gnp(12, 0.4, seed);
            let k = vertex_connectivity(&g);
            let lambda = edge_connectivity(&g);
            let mindeg = g.min_degree().unwrap_or(0);
            prop_assert!(k <= lambda, "k={} lambda={}", k, lambda);
            prop_assert!(lambda <= mindeg, "lambda={} mindeg={}", lambda, mindeg);
        }

        /// Vertex connectivity is invariant under relabeling-free edge
        /// addition monotonicity: adding an edge never decreases k.
        fn monotone_under_edge_addition(seed in 0u64..200) {
            let g = generators::gnp(10, 0.3, seed);
            let k0 = vertex_connectivity(&g);
            // add first missing edge
            let mut added = None;
            'outer: for u in 0..g.n() {
                for v in (u+1)..g.n() {
                    if !g.has_edge(u, v) { added = Some((u, v)); break 'outer; }
                }
            }
            if let Some((u, v)) = added {
                let mut edges: Vec<_> = g.edges().to_vec();
                edges.push((u, v));
                let h = Graph::from_edges(g.n(), edges);
                prop_assert!(vertex_connectivity(&h) >= k0);
            }
        }
    }
}
