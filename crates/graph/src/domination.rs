//! Dominating sets, connected dominating sets (CDS), and tree checks.
//!
//! Section 2 of the paper defines the objects packed by the decomposition:
//! a *CDS* is a set `S` with `G[S]` connected and every vertex outside `S`
//! adjacent to `S`; a *dominating tree* is a tree subgraph whose vertex set
//! dominates `G`. These checkers are the acceptance tests used throughout
//! the test suite and by the packing verifier (Appendix E's centralized
//! reference behaviour).

use crate::graph::{Graph, NodeId};
use crate::traversal::bfs_within;

/// Whether `set` (given as a membership mask) dominates `g`: every vertex
/// is in the set or adjacent to a member.
pub fn is_dominating_set(g: &Graph, member: &[bool]) -> bool {
    assert_eq!(member.len(), g.n(), "mask length mismatch");
    g.vertices()
        .all(|v| member[v] || g.neighbors(v).iter().any(|&u| member[u]))
}

/// Whether `member` induces a connected subgraph of `g` (vacuously false
/// for the empty set, true for singletons).
pub fn is_connected_subset(g: &Graph, member: &[bool]) -> bool {
    assert_eq!(member.len(), g.n(), "mask length mismatch");
    let Some(source) = g.vertices().find(|&v| member[v]) else {
        return false;
    };
    let bfs = bfs_within(g, source, |_, v| member[v]);
    g.vertices().all(|v| !member[v] || bfs.reached(v))
}

/// Whether `member` is a connected dominating set of `g`.
pub fn is_cds(g: &Graph, member: &[bool]) -> bool {
    is_dominating_set(g, member) && is_connected_subset(g, member)
}

/// Whether the edge set `tree_edges` forms a *dominating tree* of `g`:
/// a tree (acyclic + connected on its vertices), all edges present in `g`,
/// and its vertex set dominating.
///
/// A single vertex `v` (empty edge set plus `singleton = Some(v)`) counts
/// as a dominating tree iff `{v}` dominates.
pub fn is_dominating_tree(
    g: &Graph,
    tree_edges: &[(NodeId, NodeId)],
    singleton: Option<NodeId>,
) -> bool {
    if tree_edges.is_empty() {
        return match singleton {
            Some(v) => {
                let mut mask = vec![false; g.n()];
                mask[v] = true;
                is_dominating_set(g, &mask)
            }
            None => false,
        };
    }
    for &(u, v) in tree_edges {
        if !g.has_edge(u, v) {
            return false;
        }
    }
    let mut member = vec![false; g.n()];
    for &(u, v) in tree_edges {
        member[u] = true;
        member[v] = true;
    }
    let count = member.iter().filter(|&&b| b).count();
    if tree_edges.len() + 1 != count {
        return false; // cycle or forest
    }
    // connectivity of the edge set
    let mut uf = crate::unionfind::UnionFind::new(g.n());
    for &(u, v) in tree_edges {
        uf.union(u, v);
    }
    let roots: std::collections::HashSet<usize> = (0..g.n())
        .filter(|&v| member[v])
        .map(|v| uf.find(v))
        .collect();
    if roots.len() != 1 {
        return false;
    }
    is_dominating_set(g, &member)
}

/// Whether `tree_edges` forms a *spanning tree* of `g`.
pub fn is_spanning_tree(g: &Graph, tree_edges: &[(NodeId, NodeId)]) -> bool {
    if g.n() == 0 {
        return false;
    }
    if tree_edges.len() + 1 != g.n() {
        return false;
    }
    for &(u, v) in tree_edges {
        if !g.has_edge(u, v) {
            return false;
        }
    }
    let mut uf = crate::unionfind::UnionFind::new(g.n());
    for &(u, v) in tree_edges {
        if !uf.union(u, v) {
            return false; // cycle
        }
    }
    uf.num_sets() == 1
}

/// Greedy CDS construction (for baselines): BFS tree from vertex 0, then
/// keep all internal (non-leaf) vertices. The internal vertices of any
/// spanning tree form a CDS.
pub fn greedy_cds(g: &Graph) -> Vec<bool> {
    assert!(
        crate::traversal::is_connected(g) && g.n() > 0,
        "greedy_cds requires a connected non-empty graph"
    );
    if g.n() == 1 {
        return vec![true];
    }
    let t = crate::traversal::bfs(g, 0);
    let mut internal = vec![false; g.n()];
    for v in g.vertices() {
        if v != 0 && t.reached(v) {
            internal[t.parent[v]] = true;
        }
    }
    // Roots with children are internal; ensure at least something is kept.
    if !internal.iter().any(|&b| b) {
        internal[0] = true;
    }
    internal
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use proptest::prelude::*;

    #[test]
    fn full_set_is_cds_when_connected() {
        let g = generators::cycle(5);
        assert!(is_cds(&g, &[true; 5]));
    }

    #[test]
    fn empty_set_is_not_cds() {
        let g = generators::cycle(5);
        assert!(!is_cds(&g, &[false; 5]));
    }

    #[test]
    fn star_center_is_cds() {
        let g = generators::star(6);
        let mut mask = vec![false; 6];
        mask[0] = true;
        assert!(is_cds(&g, &mask));
        let mut leaf = vec![false; 6];
        leaf[1] = true;
        assert!(!is_cds(&g, &leaf));
    }

    #[test]
    fn disconnected_subset_rejected() {
        let g = generators::path(5);
        let mask = vec![true, false, false, false, true];
        assert!(!is_connected_subset(&g, &mask));
        assert!(!is_cds(&g, &mask));
    }

    #[test]
    fn path_interior_is_cds() {
        let g = generators::path(5);
        let mask = vec![false, true, true, true, false];
        assert!(is_cds(&g, &mask));
    }

    #[test]
    fn dominating_tree_checks() {
        let g = generators::star(5);
        assert!(is_dominating_tree(&g, &[], Some(0)));
        assert!(!is_dominating_tree(&g, &[], Some(1)));
        assert!(is_dominating_tree(&g, &[(0, 1)], None));
        // cycle rejected
        let c = generators::cycle(4);
        assert!(!is_dominating_tree(
            &c,
            &[(0, 1), (1, 2), (2, 3), (3, 0)],
            None
        ));
        // non-edge rejected
        assert!(!is_dominating_tree(&g, &[(1, 2)], None));
    }

    #[test]
    fn spanning_tree_checks() {
        let g = generators::cycle(4);
        assert!(is_spanning_tree(&g, &[(0, 1), (1, 2), (2, 3)]));
        assert!(!is_spanning_tree(&g, &[(0, 1), (1, 2)]));
        assert!(!is_spanning_tree(&g, &[(0, 1), (1, 2), (0, 2)]));
    }

    #[test]
    fn greedy_cds_is_cds() {
        for seed in 0..10 {
            let g = generators::random_connected(25, 15, seed);
            let cds = greedy_cds(&g);
            assert!(is_cds(&g, &cds), "seed {seed}");
        }
    }

    #[test]
    fn greedy_cds_singleton_graph() {
        let g = Graph::empty(1);
        assert_eq!(greedy_cds(&g), vec![true]);
    }

    #[test]
    fn greedy_cds_two_vertices() {
        let g = Graph::from_edges(2, [(0, 1)]);
        let cds = greedy_cds(&g);
        assert!(is_cds(&g, &cds));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// greedy_cds always yields a valid CDS on connected graphs.
        fn greedy_cds_valid(seed in 0u64..500, n in 2usize..40) {
            let g = generators::random_connected(n, n / 2, seed);
            let cds = greedy_cds(&g);
            prop_assert!(is_cds(&g, &cds));
        }

        /// A BFS spanning tree passes is_spanning_tree.
        fn bfs_tree_spans(seed in 0u64..200, n in 2usize..30) {
            let g = generators::random_connected(n, n, seed);
            let t = crate::traversal::bfs(&g, 0);
            let edges: Vec<_> = t.tree_edges();
            prop_assert!(is_spanning_tree(&g, &edges));
        }
    }
}
