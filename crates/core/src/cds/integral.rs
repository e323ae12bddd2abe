//! Integral (vertex-disjoint) dominating-tree packings.
//!
//! Section 1.2 ("Integral Tree Packings"): the fractional construction can
//! be adapted, via the random-layering technique of \[12, Theorem 1.2\], to
//! produce `Ω(κ/log² n)` *vertex-disjoint* dominating trees, where `κ` is
//! the connectivity surviving 1/2-vertex-sampling.
//!
//! We implement the random-layering skeleton: partition the vertices into
//! `t` random groups (each vertex in exactly one group — so any trees we
//! build are automatically vertex-disjoint), keep the groups that form
//! CDSs, and extract one tree per surviving group. For `k ≫ t·log n`
//! every group survives w.h.p.; at smaller scales the surviving count
//! degrades gracefully and the report says so.

use crate::packing::{DomTreePacking, WeightedDomTree};
use decomp_graph::domination::is_cds;
use decomp_graph::{traversal, Graph, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Result of the integral packing attempt.
#[derive(Clone, Debug)]
pub struct IntegralCds {
    /// The vertex-disjoint dominating trees (weight 1 each — an integral
    /// packing is trivially feasible).
    pub packing: DomTreePacking,
    /// Groups attempted.
    pub groups: usize,
    /// Groups that failed the CDS test.
    pub failed_groups: usize,
}

/// Random-layering integral CDS packing with `t` groups.
///
/// # Panics
/// Panics if `g` is disconnected/empty or `t == 0`.
pub fn integral_cds_packing(g: &Graph, t: usize, seed: u64) -> IntegralCds {
    assert!(
        traversal::is_connected(g) && g.n() > 0,
        "integral packing requires a connected graph"
    );
    assert!(t >= 1, "need at least one group");
    let mut rng = StdRng::seed_from_u64(seed);
    let group_of: Vec<usize> = (0..g.n()).map(|_| rng.gen_range(0..t)).collect();
    let mut groups: Vec<Vec<NodeId>> = vec![Vec::new(); t];
    for (v, &grp) in group_of.iter().enumerate() {
        groups[grp].push(v);
    }
    let mut trees = Vec::new();
    let mut failed = 0usize;
    for (id, members) in groups.iter().enumerate() {
        let mut mask = vec![false; g.n()];
        for &v in members {
            mask[v] = true;
        }
        if members.is_empty() || !is_cds(g, &mask) {
            failed += 1;
            continue;
        }
        // Spanning tree of the group's induced subgraph, rooted at its
        // lowest member.
        let edges = traversal::bfs_within(g, members[0], |_, v| mask[v]).tree_edges();
        let singleton = if edges.is_empty() {
            Some(members[0])
        } else {
            None
        };
        trees.push(WeightedDomTree {
            id,
            weight: 1.0,
            edges,
            singleton,
        });
    }
    IntegralCds {
        packing: DomTreePacking { trees },
        groups: t,
        failed_groups: failed,
    }
}

/// Checks vertex-disjointness of an (integral) dominating-tree packing.
pub fn check_vertex_disjoint(g: &Graph, packing: &DomTreePacking) -> Result<(), String> {
    let mut used = vec![false; g.n()];
    for (i, t) in packing.trees.iter().enumerate() {
        for v in t.vertices(g.n()) {
            if used[v] {
                return Err(format!("vertex {v} reused by tree {i}"));
            }
            used[v] = true;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use decomp_graph::generators;

    #[test]
    fn disjoint_trees_on_dense_graph() {
        // K_64: any nonempty group is a CDS.
        let g = generators::complete(64);
        let r = integral_cds_packing(&g, 8, 3);
        assert_eq!(r.failed_groups, 0);
        assert_eq!(r.packing.num_trees(), 8);
        check_vertex_disjoint(&g, &r.packing).unwrap();
        r.packing.validate(&g, 1e-9).unwrap();
    }

    #[test]
    fn harary_large_k_survives() {
        let g = generators::harary(32, 96);
        let r = integral_cds_packing(&g, 4, 7);
        assert!(
            r.packing.num_trees() >= 2,
            "only {} of 4 groups survived",
            r.packing.num_trees()
        );
        check_vertex_disjoint(&g, &r.packing).unwrap();
        r.packing.validate(&g, 1e-9).unwrap();
    }

    #[test]
    fn too_many_groups_fail_gracefully() {
        // C_10 with 5 groups: almost no group dominates; must not panic.
        let g = generators::cycle(10);
        let r = integral_cds_packing(&g, 5, 1);
        assert_eq!(r.groups, 5);
        assert!(r.failed_groups >= 3);
        check_vertex_disjoint(&g, &r.packing).unwrap();
    }

    #[test]
    fn single_group_is_whole_graph() {
        let g = generators::cycle(8);
        let r = integral_cds_packing(&g, 1, 0);
        assert_eq!(r.packing.num_trees(), 1);
        assert_eq!(r.packing.trees[0].vertices(8).len(), 8);
    }

    #[test]
    fn disjointness_checker_rejects_overlap() {
        let g = generators::complete(6);
        let mut r = integral_cds_packing(&g, 2, 2);
        let clone = r.packing.trees[0].clone();
        r.packing.trees.push(clone);
        assert!(check_vertex_disjoint(&g, &r.packing).is_err());
    }

    #[test]
    fn surviving_count_grows_with_k() {
        let survivors = |k: usize, n: usize| {
            let g = generators::harary(k, n);
            integral_cds_packing(&g, 6, 5).packing.num_trees()
        };
        assert!(survivors(48, 96) >= survivors(6, 96));
    }
}
