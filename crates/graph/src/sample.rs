//! Karger random edge-sampling (Section 5.2's substrate).
//!
//! Karger's sampling theorem (`[31, Theorem 2.1]` in the paper): randomly
//! assigning each edge to one of `η` subgraphs, with `λ/η ≥ Θ(log n / ε²)`,
//! leaves each subgraph with edge connectivity in `[(1−ε)λ/η, (1+ε)λ/η]`
//! w.h.p. The generalized spanning-tree packing runs the MWU packing inside
//! each sampled subgraph and unions the results.

use crate::graph::Graph;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Partitions the edges of `g` uniformly at random into `eta` spanning
/// subgraphs (all on the same vertex set). Every edge lands in exactly one
/// subgraph.
///
/// # Panics
/// Panics if `eta == 0`.
pub fn random_edge_partition(g: &Graph, eta: usize, seed: u64) -> Vec<Graph> {
    assert!(eta > 0, "need at least one part");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut parts: Vec<Vec<(usize, usize)>> = vec![Vec::new(); eta];
    for &e in g.edges() {
        parts[rng.gen_range(0..eta)].push(e);
    }
    parts
        .into_iter()
        .map(|edges| Graph::from_edges(g.n(), edges))
        .collect()
}

/// Chooses the number of parts `η` so that `λ/η ∈ [lo, hi]` where
/// `lo = 20·ln n / ε²` as in Section 5.2 (clamped to ≥ 1). Returns 1 when
/// `λ` is too small to split.
pub fn choose_eta(lambda: usize, n: usize, epsilon: f64) -> usize {
    assert!(epsilon > 0.0 && epsilon < 1.0, "epsilon must be in (0,1)");
    let lo = 20.0 * (n.max(2) as f64).ln() / (epsilon * epsilon);
    let eta = (lambda as f64 / lo).floor() as usize;
    eta.max(1)
}

/// The paper's `κ`: the vertex connectivity remaining after sampling each
/// vertex independently with probability 1/2 (\[12\] proves
/// `κ = Ω(k / log³ n)` w.h.p.; integral dominating-tree packings have size
/// `Ω(κ / log² n)`). Returns the *minimum* over `trials` samples, the
/// conservative estimate the integral-packing experiments report.
pub fn sampled_vertex_connectivity(g: &Graph, trials: usize, seed: u64) -> usize {
    assert!(trials >= 1, "need at least one trial");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut best = usize::MAX;
    for _ in 0..trials {
        let keep: Vec<usize> = g.vertices().filter(|_| rng.gen_bool(0.5)).collect();
        if keep.len() < 2 {
            return 0;
        }
        let (sub, _) = g.induced_subgraph(&keep);
        best = best.min(crate::connectivity::vertex_connectivity(&sub));
        if best == 0 {
            break;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::connectivity::edge_connectivity;
    use crate::generators;
    use crate::traversal::is_connected;

    #[test]
    fn partition_covers_all_edges() {
        let g = generators::complete(10);
        let parts = random_edge_partition(&g, 3, 7);
        assert_eq!(parts.len(), 3);
        let total: usize = parts.iter().map(|h| h.m()).sum();
        assert_eq!(total, g.m());
        // disjointness
        for i in 0..parts.len() {
            for j in (i + 1)..parts.len() {
                for &(u, v) in parts[i].edges() {
                    assert!(!parts[j].has_edge(u, v));
                }
            }
        }
    }

    #[test]
    fn partition_eta_one_is_identity() {
        let g = generators::cycle(6);
        let parts = random_edge_partition(&g, 1, 0);
        assert_eq!(parts[0].edges(), g.edges());
    }

    #[test]
    fn choose_eta_small_lambda() {
        assert_eq!(choose_eta(3, 100, 0.5), 1);
    }

    #[test]
    fn choose_eta_grows_with_lambda() {
        let n = 1000;
        let e1 = choose_eta(2000, n, 0.5);
        let e2 = choose_eta(8000, n, 0.5);
        assert!(e2 >= 2 * e1, "eta should scale with lambda: {e1} vs {e2}");
        assert!(e1 >= 1);
    }

    #[test]
    #[should_panic(expected = "epsilon")]
    fn choose_eta_rejects_bad_epsilon() {
        choose_eta(10, 10, 0.0);
    }

    #[test]
    fn sampled_parts_of_dense_graph_stay_connected() {
        // K_40 has λ = 39; splitting into 3 parts keeps λ_i ≈ 13 >> 1,
        // so each part must remain connected (sanity proxy for Karger).
        let g = generators::complete(40);
        for seed in 0..5 {
            let parts = random_edge_partition(&g, 3, seed);
            for part in &parts {
                assert!(is_connected(part), "seed {seed}");
                assert!(edge_connectivity(part) >= 5, "seed {seed}");
            }
        }
    }

    #[test]
    fn partition_connectivity_sums_close_to_lambda() {
        // Karger: the parts of a random split retain most of lambda in
        // aggregate. Structurally, sum lambda_i <= lambda always (G's
        // minimum cut bounds every part's cut), and for K_30 split in two
        // the sum should stay well above lambda/2. The exact value is
        // RNG-stream dependent, so assert the bracket over several seeds.
        let g = generators::complete(30); // lambda = 29
        for seed in 0..8 {
            let parts = random_edge_partition(&g, 2, seed);
            let sum: usize = parts.iter().map(edge_connectivity).sum();
            assert!(
                sum >= 12,
                "seed {seed}: sum of part connectivity too low: {sum}"
            );
            assert!(sum <= 29, "seed {seed}: sum exceeds lambda: {sum}");
        }
    }

    #[test]
    fn sampled_connectivity_bounded_by_k() {
        let g = generators::harary(12, 48);
        let kappa = sampled_vertex_connectivity(&g, 3, 7);
        assert!(kappa <= 12, "kappa {kappa} cannot exceed k");
    }

    #[test]
    fn sampled_connectivity_positive_on_dense_graphs() {
        // K_32: any half-sample stays complete, kappa ≈ n/2 - 1.
        let g = generators::complete(32);
        let kappa = sampled_vertex_connectivity(&g, 3, 5);
        assert!(kappa >= 8, "kappa {kappa} too small on a clique");
    }

    #[test]
    fn sampled_connectivity_zero_on_fragile_graphs() {
        // A path dies under vertex sampling almost surely.
        let g = generators::path(20);
        assert_eq!(sampled_vertex_connectivity(&g, 4, 1), 0);
    }
}
