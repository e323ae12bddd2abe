//! Generalized fractional spanning-tree packing (Section 5.2).
//!
//! For large `λ`, randomly split the edges into `η` subgraphs with
//! `λ/η = Θ(log n / ε²)` (Karger), run the `O(log n)`-connectivity MWU
//! packing of Section 5.1 in each subgraph, and take the union. The sum of
//! the subgraph connectivities is `≥ λ(1 − ε)` w.h.p., so the combined
//! packing keeps near-`⌈(λ−1)/2⌉` size while every per-edge load stays ≤ 1
//! (the subgraphs are edge-disjoint).
//!
//! The paper picks `η` from a distributed 3-approximation of `λ`
//! (Ghaffari–Kuhn); we substitute the exact `λ` oracle ("Known
//! substitutions" in `docs/PAPER_MAP.md`).

use crate::packing::{SpanTreePacking, WeightedSpanTree};
use crate::stp::mwu::{fractional_stp_mwu, MwuConfig};
use decomp_graph::connectivity::edge_connectivity;
use decomp_graph::sample::{choose_eta, random_edge_partition};
use decomp_graph::{traversal, Graph};

/// Report of the generalized packing.
#[derive(Clone, Debug)]
pub struct SampledStpReport {
    /// The combined feasible packing over the original graph.
    pub packing: SpanTreePacking,
    /// Number of sampled subgraphs `η`.
    pub eta: usize,
    /// Per-subgraph `(λ_i, packing size)` pairs.
    pub subgraphs: Vec<(usize, f64)>,
    /// Sum of subgraph connectivities (Karger: `≥ λ(1 − ε)` w.h.p.).
    pub lambda_sum: usize,
}

/// Runs the Section 5.2 pipeline with `η` chosen by Karger's formula.
///
/// # Panics
/// Panics if `g` is disconnected or `epsilon ∉ (0, 1/6)`.
pub fn sampled_stp(g: &Graph, epsilon: f64, seed: u64) -> SampledStpReport {
    let lambda = edge_connectivity(g);
    let eta = choose_eta(lambda, g.n(), epsilon.max(0.05));
    sampled_stp_with_eta(g, epsilon, eta, seed)
}

/// The same pipeline with an explicit subgraph count `η` — used to
/// exercise the splitting path at test scales (the formula only splits
/// once `λ ≥ 20 ln n / ε²`).
///
/// # Panics
/// Panics if `g` is disconnected, `epsilon ∉ (0, 1/6)`, or `eta == 0`.
pub fn sampled_stp_with_eta(g: &Graph, epsilon: f64, eta: usize, seed: u64) -> SampledStpReport {
    assert!(
        traversal::is_connected(g),
        "sampled packing requires a connected graph"
    );
    assert!(eta >= 1, "need at least one subgraph");
    let parts = random_edge_partition(g, eta, seed);
    let mut packing = SpanTreePacking::default();
    let mut subgraphs = Vec::new();
    let mut lambda_sum = 0usize;
    for part in &parts {
        if !traversal::is_connected(part) {
            subgraphs.push((0, 0.0));
            continue;
        }
        let lambda_i = edge_connectivity(part);
        lambda_sum += lambda_i;
        let report = fractional_stp_mwu(
            part,
            lambda_i,
            &MwuConfig {
                epsilon,
                max_iterations: None,
            },
        );
        subgraphs.push((lambda_i, report.packing.size()));
        // Translate edge indices from the part back to g.
        for tree in report.packing.trees {
            let edge_indices: Vec<usize> = tree
                .edge_indices
                .iter()
                .map(|&e| {
                    let (u, v) = part.edges()[e];
                    g.edge_index(u, v).expect("partition edge exists in g")
                })
                .collect();
            packing.trees.push(WeightedSpanTree {
                weight: tree.weight,
                edge_indices,
            });
        }
    }
    SampledStpReport {
        packing,
        eta,
        subgraphs,
        lambda_sum,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decomp_graph::generators;

    #[test]
    fn small_lambda_degenerates_to_single_mwu() {
        let g = generators::harary(6, 30);
        let r = sampled_stp(&g, 0.1, 3);
        assert_eq!(r.eta, 1);
        r.packing.validate(&g, 1e-9).unwrap();
        assert!(r.packing.size() >= 3.0 * (1.0 - 0.6) - 1e-9);
    }

    #[test]
    fn large_lambda_splits_and_stays_feasible() {
        let g = generators::complete(60); // lambda = 59
        let r = sampled_stp(&g, 0.15, 9);
        r.packing.validate(&g, 1e-9).unwrap();
        // Karger's guarantee at this scale.
        assert!(
            r.lambda_sum as f64 >= 0.5 * 59.0,
            "lambda_sum {} too small",
            r.lambda_sum
        );
        // Combined size close to sum of sub-targets.
        let expected: f64 = r
            .subgraphs
            .iter()
            .map(|&(l, _)| {
                if l >= 1 {
                    ((l as f64 - 1.0) / 2.0).ceil().max(1.0)
                } else {
                    0.0
                }
            })
            .sum();
        assert!(
            r.packing.size() >= expected * 0.5,
            "size {} vs expected {}",
            r.packing.size(),
            expected
        );
    }

    #[test]
    fn subgraph_trees_are_disjoint_across_parts() {
        let g = generators::complete(40);
        let r = sampled_stp(&g, 0.15, 4);
        // Per-edge load never exceeds 1 even though subgraph packings are
        // computed independently — parts are edge-disjoint.
        let loads = r.packing.edge_loads(&g);
        assert!(loads.iter().all(|&l| l <= 1.0 + 1e-9));
    }

    #[test]
    fn explicit_eta_exercises_real_splitting() {
        // K_40 (λ = 39) split into 5 subgraphs of λ_i ≈ 7: the combined
        // packing must stay feasible and reach a good fraction of the sum
        // of the sub-targets.
        let g = generators::complete(40);
        let r = sampled_stp_with_eta(&g, 0.1, 5, 7);
        assert_eq!(r.eta, 5);
        r.packing.validate(&g, 1e-9).unwrap();
        // η = 5 deliberately violates Karger's λ/η ≥ 20 ln n/ε² premise,
        // so each part's connectivity is governed by its minimum degree
        // (≈ Binomial(39, 1/5) minima ≈ 3–4); the sum still lands well
        // above half of the λ(1−ε) ideal's per-part floor.
        assert!(r.lambda_sum >= 12, "lambda_sum {}", r.lambda_sum);
        let sub_target: f64 = r
            .subgraphs
            .iter()
            .map(|&(l, _)| {
                if l >= 1 {
                    ((l as f64 - 1.0) / 2.0).ceil().max(1.0)
                } else {
                    0.0
                }
            })
            .sum();
        assert!(
            r.packing.size() >= 0.4 * sub_target,
            "size {} vs sub-target sum {}",
            r.packing.size(),
            sub_target
        );
    }

    #[test]
    fn eta_one_equals_plain_mwu_quality() {
        let g = generators::harary(4, 20);
        let r = sampled_stp_with_eta(&g, 0.1, 1, 3);
        assert_eq!(r.eta, 1);
        r.packing.validate(&g, 1e-9).unwrap();
        assert!(r.packing.size() >= 2.0 * 0.4);
    }
}
