//! Broadcast throughput (Corollaries 1.4 and 1.5).
//!
//! The information-theoretic limits: in V-CONGEST no broadcast algorithm
//! (even with network coding) exceeds `k` messages/round; in E-CONGEST the
//! limit is `λ`. The packings achieve `Ω(k / log n)` resp.
//! `⌈(λ−1)/2⌉(1 − ε)` by pipelining messages along random trees.
//!
//! [`vertex_throughput_with`] measures the V-CONGEST schedule
//! empirically (via the gossip simulator on a large single-source
//! workload);
//! [`edge_throughput`] computes the E-CONGEST steady-state rate of a
//! spanning-tree packing, which equals its size (each tree pipelines one
//! message per round per unit weight, and per-edge loads ≤ 1 make the
//! time-sharing feasible).

use crate::gossip::{gossip_via_trees_with, GossipConfig};
use decomp_core::packing::{DomTreePacking, SpanTreePacking};
use decomp_graph::Graph;

/// Measured throughput of a dominating-tree packing.
#[derive(Clone, Debug)]
pub struct VertexThroughputReport {
    /// Messages delivered per round in the measured schedule.
    pub messages_per_round: f64,
    /// The single-BFS-tree baseline rate on the same workload.
    pub baseline_messages_per_round: f64,
    /// The information-theoretic limit `k`.
    pub limit: usize,
    /// Number of messages used for the measurement.
    pub workload: usize,
}

/// Measures V-CONGEST broadcast throughput: `workload` messages starting
/// at round-robin sources, disseminated via trees of `packing` under
/// `config` (the default integral schedule, or the weighted tree-choice
/// / time-sharing schedule of the fractional regime). The
/// single-BFS-tree baseline always runs the default config (one tree:
/// nothing to weight), so baselines stay comparable across configs.
///
/// # Panics
/// Propagates the gossip simulator's panics (empty packing etc.).
pub fn vertex_throughput_with(
    g: &Graph,
    packing: &DomTreePacking,
    k: usize,
    workload: usize,
    seed: u64,
    config: GossipConfig,
) -> VertexThroughputReport {
    let origins: Vec<usize> = (0..workload).map(|i| i % g.n()).collect();
    let multi = gossip_via_trees_with(g, packing, &origins, seed, config);
    let single = crate::gossip::gossip_single_tree_baseline(g, &origins, seed);
    VertexThroughputReport {
        messages_per_round: workload as f64 / multi.rounds.max(1) as f64,
        baseline_messages_per_round: workload as f64 / single.rounds.max(1) as f64,
        limit: k,
        workload,
    }
}

/// Steady-state E-CONGEST throughput of a spanning-tree packing.
#[derive(Clone, Debug)]
pub struct EdgeThroughputReport {
    /// Messages per round: the packing size (time-sharing each edge by the
    /// weights of the trees crossing it).
    pub messages_per_round: f64,
    /// The information-theoretic limit `λ`.
    pub limit: usize,
    /// The Tutte–Nash-Williams benchmark `⌈(λ−1)/2⌉`.
    pub tutte_nash_williams: usize,
}

/// Computes the steady-state rate of `packing` (its size), checking
/// feasibility first.
///
/// # Panics
/// Panics if the packing is infeasible on `g`.
pub fn edge_throughput(
    g: &Graph,
    packing: &SpanTreePacking,
    lambda: usize,
) -> EdgeThroughputReport {
    packing
        .validate(g, 1e-6)
        .expect("throughput requires a feasible packing");
    EdgeThroughputReport {
        messages_per_round: packing.size(),
        limit: lambda,
        tutte_nash_williams: ((lambda as f64 - 1.0) / 2.0).ceil() as usize,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decomp_core::cds::centralized::{cds_packing, CdsPackingConfig};
    use decomp_core::cds::tree_extract::to_dom_tree_packing;
    use decomp_core::stp::mwu::{fractional_stp_mwu, MwuConfig};
    use decomp_graph::generators;

    #[test]
    fn disjoint_trees_raise_throughput() {
        // Vertex-disjoint dominating trees (the k ≫ log n regime): pair
        // trees on K_{8,56}; see gossip::tests for the construction.
        let t = 8;
        let g = generators::complete_bipartite(t, 56);
        let trees = (0..t)
            .map(|i| decomp_core::packing::WeightedDomTree {
                id: i,
                weight: 1.0,
                edges: vec![(i, t + i)],
                singleton: None,
            })
            .collect();
        let packing = DomTreePacking { trees };
        let r = vertex_throughput_with(&g, &packing, t, 4 * g.n(), 5, GossipConfig::default());
        assert!(
            r.messages_per_round > 2.0 * r.baseline_messages_per_round,
            "{} vs baseline {}",
            r.messages_per_round,
            r.baseline_messages_per_round
        );
        // Never exceeds the information-theoretic limit.
        assert!(r.messages_per_round <= r.limit as f64 + 1e-9);
    }

    #[test]
    fn constructed_packing_throughput_comparable() {
        let g = generators::harary(16, 64);
        let p = cds_packing(&g, &CdsPackingConfig::with_known_k(16, 2));
        let trees = to_dom_tree_packing(&g, &p).packing;
        let r = vertex_throughput_with(&g, &trees, 16, 2 * g.n(), 5, GossipConfig::default());
        assert!(r.messages_per_round <= r.limit as f64 + 1e-9);
        assert!(
            r.messages_per_round >= 0.4 * r.baseline_messages_per_round,
            "{} vs baseline {}",
            r.messages_per_round,
            r.baseline_messages_per_round
        );
    }

    #[test]
    fn weighted_config_stays_within_limits() {
        // The fractional-regime schedule must respect the same
        // information-theoretic cap and stay comparable to the default
        // on a constructed packing.
        let g = generators::harary(16, 64);
        let p = cds_packing(&g, &CdsPackingConfig::with_known_k(16, 2));
        let trees = to_dom_tree_packing(&g, &p).packing;
        let w = crate::throughput::vertex_throughput_with(
            &g,
            &trees,
            16,
            2 * g.n(),
            5,
            crate::gossip::GossipConfig::weighted(),
        );
        assert!(w.messages_per_round <= w.limit as f64 + 1e-9);
        let d = vertex_throughput_with(&g, &trees, 16, 2 * g.n(), 5, GossipConfig::default());
        assert!(
            w.messages_per_round >= 0.5 * d.messages_per_round,
            "weighted {} vs default {}",
            w.messages_per_round,
            d.messages_per_round
        );
    }

    #[test]
    fn edge_throughput_near_tutte_nash_williams() {
        let g = generators::harary(8, 24); // lambda = 8
        let report = fractional_stp_mwu(&g, 8, &MwuConfig::default());
        let r = edge_throughput(&g, &report.packing, 8);
        assert_eq!(r.tutte_nash_williams, 4);
        assert!(
            r.messages_per_round >= 4.0 * (1.0 - 0.6),
            "rate {}",
            r.messages_per_round
        );
        assert!(r.messages_per_round <= r.limit as f64);
    }

    #[test]
    #[should_panic(expected = "feasible")]
    fn edge_throughput_rejects_overloaded_packing() {
        let g = generators::cycle(4);
        let mut p = fractional_stp_mwu(&g, 2, &MwuConfig::default()).packing;
        for t in &mut p.trees {
            t.weight = 1.0;
        }
        p.trees.push(p.trees[0].clone());
        edge_throughput(&g, &p, 2);
    }
}
