//! Distributed MWU spanning-tree packing in E-CONGEST (Section 5.1's
//! distributed implementation, Theorem 1.3's engine).
//!
//! Per iteration: every node knows the loads `z_e` of its incident edges;
//! the MST under costs `c_e = exp(α z_e)` is computed by the distributed
//! MST primitive (MST order under `c_e` equals MST order under `z_e`, so
//! nodes exchange quantized `z_e` — exactly the paper's footnote-6 trick of
//! sending `z_e` instead of the super-polynomial `c_e`); the termination
//! test aggregates `Cost(MST)` and `Σ c_e x_e` over a BFS tree and the
//! common decision is known to every node.

use crate::stp::mwu::{MwuConfig, MwuDriver, MwuReport};
use decomp_congest::aggregate::{tree_aggregate, AggOp};
use decomp_congest::bfs::distributed_bfs;
use decomp_congest::mst::distributed_mst;
use decomp_congest::{Model, SimError, Simulator};

/// Quantization resolution for exchanged `z_e` values (footnote 6: rounding
/// to `O(log n)`-bit precision has negligible effect).
const Z_QUANTUM: f64 = 1.0 / (1u64 << 40) as f64;

/// Runs the distributed MWU packing on `sim` (E-CONGEST) with known
/// `lambda`.
///
/// Round costs (BFS preamble, per-iteration MST + aggregation) accumulate
/// in `sim.stats()`. Intended for `λ = O(log n)` — Section 5.2's sampling
/// handles larger connectivity by splitting first.
///
/// # Errors
/// Propagates simulator round-limit errors.
///
/// # Panics
/// Panics if `sim` is not E-CONGEST, the graph is disconnected, or the
/// config is invalid (see [`crate::stp::mwu::fractional_stp_mwu`]).
pub fn distributed_stp_mwu(
    sim: &mut Simulator<'_>,
    lambda: usize,
    config: &MwuConfig,
) -> Result<MwuReport, SimError> {
    assert_eq!(
        sim.model(),
        Model::ECongest,
        "Theorem 1.3 is an E-CONGEST result"
    );
    let g = sim.graph().clone();
    assert!(
        decomp_graph::traversal::is_connected(&g),
        "MWU packing requires a connected graph"
    );
    let driver = MwuDriver::new(g.n(), g.m(), lambda, config.epsilon, config.max_iterations);

    // Preamble: BFS tree for the aggregations (O(D) rounds).
    let tree = distributed_bfs(sim, 0)?;
    let first = distributed_mst(sim, &vec![0u64; g.m()])?;

    let outcome = driver.run(first.edge_indices, |z, cost, x| {
        // Quantized z as distributed MST weights (monotone in c_e).
        let weights: Vec<u64> = z
            .iter()
            .map(|&ze| (ze / Z_QUANTUM).round() as u64)
            .collect();
        let mst = distributed_mst(sim, &weights)?;
        // Each edge is owned by its smaller endpoint; nodes contribute
        // partial sums that travel up the BFS tree, and everyone learns
        // both totals (so the continue/terminate decision is global).
        let mut in_mst = vec![false; g.m()];
        for &e in &mst.edge_indices {
            in_mst[e] = true;
        }
        let mut local_mst_cost = vec![0.0f64; g.n()];
        let mut local_frac_cost = vec![0.0f64; g.n()];
        for (e, &(u, _v)) in g.edges().iter().enumerate() {
            if in_mst[e] {
                local_mst_cost[u] += cost[e];
            }
            local_frac_cost[u] += cost[e] * x[e];
        }
        let mst_cost = f64::from_bits(tree_aggregate(
            sim,
            &tree,
            AggOp::SumF64,
            &local_mst_cost
                .iter()
                .map(|c| c.to_bits())
                .collect::<Vec<_>>(),
        )?);
        let frac_cost = f64::from_bits(tree_aggregate(
            sim,
            &tree,
            AggOp::SumF64,
            &local_frac_cost
                .iter()
                .map(|c| c.to_bits())
                .collect::<Vec<_>>(),
        )?);
        Ok((mst.edge_indices, mst_cost, frac_cost))
    })?;
    Ok(outcome.into_report())
}

/// Report of the distributed Section 5.2 pipeline.
#[derive(Clone, Debug)]
pub struct DistSampledReport {
    /// Combined feasible packing on the original graph.
    pub packing: crate::packing::SpanTreePacking,
    /// Subgraph count `η`.
    pub eta: usize,
    /// Measured simulator rounds summed over the sequentially-run
    /// subgraph packings.
    pub rounds_sequential: usize,
    /// The Lemma 5.1 charge for the pipelined execution:
    /// `O((D + √(nλ)/log n · log* n) · log³ n)` rounds.
    pub rounds_pipelined_charge: usize,
}

/// Distributed generalized packing (Section 5.2 + Lemma 5.1): split the
/// edges into `η` subgraphs, run the distributed MWU in each.
///
/// Our simulator runs the subgraphs **sequentially** (summing their
/// measured rounds); Lemma 5.1 shows the real algorithm pipelines all the
/// per-iteration MST upcasts over one BFS tree, and the corresponding
/// charge is reported alongside ("Known substitutions" in
/// `docs/PAPER_MAP.md`).
///
/// # Errors
/// Propagates simulator round-limit errors.
///
/// # Panics
/// Panics if `g` is disconnected, `eta == 0`, or the config is invalid.
pub fn distributed_sampled_stp(
    g: &decomp_graph::Graph,
    epsilon: f64,
    eta: usize,
    seed: u64,
) -> Result<DistSampledReport, SimError> {
    assert!(eta >= 1, "need at least one subgraph");
    assert!(
        decomp_graph::traversal::is_connected(g),
        "sampled packing requires a connected graph"
    );
    let parts = decomp_graph::sample::random_edge_partition(g, eta, seed);
    let mut packing = crate::packing::SpanTreePacking::default();
    let mut rounds = 0usize;
    let mut lambda_total = 0usize;
    for part in &parts {
        if !decomp_graph::traversal::is_connected(part) {
            continue;
        }
        let lambda_i = decomp_graph::connectivity::edge_connectivity(part);
        lambda_total += lambda_i;
        let mut sim = Simulator::new(part, Model::ECongest);
        let report = distributed_stp_mwu(
            &mut sim,
            lambda_i,
            &MwuConfig {
                epsilon,
                max_iterations: None,
            },
        )?;
        rounds += sim.stats().rounds;
        for tree in report.packing.trees {
            let edge_indices: Vec<usize> = tree
                .edge_indices
                .iter()
                .map(|&e| {
                    let (u, v) = part.edges()[e];
                    g.edge_index(u, v).expect("partition edge exists in g")
                })
                .collect();
            packing.trees.push(crate::packing::WeightedSpanTree {
                weight: tree.weight,
                edge_indices,
            });
        }
    }
    // Lemma 5.1 charge: (D + sqrt(n·λ)/log n · log* n) · log³ n.
    let n = g.n().max(2) as f64;
    let d = decomp_graph::traversal::diameter_2approx(g).unwrap_or(g.n()) as f64;
    let logn = n.log2();
    let log_star = 4.0; // effectively constant at any practical n
    let charge =
        ((d + (n * lambda_total.max(1) as f64).sqrt() / logn * log_star) * logn * logn * logn)
            as usize;
    Ok(DistSampledReport {
        packing,
        eta,
        rounds_sequential: rounds,
        rounds_pipelined_charge: charge,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use decomp_graph::connectivity::edge_connectivity;
    use decomp_graph::generators;

    #[test]
    fn distributed_sampled_pipeline_feasible() {
        let g = generators::complete(18); // lambda = 17
        let r = distributed_sampled_stp(&g, 0.1, 3, 5).unwrap();
        r.packing.validate(&g, 1e-9).unwrap();
        assert_eq!(r.eta, 3);
        assert!(r.packing.size() >= 2.0, "size {}", r.packing.size());
        assert!(r.rounds_sequential > 0);
        assert!(r.rounds_pipelined_charge > 0);
    }

    #[test]
    fn distributed_matches_quality_of_centralized() {
        let g = generators::harary(4, 12); // lambda = 4, target = 2
        let lambda = edge_connectivity(&g);
        assert_eq!(lambda, 4);
        let mut sim = Simulator::new(&g, Model::ECongest);
        let r = distributed_stp_mwu(&mut sim, lambda, &MwuConfig::default()).unwrap();
        r.packing.validate(&g, 1e-9).unwrap();
        assert!(
            r.packing.size() >= 2.0 * (1.0 - 0.6) - 1e-9,
            "size {}",
            r.packing.size()
        );
        assert!(sim.stats().rounds > 0);
    }

    #[test]
    fn path_graph_one_tree() {
        let g = generators::path(6);
        let mut sim = Simulator::new(&g, Model::ECongest);
        let r = distributed_stp_mwu(&mut sim, 1, &MwuConfig::default()).unwrap();
        r.packing.validate(&g, 1e-9).unwrap();
        assert!((r.packing.size() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn lemma_f1_bound_holds() {
        let g = generators::complete(7); // lambda = 6, target = 3
        let mut sim = Simulator::new(&g, Model::ECongest);
        let r = distributed_stp_mwu(&mut sim, 6, &MwuConfig::default()).unwrap();
        assert!(
            r.final_max_z <= 1.0 + 6.0 * 0.1 + 1e-6,
            "final_max_z = {}",
            r.final_max_z
        );
    }

    #[test]
    #[should_panic(expected = "E-CONGEST")]
    fn rejects_vcongest() {
        let g = generators::cycle(4);
        let mut sim = Simulator::new(&g, Model::VCongest);
        let _ = distributed_stp_mwu(&mut sim, 2, &MwuConfig::default());
    }
}
