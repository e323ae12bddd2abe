//! Vertex-connectivity approximation (Corollary 1.7).
//!
//! The CDS-packing construction works without prior knowledge of `k`
//! (Remark 3.1's guessing), and the size of the achieved fractional
//! dominating-tree packing lies in `[Ω(k / log n), k]`: the upper bound
//! holds because every vertex cut intersects every connected dominating
//! set, so no fractional CDS packing can exceed `k`. Reporting the packing
//! size therefore gives an `O(log n)`-approximation of `k` — centralized in
//! `O~(m)` and distributed in `O~(D + √n)` rounds.

use crate::cds::guess::cds_packing_unknown_k;
use crate::cds::tree_extract::to_dom_tree_packing;
use decomp_congest::{Model, SimError, Simulator};
use decomp_graph::Graph;

/// Result of the approximation.
#[derive(Clone, Debug)]
pub struct VcApproximation {
    /// Certified lower bound on `k`: the fractional packing size `κ`
    /// (`κ ≤ k` always, by the cut argument; `κ ≥ Ω(k / log n)` w.h.p.).
    pub packing_size: f64,
    /// The accepted construction parameter `k̃` from Remark 3.1 (the
    /// class-count driver, *not* the estimate — overlapping classes let
    /// large guesses verify on low-connectivity graphs).
    pub guess: usize,
    /// Number of dominating trees in the certificate.
    pub num_trees: usize,
}

impl VcApproximation {
    /// The reported `O(log n)`-approximation of `k`: the certified packing
    /// size, rounded up. Satisfies `estimate ≤ k ≤ O(log n) · estimate`
    /// w.h.p. (Corollary 1.7).
    pub fn estimate(&self) -> usize {
        self.packing_size.ceil().max(1.0) as usize
    }
}

/// Centralized `O~(m)`-style approximation (Corollary 1.7).
///
/// # Panics
/// Panics if `g` is empty or disconnected.
pub fn approx_vertex_connectivity(g: &Graph, seed: u64) -> VcApproximation {
    let guessed = cds_packing_unknown_k(g, seed);
    let trees = to_dom_tree_packing(g, &guessed.packing);
    VcApproximation {
        packing_size: trees.packing.size(),
        guess: guessed.guess,
        num_trees: trees.packing.num_trees(),
    }
}

/// Distributed `O~(D + √n)`-round approximation in V-CONGEST: the guessing
/// loop of Remark 3.1 with the Appendix B construction and the Appendix E
/// tester, all on the simulator.
///
/// # Errors
/// Propagates simulator round-limit errors.
pub fn approx_vertex_connectivity_distributed(
    sim: &mut Simulator<'_>,
    seed: u64,
) -> Result<VcApproximation, SimError> {
    assert_eq!(sim.model(), Model::VCongest);
    let g = sim.graph().clone();
    assert!(
        decomp_graph::traversal::is_connected(&g) && g.n() > 0,
        "approximation requires a connected non-empty graph"
    );
    let mut guess = g.n().next_power_of_two() / 2;
    loop {
        guess = guess.max(1);
        let cfg =
            crate::cds::centralized::CdsPackingConfig::with_known_k(guess, seed ^ (guess as u64));
        let packing = crate::cds::distributed::cds_packing_distributed(sim, &cfg)?;
        let membership = crate::cds::verify::membership_of(&packing.classes, g.n());
        let outcome = crate::cds::verify::verify_distributed(
            sim,
            &membership,
            packing.num_classes(),
            seed ^ 0x7777 ^ (guess as u64),
        )?;
        if outcome == crate::cds::verify::VerifyOutcome::Pass {
            let trees = to_dom_tree_packing(&g, &packing);
            return Ok(VcApproximation {
                packing_size: trees.packing.size(),
                guess,
                num_trees: trees.packing.num_trees(),
            });
        }
        assert!(guess > 1, "guess k=1 must pass on connected graphs");
        guess /= 2;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decomp_graph::connectivity::vertex_connectivity;
    use decomp_graph::generators;

    #[test]
    fn packing_size_lower_bounds_k() {
        for (k, n) in [(6usize, 36usize), (12, 48), (20, 60)] {
            let g = generators::harary(k, n);
            let approx = approx_vertex_connectivity(&g, 7);
            let true_k = vertex_connectivity(&g);
            assert_eq!(true_k, k);
            assert!(
                approx.packing_size <= true_k as f64 + 1e-9,
                "packing size {} must lower-bound k={}",
                approx.packing_size,
                true_k
            );
            // O(log n) approximation: size * O(log n) >= k.
            let logn = (n as f64).log2();
            assert!(
                approx.packing_size * 16.0 * logn >= true_k as f64,
                "size {} too small for k={} (n={})",
                approx.packing_size,
                true_k,
                n
            );
        }
    }

    #[test]
    fn estimate_reasonable_on_low_connectivity() {
        let g = generators::barbell(8, 2); // k = 1
        let approx = approx_vertex_connectivity(&g, 3);
        // κ ≤ k = 1, so the rounded estimate is exactly 1.
        assert!(approx.packing_size <= 1.0 + 1e-9);
        assert_eq!(approx.estimate(), 1);
    }

    #[test]
    fn distributed_variant_agrees() {
        let g = generators::harary(8, 32);
        let mut sim = Simulator::new(&g, Model::VCongest);
        let approx = approx_vertex_connectivity_distributed(&mut sim, 11).unwrap();
        assert!(approx.packing_size <= 8.0 + 1e-9);
        assert!(approx.packing_size > 0.0);
        assert!(sim.stats().rounds > 0);
    }

    #[test]
    fn distributed_rounds_are_run_to_run_deterministic() {
        // The flood's dirty-key order and the tester's class draw follow
        // sorted keys, never hash order, so repeated runs in one process
        // charge the same rounds (with hash order, about one run in four
        // differed).
        let g = generators::harary(8, 40);
        let rounds = || {
            let mut sim = Simulator::new(&g, Model::VCongest);
            approx_vertex_connectivity_distributed(&mut sim, 7).unwrap();
            sim.stats().rounds
        };
        let first = rounds();
        for _ in 0..19 {
            assert_eq!(rounds(), first);
        }
    }
}
