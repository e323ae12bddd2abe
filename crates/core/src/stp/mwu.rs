//! The Lagrangian/MWU fractional spanning-tree packing (Section 5.1).
//!
//! Maintain a weighted tree collection of total weight 1. Per iteration:
//! compute the normalized loads `z_e = x_e · ⌈(λ−1)/2⌉`, price edges at
//! `c_e = exp(α · z_e)`, find the MST under these costs, and either
//! terminate — when `Cost(MST) > (1−ε) Σ_e c_e x_e`, which by Lemma F.1
//! certifies `max_e z_e ≤ 1 + 6ε` — or blend the MST in. Lemma F.2 bounds
//! the iterations for `λ = O(log n)` (the only regime Section 5.1 is used
//! in; Section 5.2's sampling reduces general `λ` to this case).
//!
//! Two engineering notes, both behavior-preserving:
//!
//! * **log-space costs** — `exp(α z)` can be astronomically large, so all
//!   costs are evaluated as `exp(α(z_e − z_max))`; every comparison scales
//!   by the same factor and the MST order is unchanged (the paper's
//!   footnote 6 makes the same observation for message encoding);
//! * **warm start** — the paper's fixed blend weight `β = Θ(1/(α log n))`
//!   takes `Θ(ln(λ)/β)` iterations just to dilute the weight-1 initial
//!   tree. We first run Frank–Wolfe steps with the classical diminishing
//!   step `γ_r = 2/(r+3)` until `max_e z_e ≤ 1 + 4ε`, then switch to the
//!   paper's fixed-`β` loop with the Lemma F.1 termination test. The
//!   invariant (a total-weight-1 convex combination of spanning trees)
//!   holds throughout, so all guarantees are unaffected.
//!
//! The final collection is rescaled by `1 / max_e x_e`, giving per-edge
//! load exactly ≤ 1 and packing size `≥ ⌈(λ−1)/2⌉ / (1 + 6ε)`.

use crate::packing::{SpanTreePacking, WeightedSpanTree};
use decomp_graph::mst::minimum_spanning_forest;
use decomp_graph::Graph;
use std::collections::BTreeMap;

/// Configuration for [`fractional_stp_mwu`].
#[derive(Clone, Debug)]
pub struct MwuConfig {
    /// Approximation slack `ε` (the packing loses a `(1 − O(ε))` factor).
    pub epsilon: f64,
    /// Hard iteration cap per phase; `None` uses a generous default.
    pub max_iterations: Option<usize>,
}

impl Default for MwuConfig {
    fn default() -> Self {
        MwuConfig {
            epsilon: 0.1,
            max_iterations: None,
        }
    }
}

/// Per-iteration trace entry.
#[derive(Clone, Copy, Debug)]
pub struct MwuIteration {
    /// `max_e z_e` at the start of the iteration.
    pub max_z: f64,
    /// `Cost(MST) / Σ_e c_e x_e` (termination fires above `1 − ε`).
    pub mst_cost_ratio: f64,
}

/// Outcome of the MWU packing.
#[derive(Clone, Debug)]
pub struct MwuReport {
    /// The resulting feasible packing (per-edge load ≤ 1).
    pub packing: SpanTreePacking,
    /// Iteration trace (Lemma F.1/F.2 experiment data).
    pub iterations: Vec<MwuIteration>,
    /// Whether the Lemma F.1 termination condition fired (vs. the cap).
    pub terminated_by_condition: bool,
    /// Final maximum normalized load before rescaling.
    pub final_max_z: f64,
}

/// The shared MWU driver. The MST oracle receives the current loads `z`
/// and returns the minimum spanning tree under costs monotone in `z`
/// (ties by edge index). Used by both the centralized packing here and the
/// distributed one in [`crate::stp::distributed`].
pub(crate) struct MwuDriver {
    pub m: usize,
    pub target: f64,
    pub epsilon: f64,
    pub alpha: f64,
    pub beta: f64,
    pub warm_cap: usize,
    pub polish_cap: usize,
}

impl MwuDriver {
    pub fn new(n: usize, m: usize, lambda: usize, epsilon: f64, cap: Option<usize>) -> Self {
        assert!(lambda >= 1, "edge connectivity must be positive");
        assert!(
            epsilon > 0.0 && epsilon < 1.0 / 6.0,
            "epsilon must lie in (0, 1/6)"
        );
        let _ = n;
        let m_f = m.max(1) as f64;
        let target = ((lambda as f64 - 1.0) / 2.0).ceil().max(1.0);
        let alpha = 1.2 * (2.0 * m_f / epsilon).ln().max(1.0) / epsilon;
        let beta = epsilon / (2.0 * alpha * target);
        let default_cap = 20_000;
        MwuDriver {
            m,
            target,
            epsilon,
            alpha,
            beta,
            warm_cap: cap.unwrap_or(default_cap),
            polish_cap: cap.unwrap_or(default_cap),
        }
    }

    /// Runs both phases. `mst_oracle(z, cost) -> (tree edge indices,
    /// Cost(MST), Σ_e c_e x_e)`; `x` is threaded so the oracle can compute
    /// the fractional cost (the distributed variant aggregates it instead
    /// of trusting a local view — values agree).
    pub fn run<E>(
        &self,
        initial_tree: Vec<usize>,
        mut mst_oracle: impl FnMut(&[f64], &[f64], &[f64]) -> Result<(Vec<usize>, f64, f64), E>,
    ) -> Result<MwuOutcome, E> {
        let mut collection: BTreeMap<Vec<usize>, f64> = BTreeMap::new();
        let mut x = vec![0.0f64; self.m];
        for &e in &initial_tree {
            x[e] = 1.0;
        }
        collection.insert(initial_tree, 1.0);
        let mut iterations = Vec::new();
        let mut terminated = false;

        let blend = |collection: &mut BTreeMap<Vec<usize>, f64>,
                     x: &mut Vec<f64>,
                     tree: Vec<usize>,
                     gamma: f64| {
            for xe in x.iter_mut() {
                *xe *= 1.0 - gamma;
            }
            for w in collection.values_mut() {
                *w *= 1.0 - gamma;
            }
            for &e in &tree {
                x[e] += gamma;
            }
            *collection.entry(tree).or_insert(0.0) += gamma;
        };

        // Phase 1: Frank–Wolfe warm start.
        let warm_threshold = 1.0 + 4.0 * self.epsilon;
        for r in 0..self.warm_cap {
            let (z, z_max, cost) = self.price(&x);
            if z_max <= warm_threshold {
                break;
            }
            let (tree, mst_cost, frac_cost) = mst_oracle(&z, &cost, &x)?;
            iterations.push(MwuIteration {
                max_z: z_max,
                mst_cost_ratio: safe_ratio(mst_cost, frac_cost),
            });
            let gamma = 2.0 / (r as f64 + 3.0);
            blend(&mut collection, &mut x, tree, gamma);
        }

        // Phase 2: the paper's fixed-β loop with the Lemma F.1 test.
        for _ in 0..self.polish_cap {
            let (z, z_max, cost) = self.price(&x);
            let (tree, mst_cost, frac_cost) = mst_oracle(&z, &cost, &x)?;
            iterations.push(MwuIteration {
                max_z: z_max,
                mst_cost_ratio: safe_ratio(mst_cost, frac_cost),
            });
            if mst_cost > (1.0 - self.epsilon) * frac_cost {
                terminated = true;
                break;
            }
            blend(&mut collection, &mut x, tree, self.beta);
        }

        let final_max_x = x.iter().cloned().fold(0.0, f64::max).max(f64::MIN_POSITIVE);
        Ok(MwuOutcome {
            collection,
            final_max_x,
            final_max_z: final_max_x * self.target,
            iterations,
            terminated_by_condition: terminated,
        })
    }

    /// Loads and shifted costs for the current fractional solution.
    fn price(&self, x: &[f64]) -> (Vec<f64>, f64, Vec<f64>) {
        let z: Vec<f64> = x.iter().map(|&xe| xe * self.target).collect();
        let z_max = z.iter().cloned().fold(0.0, f64::max);
        let cost: Vec<f64> = z
            .iter()
            .map(|&ze| (self.alpha * (ze - z_max)).exp())
            .collect();
        (z, z_max, cost)
    }
}

fn safe_ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        f64::INFINITY
    }
}

/// Raw driver outcome, converted by the public entry points.
pub(crate) struct MwuOutcome {
    pub collection: BTreeMap<Vec<usize>, f64>,
    pub final_max_x: f64,
    pub final_max_z: f64,
    pub iterations: Vec<MwuIteration>,
    pub terminated_by_condition: bool,
}

impl MwuOutcome {
    pub fn into_report(self) -> MwuReport {
        let scale = 1.0 / self.final_max_x;
        let trees: Vec<WeightedSpanTree> = self
            .collection
            .into_iter()
            .map(|(edge_indices, w)| WeightedSpanTree {
                weight: (w * scale).min(1.0),
                edge_indices,
            })
            .collect();
        MwuReport {
            packing: SpanTreePacking { trees },
            iterations: self.iterations,
            terminated_by_condition: self.terminated_by_condition,
            final_max_z: self.final_max_z,
        }
    }
}

/// Runs the MWU packing on connected `g` with edge connectivity `lambda`.
///
/// Returns a feasible fractional spanning-tree packing of size at least
/// `⌈(λ−1)/2⌉ (1 − 6ε)` (Theorem 1.3's size for this subroutine). Intended
/// for `λ = O(log n)`; for larger `λ` use [`crate::stp::sampled`], exactly
/// as Section 5.2 prescribes.
///
/// # Panics
/// Panics if `g` is disconnected/empty, `lambda == 0`, or `epsilon` is not
/// in `(0, 1/6)`.
pub fn fractional_stp_mwu(g: &Graph, lambda: usize, config: &MwuConfig) -> MwuReport {
    assert!(
        decomp_graph::traversal::is_connected(g) && g.n() >= 1,
        "MWU packing requires a connected graph"
    );
    let driver = MwuDriver::new(g.n(), g.m(), lambda, config.epsilon, config.max_iterations);
    let first = minimum_spanning_forest(g, |_| 1.0);
    assert!(
        first.is_spanning_tree(g),
        "connected graph must have an MST"
    );
    let outcome: Result<MwuOutcome, std::convert::Infallible> =
        driver.run(first.edge_indices, |_z, cost, x| {
            let mst = minimum_spanning_forest(g, |e| cost[e]);
            let mst_cost: f64 = mst.edge_indices.iter().map(|&e| cost[e]).sum();
            let frac_cost: f64 = (0..g.m()).map(|e| cost[e] * x[e]).sum();
            Ok((mst.edge_indices, mst_cost, frac_cost))
        });
    match outcome {
        Ok(o) => o.into_report(),
        Err(e) => match e {},
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decomp_graph::connectivity::edge_connectivity;
    use decomp_graph::generators;

    fn run(g: &Graph, eps: f64) -> (usize, MwuReport) {
        let lambda = edge_connectivity(g);
        let report = fractional_stp_mwu(
            g,
            lambda,
            &MwuConfig {
                epsilon: eps,
                max_iterations: None,
            },
        );
        (lambda, report)
    }

    #[test]
    fn packing_feasible_and_near_target_on_complete_graph() {
        let g = generators::complete(12); // lambda = 11, target = 5
        let (lambda, r) = run(&g, 0.1);
        r.packing.validate(&g, 1e-9).unwrap();
        let target = ((lambda as f64 - 1.0) / 2.0).ceil();
        assert!(
            r.packing.size() >= target * (1.0 - 6.0 * 0.1) - 1e-9,
            "size {} vs target {}",
            r.packing.size(),
            target
        );
    }

    #[test]
    fn harary_packing_size() {
        let g = generators::harary(8, 24); // lambda = 8, target = 4
        let (lambda, r) = run(&g, 0.1);
        assert_eq!(lambda, 8);
        r.packing.validate(&g, 1e-9).unwrap();
        assert!(r.packing.size() >= 4.0 * 0.4, "size {}", r.packing.size());
    }

    #[test]
    fn tree_graph_single_tree() {
        let g = generators::path(8); // lambda = 1, target = 1
        let (_, r) = run(&g, 0.1);
        r.packing.validate(&g, 1e-9).unwrap();
        assert!((r.packing.size() - 1.0).abs() < 1e-9);
        assert_eq!(r.packing.num_trees(), 1);
    }

    #[test]
    fn cycle_half_half() {
        // C_6: lambda = 2, target = 1; a single spanning tree of weight ~1.
        let g = generators::cycle(6);
        let (_, r) = run(&g, 0.1);
        r.packing.validate(&g, 1e-9).unwrap();
        assert!(r.packing.size() >= 0.9);
    }

    #[test]
    fn max_z_bounded_by_lemma_f1() {
        let g = generators::complete(10);
        let (_, r) = run(&g, 0.1);
        assert!(
            r.final_max_z <= 1.0 + 6.0 * 0.1 + 1e-6,
            "Lemma F.1 bound violated: {}",
            r.final_max_z
        );
    }

    #[test]
    fn trace_max_z_trends_down() {
        let g = generators::complete(10);
        let (_, r) = run(&g, 0.1);
        let first = r.iterations.first().unwrap().max_z;
        let last = r.iterations.last().unwrap().max_z;
        assert!(last <= first, "load must not grow: {first} -> {last}");
    }

    #[test]
    #[should_panic(expected = "epsilon")]
    fn rejects_bad_epsilon() {
        let g = generators::cycle(4);
        fractional_stp_mwu(
            &g,
            2,
            &MwuConfig {
                epsilon: 0.5,
                max_iterations: None,
            },
        );
    }

    #[test]
    #[should_panic(expected = "connected")]
    fn rejects_disconnected() {
        let g = Graph::from_edges(4, [(0, 1), (2, 3)]);
        fractional_stp_mwu(&g, 1, &MwuConfig::default());
    }

    use decomp_graph::Graph;

    #[test]
    fn edge_multiplicity_polylog() {
        let g = generators::complete(14);
        let (_, r) = run(&g, 0.1);
        let logn = (14f64).log2();
        assert!(
            (r.packing.max_edge_multiplicity(&g) as f64) <= 64.0 * logn * logn * logn,
            "multiplicity {} too large",
            r.packing.max_edge_multiplicity(&g)
        );
    }

    #[test]
    fn tree_order_is_run_to_run_deterministic() {
        // Trees leave the collection in key order, not hash order, so
        // samplers that index into the packing (E7b) are reproducible.
        let g = generators::harary(8, 32);
        let trees = || -> Vec<(Vec<usize>, f64)> {
            let (_, r) = run(&g, 0.1);
            r.packing
                .trees
                .into_iter()
                .map(|t| (t.edge_indices, t.weight))
                .collect()
        };
        let first = trees();
        assert!(first.len() > 1, "need several trees to observe an order");
        assert!(trees() == first, "tree order differs between two runs");
    }

    #[test]
    fn collection_total_weight_one_before_rescale() {
        // final_max_z = final_max_x * target; packing size = 1/final_max_x
        // (total weight 1 rescaled). Cross-check the identity.
        let g = generators::complete(9);
        let (lambda, r) = run(&g, 0.1);
        let target = ((lambda as f64 - 1.0) / 2.0).ceil();
        let implied = target / r.final_max_z;
        assert!(
            (r.packing.size() - implied).abs() < 1e-6,
            "size {} vs implied {}",
            r.packing.size(),
            implied
        );
    }
}
