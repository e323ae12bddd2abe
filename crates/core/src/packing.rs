//! Packing types: weighted collections of dominating / spanning trees.
//!
//! Section 2 of the paper: a *κ-size fractional dominating tree packing*
//! assigns weights `x_τ ∈ [0,1]` to dominating trees with `Σ x_τ = κ` and
//! per-vertex load `Σ_{τ ∋ v} x_τ ≤ 1`; the spanning-tree version
//! constrains per-edge load instead. These types carry the trees, their
//! weights, and the feasibility/size accounting every experiment reports.

use decomp_graph::domination::{is_dominating_tree, is_spanning_tree};
use decomp_graph::{Graph, NodeId};
use rand::Rng;

/// Weight-proportional tree sampler shared across the broadcast layer.
///
/// Draws tree indices with probability `x_τ / Σx` by one uniform draw in
/// `[0, Σx)` resolved against the cumulative weight walk — the
/// time-sharing distribution of the fractional regime (Theorem 1.1 /
/// Corollary 1.6): a packing of size `Σx` serves each tree in proportion
/// to its weight. Built via [`DomTreePacking::sampler`] /
/// [`SpanTreePacking::sampler`] and used by `broadcast::gossip`,
/// `broadcast::gossip_distributed`, and `broadcast::oblivious`.
#[derive(Clone, Debug)]
pub struct TreeSampler {
    weights: Vec<f64>,
    total: f64,
    /// Index of the last tree with positive weight — the fallback
    /// target when float rounding exhausts the cumulative walk, so a
    /// zero-weight tree is never selected even from a float-edge pick.
    last_positive: usize,
}

impl TreeSampler {
    /// Builds a sampler over `weights` (one per tree, in tree order).
    ///
    /// # Panics
    /// Panics on an empty weight vector, a negative or non-finite weight,
    /// or a zero total (nothing to time-share).
    pub fn new(weights: Vec<f64>) -> Self {
        assert!(!weights.is_empty(), "sampler needs at least one tree");
        assert!(
            weights.iter().all(|w| w.is_finite() && *w >= 0.0),
            "tree weights must be finite and non-negative"
        );
        Self::try_new(weights).expect("packing must carry weight")
    }

    /// Non-panicking [`TreeSampler::new`]: returns `None` on an empty
    /// weight vector, a negative or non-finite weight, or a zero total —
    /// the degenerate packings the fault path can produce (every
    /// surviving tree pruned, or all weight on dead trees).
    pub fn try_new(weights: Vec<f64>) -> Option<Self> {
        if weights.is_empty() || weights.iter().any(|w| !w.is_finite() || *w < 0.0) {
            return None;
        }
        let total: f64 = weights.iter().sum();
        let last_positive = weights.iter().rposition(|&w| w > 0.0)?;
        if total <= 0.0 {
            return None;
        }
        Some(TreeSampler {
            weights,
            total,
            last_positive,
        })
    }

    /// Total weight `Σx` (the denominator of the sampling distribution).
    pub fn total(&self) -> f64 {
        self.total
    }

    /// Number of trees.
    pub fn num_trees(&self) -> usize {
        self.weights.len()
    }

    /// Resolves a point `pick ∈ [0, Σx)` to the tree whose cumulative
    /// weight interval contains it. Zero-weight trees have empty
    /// intervals and are never selected — including from the fallback
    /// arm, which resolves a float-edge `pick` near `Σx` (one that
    /// survives every `pick < w` test because subtraction rounding
    /// exhausted the walk) to the last *positive-weight* tree.
    pub fn index_for(&self, mut pick: f64) -> usize {
        let mut idx = self.last_positive;
        for (i, &w) in self.weights.iter().enumerate() {
            if pick < w {
                idx = i;
                break;
            }
            pick -= w;
        }
        idx
    }

    /// Samples one tree index proportional to `x_τ / Σx`.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> usize {
        self.index_for(rng.gen_range(0.0..self.total))
    }
}

/// One weighted tree of a dominating-tree packing.
#[derive(Clone, Debug)]
pub struct WeightedDomTree {
    /// Class identifier (the paper's `ID_τ`).
    pub id: usize,
    /// Fractional weight `x_τ ∈ [0, 1]`.
    pub weight: f64,
    /// Tree edges over real vertices.
    pub edges: Vec<(NodeId, NodeId)>,
    /// For single-vertex trees: the vertex (edges empty).
    pub singleton: Option<NodeId>,
}

impl WeightedDomTree {
    /// The set of vertices this tree touches.
    pub fn vertices(&self, n: usize) -> Vec<NodeId> {
        let mut mask = vec![false; n];
        for &(u, v) in &self.edges {
            mask[u] = true;
            mask[v] = true;
        }
        if let Some(v) = self.singleton {
            mask[v] = true;
        }
        (0..n).filter(|&v| mask[v]).collect()
    }

    /// Tree diameter in edges (0 for singletons).
    pub fn diameter(&self, n: usize) -> usize {
        if self.edges.is_empty() {
            return 0;
        }
        let root = self.edges[0].0;
        decomp_graph::mst::RootedTree::from_edges(n, root, &self.edges)
            .map(|t| t.diameter())
            .unwrap_or(0)
    }
}

/// A fractional dominating-tree packing (Theorem 1.1 / 1.2 output).
#[derive(Clone, Debug, Default)]
pub struct DomTreePacking {
    /// The weighted trees.
    pub trees: Vec<WeightedDomTree>,
}

impl DomTreePacking {
    /// Total packing size `Σ x_τ`.
    pub fn size(&self) -> f64 {
        self.trees.iter().map(|t| t.weight).sum()
    }

    /// Number of trees.
    pub fn num_trees(&self) -> usize {
        self.trees.len()
    }

    /// Per-vertex load `Σ_{τ ∋ v} x_τ`.
    pub fn vertex_loads(&self, n: usize) -> Vec<f64> {
        let mut load = vec![0.0; n];
        for t in &self.trees {
            for v in t.vertices(n) {
                load[v] += t.weight;
            }
        }
        load
    }

    /// Maximum number of trees any single vertex belongs to (the paper's
    /// "each node is included in O(log n) trees").
    pub fn max_vertex_multiplicity(&self, n: usize) -> usize {
        let mut count = vec![0usize; n];
        for t in &self.trees {
            for v in t.vertices(n) {
                count[v] += 1;
            }
        }
        count.into_iter().max().unwrap_or(0)
    }

    /// A [`TreeSampler`] over this packing's tree weights.
    ///
    /// # Panics
    /// Panics if the packing is empty or carries no weight.
    pub fn sampler(&self) -> TreeSampler {
        TreeSampler::new(self.trees.iter().map(|t| t.weight).collect())
    }

    /// Non-panicking [`DomTreePacking::sampler`]: `None` if the packing
    /// is empty or carries no weight (e.g. after fault pruning zeroed
    /// every surviving tree).
    pub fn try_sampler(&self) -> Option<TreeSampler> {
        TreeSampler::try_new(self.trees.iter().map(|t| t.weight).collect())
    }

    /// Overwrites every tree weight with `1 / max-multiplicity` — the
    /// same uniform feasible assignment `cds::tree_extract` uses — and
    /// returns the weight. This is how hand-built packings (bench
    /// harnesses, experiments) become feasible *fractional* packings:
    /// weight 1.0 on overlapping trees overloads shared vertices.
    pub fn assign_uniform_feasible_weights(&mut self, n: usize) -> f64 {
        let w = 1.0 / self.max_vertex_multiplicity(n).max(1) as f64;
        for t in &mut self.trees {
            t.weight = w;
        }
        w
    }

    /// Validates the packing against `g`:
    /// every tree is a dominating tree, weights lie in `[0, 1]`, and every
    /// per-vertex load is at most `1 + tol`.
    ///
    /// # Errors
    /// Returns a description of the first violation.
    pub fn validate(&self, g: &Graph, tol: f64) -> Result<(), String> {
        for (i, t) in self.trees.iter().enumerate() {
            if !(0.0..=1.0 + tol).contains(&t.weight) {
                return Err(format!("tree {i} has weight {} outside [0,1]", t.weight));
            }
            if !is_dominating_tree(g, &t.edges, t.singleton) {
                return Err(format!(
                    "tree {i} (class {}) is not a dominating tree",
                    t.id
                ));
            }
        }
        for (v, load) in self.vertex_loads(g.n()).into_iter().enumerate() {
            if load > 1.0 + tol {
                return Err(format!("vertex {v} overloaded: {load}"));
            }
        }
        Ok(())
    }
}

/// One weighted tree of a spanning-tree packing; edges are indices into
/// [`Graph::edges`].
#[derive(Clone, Debug)]
pub struct WeightedSpanTree {
    /// Fractional weight `x_τ ∈ [0, 1]`.
    pub weight: f64,
    /// Edge indices of the tree.
    pub edge_indices: Vec<usize>,
}

/// A fractional spanning-tree packing (Theorem 1.3 output).
#[derive(Clone, Debug, Default)]
pub struct SpanTreePacking {
    /// The weighted trees.
    pub trees: Vec<WeightedSpanTree>,
}

impl SpanTreePacking {
    /// Total packing size `Σ x_τ`.
    pub fn size(&self) -> f64 {
        self.trees.iter().map(|t| t.weight).sum()
    }

    /// Number of trees.
    pub fn num_trees(&self) -> usize {
        self.trees.len()
    }

    /// Per-edge load `Σ_{τ ∋ e} x_τ`, indexed by edge index.
    pub fn edge_loads(&self, g: &Graph) -> Vec<f64> {
        let mut load = vec![0.0; g.m()];
        for t in &self.trees {
            for &e in &t.edge_indices {
                load[e] += t.weight;
            }
        }
        load
    }

    /// Maximum number of trees any edge belongs to (Theorem 1.3: each edge
    /// in at most `O(log³ n)` trees).
    pub fn max_edge_multiplicity(&self, g: &Graph) -> usize {
        let mut count = vec![0usize; g.m()];
        for t in &self.trees {
            for &e in &t.edge_indices {
                count[e] += 1;
            }
        }
        count.into_iter().max().unwrap_or(0)
    }

    /// A [`TreeSampler`] over this packing's tree weights.
    ///
    /// # Panics
    /// Panics if the packing is empty or carries no weight.
    pub fn sampler(&self) -> TreeSampler {
        TreeSampler::new(self.trees.iter().map(|t| t.weight).collect())
    }

    /// Validates: every tree spans `g`, weights in `[0,1]`, per-edge load
    /// at most `1 + tol`.
    ///
    /// # Errors
    /// Returns a description of the first violation.
    pub fn validate(&self, g: &Graph, tol: f64) -> Result<(), String> {
        for (i, t) in self.trees.iter().enumerate() {
            if !(0.0..=1.0 + tol).contains(&t.weight) {
                return Err(format!("tree {i} has weight {} outside [0,1]", t.weight));
            }
            let edges: Vec<(NodeId, NodeId)> =
                t.edge_indices.iter().map(|&e| g.edges()[e]).collect();
            if !is_spanning_tree(g, &edges) {
                return Err(format!("tree {i} is not a spanning tree"));
            }
        }
        for (e, load) in self.edge_loads(g).into_iter().enumerate() {
            if load > 1.0 + tol {
                return Err(format!("edge {e} overloaded: {load}"));
            }
        }
        Ok(())
    }

    /// Rescales all weights by `factor` (used to convert the MWU's
    /// total-weight-1 collection into the final `⌈(λ−1)/2⌉(1−ε)`-size
    /// packing).
    pub fn scale(&mut self, factor: f64) {
        for t in &mut self.trees {
            t.weight *= factor;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decomp_graph::generators;
    use rand::SeedableRng;

    fn star_packing() -> (Graph, DomTreePacking) {
        let g = generators::star(5);
        let packing = DomTreePacking {
            trees: vec![WeightedDomTree {
                id: 0,
                weight: 1.0,
                edges: vec![],
                singleton: Some(0),
            }],
        };
        (g, packing)
    }

    #[test]
    fn singleton_dom_tree_packs() {
        let (g, p) = star_packing();
        assert_eq!(p.size(), 1.0);
        p.validate(&g, 1e-9).unwrap();
        assert_eq!(p.max_vertex_multiplicity(g.n()), 1);
    }

    #[test]
    fn overload_detected() {
        let (g, mut p) = star_packing();
        p.trees.push(WeightedDomTree {
            id: 1,
            weight: 0.5,
            edges: vec![(0, 1)],
            singleton: None,
        });
        // vertex 0 carries 1.5
        assert!(p.validate(&g, 1e-9).is_err());
    }

    #[test]
    fn non_dominating_tree_rejected() {
        let g = generators::path(4);
        let p = DomTreePacking {
            trees: vec![WeightedDomTree {
                id: 0,
                weight: 1.0,
                edges: vec![(0, 1)],
                singleton: None,
            }],
        };
        assert!(p.validate(&g, 1e-9).is_err());
    }

    #[test]
    fn dom_tree_diameter() {
        let t = WeightedDomTree {
            id: 0,
            weight: 1.0,
            edges: vec![(0, 1), (1, 2), (2, 3)],
            singleton: None,
        };
        assert_eq!(t.diameter(5), 3);
        assert_eq!(t.vertices(5), vec![0, 1, 2, 3]);
    }

    #[test]
    fn span_packing_feasible() {
        let g = generators::cycle(4);
        // two trees, each missing a different edge, weight 1/2 each
        let p = SpanTreePacking {
            trees: vec![
                WeightedSpanTree {
                    weight: 0.5,
                    edge_indices: vec![0, 1, 2],
                },
                WeightedSpanTree {
                    weight: 0.5,
                    edge_indices: vec![1, 2, 3],
                },
            ],
        };
        p.validate(&g, 1e-9).unwrap();
        assert_eq!(p.size(), 1.0);
        assert_eq!(p.max_edge_multiplicity(&g), 2);
        let loads = p.edge_loads(&g);
        assert_eq!(loads[1], 1.0);
        assert_eq!(loads[0], 0.5);
    }

    #[test]
    fn span_packing_rejects_nontree() {
        let g = generators::cycle(4);
        let p = SpanTreePacking {
            trees: vec![WeightedSpanTree {
                weight: 1.0,
                edge_indices: vec![0, 1],
            }],
        };
        assert!(p.validate(&g, 1e-9).is_err());
    }

    #[test]
    fn scale_changes_size() {
        let g = generators::cycle(4);
        let mut p = SpanTreePacking {
            trees: vec![WeightedSpanTree {
                weight: 1.0,
                edge_indices: vec![0, 1, 2],
            }],
        };
        p.scale(0.25);
        assert!((p.size() - 0.25).abs() < 1e-12);
        p.validate(&g, 1e-9).unwrap();
    }

    #[test]
    fn empty_packings() {
        let p = DomTreePacking::default();
        assert_eq!(p.size(), 0.0);
        assert_eq!(p.num_trees(), 0);
        let s = SpanTreePacking::default();
        assert_eq!(s.size(), 0.0);
    }

    #[test]
    fn sampler_skips_zero_weight_leading_trees() {
        // Zero-weight trees occupy empty cumulative intervals: every
        // pick in [0, Σx) lands on the positive-weight tail.
        let s = TreeSampler::new(vec![0.0, 0.0, 2.0]);
        assert_eq!(s.index_for(0.0), 2);
        assert_eq!(s.index_for(1.999), 2);
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        for _ in 0..200 {
            assert_eq!(s.sample(&mut rng), 2);
        }
    }

    #[test]
    fn sampler_fallback_arm_resolves_float_edge_picks() {
        // 0.1 + 0.2 sums to slightly *more* than 0.3 in binary, so
        // `pick = total` survives both `pick < w` tests (total − 0.1 =
        // 0.2000...04 ≥ 0.2) and exhausts the walk — only the fallback
        // arm produces the answer. `gen_range` never returns `total`
        // itself, but intermediate subtraction rounding can leave any
        // near-total pick in the same exhausted state, so the arm must
        // hand back a valid index instead of walking off the end.
        let s = TreeSampler::new(vec![0.1, 0.2]);
        let total = s.total();
        assert!(total > 0.3, "test premise: rounding leaves slack");
        assert_eq!(s.index_for(total), 1, "fallback arm must fire");
        // Ordinary picks resolve through the normal `pick < w` arm.
        assert_eq!(s.index_for(0.05), 0);
        assert_eq!(s.index_for(f64::from_bits(total.to_bits() - 1)), 1);
        // The fallback must never select a trailing zero-weight tree:
        // it resolves to the last *positive* index, keeping the
        // zero-weight-trees-are-never-sampled invariant airtight.
        let s = TreeSampler::new(vec![0.1, 0.2, 0.0]);
        assert_eq!(s.index_for(s.total()), 1, "skip the trailing zero");
    }

    #[test]
    fn packing_samplers_expose_weights() {
        let (_, p) = star_packing();
        let s = p.sampler();
        assert_eq!(s.num_trees(), 1);
        assert!((s.total() - 1.0).abs() < 1e-12);
        let sp = SpanTreePacking {
            trees: vec![
                WeightedSpanTree {
                    weight: 0.5,
                    edge_indices: vec![0, 1, 2],
                },
                WeightedSpanTree {
                    weight: 0.25,
                    edge_indices: vec![1, 2, 3],
                },
            ],
        };
        let s = sp.sampler();
        assert_eq!(s.num_trees(), 2);
        assert!((s.total() - 0.75).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "carry weight")]
    fn sampler_rejects_zero_total() {
        TreeSampler::new(vec![0.0, 0.0]);
    }

    #[test]
    fn try_new_rejects_every_degenerate_weight_vector() {
        // The shapes the fault path can produce: all surviving weight
        // pruned to zero, nothing left at all, or corrupted weights —
        // each must be a `None`, never a panic.
        assert!(TreeSampler::try_new(vec![]).is_none(), "empty");
        assert!(TreeSampler::try_new(vec![0.0, 0.0]).is_none(), "zero total");
        assert!(TreeSampler::try_new(vec![1.0, -0.5]).is_none(), "negative");
        assert!(TreeSampler::try_new(vec![f64::NAN]).is_none(), "NaN");
        assert!(
            TreeSampler::try_new(vec![f64::INFINITY, 1.0]).is_none(),
            "non-finite"
        );
        let s = TreeSampler::try_new(vec![0.0, 0.75]).expect("valid weights");
        assert_eq!(s.num_trees(), 2);
        assert!((s.total() - 0.75).abs() < 1e-12);
        assert_eq!(s.index_for(0.5), 1);
    }

    #[test]
    fn try_sampler_covers_pruned_and_single_tree_packings() {
        let (g, mut p) = star_packing();
        assert!(p.try_sampler().is_some());
        // Fault pruning zeroes every surviving tree's weight.
        for t in &mut p.trees {
            t.weight = 0.0;
        }
        assert!(p.try_sampler().is_none(), "all-zero-weight packing");
        // A single surviving tree still samples — always itself.
        p.trees.truncate(1);
        p.trees[0].weight = 0.5;
        let s = p.try_sampler().expect("single live tree");
        assert_eq!(s.num_trees(), 1);
        assert_eq!(s.index_for(0.25), 0);
        // And the empty packing is a `None`, not a panic.
        p.trees.clear();
        assert!(p.try_sampler().is_none(), "empty packing");
        let _ = g;
    }

    #[test]
    fn feasible_weight_assignment_matches_tree_extract_rule() {
        // Three pairwise-overlapping dominating stars on K_4: weight 1.0
        // each is infeasible (every vertex carries load 3); the helper
        // rescales to 1/max-multiplicity exactly like tree_extract.
        let g = generators::complete(4);
        let mut p = DomTreePacking {
            trees: (0..3)
                .map(|i| WeightedDomTree {
                    id: i,
                    weight: 1.0,
                    edges: (0..4).filter(|&v| v != i).map(|v| (i, v)).collect(),
                    singleton: None,
                })
                .collect(),
        };
        assert!(p.validate(&g, 1e-9).is_err(), "weight 1.0 must overload");
        let w = p.assign_uniform_feasible_weights(g.n());
        assert!((w - 1.0 / 3.0).abs() < 1e-12);
        p.validate(&g, 1e-9).unwrap();
    }

    mod properties {
        use super::*;
        use crate::stp::mwu::{fractional_stp_mwu, MwuConfig};
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(12))]

            /// Dropping trees from a feasible packing keeps it feasible,
            /// and scaling by any factor in [0,1] keeps it feasible.
            fn packing_feasibility_is_downward_closed(
                seed in 0u64..50,
                keep_mask in proptest::collection::vec(any::<bool>(), 64),
                scale in 0.0f64..1.0,
            ) {
                let g = generators::harary(6, 18);
                let mut p = fractional_stp_mwu(&g, 6, &MwuConfig::default()).packing;
                p.validate(&g, 1e-9).unwrap();
                let before = p.size();
                p.trees = p
                    .trees
                    .into_iter()
                    .enumerate()
                    .filter(|(i, _)| *keep_mask.get(i % 64).unwrap_or(&true))
                    .map(|(_, t)| t)
                    .collect();
                p.scale(scale);
                prop_assert!(p.validate(&g, 1e-9).is_ok());
                prop_assert!(p.size() <= before + 1e-9);
            }

            /// The shared sampler's empirical tree frequencies track
            /// `x_τ / Σx` on random weight vectors (the distribution the
            /// fractional regime time-shares by).
            fn sampler_frequencies_track_weights(
                weights in proptest::collection::vec(0.02f64..1.0, 1..8),
                seed in 0u64..1000,
            ) {
                let s = TreeSampler::new(weights.clone());
                let total: f64 = weights.iter().sum();
                let draws = 4000usize;
                let mut counts = vec![0usize; weights.len()];
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
                for _ in 0..draws {
                    counts[s.sample(&mut rng)] += 1;
                }
                for (i, &w) in weights.iter().enumerate() {
                    let expect = w / total;
                    let got = counts[i] as f64 / draws as f64;
                    prop_assert!(
                        (got - expect).abs() < 0.05,
                        "tree {} frequency {} vs expected {}", i, got, expect
                    );
                }
            }

            /// Vertex loads are consistent with multiplicities: for a
            /// uniform-weight packing, load = weight * multiplicity.
            fn loads_match_multiplicity(weight in 0.01f64..0.2) {
                let g = generators::star(6);
                let trees: Vec<WeightedDomTree> = (0..4)
                    .map(|i| WeightedDomTree {
                        id: i,
                        weight,
                        edges: vec![(0, i + 1)],
                        singleton: None,
                    })
                    .collect();
                let p = DomTreePacking { trees };
                let loads = p.vertex_loads(g.n());
                prop_assert!((loads[0] - 4.0 * weight).abs() < 1e-12);
                prop_assert!((loads[1] - weight).abs() < 1e-12);
                prop_assert_eq!(p.max_vertex_multiplicity(g.n()), 4);
            }
        }
    }
}
