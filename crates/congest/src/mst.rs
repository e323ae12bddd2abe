//! Distributed minimum spanning tree (Borůvka-style fragment merging).
//!
//! Stand-in for the Kutten–Peleg `O(D + √n log* n)` MST the paper invokes
//! (Section 5.1 and Appendix B); see "Known substitutions" in
//! `docs/PAPER_MAP.md`. The algorithm is the
//! classical synchronous Borůvka/GHS scheme:
//!
//! 1. identify the fragments of the forest chosen so far
//!    ([`crate::components::component_labels`]),
//! 2. exchange fragment labels with neighbors (1 round),
//! 3. compute each fragment's minimum-weight outgoing edge (MWOE) by
//!    min-flooding inside the fragment (`O(fragment diameter)` rounds),
//! 4. add all MWOEs and repeat — `O(log n)` phases.
//!
//! Edge weights are totally ordered by `(weight, edge index)`, so the MST
//! is unique and the result matches Kruskal's with the same tie-break,
//! which the tests exploit.

use crate::components::component_labels;
use crate::message::Message;
use crate::sim::{Inbox, NodeCtx, NodeProgram, SimError, Simulator};
use decomp_graph::NodeId;

const TAG_FRAG: u64 = 0;
const TAG_CAND: u64 = 1;

/// Candidate key: (weight, edge index) — lexicographic, unique per edge.
type Key = (u64, u64);

struct MwoeProgram {
    frag: u64,
    /// Parallel to the node's neighbor list.
    neighbor_info: Vec<NeighborInfo>,
    /// Best outgoing-edge key known for the own fragment.
    best: Option<Key>,
    dirty: bool,
    initialized: bool,
}

#[derive(Clone, Copy)]
struct NeighborInfo {
    weight: u64,
    edge_index: u64,
    frag: Option<u64>,
}

impl NodeProgram for MwoeProgram {
    fn round(&mut self, ctx: &mut NodeCtx<'_>, inbox: &Inbox<'_>) {
        if ctx.round() == 0 {
            if ctx.degree() == 0 {
                self.initialized = true;
            } else {
                ctx.broadcast(Message::from_words([TAG_FRAG, self.frag]));
            }
            return;
        }
        for (from, m) in inbox {
            match m.word(0) {
                TAG_FRAG => {
                    let idx = ctx
                        .neighbors()
                        .binary_search(&from)
                        .expect("message from non-neighbor");
                    self.neighbor_info[idx].frag = Some(m.word(1));
                }
                TAG_CAND => {
                    let idx = ctx
                        .neighbors()
                        .binary_search(&from)
                        .expect("message from non-neighbor");
                    // Only same-fragment neighbors participate in the
                    // fragment-internal min-flood.
                    if self.neighbor_info[idx].frag == Some(self.frag) {
                        let cand = (m.word(1), m.word(2));
                        if self.best.is_none_or(|b| cand < b) {
                            self.best = Some(cand);
                            self.dirty = true;
                        }
                    }
                }
                other => panic!("unknown MWOE tag {other}"),
            }
        }
        if !self.initialized && ctx.round() == 1 {
            // All neighbor fragment labels have arrived; seed the flood
            // with the locally best outgoing edge.
            self.initialized = true;
            let local = self
                .neighbor_info
                .iter()
                .filter(|ni| ni.frag.is_some() && ni.frag != Some(self.frag))
                .map(|ni| (ni.weight, ni.edge_index))
                .min();
            if let Some(k) = local {
                if self.best.is_none_or(|b| k < b) {
                    self.best = Some(k);
                    self.dirty = true;
                }
            }
        }
        if self.dirty {
            let (w, e) = self.best.expect("dirty implies a candidate");
            ctx.broadcast(Message::from_words([TAG_CAND, w, e]));
            self.dirty = false;
        }
    }

    fn is_done(&self) -> bool {
        self.initialized && !self.dirty
    }
}

/// Result of a distributed MST computation.
#[derive(Clone, Debug)]
pub struct DistMst {
    /// Indices into `graph.edges()` of the chosen forest, sorted.
    pub edge_indices: Vec<usize>,
    /// Number of Borůvka phases executed.
    pub phases: usize,
}

/// Computes the minimum spanning forest of the simulator's graph under
/// `weights` (indexed by edge index; ties broken by edge index).
///
/// Works in both models. Produces a spanning *forest* on disconnected
/// graphs.
///
/// # Errors
/// Propagates simulator round-limit errors.
///
/// # Panics
/// Panics if `weights.len() != m`.
pub fn distributed_mst(sim: &mut Simulator<'_>, weights: &[u64]) -> Result<DistMst, SimError> {
    let g = sim.graph();
    let n = g.n();
    assert_eq!(weights.len(), g.m(), "one weight per edge");
    // Per-node views of incident edges (owned copies; `g` borrow ends here).
    let neighbor_tables: Vec<Vec<NeighborInfo>> = (0..n)
        .map(|v| {
            g.neighbors(v)
                .iter()
                .map(|&u| {
                    let e = g.edge_index(v, u).expect("adjacency implies edge");
                    NeighborInfo {
                        weight: weights[e],
                        edge_index: e as u64,
                        frag: None,
                    }
                })
                .collect()
        })
        .collect();
    let edges: Vec<(NodeId, NodeId)> = g.edges().to_vec();
    let full_adjacency: Vec<Vec<NodeId>> = (0..n).map(|v| g.neighbors(v).to_vec()).collect();

    let mut chosen = vec![false; edges.len()];
    let mut phases = 0usize;
    loop {
        phases += 1;
        assert!(phases <= 64, "Borůvka must converge in O(log n) phases");
        // 1. fragment identification over the chosen forest
        let sub_adj: Vec<Vec<NodeId>> = (0..n)
            .map(|v| {
                full_adjacency[v]
                    .iter()
                    .copied()
                    .filter(|&u| {
                        let e = edge_index_of(&edges, v, u);
                        chosen[e]
                    })
                    .collect()
            })
            .collect();
        let active = vec![true; n];
        let init: Vec<u64> = (0..n).map(|v| v as u64).collect();
        let labels = component_labels(sim, &active, &sub_adj, &init)?;
        let frag: Vec<u64> = labels.into_iter().map(|l| l.expect("all active")).collect();

        // 2.+3. fragment-label exchange and MWOE min-flood
        let programs = (0..n)
            .map(|v| MwoeProgram {
                frag: frag[v],
                neighbor_info: neighbor_tables[v].clone(),
                best: None,
                dirty: false,
                initialized: false,
            })
            .collect();
        let (programs, _) = sim.run_to_quiescence(programs)?;

        // 4. merge: each fragment adds its MWOE. The owner endpoint
        // notifies the other endpoint across the edge (1 round).
        let mut added_any = false;
        let mut fragment_choice: std::collections::BTreeMap<u64, Key> = Default::default();
        for v in 0..n {
            if let Some(k) = programs[v].best {
                let entry = fragment_choice.entry(frag[v]).or_insert(k);
                *entry = (*entry).min(k);
            }
        }
        for (_frag_label, (_w, e)) in fragment_choice {
            let e = e as usize;
            if !chosen[e] {
                chosen[e] = true;
                added_any = true;
            }
        }
        sim.charge_rounds(1); // merge-announcement round
        if !added_any {
            break;
        }
    }
    let edge_indices: Vec<usize> = (0..edges.len()).filter(|&e| chosen[e]).collect();
    Ok(DistMst {
        edge_indices,
        phases,
    })
}

fn edge_index_of(edges: &[(NodeId, NodeId)], u: NodeId, v: NodeId) -> usize {
    let key = (u.min(v), u.max(v));
    edges.binary_search(&key).expect("edge must exist")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::Model;
    use decomp_graph::{generators, mst};
    use rand::{Rng, SeedableRng};

    fn check_against_kruskal(g: &decomp_graph::Graph, weights: &[u64], model: Model) {
        let mut sim = Simulator::new(g, model);
        let dist = distributed_mst(&mut sim, weights).unwrap();
        let reference = mst::minimum_spanning_forest(g, |e| weights[e] as f64);
        assert_eq!(
            dist.edge_indices, reference.edge_indices,
            "distributed MST must match Kruskal with identical tie-break"
        );
    }

    #[test]
    fn unit_weights_spanning_tree() {
        let g = generators::random_connected(20, 15, 5);
        check_against_kruskal(&g, &vec![1; g.m()], Model::VCongest);
    }

    #[test]
    fn random_weights_match_kruskal() {
        for seed in 0..6 {
            let g = generators::random_connected(16, 12, seed);
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x5a5a);
            let weights: Vec<u64> = (0..g.m()).map(|_| rng.gen_range(0..1000)).collect();
            check_against_kruskal(&g, &weights, Model::VCongest);
        }
    }

    #[test]
    fn works_in_econgest() {
        let g = generators::harary(4, 14);
        let weights: Vec<u64> = (0..g.m() as u64).rev().collect();
        check_against_kruskal(&g, &weights, Model::ECongest);
    }

    #[test]
    fn disconnected_graph_gives_forest() {
        let g = decomp_graph::Graph::from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5)]);
        let mut sim = Simulator::new(&g, Model::VCongest);
        let dist = distributed_mst(&mut sim, &vec![1; g.m()]).unwrap();
        assert_eq!(dist.edge_indices.len(), 4);
    }

    #[test]
    fn zero_one_weights_prefer_zero_edges() {
        // Cycle where one edge has weight 1: that edge is excluded.
        let g = generators::cycle(7);
        let mut weights = vec![0u64; 7];
        let heavy = g.edge_index(2, 3).unwrap();
        weights[heavy] = 1;
        let mut sim = Simulator::new(&g, Model::VCongest);
        let dist = distributed_mst(&mut sim, &weights).unwrap();
        assert_eq!(dist.edge_indices.len(), 6);
        assert!(!dist.edge_indices.contains(&heavy));
    }

    #[test]
    fn phase_count_logarithmic() {
        let g = generators::complete(32);
        let mut sim = Simulator::new(&g, Model::VCongest);
        let dist = distributed_mst(&mut sim, &vec![1; g.m()]).unwrap();
        assert!(
            dist.phases <= 7,
            "Borůvka on K32 should need <= log2(32)+2 phases, got {}",
            dist.phases
        );
    }

    #[test]
    fn single_node() {
        let g = decomp_graph::Graph::empty(1);
        let mut sim = Simulator::new(&g, Model::VCongest);
        let dist = distributed_mst(&mut sim, &[]).unwrap();
        assert!(dist.edge_indices.is_empty());
    }
}
