//! Connected-component identification of a marked subgraph.
//!
//! This is our stand-in for Thurimella's component-identification algorithm
//! (paper, Theorem B.2): every node of a subgraph `G_sub` learns the
//! *minimum label* over its `G_sub`-component. We implement it by iterated
//! min-label flooding, which is correct in both CONGEST models and runs in
//! `O(component diameter)` rounds, where Thurimella achieves
//! `O(D + √n log* n)`; the measured rounds are reported as they are (see
//! "Known substitutions" in `docs/PAPER_MAP.md`).
//!
//! Inactive nodes (not in the subgraph) still forward nothing and output
//! `None`.

use crate::message::Message;
use crate::sim::{Inbox, NodeCtx, NodeProgram, SimError, Simulator};
use decomp_graph::NodeId;

struct LabelProgram {
    /// Whether this node participates in the subgraph.
    active: bool,
    /// Neighbors that are also subgraph-neighbors (edge in `G_sub`).
    sub_neighbors: Vec<NodeId>,
    /// Current best (smallest) label.
    label: u64,
    /// Whether `label` must still be announced.
    dirty: bool,
}

impl NodeProgram for LabelProgram {
    fn round(&mut self, ctx: &mut NodeCtx<'_>, inbox: &Inbox<'_>) {
        if !self.active {
            return;
        }
        for (from, m) in inbox {
            // Receiver-side filtering keeps this V-CONGEST conformant: the
            // broadcast reaches everyone, but only subgraph edges count.
            if self.sub_neighbors.binary_search(&from).is_ok() {
                let cand = m.word(0);
                if cand < self.label {
                    self.label = cand;
                    self.dirty = true;
                }
            }
        }
        if self.dirty {
            ctx.broadcast(Message::from_words([self.label]));
            self.dirty = false;
        }
    }

    fn is_done(&self) -> bool {
        !self.dirty
    }
}

/// Identifies connected components of the subgraph described by
/// `sub_neighbors` (per-node sorted adjacency within the subgraph; empty
/// for non-members together with `active[v] == false`).
///
/// Each active node learns the minimum of `init_label` over its component;
/// returns those labels (`None` for inactive nodes).
///
/// # Errors
/// Propagates simulator round-limit errors.
///
/// # Panics
/// Panics if input lengths disagree with the graph, a subgraph edge is not
/// a real edge, or adjacency is asymmetric.
pub fn component_labels(
    sim: &mut Simulator<'_>,
    active: &[bool],
    sub_neighbors: &[Vec<NodeId>],
    init_label: &[u64],
) -> Result<Vec<Option<u64>>, SimError> {
    let n = sim.graph().n();
    assert_eq!(active.len(), n);
    assert_eq!(sub_neighbors.len(), n);
    assert_eq!(init_label.len(), n);
    for v in 0..n {
        for &u in &sub_neighbors[v] {
            assert!(
                sim.graph().has_edge(u, v),
                "subgraph edge ({u}, {v}) is not a network edge"
            );
            assert!(
                sub_neighbors[u].binary_search(&v).is_ok(),
                "asymmetric subgraph adjacency at ({u}, {v})"
            );
            assert!(
                active[u] && active[v],
                "subgraph edge touches inactive node"
            );
        }
    }
    let programs = (0..n)
        .map(|v| {
            let mut nb = sub_neighbors[v].clone();
            nb.sort_unstable();
            LabelProgram {
                active: active[v],
                sub_neighbors: nb,
                label: init_label[v],
                dirty: active[v],
            }
        })
        .collect();
    let (programs, _) = sim.run_to_quiescence(programs)?;
    Ok(programs
        .iter()
        .map(|p| if p.active { Some(p.label) } else { None })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::Model;
    use decomp_graph::generators;

    /// Builds the per-node subgraph adjacency from an edge predicate.
    fn sub_adj(
        g: &decomp_graph::Graph,
        active: &[bool],
        mut keep: impl FnMut(usize, usize) -> bool,
    ) -> Vec<Vec<NodeId>> {
        (0..g.n())
            .map(|v| {
                g.neighbors(v)
                    .iter()
                    .copied()
                    .filter(|&u| active[u] && active[v] && keep(v.min(u), v.max(u)))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn whole_graph_single_component() {
        let g = generators::cycle(8);
        let active = vec![true; 8];
        let adj = sub_adj(&g, &active, |_, _| true);
        let init: Vec<u64> = (0..8).map(|v| v as u64 + 100).collect();
        let mut sim = Simulator::new(&g, Model::VCongest);
        let labels = component_labels(&mut sim, &active, &adj, &init).unwrap();
        assert!(labels.iter().all(|&l| l == Some(100)));
    }

    #[test]
    fn split_subgraph_two_components() {
        // Cycle 0-1-2-3-4-5-0 with subgraph dropping edges (2,3) and (5,0):
        // components {0,1,2} and {3,4,5}.
        let g = generators::cycle(6);
        let active = vec![true; 6];
        let adj = sub_adj(&g, &active, |a, b| !((a, b) == (2, 3) || (a, b) == (0, 5)));
        let init: Vec<u64> = (0..6).map(|v| v as u64).collect();
        let mut sim = Simulator::new(&g, Model::VCongest);
        let labels = component_labels(&mut sim, &active, &adj, &init).unwrap();
        assert_eq!(labels[0], Some(0));
        assert_eq!(labels[1], Some(0));
        assert_eq!(labels[2], Some(0));
        assert_eq!(labels[3], Some(3));
        assert_eq!(labels[4], Some(3));
        assert_eq!(labels[5], Some(3));
    }

    #[test]
    fn inactive_nodes_excluded() {
        let g = generators::path(5);
        let active = vec![true, true, false, true, true];
        let adj = sub_adj(&g, &active, |_, _| true);
        let init: Vec<u64> = (0..5).map(|v| v as u64).collect();
        let mut sim = Simulator::new(&g, Model::VCongest);
        let labels = component_labels(&mut sim, &active, &adj, &init).unwrap();
        assert_eq!(labels[0], Some(0));
        assert_eq!(labels[1], Some(0));
        assert_eq!(labels[2], None);
        assert_eq!(labels[3], Some(3));
        assert_eq!(labels[4], Some(3));
    }

    #[test]
    fn matches_centralized_components() {
        for seed in 0..8 {
            let g = generators::gnp(20, 0.12, seed);
            let active = vec![true; 20];
            let adj = sub_adj(&g, &active, |_, _| true);
            let init: Vec<u64> = (0..20).map(|v| v as u64).collect();
            let mut sim = Simulator::new(&g, Model::VCongest);
            let labels = component_labels(&mut sim, &active, &adj, &init).unwrap();
            let (reference, _) = decomp_graph::traversal::connected_components(&g);
            for u in 0..20 {
                for v in 0..20 {
                    assert_eq!(
                        labels[u] == labels[v],
                        reference[u] == reference[v],
                        "seed {seed}: nodes {u},{v}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "asymmetric")]
    fn rejects_asymmetric_adjacency() {
        let g = generators::path(3);
        let active = vec![true; 3];
        let adj = vec![vec![1], vec![], vec![]];
        let mut sim = Simulator::new(&g, Model::VCongest);
        let _ = component_labels(&mut sim, &active, &adj, &[0, 1, 2]);
    }
}
