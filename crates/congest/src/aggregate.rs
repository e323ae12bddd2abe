//! Convergecast and broadcast over a BFS tree.
//!
//! Used wherever the paper gathers a global quantity at a leader and
//! propagates a decision back — e.g. the MWU termination test of
//! Section 5.1 ("gathering the total cost of the minimum spanning tree over
//! a breadth first search tree rooted at this leader and then propagating
//! the decision").
//!
//! Messages go up the tree as `(UP, parent_id, value)` and down as
//! `(DOWN, _, value)`; in V-CONGEST a node broadcasts and receivers filter
//! by the addressed parent, which conforms to the model.

use crate::bfs::DistBfsTree;
use crate::message::Message;
use crate::sim::{Inbox, NodeCtx, NodeProgram, SimError, Simulator};

/// Aggregation operator for [`tree_aggregate`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AggOp {
    /// Sum of `u64` values (wrapping is a caller bug).
    Sum,
    /// Minimum of `u64` values.
    Min,
    /// Maximum of `u64` values.
    Max,
    /// Sum of `f64` values carried as bit patterns.
    SumF64,
}

impl AggOp {
    fn identity(self) -> u64 {
        match self {
            AggOp::Sum => 0,
            AggOp::Min => u64::MAX,
            AggOp::Max => 0,
            AggOp::SumF64 => 0f64.to_bits(),
        }
    }

    fn combine(self, a: u64, b: u64) -> u64 {
        match self {
            AggOp::Sum => a + b,
            AggOp::Min => a.min(b),
            AggOp::Max => a.max(b),
            AggOp::SumF64 => (f64::from_bits(a) + f64::from_bits(b)).to_bits(),
        }
    }
}

const TAG_UP: u64 = 0;
const TAG_DOWN: u64 = 1;

struct AggregateProgram {
    op: AggOp,
    parent: Option<usize>, // None for the root
    num_children: usize,
    acc: u64,
    received_children: usize,
    sent_up: bool,
    result: Option<u64>,
    announced_down: bool,
}

impl NodeProgram for AggregateProgram {
    fn round(&mut self, ctx: &mut NodeCtx<'_>, inbox: &Inbox<'_>) {
        for (_, m) in inbox {
            match m.word(0) {
                TAG_UP if m.word(1) == ctx.id() as u64 => {
                    self.acc = self.op.combine(self.acc, m.word(2));
                    self.received_children += 1;
                }
                TAG_DOWN
                    if Some(m.word(1) as usize) == self.parent
                    // Only accept the result from our own tree parent.
                    && self.result.is_none() =>
                {
                    self.result = Some(m.word(2));
                }
                _ => {}
            }
        }
        if self.received_children == self.num_children && !self.sent_up {
            self.sent_up = true;
            match self.parent {
                Some(p) => {
                    ctx.broadcast(Message::from_words([TAG_UP, p as u64, self.acc]));
                    return; // one message per round in V-CONGEST
                }
                None => {
                    // Root: aggregation complete.
                    self.result = Some(self.acc);
                }
            }
        }
        if let (Some(r), false) = (self.result, self.announced_down) {
            if self.num_children > 0 {
                ctx.broadcast(Message::from_words([TAG_DOWN, ctx.id() as u64, r]));
            }
            self.announced_down = true;
        }
    }

    fn is_done(&self) -> bool {
        self.announced_down || (self.sent_up && self.result.is_none())
    }
}

/// Aggregates `values` over `tree` with `op`; every tree node learns the
/// global result, which is returned. Takes `O(depth(tree))` rounds.
///
/// # Errors
/// Propagates simulator round-limit errors.
///
/// # Panics
/// Panics if `values.len() != n` or the tree does not span the graph
/// (unreached nodes would deadlock the convergecast).
pub fn tree_aggregate(
    sim: &mut Simulator<'_>,
    tree: &DistBfsTree,
    op: AggOp,
    values: &[u64],
) -> Result<u64, SimError> {
    let n = sim.graph().n();
    assert_eq!(values.len(), n, "one value per node");
    assert!(
        (0..n).all(|v| tree.reached(v)),
        "aggregation tree must span the graph"
    );
    let children = tree.children();
    let programs = (0..n)
        .map(|v| AggregateProgram {
            op,
            parent: if v == tree.root {
                None
            } else {
                Some(tree.parent[v])
            },
            num_children: children[v].len(),
            acc: op.combine(op.identity(), values[v]),
            received_children: 0,
            sent_up: false,
            result: None,
            announced_down: false,
        })
        .collect();
    let (programs, _) = sim.run_to_quiescence(programs)?;
    let root_result = programs[tree.root].result.expect("root must finish");
    debug_assert!(
        programs.iter().all(|p| p.result == Some(root_result)),
        "all nodes must agree on the aggregate"
    );
    Ok(root_result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs::distributed_bfs;
    use crate::sim::Model;
    use decomp_graph::generators;

    fn setup(g: &decomp_graph::Graph) -> (Simulator<'_>, DistBfsTree) {
        let mut sim = Simulator::new(g, Model::VCongest);
        let tree = distributed_bfs(&mut sim, 0).unwrap();
        (sim, tree)
    }

    #[test]
    fn sum_counts_nodes() {
        let g = generators::random_connected(20, 10, 3);
        let (mut sim, tree) = setup(&g);
        let total = tree_aggregate(&mut sim, &tree, AggOp::Sum, &[1; 20]).unwrap();
        assert_eq!(total, 20);
    }

    #[test]
    fn min_and_max() {
        let g = generators::path(7);
        let (mut sim, tree) = setup(&g);
        let values: Vec<u64> = vec![5, 3, 8, 1, 9, 2, 7];
        assert_eq!(
            tree_aggregate(&mut sim, &tree, AggOp::Min, &values).unwrap(),
            1
        );
        assert_eq!(
            tree_aggregate(&mut sim, &tree, AggOp::Max, &values).unwrap(),
            9
        );
    }

    #[test]
    fn f64_sum() {
        let g = generators::cycle(5);
        let (mut sim, tree) = setup(&g);
        let values: Vec<u64> = [0.5f64, 1.25, 2.0, 0.25, 1.0]
            .iter()
            .map(|x| x.to_bits())
            .collect();
        let sum = f64::from_bits(tree_aggregate(&mut sim, &tree, AggOp::SumF64, &values).unwrap());
        assert!((sum - 5.0).abs() < 1e-12);
    }

    #[test]
    fn single_node() {
        let g = decomp_graph::Graph::empty(1);
        let (mut sim, tree) = setup(&g);
        assert_eq!(
            tree_aggregate(&mut sim, &tree, AggOp::Sum, &[41]).unwrap(),
            41
        );
    }

    #[test]
    fn rounds_scale_with_depth() {
        let g = generators::path(32);
        let (mut sim, tree) = setup(&g);
        let before = sim.stats().rounds;
        tree_aggregate(&mut sim, &tree, AggOp::Sum, &vec![1; 32]).unwrap();
        let spent = sim.stats().rounds - before;
        assert!(
            spent <= 3 * 32 + 10,
            "aggregate on a path should be O(depth), got {spent}"
        );
    }
}
