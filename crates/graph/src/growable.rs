//! Growable topology: epoch-stamped edge activation over a CSR base.
//!
//! The engines and schedulers in this workspace historically assumed a
//! *settled* topology — one immutable [`Graph`] whose full adjacency is
//! known before round 0, with mid-run arrivals emulated by purging
//! pre-existing edges until their arrival round. [`GrowableGraph`] ends
//! that assumption: it stores an immutable CSR base, active from epoch
//! 0, plus a per-vertex *overlay* of edges added later, each stamped
//! with the epoch (engine round) at which it activates. Iteration at
//! epoch `e` yields exactly the edges with activation epoch `≤ e`, in
//! ascending neighbor order, in `O(deg)` — a consumer that asks for the
//! round-`e` view can never observe future adjacency.
//!
//! [`TopologyView`] is the cheap-to-copy handle the engines thread
//! through delivery: either a settled [`Graph`] (the existing zero-cost
//! CSR slice path, byte-for-byte unchanged) or a [`GrowableGraph`]
//! queried at the current round.

use crate::graph::{Graph, NodeId};
use std::borrow::Cow;

/// A growable undirected simple graph: CSR base + epoch-stamped
/// overlay adjacency.
///
/// The vertex id space is fixed at construction (`0..n`): a vertex that
/// "arrives" later simply has no active incident edges before its
/// arrival epoch (vertex dormancy itself is tracked by the fault
/// machinery, not the topology). Edges activate at their epoch and
/// never deactivate — deactivation (cuts, deaths) stays with the fault
/// trackers, keeping this structure monotone.
///
/// # Example
///
/// ```
/// use decomp_graph::{Graph, GrowableGraph};
///
/// let base = Graph::from_edges(3, [(0, 1)]);
/// let mut gg = GrowableGraph::from_base(base);
/// gg.add_edge(1, 2, 4);
/// assert_eq!(gg.neighbors_at(1, 0).collect::<Vec<_>>(), vec![0]);
/// assert_eq!(gg.neighbors_at(1, 3).collect::<Vec<_>>(), vec![0]);
/// assert_eq!(gg.neighbors_at(1, 4).collect::<Vec<_>>(), vec![0, 2]);
/// ```
#[derive(Clone, Debug)]
pub struct GrowableGraph {
    /// Every edge active from epoch 0.
    base: Graph,
    /// Per-vertex adjacency added after construction, sorted by
    /// neighbor id, with each edge's activation epoch.
    overlay: Vec<Vec<(NodeId, u32)>>,
    /// Overlay edge count (each edge once).
    overlay_edges: usize,
}

impl GrowableGraph {
    /// Wraps a settled base graph; every base edge activates at epoch 0.
    pub fn from_base(base: Graph) -> Self {
        let n = base.n();
        GrowableGraph {
            base,
            overlay: vec![Vec::new(); n],
            overlay_edges: 0,
        }
    }

    /// Number of vertices (fixed for the lifetime of the structure).
    #[inline]
    pub fn n(&self) -> usize {
        self.base.n()
    }

    /// The CSR base, every edge active from epoch 0 — the
    /// *bookkeeping* topology (partitioning, buffer sizing), never the
    /// delivery view.
    #[inline]
    pub fn base(&self) -> &Graph {
        &self.base
    }

    /// Edges added after construction (the overlay).
    #[inline]
    pub fn overlay_len(&self) -> usize {
        self.overlay_edges
    }

    /// Adds the undirected edge `{u, v}` activating at `epoch`.
    ///
    /// # Panics
    /// Panics on self-loops, out-of-range endpoints, or duplicates
    /// (base or overlay) — the same contract as
    /// [`GraphBuilder`](crate::graph::GraphBuilder).
    pub fn add_edge(&mut self, u: NodeId, v: NodeId, epoch: u32) {
        assert!(u < self.n() && v < self.n(), "edge endpoint out of range");
        assert_ne!(u, v, "self-loops are not allowed");
        assert!(
            self.edge_epoch(u, v).is_none(),
            "duplicate edge {{{u}, {v}}}"
        );
        for (a, b) in [(u, v), (v, u)] {
            let row = &mut self.overlay[a];
            let at = row.partition_point(|&(w, _)| w < b);
            row.insert(at, (b, epoch));
        }
        self.overlay_edges += 1;
    }

    /// Activation epoch of `{u, v}` (0 for a base edge), or `None` if
    /// the edge is unknown.
    pub fn edge_epoch(&self, u: NodeId, v: NodeId) -> Option<u32> {
        if u >= self.n() || v >= self.n() || u == v {
            return None;
        }
        if self.base.has_edge(u, v) {
            return Some(0);
        }
        let row = &self.overlay[u];
        row.binary_search_by_key(&v, |&(w, _)| w)
            .ok()
            .map(|i| row[i].1)
    }

    /// The active neighbors of `v` at `epoch`, ascending — an `O(deg)`
    /// sorted merge of the base slice and the epoch-filtered overlay
    /// row.
    pub fn neighbors_at(&self, v: NodeId, epoch: u32) -> NeighborsAt<'_> {
        NeighborsAt {
            base: self.base.neighbors(v),
            overlay: &self.overlay[v],
            epoch,
            i: 0,
            j: 0,
        }
    }

    /// Fills `out` with the active neighbors of `v` at `epoch`
    /// (ascending), reusing its allocation.
    pub fn neighbors_at_into(&self, v: NodeId, epoch: u32, out: &mut Vec<NodeId>) {
        out.clear();
        out.extend(self.neighbors_at(v, epoch));
    }

    /// A from-scratch CSR of exactly the edges active at `epoch` — the
    /// oracle the property tests compare iteration against.
    pub fn snapshot_at(&self, epoch: u32) -> Graph {
        let grown = self.overlay.iter().enumerate().flat_map(|(v, row)| {
            row.iter()
                .filter(move |&&(u, e)| v < u && e <= epoch)
                .map(move |&(u, _)| (v, u))
        });
        Graph::from_edges(self.n(), self.base.edges().iter().copied().chain(grown))
    }

    /// The fully grown topology (every edge active).
    pub fn final_graph(&self) -> Graph {
        self.snapshot_at(u32::MAX)
    }
}

/// Sorted-merge iterator over the active neighbors of one vertex at a
/// fixed epoch (see [`GrowableGraph::neighbors_at`]).
pub struct NeighborsAt<'a> {
    base: &'a [NodeId],
    overlay: &'a [(NodeId, u32)],
    epoch: u32,
    i: usize,
    j: usize,
}

impl Iterator for NeighborsAt<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        while self.j < self.overlay.len() && self.overlay[self.j].1 > self.epoch {
            self.j += 1;
        }
        let b = self.base.get(self.i).copied();
        let o = self.overlay.get(self.j).map(|&(u, _)| u);
        // Base and overlay are disjoint, so strict comparison.
        match (b, o) {
            (Some(x), Some(y)) if y < x => {
                self.j += 1;
                Some(y)
            }
            (Some(x), _) => {
                self.i += 1;
                Some(x)
            }
            (None, Some(y)) => {
                self.j += 1;
                Some(y)
            }
            (None, None) => None,
        }
    }
}

/// The topology handle the CONGEST engines deliver over: a settled
/// immutable CSR, or a growable graph queried at the current round.
///
/// `Static` is the pre-existing fast path — `active_neighbors` returns
/// the CSR slice untouched, so settled runs are byte-identical to the
/// pre-growth engines. `Growable` materializes the round-`epoch` view
/// into a caller-owned scratch buffer.
#[derive(Clone, Copy, Debug)]
pub enum TopologyView<'a> {
    /// The full adjacency is known and active from round 0.
    Static(&'a Graph),
    /// Edges activate at their epoch; iteration never sees the future.
    Growable(&'a GrowableGraph),
}

impl<'a> TopologyView<'a> {
    /// Number of vertices.
    #[inline]
    pub fn n(&self) -> usize {
        match self {
            TopologyView::Static(g) => g.n(),
            TopologyView::Growable(gg) => gg.n(),
        }
    }

    /// The bookkeeping CSR (partitioning, buffer sizing). For a
    /// growable view this is its epoch-0 base, never used for delivery.
    #[inline]
    pub fn base(&self) -> &'a Graph {
        match self {
            TopologyView::Static(g) => g,
            TopologyView::Growable(gg) => gg.base(),
        }
    }

    /// Whether this is the settled fast path.
    #[inline]
    pub fn is_static(&self) -> bool {
        matches!(self, TopologyView::Static(_))
    }

    /// The fully grown topology: the settled graph itself, or a
    /// growable graph's [`GrowableGraph::final_graph`].
    pub fn final_graph(&self) -> Cow<'a, Graph> {
        match self {
            TopologyView::Static(g) => Cow::Borrowed(g),
            TopologyView::Growable(gg) => Cow::Owned(gg.final_graph()),
        }
    }

    /// The neighbors `v` may communicate with during round `epoch`,
    /// ascending. `Static` ignores `epoch` and `scratch` and returns
    /// the CSR slice; `Growable` fills `scratch` with the epoch view.
    #[inline]
    pub fn active_neighbors<'s>(
        &self,
        v: NodeId,
        epoch: u32,
        scratch: &'s mut Vec<NodeId>,
    ) -> &'s [NodeId]
    where
        'a: 's,
    {
        match self {
            TopologyView::Static(g) => g.neighbors(v),
            TopologyView::Growable(gg) => {
                gg.neighbors_at_into(v, epoch, scratch);
                scratch.as_slice()
            }
        }
    }
}

impl<'a> From<&'a Graph> for TopologyView<'a> {
    fn from(g: &'a Graph) -> Self {
        TopologyView::Static(g)
    }
}

impl<'a> From<&'a GrowableGraph> for TopologyView<'a> {
    fn from(gg: &'a GrowableGraph) -> Self {
        TopologyView::Growable(gg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect(gg: &GrowableGraph, v: NodeId, epoch: u32) -> Vec<NodeId> {
        gg.neighbors_at(v, epoch).collect()
    }

    #[test]
    fn base_edges_active_from_epoch_zero() {
        let gg = GrowableGraph::from_base(Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]));
        assert_eq!(collect(&gg, 1, 0), vec![0, 2]);
        assert_eq!(gg.edge_epoch(0, 1), Some(0));
    }

    #[test]
    fn overlay_edges_appear_at_their_epoch_sorted() {
        let mut gg = GrowableGraph::from_base(Graph::from_edges(5, [(1, 3)]));
        gg.add_edge(1, 0, 2);
        gg.add_edge(1, 4, 5);
        gg.add_edge(1, 2, 2);
        assert_eq!(collect(&gg, 1, 0), vec![3]);
        assert_eq!(collect(&gg, 1, 1), vec![3]);
        assert_eq!(collect(&gg, 1, 2), vec![0, 2, 3]);
        assert_eq!(collect(&gg, 1, 5), vec![0, 2, 3, 4]);
        assert_eq!(gg.edge_epoch(4, 1), Some(5));
        assert_eq!(gg.edge_epoch(1, 3), Some(0));
        assert_eq!(gg.edge_epoch(0, 4), None);
    }

    #[test]
    fn snapshot_matches_iteration() {
        let mut gg = GrowableGraph::from_base(Graph::from_edges(4, [(0, 1), (2, 3)]));
        gg.add_edge(1, 2, 3);
        let s = gg.snapshot_at(3);
        assert!(s.has_edge(1, 2));
        let s0 = gg.snapshot_at(0);
        assert!(!s0.has_edge(1, 2));
        assert_eq!(gg.final_graph().m(), 3);
    }

    #[test]
    #[should_panic(expected = "duplicate edge")]
    fn rejects_duplicate_of_base_edge() {
        let mut gg = GrowableGraph::from_base(Graph::from_edges(3, [(0, 1)]));
        gg.add_edge(1, 0, 4);
    }

    #[test]
    fn view_static_is_the_slice_path() {
        let g = Graph::from_edges(3, [(0, 1), (1, 2)]);
        let view = TopologyView::Static(&g);
        let mut scratch = vec![99];
        assert_eq!(view.active_neighbors(1, 0, &mut scratch), &[0, 2]);
        assert_eq!(scratch, vec![99], "static path must not touch scratch");
        assert!(view.is_static());
        assert_eq!(view.n(), 3);
    }

    #[test]
    fn view_growable_materializes_the_epoch() {
        let mut gg = GrowableGraph::from_base(Graph::from_edges(3, [(0, 1)]));
        gg.add_edge(1, 2, 2);
        let view = TopologyView::Growable(&gg);
        let mut scratch = Vec::new();
        assert_eq!(view.active_neighbors(1, 1, &mut scratch), &[0]);
        assert_eq!(view.active_neighbors(1, 2, &mut scratch), &[0, 2]);
        assert!(!view.is_static());
    }
}

#[cfg(test)]
mod properties {
    use super::*;
    use proptest::prelude::*;

    /// A random growth history: base edges at epoch 0 plus overlay
    /// edges with epochs in `1..=max_epoch`, all on `n` vertices.
    #[allow(clippy::type_complexity)]
    fn history(
        n: usize,
        seed: u64,
        base_frac: u64,
        max_epoch: u32,
    ) -> (Vec<(NodeId, NodeId)>, Vec<(NodeId, NodeId, u32)>) {
        // SplitMix-style deterministic expansion keeps the strategy
        // shrinkable through plain integer inputs.
        let mut s = seed | 1;
        let mut next = move || {
            s = s.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(0xb5);
            s >> 11
        };
        let mut base = Vec::new();
        let mut grown = Vec::new();
        for u in 0..n {
            for v in (u + 1)..n {
                match next() % 10 {
                    x if x < base_frac => base.push((u, v)),
                    x if x < base_frac + 3 => {
                        grown.push((u, v, 1 + (next() % max_epoch as u64) as u32))
                    }
                    _ => {}
                }
            }
        }
        (base, grown)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Tentpole oracle: neighbor iteration at every epoch equals a
        /// from-scratch CSR rebuild of the edges active at that epoch.
        fn iteration_matches_scratch_csr_at_every_epoch(
            n in 2usize..20,
            seed in 0u64..u64::MAX,
            base_frac in 1u64..6,
            max_epoch in 1u32..8,
        ) {
            let (base, grown) = history(n, seed, base_frac, max_epoch);
            let mut gg = GrowableGraph::from_base(Graph::from_edges(n, base.clone()));
            for &(u, v, e) in &grown {
                gg.add_edge(u, v, e);
            }
            for epoch in 0..=max_epoch {
                let oracle = Graph::from_edges(
                    n,
                    base.iter().copied().chain(
                        grown
                            .iter()
                            .filter(|&&(_, _, e)| e <= epoch)
                            .map(|&(u, v, _)| (u, v)),
                    ),
                );
                for v in 0..n {
                    prop_assert_eq!(
                        gg.neighbors_at(v, epoch).collect::<Vec<_>>(),
                        oracle.neighbors(v).to_vec(),
                        "vertex {} at epoch {}", v, epoch
                    );
                }
                prop_assert_eq!(gg.snapshot_at(epoch), oracle);
            }
        }
    }
}
