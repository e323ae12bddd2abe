//! Incremental per-class connectivity — the bookkeeping core of the
//! CDS-packing layer loop (Appendix C).
//!
//! As virtual nodes [`join`](ClassState::join) their classes, the state
//! maintains, *incrementally* and without any per-layer rescans:
//!
//! * a disjoint-set forest over the `(real node, class)` *bundles* — all
//!   virtual nodes of one real node in one class are mutually adjacent,
//!   so one slot per bundle carries the full component structure of every
//!   class's virtual subgraph while keeping the forest `Θ(log n)`× smaller
//!   than one over the virtual nodes;
//! * the sorted list of classes present on each real node (the projection
//!   `Ψ` read off directly);
//! * the running component count `N_i` per class and the running total
//!   excess `M = Σ_i max(0, N_i − 1)` that the Fast-Merger analysis
//!   (Lemma 4.4) tracks per layer.
//!
//! Because every class-`i` virtual node on a real node is merged with its
//! same-real and adjacent-real class-`i` peers at join time, the sets of
//! the forest correspond **exactly** to the connected components of the
//! projected real subgraph `G[Ψ(i)]`: `N_i` is that component count, and
//! `N_i == 1` certifies the projection connected with no traversal.
//!
//! The state is also *deletion-aware*: when a vertex fails (the fault &
//! churn suite), [`delete_vertex`](ClassState::delete_vertex) repairs
//! exactly the classes the dead node belonged to — each touched class's
//! union-find stride is dissolved and re-unioned over the live
//! member–member edges — instead of rerunning the full layer loop. The
//! mutators read the survivors as a view, the final graph `g` plus an
//! edge filter `keep(u, v)` (the churn paths pass
//! `FaultState::deliverable`), tested after the occupancy check and
//! before any union or find: the forest is the filtered subgraph's.
//!
//! The centralized layer loop ([`crate::cds::centralized`]) builds the
//! jump start's state in bulk ([`from_bundles`](ClassState::from_bundles),
//! one union sweep per class stride), joins each recursive layer's nodes,
//! and reads components through [`comp_root`](ClassState::comp_root)
//! (behind a per-layer memo of its own, since roots are stable between
//! joins); the tree extraction ([`crate::cds::tree_extract`]) uses `N_i`
//! as its connectivity certificate; the connector analysis
//! ([`crate::cds::connector`]) builds its
//! [`ProjectionView`](crate::cds::connector::ProjectionView)s from
//! [`comp_of`](ClassState::comp_of); and the distributed port's
//! flood-computed component tables are cross-checked against a replayed
//! `ClassState` in the integration suites.

use crate::virtual_graph::{VirtualId, VirtualLayout};
use decomp_graph::unionfind::UnionFind;
use decomp_graph::{Graph, NodeId};
use std::collections::HashMap;

/// Opaque identifier of one current component of one class.
///
/// Stable between two [`ClassState::join`] calls; only meaningful under
/// equality (two queries return the same `CompId` iff they reached the
/// same component).
pub type CompId = usize;

/// Incrementally-maintained component structure of every class's virtual
/// subgraph (and, equivalently, of every class's projected real subgraph).
///
/// # Example
///
/// ```
/// use decomp_core::cds::class_state::ClassState;
/// use decomp_core::virtual_graph::{VirtualLayout, VType};
/// use decomp_graph::generators;
///
/// let g = generators::path(3); // 0 - 1 - 2
/// let layout = VirtualLayout::new(3, 4);
/// let mut st = ClassState::new(layout, 2);
///
/// // Nodes 0 and 2 join class 0: two components, excess 1.
/// st.join(&g, layout.vid(0, 0, VType::T1), 0);
/// st.join(&g, layout.vid(2, 0, VType::T1), 0);
/// assert_eq!(st.component_count(0), 2);
/// assert_eq!(st.excess(), 1);
///
/// // Node 1 joins class 0 and bridges them.
/// st.join(&g, layout.vid(1, 0, VType::T2), 0);
/// assert_eq!(st.component_count(0), 1);
/// assert_eq!(st.excess(), 0);
/// ```
#[derive(Clone, Debug)]
pub struct ClassState {
    layout: VirtualLayout,
    t: usize,
    /// Disjoint-set forest over the `n · t` *bundle slots*
    /// (`slot = class * n + real`, **class-major**), not over the `3Ln`
    /// virtual nodes: all virtual nodes of one bundle are mutually
    /// adjacent and always merged, so the slot partition carries exactly
    /// the same component structure while the working set stays
    /// `Θ(log n)`× smaller (it is what keeps the layer loop
    /// cache-resident at `n = 10⁵`). Class-major order makes every
    /// class's stride one contiguous range — unions never leave it, so
    /// `comp_of` / `rebuild_class` become linear scans, and the layer
    /// loop's scratch tables share this slot index.
    uf: UnionFind,
    /// Whether the `(real, class)` bundle has any member yet.
    occupied: Vec<bool>,
    /// Sorted classes with at least one member on each real node.
    classes_at: Vec<Vec<u32>>,
    /// `N_i`: running component count per class.
    comp_count: Vec<usize>,
    /// Running `Σ_i max(0, N_i − 1)`.
    excess: usize,
}

impl ClassState {
    /// Empty state for `t` classes over `layout`'s virtual nodes.
    ///
    /// # Panics
    /// Panics if `t == 0`.
    pub fn new(layout: VirtualLayout, t: usize) -> Self {
        assert!(t >= 1, "need at least one class");
        ClassState {
            layout,
            t,
            uf: UnionFind::new(layout.n() * t),
            occupied: vec![false; layout.n() * t],
            classes_at: vec![Vec::new(); layout.n()],
            comp_count: vec![0; t],
            excess: 0,
        }
    }

    /// State of a membership given in bulk: `occupied[class * n + real]`
    /// marks each `(real, class)` bundle with at least one member
    /// (class-major, like the forest). One ascending sweep per class
    /// stride unions every occupied bundle with its occupied lower-id
    /// neighbours, and one real-major pass fills the sorted per-node
    /// class lists. The result has the partition, counts, excess,
    /// `classes_at` and densified [`comp_of`](Self::comp_of) labels of a
    /// [`join`](Self::join) per member in any order; raw [`CompId`]s may
    /// differ, as they are opaque. The CDS layer loop's jump start builds
    /// its state this way, since nothing reads a component before the
    /// recursive layers.
    ///
    /// # Panics
    /// Panics if `t == 0` or `occupied.len() != layout.n() * t`.
    pub fn from_bundles(g: &Graph, layout: VirtualLayout, t: usize, occupied: Vec<bool>) -> Self {
        let n = layout.n();
        assert_eq!(occupied.len(), n * t, "one occupancy flag per bundle");
        let mut st = ClassState::new(layout, t);
        st.occupied = occupied;
        for class in 0..t {
            st.sweep_class(g, |_, _| true, class);
        }
        for (real, at) in st.classes_at.iter_mut().enumerate() {
            at.extend((0..t as u32).filter(|&c| st.occupied[c as usize * n + real]));
        }
        st
    }

    /// The layout this state indexes into.
    pub fn layout(&self) -> VirtualLayout {
        self.layout
    }

    /// Number of classes `t`.
    pub fn num_classes(&self) -> usize {
        self.t
    }

    /// Forest slot of the `(real, class)` bundle — class-major, so one
    /// class's slots are the contiguous range `class·n .. (class+1)·n`.
    #[inline]
    fn slot(&self, real: NodeId, class: usize) -> usize {
        class * self.layout.n() + real
    }

    fn bump(&mut self, class: usize) {
        self.comp_count[class] += 1;
        if self.comp_count[class] >= 2 {
            self.excess += 1;
        }
    }

    fn drop_one(&mut self, class: usize) {
        if self.comp_count[class] >= 2 {
            self.excess -= 1;
        }
        self.comp_count[class] -= 1;
    }

    /// Adds virtual node `vid` to `class`, merging it with every
    /// already-joined class member on the same real node and on adjacent
    /// real nodes. `N_i` and the excess update incrementally.
    ///
    /// Invariant: two adjacent occupied bundles of one class are always in
    /// the same set (each bundle unions with all occupied neighbors the
    /// moment it appears), so a join into an existing bundle is O(1) —
    /// the new virtual node melts into a component that already spans
    /// every reachable neighbor.
    pub fn join(&mut self, g: &Graph, vid: VirtualId, class: usize) {
        let r = self.layout.real(vid);
        self.join_real(g, |_, _| true, r, class);
    }

    /// [`join`](Self::join) addressed by real node id, over the edges
    /// `keep` passes — the arrival path ([`insert_vertex`](Self::insert_vertex))
    /// re-admits a vertex's bundles without synthesizing virtual ids.
    fn join_real(
        &mut self,
        g: &Graph,
        keep: impl Fn(NodeId, NodeId) -> bool,
        r: NodeId,
        class: usize,
    ) -> bool {
        let slot = self.slot(r, class);
        if self.occupied[slot] {
            return false;
        }
        self.occupied[slot] = true;
        self.bump(class);
        if let Err(pos) = self.classes_at[r].binary_search(&(class as u32)) {
            self.classes_at[r].insert(pos, class as u32);
        }
        for &u in g.neighbors(r) {
            // `g` may be a *final* topology larger than the current
            // layout (mid-growth arrivals); neighbors beyond it have no
            // bundles yet and merge when they are inserted themselves.
            if u >= self.layout.n() {
                continue;
            }
            let uslot = self.slot(u, class);
            if self.occupied[uslot] && keep(r, u) && self.uf.union(slot, uslot) {
                self.drop_one(class);
            }
        }
        true
    }

    /// The running total excess `M = Σ_i max(0, N_i − 1)` — O(1).
    pub fn excess(&self) -> usize {
        self.excess
    }

    /// `N_i`: current number of components of class `class` — O(1).
    pub fn component_count(&self, class: usize) -> usize {
        self.comp_count[class]
    }

    /// Sorted classes with at least one member projected onto `real`.
    pub fn classes_at(&self, real: NodeId) -> &[u32] {
        &self.classes_at[real]
    }

    /// Component of the `(real, class)` bundle, if the class has a member
    /// on `real`.
    pub fn comp_root(&mut self, real: NodeId, class: usize) -> Option<CompId> {
        let slot = self.slot(real, class);
        if self.occupied[slot] {
            Some(self.uf.find(slot))
        } else {
            None
        }
    }

    /// Projected component labels of `class`: `comp_of[v] = Some(label)`
    /// for class members, with labels densified to `0..component_count`
    /// in order of first appearance (ascending real id). The format
    /// [`crate::cds::connector::ProjectionView::new`] consumes.
    #[allow(clippy::needless_range_loop)] // v indexes both the slot table and `out`
    pub fn comp_of(&mut self, class: usize) -> Vec<Option<usize>> {
        let n = self.layout.n();
        let mut label_of: HashMap<CompId, usize> = HashMap::new();
        let mut out = vec![None; n];
        for v in 0..n {
            let slot = class * n + v;
            if !self.occupied[slot] {
                continue;
            }
            let root = self.uf.find(slot);
            let next = label_of.len();
            out[v] = Some(*label_of.entry(root).or_insert(next));
        }
        debug_assert_eq!(label_of.len(), self.comp_count[class]);
        out
    }

    /// Deletion-aware repacking: removes real node `dead` from every class
    /// it belongs to and repairs the component structure of exactly those
    /// classes, leaving every untouched class's forest intact. Returns the
    /// sorted touched classes (so a caller can re-verify or re-extract
    /// only those). The live graph is `g`'s edges that pass `keep`, which
    /// must already reject any accompanying edge deletions.
    ///
    /// Union-find cannot split, so each touched class's stride is
    /// dissolved ([`UnionFind::reset_block`]) and re-unioned directly over
    /// the live member–member edges: one pass over the stride and the
    /// members' adjacency, no full layer-loop rerun. The partition is
    /// that of a from-scratch rebuild — the same counts, excess and
    /// densified `comp_of` labels (the property suite cross-checks all
    /// three); raw [`CompId`]s may differ, as they are opaque.
    pub fn delete_vertex(
        &mut self,
        g: &Graph,
        keep: impl Fn(NodeId, NodeId) -> bool,
        dead: NodeId,
    ) -> Vec<u32> {
        let touched = std::mem::take(&mut self.classes_at[dead]);
        for &class in &touched {
            let class = class as usize;
            let slot = self.slot(dead, class);
            self.occupied[slot] = false;
            self.rebuild_class(g, &keep, class);
        }
        touched
    }

    /// Edge-deletion counterpart of [`delete_vertex`](Self::delete_vertex):
    /// repairs every class with a member on *both* endpoints (the only
    /// classes whose projection can lose the edge). `keep` must reject
    /// the deleted edge. Returns the sorted touched classes.
    pub fn delete_edge(
        &mut self,
        g: &Graph,
        keep: impl Fn(NodeId, NodeId) -> bool,
        u: NodeId,
        v: NodeId,
    ) -> Vec<u32> {
        let touched = self.shared_classes(u, v);
        for &class in &touched {
            self.rebuild_class(g, &keep, class as usize);
        }
        touched
    }

    /// Arrival-aware repacking — the inverse of
    /// [`delete_vertex`](Self::delete_vertex): admits real node `v` into
    /// `classes`, merging each of its bundles with the already-present
    /// members on adjacent nodes. Insertion only ever *merges*
    /// components, so no stride is dissolved and no certificate is
    /// recomputed — each class is O(deg(v) · α). If `v` lies beyond the
    /// current layout, the state [`grow`](Self::grow)s first. `keep` must
    /// pass `v`'s live edges. Returns the sorted classes actually entered
    /// (already-occupied bundles are skipped), and is bit-identical to a
    /// from-scratch repack over the same final membership (the property
    /// suite cross-checks `comp_of` labels).
    pub fn insert_vertex(
        &mut self,
        g: &Graph,
        keep: impl Fn(NodeId, NodeId) -> bool,
        v: NodeId,
        classes: &[u32],
    ) -> Vec<u32> {
        if v >= self.layout.n() {
            self.grow(v + 1);
        }
        let mut touched: Vec<u32> = classes
            .iter()
            .copied()
            .filter(|&c| self.join_real(g, &keep, v, c as usize))
            .collect();
        touched.sort_unstable();
        touched.dedup();
        touched
    }

    /// Incremental class *admission* — assigns a class-free newcomer `v`
    /// to a class using only the maintained aggregates, then
    /// [`insert_vertex`](Self::insert_vertex)s it there. Returns the
    /// classes entered (empty when no class can absorb the newcomer —
    /// the caller's flood-fallback signal).
    ///
    /// The rule: for each class `c`, let `d_c` be the number of
    /// *distinct components* of `c` among `v`'s neighbors across edges
    /// that pass `keep` (distinct union-find roots of occupied neighbor
    /// bundles). Any class with `d_c ≥ 1` can admit `v` without
    /// increasing the excess `M` — the newcomer melts into an existing
    /// component. Joining merges those `d_c` components into one,
    /// reducing `N_c` by `d_c − 1`, so the greedy pick is the argmax of
    /// `d_c`, ties broken to the lowest class id (deterministic across
    /// engines by construction: the rule reads only the class partition,
    /// never engine state).
    ///
    /// Because admission delegates to `insert_vertex`, the post-admit
    /// state is bit-identical to a from-scratch repack over the same
    /// final membership (the property suite cross-checks `comp_of`
    /// labels against a fresh replay).
    pub fn admit_vertex(
        &mut self,
        g: &Graph,
        keep: impl Fn(NodeId, NodeId) -> bool,
        v: NodeId,
    ) -> Vec<u32> {
        let n = self.layout.n();
        // (d_c, class); iterate classes ascending and replace only on a
        // strictly larger d_c, so ties resolve to the lowest id.
        let mut best: Option<(usize, usize)> = None;
        for class in 0..self.t {
            let mut roots: Vec<usize> = Vec::new();
            for &u in g.neighbors(v) {
                if u >= n {
                    continue;
                }
                let uslot = self.slot(u, class);
                if !self.occupied[uslot] || !keep(v, u) {
                    continue;
                }
                let root = self.uf.find(uslot);
                if !roots.contains(&root) {
                    roots.push(root);
                }
            }
            if roots.is_empty() {
                continue;
            }
            if best.is_none_or(|(d, _)| roots.len() > d) {
                best = Some((roots.len(), class));
            }
        }
        match best {
            None => Vec::new(),
            Some((_, class)) => self.insert_vertex(g, keep, v, &[class as u32]),
        }
    }

    /// Edge-arrival counterpart of [`delete_edge`](Self::delete_edge):
    /// a new live edge `{u, v}` can only merge components, so every
    /// class with a member bundle on *both* endpoints unions the two —
    /// O(1) per shared class, no rebuild. Returns the sorted touched
    /// classes (those present on both endpoints).
    pub fn insert_edge(&mut self, u: NodeId, v: NodeId) -> Vec<u32> {
        let touched = self.shared_classes(u, v);
        for &class in &touched {
            let class = class as usize;
            let (su, sv) = (self.slot(u, class), self.slot(v, class));
            if self.uf.union(su, sv) {
                self.drop_one(class);
            }
        }
        touched
    }

    /// Grows the layout to `new_n` real nodes (same layer count),
    /// carrying every class's component structure over to the re-strided
    /// forest. Slots are class-major (`class · n + real`), so a larger
    /// `n` re-addresses *every* bundle: a fresh forest is built and each
    /// class's partition is re-unioned from the old one (member →
    /// first member of its old component, ascending real id). Component
    /// counts, excess, per-node class lists, and the densified
    /// [`comp_of`](Self::comp_of) labels are all preserved exactly;
    /// raw [`CompId`]s are not (a grow is a mutation, and roots are only
    /// stable between mutations).
    pub fn grow(&mut self, new_n: usize) {
        let old_n = self.layout.n();
        assert!(new_n >= old_n, "grow cannot shrink the layout");
        if new_n == old_n {
            return;
        }
        let new_layout = VirtualLayout::new(new_n, self.layout.layers());
        let mut uf = UnionFind::new(new_n * self.t);
        let mut occupied = vec![false; new_n * self.t];
        for class in 0..self.t {
            // Old root → representative (first member seen, ascending v).
            let mut rep_of: HashMap<usize, NodeId> = HashMap::new();
            for v in 0..old_n {
                if !self.occupied[class * old_n + v] {
                    continue;
                }
                occupied[class * new_n + v] = true;
                let root = self.uf.find(class * old_n + v);
                match rep_of.entry(root) {
                    std::collections::hash_map::Entry::Occupied(rep) => {
                        uf.union(class * new_n + rep.get(), class * new_n + v);
                    }
                    std::collections::hash_map::Entry::Vacant(slot) => {
                        slot.insert(v);
                    }
                }
            }
        }
        self.layout = new_layout;
        self.uf = uf;
        self.occupied = occupied;
        self.classes_at.resize(new_n, Vec::new());
        // comp_count / excess are partition properties — unchanged.
    }

    /// Sorted classes with a member bundle on both `u` and `v`.
    fn shared_classes(&self, u: NodeId, v: NodeId) -> Vec<u32> {
        let (at_u, at_v) = (self.classes_at[u].iter(), &self.classes_at[v]);
        at_u.filter(|c| at_v.binary_search(c).is_ok())
            .copied()
            .collect()
    }

    /// Dissolves one class's union-find stride and re-unions its surviving
    /// members ([`sweep_class`](Self::sweep_class)).
    fn rebuild_class(&mut self, g: &Graph, keep: impl Fn(NodeId, NodeId) -> bool, class: usize) {
        let n = self.layout.n();
        self.uf.reset_block(class * n..(class + 1) * n);
        self.sweep_class(g, keep, class);
    }

    /// Unions the occupied bundles of one class's all-singleton stride
    /// over every member–member edge of `g` that passes `keep` (each once,
    /// from its higher end) in one ascending sweep, fixing `comp_count`
    /// and the running excess.
    fn sweep_class(&mut self, g: &Graph, keep: impl Fn(NodeId, NodeId) -> bool, class: usize) {
        let n = self.layout.n();
        self.excess -= self.comp_count[class].saturating_sub(1);
        let mut count = 0;
        for v in 0..n {
            let slot = class * n + v;
            if !self.occupied[slot] {
                continue;
            }
            count += 1;
            // `u < v < n`: neighbours beyond the layout have no bundle.
            for &u in g.neighbors(v) {
                let live = u < v && self.occupied[class * n + u] && keep(v, u);
                if live && self.uf.union(slot, class * n + u) {
                    count -= 1;
                }
            }
        }
        self.comp_count[class] = count;
        self.excess += count.saturating_sub(1);
    }

    /// From-scratch recomputation of `(component counts, excess)` by a
    /// full union-find rebuild over the current members — the oracle the
    /// property suite compares the incremental counters against.
    #[allow(clippy::needless_range_loop)] // class indexes the slot table and `counts`
    pub fn recompute_from_scratch(&self, g: &Graph) -> (Vec<usize>, usize) {
        let n = self.layout.n();
        let mut counts = vec![0usize; self.t];
        for class in 0..self.t {
            let mut uf = UnionFind::new(n);
            let mut members = 0usize;
            let member = |st: &ClassState, v: usize| v < n && st.occupied[st.slot(v, class)];
            for v in 0..n {
                if !member(self, v) {
                    continue;
                }
                members += 1;
                for &u in g.neighbors(v) {
                    if member(self, u) {
                        uf.union(v, u);
                    }
                }
            }
            counts[class] = if members == 0 {
                0
            } else {
                (0..n)
                    .filter(|&v| member(self, v) && uf.find(v) == v)
                    .count()
            };
        }
        let excess = counts.iter().map(|&c| c.saturating_sub(1)).sum();
        (counts, excess)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::virtual_graph::VType;
    use decomp_graph::generators;

    /// The unfiltered view: every edge of `g` is live.
    fn all(_: NodeId, _: NodeId) -> bool {
        true
    }

    #[test]
    fn join_merges_same_real_bundle() {
        let g = generators::path(2);
        let layout = VirtualLayout::new(2, 4);
        let mut st = ClassState::new(layout, 1);
        st.join(&g, layout.vid(0, 0, VType::T1), 0);
        st.join(&g, layout.vid(0, 0, VType::T2), 0);
        assert_eq!(st.component_count(0), 1);
        assert_eq!(st.excess(), 0);
        let a = st.comp_root(0, 0).unwrap();
        assert_eq!(st.comp_root(0, 0), Some(a));
        assert_eq!(st.comp_root(1, 0), None);
    }

    #[test]
    fn disjoint_classes_do_not_interact() {
        let g = generators::path(2);
        let layout = VirtualLayout::new(2, 4);
        let mut st = ClassState::new(layout, 2);
        st.join(&g, layout.vid(0, 0, VType::T1), 0);
        st.join(&g, layout.vid(1, 0, VType::T1), 1);
        assert_eq!(st.component_count(0), 1);
        assert_eq!(st.component_count(1), 1);
        assert_eq!(st.excess(), 0);
        assert_eq!(st.classes_at(0), &[0]);
        assert_eq!(st.classes_at(1), &[1]);
    }

    #[test]
    fn excess_tracks_fragmentation_and_bridging() {
        let g = generators::path(5);
        let layout = VirtualLayout::new(5, 4);
        let mut st = ClassState::new(layout, 1);
        for v in [0usize, 2, 4] {
            st.join(&g, layout.vid(v, 0, VType::T1), 0);
        }
        assert_eq!(st.component_count(0), 3);
        assert_eq!(st.excess(), 2);
        st.join(&g, layout.vid(1, 0, VType::T1), 0); // bridges 0 and 2
        assert_eq!(st.component_count(0), 2);
        assert_eq!(st.excess(), 1);
        st.join(&g, layout.vid(3, 0, VType::T1), 0); // bridges 2 and 4
        assert_eq!(st.component_count(0), 1);
        assert_eq!(st.excess(), 0);
    }

    #[test]
    fn comp_of_labels_match_component_count() {
        let g = generators::path(5);
        let layout = VirtualLayout::new(5, 4);
        let mut st = ClassState::new(layout, 1);
        for v in [0usize, 1, 3] {
            st.join(&g, layout.vid(v, 0, VType::T1), 0);
        }
        let comp = st.comp_of(0);
        assert_eq!(comp[0], Some(0));
        assert_eq!(comp[1], Some(0));
        assert_eq!(comp[2], None);
        assert_eq!(comp[3], Some(1));
        assert_eq!(comp[4], None);
    }

    #[test]
    fn incremental_equals_scratch_on_a_grid() {
        let g = generators::grid(4, 5);
        let layout = VirtualLayout::new(20, 4);
        let mut st = ClassState::new(layout, 3);
        // Joins in an arbitrary interleaved order.
        for (i, v) in [7usize, 0, 13, 19, 2, 11, 5, 16, 9, 4].iter().enumerate() {
            st.join(&g, layout.vid(*v, 0, VType::ALL[i % 3]), i % 3);
            let (counts, excess) = st.recompute_from_scratch(&g);
            for (c, &want) in counts.iter().enumerate() {
                assert_eq!(st.component_count(c), want, "class {c} after join {i}");
            }
            assert_eq!(st.excess(), excess, "excess after join {i}");
        }
    }

    #[test]
    fn delete_vertex_splits_a_bridged_component() {
        let g = generators::path(3); // 0 - 1 - 2, all in class 0
        let layout = VirtualLayout::new(3, 4);
        let mut st = ClassState::new(layout, 1);
        for v in 0..3 {
            st.join(&g, layout.vid(v, 0, VType::T1), 0);
        }
        assert_eq!(st.component_count(0), 1);
        let touched = st.delete_vertex(&g, all, 1);
        assert_eq!(touched, vec![0]);
        assert_eq!(st.component_count(0), 2, "losing the bridge splits 0 and 2");
        assert_eq!(st.excess(), 1);
        assert_eq!(st.classes_at(1), &[] as &[u32]);
        assert_eq!(st.comp_root(1, 0), None);
        assert_ne!(st.comp_root(0, 0), st.comp_root(2, 0));
    }

    #[test]
    fn delete_vertex_touches_only_its_classes() {
        let g = generators::complete(4);
        let layout = VirtualLayout::new(4, 4);
        let mut st = ClassState::new(layout, 3);
        for v in 0..4 {
            st.join(&g, layout.vid(v, 0, VType::T1), v % 2);
        }
        st.join(&g, layout.vid(3, 0, VType::T2), 2);
        // Node 3 sits in classes 1 and 2; class 0 must keep its forest.
        let root0 = st.comp_root(0, 0);
        let touched = st.delete_vertex(&g, all, 3);
        assert_eq!(touched, vec![1, 2]);
        assert_eq!(st.comp_root(0, 0), root0, "untouched class keeps its roots");
        assert_eq!(st.component_count(2), 0, "class 2 lost its only member");
        let (counts, excess) = st.recompute_from_scratch(&g);
        assert_eq!(
            (0..3).map(|c| st.component_count(c)).collect::<Vec<_>>(),
            counts
        );
        assert_eq!(st.excess(), excess);
    }

    #[test]
    fn delete_edge_repairs_shared_classes_only() {
        // Square 0 - 1 - 2 - 3 - 0, everyone in class 0; node 0 also in 1.
        let square = |edges: &[(usize, usize)]| Graph::from_edges(4, edges.to_vec());
        let g = square(&[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let layout = VirtualLayout::new(4, 4);
        let mut st = ClassState::new(layout, 2);
        for v in 0..4 {
            st.join(&g, layout.vid(v, 0, VType::T1), 0);
        }
        st.join(&g, layout.vid(0, 0, VType::T2), 1);
        // Cutting one cycle edge keeps the class connected...
        let g1 = square(&[(1, 2), (2, 3), (3, 0)]);
        assert_eq!(st.delete_edge(&g1, all, 0, 1), vec![0]);
        assert_eq!(st.component_count(0), 1);
        // ...cutting a second splits it; class 1 (no member on 2 or 3)
        // is never touched.
        let g2 = square(&[(1, 2), (3, 0)]);
        assert_eq!(st.delete_edge(&g2, all, 2, 3), vec![0]);
        assert_eq!(st.component_count(0), 2);
        assert_eq!(st.excess(), 1);
        let (counts, excess) = st.recompute_from_scratch(&g2);
        assert_eq!(counts[0], 2);
        assert_eq!(st.excess(), excess);
        assert_eq!(st.component_count(1), counts[1]);
    }

    #[test]
    fn churn_matches_scratch_and_fresh_replay() {
        // Random-ish joins on a grid, then a deletion sequence; after every
        // deletion the incremental state must match (a) the from-scratch
        // oracle on counts and excess and (b) a freshly replayed state on
        // the exact `comp_of` labels — bit-for-bit repack equivalence.
        let g = generators::grid(4, 5);
        let layout = VirtualLayout::new(20, 4);
        let joins: Vec<(usize, usize)> = (0..20).map(|i| (i * 7 % 20, i % 3)).collect();
        let mut st = ClassState::new(layout, 3);
        for &(v, c) in &joins {
            st.join(&g, layout.vid(v, 0, VType::ALL[c]), c);
        }
        let mut deleted: Vec<usize> = Vec::new();
        for dead in [13usize, 0, 7, 19, 4] {
            st.delete_vertex(&g, all, dead);
            deleted.push(dead);
            let (counts, excess) = st.recompute_from_scratch(&g);
            for (c, &want) in counts.iter().enumerate() {
                assert_eq!(st.component_count(c), want, "class {c} after {deleted:?}");
            }
            assert_eq!(st.excess(), excess, "excess after {deleted:?}");
            let mut fresh = ClassState::new(layout, 3);
            for &(v, c) in joins.iter().filter(|(v, _)| !deleted.contains(v)) {
                fresh.join(&g, layout.vid(v, 0, VType::ALL[c]), c);
            }
            for c in 0..3 {
                assert_eq!(st.comp_of(c), fresh.comp_of(c), "labels after {deleted:?}");
            }
            for v in 0..20 {
                assert_eq!(st.classes_at(v), fresh.classes_at(v));
            }
        }
    }

    #[test]
    fn insert_vertex_is_the_inverse_of_delete_vertex() {
        let g = generators::path(3); // 0 - 1 - 2, all in class 0
        let layout = VirtualLayout::new(3, 4);
        let mut st = ClassState::new(layout, 1);
        for v in 0..3 {
            st.join(&g, layout.vid(v, 0, VType::T1), 0);
        }
        st.delete_vertex(&g, all, 1);
        assert_eq!(st.component_count(0), 2);
        // Re-admitting the bridge merges the halves back — and the
        // result is label-identical to a never-deleted fresh state.
        let touched = st.insert_vertex(&g, all, 1, &[0]);
        assert_eq!(touched, vec![0]);
        assert_eq!(st.component_count(0), 1);
        assert_eq!(st.excess(), 0);
        assert_eq!(st.classes_at(1), &[0]);
        let mut fresh = ClassState::new(layout, 1);
        for v in 0..3 {
            fresh.join(&g, layout.vid(v, 0, VType::T1), 0);
        }
        assert_eq!(st.comp_of(0), fresh.comp_of(0));
    }

    #[test]
    fn insert_vertex_skips_already_occupied_bundles() {
        let g = generators::complete(3);
        let layout = VirtualLayout::new(3, 4);
        let mut st = ClassState::new(layout, 2);
        st.join(&g, layout.vid(0, 0, VType::T1), 0);
        let touched = st.insert_vertex(&g, all, 0, &[0, 1]);
        assert_eq!(touched, vec![1], "class 0 was already occupied");
        assert_eq!(st.classes_at(0), &[0, 1]);
    }

    #[test]
    fn insert_edge_merges_shared_classes_only() {
        // Two components of class 0 on a path with the middle edge
        // initially absent from the *projection* logic: just union.
        let g = generators::path(4);
        let layout = VirtualLayout::new(4, 4);
        let mut st = ClassState::new(layout, 2);
        // Class 0 on 0 and 3 (far apart: two components); class 1 on 0.
        st.join(&g, layout.vid(0, 0, VType::T1), 0);
        st.join(&g, layout.vid(3, 0, VType::T1), 0);
        st.join(&g, layout.vid(0, 0, VType::T2), 1);
        assert_eq!(st.component_count(0), 2);
        // A new link {0, 3} merges class 0; class 1 (absent on 3)
        // is untouched.
        assert_eq!(st.insert_edge(0, 3), vec![0]);
        assert_eq!(st.component_count(0), 1);
        assert_eq!(st.excess(), 0);
        assert_eq!(st.component_count(1), 1);
        // Re-inserting the same edge is a no-op (already merged).
        assert_eq!(st.insert_edge(0, 3), vec![0]);
        assert_eq!(st.component_count(0), 1);
    }

    #[test]
    fn grow_preserves_labels_and_supports_new_ids() {
        let g5 = generators::path(5);
        let layout = VirtualLayout::new(3, 4);
        let mut st = ClassState::new(layout, 2);
        // Members 0, 2 in class 0 (two components), 1 in class 1.
        st.join(&g5, layout.vid(0, 0, VType::T1), 0);
        st.join(&g5, layout.vid(2, 0, VType::T1), 0);
        st.join(&g5, layout.vid(1, 0, VType::T1), 1);
        let before: Vec<_> = (0..2).map(|c| st.comp_of(c)).collect();
        st.grow(5);
        assert_eq!(st.layout().n(), 5);
        assert_eq!(st.component_count(0), 2);
        assert_eq!(st.excess(), 1);
        for (c, old) in before.iter().enumerate() {
            let after = st.comp_of(c);
            assert_eq!(&after[..3], &old[..], "labels preserved");
            assert_eq!(&after[3..], &[None, None]);
        }
        // Inserting a vertex beyond the old layout grows implicitly and
        // bridges: 0 - 1 - 2 all in class 0 once 1 and the new 3, 4 join.
        let mut st2 = ClassState::new(VirtualLayout::new(3, 4), 1);
        st2.join(&g5, st2.layout().vid(0, 0, VType::T1), 0);
        st2.join(&g5, st2.layout().vid(2, 0, VType::T1), 0);
        assert_eq!(st2.component_count(0), 2);
        st2.insert_vertex(&g5, all, 3, &[0]); // grows to n = 4, merges with 2
        assert_eq!(st2.layout().n(), 4);
        assert_eq!(st2.component_count(0), 2, "3 melts into 2's component");
        st2.insert_vertex(&g5, all, 1, &[0]); // bridges 0 and {2, 3}
        assert_eq!(st2.component_count(0), 1);
        let (counts, excess) = st2.recompute_from_scratch(&g5);
        assert_eq!(st2.component_count(0), counts[0]);
        assert_eq!(st2.excess(), excess);
    }

    #[test]
    fn arrival_churn_matches_scratch_and_fresh_replay() {
        // Mixed kill/arrive sequence on a grid: after every event the
        // incremental state must match the from-scratch oracle on counts
        // and excess, and a freshly replayed state on the exact labels —
        // the bit-identical arrival-repack contract of ISSUE 9.
        let g = generators::grid(4, 5);
        let layout = VirtualLayout::new(20, 4);
        let joins: Vec<(usize, usize)> = (0..20).map(|i| (i * 7 % 20, i % 3)).collect();
        let mut st = ClassState::new(layout, 3);
        for &(v, c) in &joins {
            st.join(&g, layout.vid(v, 0, VType::ALL[c]), c);
        }
        // Membership ledger: which (v, class) pairs are currently in.
        let mut member: Vec<(usize, usize)> = joins.clone();
        member.sort_unstable();
        member.dedup();
        enum Ev {
            Kill(usize),
            Arrive(usize, Vec<u32>),
        }
        let events = [
            Ev::Kill(13),
            Ev::Kill(0),
            Ev::Arrive(13, vec![1, 2]),
            Ev::Kill(7),
            Ev::Arrive(0, vec![0]),
            Ev::Arrive(7, vec![0, 1]),
            Ev::Kill(13),
        ];
        for (i, ev) in events.iter().enumerate() {
            match ev {
                Ev::Kill(v) => {
                    st.delete_vertex(&g, all, *v);
                    member.retain(|&(m, _)| m != *v);
                }
                Ev::Arrive(v, classes) => {
                    st.insert_vertex(&g, all, *v, classes);
                    for &c in classes {
                        member.push((*v, c as usize));
                    }
                    member.sort_unstable();
                    member.dedup();
                }
            }
            let (counts, excess) = st.recompute_from_scratch(&g);
            for (c, &want) in counts.iter().enumerate() {
                assert_eq!(st.component_count(c), want, "class {c} after event {i}");
            }
            assert_eq!(st.excess(), excess, "excess after event {i}");
            let mut fresh = ClassState::new(layout, 3);
            for &(v, c) in &member {
                fresh.join(&g, layout.vid(v, 0, VType::ALL[c]), c);
            }
            for c in 0..3 {
                assert_eq!(st.comp_of(c), fresh.comp_of(c), "labels after event {i}");
            }
            for v in 0..20 {
                assert_eq!(st.classes_at(v), fresh.classes_at(v), "after event {i}");
            }
        }
    }

    #[test]
    fn admit_vertex_picks_the_class_that_merges_most() {
        let g = generators::path(3); // 0 - 1 - 2
        let layout = VirtualLayout::new(3, 4);
        let mut st = ClassState::new(layout, 2);
        // Class 0 fragmented across both of 1's neighbors (d_0 = 2);
        // class 1 present on one neighbor only (d_1 = 1).
        st.join(&g, layout.vid(0, 0, VType::T1), 0);
        st.join(&g, layout.vid(2, 0, VType::T1), 0);
        st.join(&g, layout.vid(0, 0, VType::T2), 1);
        assert_eq!(st.component_count(0), 2);
        assert_eq!(st.admit_vertex(&g, all, 1), vec![0], "argmax d_c wins");
        assert_eq!(st.component_count(0), 1, "admission merged the halves");
        assert_eq!(st.excess(), 0);
        assert_eq!(st.classes_at(1), &[0]);
    }

    #[test]
    fn admit_vertex_ties_break_to_the_lowest_class() {
        let g = generators::complete(3);
        let layout = VirtualLayout::new(3, 4);
        let mut st = ClassState::new(layout, 3);
        // Classes 1 and 2 each have one component on a neighbor of 0;
        // class 0 is empty. The d_c = 1 tie goes to the lowest present
        // class, never the empty one.
        st.join(&g, layout.vid(1, 0, VType::T1), 1);
        st.join(&g, layout.vid(2, 0, VType::T1), 2);
        assert_eq!(st.admit_vertex(&g, all, 0), vec![1]);
        assert_eq!(st.classes_at(0), &[1]);
    }

    #[test]
    fn admit_vertex_returns_empty_when_no_class_can_absorb() {
        let g = generators::path(4); // 0 - 1 - 2 - 3
        let layout = VirtualLayout::new(4, 4);
        let mut st = ClassState::new(layout, 2);
        // The only member sits on 3 — not adjacent to 0.
        st.join(&g, layout.vid(3, 0, VType::T1), 0);
        let before = st.comp_of(0);
        assert_eq!(st.admit_vertex(&g, all, 0), Vec::<u32>::new());
        assert_eq!(st.classes_at(0), &[] as &[u32], "state untouched");
        assert_eq!(st.comp_of(0), before);
    }

    #[test]
    fn admit_vertex_matches_fresh_replay() {
        // After an admission, the incremental state must be
        // label-identical to a fresh state built over the same final
        // membership — the bit-identity contract growth re-extraction
        // relies on.
        let g = generators::grid(4, 5);
        let layout = VirtualLayout::new(20, 4);
        let joins: Vec<(usize, usize)> = (0..18).map(|i| (i * 7 % 20, i % 3)).collect();
        let mut st = ClassState::new(layout, 3);
        for &(v, c) in &joins {
            st.join(&g, layout.vid(v, 0, VType::ALL[c]), c);
        }
        let unjoined: Vec<usize> = (0..20)
            .filter(|&v| joins.iter().all(|&(j, _)| j != v))
            .collect();
        let mut member: Vec<(usize, usize)> = joins.clone();
        for &v in &unjoined {
            let entered = st.admit_vertex(&g, all, v);
            assert_eq!(
                entered.len(),
                1,
                "grid newcomers always have members nearby"
            );
            member.push((v, entered[0] as usize));
            let (counts, excess) = st.recompute_from_scratch(&g);
            for (c, &want) in counts.iter().enumerate() {
                assert_eq!(st.component_count(c), want, "class {c} after admitting {v}");
            }
            assert_eq!(st.excess(), excess);
            let mut fresh = ClassState::new(layout, 3);
            for &(m, c) in &member {
                fresh.join(&g, layout.vid(m, 0, VType::ALL[c]), c);
            }
            for c in 0..3 {
                assert_eq!(
                    st.comp_of(c),
                    fresh.comp_of(c),
                    "labels after admitting {v}"
                );
            }
        }
    }

    #[test]
    fn comp_root_agrees_across_a_merged_component() {
        let g = generators::complete(4);
        let layout = VirtualLayout::new(4, 4);
        let mut st = ClassState::new(layout, 1);
        for v in 0..3 {
            st.join(&g, layout.vid(v, 0, VType::T1), 0);
        }
        // All three members are one component: every bundle reports the
        // same root, and the unjoined node reports none.
        let root = st.comp_root(0, 0).unwrap();
        assert_eq!(st.comp_root(1, 0), Some(root));
        assert_eq!(st.comp_root(2, 0), Some(root));
        assert_eq!(st.comp_root(3, 0), None);
    }
}
