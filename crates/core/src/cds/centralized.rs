//! Centralized CDS-packing (Theorem 1.2, Appendix C) — `O(m log² n)`.
//!
//! The algorithm of Section 3.1:
//!
//! 1. build the virtual graph (`Θ(log n)` virtual nodes per real node,
//!    organized in `L` layers × 3 types);
//! 2. **jump start** — virtual nodes of layers `0..L/2` join uniformly
//!    random classes among `t = Θ(k)` classes (gives domination w.h.p.,
//!    Lemma 4.1);
//! 3. **recursive class assignment** — for each layer, type-1/3 new nodes
//!    join random classes, the *bridging graph* between old components and
//!    type-2 new nodes is formed (deactivating components already merged by
//!    type-1 connectors), and a maximal matching decides the type-2
//!    assignments (Lemma 4.4 drives the component count down by a constant
//!    factor per layer);
//! 4. project classes to real nodes: each class is a CDS w.h.p., and each
//!    real node lies in at most `3L = O(log n)` classes.
//!
//! Nothing reads a component during the jump start, so its draws only
//! mark `(real, class)` bundles occupied, and
//! [`ClassState::from_bundles`] builds the component forest once, in one
//! union sweep per class stride. From layer `L/2` on, [`ClassState`]
//! maintains the components *incrementally* (one disjoint-set forest
//! updated at join time, with running `N_i` / `M_ℓ` aggregates, exactly
//! as Appendix C prescribes), and the layer loop's bridging-graph
//! bookkeeping — the potential-matches table, the deactivation flags, and
//! the matched-component flags — lives in flat epoch-stamped arrays
//! reused across layers, so a layer costs `O(m t)` array work with no
//! hashing. The matching scan probes only the classes with a live
//! potential-matches entry at each node, at most `deg + 1` of them.
//! Per-layer instrumentation (`M_ℓ`, matches, deactivations) feeds the
//! Fast-Merger experiment (Lemma 4.4 / E11).
//!
//! The layer loop is sequential, as the paper's algorithm is: steps
//! 2a–2b make one ascending sweep over the type-1 picks and one over the
//! type-3 picks, step 3 scans the type-2 nodes in shuffled order, and
//! step 4 merges. No union happens before step 4, so every component
//! root read in a layer body is stable, and one per-layer memo of
//! [`ClassState::comp_root`] serves all three scans.

use crate::cds::class_state::{ClassState, CompId};
use crate::virtual_graph::{default_layers, VType, VirtualLayout};
use decomp_graph::{Graph, NodeId};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Configuration for [`cds_packing`].
#[derive(Clone, Debug)]
pub struct CdsPackingConfig {
    /// Number of classes `t = Θ(k)`. `with_known_k` derives it from the
    /// connectivity estimate.
    pub num_classes: usize,
    /// Layer-count multiplier: `L = layers_factor · ⌈log₂ n⌉` (even, ≥ 4).
    pub layers_factor: f64,
    /// RNG seed (experiments are reproducible per seed).
    pub seed: u64,
}

/// Default ratio `t / k`. The Fast-Merger analysis (Lemma 4.5) needs
/// `t` a sufficiently small constant fraction of `k` so that
/// `E[Z] = k′/(4t) > 1`; one quarter works well across our benchmarks.
pub const DEFAULT_CLASSES_PER_K: f64 = 0.25;

/// Default `layers_factor`.
pub const DEFAULT_LAYERS_FACTOR: f64 = 3.0;

impl CdsPackingConfig {
    /// Configuration from a known (or 2-approximated) vertex connectivity.
    ///
    /// Sets `t = max(1, ⌊k/4⌋)` classes.
    pub fn with_known_k(k: usize, seed: u64) -> Self {
        let t = ((k as f64 * DEFAULT_CLASSES_PER_K).floor() as usize).max(1);
        CdsPackingConfig {
            num_classes: t,
            layers_factor: DEFAULT_LAYERS_FACTOR,
            seed,
        }
    }

    /// Configuration with an explicit class count `t`.
    pub fn with_classes(t: usize, seed: u64) -> Self {
        assert!(t >= 1, "need at least one class");
        CdsPackingConfig {
            num_classes: t,
            layers_factor: DEFAULT_LAYERS_FACTOR,
            seed,
        }
    }

    /// Ignores its argument and returns the configuration unchanged;
    /// the layer loop is sequential.
    #[doc(hidden)]
    pub fn with_workers(self, _workers: usize) -> Self {
        self
    }
}

/// Per-layer instrumentation of the recursive class assignment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LayerTrace {
    /// The layer whose nodes were being assigned.
    pub layer: usize,
    /// `M_ℓ`: total excess components (Σ_i max(0, N_i − 1)) before this
    /// layer's assignments were merged in.
    pub excess_before: usize,
    /// `M_{ℓ+1}` after merging in this layer.
    pub excess_after: usize,
    /// Type-2 new nodes matched through the bridging graph.
    pub matched: usize,
    /// Components deactivated by type-1 connectors.
    pub deactivated: usize,
}

/// The result of the CDS-packing construction.
#[derive(Clone, Debug)]
pub struct CdsPacking {
    /// Virtual-graph layout used.
    pub layout: VirtualLayout,
    /// Number of classes `t`.
    pub num_classes: usize,
    /// Class of each virtual node.
    pub class_of: Vec<Option<u32>>,
    /// Projected real vertex set of each class (sorted).
    pub classes: Vec<Vec<NodeId>>,
    /// Per-layer merge statistics (recursive layers only).
    pub trace: Vec<LayerTrace>,
}

impl CdsPacking {
    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Maximum number of classes any real node belongs to
    /// (the `O(log n)` bound of Theorem 1.2).
    pub fn max_real_multiplicity(&self) -> usize {
        let n = self.layout.n();
        let mut count = vec![0usize; n];
        for class in &self.classes {
            for &v in class {
                count[v] += 1;
            }
        }
        count.into_iter().max().unwrap_or(0)
    }

    /// Membership mask for one class.
    pub fn class_mask(&self, class: usize) -> Vec<bool> {
        let mut mask = vec![false; self.layout.n()];
        for &v in &self.classes[class] {
            mask[v] = true;
        }
        mask
    }
}

/// The potential-matches entry per `(type-2 node, class)` (Appendix C):
/// either exactly one suitable component id, or "connector" (≥ 2 distinct).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum PotentialMatches {
    One(CompId),
    Many,
}

impl PotentialMatches {
    /// The entry one reporter's distinct adjacent roots (non-empty) give.
    fn of(roots: &[CompId]) -> Self {
        match roots {
            [root] => PotentialMatches::One(*root),
            _ => PotentialMatches::Many,
        }
    }

    /// Folds a second report into the entry: it stays
    /// [`One`](PotentialMatches::One) only if both name the same root.
    fn merge(self, other: Self) -> Self {
        if self == other {
            self
        } else {
            PotentialMatches::Many
        }
    }

    /// Whether the bridging condition (c) holds against component `root`:
    /// a type-3 connector leads to *some other* component.
    fn allows(self, root: CompId) -> bool {
        match self {
            PotentialMatches::Many => true,
            PotentialMatches::One(r) => r != root,
        }
    }
}

/// Flat per-layer working memory, reused across layers. All entries are
/// epoch-stamped: a slot is live only if its stamp equals the current
/// layer's epoch, so resetting between layers is a single counter bump
/// instead of an `O(n t + 3Ln)` clear (and instead of the hash maps this
/// loop used before the incremental rewrite). Every table is indexed by
/// the [`ClassState`] forest's class-major slot, `class * n + real`.
struct LayerScratch {
    epoch: u32,
    n: usize,
    /// Potential-matches table, indexed `class * n + x`.
    pm_epoch: Vec<u32>,
    pm: Vec<PotentialMatches>,
    /// Component roots to skip in the matching scan (deactivated by a
    /// type-1 connector, or already matched), indexed by root id. A root
    /// belongs to exactly one class, so the class key is implicit.
    skip_epoch: Vec<u32>,
    /// Per-layer memo of the component root per bundle, indexed
    /// `class * n + real`. Component roots are stable for a whole layer
    /// body (no unions happen until the layer finalizes), and every node
    /// queries the same bundles its neighbors do, so one find per bundle
    /// per layer serves the deactivation, bridging, and matching scans.
    root_epoch: Vec<u32>,
    root_memo: Vec<u32>,
}

/// Memo encoding of "bundle unoccupied".
const NO_ROOT: u32 = u32::MAX;

impl LayerScratch {
    fn new(n: usize, t: usize) -> Self {
        LayerScratch {
            epoch: 0,
            n,
            pm_epoch: vec![0; n * t],
            pm: vec![PotentialMatches::Many; n * t],
            skip_epoch: vec![0; n * t],
            root_epoch: vec![0; n * t],
            root_memo: vec![NO_ROOT; n * t],
        }
    }

    /// Starts a new layer: invalidates every stamped entry at once.
    fn next_layer(&mut self) {
        self.epoch += 1;
    }

    /// Component root of the `(real, class)` bundle through the
    /// per-layer memo of [`ClassState::comp_root`].
    fn comp_root(&mut self, st: &mut ClassState, real: NodeId, class: usize) -> Option<CompId> {
        let slot = class * self.n + real;
        if self.root_epoch[slot] != self.epoch {
            self.root_epoch[slot] = self.epoch;
            self.root_memo[slot] = st.comp_root(real, class).map_or(NO_ROOT, |r| r as u32);
        }
        match self.root_memo[slot] {
            NO_ROOT => None,
            r => Some(r as usize),
        }
    }

    /// Distinct component roots of `class` adjacent (in the virtual
    /// graph) to a new node on `real` — the bundles on `real` itself and
    /// on its real neighbors; fills `roots`.
    fn adjacent_roots(
        &mut self,
        st: &mut ClassState,
        g: &Graph,
        real: NodeId,
        class: usize,
        roots: &mut Vec<CompId>,
    ) {
        roots.clear();
        for u in std::iter::once(real).chain(g.neighbors(real).iter().copied()) {
            if let Some(r) = self.comp_root(st, u, class) {
                if !roots.contains(&r) {
                    roots.push(r);
                }
            }
        }
    }
}

/// Steps 2a–2b of a layer body. (2a) A type-1 new node with two or more
/// components of its class `c1[real]` around it deactivates them all:
/// they join the skip table. (2b) A type-3 new node reports the
/// components of its class `c3[real]` around it to the potential-matches
/// entry of every type-2 node in its closed neighbourhood. One ascending
/// sweep over each pick array; a connected class (`N_i ≤ 1`) is skipped,
/// since it can seat neither two distinct roots around a node nor a
/// bridge to another component. Returns the number of components
/// deactivated.
///
/// The tables do not depend on the sweep order: a skip stamp is a set
/// insert, a `pm` entry folds to [`PotentialMatches::One`] only if every
/// reported root agrees, and no root changes before step 4.
fn deactivate_and_report(
    g: &Graph,
    st: &mut ClassState,
    scratch: &mut LayerScratch,
    c1: &[usize],
    c3: &[usize],
) -> usize {
    let (n, epoch) = (g.n(), scratch.epoch);
    let mut roots = Vec::new();
    let mut deactivated = 0;
    for (real, &i) in c1.iter().enumerate() {
        if st.component_count(i) < 2 {
            continue;
        }
        scratch.adjacent_roots(st, g, real, i, &mut roots);
        if roots.len() < 2 {
            continue;
        }
        for &root in &roots {
            if scratch.skip_epoch[root] != epoch {
                scratch.skip_epoch[root] = epoch;
                deactivated += 1;
            }
        }
    }
    for (real, &i) in c3.iter().enumerate() {
        if st.component_count(i) < 2 {
            continue;
        }
        scratch.adjacent_roots(st, g, real, i, &mut roots);
        if roots.is_empty() {
            continue;
        }
        let report = PotentialMatches::of(&roots);
        for x in std::iter::once(real).chain(g.neighbors(real).iter().copied()) {
            let slot = i * n + x;
            if scratch.pm_epoch[slot] != epoch {
                scratch.pm_epoch[slot] = epoch;
                scratch.pm[slot] = report;
            } else {
                scratch.pm[slot] = scratch.pm[slot].merge(report);
            }
        }
    }
    deactivated
}

/// Step 3 of a layer body, the maximal matching: scans the type-2 new
/// nodes in `order` and matches each node `x` to the first eligible
/// `(candidate, class)` pair, candidates being `x` and then its
/// neighbours in adjacency order, classes ascending. A pair is eligible
/// if its bundle is occupied, its component is neither deactivated nor
/// matched, and `x`'s potential-matches entry for the class allows it
/// (bridging condition (c)). A matched component joins the skip table.
/// Writes the matched class into `c2[x]` (unmatched nodes keep
/// `usize::MAX`) and returns the number matched.
///
/// Only a class whose entry at `x` was stamped this layer can match at
/// `x`, and every such stamp comes from a type-3 reporter `z` in `N[x]`
/// of class `c3[z]` (only fragmented classes report). So the walk visits
/// just those classes, collected from the `deg(x) + 1` picks and sorted.
fn match_type2(
    g: &Graph,
    st: &mut ClassState,
    scratch: &mut LayerScratch,
    c3: &[usize],
    order: &[NodeId],
    c2: &mut [usize],
) -> usize {
    let (n, epoch) = (g.n(), scratch.epoch);
    let mut live: Vec<(usize, PotentialMatches)> = Vec::new();
    let mut matched = 0;
    for &x in order {
        let closed = || std::iter::once(x).chain(g.neighbors(x).iter().copied());
        live.clear();
        for z in closed() {
            let slot = c3[z] * n + x;
            if scratch.pm_epoch[slot] == epoch {
                live.push((c3[z], scratch.pm[slot]));
            }
        }
        live.sort_unstable_by_key(|&(i, _)| i);
        live.dedup_by_key(|&mut (i, _)| i);
        'search: for y in closed() {
            for &(i, pm) in &live {
                let Some(root) = scratch.comp_root(st, y, i) else {
                    continue;
                };
                if scratch.skip_epoch[root] != epoch && pm.allows(root) {
                    scratch.skip_epoch[root] = epoch;
                    matched += 1;
                    c2[x] = i;
                    break 'search;
                }
            }
        }
    }
    matched
}

/// Runs the CDS-packing construction of Section 3.1 / Appendix C.
///
/// Returns `t = config.num_classes` classes of virtual nodes projected to
/// real vertex sets. W.h.p. (for `t = Θ(k)` with suitable constants) every
/// class is a connected dominating set; [`crate::cds::verify`] checks this
/// and [`crate::cds::tree_extract`] turns the classes into a fractional
/// dominating-tree packing.
///
/// # Example
///
/// ```
/// use decomp_core::cds::centralized::{cds_packing, CdsPackingConfig};
/// use decomp_graph::{domination::is_cds, generators};
///
/// let g = generators::harary(8, 48); // 8-connected circulant
/// let packing = cds_packing(&g, &CdsPackingConfig::with_known_k(8, 1));
/// assert_eq!(packing.num_classes(), 2); // t = ⌊k/4⌋
/// for class in 0..packing.num_classes() {
///     assert!(is_cds(&g, &packing.class_mask(class)));
/// }
/// ```
///
/// # Panics
/// Panics if the graph is empty.
pub fn cds_packing(g: &Graph, config: &CdsPackingConfig) -> CdsPacking {
    cds_packing_with_state(g, config).0
}

/// [`cds_packing`] variant that also returns the final [`ClassState`] —
/// the incrementally-maintained per-class component structure — so
/// downstream stages ([`crate::cds::tree_extract`],
/// [`crate::cds::connector`]) can consume the components instead of
/// recomputing them.
///
/// # Panics
/// Panics if the graph is empty.
pub fn cds_packing_with_state(g: &Graph, config: &CdsPackingConfig) -> (CdsPacking, ClassState) {
    pack(g, config, match_type2)
}

/// Step 3 of a layer body, as [`pack`] calls it: `(g, st, scratch, c3,
/// order, c2) -> matched`.
type MatchScan =
    fn(&Graph, &mut ClassState, &mut LayerScratch, &[usize], &[NodeId], &mut [usize]) -> usize;

/// The layer loop of [`cds_packing_with_state`], with step 3 passed in
/// so the unit tests can run it against the full walk it replaced.
#[allow(clippy::needless_range_loop)] // lockstep loops index several per-node arrays at once
fn pack(g: &Graph, config: &CdsPackingConfig, step3: MatchScan) -> (CdsPacking, ClassState) {
    assert!(g.n() > 0, "CDS packing needs a non-empty graph");
    let layers = default_layers(g.n(), config.layers_factor);
    let layout = VirtualLayout::new(g.n(), layers);
    let t = config.num_classes;
    let mut class_of: Vec<Option<u32>> = vec![None; layout.total()];
    let mut rng = StdRng::seed_from_u64(config.seed);
    let half = layout.jump_start();

    // --- Jump start: layers 0..L/2 join random classes. -----------------
    // Nothing reads a component before layer L/2, so the draws (in the
    // order layer × real × vtype) only mark their bundles occupied, and
    // the state is built once from the marks.
    let mut occupied = vec![false; g.n() * t];
    for layer in 0..half {
        for real in 0..g.n() {
            for vtype in VType::ALL {
                let c = rng.gen_range(0..t);
                class_of[layout.vid(real, layer, vtype)] = Some(c as u32);
                occupied[c * g.n() + real] = true;
            }
        }
    }
    let mut st = ClassState::from_bundles(g, layout, t, occupied);

    // --- Recursive class assignment: layers L/2..L. ---------------------
    let mut scratch = LayerScratch::new(g.n(), t);
    let mut trace = Vec::with_capacity(layers - half);
    for layer in half..layers {
        scratch.next_layer();
        let excess_before = st.excess();

        // (1) Type-1 and type-3 new nodes pick random classes
        //     (recorded, but not merged until the layer finalizes).
        let mut c1 = vec![0usize; g.n()];
        let mut c3 = vec![0usize; g.n()];
        for real in 0..g.n() {
            c1[real] = rng.gen_range(0..t);
            c3[real] = rng.gen_range(0..t);
            class_of[layout.vid(real, layer, VType::T1)] = Some(c1[real] as u32);
            class_of[layout.vid(real, layer, VType::T3)] = Some(c3[real] as u32);
        }

        // (2a + 2b) Deactivation (components already bridged by a type-1
        //      node) and the potential-matches tables (each type-3 new
        //      node of class i reports its suitable components to every
        //      type-2 virtual neighbor). Connected classes are inert for
        //      the whole layer body, so steps 2a–3 skip them; once every
        //      class is connected (`M_ℓ = 0`, the steady state Lemma 4.4
        //      drives the loop into) a layer costs one linear pass of
        //      coin flips.
        let deactivated = deactivate_and_report(g, &mut st, &mut scratch, &c1, &c3);

        // (3) Maximal matching: scan type-2 new nodes in random order,
        //     greedily matching to the first eligible component; every
        //     unmatched node then draws one random class, in scan order.
        //     The matching reads no RNG, so these draws come in the order
        //     they would if each node drew during the scan. With every
        //     class connected (`excess_before == 0`) no component is
        //     matchable and the scan is skipped wholesale.
        let mut order: Vec<NodeId> = (0..g.n()).collect();
        order.shuffle(&mut rng);
        let mut c2 = vec![usize::MAX; g.n()];
        let matched = if excess_before > 0 {
            step3(g, &mut st, &mut scratch, &c3, &order, &mut c2)
        } else {
            0
        };
        for &x in &order {
            if c2[x] == usize::MAX {
                c2[x] = rng.gen_range(0..t);
            }
            class_of[layout.vid(x, layer, VType::T2)] = Some(c2[x] as u32);
        }

        // (4) Finalize the layer: merge all new assignments into the
        //     incremental component structure.
        for real in 0..g.n() {
            st.join(g, layout.vid(real, layer, VType::T1), c1[real]);
            st.join(g, layout.vid(real, layer, VType::T2), c2[real]);
            st.join(g, layout.vid(real, layer, VType::T3), c3[real]);
        }

        trace.push(LayerTrace {
            layer,
            excess_before,
            excess_after: st.excess(),
            matched,
            deactivated,
        });
    }

    // --- Projection to real vertex sets. --------------------------------
    let mut classes: Vec<Vec<NodeId>> = vec![Vec::new(); t];
    for real in 0..g.n() {
        for &c in st.classes_at(real) {
            classes[c as usize].push(real);
        }
    }
    let packing = CdsPacking {
        layout,
        num_classes: t,
        class_of,
        classes,
        trace,
    };
    (packing, st)
}

#[cfg(test)]
mod tests {
    use super::*;
    use decomp_graph::domination::is_cds;
    use decomp_graph::generators;

    fn valid_class_fraction(g: &Graph, p: &CdsPacking) -> f64 {
        let valid = (0..p.num_classes)
            .filter(|&c| is_cds(g, &p.class_mask(c)))
            .count();
        valid as f64 / p.num_classes as f64
    }

    #[test]
    fn single_class_on_small_graph_is_cds() {
        let g = generators::cycle(12);
        let p = cds_packing(&g, &CdsPackingConfig::with_classes(1, 3));
        assert_eq!(p.num_classes(), 1);
        assert!(is_cds(&g, &p.class_mask(0)));
    }

    #[test]
    fn harary_all_classes_are_cds() {
        let g = generators::harary(16, 64);
        let p = cds_packing(&g, &CdsPackingConfig::with_known_k(16, 7));
        assert!(p.num_classes() >= 2);
        assert_eq!(
            valid_class_fraction(&g, &p),
            1.0,
            "every class must be a CDS on a well-connected graph"
        );
    }

    #[test]
    fn hypercube_classes_are_cds() {
        let g = generators::hypercube(6); // 64 nodes, k = 6
        let p = cds_packing(&g, &CdsPackingConfig::with_known_k(6, 11));
        assert_eq!(valid_class_fraction(&g, &p), 1.0);
    }

    #[test]
    fn multiplicity_is_logarithmic() {
        let g = generators::harary(12, 96);
        let p = cds_packing(&g, &CdsPackingConfig::with_known_k(12, 5));
        let mult = p.max_real_multiplicity();
        // Each real node has only 3L virtual nodes, hence <= 3L classes.
        assert!(mult <= 3 * p.layout.layers());
        assert!(mult >= 1);
    }

    #[test]
    fn excess_decreases_monotonically() {
        let g = generators::harary(16, 80);
        let p = cds_packing(&g, &CdsPackingConfig::with_known_k(16, 2));
        for w in p.trace.windows(1) {
            assert!(
                w[0].excess_after <= w[0].excess_before,
                "Fast-Merger Lemma first part: M never increases"
            );
        }
        let last = p.trace.last().unwrap();
        assert_eq!(last.excess_after, 0, "all classes connected at the end");
    }

    /// The step-3 walk [`match_type2`] replaced, kept as its reference:
    /// every fragmented class present on every candidate, probed against
    /// `x`'s potential-matches table.
    fn full_walk(
        g: &Graph,
        st: &mut ClassState,
        scratch: &mut LayerScratch,
        _c3: &[usize],
        order: &[NodeId],
        c2: &mut [usize],
    ) -> usize {
        let epoch = scratch.epoch;
        let mut matched = 0;
        for &x in order {
            'search: for cand in 0..=g.degree(x) {
                let y = if cand == 0 {
                    x
                } else {
                    g.neighbors(x)[cand - 1]
                };
                for k in 0..st.classes_at(y).len() {
                    let i = st.classes_at(y)[k] as usize;
                    if st.component_count(i) < 2 {
                        continue;
                    }
                    let Some(root) = scratch.comp_root(st, y, i) else {
                        continue;
                    };
                    if scratch.skip_epoch[root] == epoch {
                        continue;
                    }
                    let slot = i * g.n() + x;
                    if scratch.pm_epoch[slot] == epoch && scratch.pm[slot].allows(root) {
                        scratch.skip_epoch[root] = epoch;
                        matched += 1;
                        c2[x] = i;
                        break 'search;
                    }
                }
            }
        }
        matched
    }

    #[test]
    fn step3_matches_the_full_walk() {
        // Fragmented instances (t ≫ k/4), so several layers scan.
        let harary = generators::harary(6, 400);
        let gnm = generators::gnm(2000, 6000, 7);
        for (g, t, seed) in [
            (&harary, 24, 1u64),
            (&harary, 24, 9),
            (&harary, 24, 42),
            (&gnm, 16, 1),
            (&gnm, 16, 5),
            (&gnm, 16, 42),
        ] {
            let config = CdsPackingConfig::with_classes(t, seed);
            let (got, _) = pack(g, &config, match_type2);
            let (want, _) = pack(g, &config, full_walk);
            let ctx = format!("n={} t={t} seed={seed}", g.n());
            let matched = |p: &CdsPacking| p.trace.iter().map(|l| l.matched).collect::<Vec<_>>();
            assert!(
                matched(&want).iter().any(|&m| m > 0),
                "{ctx}: no layer matches"
            );
            assert_eq!(matched(&got), matched(&want), "{ctx}");
            let layout = got.layout;
            for layer in layout.jump_start()..layout.layers() {
                let type2 = |p: &CdsPacking| -> Vec<Option<u32>> {
                    (0..g.n())
                        .map(|x| p.class_of[layout.vid(x, layer, VType::T2)])
                        .collect()
                };
                assert!(type2(&got) == type2(&want), "{ctx}: layer {layer}");
            }
            assert_eq!(got.trace, want.trace, "{ctx}");
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let g = generators::harary(8, 40);
        let cfg = CdsPackingConfig::with_known_k(8, 42);
        let a = cds_packing(&g, &cfg);
        let b = cds_packing(&g, &cfg);
        assert_eq!(a.classes, b.classes);
        let c = cds_packing(&g, &CdsPackingConfig::with_known_k(8, 43));
        assert!(a.classes != c.classes || a.class_of != c.class_of);
    }

    #[test]
    fn classes_partition_virtual_nodes() {
        let g = generators::cycle(10);
        let p = cds_packing(&g, &CdsPackingConfig::with_classes(2, 0));
        assert!(p.class_of.iter().all(|c| c.is_some()));
    }

    #[test]
    fn works_on_low_connectivity_graphs() {
        // k = 1: a single class must still come out a CDS.
        let g = generators::random_connected(30, 10, 9);
        let p = cds_packing(&g, &CdsPackingConfig::with_known_k(1, 1));
        assert_eq!(p.num_classes(), 1);
        assert!(is_cds(&g, &p.class_mask(0)));
    }

    #[test]
    fn two_node_graph() {
        let g = Graph::from_edges(2, [(0, 1)]);
        let p = cds_packing(&g, &CdsPackingConfig::with_classes(1, 0));
        assert!(is_cds(&g, &p.class_mask(0)));
    }

    use decomp_graph::Graph;

    #[test]
    fn trace_layers_cover_second_half() {
        let g = generators::cycle(16);
        let p = cds_packing(&g, &CdsPackingConfig::with_classes(1, 0));
        let l = p.layout.layers();
        assert_eq!(p.trace.len(), l - l / 2);
        assert_eq!(p.trace[0].layer, l / 2);
    }

    #[test]
    fn returned_state_matches_packing() {
        let g = generators::harary(6, 36);
        let (p, mut st) = cds_packing_with_state(&g, &CdsPackingConfig::with_classes(8, 4));
        assert_eq!(st.num_classes(), p.num_classes());
        assert_eq!(st.excess(), p.trace.last().unwrap().excess_after);
        for class in 0..p.num_classes() {
            // The state's projection agrees with the packing's classes.
            let members: Vec<usize> = st
                .comp_of(class)
                .iter()
                .enumerate()
                .filter_map(|(v, c)| c.map(|_| v))
                .collect();
            assert_eq!(members, p.classes[class]);
        }
        // Incremental counters agree with a from-scratch recomputation.
        let (counts, excess) = st.recompute_from_scratch(&g);
        for (class, &want) in counts.iter().enumerate() {
            assert_eq!(st.component_count(class), want);
        }
        assert_eq!(st.excess(), excess);
    }
}
