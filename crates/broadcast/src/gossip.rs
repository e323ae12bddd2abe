//! Gossiping (all-to-all broadcast) via dominating-tree packings
//! (Appendix A, Corollary A.1).
//!
//! Every message is handed to a random tree of the packing and then
//! broadcast along that tree. The schedule is simulated faithfully at the
//! V-CONGEST level: per round, each vertex relays at most one message, and
//! a relay is a local broadcast reaching *all* graph neighbors (so
//! dominated non-tree vertices receive the message from adjacent tree
//! vertices). Corollary A.1: with `N` messages, at most `η` per node, all
//! messages reach all nodes in `O~(η + (N + n)/k)` rounds.
//!
//! ## Scale
//!
//! State is packed bitsets — per-message received rows and per-tree
//! membership rows, 1 bit per vertex — and each vertex keeps a min-heap
//! of the messages it still has to relay, driven by an active-frontier
//! worklist. A round therefore costs `O(active vertices + deliveries)`
//! instead of the historical `O(nmsg · n)` table scan, and the state for
//! an all-node workload is `nmsg · n / 64` words instead of two
//! `nmsg × n` byte tables — which is what lets 10⁵-node all-node gossip
//! fit in memory (`gossip_scale` bench, BENCH_SIM.md). The default
//! schedule is unchanged: each vertex relays its *lowest-indexed*
//! eligible message each round, decided from the state at round start.
//!
//! ## The fractional regime
//!
//! The default schedule treats the packing as integral: messages pick
//! trees uniformly and vertices relay greedily. What Theorem 1.1
//! actually constructs is a *fractional* packing — trees carry weights
//! `x_τ` and overlap, and the Corollary A.1 rate assumes every shared
//! vertex time-shares its one relay slot per round across its trees in
//! proportion to the weights. [`GossipConfig::Weighted`] opts the
//! schedule into that regime: it assigns messages to trees with
//! probability `x_τ / Σx` (the shared
//! [`decomp_core::packing::TreeSampler`]), and replaces the global
//! lowest-index greedy pick with a deterministic credit scheduler —
//! each round every tree with an eligible pending message at a vertex
//! earns `x_τ` credit, the highest-credit tree (ties to the lowest tree
//! id) relays its lowest-indexed message, and the served tree is
//! charged the round's total accrued credit. Both schedules are
//! digest-pinned against verbatim reference scans, and both — faulty or
//! not, like [`crate::churn`]'s wave loop — run the one round loop of
//! the private `schedule` module.
//!
//! ## The network-coded regime (beyond the paper)
//!
//! [`GossipConfig::Rlnc`] swaps tree forwarding out entirely: messages are
//! grouped into GF(2⁸) generations and relays broadcast seeded-random
//! linear combinations of their received rows ([`crate::rlnc`]). Any
//! innovative packet helps every receiver, so the convoy effect of
//! committed trees disappears; the price is per-packet coefficient
//! bandwidth and decode CPU, plus the `wasted_bandwidth` of
//! non-innovative receptions ([`GossipReport::wasted_bandwidth`]).
//! Coefficient draws come from one stream seeded by the run seed and
//! the regime's own seed, so the schedule digest pins RLNC runs
//! bit-for-bit just like the tree schedules (docs/DETERMINISM.md).
//!
//! ## Faults
//!
//! [`gossip_via_trees_faulty`] runs either schedule under a seeded
//! [`FaultPlan`]: at the start of each scheduled round the victims die
//! (or edges are cut), dead vertices' pending relays are dropped (and,
//! under the weighted policy, their credit lanes closed), and every
//! incomplete message is re-checked for progress — a
//! message whose tree lost a member, a tree edge, or its domination of
//! the survivors (or whose only eligible relayers are gone) is
//! reassigned to the lowest-id surviving tree that holds it, or, when
//! none does, to a flood fallback where every live holder relays. With
//! `f < k` failures against a `k`-connected packing delivery to every
//! survivor still completes (the robustness reading of Theorem 1.1);
//! [`GossipReport::waves`] records the per-fault curve.

use crate::schedule::{run_schedule, tree_ok, BitRows, Greedy, RepairHook, Weighted};
use decomp_congest::{FaultPlan, FaultPlanError, FaultState, SimError};
use decomp_core::packing::DomTreePacking;
use decomp_graph::{Graph, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Result of a gossip schedule: the tree schedules, the coded regime,
/// and the churn wave loop ([`crate::churn`]) all report here.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct GossipReport {
    /// Rounds until every message reached every (live, present) vertex.
    pub rounds: usize,
    /// Number of messages disseminated.
    pub num_messages: usize,
    /// Whether no message was lost outright.
    pub complete: bool,
    /// Messages assigned to each tree (each class, under churn) at the
    /// start; all zeros under [`GossipConfig::Rlnc`], whose packets ride
    /// no tree.
    pub per_tree_load: Vec<usize>,
    /// Largest diameter among the carriers the run starts with (the
    /// `O~(n/k)` term), whether or not a message rides them: every tree
    /// of the packing ([`gossip_via_trees_faulty`]), or every class whose
    /// tree certifies at round 0 under churn ([`crate::churn`]).
    pub max_tree_diameter: usize,
    /// Peak words of the schedule state (the memory-footprint number
    /// `gossip_scale` tracks): the packed received/membership bitsets
    /// plus the relay queues' peak ([`GossipConfig::Rlnc`] counts its
    /// decoder state instead). The queue term is an accounting model,
    /// not the queues' size in bytes: pending entries at two per word,
    /// plus 5 words per open lane under [`GossipConfig::Weighted`] (the
    /// cost of a lane in its first, heap-per-lane layout; the flat
    /// credit table it now lives in is not counted). It stays as it is
    /// so recorded values hold.
    pub peak_state_words: usize,
    /// Order-independent fingerprint of the relay schedule: a
    /// commutative fold of `(round, vertex, message)` over every relay.
    /// Two runs took the same schedule iff their digests match — the
    /// regression tests compare this against a verbatim copy of the
    /// historical `O(nmsg · n)` scan.
    pub schedule_digest: u64,
    /// One sample per fault wave, in firing order (empty on fault-free
    /// runs): the degradation curve of the schedule as the plan fires.
    pub waves: Vec<WaveSample>,
    /// Messages abandoned because every copy was on a dead vertex
    /// (possible only when a message's origin dies before its first
    /// relay, or when faults exceed the packing's connectivity).
    pub lost_messages: usize,
    /// Deliveries that taught the receiver nothing: under the tree
    /// regimes, a relay reaching a vertex that already held the message;
    /// under [`GossipConfig::Rlnc`], a coded packet that was not innovative
    /// (it reduced to zero against the receiver's echelon rows, or the
    /// receiver had already reached full rank). The bandwidth half of
    /// the rounds-vs-bandwidth trade the regimes are benchmarked on.
    pub wasted_bandwidth: usize,
    /// Messages moved to another carrier, re-admitted from the flood, or
    /// reseeded in place by the repair passes — the cumulative
    /// `reassigned_messages` column of [`GossipReport::waves`]. Zero on
    /// fault-free runs and under [`GossipConfig::Rlnc`] (coding needs no
    /// repair).
    pub repair_events: usize,
    /// Rounds in which at least one relay served a message on the flood
    /// fallback. Stays zero while every message rides a real tree; under
    /// churn with re-extraction it is bounded per fault wave rather than
    /// growing with the run.
    pub flood_rounds: usize,
    /// Successful per-class tree re-extractions across all waves (churn
    /// only; a static packing never re-extracts).
    pub reextractions: usize,
    /// Class-free arrivals admitted into the packing incrementally
    /// ([`ClassState::admit_vertex`](decomp_core::cds::class_state::ClassState::admit_vertex))
    /// and served from trees. Nonzero only on a growing topology.
    pub admitted_via_packing: usize,
    /// Class-free arrivals no class could absorb, left to domination or
    /// the flood fallback. A settled churn run counts every class-free
    /// arrival here.
    pub flood_served: usize,
}

/// A snapshot of schedule health taken each time a fault wave fires,
/// recorded in order in [`GossipReport::waves`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WaveSample {
    /// Schedule round (1-based) at whose start the faults fired.
    pub round: usize,
    /// Cumulative fault events fired so far, this round included.
    pub faults_fired: usize,
    /// Vertices alive and present after this round's faults.
    pub live_vertices: usize,
    /// Carriers still intact (trees, or classes holding a certified
    /// tree under churn): members alive, tree edges uncut, and the live
    /// survivors still dominated through live edges.
    pub surviving_trees: usize,
    /// Messages not yet delivered to every live vertex.
    pub incomplete_messages: usize,
    /// Messages moved to an intact carrier (or the flood fallback),
    /// re-admitted, or reseeded by this round's repair pass.
    pub reassigned_messages: usize,
    /// Messages declared lost by this round's repair pass.
    pub lost_messages: usize,
    /// Touched classes whose tree this wave re-extracted (churn only).
    pub reextracted_classes: usize,
    /// Cumulative flood rounds when the wave fired — consecutive
    /// samples difference to the per-wave flood cost, which stays
    /// bounded when re-extraction keeps restoring tree schedules.
    pub flood_rounds_before: usize,
}

/// Why a gossip run refused to start or failed: an invalid input or
/// plan, or a simulator phase that ran out of rounds.
/// [`gossip_via_trees_with`] panics with this error's message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GossipError {
    /// The fault plan failed [`FaultPlan::validate`].
    Plan(FaultPlanError),
    /// The packing holds no trees (for the churn protocol: no class
    /// certifies over the final topology).
    EmptyPacking,
    /// [`GossipConfig::Weighted`] was requested but no tree carries
    /// positive weight, so the sampler has nothing to draw from.
    ZeroWeightPacking,
    /// The (final) topology is disconnected; no run can complete.
    Disconnected,
    /// A two-phase protocol (faulty or churn) was asked for
    /// [`GossipConfig::Rlnc`]: its repair phase re-injects on trees, so
    /// it supports the tree regimes only.
    UnsupportedRegime,
    /// A simulator phase exceeded its round cap.
    Sim(SimError),
}

impl std::fmt::Display for GossipError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GossipError::Plan(e) => write!(f, "invalid fault plan: {e}"),
            GossipError::EmptyPacking => write!(f, "packing holds no trees"),
            GossipError::ZeroWeightPacking => {
                write!(f, "weighted tree choice needs positive total weight")
            }
            GossipError::Disconnected => write!(f, "gossip requires a connected graph"),
            GossipError::UnsupportedRegime => {
                write!(f, "the two-phase protocols support the tree regimes only")
            }
            GossipError::Sim(e) => write!(f, "simulator phase failed: {e}"),
        }
    }
}

impl std::error::Error for GossipError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GossipError::Plan(e) => Some(e),
            GossipError::Sim(e) => Some(e),
            _ => None,
        }
    }
}

/// A message to gossip: its origin vertex.
pub type MessageOrigin = NodeId;

/// Schedule configuration for [`gossip_via_trees_with`]: one of the
/// three regimes. The default reproduces the historical schedule bit for
/// bit, RNG stream included.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum GossipConfig {
    /// The integral reading of Appendix A: each message picks a tree
    /// uniformly at random, ignoring weights, and each vertex relays its
    /// globally lowest-indexed eligible message.
    #[default]
    Uniform,
    /// The fractional regime Theorem 1.1 and Corollary A.1 assume: tree
    /// `τ` with probability `x_τ / Σx`, via the shared
    /// [`decomp_core::packing::TreeSampler`], and deterministic weighted
    /// time-sharing — per-(vertex, tree) credit accumulators earn `x_τ`
    /// per round while tree `τ` has an eligible message pending; the
    /// highest-credit tree (ties broken toward the lowest tree id)
    /// relays its lowest-indexed message and is charged the round's
    /// total accrual, so long-run tree `τ` gets an `x_τ / Σx` share of
    /// the vertex's relay slots.
    Weighted,
    /// Random linear network coding over GF(2⁸) ([`crate::rlnc`],
    /// beyond the paper): messages are grouped into generations of
    /// `generation_size` symbols and relays broadcast seeded-random
    /// combinations of their received rows. `seed` keys the coefficient
    /// stream (mixed with the run seed), so a `(run seed, config)` pair
    /// pins the schedule bit-for-bit.
    Rlnc {
        /// Symbols per generation, in `1..=`[`crate::rlnc::MAX_GENERATION`]
        /// (the protocol layer further requires ≤ 48 so coefficients
        /// fit the V-CONGEST word budget).
        generation_size: usize,
        /// Coefficient-stream seed, mixed with the run seed.
        seed: u64,
    },
}

impl GossipConfig {
    /// The fully fractional regime: weighted tree choice *and* weighted
    /// time-sharing (Theorem 1.1 / Corollary A.1 as proved).
    pub fn weighted() -> Self {
        GossipConfig::Weighted
    }

    /// The network-coded regime: relays send seeded-random GF(2⁸)
    /// combinations of their received generation instead of forwarding
    /// along committed trees ([`crate::rlnc`]).
    pub fn rlnc(generation_size: usize, seed: u64) -> Self {
        GossipConfig::Rlnc {
            generation_size,
            seed,
        }
    }
}

/// Simulates the tree-parallel gossip schedule of Appendix A under an
/// explicit [`GossipConfig`]: [`gossip_via_trees_faulty`] with the
/// empty plan.
///
/// `origins[i]` holds message `i`. Each message is assigned to a tree of
/// `packing` (uniformly, or weight-proportionally); vertices relay one
/// message per round (V-CONGEST), picked greedily or by the weighted
/// credit scheduler of the fractional regime. Terminates when every
/// message has reached every vertex. The default config takes exactly
/// the historical schedule, RNG stream included.
///
/// # Panics
/// Panics with the [`GossipError`] that [`gossip_via_trees_faulty`]
/// returns (an empty packing, a weightless one under
/// [`GossipConfig::Weighted`], or a disconnected graph), and if a tree
/// fails to dominate.
pub fn gossip_via_trees_with(
    g: &Graph,
    packing: &DomTreePacking,
    origins: &[MessageOrigin],
    seed: u64,
    config: GossipConfig,
) -> GossipReport {
    gossip_via_trees_faulty(g, packing, origins, seed, config, &FaultPlan::none())
        .unwrap_or_else(|e| panic!("{e}"))
}

/// [`gossip_via_trees_with`] under a seeded [`FaultPlan`] (rounds in the
/// plan index the schedule's 1-based round counter; events at rounds 0
/// and 1 fire before the first relay). Dead vertices stop relaying and
/// no longer count toward delivery, cut edges drop relays in both
/// directions, and each fault round runs a repair pass that reassigns
/// stuck messages to surviving trees (or a flood fallback). Returns the
/// report with its [`waves`](GossipReport::waves) curve filled in, or
/// the input validation failure as a [`GossipError`]. The plan itself is
/// not validated: the schedule tolerates sloppy plans, such as a cut
/// edge whose endpoint is already dead. An empty plan runs the
/// fault-free schedule.
///
/// The *initial* graph must be connected; completion of every
/// non-[`lost`](GossipReport::lost_messages) message further requires
/// the plan to leave the survivors connected in every prefix (e.g.
/// `f < k` deletions against a `k`-connected graph) — a plan that
/// disconnects the survivors trips the schedule's stall assertion.
pub fn gossip_via_trees_faulty(
    g: &Graph,
    packing: &DomTreePacking,
    origins: &[MessageOrigin],
    seed: u64,
    config: GossipConfig,
    plan: &FaultPlan,
) -> Result<GossipReport, GossipError> {
    check_inputs(g, packing, config)?;
    let n = g.n();
    // Per-tree membership, 1 bit per vertex.
    let member = BitRows::from_trees(packing, n);
    let ft = FaultState::new(plan, n);
    let report = match config {
        GossipConfig::Rlnc {
            generation_size,
            seed: coeff_seed,
        } => crate::rlnc::rlnc_schedule(
            g,
            packing,
            &member,
            origins,
            seed,
            generation_size,
            coeff_seed,
            ft,
        ),
        GossipConfig::Uniform | GossipConfig::Weighted => {
            // Message-to-tree assignment draws first, preserving the
            // historical RNG stream bit for bit.
            let weighted = config == GossipConfig::Weighted;
            let tree_of = assign_trees(packing, origins.len(), seed, weighted);
            let mut hook = StaticRepair { g, packing };
            if weighted {
                let policy = Weighted::new(n, packing);
                run_schedule(g, origins, member, tree_of, policy, ft, &mut hook)
            } else {
                run_schedule(g, origins, member, tree_of, Greedy::new(n), ft, &mut hook)
            }
        }
    };
    let diameters = packing.trees.iter().map(|t| t.diameter(n));
    Ok(GossipReport {
        max_tree_diameter: diameters.max().unwrap_or(0),
        ..report
    })
}

/// The checks every fallible entry point runs before it starts: a
/// connected graph, at least one tree, and positive weight where the
/// tree choice samples by weight.
pub(crate) fn check_inputs(
    g: &Graph,
    packing: &DomTreePacking,
    config: GossipConfig,
) -> Result<(), GossipError> {
    if !decomp_graph::traversal::is_connected(g) {
        return Err(GossipError::Disconnected);
    }
    if packing.num_trees() == 0 {
        return Err(GossipError::EmptyPacking);
    }
    match config {
        GossipConfig::Weighted if packing.try_sampler().is_none() => {
            Err(GossipError::ZeroWeightPacking)
        }
        _ => Ok(()),
    }
}

/// Message `i`'s tree, drawn in order from `seed`'s stream: uniformly,
/// or weight-proportionally when `weighted` (the shared
/// [`decomp_core::packing::TreeSampler`]). The schedule and the protocol
/// both draw here, so one seed assigns the same trees in either.
pub(crate) fn assign_trees(
    packing: &DomTreePacking,
    nmsg: usize,
    seed: u64,
    weighted: bool,
) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed);
    if weighted {
        let sampler = packing.try_sampler().expect("packing must carry weight");
        (0..nmsg).map(|_| sampler.sample(&mut rng)).collect()
    } else {
        (0..nmsg)
            .map(|_| rng.gen_range(0..packing.num_trees()))
            .collect()
    }
}

/// The static packing's repair hook: a tree broken by a fault stays
/// broken ([`tree_ok`]), so its messages move to the lowest-id intact
/// tree holding them, and a flood that still covers keeps flooding.
pub(crate) struct StaticRepair<'a> {
    pub(crate) g: &'a Graph,
    pub(crate) packing: &'a DomTreePacking,
}

impl RepairHook for StaticRepair<'_> {
    const READMIT_FLOOD: bool = false;

    fn carriers(&mut self, ft: &FaultState<'_>, member: &mut BitRows) -> (Vec<bool>, usize) {
        let (g, member) = (self.g, &*member);
        let ok = |(t, tree)| tree_ok(g, ft, t, tree, member);
        (self.packing.trees.iter().enumerate().map(ok).collect(), 0)
    }
}

/// Baseline: the same workload over a single BFS spanning tree (the
/// pre-decomposition state of the art the paper contrasts with).
pub fn gossip_single_tree_baseline(
    g: &Graph,
    origins: &[MessageOrigin],
    seed: u64,
) -> GossipReport {
    let bfs = decomp_graph::traversal::bfs(g, 0);
    let edges: Vec<(NodeId, NodeId)> = bfs.tree_edges();
    let packing = DomTreePacking {
        trees: vec![decomp_core::packing::WeightedDomTree {
            id: 0,
            weight: 1.0,
            edges,
            singleton: if g.n() == 1 { Some(0) } else { None },
        }],
    };
    gossip_via_trees_with(g, &packing, origins, seed, GossipConfig::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::relay_hash;
    use decomp_congest::fault::{Fault, ScheduledFault};
    use decomp_core::cds::centralized::{cds_packing, CdsPackingConfig};
    use decomp_core::cds::tree_extract::to_dom_tree_packing;
    use decomp_graph::generators;

    /// The default (uniform, greedy) schedule.
    fn greedy(g: &Graph, packing: &DomTreePacking, origins: &[usize], seed: u64) -> GossipReport {
        gossip_via_trees_with(g, packing, origins, seed, GossipConfig::default())
    }

    fn packing_for(g: &Graph, k: usize, seed: u64) -> DomTreePacking {
        let p = cds_packing(g, &CdsPackingConfig::with_known_k(k, seed));
        let ex = to_dom_tree_packing(g, &p);
        assert!(ex.invalid_classes.is_empty());
        ex.packing
    }

    #[test]
    fn all_to_all_on_harary() {
        let g = generators::harary(12, 48);
        let packing = packing_for(&g, 12, 1);
        let origins: Vec<usize> = (0..g.n()).collect(); // one message per node
        let r = greedy(&g, &packing, &origins, 9);
        assert_eq!(r.num_messages, 48);
        assert!(r.rounds > 0);
        let total: usize = r.per_tree_load.iter().sum();
        assert_eq!(total, 48);
    }

    /// A hand-built packing of genuinely vertex-disjoint dominating trees:
    /// in K_{t, n−t}, each pair (left_i, right_i) forms a 2-vertex
    /// dominating tree, and distinct pairs are disjoint. This is the
    /// regime Corollary 1.4 speaks about (constructed packings only become
    /// disjoint once k ≫ log n, which the bench harness exercises).
    fn disjoint_pair_packing(t: usize, n: usize) -> (Graph, DomTreePacking) {
        let g = generators::complete_bipartite(t, n - t);
        let trees = (0..t)
            .map(|i| decomp_core::packing::WeightedDomTree {
                id: i,
                weight: 1.0,
                edges: vec![(i, t + i)],
                singleton: None,
            })
            .collect();
        let packing = DomTreePacking { trees };
        packing.validate(&g, 1e-9).unwrap();
        (g, packing)
    }

    #[test]
    fn disjoint_trees_beat_single_tree() {
        let (g, packing) = disjoint_pair_packing(8, 64);
        let origins: Vec<usize> = (0..4 * g.n()).map(|i| i % g.n()).collect();
        let multi = greedy(&g, &packing, &origins, 5);
        let single = gossip_single_tree_baseline(&g, &origins, 5);
        assert!(
            2 * multi.rounds < single.rounds,
            "8 disjoint trees ({}) must far outpace the single tree ({})",
            multi.rounds,
            single.rounds
        );
    }

    #[test]
    fn constructed_packing_not_much_worse_than_single_tree() {
        // At small scales the constructed classes overlap heavily, so no
        // speedup is expected — but the schedule must stay comparable.
        let g = generators::harary(16, 64);
        let packing = packing_for(&g, 16, 3);
        assert!(packing.num_trees() >= 4);
        let origins: Vec<usize> = (0..2 * g.n()).map(|i| i % g.n()).collect();
        let multi = greedy(&g, &packing, &origins, 5);
        let single = gossip_single_tree_baseline(&g, &origins, 5);
        assert!(
            multi.rounds <= 2 * single.rounds + 10,
            "packing schedule ({}) should stay comparable to single tree ({})",
            multi.rounds,
            single.rounds
        );
    }

    #[test]
    fn single_message_reaches_everyone() {
        let g = generators::cycle(10);
        let packing = packing_for(&g, 2, 0);
        let r = greedy(&g, &packing, &[3], 1);
        assert_eq!(r.num_messages, 1);
        // one message over a cycle: roughly diameter rounds
        assert!(r.rounds <= 3 * 10);
    }

    #[test]
    fn empty_workload() {
        let g = generators::cycle(5);
        let packing = packing_for(&g, 2, 0);
        let r = greedy(&g, &packing, &[], 0);
        assert_eq!(r.rounds, 0);
        assert_eq!(r.num_messages, 0);
    }

    #[test]
    fn corollary_a1_shape() {
        // Rounds ≈ O~(η + (N + n)/k): with N = n messages and k large,
        // rounds should be well below the naive N + D bound.
        let g = generators::harary(16, 64);
        let packing = packing_for(&g, 16, 7);
        let origins: Vec<usize> = (0..g.n()).collect();
        let r = greedy(&g, &packing, &origins, 3);
        let naive = g.n() + decomp_graph::traversal::diameter(&g).unwrap();
        assert!(
            r.rounds < 4 * naive,
            "rounds {} should be comparable to or better than naive {}",
            r.rounds,
            naive
        );
    }

    #[test]
    #[should_panic(expected = "packing holds no trees")]
    fn rejects_empty_packing() {
        let g = generators::cycle(4);
        greedy(&g, &DomTreePacking::default(), &[0], 0);
    }

    /// The historical `O(nmsg · n)` schedule loop, kept verbatim as the
    /// oracle for the bitset/worklist rewrite: per round it scans every
    /// (message, vertex) pair and lets each vertex relay its
    /// lowest-indexed eligible message. Returns, per message, the round
    /// each vertex received it in (0 = held at start) — a complete
    /// trace of the schedule, not just its length.
    fn reference_schedule(
        g: &Graph,
        packing: &DomTreePacking,
        origins: &[usize],
        seed: u64,
    ) -> (usize, u64, Vec<Vec<usize>>) {
        let n = g.n();
        let mut rng = StdRng::seed_from_u64(seed);
        let num_trees = packing.num_trees();
        let mut tree_member: Vec<Vec<bool>> = Vec::with_capacity(num_trees);
        for t in &packing.trees {
            let mut member = vec![false; n];
            for &(u, v) in &t.edges {
                member[u] = true;
                member[v] = true;
            }
            if let Some(s) = t.singleton {
                member[s] = true;
            }
            tree_member.push(member);
        }
        let nmsg = origins.len();
        let tree_of: Vec<usize> = (0..nmsg).map(|_| rng.gen_range(0..num_trees)).collect();
        let mut received: Vec<Vec<bool>> = (0..nmsg)
            .map(|m| {
                let mut r = vec![false; n];
                r[origins[m]] = true;
                r
            })
            .collect();
        let mut recv_round: Vec<Vec<usize>> = (0..nmsg).map(|_| vec![usize::MAX; n]).collect();
        for m in 0..nmsg {
            recv_round[m][origins[m]] = 0;
        }
        let mut relayed: Vec<Vec<bool>> = vec![vec![false; n]; nmsg];
        let mut remaining: Vec<usize> = (0..nmsg).map(|_| n - 1).collect();
        let mut incomplete = remaining.iter().filter(|&&r| r > 0).count();
        let mut rounds = 0usize;
        let mut digest = 0u64;
        while incomplete > 0 {
            rounds += 1;
            let mut chosen: Vec<Option<usize>> = vec![None; n];
            for m in 0..nmsg {
                if remaining[m] == 0 {
                    continue;
                }
                let tree = tree_of[m];
                for v in 0..n {
                    if chosen[v].is_none()
                        && received[m][v]
                        && !relayed[m][v]
                        && (tree_member[tree][v] || v == origins[m])
                    {
                        chosen[v] = Some(m);
                    }
                }
            }
            for v in 0..n {
                if let Some(m) = chosen[v] {
                    relayed[m][v] = true;
                    digest = digest.wrapping_add(relay_hash(rounds, v, m));
                    for &u in g.neighbors(v) {
                        if !received[m][u] {
                            received[m][u] = true;
                            recv_round[m][u] = rounds;
                            remaining[m] -= 1;
                            if remaining[m] == 0 {
                                incomplete -= 1;
                            }
                        }
                    }
                }
            }
        }
        (rounds, digest, recv_round)
    }

    /// The weighted credit scheduler, reimplemented as a naive
    /// `O(nmsg · n)` scan — the oracle pinning [`GossipConfig::Weighted`]
    /// exactly as `reference_schedule` pins the greedy default. Per
    /// round and vertex it walks *all* trees in ascending-id order,
    /// accrues `x_τ` for each tree with an eligible message, and serves
    /// the highest-credit tree (ties to the lowest id), charging it the
    /// round's total accrual. Returns the same
    /// `(rounds, digest, reception trace)` triple.
    fn reference_weighted_schedule(
        g: &Graph,
        packing: &DomTreePacking,
        origins: &[usize],
        seed: u64,
    ) -> (usize, u64, Vec<Vec<usize>>) {
        let n = g.n();
        let mut rng = StdRng::seed_from_u64(seed);
        let num_trees = packing.num_trees();
        let weight: Vec<f64> = packing.trees.iter().map(|t| t.weight).collect();
        let mut tree_member: Vec<Vec<bool>> = Vec::with_capacity(num_trees);
        for t in &packing.trees {
            let mut member = vec![false; n];
            for &(u, v) in &t.edges {
                member[u] = true;
                member[v] = true;
            }
            if let Some(s) = t.singleton {
                member[s] = true;
            }
            tree_member.push(member);
        }
        let nmsg = origins.len();
        let sampler = packing.sampler();
        let tree_of: Vec<usize> = (0..nmsg).map(|_| sampler.sample(&mut rng)).collect();
        let mut received: Vec<Vec<bool>> = (0..nmsg)
            .map(|m| {
                let mut r = vec![false; n];
                r[origins[m]] = true;
                r
            })
            .collect();
        let mut recv_round: Vec<Vec<usize>> = (0..nmsg).map(|_| vec![usize::MAX; n]).collect();
        for m in 0..nmsg {
            recv_round[m][origins[m]] = 0;
        }
        let mut relayed: Vec<Vec<bool>> = vec![vec![false; n]; nmsg];
        let mut remaining: Vec<usize> = (0..nmsg).map(|_| n - 1).collect();
        let mut incomplete = remaining.iter().filter(|&&r| r > 0).count();
        let mut credit: Vec<Vec<f64>> = vec![vec![0.0; num_trees]; n];
        let mut rounds = 0usize;
        let mut digest = 0u64;
        while incomplete > 0 {
            rounds += 1;
            let mut chosen: Vec<Option<usize>> = vec![None; n];
            for v in 0..n {
                let mut accrued = 0.0f64;
                let mut best: Option<usize> = None;
                let mut best_msg = usize::MAX;
                for tree in 0..num_trees {
                    let low = (0..nmsg).find(|&m| {
                        tree_of[m] == tree
                            && remaining[m] > 0
                            && received[m][v]
                            && !relayed[m][v]
                            && (tree_member[tree][v] || origins[m] == v)
                    });
                    let Some(m) = low else { continue };
                    credit[v][tree] += weight[tree];
                    accrued += weight[tree];
                    let better = match best {
                        Some(b) => credit[v][tree] > credit[v][b],
                        None => true,
                    };
                    if better {
                        best = Some(tree);
                        best_msg = m;
                    }
                }
                if let Some(b) = best {
                    credit[v][b] -= accrued;
                    chosen[v] = Some(best_msg);
                }
            }
            for v in 0..n {
                if let Some(m) = chosen[v] {
                    relayed[m][v] = true;
                    digest = digest.wrapping_add(relay_hash(rounds, v, m));
                    for &u in g.neighbors(v) {
                        if !received[m][u] {
                            received[m][u] = true;
                            recv_round[m][u] = rounds;
                            remaining[m] -= 1;
                            if remaining[m] == 0 {
                                incomplete -= 1;
                            }
                        }
                    }
                }
            }
        }
        (rounds, digest, recv_round)
    }

    /// Disjoint pair trees with genuinely *uneven* weights, so the
    /// weighted paths exercise non-uniform `x_τ / Σx` splits.
    fn uneven_pair_packing(t: usize, n: usize) -> (Graph, DomTreePacking) {
        let (g, mut packing) = disjoint_pair_packing(t, n);
        for (i, tree) in packing.trees.iter_mut().enumerate() {
            tree.weight = (i + 1) as f64 / t as f64;
        }
        packing.validate(&g, 1e-9).unwrap();
        (g, packing)
    }

    #[test]
    fn weighted_schedule_matches_reference_scan() {
        // The weighted credit scheduler is pinned by digest against its
        // own verbatim O(nmsg · n) oracle, exactly as
        // `bitset_schedule_matches_reference_scan` pins the greedy
        // default — same families and seeds, plus an uneven-weight
        // packing so the credit accrual exercises distinct x_τ.
        let cases: Vec<(Graph, DomTreePacking)> = vec![
            {
                let g = generators::harary(8, 40);
                let p = packing_for(&g, 8, 1);
                (g, p)
            },
            {
                let g = generators::thick_path(4, 6);
                let p = packing_for(&g, 4, 3);
                (g, p)
            },
            disjoint_pair_packing(6, 36),
            uneven_pair_packing(6, 36),
            {
                let g = generators::cycle(17);
                let p = packing_for(&g, 2, 0);
                (g, p)
            },
        ];
        for (g, packing) in &cases {
            for seed in [0u64, 5, 9] {
                let origins: Vec<usize> = (0..2 * g.n()).map(|i| (i * 7) % g.n()).collect();
                let config = GossipConfig::weighted();
                let r = gossip_via_trees_with(g, packing, &origins, seed, config);
                let (ref_rounds, ref_digest, recv_round) =
                    reference_weighted_schedule(g, packing, &origins, seed);
                assert_eq!(
                    r.rounds, ref_rounds,
                    "schedule length diverged (seed {seed})"
                );
                assert_eq!(
                    r.schedule_digest, ref_digest,
                    "relay schedule diverged (seed {seed})"
                );
                for row in &recv_round {
                    assert!(
                        row.iter().all(|&rd| rd != usize::MAX),
                        "reference schedule incomplete"
                    );
                }
            }
        }
    }

    #[test]
    fn weighted_sharing_beats_greedy_on_constructed_packing() {
        // The Corollary A.1 claim the fractional regime exists for: on a
        // CDS-constructed packing at small k (trees overlapping in almost
        // every vertex), weighted time-sharing completes the same
        // workload in strictly fewer rounds than the greedy
        // lowest-index schedule, which starves high-indexed trees.
        // Deterministic: fixed seeds, pinned instances. The same holds at
        // bench scale (`gossip_scale`, BENCH_SIM.md).
        let g = generators::harary(16, 64);
        let packing = packing_for(&g, 16, 2);
        let origins: Vec<usize> = (0..4 * g.n()).map(|i| i % g.n()).collect();
        let greedy = greedy(&g, &packing, &origins, 5);
        let weighted = gossip_via_trees_with(&g, &packing, &origins, 5, GossipConfig::weighted());
        assert!(
            weighted.rounds < greedy.rounds,
            "weighted {} must beat greedy {} on the overlapping packing",
            weighted.rounds,
            greedy.rounds
        );
    }

    #[test]
    fn weighted_tree_choice_skips_zero_weight_trees() {
        let (g, mut packing) = disjoint_pair_packing(6, 36);
        packing.trees[0].weight = 0.0;
        let origins: Vec<usize> = (0..3 * g.n()).map(|i| i % g.n()).collect();
        let weighted = gossip_via_trees_with(&g, &packing, &origins, 4, GossipConfig::weighted());
        assert_eq!(
            weighted.per_tree_load[0], 0,
            "zero-weight tree must carry no messages under weighted choice"
        );
        let uniform = greedy(&g, &packing, &origins, 4);
        assert!(
            uniform.per_tree_load[0] > 0,
            "uniform choice ignores weights (premise of the comparison)"
        );
    }

    #[test]
    fn bitset_schedule_matches_reference_scan() {
        // Sweep families, seeds, and both packing regimes. The
        // worklist/heap rewrite claims to take the *same* greedy choice
        // every round (lowest-indexed eligible message per vertex, from
        // round-start state); `schedule_digest` — a commutative fold
        // over every (round, vertex, message) relay — must match the
        // reference scan's exactly, which pins the full schedule, not
        // just its length. The reference's reception trace also
        // certifies completeness.
        let cases: Vec<(Graph, DomTreePacking)> = vec![
            {
                let g = generators::harary(8, 40);
                let p = packing_for(&g, 8, 1);
                (g, p)
            },
            {
                let g = generators::thick_path(4, 6);
                let p = packing_for(&g, 4, 3);
                (g, p)
            },
            disjoint_pair_packing(6, 36),
            {
                let g = generators::cycle(17);
                let p = packing_for(&g, 2, 0);
                (g, p)
            },
        ];
        for (g, packing) in &cases {
            for seed in [0u64, 5, 9] {
                let origins: Vec<usize> = (0..2 * g.n()).map(|i| (i * 7) % g.n()).collect();
                let r = greedy(g, packing, &origins, seed);
                let (ref_rounds, ref_digest, recv_round) =
                    reference_schedule(g, packing, &origins, seed);
                assert_eq!(
                    r.rounds, ref_rounds,
                    "schedule length diverged (seed {seed})"
                );
                assert_eq!(
                    r.schedule_digest, ref_digest,
                    "relay schedule diverged (seed {seed})"
                );
                for row in &recv_round {
                    assert!(
                        row.iter().all(|&rd| rd != usize::MAX),
                        "reference schedule incomplete"
                    );
                }
            }
        }
    }

    #[test]
    fn weighted_lane_retirement_keeps_schedule_pinned_as_trees_finish_early() {
        // Lanes whose tree delivered everything retire instead of
        // idling forever. Retirement must be schedule-neutral, which the
        // never-retiring reference oracle certifies by digest, and the
        // pinned round count guards against future drift. A drained
        // lane may still hold credit (a lane that won while another was
        // active ends negative), but in a fault-free run a finished
        // tree never carries a message again, so its lane never
        // competes again. Under faults a repair can move a message onto
        // a finished tree; its lane then restarts at credit 0, and
        // `schedule::tests::weighted_run_matches_the_heap_reference_when_repair_reopens_lanes`
        // pins that case against the heap-per-lane reference. The uneven
        // workload makes trees finish at very different times (pair
        // trees with weights 1/6..6/6 and loads drawn by the weighted
        // sampler), so lanes genuinely retire mid-run.
        let (g, packing) = uneven_pair_packing(6, 36);
        let origins: Vec<usize> = (0..3 * g.n()).map(|i| (i * 5) % g.n()).collect();
        let config = GossipConfig::weighted();
        let r = gossip_via_trees_with(&g, &packing, &origins, 11, config);
        let (ref_rounds, ref_digest, _) = reference_weighted_schedule(&g, &packing, &origins, 11);
        assert_eq!(
            r.rounds, ref_rounds,
            "retirement changed the schedule length"
        );
        assert_eq!(
            r.schedule_digest, ref_digest,
            "retirement changed the schedule"
        );
        assert!(
            packing.trees.iter().map(|t| t.weight).any(|w| w != 1.0),
            "premise: uneven weights so trees finish at different times"
        );
        assert_eq!(
            r.rounds, 28,
            "pinned total rounds (update only if the schedule itself changes)"
        );
    }

    #[test]
    fn faulty_with_empty_plan_matches_fault_free_run() {
        // The fault path's extra machinery (relay table, tracker) must
        // be schedule-invisible while no fault has fired — and an empty
        // plan never fires.
        let (g, packing) = disjoint_pair_packing(6, 36);
        let origins: Vec<usize> = (0..2 * g.n()).map(|i| i % g.n()).collect();
        for config in [GossipConfig::default(), GossipConfig::weighted()] {
            let base = gossip_via_trees_with(&g, &packing, &origins, 3, config);
            let faulty =
                gossip_via_trees_faulty(&g, &packing, &origins, 3, config, &FaultPlan::none())
                    .unwrap();
            assert_eq!(faulty, base, "{config:?}");
        }
    }

    #[test]
    fn vertex_faults_below_connectivity_still_deliver_everything() {
        // Theorem 1.1's robustness reading: f < k faults against a
        // k-connected instance leave the survivors connected, and the
        // repair pass reroutes every message — nothing is lost and the
        // schedule completes (the function returning at all proves
        // delivery; a stuck message trips the stall assert).
        let (g, packing) = disjoint_pair_packing(8, 64); // K_{8,56}: κ = 8
        let origins: Vec<usize> = (0..g.n()).collect();
        for seed in [1u64, 4] {
            // Faults from round 2 on: every origin has relayed once, so
            // each message has ≥ deg + 1 ≥ 9 holders > f copies alive.
            let plan = FaultPlan::random_vertices(&g, 7, (2, 6), seed);
            for config in [GossipConfig::default(), GossipConfig::weighted()] {
                let r =
                    gossip_via_trees_faulty(&g, &packing, &origins, seed, config, &plan).unwrap();
                assert_eq!(r.lost_messages, 0, "seed {seed} {config:?}");
                assert!(!r.waves.is_empty(), "fault rounds must be sampled");
                let last = r.waves.last().unwrap();
                assert_eq!(last.live_vertices, g.n() - 7);
                assert_eq!(last.faults_fired, 7);
            }
        }
    }

    #[test]
    fn repair_reassigns_to_single_surviving_tree() {
        // Kill one endpoint of three of the four pair trees at round 2:
        // every message on a broken tree must move to the sole intact
        // tree (f = 3 < κ = 4, so nothing is lost).
        let (g, packing) = disjoint_pair_packing(4, 16);
        let origins: Vec<usize> = (0..g.n()).collect();
        let plan = FaultPlan::new([0, 1, 2].map(|v| ScheduledFault {
            round: 2,
            fault: Fault::Vertex(v),
        }));
        for config in [GossipConfig::default(), GossipConfig::weighted()] {
            let r = gossip_via_trees_faulty(&g, &packing, &origins, 2, config, &plan).unwrap();
            assert_eq!(r.lost_messages, 0, "{config:?}");
            assert_eq!(r.waves.len(), 1);
            let s = r.waves[0];
            assert_eq!(s.round, 2);
            assert_eq!(s.surviving_trees, 1, "only pair tree 3 stays intact");
            assert!(
                s.reassigned_messages > 0,
                "messages on broken trees must be rerouted"
            );
        }
    }

    #[test]
    fn flood_fallback_carries_messages_when_every_tree_breaks() {
        // Break all four pair trees (three left endpoints plus tree 3's
        // right endpoint) while keeping the survivors connected through
        // left vertex 3: with no tree intact, messages fall back to
        // flooding and still complete.
        let (g, packing) = disjoint_pair_packing(4, 16);
        let origins: Vec<usize> = (0..g.n()).collect();
        let plan = FaultPlan::new([0, 1, 2, 4 + 3].map(|v| ScheduledFault {
            round: 3,
            fault: Fault::Vertex(v),
        }));
        for config in [GossipConfig::default(), GossipConfig::weighted()] {
            let r = gossip_via_trees_faulty(&g, &packing, &origins, 6, config, &plan).unwrap();
            assert_eq!(r.lost_messages, 0, "{config:?}");
            let s = r.waves[0];
            assert_eq!(s.surviving_trees, 0, "every tree must be broken");
            assert!(s.reassigned_messages > 0);
        }
    }

    #[test]
    fn cut_tree_edge_breaks_the_tree_without_killing_vertices() {
        // An edge fault on pair tree 0's only edge retires the tree but
        // keeps both endpoints alive and counting toward delivery.
        let (g, packing) = disjoint_pair_packing(4, 16);
        let origins: Vec<usize> = (0..g.n()).collect();
        let plan = FaultPlan::new([ScheduledFault {
            round: 2,
            fault: Fault::Edge(0, 4),
        }]);
        let r = gossip_via_trees_faulty(&g, &packing, &origins, 9, GossipConfig::default(), &plan)
            .unwrap();
        assert_eq!(r.lost_messages, 0);
        let s = r.waves[0];
        assert_eq!(s.live_vertices, g.n(), "edge cuts kill no vertex");
        assert_eq!(s.surviving_trees, 3, "pair tree 0 lost its only edge");
    }

    #[test]
    fn faulty_runs_are_seed_deterministic() {
        let (g, packing) = disjoint_pair_packing(6, 36);
        let origins: Vec<usize> = (0..2 * g.n()).map(|i| i % g.n()).collect();
        let plan = FaultPlan::random_vertices(&g, 5, (2, 8), 13);
        for config in [GossipConfig::default(), GossipConfig::weighted()] {
            let a = gossip_via_trees_faulty(&g, &packing, &origins, 8, config, &plan).unwrap();
            let b = gossip_via_trees_faulty(&g, &packing, &origins, 8, config, &plan).unwrap();
            assert_eq!(a, b, "same plan + seed must reproduce bit-identically");
        }
    }

    #[test]
    fn faulty_rejects_bad_inputs_with_typed_errors_not_panics() {
        let (g, packing) = disjoint_pair_packing(4, 16);
        let plan = FaultPlan::none();
        assert_eq!(
            gossip_via_trees_faulty(
                &g,
                &DomTreePacking::default(),
                &[0],
                0,
                GossipConfig::default(),
                &plan
            ),
            Err(GossipError::EmptyPacking)
        );
        let split = Graph::from_edges(4, [(0, 1), (2, 3)]);
        assert_eq!(
            gossip_via_trees_faulty(&split, &packing, &[0], 0, GossipConfig::default(), &plan),
            Err(GossipError::Disconnected)
        );
        // All-zero weights — the shape pruning can leave behind — must
        // come back as an error under weighted choice, not a panic.
        let mut zeroed = packing.clone();
        for t in &mut zeroed.trees {
            t.weight = 0.0;
        }
        assert_eq!(
            gossip_via_trees_faulty(&g, &zeroed, &[0], 0, GossipConfig::weighted(), &plan),
            Err(GossipError::ZeroWeightPacking)
        );
        // ... but greedy sharing with uniform choice never reads the
        // weights, so the same packing still runs.
        let r = gossip_via_trees_faulty(&g, &zeroed, &[0], 0, GossipConfig::default(), &plan);
        assert!(r.is_ok());
    }
}
