//! Gossiping as a real V-CONGEST protocol.
//!
//! [`crate::gossip`] simulates the Appendix-A schedule centrally; this
//! module runs the same dissemination as actual message passing on the
//! simulator — each node broadcasts at most one `(message, tree)` token
//! per round, tree members relay tokens of their tree, and every node
//! collects everything it hears. The two implementations must agree on
//! completeness, and their round counts must stay within a small factor
//! (the central scheduler picks relays greedily; the protocol relays
//! FIFO), which the tests check.
//!
//! Tokens carry the tree chosen at the origin, drawn by the schedule's
//! own assignment: under [`GossipConfig::Weighted`] from the shared
//! weight-proportional sampler
//! ([`decomp_core::packing::TreeSampler`]), so the protocol follows the
//! same fractional-regime assignment as the schedule-level simulation.
//!
//! Under [`GossipConfig::Rlnc`] the protocol forwards no tree tokens at all:
//! each node runs one [`RlncDecoder`] per generation and broadcasts
//! seeded-random GF(2⁸) combinations of its received rows — coefficients
//! packed into the V-CONGEST word budget, payloads the known
//! [`symbol_word`] of each message so completion is checked by actually
//! decoding. Coefficient draws come from the simulator's per-node RNG
//! streams (the model's private coins), which is what makes the run
//! bit-identical across engines.

use crate::churn::certify_class;
use crate::gossip::{assign_trees, check_inputs, GossipConfig, GossipError};
use crate::rlnc::{symbol_word, RlncDecoder};
use crate::schedule::{dominates, tree_load, tree_ok, BitRows};
use decomp_congest::{
    EngineKind, Fault, FaultPlan, FaultState, Inbox, Message, Model, NodeCtx, NodeProgram,
    RunStats, ScheduledFault, Simulator,
};
use decomp_core::cds::centralized::CdsPacking;
use decomp_core::cds::class_state::ClassState;
use decomp_core::cds::tree_extract::to_dom_tree_packing_with_state;
use decomp_core::packing::DomTreePacking;
use decomp_graph::{Graph, NodeId, TopologyView};
use rand::Rng;
use std::collections::{BTreeSet, VecDeque};

struct GossipProgram {
    /// Sorted tree ids this node belongs to.
    trees: Vec<u32>,
    /// Tokens to relay, FIFO: (msg id, tree id).
    queue: VecDeque<(u64, u64)>,
    /// Message ids already queued/relayed here, one bit per id in a
    /// one-row [`BitRows`] of `⌈nmsg/64⌉` words (ids are dense,
    /// `0..nmsg`). Keyed on the message alone — a message rides exactly
    /// one tree, chosen at its origin, so one relay per node covers it.
    /// Origins enter at injection time: an origin inside its own tree
    /// must not re-queue its message when the broadcast echoes back via
    /// a neighbor.
    seen: BitRows,
    /// All message ids received, one bit per id like `seen`.
    received: BitRows,
    /// Set bits of `received`: the run is complete at this node when it
    /// reaches `nmsg`.
    received_count: usize,
    /// Initial injections for messages originating here.
    inject: VecDeque<(u64, u64)>,
    /// Deliveries of messages this node already held
    /// ([`RunStats::wasted_bandwidth`]).
    wasted: usize,
}

impl GossipProgram {
    /// Whether message `m` has reached this node.
    fn has(&self, m: usize) -> bool {
        self.received.get(0, m)
    }

    /// Marks `msg` received; false if it already was.
    fn receive(&mut self, msg: u64) -> bool {
        let fresh = !self.has(msg as usize);
        if fresh {
            self.received.set(0, msg as usize);
            self.received_count += 1;
        }
        fresh
    }

    fn accept(&mut self, msg: u64, tree: u64) {
        if !self.receive(msg) {
            self.wasted += 1;
        }
        if self.trees.binary_search(&(tree as u32)).is_ok() && !self.seen.get(0, msg as usize) {
            self.seen.set(0, msg as usize);
            self.queue.push_back((msg, tree));
        }
    }
}

impl NodeProgram for GossipProgram {
    fn round(&mut self, ctx: &mut NodeCtx<'_>, inbox: &Inbox<'_>) {
        for (_, m) in inbox {
            self.accept(m.word(0), m.word(1));
        }
        if let Some((msg, tree)) = self.inject.pop_front() {
            self.receive(msg);
            ctx.broadcast(Message::from_words([msg, tree]));
            return;
        }
        if let Some((msg, tree)) = self.queue.pop_front() {
            ctx.broadcast(Message::from_words([msg, tree]));
        }
    }

    fn is_done(&self) -> bool {
        self.queue.is_empty() && self.inject.is_empty()
    }
}

/// Payload bytes each coded packet carries (one simulator word).
const RLNC_PAYLOAD: usize = 8;

/// Per-node program of the network-coded regime: one [`RlncDecoder`]
/// per generation; every round the node broadcasts a random combination
/// of one generation's received rows, drawn from the simulator's
/// per-node RNG stream.
///
/// Quiescence: a node keeps relaying a generation until every neighbor
/// has *announced* completion (broadcast it at full rank — any full-rank
/// send doubles as the announcement, and a freshly complete node
/// prioritizes announcing each generation once over random relaying).
/// `is_done` holds when every generation is complete, announced, and
/// announced-by-every-neighbor, so the run quiesces exactly when no
/// packet could still teach anyone anything.
struct RlncGossipProgram {
    /// Per-generation sizes (the last generation may be short).
    sizes: Vec<usize>,
    degree: usize,
    decoders: Vec<RlncDecoder>,
    /// Per generation: neighbors that have broadcast it at full rank,
    /// ascending.
    nbr_complete: Vec<Vec<NodeId>>,
    /// Per generation: whether this node has broadcast it at full rank.
    announced: Vec<bool>,
    /// Non-innovative receptions ([`RunStats::wasted_bandwidth`]).
    wasted: usize,
}

impl RlncGossipProgram {
    fn new(sizes: &[usize], degree: usize) -> Self {
        RlncGossipProgram {
            sizes: sizes.to_vec(),
            degree,
            decoders: sizes
                .iter()
                .map(|&s| RlncDecoder::new(s, RLNC_PAYLOAD))
                .collect(),
            nbr_complete: vec![Default::default(); sizes.len()],
            announced: vec![false; sizes.len()],
            wasted: 0,
        }
    }
}

impl NodeProgram for RlncGossipProgram {
    fn round(&mut self, ctx: &mut NodeCtx<'_>, inbox: &Inbox<'_>) {
        let mut pkt = Vec::new();
        for (from, m) in inbox {
            // Wire format: word 0 = generation | sender rank << 32, then
            // ⌈size/8⌉ words of LE-packed coefficient bytes, then the
            // payload word.
            let w0 = m.word(0);
            let gen = (w0 & 0xffff_ffff) as usize;
            let sender_rank = (w0 >> 32) as usize;
            let size = self.sizes[gen];
            if sender_rank == size {
                let done = &mut self.nbr_complete[gen];
                if let Err(pos) = done.binary_search(&from) {
                    done.insert(pos, from);
                }
            }
            pkt.clear();
            pkt.resize(size + RLNC_PAYLOAD, 0);
            for (i, b) in pkt[..size].iter_mut().enumerate() {
                *b = (m.word(1 + i / 8) >> (8 * (i % 8))) as u8;
            }
            pkt[size..].copy_from_slice(&m.word(1 + size.div_ceil(8)).to_le_bytes());
            if !self.decoders[gen].receive(&pkt) {
                self.wasted += 1;
            }
        }
        // Send: first announce any freshly completed generation (lowest
        // index first), else relay a random generation some neighbor
        // still needs.
        let gen = (0..self.sizes.len())
            .find(|&g| self.decoders[g].is_complete() && !self.announced[g])
            .or_else(|| {
                let sendable: Vec<usize> = (0..self.sizes.len())
                    .filter(|&g| {
                        self.decoders[g].rank() > 0 && self.nbr_complete[g].len() < self.degree
                    })
                    .collect();
                if sendable.is_empty() {
                    None
                } else {
                    Some(sendable[ctx.rng().gen_range(0..sendable.len())])
                }
            });
        let Some(gen) = gen else { return };
        let size = self.sizes[gen];
        let mut out = vec![0u8; size + RLNC_PAYLOAD];
        self.decoders[gen].combine(ctx.rng(), &mut out);
        let rank = self.decoders[gen].rank();
        if rank == size {
            self.announced[gen] = true;
        }
        let mut words = Vec::with_capacity(2 + size.div_ceil(8));
        words.push(gen as u64 | ((rank as u64) << 32));
        for chunk in out[..size].chunks(8) {
            let mut w = 0u64;
            for (j, &b) in chunk.iter().enumerate() {
                w |= (b as u64) << (8 * j);
            }
            words.push(w);
        }
        words.push(u64::from_le_bytes(out[size..].try_into().expect("8 bytes")));
        ctx.broadcast(Message::from_words(words));
    }

    fn is_done(&self) -> bool {
        (0..self.sizes.len()).all(|g| {
            self.decoders[g].is_complete()
                && self.announced[g]
                && self.nbr_complete[g].len() == self.degree
        })
    }
}

/// Result of a message-passing gossip run: fault-free, faulty, or under
/// churn.
#[derive(Clone, Debug)]
pub struct DistGossipReport {
    /// Whether every (surviving) node received every message that was
    /// not lost outright.
    pub complete: bool,
    /// Messages whose every copy sat on a dead node when the faulted
    /// phase quiesced (possible only when an origin dies before its
    /// first broadcast, or when faults exceed the packing's
    /// connectivity). Zero on fault-free runs.
    pub lost_messages: usize,
    /// Tokens assigned to each tree at the origin, as in
    /// [`crate::gossip::GossipReport::per_tree_load`].
    pub per_tree_load: Vec<usize>,
    /// Touched classes whose dominating tree was re-extracted from the
    /// incrementally repacked [`ClassState`] for the repair phase (churn
    /// only).
    pub reextractions: usize,
    /// Carriers the repair phase may re-inject on: trees still intact on
    /// the survivors, or classes certified over them under churn. Every
    /// tree of the packing on a fault-free run.
    pub intact_carriers: usize,
    /// Full simulator statistics, cumulative over both phases of a
    /// faulty or churn run — rounds, messages, words, the peak-memory
    /// counters (`peak_queued_messages` / `peak_arena_words`), and the
    /// protocol-set repair counters ([`RunStats::repair_events`] counts
    /// the re-injected messages).
    pub stats: RunStats,
}

/// Runs the Appendix-A gossip as a V-CONGEST protocol on a caller-supplied
/// simulator (engine included — the regression suites sweep
/// `DECOMP_ENGINE` through here): message `i` starts at `origins[i]`,
/// gets a tree of `packing` (uniformly, or weight-proportionally under
/// [`GossipConfig::Weighted`] — the same draw as the schedule's), and is
/// relayed FIFO by that tree's members; weighted time-sharing does not
/// apply here. `seed` drives the message-to-tree assignment only;
/// per-node RNG streams come from the simulator itself.
///
/// # Errors
/// A disconnected simulator graph, an empty packing, or (under weighted
/// choice) a weightless one come back as [`GossipError`]s, simulator
/// round-limit errors as [`GossipError::Sim`].
///
/// # Panics
/// Panics if the simulator is not in [`Model::VCongest`], or under
/// [`GossipConfig::Rlnc`] with a generation size out of range.
pub fn gossip_protocol_on(
    sim: &mut Simulator<'_>,
    packing: &DomTreePacking,
    origins: &[NodeId],
    seed: u64,
    config: GossipConfig,
) -> Result<DistGossipReport, GossipError> {
    let g = sim.graph();
    assert_eq!(
        sim.model(),
        Model::VCongest,
        "gossip is a V-CONGEST protocol"
    );
    check_inputs(g, packing, config)?;
    let weighted = match config {
        GossipConfig::Rlnc {
            generation_size, ..
        } => return rlnc_protocol_on(sim, packing, origins, generation_size),
        GossipConfig::Uniform => false,
        GossipConfig::Weighted => true,
    };
    let n = g.n();
    let tree_of = assign_trees(packing, origins.len(), seed, weighted);
    let programs = gossip_programs(
        tree_membership(packing, n),
        injections(&tree_of, origins, n),
        origins.len(),
    );
    let (programs, mut stats) = sim
        .run(programs, 64 * (n + origins.len()) + 4096)
        .map_err(GossipError::Sim)?;
    stats.wasted_bandwidth = programs.iter().map(|p| p.wasted).sum();
    Ok(DistGossipReport {
        complete: programs.iter().all(|p| p.received_count == origins.len()),
        lost_messages: 0,
        per_tree_load: tree_load(&tree_of, packing.num_trees()),
        reextractions: 0,
        intact_carriers: packing.num_trees(),
        stats,
    })
}

/// Injection queues per origin: message `i` starts at `origins[i]` on
/// tree `tree_of[i]`.
fn injections(tree_of: &[usize], origins: &[NodeId], n: usize) -> Vec<VecDeque<(u64, u64)>> {
    let mut injections: Vec<VecDeque<(u64, u64)>> = vec![VecDeque::new(); n];
    for (i, (&origin, &tree)) in origins.iter().zip(tree_of).enumerate() {
        injections[origin].push_back((i as u64, tree as u64));
    }
    injections
}

/// `membership[v]`: the sorted ids of the trees containing `v`.
fn tree_membership(packing: &DomTreePacking, n: usize) -> Vec<Vec<u32>> {
    let mut membership: Vec<Vec<u32>> = vec![Vec::new(); n];
    for (t, tree) in packing.trees.iter().enumerate() {
        for v in tree.vertices(n) {
            membership[v].push(t as u32);
        }
    }
    membership
}

/// One [`GossipProgram`] per node over message ids `0..nmsg`: it relays
/// tokens of the carriers in `membership[v]` and starts by injecting
/// `injections[v]`.
fn gossip_programs(
    membership: Vec<Vec<u32>>,
    injections: Vec<VecDeque<(u64, u64)>>,
    nmsg: usize,
) -> Vec<GossipProgram> {
    membership
        .into_iter()
        .zip(injections)
        .map(|(trees, inject)| {
            // Injected messages are seen at injection: the origin
            // broadcasts each exactly once, so a tree-member origin must
            // not re-queue its own message when the echo arrives.
            let mut seen = BitRows::new(1, nmsg);
            for &(m, _) in &inject {
                seen.set(0, m as usize);
            }
            GossipProgram {
                trees,
                queue: VecDeque::new(),
                seen,
                received: BitRows::new(1, nmsg),
                received_count: 0,
                inject,
                wasted: 0,
            }
        })
        .collect()
}

/// The [`GossipConfig::Rlnc`] body of [`gossip_protocol_on`]: one
/// [`RlncGossipProgram`] per node over generations of `gsize` messages.
/// Tree assignment is skipped entirely (coded packets ride no tree, so
/// `per_tree_load` is all zeros) and the regime's coefficient seed is
/// unused here — at the protocol layer the coefficient draws are the
/// nodes' private coins, i.e. the simulator's per-node RNG streams,
/// which is what keeps the run bit-identical across engines. Completion
/// is verified by *decoding*: every generation at every node must
/// reconstruct the known [`symbol_word`] payloads, not merely reach
/// full rank.
fn rlnc_protocol_on(
    sim: &mut Simulator<'_>,
    packing: &DomTreePacking,
    origins: &[NodeId],
    gsize: usize,
) -> Result<DistGossipReport, GossipError> {
    let g = sim.graph();
    let n = g.n();
    let nmsg = origins.len();
    assert!(
        (1..=crate::rlnc::MAX_GENERATION).contains(&gsize),
        "generation_size must be in 1..={}",
        crate::rlnc::MAX_GENERATION
    );
    // Header word + packed coefficient bytes + payload word must fit
    // one V-CONGEST message.
    assert!(
        2 + gsize.div_ceil(8) <= decomp_congest::sim::DEFAULT_WORD_BUDGET,
        "generation_size {gsize} overflows the V-CONGEST word budget (max {})",
        8 * (decomp_congest::sim::DEFAULT_WORD_BUDGET - 2)
    );
    let gens = nmsg.div_ceil(gsize);
    let sizes: Vec<usize> = (0..gens).map(|gen| gsize.min(nmsg - gen * gsize)).collect();
    let mut programs: Vec<RlncGossipProgram> = (0..n)
        .map(|v| RlncGossipProgram::new(&sizes, g.neighbors(v).len()))
        .collect();
    // Origins hold their symbols as unit coefficient vectors.
    for (m, &origin) in origins.iter().enumerate() {
        let seeded = programs[origin].decoders[m / gsize]
            .receive_symbol(m % gsize, &symbol_word(m).to_le_bytes());
        debug_assert!(seeded, "distinct unit seeds are always innovative");
    }
    let (programs, mut stats) = sim
        .run(programs, 64 * (n + nmsg) + 4096)
        .map_err(GossipError::Sim)?;
    stats.wasted_bandwidth = programs.iter().map(|p| p.wasted).sum();
    let complete = programs.iter().all(|p| {
        (0..gens).all(|gen| match p.decoders[gen].decode() {
            None => false,
            Some(payloads) => payloads
                .iter()
                .enumerate()
                .all(|(i, payload)| payload[..] == symbol_word(gen * gsize + i).to_le_bytes()),
        })
    });
    Ok(DistGossipReport {
        complete,
        lost_messages: 0,
        per_tree_load: vec![0; packing.num_trees()],
        reextractions: 0,
        intact_carriers: packing.num_trees(),
        stats,
    })
}

/// Sentinel token tree id: a flood token, relayed by every surviving
/// node instead of one tree's members.
const FLOOD_TOKEN: u32 = u32::MAX;

/// [`gossip_protocol_on`] under a seeded [`FaultPlan`], in two phases:
/// the protocol first runs on a faulted simulator (dead nodes fall
/// silent mid-round, in-flight messages drop — the engine-level
/// semantics of `decomp_congest::fault`), then any message a surviving
/// node is still missing is re-injected from a live holder on the
/// lowest-id tree that is intact on the survivors — or as a flood token
/// every survivor relays — on a second, fault-quiesced simulator run.
/// Statistics are cumulative across both phases.
///
/// With `f < k` faults against a `k`-connected packing and fault rounds
/// late enough for each origin's first broadcast (round ≥ 2), no
/// message is lost and `complete` holds on every fixture family — the
/// protocol-level counterpart of
/// [`crate::gossip::gossip_via_trees_faulty`].
///
/// # Errors
/// The plan is [validated](FaultPlan::validate) first, and
/// [`GossipConfig::Rlnc`] is refused as [`GossipError::UnsupportedRegime`]
/// (the repair reasons about trees); then the input checks of
/// [`gossip_protocol_on`], and simulator round-limit errors from either
/// phase as [`GossipError::Sim`].
pub fn gossip_protocol_faulty(
    g: &Graph,
    packing: &DomTreePacking,
    origins: &[NodeId],
    seed: u64,
    config: GossipConfig,
    plan: &FaultPlan,
    engine: EngineKind,
) -> Result<DistGossipReport, GossipError> {
    check_two_phase(g, config, plan)?;
    // Phase-2 carriers: the packing's trees still intact on the
    // survivors.
    let carriers = |ft: &FaultState<'_>| {
        let member = BitRows::from_trees(packing, g.n());
        let trees = packing.trees.iter().enumerate();
        let intact = trees
            .map(|(t, tree)| tree_ok(g, ft, t, tree, &member))
            .collect();
        (member, intact, 0)
    };
    let view = TopologyView::Static(g);
    run_two_phase(
        g, view, packing, origins, seed, config, plan, engine, carriers,
    )
}

/// [`gossip_protocol_faulty`] for live churn: the plan may also carry
/// [`Fault::AddVertex`] / [`Fault::AddEdge`] events (the engines handle
/// dormancy natively), and the repair phase re-injects on trees
/// **re-extracted between the phases** from the incrementally
/// repacked [`ClassState`] — flood fallback only when a message's
/// holders sit outside every certified class.
///
/// `topology` is a settled `&Graph` or a growing
/// [`GrowableGraph`](decomp_graph::GrowableGraph). On a growing one,
/// phase 1 runs the engines over the growth view (a [`Simulator`] built
/// over `&gg`) — each round's neighbor lists are the edges with
/// activation epoch `<= round`, so no engine ever sees the final
/// adjacency up front — and class-free arrivals (vertices the
/// packing predates) are *admitted* into the class state between the
/// phases ([`ClassState::admit_vertex`]), so repair re-injection serves
/// them from re-extracted trees instead of flooding. A settled run
/// counts every class-free arrival against the flood fallback.
/// [`RunStats::admitted_via_packing`] / [`RunStats::flood_served`]
/// report the split. The repair phase runs over the final topology (its
/// quiesced round-0 plan activates everything immediately). Build a
/// growing topology with [`FaultPlan::growth_topology`] so overlay
/// epochs match the plan's arrival rounds. Engine choice never changes
/// any output, growing or settled.
///
/// `state` must be the [`ClassState`] the `cds` packing was built with
/// over the **final** topology
/// ([`cds_packing_with_state`](decomp_core::cds::centralized::cds_packing_with_state));
/// on return it reflects the post-churn membership. Packed arrivals are
/// membership no-ops here (the state already holds the final
/// population), so only deaths, cuts and admissions repack — each
/// touching only its own classes.
///
/// # Errors
/// As [`gossip_protocol_faulty`]; [`GossipError::EmptyPacking`] when no
/// class certifies over the final topology.
#[allow(clippy::too_many_arguments)] // churn protocol plumbing
pub fn gossip_protocol_churn<'g>(
    topology: impl Into<TopologyView<'g>>,
    cds: &CdsPacking,
    state: &mut ClassState,
    origins: &[NodeId],
    seed: u64,
    config: GossipConfig,
    plan: &FaultPlan,
    engine: EngineKind,
) -> Result<DistGossipReport, GossipError> {
    let view = topology.into();
    let g = view.final_graph();
    let g: &Graph = &g;
    check_two_phase(g, config, plan)?;
    let n = g.n();
    let num_classes = cds.num_classes();
    // Phase-1 routing: trees certified over the final topology (dormant
    // members simply stay silent until they arrive).
    let packing = to_dom_tree_packing_with_state(g, cds, state).packing;
    let (mut admitted_via_packing, mut flood_served) = (0, 0);
    let carriers = |ft: &FaultState<'_>| {
        // Apply the churn to the class state. The state already holds
        // the final membership of every *packed* vertex, so those
        // arrivals repack nothing; deaths and cuts each repair exactly
        // their touched classes. A class-free arrival — a vertex the
        // packing predates — is admitted incrementally on a growing
        // topology (tree service for the newcomer) and counted against
        // the flood fallback otherwise.
        let keep = |u, v| ft.deliverable(u, v);
        let mut touched: BTreeSet<usize> = BTreeSet::new();
        for e in plan.events() {
            let entered = match e.fault {
                Fault::Vertex(v) => state.delete_vertex(g, keep, v),
                Fault::Edge(u, v) => state.delete_edge(g, keep, u, v),
                Fault::AddVertex(v) if !ft.is_dead(v) && state.classes_at(v).is_empty() => {
                    let entered = if view.is_static() {
                        Vec::new()
                    } else {
                        state.admit_vertex(g, keep, v)
                    };
                    if entered.is_empty() {
                        flood_served += 1;
                    } else {
                        admitted_via_packing += 1;
                    }
                    entered
                }
                Fault::AddVertex(_) | Fault::AddEdge(..) => Vec::new(),
            };
            touched.extend(entered.into_iter().map(|c| c as usize));
        }
        let mut member = BitRows::new(num_classes, n);
        for v in 0..n {
            for &c in state.classes_at(v) {
                member.set(c as usize, v);
            }
        }
        // Re-extraction between the phases: untouched certified classes
        // keep their tree (members and tree edges intact — only
        // domination can break, through a cut to a non-member); touched
        // ones re-certify from the repaired state, which can also revive
        // classes that were invalid over the full topology.
        let mut certified = vec![false; num_classes];
        for tree in &packing.trees {
            certified[tree.id] = !touched.contains(&tree.id) && dominates(g, ft, &member, tree.id);
        }
        let mut reextracted = 0;
        for &c in &touched {
            certified[c] = certify_class(g, ft, state, &member, c).is_some();
            reextracted += certified[c] as usize;
        }
        (member, certified, reextracted)
    };
    let mut report = run_two_phase(
        g, view, &packing, origins, seed, config, plan, engine, carriers,
    )?;
    report.stats.admitted_via_packing = admitted_via_packing;
    report.stats.flood_served = flood_served;
    Ok(report)
}

/// The checks every two-phase protocol runs before it builds its
/// packing; [`run_two_phase`] checks the rest ([`check_inputs`]).
fn check_two_phase(g: &Graph, config: GossipConfig, plan: &FaultPlan) -> Result<(), GossipError> {
    plan.validate(g).map_err(GossipError::Plan)?;
    // The repair phase reasons about surviving *trees*; coded gossip has
    // no tree-bound repair story at the protocol layer — the
    // schedule-level `gossip_via_trees_faulty` covers RLNC under faults.
    match config {
        GossipConfig::Uniform | GossipConfig::Weighted => Ok(()),
        GossipConfig::Rlnc { .. } => Err(GossipError::UnsupportedRegime),
    }
}

/// The one two-phase body. Phase 1 runs the protocol over `packing` on
/// a simulator of `g` (the final topology) under `plan`, delivering
/// through `view` when the topology grows. Then `carriers`, given the
/// survivors' view (every event fired), returns per carrier id its
/// membership row, whether it is intact, and how many carriers it
/// re-extracted; every message a survivor still misses is re-injected
/// from a live holder on the lowest-id intact carrier it can join, or as
/// a flood token, and phase 2 runs the re-injections on a fault-quiesced
/// simulator (every event at round 0, seed `seed ^ 0xf1f0_0d17`).
#[allow(clippy::too_many_arguments)] // two-phase protocol plumbing
fn run_two_phase(
    g: &Graph,
    view: TopologyView<'_>,
    packing: &DomTreePacking,
    origins: &[NodeId],
    seed: u64,
    config: GossipConfig,
    plan: &FaultPlan,
    engine: EngineKind,
    carriers: impl FnOnce(&FaultState<'_>) -> (BitRows, Vec<bool>, usize),
) -> Result<DistGossipReport, GossipError> {
    check_inputs(g, packing, config)?;
    let n = g.n();
    let nmsg = origins.len();
    let tree_of = assign_trees(packing, nmsg, seed, config == GossipConfig::Weighted);
    // The run idles until the last arrival if it must.
    let last_event = plan.events().last().map_or(0, |e| e.round);
    let cap = 64 * (n + nmsg) + 4096 + last_event;

    // Phase 1: the protocol under fire. A growing run delivers over the
    // view (base CSR + epoch-stamped overlay) — the base is the engines'
    // bookkeeping topology, never their adjacency source.
    let mut sim = Simulator::with_seed(view, Model::VCongest, seed)
        .with_engine(engine)
        .with_faults(plan.clone());
    let programs = gossip_programs(
        tree_membership(packing, n),
        injections(&tree_of, origins, n),
        nmsg,
    );
    let (phase1, mut stats) = sim.run(programs, cap).map_err(GossipError::Sim)?;
    stats.wasted_bandwidth = phase1.iter().map(|p| p.wasted).sum();

    // The survivors' view once every event has fired: arrivals are all
    // present, so only kills and cuts remain.
    let mut ft = FaultState::new(plan, n);
    ft.advance_to(usize::MAX);
    let (member, intact, reextractions) = carriers(&ft);

    // Repair: re-inject every message some survivor is still missing,
    // from a live holder, on an intact carrier (or as a flood).
    let mut reinjections: Vec<VecDeque<(u64, u64)>> = vec![VecDeque::new(); n];
    let mut lost = vec![false; nmsg];
    let mut reinjected = 0usize;
    let mut any_flood = false;
    for (m, &origin) in origins.iter().enumerate() {
        let has = |v: usize| phase1[v].has(m);
        if (0..n).all(|v| ft.is_dead(v) || has(v)) {
            continue;
        }
        let holders: Vec<usize> = (0..n).filter(|&v| !ft.is_dead(v) && has(v)).collect();
        if holders.is_empty() {
            lost[m] = true;
            continue;
        }
        let eligible = |c: usize, v: usize| member.get(c, v) || v == origin;
        let carrier = (0..intact.len())
            .find(|&c| intact[c] && holders.iter().any(|&v| eligible(c, v)))
            .map_or(FLOOD_TOKEN, |c| c as u32);
        let injector = *holders
            .iter()
            .find(|&&v| carrier == FLOOD_TOKEN || eligible(carrier as usize, v))
            .expect("carrier choice guarantees an eligible holder");
        reinjections[injector].push_back((m as u64, carrier as u64));
        reinjected += 1;
        any_flood |= carrier == FLOOD_TOKEN;
    }

    // Messages neither delivered everywhere nor re-injected are lost —
    // with no survivor holding a copy, the repair phase has nothing to
    // work with, so completeness is judged over the rest.
    stats.repair_events += reinjected;
    let mut complete = true;
    if reinjected > 0 {
        // Members of intact carriers relay their carrier's tokens; every
        // survivor relays floods.
        let membership: Vec<Vec<u32>> = (0..n)
            .map(|v| {
                (0..intact.len())
                    .filter(|&c| intact[c] && member.get(c, v))
                    .map(|c| c as u32)
                    .chain([FLOOD_TOKEN])
                    .collect()
            })
            .collect();
        // Same final topology, quiesced: every event fires at round 0
        // (arrivals at round 0 are simply present from the start).
        let plan0 = FaultPlan::new(plan.events().iter().map(|e| ScheduledFault {
            round: 0,
            fault: e.fault,
        }));
        let mut sim2 = Simulator::with_seed(g, Model::VCongest, seed ^ 0xf1f0_0d17)
            .with_engine(engine)
            .with_faults(plan0);
        let (phase2, stats2) = sim2
            .run(gossip_programs(membership, reinjections, nmsg), cap)
            .map_err(GossipError::Sim)?;
        // Every phase-2 round may carry flood tokens, so the flood
        // column charges the whole repair run when any message fell
        // back to flooding (no intact carrier could take it).
        if any_flood {
            stats.flood_rounds += stats2.rounds;
        }
        stats.absorb(stats2);
        stats.wasted_bandwidth += phase2.iter().map(|p| p.wasted).sum::<usize>();
        complete = (0..n)
            .filter(|&v| !ft.is_dead(v))
            .all(|v| (0..nmsg).all(|m| lost[m] || phase1[v].has(m) || phase2[v].has(m)));
    }
    Ok(DistGossipReport {
        complete,
        lost_messages: lost.iter().filter(|&&l| l).count(),
        per_tree_load: tree_load(&tree_of, packing.num_trees()),
        reextractions,
        intact_carriers: intact.iter().filter(|&&c| c).count(),
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use decomp_core::cds::centralized::{cds_packing, CdsPackingConfig};
    use decomp_core::cds::tree_extract::to_dom_tree_packing;
    use decomp_graph::generators;

    fn packing_for(g: &Graph, k: usize, seed: u64) -> DomTreePacking {
        let p = cds_packing(g, &CdsPackingConfig::with_known_k(k, seed));
        to_dom_tree_packing(g, &p).packing
    }

    /// The protocol on a fresh sequential simulator seeded with `seed`.
    fn protocol(
        g: &Graph,
        packing: &DomTreePacking,
        origins: &[usize],
        seed: u64,
        config: GossipConfig,
    ) -> Result<DistGossipReport, GossipError> {
        let mut sim = Simulator::with_seed(g, Model::VCongest, seed);
        gossip_protocol_on(&mut sim, packing, origins, seed, config)
    }

    #[test]
    fn protocol_delivers_everything() {
        let g = generators::harary(8, 40);
        let packing = packing_for(&g, 8, 1);
        let origins: Vec<usize> = (0..g.n()).collect();
        let r = protocol(&g, &packing, &origins, 5, GossipConfig::default()).unwrap();
        assert!(r.complete, "every node must receive every message");
        assert!(r.stats.rounds > 0);
        assert!(r.stats.messages > 0);
        assert_eq!(r.per_tree_load.iter().sum::<usize>(), origins.len());
    }

    #[test]
    fn agrees_with_schedule_simulation_on_completion() {
        let g = generators::thick_path(4, 6);
        let packing = packing_for(&g, 4, 3);
        let origins: Vec<usize> = (0..2 * g.n()).map(|i| i % g.n()).collect();
        let protocol = protocol(&g, &packing, &origins, 7, GossipConfig::default()).unwrap();
        let schedule = crate::gossip::gossip_via_trees_with(
            &g,
            &packing,
            &origins,
            7,
            GossipConfig::default(),
        );
        assert!(protocol.complete);
        // FIFO relaying is at most a small factor slower than the greedy
        // central scheduler.
        assert!(
            protocol.stats.rounds <= 4 * schedule.rounds + 16,
            "protocol {} vs schedule {}",
            protocol.stats.rounds,
            schedule.rounds
        );
    }

    #[test]
    fn protocol_accounts_every_delivery() {
        // Every node but a message's origin takes each message in once,
        // and every other delivery is wasted: with message counts on
        // both sides of the 64-bit word boundaries of the per-node
        // bitsets, deliveries = nmsg · (n − 1) + wasted on every engine.
        let cases = [
            (generators::harary(8, 40), 8),
            (generators::random_regular(64, 6, 3), 6),
            (generators::thick_path(4, 6), 4),
        ];
        for (g, k) in &cases {
            let packing = packing_for(g, *k, 1);
            let n = g.n();
            for nmsg in [1, 63, 64, 65, 130] {
                let origins: Vec<usize> = (0..nmsg).map(|i| 7 * i % n).collect();
                for config in [GossipConfig::default(), GossipConfig::weighted()] {
                    for engine in decomp_testkit::engines() {
                        let mut sim =
                            Simulator::with_seed(g, Model::VCongest, 9).with_engine(engine);
                        let r =
                            gossip_protocol_on(&mut sim, &packing, &origins, 9, config).unwrap();
                        let case = format!("n = {n}, nmsg = {nmsg}, {config:?}, {engine}");
                        assert!(r.complete, "{case}");
                        assert_eq!(
                            r.stats.messages,
                            nmsg * (n - 1) + r.stats.wasted_bandwidth,
                            "{case}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn single_message_floods_fast() {
        let g = generators::cycle(12);
        let packing = packing_for(&g, 2, 0);
        let r = protocol(&g, &packing, &[4], 1, GossipConfig::default()).unwrap();
        assert!(r.complete);
        assert!(r.stats.rounds <= 40);
    }

    #[test]
    fn empty_workload_no_rounds_needed() {
        let g = generators::cycle(5);
        let packing = packing_for(&g, 2, 0);
        let r = protocol(&g, &packing, &[], 0, GossipConfig::default()).unwrap();
        assert!(r.complete);
    }

    /// A cycle carrying one dominating tree that spans every vertex, so
    /// each origin sits inside the tree carrying its own message — the
    /// configuration that used to double-relay.
    fn full_cycle_packing(n: usize) -> (Graph, DomTreePacking) {
        let g = generators::cycle(n);
        let packing = DomTreePacking {
            trees: vec![decomp_core::packing::WeightedDomTree {
                id: 0,
                weight: 1.0,
                edges: (0..n - 1).map(|i| (i, i + 1)).collect(),
                singleton: None,
            }],
        };
        packing.validate(&g, 1e-9).unwrap();
        (g, packing)
    }

    #[test]
    fn duplicate_relay_regression_origin_broadcasts_once() {
        // Every vertex of the cycle is a member of the one tree, so with
        // no duplicate relays each of the `N` messages is broadcast by
        // each of the `n` vertices exactly once (the origin at injection,
        // everyone else on first reception), and every broadcast delivers
        // to the cycle's 2 neighbors: `RunStats.messages` must equal
        // exactly `2 · n · N`. The pre-fix protocol did not mark injected
        // messages as seen, so a tree-member origin re-queued its own
        // message when the broadcast echoed back via `accept` — one extra
        // broadcast (2 extra deliveries) per message, failing this pin.
        let n = 8;
        let (g, packing) = full_cycle_packing(n);
        let origins: Vec<usize> = (0..n).collect();
        let mut sim = decomp_congest::Simulator::with_seed(&g, Model::VCongest, 3)
            .with_engine(decomp_testkit::engine_from_env());
        let r =
            gossip_protocol_on(&mut sim, &packing, &origins, 3, GossipConfig::default()).unwrap();
        assert!(r.complete, "every node must receive every message");
        assert_eq!(
            r.stats.messages,
            2 * n * origins.len(),
            "per-(node, message) broadcast count must be exactly one \
             broadcast per tree vertex per message — duplicates detected"
        );
    }

    #[test]
    fn faulty_protocol_completes_below_connectivity() {
        // f = 3 < κ = 8 node kills from round 2 on (each origin has
        // broadcast once, so ≥ deg + 1 > f copies exist): nothing is
        // lost and every survivor ends up with every message, possibly
        // via the repair phase.
        let g = generators::harary(8, 40);
        let packing = packing_for(&g, 8, 1);
        let origins: Vec<usize> = (0..g.n()).collect();
        let plan = FaultPlan::random_vertices(&g, 3, (2, 6), 21);
        let r = gossip_protocol_faulty(
            &g,
            &packing,
            &origins,
            5,
            GossipConfig::default(),
            &plan,
            decomp_testkit::engine_from_env(),
        )
        .unwrap();
        assert!(r.complete, "survivors must receive every message");
        assert_eq!(r.lost_messages, 0, "f < k loses nothing");
        assert!(r.stats.rounds > 0);
    }

    #[test]
    fn origin_killed_at_injection_loses_exactly_its_message() {
        // Node 4's message dies with it before the first broadcast; the
        // other messages must still reach every survivor.
        let g = generators::harary(4, 16);
        let packing = packing_for(&g, 4, 2);
        let origins: Vec<usize> = (0..g.n()).collect();
        let plan = FaultPlan::new([ScheduledFault {
            round: 0,
            fault: Fault::Vertex(4),
        }]);
        let r = gossip_protocol_faulty(
            &g,
            &packing,
            &origins,
            7,
            GossipConfig::default(),
            &plan,
            decomp_testkit::engine_from_env(),
        )
        .unwrap();
        assert_eq!(r.lost_messages, 1, "only the dead origin's message dies");
        assert!(
            r.complete,
            "completeness is judged over the non-lost messages"
        );
    }

    #[test]
    fn faulty_protocol_is_engine_equivalent_and_deterministic() {
        let g = generators::harary(6, 30);
        let packing = packing_for(&g, 6, 4);
        let origins: Vec<usize> = (0..g.n()).collect();
        let plan = FaultPlan::random_vertices(&g, 4, (2, 5), 9);
        let run = |engine| {
            let r = gossip_protocol_faulty(
                &g,
                &packing,
                &origins,
                3,
                GossipConfig::weighted(),
                &plan,
                engine,
            )
            .unwrap();
            (
                r.complete,
                r.lost_messages,
                r.per_tree_load.clone(),
                r.stats.locality_blind(),
            )
        };
        let engines = decomp_testkit::engines();
        let baseline = run(engines[0]);
        assert!(baseline.0);
        assert_eq!(baseline.1, 0);
        for &engine in &engines[1..] {
            assert_eq!(run(engine), baseline, "{engine} diverged");
        }
    }

    #[test]
    fn rlnc_protocol_delivers_and_decodes() {
        let g = generators::harary(8, 40);
        let packing = packing_for(&g, 8, 1);
        let origins: Vec<usize> = (0..g.n()).collect();
        let r = protocol(&g, &packing, &origins, 5, GossipConfig::rlnc(8, 3)).unwrap();
        assert!(r.complete, "every node must decode every generation");
        assert!(r.stats.rounds > 0);
        assert!(r.stats.messages > 0);
        // Coded gossip commits to no trees: the per-tree ledger stays empty.
        assert!(r.per_tree_load.iter().all(|&l| l == 0));
        // All-to-all coded gossip on a dense graph inevitably delivers
        // some non-innovative packets — the waste ledger must see them.
        assert!(r.stats.wasted_bandwidth > 0);
    }

    #[test]
    fn rlnc_protocol_is_engine_equivalent_and_deterministic() {
        let g = generators::harary(6, 30);
        let packing = packing_for(&g, 6, 4);
        let origins: Vec<usize> = (0..g.n()).collect();
        let run = |engine| {
            let mut sim =
                decomp_congest::Simulator::with_seed(&g, Model::VCongest, 11).with_engine(engine);
            let r = gossip_protocol_on(&mut sim, &packing, &origins, 11, GossipConfig::rlnc(6, 17))
                .unwrap();
            (
                r.complete,
                r.per_tree_load.clone(),
                r.stats.locality_blind(),
            )
        };
        let engines = decomp_testkit::engines();
        let baseline = run(engines[0]);
        assert!(baseline.0);
        for &engine in &engines[1..] {
            assert_eq!(run(engine), baseline, "{engine} diverged");
        }
        // Double-run under the same engine: bit-identical, not just close.
        assert_eq!(run(engines[0]), baseline, "re-run diverged");
    }

    #[test]
    fn churn_protocol_reextracts_and_serves_survivors() {
        use decomp_core::cds::centralized::cds_packing_with_state;
        // One mid-run kill and one arrival: the kill touches its
        // classes (incremental repack + tree re-extraction), the
        // arrival is a membership no-op, and every survivor —
        // including the newcomer — must end complete.
        let g = generators::harary(8, 40);
        let (cds, mut state) = cds_packing_with_state(&g, &CdsPackingConfig::with_known_k(8, 1));
        let newcomer = 17;
        let origins: Vec<usize> = (0..g.n()).filter(|&v| v != newcomer).collect();
        let plan = FaultPlan::new([
            ScheduledFault {
                round: 2,
                fault: Fault::AddVertex(newcomer),
            },
            ScheduledFault {
                round: 3,
                fault: Fault::Vertex(5),
            },
        ]);
        let r = gossip_protocol_churn(
            &g,
            &cds,
            &mut state,
            &origins,
            13,
            GossipConfig::default(),
            &plan,
            decomp_testkit::engine_from_env(),
        )
        .unwrap();
        assert!(r.complete, "survivors (incl. the newcomer) must be served");
        assert_eq!(r.lost_messages, 0, "one death below κ loses nothing");
        assert!(r.intact_carriers > 0, "repair must have trees to use");
        // The killed vertex belonged to some class, so its classes were
        // repacked; over this κ=8 graph they stay connected and
        // dominating, so re-extraction succeeds.
        assert!(r.reextractions > 0, "the kill must re-extract its classes");
        // The state now reflects the post-churn membership.
        assert!(state.classes_at(5).is_empty());
    }

    #[test]
    fn churn_protocol_is_engine_equivalent_and_deterministic() {
        use decomp_core::cds::centralized::cds_packing_with_state;
        let g = generators::harary(6, 30);
        let origins: Vec<usize> = (0..g.n()).filter(|&v| v != 11).collect();
        let plan = FaultPlan::new([
            ScheduledFault {
                round: 2,
                fault: Fault::AddVertex(11),
            },
            ScheduledFault {
                round: 2,
                fault: Fault::Edge(0, 1),
            },
            ScheduledFault {
                round: 4,
                fault: Fault::Vertex(3),
            },
        ]);
        let run = |engine| {
            let (cds, mut state) =
                cds_packing_with_state(&g, &CdsPackingConfig::with_known_k(6, 4));
            let r = gossip_protocol_churn(
                &g,
                &cds,
                &mut state,
                &origins,
                3,
                GossipConfig::weighted(),
                &plan,
                engine,
            )
            .unwrap();
            (
                r.complete,
                r.lost_messages,
                r.reextractions,
                r.intact_carriers,
                r.stats.locality_blind(),
            )
        };
        let engines = decomp_testkit::engines();
        let baseline = run(engines[0]);
        assert!(baseline.0);
        for &engine in &engines[1..] {
            assert_eq!(run(engine), baseline, "{engine} diverged");
        }
        assert_eq!(run(engines[0]), baseline, "re-run diverged");
    }

    #[test]
    fn growth_protocol_admits_newcomers_and_is_engine_equivalent() {
        use decomp_core::cds::centralized::cds_packing_with_state;
        // Adjacency revealed only at arrival: vertex 11 is isolated in
        // the base CSR, its edges live in the growth overlay with
        // epoch = its arrival round, and the packing predates it. The
        // run must admit it into a class between the phases and stay
        // bit-identical across every engine.
        let gfull = generators::harary(6, 30);
        let newcomer = 11usize;
        let base = Graph::from_edges(
            gfull.n(),
            (0..gfull.n()).flat_map(|u| {
                gfull
                    .neighbors(u)
                    .iter()
                    .filter(move |&&v| u < v && u != newcomer && v != newcomer)
                    .map(move |&v| (u, v))
            }),
        );
        let mut events = vec![
            ScheduledFault {
                round: 2,
                fault: Fault::AddVertex(newcomer),
            },
            ScheduledFault {
                round: 4,
                fault: Fault::Vertex(3),
            },
        ];
        for &u in gfull.neighbors(newcomer) {
            events.push(ScheduledFault {
                round: 2,
                fault: Fault::AddEdge(newcomer, u),
            });
        }
        let plan = FaultPlan::new(events);
        let gg = plan.growth_topology(&base);
        assert_eq!(gg.overlay_len(), gfull.neighbors(newcomer).len());
        let origins: Vec<usize> = (0..gfull.n()).filter(|&v| v != newcomer).collect();
        let run = |engine| {
            let (mut cds, mut state) =
                cds_packing_with_state(&gfull, &CdsPackingConfig::with_known_k(6, 4));
            // Evict the newcomer: membership exactly as if the packing
            // had been built before it existed.
            for c in state.delete_vertex(&gfull, |_, _| true, newcomer) {
                let ms = &mut cds.classes[c as usize];
                if let Ok(i) = ms.binary_search(&newcomer) {
                    ms.remove(i);
                }
            }
            let r = gossip_protocol_churn(
                &gg,
                &cds,
                &mut state,
                &origins,
                3,
                GossipConfig::weighted(),
                &plan,
                engine,
            )
            .unwrap();
            assert!(!state.classes_at(newcomer).is_empty(), "admitted");
            (
                r.complete,
                r.lost_messages,
                r.reextractions,
                r.intact_carriers,
                r.stats.locality_blind(),
            )
        };
        let engines = decomp_testkit::engines();
        let baseline = run(engines[0]);
        assert!(baseline.0, "the newcomer must be served");
        assert_eq!(baseline.4.admitted_via_packing, 1);
        assert_eq!(baseline.4.flood_served, 0);
        for &engine in &engines[1..] {
            assert_eq!(run(engine), baseline, "{engine} diverged");
        }
        assert_eq!(run(engines[0]), baseline, "re-run diverged");
    }

    #[test]
    fn churn_protocol_rejects_invalid_plans() {
        use decomp_core::cds::centralized::cds_packing_with_state;
        let g = generators::cycle(6);
        let (cds, mut state) = cds_packing_with_state(&g, &CdsPackingConfig::with_classes(1, 0));
        let plan = FaultPlan::new([ScheduledFault {
            round: 1,
            fault: Fault::AddVertex(99),
        }]);
        let err = gossip_protocol_churn(
            &g,
            &cds,
            &mut state,
            &[0],
            1,
            GossipConfig::default(),
            &plan,
            EngineKind::Sequential,
        )
        .unwrap_err();
        assert!(matches!(err, GossipError::Plan(_)), "{err}");
    }

    #[test]
    fn churn_protocol_rejects_a_packing_with_no_certified_class() {
        // One class with no members: nothing certifies, so phase 1 has
        // no tree to route on.
        use decomp_core::virtual_graph::VirtualLayout;
        let g = generators::cycle(6);
        let layout = VirtualLayout::new(g.n(), 4);
        let cds = CdsPacking {
            layout,
            num_classes: 1,
            class_of: vec![None; layout.total()],
            classes: vec![Vec::new()],
            trace: Vec::new(),
        };
        let mut state = ClassState::new(layout, 1);
        let err = gossip_protocol_churn(
            &g,
            &cds,
            &mut state,
            &[0],
            1,
            GossipConfig::default(),
            &FaultPlan::none(),
            EngineKind::Sequential,
        )
        .unwrap_err();
        assert!(matches!(err, GossipError::EmptyPacking), "{err}");
    }

    /// The error [`gossip_protocol_faulty`] returns on these inputs.
    fn faulty_error(g: &Graph, packing: &DomTreePacking, plan: &FaultPlan) -> GossipError {
        gossip_protocol_faulty(
            g,
            packing,
            &[0],
            7,
            GossipConfig::default(),
            plan,
            EngineKind::Sequential,
        )
        .unwrap_err()
    }

    #[test]
    fn faulty_protocol_validates_its_plan() {
        let g = generators::harary(4, 16);
        let packing = packing_for(&g, 4, 2);
        let plan = FaultPlan::new([ScheduledFault {
            round: 2,
            fault: Fault::Vertex(99),
        }]);
        let err = faulty_error(&g, &packing, &plan);
        assert!(matches!(err, GossipError::Plan(_)), "{err}");
    }

    #[test]
    fn faulty_protocol_rejects_an_empty_packing() {
        let g = generators::harary(4, 16);
        let err = faulty_error(&g, &DomTreePacking::default(), &FaultPlan::none());
        assert!(matches!(err, GossipError::EmptyPacking), "{err}");
    }

    #[test]
    fn faulty_protocol_rejects_a_disconnected_graph() {
        let g = Graph::from_edges(4, [(0, 1), (2, 3)]);
        let err = faulty_error(&g, &DomTreePacking::default(), &FaultPlan::none());
        assert!(matches!(err, GossipError::Disconnected), "{err}");
    }

    #[test]
    fn protocol_rejects_an_empty_packing() {
        let g = generators::harary(4, 16);
        let err = protocol(
            &g,
            &DomTreePacking::default(),
            &[0],
            1,
            GossipConfig::default(),
        );
        assert!(matches!(err, Err(GossipError::EmptyPacking)), "{err:?}");
    }

    #[test]
    fn protocol_rejects_a_disconnected_graph() {
        let g = Graph::from_edges(4, [(0, 1), (2, 3)]);
        let packing = DomTreePacking {
            trees: vec![decomp_core::packing::WeightedDomTree {
                id: 0,
                weight: 1.0,
                edges: vec![(0, 1)],
                singleton: None,
            }],
        };
        let err = protocol(&g, &packing, &[0], 1, GossipConfig::default());
        assert!(matches!(err, Err(GossipError::Disconnected)), "{err:?}");
    }

    #[test]
    fn faulty_protocol_rejects_the_rlnc_regime() {
        // Both two-phase entry points refuse the coded regime with a
        // typed error, never a panic.
        use decomp_core::cds::centralized::cds_packing_with_state;
        let g = generators::harary(4, 16);
        let packing = packing_for(&g, 4, 2);
        let plan = FaultPlan::new([]);
        let engine = decomp_testkit::engine_from_env();
        let rlnc = GossipConfig::rlnc(4, 1);
        let faulty = gossip_protocol_faulty(&g, &packing, &[0], 7, rlnc, &plan, engine);
        assert!(
            matches!(faulty, Err(GossipError::UnsupportedRegime)),
            "{faulty:?}"
        );
        let (cds, mut state) = cds_packing_with_state(&g, &CdsPackingConfig::with_known_k(4, 2));
        let churn = gossip_protocol_churn(&g, &cds, &mut state, &[0], 7, rlnc, &plan, engine);
        assert!(
            matches!(churn, Err(GossipError::UnsupportedRegime)),
            "{churn:?}"
        );
    }

    #[test]
    fn weighted_tokens_follow_the_shared_sampler() {
        // Weighted tree choice must route every token off a zero-weight
        // tree; uniform choice keeps using it. Both must still complete.
        let t = 6;
        let g = generators::complete_bipartite(t, 30);
        let mut packing = DomTreePacking {
            trees: (0..t)
                .map(|i| decomp_core::packing::WeightedDomTree {
                    id: i,
                    weight: 1.0,
                    edges: vec![(i, t + i)],
                    singleton: None,
                })
                .collect(),
        };
        packing.trees[0].weight = 0.0;
        let origins: Vec<usize> = (0..2 * g.n()).map(|i| i % g.n()).collect();
        let weighted = protocol(&g, &packing, &origins, 5, GossipConfig::weighted()).unwrap();
        assert!(weighted.complete);
        assert_eq!(
            weighted.per_tree_load[0], 0,
            "zero-weight tree must carry no tokens under weighted choice"
        );
        assert_eq!(weighted.per_tree_load.iter().sum::<usize>(), origins.len());
        let uniform = protocol(&g, &packing, &origins, 5, GossipConfig::default()).unwrap();
        assert!(uniform.complete);
        assert!(
            uniform.per_tree_load[0] > 0,
            "uniform choice ignores weights (premise of the comparison)"
        );
    }
}
