//! The synchronous round-based simulator facade.
//!
//! A [`Simulator`] wraps a [`TopologyView`] — a settled [`Graph`], or a
//! [`GrowableGraph`](decomp_graph::GrowableGraph) whose edges activate
//! at their epochs — as the communication network and runs
//! [`NodeProgram`]s in lockstep rounds, enforcing the bandwidth constraints
//! of the selected [`Model`] and accounting rounds / messages / words.
//! The facade hands the round loop to the backend chosen via
//! [`Simulator::with_engine`] (sequential by default, or the
//! deterministic sharded multi-core backend — see [`crate::engine`] for
//! the bit-for-bit determinism contract between backends).
//!
//! Messages sent in round `r` are delivered at the start of round `r + 1`.
//! A run terminates when every program reports [`NodeProgram::is_done`] and
//! no messages are in flight (quiescence), or errors when `max_rounds` is
//! exceeded.
//!
//! Composite algorithms (the paper's packing constructions are sequences of
//! phases synchronized by round counters) run several programs back to
//! back on one simulator; the cumulative statistics add up across runs.

use crate::engine::{self, EngineKind, NetSpec};
use crate::fault::FaultPlan;
use crate::message::{Message, MsgView};
use decomp_graph::{Graph, NodeId, TopologyView};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt;

/// The communication model (paper, Section 1.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Model {
    /// Each node sends one message per round to *all* neighbors
    /// (local broadcast); congestion sits in the vertices.
    VCongest,
    /// One message per round per edge *direction*; the classical CONGEST
    /// model.
    ECongest,
}

impl fmt::Display for Model {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Model::VCongest => write!(f, "V-CONGEST"),
            Model::ECongest => write!(f, "E-CONGEST"),
        }
    }
}

/// Cost accounting for one run (and cumulatively for a simulator).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Rounds executed.
    pub rounds: usize,
    /// Point-to-point messages delivered (a V-CONGEST broadcast to `d`
    /// neighbors counts as `d` messages).
    pub messages: usize,
    /// Total payload words delivered.
    pub words: usize,
    /// Peak number of point-to-point messages queued for delivery into
    /// any single round (the in-flight traffic at a round boundary).
    pub peak_queued_messages: usize,
    /// Peak payload words materialized for any single round's delivery —
    /// the inbox-arena footprint. A V-CONGEST broadcast's payload counts
    /// **once**, not per receiver (deliveries reference one copy; the
    /// sharded engine holds at most one extra copy per destination shard,
    /// uncounted so the metric stays engine-independent).
    pub peak_arena_words: usize,
    /// Payload words delivered between a same-shard sender/receiver pair
    /// — traffic that never touched the mailbox plane. The sequential
    /// engine (one thread owns every node) reports everything here.
    /// `local_words + cross_shard_words == words`, always.
    ///
    /// **The one engine-dependent field pair**: the split describes the
    /// engine's *shard split*, not the protocol — normalize with
    /// [`RunStats::locality_blind`] before cross-engine comparisons.
    pub local_words: usize,
    /// Payload words delivered across a shard boundary (through the
    /// sharded engine's mailbox plane) — the shard split's realized cut
    /// traffic. Zero under the sequential engine.
    pub cross_shard_words: usize,
    /// Deliveries the receiving *protocol* judged redundant — e.g. a
    /// non-innovative coded packet under the RLNC gossip regime. The
    /// engines never touch this field: protocols set it after a run
    /// from their own program state, so it is engine-independent by
    /// construction (and zero for protocols that don't track it).
    pub wasted_bandwidth: usize,
    /// Repair actions a *protocol* performed to route around churn —
    /// e.g. messages re-injected onto fresh trees after a fault wave.
    /// Engine-independent, protocol-set, like `wasted_bandwidth`.
    pub repair_events: usize,
    /// Rounds a *protocol* spent in flood fallback (no tree carried the
    /// traffic). Engine-independent, protocol-set; zero on fault-free
    /// runs, and bounded per fault wave when re-extraction restores real
    /// tree schedules between waves.
    pub flood_rounds: usize,
    /// Newcomers a *protocol* admitted into the maintained CDS packing
    /// incrementally (served from trees without a flood fallback or a
    /// from-scratch repack). Engine-independent, protocol-set.
    pub admitted_via_packing: usize,
    /// Newcomers no tree class could absorb, served by flood fallback
    /// instead. Engine-independent, protocol-set; the complement of
    /// `admitted_via_packing` over class-free arrivals.
    pub flood_served: usize,
}

impl RunStats {
    /// Folds another run's totals into this one: counters add, peaks
    /// take the max — the aggregate of running the two phases back to
    /// back (multi-phase protocols report their cumulative cost this
    /// way).
    pub fn absorb(&mut self, other: RunStats) {
        self.rounds += other.rounds;
        self.messages += other.messages;
        self.words += other.words;
        self.local_words += other.local_words;
        self.cross_shard_words += other.cross_shard_words;
        self.wasted_bandwidth += other.wasted_bandwidth;
        self.repair_events += other.repair_events;
        self.flood_rounds += other.flood_rounds;
        self.admitted_via_packing += other.admitted_via_packing;
        self.flood_served += other.flood_served;
        self.peak_queued_messages = self.peak_queued_messages.max(other.peak_queued_messages);
        self.peak_arena_words = self.peak_arena_words.max(other.peak_arena_words);
    }

    /// These stats with the engine-dependent locality split zeroed —
    /// what cross-engine equivalence checks compare, since every other
    /// counter is bit-identical across engines by contract.
    pub fn locality_blind(mut self) -> RunStats {
        self.local_words = 0;
        self.cross_shard_words = 0;
        self
    }

    /// Folds one round's queued-traffic totals into the peak counters.
    pub(crate) fn note_round_load(&mut self, queued_messages: usize, arena_words: usize) {
        self.peak_queued_messages = self.peak_queued_messages.max(queued_messages);
        self.peak_arena_words = self.peak_arena_words.max(arena_words);
    }
}

/// Errors a run can produce.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimError {
    /// The protocol did not reach quiescence within `max_rounds`.
    ExceededMaxRounds {
        /// The limit that was hit.
        max_rounds: usize,
        /// Messages delivered for the failed round that no program got to
        /// read (in-flight traffic at the cutoff).
        undelivered: usize,
        /// Programs still reporting `is_done() == false` at the cutoff.
        unfinished: usize,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::ExceededMaxRounds {
                max_rounds,
                undelivered,
                unfinished,
            } => {
                write!(
                    f,
                    "protocol did not terminate within {max_rounds} rounds \
                     ({undelivered} messages still in flight, {unfinished} programs not done)"
                )
            }
        }
    }
}

impl std::error::Error for SimError {}

/// One delivered message in an engine inbox arena: the sender plus the
/// payload span in the round's shared word buffer.
#[derive(Clone, Copy, Debug)]
pub(crate) struct InEntry {
    pub(crate) from: u32,
    pub(crate) off: u32,
    pub(crate) len: u32,
}

/// Messages delivered to a node this round, sorted by sender id.
///
/// A `Copy`-cheap view into the engine's per-shard inbox arena: payload
/// words live in one contiguous per-round buffer; each entry is a
/// `(sender, offset, length)` triple. Iteration yields
/// `(NodeId, MsgView)` pairs — delivery never clones payloads.
#[derive(Clone, Copy)]
pub struct Inbox<'a> {
    words: &'a [u64],
    entries: &'a [InEntry],
}

impl<'a> Inbox<'a> {
    pub(crate) fn new(words: &'a [u64], entries: &'a [InEntry]) -> Self {
        Inbox { words, entries }
    }

    /// Number of delivered messages.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no message was delivered this round.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The `i`-th delivered `(sender, payload)` pair (sender-id order).
    ///
    /// # Panics
    /// Panics if `i` is out of bounds.
    pub fn get(&self, i: usize) -> (NodeId, MsgView<'a>) {
        let e = &self.entries[i];
        let payload = &self.words[e.off as usize..(e.off + e.len) as usize];
        (e.from as NodeId, MsgView::new(payload))
    }

    /// The first delivered pair (smallest sender id), if any.
    pub fn first(&self) -> Option<(NodeId, MsgView<'a>)> {
        if self.is_empty() {
            None
        } else {
            Some(self.get(0))
        }
    }

    /// Iterates over `(sender, payload)` pairs in sender-id order.
    pub fn iter(&self) -> InboxIter<'a> {
        InboxIter {
            inbox: *self,
            next: 0,
        }
    }
}

impl fmt::Debug for Inbox<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list()
            .entries(self.iter().map(|(from, m)| (from, m.words().to_vec())))
            .finish()
    }
}

/// Iterator over an [`Inbox`]'s `(sender, payload)` pairs.
pub struct InboxIter<'a> {
    inbox: Inbox<'a>,
    next: usize,
}

impl<'a> Iterator for InboxIter<'a> {
    type Item = (NodeId, MsgView<'a>);
    fn next(&mut self) -> Option<Self::Item> {
        if self.next >= self.inbox.len() {
            return None;
        }
        let item = self.inbox.get(self.next);
        self.next += 1;
        Some(item)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.inbox.len() - self.next;
        (rem, Some(rem))
    }
}

impl<'a> IntoIterator for &Inbox<'a> {
    type Item = (NodeId, MsgView<'a>);
    type IntoIter = InboxIter<'a>;
    fn into_iter(self) -> InboxIter<'a> {
        self.iter()
    }
}

/// Sentinel for "no message on this neighbor slot".
const NO_SPAN: (u32, u32) = (u32::MAX, u32::MAX);

/// A node's outgoing traffic for one round. Payload words are written
/// once into a reusable scratch buffer; slots record `(offset, length)`
/// spans, so a broadcast stores its payload a single time no matter the
/// degree. The engine owns one `Outbox` per worker and resets it per
/// node step — the steady state allocates nothing.
pub(crate) struct Outbox {
    words: Vec<u64>,
    kind: OutKind,
}

enum OutKind {
    /// V-CONGEST: at most one local-broadcast payload span.
    Broadcast(Option<(u32, u32)>),
    /// E-CONGEST: at most one payload span per neighbor (indexed like
    /// `graph.neighbors(v)`).
    PerNeighbor(Vec<(u32, u32)>),
}

impl Outbox {
    /// An empty outbox for `model`.
    pub(crate) fn new(model: Model) -> Self {
        Outbox {
            words: Vec::new(),
            kind: match model {
                Model::VCongest => OutKind::Broadcast(None),
                Model::ECongest => OutKind::PerNeighbor(Vec::new()),
            },
        }
    }

    /// Clears the outbox for the next node of degree `degree`,
    /// keeping all buffer capacity.
    pub(crate) fn reset(&mut self, degree: usize) {
        self.words.clear();
        match &mut self.kind {
            OutKind::Broadcast(slot) => *slot = None,
            OutKind::PerNeighbor(slots) => {
                slots.clear();
                slots.resize(degree, NO_SPAN);
            }
        }
    }

    fn push_payload(&mut self, m: &Message) -> (u32, u32) {
        let off = u32::try_from(self.words.len()).expect("outbox exceeds u32 words");
        self.words.extend_from_slice(m.words());
        (off, m.len() as u32)
    }

    /// Feeds every outgoing `(receivers, payload)` group to `sink` —
    /// receivers sharing one payload copy arrive in a single call (a
    /// V-CONGEST broadcast is one call with all neighbors) — and returns
    /// `true` iff the node attempted a send. (A broadcast from a
    /// degree-0 node delivers nothing but still counts as an attempt —
    /// the historical round-loop semantics, which quiescence timing
    /// depends on.)
    pub(crate) fn drain(
        &self,
        neighbors: &[NodeId],
        mut sink: impl FnMut(&[NodeId], &[u64]),
    ) -> bool {
        match &self.kind {
            OutKind::Broadcast(Some((off, len))) => {
                if !neighbors.is_empty() {
                    sink(
                        neighbors,
                        &self.words[*off as usize..(*off + *len) as usize],
                    );
                }
                true
            }
            OutKind::Broadcast(None) => false,
            OutKind::PerNeighbor(slots) => {
                let mut any = false;
                let mut i = 0;
                while i < slots.len() {
                    if slots[i] == NO_SPAN {
                        i += 1;
                        continue;
                    }
                    any = true;
                    // Consecutive slots sharing a span (an E-CONGEST
                    // broadcast) deliver from one payload copy.
                    let mut j = i + 1;
                    while j < slots.len() && slots[j] == slots[i] {
                        j += 1;
                    }
                    let (off, len) = slots[i];
                    sink(
                        &neighbors[i..j],
                        &self.words[off as usize..(off + len) as usize],
                    );
                    i = j;
                }
                any
            }
        }
    }
}

/// Per-round context handed to a [`NodeProgram`].
///
/// Provides the node's identity, topology view (its neighbor list — the
/// `KT1`-style initial knowledge the paper assumes after one round), the
/// global parameters `n` (learned in the standard `O(D)` preamble), a
/// per-node deterministic RNG, and the send API.
pub struct NodeCtx<'a> {
    id: NodeId,
    n: usize,
    round: usize,
    neighbors: &'a [NodeId],
    model: Model,
    word_budget: usize,
    outbox: &'a mut Outbox,
    rng: &'a mut StdRng,
}

impl<'a> NodeCtx<'a> {
    #[allow(clippy::too_many_arguments)] // crate-internal engine plumbing
    pub(crate) fn new(
        id: NodeId,
        n: usize,
        round: usize,
        neighbors: &'a [NodeId],
        model: Model,
        word_budget: usize,
        outbox: &'a mut Outbox,
        rng: &'a mut StdRng,
    ) -> Self {
        NodeCtx {
            id,
            n,
            round,
            neighbors,
            model,
            word_budget,
            outbox,
            rng,
        }
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Number of nodes in the network.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Current round number within the running protocol (0-based).
    pub fn round(&self) -> usize {
        self.round
    }

    /// Sorted neighbor ids.
    pub fn neighbors(&self) -> &[NodeId] {
        self.neighbors
    }

    /// Degree.
    pub fn degree(&self) -> usize {
        self.neighbors.len()
    }

    /// The model this network runs.
    pub fn model(&self) -> Model {
        self.model
    }

    /// Per-node deterministic RNG (the "private coins" of the model).
    pub fn rng(&mut self) -> &mut StdRng {
        self.rng
    }

    /// Sends `m` to all neighbors (allowed in both models; in V-CONGEST it
    /// is the *only* send primitive).
    ///
    /// # Panics
    /// Panics if called twice in one round, after a targeted
    /// [`NodeCtx::send`] this round, or if `m` exceeds the word budget.
    pub fn broadcast(&mut self, m: Message) {
        self.check_budget(&m);
        match &self.outbox.kind {
            OutKind::Broadcast(slot) => {
                assert!(
                    slot.is_none(),
                    "V-CONGEST violation: node {} broadcast twice in round {}",
                    self.id,
                    self.round
                );
                let span = self.outbox.push_payload(&m);
                self.outbox.kind = OutKind::Broadcast(Some(span));
            }
            OutKind::PerNeighbor(slots) => {
                for (i, slot) in slots.iter().enumerate() {
                    assert!(
                        *slot == NO_SPAN,
                        "E-CONGEST violation: node {} already sent to neighbor {} in round {}",
                        self.id,
                        self.neighbors[i],
                        self.round
                    );
                }
                // One payload copy shared by every neighbor slot.
                let span = self.outbox.push_payload(&m);
                if let OutKind::PerNeighbor(slots) = &mut self.outbox.kind {
                    slots.fill(span);
                }
            }
        }
    }

    /// Sends `m` to the single neighbor `to` (E-CONGEST only).
    ///
    /// # Panics
    /// Panics in V-CONGEST, if `to` is not a neighbor, if this edge
    /// direction was already used this round, or on word-budget overflow.
    pub fn send(&mut self, to: NodeId, m: Message) {
        self.check_budget(&m);
        match &self.outbox.kind {
            OutKind::Broadcast(_) => panic!(
                "V-CONGEST violation: node {} attempted a targeted send (only local broadcast is allowed)",
                self.id
            ),
            OutKind::PerNeighbor(slots) => {
                let idx = self
                    .neighbors
                    .binary_search(&to)
                    .unwrap_or_else(|_| panic!("node {} is not a neighbor of {}", to, self.id));
                assert!(
                    slots[idx] == NO_SPAN,
                    "E-CONGEST violation: node {} sent twice to {} in round {}",
                    self.id,
                    to,
                    self.round
                );
                let span = self.outbox.push_payload(&m);
                if let OutKind::PerNeighbor(slots) = &mut self.outbox.kind {
                    slots[idx] = span;
                }
            }
        }
    }

    fn check_budget(&self, m: &Message) {
        assert!(
            m.len() <= self.word_budget,
            "message of {} words exceeds the {}-word budget (node {}, round {})",
            m.len(),
            self.word_budget,
            self.id,
            self.round
        );
    }
}

/// A per-node state machine executed by the simulator.
///
/// `round` is invoked every round while the node is active; a node is
/// *active* in round 0, whenever its inbox is non-empty, and whenever
/// `is_done()` is false. Nodes may therefore go quiet and be reawakened by
/// incoming messages (the pattern used by label-propagation primitives).
///
/// Programs must be [`Send`] so the sharded engine can step disjoint node
/// ranges on worker threads; program state is plain data, so this is
/// automatic in practice.
pub trait NodeProgram {
    /// Executes one round: read `inbox`, update state, send via `ctx`.
    fn round(&mut self, ctx: &mut NodeCtx<'_>, inbox: &Inbox<'_>);

    /// Local termination flag; the run stops at global quiescence
    /// (all done + no messages in flight).
    fn is_done(&self) -> bool;
}

/// The synchronous simulator facade. See the [module docs](self) for
/// semantics and [`crate::engine`] for the execution backends.
pub struct Simulator<'g> {
    topology: TopologyView<'g>,
    model: Model,
    word_budget: usize,
    engine: EngineKind,
    faults: FaultPlan,
    rngs: Vec<StdRng>,
    cumulative: RunStats,
}

/// Default per-message payload budget, in words. Each word models one
/// `O(log n)`-bit field; the paper's messages carry a constant number of
/// ids/labels per message.
pub const DEFAULT_WORD_BUDGET: usize = 8;

impl<'g> Simulator<'g> {
    /// A simulator over `topology` in `model` with the default word
    /// budget, seed 0, and the sequential engine.
    ///
    /// `topology` is a settled `&Graph`, or a `&GrowableGraph` to deliver
    /// over a growing topology: each round `r`, a node's neighbor list is
    /// the edges with activation epoch `<= r` (epochs are rounds), so no
    /// program ever sees a future edge. The base CSR sizes the engines'
    /// buffers, the shard split and the RNG streams, none of which affect
    /// outputs. Compose with [`Simulator::with_faults`] for arrivals and
    /// deaths: edge *activation* lives in the view, vertex dormancy and
    /// cuts stay with the fault plan.
    pub fn new(topology: impl Into<TopologyView<'g>>, model: Model) -> Self {
        Self::with_seed(topology, model, 0)
    }

    /// A simulator with an explicit base seed for the nodes' private coins.
    pub fn with_seed(topology: impl Into<TopologyView<'g>>, model: Model, seed: u64) -> Self {
        let topology = topology.into();
        let rngs = (0..topology.n())
            .map(|v| StdRng::seed_from_u64(seed.wrapping_mul(0x9e3779b97f4a7c15) ^ (v as u64)))
            .collect();
        Simulator {
            topology,
            model,
            word_budget: DEFAULT_WORD_BUDGET,
            engine: EngineKind::Sequential,
            faults: FaultPlan::none(),
            rngs,
            cumulative: RunStats::default(),
        }
    }

    /// Overrides the per-message word budget.
    pub fn with_word_budget(mut self, words: usize) -> Self {
        self.word_budget = words;
        self
    }

    /// Installs a deterministic failure schedule (see [`crate::fault`]).
    /// Faults fire at the start of their scheduled round, before inbox
    /// consumption: the engines drop the victims' in-flight messages,
    /// silence dead nodes for the rest of the run (their RNG streams stop
    /// advancing), and decide quiescence over surviving programs only.
    /// The plan applies to every subsequent [`Simulator::run`], each run
    /// restarting the schedule from round 0. Without one, a simulator
    /// runs the empty plan, which never fires.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// Selects the round-execution backend. Engine choice never changes
    /// outputs or statistics (see [`crate::engine`]) beyond the
    /// [`RunStats`] locality split — which describes the shard split,
    /// not the protocol — only wall-clock behavior.
    ///
    /// # Example
    ///
    /// ```
    /// use decomp_congest::{EngineKind, Model, Simulator};
    /// use decomp_congest::bfs::distributed_bfs;
    /// use decomp_graph::generators;
    ///
    /// let g = generators::harary(4, 24);
    /// let run = |engine| {
    ///     let mut sim = Simulator::new(&g, Model::VCongest).with_engine(engine);
    ///     let tree = distributed_bfs(&mut sim, 0).unwrap();
    ///     (tree.dist, tree.parent, sim.stats().locality_blind())
    /// };
    /// // Bit-for-bit equivalent across engines: same tree, same stats
    /// // (modulo the local/cross-shard word split).
    /// assert_eq!(
    ///     run(EngineKind::Sequential),
    ///     run(EngineKind::sharded(4)),
    /// );
    /// ```
    pub fn with_engine(mut self, engine: EngineKind) -> Self {
        self.engine = engine;
        self
    }

    /// The underlying network graph: the settled graph, or a growing
    /// topology's epoch-0 base.
    pub fn graph(&self) -> &Graph {
        self.topology.base()
    }

    /// The model being simulated.
    pub fn model(&self) -> Model {
        self.model
    }

    /// The selected round-execution backend.
    pub fn engine(&self) -> EngineKind {
        self.engine
    }

    /// Cumulative statistics across all runs on this simulator.
    pub fn stats(&self) -> RunStats {
        self.cumulative
    }

    /// Adds externally-charged rounds to the cumulative statistics.
    ///
    /// Used for the documented substitutions ("Known substitutions" in
    /// `docs/PAPER_MAP.md`): when a protocol step is computed centrally
    /// instead of simulated (an announcement meta-round, a verifier's
    /// failure flood), its distributed round cost is charged here so round
    /// totals remain meaningful.
    pub fn charge_rounds(&mut self, rounds: usize) {
        self.cumulative.rounds += rounds;
    }

    /// Runs `programs` (one per node, indexed by node id) until quiescence
    /// on the selected engine.
    ///
    /// Returns the final program states and this run's statistics.
    ///
    /// # Errors
    /// [`SimError::ExceededMaxRounds`] if quiescence is not reached within
    /// `max_rounds`.
    ///
    /// # Panics
    /// Panics if `programs.len() != graph.n()`, or on model violations
    /// inside program code (see [`NodeCtx`]); the sharded engine re-raises
    /// worker panics on the calling thread.
    pub fn run<P: NodeProgram + Send>(
        &mut self,
        mut programs: Vec<P>,
        max_rounds: usize,
    ) -> Result<(Vec<P>, RunStats), SimError> {
        let n = self.topology.n();
        assert_eq!(programs.len(), n, "need one program per node");
        let net = NetSpec {
            topology: self.topology,
            model: self.model,
            word_budget: self.word_budget,
            faults: &self.faults,
        };
        let outcome = match self.engine {
            EngineKind::Sequential => {
                engine::sequential::run(&net, &mut programs, &mut self.rngs, max_rounds)
            }
            EngineKind::Sharded { shards } => {
                engine::sharded::run(shards, &net, &mut programs, &mut self.rngs, max_rounds)
            }
        };
        self.cumulative.absorb(outcome.stats);
        match outcome.error {
            Some(err) => Err(err),
            None => Ok((programs, outcome.stats)),
        }
    }

    /// [`Simulator::run`] with a generous default round limit of
    /// `64 * n + 4096`.
    pub fn run_to_quiescence<P: NodeProgram + Send>(
        &mut self,
        programs: Vec<P>,
    ) -> Result<(Vec<P>, RunStats), SimError> {
        let limit = 64 * self.topology.n() + 4096;
        self.run(programs, limit)
    }
}

impl fmt::Debug for Simulator<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Simulator")
            .field("n", &self.topology.n())
            .field("model", &self.model)
            .field("engine", &self.engine)
            .field("stats", &self.cumulative)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decomp_graph::generators;

    /// Every node broadcasts its id once; neighbors record what they heard.
    struct HelloOnce {
        heard: Vec<NodeId>,
        sent: bool,
    }

    impl NodeProgram for HelloOnce {
        fn round(&mut self, ctx: &mut NodeCtx<'_>, inbox: &Inbox<'_>) {
            for (from, _m) in inbox {
                self.heard.push(from);
            }
            if !self.sent {
                ctx.broadcast(Message::from_words([ctx.id() as u64]));
                self.sent = true;
            }
        }
        fn is_done(&self) -> bool {
            self.sent
        }
    }

    fn engines() -> [EngineKind; 3] {
        [
            EngineKind::Sequential,
            EngineKind::sharded(2),
            EngineKind::sharded(4),
        ]
    }

    #[test]
    fn exceeded_max_rounds_display_renders_all_context_fields() {
        let err = SimError::ExceededMaxRounds {
            max_rounds: 17,
            undelivered: 3,
            unfinished: 5,
        };
        let msg = err.to_string();
        assert_eq!(
            msg,
            "protocol did not terminate within 17 rounds \
             (3 messages still in flight, 5 programs not done)"
        );
    }

    #[test]
    fn exceeded_max_rounds_error_carries_observed_context() {
        // A program that never finishes and floods every round: the limit
        // error must report the actual in-flight traffic and stragglers.
        #[derive(Debug)]
        struct Chatter;
        impl NodeProgram for Chatter {
            fn round(&mut self, ctx: &mut NodeCtx<'_>, _inbox: &Inbox<'_>) {
                ctx.broadcast(Message::from_words([ctx.id() as u64]));
            }
            fn is_done(&self) -> bool {
                false
            }
        }
        let g = generators::cycle(4);
        let mut sim = Simulator::new(&g, Model::VCongest);
        let err = sim
            .run(vec![Chatter, Chatter, Chatter, Chatter], 3)
            .unwrap_err();
        match err {
            SimError::ExceededMaxRounds {
                max_rounds,
                undelivered,
                unfinished,
            } => {
                assert_eq!(max_rounds, 3);
                assert_eq!(undelivered, 8, "4 nodes × 2 neighbors in flight");
                assert_eq!(unfinished, 4);
                let msg = err.to_string();
                for needle in ["3 rounds", "8 messages", "4 programs"] {
                    assert!(msg.contains(needle), "`{msg}` missing `{needle}`");
                }
            }
        }
    }

    #[test]
    fn hello_exchange_on_cycle() {
        for engine in engines() {
            let g = generators::cycle(5);
            let mut sim = Simulator::new(&g, Model::VCongest).with_engine(engine);
            let programs = (0..5)
                .map(|_| HelloOnce {
                    heard: Vec::new(),
                    sent: false,
                })
                .collect();
            let (programs, stats) = sim.run(programs, 10).unwrap();
            // Each node hears exactly its two neighbors.
            for (v, p) in programs.iter().enumerate() {
                let mut heard = p.heard.clone();
                heard.sort_unstable();
                assert_eq!(heard, g.neighbors(v), "{engine}");
            }
            assert_eq!(stats.rounds, 2, "{engine}"); // send round + delivery round
            assert_eq!(stats.messages, 10, "{engine}"); // 5 broadcasts x degree 2
        }
    }

    #[test]
    fn exceeding_round_limit_errors_with_context() {
        #[derive(Debug)]
        struct Chatter;
        impl NodeProgram for Chatter {
            fn round(&mut self, ctx: &mut NodeCtx<'_>, _inbox: &Inbox<'_>) {
                ctx.broadcast(Message::new());
            }
            fn is_done(&self) -> bool {
                false
            }
        }
        for engine in engines() {
            let g = generators::path(3);
            let mut sim = Simulator::new(&g, Model::VCongest).with_engine(engine);
            let err = sim.run(vec![Chatter, Chatter, Chatter], 5).unwrap_err();
            // Round 4's sends (2 path ends x 1 + middle x 2 = 4 messages)
            // are still in flight at the cutoff; no program ever finishes.
            assert_eq!(
                err,
                SimError::ExceededMaxRounds {
                    max_rounds: 5,
                    undelivered: 4,
                    unfinished: 3,
                },
                "{engine}"
            );
            let shown = err.to_string();
            assert!(shown.contains("5 rounds"), "{shown}");
            assert!(shown.contains("4 messages"), "{shown}");
            assert!(shown.contains("3 programs"), "{shown}");
        }
    }

    #[test]
    #[should_panic(expected = "V-CONGEST violation")]
    fn double_broadcast_panics() {
        struct Bad;
        impl NodeProgram for Bad {
            fn round(&mut self, ctx: &mut NodeCtx<'_>, _inbox: &Inbox<'_>) {
                ctx.broadcast(Message::new());
                ctx.broadcast(Message::new());
            }
            fn is_done(&self) -> bool {
                true
            }
        }
        let g = generators::path(2);
        let mut sim = Simulator::new(&g, Model::VCongest);
        let _ = sim.run(vec![Bad, Bad], 3);
    }

    #[test]
    #[should_panic(expected = "V-CONGEST violation")]
    fn sharded_engine_propagates_program_panics() {
        struct Bad;
        impl NodeProgram for Bad {
            fn round(&mut self, ctx: &mut NodeCtx<'_>, _inbox: &Inbox<'_>) {
                ctx.broadcast(Message::new());
                ctx.broadcast(Message::new());
            }
            fn is_done(&self) -> bool {
                true
            }
        }
        let g = generators::path(4);
        let mut sim = Simulator::new(&g, Model::VCongest).with_engine(EngineKind::sharded(2));
        let _ = sim.run(vec![Bad, Bad, Bad, Bad], 3);
    }

    #[test]
    #[should_panic(expected = "targeted send")]
    fn vcongest_rejects_targeted_send() {
        struct Bad;
        impl NodeProgram for Bad {
            fn round(&mut self, ctx: &mut NodeCtx<'_>, _inbox: &Inbox<'_>) {
                let to = ctx.neighbors()[0];
                ctx.send(to, Message::new());
            }
            fn is_done(&self) -> bool {
                true
            }
        }
        let g = generators::path(2);
        let mut sim = Simulator::new(&g, Model::VCongest);
        let _ = sim.run(vec![Bad, Bad], 3);
    }

    #[test]
    #[should_panic(expected = "word budget")]
    fn word_budget_enforced() {
        struct Fat;
        impl NodeProgram for Fat {
            fn round(&mut self, ctx: &mut NodeCtx<'_>, _inbox: &Inbox<'_>) {
                ctx.broadcast(Message::from_words(0..100));
            }
            fn is_done(&self) -> bool {
                true
            }
        }
        let g = generators::path(2);
        let mut sim = Simulator::new(&g, Model::VCongest);
        let _ = sim.run(vec![Fat, Fat], 3);
    }

    #[test]
    fn econgest_targeted_sends() {
        /// Node 0 sends distinct words to each neighbor.
        struct Sender;
        struct Receiver {
            got: Option<u64>,
        }
        enum P {
            S(Sender),
            R(Receiver),
        }
        impl NodeProgram for P {
            fn round(&mut self, ctx: &mut NodeCtx<'_>, inbox: &Inbox<'_>) {
                match self {
                    P::S(_) => {
                        if ctx.round() == 0 {
                            for (i, &nb) in ctx.neighbors().to_vec().iter().enumerate() {
                                ctx.send(nb, Message::from_words([i as u64 * 10]));
                            }
                        }
                    }
                    P::R(r) => {
                        if let Some((_, m)) = inbox.first() {
                            r.got = Some(m.word(0));
                        }
                    }
                }
            }
            fn is_done(&self) -> bool {
                true
            }
        }
        for engine in engines() {
            let g = generators::star(4); // center 0
            let mut sim = Simulator::new(&g, Model::ECongest).with_engine(engine);
            let programs = vec![
                P::S(Sender),
                P::R(Receiver { got: None }),
                P::R(Receiver { got: None }),
                P::R(Receiver { got: None }),
            ];
            let (programs, _) = sim.run(programs, 5).unwrap();
            for (i, p) in programs.iter().enumerate().skip(1) {
                if let P::R(r) = p {
                    assert_eq!(r.got, Some((i as u64 - 1) * 10), "{engine}");
                }
            }
        }
    }

    #[test]
    fn degree_zero_broadcast_counts_as_send_attempt() {
        // Historical quiescence timing: a broadcast from an isolated node
        // delivers nothing but still holds the run open one extra round.
        // Two isolated nodes so the sharded engine genuinely shards
        // (n = 1 would clamp to the sequential path).
        for engine in engines() {
            let g = decomp_graph::Graph::empty(2);
            let mut sim = Simulator::new(&g, Model::VCongest).with_engine(engine);
            let programs = (0..2)
                .map(|_| HelloOnce {
                    heard: Vec::new(),
                    sent: false,
                })
                .collect();
            let (_, stats) = sim.run(programs, 10).unwrap();
            assert_eq!(stats.rounds, 2, "{engine}");
            assert_eq!(stats.messages, 0, "{engine}");
        }
    }

    /// Counts everything heard and rebroadcasts its id for `chatty`
    /// rounds — the fault-path workhorse.
    struct Counter {
        heard: usize,
        chatty: usize,
    }

    impl NodeProgram for Counter {
        fn round(&mut self, ctx: &mut NodeCtx<'_>, inbox: &Inbox<'_>) {
            self.heard += inbox.len();
            if self.chatty > 0 {
                self.chatty -= 1;
                ctx.broadcast(Message::from_words([ctx.id() as u64]));
            }
        }
        fn is_done(&self) -> bool {
            self.chatty == 0
        }
    }

    #[test]
    fn vertex_fault_silences_node_and_drops_in_flight() {
        use crate::fault::{Fault, FaultPlan, ScheduledFault};
        // Triangle, everyone chats for 4 rounds; node 2 dies at the
        // start of round 1, so its round-0 broadcast (in flight into
        // round 1) is dropped and nobody ever hears from it.
        for engine in engines() {
            let g = generators::cycle(3);
            let plan = FaultPlan::new([ScheduledFault {
                round: 1,
                fault: Fault::Vertex(2),
            }]);
            let mut sim = Simulator::new(&g, Model::VCongest)
                .with_engine(engine)
                .with_faults(plan);
            let programs = (0..3)
                .map(|_| Counter {
                    heard: 0,
                    chatty: 4,
                })
                .collect();
            let (ps, _) = sim.run(programs, 20).unwrap();
            // 0 and 1 hear only each other: 4 broadcasts each.
            assert_eq!(ps[0].heard, 4, "{engine}");
            assert_eq!(ps[1].heard, 4, "{engine}");
            // The dead node was stepped only in round 0.
            assert_eq!(ps[2].chatty, 3, "{engine}");
            assert_eq!(ps[2].heard, 0, "{engine}");
        }
    }

    #[test]
    fn edge_fault_cuts_both_directions_but_keeps_endpoints() {
        use crate::fault::{Fault, FaultPlan, ScheduledFault};
        for engine in engines() {
            let g = generators::cycle(3);
            let plan = FaultPlan::new([ScheduledFault {
                round: 0,
                fault: Fault::Edge(0, 1),
            }]);
            let mut sim = Simulator::new(&g, Model::VCongest)
                .with_engine(engine)
                .with_faults(plan);
            let programs = (0..3)
                .map(|_| Counter {
                    heard: 0,
                    chatty: 2,
                })
                .collect();
            let (ps, stats) = sim.run(programs, 20).unwrap();
            // Each endpoint of the cut edge hears only node 2; node 2
            // still hears both.
            assert_eq!(ps[0].heard, 2, "{engine}");
            assert_eq!(ps[1].heard, 2, "{engine}");
            assert_eq!(ps[2].heard, 4, "{engine}");
            // 2 rounds × (2 + 2 + 2 deliveries minus 2 cut per round).
            assert_eq!(stats.messages, 8, "{engine}");
        }
    }

    #[test]
    fn quiescence_ignores_dead_stragglers() {
        use crate::fault::{Fault, FaultPlan, ScheduledFault};
        // Node 1 would chat forever, but dies at round 2: the run must
        // still reach quiescence instead of spinning to the limit.
        for engine in engines() {
            let g = generators::path(3);
            let plan = FaultPlan::new([ScheduledFault {
                round: 2,
                fault: Fault::Vertex(1),
            }]);
            let mut sim = Simulator::new(&g, Model::VCongest)
                .with_engine(engine)
                .with_faults(plan);
            let programs = vec![
                Counter {
                    heard: 0,
                    chatty: 1,
                },
                Counter {
                    heard: 0,
                    chatty: usize::MAX,
                },
                Counter {
                    heard: 0,
                    chatty: 1,
                },
            ];
            let (_, stats) = sim.run(programs, 50).unwrap();
            assert!(stats.rounds <= 4, "{engine}: {}", stats.rounds);
        }
    }

    #[test]
    fn faulted_runs_bit_identical_across_engines() {
        use crate::fault::FaultPlan;
        let g = generators::harary(4, 20);
        let plan = FaultPlan::random_vertices(&g, 3, (1, 6), 42);
        let run = |engine| {
            let mut sim = Simulator::with_seed(&g, Model::VCongest, 9)
                .with_engine(engine)
                .with_faults(plan.clone());
            let programs = (0..g.n())
                .map(|_| Counter {
                    heard: 0,
                    chatty: 8,
                })
                .collect();
            let (ps, stats) = sim.run(programs, 100).unwrap();
            // Invariant first: the locality split always partitions the
            // delivered words, whatever the engine.
            assert_eq!(stats.local_words + stats.cross_shard_words, stats.words);
            (
                ps.into_iter()
                    .map(|p| (p.heard, p.chatty))
                    .collect::<Vec<_>>(),
                stats.locality_blind(),
            )
        };
        let baseline = run(EngineKind::Sequential);
        for engine in engines() {
            assert_eq!(run(engine), baseline, "{engine}");
        }
    }

    #[test]
    fn arriving_vertex_is_dormant_then_joins_mid_run() {
        use crate::fault::{Fault, FaultPlan, ScheduledFault};
        // Triangle; node 2 arrives at round 2. While dormant it is never
        // stepped and no traffic crosses its edges; after arrival it
        // chats like everyone else.
        for engine in engines() {
            let g = generators::cycle(3);
            let plan = FaultPlan::new([ScheduledFault {
                round: 2,
                fault: Fault::AddVertex(2),
            }]);
            let mut sim = Simulator::new(&g, Model::VCongest)
                .with_engine(engine)
                .with_faults(plan);
            let programs = (0..3)
                .map(|_| Counter {
                    heard: 0,
                    chatty: 3,
                })
                .collect();
            let (ps, _) = sim.run(programs, 20).unwrap();
            // 0 and 1 hear each other's 3 broadcasts, plus node 2's 3
            // post-arrival broadcasts.
            assert_eq!(ps[0].heard, 6, "{engine}");
            assert_eq!(ps[1].heard, 6, "{engine}");
            // Node 2 was first stepped at round 2, so it hears only the
            // round-2+ broadcasts of 0 and 1 — one each (their chatty
            // budget ran out at rounds 0..=2).
            assert_eq!(ps[2].chatty, 0, "{engine}");
            assert_eq!(ps[2].heard, 2, "{engine}");
        }
    }

    #[test]
    fn run_idles_until_the_last_arrival_fires() {
        use crate::fault::{Fault, FaultPlan, ScheduledFault};
        // Everyone else is done by round 1, but node 3's arrival at
        // round 6 must hold the run open (quiescence waits for it).
        for engine in engines() {
            let g = generators::cycle(4);
            let plan = FaultPlan::new([ScheduledFault {
                round: 6,
                fault: Fault::AddVertex(3),
            }]);
            let mut sim = Simulator::new(&g, Model::VCongest)
                .with_engine(engine)
                .with_faults(plan);
            let programs = (0..4)
                .map(|_| Counter {
                    heard: 0,
                    chatty: 1,
                })
                .collect();
            let (ps, stats) = sim.run(programs, 50).unwrap();
            assert!(stats.rounds >= 7, "{engine}: {}", stats.rounds);
            assert_eq!(ps[3].chatty, 0, "{engine}");
            // Its single broadcast lands on live neighbors 0 and 2.
            assert_eq!(ps[0].heard, 2, "{engine}");
            assert_eq!(ps[2].heard, 2, "{engine}");
        }
    }

    #[test]
    fn edge_arrival_activates_link_mid_run() {
        use crate::fault::{Fault, FaultPlan, ScheduledFault};
        // Cycle of 3 with edge {0, 1} inactive until round 1: the
        // round-0 broadcasts crossing it are dropped, later ones pass.
        for engine in engines() {
            let g = generators::cycle(3);
            let plan = FaultPlan::new([ScheduledFault {
                round: 1,
                fault: Fault::AddEdge(0, 1),
            }]);
            let mut sim = Simulator::new(&g, Model::VCongest)
                .with_engine(engine)
                .with_faults(plan);
            let programs = (0..3)
                .map(|_| Counter {
                    heard: 0,
                    chatty: 2,
                })
                .collect();
            let (ps, _) = sim.run(programs, 20).unwrap();
            // Round-0 sends over {0,1} (in flight into round 1, when the
            // edge activates) are filtered at send time in round 0; the
            // round-1 sends cross. So 0 and 1 miss one message each.
            assert_eq!(ps[0].heard, 3, "{engine}");
            assert_eq!(ps[1].heard, 3, "{engine}");
            assert_eq!(ps[2].heard, 4, "{engine}");
        }
    }

    #[test]
    fn churn_runs_bit_identical_across_engines() {
        use crate::fault::FaultPlan;
        let g = generators::harary(4, 20);
        let plan = FaultPlan::random_vertices(&g, 3, (2, 6), 42)
            .merged(&FaultPlan::random_arrivals(&g, 4, (1, 7), 42));
        assert_eq!(plan.validate(&g), Ok(()));
        let run = |engine| {
            let mut sim = Simulator::with_seed(&g, Model::VCongest, 9)
                .with_engine(engine)
                .with_faults(plan.clone());
            let programs = (0..g.n())
                .map(|_| Counter {
                    heard: 0,
                    chatty: 8,
                })
                .collect();
            let (ps, stats) = sim.run(programs, 200).unwrap();
            assert_eq!(stats.local_words + stats.cross_shard_words, stats.words);
            (
                ps.into_iter()
                    .map(|p| (p.heard, p.chatty))
                    .collect::<Vec<_>>(),
                stats.locality_blind(),
            )
        };
        let baseline = run(EngineKind::Sequential);
        for engine in engines() {
            assert_eq!(run(engine), baseline, "{engine}");
        }
    }

    #[test]
    fn growth_view_with_no_overlay_matches_static_run() {
        // A growth view whose overlay is empty is the settled graph:
        // every output and statistic must be byte-identical to the
        // plain Static path.
        let g = generators::harary(4, 16);
        let gg = decomp_graph::GrowableGraph::from_base(g.clone());
        let run = |view: TopologyView<'_>| {
            let mut sim = Simulator::with_seed(view, Model::VCongest, 7);
            let programs = (0..g.n())
                .map(|_| Counter {
                    heard: 0,
                    chatty: 3,
                })
                .collect();
            let (ps, stats) = sim.run(programs, 100).unwrap();
            (
                ps.into_iter()
                    .map(|p| (p.heard, p.chatty))
                    .collect::<Vec<_>>(),
                stats,
            )
        };
        assert_eq!(run((&g).into()), run((&gg).into()));
    }

    #[test]
    fn growth_run_reveals_adjacency_only_at_arrival_and_is_engine_equivalent() {
        use crate::fault::{Fault, FaultPlan, ScheduledFault};
        // Base: cycle on 0..4; newcomers 4 and 5 are *isolated* in the
        // base CSR — their adjacency exists only in the growth view,
        // activating at the arrival rounds. This is the end of the
        // settled model: no engine ever sees the final adjacency up
        // front.
        let base = Graph::from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 0)]);
        let plan = FaultPlan::new([
            ScheduledFault {
                round: 2,
                fault: Fault::AddVertex(4),
            },
            ScheduledFault {
                round: 2,
                fault: Fault::AddEdge(0, 4),
            },
            ScheduledFault {
                round: 2,
                fault: Fault::AddEdge(2, 4),
            },
            ScheduledFault {
                round: 5,
                fault: Fault::AddVertex(5),
            },
            ScheduledFault {
                round: 5,
                fault: Fault::AddEdge(4, 5),
            },
        ]);
        assert_eq!(plan.validate(&base), Ok(()));
        let gg = plan.growth_topology(&base);
        assert_eq!(gg.overlay_len(), 3, "all three edges are new to the base");
        let run = |engine| {
            let mut sim = Simulator::with_seed(&gg, Model::VCongest, 11)
                .with_engine(engine)
                .with_faults(plan.clone());
            let programs = (0..6)
                .map(|_| Counter {
                    heard: 0,
                    chatty: 4,
                })
                .collect();
            let (ps, stats) = sim.run(programs, 100).unwrap();
            assert_eq!(stats.local_words + stats.cross_shard_words, stats.words);
            (
                ps.into_iter()
                    .map(|p| (p.heard, p.chatty))
                    .collect::<Vec<_>>(),
                stats.locality_blind(),
            )
        };
        let baseline = run(EngineKind::Sequential);
        // Newcomer 5's only link is to fellow newcomer 4 — adjacency
        // revealed at round 5, well after both nodes existed in the
        // base. It still hears traffic (4's remaining broadcasts).
        assert!(baseline.0[5].0 > 0, "vertex 5 heard nothing");
        assert_eq!(baseline.0[5].1, 0, "vertex 5 never drained its budget");
        for engine in engines() {
            assert_eq!(run(engine), baseline, "{engine}");
        }
    }

    #[test]
    fn locality_split_partitions_words_and_sequential_is_all_local() {
        let g = generators::harary(4, 20);
        let run = |engine| {
            let mut sim = Simulator::with_seed(&g, Model::VCongest, 9).with_engine(engine);
            let programs = (0..g.n())
                .map(|_| Counter {
                    heard: 0,
                    chatty: 4,
                })
                .collect();
            sim.run(programs, 100).unwrap().1
        };
        let seq = run(EngineKind::Sequential);
        assert_eq!(seq.local_words, seq.words, "one thread owns every node");
        assert_eq!(seq.cross_shard_words, 0);
        let sharded = run(EngineKind::sharded(4));
        assert_eq!(
            sharded.local_words + sharded.cross_shard_words,
            sharded.words
        );
        assert!(
            sharded.cross_shard_words > 0,
            "4 shards on harary(4,20) must cut something"
        );
        assert_eq!(sharded.locality_blind(), seq.locality_blind());
    }

    #[test]
    fn charge_rounds_accumulates() {
        let g = generators::path(2);
        let mut sim = Simulator::new(&g, Model::VCongest);
        sim.charge_rounds(100);
        assert_eq!(sim.stats().rounds, 100);
    }

    #[test]
    fn rng_deterministic_per_seed_and_engine() {
        use rand::Rng;
        struct Roll {
            value: Option<u64>,
        }
        impl NodeProgram for Roll {
            fn round(&mut self, ctx: &mut NodeCtx<'_>, _inbox: &Inbox<'_>) {
                if self.value.is_none() {
                    self.value = Some(ctx.rng().gen());
                }
            }
            fn is_done(&self) -> bool {
                self.value.is_some()
            }
        }
        let g = generators::path(3);
        let roll = |seed, engine| {
            let mut sim = Simulator::with_seed(&g, Model::VCongest, seed).with_engine(engine);
            let (ps, _) = sim
                .run((0..3).map(|_| Roll { value: None }).collect(), 4)
                .unwrap();
            ps.into_iter().map(|p| p.value.unwrap()).collect::<Vec<_>>()
        };
        for engine in engines() {
            assert_eq!(roll(7, engine), roll(7, EngineKind::Sequential));
            assert_eq!(roll(7, engine), roll(7, engine));
            assert_ne!(roll(7, engine), roll(8, engine));
        }
    }
}
