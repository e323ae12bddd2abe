//! Deterministic fault injection: seeded vertex/edge deletion schedules.
//!
//! A [`FaultPlan`] is a list of [`ScheduledFault`]s — vertex or edge
//! deletions, each pinned to a round — that the round engines apply
//! mid-run: when round `r` begins, every fault scheduled at a round
//! `≤ r` fires *before* inboxes are consumed, so a dying node's
//! in-flight messages (sent in round `r − 1`) are dropped along with it.
//! From that point the node is silenced — it is never stepped again, its
//! RNG stream stops advancing, and quiescence is decided over the
//! surviving programs only. Cut edges drop traffic in both directions
//! but leave their endpoints running.
//!
//! Plans are pure data built from explicit seeds ([`FaultPlan::random_vertices`]
//! et al. derive everything from a `u64`), so the same plan + seed +
//! engine reproduces the identical failure schedule, message trace, and
//! stats on every run — the determinism contract of
//! `docs/DETERMINISM.md` extends to the failure path. The paper's
//! robustness claim (Theorem 1.1: a `k`-connected packing survives up to
//! `k − 1` failures) is exercised by choosing `f < k` faults and
//! checking delivery still completes over the surviving trees.
//!
//! **Arrivals** run the same machinery in reverse: the plan's graph is
//! the *final* topology, and [`Fault::AddVertex`] / [`Fault::AddEdge`]
//! events name vertices (edges) that are *dormant* (inactive) from round
//! 0 and activate at their scheduled round. A dormant vertex is never
//! stepped, sends nothing, and receives nothing — every incident edge is
//! implicitly inactive — until its arrival round, at which point it runs
//! its round-0 logic over the final topology (the KT1 assumption is over
//! the final graph; see `docs/DETERMINISM.md` "Churn contract"). Because
//! the final topology is fixed up front, sharded runs partition it once
//! and arriving vertices land in a deterministic shard.

use decomp_graph::{Graph, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One injected failure.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Fault {
    /// Vertex `v` crashes: silenced from its fault round on, all
    /// incident traffic (in-flight included) dropped.
    Vertex(NodeId),
    /// Edge `{u, v}` is cut in both directions; endpoints keep running.
    /// Stored normalized (`u < v`).
    Edge(NodeId, NodeId),
    /// Vertex `v` *arrives*: dormant from round 0, it joins the live
    /// topology at the start of its scheduled round. Its incident edges
    /// are implicitly inactive while it is dormant, so a plain
    /// `AddVertex` is all a joining vertex needs.
    AddVertex(NodeId),
    /// Edge `{u, v}` of the final topology *activates* at its round —
    /// a new link between two already-present vertices. Stored
    /// normalized (`u < v`).
    AddEdge(NodeId, NodeId),
}

impl Fault {
    /// Normalizes an edge event so `u < v`; vertex events pass through.
    fn normalized(self) -> Fault {
        match self {
            Fault::Edge(u, v) if u > v => Fault::Edge(v, u),
            Fault::AddEdge(u, v) if u > v => Fault::AddEdge(v, u),
            other => other,
        }
    }
}

/// A [`Fault`] pinned to the round at whose *start* it fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ScheduledFault {
    /// Round index (0-based, in the running protocol's round counter) at
    /// whose start the fault fires.
    pub round: usize,
    /// What fails.
    pub fault: Fault,
}

/// A deterministic failure schedule, sorted by round.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    events: Vec<ScheduledFault>,
}

impl FaultPlan {
    /// The empty plan (no faults ever fire).
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// A plan from explicit events. Edge faults are normalized and the
    /// schedule is stably sorted by round, so logically equal plans
    /// compare equal regardless of construction order.
    pub fn new(events: impl IntoIterator<Item = ScheduledFault>) -> Self {
        let mut events: Vec<ScheduledFault> = events
            .into_iter()
            .map(|e| ScheduledFault {
                round: e.round,
                fault: e.fault.normalized(),
            })
            .collect();
        events.sort_by_key(|e| e.round);
        FaultPlan { events }
    }

    /// `f` distinct vertices chosen uniformly at random (seeded), each
    /// failing at a round drawn uniformly from `rounds` (inclusive
    /// bounds). `f` is clamped to `g.n()`.
    pub fn random_vertices(g: &Graph, f: usize, rounds: (usize, usize), seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xfa17_0001);
        let mut ids: Vec<NodeId> = (0..g.n()).collect();
        let f = f.min(ids.len());
        // Partial Fisher–Yates: the first f slots become the sample.
        for i in 0..f {
            let j = rng.gen_range(i..ids.len());
            ids.swap(i, j);
        }
        Self::new(ids[..f].iter().map(|&v| ScheduledFault {
            round: draw_round(&mut rng, rounds),
            fault: Fault::Vertex(v),
        }))
    }

    /// The worst-case vertex policy: the `f` highest-degree vertices
    /// (ties broken toward lower ids), all failing at `round`.
    pub fn worst_case_vertices(g: &Graph, f: usize, round: usize) -> Self {
        let mut ids: Vec<NodeId> = (0..g.n()).collect();
        ids.sort_by_key(|&v| (std::cmp::Reverse(g.degree(v)), v));
        Self::new(ids.into_iter().take(f).map(|v| ScheduledFault {
            round,
            fault: Fault::Vertex(v),
        }))
    }

    /// `f` distinct edges chosen uniformly at random (seeded), each cut
    /// at a round drawn uniformly from `rounds`. `f` is clamped to
    /// `g.m()`.
    pub fn random_edges(g: &Graph, f: usize, rounds: (usize, usize), seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xfa17_0002);
        let mut edges: Vec<(NodeId, NodeId)> = g.edges().to_vec();
        let f = f.min(edges.len());
        for i in 0..f {
            let j = rng.gen_range(i..edges.len());
            edges.swap(i, j);
        }
        Self::new(edges[..f].iter().map(|&(u, v)| ScheduledFault {
            round: draw_round(&mut rng, rounds),
            fault: Fault::Edge(u, v),
        }))
    }

    /// The worst-case edge policy: the `f` edges with the largest
    /// endpoint-degree sum (ties broken lexicographically), all cut at
    /// `round`.
    pub fn worst_case_edges(g: &Graph, f: usize, round: usize) -> Self {
        let mut edges: Vec<(NodeId, NodeId)> = g.edges().to_vec();
        edges.sort_by_key(|&(u, v)| (std::cmp::Reverse(g.degree(u) + g.degree(v)), u, v));
        Self::new(edges.into_iter().take(f).map(|(u, v)| ScheduledFault {
            round,
            fault: Fault::Edge(u, v),
        }))
    }

    /// `a` distinct vertices of the final topology `g` chosen uniformly
    /// at random (seeded) to be dormant from round 0, each arriving at a
    /// round drawn uniformly from `rounds` (inclusive bounds). `a` is
    /// clamped to `g.n()`.
    pub fn random_arrivals(g: &Graph, a: usize, rounds: (usize, usize), seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xfa17_0003);
        let mut ids: Vec<NodeId> = (0..g.n()).collect();
        let a = a.min(ids.len());
        for i in 0..a {
            let j = rng.gen_range(i..ids.len());
            ids.swap(i, j);
        }
        Self::new(ids[..a].iter().map(|&v| ScheduledFault {
            round: draw_round(&mut rng, rounds),
            fault: Fault::AddVertex(v),
        }))
    }

    /// `a` distinct edges of the final topology `g` chosen uniformly at
    /// random (seeded) to be inactive from round 0, each activating at a
    /// round drawn uniformly from `rounds`. `a` is clamped to `g.m()`.
    pub fn random_edge_arrivals(g: &Graph, a: usize, rounds: (usize, usize), seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xfa17_0004);
        let mut edges: Vec<(NodeId, NodeId)> = g.edges().to_vec();
        let a = a.min(edges.len());
        for i in 0..a {
            let j = rng.gen_range(i..edges.len());
            edges.swap(i, j);
        }
        Self::new(edges[..a].iter().map(|&(u, v)| ScheduledFault {
            round: draw_round(&mut rng, rounds),
            fault: Fault::AddEdge(u, v),
        }))
    }

    /// Merges two plans into one schedule (events re-sorted by round) —
    /// the way kill waves and arrival waves are combined into a single
    /// churn scenario.
    pub fn merged(&self, other: &FaultPlan) -> Self {
        Self::new(self.events.iter().chain(other.events.iter()).copied())
    }

    /// The schedule, sorted by round.
    pub fn events(&self) -> &[ScheduledFault] {
        &self.events
    }

    /// Whether the plan contains no faults.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Vertices dead once every fault scheduled at a round `≤ round` has
    /// fired, ascending. Kills only — dormancy is reported by
    /// [`FaultPlan::dormant_vertices_after`].
    pub fn dead_vertices_after(&self, round: usize) -> Vec<NodeId> {
        let mut out: Vec<NodeId> = self
            .events
            .iter()
            .take_while(|e| e.round <= round)
            .filter_map(|e| match e.fault {
                Fault::Vertex(v) => Some(v),
                _ => None,
            })
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Vertices still dormant once every event scheduled at a round
    /// `≤ round` has fired, ascending: [`Fault::AddVertex`] targets whose
    /// (earliest) arrival round is `> round`.
    pub fn dormant_vertices_after(&self, round: usize) -> Vec<NodeId> {
        let mut out: Vec<NodeId> = self
            .events
            .iter()
            .filter_map(|e| match e.fault {
                Fault::AddVertex(v) if e.round > round => Some(v),
                _ => None,
            })
            .collect();
        out.sort_unstable();
        out.dedup();
        // A duplicate arrival (flagged by `validate`) wakes at its
        // earliest round: drop targets with any event already fired.
        let awake = self.arrived_vertices_after(round);
        out.retain(|v| awake.binary_search(v).is_err());
        out
    }

    fn arrived_vertices_after(&self, round: usize) -> Vec<NodeId> {
        let mut out: Vec<NodeId> = self
            .events
            .iter()
            .take_while(|e| e.round <= round)
            .filter_map(|e| match e.fault {
                Fault::AddVertex(v) => Some(v),
                _ => None,
            })
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// The live topology after every event scheduled at a round
    /// `≤ round`: same vertex set (dead and still-dormant vertices become
    /// isolated), minus cut edges, still-inactive edges, and every edge
    /// incident to a dead or dormant vertex.
    pub fn surviving_graph(&self, g: &Graph, round: usize) -> Graph {
        let mut gone = self.dead_vertices_after(round);
        gone.extend(self.dormant_vertices_after(round));
        gone.sort_unstable();
        gone.dedup();
        let cut: Vec<(NodeId, NodeId)> = self
            .events
            .iter()
            .take_while(|e| e.round <= round)
            .filter_map(|e| match e.fault {
                Fault::Edge(u, v) => Some((u, v)),
                _ => None,
            })
            .collect();
        let inactive: Vec<(NodeId, NodeId)> = self
            .events
            .iter()
            .filter_map(|e| match e.fault {
                Fault::AddEdge(u, v) if e.round > round => Some((u, v)),
                _ => None,
            })
            .collect();
        g.edge_subgraph(|u, v| {
            let key = (u.min(v), u.max(v));
            gone.binary_search(&u).is_err()
                && gone.binary_search(&v).is_err()
                && !cut.contains(&key)
                && !inactive.contains(&key)
        })
    }

    /// Checks the plan against the (final) topology `g` and returns the
    /// first authoring error found, in schedule order. Opt-in: the
    /// engines deliberately tolerate sloppy plans (out-of-range ids are
    /// ignored, redundant events are no-ops) so that adversarial
    /// schedules never panic mid-run — call this at the front door when
    /// a plan is meant to be well-formed (the churn entry points do).
    pub fn validate(&self, g: &Graph) -> Result<(), FaultPlanError> {
        let n = g.n();
        let mut killed_at: Vec<Option<usize>> = vec![None; n];
        let mut arrived = vec![false; n];
        // Earliest arrival round per vertex, pre-scanned: an edge event
        // may be scheduled before its endpoint's `AddVertex` appears in
        // round order, and growth plans must reject that shape.
        let mut arrives_at: Vec<Option<usize>> = vec![None; n];
        for e in &self.events {
            if let Fault::AddVertex(v) = e.fault {
                if v < n && arrives_at[v].is_none() {
                    arrives_at[v] = Some(e.round);
                }
            }
        }
        for e in &self.events {
            let named: [Option<NodeId>; 2] = match e.fault {
                Fault::Vertex(v) | Fault::AddVertex(v) => [Some(v), None],
                Fault::Edge(u, v) | Fault::AddEdge(u, v) => [Some(u), Some(v)],
            };
            for v in named.into_iter().flatten() {
                if v >= n {
                    return Err(FaultPlanError::NodeOutOfRange {
                        node: v,
                        n,
                        round: e.round,
                    });
                }
            }
            match e.fault {
                Fault::Vertex(v) => {
                    if killed_at[v].is_some() {
                        return Err(FaultPlanError::DoubleKill {
                            node: v,
                            round: e.round,
                        });
                    }
                    killed_at[v] = Some(e.round);
                }
                Fault::AddVertex(v) => {
                    if arrived[v] {
                        return Err(FaultPlanError::DoubleArrival {
                            node: v,
                            round: e.round,
                        });
                    }
                    arrived[v] = true;
                }
                Fault::Edge(u, v) | Fault::AddEdge(u, v) => {
                    for end in [u, v] {
                        if killed_at[end].is_some_and(|r| r < e.round) {
                            return Err(FaultPlanError::EdgeFaultOnDeadEndpoint {
                                u,
                                v,
                                endpoint: end,
                                round: e.round,
                            });
                        }
                        if let Some(arrival) = arrives_at[end] {
                            if e.round < arrival {
                                return Err(FaultPlanError::EdgeBeforeArrival {
                                    u,
                                    v,
                                    endpoint: end,
                                    round: e.round,
                                    arrival,
                                });
                            }
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Builds the growable topology this plan describes over `base`:
    /// every [`Fault::AddEdge`] event whose edge is absent from `base`
    /// becomes an overlay edge activating at the event's round (epoch =
    /// round). `base` holds only the adjacency known before round 0, so
    /// an engine delivering over the resulting
    /// [`GrowableGraph`](decomp_graph::GrowableGraph) genuinely reveals
    /// a newcomer's edges no earlier than their arrival — the end of
    /// the settled model's "final adjacency at build time" requirement.
    ///
    /// `AddEdge` events whose edge *is* already in `base` keep the
    /// settled semantics (present but inactive until the round, purged
    /// by the delivery filter), so mixed plans compose. Validate the
    /// plan first: [`FaultPlan::validate`] rejects growth plans that
    /// reference a vertex's edge before its `AddVertex` round.
    pub fn growth_topology(&self, base: &Graph) -> decomp_graph::GrowableGraph {
        let mut gg = decomp_graph::GrowableGraph::from_base(base.clone());
        for e in &self.events {
            if let Fault::AddEdge(u, v) = e.fault {
                if u < gg.n() && v < gg.n() && u != v && gg.edge_epoch(u, v).is_none() {
                    gg.add_edge(u, v, e.round.min(u32::MAX as usize) as u32);
                }
            }
        }
        gg
    }
}

/// An authoring error in a [`FaultPlan`], reported by
/// [`FaultPlan::validate`] as a typed result instead of a panic (or a
/// silent no-op) deep inside an engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultPlanError {
    /// An event names a vertex id `≥ n`.
    NodeOutOfRange {
        /// The offending id.
        node: NodeId,
        /// The topology's vertex count.
        n: usize,
        /// The event's scheduled round.
        round: usize,
    },
    /// The same vertex is killed twice.
    DoubleKill {
        /// The vertex killed twice.
        node: NodeId,
        /// The round of the *second* kill.
        round: usize,
    },
    /// An edge event (cut or activation) names an endpoint killed at a
    /// strictly earlier round — the edge is already gone.
    EdgeFaultOnDeadEndpoint {
        /// Edge endpoint `u` (normalized, `u < v`).
        u: NodeId,
        /// Edge endpoint `v`.
        v: NodeId,
        /// The endpoint that is already dead.
        endpoint: NodeId,
        /// The edge event's scheduled round.
        round: usize,
    },
    /// The same vertex arrives twice.
    DoubleArrival {
        /// The vertex with a second [`Fault::AddVertex`] event.
        node: NodeId,
        /// The round of the second arrival.
        round: usize,
    },
    /// An edge event (cut or activation) references an endpoint
    /// *before* its scheduled [`Fault::AddVertex`] round. Under
    /// topology growth the edge does not exist yet — the settled model
    /// used to accept this silently (the edge was simply inactive), but
    /// growth plans must be causally ordered: a vertex's edges may be
    /// referenced no earlier than the vertex itself.
    EdgeBeforeArrival {
        /// Edge endpoint `u` (normalized, `u < v`).
        u: NodeId,
        /// Edge endpoint `v`.
        v: NodeId,
        /// The endpoint that has not arrived yet.
        endpoint: NodeId,
        /// The edge event's scheduled round.
        round: usize,
        /// The endpoint's (earliest) arrival round.
        arrival: usize,
    },
}

impl std::fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultPlanError::NodeOutOfRange { node, n, round } => {
                write!(f, "fault at round {round} names vertex {node}, but n = {n}")
            }
            FaultPlanError::DoubleKill { node, round } => {
                write!(f, "vertex {node} killed a second time at round {round}")
            }
            FaultPlanError::EdgeFaultOnDeadEndpoint {
                u,
                v,
                endpoint,
                round,
            } => write!(
                f,
                "edge event {{{u}, {v}}} at round {round} names endpoint {endpoint}, \
                 which is already dead"
            ),
            FaultPlanError::DoubleArrival { node, round } => {
                write!(f, "vertex {node} arrives a second time at round {round}")
            }
            FaultPlanError::EdgeBeforeArrival {
                u,
                v,
                endpoint,
                round,
                arrival,
            } => write!(
                f,
                "edge event {{{u}, {v}}} at round {round} references endpoint {endpoint}, \
                 which only arrives at round {arrival}"
            ),
        }
    }
}

impl std::error::Error for FaultPlanError {}

fn draw_round(rng: &mut StdRng, (lo, hi): (usize, usize)) -> usize {
    assert!(lo <= hi, "empty fault round range {lo}..={hi}");
    rng.gen_range(lo..=hi)
}

/// The live view of a plan: which faults have fired so far. The one
/// fault tracker of the workspace — both round engines and the gossip
/// schedules (tree and coded) advance it. Each sharded worker derives
/// its own copy from the shared plan and advances it in lockstep — the
/// state is a pure function of `(plan, round)`, so all workers agree
/// without communication.
pub struct FaultState<'p> {
    plan: &'p FaultPlan,
    /// Index of the first unfired event.
    next: usize,
    dead: Vec<bool>,
    /// Not-yet-arrived vertices (pre-scanned from the plan's `AddVertex`
    /// events; cleared as arrivals fire).
    dormant: Vec<bool>,
    /// Fired edge cuts, normalized and sorted for binary search.
    cut_edges: Vec<(u32, u32)>,
    /// Not-yet-activated edges (pre-scanned `AddEdge` events), normalized
    /// and sorted; entries are removed as activations fire.
    inactive_edges: Vec<(u32, u32)>,
    live: usize,
    /// Vertices killed / woken by the latest [`FaultState::advance_to`].
    newly_dead: Vec<NodeId>,
    woke: Vec<NodeId>,
}

impl<'p> FaultState<'p> {
    /// The state before any event fires: arrival targets dormant, their
    /// edges inactive, nobody dead. `n` is the (final) topology's size.
    pub fn new(plan: &'p FaultPlan, n: usize) -> Self {
        let mut dormant = vec![false; n];
        let mut inactive_edges: Vec<(u32, u32)> = Vec::new();
        for e in plan.events() {
            match e.fault {
                Fault::AddVertex(v) => {
                    if v < n {
                        dormant[v] = true;
                    }
                }
                Fault::AddEdge(u, v) => inactive_edges.push((u as u32, v as u32)),
                Fault::Vertex(_) | Fault::Edge(..) => {}
            }
        }
        inactive_edges.sort_unstable();
        inactive_edges.dedup();
        let live = n - dormant.iter().filter(|&&d| d).count();
        FaultState {
            plan,
            next: 0,
            dead: vec![false; n],
            dormant,
            cut_edges: Vec::new(),
            inactive_edges,
            live,
            newly_dead: Vec::new(),
            woke: Vec::new(),
        }
    }

    /// Fires every event scheduled at a round `≤ round`; returns whether
    /// any event fired in this call (the purge + wake + repair trigger).
    /// The vertices this call killed (a vertex killed while still
    /// dormant included — it will never receive) and woke are listed by
    /// [`FaultState::newly_dead`] and [`FaultState::woke`] until the
    /// next call. Death wins over arrival: a vertex killed while dormant
    /// stays dead.
    pub fn advance_to(&mut self, round: usize) -> bool {
        let events = self.plan.events();
        let start = self.next;
        self.newly_dead.clear();
        self.woke.clear();
        while self.next < events.len() && events[self.next].round <= round {
            match events[self.next].fault {
                Fault::Vertex(v) => {
                    if v < self.dead.len() && !self.dead[v] {
                        self.dead[v] = true;
                        if !self.dormant[v] {
                            self.live -= 1;
                        }
                        self.newly_dead.push(v);
                    }
                }
                Fault::Edge(u, v) => {
                    let key = (u as u32, v as u32);
                    if let Err(pos) = self.cut_edges.binary_search(&key) {
                        self.cut_edges.insert(pos, key);
                    }
                }
                Fault::AddVertex(v) => {
                    if v < self.dormant.len() && self.dormant[v] {
                        self.dormant[v] = false;
                        if !self.dead[v] {
                            self.live += 1;
                            self.woke.push(v);
                        }
                    }
                }
                Fault::AddEdge(u, v) => {
                    let key = (u as u32, v as u32);
                    if let Ok(pos) = self.inactive_edges.binary_search(&key) {
                        self.inactive_edges.remove(pos);
                    }
                }
            }
            self.next += 1;
        }
        self.next > start
    }

    /// Whether any fault has fired so far — or, with arrivals in the
    /// plan, from round 0: dormant endpoints and inactive edges restrict
    /// delivery before any event fires (fast path: `false` means
    /// delivery filtering can be skipped wholesale).
    pub fn any_fired(&self) -> bool {
        self.next > 0 || self.live < self.dead.len() || !self.inactive_edges.is_empty()
    }

    /// Whether `v` has been killed.
    #[inline]
    pub fn is_dead(&self, v: NodeId) -> bool {
        self.dead[v]
    }

    /// Whether `v` has not yet arrived.
    #[inline]
    pub fn is_dormant(&self, v: NodeId) -> bool {
        self.dormant[v]
    }

    /// Whether a message from `from` to `to` survives: both endpoints
    /// live (not dead, not dormant) and the edge between them neither
    /// cut nor still inactive.
    #[inline]
    pub fn deliverable(&self, from: NodeId, to: NodeId) -> bool {
        let key = (from.min(to) as u32, from.max(to) as u32);
        !self.dead[from]
            && !self.dead[to]
            && !self.dormant[from]
            && !self.dormant[to]
            && self.cut_edges.binary_search(&key).is_err()
            && self.inactive_edges.binary_search(&key).is_err()
    }

    /// Vertices currently alive and present (dormant ones excluded until
    /// they arrive).
    pub fn live(&self) -> usize {
        self.live
    }

    /// Vertices killed by the latest [`FaultState::advance_to`] call.
    pub fn newly_dead(&self) -> &[NodeId] {
        &self.newly_dead
    }

    /// Vertices (alive ones) whose arrival fired in the latest
    /// [`FaultState::advance_to`] call.
    pub fn woke(&self) -> &[NodeId] {
        &self.woke
    }

    /// Cumulative events fired so far — also the index of the first
    /// unfired event in [`FaultPlan::events`].
    pub fn fired(&self) -> usize {
        self.next
    }

    /// Round of the next unfired event, if any — the fast-forward target
    /// of a schedule idling until an arrival.
    pub fn next_event_round(&self) -> Option<usize> {
        self.plan.events().get(self.next).map(|e| e.round)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decomp_graph::generators;

    #[test]
    fn new_normalizes_edges_and_sorts_by_round() {
        let plan = FaultPlan::new([
            ScheduledFault {
                round: 5,
                fault: Fault::Edge(3, 1),
            },
            ScheduledFault {
                round: 2,
                fault: Fault::Vertex(0),
            },
        ]);
        assert_eq!(plan.events()[0].round, 2);
        assert_eq!(plan.events()[1].fault, Fault::Edge(1, 3));
    }

    #[test]
    fn random_plans_are_seed_deterministic_and_distinct_across_seeds() {
        let g = generators::harary(4, 24);
        let a = FaultPlan::random_vertices(&g, 3, (1, 9), 7);
        let b = FaultPlan::random_vertices(&g, 3, (1, 9), 7);
        assert_eq!(a, b);
        let c = FaultPlan::random_vertices(&g, 3, (1, 9), 8);
        assert_ne!(a, c);
        // Distinct vertices, rounds inside the window.
        let mut vs: Vec<NodeId> = a
            .events()
            .iter()
            .map(|e| match e.fault {
                Fault::Vertex(v) => v,
                _ => unreachable!(),
            })
            .collect();
        vs.sort_unstable();
        vs.dedup();
        assert_eq!(vs.len(), 3);
        assert!(a.events().iter().all(|e| (1..=9).contains(&e.round)));

        let e1 = FaultPlan::random_edges(&g, 4, (0, 3), 5);
        assert_eq!(e1, FaultPlan::random_edges(&g, 4, (0, 3), 5));
        assert_eq!(e1.len(), 4);
    }

    #[test]
    fn worst_case_vertices_picks_highest_degree_ties_to_low_id() {
        // star(4): center 0 has degree 3, leaves degree 1.
        let g = generators::star(4);
        let plan = FaultPlan::worst_case_vertices(&g, 2, 1);
        assert_eq!(
            plan.events().iter().map(|e| e.fault).collect::<Vec<_>>(),
            vec![Fault::Vertex(0), Fault::Vertex(1)]
        );
    }

    #[test]
    fn surviving_graph_isolates_dead_vertices_and_drops_cut_edges() {
        let g = generators::cycle(5);
        let plan = FaultPlan::new([
            ScheduledFault {
                round: 1,
                fault: Fault::Vertex(0),
            },
            ScheduledFault {
                round: 3,
                fault: Fault::Edge(2, 3),
            },
        ]);
        let after1 = plan.surviving_graph(&g, 1);
        assert_eq!(after1.n(), 5);
        assert_eq!(after1.degree(0), 0);
        assert_eq!(after1.m(), g.m() - 2);
        let after3 = plan.surviving_graph(&g, 3);
        assert_eq!(after3.m(), g.m() - 3);
        assert_eq!(plan.dead_vertices_after(3), vec![0]);
    }

    #[test]
    fn validate_accepts_a_sane_churn_plan() {
        let g = generators::cycle(6);
        let plan = FaultPlan::new([
            ScheduledFault {
                round: 2,
                fault: Fault::AddVertex(5),
            },
            ScheduledFault {
                round: 3,
                fault: Fault::Vertex(0),
            },
            // Same-round edge cut on the dying vertex is allowed (the
            // ordering inside a round is immaterial; both drop traffic).
            ScheduledFault {
                round: 3,
                fault: Fault::Edge(0, 1),
            },
            ScheduledFault {
                round: 4,
                fault: Fault::AddEdge(2, 4),
            },
        ]);
        assert_eq!(plan.validate(&g), Ok(()));
    }

    #[test]
    fn validate_flags_out_of_range_nodes() {
        let g = generators::cycle(4);
        let plan = FaultPlan::new([ScheduledFault {
            round: 1,
            fault: Fault::Vertex(4),
        }]);
        assert_eq!(
            plan.validate(&g),
            Err(FaultPlanError::NodeOutOfRange {
                node: 4,
                n: 4,
                round: 1
            })
        );
        let plan = FaultPlan::new([ScheduledFault {
            round: 2,
            fault: Fault::AddEdge(1, 9),
        }]);
        assert!(matches!(
            plan.validate(&g),
            Err(FaultPlanError::NodeOutOfRange { node: 9, .. })
        ));
    }

    #[test]
    fn validate_flags_double_kill() {
        let g = generators::cycle(4);
        let plan = FaultPlan::new([
            ScheduledFault {
                round: 1,
                fault: Fault::Vertex(2),
            },
            ScheduledFault {
                round: 5,
                fault: Fault::Vertex(2),
            },
        ]);
        assert_eq!(
            plan.validate(&g),
            Err(FaultPlanError::DoubleKill { node: 2, round: 5 })
        );
    }

    #[test]
    fn validate_flags_edge_fault_on_dead_endpoint() {
        let g = generators::cycle(4);
        let plan = FaultPlan::new([
            ScheduledFault {
                round: 1,
                fault: Fault::Vertex(3),
            },
            ScheduledFault {
                round: 2,
                fault: Fault::Edge(2, 3),
            },
        ]);
        assert_eq!(
            plan.validate(&g),
            Err(FaultPlanError::EdgeFaultOnDeadEndpoint {
                u: 2,
                v: 3,
                endpoint: 3,
                round: 2
            })
        );
    }

    #[test]
    fn validate_flags_double_arrival() {
        let g = generators::cycle(4);
        let plan = FaultPlan::new([
            ScheduledFault {
                round: 1,
                fault: Fault::AddVertex(1),
            },
            ScheduledFault {
                round: 3,
                fault: Fault::AddVertex(1),
            },
        ]);
        assert_eq!(
            plan.validate(&g),
            Err(FaultPlanError::DoubleArrival { node: 1, round: 3 })
        );
    }

    #[test]
    fn arrival_plans_are_seed_deterministic() {
        let g = generators::harary(4, 24);
        let a = FaultPlan::random_arrivals(&g, 5, (1, 9), 7);
        assert_eq!(a, FaultPlan::random_arrivals(&g, 5, (1, 9), 7));
        assert_ne!(a, FaultPlan::random_arrivals(&g, 5, (1, 9), 8));
        assert_eq!(a.len(), 5);
        assert_eq!(a.validate(&g), Ok(()));
        let e = FaultPlan::random_edge_arrivals(&g, 3, (0, 4), 11);
        assert_eq!(e, FaultPlan::random_edge_arrivals(&g, 3, (0, 4), 11));
        assert_eq!(e.len(), 3);
        // Kill + arrival plans merge into one sorted schedule.
        let merged = a.merged(&FaultPlan::random_vertices(&g, 2, (2, 6), 3));
        assert_eq!(merged.len(), 7);
        assert!(merged.events().windows(2).all(|w| w[0].round <= w[1].round));
    }

    #[test]
    fn dormant_vertices_and_surviving_graph_track_arrivals() {
        let g = generators::cycle(5);
        let plan = FaultPlan::new([
            ScheduledFault {
                round: 3,
                fault: Fault::AddVertex(2),
            },
            ScheduledFault {
                round: 5,
                fault: Fault::AddEdge(0, 1),
            },
        ]);
        assert_eq!(plan.dormant_vertices_after(0), vec![2]);
        assert_eq!(plan.dormant_vertices_after(2), vec![2]);
        assert!(plan.dormant_vertices_after(3).is_empty());
        let before = plan.surviving_graph(&g, 0);
        // Vertex 2 isolated (drops edges {1,2}, {2,3}) and edge {0,1}
        // inactive.
        assert_eq!(before.degree(2), 0);
        assert_eq!(before.m(), g.m() - 3);
        let mid = plan.surviving_graph(&g, 3);
        assert_eq!(mid.m(), g.m() - 1, "vertex 2 arrived, {{0,1}} still off");
        let after = plan.surviving_graph(&g, 5);
        assert_eq!(after.m(), g.m());
    }

    #[test]
    fn validate_flags_edge_events_before_arrival() {
        let g = generators::cycle(6);
        // Activation of {2, 5} at round 3, but vertex 5 only arrives at
        // round 7 — a growth plan referencing the edge before the vertex.
        let plan = FaultPlan::new([
            ScheduledFault {
                round: 3,
                fault: Fault::AddEdge(2, 5),
            },
            ScheduledFault {
                round: 7,
                fault: Fault::AddVertex(5),
            },
        ]);
        assert_eq!(
            plan.validate(&g),
            Err(FaultPlanError::EdgeBeforeArrival {
                u: 2,
                v: 5,
                endpoint: 5,
                round: 3,
                arrival: 7
            })
        );
        // A cut is an edge reference too.
        let plan = FaultPlan::new([
            ScheduledFault {
                round: 1,
                fault: Fault::Edge(0, 4),
            },
            ScheduledFault {
                round: 2,
                fault: Fault::AddVertex(4),
            },
        ]);
        assert!(matches!(
            plan.validate(&g),
            Err(FaultPlanError::EdgeBeforeArrival {
                endpoint: 4,
                round: 1,
                arrival: 2,
                ..
            })
        ));
        // Same-round and later references are causally fine.
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
                round: 5,
                fault: Fault::Edge(3, 4),
            },
        ]);
        assert_eq!(plan.validate(&g), Ok(()));
    }

    #[test]
    fn growth_topology_stamps_overlay_edges_with_arrival_rounds() {
        // Base: a path 0-1-2; vertex 3 exists but is isolated until its
        // arrival, when its edges are revealed.
        let base = Graph::from_edges(4, [(0, 1), (1, 2)]);
        let plan = FaultPlan::new([
            ScheduledFault {
                round: 4,
                fault: Fault::AddVertex(3),
            },
            ScheduledFault {
                round: 4,
                fault: Fault::AddEdge(2, 3),
            },
            ScheduledFault {
                round: 6,
                fault: Fault::AddEdge(0, 3),
            },
        ]);
        assert_eq!(plan.validate(&base), Ok(()));
        let gg = plan.growth_topology(&base);
        assert_eq!(gg.n(), 4);
        assert_eq!(gg.edge_epoch(2, 3), Some(4));
        assert_eq!(gg.edge_epoch(0, 3), Some(6));
        assert_eq!(gg.edge_epoch(0, 1), Some(0), "base edges active at 0");
        assert!(gg.neighbors_at(3, 3).next().is_none());
        assert_eq!(gg.neighbors_at(3, 4).collect::<Vec<_>>(), vec![2]);
        assert_eq!(gg.neighbors_at(3, 6).collect::<Vec<_>>(), vec![0, 2]);
        // An AddEdge whose edge is already in the base stays settled
        // (no overlay entry; the delivery filter handles it).
        let settled = FaultPlan::new([ScheduledFault {
            round: 3,
            fault: Fault::AddEdge(0, 1),
        }]);
        let gg = settled.growth_topology(&base);
        assert_eq!(gg.overlay_len(), 0);
        assert_eq!(gg.edge_epoch(0, 1), Some(0));
    }

    #[test]
    fn fault_state_wakes_dormant_vertices_and_activates_edges() {
        let plan = FaultPlan::new([
            ScheduledFault {
                round: 2,
                fault: Fault::AddVertex(1),
            },
            ScheduledFault {
                round: 4,
                fault: Fault::AddEdge(0, 3),
            },
        ]);
        let mut fs = FaultState::new(&plan, 5);
        // Arrivals restrict delivery from round 0: fast path is on even
        // before any event fires.
        assert!(fs.any_fired());
        assert!(fs.is_dormant(1));
        assert!(!fs.deliverable(0, 1));
        assert!(!fs.deliverable(1, 2));
        assert!(!fs.deliverable(0, 3), "inactive edge drops traffic");
        assert!(fs.deliverable(3, 4));
        assert_eq!((fs.live(), fs.next_event_round()), (4, Some(2)));
        assert!(!fs.advance_to(1));
        assert!(fs.advance_to(2));
        assert!(!fs.is_dormant(1));
        assert_eq!(fs.woke(), &[1]);
        assert_eq!(
            (fs.live(), fs.fired(), fs.next_event_round()),
            (5, 1, Some(4))
        );
        assert!(fs.deliverable(0, 1));
        assert!(!fs.deliverable(0, 3));
        assert!(fs.advance_to(4));
        assert!(fs.deliverable(0, 3));
        assert!(fs.deliverable(3, 0));
    }

    #[test]
    fn fault_state_fires_in_round_order_and_filters_delivery() {
        let plan = FaultPlan::new([
            ScheduledFault {
                round: 2,
                fault: Fault::Vertex(1),
            },
            ScheduledFault {
                round: 4,
                fault: Fault::Edge(0, 2),
            },
        ]);
        let mut fs = FaultState::new(&plan, 4);
        assert!(!fs.advance_to(1));
        assert!(!fs.any_fired());
        assert!(fs.deliverable(0, 1));
        assert!(fs.advance_to(2));
        assert!(fs.is_dead(1));
        assert_eq!((fs.newly_dead(), fs.live()), (&[1][..], 3));
        assert!(!fs.deliverable(0, 1));
        assert!(!fs.deliverable(1, 0));
        assert!(fs.deliverable(0, 2));
        assert!(!fs.advance_to(3));
        assert!(fs.advance_to(4));
        assert!(
            fs.newly_dead().is_empty(),
            "lists hold the latest call only"
        );
        assert_eq!((fs.fired(), fs.next_event_round()), (2, None));
        assert!(!fs.deliverable(0, 2));
        assert!(!fs.deliverable(2, 0));
        assert!(fs.deliverable(2, 3));
    }
}
