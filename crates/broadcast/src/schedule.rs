//! The gossip schedule core: one round loop behind every tree-regime
//! schedule of Appendix A (Corollary A.1).
//!
//! A round has three phases. (0) Faults scheduled at the round fire, and
//! a [`RepairHook`] names the carriers (trees or classes) still intact;
//! every incomplete message whose assignment can no longer reach its
//! needy vertices moves to the lowest-id intact carrier holding it, or
//! to the flood fallback. (1) Every active vertex picks one pending
//! message from the state at round start through its [`RelayPolicy`].
//! (2) The relays apply in pick order: a relay is a local broadcast, and
//! receivers that belong to the message's tree (everyone, under the
//! flood fallback) queue it in turn.
//!
//! The greedy and fractional readings of the schedule differ only in
//! the policy ([`Greedy`] vs [`Weighted`]); a static packing and live
//! churn differ only in the hook (`gossip::StaticRepair` keeps the
//! packing's trees, `churn::ChurnRepair` re-extracts the touched
//! classes). A fault-free run is the run of the empty plan: its tracker
//! never fires, so the loop skips the liveness and edge checks, and an
//! empty plan carries no `relayed` bitset.

use crate::gossip::{GossipReport, MessageOrigin, WaveSample};
use decomp_congest::FaultState;
use decomp_core::packing::{DomTreePacking, WeightedDomTree};
use decomp_graph::Graph;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A row-major packed bit matrix: `rows` rows of `n` bits each.
pub(crate) struct BitRows {
    rows: usize,
    words_per_row: usize,
    bits: Vec<u64>,
}

impl BitRows {
    pub(crate) fn new(rows: usize, n: usize) -> Self {
        let words_per_row = n.div_ceil(64);
        BitRows {
            rows,
            words_per_row,
            bits: vec![0; rows * words_per_row],
        }
    }

    #[inline]
    pub(crate) fn get(&self, row: usize, col: usize) -> bool {
        self.bits[row * self.words_per_row + col / 64] >> (col % 64) & 1 != 0
    }

    #[inline]
    pub(crate) fn set(&mut self, row: usize, col: usize) {
        self.bits[row * self.words_per_row + col / 64] |= 1 << (col % 64);
    }

    #[inline]
    pub(crate) fn clear(&mut self, row: usize, col: usize) {
        self.bits[row * self.words_per_row + col / 64] &= !(1 << (col % 64));
    }

    pub(crate) fn words(&self) -> usize {
        self.bits.len()
    }

    /// One row per tree of `packing`: its members (edge endpoints, or
    /// the singleton).
    pub(crate) fn from_trees(packing: &DomTreePacking, n: usize) -> Self {
        let mut rows = BitRows::new(packing.num_trees(), n);
        for (t, tree) in packing.trees.iter().enumerate() {
            for &(u, v) in &tree.edges {
                rows.set(t, u);
                rows.set(t, v);
            }
            if let Some(s) = tree.singleton {
                rows.set(t, s);
            }
        }
        rows
    }
}

/// SplitMix-style hash of one relay event; summed per run (within-round
/// relay order is unobservable, so the fold must be commutative). The
/// tree schedules hash `(round, vertex, message)`; the RLNC schedule
/// reuses it as `(round, vertex, generation)`.
#[inline]
pub(crate) fn relay_hash(round: usize, v: usize, m: usize) -> u64 {
    let mut z = (round as u64).wrapping_mul(0x9e3779b97f4a7c15) ^ (((v as u64) << 32) | m as u64);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Sentinel carrier id for the flood fallback: when no intact carrier
/// can take a message, every live holder relays it and every live
/// receiver relays onward — BFS over the surviving graph.
pub(crate) const FLOOD: usize = usize::MAX;

/// Which pending message a vertex relays: the one choice the greedy and
/// fractional readings of the schedule disagree on.
pub(crate) trait RelayPolicy {
    /// Queues message `m`, carried by `tree` (or [`FLOOD`]), at `v`.
    fn push(&mut self, v: usize, tree: usize, m: u32);
    /// Whether `v` has anything queued.
    fn has_pending(&self, v: usize) -> bool;
    /// Drops everything queued at `v` (it died).
    fn clear(&mut self, v: usize);
    /// Pops `v`'s relay for this round, discarding `stale` entries.
    fn pick(&mut self, v: usize, stale: impl Fn(u32) -> bool) -> Option<u32>;
    /// An incomplete message now rides `tree`.
    fn carried(&mut self, _tree: usize) {}
    /// An incomplete message left `tree`: delivered, lost, or moved.
    fn dropped(&mut self, _tree: usize) {}
    /// Folds the current queue sizes into the peaks (once per round).
    fn note_peak(&mut self);
    /// Peak words of the queues, for `peak_state_words`.
    fn peak_words(&self) -> usize;
}

/// The historical greedy reading: each vertex relays its lowest-indexed
/// pending message (a per-vertex min-heap), exactly as the historical
/// `O(nmsg · n)` table scan chose it.
pub(crate) struct Greedy {
    heaps: Vec<BinaryHeap<Reverse<u32>>>,
    entries: usize,
    peak: usize,
}

impl Greedy {
    pub(crate) fn new(n: usize) -> Self {
        Greedy {
            heaps: (0..n).map(|_| BinaryHeap::new()).collect(),
            entries: 0,
            peak: 0,
        }
    }
}

impl RelayPolicy for Greedy {
    #[inline]
    fn push(&mut self, v: usize, _tree: usize, m: u32) {
        self.heaps[v].push(Reverse(m));
        self.entries += 1;
    }

    #[inline]
    fn has_pending(&self, v: usize) -> bool {
        !self.heaps[v].is_empty()
    }

    fn clear(&mut self, v: usize) {
        self.entries -= self.heaps[v].len();
        self.heaps[v].clear();
    }

    #[inline]
    fn pick(&mut self, v: usize, stale: impl Fn(u32) -> bool) -> Option<u32> {
        while let Some(Reverse(m)) = self.heaps[v].pop() {
            self.entries -= 1;
            if !stale(m) {
                return Some(m);
            }
        }
        None
    }

    fn note_peak(&mut self) {
        self.peak = self.peak.max(self.entries);
    }

    /// Heap entries are u32s: count them in 64-bit words (2 per word).
    fn peak_words(&self) -> usize {
        self.peak.div_ceil(2)
    }
}

/// `FLOOD` as a lane key (sorts after every real tree id).
const FLOOD_LANE: u32 = u32::MAX;

/// One (vertex, tree) lane of the weighted credit scheduler: the trees
/// through a vertex each hold their own min-heap of pending messages and
/// a credit accumulator. Lanes are kept sorted by tree id so credit
/// accrual and the arg-max walk visit trees in ascending-id order — the
/// float-op order the reference oracle reproduces exactly.
struct TreeLane {
    tree: u32,
    credit: f64,
    heap: BinaryHeap<Reverse<u32>>,
}

/// The weighted time-sharing reading of the fractional regime
/// ([`GossipConfig::Weighted`](crate::gossip::GossipConfig::Weighted)):
/// per round, every tree with an eligible pending message at a vertex
/// earns `x_τ` credit; the highest-credit tree (ties to the lowest tree
/// id) relays its lowest-indexed pending message and is charged the
/// round's total accrual across the vertex's active trees. A lane whose
/// heap has drained *and* whose tree has no incomplete message left
/// anywhere retires — nothing can ever refill it, so keeping it would
/// only let a finished tree's credit shadow live ones (and inflate the
/// state peak).
pub(crate) struct Weighted {
    weight: Vec<f64>,
    lanes: Vec<Vec<TreeLane>>,
    /// Incomplete messages per tree, the flood fallback last.
    tree_incomplete: Vec<usize>,
    live_lanes: usize,
    peak_lanes: usize,
    entries: usize,
    peak: usize,
}

impl Weighted {
    pub(crate) fn new(n: usize, packing: &DomTreePacking) -> Self {
        Weighted {
            weight: packing.trees.iter().map(|t| t.weight).collect(),
            lanes: (0..n).map(|_| Vec::new()).collect(),
            tree_incomplete: vec![0; packing.num_trees() + 1],
            live_lanes: 0,
            peak_lanes: 0,
            entries: 0,
            peak: 0,
        }
    }
}

impl RelayPolicy for Weighted {
    /// Creates the lane on first use (lanes stay sorted by tree id; the
    /// flood lane's key sorts last).
    fn push(&mut self, v: usize, tree: usize, m: u32) {
        let key = if tree == FLOOD {
            FLOOD_LANE
        } else {
            tree as u32
        };
        let vl = &mut self.lanes[v];
        let i = match vl.binary_search_by_key(&key, |l| l.tree) {
            Ok(i) => i,
            Err(i) => {
                vl.insert(
                    i,
                    TreeLane {
                        tree: key,
                        credit: 0.0,
                        heap: BinaryHeap::new(),
                    },
                );
                self.live_lanes += 1;
                i
            }
        };
        vl[i].heap.push(Reverse(m));
        self.entries += 1;
    }

    fn has_pending(&self, v: usize) -> bool {
        self.lanes[v].iter().any(|l| !l.heap.is_empty())
    }

    fn clear(&mut self, v: usize) {
        for l in &self.lanes[v] {
            self.entries -= l.heap.len();
        }
        self.live_lanes -= self.lanes[v].len();
        self.lanes[v].clear();
    }

    /// Every active tree at `v` (one with an eligible pending message,
    /// after lazily discarding stale entries) earns its weight in
    /// credit, in ascending tree-id order; the highest-credit active tree
    /// wins the relay slot and is charged the round's total accrual.
    /// Drained lanes of finished trees retire here.
    fn pick(&mut self, v: usize, stale: impl Fn(u32) -> bool) -> Option<u32> {
        let Weighted {
            weight,
            lanes,
            tree_incomplete,
            live_lanes,
            entries,
            ..
        } = self;
        let vl = &mut lanes[v];
        vl.retain_mut(|l| {
            while let Some(&Reverse(m)) = l.heap.peek() {
                if !stale(m) {
                    break;
                }
                l.heap.pop();
                *entries -= 1;
            }
            let t = (l.tree as usize).min(weight.len());
            if l.heap.is_empty() && tree_incomplete[t] == 0 {
                *live_lanes -= 1;
                false
            } else {
                true
            }
        });
        let mut accrued = 0.0f64;
        let mut best: Option<usize> = None;
        for i in 0..vl.len() {
            if vl[i].heap.is_empty() {
                continue;
            }
            let w = if vl[i].tree == FLOOD_LANE {
                1.0
            } else {
                weight[vl[i].tree as usize]
            };
            vl[i].credit += w;
            accrued += w;
            best = match best {
                Some(b) if vl[i].credit <= vl[b].credit => Some(b),
                _ => Some(i),
            };
        }
        let b = best?;
        vl[b].credit -= accrued;
        let Reverse(m) = vl[b].heap.pop().expect("active lane has a message");
        *entries -= 1;
        Some(m)
    }

    fn carried(&mut self, tree: usize) {
        self.tree_incomplete[tree.min(self.weight.len())] += 1;
    }

    fn dropped(&mut self, tree: usize) {
        self.tree_incomplete[tree.min(self.weight.len())] -= 1;
    }

    fn note_peak(&mut self) {
        self.peak = self.peak.max(self.entries);
        self.peak_lanes = self.peak_lanes.max(self.live_lanes);
    }

    /// Heap entries are u32s (2 per word); a lane adds a tree id, a
    /// credit, and a heap header (~5 words). Lanes retire as their trees
    /// finish, so the lane term is the concurrent peak, not the total
    /// ever created.
    fn peak_words(&self) -> usize {
        self.peak.div_ceil(2) + 5 * self.peak_lanes
    }
}

/// Which carriers may take a message after a fault wave: the one choice
/// a static packing and live churn disagree on.
pub(crate) trait RepairHook {
    /// Whether a message riding the flood fallback moves back onto an
    /// intact carrier as soon as one can take it, even while the flood
    /// still covers (churn), rather than only once the flood stops
    /// covering (a static packing).
    const READMIT_FLOOD: bool;
    /// The wave at `round` fired (`ft` already advanced): updates the
    /// carriers' membership rows in `member` if they changed, and
    /// returns which carrier ids are intact and how many carriers the
    /// wave re-extracted.
    fn carriers(
        &mut self,
        round: usize,
        ft: &FaultState<'_>,
        member: &mut BitRows,
    ) -> (Vec<bool>, usize);
}

/// Whether every live present vertex outside carrier `t` is adjacent,
/// through a deliverable edge, to one of its members.
pub(crate) fn dominates(g: &Graph, ft: &FaultState<'_>, member: &BitRows, t: usize) -> bool {
    (0..g.n()).all(|v| {
        ft.is_dead(v)
            || ft.is_dormant(v)
            || member.get(t, v)
            || g.neighbors(v)
                .iter()
                .any(|&u| member.get(t, u) && ft.deliverable(v, u))
    })
}

/// Whether tree `t` is still intact: every member alive and present (a
/// dormant member cannot relay, so the tree heals only when it arrives),
/// every tree edge usable, and every live present vertex still
/// dominated. Dormant vertices are exempt from domination until they
/// arrive — at which point the repair pass re-checks and reassigns.
pub(crate) fn tree_ok(
    g: &Graph,
    ft: &FaultState<'_>,
    t: usize,
    tree: &WeightedDomTree,
    member: &BitRows,
) -> bool {
    tree.edges.iter().all(|&(u, v)| ft.deliverable(u, v))
        && tree
            .singleton
            .is_none_or(|s| !ft.is_dead(s) && !ft.is_dormant(s))
        && dominates(g, ft, member, t)
}

/// Whether a message's in-flight assignment can still reach every
/// present vertex that lacks it — the repair pass's skip test.
///
/// "Some eligible holder has not relayed yet" is NOT enough: after an
/// arrival (or a cut behind an already-fired relay), the only members
/// adjacent to a needy vertex may all have relayed, while the unrelayed
/// ones sit elsewhere on the tree. So take the closure instead:
/// unrelayed eligible holders relay, and recipients that would requeue —
/// tree members, or everyone under a flood — relay in turn; every
/// missing present vertex must be reached.
///
/// A *dormant* unrelayed eligible holder (a sleeping origin) makes this
/// return `true` outright: its relay fires on arrival, and every arrival
/// fires a wave whose repair pass re-evaluates this exact question — so
/// waiting is safe and avoids reseed churn. Conversely dormant vertices
/// need no coverage yet, for the same reason.
fn assignment_still_covers(
    g: &Graph,
    ft: &FaultState<'_>,
    origin: usize,
    is_flood: bool,
    is_member: impl Fn(usize) -> bool,
    received: impl Fn(usize) -> bool,
    relayed: impl Fn(usize) -> bool,
) -> bool {
    let n = g.n();
    let mut relayer = vec![false; n];
    let mut queue: Vec<usize> = Vec::new();
    for (v, slot) in relayer.iter_mut().enumerate() {
        if ft.is_dead(v) || !received(v) || relayed(v) {
            continue;
        }
        if is_flood || is_member(v) || v == origin {
            if ft.is_dormant(v) {
                return true;
            }
            *slot = true;
            queue.push(v);
        }
    }
    let mut covered = vec![false; n];
    while let Some(v) = queue.pop() {
        for &u in g.neighbors(v) {
            if covered[u] || received(u) || !ft.deliverable(v, u) {
                continue;
            }
            covered[u] = true;
            if (is_flood || is_member(u)) && !relayer[u] {
                relayer[u] = true;
                queue.push(u);
            }
        }
    }
    (0..n).all(|v| ft.is_dead(v) || ft.is_dormant(v) || received(v) || covered[v])
}

/// The round to resume from when a round relayed nothing with messages
/// still incomplete. The only legitimate idle state is awaiting a
/// scheduled arrival (e.g. every present vertex is served and the
/// stragglers have not arrived yet): idle rounds carry no relays (and
/// draw no coefficients), so jumping to the eve of the next event leaves
/// the digest and round count exactly as if the schedule had spun.
///
/// # Panics
/// Panics when no event is due: the schedule has stalled.
pub(crate) fn idle_until_next_event(ft: &FaultState<'_>, rounds: usize) -> usize {
    let Some(r) = ft.next_event_round() else {
        panic!(
            "gossip schedule stalled: a message can no longer make progress \
             (is some tree not dominating, or did faults disconnect the survivors?)"
        );
    };
    rounds.max(r.saturating_sub(1))
}

/// Puts `v` on next round's worklist, once.
#[inline]
fn enqueue(queued: &mut [bool], worklist: &mut Vec<u32>, v: usize) {
    if !queued[v] {
        queued[v] = true;
        worklist.push(v as u32);
    }
}

/// Messages per carrier in `tree_of`; flood riders count nowhere.
pub(crate) fn tree_load(tree_of: &[usize], carriers: usize) -> Vec<usize> {
    let mut load = vec![0; carriers];
    for &t in tree_of.iter().filter(|&&t| t != FLOOD) {
        load[t] += 1;
    }
    load
}

/// Runs the schedule to completion: message `m` starts at `origins[m]`
/// on carrier `tree_of[m]` (a row of `member`, or [`FLOOD`]). Every
/// round first advances the tracker `ft` and, when events fire, runs the
/// repair pass through `hook` and records a [`WaveSample`]; events at
/// rounds 0 and 1 fire before the first relay choice. Idle rounds while
/// an arrival is still due fast-forward to its eve
/// ([`idle_until_next_event`]). The report's tree diameter and admission
/// counts are the caller's to fill.
///
/// # Panics
/// Panics if a message can no longer make progress (a tree that does not
/// dominate, or faults that disconnect the survivors).
pub(crate) fn run_schedule<P: RelayPolicy, H: RepairHook>(
    g: &Graph,
    origins: &[MessageOrigin],
    mut member: BitRows,
    mut tree_of: Vec<usize>,
    mut policy: P,
    mut ft: FaultState<'_>,
    hook: &mut H,
) -> GossipReport {
    let n = g.n();
    let nmsg = origins.len();
    let per_tree_load = tree_load(&tree_of, member.rows);
    // received: one bit row per message. Without repair, a (message,
    // vertex) pair is queued at most once (on the vertex's 0→1
    // reception, members only, plus the origin hand-off), so popping
    // doubles as the `relayed` table; the repair pass reseeds holders,
    // so a plan with events tracks relays explicitly in the `relayed`
    // bitset (`nmsg × n` bits, which an empty plan never reads).
    let mut received = BitRows::new(nmsg, n);
    let mut remaining: Vec<usize> = vec![n - 1; nmsg];
    let mut relayed = ft.next_event_round().map(|_| BitRows::new(nmsg, n));
    let mut worklist: Vec<u32> = Vec::new();
    let mut queued: Vec<bool> = vec![false; n];
    let mut incomplete = 0usize;
    for (m, &origin) in origins.iter().enumerate() {
        received.set(m, origin);
        if remaining[m] > 0 {
            incomplete += 1;
            policy.carried(tree_of[m]);
        }
        policy.push(origin, tree_of[m], m as u32);
        enqueue(&mut queued, &mut worklist, origin);
    }
    policy.note_peak();

    let mut waves: Vec<WaveSample> = Vec::new();
    let mut lost_messages = 0usize;
    let mut wasted_bandwidth = 0usize;
    let mut repair_events = 0usize;
    let mut flood_rounds = 0usize;
    let mut rounds = 0usize;
    let mut schedule_digest = 0u64;
    let round_limit = 64 * (n + nmsg) + 1024;
    let mut frontier: Vec<u32> = Vec::new();
    let mut relays: Vec<(u32, u32)> = Vec::new();
    while incomplete > 0 {
        rounds += 1;
        assert!(
            rounds <= round_limit,
            "gossip schedule failed to complete within {round_limit} rounds"
        );
        // Phase 0 — faults scheduled at this round fire before any
        // relay choice is made.
        if ft.advance_to(rounds) {
            let ft = &ft;
            let relayed = relayed.as_mut().expect("a plan that fires has events");
            // Dead vertices drop their relay queues and no longer
            // count toward delivery.
            for &v in ft.newly_dead() {
                policy.clear(v);
            }
            for (m, rem) in remaining.iter_mut().enumerate() {
                if *rem == 0 {
                    continue;
                }
                for &v in ft.newly_dead() {
                    if !received.get(m, v) {
                        *rem -= 1;
                        if *rem == 0 {
                            incomplete -= 1;
                            policy.dropped(tree_of[m]);
                        }
                    }
                }
            }
            let (alive, reextracted) = hook.carriers(rounds, ft, &mut member);
            // Repair pass: any incomplete message whose assignment
            // no longer covers its needy vertices is moved to the
            // lowest-id intact carrier holding it — or floods if
            // none can carry it — and its eligible holders are
            // reseeded (allowed to relay again). The same pass
            // serves arrivals: a message complete among the old
            // population has every holder relayed, so the arrival
            // of a still-needy vertex reseeds it onto a carrier
            // that dominates the newcomer.
            let mut reassigned = 0usize;
            let mut lost = 0usize;
            for m in 0..nmsg {
                if remaining[m] == 0 {
                    continue;
                }
                // Dormant holders count (a dormant origin's message
                // is not lost — it arrives with the vertex); their
                // reseeded entries wait in the queue until arrival.
                let holders: Vec<usize> = (0..n)
                    .filter(|&v| !ft.is_dead(v) && received.get(m, v))
                    .collect();
                if holders.is_empty() {
                    remaining[m] = 0;
                    incomplete -= 1;
                    policy.dropped(tree_of[m]);
                    lost += 1;
                    continue;
                }
                let eligible =
                    |t: usize, v: usize| t == FLOOD || member.get(t, v) || v == origins[m];
                let target = || {
                    (0..alive.len())
                        .find(|&t| alive[t] && holders.iter().any(|&v| eligible(t, v)))
                        .unwrap_or(FLOOD)
                };
                let covers = |t: usize| {
                    assignment_still_covers(
                        g,
                        ft,
                        origins[m],
                        t == FLOOD,
                        |v| t != FLOOD && member.get(t, v),
                        |v| received.get(m, v),
                        |v| relayed.get(m, v),
                    )
                };
                let cur = tree_of[m];
                let next = if cur == FLOOD && H::READMIT_FLOOD {
                    match target() {
                        FLOOD if covers(FLOOD) => continue,
                        t => t,
                    }
                } else if (cur == FLOOD || alive[cur]) && covers(cur) {
                    continue;
                } else {
                    target()
                };
                policy.dropped(cur);
                policy.carried(next);
                tree_of[m] = next;
                reassigned += 1;
                for &v in &holders {
                    if eligible(next, v) {
                        relayed.clear(m, v);
                        policy.push(v, next, m as u32);
                        enqueue(&mut queued, &mut worklist, v);
                    }
                }
            }
            lost_messages += lost;
            repair_events += reassigned;
            // Arrivals whose pending relays were seeded while they
            // slept (a dormant origin, or a reseed above) rejoin
            // the worklist now.
            for &v in ft.woke() {
                if policy.has_pending(v) {
                    enqueue(&mut queued, &mut worklist, v);
                }
            }
            waves.push(WaveSample {
                round: rounds,
                faults_fired: ft.fired(),
                live_vertices: ft.live(),
                surviving_trees: alive.iter().filter(|&&a| a).count(),
                incomplete_messages: incomplete,
                reassigned_messages: reassigned,
                lost_messages: lost,
                reextracted_classes: reextracted,
                flood_rounds_before: flood_rounds,
            });
            if incomplete == 0 {
                rounds -= 1;
                break;
            }
        }
        // Phase 1 — choices, from the state at round start: each active
        // vertex pops its relay, lazily discarding messages that
        // completed in earlier rounds and, under a plan, entries this
        // vertex already relayed (reseed duplicates). Dead and dormant
        // vertices sit out (a dormant queue keeps its entries). Until an
        // event fires, with no arrival pending, every vertex is live and
        // every edge delivers, so the liveness checks are skipped.
        let live_checks = ft.any_fired();
        std::mem::swap(&mut frontier, &mut worklist);
        relays.clear();
        for &v in &frontier {
            let v = v as usize;
            queued[v] = false;
            if live_checks && (ft.is_dead(v) || ft.is_dormant(v)) {
                continue;
            }
            let stale = |m: u32| {
                remaining[m as usize] == 0 || relayed.as_ref().is_some_and(|r| r.get(m as usize, v))
            };
            if let Some(m) = policy.pick(v, stale) {
                relays.push((v as u32, m));
            }
        }
        // Phase 2 — apply all relays; receptions push next-round work.
        let mut flooded = false;
        for &(v, m) in &relays {
            let (v, m) = (v as usize, m as usize);
            schedule_digest = schedule_digest.wrapping_add(relay_hash(rounds, v, m));
            if let Some(r) = relayed.as_mut() {
                r.set(m, v);
            }
            let tree = tree_of[m];
            flooded |= tree == FLOOD;
            for &u in g.neighbors(v) {
                if live_checks && !ft.deliverable(v, u) {
                    continue;
                }
                if !received.get(m, u) {
                    received.set(m, u);
                    remaining[m] -= 1;
                    if remaining[m] == 0 {
                        incomplete -= 1;
                        policy.dropped(tree);
                    }
                    if tree == FLOOD || member.get(tree, u) {
                        policy.push(u, tree, m as u32);
                        enqueue(&mut queued, &mut worklist, u);
                    }
                } else {
                    wasted_bandwidth += 1;
                }
            }
        }
        flood_rounds += flooded as usize;
        policy.note_peak();
        // Vertices that still hold pending relays stay on the frontier.
        for &v in &frontier {
            if policy.has_pending(v as usize) {
                enqueue(&mut queued, &mut worklist, v as usize);
            }
        }
        frontier.clear();
        if relays.is_empty() && incomplete > 0 {
            rounds = idle_until_next_event(&ft, rounds);
        }
    }
    GossipReport {
        rounds,
        num_messages: nmsg,
        complete: lost_messages == 0,
        per_tree_load,
        peak_state_words: received.words() + member.words() + policy.peak_words(),
        schedule_digest,
        reextractions: waves.iter().map(|w| w.reextracted_classes).sum(),
        waves,
        lost_messages,
        wasted_bandwidth,
        repair_events,
        flood_rounds,
        ..Default::default()
    }
}
