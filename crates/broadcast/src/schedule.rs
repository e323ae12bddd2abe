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

    /// The set columns of `row`, ascending.
    pub(crate) fn ones(&self, row: usize) -> impl Iterator<Item = usize> + '_ {
        let w = self.words_per_row;
        let words = self.bits[row * w..(row + 1) * w].iter().enumerate();
        words.flat_map(|(i, &word)| {
            (0..64)
                .filter(move |b| word >> b & 1 != 0)
                .map(move |b| i * 64 + b)
        })
    }

    #[inline]
    fn row_mut(&mut self, row: usize) -> &mut [u64] {
        let w = self.words_per_row;
        &mut self.bits[row * w..(row + 1) * w]
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

/// The weighted time-sharing reading of the fractional regime
/// ([`GossipConfig::Weighted`](crate::gossip::GossipConfig::Weighted)):
/// per round, every tree with an eligible pending message at a vertex
/// earns `x_τ` credit; the highest-credit tree (ties to the lowest tree
/// id) relays its lowest-indexed pending message and is charged the
/// round's total accrual across the vertex's active trees. A lane whose
/// run has drained *and* whose tree has no incomplete message left
/// anywhere retires — nothing can ever refill it, so keeping it would
/// only let a finished tree's credit shadow live ones (and inflate the
/// state peak). A lane created again starts at credit 0.
///
/// Layout: lane slot `t` is tree `t` and slot `T` (the tree count) the
/// flood, so slot order is tree-id order with the flood last — the
/// float-op order the reference oracle reproduces. `credit` is one flat
/// table of `n · (T + 1)` `f64`s (10 MB at 50 000 vertices and 24
/// trees), and `open` one bit per (vertex, slot), set while the lane
/// lives. `pend[v]` holds `v`'s pending `(slot, message)` entries in
/// ascending order: a lane's run is its slot's entries, a multiset (a
/// reseed may queue a message already pending) led by its next relay.
/// So a push finds its lane in O(1), and a pick walks the pending
/// entries and `⌈(T + 1) / 64⌉` words of lane bits, never an idle lane.
pub(crate) struct Weighted {
    /// `x_τ` per slot; the flood lane earns 1.
    weight: Vec<f64>,
    credit: Vec<f64>,
    open: BitRows,
    pend: Vec<Vec<(u32, u32)>>,
    /// Incomplete messages per slot.
    tree_incomplete: Vec<usize>,
    /// One bit per slot with no incomplete message left (every bit past
    /// the last slot set too; no lane opens there).
    finished: Vec<u64>,
    live_lanes: usize,
    peak_lanes: usize,
    entries: usize,
    peak: usize,
}

impl Weighted {
    pub(crate) fn new(n: usize, packing: &DomTreePacking) -> Self {
        let mut weight: Vec<f64> = packing.trees.iter().map(|t| t.weight).collect();
        weight.push(1.0);
        let slots = weight.len();
        Weighted {
            weight,
            credit: vec![0.0; n * slots],
            open: BitRows::new(n, slots),
            pend: vec![Vec::new(); n],
            tree_incomplete: vec![0; slots],
            finished: vec![u64::MAX; slots.div_ceil(64)],
            live_lanes: 0,
            peak_lanes: 0,
            entries: 0,
            peak: 0,
        }
    }

    /// `tree`'s lane slot ([`FLOOD`] takes the last).
    #[inline]
    fn slot(&self, tree: usize) -> usize {
        tree.min(self.weight.len() - 1)
    }
}

impl RelayPolicy for Weighted {
    /// Opens the lane at credit 0 if it is closed, and inserts `m` into
    /// its run in order.
    fn push(&mut self, v: usize, tree: usize, m: u32) {
        let s = self.slot(tree);
        if !self.open.get(v, s) {
            self.open.set(v, s);
            self.credit[v * self.weight.len() + s] = 0.0;
            self.live_lanes += 1;
        }
        let entry = (s as u32, m);
        let pend = &mut self.pend[v];
        pend.insert(pend.partition_point(|&e| e < entry), entry);
        self.entries += 1;
    }

    fn has_pending(&self, v: usize) -> bool {
        !self.pend[v].is_empty()
    }

    fn clear(&mut self, v: usize) {
        self.entries -= self.pend[v].len();
        self.pend[v].clear();
        for w in self.open.row_mut(v) {
            self.live_lanes -= w.count_ones() as usize;
            *w = 0;
        }
    }

    /// Drops each lane's stale head entries (a stale entry behind a live
    /// head stays, as in a lazily discarded heap) and retires the drained
    /// lanes of finished trees. Then every active lane at `v` (one with a
    /// pending message left) earns its weight in credit, in ascending
    /// slot order; the highest-credit lane wins the relay slot, is
    /// charged the round's total accrual, and relays its run's first
    /// entry.
    fn pick(&mut self, v: usize, stale: impl Fn(u32) -> bool) -> Option<u32> {
        let Weighted {
            weight,
            credit,
            open,
            pend,
            finished,
            live_lanes,
            entries,
            ..
        } = self;
        let pend = &mut pend[v];
        let before = pend.len();
        let (mut run, mut dropping) = (u32::MAX, false);
        pend.retain(|&(s, m)| {
            if s != run {
                (run, dropping) = (s, true);
            }
            dropping = dropping && stale(m);
            !dropping
        });
        *entries -= before - pend.len();
        let mut retired = 0;
        for (w, &f) in open.row_mut(v).iter_mut().zip(finished.iter()) {
            retired += (*w & f).count_ones() as usize;
            *w &= !f;
        }
        // A lane with a pending entry stays open, its credit untouched.
        for &(s, _) in pend.iter() {
            if !open.get(v, s as usize) {
                open.set(v, s as usize);
                retired -= 1;
            }
        }
        *live_lanes -= retired;
        let credit = &mut credit[v * weight.len()..(v + 1) * weight.len()];
        let mut accrued = 0.0f64;
        let mut best: Option<(usize, usize)> = None;
        for (i, &(s, _)) in pend.iter().enumerate() {
            if i > 0 && pend[i - 1].0 == s {
                continue;
            }
            let s = s as usize;
            credit[s] += weight[s];
            accrued += weight[s];
            best = match best {
                Some((b, _)) if credit[s] <= credit[b] => best,
                _ => Some((s, i)),
            };
        }
        let (b, head) = best?;
        credit[b] -= accrued;
        *entries -= 1;
        Some(pend.remove(head).1)
    }

    fn carried(&mut self, tree: usize) {
        let s = self.slot(tree);
        self.tree_incomplete[s] += 1;
        self.finished[s / 64] &= !(1 << (s % 64));
    }

    fn dropped(&mut self, tree: usize) {
        let s = self.slot(tree);
        self.tree_incomplete[s] -= 1;
        if self.tree_incomplete[s] == 0 {
            self.finished[s / 64] |= 1 << (s % 64);
        }
    }

    fn note_peak(&mut self) {
        self.peak = self.peak.max(self.entries);
        self.peak_lanes = self.peak_lanes.max(self.live_lanes);
    }

    /// An accounting model, not the state's size in bytes: pending
    /// entries count as u32s (2 per word) and each open lane as 5 words
    /// (a tree id, a credit, and the heap header of the heap-per-lane
    /// layout the first version kept), so `peak_state_words` keeps its
    /// recorded values. Lanes retire as their trees finish, so the lane
    /// term is the concurrent peak, not the total ever opened.
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
    /// A wave fired (`ft` already advanced to its round): updates the
    /// carriers' membership rows in `member` if they changed, and
    /// returns which carrier ids are intact and how many carriers the
    /// wave re-extracted.
    ///
    /// The contract the repair pass relies on: an intact carrier's live
    /// present members are connected through deliverable member–member
    /// edges, and dominate every live present vertex (see
    /// [`certificate_covers`]).
    fn carriers(&mut self, ft: &FaultState<'_>, member: &mut BitRows) -> (Vec<bool>, usize);
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
/// present vertex that lacks it — the repair pass's exact skip test. It
/// decides every message [`certificate_covers`] does not vouch for and
/// every flood rider, and in debug builds it checks each certificate
/// decision.
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

/// Whether a message on an intact carrier provably still covers, decided
/// from the candidates' neighbourhoods alone: the repair pass's cheap
/// test, tried before [`assignment_still_covers`]. A `true` is exact (the
/// BFS would return `true` as well); a `false` only means "run the BFS".
///
/// Terms, for the carrier's members and the message's `origin`: an
/// *eligible* vertex is a member or the origin; a *seed* is a live
/// eligible holder that has not relayed, a *spent holder* an eligible
/// holder that has. `candidates` lists every vertex that has arrived and
/// both ends of every activated edge so far. The test passes when the
/// origin is not dead and every live present candidate lacking the
/// message has no deliverable spent-holder neighbour, or a deliverable
/// seed neighbour, or a deliverable member neighbour that lacks the
/// message and has a deliverable seed neighbour itself.
///
/// Why a pass means coverage:
/// 1. A relay hands the message to every deliverable neighbour at once,
///    receptions are never undone, and a reseed only clears relay bits.
///    So a spent holder has a live neighbour lacking the message only
///    across a pair that became deliverable after its relay: through an
///    arrival or an edge activation, whose needy end is a candidate.
/// 2. The carrier is intact: its live present members are connected
///    through deliverable member–member edges and dominate every live
///    present vertex ([`RepairHook::carriers`]).
/// 3. A component of members lacking the message borders an eligible
///    holder: a member holding it, or else the origin (live; dominated
///    by a member). A seed there reaches the component; a spent one
///    makes the bordering member a candidate (1), and its test shows a
///    seed reaches it, directly or through one needy member. Either way
///    the BFS closure takes the whole component, since members relay
///    onward. A needy non-member has a member neighbour (2), which
///    relays once reached, is a seed, or is spent; then the non-member
///    is a candidate, and its test shows it reached the same way. A
///    dormant origin needs no case: the BFS returns `true` outright.
fn certificate_covers(
    g: &Graph,
    ft: &FaultState<'_>,
    candidates: &[usize],
    origin: usize,
    is_member: impl Fn(usize) -> bool,
    received: impl Fn(usize) -> bool,
    relayed: impl Fn(usize) -> bool,
) -> bool {
    if ft.is_dead(origin) {
        return false;
    }
    // Asked only of deliverable neighbours, which are live and present;
    // a dead or dormant candidate has none, so it passes.
    let holder =
        |v: usize, spent: bool| received(v) && relayed(v) == spent && (is_member(v) || v == origin);
    let nbrs = |v: usize| {
        g.neighbors(v)
            .iter()
            .copied()
            .filter(move |&u| ft.deliverable(v, u))
    };
    candidates.iter().all(|&a| {
        received(a)
            || !nbrs(a).any(|u| holder(u, true))
            || nbrs(a).any(|u| {
                holder(u, false)
                    || (is_member(u) && !received(u) && nbrs(u).any(|s| holder(s, false)))
            })
    })
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
    // Vertices killed so far, and the repair pass's candidate list:
    // every vertex that has arrived and both ends of every activated
    // edge (dead ones pruned; see `certificate_covers`).
    let mut killed = 0usize;
    let mut candidates: Vec<usize> = Vec::new();
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
            killed += ft.newly_dead().len();
            candidates.extend_from_slice(ft.woke());
            candidates.extend(ft.activated().iter().flat_map(|&(u, v)| [u, v]));
            candidates.retain(|&v| !ft.is_dead(v));
            candidates.sort_unstable();
            candidates.dedup();
            let (alive, reextracted) = hook.carriers(ft, &mut member);
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
                // `remaining[m]` counts the non-dead vertices lacking
                // `m`, so the rest of the non-dead ones hold it.
                // Dormant holders count (a dormant origin's message is
                // not lost — it arrives with the vertex); their
                // reseeded entries wait in the queue until arrival.
                if n - killed == remaining[m] {
                    remaining[m] = 0;
                    incomplete -= 1;
                    policy.dropped(tree_of[m]);
                    lost += 1;
                    continue;
                }
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
                // The certificate settles almost every message on an
                // intact carrier; the BFS decides the rest, and checks
                // each certificate decision in debug builds.
                if cur != FLOOD
                    && alive[cur]
                    && certificate_covers(
                        g,
                        ft,
                        &candidates,
                        origins[m],
                        |v| member.get(cur, v),
                        |v| received.get(m, v),
                        |v| relayed.get(m, v),
                    )
                {
                    debug_assert!(covers(cur), "certificate vouched for message {m}");
                    continue;
                }
                let readmit = cur == FLOOD && H::READMIT_FLOOD;
                if !readmit && (cur == FLOOD || alive[cur]) && covers(cur) {
                    continue;
                }
                let holders: Vec<usize> = (0..n)
                    .filter(|&v| !ft.is_dead(v) && received.get(m, v))
                    .collect();
                let eligible =
                    |t: usize, v: usize| t == FLOOD || member.get(t, v) || v == origins[m];
                let target = (0..alive.len())
                    .find(|&t| alive[t] && holders.iter().any(|&v| eligible(t, v)))
                    .unwrap_or(FLOOD);
                let next = match target {
                    FLOOD if readmit && covers(FLOOD) => continue,
                    t => t,
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gossip::{assign_trees, StaticRepair};
    use decomp_congest::{Fault, FaultPlan, ScheduledFault};
    use decomp_core::cds::centralized::{cds_packing, CdsPackingConfig};
    use decomp_core::cds::tree_extract::to_dom_tree_packing;
    use decomp_core::packing::WeightedDomTree;
    use decomp_graph::generators;
    use proptest::prelude::*;
    use std::cell::Cell;
    use std::collections::BTreeSet;
    use std::rc::Rc;

    /// `FLOOD` as a lane key (sorts after every real tree id).
    const FLOOD_LANE: u32 = u32::MAX;

    /// One (vertex, tree) lane of the heap-per-lane reference.
    struct TreeLane {
        tree: u32,
        credit: f64,
        heap: BinaryHeap<Reverse<u32>>,
    }

    /// The first layout of [`Weighted`], a sorted lane list per vertex
    /// with a heap per lane, kept verbatim as the reference the flat
    /// credit table must match pick for pick. It also counts how often a
    /// retired lane is created again.
    struct HeapLanes {
        weight: Vec<f64>,
        lanes: Vec<Vec<TreeLane>>,
        tree_incomplete: Vec<usize>,
        live_lanes: usize,
        peak_lanes: usize,
        entries: usize,
        peak: usize,
        /// Every (vertex, lane key) that has retired.
        retired: BTreeSet<(usize, u32)>,
        /// Lanes created again after retiring, shared with the caller.
        recreated: Rc<Cell<usize>>,
    }

    impl HeapLanes {
        fn new(n: usize, packing: &DomTreePacking) -> Self {
            HeapLanes {
                weight: packing.trees.iter().map(|t| t.weight).collect(),
                lanes: (0..n).map(|_| Vec::new()).collect(),
                tree_incomplete: vec![0; packing.num_trees() + 1],
                live_lanes: 0,
                peak_lanes: 0,
                entries: 0,
                peak: 0,
                retired: BTreeSet::new(),
                recreated: Rc::default(),
            }
        }
    }

    impl RelayPolicy for HeapLanes {
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
                    if self.retired.contains(&(v, key)) {
                        self.recreated.set(self.recreated.get() + 1);
                    }
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

        fn pick(&mut self, v: usize, stale: impl Fn(u32) -> bool) -> Option<u32> {
            let HeapLanes {
                weight,
                lanes,
                tree_incomplete,
                live_lanes,
                entries,
                retired,
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
                    retired.insert((v, l.tree));
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

        fn peak_words(&self) -> usize {
            self.peak.div_ceil(2) + 5 * self.peak_lanes
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The credit table takes the heap-per-lane reference's choices
        /// on random call sequences, including shapes no fault-free
        /// schedule reaches: the same `(v, tree, m)` pending twice (a
        /// reseed's duplicate), stale entries behind a live head, and
        /// lanes that retire as their tree finishes and are created
        /// again at credit 0. Weights repeat, so credit ties occur. Half
        /// the cases hold 1–4 trees; the other half hold 63–130, so a
        /// vertex's lane bits span up to three words and the flood slot
        /// sits in the first, second or third.
        fn weighted_lanes_match_the_heap_per_lane_reference(
            weights in (any::<bool>(), collection::vec(0usize..4, 1..5), collection::vec(0usize..4, 63..131))
                .prop_map(|(wide, narrow, broad)| if wide { broad } else { narrow }),
            ops in collection::vec((0u8..9, 0usize..3, 0usize..262, 0u32..6, any::<u32>()), 1..400),
        ) {
            const N: usize = 3;
            let packing = DomTreePacking {
                trees: weights
                    .iter()
                    .enumerate()
                    .map(|(id, &w)| WeightedDomTree {
                        id,
                        weight: [0.25, 0.5, 1.0 / 3.0, 1.0][w],
                        edges: Vec::new(),
                        singleton: Some(0),
                    })
                    .collect(),
            };
            let trees = packing.num_trees();
            let mut flat = Weighted::new(N, &packing);
            let mut heap = HeapLanes::new(N, &packing);
            // Incomplete messages per tree (the flood last), so `dropped`
            // never goes below zero.
            let mut incomplete = vec![0usize; trees + 1];
            for (step, &(op, v, t, m, mask)) in ops.iter().enumerate() {
                let slot = t % (trees + 1);
                let tree = if slot == trees { FLOOD } else { slot };
                match op {
                    0..=2 => {
                        flat.push(v, tree, m);
                        heap.push(v, tree, m);
                    }
                    3 | 4 => {
                        let stale = |m: u32| mask >> m & 1 != 0;
                        prop_assert_eq!(flat.pick(v, stale), heap.pick(v, stale), "pick, step {}", step);
                    }
                    5 => {
                        incomplete[slot] += 1;
                        flat.carried(tree);
                        heap.carried(tree);
                    }
                    6 if incomplete[slot] > 0 => {
                        incomplete[slot] -= 1;
                        flat.dropped(tree);
                        heap.dropped(tree);
                    }
                    7 => {
                        flat.clear(v);
                        heap.clear(v);
                    }
                    _ => {
                        flat.note_peak();
                        heap.note_peak();
                    }
                }
                for u in 0..N {
                    prop_assert_eq!(flat.has_pending(u), heap.has_pending(u), "vertex {}, step {}", u, step);
                }
                prop_assert_eq!(flat.peak_words(), heap.peak_words(), "step {}", step);
            }
        }
    }

    /// A fragmented CDS packing shaped like the benchmark's
    /// `fragmented_harary`, at 600 vertices: 24 classes on harary(6, 600)
    /// (each vertex sits in about 22 trees), and 64 spread origins.
    fn fragmented_harary() -> (Graph, DomTreePacking, Vec<usize>) {
        let g = generators::harary(6, 600);
        let cds = cds_packing(&g, &CdsPackingConfig::with_classes(24, 1));
        let packing = to_dom_tree_packing(&g, &cds).packing;
        let origins = (0..64).map(|i| i * g.n() / 64).collect();
        (g, packing, origins)
    }

    /// Seed 1's weighted tree assignment through the schedule core under
    /// `plan` and the static hook, once with [`Weighted`] and once with
    /// [`HeapLanes`]: both reports, and how many lanes the reference
    /// created again after they retired.
    fn both_layouts(
        g: &Graph,
        packing: &DomTreePacking,
        origins: &[usize],
        plan: &FaultPlan,
    ) -> (GossipReport, GossipReport, usize) {
        let tree_of = assign_trees(packing, origins.len(), 1, true);
        let member = || BitRows::from_trees(packing, g.n());
        let ft = || FaultState::new(plan, g.n());
        let mut hook = StaticRepair { g, packing };
        let flat = Weighted::new(g.n(), packing);
        let flat = run_schedule(g, origins, member(), tree_of.clone(), flat, ft(), &mut hook);
        let heap = HeapLanes::new(g.n(), packing);
        let recreated = Rc::clone(&heap.recreated);
        let heap = run_schedule(g, origins, member(), tree_of, heap, ft(), &mut hook);
        (flat, heap, recreated.get())
    }

    #[test]
    fn weighted_run_matches_the_heap_reference_on_a_fragmented_packing() {
        let (g, packing, origins) = fragmented_harary();
        let member = BitRows::from_trees(&packing, g.n());
        let memberships: usize = (0..packing.num_trees())
            .map(|t| (0..g.n()).filter(|&v| member.get(t, v)).count())
            .sum();
        assert!(memberships >= 20 * g.n(), "premise: 20 trees per vertex");
        let (flat, heap, _) = both_layouts(&g, &packing, &origins, &FaultPlan::none());
        assert_eq!(flat, heap);
    }

    #[test]
    fn weighted_run_matches_the_heap_reference_when_repair_reopens_lanes() {
        // Every tree finishes between rounds 108 and 114, tree 1 (three
        // messages) at 108, and tree 0 carries none. At round 110 vertex
        // 34 dies: it sits in every tree but tree 1, so the repair pass
        // moves every incomplete message onto tree 1, and each holder
        // whose tree-1 lane retired since round 108 opens it again at
        // credit 0. The cut at round 112 is a tree-1 edge, so the rest
        // of the run floods.
        let (g, packing, origins) = fragmented_harary();
        let member = BitRows::from_trees(&packing, g.n());
        assert!((0..packing.num_trees()).all(|t| member.get(t, 34) == (t != 1)));
        let cut = packing.trees[1].edges[0];
        assert!(cut.0 != 34 && cut.1 != 34);
        let plan = FaultPlan::new([
            ScheduledFault {
                round: 110,
                fault: Fault::Vertex(34),
            },
            ScheduledFault {
                round: 112,
                fault: Fault::Edge(cut.0, cut.1),
            },
        ]);
        let (flat, heap, recreated) = both_layouts(&g, &packing, &origins, &plan);
        assert_eq!(flat, heap);
        assert!(recreated > 0, "premise: a retired lane is created again");
        let surviving: Vec<usize> = heap.waves.iter().map(|w| w.surviving_trees).collect();
        assert_eq!(surviving, [1, 0], "premise: tree 1, then the flood");
        assert!(heap.flood_rounds > 0 && heap.complete);
    }
}
