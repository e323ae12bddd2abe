//! The round loop behind [`crate::Simulator`].
//!
//! The [`crate::Simulator`] facade owns the network (topology view,
//! model, word budget, fault plan, per-node RNG streams) and hands the
//! round loop to `sharded::run` with the shard count [`EngineKind`]
//! picks. The loop splits the nodes into balanced contiguous id ranges
//! (shards), steps shard 0 on the calling thread and each other shard
//! on its own scoped worker thread, delivers same-shard traffic
//! directly into the next round's inbox arena (bypassing the mailbox
//! plane entirely), and exchanges only cross-shard traffic through
//! per-shard mailboxes under a round barrier.
//! [`EngineKind::Sequential`] is the one-shard run: every node on the
//! calling thread, no thread spawned, every delivery local.
//!
//! The loop steps `programs` (one per node, indexed by node id) in
//! lockstep rounds until global quiescence (all programs done and no
//! messages in flight) or until `max_rounds` is exhausted: messages
//! sent in round `r` are delivered (sorted by sender id) at the start
//! of round `r + 1`, and a node is stepped iff it is active (round 0,
//! non-empty inbox, or not done).
//!
//! Each shard keeps its per-node *activity* state as struct-of-arrays
//! bitset slabs (see `ActivitySlab`): done/dead/mail live in packed
//! words, so the per-round active scan streams 64 nodes per load
//! instead of chasing one program struct per node.
//!
//! ## Determinism contract
//!
//! Every shard count produces **bit-identical** results for the same
//! network, programs, and seed — outputs, per-node RNG streams, *and*
//! [`RunStats`]. Three properties of the round semantics make this
//! cheap to guarantee:
//!
//! 1. each node's RNG is an independent seeded stream, advanced only by
//!    that node's own [`NodeProgram::round`] calls, so execution order
//!    across nodes never leaks into the random choices;
//! 2. a node receives at most one message per neighbor per round (in both
//!    models), and inboxes are sorted by sender id before delivery, so the
//!    order in which the shards *enqueue* messages is unobservable;
//! 3. message/word counters are commutative sums; each shard reduces
//!    them locally and the run merges them in shard order, which yields
//!    the one-shard totals — and the peak-memory counters are counted on
//!    the *sender* side (payload words once per send, messages once per
//!    receiver) and summed into identical global per-round totals on
//!    every shard, so they do not depend on the shard count either.
//!
//! Every shard delivers through flat `InboxArena`s — one contiguous
//! payload-word buffer plus `(sender, offset, length)` entries per
//! node, reset (never reallocated) at the round boundary — and routes
//! sends through a reusable span-based `Outbox`, so the steady-state
//! round loop performs no heap allocation and a broadcast payload is
//! stored once per shard instead of cloned per receiver (the
//! message-plane invariants of `docs/DETERMINISM.md`).
//!
//! The one deliberate exception: the [`RunStats`] locality split
//! (`local_words` / `cross_shard_words`) describes the shard split, not
//! the protocol — the one-shard run reports everything local, and each
//! shard count reports its own cut. Cross-engine comparisons normalize
//! it away with [`RunStats::locality_blind`]; every other counter
//! (including `words == local_words + cross_shard_words`) is
//! engine-independent.
//!
//! The equivalence is enforced by `tests/engine_equivalence.rs` (every
//! testkit fixture family, one shard vs. 2- and 4-shard runs) and by
//! the CI jobs that rerun the simulator-driven suites — golden registry
//! included — under `DECOMP_ENGINE=sharded:4`.

mod partition;
pub(crate) mod sharded;

use crate::fault::{FaultPlan, FaultState};
use crate::sim::{InEntry, Inbox, Model, NodeCtx, NodeProgram, Outbox, RunStats, SimError};
use decomp_graph::{NodeId, TopologyView};
use rand::rngs::StdRng;
use std::fmt;
use std::str::FromStr;

/// Default shard count used by `EngineKind::parse("sharded")`.
pub const DEFAULT_SHARDS: usize = 4;

/// Selects the shard count of a [`crate::Simulator`]'s round loop.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// The one-shard run (the default): every node stepped on the
    /// calling thread, no thread spawned — the same run as
    /// `sharded(1)`.
    Sequential,
    /// `shards` balanced contiguous node id ranges: shard 0 on the
    /// calling thread, each other shard on a scoped worker thread.
    Sharded {
        /// Number of shards. Clamped to `n` at run time; `1` is the
        /// `Sequential` run.
        shards: usize,
    },
}

impl EngineKind {
    /// A sharded engine over `shards` balanced contiguous id ranges.
    pub fn sharded(shards: usize) -> EngineKind {
        EngineKind::Sharded { shards }
    }

    /// Parses `"sequential"` (or `"seq"`), `"sharded"` (=
    /// [`DEFAULT_SHARDS`] shards), or `"sharded:<N>"`.
    ///
    /// # Errors
    /// Returns a human-readable message on unknown names or bad shard
    /// counts.
    pub fn parse(s: &str) -> Result<EngineKind, String> {
        match s {
            "sequential" | "seq" => Ok(EngineKind::Sequential),
            "sharded" => Ok(EngineKind::sharded(DEFAULT_SHARDS)),
            _ => match s.strip_prefix("sharded:") {
                Some(num) => match num.parse::<usize>() {
                    Ok(shards) if shards >= 1 => Ok(EngineKind::sharded(shards)),
                    _ => Err(format!("bad shard count in engine spec '{s}'")),
                },
                None => Err(format!(
                    "unknown engine '{s}' (expected 'sequential', 'sharded', \
                     or 'sharded:<N>')"
                )),
            },
        }
    }
}

impl fmt::Display for EngineKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineKind::Sequential => write!(f, "sequential"),
            EngineKind::Sharded { shards } => write!(f, "sharded:{shards}"),
        }
    }
}

impl FromStr for EngineKind {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        EngineKind::parse(s)
    }
}

/// The immutable network parameters an engine executes against.
pub(crate) struct NetSpec<'g> {
    /// The delivery topology. A settled graph delivers over its CSR
    /// slices; a growable one over
    /// [`GrowableGraph::neighbors_at`](decomp_graph::GrowableGraph::neighbors_at)
    /// with epoch = round, so a program can never observe a future edge
    /// (degree included). Vertex count, shard split and buffer sizing
    /// come from the view's base.
    pub topology: TopologyView<'g>,
    /// The CONGEST variant whose constraints are enforced.
    pub model: Model,
    /// Per-message payload budget in words.
    pub word_budget: usize,
    /// Deterministic failure schedule (see [`crate::fault`]); a
    /// fault-free run carries the empty plan. Each shard derives its own
    /// `FaultState` from it, advanced in lockstep.
    pub faults: &'g FaultPlan,
}

/// The outcome of one engine run.
///
/// `stats` is populated even when the run errors, so the facade can keep
/// cumulative accounting for partially executed protocols.
pub(crate) struct EngineRun {
    /// Rounds / messages / words executed before termination or error.
    pub stats: RunStats,
    /// `None` on quiescence; the error otherwise.
    pub error: Option<SimError>,
}

/// A flat per-shard inbox arena: one contiguous word buffer holding every
/// payload delivered into the current round, plus per-node
/// `(sender, offset, length)` entry lists. Reset — **not** reallocated —
/// each round: `reset` keeps every buffer's capacity, so the steady
/// state allocates nothing (the memory-plane invariant
/// `docs/DETERMINISM.md` documents).
pub(crate) struct InboxArena {
    words: Vec<u64>,
    entries: Vec<Vec<InEntry>>,
    /// Local node indices with at least one entry (so `reset` is
    /// `O(touched)`, not `O(n)`).
    touched: Vec<u32>,
    /// Packed has-mail bits, one per local node — the SoA row the
    /// active scan streams (see [`ActivitySlab::pending_word`]).
    mail: Vec<u64>,
    total_msgs: usize,
}

impl InboxArena {
    pub(crate) fn new(nodes: usize) -> Self {
        InboxArena {
            words: Vec::new(),
            entries: vec![Vec::new(); nodes],
            touched: Vec::new(),
            mail: vec![0; nodes.div_ceil(64)],
            total_msgs: 0,
        }
    }

    /// Clears all deliveries, keeping buffer capacity.
    pub(crate) fn reset(&mut self) {
        for &local in &self.touched {
            self.entries[local as usize].clear();
            self.mail[local as usize / 64] &= !(1 << (local % 64));
        }
        self.touched.clear();
        self.words.clear();
        self.total_msgs = 0;
    }

    /// Appends one payload copy; returns its offset.
    pub(crate) fn push_payload(&mut self, payload: &[u64]) -> u32 {
        let off = u32::try_from(self.words.len()).expect("inbox arena exceeds u32 words");
        self.words.extend_from_slice(payload);
        off
    }

    /// Records a delivery of `(off, len)` from `from` to local node
    /// `local`.
    pub(crate) fn push_entry(&mut self, local: usize, from: NodeId, off: u32, len: u32) {
        if self.entries[local].is_empty() {
            self.touched.push(local as u32);
            self.mail[local / 64] |= 1 << (local % 64);
        }
        self.entries[local].push(InEntry {
            from: from as u32,
            off,
            len,
        });
        self.total_msgs += 1;
    }

    /// The packed has-mail bitset row (64 local nodes per word).
    pub(crate) fn mail_bits(&self) -> &[u64] {
        &self.mail
    }

    /// Sorts `local`'s entries by sender id (senders are unique per
    /// round, so the order is total and engine-independent).
    pub(crate) fn sort(&mut self, local: usize) {
        self.entries[local].sort_unstable_by_key(|e| e.from);
    }

    /// The inbox view for local node `local`.
    pub(crate) fn inbox(&self, local: usize) -> Inbox<'_> {
        Inbox::new(&self.words, &self.entries[local])
    }

    /// Total messages queued across all nodes (the `undelivered` count
    /// at a round-limit cutoff).
    pub(crate) fn total_msgs(&self) -> usize {
        self.total_msgs
    }

    /// Removes every delivery `drop(local, sender)` rejects — the
    /// fault-firing purge (a dead node's pending inbox, and anything a
    /// dead or disconnected sender had in flight toward this shard).
    /// Payload words stay in the buffer until the round-boundary reset;
    /// only the entries (and `total_msgs`) go away.
    pub(crate) fn purge(&mut self, mut drop: impl FnMut(usize, NodeId) -> bool) {
        let mut t = 0;
        while t < self.touched.len() {
            let local = self.touched[t] as usize;
            let before = self.entries[local].len();
            self.entries[local].retain(|e| !drop(local, e.from as NodeId));
            self.total_msgs -= before - self.entries[local].len();
            if self.entries[local].is_empty() {
                self.touched.swap_remove(t);
                self.mail[local / 64] &= !(1 << (local % 64));
            } else {
                t += 1;
            }
        }
    }
}

/// Struct-of-arrays per-shard activity state: packed done/dead bitset
/// rows sized to the shard's node count, combined per 64-node block with
/// the arena's has-mail row to drive the active scan. One word load
/// covers 64 nodes, and fully-quiescent blocks (all done, no mail) are
/// skipped without touching a single program struct.
///
/// `done` caches each program's last reported `is_done()`. That cache is
/// sound because `is_done()` is a pure function of program state, and
/// program state only changes inside that node's own `round()` call —
/// so the bit is refreshed exactly when it can change, right after the
/// step. Nodes skipped in a round keep their (still valid) bit.
pub(crate) struct ActivitySlab {
    done: Vec<u64>,
    dead: Vec<u64>,
    /// Dormant (not-yet-arrived) nodes: masked out of the pending scan
    /// like the dead, but they *block* quiescence (`done` stays 0), so a
    /// run idles until every arrival has fired rather than finishing
    /// without them.
    asleep: Vec<u64>,
    n: usize,
}

impl ActivitySlab {
    pub(crate) fn new(n: usize) -> Self {
        ActivitySlab {
            done: vec![0; n.div_ceil(64)],
            dead: vec![0; n.div_ceil(64)],
            asleep: vec![0; n.div_ceil(64)],
            n,
        }
    }

    pub(crate) fn num_words(&self) -> usize {
        self.done.len()
    }

    /// Refreshes local node `i`'s cached done bit after its step.
    #[inline]
    pub(crate) fn set_done(&mut self, i: usize, done: bool) {
        let mask = 1u64 << (i % 64);
        if done {
            self.done[i / 64] |= mask;
        } else {
            self.done[i / 64] &= !mask;
        }
    }

    /// Marks local node `i` as faulted (never stepped again, excluded
    /// from quiescence).
    #[inline]
    pub(crate) fn mark_dead(&mut self, i: usize) {
        self.dead[i / 64] |= 1 << (i % 64);
    }

    #[cfg(test)]
    pub(crate) fn is_dead(&self, i: usize) -> bool {
        self.dead[i / 64] >> (i % 64) & 1 == 1
    }

    /// Marks local node `i` dormant at init (arrival pending): skipped by
    /// the pending scan but counted against quiescence until it wakes.
    #[inline]
    pub(crate) fn mark_asleep(&mut self, i: usize) {
        self.asleep[i / 64] |= 1 << (i % 64);
    }

    /// Wakes local node `i` (its arrival fired). Idempotent; a freshly
    /// woken node has `done = 0`, so it is stepped like its own round 0
    /// on the next pending scan.
    #[inline]
    pub(crate) fn wake(&mut self, i: usize) {
        self.asleep[i / 64] &= !(1 << (i % 64));
    }

    /// The 64-node pending mask for block `w`: nodes to step this round
    /// (`mail | !done`, round 0 steps everyone), gated on being alive
    /// and in range. `mail_word` is the arena's [`InboxArena::mail_bits`]
    /// word for the same block — together they encode the activation
    /// rule of the [module docs](self) (round 0, non-empty inbox, or not
    /// done) bit for bit.
    #[inline]
    pub(crate) fn pending_word(&self, w: usize, mail_word: u64, round: usize) -> u64 {
        let tail = if (w + 1) * 64 > self.n {
            !0u64 >> (64 - self.n % 64)
        } else {
            !0u64
        };
        let want = if round == 0 {
            !0u64
        } else {
            mail_word | !self.done[w]
        };
        want & !self.dead[w] & !self.asleep[w] & tail
    }

    /// Whether every live node is done — the shard-local half of the
    /// quiescence test.
    pub(crate) fn all_done(&self) -> bool {
        self.done
            .iter()
            .zip(&self.dead)
            .enumerate()
            .all(|(w, (&done, &dead))| {
                let tail = if (w + 1) * 64 > self.n {
                    !0u64 >> (64 - self.n % 64)
                } else {
                    !0u64
                };
                !done & !dead & tail == 0
            })
    }
}

/// Executes one node's round: runs the program against the engine's
/// reusable outbox, then accounts and routes every outgoing
/// `(receivers, payload)` group through `sink` — receivers sharing one
/// payload copy (a local broadcast) arrive in a single call, so delivery
/// never clones payloads.
///
/// Once a fault has fired (or while an arrival is pending), targets that
/// are dead, dormant, or behind a cut or inactive edge are filtered
/// *here*, before any accounting: the surviving receivers arrive as
/// maximal contiguous runs, and stats count only what is actually
/// delivered.
///
/// Returns `true` iff the node attempted a send (even one whose targets
/// all died — the attempt still holds the run open one round, matching
/// the degree-0 broadcast semantics). The caller sorts the inbox (see
/// [`InboxArena::sort`]) before building the view.
#[allow(clippy::too_many_arguments)] // the full per-node execution state
pub(crate) fn step_node<P: NodeProgram>(
    net: &NetSpec<'_>,
    v: NodeId,
    round: usize,
    program: &mut P,
    rng: &mut StdRng,
    faults: &FaultState<'_>,
    inbox: Inbox<'_>,
    outbox: &mut Outbox,
    nbr_scratch: &mut Vec<NodeId>,
    stats: &mut RunStats,
    sink: &mut impl FnMut(&[NodeId], &[u64]),
) -> bool {
    // Delivery runs over the topology view at epoch = round: the static
    // path is the CSR slice (settled runs byte-identical to the
    // pre-growth engines), the growable path materializes the active
    // neighbors into the engine-owned scratch buffer. The list is
    // stable for the whole round (epochs advance only at round starts),
    // so the outbox's per-neighbor spans stay consistent.
    let neighbors =
        net.topology
            .active_neighbors(v, round.min(u32::MAX as usize) as u32, nbr_scratch);
    outbox.reset(neighbors.len());
    {
        let mut ctx = NodeCtx::new(
            v,
            net.topology.n(),
            round,
            neighbors,
            net.model,
            net.word_budget,
            outbox,
            rng,
        );
        program.round(&mut ctx, &inbox);
    }
    let live_checks = faults.any_fired();
    outbox.drain(neighbors, |targets, payload| {
        if !live_checks {
            stats.messages += targets.len();
            stats.words += payload.len() * targets.len();
            sink(targets, payload);
            return;
        }
        let mut a = 0;
        while a < targets.len() {
            if !faults.deliverable(v, targets[a]) {
                a += 1;
                continue;
            }
            let mut b = a + 1;
            while b < targets.len() && faults.deliverable(v, targets[b]) {
                b += 1;
            }
            stats.messages += b - a;
            stats.words += payload.len() * (b - a);
            sink(&targets[a..b], payload);
            a = b;
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrip() {
        for kind in [
            EngineKind::Sequential,
            EngineKind::sharded(1),
            EngineKind::sharded(2),
            EngineKind::sharded(7),
        ] {
            assert_eq!(EngineKind::parse(&kind.to_string()), Ok(kind));
        }
        assert_eq!(
            EngineKind::parse("sharded"),
            Ok(EngineKind::sharded(DEFAULT_SHARDS))
        );
        assert_eq!(EngineKind::parse("seq"), Ok(EngineKind::Sequential));
        assert!(EngineKind::parse("async").is_err());
        assert!(EngineKind::parse("sharded:0").is_err());
        assert!(EngineKind::parse("sharded:x").is_err());
        // Partition suffixes are gone: a stale `DECOMP_ENGINE` must fail
        // loudly instead of quietly testing another engine.
        assert!(EngineKind::parse("sharded:4:topo").is_err());
        assert!(EngineKind::parse("sharded:4:contig").is_err());
        assert_eq!("sharded:3".parse(), Ok(EngineKind::sharded(3)));
    }

    #[test]
    fn activity_slab_pending_masks() {
        let mut slab = ActivitySlab::new(70);
        // Round 0 steps every live node, whatever the cached bits say.
        assert_eq!(slab.pending_word(0, 0, 0), !0u64);
        assert_eq!(slab.pending_word(1, 0, 0), 0x3f, "tail mask caps at n");
        // Afterward: mail or not-done, minus the dead.
        slab.set_done(3, true);
        slab.set_done(64, true);
        slab.mark_dead(5);
        assert!(slab.is_dead(5));
        assert_eq!(slab.pending_word(0, 0, 1), !((1u64 << 3) | (1 << 5)));
        assert_eq!(slab.pending_word(0, 1 << 3, 1), !(1u64 << 5));
        assert_eq!(slab.pending_word(1, 0, 1), 0x3f & !1);
        assert!(!slab.all_done());
        for i in 0..70 {
            slab.set_done(i, true);
        }
        assert!(slab.all_done());
        // Dead nodes are excluded from the quiescence test.
        slab.set_done(5, false);
        assert!(slab.all_done(), "dead nodes never block quiescence");
        // Dormant nodes: masked out of the pending scan (even at round
        // 0), but they block quiescence until woken.
        slab.set_done(7, false);
        slab.mark_asleep(7);
        assert_eq!(slab.pending_word(0, 0, 0) & (1 << 7), 0);
        assert_eq!(slab.pending_word(0, 1 << 7, 9) & (1 << 7), 0);
        assert!(!slab.all_done(), "pending arrivals keep the run alive");
        slab.wake(7);
        assert_eq!(slab.pending_word(0, 0, 9) & (1 << 7), 1 << 7);
        slab.set_done(7, true);
        assert!(slab.all_done());
    }
}
