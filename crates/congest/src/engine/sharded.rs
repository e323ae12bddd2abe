//! The deterministic sharded multi-core engine.
//!
//! Nodes are split into `s` balanced contiguous id ranges (shards).
//! Each shard's programs, RNG streams, and inbox arenas are owned
//! exclusively by one scoped worker thread for the whole run (no
//! per-round thread spawns): the worker holds `&mut` sub-slices of the
//! caller's program and RNG slices. A round has two phases separated by
//! barriers:
//!
//! 1. **compute** — every worker streams its shard's
//!    `ActivitySlab` pending bitset and steps the
//!    active nodes (in ascending node id order). **Same-shard receivers
//!    bypass the mailbox plane entirely**: their deliveries are written
//!    straight into the shard's *next-round* inbox arena (the arenas are
//!    double-buffered, exactly like the sequential engine's). Only
//!    cross-shard receivers go through per-destination-shard outgoing
//!    batches (one word buffer + one `(to, from, off, len)` entry list
//!    each). Targets ascend and shards are contiguous, so a send's
//!    receivers in one destination shard form a single run and its
//!    payload is stored once per destination shard. The shard's
//!    send/done flags and queued-traffic totals are published;
//! 2. **deliver** — after the barrier, every worker drains its mailbox
//!    column (in sender-shard order) into its next-round arena (one
//!    `memcpy` of the words plus offset-rebased entries per batch),
//!    swaps the arena buffers, and all workers take the same
//!    continue/stop decision from the published flags.
//!
//! The mailbox plane carries only the cut fraction of the traffic; the
//! [`RunStats`] `local_words` / `cross_shard_words` split reports the
//! realized ratio.
//!
//! Mailbox cell `[src][dst]` is written only by shard `src` during
//! compute and drained only by shard `dst` during deliver, with the two
//! phases separated by a barrier — the `Mutex` per cell is never
//! contended and exists to keep the exchange in safe code. Batch buffers
//! **rotate** through the cells (sender swaps its filled batch in,
//! receiver swaps a drained one back), so the steady state allocates
//! nothing.
//!
//! Determinism (see the [module docs](super)): node order within a shard
//! is ascending, inbox entries are re-sorted by sender at consumption,
//! RNG streams are per-node, and [`RunStats`] counters are shard-local
//! sums merged in shard order — so a run is bit-identical to the
//! sequential engine for *any* shard count, the locality split excepted.
//! The peak-memory counters are counted on the *sender* side (payload
//! words once per send, messages once per receiver) and summed across
//! shards through the published per-round totals, so they too are
//! engine-independent.
//!
//! A panic inside program code (model violations are panics by contract)
//! is caught on the worker, propagated through a shared flag so every
//! other worker unblocks at the next barrier, and re-raised on the
//! calling thread.

use super::partition::Partition;
use super::{cutoff_context, step_node, ActivitySlab, EngineRun, InboxArena, NetSpec};
use crate::fault::FaultState;
use crate::sim::{NodeProgram, Outbox, RunStats, SimError};
use decomp_graph::NodeId;
use rand::rngs::StdRng;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex};
use std::thread;

/// One shard-to-shard traffic batch: a contiguous word buffer plus
/// `(to, from, off, len)` entries whose offsets index the buffer. A
/// broadcast spanning several receivers in the destination shard stores
/// its payload once, referenced by all their entries.
#[derive(Default)]
struct OutBatch {
    entries: Vec<WireEntry>,
    words: Vec<u64>,
}

impl OutBatch {
    fn clear(&mut self) {
        self.entries.clear();
        self.words.clear();
    }
}

#[derive(Clone, Copy)]
struct WireEntry {
    /// The receiver's index within the destination shard.
    to: u32,
    from: u32,
    off: u32,
    len: u32,
}

/// One shard's per-round published state, overwritten every round (no
/// reset step needed between rounds).
struct ShardFlags {
    sent: AtomicBool,
    done: AtomicBool,
    /// Messages this shard queued for the next round (sender side).
    queued_msgs: AtomicUsize,
    /// Payload words this shard materialized for the next round, counted
    /// once per send (sender side).
    queued_words: AtomicUsize,
}

/// Runs `programs` on `shards` worker threads over balanced contiguous id
/// ranges (the semantics of the [engine docs](super)). One shard — or a
/// graph of at most one node — runs the sequential loop.
///
/// # Panics
/// Panics if `shards == 0`.
pub(crate) fn run<P: NodeProgram + Send>(
    shards: usize,
    net: &NetSpec<'_>,
    programs: &mut [P],
    rngs: &mut [StdRng],
    max_rounds: usize,
) -> EngineRun {
    assert!(shards >= 1, "need at least one shard");
    let n = net.topology.n();
    let s = shards.min(n.max(1));
    if s <= 1 {
        return super::sequential::run(net, programs, rngs, max_rounds);
    }
    let part = Partition::contiguous(n, s);

    // Cross-shard mailboxes: cell [src][dst] is written by src in the
    // compute phase and drained by dst in the deliver phase.
    let mailboxes: Vec<Vec<Mutex<OutBatch>>> = (0..s)
        .map(|_| (0..s).map(|_| Mutex::new(OutBatch::default())).collect())
        .collect();
    let flags: Vec<ShardFlags> = (0..s)
        .map(|_| ShardFlags {
            sent: AtomicBool::new(false),
            done: AtomicBool::new(false),
            queued_msgs: AtomicUsize::new(0),
            queued_words: AtomicUsize::new(0),
        })
        .collect();
    let barrier = Barrier::new(s);
    let panicked = AtomicBool::new(false);
    let panic_payload: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);

    let results: Vec<(RunStats, Option<(usize, usize)>)> = thread::scope(|scope| {
        // Hand each worker exclusive ownership of its shard's programs
        // and RNG streams: shards are contiguous, so each takes the next
        // sub-slice of both.
        let (mut progs_left, mut rngs_left) = (programs, rngs);
        let handles: Vec<_> = (0..s)
            .map(|me| {
                let len = part.range(me).len();
                let (progs, rest) = std::mem::take(&mut progs_left).split_at_mut(len);
                progs_left = rest;
                let (my_rngs, rest) = std::mem::take(&mut rngs_left).split_at_mut(len);
                rngs_left = rest;
                let part = &part;
                let mailboxes = &mailboxes;
                let flags = &flags;
                let barrier = &barrier;
                let panicked = &panicked;
                let panic_payload = &panic_payload;
                scope.spawn(move || {
                    shard_worker(
                        net,
                        part,
                        me,
                        progs,
                        my_rngs,
                        max_rounds,
                        mailboxes,
                        flags,
                        barrier,
                        panicked,
                        panic_payload,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("shard worker thread died"))
            .collect()
    });

    if let Some(payload) = panic_payload.into_inner().unwrap() {
        panic::resume_unwind(payload);
    }

    // Shard-local stats, merged in shard order. Rounds advance in
    // lockstep and peaks are global per-round sums every shard observes
    // identically, so those fields agree across shards; the locality
    // split is a per-shard sum like messages/words.
    let mut stats = RunStats::default();
    let mut exceeded: Option<(usize, usize)> = None;
    for (shard_stats, shard_err) in results {
        debug_assert!(stats.rounds == 0 || stats.rounds == shard_stats.rounds);
        debug_assert!(
            stats.peak_queued_messages == 0
                || stats.peak_queued_messages == shard_stats.peak_queued_messages
        );
        stats.rounds = stats.rounds.max(shard_stats.rounds);
        stats.messages += shard_stats.messages;
        stats.words += shard_stats.words;
        stats.local_words += shard_stats.local_words;
        stats.cross_shard_words += shard_stats.cross_shard_words;
        stats.peak_queued_messages = stats
            .peak_queued_messages
            .max(shard_stats.peak_queued_messages);
        stats.peak_arena_words = stats.peak_arena_words.max(shard_stats.peak_arena_words);
        if let Some((undelivered, unfinished)) = shard_err {
            let slot = exceeded.get_or_insert((0, 0));
            slot.0 += undelivered;
            slot.1 += unfinished;
        }
    }
    EngineRun {
        stats,
        error: exceeded.map(|(undelivered, unfinished)| SimError::ExceededMaxRounds {
            max_rounds,
            undelivered,
            unfinished,
        }),
    }
}

/// The per-shard worker loop. Returns this shard's local stats and, when
/// the round limit was hit, its `(undelivered, unfinished)` contribution
/// to the error context.
#[allow(clippy::too_many_arguments)] // the shared-state plumbing of one worker
fn shard_worker<P: NodeProgram + Send>(
    net: &NetSpec<'_>,
    part: &Partition,
    me: usize,
    progs: &mut [P],
    rngs: &mut [StdRng],
    max_rounds: usize,
    mailboxes: &[Vec<Mutex<OutBatch>>],
    flags: &[ShardFlags],
    barrier: &Barrier,
    panicked: &AtomicBool,
    panic_payload: &Mutex<Option<Box<dyn std::any::Any + Send>>>,
) -> (RunStats, Option<(usize, usize)>) {
    let s = part.num_shards();
    let nodes = part.range(me);
    let (lo, local_n) = (nodes.start, nodes.len());
    let mut stats = RunStats::default();
    // This shard's double-buffered inbox arenas (`cur` = deliveries into
    // the current round, `next` = the coming round, fed by the local
    // bypass during compute and the mailbox drain during deliver), the
    // SoA activity slab, and per-destination-shard outgoing batches;
    // `scratch` rotates through the mailbox cells. All reused every
    // round.
    let mut cur = InboxArena::new(local_n);
    let mut next = InboxArena::new(local_n);
    let mut slab = ActivitySlab::new(local_n);
    let mut outbox = Outbox::new(net.model);
    // Per-worker active-neighbor scratch for growable runs (untouched
    // on the settled fast path).
    let mut nbr_scratch: Vec<NodeId> = Vec::new();
    let mut out_bufs: Vec<OutBatch> = (0..s).map(|_| OutBatch::default()).collect();
    let mut scratch = OutBatch::default();
    // Local running tallies for the locality split (folded into `stats`
    // at exit — the sink closure runs while `stats` is borrowed by
    // `step_node`).
    let mut local_words_total = 0usize;
    let mut cross_words_total = 0usize;
    // Every worker derives its own fault view from the shared plan and
    // advances it in lockstep — a pure function of (plan, round), so all
    // shards agree on the global dead set without communication.
    let mut faults = FaultState::new(net.faults, net.topology.n());
    // Dormant (not-yet-arrived) vertices start asleep in this shard's
    // slab (the split covers every vertex id, arrivals included).
    for (i, v) in nodes.clone().enumerate() {
        if faults.is_dormant(v) {
            slab.mark_asleep(i);
        }
    }
    let mut round = 0usize;
    loop {
        // Faults fire at round start, before the cutoff check and before
        // inbox consumption: purge in-flight deliveries the failures
        // invalidated (global sender id, shard-local receiver), and wake
        // arrivals (a fresh arrival has `done = 0`, so it is stepped
        // this round like its own round 0).
        if faults.advance_to(round) {
            cur.purge(|local, from| !faults.deliverable(from, lo + local));
            for (i, v) in nodes.clone().enumerate() {
                if faults.is_dead(v) {
                    slab.mark_dead(i);
                } else if !faults.is_dormant(v) {
                    slab.wake(i);
                }
            }
        }
        // All workers share the same lockstep round counter, so they all
        // take this exit in the same round (no barrier crossing needed).
        if round >= max_rounds {
            stats.local_words = local_words_total;
            stats.cross_shard_words = cross_words_total;
            let ctx = cutoff_context(&cur, nodes.clone().zip(progs.iter()), &faults);
            return (stats, Some(ctx));
        }

        // --- Compute phase -------------------------------------------
        let mut any_sent = false;
        let mut queued_msgs = 0usize;
        let mut queued_words = 0usize;
        // `round()` and `is_done()` run inside the same catch_unwind: a
        // panicking program (or a panic leaving state that makes
        // `is_done` panic) must never kill the worker before the barrier
        // or the other shards would deadlock there.
        let step = panic::catch_unwind(AssertUnwindSafe(|| {
            for w in 0..slab.num_words() {
                let mut pend = slab.pending_word(w, cur.mail_bits()[w], round);
                while pend != 0 {
                    let i = w * 64 + pend.trailing_zeros() as usize;
                    pend &= pend - 1;
                    let v = lo + i;
                    cur.sort(i);
                    let inbox = cur.inbox(i);
                    let nbr_scratch = &mut nbr_scratch;
                    let next_arena = &mut next;
                    let bufs = &mut out_bufs;
                    let qm = &mut queued_msgs;
                    let qw = &mut queued_words;
                    let lw = &mut local_words_total;
                    let cw = &mut cross_words_total;
                    let sent = step_node(
                        net,
                        v,
                        round,
                        &mut progs[i],
                        &mut rngs[i],
                        &faults,
                        inbox,
                        &mut outbox,
                        nbr_scratch,
                        &mut stats,
                        &mut |targets, payload| {
                            *qm += targets.len();
                            *qw += payload.len();
                            // Targets ascend and shards are contiguous id
                            // ranges, so each destination shard (this one
                            // included) is exactly one run of targets and
                            // receives one payload copy per send.
                            debug_assert!(targets.windows(2).all(|w| w[0] < w[1]));
                            let len = payload.len() as u32;
                            let mut a = 0;
                            while a < targets.len() {
                                let dst = part.shard_of(targets[a]);
                                let Range { start, end } = part.range(dst);
                                let mut b = a + 1;
                                while b < targets.len() && targets[b] < end {
                                    b += 1;
                                }
                                let run = &targets[a..b];
                                let run_words = payload.len() * run.len();
                                if dst == me {
                                    // Local bypass: deliver straight into
                                    // the next-round arena, skipping the
                                    // mailbox plane.
                                    *lw += run_words;
                                    let off = next_arena.push_payload(payload);
                                    for &u in run {
                                        next_arena.push_entry(u - start, v, off, len);
                                    }
                                } else {
                                    *cw += run_words;
                                    let batch = &mut bufs[dst];
                                    let off = u32::try_from(batch.words.len())
                                        .expect("shard batch exceeds u32 words");
                                    batch.words.extend_from_slice(payload);
                                    for &u in run {
                                        batch.entries.push(WireEntry {
                                            to: (u - start) as u32,
                                            from: v as u32,
                                            off,
                                            len,
                                        });
                                    }
                                }
                                a = b;
                            }
                        },
                    );
                    any_sent |= sent;
                    slab.set_done(i, progs[i].is_done());
                }
            }
            slab.all_done()
        }));
        let local_done = match step {
            Ok(done) => done,
            Err(payload) => {
                panicked.store(true, Ordering::SeqCst);
                panic_payload.lock().unwrap().get_or_insert(payload);
                // Value is irrelevant: every worker exits right after the
                // barrier once the panic flag is up.
                true
            }
        };
        // Publish outgoing batches: swap each filled batch into its
        // mailbox cell, taking back the drained batch the receiver left
        // there (buffer rotation — no allocation). The own-shard cell
        // stays empty: local traffic already sits in `next`.
        for (dst, buf) in out_bufs.iter_mut().enumerate() {
            if dst != me {
                std::mem::swap(&mut *mailboxes[me][dst].lock().unwrap(), buf);
            }
        }
        flags[me].sent.store(any_sent, Ordering::SeqCst);
        flags[me].done.store(local_done, Ordering::SeqCst);
        flags[me].queued_msgs.store(queued_msgs, Ordering::SeqCst);
        flags[me].queued_words.store(queued_words, Ordering::SeqCst);

        // --- Round barrier: mailboxes and flags are published --------
        barrier.wait();
        if panicked.load(Ordering::SeqCst) {
            stats.local_words = local_words_total;
            stats.cross_shard_words = cross_words_total;
            return (stats, None);
        }
        let all_done = flags.iter().all(|f| f.done.load(Ordering::SeqCst));
        let any_sent_global = flags.iter().any(|f| f.sent.load(Ordering::SeqCst));
        // Global queued-traffic totals for the coming round: identical
        // sums on every worker, hence engine-independent peaks.
        let round_msgs: usize = flags
            .iter()
            .map(|f| f.queued_msgs.load(Ordering::SeqCst))
            .sum();
        let round_words: usize = flags
            .iter()
            .map(|f| f.queued_words.load(Ordering::SeqCst))
            .sum();
        stats.rounds += 1;
        round += 1;
        stats.note_round_load(round_msgs, round_words);

        // --- Deliver phase (sender-shard order) -----------------------
        // Cross-shard deliveries join the locally bypassed ones already
        // sitting in `next`; entry order is unobservable (inboxes are
        // re-sorted by sender at consumption).
        for (src, src_row) in mailboxes.iter().enumerate() {
            if src == me {
                continue;
            }
            std::mem::swap(&mut *src_row[me].lock().unwrap(), &mut scratch);
            let base = next.push_payload(&scratch.words);
            for e in &scratch.entries {
                next.push_entry(e.to as usize, e.from as NodeId, base + e.off, e.len);
            }
            scratch.clear();
        }
        std::mem::swap(&mut cur, &mut next);
        next.reset();

        // Second barrier: every cell drained and every flag consumed
        // before the next compute phase overwrites them.
        barrier.wait();
        if all_done && !any_sent_global {
            stats.local_words = local_words_total;
            stats.cross_shard_words = cross_words_total;
            return (stats, None);
        }
    }
}
