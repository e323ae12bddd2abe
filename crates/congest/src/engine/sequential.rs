//! The single-threaded lockstep engine.
//!
//! Two `InboxArena`s double-buffer the rounds: programs read the
//! current round's arena while their sends are written into the next
//! round's; the buffers swap at the round boundary and are reset (not
//! reallocated), so the steady-state loop performs no heap allocation.
//! The active scan streams the `ActivitySlab` bitset rows — one word
//! load decides 64 nodes, and fully quiescent blocks are skipped without
//! touching a program struct.

use super::{cutoff_context, step_node, ActivitySlab, EngineRun, InboxArena, NetSpec};
use crate::fault::FaultState;
use crate::sim::{NodeProgram, Outbox, RunStats, SimError};
use decomp_graph::NodeId;
use rand::rngs::StdRng;

/// Steps every node in id order on the calling thread until quiescence
/// or `max_rounds` (the semantics of the [engine docs](super)).
pub(crate) fn run<P: NodeProgram>(
    net: &NetSpec<'_>,
    programs: &mut [P],
    rngs: &mut [StdRng],
    max_rounds: usize,
) -> EngineRun {
    let n = net.graph.n();
    let mut stats = RunStats::default();
    // cur = messages delivered into this round; next = deliveries
    // being queued for the following round.
    let mut cur = InboxArena::new(n);
    let mut next = InboxArena::new(n);
    let mut slab = ActivitySlab::new(n);
    let mut outbox = Outbox::new(net.model);
    // Active-neighbor scratch for growable runs (untouched — and
    // unallocated — on the settled fast path).
    let mut nbr_scratch: Vec<NodeId> = Vec::new();
    let mut faults = net.faults.map(|plan| FaultState::new(plan, n));
    // Not-yet-arrived vertices start dormant: skipped by the pending
    // scan (their RNG streams untouched) but blocking quiescence, so
    // the run idles to the last arrival round if it must.
    if let Some(fs) = faults.as_ref() {
        for v in 0..n {
            if fs.is_dormant(v) {
                slab.mark_asleep(v);
            }
        }
    }
    let mut round = 0usize;
    loop {
        // Faults scheduled for this round fire first: the victims'
        // in-flight deliveries are purged before the cutoff check
        // and before any inbox is consumed, and arrivals wake (a
        // fresh arrival has `done = 0`, so it is stepped this round
        // like its own round 0).
        if let Some(fs) = faults.as_mut() {
            if fs.advance_to(round) {
                cur.purge(|local, from| !fs.deliverable(from, local));
                for v in 0..n {
                    if fs.is_dead(v) {
                        slab.mark_dead(v);
                    } else if !fs.is_dormant(v) {
                        slab.wake(v);
                    }
                }
            }
        }
        if round >= max_rounds {
            let (undelivered, unfinished) =
                cutoff_context(&cur, programs.iter().enumerate(), faults.as_ref());
            // One thread owns every node: the whole run is
            // shard-local by definition.
            stats.local_words = stats.words;
            return EngineRun {
                stats,
                error: Some(SimError::ExceededMaxRounds {
                    max_rounds,
                    undelivered,
                    unfinished,
                }),
            };
        }
        let mut any_sent = false;
        let mut queued_words = 0usize;
        for w in 0..slab.num_words() {
            let mut pend = slab.pending_word(w, cur.mail_bits()[w], round);
            while pend != 0 {
                let v = w * 64 + pend.trailing_zeros() as usize;
                pend &= pend - 1;
                cur.sort(v);
                let inbox = cur.inbox(v);
                let next_arena = &mut next;
                let queued = &mut queued_words;
                let sent = step_node(
                    net,
                    v,
                    round,
                    &mut programs[v],
                    &mut rngs[v],
                    faults.as_ref(),
                    inbox,
                    &mut outbox,
                    &mut nbr_scratch,
                    &mut stats,
                    &mut |targets, payload| {
                        *queued += payload.len();
                        let off = next_arena.push_payload(payload);
                        for &u in targets {
                            next_arena.push_entry(u, v, off, payload.len() as u32);
                        }
                    },
                );
                any_sent |= sent;
                slab.set_done(v, programs[v].is_done());
            }
        }
        stats.rounds += 1;
        round += 1;
        stats.note_round_load(next.total_msgs(), queued_words);
        std::mem::swap(&mut cur, &mut next);
        next.reset();
        if slab.all_done() && !any_sent {
            break;
        }
    }
    stats.local_words = stats.words;
    EngineRun { stats, error: None }
}
