//! Engine contrast: the sharded round engine vs the naive
//! thread-per-node execution people reach for first.
//!
//! Both run the same workload — a few rounds of all-node neighborhood
//! gossip with per-word mixing on a 10⁴-node random-regular instance —
//! and produce the same digest. The contrast is *how* the rounds
//! execute:
//!
//! * the **simulator engines** step nodes in-place over per-shard
//!   contiguous state slabs, deliver same-shard messages without
//!   touching the mailbox plane, and reuse arena buffers across rounds;
//! * the **thread-per-node baseline** spawns one OS thread per active
//!   node per round (64 KiB stacks — the default 8 MiB would ask for
//!   80 GB of address space), ships every message through per-node
//!   outbox vectors, and joins all threads at the round barrier.
//!
//! The baseline is the distributed-algorithms textbook picture taken
//! literally ("every node is a processor"), and the point of the
//! numbers is that an engine built around memory layout beats it by
//! orders of magnitude at identical semantics — spawn/join alone costs
//! more than the sharded engine spends on the whole round.
//!
//! Run with `cargo run --release --example engine_contrast`.
//! Track results in `BENCH_SIM.md` ("PR 7").

use connectivity_decomposition::congest::{
    EngineKind, Inbox, Message, Model, NodeCtx, NodeProgram, Simulator,
};
use connectivity_decomposition::graph::generators;
use std::time::Instant;

const N: usize = 10_000;
const DEGREE: usize = 8;
const ROUNDS: usize = 4;

#[inline]
fn mix(mut z: u64) -> u64 {
    for _ in 0..4 {
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^= z >> 31;
    }
    z
}

/// The workload, engine-agnostically: fold the inbox into the
/// accumulator, then (while rounds remain) broadcast a deterministic
/// word derived from the node id and round. No RNG, so the simulator
/// engines and the hand-rolled baseline can be digest-compared.
#[inline]
fn step(v: usize, round: usize, acc: &mut u64, inbox: &[(usize, u64)]) -> Option<u64> {
    for &(from, w) in inbox {
        *acc = acc.wrapping_add(mix(w ^ from as u64));
    }
    (round < ROUNDS).then(|| mix((v as u64) << 32 | round as u64))
}

struct GossipMix {
    v: usize,
    round: usize,
    acc: u64,
}

impl NodeProgram for GossipMix {
    fn round(&mut self, ctx: &mut NodeCtx<'_>, inbox: &Inbox<'_>) {
        let flat: Vec<(usize, u64)> = inbox
            .into_iter()
            .flat_map(|(from, m)| m.words().iter().map(move |&w| (from, w)))
            .collect();
        if let Some(word) = step(self.v, self.round, &mut self.acc, &flat) {
            ctx.broadcast(Message::from_words([word]));
        }
        self.round += 1;
    }
    fn is_done(&self) -> bool {
        self.round > ROUNDS
    }
}

fn run_simulator(g: &connectivity_decomposition::graph::Graph, engine: EngineKind) -> (u64, f64) {
    let mut sim = Simulator::with_seed(g, Model::VCongest, 42).with_engine(engine);
    let programs = (0..g.n())
        .map(|v| GossipMix {
            v,
            round: 0,
            acc: 0,
        })
        .collect();
    let t0 = Instant::now();
    let (programs, _) = sim.run_to_quiescence(programs).unwrap();
    let wall = t0.elapsed().as_secs_f64();
    let digest = programs.iter().fold(0u64, |a, p| a.wrapping_add(p.acc));
    (digest, wall)
}

/// One OS thread per active node per round. Each thread owns its node's
/// state and inbox and returns `(new_acc, Option<broadcast word>)`;
/// the main thread plays message plane, fanning broadcasts out to
/// neighbor inboxes between rounds. Joins in node order, so the digest
/// is deterministic.
fn run_thread_per_node(g: &connectivity_decomposition::graph::Graph) -> (u64, f64) {
    let n = g.n();
    let t0 = Instant::now();
    let mut acc: Vec<u64> = vec![0; n];
    let mut inboxes: Vec<Vec<(usize, u64)>> = vec![Vec::new(); n];
    // Rounds 0..=ROUNDS: the final round only drains the last inboxes
    // (mirrors the simulator programs' quiescence).
    for round in 0..=ROUNDS {
        let handles: Vec<_> = (0..n)
            .map(|v| {
                let mut my_acc = acc[v];
                let my_inbox = std::mem::take(&mut inboxes[v]);
                std::thread::Builder::new()
                    .stack_size(64 * 1024)
                    .spawn(move || {
                        let out = step(v, round, &mut my_acc, &my_inbox);
                        (my_acc, out)
                    })
                    .expect("spawn node thread")
            })
            .collect();
        let mut sent: Vec<(usize, u64)> = Vec::new();
        for (v, h) in handles.into_iter().enumerate() {
            let (a, out) = h.join().expect("node thread");
            acc[v] = a;
            if let Some(w) = out {
                sent.push((v, w));
            }
        }
        for (v, w) in sent {
            for &u in g.neighbors(v) {
                inboxes[u].push((v, w));
            }
        }
        // Deliver sorted by sender, like the engines do.
        for inbox in inboxes.iter_mut() {
            inbox.sort_unstable_by_key(|&(from, _)| from);
        }
    }
    let wall = t0.elapsed().as_secs_f64();
    let digest = acc.iter().fold(0u64, |a, &x| a.wrapping_add(x));
    (digest, wall)
}

fn main() {
    let g = generators::random_regular(N, DEGREE, 1);
    println!("workload: {ROUNDS} rounds of all-node gossip+mix on random-regular n={N} d={DEGREE}");

    let (expect, seq_wall) = run_simulator(&g, EngineKind::Sequential);
    let mut rows: Vec<(String, u64, f64)> = vec![("simulator/sequential".into(), expect, seq_wall)];
    let (digest, wall) = run_simulator(&g, EngineKind::sharded(4));
    rows.push(("simulator/sharded:4".into(), digest, wall));
    let (digest, wall) = run_thread_per_node(&g);
    rows.push(("thread-per-node baseline".into(), digest, wall));

    for (label, digest, wall) in &rows {
        assert_eq!(digest, &expect, "{label}: engines must agree on the digest");
        println!(
            "{label:<28} digest={digest:#018x}  wall={:>8.3}s  ({:>6.1}x baseline)",
            wall,
            rows.last().unwrap().2 / wall.max(1e-9),
        );
    }
}
