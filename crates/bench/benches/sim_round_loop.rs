//! Criterion bench: engine comparison on the round loop itself.
//!
//! A 10⁴-node random-regular instance (the scale the ROADMAP's
//! million-node trajectory passes through next) drives two workloads per
//! engine:
//!
//! * `gossip16` — 16 rounds of all-node local gossip with per-word mixing
//!   on receive: the compute-bound regime where the sharded engine's
//!   worker pool pays off (one shard per core);
//! * `bfs` — distributed BFS from node 0: the communication-bound,
//!   few-round regime that mostly measures engine overhead.
//!
//! Engines are bit-for-bit equivalent (asserted here on the gossip
//! digest), so the numbers compare wall-clock only. Track results in
//! `BENCH_SIM.md` at the workspace root.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use decomp_congest::bfs::distributed_bfs;
use decomp_congest::{EngineKind, Inbox, Message, Model, NodeCtx, NodeProgram, Simulator};
use decomp_graph::{generators, Graph};
use rand::Rng;

const N: usize = 10_000;
const DEGREE: usize = 8;
const GOSSIP_ROUNDS: usize = 16;

/// Every node gossips a random word each round and folds received words
/// through a few SplitMix-style rounds — stand-in for real per-message
/// program work (table updates, component bookkeeping).
struct GossipMix {
    rounds_left: usize,
    acc: u64,
}

#[inline]
fn mix(mut z: u64) -> u64 {
    for _ in 0..4 {
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^= z >> 31;
    }
    z
}

impl NodeProgram for GossipMix {
    fn round(&mut self, ctx: &mut NodeCtx<'_>, inbox: &Inbox<'_>) {
        for (from, m) in inbox {
            for &w in m.words() {
                self.acc = self.acc.wrapping_add(mix(w ^ from as u64));
            }
        }
        if self.rounds_left > 0 {
            self.rounds_left -= 1;
            let word: u64 = ctx.rng().gen();
            ctx.broadcast(Message::from_words([word]));
        }
    }
    fn is_done(&self) -> bool {
        self.rounds_left == 0
    }
}

fn run_gossip(g: &Graph, engine: EngineKind) -> (u64, decomp_congest::RunStats) {
    let mut sim = Simulator::with_seed(g, Model::VCongest, 42).with_engine(engine);
    let programs = (0..g.n())
        .map(|_| GossipMix {
            rounds_left: GOSSIP_ROUNDS,
            acc: 0,
        })
        .collect();
    let (programs, stats) = sim.run_to_quiescence(programs).unwrap();
    let digest = programs.iter().fold(0u64, |a, p| a.wrapping_add(p.acc));
    (digest, stats)
}

fn engines() -> [EngineKind; 3] {
    [
        EngineKind::Sequential,
        EngineKind::sharded(2),
        EngineKind::sharded(4),
    ]
}

fn bench_round_loop(c: &mut Criterion) {
    let g = generators::random_regular(N, DEGREE, 1);

    // Engine equivalence on the bench workload itself: identical digests
    // AND identical stats (peak-memory counters included; the locality
    // split is the one shard-dependent pair, printed instead).
    let expected = run_gossip(&g, EngineKind::Sequential);
    for engine in engines().into_iter().skip(1) {
        let got = run_gossip(&g, engine);
        assert_eq!(
            (got.0, got.1.locality_blind()),
            (expected.0, expected.1.locality_blind()),
            "engine {engine} diverged"
        );
        // The shard split's cut, measured on the real workload: the
        // fraction of delivered words that crossed a shard boundary.
        println!(
            "gossip16_rr10k_d8 locality[{engine}]: local_words={} cross_shard_words={} ({:.1}% cross)",
            got.1.local_words,
            got.1.cross_shard_words,
            100.0 * got.1.cross_shard_words as f64 / got.1.words.max(1) as f64
        );
    }
    // Memory footprint alongside the wall-clock columns (BENCH_SIM.md):
    // the arena holds each broadcast payload once, so peak_arena_words ≈
    // sending nodes per round, while peak_queued_messages counts one per
    // delivery (the old per-delivery `Vec<u64>` clone count).
    let stats = expected.1;
    println!(
        "gossip16_rr10k_d8 memory: peak_queued_messages={} peak_arena_words={}",
        stats.peak_queued_messages, stats.peak_arena_words
    );

    let mut group = c.benchmark_group("sim_round_loop");
    group.sample_size(5);
    for engine in engines() {
        group.bench_with_input(
            BenchmarkId::new("gossip16_rr10k_d8", engine),
            &engine,
            |b, &engine| b.iter(|| run_gossip(&g, engine)),
        );
    }
    for engine in engines() {
        group.bench_with_input(
            BenchmarkId::new("bfs_rr10k_d8", engine),
            &engine,
            |b, &engine| {
                b.iter(|| {
                    let mut sim = Simulator::new(&g, Model::VCongest).with_engine(engine);
                    distributed_bfs(&mut sim, 0).unwrap().depth()
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_round_loop);
criterion_main!(benches);
