//! Engine equivalence: the sequential and sharded backends must produce
//! **bit-identical** results — program outputs, per-node RNG streams, and
//! `RunStats` — on every testkit fixture family (the determinism contract
//! of `decomp_congest::engine`). The one normalization: the `RunStats`
//! locality split describes the engine's shard split, not the protocol, so
//! comparisons go through `RunStats::locality_blind`.
//!
//! Coverage: raw primitives (BFS, multi-key flooding in both models), the
//! full Appendix B distributed CDS pipeline, the Appendix E distributed
//! verifier, the error path, and a proptest sweep over random connected
//! graphs with a message-heavy program.

use connectivity_decomposition::congest::bfs::distributed_bfs;
use connectivity_decomposition::congest::multiflood::{multikey_flood, Combine};
use connectivity_decomposition::congest::{
    EngineKind, Inbox, Message, Model, NodeCtx, NodeProgram, RunStats, SimError, Simulator,
};
use connectivity_decomposition::core::cds::centralized::CdsPackingConfig;
use connectivity_decomposition::core::cds::distributed::cds_packing_distributed;
use connectivity_decomposition::core::cds::verify::{membership_of, verify_distributed};
use connectivity_decomposition::graph::{generators, Graph};
use decomp_testkit::{fixtures, golden};
use proptest::prelude::*;
use rand::Rng;
use std::collections::HashMap;

/// Runs `f` under every engine in the sweep and asserts all observations
/// equal the sequential baseline.
fn assert_equivalent<T: PartialEq + std::fmt::Debug>(
    ctx: &str,
    mut f: impl FnMut(EngineKind) -> T,
) {
    let engines = decomp_testkit::engines();
    assert_eq!(engines[0], EngineKind::Sequential, "baseline first");
    let baseline = f(EngineKind::Sequential);
    for &engine in &engines[1..] {
        let got = f(engine);
        assert_eq!(got, baseline, "{ctx}: {engine} diverged from sequential");
    }
}

#[test]
fn bfs_bit_identical_on_every_fixture() {
    for f in fixtures::small() {
        assert_equivalent(&f.name, |engine| {
            let mut sim = Simulator::new(&f.graph, Model::VCongest).with_engine(engine);
            let tree = distributed_bfs(&mut sim, 0).unwrap();
            (tree.dist, tree.parent, sim.stats().locality_blind())
        });
    }
}

#[test]
fn multiflood_bit_identical_in_both_models() {
    for f in fixtures::small() {
        for model in [Model::VCongest, Model::ECongest] {
            let tables: Vec<HashMap<u64, u64>> = (0..f.graph.n())
                .map(|v| {
                    [(0u64, v as u64), (v as u64 % 3 + 1, (v * v) as u64)]
                        .into_iter()
                        .collect()
                })
                .collect();
            assert_equivalent(&format!("{} {model}", f.name), |engine| {
                let mut sim = Simulator::new(&f.graph, model).with_engine(engine);
                let fixpoint = multikey_flood(&mut sim, tables.clone(), Combine::Min).unwrap();
                // HashMaps compare unordered; canonicalize for the tuple.
                let canon: Vec<Vec<(u64, u64)>> = fixpoint
                    .into_iter()
                    .map(|t| {
                        let mut kv: Vec<_> = t.into_iter().collect();
                        kv.sort_unstable();
                        kv
                    })
                    .collect();
                (canon, sim.stats().locality_blind())
            });
        }
    }
}

#[test]
fn cds_pipeline_bit_identical_on_well_connected_fixtures() {
    for f in fixtures::small() {
        if f.kappa < 2 {
            continue;
        }
        let cfg = CdsPackingConfig::with_known_k(f.kappa, 6);
        assert_equivalent(&f.name, |engine| {
            let mut sim = Simulator::new(&f.graph, Model::VCongest).with_engine(engine);
            let p = cds_packing_distributed(&mut sim, &cfg).unwrap();
            (p.classes, p.class_of, p.trace, sim.stats().locality_blind())
        });
    }
}

#[test]
fn verifier_bit_identical_on_every_fixture() {
    for f in fixtures::small() {
        // A deliberately fragile input: one full class plus one class
        // holding only node 0 (fails domination/connectivity on most
        // families) — both verdict and round accounting must agree.
        let classes: Vec<Vec<usize>> = vec![(0..f.graph.n()).collect(), vec![0]];
        let membership = membership_of(&classes, f.graph.n());
        assert_equivalent(&f.name, |engine| {
            let mut sim = Simulator::new(&f.graph, Model::VCongest).with_engine(engine);
            let verdict = verify_distributed(&mut sim, &membership, classes.len(), 5).unwrap();
            (verdict, sim.stats().locality_blind())
        });
    }
}

#[test]
fn round_limit_error_context_identical() {
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
    for f in fixtures::small() {
        assert_equivalent(&f.name, |engine| {
            let mut sim = Simulator::new(&f.graph, Model::VCongest).with_engine(engine);
            let err = sim
                .run((0..f.graph.n()).map(|_| Chatter).collect(), 7)
                .unwrap_err();
            match err {
                SimError::ExceededMaxRounds {
                    max_rounds,
                    undelivered,
                    unfinished,
                } => {
                    assert_eq!(max_rounds, 7);
                    assert_eq!(undelivered, 2 * f.graph.m(), "all edges carry traffic");
                    assert_eq!(unfinished, f.graph.n());
                    (undelivered, unfinished, sim.stats().locality_blind())
                }
            }
        });
    }
}

#[test]
fn round_limit_error_context_identical_under_faults() {
    use connectivity_decomposition::congest::fault::FaultPlan;
    // The cap hits with messages in flight mid-run *and* part of the
    // network dead: both engines must report the same post-purge
    // `undelivered` count and the same live-only `unfinished` count —
    // the unified counting point in `engine::cutoff_context`.
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
    for f in fixtures::small() {
        let dead = f.graph.n() / 3;
        let plan = FaultPlan::random_vertices(&f.graph, dead, (2, 5), 77);
        assert_equivalent(&f.name, |engine| {
            let mut sim = Simulator::new(&f.graph, Model::VCongest)
                .with_engine(engine)
                .with_faults(plan.clone());
            let err = sim
                .run((0..f.graph.n()).map(|_| Chatter).collect(), 7)
                .unwrap_err();
            match err {
                SimError::ExceededMaxRounds {
                    max_rounds,
                    undelivered,
                    unfinished,
                } => {
                    assert_eq!(max_rounds, 7);
                    // Only live programs are unfinished, and only
                    // live-to-live traffic is still in flight.
                    assert_eq!(unfinished, f.graph.n() - dead);
                    let surviving = plan.surviving_graph(&f.graph, 7);
                    assert_eq!(undelivered, 2 * surviving.m(), "dead lanes purged");
                    (undelivered, unfinished, sim.stats().locality_blind())
                }
            }
        });
    }
}

#[test]
fn rlnc_schedule_is_seed_deterministic() {
    use connectivity_decomposition::broadcast::gossip::{gossip_via_trees_with, GossipConfig};
    use connectivity_decomposition::broadcast::gossip_distributed::gossip_protocol_on;
    use connectivity_decomposition::core::cds::centralized::cds_packing;
    use connectivity_decomposition::core::cds::tree_extract::to_dom_tree_packing;

    for f in fixtures::small() {
        if f.kappa < 2 {
            continue;
        }
        let p = cds_packing(&f.graph, &CdsPackingConfig::with_known_k(f.kappa, 6));
        let packing = to_dom_tree_packing(&f.graph, &p).packing;
        let origins: Vec<usize> = (0..f.graph.n()).collect();

        // Schedule level: the coded round loop is a pure function of
        // (graph, packing, origins, seed, generation size, coeff seed) —
        // a double run must reproduce the whole report bit-for-bit, and
        // the registry pins rounds + relay digest against silent drift
        // in the coefficient stream.
        let config = GossipConfig::rlnc(8, 5);
        let a = gossip_via_trees_with(&f.graph, &packing, &origins, 9, config);
        let b = gossip_via_trees_with(&f.graph, &packing, &origins, 9, config);
        assert_eq!(a, b, "{}: coded schedule not reproducible", f.name);
        golden::check(&format!("{}/rlnc/rounds", f.name), a.rounds);
        golden::check(&format!("{}/rlnc/digest", f.name), a.schedule_digest);

        // Protocol level: coefficient draws come from the simulator's
        // per-node RNG streams, so the engine-determinism contract makes
        // sequential and every shard count bit-identical.
        assert_equivalent(&format!("{} rlnc", f.name), |engine| {
            let mut sim = Simulator::with_seed(&f.graph, Model::VCongest, 9).with_engine(engine);
            let r = gossip_protocol_on(&mut sim, &packing, &origins, 9, config).unwrap();
            (r.complete, r.per_tree_load, r.stats.locality_blind())
        });
    }
}

/// A message-heavy randomized program: every node gossips random words to
/// its neighbors for a few rounds and folds everything it hears into an
/// accumulator. Exercises RNG streams, V-CONGEST broadcast, activity
/// wake-ups, and quiescence under arbitrary topologies.
struct GossipMix {
    rounds_left: usize,
    acc: u64,
}

impl NodeProgram for GossipMix {
    fn round(&mut self, ctx: &mut NodeCtx<'_>, inbox: &Inbox<'_>) {
        for (from, m) in inbox {
            for &w in m.words() {
                self.acc = self
                    .acc
                    .wrapping_mul(0x9e3779b97f4a7c15)
                    .wrapping_add(w ^ from as u64);
            }
        }
        if self.rounds_left > 0 {
            self.rounds_left -= 1;
            let word: u64 = ctx.rng().gen();
            ctx.broadcast(Message::from_words([word, ctx.id() as u64]));
        }
    }
    fn is_done(&self) -> bool {
        self.rounds_left == 0
    }
}

fn gossip_digest(g: &Graph, engine: EngineKind, seed: u64) -> (Vec<u64>, RunStats) {
    let mut sim = Simulator::with_seed(g, Model::VCongest, seed).with_engine(engine);
    let programs = (0..g.n())
        .map(|v| GossipMix {
            rounds_left: 3 + (v % 4),
            acc: 0,
        })
        .collect();
    let (programs, _) = sim.run_to_quiescence(programs).unwrap();
    let stats = sim.stats();
    assert_eq!(
        stats.local_words + stats.cross_shard_words,
        stats.words,
        "locality split must partition the delivered words ({engine})"
    );
    (
        programs.into_iter().map(|p| p.acc).collect(),
        stats.locality_blind(),
    )
}

#[test]
fn gossip_on_a_growing_topology_bit_identical() {
    use connectivity_decomposition::congest::fault::{Fault, FaultPlan, ScheduledFault};
    // Adjacency revealed only at arrival: the last three vertices are
    // isolated in the base CSR, and their edges exist only in the
    // growth overlay, activating at the arrival rounds. Every engine
    // must deliver over the same per-round neighbor lists.
    let gfull = generators::random_connected(24, 30, 5);
    let newcomers = [21usize, 22, 23];
    let base = Graph::from_edges(
        gfull.n(),
        (0..gfull.n()).flat_map(|u| {
            gfull
                .neighbors(u)
                .iter()
                .filter(move |&&v| u < v && !newcomers.contains(&u) && !newcomers.contains(&v))
                .map(move |&v| (u, v))
        }),
    );
    let mut events = Vec::new();
    for (i, &w) in newcomers.iter().enumerate() {
        let round = 2 + 2 * i;
        events.push(ScheduledFault {
            round,
            fault: Fault::AddVertex(w),
        });
        for &u in gfull.neighbors(w) {
            // An edge between two newcomers activates at the *later*
            // arrival (referencing the earlier one is fine; the other
            // way round the plan would be invalid).
            if newcomers
                .iter()
                .position(|&x| x == u)
                .is_some_and(|j| j > i)
            {
                continue;
            }
            events.push(ScheduledFault {
                round,
                fault: Fault::AddEdge(w, u),
            });
        }
    }
    let plan = FaultPlan::new(events);
    assert_eq!(plan.validate(&gfull), Ok(()));
    let gg = plan.growth_topology(&base);
    assert!(
        gg.overlay_len() > 0,
        "newcomer edges must live in the overlay"
    );
    assert_equivalent("growing gossip", |engine| {
        let mut sim = Simulator::with_seed(&gg, Model::VCongest, 5)
            .with_engine(engine)
            .with_faults(plan.clone());
        let programs = (0..gfull.n())
            .map(|v| GossipMix {
                rounds_left: 3 + (v % 4),
                acc: 0,
            })
            .collect();
        let (programs, _) = sim.run_to_quiescence(programs).unwrap();
        let stats = sim.stats();
        assert_eq!(stats.local_words + stats.cross_shard_words, stats.words);
        (
            programs.into_iter().map(|p| p.acc).collect::<Vec<_>>(),
            stats.locality_blind(),
        )
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random connected graphs, random seeds, random shard counts: the
    /// sharded engine must match the sequential digest bit-for-bit.
    fn random_graphs_gossip_identical(
        n in 2usize..48,
        extra in 0usize..40,
        seed in 0u64..1000,
        shards in 2usize..9,
    ) {
        let g = generators::random_connected(n, extra.min(n * (n - 1) / 2), seed);
        let baseline = gossip_digest(&g, EngineKind::Sequential, seed);
        let contig = gossip_digest(&g, EngineKind::sharded(shards), seed);
        prop_assert_eq!(&baseline, &contig, "n={} shards={} seed={}", n, shards, seed);
    }
}
