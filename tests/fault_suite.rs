//! Fault & churn scenario suite: seeded mid-run vertex/edge deletions
//! against the full stack — the k-connectivity robustness claim of
//! Theorem 1.1 (a CDS packing survives up to `k − 1` failures) exercised
//! end to end.
//!
//! Covers: gossip completion via surviving trees under `f < κ` deletions
//! on every fixture family (greedy and weighted schedules, vertex and
//! edge faults), seed-reproducibility of `FaultPlan` schedules,
//! bit-for-bit equivalence of incremental deletion-aware repacking
//! against from-scratch rebuilds, the distributed two-phase repair
//! protocol on the env-selected engine (CI sweeps `DECOMP_ENGINE`), and
//! a golden pin of every fault path's full report.

use connectivity_decomposition::broadcast::churn::gossip_under_churn;
use connectivity_decomposition::broadcast::gossip::{
    gossip_via_trees_faulty, gossip_via_trees_with, GossipConfig, GossipReport,
};
use connectivity_decomposition::broadcast::gossip_distributed::{
    gossip_protocol_churn, gossip_protocol_faulty, gossip_protocol_on, DistGossipReport,
};
use connectivity_decomposition::congest::{Fault, FaultPlan, Model, ScheduledFault, Simulator};
use connectivity_decomposition::core::cds::centralized::{
    cds_packing, cds_packing_with_state, CdsPackingConfig,
};
use connectivity_decomposition::core::cds::class_state::ClassState;
use connectivity_decomposition::core::cds::tree_extract::{
    to_dom_tree_packing, to_dom_tree_packing_with_state,
};
use connectivity_decomposition::core::packing::DomTreePacking;
use connectivity_decomposition::core::virtual_graph::{VType, VirtualLayout};
use decomp_testkit::{fixtures, golden, SEEDS};

/// The fixture's dominating-tree packing, built the same way the
/// end-to-end pipeline builds it.
fn packing_for(f: &fixtures::Fixture) -> DomTreePacking {
    let cds = cds_packing(&f.graph, &CdsPackingConfig::with_known_k(f.kappa.max(1), 4));
    to_dom_tree_packing(&f.graph, &cds).packing
}

#[test]
fn vertex_faults_below_kappa_still_complete_on_every_family() {
    for f in fixtures::small() {
        let packing = packing_for(&f);
        let origins: Vec<usize> = (0..f.graph.n()).collect();
        let faults = f.kappa.saturating_sub(1);
        for seed in SEEDS {
            let plan = FaultPlan::random_vertices(&f.graph, faults, (2, 6), seed);
            // `random_vertices` kills distinct vertices.
            let dead = plan.len();
            for config in [GossipConfig::default(), GossipConfig::weighted()] {
                let r = gossip_via_trees_faulty(&f.graph, &packing, &origins, seed, config, &plan)
                    .unwrap_or_else(|e| panic!("{} seed {seed}: {e}", f.name));
                assert_eq!(
                    r.lost_messages, 0,
                    "{} seed {seed}: f = κ − 1 must never lose a message",
                    f.name
                );
                assert_eq!(r.num_messages, f.graph.n());
                // The degradation curve ends on the post-fault state.
                if let Some(last) = r.waves.last() {
                    assert_eq!(last.live_vertices, f.graph.n() - dead, "{}", f.name);
                    assert!(last.faults_fired <= plan.len());
                }
            }
        }
    }
}

#[test]
fn edge_faults_below_kappa_still_complete() {
    for f in fixtures::small() {
        if f.kappa < 2 {
            continue; // zero cuttable edges below λ ≥ κ = 1
        }
        let packing = packing_for(&f);
        let origins: Vec<usize> = (0..f.graph.n()).collect();
        let plan = FaultPlan::random_edges(&f.graph, f.kappa - 1, (2, 6), 7);
        let r = gossip_via_trees_faulty(
            &f.graph,
            &packing,
            &origins,
            7,
            GossipConfig::default(),
            &plan,
        )
        .unwrap();
        assert_eq!(r.lost_messages, 0, "{}: cuts below λ lose nothing", f.name);
        // Edge cuts kill no vertices.
        for s in &r.waves {
            assert_eq!(s.live_vertices, f.graph.n(), "{}", f.name);
        }
    }
}

#[test]
fn rlnc_coded_gossip_degrades_but_survives_tree_deaths() {
    // Coded gossip commits to no trees, so killing κ − 1 vertices mid-run
    // (enough to destroy every committed tree of the packing) must only
    // shrink the decodable span at the dead vertices' generations — the
    // run degrades (more rounds, recorded degradation samples) but never
    // stalls, and with the faults firing after the origins have injected
    // and relayed once, nothing is lost.
    let f = fixtures::small()
        .into_iter()
        .find(|f| f.name == "harary_k8_n40")
        .unwrap();
    let packing = packing_for(&f);
    let origins: Vec<usize> = (0..f.graph.n()).collect();
    let plan = FaultPlan::random_vertices(&f.graph, f.kappa - 1, (2, 6), 13);
    let config = GossipConfig::rlnc(8, 21);
    let r = gossip_via_trees_faulty(&f.graph, &packing, &origins, 13, config, &plan).unwrap();
    assert_eq!(
        r.lost_messages, 0,
        "faults after first relay must not lose coded symbols"
    );
    assert_eq!(r.num_messages, f.graph.n());
    assert!(
        !r.waves.is_empty(),
        "fault rounds must record degradation samples"
    );
    let clean = gossip_via_trees_with(&f.graph, &packing, &origins, 13, config);
    assert!(
        r.rounds >= clean.rounds,
        "a faulted run cannot beat the fault-free schedule ({} vs {})",
        r.rounds,
        clean.rounds
    );
    // Reproducibility under faults, coded regime included.
    let again = gossip_via_trees_faulty(&f.graph, &packing, &origins, 13, config, &plan).unwrap();
    assert_eq!(r, again, "faulty coded schedule must be seed-deterministic");
}

#[test]
fn mixed_vertex_and_edge_faults_complete() {
    let f = fixtures::small()
        .into_iter()
        .find(|f| f.name == "harary_k8_n40")
        .unwrap();
    let packing = packing_for(&f);
    let origins: Vec<usize> = (0..f.graph.n()).collect();
    // 3 vertex deaths + 4 edge cuts = 7 = κ − 1 total faults.
    let mut events: Vec<ScheduledFault> = FaultPlan::random_vertices(&f.graph, 3, (2, 4), 5)
        .events()
        .to_vec();
    events.extend(
        FaultPlan::random_edges(&f.graph, 4, (3, 6), 5)
            .events()
            .iter()
            .cloned(),
    );
    let plan = FaultPlan::new(events);
    let r = gossip_via_trees_faulty(
        &f.graph,
        &packing,
        &origins,
        5,
        GossipConfig::weighted(),
        &plan,
    )
    .unwrap();
    assert_eq!(r.lost_messages, 0);
    assert_eq!(r.num_messages, f.graph.n());
}

#[test]
fn fault_schedules_and_reports_are_seed_reproducible() {
    let f = fixtures::small()
        .into_iter()
        .find(|f| f.name == "harary_k8_n40")
        .unwrap();
    let packing = packing_for(&f);
    let origins: Vec<usize> = (0..f.graph.n()).collect();
    let run = |seed: u64| {
        let plan = FaultPlan::random_vertices(&f.graph, 7, (2, 6), seed);
        let report = gossip_via_trees_faulty(
            &f.graph,
            &packing,
            &origins,
            3,
            GossipConfig::default(),
            &plan,
        )
        .unwrap();
        (plan.events().to_vec(), report)
    };
    // Same seed ⇒ identical failure schedule and identical report
    // (degradation curve and schedule digest included).
    assert_eq!(run(1), run(1));
    // Distinct seeds draw distinct schedules on this instance.
    assert_ne!(run(1).0, run(7).0);
}

#[test]
fn faulty_run_without_faults_matches_the_fault_free_schedule() {
    // An empty plan must take the exact fault-free code path: same
    // rounds, same digest, same per-tree loads — the faulty entry point
    // adds no overhead and no RNG drift when nothing fails.
    for f in fixtures::small() {
        let packing = packing_for(&f);
        let origins: Vec<usize> = (0..f.graph.n()).collect();
        let plain =
            gossip_via_trees_with(&f.graph, &packing, &origins, 9, GossipConfig::weighted());
        let faulty = gossip_via_trees_faulty(
            &f.graph,
            &packing,
            &origins,
            9,
            GossipConfig::weighted(),
            &FaultPlan::none(),
        )
        .unwrap();
        assert_eq!(plain, faulty, "{}", f.name);
    }
}

#[test]
fn faulty_rlnc_run_without_faults_matches_the_fault_free_schedule() {
    // The coded regime's half of the identity above: an empty plan fires
    // no wave, so the coefficient stream, digest and report match.
    for f in fixtures::small() {
        let packing = packing_for(&f);
        if packing.num_trees() == 0 {
            continue;
        }
        let origins: Vec<usize> = (0..f.graph.n()).collect();
        let config = GossipConfig::rlnc(8, 5);
        let plain = gossip_via_trees_with(&f.graph, &packing, &origins, 9, config);
        let faulty =
            gossip_via_trees_faulty(&f.graph, &packing, &origins, 9, config, &FaultPlan::none())
                .unwrap();
        assert_eq!(plain, faulty, "{}", f.name);
    }
}

#[test]
fn empty_plan_simulator_matches_the_fault_free_simulator() {
    // A simulator given an empty plan runs exactly as one given none, on
    // every engine and for the tree and coded protocols alike.
    for f in fixtures::small() {
        let packing = packing_for(&f);
        if packing.num_trees() == 0 {
            continue;
        }
        let origins: Vec<usize> = (0..f.graph.n()).collect();
        for engine in decomp_testkit::engines() {
            for config in [GossipConfig::default(), GossipConfig::rlnc(8, 5)] {
                let run = |sim: &mut Simulator<'_>| {
                    let r = gossip_protocol_on(sim, &packing, &origins, 3, config)
                        .unwrap_or_else(|e| panic!("{} {engine} {config:?}: {e}", f.name));
                    (r.complete, r.per_tree_load, r.stats, sim.stats())
                };
                let mut plain =
                    Simulator::with_seed(&f.graph, Model::VCongest, 7).with_engine(engine);
                let mut empty = Simulator::with_seed(&f.graph, Model::VCongest, 7)
                    .with_engine(engine)
                    .with_faults(FaultPlan::none());
                assert_eq!(
                    run(&mut plain),
                    run(&mut empty),
                    "{} {engine} {config:?}",
                    f.name
                );
            }
        }
    }
}

#[test]
fn incremental_repack_is_bit_identical_to_scratch() {
    // Deletion-aware repacking vs. the from-scratch oracle, on every
    // family, across a worst-case (highest-degree-first) deletion
    // sequence: component counts, excess, projections, and the exact
    // densified component labels must all match a freshly replayed
    // state — this is the equivalence CI's determinism step re-runs.
    for f in fixtures::small() {
        let g = &f.graph;
        let n = g.n();
        let layout = VirtualLayout::new(n, 4);
        let t = 3usize;
        let joins: Vec<(usize, usize)> = (0..n).map(|i| (i * 7 % n, i % t)).collect();
        let mut st = ClassState::new(layout, t);
        for &(v, c) in &joins {
            st.join(g, layout.vid(v, 0, VType::ALL[c]), c);
        }
        let plan = FaultPlan::worst_case_vertices(g, n / 4, 1);
        let mut kills: Vec<usize> = plan
            .events()
            .iter()
            .filter_map(|e| match e.fault {
                Fault::Vertex(v) => Some(v),
                _ => None,
            })
            .collect();
        kills.sort_unstable();
        let mut deleted: Vec<usize> = Vec::new();
        for dead in kills {
            let touched = st.delete_vertex(g, |_, _| true, dead);
            deleted.push(dead);
            assert!(touched.len() <= t, "{}", f.name);
            let (counts, excess) = st.recompute_from_scratch(g);
            for (c, &want) in counts.iter().enumerate() {
                assert_eq!(
                    st.component_count(c),
                    want,
                    "{} class {c} after deleting {deleted:?}",
                    f.name
                );
            }
            assert_eq!(st.excess(), excess, "{} after {deleted:?}", f.name);
            let mut fresh = ClassState::new(layout, t);
            for &(v, c) in joins.iter().filter(|(v, _)| !deleted.contains(v)) {
                fresh.join(g, layout.vid(v, 0, VType::ALL[c]), c);
            }
            for c in 0..t {
                assert_eq!(st.comp_of(c), fresh.comp_of(c), "{} labels", f.name);
            }
        }
    }
}

#[test]
fn distributed_repair_protocol_completes_on_env_engine() {
    // The two-phase distributed protocol (faulted run + repair
    // re-injection) on the engine CI selects via DECOMP_ENGINE.
    for name in ["harary_k4_n24", "hypercube_d4"] {
        let f = fixtures::small()
            .into_iter()
            .find(|f| f.name == name)
            .unwrap();
        let packing = packing_for(&f);
        let origins: Vec<usize> = (0..f.graph.n()).collect();
        let plan = FaultPlan::random_vertices(&f.graph, f.kappa - 1, (2, 5), 13);
        let r = gossip_protocol_faulty(
            &f.graph,
            &packing,
            &origins,
            13,
            GossipConfig::default(),
            &plan,
            decomp_testkit::engine_from_env(),
        )
        .unwrap();
        assert!(r.complete, "{name}: surviving nodes must converge");
        assert_eq!(r.lost_messages, 0, "{name}: f < κ loses nothing");
        assert_eq!(r.per_tree_load.iter().sum::<usize>(), f.graph.n());
        assert!(r.stats.rounds > 0);
    }
}

#[test]
fn arrival_waves_complete_on_every_family() {
    // Pure-arrival plans (PR 9): some vertices are dormant until a
    // mid-run round. Nothing dies, so nothing may be lost, and every
    // final vertex — late arrivals included — must be served; messages
    // from dormant origins simply wait for their vertex.
    for f in fixtures::small() {
        let packing = packing_for(&f);
        let origins: Vec<usize> = (0..f.graph.n()).collect();
        let plan = FaultPlan::random_arrivals(&f.graph, f.graph.n() / 8, (2, 6), 11);
        for config in [GossipConfig::default(), GossipConfig::weighted()] {
            let r = gossip_via_trees_faulty(&f.graph, &packing, &origins, 11, config, &plan)
                .unwrap_or_else(|e| panic!("{}: {e}", f.name));
            assert_eq!(r.lost_messages, 0, "{}: arrivals lose nothing", f.name);
            assert_eq!(r.num_messages, f.graph.n());
            if let Some(last) = r.waves.last() {
                assert_eq!(
                    last.live_vertices,
                    f.graph.n(),
                    "{}: everyone is present once all arrivals fired",
                    f.name
                );
            }
        }
    }
}

#[test]
fn arrival_after_kills_redelivers_via_repair() {
    // Mixed churn: kills below κ followed by arrivals. The repair pass
    // must reseed messages already complete among the old population so
    // the newcomers catch up — across all three regimes.
    let f = fixtures::small()
        .into_iter()
        .find(|f| f.name == "harary_k8_n40")
        .unwrap();
    let packing = packing_for(&f);
    let n = f.graph.n();
    // Vertices 30 and 31 arrive late; two others die early.
    let plan = FaultPlan::new([
        ScheduledFault {
            round: 2,
            fault: Fault::Vertex(3),
        },
        ScheduledFault {
            round: 4,
            fault: Fault::Vertex(17),
        },
        ScheduledFault {
            round: 40,
            fault: Fault::AddVertex(30),
        },
        ScheduledFault {
            round: 44,
            fault: Fault::AddVertex(31),
        },
    ]);
    let origins: Vec<usize> = (0..n).filter(|&v| ![3, 17, 30, 31].contains(&v)).collect();
    for config in [
        GossipConfig::default(),
        GossipConfig::weighted(),
        GossipConfig::rlnc(8, 7),
    ] {
        let r = gossip_via_trees_faulty(&f.graph, &packing, &origins, 7, config, &plan).unwrap();
        assert_eq!(r.lost_messages, 0, "{config:?}");
        assert!(
            r.rounds >= 40,
            "{config:?}: the run must extend to the arrivals, got {}",
            r.rounds
        );
    }
    // The tree regimes repair through reseeds; the counters say so.
    let r = gossip_via_trees_faulty(
        &f.graph,
        &packing,
        &origins,
        7,
        GossipConfig::default(),
        &plan,
    )
    .unwrap();
    assert!(
        r.repair_events > 0,
        "late arrivals need reseeded redelivery"
    );
}

#[test]
fn distributed_protocol_serves_arrival_scenarios() {
    // gossip_protocol_faulty with arrivals in the plan, on the engine
    // CI selects via DECOMP_ENGINE: the engines handle dormancy
    // natively and the repair phase serves the newcomers.
    let f = fixtures::small()
        .into_iter()
        .find(|f| f.name == "harary_k4_n24")
        .unwrap();
    let packing = packing_for(&f);
    let plan = FaultPlan::new([
        ScheduledFault {
            round: 3,
            fault: Fault::Vertex(5),
        },
        ScheduledFault {
            round: 6,
            fault: Fault::AddVertex(20),
        },
    ]);
    let origins: Vec<usize> = (0..f.graph.n()).filter(|&v| v != 5 && v != 20).collect();
    let r = gossip_protocol_faulty(
        &f.graph,
        &packing,
        &origins,
        9,
        GossipConfig::default(),
        &plan,
        decomp_testkit::engine_from_env(),
    )
    .unwrap();
    assert!(r.complete, "the newcomer must converge too");
    assert_eq!(r.lost_messages, 0);
}

#[test]
fn worst_case_plans_target_high_degree_vertices() {
    // The adversarial policy is deterministic and kills the
    // highest-degree vertices first — on a star that is the hub.
    let g = connectivity_decomposition::graph::generators::star(6);
    let plan = FaultPlan::worst_case_vertices(&g, 1, 3);
    assert_eq!(plan.events().len(), 1);
    match plan.events()[0].fault {
        Fault::Vertex(v) => assert_eq!(g.degree(v), 5, "hub dies first"),
        ref other => panic!("unexpected fault {other:?}"),
    }
    assert_eq!(plan.events()[0].round, 3);
}

/// FNV-1a over a report's `Debug` rendering: one value that changes
/// whenever any report field does.
fn fold_debug(acc: u64, report: &impl std::fmt::Debug) -> u64 {
    format!("{report:?}")
        .bytes()
        .fold(acc, |h, b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
}

/// The report shapes the fault pins were recorded against. Every live
/// report is mapped onto one of these before folding, so the pinned
/// bytes — type names, field names and field order of the `Debug`
/// rendering — stay fixed while the live report types are reshaped.
/// Their fields are read only through `Debug`.
#[allow(dead_code)]
mod recorded {
    use connectivity_decomposition::congest::RunStats;

    #[derive(Debug)]
    pub struct GossipReport {
        pub rounds: usize,
        pub num_messages: usize,
        pub per_tree_load: Vec<usize>,
        pub max_tree_diameter: usize,
        pub peak_state_words: usize,
        pub schedule_digest: u64,
        pub degradation: Vec<DegradationSample>,
        pub lost_messages: usize,
        pub wasted_bandwidth: usize,
        pub repair_events: usize,
        pub flood_rounds: usize,
    }

    #[derive(Debug)]
    pub struct DegradationSample {
        pub round: usize,
        pub faults_fired: usize,
        pub live_vertices: usize,
        pub surviving_trees: usize,
        pub incomplete_messages: usize,
        pub reassigned_messages: usize,
        pub lost_messages: usize,
    }

    #[derive(Debug)]
    pub struct ChurnGossipReport {
        pub rounds: usize,
        pub num_messages: usize,
        pub complete: bool,
        pub lost_messages: usize,
        pub wasted_bandwidth: usize,
        pub repair_events: usize,
        pub flood_rounds: usize,
        pub reextractions: usize,
        pub schedule_digest: u64,
        pub waves: Vec<ChurnWaveSample>,
        pub admitted_via_packing: usize,
        pub flood_served: usize,
    }

    #[derive(Debug)]
    pub struct ChurnWaveSample {
        pub round: usize,
        pub live_vertices: usize,
        pub certified_trees: usize,
        pub reextracted_classes: usize,
        pub reassigned_messages: usize,
        pub lost_messages: usize,
        pub incomplete_messages: usize,
        pub flood_rounds_before: usize,
    }

    #[derive(Debug)]
    pub struct FaultyDistGossipReport {
        pub complete: bool,
        pub lost_messages: usize,
        pub reinjected: usize,
        pub per_tree_load: Vec<usize>,
        pub stats: RunStats,
    }

    #[derive(Debug)]
    pub struct ChurnDistGossipReport {
        pub complete: bool,
        pub lost_messages: usize,
        pub reinjected: usize,
        pub reextractions: usize,
        pub certified_classes: usize,
        pub stats: RunStats,
    }
}

fn recorded_schedule(r: GossipReport) -> recorded::GossipReport {
    let degradation = r.waves.iter().map(|s| recorded::DegradationSample {
        round: s.round,
        faults_fired: s.faults_fired,
        live_vertices: s.live_vertices,
        surviving_trees: s.surviving_trees,
        incomplete_messages: s.incomplete_messages,
        reassigned_messages: s.reassigned_messages,
        lost_messages: s.lost_messages,
    });
    recorded::GossipReport {
        rounds: r.rounds,
        num_messages: r.num_messages,
        per_tree_load: r.per_tree_load,
        max_tree_diameter: r.max_tree_diameter,
        peak_state_words: r.peak_state_words,
        schedule_digest: r.schedule_digest,
        degradation: degradation.collect(),
        lost_messages: r.lost_messages,
        wasted_bandwidth: r.wasted_bandwidth,
        repair_events: r.repair_events,
        flood_rounds: r.flood_rounds,
    }
}

fn recorded_churn(r: GossipReport) -> recorded::ChurnGossipReport {
    let waves = r.waves.iter().map(|w| recorded::ChurnWaveSample {
        round: w.round,
        live_vertices: w.live_vertices,
        certified_trees: w.surviving_trees,
        reextracted_classes: w.reextracted_classes,
        reassigned_messages: w.reassigned_messages,
        lost_messages: w.lost_messages,
        incomplete_messages: w.incomplete_messages,
        flood_rounds_before: w.flood_rounds_before,
    });
    recorded::ChurnGossipReport {
        rounds: r.rounds,
        num_messages: r.num_messages,
        complete: r.complete,
        lost_messages: r.lost_messages,
        wasted_bandwidth: r.wasted_bandwidth,
        repair_events: r.repair_events,
        flood_rounds: r.flood_rounds,
        reextractions: r.reextractions,
        schedule_digest: r.schedule_digest,
        waves: waves.collect(),
        admitted_via_packing: r.admitted_via_packing,
        flood_served: r.flood_served,
    }
}

/// The protocol reports, with the engine-dependent locality split
/// zeroed. A message is re-injected exactly once per repair event, so
/// `reinjected` reads `stats.repair_events`.
fn recorded_faulty_protocol(r: DistGossipReport) -> recorded::FaultyDistGossipReport {
    recorded::FaultyDistGossipReport {
        complete: r.complete,
        lost_messages: r.lost_messages,
        reinjected: r.stats.repair_events,
        per_tree_load: r.per_tree_load,
        stats: r.stats.locality_blind(),
    }
}

fn recorded_churn_protocol(r: DistGossipReport) -> recorded::ChurnDistGossipReport {
    recorded::ChurnDistGossipReport {
        complete: r.complete,
        lost_messages: r.lost_messages,
        reinjected: r.stats.repair_events,
        reextractions: r.reextractions,
        certified_classes: r.intact_carriers,
        stats: r.stats.locality_blind(),
    }
}

#[test]
fn fault_paths_are_golden_pinned() {
    // Every fault path — the static-packing schedule under all three
    // regimes, the churn wave loop, and both two-phase protocols — on
    // kill, cut, arrival, and mixed plans, folded into one golden value
    // per (fixture, path). A refactor of the schedule core or the
    // protocol repair that takes a different schedule anywhere moves a
    // value here, even where the completion checks above still pass.
    let paths = [
        "trees_greedy",
        "trees_weighted",
        "trees_rlnc",
        "churn_loop",
        "protocol_faulty",
        "protocol_churn",
    ];
    for f in fixtures::standard().into_iter().filter(|f| f.kappa >= 2) {
        let g = &f.graph;
        let n = g.n();
        let cfg = CdsPackingConfig::with_known_k(f.kappa, 4);
        let (cds, state) = cds_packing_with_state(g, &cfg);
        let packing = to_dom_tree_packing_with_state(g, &cds, &state).packing;
        let origins: Vec<usize> = (0..2 * n).map(|i| (i * 7) % n).collect();
        let plans = [
            FaultPlan::random_vertices(g, f.kappa - 1, (2, 6), 3),
            FaultPlan::random_edges(g, f.kappa - 1, (2, 6), 3),
            FaultPlan::random_arrivals(g, n / 4, (5, 15), 3),
            FaultPlan::random_vertices(g, f.kappa - 1, (2, 4), 5)
                .merged(&FaultPlan::random_arrivals(g, n / 4, (8, 20), 6)),
        ];
        let mut folds = [0xcbf2_9ce4_8422_2325u64; 6];
        for plan in &plans {
            for (i, config) in [
                GossipConfig::default(),
                GossipConfig::weighted(),
                GossipConfig::rlnc(8, 1),
            ]
            .into_iter()
            .enumerate()
            {
                let r = gossip_via_trees_faulty(g, &packing, &origins, 9, config, plan)
                    .unwrap_or_else(|e| panic!("{}: {e}", f.name));
                folds[i] = fold_debug(folds[i], &recorded_schedule(r));
            }
            let mut st = state.clone();
            let r = gossip_under_churn(g, &cds, &mut st, &origins, 9, plan).unwrap();
            folds[3] = fold_debug(folds[3], &recorded_churn(r));
            let engine = decomp_testkit::engine_from_env();
            let r = gossip_protocol_faulty(
                g,
                &packing,
                &origins,
                9,
                GossipConfig::default(),
                plan,
                engine,
            )
            .unwrap();
            assert!(r.complete, "{}: faulty protocol must converge", f.name);
            folds[4] = fold_debug(folds[4], &recorded_faulty_protocol(r));
            let mut st = state.clone();
            let r = gossip_protocol_churn(
                g,
                &cds,
                &mut st,
                &origins,
                9,
                GossipConfig::default(),
                plan,
                engine,
            )
            .unwrap();
            assert!(r.complete, "{}: churn protocol must converge", f.name);
            folds[5] = fold_debug(folds[5], &recorded_churn_protocol(r));
        }
        for (path, value) in paths.iter().zip(folds) {
            golden::check(&format!("{}/fault_pin/{path}", f.name), value);
        }
    }
}
