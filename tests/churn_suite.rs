//! Live-churn scenario suite (PR 9): mid-run vertex arrivals, tree
//! re-extraction between fault waves, and vertex-disjoint degradation.
//!
//! Covers: a 10⁴-vertex alternating kill/arrive scenario whose gossip
//! returns to tree schedules between waves (per-wave flood rounds stay
//! bounded), a golden-pinned churn schedule digest, engine equivalence
//! of the distributed two-phase churn protocol, and the ≤-1-tree-per-
//! death degradation guarantee of vertex-disjoint (integral) packings,
//! plus a differential pin of the wave loop against the greedy schedule.
//!
//! CI sweeps this suite under `DECOMP_ENGINE=sequential`, `sharded:4`,
//! and `sharded:4:topo`.

use connectivity_decomposition::broadcast::churn::{gossip_under_churn, gossip_under_growth};
use connectivity_decomposition::broadcast::gossip::{
    gossip_via_trees_faulty, gossip_via_trees_with, GossipConfig,
};
use connectivity_decomposition::broadcast::gossip_distributed::{
    gossip_protocol_churn, gossip_protocol_growth,
};
use connectivity_decomposition::congest::{Fault, FaultPlan, ScheduledFault};
use connectivity_decomposition::core::cds::centralized::{
    cds_packing_with_state, CdsPacking, CdsPackingConfig,
};
use connectivity_decomposition::core::cds::class_state::ClassState;
use connectivity_decomposition::core::cds::integral::{
    check_vertex_disjoint, integral_cds_packing,
};
use connectivity_decomposition::core::cds::tree_extract::to_dom_tree_packing_with_state;
use connectivity_decomposition::core::virtual_graph::{VType, VirtualLayout};
use connectivity_decomposition::graph::{generators, Graph};

/// A complete-bipartite fixture with `left` hand-built classes: class
/// `i` is `{left_i, right_{2i}, right_{2i+1}}` — a connected triple that
/// dominates both sides, so every class certifies, and killing one
/// right member leaves a certified pair. Deterministic by construction
/// (no RNG), which keeps the golden digest meaningful.
fn pair_fixture(left: usize, right: usize) -> (Graph, CdsPacking, ClassState) {
    assert!(right >= 2 * left);
    let g = generators::complete_bipartite(left, right);
    let n = g.n();
    let layout = VirtualLayout::new(n, 4);
    let mut state = ClassState::new(layout, left);
    let mut classes: Vec<Vec<usize>> = vec![Vec::new(); left];
    let mut class_of = vec![None; layout.total()];
    for (c, members) in classes.iter_mut().enumerate() {
        for v in [c, left + 2 * c, left + 2 * c + 1] {
            state.join(&g, layout.vid(v, 0, VType::T1), c);
            class_of[layout.vid(v, 0, VType::T1)] = Some(c as u32);
            members.push(v);
        }
        members.sort_unstable();
    }
    let cds = CdsPacking {
        layout,
        num_classes: left,
        class_of,
        classes,
        trace: Vec::new(),
    };
    (g, cds, state)
}

/// The 10⁴-vertex scenario from the issue: alternating kill and arrive
/// waves. Wave rounds: member arrivals (3), member kills (6), newcomer
/// arrivals (9), more member kills (12).
fn big_plan(left: usize) -> FaultPlan {
    let mut events = Vec::new();
    // Wave 1: the second right member of classes 0..4 arrives mid-run
    // (dormant before; its class runs as a certified pair meanwhile).
    for i in 0..4 {
        events.push(ScheduledFault {
            round: 3,
            fault: Fault::AddVertex(left + 2 * i + 1),
        });
    }
    // Wave 2: the first right member of classes 0..4 dies — each class
    // re-extracts over {left_i, right_{2i+1}}.
    for i in 0..4 {
        events.push(ScheduledFault {
            round: 6,
            fault: Fault::Vertex(left + 2 * i),
        });
    }
    // Wave 3: three class-free newcomers join and must still be served.
    for v in 0..3 {
        events.push(ScheduledFault {
            round: 9,
            fault: Fault::AddVertex(3 * left + v),
        });
    }
    // Wave 4: the first right member of classes 4..8 dies.
    for i in 4..left {
        events.push(ScheduledFault {
            round: 12,
            fault: Fault::Vertex(left + 2 * i),
        });
    }
    FaultPlan::new(events)
}

/// Origins avoiding the kill victims (an origin that dies before its
/// first relay legitimately loses its message — see DETERMINISM.md);
/// dormant member arrivals ARE included, so their messages wait.
fn big_origins(g: &Graph, left: usize, nmsg: usize) -> Vec<usize> {
    let victims: Vec<usize> = (0..left).map(|i| left + 2 * i).collect();
    (0..g.n())
        .filter(|v| !victims.contains(v))
        .take(nmsg)
        .collect()
}

/// Golden digest of the 10⁴ churn scenario (seed 9). Pins the entire
/// deterministic pipeline: hand-built classes, fault application order,
/// re-extraction BFS, repair-pass re-admission, and the fast-forward
/// idle rule. Update deliberately if the schedule semantics change.
const BIG_SCENARIO_DIGEST: u64 = 0x39f1_8ce6_5ef2_efd7;

#[test]
fn alternating_churn_returns_to_tree_schedules() {
    let left = 8;
    let (g, cds, mut state) = pair_fixture(left, 9992);
    let origins = big_origins(&g, left, 200);
    let plan = big_plan(left);
    let r = gossip_under_churn(&g, &cds, &mut state, &origins, 9, &plan).unwrap();
    assert!(r.complete, "survivors and newcomers must all be served");
    assert_eq!(r.lost_messages, 0, "no origin dies before relaying");
    assert_eq!(r.num_messages, 200);
    assert_eq!(r.waves.len(), 4, "four distinct wave rounds fired");

    // Live-population accounting: 10000 − 4 dormant members − 3 dormant
    // newcomers at the start; each wave adds/removes its vertices.
    assert_eq!(r.waves[0].live_vertices, 10_000 - 3);
    assert_eq!(r.waves[1].live_vertices, 10_000 - 3 - 4);
    assert_eq!(r.waves[2].live_vertices, 10_000 - 4);
    assert_eq!(r.waves[3].live_vertices, 10_000 - 8);

    // Tree re-extraction between waves: every touched class re-certifies
    // (member arrival: 4 classes; each kill wave: 4 classes).
    assert_eq!(r.reextractions, 12, "4 arrivals + 4 + 4 kills re-extract");
    for w in &r.waves {
        assert_eq!(
            w.certified_trees, left,
            "round {}: all classes must re-certify",
            w.round
        );
    }

    // Gossip returns to tree schedules between waves: the flood rounds
    // spent per wave stay bounded (they do not grow with the run).
    let mut prev = 0;
    for w in &r.waves {
        assert!(
            w.flood_rounds_before - prev <= 16,
            "round {}: flood must stay bounded per wave, got {}",
            w.round,
            w.flood_rounds_before - prev
        );
        prev = w.flood_rounds_before;
    }
    assert!(
        r.flood_rounds - prev <= 16,
        "flood after the last wave must die out, got {}",
        r.flood_rounds - prev
    );

    // Golden pin + exact double-run reproducibility.
    let (g2, cds2, mut state2) = pair_fixture(left, 9992);
    let r2 = gossip_under_churn(&g2, &cds2, &mut state2, &origins, 9, &plan).unwrap();
    assert_eq!(r, r2, "same inputs must reproduce the full report");
    assert_eq!(
        r.schedule_digest, BIG_SCENARIO_DIGEST,
        "churn schedule digest drifted — update deliberately"
    );
}

#[test]
fn distributed_churn_protocol_is_engine_equivalent() {
    // The same alternating shape at protocol scale: the two-phase
    // distributed repair must agree bit-for-bit across engines.
    let left = 6;
    let plan = FaultPlan::new([
        ScheduledFault {
            round: 2,
            fault: Fault::AddVertex(left + 1),
        },
        ScheduledFault {
            round: 4,
            fault: Fault::Vertex(left),
        },
        ScheduledFault {
            round: 6,
            fault: Fault::AddVertex(3 * left),
        },
    ]);
    let run = |engine| {
        let (g, cds, mut state) = pair_fixture(left, 200);
        let origins: Vec<usize> = (0..g.n()).filter(|&v| v != left).take(64).collect();
        let r = gossip_protocol_churn(
            &g,
            &cds,
            &mut state,
            &origins,
            17,
            GossipConfig::default(),
            &plan,
            engine,
        )
        .unwrap();
        (
            r.complete,
            r.lost_messages,
            r.reinjected,
            r.reextractions,
            r.certified_classes,
            r.stats.locality_blind(),
        )
    };
    let engines = decomp_testkit::engines();
    let baseline = run(engines[0]);
    assert!(baseline.0, "survivors must be served");
    assert_eq!(baseline.1, 0);
    assert_eq!(baseline.4, left, "every class re-certifies");
    for &engine in &engines[1..] {
        assert_eq!(run(engine), baseline, "{engine} diverged");
    }
    assert_eq!(run(engines[0]), baseline, "re-run diverged");
}

/// [`pair_fixture`] over a base CSR that also carries `extra` *isolated*
/// newcomer vertices: their adjacency (to every left vertex) exists only
/// in a growth overlay, never in the base — the packing predates them.
fn growth_fixture(left: usize, right: usize, extra: usize) -> (Graph, CdsPacking, ClassState) {
    assert!(right >= 2 * left);
    let bip = generators::complete_bipartite(left, right);
    let mut edges = Vec::new();
    for u in 0..bip.n() {
        for &v in bip.neighbors(u) {
            if u < v {
                edges.push((u, v));
            }
        }
    }
    let base = Graph::from_edges(bip.n() + extra, edges);
    let layout = VirtualLayout::new(base.n(), 4);
    let mut state = ClassState::new(layout, left);
    let mut classes: Vec<Vec<usize>> = vec![Vec::new(); left];
    let mut class_of = vec![None; layout.total()];
    for (c, members) in classes.iter_mut().enumerate() {
        for v in [c, left + 2 * c, left + 2 * c + 1] {
            state.join(&base, layout.vid(v, 0, VType::T1), c);
            class_of[layout.vid(v, 0, VType::T1)] = Some(c as u32);
            members.push(v);
        }
        members.sort_unstable();
    }
    let cds = CdsPacking {
        layout,
        num_classes: left,
        class_of,
        classes,
        trace: Vec::new(),
    };
    (base, cds, state)
}

/// The E12 growth plan: member arrivals at round 3, then `extra`
/// class-free newcomers at round 9 whose edges (to every left vertex)
/// are revealed only at the arrival round.
fn growth_plan(left: usize, base_pop: usize, extra: usize) -> FaultPlan {
    let mut events = Vec::new();
    for i in 0..4 {
        events.push(ScheduledFault {
            round: 3,
            fault: Fault::AddVertex(left + 2 * i + 1),
        });
    }
    for v in 0..extra {
        let w = base_pop + v;
        events.push(ScheduledFault {
            round: 9,
            fault: Fault::AddVertex(w),
        });
        for l in 0..left {
            events.push(ScheduledFault {
                round: 9,
                fault: Fault::AddEdge(w, l),
            });
        }
    }
    FaultPlan::new(events)
}

/// Golden digest of the growth scenario (seed 9): newcomers whose
/// adjacency is revealed only at arrival, admitted into the packing
/// incrementally. Update deliberately if admission or schedule
/// semantics change.
const GROWTH_SCENARIO_DIGEST: u64 = 0x5df1_343a_9330_9da5;

#[test]
fn growth_scenario_admits_newcomers_without_flooding() {
    // The end of the settled model, end to end: the final adjacency is
    // never built by the caller — three newcomers are isolated in the
    // base CSR and wired to the left side only at their arrival round.
    // Incremental admission must serve them from trees: zero flood
    // rounds, all three admitted.
    let (left, right, extra) = (8, 400, 3);
    let (base, cds, mut state) = growth_fixture(left, right, extra);
    let plan = growth_plan(left, left + right, extra);
    let gg = plan.growth_topology(&base);
    assert_eq!(
        gg.overlay_len(),
        extra * left,
        "newcomer edges live in the overlay"
    );
    let origins: Vec<usize> = (0..left + right).take(120).collect();
    let r = gossip_under_growth(&gg, &cds, &mut state, &origins, 9, &plan).unwrap();
    assert!(r.complete, "newcomers must be served");
    assert_eq!(r.lost_messages, 0);
    assert_eq!(
        r.admitted_via_packing, extra,
        "every newcomer joined a class"
    );
    assert_eq!(r.flood_served, 0);
    assert_eq!(r.flood_rounds, 0, "admission keeps every tree certified");
    for w in (left + right..base.n()).take(extra) {
        assert!(
            !state.classes_at(w).is_empty(),
            "newcomer {w} is a member now"
        );
    }

    // The settled counterpart on the materialized final topology: same
    // plan, same service, but the newcomers never enter the packing.
    let gfull = gg.final_graph();
    let (_, cds2, mut state2) = growth_fixture(left, right, extra);
    let s = gossip_under_churn(&gfull, &cds2, &mut state2, &origins, 9, &plan).unwrap();
    assert!(s.complete);
    assert_eq!(s.admitted_via_packing, 0, "settled runs never admit");
    assert_eq!(s.flood_served, extra);

    // Golden pin + exact double-run reproducibility.
    let (_, cds3, mut state3) = growth_fixture(left, right, extra);
    let r2 = gossip_under_growth(&gg, &cds3, &mut state3, &origins, 9, &plan).unwrap();
    assert_eq!(r, r2, "same inputs must reproduce the full report");
    assert_eq!(
        r.schedule_digest, GROWTH_SCENARIO_DIGEST,
        "growth schedule digest drifted — update deliberately"
    );
}

#[test]
fn distributed_growth_protocol_is_engine_equivalent() {
    // The distributed two-phase protocol on a growing topology:
    // phase 1 delivers over the view (adjacency revealed at arrival),
    // newcomers are admitted between the phases, and every engine must
    // agree bit-for-bit.
    let (left, right, extra) = (6, 200, 2);
    let (base, _, _) = growth_fixture(left, right, extra);
    let mut events = vec![
        ScheduledFault {
            round: 2,
            fault: Fault::AddVertex(left + 1),
        },
        ScheduledFault {
            round: 4,
            fault: Fault::Vertex(left),
        },
    ];
    for v in 0..extra {
        let w = left + right + v;
        events.push(ScheduledFault {
            round: 6,
            fault: Fault::AddVertex(w),
        });
        for l in 0..left {
            events.push(ScheduledFault {
                round: 6,
                fault: Fault::AddEdge(w, l),
            });
        }
    }
    let plan = FaultPlan::new(events);
    let gg = plan.growth_topology(&base);
    assert_eq!(gg.overlay_len(), extra * left);
    let run = |engine| {
        let (_, cds, mut state) = growth_fixture(left, right, extra);
        let origins: Vec<usize> = (0..left + right).filter(|&v| v != left).take(64).collect();
        let r = gossip_protocol_growth(
            &gg,
            &cds,
            &mut state,
            &origins,
            17,
            GossipConfig::default(),
            &plan,
            engine,
        )
        .unwrap();
        (
            r.complete,
            r.lost_messages,
            r.reinjected,
            r.reextractions,
            r.certified_classes,
            r.stats.locality_blind(),
        )
    };
    let engines = decomp_testkit::engines();
    let baseline = run(engines[0]);
    assert!(baseline.0, "survivors and newcomers must be served");
    assert_eq!(baseline.1, 0);
    assert_eq!(baseline.5.admitted_via_packing, extra);
    assert_eq!(baseline.5.flood_served, 0);
    for &engine in &engines[1..] {
        assert_eq!(run(engine), baseline, "{engine} diverged");
    }
    assert_eq!(run(engines[0]), baseline, "re-run diverged");
}

#[test]
fn vertex_disjoint_packing_degrades_one_tree_per_death() {
    // Integral (vertex-disjoint) packings degrade gracefully: a death
    // hits at most the one tree owning the vertex, so after `d` deaths
    // at least `trees − d` trees survive — pinned on every degradation
    // sample of a faulty run. (Fractional packings share vertices
    // across O(log n) trees, so one death may degrade several.)
    let g = generators::harary(16, 64);
    let integral = integral_cds_packing(&g, 3, 5);
    check_vertex_disjoint(&g, &integral.packing).unwrap();
    let trees = integral.packing.num_trees();
    assert!(trees >= 2, "fixture must pack ≥ 2 disjoint trees");

    // Kill one member of each of the first two trees (rounds ≥ 2: every
    // origin has relayed once, so nothing is lost below κ = 16).
    let victim = |t: usize| integral.packing.trees[t].vertices(g.n())[0];
    let plan = FaultPlan::new([
        ScheduledFault {
            round: 2,
            fault: Fault::Vertex(victim(0)),
        },
        ScheduledFault {
            round: 4,
            fault: Fault::Vertex(victim(1)),
        },
    ]);
    let origins: Vec<usize> = (0..g.n()).collect();
    for config in [GossipConfig::default(), GossipConfig::weighted()] {
        let r = gossip_via_trees_faulty(&g, &integral.packing, &origins, 5, config, &plan).unwrap();
        assert_eq!(r.lost_messages, 0);
        assert!(!r.degradation.is_empty());
        for s in &r.degradation {
            assert!(
                s.surviving_trees + s.faults_fired >= trees,
                "round {}: {} deaths may degrade at most {} trees",
                s.round,
                s.faults_fired,
                s.faults_fired
            );
        }
        let last = r.degradation.last().unwrap();
        assert_eq!(
            last.surviving_trees,
            trees - 2,
            "two deaths in two distinct trees degrade exactly two"
        );
    }
}

#[test]
fn arrivals_into_broken_classes_restore_certification() {
    // A class can be *broken* by the round-0 churn-out (its only right
    // member dormant) and heal when the member arrives: certification
    // must flip from t−1 to t across the wave.
    let left = 4;
    let (g, cds, mut state) = pair_fixture(left, 64);
    // Class 0 loses BOTH right members to dormancy: {left_0} alone
    // dominates no other left vertex, so the class starts broken.
    let plan = FaultPlan::new([
        ScheduledFault {
            round: 8,
            fault: Fault::AddVertex(left),
        },
        ScheduledFault {
            round: 8,
            fault: Fault::AddVertex(left + 1),
        },
    ]);
    let origins: Vec<usize> = (0..g.n()).filter(|&v| v != left && v != left + 1).collect();
    let r = gossip_under_churn(&g, &cds, &mut state, &origins, 3, &plan).unwrap();
    assert!(r.complete);
    assert_eq!(r.waves.len(), 1);
    assert_eq!(
        r.waves[0].certified_trees, left,
        "the arrival must re-certify the broken class"
    );
    assert!(r.waves[0].reextracted_classes >= 1);
    assert!(
        r.flood_rounds > 0 || r.repair_events > 0,
        "class 0's messages needed the fallback or a repair move"
    );
}

#[test]
fn churn_loop_on_an_empty_plan_is_the_greedy_schedule() {
    // With nothing to churn, the wave loop's repair hook never fires,
    // so it must take exactly the greedy schedule over the packing's
    // certified trees: the churn hook changes only the repair.
    for f in decomp_testkit::fixtures::standard() {
        let g = &f.graph;
        let n = g.n();
        let origins: Vec<usize> = (0..2 * n).map(|i| (i * 7) % n).collect();
        for seed in [1u64, 7] {
            let cfg = CdsPackingConfig::with_known_k(f.kappa.max(2), seed);
            let (cds, mut state) = cds_packing_with_state(g, &cfg);
            let packing = to_dom_tree_packing_with_state(g, &cds, &state).packing;
            let greedy =
                gossip_via_trees_with(g, &packing, &origins, seed, GossipConfig::default());
            let churn = gossip_under_churn(g, &cds, &mut state, &origins, seed, &FaultPlan::none())
                .unwrap();
            assert_eq!(
                (
                    churn.rounds,
                    churn.schedule_digest,
                    churn.wasted_bandwidth,
                    churn.repair_events,
                    churn.flood_rounds
                ),
                (
                    greedy.rounds,
                    greedy.schedule_digest,
                    greedy.wasted_bandwidth,
                    greedy.repair_events,
                    greedy.flood_rounds
                ),
                "{} seed {seed}",
                f.name
            );
        }
    }
}
