//! Live-churn scenario suite (PR 9): mid-run vertex arrivals, tree
//! re-extraction between fault waves, and vertex-disjoint degradation.
//!
//! Covers: a 10⁴-vertex alternating kill/arrive scenario whose gossip
//! returns to tree schedules between waves (per-wave flood rounds stay
//! bounded), a golden-pinned churn schedule digest, engine equivalence
//! of the distributed two-phase churn protocol, and the ≤-1-tree-per-
//! death degradation guarantee of vertex-disjoint (integral) packings,
//! a differential pin of the wave loop against the greedy schedule, and
//! a cross-check of the repair pass's coverage certificate on generated
//! plans.
//!
//! CI sweeps this suite under `DECOMP_ENGINE=sequential` and
//! `sharded:4`.

use connectivity_decomposition::broadcast::churn::gossip_under_churn;
use connectivity_decomposition::broadcast::gossip::{
    gossip_via_trees_faulty, gossip_via_trees_with, GossipConfig,
};
use connectivity_decomposition::broadcast::gossip_distributed::gossip_protocol_churn;
use connectivity_decomposition::congest::{Fault, FaultPlan, FaultState, ScheduledFault};
use connectivity_decomposition::core::cds::centralized::{
    cds_packing_with_state, CdsPacking, CdsPackingConfig,
};
use connectivity_decomposition::core::cds::class_state::ClassState;
use connectivity_decomposition::core::cds::integral::{
    check_vertex_disjoint, integral_cds_packing,
};
use connectivity_decomposition::core::cds::tree_extract::to_dom_tree_packing_with_state;
use connectivity_decomposition::core::packing::DomTreePacking;
use connectivity_decomposition::core::virtual_graph::{VType, VirtualLayout};
use connectivity_decomposition::graph::traversal::is_connected;
use connectivity_decomposition::graph::{generators, Graph};
use decomp_testkit::fixtures::{self, Family};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::OnceLock;

/// A complete-bipartite fixture with `left` hand-built classes: class
/// `i` is `{left_i, right_{2i}, right_{2i+1}}` — a connected triple that
/// dominates both sides, so every class certifies, and killing one
/// right member leaves a certified pair. Deterministic by construction
/// (no RNG), which keeps the golden digest meaningful.
fn pair_fixture(left: usize, right: usize) -> (Graph, CdsPacking, ClassState) {
    assert!(right >= 2 * left);
    let g = generators::complete_bipartite(left, right);
    let (cds, state) = hand_built_classes(&g, pair_classes(left));
    (g, cds, state)
}

/// The pair fixtures' classes: class `i` is `{left_i, right_{2i},
/// right_{2i+1}}`.
fn pair_classes(left: usize) -> Vec<Vec<usize>> {
    (0..left)
        .map(|c| vec![c, left + 2 * c, left + 2 * c + 1])
        .collect()
}

/// A packing and its class state with the given classes (each sorted):
/// every member joins its class at layer 0, class by class in member
/// order. Deterministic by construction (no RNG).
fn hand_built_classes(g: &Graph, classes: Vec<Vec<usize>>) -> (CdsPacking, ClassState) {
    let layout = VirtualLayout::new(g.n(), 4);
    let mut state = ClassState::new(layout, classes.len());
    let mut class_of = vec![None; layout.total()];
    for (c, members) in classes.iter().enumerate() {
        for &v in members {
            state.join(g, layout.vid(v, 0, VType::T1), c);
            class_of[layout.vid(v, 0, VType::T1)] = Some(c as u32);
        }
    }
    let cds = CdsPacking {
        layout,
        num_classes: classes.len(),
        class_of,
        classes,
        trace: Vec::new(),
    };
    (cds, state)
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
            w.surviving_trees, left,
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
            r.reextractions,
            r.intact_carriers,
            r.stats.locality_blind(),
        )
    };
    let engines = decomp_testkit::engines();
    let baseline = run(engines[0]);
    assert!(baseline.0, "survivors must be served");
    assert_eq!(baseline.1, 0);
    assert_eq!(baseline.3, left, "every class re-certifies");
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
    let (cds, state) = hand_built_classes(&base, pair_classes(left));
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
    let r = gossip_under_churn(&gg, &cds, &mut state, &origins, 9, &plan).unwrap();
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
    let r2 = gossip_under_churn(&gg, &cds3, &mut state3, &origins, 9, &plan).unwrap();
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
        let r = gossip_protocol_churn(
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
            r.reextractions,
            r.intact_carriers,
            r.stats.locality_blind(),
        )
    };
    let engines = decomp_testkit::engines();
    let baseline = run(engines[0]);
    assert!(baseline.0, "survivors and newcomers must be served");
    assert_eq!(baseline.1, 0);
    assert_eq!(baseline.4.admitted_via_packing, extra);
    assert_eq!(baseline.4.flood_served, 0);
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
        assert!(!r.waves.is_empty());
        for s in &r.waves {
            assert!(
                s.surviving_trees + s.faults_fired >= trees,
                "round {}: {} deaths may degrade at most {} trees",
                s.round,
                s.faults_fired,
                s.faults_fired
            );
        }
        let last = r.waves.last().unwrap();
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
        r.waves[0].surviving_trees, left,
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

/// The certificate cross-check's graphs with their exact `κ`: the
/// roster's Harary and random-regular fixtures plus a thick path.
fn certificate_roster() -> &'static [(Graph, usize)] {
    static ROSTER: OnceLock<Vec<(Graph, usize)>> = OnceLock::new();
    ROSTER.get_or_init(|| {
        let mut out: Vec<(Graph, usize)> = fixtures::standard()
            .into_iter()
            .filter(|f| matches!(f.family, Family::Harary | Family::RandomRegular))
            .map(|f| (f.graph, f.kappa))
            .collect();
        out.push((generators::thick_path(4, 6), 4));
        out
    })
}

/// Whether the live present vertices stay connected through deliverable
/// edges before the first event and after every event round of `plan`.
fn survivors_stay_connected(g: &Graph, plan: &FaultPlan) -> bool {
    let mut ft = FaultState::new(plan, g.n());
    let mut rounds = std::iter::once(0).chain(plan.events().iter().map(|e| e.round));
    rounds.all(|r| {
        ft.advance_to(r);
        let present: Vec<usize> = g
            .vertices()
            .filter(|&v| !ft.is_dead(v) && !ft.is_dormant(v))
            .collect();
        let survivors = g.edge_subgraph(|u, v| ft.deliverable(u, v));
        let (live, _) = survivors.induced_subgraph(&present);
        present.is_empty() || is_connected(&live)
    })
}

/// An edge the generated plans may activate late, and the edge they
/// then cut, if any (see [`certificate_plan`]).
type LateEdge = ((usize, usize), Option<(usize, usize)>);

/// Tree edges of `packings` whose removal disconnects their tree's
/// vertex set: activating one late leaves the tree's members split until
/// it fires, so a holder that relayed may border needy members only
/// across the activated edge.
fn splitting_tree_edges(g: &Graph, packings: &[&DomTreePacking]) -> Vec<LateEdge> {
    let trees = packings.iter().flat_map(|p| &p.trees);
    trees
        .flat_map(|t| {
            let members = t.vertices(g.n());
            let edges = t.edges.iter().map(|&(u, v)| (u.min(v), u.max(v)));
            edges.filter(move |&e| {
                let without = g.edge_subgraph(|x, y| (x.min(y), x.max(y)) != e);
                !is_connected(&without.induced_subgraph(&members).0)
            })
        })
        .map(|e| (e, None))
        .collect()
}

/// Pairs `(e, f)` of edges inside one tree's vertex set of `packing`
/// that form a 2-edge cut of it, neither a bridge alone. With `e` late
/// the members still hold together at round 0, so the churn hook
/// certifies the class and messages ride it; once `f` is cut after `e`
/// arrives, `e` is the only link, and a holder that relayed before `e`
/// arrived may border needy members only across it. A late edge that
/// splits the class outright never reaches that shape under the churn
/// hook: the class carries nothing until the activation re-certifies
/// it, and every message it then takes is reseeded.
fn resplitting_edge_pairs(g: &Graph, packing: &DomTreePacking) -> Vec<LateEdge> {
    let mut out = Vec::new();
    for t in &packing.trees {
        let (h, map) = g.induced_subgraph(&t.vertices(g.n()));
        let connected_without = |cut: &[(usize, usize)]| {
            is_connected(&h.edge_subgraph(|x, y| !cut.contains(&(x.min(y), x.max(y)))))
        };
        let edges: Vec<(usize, usize)> = h
            .edges()
            .iter()
            .copied()
            .filter(|&e| connected_without(&[e]))
            .collect();
        for &e in &edges {
            for &f in edges
                .iter()
                .filter(|&&f| f != e && !connected_without(&[e, f]))
            {
                out.push(((map[e.0], map[e.1]), Some((map[f.0], map[f.1]))));
            }
        }
    }
    out
}

/// A seeded plan of `kills` kills (never an origin) and `arrivals`
/// vertex arrivals at rounds 1–9, and `cuts` cuts at rounds 1–9 and
/// `activations` activations at rounds 3–5 (after the first relays) of
/// edges between vertices present from round 0; activations come from
/// `pool` when it is not empty, and a pool entry's paired edge is cut in
/// the activation's wave or up to two rounds later. An event that would
/// disconnect the survivors at some round is left out.
fn certificate_plan(
    g: &Graph,
    origins: &[usize],
    [kills, arrivals, cuts, activations]: [usize; 4],
    pool: &[LateEdge],
    seed: u64,
) -> FaultPlan {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut used = vec![false; g.n()];
    let mut events: Vec<ScheduledFault> = Vec::new();
    for arrive in (0..arrivals).map(|_| true).chain((0..kills).map(|_| false)) {
        let v = rng.gen_range(0..g.n());
        if used[v] || (!arrive && origins.contains(&v)) {
            continue;
        }
        used[v] = true;
        let fault = if arrive {
            Fault::AddVertex(v)
        } else {
            Fault::Vertex(v)
        };
        let round = rng.gen_range(1..10);
        events.push(ScheduledFault { round, fault });
    }
    let mut edges_used: Vec<(usize, usize)> = Vec::new();
    for activate in (0..cuts)
        .map(|_| false)
        .chain((0..activations).map(|_| true))
    {
        let ((u, v), then_cut) = if activate && !pool.is_empty() {
            pool[rng.gen_range(0..pool.len())]
        } else {
            (g.edges()[rng.gen_range(0..g.m())], None)
        };
        if used[u] || used[v] || edges_used.contains(&(u, v)) {
            continue;
        }
        edges_used.push((u, v));
        let (fault, round) = if activate {
            (Fault::AddEdge(u, v), rng.gen_range(3..6))
        } else {
            (Fault::Edge(u, v), rng.gen_range(1..10))
        };
        events.push(ScheduledFault { round, fault });
        let fresh =
            |&(x, y): &(usize, usize)| !used[x] && !used[y] && !edges_used.contains(&(x, y));
        if let Some((x, y)) = then_cut.filter(fresh) {
            edges_used.push((x, y));
            let round = round + rng.gen_range(0..3usize);
            events.push(ScheduledFault {
                round,
                fault: Fault::Edge(x, y),
            });
        }
    }
    events.sort_by_key(|e| e.round);
    let mut kept: Vec<ScheduledFault> = Vec::new();
    for e in events {
        kept.push(e);
        if !survivors_stay_connected(g, &FaultPlan::new(kept.clone())) {
            kept.pop();
        }
    }
    FaultPlan::new(kept)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The repair pass's coverage certificate against its BFS oracle on
    /// generated plans: kills, cuts, arrivals, and edge activations
    /// between vertices present from round 0 (the shape that needs
    /// `FaultState::activated`), some followed by a cut that leaves the
    /// activated edge a class's only link. Runs the churn hook over the
    /// CDS packing and over hand-built classes taken from a sparse
    /// vertex-disjoint packing's trees, and the static hook with both
    /// relay policies over both packings. Each case runs an
    /// activations-only plan and a mixed one. Every run completes; in
    /// debug builds the schedule's `debug_assert!` re-runs the BFS on
    /// every message the certificate vouches for.
    fn coverage_certificate_holds_on_generated_plans(
        seed in any::<u64>(),
        pick in 0usize..6,
        nmsg in 1usize..24,
        kills in 0usize..3,
        arrivals in 0usize..3,
        cuts in 0usize..4,
        activations in 0usize..4,
    ) {
        let roster = certificate_roster();
        let (g, kappa) = &roster[pick % roster.len()];
        let mut rng = StdRng::seed_from_u64(seed ^ 0xc0fe_7a6e);
        let origins: Vec<usize> = (0..nmsg).map(|_| rng.gen_range(0..g.n())).collect();
        let cfg = CdsPackingConfig::with_known_k((*kappa).max(2), seed);
        let (cds, state) = cds_packing_with_state(g, &cfg);
        let packing = to_dom_tree_packing_with_state(g, &cds, &state).packing;
        let sparse = integral_cds_packing(g, 2 + (seed % 2) as usize, seed).packing;
        let mut pool = splitting_tree_edges(g, &[&packing, &sparse]);
        pool.extend(resplitting_edge_pairs(g, &sparse));
        // The churn hook over the sparse packing: one hand-built class
        // per tree. Unlike the CDS classes, which hold every vertex, such
        // a class can be split by a late edge, or held together by one
        // once a cut fires (`resplitting_edge_pairs`).
        let mut class_packings = vec![(cds, state)];
        if sparse.num_trees() > 0 {
            let classes = sparse.trees.iter().map(|t| t.vertices(g.n())).collect();
            class_packings.push(hand_built_classes(g, classes));
        }
        for counts in [[0, 0, 0, activations.max(1)], [kills, arrivals, cuts, activations]] {
            let plan = certificate_plan(g, &origins, counts, &pool, seed);
            for (cds, state) in &class_packings {
                let mut st = state.clone();
                let churn = gossip_under_churn(g, cds, &mut st, &origins, seed, &plan).unwrap();
                prop_assert!(churn.complete, "churn hook, plan {:?}", plan.events());
            }
            for p in [&packing, &sparse].into_iter().filter(|p| p.num_trees() > 0) {
                for config in [GossipConfig::default(), GossipConfig::weighted()] {
                    let r = gossip_via_trees_faulty(g, p, &origins, seed, config, &plan).unwrap();
                    prop_assert!(r.complete, "static hook, plan {:?}", plan.events());
                }
            }
        }
    }
}
