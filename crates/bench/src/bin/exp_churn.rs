//! E11 — live-churn degradation curves (PR 9): mid-run arrivals plus
//! deletions, tree re-extraction between waves, and the cost of the
//! flood fallback. Three tables:
//!
//! * C1 — rounds / wasted bandwidth vs churn rate for the three gossip
//!   regimes (uniform, weighted, RLNC) under alternating kill/arrive
//!   plans on a static packing (no re-extraction: the price of faults
//!   repaired only by reseeding);
//! * C2 — the wave-loop scheduler (`gossip_under_churn`), which
//!   re-extracts the touched classes' trees between waves: flood rounds
//!   stay bounded per wave instead of accumulating;
//! * C3 — the distributed two-phase churn protocol
//!   (`gossip_protocol_churn`) on the sequential engine.
//!
//! E12 (PR 10) — settled vs growth admission: newcomers whose adjacency
//! is revealed only at the arrival round. The settled run serves the
//! class-free arrivals through the flood fallback; the growth run
//! (`gossip_under_churn` on a `GrowableGraph`) admits them into the
//! packing through the maintained aggregates and serves them from the
//! trees.

use decomp_bench::table::{d, Table};
use decomp_broadcast::churn::gossip_under_churn;
use decomp_broadcast::gossip::{gossip_via_trees_faulty, GossipConfig};
use decomp_broadcast::gossip_distributed::gossip_protocol_churn;
use decomp_congest::{EngineKind, Fault, FaultPlan, ScheduledFault};
use decomp_core::cds::centralized::{cds_packing_with_state, CdsPackingConfig};
use decomp_core::cds::tree_extract::to_dom_tree_packing_with_state;
use decomp_graph::{connectivity, generators, Graph};

/// Alternating churn: `c` kills and `c` arrivals on disjoint vertex
/// sets, interleaved every other round from round 2 on.
fn churn_plan(g: &Graph, c: usize) -> FaultPlan {
    let n = g.n();
    let mut events = Vec::new();
    for i in 0..c {
        events.push(ScheduledFault {
            round: 2 + 4 * i,
            fault: Fault::Vertex(1 + i),
        });
        events.push(ScheduledFault {
            round: 4 + 4 * i,
            fault: Fault::AddVertex(n - 1 - i),
        });
    }
    FaultPlan::new(events)
}

/// Origins untouched by the plan (a killed origin may legitimately
/// lose its not-yet-relayed message; keep the curves about repair).
fn stable_origins(g: &Graph, c: usize) -> Vec<usize> {
    let n = g.n();
    (0..n)
        .filter(|&v| !(1..=c).contains(&v) && v < n - c)
        .collect()
}

fn main() {
    let instances = [
        ("harary", generators::harary(8, 48)),
        ("random-regular", generators::random_regular(40, 8, 11)),
    ];

    // C1 — static packing, repair by reseed only, all three regimes.
    let mut t1 = Table::new(
        "E11/C1: regimes under alternating churn (static packing)",
        &[
            "family",
            "regime",
            "churn",
            "rounds",
            "wasted",
            "repair ev",
            "flood rds",
            "lost",
        ],
    );
    for (name, g) in &instances {
        let k = connectivity::vertex_connectivity(g);
        let (cds, state) = cds_packing_with_state(g, &CdsPackingConfig::with_known_k(k, 2));
        let trees = to_dom_tree_packing_with_state(g, &cds, &state).packing;
        for c in [0usize, 1, 2, 3] {
            let plan = churn_plan(g, c);
            let origins = stable_origins(g, c);
            for (regime, config) in [
                ("uniform", GossipConfig::default()),
                ("weighted", GossipConfig::weighted()),
                ("rlnc", GossipConfig::rlnc(8, 7)),
            ] {
                let r = gossip_via_trees_faulty(g, &trees, &origins, 5, config, &plan).unwrap();
                t1.row(&[
                    name.to_string(),
                    regime.into(),
                    d(2 * c),
                    d(r.rounds),
                    d(r.wasted_bandwidth),
                    d(r.repair_events),
                    d(r.flood_rounds),
                    d(r.lost_messages),
                ]);
            }
        }
    }
    t1.print();

    // C2 — the wave loop: trees re-extracted between waves.
    let mut t2 = Table::new(
        "E11/C2: gossip_under_churn (re-extraction between waves)",
        &[
            "family",
            "churn",
            "rounds",
            "waves",
            "reextracted",
            "repair ev",
            "flood rds",
            "certified",
            "complete",
        ],
    );
    for (name, g) in &instances {
        let k = connectivity::vertex_connectivity(g);
        for c in [0usize, 1, 2, 3] {
            let (cds, mut state) = cds_packing_with_state(g, &CdsPackingConfig::with_known_k(k, 2));
            let plan = churn_plan(g, c);
            let origins = stable_origins(g, c);
            let r = gossip_under_churn(g, &cds, &mut state, &origins, 5, &plan).unwrap();
            let certified = r
                .waves
                .last()
                .map_or(cds.num_classes(), |w| w.surviving_trees);
            t2.row(&[
                name.to_string(),
                d(2 * c),
                d(r.rounds),
                d(r.waves.len()),
                d(r.reextractions),
                d(r.repair_events),
                d(r.flood_rounds),
                d(certified),
                d(r.complete),
            ]);
        }
    }
    t2.print();

    // C3 — the distributed two-phase churn protocol.
    let mut t3 = Table::new(
        "E11/C3: distributed churn protocol (sequential engine)",
        &[
            "family",
            "churn",
            "rounds",
            "messages",
            "reinjected",
            "reextracted",
            "certified",
            "complete",
        ],
    );
    for (name, g) in &instances {
        let k = connectivity::vertex_connectivity(g);
        for c in [0usize, 1, 2, 3] {
            let (cds, mut state) = cds_packing_with_state(g, &CdsPackingConfig::with_known_k(k, 2));
            let plan = churn_plan(g, c);
            let origins = stable_origins(g, c);
            let r = gossip_protocol_churn(
                g,
                &cds,
                &mut state,
                &origins,
                5,
                GossipConfig::default(),
                &plan,
                EngineKind::Sequential,
            )
            .unwrap();
            t3.row(&[
                name.to_string(),
                d(2 * c),
                d(r.stats.rounds),
                d(r.stats.messages),
                d(r.stats.repair_events),
                d(r.reextractions),
                d(r.intact_carriers),
                d(r.complete),
            ]);
        }
    }
    t3.print();

    // E12 — settled vs growth admission. The packing predates the
    // newcomers: built over the final topology, then the newcomers
    // evicted, their edges living only in the growth overlay.
    let mut t4 = Table::new(
        "E12: settled vs growth admission (adjacency revealed at arrival)",
        &[
            "family",
            "newcomers",
            "mode",
            "rounds",
            "admitted",
            "flood srv",
            "flood rds",
            "complete",
        ],
    );
    for (name, g) in &instances {
        let k = connectivity::vertex_connectivity(g);
        let n = g.n();
        for c in [1usize, 2, 3] {
            let newcomers: Vec<usize> = (n - c..n).collect();
            let base = Graph::from_edges(
                n,
                (0..n).flat_map(|u| {
                    g.neighbors(u)
                        .iter()
                        .filter(move |&&v| u < v && u < n - c && v < n - c)
                        .map(move |&v| (u, v))
                }),
            );
            let mut events = Vec::new();
            for (i, &v) in newcomers.iter().enumerate() {
                let round = 4 + 3 * i;
                events.push(ScheduledFault {
                    round,
                    fault: Fault::AddVertex(v),
                });
                for &u in g.neighbors(v) {
                    // An edge between two newcomers activates at the
                    // later arrival.
                    if newcomers
                        .iter()
                        .position(|&x| x == u)
                        .is_some_and(|j| j > i)
                    {
                        continue;
                    }
                    events.push(ScheduledFault {
                        round,
                        fault: Fault::AddEdge(v, u),
                    });
                }
            }
            let plan = FaultPlan::new(events);
            let gg = plan.growth_topology(&base);
            let origins: Vec<usize> = (0..n - c).collect();
            for growth in [false, true] {
                let (mut cds, mut st) =
                    cds_packing_with_state(g, &CdsPackingConfig::with_known_k(k, 2));
                for &v in &newcomers {
                    for cl in st.delete_vertex(g, |_, _| true, v) {
                        let ms = &mut cds.classes[cl as usize];
                        if let Ok(i) = ms.binary_search(&v) {
                            ms.remove(i);
                        }
                    }
                }
                let r = if growth {
                    gossip_under_churn(&gg, &cds, &mut st, &origins, 5, &plan).unwrap()
                } else {
                    gossip_under_churn(g, &cds, &mut st, &origins, 5, &plan).unwrap()
                };
                t4.row(&[
                    name.to_string(),
                    d(c),
                    if growth { "growth" } else { "settled" }.into(),
                    d(r.rounds),
                    d(r.admitted_via_packing),
                    d(r.flood_served),
                    d(r.flood_rounds),
                    d(r.complete),
                ]);
            }
        }
    }
    t4.print();
}
