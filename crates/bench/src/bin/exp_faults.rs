//! E10 — fault & churn degradation curves: the Theorem 1.1 robustness
//! claim measured. A CDS packing of size ~k keeps gossip completing under
//! any `f < k` deletions; these tables record how the schedule degrades
//! as `f` grows — rounds and reassignments for the centralized schedule,
//! rounds and messages for the two-phase distributed repair protocol —
//! under both the seeded-random and the adversarial (highest-degree
//! first) fault policies.

use decomp_bench::table::{d, Table};
use decomp_broadcast::gossip::{gossip_via_trees_faulty, GossipConfig};
use decomp_broadcast::gossip_distributed::gossip_protocol_faulty;
use decomp_congest::{EngineKind, FaultPlan};
use decomp_core::cds::centralized::{cds_packing, CdsPackingConfig};
use decomp_core::cds::tree_extract::to_dom_tree_packing;
use decomp_core::packing::DomTreePacking;
use decomp_graph::{connectivity, generators, Graph};

fn instance(name: &str, g: Graph) -> (String, Graph, usize, DomTreePacking) {
    let k = connectivity::vertex_connectivity(&g);
    let p = cds_packing(&g, &CdsPackingConfig::with_known_k(k, 2));
    let trees = to_dom_tree_packing(&g, &p).packing;
    trees.validate(&g, 1e-9).unwrap();
    (name.to_string(), g, k, trees)
}

fn main() {
    let instances = [
        instance("harary", generators::harary(8, 40)),
        instance("random-regular", generators::random_regular(36, 6, 11)),
    ];

    // Centralized schedule: rounds and repair work vs f.
    let mut t = Table::new(
        "E10: schedule degradation vs f (vertex faults, rounds 2..6)",
        &[
            "family",
            "n",
            "k",
            "policy",
            "f",
            "rounds",
            "reassigned",
            "repair ev",
            "flood rds",
            "lost",
            "trees left",
        ],
    );
    for (name, g, k, trees) in &instances {
        let origins: Vec<usize> = (0..g.n()).collect();
        for f in 0..*k {
            let plans = [
                ("random", FaultPlan::random_vertices(g, f, (2, 6), 5)),
                ("worst", FaultPlan::worst_case_vertices(g, f, 2)),
            ];
            for (policy, plan) in plans {
                let r =
                    gossip_via_trees_faulty(g, trees, &origins, 5, GossipConfig::weighted(), &plan)
                        .unwrap();
                let reassigned: usize = r.waves.iter().map(|s| s.reassigned_messages).sum();
                let trees_left = r
                    .waves
                    .last()
                    .map_or(trees.num_trees(), |s| s.surviving_trees);
                t.row(&[
                    name.clone(),
                    d(g.n()),
                    d(*k),
                    policy.into(),
                    d(f),
                    d(r.rounds),
                    d(reassigned),
                    d(r.repair_events),
                    d(r.flood_rounds),
                    d(r.lost_messages),
                    d(trees_left),
                ]);
            }
        }
    }
    t.print();

    // Distributed two-phase repair: round and message cost vs f.
    let mut t2 = Table::new(
        "E10b: distributed repair protocol cost vs f",
        &[
            "family",
            "n",
            "k",
            "f",
            "rounds",
            "messages",
            "reinjected",
            "repair ev",
            "flood rds",
            "lost",
            "complete",
        ],
    );
    for (name, g, k, trees) in &instances {
        let origins: Vec<usize> = (0..g.n()).collect();
        for f in (0..*k).step_by(2) {
            let plan = FaultPlan::random_vertices(g, f, (2, 5), 5);
            let r = gossip_protocol_faulty(
                g,
                trees,
                &origins,
                5,
                GossipConfig::default(),
                &plan,
                EngineKind::Sequential,
            )
            .unwrap();
            t2.row(&[
                name.clone(),
                d(g.n()),
                d(*k),
                d(f),
                d(r.stats.rounds),
                d(r.stats.messages),
                d(r.stats.repair_events),
                d(r.stats.repair_events),
                d(r.stats.flood_rounds),
                d(r.lost_messages),
                d(r.complete),
            ]);
        }
    }
    t2.print();
}
