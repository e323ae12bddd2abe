//! E9 — Corollary A.1: gossiping `N` messages (≤ η per node) completes in
//! `O~(η + (N + n)/k)` rounds via the dominating-tree packing. Each
//! workload runs under all three schedules: the integral reading
//! (uniform tree choice, greedy relaying), the fractional regime
//! (weight-proportional choice + weighted time-sharing, Theorem 1.1),
//! and the network-coded regime (seeded-random GF(2⁸) combinations per
//! generation — beyond the paper; see `broadcast::rlnc`).

use decomp_bench::packings::disjoint_pair_packing;
use decomp_bench::table::{d, f, Table};
use decomp_broadcast::gossip::{gossip_single_tree_baseline, gossip_via_trees_with, GossipConfig};
use decomp_broadcast::gossip_distributed::gossip_protocol_on;
use decomp_congest::{Model, Simulator};
use decomp_core::cds::centralized::{cds_packing, CdsPackingConfig};
use decomp_core::cds::tree_extract::to_dom_tree_packing;
use decomp_graph::generators;

fn main() {
    let configs = [
        ("uniform", GossipConfig::default()),
        ("weighted", GossipConfig::weighted()),
        ("rlnc", GossipConfig::rlnc(8, 5)),
    ];
    let mut t = Table::new(
        "E9: gossiping (Cor A.1)",
        &[
            "family",
            "n",
            "k",
            "N",
            "eta",
            "sched",
            "rounds",
            "baseline",
            "bound eta+(N+n)/k",
        ],
    );
    // Constructed packings.
    for &(k, n, mult) in &[(8usize, 48usize, 1usize), (16, 64, 2), (16, 64, 4)] {
        let g = generators::harary(k, n);
        let p = cds_packing(&g, &CdsPackingConfig::with_known_k(k, 2));
        let trees = to_dom_tree_packing(&g, &p).packing;
        trees.validate(&g, 1e-9).unwrap();
        let origins: Vec<usize> = (0..mult * n).map(|i| i % n).collect();
        let base = gossip_single_tree_baseline(&g, &origins, 5);
        let bound = mult as f64 + (origins.len() + n) as f64 / k as f64;
        for (sched, config) in configs {
            let r = gossip_via_trees_with(&g, &trees, &origins, 5, config);
            t.row(&[
                "harary".into(),
                d(n),
                d(k),
                d(origins.len()),
                d(mult),
                sched.into(),
                d(r.rounds),
                d(base.rounds),
                f(bound),
            ]);
        }
    }
    // Vertex-disjoint pair trees (the k >> log n regime).
    for &tcount in &[8usize, 16] {
        let n = 96;
        let g = generators::complete_bipartite(tcount, n - tcount);
        let packing = disjoint_pair_packing(&g, tcount);
        let origins: Vec<usize> = (0..4 * n).map(|i| i % n).collect();
        let base = gossip_single_tree_baseline(&g, &origins, 5);
        let bound = 4.0 + (origins.len() + n) as f64 / tcount as f64;
        for (sched, config) in configs {
            let r = gossip_via_trees_with(&g, &packing, &origins, 5, config);
            t.row(&[
                "disjoint-pairs".into(),
                d(n),
                d(tcount),
                d(origins.len()),
                d(4),
                sched.into(),
                d(r.rounds),
                d(base.rounds),
                f(bound),
            ]);
        }
    }
    t.print();

    // Cross-validation: the schedule-level simulation vs the real
    // V-CONGEST protocol on the same workload, per tree-choice policy.
    let mut t2 = Table::new(
        "E9b: schedule simulation vs message-passing protocol",
        &[
            "family",
            "n",
            "N",
            "sched",
            "schedule rounds",
            "protocol rounds",
            "complete",
        ],
    );
    let g = generators::harary(8, 48);
    let p = cds_packing(&g, &CdsPackingConfig::with_known_k(8, 2));
    let trees = to_dom_tree_packing(&g, &p).packing;
    trees.validate(&g, 1e-9).unwrap();
    let origins: Vec<usize> = (0..g.n()).collect();
    for (sched, config) in configs {
        let sched_r = gossip_via_trees_with(&g, &trees, &origins, 5, config);
        let mut sim = Simulator::with_seed(&g, Model::VCongest, 5);
        let proto = gossip_protocol_on(&mut sim, &trees, &origins, 5, config).unwrap();
        t2.row(&[
            "harary".into(),
            d(g.n()),
            d(origins.len()),
            sched.into(),
            d(sched_r.rounds),
            d(proto.stats.rounds),
            d(proto.complete),
        ]);
    }
    t2.print();
}
