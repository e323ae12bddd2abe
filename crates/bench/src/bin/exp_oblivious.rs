//! E7 — Corollary 1.6: oblivious routing broadcast congestion.
//!
//! Vertex congestion via dominating-tree packings should be
//! `O(log n)`-competitive against `N/k`; edge congestion via spanning-tree
//! packings `O(1)`-competitive against `N/λ`.

use decomp_bench::table::{d, f, Table};
use decomp_broadcast::oblivious::{edge_congestion, vertex_congestion};
use decomp_core::cds::centralized::{cds_packing, CdsPackingConfig};
use decomp_core::cds::tree_extract::to_dom_tree_packing;
use decomp_core::stp::mwu::{fractional_stp_mwu, MwuConfig};
use decomp_graph::connectivity::edge_connectivity;
use decomp_graph::generators;

fn main() {
    let workload = 5000;
    let mut t = Table::new(
        "E7a: oblivious vertex congestion (Cor 1.6)",
        &[
            "family",
            "n",
            "k",
            "max-cong",
            "opt(N/k)",
            "competitiveness",
            "log n",
        ],
    );
    for &(k, n) in &[(8usize, 48usize), (16, 64), (32, 96), (64, 160)] {
        let g = generators::harary(k, n);
        let p = cds_packing(&g, &CdsPackingConfig::with_known_k(k, 3));
        let trees = to_dom_tree_packing(&g, &p).packing;
        let r = vertex_congestion(&g, &trees, k, workload, 9);
        t.row(&[
            "harary".into(),
            d(n),
            d(k),
            f(r.max_congestion),
            f(r.opt_lower_bound),
            f(r.competitiveness),
            f((n as f64).log2()),
        ]);
    }
    // The sparse regime (t > 3L): classes become near-disjoint and the
    // competitiveness drops toward the O(log n) the theorem promises —
    // with heavily overlapping classes (rows above) it degenerates to k.
    for &(k, n, tcls) in &[(200usize, 400usize, 60usize), (400, 800, 100)] {
        let g = generators::harary(k, n);
        let cfg = decomp_core::cds::centralized::CdsPackingConfig {
            num_classes: tcls,
            layers_factor: 1.0,
            seed: 9,
        };
        let p = cds_packing(&g, &cfg);
        let trees = to_dom_tree_packing(&g, &p).packing;
        let r = vertex_congestion(&g, &trees, k, workload, 9);
        t.row(&[
            "harary-sparse".into(),
            d(n),
            d(k),
            f(r.max_congestion),
            f(r.opt_lower_bound),
            f(r.competitiveness),
            f((n as f64).log2()),
        ]);
    }
    t.print();

    let mut t2 = Table::new(
        "E7b: oblivious edge congestion (Cor 1.6)",
        &[
            "family",
            "n",
            "lambda",
            "max-cong",
            "opt(N/l)",
            "competitiveness",
        ],
    );
    for (name, g) in [
        ("harary", generators::harary(8, 32)),
        ("harary", generators::harary(12, 48)),
        ("complete", generators::complete(16)),
        ("hypercube", generators::hypercube(5)),
    ] {
        let lambda = edge_connectivity(&g);
        let packing = fractional_stp_mwu(&g, lambda, &MwuConfig::default()).packing;
        let r = edge_congestion(&g, &packing, lambda, workload, 13);
        t2.row(&[
            name.into(),
            d(g.n()),
            d(lambda),
            f(r.max_congestion),
            f(r.opt_lower_bound),
            f(r.competitiveness),
        ]);
    }
    t2.print();
}
