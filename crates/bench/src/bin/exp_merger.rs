//! E11 — Lemma 4.4 (Fast Merger) and Lemma 4.3 (Connector Abundance):
//! per-layer excess-component traces of the CDS construction, plus the
//! flow-certified connector counts for dominated split classes.

use decomp_bench::table::{d, f, Table};
use decomp_core::cds::centralized::{cds_packing, CdsPackingConfig};
use decomp_core::cds::connector::{max_disjoint_connectors, ProjectionView};
use decomp_graph::generators;

fn main() {
    // --- Fast Merger trace. ----------------------------------------------
    // With the default constants, jump-start classes on dense graphs are
    // connected from the start (M = 0 everywhere) — the interesting regime
    // needs *sparse* class projections: few layers and many classes. We
    // therefore use L ≈ log n and t close to k, which leaves each class
    // covering only ~half the vertices, and watch the excess decay.
    let mut t = Table::new(
        "E11a: Fast Merger (Lemma 4.4): per-layer excess components",
        &[
            "k",
            "t",
            "n",
            "layer",
            "M_before",
            "M_after",
            "decay",
            "matched",
            "deactivated",
        ],
    );
    for &(k, tcls, n, seed) in &[(48usize, 60usize, 384usize, 1u64), (64, 80, 512, 2)] {
        let g = generators::harary(k, n);
        let cfg = CdsPackingConfig {
            num_classes: tcls,
            layers_factor: 1.0,
            seed,
        };
        let p = cds_packing(&g, &cfg);
        for tr in &p.trace {
            let decay = if tr.excess_before > 0 {
                tr.excess_after as f64 / tr.excess_before as f64
            } else {
                0.0
            };
            t.row(&[
                d(k),
                d(tcls),
                d(n),
                d(tr.layer),
                d(tr.excess_before),
                d(tr.excess_after),
                f(decay),
                d(tr.matched),
                d(tr.deactivated),
            ]);
        }
        let final_excess = p.trace.last().map(|tr| tr.excess_after).unwrap_or(0);
        println!("k={k} t={tcls} n={n}: final excess = {final_excess}");
    }
    t.print();

    // --- Connector abundance. --------------------------------------------
    let mut t2 = Table::new(
        "E11b: Connector Abundance (Lemma 4.3): flow-certified counts",
        &["k", "n", "connectors", "bound k"],
    );
    for &k in &[4usize, 6, 8, 10] {
        // Two arcs on the Harary ring with gaps of exactly 2*floor(k/2):
        // dominating, disconnected, non-adjacent (cf. connector tests).
        let gap = 2 * (k / 2);
        let arc = 3 * k;
        let n = 2 * (arc + gap);
        let g = generators::harary(k, n);
        let comp_of: Vec<Option<usize>> = (0..n)
            .map(|v| {
                if v < arc {
                    Some(0)
                } else if (arc + gap..2 * arc + gap).contains(&v) {
                    Some(1)
                } else {
                    None
                }
            })
            .collect();
        let mask: Vec<bool> = comp_of.iter().map(|c| c.is_some()).collect();
        assert!(decomp_graph::domination::is_dominating_set(&g, &mask));
        let view = ProjectionView::new(&comp_of, 0);
        let connectors = max_disjoint_connectors(&g, &view);
        t2.row(&[d(k), d(n), d(connectors), d(k)]);
    }
    t2.print();
}
