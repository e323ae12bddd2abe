//! E1 — Theorem 1.1/1.2: fractional dominating-tree packing quality.
//!
//! For each family and connectivity `k`: number of classes `t = Θ(k)`,
//! how many came out valid CDSs, the per-node multiplicity (paper bound:
//! `O(log n)` = at most `3L`), the fractional packing size
//! `κ ∈ [Ω(k/log n), k]`, and the largest tree diameter (paper: `O~(n/k)`).

use decomp_bench::table::{d, f, Table};
use decomp_core::cds::centralized::{cds_packing, CdsPackingConfig};
use decomp_core::cds::tree_extract::to_dom_tree_packing;
use decomp_graph::{generators, Graph};

fn run_case(t: &mut Table, name: &str, g: &Graph, k: usize, seed: u64) {
    let packing = cds_packing(g, &CdsPackingConfig::with_known_k(k, seed));
    let ex = to_dom_tree_packing(g, &packing);
    let n = g.n();
    let mult = ex.packing.max_vertex_multiplicity(n);
    let max_diam = ex
        .packing
        .trees
        .iter()
        .map(|tr| tr.diameter(n))
        .max()
        .unwrap_or(0);
    let logn = (n as f64).log2();
    t.row(&[
        name.to_string(),
        d(n),
        d(g.m()),
        d(k),
        d(packing.num_classes()),
        d(ex.packing.num_trees()),
        d(ex.invalid_classes.len()),
        d(mult),
        d(3 * packing.layout.layers()),
        f(ex.packing.size()),
        f(k as f64 / logn),
        d(max_diam),
    ]);
}

fn main() {
    let mut t = Table::new(
        "E1: dominating-tree packing (Thm 1.1/1.2)",
        &[
            "family",
            "n",
            "m",
            "k",
            "t",
            "valid",
            "invalid",
            "mult",
            "3L(bound)",
            "kappa",
            "k/log n",
            "maxdiam",
        ],
    );
    for &k in &[8usize, 16, 32, 64] {
        let n = (4 * k).max(64);
        let g = generators::harary(k, n);
        run_case(&mut t, "harary", &g, k, 1);
    }
    for &d_ in &[5u32, 6, 7] {
        let g = generators::hypercube(d_);
        run_case(&mut t, "hypercube", &g, d_ as usize, 2);
    }
    for &deg in &[8usize, 16] {
        let g = generators::random_regular(96, deg, 7);
        let k = decomp_graph::connectivity::vertex_connectivity(&g);
        run_case(&mut t, "rand-regular", &g, k, 3);
    }
    // Large-k regime where the fractional size exceeds 1 (k >> log n).
    let g = generators::harary(160, 320);
    run_case(&mut t, "harary-large", &g, 160, 4);
    t.print();

    // The κ > 1 regime needs t > 3L: many classes, few layers. This is the
    // k ≫ log n asymptotic the Ω(k/log n) bound describes.
    let mut t2 = Table::new(
        "E1b: fractional size κ > 1 (t > 3L regime)",
        &["n", "k", "t", "L", "valid", "mult", "kappa", "k/log n"],
    );
    for &(k, n, tcls) in &[(200usize, 400usize, 60usize), (400, 800, 100)] {
        let g = generators::harary(k, n);
        let cfg = decomp_core::cds::centralized::CdsPackingConfig {
            num_classes: tcls,
            layers_factor: 1.0,
            seed: 9,
        };
        let packing = cds_packing(&g, &cfg);
        let ex = to_dom_tree_packing(&g, &packing);
        t2.row(&[
            d(n),
            d(k),
            d(tcls),
            d(packing.layout.layers()),
            d(ex.packing.num_trees()),
            d(ex.packing.max_vertex_multiplicity(g.n())),
            f(ex.packing.size()),
            f(k as f64 / (n as f64).log2()),
        ]);
    }
    t2.print();
}
