//! E3 — Theorem 1.1: distributed CDS-packing round complexity, against
//! the paper's `O~(min{D + √n, n/k})` upper bound and the `Ω~(D + √n/k)`
//! lower bound (Theorem G.2).
//!
//! Measured rounds come from the label-propagation substitute for
//! Thurimella's component identification ("Known substitutions" in
//! `docs/PAPER_MAP.md`), so the columns
//! show both the measured simulator rounds and the charged theoretical
//! formulas evaluated on the same instance.

use decomp_bench::table::{d, f, Table};
use decomp_congest::{Model, Simulator};
use decomp_core::cds::centralized::CdsPackingConfig;
use decomp_core::cds::distributed::cds_packing_distributed;
use decomp_graph::{generators, traversal};

fn main() {
    let engine = decomp_bench::cli::engine_from_args();
    let mut t = Table::new(
        &format!("E3: distributed rounds (Thm 1.1) [engine={engine}]"),
        &[
            "family",
            "n",
            "D",
            "k",
            "rounds",
            "msgs",
            "D+sqrt(n)",
            "lb D+sqrt(n)/k",
        ],
    );
    let cases: Vec<(&str, decomp_graph::Graph, usize)> = vec![
        ("harary", generators::harary(8, 32), 8),
        ("harary", generators::harary(8, 64), 8),
        ("harary", generators::harary(8, 128), 8),
        ("harary", generators::harary(16, 128), 16),
        ("thickpath", generators::thick_path(4, 8), 4),
        ("thickpath", generators::thick_path(4, 16), 4),
        ("hypercube", generators::hypercube(6), 6),
    ];
    for (name, g, k) in cases {
        let n = g.n();
        let diam = traversal::diameter(&g).unwrap();
        let mut sim = Simulator::new(&g, Model::VCongest).with_engine(engine);
        let packing =
            cds_packing_distributed(&mut sim, &CdsPackingConfig::with_known_k(k, 3)).unwrap();
        assert!(packing.num_classes() >= 1);
        let stats = sim.stats();
        let sqrt_n = (n as f64).sqrt();
        t.row(&[
            name.to_string(),
            d(n),
            d(diam),
            d(k),
            d(stats.rounds),
            d(stats.messages),
            f(diam as f64 + sqrt_n),
            f(diam as f64 + sqrt_n / k as f64),
        ]);
    }
    t.print();
}
