//! Prints an FNV digest of `cds_packing` outputs on a fixed instance
//! roster — the bit-identity reference for perf work on the layer loop —
//! and then of `cds_packing_distributed` (Theorem 1.1) outputs, with
//! their rounds and messages, on two small fragmented instances. CI
//! diffs the output against `.github/cds-digests.txt`. The digest is
//! `decomp_testkit::golden::cds_digest`; the golden registry pins the
//! six fragmented `cds_packing` rows, so `cargo test` checks them too.
//!
//! Only `harary_k6_n2000_t24` and `gnm_n2000_m6000_t16` leave classes
//! fragmented after the jump start (nonzero `excess0`), so only they run
//! the deactivation, bridging and matching steps. The other five stay in
//! the jump-start regime: every class is connected from the first
//! recursive layer on, and each packing is a pure function of the RNG
//! stream, `n`, `t` and the layer count. So `harary_k16_n1000_t4` and
//! `rr_n1000_d16_t4`, which share all four, print the same digest at
//! every seed.
//!
//! The `distributed/` rows keep classes split after the jump start too,
//! so type-2 nodes propose over bridging lists naming several
//! components, and the order of those lists decides the proposal draws.

use decomp_congest::{Model, Simulator};
use decomp_core::cds::centralized::{cds_packing, CdsPackingConfig};
use decomp_core::cds::distributed::cds_packing_distributed;
use decomp_graph::generators;
use decomp_testkit::golden::cds_digest;

fn main() {
    // (name, graph, explicit class count t). Large t relative to the
    // connectivity leaves classes fragmented after the jump start, so the
    // deactivation/bridging/matching machinery genuinely runs.
    let cases: Vec<(String, decomp_graph::Graph, usize)> = vec![
        (
            "harary_k16_n1000_t4".into(),
            generators::harary(16, 1000),
            4,
        ),
        (
            "rr_n1000_d16_t4".into(),
            generators::random_regular(1000, 16, 5),
            4,
        ),
        (
            "harary_k6_n2000_t24".into(),
            generators::harary(6, 2000),
            24,
        ),
        (
            "rr_n1500_d8_t16".into(),
            generators::random_regular(1500, 8, 5),
            16,
        ),
        ("hypercube_d9_t8".into(), generators::hypercube(9), 8),
        (
            "gnm_n500_m4000_t12".into(),
            generators::gnm(500, 4000, 7),
            12,
        ),
        (
            "gnm_n2000_m6000_t16".into(),
            generators::gnm(2000, 6000, 7),
            16,
        ),
    ];
    for (name, g, t) in cases {
        for seed in [1u64, 5, 42] {
            let p = cds_packing(&g, &CdsPackingConfig::with_classes(t, seed));
            let matched: usize = p.trace.iter().map(|l| l.matched).sum();
            let deact: usize = p.trace.iter().map(|l| l.deactivated).sum();
            let excess0 = p.trace.first().map(|l| l.excess_before).unwrap_or(0);
            println!(
                "{name}/s{seed}: {:#018x} (excess0 {excess0}, matched {matched}, deactivated {deact})",
                cds_digest(&p)
            );
        }
    }
    let distributed: Vec<(&str, decomp_graph::Graph, usize)> = vec![
        ("gnm_n300_m900_t16", generators::gnm(300, 900, 7), 16),
        ("harary_k6_n200_t24", generators::harary(6, 200), 24),
    ];
    for (name, g, t) in distributed {
        for seed in [1u64, 5, 42] {
            let mut sim = Simulator::new(&g, Model::VCongest);
            let p = cds_packing_distributed(&mut sim, &CdsPackingConfig::with_classes(t, seed))
                .expect("the floods quiesce");
            let matched: usize = p.trace.iter().map(|l| l.matched).sum();
            let stats = sim.stats();
            println!(
                "distributed/{name}/s{seed}: {:#018x} (rounds {}, messages {}, matched {matched})",
                cds_digest(&p),
                stats.rounds,
                stats.messages
            );
        }
    }
}
