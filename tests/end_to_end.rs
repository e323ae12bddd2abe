//! End-to-end integration: decomposition → verification → dissemination,
//! across crates (graph substrate, core algorithms, broadcast apps),
//! running on testkit fixtures with oracle-known connectivity.

use connectivity_decomposition::broadcast::gossip::{gossip_via_trees_with, GossipConfig};
use connectivity_decomposition::broadcast::gossip_distributed::gossip_protocol_on;
use connectivity_decomposition::broadcast::oblivious::vertex_congestion;
use connectivity_decomposition::broadcast::throughput::edge_throughput;
use connectivity_decomposition::congest::Model;
use connectivity_decomposition::core::cds::centralized::{cds_packing, CdsPackingConfig};
use connectivity_decomposition::core::cds::tree_extract::to_dom_tree_packing;
use connectivity_decomposition::core::cds::verify::{
    membership_of, verify_centralized, verify_distributed, VerifyOutcome,
};
use connectivity_decomposition::core::stp::mwu::{fractional_stp_mwu, MwuConfig};
use connectivity_decomposition::graph::generators;
use decomp_testkit::{asserts, fixtures, TOL};

fn fixture(name: &str) -> decomp_testkit::fixtures::Fixture {
    fixtures::standard()
        .into_iter()
        .find(|f| f.name == name)
        .unwrap_or_else(|| panic!("fixture {name} missing from roster"))
}

#[test]
fn vertex_pipeline_harary() {
    let f = fixture("harary_k12_n48");
    assert_eq!(f.kappa, 12);

    // Decompose.
    let packing = cds_packing(&f.graph, &CdsPackingConfig::with_known_k(f.kappa, 4));
    // Verify (both testers agree).
    assert_eq!(
        verify_centralized(&f.graph, &packing.classes),
        VerifyOutcome::Pass
    );
    let membership = membership_of(&packing.classes, f.graph.n());
    let mut sim = decomp_testkit::sim(&f.graph, Model::VCongest);
    assert_eq!(
        verify_distributed(&mut sim, &membership, packing.num_classes(), 1).unwrap(),
        VerifyOutcome::Pass
    );
    // Extract and validate trees (includes the kappa cut bound).
    let trees = to_dom_tree_packing(&f.graph, &packing);
    assert!(trees.invalid_classes.is_empty());
    asserts::assert_dom_tree_packing_feasible(&f.graph, &trees, f.kappa, &f.name);

    // Disseminate.
    let origins: Vec<usize> = (0..f.graph.n()).collect();
    let config = GossipConfig::default();
    let gossip = gossip_via_trees_with(&f.graph, &trees.packing, &origins, 2, config);
    assert_eq!(gossip.num_messages, f.graph.n());

    // Oblivious congestion sane.
    let cong = vertex_congestion(&f.graph, &trees.packing, f.kappa, 1000, 3);
    assert!(cong.max_congestion >= cong.opt_lower_bound);
}

#[test]
fn schedule_and_protocol_draw_the_same_assignment() {
    // The schedule and the protocol assign message `i` to a tree from
    // the same seeded draw, so their per-tree loads agree exactly, for
    // both the uniform and the weight-proportional tree choice.
    for f in fixtures::standard() {
        let g = &f.graph;
        let n = g.n();
        let cds = cds_packing(g, &CdsPackingConfig::with_known_k(f.kappa.max(2), 4));
        let packing = to_dom_tree_packing(g, &cds).packing;
        let origins: Vec<usize> = (0..2 * n).map(|i| (i * 7) % n).collect();
        for config in [GossipConfig::default(), GossipConfig::weighted()] {
            for seed in [1u64, 7] {
                let schedule = gossip_via_trees_with(g, &packing, &origins, seed, config);
                assert_eq!(schedule.lost_messages, 0, "{} seed {seed}", f.name);
                let mut sim = decomp_testkit::sim(g, Model::VCongest);
                let protocol = gossip_protocol_on(&mut sim, &packing, &origins, seed, config)
                    .unwrap_or_else(|e| panic!("{} seed {seed}: {e}", f.name));
                assert!(protocol.complete, "{} seed {seed} {config:?}", f.name);
                assert_eq!(
                    schedule.per_tree_load, protocol.per_tree_load,
                    "{} seed {seed} {config:?}",
                    f.name
                );
            }
        }
    }
}

#[test]
fn edge_pipeline_harary() {
    let f = fixture("harary_k8_n40");
    assert_eq!(f.lambda, 8);
    let report = fractional_stp_mwu(&f.graph, f.lambda, &MwuConfig::default());
    let eps = MwuConfig::default().epsilon;
    asserts::assert_span_tree_packing_feasible(
        &f.graph,
        &report.packing,
        f.lambda,
        (f.lambda as f64) / 2.0 * (1.0 - eps),
        &f.name,
    );
    let tput = edge_throughput(&f.graph, &report.packing, f.lambda);
    assert!(tput.messages_per_round >= tput.tutte_nash_williams as f64 * (1.0 - eps));
    assert!(tput.messages_per_round <= f.lambda as f64);
}

#[test]
fn invalid_packings_rejected_end_to_end() {
    // A deliberately broken "packing": one class that misses domination.
    let g = generators::star(8);
    let classes = vec![vec![1usize], vec![0usize]];
    assert_eq!(
        verify_centralized(&g, &classes),
        VerifyOutcome::DominationFailure
    );
    let membership = membership_of(&classes, g.n());
    let mut sim = decomp_testkit::sim(&g, Model::VCongest);
    assert_eq!(
        verify_distributed(&mut sim, &membership, 2, 5).unwrap(),
        VerifyOutcome::DominationFailure
    );
}

#[test]
fn unknown_k_pipeline() {
    let f = fixture("hypercube_d5");
    let r = connectivity_decomposition::core::cds::guess::cds_packing_unknown_k(&f.graph, 9);
    assert_eq!(
        verify_centralized(&f.graph, &r.packing.classes),
        VerifyOutcome::Pass
    );
    let trees = to_dom_tree_packing(&f.graph, &r.packing);
    trees.packing.validate(&f.graph, TOL).unwrap();
    assert!(trees.packing.size() <= f.kappa as f64 + TOL);
}
