//! Scenario: all-to-all state dissemination in a redundant fabric.
//!
//! A "thick path" models a row of racks: each rack is a clique of `k`
//! switches, consecutive racks are fully cross-wired, so the fabric is
//! exactly `k`-vertex-connected but has large diameter — the regime where
//! a single spanning tree bottlenecks and the dominating-tree packing
//! parallelizes dissemination (Appendix A).
//!
//! Run with `cargo run --release --example gossip_datacenter`.

use connectivity_decomposition::broadcast::gossip::{
    gossip_single_tree_baseline, gossip_via_trees_with, GossipConfig,
};
use connectivity_decomposition::core::cds::centralized::{cds_packing, CdsPackingConfig};
use connectivity_decomposition::core::cds::tree_extract::to_dom_tree_packing;
use connectivity_decomposition::graph::{connectivity, generators, traversal};

fn main() {
    let k = 8;
    let racks = 10;
    let g = generators::thick_path(k, racks);
    let n = g.n();
    println!(
        "fabric: {racks} racks x {k} switches = {n} nodes, m = {}, k = {}, diameter = {}",
        g.m(),
        connectivity::vertex_connectivity(&g),
        traversal::diameter(&g).unwrap(),
    );

    // Build the decomposition and extract the trees.
    let packing = cds_packing(&g, &CdsPackingConfig::with_known_k(k, 7));
    let trees = to_dom_tree_packing(&g, &packing);
    println!(
        "decomposition: {} dominating trees (invalid classes: {})",
        trees.packing.num_trees(),
        trees.invalid_classes.len(),
    );

    // Every switch announces its state to everyone (classical gossiping).
    let origins: Vec<usize> = (0..n).collect();
    let multi = gossip_via_trees_with(&g, &trees.packing, &origins, 3, GossipConfig::default());
    let single = gossip_single_tree_baseline(&g, &origins, 3);
    println!(
        "gossip of {n} messages: {} rounds via the packing vs {} rounds via one BFS tree",
        multi.rounds, single.rounds,
    );
    println!(
        "per-tree load: {:?}, largest tree diameter: {}",
        multi.per_tree_load, multi.max_tree_diameter,
    );
}
