//! Cross-validation of the distributed primitives against centralized
//! oracles over randomized instances (integration-level property tests).
//!
//! Randomness flows through `decomp_testkit::rng`, and the BFS round
//! counts on the fixture roster are pinned in the golden registry.

use connectivity_decomposition::congest::aggregate::{tree_aggregate, AggOp};
use connectivity_decomposition::congest::bfs::distributed_bfs;
use connectivity_decomposition::congest::broadcast::pipelined_broadcast;
use connectivity_decomposition::congest::components::component_labels;
use connectivity_decomposition::congest::mst::distributed_mst;
use connectivity_decomposition::congest::Model;
use connectivity_decomposition::graph::{generators, mst, traversal};
use decomp_testkit::{fixtures, golden};
use rand::Rng;

#[test]
fn bfs_matches_oracle_over_seeds() {
    for seed in 0..12 {
        let g = generators::random_connected(30, 15, seed);
        let reference = traversal::bfs(&g, (seed as usize) % g.n());
        let mut sim = decomp_testkit::sim(&g, Model::VCongest);
        let dist = distributed_bfs(&mut sim, (seed as usize) % g.n()).unwrap();
        assert_eq!(dist.dist, reference.dist, "seed {seed}");
    }
}

#[test]
fn bfs_rounds_on_fixtures_match_golden() {
    // Distributed BFS costs O(D) rounds and is deterministic per
    // instance; pin the exact counts on the roster.
    for f in fixtures::small() {
        let mut sim = decomp_testkit::sim(&f.graph, Model::VCongest);
        distributed_bfs(&mut sim, 0).unwrap();
        golden::check(&format!("{}/bfs0/rounds", f.name), sim.stats().rounds);
    }
}

#[test]
fn mst_matches_kruskal_over_seeds_and_models() {
    for seed in 0..8 {
        let g = generators::random_connected(18, 14, seed);
        let mut rng = decomp_testkit::rng(seed ^ 0xfeed);
        let weights: Vec<u64> = (0..g.m()).map(|_| rng.gen_range(0..500)).collect();
        let reference = mst::minimum_spanning_forest(&g, |e| weights[e] as f64);
        for model in [Model::VCongest, Model::ECongest] {
            let mut sim = decomp_testkit::sim(&g, model);
            let dist = distributed_mst(&mut sim, &weights).unwrap();
            assert_eq!(
                dist.edge_indices, reference.edge_indices,
                "seed {seed} {model:?}"
            );
        }
    }
}

#[test]
fn component_labels_match_oracle_on_random_subgraphs() {
    for seed in 0..8 {
        let g = generators::gnp(24, 0.2, seed);
        let mut rng = decomp_testkit::rng(seed);
        // Random vertex subset with random kept edges.
        let active: Vec<bool> = (0..g.n()).map(|_| rng.gen_bool(0.8)).collect();
        let keep_edge: Vec<bool> = (0..g.m()).map(|_| rng.gen_bool(0.7)).collect();
        let sub_neighbors: Vec<Vec<usize>> = (0..g.n())
            .map(|v| {
                g.neighbors(v)
                    .iter()
                    .copied()
                    .filter(|&u| active[u] && active[v] && keep_edge[g.edge_index(u, v).unwrap()])
                    .collect()
            })
            .collect();
        let init: Vec<u64> = (0..g.n() as u64).collect();
        let mut sim = decomp_testkit::sim(&g, Model::VCongest);
        let labels = component_labels(&mut sim, &active, &sub_neighbors, &init).unwrap();
        // Oracle: union-find over the same subgraph.
        let mut uf = connectivity_decomposition::graph::unionfind::UnionFind::new(g.n());
        for (v, neighbors) in sub_neighbors.iter().enumerate() {
            for &u in neighbors {
                uf.union(u, v);
            }
        }
        for u in 0..g.n() {
            for v in 0..g.n() {
                if active[u] && active[v] {
                    assert_eq!(
                        labels[u] == labels[v],
                        uf.same(u, v),
                        "seed {seed}: {u} vs {v}"
                    );
                }
            }
        }
    }
}

#[test]
fn aggregation_matches_direct_sums() {
    for seed in 0..6 {
        let g = generators::random_connected(22, 10, seed);
        let mut rng = decomp_testkit::rng(seed);
        let values: Vec<u64> = (0..g.n()).map(|_| rng.gen_range(0..1000)).collect();
        let mut sim = decomp_testkit::sim(&g, Model::VCongest);
        let tree = distributed_bfs(&mut sim, 0).unwrap();
        let sum = tree_aggregate(&mut sim, &tree, AggOp::Sum, &values).unwrap();
        assert_eq!(sum, values.iter().sum::<u64>());
        let max = tree_aggregate(&mut sim, &tree, AggOp::Max, &values).unwrap();
        assert_eq!(max, *values.iter().max().unwrap());
    }
}

#[test]
fn pipelined_broadcast_delivers_in_depth_plus_b() {
    for seed in 0..4 {
        let g = generators::random_connected(25, 12, seed);
        let mut sim = decomp_testkit::sim(&g, Model::VCongest);
        let tree = distributed_bfs(&mut sim, 0).unwrap();
        let payloads: Vec<u64> = (0..15).collect();
        let r = pipelined_broadcast(&mut sim, &tree, &payloads).unwrap();
        for v in 0..g.n() {
            assert_eq!(r.received[v], payloads, "seed {seed} node {v}");
        }
        assert!(r.rounds <= tree.depth() + payloads.len() + 4);
    }
}
