//! # decomp-graph
//!
//! Graph substrate for the connectivity-decomposition reproduction of
//! Censor-Hillel, Ghaffari & Kuhn, *Distributed Connectivity Decomposition*
//! (PODC 2014).
//!
//! This crate provides everything the paper's algorithms assume of the
//! underlying graph machinery:
//!
//! * a compact undirected [`Graph`] representation with a builder,
//! * a [`growable`] topology view ([`GrowableGraph`] /
//!   [`TopologyView`]): epoch-stamped edge activation over a CSR base,
//!   for engines running on graphs that grow mid-run,
//! * graph [`generators`] covering all families used in the experiments
//!   (Harary graphs, random regular graphs, `G(n,p)`, hypercubes, the
//!   clique-plus-triples counterexample, diameter-controlled families, ...),
//! * classical algorithms: [`traversal`] (BFS/components/diameter),
//!   [`mst`] (Kruskal), [`flow`] (Dinic), exact edge/vertex
//!   [`connectivity`] (the ground-truth `λ` and `k`), [`domination`]
//!   checks, and Karger edge [`sample`] splitting,
//! * a [`unionfind`] disjoint-set forest.
//!
//! # Example
//!
//! ```
//! use decomp_graph::generators;
//! use decomp_graph::connectivity;
//!
//! // A Harary graph H_{4,16} is exactly 4-connected.
//! let g = generators::harary(4, 16);
//! assert_eq!(connectivity::vertex_connectivity(&g), 4);
//! assert_eq!(connectivity::edge_connectivity(&g), 4);
//! ```

pub mod connectivity;
pub mod domination;
pub mod flow;
pub mod generators;
pub mod graph;
pub mod growable;
pub mod mst;
pub mod sample;
pub mod traversal;
pub mod unionfind;

pub use graph::{Graph, GraphBuilder, NodeId};
pub use growable::{GrowableGraph, TopologyView};
