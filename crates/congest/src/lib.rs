//! # decomp-congest
//!
//! A deterministic, synchronous message-passing simulator for the
//! **V-CONGEST** and **E-CONGEST** models of Censor-Hillel, Ghaffari &
//! Kuhn (PODC 2014), plus the distributed primitives their algorithms
//! build on.
//!
//! ## Models (paper, Section 1.2)
//!
//! * **V-CONGEST** — per round, each node sends *one* `O(log n)`-bit
//!   message to *all* of its neighbors (local broadcast; congestion sits in
//!   the vertices).
//! * **E-CONGEST** (the classical CONGEST model) — per round, one
//!   `O(log n)`-bit message may cross each *direction of each edge*.
//!
//! The simulator enforces the chosen model's constraints every round and
//! accounts rounds, messages, and words so experiments can report the
//! model-native cost measures the paper's theorems are stated in.
//!
//! ## Engines
//!
//! [`Simulator`] is a facade over a pluggable round-execution layer
//! ([`engine`]): the default [`engine::SequentialEngine`] single-threaded
//! loop, or the [`engine::ShardedEngine`] scoped-thread backend that
//! partitions nodes into contiguous shards and exchanges cross-shard
//! traffic through per-shard mailboxes under a round barrier. Engines are
//! **bit-for-bit equivalent** — identical outputs, RNG streams, and
//! [`RunStats`] for any shard count — so every downstream algorithm
//! scales across cores without changing its [`NodeProgram`]. Select one
//! with [`Simulator::with_engine`].
//!
//! ## Primitives
//!
//! * [`bfs`] — distributed BFS-tree construction (`O(D)` rounds),
//! * [`leader`] — leader election / global max-id flooding,
//! * [`aggregate`] — convergecast + broadcast over a BFS tree,
//! * [`components`] — connected-component identification of a marked
//!   subgraph by iterated min-label flooding,
//! * [`mst`] — distributed Borůvka-style minimum spanning tree.
//!
//! See `DESIGN.md` §3 for how these substitute for the Kutten–Peleg /
//! Thurimella black boxes the paper cites.
//!
//! # Example
//!
//! ```
//! use decomp_graph::generators;
//! use decomp_congest::{Simulator, Model};
//! use decomp_congest::bfs::distributed_bfs;
//!
//! let g = generators::cycle(8);
//! let mut sim = Simulator::new(&g, Model::VCongest);
//! let tree = distributed_bfs(&mut sim, 0).expect("connected");
//! assert_eq!(tree.dist[4], 4);
//! assert!(sim.stats().rounds >= 4);
//! ```

pub mod aggregate;
pub mod bfs;
pub mod broadcast;
pub mod components;
pub mod engine;
pub mod fault;
pub mod leader;
pub mod message;
pub mod mst;
pub mod multiflood;
pub mod sim;

pub use engine::{EngineKind, PartitionKind, RoundEngine, SequentialEngine, ShardedEngine};
pub use fault::{Fault, FaultPlan, FaultPlanError, FaultState, ScheduledFault};
pub use message::{Message, MsgView, INLINE_WORDS};
pub use sim::{Inbox, InboxIter, Model, NodeCtx, NodeProgram, RunStats, SimError, Simulator};
