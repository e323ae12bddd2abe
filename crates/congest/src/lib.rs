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
//! [`Simulator`] runs its rounds on one round loop ([`engine`]) that
//! splits nodes into contiguous id ranges (shards), steps shard 0 on the
//! calling thread and every other shard on a scoped worker, and
//! exchanges cross-shard traffic through per-shard mailboxes under a
//! round barrier. [`EngineKind`] picks the shard count: the default
//! `Sequential` is the one-shard run (no thread spawned), `Sharded`
//! takes any count. Every shard count is **bit-for-bit equivalent** —
//! identical outputs, RNG streams, and [`RunStats`] (locality split
//! aside) — so every downstream algorithm scales across cores without
//! changing its [`NodeProgram`]. Select one with
//! [`Simulator::with_engine`].
//!
//! ## Primitives
//!
//! * [`bfs`] — distributed BFS-tree construction (`O(D)` rounds),
//! * [`aggregate`] — convergecast + broadcast over a BFS tree,
//! * [`broadcast`] — pipelined broadcast of `b` messages down a tree,
//! * [`components`] — connected-component identification of a marked
//!   subgraph by iterated min-label flooding,
//! * [`multiflood`] — per-key component-wide min/max floods (the
//!   Appendix B pipeline's workhorse),
//! * [`mst`] — distributed Borůvka-style minimum spanning tree.
//!
//! [`fault`] schedules vertex and edge deletions and arrivals that both
//! engines apply mid-run. The "Known substitutions" section of
//! `docs/PAPER_MAP.md` lists how these primitives stand in for the
//! Kutten–Peleg / Thurimella black boxes the paper cites.
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
pub mod message;
pub mod mst;
pub mod multiflood;
pub mod sim;

pub use engine::EngineKind;
pub use fault::{Fault, FaultPlan, FaultPlanError, FaultState, ScheduledFault};
pub use message::{Message, MsgView, INLINE_WORDS};
pub use sim::{Inbox, InboxIter, Model, NodeCtx, NodeProgram, RunStats, SimError, Simulator};
