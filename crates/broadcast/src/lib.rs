//! # decomp-broadcast
//!
//! Information-dissemination applications of connectivity decompositions
//! (paper Sections 1.3.1 and Appendix A):
//!
//! * [`gossip`] — all-to-all broadcast (gossiping) by assigning messages to
//!   random dominating trees and pipelining them up/down each tree
//!   (Appendix A, Corollary A.1); [`gossip::GossipConfig`] selects
//!   among the integral reading (uniform tree choice, greedy relaying),
//!   the fractional regime Theorem 1.1 actually proves
//!   (weight-proportional choice + weighted per-vertex time-sharing),
//!   and network coding;
//! * [`throughput`] — steady-state broadcast throughput along the trees of
//!   a packing, against the information-theoretic limits `k` / `⌈(λ−1)/2⌉`
//!   (Corollaries 1.4 / 1.5);
//! * [`oblivious`] — oblivious-routing broadcast congestion: the expected
//!   maximum vertex / edge congestion against the offline optimum
//!   (Corollary 1.6);
//! * [`rlnc`] — random linear network coding over GF(2⁸) (beyond the
//!   paper): the field algebra, the incremental-Gaussian-elimination
//!   decoder, and the coded gossip regime
//!   [`gossip::GossipConfig::Rlnc`] selects, where relays broadcast
//!   seeded-random combinations instead of forwarding along committed
//!   trees.
//!
//! All simulations here are *schedule-level*: trees and message
//! assignments come from `decomp-core` packings, and rounds are counted by
//! pipelined tree-broadcast scheduling (the standard telephone-model
//! analysis the paper invokes), not by re-running the CONGEST simulator —
//! the packing construction already paid its rounds there.

pub mod churn;
pub mod gossip;
pub mod gossip_distributed;
pub mod oblivious;
pub mod rlnc;
mod schedule;
pub mod throughput;
