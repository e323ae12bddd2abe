//! # decomp-testkit
//!
//! Deterministic test substrate shared by every integration suite in the
//! workspace. Three pieces:
//!
//! * [`fixtures`] — a fixed roster of seeded graph-family instances
//!   (Harary, random regular, hypercube, clustered/lollipop) with their
//!   exact vertex/edge connectivities computed once at construction, so
//!   every PR tests against the same instances with known ground truth;
//! * [`asserts`] — packing-invariant assertion helpers encoding the
//!   paper's guarantees (CDS packing validity, dominating-tree packing
//!   feasibility with the `Σ x_τ ≤ κ` cut bound, spanning-tree packing
//!   feasibility with the Tutte–Nash-Williams `Σ x_τ ≤ λ` bound);
//! * [`golden`] — a golden-value registry pinning deterministic outputs
//!   (class counts, packing sizes, round counts) so regressions in the
//!   seeded pipelines are caught as value drift, not just invariant
//!   violations.
//!
//! Everything here is deterministic: fixture seeds are compile-time
//! constants and all randomness flows through explicitly seeded
//! [`rand::rngs::StdRng`] streams, so two consecutive `cargo test` runs
//! produce identical results.

pub mod asserts;
pub mod fixtures;
pub mod golden;

use decomp_congest::{EngineKind, Model, Simulator};
use decomp_graph::Graph;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Canonical seeds the suites sweep; kept small so failures name a seed
/// that is cheap to replay.
pub const SEEDS: [u64; 3] = [1, 7, 23];

/// Floating-point tolerance used by every packing validation in the suites.
pub const TOL: f64 = 1e-9;

/// A deterministically seeded RNG for test-local randomness.
pub fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// The engine sweep the equivalence suites run: sequential plus the
/// sharded backend at 2 and 4 shards. Every entry must produce
/// bit-identical outputs and
/// statistics — modulo the `RunStats` locality split, which suites
/// normalize with `RunStats::locality_blind` (the `congest::engine`
/// determinism contract).
pub fn engines() -> Vec<EngineKind> {
    vec![
        EngineKind::Sequential,
        EngineKind::sharded(2),
        EngineKind::sharded(4),
    ]
}

/// The engine selected by the `DECOMP_ENGINE` environment variable
/// (`sequential`, `sharded`, or `sharded:<N>`), defaulting to
/// sequential. CI's engine-equivalence jobs rerun the simulator-driven
/// suites — golden registry included — under `DECOMP_ENGINE=sequential`
/// and `DECOMP_ENGINE=sharded:4`.
///
/// # Panics
/// Panics on an unparsable `DECOMP_ENGINE` value, so CI misconfiguration
/// fails loudly instead of silently testing the default engine.
pub fn engine_from_env() -> EngineKind {
    match std::env::var("DECOMP_ENGINE") {
        Ok(spec) => EngineKind::parse(&spec)
            .unwrap_or_else(|e| panic!("bad DECOMP_ENGINE environment variable: {e}")),
        Err(_) => EngineKind::Sequential,
    }
}

/// A simulator on the env-selected engine ([`engine_from_env`]).
/// Integration suites construct simulators through this helper so one
/// environment variable sweeps them across backends.
pub fn sim<'g>(graph: &'g Graph, model: Model) -> Simulator<'g> {
    Simulator::new(graph, model).with_engine(engine_from_env())
}
