//! # decomp-bench
//!
//! Experiment harness for the reproduction: one `exp_*` binary per
//! paper claim (`src/bin/`), plus criterion benches for runtime scaling.
//!
//! Run an experiment with e.g.
//! `cargo run --release -p decomp-bench --bin exp_cds_packing`.
//!
//! Simulator-driven experiments accept `--engine
//! <sequential|sharded[:N]>` (or the `DECOMP_ENGINE` environment
//! variable) to select the round-execution backend; outputs are
//! engine-independent by the determinism contract of
//! `decomp_congest::engine`.

pub mod cli;
pub mod packings;
pub mod table;
