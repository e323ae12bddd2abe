//! Full-pipeline scale driver: CDS packing → tree extraction → gossip
//! protocol, at million-node scale, on a chosen engine.
//!
//! This is the measurement harness for the sharded engine's scaling
//! curves (BENCH_SIM.md "PR 7"): one process runs every stage of the
//! paper's pipeline on one instance and prints per-stage wall-clock
//! plus the engine's `RunStats` — including the `local_words` /
//! `cross_shard_words` locality split, which is the shard split's cut
//! measured on real delivered traffic (so shard counts can be compared
//! on the same workload).
//!
//! All-node gossip at n = 10⁶ is infeasible (10⁶ messages × 10⁶ nodes);
//! the dissemination stage instead injects `--msgs` messages from
//! evenly-spaced origins — enough traffic to exercise the mailbox plane
//! without making the experiment about the gossip schedule itself.
//!
//! ```text
//! cargo run --release --bin exp_pipeline -- \
//!     --n 1000000 --degree 8 --seed 1 --engine sharded:4 \
//!     --msgs 64 --family rr
//! ```
//!
//! Defaults: `--n 100000 --degree 8 --seed 1 --engine sequential
//! --msgs 64 --family rr`. `--family harary` builds the
//! `harary(degree, n)` circulant instead of a random-regular instance
//! (ids correlate with topology, the contiguous shard split's best
//! case; `rr` is its worst case).

use decomp_broadcast::gossip::GossipConfig;
use decomp_broadcast::gossip_distributed::gossip_protocol_on;
use decomp_congest::{EngineKind, Model, Simulator};
use decomp_core::cds::centralized::{cds_packing, CdsPackingConfig};
use decomp_core::cds::tree_extract::to_dom_tree_packing;
use decomp_graph::generators;
use std::time::Instant;

struct Args {
    n: usize,
    degree: usize,
    seed: u64,
    /// `--engine` takes a comma-separated list — the instance and the
    /// packing are built once and the dissemination stage sweeps the
    /// engines, so an n = 10⁶ scaling curve is one process.
    engines: Vec<EngineKind>,
    msgs: usize,
    family: String,
}

fn parse_args() -> Args {
    let mut args = Args {
        n: 100_000,
        degree: 8,
        seed: 1,
        engines: vec![EngineKind::Sequential],
        msgs: 64,
        family: "rr".into(),
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i + 1 < argv.len() {
        let (flag, val) = (argv[i].as_str(), argv[i + 1].as_str());
        match flag {
            "--n" => args.n = val.parse().expect("--n"),
            "--degree" => args.degree = val.parse().expect("--degree"),
            "--seed" => args.seed = val.parse().expect("--seed"),
            "--engine" => {
                args.engines = val
                    .split(',')
                    .map(|e| EngineKind::parse(e).expect("--engine"))
                    .collect()
            }
            "--msgs" => args.msgs = val.parse().expect("--msgs"),
            "--family" => args.family = val.into(),
            other => panic!("unknown flag {other}"),
        }
        i += 2;
    }
    args
}

fn main() {
    let a = parse_args();

    let t0 = Instant::now();
    let g = match a.family.as_str() {
        "rr" => generators::random_regular(a.n, a.degree, a.seed),
        "harary" => generators::harary(a.degree, a.n),
        other => panic!("unknown family {other} (rr | harary)"),
    };
    let t_gen = t0.elapsed().as_secs_f64();
    println!(
        "instance: {} n={} m={} degree={} seed={} ({t_gen:.1}s)",
        a.family,
        g.n(),
        g.m(),
        a.degree,
        a.seed
    );

    // Stage 1: CDS packing.
    let cfg = CdsPackingConfig::with_known_k(a.degree, a.seed);
    let t0 = Instant::now();
    let packing = cds_packing(&g, &cfg);
    let t_cds = t0.elapsed().as_secs_f64();
    let excess0 = packing.trace.first().map(|l| l.excess_before).unwrap_or(0);
    println!(
        "cds_packing: t={} layers={} excess0={excess0} final_excess={} ({t_cds:.1}s)",
        packing.num_classes(),
        packing.layout.layers(),
        packing.trace.last().map(|l| l.excess_after).unwrap_or(0),
    );

    // Stage 2: tree extraction.
    let t0 = Instant::now();
    let ex = to_dom_tree_packing(&g, &packing);
    let t_trees = t0.elapsed().as_secs_f64();
    println!(
        "tree_extract: trees={} invalid_classes={} ({t_trees:.1}s)",
        ex.packing.num_trees(),
        ex.invalid_classes.len()
    );
    assert!(
        ex.packing.num_trees() > 0,
        "pipeline needs at least one extracted tree"
    );

    // Stage 3: dissemination, swept over the requested engines on the
    // same instance and packing. Outputs are engine-independent (the
    // locality split aside); each line's digest-relevant columns must
    // therefore agree across engines.
    let origins: Vec<usize> = (0..a.msgs.min(g.n()))
        .map(|i| i * (g.n() / a.msgs.min(g.n()).max(1)))
        .collect();
    let mut blind_baseline: Option<(usize, usize)> = None;
    for &engine in &a.engines {
        let mut sim = Simulator::with_seed(&g, Model::VCongest, a.seed).with_engine(engine);
        let t0 = Instant::now();
        let r = gossip_protocol_on(
            &mut sim,
            &ex.packing,
            &origins,
            a.seed,
            GossipConfig::default(),
        )
        .expect("gossip protocol completes");
        let t_gossip = t0.elapsed().as_secs_f64();
        assert!(r.complete, "all origins must reach all nodes");
        let s = &r.stats;
        match blind_baseline {
            None => blind_baseline = Some((s.rounds, s.words)),
            Some(base) => assert_eq!(
                (s.rounds, s.words),
                base,
                "{engine}: rounds/words must be engine-independent"
            ),
        }
        println!(
            "gossip[{engine}]: msgs={} rounds={} words={} local_words={} cross_shard_words={} \
             ({:.1}% cross) peak_arena_words={} ({t_gossip:.1}s)",
            origins.len(),
            s.rounds,
            s.words,
            s.local_words,
            s.cross_shard_words,
            100.0 * s.cross_shard_words as f64 / s.words.max(1) as f64,
            s.peak_arena_words,
        );
    }

    println!(
        "stages: gen {t_gen:.1}s + cds {t_cds:.1}s + trees {t_trees:.1}s \
         (+ per-engine gossip above)"
    );
}
