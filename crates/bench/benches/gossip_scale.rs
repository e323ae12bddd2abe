//! Criterion bench: the Appendix-A gossip schedule at scale.
//!
//! All-node gossip (one message per node) on random-regular and Harary
//! instances at n = 10⁴, plus a one-shot n = 10⁵ completion check — the
//! workload the bitset/worklist rewrite of `broadcast::gossip` exists
//! for. Two packing regimes per family:
//!
//! * **CDS-constructed** — `cds_packing` → `to_dom_tree_packing`, the
//!   paper's construction (classes overlap heavily at these scales, so
//!   this is the member-dense stress case);
//! * **disjoint ring paths** (Harary only) — `k/2` vertex-disjoint
//!   dominating paths (stride-`k/2` residue classes of the circulant),
//!   the Corollary 1.4 / A.1 regime of genuinely disjoint trees.
//!
//! Alongside wall-clock the harness prints the schedule's
//! `peak_state_words` (packed bitsets + relay heaps; the pre-rewrite
//! implementation held `2 · nmsg · n` bytes of `Vec<Vec<bool>>` tables)
//! and, for the simulator-driven protocol variant, the engine's
//! `RunStats` peak-memory counters (`peak_queued_messages`,
//! `peak_arena_words`). Track results in `BENCH_SIM.md`.
//!
//! A full run takes ~15 minutes on the CI container — the n = 10⁵
//! completion check dominates (it exists to prove the workload fits in
//! memory at all; the old tables needed ~20 GB and an `O(nmsg · n)`
//! scan per round).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use decomp_broadcast::gossip::{gossip_via_trees_with, GossipConfig, GossipReport};
use decomp_broadcast::gossip_distributed::gossip_protocol_on;
use decomp_congest::{EngineKind, Model, Simulator};
use decomp_core::cds::centralized::{cds_packing, CdsPackingConfig};
use decomp_core::cds::tree_extract::to_dom_tree_packing;
use decomp_core::packing::{DomTreePacking, WeightedDomTree};
use decomp_graph::{generators, Graph};
use std::time::Instant;

const DEGREE: usize = 16;

fn cds_derived_packing(g: &Graph, k: usize, seed: u64) -> DomTreePacking {
    let p = cds_packing(g, &CdsPackingConfig::with_known_k(k, seed));
    let ex = to_dom_tree_packing(g, &p);
    assert!(ex.invalid_classes.is_empty(), "CDS classes must extract");
    ex.packing
        .validate(g, 1e-9)
        .expect("extracted packing must be feasible");
    ex.packing
}

/// `k/2` vertex-disjoint dominating paths on `harary(k, n)`: path `j`
/// visits the vertices `≡ j (mod k/2)` in ring order (consecutive
/// members differ by `k/2`, an edge of the circulant; every vertex is
/// within `k/4 ≤ k/2` ring positions of each residue class, so each
/// path dominates). This is the disjoint-tree regime of Corollary 1.4.
/// Weights come from the same `1/max-multiplicity` rule
/// `to_dom_tree_packing` applies (here 1.0 — the paths are disjoint),
/// so the hand-built packing is a feasible fractional packing, not just
/// a tree list with placeholder weights.
fn disjoint_ring_paths(g: &Graph, k: usize) -> DomTreePacking {
    let n = g.n();
    let stride = k / 2;
    assert!(n.is_multiple_of(stride), "n must be a multiple of k/2");
    let trees = (0..stride)
        .map(|j| WeightedDomTree {
            id: j,
            weight: 1.0,
            edges: (0..n / stride - 1)
                .map(|i| (j + stride * i, j + stride * (i + 1)))
                .collect(),
            singleton: None,
        })
        .collect();
    let mut packing = DomTreePacking { trees };
    packing.assign_uniform_feasible_weights(n);
    packing.validate(g, 1e-9).unwrap();
    packing
}

fn all_node_gossip_with(
    g: &Graph,
    packing: &DomTreePacking,
    seed: u64,
    config: GossipConfig,
) -> GossipReport {
    let origins: Vec<usize> = (0..g.n()).collect();
    let r = gossip_via_trees_with(g, packing, &origins, seed, config);
    assert_eq!(r.num_messages, g.n());
    r
}

fn all_node_gossip(g: &Graph, packing: &DomTreePacking, seed: u64) -> GossipReport {
    all_node_gossip_with(g, packing, seed, GossipConfig::default())
}

fn report_memory(label: &str, n: usize, r: &GossipReport) {
    // The pre-bitset implementation: received + relayed Vec<Vec<bool>>.
    let old_table_words = 2 * r.num_messages * n / 8;
    println!(
        "{label}: rounds={} peak_state_words={} (old bool tables ≈ {} words, {:.1}×)",
        r.rounds,
        r.peak_state_words,
        old_table_words,
        old_table_words as f64 / r.peak_state_words as f64
    );
}

fn bench_gossip_scale(c: &mut Criterion) {
    // One-shot scale check first: all-node gossip at n = 10⁵ must
    // complete in-memory (the old O(nmsg · n) tables would need ~20 GB
    // and a per-round full scan; see BENCH_SIM.md).
    {
        let n = 100_000;
        let g = generators::harary(DEGREE, n);
        let packing = disjoint_ring_paths(&g, DEGREE);
        let t0 = Instant::now();
        let r = all_node_gossip(&g, &packing, 7);
        println!(
            "scale_check harary_k16_n100k/disjoint8: {:.1}s wall-clock",
            t0.elapsed().as_secs_f64()
        );
        report_memory("scale_check harary_k16_n100k/disjoint8", n, &r);
    }

    let n = 10_000;
    let harary = generators::harary(DEGREE, n);
    let rr = generators::random_regular(n, DEGREE, 1);
    let harary_cds = cds_derived_packing(&harary, DEGREE, 5);
    let rr_cds = cds_derived_packing(&rr, DEGREE, 5);
    let harary_disjoint = disjoint_ring_paths(&harary, DEGREE);

    // Memory numbers once per workload (deterministic per seed, so the
    // timed iterations below reproduce them exactly).
    let harary_cds_uniform = all_node_gossip(&harary, &harary_cds, 7);
    let rr_cds_uniform = all_node_gossip(&rr, &rr_cds, 7);
    report_memory("harary_k16_n10k/cds", n, &harary_cds_uniform);
    report_memory("rr_n10k_d16/cds", n, &rr_cds_uniform);
    report_memory(
        "harary_k16_n10k/disjoint8",
        n,
        &all_node_gossip(&harary, &harary_disjoint, 7),
    );

    // Weighted-vs-uniform on the CDS-constructed packings at small k —
    // the fractional regime of Theorem 1.1: trees overlap in almost
    // every vertex, so the weighted credit scheduler time-shares relay
    // slots instead of serving the globally lowest-indexed message.
    // Track the round counts in BENCH_SIM.md.
    for (label, g, packing, uniform) in [
        (
            "harary_k16_n10k/cds",
            &harary,
            &harary_cds,
            &harary_cds_uniform,
        ),
        ("rr_n10k_d16/cds", &rr, &rr_cds, &rr_cds_uniform),
    ] {
        let weighted = all_node_gossip_with(g, packing, 7, GossipConfig::weighted());
        println!(
            "{label}: uniform/greedy rounds={} vs weighted rounds={} \
             (peak_state_words {} vs {})",
            uniform.rounds, weighted.rounds, uniform.peak_state_words, weighted.peak_state_words
        );
        // The coded regime on the random-regular workload: no tree
        // commitment at all — relays broadcast random GF(2⁸)
        // combinations per generation. `wasted_bandwidth` counts
        // non-innovative deliveries, the redundancy price coding pays
        // for never convoying behind a committed tree. Skipped on the
        // harary circulant: its poor expansion makes uniform-generation
        // coded relaying mix far too slowly at this scale (each relay
        // splits one broadcast across ~625 live generations, so per-
        // generation frontiers crawl the ring) — see BENCH_SIM.md PR 8.
        if label.starts_with("rr_") {
            let rlnc = all_node_gossip_with(g, packing, 7, GossipConfig::rlnc(16, 7));
            println!(
                "{label}: rlnc(g=16) rounds={} wasted_bandwidth={} peak_state_words={}",
                rlnc.rounds, rlnc.wasted_bandwidth, rlnc.peak_state_words
            );
        }
    }

    let mut group = c.benchmark_group("gossip_scale");
    group.sample_size(2);
    for (label, g, packing, config) in [
        (
            "harary_k16_n10k/cds",
            &harary,
            &harary_cds,
            GossipConfig::default(),
        ),
        (
            "harary_k16_n10k/cds/weighted",
            &harary,
            &harary_cds,
            GossipConfig::weighted(),
        ),
        ("rr_n10k_d16/cds", &rr, &rr_cds, GossipConfig::default()),
        (
            "rr_n10k_d16/cds/weighted",
            &rr,
            &rr_cds,
            GossipConfig::weighted(),
        ),
        (
            "rr_n10k_d16/cds/rlnc",
            &rr,
            &rr_cds,
            GossipConfig::rlnc(16, 7),
        ),
        (
            "harary_k16_n10k/disjoint8",
            &harary,
            &harary_disjoint,
            GossipConfig::default(),
        ),
    ] {
        group.bench_with_input(
            BenchmarkId::new("all_node", label),
            &(g, packing),
            |b, (g, packing)| b.iter(|| all_node_gossip_with(g, packing, 7, config).rounds),
        );
    }
    group.finish();

    // The same dissemination as a real V-CONGEST protocol on the
    // simulator, swept across engines: prints the peak-memory counters
    // (the inbox arena is the structure the zero-allocation message
    // plane added) and the locality split (`local_words` /
    // `cross_shard_words` — the shard split's cut measured on delivered
    // protocol traffic; sequential reports all-local by definition).
    // One message per 8th node keeps this a side-check, not a second
    // multi-minute workload.
    let origins: Vec<usize> = (0..n).step_by(8).collect();
    for engine in [EngineKind::Sequential, EngineKind::sharded(4)] {
        let mut sim = Simulator::with_seed(&harary, Model::VCongest, 7).with_engine(engine);
        let t0 = Instant::now();
        let protocol = gossip_protocol_on(
            &mut sim,
            &harary_disjoint,
            &origins,
            7,
            GossipConfig::default(),
        )
        .expect("protocol completes");
        assert!(protocol.complete);
        println!(
            "protocol harary_k16_n10k/disjoint8 (n/8 msgs) [{engine}]: {:.1}s wall-clock \
             rounds={} peak_queued_messages={} peak_arena_words={} \
             local_words={} cross_shard_words={} ({:.1}% cross)",
            t0.elapsed().as_secs_f64(),
            protocol.stats.rounds,
            protocol.stats.peak_queued_messages,
            protocol.stats.peak_arena_words,
            protocol.stats.local_words,
            protocol.stats.cross_shard_words,
            100.0 * protocol.stats.cross_shard_words as f64 / protocol.stats.words.max(1) as f64,
        );
    }
}

criterion_group!(benches, bench_gossip_scale);
criterion_main!(benches);
