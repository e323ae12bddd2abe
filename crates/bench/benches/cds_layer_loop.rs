//! Criterion bench: the centralized CDS-packing layer loop at scale.
//!
//! This is the measurement harness for the ROADMAP's "perf sweep of
//! `cds::centralized`" item: `cds_packing` swept over Harary and
//! random-regular instances at n ∈ {10³, 10⁴, 10⁵}. The layer loop
//! dominates the runtime (the jump start is one draw per virtual node
//! and one union sweep per class stride; the projection is a linear
//! scan), so the whole-construction wall clock tracks the loop itself.
//!
//! Track results in `BENCH_CDS.md` at the workspace root; the incremental
//! `ClassState` rewrite is validated bit-identical elsewhere (golden
//! registry + `distributed_vs_centralized`), so numbers here compare
//! wall-clock only.
//!
//! One row times Theorem 1.1's distributed packing
//! (`cds_packing_distributed`, Appendix B) on the one-shard simulator.
//!
//! `CDS_BENCH_MAX_N` (optional) caps the swept instance size, e.g.
//! `CDS_BENCH_MAX_N=10000` for a quick local run.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use decomp_congest::{Model, Simulator};
use decomp_core::cds::centralized::{cds_packing, CdsPackingConfig};
use decomp_core::cds::distributed::cds_packing_distributed;
use decomp_graph::{generators, Graph};

const SEED: u64 = 5;

fn max_n() -> usize {
    std::env::var("CDS_BENCH_MAX_N")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(usize::MAX)
}

/// Samples per instance size: large instances get fewer (medians of a
/// handful are stable — the construction is deterministic per seed).
fn samples_for(n: usize) -> usize {
    match n {
        0..=1_000 => 10,
        1_001..=10_000 => 5,
        _ => 2,
    }
}

fn bench_family(c: &mut Criterion, family: &str, k: usize, instances: &[(usize, Graph)]) {
    let mut group = c.benchmark_group("cds_layer_loop");
    for (n, g) in instances {
        group.sample_size(samples_for(*n));
        group.bench_with_input(
            BenchmarkId::new(family, format!("n{n}_k{k}_m{}", g.m())),
            g,
            |b, g| {
                b.iter(|| cds_packing(g, &CdsPackingConfig::with_known_k(k, SEED)));
            },
        );
    }
    group.finish();
}

fn bench_harary(c: &mut Criterion) {
    let k = 16;
    let instances: Vec<(usize, Graph)> = [1_000usize, 10_000, 100_000]
        .into_iter()
        .filter(|&n| n <= max_n())
        .map(|n| (n, generators::harary(k, n)))
        .collect();
    bench_family(c, "harary", k, &instances);
}

fn bench_random_regular(c: &mut Criterion) {
    let d = 16;
    let instances: Vec<(usize, Graph)> = [1_000usize, 10_000, 100_000]
        .into_iter()
        .filter(|&n| n <= max_n())
        .map(|n| (n, generators::random_regular(n, d, SEED)))
        .collect();
    // Random d-regular graphs are d-connected w.h.p.; the config treats
    // d as the connectivity estimate (t = d/4 classes).
    bench_family(c, "random_regular", d, &instances);
}

/// The fragmented regime: many classes relative to the connectivity
/// (`t = 24 ≫ k/4`) keep classes split after the jump start, so every
/// recursive layer runs deactivation, bridging and matching (steps
/// 2a–3), not only coin flips.
fn bench_fragmented(c: &mut Criterion) {
    let (k, t) = (6, 24);
    let n = 20_000.min(max_n());
    let g = generators::harary(k, n);
    let cfg = CdsPackingConfig::with_classes(t, SEED);
    let mut group = c.benchmark_group("cds_layer_loop");
    group.sample_size(5);
    group.bench_function(&format!("fragmented_harary/n{n}_k{k}_t{t}"), |b| {
        b.iter(|| cds_packing(&g, &cfg))
    });
    group.finish();
}

/// The distributed packing on rr(16 000, 8) with `k = 8` at seed 1 (the
/// ROADMAP ledger's row). One untimed run first pins its rounds and
/// messages, so a timing always belongs to the same protocol run.
fn bench_distributed(c: &mut Criterion) {
    let (n, d) = (16_000, 8);
    if n > max_n() {
        return;
    }
    let g = generators::random_regular(n, d, 1);
    let cfg = CdsPackingConfig::with_known_k(d, 1);
    let run = || {
        let mut sim = Simulator::new(&g, Model::VCongest);
        cds_packing_distributed(&mut sim, &cfg).expect("the floods quiesce");
        sim.stats()
    };
    let stats = run();
    assert_eq!(
        (stats.rounds, stats.messages),
        (294, 17_347_344),
        "rr(16 000, 8) at seed 1 runs 294 rounds and 17 347 344 messages"
    );
    let mut group = c.benchmark_group("cds_layer_loop");
    group.sample_size(2);
    group.bench_function(&format!("distributed/rr_n{n}_d{d}_k{d}"), |b| b.iter(run));
    group.finish();
}

criterion_group!(
    benches,
    bench_harary,
    bench_random_regular,
    bench_fragmented,
    bench_distributed
);
criterion_main!(benches);
