//! Property-style integration tests: the CDS pipeline's invariants must
//! hold across graph families, class counts, and seeds.
//!
//! Families, seeds, invariant checks, and golden values all come from
//! `decomp-testkit`, so every PR exercises the same deterministic
//! instances.

use connectivity_decomposition::core::cds::centralized::{cds_packing, CdsPackingConfig};
use connectivity_decomposition::core::cds::class_state::ClassState;
use connectivity_decomposition::core::cds::tree_extract::to_dom_tree_packing;
use connectivity_decomposition::core::cds::verify::{verify_centralized, VerifyOutcome};
use connectivity_decomposition::core::virtual_graph::{VType, VirtualLayout};
use connectivity_decomposition::graph::generators;
use decomp_testkit::{asserts, fixtures, golden, SEEDS, TOL};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[test]
fn pipeline_invariants_across_families_and_seeds() {
    for f in fixtures::well_connected() {
        for seed in SEEDS {
            let ctx = format!("{} seed {seed}", f.name);
            let p = cds_packing(&f.graph, &CdsPackingConfig::with_known_k(f.kappa, seed));
            asserts::assert_cds_packing_invariants(&f.graph, &p, &ctx);
            let trees = to_dom_tree_packing(&f.graph, &p);
            asserts::assert_dom_tree_packing_feasible(&f.graph, &trees, f.kappa, &ctx);
        }
    }
}

#[test]
fn pipeline_outputs_match_golden_registry() {
    for f in fixtures::well_connected() {
        let p = cds_packing(&f.graph, &CdsPackingConfig::with_known_k(f.kappa, 1));
        let trees = to_dom_tree_packing(&f.graph, &p);
        golden::check(
            &format!("{}/cds_s1/num_trees", f.name),
            trees.packing.num_trees(),
        );
        golden::check(
            &format!("{}/cds_s1/size", f.name),
            golden::f4(trees.packing.size()),
        );
        golden::check(
            &format!("{}/cds_s1/invalid", f.name),
            trees.invalid_classes.len(),
        );
    }
}

#[test]
fn class_count_sweeps_never_break_feasibility() {
    // Even deliberately bad class counts (t way above k/4) must never
    // produce an infeasible *packing* — only invalid classes that the
    // extractor drops.
    let fixtures = fixtures::standard();
    let f = fixtures
        .iter()
        .find(|f| f.name == "harary_k8_n40")
        .expect("roster fixture");
    for t in [1usize, 2, 8, 20, 40] {
        let p = cds_packing(&f.graph, &CdsPackingConfig::with_classes(t, 3));
        let trees = to_dom_tree_packing(&f.graph, &p);
        trees.packing.validate(&f.graph, TOL).unwrap();
        assert_eq!(
            trees.packing.num_trees() + trees.invalid_classes.len(),
            t,
            "t = {t}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `insert_vertex` is the exact inverse of `delete_vertex` (the PR-9
    /// churn contract): after any delete immediately undone by a
    /// re-insert into the same classes, the incremental [`ClassState`]
    /// is label-identical to a from-scratch replay of the untouched
    /// membership — and the running component counts always match the
    /// scratch oracle, even while the vertex is out.
    fn insert_is_the_inverse_of_delete_bit_for_bit(
        seed in any::<u64>(),
        n in 10usize..28,
        extra in 0usize..16,
        t in 1usize..4,
    ) {
        let g = generators::random_connected(n, extra, seed);
        let layout = VirtualLayout::new(n, 4);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x1d1e_a5e5);
        let mut joins: Vec<(usize, usize)> = Vec::new();
        for v in 0..n {
            if rng.gen_range(0..4) > 0 {
                // ~3/4 of vertices join one class
                joins.push((v, rng.gen_range(0..t)));
            }
        }
        let mut st = ClassState::new(layout, t);
        for &(v, c) in &joins {
            st.join(&g, layout.vid(v, 0, VType::ALL[c % VType::ALL.len()]), c);
        }
        let mut fresh = ClassState::new(layout, t);
        for &(v, c) in &joins {
            fresh.join(&g, layout.vid(v, 0, VType::ALL[c % VType::ALL.len()]), c);
        }
        for _ in 0..4 {
            let v = rng.gen_range(0..n);
            let classes = st.classes_at(v).to_vec();
            st.delete_vertex(&g, v);
            // Mid-churn the counters must match the scratch oracle.
            let (counts, excess) = st.recompute_from_scratch(&g);
            for (c, &want) in counts.iter().enumerate() {
                prop_assert_eq!(st.component_count(c), want, "class {} with {} out", c, v);
            }
            prop_assert_eq!(st.excess(), excess, "excess with {} out", v);
            // Undo: re-admit into exactly the original classes.
            st.insert_vertex(&g, v, &classes);
            prop_assert_eq!(st.classes_at(v), classes.as_slice());
            // The round trip is bit-identical to the untouched replay.
            for c in 0..t {
                prop_assert_eq!(st.comp_of(c), fresh.comp_of(c), "labels, class {}", c);
                prop_assert_eq!(st.component_count(c), fresh.component_count(c));
            }
            for u in 0..n {
                prop_assert_eq!(st.classes_at(u), fresh.classes_at(u), "membership at {}", u);
            }
            prop_assert_eq!(st.excess(), fresh.excess());
        }
    }

    /// `admit_vertex` (the PR-10 growth contract): admitting a
    /// class-free newcomer through the maintained aggregates leaves the
    /// incremental [`ClassState`] label-identical to a from-scratch
    /// replay of the same final membership, and the admission rule
    /// itself is a pure function of the class partition (replaying the
    /// same history re-picks the same class).
    fn admit_matches_scratch_repack_bit_for_bit(
        seed in any::<u64>(),
        n in 10usize..28,
        extra in 0usize..16,
        t in 1usize..4,
    ) {
        let g = generators::random_connected(n, extra, seed);
        let layout = VirtualLayout::new(n, 4);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xad41_77e5);
        let mut joins: Vec<(usize, usize)> = Vec::new();
        let mut outside: Vec<usize> = Vec::new();
        for v in 0..n {
            if rng.gen_range(0..4) > 0 {
                joins.push((v, rng.gen_range(0..t)));
            } else {
                outside.push(v); // the class-free newcomers
            }
        }
        let mut st = ClassState::new(layout, t);
        for &(v, c) in &joins {
            st.join(&g, layout.vid(v, 0, VType::ALL[c % VType::ALL.len()]), c);
        }
        let mut member = joins.clone();
        for &v in &outside {
            let entered = st.admit_vertex(&g, v);
            prop_assert!(entered.len() <= 1, "admission picks at most one class");
            // Empty only when no neighbor carries any class.
            if entered.is_empty() {
                let absorbable = g.neighbors(v).iter().any(|&u| !st.classes_at(u).is_empty());
                prop_assert!(!absorbable, "refused an absorbable newcomer {}", v);
                continue;
            }
            member.push((v, entered[0] as usize));
            // Counters match the scratch oracle after every admission…
            let (counts, excess) = st.recompute_from_scratch(&g);
            for (c, &want) in counts.iter().enumerate() {
                prop_assert_eq!(st.component_count(c), want, "class {} after {}", c, v);
            }
            prop_assert_eq!(st.excess(), excess, "excess after {}", v);
            // …and the state is bit-identical to a fresh replay of the
            // same final membership.
            let mut fresh = ClassState::new(layout, t);
            for &(m, c) in &member {
                fresh.join(&g, layout.vid(m, 0, VType::ALL[c % VType::ALL.len()]), c);
            }
            for c in 0..t {
                prop_assert_eq!(st.comp_of(c), fresh.comp_of(c), "labels, class {}", c);
            }
            for u in 0..n {
                prop_assert_eq!(st.classes_at(u), fresh.classes_at(u), "membership at {}", u);
            }
        }
    }
}

#[test]
fn seeds_change_output_but_not_guarantees() {
    let fixtures = fixtures::standard();
    let f = fixtures
        .iter()
        .find(|f| f.name == "harary_k8_n40")
        .expect("roster fixture");
    let a = cds_packing(&f.graph, &CdsPackingConfig::with_known_k(f.kappa, 1));
    let b = cds_packing(&f.graph, &CdsPackingConfig::with_known_k(f.kappa, 2));
    assert!(
        a.class_of != b.class_of,
        "different seeds must give different assignments"
    );
    for p in [&a, &b] {
        assert_eq!(
            verify_centralized(&f.graph, &p.classes),
            VerifyOutcome::Pass
        );
    }
}
