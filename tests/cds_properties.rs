//! Property-style integration tests: the CDS pipeline's invariants must
//! hold across graph families, class counts, and seeds.
//!
//! Families, seeds, invariant checks, and golden values all come from
//! `decomp-testkit`, so every PR exercises the same deterministic
//! instances.

use connectivity_decomposition::congest::{Fault, FaultPlan, FaultState, ScheduledFault};
use connectivity_decomposition::core::cds::centralized::{cds_packing, CdsPackingConfig};
use connectivity_decomposition::core::cds::class_state::ClassState;
use connectivity_decomposition::core::cds::tree_extract::to_dom_tree_packing;
use connectivity_decomposition::core::cds::verify::{verify_centralized, VerifyOutcome};
use connectivity_decomposition::core::virtual_graph::{default_layers, VType, VirtualLayout};
use connectivity_decomposition::graph::{generators, Graph, NodeId};
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
fn fragmented_packings_match_golden_digests() {
    // The two `cds_digest` roster instances whose classes stay split
    // after the jump start, so deactivation, bridging and matching
    // (steps 2a–3) run in the recursive layers.
    let instances = [
        ("harary_k6_n2000_t24", generators::harary(6, 2000), 24),
        ("gnm_n2000_m6000_t16", generators::gnm(2000, 6000, 7), 16),
    ];
    for (name, g, t) in &instances {
        for seed in [1u64, 5, 42] {
            let p = cds_packing(g, &CdsPackingConfig::with_classes(*t, seed));
            assert!(
                p.trace.iter().any(|l| l.matched > 0),
                "{name} seed {seed}: no layer matches"
            );
            golden::check(
                &format!("{name}/cds_s{seed}/digest"),
                format!("{:#018x}", golden::cds_digest(&p)),
            );
        }
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
            st.delete_vertex(&g, |_, _| true, v);
            // Mid-churn the counters must match the scratch oracle.
            let (counts, excess) = st.recompute_from_scratch(&g);
            for (c, &want) in counts.iter().enumerate() {
                prop_assert_eq!(st.component_count(c), want, "class {} with {} out", c, v);
            }
            prop_assert_eq!(st.excess(), excess, "excess with {} out", v);
            // Undo: re-admit into exactly the original classes.
            st.insert_vertex(&g, |_, _| true, v, &classes);
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
            let entered = st.admit_vertex(&g, |_, _| true, v);
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

    /// The jump start's bulk build ([`ClassState::from_bundles`]) leaves
    /// the state a join per virtual node leaves in jump-start order
    /// (layer × real × vtype): the same component count per class,
    /// excess, per-node class lists and densified `comp_of` labels. Over
    /// Harary, random-regular and sparse `gnm` graphs (at least a third
    /// of whose vertices are isolated), with 1, 3 and 24 classes.
    fn bulk_build_matches_a_join_replay(
        seed in any::<u64>(),
        family in 0usize..3,
        n in 10usize..80,
        t_pick in 0usize..3,
    ) {
        let t = [1usize, 3, 24][t_pick];
        let g = match family {
            0 => generators::harary(2 + (seed % 5) as usize, n),
            1 => generators::random_regular(n, 2 * (2 + (seed % 3) as usize), seed),
            _ => {
                let g = generators::gnm(n, n / 3, seed);
                prop_assert!(g.vertices().any(|v| g.degree(v) == 0), "gnm has isolated vertices");
                g
            }
        };
        let layout = VirtualLayout::new(n, default_layers(n, 3.0));
        let mut rng = StdRng::seed_from_u64(seed ^ 0x6a5d_b01c);
        let mut joined = ClassState::new(layout, t);
        let mut occupied = vec![false; n * t];
        for layer in 0..layout.jump_start() {
            for real in 0..n {
                for vtype in VType::ALL {
                    let c = rng.gen_range(0..t);
                    joined.join(&g, layout.vid(real, layer, vtype), c);
                    occupied[c * n + real] = true;
                }
            }
        }
        let mut bulk = ClassState::from_bundles(&g, layout, t, occupied);
        prop_assert_eq!(bulk.excess(), joined.excess());
        for c in 0..t {
            prop_assert_eq!(bulk.component_count(c), joined.component_count(c), "class {}", c);
            prop_assert_eq!(bulk.comp_of(c), joined.comp_of(c), "labels, class {}", c);
        }
        for v in 0..n {
            prop_assert_eq!(bulk.classes_at(v), joined.classes_at(v), "classes at {}", v);
        }
    }
}

/// Whether `st` (mutated through the edge filter) and `reference`
/// (mutated on the built survivor graph `built`) hold the same state —
/// counts, excess, per-node classes, raw roots and `comp_of` labels — and
/// both match the scratch oracle on `built`.
fn same_state(
    st: &mut ClassState,
    reference: &mut ClassState,
    built: &Graph,
) -> Result<(), String> {
    prop_assert_eq!(st.excess(), reference.excess());
    for c in 0..st.num_classes() {
        prop_assert_eq!(
            st.component_count(c),
            reference.component_count(c),
            "class {}",
            c
        );
        prop_assert_eq!(st.comp_of(c), reference.comp_of(c), "labels, class {}", c);
        for v in built.vertices() {
            let root = st.comp_root(v, c);
            prop_assert_eq!(root, reference.comp_root(v, c), "root of {} in {}", v, c);
        }
    }
    for v in built.vertices() {
        prop_assert_eq!(
            st.classes_at(v),
            reference.classes_at(v),
            "classes at {}",
            v
        );
    }
    for state in [&*st, &*reference] {
        let (counts, excess) = state.recompute_from_scratch(built);
        let live: Vec<usize> = (0..counts.len())
            .map(|c| state.component_count(c))
            .collect();
        prop_assert_eq!(live, counts);
        prop_assert_eq!(state.excess(), excess);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The churn paths mutate the class state through `FaultState`'s edge
    /// filter instead of a copied survivor graph. Over random connected
    /// graphs with partial memberships and generated plans of kills,
    /// cuts, member arrivals, class-free arrivals and edge activations
    /// (biased toward the arrivals' edges, so a newcomer often joins
    /// while one of its edges is still off), a state mutated through
    /// `(g, |u, v| ft.deliverable(u, v))` returns the same touched
    /// classes as a clone mutated on `g.edge_subgraph(|u, v|
    /// ft.deliverable(u, v))` under a true filter (the replaced route,
    /// kept as the reference), and after the round-0 view and every wave
    /// the two states are the same (see [`same_state`]).
    fn filtered_mutators_match_the_built_survivor_graph(
        seed in any::<u64>(),
        n in 10usize..28,
        extra in 0usize..24,
        t in 1usize..4,
    ) {
        let g = generators::random_connected(n, extra, seed);
        let layout = VirtualLayout::new(n, 4);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_f11e);
        let waves = 4;
        // Partial memberships: about one vertex in t + 1 is class-free,
        // the others sit in one class and maybe more.
        let mut st = ClassState::new(layout, t);
        let mut classes_of: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (v, classes) in classes_of.iter_mut().enumerate() {
            let first = rng.gen_range(0..t + 1);
            for c in (0..t).filter(|&c| c == first || (first < t && rng.gen_range(0..4) == 0)) {
                st.join(&g, layout.vid(v, 0, VType::ALL[c % VType::ALL.len()]), c);
                classes.push(c as u32);
            }
        }
        // One arrival or kill per chosen vertex, then edge events no
        // earlier than either endpoint's arrival and no later than its
        // death, as `FaultPlan::validate` requires.
        let (mut arrive, mut kill) = (vec![0; n], vec![usize::MAX; n]);
        let mut events = Vec::new();
        for v in 0..n {
            let (round, fault) = match rng.gen_range(0..5) {
                0 => (&mut arrive[v], Fault::AddVertex(v)),
                1 => (&mut kill[v], Fault::Vertex(v)),
                _ => continue,
            };
            *round = rng.gen_range(1..=waves);
            events.push(ScheduledFault { round: *round, fault });
        }
        for &(u, v) in g.edges() {
            let (lo, hi) = (arrive[u].max(arrive[v]).max(1), kill[u].min(kill[v]).min(waves));
            if lo > hi {
                continue;
            }
            let round = rng.gen_range(lo..=hi);
            let fault = match rng.gen_range(0..6) {
                0 => Fault::Edge(u, v),
                1 => Fault::AddEdge(u, v),
                2 | 3 if arrive[u].max(arrive[v]) > 0 => Fault::AddEdge(u, v),
                _ => continue,
            };
            events.push(ScheduledFault { round, fault });
        }
        let plan = FaultPlan::new(events);
        prop_assert_eq!(plan.validate(&g), Ok(()));
        let all = |_: NodeId, _: NodeId| true;
        let mut reference = st.clone();
        let mut ft = FaultState::new(&plan, n);
        {
            // The churn loop's round-0 view: dormant vertices and edges
            // not yet active leave the state.
            let built = g.edge_subgraph(|u, v| ft.deliverable(u, v));
            let keep = |u, v| ft.deliverable(u, v);
            for v in (0..n).filter(|&v| ft.is_dormant(v)) {
                let touched = st.delete_vertex(&g, keep, v);
                prop_assert_eq!(touched, reference.delete_vertex(&built, all, v));
            }
            for e in plan.events() {
                if let Fault::AddEdge(u, v) = e.fault {
                    let touched = st.delete_edge(&g, keep, u, v);
                    prop_assert_eq!(touched, reference.delete_edge(&built, all, u, v));
                }
            }
            same_state(&mut st, &mut reference, &built)?;
        }
        for round in 1..=waves {
            let applied = ft.fired();
            ft.advance_to(round);
            let built = g.edge_subgraph(|u, v| ft.deliverable(u, v));
            let keep = |u, v| ft.deliverable(u, v);
            for e in &plan.events()[applied..ft.fired()] {
                let (touched, want) = match e.fault {
                    Fault::Vertex(v) => {
                        (st.delete_vertex(&g, keep, v), reference.delete_vertex(&built, all, v))
                    }
                    Fault::Edge(u, v) => {
                        (st.delete_edge(&g, keep, u, v), reference.delete_edge(&built, all, u, v))
                    }
                    Fault::AddVertex(v) if classes_of[v].is_empty() => {
                        (st.admit_vertex(&g, keep, v), reference.admit_vertex(&built, all, v))
                    }
                    Fault::AddVertex(v) => (
                        st.insert_vertex(&g, keep, v, &classes_of[v]),
                        reference.insert_vertex(&built, all, v, &classes_of[v]),
                    ),
                    Fault::AddEdge(u, v) => (st.insert_edge(u, v), reference.insert_edge(u, v)),
                };
                prop_assert_eq!(touched, want, "touched by {:?} at round {}", e.fault, round);
            }
            same_state(&mut st, &mut reference, &built)?;
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
