//! Testing a dominating-tree / CDS packing (Appendix E, Lemma E.1).
//!
//! Given a collection of vertex classes, test whether **every** class is a
//! connected dominating set. Two implementations:
//!
//! * [`verify_centralized`] — the `O(m log n)`-style direct test
//!   (domination sweep + per-class component check);
//! * [`verify_distributed`] — the randomized V-CONGEST protocol of
//!   Appendix E: a 1-round domination test with `O(D)` failure flooding,
//!   per-class component identification, a first-round component-id
//!   exchange, and `Θ(log n)` rounds in which every node announces the
//!   component id of a random class so that length-3 *detector paths*
//!   catch disconnected classes w.h.p.
//!
//! The distributed test's guarantee is one-sided: a valid packing always
//! passes; an invalid one is rejected w.h.p. (the tests exercise both
//! sides).

use decomp_congest::multiflood::{find, get, multikey_flood, Combine};
use decomp_congest::{Model, Simulator};
use decomp_graph::domination::is_cds;
use decomp_graph::{Graph, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Outcome of a packing test.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VerifyOutcome {
    /// Every class passed.
    Pass,
    /// A domination failure was detected (some class fails to dominate).
    DominationFailure,
    /// A connectivity failure was detected (some class is disconnected).
    ConnectivityFailure,
}

/// Centralized test: every class must be a CDS.
///
/// Returns `Pass` or the first failure kind encountered (domination is
/// checked before connectivity, mirroring the distributed protocol).
pub fn verify_centralized(g: &Graph, classes: &[Vec<NodeId>]) -> VerifyOutcome {
    // Domination sweep for all classes at once.
    for class in classes {
        let mut mask = vec![false; g.n()];
        for &v in class {
            mask[v] = true;
        }
        if !decomp_graph::domination::is_dominating_set(g, &mask) {
            return VerifyOutcome::DominationFailure;
        }
    }
    for class in classes {
        let mut mask = vec![false; g.n()];
        for &v in class {
            mask[v] = true;
        }
        if class.is_empty() || !is_cds(g, &mask) {
            return VerifyOutcome::ConnectivityFailure;
        }
    }
    VerifyOutcome::Pass
}

/// Distributed test on the V-CONGEST simulator (Appendix E).
///
/// `membership[v]` lists the classes containing `v`; `num_classes` is `t`.
/// Runs on `sim`'s network (which must be `g`'s graph) and returns the
/// common outcome all nodes converge to.
///
/// # Errors
/// Propagates simulator round-limit errors.
pub fn verify_distributed(
    sim: &mut Simulator<'_>,
    membership: &[Vec<usize>],
    num_classes: usize,
    seed: u64,
) -> Result<VerifyOutcome, decomp_congest::SimError> {
    assert_eq!(sim.model(), Model::VCongest, "Appendix E runs in V-CONGEST");
    let g = sim.graph().clone();
    let n = g.n();
    assert_eq!(membership.len(), n);

    // --- Domination test -------------------------------------------------
    // Round 1: every node announces its class list (O(log n) words = one
    // meta-round). A node not covered by some class raises a failure,
    // which floods in O(D) further rounds. We simulate the announcement
    // with local computation over the known membership (the message
    // content is exactly the neighbor's membership list) and charge the
    // meta-round + flood cost.
    let mut dominated_fail = false;
    'outer: for v in 0..n {
        let mut covered = vec![false; num_classes];
        for &c in &membership[v] {
            covered[c] = true;
        }
        for &u in g.neighbors(v) {
            for &c in &membership[u] {
                covered[c] = true;
            }
        }
        if covered.iter().any(|&b| !b) {
            dominated_fail = true;
            break 'outer;
        }
    }
    // Charge: 1 meta-round announcement + Θ(D) failure flood.
    let d = decomp_graph::traversal::diameter_2approx(&g).unwrap_or(n);
    sim.charge_rounds(1 + d);
    if dominated_fail {
        return Ok(VerifyOutcome::DominationFailure);
    }

    // --- Connectivity test ------------------------------------------------
    // Component identification per class: key = class, value = real id;
    // the key-subgraph is exactly the class's induced projection.
    let tables: Vec<Vec<(u64, u64)>> = (0..n)
        .map(|v| {
            let mut tbl: Vec<(u64, u64)> = membership[v]
                .iter()
                .map(|&c| (c as u64, v as u64))
                .collect();
            tbl.sort_unstable();
            tbl.dedup();
            tbl
        })
        .collect();
    let comp = multikey_flood(sim, tables, Combine::Min)?;

    // First exchange: every node sends all its (class, comp-id) pairs; a
    // node adjacent to two different components of one class detects the
    // disconnect immediately.
    for v in 0..n {
        for &(c, id) in &comp[v] {
            if g.neighbors(v)
                .iter()
                .any(|&u| get(&comp[u], c).is_some_and(|o| o != id))
            {
                sim.charge_rounds(1 + d);
                return Ok(VerifyOutcome::ConnectivityFailure);
            }
        }
    }
    sim.charge_rounds(1);

    // Θ(log n) random-class announcement rounds: node v picks a random
    // class c it knows a component id for (any class: v is dominated, so it
    // heard ids for all classes in the first exchange — we model "known
    // ids" as own + neighbors') and announces (c, id). A neighbor holding
    // a *different* id for c detects the disconnect; this is the detector-
    // path mechanism of Appendix E.
    let mut rng = StdRng::seed_from_u64(seed);
    let rounds = 2 * (n.max(2) as f64).log2().ceil() as usize + 2;
    // known[v]: (class, id) heard, own first, then neighbors' in
    // neighbor order; key-ordered, and a class keeps its first id.
    let mut known = comp.clone();
    for (v, heard) in known.iter_mut().enumerate() {
        for &u in g.neighbors(v) {
            for &(c, id) in &comp[u] {
                if let Err(pos) = find(heard, c) {
                    heard.insert(pos, (c, id));
                }
            }
        }
    }
    for _ in 0..rounds {
        sim.charge_rounds(1);
        for v in 0..n {
            if known[v].is_empty() {
                continue;
            }
            let (c, id) = known[v][rng.gen_range(0..known[v].len())];
            for &u in g.neighbors(v) {
                match find(&known[u], c) {
                    Ok(j) if known[u][j].1 != id => {
                        sim.charge_rounds(d);
                        return Ok(VerifyOutcome::ConnectivityFailure);
                    }
                    Ok(_) => {}
                    // Receivers learn announced ids (and can forward them
                    // in later rounds).
                    Err(pos) => known[u].insert(pos, (c, id)),
                }
            }
        }
    }
    sim.charge_rounds(d); // final "no failure" confirmation window
    Ok(VerifyOutcome::Pass)
}

/// Convenience: membership lists from class vertex sets.
pub fn membership_of(classes: &[Vec<NodeId>], n: usize) -> Vec<Vec<usize>> {
    let mut membership = vec![Vec::new(); n];
    for (c, class) in classes.iter().enumerate() {
        for &v in class {
            membership[v].push(c);
        }
    }
    membership
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cds::centralized::{cds_packing, CdsPackingConfig};
    use decomp_graph::generators;

    #[test]
    fn centralized_accepts_valid_packing() {
        let g = generators::harary(12, 60);
        let p = cds_packing(&g, &CdsPackingConfig::with_known_k(12, 1));
        assert_eq!(verify_centralized(&g, &p.classes), VerifyOutcome::Pass);
    }

    #[test]
    fn centralized_detects_domination_failure() {
        let g = generators::star(6);
        // Class {1} does not dominate vertex 2.
        let classes = vec![vec![1usize]];
        assert_eq!(
            verify_centralized(&g, &classes),
            VerifyOutcome::DominationFailure
        );
    }

    #[test]
    fn centralized_detects_connectivity_failure() {
        let g = generators::cycle(6);
        // {0, 3} dominates C6 ({0: 1,5}, {3: 2,4}) but is disconnected.
        let classes = vec![vec![0usize, 3]];
        assert_eq!(
            verify_centralized(&g, &classes),
            VerifyOutcome::ConnectivityFailure
        );
    }

    #[test]
    fn distributed_accepts_valid_packing() {
        let g = generators::harary(8, 48);
        let p = cds_packing(&g, &CdsPackingConfig::with_known_k(8, 3));
        let membership = membership_of(&p.classes, g.n());
        let mut sim = Simulator::new(&g, Model::VCongest);
        let out = verify_distributed(&mut sim, &membership, p.num_classes(), 5).unwrap();
        assert_eq!(out, VerifyOutcome::Pass);
        assert!(sim.stats().rounds > 0);
    }

    #[test]
    fn distributed_detects_domination_failure() {
        let g = generators::star(8);
        let classes = vec![vec![1usize], vec![0usize]];
        let membership = membership_of(&classes, g.n());
        let mut sim = Simulator::new(&g, Model::VCongest);
        let out = verify_distributed(&mut sim, &membership, 2, 5).unwrap();
        assert_eq!(out, VerifyOutcome::DominationFailure);
    }

    #[test]
    fn distributed_detects_disconnected_class() {
        let g = generators::cycle(6);
        let classes = vec![vec![0usize, 3], vec![0, 1, 2, 3, 4, 5]];
        let membership = membership_of(&classes, g.n());
        let mut sim = Simulator::new(&g, Model::VCongest);
        let out = verify_distributed(&mut sim, &membership, 2, 7).unwrap();
        assert_eq!(out, VerifyOutcome::ConnectivityFailure);
    }

    #[test]
    fn distributed_matches_centralized_on_random_packings() {
        for seed in 0..6 {
            let g = generators::harary(6, 36);
            let p = cds_packing(&g, &CdsPackingConfig::with_known_k(6, seed));
            let want = verify_centralized(&g, &p.classes);
            let membership = membership_of(&p.classes, g.n());
            let mut sim = Simulator::new(&g, Model::VCongest);
            let got = verify_distributed(&mut sim, &membership, p.num_classes(), seed).unwrap();
            assert_eq!(got, want, "seed {seed}");
        }
    }

    #[test]
    fn membership_roundtrip() {
        let classes = vec![vec![0, 2], vec![1, 2]];
        let m = membership_of(&classes, 3);
        assert_eq!(m, vec![vec![0], vec![1], vec![0, 1]]);
    }

    /// Failure injection: corrupt a valid packing by deleting vertices
    /// from classes; both testers must reject every corruption that
    /// actually breaks a class, and accept those that happen not to.
    #[test]
    fn corrupted_packings_are_caught() {
        use rand::{Rng, SeedableRng};
        let g = generators::harary(8, 40);
        let p = cds_packing(&g, &CdsPackingConfig::with_known_k(8, 4));
        assert_eq!(verify_centralized(&g, &p.classes), VerifyOutcome::Pass);
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        let mut caught = 0;
        for trial in 0..12 {
            let mut classes = p.classes.clone();
            // Remove a random run of vertices from a random class.
            let c = rng.gen_range(0..classes.len());
            let class_len = classes[c].len();
            let del = rng.gen_range(1..=(class_len / 2).max(1));
            let start = rng.gen_range(0..class_len - del + 1);
            classes[c].drain(start..start + del);
            let want = verify_centralized(&g, &classes);
            let membership = membership_of(&classes, g.n());
            let mut sim = Simulator::new(&g, Model::VCongest);
            let got =
                verify_distributed(&mut sim, &membership, classes.len(), trial as u64).unwrap();
            assert_eq!(got, want, "trial {trial}: testers must agree");
            if want != VerifyOutcome::Pass {
                caught += 1;
            }
        }
        // Classes are large and overlapping, so many deletions leave a
        // still-valid CDS — the essential property above is tester
        // agreement; we only require that *some* corruptions were real.
        assert!(
            caught >= 3,
            "some random corruptions should break a class (caught {caught}/12)"
        );
    }
}
