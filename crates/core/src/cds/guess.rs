//! Removing the known-`k` assumption (Remark 3.1).
//!
//! "We simply try exponentially decreasing guesses about `k`, in the form
//! `n/2^j`, and we test the outcome of the dominating tree packing obtained
//! for each guess (particularly its domination and connectivity) using a
//! randomized testing algorithm." The first (largest) guess whose packing
//! passes the Appendix E test is kept. Cost: an `O(log n)` factor.
//!
//! Two drivers: [`cds_packing_unknown_k`] runs the centralized pipeline
//! with the exact Appendix E test, and
//! [`cds_packing_unknown_k_distributed`] runs the whole doubling search
//! on the simulator facade — each guess builds the Appendix B packing
//! *and* tests it with the randomized distributed verifier, so no node
//! ever needs a connectivity estimate and the round cost of every attempt
//! accumulates in the simulator's statistics.

use crate::cds::centralized::{cds_packing, CdsPacking, CdsPackingConfig};
use crate::cds::distributed::cds_packing_distributed;
use crate::cds::verify::{membership_of, verify_centralized, verify_distributed, VerifyOutcome};
use decomp_congest::{SimError, Simulator};
use decomp_graph::Graph;

/// Result of the guessing procedure.
#[derive(Clone, Debug)]
pub struct GuessedPacking {
    /// The accepted packing.
    pub packing: CdsPacking,
    /// The accepted guess `k̃` (a power-of-two fraction of `n`).
    pub guess: usize,
    /// Guesses tried (from large to small), with pass/fail.
    pub attempts: Vec<(usize, bool)>,
}

/// Why the doubling search cannot run (or could not finish).
///
/// The disconnected case matters in the failure regime: after `f ≥ κ`
/// deletions the surviving graph may be disconnected, and every guess —
/// including `k̃ = 1` — then fails domination forever. Detecting that up
/// front turns an infinite halving loop (or, distributed, a spin to the
/// simulator's `max_rounds`) into an immediate typed error.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GuessError {
    /// The input graph is empty or disconnected; no guess can verify.
    Disconnected,
    /// A distributed attempt hit a simulator error (round cap).
    Sim(SimError),
}

impl std::fmt::Display for GuessError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GuessError::Disconnected => {
                write!(f, "unknown-k search requires a connected non-empty graph")
            }
            GuessError::Sim(e) => write!(f, "unknown-k search attempt failed: {e}"),
        }
    }
}

impl std::error::Error for GuessError {}

impl From<SimError> for GuessError {
    fn from(e: SimError) -> Self {
        GuessError::Sim(e)
    }
}

/// The initial (largest) guess: `n/2` rounded up to a power of two,
/// explicitly capped at `n` — connectivity never exceeds `n − 1`, so any
/// guess above `n` is a wasted attempt the search must never emit.
fn initial_guess(n: usize) -> usize {
    (n.next_power_of_two() / 2).clamp(1, n.max(1))
}

/// Runs the try-and-error loop of Remark 3.1: guesses `n/2^j` for
/// `j = 1, 2, ...`, builds the packing for each guess, keeps the first one
/// whose classes all verify as CDSs.
///
/// Always succeeds on connected graphs: the guess `k̃ = 1` yields a single
/// class containing every virtual node, which is trivially a CDS.
///
/// # Panics
/// Panics if `g` is empty or disconnected — use
/// [`try_cds_packing_unknown_k`] when the input may have been
/// disconnected by failures.
pub fn cds_packing_unknown_k(g: &Graph, seed: u64) -> GuessedPacking {
    try_cds_packing_unknown_k(g, seed).expect("guessing requires a connected non-empty graph")
}

/// Fallible variant of [`cds_packing_unknown_k`] for the failure regime:
/// returns [`GuessError::Disconnected`] instead of panicking when the
/// (post-deletion) graph is empty or disconnected — the situation where
/// every guess, including `k̃ = 1`, would fail verification forever.
///
/// # Errors
/// [`GuessError::Disconnected`] on empty or disconnected inputs.
pub fn try_cds_packing_unknown_k(g: &Graph, seed: u64) -> Result<GuessedPacking, GuessError> {
    if g.n() == 0 || !decomp_graph::traversal::is_connected(g) {
        return Err(GuessError::Disconnected);
    }
    let mut attempts = Vec::new();
    let mut guess = initial_guess(g.n());
    loop {
        let cfg = CdsPackingConfig::with_known_k(guess, seed ^ (guess as u64));
        let packing = cds_packing(g, &cfg);
        let ok = verify_centralized(g, &packing.classes) == VerifyOutcome::Pass;
        attempts.push((guess, ok));
        if ok {
            return Ok(GuessedPacking {
                packing,
                guess,
                attempts,
            });
        }
        assert!(
            guess > 1,
            "guess k=1 must always verify on connected graphs"
        );
        guess /= 2;
    }
}

/// Runs Remark 3.1's doubling search fully in V-CONGEST on `sim`:
/// guesses `k̃ = n/2^j` for `j = 1, 2, ...`, builds the Appendix B
/// distributed packing for each guess, and keeps the first one the
/// Appendix E distributed verifier accepts.
///
/// The verifier's guarantee is one-sided (valid packings always pass;
/// invalid ones are rejected w.h.p.), matching the remark's randomized
/// testing algorithm. Rounds for every attempt — including the rejected
/// ones — accumulate in `sim.stats()`, which is the `O(log n)` overhead
/// the remark pays.
///
/// Always terminates on connected graphs: the guess `k̃ = 1` yields a
/// single class containing every virtual node, which is trivially a CDS.
///
/// # Errors
/// [`GuessError::Disconnected`] when the graph is empty or disconnected
/// (e.g. after `f ≥ κ` deletions) — returned up front rather than letting
/// every attempt spin to the simulator's round cap;
/// [`GuessError::Sim`] wraps round-limit errors from the construction or
/// the verifier.
///
/// # Example
///
/// ```
/// use decomp_congest::{Model, Simulator};
/// use decomp_core::cds::guess::cds_packing_unknown_k_distributed;
/// use decomp_graph::generators;
///
/// let g = generators::harary(8, 32); // k = 8, unknown to the protocol
/// let mut sim = Simulator::new(&g, Model::VCongest);
/// let r = cds_packing_unknown_k_distributed(&mut sim, 7).unwrap();
/// // The doubling search starts at n/2 and halves until a guess passes;
/// // every attempt (pass or fail) is recorded and paid for in rounds.
/// assert!(r.guess >= 1 && r.guess <= g.n() / 2);
/// assert!(r.attempts.iter().filter(|(_, ok)| *ok).count() == 1);
/// assert_eq!(r.packing.num_classes(), (r.guess / 4).max(1));
/// assert!(sim.stats().rounds > 0);
/// ```
///
/// # Panics
/// Panics if `sim` is not a V-CONGEST simulator.
pub fn cds_packing_unknown_k_distributed(
    sim: &mut Simulator<'_>,
    seed: u64,
) -> Result<GuessedPacking, GuessError> {
    let n = sim.graph().n();
    if n == 0 || !decomp_graph::traversal::is_connected(sim.graph()) {
        return Err(GuessError::Disconnected);
    }
    let mut attempts = Vec::new();
    let mut guess = initial_guess(n);
    loop {
        let attempt_seed = seed ^ (guess as u64);
        let cfg = CdsPackingConfig::with_known_k(guess, attempt_seed);
        let packing = cds_packing_distributed(sim, &cfg)?;
        let membership = membership_of(&packing.classes, n);
        let ok = verify_distributed(sim, &membership, packing.num_classes(), attempt_seed)?
            == VerifyOutcome::Pass;
        attempts.push((guess, ok));
        if ok {
            return Ok(GuessedPacking {
                packing,
                guess,
                attempts,
            });
        }
        assert!(
            guess > 1,
            "guess k=1 must always verify on connected graphs"
        );
        guess /= 2;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decomp_congest::{EngineKind, Model};
    use decomp_graph::connectivity::vertex_connectivity;
    use decomp_graph::generators;

    #[test]
    fn finds_passing_guess_on_harary() {
        let g = generators::harary(16, 64);
        let r = cds_packing_unknown_k(&g, 3);
        assert!(r.attempts.last().unwrap().1);
        assert!(r.packing.num_classes() >= 1);
        // The accepted guess cannot wildly exceed k (those packings fail).
        assert!(r.guess <= 64);
    }

    #[test]
    fn low_connectivity_certificate_stays_below_k() {
        // Classes overlap on real vertices, so even large guesses can
        // verify on a k = 1 graph — but the *fractional packing size*
        // (the actual certificate, Corollary 1.7) must stay ≤ k = 1.
        let g = generators::barbell(8, 2);
        let r = cds_packing_unknown_k(&g, 1);
        let trees = crate::cds::tree_extract::to_dom_tree_packing(&g, &r.packing);
        trees.packing.validate(&g, 1e-9).unwrap();
        assert!(
            trees.packing.size() <= 1.0 + 1e-9,
            "κ = {} must lower-bound k = 1",
            trees.packing.size()
        );
    }

    #[test]
    fn guess_within_log_factor_of_k() {
        // The estimate is an O(log n)-approximation: guess <= k always
        // fails only below k/Θ(log n) — check guess isn't absurdly small.
        let g = generators::harary(24, 96);
        let k = vertex_connectivity(&g);
        assert_eq!(k, 24);
        let r = cds_packing_unknown_k(&g, 9);
        assert!(r.guess * 32 >= k, "guess {} too far below k={}", r.guess, k);
    }

    #[test]
    fn attempts_decrease() {
        let g = generators::cycle(16);
        let r = cds_packing_unknown_k(&g, 0);
        for w in r.attempts.windows(2) {
            assert!(w[1].0 < w[0].0);
        }
    }

    #[test]
    fn guesses_never_exceed_n() {
        // The explicit cap: every guess the search emits — in particular
        // the first, largest one — stays within `n` on every size,
        // power-of-two or not.
        for n in [2usize, 3, 5, 9, 16, 17] {
            let g = generators::path(n);
            let r = cds_packing_unknown_k(&g, 7);
            for &(guess, _) in &r.attempts {
                assert!(guess <= n, "n={n}: guess {guess} exceeds n");
                assert!(guess >= 1);
            }
        }
    }

    #[test]
    fn disconnected_input_is_a_typed_error_not_a_spin() {
        let g = Graph::from_edges(4, vec![(0, 1), (2, 3)]);
        assert_eq!(
            try_cds_packing_unknown_k(&g, 5).unwrap_err(),
            GuessError::Disconnected
        );
        let mut sim = Simulator::new(&g, Model::VCongest);
        assert_eq!(
            cds_packing_unknown_k_distributed(&mut sim, 5).unwrap_err(),
            GuessError::Disconnected
        );
        assert_eq!(
            sim.stats().rounds,
            0,
            "detected up front, zero rounds spent"
        );
    }

    #[test]
    fn deletion_can_strand_an_accepted_guess() {
        // A hub-and-spokes graph: the pre-failure search happily accepts a
        // guess (k̃ = 1 always verifies), but every class leans on the hub.
        // Once the hub fails the survivors are disconnected — re-running
        // the search must return the typed error immediately instead of
        // halving forever / spinning to the round cap.
        let hub = Graph::from_edges(5, vec![(0, 1), (0, 2), (0, 3), (0, 4)]);
        let pre = try_cds_packing_unknown_k(&hub, 4).unwrap();
        assert!(pre.attempts.last().unwrap().1, "pre-failure guess verifies");
        let survivors = Graph::from_edges(4, vec![]); // hub deleted, spokes stranded
        assert_eq!(
            try_cds_packing_unknown_k(&survivors, 4).unwrap_err(),
            GuessError::Disconnected
        );
        // With f < κ the re-search instead succeeds on the survivors: drop
        // vertex 0 from a 4-connected harary graph and renumber.
        let g = generators::harary(4, 12);
        let survivors: Vec<(usize, usize)> = g
            .edges()
            .iter()
            .filter(|&&(u, v)| u != 0 && v != 0)
            .map(|&(u, v)| (u - 1, v - 1))
            .collect();
        let g1 = Graph::from_edges(11, survivors);
        let post = try_cds_packing_unknown_k(&g1, 4).unwrap();
        assert!(
            post.attempts.last().unwrap().1,
            "post-failure re-search verifies"
        );
        assert!(post.guess <= 11);
    }

    #[test]
    fn distributed_guess_finds_valid_packing_and_spends_rounds() {
        let g = generators::harary(8, 32);
        let mut sim = Simulator::new(&g, Model::VCongest);
        let r = cds_packing_unknown_k_distributed(&mut sim, 3).unwrap();
        assert!(r.attempts.last().unwrap().1, "accepted attempt must pass");
        // The accepted packing is a real CDS packing (exact check).
        assert_eq!(
            verify_centralized(&g, &r.packing.classes),
            VerifyOutcome::Pass
        );
        assert!(r.guess <= 32, "guess cannot exceed n");
        // Every attempt — accepted and rejected — costs simulator rounds.
        assert!(sim.stats().rounds > 0);
        assert!(sim.stats().messages > 0);
        for w in r.attempts.windows(2) {
            assert!(w[1].0 < w[0].0, "guesses must decrease");
        }
    }

    #[test]
    fn distributed_guess_certificate_respects_connectivity() {
        // On a barbell (k = 1) the fractional packing extracted from the
        // accepted guess must stay ≤ k, exactly as in the centralized path.
        let g = generators::barbell(6, 2);
        let mut sim = Simulator::new(&g, Model::VCongest);
        let r = cds_packing_unknown_k_distributed(&mut sim, 1).unwrap();
        let trees = crate::cds::tree_extract::to_dom_tree_packing(&g, &r.packing);
        trees.packing.validate(&g, 1e-9).unwrap();
        assert!(
            trees.packing.size() <= 1.0 + 1e-9,
            "κ = {} must lower-bound k = 1",
            trees.packing.size()
        );
    }

    #[test]
    fn distributed_guess_is_deterministic_and_engine_independent() {
        let g = generators::harary(6, 24);
        let run = |engine| {
            let mut sim = Simulator::new(&g, Model::VCongest).with_engine(engine);
            let r = cds_packing_unknown_k_distributed(&mut sim, 9).unwrap();
            (
                r.guess,
                r.attempts.clone(),
                r.packing.classes.clone(),
                sim.stats().locality_blind(),
            )
        };
        let seq = run(EngineKind::Sequential);
        assert_eq!(seq, run(EngineKind::Sequential));
        assert_eq!(seq, run(EngineKind::sharded(2)));
        assert_eq!(seq, run(EngineKind::sharded(4)));
    }
}
