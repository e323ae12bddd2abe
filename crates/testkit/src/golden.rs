//! Golden-value registry.
//!
//! Invariant checks catch *wrong* outputs; golden values catch *changed*
//! ones. Every entry pins a deterministic quantity of a seeded pipeline
//! run (class counts, packing sizes, round counts) on a fixture from
//! [`crate::fixtures`]. If an algorithm change shifts a value, the test
//! fails with both numbers and the fix is a conscious registry update in
//! the same PR — silent behavioral drift is impossible.
//!
//! All values are formatted as strings: integers verbatim, floats through
//! [`f4`] (4 decimal places, enough to notice real drift while ignoring
//! nothing — the pipelines are bit-deterministic given the vendored RNG).

/// Formats a float for the registry (4 decimal places).
pub fn f4(x: f64) -> String {
    format!("{x:.4}")
}

/// The registry. Keys are `<fixture>/<pipeline>/<quantity>`. Keep sorted.
const GOLDEN: &[(&str, &str)] = &[
    ("clustered_barbell_c8_b3/bfs0/rounds", "8"),
    ("harary_k12_n48/cds_s1/invalid", "0"),
    ("harary_k12_n48/cds_s1/num_trees", "3"),
    ("harary_k12_n48/cds_s1/size", "1.0000"),
    (
        "harary_k12_n48/fault_pin/churn_loop",
        "14747283886182979985",
    ),
    (
        "harary_k12_n48/fault_pin/protocol_churn",
        "13450592168359933121",
    ),
    (
        "harary_k12_n48/fault_pin/protocol_faulty",
        "13308497022021722817",
    ),
    (
        "harary_k12_n48/fault_pin/trees_greedy",
        "17509911168034207683",
    ),
    (
        "harary_k12_n48/fault_pin/trees_rlnc",
        "15741579785132446765",
    ),
    (
        "harary_k12_n48/fault_pin/trees_weighted",
        "1842531716284581999",
    ),
    ("harary_k12_n48/stp_mwu/size", "6.0376"),
    ("harary_k4_n24/bfs0/rounds", "8"),
    ("harary_k4_n24/cds_s1/invalid", "0"),
    ("harary_k4_n24/cds_s1/num_trees", "1"),
    ("harary_k4_n24/cds_s1/size", "1.0000"),
    ("harary_k4_n24/fault_pin/churn_loop", "16957820722222724728"),
    (
        "harary_k4_n24/fault_pin/protocol_churn",
        "2892600077025228142",
    ),
    (
        "harary_k4_n24/fault_pin/protocol_faulty",
        "15277421425234820947",
    ),
    (
        "harary_k4_n24/fault_pin/trees_greedy",
        "2306794993585558604",
    ),
    ("harary_k4_n24/fault_pin/trees_rlnc", "2296120121920192501"),
    (
        "harary_k4_n24/fault_pin/trees_weighted",
        "12108939387830161802",
    ),
    ("harary_k4_n24/rlnc/digest", "9091721286111269509"),
    ("harary_k4_n24/rlnc/rounds", "14"),
    ("harary_k4_n24/stp_mwu/size", "2.0259"),
    ("harary_k8_n40/bfs0/rounds", "7"),
    ("harary_k8_n40/cds_s1/invalid", "0"),
    ("harary_k8_n40/cds_s1/num_trees", "2"),
    ("harary_k8_n40/cds_s1/size", "1.0000"),
    ("harary_k8_n40/fault_pin/churn_loop", "8888170365659738273"),
    (
        "harary_k8_n40/fault_pin/protocol_churn",
        "11011738828890646167",
    ),
    (
        "harary_k8_n40/fault_pin/protocol_faulty",
        "441785370977150720",
    ),
    (
        "harary_k8_n40/fault_pin/trees_greedy",
        "8514147111434753807",
    ),
    ("harary_k8_n40/fault_pin/trees_rlnc", "9552862228780704716"),
    (
        "harary_k8_n40/fault_pin/trees_weighted",
        "13879956216387155100",
    ),
    ("harary_k8_n40/rlnc/digest", "4710250910717473556"),
    ("harary_k8_n40/rlnc/rounds", "13"),
    ("harary_k8_n40/stp_mwu/size", "4.0607"),
    ("hypercube_d4/bfs0/rounds", "6"),
    ("hypercube_d4/cds_s1/invalid", "0"),
    ("hypercube_d4/cds_s1/num_trees", "1"),
    ("hypercube_d4/cds_s1/size", "1.0000"),
    ("hypercube_d4/fault_pin/churn_loop", "4736414983068697551"),
    (
        "hypercube_d4/fault_pin/protocol_churn",
        "3242337958240700637",
    ),
    (
        "hypercube_d4/fault_pin/protocol_faulty",
        "2608628995816420564",
    ),
    (
        "hypercube_d4/fault_pin/trees_greedy",
        "15390854222864764137",
    ),
    ("hypercube_d4/fault_pin/trees_rlnc", "2403207123595121644"),
    (
        "hypercube_d4/fault_pin/trees_weighted",
        "16253081044960899811",
    ),
    ("hypercube_d4/rlnc/digest", "6121290089643668354"),
    ("hypercube_d4/rlnc/rounds", "6"),
    ("hypercube_d4/stp_mwu/size", "2.1232"),
    ("hypercube_d5/bfs0/rounds", "7"),
    ("hypercube_d5/cds_s1/invalid", "0"),
    ("hypercube_d5/cds_s1/num_trees", "1"),
    ("hypercube_d5/cds_s1/size", "1.0000"),
    ("hypercube_d5/fault_pin/churn_loop", "15620628097473387055"),
    (
        "hypercube_d5/fault_pin/protocol_churn",
        "3751110997701328010",
    ),
    (
        "hypercube_d5/fault_pin/protocol_faulty",
        "14794073095499287885",
    ),
    ("hypercube_d5/fault_pin/trees_greedy", "2455971782929883883"),
    ("hypercube_d5/fault_pin/trees_rlnc", "6865849337710275774"),
    (
        "hypercube_d5/fault_pin/trees_weighted",
        "15492703866282938432",
    ),
    ("hypercube_d5/rlnc/digest", "11865363333373612559"),
    ("hypercube_d5/rlnc/rounds", "10"),
    ("hypercube_d5/stp_mwu/size", "2.5609"),
    ("lowerbound/g2_n32000_alpha4/cost", "5"),
    ("lowerbound/g2_n4000_alpha4/cost", "3"),
    ("lowerbound/g2_n500_alpha4/cost", "2"),
    ("random_regular_n24_d4/bfs0/rounds", "6"),
    ("random_regular_n24_d4/cds_s1/invalid", "0"),
    ("random_regular_n24_d4/cds_s1/num_trees", "1"),
    ("random_regular_n24_d4/cds_s1/size", "1.0000"),
    (
        "random_regular_n24_d4/fault_pin/churn_loop",
        "2374924648534437025",
    ),
    (
        "random_regular_n24_d4/fault_pin/protocol_churn",
        "12748931036367777965",
    ),
    (
        "random_regular_n24_d4/fault_pin/protocol_faulty",
        "3644029286727451566",
    ),
    (
        "random_regular_n24_d4/fault_pin/trees_greedy",
        "7417923366508217714",
    ),
    (
        "random_regular_n24_d4/fault_pin/trees_rlnc",
        "3852473087602118314",
    ),
    (
        "random_regular_n24_d4/fault_pin/trees_weighted",
        "13262840723412089313",
    ),
    ("random_regular_n24_d4/rlnc/digest", "10129589551469018331"),
    ("random_regular_n24_d4/rlnc/rounds", "9"),
    ("random_regular_n24_d4/stp_mwu/size", "2.0684"),
    ("random_regular_n36_d6/bfs0/rounds", "5"),
    ("random_regular_n36_d6/cds_s1/invalid", "0"),
    ("random_regular_n36_d6/cds_s1/num_trees", "1"),
    ("random_regular_n36_d6/cds_s1/size", "1.0000"),
    (
        "random_regular_n36_d6/fault_pin/churn_loop",
        "9850572406822239528",
    ),
    (
        "random_regular_n36_d6/fault_pin/protocol_churn",
        "17319668304791889032",
    ),
    (
        "random_regular_n36_d6/fault_pin/protocol_faulty",
        "16944583071914589576",
    ),
    (
        "random_regular_n36_d6/fault_pin/trees_greedy",
        "3535393983431937448",
    ),
    (
        "random_regular_n36_d6/fault_pin/trees_rlnc",
        "11476846976945431780",
    ),
    (
        "random_regular_n36_d6/fault_pin/trees_weighted",
        "16092288135523967626",
    ),
    ("random_regular_n36_d6/rlnc/digest", "14363031946562860219"),
    ("random_regular_n36_d6/rlnc/rounds", "11"),
    ("random_regular_n36_d6/stp_mwu/size", "3.0264"),
];

/// Looks up the recorded value for `key`.
pub fn expected(key: &str) -> Option<&'static str> {
    GOLDEN
        .binary_search_by_key(&key, |&(k, _)| k)
        .ok()
        .map(|i| GOLDEN[i].1)
}

/// Asserts that `actual` matches the recorded golden value for `key`.
///
/// # Panics
/// * key unknown — the message contains the exact tuple to paste into
///   `GOLDEN`;
/// * value mismatch — the message shows recorded vs. actual.
pub fn check(key: &str, actual: impl std::fmt::Display) {
    let actual = actual.to_string();
    match expected(key) {
        None => panic!(
            "no golden entry for `{key}`; if this quantity is newly pinned, add\n    (\"{key}\", \"{actual}\"),\nto GOLDEN in crates/testkit/src/golden.rs"
        ),
        Some(exp) => assert_eq!(
            exp, actual,
            "golden drift for `{key}`: recorded {exp}, got {actual} — if intentional, update crates/testkit/src/golden.rs"
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_sorted_and_unique() {
        for w in GOLDEN.windows(2) {
            assert!(w[0].0 < w[1].0, "GOLDEN must stay sorted: {:?}", w[0].0);
        }
    }

    #[test]
    #[should_panic(expected = "no golden entry")]
    fn unknown_key_panics_with_paste_line() {
        check("definitely/not/recorded", 7);
    }
}
