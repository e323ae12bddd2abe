//! Multi-key relaxation flooding.
//!
//! The distributed CDS packing (paper, Appendix B) repeatedly needs, *for
//! every class simultaneously*, component-wide aggregates: minimum ids for
//! component identification, deactivation flags, maximum accepted
//! proposals. Because each node belongs to `O(log n)` classes, all of these
//! fit the same pattern:
//!
//! * every node holds a table of `(key, value)` entries (`O(log n)` of
//!   them) in strictly ascending key order — this module owns that format:
//!   [`multikey_flood`] checks it, and [`find`] / [`get`] look keys up by
//!   binary search, so every reader iterates in key order, never in hash
//!   order,
//! * an edge is *valid for a key* iff **both** endpoints hold the key,
//! * at fixpoint, each node's value for a key is the min/max over the
//!   key-connected component containing it.
//!
//! Messages carry `(key, value)` pairs; when a node has more dirty keys
//! than fit into one bounded message, the rest queue for later rounds —
//! which is exactly how the congestion the V-CONGEST model meters shows up.
//! One round here corresponds to one of the paper's *meta-rounds*
//! (`Θ(log n)` virtual-graph rounds) when the word budget is `Θ(log n)`.

use crate::message::Message;
use crate::sim::{Inbox, NodeCtx, NodeProgram, SimError, Simulator};
use std::collections::VecDeque;

/// Combining operator for [`multikey_flood`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Combine {
    /// Keep the minimum value per key-component.
    Min,
    /// Keep the maximum value per key-component.
    Max,
}

impl Combine {
    fn better(self, new: u64, old: u64) -> bool {
        match self {
            Combine::Min => new < old,
            Combine::Max => new > old,
        }
    }
}

/// Position of `key` in a key-ordered table: `Ok(index)` if present,
/// else `Err(insertion point)`.
pub fn find(table: &[(u64, u64)], key: u64) -> Result<usize, usize> {
    table.binary_search_by_key(&key, |&(k, _)| k)
}

/// The value `table` holds for `key`, if any.
pub fn get(table: &[(u64, u64)], key: u64) -> Option<u64> {
    find(table, key).ok().map(|i| table[i].1)
}

struct FloodProgram {
    table: Vec<(u64, u64)>,
    combine: Combine,
    /// Entries whose current value still needs announcing, FIFO.
    dirty: VecDeque<usize>,
    /// `queued[i]`: entry `i` sits in `dirty`.
    queued: Vec<bool>,
}

impl NodeProgram for FloodProgram {
    fn round(&mut self, ctx: &mut NodeCtx<'_>, inbox: &Inbox<'_>) {
        for (_, m) in inbox {
            for pair in m.words().chunks(2) {
                // Edge validity: receiver must hold the key too.
                let Ok(i) = find(&self.table, pair[0]) else {
                    continue;
                };
                if self.combine.better(pair[1], self.table[i].1) {
                    self.table[i].1 = pair[1];
                    if !self.queued[i] {
                        self.queued[i] = true;
                        self.dirty.push_back(i);
                    }
                }
            }
        }
        if !self.dirty.is_empty() {
            let budget_pairs = 4usize; // fixed pairs per message; see below
            let mut words = Vec::with_capacity(2 * budget_pairs);
            while words.len() + 2 <= 2 * budget_pairs {
                match self.dirty.pop_front() {
                    Some(i) => {
                        self.queued[i] = false;
                        words.extend([self.table[i].0, self.table[i].1]);
                    }
                    None => break,
                }
            }
            ctx.broadcast(Message::from_words(words));
        }
    }

    fn is_done(&self) -> bool {
        self.dirty.is_empty()
    }
}

/// Floods every key's values to a component-wide min/max fixpoint.
///
/// `tables[v]` is node `v`'s initial table of `(key, value)` entries in
/// strictly ascending key order; a key's "subgraph" consists of the edges
/// whose both endpoints hold the key. Returns the fixpoint tables: the
/// same keys in the same order, so entry `i` of an output table belongs
/// to entry `i` of its input, and callers may keep tables aligned with
/// them entry for entry.
///
/// The per-message budget is 4 `(key, value)` pairs (8 words, the default
/// simulator budget); nodes with more dirty keys send across several
/// rounds, which is the meta-round congestion the paper accounts for.
/// Every entry starts dirty in key order, so that order decides which
/// keys wait a round.
///
/// # Errors
/// Propagates simulator round-limit errors.
///
/// # Panics
/// Panics unless there is one table per node and every table's keys are
/// strictly ascending.
pub fn multikey_flood(
    sim: &mut Simulator<'_>,
    tables: Vec<Vec<(u64, u64)>>,
    combine: Combine,
) -> Result<Vec<Vec<(u64, u64)>>, SimError> {
    assert_eq!(tables.len(), sim.graph().n(), "one table per node");
    let programs = tables
        .into_iter()
        .map(|table| {
            assert!(
                table.windows(2).all(|w| w[0].0 < w[1].0),
                "flood table keys must be strictly ascending"
            );
            FloodProgram {
                combine,
                dirty: (0..table.len()).collect(),
                queued: vec![true; table.len()],
                table,
            }
        })
        .collect();
    let (programs, _) = sim.run_to_quiescence(programs)?;
    Ok(programs.into_iter().map(|p| p.table).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::Model;
    use decomp_graph::generators;

    fn tables_from(entries: &[&[(u64, u64)]]) -> Vec<Vec<(u64, u64)>> {
        entries.iter().map(|e| e.to_vec()).collect()
    }

    #[test]
    fn single_key_min_equals_component_min() {
        // Path 0-1-2-3; key 7 held by all; min value should spread.
        let g = generators::path(4);
        let mut sim = Simulator::new(&g, Model::VCongest);
        let tables = tables_from(&[&[(7, 30)], &[(7, 10)], &[(7, 20)], &[(7, 40)]]);
        let out = multikey_flood(&mut sim, tables, Combine::Min).unwrap();
        for t in &out {
            assert_eq!(t, &[(7, 10)]);
        }
    }

    #[test]
    fn key_subgraph_respects_holders() {
        // Path 0-1-2-3: key 5 held by {0,1} and {3} — node 3 is isolated
        // for this key (node 2 does not hold it), so keeps its own value.
        let g = generators::path(4);
        let mut sim = Simulator::new(&g, Model::VCongest);
        let tables = tables_from(&[&[(5, 9)], &[(5, 4)], &[], &[(5, 1)]]);
        let out = multikey_flood(&mut sim, tables, Combine::Min).unwrap();
        assert_eq!(out, tables_from(&[&[(5, 4)], &[(5, 4)], &[], &[(5, 1)]]));
    }

    #[test]
    fn max_combine() {
        let g = generators::cycle(5);
        let mut sim = Simulator::new(&g, Model::VCongest);
        let tables: Vec<Vec<(u64, u64)>> = (0..5).map(|v| vec![(1, v as u64)]).collect();
        let out = multikey_flood(&mut sim, tables, Combine::Max).unwrap();
        for t in &out {
            assert_eq!(t, &[(1, 4)]);
        }
    }

    #[test]
    fn many_keys_queue_across_rounds() {
        // Each node holds 20 keys; messages carry 4 pairs, so flooding
        // takes several rounds but must still converge per key.
        let g = generators::path(6);
        let mut sim = Simulator::new(&g, Model::VCongest);
        let tables: Vec<Vec<(u64, u64)>> = (0..6)
            .map(|v| (0u64..20).map(|k| (k, (v as u64 + k) % 17)).collect())
            .collect();
        let expect: Vec<(u64, u64)> = (0u64..20)
            .map(|k| (k, (0..6).map(|v| (v as u64 + k) % 17).min().unwrap()))
            .collect();
        let out = multikey_flood(&mut sim, tables, Combine::Min).unwrap();
        for t in &out {
            assert_eq!(t, &expect);
        }
    }

    #[test]
    fn matches_per_class_components() {
        // Two "classes" (keys) with different holder sets on a grid;
        // check per-key component minima against centralized components.
        let g = generators::grid(3, 3);
        let holders_a: Vec<bool> = (0..9).map(|v| v % 2 == 0).collect();
        let holders_b: Vec<bool> = (0..9).map(|v| v < 6).collect();
        let tables: Vec<Vec<(u64, u64)>> = (0..9)
            .map(|v| {
                [(0, holders_a[v]), (1, holders_b[v])]
                    .into_iter()
                    .filter(|&(_, held)| held)
                    .map(|(key, _)| (key, v as u64))
                    .collect()
            })
            .collect();
        let mut sim = Simulator::new(&g, Model::VCongest);
        let out = multikey_flood(&mut sim, tables, Combine::Min).unwrap();
        for (key, holders) in [(0u64, &holders_a), (1u64, &holders_b)] {
            let keep: Vec<usize> = (0..9).filter(|&v| holders[v]).collect();
            let (sub, map) = g.induced_subgraph(&keep);
            let (labels, _) = decomp_graph::traversal::connected_components(&sub);
            for (new_u, &orig_u) in map.iter().enumerate() {
                let min_in_comp = map
                    .iter()
                    .enumerate()
                    .filter(|(new_v, _)| labels[*new_v] == labels[new_u])
                    .map(|(_, &orig)| orig as u64)
                    .min()
                    .unwrap();
                assert_eq!(get(&out[orig_u], key), Some(min_in_comp));
            }
        }
    }

    #[test]
    fn empty_tables_terminate_instantly() {
        let g = generators::path(3);
        let mut sim = Simulator::new(&g, Model::VCongest);
        let out = multikey_flood(&mut sim, vec![Vec::new(); 3], Combine::Min).unwrap();
        assert!(out.iter().all(|t| t.is_empty()));
    }

    #[test]
    fn works_in_econgest_too() {
        let g = generators::grid(3, 4);
        let mut sim = Simulator::new(&g, Model::ECongest);
        let tables: Vec<Vec<(u64, u64)>> = (0..12).map(|v| vec![(9, 100 - v as u64)]).collect();
        let out = multikey_flood(&mut sim, tables, Combine::Min).unwrap();
        for t in &out {
            assert_eq!(t, &[(9, 89)]);
        }
    }

    #[test]
    fn round_count_scales_with_key_load() {
        // More keys than fit per message -> more rounds (meta-round
        // congestion). Same topology, 1 key vs 40 keys.
        let g = generators::path(10);
        let rounds_for = |keys: u64| {
            let mut sim = Simulator::new(&g, Model::VCongest);
            let tables: Vec<Vec<(u64, u64)>> = (0..10)
                .map(|v| (0..keys).map(|k| (k, (v as u64 + k) % 7)).collect())
                .collect();
            multikey_flood(&mut sim, tables, Combine::Min).unwrap();
            sim.stats().rounds
        };
        let light = rounds_for(1);
        let heavy = rounds_for(40);
        assert!(
            heavy > light,
            "40 keys over 4-pair messages must take more rounds: {light} vs {heavy}"
        );
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn unordered_tables_are_rejected() {
        let g = generators::path(2);
        let mut sim = Simulator::new(&g, Model::VCongest);
        let tables = tables_from(&[&[(3, 0), (1, 0)], &[]]);
        let _ = multikey_flood(&mut sim, tables, Combine::Min);
    }

    #[test]
    fn find_and_get_read_key_ordered_tables() {
        let table = [(2, 20), (5, 50), (9, 90)];
        assert_eq!(find(&table, 5), Ok(1));
        assert_eq!(find(&table, 6), Err(2));
        assert_eq!(get(&table, 9), Some(90));
        assert_eq!(get(&table, 0), None);
    }
}
