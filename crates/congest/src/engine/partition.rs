//! The sharded engine's node-to-shard split: balanced contiguous id
//! ranges.
//!
//! Shard `j` owns `starts[j]..starts[j + 1]`; the first `n % s` shards
//! get one extra node. A node's index within its shard is `v` minus the
//! shard's first id, so the split is just the `s + 1` range starts.
//!
//! The split **cannot** affect outputs, RNG streams, or any
//! [`crate::sim::RunStats`] counter except the `local_words` /
//! `cross_shard_words` locality split: per-node RNG streams are
//! engine-independent, inboxes are re-sorted by sender id before
//! delivery, and stats are commutative sums merged in shard order (see
//! [`crate::engine`]).

use decomp_graph::NodeId;
use std::ops::Range;

/// Balanced contiguous node-id ranges, stored as their `s + 1` starts
/// (`starts[s] == n`).
pub(crate) struct Partition {
    starts: Vec<NodeId>,
}

impl Partition {
    /// Splits `0..n` into `s` balanced contiguous ranges: the first
    /// `n % s` shards get one extra node.
    pub(crate) fn contiguous(n: usize, s: usize) -> Self {
        let (base, rem) = (n / s, n % s);
        let starts = (0..=s).map(|j| j * base + j.min(rem)).collect();
        Partition { starts }
    }

    /// The shard owning node `v`.
    #[inline]
    pub(crate) fn shard_of(&self, v: NodeId) -> usize {
        self.starts.partition_point(|&start| start <= v) - 1
    }

    /// The node ids owned by `shard`.
    #[inline]
    pub(crate) fn range(&self, shard: usize) -> Range<NodeId> {
        self.starts[shard]..self.starts[shard + 1]
    }

    /// Number of shards.
    pub(crate) fn num_shards(&self) -> usize {
        self.starts.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn assert_partition_invariants(part: &Partition, n: usize, s: usize, ctx: &str) {
        // Full cover: the ranges tile `0..n` in shard order, and
        // `shard_of` agrees with them.
        assert_eq!(part.num_shards(), s, "{ctx}");
        let mut next = 0;
        for shard in 0..s {
            let range = part.range(shard);
            assert_eq!(
                range.start, next,
                "{ctx}: shard {shard} starts where {shard}-1 ends"
            );
            // Balance cap: sizes differ by at most one across shards.
            assert!(
                range.len() >= n / s && range.len() <= n / s + 1,
                "{ctx}: shard {shard} has {} nodes (n={n}, s={s})",
                range.len()
            );
            for (i, v) in range.clone().enumerate() {
                assert_eq!(part.shard_of(v), shard, "{ctx}: shard_of({v})");
                assert_eq!(v - range.start, i, "{ctx}: local index of {v}");
            }
            next = range.end;
        }
        assert_eq!(next, n, "{ctx}: every node owned exactly once");
    }

    #[test]
    fn partition_is_balanced_and_invertible() {
        for n in [1usize, 2, 5, 7, 16, 33, 100] {
            for s in 1..=n.min(9) {
                let contig = Partition::contiguous(n, s);
                assert_partition_invariants(&contig, n, s, &format!("contig n={n} s={s}"));
            }
        }
    }

    #[test]
    fn contiguous_matches_historical_ranges() {
        // The first n % s shards get one extra node; ranges ascend.
        let part = Partition::contiguous(10, 4);
        assert_eq!(part.range(0), 0..3);
        assert_eq!(part.range(1), 3..6);
        assert_eq!(part.range(2), 6..8);
        assert_eq!(part.range(3), 8..10);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Random node and shard counts: balance cap, full cover, and
        /// `shard_of` consistency.
        fn contiguous_balanced_covering(n in 1usize..120, s in 1usize..10) {
            let s = s.min(n);
            let part = Partition::contiguous(n, s);
            assert_partition_invariants(&part, n, s, &format!("n={n} s={s}"));
        }
    }
}
