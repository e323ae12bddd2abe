//! Disjoint-set forest (union-find) with path halving and union by rank.
//!
//! Appendix C of the paper tracks the connected components of each class's
//! virtual subgraph with exactly this structure; it is also the engine of
//! Kruskal's MST and of Karger-sample connectivity checks.

use std::ops::Range;

/// Disjoint-set forest over elements `0..n`.
///
/// # Example
///
/// ```
/// use decomp_graph::unionfind::UnionFind;
///
/// let mut uf = UnionFind::new(4);
/// assert!(uf.union(0, 1));
/// assert!(uf.union(2, 3));
/// assert!(!uf.union(1, 0)); // already joined
/// assert!(uf.same(0, 1));
/// assert!(!uf.same(0, 2));
/// assert_eq!(uf.num_sets(), 2);
/// ```
#[derive(Clone, Debug)]
pub struct UnionFind {
    parent: Vec<usize>,
    rank: Vec<u8>,
    num_sets: usize,
}

impl UnionFind {
    /// `n` singleton sets.
    pub fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n).collect(),
            rank: vec![0; n],
            num_sets: n,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Whether the structure is empty.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Representative of `x`'s set (with path halving).
    ///
    /// # Panics
    /// Panics if `x` is out of range.
    pub fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    /// Merges the sets of `x` and `y`; returns `true` if they were distinct.
    pub fn union(&mut self, x: usize, y: usize) -> bool {
        let (mut rx, mut ry) = (self.find(x), self.find(y));
        if rx == ry {
            return false;
        }
        if self.rank[rx] < self.rank[ry] {
            std::mem::swap(&mut rx, &mut ry);
        }
        self.parent[ry] = rx;
        if self.rank[rx] == self.rank[ry] {
            self.rank[rx] += 1;
        }
        self.num_sets -= 1;
        true
    }

    /// Whether `x` and `y` are in the same set.
    pub fn same(&mut self, x: usize, y: usize) -> bool {
        self.find(x) == self.find(y)
    }

    /// Current number of disjoint sets.
    pub fn num_sets(&self) -> usize {
        self.num_sets
    }

    /// Dissolves a *closed* contiguous block of elements back into
    /// singletons.
    ///
    /// `block` must be closed under set membership: no element outside
    /// the block may share a set with an element inside it (unions that
    /// only ever touch the block — per-stride rebuilds — keep a block
    /// closed by construction). Then every root of a block element lies
    /// in the block, so the block holds as many sets as it has elements
    /// that are their own parent. Afterwards every block element is its
    /// own singleton set and `num_sets` is adjusted accordingly. Union-
    /// find cannot split, so dissolving and re-unioning the affected
    /// block from fresh data is the deletion primitive.
    ///
    /// # Panics
    /// Panics if the block reaches past the last element.
    ///
    /// # Example
    ///
    /// ```
    /// use decomp_graph::unionfind::UnionFind;
    ///
    /// let mut uf = UnionFind::new(4);
    /// uf.union(0, 1);
    /// uf.union(2, 3);
    /// uf.reset_block(0..2);
    /// assert!(!uf.same(0, 1));
    /// assert!(uf.same(2, 3)); // untouched sets keep their structure
    /// assert_eq!(uf.num_sets(), 3);
    /// ```
    pub fn reset_block(&mut self, block: Range<usize>) {
        let roots = block.clone().filter(|&x| self.parent[x] == x).count();
        self.num_sets += block.len() - roots;
        for x in block {
            self.parent[x] = x;
            self.rank[x] = 0;
        }
    }

    /// Canonical labeling: `labels[x]` is the same value for all `x` in one
    /// set, namely the smallest element of that set.
    pub fn labels(&mut self) -> Vec<usize> {
        let n = self.len();
        let mut min_of_root = vec![usize::MAX; n];
        for x in 0..n {
            let r = self.find(x);
            min_of_root[r] = min_of_root[r].min(x);
        }
        (0..n).map(|x| min_of_root[self.find(x)]).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn singletons() {
        let mut uf = UnionFind::new(3);
        assert_eq!(uf.num_sets(), 3);
        for x in 0..3 {
            assert_eq!(uf.find(x), x);
        }
    }

    #[test]
    fn union_chain() {
        let mut uf = UnionFind::new(5);
        for i in 0..4 {
            assert!(uf.union(i, i + 1));
        }
        assert_eq!(uf.num_sets(), 1);
        assert!(uf.same(0, 4));
    }

    #[test]
    fn labels_are_set_minima() {
        let mut uf = UnionFind::new(6);
        uf.union(5, 3);
        uf.union(3, 1);
        uf.union(0, 2);
        let labels = uf.labels();
        assert_eq!(labels[5], 1);
        assert_eq!(labels[3], 1);
        assert_eq!(labels[1], 1);
        assert_eq!(labels[0], 0);
        assert_eq!(labels[2], 0);
        assert_eq!(labels[4], 4);
    }

    #[test]
    fn empty() {
        let uf = UnionFind::new(0);
        assert!(uf.is_empty());
        assert_eq!(uf.num_sets(), 0);
    }

    #[test]
    fn reset_block_dissolves_only_the_block() {
        // Elements 0..4 form one closed block, 4..8 another.
        let mut uf = UnionFind::new(8);
        uf.union(0, 1);
        uf.union(1, 2);
        uf.union(4, 5);
        uf.union(6, 7);
        assert_eq!(uf.num_sets(), 3 + 1); // {0,1,2} {3} {4,5} {6,7}
        uf.reset_block(0..4);
        assert_eq!(uf.num_sets(), 6); // four singletons + {4,5} + {6,7}
        for x in 0..4 {
            assert_eq!(uf.find(x), x);
        }
        assert!(uf.same(4, 5));
        assert!(uf.same(6, 7));
        assert!(!uf.same(4, 6));
    }

    #[test]
    fn rebuild_after_reset_matches_fresh_structure() {
        let mut uf = UnionFind::new(5);
        uf.union(0, 1);
        uf.union(1, 2);
        uf.union(2, 3);
        uf.union(3, 4);
        // Dissolve everything and re-union a strict subset of the chain.
        uf.reset_block(0..5);
        uf.union(0, 1);
        uf.union(3, 4);
        let mut fresh = UnionFind::new(5);
        fresh.union(0, 1);
        fresh.union(3, 4);
        assert_eq!(uf.num_sets(), fresh.num_sets());
        assert_eq!(uf.labels(), fresh.labels());
    }

    proptest! {
        /// Union-find agrees with a naive quadratic connectivity oracle.
        fn matches_naive_oracle(ops in proptest::collection::vec((0usize..20, 0usize..20), 0..60)) {
            let n = 20;
            let mut uf = UnionFind::new(n);
            // naive: component label vector updated by full sweeps
            let mut label: Vec<usize> = (0..n).collect();
            for (x, y) in ops {
                uf.union(x, y);
                let (lx, ly) = (label[x], label[y]);
                if lx != ly {
                    for l in label.iter_mut() {
                        if *l == ly { *l = lx; }
                    }
                }
            }
            let mut distinct = label.clone();
            distinct.sort_unstable();
            distinct.dedup();
            prop_assert_eq!(uf.num_sets(), distinct.len());
            for a in 0..n {
                for b in 0..n {
                    prop_assert_eq!(uf.same(a, b), label[a] == label[b]);
                }
            }
        }
    }
}
