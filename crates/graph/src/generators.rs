//! Graph generators for all families used in the experiments.
//!
//! The experiment harness sweeps over graphs with known edge/vertex
//! connectivity. Key families:
//!
//! * [`harary`] — the Harary graph `H_{k,n}`, the canonical *exactly*
//!   `k`-connected graph with the minimum number of edges;
//! * [`random_regular`] — random `d`-regular graphs (w.h.p. `d`-connected);
//! * [`gnp`] / [`gnm`] — Erdős–Rényi;
//! * [`clique_plus_triples`] — footnote 3's separation between dominating
//!   tree packings and vertex independent trees;
//! * [`thick_path`] — a diameter-controlled `k`-connected family (path of
//!   cliques), used to exercise the `D` term of round complexities.
//!
//! All randomized generators take an explicit `seed` so experiments are
//! reproducible.

use crate::graph::{Graph, GraphBuilder, NodeId};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Path graph `P_n`: vertices `0..n`, edges `{i, i+1}`.
pub fn path(n: usize) -> Graph {
    Graph::from_edges(n, (1..n).map(|i| (i - 1, i)))
}

/// Cycle graph `C_n`.
///
/// # Panics
/// Panics if `n < 3`.
pub fn cycle(n: usize) -> Graph {
    assert!(n >= 3, "cycle needs at least 3 vertices");
    Graph::from_edges(n, (0..n).map(|i| (i, (i + 1) % n)))
}

/// Complete graph `K_n`.
pub fn complete(n: usize) -> Graph {
    let mut b = GraphBuilder::new(n);
    for u in 0..n {
        for v in (u + 1)..n {
            b.add_edge(u, v);
        }
    }
    b.build()
}

/// Complete bipartite graph `K_{a,b}`; the left side is `0..a`.
pub fn complete_bipartite(a: usize, b: usize) -> Graph {
    let mut g = GraphBuilder::new(a + b);
    for u in 0..a {
        for v in 0..b {
            g.add_edge(u, a + v);
        }
    }
    g.build()
}

/// Star `K_{1,n-1}` with center `0`.
pub fn star(n: usize) -> Graph {
    assert!(n >= 1, "star needs at least 1 vertex");
    Graph::from_edges(n, (1..n).map(|v| (0, v)))
}

/// `rows x cols` grid graph.
pub fn grid(rows: usize, cols: usize) -> Graph {
    let idx = |r: usize, c: usize| r * cols + c;
    let mut b = GraphBuilder::new(rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            if r + 1 < rows {
                b.add_edge(idx(r, c), idx(r + 1, c));
            }
            if c + 1 < cols {
                b.add_edge(idx(r, c), idx(r, c + 1));
            }
        }
    }
    b.build()
}

/// `d`-dimensional hypercube `Q_d` on `2^d` vertices (vertex = bitstring,
/// edges flip one bit). `Q_d` is exactly `d`-connected.
pub fn hypercube(d: u32) -> Graph {
    let n = 1usize << d;
    let mut b = GraphBuilder::new(n);
    for v in 0..n {
        for bit in 0..d {
            let u = v ^ (1 << bit);
            if u > v {
                b.add_edge(v, u);
            }
        }
    }
    b.build()
}

/// Harary graph `H_{k,n}`: the minimum-edge graph on `n` vertices with
/// vertex and edge connectivity exactly `k`.
///
/// Construction (Harary 1962): place vertices on a circle; connect each
/// vertex to its `floor(k/2)` nearest neighbors on each side; if `k` is odd,
/// additionally connect diametrically opposite vertices (for even `n`), or
/// the standard near-opposite pattern for odd `n`.
///
/// # Panics
/// Panics if `k >= n` or `k < 2`.
pub fn harary(k: usize, n: usize) -> Graph {
    assert!(k >= 2 && k < n, "harary requires 2 <= k < n");
    let mut b = GraphBuilder::new(n);
    let half = k / 2;
    for v in 0..n {
        for off in 1..=half {
            b.try_add_edge(v, (v + off) % n);
        }
    }
    if k % 2 == 1 {
        if n.is_multiple_of(2) {
            for v in 0..n / 2 {
                b.try_add_edge(v, v + n / 2);
            }
        } else {
            // Odd n (Harary 1962): add edge {i, i + (n-1)/2} for
            // 0 <= i <= (n-1)/2. Exactly one vertex ends with degree k+1.
            let h = (n - 1) / 2;
            for v in 0..=h {
                b.try_add_edge(v, (v + h) % n);
            }
        }
    }
    b.build()
}

/// Erdős–Rényi `G(n, p)`: every pair independently an edge with
/// probability `p`.
pub fn gnp(n: usize, p: f64, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new(n);
    for u in 0..n {
        for v in (u + 1)..n {
            if rng.gen_bool(p.clamp(0.0, 1.0)) {
                b.add_edge(u, v);
            }
        }
    }
    b.build()
}

/// Erdős–Rényi `G(n, m)`: exactly `m` distinct edges chosen uniformly.
///
/// # Panics
/// Panics if `m > n*(n-1)/2`.
pub fn gnm(n: usize, m: usize, seed: u64) -> Graph {
    let max = n * n.saturating_sub(1) / 2;
    assert!(m <= max, "too many edges requested");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new(n);
    // Dense request: sample by shuffling all pairs; sparse: rejection-sample.
    if m * 3 > max {
        let mut pairs: Vec<(NodeId, NodeId)> = (0..n)
            .flat_map(|u| ((u + 1)..n).map(move |v| (u, v)))
            .collect();
        pairs.shuffle(&mut rng);
        for &(u, v) in pairs.iter().take(m) {
            b.add_edge(u, v);
        }
    } else {
        while b.m() < m {
            let u = rng.gen_range(0..n);
            let v = rng.gen_range(0..n);
            b.try_add_edge(u, v);
        }
    }
    b.build()
}

/// Random `d`-regular graph via degree-preserving edge switching.
///
/// Starts from the circulant `d`-regular graph (the Harary construction)
/// and applies `Θ(n·d)` random double-edge swaps, each keeping the graph
/// simple. This mixes well in practice and — unlike the naive
/// configuration model with whole-graph restarts — terminates for all `d`
/// (a uniform pairing is simple with probability only `≈ e^{−d²/4}`).
/// W.h.p. `d`-connected for `d >= 3`.
///
/// # Panics
/// Panics if `n * d` is odd or `d >= n` or `d < 2`.
pub fn random_regular(n: usize, d: usize, seed: u64) -> Graph {
    assert!((n * d).is_multiple_of(2), "n*d must be even");
    assert!((2..n).contains(&d), "degree must satisfy 2 <= d < n");
    let mut rng = StdRng::seed_from_u64(seed);
    let start = harary(d, n);
    assert!(
        start.vertices().all(|v| start.degree(v) == d),
        "the Harary start graph must be {d}-regular"
    );
    let mut edges: Vec<(NodeId, NodeId)> = start.edges().to_vec();
    // A swap keeps every degree, so `d` neighbour slots per vertex hold
    // the graph throughout: `slots[u * d..][..d]` are `u`'s neighbours.
    let mut slots: Vec<NodeId> = start
        .vertices()
        .flat_map(|v| start.neighbors(v).iter().copied())
        .collect();
    let has = |slots: &[NodeId], u: NodeId, v: NodeId| slots[u * d..][..d].contains(&v);
    let rewire = |slots: &mut [NodeId], u: NodeId, old: NodeId, new: NodeId| {
        let row = &mut slots[u * d..][..d];
        let i = row
            .iter()
            .position(|&w| w == old)
            .expect("an endpoint holds the edge its swap removes");
        row[i] = new;
    };
    let key = |u: NodeId, v: NodeId| (u.min(v), u.max(v));
    let swaps = 16 * n * d;
    let mut performed = 0usize;
    let mut attempts = 0usize;
    while performed < swaps && attempts < 64 * swaps {
        attempts += 1;
        let i = rng.gen_range(0..edges.len());
        let j = rng.gen_range(0..edges.len());
        if i == j {
            continue;
        }
        let (mut a, mut b2) = edges[i];
        let (c, dd) = edges[j];
        // Randomize orientation of the first edge for both swap variants.
        if rng.gen_bool(0.5) {
            std::mem::swap(&mut a, &mut b2);
        }
        // Proposed replacement: (a,c) and (b2,dd).
        if a == c || a == dd || b2 == c || b2 == dd {
            continue;
        }
        let e1 = key(a, c);
        let e2 = key(b2, dd);
        if has(&slots, a, c) || has(&slots, b2, dd) || e1 == e2 {
            continue;
        }
        // (a, b2), (c, dd) -> (a, c), (b2, dd): four distinct endpoints,
        // one slot each.
        rewire(&mut slots, a, b2, c);
        rewire(&mut slots, b2, a, dd);
        rewire(&mut slots, c, dd, a);
        rewire(&mut slots, dd, c, b2);
        edges[i] = e1;
        edges[j] = e2;
        performed += 1;
    }
    Graph::from_edges(n, edges)
}

/// Footnote 3's separation example: a clique of size `c`, plus one extra
/// vertex for each 3-subset of the clique, adjacent to exactly those three
/// clique vertices.
///
/// This graph has vertex connectivity 3 but admits no 2 vertex-disjoint
/// dominating trees (every dominating set must contain ≥ c−2 clique
/// vertices).
pub fn clique_plus_triples(c: usize) -> Graph {
    assert!(c >= 3, "need a clique of size >= 3");
    let triples: Vec<(usize, usize, usize)> = (0..c)
        .flat_map(|a| ((a + 1)..c).flat_map(move |b2| ((b2 + 1)..c).map(move |d| (a, b2, d))))
        .collect();
    let n = c + triples.len();
    let mut b = GraphBuilder::new(n);
    for u in 0..c {
        for v in (u + 1)..c {
            b.add_edge(u, v);
        }
    }
    for (i, &(x, y, z)) in triples.iter().enumerate() {
        let t = c + i;
        b.add_edge(t, x);
        b.add_edge(t, y);
        b.add_edge(t, z);
    }
    b.build()
}

/// A "thick path": `len` cliques of size `k`, consecutive cliques joined by
/// a complete bipartite bundle. Vertex and edge connectivity are exactly
/// `k`, and the diameter is `Θ(len)` — the family that exercises the `D`
/// term of round-complexity bounds.
pub fn thick_path(k: usize, len: usize) -> Graph {
    assert!(k >= 1 && len >= 1);
    let n = k * len;
    let idx = |block: usize, i: usize| block * k + i;
    let mut b = GraphBuilder::new(n);
    for block in 0..len {
        for i in 0..k {
            for j in (i + 1)..k {
                b.add_edge(idx(block, i), idx(block, j));
            }
        }
        if block + 1 < len {
            for i in 0..k {
                for j in 0..k {
                    b.add_edge(idx(block, i), idx(block + 1, j));
                }
            }
        }
    }
    b.build()
}

/// Barbell: two `K_c` cliques joined by a path of `bridge` extra vertices
/// (`bridge == 0` joins them by a single edge). Vertex connectivity 1 —
/// useful as an adversarial low-connectivity instance.
pub fn barbell(c: usize, bridge: usize) -> Graph {
    assert!(c >= 2);
    let n = 2 * c + bridge;
    let mut b = GraphBuilder::new(n);
    for u in 0..c {
        for v in (u + 1)..c {
            b.add_edge(u, v);
            b.add_edge(c + bridge + u, c + bridge + v);
        }
    }
    // chain: clique-0 vertex (c-1) -> bridge vertices -> clique-1 vertex 0
    let mut prev = c - 1;
    for i in 0..bridge {
        b.add_edge(prev, c + i);
        prev = c + i;
    }
    b.add_edge(prev, c + bridge);
    b.build()
}

/// Random geometric graph: `n` points uniform in the unit square, edges
/// between pairs at Euclidean distance at most `radius`. The standard
/// sensor-network / wireless model; connectivity and vertex cuts are
/// governed by local point density.
pub fn random_geometric(n: usize, radius: f64, seed: u64) -> Graph {
    assert!(radius >= 0.0, "radius must be non-negative");
    let mut rng = StdRng::seed_from_u64(seed);
    let pts: Vec<(f64, f64)> = (0..n)
        .map(|_| (rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)))
        .collect();
    let r2 = radius * radius;
    let mut b = GraphBuilder::new(n);
    for u in 0..n {
        for v in (u + 1)..n {
            let dx = pts[u].0 - pts[v].0;
            let dy = pts[u].1 - pts[v].1;
            if dx * dx + dy * dy <= r2 {
                b.add_edge(u, v);
            }
        }
    }
    b.build()
}

/// Random connected graph: a uniform random spanning tree (random Prüfer
/// sequence) plus `extra` random additional edges.
pub fn random_connected(n: usize, extra: usize, seed: u64) -> Graph {
    assert!(n >= 1);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new(n);
    if n >= 2 {
        // Random Prüfer sequence -> uniform random labeled tree.
        if n == 2 {
            b.add_edge(0, 1);
        } else {
            let prufer: Vec<usize> = (0..n - 2).map(|_| rng.gen_range(0..n)).collect();
            let mut degree = vec![1usize; n];
            for &x in &prufer {
                degree[x] += 1;
            }
            let mut leaves: std::collections::BinaryHeap<std::cmp::Reverse<usize>> = (0..n)
                .filter(|&v| degree[v] == 1)
                .map(std::cmp::Reverse)
                .collect();
            for &x in &prufer {
                let std::cmp::Reverse(leaf) = leaves.pop().expect("prufer invariant");
                b.add_edge(leaf, x);
                degree[x] -= 1;
                if degree[x] == 1 {
                    leaves.push(std::cmp::Reverse(x));
                }
            }
            let std::cmp::Reverse(u) = leaves.pop().unwrap();
            let std::cmp::Reverse(v) = leaves.pop().unwrap();
            b.add_edge(u, v);
        }
    }
    let mut added = 0;
    let mut attempts = 0;
    while added < extra && attempts < 100 * extra + 100 {
        attempts += 1;
        let u = rng.gen_range(0..n);
        let v = rng.gen_range(0..n);
        if b.try_add_edge(u, v) {
            added += 1;
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traversal::{diameter, is_connected};

    #[test]
    fn path_shape() {
        let g = path(5);
        assert_eq!(g.m(), 4);
        assert_eq!(diameter(&g), Some(4));
    }

    #[test]
    fn cycle_shape() {
        let g = cycle(6);
        assert_eq!(g.m(), 6);
        assert!(g.vertices().all(|v| g.degree(v) == 2));
    }

    #[test]
    fn complete_shape() {
        let g = complete(5);
        assert_eq!(g.m(), 10);
    }

    #[test]
    fn bipartite_shape() {
        let g = complete_bipartite(2, 3);
        assert_eq!(g.m(), 6);
        assert!(!g.has_edge(0, 1));
        assert!(g.has_edge(0, 2));
    }

    #[test]
    fn star_shape() {
        let g = star(5);
        assert_eq!(g.degree(0), 4);
        assert_eq!(g.m(), 4);
    }

    #[test]
    fn grid_shape() {
        let g = grid(3, 4);
        assert_eq!(g.n(), 12);
        assert_eq!(g.m(), 3 * 3 + 2 * 4); // vertical + horizontal
        assert_eq!(diameter(&g), Some(5));
    }

    #[test]
    fn hypercube_shape() {
        let g = hypercube(3);
        assert_eq!(g.n(), 8);
        assert_eq!(g.m(), 12);
        assert!(g.vertices().all(|v| g.degree(v) == 3));
        assert_eq!(diameter(&g), Some(3));
    }

    #[test]
    fn harary_even_k() {
        let g = harary(4, 10);
        assert!(g.vertices().all(|v| g.degree(v) == 4));
        assert_eq!(g.m(), 20);
        assert!(is_connected(&g));
    }

    #[test]
    fn harary_odd_k_even_n() {
        let g = harary(3, 8);
        assert!(g.vertices().all(|v| g.degree(v) == 3));
        assert!(is_connected(&g));
    }

    #[test]
    fn harary_odd_k_odd_n() {
        let g = harary(3, 9);
        // Odd-odd Harary: one vertex of degree k+1, rest degree k.
        let degs: Vec<usize> = g.vertices().map(|v| g.degree(v)).collect();
        assert!(degs.iter().all(|&d| d == 3 || d == 4));
        assert_eq!(degs.iter().filter(|&&d| d == 4).count(), 1);
        assert!(is_connected(&g));
    }

    #[test]
    fn harary_min_degree_is_k() {
        for k in 2..6 {
            for n in (k + 1).max(3)..14 {
                let g = harary(k, n);
                assert!(g.min_degree().unwrap() >= k, "H_{{{k},{n}}}");
                assert!(is_connected(&g));
            }
        }
    }

    #[test]
    fn gnp_extremes() {
        assert_eq!(gnp(10, 0.0, 1).m(), 0);
        assert_eq!(gnp(10, 1.0, 1).m(), 45);
    }

    #[test]
    fn gnm_exact_edges() {
        for &m in &[0, 5, 20, 45] {
            assert_eq!(gnm(10, m, 7).m(), m);
        }
    }

    #[test]
    #[should_panic(expected = "too many edges")]
    fn gnm_rejects_overfull() {
        gnm(4, 7, 0);
    }

    #[test]
    fn random_regular_is_regular() {
        for &(n, d) in &[(10, 3), (12, 4), (8, 5)] {
            let g = random_regular(n, d, 42);
            assert!(g.vertices().all(|v| g.degree(v) == d), "({n},{d})");
        }
    }

    /// The `HashSet` swap loop `random_regular` ran before its neighbour
    /// slots, kept verbatim as the reference they must reproduce.
    fn hash_set_random_regular(n: usize, d: usize, seed: u64) -> Graph {
        assert!((n * d).is_multiple_of(2), "n*d must be even");
        assert!((2..n).contains(&d), "degree must satisfy 2 <= d < n");
        let mut rng = StdRng::seed_from_u64(seed);
        let start = harary(d, n);
        let mut edges: Vec<(NodeId, NodeId)> = start.edges().to_vec();
        let mut present: std::collections::HashSet<(NodeId, NodeId)> =
            edges.iter().copied().collect();
        let key = |u: NodeId, v: NodeId| (u.min(v), u.max(v));
        let swaps = 16 * n * d;
        let mut performed = 0usize;
        let mut attempts = 0usize;
        while performed < swaps && attempts < 64 * swaps {
            attempts += 1;
            let i = rng.gen_range(0..edges.len());
            let j = rng.gen_range(0..edges.len());
            if i == j {
                continue;
            }
            let (mut a, mut b2) = edges[i];
            let (c, dd) = edges[j];
            // Randomize orientation of the first edge for both swap variants.
            if rng.gen_bool(0.5) {
                std::mem::swap(&mut a, &mut b2);
            }
            // Proposed replacement: (a,c) and (b2,dd).
            if a == c || a == dd || b2 == c || b2 == dd {
                continue;
            }
            let e1 = key(a, c);
            let e2 = key(b2, dd);
            if present.contains(&e1) || present.contains(&e2) || e1 == e2 {
                continue;
            }
            present.remove(&key(edges[i].0, edges[i].1));
            present.remove(&key(edges[j].0, edges[j].1));
            present.insert(e1);
            present.insert(e2);
            edges[i] = e1;
            edges[j] = e2;
            performed += 1;
        }
        Graph::from_edges(n, edges)
    }

    #[test]
    fn random_regular_matches_hash_set_reference() {
        // Complete graphs (d = n - 1) reject every swap; odd d exercises
        // Harary's diameter edges.
        let cases = [
            (3, 2),
            (4, 3),
            (5, 4),
            (8, 7),
            (9, 2),
            (10, 3),
            (12, 4),
            (8, 5),
            (64, 7),
            (200, 8),
            (1000, 16),
            (2000, 3),
        ];
        for (n, d) in cases {
            for seed in 0..8 {
                assert_eq!(
                    random_regular(n, d, seed).edges(),
                    hash_set_random_regular(n, d, seed).edges(),
                    "rr({n}, {d}) seed {seed}"
                );
            }
        }
    }

    #[test]
    fn random_regular_deterministic_per_seed() {
        let a = random_regular(16, 4, 9);
        let b = random_regular(16, 4, 9);
        assert_eq!(a.edges(), b.edges());
    }

    #[test]
    fn clique_plus_triples_shape() {
        let g = clique_plus_triples(4);
        // 4 clique vertices + C(4,3)=4 triple vertices
        assert_eq!(g.n(), 8);
        assert_eq!(g.m(), 6 + 12);
        for t in 4..8 {
            assert_eq!(g.degree(t), 3);
        }
    }

    #[test]
    fn thick_path_shape() {
        let g = thick_path(3, 4);
        assert_eq!(g.n(), 12);
        assert!(is_connected(&g));
        assert_eq!(diameter(&g), Some(3)); // one hop per block boundary
    }

    #[test]
    fn barbell_shape() {
        let g = barbell(4, 2);
        assert_eq!(g.n(), 10);
        assert!(is_connected(&g));
    }

    #[test]
    fn random_connected_is_connected() {
        for seed in 0..10 {
            let g = random_connected(30, 10, seed);
            assert!(is_connected(&g), "seed {seed}");
            assert_eq!(g.m(), 29 + 10);
        }
    }

    #[test]
    fn random_geometric_extremes() {
        assert_eq!(random_geometric(10, 0.0, 1).m(), 0);
        assert_eq!(random_geometric(10, 2.0, 1).m(), 45); // diameter sqrt(2) < 2
    }

    #[test]
    fn random_geometric_deterministic() {
        let a = random_geometric(30, 0.3, 7);
        let b = random_geometric(30, 0.3, 7);
        assert_eq!(a.edges(), b.edges());
    }

    #[test]
    fn random_geometric_monotone_in_radius() {
        let small = random_geometric(40, 0.2, 3);
        let large = random_geometric(40, 0.4, 3);
        assert!(large.m() >= small.m());
        for &(u, v) in small.edges() {
            assert!(large.has_edge(u, v), "edge set must be monotone");
        }
    }

    #[test]
    fn random_connected_tiny() {
        assert!(is_connected(&random_connected(1, 0, 0)));
        assert!(is_connected(&random_connected(2, 0, 0)));
        assert!(is_connected(&random_connected(3, 0, 0)));
    }
}
