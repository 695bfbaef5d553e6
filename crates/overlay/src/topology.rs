//! The neighbor relation `D(s)`.
//!
//! §3: "each node randomly selects d nodes as its neighbors" (d = 5 in the
//! paper's experiments). The relation is directed — `v ∈ D(s)` does not
//! imply `s ∈ D(v)` — matching the paper's phrasing that each node
//! *maintains information about* its own d potential forwarders.

use idpa_desim::rng::Xoshiro256StarStar;
use rand::RngExt;

use crate::node::NodeId;

/// A directed, fixed-out-degree neighbor relation over `n` nodes, stored
/// as one flat CSR array: node `s`'s neighbors are
/// `neighbors[offsets[s]..offsets[s + 1]]` (sorted when sampled by
/// [`Topology::random`], in the given order from [`Topology::from_lists`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    neighbors: Vec<NodeId>,
    offsets: Vec<usize>,
    degree: usize,
}

impl Topology {
    /// Samples a topology where every node independently picks `degree`
    /// distinct random neighbors (never itself).
    ///
    /// Panics if `degree >= n` (a node cannot have `n` distinct non-self
    /// neighbors) or `n == 0`.
    #[must_use]
    pub fn random(n: usize, degree: usize, rng: &mut Xoshiro256StarStar) -> Self {
        assert!(n > 0, "empty topology");
        assert!(
            degree < n,
            "degree {degree} impossible with {n} nodes (needs degree < n)"
        );
        // Partial Fisher-Yates over the candidate set {0..n} \ {s}, run
        // *sparsely*: the candidate array is never materialized. Position
        // `i` of the virtual array holds `i` (or `i + 1` once past the
        // excluded self entry); the handful of slots an earlier swap
        // displaced live in a short list of `(position, value)` entries —
        // at most one per draw, so a linear scan of at most `degree`
        // entries beats any hash map at the paper's d = 5. The draws are
        // `random_range(k..n-1)` either way — bounds depend only on `n`,
        // not on array contents — so the bit stream, and therefore every
        // sampled topology, is identical to the dense construction at O(d²)
        // instead of O(n) per node.
        let mut displaced: Vec<(usize, usize)> = Vec::with_capacity(degree);
        let mut neighbors = Vec::with_capacity(n * degree);
        for s in 0..n {
            displaced.clear();
            let at = |displaced: &[(usize, usize)], i: usize| {
                displaced
                    .iter()
                    .find(|&&(pos, _)| pos == i)
                    .map_or(if i < s { i } else { i + 1 }, |&(_, v)| v)
            };
            let start = neighbors.len();
            for k in 0..degree {
                let pick = rng.random_range(k..n - 1);
                let picked = at(&displaced, pick);
                // Complete the swap: position `pick` inherits position `k`'s
                // value. Position `k` itself is never read again (later
                // draws range over `k+1..`), so only this half matters.
                let at_k = at(&displaced, k);
                match displaced.iter_mut().find(|(pos, _)| *pos == pick) {
                    Some(entry) => entry.1 = at_k,
                    None => displaced.push((pick, at_k)),
                }
                neighbors.push(NodeId(picked));
            }
            neighbors[start..].sort_unstable();
        }
        Topology {
            neighbors,
            offsets: (0..=n).map(|s| s * degree).collect(),
            degree,
        }
    }

    /// Builds a topology from explicit adjacency lists (used by tests and
    /// the worked example of Figs. 1–2). Validates no self-loops and no
    /// duplicate neighbors; lists may differ in length, and the configured
    /// degree is the longest.
    #[must_use]
    pub fn from_lists(lists: Vec<Vec<NodeId>>) -> Self {
        let n = lists.len();
        let mut degree = 0;
        let mut neighbors = Vec::with_capacity(lists.iter().map(Vec::len).sum());
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0);
        for (s, nbrs) in lists.iter().enumerate() {
            degree = degree.max(nbrs.len());
            let mut seen = std::collections::HashSet::new();
            for &v in nbrs {
                assert!(v.index() < n, "neighbor {v} out of range");
                assert!(v.index() != s, "self-loop at {s}");
                assert!(seen.insert(v), "duplicate neighbor {v} at node {s}");
            }
            neighbors.extend_from_slice(nbrs);
            offsets.push(neighbors.len());
        }
        Topology {
            neighbors,
            offsets,
            degree,
        }
    }

    /// Number of nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether the topology has no nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The configured out-degree `d`.
    #[must_use]
    pub fn degree(&self) -> usize {
        self.degree
    }

    /// The neighbor set `D(s)`.
    #[inline]
    #[must_use]
    pub fn neighbors(&self, s: NodeId) -> &[NodeId] {
        &self.neighbors[self.offsets[s.index()]..self.offsets[s.index() + 1]]
    }

    /// Every node's neighbor set as an owned list — the mutable per-node
    /// copy a probe store that replaces neighbors starts from.
    #[must_use]
    pub fn neighbor_lists(&self) -> Vec<Vec<NodeId>> {
        (0..self.len())
            .map(|s| self.neighbors(NodeId(s)).to_vec())
            .collect()
    }

    /// Whether `v ∈ D(s)`. A linear scan: `from_lists` keeps its lists in
    /// the given order, so they need not be sorted.
    #[must_use]
    pub fn is_neighbor(&self, s: NodeId, v: NodeId) -> bool {
        self.neighbors(s).contains(&v)
    }

    /// Nodes that have `v` in their neighbor set (the reverse relation);
    /// O(n·d), intended for analysis, not hot paths.
    #[must_use]
    pub fn reverse_neighbors(&self, v: NodeId) -> Vec<NodeId> {
        (0..self.len())
            .map(NodeId)
            .filter(|&s| s != v && self.is_neighbor(s, v))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng(seed: u64) -> Xoshiro256StarStar {
        Xoshiro256StarStar::seed_from_u64(seed)
    }

    #[test]
    fn random_topology_has_exact_degree() {
        let t = Topology::random(40, 5, &mut rng(1));
        assert_eq!(t.len(), 40);
        assert_eq!(t.degree(), 5);
        for s in 0..40 {
            assert_eq!(t.neighbors(NodeId(s)).len(), 5);
        }
    }

    #[test]
    fn no_self_loops_or_duplicates() {
        let t = Topology::random(40, 5, &mut rng(2));
        for s in 0..40 {
            let nbrs = t.neighbors(NodeId(s));
            assert!(nbrs.iter().all(|v| v.index() != s));
            let mut uniq = nbrs.to_vec();
            uniq.dedup();
            assert_eq!(uniq.len(), nbrs.len());
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let a = Topology::random(20, 4, &mut rng(3));
        let b = Topology::random(20, 4, &mut rng(3));
        assert_eq!(a, b);
    }

    #[test]
    fn is_neighbor_agrees_with_lists() {
        let t = Topology::random(15, 3, &mut rng(4));
        for s in 0..15 {
            for v in 0..15 {
                let expect = t.neighbors(NodeId(s)).contains(&NodeId(v));
                assert_eq!(t.is_neighbor(NodeId(s), NodeId(v)), expect);
            }
        }
    }

    #[test]
    fn reverse_neighbors_inverts_relation() {
        let t = Topology::random(12, 3, &mut rng(5));
        for v in 0..12 {
            for s in t.reverse_neighbors(NodeId(v)) {
                assert!(t.is_neighbor(s, NodeId(v)));
            }
        }
    }

    #[test]
    fn degree_saturates_at_n_minus_1() {
        let t = Topology::random(5, 4, &mut rng(6));
        for s in 0..5 {
            assert_eq!(t.neighbors(NodeId(s)).len(), 4);
        }
    }

    #[test]
    #[should_panic(expected = "needs degree < n")]
    fn rejects_impossible_degree() {
        let _ = Topology::random(5, 5, &mut rng(7));
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn from_lists_rejects_self_loop() {
        let _ = Topology::from_lists(vec![vec![NodeId(0)]]);
    }

    #[test]
    #[should_panic(expected = "duplicate neighbor")]
    fn from_lists_rejects_duplicates() {
        let _ = Topology::from_lists(vec![vec![NodeId(1), NodeId(1)], vec![]]);
    }

    #[test]
    fn sparse_sampling_matches_dense_reference() {
        // The shipped sampler simulates the candidate array sparsely; this
        // pins it bit-for-bit against the dense partial Fisher-Yates it
        // replaced, across self-exclusion positions and near-full degrees.
        // The near-full and high-degree cases make picks land many times
        // on already-displaced slots; the seeded tuples cover the rest.
        let mut cases = vec![
            (40usize, 5usize, 1u64),
            (17, 16, 2),
            (300, 3, 9),
            (6, 5, 10),
            (64, 63, 11),
            (200, 150, 12),
            (2000, 64, 13),
        ];
        let mut r = rng(99);
        for _ in 0..20 {
            let n = r.random_range(2..400);
            let d = r.random_range(1..n);
            cases.push((n, d, r.next()));
        }
        for (n, d, seed) in cases {
            let sparse = Topology::random(n, d, &mut rng(seed));
            let mut r = rng(seed);
            let mut lists = Vec::new();
            for s in 0..n {
                let mut candidates: Vec<usize> = (0..n).filter(|&v| v != s).collect();
                let mut chosen = Vec::with_capacity(d);
                for k in 0..d {
                    let pick = r.random_range(k..candidates.len());
                    candidates.swap(k, pick);
                    chosen.push(NodeId(candidates[k]));
                }
                chosen.sort_unstable();
                lists.push(chosen);
            }
            assert_eq!(
                sparse,
                Topology::from_lists(lists),
                "n={n} d={d} seed={seed}"
            );
        }
    }

    #[test]
    fn from_lists_round_trips_unequal_degrees_through_csr() {
        let lists = vec![
            vec![NodeId(4), NodeId(1), NodeId(3)],
            vec![],
            vec![NodeId(0)],
            vec![NodeId(0), NodeId(1), NodeId(2), NodeId(4)],
            vec![NodeId(2), NodeId(3)],
        ];
        let t = Topology::from_lists(lists.clone());
        assert_eq!(t.len(), 5);
        assert_eq!(t.degree(), 4);
        for (s, nbrs) in lists.iter().enumerate() {
            assert_eq!(t.neighbors(NodeId(s)), nbrs.as_slice(), "node {s}");
        }
        assert_eq!(t.neighbor_lists(), lists);
        assert!(t.is_neighbor(NodeId(3), NodeId(2)));
        // Unsorted lists keep their order and still answer membership.
        assert!(t.is_neighbor(NodeId(0), NodeId(4)));
        assert!(!t.is_neighbor(NodeId(1), NodeId(0)));
    }

    #[test]
    fn neighbor_choice_is_roughly_uniform() {
        // Aggregate in-degree over many topologies should be near-uniform.
        let n = 10;
        let mut indeg = vec![0usize; n];
        let mut r = rng(8);
        for _ in 0..2000 {
            let t = Topology::random(n, 3, &mut r);
            for s in 0..n {
                for v in t.neighbors(NodeId(s)) {
                    indeg[v.index()] += 1;
                }
            }
        }
        let total: usize = indeg.iter().sum();
        let expected = total as f64 / n as f64;
        for (i, &c) in indeg.iter().enumerate() {
            assert!(
                (c as f64 - expected).abs() / expected < 0.05,
                "node {i} in-degree {c} vs expected {expected}"
            );
        }
    }
}
