//! Compressed sparse row (CSR) undirected graph.
//!
//! Vertices are dense `u32` identifiers `0..n`. The adjacency of each vertex
//! is stored sorted, enabling `O(log d)` edge queries. All FASCIA kernels
//! only need `neighbors(v)` scans, which CSR serves with perfect locality —
//! the layout matters because >90% of counting time is spent streaming
//! neighbor lists against DP-table rows (paper §V-A).

/// An immutable undirected graph in CSR form.
///
/// Self-loops and parallel edges are removed at construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Graph {
    /// `offsets[v]..offsets[v+1]` indexes `adj` with v's neighbors (sorted).
    offsets: Vec<usize>,
    /// Concatenated sorted adjacency lists; every undirected edge appears
    /// twice (once per endpoint).
    adj: Vec<u32>,
}

impl Graph {
    /// Builds a graph on `n` vertices from an edge list.
    ///
    /// Edges may appear in any orientation and with duplicates; self-loops
    /// and repeated edges are dropped. Endpoints must be `< n`.
    ///
    /// # Panics
    /// Panics if any endpoint is out of range.
    pub fn from_edges(n: usize, edges: &[(u32, u32)]) -> Self {
        for &(u, v) in edges {
            assert!(
                (u as usize) < n && (v as usize) < n,
                "edge ({u}, {v}) out of range for n = {n}"
            );
        }
        // Normalize, sort, dedup; each edge then enters both endpoints'
        // lists.
        let mut norm: Vec<(u32, u32)> = edges
            .iter()
            .filter(|&&(u, v)| u != v)
            .map(|&(u, v)| if u < v { (u, v) } else { (v, u) })
            .collect();
        norm.sort_unstable();
        norm.dedup();

        let (offsets, adj) = build_csr(n, norm.iter().flat_map(|&(u, v)| [(u, v), (v, u)]));
        Self { offsets, adj }
    }

    /// Number of vertices `n`.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges `m`.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.adj.len() / 2
    }

    /// Sorted neighbor list of `v`.
    #[inline]
    pub fn neighbors(&self, v: usize) -> &[u32] {
        &self.adj[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: usize) -> usize {
        self.offsets[v + 1] - self.offsets[v]
    }

    /// Borrowed view of the adjacency, for scans that read either this
    /// graph's lists or one direction of a [`DiGraph`](crate::digraph::DiGraph)'s.
    #[inline]
    pub fn csr(&self) -> Csr<'_> {
        Csr {
            offsets: &self.offsets,
            adj: &self.adj,
        }
    }

    /// Whether the undirected edge `{u, v}` exists (binary search).
    #[inline]
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        self.neighbors(u).binary_search(&(v as u32)).is_ok()
    }

    /// Maximum vertex degree (0 for the empty graph).
    pub fn max_degree(&self) -> usize {
        (0..self.num_vertices())
            .map(|v| self.degree(v))
            .max()
            .unwrap_or(0)
    }

    /// Average vertex degree `2m / n` (0 for the empty graph).
    pub fn avg_degree(&self) -> f64 {
        if self.num_vertices() == 0 {
            return 0.0;
        }
        self.adj.len() as f64 / self.num_vertices() as f64
    }

    /// All undirected edges, each once, as `(u, v)` with `u < v`.
    pub fn edges(&self) -> Vec<(u32, u32)> {
        let mut out = Vec::with_capacity(self.num_edges());
        for u in 0..self.num_vertices() {
            for &v in self.neighbors(u) {
                if (u as u32) < v {
                    out.push((u as u32, v));
                }
            }
        }
        out
    }

    /// Approximate heap footprint in bytes.
    pub fn bytes(&self) -> usize {
        self.offsets.capacity() * std::mem::size_of::<usize>()
            + self.adj.capacity() * std::mem::size_of::<u32>()
    }
}

/// A borrowed CSR adjacency: `offsets[v]..offsets[v + 1]` indexes `adj`
/// with `v`'s sorted neighbor list. [`Graph::csr`] hands out a graph's
/// lists, and [`DiGraph`](crate::digraph::DiGraph) its out- and in-lists,
/// so a scan picks its lists once and then reads them with no branch.
#[derive(Debug, Clone, Copy)]
pub struct Csr<'a> {
    pub(crate) offsets: &'a [usize],
    pub(crate) adj: &'a [u32],
}

impl<'a> Csr<'a> {
    /// Sorted neighbor list of `v`.
    #[inline]
    pub fn neighbors(&self, v: usize) -> &'a [u32] {
        &self.adj[self.offsets[v]..self.offsets[v + 1]]
    }
}

/// Builds the CSR arrays of `n` vertices in which each arc `(u, v)` puts
/// `v` on `u`'s list; every list comes out sorted. Arcs must be in range
/// and free of self-loops and duplicates.
pub(crate) fn build_csr<I>(n: usize, arcs: I) -> (Vec<usize>, Vec<u32>)
where
    I: Iterator<Item = (u32, u32)> + Clone,
{
    // `for_each` rather than `for`: it drives a `flat_map` of arc pairs
    // as fast as a hand-written loop over the edges.
    let mut offsets = vec![0usize; n + 1];
    arcs.clone().for_each(|(u, _)| offsets[u as usize + 1] += 1);
    for v in 0..n {
        offsets[v + 1] += offsets[v];
    }
    let mut adj = vec![0u32; offsets[n]];
    let mut cursor = offsets[..n].to_vec();
    arcs.for_each(|(u, v)| {
        adj[cursor[u as usize]] = v;
        cursor[u as usize] += 1;
    });
    // Arcs arrive in any order, so sort each list to guarantee the
    // invariant.
    for v in 0..n {
        adj[offsets[v]..offsets[v + 1]].sort_unstable();
    }
    (offsets, adj)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_and_sorts_adjacency() {
        let g = Graph::from_edges(5, &[(3, 1), (0, 3), (1, 0), (4, 0)]);
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.neighbors(0), &[1, 3, 4]);
        assert_eq!(g.neighbors(3), &[0, 1]);
        assert_eq!(g.neighbors(2), &[] as &[u32]);
    }

    #[test]
    fn dedups_and_removes_self_loops() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 0), (0, 1), (2, 2)]);
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.degree(2), 0);
    }

    #[test]
    fn has_edge_both_directions() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]);
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert!(!g.has_edge(0, 2));
        assert!(!g.has_edge(1, 1));
    }

    #[test]
    fn degree_statistics() {
        // Star on 5 vertices centered at 0.
        let g = Graph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        assert_eq!(g.max_degree(), 4);
        assert!((g.avg_degree() - 8.0 / 5.0).abs() < 1e-12);
    }

    #[test]
    fn edges_round_trip() {
        let input = vec![(0u32, 1u32), (1, 2), (0, 4), (3, 4)];
        let g = Graph::from_edges(5, &input);
        let mut got = g.edges();
        got.sort_unstable();
        let mut want = input.clone();
        want.sort_unstable();
        assert_eq!(got, want);
        let g2 = Graph::from_edges(5, &got);
        assert_eq!(g, g2);
    }

    #[test]
    fn empty_graph() {
        let g = Graph::from_edges(0, &[]);
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.avg_degree(), 0.0);
    }

    #[test]
    #[should_panic]
    fn rejects_out_of_range_edge() {
        Graph::from_edges(2, &[(0, 2)]);
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn handshake_and_symmetry(
            n in 1usize..40,
            raw in proptest::collection::vec((0u32..40, 0u32..40), 0..120),
        ) {
            let edges: Vec<(u32, u32)> = raw
                .into_iter()
                .map(|(u, v)| (u % n as u32, v % n as u32))
                .collect();
            let g = Graph::from_edges(n, &edges);
            // Handshake: sum of degrees = 2m.
            let degsum: usize = (0..n).map(|v| g.degree(v)).sum();
            prop_assert_eq!(degsum, 2 * g.num_edges());
            // Symmetry: u in N(v) iff v in N(u); no self loops.
            for v in 0..n {
                for &u in g.neighbors(v) {
                    prop_assert!(u as usize != v);
                    prop_assert!(g.has_edge(u as usize, v));
                }
                // Sorted, no duplicates.
                for w in g.neighbors(v).windows(2) {
                    prop_assert!(w[0] < w[1]);
                }
            }
        }
    }
}
