//! Directed graphs (CSR, both directions).
//!
//! The paper notes the color-coding algorithm "theoretically allows for
//! directed templates and networks" but only implements the undirected
//! case; this substrate provides the directed side of that extension
//! (used by `fascia-core::directed`). Arcs are stored twice — an
//! out-adjacency and an in-adjacency — because the DP walks whichever
//! direction the template arc under the current edge cut demands.

use crate::csr::{build_csr, Csr, Graph};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// An immutable directed graph; both adjacency directions materialized.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiGraph {
    out_offsets: Vec<usize>,
    out_adj: Vec<u32>,
    in_offsets: Vec<usize>,
    in_adj: Vec<u32>,
}

impl DiGraph {
    /// Builds from an arc list (`u -> v`). Self-loops and duplicate arcs
    /// are dropped; antiparallel pairs are allowed.
    ///
    /// # Panics
    /// Panics if an endpoint is out of range.
    pub fn from_arcs(n: usize, arcs: &[(u32, u32)]) -> Self {
        for &(u, v) in arcs {
            assert!(
                (u as usize) < n && (v as usize) < n,
                "arc ({u}, {v}) out of range for n = {n}"
            );
        }
        let mut norm: Vec<(u32, u32)> = arcs.iter().copied().filter(|&(u, v)| u != v).collect();
        norm.sort_unstable();
        norm.dedup();
        let (out_offsets, out_adj) = build_csr(n, norm.iter().copied());
        let (in_offsets, in_adj) = build_csr(n, norm.iter().map(|&(u, v)| (v, u)));
        Self {
            out_offsets,
            out_adj,
            in_offsets,
            in_adj,
        }
    }

    /// Orients every undirected edge of `g` in a uniformly random
    /// direction (seeded) — the standard synthetic directed workload.
    pub fn orient_randomly(g: &Graph, seed: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        let arcs: Vec<(u32, u32)> = g
            .edges()
            .into_iter()
            .map(|(u, v)| if rng.gen_bool(0.5) { (u, v) } else { (v, u) })
            .collect();
        Self::from_arcs(g.num_vertices(), &arcs)
    }

    /// The underlying undirected graph (arc directions dropped).
    pub fn underlying(&self) -> Graph {
        let mut edges = Vec::with_capacity(self.num_arcs());
        for u in 0..self.num_vertices() {
            for &v in self.out_neighbors(u) {
                edges.push((u as u32, v));
            }
        }
        Graph::from_edges(self.num_vertices(), &edges)
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.out_offsets.len() - 1
    }

    /// Number of arcs.
    #[inline]
    pub fn num_arcs(&self) -> usize {
        self.out_adj.len()
    }

    /// Sorted out-neighbors of `v`.
    #[inline]
    pub fn out_neighbors(&self, v: usize) -> &[u32] {
        &self.out_adj[self.out_offsets[v]..self.out_offsets[v + 1]]
    }

    /// Sorted in-neighbors of `v`.
    #[inline]
    pub fn in_neighbors(&self, v: usize) -> &[u32] {
        &self.in_adj[self.in_offsets[v]..self.in_offsets[v + 1]]
    }

    /// Borrowed view of the out-adjacency.
    #[inline]
    pub fn out_csr(&self) -> Csr<'_> {
        Csr {
            offsets: &self.out_offsets,
            adj: &self.out_adj,
        }
    }

    /// Borrowed view of the in-adjacency.
    #[inline]
    pub fn in_csr(&self) -> Csr<'_> {
        Csr {
            offsets: &self.in_offsets,
            adj: &self.in_adj,
        }
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn out_degree(&self, v: usize) -> usize {
        self.out_offsets[v + 1] - self.out_offsets[v]
    }

    /// In-degree of `v`.
    #[inline]
    pub fn in_degree(&self, v: usize) -> usize {
        self.in_offsets[v + 1] - self.in_offsets[v]
    }

    /// Whether the arc `u -> v` exists.
    #[inline]
    pub fn has_arc(&self, u: usize, v: usize) -> bool {
        self.out_neighbors(u).binary_search(&(v as u32)).is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::gnm;

    #[test]
    fn builds_both_directions() {
        let g = DiGraph::from_arcs(4, &[(0, 1), (1, 2), (2, 0), (0, 2)]);
        assert_eq!(g.num_arcs(), 4);
        assert_eq!(g.out_neighbors(0), &[1, 2]);
        assert_eq!(g.in_neighbors(0), &[2]);
        assert!(g.has_arc(0, 1));
        assert!(!g.has_arc(1, 0));
        assert_eq!(g.out_degree(0), 2);
        assert_eq!(g.in_degree(2), 2);
    }

    #[test]
    fn dedups_and_drops_self_loops() {
        let g = DiGraph::from_arcs(3, &[(0, 1), (0, 1), (1, 1)]);
        assert_eq!(g.num_arcs(), 1);
    }

    #[test]
    fn in_out_degree_sums_match() {
        let und = gnm(50, 150, 3);
        let g = DiGraph::orient_randomly(&und, 9);
        assert_eq!(g.num_arcs(), 150);
        let outs: usize = (0..50).map(|v| g.out_degree(v)).sum();
        let ins: usize = (0..50).map(|v| g.in_degree(v)).sum();
        assert_eq!(outs, 150);
        assert_eq!(ins, 150);
        // Each undirected edge appears exactly once as an arc.
        for v in 0..50 {
            for &u in g.out_neighbors(v) {
                assert!(und.has_edge(v, u as usize));
                assert!(!g.has_arc(u as usize, v), "edge oriented once");
            }
        }
    }

    #[test]
    fn underlying_round_trip() {
        let und = gnm(30, 80, 7);
        let g = DiGraph::orient_randomly(&und, 1);
        assert_eq!(g.underlying(), und);
    }

    #[test]
    fn orientation_is_deterministic() {
        let und = gnm(20, 50, 5);
        assert_eq!(
            DiGraph::orient_randomly(&und, 2),
            DiGraph::orient_randomly(&und, 2)
        );
        assert_ne!(
            DiGraph::orient_randomly(&und, 2),
            DiGraph::orient_randomly(&und, 3)
        );
    }

    #[test]
    #[should_panic]
    fn rejects_out_of_range() {
        DiGraph::from_arcs(2, &[(0, 5)]);
    }
}
