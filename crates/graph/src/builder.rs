//! Edge-list builder that normalizes input into CSR form.

use crate::csr::{Graph, NodeId, Weight};
use std::collections::TryReserveError;

/// How parallel edges (same source and destination) are merged by
/// [`GraphBuilder::build`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MergePolicy {
    /// Sum the weights. This is the right semantics for community detection,
    /// where coarsening aggregates all inter-community edges into one.
    #[default]
    SumWeights,
    /// Keep the minimum weight. This is the right semantics for minimum
    /// spanning forest inputs.
    MinWeight,
}

/// Incrementally collects edges and produces a normalized [`Graph`].
///
/// Normalization sorts edges by `(src, dst)`, merges parallel edges
/// according to a [`MergePolicy`], and optionally symmetrizes the graph by
/// adding the reverse of every edge (the paper symmetrizes all inputs).
///
/// # Example
///
/// ```
/// use kimbap_graph::GraphBuilder;
///
/// let mut b = GraphBuilder::new();
/// b.add_edge(0, 1, 3);
/// b.add_edge(0, 1, 4); // parallel edge: merged (weights summed by default)
/// let g = b.symmetric(true).build();
/// assert_eq!(g.num_edges(), 2);
/// assert_eq!(g.edge_weights(0), &[7]);
/// assert_eq!(g.edge_weights(1), &[7]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct GraphBuilder {
    edges: Vec<(NodeId, NodeId, Weight)>,
    min_nodes: usize,
    symmetric: bool,
    merge: MergePolicy,
}

impl GraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a builder pre-sized for `edges` edge insertions.
    pub fn with_capacity(edges: usize) -> Self {
        GraphBuilder {
            edges: Vec::with_capacity(edges),
            ..Self::default()
        }
    }

    /// Adds a directed edge.
    pub fn add_edge(&mut self, src: NodeId, dst: NodeId, weight: Weight) -> &mut Self {
        self.edges.push((src, dst, weight));
        self
    }

    /// Ensures the built graph has at least `n` nodes even if some of them
    /// have no edges.
    pub fn ensure_nodes(&mut self, n: usize) -> &mut Self {
        self.min_nodes = self.min_nodes.max(n);
        self
    }

    /// If `true`, the reverse of every edge is added before normalization,
    /// producing a symmetric graph.
    pub fn symmetric(&mut self, yes: bool) -> &mut Self {
        self.symmetric = yes;
        self
    }

    /// Sets how parallel edges are merged. Defaults to
    /// [`MergePolicy::SumWeights`].
    pub fn merge_policy(&mut self, policy: MergePolicy) -> &mut Self {
        self.merge = policy;
        self
    }

    /// Number of edges currently collected (before merging).
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// Returns `true` if no edges have been added.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Consumes the collected edges and produces a normalized [`Graph`].
    ///
    /// The node count is `max(ensure_nodes, 1 + max node id referenced)`;
    /// building with no edges and no `ensure_nodes` yields the empty graph.
    ///
    /// # Panics
    ///
    /// Panics if the node count's offset array cannot be allocated; see
    /// [`GraphBuilder::try_build`].
    pub fn build(&mut self) -> Graph {
        self.try_build()
            .unwrap_or_else(|e| panic!("graph too large to build: {e}"))
    }

    /// [`GraphBuilder::build`], failing instead of aborting when the node
    /// count's offset array (8 bytes per node) cannot be allocated — one
    /// edge naming node `4294967295` asks for 32 GiB. The collected edges
    /// are consumed either way.
    ///
    /// # Errors
    ///
    /// Returns the allocator's error for the offset array.
    pub fn try_build(&mut self) -> Result<Graph, TryReserveError> {
        let mut edges = std::mem::take(&mut self.edges);
        if self.symmetric {
            let rev: Vec<_> = edges.iter().map(|&(s, d, w)| (d, s, w)).collect();
            edges.extend(rev);
        }
        let n = edges
            .iter()
            .map(|&(s, d, _)| s.max(d) as usize + 1)
            .max()
            .unwrap_or(0)
            .max(self.min_nodes);
        let mut offsets = Vec::new();
        offsets.try_reserve_exact(n.saturating_add(1))?;

        edges.sort_unstable_by_key(|&(s, d, _)| (s, d));
        // Merge parallel edges in place.
        let mut merged: Vec<(NodeId, NodeId, Weight)> = Vec::with_capacity(edges.len());
        for (s, d, w) in edges {
            match merged.last_mut() {
                Some(last) if last.0 == s && last.1 == d => {
                    last.2 = match self.merge {
                        MergePolicy::SumWeights => last.2 + w,
                        MergePolicy::MinWeight => last.2.min(w),
                    };
                }
                _ => merged.push((s, d, w)),
            }
        }

        offsets.resize(n + 1, 0u64);
        for &(s, _, _) in &merged {
            offsets[s as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let targets = merged.iter().map(|&(_, d, _)| d).collect();
        let weights = merged.iter().map(|&(_, _, w)| w).collect();
        Ok(Graph::from_csr(offsets, targets, weights))
    }
}

/// Builds a graph from an iterator of `(src, dst, weight)` triples,
/// symmetrizing it. Convenience wrapper over [`GraphBuilder`].
///
/// # Example
///
/// ```
/// let g = kimbap_graph::builder::from_edges([(0u32, 1u32, 1u64), (1, 2, 1)]);
/// assert!(g.is_symmetric());
/// ```
pub fn from_edges<I>(edges: I) -> Graph
where
    I: IntoIterator<Item = (NodeId, NodeId, Weight)>,
{
    let mut b = GraphBuilder::new();
    for (s, d, w) in edges {
        b.add_edge(s, d, w);
    }
    b.symmetric(true).build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_empty() {
        let g = GraphBuilder::new().build();
        assert_eq!(g.num_nodes(), 0);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn ensure_nodes_pads_isolated() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1, 1).ensure_nodes(5);
        let g = b.build();
        assert_eq!(g.num_nodes(), 5);
        assert_eq!(g.degree(4), 0);
    }

    #[test]
    fn symmetrize_adds_reverse_edges() {
        let g = from_edges([(0, 1, 2), (2, 0, 3)]);
        assert!(g.is_symmetric());
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.edge_weights(0), &[2, 3]);
    }

    #[test]
    fn merge_sum_and_min() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1, 5).add_edge(0, 1, 3);
        let g = b.build();
        assert_eq!(g.edge_weights(0), &[8]);

        let mut b = GraphBuilder::new();
        b.add_edge(0, 1, 5).add_edge(0, 1, 3);
        b.merge_policy(MergePolicy::MinWeight);
        let g = b.build();
        assert_eq!(g.edge_weights(0), &[3]);
    }

    #[test]
    fn self_loops_survive() {
        let mut b = GraphBuilder::new();
        b.add_edge(1, 1, 4);
        let g = b.build();
        assert_eq!(g.neighbors(1), &[1]);
        assert_eq!(g.weighted_degree(1), 4);
    }

    #[test]
    fn symmetrize_merges_antiparallel_duplicates() {
        // (0,1) and (1,0) both present: symmetrization creates duplicates
        // that must merge.
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1, 1).add_edge(1, 0, 1);
        let g = b.symmetric(true).build();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.edge_weights(0), &[2]);
    }

    #[test]
    fn neighbors_sorted() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 3, 1).add_edge(0, 1, 1).add_edge(0, 2, 1);
        let g = b.build();
        assert_eq!(g.neighbors(0), &[1, 2, 3]);
    }
}
