//! Property-based tests for graph construction invariants.

use kimbap_graph::builder::{from_edges, MergePolicy};
use kimbap_graph::{gen, io, GraphBuilder};
use proptest::prelude::*;

fn edge_list() -> impl Strategy<Value = Vec<(u32, u32, u64)>> {
    prop::collection::vec((0u32..64, 0u32..64, 1u64..100), 0..200)
}

proptest! {
    #[test]
    fn built_graphs_are_symmetric(edges in edge_list()) {
        let g = from_edges(edges);
        prop_assert!(g.is_symmetric());
    }

    #[test]
    fn neighbors_sorted_and_unique(edges in edge_list()) {
        let g = from_edges(edges);
        for u in g.nodes() {
            let ns = g.neighbors(u);
            prop_assert!(ns.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn total_weight_preserved_by_sum_merge(edges in edge_list()) {
        // Without symmetrization, SumWeights merging preserves total weight.
        let expected: u64 = edges.iter().map(|&(_, _, w)| w).sum();
        let mut b = GraphBuilder::new();
        for (s, d, w) in &edges {
            b.add_edge(*s, *d, *w);
        }
        let g = b.build();
        prop_assert_eq!(g.total_weight(), expected);
    }

    #[test]
    fn min_merge_keeps_minimum(edges in edge_list()) {
        let mut b = GraphBuilder::new();
        for (s, d, w) in &edges {
            b.add_edge(*s, *d, *w);
        }
        b.merge_policy(MergePolicy::MinWeight);
        let g = b.build();
        for &(s, d, w) in &edges {
            let stored = g
                .edges(s)
                .find(|&(t, _)| t == d)
                .map(|(_, sw)| sw)
                .expect("edge present");
            prop_assert!(stored <= w);
        }
    }

    #[test]
    fn degree_sums_to_edge_count(edges in edge_list()) {
        let g = from_edges(edges);
        let sum: usize = g.nodes().map(|u| g.degree(u)).sum();
        prop_assert_eq!(sum, g.num_edges());
    }

    #[test]
    fn rmat_edge_bound(scale in 4u32..9, ef in 1usize..8, seed in 0u64..50) {
        let g = gen::rmat(scale, ef, seed);
        // Symmetrized and deduped: at most 2 * nominal edges.
        prop_assert!(g.num_edges() <= 2 * ef * (1 << scale));
        prop_assert!(g.is_symmetric());
    }

    // Differential: the compressed tier must answer every accessor exactly
    // like raw CSR, on arbitrary graphs (degree-0 nodes included — ids up
    // to 63 with as few as 0 edges leave isolated tails).
    #[test]
    fn compressed_tier_is_indistinguishable(edges in edge_list()) {
        let g = from_edges(edges);
        let c = g.compress();
        prop_assert!(c.is_compressed());
        prop_assert_eq!(g.num_nodes(), c.num_nodes());
        prop_assert_eq!(g.num_edges(), c.num_edges());
        prop_assert_eq!(g.total_weight(), c.total_weight());
        prop_assert_eq!(g.max_degree(), c.max_degree());
        for u in g.nodes() {
            prop_assert_eq!(g.degree(u), c.degree(u));
            prop_assert_eq!(&g.neighbors(u)[..], &c.neighbors(u)[..]);
            prop_assert_eq!(&g.edge_weights(u)[..], &c.edge_weights(u)[..]);
            prop_assert_eq!(
                g.edges(u).collect::<Vec<_>>(),
                c.edges(u).collect::<Vec<_>>()
            );
            prop_assert_eq!(g.weighted_degree(u), c.weighted_degree(u));
        }
        prop_assert_eq!(c.decompress(), g);
    }

    // Weight extremes: u64::MAX weights and a max-degree hub (node 0
    // linked to everyone) survive the varint roundtrip.
    #[test]
    fn compressed_survives_hubs_and_weight_extremes(
        n in 2u32..80,
        extreme in prop::collection::vec(prop::bool::ANY, 1..80),
    ) {
        let mut b = GraphBuilder::new();
        for v in 1..n {
            let w = if extreme[(v as usize - 1) % extreme.len()] {
                u64::MAX >> 10 // huge, but total_weight must not overflow
            } else {
                1
            };
            b.add_edge(0, v, w);
        }
        let g = b.symmetric(true).build();
        let c = g.compress();
        prop_assert_eq!(g.max_degree(), n as usize - 1);
        for u in g.nodes() {
            prop_assert_eq!(
                g.edges(u).collect::<Vec<_>>(),
                c.edges(u).collect::<Vec<_>>()
            );
        }
        prop_assert_eq!(c.total_weight(), g.total_weight());
    }
}

/// `g` in the `.kg` binary format.
fn kg_bytes(g: &kimbap_graph::Graph) -> Vec<u8> {
    let mut buf = Vec::new();
    io::write_binary(g, &mut buf).unwrap();
    buf
}

proptest! {
    /// Hostile input never panics or aborts the `.kg` reader: truncating a
    /// valid file at any point, inflating a header count (up to 2^40 and
    /// u64::MAX, which must not be allocated up front), making the offsets
    /// decrease, or feeding garbage with or without the magic all yield a
    /// clean `Err`; bit flips yield `Ok` or `Err`, never a panic. The
    /// untouched file still round-trips.
    #[test]
    fn binary_reader_survives_truncation_and_garbage(
        edges in edge_list(),
        cut in 0usize..100_000,
        field in 0usize..2,
        inflate in 0u64..u64::MAX,
        shift in 0u32..64,
        at in 0usize..100_000,
        flips in prop::collection::vec((0usize..100_000, 0u8..=255), 0..8),
        garbage in prop::collection::vec(0u8..=255, 0..96),
    ) {
        let g = from_edges(edges);
        let kg = kg_bytes(&g);
        prop_assert!(io::read_binary(&kg[..]).unwrap() == g);
        let (n, m) = (g.num_nodes() as u64, g.num_edges() as u64);

        prop_assert!(io::read_binary(&kg[..cut % kg.len()]).is_err());

        // A count larger than the file holds: anything from one past the
        // real count to u64::MAX (`shift` spreads the draws over every
        // magnitude).
        let real = if field == 0 { n } else { m };
        let claimed = real.saturating_add(1).max(inflate >> shift);
        let mut inflated = kg.clone();
        let range = 8 + 8 * field..16 + 8 * field;
        inflated[range].copy_from_slice(&claimed.to_le_bytes());
        prop_assert!(io::read_binary(&inflated[..]).is_err());

        // Some offset pushed past the edge count.
        if n > 0 {
            let mut decreasing = kg.clone();
            let pos = 24 + 8 * (at % n as usize);
            decreasing[pos..pos + 8].copy_from_slice(&(m + 1).to_le_bytes());
            prop_assert!(io::read_binary(&decreasing[..]).is_err());
        }

        let mut mangled = kg.clone();
        for &(pos, mask) in &flips {
            mangled[pos % kg.len()] ^= mask;
        }
        let _ = io::read_binary(&mangled[..]);

        prop_assert!(io::read_binary(&garbage[..]).is_err());
        let mut behind_magic = b"KIMBAPG1".to_vec();
        behind_magic.extend_from_slice(&garbage);
        prop_assert!(io::read_binary(&behind_magic[..]).is_err());
    }
}
