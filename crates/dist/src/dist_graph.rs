//! One host's partition of the graph.

use crate::ownership::Ownership;
use crate::policy::Policy;
use kimbap_graph::store::{EdgeIter, GraphStore, NeighborsRef, TargetIter};
use kimbap_graph::NodeId;
use std::fmt;

/// Identifier of a proxy node local to one host. Local ids `0..num_masters`
/// are masters (ordered by global id); the rest are mirrors (also ordered by
/// global id).
pub type LocalId = u32;

/// One host's partition: a local CSR over proxy nodes, plus the metadata
/// needed to translate ids and synchronize with other hosts.
///
/// Produced by [`crate::partition`]. The local graph contains exactly the
/// directed edges the [`Policy`] assigned to this host; proxies exist for
/// all owned nodes (masters, even if locally isolated) and for every
/// non-owned endpoint of a local edge (mirrors).
///
/// Equality compares every field, so two partitions are equal exactly when
/// they hold the same proxies, edges (in the same order) and mirror lists.
#[derive(PartialEq, Eq)]
pub struct DistGraph {
    pub(crate) host: usize,
    pub(crate) ownership: Ownership,
    pub(crate) policy: Policy,
    /// Global id of each local proxy; masters first, then mirrors, each
    /// sorted by global id.
    pub(crate) l2g: Vec<NodeId>,
    pub(crate) num_masters: usize,
    /// Local CSR over proxy ids — raw arrays or the compressed tier.
    pub(crate) store: GraphStore,
    /// Transpose of the local CSR: for each proxy, the local sources of
    /// its in-edges. Maps an updated node to the dependents that read it
    /// through `ForEdges` — the fan-in the frontier scheduler follows.
    pub(crate) in_offsets: Vec<u64>,
    pub(crate) in_sources: Vec<LocalId>,
    /// For each peer host `h`: sorted global ids of *my masters* that have a
    /// mirror proxy on `h` (what a broadcast to `h` must cover).
    pub(crate) mirrors_on_peer: Vec<Vec<NodeId>>,
    /// Dense global-id → mirror-slot table (`NO_MIRROR` = no mirror proxy
    /// here). Mirror slot `s` is local id `num_masters + s`. Trades one
    /// `u32` per global node for O(1) mirror resolution on the read hot
    /// path — the sorted `l2g` tail stays authoritative for iteration
    /// order and the wire format.
    pub(crate) mirror_slot_of: Vec<u32>,
}

/// Vacant entry in [`DistGraph::mirror_slot_of`].
pub(crate) const NO_MIRROR: u32 = u32::MAX;

impl DistGraph {
    /// This host's id.
    pub fn host(&self) -> usize {
        self.host
    }

    /// Number of hosts in the partitioning.
    pub fn num_hosts(&self) -> usize {
        self.ownership.num_hosts()
    }

    /// The node-ownership map shared by all hosts.
    pub fn ownership(&self) -> &Ownership {
        &self.ownership
    }

    /// The policy this partition was built with.
    pub fn policy(&self) -> Policy {
        self.policy
    }

    /// Total nodes in the *global* graph.
    pub fn num_global_nodes(&self) -> usize {
        self.ownership.num_nodes()
    }

    /// Number of local proxies (masters + mirrors).
    pub fn num_local_nodes(&self) -> usize {
        self.l2g.len()
    }

    /// Number of masters on this host.
    pub fn num_masters(&self) -> usize {
        self.num_masters
    }

    /// Number of mirror proxies on this host.
    pub fn num_mirrors(&self) -> usize {
        self.l2g.len() - self.num_masters
    }

    /// Number of directed edges stored on this host.
    pub fn num_local_edges(&self) -> usize {
        self.store.num_edges()
    }

    /// `true` if the local CSR is stored on the compressed tier.
    pub fn is_compressed(&self) -> bool {
        self.store.is_compressed()
    }

    /// `true` if this partition split any hub's edge list across hosts —
    /// when set, mirrors may carry out-edges and algorithms that assumed
    /// the pure edge-cut invariant must consult all proxies' edges.
    pub fn has_split_hubs(&self) -> bool {
        self.policy.splits_hubs() && self.ownership.has_hubs()
    }

    /// In-memory bytes of this host's partition: the local CSR store plus
    /// the transpose, id maps, and mirror metadata.
    pub fn size_bytes(&self) -> usize {
        self.store.size_bytes()
            + self.in_offsets.capacity() * std::mem::size_of::<u64>()
            + self.in_sources.capacity() * std::mem::size_of::<LocalId>()
            + self.l2g.capacity() * std::mem::size_of::<NodeId>()
            + self.mirror_slot_of.capacity() * std::mem::size_of::<u32>()
            + self
                .mirrors_on_peer
                .iter()
                .map(|v| v.capacity() * std::mem::size_of::<NodeId>())
                .sum::<usize>()
    }

    /// Global id of local proxy `l`.
    ///
    /// # Panics
    ///
    /// Panics if `l` is out of range.
    pub fn local_to_global(&self, l: LocalId) -> NodeId {
        self.l2g[l as usize]
    }

    /// Local proxy id for global node `g`, if `g` has a proxy here.
    pub fn global_to_local(&self, g: NodeId) -> Option<LocalId> {
        if self.ownership.owner(g) == self.host {
            return Some(self.ownership.master_offset(g) as LocalId);
        }
        self.mirror_slot(g)
            .map(|s| self.num_masters as LocalId + s)
    }

    /// Dense mirror slot of global node `g` (`0 .. num_mirrors`, ordered
    /// by global id), or `None` if `g` has no mirror proxy here. O(1):
    /// backed by a dense per-global-node table. Mirror slot `s`
    /// corresponds to local id `num_masters + s`.
    ///
    /// # Panics
    ///
    /// Panics if `g` is outside the global node space.
    #[inline]
    pub fn mirror_slot(&self, g: NodeId) -> Option<u32> {
        let s = self.mirror_slot_of[g as usize];
        (s != NO_MIRROR).then_some(s)
    }

    /// `true` if local proxy `l` is a master.
    pub fn is_master(&self, l: LocalId) -> bool {
        (l as usize) < self.num_masters
    }

    /// Iterates local ids of all proxies.
    pub fn local_nodes(&self) -> impl Iterator<Item = LocalId> {
        0..self.num_local_nodes() as LocalId
    }

    /// Iterates local ids of masters only.
    pub fn master_nodes(&self) -> impl Iterator<Item = LocalId> {
        0..self.num_masters as LocalId
    }

    /// Iterates local ids of mirrors only.
    pub fn mirror_nodes(&self) -> impl Iterator<Item = LocalId> {
        self.num_masters as LocalId..self.num_local_nodes() as LocalId
    }

    /// Global ids of this host's mirror proxies (sorted).
    pub fn mirror_globals(&self) -> &[NodeId] {
        &self.l2g[self.num_masters..]
    }

    /// Out-degree of local proxy `l` on this host.
    ///
    /// # Panics
    ///
    /// Panics if `l` is out of range.
    pub fn degree(&self, l: LocalId) -> usize {
        self.store.degree(l)
    }

    /// Local out-neighbors of proxy `l` — borrowed on the raw tier,
    /// decoded into a per-thread scratch buffer on the compressed tier.
    ///
    /// # Panics
    ///
    /// Panics if `l` is out of range.
    pub fn neighbors(&self, l: LocalId) -> NeighborsRef<'_> {
        self.store.neighbors(l)
    }

    /// Iterates `(local_neighbor, weight)` of proxy `l`'s out-edges.
    ///
    /// # Panics
    ///
    /// Panics if `l` is out of range.
    pub fn edges(&self, l: LocalId) -> EdgeIter<'_> {
        self.store.edges(l)
    }

    /// Iterates just the targets of `l`'s local out-edges — the path for
    /// weight-blind algorithms (no weight decode on the compressed tier).
    ///
    /// # Panics
    ///
    /// Panics if `l` is out of range.
    pub fn targets(&self, l: LocalId) -> TargetIter<'_> {
        self.store.targets(l)
    }

    /// In-degree of local proxy `l` (edges of the local CSR ending at `l`).
    ///
    /// # Panics
    ///
    /// Panics if `l` is out of range.
    pub fn in_degree(&self, l: LocalId) -> usize {
        let l = l as usize;
        (self.in_offsets[l + 1] - self.in_offsets[l]) as usize
    }

    /// Local in-neighbors of proxy `l`: every proxy with a local out-edge
    /// ending at `l` (sorted; parallel edges contribute one entry each).
    /// When a property keyed by `l` changes, these are the nodes whose
    /// adjacent-key reads observe the change.
    ///
    /// # Panics
    ///
    /// Panics if `l` is out of range.
    pub fn in_neighbors(&self, l: LocalId) -> &[LocalId] {
        let l = l as usize;
        &self.in_sources[self.in_offsets[l] as usize..self.in_offsets[l + 1] as usize]
    }

    /// Sum of local edge weights of proxy `l`.
    ///
    /// # Panics
    ///
    /// Panics if `l` is out of range.
    pub fn weighted_degree(&self, l: LocalId) -> u64 {
        self.store.weighted_degree(l)
    }

    /// Sorted global ids of this host's masters that have mirrors on peer
    /// host `peer` — the recipients of a broadcast to that peer.
    ///
    /// # Panics
    ///
    /// Panics if `peer` is out of range.
    pub fn mirrors_on_peer(&self, peer: usize) -> &[NodeId] {
        &self.mirrors_on_peer[peer]
    }
}

impl fmt::Debug for DistGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DistGraph")
            .field("host", &self.host)
            .field("masters", &self.num_masters)
            .field("mirrors", &self.num_mirrors())
            .field("edges", &self.num_local_edges())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{assemble_dist_graph, partition, partition_cfg, PartitionCfg};
    use kimbap_graph::{gen, Graph};

    fn check_partition(g: &Graph, policy: Policy, hosts: usize) {
        let parts = partition(g, policy, hosts);
        assert_eq!(parts.len(), hosts);

        // Edge conservation.
        let total: usize = parts.iter().map(|p| p.num_local_edges()).sum();
        assert_eq!(total, g.num_edges());

        // Master conservation: each global node is a master exactly once.
        let total_masters: usize = parts.iter().map(|p| p.num_masters()).sum();
        assert_eq!(total_masters, g.num_nodes());

        for p in &parts {
            // Round-trip id mapping.
            for l in p.local_nodes() {
                let gid = p.local_to_global(l);
                assert_eq!(p.global_to_local(gid), Some(l));
                assert_eq!(p.is_master(l), p.ownership().owner(gid) == p.host());
            }
            // Local edges preserve global weights.
            for l in p.local_nodes() {
                for (t, w) in p.edges(l) {
                    let (gu, gv) = (p.local_to_global(l), p.local_to_global(t));
                    let found = g.edges(gu).any(|(x, xw)| x == gv && xw == w);
                    assert!(found, "edge ({gu},{gv},{w}) not in global graph");
                }
            }
            // Mirror lists point back correctly.
            for (peer, peer_part) in parts.iter().enumerate() {
                for &gid in p.mirrors_on_peer(peer) {
                    assert_eq!(p.ownership().owner(gid), p.host());
                    assert!(peer_part.mirror_globals().contains(&gid));
                }
            }
        }

        // Every mirror appears in its owner's mirror list for that peer.
        for p in &parts {
            for &gid in p.mirror_globals() {
                let owner = p.ownership().owner(gid);
                assert!(parts[owner].mirrors_on_peer(p.host()).contains(&gid));
            }
        }
    }

    #[test]
    fn edge_cut_blocked_partitions() {
        let g = gen::grid_road(6, 6, 1);
        for hosts in [1, 2, 3, 4] {
            check_partition(&g, Policy::EdgeCutBlocked, hosts);
        }
    }

    #[test]
    fn edge_cut_hashed_partitions() {
        let g = gen::rmat(7, 4, 2);
        for hosts in [1, 2, 5] {
            check_partition(&g, Policy::EdgeCutHashed, hosts);
        }
    }

    #[test]
    fn cvc_partitions() {
        let g = gen::rmat(7, 4, 3);
        for hosts in [1, 2, 4, 6] {
            check_partition(&g, Policy::CartesianVertexCut, hosts);
        }
    }

    #[test]
    fn iec_mirrors_have_no_in_edges() {
        let g = gen::rmat(7, 4, 4);
        for p in partition(&g, Policy::EdgeCutIncoming, 4) {
            let mut has_in = vec![false; p.num_local_nodes()];
            for l in p.local_nodes() {
                for (t, _) in p.edges(l) {
                    has_in[t as usize] = true;
                }
            }
            for m in p.mirror_nodes() {
                assert!(!has_in[m as usize], "IEC mirror with in-edges");
            }
        }
    }

    #[test]
    fn oec_mirrors_have_no_out_edges() {
        let g = gen::rmat(7, 4, 4);
        for p in partition(&g, Policy::EdgeCutBlocked, 4) {
            for m in p.mirror_nodes() {
                assert_eq!(p.degree(m), 0, "OEC mirror with out-edges");
            }
        }
    }

    #[test]
    fn transpose_inverts_local_edges() {
        let g = gen::rmat(7, 4, 8);
        for policy in [Policy::EdgeCutBlocked, Policy::CartesianVertexCut] {
            for p in partition(&g, policy, 3) {
                // Every out-edge (s, d) appears exactly once as d's
                // in-neighbor s, and nothing else does.
                let mut expected: Vec<Vec<LocalId>> = vec![Vec::new(); p.num_local_nodes()];
                for s in p.local_nodes() {
                    for &d in p.neighbors(s).iter() {
                        expected[d as usize].push(s);
                    }
                }
                for d in p.local_nodes() {
                    expected[d as usize].sort_unstable();
                    assert_eq!(
                        p.in_neighbors(d),
                        expected[d as usize].as_slice(),
                        "in-edges of local {d} diverge from transpose"
                    );
                    assert_eq!(p.in_degree(d), expected[d as usize].len());
                }
                let total_in: usize = p.local_nodes().map(|l| p.in_degree(l)).sum();
                assert_eq!(total_in, p.num_local_edges());
            }
        }
    }

    #[test]
    fn single_host_has_no_mirrors() {
        let g = gen::grid_road(4, 4, 0);
        let parts = partition(&g, Policy::CartesianVertexCut, 1);
        assert_eq!(parts[0].num_mirrors(), 0);
        assert_eq!(parts[0].num_local_edges(), g.num_edges());
    }

    #[test]
    fn assemble_matches_partition() {
        // Distribute edge production arbitrarily across hosts; the
        // assembled DistGraphs must match the global partitioner's output.
        let g = gen::rmat(6, 4, 11);
        let hosts = 3;
        for policy in [Policy::EdgeCutBlocked, Policy::CartesianVertexCut] {
            let reference = partition(&g, policy, hosts);
            let assembled = kimbap_comm::Cluster::new(hosts).run(|ctx| {
                // Host h contributes every third edge, offset by h.
                let produced: Vec<_> = g
                    .all_edges()
                    .enumerate()
                    .filter(|(i, _)| i % hosts == ctx.host())
                    .map(|(_, e)| e)
                    .collect();
                assemble_dist_graph(ctx, g.num_nodes(), policy, produced)
            });
            for (a, r) in assembled.iter().zip(&reference) {
                assert_eq!(a.num_masters(), r.num_masters());
                assert_eq!(a.num_mirrors(), r.num_mirrors());
                assert_eq!(a.num_local_edges(), r.num_local_edges());
                assert_eq!(a.l2g, r.l2g);
                assert_eq!(a.store, r.store);
                assert_eq!(a.mirrors_on_peer, r.mirrors_on_peer);
            }
        }
    }

    #[test]
    fn assemble_merges_duplicate_edges() {
        // Both hosts contribute the same edge; weights must sum.
        let out = kimbap_comm::Cluster::new(2).run(|ctx| {
            let dg =
                assemble_dist_graph(ctx, 4, Policy::EdgeCutBlocked, vec![(0, 1, 5), (1, 0, 5)]);
            if ctx.host() == 0 {
                let l0 = dg.global_to_local(0).unwrap();
                dg.edges(l0).collect::<Vec<_>>()
            } else {
                Vec::new()
            }
        });
        let l1 = out[0][0];
        assert_eq!(l1.1, 10); // two hosts x weight 5
    }

    #[test]
    fn compressed_partition_is_indistinguishable() {
        let g = gen::rmat(7, 4, 6);
        for policy in [Policy::EdgeCutBlocked, Policy::CartesianVertexCut] {
            let raw = partition(&g, policy, 3);
            let mut cfg = PartitionCfg::new(policy, 3);
            cfg.compressed = true;
            let comp = partition_cfg(&g, &cfg);
            for (r, c) in raw.iter().zip(&comp) {
                assert!(c.is_compressed() && !r.is_compressed());
                assert_eq!(r.l2g, c.l2g);
                assert_eq!(r.num_local_edges(), c.num_local_edges());
                for l in r.local_nodes() {
                    assert_eq!(r.degree(l), c.degree(l));
                    assert_eq!(&r.neighbors(l)[..], &c.neighbors(l)[..]);
                    assert_eq!(
                        r.edges(l).collect::<Vec<_>>(),
                        c.edges(l).collect::<Vec<_>>()
                    );
                    assert_eq!(r.in_neighbors(l), c.in_neighbors(l));
                    assert_eq!(r.weighted_degree(l), c.weighted_degree(l));
                }
                assert_eq!(r.mirrors_on_peer, c.mirrors_on_peer);
                assert!(c.size_bytes() < r.size_bytes());
            }
        }
    }

    fn hub_cfg(hosts: usize, thresh: usize) -> PartitionCfg {
        let mut cfg = PartitionCfg::new(Policy::EdgeCutBlocked, hosts);
        cfg.hub_degree_threshold = Some(thresh);
        cfg
    }

    #[test]
    fn hub_split_conserves_edges_and_masters() {
        let g = gen::rmat(8, 8, 4);
        let parts = partition_cfg(&g, &hub_cfg(4, 32));
        assert!(parts[0].has_split_hubs());
        let total: usize = parts.iter().map(|p| p.num_local_edges()).sum();
        assert_eq!(total, g.num_edges());
        let total_masters: usize = parts.iter().map(|p| p.num_masters()).sum();
        assert_eq!(total_masters, g.num_nodes());
        // Every local edge still mirrors a real global edge.
        for p in &parts {
            for l in p.local_nodes() {
                for (t, w) in p.edges(l) {
                    let (gu, gv) = (p.local_to_global(l), p.local_to_global(t));
                    assert!(g.edges(gu).any(|(x, xw)| x == gv && xw == w));
                }
            }
        }
    }

    #[test]
    fn hub_split_scatters_hub_edges_to_neighbor_owners() {
        let g = gen::rmat(8, 8, 4);
        let thresh = 32;
        let parts = partition_cfg(&g, &hub_cfg(4, thresh));
        let own = parts[0].ownership().clone();
        for p in &parts {
            for l in p.local_nodes() {
                let gu = p.local_to_global(l);
                if own.is_hub(gu) {
                    // Every stored out-edge of a hub ends at a locally
                    // owned master.
                    for (t, _) in p.edges(l) {
                        let gv = p.local_to_global(t);
                        assert_eq!(
                            own.owner(gv),
                            p.host(),
                            "hub {gu} edge to {gv} on wrong host"
                        );
                    }
                } else if !p.is_master(l) {
                    // Non-hub mirrors keep the OEC invariant.
                    assert_eq!(p.degree(l), 0, "non-hub OEC mirror with out-edges");
                }
            }
        }
    }

    #[test]
    fn hub_split_reduces_max_host_edges() {
        // A star graph: one hub, everything at its owner without splitting.
        let mut b = kimbap_graph::GraphBuilder::new();
        for v in 1..200u32 {
            b.add_edge(0, v, 1);
        }
        let g = b.symmetric(true).build();
        let no_hub = partition(&g, Policy::EdgeCutBlocked, 4);
        let hub = partition_cfg(&g, &hub_cfg(4, 16));
        let max_edges = |ps: &[DistGraph]| ps.iter().map(|p| p.num_local_edges()).max().unwrap();
        assert!(
            max_edges(&hub) * 2 < max_edges(&no_hub),
            "hub {} vs no-hub {}",
            max_edges(&hub),
            max_edges(&no_hub)
        );
    }

    #[test]
    fn single_host_never_splits_hubs() {
        let g = gen::rmat(7, 8, 4);
        let parts = partition_cfg(&g, &hub_cfg(1, 4));
        assert!(!parts[0].has_split_hubs());
        assert_eq!(parts[0].num_local_edges(), g.num_edges());
    }

    #[test]
    fn isolated_nodes_are_masters_somewhere() {
        let mut b = kimbap_graph::GraphBuilder::new();
        b.add_edge(0, 1, 1).ensure_nodes(10);
        let g = b.symmetric(true).build();
        let parts = partition(&g, Policy::EdgeCutBlocked, 3);
        let total: usize = parts.iter().map(|p| p.num_masters()).sum();
        assert_eq!(total, 10);
    }
}
