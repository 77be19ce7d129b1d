//! Building every host's [`DistGraph`] from one global graph.
//!
//! [`partition_cfg`] runs in time linear in the graph: the policy's split
//! is precomputed once per node, each host reads only the rows that can
//! hold its edges, numbers its proxies by marking a global-sized table,
//! and fills its local CSR by counting sort on the local source. Hosts are
//! built at the same time on scoped threads.

use crate::dist_graph::{DistGraph, LocalId, NO_MIRROR};
use crate::ownership::Ownership;
use crate::policy::Policy;
use kimbap_comm::wire::{encode_slice, iter_decoded};
use kimbap_comm::HostCtx;
use kimbap_graph::{Graph, GraphStore, NodeId, Weight};
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Storage and placement knobs for [`partition_cfg`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartitionCfg {
    /// Edge-assignment policy.
    pub policy: Policy,
    /// Number of hosts.
    pub hosts: usize,
    /// Store each host's local CSR on the compressed tier.
    pub compressed: bool,
    /// Split the edge lists of nodes with degree above this threshold
    /// across hosts (only for policies where [`Policy::splits_hubs`]).
    /// `None` = no hub splitting.
    pub hub_degree_threshold: Option<usize>,
}

impl PartitionCfg {
    /// Raw storage, no hub splitting — the classic [`partition`] behavior.
    pub fn new(policy: Policy, hosts: usize) -> Self {
        PartitionCfg {
            policy,
            hosts,
            compressed: false,
            hub_degree_threshold: None,
        }
    }
}

/// Partitions `graph` across `num_hosts` hosts under `policy`, producing one
/// [`DistGraph`] per host (indexed by host id). Raw storage, no hub
/// splitting; see [`partition_cfg`] for the knobs.
///
/// Construction is deterministic. It is a single-pass global construction
/// rather than a distributed streaming partitioner like CuSP; the paper
/// leaves partitioning out of its measurements, but this repository's
/// benchmark counts it as part of the wait a user sees (load → partition →
/// solve), so it is built to run in linear time on all cores.
///
/// # Panics
///
/// Panics if `num_hosts == 0`.
pub fn partition(graph: &Graph, policy: Policy, num_hosts: usize) -> Vec<DistGraph> {
    partition_cfg(graph, &PartitionCfg::new(policy, num_hosts))
}

/// [`partition`] with storage/placement knobs: compressed local CSRs
/// and/or degree-aware hub splitting.
///
/// Each local row lists its edges by ascending local target; parallel
/// edges keep their input order. The result does not depend on how many
/// threads build it.
///
/// # Panics
///
/// Panics if `cfg.hosts == 0`.
pub fn partition_cfg(graph: &Graph, cfg: &PartitionCfg) -> Vec<DistGraph> {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    partition_with_threads(graph, cfg, threads)
}

/// [`partition_cfg`] on at most `threads` threads.
pub(crate) fn partition_with_threads(
    graph: &Graph,
    cfg: &PartitionCfg,
    threads: usize,
) -> Vec<DistGraph> {
    let (policy, num_hosts) = (cfg.policy, cfg.hosts);
    assert!(num_hosts > 0, "need at least one host");
    let n = graph.num_nodes();
    let mut own = policy.ownership(n, num_hosts);
    if let Some(thresh) = cfg.hub_degree_threshold {
        if policy.splits_hubs() && num_hosts > 1 {
            let hubs: Vec<NodeId> = graph
                .nodes()
                .filter(|&u| graph.degree(u) > thresh)
                .collect();
            own = own.with_hubs(hubs);
        }
    }

    // Compressed blocks decode in sorted order, which is the order the
    // edge iterators of a compressed graph report.
    let decompressed;
    let store = match graph.store() {
        raw @ GraphStore::Raw { .. } => raw,
        compressed => {
            decompressed = compressed.decompressed();
            &decompressed
        }
    };
    let csr = Csr::of(store);
    let split = Split::new(&own, policy);
    let mut parts = build_all(num_hosts, threads, |h| {
        build_part(h, &own, policy, cfg.compressed, csr, split.filter(h), |f| {
            split.rows(h, f)
        })
    });
    link_mirrors(&mut parts);
    parts
}

/// `build(h)` for every host, on up to `threads` scoped threads that each
/// take the next unbuilt host.
fn build_all(
    hosts: usize,
    threads: usize,
    build: impl Fn(usize) -> DistGraph + Sync,
) -> Vec<DistGraph> {
    let threads = threads.clamp(1, hosts);
    if threads == 1 {
        return (0..hosts).map(build).collect();
    }
    // Relaxed: the counter only hands out host ids; the parts come back
    // through `join`.
    let next = AtomicUsize::new(0);
    let work = || {
        let mut done = Vec::new();
        loop {
            let h = next.fetch_add(1, Ordering::Relaxed);
            if h >= hosts {
                return done;
            }
            done.push((h, build(h)));
        }
    };
    let mut built = std::thread::scope(|s| {
        let helpers: Vec<_> = (1..threads).map(|_| s.spawn(work)).collect();
        let mut built = work();
        for helper in helpers {
            built.extend(
                helper
                    .join()
                    .unwrap_or_else(|e| std::panic::resume_unwind(e)),
            );
        }
        built
    });
    built.sort_unstable_by_key(|&(h, _)| h);
    built.into_iter().map(|(_, part)| part).collect()
}

/// Fills every owner's `mirrors_on_peer`: the mirror-list exchange a real
/// deployment runs at partitioning time. Each peer's mirrors are scanned in
/// ascending order, so every list comes out sorted.
fn link_mirrors(parts: &mut [DistGraph]) {
    for peer in 0..parts.len() {
        for i in parts[peer].num_masters..parts[peer].l2g.len() {
            let g = parts[peer].l2g[i];
            let owner = parts[peer].ownership.owner(g);
            parts[owner].mirrors_on_peer[peer].push(g);
        }
    }
}

/// A global-id CSR the builder reads rows from.
#[derive(Clone, Copy)]
struct Csr<'a> {
    offsets: &'a [u64],
    targets: &'a [NodeId],
    weights: &'a [Weight],
}

impl<'a> Csr<'a> {
    /// The arrays of a raw store.
    ///
    /// # Panics
    ///
    /// Panics on a compressed store.
    fn of(store: &'a GraphStore) -> Self {
        match store {
            GraphStore::Raw {
                offsets,
                targets,
                weights,
            } => Csr {
                offsets,
                targets,
                weights,
            },
            GraphStore::Compressed(_) => unreachable!("the builder reads raw rows"),
        }
    }

    /// Edge index range of row `u`.
    fn row(&self, u: NodeId) -> Range<usize> {
        self.offsets[u as usize] as usize..self.offsets[u as usize + 1] as usize
    }
}

/// The test a *filtered* row applies to each edge `(u, v)`: keep it iff
/// `key[v] == want`.
#[derive(Clone, Copy)]
struct Filter<'a> {
    key: &'a [u32],
    want: u32,
}

impl Filter<'_> {
    /// For builders that filter no row.
    const NONE: Filter<'static> = Filter { key: &[], want: 0 };

    #[inline]
    fn keeps(&self, v: NodeId) -> bool {
        self.key[v as usize] == self.want
    }
}

/// A policy's edge placement, computed once for all hosts: which global
/// rows can hold a host's edges, and the per-node key that picks the
/// host's edges out of a shared row.
struct Split<'a> {
    own: &'a Ownership,
    policy: Policy,
    /// Grid columns of the Cartesian vertex-cut; the host count for the
    /// edge-cuts, whose edges are picked by owner.
    cols: usize,
    /// Per node `v`: its owner's grid column (vertex-cut) or its owner
    /// (edge-cuts, where every owner is its own column). An edge `(u, v)`
    /// of a shared row belongs to host `h` iff `key[v] == h % cols`.
    /// Empty when no row is shared.
    key: Vec<u32>,
}

impl<'a> Split<'a> {
    fn new(own: &'a Ownership, policy: Policy) -> Self {
        let hosts = own.num_hosts();
        let cols = match policy {
            Policy::CartesianVertexCut => Policy::grid(hosts).1,
            _ => hosts,
        };
        let shares_rows = match policy {
            Policy::EdgeCutBlocked | Policy::EdgeCutHashed => own.has_hubs(),
            Policy::EdgeCutIncoming | Policy::CartesianVertexCut => cols > 1,
        };
        let mut key = Vec::new();
        if shares_rows {
            key = vec![0; own.num_nodes()];
            for h in 0..hosts {
                for g in own.masters(h) {
                    key[g as usize] = (h % cols) as u32;
                }
            }
        }
        Split {
            own,
            policy,
            cols,
            key,
        }
    }

    fn filter(&self, h: usize) -> Filter<'_> {
        Filter {
            key: &self.key,
            want: (h % self.cols) as u32,
        }
    }

    /// Calls `f(u, filtered)` for every row `u` that can hold edges of
    /// host `h`. A filtered row is shared with other hosts and keeps only
    /// the edges [`Split::filter`] passes; an unfiltered one is all `h`'s.
    fn rows(&self, h: usize, f: &mut dyn FnMut(NodeId, bool)) {
        let shared = !self.key.is_empty();
        match self.policy {
            Policy::EdgeCutBlocked | Policy::EdgeCutHashed if shared => {
                // Hub rows scatter to their targets' owners.
                for u in 0..self.own.num_nodes() as NodeId {
                    if self.own.is_hub(u) {
                        f(u, true);
                    } else if self.key[u as usize] as usize == h {
                        f(u, false);
                    }
                }
            }
            Policy::EdgeCutBlocked | Policy::EdgeCutHashed => {
                for u in self.own.masters(h) {
                    f(u, false);
                }
            }
            Policy::EdgeCutIncoming => {
                for u in 0..self.own.num_nodes() as NodeId {
                    f(u, shared);
                }
            }
            Policy::CartesianVertexCut => {
                // The sources owned by the hosts of `h`'s grid row.
                let first = h / self.cols * self.cols;
                for peer in first..first + self.cols {
                    for u in self.own.masters(peer) {
                        f(u, shared);
                    }
                }
            }
        }
    }
}

/// A node marked as a proxy whose local id is not assigned yet.
const MARKED: u32 = u32::MAX - 1;

/// Builds host `h`'s [`DistGraph`], *without* the mirror lists (callers
/// fill `mirrors_on_peer`). `rows` calls its argument once for every row
/// of `csr` that may hold the host's edges, flagged when only the edges
/// `filter` passes belong to `h` (see [`Split::rows`]).
///
/// Linear in the rows read plus the global node count: a global-sized
/// table marks every endpoint and then becomes the global → local index;
/// rows land at their local source by counting sort, masters then mirrors,
/// which is ascending local order whenever the input row is ascending.
/// Only a row whose kept targets are not ascending is sorted (stably, so
/// parallel edges keep their input order).
fn build_part(
    h: usize,
    own: &Ownership,
    policy: Policy,
    compressed: bool,
    csr: Csr<'_>,
    filter: Filter<'_>,
    rows: impl FnOnce(&mut dyn FnMut(NodeId, bool)),
) -> DistGraph {
    let num_hosts = own.num_hosts();
    let num_masters = own.num_masters(h);
    assert!(
        own.num_nodes() < MARKED as usize,
        "local ids must stay below the builder's markers"
    );

    // Pass 1: mark both endpoints of every kept edge; list the non-empty
    // rows with their kept-edge counts.
    let mut g2l = vec![NO_MIRROR; own.num_nodes()];
    let mut kept_rows: Vec<(NodeId, bool, usize)> = Vec::new();
    let mut num_edges = 0;
    rows(&mut |u, filtered| {
        let targets = &csr.targets[csr.row(u)];
        let kept = if filtered {
            let mut kept = 0;
            for &v in targets {
                if filter.keeps(v) {
                    g2l[v as usize] = MARKED;
                    kept += 1;
                }
            }
            kept
        } else {
            for &v in targets {
                g2l[v as usize] = MARKED;
            }
            targets.len()
        };
        if kept > 0 {
            g2l[u as usize] = MARKED;
            kept_rows.push((u, filtered, kept));
            num_edges += kept;
        }
    });

    // Number the proxies: masters by master offset, then the marked nodes
    // left over — the mirrors — in global order.
    for (i, g) in own.masters(h).enumerate() {
        g2l[g as usize] = i as LocalId;
    }
    let mut mirrors: Vec<NodeId> = Vec::new();
    for (g, l) in g2l.iter_mut().enumerate() {
        if *l == MARKED {
            *l = (num_masters + mirrors.len()) as LocalId;
            mirrors.push(g as NodeId);
        }
    }
    let nl = num_masters + mirrors.len();

    let mut offsets = vec![0u64; nl + 1];
    for &(u, _, kept) in &kept_rows {
        offsets[g2l[u as usize] as usize + 1] = kept as u64;
    }
    for i in 0..nl {
        offsets[i + 1] += offsets[i];
    }

    // Pass 2: fill each row, masters forward from its start and mirrors
    // backward from its end, counting in-degrees on the way.
    let mut targets = vec![0 as LocalId; num_edges];
    let mut weights = vec![0 as Weight; num_edges];
    let mut in_offsets = vec![0u64; nl + 1];
    for &(u, filtered, _) in &kept_rows {
        let s = g2l[u as usize] as usize;
        let (start, end) = (offsets[s] as usize, offsets[s + 1] as usize);
        let (mut lo, mut hi) = (start, end);
        let (mut prev, mut ascending) = (0, true);
        let row = csr.row(u);
        for (&v, &w) in csr.targets[row.clone()].iter().zip(&csr.weights[row]) {
            if filtered && !filter.keeps(v) {
                continue;
            }
            ascending &= prev <= v;
            prev = v;
            let l = g2l[v as usize];
            in_offsets[l as usize + 1] += 1;
            if (l as usize) < num_masters {
                targets[lo] = l;
                weights[lo] = w;
                lo += 1;
            } else {
                hi -= 1;
                targets[hi] = l;
                weights[hi] = w;
            }
        }
        targets[lo..end].reverse();
        weights[lo..end].reverse();
        if !ascending {
            sort_row(&mut targets[start..end], &mut weights[start..end]);
        }
    }

    // Transpose: bucket every edge by destination. Scanning rows in
    // source order fills each bucket with ascending sources.
    for i in 0..nl {
        in_offsets[i + 1] += in_offsets[i];
    }
    let mut in_sources = vec![0 as LocalId; num_edges];
    let mut cursor = in_offsets.clone();
    for s in 0..nl {
        for &d in &targets[offsets[s] as usize..offsets[s + 1] as usize] {
            in_sources[cursor[d as usize] as usize] = s as LocalId;
            cursor[d as usize] += 1;
        }
    }

    // What is left of the index is the mirror-slot table.
    for g in own.masters(h) {
        g2l[g as usize] = NO_MIRROR;
    }
    for &g in &mirrors {
        g2l[g as usize] -= num_masters as u32;
    }
    let mut l2g: Vec<NodeId> = own.masters(h).collect();
    l2g.extend_from_slice(&mirrors);

    let store = GraphStore::Raw {
        offsets,
        targets,
        weights,
    };
    let store = if compressed {
        store.compressed()
    } else {
        store
    };

    DistGraph {
        host: h,
        ownership: own.clone(),
        policy,
        l2g,
        num_masters,
        store,
        in_offsets,
        in_sources,
        mirrors_on_peer: vec![Vec::new(); num_hosts],
        mirror_slot_of: g2l,
    }
}

/// Sorts one row by target, keeping parallel edges in their current order.
fn sort_row(targets: &mut [LocalId], weights: &mut [Weight]) {
    let mut row: Vec<(LocalId, Weight)> = targets
        .iter()
        .copied()
        .zip(weights.iter().copied())
        .collect();
    row.sort_by_key(|&(t, _)| t);
    for ((t, w), (st, sw)) in targets.iter_mut().zip(weights.iter_mut()).zip(row) {
        *t = st;
        *w = sw;
    }
}

/// Distributed graph assembly: every host contributes the edges *it
/// produced* (e.g. the coarse edges of a Louvain aggregation step); edges
/// are routed to the hosts the `policy` assigns them to, and each host
/// builds its own [`DistGraph`] over a global node space of `n_global`
/// nodes, exchanging mirror lists with its peers.
///
/// This is the distributed analog of [`partition`] (a CuSP-style streaming
/// partitioner): no host ever sees the whole graph. Collective — every host
/// must call it together. It runs inside the caller's host thread and
/// starts no threads of its own.
///
/// Duplicate edges contributed by different hosts are merged by summing
/// weights (community-aggregation semantics).
///
/// # Panics
///
/// Panics if an edge references a node `>= n_global`.
pub fn assemble_dist_graph(
    ctx: &HostCtx,
    n_global: usize,
    policy: Policy,
    produced_edges: Vec<(NodeId, NodeId, Weight)>,
) -> DistGraph {
    let num_hosts = ctx.num_hosts();
    let host = ctx.host();
    let own = policy.ownership(n_global, num_hosts);

    // Route each produced edge to its assigned host.
    let mut per_host: Vec<Vec<(NodeId, NodeId, Weight)>> = vec![Vec::new(); num_hosts];
    for (u, v, w) in produced_edges {
        assert!(
            (u as usize) < n_global && (v as usize) < n_global,
            "edge ({u},{v}) outside node space {n_global}"
        );
        per_host[policy.assign(&own, u, v)].push((u, v, w));
    }
    let outgoing = per_host
        .iter()
        .enumerate()
        .map(|(h, edges)| {
            if h == host {
                Vec::new()
            } else {
                encode_slice(
                    &edges
                        .iter()
                        .map(|&(u, v, w)| (u, (v, w)))
                        .collect::<Vec<_>>(),
                )
            }
        })
        .collect();
    let received = ctx.exchange(outgoing);

    // My edge set = locally produced + received; merge duplicates by sum.
    let mut my_edges = std::mem::take(&mut per_host[host]);
    for (h, buf) in received.iter().enumerate() {
        if h == host {
            continue;
        }
        for (u, (v, w)) in iter_decoded::<(NodeId, (NodeId, Weight))>(buf) {
            my_edges.push((u, v, w));
        }
    }
    my_edges.sort_unstable_by_key(|&(u, v, _)| (u, v));
    my_edges.dedup_by(|next, acc| {
        if acc.0 == next.0 && acc.1 == next.1 {
            acc.2 += next.2;
            true
        } else {
            false
        }
    });

    // Coarse/assembled graphs stay on the raw tier with no hub table:
    // they are rebuilt every level and read once.
    let mut offsets = vec![0u64; n_global + 1];
    for &(u, _, _) in &my_edges {
        offsets[u as usize + 1] += 1;
    }
    for i in 0..n_global {
        offsets[i + 1] += offsets[i];
    }
    let targets: Vec<NodeId> = my_edges.iter().map(|&(_, v, _)| v).collect();
    let weights: Vec<Weight> = my_edges.iter().map(|&(_, _, w)| w).collect();
    drop(my_edges);
    let csr = Csr {
        offsets: &offsets,
        targets: &targets,
        weights: &weights,
    };
    let mut dg = build_part(host, &own, policy, false, csr, Filter::NONE, |f| {
        for u in 0..n_global as NodeId {
            f(u, false);
        }
    });

    // Mirror-list exchange: tell each node's owner that we mirror it.
    let outgoing = (0..num_hosts)
        .map(|peer| {
            if peer == host {
                return Vec::new();
            }
            let mine: Vec<NodeId> = dg
                .mirror_globals()
                .iter()
                .copied()
                .filter(|&g| own.owner(g) == peer)
                .collect();
            encode_slice(&mine)
        })
        .collect();
    let received = ctx.exchange(outgoing);
    for (peer, buf) in received.iter().enumerate() {
        if peer == host {
            continue;
        }
        let mut list: Vec<NodeId> = iter_decoded::<NodeId>(buf).collect();
        list.sort_unstable();
        dg.mirrors_on_peer[peer] = list;
    }
    dg
}

/// The sort-based builder [`partition_cfg`] replaced: every edge goes
/// through [`Policy::assign`] into per-host tuple lists, which are sorted
/// and mapped to local ids by binary search. Kept as the oracle of the
/// differential tests.
#[cfg(test)]
mod reference {
    use super::*;

    pub(super) fn partition_cfg(graph: &Graph, cfg: &PartitionCfg) -> Vec<DistGraph> {
        let (policy, num_hosts) = (cfg.policy, cfg.hosts);
        let n = graph.num_nodes();
        let mut own = policy.ownership(n, num_hosts);
        if let Some(thresh) = cfg.hub_degree_threshold {
            if policy.splits_hubs() && num_hosts > 1 {
                let hubs: Vec<NodeId> = graph
                    .nodes()
                    .filter(|&u| graph.degree(u) > thresh)
                    .collect();
                own = own.with_hubs(hubs);
            }
        }
        let mut host_edges: Vec<Vec<(NodeId, NodeId, Weight)>> = vec![Vec::new(); num_hosts];
        for (u, v, w) in graph.all_edges() {
            host_edges[policy.assign(&own, u, v)].push((u, v, w));
        }
        let mut parts: Vec<DistGraph> = host_edges
            .into_iter()
            .enumerate()
            .map(|(h, edges)| build_part(h, &own, policy, &edges, cfg.compressed))
            .collect();
        let all_mirrors: Vec<Vec<NodeId>> =
            parts.iter().map(|p| p.mirror_globals().to_vec()).collect();
        for (peer, mirrored) in all_mirrors.iter().enumerate() {
            for &g in mirrored {
                let owner = own.owner(g);
                parts[owner].mirrors_on_peer[peer].push(g);
            }
        }
        for p in &mut parts {
            for list in &mut p.mirrors_on_peer {
                list.sort_unstable();
            }
        }
        parts
    }

    fn build_part(
        h: usize,
        own: &Ownership,
        policy: Policy,
        edges: &[(NodeId, NodeId, Weight)],
        compressed: bool,
    ) -> DistGraph {
        let num_hosts = own.num_hosts();
        let num_masters = own.num_masters(h);
        let mut mirrors: Vec<NodeId> = edges
            .iter()
            .flat_map(|&(u, v, _)| [u, v])
            .filter(|&x| own.owner(x) != h)
            .collect();
        mirrors.sort_unstable();
        mirrors.dedup();

        let mut l2g: Vec<NodeId> = own.masters(h).collect();
        l2g.extend_from_slice(&mirrors);

        let to_local = |g: NodeId| -> LocalId {
            if own.owner(g) == h {
                own.master_offset(g) as LocalId
            } else {
                (num_masters + mirrors.binary_search(&g).unwrap()) as LocalId
            }
        };

        let nl = l2g.len();
        let mut local_edges: Vec<(LocalId, LocalId, Weight)> = edges
            .iter()
            .map(|&(u, v, w)| (to_local(u), to_local(v), w))
            .collect();
        local_edges.sort_unstable_by_key(|&(s, d, _)| (s, d));
        let mut offsets = vec![0u64; nl + 1];
        for &(s, _, _) in &local_edges {
            offsets[s as usize + 1] += 1;
        }
        for i in 0..nl {
            offsets[i + 1] += offsets[i];
        }
        let targets: Vec<LocalId> = local_edges.iter().map(|&(_, d, _)| d).collect();
        let weights = local_edges.iter().map(|&(_, _, w)| w).collect();

        let mut in_offsets = vec![0u64; nl + 1];
        for &(_, d, _) in &local_edges {
            in_offsets[d as usize + 1] += 1;
        }
        for i in 0..nl {
            in_offsets[i + 1] += in_offsets[i];
        }
        let mut in_sources = vec![0 as LocalId; targets.len()];
        let mut cursor = in_offsets.clone();
        for &(s, d, _) in &local_edges {
            in_sources[cursor[d as usize] as usize] = s;
            cursor[d as usize] += 1;
        }

        let mut mirror_slot_of = vec![NO_MIRROR; own.num_nodes()];
        for (slot, &g) in mirrors.iter().enumerate() {
            mirror_slot_of[g as usize] = slot as u32;
        }

        let store = GraphStore::Raw {
            offsets,
            targets,
            weights,
        };
        let store = if compressed {
            store.compressed()
        } else {
            store
        };

        DistGraph {
            host: h,
            ownership: own.clone(),
            policy,
            l2g,
            num_masters,
            store,
            in_offsets,
            in_sources,
            mirrors_on_peer: vec![Vec::new(); num_hosts],
            mirror_slot_of,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kimbap_graph::gen;
    use proptest::prelude::*;

    const POLICIES: [Policy; 4] = [
        Policy::EdgeCutBlocked,
        Policy::EdgeCutIncoming,
        Policy::EdgeCutHashed,
        Policy::CartesianVertexCut,
    ];

    /// A raw CSR over `n` nodes holding `edges` in input order: rows stay
    /// unsorted unless `sort_rows` (a stable sort, so parallel edges keep
    /// their order); parallel edges and isolated nodes stay as given.
    fn csr_graph(n: usize, edges: &[(NodeId, NodeId, Weight)], sort_rows: bool) -> Graph {
        let mut rows = vec![Vec::new(); n];
        for &(u, v, w) in edges {
            rows[u as usize].push((v, w));
        }
        let mut offsets = vec![0u64];
        let (mut targets, mut weights) = (Vec::new(), Vec::new());
        for row in &mut rows {
            if sort_rows {
                row.sort_by_key(|&(v, _)| v);
            }
            for &(v, w) in row.iter() {
                targets.push(v);
                weights.push(w);
            }
            offsets.push(targets.len() as u64);
        }
        Graph::from_csr(offsets, targets, weights)
    }

    /// Asserts the linear builder's `new` equals the reference's `old`.
    /// Rows compare edge for edge, except that the weights of parallel
    /// edges compare as multisets: the reference's unstable sort leaves
    /// their order unspecified. Where no row differs, the whole partitions
    /// must be equal, storage bytes and capacities included.
    fn assert_same(new: &DistGraph, old: &DistGraph) {
        assert_eq!(new.host, old.host);
        assert_eq!(new.ownership, old.ownership);
        assert_eq!(new.policy, old.policy);
        assert_eq!(new.l2g, old.l2g);
        assert_eq!(new.num_masters, old.num_masters);
        assert_eq!(new.in_offsets, old.in_offsets);
        assert_eq!(new.in_sources, old.in_sources);
        assert_eq!(new.mirrors_on_peer, old.mirrors_on_peer);
        assert_eq!(new.mirror_slot_of, old.mirror_slot_of);
        assert_eq!(new.is_compressed(), old.is_compressed());
        assert_eq!(new.num_local_edges(), old.num_local_edges());
        assert_eq!(new.size_bytes(), old.size_bytes());
        let mut rows_equal = true;
        for l in new.local_nodes() {
            let a: Vec<_> = new.edges(l).collect();
            let b: Vec<_> = old.edges(l).collect();
            if a != b {
                rows_equal = false;
                let targets =
                    |row: &[(LocalId, Weight)]| row.iter().map(|e| e.0).collect::<Vec<_>>();
                assert_eq!(targets(&a), targets(&b), "row {l} of host {}", new.host);
                let (mut a, mut b) = (a, b);
                a.sort_unstable();
                b.sort_unstable();
                assert_eq!(a, b, "row {l} of host {}", new.host);
            }
        }
        if rows_equal {
            assert!(new == old, "host {} differs", new.host);
        }
    }

    /// Asserts every local row lists its parallel edges in the order the
    /// global row `g.edges(u)` reports them.
    fn assert_parallel_edges_in_input_order(p: &DistGraph, g: &Graph) {
        for l in p.local_nodes() {
            let u = p.local_to_global(l);
            let row: Vec<(NodeId, Weight)> =
                p.edges(l).map(|(t, w)| (p.local_to_global(t), w)).collect();
            for &(v, _) in &row {
                let here: Vec<Weight> = row.iter().filter(|e| e.0 == v).map(|e| e.1).collect();
                let input: Vec<Weight> = g.edges(u).filter(|e| e.0 == v).map(|e| e.1).collect();
                assert_eq!(here, input, "edges {u} -> {v} on host {}", p.host);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        // Differential: the linear builder against the sort-based one, on
        // CSRs with unsorted rows, parallel edges (weights 1..4, so some
        // differ), isolated nodes and nodes with no local edges, over all
        // four policies x 1-5 hosts x raw/compressed x hub thresholds.
        #[test]
        fn builder_matches_sort_based_reference(
            edges in prop::collection::vec((0u32..40, 0u32..40, 1u64..4), 0..160),
            pad in 0usize..6,
            sort_rows in prop::bool::ANY,
            compress_input in prop::bool::ANY,
        ) {
            let n = edges
                .iter()
                .map(|&(u, v, _)| u.max(v) as usize + 1)
                .max()
                .unwrap_or(0)
                + pad;
            let g = csr_graph(n, &edges, sort_rows);
            let g = if compress_input { g.compress() } else { g };
            for policy in POLICIES {
                for hosts in 1..=5 {
                    for compressed in [false, true] {
                        for hub_degree_threshold in [None, Some(0), Some(3), Some(8)] {
                            let cfg = PartitionCfg {
                                policy,
                                hosts,
                                compressed,
                                hub_degree_threshold,
                            };
                            let new = partition_cfg(&g, &cfg);
                            let old = reference::partition_cfg(&g, &cfg);
                            prop_assert_eq!(new.len(), old.len());
                            for (a, b) in new.iter().zip(&old) {
                                assert_same(a, b);
                                assert_parallel_edges_in_input_order(a, &g);
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn builder_equals_reference_on_generated_graphs() {
        // Generated graphs have sorted rows and no parallel edges, so the
        // two builders must agree byte for byte.
        let graphs = [
            gen::rmat(8, 8, 21),
            gen::grid_road(9, 7, 3),
            gen::rmat(6, 2, 5),
        ];
        for g in &graphs {
            for policy in POLICIES {
                for hosts in 1..=4 {
                    for compressed in [false, true] {
                        for hub_degree_threshold in [None, Some(16)] {
                            let cfg = PartitionCfg {
                                policy,
                                hosts,
                                compressed,
                                hub_degree_threshold,
                            };
                            let new = partition_cfg(g, &cfg);
                            let old = reference::partition_cfg(g, &cfg);
                            for (a, b) in new.iter().zip(&old) {
                                assert!(a == b, "{policy} on {hosts} hosts, host {}", a.host);
                                assert_eq!(a.size_bytes(), b.size_bytes());
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn thread_count_does_not_change_the_partition() {
        let g = gen::rmat(9, 8, 5);
        for policy in POLICIES {
            for hosts in [2, 3, 5] {
                let cfg = PartitionCfg {
                    compressed: hosts != 3,
                    hub_degree_threshold: Some(40),
                    ..PartitionCfg::new(policy, hosts)
                };
                let serial = partition_with_threads(&g, &cfg, 1);
                for threads in [2, 3, 8] {
                    assert_eq!(partition_with_threads(&g, &cfg, threads), serial);
                }
            }
        }
    }
}
