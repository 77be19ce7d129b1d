//! Connected components: label propagation (CC-LP), shortcutting label
//! propagation (CC-SCLP), and Shiloach-Vishkin (CC-SV).
//!
//! All three label every node with the smallest node id in its component.
//! CC-LP is a pure adjacent-vertex program; CC-SV is the paper's running
//! trans-vertex example (Figs. 4 and 8); CC-SCLP interleaves the two.

use crate::builder::MapBuilder;
use kimbap_comm::HostCtx;
use kimbap_dist::DistGraph;
use kimbap_npm::{BoolReducer, Frontier, Min, NodePropMap};
use kimbap_graph::NodeId;

/// Collects `(global id, value)` for every master on this host.
pub(crate) fn collect_masters<M: NodePropMap<u64>>(
    map: &M,
    dg: &DistGraph,
) -> Vec<(NodeId, u64)> {
    dg.master_nodes()
        .map(|m| {
            let g = dg.local_to_global(m);
            (g, map.read(g))
        })
        .collect()
}

/// Label propagation (the paper's CC-LP): every proxy pushes its label to
/// its out-neighbors, which keep the minimum; repeat until no label
/// changes. Adjacent-vertex only, so mirrors are pinned once and refreshed
/// by broadcast, and no request phase runs.
///
/// Rounds are data-driven (Pregel's vote-to-halt): the first round, right
/// after pinning, visits every proxy; each later round visits only the
/// proxies whose label changed in the round before, read from the map's
/// [`NodePropMap::changed_keys`] delta into a [`Frontier`]. A map that
/// cannot vouch for a complete delta ([`kimbap_npm::ChangedKeys::Untracked`]:
/// the non-partition-aware variants, the memcached-like store) runs every
/// round dense.
///
/// Skipping is sound without activating in-neighbors because labels only
/// fall under [`Min`] and the push is guarded by a read of its own
/// target. A proxy `u` whose label did not change in round `r` either
/// ran in round `r`, so after the sync every out-neighbor holds at most
/// `L(u)`, or was skipped in round `r` because that already held. Labels
/// never rise, so in round `r + 1` the guard `L(u) < L(dst)` is false on
/// every edge of `u`: visiting it would reduce nothing. Every round thus
/// issues exactly the reductions of a dense round — same labels, same
/// round count, same traffic — and only idle visits are skipped.
///
/// Each round reports its visited and dense node counts through
/// [`HostCtx::add_parfor_activity`].
///
/// Returns this host's master labels. Collective.
pub fn cc_lp<B: MapBuilder>(dg: &DistGraph, ctx: &HostCtx, b: &B) -> Vec<(NodeId, u64)> {
    let mut label = b.build::<u64, Min>(dg, ctx, Min);
    label.init_masters(&|g| g as u64);
    label.pin_mirrors(ctx);
    let n = dg.num_local_nodes();
    let mut frontier = Frontier::dense(n);
    loop {
        // Publish the BSP round so fault plans can target it.
        ctx.set_round(ctx.current_round() + 1);
        label.reset_updated();
        let l = &label;
        frontier.par_for(ctx, |tid, lid| {
            // One block lookup serves both the skip test and the scan
            // (degree() would decode the compressed header twice), and
            // targets() skips weight bytes entirely — CC never reads them.
            let targets = dg.targets(lid);
            if targets.len() == 0 {
                return;
            }
            let my = l.read(dg.local_to_global(lid));
            targets.for_each(|dst| {
                let dst_g = dg.local_to_global(dst);
                if my < l.read(dst_g) {
                    l.reduce(tid, dst_g, my);
                }
            });
        });
        ctx.add_parfor_activity(frontier.len() as u64, n as u64, frontier.is_sparse());
        label.reduce_sync(ctx);
        label.broadcast_sync(ctx);
        if !label.is_updated(ctx) {
            break;
        }
        // The delta of the round just synced, taken before the next
        // `reset_updated` opens a new window.
        frontier = Frontier::from_changed(label.changed_keys(), dg, n);
    }
    label.unpin_mirrors();
    collect_masters(&label, dg)
}

/// One hook pass of CC-SV (paper Fig. 8, `Hook`): for every edge
/// `src -> dst` with `parent(src) > parent(dst)`, min-reduce
/// `parent(parent(src))` by `parent(dst)` — a write to a dynamically
/// computed node. Pinned mirrors serve the adjacent reads.
fn hook<M: NodePropMap<u64>>(
    parent: &mut M,
    dg: &DistGraph,
    ctx: &HostCtx,
    work_done: &BoolReducer,
) {
    parent.pin_mirrors(ctx);
    loop {
        ctx.set_round(ctx.current_round() + 1);
        parent.reset_updated();
        let p = &*parent;
        ctx.par_for(0..dg.num_local_nodes(), |tid, range| {
            for lid in range {
                let lid = lid as u32;
                let targets = dg.targets(lid);
                if targets.len() == 0 {
                    continue;
                }
                let src_parent = p.read(dg.local_to_global(lid));
                targets.for_each(|dst| {
                    let dst_parent = p.read(dg.local_to_global(dst));
                    if src_parent > dst_parent {
                        work_done.reduce(true);
                        p.reduce(tid, src_parent as NodeId, dst_parent);
                    }
                });
            }
        });
        parent.reduce_sync(ctx);
        parent.broadcast_sync(ctx);
        if !parent.is_updated(ctx) {
            break;
        }
    }
    parent.unpin_mirrors();
}

/// One shortcut pass (paper Fig. 8, `Shortcut`): `parent(n) <-
/// parent(parent(n))` until quiescent. The grandparent may be any node in
/// the graph, so each round requests the parents' properties first; the
/// compiler's master-elision restricts the iterator to masters.
pub(crate) fn shortcut<M: NodePropMap<u64>>(parent: &mut M, dg: &DistGraph, ctx: &HostCtx) {
    loop {
        ctx.set_round(ctx.current_round() + 1);
        parent.reset_updated();
        let p = &*parent;
        ctx.par_for(0..dg.num_masters(), |_tid, range| {
            for m in range {
                let g = dg.local_to_global(m as u32);
                let par = p.read(g);
                p.request(par as NodeId);
            }
        });
        parent.request_sync(ctx);
        let p = &*parent;
        ctx.par_for(0..dg.num_masters(), |tid, range| {
            for m in range {
                let g = dg.local_to_global(m as u32);
                let par = p.read(g);
                let grand = p.read(par as NodeId);
                if par != grand {
                    p.reduce(tid, g, grand);
                }
            }
        });
        parent.reduce_sync(ctx);
        parent.broadcast_sync(ctx);
        if !parent.is_updated(ctx) {
            break;
        }
    }
}

/// Shiloach-Vishkin connected components (paper Fig. 4): alternate hook and
/// shortcut until a full round makes no progress. Pointer jumping lets
/// labels skip many edges per round, which is why CC-SV beats CC-LP on
/// high-diameter graphs (§6.2).
///
/// Returns this host's master labels. Collective.
pub fn cc_sv<B: MapBuilder>(dg: &DistGraph, ctx: &HostCtx, b: &B) -> Vec<(NodeId, u64)> {
    let mut parent = b.build::<u64, Min>(dg, ctx, Min);
    parent.init_masters(&|g| g as u64);
    let work_done = BoolReducer::new();
    loop {
        work_done.set(false);
        hook(&mut parent, dg, ctx, &work_done);
        shortcut(&mut parent, dg, ctx);
        if !work_done.read(ctx) {
            break;
        }
    }
    collect_masters(&parent, dg)
}

/// Shortcutting label propagation (Stergiou et al.): each outer round runs
/// one label-propagation sweep (adjacent-vertex, pinned mirrors) followed
/// by one pointer-jumping sweep (trans-vertex, requests), combining LP's
/// fast fan-out on power-law graphs with shortcutting's long jumps on
/// high-diameter graphs.
///
/// Returns this host's master labels. Collective.
pub fn cc_sclp<B: MapBuilder>(dg: &DistGraph, ctx: &HostCtx, b: &B) -> Vec<(NodeId, u64)> {
    let mut label = b.build::<u64, Min>(dg, ctx, Min);
    label.init_masters(&|g| g as u64);
    loop {
        // LP sweep.
        ctx.set_round(ctx.current_round() + 1);
        label.pin_mirrors(ctx);
        label.reset_updated();
        let l = &label;
        ctx.par_for(0..dg.num_local_nodes(), |tid, range| {
            for lid in range {
                let lid = lid as u32;
                // One block lookup serves both the skip test and the scan
                // (degree() would decode the compressed header twice), and
                // targets() skips weight bytes entirely — CC never reads
                // them.
                let targets = dg.targets(lid);
                if targets.len() == 0 {
                    continue;
                }
                let my = l.read(dg.local_to_global(lid));
                targets.for_each(|dst| {
                    let dst_g = dg.local_to_global(dst);
                    if my < l.read(dst_g) {
                        l.reduce(tid, dst_g, my);
                    }
                });
            }
        });
        label.reduce_sync(ctx);
        label.broadcast_sync(ctx);
        let lp_updated = label.is_updated(ctx);
        label.unpin_mirrors();

        // Shortcut sweep: one pointer jump per outer round.
        label.reset_updated();
        let l = &label;
        ctx.par_for(0..dg.num_masters(), |_tid, range| {
            for m in range {
                let g = dg.local_to_global(m as u32);
                l.request(l.read(g) as NodeId);
            }
        });
        label.request_sync(ctx);
        let l = &label;
        ctx.par_for(0..dg.num_masters(), |tid, range| {
            for m in range {
                let g = dg.local_to_global(m as u32);
                let par = l.read(g);
                let grand = l.read(par as NodeId);
                if par != grand {
                    l.reduce(tid, g, grand);
                }
            }
        });
        label.reduce_sync(ctx);
        let sc_updated = label.is_updated(ctx);

        if !lp_updated && !sc_updated {
            break;
        }
    }
    collect_masters(&label, dg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NpmBuilder;
    use crate::merge_master_values;
    use crate::refcheck;
    use kimbap_comm::{Cluster, HostStats};
    use kimbap_dist::{partition, partition_cfg, PartitionCfg, Policy};
    use kimbap_graph::{gen, Graph};
    use kimbap_npm::Variant;

    fn run_cc(
        g: &Graph,
        hosts: usize,
        threads: usize,
        policy: Policy,
        algo: impl Fn(&DistGraph, &HostCtx, &NpmBuilder) -> Vec<(NodeId, u64)> + Sync,
    ) -> Vec<u64> {
        let parts = partition(g, policy, hosts);
        let b = NpmBuilder::default();
        let per_host =
            Cluster::with_threads(hosts, threads).run(|ctx| algo(&parts[ctx.host()], ctx, &b));
        merge_master_values(g.num_nodes(), per_host)
    }

    fn check_graph(g: &Graph, hosts: usize, threads: usize, policy: Policy) {
        let expected = refcheck::connected_components(g);
        for (name, labels) in [
            ("sv", run_cc(g, hosts, threads, policy, cc_sv)),
            ("lp", run_cc(g, hosts, threads, policy, cc_lp)),
            ("sclp", run_cc(g, hosts, threads, policy, cc_sclp)),
        ] {
            assert_eq!(
                labels, expected,
                "{name} wrong on {hosts} hosts / {policy:?}"
            );
        }
    }

    #[test]
    fn connected_grid() {
        let g = gen::grid_road(7, 9, 1);
        check_graph(&g, 3, 2, Policy::EdgeCutBlocked);
    }

    #[test]
    fn power_law_cvc() {
        let g = gen::rmat(8, 4, 5);
        check_graph(&g, 4, 2, Policy::CartesianVertexCut);
    }

    #[test]
    fn disconnected_components() {
        // Two separate paths + isolated nodes.
        let mut b = kimbap_graph::GraphBuilder::new();
        for i in 0..10u32 {
            b.add_edge(i, i + 1, 1);
        }
        for i in 20..25u32 {
            b.add_edge(i, i + 1, 1);
        }
        b.ensure_nodes(30);
        let g = b.symmetric(true).build();
        check_graph(&g, 2, 1, Policy::EdgeCutBlocked);
        check_graph(&g, 3, 2, Policy::CartesianVertexCut);
    }

    #[test]
    fn single_host_matches() {
        let g = gen::rmat(7, 3, 8);
        check_graph(&g, 1, 2, Policy::EdgeCutBlocked);
    }

    #[test]
    fn high_diameter_path() {
        // A long path: worst case for LP, best case for pointer jumping.
        let mut b = kimbap_graph::GraphBuilder::new();
        for i in 0..200u32 {
            b.add_edge(i, i + 1, 1);
        }
        let g = b.symmetric(true).build();
        check_graph(&g, 2, 2, Policy::EdgeCutBlocked);
    }

    /// The label propagation `cc_lp` replaced: every round visits every
    /// proxy. The oracle for the frontier's differential test.
    fn cc_lp_dense<B: MapBuilder>(dg: &DistGraph, ctx: &HostCtx, b: &B) -> Vec<(NodeId, u64)> {
        let mut label = b.build::<u64, Min>(dg, ctx, Min);
        label.init_masters(&|g| g as u64);
        label.pin_mirrors(ctx);
        loop {
            ctx.set_round(ctx.current_round() + 1);
            label.reset_updated();
            let l = &label;
            ctx.par_for(0..dg.num_local_nodes(), |tid, range| {
                for lid in range {
                    let lid = lid as u32;
                    let my = l.read(dg.local_to_global(lid));
                    dg.targets(lid).for_each(|dst| {
                        let dst_g = dg.local_to_global(dst);
                        if my < l.read(dst_g) {
                            l.reduce(tid, dst_g, my);
                        }
                    });
                }
            });
            label.reduce_sync(ctx);
            label.broadcast_sync(ctx);
            if !label.is_updated(ctx) {
                break;
            }
        }
        label.unpin_mirrors();
        collect_masters(&label, dg)
    }

    /// Merged labels, round count, and cluster-wide stats of one run.
    fn run_counted(
        g: &Graph,
        parts: &[DistGraph],
        threads: usize,
        b: &NpmBuilder,
        algo: fn(&DistGraph, &HostCtx, &NpmBuilder) -> Vec<(NodeId, u64)>,
    ) -> (Vec<u64>, u64, HostStats) {
        let per_host = Cluster::with_threads(parts.len(), threads).run(|ctx| {
            let labels = algo(&parts[ctx.host()], ctx, b);
            (labels, ctx.current_round(), ctx.stats())
        });
        let rounds = per_host[0].1;
        assert!(
            per_host.iter().all(|h| h.1 == rounds),
            "hosts disagree on rounds"
        );
        let mut stats = HostStats::default();
        for h in &per_host {
            stats.merge(&h.2);
        }
        let labels =
            merge_master_values(g.num_nodes(), per_host.into_iter().map(|h| h.0).collect());
        (labels, rounds, stats)
    }

    #[test]
    fn frontier_cc_lp_matches_dense_reference() {
        let mut b = kimbap_graph::GraphBuilder::new();
        for i in (0..30u32).step_by(3) {
            b.add_edge(i, i + 1, 1).add_edge(i + 1, i + 2, 1);
        }
        b.ensure_nodes(40); // nodes 30..40 are isolated
        let graphs = [
            ("rmat", gen::rmat(7, 4, 11)),
            ("grid", gen::grid_road(9, 7, 2)),
            ("disconnected", b.symmetric(true).build()),
        ];
        let policies = [
            Policy::EdgeCutBlocked,
            Policy::EdgeCutIncoming,
            Policy::EdgeCutHashed,
            Policy::CartesianVertexCut,
        ];
        for (name, g) in &graphs {
            let expected = refcheck::connected_components(g);
            for policy in policies {
                for hosts in 1..=4 {
                    for compressed in [false, true] {
                        let cfg = PartitionCfg {
                            compressed,
                            ..PartitionCfg::new(policy, hosts)
                        };
                        let parts = partition_cfg(g, &cfg);
                        for threads in 1..=3 {
                            for variant in [Variant::SgrOnly, Variant::SgrCf, Variant::SgrCfGar] {
                                let case = format!(
                                    "{name} {policy:?} {hosts}x{threads} compressed={compressed} {variant}"
                                );
                                let b = NpmBuilder::new(variant);
                                let (labels, rounds, stats) =
                                    run_counted(g, &parts, threads, &b, cc_lp);
                                let (ref_labels, ref_rounds, ref_stats) =
                                    run_counted(g, &parts, threads, &b, cc_lp_dense);
                                assert_eq!(ref_labels, expected, "{case}: reference");
                                assert_eq!(labels, expected, "{case}");
                                assert_eq!(rounds, ref_rounds, "{case}: rounds");
                                assert_eq!(
                                    (stats.bytes, stats.messages),
                                    (ref_stats.bytes, ref_stats.messages),
                                    "{case}: traffic"
                                );
                                let proxies: u64 =
                                    parts.iter().map(|p| p.num_local_nodes() as u64).sum();
                                assert_eq!(stats.parfor_nodes, proxies * rounds, "{case}");
                                if variant.partition_aware() {
                                    assert_eq!(stats.sparse_rounds, rounds - 1, "{case}");
                                    if *name == "grid" {
                                        assert!(stats.active_nodes < stats.parfor_nodes, "{case}");
                                    }
                                } else {
                                    // No delta to read: every round dense.
                                    assert_eq!(stats.sparse_rounds, 0, "{case}");
                                    assert_eq!(stats.active_nodes, stats.parfor_nodes, "{case}");
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn sv_works_on_all_variants() {
        let g = gen::rmat(7, 4, 3);
        let expected = refcheck::connected_components(&g);
        for variant in [Variant::SgrOnly, Variant::SgrCf, Variant::SgrCfGar] {
            let parts = partition(&g, Policy::EdgeCutBlocked, 3);
            let b = NpmBuilder::new(variant);
            let per_host = Cluster::with_threads(3, 2)
                .run(|ctx| cc_sv(&parts[ctx.host()], ctx, &b));
            let labels = merge_master_values(g.num_nodes(), per_host);
            assert_eq!(labels, expected, "variant {variant} diverged");
        }
    }
}
