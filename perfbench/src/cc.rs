//! The `powerlaw-cc` and `road-cc` workloads: each iteration is one
//! `kimbap run cc-*` — load the `.kg` file, partition it (Cartesian
//! vertex cut, compressed tier), spawn the cluster, solve, and merge the
//! master labels — checked against the serial union-find reference.

use crate::inputs::read_kg;
use crate::report::{CpuTicks, Shares};
use crate::trace::{SpanId, Tracer};
use crate::traced_map::TracedBuilder;
use crate::{timed, Layout, HOSTS, THREADS};
use kimbap_algos::{cc, merge_master_values, MapBuilder, NpmBuilder};
use kimbap_comm::{Cluster, HostCtx, HostStats};
use kimbap_dist::{partition_cfg, DistGraph, PartitionCfg, Policy};
use kimbap_graph::NodeId;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::Instant;

/// Which connected-components algorithm a workload runs.
#[derive(Debug, Clone, Copy)]
pub enum CcAlgo {
    /// Shiloach–Vishkin (`cc::cc_sv`).
    Sv,
    /// Label propagation (`cc::cc_lp`).
    Lp,
}

impl CcAlgo {
    fn solve<B: MapBuilder>(self, dg: &DistGraph, ctx: &HostCtx, b: &B) -> Vec<(NodeId, u64)> {
        match self {
            CcAlgo::Sv => cc::cc_sv(dg, ctx, b),
            CcAlgo::Lp => cc::cc_lp(dg, ctx, b),
        }
    }
}

/// One host's share of a solve.
pub struct HostRun {
    /// Post-barrier start to this host's return, in seconds.
    pub solve_s: f64,
    /// Comm counters of the solve (reset after the start barrier).
    pub stats: HostStats,
    /// `HostCtx::current_round` after the solve.
    pub rounds: u64,
    /// The host's solve span, in a traced iteration.
    pub span: Option<SpanId>,
}

/// One timed iteration.
pub struct Iteration {
    /// `io::read_binary` seconds.
    pub load_s: f64,
    /// `partition_cfg` seconds, compression included.
    pub partition_s: f64,
    /// Wall seconds of `Cluster::run` (spawn, barrier, solve, teardown).
    pub cluster_s: f64,
    /// `merge_master_values` seconds.
    pub merge_s: f64,
    /// Load to merged labels, in seconds.
    pub total_s: f64,
    /// Shares of the CPU time asked for that the machine got during the
    /// iteration's phases (see [`CpuTicks`]).
    pub shares: Shares,
    /// Per-host results, in host order (empty if a host failed).
    pub hosts: Vec<HostRun>,
    /// Shape of the partition.
    pub layout: Layout,
    /// The merged labels (empty if the run failed).
    pub labels: Vec<u64>,
    /// Why the iteration counts as failed, if it does.
    pub failure: Option<String>,
}

impl Iteration {
    /// Load plus partition, in seconds.
    pub fn setup_s(&self) -> f64 {
        self.load_s + self.partition_s
    }

    /// Max over hosts of the per-host solve time, in seconds.
    pub fn solve_s(&self) -> f64 {
        self.hosts.iter().map(|h| h.solve_s).fold(0.0, f64::max)
    }
}

/// A connected-components workload over one generated `.kg` file.
pub struct CcWorkload {
    /// Algorithm to run.
    pub algo: CcAlgo,
    /// The generated input.
    pub path: PathBuf,
    /// Serial reference labels.
    pub reference: Vec<u64>,
}

impl CcWorkload {
    /// Runs one iteration; with a tracer, spans are recorded around each
    /// layer call and the NPM runs behind [`TracedBuilder`].
    pub fn iterate(&self, tracer: Option<&Tracer>) -> Iteration {
        let start_ticks = CpuTicks::now();
        let t0 = Instant::now();
        let root = tracer.map(|t| t.open("iteration", None, None));
        let (g, load_s) = timed(tracer, "graph.load", None, root, || read_kg(&self.path));
        let g = g.expect("the generated input is readable");
        let cfg = PartitionCfg {
            compressed: true,
            ..PartitionCfg::new(Policy::CartesianVertexCut, HOSTS)
        };
        let (parts, partition_s) = timed(tracer, "dist.partition", None, root, || {
            partition_cfg(&g, &cfg)
        });
        let setup_ticks = CpuTicks::now();
        let n = g.num_nodes();
        drop(g);
        let layout = Layout::of(&parts);
        let cluster = Cluster::with_threads(HOSTS, THREADS);
        let run_ticks = CpuTicks::now();
        let (results, cluster_s) = timed(tracer, "comm.cluster", None, root, || {
            cluster.try_run(|ctx| {
                ctx.barrier();
                ctx.reset_stats();
                let h = ctx.host();
                let dg = &parts[h];
                let start = Instant::now();
                let (labels, span) = match tracer {
                    None => (self.algo.solve(dg, ctx, &NpmBuilder::default()), None),
                    Some(t) => {
                        let sid = t.open("algos.solve", Some(h), root);
                        let labels = self.algo.solve(dg, ctx, &TracedBuilder::new(t, h, sid));
                        t.close(sid);
                        (labels, Some(sid))
                    }
                };
                let solve_s = match (tracer, span) {
                    (Some(t), Some(sid)) => t.secs(sid),
                    _ => start.elapsed().as_secs_f64(),
                };
                let run = HostRun {
                    solve_s,
                    stats: ctx.stats(),
                    rounds: ctx.current_round(),
                    span,
                };
                (labels, run)
            })
        });
        let run_end_ticks = CpuTicks::now();
        let mut failure = None;
        let mut per_host = Vec::with_capacity(HOSTS);
        let mut hosts = Vec::with_capacity(HOSTS);
        for (h, r) in results.into_iter().enumerate() {
            match r {
                Ok((labels, run)) => {
                    per_host.push(labels);
                    hosts.push(run);
                }
                Err(e) => failure = Some(format!("host {h} failed: {e}")),
            }
        }
        let mut labels = Vec::new();
        let mut merge_s = 0.0;
        if failure.is_none() {
            let (merged, secs) = timed(tracer, "algos.merge", None, root, || {
                catch_unwind(AssertUnwindSafe(|| merge_master_values(n, per_host)))
            });
            merge_s = secs;
            match merged {
                Ok(m) => labels = m,
                Err(_) => failure = Some("master labels do not partition the nodes".into()),
            }
        } else {
            hosts.clear();
        }
        let total_s = t0.elapsed().as_secs_f64();
        let shares = Shares::new(
            start_ticks,
            setup_ticks,
            run_ticks,
            run_end_ticks,
            CpuTicks::now(),
        );
        if let Some(root) = root {
            tracer.expect("root span implies a tracer").close(root);
        }
        if failure.is_none() {
            failure = check_labels(&labels, &self.reference)
                .or_else(|| check_fault_free(hosts.iter().map(|h| &h.stats)));
        }
        Iteration {
            load_s,
            partition_s,
            cluster_s,
            merge_s,
            total_s,
            shares,
            hosts,
            layout,
            labels,
            failure,
        }
    }
}

/// `None` if `labels` equals `reference`, else where they first differ.
pub fn check_labels(labels: &[u64], reference: &[u64]) -> Option<String> {
    if labels.len() != reference.len() {
        return Some(format!(
            "{} labels for {} nodes",
            labels.len(),
            reference.len()
        ));
    }
    let bad = labels.iter().zip(reference).position(|(a, b)| a != b)?;
    Some(format!(
        "node {bad} labelled {} (expected {})",
        labels[bad], reference[bad]
    ))
}

/// `None` if no frame was re-sent or rejected — in a fault-free run, any
/// is a failure.
pub fn check_fault_free<'a>(stats: impl Iterator<Item = &'a HostStats>) -> Option<String> {
    let retx: u64 = stats
        .map(|s| s.retransmits + s.chunk_retransmits + s.crc_rejects)
        .sum();
    (retx > 0).then(|| format!("{retx} retransmits or CRC rejects in a fault-free run"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrong_labels_are_a_failure() {
        let reference = vec![0, 0, 2, 2];
        assert_eq!(check_labels(&reference.clone(), &reference), None);
        let wrong = vec![0, 0, 2, 1];
        assert!(check_labels(&wrong, &reference)
            .expect("a wrong label must fail")
            .contains("node 3"));
        assert!(check_labels(&[0, 0, 2], &reference).is_some());
    }

    #[test]
    fn a_wrong_label_vector_fails_its_iteration() {
        let g = kimbap_graph::gen::grid_road(6, 6, 1);
        let dir = std::env::temp_dir().join(format!("perfbench-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("grid.kg");
        crate::inputs::write_kg(&g, &path).unwrap();
        let mut reference = kimbap_algos::refcheck::connected_components(&g);
        let ok = CcWorkload {
            algo: CcAlgo::Lp,
            path: path.clone(),
            reference: reference.clone(),
        };
        assert!(ok.iterate(None).failure.is_none());
        // A deliberately wrong reference: the same run must now fail.
        reference[5] = 1;
        let bad = CcWorkload {
            algo: CcAlgo::Lp,
            path,
            reference,
        };
        let it = bad.iterate(None);
        assert!(it.failure.expect("mismatch must fail").contains("node 5"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn retransmits_are_a_failure() {
        let clean = HostStats::default();
        assert_eq!(check_fault_free([&clean].into_iter()), None);
        let noisy = HostStats {
            crc_rejects: 1,
            ..HostStats::default()
        };
        assert!(check_fault_free([&clean, &noisy].into_iter()).is_some());
    }

    #[test]
    fn traced_map_gives_identical_labels() {
        let g = kimbap_graph::gen::rmat(9, 8, 3);
        let dir = std::env::temp_dir().join(format!("perfbench-traced-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("rmat.kg");
        crate::inputs::write_kg(&g, &path).unwrap();
        let w = CcWorkload {
            algo: CcAlgo::Sv,
            path,
            reference: kimbap_algos::refcheck::connected_components(&g),
        };
        let plain = w.iterate(None);
        let tracer = Tracer::default();
        let traced = w.iterate(Some(&tracer));
        assert!(plain.failure.is_none() && traced.failure.is_none());
        assert_eq!(plain.labels, traced.labels);
        let sid = traced.hosts[0].span.expect("traced solve has a span");
        let kids = tracer.children(sid);
        assert!(kids.nested);
        assert!(kids.count_with_prefix("npm.") > 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
