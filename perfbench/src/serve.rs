//! The `serve-mix` workload: one resident graph served by a
//! [`HostServer`] per host, driven by a closed loop with two outstanding
//! queries — one in each host's admission queue. Each `serve_batch` call
//! carries both, and the next two are submitted when it returns.
//!
//! A session sets the graph up once and serves the whole query stream with
//! cold caches, so every session sees the same hits, misses and evictions.
//!
//! Checking: before timing, every algorithm runs once through
//! `serve_batch`; its per-host outputs, merged with `merge_job_outputs`,
//! must equal `serial_reference`. Those per-host outputs become the
//! reference each host compares every query's output with as it returns —
//! equal partials merge to the checked output — so checking needs no extra
//! thread and keeps no outputs.

use crate::cc::check_fault_free;
use crate::inputs::{read_kg, ALGOS};
use crate::report::{CpuTicks, Shares};
use crate::trace::Tracer;
use crate::{timed, Layout, HOSTS, THREADS};
use kimbap::serve::{
    merge_job_outputs, serial_reference, Algo, HostServer, JobOutput, JobSpec, JobStatus,
    ScheduledJob,
};
use kimbap_comm::{Cluster, HostStats};
use kimbap_dist::{partition_cfg, DistGraph, PartitionCfg, Policy};
use std::path::PathBuf;
use std::time::Instant;

/// Result-cache entries per host (the `kimbap serve` default).
pub const CACHE_CAPACITY: usize = 32;

/// One host's view of one batch: its latency and whether every job was
/// answered from the cache.
#[derive(Debug, Clone, Copy)]
pub struct Batch {
    /// Submission to `serve_batch` return, in milliseconds.
    pub ms: f64,
    /// Every job of the batch came from the result cache.
    pub all_cached: bool,
}

/// One host's record of one job: which job, how it ended, and whether its
/// output equalled this host's reference partial.
#[derive(Debug, Clone, Copy, PartialEq)]
struct JobCheck {
    job: ScheduledJob,
    status: JobStatus,
    output_ok: bool,
}

/// One host's record of a session.
pub struct HostRun {
    /// Post-barrier start to the last batch's return, in seconds.
    pub stream_s: f64,
    /// Each batch as this host saw it.
    pub batches: Vec<Batch>,
    /// Comm and cache counters of the stream (reset after the barrier).
    pub stats: HostStats,
    /// Every job, in schedule order.
    jobs: Vec<JobCheck>,
}

/// One session: set-up plus the whole query stream.
pub struct Session {
    /// `io::read_binary` seconds.
    pub load_s: f64,
    /// `partition_cfg` seconds, compression included.
    pub partition_s: f64,
    /// Wall seconds of `Cluster::run` (spawn, barrier, stream, teardown).
    pub cluster_s: f64,
    /// Set-up plus the cluster run, in seconds.
    pub total_s: f64,
    /// Shares of the CPU time asked for that the machine got during the
    /// session's phases (see [`CpuTicks`]).
    pub shares: Shares,
    /// Per-host records, in host order (empty if a host failed).
    pub hosts: Vec<HostRun>,
    /// Shape of the resident partition.
    pub layout: Layout,
    /// Queries submitted.
    pub attempted: u64,
    /// Queries that failed (wrong output, missed deadline, host failure).
    pub failed: u64,
    /// First failure seen, if any.
    pub failure: Option<String>,
}

impl Session {
    /// Load plus partition, in seconds.
    pub fn setup_s(&self) -> f64 {
        self.load_s + self.partition_s
    }

    /// Max over hosts of the stream time, in seconds.
    pub fn stream_s(&self) -> f64 {
        self.hosts.iter().map(|h| h.stream_s).fold(0.0, f64::max)
    }
}

/// The serve workload over one generated `.kg` file.
pub struct ServeWorkload {
    /// The generated resident graph.
    pub path: PathBuf,
    /// The queries of a session, two per batch (host 0's, then host 1's).
    pub stream: Vec<JobSpec>,
    /// Per host, per algorithm (in [`ALGOS`] order): the checked output.
    partials: Vec<Vec<JobOutput>>,
    /// Seconds of each `merge_job_outputs` call made while checking.
    pub merge_s: Vec<f64>,
}

fn partition_resident(g: &kimbap_graph::Graph) -> Vec<DistGraph> {
    let cfg = PartitionCfg {
        compressed: true,
        ..PartitionCfg::new(Policy::EdgeCutBlocked, HOSTS)
    };
    partition_cfg(g, &cfg)
}

fn algo_index(algo: Algo) -> usize {
    ALGOS
        .iter()
        .position(|&a| a == algo)
        .expect("the stream draws only known algorithms")
}

impl ServeWorkload {
    /// Prepares the workload: serves every algorithm once and checks its
    /// merged output against `serial_reference` on the same partition.
    pub fn new(path: PathBuf, stream: Vec<JobSpec>) -> Result<ServeWorkload, String> {
        let g = read_kg(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
        let n = g.num_nodes();
        let parts = partition_resident(&g);
        drop(g);
        let cluster = Cluster::with_threads(HOSTS, THREADS);
        let jobs: Vec<JobSpec> = ALGOS.iter().map(|&a| JobSpec::new(a)).collect();
        let per_host = cluster.run(|ctx| {
            let local: &[JobSpec] = if ctx.host() == 0 { &jobs } else { &[] };
            HostServer::new(ALGOS.len())
                .serve_batch(ctx, &parts[ctx.host()], local)
                .into_iter()
                .map(|r| r.output.expect("jobs without deadlines complete"))
                .collect::<Vec<_>>()
        });
        let mut merge_s = Vec::new();
        for (k, &algo) in ALGOS.iter().enumerate() {
            let outs = per_host.iter().map(|p| p[k].clone()).collect();
            let t = Instant::now();
            let merged = merge_job_outputs(algo, n, outs);
            merge_s.push(t.elapsed().as_secs_f64());
            if merged != serial_reference(n, &parts, &cluster, algo) {
                return Err(format!(
                    "served {} differs from its serial reference",
                    algo.name()
                ));
            }
        }
        Ok(ServeWorkload {
            path,
            stream,
            partials: per_host,
            merge_s,
        })
    }

    /// Runs one session; with a tracer, spans are recorded around the
    /// set-up calls, the cluster run and every `serve_batch`.
    pub fn session(&self, tracer: Option<&Tracer>) -> Session {
        let stream = &self.stream;
        let start_ticks = CpuTicks::now();
        let t0 = Instant::now();
        let root = tracer.map(|t| t.open("session", None, None));
        let (g, load_s) = timed(tracer, "graph.load", None, root, || read_kg(&self.path));
        let g = g.expect("the generated input is readable");
        let (parts, partition_s) = timed(tracer, "dist.partition", None, root, || {
            partition_resident(&g)
        });
        let setup_ticks = CpuTicks::now();
        drop(g);
        let layout = Layout::of(&parts);
        let batches = stream.len() / HOSTS;
        let cluster = Cluster::with_threads(HOSTS, THREADS);
        let run_ticks = CpuTicks::now();
        let (results, cluster_s) = timed(tracer, "comm.cluster", None, root, || {
            cluster.try_run(|ctx| {
                ctx.barrier();
                ctx.reset_stats();
                let h = ctx.host();
                let mut server = HostServer::new(CACHE_CAPACITY);
                let mut record = Vec::with_capacity(batches);
                let mut jobs = Vec::with_capacity(stream.len());
                let start = Instant::now();
                for b in 0..batches {
                    let local = [stream[b * HOSTS + h]];
                    let (reports, secs) = timed(tracer, "serve.batch", Some(h), root, || {
                        server.serve_batch(ctx, &parts[h], &local)
                    });
                    record.push(Batch {
                        ms: secs * 1e3,
                        all_cached: reports.iter().all(|r| r.status.is_cached()),
                    });
                    jobs.extend(reports.iter().map(|r| JobCheck {
                        job: r.job,
                        status: r.status,
                        output_ok: r.output.as_ref()
                            == Some(&self.partials[h][algo_index(r.job.spec.algo)]),
                    }));
                }
                HostRun {
                    stream_s: start.elapsed().as_secs_f64(),
                    batches: record,
                    stats: ctx.stats(),
                    jobs,
                }
            })
        });
        let run_end_ticks = CpuTicks::now();
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
        let attempted = stream.len() as u64;
        let mut failure = None;
        let mut hosts = Vec::with_capacity(HOSTS);
        for (h, r) in results.into_iter().enumerate() {
            match r {
                Ok(run) => hosts.push(run),
                Err(e) => failure = failure.or(Some(format!("host {h} failed: {e}"))),
            }
        }
        let failed = if hosts.len() < HOSTS {
            hosts.clear();
            attempted
        } else if let Some(f) = check_fault_free(hosts.iter().map(|h| &h.stats)) {
            failure = Some(f);
            attempted
        } else {
            let (bad, first) = check_jobs(&hosts, stream.len());
            failure = first;
            bad
        };
        Session {
            load_s,
            partition_s,
            cluster_s,
            total_s,
            shares,
            hosts,
            layout,
            attempted,
            failed,
            failure,
        }
    }
}

/// Counts the failed queries of a session: a query passes when every host
/// scheduled it at the same position with the same status, it completed,
/// and every host's output equalled its reference partial.
fn check_jobs(hosts: &[HostRun], queries: usize) -> (u64, Option<String>) {
    let mut failed = 0;
    let mut first = None;
    for k in 0..queries {
        let col: Vec<Option<&JobCheck>> = hosts.iter().map(|h| h.jobs.get(k)).collect();
        let Some(j0) = col[0] else {
            failed += 1;
            first.get_or_insert(format!("query {k}: missing from the schedule"));
            continue;
        };
        let name = j0.job.spec.algo.name();
        let why = if col
            .iter()
            .any(|c| c.map(|c| (c.job, c.status)) != Some((j0.job, j0.status)))
        {
            Some(format!("hosts disagree on {name}"))
        } else if j0.status == JobStatus::DeadlineMissed {
            Some(format!("{name} missed its deadline"))
        } else if !col.iter().all(|c| c.is_some_and(|c| c.output_ok)) {
            Some(format!("{name} output differs from its checked reference"))
        } else {
            None
        };
        if let Some(why) = why {
            failed += 1;
            first.get_or_insert(format!("query {k}: {why}"));
        }
    }
    (failed, first)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{query_stream, write_kg};
    use kimbap_graph::gen;

    fn workload(tag: &str, seed: u64, queries: usize) -> (ServeWorkload, PathBuf) {
        let g = gen::with_random_weights(&gen::rmat(9, 8, seed), 100, seed);
        let dir = std::env::temp_dir().join(format!("perfbench-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("serve.kg");
        write_kg(&g, &path).unwrap();
        (
            ServeWorkload::new(path, query_stream(seed, queries)).unwrap(),
            dir,
        )
    }

    fn counts(s: &Session) -> Vec<(u64, u64, u64)> {
        s.hosts
            .iter()
            .map(|h| {
                (
                    h.stats.cache_hits,
                    h.stats.cache_misses,
                    h.stats.cache_evictions,
                )
            })
            .collect()
    }

    #[test]
    fn one_seed_repeats_its_stream_and_cache_counts() {
        let (w, dir) = workload("repeat", 11, 120);
        let (a, b) = (w.session(None), w.session(None));
        assert_eq!(a.failure, None);
        assert_eq!((a.attempted, a.failed), (120, 0));
        assert_eq!(counts(&a), counts(&b));
        let (hits, misses, _) = counts(&a)[0];
        assert!(hits > 0 && misses > 0, "the stream mixes hits and misses");
        assert_eq!(hits + misses, 120, "each host looks up every query");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_wrong_output_fails_its_queries() {
        let (mut w, dir) = workload("wrong", 12, 20);
        // A deliberately wrong reference on host 1 for every algorithm.
        for out in &mut w.partials[1] {
            *out = JobOutput::Masters(vec![(0, 99)]);
        }
        let s = w.session(None);
        assert_eq!(s.failed, s.attempted);
        assert!(s.failure.expect("mismatch must fail").contains("differs"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
