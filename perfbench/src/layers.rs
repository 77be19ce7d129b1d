//! The per-layer metrics of a traced run.
//!
//! Every workload reports the same metrics in the same order. A layer a
//! workload does not reach through a traced call reads 0: the serve layer
//! on the cc workloads, the NPM sync timers and `algos.rounds` on
//! `serve-mix` (its maps are built inside `kimbap::serve`), and
//! `engine.phase_s` wherever no compiled-engine plan runs (only the engine
//! reports phase counters).

use crate::cc::Iteration;
use crate::report::Outcome;
use crate::serve::Session;
use crate::stats::median;
use crate::trace::{Children, Tracer};
use crate::Layout;
use kimbap_comm::HostStats;

/// The collective NPM calls the traced map times, with the names of their
/// min- and max-over-hosts metrics.
const SYNC_CALLS: [(&str, &str, &str); 5] = [
    (
        "npm.request_sync",
        "npm.request_sync_s.min",
        "npm.request_sync_s.max",
    ),
    (
        "npm.reduce_sync",
        "npm.reduce_sync_s.min",
        "npm.reduce_sync_s.max",
    ),
    (
        "npm.broadcast_sync",
        "npm.broadcast_sync_s.min",
        "npm.broadcast_sync_s.max",
    ),
    (
        "npm.pin_mirrors",
        "npm.pin_mirrors_s.min",
        "npm.pin_mirrors_s.max",
    ),
    (
        "npm.is_updated",
        "npm.is_updated_s.min",
        "npm.is_updated_s.max",
    ),
];

/// Clock rounding allowed between a solve span and its sync children:
/// per host, compute (the solve span's self time) plus the summed sync
/// spans must equal the solve span to within this.
pub const ACCOUNTING_TOLERANCE_S: f64 = 1e-6;

/// Per-layer values; timings are medians over the traced iterations.
#[derive(Default)]
pub struct Layers {
    load_s: Vec<f64>,
    partition_s: Vec<f64>,
    layout: Option<Layout>,
    /// Per sync call: (min over hosts, max over hosts) seconds.
    sync_s: [(f64, f64); 5],
    compute_s: f64,
    sync_wait_s: f64,
    sync_calls: f64,
    sync_us_per_round: f64,
    comm_busy_s: f64,
    traffic: Traffic,
    cluster_s: f64,
    rounds: f64,
    merge_s: f64,
    baseline_s: Vec<f64>,
    engine_phase_s: f64,
    serve: Option<ServeLayer>,
    overhead_s: f64,
}

/// Exact traffic counts, summed over hosts.
#[derive(Default, Clone, Copy)]
struct Traffic {
    bytes: u64,
    messages: u64,
    chunks_sent: u64,
    retransmits: u64,
}

impl Traffic {
    fn of<'a>(stats: impl Iterator<Item = &'a HostStats>) -> Traffic {
        let mut t = Traffic::default();
        for s in stats {
            t.bytes += s.bytes;
            t.messages += s.messages;
            t.chunks_sent += s.chunks_sent;
            t.retransmits += s.retransmits + s.chunk_retransmits + s.crc_rejects;
        }
        t
    }
}

/// Serve-layer values.
#[derive(Default)]
struct ServeLayer {
    hits: u64,
    misses: u64,
    evictions: u64,
    hit_batch_ms: Vec<f64>,
    miss_batch_ms: Vec<f64>,
}

fn max_over<'a>(stats: impl Iterator<Item = &'a HostStats>, f: impl Fn(&HostStats) -> u64) -> f64 {
    stats.map(|s| f(s) as f64 * 1e-9).fold(0.0, f64::max)
}

fn phase_nanos(s: &HostStats) -> u64 {
    s.request_compute_nanos + s.request_sync_nanos + s.reduce_compute_nanos + s.reduce_sync_nanos
}

fn min_max(xs: impl Iterator<Item = f64>) -> (f64, f64) {
    xs.fold((f64::INFINITY, 0.0), |(lo, hi), x| (lo.min(x), hi.max(x)))
}

impl Layers {
    /// Layers of a cc workload from its traced iterations (`traced`, whose
    /// solve spans live in `t`), the untraced iterations run between them
    /// (`plain`), and the serial baseline. Adds a check failure to `out`
    /// for any host whose sync spans do not nest inside its solve span.
    pub fn of_cc(
        t: &Tracer,
        plain: &[&Iteration],
        traced: &[&Iteration],
        baseline_s: Vec<f64>,
        out: &mut Outcome,
    ) -> Layers {
        // Per traced iteration, per host: the solve span's children.
        let kids: Vec<Vec<Children>> = traced
            .iter()
            .map(|i| {
                i.hosts
                    .iter()
                    .map(|h| t.children(h.span.expect("traced solves have spans")))
                    .collect()
            })
            .collect();
        let sync = |c: &Children| c.secs_with_prefix("npm.");
        let failures_before = out.check_failures.len();
        for (it, k) in traced.iter().zip(&kids) {
            for (h, (host, c)) in it.hosts.iter().zip(k).enumerate() {
                if !c.nested || sync(c) > host.solve_s + ACCOUNTING_TOLERANCE_S {
                    out.check_failures.push(format!(
                        "host {h}: sync spans ({} s) do not nest in the {} s solve span",
                        sync(c),
                        host.solve_s
                    ));
                }
            }
        }
        let med = |f: &dyn Fn(&Iteration, &[Children]) -> f64| {
            median(
                &traced
                    .iter()
                    .zip(&kids)
                    .map(|(i, k)| f(i, k))
                    .collect::<Vec<_>>(),
            )
        };
        let first = traced[0];
        let rounds = first.hosts[0].rounds;
        let mut sync_s = [(0.0, 0.0); 5];
        for (slot, (call, _, _)) in sync_s.iter_mut().zip(SYNC_CALLS) {
            *slot = (
                med(&|_, k| min_max(k.iter().map(|c| c.secs(call))).0),
                med(&|_, k| min_max(k.iter().map(|c| c.secs(call))).1),
            );
        }
        let layers = Layers {
            load_s: traced.iter().map(|i| i.load_s).collect(),
            partition_s: traced.iter().map(|i| i.partition_s).collect(),
            layout: Some(first.layout),
            sync_s,
            compute_s: med(&|i, k| {
                min_max(i.hosts.iter().zip(k).map(|(h, c)| h.solve_s - sync(c))).1
            }),
            sync_wait_s: med(&|_, k| {
                let (lo, hi) = min_max(k.iter().map(sync));
                hi - lo
            }),
            sync_calls: kids[0][0].count_with_prefix("npm.") as f64,
            sync_us_per_round: med(&|_, k| {
                k.iter().map(sync).sum::<f64>() / k.len() as f64 / rounds.max(1) as f64 * 1e6
            }),
            comm_busy_s: med(&|i, _| max_over(i.hosts.iter().map(|h| &h.stats), |s| s.comm_nanos)),
            traffic: Traffic::of(first.hosts.iter().map(|h| &h.stats)),
            cluster_s: med(&|i, _| i.cluster_s - i.solve_s()),
            rounds: rounds as f64,
            merge_s: med(&|i, _| i.merge_s),
            baseline_s,
            engine_phase_s: med(&|i, _| max_over(i.hosts.iter().map(|h| &h.stats), phase_nanos)),
            serve: None,
            overhead_s: median(&traced.iter().map(|i| i.solve_s()).collect::<Vec<_>>())
                - median(&plain.iter().map(|i| i.solve_s()).collect::<Vec<_>>()),
        };
        if out.check_failures.len() == failures_before {
            out.report.push(format!(
                "accounting: on every host of {} traced iterations, npm.compute_s plus the \
                 npm.*_sync_s spans equals the solve span within {ACCOUNTING_TOLERANCE_S} s",
                traced.len()
            ));
        }
        layers
    }

    /// Layers of `serve-mix` from its traced sessions, the untraced
    /// sessions run between them, the output merges made while checking,
    /// and the serial baseline.
    pub fn of_serve(
        plain: &[&Session],
        traced: &[&Session],
        merge_s: &[f64],
        baseline_s: Vec<f64>,
    ) -> Layers {
        let med =
            |f: &dyn Fn(&Session) -> f64| median(&traced.iter().map(|s| f(s)).collect::<Vec<_>>());
        let first = traced[0];
        let s0 = &first.hosts[0].stats;
        let batches = || {
            traced
                .iter()
                .flat_map(|s| s.hosts.iter().flat_map(|h| h.batches.iter()))
        };
        Layers {
            load_s: traced.iter().map(|s| s.load_s).collect(),
            partition_s: traced.iter().map(|s| s.partition_s).collect(),
            layout: Some(first.layout),
            comm_busy_s: med(&|s| max_over(s.hosts.iter().map(|h| &h.stats), |x| x.comm_nanos)),
            traffic: Traffic::of(first.hosts.iter().map(|h| &h.stats)),
            cluster_s: med(&|s| s.cluster_s - s.stream_s()),
            merge_s: median(merge_s),
            baseline_s,
            engine_phase_s: med(&|s| max_over(s.hosts.iter().map(|h| &h.stats), phase_nanos)),
            serve: Some(ServeLayer {
                hits: s0.cache_hits,
                misses: s0.cache_misses,
                evictions: s0.cache_evictions,
                hit_batch_ms: batches().filter(|b| b.all_cached).map(|b| b.ms).collect(),
                miss_batch_ms: batches().filter(|b| !b.all_cached).map(|b| b.ms).collect(),
            }),
            overhead_s: med(&Session::stream_s)
                - median(&plain.iter().map(|s| s.stream_s()).collect::<Vec<_>>()),
            ..Layers::default()
        }
    }

    /// Reports every per-layer metric, in one fixed order.
    pub fn report(self, out: &mut Outcome) {
        out.timing("graph.load_s", &self.load_s, "s");
        out.timing("dist.partition_s", &self.partition_s, "s");
        let l = self.layout.expect("every workload partitions");
        out.metric("dist.local_bytes", l.local_bytes as f64, "bytes");
        out.metric("dist.replication", l.replication, "ratio");
        out.metric("dist.edge_imbalance", l.edge_imbalance, "ratio");
        for ((_, min_name, max_name), (lo, hi)) in SYNC_CALLS.iter().zip(self.sync_s) {
            out.metric(min_name, lo, "s");
            out.metric(max_name, hi, "s");
        }
        out.metric("npm.compute_s", self.compute_s, "s");
        out.metric("npm.sync_wait_s", self.sync_wait_s, "s");
        out.metric("npm.sync_calls", self.sync_calls, "count");
        out.metric("npm.sync_us_per_round", self.sync_us_per_round, "us");
        out.metric("comm.busy_s", self.comm_busy_s, "s");
        out.metric("comm.bytes", self.traffic.bytes as f64, "bytes");
        out.metric("comm.messages", self.traffic.messages as f64, "count");
        out.metric("comm.chunks_sent", self.traffic.chunks_sent as f64, "count");
        out.metric("comm.cluster_s", self.cluster_s, "s");
        out.metric("comm.retransmits", self.traffic.retransmits as f64, "count");
        out.metric("algos.rounds", self.rounds, "count");
        out.metric("algos.merge_s", self.merge_s, "s");
        out.timing("baseline.serial_s", &self.baseline_s, "s");
        out.metric("engine.phase_s", self.engine_phase_s, "s");
        let s = self.serve.unwrap_or_default();
        let lookups = (s.hits + s.misses).max(1) as f64;
        out.metric("serve.hit_ratio", s.hits as f64 / lookups, "ratio");
        out.metric("serve.hits", s.hits as f64, "count");
        out.metric("serve.misses", s.misses as f64, "count");
        out.metric("serve.evictions", s.evictions as f64, "count");
        out.timing("serve.hit_batch_ms", &s.hit_batch_ms, "ms");
        out.timing("serve.miss_batch_ms", &s.miss_batch_ms, "ms");
        out.report.push(format!(
            "tracing overhead: traced minus untraced solve_s = {:.6} s",
            self.overhead_s
        ));
        out.metric("trace.overhead_s", self.overhead_s, "s");
    }
}
