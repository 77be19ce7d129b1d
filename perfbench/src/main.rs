//! The Kimbap benchmark: three seeded workloads run through the public
//! library API on the in-proc transport at 2 hosts x 1 worker thread.
//!
//! ```text
//! perfbench --workload <powerlaw-cc|road-cc|serve-mix> --seed N --seconds S --trace 0|1
//!           [--out-dir DIR] [--git-sha SHA] [--rustc VERSION]
//! ```
//!
//! With `--trace 0` it reports the end-to-end metrics. With `--trace 1` it
//! alternates untraced and traced iterations, reports the per-layer
//! metrics and the tracing overhead, and writes the spans as a Chrome
//! trace. Every output is checked. The last line of standard output is one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`; the exit
//! code is 1 if any output was wrong and 2 on a usage or I/O error.

mod cc;
mod inputs;
mod layers;
mod report;
mod serve;
mod stats;
mod trace;
mod traced_map;

use cc::{CcAlgo, CcWorkload, Iteration};
use kimbap_dist::DistGraph;
use layers::Layers;
use report::{reset_vm_hwm, vm_hwm_kib, Outcome, Shares};
use serve::{ServeWorkload, Session};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::{SpanId, Tracer};

/// Simulated hosts.
pub const HOSTS: usize = 2;
/// Worker threads per host: `HOSTS * THREADS` fits a 2-core machine
/// without oversubscription.
pub const THREADS: usize = 1;
/// Batches in one serve session (two queries each).
const SERVE_BATCHES: usize = 60;
/// Repeats of the serial baseline in a traced run.
const BASELINE_REPEATS: usize = 3;

/// Runs `f`, inside a span when tracing; returns its result and seconds.
pub fn timed<R>(
    tracer: Option<&Tracer>,
    name: &'static str,
    host: Option<usize>,
    parent: Option<SpanId>,
    f: impl FnOnce() -> R,
) -> (R, f64) {
    match tracer {
        Some(t) => t.time(name, host, parent, f),
        None => {
            let t = Instant::now();
            let r = f();
            (r, t.elapsed().as_secs_f64())
        }
    }
}

/// Shape of one partitioning.
#[derive(Debug, Clone, Copy)]
pub struct Layout {
    /// Sum of `DistGraph::size_bytes` over hosts.
    pub local_bytes: usize,
    /// Local nodes (masters and mirrors) over global nodes.
    pub replication: f64,
    /// Max over mean of the hosts' local edge counts.
    pub edge_imbalance: f64,
}

impl Layout {
    /// Measures `parts`.
    pub fn of(parts: &[DistGraph]) -> Layout {
        let nodes = parts[0].num_global_nodes().max(1) as f64;
        let edges: Vec<f64> = parts.iter().map(|p| p.num_local_edges() as f64).collect();
        let mean = edges.iter().sum::<f64>() / edges.len() as f64;
        let local: usize = parts.iter().map(DistGraph::num_local_nodes).sum();
        Layout {
            local_bytes: parts.iter().map(DistGraph::size_bytes).sum(),
            replication: local as f64 / nodes,
            edge_imbalance: edges.iter().cloned().fold(0.0, f64::max) / mean.max(1.0),
        }
    }
}

/// Command-line arguments.
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    out_dir: PathBuf,
    git_sha: String,
    rustc: String,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |name: &str| {
        argv.iter()
            .position(|a| a == name)
            .and_then(|i| argv.get(i + 1))
            .cloned()
    };
    let num = |name: &str| -> Result<u64, String> {
        get(name)
            .ok_or(format!("missing {name}"))?
            .parse()
            .map_err(|_| format!("bad value for {name}"))
    };
    let workload = get("--workload").ok_or("missing --workload")?;
    if !matches!(workload.as_str(), "powerlaw-cc" | "road-cc" | "serve-mix") {
        return Err(format!("unknown workload '{workload}'"));
    }
    let trace = match num("--trace")? {
        0 => false,
        1 => true,
        _ => return Err("--trace takes 0 or 1".into()),
    };
    Ok(Args {
        workload,
        seed: num("--seed")?,
        seconds: num("--seconds")?.max(1),
        trace,
        out_dir: PathBuf::from(get("--out-dir").unwrap_or_else(|| "perfbench/out".into())),
        git_sha: get("--git-sha").unwrap_or_else(|| "unknown".into()),
        rustc: get("--rustc").unwrap_or_else(|| "unknown".into()),
    })
}

/// The environment every result is recorded with, as one JSON object.
fn env_json(a: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"git_sha\": \"{}\", \"rustc\": \"{}\", \"nproc\": {nproc}, \"hosts\": {HOSTS}, \
         \"threads_per_host\": {THREADS}, \"oversubscribed\": {}}}",
        a.workload,
        a.seed,
        a.seconds,
        a.trace,
        a.git_sha.replace('"', ""),
        a.rustc.replace('"', ""),
        HOSTS * THREADS > nproc
    )
}

fn main() -> ExitCode {
    match run() {
        Ok(out) => {
            if out.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

fn run() -> Result<Outcome, String> {
    let args = parse_args()?;
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("create {}: {e}", args.out_dir.display()))?;
    let env = env_json(&args);
    println!("env: {env}");
    let budget = Duration::from_secs(args.seconds);
    let tracer = args.trace.then(Tracer::default);
    let out = match args.workload.as_str() {
        "serve-mix" => run_serve(&args, budget, tracer.as_ref())?,
        w => run_cc(&args, w, budget, tracer.as_ref())?,
    };
    if let Some(t) = &tracer {
        let path = args
            .out_dir
            .join(format!("trace-{}-seed{}.json", args.workload, args.seed));
        std::fs::File::create(&path)
            .and_then(|f| t.write_chrome(std::io::BufWriter::new(f), &env))
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        println!("trace: {}", path.display());
    }
    for line in &out.report {
        println!("{line}");
    }
    println!(
        "failed_frac: {} ratio ({} of {} failed)",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted
    );
    if let Some(f) = &out.first_failure {
        println!("first failure: {f}");
    }
    for f in &out.check_failures {
        println!("benchmark check failed: {f}");
    }
    println!("{}", out.result_json());
    Ok(out)
}

/// Writes a generated graph where the workload will read it. One file per
/// workload, replaced by every run, so runs do not pile inputs up.
fn write_input(args: &Args, g: &kimbap_graph::Graph) -> Result<PathBuf, String> {
    let path = args.out_dir.join(format!("{}.kg", args.workload));
    inputs::write_kg(g, &path).map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(path)
}

/// Times of the serial union-find baseline on the graph at `path`.
fn serial_baseline(path: &Path) -> Result<Vec<f64>, String> {
    let g = inputs::read_kg(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    Ok((0..BASELINE_REPEATS)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(kimbap_algos::refcheck::connected_components(&g));
            t.elapsed().as_secs_f64()
        })
        .collect())
}

/// Runs `step(traced)` for `budget`: untraced steps, each followed by a
/// traced one when tracing. At least one of each runs. Returns the steps
/// and the peak resident set (MiB) while they ran.
fn measure<T>(
    budget: Duration,
    tracing: bool,
    out: &mut Outcome,
    mut step: impl FnMut(bool) -> T,
) -> (Vec<T>, Vec<T>, f64) {
    if let Err(e) = reset_vm_hwm() {
        out.report.push(format!(
            "warning: cannot reset VmHWM ({e}); peak_rss_mb includes input generation"
        ));
    }
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while plain.is_empty() || start.elapsed() < budget {
        plain.push(step(false));
        if tracing {
            traced.push(step(true));
        }
    }
    (plain, traced, vm_hwm_kib() as f64 / 1024.0)
}

fn run_cc(
    args: &Args,
    workload: &str,
    budget: Duration,
    tracer: Option<&Tracer>,
) -> Result<Outcome, String> {
    let (g, algo) = if workload == "powerlaw-cc" {
        (inputs::powerlaw_graph(), CcAlgo::Sv)
    } else {
        (inputs::road_graph(args.seed), CcAlgo::Lp)
    };
    let w = CcWorkload {
        algo,
        path: write_input(args, &g)?,
        reference: kimbap_algos::refcheck::connected_components(&g),
    };
    drop(g);
    let baseline = if tracer.is_some() {
        serial_baseline(&w.path)?
    } else {
        Vec::new()
    };
    let mut out = Outcome::default();
    // Warm-up: page cache, lazy initialization, allocator arenas.
    let warm = w.iterate(None);
    out.count(1, warm.failure.is_some() as u64, warm.failure.as_ref());
    // Labels are compared pairwise and then dropped, so the run does not
    // hold one label vector per iteration.
    let mut last_plain: Option<Vec<u64>> = None;
    let mut mismatches = 0;
    let (plain, traced, peak_mb) = measure(budget, tracer.is_some(), &mut out, |traced| {
        let mut it = w.iterate(if traced { tracer } else { None });
        let labels = std::mem::take(&mut it.labels);
        let ok = it.failure.is_none().then_some(labels);
        if !traced {
            last_plain = ok;
        } else if let (Some(t), Some(p)) = (&ok, &last_plain) {
            mismatches += usize::from(t != p);
        }
        it
    });
    for it in plain.iter().chain(&traced) {
        out.count(1, it.failure.is_some() as u64, it.failure.as_ref());
    }
    if mismatches > 0 {
        out.check_failures.push(format!(
            "{mismatches} traced iterations gave labels that differ from NpmBuilder's"
        ));
    }
    let plain: Vec<&Iteration> = plain.iter().filter(|i| i.failure.is_none()).collect();
    let traced: Vec<&Iteration> = traced.iter().filter(|i| i.failure.is_none()).collect();
    if plain.is_empty() || (tracer.is_some() && traced.is_empty()) {
        return Ok(out);
    }
    match tracer {
        None => {
            // Each phase's wall time discounted by the CPU time stolen
            // during it (see `CpuTicks`); the report also gives the shares
            // and the wall times.
            let steal_free = |f: fn(&Iteration) -> f64, share: fn(&Shares) -> f64| -> Vec<f64> {
                plain.iter().map(|i| f(i) * share(&i.shares)).collect()
            };
            let total = steal_free(|i| i.total_s, |s| s.total);
            out.timing("setup_s", &steal_free(Iteration::setup_s, |s| s.setup), "s");
            out.timing("solve_s", &steal_free(Iteration::solve_s, |s| s.run), "s");
            out.timing("total_s", &total, "s");
            out.note(
                "cpu_share",
                &plain.iter().map(|i| i.shares.total).collect::<Vec<_>>(),
                "ratio",
            );
            out.note(
                "wall_total_s",
                &plain.iter().map(|i| i.total_s).collect::<Vec<_>>(),
                "s",
            );
            out.metric("peak_rss_mb", peak_mb, "MiB");
            // Each iteration is one `kimbap run` query; its latency is the
            // whole wait.
            let latency_ms: Vec<f64> = total.iter().map(|s| s * 1e3).collect();
            out.queries(&latency_ms, total.iter().sum());
        }
        Some(t) => Layers::of_cc(t, &plain, &traced, baseline, &mut out).report(&mut out),
    }
    Ok(out)
}

fn run_serve(args: &Args, budget: Duration, tracer: Option<&Tracer>) -> Result<Outcome, String> {
    let g = inputs::serve_graph();
    let path = write_input(args, &g)?;
    drop(g);
    let baseline = if tracer.is_some() {
        serial_baseline(&path)?
    } else {
        Vec::new()
    };
    // Computing the references also warms up lazy state (the compiled
    // cc-sv plan, the page cache).
    let w = ServeWorkload::new(path, inputs::query_stream(args.seed, SERVE_BATCHES * HOSTS))?;
    let mut out = Outcome::default();
    let (plain, traced, peak_mb) = measure(budget, tracer.is_some(), &mut out, |traced| {
        w.session(if traced { tracer } else { None })
    });
    for s in plain.iter().chain(&traced) {
        out.count(s.attempted, s.failed, s.failure.as_ref());
    }
    let plain: Vec<&Session> = plain.iter().filter(|s| s.failure.is_none()).collect();
    let traced: Vec<&Session> = traced.iter().filter(|s| s.failure.is_none()).collect();
    if plain.is_empty() || (tracer.is_some() && traced.is_empty()) {
        return Ok(out);
    }
    match tracer {
        None => {
            // Steal-discounted as for the cc workloads; a batch takes the
            // share of its stream.
            let steal_free = |f: fn(&Session) -> f64, share: fn(&Shares) -> f64| -> Vec<f64> {
                plain.iter().map(|s| f(s) * share(&s.shares)).collect()
            };
            let stream = steal_free(Session::stream_s, |s| s.run);
            out.timing("setup_s", &steal_free(Session::setup_s, |s| s.setup), "s");
            out.timing("solve_s", &stream, "s");
            out.timing("total_s", &steal_free(|s| s.total_s, |s| s.total), "s");
            out.note(
                "cpu_share",
                &plain.iter().map(|s| s.shares.total).collect::<Vec<_>>(),
                "ratio",
            );
            out.note(
                "wall_total_s",
                &plain.iter().map(|s| s.total_s).collect::<Vec<_>>(),
                "s",
            );
            out.metric("peak_rss_mb", peak_mb, "MiB");
            let latency_ms: Vec<f64> = plain
                .iter()
                .flat_map(|s| {
                    s.hosts
                        .iter()
                        .flat_map(|h| h.batches.iter().map(|b| b.ms * s.shares.run))
                })
                .collect();
            out.queries(&latency_ms, stream.iter().sum());
        }
        Some(_) => Layers::of_serve(&plain, &traced, &w.merge_s, baseline).report(&mut out),
    }
    Ok(out)
}
