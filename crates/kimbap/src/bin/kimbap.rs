//! The `kimbap` command-line tool: generate graphs, inspect them, run the
//! distributed algorithms on a simulated cluster, and compile vertex
//! programs.
//!
//! ```text
//! kimbap gen --kind rmat --scale 12 --ef 8 --out g.kg
//! kimbap stats g.kg
//! kimbap run cc-sv g.kg --hosts 4 --threads 2
//! kimbap run cc-lp g.kg --hosts 3 --transport tcp --faults drop --seed 1
//! kimbap run louvain g.kg --hosts 4
//! kimbap compile program.kv [--no-opt]
//! ```
//!
//! `--transport tcp` runs each host as its own OS process connected over
//! TCP loopback: the launcher re-executes this binary with the hidden
//! `_worker` subcommand once per host, each worker binds
//! `127.0.0.1:port_base+host`, and the launcher merges the per-host master
//! values after all workers exit. The same seeded `--faults` plans run on
//! either transport and must produce identical labels.

use kimbap::elastic::{join_plan_elastic, run_plan_elastic};
use kimbap::engine::EngineConfig;
use kimbap::prelude::*;
use kimbap::serve::{self, Algo, HostServer, JobReport, JobSpec, JobStatus};
use kimbap::simfuzz;
use kimbap_algos::{
    cc, compose_labels, leiden, louvain, merge_master_values, mis, msf, refcheck, LouvainConfig,
    NpmBuilder,
};
use kimbap_comm::{
    new_trace_sink, run_transport_host, Deadline, HostError, TcpTransport, TransportConfig,
};
use kimbap_compiler::{classify_program, compile, frontend, programs, OptLevel};
use kimbap_dist::{partition_cfg, PartitionCfg};
use kimbap_graph::io;
use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::process::ExitCode;
use std::time::{Duration, Instant};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("gen") => cmd_gen(&args[1..]),
        Some("stats") => cmd_stats(&args[1..]),
        Some("run") => cmd_run(&args[1..]),
        Some("sim") => cmd_sim(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("submit") => cmd_submit(&args[1..]),
        Some("serve-sim") => cmd_serve_sim(&args[1..]),
        Some("_worker") => cmd_worker(&args[1..]),
        Some("compile") => cmd_compile(&args[1..]),
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
usage:
  kimbap gen --kind <rmat|grid|er> [--scale N] [--ef N] [--rows N] [--cols N]
             [--nodes N] [--edges N] [--seed N] [--weights MAX]
             [--unit-weights] --out FILE
  kimbap stats FILE
  kimbap run <cc-sv|cc-lp|cc-sclp|mis|msf|louvain|leiden> FILE
             [--hosts N] [--threads N] [--transport inproc|tcp]
             [--faults none|drop|corrupt|crash|kill|join] [--seed N]
             [--allow-shrink] [--allow-grow] [--no-pipeline]
             [--port-base N] [--out FILE] [--raw] [--hub-threshold N]
  kimbap sim [--algo <cc-sv|cc-lp|cc-sclp|mis|msf|louvain|leiden>]
             [--seed N] [--seeds N] [--hosts N] [--threads N]
             [--scale N] [--ef N] [--allow-shrink] [--allow-grow]
             [--no-pipeline] [--trace FILE] [--out FILE] [--raw]
             [--hub-threshold N]
  kimbap serve FILE [--hosts N] [--threads N] [--jobs FILE] [--job SPEC]...
               [--cache-capacity N] [--out-dir DIR] [--raw]
               [--hub-threshold N]
  kimbap submit --jobs FILE SPEC
  kimbap serve-sim [--seed N] [--seeds N] [--hosts N] [--threads N]
                   [--scale N] [--ef N] [--raw] [--hub-threshold N]
  kimbap compile FILE.kv [--no-opt]

graphs are stored in the kimbap binary format (.kg) or may be text edge
lists; vertex programs (.kv) use the surface syntax of kimbap-compiler's
frontend. --transport tcp spawns one worker process per host over TCP
loopback; --faults (connected-components algorithms only) injects a
seeded fault plan; --out (cc-* and louvain/leiden) writes one label per
node for diffing across transports and storage tiers.

kimbap sim replays a fully deterministic multi-host schedule on the
discrete-event simulation backend: the seed fixes the R-MAT input graph,
a randomized fault plan (drops, dups, corruption, delays, crashes,
stalls), and every scheduling decision, so the same seed reproduces the
same run byte for byte. Each seed must either converge to the fault-free
reference labels or surface a communication failure — anything else (and
any divergence) fails with the exact command that replays it. --seeds N
fuzzes N consecutive seeds; --trace dumps the event schedule as JSONL.

reduce-sync rounds pipeline by default: hosts hand outgoing buffers to
the wire as they are serialized and overlap local reduction with
delivery. --no-pipeline falls back to the plain blocking collectives;
both modes produce byte-identical outputs for the same seed, which the
CI smoke diffs.

--allow-shrink survives permanent host loss: the survivors agree the dead
host out of the membership, re-partition over the shrunk cluster, and
re-converge. With --faults kill (or the kill-bearing seeds of the sim
fuzz plans) the victim exits mid-run and the remaining hosts must still
produce the fault-free output.

--allow-grow (cc-lp only) runs the compiled elastic engine and accepts a
live host join mid-run: the members stop at a round boundary, admit the
newcomer, re-shard the master maps over the expanded ownership, and
resume. --faults join declares one spare host that knocks ~50 ms in; on
--transport tcp it is a real worker process spawned late. kimbap sim
--allow-grow draws seeded churn plans (joins, kills, both) and checks
every interleaving converges to the fault-free labels.

runs are read-only over the graph, so each host stores its local CSR on
the compressed tier (delta+varint neighbor blocks) by default; --raw
keeps the uncompressed arrays. --hub-threshold N splits the edge lists
of nodes with degree > N across hosts on hub-splitting policies. Both
knobs change only memory/traffic, never outputs: the CI smoke diffs
compressed against raw labels.

kimbap serve keeps one partitioned graph resident and runs a whole batch
of analytics jobs over it. A job SPEC is
algo[,prio=N][,deadline-ms=N][,params=N][,host=N] — for example
'louvain,prio=3,deadline-ms=500'; params is an opaque query tag (equal
(algo,params) pairs share one cached result) and host picks the
admission queue the job enters (round-robin by default). kimbap submit
appends a validated SPEC to a jobs file that serve later drains via
--jobs. Jobs run in an agreed order (priority desc, tightest deadline
first, then submission provenance) identical on every host; repeated
queries are answered from a per-host result cache keyed by (graph
epoch, algorithm, params), and a job that exceeds its deadline is
marked missed by agreement instead of wedging the batch.

kimbap serve-sim fuzzes the scheduler the way kimbap sim fuzzes one
algorithm: the seed fixes the graph, a 3-8 job mix (random priorities,
deadlines, duplicate submissions, submitting hosts), and a fault plan
that can land one crash or stall inside a specific job's round band.
Every completed job must match the same job run serially on a fault-
free cluster, byte for byte; anything else fails with the exact
serve-sim command that replays it.";

type CliResult = Result<(), String>;

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

fn flag_num<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    match flag(args, name) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("bad value for {name}: {v}")),
    }
}

/// Graph-storage knobs shared by `run`, `sim`, and the TCP workers:
/// compressed local CSRs (the default — every run is read-only over the
/// graph) and degree-aware hub splitting.
#[derive(Clone, Copy)]
struct StoreOpts {
    compressed: bool,
    hub_threshold: Option<usize>,
}

impl StoreOpts {
    fn parse(args: &[String]) -> Result<Self, String> {
        Ok(StoreOpts {
            compressed: !args.iter().any(|a| a == "--raw"),
            hub_threshold: match flag(args, "--hub-threshold") {
                None => None,
                Some(v) => Some(
                    v.parse()
                        .map_err(|_| format!("bad value for --hub-threshold: {v}"))?,
                ),
            },
        })
    }

    fn cfg(self, policy: Policy, hosts: usize) -> PartitionCfg {
        PartitionCfg {
            policy,
            hosts,
            compressed: self.compressed,
            hub_degree_threshold: self.hub_threshold,
        }
    }
}

fn load_graph(path: &str) -> Result<Graph, String> {
    let f = File::open(path).map_err(|e| format!("open {path}: {e}"))?;
    let mut r = BufReader::new(f);
    if path.ends_with(".kg") {
        io::read_binary(&mut r).map_err(|e| format!("read {path}: {e}"))
    } else {
        io::read_edge_list(r).map_err(|e| format!("read {path}: {e}"))
    }
}

fn cmd_gen(args: &[String]) -> CliResult {
    let kind = flag(args, "--kind").ok_or("missing --kind")?;
    let seed = flag_num(args, "--seed", 42u64)?;
    let out = flag(args, "--out").ok_or("missing --out")?;
    let mut g = match kind.as_str() {
        "rmat" => gen::rmat(
            flag_num(args, "--scale", 12u32)?,
            flag_num(args, "--ef", 8usize)?,
            seed,
        ),
        "grid" => gen::grid_road(
            flag_num(args, "--rows", 100usize)?,
            flag_num(args, "--cols", 100usize)?,
            seed,
        ),
        "er" => gen::erdos_renyi(
            flag_num(args, "--nodes", 10_000usize)?,
            flag_num(args, "--edges", 50_000usize)?,
            seed,
        ),
        other => return Err(format!("unknown kind '{other}'")),
    };
    if let Some(maxw) = flag(args, "--weights") {
        let maxw: u64 = maxw.parse().map_err(|_| "bad --weights")?;
        g = gen::with_random_weights(&g, maxw, seed ^ WEIGHT_SEED_SALT);
    }
    // Generators merge parallel edges by summing weights, so even "plain"
    // R-MAT graphs carry weights > 1; this forces every weight back to 1
    // (the compressed tier then stores no weight bytes at all).
    if args.iter().any(|a| a == "--unit-weights") {
        g = gen::with_unit_weights(&g);
    }
    let f = File::create(&out).map_err(|e| format!("create {out}: {e}"))?;
    io::write_binary(&g, BufWriter::new(f)).map_err(|e| e.to_string())?;
    println!("wrote {} ({})", out, GraphStats::of(&g));
    Ok(())
}

/// Salt mixed into derived weight seeds.
const WEIGHT_SEED_SALT: u64 = 0x5eed;

fn cmd_stats(args: &[String]) -> CliResult {
    let path = args.first().ok_or("missing FILE")?;
    let g = load_graph(path)?;
    println!("{}", GraphStats::of(&g));
    println!("symmetric: {}", g.is_symmetric());
    if !g.is_compressed() {
        let c = GraphStats::of(&g.compress());
        println!(
            "compressed: {} bytes ({:.2} B/edge, {:.2}x smaller)",
            c.size_bytes,
            c.bytes_per_edge(),
            GraphStats::of(&g).size_bytes as f64 / c.size_bytes as f64
        );
    }
    Ok(())
}

/// Builds one of the named, seeded fault plans shared by `--faults` on
/// both transports; the names match the fixed plans of the in-proc fault
/// matrix so CLI runs can be diffed against the test suite's expectations.
fn fault_plan(name: &str, seed: u64, hosts: usize) -> Result<FaultPlan, String> {
    if hosts < 2 && name != "none" {
        return Err("--faults needs at least 2 hosts".into());
    }
    Ok(match name {
        "none" => FaultPlan::new(),
        "drop" => FaultPlan::new()
            .drop_frame(0, 1, 1)
            .with_seed(seed)
            .drop_rate(0.02),
        "corrupt" => FaultPlan::new()
            .corrupt_frame(1, (hosts - 1).min(2), 1, 55)
            .with_seed(seed)
            .corrupt_rate(0.02),
        "crash" => FaultPlan::new().crash_host(1, 2),
        // Permanent loss: host 1 dies at round 2 and never comes back —
        // in process mode the worker exits with KILLED_EXIT_CODE. Only
        // recoverable under --allow-shrink.
        "kill" => FaultPlan::new().kill_host(1, 2),
        // Live join: the highest capacity slot starts latent and knocks
        // 50 ms into the run. Only admittable under --allow-grow, where
        // the launcher sizes the cluster one past --hosts for it.
        "join" => FaultPlan::new().join_host(hosts - 1, 50),
        other => return Err(format!("unknown fault plan '{other}'")),
    })
}

/// Runs the compiled cc-lp program on the elastic engine from one host's
/// context — the `--allow-grow` path shared by the in-proc, TCP-worker,
/// and sim launchers. Members enter through [`run_plan_elastic`] with
/// join detection armed; a latent host sleeps out its declared delay and
/// knocks through [`join_plan_elastic`]. A joiner that gives up (the
/// members finished first) contributes no masters, which is benign: the
/// members' outputs still cover every node.
fn run_grow_cc(g: &Graph, ctx: &HostCtx) -> Vec<(NodeId, u64)> {
    let prog = compile(&programs::cc_lp(), OptLevel::Full);
    let config = EngineConfig {
        allow_grow: true,
        ..EngineConfig::default()
    };
    let out = if ctx.is_member() {
        Some(run_plan_elastic(
            g,
            Policy::EdgeCutBlocked,
            &prog,
            config,
            ctx,
        ))
    } else {
        join_plan_elastic(
            g,
            Policy::EdgeCutBlocked,
            &prog,
            config,
            ctx,
            &Deadline::after("join", Duration::from_secs(10)),
        )
    };
    match out {
        Some(o) => o.map_values.into_iter().next().unwrap_or_default(),
        None => {
            println!("joiner gave up: the members finished before admission");
            Vec::new()
        }
    }
}

/// Runs one cc-family algorithm SPMD on the calling host's context.
fn run_cc(algo: &str, dg: &kimbap_dist::DistGraph, ctx: &HostCtx) -> Vec<(NodeId, u64)> {
    let b = NpmBuilder::default();
    match algo {
        "cc-sv" => cc::cc_sv(dg, ctx, &b),
        "cc-lp" => cc::cc_lp(dg, ctx, &b),
        _ => cc::cc_sclp(dg, ctx, &b),
    }
}

/// Launches `hosts` worker processes of this same binary connected over
/// TCP loopback, waits for all of them, and collects their per-host
/// master labels. Workers write `node label` lines to per-host files in
/// a temp directory; any worker exiting non-zero fails the whole run —
/// except, under `allow_shrink`, a worker dying with
/// [`kimbap_comm::KILLED_EXIT_CODE`]: that is the injected permanent
/// loss, and the survivors' re-sharded outputs cover every node.
#[allow(clippy::too_many_arguments)]
fn run_tcp_cc(
    algo: &str,
    path: &str,
    hosts: usize,
    threads: usize,
    port_base: u16,
    faults: &str,
    seed: u64,
    allow_shrink: bool,
    allow_grow: bool,
    pipelined: bool,
    store: StoreOpts,
) -> Result<Vec<Vec<(NodeId, u64)>>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate own binary: {e}"))?;
    let dir = std::env::temp_dir().join(format!("kimbap-tcp-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let mut children = Vec::with_capacity(hosts);
    for h in 0..hosts {
        // The join plan's latent slot is a genuinely late process: the
        // members' workers are already running their first rounds when
        // the joiner is spawned and knocks on the live cluster.
        if faults == "join" && h == hosts - 1 {
            std::thread::sleep(Duration::from_millis(50));
        }
        let part = dir.join(format!("host{h}.txt"));
        let mut cmd = std::process::Command::new(&exe);
        cmd.arg("_worker")
            .arg(algo)
            .arg(path)
            .args(["--hosts", &hosts.to_string()])
            .args(["--host", &h.to_string()])
            .args(["--threads", &threads.to_string()])
            .args(["--port-base", &port_base.to_string()])
            .args(["--faults", faults])
            .args(["--seed", &seed.to_string()])
            .args(["--out", part.to_str().ok_or("non-UTF-8 temp dir")?]);
        if allow_shrink {
            cmd.arg("--allow-shrink");
        }
        if allow_grow {
            cmd.arg("--allow-grow");
        }
        if !pipelined {
            cmd.arg("--no-pipeline");
        }
        if !store.compressed {
            cmd.arg("--raw");
        }
        if let Some(t) = store.hub_threshold {
            cmd.args(["--hub-threshold", &t.to_string()]);
        }
        let child = cmd.spawn().map_err(|e| format!("spawn worker {h}: {e}"))?;
        children.push((h, child));
    }
    let mut failed = Vec::new();
    let mut killed = vec![false; hosts];
    for (h, mut child) in children {
        let status = child.wait().map_err(|e| format!("wait worker {h}: {e}"))?;
        if allow_shrink && status.code() == Some(kimbap_comm::KILLED_EXIT_CODE) {
            killed[h] = true;
            println!("worker {h} was killed; survivors shrank past it");
        } else if !status.success() {
            failed.push(format!("worker {h} exited with {status}"));
        }
    }
    if !failed.is_empty() {
        return Err(failed.join("; "));
    }
    let mut per_host = Vec::with_capacity(hosts);
    for (h, &was_killed) in killed.iter().enumerate() {
        if was_killed {
            continue;
        }
        let part = dir.join(format!("host{h}.txt"));
        let body = std::fs::read_to_string(&part)
            .map_err(|e| format!("read {}: {e}", part.display()))?;
        let mut vals = Vec::new();
        for line in body.lines() {
            let (node, label) = line
                .split_once(' ')
                .ok_or_else(|| format!("worker {h}: malformed line '{line}'"))?;
            let node: NodeId = node.parse().map_err(|_| format!("worker {h}: bad node"))?;
            let label: u64 = label.parse().map_err(|_| format!("worker {h}: bad label"))?;
            vals.push((node, label));
        }
        per_host.push(vals);
    }
    std::fs::remove_dir_all(&dir).ok();
    Ok(per_host)
}

/// Hidden subcommand: one TCP host process spawned by [`run_tcp_cc`].
fn cmd_worker(args: &[String]) -> CliResult {
    let algo = args.first().ok_or("missing algorithm")?.clone();
    let path = args.get(1).ok_or("missing FILE")?.clone();
    let hosts: usize = flag_num(args, "--hosts", 2)?;
    let host: usize = flag_num(args, "--host", 0)?;
    let threads: usize = flag_num(args, "--threads", 2)?;
    let port_base: u16 = flag_num(args, "--port-base", 46000)?;
    let faults = flag(args, "--faults").unwrap_or_else(|| "none".into());
    let seed: u64 = flag_num(args, "--seed", 1)?;
    let out = flag(args, "--out").ok_or("missing --out")?;
    let allow_shrink = args.iter().any(|a| a == "--allow-shrink");
    let allow_grow = args.iter().any(|a| a == "--allow-grow");
    let pipelined = !args.iter().any(|a| a == "--no-pipeline");
    let store = StoreOpts::parse(args)?;
    let g = load_graph(&path)?;
    let parts = partition_cfg(&g, &store.cfg(Policy::CartesianVertexCut, hosts));
    let plan = fault_plan(&faults, seed, hosts)?;
    let latent = plan.latent_hosts();
    let transport = match TcpTransport::bind_with_latent(
        host,
        hosts,
        port_base,
        TransportConfig::default(),
        &latent,
    ) {
        Ok(t) => t,
        // A late-spawned joiner that cannot reach any member (they
        // finished and closed their listeners first) gives up benignly:
        // the members' outputs already cover every node.
        Err(e) if latent.contains(&host) => {
            println!("joiner could not reach the cluster ({e}); giving up");
            File::create(&out).map_err(|e| format!("create {out}: {e}"))?;
            return Ok(());
        }
        Err(e) => return Err(format!("host {host}: bind tcp transport: {e}")),
    };
    let vals = run_transport_host(&transport, threads, plan, |ctx| {
        ctx.set_pipelined(pipelined);
        if allow_grow {
            // The compiled elastic engine recovers, shrinks, and grows
            // on its own checkpoints — no closure-level retry wrapper.
            run_grow_cc(&g, ctx)
        } else if allow_shrink {
            // Elastic: re-partition from the live membership on every
            // attempt, so after a shrink the survivors cover all nodes.
            ctx.run_elastic(|ctx| {
                let parts =
                    partition_cfg(&g, &store.cfg(Policy::CartesianVertexCut, ctx.num_hosts()));
                run_cc(&algo, &parts[ctx.host()], ctx)
            })
        } else {
            ctx.run_recovering(|ctx| run_cc(&algo, &parts[ctx.host()], ctx))
        }
    })
    .map_err(|e| format!("host {host}: {e}"))?;
    let f = File::create(&out).map_err(|e| format!("create {out}: {e}"))?;
    let mut w = BufWriter::new(f);
    for (node, label) in vals {
        writeln!(w, "{node} {label}").map_err(|e| format!("write {out}: {e}"))?;
    }
    Ok(())
}

/// Per-host values from a faulted run: either every host finished, or at
/// least one aborted with a *communication-rooted* error. Faults must
/// surface as timeouts / failed peers — a non-communication panic is a
/// bug and fails the run.
enum HostValues<R> {
    /// Every host returned a value.
    All(Vec<R>),
    /// A host aborted cleanly on a communication failure (its message).
    Aborted(String),
}

fn host_values<R>(res: Vec<Result<R, HostError>>, elastic: bool) -> Result<HostValues<R>, String> {
    let mut vals = Vec::with_capacity(res.len());
    let mut aborted = None;
    for r in res {
        match r {
            Ok(v) => vals.push(v),
            // Under --allow-shrink the killed host is an *expected*
            // casualty: it aborts with its own permanent-loss error while
            // the survivors shrink past it, so its result is skipped
            // rather than treated as the run's outcome.
            Err(e) if elastic && e.message.starts_with("permanent host loss") => {}
            Err(e)
                if e.message.starts_with("communication failed")
                    || e.message.starts_with("injected crash")
                    || e.message.starts_with("permanent host loss")
                    || e.message.contains("membership lost") =>
            {
                aborted = Some(e.to_string());
            }
            Err(e) => return Err(format!("non-communication host panic: {e}")),
        }
    }
    match aborted {
        Some(m) => Ok(HostValues::Aborted(m)),
        None if vals.is_empty() => Ok(HostValues::Aborted("every host was killed".into())),
        None => Ok(HostValues::All(vals)),
    }
}

/// Runs `f` once per host under `plan`. In elastic mode each attempt
/// re-partitions from the live membership (inside [`HostCtx::run_elastic`])
/// so a shrink re-converges on the survivors; otherwise the partition is
/// fixed up front and transient faults recover in place.
#[allow(clippy::too_many_arguments)]
fn run_hosts<R: Send>(
    elastic: bool,
    pipelined: bool,
    g: &Graph,
    policy: Policy,
    store: StoreOpts,
    cluster: &Cluster,
    plan: FaultPlan,
    f: impl Fn(&kimbap_dist::DistGraph, &HostCtx) -> R + Sync,
) -> Vec<Result<R, HostError>> {
    if elastic {
        cluster.try_run_with_faults(plan, |ctx| {
            ctx.set_pipelined(pipelined);
            ctx.run_elastic(|ctx| {
                let parts = partition_cfg(g, &store.cfg(policy, ctx.num_hosts()));
                f(&parts[ctx.host()], ctx)
            })
        })
    } else {
        let parts = partition_cfg(g, &store.cfg(policy, cluster.num_hosts()));
        cluster.try_run_with_faults(plan, |ctx| {
            ctx.set_pipelined(pipelined);
            ctx.run_recovering(|ctx| f(&parts[ctx.host()], ctx))
        })
    }
}

/// What one simulated run produced.
enum SimOutcome {
    /// Converged: a canonical `u64` fingerprint of the merged output
    /// (labels for cc/louvain, membership for MIS, the sorted forest and
    /// total weight for MSF).
    Labels(Vec<u64>),
    /// Surfaced a communication failure instead of converging.
    Aborted(String),
}

/// Runs `algo` on `cluster` under `plan` and canonicalizes the output.
/// Structural validity (MIS independence/maximality, community labels)
/// is checked against the single-threaded reference right here; exact
/// output equality is the caller's job.
#[allow(clippy::too_many_arguments)]
fn sim_outcome(
    algo: &str,
    g: &Graph,
    cluster: &Cluster,
    plan: FaultPlan,
    elastic: bool,
    pipelined: bool,
    store: StoreOpts,
) -> Result<SimOutcome, String> {
    let policy = match algo {
        "louvain" | "leiden" => Policy::EdgeCutBlocked,
        _ => Policy::CartesianVertexCut,
    };
    let b = NpmBuilder::default();
    let n = g.num_nodes();
    Ok(match algo {
        "cc-sv" | "cc-lp" | "cc-sclp" => {
            match host_values(
                run_hosts(elastic, pipelined, g, policy, store, cluster, plan, |dg, ctx| {
                    run_cc(algo, dg, ctx)
                }),
                elastic,
            )? {
                HostValues::Aborted(m) => SimOutcome::Aborted(m),
                HostValues::All(ph) => SimOutcome::Labels(merge_master_values(n, ph)),
            }
        }
        "mis" => {
            match host_values(
                run_hosts(elastic, pipelined, g, policy, store, cluster, plan, |dg, ctx| {
                    mis(dg, ctx, &b)
                }),
                elastic,
            )? {
                HostValues::Aborted(m) => SimOutcome::Aborted(m),
                HostValues::All(ph) => {
                    let set = merge_master_values(n, ph);
                    refcheck::check_mis(g, &set).map_err(|e| format!("invalid MIS: {e}"))?;
                    SimOutcome::Labels(set.into_iter().map(u64::from).collect())
                }
            }
        }
        "msf" => {
            match host_values(
                run_hosts(elastic, pipelined, g, policy, store, cluster, plan, |dg, ctx| {
                    msf(dg, ctx, &b)
                }),
                elastic,
            )? {
                HostValues::Aborted(m) => SimOutcome::Aborted(m),
                HostValues::All(ph) => {
                    let (mut edges, total) = kimbap_algos::msf::merge_forest(ph);
                    edges.sort_unstable();
                    let mut fp = vec![total, edges.len() as u64];
                    for (u, v, w) in edges {
                        fp.extend([u as u64, v as u64, w]);
                    }
                    SimOutcome::Labels(fp)
                }
            }
        }
        "louvain" | "leiden" => {
            let cfg = LouvainConfig::default();
            match host_values(
                run_hosts(elastic, pipelined, g, policy, store, cluster, plan, |dg, ctx| {
                    if algo == "louvain" {
                        louvain(dg, ctx, &b, &cfg)
                    } else {
                        leiden(dg, ctx, &b, &cfg)
                    }
                }),
                elastic,
            )? {
                HostValues::Aborted(m) => SimOutcome::Aborted(m),
                HostValues::All(ph) => {
                    let labels = compose_labels(n, &ph);
                    refcheck::check_communities(g, &labels)
                        .map_err(|e| format!("invalid communities: {e}"))?;
                    SimOutcome::Labels(labels.into_iter().map(u64::from).collect())
                }
            }
        }
        other => return Err(format!("unknown algorithm '{other}'")),
    })
}

/// Runs one seed end-to-end: generate the graph, compute the fault-free
/// reference, replay the seeded faulty schedule on the sim backend, dump
/// the trace (before verdicts, so a failing seed leaves its schedule on
/// disk), and check convergence. Returns the outcome plus the trace
/// length.
#[allow(clippy::too_many_arguments)]
fn run_sim_seed(
    algo: &str,
    seed: u64,
    hosts: usize,
    threads: usize,
    scale: u32,
    ef: usize,
    allow_shrink: bool,
    allow_grow: bool,
    pipelined: bool,
    store: StoreOpts,
    trace_path: Option<&str>,
    out: Option<&str>,
) -> Result<(SimOutcome, usize), String> {
    if allow_grow && algo != "cc-lp" {
        return Err("--allow-grow runs the compiled elastic engine: cc-lp only".into());
    }
    let mut g = gen::rmat(scale, ef, seed);
    if algo == "msf" {
        g = gen::with_random_weights(&g, 1 << 16, seed ^ WEIGHT_SEED_SALT);
    }
    // Fault-free reference on the in-proc backend (a standing one-seed
    // conformance check between the two local backends).
    let baseline = match sim_outcome(
        algo,
        &g,
        &Cluster::with_threads(hosts, threads),
        FaultPlan::new(),
        false,
        pipelined,
        store,
    )? {
        SimOutcome::Labels(l) => l,
        SimOutcome::Aborted(m) => return Err(format!("fault-free baseline aborted: {m}")),
    };
    if matches!(algo, "cc-sv" | "cc-lp" | "cc-sclp")
        && baseline != refcheck::connected_components(&g)
    {
        return Err("in-proc labels diverge from the single-threaded reference".into());
    }
    // A fired kill makes the survivors finish on the shrunk membership.
    // Algorithms whose output depends on the partition (louvain/leiden)
    // then legitimately converge to the fault-free output of a cluster
    // one host smaller, so that baseline is accepted too.
    let shrunk_baseline = if allow_shrink && simfuzz::kill_victim(seed, hosts).is_some() {
        match sim_outcome(
            algo,
            &g,
            &Cluster::with_threads(hosts - 1, threads),
            FaultPlan::new(),
            false,
            pipelined,
            store,
        )? {
            SimOutcome::Labels(l) => Some(l),
            SimOutcome::Aborted(m) => {
                return Err(format!("fault-free shrunk baseline aborted: {m}"))
            }
        }
    } else {
        None
    };
    let plan = if allow_grow {
        simfuzz::random_churn_plan(seed, hosts)
    } else if allow_shrink {
        simfuzz::random_kill_plan(seed, hosts)
    } else {
        simfuzz::random_fault_plan(seed, hosts)
    };
    // A churn plan's joiner occupies one spare capacity slot past the
    // member count; seeds without a join run at plain capacity.
    let capacity = hosts + plan.latent_hosts().len();
    let sink = new_trace_sink();
    let cluster = Cluster::with_threads(capacity, threads)
        .sim(seed)
        .with_transport_config(simfuzz::sim_transport_config())
        .with_trace_sink(sink.clone());
    let outcome = if allow_grow {
        match host_values(
            cluster.try_run_with_faults(plan, |ctx| {
                ctx.set_pipelined(pipelined);
                run_grow_cc(&g, ctx)
            }),
            true,
        )? {
            HostValues::Aborted(m) => SimOutcome::Aborted(m),
            HostValues::All(ph) => SimOutcome::Labels(merge_master_values(g.num_nodes(), ph)),
        }
    } else {
        sim_outcome(algo, &g, &cluster, plan, allow_shrink, pipelined, store)?
    };
    let trace = std::mem::take(&mut *sink.lock());
    if let Some(path) = trace_path {
        let f = File::create(path).map_err(|e| format!("create {path}: {e}"))?;
        let mut w = BufWriter::new(f);
        for ev in &trace {
            writeln!(w, "{}", ev.to_json()).map_err(|e| format!("write {path}: {e}"))?;
        }
    }
    if let SimOutcome::Labels(labels) = &outcome {
        if *labels != baseline && shrunk_baseline.as_deref() != Some(labels.as_slice()) {
            return Err("labels diverge from the fault-free baseline".into());
        }
        if let Some(path) = out {
            let f = File::create(path).map_err(|e| format!("create {path}: {e}"))?;
            let mut w = BufWriter::new(f);
            for label in labels {
                writeln!(w, "{label}").map_err(|e| format!("write {path}: {e}"))?;
            }
        }
    }
    Ok((outcome, trace.len()))
}

fn cmd_sim(args: &[String]) -> CliResult {
    let algo = flag(args, "--algo").unwrap_or_else(|| "cc-lp".into());
    let hosts: usize = flag_num(args, "--hosts", 3)?;
    // One worker thread per host by default: intra-host pools are real
    // threads even under simulation, and single-threaded hosts keep the
    // whole run (not just the schedule) bit-reproducible.
    let threads: usize = flag_num(args, "--threads", 1)?;
    let scale: u32 = flag_num(args, "--scale", 6)?;
    let ef: usize = flag_num(args, "--ef", 4)?;
    let seed: u64 = flag_num(args, "--seed", 1)?;
    let nseeds: u64 = flag_num(args, "--seeds", 1)?;
    let allow_shrink = args.iter().any(|a| a == "--allow-shrink");
    let allow_grow = args.iter().any(|a| a == "--allow-grow");
    let pipelined = !args.iter().any(|a| a == "--no-pipeline");
    let store = StoreOpts::parse(args)?;
    let trace_path = flag(args, "--trace");
    let out = flag(args, "--out");
    let t = Instant::now();
    let (mut converged, mut aborted) = (0u64, 0u64);
    for s in seed..seed.saturating_add(nseeds) {
        let replay = format!(
            "replay: {}",
            simfuzz::replay_command(&algo, s, hosts, threads, scale, ef, allow_shrink, allow_grow)
        );
        let (outcome, events) = run_sim_seed(
            &algo,
            s,
            hosts,
            threads,
            scale,
            ef,
            allow_shrink,
            allow_grow,
            pipelined,
            store,
            trace_path.as_deref(),
            out.as_deref(),
        )
        .map_err(|e| format!("seed {s}: {e}\n{replay}"))?;
        match outcome {
            SimOutcome::Labels(_) => {
                converged += 1;
                println!("seed {s}: converged ({events} events)");
            }
            SimOutcome::Aborted(m) => {
                aborted += 1;
                println!("seed {s}: surfaced failure ({events} events): {m}");
            }
        }
    }
    println!(
        "{nseeds} seed(s) in {:.2?}: {converged} converged, {aborted} surfaced failures, 0 diverged",
        t.elapsed()
    );
    Ok(())
}

/// Every occurrence of a repeated flag, in order (`--job` may be given
/// many times).
fn flag_all(args: &[String], name: &str) -> Vec<String> {
    args.iter()
        .enumerate()
        .filter(|(_, a)| *a == name)
        .filter_map(|(i, _)| args.get(i + 1).cloned())
        .collect()
}

/// Parses one job SPEC: `algo[,prio=N][,deadline-ms=N][,params=N][,host=N]`.
/// Returns the explicit admission host, if any, alongside the spec.
fn parse_job_spec(s: &str) -> Result<(Option<usize>, JobSpec), String> {
    let mut fields = s.split(',');
    let algo_name = fields.next().ok_or_else(|| format!("empty job spec '{s}'"))?;
    let algo =
        Algo::parse(algo_name).ok_or_else(|| format!("unknown algorithm '{algo_name}' in '{s}'"))?;
    let mut spec = JobSpec::new(algo);
    let mut host = None;
    for field in fields {
        let (key, val) = field
            .split_once('=')
            .ok_or_else(|| format!("malformed field '{field}' in '{s}'"))?;
        let num: u64 = val
            .parse()
            .map_err(|_| format!("bad value '{val}' for {key} in '{s}'"))?;
        match key {
            "prio" => spec.priority = num.min(255) as u8,
            "deadline-ms" => spec.deadline = Some(Duration::from_millis(num)),
            "params" => spec.params = num,
            "host" => host = Some(num as usize),
            other => return Err(format!("unknown field '{other}' in '{s}'")),
        }
    }
    Ok((host, spec))
}

/// Collects the batch's job specs from `--jobs FILE` lines (blank lines
/// and `#` comments skipped) followed by repeated `--job SPEC` flags.
fn collect_jobs(args: &[String]) -> Result<Vec<(Option<usize>, JobSpec)>, String> {
    let mut jobs = Vec::new();
    if let Some(path) = flag(args, "--jobs") {
        let body =
            std::fs::read_to_string(&path).map_err(|e| format!("read jobs file {path}: {e}"))?;
        for line in body.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            jobs.push(parse_job_spec(line)?);
        }
    }
    for spec in flag_all(args, "--job") {
        jobs.push(parse_job_spec(&spec)?);
    }
    Ok(jobs)
}

/// Distributes collected jobs onto per-host admission queues: an explicit
/// `host=N` field pins the job, everything else round-robins.
fn admission_queues(
    jobs: Vec<(Option<usize>, JobSpec)>,
    hosts: usize,
) -> Result<Vec<Vec<JobSpec>>, String> {
    let mut queues = vec![Vec::new(); hosts];
    let mut rr = 0;
    for (pin, spec) in jobs {
        let h = match pin {
            Some(h) if h >= hosts => {
                return Err(format!("job pinned to host {h}, but only {hosts} host(s)"))
            }
            Some(h) => h,
            None => {
                let h = rr;
                rr = (rr + 1) % hosts;
                h
            }
        };
        queues[h].push(spec);
    }
    Ok(queues)
}

/// One line summarizing a merged job output, in the algorithm's terms.
fn describe_output(algo: Algo, merged: &[u64]) -> String {
    match algo {
        Algo::Msf => format!(
            "forest: {} edges, weight {}",
            merged.get(1).copied().unwrap_or(0),
            merged.first().copied().unwrap_or(0)
        ),
        Algo::Mis => format!(
            "independent set of {} nodes",
            merged.iter().filter(|&&x| x == 1).count()
        ),
        _ => {
            let mut comps = merged.to_vec();
            comps.sort_unstable();
            comps.dedup();
            format!("{} components", comps.len())
        }
    }
}

/// One agreed job with its cross-host-merged canonical fingerprint
/// (`None` for deadline-missed jobs).
type MergedReport = (JobReport, Option<Vec<u64>>);

/// Checks every host returned the same agreed schedule and statuses, then
/// merges each completed job's per-host outputs into its canonical
/// fingerprint.
fn merge_reports(n: usize, per_host: Vec<Vec<JobReport>>) -> Result<Vec<MergedReport>, String> {
    let first = per_host.first().ok_or("no host produced reports")?;
    for (h, reports) in per_host.iter().enumerate() {
        if reports.len() != first.len() {
            return Err(format!(
                "host {h} scheduled {} job(s), host 0 scheduled {}",
                reports.len(),
                first.len()
            ));
        }
        for (k, (r, r0)) in reports.iter().zip(first).enumerate() {
            if r.job != r0.job || r.status != r0.status {
                return Err(format!("hosts disagree on job {k}: {r:?} vs {r0:?}"));
            }
        }
    }
    let jobs = first.len();
    let mut merged = Vec::with_capacity(jobs);
    for k in 0..jobs {
        let report = per_host[0][k].clone();
        let fp = if report.output.is_some() {
            let outs = per_host
                .iter()
                .map(|r| r[k].output.clone().expect("statuses agree"))
                .collect();
            Some(serve::merge_job_outputs(report.job.spec.algo, n, outs))
        } else {
            None
        };
        merged.push((report, fp));
    }
    Ok(merged)
}

/// Default result-cache capacity for `serve` sessions: comfortably more
/// than one batch's distinct queries, small enough that long sessions see
/// evictions.
const SERVE_CACHE_CAPACITY: usize = 32;

fn cmd_serve(args: &[String]) -> CliResult {
    let path = args.first().ok_or("missing FILE")?.clone();
    let hosts: usize = flag_num(args, "--hosts", 2)?;
    let threads: usize = flag_num(args, "--threads", 2)?;
    let capacity: usize = flag_num(args, "--cache-capacity", SERVE_CACHE_CAPACITY)?;
    let out_dir = flag(args, "--out-dir");
    let store = StoreOpts::parse(args)?;
    let jobs = collect_jobs(args)?;
    if jobs.is_empty() {
        return Err("no jobs: give --jobs FILE and/or --job SPEC".into());
    }
    let queues = admission_queues(jobs, hosts)?;
    let g = load_graph(&path)?;
    let n = g.num_nodes();
    println!("input: {}", GraphStats::of(&g));
    // One resident partition serves every algorithm, so the policy must
    // be one they all accept: edge-cut with blocked ownership.
    let parts = partition_cfg(&g, &store.cfg(Policy::EdgeCutBlocked, hosts));
    println!(
        "resident: {} local bytes over {hosts} host(s), cache capacity {capacity}",
        parts.iter().map(|p| p.size_bytes()).sum::<usize>()
    );
    let t = Instant::now();
    let cluster = Cluster::with_threads(hosts, threads);
    let q = &queues;
    let p = &parts;
    let results = cluster.run(|ctx| {
        let mut server = HostServer::new(capacity);
        let reports = server.serve_batch(ctx, &p[ctx.host()], &q[ctx.host()]);
        (reports, ctx.stats())
    });
    let elapsed = t.elapsed();
    let (reports, stats): (Vec<_>, Vec<HostStats>) = results.into_iter().unzip();
    let merged = merge_reports(n, reports)?;
    let total = merged.len();
    for (k, (report, fp)) in merged.iter().enumerate() {
        let spec = report.job.spec;
        let what = match (&report.status, fp) {
            (JobStatus::DeadlineMissed, _) => "deadline missed".to_string(),
            (JobStatus::Completed { cached }, Some(fp)) => format!(
                "{}{}",
                describe_output(spec.algo, fp),
                if *cached { " (cached)" } else { "" }
            ),
            (JobStatus::Completed { .. }, None) => unreachable!("completed jobs carry output"),
        };
        println!(
            "job {k}: {} prio={} params={} from host {}: {what}",
            spec.algo.name(),
            spec.priority,
            spec.params,
            report.job.submitter
        );
        if let (Some(dir), Some(fp)) = (&out_dir, fp) {
            std::fs::create_dir_all(dir).map_err(|e| format!("create {dir}: {e}"))?;
            write_lines(&format!("{dir}/job{k}-{}.txt", spec.algo.name()), fp)?;
        }
    }
    let mut agg = HostStats::default();
    for s in &stats {
        agg.merge(s);
    }
    println!(
        "{total} job(s) in {elapsed:.2?}: cache {} hit(s), {} miss(es), {} eviction(s)",
        agg.cache_hits, agg.cache_misses, agg.cache_evictions
    );
    Ok(())
}

fn cmd_submit(args: &[String]) -> CliResult {
    let jobs = flag(args, "--jobs").ok_or("missing --jobs FILE")?;
    // The SPEC is the one positional argument left after removing the
    // --jobs flag and its value.
    let jobs_at = args.iter().position(|a| a == "--jobs").unwrap();
    let spec = args
        .iter()
        .enumerate()
        .filter(|&(i, a)| i != jobs_at && i != jobs_at + 1 && !a.starts_with("--"))
        .map(|(_, a)| a.clone())
        .next()
        .ok_or("missing SPEC")?;
    // Validate before appending so a bad spec never poisons the queue
    // file a later serve drains.
    parse_job_spec(&spec)?;
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&jobs)
        .map_err(|e| format!("open {jobs}: {e}"))?;
    writeln!(f, "{spec}").map_err(|e| format!("write {jobs}: {e}"))?;
    println!("queued '{spec}' in {jobs}");
    Ok(())
}

/// What one simulated serve seed produced.
enum ServeSimOutcome {
    /// Converged: per-job verdicts all checked out. Carries
    /// `(computed, cached, missed)` counts.
    Converged(usize, usize, usize),
    /// Surfaced a communication failure instead of converging.
    Aborted(String),
}

/// Runs one serve fuzz seed end-to-end: seed-derived graph, job mix, and
/// fault plan; serial fault-free baselines per distinct query; then the
/// faulted scheduled run on the sim backend, diffing every completed
/// job's merged output against its baseline.
fn run_serve_seed(
    seed: u64,
    hosts: usize,
    threads: usize,
    scale: u32,
    ef: usize,
    store: StoreOpts,
) -> Result<ServeSimOutcome, String> {
    let g = gen::rmat(scale, ef, seed);
    let n = g.num_nodes();
    let parts = partition_cfg(&g, &store.cfg(Policy::EdgeCutBlocked, hosts));
    let mix = simfuzz::serve_job_mix(seed, hosts);
    let mut queues = vec![Vec::new(); hosts];
    for &(h, spec) in &mix {
        queues[h].push(spec);
    }
    // Serial fault-free baselines, one per distinct algorithm in the mix
    // (params never change execution, so they share a baseline).
    let mut baselines: std::collections::HashMap<Algo, Vec<u64>> = Default::default();
    let serial = Cluster::with_threads(hosts, threads);
    for &(_, spec) in &mix {
        baselines
            .entry(spec.algo)
            .or_insert_with(|| serve::serial_reference(n, &parts, &serial, spec.algo));
    }
    let plan = simfuzz::serve_fault_plan(seed, hosts, mix.len());
    let cluster = Cluster::with_threads(hosts, threads)
        .sim(seed)
        .with_transport_config(simfuzz::sim_transport_config());
    let q = &queues;
    let p = &parts;
    let res = cluster.try_run_with_faults(plan, |ctx| {
        let mut server = HostServer::new(SERVE_CACHE_CAPACITY);
        server.serve_batch(ctx, &p[ctx.host()], &q[ctx.host()])
    });
    match host_values(res, false)? {
        HostValues::Aborted(m) => Ok(ServeSimOutcome::Aborted(m)),
        HostValues::All(per_host) => {
            let merged = merge_reports(n, per_host)?;
            let (mut computed, mut cached, mut missed) = (0, 0, 0);
            for (k, (report, fp)) in merged.iter().enumerate() {
                match (&report.status, fp) {
                    (JobStatus::DeadlineMissed, _) => missed += 1,
                    (JobStatus::Completed { cached: c }, Some(fp)) => {
                        if *c {
                            cached += 1;
                        } else {
                            computed += 1;
                        }
                        let base = &baselines[&report.job.spec.algo];
                        if fp != base {
                            return Err(format!(
                                "job {k} ({}) diverges from its serial baseline",
                                report.job.spec.algo.name()
                            ));
                        }
                    }
                    (JobStatus::Completed { .. }, None) => {
                        return Err(format!("job {k} completed without output"))
                    }
                }
            }
            Ok(ServeSimOutcome::Converged(computed, cached, missed))
        }
    }
}

fn cmd_serve_sim(args: &[String]) -> CliResult {
    let hosts: usize = flag_num(args, "--hosts", 3)?;
    let threads: usize = flag_num(args, "--threads", 1)?;
    let scale: u32 = flag_num(args, "--scale", 6)?;
    let ef: usize = flag_num(args, "--ef", 4)?;
    let seed: u64 = flag_num(args, "--seed", 1)?;
    let nseeds: u64 = flag_num(args, "--seeds", 1)?;
    let store = StoreOpts::parse(args)?;
    let t = Instant::now();
    let (mut converged, mut aborted) = (0u64, 0u64);
    for s in seed..seed.saturating_add(nseeds) {
        let replay = format!(
            "replay: {}",
            simfuzz::serve_replay_command(s, hosts, threads, scale, ef)
        );
        let outcome = run_serve_seed(s, hosts, threads, scale, ef, store)
            .map_err(|e| format!("seed {s}: {e}\n{replay}"))?;
        match outcome {
            ServeSimOutcome::Converged(computed, cached, missed) => {
                converged += 1;
                println!(
                    "seed {s}: converged ({computed} computed, {cached} cached, {missed} missed)"
                );
            }
            ServeSimOutcome::Aborted(m) => {
                aborted += 1;
                println!("seed {s}: surfaced failure: {m}");
            }
        }
    }
    println!(
        "{nseeds} seed(s) in {:.2?}: {converged} converged, {aborted} surfaced failures, 0 diverged",
        t.elapsed()
    );
    Ok(())
}

/// Writes one value per line (the diffable label dump behind `--out`).
fn write_lines<T: std::fmt::Display>(out: &str, vals: &[T]) -> Result<(), String> {
    let f = File::create(out).map_err(|e| format!("create {out}: {e}"))?;
    let mut w = BufWriter::new(f);
    for v in vals {
        writeln!(w, "{v}").map_err(|e| format!("write {out}: {e}"))?;
    }
    Ok(())
}

fn cmd_run(args: &[String]) -> CliResult {
    let algo = args.first().ok_or("missing algorithm")?.clone();
    let path = args.get(1).ok_or("missing FILE")?.clone();
    let hosts: usize = flag_num(args, "--hosts", 2)?;
    let threads: usize = flag_num(args, "--threads", 2)?;
    let transport = flag(args, "--transport").unwrap_or_else(|| "inproc".into());
    let faults = flag(args, "--faults").unwrap_or_else(|| "none".into());
    let seed: u64 = flag_num(args, "--seed", 1)?;
    let port_base: u16 = flag_num(args, "--port-base", 46000)?;
    let out = flag(args, "--out");
    let allow_shrink = args.iter().any(|a| a == "--allow-shrink");
    let allow_grow = args.iter().any(|a| a == "--allow-grow");
    let pipelined = !args.iter().any(|a| a == "--no-pipeline");
    let store = StoreOpts::parse(args)?;
    let is_cc = matches!(algo.as_str(), "cc-sv" | "cc-lp" | "cc-sclp");
    if !matches!(transport.as_str(), "inproc" | "tcp") {
        return Err(format!("unknown transport '{transport}'"));
    }
    if (transport == "tcp" || faults != "none" || allow_shrink) && !is_cc {
        return Err(
            "--transport tcp, --faults, and --allow-shrink support cc-* algorithms only".into(),
        );
    }
    if out.is_some() && !is_cc && !matches!(algo.as_str(), "louvain" | "leiden") {
        return Err("--out supports cc-* and louvain/leiden only".into());
    }
    if faults == "kill" && !allow_shrink {
        return Err("--faults kill is only survivable with --allow-shrink".into());
    }
    if allow_grow && algo != "cc-lp" {
        return Err("--allow-grow runs the compiled elastic engine: cc-lp only".into());
    }
    if faults == "join" && !allow_grow {
        return Err("--faults join is only admittable with --allow-grow".into());
    }
    // The join plan's latent host occupies one capacity slot past the
    // requested member count: the cluster starts computing on --hosts
    // members and grows into the spare when the joiner knocks.
    let capacity = if faults == "join" { hosts + 1 } else { hosts };
    let t = Instant::now();
    let g = load_graph(&path)?;
    let load = t.elapsed();
    println!("input: {}", GraphStats::of(&g));

    let policy = match algo.as_str() {
        "louvain" | "leiden" => Policy::EdgeCutBlocked,
        _ => Policy::CartesianVertexCut,
    };
    let t = Instant::now();
    let parts = partition_cfg(&g, &store.cfg(policy, hosts));
    let partition = t.elapsed();
    println!(
        "storage: {} ({} local bytes over {hosts} host(s))",
        if store.compressed { "compressed" } else { "raw" },
        parts.iter().map(|p| p.size_bytes()).sum::<usize>()
    );
    let b = NpmBuilder::default();
    let cluster = Cluster::with_threads(hosts, threads);
    let t = Instant::now();
    match algo.as_str() {
        "cc-sv" | "cc-lp" | "cc-sclp" => {
            let per_host = if transport == "tcp" {
                run_tcp_cc(
                    &algo, &path, capacity, threads, port_base, &faults, seed, allow_shrink,
                    allow_grow, pipelined, store,
                )?
            } else if allow_grow {
                let plan = fault_plan(&faults, seed, capacity)?;
                let res = Cluster::with_threads(capacity, threads).try_run_with_faults(plan, |ctx| {
                    ctx.set_pipelined(pipelined);
                    run_grow_cc(&g, ctx)
                });
                let mut per_host = Vec::new();
                for (h, r) in res.into_iter().enumerate() {
                    match r {
                        Ok(v) => per_host.push(v),
                        Err(e) if e.message.starts_with("permanent host loss") => {
                            println!("host {h} was killed; survivors shrank past it");
                        }
                        Err(e) => return Err(format!("host {h}: {e}")),
                    }
                }
                per_host
            } else if allow_shrink {
                let plan = fault_plan(&faults, seed, hosts)?;
                let res = cluster.try_run_with_faults(plan, |ctx| {
                    ctx.set_pipelined(pipelined);
                    ctx.run_elastic(|ctx| {
                        let parts = partition_cfg(&g, &store.cfg(policy, ctx.num_hosts()));
                        run_cc(&algo, &parts[ctx.host()], ctx)
                    })
                });
                let mut per_host = Vec::new();
                for (h, r) in res.into_iter().enumerate() {
                    match r {
                        Ok(v) => per_host.push(v),
                        Err(e) if e.message.starts_with("permanent host loss") => {
                            println!("host {h} was killed; survivors shrank past it");
                        }
                        Err(e) => return Err(format!("host {h}: {e}")),
                    }
                }
                per_host
            } else {
                let plan = fault_plan(&faults, seed, hosts)?;
                cluster.run_with_faults(plan, |ctx| {
                    ctx.set_pipelined(pipelined);
                    ctx.run_recovering(|ctx| run_cc(&algo, &parts[ctx.host()], ctx))
                })
            };
            let labels = merge_master_values(g.num_nodes(), per_host);
            if let Some(out) = &out {
                write_lines(out, &labels)?;
            }
            let mut comps = labels;
            comps.sort_unstable();
            comps.dedup();
            println!("{} components in {:.2?}", comps.len(), t.elapsed());
        }
        "mis" => {
            let per_host = cluster.run(|ctx| {
                ctx.set_pipelined(pipelined);
                mis(&parts[ctx.host()], ctx, &b)
            });
            let set = merge_master_values(g.num_nodes(), per_host);
            println!(
                "independent set of {} nodes in {:.2?}",
                set.iter().filter(|&&x| x).count(),
                t.elapsed()
            );
        }
        "msf" => {
            let per_host = cluster.run(|ctx| {
                ctx.set_pipelined(pipelined);
                msf(&parts[ctx.host()], ctx, &b)
            });
            let (edges, total) = kimbap_algos::msf::merge_forest(per_host);
            println!(
                "forest: {} edges, weight {total}, in {:.2?}",
                edges.len(),
                t.elapsed()
            );
        }
        "louvain" | "leiden" => {
            let cfg = LouvainConfig::default();
            let results = cluster.run(|ctx| {
                ctx.set_pipelined(pipelined);
                let dg = &parts[ctx.host()];
                if algo == "louvain" {
                    louvain(dg, ctx, &b, &cfg)
                } else {
                    leiden(dg, ctx, &b, &cfg)
                }
            });
            let labels = compose_labels(g.num_nodes(), &results);
            if let Some(out) = &out {
                write_lines(out, &labels)?;
            }
            let mut comms = labels.clone();
            comms.sort_unstable();
            comms.dedup();
            println!(
                "q={:.4}, {} communities, {} levels, in {:.2?}",
                results[0].modularity,
                comms.len(),
                results[0].levels,
                t.elapsed()
            );
        }
        other => return Err(format!("unknown algorithm '{other}'")),
    }
    println!(
        "time: load {:.4} s, partition {:.4} s, solve {:.4} s",
        load.as_secs_f64(),
        partition.as_secs_f64(),
        t.elapsed().as_secs_f64()
    );
    Ok(())
}

fn cmd_compile(args: &[String]) -> CliResult {
    let path = args.first().ok_or("missing FILE")?;
    let opt = if args.iter().any(|a| a == "--no-opt") {
        OptLevel::None
    } else {
        OptLevel::Full
    };
    let src = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let prog = frontend::parse(&src).map_err(|e| e.to_string())?;
    let class = classify_program(&prog);
    println!(
        "program {}: {} operators, adjacent={}, trans={}",
        prog.name, class.num_operators, class.uses_adjacent, class.uses_trans
    );
    let plan = compile(&prog, opt);
    println!("compiled at {opt:?}: {} top-level steps", plan.body.len());
    for (i, top) in plan.body.iter().enumerate() {
        println!("  [{i}] {}", describe(top));
    }
    Ok(())
}

fn describe(top: &kimbap_compiler::transform::CompiledTop) -> String {
    use kimbap_compiler::transform::CompiledTop as T;
    match top {
        T::InitMap { map, .. } => format!("init map {map}"),
        T::ResetMap { map } => format!("reset map {map}"),
        T::SetScalar { reducer, value } => format!("set reducer {reducer} = {value}"),
        T::Loop(l) => format!(
            "while-updated loop: {:?}, {} request phase(s), pin {:?}, broadcast {:?}",
            l.iterator,
            l.request_phases.len(),
            l.pinned_maps,
            l.broadcast_maps
        ),
        T::Once(l) => format!(
            "parfor: {:?}, {} request phase(s), pin {:?}",
            l.iterator,
            l.request_phases.len(),
            l.pinned_maps
        ),
        T::DoWhileScalar { body, reducer } => {
            format!("do {{ {} steps }} while reducer {reducer}", body.len())
        }
    }
}
