//! Seeded inputs: the graphs each workload runs on and the serve query
//! stream. Everything is generated before timing starts; the program under
//! test receives only the generated `.kg` files and job specs.

use kimbap::serve::{Algo, JobSpec};
use kimbap_graph::{gen, io, Graph};
use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::path::Path;

/// The serve algorithms, in the order the query stream interleaves them.
pub const ALGOS: [Algo; 7] = [
    Algo::CcSv,
    Algo::CcLp,
    Algo::CcSclp,
    Algo::Mis,
    Algo::Msf,
    Algo::Louvain,
    Algo::Leiden,
];

/// Distinct `params` tags per algorithm in the query stream.
pub const PARAMS_TAGS: usize = 8;

/// R-MAT scale of the `powerlaw-cc` input (2^16 nodes). At scale 18 a
/// host's share of the solve (about 8 MB) overflowed its core's 2 MB L2
/// cache, and run medians of the solve spread by up to a third between runs
/// of the same code on a shared machine; at 16 they spread far less.
const POWERLAW_SCALE: u32 = 16;
/// Side of the `road-cc` grid.
const ROAD_SIDE: usize = 200;
/// R-MAT scale of the `serve-mix` resident graph (2^12 nodes). Small enough
/// that a 30-second run holds 5 to 20 sessions, each paying set-up once.
const SERVE_SCALE: u32 = 12;
/// R-MAT edge factor of both R-MAT inputs.
const EDGE_FACTOR: usize = 8;
/// Largest edge weight of the `serve-mix` graph (weights make MSF
/// meaningful).
const SERVE_MAX_WEIGHT: u64 = 100;
/// Generator seed of both R-MAT graphs. It is fixed rather than taken from
/// the run seed because the draw changes the work, not just the data: at
/// scale 18, Shiloach–Vishkin needs 10 rounds on some draws and 14–15 on
/// others, so a new seed would read as a 40% change in speed. The same
/// holds for Louvain and Leiden levels on the serve graph.
const RMAT_SEED: u64 = 42;
/// Shuffle seed of the serve query stream's order (see [`query_stream`]).
const STREAM_ORDER_SEED: u64 = 7;

/// A small, fast, seedable generator (SplitMix64), so the stream depends
/// on nothing but the seed.
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Derives an independent seed for one input from the run seed.
fn derive(seed: u64, salt: u64) -> u64 {
    SplitMix::new(seed ^ salt.wrapping_mul(0xa076_1d64_78bd_642f)).next_u64()
}

/// The `powerlaw-cc` graph: unit-weight R-MAT, scale 16, edge factor 8.
pub fn powerlaw_graph() -> Graph {
    gen::with_unit_weights(&gen::rmat(POWERLAW_SCALE, EDGE_FACTOR, RMAT_SEED))
}

/// The `road-cc` graph: a 200 x 200 grid whose segment weights come from
/// the seed (connected components ignore them, so every seed does the same
/// work on different bytes).
pub fn road_graph(seed: u64) -> Graph {
    gen::grid_road(ROAD_SIDE, ROAD_SIDE, derive(seed, 2))
}

/// The `serve-mix` resident graph: weighted R-MAT, scale 12, edge factor 8.
pub fn serve_graph() -> Graph {
    let g = gen::rmat(SERVE_SCALE, EDGE_FACTOR, RMAT_SEED);
    gen::with_random_weights(&g, SERVE_MAX_WEIGHT, RMAT_SEED)
}

/// The serve query stream: `len` jobs over the 7 algorithms x 8 params
/// tags. Rank `r` is algorithm `r % 7` with tag `r / 7`, so every
/// algorithm has popular and rare queries, and each rank appears in
/// proportion to its Zipf(s = 1) weight (largest-remainder rounding).
///
/// The order is fixed and the seed picks the tags' `params` values: like
/// the road weights, the seed changes the bytes, not the work. A seeded
/// order decides which lookups hit, miss or evict, and so how many Leiden
/// and Louvain runs a stream pays for; it moved a 60-batch session's
/// compute by about 8% (quartile spread over 20 seeds, simulated).
pub fn query_stream(seed: u64, len: usize) -> Vec<JobSpec> {
    let keys = ALGOS.len() * PARAMS_TAGS;
    let weights: Vec<f64> = (1..=keys).map(|r| 1.0 / r as f64).collect();
    let total: f64 = weights.iter().sum();
    let quota: Vec<f64> = weights.iter().map(|w| len as f64 * w / total).collect();
    let mut counts: Vec<usize> = quota.iter().map(|q| q.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..keys).collect();
    by_remainder.sort_by(|&a, &b| {
        let frac = |r: usize| quota[r] - counts[r] as f64;
        frac(b).total_cmp(&frac(a)).then(a.cmp(&b))
    });
    let short = len - counts.iter().sum::<usize>();
    for &r in &by_remainder[..short] {
        counts[r] += 1;
    }
    let tags: Vec<u64> = (0..PARAMS_TAGS as u64)
        .map(|t| derive(seed, 100 + t))
        .collect();
    let mut stream: Vec<JobSpec> = (0..keys)
        .flat_map(|r| {
            let job = JobSpec {
                params: tags[r / ALGOS.len()],
                ..JobSpec::new(ALGOS[r % ALGOS.len()])
            };
            std::iter::repeat_n(job, counts[r])
        })
        .collect();
    let mut rng = SplitMix::new(STREAM_ORDER_SEED);
    for i in (1..stream.len()).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        stream.swap(i, j);
    }
    stream
}

/// Writes `g` to `path` in the binary `.kg` format.
pub fn write_kg(g: &Graph, path: &Path) -> std::io::Result<()> {
    let mut w = BufWriter::new(File::create(path)?);
    io::write_binary(g, &mut w)?;
    w.flush()
}

/// Reads a `.kg` file — the graph layer's load path, as `kimbap run` does.
pub fn read_kg(path: &Path) -> std::io::Result<Graph> {
    io::read_binary(BufReader::new(File::open(path)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_seed_changes_the_params_bytes_not_the_work() {
        let (a, b) = (query_stream(7, 120), query_stream(8, 120));
        assert_eq!(a, query_stream(7, 120));
        assert_ne!(a, b);
        let algos = |s: &[JobSpec]| s.iter().map(|j| j.algo).collect::<Vec<_>>();
        assert_eq!(algos(&a), algos(&b));
        // Equal queries stay equal under a new seed, distinct stay distinct.
        for i in 0..a.len() {
            for k in 0..a.len() {
                assert_eq!(b[i] == b[k], a[i] == a[k]);
            }
        }
    }

    #[test]
    fn the_stream_asks_zipf_queries() {
        let s = query_stream(1, 20_000);
        let tags: Vec<u64> = (0..PARAMS_TAGS as u64)
            .map(|t| derive(1, 100 + t))
            .collect();
        let count = |algo: Algo, tag: usize| {
            s.iter()
                .filter(|j| j.algo == algo && j.params == tags[tag])
                .count()
        };
        assert_eq!(s.len(), 20_000);
        // Under s = 1, rank 0 (cc-sv, tag 0) is asked twice as often as
        // rank 1 (cc-lp, tag 0) and eight times as often as rank 7.
        let r0 = count(Algo::CcSv, 0) as f64;
        assert!((r0 / count(Algo::CcLp, 0) as f64 - 2.0).abs() < 0.01);
        assert!((r0 / count(Algo::CcSv, 1) as f64 - 8.0).abs() < 0.05);
        assert!(count(Algo::Leiden, PARAMS_TAGS - 1) > 0);
    }
}
