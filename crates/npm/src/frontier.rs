//! Frontiers: the local proxies one BSP round's `ParFor` visits.
//!
//! A dense round visits every proxy; a data-driven round visits only the
//! proxies whose property changed in the previous round (Pregel's
//! vote-to-halt, Ligra's `vertexSubset`). [`Frontier`] is the one type
//! both the compiled-plan engine and the hand-written sweeps iterate: it
//! is built from a map's [`ChangedKeys`] delta and carries Ligra's two
//! sparse shapes, switched at Ligra's 1/20 density threshold.

use crate::map::ChangedKeys;
use kimbap_comm::HostCtx;
use kimbap_dist::{DistGraph, LocalId};

impl<'a> ChangedKeys<'a> {
    /// The local proxies of `dg` whose readable value changed, or `None`
    /// when the delta is [`ChangedKeys::Untracked`] (every proxy must be
    /// treated as changed).
    ///
    /// Under the partition-aware representation a master's bit offset
    /// *is* its local id — both are the rank of the global id among this
    /// host's owned nodes — and a changed remote key `g` is the mirror
    /// proxy `num_masters + mirror_slot(g)`. Proxies come out masters
    /// first (ascending), then mirrors in broadcast order.
    pub fn proxies(self, dg: &'a DistGraph) -> Option<impl Iterator<Item = LocalId> + 'a> {
        let ChangedKeys::Tracked { masters, remote } = self else {
            return None;
        };
        let num_masters = dg.num_masters() as LocalId;
        let mirrors = remote
            .iter()
            .filter_map(move |&g| dg.mirror_slot(g).map(|s| num_masters + s));
        Some(masters.iter_set().map(|off| off as LocalId).chain(mirrors))
    }
}

/// The local ids `0..extent` a round visits: all of them, or a sparse
/// subset in one of Ligra's two shapes.
///
/// # Example
///
/// ```
/// use kimbap_npm::{Frontier, FrontierBuilder};
///
/// let mut b = FrontierBuilder::new(100);
/// b.insert(7);
/// b.insert(7); // idempotent
/// b.insert(250); // outside the extent: ignored
/// let f = b.finish();
/// assert!(f.is_sparse());
/// assert_eq!((f.len(), f.extent()), (1, 100));
/// assert!(!Frontier::dense(100).is_sparse());
/// ```
#[derive(Debug, Clone)]
pub struct Frontier {
    extent: usize,
    shape: Shape,
}

#[derive(Debug, Clone)]
enum Shape {
    /// Every id in `0..extent`.
    Dense,
    /// Sorted local ids; chosen when the frontier is far enough below the
    /// extent that per-node dispatch beats scanning a bitmap.
    List(Vec<LocalId>),
    /// Bitmap over the extent, scanned word by word.
    Bits { words: Vec<u64>, count: usize },
}

impl Frontier {
    /// Visits every id in `0..extent`.
    pub fn dense(extent: usize) -> Self {
        Frontier {
            extent,
            shape: Shape::Dense,
        }
    }

    /// The proxies of `dg` (below `extent`) whose keys are in `changed`;
    /// dense when `changed` is [`ChangedKeys::Untracked`].
    pub fn from_changed(changed: ChangedKeys<'_>, dg: &DistGraph, extent: usize) -> Self {
        match changed.proxies(dg) {
            Some(lids) => {
                let mut b = FrontierBuilder::new(extent);
                lids.for_each(|lid| b.insert(lid));
                b.finish()
            }
            None => Frontier::dense(extent),
        }
    }

    /// Ids the round visits.
    pub fn len(&self) -> usize {
        match &self.shape {
            Shape::Dense => self.extent,
            Shape::List(list) => list.len(),
            Shape::Bits { count, .. } => *count,
        }
    }

    /// `true` if the round visits no id.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The dense extent: ids a dense round would visit.
    pub fn extent(&self) -> usize {
        self.extent
    }

    /// `true` unless the frontier is the dense `0..extent`.
    pub fn is_sparse(&self) -> bool {
        !matches!(self.shape, Shape::Dense)
    }

    /// Runs `f(tid, lid)` for every id in the frontier across the host's
    /// worker pool.
    pub fn par_for<F>(&self, ctx: &HostCtx, f: F)
    where
        F: Fn(usize, LocalId) + Sync,
    {
        self.par_for_with(ctx, || (), |_, tid, lid| f(tid, lid));
    }

    /// [`Frontier::par_for`] with per-chunk scratch state: `init` runs once
    /// per claimed chunk and `f(&mut state, tid, lid)` once per id.
    pub fn par_for_with<S, I, F>(&self, ctx: &HostCtx, init: I, f: F)
    where
        I: Fn() -> S + Sync,
        F: Fn(&mut S, usize, LocalId) + Sync,
    {
        match &self.shape {
            Shape::Dense => ctx.par_for(0..self.extent, |tid, range| {
                let mut s = init();
                for lid in range {
                    f(&mut s, tid, lid as LocalId);
                }
            }),
            Shape::List(list) => ctx.par_for(0..list.len(), |tid, range| {
                let mut s = init();
                for &lid in &list[range] {
                    f(&mut s, tid, lid);
                }
            }),
            Shape::Bits { words, .. } => ctx.par_for(0..words.len(), |tid, wrange| {
                let mut s = init();
                for w in wrange {
                    let mut bits = words[w];
                    while bits != 0 {
                        f(&mut s, tid, (w * 64) as LocalId + bits.trailing_zeros());
                        bits &= bits - 1;
                    }
                }
            }),
        }
    }
}

/// Accumulates a sparse [`Frontier`] as a bitmap over `0..extent`.
#[derive(Debug, Clone)]
pub struct FrontierBuilder {
    extent: usize,
    words: Vec<u64>,
    count: usize,
}

impl FrontierBuilder {
    /// An empty frontier over `0..extent`.
    pub fn new(extent: usize) -> Self {
        FrontierBuilder {
            extent,
            words: vec![0; extent.div_ceil(64)],
            count: 0,
        }
    }

    /// Adds `lid`; ids at or past the extent are ignored (a `Masters`
    /// iterator never visits mirrors).
    #[inline]
    pub fn insert(&mut self, lid: LocalId) {
        let i = lid as usize;
        if i < self.extent && self.words[i / 64] & (1 << (i % 64)) == 0 {
            self.words[i / 64] |= 1 << (i % 64);
            self.count += 1;
        }
    }

    /// The sparse frontier: a sorted list below 1/20 of the extent
    /// (Ligra's threshold, where per-node dispatch beats the bitmap scan),
    /// else the bitmap itself.
    pub fn finish(self) -> Frontier {
        let shape = if self.count * 20 < self.extent {
            let mut list = Vec::with_capacity(self.count);
            for (w, &word) in self.words.iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    list.push((w * 64) as LocalId + bits.trailing_zeros());
                    bits &= bits - 1;
                }
            }
            Shape::List(list)
        } else {
            Shape::Bits {
                words: self.words,
                count: self.count,
            }
        };
        Frontier {
            extent: self.extent,
            shape,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitset::ConcurrentBitset;
    use kimbap_comm::Cluster;
    use kimbap_dist::{partition, Policy};
    use kimbap_graph::gen;
    use parking_lot::Mutex;

    /// Every id `par_for` hands out, sorted.
    fn visited(f: &Frontier, threads: usize) -> Vec<LocalId> {
        Cluster::with_threads(1, threads).run(|ctx| {
            let seen = Mutex::new(Vec::new());
            f.par_for(ctx, |_, lid| seen.lock().push(lid));
            let mut seen = seen.into_inner();
            seen.sort_unstable();
            seen
        })[0]
            .clone()
    }

    #[test]
    fn shapes_visit_exactly_their_ids() {
        let n = 1000;
        assert_eq!(
            visited(&Frontier::dense(n), 3),
            (0..n as LocalId).collect::<Vec<_>>()
        );
        // 40 ids of 1000 is under 1/20: a list. 400 is over: a bitmap.
        for count in [0, 40, 400, 1000] {
            let want: Vec<LocalId> = (0..count).map(|i| (i * 997 % n) as LocalId).collect();
            let mut b = FrontierBuilder::new(n);
            for &lid in want.iter().rev() {
                b.insert(lid);
            }
            let f = b.finish();
            assert!(f.is_sparse());
            assert_eq!(f.len(), count);
            assert_eq!(matches!(f.shape, Shape::List(_)), count * 20 < n);
            let mut want = want;
            want.sort_unstable();
            for threads in [1, 2, 3] {
                assert_eq!(visited(&f, threads), want, "{count} ids, {threads} threads");
            }
        }
    }

    #[test]
    fn changed_keys_map_to_proxies() {
        let g = gen::grid_road(6, 6, 0);
        let parts = partition(&g, Policy::CartesianVertexCut, 2);
        let dg = &parts[1];
        let masters = ConcurrentBitset::new(dg.num_masters());
        masters.set(0);
        masters.set(dg.num_masters() - 1);
        let mirror = dg.num_masters() as LocalId;
        let remote = [dg.local_to_global(mirror)];
        let changed = ChangedKeys::Tracked {
            masters: &masters,
            remote: &remote,
        };
        let lids: Vec<LocalId> = changed.proxies(dg).unwrap().collect();
        assert_eq!(lids, vec![0, mirror - 1, mirror]);
        let f = Frontier::from_changed(changed, dg, dg.num_local_nodes());
        assert_eq!(f.len(), 3);
        // A `Masters` extent drops the mirror.
        assert_eq!(
            Frontier::from_changed(changed, dg, dg.num_masters()).len(),
            2
        );
        let dense = Frontier::from_changed(ChangedKeys::Untracked, dg, 17);
        assert!(!dense.is_sparse());
        assert_eq!(dense.len(), 17);
    }
}
