//! A [`MapBuilder`] whose maps delegate every [`NodePropMap`] method to
//! the standard [`Npm`] and record a span around each collective one.
//!
//! The algorithms are generic over their map builder, so the traced run
//! swaps this in for [`NpmBuilder`] without touching the algorithm code.

use crate::trace::{SpanId, Tracer};
use kimbap_algos::{MapBuilder, NpmBuilder};
use kimbap_comm::HostCtx;
use kimbap_dist::DistGraph;
use kimbap_graph::NodeId;
use kimbap_npm::{ChangedKeys, NodePropMap, Npm, PropValue, ReduceOp};

/// Builds [`TracedMap`]s for one host, parenting their spans under that
/// host's solve span.
pub struct TracedBuilder<'t> {
    inner: NpmBuilder,
    tracer: &'t Tracer,
    host: usize,
    parent: SpanId,
}

impl<'t> TracedBuilder<'t> {
    /// A builder recording into `tracer` under span `parent` of `host`.
    pub fn new(tracer: &'t Tracer, host: usize, parent: SpanId) -> Self {
        TracedBuilder {
            inner: NpmBuilder::default(),
            tracer,
            host,
            parent,
        }
    }
}

impl MapBuilder for TracedBuilder<'_> {
    type Map<'g, T: PropValue, Op: ReduceOp<T>>
        = TracedMap<'g, T, Op>
    where
        Self: 'g;

    fn build<'g, T: PropValue, Op: ReduceOp<T>>(
        &'g self,
        dg: &'g DistGraph,
        ctx: &HostCtx,
        op: Op,
    ) -> TracedMap<'g, T, Op> {
        TracedMap {
            inner: self.inner.build(dg, ctx, op),
            tracer: self.tracer,
            host: self.host,
            parent: self.parent,
        }
    }
}

/// An [`Npm`] with a span around each collective call.
pub struct TracedMap<'g, T: PropValue, Op: ReduceOp<T>> {
    inner: Npm<'g, T, Op>,
    tracer: &'g Tracer,
    host: usize,
    parent: SpanId,
}

impl<T: PropValue, Op: ReduceOp<T>> NodePropMap<T> for TracedMap<'_, T, Op> {
    fn init_masters(&mut self, f: &dyn Fn(NodeId) -> T) {
        self.inner.init_masters(f)
    }

    #[inline]
    fn read(&self, key: NodeId) -> T {
        self.inner.read(key)
    }

    fn set(&mut self, key: NodeId, value: T) {
        self.inner.set(key, value)
    }

    #[inline]
    fn reduce(&self, tid: usize, key: NodeId, value: T) {
        self.inner.reduce(tid, key, value)
    }

    #[inline]
    fn request(&self, key: NodeId) {
        self.inner.request(key)
    }

    fn request_sync(&mut self, ctx: &HostCtx) {
        let (h, p) = (Some(self.host), Some(self.parent));
        self.tracer
            .time("npm.request_sync", h, p, || self.inner.request_sync(ctx));
    }

    fn reduce_sync(&mut self, ctx: &HostCtx) {
        let (h, p) = (Some(self.host), Some(self.parent));
        self.tracer
            .time("npm.reduce_sync", h, p, || self.inner.reduce_sync(ctx));
    }

    fn broadcast_sync(&mut self, ctx: &HostCtx) {
        let (h, p) = (Some(self.host), Some(self.parent));
        self.tracer.time("npm.broadcast_sync", h, p, || {
            self.inner.broadcast_sync(ctx)
        });
    }

    fn pin_mirrors(&mut self, ctx: &HostCtx) {
        let (h, p) = (Some(self.host), Some(self.parent));
        self.tracer
            .time("npm.pin_mirrors", h, p, || self.inner.pin_mirrors(ctx));
    }

    fn unpin_mirrors(&mut self) {
        self.inner.unpin_mirrors()
    }

    fn reset_updated(&mut self) {
        self.inner.reset_updated()
    }

    fn changed_keys(&self) -> ChangedKeys<'_> {
        self.inner.changed_keys()
    }

    fn reset_values(&mut self, ctx: &HostCtx) {
        self.inner.reset_values(ctx)
    }

    fn is_updated(&self, ctx: &HostCtx) -> bool {
        let (h, p) = (Some(self.host), Some(self.parent));
        self.tracer
            .time("npm.is_updated", h, p, || self.inner.is_updated(ctx))
            .0
    }
}
