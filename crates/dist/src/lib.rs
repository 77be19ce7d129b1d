//! Graph partitioning and per-host distributed graphs.
//!
//! To run a vertex program on a cluster, the input graph's *edges* are
//! partitioned among hosts and *proxy nodes* are created for edge
//! endpoints. For every node, exactly one proxy — on the host that owns the
//! node — is the **master**, holding the canonical property value; proxies
//! on other hosts are **mirrors** (§2.2 of the paper).
//!
//! This crate provides:
//!
//! * [`Ownership`] — the node → owning-host map (blocked or hashed), with
//!   O(1) arithmetic from a global node id to its owner and to its dense
//!   *master offset* on that owner. This arithmetic is what makes the
//!   node-property map's graph-partition-aware representation (GAR) cheap.
//! * [`Policy`] — edge-assignment policies: outgoing edge-cut (blocked or
//!   hashed) and the 2-D Cartesian vertex-cut used by the paper for CC,
//!   MSF, and MIS.
//! * [`DistGraph`] — one host's partition: a local CSR whose local ids put
//!   all masters first (ordered by global id) followed by mirrors, plus the
//!   mirror lists each host needs to broadcast master values.
//!
//! Partitioning happens up front via [`partition`], which builds every
//! host's `DistGraph` in time linear in the graph, one host per thread.
//!
//! # Example
//!
//! ```
//! use kimbap_dist::{partition, Policy};
//! use kimbap_graph::gen;
//!
//! let g = gen::grid_road(8, 8, 0);
//! let parts = partition(&g, Policy::EdgeCutBlocked, 4);
//! assert_eq!(parts.len(), 4);
//! // Every directed edge lives on exactly one host.
//! let total: usize = parts.iter().map(|p| p.num_local_edges()).sum();
//! assert_eq!(total, g.num_edges());
//! ```

pub mod dist_graph;
pub mod ownership;
pub mod partitioner;
pub mod policy;

pub use dist_graph::{DistGraph, LocalId};
pub use ownership::{Ownership, Scheme};
pub use partitioner::{assemble_dist_graph, partition, partition_cfg, PartitionCfg};
pub use policy::Policy;
