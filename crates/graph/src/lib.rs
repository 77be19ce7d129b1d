//! In-memory graph representations and synthetic graph generators.
//!
//! This crate provides the graph substrate used throughout the Kimbap
//! reproduction: a compressed-sparse-row ([`Graph`]) representation with
//! optional edge weights, an edge-list [`GraphBuilder`] that normalizes input
//! (sorting, deduplication, symmetrization), generators for the graph shapes
//! the paper evaluates ([`gen`]), and summary statistics ([`stats`]).
//!
//! The paper evaluates four input graphs: a high-diameter road network
//! (road-europe) and three power-law graphs (friendster, clueweb12, wdc12).
//! Those datasets are multi-terabyte downloads, so this reproduction
//! substitutes synthetic analogs with the same *shapes*: 2-D grid graphs for
//! the road network and R-MAT graphs for the power-law inputs (see
//! `DESIGN.md` §2).
//!
//! # Example
//!
//! ```
//! use kimbap_graph::{gen, Graph};
//!
//! let g: Graph = gen::rmat(10, 8, 42); // 2^10 nodes, ~8 * 2^10 directed edges
//! assert!(g.num_nodes() <= 1 << 10);
//! let hub = (0..g.num_nodes() as u32).max_by_key(|&n| g.degree(n)).unwrap();
//! assert!(g.degree(hub) > 8); // power-law: hubs exist
//! ```

pub mod builder;
pub mod compressed;
pub mod csr;
pub mod gen;
pub mod io;
pub mod stats;
pub mod store;

pub use builder::{BuildError, GraphBuilder};
pub use compressed::CompressedGraph;
pub use csr::{Graph, NodeId, Weight};
pub use stats::GraphStats;
pub use store::{GraphStore, SizeBreakdown};
