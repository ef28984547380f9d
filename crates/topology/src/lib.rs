//! Rooted routing-tree topologies and topology generators.
//!
//! The LUBT method (Oh-Pyo-Pedram, DAC 1996) takes a *topology* — the
//! connectivity of source, sinks and Steiner points — as input, and
//! optimizes the geometry. This crate provides:
//!
//! * [`Topology`] — an immutable rooted tree over `source (node 0)`,
//!   `sinks (1..=m)` and `Steiner points (m+1..)`, with traversals, depth,
//!   and O(log n) lowest-common-ancestor queries (used by the EBF's
//!   Steiner-constraint separation oracle).
//! * [`MergeTreeBuilder`] — assembles full binary merge trees bottom-up,
//!   taking care of the paper's node-numbering conventions.
//! * Topology **generators**, one per family used in the 1990s clock-routing
//!   literature the paper builds on:
//!   [`nearest_neighbor_topology`] (Edahiro-style nearest-neighbor merge, the
//!   generator family "adopted from \[9\]"), [`matching_topology`] (recursive
//!   geometric matching, Kahng-Cong-Robins DAC'91) and
//!   [`bipartition_topology`] (balanced recursive bisection,
//!   Jackson-Srinivasan-Kuh DAC'90 style).
//! * [`split_degree_four`] — the §3 transformation making every Steiner
//!   point degree 3 by splitting degree-4 nodes with a zero-length edge.
//!
//! # Example
//!
//! ```
//! use lubt_geom::Point;
//! use lubt_topology::{nearest_neighbor_topology, SourceMode};
//!
//! let sinks = vec![
//!     Point::new(0.0, 0.0),
//!     Point::new(10.0, 0.0),
//!     Point::new(0.0, 10.0),
//!     Point::new(10.0, 10.0),
//! ];
//! let topo = nearest_neighbor_topology(&sinks, SourceMode::Free);
//! assert_eq!(topo.num_sinks(), 4);
//! assert!(topo.all_sinks_are_leaves());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bipartition;
mod builder;
mod error;
mod matching;
mod nearest_neighbor;
mod split;
mod tree;

pub use bipartition::bipartition_topology;
pub use builder::{ClusterId, MergeTreeBuilder};
pub use error::TopologyError;
pub use matching::matching_topology;
pub use nearest_neighbor::nearest_neighbor_topology;
pub use split::{split_degree_four, SplitResult};
pub use tree::{NodeId, SourceMode, Topology};
