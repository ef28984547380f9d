//! The Edge-Based Formulation (EBF) for **Lower/Upper Bounded delay routing
//! Trees** (LUBT) and its geometric embedder — the primary contribution of
//! Oh, Pyo and Pedram, *"Constructing Lower and Upper Bounded Delay Routing
//! Trees Using Linear Programming"* (USC CENG 96-05 / DAC 1996).
//!
//! # The method in one paragraph
//!
//! Given a rooted topology over source, sinks and Steiner points and
//! per-sink delay bounds `l_i <= delay(s_i) <= u_i` (linear delay model),
//! the EBF makes the *edge lengths* — not the Steiner coordinates — the LP
//! variables, eliminating the absolute values of the Manhattan metric. Two
//! constraint families suffice: **Steiner constraints**
//! `pathlength(s_i, s_j) >= dist(s_i, s_j)` for all sink pairs (necessary
//! *and sufficient* for embeddability, Theorem 4.1, thanks to the Helly
//! property of TRRs), and **delay constraints** bounding each root-to-sink
//! path. Minimizing total edge length yields the provably minimum-cost LUBT
//! for the topology (Theorem 4.2). A DME-style pass then embeds the tree:
//! feasible regions bottom-up, placements top-down (§5).
//!
//! # Entry points
//!
//! * [`LubtBuilder`] — one-stop API: sinks, optional source, optional
//!   topology (generated if absent), bounds; `solve()` returns a
//!   [`LubtSolution`].
//! * [`EbfSolver`] — the LP layer on its own (choose solver backend, lazy
//!   vs. eager Steiner constraints).
//! * [`embed_tree`] — the geometric embedding given edge lengths.
//! * [`zero_skew_edge_lengths`] — the §4.6 closed-form path for
//!   `l = u` (zero skew): pure bottom-up merging, no LP.
//! * [`ElmoreEbf`] — the §7 Elmore-delay extension via sequential LP.
//!
//! # Example
//!
//! ```
//! use lubt_core::{DelayBounds, LubtBuilder};
//! use lubt_geom::Point;
//!
//! let sinks = vec![
//!     Point::new(0.0, 0.0),
//!     Point::new(10.0, 0.0),
//!     Point::new(0.0, 10.0),
//!     Point::new(10.0, 10.0),
//! ];
//! let sol = LubtBuilder::new(sinks)
//!     .source(Point::new(5.0, 5.0))
//!     .bounds(DelayBounds::uniform(4, 10.0, 14.0))
//!     .solve()?;
//! sol.verify()?;
//! assert!(sol.cost() <= 4.0 * 14.0);
//! # Ok::<(), lubt_core::LubtError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analysis;
mod batch;
mod bounds;
mod ebf;
mod elmore_ebf;
mod embed;
mod error;
mod json;
mod problem;
mod solution;
mod steiner;
mod svg;
mod topology_gen;
mod verify;
mod zero_skew;

pub use analysis::{analyze, EdgeKind, EdgeStat, TreeAnalysis};
pub use batch::BatchSolver;
pub use bounds::DelayBounds;
pub use ebf::{ebf_model, EbfReport, EbfSolver, SolverBackend, SteinerMode, WarmEbfSession};
pub use elmore_ebf::{ElmoreEbf, ElmoreReport};
pub use embed::{embed_tree, embed_tree_traced, PlacementPolicy};
pub use error::LubtError;
pub use json::solution_to_json;
pub use problem::{LubtBuilder, LubtProblem, TopologyStrategy, WarmLubtSession};
pub use solution::LubtSolution;
pub use steiner::{all_pair_constraints, violated_pairs, violated_pairs_with_threads, SinkPair};
pub use svg::{render_svg, render_svg_with, render_tree_svg, SvgOptions};
pub use topology_gen::bound_aware_topology;
pub use verify::{verify_raw, VerifyError};
pub use zero_skew::{zero_skew_edge_lengths, ZeroSkewTree};
