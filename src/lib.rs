//! LUBT — Lower/Upper Bounded delay routing Trees via linear programming.
//!
//! Facade crate re-exporting the whole workspace, a faithful reproduction of
//! Oh, Pyo and Pedram, *"Constructing Lower and Upper Bounded Delay Routing
//! Trees Using Linear Programming"* (USC CENG 96-05 / DAC 1996).
//!
//! # Crate map
//!
//! * [`obs`] — solve-trace observability: recorders, counters, timers.
//! * [`geom`] — Manhattan geometry: points, TRRs, octilinear regions.
//! * [`lp`] — linear programming: dense and revised simplex solvers.
//! * [`par`] — the deterministic work-assisting parallel loop.
//! * [`topology`] — rooted routing-tree topologies and generators.
//! * [`delay`] — linear and Elmore delay models.
//! * [`core`] — the Edge-Based Formulation (EBF) and the geometric embedder.
//! * [`lint`] — clippy-style static analysis of instances and LP models.
//! * [`audit`] — exact rational verification of solver certificates.
//! * [`dp`] — LP-free exact oracle: interval DP plus a rational dual simplex.
//! * [`baselines`] — zero-skew DME, bounded-skew DME, shortest-path tree.
//! * [`data`] — benchmark instances (synthetic prim1/prim2/r1/r3 analogues).
//! * [`serve`] — the long-lived solver daemon (`lubt serve`): line-JSON
//!   protocol, result cache, warm session pool, live Prometheus metrics.
//!
//! # Quickstart
//!
//! ```
//! use lubt::core::{DelayBounds, LubtBuilder};
//! use lubt::geom::Point;
//!
//! // Four sinks at the corners of a square, source at the center.
//! let sinks = vec![
//!     Point::new(0.0, 0.0),
//!     Point::new(10.0, 0.0),
//!     Point::new(0.0, 10.0),
//!     Point::new(10.0, 10.0),
//! ];
//! let solution = LubtBuilder::new(sinks)
//!     .source(Point::new(5.0, 5.0))
//!     .bounds(DelayBounds::uniform(4, 10.0, 14.0))
//!     .solve()?;
//! assert!(solution.verify().is_ok());
//! # Ok::<(), lubt::core::LubtError>(())
//! ```

#![forbid(unsafe_code)]

pub use lubt_audit as audit;
pub use lubt_baselines as baselines;
pub use lubt_core as core;
pub use lubt_data as data;
pub use lubt_delay as delay;
pub use lubt_dp as dp;
pub use lubt_geom as geom;
pub use lubt_lint as lint;
pub use lubt_lp as lp;
pub use lubt_obs as obs;
pub use lubt_par as par;
pub use lubt_serve as serve;
pub use lubt_topology as topology;
