//! Clippy-style static analysis for LUBT instances and their EBF LP models.
//!
//! `lubt-lint` inspects a problem *without solving it*: a registry of named
//! passes walks the sink set, delay windows, topology and (optionally) the
//! generated LP, and reports structured [`Diagnostic`]s that point at node
//! indices and LP row ids. Deny-level findings are infeasibility or
//! invariant-violation certificates — `lubt_core::solve()` consults them as
//! a pre-solve hook and fails fast instead of burning simplex pivots on a
//! provably hopeless model; warn-level findings flag degenerate shapes and
//! numerical smells worth fixing upstream.
//!
//! The built-in passes:
//!
//! | slug | level | detects |
//! |------|-------|---------|
//! | `sink-reachability` | deny | `u_i < dist(s_0, s_i)` or `l_i > u_i` |
//! | `pairwise-window-conflict` | deny | `u_i + u_j < dist(s_i, s_j)` |
//! | `zero-skew-consistency` | deny | `l = u` regime: target below the §4.6 closed-form minimum; warns when the LP is used where the closed form suffices |
//! | `degenerate-topology` | warn | unary Steiner chains, Steiner leaves, internal sinks, duplicate sink locations, root arity vs source mode |
//! | `model-conditioning` | warn | empty and duplicate LP rows, mixed coefficient magnitudes, f64-absorbed coefficients, oversized right-hand sides |
//!
//! This crate deliberately sits *below* `lubt-core` in the dependency
//! graph: passes consume a borrowed [`LintInput`] view (raw slices plus an
//! optional [`lubt_lp::Model`]) so that core can depend on the linter, not
//! the other way around.
//!
//! # Example
//!
//! ```
//! use lubt_geom::Point;
//! use lubt_lint::{lint, has_deny, LintInput};
//! use lubt_topology::{SourceMode, Topology};
//!
//! // Two sinks 8 apart, but the upper bounds only budget 3 + 3 = 6 of
//! // path length between them: provably infeasible, no LP needed.
//! let sinks = [Point::new(0.0, 0.0), Point::new(8.0, 0.0)];
//! let topology = Topology::from_parents(2, &[0, 3, 3, 0]).unwrap();
//! let diags = lint(&LintInput {
//!     sinks: &sinks,
//!     source: Some(Point::new(4.0, 0.0)),
//!     topology: &topology,
//!     source_mode: SourceMode::Given,
//!     lower: &[0.0, 0.0],
//!     upper: &[3.0, 3.0],
//!     model: None,
//! });
//! assert!(has_deny(&diags));
//! assert!(diags.iter().any(|d| d.pass == "pairwise-window-conflict"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod diagnostic;
pub mod passes;
mod registry;

pub use diagnostic::{diagnostics_to_json, has_deny, Diagnostic, Level, Target};
pub use registry::{lint, LintInput, LintPass, LintRegistry};
