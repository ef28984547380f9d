//! Linear-programming substrate for the LUBT Edge-Based Formulation.
//!
//! The original paper solved the EBF with the commercial interior-point code
//! LOQO. This crate provides two self-contained simplex solvers with the
//! same surface:
//!
//! * [`RevisedSolver`] — a sparse revised simplex storing the constraint
//!   matrix column-sparse and keeping only a basis factorization (a
//!   Markowitz sparse LU plus product-form updates); the default choice,
//!   which `lubt-core`'s `SolverBackend::default()` selects.
//! * [`SimplexSolver`] — a two-phase dense-tableau primal simplex with
//!   Dantzig pricing and an automatic switch to Bland's anti-cycling rule,
//!   sharing the revised backend's pivot rules and exact
//!   infeasibility/unboundedness certificates; O(m·n) per pivot, a second
//!   float code for cross-checks.
//!
//! Problems are described with the [`Model`] builder and solved through the
//! [`LpSolve`] trait: `solve` for the solution alone, `solve_certified` on
//! either solver for the solution with its [`Certificate`]. A model that only
//! grows by appended inequality rows — the EBF's lazy Steiner rows (§4.6) —
//! is re-solved by a session, [`RevisedSession`] or [`SimplexSession`],
//! which keeps the optimal basis and repairs it with the dual simplex.
//!
//! # Example
//!
//! ```
//! use lubt_lp::{Cmp, LinExpr, LpSolve, Model, SimplexSolver, Status};
//!
//! // min  x + 2y   s.t.  x + y >= 3,  y <= 2,  x, y >= 0
//! let mut m = Model::new();
//! let x = m.add_var(0.0, 1.0);
//! let y = m.add_var(0.0, 2.0);
//! m.add_constraint(LinExpr::from_terms([(x, 1.0), (y, 1.0)]), Cmp::Ge, 3.0);
//! m.add_constraint(LinExpr::from_terms([(y, 1.0)]), Cmp::Le, 2.0);
//!
//! let sol = SimplexSolver::new().solve(&m)?;
//! assert_eq!(sol.status(), Status::Optimal);
//! assert!((sol.objective() - 3.0).abs() < 1e-7); // x = 3, y = 0
//! # Ok::<(), lubt_lp::LpError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod certificate;
mod error;
mod factor;
mod linalg;
mod model;
mod revised;
mod session;
mod simplex;
mod solution;
mod sparse;
mod standard;

pub use certificate::{Certificate, ColumnRole, FarkasCertificate, OptimalityCertificate};
pub use error::LpError;
pub use model::{Cmp, LinExpr, Model, Var};
pub use revised::{RevisedSession, RevisedSolver};
pub use session::SimplexSession;
pub use simplex::SimplexSolver;
pub use solution::{Solution, Status};

/// Absolute feasibility tolerance used by both solvers on the (scaled)
/// constraint residuals.
pub const FEAS_EPS: f64 = 1e-7;

/// Solver-agnostic interface: every LP algorithm in this crate consumes a
/// [`Model`] and produces a [`Solution`].
///
/// The trait is object-safe, so a caller can pick the solver at run time
/// and hold it as a `&dyn LpSolve`.
pub trait LpSolve {
    /// Solves the model to proven optimality (or detects infeasibility /
    /// unboundedness, when the algorithm can certify it).
    ///
    /// # Errors
    ///
    /// Returns [`LpError`] for malformed models (e.g. no variables) or
    /// numerical breakdown; *infeasible* and *unbounded* are not errors but
    /// [`Status`] values on the returned solution.
    fn solve(&self, model: &Model) -> Result<Solution, LpError>;
}
