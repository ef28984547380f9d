//! Linear-programming substrate for the LUBT Edge-Based Formulation.
//!
//! The original paper solved the EBF with the commercial interior-point code
//! LOQO. This crate provides two self-contained simplex solvers with the
//! same surface:
//!
//! * [`SimplexSolver`] — a two-phase dense-tableau primal simplex with
//!   Dantzig pricing and an automatic switch to Bland's anti-cycling rule.
//!   Exact infeasibility/unboundedness certificates; the default choice.
//! * [`RevisedSolver`] — a sparse revised simplex sharing the dense
//!   backend's pivot rules and [`WarmStart`] token format, but storing the
//!   constraint matrix column-sparse and keeping only a product-form basis
//!   factorization; the fast path for large Steiner-row LPs.
//!
//! Problems are described with the [`Model`] builder and solved through the
//! [`LpSolve`] trait.
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
mod lp_format;
mod model;
mod presolve;
mod revised;
mod session;
mod simplex;
mod solution;
mod sparse;
mod standard;

pub use certificate::{Certificate, ColumnRole, FarkasCertificate, OptimalityCertificate};
pub use error::LpError;
pub use lp_format::write_lp;
pub use model::{Cmp, LinExpr, Model, Var};
pub use presolve::{presolve, Presolved};
pub use revised::{RevisedSession, RevisedSolver};
pub use session::SimplexSession;
pub use simplex::{SimplexSolver, WarmStart};
pub use solution::{Solution, Status};

/// Absolute feasibility tolerance used by both solvers on the (scaled)
/// constraint residuals.
pub const FEAS_EPS: f64 = 1e-7;

/// Solver-agnostic interface: every LP algorithm in this crate consumes a
/// [`Model`] and produces a [`Solution`].
///
/// The trait is object-safe so harnesses can switch solvers at run time
/// (see the `ablation_solver` benchmarks).
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
