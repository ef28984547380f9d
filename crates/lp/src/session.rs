//! Incremental simplex session: keep the optimal tableau alive across
//! re-solves of a model that only *appends inequality rows* — the lazy
//! constraint-separation pattern.
//!
//! Appending a row to an optimal tableau is O(nnz · width): eliminate the
//! basic variables from the raw row, seed it with its own slack, and run
//! the dual simplex until primal feasibility returns. The session never
//! rebuilds the tableau it already holds.

// Index-based loops are the natural idiom for the dense kernels here.
#![allow(clippy::needless_range_loop)]

use std::sync::Arc;

use lubt_obs::Recorder;

use crate::certificate::{CertSeed, Certificate, ColumnRole};
use crate::model::{Cmp, LinExpr, Model};
use crate::simplex::{dual_then_primal, ReoptOutcome, SimplexSolver, Tableau};
use crate::{LpError, Solution, Status};

/// A combined-and-sorted appended row: coefficients over shifted
/// variables, sense, shifted right-hand side.
type PendingRow = (Vec<(usize, f64)>, Cmp, f64);

/// An incremental solver bound to one growing model.
///
/// # Example
///
/// ```
/// use lubt_lp::{Cmp, LinExpr, Model, SimplexSession};
/// let mut m = Model::new();
/// let x = m.add_var(0.0, 1.0);
/// let y = m.add_var(0.0, 1.0);
/// m.add_constraint(LinExpr::from_terms([(x, 1.0), (y, 1.0)]), Cmp::Ge, 4.0);
///
/// let mut session = SimplexSession::start(m)?;
/// assert!((session.solution().objective() - 4.0).abs() < 1e-7);
///
/// // Tighten: x alone must reach 3.
/// session.add_constraint(LinExpr::from_terms([(x, 1.0)]), Cmp::Ge, 3.0)?;
/// let sol = session.resolve()?;
/// assert!((sol.objective() - 4.0).abs() < 1e-7); // x = 3, y = 1
/// # Ok::<(), lubt_lp::LpError>(())
/// ```
pub struct SimplexSession {
    /// The model as grown so far; its lower bounds are the standard-form
    /// variable shifts.
    model: Model,
    /// Live tableau, kept at an optimal basis between resolves.
    t: Tableau,
    /// Rows appended since the last resolve.
    pending: Vec<PendingRow>,
    /// Cached solution of the current tableau.
    solution: Solution,
    max_iterations: usize,
    recorder: Arc<dyn Recorder>,
    infeasible: bool,
    /// Role of every tableau column, for certificate seeds. Grows by one
    /// slack per appended row; empty when the session cannot be grown.
    col_roles: Vec<ColumnRole>,
    /// Seed of the certificate for the most recent (re)solve outcome.
    cert_seed: Option<CertSeed>,
}

impl SimplexSession {
    /// Cold-solves `model` and retains the tableau for incremental growth.
    ///
    /// # Errors
    ///
    /// * [`LpError`] on validation/numerics;
    /// * models that are initially infeasible or unbounded are *not*
    ///   errors — query [`SimplexSession::solution`] for the status, but
    ///   such sessions cannot be grown.
    pub fn start(model: Model) -> Result<Self, LpError> {
        Self::start_with(model, SimplexSolver::new())
    }

    /// Like [`SimplexSession::start`], but the cold solve and every later
    /// [`SimplexSession::resolve`] inherit `solver`'s pivot budget and
    /// recorder.
    pub fn start_with(model: Model, solver: SimplexSolver) -> Result<Self, LpError> {
        let (solution, tableau, cert_seed) = solver.solve_full(&model)?;
        let infeasible = solution.status() != Status::Optimal;
        // Only an optimal start is ever grown (`resolve` returns early
        // otherwise), so the others need no tableau and no roles.
        let (t, col_roles) = tableau.unwrap_or_else(|| (Tableau::from_costs(&[]), Vec::new()));
        Ok(SimplexSession {
            model,
            t,
            pending: Vec::new(),
            solution,
            max_iterations: solver.max_iterations(),
            recorder: Arc::clone(solver.recorder()),
            infeasible,
            col_roles,
            cert_seed,
        })
    }

    /// The model as grown so far.
    pub fn model(&self) -> &Model {
        &self.model
    }

    /// The solution of the most recent (re)solve.
    pub fn solution(&self) -> &Solution {
        &self.solution
    }

    /// Materializes the certificate for the most recent (re)solve outcome:
    /// optimality duals when optimal, a Farkas ray when infeasible. `None`
    /// for unbounded outcomes or when the basis cannot be factorized.
    pub fn certificate(&self) -> Option<Certificate> {
        self.cert_seed
            .as_ref()
            .and_then(|s| crate::certificate::compute(&self.model, s))
    }

    /// Appends an inequality row (`Le` or `Ge`). Takes effect at the next
    /// [`SimplexSession::resolve`].
    ///
    /// # Errors
    ///
    /// [`LpError::NonFiniteInput`] for bad numbers; equality rows are not
    /// supported incrementally (`NumericalBreakdown` explains why — start a
    /// fresh session instead).
    pub fn add_constraint(&mut self, expr: LinExpr, cmp: Cmp, rhs: f64) -> Result<(), LpError> {
        if cmp == Cmp::Eq {
            return Err(LpError::NumericalBreakdown(
                "incremental sessions accept only inequality rows (equalities need artificials)"
                    .to_string(),
            ));
        }
        if !rhs.is_finite() {
            return Err(LpError::NonFiniteInput {
                what: "appended row rhs".to_string(),
                value: rhs,
            });
        }
        let mut terms = Vec::with_capacity(expr.terms().len());
        let mut shifted_rhs = rhs;
        for &(v, c) in expr.terms() {
            if v.index() >= self.model.num_vars() {
                return Err(LpError::UnknownVariable {
                    index: v.index(),
                    model_vars: self.model.num_vars(),
                });
            }
            if !c.is_finite() {
                return Err(LpError::NonFiniteInput {
                    what: "appended row coefficient".to_string(),
                    value: c,
                });
            }
            terms.push((v.index(), c));
            shifted_rhs -= c * self.model.lower[v.index()];
        }
        crate::sparse::combine(&mut terms);
        self.model.add_constraint(expr, cmp, rhs);
        self.pending.push((terms, cmp, shifted_rhs));
        Ok(())
    }

    /// Integrates all pending rows and re-optimizes with the dual simplex.
    ///
    /// # Errors
    ///
    /// [`LpError::IterationLimit`] on pivot-budget exhaustion. An
    /// *infeasible* grown model is reported via the returned solution's
    /// status, and the session becomes permanently infeasible (appending
    /// rows cannot restore feasibility).
    pub fn resolve(&mut self) -> Result<&Solution, LpError> {
        if self.infeasible {
            self.pending.clear();
            return Ok(&self.solution);
        }
        if self.pending.is_empty() {
            return Ok(&self.solution);
        }
        let batch: Vec<(Vec<(usize, f64)>, f64)> = std::mem::take(&mut self.pending)
            .into_iter()
            .map(|(terms, cmp, rhs)| {
                // Orient the row so its slack carries +1: `sum <= rhs`
                // becomes `sum + s = rhs`; `sum >= rhs` becomes
                // `-sum + s = -rhs`.
                let sign = match cmp {
                    Cmp::Le => 1.0,
                    Cmp::Ge => -1.0,
                    Cmp::Eq => unreachable!("rejected in add_constraint"),
                };
                (
                    terms.iter().map(|&(i, c)| (i, sign * c)).collect(),
                    sign * rhs,
                )
            })
            .collect();
        let first_new_row = self.t.m;
        self.t.append_rows(&batch);
        for k in 0..batch.len() {
            self.col_roles.push(ColumnRole::Slack(first_new_row + k));
        }
        let mut iters = self.solution.iterations();
        if self.recorder.enabled() {
            self.recorder.incr("simplex.resolves", 1);
        }
        let status = dual_then_primal(
            &mut self.t,
            &mut iters,
            self.max_iterations,
            &*self.recorder,
        )?;
        if self.recorder.enabled() {
            self.recorder
                .record_max("simplex.peak_pivots", iters as u64);
            self.recorder.gauge(
                "simplex.limit_fraction",
                iters as f64 / self.max_iterations.max(1) as f64,
            );
        }
        let basis_roles = || self.t.basis.iter().map(|&c| self.col_roles[c]).collect();
        match status {
            ReoptOutcome::Optimal => {
                self.cert_seed = Some(CertSeed::Optimal(basis_roles()));
                let n_orig = self.model.num_vars();
                let mut x = vec![0.0; n_orig];
                for r in 0..self.t.m {
                    let b = self.t.basis[r];
                    if b < n_orig {
                        x[b] = self.t.rhs(r).max(0.0);
                    }
                }
                for (xi, s) in x.iter_mut().zip(&self.model.lower) {
                    *xi += s;
                }
                let objective = self.model.objective_value(&x);
                self.solution = Solution::new(Status::Optimal, x, objective, None, iters);
            }
            ReoptOutcome::Infeasible { row } => {
                self.cert_seed = Some(CertSeed::DualRow(basis_roles(), row));
                self.infeasible = true;
                self.solution = Solution::infeasible(self.model.num_vars(), iters);
            }
            ReoptOutcome::Unbounded => {
                self.cert_seed = None;
                self.solution = Solution::unbounded(self.model.num_vars(), iters);
            }
        }
        Ok(&self.solution)
    }
}

impl std::fmt::Debug for SimplexSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimplexSession")
            .field("vars", &self.model.num_vars())
            .field("rows", &self.model.num_constraints())
            .field("pending", &self.pending.len())
            .field("status", &self.solution.status())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Var;
    use crate::LpSolve;

    fn expr(terms: &[(Var, f64)]) -> LinExpr {
        LinExpr::from_terms(terms.iter().copied())
    }

    #[test]
    fn session_matches_cold_solves_row_by_row() {
        let mut base = Model::new();
        let vars = base.add_vars(5, 0.0, 1.0);
        base.add_constraint(
            LinExpr::from_terms(vars.iter().map(|&v| (v, 1.0))),
            Cmp::Ge,
            10.0,
        );
        let mut session = SimplexSession::start(base.clone()).unwrap();
        let rows: &[(&[usize], Cmp, f64)] = &[
            (&[0, 1], Cmp::Ge, 6.0),
            (&[2, 3], Cmp::Ge, 5.0),
            (&[4], Cmp::Le, 2.0),
            (&[0, 4], Cmp::Ge, 3.0),
        ];
        for &(cols, cmp, rhs) in rows {
            let e = LinExpr::from_terms(cols.iter().map(|&c| (vars[c], 1.0)));
            base.add_constraint(e.clone(), cmp, rhs);
            session.add_constraint(e, cmp, rhs).unwrap();
            let inc = session.resolve().unwrap().clone();
            let cold = SimplexSolver::new().solve(&base).unwrap();
            assert_eq!(inc.status(), cold.status());
            assert!(
                (inc.objective() - cold.objective()).abs() < 1e-7,
                "incremental {} vs cold {}",
                inc.objective(),
                cold.objective()
            );
            assert!(base.check_feasible(inc.values(), 1e-6).is_ok());
        }
    }

    #[test]
    fn session_with_shifted_lower_bounds() {
        let mut m = Model::new();
        let x = m.add_var(2.0, 1.0);
        let y = m.add_var(-1.0, 1.0);
        m.add_constraint(expr(&[(x, 1.0), (y, 1.0)]), Cmp::Ge, 4.0);
        let mut s = SimplexSession::start(m).unwrap();
        assert!((s.solution().objective() - 4.0).abs() < 1e-7);
        s.add_constraint(expr(&[(y, 1.0)]), Cmp::Ge, 1.5).unwrap();
        let sol = s.resolve().unwrap();
        // y = 1.5, x = 2.5 (x's bound is 2, but x + y >= 4 forces 2.5).
        assert!((sol.objective() - 4.0).abs() < 1e-7);
        assert!(sol.value(x) >= 2.0 - 1e-9);
        assert!(sol.value(y) >= 1.5 - 1e-9);
    }

    #[test]
    fn session_detects_infeasibility_and_stays_there() {
        let mut m = Model::new();
        let x = m.add_var(0.0, 1.0);
        m.add_constraint(expr(&[(x, 1.0)]), Cmp::Le, 3.0);
        let mut s = SimplexSession::start(m).unwrap();
        s.add_constraint(expr(&[(x, 1.0)]), Cmp::Ge, 5.0).unwrap();
        assert_eq!(s.resolve().unwrap().status(), Status::Infeasible);
        // Further rows keep it infeasible without panicking.
        s.add_constraint(expr(&[(x, 1.0)]), Cmp::Ge, 1.0).unwrap();
        assert_eq!(s.resolve().unwrap().status(), Status::Infeasible);
    }

    #[test]
    fn equality_rows_are_rejected() {
        let mut m = Model::new();
        let x = m.add_var(0.0, 1.0);
        m.add_constraint(expr(&[(x, 1.0)]), Cmp::Ge, 1.0);
        let mut s = SimplexSession::start(m).unwrap();
        assert!(s.add_constraint(expr(&[(x, 1.0)]), Cmp::Eq, 2.0).is_err());
    }

    #[test]
    fn duplicate_terms_in_appended_rows_combine() {
        let mut m = Model::new();
        let x = m.add_var(0.0, 1.0);
        let y = m.add_var(0.0, 1.0);
        m.add_constraint(expr(&[(x, 1.0)]), Cmp::Le, 100.0);
        let mut base = m.clone();
        let mut s = SimplexSession::start(m).unwrap();
        // x + 2x >= 9, i.e. x >= 3; y - y + x >= 1, where y cancels.
        let rows = [
            (expr(&[(x, 1.0), (x, 2.0)]), Cmp::Ge, 9.0),
            (expr(&[(y, 1.0), (x, 1.0), (y, -1.0)]), Cmp::Ge, 1.0),
        ];
        for (e, cmp, rhs) in rows {
            base.add_constraint(e.clone(), cmp, rhs);
            s.add_constraint(e, cmp, rhs).unwrap();
        }
        let sol = s.resolve().unwrap().clone();
        assert!((sol.value(x) - 3.0).abs() < 1e-7);
        assert!(sol.value(y).abs() < 1e-7);
        let cold = SimplexSolver::new().solve(&base).unwrap();
        assert!((sol.objective() - cold.objective()).abs() < 1e-9);
        assert!(base.check_feasible(sol.values(), 1e-9).is_ok());
    }

    #[test]
    fn resolve_without_pending_is_a_no_op() {
        let mut m = Model::new();
        let x = m.add_var(0.0, 1.0);
        m.add_constraint(expr(&[(x, 1.0)]), Cmp::Ge, 2.0);
        let mut s = SimplexSession::start(m).unwrap();
        let before = s.solution().objective();
        let after = s.resolve().unwrap().objective();
        assert_eq!(before, after);
    }
}
