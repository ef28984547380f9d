//! Sparse **revised simplex**: the same two-phase primal / dual-repair
//! algorithm as [`crate::SimplexSolver`], but operating on the sparse
//! column store of [`crate::sparse::SparseForm`] with only the basis
//! factorization ([`crate::factor::Factor`]) in memory — no tableau.
//!
//! Per iteration the kernel performs one BTRAN (`y = B^{-T} c_B`), a
//! partial-pricing scan of candidate columns (`d_j = c_j - y·a_j` via
//! sparse dots), one FTRAN (`w = B^{-1} a_q`), the ratio test, and a
//! product-form eta update, where the dense tableau pivot pays
//! `O(m · n)`. The FTRAN and BTRAN visit only the LU steps their
//! right-hand sides reach, and return the pattern of the result (see
//! [`crate::factor`]); the basic-value update, the eta, the ratio test
//! and the dual loop's leaving row walk `w`'s pattern instead of every
//! row. Two passes stay `O(m)` per primal pivot: the dense right-hand
//! side `c_B` of `y` and the objective sum that detects a stall; a
//! refactorization recomputes the basic values by a dense FTRAN. A dual
//! pivot's one BTRAN is the pivot row `rho`: the dual loop keeps `y` by
//! the rank-one update `y += (d_q / α_q) · rho` over `rho`'s pattern and
//! re-derives it by BTRAN only after a refactorization; its ratio test
//! forms `rho·a_j` only over the rows of `rho`'s pattern, through a
//! row-wise copy of the matrix that each dual loop builds and drops.
//! Pricing uses a cyclic candidate window with a most-negative rule and
//! smallest-index tie-break, falling back to Bland's rule after a
//! degenerate stall; every choice is a deterministic function of the
//! pivot history, so solves are bit-identical across machines. Every scan
//! runs serially on the calling thread: at the paper's net sizes a pivot
//! prices a few hundred columns, too little work to split across cores.
//!
//! Counters (routed through the solver's [`Recorder`]): `lp.pivots`,
//! `lp.dual_pivots`, `lp.priced_columns`, `lp.refactorizations`,
//! `lp.factor_nnz` and `lp.basis_nnz` (entries those refactorizations
//! stored, nonzeros of the bases they factored), `lp.btrans` (every
//! BTRAN), `lp.btran_entries` (factor entries those BTRANs read),
//! `lp.ftran_steps` and `lp.btran_steps` (LU pivot steps the FTRANs and
//! BTRANs visited), `lp.dual_scan_columns` and `lp.dual_scan_entries`
//! (enterable columns whose `rho·a_j` the dual candidate scan formed, and
//! the matrix entries it read), `lp.dual_update_entries` (`rho` entries
//! the dual loop's rank-one `y` updates applied), `lp.eta_len`
//! (high-water update-list length), `lp.solves`,
//! `lp.resolves`, `lp.peak_pivots`, and the `lp.limit_fraction` gauge —
//! deliberately disjoint from the dense backend's `simplex.*` keys so
//! bench documents can hold both without aliasing.

// Index-based loops are the natural idiom for the dense work vectors here.
#![allow(clippy::needless_range_loop)]

use std::sync::Arc;

use lubt_obs::Recorder;

use crate::certificate::{CertSeed, Certificate, ColumnRole};
use crate::factor::{Factor, Scratch};
use crate::model::{Cmp, LinExpr, Model};
use crate::simplex::{elapsed_ns, PhaseAgg, ReoptOutcome, STALL_LIMIT};
use crate::sparse::{Lines, SparseForm};
use crate::{LpError, LpSolve, Solution, Status};

const PIVOT_TOL: f64 = 1e-9;
/// Slack on the minimum-ratio cutoff in the two-pass (Harris-style) ratio
/// tests: among rows whose ratio lands within this band of the minimum, the
/// largest pivot element wins. Pivoting on the biggest eligible element keeps
/// the eta file trustworthy at scale, where a bare `PIVOT_TOL` acceptance can
/// select noise-level entries and silently drive the basis singular.
const RATIO_TOL: f64 = 1e-9;
const COST_TOL: f64 = 1e-9;
/// Minimum partial-pricing window (columns priced per entering choice).
const PRICE_WINDOW_MIN: usize = 64;

/// Sparse revised-simplex solver over the same [`Model`]/[`Solution`]
/// surface as the dense backends.
///
/// # Example
///
/// ```
/// use lubt_lp::{Cmp, LinExpr, LpSolve, Model, RevisedSolver, Status};
/// let mut m = Model::new();
/// let x = m.add_var(0.0, 1.0);
/// let y = m.add_var(0.0, 2.0);
/// m.add_constraint(LinExpr::from_terms([(x, 1.0), (y, 1.0)]), Cmp::Ge, 3.0);
/// let sol = RevisedSolver::new().solve(&m)?;
/// assert_eq!(sol.status(), Status::Optimal);
/// assert!((sol.objective() - 3.0).abs() < 1e-7);
/// # Ok::<(), lubt_lp::LpError>(())
/// ```
#[derive(Debug, Clone)]
pub struct RevisedSolver {
    max_iterations: usize,
    recorder: Arc<dyn Recorder>,
}

impl Default for RevisedSolver {
    fn default() -> Self {
        RevisedSolver {
            max_iterations: 200_000,
            recorder: lubt_obs::noop(),
        }
    }
}

impl RevisedSolver {
    /// Creates a solver with default limits.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the hard pivot limit (default 200 000).
    #[must_use]
    pub fn with_max_iterations(mut self, max_iterations: usize) -> Self {
        self.max_iterations = max_iterations;
        self
    }

    /// Routes `lp.*` instrumentation into `recorder` (default: no-op).
    #[must_use]
    pub fn with_recorder(mut self, recorder: Arc<dyn Recorder>) -> Self {
        self.recorder = recorder;
        self
    }

    pub(crate) fn recorder(&self) -> &Arc<dyn Recorder> {
        &self.recorder
    }

    pub(crate) fn max_iterations(&self) -> usize {
        self.max_iterations
    }

    fn note_solve(&self, iterations: usize) {
        if !self.recorder.enabled() {
            return;
        }
        self.recorder.incr("lp.solves", 1);
        self.recorder
            .record_max("lp.peak_pivots", iterations as u64);
        self.recorder.gauge(
            "lp.limit_fraction",
            iterations as f64 / self.max_iterations.max(1) as f64,
        );
    }

    /// Like [`LpSolve::solve`], additionally materializing the certificate
    /// of the outcome: optimality duals when optimal, a Farkas ray when
    /// infeasible, `None` when unbounded or the basis cannot be factorized.
    ///
    /// # Errors
    ///
    /// Same contract as [`LpSolve::solve`].
    pub fn solve_certified(
        &self,
        model: &Model,
    ) -> Result<(Solution, Option<Certificate>), LpError> {
        let (solution, _, seed) = self.solve_full(model)?;
        let cert = seed
            .as_ref()
            .and_then(|s| crate::certificate::compute(model, s));
        Ok((solution, cert))
    }

    /// Solves `model`, handing back with the solution the live kernel for
    /// incremental growth (see [`RevisedSession`]; `None` unless optimal)
    /// and the certificate seed of the outcome.
    fn solve_full(
        &self,
        model: &Model,
    ) -> Result<(Solution, Option<Kernel>, Option<CertSeed>), LpError> {
        model.validate()?;
        let sf = SparseForm::build(model);
        let m = sf.m;

        // Constraint-free models: every variable sits at its lower bound
        // unless a negative cost makes the LP unbounded.
        if m == 0 {
            if model.costs.iter().any(|&c| c < -COST_TOL) {
                return Ok((Solution::unbounded(model.num_vars(), 0), None, None));
            }
            let x = sf.recover(&vec![0.0; sf.n]);
            let obj = model.objective_value(&x);
            let kernel = Kernel::from_basis(sf, Vec::new()).expect("empty basis is nonsingular");
            return Ok((
                Solution::new(Status::Optimal, x, obj, Some(vec![]), 0),
                Some(kernel),
                Some(CertSeed::Optimal(Vec::new())),
            ));
        }

        // Seed the basis with usable (+1) slacks, artificials elsewhere —
        // the same rule and artificial numbering as the dense backend.
        let mut basis = Vec::with_capacity(m);
        let mut art_rows = Vec::new();
        for i in 0..m {
            let sc = sf.slack_col[i];
            let usable = sc != usize::MAX && (sf.at(i, sc) - 1.0).abs() < 1e-12;
            if usable {
                basis.push(sc);
            } else {
                basis.push(sf.n + art_rows.len());
                art_rows.push(i);
            }
        }
        let n_art = art_rows.len();
        let mut kernel = Kernel::from_parts(sf, basis, art_rows)
            .ok_or_else(|| LpError::NumericalBreakdown("singular seed basis".to_string()))?;

        let mut iters = 0usize;
        let rec = &*self.recorder;

        // ---- Phase 1: minimize the artificial sum. ----
        if n_art > 0 {
            match kernel.primal(true, &mut iters, self.max_iterations, rec)? {
                PhaseOutcome::Optimal => {}
                PhaseOutcome::Unbounded => {
                    // Phase-1 objective is bounded below by 0; cannot happen.
                    return Err(LpError::NumericalBreakdown("phase-1 unbounded".to_string()));
                }
            }
            let feas_tol = 1e-7 * (1.0 + kernel.sf.b.iter().cloned().fold(0.0, f64::max));
            if kernel.objective(true) > feas_tol {
                self.note_solve(iters);
                let seed = CertSeed::Phase1(kernel.roles());
                return Ok((
                    Solution::infeasible(model.num_vars(), iters),
                    None,
                    Some(seed),
                ));
            }
            kernel.drive_out_artificials(rec)?;
        }

        // ---- Phase 2: true objective. ----
        match kernel.primal(false, &mut iters, self.max_iterations, rec)? {
            PhaseOutcome::Unbounded => {
                self.note_solve(iters);
                Ok((Solution::unbounded(model.num_vars(), iters), None, None))
            }
            PhaseOutcome::Optimal => {
                let (x, objective, duals) = kernel.extract(model, rec);
                self.note_solve(iters);
                let seed = CertSeed::Optimal(kernel.roles());
                Ok((
                    Solution::new(Status::Optimal, x, objective, duals, iters),
                    Some(kernel),
                    Some(seed),
                ))
            }
        }
    }
}

impl LpSolve for RevisedSolver {
    fn solve(&self, model: &Model) -> Result<Solution, LpError> {
        self.solve_full(model).map(|(s, _, _)| s)
    }
}

enum PhaseOutcome {
    Optimal,
    Unbounded,
}

enum DualOutcome {
    PrimalFeasible,
    Infeasible { row: usize },
}

/// The live revised-simplex state: sparse form, basis, factorization,
/// basic values, and the partial-pricing cursor.
struct Kernel {
    sf: SparseForm,
    basis: Vec<usize>,
    /// Unit column of each artificial: `sf.n + t` ↦ `[(row, 1.0)]` at
    /// `art_cols[t]`, the slice a refactorization borrows.
    art_cols: Vec<[(usize, f64); 1]>,
    /// `in_basis[j]` ⟺ structural/slack column `j` is basic. Membership is
    /// tracked explicitly because at scale the reduced cost of a basic
    /// column computed through a long eta file is noise, not an exact
    /// zero — pricing one back in would duplicate a basis column and make
    /// the next refactorization singular.
    in_basis: Vec<bool>,
    factor: Factor,
    x_b: Vec<f64>,
    cursor: usize,
    scratch: Scratch,
    /// BTRANs run since the last [`Kernel::flush_counts`] (`lp.btrans`).
    btrans: u64,
    /// Factor entries those BTRANs read (`lp.btran_entries`).
    btran_entries: u64,
    /// LU pivot steps the FTRANs visited (`lp.ftran_steps`).
    ftran_steps: u64,
    /// LU pivot steps the BTRANs visited (`lp.btran_steps`).
    btran_steps: u64,
    /// Enterable columns whose `rho·a_j` the dual candidate scans formed
    /// (`lp.dual_scan_columns`).
    dual_scan_columns: u64,
    /// Matrix entries those scans read (`lp.dual_scan_entries`).
    dual_scan_entries: u64,
    /// `rho` entries the dual loop's rank-one `y` updates applied
    /// (`lp.dual_update_entries`).
    dual_update_entries: u64,
    #[cfg(test)]
    probe: Probe,
}

/// Test-only record of the pivot loops: how far each updated `y` lies
/// from a fresh BTRAN, how often a refactorization forced one, and how
/// many candidate scans, solves and leaving rows were checked against
/// the full scans they replaced.
#[cfg(test)]
#[derive(Debug, Default)]
struct Probe {
    /// `‖y - y_fresh‖∞ / max(1, ‖y_fresh‖∞)` after each updated pivot.
    drift: Vec<f64>,
    refreshes: usize,
    /// Row-wise candidate lists found bit-identical to the column scan.
    scans_checked: usize,
    /// Entering-column FTRANs and `rho` BTRANs found bit-identical to the
    /// sweep over every LU step.
    ftrans_checked: usize,
    btrans_checked: usize,
    /// Leaving rows found equal to the full scan's.
    leaving_checked: usize,
    /// Starts every dual loop on Bland's rule.
    force_bland: bool,
}

/// Scratch of the row-wise dual candidate scan. The first scan of a
/// [`Kernel::dual`] call builds it and the call drops it on return: the
/// matrix only grows between resolves, so one copy serves every pivot of
/// the call, and a session holds nothing extra between resolves.
struct DualScan {
    /// The matrix row by row ([`SparseForm::row_lines`]).
    rows: Lines,
    /// `alpha[j]` accumulates `rho·a_j`; all zero between scans.
    alpha: Vec<f64>,
    /// Enterable columns the current scan reached, each at least once.
    touched: Vec<u32>,
}

impl DualScan {
    fn new(sf: &SparseForm) -> DualScan {
        DualScan {
            rows: sf.row_lines(),
            alpha: vec![0.0; sf.n],
            touched: Vec::new(),
        }
    }
}

impl Kernel {
    fn from_basis(sf: SparseForm, basis: Vec<usize>) -> Option<Kernel> {
        Kernel::from_parts(sf, basis, Vec::new())
    }

    fn from_parts(sf: SparseForm, basis: Vec<usize>, art_rows: Vec<usize>) -> Option<Kernel> {
        let mut in_basis = vec![false; sf.n];
        for &j in &basis {
            if j < sf.n {
                in_basis[j] = true;
            }
        }
        let mut kernel = Kernel {
            sf,
            basis,
            art_cols: art_rows.iter().map(|&i| [(i, 1.0)]).collect(),
            in_basis,
            factor: Factor::build::<Vec<(usize, f64)>>(&[]).expect("empty factor"),
            x_b: Vec::new(),
            cursor: 0,
            scratch: Scratch::default(),
            btrans: 0,
            btran_entries: 0,
            ftran_steps: 0,
            btran_steps: 0,
            dual_scan_columns: 0,
            dual_scan_entries: 0,
            dual_update_entries: 0,
            #[cfg(test)]
            probe: Probe::default(),
        };
        kernel.rebuild_factor().ok()?;
        Some(kernel)
    }

    /// Row of artificial column `j >= sf.n`.
    fn art_row(&self, j: usize) -> usize {
        self.art_cols[j - self.sf.n][0].0
    }

    /// Total columns: structural + slack + artificial.
    fn n_total(&self) -> usize {
        self.sf.n + self.art_cols.len()
    }

    /// Artificials and columns that are already basic never enter.
    fn enterable(&self, j: usize) -> bool {
        j < self.sf.n && !self.in_basis[j]
    }

    fn cost(&self, j: usize, phase1: bool) -> f64 {
        if phase1 {
            if j >= self.sf.n {
                1.0
            } else {
                0.0
            }
        } else if j >= self.sf.n {
            0.0
        } else {
            self.sf.c[j]
        }
    }

    /// Objective of the current basic solution under the phase costs.
    fn objective(&self, phase1: bool) -> f64 {
        self.basis
            .iter()
            .zip(&self.x_b)
            .map(|(&j, &x)| self.cost(j, phase1) * x)
            .sum()
    }

    /// `w = B^{-1} a_j`: column `j` scattered into `w`, cleared first.
    fn ftran_col(&mut self, j: usize, w: &mut WorkVec) {
        w.clear(self.sf.m);
        if j < self.sf.n {
            for &(i, c) in &self.sf.cols[j] {
                w.set(i, c);
            }
        } else {
            w.set(self.art_row(j), 1.0);
        }
        self.ftran(&mut w.val, Some(&mut w.pat));
    }

    /// Dense image of column `j` (length `m`).
    #[cfg(test)]
    fn dense_col(&self, j: usize) -> Vec<f64> {
        let mut v = vec![0.0; self.sf.m];
        if j < self.sf.n {
            for &(i, c) in &self.sf.cols[j] {
                v[i] = c;
            }
        } else {
            v[self.art_row(j)] = 1.0;
        }
        v
    }

    /// Sparse dot `y · a_j`.
    fn dot_col(&self, j: usize, y: &[f64]) -> f64 {
        if j < self.sf.n {
            self.sf.cols[j].iter().map(|&(i, c)| c * y[i]).sum()
        } else {
            y[self.art_row(j)]
        }
    }

    /// `v <- B^{-1} v` ([`Factor::ftran`]), counted in `lp.ftran_steps`:
    /// every FTRAN the kernel runs goes through here.
    fn ftran(&mut self, v: &mut [f64], pat: Option<&mut Vec<u32>>) {
        self.ftran_steps += self.factor.ftran(v, pat, &mut self.scratch);
    }

    /// `v <- B^{-T} v` ([`Factor::btran`]), counted in `lp.btrans`: every
    /// BTRAN the kernel runs goes through here.
    fn btran(&mut self, v: &mut [f64], pat: Option<&mut Vec<u32>>) {
        let (entries, steps) = self.factor.btran(v, pat, &mut self.scratch);
        self.btran_entries += entries;
        self.btran_steps += steps;
        self.btrans += 1;
    }

    /// Emits the work counted since the last flush: the BTRANs, the
    /// factor entries they read and the LU steps they visited, the
    /// FTRANs' LU steps, the dual-scan columns and the matrix entries
    /// they read, and the dual updates' `rho` entries.
    fn flush_counts(&mut self, rec: &dyn Recorder) {
        let n = std::mem::take(&mut self.btrans);
        let entries = std::mem::take(&mut self.btran_entries);
        let btran_steps = std::mem::take(&mut self.btran_steps);
        let ftran_steps = std::mem::take(&mut self.ftran_steps);
        let scan_columns = std::mem::take(&mut self.dual_scan_columns);
        let scan_entries = std::mem::take(&mut self.dual_scan_entries);
        let update_entries = std::mem::take(&mut self.dual_update_entries);
        if !rec.enabled() {
            return;
        }
        if n > 0 {
            rec.incr("lp.btrans", n);
            rec.incr("lp.btran_entries", entries);
            rec.incr("lp.btran_steps", btran_steps);
        }
        if ftran_steps > 0 {
            rec.incr("lp.ftran_steps", ftran_steps);
        }
        if scan_columns > 0 {
            rec.incr("lp.dual_scan_columns", scan_columns);
            rec.incr("lp.dual_scan_entries", scan_entries);
        }
        if update_entries > 0 {
            rec.incr("lp.dual_update_entries", update_entries);
        }
    }

    /// Simplex multipliers `y = B^{-T} c_B` under the phase costs.
    fn duals(&mut self, phase1: bool) -> Vec<f64> {
        let mut y = vec![0.0; self.sf.m];
        for (pos, &j) in self.basis.iter().enumerate() {
            y[pos] = self.cost(j, phase1);
        }
        self.btran(&mut y, None);
        y
    }

    /// Row `pos` of `B^{-1}` into `rho`, cleared first: the BTRAN of
    /// `e_pos`, so that `rho · a_j` is row `pos` of `B^{-1} A`.
    fn inverse_row(&mut self, pos: usize, rho: &mut WorkVec) {
        rho.clear(self.sf.m);
        rho.set(pos, 1.0);
        self.btran(&mut rho.val, Some(&mut rho.pat));
    }

    /// Rebuilds the factorization from the current basis columns and
    /// recomputes the basic values from scratch.
    fn rebuild_factor(&mut self) -> Result<(), LpError> {
        let cols: Vec<&[(usize, f64)]> = self
            .basis
            .iter()
            .map(|&j| {
                if j < self.sf.n {
                    self.sf.cols[j].as_slice()
                } else {
                    &self.art_cols[j - self.sf.n]
                }
            })
            .collect();
        self.factor = Factor::build(&cols)
            .ok_or_else(|| LpError::NumericalBreakdown("singular basis".to_string()))?;
        let mut x = self.sf.b.clone();
        self.ftran(&mut x, None);
        self.x_b = x;
        Ok(())
    }

    /// Executes the basis change `basis[pos] <- enter` given the entering
    /// column's ftran image `w`, refactorizing when the eta file is long.
    /// Only the rows of `w`'s pattern change. Returns whether it
    /// refactorized.
    fn pivot(
        &mut self,
        pos: usize,
        enter: usize,
        w: &WorkVec,
        rec: &dyn Recorder,
    ) -> Result<bool, LpError> {
        let profiling = rec.enabled();
        let t0 = profiling.then(std::time::Instant::now);
        let t = self.x_b[pos] / w.val[pos];
        for &i in &w.pat {
            let (i, wi) = (i as usize, w.val[i as usize]);
            if i != pos && wi != 0.0 {
                self.x_b[i] -= wi * t;
            }
        }
        self.x_b[pos] = t;
        self.factor.push_pivot(pos, &w.val, &w.pat);
        debug_assert!(enter < self.sf.n, "artificials never enter");
        let leaving = self.basis[pos];
        if leaving < self.sf.n {
            self.in_basis[leaving] = false;
        }
        self.in_basis[enter] = true;
        self.basis[pos] = enter;
        if let Some(t0) = t0 {
            rec.record_max("lp.eta_len", self.factor.eta_len() as u64);
            rec.span_record("eta_apply", 1, elapsed_ns(t0));
        }
        if !self.factor.needs_refactor() {
            return Ok(false);
        }
        let t1 = profiling.then(std::time::Instant::now);
        self.rebuild_factor()?;
        if let Some(t1) = t1 {
            rec.incr("lp.refactorizations", 1);
            rec.incr("lp.factor_nnz", self.factor.nnz());
            rec.incr("lp.basis_nnz", self.factor.basis_nnz());
            rec.span_record("refactor", 1, elapsed_ns(t1));
        }
        Ok(true)
    }

    /// Entering column under partial pricing (or Bland's rule), pricing
    /// `d_j = c_j - y·a_j` by sparse dots. Returns `None` at optimality.
    fn price(&mut self, y: &[f64], phase1: bool, bland: bool, rec: &dyn Recorder) -> Option<usize> {
        let n_t = self.n_total();
        let mut priced = 0u64;
        let chosen = if bland {
            let mut found = None;
            for j in 0..n_t {
                if !self.enterable(j) {
                    continue;
                }
                priced += 1;
                if self.cost(j, phase1) - self.dot_col(j, y) < -COST_TOL {
                    found = Some(j);
                    break;
                }
            }
            found
        } else {
            // Cyclic candidate window: price at least `window` columns
            // starting at the cursor, keep going until one is eligible (or
            // the whole cycle is exhausted), take the most negative with a
            // smallest-index tie-break.
            let window = (n_t / 8).max(PRICE_WINDOW_MIN);
            let mut best: Option<(usize, f64)> = None;
            let mut j = if n_t == 0 { 0 } else { self.cursor % n_t };
            for step in 0..n_t {
                if self.enterable(j) {
                    priced += 1;
                    let d = self.cost(j, phase1) - self.dot_col(j, y);
                    if d < -COST_TOL {
                        let better = match best {
                            None => true,
                            Some((bj, bd)) => d < bd || (d == bd && j < bj),
                        };
                        if better {
                            best = Some((j, d));
                        }
                    }
                }
                j = if j + 1 == n_t { 0 } else { j + 1 };
                if step + 1 >= window && best.is_some() {
                    break;
                }
            }
            self.cursor = j;
            best.map(|(j, _)| j)
        };
        if rec.enabled() {
            rec.incr("lp.priced_columns", priced);
        }
        chosen
    }

    /// Candidate build for the dual ratio test: `(column, row entry,
    /// dual ratio)` per eligible column, in ascending column order.
    ///
    /// Walks only the rows of `rho`'s pattern, ascending, through the
    /// row-wise copy in `scan`. Each `α_j = rho·a_j` adds its terms in
    /// ascending row order, as a per-column dot would; the rows it skips
    /// contribute exact zeros, which leave a nonzero sum's bits unchanged.
    /// So every candidate, ratio and tie-break matches the column scan.
    fn dual_candidates(
        &mut self,
        scan: &mut DualScan,
        rho: &WorkVec,
        y: &[f64],
    ) -> Vec<(usize, f64, f64)> {
        for &i in &rho.pat {
            let (i, r) = (i as usize, rho.val[i as usize]);
            if r == 0.0 {
                continue;
            }
            let (js, vs) = scan.rows.line(i);
            self.dual_scan_entries += js.len() as u64;
            for (&j, &v) in js.iter().zip(vs) {
                let j = j as usize;
                if self.in_basis[j] {
                    continue;
                }
                if scan.alpha[j] == 0.0 {
                    scan.touched.push(j as u32);
                }
                scan.alpha[j] += v * r;
            }
        }
        scan.touched.sort_unstable();
        scan.touched.dedup();
        self.dual_scan_columns += scan.touched.len() as u64;
        let mut cands = Vec::new();
        for &j in &scan.touched {
            let j = j as usize;
            let a = std::mem::take(&mut scan.alpha[j]);
            if a < -PIVOT_TOL {
                let d = self.cost(j, false) - self.dot_col(j, y);
                cands.push((j, a, d / (-a)));
            }
        }
        scan.touched.clear();
        cands
    }

    /// The column scan [`Kernel::dual_candidates`] replaced: `rho·a_j` by
    /// a sparse dot for every enterable column.
    #[cfg(test)]
    fn dual_candidates_by_columns(&self, rho: &[f64], y: &[f64]) -> Vec<(usize, f64, f64)> {
        let mut cands = Vec::new();
        for j in 0..self.n_total() {
            if !self.enterable(j) {
                continue;
            }
            let a = self.dot_col(j, rho);
            if a < -PIVOT_TOL {
                let d = self.cost(j, false) - self.dot_col(j, y);
                cands.push((j, a, d / (-a)));
            }
        }
        cands
    }

    /// Leaving position by a two-pass minimum-ratio test over the `rows`
    /// that may hold a nonzero of `w`: the first pass finds the minimum
    /// ratio, the second admits rows within `RATIO_TOL` of it and takes the
    /// largest pivot element (smallest basis column on exact magnitude
    /// ties, keeping the sequence deterministic). Neither pass depends on
    /// the order of `rows`.
    fn choose_leaving(&self, w: &[f64], rows: &[u32]) -> Option<usize> {
        let mut theta = f64::INFINITY;
        for &i in rows {
            let i = i as usize;
            if w[i] > PIVOT_TOL {
                theta = theta.min(self.x_b[i] / w[i]);
            }
        }
        if theta == f64::INFINITY {
            return None;
        }
        let cutoff = theta + RATIO_TOL * (1.0 + theta.abs());
        let mut best: Option<usize> = None;
        for &i in rows {
            let i = i as usize;
            let a = w[i];
            if a > PIVOT_TOL && self.x_b[i] / a <= cutoff {
                let better = match best {
                    None => true,
                    Some(bi) => a > w[bi] || (a == w[bi] && self.basis[i] < self.basis[bi]),
                };
                if better {
                    best = Some(i);
                }
            }
        }
        best
    }

    /// Primal simplex loop under the phase costs.
    fn primal(
        &mut self,
        phase1: bool,
        iters: &mut usize,
        max_iterations: usize,
        rec: &dyn Recorder,
    ) -> Result<PhaseOutcome, LpError> {
        let start = *iters;
        let mut degenerate = 0u64;
        let mut activations = 0u64;
        // Span phases aggregate locally — one recorder call per phase per
        // `primal` invocation, nothing per pivot beyond what `pivot`
        // itself records. All timing work is behind the `enabled()`
        // pre-check.
        let profiling = rec.enabled();
        let mut pricing = PhaseAgg::default();
        let mut ratio = PhaseAgg::default();
        let mut ftran_ns = 0u64;
        let out = (|| {
            let mut bland = false;
            let mut stall = 0usize;
            let mut last_obj = f64::INFINITY;
            let mut w = WorkVec::default();
            loop {
                if *iters >= max_iterations {
                    return Err(LpError::IterationLimit {
                        limit: max_iterations,
                    });
                }
                let chosen = pricing.time(profiling, || {
                    let y = self.duals(phase1);
                    self.price(&y, phase1, bland, rec)
                });
                let Some(enter) = chosen else {
                    return Ok(PhaseOutcome::Optimal);
                };
                let tf = profiling.then(std::time::Instant::now);
                self.ftran_col(enter, &mut w);
                if let Some(tf) = tf {
                    ftran_ns = ftran_ns.saturating_add(elapsed_ns(tf));
                }
                #[cfg(test)]
                self.probe_ftran(enter, &w);
                let leave = ratio.time(profiling, || self.choose_leaving(&w.val, &w.pat));
                #[cfg(test)]
                self.probe_primal_leaving(&w, leave);
                let Some(pos) = leave else {
                    return Ok(PhaseOutcome::Unbounded);
                };
                self.pivot(pos, enter, &w, rec)?;
                *iters += 1;
                let obj = self.objective(phase1);
                if obj < last_obj - 1e-12 {
                    stall = 0;
                    last_obj = obj;
                } else {
                    degenerate += 1;
                    stall += 1;
                    if stall > STALL_LIMIT && !bland {
                        bland = true;
                        activations += 1;
                    }
                }
            }
        })();
        if rec.enabled() {
            rec.incr("lp.pivots", (*iters - start) as u64);
            rec.incr("lp.degenerate_pivots", degenerate);
            rec.incr("lp.bland_activations", activations);
            if out.is_err() {
                rec.incr("lp.iteration_limit_hits", 1);
            }
            rec.span_record("pricing", pricing.hits, pricing.ns);
            rec.span_record("ratio_test", ratio.hits, ratio.ns);
            // The entering-column FTRAN is eta-file application work; its
            // hit count is already carried by `pivot`'s per-pivot record.
            rec.span_record("eta_apply", 0, ftran_ns);
        }
        self.flush_counts(rec);
        out
    }

    /// Dual simplex from a dual-feasible basis with possibly negative
    /// basic values, mirroring the dense `run_dual_phase`.
    fn dual(
        &mut self,
        iters: &mut usize,
        max_iterations: usize,
        rec: &dyn Recorder,
    ) -> Result<DualOutcome, LpError> {
        let start = *iters;
        let mut activations = 0u64;
        let profiling = rec.enabled();
        let mut pricing = PhaseAgg::default();
        let mut ratio = PhaseAgg::default();
        let mut ftran_ns = 0u64;
        let out = (|| {
            let feas_tol = {
                let max_b = self.x_b.iter().fold(0.0f64, |a, &v| a.max(v.abs()));
                1e-7 * (1.0 + max_b)
            };
            #[cfg(test)]
            let mut bland = self.probe.force_bland;
            #[cfg(not(test))]
            let mut bland = false;
            let mut stall = 0usize;
            // Simplex multipliers, derived by BTRAN when first needed and
            // after each refactorization, rank-one updated in between.
            let mut y: Option<Vec<f64>> = None;
            let mut scan: Option<DualScan> = None;
            let mut leaving = Leaving::new(&self.x_b, feas_tol);
            let (mut rho, mut w) = (WorkVec::default(), WorkVec::default());
            loop {
                if *iters >= max_iterations {
                    return Err(LpError::IterationLimit {
                        limit: max_iterations,
                    });
                }
                let leave = leaving.choose(&self.x_b, &self.basis, bland);
                #[cfg(test)]
                self.probe_dual_leaving(feas_tol, bland, leave);
                let Some(pos) = leave else {
                    return Ok(DualOutcome::PrimalFeasible);
                };
                // Row pos of B^{-1}A via one BTRAN of e_pos, then the dual
                // ratio test over negative entries. The BTRAN plus the
                // reduced-cost scan is the dual analogue of pricing.
                let cands = pricing.time(profiling, || {
                    self.inverse_row(pos, &mut rho);
                    let y = y.get_or_insert_with(|| self.duals(false));
                    let scan = scan.get_or_insert_with(|| DualScan::new(&self.sf));
                    self.dual_candidates(scan, &rho, y)
                });
                #[cfg(test)]
                {
                    self.probe_btran(pos, &rho);
                    self.probe_dual_scan(&rho.val, y.as_deref().expect("derived"), &cands);
                }
                let tr = profiling.then(std::time::Instant::now);
                let enter = if bland {
                    let mut best: Option<(usize, f64)> = None;
                    for &(j, _, ratio) in &cands {
                        let better = match best {
                            None => true,
                            Some((ej, er)) => {
                                ratio < er - 1e-12 || ((ratio - er).abs() <= 1e-12 && j < ej)
                            }
                        };
                        if better {
                            best = Some((j, ratio));
                        }
                    }
                    best
                } else {
                    // Two-pass test mirroring `choose_leaving`: largest
                    // magnitude among ratios within `RATIO_TOL` of the
                    // minimum, smallest column on exact ties.
                    let theta = cands.iter().fold(f64::INFINITY, |t, c| t.min(c.2));
                    let cutoff = theta + RATIO_TOL * (1.0 + theta.abs());
                    let mut best: Option<(usize, f64, f64)> = None;
                    for &(j, a, ratio) in &cands {
                        if ratio <= cutoff {
                            let better = match best {
                                None => true,
                                Some((ej, ea, _)) => a < ea || (a == ea && j < ej),
                            };
                            if better {
                                best = Some((j, a, ratio));
                            }
                        }
                    }
                    best.map(|(j, _, ratio)| (j, ratio))
                };
                if let Some(tr) = tr {
                    ratio.hits += 1;
                    ratio.ns = ratio.ns.saturating_add(elapsed_ns(tr));
                }
                let Some((enter, ratio_q)) = enter else {
                    // Row reads `(non-negative combination) = negative`:
                    // empty feasible region.
                    return Ok(DualOutcome::Infeasible { row: pos });
                };
                let tf = profiling.then(std::time::Instant::now);
                self.ftran_col(enter, &mut w);
                if let Some(tf) = tf {
                    ftran_ns = ftran_ns.saturating_add(elapsed_ns(tf));
                }
                #[cfg(test)]
                self.probe_ftran(enter, &w);
                if self.pivot(pos, enter, &w, rec)? {
                    y = None;
                    leaving.rebuild(&self.x_b);
                    #[cfg(test)]
                    {
                        self.probe.refreshes += 1;
                    }
                } else {
                    leaving.refresh(&self.x_b, &w.pat);
                    if let Some(y) = y.as_mut() {
                        // Zero the entering reduced cost: y += (d_q / α_q)·rho,
                        // and d_q / α_q is minus the candidate's ratio d_q / -α_q.
                        for &i in &rho.pat {
                            let (i, ri) = (i as usize, rho.val[i as usize]);
                            if ri != 0.0 {
                                y[i] -= ratio_q * ri;
                                self.dual_update_entries += 1;
                            }
                        }
                        #[cfg(test)]
                        self.probe_dual_drift(y);
                    }
                }
                *iters += 1;
                stall += 1;
                if stall > STALL_LIMIT && !bland {
                    bland = true;
                    activations += 1;
                }
            }
        })();
        if rec.enabled() {
            rec.incr("lp.dual_pivots", (*iters - start) as u64);
            rec.incr("lp.bland_activations", activations);
            if out.is_err() {
                rec.incr("lp.iteration_limit_hits", 1);
            }
            rec.span_record("pricing", pricing.hits, pricing.ns);
            rec.span_record("ratio_test", ratio.hits, ratio.ns);
            rec.span_record("eta_apply", 0, ftran_ns);
        }
        self.flush_counts(rec);
        out
    }

    /// Records how far the updated multipliers `y` lie from a fresh
    /// BTRAN, bypassing [`Kernel::btran`] so the probe adds no
    /// `lp.btrans`.
    #[cfg(test)]
    fn probe_dual_drift(&mut self, y: &[f64]) {
        let mut fresh: Vec<f64> = self.basis.iter().map(|&j| self.cost(j, false)).collect();
        self.factor.btran_by_sweep(&mut fresh);
        let norm = fresh.iter().fold(1.0f64, |a, v| a.max(v.abs()));
        let gap = y
            .iter()
            .zip(&fresh)
            .fold(0.0f64, |a, (u, v)| a.max((u - v).abs()));
        self.probe.drift.push(gap / norm);
    }

    /// Checks the entering column's FTRAN against the sweep over every
    /// LU step, bit for bit, and its pattern.
    #[cfg(test)]
    fn probe_ftran(&mut self, enter: usize, w: &WorkVec) {
        let mut want = self.dense_col(enter);
        self.factor.ftran_by_sweep(&mut want);
        assert_eq!(
            bits(&w.val),
            bits(&want),
            "FTRAN of column {enter} diverged"
        );
        crate::factor::assert_pattern(&w.val, &w.pat);
        self.probe.ftrans_checked += 1;
    }

    /// Checks the BTRAN of `e_pos` against the sweep over every LU step,
    /// bit for bit, and its pattern.
    #[cfg(test)]
    fn probe_btran(&mut self, pos: usize, rho: &WorkVec) {
        let mut want = vec![0.0; self.sf.m];
        want[pos] = 1.0;
        self.factor.btran_by_sweep(&mut want);
        assert_eq!(bits(&rho.val), bits(&want), "BTRAN of row {pos} diverged");
        crate::factor::assert_pattern(&rho.val, &rho.pat);
        self.probe.btrans_checked += 1;
    }

    /// Checks the primal leaving row, found over `w`'s pattern, against
    /// the test over every row.
    #[cfg(test)]
    fn probe_primal_leaving(&mut self, w: &WorkVec, chosen: Option<usize>) {
        let every: Vec<u32> = (0..self.sf.m as u32).collect();
        assert_eq!(chosen, self.choose_leaving(&w.val, &every));
        self.probe.leaving_checked += 1;
    }

    /// Checks the dual leaving row, taken from the list, against the
    /// scan over every row the list replaced: most negative basic value
    /// (Bland: smallest basis column index).
    #[cfg(test)]
    fn probe_dual_leaving(&mut self, feas_tol: f64, bland: bool, chosen: Option<usize>) {
        let mut leave: Option<(usize, f64)> = None;
        for i in 0..self.sf.m {
            let v = self.x_b[i];
            if v < -feas_tol {
                let better = match leave {
                    None => true,
                    Some((li, lv)) => {
                        if bland {
                            self.basis[i] < self.basis[li]
                        } else {
                            v < lv
                        }
                    }
                };
                if better {
                    leave = Some((i, v));
                }
            }
        }
        assert_eq!(chosen, leave.map(|l| l.0), "leaving row diverged");
        self.probe.leaving_checked += 1;
    }

    /// Checks a row-wise candidate list against the column scan, bit for
    /// bit, and that no basic column is among the candidates.
    #[cfg(test)]
    fn probe_dual_scan(&mut self, rho: &[f64], y: &[f64], cands: &[(usize, f64, f64)]) {
        let bits = |c: &[(usize, f64, f64)]| -> Vec<(usize, u64, u64)> {
            c.iter()
                .map(|&(j, a, r)| (j, a.to_bits(), r.to_bits()))
                .collect()
        };
        let reference = self.dual_candidates_by_columns(rho, y);
        assert_eq!(bits(cands), bits(&reference), "row-wise scan diverged");
        assert!(cands.iter().all(|&(j, _, _)| self.enterable(j)));
        self.probe.scans_checked += 1;
    }

    /// Dual repair followed by a primal clean-up — the incremental
    /// re-optimization.
    fn dual_then_primal(
        &mut self,
        iters: &mut usize,
        max_iterations: usize,
        rec: &dyn Recorder,
    ) -> Result<ReoptOutcome, LpError> {
        match self.dual(iters, max_iterations, rec)? {
            DualOutcome::Infeasible { row } => return Ok(ReoptOutcome::Infeasible { row }),
            DualOutcome::PrimalFeasible => {}
        }
        match self.primal(false, iters, max_iterations, rec)? {
            PhaseOutcome::Unbounded => Ok(ReoptOutcome::Unbounded),
            PhaseOutcome::Optimal => Ok(ReoptOutcome::Optimal),
        }
    }

    /// Role of every current basis column, stated over the original model
    /// (the sparse slack→row map covers appended rows as well).
    fn roles(&self) -> Vec<ColumnRole> {
        let mut row_of_slack = vec![usize::MAX; self.sf.n];
        for (i, &sc) in self.sf.slack_col.iter().enumerate() {
            if sc != usize::MAX {
                row_of_slack[sc] = i;
            }
        }
        self.basis
            .iter()
            .map(|&j| {
                if j < self.sf.n_orig {
                    ColumnRole::Structural(j)
                } else if j < self.sf.n {
                    ColumnRole::Slack(row_of_slack[j])
                } else {
                    ColumnRole::Artificial(self.art_row(j))
                }
            })
            .collect()
    }

    /// Pivots residual artificials out of the basis where a structural
    /// column is available (degenerate pivots); redundant rows keep their
    /// zero-valued artificial, which stays barred from re-entering.
    fn drive_out_artificials(&mut self, rec: &dyn Recorder) -> Result<(), LpError> {
        let (mut rho, mut w) = (WorkVec::default(), WorkVec::default());
        for pos in 0..self.sf.m {
            if self.basis[pos] < self.sf.n {
                continue;
            }
            self.inverse_row(pos, &mut rho);
            let replacement = (0..self.sf.n)
                .find(|&j| self.enterable(j) && self.dot_col(j, &rho.val).abs() > 1e-7);
            if let Some(j) = replacement {
                self.ftran_col(j, &mut w);
                self.pivot(pos, j, &w, rec)?;
            }
        }
        Ok(())
    }

    /// Recovers the original-space solution, objective, and duals.
    fn extract(&mut self, model: &Model, rec: &dyn Recorder) -> (Vec<f64>, f64, Option<Vec<f64>>) {
        let mut x_std = vec![0.0; self.sf.n];
        for (pos, &j) in self.basis.iter().enumerate() {
            if j < self.sf.n {
                x_std[j] = self.x_b[pos].max(0.0);
            }
        }
        let x = self.sf.recover(&x_std);
        let objective = model.objective_value(&x);
        let y = self.duals(false);
        self.flush_counts(rec);
        let duals = Some(self.sf.recover_duals(&y));
        (x, objective, duals)
    }
}

/// A dense work vector with its pattern: `pat` lists, without repeats,
/// every index whose entry may be anything but `+0.0` (see
/// [`Factor::ftran`]).
#[derive(Debug, Default)]
struct WorkVec {
    val: Vec<f64>,
    pat: Vec<u32>,
}

impl WorkVec {
    /// Zeroes the listed entries and sizes the vector to `n`, all `+0.0`.
    fn clear(&mut self, n: usize) {
        for &i in &self.pat {
            self.val[i as usize] = 0.0;
        }
        self.pat.clear();
        self.val.resize(n, 0.0);
    }

    /// Sets unlisted entry `i`, which holds `+0.0`, to `x`.
    fn set(&mut self, i: usize, x: f64) {
        debug_assert_eq!(self.val[i].to_bits(), 0);
        self.val[i] = x;
        self.pat.push(i as u32);
    }
}

/// The dual loop's leaving candidates: every row whose basic value lies
/// below `-tol`. A pivot changes only the rows of the entering column's
/// pattern, so the list is refreshed from that pattern and rebuilt by a
/// scan of every row only after a refactorization recomputes `x_b`.
struct Leaving {
    tol: f64,
    rows: Vec<u32>,
    listed: Vec<bool>,
}

impl Leaving {
    fn new(x_b: &[f64], tol: f64) -> Leaving {
        let mut leaving = Leaving {
            tol,
            rows: Vec::new(),
            listed: vec![false; x_b.len()],
        };
        leaving.rebuild(x_b);
        leaving
    }

    /// Lists every row below `-tol`.
    fn rebuild(&mut self, x_b: &[f64]) {
        self.rows.clear();
        self.listed.fill(false);
        self.refresh_rows(x_b, 0..x_b.len() as u32);
    }

    /// Lists the rows of `pat` that fell below `-tol`.
    fn refresh(&mut self, x_b: &[f64], pat: &[u32]) {
        self.refresh_rows(x_b, pat.iter().copied());
    }

    fn refresh_rows(&mut self, x_b: &[f64], rows: impl Iterator<Item = u32>) {
        for i in rows {
            if x_b[i as usize] < -self.tol && !self.listed[i as usize] {
                self.listed[i as usize] = true;
                self.rows.push(i);
            }
        }
    }

    /// The leaving row: the most negative basic value, the smallest row
    /// on ties (Bland: the smallest basis column). Drops the rows that
    /// are no longer below `-tol`.
    fn choose(&mut self, x_b: &[f64], basis: &[usize], bland: bool) -> Option<usize> {
        let mut best: Option<usize> = None;
        let mut at = 0;
        while at < self.rows.len() {
            let i = self.rows[at] as usize;
            let v = x_b[i];
            if v < -self.tol {
                let better = match best {
                    None => true,
                    Some(b) if bland => basis[i] < basis[b],
                    Some(b) => v < x_b[b] || (v == x_b[b] && i < b),
                };
                if better {
                    best = Some(i);
                }
                at += 1;
            } else {
                self.listed[i] = false;
                self.rows.swap_remove(at);
            }
        }
        best
    }
}

/// The bits of every entry, for exact comparisons.
#[cfg(test)]
fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// A combined-and-sorted appended row: coefficients over shifted
/// variables, sense, shifted right-hand side.
type PendingRow = (Vec<(usize, f64)>, Cmp, f64);

/// Incremental revised-simplex session: the sparse counterpart of
/// [`crate::SimplexSession`], with the same grow-by-appending-rows
/// surface. Each appended batch becomes a single `O(nnz)` append-block
/// operator on the basis factorization — no tableau re-layout, no
/// re-elimination against existing rows.
///
/// # Example
///
/// ```
/// use lubt_lp::{Cmp, LinExpr, Model, RevisedSession};
/// let mut m = Model::new();
/// let x = m.add_var(0.0, 1.0);
/// let y = m.add_var(0.0, 1.0);
/// m.add_constraint(LinExpr::from_terms([(x, 1.0), (y, 1.0)]), Cmp::Ge, 4.0);
///
/// let mut session = RevisedSession::start(m)?;
/// assert!((session.solution().objective() - 4.0).abs() < 1e-7);
/// session.add_constraint(LinExpr::from_terms([(x, 1.0)]), Cmp::Ge, 3.0)?;
/// let sol = session.resolve()?;
/// assert!((sol.objective() - 4.0).abs() < 1e-7);
/// # Ok::<(), lubt_lp::LpError>(())
/// ```
pub struct RevisedSession {
    model: Model,
    /// Live kernel, kept at an optimal basis between resolves (absent when
    /// the session can no longer be grown).
    kernel: Option<Kernel>,
    pending: Vec<PendingRow>,
    solution: Solution,
    max_iterations: usize,
    recorder: Arc<dyn Recorder>,
    infeasible: bool,
    /// Seed of the certificate for the most recent (re)solve outcome.
    cert_seed: Option<CertSeed>,
}

impl RevisedSession {
    /// Cold-solves `model` and retains the kernel for incremental growth.
    ///
    /// # Errors
    ///
    /// Same contract as [`crate::SimplexSession::start`].
    pub fn start(model: Model) -> Result<Self, LpError> {
        Self::start_with(model, RevisedSolver::new())
    }

    /// Like [`RevisedSession::start`], but the cold solve and every later
    /// [`RevisedSession::resolve`] inherit `solver`'s limits and recorder.
    ///
    /// # Errors
    ///
    /// Same contract as [`crate::SimplexSession::start`].
    pub fn start_with(model: Model, solver: RevisedSolver) -> Result<Self, LpError> {
        let (solution, kernel, cert_seed) = solver.solve_full(&model)?;
        let infeasible = solution.status() != Status::Optimal;
        Ok(RevisedSession {
            model,
            kernel,
            pending: Vec::new(),
            solution,
            max_iterations: solver.max_iterations(),
            recorder: Arc::clone(solver.recorder()),
            infeasible,
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
    /// [`RevisedSession::resolve`].
    ///
    /// # Errors
    ///
    /// Same contract as [`crate::SimplexSession::add_constraint`].
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
        let shift: &[f64] = match &self.kernel {
            Some(k) => &k.sf.shift,
            None => &self.model.lower,
        };
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
            shifted_rhs -= c * shift[v.index()];
        }
        crate::sparse::combine(&mut terms);
        self.model.add_constraint(expr, cmp, rhs);
        self.pending.push((terms, cmp, shifted_rhs));
        Ok(())
    }

    /// Integrates all pending rows as one append block and re-optimizes
    /// with the dual simplex.
    ///
    /// # Errors
    ///
    /// Same contract as [`crate::SimplexSession::resolve`].
    pub fn resolve(&mut self) -> Result<&Solution, LpError> {
        if self.infeasible {
            self.pending.clear();
            return Ok(&self.solution);
        }
        if self.pending.is_empty() {
            return Ok(&self.solution);
        }
        // A residual artificial in the basis (redundant equality row in the
        // seed model) would be aliased by the appended slack's column id;
        // re-solve the grown model cold instead — `add_constraint` already
        // recorded every pending row in `self.model`.
        let has_artificials = self
            .kernel
            .as_ref()
            .is_none_or(|k| k.basis.iter().any(|&j| j >= k.sf.n));
        if has_artificials {
            self.pending.clear();
            if self.recorder.enabled() {
                self.recorder.incr("lp.resolves", 1);
            }
            let solver = RevisedSolver::new()
                .with_max_iterations(self.max_iterations)
                .with_recorder(Arc::clone(&self.recorder));
            let (solution, kernel, cert_seed) = solver.solve_full(&self.model)?;
            self.infeasible = solution.status() != Status::Optimal;
            self.solution = solution;
            self.kernel = kernel;
            self.cert_seed = cert_seed;
            return Ok(&self.solution);
        }
        let kernel = self
            .kernel
            .as_mut()
            .expect("an optimal session always holds a kernel");
        let batch: Vec<(Vec<(usize, f64)>, f64)> = std::mem::take(&mut self.pending)
            .into_iter()
            .map(|(terms, cmp, rhs)| {
                // Orient the row so its slack carries +1: `sum <= rhs`
                // passes through, `sum >= rhs` is negated.
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

        // Append block: the new rows' coefficients on the current basis
        // columns (by position), the fresh slacks joining the basis.
        let mut pos_of = vec![usize::MAX; kernel.sf.n];
        for (pos, &bcol) in kernel.basis.iter().enumerate() {
            if bcol < kernel.sf.n {
                pos_of[bcol] = pos;
            }
        }
        let mut crows = Vec::with_capacity(batch.len());
        for (terms, rhs) in &batch {
            let mut crow: Vec<(usize, f64)> = terms
                .iter()
                .filter(|&&(j, _)| pos_of[j] != usize::MAX)
                .map(|&(j, c)| (pos_of[j], c))
                .collect();
            crow.sort_unstable_by_key(|&(p, _)| p);
            crows.push(crow);
            kernel.basis.push(kernel.sf.n); // the row's fresh slack
            kernel.in_basis.push(true);
            kernel.sf.append_row(terms, *rhs);
        }
        kernel.factor.push_append(crows);
        // Recompute the basic values through the extended operator chain
        // (the old positions are untouched by construction).
        let mut x = kernel.sf.b.clone();
        kernel.ftran(&mut x, None);
        kernel.x_b = x;

        let mut iters = self.solution.iterations();
        if self.recorder.enabled() {
            self.recorder.incr("lp.resolves", 1);
        }
        let status = kernel.dual_then_primal(&mut iters, self.max_iterations, &*self.recorder)?;
        if self.recorder.enabled() {
            self.recorder.record_max("lp.peak_pivots", iters as u64);
            self.recorder.gauge(
                "lp.limit_fraction",
                iters as f64 / self.max_iterations.max(1) as f64,
            );
        }
        match status {
            ReoptOutcome::Optimal => {
                self.cert_seed = Some(CertSeed::Optimal(kernel.roles()));
                let n_orig = self.model.num_vars();
                let mut x = vec![0.0; n_orig];
                for (pos, &b) in kernel.basis.iter().enumerate() {
                    if b < n_orig {
                        x[b] = kernel.x_b[pos].max(0.0);
                    }
                }
                for (xi, s) in x.iter_mut().zip(&kernel.sf.shift) {
                    *xi += s;
                }
                let objective = self.model.objective_value(&x);
                self.solution = Solution::new(Status::Optimal, x, objective, None, iters);
            }
            ReoptOutcome::Infeasible { row } => {
                self.cert_seed = Some(CertSeed::DualRow(kernel.roles(), row));
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

impl std::fmt::Debug for RevisedSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RevisedSession")
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
    use crate::SimplexSolver;

    fn expr(terms: &[(Var, f64)]) -> LinExpr {
        LinExpr::from_terms(terms.iter().copied())
    }

    fn assert_agrees(m: &Model) {
        let dense = SimplexSolver::new().solve(m).unwrap();
        let revised = RevisedSolver::new().solve(m).unwrap();
        assert_eq!(dense.status(), revised.status());
        if dense.is_optimal() {
            assert!(
                (dense.objective() - revised.objective()).abs()
                    < 1e-9 * (1.0 + dense.objective().abs()),
                "dense {} vs revised {}",
                dense.objective(),
                revised.objective()
            );
            assert!(m.check_feasible(revised.values(), 1e-6).is_ok());
        }
    }

    #[test]
    fn agrees_with_dense_on_basic_shapes() {
        // Optimal with mixed senses and shifted bounds.
        let mut m = Model::new();
        let x = m.add_var(0.0, -1.0);
        let y = m.add_var(0.0, -2.0);
        m.add_constraint(expr(&[(x, 1.0), (y, 1.0)]), Cmp::Le, 4.0);
        m.add_constraint(expr(&[(y, 1.0)]), Cmp::Le, 2.0);
        assert_agrees(&m);

        let mut m = Model::new();
        let x = m.add_var(0.0, 1.0);
        let y = m.add_var(2.0, 3.0);
        m.add_constraint(expr(&[(x, 1.0), (y, 1.0)]), Cmp::Ge, 5.0);
        m.add_constraint(expr(&[(x, 1.0), (y, -1.0)]), Cmp::Ge, 1.0);
        m.add_constraint(expr(&[(y, 1.0)]), Cmp::Eq, 3.0);
        assert_agrees(&m);
    }

    #[test]
    fn detects_infeasible_and_unbounded() {
        let mut m = Model::new();
        let x = m.add_var(0.0, 1.0);
        m.add_constraint(expr(&[(x, 1.0)]), Cmp::Ge, 5.0);
        m.add_constraint(expr(&[(x, 1.0)]), Cmp::Le, 3.0);
        assert_eq!(
            RevisedSolver::new().solve(&m).unwrap().status(),
            Status::Infeasible
        );

        let mut m = Model::new();
        let x = m.add_var(0.0, -1.0);
        let y = m.add_var(0.0, 0.0);
        m.add_constraint(expr(&[(x, 1.0), (y, -1.0)]), Cmp::Le, 1.0);
        assert_eq!(
            RevisedSolver::new().solve(&m).unwrap().status(),
            Status::Unbounded
        );
    }

    #[test]
    fn no_constraints_matches_dense() {
        let mut m = Model::new();
        let x = m.add_var(2.0, 1.0);
        let y = m.add_var(-1.0, 3.0);
        let s = RevisedSolver::new().solve(&m).unwrap();
        assert!(s.is_optimal());
        assert_eq!(s.value(x), 2.0);
        assert_eq!(s.value(y), -1.0);

        let mut m = Model::new();
        let _ = m.add_var(0.0, -1.0);
        assert_eq!(
            RevisedSolver::new().solve(&m).unwrap().status(),
            Status::Unbounded
        );
    }

    #[test]
    fn redundant_equalities_leave_residual_artificials() {
        let mut m = Model::new();
        let x = m.add_var(0.0, 1.0);
        let y = m.add_var(0.0, 1.0);
        m.add_constraint(expr(&[(x, 1.0), (y, 1.0)]), Cmp::Eq, 2.0);
        m.add_constraint(expr(&[(x, 1.0), (y, 1.0)]), Cmp::Eq, 2.0);
        let s = RevisedSolver::new().solve(&m).unwrap();
        assert!(s.is_optimal());
        assert!((s.objective() - 2.0).abs() < 1e-7);
    }

    #[test]
    fn duals_satisfy_strong_duality() {
        let mut m = Model::new();
        let x = m.add_var(0.0, 1.0);
        let y = m.add_var(0.0, 2.0);
        m.add_constraint(expr(&[(x, 1.0), (y, 1.0)]), Cmp::Ge, 3.0);
        m.add_constraint(expr(&[(x, 1.0)]), Cmp::Le, 2.0);
        let s = RevisedSolver::new().solve(&m).unwrap();
        assert!((s.objective() - 4.0).abs() < 1e-7);
        let duals = s.duals().expect("revised simplex provides duals");
        let dual_obj = 3.0 * duals[0] + 2.0 * duals[1];
        assert!((dual_obj - s.objective()).abs() < 1e-6, "duals {duals:?}");
    }

    #[test]
    fn degenerate_problem_terminates() {
        let mut m = Model::new();
        let x = m.add_var(0.0, 1.0);
        let y = m.add_var(0.0, 1.0);
        for k in 1..20 {
            m.add_constraint(expr(&[(x, 1.0), (y, k as f64)]), Cmp::Ge, 0.0);
        }
        m.add_constraint(expr(&[(x, 1.0), (y, 1.0)]), Cmp::Ge, 1.0);
        let s = RevisedSolver::new().solve(&m).unwrap();
        assert!(s.is_optimal());
        assert!((s.objective() - 1.0).abs() < 1e-7);
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
        let mut session = RevisedSession::start(base.clone()).unwrap();
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
            let cold = RevisedSolver::new().solve(&base).unwrap();
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
        let mut s = RevisedSession::start(m).unwrap();
        assert!((s.solution().objective() - 4.0).abs() < 1e-7);
        s.add_constraint(expr(&[(y, 1.0)]), Cmp::Ge, 1.5).unwrap();
        let sol = s.resolve().unwrap();
        assert!((sol.objective() - 4.0).abs() < 1e-7);
        assert!(sol.value(x) >= 2.0 - 1e-9);
        assert!(sol.value(y) >= 1.5 - 1e-9);
    }

    #[test]
    fn session_detects_infeasibility_and_stays_there() {
        let mut m = Model::new();
        let x = m.add_var(0.0, 1.0);
        m.add_constraint(expr(&[(x, 1.0)]), Cmp::Le, 3.0);
        let mut s = RevisedSession::start(m).unwrap();
        s.add_constraint(expr(&[(x, 1.0)]), Cmp::Ge, 5.0).unwrap();
        assert_eq!(s.resolve().unwrap().status(), Status::Infeasible);
        s.add_constraint(expr(&[(x, 1.0)]), Cmp::Ge, 1.0).unwrap();
        assert_eq!(s.resolve().unwrap().status(), Status::Infeasible);
    }

    #[test]
    fn equality_rows_are_rejected_by_the_session() {
        let mut m = Model::new();
        let x = m.add_var(0.0, 1.0);
        m.add_constraint(expr(&[(x, 1.0)]), Cmp::Ge, 1.0);
        let mut s = RevisedSession::start(m).unwrap();
        assert!(s.add_constraint(expr(&[(x, 1.0)]), Cmp::Eq, 2.0).is_err());
    }

    #[test]
    fn many_appended_rows_force_refactorizations() {
        // Enough growth and re-pivoting to cross the eta-refresh trigger;
        // the answer must keep matching cold dense solves throughout.
        let rec = std::sync::Arc::new(lubt_obs::TraceRecorder::new());
        let mut base = Model::new();
        let vars = base.add_vars(12, 0.0, 1.0);
        base.add_constraint(
            LinExpr::from_terms(vars.iter().map(|&v| (v, 1.0))),
            Cmp::Ge,
            24.0,
        );
        let mut session = RevisedSession::start_with(
            base.clone(),
            RevisedSolver::new().with_recorder(rec.clone()),
        )
        .unwrap();
        for k in 0..40 {
            let a = k % 12;
            let b = (k * 5 + 3) % 12;
            if a == b {
                continue;
            }
            let e = LinExpr::from_terms([(vars[a], 1.0), (vars[b], 1.0)]);
            let rhs = 2.0 + (k % 7) as f64 * 0.5;
            base.add_constraint(e.clone(), Cmp::Ge, rhs);
            session.add_constraint(e, Cmp::Ge, rhs).unwrap();
        }
        let inc = session.resolve().unwrap().clone();
        let cold = SimplexSolver::new().solve(&base).unwrap();
        assert_eq!(inc.status(), cold.status());
        assert!(
            (inc.objective() - cold.objective()).abs() < 1e-6,
            "incremental {} vs dense cold {}",
            inc.objective(),
            cold.objective()
        );
        let t = rec.snapshot();
        assert!(t.counter("lp.priced_columns") > 0, "{t:?}");
        assert!(t.maximum("lp.eta_len") > 0, "{t:?}");
    }

    /// A cold-started session plus one batch of appended covering rows,
    /// every one violated at the seed optimum, so the resolve runs a long
    /// dual phase: enough dual pivots to refactorize inside `dual` more
    /// than once.
    fn dual_heavy_session(rec: Arc<lubt_obs::TraceRecorder>) -> (RevisedSession, Model) {
        let n = 160;
        let mut base = Model::new();
        let vars: Vec<Var> = (0..n)
            .map(|j| base.add_var(0.0, 1.0 + (j * 7 % 11) as f64 * 0.125))
            .collect();
        base.add_constraint(
            LinExpr::from_terms(vars.iter().map(|&v| (v, 1.0))),
            Cmp::Ge,
            4.0 * n as f64,
        );
        let mut session =
            RevisedSession::start_with(base.clone(), RevisedSolver::new().with_recorder(rec))
                .unwrap();
        for k in 0..3 * n {
            let (a, b, c) = (k % n, (k * 17 + 5) % n, (k * 31 + 11) % n);
            let e = LinExpr::from_terms([(vars[a], 1.0), (vars[b], 2.0), (vars[c], 1.0)]);
            let rhs = 3.0 + (k % 13) as f64 * 0.5;
            base.add_constraint(e.clone(), Cmp::Ge, rhs);
            session.add_constraint(e, Cmp::Ge, rhs).unwrap();
        }
        (session, base)
    }

    #[test]
    fn dual_pivots_keep_the_multipliers_by_rank_one_updates() {
        let rec = Arc::new(lubt_obs::TraceRecorder::new());
        let (mut session, base) = dual_heavy_session(rec.clone());
        let inc = session.resolve().unwrap().clone();
        let cold = SimplexSolver::new().solve(&base).unwrap();
        assert_eq!(inc.status(), cold.status());
        assert!(
            (inc.objective() - cold.objective()).abs() < 1e-6 * (1.0 + cold.objective().abs()),
            "incremental {} vs dense cold {}",
            inc.objective(),
            cold.objective()
        );
        let probe = &session.kernel.as_ref().unwrap().probe;
        assert!(probe.refreshes >= 2, "{probe:?}");
        // Every dual pivot either refactorized (and re-derived y) or was
        // checked against a fresh BTRAN.
        let t = rec.snapshot();
        assert_eq!(
            (probe.drift.len() + probe.refreshes) as u64,
            t.counter("lp.dual_pivots")
        );
        for (k, &d) in probe.drift.iter().enumerate() {
            assert!(d <= 1e-9, "dual pivot {k}: updated y drifted {d:e}");
        }
    }

    #[test]
    fn dual_pivots_cost_one_btran_each() {
        let rec = Arc::new(lubt_obs::TraceRecorder::new());
        let (mut session, _) = dual_heavy_session(rec.clone());
        session.resolve().unwrap();
        let t = rec.snapshot();
        let pivots = t.counter("lp.pivots") + t.counter("lp.dual_pivots");
        // Beyond one BTRAN per pivot (y in primal pricing, rho in dual
        // pricing): a cold solve adds one for each phase's final pricing
        // and one for `extract` (its artificial was pivoted out, so the
        // drive-out pass adds none); a resolve adds the dual's first `y`
        // and the primal's final pricing; a refactorization adds at most
        // one `y` refresh.
        let allowance = 3 * t.counter("lp.solves")
            + 2 * t.counter("lp.resolves")
            + t.counter("lp.refactorizations");
        let btrans = t.counter("lp.btrans");
        assert!(t.counter("lp.dual_pivots") > 2 * allowance, "{t:?}");
        assert!(
            (pivots..=pivots + allowance).contains(&btrans),
            "lp.btrans {btrans} outside [{pivots}, {}]",
            pivots + allowance
        );
        assert!(t.counter("lp.factor_nnz") > 0, "{t:?}");
        // The solves visit LU steps; every dual pivot that kept `y`
        // applied at least `rho`'s pivot entry.
        assert!(t.counter("lp.ftran_steps") > 0, "{t:?}");
        assert!(t.counter("lp.btran_steps") > 0, "{t:?}");
        let kept = t
            .counter("lp.dual_pivots")
            .saturating_sub(t.counter("lp.refactorizations"));
        assert!(t.counter("lp.dual_update_entries") >= kept, "{t:?}");
        let scan_columns = t.counter("lp.dual_scan_columns");
        assert!(scan_columns > 0, "{t:?}");
        assert!(t.counter("lp.dual_scan_entries") >= scan_columns, "{t:?}");
    }

    #[test]
    fn dual_candidates_keep_basic_columns_out() {
        // Basic x0 would be the most negative candidate (α = -1 - 1.5),
        // and so would the basic slack of row 1 (α = -0.5).
        let mut m = Model::new();
        let v = m.add_vars(4, 0.0, 1.0);
        m.add_constraint(
            expr(&[(v[0], 1.0), (v[1], 2.0), (v[2], -1.0)]),
            Cmp::Le,
            4.0,
        );
        m.add_constraint(expr(&[(v[0], 3.0), (v[3], 1.0)]), Cmp::Le, 5.0);
        let sf = SparseForm::build(&m);
        let (slack0, slack1) = (sf.slack_col[0], sf.slack_col[1]);
        let mut kernel = Kernel::from_basis(sf, vec![0, slack1]).unwrap();
        let mut scan = DualScan::new(&kernel.sf);
        let rho = WorkVec {
            val: vec![-1.0, -0.5],
            pat: vec![0, 1],
        };
        let y = [0.25, 0.0];
        for _ in 0..2 {
            let cands = kernel.dual_candidates(&mut scan, &rho, &y);
            assert_eq!(cands, kernel.dual_candidates_by_columns(&rho.val, &y));
            let cols: Vec<usize> = cands.iter().map(|c| c.0).collect();
            assert_eq!(cols, vec![1, 3, slack0]);
            assert!(scan.alpha.iter().all(|&a| a == 0.0), "{:?}", scan.alpha);
            assert!(scan.touched.is_empty());
        }
        assert_eq!(kernel.dual_scan_columns, 2 * 4);
        assert_eq!(kernel.dual_scan_entries, 2 * 7);
    }

    /// Random covering sessions grown by several batches of appended rows,
    /// each batch repaired by the dual simplex. Every dual pivot checks
    /// its row-wise candidates against the column scan
    /// ([`Kernel::probe_dual_scan`]), and every pivot its entering-column
    /// FTRAN, its `rho` BTRAN and its leaving row against the sweeps and
    /// scans they replaced ([`Kernel::probe_ftran`],
    /// [`Kernel::probe_btran`], [`Kernel::probe_dual_leaving`],
    /// [`Kernel::probe_primal_leaving`]); every third session runs its
    /// dual loops on Bland's rule from the first pivot.
    #[test]
    fn row_wise_dual_candidates_match_the_column_scan() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        const VALUES: [f64; 6] = [1.0, 2.0, 0.5, 3.0, -1.0, -0.5];
        let (mut checked, mut bland_checked) = (0, 0);
        let (mut ftrans, mut btrans, mut leaving) = (0, 0, 0);
        for seed in 0..12u64 {
            let force_bland = seed % 3 == 0;
            let mut rng = StdRng::seed_from_u64(seed);
            let n = rng.gen_range(8usize..32);
            let mut base = Model::new();
            let vars: Vec<Var> = (0..n)
                .map(|_| base.add_var(0.0, 1.0 + rng.gen_range(0..8usize) as f64 * 0.25))
                .collect();
            base.add_constraint(
                LinExpr::from_terms(vars.iter().map(|&v| (v, 1.0))),
                Cmp::Ge,
                n as f64,
            );
            let mut session = RevisedSession::start(base.clone()).unwrap();
            for _ in 0..4 {
                for _ in 0..rng.gen_range(2..2 * n) {
                    // A positive first term keeps every row satisfiable.
                    let mut terms = vec![(vars[rng.gen_range(0..n)], 1.0)];
                    for _ in 0..rng.gen_range(0usize..4) {
                        let c = VALUES[rng.gen_range(0..VALUES.len())];
                        terms.push((vars[rng.gen_range(0..n)], c));
                    }
                    let e = LinExpr::from_terms(terms);
                    let rhs = rng.gen_range(1..9usize) as f64 * 0.5;
                    base.add_constraint(e.clone(), Cmp::Ge, rhs);
                    session.add_constraint(e, Cmp::Ge, rhs).unwrap();
                }
                if let Some(k) = session.kernel.as_mut() {
                    k.probe.force_bland = force_bland;
                }
                session.resolve().unwrap();
                let probe = &mut session.kernel.as_mut().unwrap().probe;
                let scans = std::mem::take(&mut probe.scans_checked);
                checked += scans;
                if force_bland {
                    bland_checked += scans;
                }
                ftrans += std::mem::take(&mut probe.ftrans_checked);
                btrans += std::mem::take(&mut probe.btrans_checked);
                leaving += std::mem::take(&mut probe.leaving_checked);
            }
            let inc = session.solution();
            let cold = SimplexSolver::new().solve(&base).unwrap();
            assert_eq!(inc.status(), cold.status(), "seed {seed}");
            if inc.is_optimal() {
                assert!(
                    (inc.objective() - cold.objective()).abs()
                        < 1e-6 * (1.0 + cold.objective().abs()),
                    "seed {seed}: incremental {} vs dense cold {}",
                    inc.objective(),
                    cold.objective()
                );
            }
        }
        assert!(
            checked > 100 && bland_checked > 20,
            "{checked} / {bland_checked}"
        );
        // One BTRAN per dual pivot; one FTRAN and one leaving row per
        // pivot, plus the leaving scan that finds the basis feasible.
        assert_eq!(btrans, checked);
        assert!(
            ftrans >= checked && leaving > ftrans,
            "{ftrans} / {leaving}"
        );
    }

    #[test]
    fn recorder_sees_revised_counters() {
        let rec = std::sync::Arc::new(lubt_obs::TraceRecorder::new());
        let mut m = Model::new();
        let x = m.add_var(0.0, 1.0);
        let y = m.add_var(0.0, 1.0);
        m.add_constraint(expr(&[(x, 1.0), (y, 1.0)]), Cmp::Ge, 5.0);
        m.add_constraint(expr(&[(x, 1.0), (y, -1.0)]), Cmp::Ge, 1.0);
        let solver = RevisedSolver::new().with_recorder(rec.clone());
        let s = solver.solve(&m).unwrap();
        assert!(s.is_optimal());
        let t = rec.snapshot();
        assert_eq!(t.counter("lp.solves"), 1);
        assert!(t.counter("lp.pivots") >= 1, "{t:?}");
        assert!(t.counter("lp.priced_columns") >= 1, "{t:?}");
        assert_eq!(t.maximum("lp.peak_pivots"), s.iterations() as u64);
    }

    #[test]
    fn iteration_limit_is_reported() {
        let mut m = Model::new();
        let x = m.add_var(0.0, 1.0);
        let y = m.add_var(0.0, 1.0);
        m.add_constraint(expr(&[(x, 1.0), (y, 1.0)]), Cmp::Ge, 5.0);
        m.add_constraint(expr(&[(x, 1.0), (y, -1.0)]), Cmp::Ge, 1.0);
        let err = RevisedSolver::new()
            .with_max_iterations(1)
            .solve(&m)
            .unwrap_err();
        assert!(matches!(err, LpError::IterationLimit { limit: 1 }));
    }

    #[test]
    fn duplicate_and_cancelling_terms_in_appended_rows_combine() {
        let mut base = Model::new();
        let v = base.add_vars(3, 0.0, 1.0);
        base.add_constraint(expr(&[(v[0], 1.0), (v[1], 1.0), (v[2], 1.0)]), Cmp::Ge, 2.0);
        let mut session = RevisedSession::start(base.clone()).unwrap();
        // x0 + 2 x0 >= 9, i.e. x0 >= 3; x1 - x1 + x2 >= 1, where x1
        // cancels; 0.5 x2 + 0.25 x1 + 0.5 x2 <= 4.
        let rows = [
            (expr(&[(v[0], 1.0), (v[0], 2.0)]), Cmp::Ge, 9.0),
            (
                expr(&[(v[1], 1.0), (v[2], 1.0), (v[1], -1.0)]),
                Cmp::Ge,
                1.0,
            ),
            (
                expr(&[(v[2], 0.5), (v[1], 0.25), (v[2], 0.5)]),
                Cmp::Le,
                4.0,
            ),
        ];
        for (e, cmp, rhs) in rows {
            base.add_constraint(e.clone(), cmp, rhs);
            session.add_constraint(e, cmp, rhs).unwrap();
        }
        let inc = session.resolve().unwrap().clone();
        for cold in [
            RevisedSolver::new().solve(&base).unwrap(),
            SimplexSolver::new().solve(&base).unwrap(),
        ] {
            assert_eq!(inc.status(), cold.status());
            assert!((inc.objective() - cold.objective()).abs() < 1e-9);
        }
        assert!((inc.objective() - 4.0).abs() < 1e-9, "{}", inc.objective());
        assert!((inc.value(v[0]) - 3.0).abs() < 1e-9);
        assert!(base.check_feasible(inc.values(), 1e-9).is_ok());
    }

    #[test]
    fn resolve_without_pending_is_a_no_op() {
        let mut m = Model::new();
        let x = m.add_var(0.0, 1.0);
        m.add_constraint(expr(&[(x, 1.0)]), Cmp::Ge, 2.0);
        let mut s = RevisedSession::start(m).unwrap();
        let before = s.solution().objective();
        let after = s.resolve().unwrap().objective();
        assert_eq!(before, after);
    }
}
