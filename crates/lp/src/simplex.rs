// Index-based loops are the natural idiom for the dense kernels here.
#![allow(clippy::needless_range_loop)]

use std::sync::Arc;
use std::time::Instant;

use lubt_obs::Recorder;

use crate::certificate::{compute, CertSeed, Certificate, ColumnRole};
use crate::linalg::SquareMatrix;
use crate::standard::StandardForm;
use crate::{LpError, LpSolve, Model, Solution, Status};

/// Two-phase primal simplex on a dense tableau.
///
/// * **Phase 1** minimizes the sum of artificial variables to find a basic
///   feasible solution (or certify infeasibility).
/// * **Phase 2** minimizes the true objective; a costless entering column
///   with no blocking row certifies unboundedness.
///
/// Pricing is Dantzig's most-negative-reduced-cost rule; after 1,000
/// degenerate (non-improving) pivots in a row the solver permanently
/// switches to Bland's smallest-index rule, which guarantees termination.
///
/// Constraint duals are recovered exactly from the final basis by solving
/// `B' y = c_B` with a dense LU factorization.
///
/// # Example
///
/// See the crate-level example.
#[derive(Debug, Clone)]
pub struct SimplexSolver {
    max_iterations: usize,
    recorder: Arc<dyn Recorder>,
}

impl Default for SimplexSolver {
    fn default() -> Self {
        SimplexSolver {
            max_iterations: 200_000,
            recorder: lubt_obs::noop(),
        }
    }
}

impl SimplexSolver {
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

    /// Routes `simplex.*` instrumentation (pivot counts, degenerate pivots,
    /// Bland-rule activations, iteration-limit proximity) into `recorder`.
    /// The default is the no-op recorder.
    #[must_use]
    pub fn with_recorder(mut self, recorder: Arc<dyn Recorder>) -> Self {
        self.recorder = recorder;
        self
    }

    pub(crate) fn recorder(&self) -> &Arc<dyn Recorder> {
        &self.recorder
    }

    /// Solve-level counters of a cold solve.
    fn note_solve(&self, iterations: usize) {
        if !self.recorder.enabled() {
            return;
        }
        self.recorder.incr("simplex.solves", 1);
        self.recorder
            .record_max("simplex.peak_pivots", iterations as u64);
        self.recorder.gauge(
            "simplex.limit_fraction",
            iterations as f64 / self.max_iterations.max(1) as f64,
        );
    }
}

const PIVOT_TOL: f64 = 1e-9;
const COST_TOL: f64 = 1e-9;

/// Pivots in a row without progress after which a phase switches to
/// Bland's rule for good: degenerate pivots in a primal phase, any pivots
/// in a dual phase. Shared by both backends.
pub(crate) const STALL_LIMIT: usize = 1_000;

/// Dense simplex tableau: `m` constraint rows over `width` columns, the last
/// column being the right-hand side, plus one objective (reduced-cost) row.
pub(crate) struct Tableau {
    pub(crate) m: usize,
    /// Total structural + artificial columns (rhs excluded).
    pub(crate) cols: usize,
    pub(crate) width: usize,
    pub(crate) rows: Vec<f64>,
    pub(crate) obj: Vec<f64>,
    pub(crate) basis: Vec<usize>,
    /// Columns barred from entering (artificials in phase 2).
    pub(crate) blocked: Vec<bool>,
}

impl Tableau {
    fn at(&self, r: usize, c: usize) -> f64 {
        self.rows[r * self.width + c]
    }

    pub(crate) fn rhs(&self, r: usize) -> f64 {
        self.at(r, self.width - 1)
    }

    /// A zero-row tableau whose reduced costs are the raw objective —
    /// the optimal tableau of an unconstrained non-negative-cost model.
    pub(crate) fn from_costs(costs: &[f64]) -> Tableau {
        let cols = costs.len();
        let mut obj = costs.to_vec();
        obj.push(0.0);
        Tableau {
            m: 0,
            cols,
            width: cols + 1,
            rows: Vec::new(),
            obj,
            basis: Vec::new(),
            blocked: vec![false; cols],
        }
    }

    /// Single-row convenience over [`Tableau::append_rows`].
    #[cfg(test)]
    pub(crate) fn append_row(&mut self, raw: &[(usize, f64)], rhs: f64) {
        self.append_rows(&[(raw.to_vec(), rhs)]);
    }

    /// Appends a batch of equality rows `raw·x + s = rhs` (each with a
    /// fresh slack `s` carrying +1) to an optimal tableau, eliminating the
    /// current basic variables so the tableau stays in basis coordinates.
    /// Every new row's slack joins the basis (duals start at zero, so dual
    /// feasibility is preserved). One re-layout covers the whole batch.
    ///
    /// Each `raw` holds `(structural column, coefficient)` pairs — new rows
    /// never reference each other's slacks, so their eliminations are
    /// independent and only run against the pre-existing basic rows.
    pub(crate) fn append_rows(&mut self, batch: &[(Vec<(usize, f64)>, f64)]) {
        if batch.is_empty() {
            return;
        }
        let k = batch.len();
        let old_width = self.width;
        let old_cols = self.cols;
        let new_cols = old_cols + k;
        let new_width = new_cols + 1;

        // Re-layout existing rows with the widened stride.
        let mut rows = Vec::with_capacity((self.m + k) * new_width);
        for r in 0..self.m {
            let row = &self.rows[r * old_width..(r + 1) * old_width];
            rows.extend_from_slice(&row[..old_cols]);
            rows.extend(std::iter::repeat_n(0.0, k)); // new slack columns
            rows.push(row[old_width - 1]); // rhs
        }
        for (i, (raw, rhs)) in batch.iter().enumerate() {
            let mut new_row = vec![0.0; new_width];
            for &(c, v) in raw {
                debug_assert!(c < old_cols, "raw row references a slack column");
                new_row[c] = v;
            }
            new_row[old_cols + i] = 1.0;
            new_row[new_width - 1] = *rhs;
            // Eliminate the pre-existing basic variables (row reduction
            // against each basic row's unit column).
            for r in 0..self.m {
                let b = self.basis[r];
                let f = new_row[b];
                if f.abs() <= 1e-13 {
                    continue;
                }
                let row = &rows[r * new_width..(r + 1) * new_width];
                for (nv, rv) in new_row.iter_mut().zip(row) {
                    *nv -= f * rv;
                }
                new_row[b] = 0.0;
            }
            rows.extend_from_slice(&new_row);
        }

        // Objective row: unchanged entries, zeros for the new slacks.
        let mut obj = Vec::with_capacity(new_width);
        obj.extend_from_slice(&self.obj[..old_cols]);
        obj.extend(std::iter::repeat_n(0.0, k));
        obj.push(self.obj[old_width - 1]);

        self.rows = rows;
        self.obj = obj;
        self.cols = new_cols;
        self.width = new_width;
        for i in 0..k {
            self.basis.push(old_cols + i);
            self.blocked.push(false);
        }
        self.m += k;
    }

    fn pivot(&mut self, row: usize, col: usize) {
        let w = self.width;
        let pivot = self.at(row, col);
        debug_assert!(pivot.abs() > PIVOT_TOL);
        let inv = 1.0 / pivot;
        for c in 0..w {
            self.rows[row * w + c] *= inv;
        }
        // Exact unity on the pivot to avoid drift.
        self.rows[row * w + col] = 1.0;
        for r in 0..self.m {
            if r == row {
                continue;
            }
            let f = self.at(r, col);
            if f.abs() <= 1e-13 {
                continue;
            }
            for c in 0..w {
                let sub = f * self.rows[row * w + c];
                self.rows[r * w + c] -= sub;
            }
            self.rows[r * w + col] = 0.0;
        }
        let f = self.obj[col];
        if f.abs() > 1e-13 {
            for c in 0..w {
                self.obj[c] -= f * self.rows[row * w + c];
            }
            self.obj[col] = 0.0;
        }
        self.basis[row] = col;
    }

    /// Entering column under the current pricing rule, or `None` at
    /// optimality.
    fn choose_entering(&self, bland: bool) -> Option<usize> {
        if bland {
            (0..self.cols).find(|&j| !self.blocked[j] && self.obj[j] < -COST_TOL)
        } else {
            let mut best: Option<(usize, f64)> = None;
            for j in 0..self.cols {
                if self.blocked[j] {
                    continue;
                }
                let r = self.obj[j];
                if r < -COST_TOL && best.is_none_or(|(_, br)| r < br) {
                    best = Some((j, r));
                }
            }
            best.map(|(j, _)| j)
        }
    }

    /// Leaving row by the minimum-ratio test; `None` means the column is
    /// unblocked (unbounded direction).
    fn choose_leaving(&self, col: usize) -> Option<usize> {
        let mut best: Option<(usize, f64)> = None;
        for r in 0..self.m {
            let a = self.at(r, col);
            if a > PIVOT_TOL {
                let ratio = self.rhs(r) / a;
                let better = match best {
                    None => true,
                    Some((br, bratio)) => {
                        ratio < bratio - 1e-12
                            || ((ratio - bratio).abs() <= 1e-12 && self.basis[r] < self.basis[br])
                    }
                };
                if better {
                    best = Some((r, ratio));
                }
            }
        }
        best.map(|(r, _)| r)
    }
}

/// An optimal tableau and the role of each of its columns.
pub(crate) type OptimalTableau = (Tableau, Vec<ColumnRole>);

enum PhaseOutcome {
    Optimal,
    Unbounded,
}

/// Nanoseconds since `t0`, saturating.
pub(crate) fn elapsed_ns(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Wall clock and hit count of one simplex phase, aggregated locally in
/// the inner loop so the profiling span costs one recorder call per
/// `run_phase` invocation — never one per pivot.
#[derive(Default, Clone, Copy)]
pub(crate) struct PhaseAgg {
    pub hits: u64,
    pub ns: u64,
}

impl PhaseAgg {
    /// Times `f` when `on`, adding one hit and the elapsed nanoseconds.
    pub fn time<T>(&mut self, on: bool, f: impl FnOnce() -> T) -> T {
        if !on {
            return f();
        }
        let t0 = Instant::now();
        let out = f();
        self.hits += 1;
        self.ns = self.ns.saturating_add(elapsed_ns(t0));
        out
    }
}

fn run_phase(
    t: &mut Tableau,
    iters: &mut usize,
    max_iterations: usize,
    rec: &dyn Recorder,
) -> Result<PhaseOutcome, LpError> {
    let start = *iters;
    let mut degenerate = 0u64;
    let mut activations = 0u64;
    // Span phases are aggregated locally and recorded once at the end:
    // the `enabled()` pre-check keeps the untraced hot loop free of even
    // the `Instant::now` pair (satellite: fast path).
    let profiling = rec.enabled();
    let mut pricing = PhaseAgg::default();
    let mut ratio = PhaseAgg::default();
    let mut pivots = PhaseAgg::default();
    let out = (|| {
        let mut bland = false;
        let mut stall = 0usize;
        let mut last_obj = f64::INFINITY;
        loop {
            if *iters >= max_iterations {
                return Err(LpError::IterationLimit {
                    limit: max_iterations,
                });
            }
            let Some(col) = pricing.time(profiling, || t.choose_entering(bland)) else {
                return Ok(PhaseOutcome::Optimal);
            };
            let Some(row) = ratio.time(profiling, || t.choose_leaving(col)) else {
                return Ok(PhaseOutcome::Unbounded);
            };
            pivots.time(profiling, || t.pivot(row, col));
            *iters += 1;
            let obj = t.obj[t.width - 1];
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
        rec.incr("simplex.pivots", (*iters - start) as u64);
        rec.incr("simplex.degenerate_pivots", degenerate);
        rec.incr("simplex.bland_activations", activations);
        if out.is_err() {
            rec.incr("simplex.iteration_limit_hits", 1);
        }
        rec.span_record("pricing", pricing.hits, pricing.ns);
        rec.span_record("ratio_test", ratio.hits, ratio.ns);
        rec.span_record("pivot", pivots.hits, pivots.ns);
    }
    out
}

enum DualOutcome {
    PrimalFeasible,
    /// The dual ratio test found no entering column for `row`: that row
    /// certifies an empty feasible region (it seeds a Farkas ray).
    Infeasible {
        row: usize,
    },
}

/// Outcome of a dual-then-primal re-optimization, carrying the certifying
/// row position on infeasibility so incremental sessions can seed a
/// [`CertSeed::DualRow`] Farkas certificate. Shared by both backends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ReoptOutcome {
    Optimal,
    Unbounded,
    Infeasible { row: usize },
}

/// Dual simplex: starting from a dual-feasible tableau (all reduced costs
/// non-negative) with possibly negative basic values, pivots until the
/// basis is primal feasible (optimal) or a row certifies infeasibility.
fn run_dual_phase(
    t: &mut Tableau,
    iters: &mut usize,
    max_iterations: usize,
    rec: &dyn Recorder,
) -> Result<DualOutcome, LpError> {
    let start = *iters;
    let mut activations = 0u64;
    let t0 = rec.enabled().then(Instant::now);
    let out = run_dual_phase_inner(t, iters, max_iterations, &mut activations);
    if rec.enabled() {
        rec.incr("simplex.dual_pivots", (*iters - start) as u64);
        rec.incr("simplex.bland_activations", activations);
        if out.is_err() {
            rec.incr("simplex.iteration_limit_hits", 1);
        }
        if let Some(t0) = t0 {
            rec.span_record("dual", (*iters - start) as u64, elapsed_ns(t0));
        }
    }
    out
}

fn run_dual_phase_inner(
    t: &mut Tableau,
    iters: &mut usize,
    max_iterations: usize,
    activations: &mut u64,
) -> Result<DualOutcome, LpError> {
    let feas_tol = {
        let max_rhs = (0..t.m).fold(0.0f64, |a, r| a.max(t.rhs(r).abs()));
        1e-7 * (1.0 + max_rhs)
    };
    let mut bland = false;
    let mut stall = 0usize;
    loop {
        if *iters >= max_iterations {
            return Err(LpError::IterationLimit {
                limit: max_iterations,
            });
        }
        // Leaving row: most negative basic value (Bland: smallest index).
        let mut leave: Option<(usize, f64)> = None;
        for r in 0..t.m {
            let v = t.rhs(r);
            if v < -feas_tol {
                let better = match leave {
                    None => true,
                    Some((lr, lv)) => {
                        if bland {
                            t.basis[r] < t.basis[lr]
                        } else {
                            v < lv
                        }
                    }
                };
                if better {
                    leave = Some((r, v));
                }
            }
        }
        let Some((row, _)) = leave else {
            return Ok(DualOutcome::PrimalFeasible);
        };
        // Entering column: dual ratio test over negative row entries.
        let mut enter: Option<(usize, f64)> = None;
        for j in 0..t.cols {
            if t.blocked[j] {
                continue;
            }
            let a = t.at(row, j);
            if a < -PIVOT_TOL {
                let ratio = t.obj[j] / (-a);
                let better = match enter {
                    None => true,
                    Some((ej, er)) => {
                        if bland {
                            ratio < er - 1e-12 || ((ratio - er).abs() <= 1e-12 && j < ej)
                        } else {
                            ratio < er
                        }
                    }
                };
                if better {
                    enter = Some((j, ratio));
                }
            }
        }
        let Some((col, _)) = enter else {
            // Row reads `(non-negative combination) = negative`: empty
            // feasible region.
            return Ok(DualOutcome::Infeasible { row });
        };
        t.pivot(row, col);
        *iters += 1;
        stall += 1;
        if stall > STALL_LIMIT && !bland {
            bland = true;
            *activations += 1;
        }
    }
}

/// Dual simplex to primal feasibility, then a primal clean-up phase; the
/// re-optimization of an incremental session after appended rows.
pub(crate) fn dual_then_primal(
    t: &mut Tableau,
    iters: &mut usize,
    max_iterations: usize,
    rec: &dyn Recorder,
) -> Result<ReoptOutcome, LpError> {
    match run_dual_phase(t, iters, max_iterations, rec)? {
        DualOutcome::Infeasible { row } => return Ok(ReoptOutcome::Infeasible { row }),
        DualOutcome::PrimalFeasible => {}
    }
    match run_phase(t, iters, max_iterations, rec)? {
        PhaseOutcome::Unbounded => Ok(ReoptOutcome::Unbounded),
        PhaseOutcome::Optimal => Ok(ReoptOutcome::Optimal),
    }
}

impl LpSolve for SimplexSolver {
    fn solve(&self, model: &Model) -> Result<Solution, LpError> {
        self.solve_full(model).map(|(s, _, _)| s)
    }
}

impl SimplexSolver {
    /// Like [`LpSolve::solve`], additionally producing the certificate of
    /// the outcome: a dual proof of optimality or a Farkas proof of
    /// infeasibility (`None` for unbounded models, or when the final basis
    /// is numerically singular). Verification lives in the `lubt-audit`
    /// crate.
    ///
    /// # Errors
    ///
    /// Same contract as [`LpSolve::solve`].
    pub fn solve_certified(
        &self,
        model: &Model,
    ) -> Result<(Solution, Option<Certificate>), LpError> {
        let (solution, _, seed) = self.solve_full(model)?;
        let cert = seed.as_ref().and_then(|s| compute(model, s));
        Ok((solution, cert))
    }

    pub(crate) fn max_iterations(&self) -> usize {
        self.max_iterations
    }

    /// Solves `model`, handing back with the solution the final optimal
    /// tableau and the role of each of its columns, for incremental growth
    /// (see [`crate::SimplexSession`]; `None` unless optimal), and the
    /// certificate seed of the outcome.
    pub(crate) fn solve_full(
        &self,
        model: &Model,
    ) -> Result<(Solution, Option<OptimalTableau>, Option<CertSeed>), LpError> {
        model.validate()?;
        let sf = StandardForm::build(model);
        let m = sf.m;

        // Constraint-free models: every variable sits at its lower bound
        // unless a negative cost makes the LP unbounded.
        if m == 0 {
            if model.costs.iter().any(|&c| c < -COST_TOL) {
                return Ok((Solution::unbounded(model.num_vars(), 0), None, None));
            }
            let x = sf.recover(&vec![0.0; sf.n]);
            let obj = model.objective_value(&x);
            let roles = (0..sf.n).map(ColumnRole::Structural).collect();
            return Ok((
                Solution::new(Status::Optimal, x, obj, Some(vec![]), 0),
                Some((Tableau::from_costs(&sf.c), roles)),
                Some(CertSeed::Optimal(Vec::new())),
            ));
        }

        // Decide per row whether its slack can seed the basis (+1 column) or
        // an artificial is required.
        let mut art_of_row: Vec<Option<usize>> = vec![None; m];
        let mut n_art = 0usize;
        for i in 0..m {
            let sc = sf.slack_col[i];
            let usable = sc != usize::MAX && (sf.at(i, sc) - 1.0).abs() < 1e-12;
            if !usable {
                art_of_row[i] = Some(sf.n + n_art);
                n_art += 1;
            }
        }
        let cols = sf.n + n_art;
        let width = cols + 1;

        // Role of every column, for certificate seeds: structurals, then
        // slacks in row order (matching `StandardForm::build`), then
        // artificials in row order.
        let mut col_roles: Vec<ColumnRole> = Vec::with_capacity(cols);
        col_roles.extend((0..sf.n_orig).map(ColumnRole::Structural));
        col_roles.extend(
            (0..m)
                .filter(|&i| sf.slack_col[i] != usize::MAX)
                .map(ColumnRole::Slack),
        );
        col_roles.extend(
            (0..m)
                .filter(|&i| art_of_row[i].is_some())
                .map(ColumnRole::Artificial),
        );
        debug_assert_eq!(col_roles.len(), cols);

        let mut t = Tableau {
            m,
            cols,
            width,
            rows: vec![0.0; m * width],
            obj: vec![0.0; width],
            basis: vec![0; m],
            blocked: vec![false; cols],
        };
        for i in 0..m {
            for j in 0..sf.n {
                t.rows[i * width + j] = sf.at(i, j);
            }
            if let Some(aj) = art_of_row[i] {
                t.rows[i * width + aj] = 1.0;
                t.basis[i] = aj;
            } else {
                t.basis[i] = sf.slack_col[i];
            }
            t.rows[i * width + width - 1] = sf.b[i];
        }

        let mut iters = 0usize;

        // ---- Phase 1: minimize the artificial sum. ----
        if n_art > 0 {
            for j in sf.n..cols {
                t.obj[j] = 1.0;
            }
            // Reduce against the initial (artificial) basis.
            for i in 0..m {
                if art_of_row[i].is_some() {
                    for c in 0..width {
                        t.obj[c] -= t.rows[i * width + c];
                    }
                }
            }
            match run_phase(&mut t, &mut iters, self.max_iterations, &*self.recorder)? {
                PhaseOutcome::Optimal => {}
                PhaseOutcome::Unbounded => {
                    // Phase-1 objective is bounded below by 0; cannot happen.
                    return Err(LpError::NumericalBreakdown("phase-1 unbounded".to_string()));
                }
            }
            let feas_tol = 1e-7 * (1.0 + sf.b.iter().cloned().fold(0.0, f64::max));
            if -t.obj[width - 1] > feas_tol {
                self.note_solve(iters);
                let seed = CertSeed::Phase1(t.basis.iter().map(|&c| col_roles[c]).collect());
                return Ok((
                    Solution::infeasible(model.num_vars(), iters),
                    None,
                    Some(seed),
                ));
            }
            // Drive artificials out of the basis where possible (degenerate
            // pivots); rows where no structural column remains are redundant
            // and keep their zero-valued artificial.
            for r in 0..m {
                if t.basis[r] >= sf.n {
                    if let Some(c) = (0..sf.n).find(|&c| t.at(r, c).abs() > 1e-7) {
                        t.pivot(r, c);
                    }
                }
            }
            for j in sf.n..cols {
                t.blocked[j] = true;
            }
        }

        // ---- Phase 2: true objective. ----
        t.obj.iter_mut().for_each(|v| *v = 0.0);
        t.obj[..sf.n].copy_from_slice(&sf.c);
        for i in 0..m {
            let b = t.basis[i];
            let cb = if b < sf.n { sf.c[b] } else { 0.0 };
            if cb != 0.0 {
                for c in 0..width {
                    t.obj[c] -= cb * t.rows[i * width + c];
                }
            }
        }
        match run_phase(&mut t, &mut iters, self.max_iterations, &*self.recorder)? {
            PhaseOutcome::Unbounded => {
                self.note_solve(iters);
                Ok((Solution::unbounded(model.num_vars(), iters), None, None))
            }
            PhaseOutcome::Optimal => {
                let mut x_std = vec![0.0; sf.n];
                for r in 0..m {
                    if t.basis[r] < sf.n {
                        x_std[t.basis[r]] = t.rhs(r).max(0.0);
                    }
                }
                let x = sf.recover(&x_std);
                let objective = model.objective_value(&x);
                let duals = recover_duals(&sf, &t.basis).map(|y| sf.recover_duals(&y));
                let seed = CertSeed::Optimal(t.basis.iter().map(|&c| col_roles[c]).collect());
                self.note_solve(iters);
                Ok((
                    Solution::new(Status::Optimal, x, objective, duals, iters),
                    Some((t, col_roles)),
                    Some(seed),
                ))
            }
        }
    }
}

/// Solves `B' y = c_B` for the duals, where `B` is the final basis matrix
/// drawn from the *original* standard-form columns (identity columns for
/// residual artificials).
fn recover_duals(sf: &StandardForm, basis: &[usize]) -> Option<Vec<f64>> {
    let m = sf.m;
    let mut bt = SquareMatrix::zeros(m);
    let mut cb = vec![0.0; m];
    for (k, &col) in basis.iter().enumerate() {
        if col < sf.n {
            for r in 0..m {
                *bt.at_mut(k, r) = sf.at(r, col); // B' row k = column of A
            }
            cb[k] = sf.c[col];
        } else {
            // Residual artificial of some row i: identity column e_i, cost 0.
            // Its row index is recoverable by searching; artificials were
            // assigned in row order during construction.
            let art_index = col - sf.n;
            // Count rows with artificials to find which row this one is.
            let mut seen = 0usize;
            let mut row_i = usize::MAX;
            for i in 0..m {
                let sc = sf.slack_col[i];
                let usable = sc != usize::MAX && (sf.at(i, sc) - 1.0).abs() < 1e-12;
                if !usable {
                    if seen == art_index {
                        row_i = i;
                        break;
                    }
                    seen += 1;
                }
            }
            if row_i == usize::MAX {
                return None;
            }
            *bt.at_mut(k, row_i) = 1.0;
            cb[k] = 0.0;
        }
    }
    bt.lu_solve(cb)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Cmp, LinExpr};

    fn expr(terms: &[(crate::Var, f64)]) -> LinExpr {
        LinExpr::from_terms(terms.iter().copied())
    }

    #[test]
    fn simple_2d_optimum() {
        // min -x - 2y s.t. x + y <= 4, y <= 2  => x=2, y=2, obj=-6
        let mut m = Model::new();
        let x = m.add_var(0.0, -1.0);
        let y = m.add_var(0.0, -2.0);
        m.add_constraint(expr(&[(x, 1.0), (y, 1.0)]), Cmp::Le, 4.0);
        m.add_constraint(expr(&[(y, 1.0)]), Cmp::Le, 2.0);
        let s = SimplexSolver::new().solve(&m).unwrap();
        assert!(s.is_optimal());
        assert!((s.objective() + 6.0).abs() < 1e-7);
        assert!((s.value(x) - 2.0).abs() < 1e-7);
        assert!((s.value(y) - 2.0).abs() < 1e-7);
    }

    #[test]
    fn ge_constraints_need_phase1() {
        // min x + y s.t. x + y >= 5, x - y >= 1 => x=3, y=2 obj=5
        let mut m = Model::new();
        let x = m.add_var(0.0, 1.0);
        let y = m.add_var(0.0, 1.0);
        m.add_constraint(expr(&[(x, 1.0), (y, 1.0)]), Cmp::Ge, 5.0);
        m.add_constraint(expr(&[(x, 1.0), (y, -1.0)]), Cmp::Ge, 1.0);
        let s = SimplexSolver::new().solve(&m).unwrap();
        assert!(s.is_optimal());
        assert!((s.objective() - 5.0).abs() < 1e-7);
        // Optimum is the whole edge x+y=5 with x>=3; check feasibility and
        // objective rather than a unique point.
        assert!(m.check_feasible(s.values(), 1e-7).is_ok());
    }

    #[test]
    fn equality_constraints() {
        // min 2x + 3y s.t. x + y == 4, x - y == 0 => x=y=2, obj=10
        let mut m = Model::new();
        let x = m.add_var(0.0, 2.0);
        let y = m.add_var(0.0, 3.0);
        m.add_constraint(expr(&[(x, 1.0), (y, 1.0)]), Cmp::Eq, 4.0);
        m.add_constraint(expr(&[(x, 1.0), (y, -1.0)]), Cmp::Eq, 0.0);
        let s = SimplexSolver::new().solve(&m).unwrap();
        assert!(s.is_optimal());
        assert!((s.objective() - 10.0).abs() < 1e-7);
        assert!((s.value(x) - 2.0).abs() < 1e-7);
    }

    #[test]
    fn detects_infeasible() {
        let mut m = Model::new();
        let x = m.add_var(0.0, 1.0);
        m.add_constraint(expr(&[(x, 1.0)]), Cmp::Ge, 5.0);
        m.add_constraint(expr(&[(x, 1.0)]), Cmp::Le, 3.0);
        let s = SimplexSolver::new().solve(&m).unwrap();
        assert_eq!(s.status(), Status::Infeasible);
    }

    #[test]
    fn detects_unbounded() {
        let mut m = Model::new();
        let x = m.add_var(0.0, -1.0);
        let y = m.add_var(0.0, 0.0);
        m.add_constraint(expr(&[(x, 1.0), (y, -1.0)]), Cmp::Le, 1.0);
        let s = SimplexSolver::new().solve(&m).unwrap();
        assert_eq!(s.status(), Status::Unbounded);
    }

    #[test]
    fn no_constraints_sits_at_lower_bounds() {
        let mut m = Model::new();
        let x = m.add_var(2.0, 1.0);
        let y = m.add_var(-1.0, 3.0);
        let s = SimplexSolver::new().solve(&m).unwrap();
        assert!(s.is_optimal());
        assert_eq!(s.value(x), 2.0);
        assert_eq!(s.value(y), -1.0);
        assert!((s.objective() - (2.0 - 3.0)).abs() < 1e-12);
    }

    #[test]
    fn no_constraints_unbounded_with_negative_cost() {
        let mut m = Model::new();
        let _x = m.add_var(0.0, -1.0);
        let s = SimplexSolver::new().solve(&m).unwrap();
        assert_eq!(s.status(), Status::Unbounded);
    }

    #[test]
    fn shifted_lower_bounds() {
        // min x s.t. x >= -3 with lb(x) = -5 => x = -3.
        let mut m = Model::new();
        let x = m.add_var(-5.0, 1.0);
        m.add_constraint(expr(&[(x, 1.0)]), Cmp::Ge, -3.0);
        let s = SimplexSolver::new().solve(&m).unwrap();
        assert!((s.value(x) + 3.0).abs() < 1e-7);
    }

    #[test]
    fn duals_satisfy_strong_duality() {
        // min x + 2y s.t. x + y >= 3 (dual y1), x <= 2 (dual y2)
        // Optimum x=2, y=1, obj=4. Duals: y1=2 (from y column), x column:
        // y1 + y2 = 1 -> y2 = -1.
        let mut m = Model::new();
        let x = m.add_var(0.0, 1.0);
        let y = m.add_var(0.0, 2.0);
        m.add_constraint(expr(&[(x, 1.0), (y, 1.0)]), Cmp::Ge, 3.0);
        m.add_constraint(expr(&[(x, 1.0)]), Cmp::Le, 2.0);
        let s = SimplexSolver::new().solve(&m).unwrap();
        assert!((s.objective() - 4.0).abs() < 1e-7);
        let duals = s.duals().expect("simplex provides duals");
        // Strong duality: b'y == optimal objective.
        let dual_obj = 3.0 * duals[0] + 2.0 * duals[1];
        assert!((dual_obj - s.objective()).abs() < 1e-6, "duals {duals:?}");
    }

    #[test]
    fn degenerate_problem_terminates() {
        // Highly degenerate: many redundant constraints through the origin.
        let mut m = Model::new();
        let x = m.add_var(0.0, 1.0);
        let y = m.add_var(0.0, 1.0);
        for k in 1..20 {
            m.add_constraint(expr(&[(x, 1.0), (y, k as f64)]), Cmp::Ge, 0.0);
        }
        m.add_constraint(expr(&[(x, 1.0), (y, 1.0)]), Cmp::Ge, 1.0);
        let s = SimplexSolver::new().solve(&m).unwrap();
        assert!(s.is_optimal());
        assert!((s.objective() - 1.0).abs() < 1e-7);
    }

    #[test]
    fn redundant_equalities_are_handled() {
        // Duplicate equality rows leave a residual artificial in the basis.
        let mut m = Model::new();
        let x = m.add_var(0.0, 1.0);
        let y = m.add_var(0.0, 1.0);
        m.add_constraint(expr(&[(x, 1.0), (y, 1.0)]), Cmp::Eq, 2.0);
        m.add_constraint(expr(&[(x, 1.0), (y, 1.0)]), Cmp::Eq, 2.0);
        let s = SimplexSolver::new().solve(&m).unwrap();
        assert!(s.is_optimal());
        assert!((s.objective() - 2.0).abs() < 1e-7);
    }

    #[test]
    fn tableau_from_costs_is_dual_feasible() {
        let t = Tableau::from_costs(&[1.0, 2.5, 0.0]);
        assert_eq!(t.m, 0);
        assert_eq!(t.cols, 3);
        assert!(t.obj[..3].iter().all(|&c| c >= 0.0));
        assert_eq!(t.obj[t.width - 1], 0.0);
    }

    #[test]
    fn append_then_dual_phase_reaches_the_constrained_optimum() {
        // min x + 2y starting unconstrained (optimum 0), then append
        // -x - y + s = -3  (i.e. x + y >= 3): dual simplex must land on
        // x = 3, y = 0.
        let mut t = Tableau::from_costs(&[1.0, 2.0]);
        t.append_row(&[(0, -1.0), (1, -1.0)], -3.0);
        assert_eq!(t.m, 1);
        assert!(t.rhs(0) < 0.0, "appended row starts primal infeasible");
        let mut iters = 0;
        let status = dual_then_primal(&mut t, &mut iters, 1000, &lubt_obs::NoopRecorder).unwrap();
        assert_eq!(status, ReoptOutcome::Optimal);
        // Basis holds x (column 0) at value 3.
        assert_eq!(t.basis, vec![0]);
        assert!((t.rhs(0) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn batched_append_matches_sequential() {
        let mk = || Tableau::from_costs(&[1.0, 1.0, 1.0]);
        let rows: Vec<(Vec<(usize, f64)>, f64)> = vec![
            (vec![(0, -1.0), (1, -1.0)], -4.0),
            (vec![(1, -1.0), (2, -1.0)], -5.0),
        ];
        let mut batched = mk();
        batched.append_rows(&rows);
        let mut seq = mk();
        for (raw, rhs) in &rows {
            seq.append_row(raw, *rhs);
        }
        let mut it_b = 0;
        let mut it_s = 0;
        let st_b =
            dual_then_primal(&mut batched, &mut it_b, 1000, &lubt_obs::NoopRecorder).unwrap();
        let st_s = dual_then_primal(&mut seq, &mut it_s, 1000, &lubt_obs::NoopRecorder).unwrap();
        assert_eq!(st_b, ReoptOutcome::Optimal);
        assert_eq!(st_s, ReoptOutcome::Optimal);
        // Same optimal objective (the obj row's rhs is -objective).
        assert!(
            (batched.obj[batched.width - 1] - seq.obj[seq.width - 1]).abs() < 1e-9,
            "batched {} vs sequential {}",
            batched.obj[batched.width - 1],
            seq.obj[seq.width - 1]
        );
    }

    #[test]
    fn recorder_sees_pivots_solves_and_limit_fraction() {
        let rec = Arc::new(lubt_obs::TraceRecorder::new());
        let mut m = Model::new();
        let x = m.add_var(0.0, 1.0);
        let y = m.add_var(0.0, 1.0);
        m.add_constraint(expr(&[(x, 1.0), (y, 1.0)]), Cmp::Ge, 5.0);
        m.add_constraint(expr(&[(x, 1.0), (y, -1.0)]), Cmp::Ge, 1.0);
        let solver = SimplexSolver::new().with_recorder(rec.clone());
        let s = solver.solve(&m).unwrap();
        assert!(s.is_optimal());
        let t = rec.snapshot();
        assert_eq!(t.counter("simplex.solves"), 1);
        assert!(t.counter("simplex.pivots") >= 1, "{t:?}");
        assert_eq!(t.maximum("simplex.peak_pivots"), s.iterations() as u64);
        let frac = t.gauge("simplex.limit_fraction").unwrap();
        assert!(frac > 0.0 && frac < 1.0, "fraction {frac}");
    }

    #[test]
    fn iteration_limit_exhaustion_is_counted() {
        let rec = Arc::new(lubt_obs::TraceRecorder::new());
        let mut m = Model::new();
        let x = m.add_var(0.0, 1.0);
        let y = m.add_var(0.0, 1.0);
        m.add_constraint(expr(&[(x, 1.0), (y, 1.0)]), Cmp::Ge, 5.0);
        m.add_constraint(expr(&[(x, 1.0), (y, -1.0)]), Cmp::Ge, 1.0);
        let solver = SimplexSolver::new()
            .with_max_iterations(1)
            .with_recorder(rec.clone());
        let err = solver.solve(&m).unwrap_err();
        assert!(matches!(err, LpError::IterationLimit { limit: 1 }));
        let t = rec.snapshot();
        assert!(t.counter("simplex.iteration_limit_hits") >= 1, "{t:?}");
    }

    #[test]
    fn dual_phase_detects_empty_region() {
        // x >= 2 and x <= 1 via appended rows on a cost-1 variable.
        let mut t = Tableau::from_costs(&[1.0]);
        t.append_rows(&[
            (vec![(0, -1.0)], -2.0), // x >= 2
            (vec![(0, 1.0)], 1.0),   // x <= 1
        ]);
        let mut iters = 0;
        let status = dual_then_primal(&mut t, &mut iters, 1000, &lubt_obs::NoopRecorder).unwrap();
        assert!(matches!(status, ReoptOutcome::Infeasible { .. }));
    }

    #[test]
    fn certified_solves_carry_matching_certificates() {
        // Optimal: certificate duals must agree with the solution's duals.
        let mut m = Model::new();
        let x = m.add_var(0.0, 1.0);
        let y = m.add_var(0.0, 2.0);
        m.add_constraint(expr(&[(x, 1.0), (y, 1.0)]), Cmp::Ge, 3.0);
        m.add_constraint(expr(&[(x, 1.0)]), Cmp::Le, 2.0);
        let (s, cert) = SimplexSolver::new().solve_certified(&m).unwrap();
        assert!(s.is_optimal());
        let Some(Certificate::Optimality(opt)) = cert else {
            panic!("optimal solve must certify");
        };
        let duals = s.duals().unwrap();
        assert_eq!(opt.duals.len(), duals.len());
        for (a, b) in opt.duals.iter().zip(duals) {
            assert!((a - b).abs() < 1e-9, "{:?} vs {duals:?}", opt.duals);
        }
        // b'y equals the objective (strong duality).
        let dual_obj = 3.0 * opt.duals[0] + 2.0 * opt.duals[1];
        assert!((dual_obj - s.objective()).abs() < 1e-6);

        // Infeasible: the Farkas ray must prove the contradiction.
        let mut m = Model::new();
        let x = m.add_var(0.0, 1.0);
        m.add_constraint(expr(&[(x, 1.0)]), Cmp::Ge, 5.0);
        m.add_constraint(expr(&[(x, 1.0)]), Cmp::Le, 3.0);
        let (s, cert) = SimplexSolver::new().solve_certified(&m).unwrap();
        assert_eq!(s.status(), Status::Infeasible);
        let Some(Certificate::Farkas(f)) = cert else {
            panic!("infeasible solve must certify");
        };
        assert_eq!(f.ray.len(), 2);
        assert!(f.ray[0] >= -1e-9, "Ge multiplier sign: {:?}", f.ray);
        assert!(f.ray[1] <= 1e-9, "Le multiplier sign: {:?}", f.ray);
        // Column condition and positive gap.
        let d = f.ray[0] + f.ray[1];
        assert!(d.abs() < 1e-9, "column sum {d}");
        let gap = 5.0 * f.ray[0] + 3.0 * f.ray[1];
        assert!(gap > 1e-9, "gap {gap}");
    }
}
