//! EBF assembly and solving (§4): objective, delay rows, Steiner rows, and
//! the lazy-separation loop that implements the §4.6 constraint reduction.

use crate::steiner::{all_pair_constraints, seed_pairs, Separation, SinkPair};
use crate::{LubtError, LubtProblem};
use lubt_lp::{Cmp, LinExpr, LpSolve, Model, RevisedSolver, SimplexSolver, Status, Var};
use lubt_obs::{Recorder, SolveTrace, SpanGuard, TraceRecorder};
use lubt_topology::NodeId;
use std::sync::Arc;

/// LP backend selection. The paper used LOQO (interior point); here two
/// simplex codes solve the LP and an exact LP-free oracle checks them.
///
/// [`SolverBackend::default`] is [`SolverBackend::Revised`], and every
/// entry point that picks a backend for its caller reads it: the library
/// builders, [`crate::BatchSolver`], the CLI and the serve protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SolverBackend {
    /// Two-phase dense-tableau primal simplex (exact infeasibility
    /// certificates). O(m·n) per pivot; selected by name only.
    Simplex,
    /// Sparse revised simplex (default): same pivot rules and certificates
    /// as [`SolverBackend::Simplex`] but the Steiner rows stay sparse and
    /// only the basis factorization is kept.
    #[default]
    Revised,
    /// LP-free exact oracle ([`lubt_dp`]): interval dynamic programming
    /// over per-node feasible delay windows, then a fraction-free rational
    /// dual simplex on the reduced system. Shares no code with `lubt-lp`
    /// — assembly, arithmetic and pivot rules are all independent — so a
    /// disagreement with any float backend is always a real bug. Exact but
    /// eager (`C(m, 2)` pair rows, BigInt pivots): the cross-check and
    /// small-instance backend, not the large-instance fast path.
    Dp,
}

/// Steiner-constraint strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SteinerMode {
    /// Materialize all `C(m, 2)` rows up front. Exact but quadratic; only
    /// sensible for small instances (kept for the `ablation_lazy` bench).
    Eager,
    /// Start from a nearest-neighbor seed and add violated rows found by
    /// the separation oracle, re-solving until none remain (§4.6).
    Lazy {
        /// Maximum separation rounds before giving up (safety net; the
        /// loop converges because each round adds at least one violated
        /// cut).
        max_rounds: usize,
        /// Maximum number of violated rows added per round.
        batch: usize,
    },
}

impl SteinerMode {
    /// The default lazy configuration (64 rounds, 256 cuts per round).
    pub fn default_lazy() -> Self {
        SteinerMode::Lazy {
            max_rounds: 64,
            batch: 256,
        }
    }
}

/// Statistics from an EBF solve.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EbfReport {
    /// Total LP pivots across all re-solves (the exact dual-simplex pivots
    /// on the dp backend).
    pub lp_iterations: usize,
    /// Number of separation rounds (1 when eager).
    pub separation_rounds: usize,
    /// Steiner rows present in the final LP.
    pub steiner_rows: usize,
    /// Total available sink-pair rows `C(m, 2)`, for reduction ratios.
    pub total_pairs: usize,
    /// `true` when lazy separation hit `max_rounds` without converging and
    /// fell back to materializing every pair constraint. The answer is
    /// still optimal (the full row set is exact), but the configured lazy
    /// budget was too small — previously this happened silently. The
    /// fallback runs once: the solve returns the lengths of the re-solve
    /// that follows it, even if LP rounding leaves a pair violated by more
    /// than the oracle's tolerance.
    pub truncated: bool,
}

impl EbfReport {
    /// A warn-level note in the `lubt-lint` diagnostic schema when the
    /// lazy budget was exhausted ([`EbfReport::truncated`]); `None` for a
    /// converged solve. The CLI prints this after `lubt solve` / `lubt
    /// batch` so a silent fallback becomes a visible finding.
    pub fn truncation_diagnostic(&self) -> Option<lubt_lint::Diagnostic> {
        if !self.truncated {
            return None;
        }
        Some(lubt_lint::Diagnostic {
            pass: "lazy-truncation",
            level: lubt_lint::Level::Warn,
            message: format!(
                "lazy Steiner separation did not converge within {} round(s); \
                 all {} pair constraints were materialized as a fallback",
                self.separation_rounds.saturating_sub(1),
                self.total_pairs
            ),
            targets: Vec::new(),
            help: Some(
                "raise SteinerMode::Lazy { max_rounds, batch } or use SteinerMode::Eager"
                    .to_string(),
            ),
        })
    }
}

/// The Edge-Based Formulation solver: builds the LP of §4.3 and solves it,
/// optionally with lazy Steiner-constraint separation.
///
/// Returns the optimal **edge lengths** (indexed by node, entry 0 unused);
/// embedding is a separate step ([`crate::embed_tree`]).
///
/// # Example
///
/// ```
/// use lubt_core::{DelayBounds, EbfSolver, LubtBuilder};
/// use lubt_geom::Point;
/// let problem = LubtBuilder::new(vec![Point::new(0.0, 0.0), Point::new(6.0, 0.0)])
///     .bounds(DelayBounds::uniform(2, 3.0, 5.0))
///     .build()?;
/// let (lengths, report) = EbfSolver::new().solve(&problem)?;
/// assert!(report.separation_rounds >= 1);
/// assert!(lengths.iter().sum::<f64>() >= 6.0 - 1e-6);
/// # Ok::<(), lubt_core::LubtError>(())
/// ```
#[derive(Debug, Clone)]
pub struct EbfSolver {
    backend: SolverBackend,
    steiner_mode: SteinerMode,
    violation_tol: f64,
    prelint: bool,
    audit: bool,
    threads: usize,
    max_lp_iterations: Option<usize>,
    recorder: Arc<dyn Recorder>,
}

impl Default for EbfSolver {
    fn default() -> Self {
        EbfSolver {
            backend: SolverBackend::default(),
            steiner_mode: SteinerMode::default_lazy(),
            violation_tol: 1e-6,
            prelint: true,
            audit: false,
            threads: 1,
            max_lp_iterations: None,
            recorder: lubt_obs::noop(),
        }
    }
}

/// Assembles the base EBF model: one variable per edge (cost = weight),
/// zero-edge equality rows, and the per-sink delay window rows of §4.2.
/// No Steiner rows. Returns the model plus the edge-variable table
/// (variable `j - 1` is the edge of node `j`).
fn base_model(problem: &LubtProblem) -> (Model, Vec<Var>) {
    let topo = problem.topology();
    let n_nodes = topo.num_nodes();
    let m = topo.num_sinks();

    let mut model = Model::new();
    let edge_vars: Vec<Var> = (1..n_nodes)
        .map(|j| model.add_var(0.0, problem.weights()[j]))
        .collect();
    let var_of = |node: NodeId| edge_vars[node.index() - 1];

    // Zero-fixed edges (degree-4 splitting).
    for &z in problem.zero_edges() {
        model.add_constraint(LinExpr::from_terms([(var_of(z), 1.0)]), Cmp::Eq, 0.0);
    }

    // Delay constraints (§4.2): l_i <= sum(path) <= u_i, plus the
    // source-sink Steiner constraint when the source location is given
    // (the root then acts as a fixed point: sum(path) >= dist(s0, s_i)).
    for i in 1..=m {
        let sink = NodeId(i);
        let path = topo.path_to_ancestor(sink, topo.root());
        let expr = || LinExpr::from_terms(path.iter().map(|&e| (var_of(e), 1.0)));
        let l = problem.bounds().lower(i - 1);
        let u = problem.bounds().upper(i - 1);
        let mut effective_lower = l;
        if let Some(src) = problem.source() {
            effective_lower = effective_lower.max(src.dist(problem.sink_location(sink)));
        }
        if effective_lower > 0.0 {
            model.add_constraint(expr(), Cmp::Ge, effective_lower);
        }
        if u.is_finite() {
            model.add_constraint(expr(), Cmp::Le, u);
        }
    }

    (model, edge_vars)
}

/// The LP a lazy EBF solve starts from: the base model plus the
/// nearest-neighbor seed Steiner rows.
///
/// This is what [`crate::LubtProblem::lint`] hands to the
/// `model-conditioning` pass, so the linter sees the same rows the solver
/// would — without running a single pivot.
pub fn ebf_model(problem: &LubtProblem) -> Model {
    let (mut model, edge_vars) = base_model(problem);
    let topo = problem.topology();
    let var_of = |node: NodeId| edge_vars[node.index() - 1];
    for pair in seed_pairs(problem) {
        let path = topo.path_between(pair.a, pair.b);
        let expr = LinExpr::from_terms(path.iter().map(|&e| (var_of(e), 1.0)));
        model.add_constraint(expr, Cmp::Ge, pair.dist);
    }
    model
}

impl EbfSolver {
    /// Creates a solver with the default configuration (revised, lazy).
    pub fn new() -> Self {
        Self::default()
    }

    /// Selects the LP backend.
    #[must_use]
    pub fn with_backend(mut self, backend: SolverBackend) -> Self {
        self.backend = backend;
        self
    }

    /// Selects the Steiner strategy.
    #[must_use]
    pub fn with_steiner_mode(mut self, mode: SteinerMode) -> Self {
        self.steiner_mode = mode;
        self
    }

    /// Sets the absolute violation tolerance of the separation oracle. It
    /// must be finite and non-negative (`0.0` is valid); otherwise every
    /// solve fails with [`LubtError::Input`] before any backend runs.
    #[must_use]
    pub fn with_violation_tolerance(mut self, tol: f64) -> Self {
        self.violation_tol = tol;
        self
    }

    /// Sets the worker count of the separation oracle (`0` = all
    /// available cores, default `1` = the exact sequential path): each
    /// round's scan of the sink-pair triangle runs as one assisted claim
    /// loop. Every LP (re-)solve runs serially on the calling thread
    /// whatever this value is.
    ///
    /// Thanks to the canonical cut-merge order of
    /// [`crate::steiner::violated_pairs_with_threads`] (DESIGN.md §9), the
    /// solve is bit-for-bit identical for every value — this knob only
    /// changes wall-clock.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// The configured separation-oracle worker count (`0` = all cores).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Caps the pivot count of every LP (re-)solve. `None` (the default)
    /// keeps each backend's own default limit. When a solve exhausts the
    /// cap, [`EbfSolver::solve`] fails with
    /// [`LubtError::Lp`]([`lubt_lp::LpError::IterationLimit`]) —
    /// [`LubtError::diagnostic`] renders that as a lint-style finding.
    #[must_use]
    pub fn with_max_lp_iterations(mut self, limit: usize) -> Self {
        self.max_lp_iterations = Some(limit);
        self
    }

    /// Sends solve-path instrumentation (`ebf.*` separation counters,
    /// `lp.*` (revised) or `simplex.*` (dense) pivot counters, `par.*`
    /// oracle scheduling counters, and the `solve` span tree whose `lp`,
    /// `separate`, `audit` and `dp` spans give the `time.*` phase totals)
    /// to `recorder`. The default is a no-op sink;
    /// [`EbfSolver::solve_traced`] wires a [`TraceRecorder`] for you.
    ///
    /// Recording never changes the solve: the recorder observes the pivot
    /// and cut sequence, it does not influence it.
    #[must_use]
    pub fn with_recorder(mut self, recorder: Arc<dyn Recorder>) -> Self {
        self.recorder = recorder;
        self
    }

    /// The simplex backend configured with this solver's recorder and
    /// iteration cap.
    fn simplex(&self) -> SimplexSolver {
        let mut s = SimplexSolver::new().with_recorder(Arc::clone(&self.recorder));
        if let Some(limit) = self.max_lp_iterations {
            s = s.with_max_iterations(limit);
        }
        s
    }

    /// The revised-simplex backend configured with this solver's recorder
    /// and iteration cap.
    fn revised(&self) -> RevisedSolver {
        let mut s = RevisedSolver::new().with_recorder(Arc::clone(&self.recorder));
        if let Some(limit) = self.max_lp_iterations {
            s = s.with_max_iterations(limit);
        }
        s
    }

    /// Like [`EbfSolver::solve`], but every phase of the solve is recorded
    /// into a fresh [`TraceRecorder`] and the resulting [`SolveTrace`] is
    /// returned **alongside** the result — including on failure, so an
    /// iteration-limit or infeasibility exit still yields the counters
    /// accumulated up to that point.
    ///
    /// The trace is deliberately *not* part of [`EbfReport`]: reports are
    /// compared bit-for-bit in the thread-count determinism tests, while a
    /// trace carries wall-clock timings and scheduling counters that
    /// legitimately differ between runs (see `DESIGN.md` §10).
    pub fn solve_traced(
        &self,
        problem: &LubtProblem,
    ) -> (Result<(Vec<f64>, EbfReport), LubtError>, SolveTrace) {
        let rec = Arc::new(TraceRecorder::new());
        let traced = self
            .clone()
            .with_recorder(Arc::clone(&rec) as Arc<dyn Recorder>);
        let result = traced.solve(problem);
        (result, rec.snapshot())
    }

    /// Enables or disables the pre-solve lint hook (on by default). When
    /// enabled, instance-level lint passes run before the LP is built and a
    /// deny-level finding short-circuits into [`LubtError::Rejected`]
    /// carrying the diagnostics; disabled, a hopeless instance falls
    /// through to the LP's bare [`LubtError::Infeasible`] certificate.
    #[must_use]
    pub fn with_prelint(mut self, enabled: bool) -> Self {
        self.prelint = enabled;
        self
    }

    /// Enables the post-solve exact certificate audit (off by default).
    ///
    /// When enabled, every LP outcome is checked against the backend's own
    /// proof object — an optimality certificate (basis + duals, verified
    /// for primal feasibility, dual feasibility and complementary
    /// slackness) or a Farkas infeasibility ray — in exact dyadic-rational
    /// arithmetic via [`lubt_audit`]. The audit observes the solve, it
    /// never changes it: audited and unaudited runs produce bit-identical
    /// lengths and reports. A certificate that fails to verify aborts the
    /// solve with [`LubtError::Audit`] carrying deny-level `audit-*`
    /// diagnostics.
    ///
    /// The dp backend has no float certificate, so only the primal side
    /// (row residuals, variable bounds, objective) of its rounded optimum
    /// is checked, against the eager LP. Verification outcomes land on the
    /// recorder under `audit.*` counters, timed by the `audit` span
    /// (`time.audit`).
    #[must_use]
    pub fn with_audit(mut self, enabled: bool) -> Self {
        self.audit = enabled;
        self
    }

    /// Whether the post-solve exact certificate audit is enabled.
    pub fn audit_enabled(&self) -> bool {
        self.audit
    }

    /// Solves the EBF for `problem`.
    ///
    /// # Errors
    ///
    /// * [`LubtError::Input`] — the violation tolerance is NaN, infinite
    ///   or negative (see [`EbfSolver::with_violation_tolerance`]).
    /// * [`LubtError::Rejected`] — the pre-solve lint hook proved the
    ///   instance infeasible (e.g. `u_i` below the source-to-sink
    ///   distance) before any LP was built; the diagnostics name the
    ///   offending sinks. See [`EbfSolver::with_prelint`].
    /// * [`LubtError::Infeasible`] — the LP has no feasible point, which by
    ///   Theorem 4.2 certifies that no LUBT exists for this topology and
    ///   bounds (the paper's "we immediately know the existence of a
    ///   solution" remark).
    /// * [`LubtError::Lp`] — backend failure (iteration limit, numerics).
    /// * [`LubtError::Audit`] — the post-solve certificate audit rejected
    ///   the outcome (only with [`EbfSolver::with_audit`]).
    pub fn solve(&self, problem: &LubtProblem) -> Result<(Vec<f64>, EbfReport), LubtError> {
        self.solve_retaining(problem)
            .map(|(lengths, report, _)| (lengths, report))
    }

    /// [`EbfSolver::solve`], additionally handing back the converged
    /// incremental session as a [`WarmEbfSession`]. Every lazy solve on the
    /// [`SolverBackend::Simplex`] or [`SolverBackend::Revised`] backend goes
    /// through one; the session is `None` for [`SteinerMode::Eager`] and
    /// for the [`SolverBackend::Dp`] backend.
    ///
    /// A warm session is what the serve layer keeps across requests: its
    /// [`WarmEbfSession::resolve_lengths`] replays the converged basis
    /// with zero pivots and returns bit-identical edge lengths, skipping
    /// model assembly and every separation round.
    ///
    /// # Errors
    ///
    /// Exactly [`EbfSolver::solve`]'s errors.
    pub fn solve_retaining(
        &self,
        problem: &LubtProblem,
    ) -> Result<(Vec<f64>, EbfReport, Option<WarmEbfSession>), LubtError> {
        // The oracle reports `violation > tol`: a NaN or infinite tolerance
        // would never report a pair, a negative one every pair forever.
        if !(self.violation_tol.is_finite() && self.violation_tol >= 0.0) {
            return Err(LubtError::Input(format!(
                "violation tolerance must be finite and non-negative, got {}",
                self.violation_tol
            )));
        }
        // Root profiling span for the whole solve. The span-tree *shape*
        // (paths, hit counts, child order) is deterministic material —
        // every child below is entered on this thread in a
        // schedule-independent order (DESIGN.md §16).
        let rec: &dyn Recorder = &*self.recorder;
        let _solve_span = SpanGuard::enter(rec, "solve");
        if self.prelint {
            let _lint_span = SpanGuard::enter(rec, "lint");
            let diags = problem.prelint_diagnostics();
            if lubt_lint::has_deny(&diags) {
                return Err(LubtError::Rejected(diags));
            }
        }

        if self.backend == SolverBackend::Dp {
            return self.solve_dp(problem).map(|(l, r)| (l, r, None));
        }

        let topo = problem.topology();
        let n_nodes = topo.num_nodes();
        let m = topo.num_sinks();

        let (mut model, edge_vars) = base_model(problem);
        let var_of = |node: NodeId| edge_vars[node.index() - 1];

        let steiner_expr = |pair: &SinkPair| {
            let path = topo.path_between(pair.a, pair.b);
            LinExpr::from_terms(path.iter().map(|&e| (var_of(e), 1.0)))
        };

        let total_pairs = m * (m - 1) / 2;
        let mut steiner_rows = 0usize;
        // Zero-padded so the name-sorted child order of the span tree is
        // also the numeric round order.
        let round_name = |round: usize| {
            if rec.enabled() {
                format!("round.{round:04}")
            } else {
                String::new()
            }
        };

        // Post-solve audit hook: check the backend's proof object in exact
        // arithmetic before trusting the outcome. Pure observation — the
        // solution bits are untouched; a failed audit aborts with
        // `LubtError::Audit`.
        let audit_check = |model: &Model,
                           sol: &lubt_lp::Solution,
                           cert: Option<&lubt_lp::Certificate>|
         -> Result<(), LubtError> {
            let _span = SpanGuard::enter(rec, "audit");
            let verified_key = match sol.status() {
                Status::Optimal => Some("audit.optimality_verified"),
                Status::Infeasible => Some("audit.farkas_verified"),
                Status::Unbounded => None,
            };
            let findings = lubt_audit::audit_solution(model, sol, cert);
            if findings.is_empty() {
                if rec.enabled() {
                    if let Some(key) = verified_key {
                        rec.incr(key, 1);
                    }
                }
                Ok(())
            } else {
                if rec.enabled() {
                    rec.incr("audit.failures", findings.len() as u64);
                }
                Err(LubtError::Audit(findings))
            }
        };

        let solve_once = |model: &Model| -> Result<lubt_lp::Solution, LubtError> {
            let (sol, cert) = {
                let _span = SpanGuard::enter(rec, "lp");
                match self.backend {
                    SolverBackend::Simplex => {
                        if self.audit {
                            self.simplex().solve_certified(model)?
                        } else {
                            (self.simplex().solve(model)?, None)
                        }
                    }
                    SolverBackend::Revised => {
                        if self.audit {
                            self.revised().solve_certified(model)?
                        } else {
                            (self.revised().solve(model)?, None)
                        }
                    }
                    SolverBackend::Dp => unreachable!("dp dispatches before the separation loop"),
                }
            };
            if self.audit {
                audit_check(model, &sol, cert.as_ref())?;
            }
            match sol.status() {
                Status::Optimal => Ok(sol),
                Status::Infeasible => Err(LubtError::Infeasible),
                Status::Unbounded => Err(LubtError::Lp(lubt_lp::LpError::NumericalBreakdown(
                    "EBF objective cannot be unbounded (non-negative costs)".to_string(),
                ))),
            }
        };

        // One separation round's worth of oracle bookkeeping: round count,
        // residual violation mass (sum of all current violations — how far
        // from Steiner-feasible the incumbent lengths are), and a bounded
        // per-round event line.
        let note_round = |rounds: usize, sep: &Separation| {
            if !rec.enabled() {
                return;
            }
            rec.incr("ebf.rounds", 1);
            rec.record_max("ebf.peak_violations", sep.violated as u64);
            rec.gauge("ebf.residual_violation_mass", sep.mass);
            rec.event(
                "ebf.round",
                &format!(
                    "round {rounds}: {} violated pair(s), residual mass {:.6}",
                    sep.violated, sep.mass
                ),
            );
        };

        let extract = |sol: &lubt_lp::Solution| -> Vec<f64> {
            let mut lengths = vec![0.0; n_nodes];
            for (j, v) in edge_vars.iter().enumerate() {
                lengths[j + 1] = sol.value(*v).max(0.0);
            }
            lengths
        };

        match self.steiner_mode {
            SteinerMode::Eager => {
                for pair in all_pair_constraints(problem) {
                    model.add_constraint(steiner_expr(&pair), Cmp::Ge, pair.dist);
                    steiner_rows += 1;
                }
                if rec.enabled() {
                    rec.incr("ebf.rounds", 1);
                    rec.incr("ebf.eager_rows", steiner_rows as u64);
                }
                let sol = solve_once(&model)?;
                Ok((
                    extract(&sol),
                    EbfReport {
                        lp_iterations: sol.iterations(),
                        separation_rounds: 1,
                        steiner_rows,
                        total_pairs,
                        truncated: false,
                    },
                    None,
                ))
            }
            SteinerMode::Lazy { max_rounds, batch } => {
                for pair in seed_pairs(problem) {
                    model.add_constraint(steiner_expr(&pair), Cmp::Ge, pair.dist);
                    steiner_rows += 1;
                }
                if rec.enabled() {
                    rec.incr("ebf.seed_rows", steiner_rows as u64);
                }
                // The growing model lives in an incremental session: each
                // separation round only appends rows, which the dual simplex
                // repairs from the previous optimum instead of re-solving
                // cold.
                let mut session = {
                    // The cold solve of the seed model: its kernel phases
                    // nest under `solve/lp`, while warm-started per-round
                    // resolves land under each round's span.
                    let _span = SpanGuard::enter(rec, "lp");
                    match self.backend {
                        SolverBackend::Simplex => GrowingSession::Dense(Box::new(
                            lubt_lp::SimplexSession::start_with(model, self.simplex())?,
                        )),
                        _ => GrowingSession::Revised(Box::new(
                            lubt_lp::RevisedSession::start_with(model, self.revised())?,
                        )),
                    }
                };
                let mut rounds = 0usize;
                let mut truncated = false;
                let mut sep_cache = crate::steiner::SeparationCache::new();
                loop {
                    // One span per separation round, covering the warm
                    // resolve and the violated-pair scan.
                    let round_label = round_name(rounds + 1);
                    let _round_span = SpanGuard::enter(rec, &round_label);
                    // `resolve` hands back a borrow of the session, so copy
                    // out everything the round needs (plus a clone of the
                    // solution when auditing — the certificate lives on the
                    // session itself).
                    let (status, lp_iterations, lengths, audited) = {
                        let _span = SpanGuard::enter(rec, "lp");
                        let sol = session.resolve()?;
                        (
                            sol.status(),
                            sol.iterations(),
                            extract(sol),
                            if self.audit { Some(sol.clone()) } else { None },
                        )
                    };
                    match status {
                        Status::Optimal => {}
                        Status::Infeasible => {
                            // Theorem 4.2 turns LP infeasibility into a "no
                            // LUBT exists" certificate — under audit, insist
                            // on an exactly verifying Farkas ray before
                            // trusting that claim.
                            if let Some(sol) = &audited {
                                let cert = session.certificate();
                                audit_check(session.model(), sol, cert.as_ref())?;
                            }
                            return Err(LubtError::Infeasible);
                        }
                        Status::Unbounded => {
                            return Err(LubtError::Lp(lubt_lp::LpError::NumericalBreakdown(
                                "EBF objective cannot be unbounded".to_string(),
                            )))
                        }
                    }
                    rounds += 1;
                    let separation = {
                        let _span = SpanGuard::enter(rec, "separate");
                        crate::steiner::violated_pairs_cached(
                            problem,
                            &lengths,
                            self.violation_tol,
                            self.threads,
                            batch,
                            &mut sep_cache,
                            rec,
                        )
                    };
                    note_round(rounds, &separation);
                    // Converged, or the fallback below already put every
                    // pair row in the model: a pair that LP rounding still
                    // leaves violated cannot be repaired by appending it
                    // again, so the truncated solve ends here.
                    if separation.violated == 0 || truncated {
                        // The warm-started session's final basis is the one
                        // the certificate describes — audit it before
                        // returning the lengths.
                        if let Some(sol) = &audited {
                            let cert = session.certificate();
                            audit_check(session.model(), sol, cert.as_ref())?;
                        }
                        let report = EbfReport {
                            lp_iterations,
                            separation_rounds: rounds,
                            steiner_rows,
                            total_pairs,
                            truncated,
                        };
                        let warm = WarmEbfSession {
                            session,
                            edge_vars: edge_vars.clone(),
                            n_nodes,
                            report: report.clone(),
                        };
                        return Ok((lengths, report, Some(warm)));
                    }
                    let cuts: Vec<SinkPair> = if rounds >= max_rounds {
                        // Safety net: materialize everything, once.
                        truncated = true;
                        if rec.enabled() {
                            rec.incr("ebf.truncations", 1);
                            rec.event(
                                "ebf.truncation",
                                &format!(
                                    "lazy budget exhausted after {rounds} round(s); \
                                     materializing all {total_pairs} pair constraints"
                                ),
                            );
                        }
                        all_pair_constraints(problem)
                    } else {
                        separation.top.into_iter().map(|(p, _)| p).collect()
                    };
                    for pair in cuts {
                        session.add_constraint(steiner_expr(&pair), Cmp::Ge, pair.dist)?;
                        steiner_rows += 1;
                        if rec.enabled() {
                            rec.incr("ebf.cuts_added", 1);
                        }
                    }
                }
            }
        }
    }

    /// The [`SolverBackend::Dp`] path: convert the problem to the plain-data
    /// [`lubt_dp::DpInstance`] (same effective lower bounds and pair set as
    /// the eager §4.3 LP) and solve it exactly — no separation loop, no
    /// floats until the final rounding of the rational optimum.
    fn solve_dp(&self, problem: &LubtProblem) -> Result<(Vec<f64>, EbfReport), LubtError> {
        let topo = problem.topology();
        let n_nodes = topo.num_nodes();
        let m = topo.num_sinks();
        let total_pairs = m * (m - 1) / 2;
        let rec: &dyn Recorder = &*self.recorder;

        // Per-sink effective windows, exactly as `base_model` builds its
        // Equation 2 rows: a given source acts as a fixed point, lifting
        // the lower bound to the source-sink distance.
        let sinks: Vec<lubt_dp::DpSink> = (1..=m)
            .map(|i| {
                let sink = NodeId(i);
                let mut effective_lower = problem.bounds().lower(i - 1);
                if let Some(src) = problem.source() {
                    effective_lower = effective_lower.max(src.dist(problem.sink_location(sink)));
                }
                lubt_dp::DpSink {
                    node: i,
                    lower: effective_lower,
                    upper: problem.bounds().upper(i - 1),
                }
            })
            .collect();
        let pairs: Vec<lubt_dp::DpPair> = all_pair_constraints(problem)
            .into_iter()
            .map(|p| lubt_dp::DpPair {
                a: p.a.index(),
                b: p.b.index(),
                dist: p.dist,
            })
            .collect();
        let parents: Vec<usize> = (0..n_nodes)
            .map(|v| topo.parent(NodeId(v)).map_or(0, |p| p.index()))
            .collect();
        let inst = lubt_dp::DpInstance {
            parents,
            root: topo.root().index(),
            weights: problem.weights().to_vec(),
            zero_edges: problem.zero_edges().iter().map(|z| z.index()).collect(),
            sinks,
            pairs,
        };

        let max_pivots = self.max_lp_iterations.map_or(u64::MAX, |l| l as u64);
        let outcome = {
            let _span = SpanGuard::enter(rec, "dp");
            if rec.enabled() {
                // Phase spans are synthesized from the DP's own stage
                // clock; hit counts come from the deterministic report
                // counters, so the tree shape stays thread-invariant.
                lubt_dp::solve_profiled(&inst, max_pivots).map(|(sol, phases)| {
                    rec.span_record("sweeps", sol.report.sweeps, phases.sweeps_ns);
                    rec.span_record("fold", 1, phases.fold_ns);
                    rec.span_record("dual_simplex", sol.report.pivots, phases.dual_simplex_ns);
                    sol
                })
            } else {
                lubt_dp::solve(&inst, max_pivots)
            }
        };
        let sol = match outcome {
            Ok(sol) => sol,
            Err(lubt_dp::DpError::PivotLimit { limit }) => {
                if rec.enabled() {
                    rec.incr("dp.pivot_limit_hits", 1);
                }
                return Err(LubtError::Lp(lubt_lp::LpError::IterationLimit {
                    limit: limit as usize,
                }));
            }
            // A validated LubtProblem cannot produce a malformed instance;
            // if it does, the converter above is the bug.
            Err(e @ lubt_dp::DpError::Malformed(_)) => return Err(LubtError::Input(e.to_string())),
        };
        if rec.enabled() {
            rec.incr("dp.solves", 1);
            rec.incr("dp.pivots", sol.report.pivots);
            rec.incr("dp.sweeps", sol.report.sweeps);
            rec.incr("dp.rows", sol.report.rows);
            rec.incr("dp.rows_pruned", sol.report.rows_pruned);
            rec.incr("dp.fixed_vars", sol.report.fixed_vars);
        }
        match sol.status {
            lubt_dp::DpStatus::Infeasible => {
                // The DP's infeasibility is already an exact certificate
                // (empty delay interval or an all-fixed violated row);
                // there is no float Farkas ray for the audit to re-check.
                if rec.enabled() && sol.report.interval_infeasible {
                    rec.incr("dp.interval_infeasible", 1);
                }
                Err(LubtError::Infeasible)
            }
            lubt_dp::DpStatus::Optimal => {
                if self.audit {
                    // Cross-check the rounded lengths against the eager
                    // §4.3 LP — independently assembled window rows plus
                    // all C(m, 2) pair rows. The DP has no float
                    // certificate, so only the primal side is checked.
                    let _span = SpanGuard::enter(rec, "audit");
                    let (mut model, edge_vars) = base_model(problem);
                    let var_of = |node: NodeId| edge_vars[node.index() - 1];
                    for pair in all_pair_constraints(problem) {
                        let path = topo.path_between(pair.a, pair.b);
                        let expr = LinExpr::from_terms(path.iter().map(|&e| (var_of(e), 1.0)));
                        model.add_constraint(expr, Cmp::Ge, pair.dist);
                    }
                    let findings =
                        lubt_audit::audit_primal(&model, &sol.lengths[1..], sol.objective);
                    if !findings.is_empty() {
                        if rec.enabled() {
                            rec.incr("audit.failures", findings.len() as u64);
                        }
                        return Err(LubtError::Audit(findings));
                    }
                    if rec.enabled() {
                        rec.incr("audit.primal_verified", 1);
                    }
                }
                Ok((
                    sol.lengths,
                    EbfReport {
                        lp_iterations: sol.report.pivots as usize,
                        separation_rounds: 1,
                        steiner_rows: total_pairs,
                        total_pairs,
                        truncated: false,
                    },
                ))
            }
        }
    }
}

/// The two incremental LP sessions behind one surface, so the lazy
/// separation loop is written once.
enum GrowingSession {
    Dense(Box<lubt_lp::SimplexSession>),
    Revised(Box<lubt_lp::RevisedSession>),
}

impl GrowingSession {
    fn resolve(&mut self) -> Result<&lubt_lp::Solution, lubt_lp::LpError> {
        match self {
            GrowingSession::Dense(s) => s.resolve(),
            GrowingSession::Revised(s) => s.resolve(),
        }
    }

    fn add_constraint(
        &mut self,
        expr: LinExpr,
        cmp: Cmp,
        rhs: f64,
    ) -> Result<(), lubt_lp::LpError> {
        match self {
            GrowingSession::Dense(s) => s.add_constraint(expr, cmp, rhs),
            GrowingSession::Revised(s) => s.add_constraint(expr, cmp, rhs),
        }
    }

    /// The session's grown model (base rows plus every appended cut) —
    /// what the audit verifies certificates against.
    fn model(&self) -> &Model {
        match self {
            GrowingSession::Dense(s) => s.model(),
            GrowingSession::Revised(s) => s.model(),
        }
    }

    /// The certificate of the most recent (re-)solve, if one is available.
    fn certificate(&self) -> Option<lubt_lp::Certificate> {
        match self {
            GrowingSession::Dense(s) => s.certificate(),
            GrowingSession::Revised(s) => s.certificate(),
        }
    }
}

/// A converged incremental LP session retained after
/// [`EbfSolver::solve_retaining`], for warm re-solves of the *same*
/// problem.
///
/// Incremental sessions only ever grow (rows are appended, never
/// removed), so a retained session is only valid for the exact problem it
/// converged on — which is precisely the serve cache scenario: identical
/// canonical instance, identical bounds. Re-resolving with no pending
/// rows returns the cached optimal basis unchanged, making
/// [`WarmEbfSession::resolve_lengths`] a zero-pivot replay whose lengths
/// are bit-identical to the original solve's.
pub struct WarmEbfSession {
    session: GrowingSession,
    edge_vars: Vec<Var>,
    n_nodes: usize,
    report: EbfReport,
}

impl std::fmt::Debug for WarmEbfSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WarmEbfSession")
            .field("n_nodes", &self.n_nodes)
            .field("report", &self.report)
            .finish_non_exhaustive()
    }
}

impl WarmEbfSession {
    /// The report of the original converged solve. A warm replay performs
    /// no pivots and no separation rounds, so this is also the honest
    /// description of how the retained basis was produced.
    pub fn report(&self) -> &EbfReport {
        &self.report
    }

    /// Replays the converged basis and extracts the edge lengths —
    /// bit-identical to what the original solve returned.
    ///
    /// # Errors
    ///
    /// [`LubtError::Lp`] if the underlying session reports a failure
    /// (cannot happen on a session retained in the converged-optimal
    /// state, but the type does not prove that), [`LubtError::Infeasible`]
    /// if it somehow holds an infeasible outcome.
    pub fn resolve_lengths(&mut self) -> Result<Vec<f64>, LubtError> {
        let sol = self.session.resolve()?;
        match sol.status() {
            Status::Optimal => {}
            Status::Infeasible => return Err(LubtError::Infeasible),
            Status::Unbounded => {
                return Err(LubtError::Lp(lubt_lp::LpError::NumericalBreakdown(
                    "EBF objective cannot be unbounded".to_string(),
                )))
            }
        }
        let mut lengths = vec![0.0; self.n_nodes];
        for (j, v) in self.edge_vars.iter().enumerate() {
            lengths[j + 1] = sol.value(*v).max(0.0);
        }
        Ok(lengths)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DelayBounds, LubtBuilder};
    use lubt_delay::linear::{node_delays, tree_cost};
    use lubt_geom::Point;

    fn square() -> Vec<Point> {
        vec![
            Point::new(0.0, 0.0),
            Point::new(10.0, 0.0),
            Point::new(0.0, 10.0),
            Point::new(10.0, 10.0),
        ]
    }

    /// The two float backends, each with the prefix of its LP counters.
    const FLOAT_BACKENDS: [(SolverBackend, &str); 2] = [
        (SolverBackend::Simplex, "simplex"),
        (SolverBackend::Revised, "lp"),
    ];

    #[test]
    fn unbounded_reduces_to_steiner_tree() {
        // 2 sinks 8 apart: minimal tree = 8 (plus nothing else).
        let p = LubtBuilder::new(vec![Point::new(0.0, 0.0), Point::new(8.0, 0.0)])
            .bounds(DelayBounds::unbounded(2))
            .build()
            .unwrap();
        let (lengths, _) = EbfSolver::new().solve(&p).unwrap();
        assert!((tree_cost(&lengths) - 8.0).abs() < 1e-6);
    }

    #[test]
    fn delay_bounds_are_respected() {
        let p = LubtBuilder::new(square())
            .source(Point::new(5.0, 5.0))
            .bounds(DelayBounds::uniform(4, 12.0, 15.0))
            .build()
            .unwrap();
        let (lengths, _) = EbfSolver::new().solve(&p).unwrap();
        let d = node_delays(p.topology(), &lengths);
        for s in p.topology().sinks() {
            assert!(d[s.index()] >= 12.0 - 1e-6, "sink {s}: {}", d[s.index()]);
            assert!(d[s.index()] <= 15.0 + 1e-6, "sink {s}: {}", d[s.index()]);
        }
    }

    #[test]
    fn infeasible_upper_bound_is_rejected_before_the_lp() {
        // Radius is 10; u = 5 < dist(source, sinks) has no solution (Eq 3).
        // The pre-solve lint hook catches this without building the LP.
        let p = LubtBuilder::new(square())
            .source(Point::new(5.0, 5.0))
            .bounds(DelayBounds::upper_only(4, 5.0))
            .build()
            .unwrap();
        match EbfSolver::new().solve(&p) {
            Err(LubtError::Rejected(diags)) => {
                assert!(diags.iter().any(|d| d.pass == "sink-reachability"));
                assert!(lubt_lint::has_deny(&diags));
            }
            other => panic!("expected Rejected, got {other:?}"),
        }
    }

    #[test]
    fn infeasible_upper_bound_is_certified_by_the_lp_without_prelint() {
        // Same instance with the hook disabled: the LP itself certifies
        // infeasibility (Theorem 4.2).
        let p = LubtBuilder::new(square())
            .source(Point::new(5.0, 5.0))
            .bounds(DelayBounds::upper_only(4, 5.0))
            .build()
            .unwrap();
        assert!(matches!(
            EbfSolver::new().with_prelint(false).solve(&p),
            Err(LubtError::Infeasible)
        ));
    }

    #[test]
    fn ebf_model_matches_the_lazy_seed_row_count() {
        let p = LubtBuilder::new(square())
            .source(Point::new(5.0, 5.0))
            .bounds(DelayBounds::uniform(4, 12.0, 15.0))
            .build()
            .unwrap();
        let model = ebf_model(&p);
        assert_eq!(model.num_vars(), p.topology().num_nodes() - 1);
        // Per sink: one Ge row (effective lower > 0) and one Le row, plus
        // the seed Steiner rows the lazy solve starts from.
        let m = p.topology().num_sinks();
        let seeds = crate::steiner::seed_pairs(&p).len();
        assert_eq!(model.num_constraints(), 2 * m + seeds);
        assert!(model.validate().is_ok());
    }

    #[test]
    fn lazy_and_eager_agree() {
        let p = LubtBuilder::new(square())
            .bounds(DelayBounds::uniform(4, 10.0, 12.0))
            .build()
            .unwrap();
        let (l1, r1) = EbfSolver::new().solve(&p).unwrap();
        let (l2, r2) = EbfSolver::new()
            .with_steiner_mode(SteinerMode::Eager)
            .solve(&p)
            .unwrap();
        assert!((tree_cost(&l1) - tree_cost(&l2)).abs() < 1e-6);
        assert!(r1.steiner_rows <= r2.steiner_rows);
        assert_eq!(r2.total_pairs, 6);
    }

    #[test]
    fn revised_backend_matches_dense_simplex() {
        let p = LubtBuilder::new(square())
            .source(Point::new(5.0, 5.0))
            .bounds(DelayBounds::uniform(4, 10.0, 14.0))
            .build()
            .unwrap();
        let (dense, dr) = EbfSolver::new()
            .with_backend(SolverBackend::Simplex)
            .solve(&p)
            .unwrap();
        let (revised, rr) = EbfSolver::new()
            .with_backend(SolverBackend::Revised)
            .solve(&p)
            .unwrap();
        assert!((tree_cost(&dense) - tree_cost(&revised)).abs() < 1e-6);
        assert_eq!(dr.separation_rounds, rr.separation_rounds);
        assert_eq!(dr.steiner_rows, rr.steiner_rows);
        // Eager mode exercises the cold two-phase path instead of the
        // incremental session.
        let (eager, _) = EbfSolver::new()
            .with_backend(SolverBackend::Revised)
            .with_steiner_mode(SteinerMode::Eager)
            .solve(&p)
            .unwrap();
        assert!((tree_cost(&dense) - tree_cost(&eager)).abs() < 1e-6);
    }

    #[test]
    fn revised_backend_is_thread_deterministic() {
        let p = LubtBuilder::new(square())
            .source(Point::new(5.0, 5.0))
            .bounds(DelayBounds::uniform(4, 12.0, 15.0))
            .build()
            .unwrap();
        let solver = || EbfSolver::new().with_backend(SolverBackend::Revised);
        let (base_lengths, base_report) = solver().solve(&p).unwrap();
        for threads in [2, 8] {
            let (lengths, report) = solver().with_threads(threads).solve(&p).unwrap();
            assert_eq!(lengths, base_lengths, "threads={threads}");
            assert_eq!(report, base_report, "threads={threads}");
        }
    }

    #[test]
    fn revised_solve_runs_one_claim_loop_per_separation_round() {
        // 48 sinks give the LP well over a hundred columns, so every pivot
        // prices a wide window; the LP still runs serially, and the only
        // claim loop a lazy solve enters is the separation scan, once per
        // round.
        let inst = lubt_data::synthetic::uniform("lazy48", 48, 1000.0, 11);
        let r = inst.radius();
        let p = LubtBuilder::new(inst.sinks)
            .bounds(DelayBounds::uniform(48, 0.9 * r, 1.4 * r))
            .build()
            .unwrap();
        let solver = |threads| {
            EbfSolver::new()
                .with_backend(SolverBackend::Revised)
                .with_threads(threads)
        };
        let (serial, _) = solver(1).solve_traced(&p);
        let (wide, trace) = solver(4).solve_traced(&p);
        let (base_lengths, base_report) = serial.unwrap();
        let (lengths, report) = wide.unwrap();
        assert_eq!(lengths, base_lengths);
        assert_eq!(report, base_report);
        assert!(report.separation_rounds > 1, "{report:?}");
        assert!(trace.counter("lp.pivots") > report.separation_rounds as u64);
        assert_eq!(
            trace.counter("par.assist.loops"),
            trace.counter("ebf.rounds"),
            "{trace:?}"
        );
    }

    #[test]
    fn revised_refactorizations_store_about_the_basis_nonzeros() {
        // The slacks peel off the basis and its path-incidence kernel
        // barely fills under the sparse LU, so the refactorizations of a
        // lazy 64-sink solve store about one entry per basis nonzero
        // (1.01 here). The bound is tighter than CI's 1.5 because at this
        // size a Gauss-Jordan product form stays under 1.5 too (1.24).
        let inst = lubt_data::synthetic::uniform("lu64", 64, 1000.0, 7);
        let r = inst.radius();
        let p = LubtBuilder::new(inst.sinks)
            .bounds(DelayBounds::uniform(64, 0.9 * r, 1.4 * r))
            .build()
            .unwrap();
        let (result, trace) = EbfSolver::new()
            .with_backend(SolverBackend::Revised)
            .solve_traced(&p);
        let (_, report) = result.unwrap();
        assert!(report.separation_rounds > 1, "{report:?}");
        assert!(trace.counter("lp.refactorizations") > 0, "{trace:?}");
        let (factor, basis) = (
            trace.counter("lp.factor_nnz"),
            trace.counter("lp.basis_nnz"),
        );
        assert!(basis > 0, "{trace:?}");
        assert!(
            10 * factor <= 11 * basis,
            "lp.factor_nnz {factor} > 1.1 x lp.basis_nnz {basis}"
        );
    }

    #[test]
    fn revised_backend_traces_lp_counters() {
        let p = LubtBuilder::new(square())
            .source(Point::new(5.0, 5.0))
            .bounds(DelayBounds::uniform(4, 12.0, 15.0))
            .build()
            .unwrap();
        let (result, trace) = EbfSolver::new()
            .with_backend(SolverBackend::Revised)
            .solve_traced(&p);
        let (_, report) = result.unwrap();
        assert_eq!(trace.counter("lp.solves"), 1);
        assert_eq!(
            trace.counter("lp.resolves"),
            report.separation_rounds as u64 - 1
        );
        assert!(trace.counter("lp.priced_columns") > 0, "{trace:?}");
        // The revised backend must not touch the dense backend's keys.
        assert_eq!(trace.counter("simplex.solves"), 0);
        assert_eq!(trace.counter("simplex.pivots"), 0);
    }

    #[test]
    fn audited_solves_match_unaudited_bit_for_bit() {
        // The audit is pure observation: lengths and reports are identical
        // with and without it, and the verification counters land.
        let p = LubtBuilder::new(square())
            .source(Point::new(5.0, 5.0))
            .bounds(DelayBounds::uniform(4, 12.0, 15.0))
            .build()
            .unwrap();
        for (backend, key) in [
            (SolverBackend::Simplex, "audit.optimality_verified"),
            (SolverBackend::Revised, "audit.optimality_verified"),
            (SolverBackend::Dp, "audit.primal_verified"),
        ] {
            let (base_lengths, base_report) =
                EbfSolver::new().with_backend(backend).solve(&p).unwrap();
            let (result, trace) = EbfSolver::new()
                .with_backend(backend)
                .with_audit(true)
                .solve_traced(&p);
            let (lengths, report) = result.unwrap();
            assert_eq!(lengths, base_lengths, "{backend:?}");
            assert_eq!(report, base_report, "{backend:?}");
            assert!(trace.counter(key) >= 1, "{backend:?}: {trace:?}");
            assert_eq!(trace.counter("audit.failures"), 0, "{backend:?}");
            assert!(trace.timings_ns.contains_key("time.audit"), "{backend:?}");
        }
    }

    #[test]
    fn audited_eager_solve_verifies_its_certificate() {
        let p = LubtBuilder::new(square())
            .bounds(DelayBounds::uniform(4, 10.0, 14.0))
            .build()
            .unwrap();
        for backend in [SolverBackend::Simplex, SolverBackend::Revised] {
            let (result, trace) = EbfSolver::new()
                .with_backend(backend)
                .with_steiner_mode(SteinerMode::Eager)
                .with_audit(true)
                .solve_traced(&p);
            assert!(result.is_ok(), "{backend:?}");
            assert_eq!(trace.counter("audit.optimality_verified"), 1, "{backend:?}");
            assert_eq!(trace.counter("audit.failures"), 0, "{backend:?}");
        }
    }

    #[test]
    fn audited_infeasibility_verifies_a_farkas_ray() {
        // With prelint off, the LP itself certifies infeasibility; under
        // audit the Farkas ray must verify exactly before the Infeasible
        // error is surfaced (on both simplex backends, warm and cold).
        let p = LubtBuilder::new(square())
            .source(Point::new(5.0, 5.0))
            .bounds(DelayBounds::upper_only(4, 5.0))
            .build()
            .unwrap();
        for backend in [SolverBackend::Simplex, SolverBackend::Revised] {
            for mode in [SteinerMode::default_lazy(), SteinerMode::Eager] {
                let (result, trace) = EbfSolver::new()
                    .with_backend(backend)
                    .with_steiner_mode(mode)
                    .with_prelint(false)
                    .with_audit(true)
                    .solve_traced(&p);
                assert!(
                    matches!(result, Err(LubtError::Infeasible)),
                    "{backend:?}/{mode:?}"
                );
                assert_eq!(
                    trace.counter("audit.farkas_verified"),
                    1,
                    "{backend:?}/{mode:?}"
                );
                assert_eq!(trace.counter("audit.failures"), 0, "{backend:?}/{mode:?}");
            }
        }
    }

    #[test]
    fn audit_accessor_reports_the_flag() {
        assert!(!EbfSolver::new().audit_enabled());
        assert!(EbfSolver::new().with_audit(true).audit_enabled());
    }

    #[test]
    fn weighted_edges_shift_the_optimum() {
        // Heavily weighting one edge should never *increase* its length.
        let p = LubtBuilder::new(square())
            .bounds(DelayBounds::uniform(4, 10.0, 14.0))
            .build()
            .unwrap();
        let (base, _) = EbfSolver::new().solve(&p).unwrap();
        let n = p.topology().num_nodes();
        let mut w = vec![1.0; n];
        // Find the longest edge and penalize it.
        let longest = (1..n)
            .max_by(|&a, &b| base[a].partial_cmp(&base[b]).unwrap())
            .unwrap();
        w[longest] = 50.0;
        let p2 = p.clone().with_weights(w).unwrap();
        let (heavy, _) = EbfSolver::new().solve(&p2).unwrap();
        assert!(heavy[longest] <= base[longest] + 1e-6);
    }

    #[test]
    fn zero_edges_stay_zero() {
        let p = LubtBuilder::new(square())
            .bounds(DelayBounds::uniform(4, 10.0, 14.0))
            .build()
            .unwrap();
        let n = p.topology().num_nodes();
        let p = p.with_zero_edges(vec![NodeId(n - 1)]).unwrap();
        let (lengths, _) = EbfSolver::new().solve(&p).unwrap();
        assert!(lengths[n - 1].abs() < 1e-9);
    }

    #[test]
    fn tiny_lazy_budget_sets_truncated_and_warns() {
        // One round with a one-cut batch cannot converge on a square with
        // bounds; the safety net materializes every pair and must say so.
        let p = LubtBuilder::new(square())
            .bounds(DelayBounds::uniform(4, 10.0, 14.0))
            .build()
            .unwrap();
        let (lengths, report) = EbfSolver::new()
            .with_steiner_mode(SteinerMode::Lazy {
                max_rounds: 1,
                batch: 1,
            })
            .solve(&p)
            .unwrap();
        assert!(report.truncated, "safety net fired, report must say so");
        assert!(report.steiner_rows > report.total_pairs);
        let diag = report.truncation_diagnostic().expect("warn note expected");
        assert_eq!(diag.pass, "lazy-truncation");
        assert_eq!(diag.level, lubt_lint::Level::Warn);
        // The fallback is exact: same optimum as an eager solve.
        let (eager, _) = EbfSolver::new()
            .with_steiner_mode(SteinerMode::Eager)
            .solve(&p)
            .unwrap();
        assert!((tree_cost(&lengths) - tree_cost(&eager)).abs() < 1e-6);
    }

    #[test]
    fn converged_solve_is_not_truncated() {
        let p = LubtBuilder::new(square())
            .bounds(DelayBounds::uniform(4, 10.0, 14.0))
            .build()
            .unwrap();
        let (_, report) = EbfSolver::new().solve(&p).unwrap();
        assert!(!report.truncated);
        assert!(report.truncation_diagnostic().is_none());
        let (_, eager) = EbfSolver::new()
            .with_steiner_mode(SteinerMode::Eager)
            .solve(&p)
            .unwrap();
        assert!(!eager.truncated);
    }

    #[test]
    fn oracle_threads_do_not_change_the_solution_bits() {
        let p = LubtBuilder::new(square())
            .source(Point::new(5.0, 5.0))
            .bounds(DelayBounds::uniform(4, 12.0, 15.0))
            .build()
            .unwrap();
        let solver = || EbfSolver::new().with_backend(SolverBackend::Simplex);
        let (base_lengths, base_report) = solver().solve(&p).unwrap();
        for threads in [2, 4, 8, 0] {
            let (lengths, report) = solver().with_threads(threads).solve(&p).unwrap();
            assert_eq!(lengths, base_lengths, "threads={threads}");
            assert_eq!(report, base_report, "threads={threads}");
        }
    }

    #[test]
    fn solve_traced_reports_rounds_cuts_pivots_and_timings() {
        let p = LubtBuilder::new(square())
            .source(Point::new(5.0, 5.0))
            .bounds(DelayBounds::uniform(4, 12.0, 15.0))
            .build()
            .unwrap();
        for (backend, ns) in FLOAT_BACKENDS {
            let solver = EbfSolver::new().with_backend(backend);
            let (result, trace) = solver.solve_traced(&p);
            let (lengths, report) = result.unwrap();
            // Tracing must not change the solve.
            let (plain_lengths, plain_report) = solver.solve(&p).unwrap();
            assert_eq!(lengths, plain_lengths, "{backend:?}");
            assert_eq!(report, plain_report, "{backend:?}");
            // Separation accounting lines up with the report.
            assert_eq!(
                trace.counter("ebf.rounds"),
                report.separation_rounds as u64,
                "{backend:?}"
            );
            assert_eq!(
                trace.counter("ebf.seed_rows") + trace.counter("ebf.cuts_added"),
                report.steiner_rows as u64,
                "{backend:?}"
            );
            // LP accounting: the session cold-starts once (a full solve),
            // then re-solves incrementally once per cut-adding round.
            assert!(trace.counter(&format!("{ns}.solves")) >= 1, "{trace:?}");
            assert_eq!(
                trace.counter(&format!("{ns}.resolves")),
                report.separation_rounds as u64 - 1,
                "{backend:?}"
            );
            assert!(trace.counter(&format!("{ns}.pivots")) >= 1, "{trace:?}");
            assert!(
                trace.gauge(&format!("{ns}.limit_fraction")).is_some(),
                "{trace:?}"
            );
            // Wall-clock phases were timed (values are run-dependent,
            // presence is not).
            assert!(trace.timings_ns.contains_key("time.lp"), "{backend:?}");
            assert!(
                trace.timings_ns.contains_key("time.separation"),
                "{backend:?}"
            );
            // Per-round events landed in the bounded log.
            assert!(
                trace.events.iter().any(|e| e.key == "ebf.round"),
                "{backend:?}"
            );
        }
    }

    #[test]
    fn time_lp_sums_every_outermost_lp_span_including_the_cold_seed_solve() {
        let p = LubtBuilder::new(square())
            .source(Point::new(5.0, 5.0))
            .bounds(DelayBounds::uniform(4, 12.0, 15.0))
            .build()
            .unwrap();
        for backend in [SolverBackend::Simplex, SolverBackend::Revised] {
            let (result, trace) = EbfSolver::new().with_backend(backend).solve_traced(&p);
            result.unwrap();
            let lp_spans: Vec<(String, u64)> = trace
                .spans
                .flatten()
                .into_iter()
                .filter(|(path, _, _)| {
                    let segs: Vec<&str> = path.split('/').collect();
                    let (last, ancestors) = segs.split_last().unwrap();
                    *last == "lp" && !ancestors.contains(&"lp")
                })
                .map(|(path, _, ns)| (path, ns))
                .collect();
            // The lazy path solves the seed model cold in `solve/lp`, then
            // resolves inside each separation round.
            assert!(
                lp_spans.iter().any(|(path, _)| path == "solve/lp"),
                "{backend:?}: {lp_spans:?}"
            );
            assert!(
                lp_spans
                    .iter()
                    .any(|(path, _)| path.starts_with("solve/round.")),
                "{backend:?}: {lp_spans:?}"
            );
            let total: u64 = lp_spans.iter().map(|(_, ns)| ns).sum();
            assert_eq!(trace.timing_ns("time.lp"), total, "{backend:?}");
        }
    }

    #[test]
    fn traced_truncation_is_counted() {
        let p = LubtBuilder::new(square())
            .bounds(DelayBounds::uniform(4, 10.0, 14.0))
            .build()
            .unwrap();
        let (result, trace) = EbfSolver::new()
            .with_steiner_mode(SteinerMode::Lazy {
                max_rounds: 1,
                batch: 1,
            })
            .solve_traced(&p);
        assert!(result.unwrap().1.truncated);
        assert_eq!(trace.counter("ebf.truncations"), 1);
        assert!(trace.events.iter().any(|e| e.key == "ebf.truncation"));
    }

    #[test]
    fn lazy_fallback_materializes_the_pair_set_once() {
        // With a zero tolerance, LP rounding leaves pairs of this 16-sink
        // net violated even after every pair row is in the model. The
        // fallback must append the pair set once and then return, not
        // append it again on every later round.
        let sinks: Vec<Point> = (0..16)
            .map(|i| {
                let k = i as f64;
                Point::new((k * 53.0) % 97.0, (k * k * 7.0) % 83.0)
            })
            .collect();
        let r = lubt_geom::diameter(sinks.iter().copied()) / 2.0;
        let p = LubtBuilder::new(sinks)
            .bounds(DelayBounds::uniform(16, 0.9 * r, 1.4 * r))
            .build()
            .unwrap();
        let seeds = crate::steiner::seed_pairs(&p).len();
        for (backend, _) in FLOAT_BACKENDS {
            let (result, trace) = EbfSolver::new()
                .with_backend(backend)
                .with_violation_tolerance(0.0)
                .with_steiner_mode(SteinerMode::Lazy {
                    max_rounds: 1,
                    batch: 1,
                })
                .solve_traced(&p);
            let (lengths, report) = result.unwrap();
            assert!(report.truncated, "{backend:?}: {report:?}");
            assert_eq!(report.separation_rounds, 2, "{backend:?}");
            assert_eq!(
                report.steiner_rows,
                seeds + report.total_pairs,
                "{backend:?}"
            );
            assert_eq!(trace.counter("ebf.truncations"), 1, "{backend:?}");
            // The round after the fallback still saw violated pairs, so
            // this solve ends on the truncated exit, not on convergence.
            let last = trace.events.iter().rfind(|e| e.key == "ebf.round").unwrap();
            assert!(
                last.message.starts_with("round 2: ") && !last.message.starts_with("round 2: 0 "),
                "{backend:?}: {}",
                last.message
            );
            let (eager, _) = EbfSolver::new()
                .with_backend(backend)
                .with_steiner_mode(SteinerMode::Eager)
                .solve(&p)
                .unwrap();
            assert!(
                (tree_cost(&lengths) - tree_cost(&eager)).abs() < 1e-6,
                "{backend:?}"
            );
        }
    }

    #[test]
    fn violation_tolerance_must_be_finite_and_non_negative() {
        let p = LubtBuilder::new(square())
            .bounds(DelayBounds::uniform(4, 10.0, 14.0))
            .build()
            .unwrap();
        for backend in [
            SolverBackend::Simplex,
            SolverBackend::Revised,
            SolverBackend::Dp,
        ] {
            for tol in [f64::NAN, f64::INFINITY, -1.0] {
                let (result, trace) = EbfSolver::new()
                    .with_backend(backend)
                    .with_violation_tolerance(tol)
                    .solve_traced(&p);
                assert!(
                    matches!(&result, Err(LubtError::Input(msg)) if msg.contains("violation tolerance")),
                    "{backend:?} tol {tol}: {result:?}"
                );
                // Rejected before any backend ran.
                assert!(trace.counters.is_empty(), "{backend:?}: {trace:?}");
            }
            let zero = EbfSolver::new()
                .with_backend(backend)
                .with_violation_tolerance(0.0)
                .solve(&p);
            assert!(zero.is_ok(), "{backend:?}: {zero:?}");
        }
    }

    #[test]
    fn lp_iteration_limit_propagates_with_diagnostic_and_trace() {
        let p = LubtBuilder::new(square())
            .source(Point::new(5.0, 5.0))
            .bounds(DelayBounds::uniform(4, 12.0, 15.0))
            .build()
            .unwrap();
        for (backend, ns) in FLOAT_BACKENDS {
            let solver = EbfSolver::new().with_backend(backend);
            let (result, trace) = solver.clone().with_max_lp_iterations(1).solve_traced(&p);
            let err = result.expect_err("one pivot cannot solve this instance");
            assert!(
                matches!(
                    err,
                    LubtError::Lp(lubt_lp::LpError::IterationLimit { limit: 1 })
                ),
                "{backend:?}: {err:?}"
            );
            // The exhaustion surfaces as a lint-style diagnostic, like
            // truncation does.
            let diag = err.diagnostic().expect("iteration limit maps to a finding");
            assert_eq!(diag.pass, "iteration-limit");
            assert_eq!(diag.level, lubt_lint::Level::Deny);
            assert!(diag.message.contains('1'));
            // ... and the trace still carries the counters up to the failure.
            assert!(
                trace.counter(&format!("{ns}.iteration_limit_hits")) >= 1,
                "{trace:?}"
            );
            // A generous limit solves fine and stays far from the cap.
            let (result, trace) = solver.with_max_lp_iterations(100_000).solve_traced(&p);
            assert!(result.is_ok(), "{backend:?}");
            let frac = trace.gauge(&format!("{ns}.limit_fraction")).unwrap();
            assert!(
                frac > 0.0 && frac < 0.01,
                "{backend:?}: limit proximity {frac}"
            );
        }
    }

    #[test]
    fn zero_threads_solves_like_one_thread() {
        // `with_threads(0)` = all cores; the library clamps instead of
        // rejecting (only the CLI flag rejects a literal 0).
        let p = LubtBuilder::new(square())
            .bounds(DelayBounds::uniform(4, 10.0, 14.0))
            .build()
            .unwrap();
        let solver = EbfSolver::new().with_threads(0);
        assert_eq!(solver.threads(), 0);
        let (lengths, report) = solver.solve(&p).unwrap();
        let (base_lengths, base_report) = EbfSolver::new().solve(&p).unwrap();
        assert_eq!(lengths, base_lengths);
        assert_eq!(report, base_report);
    }

    #[test]
    fn dp_backend_matches_the_float_backends() {
        let p = LubtBuilder::new(square())
            .source(Point::new(5.0, 5.0))
            .bounds(DelayBounds::uniform(4, 10.0, 14.0))
            .build()
            .unwrap();
        let (dp, report) = EbfSolver::new()
            .with_backend(SolverBackend::Dp)
            .solve(&p)
            .unwrap();
        // The exact oracle and both float simplex codes must land on the
        // same optimum to float accuracy.
        for (backend, _) in FLOAT_BACKENDS {
            let (float, _) = EbfSolver::new().with_backend(backend).solve(&p).unwrap();
            assert!(
                (tree_cost(&float) - tree_cost(&dp)).abs() < 1e-9,
                "{backend:?}"
            );
        }
        assert_eq!(report.separation_rounds, 1);
        assert_eq!(report.total_pairs, 6);
        assert_eq!(report.steiner_rows, 6);
        assert!(!report.truncated);
        let d = node_delays(p.topology(), &dp);
        for s in p.topology().sinks() {
            assert!(d[s.index()] >= 10.0 - 1e-9, "sink {s}: {}", d[s.index()]);
            assert!(d[s.index()] <= 14.0 + 1e-9, "sink {s}: {}", d[s.index()]);
        }
    }

    #[test]
    fn dp_backend_certifies_infeasibility_without_prelint() {
        let p = LubtBuilder::new(square())
            .source(Point::new(5.0, 5.0))
            .bounds(DelayBounds::upper_only(4, 5.0))
            .build()
            .unwrap();
        let (result, trace) = EbfSolver::new()
            .with_backend(SolverBackend::Dp)
            .with_prelint(false)
            .solve_traced(&p);
        assert!(matches!(result, Err(LubtError::Infeasible)), "{result:?}");
        assert_eq!(trace.counter("dp.solves"), 1);
    }

    #[test]
    fn dp_backend_traces_its_counters() {
        let p = LubtBuilder::new(square())
            .source(Point::new(5.0, 5.0))
            .bounds(DelayBounds::uniform(4, 12.0, 15.0))
            .build()
            .unwrap();
        let (result, trace) = EbfSolver::new()
            .with_backend(SolverBackend::Dp)
            .solve_traced(&p);
        assert!(result.is_ok());
        assert_eq!(trace.counter("dp.solves"), 1);
        assert!(trace.counter("dp.sweeps") >= 1, "{trace:?}");
        assert!(trace.counter("dp.rows") >= 1, "{trace:?}");
        assert!(trace.counter("dp.pivots") >= 1, "{trace:?}");
        assert!(trace.timings_ns.contains_key("time.dp"));
        // The DP path never touches the LP backends or their counters.
        assert_eq!(trace.counter("simplex.pivots"), 0);
        assert_eq!(trace.counter("lp.solves"), 0);
        assert_eq!(trace.counter("ebf.rounds"), 0);
    }

    #[test]
    fn dp_backend_is_deterministic_across_threads_and_repeats() {
        let p = LubtBuilder::new(square())
            .source(Point::new(5.0, 5.0))
            .bounds(DelayBounds::uniform(4, 12.0, 15.0))
            .build()
            .unwrap();
        let solver = || EbfSolver::new().with_backend(SolverBackend::Dp);
        let (base_lengths, base_report) = solver().solve(&p).unwrap();
        for threads in [1, 2, 8, 0] {
            let (lengths, report) = solver().with_threads(threads).solve(&p).unwrap();
            assert_eq!(lengths, base_lengths, "threads={threads}");
            assert_eq!(report, base_report, "threads={threads}");
        }
    }

    #[test]
    fn dp_backend_respects_the_iteration_cap() {
        let p = LubtBuilder::new(square())
            .source(Point::new(5.0, 5.0))
            .bounds(DelayBounds::uniform(4, 12.0, 15.0))
            .build()
            .unwrap();
        let err = EbfSolver::new()
            .with_backend(SolverBackend::Dp)
            .with_max_lp_iterations(1)
            .solve(&p)
            .expect_err("one exact pivot cannot solve this instance");
        assert!(
            matches!(
                err,
                LubtError::Lp(lubt_lp::LpError::IterationLimit { limit: 1 })
            ),
            "{err:?}"
        );
        assert_eq!(err.diagnostic().unwrap().pass, "iteration-limit");
    }

    #[test]
    fn dp_backend_keeps_zero_edges_exactly_zero() {
        let p = LubtBuilder::new(square())
            .bounds(DelayBounds::uniform(4, 10.0, 14.0))
            .build()
            .unwrap();
        let n = p.topology().num_nodes();
        let p = p.with_zero_edges(vec![NodeId(n - 1)]).unwrap();
        let (lengths, _) = EbfSolver::new()
            .with_backend(SolverBackend::Dp)
            .solve(&p)
            .unwrap();
        // The DP folds zero edges out before the core runs: exactly 0.
        assert_eq!(lengths[n - 1], 0.0);
    }

    #[test]
    fn source_sink_distance_is_enforced_even_with_zero_lower() {
        // l = 0 but the source is far: path must still cover the distance.
        let p = LubtBuilder::new(vec![Point::new(10.0, 0.0), Point::new(12.0, 0.0)])
            .source(Point::new(0.0, 0.0))
            .bounds(DelayBounds::upper_only(2, 50.0))
            .build()
            .unwrap();
        let (lengths, _) = EbfSolver::new().solve(&p).unwrap();
        let d = node_delays(p.topology(), &lengths);
        assert!(d[1] >= 10.0 - 1e-6);
        assert!(d[2] >= 12.0 - 1e-6);
    }
}
