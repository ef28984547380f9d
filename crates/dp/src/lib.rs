#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! `lubt-dp`: an LP-free exact oracle for the paper's fixed-topology
//! lower/upper-bounded-delay routing-tree problem.
//!
//! The two float backends in `lubt-lp` (dense simplex, revised simplex)
//! share one model assembly and one kind of arithmetic, so a common-mode
//! bug is invisible to differential tests between them.
//! This crate solves the same problem along a completely independent
//! path, in three stages, all exact:
//!
//! 1. **Interval DP** (the `intervals` module): bottom-up/top-down dynamic
//!    programming over per-node feasible delay intervals on the fixed
//!    topology. Empty interval ⇒ exact infeasibility; pinched interval ⇒
//!    the node's delay is fixed on the whole feasible set.
//! 2. **Folding**: zero edges and interval-pinched edges are substituted
//!    out, and separation rows already implied by the kept sink windows
//!    are pruned — soundly, using only constraints that remain in the
//!    system.
//! 3. **Exact rational core** (the `simplex` module): the reduced edge-length
//!    system goes through a fraction-free (integer-pivoting) dual simplex
//!    with Bland's rule — BigInt arithmetic end to end, every pivot
//!    division exact, termination guaranteed.
//!
//! The pair rows (coefficients `1, 1, -2` in delay space) break total
//! unimodularity — optima can be half-integral — which is why a pure
//! lattice DP cannot be exact and stage 3 exists. Stages 1–2 are the DP
//! proper: on window-free or zero-skew instances they solve the problem
//! alone, and elsewhere they shrink what the rational core has to touch.
//!
//! Input is the plain-data [`DpInstance`] (no dependency on `lubt-core`);
//! output status and objective agree **exactly** with the LP formulation
//! of §4 — the crate's entire reason to exist is that a disagreement with
//! a float backend is always a real bug in one of the two.

mod intervals;
mod simplex;

use std::cmp::Ordering;
use std::fmt;
use std::time::Instant;

use lubt_audit::{BigInt, BigUint, Rational};

use intervals::PairRow;
use simplex::{CoreOutcome, LeRow};

/// One sink of a [`DpInstance`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DpSink {
    /// Node index of the sink in the topology.
    pub node: usize,
    /// Effective lower delay bound — the caller folds
    /// `max(l_i, dist(source, sink_i))` in, matching the LP's Equation 2
    /// rows. Values `<= 0` impose nothing (pathlengths are non-negative).
    pub lower: f64,
    /// Upper delay bound; `f64::INFINITY` imposes nothing.
    pub upper: f64,
}

/// One §4.4 separation constraint between two sinks: the tree pathlength
/// between them must be at least their Manhattan separation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DpPair {
    /// First sink node.
    pub a: usize,
    /// Second sink node.
    pub b: usize,
    /// Manhattan distance between the two sink positions.
    pub dist: f64,
}

/// Plain-data description of one fixed-topology bounded-delay instance.
///
/// Deliberately independent of `lubt-core`'s problem types: the converter
/// lives on the core side, so a bug there cannot be mirrored here.
#[derive(Debug, Clone, PartialEq)]
pub struct DpInstance {
    /// `parents[v]` is the parent of node `v`; the root's entry is
    /// ignored.
    pub parents: Vec<usize>,
    /// Root (source) node.
    pub root: usize,
    /// `weights[v]` weighs the edge into `v` in the objective; the root's
    /// entry is ignored. Must be finite and non-negative.
    pub weights: Vec<f64>,
    /// Nodes whose incoming edge is fixed to length zero.
    pub zero_edges: Vec<usize>,
    /// Sinks with their effective delay windows.
    pub sinks: Vec<DpSink>,
    /// Separation constraints (typically all C(m,2) sink pairs).
    pub pairs: Vec<DpPair>,
}

/// Solve status of the exact oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DpStatus {
    /// An optimal edge-length assignment was found.
    Optimal,
    /// The instance is exactly infeasible.
    Infeasible,
}

/// Work counters of one [`solve`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DpReport {
    /// Interval-DP sweeps executed.
    pub sweeps: u64,
    /// Exact rational pivots performed.
    pub pivots: u64,
    /// Rows handed to the rational core.
    pub rows: u64,
    /// Rows pruned by the interval DP and the folding stage.
    pub rows_pruned: u64,
    /// Edge variables fixed before the core ran (zero edges plus
    /// interval-pinched edges).
    pub fixed_vars: u64,
    /// `true` when the interval DP alone certified infeasibility and the
    /// rational core never ran.
    pub interval_infeasible: bool,
}

/// Wall-clock phase breakdown of one [`solve_profiled`] call. Purely
/// informational (profiling spans); never part of the deterministic
/// output — hit counts for the matching spans come from [`DpReport`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DpPhases {
    /// Stage 1: interval-DP window propagation sweeps.
    pub sweeps_ns: u64,
    /// Stage 2: folding fixed edges, row assembly, and integer scaling.
    pub fold_ns: u64,
    /// Stage 3: the fraction-free rational dual-simplex core.
    pub dual_simplex_ns: u64,
}

/// Result of one [`solve`] call.
#[derive(Debug, Clone, PartialEq)]
pub struct DpSolution {
    /// Optimal or exactly infeasible.
    pub status: DpStatus,
    /// Per-node edge lengths (entry `root` is zero); empty when
    /// infeasible.
    pub lengths: Vec<f64>,
    /// Objective value `sum(weights[v] * lengths[v])`; NaN when
    /// infeasible.
    pub objective: f64,
    /// Work counters.
    pub report: DpReport,
}

/// Failure of one [`solve`] call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DpError {
    /// The instance is structurally invalid (bad indices, cycles,
    /// non-finite data, negative weights).
    Malformed(String),
    /// The exact core exceeded the caller's pivot cap.
    PivotLimit {
        /// The cap that was hit.
        limit: u64,
    },
}

impl fmt::Display for DpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DpError::Malformed(msg) => write!(f, "malformed DP instance: {msg}"),
            DpError::PivotLimit { limit } => {
                write!(f, "exact rational core exceeded {limit} pivots")
            }
        }
    }
}

impl std::error::Error for DpError {}

fn malformed(msg: impl Into<String>) -> DpError {
    DpError::Malformed(msg.into())
}

/// Node depths with cycle detection.
fn depths(parents: &[usize], root: usize) -> Result<Vec<usize>, DpError> {
    let n = parents.len();
    let mut depth = vec![usize::MAX; n];
    depth[root] = 0;
    for start in 0..n {
        if depth[start] != usize::MAX {
            continue;
        }
        let mut chain = Vec::new();
        let mut cur = start;
        while depth[cur] == usize::MAX {
            chain.push(cur);
            if chain.len() > n {
                return Err(malformed(format!("parent pointers cycle near node {cur}")));
            }
            let p = parents[cur];
            if p >= n {
                return Err(malformed(format!("node {cur} has out-of-range parent {p}")));
            }
            cur = p;
        }
        let mut d = depth[cur];
        for &v in chain.iter().rev() {
            d += 1;
            depth[v] = d;
        }
    }
    Ok(depth)
}

fn lca(parents: &[usize], depth: &[usize], mut a: usize, mut b: usize) -> usize {
    while depth[a] > depth[b] {
        a = parents[a];
    }
    while depth[b] > depth[a] {
        b = parents[b];
    }
    while a != b {
        a = parents[a];
        b = parents[b];
    }
    a
}

/// Nodes whose incoming edge lies on the path from `v` up to (excluding)
/// `ancestor`.
fn path_up(parents: &[usize], mut v: usize, ancestor: usize) -> Vec<usize> {
    let mut out = Vec::new();
    while v != ancestor {
        out.push(v);
        v = parents[v];
    }
    out
}

/// Rounds `num / den` to `f64` with ~1 ulp of slack: gcd-reduce, rescale
/// the numerator so the integer quotient keeps 64 significant bits, then
/// undo the scaling in the float domain.
pub(crate) fn ratio_to_f64(num: &BigInt, den: &BigUint) -> f64 {
    if num.is_zero() {
        return 0.0;
    }
    let g = num.magnitude().gcd(den);
    let (n, _) = num.magnitude().div_rem(&g);
    let (d, _) = den.div_rem(&g);
    let shift = (d.bit_len() + 64).saturating_sub(n.bit_len());
    let (q, _) = n.shl(shift).div_rem(&d);
    let v = q.to_f64() * 2.0f64.powi(-(shift.min(i32::MAX as u64) as i32));
    if num.signum() < 0 {
        -v
    } else {
        v
    }
}

struct Window {
    lo: Rational,
    hi: Option<Rational>,
}

enum Sense {
    Ge,
    Le,
}

/// Collected `<=` rows with exact dyadic right-hand sides, pre-scaling:
/// `(free columns, shared coefficient ±1, rhs)`.
struct Assembly {
    rows: Vec<(Vec<usize>, i64, Rational)>,
    pruned: u64,
}

impl Assembly {
    /// Folds a path-sum row `sum(path) {>=,<=} bound` into the system:
    /// fixed edges move to the right-hand side, trivially satisfied rows
    /// are pruned, and an exactly violated row (all-fixed, or an upper
    /// bound a non-negative sum can never reach) is infeasibility
    /// (`Err`).
    fn push(
        &mut self,
        nodes: &[usize],
        sense: Sense,
        bound: &Rational,
        var_of: &[Option<usize>],
        fixed: &[Option<Rational>],
    ) -> Result<(), ()> {
        let mut cols = Vec::new();
        let mut rhs = bound.clone();
        for &v in nodes {
            if let Some(k) = var_of[v] {
                cols.push(k);
            } else {
                let f = fixed[v].as_ref().expect("non-variable edges are fixed");
                rhs = rhs.sub(f);
            }
        }
        match sense {
            Sense::Ge => {
                // sum(free) >= rhs: trivially true when rhs <= 0 (the sum
                // is non-negative), exactly violated when no free edge
                // remains and rhs > 0.
                if rhs.signum() <= 0 {
                    self.pruned += 1;
                } else if cols.is_empty() {
                    return Err(());
                } else {
                    self.rows.push((cols, -1, rhs.neg()));
                }
            }
            Sense::Le => {
                // sum(free) <= rhs: a non-negative sum can never land
                // below a negative rhs.
                if rhs.signum() < 0 {
                    return Err(());
                }
                if cols.is_empty() {
                    self.pruned += 1;
                } else {
                    self.rows.push((cols, 1, rhs));
                }
            }
        }
        Ok(())
    }
}

/// Solves one instance exactly. `max_pivots` caps the rational core
/// (pass `u64::MAX` for no cap).
///
/// # Errors
///
/// [`DpError::Malformed`] on structurally invalid instances,
/// [`DpError::PivotLimit`] when the cap is hit. Infeasibility is **not**
/// an error: it comes back as [`DpStatus::Infeasible`].
pub fn solve(inst: &DpInstance, max_pivots: u64) -> Result<DpSolution, DpError> {
    let mut phases = DpPhases::default();
    solve_with_phases(inst, max_pivots, &mut phases)
}

/// Like [`solve`], also reporting the wall clock spent in each stage
/// (interval sweeps / fold / rational dual simplex) for span profiling.
///
/// # Errors
///
/// Same contract as [`solve`].
pub fn solve_profiled(
    inst: &DpInstance,
    max_pivots: u64,
) -> Result<(DpSolution, DpPhases), DpError> {
    let mut phases = DpPhases::default();
    let sol = solve_with_phases(inst, max_pivots, &mut phases)?;
    Ok((sol, phases))
}

fn saturating_elapsed(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

fn solve_with_phases(
    inst: &DpInstance,
    max_pivots: u64,
    phases: &mut DpPhases,
) -> Result<DpSolution, DpError> {
    let n = inst.parents.len();
    if n == 0 {
        return Err(malformed("empty topology"));
    }
    if inst.root >= n {
        return Err(malformed(format!("root {} out of range", inst.root)));
    }
    if inst.weights.len() != n {
        return Err(malformed(format!(
            "{} weights for {} nodes",
            inst.weights.len(),
            n
        )));
    }
    for (v, &w) in inst.weights.iter().enumerate() {
        if v != inst.root && (!w.is_finite() || w < 0.0) {
            return Err(malformed(format!("weight of edge into node {v} is {w}")));
        }
    }
    for &z in &inst.zero_edges {
        if z >= n {
            return Err(malformed(format!("zero edge on out-of-range node {z}")));
        }
    }
    for s in &inst.sinks {
        if s.node >= n {
            return Err(malformed(format!("sink on out-of-range node {}", s.node)));
        }
        if s.lower.is_nan() || s.upper.is_nan() || s.upper == f64::NEG_INFINITY {
            return Err(malformed(format!(
                "sink {} has window [{}, {}]",
                s.node, s.lower, s.upper
            )));
        }
    }
    for p in &inst.pairs {
        if p.a >= n || p.b >= n {
            return Err(malformed(format!("pair ({}, {}) out of range", p.a, p.b)));
        }
        if !p.dist.is_finite() {
            return Err(malformed(format!(
                "pair ({}, {}) has distance {}",
                p.a, p.b, p.dist
            )));
        }
    }
    let depth = depths(&inst.parents, inst.root)?;

    // ---- Seed the windows. --------------------------------------------
    let mut window: Vec<Window> = (0..n)
        .map(|_| Window {
            lo: Rational::zero(),
            hi: None,
        })
        .collect();
    window[inst.root].hi = Some(Rational::zero());
    for s in &inst.sinks {
        let w = &mut window[s.node];
        if s.lower > 0.0 {
            let lo = Rational::from_f64(s.lower).expect("validated finite");
            if lo.cmp_val(&w.lo) == Ordering::Greater {
                w.lo = lo;
            }
        }
        if s.upper.is_finite() {
            let hi = Rational::from_f64(s.upper).expect("validated finite");
            match &w.hi {
                Some(cur) if cur.cmp_val(&hi) != Ordering::Greater => {}
                _ => w.hi = Some(hi),
            }
        }
    }
    let init_lo: Vec<Rational> = window.iter().map(|w| w.lo.clone()).collect();
    let init_hi: Vec<Option<Rational>> = window.iter().map(|w| w.hi.clone()).collect();

    // ---- Stage 1: interval DP. ----------------------------------------
    let mut order_down: Vec<usize> = (0..n).collect();
    order_down.sort_by_key(|&v| (depth[v], v));
    let pair_rows: Vec<PairRow> = inst
        .pairs
        .iter()
        .filter(|p| p.dist > 0.0)
        .map(|p| PairRow {
            a: p.a,
            b: p.b,
            lca: lca(&inst.parents, &depth, p.a, p.b),
            dist: Rational::from_f64(p.dist).expect("validated finite"),
        })
        .collect();
    let t_sweeps = Instant::now();
    let iv = intervals::propagate(
        &inst.parents,
        inst.root,
        &order_down,
        &inst.zero_edges,
        &pair_rows,
        init_lo.clone(),
        init_hi.clone(),
    );
    phases.sweeps_ns = saturating_elapsed(t_sweeps);
    let mut report = DpReport {
        sweeps: iv.sweeps,
        ..DpReport::default()
    };
    let infeasible = |report: DpReport| {
        Ok(DpSolution {
            status: DpStatus::Infeasible,
            lengths: Vec::new(),
            objective: f64::NAN,
            report,
        })
    };
    if iv.empty_at.is_some() {
        report.interval_infeasible = true;
        return infeasible(report);
    }

    // ---- Stage 2: fold fixed edges, number the rest. ------------------
    // `fixed[v]` is the exact length of the edge into `v` when the
    // intervals pin it on the whole feasible set; `var_of[v]` numbers the
    // remaining free edges.
    let t_fold = Instant::now();
    let zero_edge = {
        let mut mask = vec![false; n];
        for &z in &inst.zero_edges {
            mask[z] = true;
        }
        mask
    };
    let mut fixed: Vec<Option<Rational>> = vec![None; n];
    let mut var_of: Vec<Option<usize>> = vec![None; n];
    let mut ncols = 0usize;
    for &v in &order_down {
        if v == inst.root {
            continue;
        }
        let p = inst.parents[v];
        if zero_edge[v] {
            fixed[v] = Some(Rational::zero());
        } else if iv.hi[v]
            .as_ref()
            .is_some_and(|h| h.cmp_val(&iv.lo[p]) == Ordering::Equal)
        {
            // d_v <= hi_v = lo_p <= d_p <= d_v on every feasible point.
            fixed[v] = Some(Rational::zero());
        } else if iv.lo[v].cmp_val(iv.hi[v].as_ref().unwrap_or(&iv.lo[v])) == Ordering::Equal
            && iv.hi[v].is_some()
            && iv.lo[p].cmp_val(iv.hi[p].as_ref().unwrap_or(&iv.lo[p])) == Ordering::Equal
            && iv.hi[p].is_some()
        {
            // Both endpoint delays are pinned, so the edge length is too.
            fixed[v] = Some(iv.lo[v].sub(&iv.lo[p]));
        } else {
            var_of[v] = Some(ncols);
            ncols += 1;
        }
    }
    report.fixed_vars = fixed.iter().flatten().count() as u64;

    // ---- Assemble the edge-length rows. -------------------------------
    let mut asm = Assembly {
        rows: Vec::new(),
        pruned: 0,
    };
    // Sink windows: pathlength rows against the seeded windows.
    for v in 0..n {
        let path = path_up(&inst.parents, v, inst.root);
        if init_lo[v].signum() > 0
            && asm
                .push(&path, Sense::Ge, &init_lo[v].clone(), &var_of, &fixed)
                .is_err()
        {
            return infeasible(report);
        }
        if let Some(hi) = init_hi[v].clone() {
            if v != inst.root && asm.push(&path, Sense::Le, &hi, &var_of, &fixed).is_err() {
                return infeasible(report);
            }
        }
    }
    // Separation rows, with the sound window-based prune: d_c is bounded
    // above by every descendant sink's window (and is zero at the root),
    // and the kept window rows enforce lo_a, lo_b — so
    // `lo_a + lo_b - 2 min(u_a, u_b) >= D` (or `lo_a + lo_b >= D` at the
    // root) proves the row redundant *in the reduced system*.
    for p in &inst.pairs {
        if p.dist <= 0.0 {
            asm.pruned += 1;
            continue;
        }
        let c = lca(&inst.parents, &depth, p.a, p.b);
        let dist = Rational::from_f64(p.dist).expect("validated finite");
        let lo_sum = init_lo[p.a].add(&init_lo[p.b]);
        let implied = if c == inst.root {
            lo_sum.ge(&dist)
        } else {
            match (&init_hi[p.a], &init_hi[p.b]) {
                (Some(ua), Some(ub)) => {
                    let u = if ua.le(ub) { ua } else { ub };
                    lo_sum.sub(u).sub(u).ge(&dist)
                }
                _ => false,
            }
        };
        if implied {
            asm.pruned += 1;
            continue;
        }
        let mut nodes = path_up(&inst.parents, p.a, c);
        nodes.extend(path_up(&inst.parents, p.b, c));
        if asm.push(&nodes, Sense::Ge, &dist, &var_of, &fixed).is_err() {
            return infeasible(report);
        }
    }
    report.rows_pruned = asm.pruned;
    report.rows = asm.rows.len() as u64;

    // ---- Scale onto a common power-of-two denominator. ----------------
    let k_rhs = asm
        .rows
        .iter()
        .map(|(_, _, rhs)| rhs.exponent())
        .max()
        .unwrap_or(0);
    let core_rows: Vec<LeRow> = asm
        .rows
        .iter()
        .map(|(cols, coef, rhs)| LeRow {
            coefs: cols.iter().map(|&k| (k, *coef)).collect(),
            rhs: rhs.numerator().shl(k_rhs - rhs.exponent()),
        })
        .collect();
    // Index the objective by *column*: `var_of` numbers the free edges in
    // depth order, which need not match ascending node order.
    let mut obj_rat: Vec<Rational> = vec![Rational::zero(); ncols];
    for (v, slot) in var_of.iter().enumerate() {
        if let Some(k) = *slot {
            obj_rat[k] = Rational::from_f64(inst.weights[v]).expect("validated finite");
        }
    }
    let k_obj = obj_rat.iter().map(Rational::exponent).max().unwrap_or(0);
    let obj: Vec<BigInt> = obj_rat
        .iter()
        .map(|w| w.numerator().shl(k_obj - w.exponent()))
        .collect();

    // ---- Stage 3: exact rational core. --------------------------------
    phases.fold_ns = saturating_elapsed(t_fold);
    let t_core = Instant::now();
    let outcome = simplex::solve_core(ncols, &obj, &core_rows, max_pivots);
    phases.dual_simplex_ns = saturating_elapsed(t_core);
    match outcome {
        CoreOutcome::PivotLimit => Err(DpError::PivotLimit { limit: max_pivots }),
        CoreOutcome::Infeasible { pivots } => {
            report.pivots = pivots;
            infeasible(report)
        }
        CoreOutcome::Optimal {
            numerators,
            denom,
            pivots,
        } => {
            report.pivots = pivots;
            let len_den = denom.shl(k_rhs);
            let mut lengths = vec![0.0; n];
            let mut obj_fixed = Rational::zero();
            for v in 0..n {
                if v == inst.root {
                    continue;
                }
                if let Some(k) = var_of[v] {
                    lengths[v] = ratio_to_f64(&numerators[k], &len_den);
                } else {
                    let f = fixed[v].as_ref().expect("non-variable edges are fixed");
                    lengths[v] = f.to_f64();
                    let w = Rational::from_f64(inst.weights[v]).expect("validated finite");
                    obj_fixed = obj_fixed.add(&w.mul(f));
                }
            }
            let mut obj_num = BigInt::zero();
            for (k, c) in obj.iter().enumerate() {
                obj_num = obj_num.add(&c.mul(&numerators[k]));
            }
            let obj_den = denom.shl(k_rhs + k_obj);
            let objective = ratio_to_f64(&obj_num, &obj_den) + obj_fixed.to_f64();
            Ok(DpSolution {
                status: DpStatus::Optimal,
                lengths,
                objective,
                report,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain3(lower: f64, upper: f64) -> DpInstance {
        // 0 -> 1 -> 2, sink at 2.
        DpInstance {
            parents: vec![0, 0, 1],
            root: 0,
            weights: vec![1.0; 3],
            zero_edges: vec![],
            sinks: vec![DpSink {
                node: 2,
                lower,
                upper,
            }],
            pairs: vec![],
        }
    }

    #[test]
    fn lower_bound_pads_the_path() {
        let sol = solve(&chain3(3.5, 6.0), u64::MAX).unwrap();
        assert_eq!(sol.status, DpStatus::Optimal);
        assert_eq!(sol.lengths[1] + sol.lengths[2], 3.5);
        assert_eq!(sol.objective, 3.5);
    }

    #[test]
    fn unbounded_window_costs_nothing() {
        let sol = solve(&chain3(0.0, f64::INFINITY), u64::MAX).unwrap();
        assert_eq!(sol.status, DpStatus::Optimal);
        assert_eq!(sol.objective, 0.0);
        // No rows survive: the whole solve is the interval DP.
        assert_eq!(sol.report.rows, 0);
        assert_eq!(sol.report.pivots, 0);
    }

    #[test]
    fn interval_dp_certifies_window_inversion() {
        // Sink 1 in [5, 6], its child sink 2 in [0, 1]: monotonicity makes
        // this empty before any LP-like machinery runs.
        let inst = DpInstance {
            parents: vec![0, 0, 1],
            root: 0,
            weights: vec![1.0; 3],
            zero_edges: vec![],
            sinks: vec![
                DpSink {
                    node: 1,
                    lower: 5.0,
                    upper: 6.0,
                },
                DpSink {
                    node: 2,
                    lower: 0.0,
                    upper: 1.0,
                },
            ],
            pairs: vec![],
        };
        let sol = solve(&inst, u64::MAX).unwrap();
        assert_eq!(sol.status, DpStatus::Infeasible);
        assert!(sol.report.interval_infeasible);
        assert!(sol.objective.is_nan());
    }

    #[test]
    fn half_integral_separation_optimum_is_exact() {
        // Three sinks under the root, pairwise distance 1: the unique
        // optimum is l = (1/2, 1/2, 1/2), objective 3/2 — beyond any
        // integral DP, exact for the rational core.
        let inst = DpInstance {
            parents: vec![0, 0, 0, 0],
            root: 0,
            weights: vec![1.0; 4],
            zero_edges: vec![],
            sinks: (1..4)
                .map(|v| DpSink {
                    node: v,
                    lower: 0.0,
                    upper: f64::INFINITY,
                })
                .collect(),
            pairs: vec![
                DpPair {
                    a: 1,
                    b: 2,
                    dist: 1.0,
                },
                DpPair {
                    a: 2,
                    b: 3,
                    dist: 1.0,
                },
                DpPair {
                    a: 1,
                    b: 3,
                    dist: 1.0,
                },
            ],
        };
        let sol = solve(&inst, u64::MAX).unwrap();
        assert_eq!(sol.status, DpStatus::Optimal);
        assert_eq!(sol.objective, 1.5);
        for v in 1..4 {
            assert_eq!(sol.lengths[v], 0.5);
        }
        assert!(sol.report.pivots > 0);
    }

    #[test]
    fn separation_vs_windows_infeasibility_is_exact() {
        // Two sinks in [0, 1] that must sit 10 apart: infeasible, caught
        // exactly (by the interval DP's pair rule here).
        let inst = DpInstance {
            parents: vec![0, 0, 0],
            root: 0,
            weights: vec![1.0; 3],
            zero_edges: vec![],
            sinks: (1..3)
                .map(|v| DpSink {
                    node: v,
                    lower: 0.0,
                    upper: 1.0,
                })
                .collect(),
            pairs: vec![DpPair {
                a: 1,
                b: 2,
                dist: 10.0,
            }],
        };
        let sol = solve(&inst, u64::MAX).unwrap();
        assert_eq!(sol.status, DpStatus::Infeasible);
    }

    #[test]
    fn zero_edges_are_folded_out() {
        // 0 -> 1 -> 2 with a zero edge into 1 and sink 2 in [2, 2]: all
        // length on edge 2, edge 1 exactly zero.
        let inst = DpInstance {
            parents: vec![0, 0, 1],
            root: 0,
            weights: vec![1.0; 3],
            zero_edges: vec![1],
            sinks: vec![DpSink {
                node: 2,
                lower: 2.0,
                upper: 2.0,
            }],
            pairs: vec![],
        };
        let sol = solve(&inst, u64::MAX).unwrap();
        assert_eq!(sol.status, DpStatus::Optimal);
        assert_eq!(sol.lengths[1], 0.0);
        assert_eq!(sol.lengths[2], 2.0);
        assert!(sol.report.fixed_vars >= 1);
    }

    #[test]
    fn weights_scale_the_objective() {
        let mut inst = chain3(4.0, 8.0);
        inst.weights = vec![0.0, 3.0, 0.25];
        // Cheapest padding goes on the 0.25-weighted edge.
        let sol = solve(&inst, u64::MAX).unwrap();
        assert_eq!(sol.status, DpStatus::Optimal);
        assert_eq!(sol.lengths[1], 0.0);
        assert_eq!(sol.lengths[2], 4.0);
        assert_eq!(sol.objective, 1.0);
    }

    #[test]
    fn pivot_cap_is_enforced() {
        let inst = chain3(3.0, 6.0);
        assert!(matches!(
            solve(&inst, 0),
            Err(DpError::PivotLimit { limit: 0 })
        ));
    }

    #[test]
    fn malformed_instances_are_rejected() {
        let mut cyc = chain3(1.0, 2.0);
        cyc.parents = vec![0, 2, 1];
        assert!(matches!(solve(&cyc, u64::MAX), Err(DpError::Malformed(_))));

        let mut bad_w = chain3(1.0, 2.0);
        bad_w.weights[2] = -1.0;
        assert!(matches!(
            solve(&bad_w, u64::MAX),
            Err(DpError::Malformed(_))
        ));

        let mut bad_sink = chain3(1.0, 2.0);
        bad_sink.sinks[0].node = 9;
        assert!(matches!(
            solve(&bad_sink, u64::MAX),
            Err(DpError::Malformed(_))
        ));

        let mut bad_pair = chain3(1.0, 2.0);
        bad_pair.pairs = vec![DpPair {
            a: 1,
            b: 2,
            dist: f64::NAN,
        }];
        assert!(matches!(
            solve(&bad_pair, u64::MAX),
            Err(DpError::Malformed(_))
        ));
    }

    #[test]
    fn solves_are_deterministic() {
        let inst = DpInstance {
            parents: vec![0, 0, 1, 1, 0],
            root: 0,
            weights: vec![1.0, 2.0, 1.0, 0.5, 1.5],
            zero_edges: vec![],
            sinks: vec![
                DpSink {
                    node: 2,
                    lower: 3.25,
                    upper: 7.5,
                },
                DpSink {
                    node: 3,
                    lower: 2.0,
                    upper: 6.0,
                },
                DpSink {
                    node: 4,
                    lower: 1.0,
                    upper: 4.0,
                },
            ],
            pairs: vec![
                DpPair {
                    a: 2,
                    b: 3,
                    dist: 2.5,
                },
                DpPair {
                    a: 2,
                    b: 4,
                    dist: 4.0,
                },
                DpPair {
                    a: 3,
                    b: 4,
                    dist: 3.0,
                },
            ],
        };
        let a = solve(&inst, u64::MAX).unwrap();
        let b = solve(&inst, u64::MAX).unwrap();
        assert_eq!(a, b);
        assert_eq!(
            a.lengths.iter().map(|l| l.to_bits()).collect::<Vec<_>>(),
            b.lengths.iter().map(|l| l.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn optimal_solutions_satisfy_every_constraint_exactly() {
        // Re-check a solved instance with exact arithmetic: pathlengths in
        // window, separation satisfied (up to the f64 rounding of the
        // reported lengths — bounded by 1e-12 relative here).
        let inst = DpInstance {
            parents: vec![0, 0, 1, 1, 0, 4],
            root: 0,
            weights: vec![1.0; 6],
            zero_edges: vec![4],
            sinks: vec![
                DpSink {
                    node: 2,
                    lower: 4.5,
                    upper: 9.0,
                },
                DpSink {
                    node: 3,
                    lower: 4.0,
                    upper: 8.0,
                },
                DpSink {
                    node: 5,
                    lower: 2.25,
                    upper: 5.0,
                },
            ],
            pairs: vec![
                DpPair {
                    a: 2,
                    b: 3,
                    dist: 3.0,
                },
                DpPair {
                    a: 2,
                    b: 5,
                    dist: 6.5,
                },
                DpPair {
                    a: 3,
                    b: 5,
                    dist: 5.75,
                },
            ],
        };
        let sol = solve(&inst, u64::MAX).unwrap();
        assert_eq!(sol.status, DpStatus::Optimal);
        let d = |mut v: usize| {
            let mut s = 0.0;
            while v != 0 {
                s += sol.lengths[v];
                v = inst.parents[v];
            }
            s
        };
        let tol = 1e-9;
        for s in &inst.sinks {
            assert!(d(s.node) >= s.lower - tol, "sink {}", s.node);
            assert!(d(s.node) <= s.upper + tol, "sink {}", s.node);
        }
        assert_eq!(sol.lengths[4], 0.0, "zero edge");
        for p in &inst.pairs {
            let c = super::lca(&inst.parents, &depths(&inst.parents, 0).unwrap(), p.a, p.b);
            assert!(d(p.a) + d(p.b) - 2.0 * d(c) >= p.dist - tol);
        }
        // The objective matches the reported lengths.
        let total: f64 = (1..6).map(|v| inst.weights[v] * sol.lengths[v]).sum();
        assert!((sol.objective - total).abs() <= tol);
    }
}
