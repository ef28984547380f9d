//! Exact verification of LP solve outcomes against their certificates.
//!
//! All residuals, reduced costs and complementary-slackness products are
//! evaluated in exact dyadic-rational arithmetic ([`crate::exact`]); the
//! only floats involved are the *tolerances*, which are computed
//! scale-aware in `f64` and then converted exactly. A check therefore
//! never suffers rounding of its own — it either proves the inequality or
//! exhibits the violation.

use std::fmt::Write as _;

use lubt_lint::{Diagnostic, Level, Target};
use lubt_lp::{Certificate, Cmp, ColumnRole, Model, OptimalityCertificate, Solution, Status};

use crate::exact::Rational;

/// Slug of primal-feasibility findings (row residual or bound violation).
pub const PASS_PRIMAL: &str = "audit-primal-feasibility";
/// Slug of dual-feasibility findings (sign, reduced cost, malformed basis).
pub const PASS_DUAL: &str = "audit-dual-feasibility";
/// Slug of complementary-slackness findings.
pub const PASS_CS: &str = "audit-complementary-slackness";
/// Slug of objective-mismatch findings.
pub const PASS_OBJECTIVE: &str = "audit-objective";
/// Slug of Farkas-ray findings (an invalid infeasibility proof).
pub const PASS_FARKAS: &str = "audit-farkas";
/// Slug reported when a solve outcome carries no checkable certificate.
pub const PASS_MISSING: &str = "audit-certificate-missing";

fn deny(pass: &'static str, message: String, targets: Vec<Target>) -> Diagnostic {
    Diagnostic {
        pass,
        level: Level::Deny,
        message,
        targets,
        help: None,
    }
}

/// Exact conversion helper: a non-finite number in a certificate or
/// solution is itself a finding.
fn rat(x: f64, what: &str, pass: &'static str, out: &mut Vec<Diagnostic>) -> Rational {
    match Rational::from_f64(x) {
        Some(r) => r,
        None => {
            out.push(deny(pass, format!("{what} is non-finite ({x})"), vec![]));
            Rational::zero()
        }
    }
}

/// Audits a claimed-optimal solution against its certificate: primal
/// feasibility, dual feasibility, complementary slackness, and the
/// objective value, all in exact arithmetic. An empty return means every
/// check passed.
pub fn audit_optimality(
    model: &Model,
    values: &[f64],
    objective: f64,
    cert: &OptimalityCertificate,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let m = model.num_constraints();
    let n = model.num_vars();

    // ---- Certificate well-formedness. ----
    if values.len() != n {
        out.push(deny(
            PASS_PRIMAL,
            format!("solution has {} values for {} variables", values.len(), n),
            vec![],
        ));
        return out;
    }
    if cert.basis.len() != m || cert.duals.len() != m {
        out.push(deny(
            PASS_DUAL,
            format!(
                "certificate shape mismatch: basis {} / duals {} for {} rows",
                cert.basis.len(),
                cert.duals.len(),
                m
            ),
            vec![],
        ));
        return out;
    }
    for (k, role) in cert.basis.iter().enumerate() {
        let bad = match *role {
            ColumnRole::Structural(j) => j >= n,
            ColumnRole::Artificial(i) => i >= m,
            ColumnRole::Slack(i) => i >= m || model.constraints()[i].cmp() == Cmp::Eq,
        };
        if bad {
            out.push(deny(
                PASS_DUAL,
                format!("basis position {k} holds invalid column {role:?}"),
                vec![],
            ));
        }
    }
    if !out.is_empty() {
        return out;
    }
    if values.iter().any(|v| !v.is_finite()) || !objective.is_finite() {
        out.push(deny(
            PASS_PRIMAL,
            "solution carries non-finite values".to_string(),
            vec![],
        ));
        return out;
    }
    if cert.duals.iter().any(|y| !y.is_finite()) {
        out.push(deny(
            PASS_DUAL,
            "certificate duals carry non-finite values".to_string(),
            vec![],
        ));
        return out;
    }

    let xr: Vec<Rational> = values
        .iter()
        .map(|&v| Rational::from_f64(v).expect("checked finite"))
        .collect();
    let yr: Vec<Rational> = cert
        .duals
        .iter()
        .map(|&y| Rational::from_f64(y).expect("checked finite"))
        .collect();

    // ---- Primal feasibility + row complementary slackness. ----
    for (i, con) in model.constraints().iter().enumerate() {
        let mut activity = Rational::zero();
        let mut mass = 0.0f64;
        for &(v, coef) in con.expr().terms() {
            let c = rat(coef, "constraint coefficient", PASS_PRIMAL, &mut out);
            activity = activity.add(&c.mul(&xr[v.index()]));
            mass += (coef * values[v.index()]).abs();
        }
        let rhs = rat(con.rhs(), "constraint rhs", PASS_PRIMAL, &mut out);
        let slack = rhs.sub(&activity); // rhs - a·x
        let tol = rat(
            1e-6 * (1.0 + con.rhs().abs() + mass),
            "tolerance",
            PASS_PRIMAL,
            &mut out,
        );
        let violated = match con.cmp() {
            Cmp::Le => slack.add(&tol).signum() < 0,
            Cmp::Ge => slack.sub(&tol).signum() > 0,
            Cmp::Eq => slack.abs().cmp_val(&tol) == std::cmp::Ordering::Greater,
        };
        if violated {
            let mut msg = format!(
                "row {i} violated exactly: activity - rhs = {:.3e}",
                slack.neg().to_f64()
            );
            let _ = write!(
                msg,
                " (tolerance {:.3e})",
                1e-6 * (1.0 + con.rhs().abs() + mass)
            );
            out.push(deny(PASS_PRIMAL, msg, vec![Target::Row(i)]));
        }

        // Complementary slackness: y_i * (rhs_i - a_i x) must vanish.
        let p = yr[i].mul(&slack);
        let cs_tol = rat(
            1e-5 * (1.0 + cert.duals[i].abs()) * (1.0 + con.rhs().abs() + mass),
            "tolerance",
            PASS_CS,
            &mut out,
        );
        if p.abs().cmp_val(&cs_tol) == std::cmp::Ordering::Greater {
            out.push(deny(
                PASS_CS,
                format!(
                    "row {i}: dual {:.3e} times slack {:.3e} is nonzero exactly",
                    cert.duals[i],
                    slack.to_f64()
                ),
                vec![Target::Row(i)],
            ));
        }
    }

    // ---- Variable lower bounds. ----
    for var in model.vars() {
        let j = var.index();
        let lb = model.lower_bound(var);
        let tol = rat(1e-7 * (1.0 + lb.abs()), "tolerance", PASS_PRIMAL, &mut out);
        let lbr = rat(lb, "lower bound", PASS_PRIMAL, &mut out);
        if xr[j].add(&tol).cmp_val(&lbr) == std::cmp::Ordering::Less {
            out.push(deny(
                PASS_PRIMAL,
                format!(
                    "variable {j} = {:.6e} sits below its lower bound {lb}",
                    values[j]
                ),
                vec![],
            ));
        }
    }

    // ---- Objective recomputation. ----
    let mut obj = Rational::zero();
    for var in model.vars() {
        let c = rat(
            model.cost(var),
            "objective coefficient",
            PASS_OBJECTIVE,
            &mut out,
        );
        obj = obj.add(&c.mul(&xr[var.index()]));
    }
    let claimed = rat(objective, "objective", PASS_OBJECTIVE, &mut out);
    let obj_tol = rat(
        1e-6 * (1.0 + objective.abs()),
        "tolerance",
        PASS_OBJECTIVE,
        &mut out,
    );
    if obj.sub(&claimed).abs().cmp_val(&obj_tol) == std::cmp::Ordering::Greater {
        out.push(deny(
            PASS_OBJECTIVE,
            format!(
                "claimed objective {objective} but exact recomputation gives {:.9e}",
                obj.to_f64()
            ),
            vec![],
        ));
    }

    // ---- Dual feasibility: sign conditions. ----
    let y_max = cert.duals.iter().fold(0.0f64, |a, y| a.max(y.abs()));
    let tol_y = rat(1e-7 * (1.0 + y_max), "tolerance", PASS_DUAL, &mut out);
    for (i, con) in model.constraints().iter().enumerate() {
        let bad = match con.cmp() {
            // Minimization with `>=` rows: duals are non-negative; `<=`
            // rows: non-positive; equalities are free.
            Cmp::Ge => yr[i].add(&tol_y).signum() < 0,
            Cmp::Le => yr[i].sub(&tol_y).signum() > 0,
            Cmp::Eq => false,
        };
        if bad {
            out.push(deny(
                PASS_DUAL,
                format!(
                    "row {i} ({:?}) has wrong-signed dual {:.6e}",
                    con.cmp(),
                    cert.duals[i]
                ),
                vec![Target::Row(i)],
            ));
        }
    }

    // ---- Reduced costs (d_j = c_j - a_j·y >= 0) + variable CS. ----
    let mut aty: Vec<Rational> = vec![Rational::zero(); n];
    let mut aty_mass = vec![0.0f64; n];
    for (i, con) in model.constraints().iter().enumerate() {
        for &(v, coef) in con.expr().terms() {
            let c = rat(coef, "constraint coefficient", PASS_DUAL, &mut out);
            aty[v.index()] = aty[v.index()].add(&c.mul(&yr[i]));
            aty_mass[v.index()] += (coef * cert.duals[i]).abs();
        }
    }
    for var in model.vars() {
        let j = var.index();
        let cj = model.cost(var);
        let d = rat(cj, "objective coefficient", PASS_DUAL, &mut out).sub(&aty[j]);
        let tol_j = rat(
            1e-6 * (1.0 + cj.abs() + aty_mass[j]),
            "tolerance",
            PASS_DUAL,
            &mut out,
        );
        if d.add(&tol_j).signum() < 0 {
            out.push(deny(
                PASS_DUAL,
                format!(
                    "variable {j} has negative reduced cost {:.6e} exactly",
                    d.to_f64()
                ),
                vec![],
            ));
        }
        // Variable-side complementary slackness: d_j * (x_j - l_j) = 0.
        let gap = xr[j].sub(&rat(
            model.lower_bound(var),
            "lower bound",
            PASS_CS,
            &mut out,
        ));
        let q = d.mul(&gap);
        let cs_tol = rat(
            1e-5 * (1.0 + (values[j] - model.lower_bound(var)).abs())
                * (1.0 + cj.abs() + aty_mass[j]),
            "tolerance",
            PASS_CS,
            &mut out,
        );
        if q.abs().cmp_val(&cs_tol) == std::cmp::Ordering::Greater {
            out.push(deny(
                PASS_CS,
                format!(
                    "variable {j}: reduced cost {:.3e} times bound gap {:.3e} is nonzero exactly",
                    d.to_f64(),
                    gap.to_f64()
                ),
                vec![],
            ));
        }
    }

    out
}

/// Audits primal feasibility and the objective only — the certificate-free
/// subset used for solutions that carry no basis, such as the rounded
/// optimum of the exact DP oracle.
pub fn audit_primal(model: &Model, values: &[f64], objective: f64) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let n = model.num_vars();
    if values.len() != n {
        out.push(deny(
            PASS_PRIMAL,
            format!("solution has {} values for {} variables", values.len(), n),
            vec![],
        ));
        return out;
    }
    if values.iter().any(|v| !v.is_finite()) || !objective.is_finite() {
        out.push(deny(
            PASS_PRIMAL,
            "solution carries non-finite values".to_string(),
            vec![],
        ));
        return out;
    }
    let xr: Vec<Rational> = values
        .iter()
        .map(|&v| Rational::from_f64(v).expect("checked finite"))
        .collect();
    for (i, con) in model.constraints().iter().enumerate() {
        let mut activity = Rational::zero();
        let mut mass = 0.0f64;
        for &(v, coef) in con.expr().terms() {
            let c = rat(coef, "constraint coefficient", PASS_PRIMAL, &mut out);
            activity = activity.add(&c.mul(&xr[v.index()]));
            mass += (coef * values[v.index()]).abs();
        }
        let rhs = rat(con.rhs(), "constraint rhs", PASS_PRIMAL, &mut out);
        let slack = rhs.sub(&activity);
        let tol = rat(
            1e-6 * (1.0 + con.rhs().abs() + mass),
            "tolerance",
            PASS_PRIMAL,
            &mut out,
        );
        let violated = match con.cmp() {
            Cmp::Le => slack.add(&tol).signum() < 0,
            Cmp::Ge => slack.sub(&tol).signum() > 0,
            Cmp::Eq => slack.abs().cmp_val(&tol) == std::cmp::Ordering::Greater,
        };
        if violated {
            out.push(deny(
                PASS_PRIMAL,
                format!(
                    "row {i} violated exactly: activity - rhs = {:.3e}",
                    slack.neg().to_f64()
                ),
                vec![Target::Row(i)],
            ));
        }
    }
    for var in model.vars() {
        let j = var.index();
        let lb = model.lower_bound(var);
        let tol = rat(1e-7 * (1.0 + lb.abs()), "tolerance", PASS_PRIMAL, &mut out);
        let lbr = rat(lb, "lower bound", PASS_PRIMAL, &mut out);
        if xr[j].add(&tol).cmp_val(&lbr) == std::cmp::Ordering::Less {
            out.push(deny(
                PASS_PRIMAL,
                format!(
                    "variable {j} = {:.6e} sits below its lower bound {lb}",
                    values[j]
                ),
                vec![],
            ));
        }
    }
    let mut obj = Rational::zero();
    for var in model.vars() {
        let c = rat(
            model.cost(var),
            "objective coefficient",
            PASS_OBJECTIVE,
            &mut out,
        );
        obj = obj.add(&c.mul(&xr[var.index()]));
    }
    let claimed = rat(objective, "objective", PASS_OBJECTIVE, &mut out);
    let obj_tol = rat(
        1e-6 * (1.0 + objective.abs()),
        "tolerance",
        PASS_OBJECTIVE,
        &mut out,
    );
    if obj.sub(&claimed).abs().cmp_val(&obj_tol) == std::cmp::Ordering::Greater {
        out.push(deny(
            PASS_OBJECTIVE,
            format!(
                "claimed objective {objective} but exact recomputation gives {:.9e}",
                obj.to_f64()
            ),
            vec![],
        ));
    }
    out
}

/// Audits a Farkas infeasibility certificate: with the variable shift
/// `x = x' + lb` (`x' >= 0`) and shifted rhs `b'_i = rhs_i - a_i·lb`, a
/// valid ray satisfies the sign conditions (`r_i <= 0` on `<=` rows,
/// `r_i >= 0` on `>=` rows), drives every column non-positive
/// (`sum_i r_i a_ij <= 0`), and achieves a strictly positive gap
/// `sum_i r_i b'_i > 0` — which proves the feasible region empty.
pub fn audit_farkas(model: &Model, ray: &[f64]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let m = model.num_constraints();
    if ray.len() != m {
        out.push(deny(
            PASS_FARKAS,
            format!("Farkas ray has {} entries for {} rows", ray.len(), m),
            vec![],
        ));
        return out;
    }
    if ray.iter().any(|r| !r.is_finite()) {
        out.push(deny(
            PASS_FARKAS,
            "Farkas ray carries non-finite entries".to_string(),
            vec![],
        ));
        return out;
    }
    let rr: Vec<Rational> = ray
        .iter()
        .map(|&r| Rational::from_f64(r).expect("checked finite"))
        .collect();

    // ---- Sign conditions. ----
    let r_max = ray.iter().fold(0.0f64, |a, r| a.max(r.abs()));
    let tol_sign = rat(1e-9 * (1.0 + r_max), "tolerance", PASS_FARKAS, &mut out);
    for (i, con) in model.constraints().iter().enumerate() {
        let bad = match con.cmp() {
            Cmp::Le => rr[i].sub(&tol_sign).signum() > 0,
            Cmp::Ge => rr[i].add(&tol_sign).signum() < 0,
            Cmp::Eq => false,
        };
        if bad {
            out.push(deny(
                PASS_FARKAS,
                format!(
                    "ray entry {i} has the wrong sign for a {:?} row: {:.6e}",
                    con.cmp(),
                    ray[i]
                ),
                vec![Target::Row(i)],
            ));
        }
    }

    // ---- Column condition: sum_i r_i a_ij <= 0 for every variable. ----
    let n = model.num_vars();
    let mut col = vec![Rational::zero(); n];
    let mut col_mass = vec![0.0f64; n];
    for (i, con) in model.constraints().iter().enumerate() {
        for &(v, coef) in con.expr().terms() {
            let c = rat(coef, "constraint coefficient", PASS_FARKAS, &mut out);
            col[v.index()] = col[v.index()].add(&c.mul(&rr[i]));
            col_mass[v.index()] += (coef * ray[i]).abs();
        }
    }
    for j in 0..n {
        let tol_j = rat(
            1e-6 * (1.0 + col_mass[j]),
            "tolerance",
            PASS_FARKAS,
            &mut out,
        );
        if col[j].sub(&tol_j).signum() > 0 {
            out.push(deny(
                PASS_FARKAS,
                format!(
                    "ray fails the column condition on variable {j}: sum r_i a_ij = {:.6e} > 0",
                    col[j].to_f64()
                ),
                vec![],
            ));
        }
    }

    // ---- Strictly positive gap on the shifted rhs. ----
    let mut gap = Rational::zero();
    let mut gap_f64 = 0.0f64;
    let mut mass = 0.0f64;
    for (i, con) in model.constraints().iter().enumerate() {
        let mut shifted = rat(con.rhs(), "constraint rhs", PASS_FARKAS, &mut out);
        let mut shifted_f64 = con.rhs();
        for &(v, coef) in con.expr().terms() {
            let c = rat(coef, "constraint coefficient", PASS_FARKAS, &mut out);
            let lb = rat(model.lower_bound(v), "lower bound", PASS_FARKAS, &mut out);
            shifted = shifted.sub(&c.mul(&lb));
            shifted_f64 -= coef * model.lower_bound(v);
        }
        gap = gap.add(&rr[i].mul(&shifted));
        gap_f64 += ray[i] * shifted_f64;
        mass += (ray[i] * shifted_f64).abs();
    }
    if gap.signum() <= 0 || gap_f64 < 1e-9 * (1.0 + mass) {
        out.push(deny(
            PASS_FARKAS,
            format!(
                "ray proves nothing: gap sum r_i b'_i = {:.6e} is not decisively positive",
                gap.to_f64()
            ),
            vec![],
        ));
    }

    out
}

/// Dispatches on the solve outcome: optimal solutions are audited against
/// an optimality certificate, infeasible outcomes against a Farkas ray; an
/// absent or mismatched certificate is itself a deny-level finding.
/// Unbounded outcomes carry no certificate and audit vacuously.
pub fn audit_solution(
    model: &Model,
    solution: &Solution,
    cert: Option<&Certificate>,
) -> Vec<Diagnostic> {
    match (solution.status(), cert) {
        (Status::Optimal, Some(Certificate::Optimality(c))) => {
            audit_optimality(model, solution.values(), solution.objective(), c)
        }
        (Status::Infeasible, Some(Certificate::Farkas(f))) => audit_farkas(model, &f.ray),
        (Status::Unbounded, _) => Vec::new(),
        (status, got) => vec![deny(
            PASS_MISSING,
            format!(
                "{status:?} outcome has no matching certificate ({})",
                match got {
                    None => "none attached",
                    Some(Certificate::Optimality(_)) => "got optimality proof",
                    Some(Certificate::Farkas(_)) => "got Farkas ray",
                }
            ),
            vec![],
        )],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lubt_lp::{LinExpr, LpSolve, RevisedSolver, SimplexSolver};

    fn model_2var() -> Model {
        // min x + 2y  s.t.  x + y >= 3, x <= 2, bounds x,y >= 0.
        let mut m = Model::new();
        let x = m.add_var(0.0, 1.0);
        let y = m.add_var(0.0, 2.0);
        m.add_constraint(LinExpr::from_terms([(x, 1.0), (y, 1.0)]), Cmp::Ge, 3.0);
        m.add_constraint(LinExpr::from_terms([(x, 1.0)]), Cmp::Le, 2.0);
        m
    }

    #[test]
    fn dense_optimal_certificate_verifies() {
        let m = model_2var();
        let (s, cert) = SimplexSolver::new().solve_certified(&m).unwrap();
        let findings = audit_solution(&m, &s, cert.as_ref());
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn revised_optimal_certificate_verifies() {
        let m = model_2var();
        let (s, cert) = RevisedSolver::new().solve_certified(&m).unwrap();
        let findings = audit_solution(&m, &s, cert.as_ref());
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn farkas_certificates_verify_on_both_backends() {
        let mut m = Model::new();
        let x = m.add_var(0.0, 1.0);
        m.add_constraint(LinExpr::from_terms([(x, 1.0)]), Cmp::Ge, 5.0);
        m.add_constraint(LinExpr::from_terms([(x, 1.0)]), Cmp::Le, 3.0);
        for (s, cert) in [
            SimplexSolver::new().solve_certified(&m).unwrap(),
            RevisedSolver::new().solve_certified(&m).unwrap(),
        ] {
            assert_eq!(s.status(), Status::Infeasible);
            let findings = audit_solution(&m, &s, cert.as_ref());
            assert!(findings.is_empty(), "{findings:?}");
        }
    }

    #[test]
    fn corrupted_solution_is_rejected() {
        let m = model_2var();
        let (s, cert) = SimplexSolver::new().solve_certified(&m).unwrap();
        let Some(Certificate::Optimality(c)) = cert else {
            panic!("expected optimality certificate");
        };
        // Corrupt the primal point: violates row 0 exactly.
        let mut bad = s.values().to_vec();
        bad[0] = 0.0;
        bad[1] = 0.0;
        let findings = audit_optimality(&m, &bad, 0.0, &c);
        assert!(
            findings
                .iter()
                .any(|d| d.pass == PASS_PRIMAL && d.is_deny()),
            "{findings:?}"
        );
    }

    #[test]
    fn corrupted_duals_are_rejected() {
        let m = model_2var();
        let (s, cert) = SimplexSolver::new().solve_certified(&m).unwrap();
        let Some(Certificate::Optimality(mut c)) = cert else {
            panic!("expected optimality certificate");
        };
        // Wrong-signed dual on the Ge row.
        c.duals[0] = -5.0;
        let findings = audit_optimality(&m, s.values(), s.objective(), &c);
        assert!(
            findings.iter().any(|d| d.pass == PASS_DUAL && d.is_deny()),
            "{findings:?}"
        );
    }

    #[test]
    fn corrupted_farkas_ray_is_rejected() {
        let mut m = Model::new();
        let x = m.add_var(0.0, 1.0);
        m.add_constraint(LinExpr::from_terms([(x, 1.0)]), Cmp::Ge, 5.0);
        m.add_constraint(LinExpr::from_terms([(x, 1.0)]), Cmp::Le, 3.0);
        // Zero ray: gap is not positive.
        let findings = audit_farkas(&m, &[0.0, 0.0]);
        assert!(
            findings
                .iter()
                .any(|d| d.pass == PASS_FARKAS && d.is_deny()),
            "{findings:?}"
        );
        // Wrong-signed multiplier on the Le row.
        let findings = audit_farkas(&m, &[1.0, 2.0]);
        assert!(
            findings
                .iter()
                .any(|d| d.pass == PASS_FARKAS && d.is_deny()),
            "{findings:?}"
        );
    }

    #[test]
    fn missing_certificate_is_a_finding() {
        let m = model_2var();
        let s = SimplexSolver::new().solve(&m).unwrap();
        let findings = audit_solution(&m, &s, None);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].pass, PASS_MISSING);
        assert!(findings[0].is_deny());
    }

    #[test]
    fn primal_audit_accepts_a_feasible_optimum_and_rejects_a_violation() {
        let m = model_2var();
        let s = SimplexSolver::new().solve(&m).unwrap();
        let findings = audit_primal(&m, s.values(), s.objective());
        assert!(findings.is_empty(), "{findings:?}");
        let findings = audit_primal(&m, &[0.0, 0.0], 0.0);
        assert!(findings.iter().any(|d| d.pass == PASS_PRIMAL));
    }

    #[test]
    fn session_certificates_survive_warm_cut_rounds() {
        use lubt_lp::{RevisedSession, SimplexSession};
        // Grow a model across two cut rounds and audit the final
        // certificate from each session flavor.
        let mut m = Model::new();
        let x = m.add_var(0.0, 1.0);
        let y = m.add_var(0.0, 1.0);
        m.add_constraint(LinExpr::from_terms([(x, 1.0), (y, 1.0)]), Cmp::Ge, 4.0);

        let mut dense = SimplexSession::start(m.clone()).unwrap();
        dense
            .add_constraint(LinExpr::from_terms([(x, 1.0)]), Cmp::Ge, 3.0)
            .unwrap();
        dense.resolve().unwrap();
        dense
            .add_constraint(LinExpr::from_terms([(y, 1.0)]), Cmp::Ge, 1.5)
            .unwrap();
        let sol = dense.resolve().unwrap().clone();
        let cert = dense.certificate().expect("optimal session certifies");
        let findings = audit_solution(dense.model(), &sol, Some(&cert));
        assert!(findings.is_empty(), "dense session: {findings:?}");

        let mut sparse = RevisedSession::start(m).unwrap();
        sparse
            .add_constraint(LinExpr::from_terms([(x, 1.0)]), Cmp::Ge, 3.0)
            .unwrap();
        sparse.resolve().unwrap();
        sparse
            .add_constraint(LinExpr::from_terms([(y, 1.0)]), Cmp::Ge, 1.5)
            .unwrap();
        let sol = sparse.resolve().unwrap().clone();
        let cert = sparse.certificate().expect("optimal session certifies");
        let findings = audit_solution(sparse.model(), &sol, Some(&cert));
        assert!(findings.is_empty(), "revised session: {findings:?}");
    }

    #[test]
    fn session_infeasibility_yields_a_verifying_farkas_ray() {
        use lubt_lp::{RevisedSession, SimplexSession};
        let mut m = Model::new();
        let x = m.add_var(0.0, 1.0);
        m.add_constraint(LinExpr::from_terms([(x, 1.0)]), Cmp::Le, 3.0);

        let mut dense = SimplexSession::start(m.clone()).unwrap();
        dense
            .add_constraint(LinExpr::from_terms([(x, 1.0)]), Cmp::Ge, 5.0)
            .unwrap();
        assert_eq!(dense.resolve().unwrap().status(), Status::Infeasible);
        let Some(Certificate::Farkas(f)) = dense.certificate() else {
            panic!("dense session must produce a Farkas ray");
        };
        let findings = audit_farkas(dense.model(), &f.ray);
        assert!(findings.is_empty(), "dense session ray: {findings:?}");

        let mut sparse = RevisedSession::start(m).unwrap();
        sparse
            .add_constraint(LinExpr::from_terms([(x, 1.0)]), Cmp::Ge, 5.0)
            .unwrap();
        assert_eq!(sparse.resolve().unwrap().status(), Status::Infeasible);
        let Some(Certificate::Farkas(f)) = sparse.certificate() else {
            panic!("revised session must produce a Farkas ray");
        };
        let findings = audit_farkas(sparse.model(), &f.ray);
        assert!(findings.is_empty(), "revised session ray: {findings:?}");
    }
}
