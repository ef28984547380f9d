//! Classic LP test problems: textbook instances with known optima and
//! known failure modes (cycling, exponential pivot paths, degeneracy).

use lubt_lp::{Cmp, LinExpr, LpSolve, Model, RevisedSolver, SimplexSolver, Status};

fn expr(terms: &[(lubt_lp::Var, f64)]) -> LinExpr {
    LinExpr::from_terms(terms.iter().copied())
}

/// Beale's classic cycling example: a degenerate LP on which the plain
/// Dantzig rule cycles forever without anti-cycling. Optimum 0.05 at
/// x = (1/25, 0, 1, 0).
///
/// min -0.75 x4 + 150 x5 - 0.02 x6 + 6 x7
/// s.t. 0.25 x4 - 60 x5 - 0.04 x6 + 9 x7 <= 0
///      0.5  x4 - 90 x5 - 0.02 x6 + 3 x7 <= 0
///      x6 <= 1
#[test]
fn beale_cycling_example_terminates_at_optimum() {
    let mut m = Model::new();
    let x4 = m.add_var(0.0, -0.75);
    let x5 = m.add_var(0.0, 150.0);
    let x6 = m.add_var(0.0, -0.02);
    let x7 = m.add_var(0.0, 6.0);
    m.add_constraint(
        expr(&[(x4, 0.25), (x5, -60.0), (x6, -1.0 / 25.0), (x7, 9.0)]),
        Cmp::Le,
        0.0,
    );
    m.add_constraint(
        expr(&[(x4, 0.5), (x5, -90.0), (x6, -1.0 / 50.0), (x7, 3.0)]),
        Cmp::Le,
        0.0,
    );
    m.add_constraint(expr(&[(x6, 1.0)]), Cmp::Le, 1.0);
    let s = SimplexSolver::new().solve(&m).unwrap();
    assert_eq!(s.status(), Status::Optimal);
    assert!(
        (s.objective() + 0.05).abs() < 1e-9,
        "objective {}",
        s.objective()
    );
    assert!((s.value(x6) - 1.0).abs() < 1e-9);
}

/// Klee-Minty cube of dimension `n`: max 2^(n-1) x1 + ... + x_n with the
/// distorted cube constraints. Known optimum 5^n (we minimize the
/// negation). The simplex must reach it even if the pivot path is long.
fn klee_minty(n: usize) -> (Model, f64) {
    let mut m = Model::new();
    let vars: Vec<_> = (0..n)
        .map(|i| m.add_var(0.0, -(2.0f64.powi((n - 1 - i) as i32)))) // minimize -c'x
        .collect();
    for i in 0..n {
        let mut terms = Vec::new();
        for (j, &v) in vars.iter().enumerate().take(i) {
            terms.push((v, 2.0f64.powi((i - j + 1) as i32)));
        }
        terms.push((vars[i], 1.0));
        m.add_constraint(
            LinExpr::from_terms(terms),
            Cmp::Le,
            5.0f64.powi(i as i32 + 1),
        );
    }
    (m, -(5.0f64.powi(n as i32)))
}

#[test]
fn klee_minty_cubes_solve_exactly() {
    for n in 2..=7 {
        let (m, opt) = klee_minty(n);
        let s = SimplexSolver::new().solve(&m).unwrap();
        assert_eq!(s.status(), Status::Optimal, "n={n}");
        let rel = (s.objective() - opt).abs() / opt.abs();
        assert!(rel < 1e-9, "n={n}: got {}, want {opt}", s.objective());
    }
}

/// Balanced transportation problem (2 suppliers x 3 consumers) with a
/// hand-checked optimum.
///
/// supply: s1 = 20, s2 = 30; demand: d1 = 10, d2 = 25, d3 = 15
/// costs:        d1  d2  d3
///         s1     2   3   1
///         s2     5   4   8
/// Optimal shipping: s1 -> d3 (15), s1 -> d1 (5), s2 -> d1 (5), s2 -> d2 (25)
/// cost = 15*1 + 5*2 + 5*5 + 25*4 = 150.
#[test]
fn transportation_problem() {
    let mut m = Model::new();
    let costs = [[2.0, 3.0, 1.0], [5.0, 4.0, 8.0]];
    let mut x = Vec::new();
    for row in &costs {
        x.push(row.iter().map(|&c| m.add_var(0.0, c)).collect::<Vec<_>>());
    }
    let supply = [20.0, 30.0];
    let demand = [10.0, 25.0, 15.0];
    for (i, &s) in supply.iter().enumerate() {
        let e = LinExpr::from_terms(x[i].iter().map(|&v| (v, 1.0)));
        m.add_constraint(e, Cmp::Eq, s);
    }
    for (j, &d) in demand.iter().enumerate() {
        let e = LinExpr::from_terms(x.iter().map(|row| (row[j], 1.0)));
        m.add_constraint(e, Cmp::Eq, d);
    }
    let s = SimplexSolver::new().solve(&m).unwrap();
    assert_eq!(s.status(), Status::Optimal);
    assert!(
        (s.objective() - 150.0).abs() < 1e-7,
        "objective {}",
        s.objective()
    );
    // Flow conservation in the solution.
    for (i, &sup) in supply.iter().enumerate() {
        let shipped: f64 = x[i].iter().map(|&v| s.value(v)).sum();
        assert!((shipped - sup).abs() < 1e-7);
    }
}

/// A fully degenerate assignment-like LP: many optimal vertices, duplicate
/// rows, zero right-hand sides.
#[test]
fn heavily_degenerate_lp() {
    let mut m = Model::new();
    let n = 6;
    let vars = m.add_vars(n, 0.0, 1.0);
    // x_i - x_{i+1} <= 0 chain (forces x_0 <= ... <= x_{n-1}).
    for w in vars.windows(2) {
        m.add_constraint(expr(&[(w[0], 1.0), (w[1], -1.0)]), Cmp::Le, 0.0);
        // Duplicate each row to stress degeneracy handling.
        m.add_constraint(expr(&[(w[0], 1.0), (w[1], -1.0)]), Cmp::Le, 0.0);
    }
    m.add_constraint(expr(&[(vars[n - 1], 1.0)]), Cmp::Le, 10.0);
    m.add_constraint(expr(&[(vars[0], 1.0)]), Cmp::Ge, 0.0);
    let s = SimplexSolver::new().solve(&m).unwrap();
    assert_eq!(s.status(), Status::Optimal);
    // Everything at the lower bound is optimal: objective 0.
    assert!(s.objective().abs() < 1e-9);
}

/// The dual pair sanity: primal min c'x (Ax >= b) and its reported duals
/// satisfy complementary slackness on a small example.
#[test]
fn complementary_slackness() {
    let mut m = Model::new();
    let x = m.add_var(0.0, 3.0);
    let y = m.add_var(0.0, 2.0);
    m.add_constraint(expr(&[(x, 1.0), (y, 2.0)]), Cmp::Ge, 8.0); // active
    m.add_constraint(expr(&[(x, 1.0), (y, 1.0)]), Cmp::Ge, 2.0); // slack
    let s = SimplexSolver::new().solve(&m).unwrap();
    let duals = s.duals().unwrap();
    let slack1 = s.value(x) + 2.0 * s.value(y) - 8.0;
    let slack2 = s.value(x) + s.value(y) - 2.0;
    // y_i * slack_i == 0.
    assert!((duals[0] * slack1).abs() < 1e-7);
    assert!((duals[1] * slack2).abs() < 1e-7);
    // The slack row's dual is zero (it is inactive at the optimum).
    assert!(slack2 > 1.0 && duals[1].abs() < 1e-9);
}

/// One variable `x >= 0` at cost 1 under the equality rows `a·x = rhs`.
fn equalities(rows: &[(f64, f64)]) -> Model {
    let mut m = Model::new();
    let x = m.add_var(0.0, 1.0);
    for &(a, rhs) in rows {
        m.add_constraint(expr(&[(x, a)]), Cmp::Eq, rhs);
    }
    m
}

/// Equality rows that contradict each other, outright or only up to a
/// scale factor, leave the feasible region empty on both backends.
#[test]
fn contradicting_equalities_are_infeasible_on_both_backends() {
    let solvers: [&dyn LpSolve; 2] = [&SimplexSolver::new(), &RevisedSolver::new()];
    for solver in solvers {
        // x = 1 and 2x = 4: no two rows are equal, yet they contradict.
        let s = solver
            .solve(&equalities(&[(1.0, 1.0), (2.0, 4.0)]))
            .unwrap();
        assert_eq!(s.status(), Status::Infeasible);
        // x = 2 and x = 3.
        let s = solver
            .solve(&equalities(&[(1.0, 2.0), (1.0, 3.0)]))
            .unwrap();
        assert_eq!(s.status(), Status::Infeasible);
    }
}

/// A repeated equality row is redundant, not contradictory: `x = 2` twice
/// is optimal at `x = 2` on both backends.
#[test]
fn repeated_equalities_are_optimal_on_both_backends() {
    let solvers: [&dyn LpSolve; 2] = [&SimplexSolver::new(), &RevisedSolver::new()];
    for solver in solvers {
        let s = solver
            .solve(&equalities(&[(1.0, 2.0), (1.0, 2.0)]))
            .unwrap();
        assert_eq!(s.status(), Status::Optimal);
        assert!((s.objective() - 2.0).abs() < 1e-9, "{}", s.objective());
    }
}
