//! Randomized cross-validation of the LP solvers.
//!
//! * 2-variable LPs are solved exactly by brute-force vertex enumeration and
//!   compared against the simplex.

use lubt_lp::{Cmp, LinExpr, LpSolve, Model, SimplexSolver, Status};
use proptest::prelude::*;

/// One random inequality `a*x + b*y (<=|>=) r`.
#[derive(Debug, Clone)]
struct RandCon {
    a: f64,
    b: f64,
    le: bool,
    r: f64,
}

fn rand_con() -> impl Strategy<Value = RandCon> {
    (
        -3.0..3.0f64,
        -3.0..3.0f64,
        proptest::bool::ANY,
        -5.0..8.0f64,
    )
        .prop_map(|(a, b, le, r)| RandCon { a, b, le, r })
}

/// Exact 2-D optimum by enumerating intersections of active-constraint
/// pairs (including the box and the non-negativity axes).
fn brute_force_2d(cons: &[RandCon], cx: f64, cy: f64, box_hi: f64) -> Option<(f64, f64, f64)> {
    // Lines: each constraint boundary, x=0, y=0, x=box, y=box.
    let mut lines: Vec<(f64, f64, f64)> = cons.iter().map(|c| (c.a, c.b, c.r)).collect();
    lines.push((1.0, 0.0, 0.0));
    lines.push((0.0, 1.0, 0.0));
    lines.push((1.0, 0.0, box_hi));
    lines.push((0.0, 1.0, box_hi));

    let feasible = |x: f64, y: f64| -> bool {
        if !((-1e-7..=box_hi + 1e-7).contains(&x) && (-1e-7..=box_hi + 1e-7).contains(&y)) {
            return false;
        }
        cons.iter().all(|c| {
            let lhs = c.a * x + c.b * y;
            if c.le {
                lhs <= c.r + 1e-7
            } else {
                lhs >= c.r - 1e-7
            }
        })
    };

    let mut best: Option<(f64, f64, f64)> = None;
    for i in 0..lines.len() {
        for j in i + 1..lines.len() {
            let (a1, b1, r1) = lines[i];
            let (a2, b2, r2) = lines[j];
            let det = a1 * b2 - a2 * b1;
            if det.abs() < 1e-9 {
                continue;
            }
            let x = (r1 * b2 - r2 * b1) / det;
            let y = (a1 * r2 - a2 * r1) / det;
            if feasible(x, y) {
                let obj = cx * x + cy * y;
                if best.is_none_or(|(bo, _, _)| obj < bo) {
                    best = Some((obj, x, y));
                }
            }
        }
    }
    best
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Simplex agrees with exhaustive vertex enumeration on boxed 2-D LPs.
    #[test]
    fn simplex_matches_bruteforce_2d(
        cons in proptest::collection::vec(rand_con(), 1..6),
        cx in -2.0..2.0f64,
        cy in -2.0..2.0f64,
    ) {
        let box_hi = 20.0;
        let mut m = Model::new();
        let x = m.add_var(0.0, cx);
        let y = m.add_var(0.0, cy);
        for c in &cons {
            let e = LinExpr::from_terms([(x, c.a), (y, c.b)]);
            m.add_constraint(e, if c.le { Cmp::Le } else { Cmp::Ge }, c.r);
        }
        m.add_constraint(LinExpr::from_terms([(x, 1.0)]), Cmp::Le, box_hi);
        m.add_constraint(LinExpr::from_terms([(y, 1.0)]), Cmp::Le, box_hi);

        let sol = SimplexSolver::new().solve(&m).unwrap();
        match brute_force_2d(&cons, cx, cy, box_hi) {
            Some((obj, _, _)) => {
                prop_assert_eq!(sol.status(), Status::Optimal);
                prop_assert!((sol.objective() - obj).abs() < 1e-5,
                    "simplex {} vs brute force {}", sol.objective(), obj);
                prop_assert!(m.check_feasible(sol.values(), 1e-6).is_ok());
            }
            None => prop_assert_eq!(sol.status(), Status::Infeasible),
        }
    }

    /// Duals from the simplex always satisfy strong duality on feasible
    /// bounded problems.
    #[test]
    fn simplex_duals_strong_duality(
        rows in proptest::collection::vec(
            (proptest::collection::vec(0u8..3, 5), 1.0..10.0f64), 1..6),
        costs in proptest::collection::vec(0.5..3.0f64, 5),
    ) {
        let mut m = Model::new();
        let vars: Vec<_> = (0..5).map(|i| m.add_var(0.0, costs[i])).collect();
        let mut rhs_all = Vec::new();
        for (coefs, rhs) in &rows {
            let e: LinExpr = vars
                .iter()
                .enumerate()
                .filter(|&(i, _)| coefs[i] > 0)
                .map(|(i, &v)| (v, f64::from(coefs[i])))
                .collect();
            if e.terms().is_empty() {
                continue;
            }
            m.add_constraint(e, Cmp::Ge, *rhs);
            rhs_all.push(*rhs);
        }
        prop_assume!(!rhs_all.is_empty());
        let s = SimplexSolver::new().solve(&m).unwrap();
        prop_assert!(s.is_optimal());
        let duals = s.duals().expect("simplex computes duals");
        let dual_obj: f64 = duals.iter().zip(&rhs_all).map(|(y, b)| y * b).sum();
        let scale = 1.0 + s.objective().abs();
        prop_assert!((dual_obj - s.objective()).abs() / scale < 1e-6,
            "dual {} vs primal {}", dual_obj, s.objective());
        // Dual feasibility for >= rows of a min problem: y >= 0.
        for y in duals {
            prop_assert!(*y >= -1e-7);
        }
    }
}
