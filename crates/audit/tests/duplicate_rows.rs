//! Repeated rows under exact auditing.
//!
//! A model may carry the same row more than once, or a copy with its
//! right-hand side moved. Neither float backend may let that degeneracy
//! leak into its proof: the optimality certificate of a covering LP with
//! repeated rows, and the Farkas ray of a repeated row contradicted by
//! another, must both verify in exact rational arithmetic.

use lubt_audit::audit_solution;
use lubt_lp::{Cmp, LinExpr, Model, RevisedSolver, SimplexSolver, Status};
use proptest::prelude::*;

/// A covering LP (`min c'x, A x >= b`, `A >= 0`, `c > 0` — always feasible
/// and bounded) with copies of some rows, each copy's rhs moved by its
/// shift (zero repeats the row exactly).
fn covering_model(
    rows: &[(Vec<u8>, f64)],
    dups: &[(usize, f64)],
    costs: &[f64],
    n: usize,
) -> Model {
    let mut m = Model::new();
    let vars: Vec<_> = (0..n).map(|i| m.add_var(0.0, costs[i])).collect();
    let mut added: Vec<(LinExpr, f64)> = Vec::new();
    for (coefs, rhs) in rows {
        let e: LinExpr = vars
            .iter()
            .enumerate()
            .filter(|&(i, _)| coefs[i] > 0)
            .map(|(i, &v)| (v, f64::from(coefs[i])))
            .collect();
        if e.terms().is_empty() {
            continue;
        }
        m.add_constraint(e.clone(), Cmp::Ge, *rhs);
        added.push((e, *rhs));
    }
    for &(k, shift) in dups {
        if added.is_empty() {
            break;
        }
        let (e, rhs) = &added[k % added.len()];
        m.add_constraint(e.clone(), Cmp::Ge, rhs + shift);
    }
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn repeated_rows_keep_optimality_certificates_exact(
        n in 2usize..6,
        rows in proptest::collection::vec(
            (proptest::collection::vec(0u8..3, 6), 1.0..9.0f64), 1..6),
        dups in proptest::collection::vec((0usize..8, -2.0..2.0f64), 0..4),
        costs in proptest::collection::vec(0.5..3.0f64, 6),
    ) {
        let m = covering_model(&rows, &dups, &costs, n);
        prop_assume!(m.num_constraints() > 0);
        for backend in ["simplex", "revised"] {
            let (sol, cert) = if backend == "simplex" {
                SimplexSolver::new().solve_certified(&m).unwrap()
            } else {
                RevisedSolver::new().solve_certified(&m).unwrap()
            };
            prop_assert_eq!(sol.status(), Status::Optimal, "{}", backend);
            let f = audit_solution(&m, &sol, cert.as_ref());
            prop_assert!(f.is_empty(), "{}: audit {:?}", backend, f);
        }
    }

    #[test]
    fn repeated_contradicted_rows_yield_exact_farkas_rays(
        n in 1usize..4,
        gap in 0.5..5.0f64,
        cap in 1.0..10.0f64,
        dup in 0usize..3,
    ) {
        // `x0 <= cap` (several copies) against `x0 >= cap + gap`: infeasible,
        // and each backend must prove it with a Farkas ray that verifies
        // exactly, whichever copy of the repeated row the ray leans on.
        let mut m = Model::new();
        let vars: Vec<_> = (0..n).map(|_| m.add_var(0.0, 1.0)).collect();
        for _ in 0..=dup {
            m.add_constraint(LinExpr::from_terms([(vars[0], 1.0)]), Cmp::Le, cap);
        }
        m.add_constraint(LinExpr::from_terms([(vars[0], 1.0)]), Cmp::Ge, cap + gap);
        for backend in ["simplex", "revised"] {
            let (sol, cert) = if backend == "simplex" {
                SimplexSolver::new().solve_certified(&m).unwrap()
            } else {
                RevisedSolver::new().solve_certified(&m).unwrap()
            };
            prop_assert_eq!(sol.status(), Status::Infeasible, "{}", backend);
            let f = audit_solution(&m, &sol, cert.as_ref());
            prop_assert!(f.is_empty(), "{}: {:?}", backend, f);
        }
    }
}
