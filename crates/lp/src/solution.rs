use crate::Var;
use std::fmt;

/// Outcome classification of an LP solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Status {
    /// An optimal basic solution was found.
    Optimal,
    /// The constraint system admits no feasible point.
    Infeasible,
    /// The objective is unbounded below on the feasible region.
    Unbounded,
}

impl fmt::Display for Status {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Status::Optimal => "optimal",
            Status::Infeasible => "infeasible",
            Status::Unbounded => "unbounded",
        })
    }
}

/// Result of an LP solve: status, primal values, objective and (when the
/// algorithm provides them) constraint duals.
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    status: Status,
    values: Vec<f64>,
    objective: f64,
    duals: Option<Vec<f64>>,
    iterations: usize,
}

impl Solution {
    pub(crate) fn new(
        status: Status,
        values: Vec<f64>,
        objective: f64,
        duals: Option<Vec<f64>>,
        iterations: usize,
    ) -> Self {
        Solution {
            status,
            values,
            objective,
            duals,
            iterations,
        }
    }

    pub(crate) fn infeasible(num_vars: usize, iterations: usize) -> Self {
        Solution::new(
            Status::Infeasible,
            vec![0.0; num_vars],
            f64::NAN,
            None,
            iterations,
        )
    }

    pub(crate) fn unbounded(num_vars: usize, iterations: usize) -> Self {
        Solution::new(
            Status::Unbounded,
            vec![0.0; num_vars],
            f64::NEG_INFINITY,
            None,
            iterations,
        )
    }

    /// Solve status. Primal values and objective are only meaningful when
    /// this is [`Status::Optimal`].
    pub fn status(&self) -> Status {
        self.status
    }

    /// `true` when the status is [`Status::Optimal`].
    pub fn is_optimal(&self) -> bool {
        self.status == Status::Optimal
    }

    /// Optimal objective value.
    pub fn objective(&self) -> f64 {
        self.objective
    }

    /// Value of one variable.
    ///
    /// # Panics
    ///
    /// Panics when `var` does not belong to the solved model.
    pub fn value(&self, var: Var) -> f64 {
        self.values[var.index()]
    }

    /// Dense primal values, indexed by [`Var::index`].
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Constraint dual values (one per constraint, in insertion order), when
    /// the solver computed them.
    pub fn duals(&self) -> Option<&[f64]> {
        self.duals.as_deref()
    }

    /// Number of solver iterations (simplex pivots).
    pub fn iterations(&self) -> usize {
        self.iterations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        let s = Solution::new(Status::Optimal, vec![1.0, 2.0], 5.0, None, 3);
        assert!(s.is_optimal());
        assert_eq!(s.value(Var(1)), 2.0);
        assert_eq!(s.values(), &[1.0, 2.0]);
        assert_eq!(s.iterations(), 3);
        assert!(s.duals().is_none());
    }

    #[test]
    fn status_display() {
        assert_eq!(Status::Optimal.to_string(), "optimal");
        assert_eq!(Status::Infeasible.to_string(), "infeasible");
        assert_eq!(Status::Unbounded.to_string(), "unbounded");
    }

    #[test]
    fn special_constructors() {
        assert_eq!(Solution::infeasible(2, 0).status(), Status::Infeasible);
        let u = Solution::unbounded(2, 0);
        assert_eq!(u.status(), Status::Unbounded);
        assert_eq!(u.objective(), f64::NEG_INFINITY);
    }
}
