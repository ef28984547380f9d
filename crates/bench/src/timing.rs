//! CPU-time scaling table (the §8 solver discussion): EBF solve time vs.
//! sink count for the dense and the revised simplex, plus the zero-skew
//! closed form.
//!
//! The paper reports that LOQO's interior-point method beats the simplex
//! "for large problems". EXPERIMENTS.md records the verdict measured with
//! this crate's former interior-point backend: not reproduced.
//!
//! Each cell is the wall clock of one call, timed with `Instant` around
//! the call — the same way the `lubt bench` suite times its groups.

use crate::table::{num, render};
use lubt_core::{
    zero_skew_edge_lengths, DelayBounds, EbfSolver, LubtError, LubtProblem, SolverBackend,
};
use lubt_data::Instance;
use lubt_topology::{nearest_neighbor_topology, SourceMode};
use std::time::Instant;

/// One scaling sample.
#[derive(Debug, Clone)]
pub struct TimingRow {
    /// Sink count.
    pub sinks: usize,
    /// Dense simplex wall time (seconds).
    pub simplex_s: f64,
    /// Revised simplex wall time (seconds).
    pub revised_s: f64,
    /// Zero-skew closed-form wall time (seconds).
    pub zero_skew_s: f64,
    /// Steiner rows the lazy scheme materialized, out of C(m, 2).
    pub steiner_rows: usize,
    /// Total available pairs.
    pub total_pairs: usize,
}

/// Measures the scaling table on subsamples of one instance.
///
/// # Errors
///
/// Propagates solver failures.
pub fn run(instance: &Instance, sizes: &[usize]) -> Result<Vec<TimingRow>, LubtError> {
    let mut rows = Vec::new();
    for &m in sizes {
        let inst = instance.subsample(m);
        let radius = inst.radius();
        let src = inst.source.expect("paper benchmarks pin the source");
        let topo = nearest_neighbor_topology(&inst.sinks, SourceMode::Given);
        let problem = LubtProblem::new(
            inst.sinks.clone(),
            Some(src),
            topo.clone(),
            DelayBounds::uniform(m, 0.7 * radius, 1.2 * radius),
        )?;

        let start = Instant::now();
        let (_, report) = EbfSolver::new()
            .with_backend(SolverBackend::Simplex)
            .solve(&problem)?;
        let simplex_s = start.elapsed().as_secs_f64();

        let start = Instant::now();
        let _ = EbfSolver::new()
            .with_backend(SolverBackend::Revised)
            .solve(&problem)?;
        let revised_s = start.elapsed().as_secs_f64();

        let start = Instant::now();
        let _ = zero_skew_edge_lengths(&topo, &inst.sinks, Some(src), Some(1.5 * radius))?;
        let zero_skew_s = start.elapsed().as_secs_f64();

        rows.push(TimingRow {
            sinks: m,
            simplex_s,
            revised_s,
            zero_skew_s,
            steiner_rows: report.steiner_rows,
            total_pairs: report.total_pairs,
        });
    }
    Ok(rows)
}

/// Renders the scaling table.
pub fn to_text(rows: &[TimingRow]) -> String {
    let header = [
        "sinks",
        "simplex [s]",
        "revised [s]",
        "zero-skew [s]",
        "steiner rows",
        "C(m,2)",
    ];
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.sinks.to_string(),
                num(r.simplex_s, 4),
                num(r.revised_s, 4),
                num(r.zero_skew_s, 6),
                r.steiner_rows.to_string(),
                r.total_pairs.to_string(),
            ]
        })
        .collect();
    render(&header, &body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lubt_data::synthetic;

    #[test]
    fn produces_rows_with_positive_times() {
        let rows = run(&synthetic::prim1(), &[6, 10]).unwrap();
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!(r.simplex_s > 0.0 && r.revised_s > 0.0 && r.zero_skew_s > 0.0);
            assert!(r.steiner_rows <= r.total_pairs);
        }
        let text = to_text(&rows);
        assert!(text.contains("simplex"));
        assert!(text.contains("revised [s]"));
        assert_eq!(text.lines().count(), 4);
    }
}
