//! CPU-time scaling table (the §8 solver discussion): EBF solve time vs.
//! sink count for both LP backends, plus the zero-skew closed form.
//!
//! The paper reports that LOQO's interior-point method beats the simplex
//! "for large problems"; this experiment makes the crossover measurable on
//! this implementation (see EXPERIMENTS.md for the recorded verdict).
//!
//! Each cell is the wall clock of one call, timed with `Instant` around
//! the call — the same way the `lubt bench` suite times its groups.

use crate::table::{num, render};
use lubt_core::{
    zero_skew_edge_lengths, DelayBounds, EbfSolver, LubtError, LubtProblem, SolverBackend,
};
use lubt_data::Instance;
use lubt_obs::json::json_f64;
use lubt_topology::{nearest_neighbor_topology, SourceMode};
use std::time::Instant;

/// Sink count beyond which the dense-Cholesky interior point (O(rows³)
/// per iteration) is skipped and reported as `NaN` / `-` / `null`.
pub const DEFAULT_INTERIOR_CAP: usize = 32;

/// One scaling sample.
#[derive(Debug, Clone)]
pub struct TimingRow {
    /// Sink count.
    pub sinks: usize,
    /// Simplex wall time (seconds).
    pub simplex_s: f64,
    /// Interior-point wall time (seconds); `NaN` when the size was over
    /// the interior-point cap and the backend was skipped.
    pub interior_s: f64,
    /// Zero-skew closed-form wall time (seconds).
    pub zero_skew_s: f64,
    /// Steiner rows the lazy scheme materialized, out of C(m, 2).
    pub steiner_rows: usize,
    /// Total available pairs.
    pub total_pairs: usize,
}

/// Measures the scaling table on subsamples of one instance, skipping the
/// interior point above [`DEFAULT_INTERIOR_CAP`] sinks.
///
/// # Errors
///
/// Propagates solver failures.
pub fn run(instance: &Instance, sizes: &[usize]) -> Result<Vec<TimingRow>, LubtError> {
    run_with_interior_cap(instance, sizes, DEFAULT_INTERIOR_CAP)
}

/// [`run`] with an explicit interior-point size cap (rows above the cap
/// report `interior_s = NaN`).
///
/// # Errors
///
/// Propagates solver failures.
pub fn run_with_interior_cap(
    instance: &Instance,
    sizes: &[usize],
    interior_cap: usize,
) -> Result<Vec<TimingRow>, LubtError> {
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

        let interior_s = if m <= interior_cap {
            let start = Instant::now();
            let _ = EbfSolver::new()
                .with_backend(SolverBackend::InteriorPoint)
                .solve(&problem)?;
            start.elapsed().as_secs_f64()
        } else {
            f64::NAN
        };

        let start = Instant::now();
        let _ = zero_skew_edge_lengths(&topo, &inst.sinks, Some(src), Some(1.5 * radius))?;
        let zero_skew_s = start.elapsed().as_secs_f64();

        rows.push(TimingRow {
            sinks: m,
            simplex_s,
            interior_s,
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
        "interior [s]",
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
                if r.interior_s.is_nan() {
                    "-".to_string()
                } else {
                    num(r.interior_s, 4)
                },
                num(r.zero_skew_s, 6),
                r.steiner_rows.to_string(),
                r.total_pairs.to_string(),
            ]
        })
        .collect();
    render(&header, &body)
}

/// Serializes the rows as one strict-JSON array. Every float goes
/// through the total [`json_f64`] formatter, so a skipped interior point
/// (`NaN`) becomes `null` instead of a bare non-finite token.
pub fn rows_to_json(rows: &[TimingRow]) -> String {
    let body: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "  {{\"sinks\": {}, \"simplex_s\": {}, \"interior_s\": {}, \
                 \"zero_skew_s\": {}, \"steiner_rows\": {}, \"total_pairs\": {}}}",
                r.sinks,
                json_f64(r.simplex_s),
                json_f64(r.interior_s),
                json_f64(r.zero_skew_s),
                r.steiner_rows,
                r.total_pairs
            )
        })
        .collect();
    format!("[\n{}\n]\n", body.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lubt_data::synthetic;
    use lubt_obs::json::validate;

    #[test]
    fn produces_rows_with_positive_times_and_caps_the_interior_point() {
        // Cap of 8 forces the m = 10 row onto the NaN path without paying
        // for a > 32-sink solve in a unit test.
        let rows = run_with_interior_cap(&synthetic::prim1(), &[6, 10], 8).unwrap();
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!(r.simplex_s > 0.0 && r.zero_skew_s > 0.0);
            assert!(r.steiner_rows <= r.total_pairs);
            if r.sinks <= 8 {
                assert!(r.interior_s > 0.0, "interior point ran at m={}", r.sinks);
            } else {
                assert!(r.interior_s.is_nan(), "m={} is over the cap", r.sinks);
            }
        }
        let text = to_text(&rows);
        assert!(text.contains("simplex"));
        assert_eq!(text.lines().count(), 4);
        // The skipped backend renders as `-`, never a bare NaN.
        assert!(text.contains(" - "), "capped row renders a dash: {text}");
        assert!(!text.contains("NaN"));
    }

    #[test]
    fn rows_serialize_to_strict_json_with_null_for_skipped_backends() {
        let rows = run_with_interior_cap(&synthetic::prim1(), &[6, 10], 8).unwrap();
        let doc = rows_to_json(&rows);
        validate(&doc).unwrap_or_else(|e| panic!("invalid timing JSON: {e}\n{doc}"));
        assert!(doc.contains("\"interior_s\": null"), "{doc}");
        assert!(!doc.contains("NaN"));
    }
}
