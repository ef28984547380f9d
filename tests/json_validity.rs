//! Every JSON document the workspace can emit must be strictly valid
//! RFC 8259 — no `NaN`/`Infinity` bare tokens, no trailing commas — across
//! feasible, infeasible and lazy-truncated solves. Parsed with the strict
//! validator of `lubt::obs::json`, the same one CI runs against the CLI
//! output.

use lubt::core::{
    solution_to_json, BatchSolver, DelayBounds, EbfSolver, LubtBuilder, SolverBackend, SteinerMode,
};
use lubt::geom::Point;
use lubt::obs::json::validate;

/// The two float backends, each with the prefix of its LP counters.
const FLOAT_BACKENDS: [(SolverBackend, &str); 2] = [
    (SolverBackend::Simplex, "simplex"),
    (SolverBackend::Revised, "lp"),
];

fn square() -> Vec<Point> {
    vec![
        Point::new(0.0, 0.0),
        Point::new(10.0, 0.0),
        Point::new(0.0, 10.0),
        Point::new(10.0, 10.0),
    ]
}

/// Strict parse plus a belt-and-braces scan for the bare tokens a naive
/// `format!("{x}")` of a non-finite f64 would leak.
fn assert_strict(doc: &str, what: &str) {
    validate(doc).unwrap_or_else(|e| panic!("{what} is not strict JSON: {e}\n{doc}"));
    for token in ["NaN", "Infinity", "inf,", "inf}"] {
        assert!(!doc.contains(token), "{what} leaks {token:?}:\n{doc}");
    }
}

#[test]
fn feasible_solution_and_trace_are_strict_json() {
    for (backend, ns) in FLOAT_BACKENDS {
        let builder = LubtBuilder::new(square())
            .source(Point::new(5.0, 5.0))
            .bounds(DelayBounds::uniform(4, 12.0, 15.0))
            .backend(backend);
        let solution = builder.solve().unwrap();
        assert_strict(&solution_to_json(&solution), "feasible solution JSON");

        let (result, trace) = builder.solve_traced();
        assert!(result.is_ok(), "{backend:?}");
        assert_strict(&trace.to_json(), "feasible solve trace");
        assert!(trace.counter(&format!("{ns}.solves")) >= 1, "{trace:?}");
    }
}

#[test]
fn infeasible_solve_still_yields_a_strict_trace() {
    // Upper bound below the source-sink distance: Equation 3 certificate.
    let builder = LubtBuilder::new(square())
        .source(Point::new(5.0, 5.0))
        .bounds(DelayBounds::uniform(4, 0.0, 2.0));
    let (result, trace) = builder.solve_traced();
    assert!(result.is_err(), "window is infeasible by construction");
    assert_strict(&trace.to_json(), "infeasible solve trace");
}

#[test]
fn lazy_truncated_solution_and_trace_are_strict_json() {
    let problem = LubtBuilder::new(square())
        .bounds(DelayBounds::uniform(4, 10.0, 14.0))
        .build()
        .unwrap();
    let truncating = EbfSolver::new().with_steiner_mode(SteinerMode::Lazy {
        max_rounds: 1,
        batch: 1,
    });
    let (results, trace) = BatchSolver::new()
        .with_solver(truncating)
        .with_threads(1)
        .solve_all_traced(std::slice::from_ref(&problem));
    let solution = results[0].as_ref().unwrap();
    assert!(solution.report().truncated, "safety net must have fired");
    assert_strict(&solution_to_json(solution), "truncated solution JSON");
    assert_strict(&trace.to_json(), "truncated batch trace");
    assert_eq!(trace.counter("ebf.truncations"), 1);
}

#[test]
fn lint_diagnostics_are_strict_json() {
    let problem = LubtBuilder::new(square())
        .bounds(DelayBounds::uniform(4, 0.0, 2.0))
        .build()
        .unwrap();
    let diags = problem.lint();
    assert!(
        !diags.is_empty(),
        "bounds are unreachable, lint must object"
    );
    assert_strict(
        &lubt::lint::diagnostics_to_json(&diags),
        "lint diagnostics JSON",
    );
}

#[test]
fn audit_findings_render_as_strict_json() {
    // A corrupted embedding: sink 1 sits one unit from the root but claims
    // a [5, 6] window, so the exact tree audit must object — and its
    // diagnostics must serialize strictly like every other lint finding.
    let parents = vec![0, 0];
    let lengths = vec![0.0, 1.0];
    let positions = vec![(0.0, 0.0), (1.0, 0.0)];
    let sinks = vec![(1usize, 5.0, 6.0)];
    let findings = lubt::audit::audit_tree(&parents, &lengths, &positions, &sinks, 0);
    assert!(!findings.is_empty(), "the bad window must be flagged");
    assert_strict(
        &lubt::lint::diagnostics_to_json(&findings),
        "audit findings JSON",
    );
}

/// A Prometheus text-exposition sample line must be `<name> <value>` with
/// a `lubt_`-prefixed metric name and a parseable (or canonical
/// non-finite) value; everything else must be a `# HELP` / `# TYPE`
/// comment.
fn assert_prometheus(exposition: &str, what: &str) {
    assert!(!exposition.is_empty(), "{what} is empty");
    for line in exposition.lines() {
        if line.starts_with("# HELP ") || line.starts_with("# TYPE ") {
            continue;
        }
        let (name, value) = line
            .rsplit_once(' ')
            .unwrap_or_else(|| panic!("{what}: malformed sample line {line:?}"));
        let bare = name.split('{').next().unwrap();
        assert!(
            bare.starts_with("lubt_")
                && bare.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'),
            "{what}: bad metric name in {line:?}"
        );
        assert!(
            value.parse::<f64>().is_ok() || ["+Inf", "-Inf", "NaN"].contains(&value),
            "{what}: bad sample value in {line:?}"
        );
    }
}

#[test]
fn bench_document_report_and_prometheus_expositions_are_strict() {
    let run = lubt_bench::suite::run(&lubt_bench::suite::SuiteConfig {
        label: "json-validity".to_string(),
        threads: 2,
        sizes: vec![5],
        full: false,
        // Exercise the audit_overhead group too: its wall-clock keys land
        // in the exempt half and must keep the document strict.
        audit: true,
        // And the serve group: live daemon latency/throughput numbers are
        // exempt wall clock and must also keep the document strict.
        serve: true,
        // And the profile_overhead group: traced-vs-untraced wall keys are
        // exempt and the traced rows must not perturb the document.
        profile: true,
        // The par_intra scaling curve is pinned at 512 sinks — far too slow
        // for this strictness check, and its wall keys are covered by the
        // suite's own one-sided report-gate test.
        par_intra: false,
    })
    .expect("pinned suite solves");
    let doc = run.to_json();
    assert_strict(&doc, "bench document");
    assert!(doc.contains("\"schema\": \"lubt-bench-v1\""));
    assert_strict(&run.aggregate.to_json(), "aggregate trace JSON");

    let report =
        lubt_bench::report::compare(&doc, &doc, &lubt_bench::report::ReportOptions::default())
            .expect("a document compares to itself");
    assert!(!report.failed());
    assert_strict(&report.to_json(), "report JSON");

    assert_prometheus(&run.aggregate.to_prometheus(), "aggregate exposition");
}

#[test]
fn solve_trace_prometheus_exposition_is_well_formed() {
    for (backend, ns) in FLOAT_BACKENDS {
        let builder = LubtBuilder::new(square())
            .source(Point::new(5.0, 5.0))
            .bounds(DelayBounds::uniform(4, 12.0, 15.0))
            .backend(backend);
        let (result, trace) = builder.solve_traced();
        assert!(result.is_ok(), "{backend:?}");
        let exposition = trace.to_prometheus();
        assert_prometheus(&exposition, "solve trace exposition");
        assert!(
            exposition.contains(&format!("lubt_{ns}_pivots_total")),
            "{backend:?}: {exposition}"
        );
        assert!(
            exposition.contains("lubt_time_lp_seconds_total"),
            "{backend:?}"
        );
    }
}
