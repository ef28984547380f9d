//! Cost of the observability layer: `EbfSolver::solve` vs.
//! `solve_traced` on the same instances.
//!
//! The `Recorder` indirection is always present in the solver hot loops;
//! the question this bench answers is what the *enabled* path (atomic
//! counter bumps, mutex-guarded maps, span timing) adds over the noop
//! recorder, and that the traced solve still computes the same bits.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lubt_core::{DelayBounds, EbfSolver, LubtBuilder, LubtProblem};
use lubt_data::synthetic;

fn build_instances() -> Vec<LubtProblem> {
    synthetic::paper_benchmarks()
        .into_iter()
        .map(|inst| {
            let inst = inst.subsample(16);
            let radius = inst.radius();
            LubtBuilder::new(inst.sinks.clone())
                .source(inst.source.expect("synthetic instances pin the source"))
                .bounds(DelayBounds::uniform(16, 0.9 * radius, 1.4 * radius))
                .build()
                .expect("valid instance")
        })
        .collect()
}

fn bench_trace_overhead(c: &mut Criterion) {
    let problems = build_instances();
    let solver = EbfSolver::new();

    // Tracing must be free of *semantic* cost: identical bits either way.
    for p in &problems {
        let plain = solver.solve(p).expect("feasible");
        let (traced, trace) = solver.solve_traced(p);
        let traced = traced.expect("feasible");
        assert_eq!(plain.0, traced.0, "tracing changed the edge lengths");
        assert_eq!(plain.1, traced.1, "tracing changed the report");
        assert!(trace.counter("simplex.solves") >= 1);
    }

    let mut g = c.benchmark_group("trace_overhead");
    g.sample_size(20);
    for (label, traced) in [("untraced", false), ("traced", true)] {
        g.bench_with_input(
            BenchmarkId::new("ebf_solve", label),
            &traced,
            |b, &traced| {
                b.iter(|| {
                    for p in &problems {
                        if traced {
                            let (r, trace) = solver.solve_traced(p);
                            criterion::black_box((r.unwrap(), trace));
                        } else {
                            criterion::black_box(solver.solve(p).unwrap());
                        }
                    }
                });
            },
        );
    }
    g.finish();
}

criterion_group!(benches, bench_trace_overhead);
criterion_main!(benches);
