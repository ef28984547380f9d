//! Batch throughput vs. thread count on the work-assisting claim loop.
//!
//! A Table-1-sized batch of independent EBF instances is pushed through
//! `BatchSolver` at 1/2/4/8 workers. Every thread count produces
//! bit-identical results (asserted here before timing), so the sweep
//! measures pure scheduling overhead and scaling.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lubt_core::{BatchSolver, DelayBounds, LubtBuilder, LubtProblem};
use lubt_data::synthetic;

/// A batch of independent instances: every paper benchmark at several
/// sizes and delay windows.
fn build_batch() -> Vec<LubtProblem> {
    let mut problems = Vec::new();
    for inst in synthetic::paper_benchmarks() {
        for m in [12usize, 18, 24] {
            let inst = inst.subsample(m);
            let radius = inst.radius();
            for (lo, hi) in [(0.6, 1.1), (0.9, 1.4)] {
                problems.push(
                    LubtBuilder::new(inst.sinks.clone())
                        .source(inst.source.expect("synthetic instances pin the source"))
                        .bounds(DelayBounds::uniform(m, lo * radius, hi * radius))
                        .build()
                        .expect("valid instance"),
                );
            }
        }
    }
    problems
}

fn bench_batch(c: &mut Criterion) {
    let problems = build_batch();

    // Determinism gate: the timing sweep below is only meaningful if every
    // thread count computes the same answers.
    let baseline = BatchSolver::new().with_threads(1).solve_ebf_all(&problems);
    for threads in [2usize, 4, 8] {
        let other = BatchSolver::new()
            .with_threads(threads)
            .solve_ebf_all(&problems);
        for (a, b) in baseline.iter().zip(other.iter()) {
            match (a, b) {
                (Ok((la, ra)), Ok((lb, rb))) => {
                    assert_eq!(la, lb, "threads={threads}");
                    assert_eq!(ra, rb, "threads={threads}");
                }
                (Err(_), Err(_)) => {}
                _ => panic!("threads={threads}: Ok/Err mismatch"),
            }
        }
    }

    let mut g = c.benchmark_group("par_scaling");
    g.sample_size(10);
    for threads in [1usize, 2, 4, 8] {
        g.bench_with_input(
            BenchmarkId::new("batch", threads),
            &problems,
            |b, problems| {
                let solver = BatchSolver::new().with_threads(threads);
                b.iter(|| solver.solve_ebf_all(problems));
            },
        );
    }
    g.finish();
}

criterion_group!(benches, bench_batch);
criterion_main!(benches);
