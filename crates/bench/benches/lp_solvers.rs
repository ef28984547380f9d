//! Dense vs. revised simplex on EBF LPs of growing size. The paper's
//! remark that interior-point methods (LOQO) win on large instances was
//! measured with a former interior-point backend and not reproduced (see
//! EXPERIMENTS.md §8).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lubt_core::{DelayBounds, EbfSolver, LubtProblem, SolverBackend};
use lubt_data::synthetic;

fn ebf_problem(m: usize) -> LubtProblem {
    let inst = synthetic::prim1().subsample(m);
    let radius = inst.radius();
    let topo =
        lubt_topology::nearest_neighbor_topology(&inst.sinks, lubt_topology::SourceMode::Given);
    LubtProblem::new(
        inst.sinks.clone(),
        inst.source,
        topo,
        DelayBounds::uniform(m, 0.7 * radius, 1.2 * radius),
    )
    .expect("valid problem")
}

fn bench_backends(c: &mut Criterion) {
    let mut g = c.benchmark_group("ebf_lp_backends");
    g.sample_size(10);
    for m in [8usize, 16, 32] {
        let problem = ebf_problem(m);
        for (name, backend) in [
            ("simplex", SolverBackend::Simplex),
            ("revised", SolverBackend::Revised),
        ] {
            g.bench_with_input(BenchmarkId::new(name, m), &problem, |b, p| {
                b.iter(|| {
                    EbfSolver::new()
                        .with_backend(backend)
                        .solve(p)
                        .expect("feasible")
                })
            });
        }
    }
    g.finish();
}

criterion_group!(benches, bench_backends);
criterion_main!(benches);
