//! Re-solve strategies for a growing LP (the lazy-separation pattern):
//! cold two-phase solves each round against the incremental tableau
//! session (`SimplexSession`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lubt_lp::{Cmp, LinExpr, LpSolve, Model, SimplexSession, SimplexSolver, Var};

/// Deterministic covering-LP growth schedule: a base row plus `rounds`
/// batches of rows over `n` variables.
type GrowthBatches = Vec<Vec<(Vec<usize>, f64)>>;

fn schedule(n: usize, rounds: usize, per_round: usize) -> (Model, Vec<Var>, GrowthBatches) {
    let mut m = Model::new();
    let vars = m.add_vars(n, 0.0, 1.0);
    m.add_constraint(
        LinExpr::from_terms(vars.iter().map(|&v| (v, 1.0))),
        Cmp::Ge,
        n as f64,
    );
    let mut state = 0x5eed_u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as usize
    };
    let mut batches = Vec::new();
    for _ in 0..rounds {
        let mut batch = Vec::new();
        for _ in 0..per_round {
            let k = 2 + next() % 4;
            let cols: Vec<usize> = (0..k).map(|_| next() % n).collect();
            let rhs = 1.0 + (next() % 50) as f64 / 10.0;
            batch.push((cols, rhs));
        }
        batches.push(batch);
    }
    (m, vars, batches)
}

fn bench_growth(c: &mut Criterion) {
    let mut g = c.benchmark_group("lp_growth");
    g.sample_size(10);
    for n in [32usize, 64] {
        let rounds = 6;
        let per_round = n / 2;
        g.bench_with_input(BenchmarkId::new("cold", n), &n, |bench, &n| {
            bench.iter(|| {
                let (mut m, vars, batches) = schedule(n, rounds, per_round);
                let solver = SimplexSolver::new();
                let mut last = solver.solve(&m).unwrap().objective();
                for batch in &batches {
                    for (cols, rhs) in batch {
                        let e = LinExpr::from_terms(cols.iter().map(|&c| (vars[c], 1.0)));
                        m.add_constraint(e, Cmp::Ge, *rhs);
                    }
                    last = solver.solve(&m).unwrap().objective();
                }
                last
            })
        });
        g.bench_with_input(BenchmarkId::new("session", n), &n, |bench, &n| {
            bench.iter(|| {
                let (m, vars, batches) = schedule(n, rounds, per_round);
                let mut session = SimplexSession::start(m).unwrap();
                let mut last = session.solution().objective();
                for batch in &batches {
                    for (cols, rhs) in batch {
                        let e = LinExpr::from_terms(cols.iter().map(|&c| (vars[c], 1.0)));
                        session.add_constraint(e, Cmp::Ge, *rhs).unwrap();
                    }
                    last = session.resolve().unwrap().objective();
                }
                last
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_growth);
criterion_main!(benches);
