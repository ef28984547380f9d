//! `small-batch`: many small nets through one `BatchSolver::solve_all`,
//! as `lubt batch --threads <nproc>` runs them: parse every input, build
//! every problem (nearest-neighbour topology), solve the batch with the
//! library's default backend, then verify and serialize each result.

use std::time::Instant;

use lubt_core::{solution_to_json, BatchSolver, LubtError, LubtProblem, LubtSolution};
use lubt_topology::{nearest_neighbor_topology, SourceMode};

use crate::inputs::{Net, TextNet, BATCH_POOL};
use crate::stats;
use crate::trace::{Layers, Program, Spans};
use crate::{closed_loop_metrics, Ctx, Outcome, Setup, SETUP_REPEATS};

fn generate(seed: u64) -> Vec<TextNet> {
    BATCH_POOL
        .draw(seed, BATCH_POOL.len)
        .into_iter()
        .map(|k| TextNet::new(BATCH_POOL.net(k)))
        .collect()
}

fn parsed(input: &TextNet) -> Net {
    input.parse().expect("the benchmark's own text parses")
}

/// Verifies, checks and serializes every result; returns the document
/// size so the serialization cannot be optimized away.
fn finish(
    ctx: &mut Ctx,
    inputs: &[TextNet],
    results: &[Result<LubtSolution, LubtError>],
    spans: Option<&mut Spans>,
) -> usize {
    let mut doc = String::from("{\"instances\": [");
    let mut spans = spans;
    for (input, result) in inputs.iter().zip(results) {
        let key = &input.net.key;
        ctx.ledger.attempted += 1;
        let solution = match result {
            Ok(s) => s,
            Err(e) => {
                ctx.ledger.fail(format!("{key}: {e}"));
                continue;
            }
        };
        let verified = match spans.as_deref_mut() {
            Some(s) => s.time("verify", key, |_| solution.verify()),
            None => solution.verify(),
        };
        if let Err(e) = verified {
            ctx.ledger
                .fail(format!("{key}: verify rejected the tree: {e}"));
            continue;
        }
        if !ctx.ledger.check_cost(&ctx.refs, key, solution.cost()) {
            continue;
        }
        let json = match spans.as_deref_mut() {
            Some(s) => s.time("serialize", key, |_| solution_to_json(solution)),
            None => solution_to_json(solution),
        };
        doc.push_str(&json);
        doc.push(',');
    }
    doc.push_str("]}");
    std::hint::black_box(doc.len())
}

/// One untraced pass.
fn pass(ctx: &mut Ctx, inputs: &[TextNet], solver: &BatchSolver) -> f64 {
    let t = Instant::now();
    let problems: Vec<LubtProblem> = inputs.iter().map(|i| parsed(i).problem()).collect();
    let results = solver.solve_all(&problems);
    finish(ctx, inputs, &results, None);
    t.elapsed().as_secs_f64()
}

/// One traced pass: the same calls, each in a benchmark span.
fn traced_pass(
    ctx: &mut Ctx,
    inputs: &[TextNet],
    solver: &BatchSolver,
    spans: &mut Spans,
    program: &mut Program,
) -> f64 {
    let t = Instant::now();
    let problems: Vec<LubtProblem> = inputs
        .iter()
        .map(|input| {
            let key = &input.net.key;
            let net = spans.time("data.parse", key, |_| parsed(input));
            let mode = if net.inst.source.is_some() {
                SourceMode::Given
            } else {
                SourceMode::Free
            };
            let topology = spans.time("topology", key, |_| {
                nearest_neighbor_topology(&net.inst.sinks, mode)
            });
            net.builder()
                .topology(topology)
                .build()
                .expect("pool nets are well-formed by construction")
        })
        .collect();
    let (results, trace) = spans.time("batch", "", |_| solver.solve_all_traced(&problems));
    finish(ctx, inputs, &results, Some(spans));
    program.add_trace(trace);
    for s in results.iter().flatten() {
        program.add_report(s.report());
    }
    t.elapsed().as_secs_f64()
}

/// Runs the workload.
pub fn run(ctx: &mut Ctx) -> Outcome {
    let seed = ctx.seed;
    let mut setup = Setup::default();
    let inputs = setup.sample(&ctx.cpus, SETUP_REPEATS, || generate(seed));
    let solver = BatchSolver::new().with_threads(ctx.threads);
    let start = Instant::now();
    let mut walls = Vec::new();
    while walls.is_empty() || start.elapsed().as_secs_f64() < ctx.seconds {
        ctx.cpus.start_on(walls.len());
        walls.push(pass(ctx, &inputs, &solver));
        setup.sample(&ctx.cpus, SETUP_REPEATS, || generate(seed));
    }
    let fastest = stats::min(walls.iter().copied()).expect("at least one pass");
    let mut out = closed_loop_metrics(setup.seconds(&ctx.cpus), fastest, &walls, inputs.len());
    if !ctx.trace {
        return out;
    }

    // Replay the same inputs traced for a quarter of the run.
    let mut spans = Spans::new(ctx.origin);
    let mut program = Program::default();
    let start = Instant::now();
    let mut traced = Vec::new();
    while traced.is_empty() || start.elapsed().as_secs_f64() < ctx.seconds / 4.0 {
        traced.push(traced_pass(ctx, &inputs, &solver, &mut spans, &mut program));
    }
    let nets = (traced.len() * inputs.len()) as f64;
    let mut layers = Layers::default();
    layers.bench_self("data.parse_s", &spans, "data.parse", nets);
    layers.bench_self("topology.s", &spans, "topology", nets);
    layers.bench_self("verify.s", &spans, "verify", nets);
    layers.bench_self("serialize.s", &spans, "serialize", nets);
    // Inside the batch, each net's `EbfSolver::solve` call is its `solve` span.
    let table = program.table();
    layers.span_total("ebf.s", &table, "solve", nets);
    layers.span_total("embed.s", &table, "embed", nets);
    // Each net solves at width 1 inside the batch pool.
    program.layers(&mut layers, nets, 1, ctx.threads);
    layers.set_or_missing(
        "trace_overhead_ratio",
        stats::median(&traced)
            .zip(stats::median(&walls))
            .map(|(t, w)| t / w),
        "untraced passes",
    );
    out.layers = Some(layers);
    out.spans = Some(spans);
    out
}
