//! `paper-nets`: the synthetic analogues of the paper's `prim1`, `r1`
//! and `prim2`, solved one after another as
//! `lubt solve --lp-backend revised --threads <nproc>` solves them.

use std::time::Instant;

use lubt_core::{embed_tree, verify_raw, EbfSolver, PlacementPolicy, SolverBackend};
use lubt_topology::{nearest_neighbor_topology, SourceMode};

use crate::inputs::{paper_nets, TextNet};
use crate::stats;
use crate::trace::{Layers, Program, Spans};
use crate::{closed_loop_metrics, Ctx, Outcome, Setup, SETUP_REPEATS};

fn generate() -> Vec<TextNet> {
    paper_nets().into_iter().map(TextNet::new).collect()
}

/// One untraced pass: parse, solve through the CLI's entry point,
/// verify and check the cost of every net. Returns each net's wall time.
fn pass(ctx: &mut Ctx, inputs: &[TextNet]) -> Vec<f64> {
    let mut times = Vec::with_capacity(inputs.len());
    for input in inputs {
        let t = Instant::now();
        let key = &input.net.key;
        let solved = input.parse().and_then(|net| {
            net.builder()
                .backend(SolverBackend::Revised)
                .threads(ctx.threads)
                .solve()
                .map_err(|e| format!("{key}: {e}"))
        });
        match solved {
            Ok(solution) => ctx.ledger.check_solution(&ctx.refs, key, &solution),
            Err(e) => {
                ctx.ledger.attempted += 1;
                ctx.ledger.fail(e);
            }
        }
        times.push(t.elapsed().as_secs_f64());
    }
    times
}

/// One traced pass: the same pipeline, one public call at a time, each
/// in a benchmark span.
fn traced_pass(ctx: &mut Ctx, inputs: &[TextNet], spans: &mut Spans, program: &mut Program) -> f64 {
    let t = Instant::now();
    let threads = ctx.threads;
    for input in inputs {
        let key = input.net.key.clone();
        ctx.ledger.attempted += 1;
        let outcome = spans.time("net", &key, |s| -> Result<f64, String> {
            let net = s.time("data.parse", &key, |_| input.parse())?;
            let mode = if net.inst.source.is_some() {
                SourceMode::Given
            } else {
                SourceMode::Free
            };
            let topology = s.time("topology", &key, |_| {
                nearest_neighbor_topology(&net.inst.sinks, mode)
            });
            let problem = net
                .builder()
                .topology(topology)
                .build()
                .map_err(|e| format!("{key}: {e}"))?;
            let solver = EbfSolver::new()
                .with_backend(SolverBackend::Revised)
                .with_threads(threads);
            let (solved, trace) = s.time("ebf", &key, |_| solver.solve_traced(&problem));
            program.add_trace(trace);
            let (lengths, report) = solved.map_err(|e| format!("{key}: {e}"))?;
            program.add_report(&report);
            let positions = s.time("embed", &key, |_| {
                embed_tree(
                    problem.topology(),
                    problem.sinks(),
                    problem.source(),
                    &lengths,
                    PlacementPolicy::ClosestToParent,
                )
            });
            let positions = positions.map_err(|e| format!("{key}: {e}"))?;
            s.time("verify", &key, |_| {
                verify_raw(&problem, &lengths, &positions)
            })
            .map_err(|e| format!("{key}: verify rejected the tree: {e}"))?;
            Ok(lengths.iter().skip(1).sum())
        });
        match outcome {
            Ok(cost) => {
                ctx.ledger.check_cost(&ctx.refs, &key, cost);
            }
            Err(e) => ctx.ledger.fail(e),
        }
    }
    t.elapsed().as_secs_f64()
}

/// Runs the workload.
pub fn run(ctx: &mut Ctx) -> Outcome {
    let mut setup = Setup::default();
    let inputs = setup.sample(&ctx.cpus, SETUP_REPEATS, generate);
    let start = Instant::now();
    let mut passes = Vec::new();
    while passes.is_empty() || start.elapsed().as_secs_f64() < ctx.seconds {
        ctx.cpus.start_on(passes.len());
        passes.push(pass(ctx, &inputs));
        setup.sample(&ctx.cpus, SETUP_REPEATS, generate);
    }
    let walls: Vec<f64> = passes.iter().map(|p| p.iter().sum()).collect();
    // Each net's fastest solve: prim2 alone takes most of a pass, so the
    // nets' own minima see more quiet moments than whole passes do.
    let fastest = (0..inputs.len())
        .map(|n| stats::min(passes.iter().map(|p| p[n])).expect("at least one pass"))
        .sum();
    let mut out = closed_loop_metrics(setup.seconds(&ctx.cpus), fastest, &walls, inputs.len());
    if !ctx.trace {
        return out;
    }

    // One traced pass: a pass is already several seconds of solving.
    let mut spans = Spans::new(ctx.origin);
    let mut program = Program::default();
    let traced = traced_pass(ctx, &inputs, &mut spans, &mut program);
    let nets = inputs.len() as f64;
    let mut layers = Layers::default();
    layers.bench_self("data.parse_s", &spans, "data.parse", nets);
    layers.bench_self("topology.s", &spans, "topology", nets);
    layers.bench_self("ebf.s", &spans, "ebf", nets);
    layers.bench_self("embed.s", &spans, "embed", nets);
    layers.bench_self("verify.s", &spans, "verify", nets);
    program.layers(&mut layers, nets, ctx.threads, ctx.threads);
    layers.set_or_missing(
        "trace_overhead_ratio",
        stats::median(&walls).map(|w| traced / w),
        "untraced passes",
    );
    out.layers = Some(layers);
    out.spans = Some(spans);
    out
}
