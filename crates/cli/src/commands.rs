//! Command implementations for the `lubt` binary.

use crate::args::{parse, Parsed};
use lubt_baselines::{bounded_skew_tree, zero_skew_tree};
use lubt_core::{
    analyze, bound_aware_topology, render_svg, BatchSolver, DelayBounds, EbfSolver, LubtBuilder,
    SolverBackend,
};
use lubt_data::{io as data_io, synthetic, Instance};
use lubt_topology::{bipartition_topology, matching_topology, SourceMode, Topology};

const USAGE: &str = "usage:
  lubt solve <input> --lower L --upper U [--absolute] \
[--topology nn|matching|bisect|aware] [--lp-backend simplex|revised|dp] [--threads N] \
[--max-lp-iterations N] [--audit] [--svg out.svg] [--json out.json] [--trace-json [out.json]] \
[--profile [out.json]] [--profile-folded [out.txt]] [--trace-event-cap N]
  lubt batch <input>... --lower L --upper U [--absolute] \
[--topology nn|matching|bisect|aware] [--lp-backend simplex|revised|dp] [--threads N] \
[--max-lp-iterations N] [--audit] [--json out.json] [--metrics [out.json]] \
[--metrics-prom [out.prom]] [--profile [out.json]] [--profile-folded [out.txt]] \
[--trace-event-cap N]
  lubt audit <input> --lower L --upper U [--absolute] \
[--topology nn|matching|bisect|aware] [--lp-backend simplex|revised|dp] [--json [out.json]]
  lubt profile <input> --lower L --upper U [--absolute] \
[--topology nn|matching|bisect|aware] [--lp-backend simplex|revised|dp] \
[--format chrome|folded|tree|shape] [--out file] | lubt profile --check-folded file
  lubt bench [--label L] [--threads N] [--sizes A,B,C] [--full] [--audit] [--serve] \
[--profile] [--par-intra] [--out file]
  lubt report --baseline A.json --current B.json [--timing-threshold F] \
[--ignore-timings] [--json [out.json]]
  lubt lint <input> [--lower L] [--upper U] [--absolute] \
[--topology nn|matching|bisect|aware] [--json [out.json]]
  lubt zeroskew <input> [--target T] [--absolute] [--svg out.svg]
  lubt bst <input> --skew S [--absolute]
  lubt gen <prim1|prim2|r1|r3|uniform|clustered> [--sinks N] [--seed K] [--die D] [--out file]
  lubt serve [--addr H:P] [--workers N] [--queue-depth N] [--cache-entries N] \
[--session-entries N] [--max-request-bytes N] [--default-deadline-ms N] [--allow-shutdown] \
[--trace-event-cap N] [--access-log [path]]
  lubt help";

/// Entry point shared by `main` and the integration tests.
///
/// # Errors
///
/// Returns a human-readable message for any usage or processing failure.
pub fn run(argv: &[String]) -> Result<(), String> {
    let parsed = parse(argv);
    match parsed.positional.first().map(String::as_str) {
        Some("solve") => cmd_solve(&parsed),
        Some("batch") => cmd_batch(&parsed),
        Some("audit") => cmd_audit(&parsed),
        Some("profile") => cmd_profile(&parsed),
        Some("bench") => cmd_bench(&parsed),
        Some("report") => cmd_report(&parsed),
        Some("lint") => cmd_lint(&parsed),
        Some("zeroskew") => cmd_zeroskew(&parsed),
        Some("bst") => cmd_bst(&parsed),
        Some("gen") => cmd_gen(&parsed),
        Some("serve") => cmd_serve(&parsed),
        Some("help") | None => {
            println!("{USAGE}");
            Ok(())
        }
        Some(other) => Err(format!("unknown command {other:?}\n{USAGE}")),
    }
}

fn load_instance(parsed: &Parsed) -> Result<Instance, String> {
    let path = parsed
        .positional
        .get(1)
        .ok_or_else(|| format!("missing <input>\n{USAGE}"))?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    data_io::parse(&text).map_err(|e| format!("cannot parse {path}: {e}"))
}

/// Converts a possibly radius-normalized value to absolute units.
fn to_absolute(value: f64, radius: f64, absolute: bool) -> f64 {
    if absolute {
        value
    } else {
        value * radius
    }
}

/// True when `--{key}` appeared at all — bare switch or with a value.
fn wants(parsed: &Parsed, key: &str) -> bool {
    parsed.has(key) || parsed.get(key).is_some()
}

/// Emits a JSON document for an optional-value flag: `--{key} path` writes
/// the file, a bare `--{key}` prints to stdout (the `lint --json`
/// convention).
fn emit_json(parsed: &Parsed, key: &str, label: &str, json: &str) -> Result<(), String> {
    match parsed.get(key) {
        Some(path) => {
            lubt_obs::fsio::write_atomic(path, json)
                .map_err(|e| format!("cannot write {path}: {e}"))?;
            println!("{label} written to {path}");
        }
        None => println!("{json}"),
    }
    Ok(())
}

/// Emits a diagnostic document for an optional-value flag, keeping stdout
/// clean: `--{key} path` writes the file (confirmation on stdout), a bare
/// `--{key}` prints the document to **stderr**. Metrics documents carry
/// timings and scheduling counters that legitimately vary with `--threads`,
/// so routing them through stdout would break the byte-identity contract
/// on the default stream.
fn emit_diagnostic(parsed: &Parsed, key: &str, label: &str, text: &str) -> Result<(), String> {
    match parsed.get(key) {
        Some(path) => {
            lubt_obs::fsio::write_atomic(path, text)
                .map_err(|e| format!("cannot write {path}: {e}"))?;
            println!("{label} written to {path}");
        }
        None => eprint!("{text}"),
    }
    Ok(())
}

/// Surfaces a bounded-log overflow as a warning on stderr: a truncated
/// event log silently weakens any trace-based diagnosis.
fn warn_dropped_events(trace: &lubt_obs::SolveTrace) {
    if let Some(note) = trace.events_dropped_note() {
        eprintln!("{note}");
    }
}

/// Reads `--trace-event-cap`, rejecting a bare switch.
fn trace_event_cap(parsed: &Parsed) -> Result<Option<usize>, String> {
    if parsed.has("trace-event-cap") && parsed.get("trace-event-cap").is_none() {
        return Err("--trace-event-cap requires a value".to_string());
    }
    parsed.get_usize("trace-event-cap")
}

/// True when either span-profile export was requested.
fn wants_profile(parsed: &Parsed) -> bool {
    wants(parsed, "profile") || wants(parsed, "profile-folded")
}

/// Emits a span-profile document. Everything — the document on a bare
/// flag *and* the confirmation line for a path — goes to stderr, so
/// `--profile` can never perturb the solver's stdout bytes (the
/// profile-on-vs-off byte-identity contract, DESIGN.md §16).
fn emit_profile_doc(parsed: &Parsed, key: &str, label: &str, text: &str) -> Result<(), String> {
    match parsed.get(key) {
        Some(path) => {
            lubt_obs::fsio::write_atomic(path, text)
                .map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!("{label} written to {path}");
        }
        None => eprint!("{text}"),
    }
    Ok(())
}

/// Emits the `--profile` (Chrome trace-event JSON) and `--profile-folded`
/// (collapsed stacks) exports from a solve trace's span tree.
fn emit_profiles(parsed: &Parsed, trace: &lubt_obs::SolveTrace) -> Result<(), String> {
    if wants(parsed, "profile") {
        emit_profile_doc(parsed, "profile", "profile", &trace.spans.to_chrome_trace())?;
    }
    if wants(parsed, "profile-folded") {
        emit_profile_doc(
            parsed,
            "profile-folded",
            "folded profile",
            &trace.spans.to_folded(),
        )?;
    }
    Ok(())
}

/// Rejects a value-carrying flag that appeared bare (`--sizes` with
/// nothing after it would otherwise be silently ignored).
fn reject_bare(parsed: &Parsed, keys: &[&str]) -> Result<(), String> {
    for key in keys {
        if parsed.has(key) && parsed.get(key).is_none() {
            return Err(format!("--{key} requires a value"));
        }
    }
    Ok(())
}

/// Reads `--max-lp-iterations`, rejecting a bare switch (a silently
/// ignored budget is worse than no budget).
fn lp_budget(parsed: &Parsed) -> Result<Option<usize>, String> {
    if parsed.has("max-lp-iterations") && parsed.get("max-lp-iterations").is_none() {
        return Err("--max-lp-iterations requires a value".to_string());
    }
    parsed.get_usize("max-lp-iterations")
}

/// Renders a solver failure, appending the lint-style diagnostic when the
/// error carries one (e.g. LP iteration-limit exhaustion).
fn render_lubt_error(e: &lubt_core::LubtError) -> String {
    match e.diagnostic() {
        Some(d) => format!("{e}\n{d}"),
        None => e.to_string(),
    }
}

fn write_svg(parsed: &Parsed, svg: &str) -> Result<(), String> {
    if let Some(path) = parsed.get("svg") {
        lubt_obs::fsio::write_atomic(path, svg).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("svg written to {path}");
    }
    Ok(())
}

/// Resolves the LP backend from `--lp-backend` (or its original spelling
/// `--backend`; `--lp-backend` wins when both appear). Shared by `solve`
/// and `batch`.
fn choose_backend(parsed: &Parsed) -> Result<SolverBackend, String> {
    match parsed
        .get("lp-backend")
        .or_else(|| parsed.get("backend"))
        .unwrap_or("simplex")
    {
        "simplex" => Ok(SolverBackend::Simplex),
        "revised" => Ok(SolverBackend::Revised),
        "dp" => Ok(SolverBackend::Dp),
        other => Err(format!("unknown backend {other:?} (simplex|revised|dp)")),
    }
}

/// Resolves the `--topology` flag (`None` = builder's nearest-neighbor
/// default). Shared by `solve` and `lint` so both analyze the same tree.
fn choose_topology(
    parsed: &Parsed,
    inst: &Instance,
    bounds: &DelayBounds,
) -> Result<Option<Topology>, String> {
    let mode = if inst.source.is_some() {
        SourceMode::Given
    } else {
        SourceMode::Free
    };
    match parsed.get("topology").unwrap_or("nn") {
        "nn" => Ok(None), // builder default
        "matching" => Ok(Some(matching_topology(&inst.sinks, mode))),
        "bisect" => Ok(Some(bipartition_topology(&inst.sinks, mode))),
        "aware" => Ok(Some(
            bound_aware_topology(&inst.sinks, inst.source, bounds).map_err(|e| e.to_string())?,
        )),
        other => Err(format!(
            "unknown topology {other:?} (nn|matching|bisect|aware)"
        )),
    }
}

fn cmd_solve(parsed: &Parsed) -> Result<(), String> {
    let inst = load_instance(parsed)?;
    let radius = inst.radius();
    let m = inst.sinks.len();
    let absolute = parsed.has("absolute");
    let lower = parsed.get_f64("lower")?.unwrap_or(0.0);
    let upper = parsed
        .get_f64("upper")?
        .ok_or_else(|| format!("--upper is required\n{USAGE}"))?;
    let bounds = DelayBounds::uniform(
        m,
        to_absolute(lower, radius, absolute),
        to_absolute(upper, radius, absolute),
    );

    let topology = choose_topology(parsed, &inst, &bounds)?;
    let backend = choose_backend(parsed)?;

    let mut builder = LubtBuilder::new(inst.sinks.clone())
        .bounds(bounds)
        .backend(backend);
    if let Some(src) = inst.source {
        builder = builder.source(src);
    }
    if let Some(t) = topology {
        builder = builder.topology(t);
    }
    if let Some(limit) = lp_budget(parsed)? {
        builder = builder.max_lp_iterations(limit);
    }
    // Separation-oracle worker count: 0 = one worker per core, 1 (the
    // default) = the exact sequential path; the LP solves stay serial.
    // Output bytes are identical for every value (DESIGN.md §9), so no
    // determinism caveat applies here.
    reject_bare(parsed, &["threads"])?;
    if let Some(threads) = parsed.get_usize("threads")? {
        builder = builder.threads(threads);
    }
    let audit = parsed.has("audit");
    builder = builder.audit(audit);

    let cap = trace_event_cap(parsed)?;
    let tracing = wants(parsed, "trace-json") || wants_profile(parsed) || cap.is_some();
    let (solution_result, trace) = if tracing {
        let rec = std::sync::Arc::new(lubt_obs::TraceRecorder::with_event_cap(
            cap.unwrap_or(lubt_obs::DEFAULT_EVENT_CAP),
        ));
        let r = builder
            .solve_recorded(std::sync::Arc::clone(&rec) as std::sync::Arc<dyn lubt_obs::Recorder>);
        (r, Some(rec.snapshot()))
    } else {
        (builder.solve(), None)
    };
    let solution = match solution_result {
        Ok(s) => s,
        Err(e) => {
            // The trace matters most on failure: emit it before bailing.
            if let Some(trace) = &trace {
                if wants(parsed, "trace-json") {
                    emit_json(parsed, "trace-json", "trace", &trace.to_json())?;
                }
                emit_profiles(parsed, trace)?;
                warn_dropped_events(trace);
            }
            return Err(render_lubt_error(&e));
        }
    };
    solution
        .verify()
        .map_err(|e| format!("verification failed: {e}"))?;

    let (short, long) = solution.delay_range();
    println!("instance        {}", inst.name);
    println!("sinks           {m}");
    println!("radius          {radius:.3}");
    println!("tree cost       {:.3}", solution.cost());
    println!(
        "delay window    [{:.3}, {:.3}]  ({:.3}R .. {:.3}R)",
        short,
        long,
        short / radius,
        long / radius
    );
    println!("skew            {:.6}", solution.skew());
    println!(
        "lp              {} pivots, {} rounds, {}/{} steiner rows",
        solution.report().lp_iterations,
        solution.report().separation_rounds,
        solution.report().steiner_rows,
        solution.report().total_pairs
    );
    if let Some(d) = solution.report().truncation_diagnostic() {
        println!("{d}");
    }
    if audit {
        println!("audit           certificates verified exactly (lp + tree)");
    }
    let stats = analyze(&solution);
    println!(
        "edges           {} tight, {} elongated, {} degenerate; snaked surplus {:.3} ({:.1}% of wire)",
        stats.tight,
        stats.elongated,
        stats.degenerate,
        stats.total_surplus,
        100.0 * stats.surplus_fraction()
    );
    if let Some(path) = parsed.get("json") {
        lubt_obs::fsio::write_atomic(path, &lubt_core::solution_to_json(&solution))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("json written to {path}");
    }
    if let Some(trace) = &trace {
        if wants(parsed, "trace-json") {
            emit_json(parsed, "trace-json", "trace", &trace.to_json())?;
        }
        emit_profiles(parsed, trace)?;
        warn_dropped_events(trace);
    }
    write_svg(parsed, &render_svg(&solution))
}

/// `lubt batch <input>...`: solves many instances through the
/// work-assisting claim loop. One delay window (shared, per-instance radius
/// normalized unless `--absolute`) applies to every input. Output carries
/// no timings and the per-instance solves are bit-for-bit independent of
/// `--threads`, so two runs differing only in thread count print identical
/// bytes. Exits non-zero when any instance fails.
fn cmd_batch(parsed: &Parsed) -> Result<(), String> {
    let inputs = &parsed.positional[1..];
    if inputs.is_empty() {
        return Err(format!("missing <input>...\n{USAGE}"));
    }
    if parsed.has("threads") && parsed.get("threads").is_none() {
        return Err("--threads requires a value".to_string());
    }
    let threads = match parsed.get_usize("threads")? {
        Some(0) => {
            return Err(
                "--threads must be at least 1 (omit the flag to use every core)".to_string(),
            )
        }
        Some(n) => n,
        None => lubt_par::available_parallelism(),
    };
    let absolute = parsed.has("absolute");
    let lower = parsed.get_f64("lower")?.unwrap_or(0.0);
    let upper = parsed
        .get_f64("upper")?
        .ok_or_else(|| format!("--upper is required\n{USAGE}"))?;
    let backend = choose_backend(parsed)?;

    // Assemble every problem up front (cheap), then hand the whole slice to
    // the pool: the parallelism budget is spent across instances.
    let mut names = Vec::with_capacity(inputs.len());
    let mut problems = Vec::with_capacity(inputs.len());
    for path in inputs {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let inst = data_io::parse(&text).map_err(|e| format!("cannot parse {path}: {e}"))?;
        let radius = inst.radius();
        let bounds = DelayBounds::uniform(
            inst.sinks.len(),
            to_absolute(lower, radius, absolute),
            to_absolute(upper, radius, absolute),
        );
        let topology = choose_topology(parsed, &inst, &bounds)?;
        let mut builder = LubtBuilder::new(inst.sinks.clone()).bounds(bounds);
        if let Some(src) = inst.source {
            builder = builder.source(src);
        }
        if let Some(t) = topology {
            builder = builder.topology(t);
        }
        names.push(inst.name.clone());
        problems.push(builder.build().map_err(|e| format!("{path}: {e}"))?);
    }

    let audit = parsed.has("audit");
    let mut solver = EbfSolver::new().with_backend(backend).with_audit(audit);
    if let Some(limit) = lp_budget(parsed)? {
        solver = solver.with_max_lp_iterations(limit);
    }
    let cap = trace_event_cap(parsed)?;
    let batch = BatchSolver::new()
        .with_solver(solver)
        .with_threads(threads)
        .with_event_cap(cap.unwrap_or(lubt_obs::DEFAULT_EVENT_CAP));
    // Only the metrics/profile documents (timings, scheduling counters)
    // may vary with `--threads`; results and the default stdout stay
    // byte-identical.
    let tracing = wants(parsed, "metrics")
        || wants(parsed, "metrics-prom")
        || wants_profile(parsed)
        || cap.is_some();
    let (results, trace) = if tracing {
        let (r, t) = batch.solve_all_traced(&problems);
        (r, Some(t))
    } else {
        (batch.solve_all(&problems), None)
    };

    let mut failures = 0usize;
    let mut json = String::from("{\n  \"instances\": [\n");
    for (k, (name, result)) in names.iter().zip(&results).enumerate() {
        match result {
            Ok(solution) => {
                // Under --audit the LP certificates were already verified in
                // the solver; the embedding is audited here per instance.
                let tree_findings = if audit {
                    solution.audit_tree()
                } else {
                    Vec::new()
                };
                if !tree_findings.is_empty() {
                    failures += 1;
                    println!("{name}  tree audit failed:");
                    for d in &tree_findings {
                        println!("{d}");
                    }
                    let _ = std::fmt::Write::write_fmt(
                        &mut json,
                        format_args!(
                            "    {{\"name\": {name:?}, \"status\": \"error\", \
                             \"error\": \"tree audit failed\"}}"
                        ),
                    );
                } else if let Err(e) = solution.verify() {
                    failures += 1;
                    println!("{name}  verification failed: {e}");
                    let _ = std::fmt::Write::write_fmt(
                        &mut json,
                        format_args!(
                            "    {{\"name\": {name:?}, \"status\": \"error\", \
                             \"error\": \"verification failed\"}}"
                        ),
                    );
                } else {
                    println!(
                        "{name}  cost {:.3}  skew {:.6}  rounds {}  rows {}/{}",
                        solution.cost(),
                        solution.skew(),
                        solution.report().separation_rounds,
                        solution.report().steiner_rows,
                        solution.report().total_pairs
                    );
                    if let Some(d) = solution.report().truncation_diagnostic() {
                        println!("{d}");
                    }
                    let _ = std::fmt::Write::write_fmt(
                        &mut json,
                        format_args!(
                            "    {{\"name\": {name:?}, \"status\": \"ok\", \"solution\": {}}}",
                            lubt_core::solution_to_json(solution).trim_end()
                        ),
                    );
                }
            }
            Err(e) => {
                failures += 1;
                println!("{name}  error: {e}");
                if let Some(d) = e.diagnostic() {
                    println!("{d}");
                }
                let _ = std::fmt::Write::write_fmt(
                    &mut json,
                    format_args!(
                        "    {{\"name\": {name:?}, \"status\": \"error\", \"error\": {:?}}}",
                        e.to_string()
                    ),
                );
            }
        }
        json.push_str(if k + 1 < results.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");
    println!("{}/{} solved", results.len() - failures, results.len());

    if let Some(path) = parsed.get("json") {
        lubt_obs::fsio::write_atomic(path, &json)
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("json written to {path}");
    }
    if let Some(trace) = &trace {
        if wants(parsed, "metrics") {
            emit_diagnostic(parsed, "metrics", "metrics", &trace.to_json())?;
        }
        if wants(parsed, "metrics-prom") {
            emit_diagnostic(
                parsed,
                "metrics-prom",
                "prometheus metrics",
                &trace.to_prometheus(),
            )?;
        }
        emit_profiles(parsed, trace)?;
        warn_dropped_events(trace);
    }

    if failures > 0 {
        Err(format!(
            "{failures} of {} instance(s) failed",
            results.len()
        ))
    } else {
        Ok(())
    }
}

/// `lubt audit <input>`: solves the instance with the exact certificate
/// audit enabled and reports what was proven. Every LP outcome must carry
/// a verifying proof object — an optimality certificate (basis + duals,
/// checked for primal/dual feasibility and complementary slackness in
/// exact rational arithmetic) or a Farkas infeasibility ray — and the
/// embedded tree's sink pathlengths are re-derived exactly against their
/// `[l, u]` windows. The pre-solve lint is bypassed so hopeless instances
/// reach the LP and produce a ray instead of a lint rejection.
///
/// Exits non-zero only when a certificate fails to verify; a *verified*
/// infeasibility is a successful audit of a negative result.
fn cmd_audit(parsed: &Parsed) -> Result<(), String> {
    let inst = load_instance(parsed)?;
    let radius = inst.radius();
    let m = inst.sinks.len();
    let absolute = parsed.has("absolute");
    let lower = parsed.get_f64("lower")?.unwrap_or(0.0);
    let upper = parsed
        .get_f64("upper")?
        .ok_or_else(|| format!("--upper is required\n{USAGE}"))?;
    let bounds = DelayBounds::uniform(
        m,
        to_absolute(lower, radius, absolute),
        to_absolute(upper, radius, absolute),
    );
    let topology = choose_topology(parsed, &inst, &bounds)?;
    let backend = choose_backend(parsed)?;
    let backend_name = match backend {
        SolverBackend::Simplex => "simplex",
        SolverBackend::Revised => "revised",
        SolverBackend::Dp => "dp",
    };

    let mut builder = LubtBuilder::new(inst.sinks.clone())
        .bounds(bounds)
        .backend(backend)
        .audit(true)
        .prelint(false);
    if let Some(src) = inst.source {
        builder = builder.source(src);
    }
    if let Some(t) = topology {
        builder = builder.topology(t);
    }
    if let Some(limit) = lp_budget(parsed)? {
        builder = builder.max_lp_iterations(limit);
    }

    let (result, trace) = builder.solve_traced();
    let (status, cost, findings) = match &result {
        Ok(solution) => ("verified", Some(solution.cost()), Vec::new()),
        Err(lubt_core::LubtError::Infeasible) => ("infeasible", None, Vec::new()),
        Err(lubt_core::LubtError::Audit(diags)) => ("failed", None, diags.clone()),
        Err(e) => return Err(render_lubt_error(e)),
    };
    let counters = [
        ("lp_optimality_verified", "audit.optimality_verified"),
        ("lp_primal_verified", "audit.primal_verified"),
        ("lp_farkas_verified", "audit.farkas_verified"),
        ("tree_verified", "audit.tree_verified"),
        ("audit_failures", "audit.failures"),
    ];

    if wants(parsed, "json") {
        let mut json = String::from("{\n  \"schema\": \"lubt-audit-v1\",\n");
        json.push_str(&format!(
            "  \"instance\": \"{}\",\n",
            lubt_obs::json::json_escape(&inst.name)
        ));
        json.push_str(&format!("  \"backend\": \"{backend_name}\",\n"));
        json.push_str(&format!("  \"status\": \"{status}\",\n"));
        json.push_str(&format!(
            "  \"cost\": {},\n",
            cost.map_or_else(|| "null".to_string(), lubt_obs::json::json_f64)
        ));
        for (field, key) in counters {
            json.push_str(&format!("  \"{field}\": {},\n", trace.counter(key)));
        }
        json.push_str(&format!(
            "  \"diagnostics\": {}\n}}\n",
            lubt_lint::diagnostics_to_json(&findings).replace('\n', "\n  ")
        ));
        emit_json(parsed, "json", "audit", &json)?;
    } else {
        println!("instance        {}", inst.name);
        println!("sinks           {m}");
        println!("backend         {backend_name}");
        println!("audit status    {status}");
        if let Some(c) = cost {
            println!("tree cost       {c:.3}");
        }
        for (field, key) in counters {
            let n = trace.counter(key);
            if n > 0 {
                println!("{field:<22} {n}");
            }
        }
        for d in &findings {
            println!("{d}");
        }
    }

    if status == "failed" {
        Err(format!(
            "certificate audit failed with {} deny-level finding(s)",
            findings.iter().filter(|d| d.is_deny()).count()
        ))
    } else {
        Ok(())
    }
}

/// `lubt profile <input>`: solves the instance with span profiling on and
/// exports the span tree — Chrome trace-event JSON (default; loads in
/// `chrome://tracing` / Perfetto), collapsed stacks for flamegraph
/// tooling, an indented human-readable tree, or the duration-free
/// `shape` lines the CI determinism job `cmp`s across thread counts.
/// With `--check-folded file` it instead lints an existing folded
/// artifact (the CI validity gate) and solves nothing.
fn cmd_profile(parsed: &Parsed) -> Result<(), String> {
    reject_bare(parsed, &["format", "out", "check-folded", "threads"])?;
    if let Some(path) = parsed.get("check-folded") {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        lubt_obs::lint_folded(&text).map_err(|e| format!("{path}: {e}"))?;
        println!(
            "{path}: folded profile ok ({} line(s))",
            text.lines().count()
        );
        return Ok(());
    }
    let inst = load_instance(parsed)?;
    let radius = inst.radius();
    let m = inst.sinks.len();
    let absolute = parsed.has("absolute");
    let lower = parsed.get_f64("lower")?.unwrap_or(0.0);
    let upper = parsed
        .get_f64("upper")?
        .ok_or_else(|| format!("--upper is required\n{USAGE}"))?;
    let bounds = DelayBounds::uniform(
        m,
        to_absolute(lower, radius, absolute),
        to_absolute(upper, radius, absolute),
    );
    let topology = choose_topology(parsed, &inst, &bounds)?;
    let backend = choose_backend(parsed)?;
    let mut builder = LubtBuilder::new(inst.sinks.clone())
        .bounds(bounds)
        .backend(backend);
    if let Some(src) = inst.source {
        builder = builder.source(src);
    }
    if let Some(t) = topology {
        builder = builder.topology(t);
    }
    if let Some(limit) = lp_budget(parsed)? {
        builder = builder.max_lp_iterations(limit);
    }
    if let Some(threads) = parsed.get_usize("threads")? {
        builder = builder.threads(threads);
    }
    let cap = trace_event_cap(parsed)?;
    let rec = std::sync::Arc::new(lubt_obs::TraceRecorder::with_event_cap(
        cap.unwrap_or(lubt_obs::DEFAULT_EVENT_CAP),
    ));
    let result = builder
        .solve_recorded(std::sync::Arc::clone(&rec) as std::sync::Arc<dyn lubt_obs::Recorder>);
    let trace = rec.snapshot();
    let doc = match parsed.get("format").unwrap_or("chrome") {
        "chrome" => trace.spans.to_chrome_trace(),
        "folded" => trace.spans.to_folded(),
        "tree" => trace.spans.render_text(),
        "shape" => trace.spans.shape_text(),
        other => {
            return Err(format!(
                "unknown format {other:?} (chrome|folded|tree|shape)"
            ))
        }
    };
    match parsed.get("out") {
        Some(path) => {
            lubt_obs::fsio::write_atomic(path, &doc)
                .map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!("profile written to {path}");
        }
        None => print!("{doc}"),
    }
    warn_dropped_events(&trace);
    // The profile itself is the product and was exported above even for
    // a failed solve (failures are where profiles matter most), but a
    // failure still exits non-zero.
    result.map(|_| ()).map_err(|e| render_lubt_error(&e))
}

/// `lubt bench`: runs the pinned benchmark suite (the simplex, revised
/// and dp backends, a serial and a parallel leg with a built-in
/// determinism cross-check) and writes the schema-versioned
/// `lubt-bench-v1` document, default `BENCH_<label>.json`. The document's `"deterministic"` section is
/// byte-identical across thread counts and machines; wall clock and
/// machine facts live under `"determinism_exempt"`.
fn cmd_bench(parsed: &Parsed) -> Result<(), String> {
    reject_bare(parsed, &["label", "threads", "sizes", "out"])?;
    let mut config = lubt_bench::suite::SuiteConfig {
        label: parsed.get("label").unwrap_or("local").to_string(),
        ..lubt_bench::suite::SuiteConfig::default()
    };
    match parsed.get_usize("threads")? {
        Some(0) => {
            return Err(
                "--threads must be at least 1 (omit the flag to use every core)".to_string(),
            )
        }
        Some(n) => config.threads = n,
        None => {}
    }
    if let Some(csv) = parsed.get("sizes") {
        config.sizes = csv
            .split(',')
            .map(|s| {
                s.trim()
                    .parse::<usize>()
                    .map_err(|_| format!("--sizes expects integers, got {s:?}"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        if config.sizes.is_empty() {
            return Err("--sizes must name at least one size".to_string());
        }
    }
    config.full = parsed.has("full");
    config.audit = parsed.has("audit");
    config.serve = parsed.has("serve");
    config.profile = parsed.has("profile");
    config.par_intra = parsed.has("par-intra");
    let run = lubt_bench::suite::run(&config)?;
    let out = parsed
        .get("out")
        .map_or_else(|| format!("BENCH_{}.json", run.label), String::from);
    lubt_obs::fsio::write_atomic(&out, &run.to_json())
        .map_err(|e| format!("cannot write {out}: {e}"))?;
    println!(
        "bench \"{}\": {} solves over {} instance/backend rows (sizes {:?}, {} worker(s)); \
         written to {out}",
        run.label,
        run.aggregate.solves,
        run.rows.len(),
        run.sizes,
        run.threads
    );
    if let Some(serve) = &run.serve {
        println!(
            "serve group ({} workers, {} requests/pass, byte-identical across passes):",
            serve.workers, serve.requests_per_pass
        );
        for (name, pass) in &serve.passes {
            println!(
                "  {name:<6} p50 {:>9} ns   p99 {:>9} ns   {:>8.1} req/s",
                pass.latency.percentile(0.50).unwrap_or(0),
                pass.latency.percentile(0.99).unwrap_or(0),
                pass.throughput_rps()
            );
        }
    }
    Ok(())
}

/// `lubt report`: diffs two benchmark documents and exits non-zero when
/// the current run regressed. Deterministic counters compare exactly;
/// wall-clock totals compare against `--timing-threshold` (default 25%
/// slack) unless `--ignore-timings`.
fn cmd_report(parsed: &Parsed) -> Result<(), String> {
    reject_bare(parsed, &["baseline", "current", "timing-threshold"])?;
    let baseline_path = parsed
        .get("baseline")
        .ok_or_else(|| format!("--baseline is required\n{USAGE}"))?;
    let current_path = parsed
        .get("current")
        .ok_or_else(|| format!("--current is required\n{USAGE}"))?;
    let baseline = std::fs::read_to_string(baseline_path)
        .map_err(|e| format!("cannot read {baseline_path}: {e}"))?;
    let current = std::fs::read_to_string(current_path)
        .map_err(|e| format!("cannot read {current_path}: {e}"))?;
    let mut opts = lubt_bench::report::ReportOptions {
        ignore_timings: parsed.has("ignore-timings"),
        ..lubt_bench::report::ReportOptions::default()
    };
    if let Some(t) = parsed.get_f64("timing-threshold")? {
        if t <= 0.0 || t.is_nan() {
            return Err("--timing-threshold must be positive".to_string());
        }
        opts.timing_threshold = t;
    }
    let report = lubt_bench::report::compare(&baseline, &current, &opts)?;
    if wants(parsed, "json") {
        emit_json(parsed, "json", "report", &report.to_json())?;
    } else {
        print!("{}", report.to_text());
    }
    if report.failed() {
        Err(format!(
            "benchmark regression: {} deterministic, {} timing (see report above)",
            report.regressions(),
            report.timing_regressions()
        ))
    } else {
        Ok(())
    }
}

/// `lubt lint <input>`: static analysis without solving. Prints every
/// diagnostic (human-readable, or JSON with `--json`), exits non-zero when
/// any deny-level finding proves the instance unusable.
fn cmd_lint(parsed: &Parsed) -> Result<(), String> {
    let inst = load_instance(parsed)?;
    let radius = inst.radius();
    let m = inst.sinks.len();
    let absolute = parsed.has("absolute");
    // A bare `--lower`/`--upper` parses as a switch; silently falling back
    // to the default window would report "clean" for bounds never applied.
    for key in ["lower", "upper"] {
        if parsed.has(key) && parsed.get(key).is_none() {
            return Err(format!("--{key} requires a value"));
        }
    }
    let lower = to_absolute(parsed.get_f64("lower")?.unwrap_or(0.0), radius, absolute);
    let upper = match parsed.get_f64("upper")? {
        Some(u) => to_absolute(u, radius, absolute),
        None => f64::INFINITY,
    };
    let bounds = DelayBounds::from_pairs(vec![(lower, upper); m]).map_err(|e| e.to_string())?;

    let topology = choose_topology(parsed, &inst, &bounds)?;
    let mut builder = LubtBuilder::new(inst.sinks.clone()).bounds(bounds);
    if let Some(src) = inst.source {
        builder = builder.source(src);
    }
    if let Some(t) = topology {
        builder = builder.topology(t);
    }
    let problem = builder.build().map_err(|e| e.to_string())?;
    let diags = problem.lint();

    if parsed.has("json") || parsed.get("json").is_some() {
        let json = lubt_lint::diagnostics_to_json(&diags);
        match parsed.get("json") {
            Some(path) => {
                lubt_obs::fsio::write_atomic(path, &json)
                    .map_err(|e| format!("cannot write {path}: {e}"))?;
                println!("json written to {path}");
            }
            None => println!("{json}"),
        }
    } else {
        println!("instance        {}", inst.name);
        println!("sinks           {m}");
        if diags.is_empty() {
            println!("lint            clean");
        }
        for d in &diags {
            println!("{d}");
        }
    }

    let denials = diags.iter().filter(|d| d.is_deny()).count();
    if denials > 0 {
        Err(format!(
            "{denials} deny-level lint finding(s): no LUBT exists for these bounds and topology"
        ))
    } else {
        Ok(())
    }
}

/// `lubt serve`: boots the long-lived solver daemon and blocks until a
/// graceful shutdown is signaled over the wire (`--allow-shutdown`).
/// The listening line is flushed eagerly so scripted harnesses can read
/// the resolved port even when stdout is a pipe.
fn cmd_serve(parsed: &Parsed) -> Result<(), String> {
    reject_bare(
        parsed,
        &[
            "addr",
            "workers",
            "queue-depth",
            "cache-entries",
            "session-entries",
            "max-request-bytes",
            "default-deadline-ms",
            "trace-event-cap",
        ],
    )?;
    let mut config = lubt_serve::ServeConfig {
        addr: parsed.get("addr").unwrap_or("127.0.0.1:4600").to_string(),
        allow_shutdown: parsed.has("allow-shutdown"),
        ..lubt_serve::ServeConfig::default()
    };
    if let Some(cap) = parsed.get_usize("trace-event-cap")? {
        config.trace_event_cap = cap;
    }
    if wants(parsed, "access-log") {
        // A bare `--access-log` gets the conventional filename.
        config.access_log = Some(
            parsed
                .get("access-log")
                .unwrap_or("lubt-access.jsonl")
                .to_string(),
        );
    }
    if let Some(n) = parsed.get_usize("workers")? {
        config.workers = n;
    }
    if let Some(n) = parsed.get_usize("queue-depth")? {
        config.queue_depth = n;
    }
    if let Some(n) = parsed.get_usize("cache-entries")? {
        config.cache_entries = n;
    }
    if let Some(n) = parsed.get_usize("session-entries")? {
        config.session_entries = n;
    }
    if let Some(n) = parsed.get_usize("max-request-bytes")? {
        config.max_request_bytes = n;
    }
    if let Some(ms) = parsed.get_usize("default-deadline-ms")? {
        config.default_deadline_ms = Some(ms as u64);
    }
    let server = lubt_serve::Server::start(config.clone())
        .map_err(|e| format!("cannot start server: {e}"))?;
    println!(
        "lubt-serve {} listening on {} ({} workers, queue {}, cache {}, sessions {})",
        lubt_serve::PROTOCOL,
        server.addr(),
        config.effective_workers(),
        config.queue_depth,
        config.cache_entries,
        config.session_entries
    );
    if let Some(path) = &config.access_log {
        println!("access log appending to {path}");
    }
    use std::io::Write as _;
    std::io::stdout().flush().ok();
    server.wait();
    println!("lubt-serve drained and stopped");
    Ok(())
}

fn cmd_zeroskew(parsed: &Parsed) -> Result<(), String> {
    let inst = load_instance(parsed)?;
    let radius = inst.radius();
    let absolute = parsed.has("absolute");
    let target = parsed
        .get_f64("target")?
        .map(|t| to_absolute(t, radius, absolute));
    let zst = zero_skew_tree(&inst.sinks, inst.source, None, target).map_err(|e| e.to_string())?;
    println!("instance        {}", inst.name);
    println!("tree cost       {:.3}", zst.cost());
    println!(
        "common delay    {:.3}  ({:.3}R)",
        zst.delay,
        zst.delay / radius
    );
    println!("skew            {:.3e}", zst.skew());
    if parsed.get("svg").is_some() {
        let svg = lubt_core::render_tree_svg(
            &zst.topology,
            &zst.positions,
            &zst.edge_lengths,
            &lubt_core::SvgOptions::default(),
        );
        write_svg(parsed, &svg)?;
    }
    Ok(())
}

fn cmd_bst(parsed: &Parsed) -> Result<(), String> {
    let inst = load_instance(parsed)?;
    let radius = inst.radius();
    let absolute = parsed.has("absolute");
    let skew = parsed
        .get_f64("skew")?
        .ok_or_else(|| format!("--skew is required\n{USAGE}"))?;
    let bst = bounded_skew_tree(
        &inst.sinks,
        inst.source,
        to_absolute(skew, radius, absolute),
    )
    .map_err(|e| e.to_string())?;
    let (short, long) = bst.delay_range();
    println!("instance        {}", inst.name);
    println!("skew budget     {:.3}", bst.skew_bound);
    println!("tree cost       {:.3}", bst.cost());
    println!(
        "delay window    [{:.3}, {:.3}]  ({:.3}R .. {:.3}R)",
        short,
        long,
        short / radius,
        long / radius
    );
    println!("realized skew   {:.6}", bst.skew());
    Ok(())
}

fn cmd_gen(parsed: &Parsed) -> Result<(), String> {
    let kind = parsed
        .positional
        .get(1)
        .ok_or_else(|| format!("missing generator name\n{USAGE}"))?;
    let sinks = parsed.get_usize("sinks")?;
    let seed = parsed.get_usize("seed")?.unwrap_or(1) as u64;
    let die = parsed.get_f64("die")?.unwrap_or(10_000.0);
    let inst = match kind.as_str() {
        "prim1" => synthetic::prim1(),
        "prim2" => synthetic::prim2(),
        "r1" => synthetic::r1(),
        "r2" => synthetic::r2(),
        "r3" => synthetic::r3(),
        "r4" => synthetic::r4(),
        "r5" => synthetic::r5(),
        "uniform" => synthetic::uniform("uniform-cli", sinks.unwrap_or(64), die, seed),
        "clustered" => synthetic::clustered("clustered-cli", sinks.unwrap_or(64), die, 8, seed),
        other => return Err(format!("unknown generator {other:?}\n{USAGE}")),
    };
    let inst = match sinks {
        Some(k) if k < inst.sinks.len() => inst.subsample(k),
        _ => inst,
    };
    let text = data_io::write(&inst);
    match parsed.get("out") {
        Some(path) => {
            lubt_obs::fsio::write_atomic(path, &text)
                .map_err(|e| format!("cannot write {path}: {e}"))?;
            println!("wrote {} sinks to {path}", inst.sinks.len());
        }
        None => print!("{text}"),
    }
    Ok(())
}
