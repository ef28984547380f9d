//! The pinned `lubt bench` suite: a fixed, seeded set of instances solved
//! under both LP backends, folded into an [`AggregateTrace`], and written
//! as a schema-versioned benchmark document.
//!
//! The suite is the unit of the performance trajectory: every run solves
//! the *same* instances (fixed generators, fixed seeds, fixed delay
//! windows), so two `BENCH_*.json` files from different commits are
//! directly comparable. The document keeps the DESIGN.md §9 split at the
//! top level — everything under `"deterministic"` must be byte-identical
//! across thread counts and machines, and `lubt report` compares it
//! exactly; machine metadata and wall-clock timings live under
//! `"determinism_exempt"` and only ever gate on ratios.
//!
//! Every run re-solves the suite at one worker *and* at the configured
//! thread count and refuses to emit a document if the deterministic
//! halves disagree, so a benchmark file is also a determinism audit.

use std::collections::BTreeMap;
use std::time::Instant;

use lubt_core::{BatchSolver, DelayBounds, EbfSolver, LubtProblem, LubtSolution, SolverBackend};
use lubt_data::{synthetic, Instance};
use lubt_obs::json::{json_escape, json_f64};
use lubt_obs::AggregateTrace;
use lubt_topology::{nearest_neighbor_topology, SourceMode};

/// Schema tag of the benchmark document.
pub const BENCH_SCHEMA: &str = "lubt-bench-v1";

/// Name of the pinned instance set; bump when instances/seeds change so
/// `lubt report` can refuse cross-suite comparisons.
pub const SUITE_NAME: &str = "pinned-v1";

/// Die side for every generated instance.
const DIE: f64 = 1000.0;

/// Delay window as fractions of the instance radius: `[0.9 R, 1.4 R]`
/// exercises both the lower-bound (snaking) and upper-bound machinery.
const LOWER_FRAC: f64 = 0.9;
const UPPER_FRAC: f64 = 1.4;

/// Sink counts of the large `--full` instances, where the sparse kernel's
/// advantage over the dense tableau is actually measurable.
pub const FULL_SIZES: [usize; 2] = [256, 512];

/// Suite configuration (sizes, thread count, backend cap).
#[derive(Debug, Clone)]
pub struct SuiteConfig {
    /// Label recorded in the document (e.g. `seed`, `ci`, `local`).
    pub label: String,
    /// Worker count for the parallel leg of the determinism check
    /// (`0` = all cores). The single-threaded leg always runs.
    pub threads: usize,
    /// Sink counts; each size yields one uniform and one clustered
    /// instance.
    pub sizes: Vec<usize>,
    /// Largest sink count the dense interior-point backend runs at.
    pub interior_cap: usize,
    /// When `true`, also solves the [`FULL_SIZES`] instances (dense and
    /// revised simplex) so kernel speedups are measurable; off by default
    /// to keep the CI bench gate fast.
    pub full: bool,
    /// When `true`, runs the `audit_overhead` group: a serial re-solve of
    /// every entry with exact certificate auditing enabled
    /// ([`EbfSolver::with_audit`] plus the rational tree audit). The run
    /// fails unless the audited rows are byte-identical to the unaudited
    /// ones; audit wall clock lands under `time.suite.audit_overhead.*`
    /// in the determinism-exempt half, and the audited leg's aggregates
    /// are discarded so the published deterministic section is unchanged.
    pub audit: bool,
    /// When `true`, runs the `serve` group: boots real `lubt serve`
    /// daemons on loopback and drives the pinned instances over TCP
    /// through cold, cached, warm and concurrent-burst passes, recording
    /// throughput and latency percentiles. The group internally refuses
    /// to report unless every pass's responses are byte-identical, and
    /// its numbers (all wall clock) land under `determinism_exempt.serve`
    /// plus a `time.suite.serve.threads<n>` wall key.
    pub serve: bool,
    /// When `true`, runs the `profile_overhead` group: every entry
    /// re-solved serially twice, once through the span-profiling recorder
    /// and once untraced, so the wall cost of hierarchical profiling is
    /// measurable. Both legs' rows must be byte-identical to the
    /// unprofiled serial leg (profiling must never perturb results,
    /// DESIGN.md §16); the wall clocks land under
    /// `time.suite.profile_overhead.{traced,untraced}.threads1`.
    pub profile: bool,
    /// When `true`, runs the `par_intra` group: the pinned 512-sink
    /// uniform instance solved on the revised backend at 1/2/4/8
    /// separation-oracle workers (the LP solves stay serial, DESIGN.md
    /// §9), producing the single-instance scaling curve under
    /// `time.suite.par_intra.threads<n>`. The group refuses to report
    /// unless the edge lengths, report, and span *shape* are
    /// byte-identical across all four thread counts; nothing from it
    /// enters the deterministic half.
    pub par_intra: bool,
}

impl Default for SuiteConfig {
    fn default() -> Self {
        SuiteConfig {
            label: "local".to_string(),
            threads: 0,
            sizes: vec![6, 10, 16],
            interior_cap: 12,
            full: false,
            audit: false,
            serve: false,
            profile: false,
            par_intra: false,
        }
    }
}

/// One solved (instance, backend) pair — a row of the benchmark table.
/// Every field is deterministic.
#[derive(Debug, Clone, PartialEq)]
pub struct InstanceRow {
    /// Pinned instance name (e.g. `u10`, `c16`).
    pub name: String,
    /// Solver backend (`simplex` | `interior` | `revised` | `dp`).
    pub backend: &'static str,
    /// Sink count.
    pub sinks: usize,
    /// Optimal tree cost (sum of edge lengths).
    pub cost: f64,
    /// LP pivots / interior-point steps across all re-solves.
    pub lp_iterations: usize,
    /// Lazy separation rounds.
    pub separation_rounds: usize,
    /// Steiner rows materialized, out of `C(m, 2)`.
    pub steiner_rows: usize,
    /// Total available pair rows.
    pub total_pairs: usize,
    /// `true` when lazy separation fell back to the full row set.
    pub truncated: bool,
}

/// One completed suite run, ready to serialize.
#[derive(Debug, Clone)]
pub struct BenchRun {
    /// Label from the config.
    pub label: String,
    /// Sink counts solved.
    pub sizes: Vec<usize>,
    /// Interior-point size cap used.
    pub interior_cap: usize,
    /// Per-(instance, backend) rows, in pinned order.
    pub rows: Vec<InstanceRow>,
    /// Fold of the **core** solves — the seed-era scope (dense simplex and
    /// capped interior point at the base sizes), kept separate so its
    /// deterministic half stays exactly comparable against baselines
    /// recorded before the revised backend and `--full` sizes existed.
    pub aggregate: AggregateTrace,
    /// Fold of the **extended** solves (revised backend, `--full`
    /// instances); compared exactly only between documents that both
    /// carry it.
    pub extended: AggregateTrace,
    /// Resolved worker count of the parallel leg.
    pub threads: usize,
    /// The `serve` bench group (daemon throughput + latency percentiles),
    /// present only when the config asked for it. Wall clock through and
    /// through, so it serializes under `determinism_exempt`.
    pub serve: Option<crate::serve_bench::ServeBench>,
    /// Wall-clock per backend and leg (`time.suite.<backend>.threads<n>`),
    /// determinism-exempt.
    pub suite_wall_ns: BTreeMap<String, u64>,
}

/// The pinned instances for `sizes`: one uniform scatter and one
/// 3-cluster blob per size, seeds derived from the size alone.
pub fn pinned_instances(sizes: &[usize]) -> Vec<Instance> {
    let mut out = Vec::new();
    for &m in sizes {
        out.push(synthetic::uniform(
            &format!("u{m}"),
            m,
            DIE,
            0xD1E0 + m as u64,
        ));
        out.push(synthetic::clustered(
            &format!("c{m}"),
            m,
            DIE,
            3,
            0xC1A0 + m as u64,
        ));
    }
    out
}

/// One planned solve: the problem plus its row metadata.
struct Entry {
    name: String,
    backend: SolverBackend,
    backend_label: &'static str,
    /// Batch/wall-clock group; also decides the aggregate fold (see
    /// [`GROUPS`]).
    group: &'static str,
    sinks: usize,
    problem: LubtProblem,
}

/// The batch groups in solve order: `(group name, backend, core)`. `core`
/// groups fold into the seed-comparable aggregate; the rest fold into
/// `extended`.
const GROUPS: [(&str, SolverBackend, bool); 6] = [
    ("simplex", SolverBackend::Simplex, true),
    ("interior", SolverBackend::InteriorPoint, true),
    ("revised", SolverBackend::Revised, false),
    ("dp", SolverBackend::Dp, false),
    ("simplex-full", SolverBackend::Simplex, false),
    ("revised-full", SolverBackend::Revised, false),
];

fn planned_problem(inst: &Instance) -> Result<LubtProblem, String> {
    let radius = inst.radius();
    let m = inst.sinks.len();
    let topo = nearest_neighbor_topology(&inst.sinks, SourceMode::Given);
    LubtProblem::new(
        inst.sinks.clone(),
        inst.source,
        topo,
        DelayBounds::uniform(m, LOWER_FRAC * radius, UPPER_FRAC * radius),
    )
    .map_err(|e| format!("suite instance {}: {e}", inst.name))
}

fn plan(config: &SuiteConfig) -> Result<Vec<Entry>, String> {
    let mut entries = Vec::new();
    for inst in pinned_instances(&config.sizes) {
        let m = inst.sinks.len();
        let problem = planned_problem(&inst)?;
        let mut backends = vec![(SolverBackend::Simplex, "simplex", "simplex")];
        if m <= config.interior_cap {
            backends.push((SolverBackend::InteriorPoint, "interior", "interior"));
        }
        backends.push((SolverBackend::Revised, "revised", "revised"));
        // The exact oracle runs only at the base sizes: its C(m, 2)-row
        // rational core is the cross-check, not the large-instance path.
        backends.push((SolverBackend::Dp, "dp", "dp"));
        for (backend, backend_label, group) in backends {
            entries.push(Entry {
                name: inst.name.clone(),
                backend,
                backend_label,
                group,
                sinks: m,
                problem: problem.clone(),
            });
        }
    }
    if config.full {
        for inst in pinned_instances(&FULL_SIZES) {
            let m = inst.sinks.len();
            let problem = planned_problem(&inst)?;
            for (backend, backend_label, group) in [
                (SolverBackend::Simplex, "simplex", "simplex-full"),
                (SolverBackend::Revised, "revised", "revised-full"),
            ] {
                entries.push(Entry {
                    name: inst.name.clone(),
                    backend,
                    backend_label,
                    group,
                    sinks: m,
                    problem: problem.clone(),
                });
            }
        }
    }
    Ok(entries)
}

/// Solves every entry at `threads` workers, one [`BatchSolver`] batch per
/// backend, and returns the rows (in entry order) plus the merged
/// aggregate. Wall clock per backend goes into `wall` under
/// `time.suite.<backend>.threads<threads>` — or
/// `time.suite.audit_overhead.<backend>.threads<threads>` when `audit`
/// is on, which also enables exact LP certificate auditing in the solver
/// and the rational tree audit on every solution.
fn solve_entries(
    entries: &[Entry],
    threads: usize,
    audit: bool,
    wall: &mut BTreeMap<String, u64>,
) -> Result<(Vec<InstanceRow>, AggregateTrace, AggregateTrace), String> {
    let mut rows: Vec<Option<InstanceRow>> = vec![None; entries.len()];
    let mut aggregate = AggregateTrace::new();
    let mut extended = AggregateTrace::new();
    for (label, backend, core) in GROUPS {
        let indices: Vec<usize> = (0..entries.len())
            .filter(|&i| entries[i].group == label)
            .collect();
        if indices.is_empty() {
            continue;
        }
        debug_assert!(indices.iter().all(|&i| entries[i].backend == backend));
        let problems: Vec<LubtProblem> = indices
            .iter()
            .map(|&i| entries[i].problem.clone())
            .collect();
        let batch = BatchSolver::new()
            .with_threads(threads)
            .with_solver(EbfSolver::new().with_backend(backend).with_audit(audit));
        let key = if audit {
            format!("time.suite.audit_overhead.{label}.threads{threads}")
        } else {
            format!("time.suite.{label}.threads{threads}")
        };
        let start = Instant::now();
        let (results, _traces, agg) = batch.solve_all_aggregated(&problems);
        wall.insert(key, elapsed_ns(start));
        if core {
            aggregate.merge(&agg);
        } else {
            extended.merge(&agg);
        }
        for (&i, result) in indices.iter().zip(results) {
            let entry = &entries[i];
            let solution = result
                .map_err(|e| format!("suite solve {}/{}: {e}", entry.name, entry.backend_label))?;
            if audit {
                let findings = solution.audit_tree();
                if !findings.is_empty() {
                    return Err(format!(
                        "suite audit {}/{}: exact tree audit rejected the embedding \
                         ({} finding(s))",
                        entry.name,
                        entry.backend_label,
                        findings.len()
                    ));
                }
            }
            rows[i] = Some(row_for(entry, &solution));
        }
    }
    let rows = rows
        .into_iter()
        .collect::<Option<Vec<_>>>()
        .expect("every entry belongs to exactly one batch group");
    Ok((rows, aggregate, extended))
}

/// Wall-clock nanoseconds since `start`, saturating.
fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// The benchmark row of one solved entry (all deterministic facts).
fn row_for(entry: &Entry, solution: &LubtSolution) -> InstanceRow {
    let report = solution.report();
    InstanceRow {
        name: entry.name.clone(),
        backend: entry.backend_label,
        sinks: entry.sinks,
        cost: solution.cost(),
        lp_iterations: report.lp_iterations,
        separation_rounds: report.separation_rounds,
        steiner_rows: report.steiner_rows,
        total_pairs: report.total_pairs,
        truncated: report.truncated,
    }
}

/// The `profile_overhead` group: every entry re-solved serially twice —
/// once through the span-profiling recorder
/// ([`BatchSolver::solve_all_traced`], which grows a span tree) and once
/// untraced — so the wall cost of hierarchical profiling is measurable.
/// Both legs' rows must be byte-identical to `serial_rows` (profiling
/// must never perturb results); only the two quarantined wall keys
/// survive into the document.
fn profile_overhead(
    entries: &[Entry],
    serial_rows: &[InstanceRow],
    wall: &mut BTreeMap<String, u64>,
) -> Result<(), String> {
    for leg in ["traced", "untraced"] {
        let mut rows: Vec<Option<InstanceRow>> = vec![None; entries.len()];
        let start = Instant::now();
        for (label, backend, _) in GROUPS {
            let indices: Vec<usize> = (0..entries.len())
                .filter(|&i| entries[i].group == label)
                .collect();
            if indices.is_empty() {
                continue;
            }
            let problems: Vec<LubtProblem> = indices
                .iter()
                .map(|&i| entries[i].problem.clone())
                .collect();
            let batch = BatchSolver::new()
                .with_threads(1)
                .with_solver(EbfSolver::new().with_backend(backend));
            let results = if leg == "traced" {
                let (results, trace) = batch.solve_all_traced(&problems);
                if trace.spans.is_empty() {
                    return Err(format!(
                        "profile_overhead: traced leg of {label} produced no spans"
                    ));
                }
                results
            } else {
                batch.solve_all(&problems)
            };
            for (&i, result) in indices.iter().zip(results) {
                let entry = &entries[i];
                let solution = result.map_err(|e| {
                    format!(
                        "profile_overhead {}/{}: {e}",
                        entry.name, entry.backend_label
                    )
                })?;
                rows[i] = Some(row_for(entry, &solution));
            }
        }
        wall.insert(
            format!("time.suite.profile_overhead.{leg}.threads1"),
            elapsed_ns(start),
        );
        let rows = rows
            .into_iter()
            .collect::<Option<Vec<_>>>()
            .expect("every entry belongs to exactly one batch group");
        if rows.as_slice() != serial_rows {
            return Err(format!(
                "profile_overhead: {leg} rows diverged from the unprofiled leg \
                 — profiling perturbed solver results"
            ));
        }
    }
    Ok(())
}

/// Sink count of the `par_intra` scaling instance (the pinned `u512`).
pub const PAR_INTRA_SINKS: usize = 512;

/// Thread counts of the `par_intra` scaling curve.
pub const PAR_INTRA_THREADS: [usize; 4] = [1, 2, 4, 8];

/// The `par_intra` group: one pinned uniform instance of `m` sinks,
/// solved on the revised backend at each [`PAR_INTRA_THREADS`] count
/// with span profiling on. Wall clock per thread count goes into `wall`
/// under `time.suite.par_intra.threads<n>`; the call fails unless the
/// edge-length bits, the report, and the span shape are identical for
/// every thread count (the DESIGN.md §9 determinism wall).
pub fn par_intra_scaling(m: usize, wall: &mut BTreeMap<String, u64>) -> Result<(), String> {
    let inst = synthetic::uniform(&format!("u{m}"), m, DIE, 0xD1E0 + m as u64);
    let problem = planned_problem(&inst)?;
    let mut baseline: Option<(Vec<u64>, lubt_core::EbfReport, String)> = None;
    for threads in PAR_INTRA_THREADS {
        let solver = EbfSolver::new()
            .with_backend(SolverBackend::Revised)
            .with_threads(threads);
        let start = Instant::now();
        let (outcome, trace) = solver.solve_traced(&problem);
        wall.insert(
            format!("time.suite.par_intra.threads{threads}"),
            elapsed_ns(start),
        );
        let (lengths, report) =
            outcome.map_err(|e| format!("par_intra u{m} at {threads} threads: {e}"))?;
        let bits: Vec<u64> = lengths.iter().map(|v| v.to_bits()).collect();
        let shape = trace.spans.shape_text();
        match &baseline {
            None => baseline = Some((bits, report, shape)),
            Some((b_bits, b_report, b_shape)) => {
                if *b_bits != bits || *b_report != report {
                    return Err(format!(
                        "par_intra determinism violation: u{m} solve differs \
                         between 1 and {threads} intra-solve workers"
                    ));
                }
                if *b_shape != shape {
                    return Err(format!(
                        "par_intra determinism violation: u{m} span shape differs \
                         between 1 and {threads} intra-solve workers"
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Runs the pinned suite: serial leg, parallel leg, determinism
/// cross-check, and the fold into one [`BenchRun`].
///
/// # Errors
///
/// Fails on solver errors and on any deterministic divergence between
/// the serial and parallel legs (which would indicate a §9 contract
/// violation — the run must not be published as a baseline).
pub fn run(config: &SuiteConfig) -> Result<BenchRun, String> {
    let entries = plan(config)?;
    let mut wall = BTreeMap::new();
    let (serial_rows, serial_agg, serial_ext) = solve_entries(&entries, 1, false, &mut wall)?;
    if config.audit {
        // The audit_overhead group: same entries, serial, with exact
        // certificate auditing switched on. Rows must match the unaudited
        // leg byte for byte; only the wall clock (already quarantined
        // under a `time.` key) survives into the document.
        let (audited_rows, _, _) = solve_entries(&entries, 1, true, &mut wall)?;
        if audited_rows != serial_rows {
            return Err("audit divergence: audited rows differ from unaudited rows".to_string());
        }
    }
    if config.profile {
        profile_overhead(&entries, &serial_rows, &mut wall)?;
    }
    if config.par_intra {
        par_intra_scaling(PAR_INTRA_SINKS, &mut wall)?;
    }
    let threads = lubt_par::resolve_threads(config.threads);
    let (rows, aggregate, extended) = if threads == 1 {
        (serial_rows, serial_agg, serial_ext)
    } else {
        let (par_rows, par_agg, par_ext) = solve_entries(&entries, threads, false, &mut wall)?;
        if par_rows != serial_rows {
            return Err(format!(
                "determinism violation: instance rows differ between 1 and {threads} workers"
            ));
        }
        if par_agg.deterministic_json("") != serial_agg.deterministic_json("")
            || par_ext.deterministic_json("") != serial_ext.deterministic_json("")
        {
            return Err(format!(
                "determinism violation: aggregate deterministic halves differ \
                 between 1 and {threads} workers"
            ));
        }
        // Keep the parallel leg's aggregates: the deterministic halves are
        // provably identical and the exempt halves show real scheduling.
        (par_rows, par_agg, par_ext)
    };
    let serve = if config.serve {
        let instances = pinned_instances(&config.sizes);
        let bench = crate::serve_bench::run(&instances, LOWER_FRAC, UPPER_FRAC, threads)?;
        wall.insert(
            format!("time.suite.serve.threads{threads}"),
            bench.total_wall_ns,
        );
        Some(bench)
    } else {
        None
    };
    Ok(BenchRun {
        label: config.label.clone(),
        sizes: config.sizes.clone(),
        interior_cap: config.interior_cap,
        rows,
        aggregate,
        extended,
        threads,
        serve,
        suite_wall_ns: wall,
    })
}

impl BenchRun {
    /// Serializes the run as one strict-JSON `lubt-bench-v1` document.
    ///
    /// Layout contract: the whole `"deterministic"` member — rows and
    /// aggregate — is byte-identical across thread counts; machine
    /// metadata, worker counts and wall-clock totals are confined to
    /// `"determinism_exempt"`.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str(&format!("  \"schema\": \"{BENCH_SCHEMA}\",\n"));
        s.push_str(&format!("  \"label\": \"{}\",\n", json_escape(&self.label)));
        s.push_str("  \"suite\": {\n");
        s.push_str(&format!("    \"name\": \"{SUITE_NAME}\",\n"));
        s.push_str(&format!(
            "    \"sizes\": [{}],\n",
            self.sizes
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join(", ")
        ));
        s.push_str(&format!("    \"die\": {},\n", json_f64(DIE)));
        s.push_str(&format!(
            "    \"window\": {{\"lower_frac\": {}, \"upper_frac\": {}}},\n",
            json_f64(LOWER_FRAC),
            json_f64(UPPER_FRAC)
        ));
        s.push_str(&format!(
            "    \"interior_cap\": {}\n  }},\n",
            self.interior_cap
        ));

        s.push_str("  \"deterministic\": {\n    \"instances\": [\n");
        for (i, r) in self.rows.iter().enumerate() {
            s.push_str(&format!(
                "      {{\"name\": \"{}\", \"backend\": \"{}\", \"sinks\": {}, \
                 \"cost\": {}, \"lp_iterations\": {}, \"separation_rounds\": {}, \
                 \"steiner_rows\": {}, \"total_pairs\": {}, \"truncated\": {}}}{}\n",
                json_escape(&r.name),
                r.backend,
                r.sinks,
                json_f64(r.cost),
                r.lp_iterations,
                r.separation_rounds,
                r.steiner_rows,
                r.total_pairs,
                r.truncated,
                if i + 1 < self.rows.len() { "," } else { "" }
            ));
        }
        s.push_str("    ],\n");
        s.push_str(&format!("    \"solves\": {},\n", self.aggregate.solves));
        s.push_str("    \"aggregate\": ");
        s.push_str(&self.aggregate.deterministic_json("    "));
        // Extended scope (revised backend, --full sizes) is its own
        // member so the core aggregate above stays exactly comparable
        // against pre-revised baselines.
        s.push_str(",\n    \"extended\": {\n");
        s.push_str(&format!(
            "      \"solves\": {},\n      \"aggregate\": ",
            self.extended.solves
        ));
        s.push_str(&self.extended.deterministic_json("      "));
        s.push_str("\n    }\n  },\n");

        s.push_str("  \"determinism_exempt\": {\n");
        s.push_str(&format!(
            "    \"machine\": {{\"os\": \"{}\", \"arch\": \"{}\", \
             \"available_parallelism\": {}, \"threads\": {}}},\n",
            json_escape(std::env::consts::OS),
            json_escape(std::env::consts::ARCH),
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            self.threads
        ));
        s.push_str("    \"suite_wall_ns\": {");
        let mut first = true;
        for (k, v) in &self.suite_wall_ns {
            s.push_str(if first { "\n" } else { ",\n" });
            first = false;
            s.push_str(&format!("      \"{}\": {v}", json_escape(k)));
        }
        if !first {
            s.push_str("\n    ");
        }
        s.push_str("},\n");
        if let Some(serve) = &self.serve {
            s.push_str("    \"serve\": ");
            s.push_str(&serve.to_json("    "));
            s.push_str(",\n");
        }
        s.push_str("    \"aggregate\": ");
        s.push_str(&self.aggregate.exempt_json("    "));
        s.push_str(",\n    \"extended_aggregate\": ");
        s.push_str(&self.extended.exempt_json("    "));
        s.push_str("\n  }\n}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lubt_obs::json::validate;

    fn tiny() -> SuiteConfig {
        SuiteConfig {
            label: "test".to_string(),
            threads: 2,
            sizes: vec![5, 8],
            interior_cap: 6,
            full: false,
            audit: false,
            serve: false,
            profile: false,
            par_intra: false,
        }
    }

    #[test]
    fn par_intra_scaling_checks_determinism_and_quarantines_wall_clock() {
        // The real group runs the pinned 512-sink instance; the unit test
        // exercises the same code path at a CI-friendly size.
        let mut wall = BTreeMap::new();
        par_intra_scaling(48, &mut wall).unwrap();
        for threads in PAR_INTRA_THREADS {
            let key = format!("time.suite.par_intra.threads{threads}");
            assert!(wall.contains_key(&key), "{key} missing");
        }
        // A run carrying the group gates clean against a baseline without
        // it: wall keys compare only when present in both documents.
        let plain = run(&tiny()).unwrap();
        let mut with_group = plain.clone();
        with_group.suite_wall_ns.extend(wall);
        let opts = crate::report::ReportOptions {
            ignore_timings: true,
            ..crate::report::ReportOptions::default()
        };
        let gate = crate::report::compare(&plain.to_json(), &with_group.to_json(), &opts).unwrap();
        assert!(!gate.failed(), "{}", gate.to_text());
    }

    #[test]
    fn pinned_instances_are_reproducible_and_named() {
        let a = pinned_instances(&[5, 8]);
        let b = pinned_instances(&[5, 8]);
        assert_eq!(a.len(), 4);
        assert_eq!(a[0].name, "u5");
        assert_eq!(a[1].name, "c5");
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.sinks, y.sinks, "{} regenerated differently", x.name);
        }
    }

    #[test]
    fn suite_runs_and_serializes_strict_json_with_split_sections() {
        let run = run(&tiny()).unwrap();
        // 2 sizes × 2 instances with simplex + revised + dp everywhere and
        // interior only at m = 5 ⇒ 12 + 2 rows; the 4 revised and 4 dp
        // solves fold into the extended aggregate, not the seed-comparable
        // core.
        assert_eq!(run.rows.len(), 14);
        assert_eq!(run.aggregate.solves, 6);
        assert_eq!(run.extended.solves, 8);
        assert_eq!(run.extended.counter("lp.solves"), 4);
        assert_eq!(run.extended.counter("dp.solves"), 4);
        assert_eq!(run.aggregate.counter("lp.solves"), 0);
        assert_eq!(run.aggregate.counter("dp.solves"), 0);
        assert_eq!(run.extended.counter("simplex.solves"), 0);
        assert!(run.rows.iter().all(|r| r.cost > 0.0));
        // The revised rows must agree with their dense twins exactly on
        // the LP-level facts (same pivot rules, same certificates).
        for r in run.rows.iter().filter(|r| r.backend == "revised") {
            let dense = run
                .rows
                .iter()
                .find(|d| d.backend == "simplex" && d.name == r.name)
                .expect("every revised row has a dense twin");
            assert!(
                (dense.cost - r.cost).abs() <= 1e-6 * (1.0 + dense.cost.abs()),
                "{}: dense {} vs revised {}",
                r.name,
                dense.cost,
                r.cost
            );
            assert_eq!(dense.separation_rounds, r.separation_rounds, "{}", r.name);
            assert_eq!(dense.steiner_rows, r.steiner_rows, "{}", r.name);
        }
        // The exact-oracle rows agree with the dense twins on cost; being
        // eager they materialize every pair row in a single round.
        for r in run.rows.iter().filter(|r| r.backend == "dp") {
            let dense = run
                .rows
                .iter()
                .find(|d| d.backend == "simplex" && d.name == r.name)
                .expect("every dp row has a dense twin");
            assert!(
                (dense.cost - r.cost).abs() <= 1e-6 * (1.0 + dense.cost.abs()),
                "{}: dense {} vs dp {}",
                r.name,
                dense.cost,
                r.cost
            );
            assert_eq!(r.separation_rounds, 1, "{}", r.name);
            assert_eq!(r.steiner_rows, r.total_pairs, "{}", r.name);
            assert!(!r.truncated, "{}", r.name);
        }
        let doc = run.to_json();
        validate(&doc).unwrap_or_else(|e| panic!("invalid bench JSON: {e}\n{doc}"));
        let det = doc.find("\"deterministic\"").unwrap();
        let exempt = doc.find("\"determinism_exempt\"").unwrap();
        assert!(det < exempt);
        // Wall clock, worker counts and machine facts never leak into the
        // comparable half.
        let det_half = &doc[det..exempt];
        assert!(!det_half.contains("time."));
        assert!(!det_half.contains("threads"));
        assert!(!det_half.contains("machine"));
        assert!(det_half.contains("\"extended\""));
        assert!(doc[exempt..].contains("suite_wall_ns"));
    }

    #[test]
    fn full_plan_adds_large_instances_without_touching_core() {
        let base = plan(&tiny()).unwrap();
        let full = plan(&SuiteConfig {
            full: true,
            ..tiny()
        })
        .unwrap();
        // The core prefix is unchanged; the full entries append after it.
        assert_eq!(full.len(), base.len() + 2 * FULL_SIZES.len() * 2);
        for (a, b) in base.iter().zip(&full) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.group, b.group);
        }
        let tail = &full[base.len()..];
        assert!(tail
            .iter()
            .all(|e| e.group == "simplex-full" || e.group == "revised-full"));
        assert!(tail.iter().any(|e| e.name == "u256"));
        assert!(tail.iter().any(|e| e.name == "c512"));
        assert!(GROUPS
            .iter()
            .filter(|(_, _, core)| !core)
            .all(|(g, _, _)| *g == "dp" || g.starts_with("revised") || g.ends_with("-full")));
    }

    #[test]
    fn audit_overhead_group_leaves_the_deterministic_section_untouched() {
        let plain = run(&tiny()).unwrap();
        let audited = run(&SuiteConfig {
            audit: true,
            ..tiny()
        })
        .unwrap();
        // Auditing every solve (which `run` itself cross-checks against
        // the unaudited rows) must not perturb the published document's
        // deterministic half at all.
        assert_eq!(plain.rows, audited.rows);
        assert_eq!(
            extract_deterministic(&plain.to_json()),
            extract_deterministic(&audited.to_json())
        );
        // The overhead shows up only as quarantined wall clock.
        assert!(audited
            .suite_wall_ns
            .keys()
            .any(|k| k.starts_with("time.suite.audit_overhead.")));
        assert!(!plain
            .suite_wall_ns
            .keys()
            .any(|k| k.starts_with("time.suite.audit_overhead.")));
        let doc = audited.to_json();
        validate(&doc).unwrap_or_else(|e| panic!("invalid bench JSON: {e}\n{doc}"));
        let det = extract_deterministic(&doc);
        assert!(!det.contains("audit_overhead"));
        assert!(doc.contains("time.suite.audit_overhead.simplex.threads1"));
    }

    #[test]
    fn profile_overhead_group_is_exempt_and_gates_against_plain_baselines() {
        let plain = run(&tiny()).unwrap();
        let profiled = run(&SuiteConfig {
            profile: true,
            ..tiny()
        })
        .unwrap();
        // Span profiling must not perturb the published deterministic
        // half at all (DESIGN.md §16).
        assert_eq!(plain.rows, profiled.rows);
        assert_eq!(
            extract_deterministic(&plain.to_json()),
            extract_deterministic(&profiled.to_json())
        );
        // Both legs' wall clocks land quarantined under `time.` keys.
        for leg in ["traced", "untraced"] {
            let key = format!("time.suite.profile_overhead.{leg}.threads1");
            assert!(profiled.suite_wall_ns.contains_key(&key), "{key} missing");
            assert!(
                !plain.suite_wall_ns.contains_key(&key),
                "{key} in plain run"
            );
        }
        let doc = profiled.to_json();
        validate(&doc).unwrap_or_else(|e| panic!("invalid bench JSON: {e}\n{doc}"));
        assert!(!extract_deterministic(&doc).contains("profile_overhead"));
        // The report gate tolerates wall keys present in only one side,
        // so a profiled run gates clean against a plain baseline.
        let opts = crate::report::ReportOptions {
            ignore_timings: true,
            ..crate::report::ReportOptions::default()
        };
        let gate = crate::report::compare(&plain.to_json(), &doc, &opts).unwrap();
        assert!(!gate.failed(), "{}", gate.to_text());
        let reverse = crate::report::compare(&doc, &plain.to_json(), &opts).unwrap();
        assert!(!reverse.failed(), "{}", reverse.to_text());
    }

    #[test]
    fn serve_group_is_exempt_and_the_report_gate_still_passes() {
        let plain = run(&tiny()).unwrap();
        let served = run(&SuiteConfig {
            serve: true,
            ..tiny()
        })
        .unwrap();
        // The daemon passes must not perturb the deterministic half at
        // all — serving mode changing a solve would be a §9 violation.
        assert_eq!(plain.rows, served.rows);
        assert_eq!(
            extract_deterministic(&plain.to_json()),
            extract_deterministic(&served.to_json())
        );
        let bench = served.serve.as_ref().expect("serve group requested");
        assert_eq!(bench.workers, served.threads);
        assert!(served
            .suite_wall_ns
            .keys()
            .any(|k| k.starts_with("time.suite.serve.threads")));
        let doc = served.to_json();
        validate(&doc).unwrap_or_else(|e| panic!("invalid bench JSON: {e}\n{doc}"));
        let exempt = doc.find("\"determinism_exempt\"").unwrap();
        assert!(doc[exempt..].contains("\"serve\""));
        assert!(doc[exempt..].contains("\"throughput_rps\""));
        // The seed gate compares deterministic scalars exactly and wall
        // keys only when present in both docs, so a serve-bearing run
        // gates clean against a serve-less baseline and vice versa.
        let opts = crate::report::ReportOptions {
            ignore_timings: true, // wall clock between two live runs is noise
            ..crate::report::ReportOptions::default()
        };
        let gate = crate::report::compare(&plain.to_json(), &doc, &opts).unwrap();
        assert!(!gate.failed(), "{}", gate.to_text());
        let reverse = crate::report::compare(&doc, &plain.to_json(), &opts).unwrap();
        assert!(!reverse.failed(), "{}", reverse.to_text());
    }

    #[test]
    fn deterministic_half_is_identical_across_runs() {
        let a = run(&tiny()).unwrap();
        let b = run(&tiny()).unwrap();
        assert_eq!(a.rows, b.rows);
        assert_eq!(
            a.aggregate.deterministic_json(""),
            b.aggregate.deterministic_json("")
        );
        let det_a = extract_deterministic(&a.to_json());
        let det_b = extract_deterministic(&b.to_json());
        assert_eq!(det_a, det_b, "deterministic section must be byte-stable");
    }

    /// The substring between `"deterministic"` and `"determinism_exempt"`.
    fn extract_deterministic(doc: &str) -> String {
        let start = doc.find("\"deterministic\"").unwrap();
        let end = doc.find("\"determinism_exempt\"").unwrap();
        doc[start..end].to_string()
    }
}
