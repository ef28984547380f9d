//! Pinned reference costs and the correctness ledger of a run.
//!
//! `references.txt` holds one optimal tree cost per net the workloads
//! can draw, each solved with the workload's own backend and
//! cross-checked once against a second one: the exact `dp` oracle up to
//! [`DP_MAX_SINKS`] sinks, the other simplex backend above. `pin`
//! regenerates the file.

use std::collections::HashMap;
use std::process::ExitCode;

use lubt_core::{LubtSolution, SolverBackend};

use crate::inputs::{paper_nets, Net, BATCH_POOL, SERVE_POOL};

/// Relative tolerance of every cost check.
pub const REL_TOL: f64 = 1e-9;
/// Largest net the `dp` oracle cross-checks (it finishes in seconds).
const DP_MAX_SINKS: usize = 16;

const TABLE: &str = include_str!("../references.txt");

/// Reference cost per net key.
#[derive(Debug, Clone, Default)]
pub struct References(HashMap<String, f64>);

impl References {
    /// The pinned table compiled into the benchmark.
    pub fn pinned() -> Self {
        let map = TABLE
            .lines()
            .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
            .map(|l| {
                let mut f = l.split_whitespace();
                let key = f.next().expect("reference line has a key");
                let cost = f
                    .next()
                    .and_then(|c| c.parse().ok())
                    .expect("reference line has a cost");
                (key.to_string(), cost)
            })
            .collect();
        References(map)
    }

    /// The reference cost of `key`, if pinned.
    pub fn get(&self, key: &str) -> Option<f64> {
        self.0.get(key).copied()
    }
}

/// `true` when `cost` is within [`REL_TOL`] of `reference`.
pub fn cost_matches(reference: f64, cost: f64) -> bool {
    (cost - reference).abs() <= REL_TOL * reference.abs().max(1.0)
}

/// Counts operations attempted and failed, and keeps the first few
/// failure messages for the report.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed any check.
    pub failed: u64,
    /// Results whose net had no pinned reference.
    pub unpinned: u64,
    /// The first failure messages.
    pub messages: Vec<String>,
}

impl Ledger {
    /// Records one failed operation.
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.messages.len() < 8 {
            self.messages.push(message);
        }
    }

    /// Checks `cost` of net `key` against its reference; records a
    /// failure on mismatch. Returns whether it passed.
    pub fn check_cost(&mut self, refs: &References, key: &str, cost: f64) -> bool {
        match refs.get(key) {
            Some(r) if cost_matches(r, cost) => true,
            Some(r) => {
                self.fail(format!("{key}: cost {cost:?} differs from reference {r:?}"));
                false
            }
            None => {
                self.unpinned += 1;
                true
            }
        }
    }

    /// Checks a solved net: `verify()` and its cost. Counts one attempt.
    pub fn check_solution(&mut self, refs: &References, key: &str, solution: &LubtSolution) {
        self.attempted += 1;
        if let Err(e) = solution.verify() {
            self.fail(format!("{key}: verify rejected the tree: {e}"));
            return;
        }
        self.check_cost(refs, key, solution.cost());
    }
}

/// Which backend a workload solves a net with, and with how many
/// intra-solve workers.
fn primary(key: &str) -> (SolverBackend, usize) {
    if key.starts_with("paper/") {
        (SolverBackend::Revised, 0)
    } else if key.starts_with("serve/") {
        // The daemon's default backend.
        (SolverBackend::Revised, 1)
    } else {
        // The library default (dense simplex), as `lubt batch` uses it.
        (SolverBackend::Simplex, 1)
    }
}

fn second(net: &Net, first: SolverBackend) -> SolverBackend {
    if net.inst.sinks.len() <= DP_MAX_SINKS {
        SolverBackend::Dp
    } else if first == SolverBackend::Simplex {
        SolverBackend::Revised
    } else {
        SolverBackend::Simplex
    }
}

fn solve_cost(net: &Net, backend: SolverBackend, threads: usize) -> Result<f64, String> {
    let solution = net
        .builder()
        .backend(backend)
        .threads(threads)
        .solve()
        .map_err(|e| format!("{}: {backend:?} failed: {e}", net.key))?;
    solution
        .verify()
        .map_err(|e| format!("{}: {backend:?} tree rejected: {e}", net.key))?;
    Ok(solution.cost())
}

/// `pin [--out FILE]`: solves every net the workloads can draw with its
/// workload's backend, cross-checks it on a second backend, and writes
/// the reference table (default `perfbench/references.txt`).
pub fn pin_main(args: &[String]) -> ExitCode {
    let out = match args {
        [] => concat!(env!("CARGO_MANIFEST_DIR"), "/references.txt").to_string(),
        [flag, path] if flag == "--out" => path.clone(),
        _ => {
            eprintln!("usage: lubt-perfbench pin [--out FILE]");
            return ExitCode::from(2);
        }
    };
    let mut nets = paper_nets();
    for pool in [BATCH_POOL, SERVE_POOL] {
        nets.extend((0..pool.len).map(|k| pool.net(k)));
    }
    let workers = lubt_par::available_parallelism();
    let next = std::sync::atomic::AtomicUsize::new(0);
    let rows: Vec<Result<(usize, String), String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        let Some(net) = nets.get(i) else { break };
                        let (backend, threads) = primary(&net.key);
                        let check = second(net, backend);
                        let row = solve_cost(net, backend, threads).and_then(|cost| {
                            let other = solve_cost(net, check, 1)?;
                            if !cost_matches(cost, other) {
                                return Err(format!(
                                    "{}: {backend:?} cost {cost:?} but {check:?} cost {other:?}",
                                    net.key
                                ));
                            }
                            Ok((i, format!("{} {cost:?} {backend:?}/{check:?}", net.key)))
                        });
                        if let Err(e) = &row {
                            eprintln!("{e}");
                        }
                        done.push(row);
                    }
                    done
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("pin worker panicked"))
            .collect()
    });
    let mut lines = Vec::with_capacity(rows.len());
    for row in rows {
        match row {
            Ok(line) => lines.push(line),
            Err(_) => return ExitCode::FAILURE,
        }
    }
    lines.sort_unstable();
    let mut text = String::from(
        "# Reference tree cost per net: <key> <cost> <backend>/<cross-check backend>.\n\
         # Written by `lubt-perfbench pin`; every cost agreed with its cross-check to 1e-9.\n",
    );
    for (_, line) in lines {
        text.push_str(&line);
        text.push('\n');
    }
    if let Err(e) = std::fs::write(&out, text) {
        eprintln!("cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!("pinned {} nets into {out}", nets.len());
    ExitCode::SUCCESS
}
