//! `lubt-perfbench`: the repository's end-to-end and per-layer
//! benchmark. See `perfbench/README.md` for the workloads, the metrics
//! and what each layer metric should move.
//!
//! ```text
//! lubt-perfbench --workload paper-nets|small-batch|serve-mixed
//!                --seed N [--seconds S]
//!                [--trace 0|1] [--tail-limit-ms MS]
//! lubt-perfbench pin [--out FILE]      # re-pin the reference costs
//! ```
//!
//! The last line of standard output is the result object
//! `{"correct", "attempted", "failed", "metrics"}`: end-to-end metrics
//! with `--trace 0`, per-layer metrics with `--trace 1`.

mod batch;
mod cpu;
mod inputs;
mod paper;
mod refs;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use cpu::Cpus;
use refs::{Ledger, References};
use trace::{Layers, Spans};

/// Set-up repeats before the first pass, and again after each pass.
/// Generating inputs takes about a millisecond, so repeats taken back to
/// back would all see the machine as it was in those milliseconds;
/// spread over the run they see it as the passes do.
pub const SETUP_REPEATS: usize = 5;

/// What a workload needs from the command line, plus the run's ledger.
pub struct Ctx {
    /// Workload seed.
    pub seed: u64,
    /// Measurement length of the untraced run.
    pub seconds: f64,
    /// Whether to follow the untraced run with a traced replay.
    pub trace: bool,
    /// `nproc`: workers, batch threads and connections.
    pub threads: usize,
    /// Latency limit of `serve_max_rps`, on `serve_tail_ms`.
    pub tail_limit_ms: f64,
    /// Pinned reference costs.
    pub refs: References,
    /// Failures and attempts.
    pub ledger: Ledger,
    /// Where traces and logs go.
    pub out_dir: PathBuf,
    /// Origin of every span timestamp.
    pub origin: Instant,
    /// The CPUs repeated measurements start on in turn.
    pub cpus: Cpus,
}

/// A workload's measurements.
#[derive(Default)]
pub struct Outcome {
    /// End-to-end metrics as `(name, value, unit)`.
    pub e2e: Vec<(&'static str, f64, &'static str)>,
    /// Human-readable report lines.
    pub notes: Vec<String>,
    /// Per-layer ledger (traced runs only).
    pub layers: Option<Layers>,
    /// The benchmark's own spans (traced runs only).
    pub spans: Option<Spans>,
}

/// Set-up times sampled across a run: a workload times its set-up before
/// its first pass and again between passes.
#[derive(Default)]
pub struct Setup {
    times: Vec<f64>,
}

impl Setup {
    /// Runs `generate` `repeats` times, each starting on the next of
    /// `cpus`, and returns the last result. Each earlier result is dropped
    /// before the next timed call, so no timing covers freeing or stopping
    /// what the previous call built.
    pub fn sample<T>(&mut self, cpus: &Cpus, repeats: usize, mut generate: impl FnMut() -> T) -> T {
        let mut last = None;
        for _ in 0..repeats {
            drop(last.take());
            cpus.start_on(self.times.len());
            let t = Instant::now();
            let value = std::hint::black_box(generate());
            self.times.push(t.elapsed().as_secs_f64());
            last = Some(value);
        }
        last.expect("at least one repeat")
    }

    /// `setup_s`: the fastest CPU's median of every sample.
    pub fn seconds(&self, cpus: &Cpus) -> f64 {
        cpus.fastest_median(&self.times).expect("at least one sample")
    }
}

/// Peak resident memory of process `pid` (`"self"` for this one), MiB.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// End-to-end metrics of a closed-loop workload that made the `walls`
/// passes over `nets` nets each. `fastest` is the pass time it reports:
/// the same work runs in every pass, so a slower pass measures
/// interference from outside the program, and the fastest time is the
/// estimate that follows the program rather than the machine's load
/// (see README). There is no daemon: the `serve_*` metrics restate that
/// one time for the one caller (see README).
pub fn closed_loop_metrics(setup_s: f64, fastest: f64, walls: &[f64], nets: usize) -> Outcome {
    let median = stats::median(walls).expect("at least one pass");
    Outcome {
        e2e: vec![
            ("setup_s", setup_s, "s"),
            ("solve_s", fastest, "s"),
            ("nets_per_s", nets as f64 / fastest, "nets/s"),
            ("serve_p50_ms", fastest * 1e3, "ms"),
            ("serve_tail_ms", fastest * 1e3, "ms"),
            ("serve_max_rps", 1.0 / fastest, "req/s"),
            ("peak_rss_mb", peak_rss_mb("self").unwrap_or(f64::NAN), "MiB"),
        ],
        notes: vec![format!(
            "{} passes of {nets} nets; reported pass {fastest:.4} s; pass wall median {median:.4} s; walls {walls:.3?}",
            walls.len(),
        )],
        layers: None,
        spans: None,
    }
}

fn machine_facts(threads: usize) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|l| l.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let load = std::fs::read_to_string("/proc/loadavg")
        .map(|s| s.split_whitespace().take(3).collect::<Vec<_>>().join(" "))
        .unwrap_or_else(|_| "unknown".to_string());
    format!("machine: nproc={threads} cpu=\"{cpu}\" loadavg_at_start=\"{load}\"")
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    tail_limit_ms: f64,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut tail_limit_ms = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.to_string()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = value.parse::<f64>().map_err(|e| bad(&e))?,
            "--trace" => {
                trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            "--tail-limit-ms" => tail_limit_ms = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        tail_limit_ms: tail_limit_ms.ok_or("--tail-limit-ms is required")?,
    })
}

fn result_line(correct: bool, ledger: &Ledger, metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ledger.attempted,
        ledger.failed,
        body.join(", ")
    )
}

fn run_main(argv: &[String]) -> ExitCode {
    let args = match parse_args(argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("lubt-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let threads = lubt_par::available_parallelism();
    println!("{}", machine_facts(threads));
    let out_dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"));
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("lubt-perfbench: cannot create {}: {e}", out_dir.display());
        return ExitCode::FAILURE;
    }
    let mut ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        threads,
        tail_limit_ms: args.tail_limit_ms,
        refs: References::pinned(),
        ledger: Ledger::default(),
        out_dir,
        origin: Instant::now(),
        cpus: Cpus::allowed(),
    };
    let outcome = match args.workload.as_str() {
        "paper-nets" => paper::run(&mut ctx),
        "small-batch" => batch::run(&mut ctx),
        "serve-mixed" => match serve::run(&mut ctx) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("lubt-perfbench: serve-mixed: {e}");
                return ExitCode::FAILURE;
            }
        },
        other => {
            eprintln!(
                "lubt-perfbench: unknown workload {other:?} (paper-nets|small-batch|serve-mixed)"
            );
            return ExitCode::from(2);
        }
    };
    report(&args, &ctx, outcome)
}

fn report(args: &Args, ctx: &Ctx, outcome: Outcome) -> ExitCode {
    let ledger = &ctx.ledger;
    println!(
        "workload: {} seed={} seconds={}",
        args.workload, args.seed, args.seconds
    );
    for note in &outcome.notes {
        println!("{note}");
    }
    if ledger.unpinned > 0 {
        println!(
            "references: {} result(s) had no pinned reference cost; verify() and repeat byte-identity still applied",
            ledger.unpinned
        );
    }
    for m in &ledger.messages {
        println!("failure: {m}");
    }
    println!(
        "error_rate: {} of {} operations failed ({:.6})",
        ledger.failed,
        ledger.attempted,
        ledger.failed as f64 / ledger.attempted.max(1) as f64
    );
    let metrics = match (&outcome.layers, args.trace) {
        (Some(layers), true) => {
            if !layers.missing().is_empty() {
                for m in layers.missing() {
                    eprintln!("lubt-perfbench: missing per-layer metric {m}");
                }
                return ExitCode::FAILURE;
            }
            let (metrics, idle) = layers.finish();
            println!(
                "not exercised by this workload (reported as 0): {}",
                idle.join(" ")
            );
            if let Some(spans) = &outcome.spans {
                let path = ctx
                    .out_dir
                    .join(format!("spans-{}-seed{}.json", args.workload, args.seed));
                match std::fs::write(&path, spans.to_json()) {
                    Ok(()) => println!("spans: {}", path.display()),
                    Err(e) => eprintln!("lubt-perfbench: cannot write {}: {e}", path.display()),
                }
            }
            metrics
        }
        _ => outcome.e2e,
    };
    for (name, value, unit) in &metrics {
        println!("{name:<28} {value:>16.6} {unit}");
        if !value.is_finite() {
            eprintln!("lubt-perfbench: metric {name} is not a finite number");
            return ExitCode::FAILURE;
        }
    }
    let correct = ledger.failed == 0 && ledger.attempted > 0;
    println!("{}", result_line(correct, ledger, &metrics));
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("pin") => refs::pin_main(&argv[1..]),
        Some("daemon") => serve::daemon_main(&argv[1..]),
        _ => run_main(&argv),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_is_strict_json_with_every_metric() {
        let ledger = Ledger {
            attempted: 3,
            failed: 0,
            ..Ledger::default()
        };
        let line = result_line(
            true,
            &ledger,
            &[("solve_s", 1.25, "s"), ("nets_per_s", 2.4, "nets/s")],
        );
        let v = lubt_obs::json::parse(&line).unwrap();
        assert_eq!(v.get("attempted").and_then(|a| a.as_u64()), Some(3));
        assert_eq!(
            v.get_path(&["metrics", "solve_s", "value"])
                .and_then(|x| x.as_f64()),
            Some(1.25)
        );
        assert_eq!(
            v.get_path(&["metrics", "nets_per_s", "unit"])
                .and_then(|x| x.as_str()),
            Some("nets/s")
        );
    }

    #[test]
    fn a_later_seed_overrides_the_default_one() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        // BENCHMARK.json's command carries `--seed 1`; a seed given after
        // it wins, and without one the default stands.
        let a = parse_args(&argv("--seed 1 --tail-limit-ms 5 --workload x")).unwrap();
        assert_eq!(a.seed, 1);
        let a = parse_args(&argv("--seed 1 --tail-limit-ms 5 --workload x --seed 9")).unwrap();
        assert_eq!(a.seed, 9);
        assert!(parse_args(&argv("--tail-limit-ms 5 --workload x")).is_err());
        assert!(parse_args(&argv("--seed 1 --tail-limit-ms 5 --workload x --trace 2")).is_err());
    }

    #[test]
    fn closed_loop_metrics_report_the_fastest_pass() {
        let out = closed_loop_metrics(0.5, 2.0, &[3.0, 2.5, 4.0], 4);
        let get = |name: &str| {
            out.e2e
                .iter()
                .find(|(n, _, _)| *n == name)
                .map(|&(_, v, _)| v)
                .unwrap()
        };
        assert_eq!(get("setup_s"), 0.5);
        assert_eq!(get("solve_s"), 2.0);
        assert_eq!(get("nets_per_s"), 2.0);
        assert_eq!(get("serve_p50_ms"), 2000.0);
        assert_eq!(get("serve_tail_ms"), 2000.0);
        assert_eq!(get("serve_max_rps"), 0.5);
    }

    #[test]
    fn setup_timing_excludes_dropping_the_previous_result() {
        struct SlowDrop;
        impl Drop for SlowDrop {
            fn drop(&mut self) {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
        }
        let (cpus, mut setup) = (Cpus::allowed(), Setup::default());
        let _last = setup.sample(&cpus, 3, || SlowDrop);
        let median = setup.seconds(&cpus);
        assert!(median < 0.01, "setup timed a drop: {median} s");
    }
}
