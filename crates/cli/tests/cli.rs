//! End-to-end tests of the `lubt` binary.

use std::path::PathBuf;
use std::process::Command;

fn lubt() -> Command {
    Command::new(env!("CARGO_BIN_EXE_lubt"))
}

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("lubt-cli-test-{}-{name}", std::process::id()));
    p
}

#[test]
fn help_prints_usage() {
    let out = lubt().arg("help").output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("lubt solve"));
    assert!(text.contains("lubt gen"));
}

#[test]
fn unknown_command_fails() {
    let out = lubt().arg("frobnicate").output().unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("unknown command"));
}

#[test]
fn gen_solve_roundtrip_with_svg() {
    let pts = tmp("inst.pts");
    let svg = tmp("tree.svg");

    // Generate a small instance.
    let out = lubt()
        .args([
            "gen", "uniform", "--sinks", "12", "--seed", "7", "--die", "1000", "--out",
        ])
        .arg(&pts)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Solve it with a normalized window and write an SVG.
    let out = lubt()
        .args(["solve"])
        .arg(&pts)
        .args(["--lower", "0.9", "--upper", "1.4", "--svg"])
        .arg(&svg)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("tree cost"));
    assert!(text.contains("delay window"));
    let svg_text = std::fs::read_to_string(&svg).unwrap();
    assert!(svg_text.starts_with("<svg"));

    let _ = std::fs::remove_file(&pts);
    let _ = std::fs::remove_file(&svg);
}

#[test]
fn zeroskew_and_bst_commands() {
    let pts = tmp("inst2.pts");
    let out = lubt()
        .args(["gen", "clustered", "--sinks", "10", "--seed", "3", "--out"])
        .arg(&pts)
        .output()
        .unwrap();
    assert!(out.status.success());

    let out = lubt().args(["zeroskew"]).arg(&pts).output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("common delay"));

    let out = lubt()
        .args(["bst"])
        .arg(&pts)
        .args(["--skew", "0.1"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("realized skew"));

    let _ = std::fs::remove_file(&pts);
}

#[test]
fn infeasible_window_reports_cleanly() {
    let pts = tmp("inst3.pts");
    let out = lubt()
        .args(["gen", "uniform", "--sinks", "6", "--seed", "1", "--out"])
        .arg(&pts)
        .output()
        .unwrap();
    assert!(out.status.success());

    // u = 0.5R violates Equation 3: must fail with the certificate message.
    let out = lubt()
        .args(["solve"])
        .arg(&pts)
        .args(["--upper", "0.5"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("no LUBT exists"), "stderr: {err}");

    let _ = std::fs::remove_file(&pts);
}

#[test]
fn lint_reports_deny_findings_with_nonzero_exit() {
    let pts = tmp("inst5.pts");
    let out = lubt()
        .args(["gen", "uniform", "--sinks", "6", "--seed", "1", "--out"])
        .arg(&pts)
        .output()
        .unwrap();
    assert!(out.status.success());

    // u = 0.5R violates Equation 3: deny-level finding, non-zero exit,
    // and the offending sinks named on stdout.
    let out = lubt()
        .args(["lint"])
        .arg(&pts)
        .args(["--upper", "0.5"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("error[sink-reachability]"), "stdout: {text}");
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("no LUBT exists"), "stderr: {err}");

    let _ = std::fs::remove_file(&pts);
}

#[test]
fn lint_clean_instance_exits_zero_and_emits_json() {
    let pts = tmp("inst6.pts");
    let out = lubt()
        .args(["gen", "uniform", "--sinks", "6", "--seed", "1", "--out"])
        .arg(&pts)
        .output()
        .unwrap();
    assert!(out.status.success());

    // Generous window: no findings, exit 0.
    let out = lubt()
        .args(["lint"])
        .arg(&pts)
        .args(["--lower", "0.9", "--upper", "1.5"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("lint            clean"), "stdout: {text}");

    // JSON mode on an infeasible window: the array carries the pass slug.
    let out = lubt()
        .args(["lint"])
        .arg(&pts)
        .args(["--upper", "0.5", "--json"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.trim_start().starts_with('['), "stdout: {text}");
    assert!(
        text.contains("\"pass\": \"sink-reachability\""),
        "stdout: {text}"
    );
    assert!(text.contains("\"level\": \"error\""), "stdout: {text}");

    let _ = std::fs::remove_file(&pts);
}

/// Generates `count` small instances and returns their paths.
fn gen_batch(tag: &str, count: usize, sinks: usize) -> Vec<PathBuf> {
    (0..count)
        .map(|k| {
            let pts = tmp(&format!("{tag}-{k}.pts"));
            let out = lubt()
                .args([
                    "gen",
                    if k % 2 == 0 { "uniform" } else { "clustered" },
                    "--sinks",
                ])
                .arg(sinks.to_string())
                .args(["--seed"])
                .arg((k + 1).to_string())
                .args(["--out"])
                .arg(&pts)
                .output()
                .unwrap();
            assert!(out.status.success());
            pts
        })
        .collect()
}

#[test]
fn batch_rejects_zero_threads() {
    let pts = gen_batch("batch-zero", 1, 6);
    let out = lubt()
        .args(["batch"])
        .args(&pts)
        .args(["--upper", "1.5", "--threads", "0"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(
        err.contains("--threads must be at least 1"),
        "stderr: {err}"
    );
    for p in pts {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn batch_output_is_identical_across_thread_counts() {
    let pts = gen_batch("batch-det", 12, 8);
    let json1 = tmp("batch-det-1.json");
    let json8 = tmp("batch-det-8.json");
    let run = |threads: &str, json: &PathBuf| {
        let out = lubt()
            .args(["batch"])
            .args(&pts)
            .args(["--lower", "0.9", "--upper", "1.5", "--threads", threads])
            .args(["--json"])
            .arg(json)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "threads {threads}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        out.stdout
    };
    let stdout1 = run("1", &json1);
    let stdout8 = run("8", &json8);
    // The JSON path differs between invocations, so strip its report line
    // before comparing; everything else must match byte for byte.
    let strip = |bytes: &[u8]| -> String {
        String::from_utf8(bytes.to_vec())
            .unwrap()
            .lines()
            .filter(|l| !l.starts_with("json written to"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(strip(&stdout1), strip(&stdout8));
    let j1 = std::fs::read(&json1).unwrap();
    let j8 = std::fs::read(&json8).unwrap();
    assert_eq!(j1, j8, "batch JSON differs between 1 and 8 threads");
    assert!(String::from_utf8(j1)
        .unwrap()
        .contains("\"status\": \"ok\""));
    for p in pts {
        let _ = std::fs::remove_file(p);
    }
    let _ = std::fs::remove_file(&json1);
    let _ = std::fs::remove_file(&json8);
}

#[test]
fn batch_mixed_feasibility_exits_nonzero_but_reports_every_instance() {
    let pts = gen_batch("batch-mixed", 3, 6);
    // u = 0.5R is infeasible for every instance (Equation 3), but the batch
    // must still report all of them before failing.
    let out = lubt()
        .args(["batch"])
        .args(&pts)
        .args(["--upper", "0.5", "--threads", "2"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert_eq!(
        text.matches("error:").count(),
        3,
        "every instance reported: {text}"
    );
    assert!(text.contains("0/3 solved"), "stdout: {text}");
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("3 of 3 instance(s) failed"), "stderr: {err}");
    for p in pts {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn solve_trace_json_is_valid_and_reports_the_solve() {
    let pts = tmp("trace1.pts");
    let out = lubt()
        .args(["gen", "uniform", "--sinks", "8", "--seed", "2", "--out"])
        .arg(&pts)
        .output()
        .unwrap();
    assert!(out.status.success());

    // `--trace-json out.json` writes the trace to a file.
    let trace_path = tmp("trace1.json");
    let out = lubt()
        .args(["solve"])
        .arg(&pts)
        .args(["--lower", "0.9", "--upper", "1.4", "--trace-json"])
        .arg(&trace_path)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("tree cost"));
    assert!(text.contains("trace written to"), "stdout: {text}");
    let trace = std::fs::read_to_string(&trace_path).unwrap();
    lubt_obs::json::validate(&trace).expect("trace JSON must be strictly valid");
    for key in [
        "\"schema\": \"lubt-trace-v1\"",
        "simplex.pivots",
        "ebf.rounds",
        "embed.fr_constructions",
        "time.lp",
    ] {
        assert!(trace.contains(key), "trace missing {key}: {trace}");
    }

    // A bare `--trace-json` prints the trace to stdout after the report.
    let out = lubt()
        .args(["solve"])
        .arg(&pts)
        .args(["--lower", "0.9", "--upper", "1.4", "--trace-json"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    let json_start = text.find("{\n").expect("trace JSON on stdout");
    lubt_obs::json::validate(&text[json_start..]).expect("stdout trace must be strictly valid");

    let _ = std::fs::remove_file(&pts);
    let _ = std::fs::remove_file(&trace_path);
}

#[test]
fn solve_iteration_limit_fails_with_diagnostic_but_still_writes_the_trace() {
    let pts = tmp("limit1.pts");
    let out = lubt()
        .args(["gen", "uniform", "--sinks", "8", "--seed", "4", "--out"])
        .arg(&pts)
        .output()
        .unwrap();
    assert!(out.status.success());

    let trace_path = tmp("limit1.json");
    let out = lubt()
        .args(["solve"])
        .arg(&pts)
        .args([
            "--lower",
            "0.9",
            "--upper",
            "1.4",
            "--max-lp-iterations",
            "2",
        ])
        .args(["--trace-json"])
        .arg(&trace_path)
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("iteration limit 2"), "stderr: {err}");
    assert!(err.contains("error[iteration-limit]"), "stderr: {err}");
    // The trace survives the failed solve and records the exhaustion.
    let trace = std::fs::read_to_string(&trace_path).unwrap();
    lubt_obs::json::validate(&trace).expect("failure trace must be strictly valid");
    assert!(
        trace.contains("simplex.iteration_limit_hits"),
        "trace: {trace}"
    );

    // A bare `--max-lp-iterations` is rejected, not silently ignored.
    let out = lubt()
        .args(["solve"])
        .arg(&pts)
        .args(["--upper", "1.4", "--max-lp-iterations"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(
        err.contains("--max-lp-iterations requires a value"),
        "stderr: {err}"
    );

    let _ = std::fs::remove_file(&pts);
    let _ = std::fs::remove_file(&trace_path);
}

#[test]
fn batch_metrics_are_valid_json_and_leave_the_report_deterministic() {
    let pts = gen_batch("batch-metrics", 6, 8);
    let run = |threads: &str, metrics: &PathBuf| {
        let out = lubt()
            .args(["batch"])
            .args(&pts)
            .args(["--lower", "0.9", "--upper", "1.5", "--threads", threads])
            .args(["--metrics"])
            .arg(metrics)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "threads {threads}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        out.stdout
    };
    let m1 = tmp("batch-metrics-1.json");
    let m8 = tmp("batch-metrics-8.json");
    let stdout1 = run("1", &m1);
    let stdout8 = run("8", &m8);

    // Timings and scheduling counters live in the metrics file; the report
    // on stdout stays byte-identical across thread counts.
    let strip = |bytes: &[u8]| -> String {
        String::from_utf8(bytes.to_vec())
            .unwrap()
            .lines()
            .filter(|l| !l.starts_with("metrics written to"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(strip(&stdout1), strip(&stdout8));

    for path in [&m1, &m8] {
        let metrics = std::fs::read_to_string(path).unwrap();
        lubt_obs::json::validate(&metrics).expect("metrics must be strictly valid JSON");
        for key in ["batch.instances", "batch.solved", "simplex.solves"] {
            assert!(metrics.contains(key), "metrics missing {key}: {metrics}");
        }
    }

    for p in pts {
        let _ = std::fs::remove_file(p);
    }
    let _ = std::fs::remove_file(&m1);
    let _ = std::fs::remove_file(&m8);
}

#[test]
fn alternate_topologies_and_backend() {
    let pts = tmp("inst4.pts");
    let out = lubt()
        .args(["gen", "uniform", "--sinks", "8", "--seed", "5", "--out"])
        .arg(&pts)
        .output()
        .unwrap();
    assert!(out.status.success());

    for topo in ["nn", "matching", "bisect", "aware"] {
        let out = lubt()
            .args(["solve"])
            .arg(&pts)
            .args(["--lower", "0.8", "--upper", "1.5", "--topology", topo])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "topology {topo}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    // `ipm` is an unknown backend under the original `--backend` spelling
    // too.
    let out = lubt()
        .args(["solve"])
        .arg(&pts)
        .args(["--upper", "1.5", "--backend", "ipm"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(
        err.contains("unknown backend \"ipm\" (simplex|revised|dp)"),
        "stderr: {err}"
    );

    let _ = std::fs::remove_file(&pts);
}

#[test]
fn revised_backend_via_cli_solves_batches_and_rejects_unknown() {
    // Usage advertises the new backend and the bench --full switch.
    let help = lubt().arg("help").output().unwrap();
    let text = String::from_utf8(help.stdout).unwrap();
    assert!(text.contains("--lp-backend simplex|revised|dp"), "{text}");
    assert!(text.contains("--full"), "{text}");

    let pts = gen_batch("revised-cli", 4, 8);
    let out = lubt()
        .args(["solve"])
        .arg(&pts[0])
        .args([
            "--lower",
            "0.9",
            "--upper",
            "1.5",
            "--lp-backend",
            "revised",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Batch output through the revised backend must stay byte-identical
    // across thread counts (the determinism contract at the binary level).
    let run = |threads: &str| {
        let out = lubt()
            .args(["batch"])
            .args(&pts)
            .args(["--lower", "0.9", "--upper", "1.5"])
            .args(["--lp-backend", "revised", "--threads", threads])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "threads {threads}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        out.stdout
    };
    assert_eq!(run("1"), run("8"), "revised batch differs across threads");

    for bad in ["bogus", "ipm"] {
        let out = lubt()
            .args(["solve"])
            .arg(&pts[0])
            .args(["--upper", "1.5", "--lp-backend", bad])
            .output()
            .unwrap();
        assert!(!out.status.success(), "{bad}");
        let err = String::from_utf8(out.stderr).unwrap();
        // The rejection enumerates every valid backend, dp included.
        assert!(
            err.contains(&format!("unknown backend {bad:?} (simplex|revised|dp)")),
            "stderr: {err}"
        );
    }

    for p in pts {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn dp_backend_via_cli_solves_batches_and_audits() {
    let pts = gen_batch("dp-cli", 4, 8);
    // `--lp-backend dp` solves a single instance.
    let out = lubt()
        .args(["solve"])
        .arg(&pts[0])
        .args(["--lower", "0.9", "--upper", "1.5", "--lp-backend", "dp"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // The dp solve lands on the same cost the simplex backend reports.
    let cost_of = |stdout: &[u8]| -> String {
        let text = String::from_utf8_lossy(stdout).to_string();
        text.lines()
            .find(|l| l.contains("cost"))
            .unwrap_or_else(|| panic!("no cost line in {text}"))
            .to_string()
    };
    let simplex = lubt()
        .args(["solve"])
        .arg(&pts[0])
        .args(["--lower", "0.9", "--upper", "1.5"])
        .output()
        .unwrap();
    assert_eq!(cost_of(&out.stdout), cost_of(&simplex.stdout));

    // Batch output through the dp backend is byte-identical across thread
    // counts — the solve itself is single-threaded and exact.
    let run = |threads: &str| {
        let out = lubt()
            .args(["batch"])
            .args(&pts)
            .args(["--lower", "0.9", "--upper", "1.5"])
            .args(["--lp-backend", "dp", "--threads", threads])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "threads {threads}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        out.stdout
    };
    assert_eq!(run("1"), run("8"), "dp batch differs across threads");

    // `lubt audit --lp-backend dp` exercises the exact-oracle audit path.
    let out = lubt()
        .args(["audit"])
        .arg(&pts[0])
        .args(["--lower", "0.9", "--upper", "1.5", "--lp-backend", "dp"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("dp"), "{text}");

    for p in pts {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn batch_bare_metrics_go_to_stderr_and_leave_stdout_identical() {
    let pts = gen_batch("batch-stderr", 4, 8);
    let run = |threads: &str| {
        let out = lubt()
            .args(["batch"])
            .args(&pts)
            .args(["--lower", "0.9", "--upper", "1.5", "--threads", threads])
            .args(["--metrics", "--metrics-prom"])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "threads {threads}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        (out.stdout, out.stderr)
    };
    let (stdout1, stderr1) = run("1");
    let (stdout8, _) = run("8");
    // With no output path the metrics documents land on stderr, so the
    // default stdout keeps the byte-identity contract even while tracing.
    assert_eq!(
        stdout1, stdout8,
        "stdout must not carry thread-dependent metrics"
    );
    let stdout = String::from_utf8(stdout1).unwrap();
    assert!(!stdout.contains("lubt-trace-v1"), "stdout: {stdout}");
    let stderr = String::from_utf8(stderr1).unwrap();
    assert!(
        stderr.contains("\"schema\": \"lubt-trace-v1\""),
        "stderr: {stderr}"
    );
    assert!(
        stderr.contains("# TYPE lubt_simplex_pivots_total counter"),
        "stderr: {stderr}"
    );
    for p in pts {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn batch_metrics_prom_file_is_a_prometheus_exposition() {
    let pts = gen_batch("batch-prom", 3, 8);
    let prom = tmp("batch.prom");
    let out = lubt()
        .args(["batch"])
        .args(&pts)
        .args(["--lower", "0.9", "--upper", "1.5", "--threads", "2"])
        .args(["--metrics-prom"])
        .arg(&prom)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(
        text.contains("prometheus metrics written to"),
        "stdout: {text}"
    );
    let exposition = std::fs::read_to_string(&prom).unwrap();
    for needle in [
        "# HELP lubt_simplex_pivots_total",
        "# TYPE lubt_simplex_pivots_total counter",
        "lubt_batch_instances_total 3",
        "lubt_time_lp_seconds_total",
    ] {
        assert!(
            exposition.contains(needle),
            "exposition missing {needle}:\n{exposition}"
        );
    }
    for p in pts {
        let _ = std::fs::remove_file(p);
    }
    let _ = std::fs::remove_file(&prom);
}

#[test]
fn audit_command_verifies_solves_and_emits_strict_json() {
    let pts = tmp("audit1.pts");
    let out = lubt()
        .args(["gen", "uniform", "--sinks", "10", "--seed", "9", "--out"])
        .arg(&pts)
        .output()
        .unwrap();
    assert!(out.status.success());

    for backend in ["simplex", "revised"] {
        // Feasible window: everything verifies, exit zero.
        let out = lubt()
            .args(["audit"])
            .arg(&pts)
            .args(["--lower", "0.9", "--upper", "1.4", "--lp-backend", backend])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{backend}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = String::from_utf8(out.stdout).unwrap();
        assert!(text.contains("verified"), "{backend} stdout: {text}");

        // JSON mode: a strict lubt-audit-v1 document with the verification
        // counters, still exit zero.
        let out = lubt()
            .args(["audit"])
            .arg(&pts)
            .args(["--lower", "0.9", "--upper", "1.4", "--lp-backend", backend])
            .args(["--json"])
            .output()
            .unwrap();
        assert!(out.status.success(), "{backend} --json");
        let text = String::from_utf8(out.stdout).unwrap();
        let json_start = text.find("{\n").expect("audit JSON on stdout");
        let doc = &text[json_start..];
        lubt_obs::json::validate(doc).expect("audit JSON must be strictly valid");
        assert!(doc.contains("\"schema\": \"lubt-audit-v1\""), "{doc}");
        assert!(doc.contains("\"status\": \"verified\""), "{doc}");
        assert!(doc.contains("\"lp_optimality_verified\": 1"), "{doc}");
        assert!(doc.contains("\"tree_verified\": 1"), "{doc}");
    }

    // An infeasible window is a *successful* audit of a Farkas ray: the
    // refusal is proven, so the exit stays zero.
    let out = lubt()
        .args(["audit"])
        .arg(&pts)
        .args(["--upper", "0.5", "--json"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "verified infeasibility must exit zero: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    let json_start = text.find("{\n").expect("audit JSON on stdout");
    let doc = &text[json_start..];
    lubt_obs::json::validate(doc).expect("infeasible audit JSON must be strictly valid");
    assert!(doc.contains("\"status\": \"infeasible\""), "{doc}");
    assert!(doc.contains("\"lp_farkas_verified\": 1"), "{doc}");

    let _ = std::fs::remove_file(&pts);
}

#[test]
fn solve_batch_and_bench_accept_the_audit_flag() {
    let pts = gen_batch("audit-flag", 2, 8);
    let out = lubt()
        .args(["solve"])
        .arg(&pts[0])
        .args(["--lower", "0.9", "--upper", "1.4", "--audit"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("certificates verified exactly"), "{text}");

    let out = lubt()
        .args(["batch"])
        .args(&pts)
        .args([
            "--lower",
            "0.9",
            "--upper",
            "1.4",
            "--threads",
            "2",
            "--audit",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let bench_out = tmp("audit-bench.json");
    let out = lubt()
        .args([
            "bench",
            "--label",
            "audit-cli",
            "--sizes",
            "5",
            "--threads",
            "1",
            "--audit",
            "--out",
        ])
        .arg(&bench_out)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = std::fs::read_to_string(&bench_out).unwrap();
    lubt_obs::json::validate(&doc).expect("audited bench document must be strict JSON");
    assert!(doc.contains("time.suite.audit_overhead."), "{doc}");

    for p in pts {
        let _ = std::fs::remove_file(p);
    }
    let _ = std::fs::remove_file(&bench_out);
}

/// The `"deterministic"` member of a bench document, as raw bytes.
fn deterministic_section(doc: &str) -> &str {
    let start = doc
        .find("\"deterministic\"")
        .expect("deterministic section");
    let end = doc.find("\"determinism_exempt\"").expect("exempt section");
    &doc[start..end]
}

#[test]
fn bench_deterministic_section_is_byte_identical_across_thread_counts() {
    let a = tmp("bench-t1.json");
    let b = tmp("bench-t8.json");
    let run = |threads: &str, out_path: &PathBuf| {
        let out = lubt()
            .args(["bench", "--label", "cli-test", "--sizes", "5"])
            .args(["--threads", threads, "--out"])
            .arg(out_path)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "threads {threads}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = String::from_utf8(out.stdout).unwrap();
        assert!(text.contains("bench \"cli-test\""), "stdout: {text}");
    };
    run("1", &a);
    run("8", &b);
    let doc_a = std::fs::read_to_string(&a).unwrap();
    let doc_b = std::fs::read_to_string(&b).unwrap();
    lubt_obs::json::validate(&doc_a).expect("bench document must be strict JSON");
    assert!(doc_a.contains("\"schema\": \"lubt-bench-v1\""), "{doc_a}");
    assert_eq!(
        deterministic_section(&doc_a),
        deterministic_section(&doc_b),
        "deterministic section must not depend on --threads"
    );
    let _ = std::fs::remove_file(&a);
    let _ = std::fs::remove_file(&b);
}

#[test]
fn report_passes_on_identical_runs_and_fails_on_a_perturbed_counter() {
    let base = tmp("report-base.json");
    let out = lubt()
        .args(["bench", "--label", "base", "--sizes", "5"])
        .args(["--threads", "2", "--out"])
        .arg(&base)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Identical documents pass with a zero exit.
    let out = lubt()
        .args(["report", "--baseline"])
        .arg(&base)
        .args(["--current"])
        .arg(&base)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("verdict: PASS"), "stdout: {text}");

    // Bump one deterministic work counter in a copy: the gate must fail.
    let doc = std::fs::read_to_string(&base).unwrap();
    let needle = "\"lp_iterations\": ";
    let at = doc.find(needle).expect("bench rows carry lp_iterations") + needle.len();
    let digits: String = doc[at..].chars().take_while(char::is_ascii_digit).collect();
    let bumped: u64 = digits.parse::<u64>().unwrap() + 1;
    let perturbed_doc = format!("{}{}{}", &doc[..at], bumped, &doc[at + digits.len()..]);
    let perturbed = tmp("report-perturbed.json");
    std::fs::write(&perturbed, &perturbed_doc).unwrap();

    let json_out = tmp("report-delta.json");
    let out = lubt()
        .args(["report", "--baseline"])
        .arg(&base)
        .args(["--current"])
        .arg(&perturbed)
        .args(["--json"])
        .arg(&json_out)
        .output()
        .unwrap();
    assert!(
        !out.status.success(),
        "a regressed counter must exit nonzero"
    );
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("benchmark regression"), "stderr: {err}");
    let delta = std::fs::read_to_string(&json_out).unwrap();
    lubt_obs::json::validate(&delta).expect("report JSON must be strictly valid");
    assert!(delta.contains("\"failed\": true"), "{delta}");
    assert!(delta.contains("lp_iterations"), "{delta}");

    let _ = std::fs::remove_file(&base);
    let _ = std::fs::remove_file(&perturbed);
    let _ = std::fs::remove_file(&json_out);
}

#[test]
fn serve_boots_answers_and_drains_on_wire_shutdown() {
    use std::io::{BufRead, BufReader, Write};

    let mut child = lubt()
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "2",
            "--allow-shutdown",
        ])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    let mut banner = String::new();
    stdout.read_line(&mut banner).unwrap();
    assert!(
        banner.contains("lubt-serve lubt-serve-v1 listening on "),
        "{banner}"
    );
    let addr = banner
        .split("listening on ")
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .expect("banner carries the resolved address");

    let conn = std::net::TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(conn.try_clone().unwrap());
    let mut writer = conn;
    let mut ask = |line: &str, reader: &mut BufReader<std::net::TcpStream>| -> String {
        writeln!(writer, "{line}").unwrap();
        let mut resp = String::new();
        reader.read_line(&mut resp).unwrap();
        resp
    };
    let pong = ask(r#"{"op":"ping","id":"cli"}"#, &mut reader);
    assert!(pong.contains("\"status\":\"ok\""), "{pong}");
    let solved = ask(
        r#"{"op":"solve","id":"s","upper":1.4,"instance":{"source":[5,5],"sinks":[[0,0],[10,0],[0,10],[10,10]]}}"#,
        &mut reader,
    );
    assert!(solved.contains("\"status\":\"ok\""), "{solved}");
    assert!(solved.contains("\"solution\":{"), "{solved}");
    let bye = ask(r#"{"op":"shutdown","id":"bye"}"#, &mut reader);
    assert!(bye.contains("\"draining\":true"), "{bye}");

    let status = child.wait().unwrap();
    assert!(status.success(), "graceful exit after wire shutdown");
    let mut rest = String::new();
    std::io::Read::read_to_string(&mut stdout, &mut rest).unwrap();
    assert!(rest.contains("drained and stopped"), "{rest}");
}

#[test]
fn file_outputs_are_atomic_and_leave_no_temp_siblings() {
    let pts = gen_batch("atomic", 1, 8).pop().unwrap();
    let trace = tmp("atomic-trace.json");
    let out = lubt()
        .args(["solve"])
        .arg(&pts)
        .args(["--upper", "1.4", "--trace-json"])
        .arg(&trace)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = std::fs::read_to_string(&trace).unwrap();
    lubt_obs::json::validate(&doc).expect("trace must be complete, never torn");
    // The atomic write path stages into `<name>.tmp.<pid>` next to the
    // target and renames; success must leave no staging files behind.
    let dir = trace.parent().unwrap();
    let leftovers: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.starts_with("lubt-cli-test-") && n.contains(".tmp."))
        .collect();
    assert!(
        leftovers.is_empty(),
        "staging files left behind: {leftovers:?}"
    );
    let _ = std::fs::remove_file(&trace);
    let _ = std::fs::remove_file(&pts);
}

/// Generates the pinned 10-sink instance used by the profiling tests.
fn gen_profile_instance(tag: &str) -> PathBuf {
    let pts = tmp(&format!("{tag}.pts"));
    let out = lubt()
        .args(["gen", "uniform", "--sinks", "10", "--seed", "2", "--out"])
        .arg(&pts)
        .output()
        .unwrap();
    assert!(out.status.success());
    pts
}

#[test]
fn profile_flags_leave_solver_stdout_byte_identical() {
    let pts = gen_profile_instance("prof-stdout");
    let solve = |extra: &[&std::ffi::OsStr]| {
        let mut cmd = lubt();
        cmd.args(["solve"])
            .arg(&pts)
            .args(["--lower", "0.9", "--upper", "1.4"]);
        for a in extra {
            cmd.arg(a);
        }
        cmd.output().unwrap()
    };
    let plain = solve(&[]);
    assert!(
        plain.status.success(),
        "{}",
        String::from_utf8_lossy(&plain.stderr)
    );

    // Bare `--profile` streams the Chrome doc to stderr; stdout must stay
    // byte-identical to the unprofiled run.
    let bare = solve(&[std::ffi::OsStr::new("--profile")]);
    assert!(bare.status.success());
    assert_eq!(
        plain.stdout, bare.stdout,
        "--profile must not perturb stdout"
    );
    let err = String::from_utf8(bare.stderr).unwrap();
    let json_start = err.find('{').expect("chrome doc on stderr");
    lubt_obs::json::validate(&err[json_start..])
        .expect("bare --profile emits strict chrome JSON on stderr");
    assert!(err.contains("\"traceEvents\""), "{err}");

    // File exports: stdout still identical, both artifacts strictly valid.
    let chrome = tmp("prof-stdout.chrome.json");
    let folded = tmp("prof-stdout.folded.txt");
    let out = solve(&[
        std::ffi::OsStr::new("--profile"),
        chrome.as_os_str(),
        std::ffi::OsStr::new("--profile-folded"),
        folded.as_os_str(),
    ]);
    assert!(out.status.success());
    assert_eq!(
        plain.stdout, out.stdout,
        "file exports must not perturb stdout"
    );
    let doc = std::fs::read_to_string(&chrome).unwrap();
    lubt_obs::json::validate(&doc).expect("chrome export must be strictly valid");
    assert!(doc.ends_with('\n'), "chrome export ends with a newline");
    let folded_doc = std::fs::read_to_string(&folded).unwrap();
    lubt_obs::lint_folded(&folded_doc).expect("folded export must lint clean");
    assert!(folded_doc.contains("solve"), "{folded_doc}");

    // The built-in linter agrees with the library.
    let check = lubt()
        .args(["profile", "--check-folded"])
        .arg(&folded)
        .output()
        .unwrap();
    assert!(
        check.status.success(),
        "{}",
        String::from_utf8_lossy(&check.stderr)
    );
    let text = String::from_utf8(check.stdout).unwrap();
    assert!(text.contains("folded profile ok"), "{text}");

    let _ = std::fs::remove_file(&pts);
    let _ = std::fs::remove_file(&chrome);
    let _ = std::fs::remove_file(&folded);
}

#[test]
fn trace_event_cap_zero_and_one_warn_about_dropped_events() {
    let pts = gen_profile_instance("prof-cap");
    // The pinned instance records two `ebf.round` events, so caps 0 and 1
    // both overflow while the solve itself still succeeds.
    for cap in ["0", "1"] {
        let out = lubt()
            .args(["solve"])
            .arg(&pts)
            .args(["--lower", "0.9", "--upper", "1.4", "--trace-event-cap", cap])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "cap {cap}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(
            err.contains("warning[trace-events-dropped]"),
            "cap {cap} must warn: {err}"
        );
    }
    // A roomy cap keeps every event and stays silent.
    let out = lubt()
        .args(["solve"])
        .arg(&pts)
        .args([
            "--lower",
            "0.9",
            "--upper",
            "1.4",
            "--trace-event-cap",
            "256",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(
        !err.contains("warning[trace-events-dropped]"),
        "roomy cap must not warn: {err}"
    );
    // A bare switch is rejected, not silently ignored.
    let out = lubt()
        .args(["solve"])
        .arg(&pts)
        .args(["--upper", "1.4", "--trace-event-cap"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("--trace-event-cap requires a value"), "{err}");
    let _ = std::fs::remove_file(&pts);
}

#[test]
fn profile_subcommand_exports_valid_documents_across_backends_and_outcomes() {
    let pts = gen_profile_instance("prof-backends");
    for backend in ["simplex", "revised", "dp"] {
        // Feasible: the Chrome doc lands on stdout and validates strictly.
        let out = lubt()
            .args(["profile"])
            .arg(&pts)
            .args(["--lower", "0.9", "--upper", "1.4", "--backend", backend])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{backend}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let doc = String::from_utf8(out.stdout).unwrap();
        lubt_obs::json::validate(&doc)
            .unwrap_or_else(|e| panic!("{backend} feasible chrome doc invalid: {e}"));
        assert!(doc.contains("\"traceEvents\""), "{backend}: {doc}");

        // Infeasible: the command exits non-zero but still exports the
        // profile of the failed solve.
        let out = lubt()
            .args(["profile"])
            .arg(&pts)
            .args(["--upper", "0.5", "--backend", backend])
            .output()
            .unwrap();
        assert!(!out.status.success(), "{backend}: infeasible must fail");
        let doc = String::from_utf8(out.stdout).unwrap();
        lubt_obs::json::validate(&doc)
            .unwrap_or_else(|e| panic!("{backend} infeasible chrome doc invalid: {e}"));
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(err.contains("no LUBT exists"), "{backend}: {err}");

        // Truncated event log: span exporters are unaffected; the folded
        // doc still lints clean.
        let out = lubt()
            .args(["profile"])
            .arg(&pts)
            .args([
                "--lower",
                "0.9",
                "--upper",
                "1.4",
                "--backend",
                backend,
                "--trace-event-cap",
                "0",
                "--format",
                "folded",
            ])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{backend}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let doc = String::from_utf8(out.stdout).unwrap();
        lubt_obs::lint_folded(&doc)
            .unwrap_or_else(|e| panic!("{backend} truncated folded doc invalid: {e}"));
    }
    let _ = std::fs::remove_file(&pts);
}

#[test]
fn profile_shape_is_thread_count_invariant() {
    let pts = gen_profile_instance("prof-shape");
    let shape = |threads: &str| {
        let out = lubt()
            .args(["profile"])
            .arg(&pts)
            .args([
                "--lower",
                "0.9",
                "--upper",
                "1.4",
                "--format",
                "shape",
                "--threads",
                threads,
            ])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "threads {threads}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).unwrap()
    };
    let solo = shape("1");
    assert!(solo.contains("solve/lp"), "shape: {solo}");
    assert!(solo.contains("embed"), "shape: {solo}");
    assert_eq!(solo, shape("8"), "span shape must not depend on --threads");

    // The human-readable tree renders the same spans with hit counts.
    let out = lubt()
        .args(["profile"])
        .arg(&pts)
        .args(["--lower", "0.9", "--upper", "1.4", "--format", "tree"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let tree = String::from_utf8(out.stdout).unwrap();
    assert!(tree.contains("solve"), "{tree}");

    // Unknown formats fail loudly.
    let out = lubt()
        .args(["profile"])
        .arg(&pts)
        .args(["--lower", "0.9", "--upper", "1.4", "--format", "dot"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("unknown format"), "{err}");
    let _ = std::fs::remove_file(&pts);
}

#[test]
fn solve_threads_flag_is_byte_identical_and_validated() {
    let pts = tmp("solve-threads.pts");
    let out = lubt()
        .args(["gen", "uniform", "--sinks", "24", "--seed", "19", "--out"])
        .arg(&pts)
        .output()
        .unwrap();
    assert!(out.status.success());

    // Byte-identical stdout across thread counts, including 0 (= all
    // cores), on the revised backend with an assisted separation oracle.
    let run = |threads: &str| {
        let out = lubt()
            .args(["solve"])
            .arg(&pts)
            .args(["--lower", "0.9", "--upper", "1.4"])
            .args(["--lp-backend", "revised", "--threads", threads])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "threads {threads}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        out.stdout
    };
    let solo = run("1");
    for threads in ["2", "8", "0"] {
        assert_eq!(
            run(threads),
            solo,
            "solve stdout differs between 1 and {threads} threads"
        );
    }

    // Negative counts are rejected with the integer-flag error style.
    let out = lubt()
        .args(["solve"])
        .arg(&pts)
        .args(["--lower", "0.9", "--upper", "1.4", "--threads", "-1"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("--threads expects an integer"), "{err}");

    // A bare --threads is rejected instead of silently ignored.
    let out = lubt()
        .args(["solve"])
        .arg(&pts)
        .args(["--lower", "0.9", "--upper", "1.4", "--threads"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("--threads requires a value"), "{err}");

    let _ = std::fs::remove_file(&pts);
}
