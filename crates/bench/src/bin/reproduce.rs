//! Regenerates the paper's tables and figure.
//!
//! ```text
//! reproduce <table1|table2|table3|figure8|all> [sinks]
//! ```
//!
//! `sinks` (or env `LUBT_SINKS` / `LUBT_FULL=1`) controls instance
//! subsampling; the default keeps each run to seconds. Set `LUBT_CSV_DIR`
//! to also write machine-readable CSVs next to the printed tables.

use lubt_bench::{figure8, instances, table1, table2, table3, timing};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let what = args.first().map(String::as_str).unwrap_or("all");
    let scale = args
        .get(1)
        .and_then(|s| s.parse::<usize>().ok())
        .map(Some)
        .unwrap_or_else(instances::scale_from_env);

    match what {
        "table1" => run_table1(scale),
        "table2" => run_table2(scale),
        "table3" => run_table3(scale),
        "figure8" => run_figure8(scale),
        "timing" => run_timing(),
        "all" => {
            run_table1(scale);
            run_table2(scale);
            run_table3(scale);
            run_figure8(scale);
            run_timing();
        }
        other => {
            eprintln!(
                "unknown experiment {other:?}; expected table1|table2|table3|figure8|timing|all"
            );
            std::process::exit(2);
        }
    }
}

fn write_csv(name: &str, csv: &str) {
    if let Ok(dir) = std::env::var("LUBT_CSV_DIR") {
        let path = std::path::Path::new(&dir).join(format!("{name}.csv"));
        match lubt_obs::fsio::write_atomic(&path, csv) {
            Ok(()) => println!("(csv written to {})", path.display()),
            Err(e) => eprintln!("cannot write {}: {e}", path.display()),
        }
    }
}

fn describe(scale: Option<usize>) -> String {
    match scale {
        Some(k) => format!("{k} sinks per instance (LUBT_FULL=1 for published sizes)"),
        None => "full published sink counts".to_string(),
    }
}

fn run_table1(scale: Option<usize>) {
    println!(
        "== Table 1: baseline [9]-style BST vs LUBT ({})",
        describe(scale)
    );
    println!("   (all bounds normalized to the radius)\n");
    let mut rows = Vec::new();
    for inst in instances::paper_benchmarks(scale) {
        match table1::run(&inst, &table1::PAPER_SKEW_BOUNDS) {
            Ok(mut r) => rows.append(&mut r),
            Err(e) => eprintln!("{}: {e}", inst.name),
        }
    }
    println!("{}", table1::to_text(&rows));
    write_csv("table1", &table1::to_csv(&rows));
}

fn run_table2(scale: Option<usize>) {
    println!(
        "== Table 2: same skew, shifted [l, u] windows ({})\n",
        describe(scale)
    );
    let mut rows = Vec::new();
    for name in ["prim1", "prim2"] {
        let inst = instances::by_name(name, scale).expect("known benchmark");
        for skew in [0.3, 0.5] {
            match table2::run(&inst, skew, &table2::paper_offsets(skew)) {
                Ok(mut r) => rows.append(&mut r),
                Err(e) => eprintln!("{name} skew {skew}: {e}"),
            }
        }
    }
    println!("{}", table2::to_text(&rows));
    println!("(* = window realized by the baseline construction)\n");
    write_csv("table2", &table2::to_csv(&rows));
}

fn run_table3(scale: Option<usize>) {
    println!(
        "== Table 3: assorted bound combinations ({})\n",
        describe(scale)
    );
    let mut rows = Vec::new();
    for inst in instances::paper_benchmarks(scale) {
        match table3::run(&inst, &table3::PAPER_WINDOWS) {
            Ok(mut r) => rows.append(&mut r),
            Err(e) => eprintln!("{}: {e}", inst.name),
        }
    }
    println!("{}", table3::to_text(&rows));
    write_csv("table3", &table3::to_csv(&rows));
}

fn run_timing() {
    println!("== Solver CPU scaling (the §8 LOQO-vs-simplex remark)\n");
    let inst = instances::by_name("prim2", None).expect("known benchmark");
    match timing::run(&inst, &[8, 16, 32, 64, 128, 256]) {
        Ok(rows) => println!("{}", timing::to_text(&rows)),
        Err(e) => eprintln!("timing: {e}"),
    }
}

fn run_figure8(scale: Option<usize>) {
    println!(
        "== Figure 8: cost vs [l, u] trade-off on prim2 ({})\n",
        describe(scale)
    );
    let inst = instances::by_name("prim2", scale).expect("known benchmark");
    match figure8::run(&inst, &figure8::DEFAULT_WIDTHS, &figure8::default_lowers()) {
        Ok(points) => {
            println!("{}", figure8::to_text(&points));
            write_csv("figure8", &figure8::to_csv(&points));
        }
        Err(e) => eprintln!("figure8: {e}"),
    }
}
