//! `lubt` — command-line front end for the LUBT routing-tree toolkit.
//!
//! Run `lubt help` for the synopsis of every subcommand.
//!
//! `<input>` is the plain-text instance format of `lubt-data` (`name`,
//! optional `source x y`, `sink x y` lines). Bounds and skew values are
//! normalized to the instance radius unless `--absolute` is given.

#![forbid(unsafe_code)]

mod args;
mod commands;

use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match commands::run(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}
