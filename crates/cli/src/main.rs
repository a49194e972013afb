//! `autosens` — the end-user command line.
//!
//! [`args::USAGE`] lists every subcommand and the flags each accepts; it
//! is printed with any usage error. [`args::parse`] reads the command line
//! in one pass into a [`args::Command`], and [`commands::run`] executes it.
//! Usage errors exit 2, run errors exit 1.

use std::process::ExitCode;

mod args;
mod commands;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    autosens_obs::set_verbosity(args::verbosity(&argv));
    match args::parse(&argv) {
        Ok(cmd) => match commands::run(cmd) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        },
        Err(e) => {
            eprintln!("error: {e}\n");
            eprintln!("{}", args::USAGE);
            ExitCode::from(2)
        }
    }
}
