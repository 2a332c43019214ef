//! `urb` — command-line front end for the anon-urb simulator.
//!
//! ```text
//! urb run --n 8 --alg quiescent --loss 0.3 --crashes 5 --msgs 3 --seed 7
//! urb run --n 5 --alg majority --trace /tmp/run.json --json
//! urb scenario scenarios/partition_heal.toml
//! urb check scenarios/theorem2_violation.toml --trace cx.json
//! urb check --replay cx.json
//! urb bench --json BENCH_PR3.json
//! urb bench --diff BENCH_PR3.json bench-smoke.json
//! urb theorem2 --n 6
//! urb node --id 0 --addrs 127.0.0.1:7001,127.0.0.1:7002,127.0.0.1:7003
//! urb cluster --local 3 --json
//! urb sweep --n 8 --alg majority
//! urb help
//! ```
//!
//! Everything the CLI does goes through the same `urb_sim::run` entry point
//! the tests and experiments use; the CLI only parses flags and formats
//! output (human text by default, `--json` for machines). This is the one
//! place the process exits: 0 = the verdict holds, 1 = a verdict failed,
//! 2 = unusable input or config.

use std::process::ExitCode;
use urb_cli::args::{parse, USAGE};
use urb_cli::commands;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let command = match parse(&argv) {
        Ok(command) => command,
        Err(e) => {
            eprint!("error: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match commands::execute(command) {
        Ok(()) => ExitCode::SUCCESS,
        Err(failure) => {
            for line in &failure.lines {
                eprintln!("{line}");
            }
            ExitCode::from(failure.code)
        }
    }
}
