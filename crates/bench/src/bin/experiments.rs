//! Experiment runner: regenerates every table of the reproduction.
//!
//! ```text
//! cargo run -p urb-bench --release --bin experiments            # all, E1–E23
//! cargo run -p urb-bench --release --bin experiments -- e4 e12  # a subset
//! ```
//!
//! Output is markdown, one table per experiment; `DESIGN.md` §5 says what
//! each one checks.

use std::time::Instant;
use urb_bench::experiments::{run_experiment, ALL_IDS};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let ids: Vec<String> = if args.is_empty() {
        ALL_IDS.iter().map(|s| s.to_string()).collect()
    } else {
        args.iter().map(|s| s.to_lowercase()).collect()
    };

    println!("# anon-urb experiment suite");
    println!(
        "\nReproduction of Tang, Larrea, Arévalo & Jiménez, \"Implementing Uniform \
         Reliable Broadcast in Anonymous Distributed Systems with Fair Lossy \
         Channels\" (IPPS 2015). The paper has no empirical section; each \
         experiment validates one of its formal claims (index in DESIGN.md §5)."
    );

    let suite_start = Instant::now();
    for id in &ids {
        let start = Instant::now();
        let tables = run_experiment(id);
        for t in &tables {
            t.print();
        }
        println!("\n_({id} completed in {:.1?})_", start.elapsed());
    }
    println!("\n_total suite time: {:.1?}_", suite_start.elapsed());
}
