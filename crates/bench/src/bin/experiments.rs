//! Experiment runner: regenerates every table of the reproduction.
//!
//! ```text
//! cargo run -p urb-bench --release --bin experiments            # every id of ALL_IDS
//! cargo run -p urb-bench --release --bin experiments -- e4 e12  # a subset
//! ```
//!
//! Output is markdown, one table per experiment; `DESIGN.md` §5 says what
//! each one checks. An id outside `ALL_IDS` (a retired one included) is a
//! usage error: the valid ids go to stderr and the exit code is 2.

use std::time::Instant;
use urb_bench::experiments::{canonical_id, experiment, ALL_IDS};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let ids: Vec<&str> = if args.is_empty() {
        ALL_IDS.to_vec()
    } else {
        match args.iter().map(|a| canonical_id(a)).collect() {
            Ok(ids) => ids,
            Err(e) => {
                eprintln!("experiments: {e}");
                std::process::exit(2);
            }
        }
    };

    println!("# anon-urb experiment suite");
    println!(
        "\nReproduction of Tang, Larrea, Arévalo & Jiménez, \"Implementing Uniform \
         Reliable Broadcast in Anonymous Distributed Systems with Fair Lossy \
         Channels\" (IPPS 2015). The paper has no empirical section; each \
         experiment validates one of its formal claims (index in DESIGN.md §5)."
    );

    let suite_start = Instant::now();
    for id in ids {
        let start = Instant::now();
        let run = experiment(id).expect("every id of ALL_IDS has a table function");
        for t in &run() {
            t.print();
        }
        println!("\n_({id} completed in {:.1?})_", start.elapsed());
    }
    println!("\n_total suite time: {:.1?}_", suite_start.elapsed());
}
