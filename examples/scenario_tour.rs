//! Scenario tour: replay the whole declarative corpus and print each
//! machine-checked verdict.
//!
//! ```text
//! cargo run --release --example scenario_tour            # embedded corpus
//! cargo run --release --example scenario_tour -- scenarios/churn.toml
//! ```
//!
//! Every entry under `scenarios/` is a complete adversarial run described
//! as data — topology, workload, loss/delay models, crash plans and the
//! named schedules of the adversary library (partition-heal,
//! ack-starvation, crash-storm, churn, targeted-delay). This example
//! parses, compiles and executes each spec and checks its `[expect]`
//! verdict, exactly as `urb scenario <file>` does.

use urb_sim::spec::{corpus, ScenarioSpec};

fn replay(label: &str, spec: &ScenarioSpec) -> bool {
    let (out, fails) = match spec.run() {
        Ok(pair) => pair,
        Err(e) => {
            println!("{label:<22} ERROR: {e}");
            return false;
        }
    };
    let verdict = if fails.is_empty() { "PASS" } else { "FAIL" };
    println!(
        "{label:<22} {verdict}  n={} alg={:<14} deliveries={:<3} quiescent={:<5} urb_ok={}",
        out.n,
        out.algorithm,
        out.metrics.deliveries.len(),
        out.quiescent,
        out.all_ok(),
    );
    for f in &fails {
        println!("{:22} ✗ {f}", "");
    }
    fails.is_empty()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    println!("== scenario tour: declarative adversaries, machine-checked ==\n");

    let mut all_pass = true;
    if args.is_empty() {
        for (name, text) in corpus() {
            let spec = ScenarioSpec::from_toml_str(text).expect("corpus parses");
            all_pass &= replay(name, &spec);
        }
        println!("\n(these are the embedded copies of scenarios/*.toml — point the");
        println!(" example at a file to replay your own, or use `urb scenario <file>`)");
    } else {
        for path in &args {
            let text = std::fs::read_to_string(path).expect("readable scenario file");
            let spec = ScenarioSpec::from_named_str(path, &text).expect("valid scenario spec");
            all_pass &= replay(path, &spec);
        }
    }
    assert!(all_pass, "every scenario must meet its expectations");
}
