//! `urb-ledger` — the repo's wall-clock benchmark (see `ledger/README.md`).
//!
//! ```text
//! urb-ledger --workload W --seed S --seconds N --trace 0|1 [--self-test]
//! urb-ledger --seed S [--seconds N] [--self-test]
//! urb-ledger --summarize DIR
//! ```
//!
//! The first form is the benchmark driver's: it runs that workload in this
//! process and ends with the one-line JSON result the driver reads. The
//! second runs every workload — each in a fresh child process, so
//! `peak_rss_mb` is the workload's own — untraced and then traced, and
//! prints one table. `--seconds` defaults to `run_seconds` of the
//! `BENCHMARK.json` in the current directory.

mod gate;
mod gen;
mod inproc;
mod mesh;
mod micro;
mod report;
mod spans;
mod stats;
mod summarize;
mod tcp;
mod workloads;

use report::{Metrics, END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::process::ExitCode;

/// Cluster size of every workload.
pub const N: usize = 3;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    self_test: bool,
    summarize: Option<PathBuf>,
}

fn usage() -> String {
    let names: Vec<&str> = workloads::ALL.iter().map(|w| w.name).collect();
    format!(
        "usage: urb-ledger --workload W --seed S --seconds N --trace 0|1 [--self-test]\n       urb-ledger --seed S [--seconds N] [--self-test]   (every workload, untraced then traced)\n       urb-ledger --summarize DIR\nworkloads: {}",
        names.join(", ")
    )
}

/// `run_seconds` of the `BENCHMARK.json` in the current directory: what
/// `--seconds` means when it is not given.
fn run_seconds() -> Result<f64, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("no --seconds, and ./BENCHMARK.json cannot be read: {e}"))?;
    serde_json::from_str(&text)
        .ok()
        .and_then(|b| b["run_seconds"].as_f64())
        .filter(|s| *s > 0.0)
        .ok_or_else(|| "no --seconds, and ./BENCHMARK.json has no run_seconds".to_string())
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 0.0,
        trace: false,
        self_test: false,
        summarize: None,
    };
    let (mut seconds, mut trace) = (None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                let v = value("a number")?;
                args.seed = v.parse().map_err(|_| format!("--seed {v}: not a number"))?;
            }
            "--seconds" => {
                let v = value("a number")?;
                seconds = Some(
                    v.parse()
                        .ok()
                        .filter(|s: &f64| s.is_finite() && *s > 0.0)
                        .ok_or_else(|| format!("--seconds {v}: not a positive number"))?,
                );
            }
            "--trace" => {
                trace = Some(match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace {v}: not 0 or 1")),
                });
            }
            "--summarize" => args.summarize = Some(PathBuf::from(value("a directory")?)),
            "--self-test" => args.self_test = true,
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown argument {other}\n{}", usage())),
        }
    }
    match &args.workload {
        Some(w) if workloads::find(w).is_none() => {
            return Err(format!("unknown workload {w}\n{}", usage()));
        }
        Some(_) => args.trace = trace.unwrap_or(false),
        None if trace.is_some() => {
            return Err(format!(
                "--trace needs --workload: without one, every workload runs untraced and then traced\n{}",
                usage()
            ));
        }
        None => {}
    }
    if args.summarize.is_none() {
        args.seconds = match seconds {
            Some(s) => s,
            None => run_seconds()?,
        };
    }
    Ok(args)
}

/// The cargo target directory this binary was built into
/// (`<target>/<profile>/urb-ledger`): where traces and scratch files go,
/// so the ledger writes nowhere else.
fn target_dir() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().and_then(|p| p.parent()).map(PathBuf::from))
        .unwrap_or_else(|| PathBuf::from("."))
}

/// Runs one workload in this process. Prints every measurement, then the
/// result line; returns whether the gate passed.
fn run_one(args: &Args, name: &str) -> bool {
    let workload = workloads::find(name).expect("validated by parse_args");
    let dir = target_dir();
    let mut out = workloads::run(
        workload,
        workloads::Invocation {
            seed: args.seed,
            seconds: args.seconds,
            trace: args.trace,
            sabotage: args.self_test,
            target_dir: &dir,
        },
    );
    if args.trace && name == micro::HOST_WORKLOAD {
        let scratch = dir.join("ledger-scratch");
        micro::run_all(&mut out.metrics, args.seed, &scratch);
    }
    let correct = out.failed == 0 && out.violations.is_empty();
    println!(
        "# {name}  seed {}  seconds {}  {}",
        args.seed,
        args.seconds,
        if args.trace { "traced" } else { "untraced" }
    );
    println!("# why: {}", workload.why);
    for (metric, value, unit) in out.metrics.iter() {
        println!("{metric:<40} {value:>16.4} {unit}");
    }
    for note in &out.notes {
        println!("note: {note}");
    }
    if !args.trace {
        for (metric, reads) in workload.not_applicable {
            println!("note: {metric} is not applicable to {name}: it reads {reads}");
        }
    }
    for v in &out.violations {
        println!("GATE: {v}");
    }
    let contract = if args.trace { PER_LAYER } else { END_TO_END };
    println!(
        "{}",
        report::result_line(
            correct,
            out.attempted.max(1),
            out.failed,
            &out.metrics.select(contract)
        )
    );
    correct
}

/// Runs `urb-ledger --workload name ...` as a child and returns its
/// metrics (parsed from the result line) and whether it passed.
fn run_child(args: &Args, name: &str, trace: bool) -> Result<(Metrics, bool, String), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = std::process::Command::new(exe);
    cmd.args(["--workload", name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if args.self_test {
        cmd.arg("--self-test");
    }
    let output = cmd
        .output()
        .map_err(|e| format!("cannot run child for {name}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    let last = stdout.lines().last().unwrap_or("");
    let parsed = summarize::parse_result(last)
        .ok_or_else(|| format!("{name}: child printed no result line\n{stdout}"))?;
    Ok((
        parsed.metrics,
        parsed.correct && output.status.success(),
        stdout,
    ))
}

/// Runs every workload, untraced then traced, each in its own process.
fn run_all(args: &Args) -> bool {
    let mut all_ok = true;
    let mut rows: Vec<(&str, Metrics, Metrics)> = Vec::new();
    for w in workloads::ALL {
        let mut both = Vec::new();
        for trace in [false, true] {
            match run_child(args, w.name, trace) {
                Ok((metrics, ok, stdout)) => {
                    // Everything but the machine-readable last line.
                    let shown: Vec<&str> = stdout.lines().collect();
                    for line in &shown[..shown.len().saturating_sub(1)] {
                        println!("{line}");
                    }
                    all_ok &= ok;
                    both.push(metrics);
                }
                Err(e) => {
                    println!("GATE: {e}");
                    all_ok = false;
                    both.push(Metrics::default());
                }
            }
        }
        let traced = both.pop().expect("two runs");
        let untraced = both.pop().expect("two runs");
        rows.push((w.name, untraced, traced));
        println!();
    }

    println!(
        "# end to end (untraced), seed {}, {} s per run",
        args.seed, args.seconds
    );
    print!("{:<18}", "workload");
    for (name, unit) in END_TO_END {
        print!(" {:>24}", format!("{name} [{unit}]"));
    }
    println!(" {:>14}", "failed_share");
    for (name, untraced, traced) in &rows {
        print!("{name:<18}");
        let na = workloads::find(name).map_or(&[][..], |w| w.not_applicable);
        for (metric, _) in END_TO_END {
            let value = format!("{:.4}", untraced.get(metric).unwrap_or(0.0));
            let mark = if na.iter().any(|(m, _)| m == metric) {
                " n/a"
            } else {
                ""
            };
            print!(" {:>24}", format!("{value}{mark}"));
        }
        println!(" {:>14.6}", traced.get("e2e.failed_share").unwrap_or(0.0));
    }
    println!();
    println!("# stacked budget of the mesh workloads (traced), us per broadcast");
    let parts = [
        "budget.engine_broadcast_us",
        "budget.types_encode_us",
        "budget.types_decode_us",
        "budget.engine_dispatch_us",
        "budget.core_receive_us",
        "budget.engine_tick_all_us",
        "budget.driver_us",
        "budget.total_us",
        "budget.untraced_us",
        "bench.trace_overhead_pct",
    ];
    print!("{:<18}", "workload");
    for p in parts {
        print!(
            " {:>16}",
            p.trim_start_matches("budget.").trim_end_matches("_us")
        );
    }
    println!();
    for (name, _, traced) in rows.iter().filter(|(n, _, _)| n.starts_with("mesh_")) {
        print!("{name:<18}");
        for p in parts {
            print!(" {:>16.3}", traced.get(p).unwrap_or(0.0));
        }
        println!();
    }
    all_ok
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    if let Some(dir) = &args.summarize {
        return match summarize::run(dir) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::from(1),
            Err(e) => {
                eprintln!("{e}");
                ExitCode::from(2)
            }
        };
    }
    let ok = match &args.workload {
        Some(name) => run_one(&args, name),
        None => run_all(&args),
    };
    if args.self_test {
        // The self-test passes when the sabotaged run was *caught*.
        return if ok {
            eprintln!("self-test FAILED: a dropped delivery went unnoticed");
            ExitCode::from(3)
        } else {
            eprintln!(
                "self-test: the gate caught the dropped delivery (non-zero exit, as it must)"
            );
            ExitCode::from(1)
        };
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn driver_command_line_parses() {
        let a = parse_args(&argv(
            "--workload mesh_small --seed 7 --seconds 9 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("mesh_small"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 9.0, true));
        let a = parse_args(&argv("--workload tcp_burst --seed 7 --seconds 9 --trace 0")).unwrap();
        assert!(!a.trace);
    }

    #[test]
    fn only_the_drivers_trace_form_is_accepted() {
        let a = parse_args(&argv("--seed 3 --seconds 2")).unwrap();
        assert!(a.workload.is_none() && !a.trace);
        // Bare `--trace`, other values, and `--trace` without a workload
        // (where both modes run anyway) are refused, not guessed at.
        assert!(parse_args(&argv("--workload mesh_small --seconds 1 --trace")).is_err());
        assert!(parse_args(&argv("--workload mesh_small --seconds 1 --trace yes")).is_err());
        assert!(parse_args(&argv("--seed 3 --seconds 2 --trace 1")).is_err());
        assert!(parse_args(&argv("--workload nope --seconds 1")).is_err());
        assert!(parse_args(&argv("--seconds 0")).is_err());
        assert!(parse_args(&argv("--bogus")).is_err());
    }
}
