//! `--summarize DIR`: holds several sets of runs of the same code against
//! the bounds in `BENCHMARK.json` (what `ledger/run.sh` ends with).
//!
//! `DIR` holds one file per run, `set<k>.<workload>.json`, each the result
//! line of an untraced run. For every workload and end-to-end metric the
//! summary prints the median and quartiles over the sets and the largest
//! disagreement between sets as a share of the median; a gated metric
//! that disagrees by more than its bound fails the summary, unless it is
//! not applicable to the workload (`Workload::not_applicable`).

use crate::report::Metrics;
use crate::stats;
use crate::workloads;
use serde_json::Value;
use std::collections::BTreeMap;
use std::path::Path;

/// A parsed result line.
pub struct Parsed {
    /// The gate's verdict.
    pub correct: bool,
    /// Broadcasts attempted.
    pub attempted: u64,
    /// Broadcasts failed.
    pub failed: u64,
    /// The metrics, in the line's order.
    pub metrics: Metrics,
}

/// Parses a result line; `None` when it is not one.
pub fn parse_result(line: &str) -> Option<Parsed> {
    let v = serde_json::from_str(line.trim()).ok()?;
    let mut metrics = Metrics::default();
    let Value::Object(entries) = &v["metrics"] else {
        return None;
    };
    for (name, m) in entries {
        metrics.push(name, m["value"].as_f64()?, m["unit"].as_str()?);
    }
    Some(Parsed {
        correct: v["correct"].as_bool()?,
        attempted: v["attempted"].as_u64()?,
        failed: v["failed"].as_u64()?,
        metrics,
    })
}

/// One end-to-end metric of `BENCHMARK.json`.
struct Gate {
    name: String,
    unit: String,
    higher_is_better: bool,
    bound: f64,
}

fn gates(benchmark: &Value) -> Result<Vec<Gate>, String> {
    benchmark["end_to_end"]
        .as_array()
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            Some(Gate {
                name: m["name"].as_str()?.to_string(),
                unit: m["unit"].as_str()?.to_string(),
                higher_is_better: m["better"].as_str()? == "higher",
                bound: m["bound"].as_f64()?,
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| "BENCHMARK.json: malformed end_to_end entry".to_string())
}

/// Summarizes the runs in `dir` against `./BENCHMARK.json`. Returns
/// whether every gated metric agreed within its bound and every run was
/// correct.
pub fn run(dir: &Path) -> Result<bool, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("cannot read ./BENCHMARK.json (run from the repo root): {e}"))?;
    let benchmark = serde_json::from_str(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let gates = gates(&benchmark)?;

    // workload → set → metrics
    let mut runs: BTreeMap<String, BTreeMap<String, Parsed>> = BTreeMap::new();
    let listing = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in listing.flatten() {
        let file = entry.file_name().to_string_lossy().into_owned();
        let Some(stem) = file.strip_suffix(".json") else {
            continue;
        };
        let Some((set, workload)) = stem.split_once('.') else {
            continue;
        };
        let text = std::fs::read_to_string(entry.path()).map_err(|e| format!("{file}: {e}"))?;
        let parsed = text
            .lines()
            .last()
            .and_then(parse_result)
            .ok_or_else(|| format!("{file}: no result line"))?;
        runs.entry(workload.to_string())
            .or_default()
            .insert(set.to_string(), parsed);
    }
    if runs.is_empty() {
        return Err(format!(
            "{}: no set<k>.<workload>.json files",
            dir.display()
        ));
    }

    let mut ok = true;
    println!(
        "{:<18} {:<26} {:>5} {:>14} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "sets", "median", "q1", "q3", "disagree", "bound"
    );
    for (workload, sets) in &runs {
        for p in sets.values() {
            if !p.correct || p.failed > 0 {
                println!(
                    "{workload:<18} FAILED the correctness gate ({} of {} broadcasts)",
                    p.failed, p.attempted
                );
                ok = false;
            }
        }
        for g in &gates {
            let values: Vec<f64> = sets
                .values()
                .filter_map(|p| p.metrics.get(&g.name))
                .collect();
            if values.is_empty() {
                println!("{workload:<18} {:<26} missing", g.name);
                ok = false;
                continue;
            }
            let median = stats::median(&values);
            let (q1, q3) = if values.len() >= 2 {
                let (q1, _, q3) = stats::quartiles(&values);
                (q1, q3)
            } else {
                (median, median)
            };
            let (lo, hi) = values
                .iter()
                .fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
            let disagree = if median != 0.0 {
                (hi - lo) / median.abs()
            } else {
                0.0
            };
            let within = disagree <= g.bound;
            let applies = !workloads::find(workload)
                .is_some_and(|w| w.not_applicable.iter().any(|(m, _)| *m == g.name));
            ok &= within || !applies;
            println!(
                "{workload:<18} {:<26} {:>5} {median:>14.4} {q1:>14.4} {q3:>14.4} {:>8.1}% {:>6.0}%  {}",
                format!("{} [{}]", g.name, g.unit),
                values.len(),
                disagree * 100.0,
                g.bound * 100.0,
                if !applies {
                    "n/a"
                } else if within {
                    "ok"
                } else if g.higher_is_better {
                    "DISAGREES (higher is better)"
                } else {
                    "DISAGREES (lower is better)"
                },
            );
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{result_line, END_TO_END, PER_LAYER};

    #[test]
    fn result_line_round_trips() {
        let mut m = Metrics::default();
        m.push("setup_s", 0.25, "s");
        m.push("deliver_p50_us", 271.5, "us");
        let p = parse_result(&result_line(false, 10, 2, &m)).expect("parses");
        assert!(!p.correct);
        assert_eq!((p.attempted, p.failed), (10, 2));
        assert_eq!(p.metrics.get("deliver_p50_us"), Some(271.5));
        assert!(parse_result("not json").is_none());
        assert!(parse_result("{\"correct\": true}").is_none());
    }

    /// `BENCHMARK.json` and the binary must name the same workloads and
    /// metrics, or the driver rejects the run.
    #[test]
    fn benchmark_json_matches_the_binary() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let b = serde_json::from_str(&text).expect("valid JSON");
        let names = |key: &str| -> Vec<String> {
            b[key]
                .as_array()
                .expect("a list")
                .iter()
                .map(|m| m["name"].as_str().expect("name").to_string())
                .collect()
        };
        let units = |key: &str| -> Vec<String> {
            b[key]
                .as_array()
                .expect("a list")
                .iter()
                .map(|m| m["unit"].as_str().expect("unit").to_string())
                .collect()
        };
        let of = |c: &[(&str, &str)], i: usize| -> Vec<String> {
            c.iter().map(|p| [p.0, p.1][i].to_string()).collect()
        };
        assert_eq!(names("end_to_end"), of(END_TO_END, 0));
        assert_eq!(units("end_to_end"), of(END_TO_END, 1));
        assert_eq!(names("per_layer"), of(PER_LAYER, 0));
        assert_eq!(units("per_layer"), of(PER_LAYER, 1));
        let listed = names("workloads");
        let built: Vec<String> = workloads::ALL.iter().map(|w| w.name.to_string()).collect();
        assert_eq!(listed, built);
        for (w, entry) in workloads::ALL
            .iter()
            .zip(b["workloads"].as_array().unwrap())
        {
            let why = entry["why"].as_str().expect("why");
            assert_eq!(why, w.why, "{}", w.name);
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "{}: why too long",
                w.name
            );
        }
        let gates = gates(&b).expect("well-formed end_to_end");
        assert!(gates.iter().all(|g| g.bound > 0.0 && g.bound <= 0.25));
        let setup = gates.iter().find(|g| g.name == "setup_s").expect("setup_s");
        assert!(!setup.higher_is_better && setup.unit == "s");
    }
}
