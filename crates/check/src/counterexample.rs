//! Replayable counterexample traces.
//!
//! A counterexample is the full recipe for re-witnessing one violating
//! execution: the scenario spec (embedded as canonical TOML, so the file
//! is self-contained), the seed, and the choice sequence. The delivery
//! trace rides along in the golden-trace shape PR 2 introduced
//! (`{"pid", "time", "fast", "tag"}` rows, tags as 32-digit hex), so the
//! same eyes and tools read both. Replay is **byte-deterministic**:
//! re-serializing a replayed counterexample reproduces the original
//! body, byte for byte — that is what `urb check --replay` asserts.
//!
//! The body is bare; the CLI wraps it in the workspace's shared JSON
//! envelope (`schema_version`/`kind`/`seed`/`git_rev`/`data`).
//! [`Counterexample::parse`] accepts both forms.

use crate::model::{CheckModel, Choice};
use serde_json::Value;
use std::fmt::Write as _;
use urb_sim::metrics::DeliveryRecord;
use urb_sim::ScenarioSpec;
use urb_types::{Payload, Tag, TopicId};

/// Envelope `kind` of a counterexample file.
pub const KIND: &str = "urb-counterexample";

/// One replayable violating execution.
#[derive(Clone, Debug, PartialEq)]
pub struct Counterexample {
    /// Scenario name.
    pub scenario: String,
    /// Strategy that found it.
    pub strategy: String,
    /// Seed the engines derived their streams from.
    pub seed: u64,
    /// Depth bound the search ran under.
    pub depth_bound: u32,
    /// The spec, as canonical TOML (self-contained replay).
    pub spec_toml: String,
    /// The violated properties, as the checker phrased them.
    pub violation: Vec<String>,
    /// The choice sequence — the schedule itself.
    pub choices: Vec<Choice>,
    /// The execution's delivery trace (golden-trace shape; `time` is the
    /// step index).
    pub deliveries: Vec<DeliveryRecord>,
}

fn choice_json(c: &Choice) -> String {
    match c {
        Choice::Broadcast => "{\"kind\": \"broadcast\"}".into(),
        Choice::Deliver { slot } => format!("{{\"kind\": \"deliver\", \"slot\": {slot}}}"),
        Choice::Drop { slot } => format!("{{\"kind\": \"drop\", \"slot\": {slot}}}"),
        Choice::Tick { pid } => format!("{{\"kind\": \"tick\", \"pid\": {pid}}}"),
        Choice::Crash { pid } => format!("{{\"kind\": \"crash\", \"pid\": {pid}}}"),
        Choice::TopicEvent => "{\"kind\": \"topic-event\"}".into(),
    }
}

fn choice_from_value(v: &Value) -> Result<Choice, String> {
    let kind = v["kind"]
        .as_str()
        .ok_or_else(|| "choice without a kind".to_string())?;
    let field = |name: &str| -> Result<usize, String> {
        v[name]
            .as_u64()
            .map(|x| x as usize)
            .ok_or_else(|| format!("choice {kind:?} needs a numeric `{name}`"))
    };
    Ok(match kind {
        "broadcast" => Choice::Broadcast,
        "deliver" => Choice::Deliver {
            slot: field("slot")?,
        },
        "drop" => Choice::Drop {
            slot: field("slot")?,
        },
        "tick" => Choice::Tick { pid: field("pid")? },
        "crash" => Choice::Crash { pid: field("pid")? },
        "topic-event" => Choice::TopicEvent,
        other => return Err(format!("unknown choice kind {other:?}")),
    })
}

impl Counterexample {
    /// The JSON body (hand-rolled like every emitter in the workspace).
    pub fn body_json(&self) -> String {
        let mut s = String::with_capacity(1024 + self.spec_toml.len() * 2);
        s.push_str("{\n");
        let _ = writeln!(
            s,
            "  \"scenario\": \"{}\",",
            serde_json::escape(&self.scenario)
        );
        let _ = writeln!(
            s,
            "  \"strategy\": \"{}\",",
            serde_json::escape(&self.strategy)
        );
        let _ = writeln!(s, "  \"seed\": {},", self.seed);
        let _ = writeln!(s, "  \"depth_bound\": {},", self.depth_bound);
        let _ = writeln!(
            s,
            "  \"spec_toml\": \"{}\",",
            serde_json::escape(&self.spec_toml)
        );
        let viol: Vec<String> = self
            .violation
            .iter()
            .map(|v| format!("\"{}\"", serde_json::escape(v)))
            .collect();
        let _ = writeln!(s, "  \"violation\": [{}],", viol.join(", "));
        let choices: Vec<String> = self.choices.iter().map(choice_json).collect();
        let _ = writeln!(s, "  \"choices\": [\n    {}\n  ],", choices.join(",\n    "));
        // Delivery rows in the PR 2 golden-trace shape.
        let rows: Vec<String> = self
            .deliveries
            .iter()
            .map(|d| {
                format!(
                    "    {{\"pid\": {}, \"topic\": {}, \"time\": {}, \"fast\": {}, \
                     \"tag\": \"{:#034x}\"}}",
                    d.pid, d.topic.0, d.time, d.fast, d.tag.0
                )
            })
            .collect();
        if rows.is_empty() {
            s.push_str("  \"deliveries\": []\n");
        } else {
            let _ = writeln!(s, "  \"deliveries\": [\n{}\n  ]", rows.join(",\n"));
        }
        s.push('}');
        s
    }

    /// Parses a counterexample from JSON text — either a bare body or a
    /// CLI-enveloped file (`data` holds the body).
    pub fn parse(text: &str) -> Result<Self, String> {
        let v: Value = serde_json::from_str(text).map_err(|e| format!("not valid JSON: {e}"))?;
        let body = if !v["data"].is_null() {
            if v["kind"].as_str() != Some(KIND) {
                return Err(format!(
                    "not a counterexample file (kind = {:?})",
                    v["kind"].as_str().unwrap_or("?")
                ));
            }
            &v["data"]
        } else {
            &v
        };
        let req_str = |key: &str| -> Result<String, String> {
            body[key]
                .as_str()
                .map(str::to_string)
                .ok_or_else(|| format!("missing or mistyped `{key}`"))
        };
        let choices = body["choices"]
            .as_array()
            .ok_or_else(|| "missing `choices` array".to_string())?
            .iter()
            .map(choice_from_value)
            .collect::<Result<Vec<_>, _>>()?;
        let violation = body["violation"]
            .as_array()
            .ok_or_else(|| "missing `violation` array".to_string())?
            .iter()
            .map(|x| {
                x.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| "violation entries must be strings".to_string())
            })
            .collect::<Result<Vec<_>, _>>()?;
        let deliveries = body["deliveries"]
            .as_array()
            .ok_or_else(|| "missing `deliveries` array".to_string())?
            .iter()
            .map(|d| {
                let tag_text = d["tag"]
                    .as_str()
                    .ok_or_else(|| "delivery without a tag".to_string())?;
                let tag = u128::from_str_radix(tag_text.trim_start_matches("0x"), 16)
                    .map_err(|e| format!("bad tag {tag_text:?}: {e}"))?;
                let topic = match &d["topic"] {
                    // Absent on pre-topic artifacts: default to topic 0.
                    v if v.is_null() => TopicId::ZERO,
                    // Present must be a valid dense topic id; silent
                    // coercion would replay against the wrong golden row.
                    v => TopicId(
                        v.as_u64()
                            .and_then(|t| u32::try_from(t).ok())
                            .ok_or("delivery topic must be a u32")?,
                    ),
                };
                Ok(DeliveryRecord {
                    pid: d["pid"].as_u64().ok_or("delivery without a pid")? as usize,
                    topic,
                    time: d["time"].as_u64().ok_or("delivery without a time")?,
                    fast: d["fast"].as_bool().ok_or("delivery without fast")?,
                    tag: Tag(tag),
                    // Payloads are not part of the golden shape; replay
                    // compares (pid, time, fast, tag).
                    payload: Payload::empty(),
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Counterexample {
            scenario: req_str("scenario")?,
            strategy: req_str("strategy")?,
            seed: body["seed"]
                .as_u64()
                .ok_or_else(|| "missing or mistyped `seed`".to_string())?,
            depth_bound: {
                let d = body["depth_bound"]
                    .as_u64()
                    .ok_or_else(|| "missing or mistyped `depth_bound`".to_string())?;
                // Past u32::MAX would wrap and re-serialize differently.
                u32::try_from(d).map_err(|_| {
                    format!("`depth_bound` = {d} does not fit a u32 (max {})", u32::MAX)
                })?
            },
            spec_toml: req_str("spec_toml")?,
            violation,
            choices,
            deliveries,
        })
    }

    /// Re-executes the recorded schedule from the embedded spec and
    /// verifies it reproduces the recorded violation **and** the
    /// recorded delivery trace, row for row. `Ok` carries the replayed
    /// violation strings (for display); `Err` explains the first
    /// divergence.
    pub fn replay(&self) -> Result<Vec<String>, String> {
        let spec = ScenarioSpec::from_toml_str(&self.spec_toml)
            .map_err(|e| format!("embedded spec: {e}"))?;
        let model =
            CheckModel::from_spec(&spec, Some(self.seed)).map_err(|e| format!("compile: {e}"))?;
        let mut st = model.initial();
        for (i, c) in self.choices.iter().enumerate() {
            st.apply(*c)
                .map_err(|e| format!("replay diverged at choice {i}: {e}"))?;
        }
        st.check_eventual();
        let violation: Vec<String> = st
            .violation()
            .ok_or_else(|| "replay produced no violation".to_string())?
            .to_vec();
        if violation != self.violation {
            return Err(format!(
                "replay violated differently:\n  recorded: {:?}\n  replayed: {violation:?}",
                self.violation
            ));
        }
        if st.deliveries().len() != self.deliveries.len() {
            return Err(format!(
                "replay produced {} deliveries, file records {}",
                st.deliveries().len(),
                self.deliveries.len()
            ));
        }
        for (i, (a, b)) in st.deliveries().iter().zip(&self.deliveries).enumerate() {
            if (a.pid, a.time, a.fast, a.tag) != (b.pid, b.time, b.fast, b.tag) {
                return Err(format!(
                    "delivery {i} diverged: replayed (pid {}, t {}, fast {}, {:?}), \
                     recorded (pid {}, t {}, fast {}, {:?})",
                    a.pid, a.time, a.fast, a.tag, b.pid, b.time, b.fast, b.tag
                ));
            }
        }
        Ok(violation)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Counterexample {
        Counterexample {
            scenario: "t".into(),
            strategy: "dfs".into(),
            seed: 9,
            depth_bound: 32,
            spec_toml: "name = \"t\"\nn = 2\n".into(),
            violation: vec!["agreement: x".into()],
            choices: vec![
                Choice::Broadcast,
                Choice::Deliver { slot: 1 },
                Choice::Drop { slot: 0 },
                Choice::Tick { pid: 1 },
                Choice::Crash { pid: 0 },
                Choice::TopicEvent,
            ],
            deliveries: vec![DeliveryRecord {
                pid: 1,
                topic: TopicId::ZERO,
                time: 2,
                fast: false,
                tag: Tag(0xABCD),
                payload: Payload::empty(),
            }],
        }
    }

    #[test]
    fn body_round_trips_through_parse() {
        let cx = sample();
        let body = cx.body_json();
        let parsed = Counterexample::parse(&body).unwrap();
        assert_eq!(parsed, cx);
        assert_eq!(parsed.body_json(), body, "byte-stable re-serialization");
    }

    #[test]
    fn enveloped_files_parse_too() {
        let cx = sample();
        let enveloped = format!(
            "{{\"schema_version\": 1, \"kind\": \"{KIND}\", \"seed\": 9, \
             \"git_rev\": \"x\", \"data\": {}}}",
            cx.body_json()
        );
        assert_eq!(Counterexample::parse(&enveloped).unwrap(), cx);
        let wrong = enveloped.replace(KIND, "bench-trajectory");
        assert!(Counterexample::parse(&wrong).unwrap_err().contains("kind"));
    }

    #[test]
    fn parse_rejects_malformed_input() {
        assert!(Counterexample::parse("nope").is_err());
        assert!(Counterexample::parse("{}").is_err());
        let body = sample().body_json();
        let bad = body.replace("\"kind\": \"deliver\"", "\"kind\": \"teleport\"");
        assert!(Counterexample::parse(&bad)
            .unwrap_err()
            .contains("unknown choice kind"));
    }

    #[test]
    fn parse_refuses_a_depth_bound_past_u32() {
        let body = sample().body_json();
        let max = body.replace("\"depth_bound\": 32,", "\"depth_bound\": 4294967295,");
        let cx = Counterexample::parse(&max).unwrap();
        assert_eq!(cx.depth_bound, u32::MAX);
        assert_eq!(
            cx.body_json(),
            max,
            "u32::MAX re-serializes byte-identically"
        );
        // 2^32 + 16 must not wrap to 16.
        let wrapped = body.replace("\"depth_bound\": 32,", "\"depth_bound\": 4294967312,");
        let err = Counterexample::parse(&wrapped).unwrap_err();
        assert_eq!(
            err,
            "`depth_bound` = 4294967312 does not fit a u32 (max 4294967295)"
        );
    }

    #[test]
    fn golden_trace_shape_is_preserved() {
        // The delivery rows must look exactly like tests/golden/*.json
        // rows: pid/topic/time/fast plus a 32-hex-digit 0x tag.
        let body = sample().body_json();
        assert!(
            body.contains(
                "{\"pid\": 1, \"topic\": 0, \"time\": 2, \"fast\": false, \
                 \"tag\": \"0x0000000000000000000000000000abcd\"}"
            ),
            "{body}"
        );
    }

    #[test]
    fn parse_defaults_missing_topic_to_zero() {
        // Pre-topic counterexample artifacts carry no `topic` key in
        // their delivery rows; they must still parse (as topic 0).
        let body = sample().body_json();
        let legacy = body.replace("\"topic\": 0, ", "");
        let cx = Counterexample::parse(&legacy).unwrap();
        assert_eq!(cx.deliveries[0].topic, TopicId::ZERO);
        // A *present but malformed* topic is a hard error, not topic 0.
        for bad in ["\"topic\": \"1\", ", "\"topic\": 4294967296, "] {
            let corrupted = body.replace("\"topic\": 0, ", bad);
            let err = Counterexample::parse(&corrupted).unwrap_err();
            assert!(err.contains("topic"), "{bad:?} → {err}");
        }
    }
}
