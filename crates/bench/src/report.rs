//! The shared machine-readable output envelope.
//!
//! Every JSON the toolchain emits — `urb run --json`, `urb scenario
//! --json`, `urb bench --json` — wears the same top-level envelope so
//! that scripts can dispatch on one shape:
//!
//! ```json
//! {
//!   "schema_version": 1,
//!   "kind": "run-summary" | "bench-trajectory",
//!   "seed": 7,
//!   "git_rev": "abc123def456",
//!   "data": { …kind-specific body… }
//! }
//! ```
//!
//! The body under `data` is whatever the producing subsystem hand-rolls;
//! the envelope pins the four fields a trajectory diff needs to line two
//! files up: same schema, same kind, which seed, which commit.

/// Version of the envelope itself and of every documented body schema.
/// Bump on any breaking change to either (DESIGN.md §10 documents the
/// bodies).
pub const SCHEMA_VERSION: u32 = 1;

/// Wraps a kind-specific JSON body in the shared envelope.
///
/// `body` must be a complete JSON value (the emitters here always pass
/// an object). The output is pretty-printed with the body indented one
/// level, matching the workspace's other hand-rolled emitters.
///
/// ```
/// let json = urb_bench::report::envelope("run-summary", 7, "{\n  \"n\": 5\n}");
/// let v: serde_json::Value = serde_json::from_str(&json).unwrap();
/// assert_eq!(v["schema_version"], 1);
/// assert_eq!(v["kind"], "run-summary");
/// assert_eq!(v["seed"], 7);
/// assert!(v["git_rev"].as_str().is_some(), "always a string");
/// assert_eq!(v["data"]["n"], 5);
/// ```
pub fn envelope(kind: &str, seed: u64, body: &str) -> String {
    envelope_with_rev(kind, seed, &git_rev(), body)
}

/// [`envelope`] with an explicit revision (tests pin it; the CLI lets
/// the repository decide).
pub fn envelope_with_rev(kind: &str, seed: u64, git_rev: &str, body: &str) -> String {
    // Re-indent the body one level so the envelope reads like one
    // document rather than a string blob.
    let mut indented = String::with_capacity(body.len() + 64);
    for (i, line) in body.lines().enumerate() {
        if i > 0 {
            indented.push_str("\n  ");
        }
        indented.push_str(line);
    }
    format!(
        "{{\n  \"schema_version\": {SCHEMA_VERSION},\n  \"kind\": \"{}\",\n  \"seed\": {seed},\n  \"git_rev\": \"{}\",\n  \"data\": {indented}\n}}",
        serde_json::escape(kind),
        serde_json::escape(git_rev),
    )
}

/// The current commit's abbreviated hash, for trajectory provenance.
///
/// Resolution order: the `URB_GIT_REV` environment variable (CI sets it
/// from its own checkout metadata), then `git rev-parse --short=12 HEAD`,
/// then the literal `"unknown"` — the field is always present, never an
/// error.
pub fn git_rev() -> String {
    if let Ok(rev) = std::env::var("URB_GIT_REV") {
        let rev = rev.trim().to_string();
        if !rev.is_empty() {
            return rev;
        }
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelope_parses_and_carries_all_fields() {
        let json = envelope_with_rev(
            "bench-trajectory",
            42,
            "deadbeef0123",
            "{\n  \"x\": [1, 2]\n}",
        );
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(v["schema_version"], SCHEMA_VERSION as u64);
        assert_eq!(v["kind"], "bench-trajectory");
        assert_eq!(v["seed"], 42);
        assert_eq!(v["git_rev"], "deadbeef0123");
        assert_eq!(v["data"]["x"][1], 2);
    }

    #[test]
    fn git_rev_is_always_nonempty() {
        let rev = git_rev();
        assert!(!rev.is_empty());
    }

    #[test]
    fn envelope_escapes_kind() {
        let json = envelope_with_rev("we\"ird", 0, "r", "{}");
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(v["kind"], "we\"ird");
    }
}
