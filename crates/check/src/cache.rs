//! Persistent frontier cache: the explorer's state-hash/depth table,
//! serialized so CI's bounded search deepens monotonically across runs
//! instead of re-exploring the same prefix from scratch.
//!
//! # File format (schema version 1)
//!
//! Line-oriented and append-friendly. The first line is a JSON header,
//! validated and versioned like the bench trajectory envelope:
//!
//! ```text
//! {"schema_version":1,"kind":"check-cache","scenario":"two-topics-smoke","seed":11,"mode":"dfs","spec_digest":"a1b2c3d4e5f60718"}
//! ```
//!
//! Every following non-empty line is one *fully-explored subtree root*:
//!
//! ```text
//! <hash:016x> <remaining-depth> <delay-budget>
//! ```
//!
//! meaning: from a state with this digest, exploring every schedule of
//! up to `remaining-depth` further choices under `delay-budget` found no
//! violation. A probe for `(hash, R, b)` hits when some row **dominates**
//! it (`R' >= R` and `b' >= b`) — the cached exploration covered at
//! least as much as the probe is about to do. `remaining-depth` of
//! [`UNBOUNDED`] marks a run whose exploration never hit the depth
//! bound, so the subtree is exhausted outright and hits at *any* depth.
//!
//! # Soundness rules
//!
//! * The cache is only written after a run that **completed** (frontier
//!   drained, not truncated at the state cap) and found **no violation**
//!   — a witness stops exploration early, so "expanded" would not mean
//!   "subtree clean". For the same reason the cache is inert (probes
//!   disabled, nothing persisted) on scenarios that *expect* a
//!   violation, and on the `random` strategy, whose walks prove nothing
//!   about subtrees. The Theorem-2 must-find-violation CI job is
//!   therefore untouched by caching.
//! * The header binds the table to the scenario name, seed, strategy
//!   mode and a digest of the full spec TOML. A header that parses but
//!   binds to different inputs is **stale**, not corrupt: the file is
//!   ignored (cold start) and overwritten on save — editing a scenario
//!   must not poison its next check. A file that does not parse, or
//!   parses to the wrong schema version or kind, is a [`CacheError`]
//!   and exits 2 at the CLI, exactly like a malformed spec.
//! * Saves rewrite the whole file deterministically: union of loaded
//!   and freshly-explored rows, dominance-compacted, sorted. Equal
//!   inputs produce byte-equal cache files.

use crate::Strategy;
use std::collections::HashMap;
use std::fmt;
use urb_sim::ScenarioSpec;

/// `kind` field of the cache header.
pub const CACHE_KIND: &str = "check-cache";
/// Current cache schema version.
pub const CACHE_SCHEMA_VERSION: u64 = 1;
/// `remaining-depth` marker for subtrees exhausted with no depth prune
/// anywhere below them: such rows dominate probes at every depth.
pub const UNBOUNDED: u32 = u32::MAX;

/// Cache effectiveness counters, reported in the JSON envelope.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Probes answered by a dominating cached row (subtree skipped).
    pub hits: u64,
    /// Probes that found no dominating row.
    pub misses: u64,
    /// Rows loaded from the file at startup.
    pub loaded: u64,
    /// Rows written back at save time (0 when the run was not eligible).
    pub persisted: u64,
}

impl CacheStats {
    /// Fraction of probes answered from the cache.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Why a cache file was rejected. At the CLI these are exit-2 errors:
/// the input is unusable, not a verdict.
#[derive(Debug)]
pub enum CacheError {
    /// The file exists but could not be read, or the save failed.
    Io(String),
    /// The file is not a cache file (bad header/rows).
    Corrupt(String),
    /// The header parses but carries an unsupported schema version.
    Version(u64),
}

impl fmt::Display for CacheError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CacheError::Io(e) => write!(f, "cache io error: {e}"),
            CacheError::Corrupt(why) => write!(f, "corrupt cache file: {why}"),
            CacheError::Version(found) => write!(
                f,
                "cache schema version {found} unsupported (expected {CACHE_SCHEMA_VERSION})"
            ),
        }
    }
}

impl std::error::Error for CacheError {}

/// What a cache file is bound to: reusing rows is only sound against
/// the identical exploration inputs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CacheBinding {
    /// Scenario name.
    pub scenario: String,
    /// Resolved exploration seed (feeds the engines' tag streams).
    pub seed: u64,
    /// Strategy mode string, including whether the independence-based
    /// reduction was active (e.g. `dfs`, `dpor-lite+ind`).
    pub mode: String,
    /// FNV-1a digest of the full spec TOML, hex-encoded.
    pub spec_digest: String,
}

impl CacheBinding {
    /// Binds a cache to a spec + resolved strategy/seed. `dpor` is the
    /// *effective* reduction switch (it changes which states get
    /// materialized, so tables must not be shared across it).
    pub fn new(spec: &ScenarioSpec, strategy: Strategy, dpor: bool, seed: u64) -> Self {
        let toml = spec.to_toml();
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        for b in toml.as_bytes() {
            digest ^= *b as u64;
            digest = digest.wrapping_mul(0x0000_0100_0000_01B3);
        }
        CacheBinding {
            scenario: spec.name.clone(),
            seed,
            mode: format!("{}{}", strategy.as_str(), if dpor { "+ind" } else { "" }),
            spec_digest: format!("{digest:016x}"),
        }
    }

    fn header_line(&self) -> String {
        format!(
            "{{\"schema_version\":{CACHE_SCHEMA_VERSION},\"kind\":\"{CACHE_KIND}\",\
             \"scenario\":{},\"seed\":{},\"mode\":{},\"spec_digest\":\"{}\"}}",
            json_string(&self.scenario),
            self.seed,
            json_string(&self.mode),
            self.spec_digest
        )
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// An open cache session: rows loaded from disk (when present and
/// binding-compatible), rows recorded by the current run, and the
/// bookkeeping to write a merged table back.
pub struct CacheSession {
    path: String,
    binding: CacheBinding,
    /// hash → maximal antichain of (remaining, budget) rows.
    loaded: HashMap<u64, Vec<(u32, u64)>>,
    loaded_rows: u64,
    stale: Option<String>,
    fresh: Vec<(u64, u32, u64)>,
    complete: Option<bool>,
}

impl CacheSession {
    /// Opens `path` against `binding`. A missing file is a cold start;
    /// an unreadable, corrupt or wrong-version file is a [`CacheError`];
    /// a valid file bound to different inputs is *stale* — ignored with
    /// the reason retrievable via [`CacheSession::stale`], then
    /// overwritten on the next save.
    pub fn open(path: &str, binding: CacheBinding) -> Result<Self, CacheError> {
        let mut session = CacheSession {
            path: path.to_string(),
            binding,
            loaded: HashMap::new(),
            loaded_rows: 0,
            stale: None,
            fresh: Vec::new(),
            complete: None,
        };
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(session),
            Err(e) => return Err(CacheError::Io(e.to_string())),
        };
        let mut lines = text.lines();
        let header = lines.next().unwrap_or("");
        let v: serde_json::Value = serde_json::from_str(header)
            .map_err(|e| CacheError::Corrupt(format!("header is not JSON: {e}")))?;
        let version = v["schema_version"]
            .as_u64()
            .ok_or_else(|| CacheError::Corrupt("header lacks schema_version".into()))?;
        if version != CACHE_SCHEMA_VERSION {
            return Err(CacheError::Version(version));
        }
        let kind = v["kind"]
            .as_str()
            .ok_or_else(|| CacheError::Corrupt("header lacks kind".into()))?;
        if kind != CACHE_KIND {
            return Err(CacheError::Corrupt(format!(
                "kind {kind:?} is not {CACHE_KIND:?}"
            )));
        }
        let field = |name: &str| v[name].as_str().map(str::to_string);
        let bound = (
            field("scenario"),
            v["seed"].as_u64(),
            field("mode"),
            field("spec_digest"),
        );
        let want = &session.binding;
        if bound
            != (
                Some(want.scenario.clone()),
                Some(want.seed),
                Some(want.mode.clone()),
                Some(want.spec_digest.clone()),
            )
        {
            session.stale = Some(format!(
                "bound to scenario={:?} seed={:?} mode={:?}; this run is scenario={:?} seed={} mode={:?}",
                bound.0, bound.1, bound.2, want.scenario, want.seed, want.mode
            ));
            return Ok(session);
        }
        for (lineno, line) in lines.enumerate() {
            if line.is_empty() {
                continue;
            }
            let mut parts = line.split_ascii_whitespace();
            let row = (|| {
                let hash = u64::from_str_radix(parts.next()?, 16).ok()?;
                let remaining: u32 = parts.next()?.parse().ok()?;
                let budget: u64 = parts.next()?.parse().ok()?;
                if parts.next().is_some() {
                    return None;
                }
                Some((hash, remaining, budget))
            })();
            let Some((hash, remaining, budget)) = row else {
                return Err(CacheError::Corrupt(format!(
                    "row {} is not `<hash:016x> <remaining> <budget>`: {line:?}",
                    lineno + 2
                )));
            };
            insert_dominating(&mut session.loaded, hash, remaining, budget);
            session.loaded_rows += 1;
        }
        Ok(session)
    }

    /// Why the on-disk file was ignored, when it was binding-stale.
    pub fn stale(&self) -> Option<&str> {
        self.stale.as_deref()
    }

    /// Rows loaded (and usable) from the file.
    pub fn loaded_rows(&self) -> u64 {
        if self.stale.is_some() {
            0
        } else {
            self.loaded_rows
        }
    }

    /// True when a loaded row dominates `(hash, remaining, budget)`:
    /// the cached run already explored this subtree at least this deep
    /// with at least this delay budget. Read-only and lock-free — safe
    /// to call concurrently from exploration workers.
    pub fn probe(&self, hash: u64, remaining: u32, budget: u64) -> bool {
        self.loaded
            .get(&hash)
            .is_some_and(|rows| rows.iter().any(|&(r, b)| r >= remaining && b >= budget))
    }

    /// Records one fully-expanded subtree root from the current run.
    pub fn record(&mut self, hash: u64, remaining: u32, budget: u64) {
        self.fresh.push((hash, remaining, budget));
    }

    /// Marks the run cache-eligible: exploration drained its frontier
    /// without truncation and found no violation. `unbounded` upgrades
    /// the fresh rows to [`UNBOUNDED`] remaining-depth — the run never
    /// depth-pruned, so every recorded subtree is exhausted outright.
    pub fn mark_complete(&mut self, unbounded: bool) {
        self.complete = Some(unbounded);
    }

    /// Writes the merged table back. Without [`CacheSession::mark_complete`]
    /// this is a no-op (`Ok(0)`) and the file is left untouched. Returns
    /// the number of rows persisted.
    pub fn save(&self) -> Result<u64, CacheError> {
        let Some(unbounded) = self.complete else {
            return Ok(0);
        };
        let mut table: HashMap<u64, Vec<(u32, u64)>> = HashMap::new();
        if self.stale.is_none() {
            for (&hash, rows) in &self.loaded {
                for &(r, b) in rows {
                    insert_dominating(&mut table, hash, r, b);
                }
            }
        }
        for &(hash, remaining, budget) in &self.fresh {
            let r = if unbounded { UNBOUNDED } else { remaining };
            insert_dominating(&mut table, hash, r, budget);
        }
        let mut rows: Vec<(u64, u32, u64)> = table
            .into_iter()
            .flat_map(|(hash, rs)| rs.into_iter().map(move |(r, b)| (hash, r, b)))
            .collect();
        rows.sort_unstable();
        let mut out = self.binding.header_line();
        out.push('\n');
        for (hash, remaining, budget) in &rows {
            out.push_str(&format!("{hash:016x} {remaining} {budget}\n"));
        }
        std::fs::write(&self.path, out).map_err(|e| CacheError::Io(e.to_string()))?;
        Ok(rows.len() as u64)
    }
}

/// Inserts into a dominance antichain: drop the new row if dominated,
/// evict rows the new one dominates.
fn insert_dominating(map: &mut HashMap<u64, Vec<(u32, u64)>>, hash: u64, r: u32, b: u64) {
    let rows = map.entry(hash).or_default();
    if rows.iter().any(|&(r0, b0)| r0 >= r && b0 >= b) {
        return;
    }
    rows.retain(|&(r0, b0)| !(r >= r0 && b >= b0));
    rows.push((r, b));
}

#[cfg(test)]
mod tests {
    use super::*;
    use urb_core::Algorithm;

    fn binding() -> CacheBinding {
        let spec = ScenarioSpec::new("cache-test", 3, Algorithm::Majority);
        CacheBinding::new(&spec, Strategy::Dfs, false, 7)
    }

    fn tmp(name: &str) -> String {
        std::env::temp_dir()
            .join(format!("urb_cache_test_{}_{name}", std::process::id()))
            .to_string_lossy()
            .into_owned()
    }

    #[test]
    fn missing_file_is_a_cold_start() {
        let s = CacheSession::open(&tmp("missing.cache"), binding()).unwrap();
        assert_eq!(s.loaded_rows(), 0);
        assert!(s.stale().is_none());
        assert!(!s.probe(1, 1, 0));
    }

    #[test]
    fn roundtrip_is_deterministic_and_dominance_compacted() {
        let path = tmp("roundtrip.cache");
        let mut s = CacheSession::open(&path, binding()).unwrap();
        s.record(0xAAAA, 4, 1);
        s.record(0xAAAA, 8, 1); // dominates the row above
        s.record(0xBBBB, 2, 0);
        s.mark_complete(false);
        assert_eq!(s.save().unwrap(), 2, "dominated row compacted away");
        let bytes1 = std::fs::read(&path).unwrap();

        let warm = CacheSession::open(&path, binding()).unwrap();
        assert_eq!(warm.loaded_rows(), 2);
        assert!(warm.probe(0xAAAA, 8, 1));
        assert!(warm.probe(0xAAAA, 8, 0), "lower budget is dominated");
        assert!(!warm.probe(0xAAAA, 9, 1), "deeper probe misses");
        assert!(!warm.probe(0xCCCC, 1, 0));

        // Saving the merged (unchanged) table is byte-identical.
        let mut warm = warm;
        warm.mark_complete(false);
        warm.save().unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), bytes1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn unbounded_upgrade_dominates_every_depth() {
        let path = tmp("unbounded.cache");
        let mut s = CacheSession::open(&path, binding()).unwrap();
        s.record(0x1234, 6, 2);
        s.mark_complete(true);
        s.save().unwrap();
        let warm = CacheSession::open(&path, binding()).unwrap();
        assert!(warm.probe(0x1234, 1_000_000, 2));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn incomplete_runs_never_touch_the_file() {
        let path = tmp("incomplete.cache");
        let mut s = CacheSession::open(&path, binding()).unwrap();
        s.record(1, 1, 1);
        assert_eq!(s.save().unwrap(), 0);
        assert!(!std::path::Path::new(&path).exists());
    }

    #[test]
    fn corrupt_and_wrong_version_files_are_errors() {
        let path = tmp("corrupt.cache");
        std::fs::write(&path, "not json\n").unwrap();
        assert!(matches!(
            CacheSession::open(&path, binding()),
            Err(CacheError::Corrupt(_))
        ));
        std::fs::write(&path, "{\"schema_version\":99,\"kind\":\"check-cache\"}\n").unwrap();
        assert!(matches!(
            CacheSession::open(&path, binding()),
            Err(CacheError::Version(99))
        ));
        std::fs::write(&path, format!("{}\nzzzz nope\n", binding().header_line())).unwrap();
        assert!(matches!(
            CacheSession::open(&path, binding()),
            Err(CacheError::Corrupt(_))
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn binding_mismatch_is_stale_not_corrupt() {
        let path = tmp("stale.cache");
        let mut s = CacheSession::open(&path, binding()).unwrap();
        s.record(7, 3, 0);
        s.mark_complete(false);
        s.save().unwrap();
        // Same file, different seed: stale, zero usable rows, no error.
        let spec = ScenarioSpec::new("cache-test", 3, Algorithm::Majority);
        let other = CacheBinding::new(&spec, Strategy::Dfs, false, 8);
        let s2 = CacheSession::open(&path, other).unwrap();
        assert!(s2.stale().is_some());
        assert_eq!(s2.loaded_rows(), 0);
        assert!(!s2.probe(7, 3, 0));
        std::fs::remove_file(&path).ok();
    }
}
