//! First-party parser for the TOML subset the scenario plane uses.
//!
//! The build environment has no crates-registry access and no `toml` crate
//! is vendored (see `vendor/README.md`), so scenario files are parsed by
//! this ~300-line subset parser into the [`serde_json::Value`] model —
//! the same tree JSON scenario files parse into, so the spec decoder in
//! [`crate::spec`] is format-agnostic.
//!
//! ## Supported subset
//!
//! * `[table]` and `[table.sub]` headers, `[[array-of-tables]]` headers;
//! * `key = value` with bare (`[A-Za-z0-9_-]+`) or basic-quoted keys;
//! * values: basic strings (`"…"` with `\" \\ \n \r \t \uXXXX` escapes),
//!   integers (with optional `_` separators), floats, booleans, arrays
//!   (may span lines), inline tables `{ k = v, … }`;
//! * `#` comments and blank lines.
//!
//! Deliberately omitted (a scenario file needs none of them): dates,
//! multi-line/literal strings, dotted keys and exotic escapes. Numbers are
//! stored as `f64` (the `serde_json` shim's number model): integers are
//! exact up to 2⁵³ — comfortably covering every field of a scenario spec —
//! and an integer literal *beyond* that range is rejected rather than
//! silently rounded (a quietly-altered seed would defeat the plane's
//! replay-determinism guarantee). Duplicate keys and duplicate table
//! headers are errors, not merges. Arrays and inline tables nest at most
//! 128 deep, the JSON loader's limit too.

use serde_json::Value;
use std::collections::BTreeMap;
use std::fmt;

/// The deepest nesting of arrays and inline tables [`parse`] accepts.
const MAX_DEPTH: usize = 128;

/// A parse error with the 1-based line it occurred on.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TomlError {
    /// 1-based line number of the offending input.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for TomlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TOML error on line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for TomlError {}

/// Parses a complete TOML document (the subset above) into a
/// [`Value::Object`] tree.
pub fn parse(input: &str) -> Result<Value, TomlError> {
    let mut p = Parser {
        src: input,
        bytes: input.as_bytes(),
        pos: 0,
        line: 1,
        depth: 0,
    };
    let mut root = BTreeMap::new();
    // Path of the table subsequent `key = value` lines land in.
    let mut current: Vec<String> = Vec::new();
    // Canonical ids of every explicitly opened `[table]`, so a repeated
    // header fails loudly instead of silently merging (real-TOML
    // redefinition semantics; the ids resolve array-of-tables segments
    // to their element index, so `[x.sub]` under a *new* `[[x]]` element
    // is a fresh table, not a duplicate).
    let mut opened = std::collections::BTreeSet::new();
    loop {
        p.skip_trivia();
        match p.peek() {
            None => break,
            Some(b'[') => {
                p.advance();
                let array_of_tables = p.peek() == Some(b'[');
                if array_of_tables {
                    p.advance();
                }
                let path = p.parse_key_path()?;
                p.expect(b']')?;
                if array_of_tables {
                    p.expect(b']')?;
                }
                p.expect_line_end()?;
                if array_of_tables {
                    let (parent, leaf) = path.split_at(path.len() - 1);
                    let table = navigate(&mut root, parent).map_err(|m| p.err_at(&m))?;
                    let entry = table
                        .entry(leaf[0].clone())
                        .or_insert_with(|| Value::Array(Vec::new()));
                    match entry {
                        Value::Array(v) => v.push(Value::Object(BTreeMap::new())),
                        _ => return Err(p.err_at(&format!("`{}` is not an array", leaf[0]))),
                    }
                } else {
                    let id = open_table(&mut root, &path).map_err(|m| p.err_at(&m))?;
                    if !opened.insert(id) {
                        return Err(p.err_at(&format!("table `{}` defined twice", path.join("."))));
                    }
                }
                current = path;
            }
            Some(_) => {
                let key = p.parse_key()?;
                p.skip_spaces();
                p.expect(b'=')?;
                p.skip_spaces();
                let value = p.parse_value()?;
                p.expect_line_end()?;
                let table = navigate(&mut root, &current).map_err(|m| p.err_at(&m))?;
                if table.insert(key.clone(), value).is_some() {
                    return Err(p.err_at(&format!("duplicate key `{key}`")));
                }
            }
        }
    }
    Ok(Value::Object(root))
}

/// Walks `path` down from `root`, creating empty tables as needed, and
/// returns the map `key = value` pairs should be inserted into. A path
/// segment holding an array of tables resolves to the array's *last*
/// element (TOML's `[[x]]` … `[x.sub]` semantics).
fn navigate<'a>(
    root: &'a mut BTreeMap<String, Value>,
    path: &[String],
) -> Result<&'a mut BTreeMap<String, Value>, String> {
    let mut table = root;
    for seg in path {
        let entry = table
            .entry(seg.clone())
            .or_insert_with(|| Value::Object(BTreeMap::new()));
        let slot = match entry {
            Value::Array(v) => v
                .last_mut()
                .ok_or_else(|| format!("`{seg}` is an empty array"))?,
            other => other,
        };
        table = match slot {
            Value::Object(map) => map,
            _ => return Err(format!("`{seg}` is not a table")),
        };
    }
    Ok(table)
}

/// [`navigate`] for an explicit `[table]` header: additionally rejects a
/// header naming an array of tables (`[x]` after `[[x]]` — use `[[x]]`),
/// and returns the path's canonical id with array segments resolved to
/// their current element index (the duplicate-header unit of account).
fn open_table(root: &mut BTreeMap<String, Value>, path: &[String]) -> Result<String, String> {
    use std::fmt::Write as _;
    let mut table = root;
    let mut id = String::new();
    for (i, seg) in path.iter().enumerate() {
        let last = i == path.len() - 1;
        let entry = table
            .entry(seg.clone())
            .or_insert_with(|| Value::Object(BTreeMap::new()));
        if !id.is_empty() {
            id.push('.');
        }
        id.push_str(seg);
        let slot = match entry {
            Value::Array(v) => {
                if last {
                    return Err(format!("`{seg}` is an array of tables; use [[{seg}]]"));
                }
                let _ = write!(id, "[{}]", v.len().saturating_sub(1));
                v.last_mut()
                    .ok_or_else(|| format!("`{seg}` is an empty array"))?
            }
            other => other,
        };
        table = match slot {
            Value::Object(map) => map,
            _ => return Err(format!("`{seg}` is not a table")),
        };
    }
    Ok(id)
}

struct Parser<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    line: usize,
    /// Arrays and inline tables currently open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err_at(&self, msg: &str) -> TomlError {
        TomlError {
            line: self.line,
            message: msg.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn advance(&mut self) {
        if self.peek() == Some(b'\n') {
            self.line += 1;
        }
        self.pos += 1;
    }

    /// Skips spaces and tabs on the current line.
    fn skip_spaces(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t')) {
            self.pos += 1;
        }
    }

    /// Skips whitespace (including newlines), and `#` comments.
    fn skip_trivia(&mut self) {
        loop {
            match self.peek() {
                Some(b' ' | b'\t' | b'\r' | b'\n') => self.advance(),
                Some(b'#') => {
                    while !matches!(self.peek(), None | Some(b'\n')) {
                        self.pos += 1;
                    }
                }
                _ => return,
            }
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), TomlError> {
        if self.peek() == Some(b) {
            self.advance();
            Ok(())
        } else {
            Err(self.err_at(&format!("expected `{}`", b as char)))
        }
    }

    /// Consumes trailing spaces, an optional comment, and the end of the
    /// line (newline or end of input).
    fn expect_line_end(&mut self) -> Result<(), TomlError> {
        self.skip_spaces();
        if self.peek() == Some(b'#') {
            while !matches!(self.peek(), None | Some(b'\n')) {
                self.pos += 1;
            }
        }
        match self.peek() {
            None => Ok(()),
            Some(b'\n') => {
                self.advance();
                Ok(())
            }
            Some(b'\r') => {
                self.advance();
                self.expect(b'\n')
            }
            Some(c) => Err(self.err_at(&format!("unexpected `{}` after value", c as char))),
        }
    }

    fn parse_key(&mut self) -> Result<String, TomlError> {
        if self.peek() == Some(b'"') {
            return self.parse_string();
        }
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'_' | b'-')
        ) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.err_at("expected a key"));
        }
        Ok(String::from_utf8_lossy(&self.bytes[start..self.pos]).into_owned())
    }

    /// `a.b.c` inside a `[...]` header.
    fn parse_key_path(&mut self) -> Result<Vec<String>, TomlError> {
        let mut path = Vec::new();
        loop {
            self.skip_spaces();
            path.push(self.parse_key()?);
            self.skip_spaces();
            if self.peek() == Some(b'.') {
                self.advance();
            } else {
                return Ok(path);
            }
        }
    }

    fn parse_value(&mut self) -> Result<Value, TomlError> {
        match self.peek() {
            Some(b'"') => Ok(Value::String(self.parse_string()?)),
            Some(b'[') => self.nested(Self::parse_array),
            Some(b'{') => self.nested(Self::parse_inline_table),
            Some(b't') => self.parse_literal("true", Value::Bool(true)),
            Some(b'f') => self.parse_literal("false", Value::Bool(false)),
            Some(b'-' | b'+' | b'0'..=b'9') => self.parse_number(),
            _ => Err(self.err_at("expected a value")),
        }
    }

    /// Runs `parse` one nesting level deeper, refusing past [`MAX_DEPTH`].
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Value, TomlError>,
    ) -> Result<Value, TomlError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err_at(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn parse_literal(&mut self, lit: &str, value: Value) -> Result<Value, TomlError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err_at(&format!("expected `{lit}`")))
        }
    }

    fn parse_string(&mut self) -> Result<String, TomlError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None | Some(b'\n') => return Err(self.err_at("unterminated string")),
                Some(b'"') => {
                    self.advance();
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.advance();
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            if self.pos + 5 > self.bytes.len() {
                                return Err(self.err_at("truncated \\u escape"));
                            }
                            let hex = &self.bytes[self.pos + 1..self.pos + 5];
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| self.err_at("bad \\u escape"))?;
                            let cp = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err_at("bad \\u escape"))?;
                            out.push(char::from_u32(cp).unwrap_or('\u{FFFD}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err_at("unsupported escape")),
                    }
                    self.advance();
                }
                Some(_) => {
                    // Copy the run up to the next quote, backslash or
                    // newline: all ASCII, so the run ends on a char boundary.
                    let start = self.pos;
                    while !matches!(self.peek(), None | Some(b'"' | b'\\' | b'\n')) {
                        self.pos += 1;
                    }
                    out.push_str(&self.src[start..self.pos]);
                }
            }
        }
    }

    fn parse_array(&mut self) -> Result<Value, TomlError> {
        self.expect(b'[')?;
        let mut out = Vec::new();
        loop {
            self.skip_trivia();
            if self.peek() == Some(b']') {
                self.advance();
                return Ok(Value::Array(out));
            }
            out.push(self.parse_value()?);
            self.skip_trivia();
            match self.peek() {
                Some(b',') => self.advance(),
                Some(b']') => {
                    self.advance();
                    return Ok(Value::Array(out));
                }
                _ => return Err(self.err_at("expected `,` or `]` in array")),
            }
        }
    }

    fn parse_inline_table(&mut self) -> Result<Value, TomlError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_spaces();
        if self.peek() == Some(b'}') {
            self.advance();
            return Ok(Value::Object(map));
        }
        loop {
            self.skip_spaces();
            let key = self.parse_key()?;
            self.skip_spaces();
            self.expect(b'=')?;
            self.skip_spaces();
            let value = self.parse_value()?;
            if map.insert(key.clone(), value).is_some() {
                return Err(self.err_at(&format!("duplicate key `{key}`")));
            }
            self.skip_spaces();
            match self.peek() {
                Some(b',') => self.advance(),
                Some(b'}') => {
                    self.advance();
                    return Ok(Value::Object(map));
                }
                _ => return Err(self.err_at("expected `,` or `}` in inline table")),
            }
        }
    }

    fn parse_number(&mut self) -> Result<Value, TomlError> {
        let start = self.pos;
        let mut integral = true;
        if matches!(self.peek(), Some(b'-' | b'+')) {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9' | b'_')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            integral = false;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9' | b'_')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integral = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text: String = self.src[start..self.pos]
            .chars()
            .filter(|&c| c != '_')
            .collect();
        // The Value model stores numbers as f64 (exact up to 2⁵³). A
        // larger integer literal would be *silently rounded* — fatal for
        // a seed in a determinism-centric format — so reject it instead.
        if integral {
            let exact: i128 = text.parse().map_err(|_| self.err_at("malformed number"))?;
            if exact.unsigned_abs() > 1u128 << 53 {
                return Err(self.err_at(&format!(
                    "integer {text} cannot be represented exactly (|value| > 2^53)"
                )));
            }
        }
        text.parse::<f64>()
            .map(Value::Number)
            .map_err(|_| self.err_at("malformed number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_tables_and_scalars() {
        let v = parse(
            "name = \"demo\"\nseed = 42\nratio = 0.25\nflag = true\n\n\
             [system]\nn = 8\n# comment\nhorizon = 60_000\n",
        )
        .unwrap();
        assert_eq!(v["name"], "demo");
        assert_eq!(v["seed"], 42u64);
        assert_eq!(v["ratio"].as_f64(), Some(0.25));
        assert_eq!(v["flag"], true);
        assert_eq!(v["system"]["n"], 8u64);
        assert_eq!(v["system"]["horizon"], 60_000u64);
    }

    #[test]
    fn parses_array_of_tables_and_subtables() {
        let v = parse(
            "[[crash]]\npid = 1\nat = 50\n\n[[crash]]\npid = 2\nat = 70\n\n\
             [workload]\ncount = 3\n",
        )
        .unwrap();
        let crashes = v["crash"].as_array().unwrap();
        assert_eq!(crashes.len(), 2);
        assert_eq!(crashes[1]["pid"], 2u64);
        assert_eq!(v["workload"]["count"], 3u64);
    }

    #[test]
    fn parses_inline_tables_and_multiline_arrays() {
        let v = parse(
            "loss = { model = \"bernoulli\", p = 0.3 }\n\
             groups = [\n  [0, 1],\n  [2, 3], # trailing comment ok\n]\n",
        )
        .unwrap();
        assert_eq!(v["loss"]["model"], "bernoulli");
        assert_eq!(v["loss"]["p"].as_f64(), Some(0.3));
        assert_eq!(v["groups"][1][0], 2u64);
    }

    #[test]
    fn parses_string_escapes() {
        let v = parse("s = \"a\\\"b\\n\\u00e9\"\n").unwrap();
        assert_eq!(v["s"], "a\"b\né");
    }

    #[test]
    fn dotted_header_nests() {
        let v = parse("[a.b]\nx = 1\n").unwrap();
        assert_eq!(v["a"]["b"]["x"], 1u64);
    }

    #[test]
    fn header_into_array_of_tables_targets_last_element() {
        let v = parse("[[s]]\nk = 1\n[s.sub]\nx = 2\n[[s]]\nk = 3\n").unwrap();
        let arr = v["s"].as_array().unwrap();
        assert_eq!(arr[0]["sub"]["x"], 2u64);
        assert_eq!(arr[1]["k"], 3u64);
    }

    #[test]
    fn rejects_inexact_integers_but_keeps_the_boundary() {
        // 2^53 is the last exactly-representable integer; one past it
        // would silently round, so it must be refused.
        assert_eq!(
            parse("k = 9007199254740992\n").unwrap()["k"],
            9007199254740992u64
        );
        let err = parse("k = 9007199254740993\n").unwrap_err();
        assert!(err.message.contains("2^53"), "{err}");
        assert!(parse("k = -9007199254740993\n").is_err());
        // Float syntax is still allowed to be approximate.
        assert!(parse("k = 1.0e300\n").is_ok());
    }

    #[test]
    fn rejects_duplicate_table_headers() {
        let err = parse("[expect]\na = 1\n[expect]\nb = 2\n").unwrap_err();
        assert!(err.message.contains("defined twice"), "{err}");
        assert!(parse("[a.b]\nx = 1\n[a.b]\ny = 2\n").is_err());
        // A sub-table per array-of-tables element is fine; the *same*
        // element's sub-table twice is not.
        assert!(parse("[[s]]\n[s.sub]\nx = 1\n[[s]]\n[s.sub]\nx = 2\n").is_ok());
        assert!(parse("[[s]]\n[s.sub]\nx = 1\n[s.sub]\ny = 2\n").is_err());
        // Reopening an array of tables with a plain header is an error.
        let err = parse("[[s]]\nk = 1\n[s]\nk = 2\n").unwrap_err();
        assert!(err.message.contains("use [[s]]"), "{err}");
    }

    #[test]
    fn rejects_garbage() {
        for bad in [
            "key",
            "key =",
            "k = \"unterminated",
            "k = 1 extra",
            "[unclosed\n",
            "k = [1,,2]",
            "k = 1\nk = 2\n",
            "k = {a = 1",
        ] {
            assert!(parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let at_limit = format!("k = {}{}\n", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&at_limit).is_ok());
        let past = format!(
            "k = {}{}\n",
            "[".repeat(MAX_DEPTH + 1),
            "]".repeat(MAX_DEPTH + 1)
        );
        let err = parse(&past).unwrap_err();
        assert!(err.message.contains("nesting"), "{err}");
        assert!(parse(&format!("k = {}", "[".repeat(200_000))).is_err());
        assert!(parse(&format!("k = {}", "{a = ".repeat(200_000))).is_err());
        assert!(parse(&"[".repeat(200_000)).is_err());
    }

    #[test]
    fn multi_mebibyte_documents_parse_in_linear_time() {
        // Many short strings, and one long one with multi-byte characters:
        // both took minutes when each character re-validated the rest of
        // the input.
        let items = vec![r#""ab\u00e9\n""#; 200_000].join(",\n");
        let doc = format!("short = [{items}]\nlong = \"{}\"\n", "é".repeat(1 << 20));
        assert!(doc.len() > 4 << 20);
        let v = parse(&doc).unwrap();
        assert_eq!(v["short"].as_array().unwrap().len(), 200_000);
        assert_eq!(v["short"][7], "abé\n");
        assert_eq!(v["long"].as_str().unwrap().chars().count(), 1 << 20);
    }

    #[test]
    fn error_carries_line_number() {
        let err = parse("ok = 1\nbroken =\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.to_string().contains("line 2"));
    }
}
