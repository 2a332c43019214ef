//! The scenario-file schema (DESIGN.md §9): every key of every table,
//! declared once, and the one decoder and writer that read it.
//!
//! A table is a list of rows over the Rust value it fills. A row gives its
//! key's name, when the key may be absent ([`Need`]), its integer range,
//! its doc line and a lens to the field the key sets; the field's Rust
//! type is the key's type, and [`Field`] says how that type reads from
//! the shared [`Value`] tree and writes back as canonical TOML. A table's
//! defaults are its *base* value: decoding starts from it, and an
//! [`Need::Implicit`] key is written only where it differs from it.
//!
//! Rules that tie several keys together stay code: the flat crash,
//! lifecycle-event and workload rows are built into their public types
//! here, and [`super::ScenarioSpec::compile`] checks the rest.

use super::*;
use std::fmt::Display;
use std::mem::discriminant;

type Map = BTreeMap<String, Value>;

/// `[path, default, range, doc line]` of each documented key.
#[cfg(test)]
type Docs = Vec<[String; 4]>;

/// When a key may be absent, and when `to_toml` writes it.
#[derive(Clone, Copy, PartialEq)]
enum Need {
    /// Must be present ("missing required key"); always written.
    Required,
    /// Must be present ("{label} needs `key`"); always written.
    Needs(&'static str),
    /// Absent keeps the base value; always written.
    Defaulted,
    /// Absent keeps the base value; written only where it differs.
    Implicit,
}
use Need::*;

/// One key of a table over `T`; `at` is the field it fills, of type `F`.
struct Key<T: 'static, F: 'static> {
    name: &'static str,
    need: Need,
    at: fn(&mut T) -> &mut F,
    #[cfg_attr(not(test), allow(dead_code))] // DESIGN.md §9 lists it; a test checks
    doc: &'static str,
    /// Range: zero is an error ("must be positive").
    positive: bool,
    /// Range: the largest integer accepted.
    max: u64,
    /// Type errors name the dotted path, not the bare key.
    dotted: bool,
    /// Write order among the table's keys (ties keep table order). The
    /// ranks keep `to_toml`'s text, and so `urb check`'s cache digests,
    /// as they were before the schema existed.
    rank: u8,
}

#[rustfmt::skip]
const fn key<T, F>(name: &'static str, need: Need, at: fn(&mut T) -> &mut F, doc: &'static str) -> Key<T, F> {
    Key { name, need, at, doc, positive: false, max: u64::MAX, dotted: false, rank: 0 }
}

#[rustfmt::skip]
impl<T, F> Key<T, F> {
    fn locate<'a>(&self, what: &'a str) -> At<'a> {
        At { what, name: self.name, dotted: self.dotted, positive: self.positive, max: self.max }
    }
    const fn positive(self) -> Self { Key { positive: true, ..self } }
    const fn max(self, max: u64) -> Self { Key { max, ..self } }
    const fn dotted(self) -> Self { Key { dotted: true, ..self } }
    const fn rank(self, rank: u8) -> Self { Key { rank, ..self } }
}

/// A lens to a struct field, for a table's rows: `f!(seed)`.
macro_rules! f {
    ($field:ident) => {
        |s: &mut Self| &mut s.$field
    };
}

/// A lens into one enum variant, for that variant's rows:
/// `at!(E::V { field })`, `at!(E::V.field)` (tuple variant holding a
/// struct) or `at!(E::V)` (tuple variant holding the value).
macro_rules! at {
    ($e:ident :: $v:ident $($rest:tt)*) => {
        |x: &mut $e| match x {
            at!(@pat $e $v x $($rest)*) => at!(@get x $($rest)*),
            _ => unreachable!("a variant's rows only see that variant"),
        }
    };
    (@pat $e:ident $v:ident $x:ident { $f:ident }) => { $e::$v { $f: $x, .. } };
    (@pat $e:ident $v:ident $x:ident . $f:ident) => { $e::$v($x) };
    (@pat $e:ident $v:ident $x:ident) => { $e::$v($x) };
    (@get $x:ident { $f:ident }) => { $x };
    (@get $x:ident . $f:ident) => { &mut $x.$f };
    (@get $x:ident) => { $x };
}

/// A key's path in messages and DESIGN.md: bare at the top level, else
/// under its table's name.
fn path_of(what: &str, name: &str) -> String {
    join(if what == ScenarioSpec::WHAT { "" } else { what }, name)
}

/// A key being read: where it sits, for messages, and its range.
struct At<'a> {
    what: &'a str,
    name: &'static str,
    dotted: bool,
    positive: bool,
    max: u64,
}

impl At<'_> {
    fn path(&self) -> String {
        path_of(self.what, self.name)
    }

    fn label(&self) -> String {
        if self.dotted {
            self.path()
        } else {
            self.name.to_string()
        }
    }

    fn wrong(&self, ty: &str) -> SpecError {
        SpecError::new(format!("{} must be {ty}", self.label()))
    }

    fn int(&self, v: &Value) -> Result<u64, SpecError> {
        v.as_u64()
            .ok_or_else(|| self.wrong("a non-negative integer"))
    }

    fn str<'v>(&self, v: &'v Value) -> Result<&'v str, SpecError> {
        v.as_str().ok_or_else(|| self.wrong("a string"))
    }

    fn range(&self, x: u64) -> Result<u64, SpecError> {
        let path = self.path();
        if self.positive && x == 0 {
            return fail(format!("{path} must be positive"));
        }
        if x > self.max {
            let max = self.max;
            return fail(format!("{path} = {x} exceeds the maximum {max}"));
        }
        Ok(x)
    }

    /// An integer for a `u32` field: past `u32::MAX` is an error naming
    /// the key, never the value it would wrap to.
    fn u32(&self, v: &Value) -> Result<u32, SpecError> {
        let x = self.int(v)?;
        let x = u32::try_from(x).map_err(|_| {
            let (path, max) = (self.path(), u32::MAX);
            SpecError::new(format!("{path} = {x} does not fit a u32 (max {max})"))
        })?;
        self.range(x.into())?;
        Ok(x)
    }
}

/// Canonical TOML being written: one table's `key = value` lines, then
/// its sub-tables.
#[derive(Default)]
struct Toml {
    lines: Vec<String>,
    sections: String,
}

impl Toml {
    fn line(&mut self, name: &str, value: impl Display) {
        self.lines.push(format!("{name} = {value}"));
    }

    fn text(self) -> String {
        let mut s: String = self.lines.iter().map(|l| format!("{l}\n")).collect();
        s.push_str(&self.sections);
        s
    }

    fn inline(self) -> String {
        format!("{{ {} }}", self.lines.join(", "))
    }

    /// Appends this table to `out` under `header`. A table with no keys
    /// of its own (the explicit workload form) gets no header line.
    fn section(self, header: String, out: &mut Toml) {
        if !self.lines.is_empty() {
            out.sections.push_str(&format!("\n{header}\n"));
        }
        out.sections.push_str(&self.text());
    }
}

fn fail<T>(message: impl Into<String>) -> Result<T, SpecError> {
    Err(SpecError::new(message))
}

fn join(path: &str, name: &str) -> String {
    if path.is_empty() {
        name.to_string()
    } else {
        format!("{path}.{name}")
    }
}

fn toml_str(s: &str) -> String {
    format!("\"{}\"", serde_json::escape(s))
}

fn as_table<'a>(v: &'a Value, what: &str) -> Result<&'a Map, SpecError> {
    match v {
        Value::Object(map) => Ok(map),
        _ => fail(format!("{what} must be a table")),
    }
}

fn as_array<'a>(v: &'a Value, what: &str) -> Result<&'a Vec<Value>, SpecError> {
    v.as_array()
        .ok_or_else(|| SpecError::new(format!("{what} must be an array")))
}

fn list(items: impl Iterator<Item = String>) -> String {
    format!("[{}]", items.collect::<Vec<_>>().join(", "))
}

// ------------------------------------------------------------------
// Field types: how each Rust type reads and writes.

/// A Rust type a key's value can fill.
trait Field: Clone + PartialEq + 'static {
    fn read(v: &Value, at: &At) -> Result<Self, SpecError>;
    /// Writes `name = value` into `out`, or the value's own sections at
    /// `path`.
    fn write(&self, name: &'static str, path: &str, out: &mut Toml);
    /// Adds the keys of the tables this type is read from.
    #[cfg(test)]
    fn docs(_out: &mut Docs) {}
}

/// A `Field` written as one `name = value` line: `read` and `text` are
/// the bodies of [`Field::read`] and of the value's text.
macro_rules! scalar {
    ($($t:ty: |$v:ident, $at:ident| $read:expr, |$x:ident| $text:expr;)*) => {$(
        impl Field for $t {
            fn read($v: &Value, $at: &At) -> Result<Self, SpecError> {
                $read
            }
            fn write(&self, name: &'static str, _: &str, out: &mut Toml) {
                let $x = self;
                out.line(name, $text);
            }
        }
    )*};
}

#[rustfmt::skip]
scalar! {
    u64: |v, at| at.range(at.int(v)?), |x| x;
    usize: |v, at| Ok(at.range(at.int(v)?)? as usize), |x| x;
    u32: |v, at| at.u32(v), |x| x;
    TopicId: |v, at| at.u32(v).map(TopicId), |x| x.0;
    f64: |v, at| v.as_f64().ok_or_else(|| at.wrong("a number")), |x| format!("{x:?}");
    bool: |v, at| v.as_bool().ok_or_else(|| at.wrong("a boolean")), |x| x;
    String: |v, at| at.str(v).map(str::to_string), |x| toml_str(x);
    Algorithm: |v, at| parse_algorithm(at.str(v)?), |x| toml_str(&format_algorithm(*x));
    StopRule: |v, at| keyword(v, at), |x| toml_str(name_of(*x));
    Strategy: |v, at| keyword(v, at), |x| toml_str(name_of(*x));
    SpillPolicy: |v, at| keyword(v, at), |x| toml_str(name_of(*x));
    // A list of process ids.
    Vec<usize>: |v, at| as_array(v, &at.label())?.iter().map(|p| Ok(at.int(p)? as usize)).collect(),
        |x| list(x.iter().map(usize::to_string));
    // A list of directed links `[from, to]`.
    Vec<(usize, usize)>: |v, at| as_array(v, &at.label())?.iter().map(|pair| link(pair, &at.label())).collect(),
        |x| list(x.iter().map(|(f, t)| format!("[{f}, {t}]")));
}

fn link(pair: &Value, label: &str) -> Result<(usize, usize), SpecError> {
    let end = |v: &Value, end: &str| {
        let wrong = || SpecError::new(format!("{label}.{end} must be a non-negative integer"));
        Ok::<_, SpecError>(v.as_u64().ok_or_else(wrong)? as usize)
    };
    match as_array(pair, &format!("{label} entry"))?.as_slice() {
        [from, to] => Ok((end(from, "from")?, end(to, "to")?)),
        _ => fail(format!("each {label} entry must be [from, to]")),
    }
}

/// An optional key: absent is `None`, and `None` is never written.
impl<F: Field> Field for Option<F> {
    fn read(v: &Value, at: &At) -> Result<Self, SpecError> {
        F::read(v, at).map(Some)
    }
    fn write(&self, name: &'static str, path: &str, out: &mut Toml) {
        if let Some(x) = self {
            x.write(name, path, out);
        }
    }
    #[cfg(test)]
    fn docs(out: &mut Docs) {
        F::docs(out);
    }
}

/// A key whose value is one of a fixed set of names.
pub(super) trait Keyword: Copy + PartialEq + 'static {
    /// What a value is called in "unknown …" errors.
    const NOUN: &'static str;
    /// Every value with its name, in the order errors list them.
    const NAMES: &'static [(Self, &'static str)];
}

pub(super) fn name_of<K: Keyword>(k: K) -> &'static str {
    let named = K::NAMES.iter().find(|(v, _)| *v == k);
    named.expect("every keyword value is named").1
}

pub(super) fn lookup<K: Keyword>(s: &str) -> Option<K> {
    K::NAMES
        .iter()
        .find(|(_, name)| *name == s)
        .map(|(v, _)| *v)
}

pub(super) fn names<K: Keyword>() -> String {
    let names: Vec<&str> = K::NAMES.iter().map(|(_, name)| *name).collect();
    names.join(" | ")
}

fn keyword<K: Keyword>(v: &Value, at: &At) -> Result<K, SpecError> {
    let s = at.str(v)?;
    lookup(s).ok_or_else(|| SpecError::new(format!("unknown {} {s:?} ({})", K::NOUN, names::<K>())))
}

#[rustfmt::skip]
impl Keyword for StopRule {
    const NOUN: &'static str = "stop rule";
    const NAMES: &'static [(Self, &'static str)] = &[
        (StopRule::Quiescence, "quiescence"), (StopRule::FullDelivery, "full-delivery"),
        (StopRule::Horizon, "horizon"),
    ];
}

#[rustfmt::skip]
impl Keyword for Strategy {
    const NOUN: &'static str = "check strategy";
    const NAMES: &'static [(Self, &'static str)] =
        &[(Strategy::Dfs, "dfs"), (Strategy::DporLite, "dpor-lite"), (Strategy::Random, "random")];
}

#[rustfmt::skip]
impl Keyword for Algorithm {
    const NOUN: &'static str = "algorithm";
    const NAMES: &'static [(Self, &'static str)] = &[
        (Algorithm::Majority, "majority"), (Algorithm::Quiescent, "quiescent"),
        (Algorithm::QuiescentLiteral, "quiescent-literal"), (Algorithm::BestEffort, "best-effort"),
        (Algorithm::EagerRb, "eager-rb"),
    ];
}

#[rustfmt::skip]
impl Keyword for SpillPolicy {
    const NOUN: &'static str = "memory spill policy";
    const NAMES: &'static [(Self, &'static str)] =
        &[(SpillPolicy::StableOnly, "stable-only"), (SpillPolicy::Tombstones, "tombstones")];
}

// ------------------------------------------------------------------
// Tables.

/// One row of a table over `T`: a [`Key`], or a [`Nested`] sub-table.
trait Row<T> {
    fn name(&self) -> &'static str;
    fn rank(&self) -> u8;
    fn read(&self, t: &mut T, map: &Map, what: &'static str) -> Result<(), SpecError>;
    /// True when `t` holds the base value here.
    fn same(&self, t: &mut T, base: &mut T) -> bool;
    fn write(&self, t: &mut T, base: &mut T, path: &str, out: &mut Toml);
    #[cfg(test)]
    fn docs(&self, base: &mut T, what: &str, out: &mut Docs);
}

type Rows<T> = &'static [&'static dyn Row<T>];

#[cfg(test)]
fn document(out: &mut Docs, row: [String; 4]) {
    if !out.iter().any(|r| r[0] == row[0]) {
        out.push(row);
    }
}

impl<T, F: Field> Row<T> for Key<T, F> {
    fn name(&self) -> &'static str {
        self.name
    }
    fn rank(&self) -> u8 {
        self.rank
    }
    fn read(&self, t: &mut T, map: &Map, what: &'static str) -> Result<(), SpecError> {
        let name = self.name;
        match (map.get(name), self.need) {
            (Some(v), _) => *(self.at)(t) = F::read(v, &self.locate(what))?,
            (None, Required) => return fail(format!("missing required key `{name}`")),
            (None, Needs(label)) => return fail(format!("{label} needs `{name}`")),
            (None, Defaulted | Implicit) => {}
        }
        Ok(())
    }
    fn same(&self, t: &mut T, base: &mut T) -> bool {
        (self.at)(t) == (self.at)(base)
    }
    fn write(&self, t: &mut T, base: &mut T, path: &str, out: &mut Toml) {
        if self.need != Implicit || !self.same(t, base) {
            (self.at)(t).write(self.name, &join(path, self.name), out);
        }
    }
    #[cfg(test)]
    fn docs(&self, base: &mut T, what: &str, out: &mut Docs) {
        let default = match self.need {
            Required | Needs(_) => "required".to_string(),
            Defaulted | Implicit => {
                let mut t = Toml::default();
                (self.at)(base).write(self.name, "", &mut t);
                let value = t.lines.first().map(|l| &l[self.name.len() + 3..]);
                value.unwrap_or_default().replace('|', "\\|")
            }
        };
        let range = match (self.positive, self.max) {
            (true, u64::MAX) => "≥ 1".to_string(),
            (false, u64::MAX) => String::new(),
            (true, max) => format!("1 – {max}"),
            (false, max) => format!("≤ {max}"),
        };
        let path = path_of(what, self.name);
        document(out, [path, default, range, self.doc.replace('|', "\\|")]);
        F::docs(out);
    }
}

/// A sub-table whose keys fill fields of the enclosing value itself
/// (`[topics]`); written when any of its keys differs from the base.
struct Nested<T: 'static> {
    name: &'static str,
    #[cfg_attr(not(test), allow(dead_code))] // DESIGN.md §9 lists it; a test checks
    doc: &'static str,
    rank: u8,
    rows: Rows<T>,
}

impl<T> Row<T> for Nested<T> {
    fn name(&self) -> &'static str {
        self.name
    }
    fn rank(&self) -> u8 {
        self.rank
    }
    fn read(&self, t: &mut T, map: &Map, _: &'static str) -> Result<(), SpecError> {
        match map.get(self.name) {
            Some(v) => read_rows(t, as_table(v, self.name)?, self.name, None, self.rows),
            None => Ok(()),
        }
    }
    fn same(&self, t: &mut T, base: &mut T) -> bool {
        self.rows.iter().all(|r| r.same(t, base))
    }
    fn write(&self, t: &mut T, base: &mut T, path: &str, out: &mut Toml) {
        if !self.same(t, base) {
            let path = join(path, self.name);
            let mut sub = Toml::default();
            write_rows(t, base, self.rows, &path, &mut sub);
            sub.section(format!("[{path}]"), out);
        }
    }
    #[cfg(test)]
    fn docs(&self, base: &mut T, _: &str, out: &mut Docs) {
        let row = [self.name, "", "", self.doc].map(str::to_string);
        document(out, row);
        self.rows.iter().for_each(|r| r.docs(base, self.name, out));
    }
}

/// Rejects keys `rows` do not declare (listing the allowed ones in table
/// order, after the variant `tag` if any), then reads every row.
fn read_rows<T>(
    t: &mut T,
    map: &Map,
    what: &'static str,
    tag: Option<&'static str>,
    rows: Rows<T>,
) -> Result<(), SpecError> {
    let allowed: Vec<&str> = tag
        .into_iter()
        .chain(rows.iter().map(|r| r.name()))
        .collect();
    if let Some(k) = map.keys().find(|k| !allowed.contains(&k.as_str())) {
        let allowed = allowed.join(", ");
        return fail(format!("unknown key `{k}` in {what} (allowed: {allowed})"));
    }
    rows.iter().try_for_each(|r| r.read(t, map, what))
}

fn write_rows<T>(t: &mut T, base: &mut T, rows: Rows<T>, path: &str, out: &mut Toml) {
    let mut rows: Vec<_> = rows.iter().collect();
    rows.sort_by_key(|r| r.rank());
    rows.into_iter().for_each(|r| r.write(t, base, path, out));
}

/// One variant of a tagged table: its tag value, defaults and keys.
struct Variant<T: 'static> {
    name: &'static str,
    base: fn() -> T,
    rows: Rows<T>,
}

/// The keys of a table over `T`.
enum Form<T: 'static> {
    /// One fixed set of keys; absent ones keep the base value's.
    Keys(fn() -> T, Rows<T>),
    /// A tag key (`kind = "churn"`) names the variant whose keys follow.
    Tagged(&'static str, &'static [Variant<T>]),
}

impl<T: Clone> Form<T> {
    fn variant<'v>(variants: &'v [Variant<T>], t: &T) -> &'v Variant<T> {
        let same_kind = |v: &&Variant<T>| discriminant(&(v.base)()) == discriminant(t);
        variants
            .iter()
            .find(same_kind)
            .expect("every variant is declared")
    }

    fn decode(&self, map: &Map, what: &'static str) -> Result<T, SpecError> {
        let (tag, base, rows) = match self {
            Form::Keys(base, rows) => (None, *base, *rows),
            Form::Tagged(tag, variants) => {
                let name = match map.get(*tag) {
                    Some(v) => v
                        .as_str()
                        .ok_or_else(|| SpecError::new(format!("{tag} must be a string")))?,
                    None => return fail(format!("missing required key `{tag}`")),
                };
                let Some(v) = variants.iter().find(|v| v.name == name) else {
                    let names: Vec<&str> = variants.iter().map(|v| v.name).collect();
                    let names = names.join(" | ");
                    return fail(format!("unknown {what} {tag} {name:?} ({names})"));
                };
                (Some(*tag), v.base, v.rows)
            }
        };
        let mut t = base();
        read_rows(&mut t, map, what, tag, rows)?;
        Ok(t)
    }

    fn encode(&self, t: &T, path: &str, out: &mut Toml) {
        let (base, rows) = match self {
            Form::Keys(base, rows) => (*base, *rows),
            Form::Tagged(tag, variants) => {
                let v = Self::variant(variants, t);
                out.line(tag, toml_str(v.name));
                (v.base, v.rows)
            }
        };
        write_rows(&mut t.clone(), &mut base(), rows, path, out);
    }

    #[cfg(test)]
    fn docs(&self, what: &str, out: &mut Docs) {
        match self {
            Form::Keys(base, rows) => rows.iter().for_each(|r| r.docs(&mut base(), what, out)),
            Form::Tagged(tag, variants) => {
                let names: Vec<String> = variants.iter().map(|v| format!("`{}`", v.name)).collect();
                let doc = format!("the variant: {}", names.join(" \\| "));
                let row = [
                    format!("{what}.{tag}"),
                    "required".into(),
                    String::new(),
                    doc,
                ];
                document(out, row);
                for v in *variants {
                    let what = format!("{what}.{}", v.name);
                    v.rows
                        .iter()
                        .for_each(|r| r.docs(&mut (v.base)(), &what, out));
                }
            }
        }
    }
}

/// A Rust type one TOML table fills: its name in messages, and its keys.
trait Tabular: Clone + PartialEq + 'static {
    const WHAT: &'static str;
    const FORM: Form<Self>;
}

/// A table value: `[path]`.
impl<X: Tabular> Field for X {
    fn read(v: &Value, _: &At) -> Result<Self, SpecError> {
        X::FORM.decode(as_table(v, X::WHAT)?, X::WHAT)
    }
    fn write(&self, _: &'static str, path: &str, out: &mut Toml) {
        let mut t = Toml::default();
        X::FORM.encode(self, path, &mut t);
        t.section(format!("[{path}]"), out);
    }
    #[cfg(test)]
    fn docs(out: &mut Docs) {
        X::FORM.docs(X::WHAT, out);
    }
}

/// An array of tables: `[[path]]` per entry.
impl<X: Tabular> Field for Vec<X> {
    fn read(v: &Value, at: &At) -> Result<Self, SpecError> {
        let items = as_array(v, &at.label())?.iter();
        items.map(|item| X::read(item, at)).collect()
    }
    fn write(&self, _: &'static str, path: &str, out: &mut Toml) {
        for x in self {
            let mut t = Toml::default();
            X::FORM.encode(x, path, &mut t);
            t.section(format!("[[{path}]]"), out);
        }
    }
    #[cfg(test)]
    fn docs(out: &mut Docs) {
        X::docs(out);
    }
}

// ------------------------------------------------------------------
// The scenario file.

impl Tabular for ScenarioSpec {
    const WHAT: &'static str = "scenario";
    #[rustfmt::skip]
    const FORM: Form<Self> = Form::Keys(|| ScenarioSpec::new("", 0, Algorithm::Quiescent), &[
        &key("name", Required, f!(name), "scenario name; corpus files match their file stem"),
        &key("description", Implicit, f!(description), "free-form prose"),
        &key("seed", Defaulted, f!(seed), "root RNG seed; every random decision derives from it"),
        &key("n", Required, f!(n), "system size; `compile` requires ≥ 1").max(MAX_N as u64),
        &Nested { name: "topics", doc: "concurrent URB instances per node (§12)", rank: 1, rows: &[
            &key("count", Required, f!(topics), "topics live from the start; `compile` requires ≥ 1")
                .max(MAX_TOPICS as u64),
            &key("drain_ticks", Implicit, f!(drain_ticks), "drain budget of a retiring topic").dotted(),
            &key("events", Implicit, f!(topic_events), "planned lifecycle changes (§15)").dotted(),
        ]},
        &key("algorithm", Defaulted, f!(algorithm), "protocol under test: `majority` | `quiescent` | \
            `quiescent-literal` | `best-effort` | `eager-rb` | `backoff:<cap>` | `weakened:<threshold>`"),
        &key("horizon", Defaulted, f!(horizon), "hard stop time, ticks"),
        &key("tick_interval", Defaulted, f!(tick_interval), "Task-1 sweep period"),
        &key("tick_jitter", Defaulted, f!(tick_jitter), "uniform jitter added to each sweep period"),
        &key("stats_interval", Implicit, f!(stats_interval), "state-size sampling period (0 = off)"),
        &key("window", Defaulted, f!(window), "histogram window of the quiescence curve"),
        &key("stop", Defaulted, f!(stop), "early stop: `quiescence` | `full-delivery` | `horizon`"),
        &key("loss", Defaulted, f!(loss), "mesh-wide loss model: an inline table, or `\"none\"` | `\"always\"`"),
        &key("delay", Defaulted, f!(delay), "mesh-wide delay model"),
        &key("fd", Implicit, f!(fd), "failure detector; absent = chosen by the algorithm"),
        &key("link", Implicit, f!(links), "directed-link loss/delay overrides").rank(3),
        &key("blackout", Implicit, f!(blackouts), "raw outage windows").rank(3),
        &key("workload", Defaulted, f!(workload), "`[workload]`, `[[workload]]` per topic, or explicit").rank(2),
        &key("crash", Implicit, f!(crashes), "per-process crash rules; they win over `[crash_random]`").rank(2),
        &key("crash_random", Implicit, f!(crash_random), "seed-derived random crashes").rank(2),
        &key("schedule", Implicit, f!(schedules), "named adversary shapes, applied in order").rank(4),
        &key("expect", Implicit, f!(expect), "the scenario-level verdict; empty = `all_ok = true`").rank(4),
        &key("check", Implicit, f!(check), "`urb check` exploration bounds (§11)").rank(4),
        &key("memory", Implicit, f!(memory), "bounded-memory mode (§14); absent = unbounded").rank(4),
    ]);
}

/// A `[[topics.events]]` entry as written: exactly one of `create` and
/// `retire`.
#[derive(Clone, Default, PartialEq)]
struct EventRow {
    at: u64,
    create: Option<TopicId>,
    retire: Option<TopicId>,
    algorithm: Option<Algorithm>,
}

impl Tabular for EventRow {
    const WHAT: &'static str = "topics.events";
    #[rustfmt::skip]
    const FORM: Form<Self> = Form::Keys(EventRow::default, &[
        &key("at", Required, f!(at), "instant the change applies"),
        &key("create", Implicit, f!(create), "topic to bring live: not static, not live at `at`").dotted(),
        &key("retire", Implicit, f!(retire), "live topic to drain and free").dotted(),
        &key("algorithm", Implicit, f!(algorithm), "a created topic's protocol; absent = the run's")
            .dotted(),
    ]);
}

impl EventRow {
    fn build(self) -> Result<TopicEventCfg, SpecError> {
        let action = match (self.create, self.retire, self.algorithm) {
            (Some(topic), None, algorithm) => TopicAction::Create { topic, algorithm },
            (None, Some(topic), None) => TopicAction::Retire { topic },
            (None, Some(_), Some(_)) => {
                return fail("topics.events: `algorithm` only applies to `create` entries")
            }
            _ => return fail("topics.events entry needs exactly one of `create` / `retire`"),
        };
        Ok(TopicEventCfg {
            time: self.at,
            action,
        })
    }

    fn of(e: &TopicEventCfg) -> Self {
        let (create, retire, algorithm) = match e.action {
            TopicAction::Create { topic, algorithm } => (Some(topic), None, algorithm),
            TopicAction::Retire { topic } => (None, Some(topic), None),
        };
        let at = e.time;
        EventRow {
            at,
            create,
            retire,
            algorithm,
        }
    }
}

#[rustfmt::skip]
const LOSS: Form<LossModel> = Form::Tagged("model", &[
    Variant { name: "none", base: || LossModel::None, rows: &[] },
    Variant { name: "bernoulli", base: || LossModel::Bernoulli { p: 0.0 }, rows: &[
        &key("p", Needs("bernoulli loss"), at!(LossModel::Bernoulli { p }), "loss probability, in [0, 1]"),
    ]},
    Variant {
        name: "bounded-bernoulli",
        base: || LossModel::BoundedBernoulli { p: 0.0, max_consecutive: 0 },
        rows: &[
            &key("p", Defaulted, at!(LossModel::BoundedBernoulli { p }), "loss probability, in [0, 1]"),
            &key("max_consecutive", Required, at!(LossModel::BoundedBernoulli { max_consecutive }),
                "losses in a row after which a copy always arrives"),
        ],
    },
    Variant { name: "burst", base: || LossModel::Burst { p_enter: 0.0, p_exit: 1.0, p_loss: 0.0 }, rows: &[
        &key("p_enter", Defaulted, at!(LossModel::Burst { p_enter }), "chance to enter the lossy state"),
        &key("p_exit", Defaulted, at!(LossModel::Burst { p_exit }), "chance to leave it"),
        &key("p_loss", Defaulted, at!(LossModel::Burst { p_loss }), "loss probability in it"),
    ]},
    Variant { name: "always", base: || LossModel::Always, rows: &[] },
]);

/// A loss model: an inline table, or the bare name of a variant without
/// keys (`loss = "none"`).
impl Field for LossModel {
    fn read(v: &Value, _: &At) -> Result<Self, SpecError> {
        let Some(s) = v.as_str() else {
            return LOSS.decode(as_table(v, "loss")?, "loss");
        };
        match s {
            "none" => Ok(LossModel::None),
            "always" => Ok(LossModel::Always),
            _ => fail(format!(
                "loss {s:?} needs a table form (only \"none\" and \"always\" are bare)"
            )),
        }
    }
    fn write(&self, name: &'static str, path: &str, out: &mut Toml) {
        let mut t = Toml::default();
        LOSS.encode(self, path, &mut t);
        out.line(name, t.inline());
    }
    #[cfg(test)]
    fn docs(out: &mut Docs) {
        LOSS.docs("loss", out);
    }
}

#[rustfmt::skip]
const DELAY: Form<DelayModel> = Form::Tagged("model", &[
    Variant { name: "constant", base: || DelayModel::Constant(0), rows: &[
        &key("ticks", Required, at!(DelayModel::Constant), "delay of every copy"),
    ]},
    Variant { name: "uniform", base: || DelayModel::Uniform { min: 0, max: 0 }, rows: &[
        &key("min", Required, at!(DelayModel::Uniform { min }), "shortest delay"),
        &key("max", Required, at!(DelayModel::Uniform { max }), "longest delay, ≥ min"),
    ]},
    Variant { name: "geometric", base: || DelayModel::GeometricTail { base: 1, p_more: 0.0, cap: 0 }, rows: &[
        &key("base", Defaulted, at!(DelayModel::GeometricTail { base }), "shortest delay"),
        &key("p_more", Defaulted, at!(DelayModel::GeometricTail { p_more }), "chance of each extra tick, in [0, 1)"),
        &key("cap", Required, at!(DelayModel::GeometricTail { cap }), "longest delay"),
    ]},
]);

/// A delay model: an inline table.
impl Field for DelayModel {
    fn read(v: &Value, _: &At) -> Result<Self, SpecError> {
        match DELAY.decode(as_table(v, "delay")?, "delay")? {
            DelayModel::Uniform { min, max } if max < min => {
                fail(format!("uniform delay max {max} below min {min}"))
            }
            DelayModel::GeometricTail { p_more, .. } if !(0.0..1.0).contains(&p_more) => Err(
                SpecError::new(format!("geometric delay p_more {p_more} not in [0, 1)")),
            ),
            delay => Ok(delay),
        }
    }
    fn write(&self, name: &'static str, path: &str, out: &mut Toml) {
        let mut t = Toml::default();
        DELAY.encode(self, path, &mut t);
        out.line(name, t.inline());
    }
    #[cfg(test)]
    fn docs(out: &mut Docs) {
        DELAY.docs("delay", out);
    }
}

impl Tabular for FdKind {
    const WHAT: &'static str = "fd";
    #[rustfmt::skip]
    const FORM: Form<Self> = Form::Tagged("kind", &[
        Variant { name: "none", base: || FdKind::None, rows: &[] },
        Variant { name: "oracle", base: || FdKind::Oracle(OracleConfig::default()), rows: &[
            &key("appearance_spread", Defaulted, at!(FdKind::Oracle.appearance_spread),
                "spread of the instants processes first appear in the outputs"),
            &key("theta_removal_delay", Defaulted, at!(FdKind::Oracle.theta_removal_delay),
                "ticks until `AΘ` drops a crashed process"),
            &key("pstar_removal_delay", Defaulted, at!(FdKind::Oracle.pstar_removal_delay),
                "ticks until `AP*` drops a crashed process"),
            &key("pstar_ready_slack", Defaulted, at!(FdKind::Oracle.pstar_ready_slack),
                "ticks until `AP*` reports a label"),
            &key("faulty_knowledge", Defaulted, at!(FdKind::Oracle.faulty_knowledge),
                "`AP*` also knows the faulty processes"),
        ]},
        Variant { name: "heartbeat", base: || FdKind::Heartbeat(HeartbeatConfig::default()), rows: &[
            &key("period", Defaulted, at!(FdKind::Heartbeat.period), "heartbeat period"),
            &key("timeout", Defaulted, at!(FdKind::Heartbeat.timeout), "silence after which a peer is suspected"),
        ]},
    ]);
}

impl Tabular for LinkSpec {
    const WHAT: &'static str = "link";
    #[rustfmt::skip]
    const FORM: Form<Self> = Form::Keys(|| LinkSpec { from: 0, to: 0, loss: None, delay: None }, &[
        &key("from", Required, f!(from), "sender side"),
        &key("to", Required, f!(to), "receiver side"),
        &key("loss", Implicit, f!(loss), "the link's loss model; absent = the mesh-wide one"),
        &key("delay", Implicit, f!(delay), "the link's delay model; absent = the mesh-wide one"),
    ]);
}

impl Tabular for Blackout {
    const WHAT: &'static str = "blackout";
    #[rustfmt::skip]
    const FORM: Form<Self> = Form::Keys(|| Blackout { from: 0, to: 0, start: 0, end: 0 }, &[
        &key("from", Required, f!(from), "sender side"),
        &key("to", Required, f!(to), "receiver side"),
        &key("start", Required, f!(start), "first instant of the outage"),
        &key("end", Required, f!(end), "first instant after it"),
    ]);
}

/// The generated-stream defaults: a `[[workload]]` entry's base.
const STREAM: TopicWorkload = TopicWorkload {
    topic: 0,
    count: 0,
    spacing: 100,
    start: 10,
};

impl Tabular for TopicWorkload {
    const WHAT: &'static str = "workload";
    #[rustfmt::skip]
    const FORM: Form<Self> = Form::Keys(|| STREAM, &[
        &key("topic", Defaulted, f!(topic), "a `[[workload]]` stream's topic"),
        &key("count", Required, f!(count), "number of broadcasts, from round-robin senders")
            .max(MAX_BROADCASTS as u64),
        &key("spacing", Defaulted, f!(spacing), "ticks between broadcasts"),
        &key("start", Defaulted, f!(start), "time of the first broadcast"),
    ]);
}

/// The single-table `[workload]` as written: the generated form's keys,
/// or `explicit` entries.
#[derive(Clone, Default, PartialEq)]
struct WorkloadTable {
    count: Option<usize>,
    spacing: Option<u64>,
    start: Option<u64>,
    explicit: Option<Vec<BroadcastSpec>>,
}

impl Tabular for WorkloadTable {
    const WHAT: &'static str = "workload";
    #[rustfmt::skip]
    // `count`, `spacing` and `start` are documented with `[[workload]]`.
    const FORM: Form<Self> = Form::Keys(WorkloadTable::default, &[
        &key("count", Implicit, f!(count), "").max(MAX_BROADCASTS as u64),
        &key("spacing", Implicit, f!(spacing), ""),
        &key("start", Implicit, f!(start), ""),
        &key("explicit", Implicit, f!(explicit), "explicit broadcasts instead of `count`, `spacing` and `start`").dotted(),
    ]);
}

impl Tabular for BroadcastSpec {
    const WHAT: &'static str = "workload.explicit";
    #[rustfmt::skip]
    const FORM: Form<Self> = Form::Keys(|| BroadcastSpec { time: 0, pid: 0, topic: 0, payload: String::new() }, &[
        &key("time", Required, f!(time), "invocation time"),
        &key("pid", Required, f!(pid), "invoking process"),
        &key("topic", Implicit, f!(topic), "target topic"),
        &key("payload", Required, f!(payload), "the message (UTF-8)"),
    ]);
}

/// The workload: `[[workload]]` per-topic streams, or the single table.
impl Field for WorkloadSpec {
    fn read(v: &Value, at: &At) -> Result<Self, SpecError> {
        if v.as_array().is_some() {
            let list = Vec::<TopicWorkload>::read(v, at)?;
            if list.is_empty() {
                return fail("[[workload]] must not be empty");
            }
            return Ok(WorkloadSpec::PerTopic(list));
        }
        let table = WorkloadTable::read(v, at)?;
        // Explicit broadcasts carry their own times: the generated form's
        // keys beside them would be read and then ignored.
        let generated = [
            ("count", table.count.is_some()),
            ("spacing", table.spacing.is_some()),
            ("start", table.start.is_some()),
        ];
        if let (Some(_), Some((key, _))) = (&table.explicit, generated.iter().find(|k| k.1)) {
            return fail(format!(
                "workload has both `{key}` and `explicit` — pick one form"
            ));
        }
        match (table.count, table.explicit) {
            (_, Some(list)) if list.is_empty() => fail("workload.explicit must not be empty"),
            (_, Some(list)) => Ok(WorkloadSpec::Explicit(list)),
            (None, None) => fail("missing required key `count`"),
            (Some(count), None) => Ok(WorkloadSpec::Generated {
                count,
                spacing: table.spacing.unwrap_or(STREAM.spacing),
                start: table.start.unwrap_or(STREAM.start),
            }),
        }
    }
    fn write(&self, name: &'static str, path: &str, out: &mut Toml) {
        let (count, spacing, start, explicit) = match self {
            WorkloadSpec::PerTopic(list) => return list.write(name, path, out),
            WorkloadSpec::Explicit(list) => (None, None, None, Some(list.clone())),
            WorkloadSpec::Generated {
                count,
                spacing,
                start,
            } => (Some(*count), Some(*spacing), Some(*start), None),
        };
        WorkloadTable {
            count,
            spacing,
            start,
            explicit,
        }
        .write(name, path, out);
    }
    #[cfg(test)]
    fn docs(out: &mut Docs) {
        TopicWorkload::docs(out);
        WorkloadTable::docs(out);
    }
}

/// A `[[crash]]` entry as written: `pid` and exactly one form.
#[derive(Clone, Default, PartialEq)]
struct CrashRow {
    pid: usize,
    at: Option<u64>,
    on_first_delivery: bool,
    delay: Option<u64>,
    never: bool,
}

impl Tabular for CrashRow {
    const WHAT: &'static str = "crash";
    #[rustfmt::skip]
    const FORM: Form<Self> = Form::Keys(CrashRow::default, &[
        &key("pid", Required, f!(pid), "the crashing process"),
        &key("at", Implicit, f!(at), "crash time"),
        &key("on_first_delivery", Implicit, f!(on_first_delivery), "crash at the first URB delivery"),
        &key("delay", Implicit, f!(delay), "ticks after that delivery (`on_first_delivery` only)"),
        &key("never", Implicit, f!(never), "never crash: exempt from `[crash_random]`"),
    ]);
}

impl CrashRow {
    fn build(self) -> Result<CrashRuleSpec, SpecError> {
        let pid = self.pid;
        // The three forms are mutually exclusive: a spec that says both
        // would otherwise run a *different* adversary than one of its
        // lines claims.
        let forms = [self.at.is_some(), self.on_first_delivery, self.never];
        if forms.iter().filter(|&&form| form).count() != 1 {
            return fail(format!(
                "crash entry for pid {pid} needs exactly one of `at`, \
                 `on_first_delivery = true` or `never = true`"
            ));
        }
        if self.delay.is_some() && !self.on_first_delivery {
            return fail(format!(
                "crash entry for pid {pid}: `delay` only applies to `on_first_delivery`"
            ));
        }
        let rule = match self.at {
            Some(t) => CrashRule::At(t),
            None if self.never => CrashRule::Never,
            None => CrashRule::OnFirstDelivery {
                delay: self.delay.unwrap_or(0),
            },
        };
        Ok(CrashRuleSpec { pid, rule })
    }

    fn of(c: &CrashRuleSpec) -> Self {
        let (at, on_first_delivery, delay, never) = match c.rule {
            CrashRule::At(t) => (Some(t), false, None, false),
            CrashRule::OnFirstDelivery { delay } => (None, true, Some(delay), false),
            CrashRule::Never => (None, false, None, true),
        };
        let pid = c.pid;
        CrashRow {
            pid,
            at,
            on_first_delivery,
            delay,
            never,
        }
    }
}

/// Arrays of entries written as flat rows: `build` checks the rules
/// between a row's keys, `of` writes an entry back as its row.
macro_rules! flat_entries {
    ($($entry:ty => $row:ty),*) => {$(
        impl Field for Vec<$entry> {
            fn read(v: &Value, at: &At) -> Result<Self, SpecError> {
                Vec::<$row>::read(v, at)?.into_iter().map(<$row>::build).collect()
            }
            fn write(&self, name: &'static str, path: &str, out: &mut Toml) {
                let rows: Vec<$row> = self.iter().map(<$row>::of).collect();
                rows.write(name, path, out);
            }
            #[cfg(test)]
            fn docs(out: &mut Docs) {
                <$row>::docs(out);
            }
        }
    )*};
}
flat_entries!(TopicEventCfg => EventRow, CrashRuleSpec => CrashRow);

impl Tabular for RandomCrashSpec {
    const WHAT: &'static str = "crash_random";
    #[rustfmt::skip]
    const FORM: Form<Self> = Form::Keys(|| RandomCrashSpec { count: 0, horizon: 400, protect: None }, &[
        &key("count", Required, f!(count), "number of victims, < n"),
        &key("horizon", Defaulted, f!(horizon), "crash times are drawn in [0, horizon]"),
        &key("protect", Implicit, f!(protect), "a process never selected"),
    ]);
}

#[rustfmt::skip]
const SCHEDULES: &[Variant<Schedule>] = &[
        Variant {
            name: "partition-heal",
            base: || Schedule::PartitionHeal { a: Vec::new(), b: Vec::new(), start: 0, end: 0 },
            rows: &[
                &key("a", Needs("partition-heal"), at!(Schedule::PartitionHeal { a }), "one side of the cut"),
                &key("b", Needs("partition-heal"), at!(Schedule::PartitionHeal { b }), "the other side"),
                &key("start", Defaulted, at!(Schedule::PartitionHeal { start }), "first instant of the cut"),
                &key("end", Required, at!(Schedule::PartitionHeal { end }), "first instant after the heal"),
            ],
        },
        Variant {
            name: "ack-starvation",
            base: || Schedule::AckStarvation { victim: 0, start: 0, end: 0 },
            rows: &[
                &key("victim", Required, at!(Schedule::AckStarvation { victim }), "the process whose inbound links die"),
                &key("start", Defaulted, at!(Schedule::AckStarvation { start }), "first instant of the blockade"),
                &key("end", Required, at!(Schedule::AckStarvation { end }), "first instant after it"),
            ],
        },
        Variant {
            name: "targeted-delay",
            base: || Schedule::TargetedDelay { links: Vec::new(), base: 1, p_more: 0.5, cap: 0 },
            rows: &[
                &key("links", Needs("targeted-delay"), at!(Schedule::TargetedDelay { links }),
                    "directed links `[from, to]` to slow down"),
                &key("base", Defaulted, at!(Schedule::TargetedDelay { base }), "shortest delay"),
                &key("p_more", Defaulted, at!(Schedule::TargetedDelay { p_more }),
                    "chance of each extra tick, in [0, 1)"),
                &key("cap", Required, at!(Schedule::TargetedDelay { cap }), "longest delay, ≥ base"),
            ],
        },
        Variant {
            name: "crash-storm",
            base: || Schedule::CrashStorm { count: 0, start: 0, width: 0, protect: None },
            rows: &[
                &key("count", Required, at!(Schedule::CrashStorm { count }), "victims: the highest pids"),
                &key("start", Defaulted, at!(Schedule::CrashStorm { start }), "first crash instant"),
                &key("width", Defaulted, at!(Schedule::CrashStorm { width }), "span the crashes spread over"),
                &key("protect", Implicit, at!(Schedule::CrashStorm { protect }), "a process that survives"),
            ],
        },
        Variant {
            name: "churn",
            base: || Schedule::Churn { a: Vec::new(), b: Vec::new(), start: 0, cut: 0, heal: 0, cycles: 0 },
            rows: &[
                &key("a", Needs("churn"), at!(Schedule::Churn { a }), "one side of the recurring cut"),
                &key("b", Needs("churn"), at!(Schedule::Churn { b }), "the other side"),
                &key("start", Defaulted, at!(Schedule::Churn { start }), "start of the first cut"),
                &key("cut", Required, at!(Schedule::Churn { cut }), "length of each cut"),
                &key("heal", Required, at!(Schedule::Churn { heal }), "healed time between cuts"),
                &key("cycles", Required, at!(Schedule::Churn { cycles }), "number of cut/heal cycles"),
            ],
        },
];

impl Tabular for Schedule {
    const WHAT: &'static str = "schedule";
    const FORM: Form<Self> = Form::Tagged("kind", SCHEDULES);
}

/// The spec-file name of a schedule's kind.
pub(crate) fn schedule_kind(s: &Schedule) -> &'static str {
    Form::variant(SCHEDULES, s).name
}

impl Tabular for Expectations {
    const WHAT: &'static str = "expect";
    #[rustfmt::skip]
    const FORM: Form<Self> = Form::Keys(Expectations::default, &[
        &key("all_ok", Implicit, f!(all_ok), "every URB property and (oracle runs) the detector audit"),
        &key("validity", Implicit, f!(validity), "the validity verdict"),
        &key("agreement", Implicit, f!(agreement), "the uniform-agreement verdict"),
        &key("integrity", Implicit, f!(integrity), "the uniform-integrity verdict"),
        &key("quiescent", Implicit, f!(quiescent), "the run ends quiescent"),
        &key("min_deliveries", Implicit, f!(min_deliveries), "least URB deliveries in total").rank(1),
        &key("topics_all_ok", Implicit, f!(topics_all_ok), "every per-topic verdict holds (§12)"),
        &key("min_deliveries_per_topic", Implicit, f!(min_deliveries_per_topic),
            "least URB deliveries on each topic of the run").rank(1),
        &key("min_reclaimed_topics", Implicit, f!(min_reclaimed_topics),
            "least retired topic instances freed, over all processes (§15)").rank(1),
    ]);
}

impl Tabular for CheckBounds {
    const WHAT: &'static str = "check";
    #[rustfmt::skip]
    const FORM: Form<Self> = Form::Keys(CheckBounds::default, &[
        &key("depth", Implicit, f!(depth), "most choices along one explored execution").positive(),
        &key("max_drops", Implicit, f!(max_drops), "adversarial drops per execution"),
        &key("tick_budget", Implicit, f!(tick_budget), "Task-1 sweeps per process"),
        &key("delay_budget", Implicit, f!(delay_budget), "deviations of `dpor-lite`"),
        &key("walks", Implicit, f!(walks), "walks of `random`").positive(),
        &key("strategy", Implicit, f!(strategy), "`dfs` | `dpor-lite` | `random`; absent = `--strategy`, else dfs"),
    ]);
}

impl Tabular for MemoryConfig {
    const WHAT: &'static str = "memory";
    #[rustfmt::skip]
    const FORM: Form<Self> = Form::Keys(MemoryConfig::default, &[
        &key("grace_ticks", Defaulted, f!(grace_ticks), "ticks a stable entry stays before compaction"),
        &key("conservative", Defaulted, f!(conservative), "compact only what every process has seen")
            .dotted(),
        &key("tombstones", Defaulted, f!(tombstones), "slots of the delivered-tag ring"),
        &key("ceiling", Implicit, f!(ceiling), "resident entries that force a compaction").dotted(),
        &key("spill", Defaulted, f!(spill), "what a forced compaction may drop: `stable-only` | `tombstones`"),
    ]);
}

impl ScenarioSpec {
    /// Decodes a spec from the shared [`Value`] tree. Unknown keys are
    /// rejected at every level.
    pub fn from_value(value: &Value) -> Result<Self, SpecError> {
        Self::FORM.decode(as_table(value, Self::WHAT)?, Self::WHAT)
    }

    /// Renders the spec as canonical TOML. The guarantee the round-trip
    /// property test enforces: `from_toml_str(spec.to_toml()) == spec`.
    pub fn to_toml(&self) -> String {
        let mut out = Toml::default();
        Self::FORM.encode(self, "", &mut out);
        out.text()
    }

    #[cfg(test)]
    /// Every key a scenario file may hold, as `[path, default, range, doc
    /// line]`
    /// in table order: `seed`, `topics.events.create`,
    /// `loss.bernoulli.p`. DESIGN.md §9 lists exactly these.
    pub(crate) fn schema() -> Vec<[String; 4]> {
        let mut out = Vec::new();
        Self::docs(&mut out);
        out
    }
}
