//! Serde-free JSON snapshots of run statistics.
//!
//! The experiment cache persists complete `RunResult`s (in `tk-sim`)
//! across invocations, so every statistics type must serialize exactly —
//! bit-identical counters in, bit-identical counters out — without pulling
//! an external serialization framework into the (offline-buildable)
//! dependency graph. This module provides the tiny JSON representation
//! those snapshots use:
//!
//! * [`Json`] — a value tree restricted to what statistics need: objects,
//!   arrays, strings, booleans, `null` and **exact unsigned integers**
//!   (`u64` as JSON numbers; `u128` accumulators as decimal strings so no
//!   reader ever coerces them through a float);
//! * [`Json::parse`] / [`Json::render`] — a strict parser and a compact
//!   writer that round-trip each other;
//! * [`Snapshot`] — the to/from-JSON trait implemented by every
//!   statistics type in this crate and by the simulator's result types.
//!
//! # Examples
//!
//! ```
//! use timekeeping::{Histogram, snapshot::{Json, Snapshot}};
//!
//! let mut h = Histogram::new(100, 4);
//! h.record(57);
//! h.record(50_000);
//! let text = h.to_json().render();
//! let back = Histogram::from_json(&Json::parse(&text).unwrap()).unwrap();
//! assert_eq!(back, h);
//! ```

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

/// A JSON value, restricted to the shapes run statistics need.
///
/// Integers are kept exact: `u64` counters serialize as JSON numbers and
/// parse back without a float detour; `u128` accumulators must be written
/// as decimal strings (see [`Json::u128_string`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An exact unsigned integer.
    U64(u64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. `BTreeMap` keeps rendering order deterministic.
    Obj(BTreeMap<String, Json>),
}

/// A structural mismatch while reading a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotError(String);

impl SnapshotError {
    /// Creates an error with the given message.
    pub fn new(msg: impl Into<String>) -> Self {
        SnapshotError(msg.into())
    }
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "snapshot error: {}", self.0)
    }
}

impl std::error::Error for SnapshotError {}

/// Types that serialize to and from a [`Json`] snapshot.
///
/// Implementations must round-trip exactly:
/// `T::from_json(&t.to_json()) == Ok(t)`.
pub trait Snapshot: Sized {
    /// Serializes self.
    fn to_json(&self) -> Json;
    /// Reconstructs a value from a snapshot.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError`] when the JSON shape does not match.
    fn from_json(v: &Json) -> Result<Self, SnapshotError>;
}

impl Json {
    // ------------------------------------------------------------ writing

    /// Renders the value as compact JSON.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Str(s) => Self::write_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(map) => {
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    Self::write_str(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Writes `s` as a quoted JSON string. Every byte that needs an escape
    /// is ASCII, so the runs between them are whole UTF-8 and each is
    /// copied with one `push_str`.
    fn write_str(s: &str, out: &mut String) {
        out.push('"');
        let mut run = 0;
        for (i, b) in s.bytes().enumerate() {
            if !matches!(b, b'"' | b'\\' | 0..=0x1f) {
                continue;
            }
            out.push_str(&s[run..i]);
            run = i + 1;
            match b {
                b'"' => out.push_str("\\\""),
                b'\\' => out.push_str("\\\\"),
                b'\n' => out.push_str("\\n"),
                b'\r' => out.push_str("\\r"),
                b'\t' => out.push_str("\\t"),
                _ => {
                    let _ = write!(out, "\\u{b:04x}");
                }
            }
        }
        out.push_str(&s[run..]);
        out.push('"');
    }

    // ------------------------------------------------------------ parsing

    /// Parses a JSON document.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError`] on malformed input, trailing garbage,
    /// or numbers outside this module's exact-integer model (negative,
    /// fractional, or exponent-form numbers, and integers above
    /// `u64::MAX`).
    pub fn parse(text: &str) -> Result<Json, SnapshotError> {
        let mut pos = 0usize;
        let v = Self::parse_value(text, &mut pos)?;
        Self::skip_ws(text.as_bytes(), &mut pos);
        if pos != text.len() {
            return Err(SnapshotError::new(format!(
                "trailing characters at byte {pos}"
            )));
        }
        Ok(v)
    }

    fn skip_ws(b: &[u8], pos: &mut usize) {
        while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        }
    }

    fn expect(b: &[u8], pos: &mut usize, lit: &str) -> Result<(), SnapshotError> {
        if b[*pos..].starts_with(lit.as_bytes()) {
            *pos += lit.len();
            Ok(())
        } else {
            Err(SnapshotError::new(format!(
                "expected `{lit}` at byte {pos}",
                pos = *pos
            )))
        }
    }

    fn parse_value(text: &str, pos: &mut usize) -> Result<Json, SnapshotError> {
        let b = text.as_bytes();
        Self::skip_ws(b, pos);
        match b.get(*pos) {
            None => Err(SnapshotError::new("unexpected end of input")),
            Some(b'n') => Self::expect(b, pos, "null").map(|()| Json::Null),
            Some(b't') => Self::expect(b, pos, "true").map(|()| Json::Bool(true)),
            Some(b'f') => Self::expect(b, pos, "false").map(|()| Json::Bool(false)),
            Some(b'"') => Self::parse_string(text, pos).map(Json::Str),
            Some(b'[') => {
                *pos += 1;
                let mut items = Vec::new();
                Self::skip_ws(b, pos);
                if b.get(*pos) == Some(&b']') {
                    *pos += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(Self::parse_value(text, pos)?);
                    Self::skip_ws(b, pos);
                    match b.get(*pos) {
                        Some(b',') => *pos += 1,
                        Some(b']') => {
                            *pos += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => {
                            return Err(SnapshotError::new(format!(
                                "expected `,` or `]` at byte {}",
                                *pos
                            )))
                        }
                    }
                }
            }
            Some(b'{') => {
                *pos += 1;
                let mut map = BTreeMap::new();
                Self::skip_ws(b, pos);
                if b.get(*pos) == Some(&b'}') {
                    *pos += 1;
                    return Ok(Json::Obj(map));
                }
                loop {
                    Self::skip_ws(b, pos);
                    let key = Self::parse_string(text, pos)?;
                    Self::skip_ws(b, pos);
                    Self::expect(b, pos, ":")?;
                    let value = Self::parse_value(text, pos)?;
                    map.insert(key, value);
                    Self::skip_ws(b, pos);
                    match b.get(*pos) {
                        Some(b',') => *pos += 1,
                        Some(b'}') => {
                            *pos += 1;
                            return Ok(Json::Obj(map));
                        }
                        _ => {
                            return Err(SnapshotError::new(format!(
                                "expected `,` or `}}` at byte {}",
                                *pos
                            )))
                        }
                    }
                }
            }
            Some(c) if c.is_ascii_digit() => {
                let start = *pos;
                while b.get(*pos).is_some_and(u8::is_ascii_digit) {
                    *pos += 1;
                }
                if matches!(b.get(*pos), Some(b'.') | Some(b'e') | Some(b'E')) {
                    return Err(SnapshotError::new(format!(
                        "non-integer number at byte {start}"
                    )));
                }
                text[start..*pos]
                    .parse::<u64>()
                    .map(Json::U64)
                    .map_err(|_| {
                        SnapshotError::new(format!("integer out of u64 range at byte {start}"))
                    })
            }
            Some(c) => Err(SnapshotError::new(format!(
                "unexpected byte `{}` at {}",
                *c as char, *pos
            ))),
        }
    }

    fn parse_string(text: &str, pos: &mut usize) -> Result<String, SnapshotError> {
        let b = text.as_bytes();
        if b.get(*pos) != Some(&b'"') {
            return Err(SnapshotError::new(format!(
                "expected string at byte {}",
                *pos
            )));
        }
        *pos += 1;
        let mut out = String::new();
        loop {
            // Copy everything up to the next quote or backslash in one go.
            // Both stop bytes are ASCII and escapes consume only ASCII, so
            // every run starts and ends on a character boundary.
            let run = b[*pos..]
                .iter()
                .position(|&c| c == b'"' || c == b'\\')
                .ok_or_else(|| SnapshotError::new("unterminated string"))?;
            out.push_str(&text[*pos..*pos + run]);
            *pos += run;
            if b[*pos] == b'"' {
                *pos += 1;
                return Ok(out);
            }
            *pos += 1;
            match b.get(*pos) {
                Some(b'"') => out.push('"'),
                Some(b'\\') => out.push('\\'),
                Some(b'/') => out.push('/'),
                Some(b'n') => out.push('\n'),
                Some(b'r') => out.push('\r'),
                Some(b't') => out.push('\t'),
                Some(b'b') => out.push('\u{8}'),
                Some(b'f') => out.push('\u{c}'),
                Some(b'u') => {
                    let hex = b
                        .get(*pos + 1..*pos + 5)
                        .ok_or_else(|| SnapshotError::new("truncated \\u escape"))?;
                    let code = u32::from_str_radix(
                        std::str::from_utf8(hex)
                            .map_err(|_| SnapshotError::new("bad \\u escape"))?,
                        16,
                    )
                    .map_err(|_| SnapshotError::new("bad \\u escape"))?;
                    out.push(
                        char::from_u32(code)
                            .ok_or_else(|| SnapshotError::new("bad \\u code point"))?,
                    );
                    *pos += 4;
                }
                _ => return Err(SnapshotError::new("bad escape")),
            }
            *pos += 1;
        }
    }

    // ------------------------------------------------------------ access

    /// Builds an object from key/value pairs.
    pub fn obj<const N: usize>(fields: [(&str, Json); N]) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }

    /// Builds an array of `u64` counters.
    pub fn u64_array(values: impl IntoIterator<Item = u64>) -> Json {
        Json::Arr(values.into_iter().map(Json::U64).collect())
    }

    /// Serializes a `u128` accumulator as a decimal string (JSON numbers
    /// are not trusted past 64 bits by common readers).
    pub fn u128_string(value: u128) -> Json {
        Json::Str(value.to_string())
    }

    /// Serializes an optional snapshot as the value or `null`.
    pub fn option<T: Snapshot>(value: &Option<T>) -> Json {
        match value {
            Some(v) => v.to_json(),
            None => Json::Null,
        }
    }

    /// Looks up a field of an object.
    ///
    /// # Errors
    ///
    /// Errors if `self` is not an object or lacks the field.
    pub fn get(&self, key: &str) -> Result<&Json, SnapshotError> {
        match self {
            Json::Obj(map) => map
                .get(key)
                .ok_or_else(|| SnapshotError::new(format!("missing field `{key}`"))),
            _ => Err(SnapshotError::new(format!(
                "expected object with field `{key}`"
            ))),
        }
    }

    /// The value as a `u64`.
    ///
    /// # Errors
    ///
    /// Errors if the value is not an integer.
    pub fn as_u64(&self) -> Result<u64, SnapshotError> {
        match self {
            Json::U64(n) => Ok(*n),
            _ => Err(SnapshotError::new("expected unsigned integer")),
        }
    }

    /// The value as a `u128` (from its decimal-string form).
    ///
    /// # Errors
    ///
    /// Errors if the value is neither a decimal string nor an integer.
    pub fn as_u128(&self) -> Result<u128, SnapshotError> {
        match self {
            Json::Str(s) => s
                .parse::<u128>()
                .map_err(|_| SnapshotError::new("expected decimal u128 string")),
            Json::U64(n) => Ok(u128::from(*n)),
            _ => Err(SnapshotError::new("expected u128 string")),
        }
    }

    /// The value as a `bool`.
    ///
    /// # Errors
    ///
    /// Errors if the value is not a boolean.
    pub fn as_bool(&self) -> Result<bool, SnapshotError> {
        match self {
            Json::Bool(b) => Ok(*b),
            _ => Err(SnapshotError::new("expected boolean")),
        }
    }

    /// The value as a string slice.
    ///
    /// # Errors
    ///
    /// Errors if the value is not a string.
    pub fn as_str(&self) -> Result<&str, SnapshotError> {
        match self {
            Json::Str(s) => Ok(s),
            _ => Err(SnapshotError::new("expected string")),
        }
    }

    /// The value as an array slice.
    ///
    /// # Errors
    ///
    /// Errors if the value is not an array.
    pub fn as_arr(&self) -> Result<&[Json], SnapshotError> {
        match self {
            Json::Arr(items) => Ok(items),
            _ => Err(SnapshotError::new("expected array")),
        }
    }

    /// A `u64` field of an object.
    ///
    /// # Errors
    ///
    /// Errors if the field is missing or not an integer.
    pub fn u64_field(&self, key: &str) -> Result<u64, SnapshotError> {
        self.get(key)?.as_u64()
    }

    /// A `Vec<u64>` field of an object.
    ///
    /// # Errors
    ///
    /// Errors if the field is missing or not an array of integers.
    pub fn u64_vec_field(&self, key: &str) -> Result<Vec<u64>, SnapshotError> {
        self.get(key)?.as_arr()?.iter().map(Json::as_u64).collect()
    }

    /// A fixed-size `u64` array field of an object.
    ///
    /// # Errors
    ///
    /// Errors if the field is missing, malformed, or the wrong length.
    pub fn u64_arr_field<const N: usize>(&self, key: &str) -> Result<[u64; N], SnapshotError> {
        let v = self.u64_vec_field(key)?;
        v.try_into()
            .map_err(|_| SnapshotError::new(format!("field `{key}` has the wrong length")))
    }

    /// A nested snapshot field of an object.
    ///
    /// # Errors
    ///
    /// Propagates the nested type's [`Snapshot::from_json`] error.
    pub fn snapshot_field<T: Snapshot>(&self, key: &str) -> Result<T, SnapshotError> {
        T::from_json(self.get(key)?)
    }

    /// An optional nested snapshot field (`null` ⇒ `None`).
    ///
    /// # Errors
    ///
    /// Propagates the nested type's [`Snapshot::from_json`] error.
    pub fn option_field<T: Snapshot>(&self, key: &str) -> Result<Option<T>, SnapshotError> {
        match self.get(key)? {
            Json::Null => Ok(None),
            v => T::from_json(v).map(Some),
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trips() {
        for v in [
            Json::Null,
            Json::Bool(true),
            Json::Bool(false),
            Json::U64(0),
            Json::U64(u64::MAX),
            Json::Str("hi \"there\"\n\\".to_owned()),
            Json::Str("ünïcödé — π".to_owned()),
        ] {
            assert_eq!(Json::parse(&v.render()).unwrap(), v);
        }
    }

    #[test]
    fn composite_round_trips() {
        let v = Json::obj([
            ("counts", Json::u64_array([1, 2, 3])),
            ("sum", Json::u128_string(u128::MAX)),
            ("nested", Json::obj([("empty", Json::Arr(vec![]))])),
            ("flag", Json::Bool(false)),
            ("none", Json::Null),
        ]);
        let parsed = Json::parse(&v.render()).unwrap();
        assert_eq!(parsed, v);
        assert_eq!(parsed.get("sum").unwrap().as_u128().unwrap(), u128::MAX);
        assert_eq!(parsed.u64_vec_field("counts").unwrap(), vec![1, 2, 3]);
        assert_eq!(parsed.u64_arr_field::<3>("counts").unwrap(), [1, 2, 3]);
    }

    #[test]
    fn parses_whitespace_and_escapes() {
        let v = Json::parse(" { \"a\" : [ 1 , 2 ] , \"b\" : \"x\\u0041\\n\" } ").unwrap();
        assert_eq!(v.u64_vec_field("a").unwrap(), vec![1, 2]);
        assert_eq!(v.get("b").unwrap().as_str().unwrap(), "xA\n");
    }

    #[test]
    fn rejects_malformed() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "1.5",
            "-3",
            "1e9",
            "18446744073709551616", // u64::MAX + 1
            "truex",
            "\"unterminated",
            "{} trailing",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn strings_round_trip_across_utf8_widths_and_escapes() {
        let cases = [
            "",
            "plain ascii",
            "é", // 2-byte scalar
            "€", // 3-byte scalar
            "𝄞", // 4-byte scalar
            "aé€𝄞z",
            "\"\\\n\r\t", // every escape the writer emits
            "\u{0}\u{1}\u{8}\u{c}\u{1f}",
            "é\"€\\𝄞\n", // escapes next to multi-byte scalars
            "\"é\"",
            "𝄞\u{1}𝄞",
            "\\\\\\",
        ];
        for s in cases {
            let v = Json::Str(s.to_owned());
            let text = v.render();
            assert_eq!(Json::parse(&text).unwrap(), v, "{s:?} via {text:?}");
            // As an object key too, which takes the same path.
            let o = Json::Obj([(s.to_owned(), Json::Null)].into_iter().collect());
            assert_eq!(Json::parse(&o.render()).unwrap(), o);
        }
        // Escapes the writer never emits still parse, between multi-byte
        // scalars.
        let v = Json::parse(r#""€\u0041𝄞\/é\b\f\u00e9""#).unwrap();
        assert_eq!(v.as_str().unwrap(), "€A𝄞/é\u{8}\u{c}é");
        assert_eq!(
            Json::Str("\u{1}".to_owned()).render(),
            "\"\\u0001\"",
            "control characters render as \\u escapes"
        );
    }

    #[test]
    fn rejects_broken_strings_without_panicking() {
        for bad in [
            "\"",
            "\"é",
            "\"abc\\",
            "\"\\x\"",
            "\"\\é\"",
            "\"\\u12\"",
            "\"\\u12é\"",
            "\"\\ud800\"",
            "\"\\u00zz\"",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn megabyte_string_round_trips() {
        // Long enough that re-scanning the remainder per character (the
        // quadratic failure mode) would take minutes.
        let unit = "timekeeping é€𝄞 \"quoted\" \\ back\tslash\n";
        let s = unit.repeat((1 << 20) / unit.len() + 1);
        assert!(s.len() >= 1 << 20);
        let v = Json::obj([("big", Json::Str(s.clone())), ("n", Json::U64(7))]);
        let back = Json::parse(&v.render()).unwrap();
        assert_eq!(back.get("big").unwrap().as_str().unwrap(), s);
        assert_eq!(back.u64_field("n").unwrap(), 7);
    }

    #[test]
    fn exactness_at_the_edges() {
        // 2^53 + 1 is where f64-based parsers corrupt integers.
        let n = (1u64 << 53) + 1;
        assert_eq!(
            Json::parse(&Json::U64(n).render())
                .unwrap()
                .as_u64()
                .unwrap(),
            n
        );
    }

    #[test]
    fn missing_field_errors_name_the_field() {
        let v = Json::obj([("present", Json::U64(1))]);
        let err = v.get("absent").unwrap_err();
        assert!(err.to_string().contains("absent"));
    }
}
