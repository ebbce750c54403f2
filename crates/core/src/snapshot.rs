//! Serde-free JSON snapshots of run statistics.
//!
//! The experiment cache persists complete `RunResult`s (in `tk-sim`)
//! across invocations, so every statistics type must serialize exactly —
//! bit-identical counters in, bit-identical counters out — without pulling
//! an external serialization framework into the (offline-buildable)
//! dependency graph. Values are restricted to what statistics need:
//! objects, arrays, strings, booleans, `null` and **exact unsigned
//! integers** (`u64` as JSON numbers; `u128` accumulators as decimal
//! strings so no reader ever coerces them through a float).
//!
//! Each type's format is one streaming pair:
//!
//! * [`Snapshot::write_json`] emits the value into a [`JsonWriter`], a
//!   compact writer that formats integers with a digit loop. Object keys
//!   must come in ascending byte order (the order a sorted map renders
//!   them in); debug builds assert it.
//! * [`Snapshot::read_json`] reads the value back from a [`JsonReader`],
//!   a strict cursor over the text that accumulates integers in place.
//!   Object keys may come in any order; unknown keys are validated and
//!   skipped, duplicate keys are refused.
//!
//! Neither side builds an intermediate tree, so a result-cache load or
//! store costs one pass over the bytes. [`Json`] is a generic view over
//! the same pair: [`Json::parse`] and [`Json::render`] are `Json`'s own
//! `read_json`/`write_json`, so the tree and every typed reader accept
//! exactly the same documents. [`Snapshot::to_json`] and
//! [`Snapshot::from_json`] go through the text for callers that want to
//! inspect a value as a tree.
//!
//! # Examples
//!
//! ```
//! use timekeeping::{Histogram, snapshot::{Json, Snapshot}};
//!
//! let mut h = Histogram::new(100, 4);
//! h.record(57);
//! h.record(50_000);
//! let text = h.to_json_string();
//! assert_eq!(Histogram::from_json_str(&text).unwrap(), h);
//! // The tree view reads and renders the same bytes.
//! assert_eq!(Json::parse(&text).unwrap().render(), text);
//! ```

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

/// A JSON value, restricted to the shapes run statistics need.
///
/// Integers are kept exact: `u64` counters serialize as JSON numbers and
/// parse back without a float detour; `u128` accumulators are written as
/// decimal strings.
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

/// Types with a JSON snapshot format.
///
/// Implementations provide the streaming pair and must round-trip
/// exactly: `T::from_json_str(&t.to_json_string()) == Ok(t)`, and the
/// text must be canonical — compact, with object keys ascending — so
/// `Json::parse(text).render() == text`.
pub trait Snapshot: Sized {
    /// Writes self as one JSON value.
    fn write_json(&self, w: &mut JsonWriter);

    /// Reads one JSON value.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError`] on malformed JSON or when its shape does
    /// not match the type.
    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, SnapshotError>;

    /// Serializes self as compact JSON text.
    fn to_json_string(&self) -> String {
        let mut w = JsonWriter::new();
        self.write_json(&mut w);
        w.finish()
    }

    /// Reads a whole document holding one value.
    ///
    /// # Errors
    ///
    /// As [`read_json`](Self::read_json), plus trailing non-whitespace.
    fn from_json_str(text: &str) -> Result<Self, SnapshotError> {
        let mut r = JsonReader::new(text);
        let v = Self::read_json(&mut r)?;
        r.finish()?;
        Ok(v)
    }

    /// Serializes self as a [`Json`] tree.
    fn to_json(&self) -> Json {
        Json::parse(&self.to_json_string()).expect("the writer emits valid JSON")
    }

    /// Reconstructs a value from a [`Json`] tree.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError`] when the tree's shape does not match.
    fn from_json(v: &Json) -> Result<Self, SnapshotError> {
        Self::from_json_str(&v.render())
    }
}

// ---------------------------------------------------------------- writer

/// A compact JSON writer: values are appended to one `String`, commas
/// placed by the writer.
#[derive(Debug, Default)]
pub struct JsonWriter {
    out: String,
    /// The next value or key is not the first in its container.
    comma: bool,
    /// The last key written in each open object (`None` before the
    /// first), to assert that keys ascend.
    #[cfg(debug_assertions)]
    keys: Vec<Option<String>>,
}

impl JsonWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// The text written so far.
    pub fn finish(self) -> String {
        #[cfg(debug_assertions)]
        assert!(self.keys.is_empty(), "JsonWriter: unclosed object");
        self.out
    }

    #[inline]
    fn sep(&mut self) {
        if self.comma {
            self.out.push(',');
        }
        self.comma = true;
    }

    /// Writes `null`.
    fn null(&mut self) {
        self.sep();
        self.out.push_str("null");
    }

    /// Writes a boolean.
    fn bool(&mut self, b: bool) {
        self.sep();
        self.out.push_str(if b { "true" } else { "false" });
    }

    /// Writes an integer.
    #[inline]
    fn u64(&mut self, n: u64) {
        self.sep();
        self.digits(n);
    }

    /// Writes a `u128` accumulator as a decimal string (JSON numbers are
    /// not trusted past 64 bits by common readers).
    fn u128(&mut self, n: u128) {
        self.sep();
        self.out.push('"');
        match u64::try_from(n) {
            Ok(small) => self.digits(small),
            Err(_) => {
                let _ = write!(self.out, "{n}");
            }
        }
        self.out.push('"');
    }

    #[inline]
    fn digits(&mut self, mut n: u64) {
        if n < 10 {
            self.out.push(char::from(b'0' + n as u8));
            return;
        }
        let mut buf = [0u8; 20];
        let mut i = buf.len();
        loop {
            i -= 1;
            buf[i] = b'0' + (n % 10) as u8;
            n /= 10;
            if n == 0 {
                break;
            }
        }
        self.out
            .push_str(std::str::from_utf8(&buf[i..]).expect("ASCII digits"));
    }

    /// Writes a string.
    pub fn str(&mut self, s: &str) {
        self.sep();
        self.quoted(s);
    }

    /// Writes `s` quoted. Every byte that needs an escape is ASCII, so
    /// the runs between them are whole UTF-8 and each is copied with one
    /// `push_str`.
    fn quoted(&mut self, s: &str) {
        let out = &mut self.out;
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

    /// Writes an object whose members `body` writes with
    /// [`key`](Self::key) or [`field`](Self::field), in ascending key
    /// order.
    pub fn object(&mut self, body: impl FnOnce(&mut Self)) {
        self.sep();
        self.out.push('{');
        self.comma = false;
        #[cfg(debug_assertions)]
        self.keys.push(None);
        body(self);
        #[cfg(debug_assertions)]
        self.keys.pop();
        self.out.push('}');
        self.comma = true;
    }

    /// Writes an array whose items `body` writes.
    fn array(&mut self, body: impl FnOnce(&mut Self)) {
        self.sep();
        self.out.push('[');
        self.comma = false;
        body(self);
        self.out.push(']');
        self.comma = true;
    }

    /// Writes an object key; the member's value is the next one written.
    ///
    /// # Panics
    ///
    /// In debug builds, when `k` does not sort after the object's
    /// previous key: documents must render as a sorted map does.
    pub fn key(&mut self, k: &str) -> &mut Self {
        #[cfg(debug_assertions)]
        {
            let last = self
                .keys
                .last_mut()
                .expect("JsonWriter: key written outside an object");
            if let Some(prev) = last {
                assert!(
                    prev.as_str() < k,
                    "JsonWriter: key `{k}` written after `{prev}`; object keys must ascend"
                );
            }
            *last = Some(k.to_owned());
        }
        self.sep();
        self.quoted(k);
        self.out.push(':');
        self.comma = false;
        self
    }

    /// Writes one object member.
    pub fn field<T: Snapshot>(&mut self, k: &str, v: &T) {
        self.key(k);
        v.write_json(self);
    }
}

// ---------------------------------------------------------------- reader

/// A strict JSON cursor over a document's text. Every read skips the
/// whitespace before its value.
#[derive(Debug)]
pub struct JsonReader<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> JsonReader<'a> {
    /// A reader at the start of `text`.
    pub fn new(text: &'a str) -> Self {
        JsonReader { text, pos: 0 }
    }

    /// Checks that only whitespace follows the value read.
    ///
    /// # Errors
    ///
    /// Errors on trailing non-whitespace.
    pub fn finish(&mut self) -> Result<(), SnapshotError> {
        self.skip_ws();
        if self.pos != self.text.len() {
            return Err(self.error("trailing characters"));
        }
        Ok(())
    }

    fn error(&self, what: &str) -> SnapshotError {
        SnapshotError::new(format!("{what} at byte {}", self.pos))
    }

    #[inline]
    fn skip_ws(&mut self) {
        let b = self.text.as_bytes();
        while self.pos < b.len() && matches!(b[self.pos], b' ' | b'\t' | b'\n' | b'\r') {
            self.pos += 1;
        }
    }

    /// The first byte of the next value, after whitespace.
    #[inline]
    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.text.as_bytes().get(self.pos).copied()
    }

    fn expect(&mut self, lit: &str) -> Result<(), SnapshotError> {
        if self.text.as_bytes()[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.error(&format!("expected `{lit}`")))
        }
    }

    /// Reads `null`.
    ///
    /// # Errors
    ///
    /// Errors on anything else.
    fn null(&mut self) -> Result<(), SnapshotError> {
        self.skip_ws();
        self.expect("null")
    }

    /// Reads a boolean.
    ///
    /// # Errors
    ///
    /// Errors on anything else.
    fn bool(&mut self) -> Result<bool, SnapshotError> {
        match self.peek() {
            Some(b't') => self.expect("true").map(|()| true),
            Some(b'f') => self.expect("false").map(|()| false),
            _ => Err(self.error("expected boolean")),
        }
    }

    /// Reads an integer: decimal digits only (no sign, fraction or
    /// exponent), at most `u64::MAX`.
    ///
    /// # Errors
    ///
    /// Errors on anything else.
    #[inline]
    fn u64(&mut self) -> Result<u64, SnapshotError> {
        self.skip_ws();
        let b = self.text.as_bytes();
        let start = self.pos;
        let mut n: u64 = 0;
        while let Some(&c) = b.get(self.pos) {
            if !c.is_ascii_digit() {
                break;
            }
            n = n
                .checked_mul(10)
                .and_then(|n| n.checked_add(u64::from(c - b'0')))
                .ok_or_else(|| {
                    SnapshotError::new(format!("integer out of u64 range at byte {start}"))
                })?;
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.error("expected unsigned integer"));
        }
        if matches!(b.get(self.pos), Some(b'.' | b'e' | b'E')) {
            return Err(SnapshotError::new(format!(
                "non-integer number at byte {start}"
            )));
        }
        Ok(n)
    }

    /// Reads a `u128` accumulator: a decimal string, or an integer.
    ///
    /// # Errors
    ///
    /// Errors on anything else.
    fn u128(&mut self) -> Result<u128, SnapshotError> {
        if self.peek() == Some(b'"') {
            self.string()?
                .parse::<u128>()
                .map_err(|_| self.error("expected decimal u128 string"))
        } else {
            self.u64().map(u128::from)
        }
    }

    /// Reads a string.
    ///
    /// # Errors
    ///
    /// Errors on anything else, or a malformed escape.
    fn string(&mut self) -> Result<String, SnapshotError> {
        self.skip_ws();
        self.quoted().map(Cow::into_owned)
    }

    /// Reads the quoted string at the cursor, borrowing it from the text
    /// when it holds no escape.
    fn quoted(&mut self) -> Result<Cow<'a, str>, SnapshotError> {
        let text = self.text;
        let b = text.as_bytes();
        if b.get(self.pos) != Some(&b'"') {
            return Err(self.error("expected string"));
        }
        self.pos += 1;
        let mut out = String::new();
        loop {
            // Copy everything up to the next quote or backslash in one go.
            // Both stop bytes are ASCII and escapes consume only ASCII, so
            // every run starts and ends on a character boundary.
            let run = b[self.pos..]
                .iter()
                .position(|&c| c == b'"' || c == b'\\')
                .ok_or_else(|| SnapshotError::new("unterminated string"))?;
            let chunk = &text[self.pos..self.pos + run];
            self.pos += run;
            if b[self.pos] == b'"' {
                self.pos += 1;
                // Every escape pushes a character, so an empty `out`
                // means the whole string is this one run.
                if out.is_empty() {
                    return Ok(Cow::Borrowed(chunk));
                }
                out.push_str(chunk);
                return Ok(Cow::Owned(out));
            }
            out.push_str(chunk);
            self.pos += 1;
            match b.get(self.pos) {
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
                        .get(self.pos + 1..self.pos + 5)
                        .ok_or_else(|| SnapshotError::new("truncated \\u escape"))?;
                    // Four hex digits and nothing else (`u32::from_str_radix`
                    // would also take a leading `+`).
                    let code = hex
                        .iter()
                        .try_fold(0, |code, &h| Some(code << 4 | char::from(h).to_digit(16)?))
                        .ok_or_else(|| SnapshotError::new("bad \\u escape"))?;
                    out.push(
                        char::from_u32(code)
                            .ok_or_else(|| SnapshotError::new("bad \\u code point"))?,
                    );
                    self.pos += 4;
                }
                _ => return Err(SnapshotError::new("bad escape")),
            }
            self.pos += 1;
        }
    }

    /// Reads an array, calling `item` once per element; `item` must read
    /// exactly one value.
    ///
    /// # Errors
    ///
    /// Errors on anything but an array, or propagates `item`'s error.
    fn array(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<(), SnapshotError>,
    ) -> Result<(), SnapshotError> {
        if self.peek() != Some(b'[') {
            return Err(self.error("expected array"));
        }
        self.pos += 1;
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            item(self)?;
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.error("expected `,` or `]`")),
            }
        }
    }

    /// Reads an object, calling `field` once per member with its key.
    /// `field` either reads the member's value and returns `true`, or
    /// reads nothing and returns `false`: the value is then validated
    /// and skipped. An unknown key that repeats is refused here; `field`
    /// refuses repeats of the keys it knows (see [`slot`](Self::slot)).
    ///
    /// # Errors
    ///
    /// Errors on anything but an object, or propagates `field`'s error.
    pub fn object(
        &mut self,
        mut field: impl FnMut(&mut Self, &str) -> Result<bool, SnapshotError>,
    ) -> Result<(), SnapshotError> {
        if self.peek() != Some(b'{') {
            return Err(self.error("expected object"));
        }
        self.pos += 1;
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        let mut unknown: Vec<Cow<'a, str>> = Vec::new();
        loop {
            self.skip_ws();
            let key = self.quoted()?;
            self.skip_ws();
            self.expect(":")?;
            if !field(self, &key)? {
                if unknown.contains(&key) {
                    return Err(duplicate(&key));
                }
                Json::read_json(self)?;
                unknown.push(key);
            }
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.error("expected `,` or `}`")),
            }
        }
    }

    /// Reads the value of member `key` into `slot`, refusing a second
    /// occurrence of the key.
    ///
    /// # Errors
    ///
    /// Errors when `slot` is already filled, or propagates `T`'s error.
    pub fn slot<T: Snapshot>(
        &mut self,
        slot: &mut Option<T>,
        key: &str,
    ) -> Result<(), SnapshotError> {
        if slot.is_some() {
            return Err(duplicate(key));
        }
        *slot = Some(T::read_json(self)?);
        Ok(())
    }
}

fn duplicate(key: &str) -> SnapshotError {
    SnapshotError::new(format!("duplicate field `{key}`"))
}

/// The value of a required member, or the missing-field error.
///
/// # Errors
///
/// Errors when `slot` is empty.
pub fn required<T>(slot: Option<T>, key: &str) -> Result<T, SnapshotError> {
    slot.ok_or_else(|| SnapshotError::new(format!("missing field `{key}`")))
}

/// Reads one object into typed locals named after its keys, inside a
/// function returning `Result<_, SnapshotError>`.
///
/// `read_fields!(r, { a: u64, b: Vec<u64>, c: Option<T> = None })`
/// binds `a`, `b` and `c`: each member is read with its type's
/// [`Snapshot::read_json`], members may come in any order, a repeated
/// key is refused, and a member is required unless it names a default
/// for its absence. Unknown keys are validated and skipped.
#[macro_export]
macro_rules! read_fields {
    (@take $var:ident) => {
        $crate::snapshot::required($var, stringify!($var))?
    };
    (@take $var:ident, $default:expr) => {
        $var.unwrap_or($default)
    };
    ($r:expr, { $($var:ident : $ty:ty $(= $default:expr)?),+ $(,)? }) => {
        $(let mut $var: Option<$ty> = None;)+
        $r.object(|r, key| {
            $(if key == stringify!($var) {
                return r.slot(&mut $var, key).map(|()| true);
            })+
            Ok(false)
        })?;
        $(let $var: $ty = $crate::read_fields!(@take $var $(, $default)?);)+
    };
}

// ------------------------------------------------------- value formats

impl Snapshot for u64 {
    #[inline]
    fn write_json(&self, w: &mut JsonWriter) {
        w.u64(*self);
    }

    #[inline]
    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, SnapshotError> {
        r.u64()
    }
}

/// `u128` accumulators are decimal strings.
impl Snapshot for u128 {
    fn write_json(&self, w: &mut JsonWriter) {
        w.u128(*self);
    }

    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, SnapshotError> {
        r.u128()
    }
}

impl Snapshot for String {
    fn write_json(&self, w: &mut JsonWriter) {
        w.str(self);
    }

    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, SnapshotError> {
        r.string()
    }
}

/// `None` is `null`.
impl<T: Snapshot> Snapshot for Option<T> {
    fn write_json(&self, w: &mut JsonWriter) {
        match self {
            Some(v) => v.write_json(w),
            None => w.null(),
        }
    }

    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, SnapshotError> {
        if r.peek() == Some(b'n') {
            r.null().map(|()| None)
        } else {
            T::read_json(r).map(Some)
        }
    }
}

impl<T: Snapshot> Snapshot for Vec<T> {
    fn write_json(&self, w: &mut JsonWriter) {
        w.array(|w| self.iter().for_each(|v| v.write_json(w)));
    }

    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, SnapshotError> {
        let mut items = Vec::new();
        r.array(|r| {
            items.push(T::read_json(r)?);
            Ok(())
        })?;
        Ok(items)
    }
}

/// A fixed-length array; any other length is refused.
impl<T: Snapshot, const N: usize> Snapshot for [T; N] {
    fn write_json(&self, w: &mut JsonWriter) {
        w.array(|w| self.iter().for_each(|v| v.write_json(w)));
    }

    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, SnapshotError> {
        Vec::<T>::read_json(r)?
            .try_into()
            .map_err(|_| SnapshotError::new(format!("expected an array of {N} values")))
    }
}

/// Any document: the tree view over the streaming pair.
impl Snapshot for Json {
    fn write_json(&self, w: &mut JsonWriter) {
        match self {
            Json::Null => w.null(),
            Json::Bool(b) => w.bool(*b),
            Json::U64(n) => w.u64(*n),
            Json::Str(s) => w.str(s),
            Json::Arr(items) => w.array(|w| items.iter().for_each(|v| v.write_json(w))),
            Json::Obj(map) => w.object(|w| map.iter().for_each(|(k, v)| w.field(k, v))),
        }
    }

    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, SnapshotError> {
        match r.peek() {
            None => Err(SnapshotError::new("unexpected end of input")),
            Some(b'n') => r.null().map(|()| Json::Null),
            Some(b't' | b'f') => r.bool().map(Json::Bool),
            Some(b'"') => r.string().map(Json::Str),
            Some(b'[') => Vec::read_json(r).map(Json::Arr),
            Some(b'{') => {
                let mut map = BTreeMap::new();
                r.object(|r, key| {
                    if map.contains_key(key) {
                        return Err(duplicate(key));
                    }
                    map.insert(key.to_owned(), Json::read_json(r)?);
                    Ok(true)
                })?;
                Ok(Json::Obj(map))
            }
            Some(c) if c.is_ascii_digit() => r.u64().map(Json::U64),
            Some(c) => Err(r.error(&format!("unexpected byte `{}`", c as char))),
        }
    }

    fn to_json(&self) -> Json {
        self.clone()
    }

    fn from_json(v: &Json) -> Result<Self, SnapshotError> {
        Ok(v.clone())
    }
}

impl Json {
    /// Renders the value as compact JSON.
    pub fn render(&self) -> String {
        self.to_json_string()
    }

    /// Parses a JSON document.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError`] on malformed input, trailing garbage, a
    /// duplicate object key, or numbers outside this module's
    /// exact-integer model (negative, fractional, or exponent-form
    /// numbers, and integers above `u64::MAX`).
    pub fn parse(text: &str) -> Result<Json, SnapshotError> {
        Json::from_json_str(text)
    }

    // ------------------------------------------------------------ access

    /// Builds an object from key/value pairs.
    pub fn obj<const N: usize>(fields: [(&str, Json); N]) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
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
            ("counts", Json::Arr(vec![Json::U64(1), Json::U64(2)])),
            ("sum", u128::MAX.to_json()),
            ("nested", Json::obj([("empty", Json::Arr(vec![]))])),
            ("flag", Json::Bool(false)),
            ("none", Json::Null),
        ]);
        let parsed = Json::parse(&v.render()).unwrap();
        assert_eq!(parsed, v);
        assert_eq!(
            u128::from_json(parsed.get("sum").unwrap()).unwrap(),
            u128::MAX
        );
        assert_eq!(
            <[u64; 2]>::from_json(parsed.get("counts").unwrap()).unwrap(),
            [1, 2]
        );
        assert!(<[u64; 3]>::from_json(parsed.get("counts").unwrap()).is_err());
    }

    #[test]
    fn u128_accumulators_are_decimal_strings_and_read_either_form() {
        for n in [
            0u128,
            7,
            u128::from(u64::MAX),
            u128::from(u64::MAX) + 1,
            u128::MAX,
        ] {
            let text = n.to_json_string();
            assert_eq!(text, format!("\"{n}\""));
            assert_eq!(u128::from_json_str(&text).unwrap(), n);
        }
        assert_eq!(u128::from_json_str("42").unwrap(), 42);
        assert!(u128::from_json_str("\"x\"").is_err());
    }

    #[test]
    fn integers_render_exactly() {
        for n in [0, 1, 9, 10, 99, 100, 12_345, (1u64 << 53) + 1, u64::MAX] {
            assert_eq!(Json::U64(n).render(), n.to_string());
        }
    }

    #[test]
    fn parses_whitespace_and_escapes() {
        let v = Json::parse(" { \"a\" : [ 1 , 2 ] , \"b\" : \"x\\u0041\\n\" } ").unwrap();
        assert_eq!(
            <Vec<u64>>::from_json(v.get("a").unwrap()).unwrap(),
            vec![1, 2]
        );
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

    /// A typed reader over a one-field object, the shape every
    /// `read_fields!` impl has.
    #[derive(Debug, PartialEq)]
    struct One {
        n: u64,
    }

    impl Snapshot for One {
        fn write_json(&self, w: &mut JsonWriter) {
            w.object(|w| w.field("n", &self.n));
        }

        fn read_json(r: &mut JsonReader<'_>) -> Result<Self, SnapshotError> {
            read_fields!(r, { n: u64 });
            Ok(One { n })
        }
    }

    /// The tree reader and a typed reader accept the same documents.
    fn same_verdict(doc: &str, accepted: bool) {
        let tree = Json::parse(doc).ok().and_then(|v| v.u64_field("n").ok());
        let typed = One::from_json_str(doc).ok().map(|o| o.n);
        assert_eq!(tree, typed, "{doc:?}: tree and typed readers disagree");
        assert_eq!(typed.is_some(), accepted, "{doc:?}");
    }

    #[test]
    fn both_readers_refuse_duplicate_keys() {
        same_verdict(r#"{"n":1,"n":2}"#, false);
        same_verdict(r#"{"n":1,"x":0,"x":0}"#, false);
        // A key equal after unescaping is the same key.
        same_verdict(r#"{"n":1,"\u006e":2}"#, false);
        same_verdict(r#"{"x":0,"n":1}"#, true);
        assert!(Json::parse(r#"{"a":{"b":1,"b":1}}"#).is_err());
    }

    #[test]
    fn both_readers_accept_the_same_number_forms() {
        same_verdict(r#"{"n":0}"#, true);
        same_verdict(r#"{"n":007}"#, true);
        same_verdict(r#"{"n":18446744073709551615}"#, true);
        for bad in [
            "18446744073709551616",
            "-1",
            "+1",
            "1.0",
            "1e3",
            "1E3",
            "0x1",
            "\"1\"",
        ] {
            same_verdict(&format!(r#"{{"n":{bad}}}"#), false);
        }
    }

    #[test]
    fn both_readers_accept_the_same_whitespace() {
        same_verdict(" \t\r\n{ \"n\" :\n1 , \"x\" : [ ] }\n", true);
        same_verdict(r#"{"n":1}"#, true);
        // Form feed and non-breaking space are not JSON whitespace.
        same_verdict("{\u{c}\"n\":1}", false);
        same_verdict("{\u{a0}\"n\":1}", false);
    }

    #[test]
    fn both_readers_refuse_the_same_trailing_bytes() {
        same_verdict("{\"n\":1}   \n", true);
        for tail in ["x", ",", "{}", "0", "\u{0}"] {
            same_verdict(&format!("{{\"n\":1}}{tail}"), false);
        }
    }

    #[test]
    fn unknown_members_are_validated_before_they_are_skipped() {
        same_verdict(r#"{"n":1,"x":{"y":[1,"z",null,true]}}"#, true);
        same_verdict(r#"{"n":1,"x":[1,]}"#, false);
        same_verdict(r#"{"n":1,"x":1.5}"#, false);
        same_verdict(r#"{"n":1,"x":"\q"}"#, false);
        same_verdict(r#"{"x":0}"#, false);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "object keys must ascend")]
    fn writer_asserts_ascending_keys() {
        let mut w = JsonWriter::new();
        w.object(|w| {
            w.field("b", &1u64);
            w.field("a", &2u64);
        });
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
            "\"\\u+041\"", // a sign is not a hex digit
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
        let err = One::from_json_str(r#"{"m":1}"#).unwrap_err();
        assert!(err.to_string().contains("missing field `n`"), "{err}");
    }
}
