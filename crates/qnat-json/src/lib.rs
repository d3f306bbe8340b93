//! Dependency-free JSON: the value tree, its parser and writers, and
//! typed leaf decoding.
//!
//! The build environment has no crates.io access, so device models and
//! every HTTP document serialize through this small hand-rolled library
//! instead of serde. [`Json`] is a value tree with a recursive-descent
//! parser and compact/pretty writers. Numbers round-trip exactly: Rust's
//! `{}` formatting of `f64` emits the shortest decimal that parses back
//! to the same bits.
//!
//! Leaves decode through [`FromJson`]: [`Json::field`] reads a required
//! field (present, `null` only for an `Option`), [`Json::opt_field`]
//! reads absent or `null` as `None`. Every unsigned integer obeys one
//! rule — a non-negative integral number no larger than 2⁵³, the range
//! an `f64` holds exactly — and `From` impls turn the same leaves back
//! into values. Decode errors are plain messages naming the field; each
//! caller wraps them in its own error type.

#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt::{self, Write};

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (held as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; keys sorted for stable output.
    Obj(BTreeMap<String, Json>),
}

/// Error returned when parsing malformed JSON.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub offset: usize,
    /// What went wrong.
    pub reason: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.reason
        )
    }
}

impl Error for JsonError {}

impl Json {
    /// Builds an object from key/value pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Builds an array of numbers.
    pub fn nums(values: impl IntoIterator<Item = f64>) -> Json {
        Json::Arr(values.into_iter().map(Json::Num).collect())
    }

    /// Object field lookup; `None` for non-objects or missing keys.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The value as `f64`, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as `&str`, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a slice, if it is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Parses a JSON document.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] on malformed input or trailing garbage.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(v)
    }

    /// Compact single-line serialization.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Pretty two-space-indented serialization.
    pub fn to_json_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        let (nl, pad, padc) = match indent {
            Some(w) => ("\n", " ".repeat(w * (depth + 1)), " ".repeat(w * depth)),
            None => ("", String::new(), String::new()),
        };
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_number(out, *n),
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(nl);
                    out.push_str(&pad);
                    item.write(out, indent, depth + 1);
                }
                out.push_str(nl);
                out.push_str(&padc);
                out.push(']');
            }
            Json::Obj(map) => {
                if map.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(nl);
                    out.push_str(&pad);
                    write_string(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                out.push_str(nl);
                out.push_str(&padc);
                out.push('}');
            }
        }
    }
}

/// A Rust value read out of a [`Json`] leaf (or borrowed from it).
///
/// The error is a message naming what was expected and what was found;
/// [`Json::field`] prefixes it with the field name.
pub trait FromJson<'a>: Sized {
    /// Decodes `v`.
    ///
    /// # Errors
    ///
    /// Returns a message when `v` has the wrong type or range.
    fn from_json(v: &'a Json) -> Result<Self, String>;
}

/// Largest integer [`FromJson`] accepts: 2⁵³, the last one past which
/// `f64` skips integers.
const MAX_EXACT_INT: u64 = 1 << 53;

fn describe(v: &Json) -> String {
    match v {
        Json::Null => "null".into(),
        Json::Bool(b) => b.to_string(),
        Json::Num(n) => n.to_string(),
        Json::Str(_) => "a string".into(),
        Json::Arr(_) => "an array".into(),
        Json::Obj(_) => "an object".into(),
    }
}

fn expected<T>(what: &str, v: &Json) -> Result<T, String> {
    Err(format!("expected {what}, found {}", describe(v)))
}

impl<'a> FromJson<'a> for &'a Json {
    fn from_json(v: &'a Json) -> Result<Self, String> {
        Ok(v)
    }
}

/// Leaves that are one [`Json`] variant, copied or borrowed out.
macro_rules! variant_from_json {
    ($($t:ty => $variant:ident($x:ident) => $value:expr, $what:literal;)*) => {$(
        impl<'a> FromJson<'a> for $t {
            fn from_json(v: &'a Json) -> Result<Self, String> {
                match v {
                    Json::$variant($x) => Ok($value),
                    _ => expected($what, v),
                }
            }
        }
    )*};
}

variant_from_json! {
    f64 => Num(n) => *n, "a number";
    bool => Bool(b) => *b, "a bool";
    &'a str => Str(s) => s, "a string";
    &'a [Json] => Arr(items) => items, "an array";
    &'a BTreeMap<String, Json> => Obj(map) => map, "an object";
}

impl FromJson<'_> for String {
    fn from_json(v: &Json) -> Result<Self, String> {
        <&str>::from_json(v).map(str::to_owned)
    }
}

impl FromJson<'_> for u64 {
    fn from_json(v: &Json) -> Result<Self, String> {
        match v {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= MAX_EXACT_INT as f64 => {
                Ok(*n as u64)
            }
            _ => expected("a non-negative integer no larger than 2^53", v),
        }
    }
}

macro_rules! narrow_uint {
    ($($t:ty),*) => {$(
        impl FromJson<'_> for $t {
            fn from_json(v: &Json) -> Result<Self, String> {
                <$t>::try_from(u64::from_json(v)?).or_else(|_| {
                    expected(concat!("an integer in ", stringify!($t), "'s range"), v)
                })
            }
        }
    )*};
}

narrow_uint!(usize, u32, u16);

impl<'a, T: FromJson<'a>> FromJson<'a> for Option<T> {
    fn from_json(v: &'a Json) -> Result<Self, String> {
        match v {
            Json::Null => Ok(None),
            other => T::from_json(other).map(Some),
        }
    }
}

impl<'a, T: FromJson<'a>> FromJson<'a> for Vec<T> {
    fn from_json(v: &'a Json) -> Result<Self, String> {
        <&[Json]>::from_json(v)?.iter().map(T::from_json).collect()
    }
}

impl<'a, T: FromJson<'a> + Copy + Default, const N: usize> FromJson<'a> for [T; N] {
    fn from_json(v: &'a Json) -> Result<Self, String> {
        let items = <&[Json]>::from_json(v)?;
        if items.len() != N {
            return Err(format!("expected {N} entries, found {}", items.len()));
        }
        let mut out = [T::default(); N];
        for (slot, item) in out.iter_mut().zip(items) {
            *slot = T::from_json(item)?;
        }
        Ok(out)
    }
}

impl Json {
    /// Decodes the required field `key`: it must be present, and may be
    /// `null` only when `T` is an `Option`.
    ///
    /// # Errors
    ///
    /// Returns a message naming `key` when it is missing (or `self` is
    /// not an object) or its value does not decode as `T`.
    pub fn field<'a, T: FromJson<'a>>(&'a self, key: &str) -> Result<T, String> {
        match self.get(key) {
            Some(v) => T::from_json(v).map_err(|e| format!("field '{key}': {e}")),
            None => Err(format!("missing field '{key}'")),
        }
    }

    /// Decodes the optional field `key`, reading absent and `null` alike
    /// as `None`.
    ///
    /// # Errors
    ///
    /// Returns a message naming `key` when a non-null value does not
    /// decode as `T`.
    pub fn opt_field<'a, T: FromJson<'a>>(&'a self, key: &str) -> Result<Option<T>, String> {
        match self.get(key) {
            None | Some(Json::Null) => Ok(None),
            Some(v) => T::from_json(v)
                .map(Some)
                .map_err(|e| format!("field '{key}': {e}")),
        }
    }
}

macro_rules! into_json {
    ($($t:ty => |$x:ident| $value:expr;)*) => {$(
        impl From<$t> for Json {
            fn from($x: $t) -> Json {
                $value
            }
        }
    )*};
}

into_json! {
    f64 => |n| Json::Num(n);
    u64 => |n| Json::Num(n as f64);
    usize => |n| Json::Num(n as f64);
    u32 => |n| Json::Num(f64::from(n));
    u16 => |n| Json::Num(f64::from(n));
    bool => |b| Json::Bool(b);
    String => |s| Json::Str(s);
    &str => |s| Json::Str(s.to_owned());
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(items: Vec<T>) -> Json {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }
}

impl<T: Into<Json>, const N: usize> From<[T; N]> for Json {
    fn from(items: [T; N]) -> Json {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }
}

fn write_number(out: &mut String, n: f64) {
    // `fmt::Write` for `String` cannot fail, so its results are dropped.
    if !n.is_finite() {
        // JSON has no Inf/NaN; null is the conventional fallback.
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() < 1e15 {
        // Integral values print without an exponent or trailing `.0`.
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    // Every byte that needs escaping is ASCII, so each unescaped run
    // starts and ends on a char boundary and is pushed whole.
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let short = match b {
            b'"' => Some("\\\""),
            b'\\' => Some("\\\\"),
            b'\n' => Some("\\n"),
            b'\r' => Some("\\r"),
            b'\t' => Some("\\t"),
            0..=0x1f => None,
            _ => continue,
        };
        out.push_str(&s[run..i]);
        match short {
            Some(escape) => out.push_str(escape),
            // Other control characters take the `\u00XX` form.
            None => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Deepest array/object nesting [`Json::parse`] accepts. The parser
/// recurses once per level, so the limit bounds its stack use; the
/// wire format nests at most 6 deep.
pub const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, reason: impl Into<String>) -> JsonError {
        JsonError {
            offset: self.pos,
            reason: reason.into(),
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            Some(b) => Err(self.err(format!("unexpected character '{}'", b as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Parses one array or object one level deeper, refusing to go
    /// past [`MAX_DEPTH`].
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    /// Reads 4 hex digits at byte offset `at` as a code unit.
    fn hex4(&self, at: usize) -> Result<u32, JsonError> {
        let hex = self
            .bytes
            .get(at..at + 4)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        hex.iter().try_fold(0, |code, &b| {
            let digit = (b as char)
                .to_digit(16)
                .ok_or_else(|| self.err("bad \\u escape"))?;
            Ok(code << 4 | digit)
        })
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            // Copy the run up to the next quote or backslash in one go.
            // Both are ASCII, so the run ends on a char boundary of the
            // (already UTF-8) input.
            let run = self.bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .map_or(self.bytes.len(), |n| self.pos + n);
            s.push_str(&self.text[self.pos..run]);
            self.pos = run;
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                _ => {
                    // A backslash: one escape sequence.
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'b') => s.push('\u{8}'),
                        Some(b'f') => s.push('\u{c}'),
                        Some(b'u') => self.unicode_escape(&mut s)?,
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
            }
        }
    }

    /// Decodes the `\uXXXX` escape (or surrogate pair) whose `u` sits at
    /// `self.pos`, leaving `self.pos` on its last hex digit.
    fn unicode_escape(&mut self, s: &mut String) -> Result<(), JsonError> {
        let code = self.hex4(self.pos + 1)?;
        if (0xDC00..0xE000).contains(&code) {
            // A low surrogate with no preceding high surrogate (covers
            // inverted pairs too).
            return Err(self.err(format!("lone low surrogate \\u{code:04x} in string")));
        }
        if (0xD800..0xDC00).contains(&code) {
            // UTF-16 surrogate pair: the high half must be followed
            // immediately by an escaped low half, per RFC 8259 §7.
            if self.bytes.get(self.pos + 5) != Some(&b'\\')
                || self.bytes.get(self.pos + 6) != Some(&b'u')
            {
                return Err(self.err(format!("lone high surrogate \\u{code:04x} in string")));
            }
            let low = self.hex4(self.pos + 7)?;
            if !(0xDC00..0xE000).contains(&low) {
                return Err(self.err(format!(
                    "high surrogate \\u{code:04x} followed by \
                     non-low-surrogate \\u{low:04x}"
                )));
            }
            let scalar = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
            s.push(char::from_u32(scalar).ok_or_else(|| self.err("invalid surrogate pair"))?);
            self.pos += 10;
        } else {
            // Non-surrogate BMP code points are always valid chars.
            s.push(char::from_u32(code).ok_or_else(|| self.err("invalid \\u code point"))?);
            self.pos += 4;
        }
        Ok(())
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        // Only ASCII was consumed, so the slice is on char boundaries.
        let text = &self.text[start..self.pos];
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err(format!("invalid number '{text}'")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse("true").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse(" -3.5e2 ").unwrap(), Json::Num(-350.0));
        assert_eq!(Json::parse("\"a\\nb\"").unwrap(), Json::Str("a\nb".into()));
    }

    #[test]
    fn parses_nested_structures() {
        let v = Json::parse(r#"{"a": [1, 2.5, {"b": "c"}], "d": false}"#).unwrap();
        assert_eq!(v.get("d"), Some(&Json::Bool(false)));
        let arr = v.get("a").unwrap().as_array().unwrap();
        assert_eq!(arr[1], Json::Num(2.5));
        assert_eq!(arr[2].get("b").unwrap().as_str(), Some("c"));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "{not json",
            "[1, 2",
            "{\"a\": }",
            "1 2",
            "\"open",
            "{\"a\" 1}",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad} should fail");
        }
    }

    #[test]
    fn decodes_utf16_surrogate_pairs() {
        // \ud83d\ude00 is U+1F600 GRINNING FACE, the issue's example.
        assert_eq!(
            Json::parse(r#""\ud83d\ude00""#).unwrap(),
            Json::Str("😀".into())
        );
        assert_eq!(
            Json::parse(r#""\uD834\uDD1E""#).unwrap(),
            Json::Str("\u{1D11E}".into()),
            "uppercase hex, U+1D11E musical G clef"
        );
        // Surrogate pair embedded between BMP escapes and raw text.
        assert_eq!(
            Json::parse(r#""a\u00e9\ud83e\udd16b""#).unwrap(),
            Json::Str("a\u{e9}\u{1F916}b".into())
        );
        // Raw (unescaped) astral-plane UTF-8 still parses too.
        assert_eq!(Json::parse("\"😀\"").unwrap(), Json::Str("😀".into()));
    }

    #[test]
    fn rejects_lone_and_inverted_surrogates() {
        for bad in [
            r#""\ud800""#,       // lone high, end of string
            r#""\ud83dx""#,      // lone high, raw text follows
            r#""\ud83d\n""#,     // lone high, non-\u escape follows
            r#""\ude00""#,       // lone low
            r#""\ude00\ud83d""#, // inverted pair
            r#""\ud83d\ud83d""#, // high followed by high
            r#""\ud83dA""#,      // high followed by non-surrogate
        ] {
            let err = Json::parse(bad).expect_err(bad);
            assert!(err.reason.contains("surrogate"), "{bad}: {}", err.reason);
        }
    }

    #[test]
    fn floats_round_trip_exactly() {
        for x in [0.1, 1.0 / 3.0, 6.02e23, -1e-300, 0.00096, f64::MIN_POSITIVE] {
            let v = Json::Num(x);
            let back = Json::parse(&v.to_json()).unwrap();
            assert_eq!(back.as_f64().unwrap().to_bits(), x.to_bits(), "{x}");
        }
    }

    #[test]
    fn value_round_trip_compact_and_pretty() {
        let v = Json::obj([
            ("name", Json::Str("ibmq-test".into())),
            ("n", Json::Num(5.0)),
            ("rates", Json::nums([0.1, 0.2])),
            ("nested", Json::obj([("flag", Json::Bool(true))])),
        ]);
        assert_eq!(Json::parse(&v.to_json()).unwrap(), v);
        assert_eq!(Json::parse(&v.to_json_pretty()).unwrap(), v);
        assert!(v.to_json_pretty().contains("\n  "));
    }

    #[test]
    fn accessors_reject_wrong_types() {
        let v = Json::parse(r#"{"n": 2.5, "i": 3}"#).unwrap();
        assert_eq!(v.get("missing"), None);
        assert_eq!(Json::Null.as_f64(), None);
        assert_eq!(
            <&BTreeMap<String, Json>>::from_json(&v).map(BTreeMap::len),
            Ok(2)
        );
        assert!(<&BTreeMap<String, Json>>::from_json(&Json::Arr(vec![])).is_err());
    }

    #[test]
    fn nesting_past_max_depth_is_an_error_not_a_stack_overflow() {
        let nest = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(Json::parse(&nest(MAX_DEPTH)).is_ok());
        let err = Json::parse(&nest(MAX_DEPTH + 1)).expect_err("one level too deep");
        assert!(err.reason.contains("nesting"), "{}", err.reason);
        assert_eq!(err.offset, MAX_DEPTH, "fails at the first bracket too many");
        // Objects count too, and an unclosed body far past the limit is
        // refused long before it could exhaust the stack.
        let objects = "{\"a\":".repeat(MAX_DEPTH + 1) + "1" + &"}".repeat(MAX_DEPTH + 1);
        assert!(Json::parse(&objects).is_err());
        let err = Json::parse(&"[".repeat(20_000)).expect_err("20k brackets");
        assert!(err.reason.contains("nesting"), "{}", err.reason);
    }

    #[test]
    fn writer_escapes_pin_the_wire_bytes() {
        let v = Json::Str("q\"\\\n\r\t\u{8}\u{1f}é😀/".into());
        assert_eq!(v.to_json(), r#""q\"\\\n\r\t\u0008\u001fé😀/""#);
        for (n, text) in [
            (3.0, "3"),
            (-0.5, "-0.5"),
            (1e15, "1000000000000000"),
            (1e-7, "0.0000001"),
        ] {
            assert_eq!(Json::Num(n).to_json(), text);
        }
        assert_eq!(Json::Num(f64::NAN).to_json(), "null");
    }

    #[test]
    fn unicode_escapes_need_four_hex_digits() {
        assert_eq!(Json::parse(r#""\u00E9""#).unwrap(), Json::Str("é".into()));
        for bad in [r#""\u+041""#, r#""\u00g1""#, r#""\u00""#, r#""\u00é1""#] {
            assert!(Json::parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn integers_obey_one_rule() {
        let max = MAX_EXACT_INT as f64;
        for (n, ok) in [
            (0.0, true),
            (7.0, true),
            (max, true),
            (max + 2.0, false),
            (1e300, false),
            (-1.0, false),
            (-0.5, false),
            (1.5, false),
            (f64::INFINITY, false),
        ] {
            let v = Json::Num(n);
            assert_eq!(u64::from_json(&v).is_ok(), ok, "u64 {n}");
            assert_eq!(usize::from_json(&v).is_ok(), ok, "usize {n}");
        }
        assert_eq!(u64::from_json(&Json::Num(max)), Ok(MAX_EXACT_INT));
        assert_eq!(u32::from_json(&Json::Num(4_294_967_295.0)), Ok(u32::MAX));
        assert!(u32::from_json(&Json::Num(4_294_967_296.0)).is_err());
        assert!(u16::from_json(&Json::Num(65_536.0)).is_err());
        for wrong in [Json::Null, Json::Bool(true), Json::Str("3".into())] {
            assert!(u64::from_json(&wrong).is_err(), "{wrong:?}");
        }
    }

    #[test]
    fn field_is_required_and_opt_field_reads_absent_or_null_as_none() {
        let v = Json::parse(r#"{"n": 3, "none": null, "s": "x", "b": true}"#).unwrap();
        assert_eq!(v.field::<u64>("n"), Ok(3));
        assert_eq!(v.field::<Option<u64>>("none"), Ok(None));
        assert_eq!(v.field::<Option<u64>>("n"), Ok(Some(3)));
        assert_eq!(v.field::<&str>("s"), Ok("x"));
        assert_eq!(v.field::<bool>("b"), Ok(true));
        let missing = v.field::<Option<u64>>("gone").unwrap_err();
        assert!(missing.contains("missing field 'gone'"), "{missing}");
        assert!(v.field::<u64>("none").is_err());
        let wrong = v.field::<f64>("s").unwrap_err();
        assert!(
            wrong.contains("'s'") && wrong.contains("a number"),
            "{wrong}"
        );

        assert_eq!(v.opt_field::<u64>("gone"), Ok(None));
        assert_eq!(v.opt_field::<u64>("none"), Ok(None));
        assert_eq!(v.opt_field::<u64>("n"), Ok(Some(3)));
        assert!(v.opt_field::<u64>("s").is_err());
        assert!(Json::Null.field::<u64>("n").is_err());
    }

    #[test]
    fn arrays_decode_by_length_and_entry() {
        let m = Json::parse("[[0.9, 0.1], [0.2, 0.8]]").unwrap();
        assert_eq!(<[[f64; 2]; 2]>::from_json(&m), Ok([[0.9, 0.1], [0.2, 0.8]]));
        for bad in [
            "[[0.9, 0.1]]",
            "[[0.9, 0.1], [0.2]]",
            "[[0.9, 0.1], [0.2, null]]",
            "{}",
        ] {
            let v = Json::parse(bad).unwrap();
            assert!(<[[f64; 2]; 2]>::from_json(&v).is_err(), "{bad}");
        }
        let v = Json::parse("[1, 2, 3]").unwrap();
        assert_eq!(Vec::<usize>::from_json(&v), Ok(vec![1, 2, 3]));
        assert!(Vec::<usize>::from_json(&Json::parse("[1, -2]").unwrap()).is_err());
        assert_eq!(Vec::<f64>::from_json(&Json::Arr(vec![])), Ok(vec![]));
        assert_eq!(<&[Json]>::from_json(&v).map(<[Json]>::len), Ok(3));
    }

    #[test]
    fn leaves_encode_as_they_decode() {
        let v = Json::obj([
            ("n", 5usize.into()),
            ("x", 0.25.into()),
            ("s", "a".into()),
            ("b", false.into()),
            ("none", Option::<u64>::None.into()),
            ("some", Some(2u32).into()),
            ("list", vec![1.5, 2.5].into()),
            ("m", [[1.0, 0.0], [0.0, 1.0]].into()),
        ]);
        assert_eq!(
            v.to_json(),
            r#"{"b":false,"list":[1.5,2.5],"m":[[1,0],[0,1]],"n":5,"none":null,"s":"a","some":2,"x":0.25}"#
        );
        assert_eq!(v.field::<usize>("n"), Ok(5));
        assert_eq!(v.field::<Option<u32>>("some"), Ok(Some(2)));
        assert_eq!(v.field::<[[f64; 2]; 2]>("m"), Ok([[1.0, 0.0], [0.0, 1.0]]));
        assert_eq!(Json::nums([1.5, 2.5]), vec![1.5, 2.5].into());
    }
}
