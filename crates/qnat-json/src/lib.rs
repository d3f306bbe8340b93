//! Dependency-free JSON for device-model serialization.
//!
//! The build environment has no crates.io access, so noise models
//! serialize through this small hand-rolled JSON library instead of
//! serde. [`Json`] is a value tree with a recursive-descent parser and
//! compact/pretty writers. Numbers round-trip exactly: Rust's `{}`
//! formatting of `f64` emits the shortest decimal that parses back to the
//! same bits.

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

    /// The value as `usize`, if it is a non-negative integer number.
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            // `usize::MAX as f64` rounds up to 2^64, so the bound is strict.
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n < usize::MAX as f64 => {
                Some(*n as usize)
            }
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
        assert_eq!(v.get("n").unwrap().as_usize(), None);
        assert_eq!(v.get("i").unwrap().as_usize(), Some(3));
        assert_eq!(v.get("missing"), None);
        assert_eq!(Json::Null.as_f64(), None);
    }

    #[test]
    fn as_usize_rejects_two_to_the_64() {
        // 2^64 and up used to pass the bound and saturate to usize::MAX.
        for big in ["18446744073709551616", "18446744073709551615", "1e20"] {
            assert_eq!(Json::parse(big).unwrap().as_usize(), None, "{big}");
        }
        // The largest f64 below 2^64 still converts exactly.
        let below = 2f64.powi(64) - 2048.0;
        assert_eq!(Json::Num(below).as_usize(), Some(below as usize));
        assert_eq!(Json::Num(-1.0).as_usize(), None);
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
}
