//! ISSUE 5 satellite: encode→parse round-trip property over arbitrary
//! `String`s, which pins `write_string`/escape symmetry — including the
//! UTF-16 surrogate-pair fix the wire format depends on.
//!
//! The generator is deliberately plane-hostile: code points are drawn
//! from ASCII, the control range (escaped as `\u00XX`), the BMP, and the
//! astral planes (where the JSON-escaped form is a surrogate pair).

use proptest::prelude::*;
use qnat_json::Json;
use std::collections::BTreeMap;

/// Maps an arbitrary `u32` into a valid Unicode scalar value, folding the
/// surrogate range (which no Rust `char` can hold) into the astral plane
/// so astral code points stay well represented.
fn scalar(raw: u32) -> char {
    let folded = raw % 0x11_0000;
    match char::from_u32(folded) {
        Some(c) => c,
        // 0xD800..0xE000: remap into Supplementary Multilingual Plane.
        None => char::from_u32(0x1_0000 + (folded - 0xD800))
            .expect("folded surrogate lands on a valid astral scalar"),
    }
}

/// A string drawn from all Unicode planes: each element picks a range —
/// ASCII/control, full BMP-or-above via fold, or astral-only.
fn arbitrary_string(choices: &[(u8, u32)]) -> String {
    choices
        .iter()
        .map(|&(plane, raw)| match plane % 3 {
            0 => scalar(raw % 0x80), // ASCII incl. controls, quotes, backslash
            1 => scalar(raw),        // any scalar (BMP + astral, surrogates folded)
            _ => scalar(0x1_0000 + raw % 0xF_0000), // astral only: always a surrogate pair in UTF-16
        })
        .collect()
}

/// A deterministic stream of choices for building whole documents.
struct Choices(u64);

impl Choices {
    /// splitmix64.
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// Integral, subnormal, ±1e±300-scale and arbitrary finite numbers.
    fn number(&mut self) -> f64 {
        let sign = if self.below(2) == 0 { 1.0 } else { -1.0 };
        let x = match self.below(5) {
            0 => self.below(1 << 53) as f64,
            1 => self.below(1 << 20) as f64,
            2 => f64::from_bits(1 + self.below((1 << 52) - 1)),
            3 => {
                let mantissa = 1.0 + self.below(1 << 52) as f64 / (1u64 << 52) as f64;
                let exponent = [1e300, 1e-300][self.below(2) as usize];
                mantissa * exponent
            }
            _ => loop {
                let x = f64::from_bits(self.next()).abs();
                if x.is_finite() {
                    break x;
                }
            },
        };
        sign * x
    }

    /// Escapes plus 1-, 2-, 3- and 4-byte UTF-8.
    fn string(&mut self) -> String {
        let len = self.below(12);
        (0..len)
            .map(|_| match self.below(6) {
                0 => ['"', '\\', '\n', '\r', '\t', '\u{8}', '\u{1f}', '/'][self.below(8) as usize],
                1 => scalar(self.below(0x80) as u32),
                2 => scalar(0x80 + self.below(0x800 - 0x80) as u32),
                3 => scalar(0x800 + self.below(0x1_0000 - 0x800) as u32),
                _ => scalar(0x1_0000 + self.below(0x10_0000) as u32),
            })
            .collect()
    }

    /// A random value nested at most `depth` containers deep.
    fn value(&mut self, depth: usize) -> Json {
        let kinds = if depth == 0 { 4 } else { 6 };
        match self.below(kinds) {
            0 => match self.below(3) {
                0 => Json::Null,
                b => Json::Bool(b == 1),
            },
            1 => Json::Num(self.number()),
            2 | 3 => Json::Str(self.string()),
            4 => Json::Arr((0..self.below(5)).map(|_| self.value(depth - 1)).collect()),
            _ => Json::Obj(
                (0..self.below(5))
                    .map(|_| (self.string(), self.value(depth - 1)))
                    .collect::<BTreeMap<_, _>>(),
            ),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `Json::Str(s)` survives compact and pretty serialization for any
    /// string, byte-for-byte.
    #[test]
    fn string_value_round_trips(
        choices in prop::collection::vec((0u8..=255, 0u32..=u32::MAX), 0..48)
    ) {
        let s = arbitrary_string(&choices);
        let v = Json::Str(s.clone());
        let compact = Json::parse(&v.to_json()).expect("compact re-parse");
        prop_assert_eq!(compact.as_str(), Some(s.as_str()));
        let pretty = Json::parse(&v.to_json_pretty()).expect("pretty re-parse");
        prop_assert_eq!(pretty.as_str(), Some(s.as_str()));
    }

    /// Strings round-trip as object *keys* too — keys go through the same
    /// `write_string`/`string()` pair as values.
    #[test]
    fn object_key_round_trips(
        choices in prop::collection::vec((0u8..=255, 0u32..=u32::MAX), 1..24)
    ) {
        let key = arbitrary_string(&choices);
        let mut map = std::collections::BTreeMap::new();
        map.insert(key.clone(), Json::Num(1.0));
        let v = Json::Obj(map);
        let back = Json::parse(&v.to_json()).expect("re-parse");
        prop_assert_eq!(back.get(&key).and_then(Json::as_f64), Some(1.0));
    }

    /// Every UTF-16 surrogate pair written as explicit `\uXXXX\uXXXX`
    /// escapes decodes to the scalar it encodes — the interop path an
    /// external JSON writer (which may always escape non-ASCII) exercises.
    #[test]
    fn escaped_surrogate_pair_decodes(astral in 0x1_0000u32..0x11_0000) {
        // The astral range holds no surrogates, so this is always a char.
        let expected = char::from_u32(astral).expect("astral scalar");
        let v = astral - 0x1_0000;
        let (high, low) = (0xD800 + (v >> 10), 0xDC00 + (v & 0x3FF));
        let doc = format!("\"\\u{high:04x}\\u{low:04x}\"");
        let parsed = Json::parse(&doc).expect("surrogate pair parses");
        prop_assert_eq!(parsed, Json::Str(expected.to_string()));
    }

    /// A lone surrogate escape is a parse error (never a panic), wherever
    /// it sits in the string.
    #[test]
    fn lone_surrogate_is_typed_error(
        unit in 0xD800u32..0xE000,
        prefix in 0u32..3,
    ) {
        let pre = ["", "a", "\\n"][prefix as usize];
        let doc = format!("\"{pre}\\u{unit:04x}\"");
        let err = Json::parse(&doc).expect_err("lone surrogate must not parse");
        prop_assert!(err.reason.contains("surrogate"), "{}", err.reason);
    }

    /// Whole documents — nested arrays and objects holding numbers and
    /// escape-heavy strings — parse back to the value that wrote them,
    /// and writing the parsed value again gives the same bytes.
    #[test]
    fn document_round_trips_byte_identically(seed in 0u64..=u64::MAX, depth in 0usize..6) {
        let v = Choices(seed).value(depth);
        let compact = v.to_json();
        let back = Json::parse(&compact).expect("compact re-parse");
        prop_assert_eq!(&back, &v);
        prop_assert_eq!(back.to_json(), compact);
        let pretty = v.to_json_pretty();
        let back = Json::parse(&pretty).expect("pretty re-parse");
        prop_assert_eq!(&back, &v);
        prop_assert_eq!(back.to_json_pretty(), pretty);
    }
}
