//! A minimal JSON value, parser, and writer.
//!
//! The workspace builds offline and deliberately carries no serde
//! dependency, but the network protocol ([`Server`](crate::Server)) speaks JSON and the
//! bench bins merge sections into already-written artifacts. This module is
//! the small, dependency-free subset both need: a [`Json`] tree that
//! preserves object key order, a strict parser, and a writer whose output
//! round-trips through the parser.
//!
//! Numbers are held as `f64`. Every integer the protocol carries (u32
//! values, counters, fact ids) fits `f64` exactly up to 2^53; 64-bit values
//! above that lose precision and are therefore transported as strings by the
//! protocol layer, not by this module.

use std::fmt::{self, Write as _};

/// A parsed JSON value. Object keys keep their insertion order, so a
/// parse → modify → write round trip preserves the document layout.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up a key in an object (`None` for other variants or missing
    /// keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is a whole number in range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => Some(*n as u64),
            _ => None,
        }
    }

    /// The value as a signed integer, if it is a whole number that `f64`
    /// represents exactly (|n| ≤ 2^53).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Num(n) if n.fract() == 0.0 && n.abs() <= 2f64.powi(53) => Some(*n as i64),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Inserts or replaces `key` in an object (no-op on other variants).
    pub fn set(&mut self, key: &str, value: Json) {
        if let Json::Obj(pairs) = self {
            match pairs.iter_mut().find(|(k, _)| k == key) {
                Some((_, v)) => *v = value,
                None => pairs.push((key.to_string(), value)),
            }
        }
    }

    /// Serializes the value on one line.
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        write_value(self, &mut out, None, 0);
        out
    }

    /// Serializes the value with 2-space indentation.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        write_value(self, &mut out, Some(2), 0);
        out.push('\n');
        out
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Self {
        Json::Str(s.to_string())
    }
}

impl From<f64> for Json {
    fn from(n: f64) -> Self {
        Json::Num(n)
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Self {
        Json::Num(n as f64)
    }
}

impl From<i64> for Json {
    fn from(n: i64) -> Self {
        Json::Num(n as f64)
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Self {
        Json::Num(n as f64)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Self {
        Json::Bool(b)
    }
}

/// Builds a [`Json::Obj`] from `(key, value)` pairs in order.
pub fn obj<const N: usize>(pairs: [(&str, Json); N]) -> Json {
    Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// Where and why a parse failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub at: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Parses a complete JSON document (trailing whitespace allowed, trailing
/// garbage rejected).
///
/// # Errors
///
/// Returns a [`JsonError`] pointing at the first offending byte.
pub fn parse(input: &str) -> Result<Json, JsonError> {
    parse_bytes(input.as_bytes())
}

/// Parses a complete JSON document from raw bytes, as read off a socket.
///
/// Structure is ASCII, so validation happens where non-ASCII bytes can
/// legally appear: invalid UTF-8 inside a string literal is reported at that
/// string, and a stray non-ASCII byte anywhere else fails as an unexpected
/// character — either way the connection thread gets a [`JsonError`] instead
/// of a panic.
///
/// # Errors
///
/// Returns a [`JsonError`] pointing at the first offending byte.
pub fn parse_bytes(input: &[u8]) -> Result<Json, JsonError> {
    let mut parser = Parser {
        bytes: input,
        pos: 0,
    };
    parser.skip_ws();
    let value = parser.value(0)?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(parser.err("trailing characters after the document"));
    }
    Ok(value)
}

/// Nesting ceiling: the protocol's documents are a few levels deep; a
/// recursion bomb in a request must not overflow the connection thread's
/// stack.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            at: self.pos,
            message: message.to_string(),
        }
    }

    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.bytes.get(self.pos) {
            self.pos += 1;
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
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("document nests too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected `{text}`")))
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') = self.peek() {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii digits");
        let n: f64 = text.parse().map_err(|_| JsonError {
            at: start,
            message: format!("malformed number `{text}`"),
        })?;
        if !n.is_finite() {
            return Err(JsonError {
                at: start,
                message: "number out of range".to_string(),
            });
        }
        Ok(Json::Num(n))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: a run of plain bytes copied as one str slice.
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8 in string"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escape = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let code = self.hex4()?;
                            let ch = if (0xD800..0xDC00).contains(&code) {
                                // High surrogate: require the paired low
                                // surrogate escape.
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.expect(b'u')?;
                                    let low = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&low) {
                                        return Err(self.err("unpaired surrogate"));
                                    }
                                    let c = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                    char::from_u32(c)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(code)
                            };
                            out.push(ch.ok_or_else(|| self.err("invalid \\u escape"))?);
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                _ => return Err(self.err("unterminated string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut code = 0u32;
        for _ in 0..4 {
            let digit = self
                .peek()
                .and_then(|b| (b as char).to_digit(16))
                .ok_or_else(|| self.err("expected 4 hex digits"))?;
            code = code * 16 + digit;
            self.pos += 1;
        }
        Ok(code)
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).expect("writing to a String");
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn write_number(n: f64, out: &mut String) {
    let written = if n.fract() == 0.0 && n.abs() < 2f64.powi(53) {
        write!(out, "{}", n as i64)
    } else {
        write!(out, "{n}")
    };
    written.expect("writing to a String");
}

/// Before an item or a closing bracket at nesting `level`: in pretty output
/// a newline and the level's indentation, in compact output nothing.
fn write_pad(out: &mut String, indent: Option<usize>, level: usize) {
    if let Some(width) = indent {
        out.push('\n');
        out.extend(std::iter::repeat(' ').take(width * level));
    }
}

/// Writes `value` straight into `out`: no intermediate string per value,
/// separator or number.
fn write_value(value: &Json, out: &mut String, indent: Option<usize>, level: usize) {
    let item_sep = if indent.is_some() { "," } else { ", " };
    match value {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Num(n) => write_number(*n, out),
        Json::Str(s) => write_escaped(s, out),
        Json::Arr(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(item_sep);
                }
                write_pad(out, indent, level + 1);
                write_value(item, out, indent, level + 1);
            }
            write_pad(out, indent, level);
            out.push(']');
        }
        Json::Obj(pairs) => {
            if pairs.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (key, item)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push_str(item_sep);
                }
                write_pad(out, indent, level + 1);
                write_escaped(key, out);
                out.push_str(": ");
                write_value(item, out, indent, level + 1);
            }
            write_pad(out, indent, level);
            out.push('}');
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_scalars_arrays_and_objects() {
        let doc = r#"{"a": 1, "b": [true, null, "x\ny"], "c": {"d": -2.5}}"#;
        let value = parse(doc).unwrap();
        assert_eq!(value.get("a").and_then(Json::as_u64), Some(1));
        assert_eq!(
            value.get("b").and_then(Json::as_arr).map(<[Json]>::len),
            Some(3)
        );
        assert_eq!(
            value
                .get("c")
                .and_then(|c| c.get("d"))
                .and_then(Json::as_f64),
            Some(-2.5)
        );
        let reparsed = parse(&value.to_compact()).unwrap();
        assert_eq!(value, reparsed);
        let reparsed = parse(&value.to_pretty()).unwrap();
        assert_eq!(value, reparsed);
    }

    #[test]
    fn key_order_is_preserved_through_a_round_trip() {
        let doc = r#"{"zeta": 1, "alpha": 2, "mid": 3}"#;
        let out = parse(doc).unwrap().to_compact();
        let zeta = out.find("zeta").unwrap();
        let alpha = out.find("alpha").unwrap();
        let mid = out.find("mid").unwrap();
        assert!(zeta < alpha && alpha < mid, "reordered: {out}");
    }

    #[test]
    fn set_replaces_and_appends() {
        let mut value = parse(r#"{"a": 1}"#).unwrap();
        value.set("a", Json::from(2u64));
        value.set("b", Json::from("new"));
        assert_eq!(value.get("a").and_then(Json::as_u64), Some(2));
        assert_eq!(value.get("b").and_then(Json::as_str), Some("new"));
    }

    #[test]
    fn escapes_survive_both_directions() {
        let original = Json::Str("quote \" slash \\ newline \n tab \t unicode \u{1F980}".into());
        let parsed = parse(&original.to_compact()).unwrap();
        assert_eq!(original, parsed);
        // Raw astral chars and their surrogate-pair escape parse alike.
        assert_eq!(parse(r#""🦀""#).unwrap(), Json::Str("\u{1F980}".into()));
        let escaped = String::from(r#"""#) + "\\ud83e\\udd80" + r#"""#;
        assert_eq!(parse(&escaped).unwrap(), Json::Str("\u{1F980}".into()));
    }

    #[test]
    fn malformed_documents_are_rejected_with_positions() {
        for doc in [
            "",
            "{",
            "[1,]",
            r#"{"a" 1}"#,
            "tru",
            "1 2",
            r#""\ud800""#,
            "nan",
            &format!("{}1{}", "[".repeat(80), "]".repeat(80)),
        ] {
            assert!(parse(doc).is_err(), "accepted: {doc}");
        }
    }

    #[test]
    fn integers_print_without_a_fraction() {
        assert_eq!(Json::from(42u64).to_compact(), "42");
        assert_eq!(Json::Num(2.5).to_compact(), "2.5");
    }

    #[test]
    fn nesting_is_accepted_at_the_bound_and_rejected_one_past_it() {
        // The innermost value of k nested arrays parses at depth k, so the
        // ceiling admits exactly MAX_DEPTH brackets.
        let at_bound = format!("{}1{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&at_bound).is_ok());
        let past_bound = format!(
            "{}1{}",
            "[".repeat(MAX_DEPTH + 1),
            "]".repeat(MAX_DEPTH + 1)
        );
        let err = parse(&past_bound).unwrap_err();
        assert!(err.message.contains("too deep"), "{err}");
        // Objects count against the same ceiling as arrays.
        let mixed = format!("{}1{}", r#"{"k": ["#.repeat(40), "]}".repeat(40));
        assert!(parse(&mixed).is_err());
    }

    #[test]
    fn invalid_utf8_payloads_error_instead_of_panicking() {
        // A lone continuation byte inside a string literal.
        assert!(parse_bytes(b"\"\xff\"").is_err());
        // A truncated multi-byte sequence mid-string.
        assert!(parse_bytes(b"{\"k\": \"\xe2\x82\"}").is_err());
        // Overlong encoding of `/`.
        assert!(parse_bytes(b"[\"\xc0\xaf\"]").is_err());
        // A stray non-ASCII byte outside any string.
        assert!(parse_bytes(b"\xf0\x9f\xa6\x80").is_err());
        // Valid bytes parse identically to the &str entry point.
        assert_eq!(parse_bytes("[1, \"🦀\"]".as_bytes()), parse("[1, \"🦀\"]"));
    }

    #[test]
    fn integer_boundaries_respect_the_exact_f64_range() {
        let max_exact = 1u64 << 53;
        // 2^53 and 2^53 - 1 are exact and round-trip through text.
        for n in [max_exact, max_exact - 1] {
            let parsed = parse(&Json::from(n).to_compact()).unwrap();
            assert_eq!(parsed.as_u64(), Some(n));
        }
        // 2^53 + 2 is representable in f64 but outside the exact window, so
        // the accessors refuse rather than hand back a possibly-off value.
        let past = Json::Num((max_exact + 2) as f64);
        assert_eq!(past.as_u64(), None);
        assert_eq!(past.as_i64(), None);
        // Signed boundaries: ±2^53 round-trip via From<i64>/as_i64 ...
        for n in [-(1i64 << 53), 1i64 << 53, -42, 0] {
            let parsed = parse(&Json::from(n).to_compact()).unwrap();
            assert_eq!(parsed.as_i64(), Some(n));
        }
        // ... while i64::MIN is far outside it and negatives are not u64s.
        assert_eq!(Json::Num(i64::MIN as f64).as_i64(), None);
        assert_eq!(Json::from(-1i64).as_u64(), None);
        assert_eq!(Json::Num(1.5).as_i64(), None);
    }

    /// Nesting, empty containers, escapes, integers at and inside ±2^53,
    /// negative zero and non-integers.
    fn pinned_document() -> Json {
        let num = Json::Num;
        let two53 = 2f64.powi(53);
        let key = |k: &str| k.to_string();
        Json::Obj(vec![
            (
                key("nested"),
                Json::Arr(vec![
                    Json::Obj(vec![(
                        key("a"),
                        Json::Arr(vec![num(1.0), Json::Arr(vec![])]),
                    )]),
                    Json::Obj(vec![]),
                ]),
            ),
            (
                key("empty"),
                Json::Arr(vec![Json::Obj(vec![]), Json::Arr(vec![])]),
            ),
            (
                key("esc\"aped"),
                Json::Str("q\" b\\ n\n r\r t\t c\u{1} d\u{1f} \u{1F980}".into()),
            ),
            (
                key("integers"),
                Json::Arr(vec![
                    num(two53),
                    num(-two53),
                    num(two53 - 1.0),
                    num(-(two53 - 1.0)),
                    num(0.0),
                    num(-0.0),
                ]),
            ),
            (
                key("fractions"),
                Json::Arr(vec![
                    num(2.5),
                    num(-0.125),
                    num(1.5e-7),
                    num(two53 + 2.0),
                    num(1e21),
                ]),
            ),
            (
                key("flags"),
                Json::Arr(vec![Json::Bool(true), Json::Bool(false), Json::Null]),
            ),
        ])
    }

    #[test]
    fn the_writer_emits_pinned_bytes() {
        let doc = pinned_document();
        let compact = concat!(
            r#"{"nested": [{"a": [1, []]}, {}], "empty": [{}, []], "#,
            r#""esc\"aped": "q\" b\\ n\n r\r t\t c\u0001 d\u001f 🦀", "#,
            r#""integers": [9007199254740992, -9007199254740992, 9007199254740991, "#,
            r#"-9007199254740991, 0, 0], "#,
            r#""fractions": [2.5, -0.125, 0.00000015, 9007199254740994, "#,
            r#"1000000000000000000000], "flags": [true, false, null]}"#,
        );
        assert_eq!(doc.to_compact(), compact);
        let pretty = r#"{
  "nested": [
    {
      "a": [
        1,
        []
      ]
    },
    {}
  ],
  "empty": [
    {},
    []
  ],
  "esc\"aped": "q\" b\\ n\n r\r t\t c\u0001 d\u001f 🦀",
  "integers": [
    9007199254740992,
    -9007199254740992,
    9007199254740991,
    -9007199254740991,
    0,
    0
  ],
  "fractions": [
    2.5,
    -0.125,
    0.00000015,
    9007199254740994,
    1000000000000000000000
  ],
  "flags": [
    true,
    false,
    null
  ]
}
"#;
        assert_eq!(doc.to_pretty(), pretty);
    }

    #[test]
    fn duplicate_keys_parse_and_get_returns_the_first() {
        let value = parse(r#"{"k": 1, "k": 2, "other": 3}"#).unwrap();
        assert_eq!(value.get("k").and_then(Json::as_u64), Some(1));
        // Both pairs survive a round trip in order — the writer does not
        // dedupe what the parser preserved.
        let out = value.to_compact();
        assert_eq!(out.matches("\"k\"").count(), 2);
        assert_eq!(parse(&out).unwrap(), value);
        // `set` targets the first occurrence, matching `get`.
        let mut value = value;
        value.set("k", Json::from(9u64));
        assert_eq!(value.get("k").and_then(Json::as_u64), Some(9));
    }
}
