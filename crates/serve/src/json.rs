//! A minimal JSON value, parser, and writer.
//!
//! The workspace builds offline and deliberately carries no serde
//! dependency, but the network protocol ([`Server`](crate::Server)) speaks JSON and the
//! bench bins merge sections into already-written artifacts. This module is
//! the small, dependency-free subset both need: a [`Json`] tree that
//! preserves object key order, a strict parser, and a writer whose output
//! round-trips through the parser.
//!
//! Both halves are built on crate-private pieces the wire path uses
//! directly: one pull tokenizer, which [`parse`] drives to build a tree and
//! the server drives to decode a `run` request straight into facts, and one
//! set of writer primitives, through which the tree writer and the wire
//! encoder write the same bytes for the same values.
//!
//! Numbers follow RFC 8259 §6 (no leading zeros, no bare `.`, a digit on
//! each side of the point) and are held as `f64`. Every integer the
//! protocol carries (u32 values, counters, fact ids) fits `f64` exactly up
//! to 2^53; 64-bit values above that lose precision and are therefore
//! transported as strings by the protocol layer, not by this module.

use std::borrow::Cow;
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
        self.write_compact(&mut out);
        out
    }

    /// Appends the value's [`Json::to_compact`] form to `out`.
    pub(crate) fn write_compact(&self, out: &mut String) {
        write_value(self, out, None, 0);
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
    let mut tokens = Tokens::new(input);
    tokens.skip_ws();
    let value = tokens.value(0)?;
    tokens.finish()?;
    Ok(value)
}

/// Parses a complete JSON document from raw bytes, as read off a socket.
///
/// Bytes that are not UTF-8 are reported where they start, so the
/// connection thread gets a [`JsonError`] instead of a panic.
///
/// # Errors
///
/// Returns a [`JsonError`] pointing at the first offending byte.
pub fn parse_bytes(input: &[u8]) -> Result<Json, JsonError> {
    let text = std::str::from_utf8(input).map_err(|e| JsonError {
        at: e.valid_up_to(),
        message: "invalid UTF-8".to_string(),
    })?;
    parse(text)
}

/// Nesting ceiling: the protocol's documents are a few levels deep; a
/// recursion bomb in a request must not overflow the connection thread's
/// stack.
pub(crate) const MAX_DEPTH: usize = 64;

/// Integers of up to this many digits are accumulated exactly (they are
/// below 2^53) instead of going through `f64::from_str`.
const EXACT_DIGITS: usize = 15;

/// The one JSON tokenizer: a cursor over a document that reads it piece by
/// piece. [`parse`] builds a [`Json`] tree with it; the wire decoder walks a
/// request with the same calls and builds no tree, so both accept and
/// reject the same bytes at the same offsets.
///
/// The cursor stops only on ASCII bytes, so every slice it hands out falls
/// on `char` boundaries.
pub(crate) struct Tokens<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Tokens<'a> {
    pub(crate) fn new(text: &'a str) -> Self {
        Tokens {
            text,
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    fn err(&self, message: &str) -> JsonError {
        JsonError {
            at: self.pos,
            message: message.to_string(),
        }
    }

    pub(crate) fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.bytes.get(self.pos) {
            self.pos += 1;
        }
    }

    /// After the document: only whitespace may follow.
    pub(crate) fn finish(&mut self) -> Result<(), JsonError> {
        self.skip_ws();
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(self.err("trailing characters after the document"))
        }
    }

    pub(crate) fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    /// Refuses a value at nesting `depth` past [`MAX_DEPTH`].
    pub(crate) fn enter(&self, depth: usize) -> Result<(), JsonError> {
        if depth > MAX_DEPTH {
            Err(self.err("document nests too deep"))
        } else {
            Ok(())
        }
    }

    /// Opens the object at the cursor; `true` when a member follows.
    pub(crate) fn begin_object(&mut self) -> Result<bool, JsonError> {
        self.eat(b'{')?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(false);
        }
        Ok(true)
    }

    /// A member's key and its `:`, leaving the cursor at the value.
    pub(crate) fn key(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.skip_ws();
        let key = self.string()?;
        self.skip_ws();
        self.eat(b':')?;
        self.skip_ws();
        Ok(key)
    }

    /// After a member's value: `true` when another member follows, `false`
    /// once the object is closed.
    pub(crate) fn next_member(&mut self) -> Result<bool, JsonError> {
        self.skip_ws();
        match self.peek() {
            Some(b',') => {
                self.pos += 1;
                Ok(true)
            }
            Some(b'}') => {
                self.pos += 1;
                Ok(false)
            }
            _ => Err(self.err("expected `,` or `}`")),
        }
    }

    /// Opens the array at the cursor; `true` when an item follows, with the
    /// cursor at it.
    pub(crate) fn begin_array(&mut self) -> Result<bool, JsonError> {
        self.eat(b'[')?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(false);
        }
        Ok(true)
    }

    /// After an item: `true` when another follows (the cursor is at it),
    /// `false` once the array is closed.
    pub(crate) fn next_item(&mut self) -> Result<bool, JsonError> {
        self.skip_ws();
        match self.peek() {
            Some(b',') => {
                self.pos += 1;
                self.skip_ws();
                Ok(true)
            }
            Some(b']') => {
                self.pos += 1;
                Ok(false)
            }
            _ => Err(self.err("expected `,` or `]`")),
        }
    }

    /// The value at the cursor as a tree. A number, `true`, `false` or
    /// `null` allocates nothing.
    pub(crate) fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.enter(depth)?;
        match self.peek() {
            Some(b'{') => {
                let mut pairs = Vec::new();
                if self.begin_object()? {
                    loop {
                        let key = self.key()?.into_owned();
                        pairs.push((key, self.value(depth + 1)?));
                        if !self.next_member()? {
                            break;
                        }
                    }
                }
                Ok(Json::Obj(pairs))
            }
            Some(b'[') => {
                let mut items = Vec::new();
                if self.begin_array()? {
                    loop {
                        items.push(self.value(depth + 1)?);
                        if !self.next_item()? {
                            break;
                        }
                    }
                }
                Ok(Json::Arr(items))
            }
            Some(b'"') => Ok(Json::Str(self.string()?.into_owned())),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number().map(Json::Num),
            _ => Err(self.err("expected a value")),
        }
    }

    /// The string at the cursor, borrowed from the document unless it holds
    /// escapes; anything else there is returned as its tree.
    pub(crate) fn string_or_tree(
        &mut self,
        depth: usize,
    ) -> Result<Result<Cow<'a, str>, Json>, JsonError> {
        if self.peek() == Some(b'"') {
            self.enter(depth)?;
            self.string().map(Ok)
        } else {
            self.value(depth).map(Err)
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

    /// A number as RFC 8259 §6 spells it:
    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`.
    fn number(&mut self) -> Result<f64, JsonError> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        let int_start = self.pos;
        match self.peek() {
            Some(b'0') => {
                self.pos += 1;
                if let Some(b'0'..=b'9') = self.peek() {
                    return Err(self.err("leading zero in a number"));
                }
            }
            Some(b'1'..=b'9') => self.digits()?,
            _ => return Err(self.err("expected a digit")),
        }
        let int_end = self.pos;
        let mut integral = true;
        if self.peek() == Some(b'.') {
            self.pos += 1;
            self.digits()?;
            integral = false;
        }
        if let Some(b'e' | b'E') = self.peek() {
            self.pos += 1;
            if let Some(b'+' | b'-') = self.peek() {
                self.pos += 1;
            }
            self.digits()?;
            integral = false;
        }
        if integral && int_end - int_start <= EXACT_DIGITS {
            let n = self.bytes[int_start..int_end]
                .iter()
                .fold(0u64, |n, d| n * 10 + u64::from(d - b'0')) as f64;
            return Ok(if negative { -n } else { n });
        }
        let text = &self.text[start..self.pos];
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
        Ok(n)
    }

    /// One or more ASCII digits.
    fn digits(&mut self) -> Result<(), JsonError> {
        let start = self.pos;
        while let Some(b'0'..=b'9') = self.peek() {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.err("expected a digit"));
        }
        Ok(())
    }

    /// Moves past bytes that stand for themselves inside a string.
    fn plain_run(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b'"' || b == b'\\' || b < 0x20 {
                break;
            }
            self.pos += 1;
        }
    }

    fn string(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.eat(b'"')?;
        let start = self.pos;
        self.plain_run();
        if self.peek() == Some(b'"') {
            self.pos += 1;
            return Ok(Cow::Borrowed(&self.text[start..self.pos - 1]));
        }
        let mut out = String::from(&self.text[start..self.pos]);
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(Cow::Owned(out));
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
                                    self.eat(b'u')?;
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
            let run = self.pos;
            self.plain_run();
            out.push_str(&self.text[run..self.pos]);
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
}

// ---------------------------------------------------------------------------
// Writer primitives: the tree writer below and the wire encoder both write
// through these, so a frame written straight from rows is the same bytes as
// its tree's `to_compact`.

/// Writes `s` as a JSON string literal.
pub(crate) fn write_str(s: &str, out: &mut String) {
    const HEX: [char; 16] = [
        '0', '1', '2', '3', '4', '5', '6', '7', '8', '9', 'a', 'b', 'c', 'd', 'e', 'f',
    ];
    out.push('"');
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if b != b'"' && b != b'\\' && b >= 0x20 {
            continue;
        }
        // `i` is at an ASCII byte, so the slice ends on a char boundary.
        out.push_str(&s[run..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                out.push_str("\\u00");
                out.push(HEX[usize::from(b >> 4)]);
                out.push(HEX[usize::from(b & 0xf)]);
            }
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Writes an integer in decimal.
pub(crate) fn write_int(n: i64, out: &mut String) {
    if n < 0 {
        out.push('-');
    }
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    let mut rest = n.unsigned_abs();
    loop {
        start -= 1;
        digits[start] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    out.extend(digits[start..].iter().map(|&d| char::from(d)));
}

/// Writes a number: a whole number below 2^53 as an integer, anything else
/// in Rust's shortest round-trip form, which parses back to the same bits.
pub(crate) fn write_number(n: f64, out: &mut String) {
    if n.fract() == 0.0 && n.abs() < 2f64.powi(53) {
        write_int(n as i64, out);
    } else {
        // cannot fail: writing to a `String` only grows it.
        write!(out, "{n}").expect("writing to a String");
    }
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
        Json::Str(s) => write_str(s, out),
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
                write_str(key, out);
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
    fn numbers_outside_rfc_8259_are_rejected_with_positions() {
        for (doc, at) in [
            ("01", 1),
            ("00.1", 1),
            ("1.", 2),
            ("-.5", 1),
            ("1.e3", 2),
            ("-", 1),
            ("1e", 2),
            ("1e+", 3),
            ("+1", 0),
            (".5", 0),
            ("[1, -01]", 6),
        ] {
            let err = parse(doc).expect_err(doc);
            assert_eq!(err.at, at, "{doc}: {err}");
        }
        // What the grammar allows still parses, to the same bits as
        // `f64::from_str`, on both sides of the exact-integer fast path.
        for doc in [
            "0",
            "-0",
            "10",
            "999999999999999",
            "9999999999999999",
            "-123456789012345",
            "18446744073709551616",
            "0.5",
            "-0.0",
            "1e3",
            "1E+3",
            "2.5e-3",
            "1e300",
        ] {
            let n = parse(doc).ok().and_then(|v| v.as_f64());
            let want: f64 = doc.parse().unwrap();
            assert_eq!(n.map(f64::to_bits), Some(want.to_bits()), "{doc}");
        }
        assert!(parse("1e400").is_err());
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
