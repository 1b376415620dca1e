//! Hand-rolled JSON writing and parsing.
//!
//! The build environment is offline, so the JSONL sink cannot lean on
//! `serde`. Events are flat objects with string/number fields — a few
//! dozen lines of escaping cover the writer — and the parser exists so
//! tests (and downstream consumers of telemetry files) can validate
//! every emitted line without external crates.

use std::fmt::Write as _;

/// Appends `s` to `out` as a JSON string literal (with quotes).
///
/// Escapes `"` and `\`, the common control shorthands (`\n`, `\r`,
/// `\t`), and every remaining control character below `U+0020` as
/// `\u00XX`. All other characters (including non-ASCII) pass through
/// verbatim — JSON strings are UTF-8.
pub fn escape_into(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Returns `s` as a quoted, escaped JSON string literal.
pub fn escaped(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    escape_into(&mut out, s);
    out
}

/// Incremental writer for a single flat JSON object.
///
/// # Example
///
/// ```
/// use hvac_telemetry::json::ObjectWriter;
///
/// let mut o = ObjectWriter::new();
/// o.str_field("event", "span_open");
/// o.u64_field("depth", 1);
/// assert_eq!(o.finish(), r#"{"event":"span_open","depth":1}"#);
/// ```
#[derive(Debug, Default)]
pub struct ObjectWriter {
    buf: String,
    any: bool,
}

impl ObjectWriter {
    /// Starts an empty object.
    pub fn new() -> Self {
        Self {
            buf: String::from("{"),
            any: false,
        }
    }

    fn key(&mut self, name: &str) {
        if self.any {
            self.buf.push(',');
        }
        self.any = true;
        escape_into(&mut self.buf, name);
        self.buf.push(':');
    }

    /// Adds a string field.
    pub fn str_field(&mut self, name: &str, value: &str) {
        self.key(name);
        escape_into(&mut self.buf, value);
    }

    /// Adds an unsigned integer field.
    pub fn u64_field(&mut self, name: &str, value: u64) {
        self.key(name);
        let _ = write!(self.buf, "{value}");
    }

    /// Adds a float field. Non-finite values are emitted as `null`
    /// (JSON has no NaN/Inf).
    pub fn f64_field(&mut self, name: &str, value: f64) {
        self.key(name);
        if value.is_finite() {
            // {:?} prints with round-trip precision.
            let _ = write!(self.buf, "{value:?}");
        } else {
            self.buf.push_str("null");
        }
    }

    /// Adds a boolean field.
    pub fn bool_field(&mut self, name: &str, value: bool) {
        self.key(name);
        self.buf.push_str(if value { "true" } else { "false" });
    }

    /// Adds an array of floats. Values round-trip bitwise through
    /// [`parse`] (written with `{:?}` precision); non-finite entries
    /// become `null`.
    pub fn f64_array_field(&mut self, name: &str, values: &[f64]) {
        self.key(name);
        self.buf.push('[');
        for (i, value) in values.iter().enumerate() {
            if i > 0 {
                self.buf.push(',');
            }
            if value.is_finite() {
                let _ = write!(self.buf, "{value:?}");
            } else {
                self.buf.push_str("null");
            }
        }
        self.buf.push(']');
    }

    /// Adds an array of strings.
    pub fn str_array_field(&mut self, name: &str, values: &[String]) {
        self.key(name);
        self.buf.push('[');
        for (i, value) in values.iter().enumerate() {
            if i > 0 {
                self.buf.push(',');
            }
            escape_into(&mut self.buf, value);
        }
        self.buf.push(']');
    }

    /// Closes the object and returns the JSON text.
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (parsed as `f64`).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, in source order.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Looks up a key in an object value.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an `f64`, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Number(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The value as a boolean, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// A JSON parse error with a byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub message: &'static str,
    /// Byte offset of the error.
    pub offset: usize,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Parses a complete JSON document (trailing whitespace allowed).
///
/// # Errors
///
/// Returns a [`JsonError`] locating the first malformed byte.
///
/// # Example
///
/// ```
/// use hvac_telemetry::json::parse;
///
/// let v = parse(r#"{"event":"counter","delta":3}"#).unwrap();
/// assert_eq!(v.get("delta").and_then(|d| d.as_u64()), Some(3));
/// ```
pub fn parse(input: &str) -> Result<JsonValue, JsonError> {
    let mut p = Parser {
        input,
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(value)
}

struct Parser<'a> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &'static str) -> JsonError {
        JsonError {
            message,
            offset: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8, message: &'static str) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(message))
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn object(&mut self) -> Result<JsonValue, JsonError> {
        self.eat(b'{', "expected '{'")?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':', "expected ':'")?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, JsonError> {
        self.eat(b'[', "expected '['")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"', "expected '\"'")?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            // Telemetry never emits surrogate pairs;
                            // lone surrogates decode to the replacement
                            // character rather than failing the line.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 3; // +1 more below
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the whole run up to the next delimiter as one
                    // slice. Both delimiters are ASCII, so the cut falls
                    // on a char boundary of the (already UTF-8) input.
                    let run = self.bytes[self.pos..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(self.bytes.len() - self.pos);
                    out.push_str(&self.input[self.pos..self.pos + run]);
                    self.pos += run;
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII digits are UTF-8");
        text.parse::<f64>()
            .map(JsonValue::Number)
            .map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_quotes_backslashes_and_controls() {
        assert_eq!(escaped(r#"a"b"#), r#""a\"b""#);
        assert_eq!(escaped(r"a\b"), r#""a\\b""#);
        assert_eq!(escaped("a\nb\tc\r"), r#""a\nb\tc\r""#);
        assert_eq!(escaped("\u{0001}\u{001f}"), r#""\u0001\u001f""#);
        assert_eq!(escaped("héllo °C"), "\"héllo °C\"");
    }

    #[test]
    fn object_writer_builds_valid_json() {
        let mut o = ObjectWriter::new();
        o.str_field("name", "pipe\"line");
        o.u64_field("count", 42);
        o.f64_field("secs", 1.5);
        o.f64_field("bad", f64::NAN);
        let text = o.finish();
        let v = parse(&text).unwrap();
        assert_eq!(
            v.get("name").and_then(JsonValue::as_str),
            Some("pipe\"line")
        );
        assert_eq!(v.get("count").and_then(JsonValue::as_u64), Some(42));
        assert_eq!(v.get("secs").and_then(JsonValue::as_f64), Some(1.5));
        assert_eq!(v.get("bad"), Some(&JsonValue::Null));
    }

    #[test]
    fn f64_arrays_round_trip_bitwise() {
        let values = [18.5, -0.0, 1.0 / 3.0, f64::MIN_POSITIVE, 1e300, f64::NAN];
        let mut o = ObjectWriter::new();
        o.f64_array_field("obs", &values);
        let v = parse(&o.finish()).unwrap();
        let items = v.get("obs").and_then(JsonValue::as_array).unwrap();
        assert_eq!(items.len(), values.len());
        for (item, original) in items.iter().zip(&values) {
            match item.as_f64() {
                Some(parsed) => assert_eq!(parsed.to_bits(), original.to_bits()),
                None => assert!(!original.is_finite()),
            }
        }
    }

    #[test]
    fn escape_round_trips_through_parser() {
        let nasty = "quote\" back\\slash \ncontrol\u{0007} unicode°∆ tab\t";
        let v = parse(&escaped(nasty)).unwrap();
        assert_eq!(v.as_str(), Some(nasty));

        // Seeded random strings: plain runs of 1- to 4-byte characters
        // cut by controls, quotes, backslashes and `\u` escapes, so
        // escapes land at the start, middle and end of runs.
        const PIECES: [char; 12] = [
            'a', '~', ' ', 'é', '°', '∆', '€', '😀', '𝄞', '\u{1}', '"', '\\',
        ];
        let mut state = 0x9E37_79B9_7F4A_7C15_u64;
        let mut next = |n: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % n as u64) as usize
        };
        for _ in 0..2_000 {
            let mut expected = String::new();
            // Hand-built literal: `\u` escapes instead of `escaped`'s
            // shorthands, at random positions between raw characters.
            let mut literal = String::from("\"");
            for _ in 0..next(24) {
                let c = PIECES[next(PIECES.len())];
                expected.push(c);
                // Astral characters stay raw: the parser decodes each
                // half of a surrogate pair to U+FFFD.
                let escape = matches!(c, '"' | '\\' | '\u{1}') || next(3) == 0;
                if escape && c.len_utf16() == 1 {
                    literal.push_str(&format!("\\u{:04x}", u32::from(c)));
                } else {
                    literal.push(c);
                }
            }
            assert_eq!(
                parse(&escaped(&expected)).unwrap().as_str(),
                Some(&*expected)
            );
            let unterminated = literal.clone();
            literal.push('"');
            assert_eq!(
                parse(&literal).unwrap().as_str(),
                Some(&*expected),
                "{literal}"
            );
            assert_eq!(
                parse(&unterminated),
                Err(JsonError {
                    message: "unterminated string",
                    offset: unterminated.len(),
                }),
                "{unterminated}"
            );
        }
    }

    #[test]
    fn parses_nested_values() {
        let v = parse(r#"{"a":[1,2.5,-3e2],"b":{"c":null,"d":true},"e":false}"#).unwrap();
        let a = v.get("a").unwrap();
        assert_eq!(
            a,
            &JsonValue::Array(vec![
                JsonValue::Number(1.0),
                JsonValue::Number(2.5),
                JsonValue::Number(-300.0),
            ])
        );
        assert_eq!(v.get("b").unwrap().get("c"), Some(&JsonValue::Null));
        assert_eq!(v.get("e"), Some(&JsonValue::Bool(false)));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "{\"a\":}", "[1,]", "tru", "\"open", "{}x", "nan"] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn unicode_escapes_decode() {
        let v = parse(r#""°C ∆""#).unwrap();
        assert_eq!(v.as_str(), Some("°C ∆"));
    }
}
