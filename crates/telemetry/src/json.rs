//! The workspace's one JSON module: the one writer every document and
//! response body is built with, and a strict parser (the workspace
//! carries no serializer dependency).
//!
//! Writing goes through [`object`]: a caller names the members of one
//! object and [`Object`] places the braces, commas and escaped keys,
//! escapes strings and gives floats a fixed six decimals, so identical
//! inputs give identical bytes. Metrics documents
//! ([`Registry::to_json`](crate::Registry::to_json)), bench baselines
//! and every server and router response body are written this way;
//! nothing outside this module frames JSON by hand. Reading is
//! [`Value::parse`], which implements
//! just enough of RFC 8259 to read request bodies, registry documents
//! and bench baselines strictly: all six value types, string escapes
//! (including `\uXXXX`), and nothing else — no comments, no trailing
//! commas, no duplicate-key tolerance beyond last-wins. Errors carry
//! the byte offset where parsing failed so a `400` response can point
//! at the problem. [`Value::metric`] reads one metric back out of a
//! parsed [`Registry`](crate::Registry) document.

use std::fmt::{self, Write as _};

/// Appends `s` as a JSON string literal (with escaping) to `out`.
///
/// Every escaped character is ASCII, so each run between two of them
/// ends on a character boundary and is copied whole.
fn write_string(out: &mut String, s: &str) {
    out.push('"');
    let mut run = 0;
    for (i, byte) in s.bytes().enumerate() {
        if byte >= 0x20 && byte != b'"' && byte != b'\\' {
            continue;
        }
        out.push_str(&s[run..i]);
        match byte {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                let _ = write!(out, "\\u{byte:04x}");
            }
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Appends `value` with a fixed six-decimal representation.
///
/// Non-finite values (which would not be valid JSON) are written as 0;
/// every exporter in the stack guards its divisions, so this is a
/// belt-and-braces rule, not an expected path.
fn write_f64(out: &mut String, value: f64) {
    let value = if value.is_finite() { value } else { 0.0 };
    let _ = write!(out, "{value:.6}");
}

/// Appends `[…]` holding `items`, each written by `write`.
fn write_array<T>(
    out: &mut String,
    items: impl IntoIterator<Item = T>,
    mut write: impl FnMut(&mut String, T),
) {
    out.push('[');
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write(out, item);
    }
    out.push(']');
}

/// Writes the object `fill` describes and returns it.
///
/// ```
/// let doc = telemetry::json::object(|o| {
///     o.str("scale", "smoke").objects("results", [1u64, 2], |row, n| {
///         row.u64("n", n);
///     });
/// });
/// assert_eq!(doc, r#"{"scale":"smoke","results":[{"n":1},{"n":2}]}"#);
/// ```
pub fn object(fill: impl FnOnce(&mut Object<'_>)) -> String {
    let mut out = String::new();
    write_object(&mut out, fill);
    out
}

fn write_object(out: &mut String, fill: impl FnOnce(&mut Object<'_>)) {
    out.push('{');
    fill(&mut Object { out, empty: true });
    out.push('}');
}

/// The members of one object being written by [`object`]. Each call
/// appends one member after a comma where one is needed; keys and
/// string values are escaped, floats take six decimals.
pub struct Object<'a> {
    out: &'a mut String,
    empty: bool,
}

impl Object<'_> {
    fn key(&mut self, key: &str) -> &mut String {
        if !std::mem::take(&mut self.empty) {
            self.out.push(',');
        }
        write_string(self.out, key);
        self.out.push(':');
        self.out
    }

    /// Appends a string member.
    pub fn str(&mut self, key: &str, value: &str) -> &mut Self {
        write_string(self.key(key), value);
        self
    }

    /// Appends an unsigned integer member.
    pub fn u64(&mut self, key: &str, value: u64) -> &mut Self {
        let _ = write!(self.key(key), "{value}");
        self
    }

    /// Appends a signed integer member.
    pub fn i64(&mut self, key: &str, value: i64) -> &mut Self {
        let _ = write!(self.key(key), "{value}");
        self
    }

    /// Appends a float member with six decimals (non-finite values are
    /// written as 0).
    pub fn f64(&mut self, key: &str, value: f64) -> &mut Self {
        write_f64(self.key(key), value);
        self
    }

    /// Appends a `true`/`false` member.
    pub fn bool(&mut self, key: &str, value: bool) -> &mut Self {
        self.key(key).push_str(if value { "true" } else { "false" });
        self
    }

    /// Appends an array member of unsigned integers.
    pub fn u64s(&mut self, key: &str, values: impl IntoIterator<Item = u64>) -> &mut Self {
        write_array(self.key(key), values, |out, value| {
            let _ = write!(out, "{value}");
        });
        self
    }

    /// Appends an array member of `[a,b,c]` integer triples, such as a
    /// histogram's `[low, high, count]` buckets.
    pub fn u64_triples(
        &mut self,
        key: &str,
        triples: impl IntoIterator<Item = (u64, u64, u64)>,
    ) -> &mut Self {
        write_array(self.key(key), triples, |out, (a, b, c)| {
            let _ = write!(out, "[{a},{b},{c}]");
        });
        self
    }

    /// Appends a nested object member that `fill` describes.
    pub fn object(&mut self, key: &str, fill: impl FnOnce(&mut Object<'_>)) -> &mut Self {
        write_object(self.key(key), fill);
        self
    }

    /// Appends an array member holding one object per item, each
    /// described by `fill`.
    pub fn objects<T>(
        &mut self,
        key: &str,
        items: impl IntoIterator<Item = T>,
        mut fill: impl FnMut(&mut Object<'_>, T),
    ) -> &mut Self {
        write_array(self.key(key), items, |out, item| write_object(out, |row| fill(row, item)));
        self
    }
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (integers are exact up to 2^53).
    Number(f64),
    /// String with escapes resolved.
    String(String),
    /// Array of values.
    Array(Vec<Value>),
    /// Object as insertion-ordered key/value pairs (last duplicate wins
    /// on lookup, matching the common behavior).
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Parses one complete JSON document; trailing non-whitespace is an
    /// error.
    pub fn parse(text: &str) -> Result<Value, ParseError> {
        let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.error("trailing data after JSON value"));
        }
        Ok(value)
    }

    /// Object member lookup (`None` for non-objects and missing keys).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(members) => members.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The `"value"` of metric `name` in a registry document
    /// (`{"metrics":[{"name":…,"value":…}]}`, as
    /// [`Registry::to_json`](crate::Registry::to_json) writes it);
    /// `None` when the document has no such metric.
    pub fn metric(&self, name: &str) -> Option<&Value> {
        let Some(Value::Array(metrics)) = self.get("metrics") else { return None };
        metrics.iter().find(|m| m.get("name").and_then(Value::as_str) == Some(name))?.get("value")
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// A parse failure: what went wrong and the byte offset it happened at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Human description of the failure.
    pub message: String,
    /// Byte offset into the input where parsing stopped.
    pub offset: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for ParseError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn error(&self, message: &str) -> ParseError {
        ParseError { message: message.to_owned(), offset: self.pos }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), ParseError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected {:?}", byte as char)))
        }
    }

    fn literal(&mut self, text: &str, value: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected {text:?}")))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.error("unexpected character")),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(members));
                }
                _ => return Err(self.error("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.error("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escape = self.peek().ok_or_else(|| self.error("unterminated escape"))?;
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
                            let unit = self.hex4()?;
                            // Surrogate pairs: a high surrogate must be
                            // followed by an escaped low surrogate.
                            let ch = if (0xD800..0xDC00).contains(&unit) {
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.expect(b'u')?;
                                } else {
                                    return Err(self.error("unpaired surrogate"));
                                }
                                let low = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err(self.error("invalid low surrogate"));
                                }
                                let code = 0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00);
                                char::from_u32(code)
                            } else {
                                char::from_u32(unit)
                            };
                            out.push(ch.ok_or_else(|| self.error("invalid unicode escape"))?);
                        }
                        _ => return Err(self.error("invalid escape")),
                    }
                }
                Some(c) if c < 0x20 => return Err(self.error("control character in string")),
                Some(_) => {
                    // Copy one UTF-8 scalar (input is a &str, so the
                    // encoding is already valid).
                    let start = self.pos;
                    self.pos += 1;
                    while self.pos < self.bytes.len() && self.bytes[self.pos] & 0xC0 == 0x80 {
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .expect("slice on scalar boundary"),
                    );
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.error("truncated unicode escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.error("invalid unicode escape"))?;
        let unit =
            u32::from_str_radix(hex, 16).map_err(|_| self.error("invalid unicode escape"))?;
        self.pos = end;
        Ok(unit)
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii number");
        text.parse::<f64>()
            .map(Value::Number)
            .map_err(|_| ParseError { message: format!("invalid number {text:?}"), offset: start })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{catalog, EpochSeries, Log2Histogram, Registry};

    fn string(s: &str) -> String {
        let mut out = String::new();
        write_string(&mut out, s);
        out
    }

    #[test]
    fn write_string_escapes_specials() {
        assert_eq!(string("a\"b"), r#""a\"b""#);
        assert_eq!(string("a\\b"), r#""a\\b""#);
        assert_eq!(string("a\nb"), r#""a\nb""#);
        assert_eq!(string("a\u{1}b"), "\"a\\u0001b\"");
        assert_eq!(string("é\"ü\tß"), "\"é\\\"ü\\tß\"");
    }

    #[test]
    fn floats_are_fixed_precision() {
        let mut out = String::new();
        write_f64(&mut out, 1.5);
        assert_eq!(out, "1.500000");
        let mut out = String::new();
        write_f64(&mut out, f64::NAN);
        assert_eq!(out, "0.000000");
    }

    #[test]
    fn parses_the_request_schema() {
        let v = Value::parse(
            r#"{"workload": {"kind": "crypto", "seed": 7, "length": 20000},
                "improvements": "All_imps", "core": "iiswc", "epochs": 1000}"#,
        )
        .unwrap();
        assert_eq!(v.get("core").and_then(Value::as_str), Some("iiswc"));
        assert_eq!(v.get("epochs").and_then(Value::as_u64), Some(1000));
        let w = v.get("workload").unwrap();
        assert_eq!(w.get("kind").and_then(Value::as_str), Some("crypto"));
        assert_eq!(w.get("seed").and_then(Value::as_u64), Some(7));
    }

    #[test]
    fn parses_all_value_types() {
        let v = Value::parse(r#"{"a": [1, -2.5, true, false, null, "sA\n"]}"#).unwrap();
        let Some(Value::Array(items)) = v.get("a") else { panic!("array") };
        assert_eq!(items[0], Value::Number(1.0));
        assert_eq!(items[1], Value::Number(-2.5));
        assert_eq!(items[2], Value::Bool(true));
        assert_eq!(items[3], Value::Bool(false));
        assert_eq!(items[4], Value::Null);
        assert_eq!(items[5], Value::String("sA\n".to_owned()));
    }

    #[test]
    fn surrogate_pairs_decode() {
        let v = Value::parse(r#""😀""#).unwrap();
        assert_eq!(v.as_str(), Some("\u{1F600}"));
    }

    #[test]
    fn errors_carry_byte_offsets() {
        let err = Value::parse(r#"{"a": }"#).unwrap_err();
        assert_eq!(err.offset, 6);
        let err = Value::parse("[1, 2").unwrap_err();
        assert!(err.message.contains("',' or ']'"), "{err}");
        assert!(Value::parse("{} extra").unwrap_err().message.contains("trailing"));
        assert!(Value::parse(r#""\ud800x""#).unwrap_err().message.contains("surrogate"));
    }

    #[test]
    fn duplicate_keys_last_wins() {
        let v = Value::parse(r#"{"k": 1, "k": 2}"#).unwrap();
        assert_eq!(v.get("k").and_then(Value::as_f64), Some(2.0));
    }

    #[test]
    fn as_u64_rejects_fractions_and_negatives() {
        assert_eq!(Value::Number(3.0).as_u64(), Some(3));
        assert_eq!(Value::Number(3.5).as_u64(), None);
        assert_eq!(Value::Number(-1.0).as_u64(), None);
    }

    #[test]
    fn objects_place_commas_and_escape_keys_and_strings() {
        let doc = object(|o| {
            o.str("a\"b", "c\\d").object("empty", |_| {}).objects("rows", 0..3u64, |row, n| {
                row.u64("n", n).f64("half", n as f64 / 2.0);
            });
        });
        assert_eq!(
            doc,
            r#"{"a\"b":"c\\d","empty":{},"rows":[{"n":0,"half":0.000000},{"n":1,"half":0.500000},{"n":2,"half":1.000000}]}"#
        );
        let parsed = Value::parse(&doc).unwrap();
        assert_eq!(parsed.get("a\"b").and_then(Value::as_str), Some("c\\d"));
        assert_eq!(
            object(|o| {
                o.objects("none", Vec::<u64>::new(), |_, _| {});
            }),
            r#"{"none":[]}"#
        );
    }

    #[test]
    fn written_strings_parse_back() {
        let original = "a\"b\\c\nd\te\u{1}";
        let parsed = Value::parse(&string(original)).unwrap();
        assert_eq!(parsed.as_str(), Some(original));
    }

    /// The writer and the parser agree on the registry document: every
    /// metric kind, labels and the epoch section read back as written.
    #[test]
    fn registry_documents_parse_back_metric_by_metric() {
        let mut registry = Registry::new();
        registry.label("tool", "json \"test\"");
        registry.counter(&catalog::SIM_INSTRUCTIONS, 1_000);
        registry.gauge(&catalog::SIM_IPC, 1.25);
        let mut histogram = Log2Histogram::new();
        histogram.record(3);
        histogram.record(40);
        registry.histogram(&catalog::SIM_ROB_OCCUPANCY, histogram);
        let mut epochs = EpochSeries::new(500, &["cycles"]);
        epochs.push_row(&[400]);
        epochs.push_row(&[450]);
        registry.set_epochs(epochs);

        let doc = Value::parse(&registry.to_json()).unwrap();
        assert_eq!(
            doc.get("labels").and_then(|l| l.get("tool")).and_then(Value::as_str),
            Some("json \"test\"")
        );
        assert_eq!(doc.metric("sim.instructions").and_then(Value::as_u64), Some(1_000));
        assert_eq!(doc.metric("sim.ipc").and_then(Value::as_f64), Some(1.25));
        let occupancy = doc.metric("sim.rob.occupancy").unwrap();
        assert_eq!(occupancy.get("count").and_then(Value::as_u64), Some(2));
        assert_eq!(occupancy.get("max").and_then(Value::as_u64), Some(40));
        assert_eq!(occupancy.get("mean").and_then(Value::as_f64), Some(21.5));
        assert_eq!(doc.metric("sim.cycles"), None, "absent metric");
        let Some(Value::Array(cycles)) =
            doc.get("epochs").and_then(|e| e.get("series")).and_then(|s| s.get("cycles"))
        else {
            panic!("epoch series");
        };
        assert_eq!(cycles, &[Value::Number(400.0), Value::Number(450.0)]);
        let Some(Value::Array(metrics)) = doc.get("metrics") else { panic!("metrics") };
        assert_eq!(metrics.len(), registry.len());
    }
}
