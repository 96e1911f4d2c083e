//! Minimal JSON: a [`Value`] tree, a compact writer (`Display`) and a
//! strict recursive-descent parser.
//!
//! Exists so `repro` run reports and the daemon's JSON bodies need no
//! external serialization crates. Only what those call sites use is
//! implemented; numbers are `f64` (integral values up to 2⁵³ round-trip
//! exactly, plenty for nanosecond counts).

use std::fmt;
use std::ops::Index;

/// A parsed or constructed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object; insertion order is preserved when writing.
    Object(Vec<(String, Value)>),
}

static NULL: Value = Value::Null;

impl Value {
    /// The value under `key`, if this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The element at `idx`, if this is an array long enough.
    pub fn at(&self, idx: usize) -> Option<&Value> {
        match self {
            Value::Array(items) => items.get(idx),
            _ => None,
        }
    }

    /// As a float, if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// As an unsigned integer, if numeric, integral and in range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if n.fract() == 0.0 && *n >= 0.0 && *n <= 9_007_199_254_740_992.0 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// As a string slice, if a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// As a bool, if boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// As an array slice, if an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// As object fields, if an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(fields) => Some(fields),
            _ => None,
        }
    }
}

impl Index<&str> for Value {
    type Output = Value;

    /// `value["key"]`; yields `Null` for missing keys or non-objects, so
    /// lookups chain without panicking.
    fn index(&self, key: &str) -> &Value {
        self.get(key).unwrap_or(&NULL)
    }
}

impl Index<usize> for Value {
    type Output = Value;

    /// `value[i]`; yields `Null` out of range or for non-arrays.
    fn index(&self, idx: usize) -> &Value {
        self.at(idx).unwrap_or(&NULL)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}

impl From<u64> for Value {
    fn from(n: u64) -> Value {
        Value::Num(n as f64)
    }
}

impl From<usize> for Value {
    fn from(n: usize) -> Value {
        Value::Num(n as f64)
    }
}

impl From<f64> for Value {
    fn from(n: f64) -> Value {
        Value::Num(n)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::Str(s.to_owned())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::Str(s)
    }
}

impl<T> From<Vec<T>> for Value
where
    Value: From<T>,
{
    fn from(items: Vec<T>) -> Value {
        Value::Array(items.into_iter().map(Value::from).collect())
    }
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

impl fmt::Display for Value {
    /// Compact (no whitespace) JSON.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Num(n) if n.is_finite() => {
                if n.fract() == 0.0 && n.abs() < 9.0e15 {
                    write!(f, "{}", *n as i64)
                } else {
                    write!(f, "{n}")
                }
            }
            // JSON has no NaN/Infinity; degrade to null rather than emit
            // an unparseable document.
            Value::Num(_) => f.write_str("null"),
            Value::Str(s) => write_escaped(f, s),
            Value::Array(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
            Value::Object(fields) => {
                f.write_str("{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, k)?;
                    f.write_str(":")?;
                    write!(f, "{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Parse failure with byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// What went wrong.
    pub message: String,
    /// Byte offset where it went wrong.
    pub offset: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Parse a complete JSON document. Trailing non-whitespace is an error.
pub fn parse(input: &str) -> Result<Value, ParseError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(v)
}

const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> ParseError {
        ParseError {
            message: message.to_owned(),
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

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, ParseError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, ParseError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value(depth + 1)?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let cp = self.hex4()?;
                            // Combine UTF-16 surrogate pairs.
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    let combined = 0x10000
                                        + ((cp - 0xD800) << 10)
                                        + (lo.wrapping_sub(0xDC00) & 0x3FF);
                                    char::from_u32(combined)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(cp)
                            };
                            out.push(c.ok_or_else(|| self.err("invalid \\u escape"))?);
                            continue;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    let start = self.pos;
                    while self.peek().is_some_and(|b| b != b'"' && b != b'\\') {
                        self.pos += 1;
                    }
                    let chunk = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    out.push_str(chunk);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.err("invalid \\u escape"))?;
        let cp = u32::from_str_radix(hex, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos = end;
        Ok(cp)
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_document() {
        let v = Value::Object(vec![
            ("name".into(), Value::from("bench \"fig2\"\n")),
            ("count".into(), Value::from(42u64)),
            ("ratio".into(), Value::from(0.25)),
            ("flags".into(), Value::from(vec![true, false])),
            ("none".into(), Value::Null),
        ]);
        let text = v.to_string();
        assert_eq!(parse(&text).unwrap(), v);
    }

    #[test]
    fn index_chains_without_panicking() {
        let v = parse(r#"{"a": {"b": [1, 2, 3]}}"#).unwrap();
        assert_eq!(v["a"]["b"][2].as_u64(), Some(3));
        assert_eq!(v["a"]["missing"]["deeper"].as_u64(), None);
        assert_eq!(v["a"]["b"][99], Value::Null);
    }

    #[test]
    fn parses_numbers_and_escapes() {
        let v = parse(r#"{"neg": -1.5e3, "s": "tab\tnew\nunié"}"#).unwrap();
        assert_eq!(v["neg"].as_f64(), Some(-1500.0));
        assert_eq!(v["s"].as_str(), Some("tab\tnew\nuni\u{e9}"));
    }

    #[test]
    fn surrogate_pair() {
        let v = parse(r#""😀""#).unwrap();
        assert_eq!(v.as_str(), Some("\u{1F600}"));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\":1} extra").is_err());
        assert!(parse("nul").is_err());
    }

    #[test]
    fn large_integers_round_trip() {
        let n = 1_234_567_890_123u64;
        let text = Value::from(n).to_string();
        assert_eq!(text, "1234567890123");
        assert_eq!(parse(&text).unwrap().as_u64(), Some(n));
    }

    #[test]
    fn non_finite_becomes_null() {
        assert_eq!(Value::Num(f64::NAN).to_string(), "null");
        assert_eq!(Value::Num(f64::INFINITY).to_string(), "null");
    }
}
