//! Offline shim for `serde_json`: a minimal JSON document tree.
//!
//! The real crate serializes any `serde::Serialize` type; this shim
//! (paired with the no-op `serde` shim) instead offers an explicit
//! [`Value`] tree plus `to_string` / `to_string_pretty` over it, and a
//! [`from_str`] parser back into [`Value`]. Callers in this workspace
//! build their JSON explicitly, which keeps the shim tiny and the
//! output format under test control. Numbers render through Rust's
//! shortest-roundtrip `{}` formatting and parse with `str::parse`, so a
//! finite `f64` other than `-0.0` survives a serialize → parse cycle
//! bit for bit — the property `tpu_serve`'s trace replay relies on.
//! `-0.0` renders as `0` and so parses back as `+0.0`; `NaN` and the
//! infinities render as the non-JSON tokens `NaN`, `inf` and `-inf`,
//! which [`from_str`] rejects.
//!
//! The writer appends straight into one `String`: [`write_number`] and
//! [`write_str`] are public so artifact renderers can stream their
//! records through the same number and string formatting without
//! building a [`Value`] tree first.

use std::collections::BTreeMap;
use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number (rendered by [`write_number`]; integers stay integral).
    Number(f64),
    /// A string.
    String(String),
    /// An ordered array.
    Array(Vec<Value>),
    /// An object with deterministically ordered (sorted) keys.
    Object(BTreeMap<String, Value>),
}

impl Value {
    /// Build an object from key/value pairs.
    pub fn object(pairs: impl IntoIterator<Item = (String, Value)>) -> Self {
        Value::Object(pairs.into_iter().collect())
    }

    fn write(&self, f: &mut String, indent: Option<usize>, level: usize) {
        match self {
            Value::Null => f.push_str("null"),
            Value::Bool(b) => f.push_str(if *b { "true" } else { "false" }),
            Value::Number(n) => write_number(f, *n),
            Value::String(s) => write_str(f, s),
            Value::Array(items) => {
                f.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.push(',');
                    }
                    newline(f, indent, level + 1);
                    v.write(f, indent, level + 1);
                }
                if !items.is_empty() {
                    newline(f, indent, level);
                }
                f.push(']');
            }
            Value::Object(map) => {
                f.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        f.push(',');
                    }
                    newline(f, indent, level + 1);
                    write_str(f, k);
                    f.push(':');
                    if indent.is_some() {
                        f.push(' ');
                    }
                    v.write(f, indent, level + 1);
                }
                if !map.is_empty() {
                    newline(f, indent, level);
                }
                f.push('}');
            }
        }
    }
}

/// Append `n` as this shim renders every JSON number: integral values
/// below 9e15 in magnitude as an integer, anything else through `f64`'s
/// shortest-roundtrip `{}` formatting. Writes straight into `out`,
/// allocating nothing beyond its growth.
///
/// `-0.0` renders as `0`, and `NaN` / `±inf` render as the non-JSON
/// tokens `NaN` / `inf` / `-inf`; callers emit finite numbers only.
pub fn write_number(out: &mut String, n: f64) {
    use fmt::Write;
    // Writing into a `String` cannot fail. `-0.0 as i64` is `0`.
    let _ = if n.fract() == 0.0 && n.abs() < 9e15 {
        write!(out, "{}", n as i64)
    } else {
        write!(out, "{n}")
    };
}

/// Append `s` as a quoted JSON string, escaping `"`, `\\`, and every
/// control character (`\n`, `\t`, `\r` by name, the rest as
/// `\u00XX`). Unescaped runs are copied in one piece.
pub fn write_str(out: &mut String, s: &str) {
    out.push('"');
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let esc = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\t' => "\\t",
            b'\r' => "\\r",
            0..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[run..i]);
        if esc.is_empty() {
            use fmt::Write;
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(esc);
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Start a new pretty-printed line indented `width × level` spaces (a
/// no-op in compact mode).
fn newline(f: &mut String, indent: Option<usize>, level: usize) {
    const SPACES: &str = "                                ";
    if let Some(w) = indent {
        f.push('\n');
        let mut pad = w * level;
        while pad > 0 {
            let n = pad.min(SPACES.len());
            f.push_str(&SPACES[..n]);
            pad -= n;
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&to_string(self))
    }
}

/// Render a [`Value`] compactly.
pub fn to_string(value: &Value) -> String {
    let mut s = String::new();
    value.write(&mut s, None, 0);
    s
}

/// Render a [`Value`] with two-space indentation.
pub fn to_string_pretty(value: &Value) -> String {
    let mut s = String::new();
    value.write(&mut s, Some(2), 0);
    s
}

/// Parse a JSON document into a [`Value`].
///
/// Supports the full JSON grammar this shim can emit (plus `\uXXXX`
/// escapes, including surrogate pairs). Errors carry a byte offset and
/// a short description. Nesting is capped (like the real serde_json's
/// recursion limit) so untrusted input returns an error instead of
/// overflowing the stack.
pub fn from_str(text: &str) -> Result<Value, ParseError> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after the document"));
    }
    Ok(v)
}

/// Maximum container nesting [`from_str`] accepts (the real serde_json
/// defaults to 128).
const MAX_DEPTH: usize = 128;

/// A parse failure: what went wrong and where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure in the input.
    pub offset: usize,
    /// Short description of the failure.
    pub message: String,
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

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> ParseError {
        ParseError {
            offset: self.pos,
            message: message.to_string(),
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
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// Run a container parser one nesting level deeper, rejecting
    /// documents past [`MAX_DEPTH`].
    fn nested(
        &mut self,
        f: fn(&mut Self) -> Result<Value, ParseError>,
    ) -> Result<Value, ParseError> {
        if self.depth >= MAX_DEPTH {
            return Err(self.err("document nests too deeply"));
        }
        self.depth += 1;
        let v = f(self);
        self.depth -= 1;
        v
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii number");
        match text.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(Value::Number(n)),
            _ => Err(ParseError {
                offset: start,
                message: format!("invalid number `{text}`"),
            }),
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
                            let hi = self.hex4()?;
                            let c = if (0xd800..0xdc00).contains(&hi) {
                                // Surrogate pair: expect \uXXXX low half.
                                self.expect(b'\\')?;
                                self.expect(b'u')?;
                                let lo = self.hex4()?;
                                if !(0xdc00..0xe000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let cp = 0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00);
                                char::from_u32(cp)
                            } else {
                                char::from_u32(hi)
                            };
                            out.push(c.ok_or_else(|| self.err("invalid \\u escape"))?);
                            continue; // hex4 already advanced past the digits
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar from the raw input. Only
                    // the next ≤ 4 bytes are validated, so long strings
                    // decode in O(1) per character.
                    let end = (self.pos + 4).min(self.bytes.len());
                    let c = match std::str::from_utf8(&self.bytes[self.pos..end]) {
                        Ok(s) => s.chars().next().expect("nonempty by peek"),
                        // A well-formed scalar truncated at `end` still
                        // yields its leading chars via valid_up_to.
                        Err(e) if e.valid_up_to() > 0 => {
                            std::str::from_utf8(&self.bytes[self.pos..self.pos + e.valid_up_to()])
                                .expect("validated prefix")
                                .chars()
                                .next()
                                .expect("nonempty prefix")
                        }
                        Err(_) => return Err(self.err("invalid UTF-8")),
                    };
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let text = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.err("invalid \\u escape"))?;
        let v = u32::from_str_radix(text, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos = end;
        Ok(v)
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
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(map));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_scalars_and_containers() {
        let v = Value::object([
            ("a".to_string(), Value::Number(1.0)),
            (
                "b".to_string(),
                Value::Array(vec![Value::Bool(true), Value::Null]),
            ),
            ("c".to_string(), Value::String("x\"y".to_string())),
        ]);
        assert_eq!(to_string(&v), r#"{"a":1,"b":[true,null],"c":"x\"y"}"#);
    }

    #[test]
    fn pretty_output_is_stable() {
        let v = Value::object([("k".to_string(), Value::Number(2.5))]);
        assert_eq!(to_string_pretty(&v), "{\n  \"k\": 2.5\n}");
    }

    #[test]
    fn parses_what_it_renders() {
        let v = Value::object([
            ("a".to_string(), Value::Number(1.0)),
            (
                "b".to_string(),
                Value::Array(vec![
                    Value::Bool(true),
                    Value::Null,
                    Value::Number(-2.75e-3),
                ]),
            ),
            ("c".to_string(), Value::String("x\"y\n\\ π".to_string())),
            ("d".to_string(), Value::Object(BTreeMap::new())),
            ("e".to_string(), Value::Array(vec![])),
        ]);
        assert_eq!(from_str(&to_string(&v)).unwrap(), v);
        assert_eq!(from_str(&to_string_pretty(&v)).unwrap(), v);
    }

    #[test]
    fn numbers_roundtrip_bit_for_bit() {
        for bits in [
            0x3ff0_0000_0000_0001u64, // 1.0000000000000002
            0x3fb9_9999_9999_999au64, // 0.1
            0x4197_d784_0000_0000u64, // 100_000_000ish
            0x0010_0000_0000_0000u64, // smallest normal
        ] {
            let x = f64::from_bits(bits);
            let rendered = to_string(&Value::Number(x));
            match from_str(&rendered).unwrap() {
                Value::Number(y) => assert_eq!(x.to_bits(), y.to_bits(), "{rendered}"),
                other => panic!("expected a number, got {other:?}"),
            }
        }
    }

    #[test]
    fn edge_numbers_render_as_today() {
        // Pinned, not endorsed: every artifact fingerprint depends on
        // these bytes, so a change here is a format change.
        let r = |x: f64| to_string(&Value::Number(x));
        assert_eq!(r(-0.0), "0");
        assert_eq!(r(f64::NAN), "NaN");
        assert_eq!(r(f64::INFINITY), "inf");
        assert_eq!(r(f64::NEG_INFINITY), "-inf");
        assert_eq!(r(9e15), "9000000000000000");
        assert_eq!(r(8_999_999_999_999_999.0), "8999999999999999");
        assert_eq!(r(-8_999_999_999_999_998.0), "-8999999999999998");
        assert_eq!(r(1e21), "1000000000000000000000");
        assert_eq!(r(2.5e-7), "0.00000025");
        // -0.0 comes back as +0.0; the non-finite tokens do not parse.
        match from_str(&r(-0.0)).unwrap() {
            Value::Number(z) => assert_eq!(z.to_bits(), 0.0f64.to_bits()),
            other => panic!("expected a number, got {other:?}"),
        }
        assert!(from_str(&r(f64::NAN)).is_err());
        assert!(from_str(&r(f64::INFINITY)).is_err());
    }

    #[test]
    fn strings_escape_quotes_backslashes_and_controls() {
        let mut out = String::new();
        write_str(&mut out, "a\"b\\c\nd\te\rf\u{1}g\u{1f}h\u{7f}é😀");
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\te\\rf\\u0001g\\u001fh\u{7f}é😀\"");
        let mut pretty = String::new();
        Value::Array(vec![Value::object([(
            "k".to_string(),
            Value::Array(vec![Value::Null]),
        )])])
        .write(&mut pretty, Some(2), 0);
        assert_eq!(pretty, "[\n  {\n    \"k\": [\n      null\n    ]\n  }\n]");
    }

    #[test]
    fn unicode_escapes_parse() {
        assert_eq!(
            from_str(r#""é😀""#).unwrap(),
            Value::String("é😀".to_string())
        );
    }

    #[test]
    fn errors_carry_an_offset() {
        let e = from_str("{\"a\": }").unwrap_err();
        assert_eq!(e.offset, 6);
        assert!(from_str("[1, 2").is_err());
        assert!(from_str("[1] tail").is_err());
        assert!(from_str("1e999").is_err(), "non-finite numbers rejected");
    }
}
