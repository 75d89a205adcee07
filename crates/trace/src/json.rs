//! A minimal JSON value type with a hand-rolled parser and renderer.
//!
//! The simulator runs in hermetic environments with no registry access, so
//! trace files use this tiny codec instead of an external serialization
//! crate. It supports exactly what the trace format needs: objects, arrays,
//! strings, booleans, null, and numbers. Integers that fit `i64` are kept
//! exact (important for seeds and timestamps); everything else is `f64`.

use std::fmt;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// Integral number (no `.`/`e` in the source, fits `i64`).
    Int(i64),
    /// Any other number.
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Key order is preserved; duplicate keys are not rejected (last wins
    /// on lookup is *not* implemented — [`Json::get`] returns the first).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Look up a key in an object; `None` for other variants.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Integer payload; also accepts an `f64` with an exact integral value.
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Json::Int(i) => Some(i),
            Json::Num(f) if f.fract() == 0.0 && f.abs() < 9.0e18 => Some(f as i64),
            _ => None,
        }
    }

    /// Numeric payload as `f64` (from either numeric variant).
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::Int(i) => Some(i as f64),
            Json::Num(f) => Some(f),
            _ => None,
        }
    }

    /// Boolean payload.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Json::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// Array payload.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Render to a compact single-line string.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Append the compact rendering to `out`.
    pub(crate) fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => write_int(*i, out),
            Json::Num(f) => write_num(*f, out),
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parse a complete JSON document. Trailing whitespace is allowed;
    /// trailing garbage is an error.
    pub fn parse(src: &str) -> Result<Json, JsonError> {
        let bytes = src.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(JsonError {
                pos,
                message: "trailing characters after document",
            });
        }
        Ok(value)
    }
}

/// Append `v` in decimal, byte for byte as `format!("{v}")` writes it.
/// Every integer of an encoded trace line (times, ids, counts, processor
/// lists) goes through here or [`write_uint`] rather than `core::fmt`,
/// whose per-call machinery cost more than the digits.
pub(crate) fn write_int(v: i64, out: &mut String) {
    if v < 0 {
        out.push('-');
    }
    write_uint(v.unsigned_abs(), out);
}

/// Append `v` in decimal, byte for byte as `format!("{v}")` writes it.
pub(crate) fn write_uint(mut v: u64, out: &mut String) {
    // u64::MAX has 20 digits; they are produced last to first.
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    for &d in &digits[start..] {
        out.push(char::from(d));
    }
}

/// Append `f` as a JSON number token. Floats are rare in a trace, so they
/// keep `core::fmt`'s shortest round-trip form.
pub(crate) fn write_num(f: f64, out: &mut String) {
    use fmt::Write;
    if f.is_finite() {
        // Keep the token recognizably a float: integral values get a ".0"
        // so they re-parse as Num, not Int.
        if f.fract() == 0.0 && f.abs() < 1.0e15 {
            let _ = write!(out, "{f:.1}");
        } else {
            let _ = write!(out, "{f}");
        }
    } else {
        // JSON has no Inf/NaN; encode as null like most emitters.
        out.push_str("null");
    }
}

/// Append `s` as a quoted JSON string, escaping quotes, backslashes and
/// control characters.
pub(crate) fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                const HEX: &[u8; 16] = b"0123456789abcdef";
                out.push_str("\\u00");
                out.push(char::from(HEX[c as usize >> 4]));
                out.push(char::from(HEX[c as usize & 0xf]));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parse failure: byte offset plus a static description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset in the source where parsing failed.
    pub pos: usize,
    /// What went wrong.
    pub message: &'static str,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.pos, self.message)
    }
}

impl std::error::Error for JsonError {}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(
    bytes: &[u8],
    pos: &mut usize,
    lit: &str,
    message: &'static str,
) -> Result<(), JsonError> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(JsonError { pos: *pos, message })
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    skip_ws(bytes, pos);
    let Some(&c) = bytes.get(*pos) else {
        return Err(JsonError {
            pos: *pos,
            message: "unexpected end of input",
        });
    };
    match c {
        b'n' => expect(bytes, pos, "null", "expected 'null'").map(|_| Json::Null),
        b't' => expect(bytes, pos, "true", "expected 'true'").map(|_| Json::Bool(true)),
        b'f' => expect(bytes, pos, "false", "expected 'false'").map(|_| Json::Bool(false)),
        b'"' => parse_string(bytes, pos).map(Json::Str),
        b'[' => parse_array(bytes, pos),
        b'{' => parse_object(bytes, pos),
        b'-' | b'0'..=b'9' => parse_number(bytes, pos),
        _ => Err(JsonError {
            pos: *pos,
            message: "unexpected character",
        }),
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    *pos += 1; // consume '['
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => {
                return Err(JsonError {
                    pos: *pos,
                    message: "expected ',' or ']' in array",
                })
            }
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    *pos += 1; // consume '{'
    let mut pairs = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(pairs));
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(JsonError {
                pos: *pos,
                message: "expected string key in object",
            });
        }
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(JsonError {
                pos: *pos,
                message: "expected ':' after object key",
            });
        }
        *pos += 1;
        let value = parse_value(bytes, pos)?;
        pairs.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            _ => {
                return Err(JsonError {
                    pos: *pos,
                    message: "expected ',' or '}' in object",
                })
            }
        }
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    *pos += 1; // consume opening quote
    let mut out = String::new();
    loop {
        let Some(&c) = bytes.get(*pos) else {
            return Err(JsonError {
                pos: *pos,
                message: "unterminated string",
            });
        };
        *pos += 1;
        match c {
            b'"' => return Ok(out),
            b'\\' => {
                let Some(&esc) = bytes.get(*pos) else {
                    return Err(JsonError {
                        pos: *pos,
                        message: "unterminated escape",
                    });
                };
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'u' => {
                        let hex = bytes
                            .get(*pos..*pos + 4)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .ok_or(JsonError {
                                pos: *pos,
                                message: "bad \\u escape",
                            })?;
                        *pos += 4;
                        // Surrogate pairs are not needed by this format;
                        // map lone surrogates to the replacement character.
                        out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                    }
                    _ => {
                        return Err(JsonError {
                            pos: *pos - 1,
                            message: "unknown escape",
                        })
                    }
                }
            }
            _ => {
                // Re-decode multi-byte UTF-8 starting at c.
                let start = *pos - 1;
                let len = utf8_len(c);
                let slice = bytes
                    .get(start..start + len)
                    .and_then(|s| std::str::from_utf8(s).ok())
                    .ok_or(JsonError {
                        pos: start,
                        message: "invalid UTF-8 in string",
                    })?;
                out.push_str(slice);
                *pos = start + len;
            }
        }
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut is_float = false;
    while let Some(&c) = bytes.get(*pos) {
        match c {
            b'0'..=b'9' => *pos += 1,
            b'.' | b'e' | b'E' | b'+' | b'-' => {
                is_float = true;
                *pos += 1;
            }
            _ => break,
        }
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|_| JsonError {
        pos: start,
        message: "invalid number",
    })?;
    if !is_float {
        if let Ok(i) = text.parse::<i64>() {
            return Ok(Json::Int(i));
        }
    }
    text.parse::<f64>().map(Json::Num).map_err(|_| JsonError {
        pos: start,
        message: "invalid number",
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_and_reparses_scalars() {
        for v in [
            Json::Null,
            Json::Bool(true),
            Json::Bool(false),
            Json::Int(-42),
            Json::Num(1.5),
        ] {
            assert_eq!(Json::parse(&v.render()).unwrap(), v);
        }
    }

    #[test]
    fn large_u64_seed_survives_roundtrip() {
        // Seeds up to i64::MAX stay exact integers.
        let v = Json::Int(i64::MAX);
        assert_eq!(Json::parse(&v.render()).unwrap().as_i64(), Some(i64::MAX));
    }

    #[test]
    fn object_roundtrip_preserves_order_and_values() {
        let v = Json::Obj(vec![
            ("name".into(), Json::Str("SS 2.0".into())),
            ("sf".into(), Json::Num(2.0)),
            ("jobs".into(), Json::Int(10_000)),
            (
                "flags".into(),
                Json::Arr(vec![Json::Bool(true), Json::Null]),
            ),
        ]);
        let text = v.render();
        let back = Json::parse(&text).unwrap();
        assert_eq!(back, v);
        assert_eq!(back.get("name").and_then(Json::as_str), Some("SS 2.0"));
        assert_eq!(back.get("jobs").and_then(Json::as_i64), Some(10_000));
        assert_eq!(back.get("sf").and_then(Json::as_f64), Some(2.0));
    }

    #[test]
    fn string_escapes_roundtrip() {
        let s = "line\nbreak \"quoted\" back\\slash\ttab \u{1}ctl λ";
        let v = Json::Str(s.to_string());
        assert_eq!(Json::parse(&v.render()).unwrap().as_str(), Some(s));
        // Control characters take the lowercase four-digit `\u` form.
        assert_eq!(
            Json::Str("\u{1}\u{1f}".into()).render(),
            r#""\u0001\u001f""#
        );
    }

    #[test]
    fn rejects_trailing_garbage_and_bad_tokens() {
        assert!(Json::parse("{} extra").is_err());
        assert!(Json::parse("{\"a\":}").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("nul").is_err());
        assert!(Json::parse("").is_err());
    }

    #[test]
    fn whitespace_is_tolerated() {
        let v = Json::parse(" { \"a\" : [ 1 , 2.5 ] , \"b\" : null } \n").unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 2);
        assert_eq!(v.get("b"), Some(&Json::Null));
    }

    #[test]
    fn nonfinite_floats_render_as_null() {
        assert_eq!(Json::Num(f64::NAN).render(), "null");
        assert_eq!(Json::Num(f64::INFINITY).render(), "null");
    }
}
