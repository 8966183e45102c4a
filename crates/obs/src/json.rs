//! The workspace's one JSON codec: a hand-rolled, dependency-free value
//! type, parser and serializer.
//!
//! Campaign specs and artifacts, the deterministic trace channel
//! ([`crate::trace`]), solve summaries and the solve service's wire
//! protocol all read and write JSON through this module, so they share
//! one set of bytes for every value. There is no `serde`: the workspace
//! builds offline. This module implements all of JSON, plus one
//! deliberate extension: the bare tokens `NaN`, `Infinity` and
//! `-Infinity` are accepted and produced for non-finite numbers, because
//! fault-injection experiments legitimately generate them and silently
//! mapping them to `null` would corrupt artifacts.
//!
//! Numbers round-trip exactly: [`fmt_f64`] emits the shortest decimal
//! representation that parses back to the identical bit pattern (Rust's
//! `{}`/`{:e}` formatting is shortest-round-trip by specification, and
//! `str::parse::<f64>` is correctly rounded).

use std::collections::BTreeMap;
use std::fmt;

/// A parsed JSON value.
///
/// Objects use a [`BTreeMap`], so re-serializing a parsed value produces
/// keys in sorted order. The engine always *constructs* records through
/// this type, which makes every artifact line canonical by construction.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number, including the non-finite extension tokens.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with sorted keys.
    Obj(BTreeMap<String, Json>),
}

/// A JSON syntax or schema error, with a byte offset for syntax errors.
#[derive(Clone, Debug, PartialEq)]
pub struct JsonError {
    /// Byte offset into the input where the problem was found (0 for
    /// schema-level errors raised by accessors).
    pub offset: usize,
    /// Description of the problem.
    pub msg: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.offset, self.msg)
    }
}

impl std::error::Error for JsonError {}

fn err<T>(offset: usize, msg: impl Into<String>) -> Result<T, JsonError> {
    Err(JsonError { offset, msg: msg.into() })
}

/// Formats a float so that parsing the result reproduces the exact same
/// `f64`, preferring readable forms:
///
/// * integral values within `i64`'s exact range print as integers
///   (`25`, `-3`);
/// * everything else prints via `{:e}` (shortest round-trip scientific,
///   e.g. `1.5e-7`);
/// * non-finite values print as `NaN` / `Infinity` / `-Infinity`.
pub fn fmt_f64(x: f64) -> String {
    if x.is_nan() {
        return "NaN".to_string();
    }
    if x.is_infinite() {
        return if x > 0.0 { "Infinity".to_string() } else { "-Infinity".to_string() };
    }
    if x == x.trunc() && x.abs() < 9.0e15 {
        // Integral and exactly representable: print without exponent.
        // (-0.0 normalizes to 0 here, which parses back equal.)
        return format!("{}", x as i64);
    }
    format!("{x:e}")
}

impl Json {
    /// Convenience constructor for an object literal.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Convenience constructor for a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Serializes the value on a single line (JSONL-safe: no newlines).
    pub fn to_line(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) => out.push_str(&fmt_f64(*x)),
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Json::Obj(map) => {
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
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

    /// Parses one complete JSON value; trailing non-whitespace is an error.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let v = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return err(pos, "trailing characters after value");
        }
        Ok(v)
    }

    // ---- typed accessors (schema-level errors) ----

    /// The value under `key`, if this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// Required object field.
    pub fn field(&self, key: &str) -> Result<&Json, JsonError> {
        self.get(key).ok_or(JsonError { offset: 0, msg: format!("missing field '{key}'") })
    }

    /// This value as a string.
    pub fn as_str(&self) -> Result<&str, JsonError> {
        match self {
            Json::Str(s) => Ok(s),
            other => err(0, format!("expected string, got {}", other.kind())),
        }
    }

    /// This value as a float.
    pub fn as_f64(&self) -> Result<f64, JsonError> {
        match self {
            Json::Num(x) => Ok(*x),
            other => err(0, format!("expected number, got {}", other.kind())),
        }
    }

    /// This value as a non-negative integer (must be integral and exact).
    pub fn as_usize(&self) -> Result<usize, JsonError> {
        let x = self.as_f64()?;
        if x < 0.0 || x != x.trunc() || x > 9.0e15 {
            return err(0, format!("expected non-negative integer, got {x}"));
        }
        Ok(x as usize)
    }

    /// This value as a 64-bit unsigned integer.
    ///
    /// Accepts either a JSON number (when integral and exactly
    /// representable in `f64`) or a decimal string — the canonical form
    /// the engine writes, since seeds use the full 64-bit range and JSON
    /// numbers only carry 53 bits exactly.
    pub fn as_u64(&self) -> Result<u64, JsonError> {
        if let Json::Str(s) = self {
            return s
                .parse::<u64>()
                .map_err(|_| JsonError { offset: 0, msg: format!("expected u64, got '{s}'") });
        }
        let x = self.as_f64()?;
        if x < 0.0 || x != x.trunc() || x > 9.0e15 {
            return err(0, format!("expected u64, got {x}"));
        }
        Ok(x as u64)
    }

    /// The canonical serialization of a `u64`: a decimal string, exact
    /// for the full 64-bit range.
    pub fn u64(x: u64) -> Json {
        Json::Str(x.to_string())
    }

    /// This value as a bool.
    pub fn as_bool(&self) -> Result<bool, JsonError> {
        match self {
            Json::Bool(b) => Ok(*b),
            other => err(0, format!("expected bool, got {}", other.kind())),
        }
    }

    /// This value as an array slice.
    pub fn as_arr(&self) -> Result<&[Json], JsonError> {
        match self {
            Json::Arr(v) => Ok(v),
            other => err(0, format!("expected array, got {}", other.kind())),
        }
    }

    fn kind(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "bool",
            Json::Num(_) => "number",
            Json::Str(_) => "string",
            Json::Arr(_) => "array",
            Json::Obj(_) => "object",
        }
    }
}

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
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// Maximum container nesting. Engine output nests a handful of levels;
/// the limit exists so a pathological input returns an error instead of
/// overflowing the stack.
const MAX_DEPTH: usize = 128;

fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    if depth > MAX_DEPTH {
        return err(*pos, format!("nesting deeper than {MAX_DEPTH} levels"));
    }
    skip_ws(b, pos);
    let Some(&c) = b.get(*pos) else {
        return err(*pos, "unexpected end of input");
    };
    match c {
        b'{' => parse_object(b, pos, depth),
        b'[' => parse_array(b, pos, depth),
        b'"' => Ok(Json::Str(parse_string(b, pos)?)),
        b't' => parse_keyword(b, pos, "true", Json::Bool(true)),
        b'f' => parse_keyword(b, pos, "false", Json::Bool(false)),
        b'n' => parse_keyword(b, pos, "null", Json::Null),
        b'N' => parse_keyword(b, pos, "NaN", Json::Num(f64::NAN)),
        b'I' => parse_keyword(b, pos, "Infinity", Json::Num(f64::INFINITY)),
        b'-' | b'0'..=b'9' => parse_number(b, pos),
        other => err(*pos, format!("unexpected character '{}'", other as char)),
    }
}

fn parse_keyword(b: &[u8], pos: &mut usize, word: &str, value: Json) -> Result<Json, JsonError> {
    if b[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        err(*pos, format!("invalid token (expected '{word}')"))
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    let start = *pos;
    if b[*pos] == b'-' {
        *pos += 1;
        // `-Infinity` extension.
        if b[*pos..].starts_with(b"Infinity") {
            *pos += "Infinity".len();
            return Ok(Json::Num(f64::NEG_INFINITY));
        }
    }
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') {
        *pos += 1;
    }
    let text = std::str::from_utf8(&b[start..*pos]).expect("ascii slice");
    match text.parse::<f64>() {
        Ok(x) => Ok(Json::Num(x)),
        Err(_) => err(start, format!("invalid number '{text}'")),
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    debug_assert_eq!(b[*pos], b'"');
    *pos += 1;
    let mut out = String::new();
    loop {
        let Some(&c) = b.get(*pos) else {
            return err(*pos, "unterminated string");
        };
        match c {
            b'"' => {
                *pos += 1;
                return Ok(out);
            }
            b'\\' => {
                *pos += 1;
                let Some(&esc) = b.get(*pos) else {
                    return err(*pos, "unterminated escape");
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
                        let Some(hex) = b.get(*pos..*pos + 4) else {
                            return err(*pos, "truncated \\u escape");
                        };
                        let Ok(hex) = std::str::from_utf8(hex) else {
                            return err(*pos, "non-ascii \\u escape");
                        };
                        let Ok(cp) = u32::from_str_radix(hex, 16) else {
                            return err(*pos, format!("bad \\u escape '{hex}'"));
                        };
                        *pos += 4;
                        // Surrogate pairs are not produced by our writer;
                        // map lone surrogates to the replacement char.
                        out.push(char::from_u32(cp).unwrap_or('\u{fffd}'));
                    }
                    other => {
                        return err(*pos - 1, format!("bad escape '\\{}'", other as char));
                    }
                }
            }
            _ => {
                // Copy the run up to the next quote or backslash verbatim,
                // validating it once. Both delimiters are ASCII, so the
                // run ends on a char boundary.
                let end = b[*pos..]
                    .iter()
                    .position(|&c| c == b'"' || c == b'\\')
                    .map_or(b.len(), |i| *pos + i);
                let run = std::str::from_utf8(&b[*pos..end])
                    .map_err(|_| JsonError { offset: *pos, msg: "invalid utf-8".into() })?;
                out.push_str(run);
                *pos = end;
            }
        }
    }
}

fn parse_array(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    debug_assert_eq!(b[*pos], b'[');
    *pos += 1;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos, depth + 1)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => {
                *pos += 1;
            }
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return err(*pos, "expected ',' or ']' in array"),
        }
    }
}

fn parse_object(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    debug_assert_eq!(b[*pos], b'{');
    *pos += 1;
    let mut map = BTreeMap::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(map));
    }
    loop {
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b'"') {
            return err(*pos, "expected string key");
        }
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return err(*pos, "expected ':' after key");
        }
        *pos += 1;
        let value = parse_value(b, pos, depth + 1)?;
        if map.insert(key.clone(), value).is_some() {
            return err(*pos, format!("duplicate key '{key}'"));
        }
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => {
                *pos += 1;
            }
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(map));
            }
            _ => return err(*pos, "expected ',' or '}' in object"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_f64_round_trips_exactly() {
        let cases = [
            0.0,
            -0.0,
            1.0,
            -1.0,
            25.0,
            0.1,
            1.5e-7,
            1e150,
            1e-300,
            10f64.powf(-0.5),
            f64::MIN_POSITIVE,
            f64::MAX,
            std::f64::consts::PI,
            -9.007199254740991e15,
        ];
        for &x in &cases {
            let s = fmt_f64(x);
            let back: f64 = s.parse().unwrap();
            // -0.0 normalizes to 0.0 by design; everything else is bitwise.
            if x == 0.0 {
                assert_eq!(back, 0.0);
            } else {
                assert_eq!(back.to_bits(), x.to_bits(), "{x} -> {s} -> {back}");
            }
        }
    }

    #[test]
    fn fmt_f64_integral_is_plain() {
        assert_eq!(fmt_f64(25.0), "25");
        assert_eq!(fmt_f64(-3.0), "-3");
        assert_eq!(fmt_f64(0.0), "0");
        assert_eq!(fmt_f64(-0.0), "0");
        assert_eq!(fmt_f64(0.5), "5e-1");
    }

    #[test]
    fn fmt_f64_non_finite_tokens() {
        assert_eq!(fmt_f64(f64::NAN), "NaN");
        assert_eq!(fmt_f64(f64::INFINITY), "Infinity");
        assert_eq!(fmt_f64(f64::NEG_INFINITY), "-Infinity");
    }

    #[test]
    fn value_round_trip() {
        let v = Json::obj(vec![
            ("name", Json::str("fig3")),
            ("stride", Json::Num(5.0)),
            ("tol", Json::Num(1e-7)),
            ("flags", Json::Arr(vec![Json::Bool(true), Json::Null])),
            ("nested", Json::obj(vec![("k", Json::str("v\" \\ \n"))])),
        ]);
        let line = v.to_line();
        assert!(!line.contains('\n'), "JSONL lines must be newline-free");
        let back = Json::parse(&line).unwrap();
        assert_eq!(back, v);
        // Canonical: serializing the parse is identical.
        assert_eq!(back.to_line(), line);
    }

    #[test]
    fn parses_standard_json_with_whitespace() {
        let v = Json::parse(" { \"a\" : [ 1 , 2.5e0 , \"x\" ] , \"b\" : false } ").unwrap();
        assert_eq!(v.field("a").unwrap().as_arr().unwrap().len(), 3);
        assert!(!v.field("b").unwrap().as_bool().unwrap());
    }

    #[test]
    fn parses_non_finite_extension() {
        let v = Json::parse("[NaN,Infinity,-Infinity]").unwrap();
        let a = v.as_arr().unwrap();
        assert!(a[0].as_f64().unwrap().is_nan());
        assert_eq!(a[1].as_f64().unwrap(), f64::INFINITY);
        assert_eq!(a[2].as_f64().unwrap(), f64::NEG_INFINITY);
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{\"a\":1,\"a\":2}").is_err());
        assert!(Json::parse("tru").is_err());
        assert!(Json::parse("1 2").is_err());
        assert!(Json::parse("\"unterminated").is_err());
    }

    #[test]
    fn accessor_errors_name_the_problem() {
        let v = Json::parse("{\"n\":1.5}").unwrap();
        assert!(v.field("missing").is_err());
        assert!(v.field("n").unwrap().as_usize().is_err());
        assert!(v.field("n").unwrap().as_str().is_err());
    }

    #[test]
    fn deep_nesting_errors_instead_of_overflowing() {
        // Within the limit: fine.
        let ok = format!("{}1{}", "[".repeat(100), "]".repeat(100));
        assert!(Json::parse(&ok).is_ok());
        // Pathological input must come back as an error, not a crash.
        let deep = format!("{}1{}", "[".repeat(100_000), "]".repeat(100_000));
        let e = Json::parse(&deep).unwrap_err();
        assert!(e.msg.contains("nesting"), "{e}");
        let deep_obj = "{\"a\":".repeat(100_000) + "1" + &"}".repeat(100_000);
        assert!(Json::parse(&deep_obj).is_err());
    }

    #[test]
    fn unicode_survives() {
        let v = Json::Str("π ‖A‖_F €".to_string());
        assert_eq!(Json::parse(&v.to_line()).unwrap(), v);
    }

    #[test]
    fn escapes_next_to_multibyte_runs() {
        let v = Json::parse(r#""é\"€\u0041\\€é\n""#).unwrap();
        assert_eq!(v, Json::str("é\"€A\\€é\n"));
        let v = Json::parse(r#"{"€\u0041é":"\"é"}"#).unwrap();
        assert_eq!(v.field("€Aé").unwrap().as_str().unwrap(), "\"é");
        let s = Json::str("€\"é\\\u{1}x€");
        assert_eq!(Json::parse(&s.to_line()).unwrap(), s);
    }

    #[test]
    fn string_errors_keep_their_offsets() {
        let cases = [
            ("\"abc", 4, "unterminated string"),
            ("\"é€", 6, "unterminated string"),
            ("[\"é\\", 5, "unterminated escape"),
            ("\"€\\q\"", 5, "bad escape '\\q'"),
            ("\"é\\u12\"", 5, "truncated \\u escape"),
            ("\"\\u00zz\"", 3, "bad \\u escape '00zz'"),
            ("\"\\u000é\"", 3, "non-ascii \\u escape"),
        ];
        for (text, offset, msg) in cases {
            let e = Json::parse(text).unwrap_err();
            assert_eq!((e.offset, e.msg.as_str()), (offset, msg), "{text}");
        }
    }

    #[test]
    fn multi_megabyte_string_parses_in_linear_time() {
        // A decoder quadratic in the string length needs hours here and
        // a linear one milliseconds, so the bound cannot flake.
        let text = "12 34 -5.25e-1 % é€ \"q\"\n".repeat(200_000);
        let line = Json::str(text.as_str()).to_line();
        assert!(line.len() >= 4 << 20);
        let start = std::time::Instant::now();
        let v = Json::parse(&line).unwrap();
        assert!(start.elapsed() < std::time::Duration::from_secs(10), "{:?}", start.elapsed());
        assert_eq!(v.as_str().unwrap(), text);
    }
}
