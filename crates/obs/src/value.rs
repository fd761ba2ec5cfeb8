//! A minimal JSON document model with a recursive-descent parser and a
//! byte-stable serializer.
//!
//! The tracing layer only ever *writes* JSON
//! ([`to_json_line`](crate::to_json_line)), but the perf-baseline
//! comparator must also
//! *read* `BENCH_*.json` reports back (to diff a candidate against a
//! baseline and to scrub volatile wall-clock fields before determinism
//! comparisons). The container image vendors no serde, so this module
//! carries a small, dependency-free document model. Object members are
//! kept as an ordered `Vec` — parsing then re-serializing an input built
//! by our own writers is byte-identical, which is what makes
//! scrub-then-compare tests meaningful.

use std::fmt::Write as _;

/// A parsed JSON value. Objects preserve member order.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number, held as `f64` (all numbers our reports emit are
    /// exactly representable or explicitly lossy wall-clock figures).
    Num(f64),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object as an ordered member list.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Parses a JSON document. Returns a message describing the first
    /// error on malformed input.
    pub fn parse(text: &str) -> Result<JsonValue, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing bytes at offset {pos}"));
        }
        Ok(value)
    }

    /// An object from `(key, value)` members, in the given order — the
    /// builder every report emitter uses.
    pub fn obj(members: Vec<(&str, JsonValue)>) -> JsonValue {
        JsonValue::Obj(
            members
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// An unsigned integer as a JSON number.
    pub fn uint(n: u64) -> JsonValue {
        JsonValue::Num(n as f64)
    }

    /// [`uint`](Self::uint), or `null` for `None`.
    pub fn opt_uint(n: Option<u64>) -> JsonValue {
        n.map_or(JsonValue::Null, JsonValue::uint)
    }

    /// A JSON string.
    pub fn str_val(s: &str) -> JsonValue {
        JsonValue::Str(s.to_string())
    }

    /// Nulls every member named in `volatile`, at any depth. Reports list
    /// their machine-dependent members (wall-clock readings and figures
    /// derived from them) so that two runs of one configuration agree
    /// byte-for-byte once scrubbed.
    pub fn scrub(&mut self, volatile: &[&str]) {
        match self {
            JsonValue::Obj(members) => {
                for (k, v) in members.iter_mut() {
                    if volatile.contains(&k.as_str()) {
                        *v = JsonValue::Null;
                    } else {
                        v.scrub(volatile);
                    }
                }
            }
            JsonValue::Arr(items) => items.iter_mut().for_each(|v| v.scrub(volatile)),
            _ => {}
        }
    }

    /// Looks up a member of an object by key.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Looks up a member of an object by key, mutably.
    pub fn get_mut(&mut self, key: &str) -> Option<&mut JsonValue> {
        match self {
            JsonValue::Obj(members) => members.iter_mut().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric value as `u64`, if this is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serializes compactly (no whitespace), preserving member order.
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Serializes with two-space indentation, preserving member order.
    /// Number and string formatting are identical to
    /// [`to_string_compact`](Self::to_string_compact), so the two forms
    /// parse back to equal values.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out
    }

    fn write_pretty(&self, out: &mut String, depth: usize) {
        match self {
            JsonValue::Arr(items) if !items.is_empty() => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    out.push_str(if i > 0 { ",\n" } else { "\n" });
                    indent(out, depth + 1);
                    item.write_pretty(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push(']');
            }
            JsonValue::Obj(members) if !members.is_empty() => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    out.push_str(if i > 0 { ",\n" } else { "\n" });
                    indent(out, depth + 1);
                    write_str(out, k);
                    out.push_str(": ");
                    v.write_pretty(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push('}');
            }
            other => other.write(out),
        }
    }

    fn write(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Num(n) => write_num(out, *n),
            JsonValue::Str(s) => write_str(out, s),
            JsonValue::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            JsonValue::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn write_num(out: &mut String, n: f64) {
    if !n.is_finite() {
        // JSON has no NaN or infinity; `null` keeps the document readable
        // by `JsonValue::parse`.
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() < 9e15 {
        let _ = write!(out, "{}", n as i64);
    } else {
        // `{:?}` is Rust's shortest round-trip float formatting.
        let _ = write!(out, "{n:?}");
    }
}

fn write_str(out: &mut String, s: &str) {
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

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// How deep arrays and objects may nest. The parser recurses once per
/// level, so an unbounded input (a file of `[`s) would overflow the stack;
/// every report and trail we write nests fewer than ten levels.
const MAX_DEPTH: usize = 256;

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{' | b'[') if depth == MAX_DEPTH => Err(format!(
            "nesting deeper than {MAX_DEPTH} levels at offset {pos}"
        )),
        Some(b'{') => parse_obj(bytes, pos, depth + 1),
        Some(b'[') => parse_arr(bytes, pos, depth + 1),
        Some(b'"') => Ok(JsonValue::Str(parse_str(bytes, pos)?)),
        Some(b't') => parse_lit(bytes, pos, "true", JsonValue::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", JsonValue::Bool(false)),
        Some(b'n') => parse_lit(bytes, pos, "null", JsonValue::Null),
        Some(_) => parse_num(bytes, pos),
    }
}

fn parse_lit(
    bytes: &[u8],
    pos: &mut usize,
    lit: &str,
    value: JsonValue,
) -> Result<JsonValue, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("expected `{lit}` at offset {pos}"))
    }
}

fn parse_num(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    text.parse::<f64>()
        .map(JsonValue::Num)
        .map_err(|_| format!("bad number `{text}` at offset {start}"))
}

fn parse_str(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(bytes[*pos], b'"');
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                            16,
                        )
                        .map_err(|e| e.to_string())?;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at offset {pos}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the whole run up to the next quote or escape. Both
                // delimiters are ASCII, so the cut never splits a UTF-8
                // scalar — and validating only the run keeps parsing
                // linear (re-validating the rest of the input per
                // character made multi-megabyte trails take minutes).
                let start = *pos;
                while *pos < bytes.len() && !matches!(bytes[*pos], b'"' | b'\\') {
                    *pos += 1;
                }
                out.push_str(std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?);
            }
        }
    }
}

fn parse_arr(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    *pos += 1; // '['
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(JsonValue::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(JsonValue::Arr(items));
            }
            _ => return Err(format!("expected `,` or `]` at offset {pos}")),
        }
    }
}

fn parse_obj(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    *pos += 1; // '{'
    let mut members = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(JsonValue::Obj(members));
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(format!("expected member key at offset {pos}"));
        }
        let key = parse_str(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(format!("expected `:` at offset {pos}"));
        }
        *pos += 1;
        let value = parse_value(bytes, pos, depth)?;
        members.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(JsonValue::Obj(members));
            }
            _ => return Err(format!("expected `,` or `}}` at offset {pos}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_compact_documents() {
        let cases = [
            r#"{"a":1,"b":[1,2,3],"c":{"d":null,"e":true},"f":"x"}"#,
            r#"[0,-7,3.5,"s",false]"#,
            r#"{}"#,
            r#"{"nested":{"deep":[{"k":"v"}]}}"#,
        ];
        for text in cases {
            let v = JsonValue::parse(text).unwrap();
            assert_eq!(v.to_string_compact(), text, "round trip of {text}");
        }
    }

    #[test]
    fn parses_whitespace_and_escapes() {
        let v = JsonValue::parse(" { \"a\\n\" : [ 1 ,\t2 ] } ").unwrap();
        assert_eq!(v.get("a\n").unwrap().as_arr().unwrap().len(), 2);
        let s = JsonValue::parse(r#""tab\tquote\" end""#).unwrap();
        assert_eq!(s.as_str(), Some("tab\tquote\" end"));
        let s = JsonValue::parse(r#""10³ → 10⁶\n§4""#).unwrap();
        assert_eq!(s.as_str(), Some("10³ → 10⁶\n§4"), "multi-byte runs");
    }

    #[test]
    fn builders_and_scrub() {
        let mut doc = JsonValue::obj(vec![
            ("runs", JsonValue::uint(3)),
            ("wall_s", JsonValue::Num(0.25)),
            ("skipped", JsonValue::opt_uint(None)),
            (
                "rows",
                JsonValue::Arr(vec![JsonValue::obj(vec![
                    ("name", JsonValue::str_val("a")),
                    ("wall_s", JsonValue::Num(0.5)),
                ])]),
            ),
        ]);
        doc.scrub(&["wall_s"]);
        assert_eq!(
            doc.to_string_compact(),
            r#"{"runs":3,"wall_s":null,"skipped":null,"rows":[{"name":"a","wall_s":null}]}"#
        );
    }

    #[test]
    fn preserves_member_order() {
        let text = r#"{"z":1,"a":2,"m":3}"#;
        let v = JsonValue::parse(text).unwrap();
        assert_eq!(v.to_string_compact(), text);
    }

    #[test]
    fn rejects_malformed_input() {
        for text in ["{", "[1,", r#"{"a"}"#, "tru", "1 2", ""] {
            assert!(JsonValue::parse(text).is_err(), "{text:?} should fail");
        }
    }

    #[test]
    fn nesting_is_capped_not_a_stack_overflow() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(JsonValue::parse(&nested(MAX_DEPTH)).is_ok());
        let err = JsonValue::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting deeper than"), "{err}");
        let deep_obj = format!(
            "{}1{}",
            r#"{"a":"#.repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert!(JsonValue::parse(&deep_obj).is_err());
        assert!(JsonValue::parse(&"[".repeat(200_000)).is_err());
    }

    #[test]
    fn integer_numbers_stay_integers() {
        let v = JsonValue::parse("1234567890123").unwrap();
        assert_eq!(v.to_string_compact(), "1234567890123");
        assert_eq!(v.as_u64(), Some(1234567890123));
        let f = JsonValue::parse("0.25").unwrap();
        assert_eq!(f.to_string_compact(), "0.25");
        assert_eq!(f.as_u64(), None);
    }

    #[test]
    fn non_finite_numbers_write_as_null_and_read_back() {
        let doc = JsonValue::Arr(vec![
            JsonValue::Num(f64::NAN),
            JsonValue::Num(f64::INFINITY),
            JsonValue::Num(f64::NEG_INFINITY),
            JsonValue::Num(1.5),
        ]);
        for text in [doc.to_string_compact(), doc.to_string_pretty()] {
            let back = JsonValue::parse(&text).expect("a written report reads back");
            assert_eq!(back.to_string_compact(), "[null,null,null,1.5]");
        }
    }

    #[test]
    fn get_mut_allows_scrubbing() {
        let mut v = JsonValue::parse(r#"{"wall_s":1.23,"events":42}"#).unwrap();
        *v.get_mut("wall_s").unwrap() = JsonValue::Num(0.0);
        assert_eq!(v.to_string_compact(), r#"{"wall_s":0,"events":42}"#);
    }

    #[test]
    fn pretty_form_round_trips_to_the_same_value() {
        let text = r#"{"a":[1,2,{"b":null}],"c":{},"d":[],"e":"x"}"#;
        let v = JsonValue::parse(text).unwrap();
        let pretty = v.to_string_pretty();
        assert!(pretty.contains("\n  \"a\": ["));
        assert!(pretty.contains(r#""c": {}"#), "empty obj stays inline");
        assert!(pretty.contains(r#""d": []"#), "empty arr stays inline");
        let back = JsonValue::parse(&pretty).unwrap();
        assert_eq!(back.to_string_compact(), text);
    }
}
