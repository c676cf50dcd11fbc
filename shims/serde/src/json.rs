//! A minimal ordered JSON value tree with a deterministic renderer.
//!
//! This is the shim's stand-in for `serde_json::Value`: object fields keep
//! insertion order so rendered documents are stable byte-for-byte for
//! identical inputs — what keeps committed benchmark baselines diffable
//! and makes [`Value::render_compact`] a sound content-hash input for the
//! plan cache. [`crate::Serialize::to_json`] (hand-written or
//! `#[derive(Serialize)]`) produces these values; [`Value::render`] emits
//! pretty-printed JSON; [`Value::parse`] is its exact dual.
//!
//! Numbers are stored in three variants so round trips are lossless:
//! [`Value::UInt`]/[`Value::Int`] hold integer tokens exactly (no 2^53
//! truncation), and [`Value::Num`] holds everything with a fraction or
//! exponent, rendered with shortest-round-trip (`{:?}`) formatting.
//! Cross-variant numeric equality (`Num(16.0) == Int(16)`) keeps value
//! trees comparable regardless of which side of a round trip they came
//! from. Non-finite floats are not representable in JSON; the renderer
//! emits a tagged object `{"$f64": "NaN" | "inf" | "-inf"}` that
//! [`Value::as_num`] decodes, instead of silently degrading to `null`.

use std::fmt::Write as _;

/// A JSON value. Object fields keep insertion order so rendered documents
/// are stable byte-for-byte for identical inputs.
#[derive(Debug, Clone)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number with a fraction or exponent (or out of integer range),
    /// rendered with shortest-round-trip formatting. Non-finite values
    /// render as the tagged object `{"$f64": ...}`.
    Num(f64),
    /// A non-negative integer token, held exactly (u64 range).
    UInt(u64),
    /// A negative integer token, held exactly (i64 range).
    Int(i64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object with ordered fields.
    Obj(Vec<(String, Value)>),
}

/// Structural equality with cross-variant numeric comparison: integer
/// variants equal a `Num` exactly when the float is integral and the
/// exact cast matches (so `Num(16.0) == Int(16)` but
/// `Num(9007199254740993.0) != UInt(9007199254740993)` — the float
/// literal actually holds 2^53, not 2^53+1).
impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        use Value::*;
        match (self, other) {
            (Null, Null) => true,
            (Bool(a), Bool(b)) => a == b,
            (Str(a), Str(b)) => a == b,
            (Arr(a), Arr(b)) => a == b,
            (Obj(a), Obj(b)) => a == b,
            (Num(a), Num(b)) => a == b,
            (UInt(a), UInt(b)) => a == b,
            (Int(a), Int(b)) => a == b,
            (UInt(u), Int(i)) | (Int(i), UInt(u)) => *i >= 0 && *i as u64 == *u,
            (Num(f), UInt(u)) | (UInt(u), Num(f)) => {
                // Exclusive upper bound: 2^64 as f64 rounds to itself and
                // would saturate the cast.
                f.fract() == 0.0
                    && *f >= 0.0
                    && *f < 18_446_744_073_709_551_616.0
                    && *f as u64 == *u
            }
            (Num(f), Int(i)) | (Int(i), Num(f)) => {
                f.fract() == 0.0
                    && *f >= -9_223_372_036_854_775_808.0
                    && *f < 9_223_372_036_854_775_808.0
                    && *f as i64 == *i
            }
            _ => false,
        }
    }
}

impl Value {
    /// Convenience constructor for an object literal.
    pub fn obj(fields: impl IntoIterator<Item = (&'static str, Value)>) -> Value {
        Value::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Convenience constructor for a string value.
    pub fn str(s: impl Into<String>) -> Value {
        Value::Str(s.into())
    }

    /// Parses a JSON document into a value tree (object field order is
    /// preserved; integer tokens parse exactly into [`Value::UInt`] /
    /// [`Value::Int`], everything else into [`Value::Num`] — the dual of
    /// [`Value::render`], which round-trips everything this module
    /// emits). Duplicate object keys are kept as-is, last-reader-wins
    /// through [`Value::get`].
    ///
    /// # Errors
    ///
    /// Returns a message describing the first syntax error (with byte
    /// offset) on malformed input, including trailing garbage, lone
    /// UTF-16 surrogates in `\u` escapes, and nesting deeper than 128
    /// levels (the recursive-descent parser bounds its stack instead of
    /// overflowing on adversarial input).
    pub fn parse(text: &str) -> Result<Value, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing characters at byte {pos}"));
        }
        Ok(value)
    }

    /// Object field lookup (`None` on non-objects and missing keys; the
    /// last field wins on duplicates).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload as `f64` (integer variants coerce; values
    /// above 2^53 may lose precision — use [`Value::as_u64`] /
    /// [`Value::as_i64`] for exact counts). Also decodes the tagged
    /// non-finite object `{"$f64": "NaN" | "inf" | "-inf"}`.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Value::Num(v) => Some(*v),
            Value::UInt(u) => Some(*u as f64),
            Value::Int(i) => Some(*i as f64),
            Value::Obj(fields) if fields.len() == 1 && fields[0].0 == "$f64" => {
                match fields[0].1.as_str() {
                    Some("NaN") => Some(f64::NAN),
                    Some("inf") => Some(f64::INFINITY),
                    Some("-inf") => Some(f64::NEG_INFINITY),
                    _ => None,
                }
            }
            _ => None,
        }
    }

    /// The exact unsigned-integer payload: [`Value::UInt`] directly,
    /// non-negative [`Value::Int`], or an integral in-range [`Value::Num`]
    /// (exact by IEEE-754 — integral doubles below 2^53 cast losslessly).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::UInt(u) => Some(*u),
            Value::Int(i) => u64::try_from(*i).ok(),
            Value::Num(f) if f.fract() == 0.0 && *f >= 0.0 && *f < 18_446_744_073_709_551_616.0 => {
                Some(*f as u64)
            }
            _ => None,
        }
    }

    /// The exact signed-integer payload (see [`Value::as_u64`]).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::UInt(u) => i64::try_from(*u).ok(),
            Value::Num(f)
                if f.fract() == 0.0
                    && *f >= -9_223_372_036_854_775_808.0
                    && *f < 9_223_372_036_854_775_808.0 =>
            {
                Some(*f as i64)
            }
            _ => None,
        }
    }

    /// The array items, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
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

    /// Renders with 2-space indentation and a trailing newline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    /// Renders on a single line with no whitespace — the canonical form
    /// the plan cache hashes (identical trees render identical bytes).
    pub fn render_compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    fn write_num(out: &mut String, v: f64) {
        if v.is_finite() {
            // Integral values below 2^53 render without a fraction (and
            // parse back into an exact integer variant); -0.0 keeps its
            // sign through the float path.
            if v.fract() == 0.0
                && v.abs() < 9_007_199_254_740_992.0
                && !(v == 0.0 && v.is_sign_negative())
            {
                write_int(out, v as i64);
            } else {
                // `{:?}` is shortest-round-trip: the decimal it prints
                // parses back to the identical f64 bits.
                let _ = write!(out, "{v:?}");
            }
        } else if v.is_nan() {
            out.push_str("{\"$f64\": \"NaN\"}");
        } else if v > 0.0 {
            out.push_str("{\"$f64\": \"inf\"}");
        } else {
            out.push_str("{\"$f64\": \"-inf\"}");
        }
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(v) => Self::write_num(out, *v),
            Value::UInt(u) => write_uint(out, *u),
            Value::Int(i) => write_int(out, *i),
            Value::Str(s) => write_escaped(out, s),
            Value::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    write_indent(out, indent + 1);
                    item.write(out, indent + 1);
                    out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
                }
                write_indent(out, indent);
                out.push(']');
            }
            Value::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push_str("{\n");
                for (i, (k, v)) in fields.iter().enumerate() {
                    write_indent(out, indent + 1);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                    out.push_str(if i + 1 < fields.len() { ",\n" } else { "\n" });
                }
                write_indent(out, indent);
                out.push('}');
            }
        }
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(v) => Self::write_num(out, *v),
            Value::UInt(u) => write_uint(out, *u),
            Value::Int(i) => write_int(out, *i),
            Value::Str(s) => write_escaped(out, s),
            Value::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            Value::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write_compact(out);
                }
                out.push('}');
            }
        }
    }
}

/// The run of spaces indentation is sliced from: 32 levels.
const SPACES: &str = "                                                                ";

/// Writes `depth` two-space indentation steps, as one slice of
/// [`SPACES`] (a run per [`SPACES`] length beyond it).
fn write_indent(out: &mut String, depth: usize) {
    let mut width = 2 * depth;
    while width > SPACES.len() {
        out.push_str(SPACES);
        width -= SPACES.len();
    }
    out.push_str(&SPACES[..width]);
}

/// Writes `v` in decimal, the bytes `{}` formats it to, from a digit
/// loop into a stack buffer instead of through `fmt`.
fn write_uint(out: &mut String, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend(digits[at..].iter().map(|&d| char::from(d)));
}

/// [`write_uint`] for a signed integer: a `-` and the magnitude.
fn write_int(out: &mut String, v: i64) {
    if v < 0 {
        out.push('-');
    }
    write_uint(out, v.unsigned_abs());
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    loop {
        match bytes.get(*pos) {
            // Rendered documents are mostly indentation: step over a run
            // of spaces eight at a time.
            Some(b' ') => {
                while bytes[*pos..].first_chunk() == Some(b"        ") {
                    *pos += 8;
                }
                while bytes.get(*pos) == Some(&b' ') {
                    *pos += 1;
                }
            }
            Some(b'\t' | b'\n' | b'\r') => *pos += 1,
            _ => return,
        }
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), String> {
    if *pos < bytes.len() && bytes[*pos] == b {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", b as char, *pos))
    }
}

/// Maximum container nesting [`Value::parse`] accepts.
const MAX_DEPTH: usize = 128;

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Value, String> {
    if depth > MAX_DEPTH {
        return Err(format!("nesting deeper than {MAX_DEPTH} at byte {}", *pos));
    }
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'n') => parse_lit(bytes, pos, "null", Value::Null),
        Some(b't') => parse_lit(bytes, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Value::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Value::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Value::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Value::Obj(fields));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, b':')?;
                let value = parse_value(bytes, pos, depth + 1)?;
                fields.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Value::Obj(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
                }
            }
        }
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Value) -> Result<Value, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {}", *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let token = &bytes[start..*pos];
    if let Some(v) = short_int(token) {
        return Ok(v);
    }
    let text = std::str::from_utf8(token).map_err(|e| e.to_string())?;
    // Pure integer tokens parse exactly (no round trip through f64, which
    // corrupts counts above 2^53); fraction/exponent tokens — and integer
    // tokens overflowing 64 bits — fall back to f64.
    if !text.bytes().any(|b| matches!(b, b'.' | b'e' | b'E')) {
        if text.starts_with('-') {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::Int(i));
            }
        } else if let Ok(u) = text.parse::<u64>() {
            return Ok(Value::UInt(u));
        }
    }
    text.parse::<f64>()
        .map(Value::Num)
        .map_err(|_| format!("invalid number {text:?} at byte {start}"))
}

/// The value of a plain integer token of at most 18 digits
/// (`-?[0-9]{1,18}`, the bulk of a plan document), read digit by digit:
/// the variant and value the general path's `str::parse` gives, since no
/// such token overflows. `None` for every other token.
fn short_int(token: &[u8]) -> Option<Value> {
    let (negative, digits) = match token.split_first() {
        Some((b'-', rest)) => (true, rest),
        _ => (false, token),
    };
    if digits.is_empty() || digits.len() > 18 || !digits.iter().all(u8::is_ascii_digit) {
        return None;
    }
    let magnitude = digits
        .iter()
        .fold(0u64, |m, &d| m * 10 + u64::from(d - b'0'));
    Some(if negative {
        Value::Int(-(magnitude as i64))
    } else {
        Value::UInt(magnitude)
    })
}

/// Reads the 4 hex digits of a `\uXXXX` escape starting at `at`.
fn read_hex4(bytes: &[u8], at: usize) -> Result<u32, String> {
    let hex = bytes.get(at..at + 4).ok_or("truncated \\u escape")?;
    u32::from_str_radix(std::str::from_utf8(hex).map_err(|e| e.to_string())?, 16)
        .map_err(|e| e.to_string())
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
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
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let code = read_hex4(bytes, *pos + 1)?;
                        *pos += 4;
                        if (0xD800..0xDC00).contains(&code) {
                            // A high surrogate must pair with an
                            // immediately following \uXXXX low surrogate
                            // (UTF-16 encoding of an astral-plane char).
                            if bytes.get(*pos + 1) != Some(&b'\\')
                                || bytes.get(*pos + 2) != Some(&b'u')
                            {
                                return Err(format!(
                                    "lone high surrogate \\u{code:04x} at byte {}",
                                    *pos - 4
                                ));
                            }
                            let lo = read_hex4(bytes, *pos + 3)?;
                            if !(0xDC00..0xE000).contains(&lo) {
                                return Err(format!(
                                    "high surrogate \\u{code:04x} followed by \
                                     non-low-surrogate \\u{lo:04x} at byte {}",
                                    *pos - 4
                                ));
                            }
                            *pos += 6;
                            let scalar = 0x10000 + ((code - 0xD800) << 10) + (lo - 0xDC00);
                            out.push(char::from_u32(scalar).expect("paired surrogate is valid"));
                        } else if (0xDC00..0xE000).contains(&code) {
                            return Err(format!(
                                "lone low surrogate \\u{code:04x} at byte {}",
                                *pos - 4
                            ));
                        } else {
                            out.push(char::from_u32(code).expect("non-surrogate BMP scalar"));
                        }
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the run up to the next quote or backslash (or the
                // end) in one step. Both delimiters are ASCII, so the run
                // ends on a char boundary and every byte is validated once.
                let run = bytes[*pos..]
                    .iter()
                    .position(|&b| b == b'"' || b == b'\\')
                    .unwrap_or(bytes.len() - *pos);
                let text =
                    std::str::from_utf8(&bytes[*pos..*pos + run]).map_err(|e| e.to_string())?;
                out.push_str(text);
                *pos += run;
            }
        }
    }
}

/// Writes `s` as a quoted JSON string with the mandatory escapes (used
/// for both string values and object keys).
fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    /// SplitMix64 step: the seeded stream the property tests draw from
    /// (the shim has no proptest dependency).
    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[test]
    fn parse_round_trips_rendered_documents() {
        let doc = Value::Obj(vec![
            ("schema".into(), Value::Str("x/3".into())),
            ("ok".into(), Value::Bool(true)),
            ("n".into(), Value::Num(2.5)),
            ("i".into(), Value::Num(16.0)),
            ("none".into(), Value::Null),
            (
                "arr".into(),
                Value::Arr(vec![Value::Num(1.0), Value::Str("a\"b\n".into())]),
            ),
            ("empty_arr".into(), Value::Arr(vec![])),
            ("empty_obj".into(), Value::Obj(vec![])),
        ]);
        let back = Value::parse(&doc.render()).expect("round trip");
        assert_eq!(doc, back);
        let back = Value::parse(&doc.render_compact()).expect("compact round trip");
        assert_eq!(doc, back);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Value::parse("").is_err());
        assert!(Value::parse("{").is_err());
        assert!(Value::parse("[1, ]").is_err());
        assert!(Value::parse("{\"a\": 1} trailing").is_err());
        assert!(Value::parse("nul").is_err());
    }

    #[test]
    fn parse_bounds_nesting_depth() {
        // Adversarially nested input must produce an Err, not blow the
        // stack (the --check-schema CI gate parses on-disk files).
        let deep = "[".repeat(200_000);
        let err = Value::parse(&deep).expect_err("deep nesting rejected");
        assert!(err.contains("nesting deeper"), "{err}");
        // 100 levels stay fine.
        let ok = format!("{}1{}", "[".repeat(100), "]".repeat(100));
        assert!(Value::parse(&ok).is_ok());
    }

    #[test]
    fn accessors_navigate_parsed_trees() {
        let v = Value::parse(r#"{"a": {"b": [1, 2, 3]}, "s": "hi"}"#).unwrap();
        assert_eq!(v.get("s").and_then(Value::as_str), Some("hi"));
        let arr = v.get("a").and_then(|a| a.get("b")).and_then(Value::as_arr);
        assert_eq!(arr.map(|a| a.len()), Some(3));
        assert_eq!(arr.unwrap()[2].as_num(), Some(3.0));
        assert!(v.get("missing").is_none());
        assert!(Value::Num(1.0).get("x").is_none());
    }

    #[test]
    fn parse_handles_unicode_and_escapes() {
        let v = Value::parse(r#""café \"quoted\" \\ done""#).unwrap();
        assert_eq!(v.as_str(), Some("café \"quoted\" \\ done"));
        let v = Value::parse("\"emoji ✓ passthrough\"").unwrap();
        assert_eq!(v.as_str(), Some("emoji ✓ passthrough"));
    }

    #[test]
    fn surrogate_pairs_combine_and_lone_surrogates_error() {
        // U+1F600 😀 is the surrogate pair D83D DE00 in UTF-16.
        let v = Value::parse(r#""\ud83d\ude00""#).unwrap();
        assert_eq!(v.as_str(), Some("😀"));
        // Pair embedded mid-string, and uppercase hex.
        let v = Value::parse(r#""a\uD83D\uDE00b""#).unwrap();
        assert_eq!(v.as_str(), Some("a😀b"));
        // Raw astral chars pass through unescaped too.
        let v = Value::parse("\"😀\"").unwrap();
        assert_eq!(v.as_str(), Some("😀"));
        // Lone high, lone low, and high followed by a non-surrogate all
        // produce clear errors instead of U+FFFD corruption.
        let err = Value::parse(r#""\ud83d""#).expect_err("lone high");
        assert!(err.contains("lone high surrogate"), "{err}");
        let err = Value::parse(r#""\ude00""#).expect_err("lone low");
        assert!(err.contains("lone low surrogate"), "{err}");
        let err = Value::parse(r#""\ud83d\u0041""#).expect_err("bad pair");
        assert!(err.contains("non-low-surrogate"), "{err}");
        let err = Value::parse(r#""\ud83dxx""#).expect_err("unpaired");
        assert!(err.contains("lone high surrogate"), "{err}");
    }

    #[test]
    fn integers_round_trip_exactly_beyond_2_53() {
        for &u in &[0u64, 1, 2_u64.pow(53) + 1, u64::MAX] {
            let back = Value::parse(&Value::UInt(u).render()).unwrap();
            assert_eq!(back.as_u64(), Some(u), "u64 {u}");
        }
        for &i in &[-1i64, i64::MIN, -(2_i64.pow(53) + 1)] {
            let back = Value::parse(&Value::Int(i).render()).unwrap();
            assert_eq!(back.as_i64(), Some(i), "i64 {i}");
        }
        // The token text is preserved, not routed through f64.
        assert_eq!(
            Value::parse("9007199254740993").unwrap(),
            Value::UInt(9_007_199_254_740_993)
        );
        assert_ne!(
            Value::parse("9007199254740993").unwrap(),
            Value::Num(9_007_199_254_740_992.0)
        );
    }

    /// What the general number path makes of an integer token.
    fn general_int(token: &str) -> Value {
        if token.starts_with('-') {
            Value::Int(token.parse().unwrap())
        } else {
            Value::UInt(token.parse().unwrap())
        }
    }

    #[test]
    fn short_integer_tokens_parse_as_the_general_path_does() {
        // Variants are compared through `Debug`: `==` crosses them.
        let exact = |v: &Value| format!("{v:?}");
        for t in [
            "0",
            "-0",
            "7",
            "-7",
            "007",
            "-007",
            "255",
            "-128",
            "999999999999999999",
            "-999999999999999999",
        ] {
            let got = short_int(t.as_bytes()).unwrap_or_else(|| panic!("{t}"));
            assert_eq!(exact(&got), exact(&general_int(t)), "{t}");
        }
        // Every other token falls through to the general path.
        for t in [
            "",
            "-",
            "+5",
            "1.5",
            "1e3",
            "-1E3",
            "1-2",
            "--1",
            "1000000000000000000",
            "-1000000000000000000",
            "18446744073709551615",
        ] {
            assert!(short_int(t.as_bytes()).is_none(), "{t}");
        }
        assert_eq!(exact(&Value::parse("+5").unwrap()), exact(&Value::UInt(5)));
        assert_eq!(
            exact(&Value::parse("-9223372036854775808").unwrap()),
            exact(&Value::Int(i64::MIN))
        );
        // Seeded tokens of every length on both sides of the 18-digit
        // edge, with and without a sign and leading zeros.
        let mut state = 0x1D1E_5EED_0000_0018u64;
        for _ in 0..4096 {
            let digits = 1 + (splitmix64(&mut state) % 20) as usize;
            let mut t: String = (0..digits)
                .map(|_| char::from(b'0' + (splitmix64(&mut state) % 10) as u8))
                .collect();
            if splitmix64(&mut state) & 1 == 0 {
                t.insert(0, '-');
            }
            let fits = if t.starts_with('-') {
                t.parse::<i64>().is_ok()
            } else {
                t.parse::<u64>().is_ok()
            };
            let got = Value::parse(&t).unwrap();
            if fits {
                assert_eq!(exact(&got), exact(&general_int(&t)), "{t}");
            } else {
                assert!(matches!(got, Value::Num(_)), "{t}");
            }
        }
    }

    #[test]
    fn whitespace_runs_of_any_length_separate_tokens() {
        for (k, m) in (0..20).flat_map(|k| (0..20).map(move |m| (k, m))) {
            let (a, b) = (" ".repeat(k), " ".repeat(m));
            let text = format!("{a}[{b}1{a},\t\r\n{b}-2{b}]{a}");
            let v = Value::parse(&text).unwrap_or_else(|e| panic!("{text:?}: {e}"));
            assert_eq!(
                v,
                Value::Arr(vec![Value::UInt(1), Value::Int(-2)]),
                "{text:?}"
            );
        }
        assert!(Value::parse("[1,        ").is_err());
        assert!(Value::parse("        ").is_err());
    }

    #[test]
    fn numeric_equality_crosses_variants() {
        assert_eq!(Value::Num(16.0), Value::Int(16));
        assert_eq!(Value::Num(16.0), Value::UInt(16));
        assert_eq!(Value::Int(16), Value::UInt(16));
        assert_ne!(Value::Int(-1), Value::UInt(u64::MAX));
        assert_ne!(Value::Num(16.5), Value::Int(16));
        // 2^53+1 is not representable as f64: the nearest double (2^53)
        // must not compare equal to the exact integer.
        assert_ne!(
            Value::Num(9_007_199_254_740_992.0),
            Value::UInt(9_007_199_254_740_993)
        );
        assert_eq!(
            Value::Num(9_007_199_254_740_992.0),
            Value::UInt(9_007_199_254_740_992)
        );
    }

    #[test]
    fn integers_render_the_bytes_fmt_writes() {
        let mut state = 0x1A7E_u64;
        let mut signed = vec![0, 1, -1, 9, -9, 10, -10, 99, -99, 100, -100];
        signed.extend([i64::MIN, i64::MIN + 1, i64::MAX]);
        signed.extend((0..2000).map(|i| {
            // Every digit count and both signs: shift the draw down by
            // 0..63 bits, negate every other one.
            let v = (splitmix64(&mut state) >> (i / 2 % 64)) as i64;
            if i % 2 == 0 {
                v
            } else {
                v.wrapping_neg()
            }
        }));
        let mut unsigned: Vec<u64> = signed.iter().map(|v| v.unsigned_abs()).collect();
        unsigned.extend([u64::MAX, u64::MAX - 1, 1 << 63]);
        for v in signed {
            let want = format!("{v}");
            assert_eq!(Value::Int(v).render_compact(), want);
            assert_eq!(Value::Int(v).render(), format!("{want}\n"));
            // Integral floats below 2^53 take the same path.
            if v.unsigned_abs() < 1 << 53 {
                assert_eq!(Value::Num(v as f64).render_compact(), want);
            }
        }
        for v in unsigned {
            let want = format!("{v}");
            assert_eq!(Value::UInt(v).render_compact(), want);
            assert_eq!(Value::UInt(v).render(), format!("{want}\n"));
        }
        assert_eq!(Value::Bool(true).render_compact(), "true");
        assert_eq!(Value::Bool(false).render(), "false\n");
    }

    /// The pretty renderer with indentation pushed one level at a time.
    fn render_per_level(v: &Value, depth: usize, out: &mut String) {
        let indent = |out: &mut String, depth: usize| {
            for _ in 0..depth {
                out.push_str("  ");
            }
        };
        match v {
            Value::Arr(items) if !items.is_empty() => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    indent(out, depth + 1);
                    render_per_level(item, depth + 1, out);
                    out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
                }
                indent(out, depth);
                out.push(']');
            }
            Value::Obj(fields) if !fields.is_empty() => {
                out.push_str("{\n");
                for (i, (k, v)) in fields.iter().enumerate() {
                    indent(out, depth + 1);
                    out.push_str(&Value::Str(k.clone()).render_compact());
                    out.push_str(": ");
                    render_per_level(v, depth + 1, out);
                    out.push_str(if i + 1 < fields.len() { ",\n" } else { "\n" });
                }
                indent(out, depth);
                out.push('}');
            }
            leaf => out.push_str(&leaf.render_compact()),
        }
    }

    #[test]
    fn indentation_renders_as_per_level_pushes_at_any_depth() {
        // Past the static run of spaces (32 levels) and past twice it.
        let mut v = Value::Arr(vec![Value::Int(-7), Value::UInt(3)]);
        for depth in 0..70 {
            v = if depth % 2 == 0 {
                Value::Arr(vec![Value::Null, v, Value::Arr(vec![])])
            } else {
                Value::obj([("k", v), ("empty", Value::Obj(vec![]))])
            };
            let mut want = String::new();
            render_per_level(&v, 0, &mut want);
            want.push('\n');
            assert_eq!(v.render(), want, "nesting depth {depth}");
        }
        assert_eq!(Value::parse(&v.render()).unwrap(), v);
    }

    #[test]
    fn floats_render_shortest_round_trip() {
        // 0.1 has no exact decimal expansion; default `{}` formatting is
        // already shortest for it, but values like 1e-300 or f64::MIN
        // need `{:?}` to stay exact. Check bit-exactness through a full
        // render→parse cycle.
        for &v in &[
            0.1,
            1.0 / 3.0,
            f64::MAX,
            f64::MIN,
            f64::MIN_POSITIVE,
            5e-324,
            1e300,
            -2.5e-10,
            9_007_199_254_740_992.0,
            -0.0,
            0.0,
            1.5,
        ] {
            let back = Value::parse(&Value::Num(v).render()).unwrap();
            let got = back.as_num().unwrap();
            assert_eq!(got.to_bits(), v.to_bits(), "{v:?} -> {got:?}");
        }
    }

    #[test]
    fn non_finite_floats_render_tagged_not_null() {
        for (v, tag) in [
            (f64::NAN, "NaN"),
            (f64::INFINITY, "inf"),
            (f64::NEG_INFINITY, "-inf"),
        ] {
            let rendered = Value::Num(v).render();
            assert!(rendered.contains("$f64"), "{rendered}");
            let back = Value::parse(&rendered).unwrap();
            assert_eq!(back.get("$f64").and_then(Value::as_str), Some(tag));
            let decoded = back.as_num().unwrap();
            assert_eq!(decoded.is_nan(), v.is_nan());
            if !v.is_nan() {
                assert_eq!(decoded.to_bits(), v.to_bits());
            }
        }
    }

    #[test]
    fn adversarial_float_bit_patterns_round_trip() {
        // Property test over raw bit patterns (SplitMix64 — the shim has
        // no proptest dependency): every f64, including subnormals and
        // extreme exponents, must survive render→parse bit-exactly; NaNs
        // must stay NaN through the tagged encoding.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..512 {
            let v = f64::from_bits(splitmix64(&mut state));
            let back = Value::parse(&Value::Num(v).render()).expect("parses");
            let got = back.as_num().expect("numeric");
            if v.is_nan() {
                assert!(got.is_nan());
            } else {
                assert_eq!(got.to_bits(), v.to_bits(), "{v:?} -> {got:?}");
            }
        }
    }

    /// A scalar drawn uniformly from `lo..hi`, skipping the surrogate
    /// block (which holds no chars).
    fn scalar_in(state: &mut u64, lo: u32, hi: u32) -> char {
        loop {
            let c = lo + (splitmix64(state) % u64::from(hi - lo)) as u32;
            if let Some(c) = char::from_u32(c) {
                return c;
            }
        }
    }

    /// A random string of pieces: printable ASCII runs (quotes,
    /// backslashes and slashes included), 2-, 3- and 4-byte UTF-8
    /// scalars, and every char JSON escapes.
    fn random_string(state: &mut u64) -> String {
        const ESCAPED: [char; 10] = [
            '"', '\\', '/', '\n', '\t', '\r', '\u{8}', '\u{c}', '\u{0}', '\u{1f}',
        ];
        let mut s = String::new();
        for _ in 0..splitmix64(state) % 12 {
            match splitmix64(state) % 5 {
                0 => {
                    for _ in 0..1 + splitmix64(state) % 8 {
                        s.push(scalar_in(state, 0x20, 0x7F));
                    }
                }
                1 => s.push(scalar_in(state, 0x80, 0x800)),
                2 => s.push(scalar_in(state, 0x800, 0x1_0000)),
                3 => s.push(scalar_in(state, 0x1_0000, 0x11_0000)),
                _ => s.push(ESCAPED[(splitmix64(state) % ESCAPED.len() as u64) as usize]),
            }
        }
        s
    }

    /// Encodes `s` as a JSON string literal the renderer never emits:
    /// each char is written raw where JSON allows it, as its short
    /// escape (`\/`, `\b` and `\f` included), or as `\uXXXX` in
    /// either hex case — astral chars as a UTF-16 surrogate pair.
    fn escape_randomly(s: &str, state: &mut u64) -> String {
        let mut out = String::from("\"");
        for c in s.chars() {
            let short = match c {
                '"' => Some("\\\""),
                '\\' => Some("\\\\"),
                '/' => Some("\\/"),
                '\u{8}' => Some("\\b"),
                '\u{c}' => Some("\\f"),
                '\n' => Some("\\n"),
                '\r' => Some("\\r"),
                '\t' => Some("\\t"),
                _ => None,
            };
            let raw_ok = !matches!(c, '"' | '\\') && c >= ' ';
            match (splitmix64(state) % 3, short) {
                (0, _) if raw_ok => out.push(c),
                (1, Some(esc)) => out.push_str(esc),
                _ => {
                    let mut units = [0u16; 2];
                    for unit in c.encode_utf16(&mut units) {
                        if splitmix64(state) & 1 == 0 {
                            let _ = write!(out, "\\u{unit:04x}");
                        } else {
                            let _ = write!(out, "\\u{unit:04X}");
                        }
                    }
                }
            }
        }
        out.push('"');
        out
    }

    #[test]
    fn prop_strings_round_trip_through_both_renderers() {
        // Seeded property test over strings mixing ASCII runs, multi-byte
        // UTF-8 and escapes, with the edge cases spelled out: the empty
        // string and strings that start or end with an escape. Each must
        // parse back exactly from `render`, from `render_compact`, as an
        // object key, and from an independent escaped spelling.
        let mut state = 0x5EED_5751_4E65_0F0Fu64;
        let mut cases: Vec<String> = ["", "\"", "\\", "\"x", "x\\", "\nx\t", "\u{1F600}"]
            .map(String::from)
            .to_vec();
        cases.extend((0..1024).map(|_| random_string(&mut state)));
        for s in &cases {
            let v = Value::Str(s.clone());
            for text in [
                v.render(),
                v.render_compact(),
                escape_randomly(s, &mut state),
            ] {
                let back = Value::parse(&text).unwrap_or_else(|e| panic!("{text:?}: {e}"));
                assert_eq!(back.as_str(), Some(s.as_str()), "{text:?}");
            }
            let obj = Value::Obj(vec![(s.clone(), Value::Str(s.clone()))]);
            assert_eq!(Value::parse(&obj.render()).unwrap(), obj, "key {s:?}");
            assert_eq!(
                Value::parse(&obj.render_compact()).unwrap(),
                obj,
                "key {s:?}"
            );
        }
    }
}
