//! Minimal JSON writing and parsing for the journal.
//!
//! The journal format is newline-delimited JSON (JSONL). Events are flat
//! objects with string/number/boolean/array values, so a full JSON library
//! is unnecessary — this module hand-rolls exactly the subset the journal
//! needs, keeping the crate dependency-free.

use std::fmt::Write as _;

/// A parsed JSON value.
///
/// Numbers keep their raw source text so integer values survive the round
/// trip without passing through `f64` (which would lose precision above
/// 2^53).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number, stored as its raw token text.
    Num(String),
    /// A string (already unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses a complete JSON document. Returns `None` on any syntax error
    /// or trailing garbage.
    pub fn parse(src: &str) -> Option<Json> {
        let bytes = src.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos == bytes.len() {
            Some(value)
        } else {
            None
        }
    }

    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is an integer number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The value as an `i64`, if it is a (possibly negative) integer
    /// number.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The value as an `f64`, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Whether the value is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Option<Json> {
    skip_ws(bytes, pos);
    match bytes.get(*pos)? {
        b'{' => parse_obj(bytes, pos),
        b'[' => parse_arr(bytes, pos),
        b'"' => parse_str(bytes, pos).map(Json::Str),
        b't' => parse_lit(bytes, pos, "true").map(|_| Json::Bool(true)),
        b'f' => parse_lit(bytes, pos, "false").map(|_| Json::Bool(false)),
        b'n' => parse_lit(bytes, pos, "null").map(|_| Json::Null),
        b'-' | b'0'..=b'9' => parse_num(bytes, pos),
        _ => None,
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str) -> Option<()> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Some(())
    } else {
        None
    }
}

fn parse_num(bytes: &[u8], pos: &mut usize) -> Option<Json> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let digits_start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    if *pos == digits_start {
        return None;
    }
    let raw = std::str::from_utf8(&bytes[start..*pos]).ok()?;
    // Validate through the float parser; the raw text is what we keep.
    raw.parse::<f64>().ok()?;
    Some(Json::Num(raw.to_string()))
}

fn parse_str(bytes: &[u8], pos: &mut usize) -> Option<String> {
    if bytes.get(*pos) != Some(&b'"') {
        return None;
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos)? {
            b'"' => {
                *pos += 1;
                return Some(out);
            }
            b'\\' => {
                *pos += 1;
                match bytes.get(*pos)? {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b't' => out.push('\t'),
                    b'r' => out.push('\r'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'u' => {
                        let hex = bytes.get(*pos + 1..*pos + 5)?;
                        let code = u32::from_str_radix(std::str::from_utf8(hex).ok()?, 16).ok()?;
                        out.push(char::from_u32(code)?);
                        *pos += 4;
                    }
                    _ => return None,
                }
                *pos += 1;
            }
            b if *b < 0x80 => {
                out.push(*b as char);
                *pos += 1;
            }
            _ => {
                // Decode one multi-byte UTF-8 scalar from a bounded window
                // (a scalar is at most 4 bytes; validating from `pos` to the
                // end of the document here would make parsing quadratic).
                let window = &bytes[*pos..(*pos + 4).min(bytes.len())];
                let valid = match std::str::from_utf8(window) {
                    Ok(s) => s,
                    // The window may cut the *next* scalar short; keep the
                    // valid prefix, which contains the one we want.
                    Err(e) if e.valid_up_to() > 0 => {
                        std::str::from_utf8(&window[..e.valid_up_to()]).ok()?
                    }
                    Err(_) => return None,
                };
                let ch = valid.chars().next()?;
                out.push(ch);
                *pos += ch.len_utf8();
            }
        }
    }
}

fn parse_arr(bytes: &[u8], pos: &mut usize) -> Option<Json> {
    *pos += 1; // consume '['
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Some(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos)? {
            b',' => *pos += 1,
            b']' => {
                *pos += 1;
                return Some(Json::Arr(items));
            }
            _ => return None,
        }
    }
}

fn parse_obj(bytes: &[u8], pos: &mut usize) -> Option<Json> {
    *pos += 1; // consume '{'
    let mut pairs = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Some(Json::Obj(pairs));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_str(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return None;
        }
        *pos += 1;
        let value = parse_value(bytes, pos)?;
        pairs.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos)? {
            b',' => *pos += 1,
            b'}' => {
                *pos += 1;
                return Some(Json::Obj(pairs));
            }
            _ => return None,
        }
    }
}

/// Incremental writer for a single flat JSON object.
///
/// # Examples
///
/// ```
/// use pqos_telemetry::json::ObjWriter;
///
/// let mut w = ObjWriter::new();
/// w.str("event", "job_submitted").u64("job", 7).bool("ok", true);
/// assert_eq!(w.finish(), r#"{"event":"job_submitted","job":7,"ok":true}"#);
/// ```
#[derive(Debug, Default)]
pub struct ObjWriter {
    out: String,
    any: bool,
}

impl ObjWriter {
    /// Starts an empty object.
    pub fn new() -> Self {
        ObjWriter {
            out: String::from("{"),
            any: false,
        }
    }

    fn key(&mut self, key: &str) -> &mut Self {
        if self.any {
            self.out.push(',');
        }
        self.any = true;
        self.out.push('"');
        escape_into(&mut self.out, key);
        self.out.push_str("\":");
        self
    }

    /// Writes an unsigned integer field.
    pub fn u64(&mut self, key: &str, v: u64) -> &mut Self {
        self.key(key);
        let _ = write!(self.out, "{v}");
        self
    }

    /// Writes a signed integer field.
    pub fn i64(&mut self, key: &str, v: i64) -> &mut Self {
        self.key(key);
        let _ = write!(self.out, "{v}");
        self
    }

    /// Writes a float field using the shortest representation that parses
    /// back to the same value. Non-finite values become `null`.
    pub fn f64(&mut self, key: &str, v: f64) -> &mut Self {
        self.key(key);
        if v.is_finite() {
            let _ = write!(self.out, "{v:?}");
        } else {
            self.out.push_str("null");
        }
        self
    }

    /// Writes a string field (escaped).
    pub fn str(&mut self, key: &str, v: &str) -> &mut Self {
        self.key(key);
        self.out.push('"');
        escape_into(&mut self.out, v);
        self.out.push('"');
        self
    }

    /// Writes a boolean field.
    pub fn bool(&mut self, key: &str, v: bool) -> &mut Self {
        self.key(key);
        self.out.push_str(if v { "true" } else { "false" });
        self
    }

    /// Writes either an unsigned integer or `null`.
    pub fn opt_u64(&mut self, key: &str, v: Option<u64>) -> &mut Self {
        match v {
            Some(v) => self.u64(key, v),
            None => {
                self.key(key);
                self.out.push_str("null");
                self
            }
        }
    }

    /// Writes an array of unsigned integers.
    pub fn arr_u64(&mut self, key: &str, vs: &[u64]) -> &mut Self {
        self.key(key);
        self.out.push('[');
        for (i, v) in vs.iter().enumerate() {
            if i > 0 {
                self.out.push(',');
            }
            let _ = write!(self.out, "{v}");
        }
        self.out.push(']');
        self
    }

    /// Writes an array of strings (each escaped).
    pub fn arr_str<S: AsRef<str>>(&mut self, key: &str, vs: &[S]) -> &mut Self {
        self.key(key);
        self.out.push('[');
        for (i, v) in vs.iter().enumerate() {
            if i > 0 {
                self.out.push(',');
            }
            self.out.push('"');
            escape_into(&mut self.out, v.as_ref());
            self.out.push('"');
        }
        self.out.push(']');
        self
    }

    /// Writes a pre-serialized JSON value verbatim (for nested objects or
    /// arrays the typed methods do not cover). The caller is responsible
    /// for `json` being valid JSON.
    pub fn raw(&mut self, key: &str, json: &str) -> &mut Self {
        self.key(key);
        self.out.push_str(json);
        self
    }

    /// Closes the object and returns the JSON text.
    pub fn finish(mut self) -> String {
        self.out.push('}');
        self.out
    }
}

fn escape_into(out: &mut String, s: &str) {
    for ch in s.chars() {
        match ch {
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_and_parser_round_trip() {
        let mut w = ObjWriter::new();
        w.str("event", "x")
            .u64("n", 18_446_744_073_709_551_615)
            .f64("p", 0.1)
            .bool("ok", false)
            .opt_u64("victim", None)
            .arr_u64("nodes", &[1, 2, 3]);
        let text = w.finish();
        let v = Json::parse(&text).expect("valid json");
        assert_eq!(v.get("event").unwrap().as_str(), Some("x"));
        assert_eq!(v.get("n").unwrap().as_u64(), Some(u64::MAX));
        assert_eq!(v.get("p").unwrap().as_f64(), Some(0.1));
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(false));
        assert!(v.get("victim").unwrap().is_null());
        let nodes: Vec<u64> = v
            .get("nodes")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|j| j.as_u64().unwrap())
            .collect();
        assert_eq!(nodes, vec![1, 2, 3]);
    }

    #[test]
    fn u64_precision_survives() {
        // 2^53 + 1 is not representable as f64; raw-text numbers keep it.
        let text = r#"{"n":9007199254740993}"#;
        let v = Json::parse(text).unwrap();
        assert_eq!(v.get("n").unwrap().as_u64(), Some(9_007_199_254_740_993));
    }

    #[test]
    fn signed_integers_round_trip() {
        let mut w = ObjWriter::new();
        w.i64("neg", -300).i64("pos", 41).i64("min", i64::MIN);
        let text = w.finish();
        let v = Json::parse(&text).unwrap();
        assert_eq!(v.get("neg").unwrap().as_i64(), Some(-300));
        assert_eq!(v.get("pos").unwrap().as_i64(), Some(41));
        assert_eq!(v.get("min").unwrap().as_i64(), Some(i64::MIN));
        // A negative number is not a u64, but stays readable as f64.
        assert_eq!(v.get("neg").unwrap().as_u64(), None);
        assert_eq!(v.get("neg").unwrap().as_f64(), Some(-300.0));
    }

    #[test]
    fn escapes_round_trip() {
        let mut w = ObjWriter::new();
        w.str("s", "a\"b\\c\nd\te\u{1}");
        let text = w.finish();
        let v = Json::parse(&text).unwrap();
        assert_eq!(v.get("s").unwrap().as_str(), Some("a\"b\\c\nd\te\u{1}"));
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("").is_none());
        assert!(Json::parse("{").is_none());
        assert!(Json::parse(r#"{"a":}"#).is_none());
        assert!(Json::parse(r#"{"a":1} trailing"#).is_none());
        assert!(Json::parse(r#"{"a":1,}"#).is_none());
        assert!(Json::parse("[1,2").is_none());
    }

    /// The bound the lexer is about to get (the test lands first, failing).
    const MAX_DEPTH: usize = 32;

    /// `depth` brackets of `open`, a `0` (or `"k":0` chains for objects)
    /// in the middle, and the matching closers.
    fn nested(open: char, depth: usize) -> String {
        let (head, close) = match open {
            '[' => ("[", "]"),
            _ => ("{\"k\":", "}"),
        };
        format!("{}0{}", head.repeat(depth), close.repeat(depth))
    }

    #[test]
    fn nesting_is_bounded() {
        // A hostile peer's line must be refused, not followed down the
        // stack: run on a thread with a small stack so that recursing once
        // per bracket aborts the test instead of passing by luck.
        let checks = std::thread::Builder::new()
            .stack_size(256 * 1024)
            .spawn(|| {
                for open in ['[', '{'] {
                    assert!(Json::parse(&nested(open, MAX_DEPTH - 1)).is_some());
                    assert!(Json::parse(&nested(open, MAX_DEPTH)).is_some());
                    assert!(Json::parse(&nested(open, MAX_DEPTH + 1)).is_none());
                    assert!(Json::parse(&nested(open, 100_000)).is_none());
                }
                // Unclosed, as a peer would send it.
                assert!(Json::parse(&"[".repeat(100_000)).is_none());
                assert!(Json::parse(&"{\"k\":".repeat(100_000)).is_none());
                // Mixed containers count together.
                let mixed = format!("{}0{}", "[{\"k\":".repeat(17), "}]".repeat(17));
                assert!(Json::parse(&mixed).is_none());
                // Inside a string, brackets are just text.
                let text = format!("{{\"s\":\"{}\"}}", "[".repeat(100_000));
                let v = Json::parse(&text).expect("a long string is fine");
                assert_eq!(v.get("s").unwrap().as_str().unwrap().len(), 100_000);
                // Siblings do not add up: depth is nesting, not count.
                let wide = format!("[{}[]]", "[],".repeat(1_000));
                assert!(Json::parse(&wide).is_some());
            })
            .expect("spawn");
        checks.join().expect("nesting checks");
    }

    #[test]
    fn parses_nested_and_unicode() {
        let v = Json::parse(r#"{"a":[true,null,{"b":"A"}],"c":-2.5e3}"#).unwrap();
        let arr = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].as_bool(), Some(true));
        assert!(arr[1].is_null());
        assert_eq!(arr[2].get("b").unwrap().as_str(), Some("A"));
        assert_eq!(v.get("c").unwrap().as_f64(), Some(-2500.0));
    }

    #[test]
    fn float_formatting_round_trips() {
        for &x in &[0.0, 1.0, 0.123456789, 1e-300, 123456789.123] {
            let mut w = ObjWriter::new();
            w.f64("x", x);
            let v = Json::parse(&w.finish()).unwrap();
            assert_eq!(v.get("x").unwrap().as_f64(), Some(x));
        }
        let mut w = ObjWriter::new();
        w.f64("x", f64::NAN);
        let v = Json::parse(&w.finish()).unwrap();
        assert!(v.get("x").unwrap().is_null());
    }
}
