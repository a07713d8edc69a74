//! Minimal JSON writing and parsing for the journal.
//!
//! The journal format is newline-delimited JSON (JSONL). Events are flat
//! objects with string/number/boolean/array values, so a full JSON library
//! is unnecessary — this module hand-rolls exactly the subset the journal
//! needs, keeping the crate dependency-free.
//!
//! **Reading** is one private lexer with one set of lexical rules — one
//! string lexer, one number lexer, one container walk with one nesting
//! bound (32 levels; deeper is not JSON) — and two consumers. [`pull`] is the per-line
//! decoder: one pass over the line hands back the values of the keys the
//! caller named as [`Token`]s borrowed from the line (a string is copied
//! only if it holds an escape, a number is its digits, a nested array is
//! its validated source text), so decoding a journal, trace or protocol
//! line allocates nothing per field. [`Json::parse`] builds an owned tree
//! over the same lexer for the cold callers that want to walk a whole
//! document (manifests, Chrome traces, `BENCHMARK.json`). Both accept and
//! reject exactly the same documents.
//!
//! **Writing** appends: [`ObjWriter::append_to`] continues a buffer the
//! caller keeps, integers go through a hand-rolled decimal writer (two
//! digits per lookup in a `const` table), a float is `{v:?}`'s text and
//! strings are copied in unescaped runs, so a sink that reuses
//! its line buffer encodes an event without allocating. The journal's
//! encoder uses the same value writers behind keys it spells as literals.

use std::borrow::Cow;
use std::fmt::Write as _;

/// Deepest nesting of arrays and objects the lexer follows; a document
/// nested deeper is not JSON as far as this crate is concerned. The
/// container walk recurses once per level and lines arrive from peers, so
/// the bound is what keeps a line of 100,000 `[` from overflowing the
/// stack. Everything the workspace reads or writes (protocol, journals,
/// traces, `BENCHMARK.json`, Chrome traces) nests at most 3 deep; 32 leaves
/// room and costs a few KiB of stack at worst. A constant, not a knob.
const MAX_DEPTH: usize = 32;

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
    /// Parses a complete JSON document. Returns `None` on any syntax
    /// error, trailing garbage, or arrays and objects nested more than 32
    /// deep.
    pub fn parse(src: &str) -> Option<Json> {
        let mut lexer = Lexer::new(src);
        let value = lexer.tree()?;
        lexer.at_end().then_some(value)
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

/// One value of a line, borrowed from it: what [`pull`] hands back for a
/// key. The accessors mirror [`Json`]'s and read the same values.
#[derive(Debug, Clone, PartialEq)]
pub enum Token<'a> {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number: its source text, already checked to be one.
    Num(&'a str),
    /// A string, unescaped; borrowed unless it held an escape.
    Str(Cow<'a, str>),
    /// An array: its source text, brackets included, already checked
    /// (syntax and depth). [`items`](Token::items) walks it.
    Arr(&'a str),
    /// An object (checked, not kept: no per-line decoder looks inside one).
    Obj,
}

impl<'a> Token<'a> {
    /// The value as a `u64`, if it is an integer number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Token::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The value as an `i64`, if it is a (possibly negative) integer
    /// number.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Token::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The value as an `f64`, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Token::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Token::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Token::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Calls `each` with every element of an array, in order, and returns
    /// `Some(())`; `None` (and no call) if the value is not an array.
    pub fn items(&self, mut each: impl FnMut(Token<'a>)) -> Option<()> {
        let Token::Arr(src) = *self else {
            return None;
        };
        Lexer::new(src).members(b']', |l| l.token().map(&mut each))
    }
}

/// Reads one line in one pass and returns, for each of `keys`, the value
/// the line's top-level object gives it (`None` where the key is absent;
/// the first occurrence wins where it repeats). The outer `None` means the
/// line is not a JSON document — any syntax error anywhere, trailing
/// garbage, or nesting deeper than 32 — exactly when [`Json::parse`] says
/// so. A document that is not an object is valid and has no keys.
///
/// Keys are matched in order, so list the ones hot lines carry first.
///
/// # Examples
///
/// ```
/// use pqos_telemetry::json::pull;
///
/// let [job, nodes, missing] =
///     pull(r#"{"job":7,"nodes":[4,5],"x":"y"}"#, &["job", "nodes", "z"]).unwrap();
/// assert_eq!(job.unwrap().as_u64(), Some(7));
/// let mut sum = 0;
/// nodes.unwrap().items(|n| sum += n.as_u64().unwrap()).unwrap();
/// assert_eq!(sum, 9);
/// assert!(missing.is_none());
/// assert!(pull(r#"{"job":7"#, &["job"]).is_none());
/// ```
pub fn pull<'a, const N: usize>(src: &'a str, keys: &[&str; N]) -> Option<[Option<Token<'a>>; N]> {
    let mut found = [const { None }; N];
    let mut lexer = Lexer::new(src);
    lexer.ws();
    if lexer.peek() == Some(b'{') {
        lexer.members(b'}', |l| {
            let key = l.key()?;
            let token = l.token()?;
            if let Some(slot) = keys.iter().position(|k| *k == key) {
                found[slot].get_or_insert(token);
            }
            Some(())
        })?;
    } else {
        lexer.token()?;
    }
    lexer.at_end().then_some(found)
}

/// [`pull`] with each key written once: `pull_let!([a, b] = line; else
/// { return None })` reads the line's `"a"` and `"b"` into locals `a` and
/// `b` (each an `Option<Token>`), or runs the `else` block, which must
/// diverge, if the line is not JSON. The key list and the bindings cannot
/// fall out of step, which a hand-kept pair of lists could.
///
/// # Examples
///
/// ```
/// use pqos_telemetry::pull_let;
///
/// fn job_of(line: &str) -> Option<u64> {
///     pull_let!([event, job] = line; else { return None });
///     (event?.as_str()? == "job_started").then_some(job?.as_u64()?)
/// }
/// assert_eq!(job_of(r#"{"event":"job_started","at":5,"job":7}"#), Some(7));
/// assert_eq!(job_of(r#"{"event":"job_started","at":5,"job":7"#), None);
/// ```
#[macro_export]
macro_rules! pull_let {
    ([$($key:ident),+ $(,)?] = $src:expr; else $otherwise:block) => {
        // The else block is the caller's: it need not be `return None`.
        #[allow(clippy::question_mark)]
        let Some([$($key),+]) = $crate::json::pull($src, &[$(stringify!($key)),+]) else $otherwise;
    };
}

/// A closed set of wire names, each written once: declares the enum
/// (deriving `Debug`, `Clone`, `Copy`, `PartialEq` and `Eq`) with `as_str`,
/// `parse` and `ALL`, every variant in declaration order. Nothing else
/// spells the names, so a name cannot be encoded one way and parsed
/// another.
///
/// # Examples
///
/// ```
/// pqos_telemetry::wire_enum! {
///     /// A traffic light.
///     pub enum Light {
///         /// Stop.
///         Red = "red",
///         /// Go.
///         Green = "green",
///     }
/// }
/// assert_eq!(Light::Red.as_str(), "red");
/// assert_eq!(Light::parse("green"), Some(Light::Green));
/// assert_eq!(Light::parse("amber"), None);
/// assert_eq!(Light::ALL, [Light::Red, Light::Green]);
/// ```
#[macro_export]
macro_rules! wire_enum {
    (
        $(#[$meta:meta])*
        $vis:vis enum $name:ident {
            $($(#[$variant_meta:meta])* $variant:ident = $wire:literal,)+
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        $vis enum $name {
            $($(#[$variant_meta])* $variant,)+
        }

        impl $name {
            /// Every variant, in declaration order.
            pub const ALL: [$name; [$($wire),+].len()] = [$($name::$variant),+];

            /// The variant's stable wire name.
            pub fn as_str(self) -> &'static str {
                match self {
                    $($name::$variant => $wire,)+
                }
            }

            /// The variant a wire name spells; `None` for any other text.
            pub fn parse(s: &str) -> Option<$name> {
                match s {
                    $($wire => Some($name::$variant),)+
                    _ => None,
                }
            }
        }
    };
}

/// A cursor over one document: the only code that knows what a string, a
/// number or a container looks like.
struct Lexer<'a> {
    src: &'a str,
    pos: usize,
    /// Containers currently open around `pos`.
    depth: usize,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Lexer {
            src,
            pos: 0,
            depth: 0,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn eat(&mut self, byte: u8) -> bool {
        let hit = self.peek() == Some(byte);
        self.pos += usize::from(hit);
        hit
    }

    fn ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Only whitespace is left.
    fn at_end(&mut self) -> bool {
        self.ws();
        self.pos == self.src.len()
    }

    /// Walks the container opening at `pos` up to its `close`, calling
    /// `member` at the start of each member. The one place that knows the
    /// bracket-and-comma grammar and the nesting bound.
    fn members(
        &mut self,
        close: u8,
        mut member: impl FnMut(&mut Self) -> Option<()>,
    ) -> Option<()> {
        if self.depth == MAX_DEPTH {
            return None;
        }
        self.depth += 1;
        self.pos += 1; // the opening bracket
        self.ws();
        if !self.eat(close) {
            loop {
                self.ws();
                member(self)?;
                self.ws();
                if self.eat(close) {
                    break;
                }
                if !self.eat(b',') {
                    return None;
                }
            }
        }
        self.depth -= 1;
        Some(())
    }

    /// An object member's key and its colon.
    fn key(&mut self) -> Option<Cow<'a, str>> {
        let key = self.string()?;
        self.ws();
        self.eat(b':').then_some(key)
    }

    /// Any value, checked but not built: containers are walked and
    /// dropped.
    fn token(&mut self) -> Option<Token<'a>> {
        self.ws();
        let start = self.pos;
        match self.peek()? {
            b'{' => {
                self.members(b'}', |l| {
                    l.key()?;
                    l.token().map(drop)
                })?;
                Some(Token::Obj)
            }
            b'[' => {
                self.members(b']', |l| l.token().map(drop))?;
                Some(Token::Arr(&self.src[start..self.pos]))
            }
            _ => self.scalar(),
        }
    }

    /// Any value, built.
    fn tree(&mut self) -> Option<Json> {
        self.ws();
        match self.peek()? {
            b'{' => {
                let mut pairs = Vec::new();
                self.members(b'}', |l| {
                    let key = l.key()?.into_owned();
                    pairs.push((key, l.tree()?));
                    Some(())
                })?;
                Some(Json::Obj(pairs))
            }
            b'[' => {
                let mut items = Vec::new();
                self.members(b']', |l| {
                    items.push(l.tree()?);
                    Some(())
                })?;
                Some(Json::Arr(items))
            }
            _ => Some(match self.scalar()? {
                Token::Null => Json::Null,
                Token::Bool(b) => Json::Bool(b),
                Token::Num(raw) => Json::Num(raw.to_string()),
                Token::Str(s) => Json::Str(s.into_owned()),
                Token::Arr(_) | Token::Obj => unreachable!("scalar() lexes no container"),
            }),
        }
    }

    fn scalar(&mut self) -> Option<Token<'a>> {
        match self.peek()? {
            b'"' => self.string().map(Token::Str),
            b't' => self.literal("true", Token::Bool(true)),
            b'f' => self.literal("false", Token::Bool(false)),
            b'n' => self.literal("null", Token::Null),
            b'-' | b'0'..=b'9' => self.number().map(Token::Num),
            _ => None,
        }
    }

    fn literal(&mut self, text: &str, token: Token<'a>) -> Option<Token<'a>> {
        self.src[self.pos..].starts_with(text).then(|| {
            self.pos += text.len();
            token
        })
    }

    /// The number lexer: an optional `-`, then the longest run of number
    /// characters, accepted iff `f64`'s parser accepts it. A run of plain
    /// digits always is one, so an integer never reaches that parser.
    fn number(&mut self) -> Option<&'a str> {
        let start = self.pos;
        self.eat(b'-');
        let digits_start = self.pos;
        let mut plain = true;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => {}
                b'.' | b'e' | b'E' | b'+' | b'-' => plain = false,
                _ => break,
            }
            self.pos += 1;
        }
        let raw = &self.src[start..self.pos];
        (self.pos > digits_start && (plain || raw.parse::<f64>().is_ok())).then_some(raw)
    }

    /// The string lexer: finds the closing quote, and unescapes into an
    /// owned copy only when the string held a backslash. Raw control bytes
    /// are accepted as themselves.
    fn string(&mut self) -> Option<Cow<'a, str>> {
        if !self.eat(b'"') {
            return None;
        }
        let bytes = self.src.as_bytes();
        let start = self.pos;
        let mut escaped = false;
        loop {
            match bytes.get(self.pos)? {
                b'"' => break,
                b'\\' => {
                    escaped = true;
                    self.pos += 2;
                }
                _ => self.pos += 1,
            }
        }
        // A quote byte never sits inside a multi-byte scalar, so this is
        // a char boundary even if an escape skipped into one.
        let raw = &self.src[start..self.pos];
        self.pos += 1;
        if escaped {
            unescape(raw).map(Cow::Owned)
        } else {
            Some(Cow::Borrowed(raw))
        }
    }
}

/// Resolves the escapes of a string body (the text between the quotes).
/// `\uXXXX` is one scalar: a lone surrogate is an error, pairs are not
/// combined.
fn unescape(raw: &str) -> Option<String> {
    let mut out = String::with_capacity(raw.len());
    let mut rest = raw;
    while let Some(at) = rest.find('\\') {
        out.push_str(&rest[..at]);
        let bytes = rest.as_bytes();
        let mut next = at + 2;
        out.push(match bytes.get(at + 1)? {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'n' => '\n',
            b't' => '\t',
            b'r' => '\r',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'u' => {
                let hex = std::str::from_utf8(bytes.get(at + 2..at + 6)?).ok()?;
                next = at + 6;
                char::from_u32(u32::from_str_radix(hex, 16).ok()?)?
            }
            _ => return None,
        });
        rest = &rest[next..];
    }
    out.push_str(rest);
    Some(out)
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
#[derive(Debug)]
pub struct ObjWriter {
    out: String,
    any: bool,
}

impl Default for ObjWriter {
    fn default() -> Self {
        ObjWriter::new()
    }
}

impl ObjWriter {
    /// Starts an empty object.
    pub fn new() -> Self {
        ObjWriter::append_to(String::new())
    }

    /// Starts an empty object at the end of `out`, leaving what `out`
    /// already holds alone; [`finish`](Self::finish) hands the buffer
    /// back. A caller that keeps the buffer (`std::mem::take` it in, put
    /// the result back) encodes without allocating.
    pub fn append_to(mut out: String) -> Self {
        out.push('{');
        ObjWriter { out, any: false }
    }

    /// Writes `"key":`, escaped: metric labels put quotes in the keys of
    /// a metrics snapshot, so no key is assumed to be plain.
    fn key(&mut self, key: &str) -> &mut Self {
        if self.any {
            self.out.push(',');
        }
        self.any = true;
        push_str(&mut self.out, key);
        self.out.push(':');
        self
    }

    /// Writes an unsigned integer field.
    pub fn u64(&mut self, key: &str, v: u64) -> &mut Self {
        self.key(key);
        push_u64(&mut self.out, v);
        self
    }

    /// Writes a signed integer field.
    pub fn i64(&mut self, key: &str, v: i64) -> &mut Self {
        self.key(key);
        if v < 0 {
            self.out.push('-');
        }
        push_u64(&mut self.out, v.unsigned_abs());
        self
    }

    /// Writes a float field using the shortest representation that parses
    /// back to the same value. Non-finite values become `null`.
    pub fn f64(&mut self, key: &str, v: f64) -> &mut Self {
        self.key(key);
        push_f64(&mut self.out, v);
        self
    }

    /// Writes a string field (escaped).
    pub fn str(&mut self, key: &str, v: &str) -> &mut Self {
        self.key(key);
        push_str(&mut self.out, v);
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
        push_u64_list(&mut self.out, vs);
        self
    }

    /// Writes an array of strings (each escaped).
    pub(crate) fn arr_str<S: AsRef<str>>(&mut self, key: &str, vs: &[S]) -> &mut Self {
        self.key(key);
        self.out.push('[');
        for (i, v) in vs.iter().enumerate() {
            if i > 0 {
                self.out.push(',');
            }
            push_str(&mut self.out, v.as_ref());
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

    /// Closes the object and returns the buffer: what
    /// [`append_to`](Self::append_to) was given, then the JSON text.
    pub fn finish(mut self) -> String {
        self.out.push('}');
        self.out
    }
}

/// `"00"` to `"99"`: the decimal writer looks up two digits at a time.
const PAIRS: &str = "\
    0001020304050607080910111213141516171819\
    2021222324252627282930313233343536373839\
    4041424344454647484950515253545556575859\
    6061626364656667686970717273747576777879\
    8081828384858687888990919293949596979899";

/// The two digits of `n < 100`, zero-padded.
fn pair(n: usize) -> &'static str {
    &PAIRS[2 * n..2 * n + 2]
}

/// Appends `v` in decimal. The number is cut into base-10,000 chunks from
/// the back (division by a constant, no per-digit loop), then written
/// front first: the leading chunk unpadded, every other one as two pairs
/// from [`PAIRS`]. The digits go straight into `out`: nothing to validate
/// as UTF-8.
pub(crate) fn push_u64(out: &mut String, mut v: u64) {
    // u64::MAX is 1844 6744 0737 0955 1615: a leading chunk and four more.
    let mut chunks = [0u16; 4];
    let mut n = 0;
    while v >= 10_000 {
        chunks[n] = (v % 10_000) as u16;
        v /= 10_000;
        n += 1;
    }
    let lead = v as usize;
    match lead {
        0..=9 => out.push_str(&pair(lead)[1..]),
        10..=99 => out.push_str(pair(lead)),
        100..=999 => {
            out.push_str(&pair(lead / 100)[1..]);
            out.push_str(pair(lead % 100));
        }
        _ => {
            out.push_str(pair(lead / 100));
            out.push_str(pair(lead % 100));
        }
    }
    for &chunk in chunks[..n].iter().rev() {
        let chunk = usize::from(chunk);
        out.push_str(pair(chunk / 100));
        out.push_str(pair(chunk % 100));
    }
}

/// Appends `[v,v,...]`, reserving the room once. A run of consecutive
/// values below 10⁸ that keep their number of digits — a partition's node
/// run — is written from one word of ASCII digits, first digit highest,
/// that counts up with the run (a carry is a byte past `'9'` folded into
/// the next); each value goes eight bytes at a time into a stack buffer,
/// and the buffer into `out` in one piece. Only a run's first value is
/// converted.
pub(crate) fn push_u64_list(out: &mut String, vs: &[u64]) {
    let widest = vs.last().map_or(0, |&v| decimal_len(v));
    out.reserve(2 + vs.len() * (widest + 1));
    out.push('[');
    let mut buf = [0u8; 512];
    let mut i = 0;
    while let Some(&v) = vs.get(i) {
        if i > 0 {
            out.push(',');
        }
        push_u64(out, v);
        i += 1;
        let n = decimal_len(v);
        if n > 8 {
            continue;
        }
        // The run keeps `n` digits up to `last`.
        let last = 10u64.pow(n as u32) - 1;
        let (mut word, mut prev, mut at) = (ascii_word(v, n), v, 0);
        while prev < last && vs.get(i) == Some(&(prev + 1)) {
            if at + 9 > buf.len() {
                out.push_str(std::str::from_utf8(&buf[..at]).expect("ASCII digits"));
                at = 0;
            }
            word += 1;
            let mut k = 0;
            while (word >> (8 * k)) & 0xff == u64::from(b'9' + 1) {
                // `'9' + 1` becomes `'0'` and carries one into byte k + 1.
                word += 246 << (8 * k);
                k += 1;
            }
            buf[at] = b',';
            buf[at + 1..at + 9].copy_from_slice(&(word << (8 * (8 - n))).to_be_bytes());
            at += 1 + n;
            (prev, i) = (prev + 1, i + 1);
        }
        out.push_str(std::str::from_utf8(&buf[..at]).expect("ASCII digits"));
    }
    out.push(']');
}

/// The `n` decimal digits of `v < 10ⁿ` as ASCII in the low `n` bytes of a
/// word, first digit highest.
fn ascii_word(mut v: u64, n: usize) -> u64 {
    let mut word = 0;
    for k in 0..n {
        word |= (u64::from(b'0') + v % 10) << (8 * k);
        v /= 10;
    }
    word
}

/// Number of decimal digits of `v`.
fn decimal_len(v: u64) -> usize {
    v.checked_ilog10().map_or(1, |log| log as usize + 1)
}

/// Appends `v` as `{v:?}` writes it — the shortest text that parses back
/// to the same value — or `null` if it is not finite. `+0.0` and `1.0`,
/// which every null-predictor quote carries, are written without `fmt`;
/// they are matched by their bits, so `-0.0` still goes through it.
pub(crate) fn push_f64(out: &mut String, v: f64) {
    const ZERO: u64 = 0.0f64.to_bits();
    const ONE: u64 = 1.0f64.to_bits();
    match v.to_bits() {
        ZERO => out.push_str("0.0"),
        ONE => out.push_str("1.0"),
        _ if v.is_finite() => {
            let _ = write!(out, "{v:?}");
        }
        _ => out.push_str("null"),
    }
}

/// Appends `s` as a JSON string: quoted, escaped.
pub(crate) fn push_str(out: &mut String, s: &str) {
    out.push('"');
    escape_into(out, s);
    out.push('"');
}

/// Appends `s` with JSON's mandatory escapes, copying each run of bytes
/// that needs none in one piece. Every byte that needs an escape is ASCII,
/// so a run always ends on a char boundary.
fn escape_into(out: &mut String, s: &str) {
    let mut run = 0;
    for (at, b) in s.bytes().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.push_str(&s[run..at]);
        run = at + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\t' => out.push_str("\\t"),
            b'\r' => out.push_str("\\r"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
    }
    out.push_str(&s[run..]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use pqos_sim_core::rng::DetRng;

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

    /// The parser this module had before the lexer: recursive descent
    /// straight into a tree, one function per production, every number
    /// validated through `f64`. Kept as the oracle for the lexical rules
    /// (it has no nesting bound, so it is only asked about shallow
    /// documents).
    mod oracle {
        use super::Json;

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
                                let code =
                                    u32::from_str_radix(std::str::from_utf8(hex).ok()?, 16).ok()?;
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
    }

    /// Text fragments a seeded document is spliced from: every kind of
    /// token, well-formed and not.
    const FRAGMENTS: &[&str] = &[
        "{",
        "}",
        "[",
        "]",
        ",",
        ":",
        " ",
        "\t",
        "\n",
        "\r",
        "\u{a0}",
        "null",
        "true",
        "false",
        "nul",
        "tru",
        "0",
        "7",
        "-0",
        "-",
        "--1",
        "+1",
        "01",
        "1e3",
        "1E+3",
        "1e",
        "1.",
        ".5",
        "-.5",
        "1.5",
        "1..5",
        "1e3e3",
        "18446744073709551616",
        "100000000000000000000",
        "\"\"",
        "\"a\"",
        "\"id\"",
        "\"é\"",
        "\"🚀\"",
        "\"a\\\"b\"",
        "\"a\\\\b\"",
        "\"\\/\\b\\f\\n\\r\\t\"",
        "\"\\u00e9\"",
        "\"\\ud800\"",
        "\"\\ud83d\\ude80\"",
        "\"\\u+041\"",
        "\"\\u00\"",
        "\"\\u00é\"",
        "\"\\x\"",
        "\"\\é\"",
        "\"\\",
        "\"open",
        "\"\u{1}\n\"",
        "x",
    ];

    fn seeded_value(rng: &mut DetRng, depth: usize, out: &mut String) {
        match rng.uniform_u64(0, if depth < 4 { 9 } else { 6 }) {
            0 => out.push_str("null"),
            1 => out.push_str("true"),
            2 => out.push_str(&rng.uniform_u64(0, 99_999).to_string()),
            3 => out.push_str("-12.5e-3"),
            4 => out.push_str("\"plain é\""),
            5 => out.push_str("\"esc\\\"aped\\u00e9\\n\""),
            6 => out.push_str("18446744073709551615"),
            7 | 8 => {
                out.push('[');
                for i in 0..rng.uniform_u64(0, 4) {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    seeded_value(rng, depth + 1, out);
                }
                out.push(']');
            }
            _ => {
                out.push('{');
                for i in 0..rng.uniform_u64(0, 4) {
                    if i > 0 {
                        out.push(',');
                    }
                    // Few distinct keys, so they repeat.
                    out.push_str(
                        ["\"id\":", "\"job\" : ", "\"\\u0069d\":"][rng.uniform_u64(0, 2) as usize],
                    );
                    seeded_value(rng, depth + 1, out);
                }
                out.push('}');
            }
        }
    }

    /// A valid document with up to three fragments spliced in (or cut
    /// out) at random char boundaries.
    fn seeded_document(rng: &mut DetRng) -> String {
        let mut doc = String::new();
        seeded_value(rng, 0, &mut doc);
        for _ in 0..rng.uniform_u64(0, 3) {
            let mut at = rng.uniform_u64(0, doc.len() as u64) as usize;
            while !doc.is_char_boundary(at) {
                at -= 1;
            }
            if rng.chance(0.25) && at < doc.len() {
                doc.remove(at);
            } else {
                let fragment = FRAGMENTS[rng.uniform_u64(0, FRAGMENTS.len() as u64 - 1) as usize];
                doc.insert_str(at, fragment);
            }
        }
        doc
    }

    fn token_matches(token: &Token<'_>, tree: &Json) -> bool {
        match (token, tree) {
            (Token::Null, Json::Null) | (Token::Obj, Json::Obj(_)) => true,
            (Token::Bool(a), Json::Bool(b)) => a == b,
            (Token::Num(a), Json::Num(b)) => a == b,
            (Token::Str(a), Json::Str(b)) => a == b,
            (Token::Arr(raw), Json::Arr(items)) => {
                let mut seen = Vec::new();
                token.items(|item| seen.push(item)).expect("an array");
                Json::parse(raw).as_ref() == Some(tree)
                    && seen.len() == items.len()
                    && seen.iter().zip(items).all(|(t, j)| token_matches(t, j))
            }
            _ => false,
        }
    }

    #[test]
    fn lexer_matches_the_recursive_parser_on_seeded_documents() {
        let mut rng = DetRng::seed_from(0x6a73_6f6e);
        let (mut valid, mut invalid) = (0, 0);
        let mut documents: Vec<String> = FRAGMENTS.iter().map(|f| f.to_string()).collect();
        documents.extend(FRAGMENTS.iter().map(|f| format!("{{\"id\":{f}}}")));
        documents.extend(FRAGMENTS.iter().map(|f| format!("[{f},1]")));
        documents.extend((0..20_000).map(|_| seeded_document(&mut rng)));
        for doc in &documents {
            let want = oracle::parse(doc);
            assert_eq!(Json::parse(doc), want, "Json::parse on {doc:?}");
            let pulled = pull(doc, &["id", "job", "absent"]);
            assert_eq!(pulled.is_some(), want.is_some(), "pull on {doc:?}");
            match want {
                Some(tree) => {
                    valid += 1;
                    let [id, job, absent] = pulled.expect("checked");
                    assert!(absent.is_none(), "{doc:?}");
                    for (key, token) in [("id", id), ("job", job)] {
                        match (tree.get(key), token) {
                            (None, None) => {}
                            (Some(tree), Some(token)) => {
                                assert!(token_matches(&token, tree), "{key} of {doc:?}: {token:?}");
                                assert_eq!(token.as_u64(), tree.as_u64());
                                assert_eq!(token.as_i64(), tree.as_i64());
                                assert_eq!(token.as_f64(), tree.as_f64());
                                assert_eq!(token.as_str(), tree.as_str());
                                assert_eq!(token.as_bool(), tree.as_bool());
                                assert_eq!(token == Token::Null, tree.is_null());
                            }
                            (tree, token) => panic!("{key} of {doc:?}: {tree:?} vs {token:?}"),
                        }
                    }
                }
                None => invalid += 1,
            }
        }
        assert!(
            valid > 4_000 && invalid > 4_000,
            "{valid} valid, {invalid} not"
        );
    }

    #[test]
    fn pull_reads_first_occurrences_and_borrows_plain_strings() {
        let line =
            r#" {"a":1,"s":"plain","e":"x\ny","a":2,"n":[1,"two",[3]],"o":{"a":9},"z":null} "#;
        let [a, s, e, n, o, z, missing] =
            pull(line, &["a", "s", "e", "n", "o", "z", "missing"]).expect("valid");
        assert_eq!(a.unwrap().as_u64(), Some(1), "first occurrence wins");
        assert!(matches!(s, Some(Token::Str(Cow::Borrowed("plain")))));
        assert!(matches!(e, Some(Token::Str(Cow::Owned(ref text))) if text == "x\ny"));
        let n = n.unwrap();
        assert_eq!(n, Token::Arr(r#"[1,"two",[3]]"#));
        let mut items = Vec::new();
        n.items(|item| items.push(item)).unwrap();
        assert_eq!(
            items,
            [Token::Num("1"), Token::Str("two".into()), Token::Arr("[3]")]
        );
        assert_eq!(o, Some(Token::Obj));
        assert_eq!(o.unwrap().items(|_| panic!("not an array")), None);
        assert_eq!(z, Some(Token::Null));
        assert!(missing.is_none());
        // A document that is not an object is valid and has no keys.
        assert_eq!(pull("[1,2]", &["a"]), Some([None]));
        assert_eq!(pull("7", &["a"]), Some([None]));
        // An error after the keys were seen still refuses the line.
        assert_eq!(pull(r#"{"a":1,"b":}"#, &["a"]), None);
        assert_eq!(pull(r#"{"a":1} x"#, &["a"]), None);
        assert_eq!(pull("", &["a"]), None);
    }

    #[test]
    fn nesting_is_bounded_for_pull_too() {
        let deep = |depth: usize| format!("{{\"a\":{}{}}}", "[".repeat(depth), "]".repeat(depth));
        // The object itself is one level.
        assert!(pull(&deep(MAX_DEPTH - 1), &["a"]).is_some());
        assert!(pull(&deep(MAX_DEPTH), &["a"]).is_none());
        assert!(pull(&"[".repeat(100_000), &["a"]).is_none());
        assert!(pull(&format!("{{\"a\":{}", "[".repeat(100_000)), &["a"]).is_none());
    }

    #[test]
    fn node_list_writer_matches_push_u64() {
        // The per-value loop the run-aware writer replaced.
        let reference = |vs: &[u64]| {
            let mut out = String::from("[");
            for (i, &v) in vs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                push_u64(&mut out, v);
            }
            out.push(']');
            out
        };
        let mut rng = DetRng::seed_from(0x5eed).fork("node-list-writer");
        let mut lists: Vec<Vec<u64>> = vec![
            vec![],
            vec![0],
            (0..25).collect(),
            (95..112).collect(),
            (9_990..10_011).collect(),
            // Past the stack buffer in one run; the widest packed digits.
            (1..3_000).collect(),
            (99_999_990..100_000_010).collect(),
            vec![u64::MAX - 2, u64::MAX - 1, u64::MAX],
            vec![u64::MAX, 0, 1],
            vec![7, 7, 8, 6, 7],
        ];
        for _ in 0..3_000 {
            // Runs at every magnitude crossing decades and powers of ten,
            // broken up by jumps, repeats and descents.
            let mut v = rng.next_u64() >> rng.uniform_u64(0, 63);
            let mut list = Vec::new();
            for _ in 0..rng.uniform_u64(0, 6) {
                for _ in 0..rng.uniform_u64(1, 40) {
                    list.push(v);
                    v = v.wrapping_add(1);
                }
                v = match rng.uniform_u64(0, 3) {
                    0 => v.wrapping_sub(rng.uniform_u64(0, 3)),
                    _ => v.wrapping_add(rng.uniform_u64(0, 1_000)),
                };
            }
            lists.push(list);
        }
        for vs in lists {
            let mut out = String::from("x");
            push_u64_list(&mut out, &vs);
            assert_eq!(out, format!("x{}", reference(&vs)), "{vs:?}");
        }
    }

    #[test]
    fn decimal_writer_matches_to_string() {
        // One and two digits, the leading chunk's widths, and the
        // base-10,000 chunk boundaries (below, through the powers).
        let mut values = vec![0, 9, 10, 99, 100, 999, 1_000, 9_999, 10_000, 10_001];
        values.extend([99_999_999, 100_000_000, u64::MAX, u64::MAX - 1]);
        let mut power = 1u64;
        for _ in 1..20 {
            power *= 10;
            values.extend([power - 1, power, power + 1]);
        }
        let mut rng = DetRng::seed_from(0xdec);
        for _ in 0..2_000 {
            // Every magnitude, not just the 19- and 20-digit bulk.
            values.push(rng.next_u64() >> rng.uniform_u64(0, 63));
        }
        for v in values {
            let mut out = String::from("x");
            push_u64(&mut out, v);
            assert_eq!(out, format!("x{v}"));
        }
        let mut w = ObjWriter::new();
        w.i64("min", i64::MIN).i64("max", i64::MAX).i64("zero", 0);
        w.arr_u64("list", &[0, u64::MAX, 10])
            .opt_u64("some", Some(7));
        assert_eq!(
            w.finish(),
            format!(
                "{{\"min\":{},\"max\":{},\"zero\":0,\"list\":[0,{},10],\"some\":7}}",
                i64::MIN,
                i64::MAX,
                u64::MAX
            )
        );
    }

    #[test]
    fn append_to_leaves_the_prefix_alone() {
        let mut w = ObjWriter::append_to(String::from("prefix {\"not\":\"touched\"}\n"));
        w.str("s", "a\"b").u64("n", 5);
        let out = w.finish();
        assert_eq!(
            out,
            "prefix {\"not\":\"touched\"}\n{\"s\":\"a\\\"b\",\"n\":5}"
        );
        // And again onto the result: two objects, back to back.
        let out = ObjWriter::append_to(out).finish();
        assert!(out.ends_with("\"n\":5}{}"));
        assert_eq!(ObjWriter::default().finish(), "{}");
    }
}
