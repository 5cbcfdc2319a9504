//! # jsonlite — a minimal, dependency-free JSON value model
//!
//! The workspace builds offline, so instead of `serde`/`serde_json` the query result
//! exporter and the bench writers hand-assemble a [`Json`] tree and render it with
//! [`Json::pretty`]. The parser accepts standard JSON (objects, arrays, strings with
//! escapes, numbers, booleans, null) and is used by the bench summary, which reads the
//! bench writers' rows back.
//!
//! Object key order is preserved (insertion order), which keeps exports deterministic
//! and diffs stable across runs.
//!
//! **Integers are exact.**  A number token with no fraction and no exponent parses to
//! [`Json::Int`] and renders digit for digit, so an id or count survives render →
//! parse whatever its size; everything else is an `f64` ([`Json::Num`]).
//!
//! **Nesting is bounded.**  The parser recurses once per open `[` or `{`, so a document
//! nested deeper than 128 levels (`MAX_DEPTH`) is a [`JsonError`] rather than a stack
//! overflow.

use std::fmt::{self, Write};

/// The deepest nesting of arrays and objects [`Json::parse`] accepts.  The JSON this
/// workspace writes nests far less.
pub(crate) const MAX_DEPTH: usize = 128;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer, exact: every `u64` and `i64` fits.
    Int(i128),
    /// Any other number (integral values below 9 × 10¹⁵ render without a fraction).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

/// A JSON parse error with a byte offset and message.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError {
    /// Byte offset where the error was detected.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Build an object from key/value pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Build a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Build an exact integer from a u64 (ids and counts).
    pub fn u64(n: u64) -> Json {
        Json::Int(n.into())
    }

    /// Build an array by mapping an iterator.
    pub fn arr<T>(items: impl IntoIterator<Item = T>, f: impl Fn(T) -> Json) -> Json {
        Json::Arr(items.into_iter().map(f).collect())
    }

    // --- accessors (used by importers) ---

    /// The value of an object key, if this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The array items, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The string, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number, if this is a number — an integer answers with its nearest `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    // --- rendering ---

    /// Render compactly (no whitespace).
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Render with two-space indentation (serde_json `to_string_pretty` style).
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::Num(n) => write_number(out, *n),
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    write_string(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push('}');
            }
        }
    }

    /// Parse a JSON document. Trailing whitespace is allowed; trailing garbage errors.
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let bytes = input.as_bytes();
        let mut p = Parser { bytes, pos: 0, depth: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != bytes.len() {
            return Err(p.err("trailing characters after JSON value"));
        }
        Ok(v)
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..(width * depth) {
            out.push(' ');
        }
    }
}

fn write_number(out: &mut String, n: f64) {
    if n.is_finite() && n.fract() == 0.0 && n.abs() < 9.0e15 {
        out.push_str(&format!("{}", n as i64));
    } else if n.is_finite() {
        out.push_str(&format!("{n}"));
    } else {
        // JSON has no Inf/NaN; degrade to null like serde_json's arbitrary-precision off
        out.push_str("null");
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonError {
        JsonError { offset: self.pos, message: message.to_string() }
    }

    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len()
            && matches!(self.bytes[self.pos], b' ' | b'\t' | b'\n' | b'\r')
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// Parse one array or object, one level deeper.
    fn nested(
        &mut self,
        container: fn(&mut Self) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err("nested too deeply"));
        }
        self.depth += 1;
        let v = container(self);
        self.depth -= 1;
        v
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut integral = true;
        if self.peek() == Some(b'.') {
            integral = false;
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            integral = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap_or("");
        // Digits only: an exact integer (one too long for an `i128` is an `f64`).
        if let Some(i) = integral.then(|| text.parse().ok()).flatten() {
            return Ok(Json::Int(i));
        }
        text.parse::<f64>().map(Json::Num).map_err(|_| self.err("invalid number"))
    }

    fn string(&mut self) -> Result<String, JsonError> {
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
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000c}'),
                        Some(b'u') => {
                            let cp = self.unicode_escape()?;
                            out.push(cp);
                            continue;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the whole run up to the next quote or backslash as one
                    // validated slice: neither byte can occur inside a multi-byte
                    // UTF-8 sequence, so the run ends on a character boundary.
                    let rest = &self.bytes[self.pos..];
                    let len =
                        rest.iter().position(|&b| b == b'"' || b == b'\\').unwrap_or(rest.len());
                    let run =
                        std::str::from_utf8(&rest[..len]).map_err(|_| self.err("invalid UTF-8"))?;
                    out.push_str(run);
                    self.pos += len;
                }
            }
        }
    }

    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        // self.pos is at 'u'
        self.pos += 1;
        let hex = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let code = u32::from_str_radix(
            std::str::from_utf8(hex).map_err(|_| self.err("bad \\u escape"))?,
            16,
        )
        .map_err(|_| self.err("bad \\u escape"))?;
        self.pos += 4;
        // surrogate pair
        if (0xD800..0xDC00).contains(&code) {
            if self.bytes.get(self.pos) == Some(&b'\\')
                && self.bytes.get(self.pos + 1) == Some(&b'u')
            {
                self.pos += 2;
                let hex2 = self
                    .bytes
                    .get(self.pos..self.pos + 4)
                    .ok_or_else(|| self.err("truncated surrogate"))?;
                let low = u32::from_str_radix(
                    std::str::from_utf8(hex2).map_err(|_| self.err("bad surrogate"))?,
                    16,
                )
                .map_err(|_| self.err("bad surrogate"))?;
                self.pos += 4;
                let c = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                return char::from_u32(c).ok_or_else(|| self.err("invalid surrogate pair"));
            }
            return Err(self.err("lone surrogate"));
        }
        char::from_u32(code).ok_or_else(|| self.err("invalid code point"))
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut pairs: Vec<(String, Json)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_pretty() {
        let v = Json::obj([
            ("name", Json::str("graphitti")),
            ("count", Json::u64(3)),
            ("tags", Json::Arr(vec![Json::str("a"), Json::str("b")])),
            ("nested", Json::obj([("ok", Json::Bool(true)), ("none", Json::Null)])),
        ]);
        let text = v.pretty();
        let back = Json::parse(&text).unwrap();
        assert_eq!(back, v);
        let compact = v.compact();
        assert_eq!(Json::parse(&compact).unwrap(), v);
    }

    #[test]
    fn parses_escapes_and_numbers() {
        let v = Json::parse(r#"{"s":"a\"b\nA","n":-12.5,"e":1e3}"#).unwrap();
        assert_eq!(v.get("s").unwrap().as_str(), Some("a\"b\nA"));
        assert_eq!(v.get("n").unwrap().as_f64(), Some(-12.5));
        assert_eq!(v.get("e").unwrap().as_f64(), Some(1000.0));
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("{not valid").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{} extra").is_err());
        assert!(Json::parse("").is_err());
    }

    #[test]
    fn preserves_key_order() {
        let v = Json::parse(r#"{"b":1,"a":2}"#).unwrap();
        match &v {
            Json::Obj(pairs) => {
                assert_eq!(pairs[0].0, "b");
                assert_eq!(pairs[1].0, "a");
            }
            _ => panic!("expected object"),
        }
    }

    #[test]
    fn integers_are_exact_and_still_answer_as_f64() {
        for (text, exact) in [
            ("9007199254740993", (1i128 << 53) + 1),
            ("18446744073709551615", u64::MAX.into()),
            ("-9223372036854775808", i64::MIN.into()),
            ("-0", 0),
        ] {
            let v = Json::parse(text).unwrap();
            assert_eq!(v, Json::Int(exact), "{text}");
            assert_eq!(v.as_f64(), Some(exact as f64));
            assert_eq!(Json::parse(&v.compact()).unwrap(), v);
        }
        assert_eq!(Json::u64(u64::MAX - 1).compact(), "18446744073709551614");
        // A fraction or an exponent is an `f64`, and so is what no `i128` holds.
        assert_eq!(Json::parse("3.0").unwrap(), Json::Num(3.0));
        assert_eq!(Json::parse("1e3").unwrap(), Json::Num(1000.0));
        assert_eq!(Json::parse(&"9".repeat(40)).unwrap(), Json::Num(1e40));
        // A float renders as before, integral ones without a fraction.
        assert_eq!(Json::Arr(vec![Json::Num(512.0), Json::Num(-12.5)]).compact(), "[512,-12.5]");
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        let e = Json::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!((e.offset, e.message.as_str()), (MAX_DEPTH, "nested too deeply"));
        // Objects count too, siblings do not, and an unclosed run is an error long
        // before it is a stack overflow.
        let objects = "{\"k\":".repeat(MAX_DEPTH + 1) + "1" + &"}".repeat(MAX_DEPTH + 1);
        assert_eq!(Json::parse(&objects).unwrap_err().message, "nested too deeply");
        assert!(Json::parse(&format!("[{}]", vec![nested(MAX_DEPTH - 1); 3].join(","))).is_ok());
        assert_eq!(Json::parse(&"[".repeat(2_000_000)).unwrap_err().offset, MAX_DEPTH);
    }

    #[test]
    fn unicode_surrogate_pair() {
        let v = Json::parse(r#""😀""#).unwrap();
        assert_eq!(v.as_str(), Some("😀"));
    }

    #[test]
    fn string_edge_cases_keep_their_verdicts_and_offsets() {
        let ok = Json::parse(r#""é\u00e9\ud83d\ude00☃\/\b\f\r\t""#).unwrap();
        assert_eq!(ok.as_str(), Some("éé😀☃/\u{8}\u{c}\r\t"));
        // raw control characters inside a string are tolerated, as before
        assert_eq!(Json::parse("\"a\nb\"").unwrap().as_str(), Some("a\nb"));
        for (input, offset, message) in [
            ("\"abc", 4, "unterminated string"),
            ("\"é☃", 6, "unterminated string"),
            ("\"ab\\", 4, "invalid escape"),
            ("\"ab\\x\"", 4, "invalid escape"),
            ("\"\\ud83d\"", 7, "lone surrogate"),
            ("\"\\u00é\"", 3, "bad \\u escape"),
            ("\"\\u12", 3, "truncated \\u escape"),
        ] {
            let e = Json::parse(input).unwrap_err();
            assert_eq!((e.offset, e.message.as_str()), (offset, message), "{input:?}");
        }
    }

    /// `Json::parse` must stay linear in the document size: the per-character
    /// re-validation of the whole remaining input this replaced took minutes on
    /// documents of these sizes, against a ceiling the linear parser clears by far.
    #[test]
    fn parse_is_linear_on_large_string_heavy_documents() {
        // ≥ 2 MB of plain strings, checkpoint-shaped.
        let plain = Json::Arr(
            (0..40_000)
                .map(|i| Json::obj([("comment", Json::str(format!("protease motif {i:040}")))]))
                .collect(),
        );
        // Multi-byte and escape dense: every run between escapes is a few bytes.
        let dense = Json::Arr(
            (0..30_000).map(|i| Json::str(format!("é☃\n😀\"\\\t日本 {i}\u{1}"))).collect(),
        );
        for (doc, min_len) in [(plain, 2 << 20), (dense, 1 << 20)] {
            let text = doc.compact();
            assert!(text.len() >= min_len, "document is only {} bytes", text.len());
            let t0 = std::time::Instant::now();
            let back = Json::parse(&text).unwrap();
            let took = t0.elapsed();
            assert_eq!(back, doc);
            assert!(took < std::time::Duration::from_secs(3), "{} bytes took {took:?}", text.len());
        }
    }
}
