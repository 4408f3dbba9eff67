//! Minimal hand-rolled JSON: exactly the subset the trace wire format
//! needs, with zero dependencies.
//!
//! The workspace builds offline with no JSON crate. Traces still want a
//! line format any external tool can read, so this module emits and
//! parses flat JSON objects whose values are strings, unsigned
//! integers, booleans, or arrays of unsigned integers — the full
//! vocabulary of [`crate::TraceEvent`] and of the `BENCH_report.json`
//! emitted by `st-bench`. [`ObjWriter`] appends to a caller's buffer,
//! so a stream of objects renders into one `String`.

use st_core::StError;
use std::fmt::Write as _;

/// Whether `b` must be escaped inside a JSON string. Every such byte
/// is ASCII, so it always sits on a char boundary.
fn needs_escape(b: u8) -> bool {
    b < 0x20 || b == b'"' || b == b'\\'
}

/// Escape `s` into `out` as JSON string *content* (no surrounding
/// quotes). Runs with nothing to escape are copied whole.
pub fn escape_into(out: &mut String, s: &str) {
    let mut rest = s;
    while let Some(i) = rest.bytes().position(needs_escape) {
        out.push_str(&rest[..i]);
        match rest.as_bytes()[i] {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\t' => out.push_str("\\t"),
            b'\r' => out.push_str("\\r"),
            b => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        rest = &rest[i + 1..];
    }
    out.push_str(rest);
}

/// `s` as a quoted, escaped JSON string.
#[must_use]
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    escape_into(&mut out, s);
    out.push('"');
    out
}

/// Writer of one flat JSON object on a single line, appended to a
/// caller's `String`: a renderer of many objects reuses one buffer,
/// and no field allocates a temporary. [`ObjWriter::finish`] closes
/// the object; no newline is written.
#[derive(Debug)]
pub struct ObjWriter<'a> {
    buf: &'a mut String,
    any: bool,
}

impl<'a> ObjWriter<'a> {
    /// Start an object at the end of `buf`.
    pub fn new(buf: &'a mut String) -> Self {
        buf.push('{');
        ObjWriter { buf, any: false }
    }

    fn key(&mut self, k: &str) {
        if self.any {
            self.buf.push(',');
        }
        self.any = true;
        self.buf.push('"');
        escape_into(self.buf, k);
        self.buf.push_str("\":");
    }

    /// Append a string field.
    pub fn str_field(&mut self, k: &str, v: &str) {
        self.key(k);
        self.buf.push('"');
        escape_into(self.buf, v);
        self.buf.push('"');
    }

    /// Append an unsigned-integer field.
    pub fn num_field(&mut self, k: &str, v: u64) {
        self.key(k);
        let _ = write!(self.buf, "{v}");
    }

    /// Append a boolean field.
    pub fn bool_field(&mut self, k: &str, v: bool) {
        self.key(k);
        self.buf.push_str(if v { "true" } else { "false" });
    }

    /// Append an array-of-unsigned-integers field.
    pub fn arr_field(&mut self, k: &str, vs: &[u64]) {
        self.key(k);
        self.buf.push('[');
        for (i, v) in vs.iter().enumerate() {
            if i > 0 {
                self.buf.push(',');
            }
            let _ = write!(self.buf, "{v}");
        }
        self.buf.push(']');
    }

    /// Close the object.
    pub fn finish(self) {
        self.buf.push('}');
    }
}

/// A parsed value: the wire subset only.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonVal {
    /// An unsigned integer.
    Num(u64),
    /// A string.
    Str(String),
    /// A boolean.
    Bool(bool),
    /// An array of unsigned integers.
    Arr(Vec<u64>),
}

/// A parsed flat object (insertion-ordered key/value pairs).
#[derive(Debug, Clone, Default)]
pub struct JsonObj {
    fields: Vec<(String, JsonVal)>,
}

impl JsonObj {
    fn get(&self, key: &str) -> Option<&JsonVal> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Fetch a required string field.
    pub fn str(&self, key: &str) -> Result<&str, StError> {
        match self.get(key) {
            Some(JsonVal::Str(s)) => Ok(s),
            _ => Err(StError::Machine(format!("missing string field '{key}'"))),
        }
    }

    /// Fetch a required unsigned-integer field.
    pub fn num(&self, key: &str) -> Result<u64, StError> {
        match self.get(key) {
            Some(JsonVal::Num(n)) => Ok(*n),
            _ => Err(StError::Machine(format!("missing numeric field '{key}'"))),
        }
    }

    /// Fetch a required array-of-integers field.
    pub fn arr(&self, key: &str) -> Result<&[u64], StError> {
        match self.get(key) {
            Some(JsonVal::Arr(a)) => Ok(a),
            _ => Err(StError::Machine(format!("missing array field '{key}'"))),
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, what: &str) -> StError {
        StError::Machine(format!("json parse at byte {}: {what}", self.pos))
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), StError> {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn string(&mut self) -> Result<String, StError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let b = *self
                .bytes
                .get(self.pos)
                .ok_or_else(|| self.err("unterminated string"))?;
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let e = *self
                        .bytes
                        .get(self.pos)
                        .ok_or_else(|| self.err("dangling escape"))?;
                    self.pos += 1;
                    match e {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| self.err("short \\u escape"))?;
                            self.pos += 4;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex)
                                    .map_err(|_| self.err("non-utf8 \\u escape"))?,
                                16,
                            )
                            .map_err(|_| self.err("bad \\u escape"))?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("invalid \\u code point"))?,
                            );
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                b => {
                    // Re-assemble multi-byte UTF-8 sequences.
                    if b < 0x80 {
                        out.push(b as char);
                    } else {
                        let start = self.pos - 1;
                        let mut end = self.pos;
                        while self.bytes.get(end).is_some_and(|&x| x & 0xC0 == 0x80) {
                            end += 1;
                        }
                        let chunk = std::str::from_utf8(&self.bytes[start..end])
                            .map_err(|_| self.err("invalid utf-8 in string"))?;
                        out.push_str(chunk);
                        self.pos = end;
                    }
                }
            }
        }
    }

    fn number(&mut self) -> Result<u64, StError> {
        self.skip_ws();
        let start = self.pos;
        while self.bytes.get(self.pos).is_some_and(u8::is_ascii_digit) {
            self.pos += 1;
        }
        if start == self.pos {
            return Err(self.err("expected digits"));
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("digits are ascii")
            .parse()
            .map_err(|_| self.err("number overflows u64"))
    }

    fn value(&mut self) -> Result<JsonVal, StError> {
        match self.peek().ok_or_else(|| self.err("expected value"))? {
            b'"' => Ok(JsonVal::Str(self.string()?)),
            b'[' => {
                self.expect(b'[')?;
                let mut items = Vec::new();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(JsonVal::Arr(items));
                }
                loop {
                    items.push(self.number()?);
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(JsonVal::Arr(items));
                        }
                        _ => return Err(self.err("expected ',' or ']'")),
                    }
                }
            }
            b't' if self.bytes[self.pos..].starts_with(b"true") => {
                self.pos += 4;
                Ok(JsonVal::Bool(true))
            }
            b'f' if self.bytes[self.pos..].starts_with(b"false") => {
                self.pos += 5;
                Ok(JsonVal::Bool(false))
            }
            b if b.is_ascii_digit() => Ok(JsonVal::Num(self.number()?)),
            _ => Err(self.err("unsupported value")),
        }
    }
}

/// Parse one flat JSON object line (the inverse of [`ObjWriter`]).
pub fn parse_object(line: &str) -> Result<JsonObj, StError> {
    let mut p = Parser {
        bytes: line.as_bytes(),
        pos: 0,
    };
    p.expect(b'{')?;
    let mut obj = JsonObj::default();
    if p.peek() == Some(b'}') {
        return Ok(obj);
    }
    loop {
        let key = p.string()?;
        p.expect(b':')?;
        let val = p.value()?;
        obj.fields.push((key, val));
        match p.peek() {
            Some(b',') => p.pos += 1,
            Some(b'}') => return Ok(obj),
            _ => return Err(p.err("expected ',' or '}'")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_and_parser_roundtrip() {
        let mut line = String::new();
        let mut w = ObjWriter::new(&mut line);
        w.str_field("name", "scratch \"1\"\nλ");
        w.num_field("tape", 3);
        w.arr_field("revs", &[1, 2, 3]);
        w.arr_field("empty", &[]);
        w.bool_field("ok", true);
        w.finish();
        let obj = parse_object(&line).unwrap();
        assert_eq!(obj.str("name").unwrap(), "scratch \"1\"\nλ");
        assert_eq!(obj.num("tape").unwrap(), 3);
        assert_eq!(obj.arr("revs").unwrap(), &[1, 2, 3]);
        assert_eq!(obj.arr("empty").unwrap(), &[] as &[u64]);
    }

    #[test]
    fn control_characters_are_escaped() {
        let mut line = String::new();
        let mut w = ObjWriter::new(&mut line);
        w.str_field("s", "a\u{01}b");
        w.finish();
        assert!(line.contains("\\u0001"), "line: {line}");
        let obj = parse_object(&line).unwrap();
        assert_eq!(obj.str("s").unwrap(), "a\u{01}b");
    }

    #[test]
    fn missing_fields_report_their_key() {
        let obj = parse_object(r#"{"a":1}"#).unwrap();
        let err = obj.str("b").unwrap_err().to_string();
        assert!(err.contains('b'), "{err}");
    }

    #[test]
    fn malformed_lines_are_errors_not_panics() {
        for bad in [
            "",
            "{",
            "{\"a\"",
            "{\"a\":}",
            "{\"a\":-1}",
            "{\"a\":1.5}",
            "{\"a\":[1,]}",
            "{\"a\":\"unterminated}",
        ] {
            assert!(parse_object(bad).is_err(), "should reject: {bad}");
        }
    }

    #[test]
    fn whitespace_is_tolerated() {
        let obj = parse_object(" { \"a\" : 1 , \"b\" : [ ] } ").unwrap();
        assert_eq!(obj.num("a").unwrap(), 1);
    }
}
