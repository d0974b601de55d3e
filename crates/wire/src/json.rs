//! A minimal JSON value — parser and writer — for the wire protocol.
//!
//! The workspace is hermetic (no `serde_json`), and the protocol needs
//! a *strict* reader anyway: a daemon must reject malformed frames
//! deterministically rather than guess. This module implements exactly
//! the JSON subset the protocol uses — objects, arrays, strings with
//! escapes, finite numbers, booleans, null — with no extensions, and a
//! writer whose output round-trips through the parser. Both sides cost
//! what the bytes cost: the writer copies each run of characters that
//! need no escape in one piece, the parser takes a string up to its
//! next quote, backslash or control byte the same way (`plain_run`
//! serves both), and neither allocates per character.
//!
//! Input is hostile until parsed: arrays and objects may nest at most
//! 32 deep (the protocols nest 2 deep), so a frame of `[[[[…` is a
//! [`JsonError`], not a stack overflow.
//!
//! Numbers are `f64`. Every integer the protocol carries (ids, counts,
//! nanosecond latencies) is well below 2^53, so the round-trip is
//! exact; byte payloads (compiled images) travel as hex strings, never
//! as number arrays.

use std::collections::BTreeMap;
use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. Keys are sorted (BTreeMap), so the writer's output
    /// is deterministic regardless of insertion order.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// The value of object field `key`, if this is an object that has
    /// it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(map) => map.get(key),
            _ => None,
        }
    }

    /// Field `key` as a string.
    pub fn str_field(&self, key: &str) -> Option<&str> {
        match self.get(key)? {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Field `key` as a number.
    pub fn num_field(&self, key: &str) -> Option<f64> {
        match self.get(key)? {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Field `key` as a `u64` (must be a non-negative integral number).
    pub fn u64_field(&self, key: &str) -> Option<u64> {
        let n = self.num_field(key)?;
        if n >= 0.0 && n.fract() == 0.0 && n <= u64::MAX as f64 {
            Some(n as u64)
        } else {
            None
        }
    }

    /// Field `key` as a bool.
    pub fn bool_field(&self, key: &str) -> Option<bool> {
        match self.get(key)? {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Removes field `key` and returns it if it was a string: the
    /// by-value [`Json::str_field`], for decoders that own the value
    /// and must not copy a module source or an image.
    pub fn take_str(&mut self, key: &str) -> Option<String> {
        match self {
            Json::Obj(map) => match map.remove(key)? {
                Json::Str(s) => Some(s),
                _ => None,
            },
            _ => None,
        }
    }
}

/// Builds an object from key/value pairs (a tidy literal syntax for
/// protocol encoders).
pub fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 9e15 {
                    write!(f, "{}", *n as i64)
                } else {
                    write!(f, "{n}")
                }
            }
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Json::Obj(map) => {
                f.write_str("{")?;
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, k)?;
                    write!(f, ":{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Length of the leading run of `bytes` that a JSON string carries as
/// is: everything up to the first `"`, `\` or control byte. Eight
/// bytes at a time (the word tests are the classic has-zero-byte and
/// has-byte-below tricks, exact per word), then byte by byte.
fn plain_run(bytes: &[u8]) -> usize {
    const ONES: u64 = u64::MAX / 255;
    const HIGH: u64 = ONES * 0x80;
    let zero_byte = |w: u64| w.wrapping_sub(ONES) & !w & HIGH;
    let mut run = 0;
    for chunk in bytes.chunks_exact(8) {
        let w = u64::from_le_bytes(chunk.try_into().expect("chunks of 8"));
        let control = w.wrapping_sub(ONES * 0x20) & !w & HIGH;
        if control | zero_byte(w ^ (ONES * 0x22)) | zero_byte(w ^ (ONES * 0x5c)) != 0 {
            break;
        }
        run += 8;
    }
    let plain = |&&c: &&u8| c >= 0x20 && c != b'"' && c != b'\\';
    run + bytes[run..].iter().take_while(plain).count()
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    let mut rest = s;
    loop {
        // Runs end on an ASCII byte, so on a char boundary.
        let (run, tail) = rest.split_at(plain_run(rest.as_bytes()));
        f.write_str(run)?;
        let Some(&c) = tail.as_bytes().first() else {
            return f.write_str("\"");
        };
        match c {
            b'"' => f.write_str("\\\"")?,
            b'\\' => f.write_str("\\\\")?,
            b'\n' => f.write_str("\\n")?,
            b'\r' => f.write_str("\\r")?,
            b'\t' => f.write_str("\\t")?,
            c => write!(f, "\\u{c:04x}")?,
        }
        rest = &tail[1..];
    }
}

/// A parse failure: byte offset and message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset where parsing failed.
    pub at: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad JSON at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Parses a complete JSON document; trailing non-whitespace is an
/// error.
///
/// # Errors
///
/// Returns [`JsonError`] with the failing byte offset on malformed
/// input.
pub fn parse(text: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        text,
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != text.len() {
        return Err(p.err("trailing data after document"));
    }
    Ok(v)
}

/// Deepest nesting of arrays and objects [`parse`] accepts.
const MAX_NESTING: usize = 32;

struct Parser<'a> {
    text: &'a str,
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            at: self.pos,
            message: message.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected `{word}`")))
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
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// The parser recurses once per level, and the input chooses the
    /// depth: without a limit a frame of `[[[[…` overflows the stack of
    /// whichever thread reads it, which aborts the process.
    fn nested(
        &mut self,
        inner: fn(&mut Self) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
        if self.depth == MAX_NESTING {
            return Err(self.err(&format!("nesting deeper than {MAX_NESTING} levels")));
        }
        self.depth += 1;
        let v = inner(self);
        self.depth -= 1;
        v
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
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
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // The whole run of unescaped bytes at once: a module source
            // or an image is one large string, and an escape-free one is
            // one sweep to its closing quote and one copy. The run ends
            // at an ASCII delimiter, so on a char boundary of `text`.
            let run = plain_run(&self.text.as_bytes()[self.pos..]);
            out.push_str(&self.text[self.pos..self.pos + run]);
            self.pos += run;
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .text
                                .as_bytes()
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| self.err("non-ASCII \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            // Protocol strings never need surrogate
                            // pairs; reject them rather than mis-decode.
                            let c = char::from_u32(code)
                                .ok_or_else(|| self.err("surrogate \\u escape"))?;
                            out.push(c);
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => return Err(self.err("control character in string")),
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = &self.text[start..self.pos];
        let n: f64 = text.parse().map_err(|_| self.err("bad number"))?;
        if !n.is_finite() {
            return Err(self.err("non-finite number"));
        }
        Ok(Json::Num(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_protocol_shapes() {
        let v = obj(vec![
            ("id", Json::Num(7.0)),
            ("kind", Json::Str("compile".into())),
            ("module", Json::Str("module m;\n\"quoted\"\t\\".into())),
            (
                "flags",
                Json::Arr(vec![Json::Bool(true), Json::Null, Json::Num(-1.5)]),
            ),
        ]);
        let text = v.to_string();
        assert_eq!(parse(&text).unwrap(), v);
    }

    #[test]
    fn rejects_malformed() {
        for bad in [
            "",
            "{",
            "{\"a\":}",
            "[1,]",
            "{\"a\" 1}",
            "tru",
            "\"unterminated",
            "{\"a\":1} trailing",
            "1e999",
            "\u{1}",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn nesting_is_limited_not_recursed_into() {
        let nest = |depth: usize| format!("{}1{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse(&nest(MAX_NESTING)).is_ok());
        let objects = "{\"a\":".repeat(MAX_NESTING) + "1" + &"}".repeat(MAX_NESTING);
        assert!(parse(&objects).is_ok());
        // One level more is an error that names the limit, at the
        // bracket that exceeds it.
        let err = parse(&nest(MAX_NESTING + 1)).unwrap_err();
        assert_eq!(
            (err.at, err.message.as_str()),
            (32, "nesting deeper than 32 levels")
        );
        // The hostile frame: 200 KB of `[`. Unlimited, this recursion
        // overflows the reading thread's stack and aborts the process.
        let err = parse(&"[".repeat(200_000)).unwrap_err();
        assert_eq!(
            err.to_string(),
            "bad JSON at byte 32: nesting deeper than 32 levels"
        );
        let mixed = "[{\"k\":".repeat(100_000);
        assert!(parse(&mixed).unwrap_err().message.contains("32 levels"));
        // Siblings do not add up: depth is what is open, not what was.
        let wide = format!("[{}[]]", "[[]],".repeat(1000));
        assert!(parse(&wide).is_ok());
    }

    #[test]
    fn big_integers_are_exact() {
        // Nanosecond latencies: u64 values well below 2^53.
        let ns: u64 = 123_456_789_012_345;
        let v = obj(vec![("t", Json::Num(ns as f64))]);
        let back = parse(&v.to_string()).unwrap();
        assert_eq!(back.u64_field("t"), Some(ns));
    }

    #[test]
    fn unicode_survives() {
        let v = Json::Str("warp → compile ∀ fns".into());
        assert_eq!(parse(&v.to_string()).unwrap(), v);
    }
}
