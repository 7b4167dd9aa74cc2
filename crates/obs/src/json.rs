//! Minimal hand-rolled JSON support shared by the exporters and the
//! `obs_check` schema gate.
//!
//! The workspace builds offline with zero external dependencies, so
//! there is no serde. The exporters only *write* JSON (string
//! composition plus [`escape`]), and the schema checks only need to
//! *read* what this crate itself emitted — a small recursive-descent
//! parser into a dynamic [`Value`] covers both without pulling anything
//! in.

use std::fmt;

/// Escapes a string for inclusion inside JSON double quotes.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

/// A parsed JSON value.
///
/// Objects keep insertion order (a `Vec` of pairs, not a map) so that
/// round-trip comparisons against our deterministic, sorted emitters are
/// meaningful.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in source order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Member of an object by key, if this is an object and the key exists.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
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

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer, if it is one
    /// exactly and at most [`MAX_EXACT_INT`] (above it an `f64` no
    /// longer tells neighbouring integers apart).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= MAX_EXACT_INT as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The key/value pairs, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }
}

/// A parse failure, with a byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset the parser stopped at.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

/// The largest integer a JSON number holds exactly: 2^53, the end of the
/// run of integers an `f64` represents without gaps. [`parse`] rejects
/// integer literals of greater magnitude instead of rounding them.
pub const MAX_EXACT_INT: u64 = 1 << 53;

/// Deepest array/object nesting [`parse`] accepts. The parser recurses
/// once per level, so the bound keeps hostile input from overflowing the
/// stack; every document this workspace writes nests a few levels deep.
pub const MAX_DEPTH: usize = 128;

/// Parses a complete JSON document.
///
/// # Errors
///
/// Returns [`ParseError`] on malformed input, nesting deeper than
/// [`MAX_DEPTH`], an integer literal whose magnitude exceeds
/// [`MAX_EXACT_INT`] (reported at the literal's first byte), or
/// trailing garbage.
pub fn parse(input: &str) -> Result<Value, ParseError> {
    let mut p = Parser {
        text: input,
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.text.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(v)
}

struct Parser<'a> {
    text: &'a str,
    /// Byte offset into `text`; only ever advanced past ASCII bytes or
    /// whole chars, so it always sits on a char boundary.
    pos: usize,
    /// Arrays/objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> ParseError {
        ParseError {
            offset: self.pos,
            message: message.to_owned(),
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

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, ParseError> {
        if self.text[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
                }
                self.depth += 1;
                let v = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                v
            }
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            pairs.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'b') => s.push('\u{8}'),
                        Some(b'f') => s.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .text
                                .get(self.pos + 1..self.pos + 5)
                                .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            // Surrogate pairs are not needed for our own
                            // output (we only \u-escape control chars).
                            s.push(char::from_u32(hex).ok_or_else(|| self.err("bad \\u escape"))?);
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one code point.
                    let c = self.text[self.pos..].chars().next().expect("peeked a byte");
                    s.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')) {
            self.pos += 1;
        }
        let literal = &self.text[start..self.pos];
        let n = literal.parse::<f64>().map_err(|_| self.err("bad number"))?;
        // An integer literal must survive the trip through `f64` exactly.
        if !literal.contains(['.', 'e', 'E']) {
            let magnitude = literal.trim_start_matches('-').parse::<u64>();
            if magnitude.map_or(true, |m| m > MAX_EXACT_INT) {
                return Err(ParseError {
                    offset: start,
                    message: format!("integer above 2^53 ({MAX_EXACT_INT}) is not exact"),
                });
            }
        }
        Ok(Value::Num(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_covers_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse(" true ").unwrap(), Value::Bool(true));
        assert_eq!(parse("false").unwrap(), Value::Bool(false));
        assert_eq!(parse("42").unwrap(), Value::Num(42.0));
        assert_eq!(parse("-1.5e2").unwrap(), Value::Num(-150.0));
        assert_eq!(parse("\"hi\"").unwrap(), Value::Str("hi".into()));
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"a": [1, {"b": "x\n"}], "c": null}"#).unwrap();
        assert_eq!(v.get("c"), Some(&Value::Null));
        let arr = v.get("a").and_then(Value::as_array).unwrap();
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[1].get("b").and_then(Value::as_str), Some("x\n"));
    }

    #[test]
    fn as_u64_rejects_fractions_and_negatives() {
        assert_eq!(parse("3.5").unwrap().as_u64(), None);
        assert_eq!(parse("-3").unwrap().as_u64(), None);
        assert_eq!(parse("3").unwrap().as_u64(), Some(3));
    }

    #[test]
    fn integers_decode_exactly_or_fail_at_their_offset() {
        let max = MAX_EXACT_INT.to_string();
        assert_eq!(parse(&max).unwrap().as_u64(), Some(MAX_EXACT_INT));
        let min = -(MAX_EXACT_INT as f64);
        assert_eq!(parse(&format!("-{max}")).unwrap().as_f64(), Some(min));
        for big in ["9007199254740993", "-9007199254740993", "18446744073709551616"] {
            let text = format!("{{\"n\": [1, {big}]}}");
            let e = parse(&text).unwrap_err();
            assert_eq!(e.offset, text.find(big).unwrap(), "{big}: {e}");
            assert!(e.message.contains("2^53"), "{big}: {e}");
        }
        // Float literals may be large, but no integer read from one
        // exceeds 2^53.
        assert_eq!(parse("1e300").unwrap().as_f64(), Some(1e300));
        assert_eq!(parse("1e300").unwrap().as_u64(), None);
        assert_eq!(parse("9007199254740994.0").unwrap().as_u64(), None);
        assert_eq!(Value::Num(u64::MAX as f64).as_u64(), None);
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\":1} extra").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn deep_nesting_is_an_error_at_the_offending_byte() {
        let depth = 100_000;
        for (open, close) in [("[", "]"), ("{\"k\":", "}")] {
            let text = format!("{}0{}", open.repeat(depth), close.repeat(depth));
            let e = parse(&text).unwrap_err();
            assert_eq!(e.offset, MAX_DEPTH * open.len(), "{open}: {e}");
            assert!(e.message.contains("nesting"), "{e}");
        }
        let at_limit = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&at_limit).is_ok());
        let over = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(parse(&over).is_err());
    }

    #[test]
    fn unicode_escape_needs_four_hex_digits() {
        for bad in [
            "\"\\u+041\"",
            "\"\\u-041\"",
            "\"\\u 041\"",
            "\"\\u04\"",
            "\"\\u004g\"",
        ] {
            let e = parse(bad).unwrap_err();
            assert!(e.message.contains("\\u escape"), "{bad}: {e}");
        }
        assert_eq!(parse("\"\\u004A\"").unwrap().as_str(), Some("J"));
    }

    #[test]
    fn unicode_escape_round_trip() {
        let v = parse("\"\\u0041\\u00e9\"").unwrap();
        assert_eq!(v.as_str(), Some("Aé"));
    }

    #[test]
    fn random_json_ish_text_never_panics() {
        // Fragments biased toward the string scanner: quotes, every
        // escape (good and bad), `\u` with good, short, non-hex and
        // surrogate payloads, and 2-, 3- and 4-byte chars.
        const ALPHABET: &[&str] = &[
            "\"", "\\\"", "\\\\", "\\/", "\\n", "\\t", "\\b", "\\x", "\\",
            "\\u0041", "\\u00e9", "\\u12", "\\uzzzz", "\\uD800", "\\u+041", "é", "€",
            "𝄞", "a", " ", "{", "}", "[", "]", ":", ",", "1", "-", ".", "e", "true", "nul",
        ];
        let mut rng = pels_sim::Rng::seed_from_u64(0x0B5_F022);
        for case in 0..4_000 {
            let mut text = String::new();
            if rng.bool() {
                text.push('"');
            }
            for _ in 0..rng.index(24) {
                text.push_str(ALPHABET[rng.index(ALPHABET.len())]);
            }
            match parse(&text) {
                Ok(Value::Str(s)) => {
                    let again = parse(&format!("\"{}\"", escape(&s)));
                    assert_eq!(again, Ok(Value::Str(s)), "case {case}: {text:?}");
                }
                Ok(_) => {}
                Err(e) => {
                    assert!(text.is_char_boundary(e.offset), "case {case}: {text:?} {e}");
                }
            }
        }
    }

    #[test]
    fn mebibyte_string_parses_and_round_trips() {
        let payload: String = "ascii é € 𝄞 \"quoted\" \\ \n\t\u{1} "
            .chars()
            .cycle()
            .take(1 << 20)
            .collect();
        let doc = format!("{{\"payload\": \"{}\"}}", escape(&payload));
        let v = parse(&doc).unwrap();
        assert_eq!(
            v.get("payload").and_then(Value::as_str),
            Some(payload.as_str())
        );
    }

    #[test]
    fn object_preserves_order() {
        let v = parse(r#"{"z": 1, "a": 2}"#).unwrap();
        let keys: Vec<&str> = v
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, vec!["z", "a"]);
    }
}
