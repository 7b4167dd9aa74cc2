//! Minimal hand-rolled JSON support: the one writer every exporter
//! uses and the parser the `obs_check` schema gate and the description
//! codec read with.
//!
//! The workspace builds offline with zero external dependencies, so
//! there is no serde. [`Writer`] streams a document and alone decides
//! the encoding: string escaping, the spelling of numbers ([`uint`],
//! [`float`]) and the layout. The one exception is the description
//! codec (`pels-desc`), which keeps its own committed layout for the
//! description files but spells its numbers through [`uint`] and
//! [`float`]. [`parse`] reads any document into a dynamic [`Value`].

use std::fmt::{self, Write as _};

/// Writes `s` as a JSON string literal, quotes included.
fn push_string(out: &mut String, s: &str) {
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

/// A number spelled the one way this module writes numbers.
enum Number {
    Uint(u64),
    Float(f64),
}

impl fmt::Display for Number {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Number::Uint(v) if v > MAX_EXACT_INT => write!(f, "{v:e}"),
            Number::Uint(v) => write!(f, "{v}"),
            Number::Float(v) if !v.is_finite() => f.write_str("null"),
            Number::Float(v) if v.abs() > MAX_EXACT_INT as f64 => write!(f, "{v:e}"),
            Number::Float(v) => write!(f, "{v}"),
        }
    }
}

/// A `u64` spelled as a JSON number: exact up to [`MAX_EXACT_INT`], in
/// exponent form with every digit above it ([`parse`] refuses a larger
/// integer literal and reads the exponent form as the nearest `f64`).
pub fn uint(v: u64) -> impl fmt::Display {
    Number::Uint(v)
}

/// An `f64` spelled as a JSON number: its shortest form that reads back
/// bit for bit, in exponent form above 2^53 in magnitude (where the
/// plain form would be an integer literal [`parse`] refuses), and
/// `null` when non-finite (JSON has no NaN or infinity).
pub fn float(v: f64) -> impl fmt::Display {
    Number::Float(v)
}

/// A streaming JSON document writer.
///
/// Every method writes one token and returns `&mut Self`, so a record
/// reads as a chain: `w.key("jobs").uint(8).key("digest").str("..")`.
/// The layout follows one fixed rule: the members of the root and the
/// elements of an array directly inside the root go one per line
/// (indented two spaces per level); anything deeper prints inline as
/// `{"k": v, "k2": v2}` / `[a, b]`.
///
/// ```
/// use pels_obs::json::Writer;
/// let mut w = Writer::new();
/// w.begin_object().key("n").uint(3).key("xs").begin_array();
/// w.begin_object().key("ok").bool(true).end_object();
/// w.end_array().end_object();
/// assert_eq!(w.finish(), "{\n  \"n\": 3,\n  \"xs\": [\n    {\"ok\": true}\n  ]\n}\n");
/// ```
#[derive(Debug, Default)]
pub struct Writer {
    out: String,
    /// Open containers, outermost first: (is an array, items written).
    open: Vec<(bool, usize)>,
    /// A key was written and its value is next.
    keyed: bool,
}

impl Writer {
    /// An empty document.
    pub fn new() -> Self {
        Writer::default()
    }

    /// Whether the container at `depth` (the root is 1) puts its items
    /// one per line.
    fn one_per_line(depth: usize, array: bool) -> bool {
        depth == 1 || (depth == 2 && array)
    }

    /// Separator and line break before the next item of the innermost
    /// container.
    fn item(&mut self) {
        let depth = self.open.len();
        let Some((array, items)) = self.open.last_mut() else {
            return;
        };
        *items += 1;
        let first = *items == 1;
        if !first {
            self.out.push(',');
        }
        if Self::one_per_line(depth, *array) {
            self.out.push('\n');
            self.out.push_str(&"  ".repeat(depth));
        } else if !first {
            self.out.push(' ');
        }
    }

    /// Positions a value: right after its key, or as the next element.
    fn value(&mut self) {
        debug_assert!(
            self.keyed || self.open.last().map_or(self.out.is_empty(), |f| f.0),
            "a value needs a key inside an object, and a document has one root"
        );
        if !std::mem::take(&mut self.keyed) {
            self.item();
        }
    }

    fn open(&mut self, array: bool, bracket: char) -> &mut Self {
        self.value();
        self.out.push(bracket);
        self.open.push((array, 0));
        self
    }

    fn close(&mut self, array: bool, bracket: char) -> &mut Self {
        let depth = self.open.len();
        let open = self.open.pop().map(|f| f.0);
        assert!(open == Some(array) && !self.keyed, "`{bracket}` closes no open container");
        if Self::one_per_line(depth, array) {
            self.out.push('\n');
            self.out.push_str(&"  ".repeat(depth - 1));
        }
        self.out.push(bracket);
        self
    }

    /// Opens an object.
    pub fn begin_object(&mut self) -> &mut Self {
        self.open(false, '{')
    }

    /// Closes the innermost object.
    pub fn end_object(&mut self) -> &mut Self {
        self.close(false, '}')
    }

    /// Opens an array.
    pub fn begin_array(&mut self) -> &mut Self {
        self.open(true, '[')
    }

    /// Closes the innermost array.
    pub fn end_array(&mut self) -> &mut Self {
        self.close(true, ']')
    }

    /// Writes the key of the next member of the innermost object.
    pub fn key(&mut self, key: &str) -> &mut Self {
        debug_assert!(
            !self.keyed && self.open.last().is_some_and(|f| !f.0),
            "a key belongs directly inside an object"
        );
        self.item();
        push_string(&mut self.out, key);
        self.out.push_str(": ");
        self.keyed = true;
        self
    }

    /// Writes an unsigned integer, spelled by [`uint`].
    pub fn uint(&mut self, v: u64) -> &mut Self {
        self.value();
        let _ = write!(self.out, "{}", Number::Uint(v));
        self
    }

    /// Writes a float, spelled by [`float`] (`null` when non-finite).
    pub fn float(&mut self, v: f64) -> &mut Self {
        self.value();
        let _ = write!(self.out, "{}", Number::Float(v));
        self
    }

    /// Writes a string, escaped.
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.value();
        push_string(&mut self.out, s);
        self
    }

    /// Writes `true` or `false`.
    pub fn bool(&mut self, b: bool) -> &mut Self {
        self.value();
        self.out.push_str(if b { "true" } else { "false" });
        self
    }

    /// The finished document, newline-terminated.
    pub fn finish(mut self) -> String {
        assert!(self.open.is_empty() && !self.keyed, "unclosed container");
        self.out.push('\n');
        self.out
    }
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
/// Returns [`ParseError`] on input outside RFC 8259 (a raw control
/// character inside a string is reported at its byte; a number such as
/// `01`, `1.` or `-.5` at the literal's first byte), nesting deeper than
/// [`MAX_DEPTH`], a number literal that overflows an `f64` or an integer
/// literal whose magnitude exceeds [`MAX_EXACT_INT`] (both reported at
/// the literal's first byte), or trailing garbage.
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
                Some(0x00..=0x1F) => return Err(self.err("raw control character in string")),
                Some(_) => {
                    // Consume one code point.
                    let c = self.text[self.pos..].chars().next().expect("peeked a byte");
                    s.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    /// Advances past one byte if it is in `set`.
    fn eat(&mut self, set: &[u8]) -> bool {
        let hit = self.peek().is_some_and(|b| set.contains(&b));
        self.pos += usize::from(hit);
        hit
    }

    /// Advances past a run of ASCII digits; returns how many.
    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }

    /// A number in RFC 8259's grammar, `-? (0 | [1-9][0-9]*) (. [0-9]+)?
    /// ([eE] [+-]? [0-9]+)?`, that fits an `f64`. Every rejection is
    /// reported at the literal's first byte.
    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        let fail = |message: &str| Err(ParseError { offset: start, message: message.into() });
        self.eat(b"-");
        let leading_zero = self.peek() == Some(b'0');
        match self.digits() {
            0 => return fail("number without integer digits"),
            n if n > 1 && leading_zero => return fail("number with a leading zero"),
            _ => {}
        }
        let fraction = self.eat(b".");
        if fraction && self.digits() == 0 {
            return fail("number without fraction digits");
        }
        let exponent = self.eat(b"eE");
        if exponent {
            self.eat(b"+-");
            if self.digits() == 0 {
                return fail("number without exponent digits");
            }
        }
        let literal = &self.text[start..self.pos];
        let n = literal.parse::<f64>().expect("RFC 8259 numbers are f64 literals");
        if n.is_infinite() {
            return fail("number overflows an f64");
        }
        // An integer literal must survive the trip through `f64` exactly.
        let magnitude = || literal.trim_start_matches('-').parse::<u64>();
        if !(fraction || exponent) && magnitude().map_or(true, |m| m > MAX_EXACT_INT) {
            return fail(&format!("integer above 2^53 ({MAX_EXACT_INT}) is not exact"));
        }
        Ok(Value::Num(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quoted(s: &str) -> String {
        let mut out = String::new();
        push_string(&mut out, s);
        out
    }

    #[test]
    fn escape_covers_specials() {
        assert_eq!(quoted("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(quoted("\u{1}"), "\"\\u0001\"");
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

    /// Each of `bad`, placed at byte 4 of `[0, bad]`, fails there with
    /// a message naming `why`.
    fn assert_rejected_at_4(cases: &[(&str, &str)]) {
        for (bad, why) in cases {
            let e = parse(&format!("[0, {bad}]")).unwrap_err();
            assert_eq!(e.offset, 4, "{bad:?}: {e}");
            assert!(e.message.contains(why), "{bad:?}: {e}");
        }
    }

    #[test]
    fn raw_control_characters_in_strings_fail_at_their_offset() {
        for c in ['\u{0}', '\n', '\u{1f}'] {
            let e = parse(&format!("[0, \"a{c}b\"]")).unwrap_err();
            assert_eq!(e.offset, 6, "{c:?}: {e}");
            assert!(e.message.contains("control character"), "{c:?}: {e}");
        }
        // Escaped, they parse; U+007F is no control character to JSON.
        assert_eq!(parse("\"\\u0001\\n\u{7f}\"").unwrap().as_str(), Some("\u{1}\n\u{7f}"));
    }

    #[test]
    fn overflowing_numbers_fail_at_their_offset() {
        let over = "overflows";
        assert_rejected_at_4(&[("1e999", over), ("-1e999", over), ("1.8e308", over)]);
        assert_eq!(parse("1.7976931348623157e308").unwrap().as_f64(), Some(f64::MAX));
        // Underflow rounds to zero, which is finite.
        assert_eq!(parse("1e-999").unwrap().as_f64(), Some(0.0));
    }

    #[test]
    fn non_json_number_forms_fail_at_their_offset() {
        assert_rejected_at_4(&[
            ("01", "leading zero"),
            ("-00", "leading zero"),
            ("1.", "fraction digits"),
            ("1.e3", "fraction digits"),
            ("-.5", "integer digits"),
            ("-", "integer digits"),
            ("1e", "exponent digits"),
            ("1e+", "exponent digits"),
        ]);
        for (good, v) in [("0", 0.0), ("-0", -0.0), ("0.5", 0.5), ("10", 10.0), ("1E+2", 100.0)] {
            assert_eq!(parse(good).unwrap().as_f64(), Some(v), "{good}");
        }
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
                    let again = parse(&quoted(&s));
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
        let doc = format!("{{\"payload\": {}}}", quoted(&payload));
        let v = parse(&doc).unwrap();
        assert_eq!(
            v.get("payload").and_then(Value::as_str),
            Some(payload.as_str())
        );
    }

    /// What a random document holds, to check the parse against.
    enum Doc {
        Uint(u64),
        Float(f64),
        Str(String),
        Bool(bool),
        Arr(Vec<Doc>),
        Obj(Vec<(String, Doc)>),
    }

    fn random_string(rng: &mut pels_sim::Rng) -> String {
        const PIECES: &[&str] = &[
            "\"", "\\", "\n", "\r", "\t", "\u{0}", "\u{8}", "\u{1f}", "\u{7f}", "é", "€",
            "𝄞", "\u{2028}", "/", "a", "Z", " ", "0", "{", "]",
        ];
        (0..rng.index(8)).map(|_| PIECES[rng.index(PIECES.len())]).collect()
    }

    fn random_doc(rng: &mut pels_sim::Rng, depth: usize) -> Doc {
        const UINTS: &[u64] = &[0, 1, MAX_EXACT_INT - 1, MAX_EXACT_INT, MAX_EXACT_INT + 1, u64::MAX];
        const FLOATS: &[f64] = &[
            0.0, -0.0, 5e-324, 2.2e-308, 0.1, -1.5, 1e300, -1e300, 9007199254740992.0,
            9007199254740994.0, f64::MAX, f64::NAN, f64::INFINITY, f64::NEG_INFINITY,
        ];
        let pick = if depth == 0 { rng.index(4) } else { rng.index(6) };
        match pick {
            0 => Doc::Uint(if rng.bool() {
                UINTS[rng.index(UINTS.len())]
            } else {
                rng.next_u64() >> rng.index(64)
            }),
            1 => Doc::Float(if rng.bool() {
                FLOATS[rng.index(FLOATS.len())]
            } else {
                f64::from_bits(rng.next_u64())
            }),
            2 => Doc::Str(random_string(rng)),
            3 => Doc::Bool(rng.bool()),
            4 => Doc::Arr((0..rng.index(4)).map(|_| random_doc(rng, depth - 1)).collect()),
            _ => Doc::Obj(
                (0..rng.index(4))
                    .map(|_| (random_string(rng), random_doc(rng, depth - 1)))
                    .collect(),
            ),
        }
    }

    fn write_doc(w: &mut Writer, doc: &Doc) {
        match doc {
            Doc::Uint(v) => {
                w.uint(*v);
            }
            Doc::Float(v) => {
                w.float(*v);
            }
            Doc::Str(s) => {
                w.str(s);
            }
            Doc::Bool(b) => {
                w.bool(*b);
            }
            Doc::Arr(items) => {
                w.begin_array();
                items.iter().for_each(|d| write_doc(w, d));
                w.end_array();
            }
            Doc::Obj(members) => {
                w.begin_object();
                for (k, d) in members {
                    w.key(k);
                    write_doc(w, d);
                }
                w.end_object();
            }
        }
    }

    fn check_doc(doc: &Doc, v: &Value, at: &str) {
        match doc {
            Doc::Uint(n) if *n <= MAX_EXACT_INT => assert_eq!(v.as_u64(), Some(*n), "{at}"),
            Doc::Uint(n) => assert_eq!(v.as_f64(), Some(*n as f64), "{at}"),
            Doc::Float(x) if x.is_finite() => {
                let back = v.as_f64().map(f64::to_bits);
                assert_eq!(back, Some(x.to_bits()), "{at}: {x:e}");
            }
            Doc::Float(_) => assert_eq!(v, &Value::Null, "{at}"),
            Doc::Str(s) => assert_eq!(v.as_str(), Some(s.as_str()), "{at}"),
            Doc::Bool(b) => assert_eq!(v.as_bool(), Some(*b), "{at}"),
            Doc::Arr(items) => {
                let got = v.as_array().unwrap_or_else(|| panic!("{at}: not an array"));
                assert_eq!(got.len(), items.len(), "{at}");
                for (i, (d, g)) in items.iter().zip(got).enumerate() {
                    check_doc(d, g, &format!("{at}/{i}"));
                }
            }
            Doc::Obj(members) => {
                let got = v.as_object().unwrap_or_else(|| panic!("{at}: not an object"));
                assert_eq!(got.len(), members.len(), "{at}");
                for ((k, d), (gk, g)) in members.iter().zip(got) {
                    assert_eq!(gk, k, "{at}");
                    check_doc(d, g, &format!("{at}/{k:?}"));
                }
            }
        }
    }

    #[test]
    fn writer_round_trips_through_the_parser() {
        let mut rng = pels_sim::Rng::seed_from_u64(0x0037_17E5);
        for case in 0..2_000 {
            let root = match random_doc(&mut rng, 4) {
                d @ (Doc::Arr(_) | Doc::Obj(_)) => d,
                scalar => Doc::Arr(vec![scalar]),
            };
            let mut w = Writer::new();
            write_doc(&mut w, &root);
            let text = w.finish();
            let v = parse(&text).unwrap_or_else(|e| panic!("case {case}: {e}\n{text}"));
            check_doc(&root, &v, &format!("case {case}"));
        }
    }

    #[test]
    fn writer_layout_breaks_only_the_top_two_levels() {
        let mut w = Writer::new();
        w.begin_object().key("a").begin_array();
        w.begin_array().uint(1).uint(2).end_array();
        w.begin_object().end_object();
        w.end_array().key("b").begin_object().key("c").begin_array().end_array();
        w.end_object().key("d").begin_array().end_array().end_object();
        assert_eq!(
            w.finish(),
            "{\n  \"a\": [\n    [1, 2],\n    {}\n  ],\n  \"b\": {\"c\": []},\n  \"d\": [\n  ]\n}\n"
        );
        let mut w = Writer::new();
        w.begin_array().end_array();
        assert_eq!(w.finish(), "[\n]\n");
    }

    #[test]
    fn numbers_spell_exactly_or_in_exponent_form() {
        assert_eq!(uint(MAX_EXACT_INT).to_string(), "9007199254740992");
        assert_eq!(uint(MAX_EXACT_INT + 1).to_string(), "9.007199254740993e15");
        assert_eq!(uint(u64::MAX).to_string(), "1.8446744073709551615e19");
        assert_eq!(float(3.0).to_string(), "3");
        assert_eq!(float(-0.0).to_string(), "-0");
        assert_eq!(float(0.1).to_string(), "0.1");
        assert_eq!(float(1e300).to_string(), "1e300");
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(float(v).to_string(), "null");
        }
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
