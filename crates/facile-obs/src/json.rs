//! A minimal JSON reader/writer.
//!
//! The workspace builds fully offline, so no serde: this module holds the
//! small subset of JSON the observability pipeline needs — enough to
//! write run documents and for `sim_obs` to read them back. Both
//! directions are exact for the documents this workspace produces; the
//! parser additionally accepts any well-formed JSON (nested at most
//! [`MAX_DEPTH`] deep) so traces and documents can be post-processed by
//! external tools first.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (lossy for integers beyond 2^53, which the
    /// documents here never emit for values that matter at that scale).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object. Keyed map; insertion order is not preserved.
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// Member of an object, if this is an object that has it.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(m) => m.get(key),
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

    /// The number as `f64`, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as `u64`, if this is a whole number in `0..=2^53` —
    /// the range a JSON double carries exactly. Negative, fractional and
    /// larger numbers are `None`, never silently coerced.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_i64()
            .and_then(|n| u64::try_from(n).ok())
    }

    /// The number as `i64`, if this is a whole number within ±2^53.
    /// Unlike [`as_u64`](Self::as_u64) this admits negative values,
    /// which miss-attribution records can carry.
    pub fn as_i64(&self) -> Option<i64> {
        const EXACT: f64 = (1u64 << 53) as f64;
        self.as_f64()
            .filter(|n| n.fract() == 0.0 && n.abs() <= EXACT)
            .map(|n| n as i64)
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }
}

/// A parse failure, with a byte offset into the input.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// What went wrong.
    pub msg: &'static str,
    /// Byte offset of the failure.
    pub at: usize,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for ParseError {}

/// Deepest array/object nesting [`parse`] accepts. Run documents nest
/// six levels at most (a serve result frame embedding a document's
/// per-action miss values); the cap keeps hostile input from
/// overflowing the stack of the recursive parser.
pub const MAX_DEPTH: usize = 128;

/// Parses one JSON document; trailing whitespace is allowed, trailing
/// garbage and nesting deeper than [`MAX_DEPTH`] are errors.
pub fn parse(src: &str) -> Result<Value, ParseError> {
    let mut p = Parser {
        b: src.as_bytes(),
        i: 0,
        depth: 0,
    };
    p.ws();
    let v = p.value()?;
    p.ws();
    if p.i != p.b.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(v)
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &'static str) -> ParseError {
        ParseError { msg, at: self.i }
    }

    fn ws(&mut self) {
        while matches!(self.b.get(self.i), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> bool {
        if self.b.get(self.i) == Some(&c) {
            self.i += 1;
            true
        } else {
            false
        }
    }

    fn lit(&mut self, word: &str, v: Value) -> Result<Value, ParseError> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.b.get(self.i) {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') => self.lit("null", Value::Null),
            Some(b't') => self.lit("true", Value::Bool(true)),
            Some(b'f') => self.lit("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[' | b'{') => {
                self.depth += 1;
                if self.depth > MAX_DEPTH {
                    return Err(self.err("nesting too deep"));
                }
                let v = if self.b[self.i] == b'[' {
                    self.array()
                } else {
                    self.object()
                };
                self.depth -= 1;
                v
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.i += 1; // caller checked the opening '"'
        let mut s = String::new();
        loop {
            match self.b.get(self.i) {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.i += 1;
                    match self.b.get(self.i) {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'n') => s.push('\n'),
                        Some(b't') => s.push('\t'),
                        Some(b'r') => s.push('\r'),
                        Some(b'b') => s.push('\u{8}'),
                        Some(b'f') => s.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .b
                                .get(self.i + 1..self.i + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            let cp = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            // Surrogate pairs are not needed by our docs;
                            // map unpaired surrogates to the replacement
                            // character rather than failing.
                            s.push(char::from_u32(cp).unwrap_or('\u{fffd}'));
                            self.i += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.i += 1;
                }
                Some(_) => {
                    // Consume the run up to the next quote or escape in
                    // one step. Both are ASCII, so the run ends on a
                    // character boundary; validating only the run keeps
                    // long strings linear.
                    let start = self.i;
                    while !matches!(self.b.get(self.i), None | Some(b'"' | b'\\')) {
                        self.i += 1;
                    }
                    let run = std::str::from_utf8(&self.b[start..self.i])
                        .map_err(|_| ParseError { msg: "invalid UTF-8", at: start })?;
                    s.push_str(run);
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.i;
        self.eat(b'-');
        while matches!(self.b.get(self.i), Some(b'0'..=b'9')) {
            self.i += 1;
        }
        if self.eat(b'.') {
            while matches!(self.b.get(self.i), Some(b'0'..=b'9')) {
                self.i += 1;
            }
        }
        if matches!(self.b.get(self.i), Some(b'e' | b'E')) {
            self.i += 1;
            if matches!(self.b.get(self.i), Some(b'+' | b'-')) {
                self.i += 1;
            }
            while matches!(self.b.get(self.i), Some(b'0'..=b'9')) {
                self.i += 1;
            }
        }
        let txt = std::str::from_utf8(&self.b[start..self.i]).unwrap();
        txt.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| self.err("invalid number"))
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.i += 1; // caller checked the opening '['
        let mut items = Vec::new();
        self.ws();
        if self.eat(b']') {
            return Ok(Value::Arr(items));
        }
        loop {
            self.ws();
            items.push(self.value()?);
            self.ws();
            if self.eat(b']') {
                return Ok(Value::Arr(items));
            }
            if !self.eat(b',') {
                return Err(self.err("expected ',' or ']'"));
            }
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.i += 1; // caller checked the opening '{'
        let mut map = BTreeMap::new();
        self.ws();
        if self.eat(b'}') {
            return Ok(Value::Obj(map));
        }
        loop {
            self.ws();
            if self.b.get(self.i) != Some(&b'"') {
                return Err(self.err("expected object key"));
            }
            let key = self.string()?;
            self.ws();
            if !self.eat(b':') {
                return Err(self.err("expected ':'"));
            }
            self.ws();
            let val = self.value()?;
            map.insert(key, val);
            self.ws();
            if self.eat(b'}') {
                return Ok(Value::Obj(map));
            }
            if !self.eat(b',') {
                return Err(self.err("expected ',' or '}'"));
            }
        }
    }
}

/// Escapes a string into its JSON representation (with quotes).
pub fn escape_into(out: &mut String, s: &str) {
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

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null"), Ok(Value::Null));
        assert_eq!(parse(" true "), Ok(Value::Bool(true)));
        assert_eq!(parse("-12.5e1"), Ok(Value::Num(-125.0)));
        assert_eq!(parse("\"a\\nb\""), Ok(Value::Str("a\nb".into())));
    }

    #[test]
    fn parses_nested_documents() {
        let v = parse(r#"{"a":[1,2,{"b":"x"}],"c":null}"#).unwrap();
        assert_eq!(v.get("c"), Some(&Value::Null));
        let arr = v.get("a").and_then(Value::as_arr).unwrap();
        assert_eq!(arr[1].as_u64(), Some(2));
        assert_eq!(arr[2].get("b").and_then(Value::as_str), Some("x"));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("12 34").is_err());
        assert!(parse("{\"a\":}").is_err());
        assert!(parse("nul").is_err());
    }

    #[test]
    fn integers_are_never_coerced() {
        assert_eq!(parse("-1").unwrap().as_u64(), None);
        assert_eq!(parse("2.5").unwrap().as_u64(), None);
        assert_eq!(parse("1e300").unwrap().as_u64(), None);
        assert_eq!(parse("9007199254740992").unwrap().as_u64(), Some(1 << 53));
        assert_eq!(parse("9007199254740994").unwrap().as_u64(), None);
        assert_eq!(parse("-7").unwrap().as_i64(), Some(-7));
        assert_eq!(parse("-7.5").unwrap().as_i64(), None);
        assert_eq!(parse("3.0").unwrap().as_u64(), Some(3));
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let deep = "[".repeat(1_000_000);
        let err = parse(&deep).unwrap_err();
        assert_eq!(err.msg, "nesting too deep");
        assert_eq!(err.at, MAX_DEPTH);
        let objs = "{\"a\":".repeat(MAX_DEPTH + 1);
        assert_eq!(parse(&objs).unwrap_err().msg, "nesting too deep");
        // At the cap itself the parser still accepts the document.
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // A frame-sized string: quadratic scanning would not finish.
        let body = "add r1, r2, r3\n\u{e9}".repeat(1 << 16);
        let mut doc = String::new();
        escape_into(&mut doc, &body);
        assert_eq!(parse(&doc).unwrap().as_str(), Some(body.as_str()));
        assert_eq!(parse("\"a\u{1F600}b\\n\"").unwrap().as_str(), Some("a\u{1F600}b\n"));
    }

    #[test]
    fn escape_round_trips() {
        let mut out = String::new();
        escape_into(&mut out, "a\"b\\c\nd\u{1}");
        let back = parse(&out).unwrap();
        assert_eq!(back.as_str(), Some("a\"b\\c\nd\u{1}"));
    }
}
