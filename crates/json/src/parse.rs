//! The recursive-descent parser.

use crate::{Error, ErrorKind, Map, Number, Value};

/// Deepest nesting of arrays and objects the parser accepts. Deeper input
/// is [`ErrorKind::DepthLimit`], not a stack overflow.
pub(crate) const MAX_DEPTH: usize = 128;

/// Parses one JSON value from `text`.
///
/// # Errors
///
/// Returns the first syntax error, with its byte offset.
pub fn parse(text: &str) -> Result<Value, Error> {
    parse_slice(text.as_bytes())
}

/// Parses one JSON value from `bytes`.
///
/// # Errors
///
/// As [`parse`]; a string that is not UTF-8 is a syntax error.
pub(crate) fn parse_slice(bytes: &[u8]) -> Result<Value, Error> {
    let mut parser = Parser { bytes, pos: 0 };
    let value = parser.value(0)?;
    parser.skip_whitespace();
    if parser.pos < bytes.len() {
        return Err(Error::at(ErrorKind::TrailingCharacters, parser.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_whitespace(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.bytes.get(self.pos) {
            self.pos += 1;
        }
    }

    /// The next non-whitespace byte, not consumed.
    fn peek(&mut self) -> Result<u8, Error> {
        self.skip_whitespace();
        self.bytes
            .get(self.pos)
            .copied()
            .ok_or_else(|| Error::at(ErrorKind::UnexpectedEnd, self.pos))
    }

    fn syntax(&self, what: &'static str) -> Error {
        Error::at(ErrorKind::Syntax(what), self.pos)
    }

    fn literal(&mut self, word: &'static [u8], value: Value) -> Result<Value, Error> {
        let end = self.pos + word.len();
        match self.bytes.get(self.pos..end) {
            Some(found) if found == word => {
                self.pos = end;
                Ok(value)
            }
            _ if end > self.bytes.len()
                && self.bytes[self.pos..] == word[..self.bytes.len() - self.pos] =>
            {
                Err(Error::at(ErrorKind::UnexpectedEnd, self.bytes.len()))
            }
            _ => Err(self.syntax("expected a value")),
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, Error> {
        match self.peek()? {
            b'{' => self.object(depth + 1),
            b'[' => self.array(depth + 1),
            b'"' => self.string().map(Value::String),
            b'-' | b'0'..=b'9' => self.number().map(Value::Number),
            b't' => self.literal(b"true", Value::Bool(true)),
            b'f' => self.literal(b"false", Value::Bool(false)),
            b'n' => self.literal(b"null", Value::Null),
            _ => Err(self.syntax("expected a value")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, Error> {
        if depth > MAX_DEPTH {
            return Err(Error::at(ErrorKind::DepthLimit, self.pos));
        }
        self.pos += 1; // '['
        let mut items = Vec::new();
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.value(depth)?);
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.syntax("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, Error> {
        if depth > MAX_DEPTH {
            return Err(Error::at(ErrorKind::DepthLimit, self.pos));
        }
        self.pos += 1; // '{'
        let mut members = Vec::new();
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(Value::Object(Map::new()));
        }
        loop {
            if self.peek()? != b'"' {
                return Err(self.syntax("expected a string key"));
            }
            let key = self.string()?;
            if self.peek()? != b':' {
                return Err(self.syntax("expected `:`"));
            }
            self.pos += 1;
            let value = self.value(depth).map_err(|e| e.within(&key))?;
            members.push((key, value));
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Ok(Value::Object(members.into_iter().collect()));
                }
                _ => return Err(self.syntax("expected `,` or `}`")),
            }
        }
    }

    /// A string literal; `pos` is at its opening quote.
    fn string(&mut self) -> Result<String, Error> {
        self.pos += 1;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            let run = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| {
                Error::at(
                    ErrorKind::Syntax("invalid UTF-8 in a string"),
                    start + e.valid_up_to(),
                )
            })?;
            out.push_str(run);
            match self.bytes.get(self.pos) {
                None => return Err(Error::at(ErrorKind::UnexpectedEnd, self.pos)),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    self.escape(&mut out)?;
                }
                Some(_) => return Err(self.syntax("control character in a string")),
            }
        }
    }

    /// One escape; `pos` is just past its backslash.
    fn escape(&mut self, out: &mut String) -> Result<(), Error> {
        let Some(&b) = self.bytes.get(self.pos) else {
            return Err(Error::at(ErrorKind::UnexpectedEnd, self.pos));
        };
        self.pos += 1;
        let c = match b {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let unit = self.hex4()?;
                let code = match unit {
                    0xD800..=0xDBFF => {
                        if self.bytes.get(self.pos..self.pos + 2) != Some(b"\\u") {
                            return Err(self.syntax("unpaired surrogate"));
                        }
                        self.pos += 2;
                        let low = self.hex4()?;
                        if !(0xDC00..=0xDFFF).contains(&low) {
                            return Err(self.syntax("unpaired surrogate"));
                        }
                        0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00)
                    }
                    0xDC00..=0xDFFF => return Err(self.syntax("unpaired surrogate")),
                    _ => unit,
                };
                char::from_u32(code).ok_or_else(|| self.syntax("invalid unicode escape"))?
            }
            _ => {
                self.pos -= 1;
                return Err(self.syntax("invalid escape"));
            }
        };
        out.push(c);
        Ok(())
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let mut code = 0;
        for _ in 0..4 {
            let Some(&b) = self.bytes.get(self.pos) else {
                return Err(Error::at(ErrorKind::UnexpectedEnd, self.pos));
            };
            let digit = (b as char)
                .to_digit(16)
                .ok_or_else(|| self.syntax("invalid unicode escape"))?;
            code = code * 16 + digit;
            self.pos += 1;
        }
        Ok(code)
    }

    /// Consumes a run of ASCII digits; errors if there is none.
    fn digits(&mut self) -> Result<(), Error> {
        let start = self.pos;
        while let Some(b'0'..=b'9') = self.bytes.get(self.pos) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(match self.bytes.get(self.pos) {
                None => Error::at(ErrorKind::UnexpectedEnd, self.pos),
                Some(_) => self.syntax("expected a digit"),
            });
        }
        Ok(())
    }

    fn number(&mut self) -> Result<Number, Error> {
        let start = self.pos;
        if self.bytes[self.pos] == b'-' {
            self.pos += 1;
        }
        if self.bytes.get(self.pos) == Some(&b'0') {
            self.pos += 1;
        } else {
            self.digits()?;
        }
        let mut integer = true;
        if self.bytes.get(self.pos) == Some(&b'.') {
            self.pos += 1;
            self.digits()?;
            integer = false;
        }
        if let Some(b'e' | b'E') = self.bytes.get(self.pos) {
            self.pos += 1;
            if let Some(b'+' | b'-') = self.bytes.get(self.pos) {
                self.pos += 1;
            }
            self.digits()?;
            integer = false;
        }
        // The literal is ASCII digits and signs only: valid UTF-8.
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII literal");
        if integer {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Number::PosInt(n));
            }
            if let Ok(n) = text.parse::<i64>() {
                if n < 0 {
                    return Ok(Number::NegInt(n));
                }
            }
        }
        match text.parse::<f64>() {
            Ok(x) if x.is_finite() => Ok(Number::Float(x)),
            _ => Err(Error::at(ErrorKind::NumberOutOfRange, start)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kind(text: &str) -> ErrorKind {
        parse(text).unwrap_err().kind().clone()
    }

    #[test]
    fn values_parse() {
        let v = parse(r#" {"a": [1, -2, 0.5, true, null, "x\n\u00e9\ud83d\ude00"], "b": {}} "#)
            .unwrap();
        assert_eq!(v["a"][0], 1u64);
        assert_eq!(v["a"][1], Value::Number(Number::NegInt(-2)));
        assert_eq!(v["a"][2].as_f64(), Some(0.5));
        assert_eq!(v["a"][3].as_bool(), Some(true));
        assert!(v["a"][4].is_null());
        assert_eq!(v["a"][5], "x\n\u{e9}\u{1F600}");
        assert!(v["b"].as_object().unwrap().is_empty());
        assert!(v["missing"].is_null());
    }

    #[test]
    fn integers_beyond_u64_read_as_floats_and_overflow_is_an_error() {
        assert_eq!(
            parse("18446744073709551616").unwrap(),
            Value::Number(Number::Float(18446744073709551616.0))
        );
        let negative_zero = parse("-0").unwrap().as_f64().unwrap();
        assert_eq!(negative_zero.to_bits(), (-0.0f64).to_bits());
        assert_eq!(kind("1e999"), ErrorKind::NumberOutOfRange);
        assert_eq!(kind("-1e999"), ErrorKind::NumberOutOfRange);
        assert_eq!(kind(&"9".repeat(400)), ErrorKind::NumberOutOfRange);
        assert_eq!(parse("1e-999").unwrap().as_f64(), Some(0.0));
    }

    #[test]
    fn malformed_text_is_a_typed_error_at_its_offset() {
        for (text, offset) in [
            ("[1,]", 3),
            ("{\"a\" 1}", 5),
            ("01", 1),
            ("1.", 2),
            ("-", 1),
            ("tru", 3),
            ("nul!", 0),
            ("\"\\x\"", 2),
            ("\"\\ud800\"", 7),
            ("[1] x", 4),
            ("", 0),
            ("\"abc", 4),
        ] {
            let err = parse(text).unwrap_err();
            assert_eq!(err.offset(), Some(offset), "{text:?}: {err}");
        }
        assert_eq!(kind("[1] x"), ErrorKind::TrailingCharacters);
        assert_eq!(kind("[1,"), ErrorKind::UnexpectedEnd);
        assert!(parse_slice(b"\"\xff\"").is_err());
        assert!(parse("\"a\u{1}\"").is_err());
    }

    #[test]
    fn an_error_inside_a_member_names_its_key() {
        let err = parse(r#"{"workload": {}, "accuracy": 1e999}"#).unwrap_err();
        assert_eq!(err.kind(), &ErrorKind::NumberOutOfRange);
        assert_eq!(err.path(), "accuracy");
        assert_eq!(
            err.to_string(),
            "number out of range at `accuracy` at byte 29"
        );
        let err = parse(r#"{"a": [{"b": tru}]}"#).unwrap_err();
        assert_eq!((err.path(), err.offset()), ("a.b", Some(13)));
        assert_eq!(parse("[1e999]").unwrap_err().path(), "");
    }

    #[test]
    fn nesting_is_limited() {
        let ok = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(parse(&ok).is_ok());
        let deep = "[".repeat(MAX_DEPTH + 1) + &"]".repeat(MAX_DEPTH + 1);
        assert_eq!(kind(&deep), ErrorKind::DepthLimit);
        assert_eq!(kind(&"{\"a\":".repeat(100_000)), ErrorKind::DepthLimit);
    }

    #[test]
    fn a_repeated_key_reads_as_its_last_value() {
        let v = parse(r#"{"a":1,"a":2}"#).unwrap();
        assert_eq!(v["a"], 2u64);
    }
}
