//! The printers: compact writing helpers and the pretty re-indenter.

use std::fmt::Write;

use crate::ToJson;

/// Appends `s` as a JSON string literal: quotes, backslashes and control
/// characters escaped, everything else as is.
pub fn write_str(out: &mut String, s: &str) {
    out.push('"');
    let mut start = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0x08 => "\\b",
            0x0c => "\\f",
            0..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[start..i]);
        if escape.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(escape);
        }
        start = i + 1;
    }
    out.push_str(&s[start..]);
    out.push('"');
}

/// Appends `x`: a finite value at its shortest round-trip text (`{:?}`,
/// which always carries a `.` or an exponent, so it reads back as a
/// float), a non-finite one as the string `"inf"`, `"-inf"` or `"NaN"`.
pub(crate) fn write_f64(out: &mut String, x: f64) {
    if x.is_finite() {
        let _ = write!(out, "{x:?}");
    } else if x.is_nan() {
        out.push_str("\"NaN\"");
    } else if x > 0.0 {
        out.push_str("\"inf\"");
    } else {
        out.push_str("\"-inf\"");
    }
}

/// Writes an object member by member, in the order they are given.
#[derive(Debug)]
pub struct ObjectWriter<'a> {
    out: &'a mut String,
    first: bool,
}

impl<'a> ObjectWriter<'a> {
    /// Opens an object on `out`.
    pub fn new(out: &'a mut String) -> Self {
        out.push('{');
        ObjectWriter { out, first: true }
    }

    /// Appends member `name`.
    pub fn field<T: ToJson + ?Sized>(&mut self, name: &str, value: &T) {
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
        write_str(self.out, name);
        self.out.push(':');
        value.write_json(self.out);
    }

    /// Closes the object.
    pub fn end(self) {
        self.out.push('}');
    }
}

/// Re-indents compact JSON text: two spaces per level, one member or
/// element per line, `": "` after a key, and `[]`/`{}` for empty
/// containers.
#[must_use]
pub(crate) fn pretty(compact: &str) -> String {
    let mut out = String::with_capacity(compact.len() * 2);
    let mut depth = 0usize;
    let mut in_string = false;
    let mut escaped = false;
    let mut chars = compact.chars().peekable();
    let newline = |out: &mut String, depth: usize| {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', 2 * depth));
    };
    while let Some(c) = chars.next() {
        if in_string {
            out.push(c);
            match c {
                _ if escaped => escaped = false,
                '\\' => escaped = true,
                '"' => in_string = false,
                _ => {}
            }
            continue;
        }
        match c {
            '"' => {
                in_string = true;
                out.push(c);
            }
            '{' | '[' => {
                out.push(c);
                if matches!(chars.peek(), Some('}' | ']')) {
                    out.push(chars.next().unwrap_or_default());
                } else {
                    depth += 1;
                    newline(&mut out, depth);
                }
            }
            '}' | ']' => {
                depth = depth.saturating_sub(1);
                newline(&mut out, depth);
                out.push(c);
            }
            ',' => {
                out.push(c);
                newline(&mut out, depth);
            }
            ':' => out.push_str(": "),
            c if c.is_whitespace() => {}
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_escape_what_json_requires() {
        let mut out = String::new();
        write_str(&mut out, "a\"b\\c\nd\u{1}é\u{7f}");
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\u0001é\u{7f}\"");
    }

    #[test]
    fn floats_print_shortest_and_non_finite_as_strings() {
        let print = |x: f64| {
            let mut out = String::new();
            write_f64(&mut out, x);
            out
        };
        assert_eq!(print(0.1), "0.1");
        assert_eq!(print(1.0), "1.0");
        assert_eq!(print(1e-7), "1e-7");
        assert_eq!(print(-0.0), "-0.0");
        assert_eq!(print(f64::INFINITY), "\"inf\"");
        assert_eq!(print(f64::NEG_INFINITY), "\"-inf\"");
        assert_eq!(print(f64::NAN), "\"NaN\"");
    }

    #[test]
    fn pretty_indents_two_spaces() {
        let text = pretty(r#"{"a":[1,{"b":"x,{y}:\"z"}],"c":{},"d":[]}"#);
        assert_eq!(
            text,
            "{\n  \"a\": [\n    1,\n    {\n      \"b\": \"x,{y}:\\\"z\"\n    }\n  ],\n  \"c\": {},\n  \"d\": []\n}"
        );
    }
}
