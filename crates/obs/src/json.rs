//! A minimal JSON writer and parser.
//!
//! The sinks need escaping ([`write_str`]); the trace-format tests and the
//! CI smoke tooling need to read emitted traces back, and the offline
//! `serde_json` shim is serialise-only — so a small recursive-descent
//! parser lives here too. It handles the full JSON grammar the sinks emit
//! (objects, arrays, strings with `\uXXXX` escapes, numbers, booleans,
//! null); it is not meant as a general-purpose JSON library.

use std::collections::BTreeMap;

/// Appends `s` to `out` as a quoted, escaped JSON string.
pub fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object. `BTreeMap` keeps iteration deterministic for tests.
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// Object field lookup (None on non-objects / missing keys).
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

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }
}

/// Parses one JSON document. Trailing whitespace is allowed; trailing
/// garbage is an error.
///
/// # Errors
/// Returns a human-readable description of the first syntax error, with
/// its byte offset.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser { text, bytes: text.as_bytes(), pos: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            other => Err(format!("unexpected {other:?} at byte {}", self.pos)),
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if matches!(b, b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii number");
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|e| format!("bad number `{text}` at byte {start}: {e}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
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
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|_| "bad \\u escape")?;
                            // Sinks never emit surrogate pairs; map lone
                            // surrogates to the replacement character.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        other => return Err(format!("bad escape {other:?}")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the run of plain characters up to the next `"` or
                    // `\` as one slice. Both are ASCII, so they never occur
                    // inside a multi-byte scalar and the run ends on a char
                    // boundary.
                    let run = self.bytes[self.pos..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .map_or(self.bytes.len(), |n| self.pos + n);
                    out.push_str(&self.text[self.pos..run]);
                    self.pos = run;
                }
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
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
                other => return Err(format!("expected `,` or `]`, got {other:?}")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(map));
                }
                other => return Err(format!("expected `,` or `}}`, got {other:?}")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_escaped_strings() {
        let mut s = String::new();
        write_str(&mut s, "a\"b\\c\nd\u{1}");
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn roundtrips_through_the_parser() {
        let mut s = String::new();
        write_str(&mut s, "quote \" slash \\ newline \n tab \t done");
        let v = parse(&s).unwrap();
        assert_eq!(v.as_str().unwrap(), "quote \" slash \\ newline \n tab \t done");
    }

    #[test]
    fn parses_sink_shaped_objects() {
        let v =
            parse(r#"{"ev":"span_end","name":"batch","ts_us":12,"dur_us":3,"ok":true}"#).unwrap();
        assert_eq!(v.get("ev").unwrap().as_str(), Some("span_end"));
        assert_eq!(v.get("ts_us").unwrap().as_f64(), Some(12.0));
        assert_eq!(v.get("ok"), Some(&Value::Bool(true)));
    }

    #[test]
    fn parses_nested_arrays_and_numbers() {
        let v = parse(r#"[1, -2.5, 3e2, [], {"a": null}]"#).unwrap();
        let arr = v.as_arr().unwrap();
        assert_eq!(arr[0].as_f64(), Some(1.0));
        assert_eq!(arr[1].as_f64(), Some(-2.5));
        assert_eq!(arr[2].as_f64(), Some(300.0));
        assert_eq!(arr[4].get("a"), Some(&Value::Null));
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse(r#"{"a":1}x"#).is_err());
        assert!(parse("").is_err());
    }

    #[test]
    fn parses_unicode_escapes() {
        assert_eq!(parse(r#""Aé""#).unwrap().as_str(), Some("Aé"));
        assert_eq!(
            parse(r#""naïve \"ß\"\n→ 日本""#).unwrap().as_str(),
            Some("naïve \"ß\"\n→ 日本")
        );
    }

    #[test]
    fn parses_a_mebibyte_trace_in_linear_time() {
        // A Chrome-trace-shaped array: a per-character re-validation of the
        // rest of the input once made parse time quadratic in its size.
        let mut doc = String::from("[");
        let mut n = 0;
        while doc.len() < 1 << 20 {
            if n > 0 {
                doc.push(',');
            }
            doc.push_str(&format!(
                r#"{{"name":"epoch/batch/forward","cat":"span","ph":"X","ts":{n},"dur":7,"pid":1,"tid":2,"args":{{"path":"fit/epoch/batch"}}}}"#
            ));
            n += 1;
        }
        doc.push(']');
        let start = std::time::Instant::now();
        let v = parse(&doc).unwrap();
        let secs = start.elapsed().as_secs_f64();
        assert_eq!(v.as_arr().unwrap().len(), n);
        assert!(secs < 2.0, "parsing {} bytes took {secs:.2} s", doc.len());
    }
}
