//! A small JSON value type that parses and emits.
//!
//! Lookups go through the parsed tree by path, so a key is only ever
//! matched at the level it is asked for: a per-workload `"wall_s"` nested
//! in an array can never be mistaken for a top-level `"wall_s"`, which is
//! how a first-match text scan misreads such documents. Objects keep
//! their key order (output is deterministic) and reject duplicate keys
//! (a document with two values for one key has no single reading).

use std::fmt::Write as _;

/// One JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    /// Members in document order; keys are unique.
    Obj(Vec<(String, Value)>),
}

/// Where and why parsing failed.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    pub offset: usize,
    pub what: &'static str,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.what)
    }
}

/// Nesting deeper than this is refused rather than risking the stack.
const MAX_DEPTH: usize = 64;

impl Value {
    /// Parses a complete document (trailing non-space is an error).
    pub fn parse(src: &str) -> Result<Value, ParseError> {
        let mut p = Parser {
            src: src.as_bytes(),
            at: 0,
        };
        let v = p.value(0)?;
        p.skip_ws();
        if p.at != p.src.len() {
            return Err(p.err("trailing characters after the document"));
        }
        Ok(v)
    }

    /// The member `key` of an object (`None` for other values).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Compact one-line rendering. Numbers print with every digit needed
    /// to read back the same `f64`; non-finite numbers (which JSON cannot
    /// hold) print as `null`.
    pub fn emit(&self) -> String {
        let mut out = String::new();
        self.emit_into(&mut out);
        out
    }

    fn emit_into(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(n) if n.is_finite() => {
                let _ = write!(out, "{n}");
            }
            Value::Num(_) => out.push_str("null"),
            Value::Str(s) => emit_str(s, out),
            Value::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.emit_into(out);
                }
                out.push(']');
            }
            Value::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    emit_str(k, out);
                    out.push(':');
                    v.emit_into(out);
                }
                out.push('}');
            }
        }
    }
}

impl From<f64> for Value {
    fn from(n: f64) -> Self {
        Value::Num(n)
    }
}

impl From<u64> for Value {
    fn from(n: u64) -> Self {
        Value::Num(n as f64)
    }
}

impl From<usize> for Value {
    fn from(n: usize) -> Self {
        Value::Num(n as f64)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}

/// Builds an object from `(key, value)` pairs, keeping their order.
pub fn obj<K: Into<String>>(members: impl IntoIterator<Item = (K, Value)>) -> Value {
    Value::Obj(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

fn emit_str(s: &str, out: &mut String) {
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

struct Parser<'a> {
    src: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn err(&self, what: &'static str) -> ParseError {
        ParseError {
            offset: self.at,
            what,
        }
    }

    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.src.get(self.at) {
            self.at += 1;
        }
    }

    fn eat(&mut self, lit: &str, v: Value) -> Result<Value, ParseError> {
        if self.src[self.at..].starts_with(lit.as_bytes()) {
            self.at += lit.len();
            Ok(v)
        } else {
            Err(self.err("unknown literal"))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, ParseError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.skip_ws();
        match self.src.get(self.at) {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') => self.eat("null", Value::Null),
            Some(b't') => self.eat("true", Value::Bool(true)),
            Some(b'f') => self.eat("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'[') => {
                self.at += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.src.get(self.at) == Some(&b']') {
                    self.at += 1;
                    return Ok(Value::Arr(items));
                }
                loop {
                    items.push(self.value(depth + 1)?);
                    self.skip_ws();
                    match self.src.get(self.at) {
                        Some(b',') => self.at += 1,
                        Some(b']') => {
                            self.at += 1;
                            return Ok(Value::Arr(items));
                        }
                        _ => return Err(self.err("expected ',' or ']'")),
                    }
                }
            }
            Some(b'{') => {
                self.at += 1;
                let mut members: Vec<(String, Value)> = Vec::new();
                self.skip_ws();
                if self.src.get(self.at) == Some(&b'}') {
                    self.at += 1;
                    return Ok(Value::Obj(members));
                }
                loop {
                    self.skip_ws();
                    if self.src.get(self.at) != Some(&b'"') {
                        return Err(self.err("expected a string key"));
                    }
                    let key_at = self.at;
                    let key = self.string()?;
                    if members.iter().any(|(k, _)| *k == key) {
                        return Err(ParseError {
                            offset: key_at,
                            what: "duplicate key",
                        });
                    }
                    self.skip_ws();
                    if self.src.get(self.at) != Some(&b':') {
                        return Err(self.err("expected ':'"));
                    }
                    self.at += 1;
                    let v = self.value(depth + 1)?;
                    members.push((key, v));
                    self.skip_ws();
                    match self.src.get(self.at) {
                        Some(b',') => self.at += 1,
                        Some(b'}') => {
                            self.at += 1;
                            return Ok(Value::Obj(members));
                        }
                        _ => return Err(self.err("expected ',' or '}'")),
                    }
                }
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
        }
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.at;
        while let Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9') = self.src.get(self.at) {
            self.at += 1;
        }
        std::str::from_utf8(&self.src[start..self.at])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .filter(|n| n.is_finite())
            .map(Value::Num)
            .ok_or(ParseError {
                offset: start,
                what: "malformed number",
            })
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.at += 1; // opening quote
        let mut out = String::new();
        loop {
            let rest = &self.src[self.at..];
            let stop = rest
                .iter()
                .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                .ok_or_else(|| self.err("unterminated string"))?;
            out.push_str(
                std::str::from_utf8(&rest[..stop]).map_err(|_| self.err("invalid UTF-8"))?,
            );
            self.at += stop;
            match self.src[self.at] {
                b'"' => {
                    self.at += 1;
                    return Ok(out);
                }
                b'\\' => {
                    let esc = *self
                        .src
                        .get(self.at + 1)
                        .ok_or_else(|| self.err("unterminated escape"))?;
                    self.at += 2;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .src
                                .get(self.at..self.at + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            self.at += 4;
                            // Surrogate pairs are not needed by any document
                            // this program reads; refuse them explicitly.
                            out.push(
                                char::from_u32(hex).ok_or_else(|| self.err("bad \\u escape"))?,
                            );
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                _ => return Err(self.err("control character in string")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_per_workload_keys_do_not_shadow_the_aggregate() {
        // The shape a first-match scan misreads: per-workload entries
        // carrying the same key come before the aggregate.
        let doc = r#"{
            "workloads": [
                {"name": "fig-sweep", "wall_s": 0.25, "lane_records_per_s": 1.5e8},
                {"name": "coherent-private", "wall_s": 0.5, "lane_records_per_s": 4e7}
            ],
            "phases": {"fig1": {"lane_records_per_s": 47455953}},
            "wall_s": 0.75,
            "lane_records_per_s": 24993219
        }"#;
        let v = Value::parse(doc).unwrap();
        assert_eq!(
            v.get("lane_records_per_s").unwrap().as_f64(),
            Some(24993219.0)
        );
        assert_eq!(v.get("wall_s").unwrap().as_f64(), Some(0.75));
        let fig1 = v.get("phases").and_then(|p| p.get("fig1")).unwrap();
        assert_eq!(
            fig1.get("lane_records_per_s").unwrap().as_f64(),
            Some(47455953.0)
        );
        let first = &v.get("workloads").unwrap().as_array().unwrap()[0];
        assert_eq!(first.get("wall_s").unwrap().as_f64(), Some(0.25));
    }

    #[test]
    fn duplicate_keys_are_refused() {
        let err = Value::parse(r#"{"wall_s": 1, "wall_s": 2}"#).unwrap_err();
        assert_eq!(err.what, "duplicate key");
        // The same key at different levels is fine.
        assert!(Value::parse(r#"{"a": {"wall_s": 1}, "wall_s": 2}"#).is_ok());
    }

    #[test]
    fn emit_parse_round_trips_exactly() {
        let v = obj([
            ("name", Value::from("fig-sweep \"quoted\" \\ tab\t")),
            ("wall_s", Value::from(0.1 + 0.2)),
            ("tiny", Value::from(5e-324)),
            ("count", Value::from(12096u64)),
            ("ok", Value::from(true)),
            ("none", Value::Null),
            (
                "list",
                Value::Arr(vec![Value::from(1.0), obj([("x", Value::from(-2.5e10))])]),
            ),
        ]);
        let text = v.emit();
        assert!(!text.contains('\n'), "one line: {text}");
        assert_eq!(Value::parse(&text).unwrap(), v);
    }

    #[test]
    fn malformed_input_is_an_error_not_a_panic() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\" 1}",
            "{\"a\":}",
            "nul",
            "\"abc",
            "1 2",
            "[1,]",
            "{\"a\":1,}",
            "\"\\x\"",
            "\"\\u12\"",
            "-",
            "1e999",
            "{1:2}",
        ] {
            assert!(Value::parse(bad).is_err(), "accepted {bad:?}");
        }
        let deep = "[".repeat(MAX_DEPTH + 2) + &"]".repeat(MAX_DEPTH + 2);
        assert!(Value::parse(&deep).is_err());
    }

    #[test]
    fn non_finite_numbers_emit_as_null() {
        assert_eq!(Value::from(f64::NAN).emit(), "null");
        assert_eq!(Value::from(f64::INFINITY).emit(), "null");
    }
}
