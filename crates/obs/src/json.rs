//! The workspace's one JSON writer and a minimal reader for its output.
//!
//! The workspace is dependency-free, so every artifact (`METRICS_*`,
//! `ANALYSIS_*`, `VERIFY_*`, `trace.json`) is written by [`JsonWriter`]
//! and the schema round-trip tests read it back with [`Json::parse`]. The
//! reader accepts standard JSON (objects, arrays, strings with the common
//! escapes plus `\uXXXX`, numbers, booleans, null); it is not meant as a
//! general-purpose library.

use std::fmt::Write as _;

/// Streaming JSON writer: values are appended in document order, commas
/// and the fixed 2-space indentation are the writer's business. There are
/// no settings. Inside an object every value follows a [`Self::key`];
/// every `begin_*` is closed by the matching `end_*`, and
/// [`Self::finish`] closes the root object.
#[derive(Debug)]
pub struct JsonWriter {
    out: String,
    /// One entry per open container: whether it holds an element yet.
    open: Vec<bool>,
    after_key: bool,
}

impl JsonWriter {
    /// Start a document whose root is an object.
    pub fn object() -> Self {
        let mut w = Self {
            out: String::new(),
            open: Vec::new(),
            after_key: false,
        };
        w.begin_object();
        w
    }

    /// Start a versioned artifact: a root object whose first member is
    /// the schema identifier. The one place that member is written.
    pub fn artifact(schema: &str) -> Self {
        let mut w = Self::object();
        w.key("schema").str(schema);
        w
    }

    /// Close the root object and return the document.
    pub fn finish(mut self) -> String {
        assert_eq!(self.open.len(), 1, "unbalanced begin/end");
        self.end_object();
        self.out.push('\n');
        self.out
    }

    /// Separator and indentation owed before the next key or element.
    fn element(&mut self) {
        if self.after_key {
            self.after_key = false;
            return;
        }
        if let Some(has_elements) = self.open.last_mut() {
            if *has_elements {
                self.out.push(',');
            }
            *has_elements = true;
            self.newline();
        }
    }

    fn newline(&mut self) {
        self.out.push('\n');
        for _ in 0..self.open.len() {
            self.out.push_str("  ");
        }
    }

    fn begin(&mut self, bracket: char) -> &mut Self {
        self.element();
        self.out.push(bracket);
        self.open.push(false);
        self
    }

    fn end(&mut self, bracket: char) -> &mut Self {
        let had_elements = self.open.pop().expect("end without begin");
        if had_elements {
            self.newline();
        }
        self.out.push(bracket);
        self
    }

    /// Open an object value.
    pub fn begin_object(&mut self) -> &mut Self {
        self.begin('{')
    }

    /// Close the innermost object.
    pub fn end_object(&mut self) -> &mut Self {
        self.end('}')
    }

    /// Open an array value.
    pub fn begin_array(&mut self) -> &mut Self {
        self.begin('[')
    }

    /// Close the innermost array.
    pub fn end_array(&mut self) -> &mut Self {
        self.end(']')
    }

    /// Member name inside an object; the next call writes its value.
    pub fn key(&mut self, name: &str) -> &mut Self {
        self.element();
        self.quoted(name);
        self.out.push_str(": ");
        self.after_key = true;
        self
    }

    /// String value.
    pub fn str(&mut self, v: &str) -> &mut Self {
        self.element();
        self.quoted(v);
        self
    }

    /// Unsigned integer, every digit written (readers that go through
    /// `f64` round above 2⁵³; the text does not).
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.scalar(format_args!("{v}"))
    }

    /// Float in shortest round-trip form; NaN and ±∞ become `null`.
    pub fn f64(&mut self, v: f64) -> &mut Self {
        if v.is_finite() {
            self.scalar(format_args!("{v}"))
        } else {
            self.null()
        }
    }

    /// Float with `digits` decimals; NaN and ±∞ become `null`.
    pub fn f64_fixed(&mut self, v: f64, digits: usize) -> &mut Self {
        if v.is_finite() {
            self.scalar(format_args!("{v:.digits$}"))
        } else {
            self.null()
        }
    }

    /// `true` / `false`.
    pub fn bool(&mut self, v: bool) -> &mut Self {
        self.scalar(format_args!("{v}"))
    }

    /// `null`.
    pub fn null(&mut self) -> &mut Self {
        self.scalar(format_args!("null"))
    }

    fn scalar(&mut self, text: std::fmt::Arguments<'_>) -> &mut Self {
        self.element();
        let _ = self.out.write_fmt(text);
        self
    }

    /// The one string escape: quotes, backslash and control characters;
    /// everything else (non-ASCII included) is written as UTF-8.
    fn quoted(&mut self, s: &str) {
        self.out.push('"');
        for c in s.chars() {
            match c {
                '"' => self.out.push_str("\\\""),
                '\\' => self.out.push_str("\\\\"),
                '\n' => self.out.push_str("\\n"),
                '\r' => self.out.push_str("\\r"),
                '\t' => self.out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(self.out, "\\u{:04x}", c as u32);
                }
                c => self.out.push(c),
            }
        }
        self.out.push('"');
    }
}

/// A parsed JSON value. Object keys keep their document order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (stored as `f64`, like browsers do).
    Num(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object, in document order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parse a complete JSON document (trailing whitespace allowed,
    /// anything else after the value is an error).
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            b: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.b.len() {
            return Err(format!("trailing content at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Object member by key (`None` for missing keys or non-objects).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Number value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// String value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Array elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Object members, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// True for `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }
}

struct Parser<'a> {
    b: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.pos < self.b.len() && self.b[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.pos).copied()
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {}, found {:?}",
                c as char,
                self.pos,
                self.peek().map(|b| b as char)
            ))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|b| b as char),
                self.pos
            )),
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.b[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value()?;
            members.push((key, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
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
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
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
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            if self.pos + 5 > self.b.len() {
                                return Err("truncated \\u escape".to_string());
                            }
                            let hex = std::str::from_utf8(&self.b[self.pos + 1..self.pos + 5])
                                .map_err(|e| e.to_string())?;
                            let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                            // Basic-plane only; surrogate pairs are not
                            // produced by our own emitters.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        c => return Err(format!("bad escape {c:?}")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input came from &str, so
                    // boundaries are valid).
                    let start = self.pos;
                    self.pos += 1;
                    while self.pos < self.b.len() && (self.b[self.pos] & 0xC0) == 0x80 {
                        self.pos += 1;
                    }
                    let run = std::str::from_utf8(&self.b[start..self.pos])
                        .expect("run boundaries follow UTF-8 continuation bytes");
                    out.push_str(run);
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(c) = self.peek() {
            if c.is_ascii_digit() || c == b'.' || c == b'e' || c == b'E' || c == b'+' || c == b'-' {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text =
            std::str::from_utf8(&self.b[start..self.pos]).expect("number characters are ASCII");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|e| format!("bad number {text:?}: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_nesting() {
        let doc = Json::parse(
            r#"{"a": 1.5, "b": [true, false, null, -2e3], "c": {"d": "x\ny"}, "e": ""}"#,
        )
        .unwrap();
        assert_eq!(doc.get("a").unwrap().as_f64(), Some(1.5));
        let b = doc.get("b").unwrap().as_arr().unwrap();
        assert_eq!(b[0], Json::Bool(true));
        assert!(b[2].is_null());
        assert_eq!(b[3].as_f64(), Some(-2000.0));
        assert_eq!(
            doc.get("c").unwrap().get("d").unwrap().as_str(),
            Some("x\ny")
        );
        assert_eq!(doc.get("e").unwrap().as_str(), Some(""));
    }

    #[test]
    fn unicode_escapes_and_raw_utf8() {
        let doc = Json::parse(r#"{"k": "β β"}"#).unwrap();
        assert_eq!(doc.get("k").unwrap().as_str(), Some("β β"));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "{",
            "[1, 2",
            "{\"a\" 1}",
            "{\"a\": 1} extra",
            "\"unterminated",
            "nul",
            "01a",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn writer_escapes_every_string_through_one_function() {
        let nasty = "q\"uote back\\slash nl\n cr\r tab\t bell\u{7} nul\u{0} β→∞ 🎲";
        let mut w = JsonWriter::artifact(nasty);
        w.key(nasty).str(nasty);
        let text = w.finish();
        assert!(!text.contains('\u{7}') && !text.contains('\u{0}'));
        assert!(text.contains("\\u0007") && text.contains("β→∞ 🎲"));
        let doc = Json::parse(&text).unwrap();
        assert_eq!(doc.get("schema").unwrap().as_str(), Some(nasty));
        assert_eq!(doc.get(nasty).unwrap().as_str(), Some(nasty));
    }

    #[test]
    fn writer_numbers_are_exact_or_null() {
        let mut w = JsonWriter::object();
        w.key("max").u64(u64::MAX);
        w.key("third").f64(1.0 / 3.0);
        w.key("fixed").f64_fixed(2.0 / 3.0, 3);
        w.key("bad").begin_array();
        w.f64(f64::NAN)
            .f64(f64::INFINITY)
            .f64_fixed(f64::NEG_INFINITY, 2);
        w.end_array();
        let text = w.finish();
        // Every digit is in the text; a reader that goes through f64
        // (ours does) rounds, the artifact does not.
        assert!(text.contains("\"max\": 18446744073709551615,"));
        assert!(text.contains("\"fixed\": 0.667,"));
        let doc = Json::parse(&text).unwrap();
        assert_eq!(doc.get("max").unwrap().as_f64(), Some(u64::MAX as f64));
        assert_eq!(doc.get("third").unwrap().as_f64(), Some(1.0 / 3.0));
        let bad = doc.get("bad").unwrap().as_arr().unwrap();
        assert_eq!(bad.len(), 3);
        assert!(bad.iter().all(Json::is_null));
    }

    #[test]
    fn writer_nests_and_indents_by_two() {
        let mut w = JsonWriter::object();
        w.key("empty_obj").begin_object().end_object();
        w.key("empty_arr").begin_array().end_array();
        w.key("rows").begin_array();
        w.begin_object().key("ok").bool(true).end_object();
        w.begin_array().u64(1).null().str("x").end_array();
        w.end_array();
        let text = w.finish();
        assert_eq!(
            text,
            "{\n  \"empty_obj\": {},\n  \"empty_arr\": [],\n  \"rows\": [\n    {\n      \"ok\": true\n    },\n    [\n      1,\n      null,\n      \"x\"\n    ]\n  ]\n}\n"
        );
        let doc = Json::parse(&text).unwrap();
        assert_eq!(doc.get("empty_obj"), Some(&Json::Obj(vec![])));
        assert_eq!(doc.get("empty_arr"), Some(&Json::Arr(vec![])));
        let rows = doc.get("rows").unwrap().as_arr().unwrap();
        assert_eq!(rows[0].get("ok"), Some(&Json::Bool(true)));
        assert_eq!(
            rows[1],
            Json::Arr(vec![Json::Num(1.0), Json::Null, Json::Str("x".into())])
        );
        assert_eq!(JsonWriter::object().finish(), "{}\n");
    }

    #[test]
    fn empty_containers() {
        assert_eq!(Json::parse("{}").unwrap(), Json::Obj(vec![]));
        assert_eq!(Json::parse("[]").unwrap(), Json::Arr(vec![]));
        assert_eq!(Json::parse(" [ ] ").unwrap(), Json::Arr(vec![]));
    }
}
