//! A minimal JSON value with a writer and a parser (the build has no
//! registry access, so no serde). Objects keep insertion order, which
//! keeps result files diffable.

use std::fmt::Write as _;

#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Field of an object; `None` for other variants or a missing key.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// Compact single-line encoding.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Two-space-indented encoding for committed result files.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        let newline = |out: &mut String, depth: usize| {
            if let Some(w) = indent {
                out.push('\n');
                out.extend(std::iter::repeat_n(' ', w * depth));
            }
        };
        let sep = if indent.is_some() { "," } else { ", " };
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            // JSON has no NaN/Infinity; a non-finite measurement is null.
            Json::Num(n) if !n.is_finite() => out.push_str("null"),
            // `{}` prints the shortest digits that round-trip the f64;
            // `+ 0.0` turns -0.0 (what an empty f64 sum is) into 0.
            Json::Num(n) => write!(out, "{}", n + 0.0).expect("writing to a String cannot fail"),
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(sep);
                    }
                    newline(out, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                if !items.is_empty() {
                    newline(out, depth);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(sep);
                    }
                    newline(out, depth + 1);
                    write_string(out, k);
                    out.push_str(": ");
                    v.write(out, indent, depth + 1);
                }
                if !fields.is_empty() {
                    newline(out, depth);
                }
                out.push('}');
            }
        }
    }

    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
        let v = p.nested(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after the value"));
        }
        Ok(v)
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).expect("writing to a String cannot fail")
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Nesting bound: result files are three or four levels deep; anything
/// deeper is not ours and must not overflow the stack.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, what: &str) -> String {
        format!("JSON error at byte {}: {what}", self.pos)
    }

    fn skip_ws(&mut self) {
        while self.bytes.get(self.pos).is_some_and(|b| b.is_ascii_whitespace()) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> bool {
        let hit = self.bytes[self.pos..].starts_with(lit.as_bytes());
        if hit {
            self.pos += lit.len();
        }
        hit
    }

    fn nested(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.skip_ws();
        match self.bytes.get(self.pos) {
            None => Err(self.err("unexpected end of input")),
            Some(b'{') => {
                self.pos += 1;
                let mut fields = Vec::new();
                self.skip_ws();
                if self.eat("}") {
                    return Ok(Json::Obj(fields));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    if !self.eat(":") {
                        return Err(self.err("expected ':' after an object key"));
                    }
                    fields.push((key, self.nested(depth + 1)?));
                    self.skip_ws();
                    if self.eat("}") {
                        return Ok(Json::Obj(fields));
                    }
                    if !self.eat(",") {
                        return Err(self.err("expected ',' or '}' in an object"));
                    }
                }
            }
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.eat("]") {
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.nested(depth + 1)?);
                    self.skip_ws();
                    if self.eat("]") {
                        return Ok(Json::Arr(items));
                    }
                    if !self.eat(",") {
                        return Err(self.err("expected ',' or ']' in an array"));
                    }
                }
            }
            Some(b'"') => self.string().map(Json::Str),
            Some(_) if self.eat("true") => Ok(Json::Bool(true)),
            Some(_) if self.eat("false") => Ok(Json::Bool(false)),
            Some(_) if self.eat("null") => Ok(Json::Null),
            Some(_) => {
                let start = self.pos;
                while self
                    .bytes
                    .get(self.pos)
                    .is_some_and(|b| b.is_ascii_digit() || b"+-.eE".contains(b))
                {
                    self.pos += 1;
                }
                // The scanned range is ASCII by construction.
                let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap_or("");
                text.parse().map(Json::Num).map_err(|_| self.err("expected a JSON value"))
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if !self.eat("\"") {
            return Err(self.err("expected a string"));
        }
        let mut out = Vec::new();
        loop {
            let Some(&b) = self.bytes.get(self.pos) else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => break,
                b'\\' => {
                    let Some(&e) = self.bytes.get(self.pos) else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.pos += 1;
                    let c = match e {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs never appear in our files;
                            // a lone surrogate decodes to U+FFFD.
                            char::from_u32(hex).unwrap_or('\u{fffd}')
                        }
                        _ => return Err(self.err("unknown escape")),
                    };
                    out.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes());
                }
                b => out.push(b),
            }
        }
        String::from_utf8(out).map_err(|_| self.err("string is not valid UTF-8"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_round_trips_through_the_parser() {
        let v = Json::obj([
            ("name", Json::str("lc_4w_tcp")),
            ("ok", Json::Bool(true)),
            ("none", Json::Null),
            ("values", Json::Arr(vec![Json::Num(1.5), Json::Num(-2e-7), Json::Num(960.0)])),
            (
                "nested",
                Json::obj([("empty_arr", Json::Arr(vec![])), ("empty", Json::obj::<&str>([]))]),
            ),
        ]);
        assert_eq!(Json::parse(&v.encode()).unwrap(), v);
        assert_eq!(Json::parse(&v.pretty()).unwrap(), v);
    }

    #[test]
    fn strings_escape_quotes_controls_and_keep_unicode() {
        let s = "quote\" back\\slash \n\ttab \u{1} µs — done";
        let enc = Json::str(s).encode();
        assert!(enc.contains("\\\"") && enc.contains("\\\\") && enc.contains("\\u0001"));
        assert!(!enc.contains('\n'));
        assert_eq!(Json::parse(&enc).unwrap(), Json::str(s));
    }

    #[test]
    fn numbers_keep_all_their_digits_and_whole_numbers_stay_whole() {
        let x = 1.234_567_890_123_456_7_f64;
        assert_eq!(Json::parse(&Json::Num(x).encode()).unwrap(), Json::Num(x));
        assert_eq!(Json::Num(960.0).encode(), "960");
        assert_eq!(Json::Num(-0.0).encode(), "0");
        assert_eq!(Json::Num(f64::NAN).encode(), "null");
    }

    #[test]
    fn malformed_input_is_an_error_not_a_panic() {
        for bad in ["", "{", "[1,", "{\"a\" 1}", "\"open", "tru", "1 2", "{\"a\":1,}", "\"\\u12\""]
        {
            assert!(Json::parse(bad).is_err(), "{bad:?} should not parse");
        }
        let deep = "[".repeat(10_000);
        assert!(Json::parse(&deep).is_err());
    }

    #[test]
    fn accessors_select_by_variant() {
        let v = Json::parse(r#"{"a": {"b": [1, "x", false]}}"#).unwrap();
        let arr = v.get("a").and_then(|a| a.get("b")).and_then(Json::as_arr).unwrap();
        assert_eq!(arr[0].as_f64(), Some(1.0));
        assert_eq!(arr[1].as_str(), Some("x"));
        assert_eq!(arr[2].as_bool(), Some(false));
        assert_eq!(v.get("missing"), None);
        assert_eq!(arr[0].as_str(), None);
    }
}
