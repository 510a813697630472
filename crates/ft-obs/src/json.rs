//! The workspace's one JSON codec (no serde in this offline workspace):
//! the [`Json`] value, a depth-bounded reader ([`parse`]) and a writer
//! ([`Json::write`]). `BENCH_*.json` files, JSONL records and the
//! `fno-serve` wire headers all go through it.
//!
//! **Reader grammar** (RFC 8259): whitespace is space, tab, LF and CR;
//! strings take the escapes `\" \\ \/ \b \f \n \r \t \uXXXX` (a surrogate
//! pair combines, a lone surrogate reads as U+FFFD) and reject raw control
//! bytes below 0x20; numbers have the RFC shape (no leading zero, `+`,
//! bare `.` or `inf`). A literal made only of digits that fits in a `u64`
//! reads as [`Json::Int`], every other number as a finite [`Json::Num`].
//! Arrays and objects nest at most [`MAX_DEPTH`] deep, so hostile input
//! cannot recurse the reader off a thread's stack.
//!
//! **Writer**: compact (no spaces); floats use Rust's shortest round-trip
//! `Display` and a non-finite [`Json::Num`] is written as `null`;
//! [`write_str`] escapes `"`, `\`, `\n`, `\r`, `\t` by name and other
//! control characters as `\u00XX`.

/// Deepest nesting of arrays and objects [`parse`] accepts.
pub const MAX_DEPTH: usize = 32;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A literal made only of digits that fits in a `u64`.
    Int(u64),
    /// Any other number; written as `null` when non-finite.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, fields in document order (duplicates kept).
    Obj(Vec<(String, Json)>),
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl Json {
    /// The value of the first field named `key`, if this is an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        let Json::Obj(fields) = self else { return None };
        fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// The numeric value of an `Int` or `Num`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(v) => Some(*v as f64),
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The value of an `Int`.
    pub fn as_int(&self) -> Option<u64> {
        let Json::Int(v) = self else { return None };
        Some(*v)
    }

    /// The content of a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        let Json::Str(s) = self else { return None };
        Some(s)
    }

    /// The elements of an array made only of `Int`s (tensor dims).
    pub fn as_dims(&self) -> Option<Vec<usize>> {
        let Json::Arr(items) = self else { return None };
        items.iter().map(|v| Some(v.as_int()? as usize)).collect()
    }

    /// Appends this value as compact JSON.
    pub fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(v) => out.push_str(&v.to_string()),
            Json::Num(v) if v.is_finite() => out.push_str(&v.to_string()),
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => write_str(s, out),
            Json::Arr(items) => write_list(out, ['[', ']'], items, Json::write),
            Json::Obj(fields) => write_obj(fields, out),
        }
    }
}

/// Appends `fields` as one compact JSON object, in order.
pub fn write_obj<K: AsRef<str>>(fields: &[(K, Json)], out: &mut String) {
    write_list(out, ['{', '}'], fields, |(k, v), out| {
        write_str(k.as_ref(), out);
        out.push(':');
        v.write(out);
    });
}

/// Appends `items` comma-separated between the `ends` brackets.
fn write_list<T>(out: &mut String, ends: [char; 2], items: &[T], each: impl Fn(&T, &mut String)) {
    out.push(ends[0]);
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        each(item, out);
    }
    out.push(ends[1]);
}

/// Appends `s` as an escaped JSON string literal.
pub fn write_str(s: &str, out: &mut String) {
    out.push('"');
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
    out.push('"');
}

/// Reads one JSON text (surrounding whitespace allowed, nothing else).
/// Errors name the byte offset where reading stopped.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut r = Reader { text, pos: 0 };
    let v = r.value(0)?;
    r.ws();
    if r.pos != text.len() {
        return Err(r.err("trailing data"));
    }
    Ok(v)
}

struct Reader<'a> {
    text: &'a str,
    pos: usize,
}

impl Reader<'_> {
    fn err(&self, msg: &str) -> String {
        format!("JSON parse error at byte {}: {msg}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    /// Consumes `c` if it is next.
    fn eat(&mut self, c: u8) -> bool {
        let hit = self.peek() == Some(c);
        self.pos += hit as usize;
        hit
    }

    /// Consumes bytes while `pred` holds; returns how many.
    fn skip(&mut self, pred: impl Fn(u8) -> bool) -> usize {
        let start = self.pos;
        while self.peek().is_some_and(&pred) {
            self.pos += 1;
        }
        self.pos - start
    }

    fn ws(&mut self) {
        self.skip(|c| matches!(c, b' ' | b'\t' | b'\n' | b'\r'));
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.eat(c) {
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", c as char)))
        }
    }

    /// Reads a value nested inside `depth` arrays/objects.
    fn value(&mut self, depth: usize) -> Result<Json, String> {
        self.ws();
        match self.peek() {
            Some(b'[' | b'{') if depth == MAX_DEPTH => {
                Err(self.err(&format!("nesting deeper than {MAX_DEPTH}")))
            }
            Some(b'[') => self.list(b']', |r| r.value(depth + 1)).map(Json::Arr),
            Some(b'{') => self
                .list(b'}', |r| {
                    r.ws();
                    let key = r.string()?;
                    r.ws();
                    r.expect(b':')?;
                    Ok((key, r.value(depth + 1)?))
                })
                .map(Json::Obj),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Reads the comma-separated items of the array or object whose opening
    /// bracket is next, through its `close` bracket.
    fn list<T>(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.pos += 1;
        self.ws();
        let mut items = Vec::new();
        if self.eat(close) {
            return Ok(items);
        }
        loop {
            items.push(item(self)?);
            self.ws();
            if self.eat(close) {
                return Ok(items);
            }
            self.expect(b',')?;
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if !self.text[self.pos..].starts_with(word) {
            return Err(self.err(&format!("expected '{word}'")));
        }
        self.pos += word.len();
        Ok(v)
    }

    fn digits(&mut self) -> Result<(), String> {
        match self.skip(|c| c.is_ascii_digit()) {
            0 => Err(self.err("expected digit")),
            _ => Ok(()),
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        let mut integral = !self.eat(b'-');
        if !self.eat(b'0') {
            self.digits()?;
        }
        if self.eat(b'.') {
            self.digits()?;
            integral = false;
        }
        if self.eat(b'e') || self.eat(b'E') {
            let _ = self.eat(b'+') || self.eat(b'-');
            self.digits()?;
            integral = false;
        }
        let lit = &self.text[start..self.pos];
        if let Some(v) = integral.then(|| lit.parse().ok()).flatten() {
            return Ok(Json::Int(v));
        }
        match lit.parse::<f64>() {
            Ok(v) if v.is_finite() => Ok(Json::Num(v)),
            _ => Err(self.err("number out of range")),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // The run ends on an ASCII byte, so the slice is whole UTF-8.
            let run = self.pos;
            self.skip(|c| c != b'"' && c != b'\\' && c >= 0x20);
            out.push_str(&self.text[run..self.pos]);
            if self.eat(b'"') {
                return Ok(out);
            } else if self.eat(b'\\') {
                out.push(self.escape()?);
            } else if self.peek().is_some() {
                return Err(self.err("raw control character in string"));
            } else {
                return Err(self.err("unterminated string"));
            }
        }
    }

    fn escape(&mut self) -> Result<char, String> {
        let c = self.peek();
        self.pos += 1;
        Ok(match c {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                let hi = self.hex4()?;
                // A high surrogate followed by `\u` + a low one is one scalar.
                if (0xd800..0xdc00).contains(&hi) && self.text[self.pos..].starts_with("\\u") {
                    let mut ahead = Reader { text: self.text, pos: self.pos + 2 };
                    if let Ok(lo @ 0xdc00..=0xdfff) = ahead.hex4() {
                        self.pos = ahead.pos;
                        let c = 0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00);
                        return Ok(char::from_u32(c).unwrap_or('\u{fffd}'));
                    }
                }
                char::from_u32(hi).unwrap_or('\u{fffd}')
            }
            _ => return Err(self.err("invalid escape")),
        })
    }

    fn hex4(&mut self) -> Result<u32, String> {
        match self.text.get(self.pos..self.pos + 4) {
            Some(hex) if hex.bytes().all(|b| b.is_ascii_hexdigit()) => {
                self.pos += 4;
                Ok(u32::from_str_radix(hex, 16).unwrap_or(0xfffd))
            }
            _ => Err(self.err("invalid \\u escape")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn text(v: &Json) -> String {
        let mut s = String::new();
        v.write(&mut s);
        s
    }

    #[test]
    fn reads_every_value_kind() {
        let v = parse(r#" {"a": [1, -2, 3.5, 1e3, true, false, null], "b": {"c": "d\u00e9\n"}} "#)
            .unwrap();
        let a = [
            Json::Int(1),
            Json::Num(-2.0),
            Json::Num(3.5),
            Json::Num(1000.0),
            Json::Bool(true),
            Json::Bool(false),
            Json::Null,
        ];
        assert_eq!(v.get("a"), Some(&Json::Arr(a.to_vec())));
        assert_eq!(v.get("b").and_then(|b| b.get("c")).and_then(Json::as_str), Some("dé\n"));
    }

    #[test]
    fn integers_split_at_u64() {
        assert_eq!(parse("18446744073709551615").unwrap(), Json::Int(u64::MAX));
        assert_eq!(parse("18446744073709551616").unwrap(), Json::Num(18446744073709551616.0));
        assert_eq!(parse("-0").unwrap(), Json::Num(-0.0));
        assert_eq!(parse("0").unwrap(), Json::Int(0));
    }

    #[test]
    fn escapes_and_surrogate_pairs() {
        let v = parse(r#""\"\\\/\b\f\n\r\t\u0041\ud83d\ude00\ud800x\udc00""#).unwrap();
        assert_eq!(v.as_str(), Some("\"\\/\u{8}\u{c}\n\r\tA😀\u{fffd}x\u{fffd}"));
    }

    #[test]
    fn rejects_what_rfc_8259_rejects() {
        for bad in [
            "",
            " ",
            "01",
            "+1",
            ".5",
            "1.",
            "1e",
            "-",
            "inf",
            "NaN",
            "1e999",
            "[1,]",
            "{,}",
            "{\"a\"}",
            "{\"a\":1,}",
            "[1 2]",
            "\"abc",
            "\"\\x\"",
            "\"\\u12g4\"",
            "\"\\u+123\"",
            "\"a\tb\"",
            "\u{c}1",
            "tru",
            "nul",
            "[] []",
            "{1:2}",
        ] {
            assert!(parse(bad).is_err(), "`{}` must be rejected", bad.escape_debug());
        }
    }

    #[test]
    fn nesting_is_bounded() {
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
        let deep = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(parse(&deep).unwrap_err().contains("nesting deeper than 32"));
        assert!(parse(&"{\"a\":".repeat(MAX_DEPTH + 1)).unwrap_err().contains("nesting"));
    }

    #[test]
    fn writer_is_compact_and_escapes() {
        let v = Json::Obj(vec![
            ("s".into(), "a\"b\\c\n\u{1}é".into()),
            ("n".into(), Json::Arr(vec![Json::Num(0.25), Json::Num(f64::NAN), Json::Num(320.0)])),
            ("i".into(), Json::Int(7)),
            ("z".into(), Json::Null),
        ]);
        assert_eq!(text(&v), r#"{"s":"a\"b\\c\n\u0001é","n":[0.25,null,320],"i":7,"z":null}"#);
        assert_eq!(parse(&text(&v)).unwrap().get("s"), v.get("s"));
    }
}
