//! The `fno-serve` wire protocol: newline-delimited JSON headers with
//! little-endian `f32` field payloads.
//!
//! Every frame (request or response) is:
//!
//! ```text
//! <one-line JSON header>\n
//! <dims.product() × 4 bytes of little-endian f32>   // iff header has "dims"
//! ```
//!
//! Field data travels as `f32` — inference outputs don't need the
//! training-side `f64` precision, and halving the payload matters more at
//! serving time. Request headers (`type` selects the operation):
//!
//! | type            | fields                      | payload              |
//! |-----------------|-----------------------------|----------------------|
//! | `predict`       | `model`, `dims`             | input field          |
//! | `session_open`  | `model`, `dims`             | history field        |
//! | `session_step`  | `session`, `steps`          | —                    |
//! | `session_close` | `session`                   | —                    |
//! | `ping`          | —                           | —                    |
//! | `shutdown`      | —                           | —                    |
//!
//! Responses: `{"ok":true, ...}` with optional `dims` (+payload) and
//! `session`; failures are `{"ok":false,"error":CODE,"detail":MSG}` with
//! the stable codes of [`ServeError::code`]. The JSON subset is flat
//! objects whose values are strings, non-negative integers, booleans or
//! arrays of non-negative integers — parsed by the hand-rolled
//! [`parse_header`], consistent with the workspace's no-serde rule.

use std::collections::BTreeMap;
use std::io::{self, BufRead, Read, Write};

use ft_tensor::Tensor;

use crate::ServeError;

/// A decoded header value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// String field.
    Str(String),
    /// Non-negative integer field.
    Int(u64),
    /// Boolean field.
    Bool(bool),
    /// Array of non-negative integers (tensor dims).
    IntArray(Vec<u64>),
}

impl Value {
    /// The string content, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer content, if this is an integer.
    pub fn as_int(&self) -> Option<u64> {
        match self {
            Value::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// The array content, if this is an integer array.
    pub fn as_dims(&self) -> Option<Vec<usize>> {
        match self {
            Value::IntArray(v) => Some(v.iter().map(|&x| x as usize).collect()),
            _ => None,
        }
    }
}

/// A decoded flat-JSON header: field name → value, insertion order not
/// preserved (lookup by key only).
pub type Header = BTreeMap<String, Value>;

/// Parses one header line. Accepts exactly the flat subset this protocol
/// emits; anything else is a [`ServeError::Protocol`].
pub fn parse_header(line: &str) -> Result<Header, ServeError> {
    let mut p = Parser { s: line.as_bytes(), i: 0 };
    p.skip_ws();
    p.expect(b'{')?;
    let mut out = Header::new();
    p.skip_ws();
    if p.peek() == Some(b'}') {
        let _ = p.next();
        return Ok(out);
    }
    loop {
        p.skip_ws();
        let key = p.string()?;
        p.skip_ws();
        p.expect(b':')?;
        p.skip_ws();
        let val = p.value()?;
        out.insert(key, val);
        p.skip_ws();
        match p.next() {
            Some(b',') => continue,
            Some(b'}') => break,
            _ => return Err(bad("expected `,` or `}`")),
        }
    }
    p.skip_ws();
    if p.i != p.s.len() {
        return Err(bad("trailing bytes after header object"));
    }
    Ok(out)
}

fn bad(msg: &str) -> ServeError {
    ServeError::Protocol(msg.to_string())
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.s.get(self.i).copied()
    }
    fn next(&mut self) -> Option<u8> {
        let c = self.peek();
        if c.is_some() {
            self.i += 1;
        }
        c
    }
    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r')) {
            self.i += 1;
        }
    }
    fn expect(&mut self, c: u8) -> Result<(), ServeError> {
        if self.next() == Some(c) {
            Ok(())
        } else {
            Err(bad(&format!("expected `{}`", c as char)))
        }
    }

    fn string(&mut self) -> Result<String, ServeError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.next().ok_or_else(|| bad("unterminated string"))? {
                b'"' => return Ok(out),
                b'\\' => match self.next().ok_or_else(|| bad("dangling escape"))? {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'u' => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let d = self.next().ok_or_else(|| bad("short \\u escape"))?;
                            code = code * 16
                                + (d as char).to_digit(16).ok_or_else(|| bad("bad hex digit"))?;
                        }
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    other => return Err(bad(&format!("bad escape `\\{}`", other as char))),
                },
                c if c < 0x20 => return Err(bad("control byte in string")),
                c => {
                    // Re-assemble multi-byte UTF-8 straight from the input.
                    let start = self.i - 1;
                    let len = utf8_len(c);
                    self.i = (start + len).min(self.s.len());
                    out.push_str(
                        std::str::from_utf8(&self.s[start..self.i])
                            .map_err(|_| bad("invalid utf-8"))?,
                    );
                }
            }
        }
    }

    fn integer(&mut self) -> Result<u64, ServeError> {
        let start = self.i;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.i += 1;
        }
        if self.i == start {
            return Err(bad("expected digit"));
        }
        std::str::from_utf8(&self.s[start..self.i])
            .unwrap()
            .parse()
            .map_err(|_| bad("integer out of range"))
    }

    fn value(&mut self) -> Result<Value, ServeError> {
        match self.peek().ok_or_else(|| bad("missing value"))? {
            b'"' => Ok(Value::Str(self.string()?)),
            b'0'..=b'9' => Ok(Value::Int(self.integer()?)),
            b't' => self.literal("true").map(|_| Value::Bool(true)),
            b'f' => self.literal("false").map(|_| Value::Bool(false)),
            b'[' => {
                self.i += 1;
                let mut v = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.i += 1;
                    return Ok(Value::IntArray(v));
                }
                loop {
                    self.skip_ws();
                    v.push(self.integer()?);
                    self.skip_ws();
                    match self.next() {
                        Some(b',') => continue,
                        Some(b']') => return Ok(Value::IntArray(v)),
                        _ => return Err(bad("expected `,` or `]`")),
                    }
                }
            }
            c => Err(bad(&format!("unexpected value start `{}`", c as char))),
        }
    }

    fn literal(&mut self, word: &str) -> Result<(), ServeError> {
        if self.s[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(())
        } else {
            Err(bad(&format!("expected `{word}`")))
        }
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

/// Appends `s` as an escaped JSON string literal.
fn push_json_str(out: &mut String, s: &str) {
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

/// Writes one frame: the header fields (already JSON-fragment encoded by
/// the typed helpers below) plus an optional payload tensor.
fn write_frame(w: &mut impl Write, header: &str, payload: Option<&Tensor>) -> io::Result<()> {
    w.write_all(header.as_bytes())?;
    w.write_all(b"\n")?;
    if let Some(t) = payload {
        let mut buf = Vec::with_capacity(t.len() * 4);
        for &v in t.data() {
            buf.extend_from_slice(&(v as f32).to_le_bytes());
        }
        w.write_all(&buf)?;
    }
    w.flush()
}

/// Sends a `predict` request.
pub fn write_predict(w: &mut impl Write, model: &str, input: &Tensor) -> io::Result<()> {
    let mut h = String::from("{\"type\":\"predict\",\"model\":");
    push_json_str(&mut h, model);
    h.push_str(&format!(",\"dims\":{}}}", dims_json(input.dims())));
    write_frame(w, &h, Some(input))
}

/// Sends a `session_open` request.
pub fn write_session_open(w: &mut impl Write, model: &str, history: &Tensor) -> io::Result<()> {
    let mut h = String::from("{\"type\":\"session_open\",\"model\":");
    push_json_str(&mut h, model);
    h.push_str(&format!(",\"dims\":{}}}", dims_json(history.dims())));
    write_frame(w, &h, Some(history))
}

/// Sends a `session_step` request.
pub fn write_session_step(w: &mut impl Write, session: u64, steps: usize) -> io::Result<()> {
    write_frame(
        w,
        &format!("{{\"type\":\"session_step\",\"session\":{session},\"steps\":{steps}}}"),
        None,
    )
}

/// Sends a `session_close` request.
pub fn write_session_close(w: &mut impl Write, session: u64) -> io::Result<()> {
    write_frame(w, &format!("{{\"type\":\"session_close\",\"session\":{session}}}"), None)
}

/// Sends a bare request carrying only a `type` field (`ping`, `shutdown`).
pub fn write_bare(w: &mut impl Write, kind: &str) -> io::Result<()> {
    let mut h = String::from("{\"type\":");
    push_json_str(&mut h, kind);
    h.push('}');
    write_frame(w, &h, None)
}

/// Sends a success response, with an optional tensor payload and session
/// id.
pub fn write_ok(
    w: &mut impl Write,
    payload: Option<&Tensor>,
    session: Option<u64>,
) -> io::Result<()> {
    let mut h = String::from("{\"ok\":true");
    if let Some(id) = session {
        h.push_str(&format!(",\"session\":{id}"));
    }
    if let Some(t) = payload {
        h.push_str(&format!(",\"dims\":{}", dims_json(t.dims())));
    }
    h.push('}');
    write_frame(w, &h, payload)
}

/// Sends a failure response carrying the error's wire code and detail.
pub fn write_err(w: &mut impl Write, e: &ServeError) -> io::Result<()> {
    let mut h = String::from("{\"ok\":false,\"error\":");
    push_json_str(&mut h, e.code());
    h.push_str(",\"detail\":");
    push_json_str(&mut h, &e.to_string());
    h.push('}');
    write_frame(w, &h, None)
}

fn dims_json(dims: &[usize]) -> String {
    let inner: Vec<String> = dims.iter().map(|d| d.to_string()).collect();
    format!("[{}]", inner.join(","))
}

/// Largest payload a frame may declare (guards a malformed or hostile
/// header from triggering an enormous allocation): 256 Mi f32 elements.
pub const MAX_PAYLOAD_ELEMS: usize = 256 << 20;

/// Longest header line a frame may send, newline excluded: a peer that
/// never sends `\n` is cut off here instead of growing the line buffer.
pub const MAX_HEADER_BYTES: usize = 64 << 10;

/// Reads one frame: the header line plus, when the header declares
/// `dims`, the payload tensor. Returns `None` on clean EOF before a
/// header.
pub fn read_frame(r: &mut impl BufRead) -> Result<Option<(Header, Option<Tensor>)>, ServeError> {
    let mut line = String::new();
    match r.by_ref().take(MAX_HEADER_BYTES as u64 + 1).read_line(&mut line) {
        Ok(0) => return Ok(None),
        Ok(n) if n > MAX_HEADER_BYTES && !line.ends_with('\n') => {
            return Err(bad(&format!("header line longer than {MAX_HEADER_BYTES} bytes")));
        }
        Ok(_) => {}
        Err(e) => return Err(ServeError::Protocol(format!("header read: {e}"))),
    }
    let header = parse_header(line.trim_end_matches(['\n', '\r']))?;
    let payload = match header.get("dims").map(|d| d.as_dims()) {
        Some(Some(dims)) => {
            let n = dims
                .iter()
                .try_fold(1usize, |a, &b| a.checked_mul(b))
                .unwrap_or(usize::MAX);
            if dims.is_empty() || n == 0 || n > MAX_PAYLOAD_ELEMS {
                return Err(bad(&format!("unreasonable payload dims {dims:?}")));
            }
            let mut bytes = vec![0u8; n * 4];
            r.read_exact(&mut bytes)
                .map_err(|e| ServeError::Protocol(format!("payload read: {e}")))?;
            let data: Vec<f64> = bytes
                .chunks_exact(4)
                .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]) as f64)
                .collect();
            Some(Tensor::from_vec(&dims, data))
        }
        Some(None) => return Err(bad("`dims` must be an integer array")),
        None => None,
    };
    Ok(Some((header, payload)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_parses_all_value_kinds() {
        let h = parse_header(
            r#"{"type":"predict","model":"m \"q\"","dims":[10,8,8],"steps":3,"ok":true}"#,
        )
        .unwrap();
        assert_eq!(h["type"].as_str(), Some("predict"));
        assert_eq!(h["model"].as_str(), Some("m \"q\""));
        assert_eq!(h["dims"].as_dims(), Some(vec![10, 8, 8]));
        assert_eq!(h["steps"].as_int(), Some(3));
        assert_eq!(h["ok"], Value::Bool(true));
        assert!(parse_header("{}").unwrap().is_empty());
    }

    #[test]
    fn malformed_headers_are_typed_errors() {
        for bad in ["", "{", "{\"a\":}", "{\"a\":1} trailing", "[1,2]", "{\"a\":-1}"] {
            assert!(
                matches!(parse_header(bad), Err(ServeError::Protocol(_))),
                "`{bad}` must be rejected"
            );
        }
    }

    #[test]
    fn frame_roundtrip_preserves_f32_precision() {
        let t = Tensor::from_fn(&[2, 3, 4], |i| (i[0] * 12 + i[1] * 4 + i[2]) as f64 * 0.125);
        let mut buf = Vec::new();
        write_predict(&mut buf, "default", &t).unwrap();
        let mut r = io::BufReader::new(&buf[..]);
        let (h, payload) = read_frame(&mut r).unwrap().unwrap();
        assert_eq!(h["type"].as_str(), Some("predict"));
        assert_eq!(h["model"].as_str(), Some("default"));
        let got = payload.unwrap();
        assert_eq!(got.dims(), &[2, 3, 4]);
        // 0.125 steps are exact in f32, so the roundtrip is loss-free here.
        assert!(got.allclose(&t, 0.0));
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF after one frame");
    }

    #[test]
    fn error_frame_roundtrip() {
        let mut buf = Vec::new();
        write_err(&mut buf, &ServeError::Overloaded).unwrap();
        let (h, payload) = read_frame(&mut io::BufReader::new(&buf[..])).unwrap().unwrap();
        assert_eq!(h["ok"], Value::Bool(false));
        assert_eq!(h["error"].as_str(), Some("overloaded"));
        assert!(payload.is_none());
        let e = ServeError::from_code(
            h["error"].as_str().unwrap(),
            h.get("detail").and_then(Value::as_str).unwrap_or(""),
        );
        assert_eq!(e, ServeError::Overloaded);
    }

    #[test]
    fn header_line_is_bounded() {
        // A peer streaming a line with no newline is cut off at the bound,
        // without reading (and buffering) the rest of the line.
        let mut r = io::BufReader::new(io::repeat(b' ').take(1 << 20));
        let err = read_frame(&mut r).unwrap_err();
        assert!(matches!(&err, ServeError::Protocol(m) if m.contains("longer than")), "{err:?}");
        let unread = r.get_ref().limit() as usize + r.buffer().len();
        assert_eq!(unread, (1 << 20) - MAX_HEADER_BYTES - 1);
        // A header of exactly the bound still parses.
        let line = format!("{{\"type\":\"ping\"}}{}\n", " ".repeat(MAX_HEADER_BYTES - 15));
        let (h, _) = read_frame(&mut io::BufReader::new(line.as_bytes())).unwrap().unwrap();
        assert_eq!(h["type"].as_str(), Some("ping"));
    }

    #[test]
    fn oversized_dims_rejected_without_allocating() {
        let line = format!("{{\"dims\":[{},{}]}}\n", u32::MAX, u32::MAX);
        let err = read_frame(&mut io::BufReader::new(line.as_bytes())).unwrap_err();
        assert!(matches!(err, ServeError::Protocol(_)));
    }
}
