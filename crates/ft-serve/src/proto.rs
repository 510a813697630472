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
//! the stable codes of [`ServeError::code`].
//!
//! Headers are read and written by the workspace's one JSON codec,
//! [`ft_obs::json`]. [`parse_header`] is its reader — RFC 8259 whitespace
//! and escapes, no raw control bytes in strings, nesting at most
//! [`ft_obs::json::MAX_DEPTH`] deep — followed by the wire check: a flat
//! object whose values are strings, non-negative integers, booleans or
//! arrays of non-negative integers. Anything else, `-1` or `1.5` included,
//! is a [`ServeError::Protocol`].

use std::collections::BTreeMap;
use std::io::{self, BufRead, Read, Write};

use ft_obs::json::{self, Json};
use ft_tensor::Tensor;

use crate::ServeError;

/// A decoded header value: the shared [`Json`] type. A wire header only
/// carries `Str`, `Int`, `Bool` and `Arr` of `Int` (tensor dims).
pub use ft_obs::json::Json as Value;

/// A decoded flat-JSON header: field name → value, insertion order not
/// preserved (lookup by key only); a repeated key keeps its last value.
pub type Header = BTreeMap<String, Value>;

/// Parses one header line. Accepts exactly the flat subset this protocol
/// emits; anything else is a [`ServeError::Protocol`].
pub fn parse_header(line: &str) -> Result<Header, ServeError> {
    let Json::Obj(fields) = json::parse(line).map_err(ServeError::Protocol)? else {
        return Err(bad("header must be a JSON object"));
    };
    fields
        .into_iter()
        .map(|(k, v)| match v {
            Json::Str(_) | Json::Int(_) | Json::Bool(_) => Ok((k, v)),
            Json::Arr(ref items) if items.iter().all(|d| matches!(d, Json::Int(_))) => Ok((k, v)),
            _ => Err(bad(&format!("field `{k}` is not a string, integer, bool or dims"))),
        })
        .collect()
}

fn bad(msg: &str) -> ServeError {
    ServeError::Protocol(msg.to_string())
}

fn dims(t: &Tensor) -> Json {
    Json::Arr(t.dims().iter().map(|&d| Json::Int(d as u64)).collect())
}

/// Writes one frame: the header fields as one JSON line, plus an optional
/// payload tensor.
fn write_frame(
    w: &mut impl Write,
    header: &[(&str, Json)],
    payload: Option<&Tensor>,
) -> io::Result<()> {
    let mut line = String::with_capacity(64);
    json::write_obj(header, &mut line);
    line.push('\n');
    w.write_all(line.as_bytes())?;
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
    write_model_request(w, "predict", model, input)
}

/// Sends a `session_open` request.
pub fn write_session_open(w: &mut impl Write, model: &str, history: &Tensor) -> io::Result<()> {
    write_model_request(w, "session_open", model, history)
}

/// Sends a request that names a model and carries a tensor.
fn write_model_request(w: &mut impl Write, kind: &str, model: &str, t: &Tensor) -> io::Result<()> {
    write_frame(w, &[("type", kind.into()), ("model", model.into()), ("dims", dims(t))], Some(t))
}

/// Sends a `session_step` request.
pub fn write_session_step(w: &mut impl Write, session: u64, steps: usize) -> io::Result<()> {
    let header = [
        ("type", "session_step".into()),
        ("session", Json::Int(session)),
        ("steps", Json::Int(steps as u64)),
    ];
    write_frame(w, &header, None)
}

/// Sends a `session_close` request.
pub fn write_session_close(w: &mut impl Write, session: u64) -> io::Result<()> {
    write_frame(w, &[("type", "session_close".into()), ("session", Json::Int(session))], None)
}

/// Sends a bare request carrying only a `type` field (`ping`, `shutdown`).
pub fn write_bare(w: &mut impl Write, kind: &str) -> io::Result<()> {
    write_frame(w, &[("type", kind.into())], None)
}

/// Sends a success response, with an optional tensor payload and session
/// id.
pub fn write_ok(
    w: &mut impl Write,
    payload: Option<&Tensor>,
    session: Option<u64>,
) -> io::Result<()> {
    let mut header = vec![("ok", Json::Bool(true))];
    header.extend(session.map(|id| ("session", Json::Int(id))));
    header.extend(payload.map(|t| ("dims", dims(t))));
    write_frame(w, &header, payload)
}

/// Sends a failure response carrying the error's wire code and detail.
pub fn write_err(w: &mut impl Write, e: &ServeError) -> io::Result<()> {
    let detail = Json::Str(e.to_string());
    let header = [("ok", Json::Bool(false)), ("error", e.code().into()), ("detail", detail)];
    write_frame(w, &header, None)
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
