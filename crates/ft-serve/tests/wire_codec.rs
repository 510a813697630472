//! Wire-codec tests: every `proto::write_*` header pinned byte for byte,
//! and hostile bytes fed to `proto::read_frame` — random bytes,
//! truncations and single-bit flips of valid frames, and maximal-length
//! nesting bombs — never panic and fail only with `ServeError::Protocol`.

use std::io::{self, BufReader};

use ft_serve::proto::{self, MAX_HEADER_BYTES};
use ft_serve::ServeError;
use ft_tensor::Tensor;
use proptest::prelude::*;

fn frame(write: impl FnOnce(&mut Vec<u8>) -> io::Result<()>) -> Vec<u8> {
    let mut buf = Vec::new();
    write(&mut buf).unwrap();
    buf
}

/// `header` + `\n` + the little-endian `f32` bytes of `values`.
fn bytes(header: &str, values: &[f32]) -> Vec<u8> {
    let mut out = format!("{header}\n").into_bytes();
    for v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

fn tensor() -> Tensor {
    Tensor::from_vec(&[1, 3], vec![0.5, -2.0, 1e-3])
}

const VALUES: [f32; 3] = [0.5, -2.0, 1e-3];

#[test]
fn request_frames_are_pinned() {
    let t = tensor();
    assert_eq!(
        frame(|w| proto::write_predict(w, "default", &t)),
        bytes(r#"{"type":"predict","model":"default","dims":[1,3]}"#, &VALUES)
    );
    // Model names are escaped: quote, backslash, control and non-ASCII.
    assert_eq!(
        frame(|w| proto::write_session_open(w, "m \"q\"\\\u{1}\té", &t)),
        bytes(r#"{"type":"session_open","model":"m \"q\"\\\u0001\té","dims":[1,3]}"#, &VALUES)
    );
    assert_eq!(
        frame(|w| proto::write_session_step(w, u64::MAX, 7)),
        bytes(r#"{"type":"session_step","session":18446744073709551615,"steps":7}"#, &[])
    );
    assert_eq!(
        frame(|w| proto::write_session_close(w, 42)),
        bytes(r#"{"type":"session_close","session":42}"#, &[])
    );
    assert_eq!(frame(|w| proto::write_bare(w, "ping")), bytes(r#"{"type":"ping"}"#, &[]));
    assert_eq!(frame(|w| proto::write_bare(w, "shutdown")), bytes(r#"{"type":"shutdown"}"#, &[]));
}

#[test]
fn response_frames_are_pinned() {
    let t = tensor();
    assert_eq!(frame(|w| proto::write_ok(w, None, None)), bytes(r#"{"ok":true}"#, &[]));
    assert_eq!(
        frame(|w| proto::write_ok(w, None, Some(3))),
        bytes(r#"{"ok":true,"session":3}"#, &[])
    );
    assert_eq!(
        frame(|w| proto::write_ok(w, Some(&t), None)),
        bytes(r#"{"ok":true,"dims":[1,3]}"#, &VALUES)
    );
    assert_eq!(
        frame(|w| proto::write_ok(w, Some(&t), Some(9))),
        bytes(r#"{"ok":true,"session":9,"dims":[1,3]}"#, &VALUES)
    );
    assert_eq!(
        frame(|w| proto::write_err(w, &ServeError::Overloaded)),
        bytes(
            r#"{"ok":false,"error":"overloaded","detail":"overloaded: request queue is full"}"#,
            &[]
        )
    );
    assert_eq!(
        frame(|w| proto::write_err(w, &ServeError::Protocol("bad \"x\"\n".into()))),
        bytes(r#"{"ok":false,"error":"protocol","detail":"protocol error: bad \"x\"\n"}"#, &[])
    );
}

/// Reads one frame from `bytes`, asserting the only failure is `Protocol`.
fn read(bytes: &[u8]) -> Result<bool, ServeError> {
    match proto::read_frame(&mut BufReader::new(bytes)) {
        Ok(frame) => Ok(frame.is_some()),
        Err(e @ ServeError::Protocol(_)) => Err(e),
        Err(e) => panic!("read_frame returned a non-protocol error: {e:?}"),
    }
}

#[test]
fn nesting_bombs_are_protocol_errors() {
    // Each line is exactly the header bound long (newline excluded), so
    // it reaches the JSON reader; only the depth bound keeps the reader
    // from recursing once per byte.
    let brackets = format!("{}\n", "[".repeat(MAX_HEADER_BYTES));
    let objects = format!("{}\n", "{\"a\":".repeat(MAX_HEADER_BYTES / 5));
    for bomb in [brackets, objects] {
        let err = read(bomb.as_bytes()).unwrap_err();
        assert_eq!(err.code(), "protocol");
    }
}

/// Valid frames of every shape the protocol carries.
fn valid_frames() -> Vec<Vec<u8>> {
    let t = tensor();
    vec![
        frame(|w| proto::write_predict(w, "default", &t)),
        frame(|w| proto::write_session_step(w, 12, 3)),
        frame(|w| proto::write_ok(w, Some(&t), Some(5))),
        frame(|w| proto::write_err(w, &ServeError::UnknownModel("m\u{1}é".into()))),
    ]
}

/// Bytes from the JSON alphabet reach deeper into the reader than
/// uniform ones.
const JSONISH: &[u8] = b"{}[]\":,-.0123456789eEtfnlrsu\\ ";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_bytes_never_panic(
        raw in proptest::collection::vec(0u64..256, 0..600),
        jsonish in proptest::collection::vec(0..JSONISH.len(), 0..600),
    ) {
        let raw: Vec<u8> = raw.into_iter().map(|b| b as u8).collect();
        let _ = read(&raw);
        let jsonish: Vec<u8> = jsonish.into_iter().map(|i| JSONISH[i]).collect();
        let _ = read(&jsonish);
        let _ = read(&[b"{".as_slice(), &jsonish, b"\n"].concat());
    }

    #[test]
    fn flipped_frames_never_panic(picks in proptest::collection::vec(0usize..1 << 20, 32)) {
        for f in valid_frames() {
            for &pick in &picks {
                let mut corrupt = f.clone();
                corrupt[pick % f.len()] ^= 1 << (pick % 8);
                let _ = read(&corrupt);
            }
        }
    }
}

#[test]
fn truncated_frames_are_protocol_errors() {
    assert_eq!(read(&[]).ok(), Some(false), "no bytes is a clean EOF");
    for f in valid_frames() {
        assert_eq!(read(&f).ok(), Some(true), "the intact frame reads");
        // A frame with a payload is incomplete at every cut; one without
        // is incomplete at every cut before the header's closing brace.
        let header_end = f.iter().position(|&b| b == b'\n').unwrap();
        let last_incomplete = if header_end + 1 < f.len() { f.len() - 1 } else { header_end - 1 };
        for cut in 1..=last_incomplete {
            assert!(read(&f[..cut]).is_err(), "cut at {cut} of {}", f.len());
        }
    }
}
