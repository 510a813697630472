//! Blocking TCP front-end: one thread per connection, [`crate::proto`]
//! frames in both directions.
//!
//! The accept loop polls a non-blocking listener so a `shutdown` frame
//! (or [`ServeHandle`]-side drain) can stop it promptly; connection
//! threads exit on client EOF or protocol error. At most
//! [`MAX_CONNECTIONS`] connections are live at once; one past the cap is
//! answered with the typed `overloaded` error frame and closed. This is
//! deliberately the simplest thing that serves correctly: a connection
//! answers each request before it reads the next, and a predict runs its
//! forward on its connection's thread, so the cap also bounds the
//! forwards running at once.

use std::io::{self, BufRead, BufReader, BufWriter};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ft_tensor::Tensor;

use crate::engine::ServeHandle;
use crate::proto::{self, Header, Value};
use crate::{metrics, ServeError};

/// Bound on live connections, the same as the session default
/// ([`crate::SessionConfig`]). Each live connection holds one thread and
/// at most one request in flight.
pub const MAX_CONNECTIONS: usize = 64;

/// Runs the accept loop until a client sends a `shutdown` frame. Each
/// connection is served on its own thread; finished threads are reaped
/// on every loop turn, and the live count is the `serve.connections`
/// gauge. A connection accepted while [`MAX_CONNECTIONS`] are live gets
/// the `overloaded` error frame and is closed, `serve.rejected.connections`
/// counts it, and a `serve_overload` flight event records the live count
/// and the cap. Returns once the loop has stopped accepting and the live
/// connection threads have finished, so every admitted request completes.
pub fn serve_tcp(handle: ServeHandle, listener: TcpListener) -> io::Result<()> {
    listener.set_nonblocking(true)?;
    let stop = Arc::new(AtomicBool::new(false));
    let mut workers: Vec<std::thread::JoinHandle<()>> = Vec::new();
    while !stop.load(Ordering::Acquire) {
        workers.retain(|w| !w.is_finished());
        metrics::CONNECTIONS.set(workers.len() as f64);
        match listener.accept() {
            Ok((mut stream, _addr)) if workers.len() >= MAX_CONNECTIONS => {
                metrics::REJECTED_CONNECTIONS.inc();
                ft_obs::flight::event_with(|| {
                    ft_obs::Record::new("event")
                        .str("kind", "serve_overload")
                        .u64("connections", workers.len() as u64)
                        .u64("capacity", MAX_CONNECTIONS as u64)
                });
                // Best effort: a client that is already gone misses the reply.
                let _ = stream.set_nonblocking(false);
                let _ = proto::write_err(&mut stream, &ServeError::Overloaded);
            }
            Ok((stream, _addr)) => {
                let h = handle.clone();
                let s = Arc::clone(&stop);
                workers.push(std::thread::spawn(move || {
                    if let Err(e) = serve_connection(&h, stream, &s) {
                        // A dropped client mid-frame is routine, not fatal.
                        eprintln!("fno-serve: connection ended: {e}");
                    }
                }));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(e) => return Err(e),
        }
    }
    for w in workers {
        let _ = w.join();
    }
    Ok(())
}

/// Serves one connection until EOF, a protocol error, or `shutdown`.
fn serve_connection(
    handle: &ServeHandle,
    stream: TcpStream,
    stop: &AtomicBool,
) -> Result<(), ServeError> {
    stream.set_nodelay(true).ok();
    let mut reader = BufReader::new(
        stream.try_clone().map_err(|e| ServeError::Protocol(format!("clone stream: {e}")))?,
    );
    let mut writer = BufWriter::new(stream);
    loop {
        let frame = match read_request(handle, &mut reader) {
            Ok(Some(f)) => f,
            Ok(None) => return Ok(()), // clean EOF
            Err(e) => {
                // Tell the client what went wrong, then drop the
                // connection — after a framing error the stream position
                // is unknowable.
                let _ = proto::write_err(&mut writer, &e);
                return Err(e);
            }
        };
        let (header, payload) = frame;
        let kind = header.get("type").and_then(Value::as_str).unwrap_or("").to_string();
        if kind == "shutdown" {
            proto::write_ok(&mut writer, None, None).map_err(io_to_proto)?;
            stop.store(true, Ordering::Release);
            return Ok(());
        }
        match payload.and_then(|payload| handle_request(handle, &kind, &header, payload)) {
            Ok((tensor, session)) => {
                let t0 = Instant::now();
                proto::write_ok(&mut writer, tensor.as_ref(), session).map_err(io_to_proto)?;
                metrics::SERIALIZE.observe(t0.elapsed().as_secs_f64());
            }
            Err(e) => proto::write_err(&mut writer, &e).map_err(io_to_proto)?,
        }
    }
}

/// A request header and its payload, or the reason the payload was refused
/// unread.
type Request = (Header, Result<Option<Tensor>, ServeError>);

/// Reads one request frame. A `predict` or `session_open` payload is read
/// only once its header's dims pass the model's admission check
/// ([`ServeHandle::check_dims`]); a refused payload is skipped through a
/// fixed-size buffer and the refusal takes the tensor's place, so a header
/// declaring a wrong-grid field never makes the server hold its payload,
/// and the connection stays at a frame boundary.
fn read_request(
    handle: &ServeHandle,
    reader: &mut impl BufRead,
) -> Result<Option<Request>, ServeError> {
    let Some(header) = proto::read_header(reader)? else {
        return Ok(None);
    };
    let Some(dims) = proto::payload_dims(&header)? else {
        return Ok(Some((header, Ok(None))));
    };
    let kind = header.get("type").and_then(Value::as_str);
    if let (Some("predict" | "session_open"), Some(model)) =
        (kind, header.get("model").and_then(Value::as_str))
    {
        if let Err(e) = handle.check_dims(model, &dims) {
            proto::skip_payload(reader, &dims)?;
            return Ok(Some((header, Err(e))));
        }
    }
    let payload = proto::read_payload(reader, &dims)?;
    Ok(Some((header, Ok(Some(payload)))))
}

fn io_to_proto(e: io::Error) -> ServeError {
    ServeError::Protocol(format!("write: {e}"))
}

/// Dispatches one decoded request to the engine. Returns the optional
/// response tensor and session id.
fn handle_request(
    handle: &ServeHandle,
    kind: &str,
    header: &Header,
    payload: Option<Tensor>,
) -> Result<(Option<Tensor>, Option<u64>), ServeError> {
    let model = || -> Result<&str, ServeError> {
        header
            .get("model")
            .and_then(Value::as_str)
            .ok_or_else(|| ServeError::Protocol("missing `model` field".into()))
    };
    let session_id = || -> Result<u64, ServeError> {
        header
            .get("session")
            .and_then(Value::as_int)
            .ok_or_else(|| ServeError::Protocol("missing `session` field".into()))
    };
    match kind {
        "predict" => {
            let input =
                payload.ok_or_else(|| ServeError::Protocol("predict needs a payload".into()))?;
            let out = handle.predict(model()?, input)?;
            Ok((Some(out), None))
        }
        "session_open" => {
            let history = payload
                .ok_or_else(|| ServeError::Protocol("session_open needs a payload".into()))?;
            let id = handle.open_session(model()?, &history)?;
            Ok((None, Some(id)))
        }
        "session_step" => {
            let id = session_id()?;
            // Absent means one step; present, it must be an integer.
            let steps = header.get("steps").map_or(Some(1), Value::as_int).ok_or_else(|| {
                ServeError::Protocol("`steps` must be a non-negative integer".into())
            })? as usize;
            let out = handle.session_step(id, steps)?;
            Ok((Some(out), Some(id)))
        }
        "session_close" => {
            let id = session_id()?;
            if handle.close_session(id) {
                Ok((None, Some(id)))
            } else {
                Err(ServeError::UnknownSession(id))
            }
        }
        "ping" => Ok((None, None)),
        other => Err(ServeError::Protocol(format!("unknown request type `{other}`"))),
    }
}
