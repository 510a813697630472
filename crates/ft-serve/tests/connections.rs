//! The accept loop's connection state: `serve_tcp` drops the handles of
//! finished connection threads on every accept-loop turn, so serving many
//! short-lived clients does not grow its state, and the live count is
//! published as the `serve.connections` gauge; past
//! [`MAX_CONNECTIONS`] live connections, a new one gets the typed
//! `overloaded` frame and is closed, and a `serve_overload` flight event
//! records it. Its own test binary: the gauge, counters and flight ring
//! are process-global, so the tests here take one lock each.

use std::io::{BufReader, BufWriter};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use fno_core::{Fno, FnoConfig, FnoKind};
use ft_serve::proto::{self, Header, Value};
use ft_serve::server::MAX_CONNECTIONS;
use ft_serve::{metrics, ModelRegistry, ServeConfig, ServeEngine};

/// Serializes the tests: each reads the process-global gauge and counter.
static SERIAL: Mutex<()> = Mutex::new(());

/// An engine with one tiny model under `default`, and its accept loop on a
/// loopback port.
fn start_server() -> (ServeEngine, SocketAddr, JoinHandle<std::io::Result<()>>) {
    let cfg = FnoConfig {
        kind: FnoKind::TwoDChannels,
        width: 2,
        layers: 1,
        modes: 2,
        in_channels: 4,
        out_channels: 2,
        lifting_channels: 3,
        projection_channels: 3,
        norm: false,
    };
    let mut reg = ModelRegistry::new();
    reg.insert("default", Fno::new(cfg, 3)).unwrap();
    let engine = ServeEngine::new(reg, ServeConfig::default());
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let handle = engine.handle();
    let server = std::thread::spawn(move || ft_serve::server::serve_tcp(handle, listener));
    (engine, addr, server)
}

/// Sends `ping` on `stream` and returns the reply header; `None` if the
/// server closed or reset the connection instead of answering.
fn ping_reply(stream: &TcpStream) -> Option<Header> {
    let mut w = BufWriter::new(stream.try_clone().unwrap());
    proto::write_bare(&mut w, "ping").ok()?;
    Some(proto::read_frame(&mut BufReader::new(stream)).ok()??.0)
}

fn ping(stream: &TcpStream) {
    assert_eq!(ping_reply(stream).expect("a reply")["ok"], Value::Bool(true));
}

/// Sends `shutdown` on `stream` and joins the accept loop.
fn shut_down(stream: &TcpStream, server: JoinHandle<std::io::Result<()>>) {
    let mut w = BufWriter::new(stream.try_clone().unwrap());
    proto::write_bare(&mut w, "shutdown").unwrap();
    proto::read_frame(&mut BufReader::new(stream)).unwrap().unwrap();
    server.join().unwrap().unwrap();
}

#[test]
fn finished_connections_are_reaped() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    ft_obs::set_enabled(true);
    let (_engine, addr, server) = start_server();
    for _ in 0..50 {
        ping(&TcpStream::connect(addr).unwrap());
    }
    let last = TcpStream::connect(addr).unwrap();
    ping(&last);
    // The 50 closed connections end on EOF; the loop reaps them within a
    // few turns. Only the open one may remain.
    let deadline = Instant::now() + Duration::from_secs(10);
    while metrics::CONNECTIONS.get() > 1.0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(metrics::CONNECTIONS.get() <= 1.0, "live connections {}", metrics::CONNECTIONS.get());
    shut_down(&last, server);
}

/// Holds `MAX_CONNECTIONS` idle connections open: one more is answered
/// with the typed `overloaded` frame and closed, counted, and recorded as
/// a `serve_overload` flight event with the live count and the cap; once
/// one of the held connections closes, a new one is served. The server
/// runs the accept loop plus one thread per held connection, 65 threads at
/// most.
#[test]
fn connections_past_the_cap_get_overloaded() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    ft_obs::set_enabled(true);
    let rejected_before = metrics::REJECTED_CONNECTIONS.get();
    let (_engine, addr, server) = start_server();
    // A ping on each proves it was accepted and has its thread.
    let mut held: Vec<TcpStream> = (0..MAX_CONNECTIONS)
        .map(|_| {
            let s = TcpStream::connect(addr).unwrap();
            ping(&s);
            s
        })
        .collect();

    let extra = TcpStream::connect(addr).unwrap();
    // Without the cap the server would wait for a request: fail, not hang.
    extra.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let (header, payload) = proto::read_frame(&mut BufReader::new(&extra)).unwrap().unwrap();
    assert_eq!(header["ok"], Value::Bool(false));
    assert_eq!(header.get("error").and_then(Value::as_str), Some("overloaded"));
    assert!(payload.is_none());
    assert!(proto::read_frame(&mut BufReader::new(&extra)).unwrap().is_none(), "closed");
    assert_eq!(metrics::REJECTED_CONNECTIONS.get(), rejected_before + 1);
    let overload = format!(
        "\"kind\":\"serve_overload\",\"connections\":{MAX_CONNECTIONS},\"capacity\":{MAX_CONNECTIONS}"
    );
    assert!(
        ft_obs::flight::events().iter().any(|e| e.to_json().contains(&overload)),
        "no {overload} flight event"
    );

    // One held connection closes; its thread ends on EOF and the accept
    // loop reaps it, so a new connection is served. Until the reap, a new
    // one may still be refused (the `overloaded` frame, or a reset when
    // the server closes it with the ping unread).
    drop(held.pop());
    let deadline = Instant::now() + Duration::from_secs(10);
    let served = loop {
        let s = TcpStream::connect(addr).unwrap();
        if ping_reply(&s).is_some_and(|h| h["ok"] == Value::Bool(true)) {
            break s;
        }
        assert!(Instant::now() < deadline, "no connection accepted after one closed");
        std::thread::sleep(Duration::from_millis(5));
    };
    drop(held);
    shut_down(&served, server);
}
