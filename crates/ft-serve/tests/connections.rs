//! Connection-thread reaping: `serve_tcp` drops the handles of finished
//! connection threads on every accept-loop turn, so serving many
//! short-lived clients does not grow its state, and the live count is
//! published as the `serve.connections` gauge. Its own test binary: the
//! gauge is process-global.

use std::io::{BufReader, BufWriter};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

use fno_core::{Fno, FnoConfig, FnoKind};
use ft_serve::proto::{self, Value};
use ft_serve::{metrics, ModelRegistry, ServeConfig, ServeEngine};

#[test]
fn finished_connections_are_reaped() {
    ft_obs::set_enabled(true);
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

    let ping = |stream: &TcpStream| {
        let mut w = BufWriter::new(stream.try_clone().unwrap());
        proto::write_bare(&mut w, "ping").unwrap();
        let (h, _) = proto::read_frame(&mut BufReader::new(stream)).unwrap().unwrap();
        assert_eq!(h["ok"], Value::Bool(true));
    };
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

    let mut w = BufWriter::new(last.try_clone().unwrap());
    proto::write_bare(&mut w, "shutdown").unwrap();
    proto::read_frame(&mut BufReader::new(&last)).unwrap().unwrap();
    server.join().unwrap().unwrap();
}
