//! TCP loopback integration: a real `serve_tcp` server, a real client
//! speaking [`ft_serve::proto`], full request/response/session lifecycle.

use std::io::{BufReader, BufWriter, Write};
use std::net::{TcpListener, TcpStream};

use ft_serve::proto::{self, Value};
use ft_serve::{ModelRegistry, ServeConfig, ServeEngine};
use ft_tensor::Tensor;
use fno_core::{Fno, FnoConfig, FnoKind};

fn tiny_model() -> Fno {
    Fno::new(
        FnoConfig {
            kind: FnoKind::TwoDChannels,
            width: 2,
            layers: 1,
            modes: 2,
            in_channels: 4,
            out_channels: 2,
            lifting_channels: 3,
            projection_channels: 3,
            norm: false,
        },
        13,
    )
}

/// Quantizes to f32 the way the wire does, so oracle comparisons see the
/// same inputs the server sees.
fn as_f32(t: &Tensor) -> Tensor {
    t.map(|v| v as f32 as f64)
}

struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect to test server");
        Client {
            reader: BufReader::new(stream.try_clone().unwrap()),
            writer: BufWriter::new(stream),
        }
    }

    fn roundtrip(
        &mut self,
        send: impl FnOnce(&mut BufWriter<TcpStream>) -> std::io::Result<()>,
    ) -> (proto::Header, Option<Tensor>) {
        send(&mut self.writer).unwrap();
        proto::read_frame(&mut self.reader).unwrap().expect("response frame")
    }
}

#[test]
fn full_lifecycle_over_loopback() {
    let model = tiny_model();
    let mut reg = ModelRegistry::new();
    reg.insert("default", tiny_model()).unwrap();
    let engine = ServeEngine::new(reg, ServeConfig::default());
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let handle = engine.handle();
    let server = std::thread::spawn(move || proto_server(handle, listener));

    let mut c = Client::connect(addr);

    // ping
    let (h, p) = c.roundtrip(|w| proto::write_bare(w, "ping"));
    assert_eq!(h["ok"], Value::Bool(true));
    assert!(p.is_none());

    // predict equals a direct forward on the f32-quantized input
    let x = Tensor::from_fn(&[4, 8, 8], |i| (i[0] as f64 * 0.7 + i[1] as f64 - i[2] as f64).sin());
    let (h, p) = c.roundtrip(|w| proto::write_predict(w, "default", &x));
    assert_eq!(h["ok"], Value::Bool(true), "predict failed: {h:?}");
    let got = p.unwrap();
    assert_eq!(got.dims(), &[2, 8, 8]);
    let xq = as_f32(&x);
    let want = model.infer(&Tensor::from_vec(&[1, 4, 8, 8], xq.data().to_vec()));
    for (a, b) in got.data().iter().zip(want.data()) {
        // Output travels as f32: compare at f32 resolution.
        assert!((a - b).abs() < 1e-6 * b.abs().max(1.0), "{a} vs {b}");
    }

    // session lifecycle: open → step twice → close; matches local rollout
    let (h, _) = c.roundtrip(|w| proto::write_session_open(w, "default", &x));
    assert_eq!(h["ok"], Value::Bool(true));
    let sid = h["session"].as_int().unwrap();
    // An absurd step count is a typed error that leaves the session as it was.
    let (h, _) = c.roundtrip(|w| proto::write_session_step(w, sid, 100_000_000_000));
    assert_eq!(h["error"].as_str(), Some("bad_input"));
    let (h1, p1) = c.roundtrip(|w| proto::write_session_step(w, sid, 2));
    assert_eq!(h1["ok"], Value::Bool(true));
    let first = p1.unwrap();
    assert_eq!(first.dims(), &[2, 8, 8]);
    let (_, p2) = c.roundtrip(|w| proto::write_session_step(w, sid, 2));
    let second = p2.unwrap();
    let local = fno_core::rollout::rollout(&model, &xq, 4);
    for (i, frame) in [&first, &second].iter().enumerate() {
        for t in 0..2 {
            let served = frame.index_axis0(t);
            let truth = local.index_axis0(i * 2 + t);
            let diff = served.sub(&truth).norm_l2() / truth.norm_l2().max(1e-12);
            // Each step re-quantizes the window to f32; allow that noise.
            assert!(diff < 1e-4, "frame {} rel diff {diff}", i * 2 + t);
        }
    }
    let (h, _) = c.roundtrip(|w| proto::write_session_close(w, sid));
    assert_eq!(h["ok"], Value::Bool(true));
    let (h, _) = c.roundtrip(|w| proto::write_session_step(w, sid, 1));
    assert_eq!(h["ok"], Value::Bool(false));
    assert_eq!(h["error"].as_str(), Some("unknown_session"));

    // unknown model is a typed wire error, connection stays usable
    let (h, _) = c.roundtrip(|w| proto::write_predict(w, "nope", &x));
    assert_eq!(h["error"].as_str(), Some("unknown_model"));
    let (h, _) = c.roundtrip(|w| proto::write_bare(w, "ping"));
    assert_eq!(h["ok"], Value::Bool(true));

    // shutdown stops the accept loop
    let (h, _) = c.roundtrip(|w| proto::write_bare(w, "shutdown"));
    assert_eq!(h["ok"], Value::Bool(true));
    server.join().unwrap().unwrap();
}

#[test]
fn session_step_steps_must_be_an_integer() {
    let mut reg = ModelRegistry::new();
    reg.insert("default", tiny_model()).unwrap();
    let engine = ServeEngine::new(reg, ServeConfig::default());
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let handle = engine.handle();
    let server = std::thread::spawn(move || proto_server(handle, listener));
    let mut c = Client::connect(addr);

    let x = Tensor::from_fn(&[4, 8, 8], |i| (i[0] + i[1] * i[2]) as f64 * 0.01);
    let (h, _) = c.roundtrip(|w| proto::write_session_open(w, "default", &x));
    let sid = h["session"].as_int().unwrap();
    // A `steps` that is present but not an integer is a protocol error,
    // not a silent single step; the connection stays usable.
    for steps in [r#""5""#, "true", "[1]"] {
        let (h, p) = c.roundtrip(|w| {
            writeln!(w, r#"{{"type":"session_step","session":{sid},"steps":{steps}}}"#)?;
            w.flush()
        });
        assert_eq!(h["error"].as_str(), Some("protocol"), "steps {steps}: {h:?}");
        assert!(p.is_none());
    }
    // An absent `steps` still means one step.
    let (h, p) = c.roundtrip(|w| {
        writeln!(w, r#"{{"type":"session_step","session":{sid}}}"#)?;
        w.flush()
    });
    assert_eq!(h["ok"], Value::Bool(true), "{h:?}");
    assert_eq!(p.unwrap().dims(), &[1, 8, 8]);

    let (h, _) = c.roundtrip(|w| proto::write_bare(w, "shutdown"));
    assert_eq!(h["ok"], Value::Bool(true));
    server.join().unwrap().unwrap();
}

fn proto_server(handle: ft_serve::ServeHandle, listener: TcpListener) -> std::io::Result<()> {
    ft_serve::server::serve_tcp(handle, listener)
}
