//! Admission before the payload: a `predict` header whose dims the model
//! refuses (here a 64 Mi-element field on a grid too small for its modes)
//! is answered with a typed `bad_input` after its payload is skipped
//! through a fixed buffer. The server never holds the payload, and the
//! connection keeps serving.
//!
//! Own test binary (the convention of `payload_alloc.rs`): the counting
//! global allocator sees every allocation in the process, server thread
//! included, so this is the only test in it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{BufReader, BufWriter, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};

use fno_core::{Fno, FnoConfig, FnoKind};
use ft_serve::proto::{self, Value};
use ft_serve::{ModelRegistry, ServeConfig, ServeEngine};
use ft_tensor::Tensor;

/// Bytes currently allocated, and the most at any moment since the last
/// [`peak_during`] started.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

struct PeakAllocator;

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::SeqCst) + bytes;
    PEAK.fetch_max(live, Ordering::SeqCst);
}

// SAFETY: delegates every operation to `System`; only adds counter
// updates around it.
unsafe impl GlobalAlloc for PeakAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::SeqCst);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        grow(new_size);
        LIVE.fetch_sub(layout.size(), Ordering::SeqCst);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: PeakAllocator = PeakAllocator;

/// The peak heap growth, in bytes, while `f` runs.
fn peak_during<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let base = LIVE.load(Ordering::SeqCst);
    PEAK.store(base, Ordering::SeqCst);
    let r = f();
    (r, PEAK.load(Ordering::SeqCst) - base)
}

#[test]
fn refused_dims_are_answered_before_the_payload_is_held() {
    const MIB: usize = 1 << 20;
    // 4 frames of 2 × 8 Mi points: 64 Mi elements, 256 MiB on the wire,
    // on a grid narrower than the 2·modes = 4 points the model needs.
    const DIMS: [usize; 3] = [4, 2, 8 << 20];

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

    let stream = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = BufWriter::new(stream);
    let mut roundtrip = |send: &dyn Fn(&mut BufWriter<TcpStream>) -> std::io::Result<()>| {
        send(&mut writer).unwrap();
        writer.flush().unwrap();
        proto::read_frame(&mut reader).unwrap().expect("a reply frame")
    };
    // Warm-up: the connection thread and its buffers exist before the
    // measured request.
    let (h, _) = roundtrip(&|w| proto::write_bare(w, "ping"));
    assert_eq!(h["ok"], Value::Bool(true));

    let ((h, payload), peak) = peak_during(|| {
        roundtrip(&|w| {
            let dims = DIMS.map(|d| d.to_string()).join(",");
            writeln!(w, "{{\"type\":\"predict\",\"model\":\"default\",\"dims\":[{dims}]}}")?;
            let block = [0u8; 64 << 10];
            for _ in 0..DIMS.iter().product::<usize>() * 4 / block.len() {
                w.write_all(&block)?;
            }
            Ok(())
        })
    });
    assert_eq!(h["ok"], Value::Bool(false), "{h:?}");
    assert_eq!(h["error"], Value::Str("bad_input".into()), "{h:?}");
    assert!(payload.is_none());
    assert!(peak < MIB, "a refused 256 MiB payload cost {peak} bytes of heap");

    // The skipped payload left the stream at a frame boundary: the same
    // connection still answers a ping and a valid predict.
    let (h, _) = roundtrip(&|w| proto::write_bare(w, "ping"));
    assert_eq!(h["ok"], Value::Bool(true), "{h:?}");
    let input = Tensor::from_fn(&[4, 8, 8], |i| (i[0] + i[1] * i[2]) as f64 * 0.01);
    let (h, out) = roundtrip(&|w| proto::write_predict(w, "default", &input));
    assert_eq!(h["ok"], Value::Bool(true), "{h:?}");
    assert_eq!(out.expect("a prediction").dims(), &[2, 8, 8]);

    let (h, _) = roundtrip(&|w| proto::write_bare(w, "shutdown"));
    assert_eq!(h["ok"], Value::Bool(true));
    server.join().unwrap().unwrap();
}
