//! Property tests for the one JSON codec (`ft_obs::json`): hostile text —
//! random bytes, truncations and single-bit flips of a rendered bench
//! file — never panics the reader or `parse_bench_file` and fails with a
//! typed `Err(String)`; and writer → reader round-trips every value.
//! The random and flipped texts must also hold at most 16 heap bytes per
//! input byte plus 64 KiB while they are read.
//!
//! Own test binary: the counting global allocator sees every allocation
//! in the process, so each test holds one lock for its whole run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

use ft_obs::compare::parse_bench_file;
use ft_obs::json::{self, Json};
use proptest::prelude::*;
use proptest::TestRng;

static REQUESTS: ft_obs::Counter = ft_obs::Counter::new("jsonprop.requests");
static RATE: ft_obs::Gauge = ft_obs::Gauge::new("jsonprop.rate_per_sec");
static UNSET: ft_obs::Gauge = ft_obs::Gauge::new("jsonprop.unset");
static LOSS: ft_obs::Histogram = ft_obs::Histogram::new("jsonprop.loss");

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

/// Serializes the tests: a measurement must see no other test's heap.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// The peak heap growth, in bytes, while `f` runs.
fn peak_during<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let base = LIVE.load(Ordering::SeqCst);
    PEAK.store(base, Ordering::SeqCst);
    let r = f();
    (r, PEAK.load(Ordering::SeqCst) - base)
}

/// Runs `f` on `input_len` hostile input bytes and checks it held at most
/// 16 heap bytes per input byte plus 64 KiB, the bound of the binary
/// loaders (`crates/core/tests/loader_alloc.rs`).
fn within_heap_bound<R>(input_len: usize, f: impl FnOnce() -> R) -> R {
    let (r, peak) = peak_during(f);
    let bound = 16 * input_len + (64 << 10);
    assert!(peak <= bound, "{input_len} input bytes held {peak} heap bytes (bound {bound})");
    r
}

/// A bench file written by `write_bench_json`, with every section filled.
fn rendered_bench_file() -> String {
    ft_obs::set_enabled(true);
    REQUESTS.add(12);
    RATE.set(1234.5678);
    UNSET.set(f64::NAN);
    LOSS.observe(0.25);
    {
        let _s = ft_obs::span("jsonprop_span");
    }
    let records = [
        ft_obs::Record::new("train_epoch").u64("epoch", 3).f64("loss", 0.125).f64("lr", f64::NAN),
        ft_obs::Record::new("note").str("text", "quote \" slash \\ tab \t é 😀").bool("ok", true),
    ];
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let name = format!("ft_obs_jsonprop_{}_{seq}.json", std::process::id());
    let path = std::env::temp_dir().join(name);
    ft_obs::bench::write_bench_json(&path, "experiment", "jsonprop", 1.5, &records).unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).ok();
    text
}

/// Reads `text` with both the raw reader and the bench-file parser; a
/// panic fails the test, an error is the typed outcome.
fn read(text: &str) -> bool {
    let parsed = json::parse(text);
    let bench = parse_bench_file(text);
    assert!(parsed.is_ok() || bench.is_err(), "bench parse succeeded on invalid JSON");
    parsed.is_ok()
}

#[test]
fn rendered_bench_file_reads_back() {
    let _serial = serial();
    let text = rendered_bench_file();
    let root = json::parse(&text).unwrap();
    assert_eq!(root.get("wall_seconds"), Some(&Json::Num(1.5)));
    let gauges = root.get("gauges").unwrap();
    assert_eq!(gauges.get("jsonprop.unset"), Some(&Json::Null));
    let records = match root.get("records") {
        Some(Json::Arr(r)) => r,
        other => panic!("records: {other:?}"),
    };
    assert_eq!(records[0].get("lr"), Some(&Json::Null));
    assert_eq!(
        records[1].get("text").and_then(Json::as_str),
        Some("quote \" slash \\ tab \t é 😀")
    );
    let f = parse_bench_file(&text).unwrap();
    assert!(f.metrics.iter().any(|m| m.name == "counters.jsonprop.requests" && m.value >= 12.0));
}

#[test]
fn truncated_bench_file_is_an_error() {
    let _serial = serial();
    let text = rendered_bench_file();
    // Every cut before the closing brace leaves the root object open.
    let close = text.rfind('}').unwrap();
    for (cut, _) in text.char_indices().take_while(|&(i, _)| i <= close) {
        assert!(!read(&text[..cut]), "cut at {cut} parsed");
    }
    assert!(read(&text[..close + 1]));
}

#[test]
fn nesting_is_bounded() {
    let _serial = serial();
    for bomb in ["[".repeat(1 << 16), "{\"a\":".repeat(1 << 14)] {
        let err = json::parse(&bomb).unwrap_err();
        assert!(err.contains("nesting deeper than"), "{err}");
    }
}

/// An arbitrary JSON value: strings with control, escape-worthy and
/// non-ASCII characters, integers up to `u64::MAX`, any finite `f64`.
struct AnyJson;

impl Strategy for AnyJson {
    type Value = Json;
    fn generate(&self, rng: &mut TestRng) -> Json {
        any_json(rng, 0)
    }
}

fn any_json(rng: &mut TestRng, depth: usize) -> Json {
    let kinds = if depth >= 4 { 5 } else { 7 };
    match rng.below(kinds) {
        0 => Json::Null,
        1 => Json::Bool(rng.below(2) == 1),
        2 => Json::Int([u64::MAX, rng.below(1000), rng.next_u64()][rng.below(3) as usize]),
        3 => Json::Num(any_finite(rng)),
        4 => Json::Str(any_string(rng)),
        5 => Json::Arr((0..rng.below(4)).map(|_| any_json(rng, depth + 1)).collect()),
        _ => Json::Obj(
            (0..rng.below(4)).map(|_| (any_string(rng), any_json(rng, depth + 1))).collect(),
        ),
    }
}

fn any_finite(rng: &mut TestRng) -> f64 {
    const SPECIAL: [f64; 9] =
        [0.0, -0.0, 3.0, 5e-324, f64::MAX, -f64::MIN_POSITIVE, 1e20, 0.1, -2.5];
    if rng.below(3) == 0 {
        return SPECIAL[rng.below(SPECIAL.len() as u64) as usize];
    }
    loop {
        let v = f64::from_bits(rng.next_u64());
        if v.is_finite() {
            return v;
        }
    }
}

fn any_string(rng: &mut TestRng) -> String {
    const PALETTE: &[char] = &[
        'a', 'Z', ' ', '"', '\\', '/', '\n', '\r', '\t', '\u{0}', '\u{1f}', '\u{7f}', 'é', '中',
        '😀',
    ];
    (0..rng.below(12))
        .map(|_| match rng.below(3) {
            0 => char::from_u32(rng.below(0x20) as u32).unwrap(),
            1 => char::from_u32(rng.below(0x11_0000) as u32).unwrap_or('\u{fffd}'),
            _ => PALETTE[rng.below(PALETTE.len() as u64) as usize],
        })
        .collect()
}

/// Equal up to the one lossy step of the text form: a float with an
/// integral value may come back as `Int`. Numbers compare by bits.
fn same(written: &Json, read: &Json) -> bool {
    match (written, read) {
        (Json::Arr(a), Json::Arr(b)) => {
            a.len() == b.len() && a.iter().zip(b).all(|(x, y)| same(x, y))
        }
        (Json::Obj(a), Json::Obj(b)) => {
            a.len() == b.len() && a.iter().zip(b).all(|((ka, x), (kb, y))| ka == kb && same(x, y))
        }
        (Json::Num(x), _) => read.as_f64().is_some_and(|y| x.to_bits() == y.to_bits()),
        _ => written == read,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn writer_output_reads_back(v in AnyJson) {
        let _serial = serial();
        let mut text = String::new();
        v.write(&mut text);
        let back = json::parse(&text).unwrap_or_else(|e| panic!("{e}: {text}"));
        prop_assert!(same(&v, &back), "{:?} came back as {:?} via {}", v, back, text);
    }

    #[test]
    fn random_bytes_never_panic(raw in proptest::collection::vec(0u64..256, 0..400)) {
        let _serial = serial();
        let raw: Vec<u8> = raw.into_iter().map(|b| b as u8).collect();
        let text = String::from_utf8_lossy(&raw);
        // The same bytes behind an opening bracket reach the containers.
        let opened = format!("[{text}");
        for input in [&*text, &opened] {
            within_heap_bound(input.len(), || read(input));
        }
    }

    #[test]
    fn flipped_bench_file_never_panics(picks in proptest::collection::vec(0usize..1 << 20, 64)) {
        let _serial = serial();
        let bytes = rendered_bench_file().into_bytes();
        for pick in picks {
            let mut corrupt = bytes.clone();
            corrupt[pick % bytes.len()] ^= 1 << (pick % 8);
            let text = String::from_utf8_lossy(&corrupt);
            within_heap_bound(text.len(), || read(&text));
        }
    }
}
