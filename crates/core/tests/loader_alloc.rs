//! Bounded allocation in the binary loaders. `load_tensor` (FTT1),
//! `load_param_values_from` (FTW1) and `Checkpoint::load` (FTC1)
//! must turn hostile bytes — random input, single-bit flips (with the FTC1
//! CRC resealed), truncations, and length fields set to 2^20, 2^32 or
//! `u64::MAX` — into a value or a typed error, never a panic, and while
//! doing so must never hold more than 16 heap bytes per input byte plus
//! 64 KiB.
//!
//! Own test binary (same convention as `crates/ft-serve/tests/payload_alloc.rs`):
//! the counting global allocator sees every allocation in the process, so
//! each test holds one lock for its whole run and no two measure at once.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::ErrorKind;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use fno_core::checkpoint::{crc32, Checkpoint, CheckpointError, ModelMeta};
use fno_core::{FnoKind, RecoveryCause, RecoveryEvent};
use ft_data::{load_tensor, save_tensor};
use ft_nn::{load_param_values_from, save_param_values_to, AdamState, ParamValue};
use ft_tensor::{CTensor, Complex64, Tensor};
use proptest::prelude::*;

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

/// The peak heap growth, in bytes, while `f` runs.
fn peak_during<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let base = LIVE.load(Ordering::SeqCst);
    PEAK.store(base, Ordering::SeqCst);
    let r = f();
    (r, PEAK.load(Ordering::SeqCst) - base)
}

#[derive(Clone, Copy, Debug)]
enum Format {
    Ftt1,
    Ftw1,
    Ftc1,
}

fn tmp(format: Format) -> PathBuf {
    std::env::temp_dir().join(format!("loader_alloc_{}_{format:?}", std::process::id()))
}

/// Loads `bytes` as `format` and checks the two contracts: the outcome is
/// a value or a typed error (`InvalidData`, or a non-I/O
/// `CheckpointError`), and the heap never grew past the bound.
fn check(format: Format, bytes: &[u8], case: &str) {
    let path = tmp(format);
    if !matches!(format, Format::Ftw1) {
        std::fs::write(&path, bytes).unwrap();
    }
    let (untyped, peak) = peak_during(|| match format {
        Format::Ftt1 => load_tensor(&path).err().filter(|e| e.kind() != ErrorKind::InvalidData),
        Format::Ftw1 => load_param_values_from(&mut &bytes[..])
            .err()
            .filter(|e| e.kind() != ErrorKind::InvalidData),
        Format::Ftc1 => match Checkpoint::load(&path) {
            Err(CheckpointError::Io(e)) => Some(e),
            _ => None,
        },
    });
    assert!(untyped.is_none(), "{format:?} {case}: untyped error {untyped:?}");
    let bound = 16 * bytes.len() + (64 << 10);
    assert!(
        peak <= bound,
        "{format:?} {case}: {} input bytes held {peak} heap bytes (bound {bound})",
        bytes.len()
    );
}

/// Recomputes an FTC1 file's length and CRC fields for its current payload,
/// so a corruption behind them reaches the payload parser.
fn reseal(mut bytes: Vec<u8>) -> Vec<u8> {
    let len = (bytes.len() - 16) as u64;
    bytes[8..16].copy_from_slice(&len.to_le_bytes());
    let crc = crc32(&bytes[16..]);
    bytes[4..8].copy_from_slice(&crc.to_le_bytes());
    bytes
}

/// FTC1 files are resealed after a change behind the header.
fn prepare(format: Format, bytes: Vec<u8>) -> Vec<u8> {
    match format {
        Format::Ftc1 if bytes.len() >= 16 => reseal(bytes),
        _ => bytes,
    }
}

/// Where each format's body starts: FTC1 mutations go behind the header.
fn body_start(format: Format) -> usize {
    match format {
        Format::Ftc1 => 16,
        _ => 0,
    }
}

/// The magic (and for FTC1 the header and version) that random bytes are
/// put behind.
fn prefix(format: Format) -> usize {
    match format {
        Format::Ftc1 => 20,
        _ => 4,
    }
}

fn meta() -> ModelMeta {
    ModelMeta {
        kind: FnoKind::TwoDChannels,
        width: 2,
        layers: 1,
        modes: 2,
        in_channels: 2,
        out_channels: 1,
        lifting_channels: 3,
        projection_channels: 3,
        norm: false,
        grid: 8,
    }
}

/// A valid encoding of each format, with every kind of length field.
fn valid(format: Format) -> Vec<u8> {
    let params = vec![
        ParamValue::Real(Tensor::from_vec(&[2, 2], vec![1.0, -1.0, 0.5, 0.0])),
        ParamValue::Complex(CTensor::from_vec(&[1, 2], vec![Complex64::new(0.3, -0.7); 2])),
    ];
    match format {
        Format::Ftt1 => {
            let path = tmp(format);
            save_tensor(&path, &Tensor::from_fn(&[2, 3, 4], |i| i[2] as f64 - 1.5)).unwrap();
            std::fs::read(&path).unwrap()
        }
        Format::Ftw1 => {
            let mut buf = Vec::new();
            save_param_values_to(&params, &mut buf).unwrap();
            buf
        }
        Format::Ftc1 => {
            let ck = Checkpoint {
                epochs_done: 3,
                rng_state: 99,
                lr_scale: 0.5,
                stale: 1,
                sched_epoch: 3,
                adam: AdamState { m: vec![vec![0.1; 4]; 2], v: vec![vec![0.3; 4]; 2], t: 9 },
                train_loss: vec![1.0, 0.5, 0.25],
                eval_history: vec![(1, 0.6), (3, 0.4)],
                recoveries: vec![RecoveryEvent {
                    epoch: 2,
                    batch: 1,
                    cause: RecoveryCause::NonFiniteGrad,
                    lr: 1e-3,
                }],
                best: Some((3, 0.4, params[..1].to_vec())),
                params,
                meta: Some(meta()),
            };
            let path = tmp(format);
            ck.save(&path).unwrap();
            std::fs::read(&path).unwrap()
        }
    }
}

const FORMATS: [Format; 3] = [Format::Ftt1, Format::Ftw1, Format::Ftc1];

/// The two inputs that made the loaders reserve tens of megabytes from a
/// declared count alone: an FTW1 blob declaring 2^20 tensors, and a 73-byte
/// FTC1 file (valid CRC) declaring 2^20 Adam moment vectors.
#[test]
fn declared_counts_alone_allocate_nothing() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let mut blob = b"FTW1".to_vec();
    blob.extend_from_slice(&(1u32 << 20).to_le_bytes());
    check(Format::Ftw1, &blob, "count 2^20, no tensors");

    let mut file = vec![0u8; 16];
    file[..4].copy_from_slice(b"FTC1");
    file.extend_from_slice(&2u32.to_le_bytes()); // version
    file.push(0); // no metadata
    file.extend_from_slice(&[0u8; 48]); // epochs .. sched_epoch, Adam t
    file.extend_from_slice(&(1u32 << 20).to_le_bytes()); // Adam n_params
    let file = reseal(file);
    assert_eq!(file.len(), 73);
    check(Format::Ftc1, &file, "Adam n_params 2^20, no moments");
    remove_files();
}

fn remove_files() {
    for format in FORMATS {
        std::fs::remove_file(tmp(format)).ok();
    }
}

/// The most items per input byte the formats allow: 10^5 scalar FTW1
/// tensors (13 bytes each), and an FTC1 file with 10^5 empty Adam moment
/// pairs (8 bytes each). Their per-item heap is what the 16-bytes-per-byte
/// part of the bound has to cover.
#[test]
fn smallest_items_stay_within_the_per_byte_bound() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let scalars = vec![ParamValue::Real(Tensor::from_vec(&[], vec![0.5])); 100_000];
    let mut blob = Vec::new();
    save_param_values_to(&scalars, &mut blob).unwrap();
    check(Format::Ftw1, &blob, "10^5 scalar tensors");

    let mut ck = Checkpoint::model_file(meta(), Vec::new());
    ck.adam = AdamState { m: vec![Vec::new(); 100_000], v: vec![Vec::new(); 100_000], t: 1 };
    ck.save(tmp(Format::Ftc1)).unwrap();
    check(Format::Ftc1, &std::fs::read(tmp(Format::Ftc1)).unwrap(), "10^5 empty moment pairs");
    remove_files();
}

/// Every 4- and 8-byte window of each body set to a huge length: this
/// reaches every count, rank, dimension and length field of all three
/// formats, wherever it sits.
#[test]
fn length_fields_set_to_huge_values() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let values: [&[u8]; 5] = [
        &(1u32 << 20).to_le_bytes(),
        &u32::MAX.to_le_bytes(),
        &(1u64 << 20).to_le_bytes(),
        &(1u64 << 32).to_le_bytes(),
        &u64::MAX.to_le_bytes(),
    ];
    for format in FORMATS {
        let good = valid(format);
        check(format, &good, "valid");
        for at in body_start(format)..good.len() {
            for v in values.iter().filter(|v| at + v.len() <= good.len()) {
                let mut bytes = good.clone();
                bytes[at..at + v.len()].copy_from_slice(v);
                check(format, &prepare(format, bytes), &format!("{v:?} at {at}"));
            }
        }
    }
    remove_files();
}

/// A small SplitMix64 stream for byte content.
fn bytes_from(seed: u64, len: usize) -> Vec<u8> {
    let mut state = seed;
    (0..len)
        .map(|_| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) as u8
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn hostile_bytes_are_typed_errors_with_bounded_heap(
        seed in 0u64..1 << 40,
        len in 0usize..512,
        picks in proptest::collection::vec(0usize..1 << 20, 24),
    ) {
        let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        for format in FORMATS {
            let good = valid(format);
            let start = body_start(format);

            // Random bytes, bare and behind the valid header, so they reach
            // the field parser.
            let noise = bytes_from(seed, len);
            check(format, &noise, "random bytes");
            let mut behind = good[..prefix(format)].to_vec();
            behind.extend_from_slice(&noise);
            check(format, &prepare(format, behind), "header + random bytes");

            for &pick in &picks {
                // A single-bit flip behind the header.
                let mut flipped = good.clone();
                flipped[start + pick % (good.len() - start)] ^= 1 << (pick % 8);
                check(format, &prepare(format, flipped), &format!("bit flip {pick}"));

                // A truncation anywhere, and one of the body behind a
                // resealed header.
                let cut = pick % good.len();
                check(format, &good[..cut], &format!("cut at {cut}"));
                let cut = start + pick % (good.len() - start);
                let body_cut = prepare(format, good[..cut].to_vec());
                check(format, &body_cut, &format!("body cut at {cut}"));
            }
        }
        remove_files();
    }
}
