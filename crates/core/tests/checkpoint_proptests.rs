//! Property-based tests for the `FTC1` container: arbitrary training states
//! round-trip exactly; no single-bit flip or truncation of the header
//! region is ever accepted (or panics) by `Checkpoint::load` or the model
//! loader `Fno::load`; and a model file corrupted behind a re-sealed CRC
//! never panics the model loader.

use fno_core::checkpoint::{crc32, Checkpoint, CheckpointError};
use fno_core::{Fno, FnoConfig, FnoKind, RecoveryCause, RecoveryEvent};
use ft_nn::{AdamState, ParamValue};
use ft_tensor::{CTensor, Complex64, Tensor};
use proptest::prelude::*;

/// Deterministic pseudo-random f64 stream for payload content.
fn floats(seed: u64) -> impl FnMut() -> f64 {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
    }
}

/// Builds a checkpoint whose every field is derived from the inputs,
/// covering real and complex parameters, empty and non-empty histories,
/// and the optional best snapshot.
fn arbitrary_checkpoint(
    seed: u64,
    n_params: usize,
    param_len: usize,
    n_loss: usize,
    with_best: bool,
) -> Checkpoint {
    let mut f = floats(seed);
    let mut params: Vec<ParamValue> = Vec::new();
    let mut m = Vec::new();
    let mut v = Vec::new();
    for i in 0..n_params {
        let len = 1 + (i + param_len) % 5;
        if i % 2 == 0 {
            params.push(ParamValue::Real(Tensor::from_vec(
                &[len],
                (0..len).map(|_| f()).collect(),
            )));
            m.push((0..len).map(|_| f()).collect::<Vec<f64>>());
            v.push((0..len).map(|_| f().abs()).collect::<Vec<f64>>());
        } else {
            params.push(ParamValue::Complex(CTensor::from_vec(
                &[len],
                (0..len).map(|_| Complex64::new(f(), f())).collect(),
            )));
            m.push((0..2 * len).map(|_| f()).collect::<Vec<f64>>());
            v.push((0..2 * len).map(|_| f().abs()).collect::<Vec<f64>>());
        }
    }
    Checkpoint {
        epochs_done: seed % 1000,
        rng_state: seed.wrapping_mul(31),
        lr_scale: 0.5f64.powi((seed % 4) as i32),
        stale: seed % 7,
        sched_epoch: seed % 1000,
        adam: AdamState { m, v, t: seed % 100_000 },
        train_loss: (0..n_loss).map(|_| f().abs()).collect(),
        eval_history: (0..n_loss / 2).map(|i| (i as u64, f().abs())).collect(),
        recoveries: (0..seed % 3)
            .map(|i| RecoveryEvent {
                epoch: i as usize,
                batch: (seed % 11) as usize,
                cause: if i % 2 == 0 {
                    RecoveryCause::NonFiniteLoss
                } else {
                    RecoveryCause::NonFiniteGrad
                },
                lr: f().abs(),
            })
            .collect(),
        best: with_best.then(|| {
            (
                seed % 50,
                f().abs(),
                vec![ParamValue::Real(Tensor::from_vec(&[2], vec![f(), f()]))],
            )
        }),
        params,
        meta: (seed.is_multiple_of(2)).then(|| fno_core::checkpoint::ModelMeta {
            kind: if seed.is_multiple_of(4) {
                fno_core::config::FnoKind::TwoDChannels
            } else {
                fno_core::config::FnoKind::ThreeD
            },
            width: 1 + seed % 64,
            layers: 1 + seed % 8,
            modes: 1 + seed % 32,
            in_channels: 1 + seed % 10,
            out_channels: 1 + seed % 10,
            lifting_channels: 1 + seed % 256,
            projection_channels: 1 + seed % 256,
            norm: seed.is_multiple_of(3),
            grid: seed % 512,
        }),
    }
}

fn assert_roundtrip(ck: &Checkpoint, tag: &str) {
    let p = tmp(tag);
    ck.save(&p).unwrap();
    let back = Checkpoint::load(&p).unwrap();
    std::fs::remove_file(&p).ok();

    assert_eq!(back.epochs_done, ck.epochs_done);
    assert_eq!(back.rng_state, ck.rng_state);
    assert_eq!(back.lr_scale.to_bits(), ck.lr_scale.to_bits());
    assert_eq!(back.stale, ck.stale);
    assert_eq!(back.sched_epoch, ck.sched_epoch);
    assert_eq!(back.adam, ck.adam);
    assert_eq!(back.train_loss, ck.train_loss);
    assert_eq!(back.eval_history, ck.eval_history);
    assert_eq!(back.recoveries, ck.recoveries);
    assert_eq!(back.best.is_some(), ck.best.is_some());
    assert_eq!(back.params.len(), ck.params.len());
    assert_eq!(back.meta, ck.meta);
    for (a, b) in back.params.iter().zip(&ck.params) {
        match (a, b) {
            (ParamValue::Real(x), ParamValue::Real(y)) => assert!(x.allclose(y, 0.0)),
            (ParamValue::Complex(x), ParamValue::Complex(y)) => {
                assert_eq!(x.dims(), y.dims());
                for (za, zb) in x.data().iter().zip(y.data()) {
                    assert_eq!(za.re.to_bits(), zb.re.to_bits());
                    assert_eq!(za.im.to_bits(), zb.im.to_bits());
                }
            }
            _ => panic!("parameter kind changed across the round trip"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn ftc1_roundtrips_exactly(
        seed in 0u64..10_000,
        n_params in 0usize..6,
        param_len in 0usize..4,
        n_loss in 0usize..8,
        with_best in 0usize..2,
    ) {
        let ck = arbitrary_checkpoint(seed, n_params, param_len, n_loss, with_best == 1);
        assert_roundtrip(&ck, "rt");
    }

    #[test]
    fn header_region_flips_and_truncations_never_parse(seed in 0u64..200) {
        let p = tmp("flip");
        // A synthetic training state and a real model file.
        arbitrary_checkpoint(seed, 2, 2, 3, true).save(&p).unwrap();
        let ck_bytes = std::fs::read(&p).unwrap();
        let model_bytes = model_file_bytes(seed, &p);
        for bytes in [&ck_bytes, &model_bytes] {
            // Every single-bit flip in the 16-byte header (magic + CRC +
            // length) and the first payload bytes must be InvalidData.
            let region = 48.min(bytes.len());
            for byte in 0..region {
                for bit in 0..8 {
                    let mut corrupt = bytes.clone();
                    corrupt[byte] ^= 1 << bit;
                    std::fs::write(&p, &corrupt).unwrap();
                    let err = Checkpoint::load(&p).expect_err("corruption must be rejected");
                    let corrupt = matches!(err, CheckpointError::Corrupt(_));
                    prop_assert!(corrupt, "byte {} bit {}: {}", byte, bit, err);
                    prop_assert!(Fno::load(&p).is_err(), "byte {} bit {}", byte, bit);
                }
            }
            // So must every cut inside that region and a few beyond it.
            let cuts = (0..region).chain([bytes.len() / 2, bytes.len() - 1]);
            for cut in cuts {
                std::fs::write(&p, &bytes[..cut]).unwrap();
                let err = Checkpoint::load(&p).expect_err("truncation must be rejected");
                let corrupt = matches!(err, CheckpointError::Corrupt(_));
                prop_assert!(corrupt, "cut at {}: {}", cut, err);
                prop_assert!(Fno::load(&p).is_err(), "cut at {}", cut);
            }
        }
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn resealed_model_file_corruption_never_panics_the_loader(
        seed in 0u64..10_000,
        picks in proptest::collection::vec(0usize..1 << 20, 16),
    ) {
        let p = tmp("reseal");
        let bytes = model_file_bytes(seed, &p);
        // Flip one bit of the payload, then recompute the CRC so the
        // corruption reaches the metadata, blob and per-tensor checks.
        for pick in picks {
            let mut corrupt = bytes.clone();
            let byte = 16 + pick % (bytes.len() - 16);
            corrupt[byte] ^= 1 << (pick % 8);
            let crc = crc32(&corrupt[16..]);
            corrupt[4..8].copy_from_slice(&crc.to_le_bytes());
            std::fs::write(&p, &corrupt).unwrap();
            // Either outcome is fine (a flipped weight still loads); a
            // panic is not.
            let _ = Fno::load(&p);
        }
        std::fs::remove_file(&p).ok();
    }
}

fn tmp(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("ftc_prop_{}_{tag}.ftc", std::process::id()))
}

/// The bytes of a small 2D or 3D model file (`Fno::save`), written via `p`.
fn model_file_bytes(seed: u64, p: &std::path::Path) -> Vec<u8> {
    let cfg = FnoConfig {
        kind: if seed.is_multiple_of(2) { FnoKind::TwoDChannels } else { FnoKind::ThreeD },
        width: 2,
        layers: 1,
        modes: 2,
        in_channels: 2,
        out_channels: 1,
        lifting_channels: 3,
        projection_channels: 3,
        norm: seed.is_multiple_of(3),
    };
    Fno::new(cfg, seed).save(p).unwrap();
    std::fs::read(p).unwrap()
}
