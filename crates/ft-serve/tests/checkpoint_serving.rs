//! End-to-end: a training checkpoint loads through the one model loader
//! (`Fno::load`, behind `ModelRegistry::load`) and serves the same
//! predictions as the live model; files that do not fit are typed errors.

use ft_serve::{ModelRegistry, RegistryError, ServeConfig, ServeEngine};
use ft_tensor::Tensor;
use fno_core::checkpoint::CheckpointError;
use fno_core::{Checkpoint, Fno, FnoConfig, FnoKind, ModelMeta};
use ft_nn::ParamValue;

fn tiny_cfg() -> FnoConfig {
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
    }
}

fn checkpoint_of(model: &mut Fno, meta: Option<ModelMeta>) -> Checkpoint {
    Checkpoint {
        epochs_done: 3,
        rng_state: 42,
        lr_scale: 1.0,
        stale: 0,
        sched_epoch: 3,
        adam: ft_nn::AdamState { m: vec![], v: vec![], t: 0 },
        train_loss: vec![0.9, 0.5, 0.3],
        eval_history: vec![],
        recoveries: vec![],
        best: None,
        params: ft_nn::snapshot_params(model),
        meta,
    }
}

fn tmp(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("ft_serve_ckpt_{}_{name}", std::process::id()))
}

#[test]
fn checkpoint_serves_identically_to_source_model() {
    let mut model = Fno::new(tiny_cfg(), 11);
    let meta = ModelMeta::from_config(model.config(), 8);
    let ck = checkpoint_of(&mut model, Some(meta));
    let path = tmp("good.ftc");
    ck.save(&path).unwrap();

    // The training state (epochs, losses, RNG) is ignored by the loader.
    let mut reg = ModelRegistry::new();
    reg.load("ck", &path).unwrap();

    let x = Tensor::from_fn(&[4, 8, 8], |i| (i[0] as f64 + i[1] as f64 * 0.3 + i[2] as f64).cos());
    let batched = Tensor::from_vec(
        &[1, 4, 8, 8],
        x.data().to_vec(),
    );
    let want = model.infer(&batched);

    let engine = ServeEngine::new(reg, ServeConfig::default());
    let got = engine.handle().predict("ck", x).unwrap();
    // Engine output drops the batch axis; compare raw data.
    assert_eq!(got.len(), want.len());
    for (a, b) in got.data().iter().zip(want.data()) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn checkpoint_without_meta_is_refused_with_typed_error() {
    let mut model = Fno::new(tiny_cfg(), 11);
    let ck = checkpoint_of(&mut model, None);
    let path = tmp("no_meta.ftc");
    ck.save(&path).unwrap();

    let mut reg = ModelRegistry::new();
    let err = reg.load("ck", &path).unwrap_err();
    assert!(matches!(
        err,
        RegistryError::Checkpoint(CheckpointError::MetaMissing)
    ));
    assert!(reg.is_empty(), "failed load must not register anything");
    std::fs::remove_file(&path).ok();
}

#[test]
fn inconsistent_meta_is_refused_before_weights_restore() {
    let mut model = Fno::new(tiny_cfg(), 11);
    // Lie about the width: the param count recorded in the file no longer
    // matches the architecture the metadata describes.
    let mut meta = ModelMeta::from_config(model.config(), 8);
    meta.width = 7;
    let ck = checkpoint_of(&mut model, Some(meta));
    let path = tmp("mismatch.ftc");
    ck.save(&path).unwrap();

    let mut reg = ModelRegistry::new();
    let err = reg.load("ck", &path).unwrap_err();
    assert!(matches!(
        err,
        RegistryError::Checkpoint(CheckpointError::MetaMismatch { field: "param_count", .. })
    ));
    assert!(reg.is_empty());
    std::fs::remove_file(&path).ok();
}

#[test]
fn transposed_weight_is_a_typed_error_not_a_panic() {
    // Consistent metadata, a valid CRC and the right element count, but
    // the first lifting weight ([3, 4]) is stored transposed as [4, 3].
    let mut model = Fno::new(tiny_cfg(), 11);
    let meta = ModelMeta::from_config(model.config(), 0);
    let mut params = ft_nn::snapshot_params(&mut model);
    let ParamValue::Real(w) = &params[0] else { panic!("lifting weight is real") };
    let (rows, cols) = (w.dims()[0], w.dims()[1]);
    assert_ne!(rows, cols, "a square weight would not change shape");
    let t = Tensor::from_fn(&[cols, rows], |i| w.at(&[i[1], i[0]]));
    params[0] = ParamValue::Real(t);
    let path = tmp("transposed.ftc");
    Checkpoint::model_file(meta, params).save(&path).unwrap();

    let mismatch = |e: &CheckpointError| {
        matches!(e, CheckpointError::MetaMismatch { field: "param_dim", expected: 3, found: 4 })
    };
    let err = Fno::load(&path).err().expect("transposed weight must be refused");
    assert!(mismatch(&err), "{err:?}");
    let mut reg = ModelRegistry::new();
    match reg.load("ck", &path) {
        Err(RegistryError::Checkpoint(e)) => assert!(mismatch(&e), "{e:?}"),
        other => panic!("expected a checkpoint error, got {:?}", other.err()),
    }
    assert!(reg.is_empty());
    std::fs::remove_file(&path).ok();
}
