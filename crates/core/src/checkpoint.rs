//! The `FTC1` container: full-state training checkpoints and model files.
//!
//! A checkpoint captures everything [`crate::Trainer::train`] needs to
//! continue a run **bit-identically**: model parameters and the best-seen
//! snapshot (embedded as FTW1 blobs), Adam moment estimates, the StepLR
//! epoch, the shuffle RNG state, loss/eval histories, the early-stopping
//! stale counter, the recovery LR scale, and the recovery event log.
//!
//! On-disk layout (little-endian):
//!
//! ```text
//! "FTC1" | crc32 (u32) | payload_len (u64) | payload
//! ```
//!
//! The CRC covers the payload; the loader verifies magic, exact length,
//! and checksum before parsing a single field, so any corruption —
//! truncation, bit flips, wrong file — is rejected with
//! [`CheckpointError::Corrupt`] (`InvalidData` as an `io::Error`) instead
//! of a panic or a silently wrong resume. Writes go through a temp file in the target directory
//! followed by an atomic rename, so a crash mid-write never leaves a
//! half-written file under the checkpoint's final name.
//!
//! The payload (version 2, the only one this build reads) starts with a
//! self-describing [`ModelMeta`] section (architecture kind, modes, width,
//! channels, training grid), so a loader can validate a file against the
//! model it is about to build **before** instantiating weights — a
//! mismatch surfaces as a typed [`CheckpointError`] instead of a late
//! panic at tensor-reshape time.
//!
//! The same container is the on-disk model format: [`Checkpoint::model_file`]
//! holds the metadata and the weights with every training-state field
//! empty, and `Fno::load` reads either that or a trainer's `latest.ftc`.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use ft_nn::{
    load_param_values_from, save_param_values_to, AdamState, Layer, ParamKind, ParamValue,
};
use ft_tensor::codec::{invalid, Reader, Writer};

use crate::config::{FnoConfig, FnoKind};
use crate::train::{RecoveryCause, RecoveryEvent};

const MAGIC: &[u8; 4] = b"FTC1";
/// The one payload version read and written; any other is
/// [`CheckpointError::UnsupportedVersion`].
const VERSION: u32 = 2;

/// Typed failure modes of [`Checkpoint::load`] and
/// [`Checkpoint::validate_meta`]. Converts into `io::Error(InvalidData)`
/// (or the underlying error, for [`CheckpointError::Io`]) for callers on
/// an `io::Result` path such as [`crate::Trainer::resume_from`].
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem-level failure reading the file.
    Io(io::Error),
    /// Bad magic, length, checksum, or unparseable payload.
    Corrupt(String),
    /// Payload version other than the one this build reads.
    UnsupportedVersion(u32),
    /// The file carries no model metadata, but the caller requires it.
    MetaMissing,
    /// A metadata field, or a stored weight tensor, disagrees with the
    /// expected architecture.
    MetaMismatch {
        /// Which architecture field disagrees (`param_tensors`,
        /// `param_kind`, `param_rank` and `param_dim` name a stored weight
        /// that does not fit the live model).
        field: &'static str,
        /// Value the caller's configuration expects.
        expected: u64,
        /// Value recorded in the checkpoint.
        found: u64,
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::Corrupt(msg) => write!(f, "corrupt checkpoint: {msg}"),
            CheckpointError::UnsupportedVersion(v) => {
                write!(f, "unsupported FTC payload version {v}")
            }
            CheckpointError::MetaMissing => {
                write!(f, "checkpoint has no model metadata")
            }
            CheckpointError::MetaMismatch { field, expected, found } => write!(
                f,
                "checkpoint does not fit the architecture: {field} expected {expected}, \
                 found {found}"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

impl From<CheckpointError> for io::Error {
    fn from(e: CheckpointError) -> Self {
        match e {
            CheckpointError::Io(inner) => inner,
            other => io::Error::new(io::ErrorKind::InvalidData, other.to_string()),
        }
    }
}

/// Self-describing architecture record embedded in checkpoints.
///
/// Mirrors [`FnoConfig`] plus the training grid resolution (informational —
/// FNOs are resolution-invariant, so `grid` is recorded but never
/// validated).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ModelMeta {
    /// 2D-with-channels or 3D.
    pub kind: FnoKind,
    /// Hidden channel width of the Fourier layers.
    pub width: u64,
    /// Number of Fourier layers.
    pub layers: u64,
    /// Retained Fourier modes per axis.
    pub modes: u64,
    /// Input channels.
    pub in_channels: u64,
    /// Output channels.
    pub out_channels: u64,
    /// Lifting MLP hidden width.
    pub lifting_channels: u64,
    /// Projection MLP hidden width.
    pub projection_channels: u64,
    /// Per-layer instance normalization present.
    pub norm: bool,
    /// Spatial grid resolution the model was trained at (0 = unknown).
    pub grid: u64,
}

impl ModelMeta {
    /// Captures the metadata of a configuration trained at `grid`.
    pub fn from_config(cfg: &FnoConfig, grid: usize) -> Self {
        ModelMeta {
            kind: cfg.kind,
            width: cfg.width as u64,
            layers: cfg.layers as u64,
            modes: cfg.modes as u64,
            in_channels: cfg.in_channels as u64,
            out_channels: cfg.out_channels as u64,
            lifting_channels: cfg.lifting_channels as u64,
            projection_channels: cfg.projection_channels as u64,
            norm: cfg.norm,
            grid: grid as u64,
        }
    }

    /// Reconstructs the [`FnoConfig`] this metadata describes.
    pub fn to_config(&self) -> FnoConfig {
        FnoConfig {
            kind: self.kind,
            width: self.width as usize,
            layers: self.layers as usize,
            modes: self.modes as usize,
            in_channels: self.in_channels as usize,
            out_channels: self.out_channels as usize,
            lifting_channels: self.lifting_channels as usize,
            projection_channels: self.projection_channels as usize,
            norm: self.norm,
        }
    }

    fn kind_code(kind: FnoKind) -> u8 {
        match kind {
            FnoKind::TwoDChannels => 0,
            FnoKind::ThreeD => 1,
        }
    }
}

/// Where and how often [`crate::Trainer`] writes checkpoints.
#[derive(Clone, Debug)]
pub struct CheckpointConfig {
    /// Directory for checkpoint files (created if missing). Each save
    /// writes `epoch-NNNNN.ftc` and refreshes `latest.ftc`.
    pub dir: PathBuf,
    /// Save every this many epochs (0 disables periodic saves; a final
    /// checkpoint is still written when training ends).
    pub every: usize,
    /// Keep at most this many `epoch-*.ftc` files, deleting the oldest
    /// (0 keeps all). `latest.ftc` is never pruned.
    pub keep_last: usize,
}

impl CheckpointConfig {
    /// Checkpoints to `dir` every `every` epochs, keeping all files.
    pub fn new(dir: impl Into<PathBuf>, every: usize) -> Self {
        CheckpointConfig { dir: dir.into(), every, keep_last: 0 }
    }
}

/// Complete training state at an epoch boundary.
#[derive(Clone, Debug)]
pub struct Checkpoint {
    /// Epochs fully completed; resume starts at this epoch index.
    pub epochs_done: u64,
    /// Shuffle RNG state at the epoch boundary.
    pub rng_state: u64,
    /// Cumulative recovery LR multiplier (halved by each rollback).
    pub lr_scale: f64,
    /// Consecutive non-improving evaluations (early stopping).
    pub stale: u64,
    /// StepLR epochs elapsed.
    pub sched_epoch: u64,
    /// Adam moments and step count.
    pub adam: AdamState,
    /// Mean training loss per completed epoch.
    pub train_loss: Vec<f64>,
    /// `(epoch, held-out error)` per evaluation so far.
    pub eval_history: Vec<(u64, f64)>,
    /// Health-monitor recovery events so far.
    pub recoveries: Vec<RecoveryEvent>,
    /// Best-seen snapshot: `(epoch, error, weights)`.
    pub best: Option<(u64, f64, Vec<ParamValue>)>,
    /// Current model weights.
    pub params: Vec<ParamValue>,
    /// Architecture self-description (`None` for models that cannot
    /// describe themselves, e.g. DeepONet).
    pub meta: Option<ModelMeta>,
}

impl Checkpoint {
    /// A model file: the architecture `meta` and the weights `params`, with
    /// every training-state field empty (`lr_scale` is the neutral 1). The
    /// bytes then depend on the weights alone.
    pub fn model_file(meta: ModelMeta, params: Vec<ParamValue>) -> Self {
        Checkpoint { params, ..Self::empty(Some(meta)) }
    }

    /// A run that has not started: no weights and every training-state
    /// field empty (`lr_scale` is the neutral 1).
    pub(crate) fn empty(meta: Option<ModelMeta>) -> Self {
        Checkpoint {
            epochs_done: 0,
            rng_state: 0,
            lr_scale: 1.0,
            stale: 0,
            sched_epoch: 0,
            adam: AdamState::default(),
            train_loss: Vec::new(),
            eval_history: Vec::new(),
            recoveries: Vec::new(),
            best: None,
            params: Vec::new(),
            meta,
        }
    }

    /// Serializes and atomically writes the checkpoint to `path`
    /// ([`ft_obs::bench::write_atomic`]), creating missing parent
    /// directories.
    pub fn save(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let mut payload = Vec::new();
        self.write_payload(&mut payload)?;
        let mut bytes = MAGIC.to_vec();
        bytes.put_u32(crc32(&payload));
        bytes.put_u64(payload.len() as u64);
        bytes.put_bytes(&payload);
        ft_obs::bench::write_atomic(path.as_ref(), &bytes)
    }

    /// Loads and validates a checkpoint. Magic, length, and CRC are checked
    /// before any field is parsed: header/CRC problems are
    /// [`CheckpointError::Corrupt`], unknown payload versions are
    /// [`CheckpointError::UnsupportedVersion`], filesystem problems are
    /// [`CheckpointError::Io`].
    pub fn load(path: impl AsRef<Path>) -> Result<Checkpoint, CheckpointError> {
        let path = path.as_ref();
        let bad = |msg: &str| CheckpointError::Corrupt(msg.to_string());
        let bytes = fs::read(path)?;
        let mut r = &bytes[..];
        let (Ok(magic), Ok(stored_crc), Ok(payload_len)) = (r.array::<4>(), r.u32(), r.u64())
        else {
            return Err(bad("checkpoint too short for FTC1 header"));
        };
        if &magic != MAGIC {
            return Err(bad("not an FTC1 checkpoint"));
        }
        if payload_len != r.len() as u64 {
            return Err(bad("checkpoint length does not match header"));
        }
        if crc32(r) != stored_crc {
            return Err(bad("checkpoint checksum mismatch"));
        }
        let version = r.u32().map_err(|e| bad(&e.to_string()))?;
        if version != VERSION {
            return Err(CheckpointError::UnsupportedVersion(version));
        }
        let ck = Self::read_payload(&mut r)
            .and_then(|ck| r.finish().map(|()| ck))
            .map_err(|e| bad(&e.to_string()))?;
        ft_obs::flight::event_with(|| {
            ft_obs::Record::new("event")
                .str("kind", "checkpoint_restore")
                .str("path", &path.display().to_string())
                .u64("epoch", ck.epochs_done)
        });
        Ok(ck)
    }

    /// Checks the embedded [`ModelMeta`] against an expected architecture
    /// **before** any weights are instantiated. A file without metadata
    /// fails with [`CheckpointError::MetaMissing`]; any disagreeing field
    /// fails with [`CheckpointError::MetaMismatch`]. As a final guard against a
    /// metadata section inconsistent with its own weights, the total
    /// parameter count of the stored snapshot must equal the
    /// configuration's closed-form count.
    pub fn validate_meta(&self, expected: &FnoConfig) -> Result<(), CheckpointError> {
        let meta = self.meta.as_ref().ok_or(CheckpointError::MetaMissing)?;
        let want = ModelMeta::from_config(expected, meta.grid as usize);
        let fields: [(&'static str, u64, u64); 9] = [
            (
                "kind",
                ModelMeta::kind_code(want.kind) as u64,
                ModelMeta::kind_code(meta.kind) as u64,
            ),
            ("width", want.width, meta.width),
            ("layers", want.layers, meta.layers),
            ("modes", want.modes, meta.modes),
            ("in_channels", want.in_channels, meta.in_channels),
            ("out_channels", want.out_channels, meta.out_channels),
            ("lifting_channels", want.lifting_channels, meta.lifting_channels),
            ("projection_channels", want.projection_channels, meta.projection_channels),
            ("norm", want.norm as u64, meta.norm as u64),
        ];
        for (field, expected, found) in fields {
            if expected != found {
                return Err(CheckpointError::MetaMismatch { field, expected, found });
            }
        }
        let stored: usize = self.params.iter().map(|p| p.dims().iter().product::<usize>()).sum();
        // Checked, so a corrupt metadata section that still passes the
        // CRC cannot overflow the closed form.
        let declared = expected.checked_param_count();
        if declared != Some(stored) {
            return Err(CheckpointError::MetaMismatch {
                field: "param_count",
                expected: declared.map_or(u64::MAX, |d| d as u64),
                found: stored as u64,
            });
        }
        Ok(())
    }

    /// Checks the stored weights against `model` tensor by tensor — count,
    /// then kind (real/complex), rank and dims of each — so that
    /// `ft_nn::restore_params` cannot panic on them. A mismatch is a
    /// [`CheckpointError::MetaMismatch`] naming the first disagreement.
    pub fn check_params(&self, model: &mut dyn Layer) -> Result<(), CheckpointError> {
        let mut live: Vec<(u64, Vec<usize>)> = Vec::new();
        model.visit_params(&mut |p| live.push((kind_code(&p), p.dims().to_vec())));
        let mismatch = |field, expected: u64, found: u64| {
            Err(CheckpointError::MetaMismatch { field, expected, found })
        };
        if live.len() != self.params.len() {
            return mismatch("param_tensors", live.len() as u64, self.params.len() as u64);
        }
        for ((kind, dims), stored) in live.iter().zip(&self.params) {
            let (stored_kind, stored_dims) = (kind_code(stored), stored.dims());
            if *kind != stored_kind {
                return mismatch("param_kind", *kind, stored_kind);
            }
            if dims.len() != stored_dims.len() {
                return mismatch("param_rank", dims.len() as u64, stored_dims.len() as u64);
            }
            if let Some((&e, &f)) = dims.iter().zip(stored_dims).find(|(e, f)| e != f) {
                return mismatch("param_dim", e as u64, f as u64);
            }
        }
        Ok(())
    }

    fn write_payload(&self, out: &mut Vec<u8>) -> io::Result<()> {
        out.put_u32(VERSION);
        match &self.meta {
            None => out.put_u8(0),
            Some(m) => {
                out.put_u8(1);
                out.put_u8(ModelMeta::kind_code(m.kind));
                out.put_u8(u8::from(m.norm));
                for v in [
                    m.width,
                    m.layers,
                    m.modes,
                    m.in_channels,
                    m.out_channels,
                    m.lifting_channels,
                    m.projection_channels,
                    m.grid,
                ] {
                    out.put_u64(v);
                }
            }
        }
        out.put_u64(self.epochs_done);
        out.put_u64(self.rng_state);
        out.put_f64(self.lr_scale);
        out.put_u64(self.stale);
        out.put_u64(self.sched_epoch);

        out.put_u64(self.adam.t);
        out.put_u32(self.adam.m.len() as u32);
        for (m, v) in self.adam.m.iter().zip(&self.adam.v) {
            out.put_u64(m.len() as u64);
            out.put_f64s(m);
            out.put_f64s(v);
        }

        out.put_u64(self.train_loss.len() as u64);
        out.put_f64s(&self.train_loss);
        out.put_u64(self.eval_history.len() as u64);
        for &(e, err) in &self.eval_history {
            out.put_u64(e);
            out.put_f64(err);
        }
        out.put_u32(self.recoveries.len() as u32);
        for r in &self.recoveries {
            out.put_u64(r.epoch as u64);
            out.put_u64(r.batch as u64);
            out.put_u8(r.cause as u8);
            out.put_f64(r.lr);
        }

        match &self.best {
            None => out.put_u8(0),
            Some((epoch, err, snap)) => {
                out.put_u8(1);
                out.put_u64(*epoch);
                out.put_f64(*err);
                save_param_values_to(snap, out)?;
            }
        }
        save_param_values_to(&self.params, out)
    }

    /// Decodes the payload after its version field. Every count is
    /// bounded by the bytes that remain ([`ft_tensor::codec`]).
    fn read_payload(r: &mut &[u8]) -> io::Result<Checkpoint> {
        let meta = match r.u8()? {
            0 => None,
            1 => {
                let kind = match r.u8()? {
                    0 => FnoKind::TwoDChannels,
                    1 => FnoKind::ThreeD,
                    _ => return Err(invalid("unknown model kind in metadata")),
                };
                let norm = match r.u8()? {
                    0 => false,
                    1 => true,
                    _ => return Err(invalid("corrupt norm flag in metadata")),
                };
                let mut f = [0u64; 8];
                for v in &mut f {
                    *v = r.u64()?;
                }
                // Grid (f[7]) is informational; the architecture dims
                // must at least be plausible.
                if f[..7].iter().any(|&v| v == 0 || v > 1 << 20) {
                    return Err(invalid("implausible architecture dimension in metadata"));
                }
                Some(ModelMeta {
                    kind,
                    width: f[0],
                    layers: f[1],
                    modes: f[2],
                    in_channels: f[3],
                    out_channels: f[4],
                    lifting_channels: f[5],
                    projection_channels: f[6],
                    norm,
                    grid: f[7],
                })
            }
            _ => return Err(invalid("corrupt model-metadata flag")),
        };
        let epochs_done = r.u64()?;
        let rng_state = r.u64()?;
        let lr_scale = r.f64()?;
        let stale = r.u64()?;
        let sched_epoch = r.u64()?;

        let t = r.u64()?;
        // Each moment pair takes at least its `u64` length.
        let n_params = r.count_u32(8)?;
        let (mut m, mut v) = (Vec::new(), Vec::new());
        for _ in 0..n_params {
            let len = r.count_u64(16)?;
            m.push(r.f64s(len)?);
            v.push(r.f64s(len)?);
        }
        let adam = AdamState { m, v, t };

        let n_loss = r.count_u64(8)?;
        let train_loss = r.f64s(n_loss)?;
        let n_eval = r.count_u64(16)?;
        let eval_history = (0..n_eval)
            .map(|_| Ok((r.u64()?, r.f64()?)))
            .collect::<io::Result<_>>()?;
        let n_rec = r.count_u32(25)?;
        let recoveries = (0..n_rec)
            .map(|_| {
                let epoch = r.u64()? as usize;
                let batch = r.u64()? as usize;
                let cause = match r.u8()? {
                    0 => RecoveryCause::NonFiniteLoss,
                    1 => RecoveryCause::NonFiniteGrad,
                    _ => return Err(invalid("unknown recovery cause")),
                };
                Ok(RecoveryEvent { epoch, batch, cause, lr: r.f64()? })
            })
            .collect::<io::Result<_>>()?;

        let best = match r.u8()? {
            0 => None,
            1 => Some((r.u64()?, r.f64()?, load_param_values_from(r)?)),
            _ => return Err(invalid("corrupt best-snapshot flag")),
        };
        let params = load_param_values_from(r)?;

        Ok(Checkpoint {
            epochs_done,
            rng_state,
            lr_scale,
            stale,
            sched_epoch,
            adam,
            train_loss,
            eval_history,
            recoveries,
            best,
            params,
            meta,
        })
    }
}

/// FTW1's kind byte of a parameter: 0 real, 1 complex.
fn kind_code<R, C>(p: &ParamKind<R, C>) -> u64 {
    u64::from(matches!(p, ParamKind::Complex(_)))
}

/// Writes `epoch-NNNNN.ftc`, refreshes `latest.ftc`, and prunes old files
/// per `keep_last`. Used by the trainer; exposed for tools that manage
/// checkpoint directories directly.
pub fn save_periodic(ck: &Checkpoint, cfg: &CheckpointConfig) -> io::Result<PathBuf> {
    let name = format!("epoch-{:05}.ftc", ck.epochs_done);
    let path = cfg.dir.join(&name);
    ck.save(&path)?;
    ck.save(cfg.dir.join("latest.ftc"))?;
    if cfg.keep_last > 0 {
        let mut epochs: Vec<PathBuf> = fs::read_dir(&cfg.dir)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("epoch-") && n.ends_with(".ftc"))
            })
            .collect();
        epochs.sort();
        let excess = epochs.len().saturating_sub(cfg.keep_last);
        for old in &epochs[..excess] {
            fs::remove_file(old)?;
        }
    }
    ft_obs::flight::event_with(|| {
        ft_obs::Record::new("event")
            .str("kind", "checkpoint_write")
            .str("path", &path.display().to_string())
            .u64("epoch", ck.epochs_done)
    });
    Ok(path)
}

/// CRC-32 (IEEE 802.3), bitwise implementation; checkpoints are written
/// once per epoch, so throughput is irrelevant next to integrity.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc ^= b as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_tensor::{CTensor, Complex64, Tensor};

    fn sample() -> Checkpoint {
        Checkpoint {
            epochs_done: 7,
            rng_state: 0xDEAD_BEEF_CAFE_F00D,
            lr_scale: 0.25,
            stale: 2,
            sched_epoch: 7,
            adam: AdamState {
                m: vec![vec![0.1, -0.2], vec![3.0]],
                v: vec![vec![0.01, 0.02], vec![9.0]],
                t: 140,
            },
            train_loss: vec![1.0, 0.5, 0.25],
            eval_history: vec![(1, 0.6), (3, 0.4)],
            recoveries: vec![RecoveryEvent {
                epoch: 2,
                batch: 5,
                cause: RecoveryCause::NonFiniteLoss,
                lr: 5e-4,
            }],
            best: Some((
                3,
                0.4,
                vec![ParamValue::Real(Tensor::from_vec(&[2], vec![1.0, 2.0]))],
            )),
            params: vec![
                ParamValue::Real(Tensor::from_vec(&[2, 2], vec![1.0, -1.0, 0.5, 0.0])),
                ParamValue::Complex(CTensor::from_vec(&[1], vec![Complex64::new(0.3, -0.7)])),
            ],
            meta: Some(ModelMeta {
                kind: crate::config::FnoKind::TwoDChannels,
                width: 4,
                layers: 2,
                modes: 4,
                in_channels: 10,
                out_channels: 2,
                lifting_channels: 32,
                projection_channels: 32,
                norm: false,
                grid: 16,
            }),
        }
    }

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("ftc_{}_{name}", std::process::id()));
        p
    }

    #[test]
    fn roundtrip_preserves_every_field() {
        let ck = sample();
        let p = tmp("roundtrip.ftc");
        ck.save(&p).unwrap();
        let back = Checkpoint::load(&p).unwrap();
        assert_eq!(back.epochs_done, ck.epochs_done);
        assert_eq!(back.rng_state, ck.rng_state);
        assert_eq!(back.lr_scale.to_bits(), ck.lr_scale.to_bits());
        assert_eq!(back.stale, ck.stale);
        assert_eq!(back.sched_epoch, ck.sched_epoch);
        assert_eq!(back.adam, ck.adam);
        assert_eq!(back.train_loss, ck.train_loss);
        assert_eq!(back.eval_history, ck.eval_history);
        assert_eq!(back.recoveries, ck.recoveries);
        assert!(back.best.is_some());
        assert_eq!(back.params.len(), ck.params.len());
        assert_eq!(back.meta, ck.meta);
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn version_1_payload_is_unsupported() {
        let ck = sample();
        let p = tmp("v1.ftc");
        ck.save(&p).unwrap();
        let mut bytes = std::fs::read(&p).unwrap();
        // Payload starts at offset 16 with the version u32; rewrite it as 1
        // and re-seal the CRC so only the version check can refuse it.
        assert_eq!(&bytes[16..20], &2u32.to_le_bytes());
        bytes[16..20].copy_from_slice(&1u32.to_le_bytes());
        let crc = crc32(&bytes[16..]);
        bytes[4..8].copy_from_slice(&crc.to_le_bytes());
        std::fs::write(&p, &bytes).unwrap();
        assert!(matches!(
            Checkpoint::load(&p),
            Err(CheckpointError::UnsupportedVersion(1))
        ));
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn meta_validation_rejects_mismatch_with_typed_error() {
        let ck = sample();
        let meta = ck.meta.clone().unwrap();
        let good = meta.to_config();
        // The stored params of `sample()` are synthetic, so the closed-form
        // count cannot match; restrict this check to the field comparison.
        let mut wrong = good.clone();
        wrong.width += 1;
        match ck.validate_meta(&wrong) {
            Err(CheckpointError::MetaMismatch { field: "width", expected, found }) => {
                assert_eq!(expected, meta.width + 1);
                assert_eq!(found, meta.width);
            }
            other => panic!("expected width mismatch, got {other:?}"),
        }
        let mut no_meta = ck.clone();
        no_meta.meta = None;
        assert!(matches!(
            no_meta.validate_meta(&good),
            Err(CheckpointError::MetaMissing)
        ));
    }

    #[test]
    fn any_single_bit_flip_is_rejected() {
        let ck = sample();
        let p = tmp("bitflip.ftc");
        ck.save(&p).unwrap();
        let bytes = std::fs::read(&p).unwrap();
        // Flipping any bit of the header and the first payload bytes must
        // be caught by the magic/length/CRC checks.
        for byte in 0..32.min(bytes.len()) {
            for bit in 0..8 {
                let mut corrupt = bytes.clone();
                corrupt[byte] ^= 1 << bit;
                std::fs::write(&p, &corrupt).unwrap();
                let err = Checkpoint::load(&p).unwrap_err();
                assert!(
                    matches!(err, CheckpointError::Corrupt(_)),
                    "byte {byte} bit {bit} must be Corrupt, got {err}"
                );
            }
        }
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn truncation_is_rejected() {
        let ck = sample();
        let p = tmp("trunc.ftc");
        ck.save(&p).unwrap();
        let bytes = std::fs::read(&p).unwrap();
        for cut in [0, 3, 15, 16, bytes.len() / 2, bytes.len() - 1] {
            std::fs::write(&p, &bytes[..cut]).unwrap();
            let err = Checkpoint::load(&p).unwrap_err();
            assert!(matches!(err, CheckpointError::Corrupt(_)), "cut at {cut}: {err}");
        }
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn atomic_write_leaves_no_temp_file() {
        let dir = tmp("atomic_dir");
        std::fs::create_dir_all(&dir).unwrap();
        let cfg = CheckpointConfig { dir: dir.clone(), every: 1, keep_last: 2 };
        let mut ck = sample();
        for e in 1..=4u64 {
            ck.epochs_done = e;
            save_periodic(&ck, &cfg).unwrap();
        }
        let names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert!(names.iter().all(|n| !n.ends_with(".tmp")), "{names:?}");
        assert!(names.contains(&"latest.ftc".to_string()));
        let epochs: Vec<_> = names.iter().filter(|n| n.starts_with("epoch-")).collect();
        assert_eq!(epochs.len(), 2, "keep_last prunes: {names:?}");
        assert!(names.contains(&"epoch-00004.ftc".to_string()));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The canonical IEEE check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }
}
