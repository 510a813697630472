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
//! [`std::io::ErrorKind::InvalidData`] instead of a panic or a silently
//! wrong resume. Writes go through a temp file in the target directory
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
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

use ft_nn::{load_param_values_from, save_param_values_to, AdamState, Layer, ParamMut, ParamValue};

use crate::config::{FnoConfig, FnoKind};
use crate::train::{RecoveryCause, RecoveryEvent};

const MAGIC: &[u8; 4] = b"FTC1";
/// The one payload version read and written; any other is
/// [`CheckpointError::UnsupportedVersion`].
const VERSION: u32 = 2;

/// Typed failure modes of [`Checkpoint::load_typed`] and
/// [`Checkpoint::validate_meta`]. Converts into `io::Error(InvalidData)`
/// for callers on the legacy `io::Result` path.
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
        Checkpoint {
            epochs_done: 0,
            rng_state: 0,
            lr_scale: 1.0,
            stale: 0,
            sched_epoch: 0,
            adam: AdamState { m: Vec::new(), v: Vec::new(), t: 0 },
            train_loss: Vec::new(),
            eval_history: Vec::new(),
            recoveries: Vec::new(),
            best: None,
            params,
            meta: Some(meta),
        }
    }

    /// Serializes and atomically writes the checkpoint to `path`.
    pub fn save(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let mut payload = Vec::new();
        self.write_payload(&mut payload)?;
        let mut bytes = Vec::with_capacity(16 + payload.len());
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&crc32(&payload).to_le_bytes());
        bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        bytes.extend_from_slice(&payload);
        write_atomic(path.as_ref(), &bytes)
    }

    /// Loads and validates a checkpoint. Magic, length, and CRC are checked
    /// before any field is parsed; every failure mode maps to
    /// `InvalidData` (or the underlying `io::Error` for filesystem
    /// problems). See [`Checkpoint::load_typed`] for structured errors.
    pub fn load(path: impl AsRef<Path>) -> io::Result<Checkpoint> {
        Self::load_typed(path).map_err(io::Error::from)
    }

    /// [`Checkpoint::load`] with typed failure modes: header/CRC problems
    /// are [`CheckpointError::Corrupt`], unknown payload versions are
    /// [`CheckpointError::UnsupportedVersion`], filesystem problems are
    /// [`CheckpointError::Io`].
    pub fn load_typed(path: impl AsRef<Path>) -> Result<Checkpoint, CheckpointError> {
        let path = path.as_ref();
        let bad = |msg: &str| CheckpointError::Corrupt(msg.to_string());
        let bytes = fs::read(path)?;
        if bytes.len() < 16 {
            return Err(bad("checkpoint too short for FTC1 header"));
        }
        if &bytes[..4] != MAGIC {
            return Err(bad("not an FTC1 checkpoint"));
        }
        let stored_crc = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
        let payload_len = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
        let payload = &bytes[16..];
        if payload_len != payload.len() as u64 {
            return Err(bad("checkpoint length does not match header"));
        }
        if crc32(payload) != stored_crc {
            return Err(bad("checkpoint checksum mismatch"));
        }
        let mut r = payload;
        let ck = Self::read_payload(&mut r)?;
        if !r.is_empty() {
            return Err(bad("trailing bytes after checkpoint payload"));
        }
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
        let stored: usize = self.params.iter().map(param_numel).sum();
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
        model.visit_params(&mut |p| {
            live.push(match p {
                ParamMut::Real { value, .. } => (0, value.dims().to_vec()),
                ParamMut::Complex { value, .. } => (1, value.dims().to_vec()),
            })
        });
        let mismatch = |field, expected: u64, found: u64| {
            Err(CheckpointError::MetaMismatch { field, expected, found })
        };
        if live.len() != self.params.len() {
            return mismatch("param_tensors", live.len() as u64, self.params.len() as u64);
        }
        for ((kind, dims), stored) in live.iter().zip(&self.params) {
            let (stored_kind, stored_dims) = match stored {
                ParamValue::Real(t) => (0, t.dims()),
                ParamValue::Complex(t) => (1, t.dims()),
            };
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

    fn write_payload(&self, w: &mut impl Write) -> io::Result<()> {
        w.write_all(&VERSION.to_le_bytes())?;
        match &self.meta {
            None => w.write_all(&[0u8])?,
            Some(m) => {
                w.write_all(&[1u8])?;
                w.write_all(&[ModelMeta::kind_code(m.kind)])?;
                w.write_all(&[u8::from(m.norm)])?;
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
                    w.write_all(&v.to_le_bytes())?;
                }
            }
        }
        w.write_all(&self.epochs_done.to_le_bytes())?;
        w.write_all(&self.rng_state.to_le_bytes())?;
        w.write_all(&self.lr_scale.to_le_bytes())?;
        w.write_all(&self.stale.to_le_bytes())?;
        w.write_all(&self.sched_epoch.to_le_bytes())?;

        w.write_all(&self.adam.t.to_le_bytes())?;
        w.write_all(&(self.adam.m.len() as u32).to_le_bytes())?;
        for (m, v) in self.adam.m.iter().zip(&self.adam.v) {
            w.write_all(&(m.len() as u64).to_le_bytes())?;
            for &x in m {
                w.write_all(&x.to_le_bytes())?;
            }
            for &x in v {
                w.write_all(&x.to_le_bytes())?;
            }
        }

        w.write_all(&(self.train_loss.len() as u64).to_le_bytes())?;
        for &x in &self.train_loss {
            w.write_all(&x.to_le_bytes())?;
        }
        w.write_all(&(self.eval_history.len() as u64).to_le_bytes())?;
        for &(e, err) in &self.eval_history {
            w.write_all(&e.to_le_bytes())?;
            w.write_all(&err.to_le_bytes())?;
        }
        w.write_all(&(self.recoveries.len() as u32).to_le_bytes())?;
        for r in &self.recoveries {
            w.write_all(&(r.epoch as u64).to_le_bytes())?;
            w.write_all(&(r.batch as u64).to_le_bytes())?;
            w.write_all(&[r.cause as u8])?;
            w.write_all(&r.lr.to_le_bytes())?;
        }

        match &self.best {
            None => w.write_all(&[0u8])?,
            Some((epoch, err, snap)) => {
                w.write_all(&[1u8])?;
                w.write_all(&epoch.to_le_bytes())?;
                w.write_all(&err.to_le_bytes())?;
                save_param_values_to(snap, w)?;
            }
        }
        save_param_values_to(&self.params, w)
    }

    fn read_payload(r: &mut impl Read) -> Result<Checkpoint, CheckpointError> {
        let bad = |msg: &str| CheckpointError::Corrupt(msg.to_string());
        let version = read_u32(r)?;
        if version != VERSION {
            return Err(CheckpointError::UnsupportedVersion(version));
        }
        let mut flag = [0u8; 1];
        r.read_exact(&mut flag)?;
        let meta = match flag[0] {
            0 => None,
            1 => {
                let mut kb = [0u8; 2];
                r.read_exact(&mut kb)?;
                let kind = match kb[0] {
                    0 => FnoKind::TwoDChannels,
                    1 => FnoKind::ThreeD,
                    _ => return Err(bad("unknown model kind in metadata")),
                };
                let norm = match kb[1] {
                    0 => false,
                    1 => true,
                    _ => return Err(bad("corrupt norm flag in metadata")),
                };
                let mut f = [0u64; 8];
                for v in &mut f {
                    *v = read_u64(r)?;
                }
                // Grid (f[7]) is informational; the architecture dims
                // must at least be plausible.
                if f[..7].iter().any(|&v| v == 0 || v > 1 << 20) {
                    return Err(bad("implausible architecture dimension in metadata"));
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
            _ => return Err(bad("corrupt model-metadata flag")),
        };
        let epochs_done = read_u64(r)?;
        let rng_state = read_u64(r)?;
        let lr_scale = read_f64(r)?;
        let stale = read_u64(r)?;
        let sched_epoch = read_u64(r)?;

        let t = read_u64(r)?;
        let n_params = read_u32(r)? as usize;
        if n_params > 1 << 20 {
            return Err(bad("implausible optimizer state size"));
        }
        let mut m = Vec::with_capacity(n_params);
        let mut v = Vec::with_capacity(n_params);
        for _ in 0..n_params {
            let len = read_u64(r)? as usize;
            if len > 1 << 32 {
                return Err(bad("implausible moment vector length"));
            }
            let mut mv = Vec::new();
            for _ in 0..len {
                mv.push(read_f64(r)?);
            }
            let mut vv = Vec::new();
            for _ in 0..len {
                vv.push(read_f64(r)?);
            }
            m.push(mv);
            v.push(vv);
        }
        let adam = AdamState { m, v, t };

        let n_loss = read_u64(r)? as usize;
        if n_loss > 1 << 32 {
            return Err(bad("implausible loss-history length"));
        }
        let mut train_loss = Vec::new();
        for _ in 0..n_loss {
            train_loss.push(read_f64(r)?);
        }
        let n_eval = read_u64(r)? as usize;
        if n_eval > 1 << 32 {
            return Err(bad("implausible eval-history length"));
        }
        let mut eval_history = Vec::new();
        for _ in 0..n_eval {
            let e = read_u64(r)?;
            let err = read_f64(r)?;
            eval_history.push((e, err));
        }
        let n_rec = read_u32(r)? as usize;
        if n_rec > 1 << 20 {
            return Err(bad("implausible recovery count"));
        }
        let mut recoveries = Vec::new();
        for _ in 0..n_rec {
            let epoch = read_u64(r)? as usize;
            let batch = read_u64(r)? as usize;
            let mut c = [0u8; 1];
            r.read_exact(&mut c)?;
            let cause = match c[0] {
                0 => RecoveryCause::NonFiniteLoss,
                1 => RecoveryCause::NonFiniteGrad,
                _ => return Err(bad("unknown recovery cause")),
            };
            let lr = read_f64(r)?;
            recoveries.push(RecoveryEvent { epoch, batch, cause, lr });
        }

        let mut flag = [0u8; 1];
        r.read_exact(&mut flag)?;
        let best = match flag[0] {
            0 => None,
            1 => {
                let epoch = read_u64(r)?;
                let err = read_f64(r)?;
                let snap = load_param_values_from(r)?;
                Some((epoch, err, snap))
            }
            _ => return Err(bad("corrupt best-snapshot flag")),
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

/// Element count of one stored parameter under the Table-I `numel`
/// convention (a complex entry counts once).
fn param_numel(p: &ParamValue) -> usize {
    match p {
        ParamValue::Real(t) => t.len(),
        ParamValue::Complex(t) => t.len(),
    }
}

/// Writes `epoch-NNNNN.ftc`, refreshes `latest.ftc`, and prunes old files
/// per `keep_last`. Used by the trainer; exposed for tools that manage
/// checkpoint directories directly.
pub fn save_periodic(ck: &Checkpoint, cfg: &CheckpointConfig) -> io::Result<PathBuf> {
    fs::create_dir_all(&cfg.dir)?;
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

fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = match path.file_name().and_then(|n| n.to_str()) {
        Some(name) => path.with_file_name(format!(".{name}.tmp")),
        None => return Err(io::Error::new(io::ErrorKind::InvalidInput, "invalid path")),
    };
    {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    fs::rename(&tmp, path).inspect_err(|_| {
        fs::remove_file(&tmp).ok();
    })
}

fn read_u32(r: &mut impl Read) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn read_u64(r: &mut impl Read) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

fn read_f64(r: &mut impl Read) -> io::Result<f64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(f64::from_bits(u64::from_le_bytes(b)))
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
            Checkpoint::load_typed(&p),
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
                assert_eq!(
                    err.kind(),
                    io::ErrorKind::InvalidData,
                    "byte {byte} bit {bit} must be InvalidData, got {err}"
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
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "cut at {cut}");
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
