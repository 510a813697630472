//! Named model registry: the serving engine's source of truth for which
//! models exist and what inputs they accept.
//!
//! [`ModelRegistry::load`] reads any `FTC1` model file — an `Fno::save`
//! export or a trainer's `latest.ftc` — through `Fno::load`, which
//! validates the embedded metadata and every weight tensor **before**
//! restoring them. A file without metadata, or one whose weights do not
//! fit the architecture it describes, is a typed [`CheckpointError`]:
//! serving refuses to guess an architecture.
//!
//! Entries are immutable once registered and shared via `Arc`, so every
//! predict and every session holds a cheap reference.

use std::collections::HashMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::Arc;

use fno_core::checkpoint::CheckpointError;
use fno_core::{Fno, FnoConfig, FnoKind};
use ft_tensor::Tensor;

use crate::ServeError;

/// Why a model failed to register.
#[derive(Debug)]
pub enum RegistryError {
    /// The model file could not be read, is corrupt, or does not fit the
    /// architecture its metadata describes.
    Checkpoint(CheckpointError),
    /// A model with this name is already registered.
    Duplicate(String),
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegistryError::Checkpoint(e) => write!(f, "model load failed: {e}"),
            RegistryError::Duplicate(name) => write!(f, "model `{name}` already registered"),
        }
    }
}

impl std::error::Error for RegistryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RegistryError::Checkpoint(e) => Some(e),
            RegistryError::Duplicate(_) => None,
        }
    }
}

impl From<CheckpointError> for RegistryError {
    fn from(e: CheckpointError) -> Self {
        RegistryError::Checkpoint(e)
    }
}

/// One registered model: the name clients address it by and the loaded
/// network.
pub struct ModelEntry {
    /// Registry name, which clients address the model by.
    pub name: String,
    /// The loaded network. Immutable — inference only.
    pub model: Fno,
}

impl ModelEntry {
    /// The model's configuration.
    pub fn config(&self) -> &FnoConfig {
        self.model.config()
    }

    /// The one admission check, for predicts and sessions alike: a rank-3
    /// `[F, H, W]` block with `F = C_in` frames for the 2D temporal-channel
    /// variant (`F ≥ 1` for 3D) on a grid of at least `2·modes` points per
    /// side, so a bad request is a typed error instead of a panic in the
    /// model.
    pub fn check_input(&self, input: &Tensor) -> Result<(), ServeError> {
        self.check_dims(input.dims())
    }

    /// [`ModelEntry::check_input`]'s rule on an input's dims alone, so the
    /// server can refuse a request from its header, before it reads the
    /// payload.
    pub fn check_dims(&self, dims: &[usize]) -> Result<(), ServeError> {
        let (cfg, name) = (self.config(), &self.name);
        let problem = match dims {
            &[f, _, _] if cfg.kind == FnoKind::TwoDChannels && f != cfg.in_channels => {
                format!("model `{name}` takes {} input frames, got {f}", cfg.in_channels)
            }
            &[0, _, _] => format!("model `{name}` takes blocks of at least one frame"),
            &[_, h, w] if h < 2 * cfg.modes || w < 2 * cfg.modes => {
                format!("grid {h}×{w} too small for {} retained modes", cfg.modes)
            }
            &[_, _, _] => return Ok(()),
            dims => format!("expected a rank-3 [F, H, W] input, got {dims:?}"),
        };
        Err(ServeError::BadInput(problem))
    }

    /// Runs `f` on the model and turns a panic into a typed
    /// [`ServeError::BadInput`] that names the model and what it panicked
    /// on, so one bad call leaves the engine and the session store
    /// serving.
    pub(crate) fn guarded<T>(
        &self,
        on: fmt::Arguments<'_>,
        f: impl FnOnce(&Fno) -> T,
    ) -> Result<T, ServeError> {
        catch_unwind(AssertUnwindSafe(|| f(&self.model)))
            .map_err(|_| ServeError::BadInput(format!("model `{}` panicked on {on}", self.name)))
    }
}

/// A name → [`ModelEntry`] map. Construction is single-threaded (server
/// startup); lookups after that are lock-free via `Arc` clones.
#[derive(Default)]
pub struct ModelRegistry {
    models: HashMap<String, Arc<ModelEntry>>,
}

impl ModelRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers an already-constructed model under `name`.
    pub fn insert(&mut self, name: &str, model: Fno) -> Result<(), RegistryError> {
        if self.models.contains_key(name) {
            return Err(RegistryError::Duplicate(name.to_string()));
        }
        let entry = ModelEntry { name: name.to_string(), model };
        self.models.insert(name.to_string(), Arc::new(entry));
        Ok(())
    }

    /// Loads an `FTC1` model file as `name` (see [`Fno::load`]).
    pub fn load(&mut self, name: &str, path: impl AsRef<Path>) -> Result<(), RegistryError> {
        let model = Fno::load(path)?;
        self.insert(name, model)
    }

    /// Looks up a model by name.
    pub fn get(&self, name: &str) -> Option<Arc<ModelEntry>> {
        self.models.get(name).cloned()
    }

    /// Number of registered models.
    pub fn len(&self) -> usize {
        self.models.len()
    }

    /// Whether no models are registered.
    pub fn is_empty(&self) -> bool {
        self.models.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn model_file_roundtrips_through_registry() {
        let path = std::env::temp_dir().join(format!("ft_serve_reg_{}.ftc", std::process::id()));
        let mut model = Fno::new(tiny_cfg(), 9);
        model.save(&path).unwrap();
        let x = ft_tensor::Tensor::from_fn(&[1, 4, 8, 8], |i| (i[2] + i[3]) as f64 * 0.01);
        let want = model.infer(&x);

        let mut reg = ModelRegistry::new();
        reg.load("m", &path).unwrap();
        let entry = reg.get("m").unwrap();
        assert!(entry.model.infer(&x).allclose(&want, 0.0));
        assert_eq!(reg.len(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn duplicate_name_is_rejected() {
        let mut reg = ModelRegistry::new();
        reg.insert("m", Fno::new(tiny_cfg(), 1)).unwrap();
        let err = reg.insert("m", Fno::new(tiny_cfg(), 2)).unwrap_err();
        assert!(matches!(err, RegistryError::Duplicate(_)));
        assert_eq!(reg.len(), 1);
    }
}
