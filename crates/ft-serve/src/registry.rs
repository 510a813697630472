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
//! Entries are immutable once registered and shared via `Arc`, so the
//! dispatcher and every session hold cheap references.

use std::collections::HashMap;
use std::fmt;
use std::path::Path;
use std::sync::Arc;

use fno_core::checkpoint::CheckpointError;
use fno_core::{Fno, FnoConfig, FnoKind};

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
    /// Registry name, used as the micro-batching key.
    pub name: String,
    /// The loaded network. Immutable — inference only.
    pub model: Fno,
}

impl ModelEntry {
    /// The model's configuration.
    pub fn config(&self) -> &FnoConfig {
        self.model.config()
    }

    /// The input shape (excluding the batch axis) this model accepts from
    /// the serving layer: `[C_in, H, W]` for the 2D temporal-channel
    /// variant, `[T, H, W]` for the 3D variant (`T = C_in` frames).
    pub fn input_rank_hint(&self) -> &'static str {
        match self.config().kind {
            FnoKind::TwoDChannels => "[C_in, H, W]",
            FnoKind::ThreeD => "[T, H, W]",
        }
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

    /// Registered model names, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.models.keys().cloned().collect();
        v.sort();
        v
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
        assert_eq!(reg.names(), vec!["m".to_string()]);
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
