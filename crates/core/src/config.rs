//! Model configurations and the Table I parameter-count formula.

/// Spatial arity of the model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FnoKind {
    /// 2D FNO with the time snapshots stacked across channels (Sec. V).
    TwoDChannels,
    /// 3D FNO: two spatial + one temporal Fourier dimension (Sec. V).
    ThreeD,
}

/// Hyperparameters of one FNO model.
#[derive(Clone, Debug)]
pub struct FnoConfig {
    /// 2D-with-channels or 3D.
    pub kind: FnoKind,
    /// Hidden channel width of the Fourier layers.
    pub width: usize,
    /// Number of Fourier layers.
    pub layers: usize,
    /// "Modes" in the paper's notation: the weight blocks span `modes`
    /// entries per full axis and `modes/2 + 1` on the halved axis.
    pub modes: usize,
    /// Input channels (2D: the 10 stacked snapshots; 3D: 1).
    pub in_channels: usize,
    /// Output channels (2D: 1–10; 3D: 1).
    pub out_channels: usize,
    /// Hidden width of the lifting MLP (256 in the reference stack).
    pub lifting_channels: usize,
    /// Hidden width of the projection MLP (256 in the reference stack).
    pub projection_channels: usize,
    /// Insert a per-channel instance normalization after each Fourier
    /// layer (architecture ablation; the paper's models do not use one).
    pub norm: bool,
}

impl FnoConfig {
    /// The paper's 2D FNO with temporal channels: 10 input snapshots,
    /// `out_channels` predicted snapshots.
    pub fn fno2d(width: usize, layers: usize, modes: usize, out_channels: usize) -> Self {
        FnoConfig {
            kind: FnoKind::TwoDChannels,
            width,
            layers,
            modes,
            in_channels: 10,
            out_channels,
            lifting_channels: 256,
            projection_channels: 256,
            norm: false,
        }
    }

    /// The paper's 3D FNO: one input channel, ten snapshots on the third
    /// (temporal) axis.
    pub fn fno3d(width: usize, layers: usize, modes: usize) -> Self {
        FnoConfig {
            kind: FnoKind::ThreeD,
            width,
            layers,
            modes,
            in_channels: 1,
            out_channels: 1,
            lifting_channels: 256,
            projection_channels: 256,
            norm: false,
        }
    }

    /// Number of transformed (Fourier) axes.
    pub fn ndim(&self) -> usize {
        match self.kind {
            FnoKind::TwoDChannels => 2,
            FnoKind::ThreeD => 3,
        }
    }

    /// Complex entries of one spectral-weight block (per weight tensor).
    pub fn spectral_block(&self) -> usize {
        let half = self.modes / 2 + 1;
        match self.kind {
            FnoKind::TwoDChannels => self.modes * half,
            FnoKind::ThreeD => self.modes * self.modes * half,
        }
    }

    /// Exact parameter count (complex weights count one each — the PyTorch
    /// `numel` convention of Table I):
    ///
    /// `lifting + L·(2·w²·block + w² + w) + projection`.
    pub fn param_count(&self) -> usize {
        self.checked_param_count().expect("parameter count overflows usize")
    }

    /// [`FnoConfig::param_count`], or `None` when it does not fit a `usize`
    /// (a model file's metadata is checked with this before any weights
    /// are built).
    pub fn checked_param_count(&self) -> Option<usize> {
        // u128 holds the closed form for every dimension up to 2^20, the
        // bound model-file metadata is parsed with.
        let [w, lc, pc, l, c_in, c_out, block] = [
            self.width,
            self.lifting_channels,
            self.projection_channels,
            self.layers,
            self.in_channels,
            self.out_channels,
            self.spectral_block(),
        ]
        .map(|v| v as u128);
        let lifting = (c_in * lc + lc) + (lc * w + w);
        let per_layer = 2 * w * w * block + (w * w + w);
        let projection = (w * pc + pc) + (pc * c_out + c_out);
        let norm = if self.norm { l * 2 * w } else { 0 };
        usize::try_from(lifting + l * per_layer + projection + norm).ok()
    }

    /// The twelve Table I rows: `(label, config, expected parameter count)`.
    pub fn table1() -> Vec<(&'static str, FnoConfig, usize)> {
        vec![
            ("2D FNO + Channels (10), w40", FnoConfig::fno2d(40, 4, 32, 10), 6_995_922),
            ("2D FNO + Channels (10), w8", FnoConfig::fno2d(8, 4, 32, 10), 288_562),
            ("2D FNO + Channels (5), w40", FnoConfig::fno2d(40, 4, 32, 5), 6_994_637),
            ("2D FNO + Channels (5), w8", FnoConfig::fno2d(8, 4, 32, 5), 287_277),
            ("2D FNO + Channels (1), w40", FnoConfig::fno2d(40, 4, 32, 1), 6_993_609),
            ("2D FNO + Channels (1), w8", FnoConfig::fno2d(8, 4, 32, 1), 286_249),
            ("3D FNO, w40 m32", FnoConfig::fno3d(40, 4, 32), 222_850_505),
            ("3D FNO, w40 m16", FnoConfig::fno3d(40, 4, 16), 29_519_305),
            ("3D FNO, w20 m24", FnoConfig::fno3d(20, 4, 24), 23_974_565),
            ("3D FNO, w8 m32", FnoConfig::fno3d(8, 4, 32), 8_918_313),
            ("3D FNO, w4 l8 m32", FnoConfig::fno3d(4, 8, 32), 4_459_685),
            ("3D FNO, w8 l8 m24", FnoConfig::fno3d(8, 8, 24), 7_673_417),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_parameter_counts_are_exact() {
        for (label, cfg, expected) in FnoConfig::table1() {
            assert_eq!(
                cfg.param_count(),
                expected,
                "{label}: computed {} != paper {expected}",
                cfg.param_count()
            );
        }
    }

    #[test]
    fn output_channel_cost_is_257_per_channel() {
        // The Table I deltas: each extra output channel costs
        // projection_channels + 1 parameters.
        let c10 = FnoConfig::fno2d(40, 4, 32, 10).param_count();
        let c5 = FnoConfig::fno2d(40, 4, 32, 5).param_count();
        assert_eq!(c10 - c5, 5 * 257);
    }

    #[test]
    fn ndim_and_block_sizes() {
        let c2 = FnoConfig::fno2d(8, 4, 32, 10);
        assert_eq!(c2.ndim(), 2);
        assert_eq!(c2.spectral_block(), 32 * 17);
        let c3 = FnoConfig::fno3d(8, 4, 32);
        assert_eq!(c3.ndim(), 3);
        assert_eq!(c3.spectral_block(), 32 * 32 * 17);
    }
}
