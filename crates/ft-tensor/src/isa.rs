//! Runtime instruction-set dispatch: one kernel source, compiled for each
//! vector width the host may have, picked once per process.
//!
//! The workspace is built for baseline x86-64 (SSE2, two `f64` lanes). A hot
//! loop written as an `#[inline(always)]` body and handed to [`Isa::run`]
//! is inlined into a wrapper compiled with `#[target_feature(enable =
//! "avx2")]` or `"avx512f"`, so the same source vectorizes four or eight
//! lanes wide on a host that reports them. There is no flag, environment
//! variable, Cargo feature or `target-cpu` build: [`Isa::host`] detects the
//! widest level once, and non-x86 targets have [`Isa::Base`] only.
//!
//! Every level computes the same bits. Rust neither contracts `a * b + c`
//! into a fused multiply-add nor reassociates floating-point operations, so
//! a wider vector body performs the scalar body's IEEE operations in the
//! scalar body's order. The one way to break that is an explicit fused op:
//! `avx512f` implies `fma` in rustc, so a dispatched kernel must never call
//! `f64::mul_add`. Tests run each kernel at every level of
//! [`Isa::supported`] and compare bits.

use std::sync::OnceLock;

/// An instruction-set level a kernel can be compiled for, narrowest first.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Isa {
    /// The build's baseline target (SSE2 on x86-64).
    Base,
    /// AVX2: four `f64` lanes.
    Avx2,
    /// AVX-512F: eight `f64` lanes.
    Avx512,
}

impl Isa {
    /// The widest level this host supports, detected on the first call and
    /// cached for the life of the process.
    pub fn host() -> Isa {
        static HOST: OnceLock<Isa> = OnceLock::new();
        *HOST.get_or_init(detect)
    }

    /// Every level this host supports, narrowest first (always starting
    /// with [`Isa::Base`]).
    pub fn supported() -> Vec<Isa> {
        [Isa::Base, Isa::Avx2, Isa::Avx512]
            .into_iter()
            .filter(|&isa| isa <= Isa::host())
            .collect()
    }

    /// Runs `f` compiled for this level: `f` is inlined into a wrapper built
    /// with the level's target features, so its loops use the level's
    /// vector width. Pass the closure as `#[inline(always)] || kernel(..)`
    /// (an attribute on a call argument is stable Rust) and mark the kernel
    /// and its helpers `#[inline(always)]`: `f` has a call site per level,
    /// and a body LLVM leaves out of line is compiled for the baseline only.
    ///
    /// # Panics
    ///
    /// If the host does not support this level (`self > Isa::host()`).
    #[inline(always)]
    pub fn run<R>(self, f: impl FnOnce() -> R) -> R {
        assert!(
            self <= Isa::host(),
            "{self:?} is not supported on this host"
        );
        match self {
            Isa::Base => f(),
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => {
                // SAFETY: `self <= Isa::host()` was asserted above, and
                // `detect` reports `Avx2` or wider only when
                // `is_x86_feature_detected!` found avx2.
                unsafe { x86::avx2(f) }
            }
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => {
                // SAFETY: `self <= Isa::host()` was asserted above, and
                // `detect` reports `Avx512` only when
                // `is_x86_feature_detected!` found avx512f, avx2 and fma
                // (the features rustc's `avx512f` implies).
                unsafe { x86::avx512(f) }
            }
            #[cfg(not(target_arch = "x86_64"))]
            _ => unreachable!("only Isa::Base exists off x86-64"),
        }
    }
}

#[cfg(target_arch = "x86_64")]
fn detect() -> Isa {
    if is_x86_feature_detected!("avx512f")
        && is_x86_feature_detected!("avx2")
        && is_x86_feature_detected!("fma")
    {
        Isa::Avx512
    } else if is_x86_feature_detected!("avx2") {
        Isa::Avx2
    } else {
        Isa::Base
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn detect() -> Isa {
    Isa::Base
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    /// Runs `f` with AVX2 enabled.
    ///
    /// # Safety
    ///
    /// The host must support avx2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn avx2<R>(f: impl FnOnce() -> R) -> R {
        f()
    }

    /// Runs `f` with AVX-512F enabled.
    ///
    /// # Safety
    ///
    /// The host must support avx512f and the features it implies.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn avx512<R>(f: impl FnOnce() -> R) -> R {
        f()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn supported_levels_start_at_base_and_end_at_the_host() {
        let levels = Isa::supported();
        assert_eq!(levels.first(), Some(&Isa::Base));
        assert_eq!(levels.last(), Some(&Isa::host()));
        assert!(levels.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn every_supported_level_runs_the_same_body() {
        let body = || (1..=1000).map(|i| 1.0 / i as f64).fold(0.0, |a, b| a + b);
        let want = body();
        for isa in Isa::supported() {
            assert_eq!(isa.run(body).to_bits(), want.to_bits(), "{isa:?}");
        }
    }

    #[test]
    fn an_unsupported_level_panics_instead_of_running() {
        if let Some(&wider) = [Isa::Avx2, Isa::Avx512].iter().find(|&&l| l > Isa::host()) {
            let r = std::panic::catch_unwind(|| wider.run(|| 0));
            assert!(r.is_err());
        }
    }
}
