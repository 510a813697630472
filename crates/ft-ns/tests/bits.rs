//! Pinned bits of the pseudo-spectral solver.
//!
//! FNV-1a hashes (`ft_tensor::complex_bit_hash` / `bit_hash`) of the
//! vorticity spectrum after 20 RK4 steps at 32², of the velocity read back
//! from it, of the spectrum `set_velocity` builds, and of a forced run.
//! A rewrite that claims the same bits must leave them as they are, in
//! debug and release builds alike.
//!
//! Every pin moved once, at rounding level, when the solver began packing
//! two real fields into each complex transform (`ifft2(H(x) + i·H(y))`
//! with `H(x)[k] = (x[k] + conj x[−k])/2`, one transform of `ux + i·uy`
//! for `set_velocity`, and real transforms for single fields). Relative L2
//! change of each pinned output from the previous one-field-per-transform
//! solver: `ω̂` 4.5e-16, `ux` 5.9e-16, `uy` 3.7e-16, the `set_velocity`
//! spectrum 1.4e-15, the forced `ω̂` 4.1e-16. `tests/packed_oracle.rs`
//! keeps the solver within 1e-13 of that formulation over 200 steps.
//! The hashes before: `[0x8621_4abd_ddc1_de21, 0x0f6a_8ffa_8873_34d1,
//! 0xa13c_bb8b_b48a_bd41, 0x8521_72f1_1d84_34f2]` and
//! `0x2a2d_4b08_1257_81df`.

use std::f64::consts::PI;

use ft_ns::{Forcing, PdeSolver, SpectralNs};
use ft_tensor::{bit_hash, complex_bit_hash, Tensor};

const N: usize = 32;

/// A smooth two-mode vorticity plus seeded small-scale noise.
fn initial_vorticity() -> Tensor {
    let mut s = 11u64;
    Tensor::from_fn(&[N, N], |i| {
        s = s.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        let noise = ((s >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0;
        let x = 2.0 * PI * i[1] as f64 / N as f64;
        let y = 2.0 * PI * i[0] as f64 / N as f64;
        (2.0 * x).sin() * y.cos() + 0.5 * (x + 3.0 * y).cos() + 0.1 * noise
    })
}

#[test]
fn twenty_rk4_steps_at_32_squared() {
    let mut ns = SpectralNs::new(N, 2.0 * PI, 0.01);
    ns.set_vorticity(&initial_vorticity());
    for _ in 0..20 {
        ns.step(0.01);
    }
    let (ux, uy) = ns.velocity();
    let mut rebuilt = SpectralNs::new(N, 2.0 * PI, 0.01);
    rebuilt.set_velocity(&ux, &uy);
    let got = [
        complex_bit_hash(ns.omega_hat().data()),
        bit_hash(ux.data()),
        bit_hash(uy.data()),
        complex_bit_hash(rebuilt.omega_hat().data()),
    ];
    let want = [0xdb3a_46f7_4aaa_09ac, 0x6702_f68a_8537_6783, 0x7cdc_9470_c55b_6e3d, 0x7578_1249_a15f_6965];
    assert_eq!(got, want, "{got:#x?}");
}

#[test]
fn twenty_forced_rk4_steps_at_32_squared() {
    let mut ns = SpectralNs::new(N, 2.0 * PI, 0.02);
    ns.set_forcing(&Forcing::kolmogorov(N, 2.0 * PI, 2, 0.1, 0.05));
    ns.set_vorticity(&initial_vorticity());
    for _ in 0..20 {
        ns.step(0.02);
    }
    let got = complex_bit_hash(ns.omega_hat().data());
    assert_eq!(got, 0x5e61_3fd1_9eca_fb77, "{got:#x}");
}
