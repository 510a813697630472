//! Cross-crate property-based tests (proptest): transform round-trips,
//! normalization invariants, solver conservation laws, loss identities.

use fno2d_turbulence::fft;
use fno2d_turbulence::tensor::{Complex64, Tensor};
use proptest::prelude::*;

fn small_field(n: usize) -> impl Strategy<Value = Tensor> {
    prop::collection::vec(-10.0f64..10.0, n * n)
        .prop_map(move |data| Tensor::from_vec(&[n, n], data))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn fft_roundtrip_any_size(n in 1usize..64, seed in 0u64..1000) {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let x: Vec<Complex64> = (0..n).map(|_| Complex64::new(next(), next())).collect();
        let mut y = x.clone();
        fft::fft_1d(&mut y, fft::Direction::Forward);
        fft::fft_1d(&mut y, fft::Direction::Inverse);
        for (a, b) in x.iter().zip(&y) {
            prop_assert!((*a - *b).abs() < 1e-9, "size {n}");
        }
    }

    #[test]
    fn rfft_roundtrip_any_length(n in 1usize..80, phase in 0.0..std::f64::consts::TAU) {
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.73 + phase).sin()).collect();
        let back = fft::irfft(&fft::rfft(&x), n);
        for (a, b) in x.iter().zip(&back) {
            prop_assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn fft_linearity(seed in 0u64..1000) {
        let n = 24usize;
        let a: Vec<Complex64> = (0..n)
            .map(|i| Complex64::new(((i as u64 + seed) as f64 * 0.37).sin(), 0.1))
            .collect();
        let b: Vec<Complex64> = (0..n)
            .map(|i| Complex64::new(0.2, ((i as u64 * 3 + seed) as f64 * 0.11).cos()))
            .collect();
        let mut fa = a.clone();
        let mut fb = b.clone();
        let mut fab: Vec<Complex64> = a.iter().zip(&b).map(|(&x, &y)| x * 1.5 + y).collect();
        fft::fft_1d(&mut fa, fft::Direction::Forward);
        fft::fft_1d(&mut fb, fft::Direction::Forward);
        fft::fft_1d(&mut fab, fft::Direction::Forward);
        for i in 0..n {
            prop_assert!((fab[i] - (fa[i] * 1.5 + fb[i])).abs() < 1e-9);
        }
    }

    #[test]
    fn parseval_rfft2(field in small_field(12)) {
        let spec = fft::rfft2(&field);
        let time: f64 = field.data().iter().map(|v| v * v).sum();
        let n = 12usize;
        // Sum the half spectrum with conjugate-pair doubling.
        let mut freq = 0.0;
        let wh = n / 2 + 1;
        for kx in 0..n {
            for ky in 0..wh {
                let p = spec.at(&[kx, ky]).norm_sqr();
                let weight = if ky == 0 || ky == n / 2 { 1.0 } else { 2.0 };
                freq += weight * p;
            }
        }
        freq /= (n * n) as f64;
        prop_assert!((time - freq).abs() <= 1e-8 * time.max(1.0), "{time} vs {freq}");
    }

    #[test]
    fn normalization_roundtrip(field in small_field(8), scale in 0.1f64..10.0, shift in -5.0f64..5.0) {
        // Build a 2-frame trajectory whose first frame is non-constant.
        let f0 = field.map(|v| v * scale + shift + (v * 3.7).sin());
        prop_assume!(f0.std() > 1e-9);
        let f1 = f0.scale(0.9);
        let traj = Tensor::stack(&[f0, f1]);
        let p = fno2d_turbulence::data::NormParams::from_initial(&traj);
        let x = traj.index_axis0(1);
        let back = p.invert(&p.apply(&x));
        prop_assert!(back.allclose(&x, 1e-9));
    }

    #[test]
    fn relative_l2_bounds(field in small_field(6), eps in 0.0f64..0.5) {
        use fno2d_turbulence::nn::RelativeL2;
        prop_assume!(field.norm_l2() > 1e-9);
        let target = Tensor::stack(std::slice::from_ref(&field));
        let pred = Tensor::stack(&[field.map(|v| v * (1.0 + eps))]);
        let l = RelativeL2::value(&pred, &target);
        // ‖(1+ε)x − x‖/‖x‖ = ε exactly.
        prop_assert!((l - eps).abs() < 1e-9, "{l} vs {eps}");
    }

    #[test]
    fn lbm_equilibrium_moments_everywhere(rho in 0.5f64..2.0, ux in -0.2f64..0.2, uy in -0.2f64..0.2) {
        let feq = fno2d_turbulence::lbm::equilibrium(rho, ux, uy);
        let m0: f64 = feq.iter().sum();
        prop_assert!((m0 - rho).abs() < 1e-10);
        prop_assert!(feq.iter().all(|&f| f > 0.0), "positivity inside velocity bounds");
    }

    #[test]
    fn arakawa_jacobian_conservation_random_fields(a in small_field(8), b in small_field(8)) {
        use fno2d_turbulence::ns::ArakawaNs;
        let j = ArakawaNs::arakawa_jacobian(&a, &b, 0.7);
        let scale = j.norm_l2().max(1.0);
        prop_assert!(j.sum().abs() < 1e-9 * scale);
        prop_assert!(j.dot(&a).abs() < 1e-9 * scale * a.norm_l2().max(1.0));
        prop_assert!(j.dot(&b).abs() < 1e-9 * scale * b.norm_l2().max(1.0));
    }

    #[test]
    fn tensor_reshape_preserves_linear_order(data in prop::collection::vec(-100.0f64..100.0, 24)) {
        let t = Tensor::from_vec(&[2, 3, 4], data.clone());
        let r = t.clone().reshape(&[4, 6]);
        prop_assert_eq!(r.data(), &data[..]);
        let back = r.reshape(&[2, 3, 4]);
        prop_assert!(back.allclose(&t, 0.0));
    }
}
