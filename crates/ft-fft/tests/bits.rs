//! Pinned output bits of the batched transforms.
//!
//! Each hash is FNV-1a over the output's `f64` bit patterns
//! (`ft_tensor::complex_bit_hash` / `bit_hash`), recorded before the
//! radix-2 kernel was line-blocked. A kernel rewrite that claims the same
//! bits must leave every hash as it is, in debug and release builds alike
//! (no dispatched kernel may use a fused multiply-add). A change that means
//! to move bits updates the pins and says by how much.
//!
//! The cases cover each path `fft_axis` and the real rows take: the
//! strided and the contiguous radix-2 axis, the even real rows with a
//! radix-2 half plan, mixed-radix lengths (10, 12; the half plan of a
//! length-12 row is mixed too) and Bluestein (13; odd real rows).

use ft_fft::nd::fftn;
use ft_fft::{fft2, ifft2, irfftn, rfftn, Direction};
use ft_tensor::{bit_hash, complex_bit_hash, CTensor, Complex64, Tensor};

/// A deterministic value in `[-1, 1)` per call (64-bit LCG).
fn lcg(state: &mut u64) -> f64 {
    *state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
    ((*state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
}

fn real_field(dims: &[usize], seed: u64) -> Tensor {
    let mut s = seed;
    let len = dims.iter().product();
    Tensor::from_vec(dims, (0..len).map(|_| lcg(&mut s)).collect())
}

fn complex_field(dims: &[usize], seed: u64) -> CTensor {
    let mut s = seed;
    let len = dims.iter().product();
    CTensor::from_vec(dims, (0..len).map(|_| Complex64::new(lcg(&mut s), lcg(&mut s))).collect())
}

#[test]
fn fft2_and_ifft2_at_64_squared() {
    let x = complex_field(&[64, 64], 1);
    let got = [complex_bit_hash(fft2(&x).data()), complex_bit_hash(ifft2(&x).data())];
    assert_eq!(got, [0x4af2_ce79_5886_5054, 0xba14_9b14_c2dc_34c6], "{got:#x?}");
}

#[test]
fn rfftn_and_irfftn_at_2_3_32_32() {
    let x = real_field(&[2, 3, 32, 32], 2);
    let spec = complex_field(&[2, 3, 32, 17], 3);
    let got = [complex_bit_hash(rfftn(&x, 2).data()), bit_hash(irfftn(&spec, 32, 2).data())];
    assert_eq!(got, [0x9ea3_ec32_72ca_9754, 0x3679_6784_53c0_085a], "{got:#x?}");
}

#[test]
fn three_axis_transform_with_a_narrow_inner_axis() {
    // Axis 1 is strided with 5 lines per chunk, axis 2 with 3.
    let x = complex_field(&[2, 16, 8, 3], 4);
    let got = [
        complex_bit_hash(fftn(&x, 3, Direction::Forward).data()),
        complex_bit_hash(fftn(&x, 3, Direction::Inverse).data()),
    ];
    assert_eq!(got, [0xbe6a_5d6f_f5c5_5afd, 0x6f11_f730_e362_cb80], "{got:#x?}");
}

#[test]
fn mixed_radix_lengths_10_and_12() {
    let x = complex_field(&[3, 10, 12], 5);
    let r = real_field(&[4, 10, 12], 6);
    let spec = complex_field(&[4, 10, 7], 7);
    let got = [
        complex_bit_hash(fft2(&x).data()),
        complex_bit_hash(ifft2(&x).data()),
        complex_bit_hash(rfftn(&r, 2).data()),
        bit_hash(irfftn(&spec, 12, 2).data()),
    ];
    let want = [0x8173_192a_8487_c2c0, 0x2605_5faa_c6d1_4503, 0x91fd_e8ca_14a9_8d87, 0xbfce_fa9a_3932_0a82];
    assert_eq!(got, want, "{got:#x?}");
}

#[test]
fn bluestein_length_13() {
    let x = complex_field(&[2, 13, 13], 8);
    let r = real_field(&[3, 13, 13], 9);
    let spec = complex_field(&[3, 13, 7], 10);
    let got = [
        complex_bit_hash(fft2(&x).data()),
        complex_bit_hash(ifft2(&x).data()),
        complex_bit_hash(rfftn(&r, 2).data()),
        bit_hash(irfftn(&spec, 13, 2).data()),
    ];
    let want = [0x422e_dfc4_ba9c_40d0, 0x8006_aff0_32fc_548e, 0x2259_7a4d_2bcf_722d, 0xfe36_ba76_6658_3b50];
    assert_eq!(got, want, "{got:#x?}");
}
