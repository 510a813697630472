//! Parameter snapshots and their flat binary encoding.
//!
//! [`snapshot_params`] / [`restore_params`] copy every parameter reachable
//! through [`crate::Layer::visit_params`] out of and back into a model;
//! the gradient-side helpers do the same for the accumulators.
//!
//! Blob format (`FTW1`, little-endian, through [`ft_tensor::codec`]):
//! magic, parameter-tensor count `u32`, then per tensor: kind byte (0
//! real, 1 complex), rank `u32`, dims `u64 × rank` (each non-zero),
//! payload `f64` (complex stored re, im interleaved). The blob is not a
//! file format of its own: training checkpoints and model files (`FTC1`,
//! in `fno-core`) embed it.

use std::io;

use ft_tensor::codec::{invalid, Reader, Writer};
use ft_tensor::{Array, CTensor, Complex64, Element, Tensor};

use crate::param::{each, Param, ParamValue};
use crate::Layer;

const MAGIC: &[u8; 4] = b"FTW1";

/// Appends a parameter-value snapshot to `out` as a self-delimiting FTW1
/// blob; appending cannot fail. Training checkpoints embed these for both
/// the current weights and the best-seen snapshot.
pub fn save_param_values_to(values: &[ParamValue], out: &mut Vec<u8>) -> io::Result<()> {
    out.put_bytes(MAGIC);
    out.put_u32(values.len() as u32);
    for v in values {
        match v {
            ParamValue::Real(t) => {
                out.put_u8(0);
                out.put_dims(t.dims());
                out.put_f64s(t.data());
            }
            ParamValue::Complex(t) => {
                out.put_u8(1);
                out.put_dims(t.dims());
                t.data().iter().for_each(|z| out.put_f64s(&[z.re, z.im]));
            }
        }
    }
    Ok(())
}

/// Reads a blob written by [`save_param_values_to`] from the front of `r`,
/// advancing it past the blob, without needing a model to validate
/// against. The codec bounds every count and size by the bytes that
/// remain, so corrupt input yields `InvalidData` rather than an OOM or
/// panic.
pub fn load_param_values_from(r: &mut &[u8]) -> io::Result<Vec<ParamValue>> {
    if &r.array::<4>()? != MAGIC {
        return Err(invalid("not an FTW1 parameter blob"));
    }
    // A tensor takes at least its kind byte and rank.
    let count = r.count_u32(5)?;
    (0..count)
        .map(|_| {
            let kind = r.u8()?;
            if kind > 1 {
                return Err(invalid("unknown parameter kind"));
            }
            let dims = r.dims()?;
            if dims.contains(&0) {
                return Err(invalid("implausible dimension"));
            }
            let len: usize = dims.iter().product();
            Ok(if kind == 0 {
                ParamValue::Real(Tensor::from_vec(&dims, r.f64s(len)?))
            } else {
                let flat = r.f64s(len.saturating_mul(2))?;
                let data = flat.chunks_exact(2).map(|z| Complex64::new(z[0], z[1])).collect();
                ParamValue::Complex(CTensor::from_vec(&dims, data))
            })
        })
        .collect()
}

/// The value of `p`, or with `grads` its gradient.
fn pick<T: Element>(p: &mut Param<T>, grads: bool) -> &mut Array<T> {
    if grads {
        &mut p.grad
    } else {
        &mut p.value
    }
}

/// Copies every parameter's value, or with `grads` its gradient, out of a
/// model.
fn snapshot(model: &mut dyn Layer, grads: bool) -> Vec<ParamValue> {
    let mut out = Vec::new();
    model.visit_params(&mut |p| out.push(each!(map p, p => pick(p, grads).clone())));
    out
}

/// Overwrites every parameter's value, or with `grads` its gradient, with
/// a snapshot of the same architecture. Panics on any kind or shape
/// mismatch.
fn load(model: &mut dyn Layer, snapshot: &[ParamValue], grads: bool) {
    let mut i = 0usize;
    model.visit_params(&mut |p| {
        let pair = snapshot[i].as_ref().zip(p).unwrap_or_else(|| kind_mismatch(i));
        each!(pair, (src, p) => {
            let dst = pick(p, grads);
            assert_eq!(src.dims(), dst.dims(), "snapshot shape mismatch at {i}");
            dst.data_mut().copy_from_slice(src.data());
        });
        i += 1;
    });
    assert_eq!(i, snapshot.len(), "snapshot length mismatch");
}

/// Snapshot entry `i` is real where its counterpart is complex, or the reverse.
fn kind_mismatch(i: usize) -> ! {
    panic!("snapshot parameter kind mismatch at {i}")
}

/// Captures all parameter values of a model.
pub fn snapshot_params(model: &mut dyn Layer) -> Vec<ParamValue> {
    snapshot(model, false)
}

/// Restores a snapshot taken from the *same* model architecture. Panics on
/// any kind or shape mismatch.
pub fn restore_params(model: &mut dyn Layer, snapshot: &[ParamValue]) {
    load(model, snapshot, false)
}

/// Captures all gradient accumulators of a model (the gradient-side
/// counterpart of [`snapshot_params`]). Data-parallel training uses these
/// as the per-shard contributions to the reduced batch gradient.
pub fn snapshot_grads(model: &mut dyn Layer) -> Vec<ParamValue> {
    snapshot(model, true)
}

/// Elementwise `acc += other` over matching snapshots. Panics on kind or
/// shape mismatch; the addition order is exactly the argument order, so
/// callers control the floating-point association.
pub fn add_param_values(acc: &mut [ParamValue], other: &[ParamValue]) {
    assert_eq!(acc.len(), other.len(), "snapshot length mismatch");
    for (i, (a, b)) in acc.iter_mut().zip(other).enumerate() {
        let pair = a.as_mut().zip(b.as_ref()).unwrap_or_else(|| kind_mismatch(i));
        each!(pair, (a, b) => {
            assert_eq!(a.dims(), b.dims(), "snapshot shape mismatch at {i}");
            a.add_assign(b);
        });
    }
}

/// Elementwise in-place scaling of a snapshot (e.g. `1/B` gradient
/// averaging after a tree reduction).
pub fn scale_param_values(values: &mut [ParamValue], s: f64) {
    for v in values {
        each!(v, t => t.scale_inplace(s));
    }
}

/// Overwrites the model's gradient accumulators with a snapshot captured by
/// [`snapshot_grads`] (from the same architecture). Panics on any kind or
/// shape mismatch.
pub fn load_grads(model: &mut dyn Layer, snapshot: &[ParamValue]) {
    load(model, snapshot, true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::Linear;
    use crate::param::ParamMut;
    use crate::spectral::SpectralConv;
    use crate::Layer;
    use ft_tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Small composite layer exercising both parameter kinds.
    struct Both {
        lin: Linear,
        spec: SpectralConv,
    }

    impl Layer for Both {
        fn forward(&mut self, x: &Tensor) -> Tensor {
            let y = self.lin.forward(x);
            self.spec.forward(&y)
        }
        fn backward(&mut self, g: &Tensor) -> Tensor {
            let g = self.spec.backward(g);
            self.lin.backward(&g)
        }
        fn visit_params(&mut self, f: &mut dyn FnMut(ParamMut<'_>)) {
            self.lin.visit_params(f);
            self.spec.visit_params(f);
        }
        fn param_count(&self) -> usize {
            self.lin.param_count() + self.spec.param_count()
        }
    }

    fn make(seed: u64) -> Both {
        let mut rng = StdRng::seed_from_u64(seed);
        Both {
            lin: Linear::new(2, 3, &mut rng),
            spec: SpectralConv::new_2d(3, 2, 2, &mut rng),
        }
    }

    #[test]
    fn param_value_blob_roundtrip() {
        let mut a = make(4);
        let snap = snapshot_params(&mut a);
        let mut buf = Vec::new();
        save_param_values_to(&snap, &mut buf).unwrap();
        let loaded = load_param_values_from(&mut &buf[..]).unwrap();
        assert_eq!(loaded.len(), snap.len());
        let mut b = make(5);
        restore_params(&mut b, &loaded);
        let x = Tensor::from_fn(&[1, 2, 8, 8], |i| ((i[2] * 3 + i[3]) as f64 * 0.05).cos());
        assert!(b.forward(&x).allclose(&a.forward(&x), 0.0));
    }

    #[test]
    fn param_value_blob_rejects_corruption() {
        let mut a = make(4);
        let snap = snapshot_params(&mut a);
        let mut buf = Vec::new();
        save_param_values_to(&snap, &mut buf).unwrap();
        // Implausible rank.
        let mut bad = buf.clone();
        bad[9] = 0xFF;
        assert!(load_param_values_from(&mut &bad[..]).is_err());
        // Truncation.
        assert!(load_param_values_from(&mut &buf[..buf.len() - 3]).is_err());
        // Wrong magic.
        assert!(load_param_values_from(&mut &b"NOPE\0\0\0\0"[..]).is_err());
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let mut a = make(1);
        let x = Tensor::from_fn(&[1, 2, 8, 8], |i| ((i[2] + i[3]) as f64 * 0.2).sin());
        let y0 = a.forward(&x);
        let snap = snapshot_params(&mut a);
        // Perturb the weights, then restore.
        a.visit_params(&mut |p| {
            if let ParamMut::Real(p) = p {
                p.value.scale_inplace(1.5);
            }
        });
        assert!(!a.forward(&x).allclose(&y0, 1e-12));
        restore_params(&mut a, &snap);
        assert!(a.forward(&x).allclose(&y0, 0.0));
    }
}