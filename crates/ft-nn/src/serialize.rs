//! Parameter snapshots and their flat binary encoding.
//!
//! [`snapshot_params`] / [`restore_params`] copy every parameter reachable
//! through [`crate::Layer::visit_params`] out of and back into a model;
//! the gradient-side helpers do the same for the accumulators.
//!
//! Blob format (`FTW1`, little-endian): magic, parameter-tensor count
//! `u32`, then per tensor: kind byte (0 real, 1 complex), rank `u32`, dims
//! `u64 × rank`, payload `f64` (complex stored re, im interleaved). The
//! blob is not a file format of its own: training checkpoints and model
//! files (`FTC1`, in `fno-core`) embed it.

use std::io::{self, Read, Write};

use crate::param::ParamMut;
use crate::Layer;

const MAGIC: &[u8; 4] = b"FTW1";

/// Writes a parameter-value snapshot as a self-delimiting FTW1 blob.
/// Training checkpoints embed these for both the current weights and the
/// best-seen snapshot.
pub fn save_param_values_to(values: &[ParamValue], w: &mut impl Write) -> io::Result<()> {
    w.write_all(MAGIC)?;
    w.write_all(&(values.len() as u32).to_le_bytes())?;
    for v in values {
        match v {
            ParamValue::Real(t) => {
                w.write_all(&[0u8])?;
                w.write_all(&(t.shape().rank() as u32).to_le_bytes())?;
                for &d in t.dims() {
                    w.write_all(&(d as u64).to_le_bytes())?;
                }
                for &x in t.data() {
                    w.write_all(&x.to_le_bytes())?;
                }
            }
            ParamValue::Complex(t) => {
                w.write_all(&[1u8])?;
                w.write_all(&(t.shape().rank() as u32).to_le_bytes())?;
                for &d in t.dims() {
                    w.write_all(&(d as u64).to_le_bytes())?;
                }
                for z in t.data() {
                    w.write_all(&z.re.to_le_bytes())?;
                    w.write_all(&z.im.to_le_bytes())?;
                }
            }
        }
    }
    Ok(())
}

/// Reads a blob written by [`save_param_values_to`] without needing a model
/// to validate against. Every size field is bounds-checked before any
/// allocation, so corrupt input yields `InvalidData` rather than an OOM or
/// panic.
pub fn load_param_values_from(r: &mut impl Read) -> io::Result<Vec<ParamValue>> {
    let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(bad("not an FTW1 parameter blob"));
    }
    let mut b4 = [0u8; 4];
    r.read_exact(&mut b4)?;
    let count = u32::from_le_bytes(b4);
    if count > 1 << 20 {
        return Err(bad("implausible parameter-tensor count"));
    }
    let mut out = Vec::with_capacity(count as usize);
    let mut b8 = [0u8; 8];
    for _ in 0..count {
        let mut kind = [0u8; 1];
        r.read_exact(&mut kind)?;
        if kind[0] > 1 {
            return Err(bad("unknown parameter kind"));
        }
        r.read_exact(&mut b4)?;
        let rank = u32::from_le_bytes(b4) as usize;
        if rank > 16 {
            return Err(bad("implausible rank"));
        }
        let mut dims = Vec::with_capacity(rank);
        let mut len = 1usize;
        for _ in 0..rank {
            r.read_exact(&mut b8)?;
            let d = u64::from_le_bytes(b8);
            if d == 0 || d > 1 << 32 {
                return Err(bad("implausible dimension"));
            }
            dims.push(d as usize);
            len = len
                .checked_mul(d as usize)
                .filter(|&l| l <= 1 << 32)
                .ok_or_else(|| bad("tensor size overflows"))?;
        }
        if kind[0] == 0 {
            let mut data = Vec::new();
            for _ in 0..len {
                r.read_exact(&mut b8)?;
                data.push(f64::from_le_bytes(b8));
            }
            out.push(ParamValue::Real(ft_tensor::Tensor::from_vec(&dims, data)));
        } else {
            let mut data = Vec::new();
            for _ in 0..len {
                r.read_exact(&mut b8)?;
                let re = f64::from_le_bytes(b8);
                r.read_exact(&mut b8)?;
                let im = f64::from_le_bytes(b8);
                data.push(ft_tensor::Complex64::new(re, im));
            }
            out.push(ParamValue::Complex(ft_tensor::CTensor::from_vec(&dims, data)));
        }
    }
    Ok(out)
}

/// An in-memory snapshot of every parameter value (not gradients), used by
/// early stopping to restore the best-seen weights.
#[derive(Clone, Debug)]
pub enum ParamValue {
    /// Real tensor value.
    Real(ft_tensor::Tensor),
    /// Complex tensor value.
    Complex(ft_tensor::CTensor),
}

/// Captures all parameter values of a model.
pub fn snapshot_params(model: &mut dyn Layer) -> Vec<ParamValue> {
    let mut out = Vec::new();
    model.visit_params(&mut |p| match p {
        ParamMut::Real { value, .. } => out.push(ParamValue::Real(value.clone())),
        ParamMut::Complex { value, .. } => out.push(ParamValue::Complex(value.clone())),
    });
    out
}

/// Restores a snapshot taken from the *same* model architecture. Panics on
/// any kind or shape mismatch.
pub fn restore_params(model: &mut dyn Layer, snapshot: &[ParamValue]) {
    let mut i = 0usize;
    model.visit_params(&mut |p| {
        match (&snapshot[i], p) {
            (ParamValue::Real(v), ParamMut::Real { value, .. }) => {
                assert_eq!(v.dims(), value.dims(), "snapshot shape mismatch at {i}");
                value.data_mut().copy_from_slice(v.data());
            }
            (ParamValue::Complex(v), ParamMut::Complex { value, .. }) => {
                assert_eq!(v.dims(), value.dims(), "snapshot shape mismatch at {i}");
                value.data_mut().copy_from_slice(v.data());
            }
            _ => panic!("snapshot parameter kind mismatch at {i}"),
        }
        i += 1;
    });
    assert_eq!(i, snapshot.len(), "snapshot length mismatch");
}

/// Captures all gradient accumulators of a model (the gradient-side
/// counterpart of [`snapshot_params`]). Data-parallel training uses these
/// as the per-shard contributions to the reduced batch gradient.
pub fn snapshot_grads(model: &mut dyn Layer) -> Vec<ParamValue> {
    let mut out = Vec::new();
    model.visit_params(&mut |p| match p {
        ParamMut::Real { grad, .. } => out.push(ParamValue::Real(grad.clone())),
        ParamMut::Complex { grad, .. } => out.push(ParamValue::Complex(grad.clone())),
    });
    out
}

/// Elementwise `acc += other` over matching snapshots. Panics on kind or
/// shape mismatch; the addition order is exactly the argument order, so
/// callers control the floating-point association.
pub fn add_param_values(acc: &mut [ParamValue], other: &[ParamValue]) {
    assert_eq!(acc.len(), other.len(), "snapshot length mismatch");
    for (i, (a, b)) in acc.iter_mut().zip(other).enumerate() {
        match (a, b) {
            (ParamValue::Real(a), ParamValue::Real(b)) => {
                assert_eq!(a.dims(), b.dims(), "snapshot shape mismatch at {i}");
                for (x, y) in a.data_mut().iter_mut().zip(b.data()) {
                    *x += y;
                }
            }
            (ParamValue::Complex(a), ParamValue::Complex(b)) => {
                assert_eq!(a.dims(), b.dims(), "snapshot shape mismatch at {i}");
                for (x, y) in a.data_mut().iter_mut().zip(b.data()) {
                    *x += *y;
                }
            }
            _ => panic!("snapshot parameter kind mismatch at {i}"),
        }
    }
}

/// Elementwise in-place scaling of a snapshot (e.g. `1/B` gradient
/// averaging after a tree reduction).
pub fn scale_param_values(values: &mut [ParamValue], s: f64) {
    for v in values {
        match v {
            ParamValue::Real(t) => t.scale_inplace(s),
            ParamValue::Complex(t) => t.scale_inplace(s),
        }
    }
}

/// Overwrites the model's gradient accumulators with a snapshot captured by
/// [`snapshot_grads`] (from the same architecture). Panics on any kind or
/// shape mismatch.
pub fn load_grads(model: &mut dyn Layer, snapshot: &[ParamValue]) {
    let mut i = 0usize;
    model.visit_params(&mut |p| {
        match (&snapshot[i], p) {
            (ParamValue::Real(v), ParamMut::Real { grad, .. }) => {
                assert_eq!(v.dims(), grad.dims(), "snapshot shape mismatch at {i}");
                grad.data_mut().copy_from_slice(v.data());
            }
            (ParamValue::Complex(v), ParamMut::Complex { grad, .. }) => {
                assert_eq!(v.dims(), grad.dims(), "snapshot shape mismatch at {i}");
                grad.data_mut().copy_from_slice(v.data());
            }
            _ => panic!("snapshot parameter kind mismatch at {i}"),
        }
        i += 1;
    });
    assert_eq!(i, snapshot.len(), "snapshot length mismatch");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::Linear;
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
            if let ParamMut::Real { value, .. } = p {
                value.scale_inplace(1.5);
            }
        });
        assert!(!a.forward(&x).allclose(&y0, 1e-12));
        restore_params(&mut a, &snap);
        assert!(a.forward(&x).allclose(&y0, 0.0));
    }
}