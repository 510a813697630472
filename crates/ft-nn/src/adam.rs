//! Adam optimizer (Kingma & Ba), matching PyTorch semantics: complex
//! parameters are optimized as independent real pairs.

use ft_tensor::Element;
use rayon::prelude::*;

use crate::param::{each, Param};
use crate::Layer;

/// Parameter blocks of this many entries update in parallel. The Adam
/// update is elementwise, so block boundaries cannot change results —
/// chunking only sets the parallel grain.
const BLOCK: usize = 1024;

/// Snapshot of an [`Adam`] optimizer's mutable state, used by training
/// checkpoints to resume bit-identically.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct AdamState {
    /// First-moment estimate per real degree of freedom, per parameter.
    pub m: Vec<Vec<f64>>,
    /// Second-moment estimate per real degree of freedom, per parameter.
    pub v: Vec<Vec<f64>>,
    /// Steps taken (drives bias correction).
    pub t: u64,
}

/// Adam state for one model. The optimizer identifies parameters by their
/// visit order, which is stable for the static architectures in this
/// workspace.
pub struct Adam {
    /// Learning rate (mutated by schedulers).
    pub lr: f64,
    beta1: f64,
    beta2: f64,
    eps: f64,
    /// First/second moment per real degree of freedom, per parameter tensor.
    m: Vec<Vec<f64>>,
    v: Vec<Vec<f64>>,
    t: u64,
}

impl Adam {
    /// Adam with the paper's defaults: β = (0.9, 0.999), ε = 1e-8, no decay.
    pub fn new(lr: f64) -> Self {
        Adam { lr, beta1: 0.9, beta2: 0.999, eps: 1e-8, m: vec![], v: vec![], t: 0 }
    }

    /// Steps taken so far.
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// Copies out the full optimizer state (moment vectors + step count)
    /// for checkpointing. Parameter identity is visit order, so the state
    /// is only valid for a model with the same architecture.
    pub fn export_state(&self) -> AdamState {
        AdamState { m: self.m.clone(), v: self.v.clone(), t: self.t }
    }

    /// Restores state captured by [`Adam::export_state`]. The next
    /// [`Adam::step`] continues the moment estimates exactly where the
    /// checkpointed run left off.
    pub fn import_state(&mut self, state: AdamState) {
        self.m = state.m;
        self.v = state.v;
        self.t = state.t;
    }

    /// Applies one update using the gradients currently accumulated in the
    /// model, then leaves the gradients untouched (call `zero_grad` next).
    ///
    /// Large parameter tensors update in `BLOCK`-sized chunks that may run
    /// on worker threads; because the update is strictly elementwise the
    /// result is bit-identical for any thread count.
    pub fn step(&mut self, model: &mut dyn Layer) {
        self.t += 1;
        let t = self.t as i32;
        let (b1, b2, eps, lr) = (self.beta1, self.beta2, self.eps, self.lr);
        let bc1 = 1.0 - b1.powi(t);
        let bc2 = 1.0 - b2.powi(t);

        // Captures only scalars, so the per-block loops below can share it
        // across worker threads.
        let update = move |value: &mut f64, m: &mut f64, v: &mut f64, g: f64| {
            *m = b1 * *m + (1.0 - b1) * g;
            *v = b2 * *v + (1.0 - b2) * g * g;
            let mhat = *m / bc1;
            let vhat = *v / bc2;
            *value -= lr * mhat / (vhat.sqrt() + eps);
        };

        let mut idx = 0usize;
        let m_store = &mut self.m;
        let v_store = &mut self.v;
        model.visit_params(&mut |p| {
            let dof = p.real_dof();
            if m_store.len() == idx {
                m_store.push(vec![0.0; dof]);
                v_store.push(vec![0.0; dof]);
            }
            let m = &mut m_store[idx];
            let v = &mut v_store[idx];
            assert_eq!(m.len(), dof, "parameter {idx} changed size between steps");
            each!(p, p => step_param(p, m, v, update));
            idx += 1;
        });
    }
}

/// Runs `update(value, m, v, grad)` on every real degree of freedom of `p`
/// (a complex entry's re, then its im), in `BLOCK`-entry chunks that may
/// run on worker threads.
fn step_param<T: Element>(
    p: &mut Param<T>,
    m: &mut [f64],
    v: &mut [f64],
    update: impl Fn(&mut f64, &mut f64, &mut f64, f64) + Sync,
) {
    let n = T::COMPONENTS;
    p.value
        .data_mut()
        .par_chunks_mut(BLOCK)
        .zip(p.grad.data().par_chunks(BLOCK))
        .zip(m.par_chunks_mut(n * BLOCK))
        .zip(v.par_chunks_mut(n * BLOCK))
        .for_each(|(((vals, gs), ms), vs)| {
            for (((val, g), mj), vj) in
                vals.iter_mut().zip(gs).zip(ms.chunks_exact_mut(n)).zip(vs.chunks_exact_mut(n))
            {
                for c in 0..n {
                    update(val.component_mut(c), &mut mj[c], &mut vj[c], g.component(c));
                }
            }
        });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::param::{CParam, ParamMut};
    use ft_tensor::{CTensor, Complex64, Tensor};

    /// Trivial model: L = ½(x − a)² + ½|z − c|², minimized at a = x, z = c.
    struct Quad {
        a: Param,
        z: crate::param::CParam,
        target_a: f64,
        target_z: Complex64,
    }

    impl Quad {
        fn compute_grads(&mut self) -> f64 {
            let a = self.a.value.data()[0];
            let z = self.z.value.data()[0];
            self.a.grad.data_mut()[0] = a - self.target_a;
            let dz = z - self.target_z;
            self.z.grad.data_mut()[0] = dz; // real-pair grad of ½|z−c|²
            0.5 * (a - self.target_a).powi(2) + 0.5 * dz.norm_sqr()
        }
    }

    impl Layer for Quad {
        fn forward(&mut self, x: &Tensor) -> Tensor {
            x.clone()
        }
        fn backward(&mut self, g: &Tensor) -> Tensor {
            g.clone()
        }
        fn visit_params(&mut self, f: &mut dyn FnMut(ParamMut<'_>)) {
            f(ParamMut::Real(&mut self.a));
            f(ParamMut::Complex(&mut self.z));
        }
        fn param_count(&self) -> usize {
            2
        }
    }

    #[test]
    fn converges_on_quadratic_with_complex_params() {
        let mut model = Quad {
            a: Param::new(Tensor::from_vec(&[1], vec![5.0])),
            z: crate::param::CParam::new(CTensor::from_vec(
                &[1],
                vec![Complex64::new(-2.0, 3.0)],
            )),
            target_a: 1.5,
            target_z: Complex64::new(0.25, -0.75),
        };
        let mut opt = Adam::new(0.05);
        let mut last = f64::INFINITY;
        for i in 0..600 {
            let l = model.compute_grads();
            opt.step(&mut model);
            if i % 100 == 0 {
                assert!(l <= last + 1e-9, "loss must not increase much at step {i}");
                last = l;
            }
        }
        assert!((model.a.value.data()[0] - 1.5).abs() < 1e-3);
        let z = model.z.value.data()[0];
        assert!((z - Complex64::new(0.25, -0.75)).abs() < 1e-3);
    }

    #[test]
    fn first_step_moves_by_lr() {
        // With bias correction, |Δ| of the very first Adam step ≈ lr.
        let mut model = Quad {
            a: Param::new(Tensor::from_vec(&[1], vec![2.0])),
            z: crate::param::CParam::new(CTensor::from_vec(&[1], vec![Complex64::ONE])),
            target_a: 0.0,
            target_z: Complex64::ZERO,
        };
        let mut opt = Adam::new(0.01);
        model.compute_grads();
        opt.step(&mut model);
        let moved = (model.a.value.data()[0] - 2.0).abs();
        assert!((moved - 0.01).abs() < 1e-6, "first step {moved}");
    }

    /// A real parameter and a complex one, updated side by side.
    struct Twin {
        re: Param,
        z: CParam,
    }

    impl Layer for Twin {
        fn forward(&mut self, x: &Tensor) -> Tensor {
            x.clone()
        }
        fn backward(&mut self, g: &Tensor) -> Tensor {
            g.clone()
        }
        fn visit_params(&mut self, f: &mut dyn FnMut(ParamMut<'_>)) {
            f(ParamMut::Real(&mut self.re));
            f(ParamMut::Complex(&mut self.z));
        }
        fn param_count(&self) -> usize {
            self.re.len() + self.z.len()
        }
    }

    /// A complex parameter of `n` entries and a real one holding the same
    /// `2n` values, re and im interleaved, end bit-identical after the same
    /// gradients: Adam treats a complex entry as two independent real
    /// degrees of freedom. `n` spans more than one update block.
    #[test]
    fn complex_entries_update_as_interleaved_real_pairs() {
        let n = BLOCK + 300;
        let val = |k: usize| (k as f64 * 0.37).sin() * 2.0;
        let grad = |k: usize, step: usize| ((k * 7 + step * 3) as f64 * 0.11).cos() * 0.5;
        let mut model = Twin {
            re: Param::new(Tensor::from_fn(&[2 * n], |i| val(i[0]))),
            z: CParam::new(CTensor::from_fn(&[n], |i| {
                Complex64::new(val(2 * i[0]), val(2 * i[0] + 1))
            })),
        };
        let mut opt = Adam::new(0.03);
        for step in 0..5 {
            model.re.grad = Tensor::from_fn(&[2 * n], |i| grad(i[0], step));
            model.z.grad = CTensor::from_fn(&[n], |i| {
                Complex64::new(grad(2 * i[0], step), grad(2 * i[0] + 1, step))
            });
            opt.step(&mut model);
        }
        let pairs: Vec<f64> = model.z.value.data().iter().flat_map(|z| [z.re, z.im]).collect();
        assert_eq!(pairs.len(), model.re.value.len());
        for (k, (a, b)) in pairs.iter().zip(model.re.value.data()).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "degree of freedom {k}");
        }
        assert_ne!(model.re.value.data()[0], val(0), "the parameters moved");
    }
}
