//! Finite-difference gradient checking.
//!
//! Every layer's hand-derived backward pass is validated against central
//! differences of the scalar probe loss `L = ½‖forward(x)‖²`, whose output
//! gradient is simply the output itself. Checks cover both parameter
//! gradients (real and complex, the latter componentwise) and the input
//! gradient.

use ft_tensor::{Element, Tensor};

use crate::param::{components, each};
use crate::Layer;

/// Maximum number of entries probed per parameter tensor (larger tensors
/// are strided deterministically).
const MAX_PROBES: usize = 48;

fn probe_loss(layer: &mut dyn Layer, x: &Tensor) -> f64 {
    let y = layer.forward(x);
    0.5 * y.dot(&y)
}

fn assert_close(analytic: f64, numeric: f64, tol: f64, what: &str) {
    let denom = analytic.abs().max(numeric.abs()).max(1.0);
    let rel = (analytic - numeric).abs() / denom;
    assert!(
        rel <= tol,
        "{what}: analytic {analytic:.9e} vs numeric {numeric:.9e} (rel {rel:.3e})"
    );
}

/// Adds `delta` to one real degree of freedom of parameter tensor `k`:
/// entry `j`, component `c` (see [`Element::component`]).
fn nudge(layer: &mut dyn Layer, k: usize, j: usize, c: usize, delta: f64) {
    let mut i = 0;
    layer.visit_params(&mut |p| {
        if i == k {
            each!(p, p => *p.value.data_mut()[j].component_mut(c) += delta);
        }
        i += 1;
    });
}

/// Reads the analytic gradient of one real degree of freedom.
fn read_grad(layer: &mut dyn Layer, k: usize, j: usize, c: usize) -> f64 {
    let mut out = 0.0;
    let mut i = 0;
    layer.visit_params(&mut |p| {
        if i == k {
            out = each!(p, p => p.grad.data()[j].component(c));
        }
        i += 1;
    });
    out
}

/// Validates every parameter gradient of `layer` at input `x` against
/// central finite differences with step `eps`, to relative tolerance `tol`.
pub fn check_param_gradients(layer: &mut dyn Layer, x: &Tensor, eps: f64, tol: f64) {
    layer.zero_grad();
    let y = layer.forward(x);
    let _ = layer.backward(&y);

    // Entry count and real components per entry of each parameter tensor.
    let mut shapes = Vec::new();
    layer.visit_params(&mut |p| shapes.push(each!(p, p => (p.len(), components(&p.value)))));
    for (k, (len, comps)) in shapes.into_iter().enumerate() {
        let stride = (len / MAX_PROBES).max(1);
        for j in (0..len).step_by(stride) {
            for c in 0..comps {
                let analytic = read_grad(layer, k, j, c);
                nudge(layer, k, j, c, eps);
                let lp = probe_loss(layer, x);
                nudge(layer, k, j, c, -2.0 * eps);
                let lm = probe_loss(layer, x);
                nudge(layer, k, j, c, eps);
                let numeric = (lp - lm) / (2.0 * eps);
                assert_close(analytic, numeric, tol, &format!("param {k} entry {j} comp {c}"));
            }
        }
    }
}

/// Validates the input gradient of `layer` at `x` against central finite
/// differences with step `eps`, to relative tolerance `tol`.
pub fn check_input_gradient(layer: &mut dyn Layer, x: &Tensor, eps: f64, tol: f64) {
    layer.zero_grad();
    let y = layer.forward(x);
    let gx = layer.backward(&y);
    assert_eq!(gx.dims(), x.dims(), "input gradient shape mismatch");

    let len = x.len();
    let stride = (len / MAX_PROBES).max(1);
    let mut xp = x.clone();
    for j in (0..len).step_by(stride) {
        let orig = xp.data()[j];
        xp.data_mut()[j] = orig + eps;
        let lp = probe_loss(layer, &xp);
        xp.data_mut()[j] = orig - eps;
        let lm = probe_loss(layer, &xp);
        xp.data_mut()[j] = orig;
        let numeric = (lp - lm) / (2.0 * eps);
        assert_close(gx.data()[j], numeric, tol, &format!("input entry {j}"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::param::{Param, ParamMut};

    /// A deliberately simple layer (y = a·x² elementwise) with a known
    /// gradient, to validate the checker itself — including that it *fails*
    /// on a wrong gradient.
    struct Square {
        a: Param,
        cache: Option<Tensor>,
        sabotage: bool,
    }

    impl Square {
        fn new(a: f64, sabotage: bool) -> Self {
            Square { a: Param::new(Tensor::full(&[1], a)), cache: None, sabotage }
        }
    }

    impl Layer for Square {
        fn forward(&mut self, x: &Tensor) -> Tensor {
            self.cache = Some(x.clone());
            let a = self.a.value.data()[0];
            x.map(|v| a * v * v)
        }
        fn backward(&mut self, g: &Tensor) -> Tensor {
            let x = self.cache.take().unwrap();
            let a = self.a.value.data()[0];
            let factor = if self.sabotage { 1.5 } else { 1.0 };
            self.a.grad.data_mut()[0] +=
                g.data().iter().zip(x.data()).map(|(&gv, &xv)| gv * xv * xv).sum::<f64>();
            x.zip_map(g, |xv, gv| factor * 2.0 * a * xv * gv)
        }
        fn visit_params(&mut self, f: &mut dyn FnMut(ParamMut<'_>)) {
            f(ParamMut::Real(&mut self.a));
        }
        fn param_count(&self) -> usize {
            1
        }
    }

    #[test]
    fn checker_accepts_correct_gradients() {
        let mut layer = Square::new(0.7, false);
        let x = Tensor::from_vec(&[1, 1, 4], vec![0.3, -0.8, 1.2, 0.05]);
        check_param_gradients(&mut layer, &x, 1e-5, 1e-6);
        check_input_gradient(&mut layer, &x, 1e-5, 1e-6);
    }

    #[test]
    #[should_panic(expected = "input entry")]
    fn checker_rejects_wrong_input_gradient() {
        let mut layer = Square::new(0.7, true);
        let x = Tensor::from_vec(&[1, 1, 3], vec![0.4, -0.6, 1.1]);
        check_input_gradient(&mut layer, &x, 1e-5, 1e-6);
    }
}
