//! The global gradient norm, and global-norm clipping.
//!
//! The trainer reads [`global_grad_norm`] after every batch: a non-finite
//! norm makes its health monitor roll the epoch back, and the last finite
//! one is the epoch's `grad_norm`. The trainer does not clip.
//! [`clip_grad_norm`] (the `torch.nn.utils.clip_grad_norm_` analogue) has
//! no caller in the program; it stays only for perfbench's `nn.clip_ms`
//! probe, and goes when that probe does.

use ft_tensor::Element;
use rayon::prelude::*;

use crate::param::each;
use crate::Layer;

/// Partial-sum chunk size for the norm reduction, and the parallel grain
/// for gradient scaling. Fixed (never derived from the thread count) so the
/// floating-point association — and therefore the norm bit pattern — is
/// invariant to how many workers run.
const CHUNK: usize = 4096;

/// Distribution of per-parameter-tensor gradient norms (every weight and
/// bias contributes one sample per [`global_grad_norm`] call). A fattening
/// p99 shows that some parameter tensors' gradients are exploding, where
/// the global norm alone cannot say how many.
static LAYER_GRAD_NORM: ft_obs::Histogram = ft_obs::Histogram::new("nn.layer_grad_norm");

/// Sum of [`Element::norm_sqr`] over `data` with a fixed, data-length-only
/// association: [`CHUNK`]-sized partials (computed possibly in parallel,
/// collected in index order) folded sequentially. Deterministic for any
/// thread count.
fn chunked_sum_sq<T: Element>(data: &[T]) -> f64 {
    if data.len() <= CHUNK {
        return data.iter().map(|g| g.norm_sqr()).sum();
    }
    let partials: Vec<f64> =
        data.par_chunks(CHUNK).map(|c| c.iter().map(|g| g.norm_sqr()).sum::<f64>()).collect();
    partials.into_iter().sum()
}

/// `data *= s` elementwise, [`CHUNK`]-parallel.
fn scale_chunked<T: Element>(data: &mut [T], s: f64) {
    data.par_chunks_mut(CHUNK).for_each(|c| c.iter_mut().for_each(|g| *g *= s));
}

/// Euclidean norm of all gradients in the model (complex entries contribute
/// both components). While `ft-obs` instrumentation is enabled, each
/// parameter tensor's own norm is also recorded into the
/// `nn.layer_grad_norm` histogram.
pub fn global_grad_norm(model: &mut dyn Layer) -> f64 {
    let observe = ft_obs::enabled();
    let mut acc = 0.0;
    model.visit_params(&mut |p| {
        let sq = each!(p, p => chunked_sum_sq(p.grad.data()));
        if observe {
            LAYER_GRAD_NORM.observe(sq.sqrt());
        }
        acc += sq;
    });
    acc.sqrt()
}

/// Scales all gradients so their global norm is at most `max_norm`.
/// Returns the pre-clip norm. The scaling is elementwise and chunk-parallel,
/// so it is bit-identical for any thread count.
pub fn clip_grad_norm(model: &mut dyn Layer, max_norm: f64) -> f64 {
    assert!(max_norm > 0.0, "max_norm must be positive");
    let norm = global_grad_norm(model);
    if norm > max_norm {
        let scale = max_norm / norm;
        model.visit_params(&mut |p| each!(p, p => scale_chunked(p.grad.data_mut(), scale)));
    }
    norm
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::Linear;
    use ft_tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn layer_with_grads() -> Linear {
        let mut rng = StdRng::seed_from_u64(0);
        let mut l = Linear::new(2, 2, &mut rng);
        let x = Tensor::full(&[1, 2, 4], 1.0);
        let y = l.forward(&x);
        let _ = l.backward(&y.scale(10.0));
        l
    }

    #[test]
    fn norm_matches_manual_sum() {
        let mut l = layer_with_grads();
        let manual = (l.weight.grad.dot(&l.weight.grad) + l.bias.grad.dot(&l.bias.grad)).sqrt();
        assert!((global_grad_norm(&mut l) - manual).abs() < 1e-12);
    }

    #[test]
    fn clipping_caps_the_norm_and_preserves_direction() {
        let mut l = layer_with_grads();
        let before = global_grad_norm(&mut l);
        assert!(before > 1.0, "test needs a large gradient, got {before}");
        let g0 = l.weight.grad.clone();
        let returned = clip_grad_norm(&mut l, 1.0);
        assert!((returned - before).abs() < 1e-12, "returns the pre-clip norm");
        let after = global_grad_norm(&mut l);
        assert!((after - 1.0).abs() < 1e-9, "clipped to the cap: {after}");
        // Direction preserved: clipped grad is a positive multiple.
        let ratio = l.weight.grad.data()[0] / g0.data()[0];
        assert!(l.weight.grad.allclose(&g0.scale(ratio), 1e-12));
        assert!(ratio > 0.0 && ratio < 1.0);
    }

    #[test]
    fn small_gradients_pass_untouched() {
        let mut l = layer_with_grads();
        let g0 = l.weight.grad.clone();
        let norm = global_grad_norm(&mut l);
        clip_grad_norm(&mut l, norm * 2.0);
        assert!(l.weight.grad.allclose(&g0, 0.0), "no-op below the cap");
    }
}
