//! Learnable parameters and the optimizer-facing visitor type.

use ft_tensor::{Array, CTensor, Complex64, Element, Tensor};

/// A learnable parameter with its gradient accumulator: real (`Param`, the
/// default) or complex ([`CParam`]).
#[derive(Clone)]
pub struct Param<T: Element = f64> {
    /// Current value.
    pub value: Array<T>,
    /// Accumulated gradient (same shape). A complex parameter's is the
    /// real-pair gradient `∂L/∂Re + i ∂L/∂Im`.
    pub grad: Array<T>,
}

/// A complex learnable parameter (the spectral weights).
pub type CParam = Param<Complex64>;

impl<T: Element> Param<T> {
    /// Creates a parameter from an initial value, zeroed gradient.
    pub fn new(value: Array<T>) -> Self {
        let grad = Array::zeros(value.dims());
        Param { value, grad }
    }

    /// Number of entries (a complex entry counts as one parameter, the
    /// Table I convention).
    pub fn len(&self) -> usize {
        self.value.len()
    }

    /// `true` when the parameter is empty.
    pub fn is_empty(&self) -> bool {
        self.value.is_empty()
    }
}

/// Mutable view of one parameter, as handed to optimizers by
/// [`crate::Layer::visit_params`].
pub enum ParamMut<'a> {
    /// A real tensor parameter.
    Real {
        /// Parameter value.
        value: &'a mut Tensor,
        /// Gradient accumulator.
        grad: &'a mut Tensor,
    },
    /// A complex tensor parameter (optimized as independent real pairs).
    Complex {
        /// Parameter value.
        value: &'a mut CTensor,
        /// Real-pair gradient accumulator.
        grad: &'a mut CTensor,
    },
}

impl ParamMut<'_> {
    /// Number of *real* degrees of freedom (complex entries count two) —
    /// what an elementwise optimizer iterates over.
    pub fn real_dof(&self) -> usize {
        match self {
            ParamMut::Real { value, .. } => value.len(),
            ParamMut::Complex { value, .. } => 2 * value.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_tensor::Complex64;

    #[test]
    fn param_starts_with_zero_grad() {
        let p = Param::new(Tensor::full(&[3, 2], 1.5));
        assert_eq!(p.len(), 6);
        assert_eq!(p.grad.sum(), 0.0);
        assert_eq!(p.grad.dims(), p.value.dims());
    }

    #[test]
    fn cparam_counts_complex_entries_once() {
        let c = CParam::new(CTensor::from_vec(
            &[2],
            vec![Complex64::new(1.0, 2.0), Complex64::ZERO],
        ));
        assert_eq!(c.len(), 2);
        let mut value = c.value.clone();
        let mut grad = c.grad.clone();
        let view = ParamMut::Complex { value: &mut value, grad: &mut grad };
        assert_eq!(view.real_dof(), 4);
    }
}
