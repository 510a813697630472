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

/// A parameter, or a tensor copied out of one, tagged real or complex: the
/// one type that carries the real/complex split. [`ParamMut`] borrows a
/// whole parameter, [`ParamValue`] owns a copy of its value or gradient.
#[derive(Clone, Debug)]
pub enum ParamKind<R, C> {
    /// A real parameter (`f64` entries).
    Real(R),
    /// A complex parameter (optimized as independent real pairs).
    Complex(C),
}

/// Mutable view of one parameter, as handed to optimizers by
/// [`crate::Layer::visit_params`].
pub type ParamMut<'a> = ParamKind<&'a mut Param, &'a mut CParam>;

/// One parameter tensor copied out of a model: its values
/// ([`crate::snapshot_params`]: the weights early stopping restores and
/// checkpoints store) or its gradient ([`crate::snapshot_grads`]: the
/// per-sample contributions data-parallel training tree-reduces).
pub type ParamValue = ParamKind<Tensor, CTensor>;

/// Runs `$body` with `$x` bound to the payload of whichever arm `$value`
/// holds: the real/complex dispatch, written once. The body is compiled
/// once per arm, so generic code over `Param<T>` / `Array<T>` serves
/// both. With a leading `map`, the result goes back into the same arm.
macro_rules! each {
    (map $value:expr, $x:pat => $body:expr) => {
        match $value {
            $crate::param::ParamKind::Real($x) => $crate::param::ParamKind::Real($body),
            $crate::param::ParamKind::Complex($x) => $crate::param::ParamKind::Complex($body),
        }
    };
    ($value:expr, $x:pat => $body:expr) => {
        match $value {
            $crate::param::ParamKind::Real($x) => $body,
            $crate::param::ParamKind::Complex($x) => $body,
        }
    };
}
pub(crate) use each;

impl<R, C> ParamKind<R, C> {
    /// Borrows the payload.
    pub(crate) fn as_ref(&self) -> ParamKind<&R, &C> {
        each!(map self, x => x)
    }

    /// Borrows the payload mutably.
    pub(crate) fn as_mut(&mut self) -> ParamKind<&mut R, &mut C> {
        each!(map self, x => x)
    }

    /// Pairs the payloads of two values of the same kind; `None` when one
    /// is real and the other complex.
    pub(crate) fn zip<S, D>(self, other: ParamKind<S, D>) -> Option<ParamKind<(R, S), (C, D)>> {
        match (self, other) {
            (ParamKind::Real(a), ParamKind::Real(b)) => Some(ParamKind::Real((a, b))),
            (ParamKind::Complex(a), ParamKind::Complex(b)) => Some(ParamKind::Complex((a, b))),
            _ => None,
        }
    }
}

impl ParamMut<'_> {
    /// Number of *real* degrees of freedom (complex entries count two) —
    /// what an elementwise optimizer iterates over.
    pub fn real_dof(&self) -> usize {
        each!(self, p => p.len() * components(&p.value))
    }

    /// The parameter's shape.
    pub fn dims(&self) -> &[usize] {
        each!(self, p => p.value.dims())
    }
}

impl ParamValue {
    /// The tensor's shape.
    pub fn dims(&self) -> &[usize] {
        each!(self, t => t.dims())
    }
}

/// Real components per entry of `a` ([`Element::COMPONENTS`]).
pub(crate) fn components<T: Element>(_: &Array<T>) -> usize {
    T::COMPONENTS
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
        let mut c = c;
        assert_eq!(ParamMut::Complex(&mut c).real_dof(), 4);
    }
}
