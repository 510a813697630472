//! Solver blow-ups, detected and reported one way for every solver family:
//! the lattice Boltzmann solver (`ft-lbm`), the Navier-Stokes solvers
//! (`ft-ns`) and the hybrid FNO-PDE march (`fno-core`).
//!
//! A guarded loop samples its state with [`sample_finite`] and, on a
//! non-finite value, calls [`report_blowup`] and returns
//! [`SolverError::BlowUp`]. The same loops tick a
//! [`crate::DiagnosticsProbe`].

use ft_tensor::Element;

/// Structured failure of a solver integration. Guarded entry points raise
/// this instead of letting NaN/Inf fields propagate into sampled datasets,
/// rollouts or hybrid forecasts.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SolverError {
    /// A field went non-finite during time stepping (CFL violation,
    /// unstable parameters, or poisoned initial data).
    BlowUp {
        /// Steps completed when the blow-up was detected.
        step: u64,
        /// Which state field went non-finite.
        field: &'static str,
    },
}

impl std::fmt::Display for SolverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolverError::BlowUp { step, field } => {
                write!(f, "solver blow-up: non-finite {field} after {step} steps")
            }
        }
    }
}

impl std::error::Error for SolverError {}

/// Records a `solver_blowup` event (`source`, `step`, `field`) in the
/// `ft-obs` flight recorder and dumps the ring — a blow-up is exactly the
/// anomaly the recorder exists for. No-op while instrumentation is
/// disabled.
pub fn report_blowup(source: &str, step: u64, field: &str) {
    ft_obs::flight::event_with(|| {
        ft_obs::Record::new("event")
            .str("kind", "solver_blowup")
            .str("source", source)
            .u64("step", step)
            .str("field", field)
    });
    let _ = ft_obs::flight::dump("solver_blowup");
}

/// Strided finiteness probe over ~`samples` evenly spaced entries (plus
/// the final one) of a real or complex field, not a full scan: a blow-up
/// spreads across the field within a step or a few, so a sparse sample
/// catches it at most a few steps late. `true` for empty data.
pub fn sample_finite<T: Element>(data: &[T], samples: usize) -> bool {
    if data.is_empty() {
        return true;
    }
    let stride = (data.len() / samples.max(1)).max(1);
    data.iter().step_by(stride).all(|x| x.is_finite()) && data[data.len() - 1].is_finite()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_tensor::Complex64;

    #[test]
    fn sample_finite_sees_the_sampled_entries_and_the_last() {
        assert!(sample_finite::<f64>(&[], 64));
        let mut data = vec![0.0; 640];
        assert!(sample_finite(&data, 64));
        data[639] = f64::NAN;
        assert!(!sample_finite(&data, 64), "the last entry is always sampled");
        data[639] = 0.0;
        data[10] = f64::INFINITY;
        assert!(!sample_finite(&data, 64), "stride 10 samples index 10");
        data[10] = 0.0;
        data[11] = f64::NAN;
        assert!(sample_finite(&data, 64), "a sparse probe, not a full scan");
        let z = [Complex64::ZERO, Complex64::new(0.0, f64::NAN)];
        assert!(!sample_finite(&z, 64), "a complex entry is finite only in both parts");
    }
}
