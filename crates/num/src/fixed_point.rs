//! Damped fixed-point iteration on vectors.
//!
//! The rate equilibrium of Theorem 1 is a fixed point of the composition
//! *(demand profile → achievable throughput profile → demand profile)*.
//! For the max-min allocator we have a faster specialised solver
//! (`pubopt-eq::solver::maxmin_water_level`), but for *generic* allocators
//! satisfying only Axioms 1–4 the equilibrium must be found iteratively;
//! this module provides the engine (DESIGN.md ablation A1 compares the two).

use crate::tol::Tolerance;

/// Options controlling [`fixed_point`].
#[derive(Debug, Clone, Copy)]
pub struct FixedPointOptions {
    /// Damping factor `η ∈ (0, 1]`: the next iterate is
    /// `x + η (F(x) - x)`. `1.0` is undamped Picard iteration.
    pub damping: f64,
    /// Convergence tolerance (applied component-wise).
    pub tol: Tolerance,
}

impl Default for FixedPointOptions {
    fn default() -> Self {
        Self {
            damping: 0.5,
            tol: Tolerance::default(),
        }
    }
}

/// Result of a converged fixed-point iteration.
#[derive(Debug, Clone)]
pub struct FixedPointResult {
    /// The fixed point.
    pub value: Vec<f64>,
    /// Number of iterations used.
    pub iterations: usize,
    /// Final residual `max_i |F(x)_i - x_i|`.
    pub residual: f64,
}

/// Errors from [`fixed_point`].
#[derive(Debug, Clone, PartialEq)]
pub enum FixedPointError {
    /// Iteration budget exhausted before the residual fell below tolerance.
    MaxIterations {
        /// Last iterate.
        best: Vec<f64>,
        /// Residual at the last iterate.
        residual: f64,
    },
    /// The map returned a vector of a different length.
    DimensionMismatch {
        /// Expected length (that of the initial guess).
        expected: usize,
        /// Actual length returned by the map.
        actual: usize,
    },
    /// The map produced a non-finite component.
    NonFinite,
}

impl std::fmt::Display for FixedPointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FixedPointError::MaxIterations { residual, .. } => {
                write!(f, "fixed point did not converge; residual {residual}")
            }
            FixedPointError::DimensionMismatch { expected, actual } => {
                write!(f, "map returned {actual} components, expected {expected}")
            }
            FixedPointError::NonFinite => write!(f, "map produced a non-finite component"),
        }
    }
}

impl std::error::Error for FixedPointError {}

/// Iterate `x ← x + η (F(x) − x)` from `x0` until the residual
/// `‖F(x) − x‖∞` is below tolerance.
///
/// # Errors
///
/// See [`FixedPointError`]. On `MaxIterations` the best iterate is returned
/// inside the error so callers can decide whether it is usable.
pub fn fixed_point(
    mut map: impl FnMut(&[f64]) -> Vec<f64>,
    x0: Vec<f64>,
    opts: FixedPointOptions,
) -> Result<FixedPointResult, FixedPointError> {
    let n = x0.len();
    let mut x = x0;
    let mut residual = f64::INFINITY;
    for it in 0..opts.tol.max_iter {
        let fx = map(&x);
        if fx.len() != n {
            return Err(FixedPointError::DimensionMismatch {
                expected: n,
                actual: fx.len(),
            });
        }
        residual = 0.0f64;
        for i in 0..n {
            if !fx[i].is_finite() {
                return Err(FixedPointError::NonFinite);
            }
            residual = residual.max((fx[i] - x[i]).abs());
        }
        let scale = x
            .iter()
            .chain(fx.iter())
            .fold(0.0f64, |m, v| m.max(v.abs()));
        if residual <= opts.tol.abs + opts.tol.rel * scale {
            return Ok(FixedPointResult {
                value: fx,
                iterations: it + 1,
                residual,
            });
        }
        for i in 0..n {
            x[i] += opts.damping * (fx[i] - x[i]);
        }
    }
    Err(FixedPointError::MaxIterations { best: x, residual })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn converges_on_contraction() {
        // F(x) = (cos x1, 0.5 x0) is a contraction on a suitable domain.
        let r = fixed_point(
            |x| vec![x[1].cos(), 0.5 * x[0]],
            vec![0.0, 0.0],
            FixedPointOptions {
                damping: 1.0,
                tol: Tolerance::default().with_max_iter(500),
            },
        )
        .unwrap();
        let (a, b) = (r.value[0], r.value[1]);
        assert!((a - b.cos()).abs() < 1e-8);
        assert!((b - 0.5 * a).abs() < 1e-8);
    }

    #[test]
    fn damping_rescues_oscillation() {
        // F(x) = 2 - x oscillates forever undamped but converges damped.
        let undamped = fixed_point(
            |x| vec![2.0 - x[0]],
            vec![0.0],
            FixedPointOptions {
                damping: 1.0,
                tol: Tolerance::default().with_max_iter(50),
            },
        );
        assert!(matches!(
            undamped,
            Err(FixedPointError::MaxIterations { .. })
        ));
        let damped = fixed_point(
            |x| vec![2.0 - x[0]],
            vec![0.0],
            FixedPointOptions {
                damping: 0.5,
                tol: Tolerance::default().with_max_iter(200),
            },
        )
        .unwrap();
        assert!((damped.value[0] - 1.0).abs() < 1e-8);
    }

    #[test]
    fn dimension_mismatch_detected() {
        let e =
            fixed_point(|_| vec![1.0, 2.0], vec![0.0], FixedPointOptions::default()).unwrap_err();
        assert!(matches!(
            e,
            FixedPointError::DimensionMismatch {
                expected: 1,
                actual: 2
            }
        ));
    }

    #[test]
    fn non_finite_detected() {
        let e =
            fixed_point(|_| vec![f64::NAN], vec![0.0], FixedPointOptions::default()).unwrap_err();
        assert_eq!(e, FixedPointError::NonFinite);
    }

    #[test]
    fn already_at_fixed_point_is_one_iteration() {
        let r = fixed_point(|x| x.to_vec(), vec![3.0, 4.0], FixedPointOptions::default()).unwrap();
        assert_eq!(r.iterations, 1);
        assert_eq!(r.value, vec![3.0, 4.0]);
    }

    #[test]
    fn error_display() {
        let s = format!("{}", FixedPointError::NonFinite);
        assert!(s.contains("non-finite"));
    }

    proptest::proptest! {
        #[test]
        fn linear_contraction_converges(a in -0.9f64..0.9, b in -10.0f64..10.0, x0 in -10.0f64..10.0) {
            // F(x) = a x + b has fixed point b / (1 - a).
            let r = fixed_point(
                |x| vec![a * x[0] + b],
                vec![x0],
                FixedPointOptions { damping: 1.0, tol: Tolerance::new(1e-11, 1e-11).with_max_iter(2000) },
            ).unwrap();
            let expect = b / (1.0 - a);
            proptest::prop_assert!((r.value[0] - expect).abs() < 1e-6 * (1.0 + expect.abs()));
        }
    }
}
