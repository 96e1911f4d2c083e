//! Scalar root finding for continuous (and, for bisection, merely
//! sign-changing) functions.
//!
//! The rate-equilibrium computation of Theorem 1 reduces, under max-min
//! fairness, to finding the "water level" `θ*` at which the aggregate
//! throughput `λ(θ*)` equals the capacity. `λ` is non-decreasing and
//! continuous (Assumption 1), so a bracketed bisection is guaranteed to
//! converge; Brent's method is provided as a faster alternative for smooth
//! demand families.

use crate::tol::Tolerance;

/// Errors from the root finders.
#[derive(Debug, Clone, PartialEq)]
pub enum RootError {
    /// `f(lo)` and `f(hi)` have the same (non-zero) sign, so no root is
    /// bracketed.
    NotBracketed {
        /// Value of `f` at the lower end of the bracket.
        f_lo: f64,
        /// Value of `f` at the upper end of the bracket.
        f_hi: f64,
    },
    /// The iteration budget was exhausted before the interval resolved.
    MaxIterations {
        /// Best estimate of the root when the budget ran out.
        best: f64,
    },
    /// The function returned a NaN or ±∞, poisoning the bracket.
    NonFinite {
        /// The abscissa at which the function misbehaved.
        at: f64,
    },
}

impl std::fmt::Display for RootError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RootError::NotBracketed { f_lo, f_hi } => {
                write!(f, "root not bracketed: f(lo)={f_lo}, f(hi)={f_hi}")
            }
            RootError::MaxIterations { best } => {
                write!(f, "iteration budget exhausted; best estimate {best}")
            }
            RootError::NonFinite { at } => write!(f, "function non-finite at {at}"),
        }
    }
}

impl std::error::Error for RootError {}

/// Find a root of `f` in `[lo, hi]` by bisection.
///
/// Requires `f(lo)` and `f(hi)` to have opposite signs (or one of them to be
/// exactly zero). Works for any function with a sign change — continuity is
/// only needed for the result to be a genuine root rather than a jump
/// location, which is exactly the behaviour the equilibrium solver wants
/// when demand functions have steps.
///
/// # Errors
///
/// [`RootError::NotBracketed`] if the signs match, [`RootError::NonFinite`]
/// if `f` produces a NaN or ±∞, and [`RootError::MaxIterations`] if the
/// interval did not resolve within `tol.max_iter` halvings (the error
/// carries the best midpoint estimate).
pub fn bisect(
    f: impl FnMut(f64) -> f64,
    lo: f64,
    hi: f64,
    tol: Tolerance,
) -> Result<f64, RootError> {
    bisect_counted(f, lo, hi, tol).map(|(root, _)| root)
}

/// [`bisect`], additionally reporting the number of interval halvings it
/// performed, so callers can report solver effort with each answer
/// (`SolveStats::bisect_iters`, `SweepEffort::bisect_iters`).
pub fn bisect_counted(
    mut f: impl FnMut(f64) -> f64,
    lo: f64,
    hi: f64,
    tol: Tolerance,
) -> Result<(f64, u32), RootError> {
    let (mut lo, mut hi) = if lo <= hi { (lo, hi) } else { (hi, lo) };
    let mut f_lo = f(lo);
    let f_hi = f(hi);
    if !f_lo.is_finite() {
        return Err(RootError::NonFinite { at: lo });
    }
    if !f_hi.is_finite() {
        return Err(RootError::NonFinite { at: hi });
    }
    if f_lo == 0.0 {
        return Ok((lo, 0));
    }
    if f_hi == 0.0 {
        return Ok((hi, 0));
    }
    if f_lo.signum() == f_hi.signum() {
        return Err(RootError::NotBracketed { f_lo, f_hi });
    }
    for iter in 0..tol.max_iter {
        let mid = 0.5 * (lo + hi);
        if tol.interval_resolved(lo, hi) {
            return Ok((mid, iter as u32));
        }
        let f_mid = f(mid);
        if !f_mid.is_finite() {
            return Err(RootError::NonFinite { at: mid });
        }
        if f_mid == 0.0 {
            return Ok((mid, (iter + 1) as u32));
        }
        if f_mid.signum() == f_lo.signum() {
            lo = mid;
            f_lo = f_mid;
        } else {
            hi = mid;
        }
    }
    Err(RootError::MaxIterations {
        best: 0.5 * (lo + hi),
    })
}

/// Find a root of a continuous `f` in `[lo, hi]` with Brent's method
/// (inverse quadratic interpolation + secant + bisection fallback).
///
/// Same bracketing contract as [`bisect`], but converges superlinearly on
/// smooth functions such as the exponential demand family of Eq. (3).
pub fn brent(
    mut f: impl FnMut(f64) -> f64,
    lo: f64,
    hi: f64,
    tol: Tolerance,
) -> Result<f64, RootError> {
    let (mut a, mut b) = if lo <= hi { (lo, hi) } else { (hi, lo) };
    let mut fa = f(a);
    let mut fb = f(b);
    if !fa.is_finite() {
        return Err(RootError::NonFinite { at: a });
    }
    if !fb.is_finite() {
        return Err(RootError::NonFinite { at: b });
    }
    if fa == 0.0 {
        return Ok(a);
    }
    if fb == 0.0 {
        return Ok(b);
    }
    if fa.signum() == fb.signum() {
        return Err(RootError::NotBracketed { f_lo: fa, f_hi: fb });
    }
    if fa.abs() < fb.abs() {
        std::mem::swap(&mut a, &mut b);
        std::mem::swap(&mut fa, &mut fb);
    }
    let mut c = a;
    let mut fc = fa;
    let mut d = b - a;
    let mut mflag = true;
    for _ in 0..tol.max_iter {
        if tol.interval_resolved(a.min(b), a.max(b)) || fb == 0.0 {
            return Ok(b);
        }
        let mut s = if fa != fc && fb != fc {
            // Inverse quadratic interpolation.
            a * fb * fc / ((fa - fb) * (fa - fc))
                + b * fa * fc / ((fb - fa) * (fb - fc))
                + c * fa * fb / ((fc - fa) * (fc - fb))
        } else {
            // Secant.
            b - fb * (b - a) / (fb - fa)
        };
        let lo_band = (3.0 * a + b) / 4.0;
        let cond_outside = !((s > lo_band.min(b) && s < lo_band.max(b))
            || (s > b.min(lo_band) && s < b.max(lo_band)));
        let between = (s - b).abs();
        let cond_slow = if mflag {
            between >= (b - c).abs() / 2.0
        } else {
            between >= (c - d).abs() / 2.0
        };
        let cond_tiny = if mflag {
            (b - c).abs() < tol.abs
        } else {
            (c - d).abs() < tol.abs
        };
        if cond_outside || cond_slow || cond_tiny {
            s = 0.5 * (a + b);
            mflag = true;
        } else {
            mflag = false;
        }
        let fs = f(s);
        if !fs.is_finite() {
            return Err(RootError::NonFinite { at: s });
        }
        d = c;
        c = b;
        fc = fb;
        if fa.signum() != fs.signum() {
            b = s;
            fb = fs;
        } else {
            a = s;
            fa = fs;
        }
        if fa.abs() < fb.abs() {
            std::mem::swap(&mut a, &mut b);
            std::mem::swap(&mut fa, &mut fb);
        }
    }
    Err(RootError::MaxIterations { best: b })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bisect_linear() {
        let r = bisect(|x| x - 3.0, 0.0, 10.0, Tolerance::default()).unwrap();
        assert!((r - 3.0).abs() < 1e-9);
    }

    #[test]
    fn bisect_handles_reversed_bracket() {
        let r = bisect(|x| x - 3.0, 10.0, 0.0, Tolerance::default()).unwrap();
        assert!((r - 3.0).abs() < 1e-9);
    }

    #[test]
    fn bisect_exact_endpoint_root() {
        assert_eq!(bisect(|x| x, 0.0, 5.0, Tolerance::default()).unwrap(), 0.0);
        assert_eq!(
            bisect(|x| x - 5.0, 0.0, 5.0, Tolerance::default()).unwrap(),
            5.0
        );
    }

    #[test]
    fn bisect_not_bracketed() {
        let e = bisect(|x| x + 10.0, 0.0, 1.0, Tolerance::default()).unwrap_err();
        assert!(matches!(e, RootError::NotBracketed { .. }));
    }

    #[test]
    fn bisect_nan_detected() {
        let e = bisect(|_| f64::NAN, 0.0, 1.0, Tolerance::default()).unwrap_err();
        assert!(matches!(e, RootError::NonFinite { .. }));
    }

    #[test]
    fn bisect_step_function_finds_jump() {
        // Discontinuous function: jump through zero at x = 2. Bisection
        // converges to the jump location — exactly what the equilibrium
        // solver needs for step demand functions.
        let r = bisect(
            |x| if x < 2.0 { -1.0 } else { 1.0 },
            0.0,
            10.0,
            Tolerance::default(),
        )
        .unwrap();
        assert!((r - 2.0).abs() < 1e-8);
    }

    #[test]
    fn brent_matches_bisect_on_smooth() {
        let f = |x: f64| x.exp() - 5.0;
        let rb = bisect(f, 0.0, 10.0, Tolerance::STRICT).unwrap();
        let rr = brent(f, 0.0, 10.0, Tolerance::STRICT).unwrap();
        assert!((rb - rr).abs() < 1e-9, "bisect {rb} vs brent {rr}");
        assert!((rr - 5.0f64.ln()).abs() < 1e-9);
    }

    #[test]
    fn brent_cubic() {
        let r = brent(
            |x| (x + 3.0) * (x - 1.0) * (x - 1.0) * (x - 1.0),
            -4.0,
            0.0,
            Tolerance::default(),
        )
        .unwrap();
        assert!((r + 3.0).abs() < 1e-8);
    }

    #[test]
    fn brent_not_bracketed() {
        let e = brent(|x| x * x + 1.0, -1.0, 1.0, Tolerance::default()).unwrap_err();
        assert!(matches!(e, RootError::NotBracketed { .. }));
    }

    #[test]
    fn bisect_infinity_detected() {
        // ±∞ must be rejected like NaN: an infinite value has a signum and
        // would silently poison the bracket logic otherwise.
        let e = bisect(
            |x| if x < 0.5 { -1.0 } else { f64::INFINITY },
            0.0,
            1.0,
            Tolerance::default(),
        )
        .unwrap_err();
        assert!(matches!(e, RootError::NonFinite { .. }));
        let e = bisect(|_| f64::NEG_INFINITY, 0.0, 1.0, Tolerance::default()).unwrap_err();
        assert!(matches!(e, RootError::NonFinite { .. }));
    }

    #[test]
    fn brent_infinity_detected() {
        let e = brent(
            |x| if x < 0.5 { -1.0 } else { f64::INFINITY },
            0.0,
            1.0,
            Tolerance::default(),
        )
        .unwrap_err();
        assert!(matches!(e, RootError::NonFinite { .. }));
    }

    #[test]
    fn bisect_budget_exhaustion_is_an_error() {
        // One halving cannot resolve [0, 10] to 1e-10; the documented
        // MaxIterations error must surface, carrying the best estimate.
        let e = bisect(
            |x| x - 3.0,
            0.0,
            10.0,
            Tolerance::default().with_max_iter(1),
        )
        .unwrap_err();
        match e {
            RootError::MaxIterations { best } => assert!((0.0..=10.0).contains(&best)),
            other => panic!("expected MaxIterations, got {other:?}"),
        }
    }

    #[test]
    fn brent_budget_exhaustion_is_an_error() {
        let e = brent(
            |x| (x - 3.0).powi(3),
            0.0,
            10.0,
            Tolerance::new(1e-14, 0.0).with_max_iter(1),
        )
        .unwrap_err();
        assert!(matches!(e, RootError::MaxIterations { .. }));
    }

    #[test]
    fn root_error_display() {
        let s = format!("{}", RootError::MaxIterations { best: 1.0 });
        assert!(s.contains("budget"));
    }

    proptest::proptest! {
        #[test]
        fn bisect_finds_root_of_monotone_cubic(root in -50.0f64..50.0) {
            let f = |x: f64| (x - root).powi(3) + (x - root);
            let r = bisect(f, -100.0, 100.0, Tolerance::default()).unwrap();
            proptest::prop_assert!((r - root).abs() < 1e-6);
        }

        #[test]
        fn brent_agrees_with_bisect(root in -50.0f64..50.0, scale in 0.1f64..10.0) {
            let f = |x: f64| scale * ((x - root) + 0.1 * (x - root).powi(3));
            let rb = bisect(f, -200.0, 200.0, Tolerance::STRICT).unwrap();
            let rr = brent(f, -200.0, 200.0, Tolerance::STRICT).unwrap();
            proptest::prop_assert!((rb - rr).abs() < 1e-6);
        }
    }
}
