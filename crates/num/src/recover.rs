//! Solver recovery policies: retrying wrappers around the root finders
//! and the fixed-point engine.
//!
//! Theorem 1 guarantees the water-level equation is bracketed for the
//! paper's max-min regime, but the extended welfare/strategy models the
//! harness sweeps leave that well-behaved region: steep demand families
//! produce NaNs, ad-hoc brackets miss the root, and antitone fixed-point
//! maps limit-cycle at the default damping. This module turns each of
//! those failures into a *recoverable, observable* event instead of a
//! panic:
//!
//! * [`RootError::NotBracketed`] → geometric bracket widening;
//! * [`RootError::MaxIterations`] / [`FixedPointError::MaxIterations`] →
//!   iteration-budget escalation (and, for fixed points, damping backoff
//!   — halving per attempt by default);
//! * [`RootError::NonFinite`] → shrink the interval toward the finite
//!   endpoint, away from the singularity;
//! * [`FixedPointError::NonFinite`] → damping backoff (a gentler
//!   trajectory can avoid the non-finite region).
//!
//! Every wrapper returns a [`SolveDiagnostics`] attempt trail (also
//! attached to the error on give-up) and records `num.recover.*`
//! counters, so sweeps can report exactly how much rescuing their
//! figures needed.

use crate::fixed_point::{fixed_point, FixedPointError, FixedPointOptions, FixedPointResult};
use crate::roots::{bisect, brent, RootError};
use crate::tol::Tolerance;

/// Retry policy shared by every robust wrapper.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolverPolicy {
    /// Total solve attempts (1 = no recovery, plain solver semantics).
    pub max_attempts: u32,
    /// Geometric bracket-widening factor applied to the interval
    /// half-width on [`RootError::NotBracketed`] (> 1).
    pub bracket_widen: f64,
    /// Iteration-budget multiplier applied on `MaxIterations` (> 1).
    pub budget_growth: f64,
    /// Damping multiplier applied per fixed-point retry (in `(0, 1)`);
    /// the default `0.5` halves the damping each attempt.
    pub damping_backoff: f64,
    /// On [`RootError::NonFinite`], the surviving fraction of the span
    /// between the finite endpoint and the singular abscissa (in
    /// `(0, 1)`).
    pub nonfinite_shrink: f64,
}

impl Default for SolverPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 5,
            bracket_widen: 3.0,
            budget_growth: 2.0,
            damping_backoff: 0.5,
            nonfinite_shrink: 0.5,
        }
    }
}

impl SolverPolicy {
    /// A policy that never retries: the robust wrappers degenerate to the
    /// plain solvers (useful to A/B the recovery layer itself).
    pub const DISABLED: SolverPolicy = SolverPolicy {
        max_attempts: 1,
        bracket_widen: 1.0,
        budget_growth: 1.0,
        damping_backoff: 1.0,
        nonfinite_shrink: 1.0,
    };

    fn validate(&self) {
        assert!(self.max_attempts >= 1, "policy needs at least one attempt");
        assert!(
            self.bracket_widen >= 1.0 && self.bracket_widen.is_finite(),
            "bracket_widen must be >= 1"
        );
        assert!(
            self.budget_growth >= 1.0 && self.budget_growth.is_finite(),
            "budget_growth must be >= 1"
        );
        assert!(
            self.damping_backoff > 0.0 && self.damping_backoff <= 1.0,
            "damping_backoff must be in (0, 1]"
        );
        assert!(
            self.nonfinite_shrink > 0.0 && self.nonfinite_shrink <= 1.0,
            "nonfinite_shrink must be in (0, 1]"
        );
    }
}

/// What a retry attempt changed relative to the previous one.
#[derive(Debug, Clone, PartialEq)]
pub enum RecoveryAction {
    /// The first attempt: the caller's original parameters.
    Initial,
    /// The bracket was widened geometrically around its midpoint.
    WidenBracket {
        /// New lower end.
        lo: f64,
        /// New upper end.
        hi: f64,
    },
    /// The iteration budget was multiplied by `budget_growth`.
    EscalateBudget {
        /// New iteration budget.
        max_iter: usize,
    },
    /// The fixed-point damping was multiplied by `damping_backoff`.
    ReduceDamping {
        /// New damping factor.
        damping: f64,
    },
    /// The interval was shrunk toward the finite endpoint, away from a
    /// singular abscissa.
    ShrinkTowardFinite {
        /// New lower end.
        lo: f64,
        /// New upper end.
        hi: f64,
    },
}

/// One entry of the attempt trail.
#[derive(Debug, Clone, PartialEq)]
pub struct Attempt {
    /// What this attempt changed.
    pub action: RecoveryAction,
    /// The failure it ended in (`None` for the successful attempt).
    pub error: Option<String>,
}

/// The attempt trail of a robust solve.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SolveDiagnostics {
    /// One record per attempt, in order.
    pub attempts: Vec<Attempt>,
}

impl SolveDiagnostics {
    /// Number of attempts performed.
    pub fn attempts_used(&self) -> usize {
        self.attempts.len()
    }

    /// `true` when the solve succeeded only after at least one failure —
    /// i.e. the recovery layer earned its keep.
    pub fn recovered(&self) -> bool {
        self.attempts.len() > 1 && self.attempts.last().is_some_and(|a| a.error.is_none())
    }

    fn record(&mut self, action: RecoveryAction, error: Option<String>) {
        self.attempts.push(Attempt { action, error });
    }
}

/// A successful robust root solve.
#[derive(Debug, Clone, PartialEq)]
pub struct RootSolve {
    /// The root.
    pub root: f64,
    /// The attempt trail that produced it.
    pub diagnostics: SolveDiagnostics,
}

/// A robust root solve that exhausted its policy.
#[derive(Debug, Clone, PartialEq)]
pub struct RobustRootError {
    /// The error of the final attempt.
    pub error: RootError,
    /// The full attempt trail.
    pub diagnostics: SolveDiagnostics,
}

impl std::fmt::Display for RobustRootError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "root solve failed after {} attempt(s): {}",
            self.diagnostics.attempts_used(),
            self.error
        )
    }
}

impl std::error::Error for RobustRootError {}

/// A successful robust fixed-point solve.
#[derive(Debug, Clone)]
pub struct FixedPointSolve {
    /// The converged result.
    pub result: FixedPointResult,
    /// The attempt trail that produced it.
    pub diagnostics: SolveDiagnostics,
}

/// A robust fixed-point solve that exhausted its policy.
#[derive(Debug, Clone, PartialEq)]
pub struct RobustFixedPointError {
    /// The error of the final attempt.
    pub error: FixedPointError,
    /// The full attempt trail.
    pub diagnostics: SolveDiagnostics,
}

impl std::fmt::Display for RobustFixedPointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "fixed point failed after {} attempt(s): {}",
            self.diagnostics.attempts_used(),
            self.error
        )
    }
}

impl std::error::Error for RobustFixedPointError {}

/// [`bisect`] with retry-based recovery per `policy`.
///
/// # Errors
///
/// [`RobustRootError`] when every attempt allowed by the policy failed;
/// the error carries the final [`RootError`] and the attempt trail.
pub fn robust_bisect(
    f: impl FnMut(f64) -> f64,
    lo: f64,
    hi: f64,
    tol: Tolerance,
    policy: &SolverPolicy,
) -> Result<RootSolve, RobustRootError> {
    robust_root(f, lo, hi, tol, policy, |f, lo, hi, tol| {
        bisect(f, lo, hi, tol)
    })
}

/// [`brent`] with retry-based recovery per `policy`.
///
/// # Errors
///
/// [`RobustRootError`] when every attempt allowed by the policy failed.
pub fn robust_brent(
    f: impl FnMut(f64) -> f64,
    lo: f64,
    hi: f64,
    tol: Tolerance,
    policy: &SolverPolicy,
) -> Result<RootSolve, RobustRootError> {
    robust_root(f, lo, hi, tol, policy, |f, lo, hi, tol| {
        brent(f, lo, hi, tol)
    })
}

fn robust_root<F: FnMut(f64) -> f64>(
    mut f: F,
    lo: f64,
    hi: f64,
    tol: Tolerance,
    policy: &SolverPolicy,
    solve: impl Fn(&mut F, f64, f64, Tolerance) -> Result<f64, RootError>,
) -> Result<RootSolve, RobustRootError> {
    policy.validate();
    let (mut lo, mut hi) = if lo <= hi { (lo, hi) } else { (hi, lo) };
    let mut tol = tol;
    let mut diagnostics = SolveDiagnostics::default();
    let mut action = RecoveryAction::Initial;
    let mut attempt = 0;
    loop {
        match solve(&mut f, lo, hi, tol) {
            Ok(root) => {
                diagnostics.record(action, None);
                return Ok(RootSolve { root, diagnostics });
            }
            Err(err) => {
                diagnostics.record(action, Some(err.to_string()));
                attempt += 1;
                if attempt >= policy.max_attempts {
                    return Err(RobustRootError {
                        error: err,
                        diagnostics,
                    });
                }
                action = match err {
                    RootError::NotBracketed { .. } => {
                        // Widen geometrically around the midpoint; an
                        // interval of zero width still needs a seed span.
                        let mid = 0.5 * (lo + hi);
                        let half = (0.5 * (hi - lo)).max(tol.abs.max(1e-12));
                        lo = mid - half * policy.bracket_widen;
                        hi = mid + half * policy.bracket_widen;
                        RecoveryAction::WidenBracket { lo, hi }
                    }
                    RootError::MaxIterations { .. } => {
                        tol.max_iter = budget_after(tol.max_iter, policy.budget_growth);
                        RecoveryAction::EscalateBudget {
                            max_iter: tol.max_iter,
                        }
                    }
                    RootError::NonFinite { at } => {
                        // Keep the sub-interval anchored at a finite
                        // endpoint, stopping `nonfinite_shrink` of the way
                        // to the singular abscissa.
                        let f_lo = f(lo);
                        let f_hi = f(hi);
                        if f_lo.is_finite() && (at > lo || !f_hi.is_finite()) {
                            hi = lo + policy.nonfinite_shrink * (at - lo);
                        } else if f_hi.is_finite() && at < hi {
                            lo = hi - policy.nonfinite_shrink * (hi - at);
                        } else {
                            // Both endpoints are singular: nothing to
                            // anchor a shrink on.
                            return Err(RobustRootError {
                                error: err,
                                diagnostics,
                            });
                        }
                        RecoveryAction::ShrinkTowardFinite { lo, hi }
                    }
                };
            }
        }
    }
}

/// [`fixed_point`] with retry-based recovery per `policy`: damping backoff
/// and budget escalation on `MaxIterations` (warm-starting from the best
/// iterate), damping backoff alone on `NonFinite`.
///
/// # Errors
///
/// [`RobustFixedPointError`] when every attempt allowed by the policy
/// failed. [`FixedPointError::DimensionMismatch`] is a caller bug and is
/// returned immediately without retries.
pub fn robust_fixed_point(
    mut map: impl FnMut(&[f64]) -> Vec<f64>,
    x0: Vec<f64>,
    opts: FixedPointOptions,
    policy: &SolverPolicy,
) -> Result<FixedPointSolve, RobustFixedPointError> {
    policy.validate();
    let mut diagnostics = SolveDiagnostics::default();
    let mut action = RecoveryAction::Initial;
    let mut opts = opts;
    let mut start = x0.clone();
    let mut attempt = 0;
    loop {
        match fixed_point(&mut map, start.clone(), opts) {
            Ok(result) => {
                diagnostics.record(action, None);
                return Ok(FixedPointSolve {
                    result,
                    diagnostics,
                });
            }
            Err(err) => {
                diagnostics.record(action, Some(err.to_string()));
                attempt += 1;
                let retryable = !matches!(err, FixedPointError::DimensionMismatch { .. });
                if attempt >= policy.max_attempts || !retryable {
                    return Err(RobustFixedPointError {
                        error: err,
                        diagnostics,
                    });
                }
                action = match err {
                    FixedPointError::MaxIterations { best, .. } => {
                        // An oscillating iterate needs gentler steps; a
                        // slowly-contracting one needs more of them. Do
                        // both, and keep the progress already made.
                        opts.damping *= policy.damping_backoff;
                        opts.tol.max_iter = budget_after(opts.tol.max_iter, policy.budget_growth);
                        start = best;
                        RecoveryAction::ReduceDamping {
                            damping: opts.damping,
                        }
                    }
                    FixedPointError::NonFinite => {
                        // Restart from the caller's x0 on a gentler
                        // trajectory that may dodge the singular region.
                        opts.damping *= policy.damping_backoff;
                        start = x0.clone();
                        RecoveryAction::ReduceDamping {
                            damping: opts.damping,
                        }
                    }
                    FixedPointError::DimensionMismatch { .. } => unreachable!("returned above"),
                };
            }
        }
    }
}

fn budget_after(max_iter: usize, growth: f64) -> usize {
    ((max_iter as f64 * growth).ceil() as usize).max(max_iter + 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbracketed_root_recovered_by_widening() {
        // Root at 5, seed bracket [0, 1]: plain bisect refuses, the robust
        // wrapper widens geometrically until the root is inside.
        let f = |x: f64| x - 5.0;
        assert!(bisect(f, 0.0, 1.0, Tolerance::default()).is_err());
        let s = robust_bisect(f, 0.0, 1.0, Tolerance::default(), &SolverPolicy::default()).unwrap();
        assert!((s.root - 5.0).abs() < 1e-8, "root {}", s.root);
        assert!(s.diagnostics.recovered());
        assert!(s
            .diagnostics
            .attempts
            .iter()
            .any(|a| matches!(a.action, RecoveryAction::WidenBracket { .. })));
    }

    #[test]
    fn brent_recovers_unbracketed_too() {
        let s = robust_brent(
            |x| (x - 40.0) * 0.25,
            0.0,
            1.0,
            Tolerance::default(),
            &SolverPolicy::default(),
        )
        .unwrap();
        assert!((s.root - 40.0).abs() < 1e-7, "root {}", s.root);
        assert!(s.diagnostics.recovered());
    }

    #[test]
    fn budget_exhaustion_recovered_by_escalation() {
        let tiny = Tolerance::default().with_max_iter(2);
        let f = |x: f64| x - 3.0;
        assert!(matches!(
            bisect(f, 0.0, 10.0, tiny),
            Err(RootError::MaxIterations { .. })
        ));
        // ×4 growth: budgets 2, 8, 32, 128 — the ~37 halvings the default
        // tolerance needs on [0, 10] fit within the 5-attempt policy.
        let policy = SolverPolicy {
            budget_growth: 4.0,
            ..SolverPolicy::default()
        };
        let s = robust_bisect(f, 0.0, 10.0, tiny, &policy).unwrap();
        assert!((s.root - 3.0).abs() < 1e-8);
        assert!(s
            .diagnostics
            .attempts
            .iter()
            .any(|a| matches!(a.action, RecoveryAction::EscalateBudget { .. })));
    }

    #[test]
    fn nonfinite_recovered_by_shrinking_toward_finite_endpoint() {
        // f has a pole past the root: singular for x >= 6, root at 2.
        let f = |x: f64| if x >= 6.0 { f64::NAN } else { x - 2.0 };
        assert!(matches!(
            bisect(f, 0.0, 8.0, Tolerance::default()),
            Err(RootError::NonFinite { .. })
        ));
        let s = robust_bisect(f, 0.0, 8.0, Tolerance::default(), &SolverPolicy::default()).unwrap();
        assert!((s.root - 2.0).abs() < 1e-8, "root {}", s.root);
        assert!(s
            .diagnostics
            .attempts
            .iter()
            .any(|a| matches!(a.action, RecoveryAction::ShrinkTowardFinite { .. })));
    }

    #[test]
    fn both_endpoints_singular_gives_up() {
        let e = robust_bisect(
            |_| f64::NAN,
            0.0,
            1.0,
            Tolerance::default(),
            &SolverPolicy::default(),
        )
        .unwrap_err();
        assert!(matches!(e.error, RootError::NonFinite { .. }));
        assert!(!e.diagnostics.attempts.is_empty());
    }

    #[test]
    fn disabled_policy_matches_plain_solver() {
        let e = robust_bisect(
            |x| x - 5.0,
            0.0,
            1.0,
            Tolerance::default(),
            &SolverPolicy::DISABLED,
        )
        .unwrap_err();
        assert!(matches!(e.error, RootError::NotBracketed { .. }));
        assert_eq!(e.diagnostics.attempts_used(), 1);
    }

    #[test]
    fn oscillating_fixed_point_recovered_by_damping_backoff() {
        // x ↦ 2 − x flips sign around the fixed point 1 forever at
        // damping 1; the policy halves damping until it contracts.
        let opts = FixedPointOptions {
            damping: 1.0,
            tol: Tolerance::default().with_max_iter(60),
        };
        assert!(fixed_point(|x| vec![2.0 - x[0]], vec![0.0], opts).is_err());
        let s = robust_fixed_point(
            |x| vec![2.0 - x[0]],
            vec![0.0],
            opts,
            &SolverPolicy::default(),
        )
        .unwrap();
        assert!((s.result.value[0] - 1.0).abs() < 1e-7);
        assert!(s.diagnostics.recovered());
        assert!(s
            .diagnostics
            .attempts
            .iter()
            .any(|a| matches!(a.action, RecoveryAction::ReduceDamping { .. })));
    }

    #[test]
    fn fixed_point_dimension_mismatch_not_retried() {
        let e = robust_fixed_point(
            |_| vec![1.0, 2.0],
            vec![0.0],
            FixedPointOptions::default(),
            &SolverPolicy::default(),
        )
        .unwrap_err();
        assert!(matches!(e.error, FixedPointError::DimensionMismatch { .. }));
        assert_eq!(e.diagnostics.attempts_used(), 1);
    }

    #[test]
    fn fixed_point_exhausts_policy_with_trail() {
        // A map that expands no matter the damping: x ↦ 2x + 1 from 1.
        let policy = SolverPolicy {
            max_attempts: 3,
            ..SolverPolicy::default()
        };
        let opts = FixedPointOptions {
            damping: 1.0,
            tol: Tolerance::default().with_max_iter(30),
        };
        let e =
            robust_fixed_point(|x| vec![2.0 * x[0] + 1.0], vec![1.0], opts, &policy).unwrap_err();
        assert_eq!(e.diagnostics.attempts_used(), 3);
        assert!(e.diagnostics.attempts.iter().all(|a| a.error.is_some()));
    }

    #[test]
    fn error_displays_mention_attempts() {
        let e = robust_bisect(
            |x| x * x + 1.0,
            -1.0,
            1.0,
            Tolerance::default(),
            &SolverPolicy {
                max_attempts: 2,
                ..SolverPolicy::default()
            },
        )
        .unwrap_err();
        assert!(format!("{e}").contains("2 attempt(s)"));
    }
}
