//! Centralised floating-point tolerances.
//!
//! Every solver in the workspace takes a [`Tolerance`] so that experiments
//! can trade accuracy for speed uniformly.

/// Absolute/relative tolerance pair plus an iteration budget.
///
/// A quantity `x` is considered converged to `y` when
/// `|x - y| <= abs + rel * max(|x|, |y|)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tolerance {
    /// Absolute tolerance floor.
    pub abs: f64,
    /// Relative tolerance factor.
    pub rel: f64,
    /// Maximum number of iterations a solver may spend.
    pub max_iter: usize,
}

impl Default for Tolerance {
    fn default() -> Self {
        Self {
            abs: 1e-10,
            rel: 1e-10,
            max_iter: 200,
        }
    }
}

impl Tolerance {
    /// A loose tolerance for fast, plotting-grade sweeps.
    pub const COARSE: Tolerance = Tolerance {
        abs: 1e-6,
        rel: 1e-6,
        max_iter: 80,
    };

    /// The default, publication-grade tolerance.
    pub const FINE: Tolerance = Tolerance {
        abs: 1e-10,
        rel: 1e-10,
        max_iter: 200,
    };

    /// A near-machine-precision tolerance used by verification tests.
    pub const STRICT: Tolerance = Tolerance {
        abs: 1e-13,
        rel: 1e-13,
        max_iter: 500,
    };

    /// Construct a tolerance with the given absolute/relative bounds and the
    /// default iteration budget.
    pub fn new(abs: f64, rel: f64) -> Self {
        Self {
            abs,
            rel,
            ..Self::default()
        }
    }

    /// Returns `true` when `a` and `b` are equal up to this tolerance.
    pub fn close(&self, a: f64, b: f64) -> bool {
        (a - b).abs() <= self.abs + self.rel * a.abs().max(b.abs())
    }

    /// Returns `true` when the bracketing interval `[lo, hi]` is narrower
    /// than this tolerance allows to resolve.
    pub fn interval_resolved(&self, lo: f64, hi: f64) -> bool {
        (hi - lo).abs() <= self.abs + self.rel * lo.abs().max(hi.abs())
    }

    /// Returns a copy with a different iteration budget.
    pub fn with_max_iter(self, max_iter: usize) -> Self {
        Self { max_iter, ..self }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn close_absolute() {
        let t = Tolerance::new(1e-3, 0.0);
        assert!(t.close(1.0, 1.0005));
        assert!(!t.close(1.0, 1.01));
    }

    #[test]
    fn close_relative() {
        let t = Tolerance::new(0.0, 1e-3);
        assert!(t.close(1000.0, 1000.5));
        assert!(!t.close(1000.0, 1002.0));
    }

    #[test]
    fn close_is_symmetric() {
        let t = Tolerance::default();
        assert_eq!(t.close(3.0, 3.0 + 1e-12), t.close(3.0 + 1e-12, 3.0));
    }

    #[test]
    fn interval_resolution() {
        let t = Tolerance::new(1e-6, 0.0);
        assert!(t.interval_resolved(1.0, 1.0 + 1e-7));
        assert!(!t.interval_resolved(1.0, 1.1));
    }

    #[test]
    fn presets_ordered_by_strictness() {
        // Bind through locals so the assertions stay runtime checks (the
        // preset fields are consts, which clippy would otherwise flag).
        let (coarse, fine, strict) = (Tolerance::COARSE, Tolerance::FINE, Tolerance::STRICT);
        assert!(coarse.abs > fine.abs);
        assert!(fine.abs > strict.abs);
    }

    #[test]
    fn with_max_iter_overrides_budget() {
        let t = Tolerance::default().with_max_iter(7);
        assert_eq!(t.max_iter, 7);
        assert_eq!(t.abs, Tolerance::default().abs);
    }
}
