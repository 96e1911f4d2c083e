//! Rate-equilibrium solvers (Theorem 1).
//!
//! Two independent implementations, compared against each other in tests
//! (DESIGN.md ablation A1):
//!
//! * [`solve_maxmin`] — exploits max-min structure: the equilibrium is
//!   `θ_i = min(θ̂_i, w*)` where the equilibrium water level `w*` solves
//!   the scalar monotone equation `Σ α_i d_i(min(θ̂_i, w)) min(θ̂_i, w) = ν`.
//! * [`solve_generic`] — treats the allocator as a black box satisfying
//!   Axioms 1–4 and iterates the demand↔throughput map to its fixed point
//!   with damping.

use crate::source::{drive, LocalSource, SourceSolveError};
use pubopt_alloc::RateAllocator;
use pubopt_demand::Population;
use pubopt_num::recover::{robust_fixed_point, SolveDiagnostics, SolverPolicy};
use pubopt_num::{FixedPointError, FixedPointOptions, Tolerance};

/// A solved rate equilibrium for a system `(ν, N)`.
#[derive(Debug, Clone, PartialEq)]
pub struct RateEquilibrium {
    /// Per-capita capacity the equilibrium was solved at.
    pub nu: f64,
    /// Achievable throughput profile `{θ_i}`.
    pub thetas: Vec<f64>,
    /// Equilibrium demands `{d_i(θ_i)}`.
    pub demands: Vec<f64>,
    /// Aggregate per-capita throughput `λ_N / M = Σ α_i d_i θ_i`.
    pub aggregate: f64,
    /// Max-min water level, when the max-min solver produced this
    /// equilibrium (`None` from the generic solver). Infinite when the
    /// system is uncongested.
    pub water_level: Option<f64>,
}

impl RateEquilibrium {
    /// Per-capita throughput over CP `i`'s user base, `ρ_i = d_i(θ_i)·θ_i`
    /// (Eq. 5).
    pub fn rho(&self, i: usize) -> f64 {
        self.demands[i] * self.thetas[i]
    }

    /// Whether the capacity constraint binds (λ = ν rather than λ = Σλ̂).
    pub fn is_congested(&self, pop: &Population) -> bool {
        self.aggregate + 1e-9 < pop.total_unconstrained_per_capita()
    }
}

/// Errors from the equilibrium solvers.
///
/// For valid max-min inputs the water-level equation is always bracketed
/// (Theorem 1), but pathological demand families — NaN-producing, hard
/// steps outside Assumption 1 — can break that guarantee, so
/// [`try_solve_maxmin`] reports [`EquilibriumError::WaterLevel`] once the
/// recovery policy is exhausted instead of panicking.
#[derive(Debug, Clone, PartialEq)]
pub enum EquilibriumError {
    /// The fixed point did not converge within the iteration budget.
    NoConvergence {
        /// Residual at the last iterate.
        residual: f64,
    },
    /// The allocator produced a non-finite throughput.
    NonFinite,
    /// The water-level equation could not be solved, even after the
    /// recovery policy's bracket widening / budget escalation.
    WaterLevel {
        /// The root-finder error of the final recovery attempt.
        error: pubopt_num::RootError,
    },
}

impl std::fmt::Display for EquilibriumError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EquilibriumError::NoConvergence { residual } => {
                write!(
                    f,
                    "equilibrium iteration did not converge (residual {residual})"
                )
            }
            EquilibriumError::NonFinite => write!(f, "allocator produced non-finite throughput"),
            EquilibriumError::WaterLevel { error } => {
                write!(f, "water-level equation unsolvable: {error}")
            }
        }
    }
}

impl std::error::Error for EquilibriumError {}

/// Solve the rate equilibrium under the max-min fair mechanism.
///
/// The equilibrium aggregate-throughput function of the water level,
/// `Λ(w) = Σ_i α_i d_i(min(θ̂_i, w)) · min(θ̂_i, w)`, is continuous and
/// non-decreasing (Assumption 1), with `Λ(0) = 0` and `Λ(max θ̂) = Σ λ̂`.
/// If `Σ λ̂ ≤ ν` the system is uncongested and `θ_i = θ̂_i` (Axiom 2);
/// otherwise the equilibrium water level is the root of `Λ(w) − ν`,
/// unique by Theorem 1. The solve is [`crate::solve_maxmin_with_source`]
/// over a [`LocalSource`].
pub fn solve_maxmin(pop: &Population, nu: f64, tol: Tolerance) -> RateEquilibrium {
    solve_maxmin_traced(pop, nu, tol).0
}

/// Solver-effort statistics from [`solve_maxmin_traced`].
///
/// Carried in the return value (not only in the observability registry)
/// so effort reporting — the bench binary's solver-stats section, the
/// `repro` run reports — works even in builds with instrumentation
/// compiled out.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SolveStats {
    /// Evaluations of the aggregate-throughput function `Λ(w)` (each one
    /// is a full pass over the population).
    pub lambda_evals: u64,
    /// Interval halvings the water-level bisection performed (0 when the
    /// system was uncongested and no root search was needed).
    pub bisect_iters: u32,
    /// Whether the capacity constraint was binding (a water level had to
    /// be solved for).
    pub congested: bool,
    /// Recovery attempts (beyond the first solve) the water-level search
    /// needed — 0 on the guaranteed-bracketed Theorem-1 fast path.
    pub recovery_attempts: u32,
}

/// [`solve_maxmin`], additionally reporting how much work the water-level
/// search did.
///
/// # Panics
///
/// Panics if the water-level equation is unsolvable even after recovery —
/// impossible for populations satisfying Assumption 1 (use
/// [`try_solve_maxmin`] when sweeping demand families outside it).
pub fn solve_maxmin_traced(
    pop: &Population,
    nu: f64,
    tol: Tolerance,
) -> (RateEquilibrium, SolveStats) {
    try_solve_maxmin(pop, nu, tol, &SolverPolicy::default())
        .expect("Λ(0)=0 ≤ ν < Σλ̂ = Λ(max θ̂): root is bracketed for Assumption-1 demand")
}

/// [`solve_maxmin`] with a recovery policy and a `Result` contract: the
/// water-level search first takes the guaranteed-bracketed Theorem-1 fast
/// path, and on failure (NaN-producing or otherwise pathological demand
/// families) retries under `policy` — bracket widening, budget
/// escalation, shrinking away from singular abscissae — before giving up
/// with [`EquilibriumError::WaterLevel`].
///
/// # Errors
///
/// [`EquilibriumError::WaterLevel`] when every recovery attempt failed.
pub fn try_solve_maxmin(
    pop: &Population,
    nu: f64,
    tol: Tolerance,
    policy: &SolverPolicy,
) -> Result<(RateEquilibrium, SolveStats), EquilibriumError> {
    drive(&mut LocalSource::new(pop), nu, tol, policy).map_err(|e| match e {
        SourceSolveError::Source(never) => match never {},
        SourceSolveError::WaterLevel(error) => EquilibriumError::WaterLevel { error },
    })
}

/// Solve the rate equilibrium for an arbitrary Axiom-1–4 allocator by
/// damped fixed-point iteration on the demand profile.
///
/// Starting from full demand, alternate *(demands → allocation → demands)*
/// until the demand profile stops moving. The demand↔throughput map is
/// *antitone* (more demand ⇒ more congestion ⇒ less demand), so the Picard
/// iteration oscillates for steep demand families; failed attempts are
/// retried under [`generic_default_policy`] — geometric damping backoff
/// down to `η/32`, matching the historical six-halvings schedule — before
/// reporting [`EquilibriumError::NoConvergence`].
pub fn solve_generic(
    pop: &Population,
    mech: &dyn RateAllocator,
    nu: f64,
    opts: FixedPointOptions,
) -> Result<RateEquilibrium, EquilibriumError> {
    solve_generic_with_policy(pop, mech, nu, opts, &generic_default_policy()).map(|(eq, _)| eq)
}

/// The recovery policy [`solve_generic`] uses: six attempts with damping
/// halved between them (`η, η/2, …, η/32`) and no budget escalation —
/// the schedule the solver has always used, now expressed as a
/// [`SolverPolicy`].
pub fn generic_default_policy() -> SolverPolicy {
    SolverPolicy {
        max_attempts: 6,
        damping_backoff: 0.5,
        budget_growth: 1.0,
        ..SolverPolicy::default()
    }
}

/// [`solve_generic`] with an explicit recovery policy, returning the
/// attempt-by-attempt [`SolveDiagnostics`] alongside the equilibrium.
///
/// # Errors
///
/// [`EquilibriumError::NoConvergence`] when every attempt exhausted its
/// iteration budget, [`EquilibriumError::NonFinite`] when the allocator
/// kept producing non-finite throughput.
pub fn solve_generic_with_policy(
    pop: &Population,
    mech: &dyn RateAllocator,
    nu: f64,
    opts: FixedPointOptions,
    policy: &SolverPolicy,
) -> Result<(RateEquilibrium, SolveDiagnostics), EquilibriumError> {
    solve_generic_warm(pop, mech, nu, opts, policy, None)
}

/// [`solve_generic_with_policy`] with a warm start: `warm` carries the
/// demand profile of an adjacent sweep point (e.g.
/// [`RateEquilibrium::demands`] from the previous ν), used as the initial
/// fixed-point iterate instead of the cold full-demand profile
/// `d_i = 1 ∀i`. On a fine sweep grid the equilibrium profile moves
/// little between points, so the iteration converges in a handful of
/// steps — this fixes the cold-start waste where every point paid the
/// full contraction from `d = 1`. A warm profile of the wrong length is
/// ignored (cold start), so callers can pass the previous result
/// unconditionally.
///
/// The converged fixed point is unique for Assumption-1 demand (Theorem
/// 1), so the warm start changes the iteration count, not the answer.
///
/// # Errors
///
/// Same contract as [`solve_generic_with_policy`].
pub fn solve_generic_warm(
    pop: &Population,
    mech: &dyn RateAllocator,
    nu: f64,
    opts: FixedPointOptions,
    policy: &SolverPolicy,
    warm: Option<&[f64]>,
) -> Result<(RateEquilibrium, SolveDiagnostics), EquilibriumError> {
    assert!(
        nu >= 0.0 && nu.is_finite(),
        "nu must be finite and non-negative, got {nu}"
    );
    pubopt_obs::incr("eq.solve_generic.calls");
    if pop.is_empty() {
        return Ok((
            RateEquilibrium {
                nu,
                thetas: Vec::new(),
                demands: Vec::new(),
                aggregate: 0.0,
                water_level: None,
            },
            SolveDiagnostics::default(),
        ));
    }

    // Demand refresh via the columnar batch kernel: bit-identical to the
    // per-CP `cp.demand_at(t)` map it replaces.
    let cols = pop.columnar();
    let step = |d: &[f64]| -> Vec<f64> {
        let thetas = mech.allocate(pop, d, nu);
        let mut next = Vec::new();
        cols.eval_demands_into(&thetas, &mut next);
        next
    };

    let d0 = match warm {
        Some(d) if d.len() == pop.len() && d.iter().all(|x| x.is_finite()) => {
            pubopt_obs::incr("num.warmstart.generic_starts");
            d.to_vec()
        }
        _ => vec![1.0; pop.len()],
    };
    let (result, diagnostics) = match robust_fixed_point(step, d0, opts, policy) {
        Ok(s) => {
            pubopt_obs::add(
                "eq.solve_generic.damping_halvings",
                s.diagnostics.attempts_used().saturating_sub(1) as u64,
            );
            (s.result, s.diagnostics)
        }
        Err(e) => {
            return Err(match e.error {
                FixedPointError::MaxIterations { residual, .. } => {
                    EquilibriumError::NoConvergence { residual }
                }
                FixedPointError::NonFinite => EquilibriumError::NonFinite,
                FixedPointError::DimensionMismatch { .. } => {
                    unreachable!("step preserves dimension")
                }
            })
        }
    };

    let demands = result.value;
    let thetas = mech.allocate(pop, &demands, nu);
    if thetas.iter().any(|t| !t.is_finite()) {
        return Err(EquilibriumError::NonFinite);
    }
    let aggregate = cols.aggregate_per_capita(&demands, &thetas);
    Ok((
        RateEquilibrium {
            nu,
            thetas,
            demands,
            aggregate,
            water_level: None,
        },
        diagnostics,
    ))
}

/// Convenience: solve the max-min equilibrium with default tolerance —
/// the overwhelmingly common call throughout the workspace.
pub fn solve(pop: &Population, nu: f64) -> RateEquilibrium {
    solve_maxmin(pop, nu, Tolerance::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use pubopt_alloc::{MaxMinFair, WeightedAlphaFair};
    use pubopt_demand::archetypes::figure3_trio;
    use pubopt_demand::{ContentProvider, DemandKind, Population};

    fn trio() -> Population {
        figure3_trio().into()
    }

    #[test]
    fn uncongested_equilibrium_is_unconstrained() {
        let p = trio();
        let eq = solve(&p, 10.0); // Σλ̂ = 5.5 < 10
        assert_eq!(eq.thetas, vec![1.0, 10.0, 3.0]);
        assert_eq!(eq.demands, vec![1.0, 1.0, 1.0]);
        assert!((eq.aggregate - 5.5).abs() < 1e-9);
        assert_eq!(eq.water_level, Some(f64::INFINITY));
        assert!(!eq.is_congested(&p));
    }

    #[test]
    fn congested_equilibrium_meets_capacity() {
        let p = trio();
        for nu in [0.1, 0.5, 1.0, 2.0, 4.0, 5.0] {
            let eq = solve(&p, nu);
            assert!(
                (eq.aggregate - nu).abs() < 1e-7 * (1.0 + nu),
                "nu={nu}: aggregate {}",
                eq.aggregate
            );
            assert!(eq.is_congested(&p));
        }
    }

    #[test]
    fn zero_capacity() {
        let eq = solve(&trio(), 0.0);
        assert!(eq.thetas.iter().all(|&t| t == 0.0));
        assert_eq!(eq.aggregate, 0.0);
    }

    #[test]
    fn empty_population_is_trivial() {
        let eq = solve(&Population::default(), 3.0);
        assert!(eq.thetas.is_empty());
        assert_eq!(eq.aggregate, 0.0);
    }

    #[test]
    fn google_recovers_first() {
        // Paper §II-D: as ν grows from 0, demand for Google-type content
        // recovers first, then Skype, Netflix last.
        let p = trio();
        let recovered = |eq: &RateEquilibrium, i: usize| eq.demands[i] > 0.5;
        let mut first_google = None;
        let mut first_skype = None;
        let mut first_netflix = None;
        for k in 1..=600 {
            let nu = 0.01 * k as f64;
            let eq = solve(&p, nu);
            if first_google.is_none() && recovered(&eq, 0) {
                first_google = Some(nu);
            }
            if first_netflix.is_none() && recovered(&eq, 1) {
                first_netflix = Some(nu);
            }
            if first_skype.is_none() && recovered(&eq, 2) {
                first_skype = Some(nu);
            }
        }
        let g = first_google.expect("google must recover");
        let s = first_skype.expect("skype must recover");
        let n = first_netflix.expect("netflix must recover");
        assert!(
            g < s && s < n,
            "recovery order google({g}) < skype({s}) < netflix({n})"
        );
    }

    #[test]
    fn generic_solver_agrees_with_maxmin() {
        let p = trio();
        for nu in [0.2, 0.7, 1.5, 3.0, 4.9, 8.0] {
            let fast = solve_maxmin(&p, nu, Tolerance::STRICT);
            let opts = FixedPointOptions {
                damping: 0.5,
                tol: Tolerance::new(1e-12, 1e-12).with_max_iter(10_000),
            };
            let slow = solve_generic(&p, &MaxMinFair, nu, opts).unwrap();
            for i in 0..p.len() {
                assert!(
                    (fast.thetas[i] - slow.thetas[i]).abs() < 1e-5,
                    "nu={nu} i={i}: {} vs {}",
                    fast.thetas[i],
                    slow.thetas[i]
                );
            }
        }
    }

    #[test]
    fn generic_solver_with_alpha_fair() {
        let p = trio();
        let mech = WeightedAlphaFair::proportional();
        let opts = FixedPointOptions {
            damping: 0.5,
            tol: Tolerance::new(1e-10, 1e-10).with_max_iter(5_000),
        };
        let eq = solve_generic(&p, &mech, 2.0, opts).unwrap();
        // Work conservation at equilibrium: congested, so λ = ν.
        assert!(
            (eq.aggregate - 2.0).abs() < 1e-6,
            "aggregate {}",
            eq.aggregate
        );
        // Consistency: demands equal d(θ).
        for (i, cp) in p.iter().enumerate() {
            assert!((eq.demands[i] - cp.demand_at(eq.thetas[i])).abs() < 1e-6);
        }
    }

    #[test]
    fn hard_step_demand_still_bisectable() {
        // Hard steps violate Assumption 1; Theorem 1 uniqueness is lost,
        // but the water-level bisection still terminates and satisfies
        // feasibility (the returned point brackets the jump).
        let p: Population = vec![
            ContentProvider::new(1.0, 1.0, DemandKind::HardStep { threshold: 0.5 }, 0.0, 0.0),
            ContentProvider::new(1.0, 2.0, DemandKind::Constant, 0.0, 0.0),
        ]
        .into();
        let eq = solve(&p, 1.0);
        for (cp, &t) in p.iter().zip(eq.thetas.iter()) {
            assert!(t <= cp.theta_hat + 1e-9);
        }
    }

    #[test]
    fn generic_warm_start_cuts_allocator_probes() {
        // Regression test for the cold-start waste: a warm start from the
        // adjacent sweep point must reach the same equilibrium with
        // strictly fewer allocator probes than restarting from d = 1.
        use std::cell::Cell;
        struct Counting(Cell<u64>);
        impl RateAllocator for Counting {
            fn allocate(&self, pop: &Population, demands: &[f64], nu: f64) -> Vec<f64> {
                self.0.set(self.0.get() + 1);
                MaxMinFair.allocate(pop, demands, nu)
            }
            fn name(&self) -> &'static str {
                "counting max-min"
            }
        }
        let p = trio();
        let opts = FixedPointOptions {
            damping: 0.5,
            tol: Tolerance::new(1e-11, 1e-11).with_max_iter(20_000),
        };
        let policy = generic_default_policy();
        let mech = Counting(Cell::new(0));
        let (prev, _) = solve_generic_warm(&p, &mech, 1.5, opts, &policy, None).unwrap();

        mech.0.set(0);
        let (cold, _) = solve_generic_warm(&p, &mech, 1.6, opts, &policy, None).unwrap();
        let cold_probes = mech.0.get();

        mech.0.set(0);
        let (warm, _) =
            solve_generic_warm(&p, &mech, 1.6, opts, &policy, Some(&prev.demands)).unwrap();
        let warm_probes = mech.0.get();

        // The Picard iteration contracts linearly, so an adjacent-point
        // warm start saves the initial transient — strictly fewer probes,
        // same answer.
        assert!(
            warm_probes < cold_probes,
            "warm {warm_probes} probes vs cold {cold_probes}"
        );
        for i in 0..p.len() {
            assert!(
                (warm.thetas[i] - cold.thetas[i]).abs() < 1e-7,
                "i={i}: warm {} vs cold {}",
                warm.thetas[i],
                cold.thetas[i]
            );
        }

        // Re-solving the *same* point from its own converged profile is
        // the degenerate warm start: the iteration should terminate
        // almost immediately.
        mech.0.set(0);
        solve_generic_warm(&p, &mech, 1.6, opts, &policy, Some(&cold.demands)).unwrap();
        let resolve_probes = mech.0.get();
        assert!(
            resolve_probes * 10 <= cold_probes,
            "re-solve {resolve_probes} probes vs cold {cold_probes}"
        );
    }

    #[test]
    fn generic_warm_start_ignores_bad_profiles() {
        // Wrong length or non-finite warm profiles fall back to the cold
        // start instead of poisoning the iteration.
        let p = trio();
        let opts = FixedPointOptions {
            damping: 0.5,
            tol: Tolerance::new(1e-10, 1e-10).with_max_iter(10_000),
        };
        let policy = generic_default_policy();
        let cold = solve_generic_warm(&p, &MaxMinFair, 2.0, opts, &policy, None).unwrap();
        for bad in [vec![0.5; 2], vec![f64::NAN; 3]] {
            let warm = solve_generic_warm(&p, &MaxMinFair, 2.0, opts, &policy, Some(&bad)).unwrap();
            for i in 0..p.len() {
                assert!((warm.0.thetas[i] - cold.0.thetas[i]).abs() < 1e-9);
            }
        }
    }

    prop_compose! {
        fn arb_pop()(specs in prop::collection::vec((0.05f64..1.0, 0.2f64..15.0, 0.0f64..8.0), 1..10)) -> Population {
            specs.into_iter()
                .map(|(a, th, b)| ContentProvider::new(a, th, DemandKind::exponential(b), 0.5, 0.5))
                .collect()
        }
    }

    proptest! {
        /// Theorem 1 (uniqueness): perturbing the bracket start must not
        /// change the equilibrium — i.e. re-solving agrees with itself and
        /// with the generic solver.
        #[test]
        fn uniqueness_cross_solver(p in arb_pop(), frac in 0.05f64..2.0) {
            let nu = p.total_unconstrained_per_capita() * frac;
            let fast = solve_maxmin(&p, nu, Tolerance::STRICT);
            let opts = FixedPointOptions { damping: 0.4, tol: Tolerance::new(1e-11, 1e-11).with_max_iter(20_000) };
            if let Ok(slow) = solve_generic(&p, &MaxMinFair, nu, opts) {
                for i in 0..p.len() {
                    prop_assert!((fast.thetas[i] - slow.thetas[i]).abs() < 1e-4,
                        "i={} fast {} slow {}", i, fast.thetas[i], slow.thetas[i]);
                }
            }
        }

        /// Lemma 1: θ_i non-decreasing and continuous-ish in ν.
        #[test]
        fn lemma1_monotone_in_nu(p in arb_pop(), nu in 0.0f64..20.0, extra in 0.0f64..5.0) {
            let e1 = solve(&p, nu);
            let e2 = solve(&p, nu + extra);
            for i in 0..p.len() {
                prop_assert!(e2.thetas[i] + 1e-7 >= e1.thetas[i]);
            }
        }

        /// Axiom 2 at equilibrium: λ = min(ν, Σλ̂).
        #[test]
        fn axiom2_at_equilibrium(p in arb_pop(), nu in 0.0f64..40.0) {
            let eq = solve(&p, nu);
            let expect = nu.min(p.total_unconstrained_per_capita());
            prop_assert!((eq.aggregate - expect).abs() < 1e-6 * (1.0 + expect),
                "aggregate {} expect {}", eq.aggregate, expect);
        }
    }
}
