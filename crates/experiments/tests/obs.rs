//! Integration tests for the observability layer: under `cargo test` the
//! experiments crate's dev-dependencies turn on `pubopt-obs/enabled`, so
//! the solver crates' instrumentation is compiled in (feature
//! unification), while plain builds keep it as no-ops.

use pubopt_eq::solve_maxmin_traced;
use pubopt_num::Tolerance;
use pubopt_workload::paper_ensemble;

#[test]
fn instrumentation_is_enabled_under_tests() {
    assert!(
        pubopt_obs::enabled(),
        "dev-dependencies must turn on pubopt-obs/enabled"
    );
}

#[test]
fn solve_maxmin_reports_deterministic_nonzero_iterations() {
    let pop = paper_ensemble();
    let (eq1, stats1) = solve_maxmin_traced(&pop, 100.0, Tolerance::default());
    let (eq2, stats2) = solve_maxmin_traced(&pop, 100.0, Tolerance::default());

    assert!(stats1.congested, "nu=100 < nu* ~ 250 must be congested");
    assert!(stats1.bisect_iters > 0, "congested solve must bisect");
    assert!(
        stats1.lambda_evals > u64::from(stats1.bisect_iters),
        "each bisection step evaluates lambda at least once"
    );
    // Same ensemble, same nu, same tolerance: effort is deterministic.
    assert_eq!(stats1, stats2);
    assert_eq!(eq1.aggregate, eq2.aggregate);

    // The global registry saw the work too. Other tests in this binary
    // run concurrently, so only assert monotone lower bounds.
    let snap = pubopt_obs::snapshot();
    assert!(snap.counter("eq.solve_maxmin.calls").unwrap_or(0) >= 2);
    assert!(snap.counter("eq.solve_maxmin.lambda_evals").unwrap_or(0) >= 2 * stats1.lambda_evals);
    assert!(snap.counter("num.bisect.calls").unwrap_or(0) >= 2);
}

#[test]
fn recovery_counters_are_observable() {
    use pubopt_num::{robust_bisect, SolverPolicy};
    // Deliberately mis-bracketed: the root of x−2 lies outside [0, 1], so
    // the first attempt fails NotBracketed and the policy widens the
    // interval geometrically until the sign change is captured.
    let before = pubopt_obs::snapshot();
    let solve = robust_bisect(
        |x| x - 2.0,
        0.0,
        1.0,
        Tolerance::default(),
        &SolverPolicy::default(),
    )
    .expect("bracket widening must recover");
    assert!((solve.root - 2.0).abs() < 1e-6);
    assert!(
        solve.diagnostics.attempts_used() > 1,
        "recovery must engage"
    );
    let after = pubopt_obs::snapshot();
    // Counters are monotone, so even with other tests running
    // concurrently these deltas are valid lower bounds.
    let delta = |name: &str| after.counter(name).unwrap_or(0) - before.counter(name).unwrap_or(0);
    assert!(delta("num.recover.bisect.calls") >= 1);
    assert!(delta("num.recover.attempts") >= 1);
    assert!(delta("num.recover.widened") >= 1);
    assert!(delta("num.recover.recovered") >= 1);
}

#[test]
fn uncongested_solve_skips_bisection() {
    let pop = paper_ensemble();
    let (_, stats) = solve_maxmin_traced(&pop, 1e6, Tolerance::default());
    assert!(!stats.congested);
    assert_eq!(stats.bisect_iters, 0);
}
