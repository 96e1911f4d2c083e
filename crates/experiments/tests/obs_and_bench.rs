//! Integration tests for the observability layer and the bench harness.
//!
//! The experiments crate's dev-dependencies enable the `enabled` feature
//! of `pubopt-obs`, so under `cargo test` the instrumentation in the
//! solver crates is compiled in (feature unification), while plain
//! builds of the libraries keep it as no-ops.

use pubopt_eq::solve_maxmin_traced;
use pubopt_experiments::bench_harness::{run, BenchOptions, KERNEL_NAMES};
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

#[test]
fn bench_quick_report_parses_and_covers_every_kernel() {
    let report = run(BenchOptions { quick: true });
    let text = report.to_json();
    let v = pubopt_obs::json::parse(&text).expect("bench JSON must parse");

    assert_eq!(v["schema"].as_str(), Some("pubopt-bench/v10"));
    assert_eq!(v["quick"].as_bool(), Some(true));
    assert!(v["date"].as_str().is_some_and(|d| d.len() == 10));

    let kernels = v["kernels"].as_array().expect("kernels array");
    let names: Vec<&str> = kernels.iter().filter_map(|k| k["name"].as_str()).collect();
    for expected in KERNEL_NAMES {
        assert!(names.contains(expected), "missing kernel {expected}");
    }
    for k in kernels {
        let (p10, med, p90) = (
            k["p10_ns"].as_u64().unwrap(),
            k["median_ns"].as_u64().unwrap(),
            k["p90_ns"].as_u64().unwrap(),
        );
        assert!(p10 <= med && med <= p90, "quantiles out of order in {k}");
        assert!(med > 0, "zero-cost kernel in {k}");
    }

    for case in ["trio_nu2", "ensemble_nu100", "ensemble_uncongested"] {
        assert!(
            v["solver"][case]["lambda_evals"].as_u64().is_some(),
            "missing solver case {case}"
        );
    }
    assert_eq!(
        v["solver"]["ensemble_uncongested"]["congested"].as_bool(),
        Some(false)
    );

    let scaling = v["parallel_map_scaling"].as_array().expect("scaling array");
    let workers: Vec<u64> = scaling
        .iter()
        .filter_map(|p| p["workers"].as_u64())
        .collect();
    assert_eq!(workers, vec![1, 2, 4, 8]);
    assert!(
        (scaling[0]["speedup"].as_f64().unwrap() - 1.0).abs() < 1e-9,
        "1-worker speedup is the baseline"
    );
    for p in scaling {
        let speedup = p["speedup"].as_f64().unwrap();
        let workers = p["workers"].as_u64().unwrap() as f64;
        let efficiency = p["efficiency"].as_f64().unwrap();
        assert!(
            (efficiency - speedup / workers).abs() < 1e-9,
            "efficiency must be speedup/workers in {p}"
        );
    }

    let alloc = v["alloc_scaling"].as_array().expect("alloc_scaling array");
    assert!(!alloc.is_empty());
    for a in alloc {
        assert!(a["n_cps"].as_u64().unwrap() >= 1_000);
        assert!(a["speedup"].as_f64().unwrap() > 1.0, "kernel slower in {a}");
        assert!(
            a["max_abs_diff"].as_f64().unwrap() < 1e-9,
            "kernel disagrees with reference in {a}"
        );
    }

    // The scalar-vs-columnar demand-kernel section (schema v7). Debug
    // timings say nothing about the release ≥ 2× acceptance number, so
    // assert the structural and exactness invariants: the batch kernel
    // must agree with the scalar loop bit-for-bit (max_abs_diff == 0).
    let de = v["demand_eval"].as_array().expect("demand_eval array");
    assert!(!de.is_empty());
    for p in de {
        assert!(p["n_cps"].as_u64().unwrap() >= 10_000);
        assert_eq!(p["evals"].as_u64(), p["n_cps"].as_u64());
        assert!(p["scalar_cps_per_sec"].as_f64().unwrap() > 0.0);
        assert!(p["columnar_cps_per_sec"].as_f64().unwrap() > 0.0);
        assert_eq!(
            p["max_abs_diff"].as_f64(),
            Some(0.0),
            "columnar demand kernel must be bit-exact: {p}"
        );
    }

    let ab = &v["warmstart_ab"];
    assert_eq!(ab["identical"].as_bool(), Some(true));
    assert!(ab["probe_ratio"].as_f64().unwrap() > 1.0);
    assert!(ab["cold"]["segment_probes"].as_u64().unwrap() > 0);
    assert!(ab["warm"]["segment_probes"].as_u64().unwrap() > 0);

    // The duopoly analogue: identical outputs, strictly cheaper than the
    // no-hint baseline (acceptance: probe and eval ratios above 1).
    let duo = &v["duopoly_warmstart_ab"];
    assert_eq!(duo["identical"].as_bool(), Some(true));
    assert!(duo["probe_ratio"].as_f64().unwrap() > 1.0);
    assert!(duo["eval_ratio"].as_f64().unwrap() > 1.0);
    assert!(duo["cold"]["segment_probes"].as_u64().unwrap() > 0);
    assert!(duo["warm"]["segment_probes"].as_u64().unwrap() > 0);

    // The serving A/B ran against a real loopback daemon. Timings are
    // machine-dependent (debug builds especially), so assert correctness
    // invariants, not the release-only >= 10x throughput criterion.
    let serving = &v["serving"];
    assert_eq!(serving["byte_identical"].as_bool(), Some(true));
    assert!(serving["cold_rps"].as_f64().unwrap() > 0.0);
    assert!(serving["warm_rps"].as_f64().unwrap() > 0.0);
    assert!(
        serving["hit_rate"].as_f64().unwrap() > 0.5,
        "warm replays must dominate the cache traffic: {serving}"
    );

    // The connection-layer A/Bs: same caveat on timings, so assert the
    // correctness invariants (byte-identical batches, every pass
    // produced throughput, percentiles ordered).
    let sc = &v["serving_connections"];
    assert_eq!(sc["byte_identical"].as_bool(), Some(true));
    for key in ["close_rps", "reuse_rps", "pipeline_rps", "batch_rps"] {
        assert!(sc[key].as_f64().unwrap() > 0.0, "missing {key}: {sc}");
    }
    let (p50, p95, p99) = (
        sc["open_loop_p50_us"].as_u64().unwrap(),
        sc["open_loop_p95_us"].as_u64().unwrap(),
        sc["open_loop_p99_us"].as_u64().unwrap(),
    );
    assert!(
        p50 <= p95 && p95 <= p99,
        "open-loop percentiles out of order"
    );

    // The failure drills: a chaos proxy at 10% and 30% fault rates in
    // front of the daemon. The resilience stack must keep every request
    // alive (no hard failures), retried bytes must match the unfaulted
    // path, and the schedule digests must differ between rates (the
    // fault schedule is a function of the config, not just the seed).
    let sf = &v["serving_faults"];
    assert_eq!(sf["byte_identical"].as_bool(), Some(true));
    let drills = sf["drills"].as_array().expect("drills array");
    assert_eq!(drills.len(), 2, "one drill per fault rate: {sf}");
    for d in drills {
        assert_eq!(d["hard_failures"].as_u64(), Some(0), "{d}");
        assert!(d["availability"].as_f64().unwrap() >= 0.99, "{d}");
        assert!(d["faults_injected"].as_u64().unwrap() > 0, "{d}");
        assert!(d["goodput_rps"].as_f64().unwrap() > 0.0, "{d}");
    }
    assert_ne!(
        drills[0]["schedule_digest"].as_str(),
        drills[1]["schedule_digest"].as_str(),
        "different rates must draw different schedules"
    );

    // The sharded-solve section (schema v8): every kernel point ran the
    // partitioned source against the single-process reference, every
    // cluster point ran a coordinator against real shard daemons, and
    // both must be byte-identical — `relative` is timing and therefore
    // only sanity-checked.
    let ss = &v["sharded_solve"];
    assert_eq!(ss["byte_identical"].as_bool(), Some(true), "{ss}");
    let kernel = ss["kernel"].as_array().expect("kernel array");
    assert!(!kernel.is_empty());
    for p in kernel {
        assert_eq!(p["byte_identical"].as_bool(), Some(true), "{p}");
        assert!(p["shards"].as_u64().unwrap() >= 2, "{p}");
        assert!(p["relative"].as_f64().unwrap() > 0.0, "{p}");
        assert!(p["lambda_evals"].as_u64().unwrap() > 0, "{p}");
    }
    let cluster = ss["cluster"].as_array().expect("cluster array");
    assert!(!cluster.is_empty());
    for p in cluster {
        assert_eq!(p["byte_identical"].as_bool(), Some(true), "{p}");
        assert!(p["shard_rpcs"].as_u64().unwrap() > 0, "{p}");
    }

    // The calendar-queue netsim section (schema v10): the event-driven
    // simulator must stay bit-identical across 1/2/4/8 workers and
    // publish the flow-scaling table. Its head-to-head against the
    // fixed-dt integrator is a pubopt-netsim test.
    let ns = &v["netsim_scaling"];
    assert_eq!(ns["byte_identical"].as_bool(), Some(true), "{ns}");
    assert!(ns["event_ns"].as_u64().unwrap() > 0);
    assert!(ns["event_updates"].as_u64().unwrap() > 0, "{ns}");
    let points = ns["points"].as_array().expect("netsim points array");
    assert!(!points.is_empty());
    for p in points {
        assert!(p["event_ns"].as_u64().unwrap() > 0, "{p}");
        assert!(p["flows_per_sec"].as_f64().unwrap() > 0.0, "{p}");
        assert!(
            p["classes"].as_u64().unwrap() <= p["groups"].as_u64().unwrap(),
            "aggregation can only shrink the population: {p}"
        );
    }

    // The /v1/whatif co-simulation went through real loopback daemons:
    // the cached repeat and a separate 4-worker daemon must both answer
    // byte-identically to the cold solve, and the simulated outcome must
    // sit near the analytical water-filling prediction.
    let wi = &v["whatif"];
    assert_eq!(wi["byte_identical"].as_bool(), Some(true), "{wi}");
    assert!(wi["cold_us"].as_u64().unwrap() > 0);
    assert!(wi["warm_us"].as_u64().unwrap() > 0);
    assert!(wi["divergence"].as_f64().unwrap() < 0.2, "{wi}");
}
