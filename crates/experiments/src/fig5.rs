//! **Figure 5** — monopoly: Ψ and Φ versus per-capita capacity ν for a
//! grid of strategies `s_I = (κ, c)` on the 1000-CP ensemble
//! (ν up to 500 ≈ 2× the saturation point).
//!
//! Paper observations encoded as shape checks:
//! 1. for small ν the premium class is full, so `Ψ = c·κ·ν` (linear);
//! 2. for large ν and small κ, Ψ falls to ~0 while Φ reaches its
//!    maximum; a big κ (0.9) keeps Ψ positive at the expense of Φ;
//! 3. at fixed ν (congested), larger κ yields (weakly) larger Ψ —
//!    the numeric trace of Theorem 4;
//! 4. the discontinuity metric ε_sI (Eq. 9) is small relative to the Φ
//!    scale when |N| is large — the paper's "when |N| is large, ε_sI is
//!    quite small".
//!
//! The sweep runs under [`resilient_sweep_chunked`]: the ν grid is cut
//! into fixed chunks, each chunk solved serially through one
//! [`GameWarmStart`] (adjacent ν points reuse the previous partition and
//! the water-level kernel's segment hints — exact, see
//! `pubopt_core::best_response`), and the chunks fan out in parallel.
//! Each grid point is panic-isolated, failed points are retried serially
//! on a cold state, and surviving gaps are linearly interpolated for the
//! shape checks (the CSV keeps only measured points). With
//! `Config::chaos` set, a deterministic fault injector perturbs the grid
//! (NaN + panic at the smoke rates) to prove the machinery end to end.

use crate::report::{ascii_plot, Config, FigureResult, FigureStatus, Table};
use crate::resilience::{interpolate_gaps, resilient_sweep_chunked, SweepStats, SWEEP_CHUNK};
use crate::shape::ShapeCheck;
use pubopt_core::{competitive_equilibrium_warm, GameWarmStart, IspStrategy};
use pubopt_demand::Population;
use pubopt_num::chaos::{ChaosConfig, ChaosInjector, Fault};
use pubopt_num::Tolerance;
use pubopt_workload::ScenarioKind;

/// The κ values of the paper's strategy grid.
pub const KAPPAS: [f64; 3] = [0.2, 0.5, 0.9];
/// The c values of the paper's strategy grid.
pub const CS: [f64; 3] = [0.2, 0.4, 0.8];

/// Retry budget per grid point in the repair pass.
const MAX_RETRIES: u32 = 3;

/// Regenerate Figure 5 on the given population (Figure 10 reuses this).
pub(crate) fn run_on(pop: &Population, id: &str, csv: &str, config: &Config) -> FigureResult {
    let n = config.grid(100, 16);
    let nu_max = 500.0 * config.nu_scale();
    let nus = pubopt_num::linspace_excl_zero(nu_max, n);
    let injector = config
        .chaos
        .map(|seed| ChaosInjector::new(ChaosConfig::smoke(seed)));
    let site = ChaosInjector::site("fig5.sweep");

    // One resilient sweep per strategy: parallel over fixed ν chunks
    // (each chunk warm-starting left to right through one
    // `GameWarmStart`) with a serial cold repair pass for faulted points.
    let mut table = Table::new(vec!["kappa", "c", "nu", "psi", "phi", "premium_count"]);
    type Curve = ((f64, f64), Vec<f64>, Vec<f64>);
    let mut curves: Vec<Curve> = Vec::new();
    let mut stats = SweepStats::default();
    let mut unusable: Vec<(f64, f64)> = Vec::new();
    for (si, &kappa) in KAPPAS.iter().enumerate() {
        for (sj, &c) in CS.iter().enumerate() {
            let strategy = IspStrategy::new(kappa, c);
            let curve_offset = ((si * CS.len() + sj) as u64) << 32;
            let (rows, curve_stats) = resilient_sweep_chunked(
                &nus,
                config.worker_threads(),
                MAX_RETRIES,
                SWEEP_CHUNK,
                GameWarmStart::new,
                |warm, &nu, i, attempt| {
                    if let Some(inj) = &injector {
                        // Key the fault on (curve, point, attempt) so a
                        // retried point re-rolls deterministically.
                        let unit = curve_offset | ((i as u64) << 8) | u64::from(attempt);
                        match inj.fault_at(site, unit) {
                            Some(Fault::Panic) => {
                                panic!("chaos: injected panic ({id} point {i}, attempt {attempt})")
                            }
                            Some(fault) => {
                                return Err(format!(
                                    "chaos: injected {fault:?} ({id} point {i}, attempt {attempt})"
                                ))
                            }
                            None => {}
                        }
                    }
                    let sol =
                        competitive_equilibrium_warm(pop, nu, strategy, Tolerance::COARSE, warm);
                    let out = &sol.outcome;
                    let psi = out.isp_surplus(pop);
                    let phi = out.consumer_surplus(pop);
                    if !psi.is_finite() || !phi.is_finite() {
                        return Err(format!("non-finite surplus at ν={nu}: Ψ={psi} Φ={phi}"));
                    }
                    Ok((psi, phi, out.partition.premium_count() as f64))
                },
            );
            stats.merge(&curve_stats);
            for (i, &nu) in nus.iter().enumerate() {
                if let Some((psi, phi, prem)) = rows[i] {
                    table.push(vec![kappa, c, nu, psi, phi, prem]);
                }
            }
            let psis_opt: Vec<Option<f64>> = rows.iter().map(|r| r.map(|t| t.0)).collect();
            let phis_opt: Vec<Option<f64>> = rows.iter().map(|r| r.map(|t| t.1)).collect();
            match (
                interpolate_gaps(&nus, &psis_opt),
                interpolate_gaps(&nus, &phis_opt),
            ) {
                (Some(psis), Some(phis)) => curves.push(((kappa, c), psis, phis)),
                _ => unusable.push((kappa, c)),
            }
        }
    }
    let path = table.write_csv(&config.out_dir, csv);

    if !unusable.is_empty() {
        // A whole curve lost: the figure cannot make its claims.
        let mut result = FigureResult::new(
            id,
            vec![path],
            format!(
                "{id}: sweep unusable — curves {unusable:?} kept < 2 points; {}",
                stats.summary_line()
            ),
            vec![ShapeCheck::new(
                format!("{id}.sweep-usable"),
                "every (κ,c) curve retains at least 2 measured points",
                false,
                format!("lost curves: {unusable:?}"),
            )],
        );
        result.status = FigureStatus::Failed;
        result.recovered_points = stats.recovered;
        result.failed_points = stats.failed;
        return result;
    }

    let mut checks = Vec::new();

    // 1. Linear regime at small ν: Ψ ≈ c·κ·ν at the first grid point.
    let mut linear_ok = true;
    let mut detail = String::new();
    for ((kappa, c), psis, _) in &curves {
        let nu0 = nus[0];
        let expect = c * kappa * nu0;
        let ok = (psis[0] - expect).abs() < 0.05 * (1.0 + expect);
        linear_ok &= ok;
        if !ok {
            detail.push_str(&format!(
                "(κ={kappa},c={c}): Ψ={:.3} vs {expect:.3}; ",
                psis[0]
            ));
        }
    }
    checks.push(ShapeCheck::new(
        "fig5.linear-regime",
        "for small ν the premium class is full and Ψ = c·κ·ν",
        linear_ok,
        if detail.is_empty() {
            "all 9 strategies".into()
        } else {
            detail
        },
    ));

    // 2. Abundance: small κ ⇒ Ψ → 0; large κ keeps revenue.
    let psi_end = |kappa: f64, c: f64| -> f64 {
        curves
            .iter()
            .find(|((k, cc), _, _)| *k == kappa && *cc == c)
            .map(|(_, psis, _)| *psis.last().unwrap())
            .expect("strategy in grid")
    };
    let small_kappa_dies = CS
        .iter()
        .all(|&c| psi_end(0.2, c) < 0.05 * (0.2 * 0.2 * nu_max));
    let big_kappa_survives = CS
        .iter()
        .any(|&c| psi_end(0.9, c) > 1.0 * config.nu_scale());
    checks.push(ShapeCheck::new(
        "fig5.abundance-regime",
        "at ν = 500, κ = 0.2 earns ≈ 0 while κ = 0.9 retains revenue",
        small_kappa_dies && big_kappa_survives,
        format!(
            "Ψ_end(κ=0.2) = {:?}, Ψ_end(κ=0.9) = {:?}",
            CS.iter().map(|&c| psi_end(0.2, c)).collect::<Vec<_>>(),
            CS.iter().map(|&c| psi_end(0.9, c)).collect::<Vec<_>>()
        ),
    ));

    // 3. Theorem 4 trace: at a congested ν, Ψ non-decreasing in κ.
    let mid = n / 3; // ν ≈ 167: congested
    let mut kappa_monotone = true;
    for &c in &CS {
        let mut prev = -1.0;
        for &kappa in &KAPPAS {
            let psi = curves
                .iter()
                .find(|((k, cc), _, _)| *k == kappa && *cc == c)
                .map(|(_, psis, _)| psis[mid])
                .unwrap();
            kappa_monotone &= psi + 1e-6 >= prev;
            prev = psi;
        }
    }
    checks.push(ShapeCheck::new(
        "fig5.theorem4-kappa-ordering",
        "at congested ν, higher κ earns (weakly) more — Theorem 4's direction",
        kappa_monotone,
        format!("checked at ν = {:.0}", nus[mid]),
    ));

    // 4. ε_sI small relative to the Φ scale. The paper's claim is
    // asymptotic — each CP's decision moves Φ by O(1/|N|) — so the budget
    // scales inversely with the population when `--scale` shrinks it
    // below the paper's 1000 (and stays at 5% for |N| ≥ 1000).
    let eps_budget = 0.05 * (1000.0 / pop.len() as f64).max(1.0);
    let mut worst_eps_ratio = 0.0f64;
    for (_, _, phis) in &curves {
        let eps = crate::shape::max_downward_gap(phis);
        let scale = phis.iter().cloned().fold(0.0, f64::max).max(1e-12);
        worst_eps_ratio = worst_eps_ratio.max(eps / scale);
    }
    checks.push(ShapeCheck::new(
        "fig5.epsilon-small",
        "when |N| is large the downward gaps of Φ(ν) are small (ε_sI ≪ max Φ)",
        worst_eps_ratio < eps_budget,
        format!("worst ε/maxΦ = {worst_eps_ratio:.4} (budget {eps_budget:.4})"),
    ));

    let (_, psis09, phis09) = curves
        .iter()
        .find(|((k, c), _, _)| *k == 0.9 && *c == 0.4)
        .unwrap();
    let mut summary = format!(
        "{id}: monopoly (κ,c) grid over ν\n{}{}",
        ascii_plot("Ψ(ν) at (κ=0.9, c=0.4)", &nus, psis09, 60, 10),
        ascii_plot("Φ(ν) at (κ=0.9, c=0.4)", &nus, phis09, 60, 10),
    );
    if stats.status() != FigureStatus::Ok {
        summary.push_str(&format!("{}\n", stats.summary_line()));
    }
    let mut result = FigureResult::new(id, vec![path], summary, checks);
    result.status = stats.status();
    result.recovered_points = stats.recovered;
    result.failed_points = stats.failed;
    result
}

/// Regenerate Figure 5.
pub fn run(config: &Config) -> FigureResult {
    let scenario = crate::scaled_scenario(ScenarioKind::PaperEnsemble, config);
    run_on(&scenario.pop, "fig5", "fig5_monopoly_grid.csv", config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pubopt_demand::{ContentProvider, DemandKind};

    #[test]
    #[ignore = "several minutes in debug builds; run with --release --ignored or via the repro binary"]
    fn all_checks_pass_fast() {
        let config = Config {
            out_dir: std::env::temp_dir().join("pubopt-fig5-test"),
            fast: true,
            threads: 4,
            ..Config::default()
        };
        let r = run(&config);
        assert!(r.all_passed(), "{:#?}", r.checks);
    }

    fn small_pop(n: usize) -> Population {
        (0..n)
            .map(|i| {
                let f = i as f64 / n as f64;
                ContentProvider::new(
                    0.2 + 0.8 * f,
                    0.5 + 5.0 * ((i * 7) % n) as f64 / n as f64,
                    DemandKind::exponential(8.0 * ((i * 3) % n) as f64 / n as f64),
                    ((i * 13) % n) as f64 / n as f64,
                    1.0,
                )
            })
            .collect()
    }

    /// The ISSUE 2 acceptance scenario in miniature: a chaos-seeded fig5
    /// grid completes without an escaped panic, is at worst degraded, and
    /// is bit-for-bit deterministic across runs.
    #[test]
    fn chaos_grid_is_deterministic_and_degraded_at_worst() {
        let pop = small_pop(30);
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {})); // silence injected panics
        let run_once = |dir: &str| {
            let config = Config {
                out_dir: std::env::temp_dir().join(dir),
                fast: true,
                threads: 4,
                chaos: Some(42),
                ..Config::default()
            };
            run_on(&pop, "fig5", "fig5_chaos_test.csv", &config)
        };
        let a = run_once("pubopt-fig5-chaos-a");
        let b = run_once("pubopt-fig5-chaos-b");
        std::panic::set_hook(hook);

        // Smoke rates over 9×16 = 144 points make at least one fault all
        // but certain; the injector is deterministic, so assert it.
        assert!(
            a.recovered_points + a.failed_points > 0,
            "chaos seed 42 must inject at least one fault on the grid"
        );
        assert_ne!(a.status, FigureStatus::Failed, "grid must stay usable");
        assert_eq!(a.status, FigureStatus::Degraded);

        // Determinism: identical status, counts, and CSV bytes.
        assert_eq!(a.status, b.status);
        assert_eq!(a.recovered_points, b.recovered_points);
        assert_eq!(a.failed_points, b.failed_points);
        let csv_a = std::fs::read_to_string(&a.files[0]).unwrap();
        let csv_b = std::fs::read_to_string(&b.files[0]).unwrap();
        assert_eq!(csv_a, csv_b, "chaos runs must be bit-for-bit identical");
    }

    /// Without chaos the same grid is healthy: no faults, status ok.
    #[test]
    fn quiet_grid_is_healthy() {
        let pop = small_pop(30);
        let config = Config {
            out_dir: std::env::temp_dir().join("pubopt-fig5-quiet"),
            fast: true,
            threads: 4,
            ..Config::default()
        };
        let r = run_on(&pop, "fig5", "fig5_quiet_test.csv", &config);
        assert_eq!(r.status, FigureStatus::Ok);
        assert_eq!(r.recovered_points, 0);
        assert_eq!(r.failed_points, 0);
    }

    /// The warm-start acceptance criterion on the Figure-5 workload: the
    /// paper's 1000-CP ensemble at the grid's middle strategy, over a
    /// debug-sized slice of the fig5 ν grid (25 of the 100 points; the
    /// ratio is a per-solve property, so the slice measures what the full
    /// grid does). One [`GameWarmStart`] carried along the grid, as the
    /// sweep chunks carry it, must reproduce the no-hint baseline
    /// ([`GameWarmStart::without_hints`], fresh per point) exactly while
    /// spending at least 3× fewer breakpoint-segment probes.
    #[test]
    fn warmstart_ab_on_fig5_workload_is_exact_and_meets_3x() {
        let pop = pubopt_workload::EnsembleConfig::default().generate();
        let strategy = IspStrategy::new(0.5, 0.4);
        let tol = Tolerance::COARSE;
        let mut warm = GameWarmStart::new();
        let mut cold = pubopt_eq::SweepEffort::default();
        for nu in pubopt_num::linspace_excl_zero(500.0, 25) {
            let w = competitive_equilibrium_warm(&pop, nu, strategy, tol, &mut warm).outcome;
            let mut baseline = GameWarmStart::without_hints();
            let c = competitive_equilibrium_warm(&pop, nu, strategy, tol, &mut baseline).outcome;
            cold.merge(&baseline.effort());
            assert_eq!(w.partition, c.partition, "nu={nu}: partition");
            for (label, got, want) in [
                ("psi", w.isp_surplus(&pop), c.isp_surplus(&pop)),
                ("phi", w.consumer_surplus(&pop), c.consumer_surplus(&pop)),
            ] {
                assert_eq!(got.to_bits(), want.to_bits(), "nu={nu}: {label}");
            }
        }
        let warm = warm.effort();
        assert!(
            warm.segment_probes * 3 <= cold.segment_probes,
            ">=3x fewer segment probes warm vs cold: cold={} warm={}",
            cold.segment_probes,
            warm.segment_probes
        );
        assert!(
            warm.lambda_evals < cold.lambda_evals,
            "total lambda evaluations must also drop: cold={} warm={}",
            cold.lambda_evals,
            warm.lambda_evals
        );
    }
}
