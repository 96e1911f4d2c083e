//! **Solver cross-validation** — every key quantity in this reproduction
//! is computed by two independent methods; this experiment measures their
//! agreement (the numbers back the "Methods agreement" table in
//! `EXPERIMENTS.md`):
//!
//! 1. rate equilibrium: max-min water-level bisection vs generic damped
//!    fixed point (DESIGN.md A1);
//! 2. CP partition: throughput-taking competitive solver vs exact Nash
//!    best-response dynamics on a 100-CP ensemble (A2, also §III-D's
//!    argument that the concepts agree for large N);
//! 3. market shares: duopoly bisection vs tâtonnement migration (A3).

use crate::report::{Config, FigureResult, Table};
use crate::runner::parallel_map;
use crate::shape::ShapeCheck;
use pubopt_alloc::MaxMinFair;
use pubopt_core::{
    competitive_equilibrium, market_share_equilibrium, nash_equilibrium, tatonnement, Isp,
    IspStrategy, MarketGame,
};
use pubopt_eq::{solve_generic, solve_maxmin};
use pubopt_num::{FixedPointOptions, Tolerance};
use pubopt_workload::EnsembleConfig;

/// Run the solver cross-validation suite.
pub fn run(config: &Config) -> FigureResult {
    let mut checks = Vec::new();
    let mut table = Table::new(vec!["experiment", "case", "value_a", "value_b"]);
    let pop = EnsembleConfig {
        n: 100,
        seed: 4242,
        ..EnsembleConfig::default()
    }
    .generate();
    let cap = pop.total_unconstrained_per_capita();

    // 1. Equilibrium solvers.
    let fracs: Vec<f64> = if config.fast {
        vec![0.2, 0.8]
    } else {
        vec![0.05, 0.2, 0.5, 0.8, 1.2]
    };
    let eq_rows = parallel_map(&fracs, config.worker_threads(), |&f| {
        let nu = f * cap;
        let fast = solve_maxmin(&pop, nu, Tolerance::STRICT);
        let opts = FixedPointOptions {
            damping: 0.5,
            tol: Tolerance::new(1e-10, 1e-10).with_max_iter(20_000),
        };
        // An unsolved capacity degrades the agreement check; it must not
        // take down the whole validation suite.
        let max_dev = match solve_generic(&pop, &MaxMinFair, nu, opts) {
            Ok(slow) => Some(
                fast.thetas
                    .iter()
                    .zip(slow.thetas.iter())
                    .map(|(a, b)| (a - b).abs() / (1.0 + a.abs()))
                    .fold(0.0f64, f64::max),
            ),
            Err(_) => None,
        };
        (f, max_dev)
    });
    let eq_unsolved = eq_rows.iter().filter(|r| r.1.is_none()).count();
    let worst_eq = eq_rows.iter().filter_map(|r| r.1).fold(0.0f64, f64::max);
    for (f, d) in &eq_rows {
        table.push(vec![1.0, *f, d.unwrap_or(f64::NAN), 0.0]);
    }
    checks.push(ShapeCheck::new(
        "solvers.equilibrium-agreement",
        "water-level bisection and generic fixed point agree on θ profiles",
        worst_eq < 1e-4 && eq_unsolved == 0,
        format!(
            "worst relative θ deviation {worst_eq:.2e} over {} capacities ({eq_unsolved} unsolved)",
            fracs.len()
        ),
    ));

    // 2. Partition concepts (§III-D): competitive ≈ Nash for large N.
    let strategies = [
        IspStrategy::new(0.3, 0.15),
        IspStrategy::new(0.5, 0.35),
        IspStrategy::new(0.8, 0.2),
    ];
    let nu = 0.3 * cap;
    let partition_rows = parallel_map(&strategies, config.worker_threads(), |&s| {
        let comp = competitive_equilibrium(&pop, nu, s, Tolerance::default());
        let nash = nash_equilibrium(&pop, nu, s, Tolerance::default());
        let diff = (0..pop.len())
            .filter(|&i| comp.outcome.partition.class_of(i) != nash.outcome.partition.class_of(i))
            .count();
        let phi_gap = (comp.outcome.consumer_surplus(&pop) - nash.outcome.consumer_surplus(&pop))
            .abs()
            / (1.0 + comp.outcome.consumer_surplus(&pop));
        (diff, phi_gap)
    });
    let worst_diff = partition_rows.iter().map(|r| r.0).max().unwrap_or(0);
    let worst_phi_gap = partition_rows.iter().map(|r| r.1).fold(0.0f64, f64::max);
    for (i, (d, g)) in partition_rows.iter().enumerate() {
        table.push(vec![2.0, i as f64, *d as f64, *g]);
    }
    checks.push(ShapeCheck::new(
        "solvers.nash-vs-competitive",
        "with 100 CPs the throughput-taking (competitive) and Nash partitions nearly coincide",
        worst_diff <= pop.len() / 10 && worst_phi_gap < 0.02,
        format!(
            "worst disagreement {worst_diff}/{} CPs, worst Φ gap {worst_phi_gap:.4}",
            pop.len()
        ),
    ));

    // 3. Market-share solvers.
    let games = [
        (IspStrategy::new(0.6, 0.2), 0.5),
        (IspStrategy::premium_only(0.3), 0.5),
        (IspStrategy::new(0.4, 0.4), 0.3),
    ];
    let share_rows = parallel_map(&games, config.worker_threads(), |&(s, gamma)| {
        let game = MarketGame::new(
            vec![Isp::new("i", s, gamma), Isp::public_option(1.0 - gamma)],
            0.4 * cap,
        );
        let lb = market_share_equilibrium(&game, &pop, Tolerance::COARSE);
        let tt = tatonnement(&game, &pop, 0.4, 500, 5e-4, Tolerance::COARSE);
        (lb.shares[0], tt.shares[0])
    });
    let worst_share = share_rows
        .iter()
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    for (i, (a, b)) in share_rows.iter().enumerate() {
        table.push(vec![3.0, i as f64, *a, *b]);
    }
    checks.push(ShapeCheck::new(
        "solvers.bisection-vs-tatonnement",
        "the Assumption-5 migration dynamic reaches the same shares as direct bisection",
        worst_share < 0.05,
        format!(
            "worst share deviation {worst_share:.4} across {} games",
            games.len()
        ),
    ));

    let path = table.write_csv(&config.out_dir, "solver_validation.csv");
    let summary = checks
        .iter()
        .map(|c| c.render())
        .collect::<Vec<_>>()
        .join("\n");
    FigureResult::new("solvers", vec![path], summary, checks)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[ignore = "slow in debug builds; run with --release --ignored or via the repro binary"]
    fn solver_checks_pass() {
        let config = Config {
            out_dir: std::env::temp_dir().join("pubopt-solvers-test"),
            fast: true,
            threads: 4,
            ..Config::default()
        };
        let r = run(&config);
        assert!(r.all_passed(), "{:#?}", r.checks);
    }
}
