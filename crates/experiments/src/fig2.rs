//! **Figure 2** — the demand function `d_i(ω_i)` of Eq. (3) for
//! throughput sensitivities `β ∈ {0.1, 0.5, 1, 2, 5, 10}`.
//!
//! Paper observations encoded as shape checks:
//! * every curve is non-decreasing with `d(1) = 1`;
//! * larger β gives pointwise lower demand (stricter sensitivity);
//! * the paper's calibration sentence: *"when β = 5, the demand is halved
//!   with a 10% drop in throughput"*.

use crate::report::{ascii_plot, Config, FigureResult, Table};
use crate::shape::{non_decreasing, ShapeCheck};
use pubopt_demand::{Demand, DemandKind};

/// The β values plotted in the paper's Figure 2.
pub const BETAS: [f64; 6] = [0.1, 0.5, 1.0, 2.0, 5.0, 10.0];

/// Regenerate Figure 2.
pub fn run(config: &Config) -> FigureResult {
    let n = config.grid(400, 50);
    let omegas = pubopt_num::linspace_excl_zero(1.0, n);

    let mut headers = vec!["omega".to_string()];
    headers.extend(BETAS.iter().map(|b| format!("beta_{b}")));
    let mut table = Table::new(headers);
    for &w in &omegas {
        let mut row = vec![w];
        for &b in &BETAS {
            row.push(DemandKind::exponential(b).demand_at(w));
        }
        table.push(row);
    }
    let path = table.write_csv(&config.out_dir, "fig2_demand.csv");

    // Shape checks.
    let mut checks = Vec::new();
    let mut all_monotone = true;
    let mut all_reach_one = true;
    for &b in &BETAS {
        let col = table.column(&format!("beta_{b}"));
        all_monotone &= non_decreasing(&col, 1e-12);
        all_reach_one &= (col.last().unwrap() - 1.0).abs() < 1e-9;
    }
    checks.push(ShapeCheck::new(
        "fig2.monotone",
        "each demand curve is non-decreasing in ω with d(1)=1",
        all_monotone && all_reach_one,
        format!("checked {} curves on {} points", BETAS.len(), n),
    ));

    let mut ordered = true;
    for &w in &[0.3, 0.6, 0.9] {
        for pair in BETAS.windows(2) {
            let lo = DemandKind::exponential(pair[0]).demand_at(w);
            let hi = DemandKind::exponential(pair[1]).demand_at(w);
            ordered &= hi <= lo + 1e-12;
        }
    }
    checks.push(ShapeCheck::new(
        "fig2.beta-ordering",
        "larger β gives pointwise lower demand",
        ordered,
        "checked at ω ∈ {0.3, 0.6, 0.9}".to_string(),
    ));

    let half_at_90 = DemandKind::exponential(5.0).demand_at(0.9);
    checks.push(ShapeCheck::new(
        "fig2.beta5-halving",
        "β = 5 halves demand at a 10% throughput drop",
        (0.45..=0.65).contains(&half_at_90),
        format!("d(0.9) = {half_at_90:.4}"),
    ));

    let beta5 = table.column("beta_5");
    let summary = format!(
        "Figure 2: demand d(ω) for β ∈ {BETAS:?}\n{}",
        ascii_plot("d(ω), β = 5", &omegas, &beta5, 60, 12)
    );
    FigureResult::new("fig2", vec![path], summary, checks)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One output directory per test: the tests run in parallel, and one
    /// of them rewriting `fig2.csv` while the other reads it back hands
    /// the reader an empty file.
    fn cfg(test: &str) -> Config {
        Config {
            out_dir: std::env::temp_dir().join(format!("pubopt-fig2-{test}")),
            fast: true,
            threads: 1,
            ..Config::default()
        }
    }

    #[test]
    fn all_checks_pass() {
        let r = run(&cfg("checks"));
        assert!(r.all_passed(), "{:#?}", r.checks);
        assert_eq!(r.id, "fig2");
        assert_eq!(r.files.len(), 1);
    }

    #[test]
    fn csv_has_expected_columns() {
        let r = run(&cfg("columns"));
        let content = std::fs::read_to_string(&r.files[0]).unwrap();
        let header = content.lines().next().unwrap();
        assert!(header.contains("beta_0.1") && header.contains("beta_10"));
    }
}
