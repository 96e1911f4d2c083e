//! # pubopt-experiments — the figure-reproduction harness
//!
//! One module per figure of Ma & Misra (CoNEXT 2011). Each module exposes
//! a `run(&Config) -> FigureResult` that regenerates the figure's data,
//! writes it as CSV under the output directory, renders a quick ASCII
//! plot, and evaluates the figure's **shape checks** — the qualitative
//! claims the paper makes about the curve (orderings, regimes,
//! crossovers). Absolute values cannot be compared (the paper's RNG seed
//! is unpublished); the shape checks are the reproduction criteria, and
//! `EXPERIMENTS.md` records their outcomes.
//!
//! | Module | Paper figure | Claim reproduced |
//! |--------|--------------|------------------|
//! | [`fig2`] | Fig. 2 | demand vs ω for β ∈ {0.1 … 10} |
//! | [`fig3`] | Fig. 3 | max-min rates/demands of the Google/Netflix/Skype trio |
//! | [`fig4`] | Fig. 4 | monopoly κ=1: Ψ, Φ vs price c |
//! | [`fig5`] | Fig. 5 | monopoly: Ψ, Φ vs ν under a (κ, c) grid |
//! | [`fig7`] | Fig. 7 | duopoly vs Public Option: m_I, Ψ_I, Φ vs c_I |
//! | [`fig8`] | Fig. 8 | duopoly: Ψ_I, Φ, m_I vs ν under a (κ, c) grid |
//! | [`fig9_12`] | Figs. 9–12 | appendix reruns with independent φ |
//! | [`theorems`] | §III–§IV | Theorem 4/5 + Lemma 4 numeric verdicts, regime ranking |
//! | [`discussion`] | §VI | Public Option capacity sizing (safety-net claim) |
//! | [`solvers`] | (methods) | cross-validation of the independent solver pairs |
//! | [`netsim_check`] | §II-D.2 | TCP-vs-max-min validation table |
//!
//! Sweeps are embarrassingly parallel and run on the persistent
//! `pubopt-sched` pool, each item writing its own result slot
//! ([`runner`]). [`serveload`] replays seeded mixed workloads against
//! the `pubopt-serve` daemon for the `loadgen` binary. The repository
//! benchmark lives in `perfbench/`, outside this crate.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod discussion;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig7;
pub mod fig8;
pub mod fig9_12;
pub mod netsim_check;
pub mod report;
pub mod resilience;
pub mod runner;
pub mod serveload;
pub mod shape;
pub mod solvers;
pub mod svg;
pub mod theorems;

pub use report::{ascii_plot, Config, FigureResult, FigureStatus, Table};
pub use resilience::{
    interpolate_gaps, resilient_sweep, resilient_sweep_chunked, SweepStats, SWEEP_CHUNK,
};
pub use runner::{parallel_chunk_map, parallel_map, parallel_try_map, TaskOutcome};
pub use serveload::{mixed_workload, replay, LoadOptions, LoadSummary};
pub use shape::ShapeCheck;
pub use svg::{render_chart, render_table, ChartConfig, Series};

/// Load `kind` honouring [`Config::scale`]: ensemble workloads are
/// regenerated at the requested CP count (same seed and parameter
/// distributions, `nu_max` rescaled by `n / 1000`), fixed workloads are
/// returned unchanged. Figures should pair this with
/// [`Config::nu_scale`] on any hard-coded capacity grid so the sweep
/// stays in the same congestion regime.
pub fn scaled_scenario(
    kind: pubopt_workload::ScenarioKind,
    config: &Config,
) -> pubopt_workload::Scenario {
    match config.scale {
        Some(n) => pubopt_workload::Scenario::load_scaled(kind, n),
        None => pubopt_workload::Scenario::load(kind),
    }
}

/// Discrete analogue of the paper's δ metric over an unordered sweep:
/// `max { m_a − m_b : Φ_a ≤ Φ_b }` across sweep-point pairs.
pub fn run_delta_on_sweep(shares: &[f64], phis: &[f64]) -> f64 {
    assert_eq!(shares.len(), phis.len());
    let mut best = 0.0f64;
    for a in 0..shares.len() {
        for b in 0..shares.len() {
            if phis[a] <= phis[b] {
                best = best.max(shares[a] - shares[b]);
            }
        }
    }
    best
}

/// Every figure id the `repro` binary knows how to regenerate.
pub const ALL_FIGURES: &[&str] = &[
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "theorems",
    "netsim",
    "discussion",
    "solvers",
];

/// Run one figure by id.
///
/// # Panics
///
/// Panics on an unknown id (the binary validates ids first).
pub fn run_figure(id: &str, config: &Config) -> FigureResult {
    match id {
        "fig2" => fig2::run(config),
        "fig3" => fig3::run(config),
        "fig4" => fig4::run(config),
        "fig5" => fig5::run(config),
        "fig7" => fig7::run(config),
        "fig8" => fig8::run(config),
        "fig9" => fig9_12::run_fig9(config),
        "fig10" => fig9_12::run_fig10(config),
        "fig11" => fig9_12::run_fig11(config),
        "fig12" => fig9_12::run_fig12(config),
        "theorems" => theorems::run(config),
        "netsim" => netsim_check::run(config),
        "discussion" => discussion::run(config),
        "solvers" => solvers::run(config),
        other => panic!("unknown figure id: {other}"),
    }
}
