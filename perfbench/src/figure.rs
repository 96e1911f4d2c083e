//! `figure-grid`: the paper-reproduction user. Figure 5's monopoly grid
//! (9 strategies x 100 ν on the 1000-CP ensemble) then Figure 7's
//! duopoly grid, regenerated with warm-started sweeps on `pubopt-sched`
//! and no HTTP.

use crate::common::{layers_from_effort, layers_from_spans, per_layer, share_note, Ctx, Outcome};
use crate::daemon::{self_cpu_s, self_peak_rss_mb};
use crate::replay::{effort_delta, Effort};
use crate::report::{Metrics, END_TO_END};
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use pubopt_core::{competitive_equilibrium_warm, GameWarmStart, IspStrategy};
use pubopt_eq::SweepCache;
use pubopt_experiments::fig5::{CS, KAPPAS};
use pubopt_experiments::{
    resilient_sweep_chunked, run_figure, Config, FigureResult, FigureStatus, SWEEP_CHUNK,
};
use pubopt_num::Tolerance;
use pubopt_workload::{Scenario, ScenarioKind};
use std::io;
use std::sync::{Barrier, Mutex};
use std::time::Instant;

/// Set-ups measured per run: a set-up is about half a millisecond here,
/// so many repetitions steady its median.
const SETUPS: usize = 101;
/// ν points per Figure 5 curve (the figure's full grid).
const FIG5_NUS: usize = 100;
/// Largest ν of Figure 5 (2x the ensemble's saturation point).
const FIG5_NU_MAX: f64 = 500.0;
/// Retries per faulted grid point, as the figure uses.
const MAX_RETRIES: u32 = 3;

fn config(ctx: &Ctx) -> Config {
    Config {
        out_dir: ctx.work_dir.join(format!("figure-grid-{}", ctx.seed)),
        fast: false,
        threads: ctx.nproc,
        chaos: None,
        scale: None,
    }
}

/// What a figure builds before its first grid point: the 1000-CP
/// ensemble, then `threads` freshly started sweep workers each filling
/// its sorted-prefix sweep cache, all at once. A set-up lasts until the
/// last worker is done, so which of the host's unequal cores a worker
/// lands on does not decide it. Timing the cache fills alone (tens of
/// microseconds) read up to twice as long in one process as in another.
/// Returns [`SETUPS`] set-up times, s.
fn setups(cfg: &Config) -> io::Result<Vec<f64>> {
    std::fs::create_dir_all(&cfg.out_dir)?;
    let one = || {
        let t0 = Instant::now();
        let pop = Scenario::load(ScenarioKind::PaperEnsemble).pop;
        let barrier = Barrier::new(cfg.threads);
        let fill = || {
            barrier.wait();
            std::hint::black_box(SweepCache::new(&pop));
        };
        std::thread::scope(|s| {
            let others: Vec<_> = (1..cfg.threads).map(|_| s.spawn(fill)).collect();
            fill();
            for h in others {
                h.join().expect("set-up thread panicked");
            }
        });
        t0.elapsed().as_secs_f64()
    };
    Ok((0..SETUPS).map(|_| one()).collect())
}

/// Grid points a figure produced: data rows of its CSVs.
fn points(r: &FigureResult) -> io::Result<u64> {
    let mut rows = 0;
    for f in &r.files {
        rows += std::fs::read_to_string(f)?
            .lines()
            .count()
            .saturating_sub(1) as u64;
    }
    Ok(rows)
}

fn verdict(r: &FigureResult, problems: &mut Vec<String>) -> u64 {
    let failed_checks: Vec<&str> = r
        .checks
        .iter()
        .filter(|c| !c.passed)
        .map(|c| c.name.as_str())
        .collect();
    if !failed_checks.is_empty() || r.status != FigureStatus::Ok {
        problems.push(format!(
            "{}: status {}, failed checks {failed_checks:?}",
            r.id,
            r.status.label()
        ));
    }
    (r.failed_points + failed_checks.len()) as u64
}

/// One timed figure: `(result, wall s)`.
fn timed_figure(id: &str, cfg: &Config) -> (FigureResult, f64) {
    let t0 = Instant::now();
    let r = run_figure(id, cfg);
    (r, t0.elapsed().as_secs_f64())
}

/// `--trace 0`: the end-to-end metrics.
pub fn run(ctx: &Ctx) -> io::Result<Outcome> {
    let cfg = config(ctx);
    let setup_s = setups(&cfg)?;
    let cpu0 = self_cpu_s()?;
    let (r5, s5) = timed_figure("fig5", &cfg);
    let (r7, s7) = timed_figure("fig7", &cfg);
    let cpu_s = self_cpu_s()? - cpu0;
    let mut problems = Vec::new();
    let failed = verdict(&r5, &mut problems) + verdict(&r7, &mut problems);
    let (p5, p7) = (points(&r5)?, points(&r7)?);
    let attempted = p5 + p7 + (r5.failed_points + r7.failed_points) as u64;
    std::fs::remove_dir_all(&cfg.out_dir)?;

    let ok = attempted - failed.min(attempted);
    let mut m = Metrics::new(&END_TO_END);
    m.set_stat("setup_s", median(&setup_s), setup_s.len());
    m.set_stat("goodput_per_s", ok as f64 / (s5 + s7), ok as usize);
    // Latency here is the wait for each figure; the median of the two
    // is Figure 7's.
    let mut figs = [s5 * 1e3, s7 * 1e3];
    figs.sort_by(f64::total_cmp);
    m.set_stat("latency_p50_ms", percentile(&figs, 50.0), 2);
    m.set_ratio("cpu_ms_per_op", cpu_s * 1e3, ok as f64);
    m.set("peak_rss_mb", self_peak_rss_mb()?);
    Ok(Outcome {
        metrics: m,
        attempted,
        failed,
        problems,
        notes: vec![format!(
            "fig5 {s5:.3} s ({p5} points), fig7 {s7:.3} s ({p7} points), {} worker threads",
            cfg.threads
        )],
        gen_threads: cfg.threads,
        gen_connections: 0,
        daemon_flags: Vec::new(),
        spans: Vec::new(),
    })
}

/// `--trace 1`: Figure 5 through `run_figure` untraced, then its grid
/// re-driven through `resilient_sweep_chunked` with a span per sweep and
/// per game point.
pub fn run_traced(ctx: &Ctx) -> io::Result<Outcome> {
    let cfg = config(ctx);
    std::fs::create_dir_all(&cfg.out_dir)?;
    let (r5, s5) = timed_figure("fig5", &cfg);
    let mut problems = Vec::new();
    let failed = verdict(&r5, &mut problems);
    let base_points = points(&r5)?;
    std::fs::remove_dir_all(&cfg.out_dir)?;

    let t = Tracer::default();
    let pop = t.span("workload.population_build", None, 0, |_| {
        Scenario::load(ScenarioKind::PaperEnsemble).pop
    });
    let nus = pubopt_num::linspace_excl_zero(FIG5_NU_MAX, FIG5_NUS);
    let effort = Mutex::new(Effort::default());
    let mut sweep_wall_ns = 0u64;
    let mut lost = 0u64;
    let t0 = Instant::now();
    for (si, &kappa) in KAPPAS.iter().enumerate() {
        for (sj, &c) in CS.iter().enumerate() {
            let curve = (si * CS.len() + sj) as u64;
            let strategy = IspStrategy::new(kappa, c);
            let start = t.now_ns();
            let (rows, stats) = t.span("sched.sweep", None, curve << 32, |sweep| {
                resilient_sweep_chunked(
                    &nus,
                    cfg.threads,
                    MAX_RETRIES,
                    SWEEP_CHUNK,
                    GameWarmStart::new,
                    |warm, &nu, i, _attempt| {
                        let before = warm.effort();
                        let sol = t.span(
                            "core.game_point",
                            Some(sweep),
                            curve << 32 | i as u64,
                            |_| {
                                competitive_equilibrium_warm(
                                    &pop,
                                    nu,
                                    strategy,
                                    Tolerance::COARSE,
                                    warm,
                                )
                            },
                        );
                        let delta = effort_delta(warm.effort(), before);
                        let mut e = effort.lock().expect("effort totals poisoned");
                        e.game.merge(&delta);
                        e.game_points += 1;
                        drop(e);
                        let psi = sol.outcome.isp_surplus(&pop);
                        let phi = sol.outcome.consumer_surplus(&pop);
                        if psi.is_finite() && phi.is_finite() {
                            Ok((psi, phi))
                        } else {
                            Err(format!("non-finite surplus at ν={nu}"))
                        }
                    },
                )
            });
            sweep_wall_ns += t.now_ns() - start;
            lost += stats.failed as u64;
            std::hint::black_box(rows);
        }
    }
    let traced_s = t0.elapsed().as_secs_f64();
    if lost > 0 {
        problems.push(format!("{lost} re-driven grid points failed"));
    }

    let spans = t.spans();
    let mut m = per_layer();
    layers_from_spans(&mut m, &spans);
    layers_from_effort(
        &mut m,
        &effort.into_inner().expect("effort totals poisoned"),
    );
    let busy_ns: u64 = spans
        .iter()
        .filter(|s| s.name == "core.game_point")
        .map(|s| s.dur_ns())
        .sum();
    let capacity_ns = sweep_wall_ns as f64 * cfg.threads as f64;
    m.set_ratio("sched.busy_frac", busy_ns as f64, capacity_ns);
    m.set("sched.idle_ms", (capacity_ns - busy_ns as f64) / 1e6);
    let redriven = (KAPPAS.len() * CS.len() * FIG5_NUS) as u64 - lost;
    let g0 = base_points as f64 / s5;
    let g1 = redriven as f64 / traced_s;
    let pct = |worse: f64, base: f64| 100.0 * worse / base;
    m.set("trace.goodput_overhead_pct", pct(g0 - g1, g0));
    m.set("trace.latency_p50_overhead_pct", pct(traced_s - s5, s5));
    Ok(Outcome {
        metrics: m,
        attempted: base_points + r5.failed_points as u64 + redriven + lost,
        failed: failed + lost,
        problems,
        notes: vec![
            format!(
                "tracing overhead: Figure 5 grid {s5:.3} s untraced -> {traced_s:.3} s traced ({:+.2}%), goodput {g0:.4} -> {g1:.4} points/s",
                pct(traced_s - s5, s5)
            ),
            share_note(&spans),
        ],
        gen_threads: cfg.threads,
        gen_connections: 0,
        daemon_flags: Vec::new(),
        spans,
    })
}
