//! Dependency-free benchmark harness.
//!
//! Times the per-figure computational kernels with nothing outside the
//! workspace, so it works where crates.io is unreachable (CI, sealed
//! build environments):
//!
//! ```text
//! cargo run --release -p pubopt-experiments --bin bench
//! ```
//!
//! Per kernel it reports median/p10/p90 wall nanoseconds over a fixed
//! sample count (nearest-rank quantiles — no interpolation, no outlier
//! modelling; this is a regression tripwire, not a microarchitecture
//! study). The report also carries deterministic solver-effort stats
//! (via [`pubopt_eq::solve_maxmin_traced`], which works with
//! instrumentation compiled out) and a thread-scaling curve for
//! [`crate::parallel_map`] at 1/2/4/8 workers, including the
//! many-tiny-tasks contention shape the disjoint-slot runner design
//! exists for.

use crate::parallel_map;
use crate::serveload::{
    connection_bench, fault_bench, serving_bench, whatif_bench, ServingBench, ServingConnections,
    ServingFaults, WhatifBench,
};
use crate::shardload::{sharded_solve_bench, ShardedSolveBench};
use pubopt_alloc::{MaxMinFair, SortedDemands};
use pubopt_core::{
    competitive_equilibrium, competitive_equilibrium_warm, duopoly_with_public_option,
    duopoly_with_public_option_warm, GameWarmStart, IspStrategy, MarketWarmStart,
};
use pubopt_demand::{Demand, DemandKind, Population};
use pubopt_eq::{solve_maxmin, solve_maxmin_traced, SolveStats, SweepEffort};
use pubopt_netsim::{compare_report_to_maxmin, FlowGroup, ScaledSim, SimConfig};
use pubopt_num::Tolerance;
use pubopt_obs::json::Value;
use pubopt_workload::{EnsembleConfig, PhiDistribution, Scenario, ScenarioKind};
use std::hint::black_box;
use std::time::Instant;

/// Harness options.
#[derive(Debug, Clone, Copy, Default)]
pub struct BenchOptions {
    /// Shrink workloads (60-CP ensembles, seconds-long netsim epochs cut
    /// to a fraction) and sample counts so the whole suite runs in well
    /// under a second — used by tests and `bench --quick`.
    pub quick: bool,
}

/// Timing summary for one kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelResult {
    /// Kernel id (`<group>/<kernel>`; see [`KERNEL_NAMES`]).
    pub name: String,
    /// Number of timed samples.
    pub samples: usize,
    /// Nearest-rank median over the samples, nanoseconds.
    pub median_ns: u64,
    /// Nearest-rank 10th percentile, nanoseconds.
    pub p10_ns: u64,
    /// Nearest-rank 90th percentile, nanoseconds.
    pub p90_ns: u64,
    /// Arithmetic mean, nanoseconds.
    pub mean_ns: u64,
}

/// One point of the `parallel_map` thread-scaling curve.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalePoint {
    /// Worker-thread count.
    pub workers: usize,
    /// Median wall nanoseconds for the fixed workload at this count.
    pub median_ns: u64,
    /// Speedup relative to the 1-worker run of the same workload.
    pub speedup: f64,
    /// Parallel efficiency: `speedup / workers` (1.0 = perfect linear
    /// scaling; bounded by `cores / workers` on a machine with fewer
    /// cores than workers).
    pub efficiency: f64,
}

/// One size point of the sorted-prefix kernel vs reference scaling sweep
/// (ISSUE 3 acceptance: ≥ 10× at 100k CPs).
#[derive(Debug, Clone, PartialEq)]
pub struct AllocScalePoint {
    /// Population size.
    pub n_cps: usize,
    /// Water-level queries per timed batch.
    pub queries: usize,
    /// Median ns for the batch on a prebuilt [`SortedDemands`]
    /// (`O(log n)` per query).
    pub fast_ns: u64,
    /// Median ns for the same batch through
    /// [`MaxMinFair::water_level`] (full scan per query).
    pub reference_ns: u64,
    /// `reference_ns / fast_ns`.
    pub speedup: f64,
    /// Worst water-level disagreement across the batch (exactness check,
    /// computed outside the timed region).
    pub max_abs_diff: f64,
}

/// One size point of the scalar-vs-columnar demand-evaluation throughput
/// sweep (ISSUE 8 acceptance: the columnar batch kernel sustains ≥ 2× the
/// scalar per-CP loop's CP-evaluations/sec at 1M CPs).
#[derive(Debug, Clone, PartialEq)]
pub struct DemandEvalPoint {
    /// Population size (mixed across all six demand families).
    pub n_cps: usize,
    /// Demand evaluations per timed batch (= `n_cps`; one full pass).
    pub evals: usize,
    /// Median ns for the scalar per-CP loop
    /// (`cp.demand.demand(θ_i, θ̂_i)` over `pop.iter()`).
    pub scalar_ns: u64,
    /// Median ns for [`pubopt_demand::ColumnarPopulation::eval_demands_into`]
    /// over the same profile (SoA columns, family-partitioned ranges).
    pub columnar_ns: u64,
    /// Scalar throughput, CP evaluations per second.
    pub scalar_cps_per_sec: f64,
    /// Columnar throughput, CP evaluations per second.
    pub columnar_cps_per_sec: f64,
    /// `scalar_ns / columnar_ns`.
    pub speedup: f64,
    /// Worst |scalar − columnar| across the batch, computed outside the
    /// timed region. The columnar kernel replays the scalar arithmetic
    /// bit-for-bit, so this must be exactly 0.
    pub max_abs_diff: f64,
}

/// Warm-vs-cold A/B of the Figure-5 equilibrium sweep (ISSUE 3
/// acceptance: the warm-started sweep spends ≥ 3× fewer solver
/// iterations — measured as breakpoint-segment probes, the
/// `num.warmstart.segment_probes` counter — at identical outputs).
///
/// The warm arm is the sweep as Figure 5 runs it: one [`GameWarmStart`]
/// carried along the ν grid, segment hints reused across the hundreds of
/// best-response water solves each point performs. The cold arm is the
/// pre-warm-start baseline ([`GameWarmStart::without_hints`], fresh per
/// point): every water solve pays the full binary segment search.
#[derive(Debug, Clone, PartialEq)]
pub struct WarmstartAb {
    /// Population size.
    pub n_cps: usize,
    /// ν-grid points swept.
    pub grid_points: usize,
    /// Whether every grid point produced the identical partition and
    /// bit-identical surpluses under both arms.
    pub identical: bool,
    /// Accumulated water-solver effort of the cold baseline.
    pub cold: SweepEffort,
    /// Accumulated water-solver effort of the warm-started sweep.
    pub warm: SweepEffort,
    /// `cold.segment_probes / warm.segment_probes`.
    pub probe_ratio: f64,
    /// `cold.lambda_evals / warm.lambda_evals`.
    pub eval_ratio: f64,
}

/// One event-driven throughput point of the netsim flow-scaling table
/// (the flows/sec curve), run on [`ScaledSim`] with one worker.
#[derive(Debug, Clone, PartialEq)]
pub struct NetsimScalePoint {
    /// Total modelled flows across all groups.
    pub flows: usize,
    /// Flow groups (one per CP) before class aggregation.
    pub groups: usize,
    /// Distinct quantized base RTTs across the groups.
    pub rtt_classes: usize,
    /// Aggregate `(RTT, cap)` classes the groups collapsed into.
    pub classes: usize,
    /// Median wall nanoseconds for one full event-driven run.
    pub event_ns: u64,
    /// Modelled flows per wall-clock second (`flows / event seconds`).
    pub flows_per_sec: f64,
    /// Class AIMD updates the run executed.
    pub updates: u64,
    /// Mean relative error vs the max-min prediction. Informational for
    /// RTT-heterogeneous points: AIMD rates scale like `1/RTT`, so only
    /// matched-RTT populations are expected inside the §II-D tolerance.
    pub divergence: f64,
}

/// The calendar-queue simulator at scale: the 100k-flow, 60-sim-second
/// matched-RTT flagship run, the flow-scaling table, and the 1/2/4/8-worker
/// bit-identity probe. (Its head-to-head against the fixed-dt integrator
/// is a `pubopt-netsim` test, next to that test oracle.)
#[derive(Debug, Clone, PartialEq)]
pub struct NetsimScaling {
    /// Simulated duration per run (warmup + measurement), seconds.
    pub sim_seconds: f64,
    /// Total flows in the flagship population.
    pub flows: usize,
    /// Flow groups in the flagship population.
    pub groups: usize,
    /// Aggregate classes the event path collapses the groups into.
    pub classes: usize,
    /// Median wall nanoseconds for one event-driven [`ScaledSim`] run.
    pub event_ns: u64,
    /// Mean divergence of the run from the max-min prediction.
    pub event_divergence: f64,
    /// Class AIMD updates the event-driven run executes.
    pub event_updates: u64,
    /// Event-driven flow-scaling table (10k → 1M flows in the full run).
    pub points: Vec<NetsimScalePoint>,
    /// Whether traces and per-group reports are bit-identical across
    /// 1/2/4/8 workers on an RTT-heterogeneous population.
    pub byte_identical: bool,
}

/// Deterministic solver-effort statistics included in the report.
#[derive(Debug, Clone, PartialEq)]
pub struct SolverEffort {
    /// Case id, e.g. `trio_nu2`.
    pub case: String,
    /// Stats from [`solve_maxmin_traced`].
    pub stats: SolveStats,
}

/// Everything the bench binary writes into `BENCH_<date>.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// UTC date the report was generated (`YYYY-MM-DD`).
    pub date: String,
    /// Whether quick mode was active.
    pub quick: bool,
    /// Per-kernel timings, in execution order.
    pub kernels: Vec<KernelResult>,
    /// Deterministic solver iteration counts.
    pub solver: Vec<SolverEffort>,
    /// `parallel_map` scaling at 1/2/4/8 workers.
    pub scaling: Vec<ScalePoint>,
    /// Sorted-prefix kernel vs reference allocator scaling (1k → 1M CPs;
    /// quick mode stops at 10k).
    pub alloc_scaling: Vec<AllocScalePoint>,
    /// Scalar-vs-columnar demand-kernel throughput (100k and 1M CPs;
    /// quick mode runs a single 10k point).
    pub demand_eval: Vec<DemandEvalPoint>,
    /// Warm-vs-cold kernel A/B on the Figure-5 ν grid.
    pub warmstart: WarmstartAb,
    /// Warm-vs-baseline A/B of the duopoly market solver on the Figure-8
    /// ν grid (one [`pubopt_core::MarketWarmStart`] carried across the
    /// grid vs. the no-hint per-evaluation baseline).
    pub duopoly_warmstart: WarmstartAb,
    /// Cold-vs-warm daemon A/B on the seeded serving workload (the
    /// `pubopt-serve` cache acceptance numbers).
    pub serving: ServingBench,
    /// Connection-layer A/Bs (close vs keep-alive vs pipelined vs
    /// batched, plus open-loop percentiles) on a cache-prewarmed
    /// workload — the event-driven front end's acceptance numbers.
    pub serving_connections: ServingConnections,
    /// Availability / goodput / tail latency under a deterministic
    /// fault-rate grid (chaos proxy + resilient clients) — the
    /// hostile-network hardening acceptance numbers.
    pub serving_faults: ServingFaults,
    /// Sharded water-filling scaling: in-process partitioned-kernel
    /// points at 1M–10M CPs plus an end-to-end loopback cluster, every
    /// point byte-identity-checked against the single-process solver.
    pub sharded_solve: ShardedSolveBench,
    /// Calendar-queue event simulator: the 100k-flow flagship run plus
    /// the flow-scaling table.
    pub netsim_scaling: NetsimScaling,
    /// End-to-end `/v1/whatif` co-simulation: cold vs cached timing plus
    /// the cross-daemon worker-count byte-identity probe.
    pub whatif: WhatifBench,
}

impl BenchReport {
    /// Serialise the report (compact JSON, schema `pubopt-bench/v10`).
    pub fn to_json(&self) -> String {
        let kernels = self
            .kernels
            .iter()
            .map(|k| {
                Value::Object(vec![
                    ("name".into(), Value::from(k.name.as_str())),
                    ("samples".into(), Value::from(k.samples)),
                    ("median_ns".into(), Value::from(k.median_ns)),
                    ("p10_ns".into(), Value::from(k.p10_ns)),
                    ("p90_ns".into(), Value::from(k.p90_ns)),
                    ("mean_ns".into(), Value::from(k.mean_ns)),
                ])
            })
            .collect();
        let solver = self
            .solver
            .iter()
            .map(|s| {
                (
                    s.case.clone(),
                    Value::Object(vec![
                        ("lambda_evals".into(), Value::from(s.stats.lambda_evals)),
                        (
                            "bisect_iters".into(),
                            Value::from(u64::from(s.stats.bisect_iters)),
                        ),
                        ("congested".into(), Value::from(s.stats.congested)),
                    ]),
                )
            })
            .collect();
        let scaling = self
            .scaling
            .iter()
            .map(|p| {
                Value::Object(vec![
                    ("workers".into(), Value::from(p.workers)),
                    ("median_ns".into(), Value::from(p.median_ns)),
                    ("speedup".into(), Value::from(p.speedup)),
                    ("efficiency".into(), Value::from(p.efficiency)),
                ])
            })
            .collect();
        let alloc_scaling = self
            .alloc_scaling
            .iter()
            .map(|p| {
                Value::Object(vec![
                    ("n_cps".into(), Value::from(p.n_cps)),
                    ("queries".into(), Value::from(p.queries)),
                    ("fast_ns".into(), Value::from(p.fast_ns)),
                    ("reference_ns".into(), Value::from(p.reference_ns)),
                    ("speedup".into(), Value::from(p.speedup)),
                    ("max_abs_diff".into(), Value::from(p.max_abs_diff)),
                ])
            })
            .collect();
        let demand_eval = self
            .demand_eval
            .iter()
            .map(|p| {
                Value::Object(vec![
                    ("n_cps".into(), Value::from(p.n_cps)),
                    ("evals".into(), Value::from(p.evals)),
                    ("scalar_ns".into(), Value::from(p.scalar_ns)),
                    ("columnar_ns".into(), Value::from(p.columnar_ns)),
                    (
                        "scalar_cps_per_sec".into(),
                        Value::from(p.scalar_cps_per_sec),
                    ),
                    (
                        "columnar_cps_per_sec".into(),
                        Value::from(p.columnar_cps_per_sec),
                    ),
                    ("speedup".into(), Value::from(p.speedup)),
                    ("max_abs_diff".into(), Value::from(p.max_abs_diff)),
                ])
            })
            .collect();
        let effort_json = |e: &SweepEffort| {
            Value::Object(vec![
                ("solves".into(), Value::from(e.solves)),
                ("warm_solves".into(), Value::from(e.warm_solves)),
                ("warm_hits".into(), Value::from(e.warm_hits)),
                ("lambda_evals".into(), Value::from(e.lambda_evals)),
                ("segment_probes".into(), Value::from(e.segment_probes)),
                ("bisect_iters".into(), Value::from(e.bisect_iters)),
            ])
        };
        let ab_json = |ab: &WarmstartAb| {
            Value::Object(vec![
                ("n_cps".into(), Value::from(ab.n_cps)),
                ("grid_points".into(), Value::from(ab.grid_points)),
                ("identical".into(), Value::from(ab.identical)),
                ("cold".into(), effort_json(&ab.cold)),
                ("warm".into(), effort_json(&ab.warm)),
                ("probe_ratio".into(), Value::from(ab.probe_ratio)),
                ("eval_ratio".into(), Value::from(ab.eval_ratio)),
            ])
        };
        let warmstart = ab_json(&self.warmstart);
        let duopoly_warmstart = ab_json(&self.duopoly_warmstart);
        let serving = Value::Object(vec![
            ("distinct".into(), Value::from(self.serving.distinct)),
            ("repeats".into(), Value::from(self.serving.repeats)),
            ("cold_rps".into(), Value::from(self.serving.cold_rps)),
            ("warm_rps".into(), Value::from(self.serving.warm_rps)),
            ("speedup".into(), Value::from(self.serving.speedup)),
            ("hit_rate".into(), Value::from(self.serving.hit_rate)),
            ("warm_p50_us".into(), Value::from(self.serving.warm_p50_us)),
            ("warm_p99_us".into(), Value::from(self.serving.warm_p99_us)),
            (
                "byte_identical".into(),
                Value::from(self.serving.byte_identical),
            ),
        ]);
        let sc = &self.serving_connections;
        let serving_connections = Value::Object(vec![
            ("requests".into(), Value::from(sc.requests)),
            ("close_rps".into(), Value::from(sc.close_rps)),
            ("reuse_rps".into(), Value::from(sc.reuse_rps)),
            ("reuse_speedup".into(), Value::from(sc.reuse_speedup)),
            ("pipeline_rps".into(), Value::from(sc.pipeline_rps)),
            ("pipeline_depth".into(), Value::from(sc.pipeline_depth)),
            ("batch_size".into(), Value::from(sc.batch_size)),
            ("batch_rps".into(), Value::from(sc.batch_rps)),
            ("batch_speedup".into(), Value::from(sc.batch_speedup)),
            (
                "open_loop_rate_rps".into(),
                Value::from(sc.open_loop_rate_rps),
            ),
            ("open_loop_p50_us".into(), Value::from(sc.open_loop_p50_us)),
            ("open_loop_p95_us".into(), Value::from(sc.open_loop_p95_us)),
            ("open_loop_p99_us".into(), Value::from(sc.open_loop_p99_us)),
            ("byte_identical".into(), Value::from(sc.byte_identical)),
        ]);
        let sf = &self.serving_faults;
        let drills = sf
            .drills
            .iter()
            .map(|d| {
                Value::Object(vec![
                    ("fault_rate".into(), Value::from(d.fault_rate)),
                    ("availability".into(), Value::from(d.availability)),
                    ("goodput_rps".into(), Value::from(d.goodput_rps)),
                    ("p50_us".into(), Value::from(d.p50_us)),
                    ("p99_us".into(), Value::from(d.p99_us)),
                    ("hard_failures".into(), Value::from(d.hard_failures)),
                    ("retries".into(), Value::from(d.retries)),
                    ("faults_injected".into(), Value::from(d.faults_injected)),
                    ("refusals".into(), Value::from(d.refusals)),
                    ("breaker_opens".into(), Value::from(d.breaker_opens)),
                    ("breaker_closes".into(), Value::from(d.breaker_closes)),
                    (
                        "schedule_digest".into(),
                        Value::from(format!("{:016x}", d.schedule_digest)),
                    ),
                    ("byte_identical".into(), Value::from(d.byte_identical)),
                ])
            })
            .collect();
        let serving_faults = Value::Object(vec![
            ("requests".into(), Value::from(sf.requests)),
            ("seed".into(), Value::from(sf.seed)),
            ("drills".into(), Value::Array(drills)),
            ("byte_identical".into(), Value::from(sf.byte_identical)),
        ]);
        let ss = &self.sharded_solve;
        let kernel = ss
            .kernel
            .iter()
            .map(|p| {
                Value::Object(vec![
                    ("n_cps".into(), Value::from(p.n_cps)),
                    ("shards".into(), Value::from(p.shards)),
                    ("solve_ns".into(), Value::from(p.solve_ns)),
                    ("single_ns".into(), Value::from(p.single_ns)),
                    ("relative".into(), Value::from(p.relative)),
                    ("lambda_evals".into(), Value::from(p.lambda_evals)),
                    ("bisect_iters".into(), Value::from(p.bisect_iters)),
                    ("byte_identical".into(), Value::from(p.byte_identical)),
                ])
            })
            .collect();
        let cluster = ss
            .cluster
            .iter()
            .map(|p| {
                Value::Object(vec![
                    ("n_cps".into(), Value::from(p.n_cps)),
                    ("shards".into(), Value::from(p.shards)),
                    ("solve_ns".into(), Value::from(p.solve_ns)),
                    ("shard_rpcs".into(), Value::from(p.shard_rpcs)),
                    ("byte_identical".into(), Value::from(p.byte_identical)),
                ])
            })
            .collect();
        let sharded_solve = Value::Object(vec![
            ("nu_per_cp".into(), Value::from(ss.nu_per_cp)),
            ("kernel".into(), Value::Array(kernel)),
            ("cluster".into(), Value::Array(cluster)),
            ("byte_identical".into(), Value::from(ss.byte_identical)),
        ]);
        let ns = &self.netsim_scaling;
        let netsim_points = ns
            .points
            .iter()
            .map(|p| {
                Value::Object(vec![
                    ("flows".into(), Value::from(p.flows)),
                    ("groups".into(), Value::from(p.groups)),
                    ("rtt_classes".into(), Value::from(p.rtt_classes)),
                    ("classes".into(), Value::from(p.classes)),
                    ("event_ns".into(), Value::from(p.event_ns)),
                    ("flows_per_sec".into(), Value::from(p.flows_per_sec)),
                    ("updates".into(), Value::from(p.updates)),
                    ("divergence".into(), Value::from(p.divergence)),
                ])
            })
            .collect();
        let netsim_scaling = Value::Object(vec![
            ("sim_seconds".into(), Value::from(ns.sim_seconds)),
            ("flows".into(), Value::from(ns.flows)),
            ("groups".into(), Value::from(ns.groups)),
            ("classes".into(), Value::from(ns.classes)),
            ("event_ns".into(), Value::from(ns.event_ns)),
            ("event_divergence".into(), Value::from(ns.event_divergence)),
            ("event_updates".into(), Value::from(ns.event_updates)),
            ("points".into(), Value::Array(netsim_points)),
            ("byte_identical".into(), Value::from(ns.byte_identical)),
        ]);
        let wi = &self.whatif;
        let whatif = Value::Object(vec![
            ("flows".into(), Value::from(wi.flows)),
            ("cold_us".into(), Value::from(wi.cold_us)),
            ("warm_us".into(), Value::from(wi.warm_us)),
            ("cache_speedup".into(), Value::from(wi.cache_speedup)),
            ("divergence".into(), Value::from(wi.divergence)),
            ("byte_identical".into(), Value::from(wi.byte_identical)),
        ]);
        Value::Object(vec![
            ("schema".into(), Value::from("pubopt-bench/v10")),
            ("date".into(), Value::from(self.date.as_str())),
            ("quick".into(), Value::from(self.quick)),
            ("kernels".into(), Value::Array(kernels)),
            ("solver".into(), Value::Object(solver)),
            ("parallel_map_scaling".into(), Value::Array(scaling)),
            ("alloc_scaling".into(), Value::Array(alloc_scaling)),
            ("demand_eval".into(), Value::Array(demand_eval)),
            ("warmstart_ab".into(), warmstart),
            ("duopoly_warmstart_ab".into(), duopoly_warmstart),
            ("serving".into(), serving),
            ("serving_connections".into(), serving_connections),
            ("serving_faults".into(), serving_faults),
            ("sharded_solve".into(), sharded_solve),
            ("netsim_scaling".into(), netsim_scaling),
            ("whatif".into(), whatif),
        ])
        .to_string()
    }
}

/// The kernel ids [`run`] produces, in order: one or more per figure,
/// plus the `runner/` executor kernels.
pub const KERNEL_NAMES: &[&str] = &[
    "fig2/demand_curve_6_betas_400_points",
    "fig3/trio_equilibrium_solve",
    "fig4/kappa1_point_1000cps",
    "fig5/grid_point_1000cps",
    "fig7/duopoly_point_kappa1_1000cps",
    "fig8/duopoly_point_grid_1000cps",
    "fig9_12/independent_phi_ensemble_generation",
    "fig9_12/kappa1_point_independent_phi",
    "netsim/scaled_sim_90flows_60s",
    "runner/parallel_map_contention_8threads",
];

fn quantile_ns(sorted: &[u64], q: f64) -> u64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn time_kernel(name: &str, samples: usize, mut f: impl FnMut()) -> KernelResult {
    f(); // warm-up: touch caches, fault in pages
    let mut ns: Vec<u64> = (0..samples)
        .map(|_| {
            let t = Instant::now();
            f();
            u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
        })
        .collect();
    ns.sort_unstable();
    let mean = ns.iter().sum::<u64>() / ns.len() as u64;
    KernelResult {
        name: name.to_owned(),
        samples,
        median_ns: quantile_ns(&ns, 0.5),
        p10_ns: quantile_ns(&ns, 0.1),
        p90_ns: quantile_ns(&ns, 0.9),
        mean_ns: mean,
    }
}

/// Time a congested water-level query batch on the sorted-prefix kernel
/// (prebuilt [`SortedDemands`], `O(log n)` per query) against the
/// reference full-scan [`MaxMinFair::water_level`] at one population
/// size, and verify the two agree outside the timed region.
fn alloc_scale_point(n_cps: usize, queries: usize, samples: usize) -> AllocScalePoint {
    let pop = EnsembleConfig {
        n: n_cps,
        ..EnsembleConfig::default()
    }
    .generate();
    let demands = vec![1.0; n_cps];
    let cache = SortedDemands::new(&pop);
    let offered = cache.offered_load();
    // All queries strictly congested, spread across the breakpoint range
    // so the binary search exercises every depth.
    let nus: Vec<f64> = (0..queries)
        .map(|j| offered * (j as f64 + 0.5) / queries as f64)
        .collect();
    let max_abs_diff = nus
        .iter()
        .map(|&nu| (cache.water_level(nu) - MaxMinFair::water_level(&pop, &demands, nu)).abs())
        .fold(0.0, f64::max);
    let fast = time_kernel("alloc/fast", samples, || {
        let mut acc = 0.0;
        for &nu in &nus {
            acc += cache.water_level(black_box(nu));
        }
        black_box(acc);
    });
    let reference = time_kernel("alloc/reference", samples, || {
        let mut acc = 0.0;
        for &nu in &nus {
            acc += MaxMinFair::water_level(&pop, &demands, black_box(nu));
        }
        black_box(acc);
    });
    AllocScalePoint {
        n_cps,
        queries,
        fast_ns: fast.median_ns,
        reference_ns: reference.median_ns,
        speedup: reference.median_ns.max(1) as f64 / fast.median_ns.max(1) as f64,
        max_abs_diff,
    }
}

/// A deterministic population drawing each CP's demand family at random
/// (seeded). The ensemble generator is exponential-only, which would let
/// the compiler specialise the scalar loop to one family; a fixed
/// rotation would instead make the scalar loop's per-element family
/// dispatch perfectly branch-predictable. A random draw is the realistic
/// mixed-population shape: the scalar AoS walk mispredicts its dispatch
/// on nearly every element, which is exactly the cost the family
/// partition removes (the columnar path is order-insensitive).
fn mixed_family_population(n: usize) -> Population {
    let mut rng = pubopt_num::Rng::seed_from_u64(0x5eed_caf3);
    (0..n)
        .map(|_| {
            let kind = match rng.below(6) {
                0 => DemandKind::exponential(rng.uniform(0.1, 10.0)),
                1 => DemandKind::constant_elasticity(rng.uniform(0.1, 4.0)),
                2 => DemandKind::smoothed_step(rng.uniform(0.2, 0.9), rng.uniform(0.05, 0.2)),
                3 => DemandKind::HardStep {
                    threshold: rng.uniform(0.1, 0.9),
                },
                4 => DemandKind::logistic(rng.uniform(2.0, 30.0), rng.uniform(0.2, 0.8)),
                _ => DemandKind::Constant,
            };
            pubopt_demand::ContentProvider::new(
                rng.uniform(0.01, 1.0),
                rng.uniform(0.1, 10.0),
                kind,
                0.5,
                rng.uniform(0.0, 2.0),
            )
        })
        .collect()
}

/// Time one full demand-evaluation pass over a mixed-family population:
/// the scalar per-CP loop (AoS walk, per-element family dispatch) against
/// [`pubopt_demand::ColumnarPopulation::eval_demands_into`] (SoA columns,
/// one branch-free inner loop per family range). The two sides are timed
/// in alternation — a scalar pass then a columnar pass per sample — so
/// slow drifts in effective machine speed (shared-core throttling) land
/// on both medians equally instead of skewing the ratio. Agreement is
/// checked outside the timed region and must be exact — the columnar
/// kernel replays the scalar arithmetic bit-for-bit.
fn demand_eval_point(n_cps: usize, samples: usize) -> DemandEvalPoint {
    let pop = mixed_family_population(n_cps);
    let mut rng = pubopt_num::Rng::seed_from_u64(0xd1ff_0001);
    let thetas: Vec<f64> = pop
        .iter()
        .map(|cp| cp.theta_hat * rng.uniform(0.0, 1.2))
        .collect();
    let cols = pop.columnar(); // built outside the timed region
    let mut scalar_out = vec![0.0; n_cps];
    let mut columnar_out = Vec::with_capacity(n_cps);
    let scalar_pass = |scalar_out: &mut Vec<f64>| {
        for (i, cp) in pop.iter().enumerate() {
            scalar_out[i] = cp.demand.demand(black_box(thetas[i]), cp.theta_hat);
        }
    };
    // Warm-up: touch caches, fault in pages on both sides.
    scalar_pass(&mut scalar_out);
    black_box(&mut scalar_out);
    cols.eval_demands_into(black_box(&thetas), &mut columnar_out);
    black_box(&mut columnar_out);
    let mut scalar_ns: Vec<u64> = Vec::with_capacity(samples);
    let mut columnar_ns: Vec<u64> = Vec::with_capacity(samples);
    for _ in 0..samples {
        let t = Instant::now();
        scalar_pass(&mut scalar_out);
        black_box(&mut scalar_out);
        scalar_ns.push(u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX));
        let t = Instant::now();
        cols.eval_demands_into(black_box(&thetas), &mut columnar_out);
        black_box(&mut columnar_out);
        columnar_ns.push(u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX));
    }
    scalar_ns.sort_unstable();
    columnar_ns.sort_unstable();
    let (scalar_med, columnar_med) = (quantile_ns(&scalar_ns, 0.5), quantile_ns(&columnar_ns, 0.5));
    let max_abs_diff = scalar_out
        .iter()
        .zip(&columnar_out)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, f64::max);
    let throughput = |ns: u64| n_cps as f64 * 1e9 / ns.max(1) as f64;
    DemandEvalPoint {
        n_cps,
        evals: n_cps,
        scalar_ns: scalar_med,
        columnar_ns: columnar_med,
        scalar_cps_per_sec: throughput(scalar_med),
        columnar_cps_per_sec: throughput(columnar_med),
        speedup: scalar_med.max(1) as f64 / columnar_med.max(1) as f64,
        max_abs_diff,
    }
}

/// Run the Figure-5 equilibrium sweep at one strategy twice — warm (one
/// [`GameWarmStart`] carried across the ν grid, as the fig5 chunks do)
/// and cold ([`GameWarmStart::without_hints`] rebuilt per point: every
/// water solve pays the full binary segment search, the pre-warm-start
/// baseline) — and compare outputs exactly. The effort gap is the warm
/// start's whole value: the `segment_probes` ratio is the
/// `num.warmstart.segment_probes` A/B of the ISSUE 3 acceptance
/// criterion, measured in-band so it also works with instrumentation
/// compiled out.
pub fn warmstart_ab(
    pop: &Population,
    nus: &[f64],
    strategy: IspStrategy,
    tol: Tolerance,
) -> WarmstartAb {
    let mut warm_state = GameWarmStart::new();
    let warm_outs: Vec<(pubopt_core::Partition, f64, f64)> = nus
        .iter()
        .map(|&nu| {
            let sol = competitive_equilibrium_warm(pop, nu, strategy, tol, &mut warm_state);
            let psi = sol.outcome.isp_surplus(pop);
            let phi = sol.outcome.consumer_surplus(pop);
            (sol.outcome.partition, psi, phi)
        })
        .collect();
    let warm = warm_state.effort();

    let mut cold = SweepEffort::default();
    let mut identical = true;
    for (i, &nu) in nus.iter().enumerate() {
        let mut cold_state = GameWarmStart::without_hints();
        let sol = competitive_equilibrium_warm(pop, nu, strategy, tol, &mut cold_state);
        cold.merge(&cold_state.effort());
        let (warm_partition, warm_psi, warm_phi) = &warm_outs[i];
        identical &= sol.outcome.partition == *warm_partition
            && sol.outcome.isp_surplus(pop).to_bits() == warm_psi.to_bits()
            && sol.outcome.consumer_surplus(pop).to_bits() == warm_phi.to_bits();
    }
    let ratio = |a: u64, b: u64| a as f64 / b.max(1) as f64;
    WarmstartAb {
        n_cps: pop.len(),
        grid_points: nus.len(),
        identical,
        probe_ratio: ratio(cold.segment_probes, warm.segment_probes),
        eval_ratio: ratio(cold.lambda_evals, warm.lambda_evals),
        cold,
        warm,
    }
}

/// The duopoly analogue of [`warmstart_ab`], on the Figure-8 workload:
/// sweep `duopoly_with_public_option` over a ν grid twice — warm (one
/// [`MarketWarmStart`] carried across the grid, as the fig7/fig8 chunks
/// do) and baseline ([`MarketWarmStart::without_hints`]: every one of the
/// dozens of partition solves behind each grid point pays the full cold
/// segment search) — and compare `(m_I, Ψ_I, Φ)` bit-for-bit. Each grid
/// point runs an entire market-share bisection, so the effort gap
/// compounds across far more inner solves than the monopoly A/B.
pub fn duopoly_warmstart_ab(
    pop: &Population,
    nus: &[f64],
    s_i: IspStrategy,
    gamma_i: f64,
    tol: Tolerance,
) -> WarmstartAb {
    let mut warm_state = MarketWarmStart::new();
    let warm_outs: Vec<(f64, f64, f64)> = nus
        .iter()
        .map(|&nu| {
            let out = duopoly_with_public_option_warm(pop, nu, s_i, gamma_i, tol, &mut warm_state);
            (out.share_i, out.psi_i, out.phi)
        })
        .collect();
    let warm = warm_state.effort();

    let mut base_state = MarketWarmStart::without_hints();
    let mut identical = true;
    for (i, &nu) in nus.iter().enumerate() {
        let out = duopoly_with_public_option_warm(pop, nu, s_i, gamma_i, tol, &mut base_state);
        let (w_share, w_psi, w_phi) = warm_outs[i];
        identical &= out.share_i.to_bits() == w_share.to_bits()
            && out.psi_i.to_bits() == w_psi.to_bits()
            && out.phi.to_bits() == w_phi.to_bits();
    }
    let cold = base_state.effort();
    let ratio = |a: u64, b: u64| a as f64 / b.max(1) as f64;
    WarmstartAb {
        n_cps: pop.len(),
        grid_points: nus.len(),
        identical,
        probe_ratio: ratio(cold.segment_probes, warm.segment_probes),
        eval_ratio: ratio(cold.lambda_evals, warm.lambda_evals),
        cold,
        warm,
    }
}

/// Register-only LCG spin: `rounds` steps of a 64-bit linear
/// congruential recurrence seeded by `x`. No memory traffic and a
/// loop-carried multiply dependency (so the loop cannot be vectorised or
/// folded away): parallel speedup on it is bounded only by core count
/// and executor overhead.
fn lcg_spin(x: u64, rounds: u32) -> u64 {
    let mut s = x.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    for _ in 0..rounds {
        s = s
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
    }
    s
}

/// A netsim population with quantized parameters: `flows` total flows
/// spread as evenly as possible over `groups` groups, base RTTs drawn
/// from `rtt_classes` multiples of 20 ms (matched at 80 ms when 1), and
/// per-flow caps rotating through four classes — two that bind under
/// water-filling at ≈ 1.2 units/flow, one just above the water level,
/// and one effectively uncapped. Quantization is the point: the event
/// simulator aggregates identical `(RTT, cap)` pairs, so the class
/// count is `rtt_classes × 4` however many groups the population has.
fn netsim_population(flows: usize, groups: usize, rtt_classes: usize) -> Vec<FlowGroup> {
    const CAPS: [f64; 4] = [0.6, 1.2, 2.0, 1e6];
    let base = flows / groups;
    let extra = flows % groups;
    (0..groups)
        .map(|i| {
            let rtt = if rtt_classes == 1 {
                0.08
            } else {
                0.02 * ((i % rtt_classes) + 1) as f64
            };
            let cap = CAPS[(i / rtt_classes) % CAPS.len()];
            let n = base + usize::from(i < extra);
            FlowGroup::new(format!("g{i}"), n, cap, rtt)
        })
        .collect()
}

/// The [`SimConfig`] every netsim-scaling run shares: capacity sized for
/// a ≈ 1.2 units/flow fair share (so two cap classes bind and two ride
/// the water level) and an explicit MSS pinned to the *per-flow*
/// bandwidth-delay product. The `mss: 0.0` auto-rule divides the whole
/// link into 256 segments, which at 100k flows would make one segment
/// hundreds of congestion windows wide; fixing it at an eighth of a
/// flow's BDP keeps the AIMD dynamics in the same well-resolved regime
/// at every population size.
fn netsim_scale_config(flows: usize, sim_seconds: f64, min_rtt: f64) -> SimConfig {
    let per_flow = 1.2;
    SimConfig {
        capacity: per_flow * flows as f64,
        mss: per_flow * min_rtt / 8.0,
        warmup: sim_seconds / 2.0,
        measure: sim_seconds / 2.0,
        ..SimConfig::default()
    }
}

/// Run the calendar-queue netsim scaling section: the flagship run on a
/// matched-RTT population (expected inside the max-min tolerance), the
/// flow-scaling table up to 1M flows, and the 1/2/4/8-worker
/// bit-identity probe on an RTT-heterogeneous population.
fn netsim_scaling_bench(quick: bool, samples: usize) -> NetsimScaling {
    // The flagship population: many groups, few classes — 2048 CPs
    // collapsing onto 4 cap classes at a matched RTT.
    let (flows, groups, sim_seconds) = if quick {
        (2_000, 256, 4.0)
    } else {
        (100_000, 2_048, 60.0)
    };
    let population = netsim_population(flows, groups, 1);
    let config = netsim_scale_config(flows, sim_seconds, 0.08);
    let capacity = config.capacity;

    let event = time_kernel("netsim/event", samples, || {
        let mut sim = ScaledSim::new(population.clone(), config.clone(), 1);
        black_box(sim.run());
    });

    // Convergence check, outside the timed region.
    let event_out = ScaledSim::new(population.clone(), config.clone(), 1).run();
    let event_divergence =
        compare_report_to_maxmin(&event_out.report, &population, capacity).mean_rel_error;

    // Flow-scaling table. The 1M-flow point spreads its RTTs
    // over 16 quantized classes: more lattice periods for the calendar,
    // same 64-class work term — that is the aggregation headline.
    let table: &[(usize, usize, usize)] = if quick {
        &[(2_000, 64, 1), (20_000, 128, 16)]
    } else {
        &[(10_000, 128, 1), (100_000, 512, 1), (1_000_000, 2_048, 16)]
    };
    let points = table
        .iter()
        .map(|&(flows, groups, rtt_classes)| {
            let pop = netsim_population(flows, groups, rtt_classes);
            let min_rtt = if rtt_classes == 1 { 0.08 } else { 0.02 };
            let cfg = netsim_scale_config(flows, sim_seconds, min_rtt);
            let point_capacity = cfg.capacity;
            let timed = time_kernel("netsim/event_point", samples, || {
                let mut sim = ScaledSim::new(pop.clone(), cfg.clone(), 1);
                black_box(sim.run());
            });
            let out = ScaledSim::new(pop.clone(), cfg.clone(), 1).run();
            NetsimScalePoint {
                flows,
                groups,
                rtt_classes,
                classes: out.classes,
                event_ns: timed.median_ns,
                flows_per_sec: flows as f64 * 1e9 / timed.median_ns.max(1) as f64,
                updates: out.updates,
                divergence: compare_report_to_maxmin(&out.report, &pop, point_capacity)
                    .mean_rel_error,
            }
        })
        .collect();

    // Worker bit-identity on an RTT-heterogeneous population (16 lattice
    // periods → mixed-class batches): trace and per-group report must
    // match the 1-worker run bit for bit at 2, 4, and 8 workers.
    let (bit_flows, bit_groups) = if quick { (2_000, 64) } else { (50_000, 256) };
    let bit_pop = netsim_population(bit_flows, bit_groups, 16);
    let bit_cfg = netsim_scale_config(bit_flows, sim_seconds, 0.02);
    let traced = |workers: usize| {
        let mut sim = ScaledSim::new(bit_pop.clone(), bit_cfg.clone(), workers);
        sim.run_traced(1.0)
    };
    let (base_out, base_trace) = traced(1);
    let byte_identical = [2usize, 4, 8].iter().all(|&w| {
        let (out, trace) = traced(w);
        trace == base_trace
            && out.report.per_flow_rate.len() == base_out.report.per_flow_rate.len()
            && out
                .report
                .per_flow_rate
                .iter()
                .zip(&base_out.report.per_flow_rate)
                .all(|(a, b)| a.to_bits() == b.to_bits())
    });

    NetsimScaling {
        sim_seconds,
        flows,
        groups,
        classes: event_out.classes,
        event_ns: event.median_ns,
        event_divergence,
        event_updates: event_out.updates,
        points,
        byte_identical,
    }
}

/// Run the full suite and assemble the report.
pub fn run(opts: BenchOptions) -> BenchReport {
    let quick = opts.quick;
    // Sample counts: enough for a stable median, small enough that the
    // full suite stays in low minutes (the duopoly kernels dominate).
    let (light, heavy) = if quick { (3, 2) } else { (10, 5) };
    let n_cps = if quick { 60 } else { 1000 };
    let ensemble = |phi| {
        EnsembleConfig {
            n: n_cps,
            phi,
            ..EnsembleConfig::default()
        }
        .generate()
    };
    let pop = ensemble(PhiDistribution::CoupledToBeta);
    let pop_indep = ensemble(PhiDistribution::IndependentUniform);
    // ν values scale with population size so quick mode keeps the same
    // congestion regime as the full 1000-CP runs.
    let scale = n_cps as f64 / 1000.0;
    let trio = Scenario::load(ScenarioKind::Trio);

    let mut kernels = Vec::new();

    let omegas = pubopt_num::linspace_excl_zero(1.0, 400);
    kernels.push(time_kernel(KERNEL_NAMES[0], light, || {
        let mut acc = 0.0;
        for &beta in &[0.1, 0.5, 1.0, 2.0, 5.0, 10.0] {
            let d = DemandKind::exponential(beta);
            for &w in &omegas {
                acc += d.demand_at(black_box(w));
            }
        }
        black_box(acc);
    }));

    kernels.push(time_kernel(KERNEL_NAMES[1], light, || {
        black_box(solve_maxmin(
            &trio.pop,
            black_box(2.0),
            Tolerance::default(),
        ));
    }));

    kernels.push(time_kernel(KERNEL_NAMES[2], light, || {
        black_box(competitive_equilibrium(
            &pop,
            black_box(100.0 * scale),
            IspStrategy::premium_only(0.4),
            Tolerance::COARSE,
        ));
    }));

    kernels.push(time_kernel(KERNEL_NAMES[3], light, || {
        black_box(competitive_equilibrium(
            &pop,
            black_box(150.0 * scale),
            IspStrategy::new(0.5, 0.4),
            Tolerance::COARSE,
        ));
    }));

    kernels.push(time_kernel(KERNEL_NAMES[4], heavy, || {
        black_box(duopoly_with_public_option(
            &pop,
            black_box(100.0 * scale),
            IspStrategy::premium_only(0.3),
            0.5,
            Tolerance::COARSE,
        ));
    }));

    kernels.push(time_kernel(KERNEL_NAMES[5], heavy, || {
        black_box(duopoly_with_public_option(
            &pop,
            black_box(150.0 * scale),
            IspStrategy::new(0.9, 0.4),
            0.5,
            Tolerance::COARSE,
        ));
    }));

    kernels.push(time_kernel(KERNEL_NAMES[6], light, || {
        black_box(ensemble(PhiDistribution::IndependentUniform));
    }));

    kernels.push(time_kernel(KERNEL_NAMES[7], light, || {
        black_box(competitive_equilibrium(
            &pop_indep,
            black_box(100.0 * scale),
            IspStrategy::premium_only(0.4),
            Tolerance::COARSE,
        ));
    }));

    let (warmup, measure) = if quick { (2.0, 2.0) } else { (30.0, 30.0) };
    kernels.push(time_kernel(KERNEL_NAMES[8], heavy, || {
        let groups = vec![
            FlowGroup::new("google", 50, 1.0, 0.08),
            FlowGroup::new("netflix", 15, 10.0, 0.08),
            FlowGroup::new("skype", 25, 3.0, 0.08),
        ];
        let mut sim = ScaledSim::new(
            groups,
            SimConfig {
                capacity: 150.0,
                warmup,
                measure,
                ..SimConfig::default()
            },
            1,
        );
        black_box(sim.run());
    }));

    // Executor overhead + scaling under many small *compute-bound* tasks.
    // The old kernel mapped a single `wrapping_mul` per item, so the
    // measurement was pure scheduling overhead — a regression tripwire
    // for the runner, but useless as a speedup number (the work per item
    // was smaller than a cache miss). Each task now spins a short LCG
    // loop (~1–2 µs of register-only arithmetic, no memory traffic), so
    // the timing reflects how the work-stealing pool schedules real work
    // while the adaptive chunking still has thousands of tasks to carve.
    let tiny_items: Vec<u64> = (0..if quick { 500 } else { 20_000 }).collect();
    kernels.push(time_kernel(KERNEL_NAMES[9], light, || {
        black_box(parallel_map(&tiny_items, 8, |&x| lcg_spin(x, 400)));
    }));

    // Deterministic solver effort (identical across runs at a fixed seed).
    let solver = vec![
        SolverEffort {
            case: "trio_nu2".to_owned(),
            stats: solve_maxmin_traced(&trio.pop, 2.0, Tolerance::default()).1,
        },
        SolverEffort {
            case: "ensemble_nu100".to_owned(),
            stats: solve_maxmin_traced(&pop, 100.0 * scale, Tolerance::default()).1,
        },
        SolverEffort {
            case: "ensemble_uncongested".to_owned(),
            stats: solve_maxmin_traced(&pop, 1e6, Tolerance::default()).1,
        },
    ];

    // Thread-scaling on a strictly compute-bound workload: every item is
    // a register-only LCG spin, so the curve isolates the executor
    // (stealing, chunk claiming, park/unpark) from memory-bandwidth
    // effects. On an N-core machine the speedup ceiling at w ≤ N workers
    // is w (efficiency 1.0); on a single-core container the whole curve
    // is flat at 1.0 by physics, whatever the executor does.
    let spin_items: Vec<u64> = (0..if quick { 512 } else { 4096 }).collect();
    let scaling = [1usize, 2, 4, 8]
        .iter()
        .map(|&workers| {
            let r = time_kernel("scaling", light, || {
                black_box(parallel_map(&spin_items, workers, |&x| lcg_spin(x, 2_000)));
            });
            (workers, r.median_ns)
        })
        .collect::<Vec<_>>();
    let base = scaling[0].1.max(1) as f64;
    let scaling = scaling
        .into_iter()
        .map(|(workers, median_ns)| {
            let speedup = base / median_ns.max(1) as f64;
            ScalePoint {
                workers,
                median_ns,
                speedup,
                efficiency: speedup / workers as f64,
            }
        })
        .collect();

    // Sorted-prefix kernel vs reference scaling (tentpole acceptance:
    // ≥ 10× at 100k CPs). Quick mode stops at 10k so tests stay fast;
    // the full run climbs to a million CPs with a smaller query batch
    // (the reference's full scan is what makes 1M expensive).
    let alloc_sizes: &[usize] = if quick {
        &[1_000, 10_000]
    } else {
        &[1_000, 10_000, 100_000, 1_000_000]
    };
    let alloc_scaling = alloc_sizes
        .iter()
        .map(|&n| {
            let queries = match n {
                n if n >= 1_000_000 => 4,
                n if n >= 100_000 => 16,
                _ => 64,
            };
            let samples = if n >= 100_000 { 2 } else { light };
            alloc_scale_point(n, queries, samples)
        })
        .collect();

    // Scalar-vs-columnar demand-kernel throughput (ISSUE 8 acceptance:
    // ≥ 2× CP evaluations/sec at 1M CPs). Quick mode runs one small
    // point so tests exercise the section without the 1M build cost.
    let demand_sizes: &[usize] = if quick {
        &[10_000]
    } else {
        &[100_000, 1_000_000]
    };
    let demand_eval = demand_sizes
        .iter()
        .map(|&n| demand_eval_point(n, if n >= 1_000_000 { 9 } else { light }))
        .collect();

    // Warm-vs-cold A/B of the fig5 equilibrium sweep at the grid's middle
    // strategy (acceptance: ≥ 3× fewer segment probes at identical
    // outputs).
    let ab_nus = pubopt_num::linspace_excl_zero(500.0 * scale, if quick { 16 } else { 100 });
    let warmstart = warmstart_ab(&pop, &ab_nus, IspStrategy::new(0.5, 0.4), Tolerance::COARSE);

    // The duopoly analogue on the fig8 workload (its summary strategy,
    // (κ, c) = (0.9, 0.4), over the fig8 ν range): each point is a full
    // market-share solve, so the grid is kept smaller than the monopoly
    // A/B's.
    let duo_nus = pubopt_num::linspace_excl_zero(500.0 * scale, if quick { 6 } else { 24 });
    let duopoly_warmstart = duopoly_warmstart_ab(
        &pop,
        &duo_nus,
        IspStrategy::new(0.9, 0.4),
        0.5,
        Tolerance::COARSE,
    );

    // Daemon A/Bs (cache cold-vs-warm, then the connection-layer
    // transport passes): these spawn loopback daemons, so they are the
    // sections that leave the process — still deterministic in outputs,
    // only the timings vary.
    let serving = serving_bench(quick);
    let serving_connections = connection_bench(quick);
    // Failure drills: the same daemon behind a deterministic chaos proxy
    // at 10% and 30% fault rates, driven by resilient clients.
    let serving_faults = fault_bench(quick);
    // Sharded water-filling: partitioned-kernel scaling (1M–10M CPs in
    // the full run) plus a loopback coordinator/shard cluster, every
    // point byte-identity-checked.
    let sharded_solve = sharded_solve_bench(quick);
    // Calendar-queue event simulator: the flagship run, plus the
    // flow-scaling table and worker bit-identity probe.
    let netsim_scaling = netsim_scaling_bench(quick, if quick { 2 } else { heavy });
    // End-to-end /v1/whatif co-simulation through a loopback daemon.
    let whatif = whatif_bench(quick);

    BenchReport {
        date: pubopt_obs::clock::utc_date_string(),
        quick,
        kernels,
        solver,
        scaling,
        alloc_scaling,
        demand_eval,
        warmstart,
        duopoly_warmstart,
        serving,
        serving_connections,
        serving_faults,
        sharded_solve,
        netsim_scaling,
        whatif,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stub_faults() -> ServingFaults {
        ServingFaults {
            requests: 80,
            seed: 7,
            drills: vec![crate::serveload::FaultDrill {
                fault_rate: 0.1,
                availability: 1.0,
                goodput_rps: 120.0,
                p50_us: 400,
                p99_us: 90_000,
                hard_failures: 0,
                retries: 3,
                faults_injected: 12,
                refusals: 1,
                breaker_opens: 2,
                breaker_closes: 2,
                schedule_digest: 0xabcd,
                byte_identical: true,
            }],
            byte_identical: true,
        }
    }

    fn stub_sharded() -> ShardedSolveBench {
        ShardedSolveBench {
            nu_per_cp: 0.1,
            kernel: vec![crate::shardload::ShardScalePoint {
                n_cps: 1_000_000,
                shards: 4,
                solve_ns: 1_100,
                single_ns: 1_000,
                relative: 1.1,
                lambda_evals: 52,
                bisect_iters: 48,
                byte_identical: true,
            }],
            cluster: vec![crate::shardload::ClusterSolvePoint {
                n_cps: 100_000,
                shards: 2,
                solve_ns: 5_000,
                shard_rpcs: 55,
                byte_identical: true,
            }],
            byte_identical: true,
        }
    }

    fn stub_netsim() -> NetsimScaling {
        NetsimScaling {
            sim_seconds: 60.0,
            flows: 100_000,
            groups: 512,
            classes: 4,
            event_ns: 5_000_000,
            event_divergence: 0.06,
            event_updates: 3_000,
            points: vec![NetsimScalePoint {
                flows: 1_000_000,
                groups: 2_048,
                rtt_classes: 16,
                classes: 64,
                event_ns: 8_000_000,
                flows_per_sec: 125e6,
                updates: 40_000,
                divergence: 0.2,
            }],
            byte_identical: true,
        }
    }

    fn stub_whatif() -> WhatifBench {
        WhatifBench {
            flows: 100_000,
            cold_us: 30_000,
            warm_us: 150,
            cache_speedup: 200.0,
            divergence: 0.04,
            byte_identical: true,
        }
    }

    fn stub_connections() -> ServingConnections {
        ServingConnections {
            requests: 96,
            close_rps: 600.0,
            reuse_rps: 1500.0,
            reuse_speedup: 2.5,
            pipeline_rps: 2400.0,
            pipeline_depth: 8,
            batch_size: 8,
            batch_rps: 3000.0,
            batch_speedup: 2.0,
            open_loop_rate_rps: 750.0,
            open_loop_p50_us: 400,
            open_loop_p95_us: 1200,
            open_loop_p99_us: 2500,
            byte_identical: true,
        }
    }

    #[test]
    fn quantile_nearest_rank() {
        let v = [10, 20, 30, 40, 50];
        assert_eq!(quantile_ns(&v, 0.5), 30);
        assert_eq!(quantile_ns(&v, 0.1), 10);
        assert_eq!(quantile_ns(&v, 0.9), 50);
        assert_eq!(quantile_ns(&[7], 0.5), 7);
    }

    /// The ISSUE 3 warm-start acceptance criterion on the Figure-5
    /// workload: the paper's 1000-CP ensemble at the grid's middle
    /// strategy, swept over a debug-sized slice of the fig5 ν grid (25 of
    /// the 100 points — the ratio is a per-solve property, so the slice
    /// measures the same thing the full grid does). The warm-started
    /// sweep must spend at least 3× fewer breakpoint-segment probes than
    /// the no-hint baseline, at identical outputs. (The release bench
    /// runs the full 100-point A/B and reports it in `BENCH_*.json`;
    /// measured ratio there: ≈ 3.3×.)
    #[test]
    fn warmstart_ab_on_fig5_workload_is_exact_and_meets_3x() {
        let pop = EnsembleConfig::default().generate();
        let nus = pubopt_num::linspace_excl_zero(500.0, 25);
        let ab = warmstart_ab(&pop, &nus, IspStrategy::new(0.5, 0.4), Tolerance::COARSE);
        assert!(ab.identical, "warm sweep outputs must match cold exactly");
        assert!(
            ab.warm.segment_probes * 3 <= ab.cold.segment_probes,
            "acceptance: >=3x fewer segment probes warm vs cold, got cold={} warm={} (ratio {:.2})",
            ab.cold.segment_probes,
            ab.warm.segment_probes,
            ab.probe_ratio
        );
        assert!(
            ab.warm.lambda_evals < ab.cold.lambda_evals,
            "total lambda evaluations must also drop: cold={} warm={}",
            ab.cold.lambda_evals,
            ab.warm.lambda_evals
        );
    }

    #[test]
    fn alloc_scale_point_agrees_with_reference() {
        let p = alloc_scale_point(2_000, 32, 1);
        assert!(
            p.max_abs_diff < 1e-9,
            "fast and reference water levels must agree, diff {}",
            p.max_abs_diff
        );
        assert!(p.fast_ns > 0 && p.reference_ns > 0);
        assert_eq!(p.n_cps, 2_000);
    }

    #[test]
    fn report_json_carries_the_new_sections() {
        let report = BenchReport {
            date: "2026-01-01".into(),
            quick: true,
            kernels: Vec::new(),
            solver: Vec::new(),
            scaling: Vec::new(),
            alloc_scaling: vec![AllocScalePoint {
                n_cps: 1000,
                queries: 64,
                fast_ns: 10,
                reference_ns: 1000,
                speedup: 100.0,
                max_abs_diff: 0.0,
            }],
            demand_eval: vec![DemandEvalPoint {
                n_cps: 1_000_000,
                evals: 1_000_000,
                scalar_ns: 8_000_000,
                columnar_ns: 2_000_000,
                scalar_cps_per_sec: 125e6,
                columnar_cps_per_sec: 500e6,
                speedup: 4.0,
                max_abs_diff: 0.0,
            }],
            warmstart: WarmstartAb {
                n_cps: 1000,
                grid_points: 100,
                identical: true,
                cold: SweepEffort::default(),
                warm: SweepEffort::default(),
                probe_ratio: 4.0,
                eval_ratio: 1.5,
            },
            duopoly_warmstart: WarmstartAb {
                n_cps: 1000,
                grid_points: 24,
                identical: true,
                cold: SweepEffort::default(),
                warm: SweepEffort::default(),
                probe_ratio: 2.5,
                eval_ratio: 1.2,
            },
            serving: ServingBench {
                distinct: 16,
                repeats: 8,
                cold_rps: 50.0,
                warm_rps: 4000.0,
                speedup: 80.0,
                hit_rate: 0.94,
                warm_p50_us: 150,
                warm_p99_us: 900,
                byte_identical: true,
            },
            serving_connections: stub_connections(),
            serving_faults: stub_faults(),
            sharded_solve: stub_sharded(),
            netsim_scaling: stub_netsim(),
            whatif: stub_whatif(),
        };
        let json = report.to_json();
        assert!(json.contains("\"schema\":\"pubopt-bench/v10\""));
        assert!(json.contains("\"alloc_scaling\""));
        assert!(json.contains("\"demand_eval\""));
        assert!(json.contains("\"columnar_cps_per_sec\":500000000"));
        assert!(json.contains("\"evals\":1000000"));
        assert!(json.contains("\"warmstart_ab\""));
        assert!(json.contains("\"duopoly_warmstart_ab\""));
        assert!(json.contains("\"probe_ratio\":4"));
        assert!(json.contains("\"probe_ratio\":2.5"));
        assert!(json.contains("\"identical\":true"));
        assert!(json.contains("\"serving\""));
        assert!(json.contains("\"speedup\":80"));
        assert!(json.contains("\"byte_identical\":true"));
        assert!(json.contains("\"serving_connections\""));
        assert!(json.contains("\"reuse_speedup\":2.5"));
        assert!(json.contains("\"open_loop_p95_us\":1200"));
        assert!(json.contains("\"serving_faults\""));
        assert!(json.contains("\"fault_rate\":0.1"));
        assert!(json.contains("\"hard_failures\":0"));
        assert!(json.contains("\"schedule_digest\":\"000000000000abcd\""));
        assert!(json.contains("\"sharded_solve\""));
        assert!(json.contains("\"nu_per_cp\":0.1"));
        assert!(json.contains("\"relative\":1.1"));
        assert!(json.contains("\"shard_rpcs\":55"));
        assert!(json.contains("\"netsim_scaling\""));
        assert!(json.contains("\"event_ns\":5000000"));
        assert!(json.contains("\"rtt_classes\":16"));
        assert!(json.contains("\"flows_per_sec\":125000000"));
        assert!(json.contains("\"whatif\""));
        assert!(json.contains("\"cache_speedup\":200"));
        assert!(json.contains("\"cold_us\":30000"));
    }

    /// The scaling section's `efficiency` column must be `speedup /
    /// workers`, serialised per point.
    #[test]
    fn scale_points_carry_efficiency() {
        let report = BenchReport {
            date: "2026-01-01".into(),
            quick: true,
            kernels: Vec::new(),
            solver: Vec::new(),
            scaling: vec![ScalePoint {
                workers: 4,
                median_ns: 25,
                speedup: 4.0,
                efficiency: 1.0,
            }],
            alloc_scaling: Vec::new(),
            demand_eval: Vec::new(),
            warmstart: WarmstartAb {
                n_cps: 0,
                grid_points: 0,
                identical: true,
                cold: SweepEffort::default(),
                warm: SweepEffort::default(),
                probe_ratio: 1.0,
                eval_ratio: 1.0,
            },
            duopoly_warmstart: WarmstartAb {
                n_cps: 0,
                grid_points: 0,
                identical: true,
                cold: SweepEffort::default(),
                warm: SweepEffort::default(),
                probe_ratio: 1.0,
                eval_ratio: 1.0,
            },
            serving: ServingBench {
                distinct: 0,
                repeats: 0,
                cold_rps: 0.0,
                warm_rps: 0.0,
                speedup: 0.0,
                hit_rate: 0.0,
                warm_p50_us: 0,
                warm_p99_us: 0,
                byte_identical: true,
            },
            serving_connections: stub_connections(),
            serving_faults: stub_faults(),
            sharded_solve: stub_sharded(),
            netsim_scaling: stub_netsim(),
            whatif: stub_whatif(),
        };
        assert!(report.to_json().contains("\"efficiency\":1"));
    }

    /// The duopoly warm-start acceptance criterion on (a debug-sized
    /// slice of) the Figure-8 workload: a carried [`MarketWarmStart`]
    /// must reproduce the no-hint baseline bit for bit while spending
    /// strictly fewer segment probes and Λ evaluations. (The release
    /// bench runs the 1000-CP, 24-point grid and reports the ratios in
    /// `BENCH_*.json`.)
    #[test]
    fn duopoly_warmstart_ab_on_fig8_workload_is_exact_and_saves_effort() {
        let pop = EnsembleConfig {
            n: 120,
            ..EnsembleConfig::default()
        }
        .generate();
        let nus = pubopt_num::linspace_excl_zero(500.0 * 0.12, 6);
        let ab = duopoly_warmstart_ab(
            &pop,
            &nus,
            IspStrategy::new(0.9, 0.4),
            0.5,
            Tolerance::COARSE,
        );
        assert!(
            ab.identical,
            "warm duopoly outputs must match the baseline exactly"
        );
        assert!(
            ab.warm.segment_probes < ab.cold.segment_probes,
            "probe_ratio must exceed 1: cold={} warm={}",
            ab.cold.segment_probes,
            ab.warm.segment_probes
        );
        assert!(
            ab.warm.lambda_evals < ab.cold.lambda_evals,
            "eval_ratio must exceed 1: cold={} warm={}",
            ab.cold.lambda_evals,
            ab.warm.lambda_evals
        );
    }

    /// The demand-eval throughput point must find the batch kernel in
    /// *exact* agreement with the scalar loop — max_abs_diff is a bit
    /// tripwire, not a tolerance — across a population mixing all six
    /// families. (The ≥ 2× acceptance number is asserted on the release
    /// run's 1M-CP point and recorded in `BENCH_*.json`; a debug-mode
    /// speedup assertion would only measure the optimiser's mood.)
    #[test]
    fn demand_eval_point_is_bit_exact_on_mixed_families() {
        let p = demand_eval_point(6_000, 2);
        assert_eq!(p.max_abs_diff, 0.0, "columnar kernel must be bit-exact");
        assert_eq!(p.n_cps, 6_000);
        assert_eq!(p.evals, 6_000);
        assert!(p.scalar_ns > 0 && p.columnar_ns > 0);
        assert!(p.scalar_cps_per_sec > 0.0 && p.columnar_cps_per_sec > 0.0);
    }

    /// Quick-mode netsim scaling: quantized populations must aggregate,
    /// and the worker bit-identity probe must hold on the
    /// RTT-heterogeneous lattice.
    #[test]
    fn netsim_scaling_quick_mode_holds_contracts() {
        let ns = netsim_scaling_bench(true, 1);
        assert_eq!(ns.flows, 2_000);
        assert!(
            ns.classes <= 4,
            "matched-RTT, 4-cap population must collapse to ≤ 4 classes, got {}",
            ns.classes
        );
        assert!(ns.byte_identical, "1/2/4/8-worker traces must match");
        assert_eq!(ns.points.len(), 2);
        let lattice = &ns.points[1];
        assert_eq!(lattice.rtt_classes, 16);
        assert!(lattice.classes <= 64 && lattice.updates > 0);
    }

    /// The acceptance smoke at full scale, kept out of the default run
    /// (`--ignored`; the CI netsim-scale job runs it in release): the
    /// 100k-flow, 60-sim-second event run must sit inside the §II-D
    /// divergence tolerance, traces bit-identical across 1/2/4/8
    /// workers, and the end-to-end 100k-flow `/v1/whatif` must answer
    /// byte-identically across daemons with its simulated outcome near
    /// the analytical prediction. (The ≥ 20× head-to-head against the
    /// fixed-dt integrator is a `pubopt-netsim` test.)
    #[test]
    #[ignore = "full-scale release smoke; run explicitly (CI netsim-scale job)"]
    fn netsim_scale_smoke_meets_acceptance() {
        let ns = netsim_scaling_bench(false, 2);
        assert_eq!(ns.flows, 100_000);
        assert!(
            ns.event_divergence <= 0.12,
            "event divergence {:.4} out of tolerance",
            ns.event_divergence
        );
        assert!(ns.byte_identical, "1/2/4/8-worker traces must match");
        assert!(
            ns.points.iter().any(|p| p.flows >= 1_000_000),
            "the scaling table must reach 1M flows"
        );

        let wi = whatif_bench(false);
        assert_eq!(wi.flows, 100_000);
        assert!(
            wi.divergence <= 0.12,
            "whatif divergence {:.4} out of tolerance",
            wi.divergence
        );
        assert!(wi.byte_identical, "cached + 4-worker bodies must match");
    }

    #[test]
    fn time_kernel_counts_samples() {
        let mut calls = 0u32;
        let r = time_kernel("t", 4, || calls += 1);
        assert_eq!(calls, 5, "warm-up plus 4 samples");
        assert_eq!(r.samples, 4);
        assert!(r.p10_ns <= r.median_ns && r.median_ns <= r.p90_ns);
    }
}
