//! Dependency-free benchmark runner.
//!
//! ```text
//! cargo run --release -p pubopt-experiments --bin bench [-- --quick] [--out DIR]
//! ```
//!
//! Runs the kernels in [`pubopt_experiments::bench_harness`] and writes
//! `BENCH_<date>.json` (schema `pubopt-bench/v10`) into `--out` (default:
//! current directory), printing a human-readable summary to stdout.
//! Exits nonzero if the sharded-solve or netsim/whatif byte-identity
//! checks fail — a distributed solve (or a worker-count-dependent
//! trace) that is merely close is a bug, not a measurement.

use pubopt_experiments::bench_harness::{run, BenchOptions};
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut quick = false;
    let mut out_dir = PathBuf::from(".");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--out" => match args.next() {
                Some(dir) => out_dir = PathBuf::from(dir),
                None => {
                    eprintln!("--out requires a directory argument");
                    return ExitCode::FAILURE;
                }
            },
            "--help" | "-h" => {
                println!("usage: bench [--quick] [--out DIR]");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument: {other} (try --help)");
                return ExitCode::FAILURE;
            }
        }
    }

    eprintln!(
        "running bench suite ({} mode)...",
        if quick { "quick" } else { "full" }
    );
    let report = run(BenchOptions { quick });

    println!(
        "{:<44} {:>12} {:>12} {:>12}",
        "kernel", "p10", "median", "p90"
    );
    for k in &report.kernels {
        println!(
            "{:<44} {:>12} {:>12} {:>12}",
            k.name,
            fmt_ns(k.p10_ns),
            fmt_ns(k.median_ns),
            fmt_ns(k.p90_ns)
        );
    }
    println!();
    for s in &report.solver {
        println!(
            "solver {:<24} lambda_evals={:<6} bisect_iters={:<4} congested={}",
            s.case, s.stats.lambda_evals, s.stats.bisect_iters, s.stats.congested
        );
    }
    println!();
    for p in &report.scaling {
        println!(
            "parallel_map {} worker(s): {:>12}  speedup {:.2}x  efficiency {:.2}",
            p.workers,
            fmt_ns(p.median_ns),
            p.speedup,
            p.efficiency
        );
    }
    println!();
    println!(
        "{:<12} {:>8} {:>14} {:>14} {:>9} {:>12}",
        "alloc n_cps", "queries", "fast", "reference", "speedup", "max|diff|"
    );
    for a in &report.alloc_scaling {
        println!(
            "{:<12} {:>8} {:>14} {:>14} {:>8.1}x {:>12.2e}",
            a.n_cps,
            a.queries,
            fmt_ns(a.fast_ns),
            fmt_ns(a.reference_ns),
            a.speedup,
            a.max_abs_diff
        );
    }
    println!();
    println!(
        "{:<14} {:>14} {:>14} {:>16} {:>16} {:>9}",
        "demand n_cps", "scalar", "columnar", "scalar CP/s", "columnar CP/s", "speedup"
    );
    for p in &report.demand_eval {
        println!(
            "{:<14} {:>14} {:>14} {:>15.2e} {:>15.2e} {:>8.1}x  max|diff|={:.1e}",
            p.n_cps,
            fmt_ns(p.scalar_ns),
            fmt_ns(p.columnar_ns),
            p.scalar_cps_per_sec,
            p.columnar_cps_per_sec,
            p.speedup,
            p.max_abs_diff
        );
    }
    println!();
    let w = &report.warmstart;
    println!(
        "warmstart A/B (n={} CPs, {} grid points): identical={}",
        w.n_cps, w.grid_points, w.identical
    );
    println!(
        "  segment probes: cold={} warm={}  ratio {:.2}x",
        w.cold.segment_probes, w.warm.segment_probes, w.probe_ratio
    );
    println!(
        "  lambda evals:   cold={} warm={}  ratio {:.2}x",
        w.cold.lambda_evals, w.warm.lambda_evals, w.eval_ratio
    );
    println!();
    let d = &report.duopoly_warmstart;
    println!(
        "duopoly warmstart A/B (n={} CPs, {} grid points): identical={}",
        d.n_cps, d.grid_points, d.identical
    );
    println!(
        "  segment probes: baseline={} warm={}  ratio {:.2}x",
        d.cold.segment_probes, d.warm.segment_probes, d.probe_ratio
    );
    println!(
        "  lambda evals:   baseline={} warm={}  ratio {:.2}x",
        d.cold.lambda_evals, d.warm.lambda_evals, d.eval_ratio
    );
    println!();
    let s = &report.serving;
    println!(
        "serving A/B ({} distinct queries, warm pass x{}): byte_identical={}",
        s.distinct, s.repeats, s.byte_identical
    );
    println!(
        "  throughput: cold={:.1} rps  warm={:.1} rps  speedup {:.1}x",
        s.cold_rps, s.warm_rps, s.speedup
    );
    println!(
        "  warm latency: p50={} us  p99={} us  cache hit rate {:.1}%",
        s.warm_p50_us,
        s.warm_p99_us,
        100.0 * s.hit_rate
    );
    println!();
    let f = &report.serving_faults;
    println!(
        "failure drills ({} requests per rate, seed {}): byte_identical={}",
        f.requests, f.seed, f.byte_identical
    );
    for drill in &f.drills {
        println!(
            "  {:>4.0}% faults: availability {:.4}  goodput {:.1} rps  p99 {} us  \
             hard_failures={}  retries={}  injected={}  breaker open/close {}/{}",
            100.0 * drill.fault_rate,
            drill.availability,
            drill.goodput_rps,
            drill.p99_us,
            drill.hard_failures,
            drill.retries,
            drill.faults_injected,
            drill.breaker_opens,
            drill.breaker_closes
        );
    }

    println!();
    let ss = &report.sharded_solve;
    println!(
        "sharded solve (nu = {} per CP): byte_identical={}",
        ss.nu_per_cp, ss.byte_identical
    );
    for p in &ss.kernel {
        println!(
            "  kernel  n={:<9} shards={}  solve {:>12}  single {:>12}  relative {:.2}x  \
             lambda_evals={} bisect_iters={}",
            p.n_cps,
            p.shards,
            fmt_ns(p.solve_ns),
            fmt_ns(p.single_ns),
            p.relative,
            p.lambda_evals,
            p.bisect_iters
        );
    }
    for p in &ss.cluster {
        println!(
            "  cluster n={:<9} shards={}  solve {:>12}  shard_rpcs={}  byte_identical={}",
            p.n_cps,
            p.shards,
            fmt_ns(p.solve_ns),
            p.shard_rpcs,
            p.byte_identical
        );
    }
    if !ss.byte_identical {
        eprintln!("sharded solve diverged from the single-process solver");
        return ExitCode::FAILURE;
    }

    println!();
    let ns = &report.netsim_scaling;
    println!(
        "netsim scaling ({}s simulated, {} flows / {} groups -> {} classes): \
         byte_identical={}",
        ns.sim_seconds, ns.flows, ns.groups, ns.classes, ns.byte_identical
    );
    println!(
        "  event {:>12} ({} updates, div {:.4})",
        fmt_ns(ns.event_ns),
        ns.event_updates,
        ns.event_divergence
    );
    for p in &ns.points {
        println!(
            "  event n={:<9} groups={:<5} rtt_classes={:<3} classes={:<3} {:>12}  \
             {:.2e} flows/s  updates={}  div {:.4}",
            p.flows,
            p.groups,
            p.rtt_classes,
            p.classes,
            fmt_ns(p.event_ns),
            p.flows_per_sec,
            p.updates,
            p.divergence
        );
    }
    println!();
    let wi = &report.whatif;
    println!(
        "whatif ({} flows): cold={} us  warm={} us  cache_speedup {:.0}x  \
         divergence {:.4}  byte_identical={}",
        wi.flows, wi.cold_us, wi.warm_us, wi.cache_speedup, wi.divergence, wi.byte_identical
    );
    if !ns.byte_identical || !wi.byte_identical {
        eprintln!("netsim trace or /v1/whatif response depends on worker count");
        return ExitCode::FAILURE;
    }

    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("cannot create {}: {e}", out_dir.display());
        return ExitCode::FAILURE;
    }
    let path = out_dir.join(format!("BENCH_{}.json", report.date));
    if let Err(e) = std::fs::write(&path, report.to_json()) {
        eprintln!("cannot write {}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    println!("\nwrote {}", path.display());
    ExitCode::SUCCESS
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2} us", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}
