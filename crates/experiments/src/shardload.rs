//! The sharded-solve harness behind the bench report's `sharded_solve`
//! section (schema v8).
//!
//! Two arms, both pinned to the byte-identity contract of
//! [`pubopt_eq::solve_maxmin_with_source`]:
//!
//! * **kernel scaling** — the shard protocol's *arithmetic* without its
//!   transport: a [`PartitionedSource`] partitions one population into
//!   N shard spans and answers every solver query by concatenating
//!   per-shard block partials, exactly as N daemons would. Timed against
//!   the single-process [`solve_maxmin_traced`] at 1M and 10M CPs, this
//!   isolates what partitioning itself costs (frame assembly, per-shard
//!   span folds) from what sockets cost. The 10M point holds ~0.7 GB of
//!   population, so the full grid is release-bench territory; quick mode
//!   runs one small size.
//! * **cluster** — the real thing end to end: N shard daemons plus a
//!   coordinator over loopback sockets, one `/v1/dist/solve` per shard
//!   count, wall time and RPC count from the coordinator's own response,
//!   byte-identity checked against the in-process solve of the same
//!   deterministic scenario.
//!
//! Every point carries its own `byte_identical` verdict; the section's
//! top-level flag is the conjunction, and the bench binary treats a
//! `false` as a failed run — a sharded solve that is merely *close* is
//! a bug, never a measurement.

use pubopt_eq::{solve_maxmin_traced, solve_maxmin_with_source, PartitionedSource};
use pubopt_num::Tolerance;
use pubopt_obs::json::{parse, Value};
use pubopt_serve::dist::hex_f64;
use pubopt_serve::{client, spawn, ServeConfig, ServerHandle};
use pubopt_workload::{EnsembleConfig, Scenario, ScenarioKind};
use std::time::Instant;

/// One point of the in-process kernel-scaling arm.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardScalePoint {
    /// Population size.
    pub n_cps: usize,
    /// Shard count the population was partitioned into.
    pub shards: usize,
    /// Wall nanoseconds for the partitioned solve.
    pub solve_ns: u64,
    /// Wall nanoseconds for the single-process reference solve of the
    /// same `(population, ν)`.
    pub single_ns: u64,
    /// `solve_ns / single_ns` — partitioning overhead (1.0 = free).
    pub relative: f64,
    /// Λ evaluations the partitioned solve spent (must equal the
    /// reference's).
    pub lambda_evals: u64,
    /// Bisection iterations (must equal the reference's).
    pub bisect_iters: u64,
    /// Whether water level, profile, aggregate, and effort counters all
    /// matched the reference bit for bit.
    pub byte_identical: bool,
}

/// One point of the end-to-end cluster arm.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSolvePoint {
    /// Population size of the solved scenario.
    pub n_cps: usize,
    /// Shard daemons behind the coordinator.
    pub shards: usize,
    /// Wall nanoseconds for the `/v1/dist/solve` round trip.
    pub solve_ns: u64,
    /// Shard RPCs the coordinator issued for this solve, from its
    /// response body.
    pub shard_rpcs: u64,
    /// Whether the distributed water level, aggregate, and effort
    /// counters matched the in-process solve bit for bit.
    pub byte_identical: bool,
}

/// The `sharded_solve` section of the bench report.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardedSolveBench {
    /// ν per CP of every solve (`ν = nu_per_cp · n`, congested regime).
    pub nu_per_cp: f64,
    /// In-process kernel scaling over shard counts per size.
    pub kernel: Vec<ShardScalePoint>,
    /// Loopback daemon cluster, end to end, per shard count.
    pub cluster: Vec<ClusterSolvePoint>,
    /// Conjunction of every point's `byte_identical`.
    pub byte_identical: bool,
}

const NU_PER_CP: f64 = 0.1;

fn elapsed_ns(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Bit-equality of two profiles (empty slices are trivially equal).
fn bits_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Time the partitioned solve at every shard count for one size and
/// verify each against the single-process reference.
fn kernel_points(n: usize, shard_counts: &[usize]) -> Vec<ShardScalePoint> {
    let pop = EnsembleConfig {
        n,
        ..EnsembleConfig::default()
    }
    .generate();
    let nu = NU_PER_CP * n as f64;
    let t = Instant::now();
    let (want_eq, want_stats) = solve_maxmin_traced(&pop, nu, Tolerance::default());
    let single_ns = elapsed_ns(t);

    shard_counts
        .iter()
        .map(|&shards| {
            let mut source = PartitionedSource::new(&pop, shards);
            let t = Instant::now();
            let (eq, stats) = solve_maxmin_with_source(&mut source, nu, Tolerance::default())
                .expect("partitioned solve of a valid ensemble");
            let solve_ns = elapsed_ns(t);
            let byte_identical = eq.water_level.unwrap_or(f64::INFINITY).to_bits()
                == want_eq.water_level.unwrap_or(f64::INFINITY).to_bits()
                && eq.aggregate.to_bits() == want_eq.aggregate.to_bits()
                && bits_equal(&eq.thetas, &want_eq.thetas)
                && bits_equal(&eq.demands, &want_eq.demands)
                && stats.lambda_evals == want_stats.lambda_evals
                && stats.bisect_iters == want_stats.bisect_iters;
            ShardScalePoint {
                n_cps: n,
                shards,
                solve_ns,
                single_ns,
                relative: solve_ns.max(1) as f64 / single_ns.max(1) as f64,
                lambda_evals: stats.lambda_evals,
                bisect_iters: u64::from(stats.bisect_iters),
                byte_identical,
            }
        })
        .collect()
}

/// Spawn `shards` shard daemons plus a coordinator over them, solve the
/// paper-ensemble scenario at size `n` through `/v1/dist/solve`, and
/// verify the response against the in-process reference solve.
fn cluster_point(n: usize, shards: usize) -> ClusterSolvePoint {
    let pop = Scenario::load_scaled(ScenarioKind::PaperEnsemble, n).pop;
    let nu = NU_PER_CP * n as f64;
    let (want_eq, want_stats) = solve_maxmin_traced(&pop, nu, Tolerance::default());

    let config = ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    };
    let daemons: Vec<ServerHandle> = (0..shards)
        .map(|_| spawn(&config).expect("bind shard daemon"))
        .collect();
    let coordinator = spawn(&ServeConfig {
        shards: daemons.iter().map(|d| d.addr().to_string()).collect(),
        ..config
    })
    .expect("bind coordinator");

    let body = format!(r#"{{"scenario":"paper","n":{n},"nu":{nu}}}"#);
    let t = Instant::now();
    let (status, resp) =
        client::post(coordinator.addr(), "/v1/dist/solve", &body).expect("dist solve round trip");
    let solve_ns = elapsed_ns(t);
    assert_eq!(status, 200, "distributed solve must succeed: {resp}");
    let v = parse(&resp).expect("dist response is JSON");
    let hex = |key: &str| v.get(key).and_then(Value::as_str).unwrap_or("").to_owned();
    let byte_identical = hex("water_level")
        == hex_f64(want_eq.water_level.unwrap_or(f64::INFINITY))
        && hex("aggregate") == hex_f64(want_eq.aggregate)
        && v.get("lambda_evals").and_then(Value::as_u64) == Some(want_stats.lambda_evals)
        && v.get("bisect_iters").and_then(Value::as_u64)
            == Some(u64::from(want_stats.bisect_iters));
    let shard_rpcs = v.get("shard_rpcs").and_then(Value::as_u64).unwrap_or(0);

    coordinator.shutdown();
    coordinator.join();
    for d in daemons {
        d.shutdown();
        d.join();
    }
    ClusterSolvePoint {
        n_cps: n,
        shards,
        solve_ns,
        shard_rpcs,
        byte_identical,
    }
}

/// Run the `sharded_solve` section. Quick mode shrinks the kernel arm to
/// one small size and the cluster scenario to 2k CPs so the whole section
/// stays test-sized; the full run climbs to 10M CPs in the kernel arm
/// (release-profile work) and 100k CPs end to end.
pub fn sharded_solve_bench(quick: bool) -> ShardedSolveBench {
    let kernel_sizes: &[usize] = if quick {
        &[4_000]
    } else {
        &[1_000_000, 10_000_000]
    };
    let shard_counts = [2usize, 4, 8];
    let kernel: Vec<ShardScalePoint> = kernel_sizes
        .iter()
        .flat_map(|&n| kernel_points(n, &shard_counts))
        .collect();

    let cluster_n = if quick { 2_000 } else { 100_000 };
    let cluster: Vec<ClusterSolvePoint> = [2usize, 4]
        .iter()
        .map(|&shards| cluster_point(cluster_n, shards))
        .collect();

    let byte_identical =
        kernel.iter().all(|p| p.byte_identical) && cluster.iter().all(|p| p.byte_identical);
    ShardedSolveBench {
        nu_per_cp: NU_PER_CP,
        kernel,
        cluster,
        byte_identical,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_bench_is_byte_identical_everywhere() {
        let bench = sharded_solve_bench(true);
        assert!(bench.byte_identical, "{bench:?}");
        assert_eq!(bench.kernel.len(), 3, "one small size x three counts");
        for p in &bench.kernel {
            assert!(p.byte_identical, "{p:?}");
            assert!(p.solve_ns > 0 && p.single_ns > 0);
            assert_eq!(
                (p.lambda_evals, p.bisect_iters),
                (bench.kernel[0].lambda_evals, bench.kernel[0].bisect_iters),
                "identical trajectory at every shard count: {p:?}"
            );
        }
        assert_eq!(
            bench.cluster.iter().map(|p| p.shards).collect::<Vec<_>>(),
            vec![2, 4]
        );
        for p in &bench.cluster {
            assert!(p.byte_identical, "{p:?}");
            assert!(
                p.shard_rpcs > 0,
                "the coordinator must actually have fanned out: {p:?}"
            );
        }
    }
}
