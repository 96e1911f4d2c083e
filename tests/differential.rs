//! Bit-identity differential harness: columnar kernels against the
//! scalar reference, and local solves against sharded ones.
//!
//! The columnar kernels in `pubopt_demand::columnar` are *accelerators*,
//! not approximations: every batch kernel is required to reproduce the
//! scalar reference implementation bit-for-bit (which trivially satisfies
//! the repo's 1e-12 tolerance discipline). This harness drives that claim
//! with 10 000 seeded random populations per demand family, with draws
//! deliberately amplified toward the numeric edges — denormal and huge
//! `θ̂`, `β ∈ {0, 1e-12, huge}`, ramp `width → 0`, logistic midpoints
//! pushed against the open interval — and compares every kernel:
//!
//! * demand evaluation at arbitrary throughput profiles,
//! * demand / throughput / `Λ`-term evaluation at a water level,
//! * surplus terms and the Kahan-compensated aggregate,
//! * the `SortedDemands` water-filling allocator fed by
//!   `set_demands_columnar`.
//!
//! On the same populations it compares the full max-min equilibrium
//! solve, `try_solve_maxmin` (`solve_maxmin_with_source` over the local
//! source), against the same solve over a 4-shard `PartitionedSource` —
//! including the solver trajectory (`SolveStats`) and the outcome on
//! pathological inputs — and the consumer surplus of the two solves
//! through the scalar and columnar surplus kernels.
//!
//! On mismatch the panic message shrinks the failure to a single CP: it
//! names the family, seed and CP index, and prints the offending
//! `ContentProvider` as a ready-to-paste one-CP reproduction.

use pubopt_alloc::SortedDemands;
use pubopt_demand::{ContentProvider, Demand, DemandKind, Family, Population};
use pubopt_eq::{
    consumer_surplus, consumer_surplus_columnar, solve_maxmin_with_source, try_solve_maxmin,
    PartitionedSource,
};
use pubopt_num::{Rng, SolverPolicy, Tolerance};

/// Seeded populations per family (satellite spec: 10k per family).
const POPS_PER_FAMILY: u64 = 10_000;
/// Run the (heavier) allocator differential every Nth seed.
const ALLOC_EVERY: u64 = 4;
/// Run the full-solve differential every Nth seed.
const SOLVE_EVERY: u64 = 16;

/// Edge-amplified θ̂ draw: denormals through huge rates.
fn draw_theta_hat(rng: &mut Rng) -> f64 {
    match rng.below(8) {
        0 => [5e-324, 1e-308, 1e-12, 1e12, 1e18][rng.below(5) as usize],
        _ => rng.uniform(0.05, 20.0),
    }
}

/// Edge-amplified per-family parameter draw. Built as enum literals so the
/// harness owns the exact values (the asserting constructors would also
/// accept all of these — edges stay inside each family's documented domain).
fn draw_kind(family: Family, rng: &mut Rng) -> DemandKind {
    let edge = rng.below(4) == 0;
    match family {
        Family::Exponential => DemandKind::ExponentialSensitivity {
            beta: if edge {
                [0.0, 1e-12, 700.0, 1e15][rng.below(4) as usize]
            } else {
                rng.uniform(0.0, 10.0)
            },
        },
        Family::ConstantElasticity => DemandKind::ConstantElasticity {
            elasticity: if edge {
                [0.0, 1e-12, 1e3][rng.below(3) as usize]
            } else {
                rng.uniform(0.0, 8.0)
            },
        },
        Family::SmoothedStep => DemandKind::SmoothedStep {
            threshold: rng.uniform(0.01, 1.0),
            width: if edge {
                [1e-300, 1e-12, 1e-6][rng.below(3) as usize]
            } else {
                rng.uniform(0.01, 0.5)
            },
        },
        Family::HardStep => DemandKind::HardStep {
            threshold: if edge {
                [0.0, 1e-12, 1.0][rng.below(3) as usize]
            } else {
                rng.uniform(0.0, 1.0)
            },
        },
        Family::Logistic => DemandKind::Logistic {
            steepness: if edge {
                [1e-12, 700.0][rng.below(2) as usize]
            } else {
                rng.uniform(0.1, 50.0)
            },
            midpoint: if edge {
                [1e-12, 0.5, 1.0 - 1e-12][rng.below(3) as usize]
            } else {
                rng.uniform(0.05, 0.95)
            },
        },
        Family::Constant => DemandKind::Constant,
    }
}

/// One seeded population of 1..=16 CPs. `families` rotates per CP, so a
/// single-family slice exercises that family and the mixed harness gets
/// interleaved family tags (worst case for the partition permutation).
fn draw_population(families: &[Family], seed: u64) -> (Population, Rng) {
    let mut rng = Rng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
    let n = 1 + rng.below(16) as usize;
    let cps: Vec<ContentProvider> = (0..n)
        .map(|i| {
            let fam = families[i % families.len()];
            ContentProvider::new(
                rng.uniform(0.01, 1.0),
                draw_theta_hat(&mut rng),
                draw_kind(fam, &mut rng),
                rng.uniform(0.0, 2.0),
                rng.uniform(0.0, 5.0),
            )
        })
        .collect();
    (cps.into(), rng)
}

/// Bitwise comparison with a 1-CP shrink baked into the panic message.
#[track_caller]
fn assert_bits(
    scalar: f64,
    batch: f64,
    label: &str,
    seed: u64,
    what: &str,
    i: usize,
    pop: &Population,
) {
    if scalar.to_bits() != batch.to_bits() {
        let cp = &pop.cps()[i];
        panic!(
            "differential mismatch [{label} seed={seed}] {what} at cp #{i}:\n  \
             scalar = {scalar:e} (bits {:#018x})\n  \
             batch  = {batch:e} (bits {:#018x})\n  \
             |diff| = {:e} (tolerance discipline: 1e-12; required: bit-identity)\n  \
             1-CP repro: {cp:?}",
            scalar.to_bits(),
            batch.to_bits(),
            (scalar - batch).abs(),
        );
    }
}

/// Scratch buffers reused across seeds so debug-mode runs stay fast.
#[derive(Default)]
struct Scratch {
    thetas: Vec<f64>,
    demands_s: Vec<f64>,
    out: Vec<f64>,
    surplus_s: Vec<f64>,
}

fn check_population(label: &str, seed: u64, pop: &Population, rng: &mut Rng, sc: &mut Scratch) {
    let cols = pop.columnar();
    let n = pop.len();

    // --- demand evaluation at an arbitrary throughput profile ----------
    sc.thetas.clear();
    for cp in pop.iter() {
        let t = match rng.below(8) {
            0 => 0.0,
            1 => cp.theta_hat,
            2 => cp.theta_hat * 2.0,
            _ => rng.uniform(0.0, cp.theta_hat.min(1e19) * 1.5),
        };
        sc.thetas.push(t);
    }
    sc.demands_s.clear();
    for (i, cp) in pop.iter().enumerate() {
        sc.demands_s
            .push(cp.demand.demand(sc.thetas[i], cp.theta_hat));
    }
    cols.eval_demands_into(&sc.thetas, &mut sc.out);
    for i in 0..n {
        assert_bits(sc.demands_s[i], sc.out[i], label, seed, "demand", i, pop);
    }

    // --- kernels at a water level (edge waters included) ----------------
    let water = match rng.below(6) {
        0 => 0.0,
        1 => f64::INFINITY,
        2 => 5e-324,
        _ => rng.uniform(0.0, 4.0),
    };
    cols.eval_thetas_at_water_into(water, &mut sc.out);
    for (i, cp) in pop.iter().enumerate() {
        assert_bits(
            cp.theta_hat.min(water),
            sc.out[i],
            label,
            seed,
            "theta@w",
            i,
            pop,
        );
    }
    cols.eval_demands_at_water_into(water, &mut sc.out);
    for (i, cp) in pop.iter().enumerate() {
        let th = cp.theta_hat;
        assert_bits(
            cp.demand.demand(th.min(water), th),
            sc.out[i],
            label,
            seed,
            "demand@w",
            i,
            pop,
        );
    }
    cols.lambda_terms_at_water_into(water, &mut sc.out);
    for (i, cp) in pop.iter().enumerate() {
        let theta = cp.theta_hat.min(water);
        let d = cp.demand.demand(theta, cp.theta_hat);
        assert_bits(
            cp.alpha * (d * theta),
            sc.out[i],
            label,
            seed,
            "lambda-term@w",
            i,
            pop,
        );
    }

    // --- surplus terms and compensated aggregate ------------------------
    cols.eval_surplus_into(&sc.demands_s, &sc.thetas, &mut sc.out);
    sc.surplus_s.clear();
    for (i, cp) in pop.iter().enumerate() {
        sc.surplus_s
            .push(cp.phi * cp.alpha * sc.demands_s[i] * sc.thetas[i]);
    }
    for i in 0..n {
        assert_bits(
            sc.surplus_s[i],
            sc.out[i],
            label,
            seed,
            "surplus-term",
            i,
            pop,
        );
    }
    // The solver's aggregate reduction is the fixed-lane blocked Kahan
    // scheme (shardable by construction); the scalar reference replays
    // it element-for-element.
    let cps = pop.cps();
    let scalar_agg =
        pubopt_num::blocked_sum(pop.len(), |i| cps[i].alpha * sc.demands_s[i] * sc.thetas[i]);
    let batch_agg = cols.aggregate_per_capita(&sc.demands_s, &sc.thetas);
    assert_bits(scalar_agg, batch_agg, label, seed, "aggregate", 0, pop);

    // --- SortedDemands allocator fed by the columnar kernel -------------
    if seed.is_multiple_of(ALLOC_EVERY) {
        let mut sd_scalar = SortedDemands::new(pop);
        sd_scalar.set_demands(pop, &sc.demands_s);
        let mut sd_cols = SortedDemands::new(pop);
        sd_cols.set_demands_columnar(pop, &sc.thetas);
        assert_bits(
            sd_scalar.offered_load(),
            sd_cols.offered_load(),
            label,
            seed,
            "offered_load",
            0,
            pop,
        );
        for nu in [0.0, rng.uniform(0.0, 3.0), 1e300] {
            let w_s = sd_scalar.water_level(nu);
            let w_c = sd_cols.water_level(nu);
            assert_bits(w_s, w_c, label, seed, "allocator water_level", 0, pop);
        }
    }

    // --- full equilibrium solve, local vs 4-shard partition -------------
    if seed.is_multiple_of(SOLVE_EVERY) {
        let nu = rng.uniform(0.0, 3.0);
        let local = try_solve_maxmin(pop, nu, Tolerance::STRICT, &SolverPolicy::default());
        let sharded =
            solve_maxmin_with_source(&mut PartitionedSource::new(pop, 4), nu, Tolerance::STRICT);
        match (local, sharded) {
            (Ok((eq_l, st_l)), Ok((eq_p, st_p))) => {
                assert_eq!(
                    st_l, st_p,
                    "[{label} seed={seed}] solver trajectories diverged"
                );
                assert_bits(
                    eq_l.aggregate,
                    eq_p.aggregate,
                    label,
                    seed,
                    "solve aggregate",
                    0,
                    pop,
                );
                let w_l = eq_l.water_level.unwrap_or(f64::NAN);
                let w_p = eq_p.water_level.unwrap_or(f64::NAN);
                if !(w_l.is_nan() && w_p.is_nan()) {
                    assert_bits(w_l, w_p, label, seed, "solve water", 0, pop);
                }
                for i in 0..n {
                    assert_bits(
                        eq_l.thetas[i],
                        eq_p.thetas[i],
                        label,
                        seed,
                        "solve theta",
                        i,
                        pop,
                    );
                    assert_bits(
                        eq_l.demands[i],
                        eq_p.demands[i],
                        label,
                        seed,
                        "solve demand",
                        i,
                        pop,
                    );
                }
                let phi_s = consumer_surplus(pop, &eq_l);
                let phi_c = consumer_surplus_columnar(pop, &eq_p);
                assert_bits(phi_s, phi_c, label, seed, "consumer surplus", 0, pop);
            }
            (Err(_), Err(_)) => {} // both paths must agree even on failure
            (l, p) => panic!(
                "[{label} seed={seed}] solver outcome diverged: local {} vs sharded {}",
                if l.is_ok() { "Ok" } else { "Err" },
                if p.is_ok() { "Ok" } else { "Err" },
            ),
        }
    }
}

fn run_family(label: &str, families: &[Family]) {
    let mut sc = Scratch::default();
    for seed in 0..POPS_PER_FAMILY {
        let (pop, mut rng) = draw_population(families, seed);
        check_population(label, seed, &pop, &mut rng, &mut sc);
    }
}

#[test]
fn differential_exponential() {
    run_family("exponential", &[Family::Exponential]);
}

#[test]
fn differential_constant_elasticity() {
    run_family("constant_elasticity", &[Family::ConstantElasticity]);
}

#[test]
fn differential_smoothed_step() {
    run_family("smoothed_step", &[Family::SmoothedStep]);
}

#[test]
fn differential_hard_step() {
    run_family("hard_step", &[Family::HardStep]);
}

#[test]
fn differential_logistic() {
    run_family("logistic", &[Family::Logistic]);
}

#[test]
fn differential_constant() {
    run_family("constant", &[Family::Constant]);
}

#[test]
fn differential_mixed_families() {
    run_family("mixed", &Family::ALL);
}
