//! The max-min water-level solve over a pluggable aggregate source.
//!
//! [`solve_maxmin_with_source`] is the one implementation of Theorem 1's
//! water-level solve: bracket → bisection → recovery → profile. Every
//! population-wide quantity it needs — the congestion check `Σ α θ̂`,
//! each Λ(w) probe, the final θ/d profile and aggregate — is obtained
//! through an [`AggregateSource`]. A source may answer from the local
//! population ([`LocalSource`], the path behind [`crate::solve_maxmin`]),
//! from an in-process partition of it ([`PartitionedSource`]), or by
//! fanning the query out to shard daemons over HTTP (`pubopt-serve`'s
//! coordinator mode) — local and distributed solves share one code path
//! and one recovery policy.
//!
//! # The bit-identity contract
//!
//! Every global sum is reduced with the fixed-lane blocked Kahan scheme
//! ([`pubopt_num::blocked_sum`]): 64 per-block compensated sums over
//! contiguous original-order index ranges, then an ordered compensated
//! combine of the 64 block totals. A source therefore answers reduction
//! queries with **block partials**, not totals; the solve combines them
//! with [`pubopt_num::combine_partials`] — byte-identical across sources,
//! for any shard count dividing [`pubopt_num::BLOCK_LANES`], because
//!
//! * each block's partial depends only on that block's terms (the
//!   accumulator restarts per block), so a shard owning blocks `[b0, b1)`
//!   computes exactly the partials the single process would, and
//! * the combine consumes all 64 partials in block order regardless of
//!   which shard produced them.
//!
//! Identical Λ bits at every probe mean an identical bisection trajectory
//! (the bisection branches only on the sign of `Λ(w) − ν`, and probe
//! midpoints are a deterministic function of the bracket), hence
//! identical water-level bits *and* identical [`SolveStats`] effort
//! counters — the acceptance invariant the distributed tests pin.

use crate::solver::{RateEquilibrium, SolveStats};
use pubopt_demand::Population;
use pubopt_num::recover::{robust_bisect, SolverPolicy};
use pubopt_num::{
    blocked_partials, combine_partials, roots::bisect_counted, shard_blocks, shard_span, RootError,
    Tolerance, BLOCK_LANES,
};
use std::cell::{Cell, RefCell};
use std::convert::Infallible;

/// A full equilibrium profile assembled by an [`AggregateSource`] at a
/// solved water level.
///
/// A source built without slices (`pubopt-serve`'s `HttpShardSource`
/// unless asked for the profile) leaves `thetas` and `demands` empty;
/// `aggregate_partials` is always filled.
#[derive(Debug, Clone, PartialEq)]
pub struct SourceProfile {
    /// Achievable throughputs `θ_i = min(θ̂_i, w)` in original CP order
    /// (empty from a source built without slices).
    pub thetas: Vec<f64>,
    /// Equilibrium demands `d_i(θ_i)` in original CP order (empty from a
    /// source built without slices).
    pub demands: Vec<f64>,
    /// The 64 block partials of the aggregate `Σ α_i d_i θ_i`
    /// ([`pubopt_num::combine_partials`] yields the scalar aggregate).
    pub aggregate_partials: Vec<f64>,
}

/// A provider of the population-wide quantities the max-min water-level
/// solve needs — local or remote.
///
/// All reduction-valued methods return **block partials** in block order
/// (see the module docs); methods take `&mut self` so remote sources can
/// reuse connections and accumulate transport state.
pub trait AggregateSource {
    /// Transport/validation error (use [`Infallible`] for local sources).
    type Error;

    /// Population size `n` (fixes the block boundaries).
    fn len(&mut self) -> Result<usize, Self::Error>;

    /// Whether the population is empty (same transport cost as [`len`](Self::len)).
    fn is_empty(&mut self) -> Result<bool, Self::Error> {
        Ok(self.len()? == 0)
    }

    /// Largest `θ̂` — the upper end of the water-level bracket. An
    /// associative max, so no blocking needed.
    fn max_theta_hat(&mut self) -> Result<f64, Self::Error>;

    /// The 64 block partials of `Σ α_i θ̂_i` (congestion check).
    fn total_unconstrained_partials(&mut self) -> Result<Vec<f64>, Self::Error>;

    /// The 64 block partials of `Λ(w) = Σ α_i d_i(min(θ̂_i,w))·min(θ̂_i,w)`.
    fn lambda_partials(&mut self, w: f64) -> Result<Vec<f64>, Self::Error>;

    /// Assemble the full profile at water level `w` (∞ when uncongested —
    /// `min(θ̂, ∞) = θ̂` exactly, so one code path covers both regimes).
    /// A source built without slices returns empty θ/d; every source
    /// returns the aggregate partials.
    fn profile(&mut self, w: f64) -> Result<SourceProfile, Self::Error>;
}

/// Errors from [`solve_maxmin_with_source`].
#[derive(Debug, Clone, PartialEq)]
pub enum SourceSolveError<E> {
    /// The source failed (shard unreachable, malformed partials, …).
    /// Never retried: the solve stops probing at the first failure.
    Source(E),
    /// The water-level equation could not be solved, even after the
    /// recovery policy's bracket widening / budget escalation.
    WaterLevel(RootError),
}

impl<E: std::fmt::Display> std::fmt::Display for SourceSolveError<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SourceSolveError::Source(e) => write!(f, "aggregate source failed: {e}"),
            SourceSolveError::WaterLevel(e) => write!(f, "water-level equation unsolvable: {e}"),
        }
    }
}

impl<E: std::fmt::Debug + std::fmt::Display> std::error::Error for SourceSolveError<E> {}

/// Solve the max-min rate equilibrium through an [`AggregateSource`].
///
/// The aggregate-throughput function of the water level, `Λ(w)`, is
/// continuous and non-decreasing (Assumption 1), with `Λ(0) = 0` and
/// `Λ(max θ̂) = Σ λ̂`. If `Σ λ̂ ≤ ν` the system is uncongested and
/// `θ_i = θ̂_i` (Axiom 2); otherwise the water level is the root of
/// `Λ(w) − ν`, unique by Theorem 1, bisected on the bracket
/// `[0, max θ̂]`. When that bracket fails — a pathological demand family,
/// or a source whose `max θ̂` is wrong — the search is retried under
/// [`SolverPolicy::default`].
///
/// Byte-identical across sources — water level, θ/d profiles, aggregate,
/// and the [`SolveStats`] effort counters — whenever the source honours
/// the block-partial contract (pinned for [`PartitionedSource`] in this
/// module's tests and for the HTTP shard source in `pubopt-serve`'s
/// distributed tests).
///
/// # Errors
///
/// [`SourceSolveError::Source`] when any source query fails (a failing Λ
/// probe ends the search: it is never retried);
/// [`SourceSolveError::WaterLevel`] when the recovery policy is exhausted
/// (pathological demand outside Assumption 1).
pub fn solve_maxmin_with_source<S: AggregateSource>(
    source: &mut S,
    nu: f64,
    tol: Tolerance,
) -> Result<(RateEquilibrium, SolveStats), SourceSolveError<S::Error>> {
    drive(source, nu, tol, &SolverPolicy::default())
}

/// The water-level solve behind [`solve_maxmin_with_source`] and
/// [`crate::try_solve_maxmin`]: bracket → bisection → recovery under
/// `policy` → profile.
pub(crate) fn drive<S: AggregateSource>(
    source: &mut S,
    nu: f64,
    tol: Tolerance,
    policy: &SolverPolicy,
) -> Result<(RateEquilibrium, SolveStats), SourceSolveError<S::Error>> {
    assert!(
        nu >= 0.0 && nu.is_finite(),
        "nu must be finite and non-negative, got {nu}"
    );
    let n = source.len().map_err(SourceSolveError::Source)?;
    if n == 0 {
        return Ok((
            RateEquilibrium {
                nu,
                thetas: Vec::new(),
                demands: Vec::new(),
                aggregate: 0.0,
                water_level: Some(f64::INFINITY),
            },
            SolveStats::default(),
        ));
    }

    let total_partials = source
        .total_unconstrained_partials()
        .map_err(SourceSolveError::Source)?;
    let congested = combine_partials(&total_partials) > nu;

    let lambda_evals = Cell::new(0u64);
    let mut bisect_iters = 0u32;
    let mut recovery_attempts = 0u32;
    let water = if !congested {
        f64::INFINITY
    } else {
        let w_hi = source.max_theta_hat().map_err(SourceSolveError::Source)?;
        // The root finders take infallible closures, so a source
        // failure is stashed and surfaced as NaN: the root finder
        // aborts on the non-finite probe, every later probe returns
        // NaN without touching the source, and the stashed error
        // wins over whatever the root finder reports.
        let source = RefCell::new(&mut *source);
        let failed: RefCell<Option<S::Error>> = RefCell::new(None);
        let lambda_at = |w: f64| -> f64 {
            if failed.borrow().is_some() {
                return f64::NAN;
            }
            lambda_evals.set(lambda_evals.get() + 1);
            match source.borrow_mut().lambda_partials(w) {
                Ok(p) => combine_partials(&p),
                Err(e) => {
                    *failed.borrow_mut() = Some(e);
                    f64::NAN
                }
            }
        };
        let root = match bisect_counted(|w| lambda_at(w) - nu, 0.0, w_hi, tol) {
            Ok((w, iters)) => {
                bisect_iters = iters;
                Ok(w)
            }
            Err(_) if failed.borrow().is_none() => {
                // Theorem 1's bracket guarantee failed. Retry under
                // the recovery policy; Λ is only meaningful for
                // w ≥ 0, so clamp probes from bracket widening.
                robust_bisect(|w| lambda_at(w.max(0.0)) - nu, 0.0, w_hi, tol, policy)
                    .map(|s| {
                        recovery_attempts = s.diagnostics.attempts_used() as u32;
                        s.root.max(0.0)
                    })
                    .map_err(|e| e.error)
            }
            Err(e) => Err(e),
        };
        match (root, failed.into_inner()) {
            (Ok(w), None) => w,
            (_, Some(e)) => return Err(SourceSolveError::Source(e)),
            (Err(e), None) => return Err(SourceSolveError::WaterLevel(e)),
        }
    };

    let profile = source.profile(water).map_err(SourceSolveError::Source)?;
    let aggregate = combine_partials(&profile.aggregate_partials);
    Ok((
        RateEquilibrium {
            nu,
            thetas: profile.thetas,
            demands: profile.demands,
            aggregate,
            water_level: Some(water),
        },
        SolveStats {
            lambda_evals: lambda_evals.get(),
            bisect_iters,
            congested,
            recovery_attempts,
        },
    ))
}

/// Per-block Λ(w) partials of a population slice — the shard-side probe
/// kernel. `blocks` must lie within `[0, BLOCK_LANES)`; indexing is
/// global (the population passed in must be the full deterministic
/// population, or a slice re-indexed by the caller).
pub fn lambda_block_partials(pop: &Population, w: f64, blocks: std::ops::Range<usize>) -> Vec<f64> {
    let cps = pop.cps();
    blocked_partials(cps.len(), blocks, |i| {
        let cp = &cps[i];
        let theta = cp.theta_hat.min(w);
        cp.lambda_per_capita(theta)
    })
}

/// Shard-side profile kernel: θ/d slices for the CP index range `span`
/// (original order) plus the aggregate block partials for `blocks`, at
/// water level `w`. Each CP's demand is evaluated once: the aggregate
/// terms `α·d·θ` are read back from the slices, so `span` must cover
/// `blocks` ([`pubopt_num::shard_span`] is exactly their union).
/// Concatenating shard slices in shard order reproduces the local
/// profile bit for bit.
///
/// # Panics
///
/// Panics if `span` does not cover `blocks`.
pub fn profile_block_slices(
    pop: &Population,
    w: f64,
    span: std::ops::Range<usize>,
    blocks: std::ops::Range<usize>,
) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    let cps = pop.cps();
    let thetas: Vec<f64> = cps[span.clone()]
        .iter()
        .map(|cp| cp.theta_hat.min(w))
        .collect();
    let demands: Vec<f64> = cps[span.clone()]
        .iter()
        .zip(thetas.iter())
        .map(|(cp, &t)| cp.demand_at(t))
        .collect();
    let aggregate_partials = blocked_partials(cps.len(), blocks, |i| {
        let j = i - span.start;
        cps[i].alpha * demands[j] * thetas[j]
    });
    (thetas, demands, aggregate_partials)
}

/// Shard-side aggregate kernel: the aggregate block partials of
/// [`profile_block_slices`] for `blocks` at water level `w`, with no
/// θ/d slices built. Each term keeps the profile kernel's `(α·d)·θ`
/// grouping, so the partials match it bit for bit — Λ's `α·(d·θ)`
/// (`lambda_block_partials`) may differ in the last bit.
pub fn aggregate_block_partials(
    pop: &Population,
    w: f64,
    blocks: std::ops::Range<usize>,
) -> Vec<f64> {
    let cps = pop.cps();
    blocked_partials(cps.len(), blocks, |i| {
        let cp = &cps[i];
        let theta = cp.theta_hat.min(w);
        cp.alpha * cp.demand_at(theta) * theta
    })
}

/// The local [`AggregateSource`]: answers every query from a
/// [`Population`] in this process with the same kernels the shard
/// daemons use. It is the source behind [`crate::solve_maxmin`] and
/// [`crate::try_solve_maxmin`].
pub struct LocalSource<'a> {
    pop: &'a Population,
}

impl<'a> LocalSource<'a> {
    /// Wrap a population.
    pub fn new(pop: &'a Population) -> Self {
        Self { pop }
    }
}

impl AggregateSource for LocalSource<'_> {
    type Error = Infallible;

    fn len(&mut self) -> Result<usize, Infallible> {
        Ok(self.pop.len())
    }

    fn max_theta_hat(&mut self) -> Result<f64, Infallible> {
        Ok(self.pop.max_theta_hat())
    }

    fn total_unconstrained_partials(&mut self) -> Result<Vec<f64>, Infallible> {
        Ok(self.pop.total_unconstrained_partials(0..BLOCK_LANES))
    }

    fn lambda_partials(&mut self, w: f64) -> Result<Vec<f64>, Infallible> {
        Ok(lambda_block_partials(self.pop, w, 0..BLOCK_LANES))
    }

    fn profile(&mut self, w: f64) -> Result<SourceProfile, Infallible> {
        let n = self.pop.len();
        let (thetas, demands, aggregate_partials) =
            profile_block_slices(self.pop, w, 0..n, 0..BLOCK_LANES);
        Ok(SourceProfile {
            thetas,
            demands,
            aggregate_partials,
        })
    }
}

/// An [`AggregateSource`] that splits one local population into `shards`
/// contiguous spans and answers every query by computing each shard's
/// block partials separately, then assembling the 64-lane frame — the
/// same arithmetic (and the same grouping) as `shards` daemons behind
/// `/v1/shard/aggregate`, minus the sockets. Since block boundaries are
/// fixed by `n` alone and each shard owns whole blocks, the assembled
/// frame is bit-identical to the unsharded one.
pub struct PartitionedSource<'a> {
    pop: &'a Population,
    shards: usize,
}

impl<'a> PartitionedSource<'a> {
    /// Wrap `pop`, partitioned into `shards` spans.
    ///
    /// # Panics
    ///
    /// Panics unless `shards` divides [`BLOCK_LANES`] (the reduction
    /// lattice: every shard must own whole blocks).
    pub fn new(pop: &'a Population, shards: usize) -> Self {
        assert!(
            shards > 0 && BLOCK_LANES.is_multiple_of(shards),
            "shard count must divide {BLOCK_LANES}, got {shards}"
        );
        Self { pop, shards }
    }

    /// Assemble the 64-lane frame from per-shard block partials.
    fn frame(&self, per_shard: impl Fn(std::ops::Range<usize>) -> Vec<f64>) -> Vec<f64> {
        let mut frame = vec![0.0; BLOCK_LANES];
        for s in 0..self.shards {
            let blocks = shard_blocks(s, self.shards);
            frame[blocks.clone()].copy_from_slice(&per_shard(blocks));
        }
        frame
    }
}

impl AggregateSource for PartitionedSource<'_> {
    type Error = Infallible;

    fn len(&mut self) -> Result<usize, Infallible> {
        Ok(self.pop.len())
    }

    fn max_theta_hat(&mut self) -> Result<f64, Infallible> {
        // Per-shard span maxes folded in shard order: max is associative,
        // so any grouping reproduces the global fold exactly.
        let n = self.pop.len();
        let cps = self.pop.cps();
        Ok((0..self.shards)
            .map(|s| {
                cps[shard_span(n, s, self.shards)]
                    .iter()
                    .map(|cp| cp.theta_hat)
                    .fold(f64::NEG_INFINITY, f64::max)
            })
            .fold(f64::NEG_INFINITY, f64::max))
    }

    fn total_unconstrained_partials(&mut self) -> Result<Vec<f64>, Infallible> {
        Ok(self.frame(|blocks| self.pop.total_unconstrained_partials(blocks)))
    }

    fn lambda_partials(&mut self, w: f64) -> Result<Vec<f64>, Infallible> {
        Ok(self.frame(|blocks| lambda_block_partials(self.pop, w, blocks)))
    }

    fn profile(&mut self, w: f64) -> Result<SourceProfile, Infallible> {
        let n = self.pop.len();
        let mut thetas = Vec::with_capacity(n);
        let mut demands = Vec::with_capacity(n);
        let mut aggregate_partials = vec![0.0; BLOCK_LANES];
        for s in 0..self.shards {
            let span = shard_span(n, s, self.shards);
            let blocks = shard_blocks(s, self.shards);
            let (t, d, p) = profile_block_slices(self.pop, w, span, blocks.clone());
            thetas.extend_from_slice(&t);
            demands.extend_from_slice(&d);
            aggregate_partials[blocks].copy_from_slice(&p);
        }
        Ok(SourceProfile {
            thetas,
            demands,
            aggregate_partials,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::solve_maxmin_traced;
    use pubopt_demand::{ContentProvider, DemandKind};

    fn mixed_pop(n: usize) -> Population {
        (0..n)
            .map(|i| {
                let kind = match i % 5 {
                    0 => DemandKind::exponential(0.5 + 0.1 * (i % 13) as f64),
                    1 => DemandKind::Constant,
                    2 => DemandKind::logistic(4.0 + (i % 7) as f64, 0.4),
                    3 => DemandKind::smoothed_step(0.5, 0.2),
                    _ => DemandKind::constant_elasticity(0.9),
                };
                ContentProvider::new(
                    0.05 + 0.9 * ((i * 7919) % 101) as f64 / 101.0,
                    0.2 + 14.0 * ((i * 104_729) % 997) as f64 / 997.0,
                    kind,
                    0.5,
                    0.5,
                )
            })
            .collect()
    }

    /// One CP of each demand family, a hard step included.
    fn six_family_pop() -> Population {
        vec![
            ContentProvider::new(0.3, 2.0, DemandKind::exponential(1.7), 0.5, 2.0),
            ContentProvider::new(0.2, 0.9, DemandKind::constant_elasticity(0.8), 0.5, 1.0),
            ContentProvider::new(0.25, 1.4, DemandKind::smoothed_step(0.6, 0.2), 0.5, 3.0),
            ContentProvider::new(0.15, 3.1, DemandKind::logistic(6.0, 0.5), 0.5, 0.7),
            ContentProvider::new(0.1, 0.4, DemandKind::Constant, 0.5, 1.3),
            ContentProvider::new(0.05, 1.0, DemandKind::HardStep { threshold: 0.5 }, 0.5, 0.2),
        ]
        .into()
    }

    #[test]
    fn sharded_source_bit_identical_at_every_lattice_count() {
        let mixed = mixed_pop(403);
        let total = mixed.total_unconstrained_per_capita();
        let inputs = [
            (
                mixed,
                [0.05, 0.4, 0.8, 1.2].map(|frac| total * frac).to_vec(),
            ),
            // ν = 0, congested points across the families, and ν = 10
            // above Σ λ̂ (uncongested).
            (six_family_pop(), vec![0.0, 0.05, 0.3, 0.9, 1.7, 10.0]),
        ];
        for (pop, nus) in &inputs {
            for &nu in nus {
                let (want, want_stats) = solve_maxmin_traced(pop, nu, Tolerance::STRICT);
                for shards in [1usize, 2, 4, 8, 16, 32, 64] {
                    let mut src = PartitionedSource::new(pop, shards);
                    let (got, got_stats) =
                        solve_maxmin_with_source(&mut src, nu, Tolerance::STRICT)
                            .expect("sharded solve");
                    assert_eq!(want_stats, got_stats, "shards={shards} nu={nu}");
                    assert_eq!(
                        want.water_level.map(f64::to_bits),
                        got.water_level.map(f64::to_bits),
                        "shards={shards} nu={nu}: water"
                    );
                    assert_eq!(
                        want.aggregate.to_bits(),
                        got.aggregate.to_bits(),
                        "shards={shards} nu={nu}: aggregate"
                    );
                    assert_eq!(want.thetas, got.thetas, "shards={shards} nu={nu}");
                    assert_eq!(want.demands, got.demands, "shards={shards} nu={nu}");
                    // The aggregate-only kernel matches the profile
                    // kernel's partials at the solved level, shard by shard.
                    let w = got.water_level.expect("solved level");
                    let bits = |xs: Vec<f64>| xs.into_iter().map(f64::to_bits).collect::<Vec<_>>();
                    for s in 0..shards {
                        let blocks = shard_blocks(s, shards);
                        let span = shard_span(pop.len(), s, shards);
                        assert_eq!(
                            bits(profile_block_slices(pop, w, span, blocks.clone()).2),
                            bits(aggregate_block_partials(pop, w, blocks)),
                            "shards={shards} nu={nu} shard {s}: aggregate partials"
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "divide")]
    fn off_lattice_shard_count_is_rejected() {
        let pop = mixed_pop(10);
        let _ = PartitionedSource::new(&pop, 3);
    }

    #[derive(Debug, PartialEq)]
    struct Boom;

    /// A [`LocalSource`] that under-reports `max θ̂` by `max_scale` and
    /// fails its `fail_at`-th Λ probe (1-based), counting every probe it
    /// receives.
    struct Faulty<'a> {
        inner: LocalSource<'a>,
        max_scale: f64,
        fail_at: Option<u64>,
        probes: u64,
    }

    impl<'a> Faulty<'a> {
        fn new(pop: &'a Population, max_scale: f64, fail_at: Option<u64>) -> Self {
            Self {
                inner: LocalSource::new(pop),
                max_scale,
                fail_at,
                probes: 0,
            }
        }
    }

    impl AggregateSource for Faulty<'_> {
        type Error = Boom;
        fn len(&mut self) -> Result<usize, Boom> {
            Ok(self.inner.pop.len())
        }
        fn max_theta_hat(&mut self) -> Result<f64, Boom> {
            Ok(self.inner.pop.max_theta_hat() * self.max_scale)
        }
        fn total_unconstrained_partials(&mut self) -> Result<Vec<f64>, Boom> {
            Ok(self.inner.pop.total_unconstrained_partials(0..BLOCK_LANES))
        }
        fn lambda_partials(&mut self, w: f64) -> Result<Vec<f64>, Boom> {
            self.probes += 1;
            if Some(self.probes) == self.fail_at {
                return Err(Boom);
            }
            Ok(lambda_block_partials(self.inner.pop, w, 0..BLOCK_LANES))
        }
        fn profile(&mut self, w: f64) -> Result<SourceProfile, Boom> {
            Ok(self.inner.profile(w).unwrap_or_else(|e| match e {}))
        }
    }

    #[test]
    fn recovery_reaches_a_source_whose_bracket_misses_the_root() {
        let pop = mixed_pop(403);
        for frac in [0.4, 0.8] {
            let nu = pop.total_unconstrained_per_capita() * frac;
            let (want, want_stats) = solve_maxmin_traced(&pop, nu, Tolerance::default());
            let w = want.water_level.unwrap();
            assert_eq!(want_stats.recovery_attempts, 0, "frac={frac}");
            // A bracket of [0, 0.1·max θ̂] ends below the root.
            let mut src = Faulty::new(&pop, 0.1, None);
            assert!(src.max_theta_hat().unwrap() < w, "frac={frac}");
            let (got, stats) = solve_maxmin_with_source(&mut src, nu, Tolerance::default())
                .expect("recovered solve");
            assert!(stats.recovery_attempts > 0, "frac={frac}: {stats:?}");
            let got_w = got.water_level.unwrap();
            assert!(
                (got_w - w).abs() <= 1e-9 * (1.0 + w),
                "frac={frac}: recovered {got_w} vs local {w}"
            );
            assert!((got.aggregate - nu).abs() <= 1e-8 * (1.0 + nu));
        }
    }

    #[test]
    fn a_failed_probe_is_typed_and_never_retried() {
        let pop = mixed_pop(403);
        let nu = pop.total_unconstrained_per_capita() * 0.5;
        // Probes 1–2 bracket [0, max θ̂] and 10 lands mid-bisection; under
        // a 0.1·max θ̂ bracket, probe 2 ends the failing first pass and 5
        // lands inside the recovery pass.
        for (max_scale, k) in [(1.0, 1), (1.0, 2), (1.0, 10), (0.1, 2), (0.1, 5)] {
            let mut src = Faulty::new(&pop, max_scale, Some(k));
            let err = solve_maxmin_with_source(&mut src, nu, Tolerance::default()).unwrap_err();
            assert_eq!(
                err,
                SourceSolveError::Source(Boom),
                "scale={max_scale} k={k}"
            );
            assert_eq!(
                src.probes, k,
                "scale={max_scale} k={k}: probed after failing"
            );
        }
    }

    #[test]
    fn empty_source_is_trivial() {
        let pop = Population::default();
        let mut src = LocalSource::new(&pop);
        let (eq, stats) = solve_maxmin_with_source(&mut src, 2.0, Tolerance::default()).unwrap();
        assert!(eq.thetas.is_empty());
        assert_eq!(eq.aggregate, 0.0);
        assert_eq!(stats, SolveStats::default());
    }

    #[test]
    fn uncongested_source_profile_is_unconstrained() {
        let pop = mixed_pop(64);
        let nu = pop.total_unconstrained_per_capita() * 2.0;
        let mut src = LocalSource::new(&pop);
        let (eq, stats) = solve_maxmin_with_source(&mut src, nu, Tolerance::default()).unwrap();
        assert_eq!(eq.water_level, Some(f64::INFINITY));
        assert!(!stats.congested);
        assert_eq!(stats.lambda_evals, 0);
        for (cp, &t) in pop.iter().zip(eq.thetas.iter()) {
            assert_eq!(t, cp.theta_hat);
        }
    }
}
