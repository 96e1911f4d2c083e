//! Warm-started, sorted-prefix equilibrium solves for parameter sweeps.
//!
//! [`solve_maxmin`](crate::solve_maxmin) rescans the whole population on
//! every bisection probe and restarts every sweep point from the cold
//! bracket `[0, max θ̂]`. This module factors the max-min water-level
//! solve into two phases over a reusable [`SweepCache`]:
//!
//! 1. **Segment location.** With the CPs sorted by `θ̂`, the predicate
//!    `Λ(θ̂_(j)) < ν` is monotone in `j` (Λ is non-decreasing), so the
//!    breakpoint segment containing the water level is found by binary
//!    search — `O(log n)` Λ evaluations cold — or by galloping outward
//!    from the previous sweep point's segment ([`WarmStart`]), which
//!    costs `O(1)` evaluations when adjacent points land in nearby
//!    segments (the common case on a fine grid).
//! 2. **Within-segment bisection.** The root is refined inside the
//!    located segment `[θ̂_(k−1), θ̂_(k)]` with the ordinary bisection.
//!    Every CP below the segment is saturated (`θ = θ̂`), so its
//!    contribution is a precomputed Kahan prefix sum and each Λ
//!    evaluation only walks the unsaturated suffix.
//!
//! **Exactness.** A warm start changes only *where the segment search
//! begins*; the located segment is the unique partition point of a
//! monotone predicate, and the within-segment bisection runs on the same
//! bracket with the same tolerance either way. Warm and cold solves
//! therefore return **bit-identical** water levels — the warm start is a
//! pure accelerator, never an approximation. (Relative to the seed
//! [`solve_maxmin`](crate::solve_maxmin), results agree to the root
//! tolerance but not bitwise: the bisection trajectory differs.)
//!
//! The module reports its effort in-band, as a [`SweepEffort`] carried in
//! the cache.

use crate::solver::{try_solve_maxmin, EquilibriumError, RateEquilibrium, SolveStats};
use pubopt_demand::columnar::{eval_demand, family_params};
use pubopt_demand::{Family, Population};
use pubopt_num::recover::SolverPolicy;
use pubopt_num::{roots::bisect_counted, KahanSum, RootError, Tolerance};
use std::cell::Cell;

/// Warm-start hint carried between adjacent sweep points: the breakpoint
/// segment that contained the previous water level.
///
/// A cold hint (no previous segment) makes [`SweepCache::water_level`]
/// fall back to the full binary segment search; either way the result is
/// bit-identical, only the number of Λ evaluations differs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WarmStart {
    segment: Option<usize>,
}

impl WarmStart {
    /// A hint carrying no information (full binary segment search).
    pub const COLD: WarmStart = WarmStart { segment: None };

    /// Whether this hint carries a previous segment.
    pub fn is_warm(&self) -> bool {
        self.segment.is_some()
    }
}

/// Solver-effort counters accumulated by a [`SweepCache`], read by effort
/// A/B tests and the benchmark's traced runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepEffort {
    /// Water-level solves performed (congested points only).
    pub solves: u64,
    /// Solves that started from a warm segment hint.
    pub warm_solves: u64,
    /// Warm solves whose hint was at most one segment off.
    pub warm_hits: u64,
    /// Total evaluations of the aggregate-throughput function `Λ(w)`.
    pub lambda_evals: u64,
    /// Λ evaluations spent locating the breakpoint segment.
    pub segment_probes: u64,
    /// Interval halvings of the within-segment bisection.
    pub bisect_iters: u64,
}

impl SweepEffort {
    /// Fold another effort record into this one.
    pub fn merge(&mut self, other: &SweepEffort) {
        self.solves += other.solves;
        self.warm_solves += other.warm_solves;
        self.warm_hits += other.warm_hits;
        self.lambda_evals += other.lambda_evals;
        self.segment_probes += other.segment_probes;
        self.bisect_iters += other.bisect_iters;
    }
}

/// Reusable sorted-prefix cache for max-min water-level solves over one
/// population (or subsets of it).
///
/// Construction sorts the population by `θ̂` once (`O(n log n)`); binding
/// a subset ([`SweepCache::bind_subset`]) reuses that order in `O(n)`
/// without cloning any [`ContentProvider`](pubopt_demand::ContentProvider).
/// All buffers are reused across binds, so a best-response iteration that
/// rebinds the two classes every round allocates nothing after the first.
#[derive(Debug, Clone)]
pub struct SweepCache {
    /// Population length the cache was built for.
    n: usize,
    /// All CP indices sorted by `θ̂` ascending (ties by index).
    full_order: Vec<usize>,
    /// The currently bound subset, sorted by `θ̂` ascending.
    order: Vec<usize>,
    /// `θ̂` of each bound CP, ascending — the water-level breakpoints.
    breaks: Vec<f64>,
    /// `α` of each bound CP, sorted order — structure-of-arrays columns
    /// snapshot (with `s_fam`/`s_p0`/`s_p1`) so the hot Λ suffix walk in
    /// [`Self::lambda_from`] never touches the ~80-byte
    /// array-of-structs CP records. Values are gathered at bind time,
    /// like the prefix sums, so every Λ term is bit-identical to the
    /// scalar `cp.lambda_per_capita(...)` it replaces.
    s_alpha: Vec<f64>,
    /// Demand-family tag of each bound CP, sorted order.
    s_fam: Vec<Family>,
    /// First demand parameter of each bound CP, sorted order.
    s_p0: Vec<f64>,
    /// Second demand parameter of each bound CP, sorted order.
    s_p1: Vec<f64>,
    /// `prefix_load[k] = Σ_{j<k} α·d(θ̂)·θ̂` over the bound order (Kahan):
    /// the exact Λ contribution of the `k` most easily saturated CPs.
    prefix_load: Vec<f64>,
    /// `Σ α·θ̂` over the bound subset — the congestion predicate's side
    /// of Axiom 2, matching the seed solver's `total_unconstrained`.
    total_hat: f64,
    /// Scratch membership mask for `bind_subset`.
    member: Vec<bool>,
    /// Effort counters (interior mutability: Λ evaluations happen under
    /// shared borrows inside the root-finder closures).
    effort: Cell<SweepEffort>,
}

impl SweepCache {
    /// Build the cache for `pop` and bind it to the whole population.
    pub fn new(pop: &Population) -> Self {
        let n = pop.len();
        let mut full_order: Vec<usize> = (0..n).collect();
        full_order.sort_by(|&a, &b| {
            pop[a]
                .theta_hat
                .partial_cmp(&pop[b].theta_hat)
                .expect("theta_hat is finite")
                .then(a.cmp(&b))
        });
        let mut cache = Self {
            n,
            full_order,
            order: Vec::with_capacity(n),
            breaks: Vec::with_capacity(n),
            s_alpha: Vec::with_capacity(n),
            s_fam: Vec::with_capacity(n),
            s_p0: Vec::with_capacity(n),
            s_p1: Vec::with_capacity(n),
            prefix_load: Vec::with_capacity(n + 1),
            total_hat: 0.0,
            member: vec![false; n],
            effort: Cell::new(SweepEffort::default()),
        };
        cache.bind_all(pop);
        cache
    }

    /// Bind the whole population (undoes a previous [`Self::bind_subset`]).
    pub fn bind_all(&mut self, pop: &Population) {
        assert_eq!(pop.len(), self.n, "cache built for another population");
        self.order.clear();
        self.order.extend_from_slice(&self.full_order);
        self.rebuild_prefixes(pop);
    }

    /// Bind a subset of the population given by `indices` (any order,
    /// no duplicates). `O(n)` — filters the presorted full order through
    /// a membership mask instead of re-sorting or cloning CPs.
    pub fn bind_subset(&mut self, pop: &Population, indices: &[usize]) {
        assert_eq!(pop.len(), self.n, "cache built for another population");
        for &i in indices {
            self.member[i] = true;
        }
        self.order.clear();
        for idx in &self.full_order {
            if self.member[*idx] {
                self.order.push(*idx);
            }
        }
        debug_assert_eq!(self.order.len(), indices.len(), "duplicate indices");
        for &i in indices {
            self.member[i] = false;
        }
        self.rebuild_prefixes(pop);
    }

    fn rebuild_prefixes(&mut self, pop: &Population) {
        self.breaks.clear();
        self.s_alpha.clear();
        self.s_fam.clear();
        self.s_p0.clear();
        self.s_p1.clear();
        self.prefix_load.clear();
        let mut load = KahanSum::new();
        let mut hat = KahanSum::new();
        self.prefix_load.push(0.0);
        for &i in &self.order {
            let cp = &pop[i];
            let (fam, p0, p1) = family_params(&cp.demand);
            self.breaks.push(cp.theta_hat);
            self.s_alpha.push(cp.alpha);
            self.s_fam.push(fam);
            self.s_p0.push(p0);
            self.s_p1.push(p1);
            load.add(cp.lambda_per_capita(cp.theta_hat));
            hat.add(cp.lambda_hat_per_capita());
            self.prefix_load.push(load.total());
        }
        self.total_hat = hat.total();
    }

    /// Number of CPs currently bound.
    pub fn bound_len(&self) -> usize {
        self.order.len()
    }

    /// Length of the population the cache was built for (independent of
    /// the currently bound subset).
    pub fn population_len(&self) -> usize {
        self.n
    }

    /// `Σ α·θ̂` over the bound subset (the congestion threshold).
    pub fn total_unconstrained(&self) -> f64 {
        self.total_hat
    }

    /// Effort accumulated since construction or the last
    /// [`Self::take_effort`].
    pub fn effort(&self) -> SweepEffort {
        self.effort.get()
    }

    /// Read and reset the effort counters.
    pub fn take_effort(&self) -> SweepEffort {
        self.effort.replace(SweepEffort::default())
    }

    fn bump(&self, f: impl FnOnce(&mut SweepEffort)) {
        let mut e = self.effort.get();
        f(&mut e);
        self.effort.set(e);
    }

    /// `Λ(w)` given that every bound CP below sorted position `sat` is
    /// saturated (`breaks[j] ≤ w` for all `j < sat`): Kahan prefix plus a
    /// walk over the unsaturated suffix only.
    ///
    /// The suffix walk reads the sorted-order columns snapshotted at bind
    /// time (`breaks`/`s_alpha`/`s_fam`/`s_p0`/`s_p1`) — never the CP
    /// records. Each term computes
    /// `α · (d(min(θ̂, w)) · min(θ̂, w))` through
    /// [`eval_demand`], the exact scalar demand arithmetic and operand
    /// grouping of `cp.lambda_per_capita(cp.theta_hat.min(w))`, and the
    /// Kahan adds run in the same sorted order — so Λ values (and every
    /// water level derived from them) are bit-identical to the
    /// population-walking version this replaced.
    fn lambda_from(&self, sat: usize, w: f64) -> f64 {
        self.bump(|e| e.lambda_evals += 1);
        let mut acc = KahanSum::new();
        acc.add(self.prefix_load[sat]);
        for j in sat..self.order.len() {
            let th = self.breaks[j];
            let theta = th.min(w);
            let d = eval_demand(self.s_fam[j], self.s_p0[j], self.s_p1[j], theta, th);
            acc.add(self.s_alpha[j] * (d * theta));
        }
        acc.total()
    }

    /// Solve the max-min water level of the bound subset at per-capita
    /// capacity `nu`, reading and updating the segment hint in `warm`.
    ///
    /// Returns `+∞` when the bound subset is empty or uncongested
    /// (`Σ α·θ̂ ≤ ν`), matching [`crate::solve_maxmin`]'s convention. The
    /// result is bit-identical whether `warm` carries a hint or not.
    ///
    /// # Errors
    ///
    /// [`RootError`] when the water-level equation is not solvable inside
    /// the breakpoint range — only possible for demand families outside
    /// Assumption 1 (e.g. `d(θ̂) < 1` or NaN-producing). Callers that need
    /// the seed solver's recovery semantics should fall back to
    /// [`crate::try_solve_maxmin`] on error.
    pub fn water_level(
        &self,
        pop: &Population,
        nu: f64,
        tol: Tolerance,
        warm: &mut WarmStart,
    ) -> Result<f64, RootError> {
        assert!(
            nu >= 0.0 && nu.is_finite(),
            "nu must be finite and non-negative, got {nu}"
        );
        // The Λ probes run entirely on the columns snapshotted at bind
        // time; `pop` stays in the signature as the binding check.
        assert_eq!(pop.len(), self.n, "cache built for another population");
        let m = self.order.len();
        if m == 0 || self.total_hat <= nu {
            return Ok(f64::INFINITY);
        }
        self.bump(|e| e.solves += 1);
        let hint = warm.segment;
        if hint.is_some() {
            self.bump(|e| e.warm_solves += 1);
        }

        // Phase 1: locate the first breakpoint j with Λ(θ̂_(j)) ≥ ν. The
        // predicate `Λ(θ̂_(j)) < ν` is monotone non-increasing in j, so
        // binary search and gallop-from-hint find the same j.
        let probes = Cell::new(0u64);
        let pred = |j: usize| -> Result<bool, RootError> {
            probes.set(probes.get() + 1);
            let v = self.lambda_from(j, self.breaks[j]);
            if !v.is_finite() {
                return Err(RootError::NonFinite { at: self.breaks[j] });
            }
            Ok(v < nu)
        };
        // The top breakpoint decides solvability: Λ(θ̂_(m−1)) is the
        // offered load, which exceeds ν for every Assumption-1 family
        // when the congestion predicate fired (d(θ̂) = 1 ⇒ offered =
        // Σ α·θ̂ > ν). Probing it on every solve would waste the most
        // expensive Λ evaluation there is, so `hi = m−1` is an *unprobed
        // sentinel* assumed false: the search only verifies it with a
        // real probe when the root actually lands on the top segment —
        // where a non-Assumption-1 family still surfaces as
        // `NotBracketed`, exactly as an eager check would report it. (A
        // root strictly below the top has pred false at an interior
        // point, which implies pred(m−1) false by monotonicity.)
        let seg = (|| -> Result<usize, RootError> {
            // Invariant: pred is true at `lo` (or lo is the -1 sentinel,
            // where Λ(0⁻) = 0 ≤ ν holds vacuously) and false at `hi` (or
            // hi is the m-1 sentinel, verified at the end if reached).
            let (mut lo, mut hi): (isize, isize) = match hint {
                Some(h) if m >= 2 => {
                    let h = h.min(m - 2) as isize; // keep the sentinel above
                    if pred(h as usize)? {
                        // Root is above the hint: gallop upward.
                        let (mut lo, mut hi) = (h, m as isize - 1);
                        let mut step = 1;
                        while lo + step < hi {
                            if pred((lo + step) as usize)? {
                                lo += step;
                                step *= 2;
                            } else {
                                hi = lo + step;
                                break;
                            }
                        }
                        (lo, hi)
                    } else {
                        // Root is at or below the hint: gallop downward.
                        let (mut lo, mut hi) = (-1, h);
                        let mut step = 1;
                        while hi - step > lo {
                            if pred((hi - step) as usize)? {
                                lo = hi - step;
                                break;
                            }
                            hi -= step;
                            step *= 2;
                        }
                        (lo, hi)
                    }
                }
                _ => (-1, m as isize - 1),
            };
            while hi - lo > 1 {
                let mid = lo + (hi - lo) / 2;
                if pred(mid as usize)? {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            let seg = hi as usize;
            if seg == m - 1 && pred(m - 1)? {
                return Err(RootError::NotBracketed {
                    f_lo: -nu,
                    f_hi: self.prefix_load[m] - nu,
                });
            }
            Ok(seg)
        })()?;
        self.bump(|e| e.segment_probes += probes.get());
        if hint.is_some_and(|h| h.abs_diff(seg) <= 1) {
            self.bump(|e| e.warm_hits += 1);
        }

        // Phase 2: refine inside [θ̂_(seg−1), θ̂_(seg)] (left edge 0 for
        // the first segment). Identical bracket and tolerance regardless
        // of how `seg` was located ⇒ bit-identical warm vs cold.
        let lo = if seg == 0 { 0.0 } else { self.breaks[seg - 1] };
        let hi = self.breaks[seg];
        let (w, iters) = bisect_counted(|w| self.lambda_from(seg, w) - nu, lo, hi, tol)?;
        self.bump(|e| e.bisect_iters += u64::from(iters));
        warm.segment = Some(seg);
        Ok(w.max(0.0))
    }
}

/// [`crate::try_solve_maxmin`] on a [`SweepCache`]: same contract and
/// recovery semantics, but the water-level search runs the warm-startable
/// two-phase solve, and the cache's sorted prefix makes each Λ probe
/// cheaper. On a phase failure (non-Assumption-1 demand) it re-solves
/// through [`crate::try_solve_maxmin`], so pathological inputs get its
/// recovery policy and degrade identically.
///
/// # Errors
///
/// [`EquilibriumError::WaterLevel`] when even the recovery policy could
/// not solve the water-level equation.
pub fn try_solve_maxmin_warm(
    pop: &Population,
    nu: f64,
    tol: Tolerance,
    policy: &SolverPolicy,
    cache: &SweepCache,
    warm: &mut WarmStart,
) -> Result<(RateEquilibrium, SolveStats), EquilibriumError> {
    assert_eq!(
        cache.bound_len(),
        pop.len(),
        "cache must be bound to the full population"
    );
    if pop.is_empty() {
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
    let congested = cache.total_unconstrained() > nu;
    let before = cache.effort();
    let water = if !congested {
        f64::INFINITY
    } else {
        match cache.water_level(pop, nu, tol, warm) {
            Ok(w) => w,
            Err(_) => {
                let (eq, mut stats) = try_solve_maxmin(pop, nu, tol, policy)?;
                stats.lambda_evals += cache.effort().lambda_evals - before.lambda_evals;
                return Ok((eq, stats));
            }
        }
    };
    let delta_evals = cache.effort().lambda_evals - before.lambda_evals;
    let delta_iters = (cache.effort().bisect_iters - before.bisect_iters) as u32;

    // Profile assembly through the columnar batch kernels — bit-identical
    // to the scalar per-CP maps they replace (min(θ̂, ∞) = θ̂ covers the
    // uncongested arm exactly).
    let cols = pop.columnar();
    let mut thetas = Vec::new();
    cols.eval_thetas_at_water_into(water, &mut thetas);
    let mut demands = Vec::new();
    cols.eval_demands_into(&thetas, &mut demands);
    let aggregate = cols.aggregate_per_capita(&demands, &thetas);
    Ok((
        RateEquilibrium {
            nu,
            thetas,
            demands,
            aggregate,
            water_level: Some(water),
        },
        SolveStats {
            lambda_evals: delta_evals,
            bisect_iters: delta_iters,
            congested,
            recovery_attempts: 0,
        },
    ))
}

/// Solve the max-min rate equilibrium at every capacity in `nus`, owning
/// one [`SweepCache`] across the whole batch and warm-starting each point
/// from its predecessor's segment.
///
/// Results are bit-identical to calling the cache cold per point (the
/// warm start is exact — see the module docs); relative to the seed
/// [`crate::solve_maxmin`] they agree to the root tolerance. Points are
/// solved left to right; callers that parallelise should split `nus`
/// into fixed-size chunks and run one `solve_sweep` per chunk so outputs
/// do not depend on the thread count.
///
/// # Panics
///
/// Panics if the water-level equation is unsolvable even after recovery —
/// impossible for Assumption-1 demand families (use
/// [`try_solve_maxmin_warm`] point-wise to sweep pathological ones).
pub fn solve_sweep(pop: &Population, nus: &[f64], tol: Tolerance) -> Vec<RateEquilibrium> {
    solve_sweep_traced(pop, nus, tol).0
}

/// [`solve_sweep`], additionally reporting the accumulated solver effort.
pub fn solve_sweep_traced(
    pop: &Population,
    nus: &[f64],
    tol: Tolerance,
) -> (Vec<RateEquilibrium>, SweepEffort) {
    let cache = SweepCache::new(pop);
    let mut warm = WarmStart::COLD;
    let policy = SolverPolicy::default();
    let eqs = nus
        .iter()
        .map(|&nu| {
            try_solve_maxmin_warm(pop, nu, tol, &policy, &cache, &mut warm)
                .expect("Λ(0)=0 ≤ ν < Σλ̂ = Λ(max θ̂): root is bracketed for Assumption-1 demand")
                .0
        })
        .collect();
    (eqs, cache.effort())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::solve_maxmin;
    use proptest::prelude::*;
    use pubopt_demand::archetypes::figure3_trio;
    use pubopt_demand::{ContentProvider, DemandKind, Population};

    fn trio() -> Population {
        figure3_trio().into()
    }

    fn mixed_pop(n: usize) -> Population {
        (0..n)
            .map(|i| {
                let f = (i as f64 + 0.5) / n as f64;
                ContentProvider::new(
                    0.1 + 0.9 * f,
                    0.3 + 6.0 * ((i * 11) % n) as f64 / n as f64,
                    DemandKind::exponential(6.0 * ((i * 5) % n) as f64 / n as f64),
                    0.5,
                    0.5,
                )
            })
            .collect()
    }

    /// The new kernel agrees with the seed solver to the root tolerance.
    #[test]
    fn matches_seed_solver_on_trio() {
        let pop = trio();
        let cache = SweepCache::new(&pop);
        for nu in [0.0, 0.1, 0.5, 1.0, 2.0, 4.0, 5.4, 6.0, 10.0] {
            let mut warm = WarmStart::COLD;
            let w = cache
                .water_level(&pop, nu, Tolerance::STRICT, &mut warm)
                .unwrap();
            let seed = solve_maxmin(&pop, nu, Tolerance::STRICT);
            let ws = seed.water_level.unwrap();
            if ws.is_infinite() {
                assert!(w.is_infinite(), "nu={nu}: {w} vs inf");
            } else {
                assert!((w - ws).abs() < 1e-9 * (1.0 + ws), "nu={nu}: {w} vs {ws}");
            }
        }
    }

    /// Warm solves are bit-identical to cold solves — the headline
    /// exactness guarantee of the two-phase design.
    #[test]
    fn warm_is_bit_identical_to_cold() {
        let pop = mixed_pop(60);
        let cache = SweepCache::new(&pop);
        let nus: Vec<f64> = (1..80).map(|k| 0.04 * k as f64).collect();
        let mut warm = WarmStart::COLD;
        for &nu in &nus {
            let w_warm = cache
                .water_level(&pop, nu, Tolerance::default(), &mut warm)
                .unwrap();
            let mut cold = WarmStart::COLD;
            let w_cold = cache
                .water_level(&pop, nu, Tolerance::default(), &mut cold)
                .unwrap();
            assert!(
                w_warm == w_cold || (w_warm.is_infinite() && w_cold.is_infinite()),
                "nu={nu}: warm {w_warm} != cold {w_cold}"
            );
            assert_eq!(warm.segment, cold.segment, "nu={nu}: segment differs");
        }
    }

    /// Warm starts cut Λ evaluations on a fine grid (the regression test
    /// for cold-bracket waste, counted via `bisect_counted`-backed
    /// effort counters).
    #[test]
    fn warm_sweep_uses_fewer_probes_than_cold() {
        let pop = mixed_pop(400);
        let nus: Vec<f64> = (1..200).map(|k| 0.01 * k as f64).collect();

        let cache_cold = SweepCache::new(&pop);
        for &nu in &nus {
            let mut cold = WarmStart::COLD;
            cache_cold
                .water_level(&pop, nu, Tolerance::default(), &mut cold)
                .unwrap();
        }
        let cold = cache_cold.effort();

        let cache_warm = SweepCache::new(&pop);
        let mut warm = WarmStart::COLD;
        for &nu in &nus {
            cache_warm
                .water_level(&pop, nu, Tolerance::default(), &mut warm)
                .unwrap();
        }
        let w = cache_warm.effort();

        assert_eq!(cold.solves, w.solves);
        assert!(w.warm_solves >= w.solves - 1);
        assert!(
            w.segment_probes * 2 < cold.segment_probes,
            "warm probes {} vs cold {}",
            w.segment_probes,
            cold.segment_probes
        );
        assert!(
            w.warm_hits * 10 >= w.warm_solves * 9,
            "adjacent grid points should hit the hinted segment: {} of {}",
            w.warm_hits,
            w.warm_solves
        );
    }

    #[test]
    fn solve_sweep_matches_pointwise_seed() {
        let pop = mixed_pop(50);
        let nus: Vec<f64> = (1..40).map(|k| 0.1 * k as f64).collect();
        let (eqs, effort) = solve_sweep_traced(&pop, &nus, Tolerance::STRICT);
        assert_eq!(eqs.len(), nus.len());
        assert!(effort.solves > 0);
        for (eq, &nu) in eqs.iter().zip(&nus) {
            let seed = solve_maxmin(&pop, nu, Tolerance::STRICT);
            for i in 0..pop.len() {
                assert!(
                    (eq.thetas[i] - seed.thetas[i]).abs() < 1e-8 * (1.0 + seed.thetas[i]),
                    "nu={nu} i={i}: {} vs {}",
                    eq.thetas[i],
                    seed.thetas[i]
                );
            }
            assert!((eq.aggregate - seed.aggregate).abs() < 1e-7 * (1.0 + seed.aggregate));
        }
    }

    #[test]
    fn subset_bind_matches_select_solve() {
        let pop = mixed_pop(40);
        let mut cache = SweepCache::new(&pop);
        let indices: Vec<usize> = (0..40).filter(|i| i % 3 != 0).collect();
        cache.bind_subset(&pop, &indices);
        let sub = pop.select(&indices);
        for nu in [0.2, 0.8, 2.0, 5.0] {
            let mut warm = WarmStart::COLD;
            let w = cache
                .water_level(&pop, nu, Tolerance::STRICT, &mut warm)
                .unwrap();
            let seed = solve_maxmin(&sub, nu, Tolerance::STRICT);
            let ws = seed.water_level.unwrap();
            if ws.is_infinite() {
                assert!(w.is_infinite());
            } else {
                assert!((w - ws).abs() < 1e-9 * (1.0 + ws), "nu={nu}: {w} vs {ws}");
            }
        }
        // Rebinding the full population restores whole-pop solves.
        cache.bind_all(&pop);
        assert_eq!(cache.bound_len(), pop.len());
    }

    #[test]
    fn empty_and_uncongested_are_infinite() {
        let pop = trio();
        let cache = SweepCache::new(&pop);
        let mut warm = WarmStart::COLD;
        // Σλ̂ = 5.5 < 10 ⇒ uncongested.
        let w = cache
            .water_level(&pop, 10.0, Tolerance::default(), &mut warm)
            .unwrap();
        assert!(w.is_infinite());
        let mut cache = cache;
        cache.bind_subset(&pop, &[]);
        let w = cache
            .water_level(&pop, 0.5, Tolerance::default(), &mut warm)
            .unwrap();
        assert!(w.is_infinite());
    }

    #[test]
    fn zero_capacity_water_is_zero() {
        let pop = trio();
        let cache = SweepCache::new(&pop);
        let mut warm = WarmStart::COLD;
        let w = cache
            .water_level(&pop, 0.0, Tolerance::default(), &mut warm)
            .unwrap();
        assert_eq!(w, 0.0);
    }

    #[test]
    fn try_solve_warm_matches_try_solve_cold_api() {
        let pop = mixed_pop(30);
        let cache = SweepCache::new(&pop);
        let mut warm = WarmStart::COLD;
        for nu in [0.3, 1.0, 3.0, 50.0] {
            let (eq, stats) = try_solve_maxmin_warm(
                &pop,
                nu,
                Tolerance::STRICT,
                &SolverPolicy::default(),
                &cache,
                &mut warm,
            )
            .unwrap();
            let (seed, seed_stats) =
                try_solve_maxmin(&pop, nu, Tolerance::STRICT, &SolverPolicy::default()).unwrap();
            assert_eq!(stats.congested, seed_stats.congested, "nu={nu}");
            for i in 0..pop.len() {
                assert!((eq.thetas[i] - seed.thetas[i]).abs() < 1e-8 * (1.0 + seed.thetas[i]));
                assert!((eq.demands[i] - seed.demands[i]).abs() < 1e-8);
            }
        }
    }

    #[test]
    fn stale_hint_far_from_root_still_exact() {
        let pop = mixed_pop(100);
        let cache = SweepCache::new(&pop);
        // Hint at the top segment, root near the bottom (tiny ν), and the
        // reverse — galloping across the whole range must stay exact.
        for (nu, hint) in [(0.01, 99usize), (2.5, 0usize)] {
            let mut warm = WarmStart {
                segment: Some(hint),
            };
            let w = cache
                .water_level(&pop, nu, Tolerance::STRICT, &mut warm)
                .unwrap();
            let mut cold = WarmStart::COLD;
            let wc = cache
                .water_level(&pop, nu, Tolerance::STRICT, &mut cold)
                .unwrap();
            assert_eq!(w, wc, "nu={nu} hint={hint}");
        }
    }

    prop_compose! {
        fn arb_pop()(specs in prop::collection::vec((0.05f64..1.0, 0.2f64..15.0, 0.0f64..8.0), 1..12)) -> Population {
            specs.into_iter()
                .map(|(a, th, b)| ContentProvider::new(a, th, DemandKind::exponential(b), 0.5, 0.5))
                .collect()
        }
    }

    proptest! {
        /// Warm-started solves agree with cold solves across random sweep
        /// neighbours (satellite: warm/cold agreement on arbitrary
        /// populations) — and both agree with the seed solver.
        #[test]
        fn warm_equals_cold_across_random_neighbors(
            p in arb_pop(),
            frac in 0.01f64..1.2,
            step in -0.2f64..0.2,
        ) {
            let total = p.total_unconstrained_per_capita();
            let nu0 = total * frac;
            let nu1 = (nu0 + total * step).max(0.0);
            let cache = SweepCache::new(&p);
            let mut warm = WarmStart::COLD;
            // Solve nu0 to warm the hint, then nu1 warm vs cold.
            cache.water_level(&p, nu0, Tolerance::STRICT, &mut warm).unwrap();
            let w_warm = cache.water_level(&p, nu1, Tolerance::STRICT, &mut warm).unwrap();
            let mut cold = WarmStart::COLD;
            let w_cold = cache.water_level(&p, nu1, Tolerance::STRICT, &mut cold).unwrap();
            prop_assert!(
                w_warm == w_cold || (w_warm.is_infinite() && w_cold.is_infinite()),
                "warm {} != cold {}", w_warm, w_cold
            );
            let seed = solve_maxmin(&p, nu1, Tolerance::STRICT);
            let ws = seed.water_level.unwrap();
            if ws.is_finite() {
                prop_assert!((w_cold - ws).abs() < 1e-8 * (1.0 + ws),
                    "cache {} vs seed {}", w_cold, ws);
            } else {
                prop_assert!(w_cold.is_infinite());
            }
        }

        /// Aggregate throughput at the cache's water level satisfies
        /// Axiom 2 (λ = min(ν, Σλ̂)) on arbitrary populations.
        #[test]
        fn axiom2_through_cache(p in arb_pop(), nu in 0.0f64..40.0) {
            let (eqs, _) = solve_sweep_traced(&p, &[nu], Tolerance::STRICT);
            let expect = nu.min(p.total_unconstrained_per_capita());
            prop_assert!((eqs[0].aggregate - expect).abs() < 1e-6 * (1.0 + expect),
                "aggregate {} expect {}", eqs[0].aggregate, expect);
        }
    }
}
