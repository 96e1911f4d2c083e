//! Sorted-prefix max-min water-filling: the scalable form of
//! [`MaxMinFair`](crate::MaxMinFair).
//!
//! The reference solver re-sorts the population and rescans every CP per
//! call, so a capacity sweep at `n` CPs costs O(n log n) *per grid
//! point*. The load curve it inverts,
//!
//! ```text
//! L(w) = Σ_i m_i · min(θ̂_i, w),      m_i = α_i d_i,
//! ```
//!
//! is piecewise linear with breakpoints at the sorted `θ̂`s, and on the
//! segment where the first `k` sorted CPs are saturated it reads
//!
//! ```text
//! L(w) = P_load[k] + (P_mass[n] − P_mass[k]) · w,
//! P_mass[k] = Σ_{j<k} m_(j),   P_load[k] = Σ_{j<k} m_(j) θ̂_(j),
//! ```
//!
//! so after one O(n log n) sort (amortised over a population's lifetime)
//! and one O(n) prefix pass per demand profile, every water-level query
//! is an O(log n) binary search for the segment containing `ν` plus one
//! division — *exact*, like the reference: no iteration, no tolerance.
//! The prefix sums are Kahan-compensated, so the two solvers agree to
//! ~1e-12 relative (they sum the same terms in the same sorted order,
//! differing only in compensation bookkeeping), which the property tests
//! pin down.
//!
//! [`ScratchArena`] complements the cache for allocation queries: sweeps
//! that need per-point throughput profiles recycle buffers through it
//! instead of allocating a fresh `Vec` per grid point.

use crate::RateAllocator;
use pubopt_demand::Population;
use pubopt_num::KahanSum;
use std::cell::RefCell;

/// Demand-profile cache for O(log n) water-level queries.
///
/// Construction sorts the population once; [`set_demands`] refreshes the
/// prefix sums in O(n) without re-sorting; [`water_level`] then answers
/// any capacity query in O(log n). The cache is bound to the population
/// it was built from (same length and `θ̂` layout) — rebuild it when the
/// population changes.
///
/// [`set_demands`]: SortedDemands::set_demands
/// [`water_level`]: SortedDemands::water_level
#[derive(Debug, Clone)]
pub struct SortedDemands {
    /// CP indices sorted ascending by `θ̂` (ties keep index order).
    order: Vec<usize>,
    /// `θ̂` in sorted order (the breakpoints of the load curve).
    caps: Vec<f64>,
    /// `prefix_mass[k] = Σ_{j<k} m_(j)` (Kahan), length `n + 1`.
    prefix_mass: Vec<f64>,
    /// `prefix_load[k] = Σ_{j<k} m_(j) θ̂_(j)` (Kahan), length `n + 1`.
    prefix_load: Vec<f64>,
    /// Reused demand buffer for [`set_demands_columnar`]
    /// (original-order `d_i(θ_i)` from the batch kernel).
    ///
    /// [`set_demands_columnar`]: SortedDemands::set_demands_columnar
    demand_scratch: Vec<f64>,
}

impl SortedDemands {
    /// Sort `pop` by `θ̂` and prepare the cache with full demand
    /// (`d_i = 1` for every CP).
    ///
    /// # Panics
    ///
    /// Panics if any `θ̂` is NaN.
    pub fn new(pop: &Population) -> Self {
        let mut order: Vec<usize> = (0..pop.len()).collect();
        order.sort_by(|&a, &b| {
            pop[a]
                .theta_hat
                .partial_cmp(&pop[b].theta_hat)
                .expect("theta_hat must not be NaN")
        });
        let caps: Vec<f64> = order.iter().map(|&i| pop[i].theta_hat).collect();
        let mut cache = Self {
            order,
            caps,
            prefix_mass: Vec::new(),
            prefix_load: Vec::new(),
            demand_scratch: Vec::new(),
        };
        let ones = vec![1.0; pop.len()];
        cache.set_demands(pop, &ones);
        cache
    }

    /// Refresh the prefix sums for a new demand profile (O(n), no sort).
    ///
    /// # Panics
    ///
    /// Panics if `demands` length mismatches the population the cache was
    /// built from, or any demand lies outside `[0, 1]`.
    pub fn set_demands(&mut self, pop: &Population, demands: &[f64]) {
        assert_eq!(
            self.order.len(),
            demands.len(),
            "demand profile length {} != population size {}",
            demands.len(),
            self.order.len()
        );
        assert_eq!(
            pop.len(),
            demands.len(),
            "cache bound to another population"
        );
        for (i, &d) in demands.iter().enumerate() {
            assert!(
                (0.0..=1.0 + 1e-9).contains(&d),
                "demand[{i}] = {d} outside [0, 1]"
            );
        }
        let n = self.order.len();
        self.prefix_mass.clear();
        self.prefix_load.clear();
        self.prefix_mass.reserve(n + 1);
        self.prefix_load.reserve(n + 1);
        let mut mass = KahanSum::new();
        let mut load = KahanSum::new();
        self.prefix_mass.push(0.0);
        self.prefix_load.push(0.0);
        for (k, &i) in self.order.iter().enumerate() {
            let m = pop[i].alpha * demands[i];
            mass.add(m);
            load.add(m * self.caps[k]);
            self.prefix_mass.push(mass.total());
            self.prefix_load.push(load.total());
        }
    }

    /// Refresh the prefix sums from a *throughput* profile, evaluating
    /// the demand profile `d_i(θ_i)` through the columnar batch kernel
    /// ([`pubopt_demand::ColumnarPopulation::eval_demands_into`]) instead
    /// of a scalar per-CP loop.
    ///
    /// Bit-identical to computing `demands[i] = pop[i].demand_at(thetas[i])`
    /// by hand and calling [`set_demands`](SortedDemands::set_demands):
    /// the batch kernel reproduces the scalar demand arithmetic exactly
    /// and the prefix pass is shared. The demand buffer is recycled
    /// across calls, so steady-state sweeps allocate nothing here.
    ///
    /// # Panics
    ///
    /// Panics if `thetas` length mismatches the population the cache was
    /// built from (and under the same conditions as `set_demands`).
    pub fn set_demands_columnar(&mut self, pop: &Population, thetas: &[f64]) {
        let mut demands = std::mem::take(&mut self.demand_scratch);
        pop.columnar().eval_demands_into(thetas, &mut demands);
        self.set_demands(pop, &demands);
        self.demand_scratch = demands;
    }

    /// Number of CPs the cache covers.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// `true` when built from an empty population.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// The offered load `Σ m_i θ̂_i` of the cached demand profile.
    pub fn offered_load(&self) -> f64 {
        *self.prefix_load.last().unwrap_or(&0.0)
    }

    /// The total flow mass `Σ m_i` of the cached demand profile.
    pub fn total_mass(&self) -> f64 {
        *self.prefix_mass.last().unwrap_or(&0.0)
    }

    /// The water level for per-capita capacity `nu` — O(log n), exact.
    ///
    /// Returns `f64::INFINITY` when the offered load fits within `ν`,
    /// matching [`MaxMinFair::water_level`](crate::MaxMinFair::water_level).
    ///
    /// # Panics
    ///
    /// Panics unless `nu` is finite and non-negative.
    pub fn water_level(&self, nu: f64) -> f64 {
        assert!(
            nu >= 0.0 && nu.is_finite(),
            "nu must be finite and >= 0, got {nu}"
        );
        let n = self.order.len();
        let total_mass = self.total_mass();
        let offered = self.offered_load();
        if offered <= nu || total_mass == 0.0 {
            return f64::INFINITY;
        }
        // L(caps[k]) = prefix_load[k] + (total − prefix_mass[k])·caps[k]
        // is the load with the water at breakpoint k; it is non-decreasing
        // in k, so the first segment able to absorb ν is found by binary
        // search on L(caps[k]) ≥ ν.
        let k = partition_point(n, |k| {
            self.prefix_load[k] + (total_mass - self.prefix_mass[k]) * self.caps[k] < nu
        });
        if k == n {
            // offered > ν guarantees a binding segment; reaching here is
            // rounding noise at the top breakpoint (mirrors the reference
            // solver's fallthrough).
            return *self.caps.last().unwrap();
        }
        let remaining = total_mass - self.prefix_mass[k];
        if remaining <= 0.0 {
            // All mass saturated before ν was absorbed: numerical dust
            // (mathematically L(caps[n-1]) = offered > ν fires first).
            return self.caps[k.saturating_sub(1)];
        }
        ((nu - self.prefix_load[k]) / remaining).max(0.0)
    }

    /// The aggregate load `L(w) = Σ_i m_i · min(θ̂_i, w)` of the cached
    /// demand profile at water level `w` — the inverse query of
    /// [`water_level`](SortedDemands::water_level), O(log n).
    ///
    /// This is the partial-aggregate read a shard daemon answers during a
    /// distributed fixed-demand water-filling: the segment containing `w`
    /// is found by binary search on the sorted breakpoints, and the load
    /// is one prefix-array read plus a fused tail term. Exact for the
    /// *cached* demand profile; note that the equilibrium Λ(w) re-evaluates
    /// `d_i(min(θ̂_i, w))` at every probe, so the O(log n) curve only
    /// coincides with Λ when demands are constant in θ — the byte-identical
    /// distributed solve ships blocked Kahan partials instead (see
    /// `pubopt_eq::source`). `w = ∞` returns the offered load.
    ///
    /// # Panics
    ///
    /// Panics if `w` is NaN or negative.
    pub fn load_at(&self, w: f64) -> f64 {
        assert!(w >= 0.0, "water level must be >= 0 and not NaN, got {w}");
        if w.is_infinite() {
            // remaining·w would be 0·∞ = NaN below; the limit is exact.
            return self.offered_load();
        }
        let n = self.order.len();
        // First breakpoint strictly above the water: CPs before it are
        // saturated (θ̂ ≤ w), the rest ride at the water level.
        let k = partition_point(n, |k| self.caps[k] <= w);
        self.prefix_load[k] + (self.total_mass() - self.prefix_mass[k]) * w
    }

    /// Write the throughput profile `θ_i = min(θ̂_i, w)` for water level
    /// `w` into `out` (resized to the population, original index order).
    pub fn allocate_into(&self, w: f64, out: &mut Vec<f64>) {
        out.clear();
        out.resize(self.order.len(), 0.0);
        for (k, &i) in self.order.iter().enumerate() {
            out[i] = self.caps[k].min(w);
        }
    }
}

/// `slice::partition_point` over `0..n` without materialising a slice:
/// first `k` in `0..=n` for which `pred(k)` is false (pred must be
/// monotone true→false... i.e. true on a prefix).
fn partition_point(n: usize, pred: impl Fn(usize) -> bool) -> usize {
    let (mut lo, mut hi) = (0usize, n);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if pred(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Buffer pool for allocation-free sweeps: grid points `take` a buffer,
/// fill it via [`SortedDemands::allocate_into`], and `recycle` it when
/// done, so steady-state sweeps perform zero heap allocation per point.
#[derive(Debug, Default)]
pub struct ScratchArena {
    pool: RefCell<Vec<Vec<f64>>>,
}

impl ScratchArena {
    /// An empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Take a buffer (contents unspecified; callers overwrite).
    pub fn take(&self) -> Vec<f64> {
        self.pool.borrow_mut().pop().unwrap_or_default()
    }

    /// Return a buffer to the pool for reuse.
    pub fn recycle(&self, buf: Vec<f64>) {
        self.pool.borrow_mut().push(buf);
    }

    /// Buffers currently pooled.
    pub fn pooled(&self) -> usize {
        self.pool.borrow().len()
    }
}

/// [`RateAllocator`] facade over [`SortedDemands`]: drop-in for
/// [`MaxMinFair`](crate::MaxMinFair), amortising the sort across calls on
/// the same population. The first `allocate` on a population sorts it;
/// subsequent calls only refresh prefix sums (O(n)) and query (O(log n)).
/// The cache rebinds automatically when the population changes (detected
/// by length or `θ̂` layout).
#[derive(Debug, Default)]
pub struct MaxMinFast {
    cache: RefCell<Option<SortedDemands>>,
}

impl MaxMinFast {
    /// A fresh allocator with an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    fn with_cache<R>(
        &self,
        pop: &Population,
        demands: &[f64],
        f: impl FnOnce(&SortedDemands) -> R,
    ) -> R {
        let mut slot = self.cache.borrow_mut();
        let rebuild = match slot.as_ref() {
            Some(c) => {
                c.len() != pop.len()
                    || c.order
                        .iter()
                        .zip(c.caps.iter())
                        .any(|(&i, &cap)| pop[i].theta_hat != cap)
            }
            None => true,
        };
        if rebuild {
            *slot = Some(SortedDemands::new(pop));
        }
        let cache = slot.as_mut().expect("cache just ensured");
        cache.set_demands(pop, demands);
        f(cache)
    }
}

impl RateAllocator for MaxMinFast {
    fn allocate(&self, pop: &Population, demands: &[f64], nu: f64) -> Vec<f64> {
        if pop.is_empty() {
            assert_eq!(demands.len(), 0, "demand profile for empty population");
            return Vec::new();
        }
        self.with_cache(pop, demands, |cache| {
            let w = cache.water_level(nu);
            let mut out = Vec::new();
            cache.allocate_into(w, &mut out);
            out
        })
    }

    fn name(&self) -> &'static str {
        "max-min (sorted-prefix)"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::maxmin::MaxMinFair;
    use crate::{check_axioms, offered_load};
    use proptest::prelude::*;
    use pubopt_demand::{ContentProvider, DemandKind, Population};

    fn cp(alpha: f64, theta_hat: f64) -> ContentProvider {
        ContentProvider::new(alpha, theta_hat, DemandKind::Constant, 0.0, 0.0)
    }

    fn pop3() -> Population {
        vec![cp(1.0, 1.0), cp(0.3, 10.0), cp(0.5, 3.0)].into()
    }

    #[test]
    fn agrees_on_known_points() {
        let p = pop3();
        let cache = SortedDemands::new(&p);
        // Unconstrained: offered = 5.5.
        assert_eq!(cache.water_level(10.0), f64::INFINITY);
        // Severe congestion: w = 0.9 / 1.8 = 0.5.
        assert!((cache.water_level(0.9) - 0.5).abs() < 1e-15);
        // Zero capacity.
        assert_eq!(cache.water_level(0.0), 0.0);
        assert!((cache.offered_load() - 5.5).abs() < 1e-12);
        assert!((cache.total_mass() - 1.8).abs() < 1e-12);
    }

    #[test]
    fn allocate_matches_reference_order() {
        let p = pop3();
        let d = vec![1.0, 0.7, 0.4];
        let nu = 2.0;
        let fast = MaxMinFast::new().allocate(&p, &d, nu);
        let slow = MaxMinFair.allocate(&p, &d, nu);
        assert_eq!(fast.len(), slow.len());
        for (a, b) in fast.iter().zip(slow.iter()) {
            assert!((a - b).abs() < 1e-12, "{a} vs {b}");
        }
    }

    #[test]
    fn cache_rebinds_on_population_change() {
        let mech = MaxMinFast::new();
        let p1 = pop3();
        let p2: Population = vec![cp(1.0, 2.0), cp(1.0, 4.0), cp(1.0, 8.0)].into();
        let d = vec![1.0; 3];
        let a1 = mech.allocate(&p1, &d, 2.0);
        let a2 = mech.allocate(&p2, &d, 2.0);
        let b2 = MaxMinFair.allocate(&p2, &d, 2.0);
        for (a, b) in a2.iter().zip(b2.iter()) {
            assert!((a - b).abs() < 1e-12);
        }
        // And going back also rebinds.
        let b1 = MaxMinFair.allocate(&p1, &d, 2.0);
        let a1b = mech.allocate(&p1, &d, 2.0);
        assert_eq!(a1, a1b);
        for (a, b) in a1b.iter().zip(b1.iter()) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn empty_population() {
        assert!(MaxMinFast::new()
            .allocate(&Population::default(), &[], 5.0)
            .is_empty());
        let cache = SortedDemands::new(&Population::default());
        assert_eq!(cache.water_level(1.0), f64::INFINITY);
        assert!(cache.is_empty());
    }

    #[test]
    fn scratch_arena_recycles() {
        let arena = ScratchArena::new();
        let mut a = arena.take();
        a.push(1.0);
        let cap = a.capacity();
        arena.recycle(a);
        assert_eq!(arena.pooled(), 1);
        let b = arena.take();
        assert_eq!(b.capacity(), cap, "recycled buffer keeps its capacity");
        assert_eq!(arena.pooled(), 0);
    }

    #[test]
    fn columnar_set_demands_bit_identical_to_scalar() {
        // Mixed families so every batch-kernel arm feeds the prefix pass.
        let p: Population = vec![
            ContentProvider::new(0.9, 1.0, DemandKind::exponential(4.0), 0.0, 0.0),
            ContentProvider::new(0.3, 10.0, DemandKind::Constant, 0.0, 0.0),
            ContentProvider::new(0.5, 3.0, DemandKind::smoothed_step(0.6, 0.2), 0.0, 0.0),
            ContentProvider::new(0.7, 5.0, DemandKind::logistic(8.0, 0.4), 0.0, 0.0),
            ContentProvider::new(0.2, 2.0, DemandKind::constant_elasticity(1.5), 0.0, 0.0),
        ]
        .into();
        let thetas: Vec<f64> = p.iter().map(|c| c.theta_hat * 0.6).collect();
        let demands: Vec<f64> = p
            .iter()
            .zip(&thetas)
            .map(|(c, &t)| c.demand_at(t))
            .collect();

        let mut scalar = SortedDemands::new(&p);
        scalar.set_demands(&p, &demands);
        let mut columnar = SortedDemands::new(&p);
        columnar.set_demands_columnar(&p, &thetas);

        assert_eq!(
            scalar.offered_load().to_bits(),
            columnar.offered_load().to_bits()
        );
        assert_eq!(
            scalar.total_mass().to_bits(),
            columnar.total_mass().to_bits()
        );
        let offered = scalar.offered_load();
        for frac in [0.0, 0.1, 0.5, 0.9, 1.1] {
            let nu = offered * frac;
            assert_eq!(
                scalar.water_level(nu).to_bits(),
                columnar.water_level(nu).to_bits(),
                "water level at nu = {nu}"
            );
        }
    }

    #[test]
    fn satisfies_axioms() {
        let p = pop3();
        let d = vec![1.0, 0.7, 0.4];
        let grid = [0.0, 0.5, 1.0, 2.0, 4.0, 8.0];
        let r = check_axioms(&MaxMinFast::new(), &p, &d, &grid, 1e-8);
        assert!(r.passed(), "{r:?}");
    }

    #[test]
    fn load_at_matches_direct_sum() {
        let p = pop3();
        let d = vec![1.0, 0.7, 0.4];
        let mut cache = SortedDemands::new(&p);
        cache.set_demands(&p, &d);
        for w in [0.0, 0.3, 1.0, 2.5, 3.0, 7.9, 8.0, 50.0] {
            let direct: f64 = p
                .iter()
                .zip(&d)
                .map(|(cp, &di)| cp.alpha * di * cp.theta_hat.min(w))
                .sum();
            let fast = cache.load_at(w);
            assert!(
                (fast - direct).abs() <= 1e-12 * (1.0 + direct.abs()),
                "w={w}: {fast} vs {direct}"
            );
        }
        assert_eq!(cache.load_at(f64::INFINITY), cache.offered_load());
        assert_eq!(cache.load_at(0.0), 0.0);
    }

    #[test]
    fn load_at_inverts_water_level() {
        // On the congested range, L(water_level(ν)) recovers ν: the two
        // O(log n) queries are inverses over the same prefix arrays.
        let p = pop3();
        let d = vec![0.9, 0.6, 1.0];
        let mut cache = SortedDemands::new(&p);
        cache.set_demands(&p, &d);
        let offered = cache.offered_load();
        for frac in [0.05, 0.2, 0.5, 0.8, 0.99] {
            let nu = offered * frac;
            let w = cache.water_level(nu);
            let back = cache.load_at(w);
            assert!(
                (back - nu).abs() <= 1e-9 * (1.0 + nu),
                "frac={frac}: L(w({nu})) = {back}"
            );
        }
    }

    #[test]
    fn load_at_is_monotone_and_empty_safe() {
        let empty = SortedDemands::new(&Population::default());
        assert_eq!(empty.load_at(3.0), 0.0);
        assert_eq!(empty.load_at(f64::INFINITY), 0.0);

        let p = pop3();
        let cache = SortedDemands::new(&p); // full demand
        let mut prev = -1.0;
        for k in 0..=100 {
            let w = 0.1 * k as f64;
            let l = cache.load_at(w);
            assert!(l >= prev, "load curve must be non-decreasing");
            prev = l;
        }
    }

    #[test]
    #[should_panic(expected = "water level must be")]
    fn load_at_rejects_negative_water() {
        SortedDemands::new(&pop3()).load_at(-1.0);
    }

    #[test]
    #[should_panic(expected = "demand profile length")]
    fn rejects_length_mismatch() {
        MaxMinFast::new().allocate(&pop3(), &[1.0], 1.0);
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn rejects_invalid_demand() {
        MaxMinFast::new().allocate(&pop3(), &[1.0, 2.0, 1.0], 1.0);
    }

    /// The kernel's reason to exist, as a timing check with a margin wide
    /// enough for debug builds: at 10k CPs the cached kernel answers 64
    /// congested water-level queries (O(log n) each) in less time than
    /// the reference full scan (O(n) each). Preemption can only slow a
    /// batch down, so the kernel keeps its best of three batches and the
    /// reference needs just one.
    #[test]
    fn cached_kernel_outpaces_the_reference_scan_at_10k_cps() {
        let mut rng = pubopt_num::Rng::seed_from_u64(0xfa57);
        let p: Population = (0..10_000)
            .map(|_| cp(rng.uniform(0.01, 1.0), rng.uniform(0.1, 20.0)))
            .collect();
        let demands = vec![1.0; p.len()];
        let cache = SortedDemands::new(&p);
        let nus: Vec<f64> = (0..64)
            .map(|j| cache.offered_load() * (j as f64 + 0.5) / 64.0)
            .collect();
        let batch = |level: &dyn Fn(f64) -> f64| {
            let t = std::time::Instant::now();
            let sum: f64 = nus.iter().map(|&nu| level(std::hint::black_box(nu))).sum();
            std::hint::black_box(sum);
            t.elapsed()
        };
        let fast = (0..3)
            .map(|_| batch(&|nu| cache.water_level(nu)))
            .min()
            .expect("three batches");
        let reference = batch(&|nu| MaxMinFair::water_level(&p, &demands, nu));
        assert!(
            fast < reference,
            "cached kernel {fast:?} vs reference scan {reference:?}"
        );
    }

    prop_compose! {
        fn arb_pop()(specs in prop::collection::vec((0.01f64..1.0, 0.1f64..20.0), 1..16)) -> Population {
            specs.into_iter().map(|(a, th)| cp(a, th)).collect()
        }
    }

    proptest! {
        /// The tentpole exactness property: the sorted-prefix kernel and
        /// the reference breakpoint sweep agree to 1e-12 on arbitrary
        /// populations and demand profiles — including zero-demand CPs
        /// (every third CP dormant), zero capacity, and all-unconstrained
        /// regimes (`frac` > 1 pushes ν beyond the offered load).
        #[test]
        fn water_level_matches_reference(p in arb_pop(), frac in 0.0f64..1.4, seed in 0u64..1000) {
            let demands: Vec<f64> = (0..p.len())
                .map(|i| if (seed + i as u64).is_multiple_of(3) { 0.0 } else { ((seed + i as u64) % 11) as f64 / 10.0 })
                .collect();
            let nu = offered_load(&p, &demands) * frac;
            let slow = MaxMinFair::water_level(&p, &demands, nu);
            let mut cache = SortedDemands::new(&p);
            cache.set_demands(&p, &demands);
            let fast = cache.water_level(nu);
            if slow.is_finite() {
                prop_assert!(
                    (fast - slow).abs() <= 1e-12 * (1.0 + slow.abs()),
                    "fast {} vs reference {} at nu {}", fast, slow, nu
                );
            } else {
                prop_assert_eq!(fast, slow, "unconstrained regimes must agree exactly");
            }
        }

        /// Full allocation profiles agree elementwise to 1e-12.
        #[test]
        fn allocation_matches_reference(p in arb_pop(), frac in 0.0f64..1.2, seed in 0u64..1000) {
            let demands: Vec<f64> = (0..p.len())
                .map(|i| ((seed + i as u64) % 11) as f64 / 10.0)
                .collect();
            let nu = offered_load(&p, &demands) * frac;
            let fast = MaxMinFast::new().allocate(&p, &demands, nu);
            let slow = MaxMinFair.allocate(&p, &demands, nu);
            for (i, (a, b)) in fast.iter().zip(slow.iter()).enumerate() {
                prop_assert!((a - b).abs() <= 1e-12 * (1.0 + b.abs()), "theta[{}]: {} vs {}", i, a, b);
            }
        }

        /// Queries at many capacities from ONE cache agree with fresh
        /// reference solves — the reuse pattern sweeps rely on.
        #[test]
        fn cached_queries_match_fresh_solves(p in arb_pop(), fracs in prop::collection::vec(0.0f64..1.2, 1..8)) {
            let demands = vec![1.0; p.len()];
            let offered = offered_load(&p, &demands);
            let cache = SortedDemands::new(&p);
            for frac in fracs {
                let nu = offered * frac;
                let slow = MaxMinFair::water_level(&p, &demands, nu);
                let fast = cache.water_level(nu);
                if slow.is_finite() {
                    prop_assert!((fast - slow).abs() <= 1e-12 * (1.0 + slow.abs()));
                } else {
                    prop_assert_eq!(fast, slow);
                }
            }
        }
    }
}
