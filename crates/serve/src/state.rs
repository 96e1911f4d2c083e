//! Long-lived solver state shared across requests.
//!
//! Two pools live behind the daemon, both keyed by canonicalized
//! parameters:
//!
//! * [`ScenarioStore`] — materialized [`Population`]s per
//!   `(scenario kind, n)`. Ensemble generation is deterministic, so a
//!   stored population is exactly what a fresh request would build; at
//!   million-CP scale generation is seconds of work the store pays once.
//! * [`WarmPool`] — per-scenario warm solver state reused across
//!   requests: a [`SweepCache`]` + `[`WarmStart`] pair for rate-equilibrium
//!   queries, and a [`GameWarmStart`] per `(scenario, n, κ)` for strategy
//!   sweeps. Both warm paths are *exact* (hints change effort, never
//!   values — the PR 3 contract, re-asserted by the serve byte-identity
//!   tests), so near-neighbor grid queries get cheaper without the
//!   response bytes ever depending on request history.
//!
//! Entries are wrapped in per-entry mutexes: the pool lock is held only
//! to find an entry's slot, never for its build or a solve, so a long
//! cache build or solve on one scenario never blocks another scenario's
//! requests.

use pubopt_core::GameWarmStart;
use pubopt_demand::Population;
use pubopt_eq::{SweepCache, WarmStart};
use pubopt_workload::{Scenario, ScenarioKind};
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, Mutex, OnceLock};

/// Hard cap on resident populations; at the default request limits the
/// largest entry is a ~2M-CP ensemble, so a handful is all a workload
/// mixes in practice.
const MAX_SCENARIOS: usize = 8;

/// Deterministic population pool.
#[derive(Debug, Default)]
pub struct ScenarioStore {
    pops: Mutex<HashMap<(ScenarioKind, usize), Arc<Population>>>,
}

impl ScenarioStore {
    /// Fetch (or build) the population for `(kind, n)`.
    ///
    /// `n` follows [`Scenario::load_scaled`] semantics: ensembles are
    /// regenerated at `n` CPs; the trio is fixed and ignores `n`.
    pub fn population(&self, kind: ScenarioKind, n: usize) -> Arc<Population> {
        let key = (kind, n);
        if let Some(pop) = self.pops.lock().expect("scenario store poisoned").get(&key) {
            return Arc::clone(pop);
        }
        // Generate outside the lock: population builds are seconds at
        // million-CP scale and other scenarios should not stall. A racing
        // request may build the same population twice; both builds are
        // identical (deterministic seed), so last-write-wins is harmless.
        let pop = Arc::new(Scenario::load_scaled(kind, n).pop);
        let mut pops = self.pops.lock().expect("scenario store poisoned");
        if pops.len() >= MAX_SCENARIOS && !pops.contains_key(&key) {
            // Populations are rebuildable at a known cost; dropping an
            // arbitrary resident beats growing without bound.
            if let Some(evict) = pops.keys().next().copied() {
                pops.remove(&evict);
            }
        }
        pops.entry(key).or_insert_with(|| Arc::clone(&pop));
        pop
    }

    /// Number of resident populations.
    pub fn resident(&self) -> usize {
        self.pops.lock().expect("scenario store poisoned").len()
    }
}

/// Warm state for rate-equilibrium queries on one population.
#[derive(Debug)]
pub struct EqWarmEntry {
    /// Sorted-prefix solver cache bound to the full population.
    pub cache: SweepCache,
    /// Segment hint carried from the previous solve.
    pub warm: WarmStart,
}

/// A warm entry, built at most once. The map lock covers only finding
/// the slot; the build runs under the slot's `OnceLock`, so callers for
/// the same key wait on the slot, and callers for other keys, and
/// `/v1/stats`, never wait on a build.
type Slot<V> = Arc<OnceLock<Arc<Mutex<V>>>>;

/// Keyed registry of shared warm entries: one lock for the map, one per
/// entry for the solve.
type EntryMap<K, V> = Mutex<HashMap<K, Slot<V>>>;

/// The entry for `key`, built by `build` on first use.
fn get_or_build<K: Eq + Hash, V>(
    map: &EntryMap<K, V>,
    key: K,
    build: impl FnOnce() -> V,
) -> Arc<Mutex<V>> {
    let slot = Arc::clone(
        map.lock()
            .expect("warm pool poisoned")
            .entry(key)
            .or_default(),
    );
    Arc::clone(slot.get_or_init(|| Arc::new(Mutex::new(build()))))
}

/// Entries of `map` whose build has finished.
fn built<K, V>(map: &EntryMap<K, V>) -> usize {
    let map = map.lock().expect("warm pool poisoned");
    map.values().filter(|slot| slot.get().is_some()).count()
}

/// Cross-request warm solver state.
#[derive(Debug, Default)]
pub struct WarmPool {
    eq: EntryMap<(ScenarioKind, usize), EqWarmEntry>,
    game: EntryMap<(ScenarioKind, usize, u64), GameWarmStart>,
}

impl WarmPool {
    /// The equilibrium warm entry for `(kind, n)`, built on first use.
    pub fn eq_entry(
        &self,
        kind: ScenarioKind,
        n: usize,
        pop: &Population,
    ) -> Arc<Mutex<EqWarmEntry>> {
        get_or_build(&self.eq, (kind, n), || EqWarmEntry {
            cache: SweepCache::new(pop),
            warm: WarmStart::COLD,
        })
    }

    /// Number of resident warm entries across both maps (equilibrium and
    /// game), for `/v1/stats`. An entry still being built is not counted.
    pub fn resident_entries(&self) -> usize {
        built(&self.eq) + built(&self.game)
    }

    /// The strategy-game warm start for `(kind, n, κ)`, built cold on
    /// first use. Keyed by the κ bit pattern: carrying a partition across
    /// κ values would still be exact, but κ moves the premium capacity
    /// split discontinuously, so per-κ entries keep the warm hint rate
    /// high for grid clients that sweep c at fixed κ.
    pub fn game_entry(
        &self,
        kind: ScenarioKind,
        n: usize,
        kappa: f64,
    ) -> Arc<Mutex<GameWarmStart>> {
        get_or_build(&self.game, (kind, n, kappa.to_bits()), GameWarmStart::new)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_returns_the_same_population_instance() {
        let store = ScenarioStore::default();
        let a = store.population(ScenarioKind::Trio, 3);
        let b = store.population(ScenarioKind::Trio, 3);
        assert!(Arc::ptr_eq(&a, &b), "second fetch must hit the store");
        assert_eq!(store.resident(), 1);
    }

    #[test]
    fn store_scales_ensembles() {
        let store = ScenarioStore::default();
        let pop = store.population(ScenarioKind::PaperEnsemble, 50);
        assert_eq!(pop.len(), 50);
        assert_eq!(store.resident(), 1);
        let other = store.population(ScenarioKind::PaperEnsemble, 60);
        assert_eq!(other.len(), 60);
        assert_eq!(store.resident(), 2);
    }

    #[test]
    fn warm_pool_entries_are_shared_and_keyed() {
        let store = ScenarioStore::default();
        let pop = store.population(ScenarioKind::Trio, 3);
        let pool = WarmPool::default();
        let a = pool.eq_entry(ScenarioKind::Trio, 3, &pop);
        let b = pool.eq_entry(ScenarioKind::Trio, 3, &pop);
        assert!(Arc::ptr_eq(&a, &b));
        let g1 = pool.game_entry(ScenarioKind::Trio, 3, 0.5);
        let g2 = pool.game_entry(ScenarioKind::Trio, 3, 0.5);
        let g3 = pool.game_entry(ScenarioKind::Trio, 3, 1.0);
        assert!(Arc::ptr_eq(&g1, &g2));
        assert!(
            !Arc::ptr_eq(&g1, &g3),
            "distinct κ gets distinct warm state"
        );
        assert_eq!(pool.resident_entries(), 3);
    }
}
