//! The sharded scenario cache: canonical request key → rendered response.
//!
//! Serving "what-if" queries is dominated by repeated scenarios — the
//! same `(scenario, ν, κ, c-grid)` asked again by a different client — so
//! the daemon caches *finished response bodies* keyed by the canonical
//! parameter encoding (see [`crate::api`]). Storing bytes rather than
//! solver structs makes the hit path allocation-free up to one `Arc`
//! clone and makes the warm-vs-cold byte-identity contract trivial on
//! hits: a hit literally replays the first solve's bytes.
//!
//! Sharding: keys are FNV-1a-hashed onto `shards` independent locks, so
//! concurrent clients on different scenarios never contend. Each shard is
//! an LRU bounded at `per_shard` entries, implemented as a `HashMap` with
//! a monotone touch tick and evict-the-stalest scan — O(capacity) per
//! eviction, which at the designed shard sizes (≤ a few hundred entries)
//! is noise next to the equilibrium solve that produced the entry.
//!
//! Hit/miss/evict counts are kept in always-on atomics, read by
//! [`ShardedCache::stats`] and reported by `/v1/stats`.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Point-in-time cache counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups that returned a cached body.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries displaced by capacity.
    pub evictions: u64,
    /// Entries currently resident (across all shards).
    pub entries: u64,
}

#[derive(Debug)]
struct Shard {
    entries: HashMap<String, (u64, Arc<String>)>,
    tick: u64,
}

impl Shard {
    fn touch_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }
}

/// Sharded LRU response cache. Cheap to clone via [`Arc`] one level up;
/// the struct itself is `Sync` and shared by reference.
#[derive(Debug)]
pub struct ShardedCache {
    shards: Vec<Mutex<Shard>>,
    per_shard: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl ShardedCache {
    /// Build a cache with `shards` independent locks, each bounded at
    /// `per_shard` entries.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(shards: usize, per_shard: usize) -> Self {
        assert!(shards > 0, "need at least one shard");
        assert!(per_shard > 0, "shards must hold at least one entry");
        Self {
            shards: (0..shards)
                .map(|_| {
                    Mutex::new(Shard {
                        entries: HashMap::new(),
                        tick: 0,
                    })
                })
                .collect(),
            per_shard,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn shard_index(&self, key: &str) -> usize {
        // FNV-1a: deterministic across runs (unlike `DefaultHasher`), so
        // shard placement — and therefore eviction order — is exactly
        // reproducible for a replayed workload.
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in key.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        // Multiply-shift, not `h % len`: a modulus consumes only the
        // hash's low bits — exactly where FNV-1a's diffusion is weakest —
        // and for non-power-of-two counts the 2^64 range doesn't divide
        // evenly across residues. `(h·len) >> 64` maps the full hash
        // range onto shards in equal-width strips, keyed by the high
        // bits, with no count-dependent bias.
        ((u128::from(h) * self.shards.len() as u128) >> 64) as usize
    }

    fn shard_of(&self, key: &str) -> &Mutex<Shard> {
        &self.shards[self.shard_index(key)]
    }

    /// Look up `key`, refreshing its recency on a hit.
    pub fn get(&self, key: &str) -> Option<Arc<String>> {
        let mut shard = self.shard_of(key).lock().expect("cache shard poisoned");
        let tick = shard.touch_tick();
        match shard.entries.get_mut(key) {
            Some((last_used, body)) => {
                *last_used = tick;
                let body = Arc::clone(body);
                drop(shard);
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(body)
            }
            None => {
                drop(shard);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Insert (or refresh) `key → body`, evicting the least-recently-used
    /// entry of the target shard when it is full.
    pub fn insert(&self, key: &str, body: Arc<String>) {
        let mut shard = self.shard_of(key).lock().expect("cache shard poisoned");
        let tick = shard.touch_tick();
        if !shard.entries.contains_key(key) && shard.entries.len() >= self.per_shard {
            if let Some(stalest) = shard
                .entries
                .iter()
                .min_by_key(|(_, (used, _))| *used)
                .map(|(k, _)| k.clone())
            {
                shard.entries.remove(&stalest);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        shard.entries.insert(key.to_owned(), (tick, body));
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: self
                .shards
                .iter()
                .map(|s| s.lock().expect("cache shard poisoned").entries.len() as u64)
                .sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_then_hit() {
        let cache = ShardedCache::new(4, 8);
        assert!(cache.get("a").is_none());
        cache.insert("a", Arc::new("body-a".to_owned()));
        assert_eq!(cache.get("a").unwrap().as_str(), "body-a");
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.evictions, s.entries), (1, 1, 0, 1));
    }

    #[test]
    fn lru_evicts_the_stalest_entry() {
        // One shard so eviction order is fully determined.
        let cache = ShardedCache::new(1, 2);
        cache.insert("a", Arc::new("A".into()));
        cache.insert("b", Arc::new("B".into()));
        assert!(cache.get("a").is_some()); // refresh a; b is now stalest
        cache.insert("c", Arc::new("C".into()));
        assert!(cache.get("b").is_none(), "b was LRU and must be gone");
        assert!(cache.get("a").is_some());
        assert!(cache.get("c").is_some());
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn reinserting_an_existing_key_does_not_evict() {
        let cache = ShardedCache::new(1, 2);
        cache.insert("a", Arc::new("A".into()));
        cache.insert("b", Arc::new("B".into()));
        cache.insert("a", Arc::new("A2".into()));
        assert_eq!(cache.stats().evictions, 0);
        assert_eq!(cache.get("a").unwrap().as_str(), "A2");
        assert!(cache.get("b").is_some());
    }

    #[test]
    fn shard_placement_is_deterministic() {
        // The same key sequence produces the same stats on every run —
        // the property the serve determinism tests lean on.
        let run = || {
            let cache = ShardedCache::new(8, 2);
            for i in 0..100 {
                let key = format!("k{}", i % 24);
                if cache.get(&key).is_none() {
                    cache.insert(&key, Arc::new(format!("v{i}")));
                }
            }
            cache.stats()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn placement_is_balanced_for_non_power_of_two_shard_counts() {
        // The multiply-shift map must spread realistic canonical keys
        // close to uniformly even when the shard count is not a power of
        // two (where `h % len` consumes FNV's weakly-diffused low bits
        // and skews). Keys mimic the canonical-key shape real requests
        // hash: fixed prose, one varying bit-pattern field.
        for shards in [3usize, 5, 6, 7, 12, 24] {
            let cache = ShardedCache::new(shards, 1);
            let keys = 24_000;
            let mut loads = vec![0u64; shards];
            for i in 0..keys {
                let nu = f64::from_bits(0x3fe0_0000_0000_0000 | (i as u64) << 13);
                let key = format!("eq|paper|n=1000|nu={:016x}|profile=0", nu.to_bits());
                loads[cache.shard_index(&key)] += 1;
            }
            let expected = keys as f64 / shards as f64;
            for (j, &load) in loads.iter().enumerate() {
                let ratio = load as f64 / expected;
                assert!(
                    (0.8..=1.2).contains(&ratio),
                    "shard {j}/{shards} holds {load} of {keys} keys \
                     ({ratio:.2}x uniform)"
                );
            }
        }
    }

    #[test]
    fn concurrent_hammering_is_consistent() {
        let cache = Arc::new(ShardedCache::new(4, 16));
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let cache = Arc::clone(&cache);
                std::thread::spawn(move || {
                    for i in 0..500 {
                        let key = format!("k{}", (t * 31 + i) % 40);
                        match cache.get(&key) {
                            Some(v) => assert_eq!(v.as_str(), key),
                            None => cache.insert(&key, Arc::new(key.clone())),
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let s = cache.stats();
        assert_eq!(s.hits + s.misses, 8 * 500);
        assert!(s.entries <= 4 * 16);
    }
}
