//! Seeded traffic owned by the benchmark.
//!
//! Every stream is a pure function of the seed: the same seed yields the
//! same request bytes in the same order, so two commits can be measured
//! on identical inputs. Continuous parameters walk a golden-ratio
//! low-discrepancy sequence from a small seeded offset: any seed covers
//! each parameter range evenly in the same order, so every question is
//! new to the daemon while a run's cost profile does not swing with the
//! seed.

use std::fmt::Write as _;

/// SplitMix64: small, fast and good enough to draw benchmark inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` (distinct seeds give unrelated streams).
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5EED_5EED_5EED_5EED)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n.max(1)
    }
}

/// Largest seeded offset of a [`Spread`]: seeds shift every parameter
/// sequence by less than this share of its range.
const SEED_SHIFT: f64 = 0.02;

/// Golden-ratio sequence `frac(offset + k / φ)`: evenly spread in `[0, 1)`
/// for every offset.
#[derive(Debug, Clone)]
struct Spread {
    x: f64,
}

impl Spread {
    fn new(rng: &mut Rng) -> Self {
        Spread {
            x: SEED_SHIFT * rng.unit(),
        }
    }

    fn next(&mut self) -> f64 {
        self.x = (self.x + 0.618_033_988_749_894_8).fract();
        self.x
    }

    /// Next value mapped onto `[lo, hi)`.
    fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next()
    }
}

/// Which endpoint a request exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Class {
    /// `/v1/equilibrium`.
    Equilibrium,
    /// `/v1/strategy`.
    Strategy,
    /// `/v1/whatif`.
    Whatif,
    /// `/v1/capacity`.
    Capacity,
    /// `/v1/dist/solve`.
    Dist,
}

impl Class {
    /// Endpoint label, as the daemon names it.
    pub fn name(self) -> &'static str {
        match self {
            Class::Equilibrium => "equilibrium",
            Class::Strategy => "strategy",
            Class::Whatif => "whatif",
            Class::Capacity => "capacity",
            Class::Dist => "dist",
        }
    }

    /// Request path.
    pub fn path(self) -> &'static str {
        match self {
            Class::Equilibrium => "/v1/equilibrium",
            Class::Strategy => "/v1/strategy",
            Class::Whatif => "/v1/whatif",
            Class::Capacity => "/v1/capacity",
            Class::Dist => "/v1/dist/solve",
        }
    }
}

/// One generated request.
#[derive(Debug, Clone, PartialEq)]
pub struct Req {
    /// Endpoint class.
    pub class: Class,
    /// JSON body.
    pub body: String,
}

/// CP count of the `/v1/equilibrium` questions on `solve-mix`.
pub const MIX_EQ_N: usize = 1_000_000;
/// CP count of the `/v1/strategy` questions on `solve-mix`.
pub const MIX_STRATEGY_N: usize = 1000;
/// CP count of the `/v1/whatif` questions on `solve-mix`.
pub const MIX_WHATIF_N: usize = 100;
/// Simulated consumer scale of the `/v1/whatif` questions on `solve-mix`.
pub const MIX_WHATIF_FLOWS: usize = 20_000;
/// CP count of the `/v1/dist/solve` questions on `dist-solve`.
pub const DIST_N: usize = 100_000;
/// Questions in the `hot-cache` hot set.
pub const HOT_SET: usize = 64;

/// Class order of one `solve-mix` cycle. A fixed cycle, not a random
/// draw, keeps every run's class shares equal whatever the seed.
const MIX_CYCLE: [Class; 8] = [
    Class::Equilibrium,
    Class::Strategy,
    Class::Whatif,
    Class::Capacity,
    Class::Strategy,
    Class::Equilibrium,
    Class::Whatif,
    Class::Strategy,
];

/// Premium capacity fractions the strategy questions rotate through.
const KAPPAS: [f64; 3] = [0.25, 0.5, 1.0];

/// Congested per-capita capacity range of the paper ensemble, as a
/// fraction of the CP count (saturation is about 0.25 n).
const NU_FRAC: (f64, f64) = (0.08, 0.23);

/// The four question shapes, each drawing from its own sequences.
struct Questions {
    rng: Rng,
    eq_nu: Spread,
    strat_nu: Spread,
    strat_c: Spread,
    whatif_nu: Spread,
    whatif_kc: Spread,
    cap: Spread,
    strategies: usize,
}

impl Questions {
    fn new(seed: u64) -> Self {
        let mut rng = Rng::new(seed);
        Questions {
            eq_nu: Spread::new(&mut rng),
            strat_nu: Spread::new(&mut rng),
            strat_c: Spread::new(&mut rng),
            whatif_nu: Spread::new(&mut rng),
            whatif_kc: Spread::new(&mut rng),
            cap: Spread::new(&mut rng),
            strategies: 0,
            rng,
        }
    }

    fn nu(spread: &mut Spread, n: usize) -> f64 {
        spread.range(NU_FRAC.0 * n as f64, NU_FRAC.1 * n as f64)
    }

    fn equilibrium(&mut self, n: usize, profile: bool) -> Req {
        let nu = Self::nu(&mut self.eq_nu, n);
        let mut body = format!(r#"{{"scenario":"paper","n":{n},"nu":{nu}"#);
        if profile {
            body.push_str(r#","include_profile":true"#);
        }
        body.push('}');
        Req {
            class: Class::Equilibrium,
            body,
        }
    }

    fn strategy(&mut self, n: usize) -> Req {
        let nu = Self::nu(&mut self.strat_nu, n);
        let kappa = KAPPAS[self.strategies % KAPPAS.len()];
        self.strategies += 1;
        // Five ascending charges: one per fifth of [0, 1), placed by the
        // shared sequence plus a seeded jitter.
        let base = self.strat_c.next();
        let mut cs = String::new();
        for j in 0..5 {
            let u = (base + SEED_SHIFT * self.rng.unit()).fract();
            let c = (j as f64 + 0.1 + 0.8 * u) / 5.0;
            if j > 0 {
                cs.push(',');
            }
            let _ = write!(cs, "{c}");
        }
        Req {
            class: Class::Strategy,
            body: format!(
                r#"{{"scenario":"paper","n":{n},"nu":{nu},"kappa":{kappa},"cs":[{cs}]}}"#
            ),
        }
    }

    fn whatif(&mut self, n: usize, flows: usize) -> Req {
        let nu = Self::nu(&mut self.whatif_nu, n);
        let u = self.whatif_kc.next();
        let kappa = 0.2 + 0.7 * u;
        let c = 0.05 + 0.5 * (u * 7.0 + SEED_SHIFT * self.rng.unit()).fract();
        Req {
            class: Class::Whatif,
            body: format!(
                r#"{{"scenario":"paper","n":{n},"nu":{nu},"kappa":{kappa},"c":{c},"flows":{flows}}}"#
            ),
        }
    }

    fn capacity(&mut self) -> Req {
        // The trio saturates at ν = 5.5.
        let nu = self.cap.range(1.0, 4.5);
        let target = 0.6 + 0.35 * (nu * 3.0 + SEED_SHIFT * self.rng.unit()).fract();
        Req {
            class: Class::Capacity,
            body: format!(
                r#"{{"scenario":"trio","n":3,"nu":{nu},"target_fraction":{target},"c_max":1.0,"grid_n":4}}"#
            ),
        }
    }
}

/// `solve-mix`: `len` distinct questions cycling through the four
/// solver-backed endpoints at analyst scale.
pub fn solve_mix(seed: u64, len: usize) -> Vec<Req> {
    let mut q = Questions::new(seed);
    (0..len)
        .map(|i| match MIX_CYCLE[i % MIX_CYCLE.len()] {
            Class::Equilibrium => q.equilibrium(MIX_EQ_N, false),
            Class::Strategy => q.strategy(MIX_STRATEGY_N),
            Class::Whatif => q.whatif(MIX_WHATIF_N, MIX_WHATIF_FLOWS),
            Class::Capacity => q.capacity(),
            Class::Dist => unreachable!("solve-mix has no distributed class"),
        })
        .collect()
}

/// `hot-cache` hot set: [`HOT_SET`] questions from the same classes at
/// small n. A quarter of them are equilibria, half of those carrying full
/// profiles (bodies of tens of KB beside 200-byte ones).
pub fn hot_set(seed: u64) -> Vec<Req> {
    let mut q = Questions::new(seed.wrapping_add(0x4807));
    let per = HOT_SET / 4;
    let mut out = Vec::with_capacity(HOT_SET);
    for i in 0..per {
        out.push(q.equilibrium(1000, i % 2 == 0));
        out.push(q.strategy(100));
        out.push(q.whatif(20, 2000));
        out.push(q.capacity());
    }
    out
}

/// Question shapes of the hot set (endpoint, and for equilibria whether
/// a profile is carried): [`hot_set`] repeats them with this period.
const HOT_SHAPES: usize = 8;

/// Open-loop schedule over the hot set: `count` hot-set indices drawn
/// with Zipf(1) popularity over a seeded ranking of the hot set. The
/// ranking shuffles questions only among those of the same shape, so
/// every seed gives each popularity rank a question of the same endpoint
/// and body size, and the mix of cheap and 40 KB answers does not swing
/// with the seed.
pub fn hot_schedule(seed: u64, count: usize) -> Vec<usize> {
    let mut rng = Rng::new(seed.wrapping_add(0x5C4E));
    let mut ranking: Vec<usize> = (0..HOT_SET).collect();
    for shape in 0..HOT_SHAPES {
        let members: Vec<usize> = (shape..HOT_SET).step_by(HOT_SHAPES).collect();
        let mut shuffled = members.clone();
        for i in (1..shuffled.len()).rev() {
            shuffled.swap(i, rng.below(i + 1));
        }
        for (&rank, &h) in members.iter().zip(&shuffled) {
            ranking[rank] = h;
        }
    }
    let cdf: Vec<f64> = (1..=HOT_SET)
        .scan(0.0, |acc, r| {
            *acc += 1.0 / r as f64;
            Some(*acc)
        })
        .collect();
    let total = cdf[HOT_SET - 1];
    (0..count)
        .map(|_| {
            let u = rng.unit() * total;
            let r = cdf.partition_point(|&c| c <= u).min(HOT_SET - 1);
            ranking[r]
        })
        .collect()
}

/// `dist-solve`: `len` distributed solves of the 100k-CP ensemble at
/// distinct congested capacities.
pub fn dist(seed: u64, len: usize) -> Vec<Req> {
    let mut q = Questions::new(seed.wrapping_add(0xD157));
    (0..len)
        .map(|_| {
            let nu = Questions::nu(&mut q.eq_nu, DIST_N);
            Req {
                class: Class::Dist,
                body: format!(r#"{{"scenario":"paper","n":{DIST_N},"nu":{nu}}}"#),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bytes(reqs: &[Req]) -> String {
        reqs.iter()
            .map(|r| format!("{} {}\n", r.class.path(), r.body))
            .collect()
    }

    #[test]
    fn same_seed_same_bytes() {
        assert_eq!(bytes(&solve_mix(7, 200)), bytes(&solve_mix(7, 200)));
        assert_eq!(bytes(&hot_set(7)), bytes(&hot_set(7)));
        assert_eq!(hot_schedule(7, 5000), hot_schedule(7, 5000));
        assert_eq!(bytes(&dist(7, 50)), bytes(&dist(7, 50)));
    }

    #[test]
    fn different_seed_different_bytes() {
        assert_ne!(bytes(&solve_mix(7, 200)), bytes(&solve_mix(8, 200)));
        assert_ne!(bytes(&hot_set(7)), bytes(&hot_set(8)));
        assert_ne!(hot_schedule(7, 5000), hot_schedule(8, 5000));
        assert_ne!(bytes(&dist(7, 50)), bytes(&dist(8, 50)));
    }

    #[test]
    fn streams_have_no_repeated_question() {
        for reqs in [solve_mix(3, 2000), hot_set(3), dist(3, 500)] {
            let mut seen = std::collections::HashSet::new();
            for r in &reqs {
                assert!(seen.insert(r.body.clone()), "repeated body {}", r.body);
            }
        }
    }

    #[test]
    fn every_request_is_valid_for_the_daemon() {
        for r in solve_mix(11, 64).iter().chain(&hot_set(11)) {
            pubopt_serve::ApiRequest::parse(r.class.path(), &r.body)
                .unwrap_or_else(|e| panic!("{} rejected: {}", r.body, e.message));
        }
        for r in dist(11, 16) {
            pubopt_serve::DistParams::parse(&r.body).unwrap();
        }
    }

    #[test]
    fn solve_mix_keeps_its_class_shares() {
        let reqs = solve_mix(5, 800);
        let count = |c: Class| reqs.iter().filter(|r| r.class == c).count();
        assert_eq!(count(Class::Equilibrium), 200);
        assert_eq!(count(Class::Strategy), 300);
        assert_eq!(count(Class::Whatif), 200);
        assert_eq!(count(Class::Capacity), 100);
    }

    #[test]
    fn hot_schedule_keeps_its_shape_mix_across_seeds() {
        let share = |seed| {
            let s = hot_schedule(seed, 20_000);
            let profiles = s.iter().filter(|&&h| h % HOT_SHAPES == 0).count();
            profiles as f64 / s.len() as f64
        };
        let (a, b) = (share(1), share(2));
        assert!(
            a > 0.05 && (a - b).abs() < 0.01,
            "profile shares {a} vs {b}"
        );
        for h in (0..HOT_SET).step_by(HOT_SHAPES) {
            assert!(hot_set(3)[h].body.contains("include_profile"));
        }
    }

    #[test]
    fn hot_schedule_is_skewed_but_covers_the_set() {
        let s = hot_schedule(1, 20_000);
        let mut hits = vec![0usize; HOT_SET];
        for &i in &s {
            hits[i] += 1;
        }
        let max = *hits.iter().max().unwrap();
        let min = *hits.iter().min().unwrap();
        assert!(min > 0, "every hot question is asked");
        assert!(max > 20 * min, "popularity is Zipf-skewed: {max} vs {min}");
    }
}
