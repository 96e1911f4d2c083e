//! Oligopolistic ISP competition (§IV).
//!
//! Consumers subscribe to one of several ISPs and migrate toward higher
//! per-capita consumer surplus until surpluses equalise (Assumption 5).
//! An equilibrium of the second stage (Definition 4) is a market-share
//! vector `{m_I}` plus per-ISP CP partitions such that (1) each ISP's CP
//! partition is a competitive equilibrium of its single-ISP game at
//! `ν_I = γ_I ν / m_I`, and (2) every ISP with subscribers delivers the
//! same surplus level, while empty ISPs cannot beat that level even when
//! completely uncongested.
//!
//! Two market-share solvers (DESIGN.md ablation A3):
//!
//! * [`market_share_equilibrium`] — *level bisection*: for a candidate
//!   surplus level `L`, each ISP's share demand `m_I(L)` (largest share at
//!   which it still delivers `L`) is found by inner bisection; the level
//!   is then bisected until shares sum to one. Deterministic and robust
//!   to the (small) discontinuities of `Φ_I(m)`.
//! * [`tatonnement`] — the literal Assumption-5 dynamic: repeatedly shift
//!   share from below-average-surplus ISPs to above-average ones. Slower,
//!   but it *is* the behavioural story; tests verify both agree.

use crate::best_response::{
    competitive_equilibrium, competitive_equilibrium_warm, GameWarmStart, PartitionSolution,
};
use crate::outcome::GameOutcome;
use crate::strategy::IspStrategy;
use pubopt_demand::Population;
use pubopt_eq::SweepEffort;
use pubopt_num::{SolverPolicy, Tolerance};

/// Smallest share treated as "has subscribers" by the solvers.
const M_MIN: f64 = 1e-6;

/// One competing ISP.
#[derive(Debug, Clone, PartialEq)]
pub struct Isp {
    /// Label for reports.
    pub name: String,
    /// First-stage strategy `s_I = (κ_I, c_I)`.
    pub strategy: IspStrategy,
    /// Capacity share `γ_I = µ_I / µ` (shares must sum to 1 across the
    /// game).
    pub capacity_share: f64,
}

impl Isp {
    /// Construct an ISP.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_share ∉ (0, 1]`.
    pub fn new(name: impl Into<String>, strategy: IspStrategy, capacity_share: f64) -> Self {
        assert!(
            capacity_share > 0.0 && capacity_share <= 1.0,
            "capacity share must be in (0,1], got {capacity_share}"
        );
        Self {
            name: name.into(),
            strategy,
            capacity_share,
        }
    }

    /// A Public Option ISP (Definition 5): fixed neutral strategy `(0,0)`.
    pub fn public_option(capacity_share: f64) -> Self {
        Self::new("public-option", IspStrategy::NEUTRAL, capacity_share)
    }
}

/// A multi-ISP game `(M, µ, N, I)` in per-capita units.
#[derive(Debug, Clone)]
pub struct MarketGame {
    /// Competing ISPs (capacity shares must sum to 1).
    pub isps: Vec<Isp>,
    /// System-wide per-capita capacity `ν = µ / M`.
    pub nu_total: f64,
}

impl MarketGame {
    /// Construct a game, validating capacity shares.
    ///
    /// # Panics
    ///
    /// Panics if shares do not sum to 1 (±1e-9), the ISP list is empty, or
    /// `nu_total` is negative/non-finite.
    pub fn new(isps: Vec<Isp>, nu_total: f64) -> Self {
        assert!(!isps.is_empty(), "need at least one ISP");
        assert!(
            nu_total >= 0.0 && nu_total.is_finite(),
            "nu_total must be finite"
        );
        let total: f64 = isps.iter().map(|i| i.capacity_share).sum();
        assert!(
            (total - 1.0).abs() < 1e-9,
            "capacity shares must sum to 1, got {total}"
        );
        Self { isps, nu_total }
    }

    /// ISP `idx`'s per-capita capacity when it holds market share `m`.
    pub fn nu_of(&self, idx: usize, m: f64) -> f64 {
        self.isps[idx].capacity_share * self.nu_total / m.max(M_MIN)
    }

    /// Per-subscriber consumer surplus `Φ_I` delivered by ISP `idx` at
    /// market share `m` (resolving its CP partition equilibrium).
    pub fn phi_at(&self, pop: &Population, idx: usize, m: f64, tol: Tolerance) -> f64 {
        self.phi_at_warm(pop, idx, m, tol, &mut MarketWarmStart::cold())
    }

    /// [`MarketGame::phi_at`] through a [`MarketWarmStart`]: the inner
    /// partition-equilibrium solve reuses ISP `idx`'s carried
    /// [`GameWarmStart`] (sorted-prefix cache, segment hints, settled
    /// partition) when the warm start is in carry mode.
    pub fn phi_at_warm(
        &self,
        pop: &Population,
        idx: usize,
        m: f64,
        tol: Tolerance,
        warm: &mut MarketWarmStart,
    ) -> f64 {
        let nu = self.nu_of(idx, m);
        warm.solve(pop, nu, self.isps[idx].strategy, idx, tol)
            .outcome
            .consumer_surplus(pop)
    }

    /// Saturation surplus `Φ̄_I`: what ISP `idx` delivers with essentially
    /// no subscribers (fully uncongested in both classes).
    pub fn phi_saturation(&self, pop: &Population, idx: usize, tol: Tolerance) -> f64 {
        // ν large enough to leave both classes of any κ uncongested.
        let s = self.isps[idx].strategy;
        let need = pop.total_unconstrained_per_capita();
        let split = s.kappa.min(s.ordinary_fraction()).max(1e-3);
        let nu = need / split + 1.0;
        competitive_equilibrium(pop, nu, s, tol)
            .outcome
            .consumer_surplus(pop)
    }
}

/// How a [`MarketWarmStart`] treats the per-ISP partition solves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WarmMode {
    /// One persistent [`GameWarmStart`] per ISP index, carried across
    /// every `Φ_I` evaluation — and, when the same warm start is reused
    /// across a parameter sweep, across grid points too.
    Carry,
    /// A fresh [`GameWarmStart::new`] per evaluation: exactly the cold
    /// public entry points' behaviour (hints live only *within* one
    /// partition solve). Used to implement [`market_share_equilibrium`]
    /// and friends, so the refactor cannot drift from the old code path.
    PerEvalFresh,
    /// A fresh [`GameWarmStart::without_hints`] per evaluation: the
    /// solver as it would behave without the warm-start subsystem at
    /// all. The A/B baseline — bit-identical outputs (hints change
    /// effort, never values), maximal effort.
    PerEvalBaseline,
}

/// Warm-start state for the market-share solvers (§IV), extending the
/// game-layer [`GameWarmStart`] reuse to the duopoly/oligopoly path.
///
/// A market-share solve evaluates `Φ_I(m)` dozens of times per ISP —
/// every evaluation a full partition equilibrium. The cold entry points
/// start each of those solves from scratch; a carried `MarketWarmStart`
/// keeps one [`GameWarmStart`] per ISP index, so the sorted-prefix cache
/// is built once, segment hints persist across evaluations, and each
/// best-response iteration seeds from the previously settled partition.
/// Pass the same value across adjacent sweep points (a ν or c grid) to
/// carry the state across the whole sweep, exactly as the monopoly
/// fig5 sweep carries its `GameWarmStart`.
///
/// Outputs are unaffected: a warm attempt that cycles is abandoned and
/// rerun cold (see [`competitive_equilibrium_warm`]), and the
/// [`MarketWarmStart::without_hints`] baseline exists so benches and
/// tests can assert bit-identical outputs while measuring the effort
/// gap.
#[derive(Debug, Clone)]
pub struct MarketWarmStart {
    mode: WarmMode,
    /// Per-ISP-index carried states (carry mode only).
    states: Vec<GameWarmStart>,
    /// Effort of per-eval states that were discarded after one solve, so
    /// [`MarketWarmStart::effort`] is comparable across modes.
    accum: SweepEffort,
}

impl Default for MarketWarmStart {
    fn default() -> Self {
        Self::new()
    }
}

impl MarketWarmStart {
    /// Carry mode: persistent per-ISP warm state, reused across every
    /// `Φ_I` evaluation this value sees.
    pub fn new() -> Self {
        Self {
            mode: WarmMode::Carry,
            states: Vec::new(),
            accum: SweepEffort::default(),
        }
    }

    /// A/B baseline: every partition solve runs the full cold binary
    /// segment search ([`GameWarmStart::without_hints`], fresh per
    /// evaluation). Bit-identical outputs to [`MarketWarmStart::new`];
    /// used to measure what the carried state saves.
    pub fn without_hints() -> Self {
        Self {
            mode: WarmMode::PerEvalBaseline,
            states: Vec::new(),
            accum: SweepEffort::default(),
        }
    }

    /// The cold entry points' exact behaviour: a fresh
    /// [`GameWarmStart::new`] per evaluation.
    fn cold() -> Self {
        Self {
            mode: WarmMode::PerEvalFresh,
            states: Vec::new(),
            accum: SweepEffort::default(),
        }
    }

    /// Accumulated water-solver effort across every partition solve this
    /// warm start has performed (all modes, all ISPs).
    pub fn effort(&self) -> SweepEffort {
        let mut total = self.accum;
        for s in &self.states {
            total.merge(&s.effort());
        }
        total
    }

    /// Solve ISP `idx`'s partition equilibrium at per-capita capacity
    /// `nu` through this warm start's mode.
    fn solve(
        &mut self,
        pop: &Population,
        nu: f64,
        strategy: IspStrategy,
        idx: usize,
        tol: Tolerance,
    ) -> PartitionSolution {
        match self.mode {
            WarmMode::Carry => {
                if self.states.len() <= idx {
                    self.states.resize_with(idx + 1, GameWarmStart::new);
                }
                competitive_equilibrium_warm(pop, nu, strategy, tol, &mut self.states[idx])
            }
            WarmMode::PerEvalFresh | WarmMode::PerEvalBaseline => {
                let mut state = if self.mode == WarmMode::PerEvalFresh {
                    GameWarmStart::new()
                } else {
                    GameWarmStart::without_hints()
                };
                let sol = competitive_equilibrium_warm(pop, nu, strategy, tol, &mut state);
                self.accum.merge(&state.effort());
                sol
            }
        }
    }
}

/// A solved second-stage market equilibrium (Definition 4).
#[derive(Debug, Clone)]
pub struct MarketEquilibrium {
    /// Market shares `{m_I}` (sum to 1; zero for ISPs priced out).
    pub shares: Vec<f64>,
    /// Per-subscriber surplus delivered by each ISP at its share (equal —
    /// up to tolerance — across ISPs with positive share).
    pub phis: Vec<f64>,
    /// The common surplus level of subscribed ISPs.
    pub common_phi: f64,
    /// Resolved per-ISP outcomes at the equilibrium shares.
    pub outcomes: Vec<GameOutcome>,
    /// Whether the solver met its tolerance.
    pub converged: bool,
}

impl MarketEquilibrium {
    /// System per-capita ISP surplus of ISP `idx`:
    /// `Ψ_I = c_I λ_{P_I} / M = m_I ×` (per-subscriber surplus).
    pub fn system_isp_surplus(&self, pop: &Population, idx: usize) -> f64 {
        self.shares[idx] * self.outcomes[idx].isp_surplus(pop)
    }
}

/// Solve the market-share equilibrium by level bisection.
///
/// See the module docs for the algorithm. The returned shares sum to 1
/// exactly (final proportional renormalisation absorbs bisection residue).
pub fn market_share_equilibrium(
    game: &MarketGame,
    pop: &Population,
    tol: Tolerance,
) -> MarketEquilibrium {
    market_share_equilibrium_warm(game, pop, tol, &mut MarketWarmStart::cold())
}

/// [`market_share_equilibrium`] through a [`MarketWarmStart`]: every
/// inner `Φ_I` evaluation and the final per-ISP resolve reuse the warm
/// start's per-ISP [`GameWarmStart`] states. Pass the same `warm` across
/// adjacent sweep points to carry caches, segment hints, and settled
/// partitions along the sweep; a fresh [`MarketWarmStart::without_hints`]
/// reproduces the no-warm-start solver exactly.
pub fn market_share_equilibrium_warm(
    game: &MarketGame,
    pop: &Population,
    tol: Tolerance,
    warm: &mut MarketWarmStart,
) -> MarketEquilibrium {
    let n = game.isps.len();
    if n == 1 {
        let outcome = warm
            .solve(pop, game.nu_total, game.isps[0].strategy, 0, tol)
            .outcome;
        let phi = outcome.consumer_surplus(pop);
        return MarketEquilibrium {
            shares: vec![1.0],
            phis: vec![phi],
            common_phi: phi,
            outcomes: vec![outcome],
            converged: true,
        };
    }
    if n == 2 {
        return duopoly_share_bisection(game, pop, tol, warm);
    }

    // Each exact Φ_I(m) evaluation costs a full partition equilibrium, and
    // the nested level/share bisections would query thousands of them.
    // Instead, sample each ISP's share→surplus curve once on a fixed grid
    // (denser at small shares, where ν_I = γ_I ν / m varies fastest) and
    // run the bisections against monotone linear interpolants.
    let mut m_grid = pubopt_num::logspace(1e-3, 1.0, 24);
    m_grid[0] = M_MIN; // extend the first sample to the solver's floor
    let curves: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            m_grid
                .iter()
                .map(|&m| game.phi_at_warm(pop, i, m, tol, warm))
                .collect()
        })
        .collect();
    let phi_full: Vec<f64> = curves
        .iter()
        .map(|c| *c.last().expect("grid non-empty"))
        .collect();
    let phi_sat: Vec<f64> = curves.iter().map(|c| c[0]).collect();

    // Largest share at which ISP idx still delivers `level`, from its
    // sampled curve (scanned from the full-share end; Φ is non-increasing
    // in m up to small partition-switch wobble).
    let share_at = |idx: usize, level: f64| -> f64 {
        let curve = &curves[idx];
        if phi_full[idx] >= level {
            return 1.0;
        }
        if phi_sat[idx] < level {
            return 0.0;
        }
        for k in (0..m_grid.len() - 1).rev() {
            if curve[k] >= level {
                // Interpolate within [m_grid[k], m_grid[k+1]].
                let (m0, m1) = (m_grid[k], m_grid[k + 1]);
                let (p0, p1) = (curve[k], curve[k + 1]);
                if (p1 - p0).abs() < f64::EPSILON * (1.0 + p0.abs()) {
                    return m1;
                }
                let t = ((level - p0) / (p1 - p0)).clamp(0.0, 1.0);
                return m0 + t * (m1 - m0);
            }
        }
        0.0
    };
    let l_lo = phi_full.iter().cloned().fold(f64::INFINITY, f64::min);
    let l_hi = phi_sat.iter().cloned().fold(0.0, f64::max) + 1e-12;

    let total_share = |level: f64| -> f64 { (0..n).map(|i| share_at(i, level)).sum() };

    // Degenerate: so much capacity that everyone saturates — shares are
    // indeterminate in Φ terms; fall back to capacity-proportional.
    let mut converged = true;
    let level = if total_share(l_lo) < 1.0 {
        converged = false;
        l_lo
    } else if total_share(l_hi) > 1.0 {
        l_hi
    } else {
        match pubopt_num::bisect(
            |l| total_share(l) - 1.0,
            l_lo,
            l_hi,
            Tolerance::new(1e-7, 1e-7).with_max_iter(50),
        ) {
            Ok(l) => l,
            // Deliberately small budget: the midpoint is still usable.
            Err(pubopt_num::RootError::MaxIterations { best }) => best,
            Err(_) => l_lo,
        }
    };

    let mut shares: Vec<f64> = (0..n).map(|i| share_at(i, level)).collect();

    // Polish interior shares against the *exact* Φ_I (the interpolated
    // curves carry grid error): a short bisection of Φ_I(m) = level in the
    // grid cell containing the interpolated share.
    for (i, share) in shares.iter_mut().enumerate() {
        if *share <= M_MIN || *share >= 1.0 - 1e-9 {
            continue;
        }
        let cell = m_grid.windows(2).find(|w| w[0] <= *share && *share <= w[1]);
        if let Some(w) = cell {
            // The 15-iteration budget is deliberate (each probe is a full
            // partition equilibrium); the best-effort midpoint on budget
            // exhaustion is a strictly better polish than the grid value.
            match pubopt_num::bisect(
                |m| game.phi_at_warm(pop, i, m, tol, warm) - level,
                w[0],
                w[1],
                Tolerance::new(1e-6, 1e-6).with_max_iter(15),
            ) {
                Ok(m) | Err(pubopt_num::RootError::MaxIterations { best: m }) => *share = m,
                Err(_) => {}
            }
        }
    }

    let sum: f64 = shares.iter().sum();
    if sum <= 0.0 {
        // Nobody can deliver the level (numerical corner): fall back to
        // capacity-proportional shares.
        converged = false;
        for (s, isp) in shares.iter_mut().zip(game.isps.iter()) {
            *s = isp.capacity_share;
        }
    } else if (sum - 1.0).abs() > 1e-6 {
        // Discontinuity of S(L) at the level: renormalise proportionally.
        for s in shares.iter_mut() {
            *s /= sum;
        }
    } else {
        for s in shares.iter_mut() {
            *s /= sum;
        }
    }

    finish(game, pop, shares, converged, tol, warm)
}

/// Specialised two-ISP solver: one bisection on `m_0` for the root of
/// `g(m) = Φ_0(m) − Φ_1(1 − m)`, which is (weakly) decreasing in `m`
/// because `Φ_0` falls and `Φ_1` rises as ISP 0 gains subscribers.
/// Handles the corner equilibria where one ISP cannot retain anybody.
fn duopoly_share_bisection(
    game: &MarketGame,
    pop: &Population,
    tol: Tolerance,
    warm: &mut MarketWarmStart,
) -> MarketEquilibrium {
    // Lemma 4 / saturation plateau: if surpluses already equalise at
    // capacity-proportional shares (within solver noise), that is the
    // equilibrium — this also resolves the knife-edge where capacity is so
    // ample that *any* split delivers the saturated Φ and consumers are
    // indifferent.
    let prop = game.isps[0].capacity_share;
    let phi_prop0 = game.phi_at_warm(pop, 0, prop, tol, warm);
    let phi_prop1 = game.phi_at_warm(pop, 1, 1.0 - prop, tol, warm);
    let scale = phi_prop0.abs().max(phi_prop1.abs()).max(1e-12);
    if (phi_prop0 - phi_prop1).abs() <= 1e-6 * scale {
        return finish(game, pop, vec![prop, 1.0 - prop], true, tol, warm);
    }

    let mut g = |m: f64| {
        game.phi_at_warm(pop, 0, m, tol, warm) - game.phi_at_warm(pop, 1, 1.0 - m, tol, warm)
    };

    let lo = M_MIN;
    let hi = 1.0 - M_MIN;
    let g_lo = g(lo);
    let g_hi = g(hi);
    let tie_eps = 1e-7 * scale;
    let (share0, converged) = if g_hi >= -tie_eps {
        // ISP 0 matches or beats ISP 1 even serving the whole market.
        (1.0, true)
    } else if g_lo < -tie_eps {
        // Even nearly empty, ISP 0 cannot match ISP 1 serving everyone.
        (0.0, true)
    } else if g_lo <= tie_eps {
        // Tie at the empty end: both ISPs deliver the same (typically
        // saturated) surplus for a whole range of small shares. The
        // equilibrium set is an interval; select its upper edge — the
        // largest share ISP 0 can hold without falling behind — which is
        // the selection every market-share argument in §IV presumes.
        match pubopt_num::bisect(
            |m| g(m) + tie_eps,
            lo,
            hi,
            Tolerance::new(1e-5, 1e-5).with_max_iter(40),
        ) {
            Ok(m) | Err(pubopt_num::RootError::MaxIterations { best: m }) => (m, true),
            Err(_) => (0.0, false),
        }
    } else {
        match pubopt_num::bisect(&mut g, lo, hi, Tolerance::new(1e-5, 1e-5).with_max_iter(40)) {
            Ok(m) | Err(pubopt_num::RootError::MaxIterations { best: m }) => (m, true),
            Err(_) => (game.isps[0].capacity_share, false),
        }
    };
    finish(game, pop, vec![share0, 1.0 - share0], converged, tol, warm)
}

/// The literal Assumption-5 migration dynamic.
///
/// Each round computes every ISP's `Φ_I` at the current shares and moves
/// share mass from below-average to above-average ISPs (step `eta`),
/// projecting back onto the simplex. Stops when surpluses equalise within
/// `phi_tol` or after `max_rounds`. A single attempt — use
/// [`tatonnement_with_policy`] to retry non-converged runs with a smaller
/// step and a larger round budget.
pub fn tatonnement(
    game: &MarketGame,
    pop: &Population,
    eta: f64,
    max_rounds: usize,
    phi_tol: f64,
    tol: Tolerance,
) -> MarketEquilibrium {
    tatonnement_with_policy(
        game,
        pop,
        eta,
        max_rounds,
        phi_tol,
        tol,
        &SolverPolicy::DISABLED,
    )
}

/// [`tatonnement`] under a recovery policy: when an attempt ends without
/// surplus equalisation (too-aggressive `eta` makes the migration dynamic
/// overshoot and oscillate), retry with the step scaled by
/// `policy.damping_backoff` and the round budget grown by
/// `policy.budget_growth`, up to `policy.max_attempts` attempts. Returns
/// the last attempt's equilibrium (its `converged` flag reports whether
/// any attempt succeeded).
pub fn tatonnement_with_policy(
    game: &MarketGame,
    pop: &Population,
    eta: f64,
    max_rounds: usize,
    phi_tol: f64,
    tol: Tolerance,
    policy: &SolverPolicy,
) -> MarketEquilibrium {
    let attempts = policy.max_attempts.max(1);
    let mut eta_cur = eta;
    let mut rounds = max_rounds;
    for attempt in 0..attempts {
        let eq = tatonnement_once(game, pop, eta_cur, rounds, phi_tol, tol);
        if eq.converged || attempt + 1 == attempts {
            return eq;
        }
        eta_cur = (eta_cur * policy.damping_backoff).max(f64::MIN_POSITIVE);
        rounds = ((rounds as f64 * policy.budget_growth).ceil() as usize).max(rounds + 1);
    }
    unreachable!("loop returns on the final attempt")
}

fn tatonnement_once(
    game: &MarketGame,
    pop: &Population,
    eta: f64,
    max_rounds: usize,
    phi_tol: f64,
    tol: Tolerance,
) -> MarketEquilibrium {
    assert!(eta > 0.0 && eta <= 1.0, "step size must be in (0,1]");
    let n = game.isps.len();
    let mut shares: Vec<f64> = game.isps.iter().map(|i| i.capacity_share).collect();
    let mut converged = false;

    for _ in 0..max_rounds {
        let phis: Vec<f64> = (0..n)
            .map(|i| game.phi_at(pop, i, shares[i], tol))
            .collect();
        // Weighted mean surplus (weights = current shares).
        let mean: f64 = phis.iter().zip(shares.iter()).map(|(p, s)| p * s).sum();
        let spread = phis
            .iter()
            .zip(shares.iter())
            .filter(|(_, &s)| s > M_MIN * 10.0)
            .map(|(p, _)| (p - mean).abs())
            .fold(0.0f64, f64::max);
        if spread <= phi_tol * (1.0 + mean) {
            converged = true;
            break;
        }
        let scale = phis.iter().cloned().fold(f64::MIN, f64::max).max(1e-12);
        for i in 0..n {
            shares[i] += eta * shares[i].max(0.01) * (phis[i] - mean) / scale;
            shares[i] = shares[i].clamp(0.0, 1.0);
        }
        let sum: f64 = shares.iter().sum();
        for s in shares.iter_mut() {
            *s /= sum;
        }
    }

    finish(
        game,
        pop,
        shares,
        converged,
        tol,
        &mut MarketWarmStart::cold(),
    )
}

fn finish(
    game: &MarketGame,
    pop: &Population,
    shares: Vec<f64>,
    converged: bool,
    tol: Tolerance,
    warm: &mut MarketWarmStart,
) -> MarketEquilibrium {
    let n = game.isps.len();
    let outcomes: Vec<GameOutcome> = (0..n)
        .map(|i| {
            let nu = game.nu_of(i, shares[i]);
            warm.solve(pop, nu, game.isps[i].strategy, i, tol).outcome
        })
        .collect();
    let phis: Vec<f64> = outcomes.iter().map(|o| o.consumer_surplus(pop)).collect();
    // Common level = share-weighted mean over subscribed ISPs.
    let (num, den) = phis
        .iter()
        .zip(shares.iter())
        .filter(|(_, &s)| s > M_MIN)
        .fold((0.0, 0.0), |(a, b), (&p, &s)| (a + p * s, b + s));
    let common_phi = if den > 0.0 { num / den } else { 0.0 };
    MarketEquilibrium {
        shares,
        phis,
        common_phi,
        outcomes,
        converged,
    }
}

/// Outcome of the duopoly of §IV-A: strategic ISP `I` vs. an ISP `J`
/// (typically the Public Option).
#[derive(Debug, Clone)]
pub struct DuopolyOutcome {
    /// ISP `I`'s market share `m_I`.
    pub share_i: f64,
    /// System per-capita ISP surplus of `I` (`Ψ_I = c_I λ_{P_I}/M`).
    pub psi_i: f64,
    /// The equilibrium consumer surplus level `Φ`.
    pub phi: f64,
    /// The full market equilibrium.
    pub market: MarketEquilibrium,
}

/// Solve the duopoly `I` (strategy `s_I`, capacity share `gamma_i`) vs. a
/// Public Option ISP holding the remaining capacity.
pub fn duopoly_with_public_option(
    pop: &Population,
    nu_total: f64,
    s_i: IspStrategy,
    gamma_i: f64,
    tol: Tolerance,
) -> DuopolyOutcome {
    duopoly_with_public_option_warm(
        pop,
        nu_total,
        s_i,
        gamma_i,
        tol,
        &mut MarketWarmStart::cold(),
    )
}

/// [`duopoly_with_public_option`] through a [`MarketWarmStart`]: carry
/// the same `warm` across adjacent grid points (a ν or c sweep) to reuse
/// each ISP's sorted-prefix cache, segment hints, and settled partition
/// across the whole sweep, the way fig7/fig8 chunks do. Outputs are
/// identical to the cold entry point; only solver effort changes.
pub fn duopoly_with_public_option_warm(
    pop: &Population,
    nu_total: f64,
    s_i: IspStrategy,
    gamma_i: f64,
    tol: Tolerance,
    warm: &mut MarketWarmStart,
) -> DuopolyOutcome {
    let game = MarketGame::new(
        vec![
            Isp::new("strategic", s_i, gamma_i),
            Isp::public_option(1.0 - gamma_i),
        ],
        nu_total,
    );
    let market = market_share_equilibrium_warm(&game, pop, tol, warm);
    DuopolyOutcome {
        share_i: market.shares[0],
        psi_i: market.system_isp_surplus(pop, 0),
        phi: market.common_phi,
        market,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pubopt_demand::{ContentProvider, DemandKind};

    fn mixed_pop(n: usize) -> Population {
        (0..n)
            .map(|i| {
                let f = i as f64 / n as f64;
                ContentProvider::new(
                    0.2 + 0.8 * f,
                    0.5 + 5.0 * ((i * 7) % n) as f64 / n as f64,
                    DemandKind::exponential(8.0 * ((i * 3) % n) as f64 / n as f64),
                    ((i * 13) % n) as f64 / n as f64,
                    0.5 + 2.0 * ((i * 5) % n) as f64 / n as f64,
                )
            })
            .collect()
    }

    /// Tie-free golden-ratio population (same construction as the
    /// best-response tests' `smooth_pop`): no two CPs share a `v`, so the
    /// best-response dynamics converge cleanly and the warm/cold
    /// comparison below exercises the normal path, not the cycle
    /// fallback.
    fn smooth_pop(n: usize) -> Population {
        let frac = |x: f64| x - x.floor();
        (0..n)
            .map(|i| {
                let t = i as f64 + 1.0;
                ContentProvider::new(
                    0.1 + 0.9 * frac(t * 0.618_033_988_749_894_9),
                    0.2 + 5.0 * frac(t * 0.381_966_011_250_105_2),
                    DemandKind::exponential(8.0 * frac(t * 0.236_067_977_499_789_7)),
                    frac(t * 0.754_877_666_246_692_8),
                    1.0,
                )
            })
            .collect()
    }

    #[test]
    fn duopoly_warm_sweep_matches_baseline_exactly_with_less_effort() {
        // The market-layer warm-start A/B (the fig7/fig8 analogue of the
        // game-layer `warm_sweep_matches_cold_exactly_with_less_effort`):
        // carrying one MarketWarmStart across a ν grid of duopoly solves
        // must reproduce (1) the cold entry point and (2) the
        // without_hints baseline bit-for-bit, while spending strictly
        // fewer segment probes and Λ evaluations.
        let pop = smooth_pop(120);
        let tol = Tolerance::COARSE;
        let s_i = IspStrategy::new(0.5, 0.4);
        let sat = pop.total_unconstrained_per_capita();
        let nus: Vec<f64> = (0..16)
            .map(|j| sat * (0.3 + 1.4 * j as f64 / 15.0))
            .collect();

        let mut warm = MarketWarmStart::new();
        let warm_outs: Vec<DuopolyOutcome> = nus
            .iter()
            .map(|&nu| duopoly_with_public_option_warm(&pop, nu, s_i, 0.5, tol, &mut warm))
            .collect();
        let warm_effort = warm.effort();

        let mut base = MarketWarmStart::without_hints();
        for (k, &nu) in nus.iter().enumerate() {
            let b = duopoly_with_public_option_warm(&pop, nu, s_i, 0.5, tol, &mut base);
            let c = duopoly_with_public_option(&pop, nu, s_i, 0.5, tol);
            let w = &warm_outs[k];
            for (label, got, want) in [
                ("baseline share", b.share_i, w.share_i),
                ("baseline psi", b.psi_i, w.psi_i),
                ("baseline phi", b.phi, w.phi),
                ("cold share", c.share_i, w.share_i),
                ("cold psi", c.psi_i, w.psi_i),
                ("cold phi", c.phi, w.phi),
            ] {
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "nu={nu}: {label} diverged from the carried warm start"
                );
            }
        }
        let base_effort = base.effort();

        assert!(warm_effort.solves > 0 && base_effort.solves > 0);
        assert!(
            warm_effort.segment_probes < base_effort.segment_probes,
            "carried warm start must probe fewer segments: warm={} baseline={}",
            warm_effort.segment_probes,
            base_effort.segment_probes
        );
        assert!(
            warm_effort.lambda_evals < base_effort.lambda_evals,
            "carried warm start must spend fewer Λ evals: warm={} baseline={}",
            warm_effort.lambda_evals,
            base_effort.lambda_evals
        );
    }

    #[test]
    fn single_isp_market_is_monopoly() {
        let pop = mixed_pop(20);
        let game = MarketGame::new(vec![Isp::new("solo", IspStrategy::NEUTRAL, 1.0)], 1.0);
        let eq = market_share_equilibrium(&game, &pop, Tolerance::default());
        assert_eq!(eq.shares, vec![1.0]);
        assert!(eq.converged);
    }

    #[test]
    fn lemma4_homogeneous_strategies_split_by_capacity() {
        // Lemma 4: identical strategies ⇒ m_I = γ_I.
        let pop = mixed_pop(30);
        let s = IspStrategy::new(0.5, 0.2);
        let game = MarketGame::new(
            vec![
                Isp::new("a", s, 0.25),
                Isp::new("b", s, 0.35),
                Isp::new("c", s, 0.40),
            ],
            0.8, // congested so shares are pinned down
        );
        let eq = market_share_equilibrium(&game, &pop, Tolerance::default());
        for (i, isp) in game.isps.iter().enumerate() {
            assert!(
                (eq.shares[i] - isp.capacity_share).abs() < 5e-3,
                "isp {i}: share {} != gamma {}",
                eq.shares[i],
                isp.capacity_share
            );
        }
        // Equal surplus across ISPs.
        for w in eq.phis.windows(2) {
            assert!((w[0] - w[1]).abs() < 1e-3 * (1.0 + w[0].abs()));
        }
    }

    #[test]
    fn two_neutral_isps_with_equal_capacity_split_evenly() {
        let pop = mixed_pop(25);
        let game = MarketGame::new(
            vec![
                Isp::new("x", IspStrategy::NEUTRAL, 0.5),
                Isp::public_option(0.5),
            ],
            0.5,
        );
        let eq = market_share_equilibrium(&game, &pop, Tolerance::default());
        assert!((eq.shares[0] - 0.5).abs() < 5e-3, "share {}", eq.shares[0]);
    }

    #[test]
    fn surpluses_equalize_across_heterogeneous_isps() {
        let pop = mixed_pop(30);
        let game = MarketGame::new(
            vec![
                Isp::new("premium-heavy", IspStrategy::new(0.8, 0.3), 0.5),
                Isp::public_option(0.5),
            ],
            0.6,
        );
        let eq = market_share_equilibrium(&game, &pop, Tolerance::default());
        assert!(
            eq.shares[0] > 0.01 && eq.shares[1] > 0.01,
            "both should survive: {:?}",
            eq.shares
        );
        assert!(
            (eq.phis[0] - eq.phis[1]).abs() < 1e-2 * (1.0 + eq.phis[0].abs()),
            "phis {:?}",
            eq.phis
        );
    }

    #[test]
    fn extortionate_isp_loses_the_market() {
        // c far above every v: the strategic ISP's premium class is empty
        // and with κ=1 it carries nothing — consumers flee to the PO.
        let pop = mixed_pop(30);
        let out = duopoly_with_public_option(
            &pop,
            0.6,
            IspStrategy::premium_only(50.0),
            0.5,
            Tolerance::default(),
        );
        assert!(out.share_i < 0.02, "share_i = {}", out.share_i);
        assert_eq!(out.psi_i, 0.0);
        assert!(out.phi > 0.0, "public option keeps surplus positive");
    }

    #[test]
    fn tatonnement_agrees_with_level_bisection() {
        let pop = mixed_pop(25);
        let game = MarketGame::new(
            vec![
                Isp::new("a", IspStrategy::new(0.6, 0.2), 0.5),
                Isp::public_option(0.5),
            ],
            0.5,
        );
        let lb = market_share_equilibrium(&game, &pop, Tolerance::default());
        let tt = tatonnement(&game, &pop, 0.5, 400, 1e-4, Tolerance::default());
        assert!(
            (lb.shares[0] - tt.shares[0]).abs() < 0.02,
            "level bisection {} vs tatonnement {}",
            lb.shares[0],
            tt.shares[0]
        );
    }

    #[test]
    fn tatonnement_policy_recovers_budget_exhaustion() {
        // A one-round budget cannot equalise surpluses that start unequal;
        // the policy's step backoff + budget growth must still reach the
        // equilibrium the level bisection finds.
        let pop = mixed_pop(25);
        let game = MarketGame::new(
            vec![
                Isp::new("a", IspStrategy::new(0.6, 0.2), 0.5),
                Isp::public_option(0.5),
            ],
            0.5,
        );
        let bare = tatonnement(&game, &pop, 1.0, 1, 1e-4, Tolerance::default());
        assert!(!bare.converged, "one round cannot settle unequal surpluses");
        let policy = SolverPolicy {
            max_attempts: 8,
            damping_backoff: 0.7,
            budget_growth: 4.0,
            ..SolverPolicy::default()
        };
        let robust =
            tatonnement_with_policy(&game, &pop, 1.0, 1, 1e-4, Tolerance::default(), &policy);
        assert!(robust.converged, "policy retries should converge");
        let lb = market_share_equilibrium(&game, &pop, Tolerance::default());
        assert!(
            (lb.shares[0] - robust.shares[0]).abs() < 0.02,
            "level bisection {} vs recovered tatonnement {}",
            lb.shares[0],
            robust.shares[0]
        );
    }

    #[test]
    fn shares_sum_to_one() {
        let pop = mixed_pop(20);
        let game = MarketGame::new(
            vec![
                Isp::new("a", IspStrategy::new(0.9, 0.4), 0.3),
                Isp::new("b", IspStrategy::new(0.2, 0.1), 0.3),
                Isp::public_option(0.4),
            ],
            0.7,
        );
        let eq = market_share_equilibrium(&game, &pop, Tolerance::default());
        let sum: f64 = eq.shares.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "shares sum {sum}");
    }

    #[test]
    #[should_panic(expected = "capacity shares must sum to 1")]
    fn rejects_bad_capacity_shares() {
        MarketGame::new(vec![Isp::new("a", IspStrategy::NEUTRAL, 0.4)], 1.0);
    }

    #[test]
    fn nu_of_scales_inversely_with_share() {
        let game = MarketGame::new(
            vec![
                Isp::new("a", IspStrategy::NEUTRAL, 0.5),
                Isp::public_option(0.5),
            ],
            2.0,
        );
        assert!((game.nu_of(0, 0.5) - 2.0).abs() < 1e-12);
        assert!((game.nu_of(0, 0.25) - 4.0).abs() < 1e-12);
    }
}
