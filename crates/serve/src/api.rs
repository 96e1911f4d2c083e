//! Query endpoints: parameter validation, canonical cache keys and the
//! solver-backed handlers.
//!
//! Three POST endpoints mirror the paper's question shapes:
//!
//! * `/v1/equilibrium` — the rate equilibrium (Theorem 1) of a scenario
//!   at per-capita capacity ν.
//! * `/v1/strategy` — a monopoly best-response sweep (Figure 4 kernel):
//!   `Ψ`/`Φ` over a charge grid at fixed κ.
//! * `/v1/capacity` — Public Option sizing (§VI): the smallest capacity
//!   share that disciplines a share-maximising incumbent to a target
//!   consumer-surplus fraction.
//! * `/v1/whatif` — analytical-vs-simulated co-validation: solve the
//!   competitive equilibrium at one strategy `(κ, c)`, then *replay* the
//!   equilibrium demand through the event-driven fluid AIMD simulator
//!   (`pubopt-netsim`'s calendar-queue engine) on both capacity tiers and
//!   report the per-CP divergence between the transport outcome and the
//!   max-min prediction the solver assumes (§II-D.2, made a query).
//!
//! **Canonicalization.** The cache key is built from the *typed* request
//! — scenario kind, CP count, and every `f64` rendered as its IEEE-754
//! bit pattern in hex — never from the raw JSON text. `{"nu": 1.50}`,
//! `{"nu": 1.5}` and a reordered body all canonicalize to the same key;
//! `c_max`/`c_steps` shorthand canonicalizes to the expanded grid it
//! denotes. Two requests with equal keys are the same mathematical
//! question, so serving one's bytes for the other is sound.
//!
//! **Determinism.** Handlers fix the tolerance per endpoint (equilibrium:
//! default, strategy & capacity: coarse — matching the figure harness)
//! and keep solver-effort numbers out of response bodies, so a body is a
//! pure function of the canonical key. Warm-started and cold solves
//! produce byte-identical bodies (the PR 3 exactness contract; asserted
//! end-to-end by `tests/serve_cache.rs`).

use crate::state::{ScenarioStore, WarmPool};
use pubopt_core::{competitive_equilibrium_warm, minimum_po_capacity, IspStrategy};
use pubopt_demand::Population;
use pubopt_eq::{consumer_surplus, try_solve_maxmin_warm};
use pubopt_netsim::{compare_report_to_maxmin, FlowGroup, ScaledSim, SimConfig};
use pubopt_num::recover::SolverPolicy;
use pubopt_num::Tolerance;
use pubopt_obs::json::{parse, Value};
use pubopt_workload::ScenarioKind;

/// Largest CP count a request may ask for (the million-CP roadmap scale,
/// with headroom).
pub const MAX_CPS: usize = 2_000_000;
/// Largest CP count for which full θ/d profiles may be requested.
const MAX_PROFILE_CPS: usize = 10_000;
/// Largest charge grid per strategy request.
const MAX_GRID: usize = 256;
/// CP-count bound for `/v1/capacity` (each probe is a full strategy grid
/// search; million-CP capacity sizing is a batch job, not a query).
const MAX_CAPACITY_CPS: usize = 5_000;
/// Most sub-queries one `/v1/batch` request may carry.
pub const MAX_BATCH: usize = 64;
/// CP-count bound for `/v1/whatif` (one simulated flow group per CP).
const MAX_WHATIF_CPS: usize = 5_000;
/// Largest simulated consumer scale a what-if may request (the
/// calendar-queue engine holds ~1M flows comfortably; this is the
/// million-flow roadmap scale with headroom).
const MAX_WHATIF_FLOWS: usize = 2_000_000;
/// Fixed warm-up and measurement window (simulated seconds) for
/// `/v1/whatif` runs — like the per-endpoint solver tolerances, the
/// window is part of the endpoint contract, not the request, so a body
/// stays a pure function of the canonical key.
const WHATIF_WARMUP: f64 = 30.0;
/// See [`WHATIF_WARMUP`].
const WHATIF_MEASURE: f64 = 30.0;

/// A rejected request: HTTP status plus a human-readable reason.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApiError {
    /// HTTP status to respond with (400 for validation, 404 for routing,
    /// 500 for solver failures).
    pub status: u16,
    /// What went wrong.
    pub message: String,
    /// For batch validation failures: which `queries[index]` sub-query
    /// failed, surfaced as a structured `"index"` field so clients can
    /// repair one element without parsing the prose.
    pub index: Option<usize>,
}

impl ApiError {
    pub(crate) fn bad(message: impl Into<String>) -> Self {
        Self {
            status: 400,
            message: message.into(),
            index: None,
        }
    }

    /// A 400 pinned to batch sub-query `index`.
    fn bad_at(index: usize, message: impl Into<String>) -> Self {
        Self {
            status: 400,
            message: message.into(),
            index: Some(index),
        }
    }

    /// Render as the standard error body.
    pub fn body(&self) -> String {
        let mut fields = vec![("error".into(), Value::from(self.message.as_str()))];
        if let Some(i) = self.index {
            fields.push(("index".into(), Value::from(i)));
        }
        Value::Object(fields).to_string()
    }
}

/// `/v1/equilibrium` parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct EqParams {
    /// Scenario kind.
    pub scenario: ScenarioKind,
    /// CP count (ensembles are regenerated at this size; trio ignores it).
    pub n: usize,
    /// Per-capita capacity ν ≥ 0.
    pub nu: f64,
    /// Include full θ/d profiles (bounded populations only).
    pub include_profile: bool,
}

/// `/v1/strategy` parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct StrategyParams {
    /// Scenario kind.
    pub scenario: ScenarioKind,
    /// CP count.
    pub n: usize,
    /// Per-capita capacity ν ≥ 0.
    pub nu: f64,
    /// Premium capacity fraction κ ∈ [0, 1].
    pub kappa: f64,
    /// The charge grid to sweep (canonical, ascending as given).
    pub cs: Vec<f64>,
}

/// `/v1/capacity` parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct CapacityParams {
    /// Scenario kind.
    pub scenario: ScenarioKind,
    /// CP count (bounded at [`MAX_CAPACITY_CPS`]).
    pub n: usize,
    /// Per-capita capacity ν ≥ 0 of the whole market.
    pub nu: f64,
    /// Target consumer-surplus fraction of the network-neutral benchmark.
    pub target_fraction: f64,
    /// Price-search upper bound for the incumbent.
    pub c_max: f64,
    /// Strategy-grid resolution per axis for the incumbent best response.
    pub grid_n: usize,
}

/// `/v1/whatif` parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct WhatifParams {
    /// Scenario kind.
    pub scenario: ScenarioKind,
    /// CP count (bounded at [`MAX_WHATIF_CPS`]).
    pub n: usize,
    /// Per-capita capacity ν ≥ 0.
    pub nu: f64,
    /// Premium capacity fraction κ ∈ [0, 1].
    pub kappa: f64,
    /// Premium charge c ≥ 0.
    pub c: f64,
    /// Simulated consumer scale `M`: CP *i* runs
    /// `round(α_i · d_i · M)` AIMD flows.
    pub flows: usize,
    /// Base RTT applied to every simulated flow (seconds).
    pub rtt: f64,
    /// Simulation worker threads. **Not** part of the canonical key:
    /// the engine's determinism contract makes results byte-identical
    /// across worker counts, so requests differing only here are the
    /// same question.
    pub workers: usize,
}

/// A parsed, validated query.
#[derive(Debug, Clone, PartialEq)]
pub enum ApiRequest {
    /// Rate-equilibrium solve.
    Equilibrium(EqParams),
    /// Monopoly charge sweep.
    Strategy(StrategyParams),
    /// Public Option capacity sizing.
    Capacity(CapacityParams),
    /// Equilibrium-vs-AIMD co-simulation.
    Whatif(WhatifParams),
}

pub(crate) fn scenario_of(v: &Value) -> Result<ScenarioKind, ApiError> {
    match v.get("scenario").and_then(Value::as_str).unwrap_or("paper") {
        "trio" => Ok(ScenarioKind::Trio),
        "paper" => Ok(ScenarioKind::PaperEnsemble),
        "paper-indep" => Ok(ScenarioKind::PaperEnsembleIndependentPhi),
        other => Err(ApiError::bad(format!(
            "unknown scenario {other:?} (expected trio | paper | paper-indep)"
        ))),
    }
}

pub(crate) fn scenario_name(kind: ScenarioKind) -> &'static str {
    match kind {
        ScenarioKind::Trio => "trio",
        ScenarioKind::PaperEnsemble => "paper",
        ScenarioKind::PaperEnsembleIndependentPhi => "paper-indep",
    }
}

pub(crate) fn usize_field(v: &Value, key: &str, default: usize) -> Result<usize, ApiError> {
    match v.get(key) {
        None => Ok(default),
        Some(f) => f
            .as_u64()
            .map(|n| n as usize)
            .ok_or_else(|| ApiError::bad(format!("{key} must be a non-negative integer"))),
    }
}

pub(crate) fn f64_field(v: &Value, key: &str) -> Result<f64, ApiError> {
    v.get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| ApiError::bad(format!("missing numeric field {key:?}")))
}

pub(crate) fn check_nu(nu: f64) -> Result<f64, ApiError> {
    if nu.is_finite() && nu >= 0.0 {
        Ok(nu)
    } else {
        Err(ApiError::bad("nu must be finite and non-negative"))
    }
}

pub(crate) fn check_n(n: usize, max: usize) -> Result<usize, ApiError> {
    if (1..=max).contains(&n) {
        Ok(n)
    } else {
        Err(ApiError::bad(format!("n must be in 1..={max}, got {n}")))
    }
}

/// The optional `include_profile` flag of an equilibrium-shaped body,
/// bounded by [`MAX_PROFILE_CPS`] for a population of `n` CPs.
pub(crate) fn include_profile_of(v: &Value, n: usize) -> Result<bool, ApiError> {
    let include_profile = v
        .get("include_profile")
        .and_then(Value::as_bool)
        .unwrap_or(false);
    if include_profile && n > MAX_PROFILE_CPS {
        return Err(ApiError::bad(format!(
            "include_profile is limited to n <= {MAX_PROFILE_CPS}"
        )));
    }
    Ok(include_profile)
}

impl ApiRequest {
    /// Parse and validate a request routed to `path` with JSON `body`.
    ///
    /// # Errors
    ///
    /// `404` for unknown routes, `400` for bodies that fail to parse or
    /// validate.
    pub fn parse(path: &str, body: &str) -> Result<Self, ApiError> {
        let v = if body.trim().is_empty() {
            Value::Object(Vec::new())
        } else {
            parse(body).map_err(|e| ApiError::bad(format!("body is not valid JSON: {e}")))?
        };
        Self::parse_value(path, &v)
    }

    /// Parse and validate an already-decoded JSON body routed to `path`.
    /// This is [`ApiRequest::parse`] minus the JSON decode — the shared
    /// entry point for single queries and `/v1/batch` sub-queries, so a
    /// batched query passes exactly the validation its single-query twin
    /// does and canonicalizes to the same cache key.
    ///
    /// # Errors
    ///
    /// `404` for unknown routes, `400` for bodies that fail validation.
    pub fn parse_value(path: &str, v: &Value) -> Result<Self, ApiError> {
        match path {
            "/v1/equilibrium" => {
                let scenario = scenario_of(v)?;
                let n = check_n(usize_field(v, "n", 1000)?, MAX_CPS)?;
                let nu = check_nu(f64_field(v, "nu")?)?;
                let include_profile = include_profile_of(v, n)?;
                Ok(ApiRequest::Equilibrium(EqParams {
                    scenario,
                    n,
                    nu,
                    include_profile,
                }))
            }
            "/v1/strategy" => {
                let scenario = scenario_of(v)?;
                let n = check_n(usize_field(v, "n", 1000)?, MAX_CPS)?;
                let nu = check_nu(f64_field(v, "nu")?)?;
                let kappa = f64_field(v, "kappa").unwrap_or(1.0);
                if !(0.0..=1.0).contains(&kappa) {
                    return Err(ApiError::bad("kappa must be in [0, 1]"));
                }
                let cs: Vec<f64> = match v.get("cs") {
                    Some(arr) => arr
                        .as_array()
                        .ok_or_else(|| ApiError::bad("cs must be an array of charges"))?
                        .iter()
                        .map(|c| {
                            c.as_f64()
                                .filter(|c| c.is_finite() && *c >= 0.0)
                                .ok_or_else(|| {
                                    ApiError::bad("cs entries must be finite and non-negative")
                                })
                        })
                        .collect::<Result<_, _>>()?,
                    None => {
                        // Shorthand: canonicalize {c_max, c_steps} to the
                        // grid it denotes, so both spellings share a key.
                        let c_max = f64_field(v, "c_max").unwrap_or(1.0);
                        if !c_max.is_finite() || c_max <= 0.0 {
                            return Err(ApiError::bad("c_max must be finite and positive"));
                        }
                        let steps = usize_field(v, "c_steps", 9)?;
                        if !(2..=MAX_GRID).contains(&steps) {
                            return Err(ApiError::bad(format!(
                                "c_steps must be in 2..={MAX_GRID}"
                            )));
                        }
                        pubopt_num::linspace(0.0, c_max, steps)
                    }
                };
                if cs.is_empty() || cs.len() > MAX_GRID {
                    return Err(ApiError::bad(format!(
                        "cs must have 1..={MAX_GRID} entries"
                    )));
                }
                Ok(ApiRequest::Strategy(StrategyParams {
                    scenario,
                    n,
                    nu,
                    kappa,
                    cs,
                }))
            }
            "/v1/capacity" => {
                let scenario = scenario_of(v)?;
                let n = check_n(usize_field(v, "n", 100)?, MAX_CAPACITY_CPS)?;
                let nu = check_nu(f64_field(v, "nu")?)?;
                let target_fraction = f64_field(v, "target_fraction")?;
                if !(0.0..=1.0).contains(&target_fraction) {
                    return Err(ApiError::bad("target_fraction must be in [0, 1]"));
                }
                let c_max = f64_field(v, "c_max").unwrap_or(1.0);
                if !c_max.is_finite() || c_max <= 0.0 {
                    return Err(ApiError::bad("c_max must be finite and positive"));
                }
                let grid_n = usize_field(v, "grid_n", 4)?;
                if !(2..=12).contains(&grid_n) {
                    return Err(ApiError::bad("grid_n must be in 2..=12"));
                }
                Ok(ApiRequest::Capacity(CapacityParams {
                    scenario,
                    n,
                    nu,
                    target_fraction,
                    c_max,
                    grid_n,
                }))
            }
            "/v1/whatif" => {
                let scenario = scenario_of(v)?;
                let n = check_n(usize_field(v, "n", 100)?, MAX_WHATIF_CPS)?;
                let nu = check_nu(f64_field(v, "nu")?)?;
                let kappa = match v.get("kappa") {
                    None => 1.0,
                    Some(k) => k
                        .as_f64()
                        .filter(|k| (0.0..=1.0).contains(k))
                        .ok_or_else(|| ApiError::bad("kappa must be in [0, 1]"))?,
                };
                let c = match v.get("c") {
                    None => 0.0,
                    Some(c) => c
                        .as_f64()
                        .filter(|c| c.is_finite() && *c >= 0.0)
                        .ok_or_else(|| ApiError::bad("c must be finite and non-negative"))?,
                };
                let flows = usize_field(v, "flows", 10_000)?;
                if !(1..=MAX_WHATIF_FLOWS).contains(&flows) {
                    return Err(ApiError::bad(format!(
                        "flows must be in 1..={MAX_WHATIF_FLOWS}, got {flows}"
                    )));
                }
                let rtt = match v.get("rtt") {
                    None => 0.08,
                    Some(r) => r
                        .as_f64()
                        .filter(|r| (0.001..=10.0).contains(r))
                        .ok_or_else(|| ApiError::bad("rtt must be in [0.001, 10] seconds"))?,
                };
                let workers = usize_field(v, "workers", 1)?;
                if !(1..=8).contains(&workers) {
                    return Err(ApiError::bad("workers must be in 1..=8"));
                }
                Ok(ApiRequest::Whatif(WhatifParams {
                    scenario,
                    n,
                    nu,
                    kappa,
                    c,
                    flows,
                    rtt,
                    workers,
                }))
            }
            _ => Err(ApiError {
                status: 404,
                message: format!("no such endpoint: {path}"),
                index: None,
            }),
        }
    }

    /// The canonical cache key: endpoint, scenario, CP count and every
    /// float as its bit pattern. Equal keys ⇔ the same question.
    pub fn canonical_key(&self) -> String {
        let bits = |x: f64| format!("{:016x}", x.to_bits());
        match self {
            ApiRequest::Equilibrium(p) => format!(
                "eq|{}|n={}|nu={}|profile={}",
                scenario_name(p.scenario),
                p.n,
                bits(p.nu),
                u8::from(p.include_profile)
            ),
            ApiRequest::Strategy(p) => {
                let grid: Vec<String> = p.cs.iter().map(|&c| bits(c)).collect();
                format!(
                    "strat|{}|n={}|nu={}|kappa={}|cs={}",
                    scenario_name(p.scenario),
                    p.n,
                    bits(p.nu),
                    bits(p.kappa),
                    grid.join(",")
                )
            }
            ApiRequest::Capacity(p) => format!(
                "cap|{}|n={}|nu={}|target={}|cmax={}|grid={}",
                scenario_name(p.scenario),
                p.n,
                bits(p.nu),
                bits(p.target_fraction),
                bits(p.c_max),
                p.grid_n
            ),
            // `workers` is deliberately absent: the simulator is
            // byte-identical across worker counts, so it is an execution
            // hint, not part of the question.
            ApiRequest::Whatif(p) => format!(
                "whatif|{}|n={}|nu={}|kappa={}|c={}|flows={}|rtt={}",
                scenario_name(p.scenario),
                p.n,
                bits(p.nu),
                bits(p.kappa),
                bits(p.c),
                p.flows,
                bits(p.rtt)
            ),
        }
    }

    /// Endpoint label for metrics.
    pub fn endpoint(&self) -> &'static str {
        match self {
            ApiRequest::Equilibrium(_) => "equilibrium",
            ApiRequest::Strategy(_) => "strategy",
            ApiRequest::Capacity(_) => "capacity",
            ApiRequest::Whatif(_) => "whatif",
        }
    }

    /// Solve the query and render the response body.
    ///
    /// # Errors
    ///
    /// `500` when the solver reports an unrecoverable failure (possible
    /// only for pathological demand families; the shipped scenarios all
    /// satisfy Assumption 1).
    pub fn handle(&self, scenarios: &ScenarioStore, warm: &WarmPool) -> Result<String, ApiError> {
        match self {
            ApiRequest::Equilibrium(p) => handle_equilibrium(p, scenarios, warm),
            ApiRequest::Strategy(p) => handle_strategy(p, scenarios, warm),
            ApiRequest::Capacity(p) => handle_capacity(p, scenarios),
            ApiRequest::Whatif(p) => handle_whatif(p, scenarios, warm),
        }
    }
}

/// Parse a `/v1/batch` body: `{"queries": [{"endpoint": "equilibrium" |
/// "strategy" | "capacity", ...params}, ...]}` where each element carries
/// the same parameter fields its single-query endpoint takes. Validation
/// is all-or-nothing — one malformed sub-query rejects the whole batch,
/// so a batch never partially executes on a client-side bug.
///
/// # Errors
///
/// `400` when the body is not valid JSON, `queries` is missing, empty or
/// longer than [`MAX_BATCH`], or any sub-query fails its endpoint's
/// validation (the error names the offending index).
pub fn parse_batch(body: &str) -> Result<Vec<ApiRequest>, ApiError> {
    let v = parse(body).map_err(|e| ApiError::bad(format!("body is not valid JSON: {e}")))?;
    let queries = v
        .get("queries")
        .and_then(Value::as_array)
        .ok_or_else(|| ApiError::bad("batch body must carry a \"queries\" array"))?;
    if queries.is_empty() || queries.len() > MAX_BATCH {
        return Err(ApiError::bad(format!(
            "queries must have 1..={MAX_BATCH} entries, got {}",
            queries.len()
        )));
    }
    queries
        .iter()
        .enumerate()
        .map(|(i, q)| {
            let endpoint = q.get("endpoint").and_then(Value::as_str).ok_or_else(|| {
                ApiError::bad_at(i, format!("queries[{i}]: missing \"endpoint\""))
            })?;
            let path = match endpoint {
                "equilibrium" => "/v1/equilibrium",
                "strategy" => "/v1/strategy",
                "capacity" => "/v1/capacity",
                "whatif" => "/v1/whatif",
                other => {
                    return Err(ApiError::bad_at(
                        i,
                        format!(
                            "queries[{i}]: unknown endpoint {other:?} \
                             (expected equilibrium | strategy | capacity | whatif)"
                        ),
                    ))
                }
            };
            ApiRequest::parse_value(path, q)
                .map_err(|e| ApiError::bad_at(i, format!("queries[{i}]: {}", e.message)))
        })
        .collect()
}

fn handle_equilibrium(
    p: &EqParams,
    scenarios: &ScenarioStore,
    warm: &WarmPool,
) -> Result<String, ApiError> {
    let pop = scenarios.population(p.scenario, p.n);
    let entry = warm.eq_entry(p.scenario, p.n, &pop);
    let mut entry = entry.lock().expect("eq warm entry poisoned");
    let entry = &mut *entry;
    let (eq, _stats) = try_solve_maxmin_warm(
        &pop,
        p.nu,
        Tolerance::default(),
        &SolverPolicy::default(),
        &entry.cache,
        &mut entry.warm,
    )
    .map_err(|e| ApiError {
        status: 500,
        message: format!("equilibrium solve failed: {e}"),
        index: None,
    })?;
    let phi = consumer_surplus(&pop, &eq);
    let mut fields = vec![
        ("schema".into(), Value::from("pubopt-serve/v1")),
        ("endpoint".into(), Value::from("equilibrium")),
        ("scenario".into(), Value::from(scenario_name(p.scenario))),
        ("n".into(), Value::from(pop.len())),
        ("nu".into(), Value::from(p.nu)),
        ("congested".into(), Value::from(eq.is_congested(&pop))),
        // ∞ (uncongested) serialises as null by the JSON writer's
        // non-finite rule; clients read null as "no binding water level".
        (
            "water_level".into(),
            Value::from(eq.water_level.unwrap_or(f64::INFINITY)),
        ),
        ("aggregate".into(), Value::from(eq.aggregate)),
        ("phi".into(), Value::from(phi)),
    ];
    if p.include_profile {
        let arr = |xs: &[f64]| Value::Array(xs.iter().map(|&x| Value::from(x)).collect());
        fields.push(("thetas".into(), arr(&eq.thetas)));
        fields.push(("demands".into(), arr(&eq.demands)));
    }
    Ok(Value::Object(fields).to_string())
}

fn handle_strategy(
    p: &StrategyParams,
    scenarios: &ScenarioStore,
    warm: &WarmPool,
) -> Result<String, ApiError> {
    let pop = scenarios.population(p.scenario, p.n);
    let entry = warm.game_entry(p.scenario, p.n, p.kappa);
    let mut game_warm = entry.lock().expect("game warm entry poisoned");
    let tol = Tolerance::COARSE;
    let mut points = Vec::with_capacity(p.cs.len());
    let mut best: Option<(f64, f64)> = None;
    for &c in &p.cs {
        let sol = competitive_equilibrium_warm(
            &pop,
            p.nu,
            IspStrategy::new(p.kappa, c),
            tol,
            &mut game_warm,
        );
        let psi = sol.outcome.isp_surplus(&pop);
        let phi = sol.outcome.consumer_surplus(&pop);
        if best.is_none_or(|(_, b)| psi > b) {
            best = Some((c, psi));
        }
        points.push(Value::Object(vec![
            ("c".into(), Value::from(c)),
            ("psi".into(), Value::from(psi)),
            ("phi".into(), Value::from(phi)),
            (
                "premium_count".into(),
                Value::from(sol.outcome.partition.premium_count()),
            ),
            (
                "premium_full".into(),
                Value::from(sol.outcome.premium_fully_utilized(&pop, 1e-6)),
            ),
        ]));
    }
    let (best_c, best_psi) = best.expect("grid validated non-empty");
    Ok(Value::Object(vec![
        ("schema".into(), Value::from("pubopt-serve/v1")),
        ("endpoint".into(), Value::from("strategy")),
        ("scenario".into(), Value::from(scenario_name(p.scenario))),
        ("n".into(), Value::from(pop.len())),
        ("nu".into(), Value::from(p.nu)),
        ("kappa".into(), Value::from(p.kappa)),
        ("points".into(), Value::Array(points)),
        (
            "best".into(),
            Value::Object(vec![
                ("c".into(), Value::from(best_c)),
                ("psi".into(), Value::from(best_psi)),
            ]),
        ),
    ])
    .to_string())
}

/// Simulated outcome of one capacity tier (premium or ordinary).
struct TierResult {
    body: Value,
    rel_error: Vec<f64>,
}

/// Replay equilibrium demand through the event-driven AIMD simulator on
/// one tier: CPs `indices` share a link of `capacity`, CP *i* running
/// `round(α_i · d_i · M)` flows capped at `θ̂_i`. Returns `None` when the
/// tier has no capacity or no active flows (nothing to simulate).
fn simulate_tier(
    pop: &Population,
    indices: &[usize],
    demands: &[f64],
    capacity: f64,
    consumers: f64,
    rtt: f64,
    workers: usize,
) -> Option<TierResult> {
    if capacity <= 0.0 {
        return None;
    }
    let cps: Vec<_> = pop.iter().collect();
    let mut groups = Vec::new();
    for &i in indices {
        let cp = cps[i];
        let flows = (cp.alpha * demands[i] * consumers).round();
        if flows < 1.0 {
            continue;
        }
        groups.push(FlowGroup::new(
            format!("cp-{i}"),
            flows as usize,
            cp.theta_hat,
            rtt,
        ));
    }
    if groups.is_empty() {
        return None;
    }
    let total_flows: usize = groups.iter().map(|g| g.flows).sum();
    let config = SimConfig {
        capacity,
        warmup: WHATIF_WARMUP,
        measure: WHATIF_MEASURE,
        ..SimConfig::default()
    };
    let mut sim = ScaledSim::new(groups.clone(), config, workers);
    let out = sim.run();
    let cmp = compare_report_to_maxmin(&out.report, &groups, capacity);
    let body = Value::Object(vec![
        ("capacity".into(), Value::from(capacity)),
        ("flows".into(), Value::from(total_flows)),
        ("groups".into(), Value::from(groups.len())),
        ("classes".into(), Value::from(out.classes)),
        ("aggregate".into(), Value::from(out.report.aggregate)),
        (
            "mean_queue_delay".into(),
            Value::from(out.report.mean_queue_delay),
        ),
        ("mean_rel_error".into(), Value::from(cmp.mean_rel_error)),
        ("max_rel_error".into(), Value::from(cmp.max_rel_error)),
        ("jain_uncapped".into(), Value::from(cmp.jain_uncapped)),
    ]);
    Some(TierResult {
        body,
        rel_error: cmp.rel_error,
    })
}

fn handle_whatif(
    p: &WhatifParams,
    scenarios: &ScenarioStore,
    warm: &WarmPool,
) -> Result<String, ApiError> {
    let pop = scenarios.population(p.scenario, p.n);
    let outcome = {
        let entry = warm.game_entry(p.scenario, p.n, p.kappa);
        let mut game_warm = entry.lock().expect("game warm entry poisoned");
        competitive_equilibrium_warm(
            &pop,
            p.nu,
            IspStrategy::new(p.kappa, p.c),
            Tolerance::COARSE,
            &mut game_warm,
        )
        .outcome
    };
    let psi = outcome.isp_surplus(&pop);
    let phi = outcome.consumer_surplus(&pop);

    // Each tier is its own bottleneck: the premium CPs share κ·ν·M, the
    // ordinary ones (1−κ)·ν·M — exactly the two-link reading of Figure 1
    // under the paper's capacity split.
    let m = p.flows as f64;
    let premium = simulate_tier(
        &pop,
        &outcome.partition.premium_indices(),
        &outcome.demands,
        p.kappa * p.nu * m,
        m,
        p.rtt,
        p.workers,
    );
    let ordinary = simulate_tier(
        &pop,
        &outcome.partition.ordinary_indices(),
        &outcome.demands,
        (1.0 - p.kappa) * p.nu * m,
        m,
        p.rtt,
        p.workers,
    );

    // Headline divergence pools both tiers' per-CP relative errors.
    let mut rel = Vec::new();
    for tier in [&premium, &ordinary].into_iter().flatten() {
        rel.extend_from_slice(&tier.rel_error);
    }
    let mean_rel = if rel.is_empty() {
        0.0
    } else {
        rel.iter().sum::<f64>() / rel.len() as f64
    };
    let max_rel = rel.iter().cloned().fold(0.0, f64::max);

    let tier_value = |t: Option<TierResult>| t.map_or(Value::Null, |t| t.body);
    Ok(Value::Object(vec![
        ("schema".into(), Value::from("pubopt-serve/v1")),
        ("endpoint".into(), Value::from("whatif")),
        ("scenario".into(), Value::from(scenario_name(p.scenario))),
        ("n".into(), Value::from(pop.len())),
        ("nu".into(), Value::from(p.nu)),
        ("kappa".into(), Value::from(p.kappa)),
        ("c".into(), Value::from(p.c)),
        ("flows".into(), Value::from(p.flows)),
        ("rtt".into(), Value::from(p.rtt)),
        (
            "analytical".into(),
            Value::Object(vec![
                ("psi".into(), Value::from(psi)),
                ("phi".into(), Value::from(phi)),
                (
                    "premium_count".into(),
                    Value::from(outcome.partition.premium_count()),
                ),
                ("converged".into(), Value::from(outcome.converged)),
            ]),
        ),
        ("premium".into(), tier_value(premium)),
        ("ordinary".into(), tier_value(ordinary)),
        (
            "divergence".into(),
            Value::Object(vec![
                ("compared".into(), Value::from(rel.len())),
                ("mean_rel_error".into(), Value::from(mean_rel)),
                ("max_rel_error".into(), Value::from(max_rel)),
            ]),
        ),
    ])
    .to_string())
}

fn handle_capacity(p: &CapacityParams, scenarios: &ScenarioStore) -> Result<String, ApiError> {
    let pop = scenarios.population(p.scenario, p.n);
    let gamma = minimum_po_capacity(
        &pop,
        p.nu,
        p.target_fraction,
        p.c_max,
        p.grid_n,
        Tolerance::COARSE,
    );
    Ok(Value::Object(vec![
        ("schema".into(), Value::from("pubopt-serve/v1")),
        ("endpoint".into(), Value::from("capacity")),
        ("scenario".into(), Value::from(scenario_name(p.scenario))),
        ("n".into(), Value::from(pop.len())),
        ("nu".into(), Value::from(p.nu)),
        ("target_fraction".into(), Value::from(p.target_fraction)),
        ("gamma_min".into(), gamma.map_or(Value::Null, Value::from)),
        ("reachable".into(), Value::from(gamma.is_some())),
    ])
    .to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonicalization_ignores_spelling() {
        let a =
            ApiRequest::parse("/v1/equilibrium", r#"{"scenario":"trio","nu":1.50,"n":3}"#).unwrap();
        let b =
            ApiRequest::parse("/v1/equilibrium", r#"{"n":3,"nu":1.5,"scenario":"trio"}"#).unwrap();
        assert_eq!(a.canonical_key(), b.canonical_key());
    }

    #[test]
    fn shorthand_grid_matches_explicit_grid() {
        let explicit = ApiRequest::parse(
            "/v1/strategy",
            r#"{"scenario":"trio","n":3,"nu":1.0,"kappa":1.0,"cs":[0.0,0.5,1.0]}"#,
        )
        .unwrap();
        let shorthand = ApiRequest::parse(
            "/v1/strategy",
            r#"{"scenario":"trio","n":3,"nu":1.0,"kappa":1.0,"c_max":1.0,"c_steps":3}"#,
        )
        .unwrap();
        assert_eq!(explicit.canonical_key(), shorthand.canonical_key());
    }

    #[test]
    fn distinct_parameters_get_distinct_keys() {
        let mk = |nu: f64| {
            ApiRequest::parse(
                "/v1/equilibrium",
                &format!(r#"{{"scenario":"trio","n":3,"nu":{nu}}}"#),
            )
            .unwrap()
            .canonical_key()
        };
        assert_ne!(mk(1.0), mk(1.0000000001));
    }

    #[test]
    fn validation_rejects_bad_inputs() {
        for (path, body) in [
            ("/v1/equilibrium", r#"{"nu": -1.0}"#),
            ("/v1/equilibrium", r#"{"nu": 1.0, "n": 0}"#),
            ("/v1/equilibrium", r#"{"nu": 1.0, "n": 9000000}"#),
            ("/v1/equilibrium", "{not json"),
            ("/v1/equilibrium", r#"{"scenario":"mystery","nu":1.0}"#),
            ("/v1/strategy", r#"{"nu":1.0,"kappa":1.5}"#),
            ("/v1/strategy", r#"{"nu":1.0,"cs":[-0.2]}"#),
            ("/v1/capacity", r#"{"nu":1.0,"target_fraction":2.0}"#),
            (
                "/v1/capacity",
                r#"{"nu":1.0,"target_fraction":0.8,"grid_n":40}"#,
            ),
        ] {
            assert_eq!(
                ApiRequest::parse(path, body).unwrap_err().status,
                400,
                "{path} {body} must be rejected"
            );
        }
        assert_eq!(ApiRequest::parse("/v1/nope", "{}").unwrap_err().status, 404);
    }

    #[test]
    fn batch_errors_carry_the_failing_index() {
        let err = parse_batch(
            r#"{"queries":[{"endpoint":"equilibrium","nu":1.0},{"endpoint":"equilibrium","nu":-1.0}]}"#,
        )
        .unwrap_err();
        assert_eq!(err.status, 400);
        assert_eq!(err.index, Some(1));
        let v = parse(&err.body()).unwrap();
        assert_eq!(v["index"].as_u64(), Some(1));
        assert!(v["error"].as_str().unwrap().starts_with("queries[1]:"));

        let err = parse_batch(r#"{"queries":[{"nu":1.0}]}"#).unwrap_err();
        assert_eq!(err.index, Some(0), "missing endpoint pins index 0");

        // Batch-level failures (bad envelope) carry no index.
        let err = parse_batch(r#"{"queries":[]}"#).unwrap_err();
        assert_eq!(err.index, None);
        assert!(!err.body().contains("\"index\""));
    }

    #[test]
    fn equilibrium_handler_matches_direct_solver() {
        let scenarios = ScenarioStore::default();
        let warm = WarmPool::default();
        let req = ApiRequest::parse(
            "/v1/equilibrium",
            r#"{"scenario":"trio","n":3,"nu":2.0,"include_profile":true}"#,
        )
        .unwrap();
        let body = req.handle(&scenarios, &warm).unwrap();
        let v = parse(&body).unwrap();
        let direct = pubopt_eq::solve_maxmin(
            &scenarios.population(ScenarioKind::Trio, 3),
            2.0,
            Tolerance::default(),
        );
        assert!((v["aggregate"].as_f64().unwrap() - direct.aggregate).abs() < 1e-9);
        assert_eq!(v["thetas"].as_array().unwrap().len(), 3);
        assert_eq!(v["congested"].as_bool(), Some(true));
    }

    #[test]
    fn uncongested_water_level_serialises_as_null() {
        let scenarios = ScenarioStore::default();
        let warm = WarmPool::default();
        let req = ApiRequest::parse("/v1/equilibrium", r#"{"scenario":"trio","n":3,"nu":100.0}"#)
            .unwrap();
        let body = req.handle(&scenarios, &warm).unwrap();
        let v = parse(&body).unwrap();
        assert_eq!(v["water_level"], Value::Null);
        assert_eq!(v["congested"].as_bool(), Some(false));
    }

    #[test]
    fn whatif_validation_and_key() {
        for body in [
            r#"{"nu":1.0,"kappa":1.5}"#,
            r#"{"nu":1.0,"c":-0.1}"#,
            r#"{"nu":1.0,"flows":0}"#,
            r#"{"nu":1.0,"flows":3000000}"#,
            r#"{"nu":1.0,"rtt":0.0}"#,
            r#"{"nu":1.0,"workers":0}"#,
            r#"{"nu":1.0,"workers":9}"#,
            r#"{"nu":1.0,"n":6000}"#,
        ] {
            assert_eq!(
                ApiRequest::parse("/v1/whatif", body).unwrap_err().status,
                400,
                "{body} must be rejected"
            );
        }
        // The worker count is an execution hint: same canonical key.
        let k = |w: u32| {
            ApiRequest::parse(
                "/v1/whatif",
                &format!(r#"{{"scenario":"trio","n":3,"nu":1.0,"workers":{w}}}"#),
            )
            .unwrap()
            .canonical_key()
        };
        assert_eq!(k(1), k(4));
        // ...but the strategy is not.
        let kc = |c: f64| {
            ApiRequest::parse(
                "/v1/whatif",
                &format!(r#"{{"scenario":"trio","n":3,"nu":1.0,"c":{c}}}"#),
            )
            .unwrap()
            .canonical_key()
        };
        assert_ne!(kc(0.0), kc(0.1));
    }

    #[test]
    fn whatif_handler_reports_small_divergence_at_neutral_strategy() {
        // κ = 0 with zero charge is the network-neutral baseline: every
        // CP shares one link, and the simulated AIMD outcome must land
        // near the analytical equilibrium (the §II-D.2 claim, served).
        let scenarios = ScenarioStore::default();
        let warm = WarmPool::default();
        let req = ApiRequest::parse(
            "/v1/whatif",
            r#"{"scenario":"trio","n":3,"nu":0.5,"kappa":0.0,"flows":300}"#,
        )
        .unwrap();
        let body = req.handle(&scenarios, &warm).unwrap();
        let v = parse(&body).unwrap();
        assert_eq!(v["endpoint"].as_str(), Some("whatif"));
        assert_eq!(v["premium"], Value::Null, "no premium tier at kappa=0");
        let ordinary = &v["ordinary"];
        assert!(ordinary.get("flows").is_some(), "ordinary tier simulated");
        let mean = v["divergence"]["mean_rel_error"].as_f64().unwrap();
        assert!(
            mean < 0.12,
            "simulated outcome should track the equilibrium, divergence {mean}"
        );
        assert!(v["divergence"]["compared"].as_u64().unwrap() >= 1);
    }

    #[test]
    fn whatif_is_deterministic_across_worker_counts() {
        let scenarios = ScenarioStore::default();
        let warm = WarmPool::default();
        let run = |workers: usize| {
            ApiRequest::parse(
                "/v1/whatif",
                &format!(
                    r#"{{"scenario":"trio","n":3,"nu":0.5,"kappa":0.4,"c":0.05,"flows":400,"workers":{workers}}}"#
                ),
            )
            .unwrap()
            .handle(&scenarios, &warm)
            .unwrap()
        };
        assert_eq!(run(1), run(4), "bodies must be byte-identical");
    }

    #[test]
    fn strategy_handler_matches_revenue_sweep() {
        let scenarios = ScenarioStore::default();
        let warm = WarmPool::default();
        let req = ApiRequest::parse(
            "/v1/strategy",
            r#"{"scenario":"paper","n":40,"nu":4.0,"kappa":1.0,"cs":[0.0,0.3,0.6]}"#,
        )
        .unwrap();
        let body = req.handle(&scenarios, &warm).unwrap();
        let v = parse(&body).unwrap();
        let pop = scenarios.population(ScenarioKind::PaperEnsemble, 40);
        let sweep = pubopt_core::revenue_sweep(&pop, 4.0, 1.0, &[0.0, 0.3, 0.6], Tolerance::COARSE);
        for (i, pt) in sweep.iter().enumerate() {
            let got = v["points"][i]["psi"].as_f64().unwrap();
            assert!(
                (got - pt.psi).abs() <= 1e-9 * (1.0 + pt.psi.abs()),
                "point {i}: served psi {got} vs direct {}",
                pt.psi
            );
        }
        assert_eq!(v["points"][0]["psi"].as_f64(), Some(0.0));
    }
}
