//! Sharded water-filling: the shard-side partial-aggregate endpoint and
//! the coordinator that drives a byte-identical distributed solve.
//!
//! A population of `n` CPs is split across `N` shard daemons along the
//! fixed 64-lane block lattice of [`pubopt_num::blocked_partials`]:
//! shard `s` owns blocks [`pubopt_num::shard_blocks`]`(s, N)` and the
//! CP span [`pubopt_num::shard_span`]`(n, s, N)`. Because every
//! reduction in the solver is restarted per block, a shard can compute
//! its blocks' Kahan partials *exactly* as the single process would,
//! and the coordinator recovers the single-process sum bit-for-bit by
//! combining all 64 block totals in order ([`pubopt_num::combine_partials`]).
//! The bisection then sees bit-identical Λ(w) at every probe, takes the
//! identical trajectory, and lands on the identical water level — the
//! distributed solve is byte-identical to `solve_maxmin`, not merely
//! tolerance-close (asserted end to end by `tests/serve_dist.rs`).
//!
//! **Protocol.** One POST endpoint on every daemon, `/v1/shard/aggregate`,
//! takes `{scenario, n, shard, of, op[, w]}` and answers one of four
//! pure queries on the deterministic scenario population:
//!
//! * `op: "meta"` — population length, the shard's max `θ̂` (an
//!   associative fold), and the shard's blocks of the unconstrained
//!   per-capita total;
//! * `op: "lambda"` — the shard's blocks of Λ(w) at the probe level `w`;
//! * `op: "aggregate"` — the shard's blocks of the aggregate-throughput
//!   sum at the solved level `w`, and nothing else;
//! * `op: "profile"` — the shard's θ/d slices at `w` plus the same
//!   aggregate blocks.
//!
//! A solve asks `meta` once, `lambda` per probe, and at the solved level
//! `aggregate` — or `profile` when the caller asked for θ/d
//! ([`HttpShardSource::with_profile`]).
//!
//! Every float crosses the wire as its IEEE-754 bit pattern in 16 hex
//! chars (the `canonical_key` convention), vectors as concatenated hex —
//! decimal formatting would round-trip but re-parsing must be *exact*,
//! and bit patterns make that non-negotiable by construction.
//!
//! **Fan-out.** The coordinator asks every shard each question at once:
//! its own thread asks shard 0 and a scoped thread asks each other shard,
//! so a probe costs the slowest shard rather than the sum of them.
//! Answers are placed into the 64-lane frame by block index, so the order
//! in which they arrive cannot change a bit.
//!
//! **Failure semantics.** Shard RPCs ride [`ResilientClient`]: retries
//! with seeded-jitter backoff, a retry budget, and per-endpoint circuit
//! breakers. Shard queries are pure and cached server-side, so a retried
//! probe replays the first computation's exact bytes and a chaos-injected
//! blackhole costs latency, never determinism. A shard that stays dark
//! past the retry schedule surfaces as a typed
//! [`pubopt_eq::SourceSolveError::Source`] carrying the shard index —
//! when several shards fail one question, the lowest index; the
//! coordinator answers `503` without guessing at partial sums.

use crate::api::{
    check_n, check_nu, f64_field, include_profile_of, scenario_name, scenario_of, usize_field,
    ApiError,
};
use crate::client::{ResilientClient, RetryPolicy};
use crate::state::ScenarioStore;
use pubopt_eq::{
    aggregate_block_partials, lambda_block_partials, profile_block_slices, AggregateSource,
    SourceProfile,
};
use pubopt_num::{shard_blocks, shard_span, BLOCK_LANES};
use pubopt_obs::json::{parse, Value};
use pubopt_workload::ScenarioKind;
use std::net::SocketAddr;
use std::time::Duration;

/// Timeout on each shard RPC attempt. Comfortably above the chaos
/// proxy's default blackhole window (300 ms), so a blackholed attempt
/// fails fast by *connection close*, not by stalling out the budget.
pub const SHARD_RPC_TIMEOUT: Duration = Duration::from_millis(2_000);

/// Jitter seed for the coordinator's retry schedule; per-shard clients
/// offset it by shard index so their backoff draws decorrelate.
const SHARD_RETRY_SEED: u64 = 0xd157_5eed;

// ---------------------------------------------------------------------
// Wire encoding: IEEE-754 bit patterns in hex
// ---------------------------------------------------------------------

/// One `f64` as its bit pattern: 16 lowercase hex chars.
pub fn hex_f64(x: f64) -> String {
    format!("{:016x}", x.to_bits())
}

/// Parse a 16-hex-char bit pattern back to the exact `f64`.
pub fn parse_hex_f64(s: &str) -> Option<f64> {
    if s.len() != 16 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    u64::from_str_radix(s, 16).ok().map(f64::from_bits)
}

/// A vector of `f64` as concatenated bit patterns.
pub fn hex_f64s(xs: &[f64]) -> String {
    let mut out = String::with_capacity(xs.len() * 16);
    for &x in xs {
        out.push_str(&hex_f64(x));
    }
    out
}

/// Parse concatenated bit patterns; `None` unless the string is a whole
/// number of 16-char chunks that all decode.
pub fn parse_hex_f64s(s: &str) -> Option<Vec<f64>> {
    if !s.len().is_multiple_of(16) {
        return None;
    }
    s.as_bytes()
        .chunks(16)
        .map(|c| parse_hex_f64(std::str::from_utf8(c).ok()?))
        .collect()
}

// ---------------------------------------------------------------------
// Shard side: /v1/shard/aggregate
// ---------------------------------------------------------------------

/// The partial-aggregate operation a shard is asked to run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ShardOp {
    /// Population length, shard-local max `θ̂`, unconstrained-total blocks.
    Meta,
    /// Λ(w) block partials at the probe water level.
    Lambda(f64),
    /// Aggregate-throughput block partials at the solved level `w`.
    Aggregate(f64),
    /// θ/d slices plus aggregate-throughput block partials at `w`.
    Profile(f64),
}

impl ShardOp {
    fn name(self) -> &'static str {
        match self {
            ShardOp::Meta => "meta",
            ShardOp::Lambda(_) => "lambda",
            ShardOp::Aggregate(_) => "aggregate",
            ShardOp::Profile(_) => "profile",
        }
    }

    fn w(self) -> Option<f64> {
        match self {
            ShardOp::Meta => None,
            ShardOp::Lambda(w) | ShardOp::Aggregate(w) | ShardOp::Profile(w) => Some(w),
        }
    }
}

/// A parsed, validated `/v1/shard/aggregate` query.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardQuery {
    /// Scenario kind (the shard rebuilds the full deterministic
    /// population and serves its slice of it).
    pub scenario: ScenarioKind,
    /// Requested CP count ([`Scenario::load_scaled`](pubopt_workload::Scenario::load_scaled) semantics).
    pub n: usize,
    /// This shard's index in `0..of`.
    pub shard: usize,
    /// Total shard count; must divide [`BLOCK_LANES`] so shard block
    /// ranges tile the lattice exactly.
    pub of: usize,
    /// The operation.
    pub op: ShardOp,
}

impl ShardQuery {
    /// Parse and validate a shard query body.
    ///
    /// # Errors
    ///
    /// `400` for malformed JSON, an off-lattice shard count, a shard
    /// index out of range, or a missing/malformed `w` bit pattern.
    pub fn parse(body: &str) -> Result<Self, ApiError> {
        let v = parse(body).map_err(|e| ApiError::bad(format!("body is not valid JSON: {e}")))?;
        let scenario = scenario_of(&v)?;
        let n = check_n(usize_field(&v, "n", 1000)?, crate::api::MAX_CPS)?;
        let of = usize_field(&v, "of", 0)?;
        if of == 0 || of > BLOCK_LANES || !BLOCK_LANES.is_multiple_of(of) {
            return Err(ApiError::bad(format!(
                "of must be a divisor of {BLOCK_LANES} (got {of})"
            )));
        }
        let shard = usize_field(&v, "shard", of)?;
        if shard >= of {
            return Err(ApiError::bad(format!(
                "shard must be in 0..{of}, got {shard}"
            )));
        }
        let op = match v.get("op").and_then(Value::as_str) {
            Some("meta") => ShardOp::Meta,
            Some(op @ ("lambda" | "aggregate" | "profile")) => {
                let w = v
                    .get("w")
                    .and_then(Value::as_str)
                    .and_then(parse_hex_f64)
                    .ok_or_else(|| ApiError::bad("w must be an f64 bit pattern (16 hex chars)"))?;
                if w.is_nan() || w < 0.0 {
                    return Err(ApiError::bad("w must be >= 0 (or +inf), not NaN"));
                }
                match op {
                    "lambda" => ShardOp::Lambda(w),
                    "aggregate" => ShardOp::Aggregate(w),
                    _ => ShardOp::Profile(w),
                }
            }
            other => {
                return Err(ApiError::bad(format!(
                    "op must be meta | lambda | aggregate | profile, got {other:?}"
                )))
            }
        };
        Ok(Self {
            scenario,
            n,
            shard,
            of,
            op,
        })
    }

    /// The query as the JSON body [`ShardQuery::parse`] reads.
    pub(crate) fn body(&self) -> String {
        let w = self
            .op
            .w()
            .map(|w| format!(",\"w\":\"{}\"", hex_f64(w)))
            .unwrap_or_default();
        format!(
            "{{\"scenario\":\"{}\",\"n\":{},\"shard\":{},\"of\":{},\"op\":\"{}\"{w}}}",
            scenario_name(self.scenario),
            self.n,
            self.shard,
            self.of,
            self.op.name()
        )
    }

    /// Cache key: endpoint, scenario, shard geometry, op, and the probe
    /// level's bit pattern. Retried probes hit the response cache and
    /// replay the first computation's exact bytes.
    pub fn canonical_key(&self) -> String {
        format!(
            "shard|{}|n={}|{}/{}|op={}|w={}",
            scenario_name(self.scenario),
            self.n,
            self.shard,
            self.of,
            self.op.name(),
            self.op.w().map(hex_f64).unwrap_or_default()
        )
    }

    /// Run the query against the scenario store and render the response
    /// body. Infallible once validated: every op is a pure total
    /// function of the deterministic population.
    pub fn handle(&self, scenarios: &ScenarioStore) -> String {
        let pop = scenarios.population(self.scenario, self.n);
        let blocks = shard_blocks(self.shard, self.of);
        let span = shard_span(pop.len(), self.shard, self.of);
        let mut fields = vec![
            ("schema".into(), Value::from("pubopt-serve/v1")),
            ("endpoint".into(), Value::from("shard")),
            ("op".into(), Value::from(self.op.name())),
            ("shard".into(), Value::from(self.shard)),
            ("of".into(), Value::from(self.of)),
            ("len".into(), Value::from(pop.len())),
        ];
        match self.op {
            ShardOp::Meta => {
                let cps = pop.cps();
                let max = cps[span.clone()]
                    .iter()
                    .fold(f64::NEG_INFINITY, |m, cp| m.max(cp.theta_hat));
                let totals = pop.total_unconstrained_partials(blocks);
                fields.push(("max_theta_hat".into(), Value::from(hex_f64(max))));
                fields.push(("total_partials".into(), Value::from(hex_f64s(&totals))));
            }
            ShardOp::Lambda(w) => {
                let partials = lambda_block_partials(&pop, w, blocks);
                fields.push(("partials".into(), Value::from(hex_f64s(&partials))));
            }
            ShardOp::Aggregate(w) => {
                let partials = aggregate_block_partials(&pop, w, blocks);
                fields.push(("partials".into(), Value::from(hex_f64s(&partials))));
            }
            ShardOp::Profile(w) => {
                let (thetas, demands, partials) = profile_block_slices(&pop, w, span, blocks);
                fields.push(("thetas".into(), Value::from(hex_f64s(&thetas))));
                fields.push(("demands".into(), Value::from(hex_f64s(&demands))));
                fields.push(("partials".into(), Value::from(hex_f64s(&partials))));
            }
        }
        Value::Object(fields).to_string()
    }
}

// ---------------------------------------------------------------------
// Coordinator side: /v1/dist/solve
// ---------------------------------------------------------------------

/// `/v1/dist/solve` parameters — the equilibrium question, answered by
/// fanning the reductions out over the shard registry.
#[derive(Debug, Clone, PartialEq)]
pub struct DistParams {
    /// Scenario kind.
    pub scenario: ScenarioKind,
    /// CP count.
    pub n: usize,
    /// Per-capita capacity ν ≥ 0.
    pub nu: f64,
    /// Include full θ/d profiles (at most 10 000 CPs, the
    /// `/v1/equilibrium` bound), rendered as bit-pattern hex so tests can
    /// assert them byte-for-byte.
    pub include_profile: bool,
}

impl DistParams {
    /// Parse and validate a distributed-solve body (the `/v1/equilibrium`
    /// parameter shape).
    ///
    /// # Errors
    ///
    /// `400` for malformed JSON, out-of-range parameters, or
    /// `include_profile` above the `/v1/equilibrium` profile bound.
    pub fn parse(body: &str) -> Result<Self, ApiError> {
        let v = if body.trim().is_empty() {
            Value::Object(Vec::new())
        } else {
            parse(body).map_err(|e| ApiError::bad(format!("body is not valid JSON: {e}")))?
        };
        let scenario = scenario_of(&v)?;
        let n = check_n(usize_field(&v, "n", 1000)?, crate::api::MAX_CPS)?;
        let nu = check_nu(f64_field(&v, "nu")?)?;
        let include_profile = include_profile_of(&v, n)?;
        Ok(Self {
            scenario,
            n,
            nu,
            include_profile,
        })
    }
}

/// A shard RPC that failed past the full retry schedule, or answered
/// with bytes the coordinator cannot accept.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardRpcError {
    /// Which registry entry failed.
    pub shard: usize,
    /// What happened.
    pub message: String,
}

impl std::fmt::Display for ShardRpcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "shard {}: {}", self.shard, self.message)
    }
}

impl std::error::Error for ShardRpcError {}

/// Cached first-round answers: these are w-independent, so one fan-out
/// serves the whole solve.
#[derive(Debug)]
struct ShardMeta {
    len: usize,
    max_theta_hat: f64,
    total_partials: Vec<f64>,
}

/// An [`AggregateSource`] whose reductions run on remote shard daemons.
///
/// Each registry entry gets its own keep-alive [`ResilientClient`], so a
/// ~50-probe bisection reuses N connections rather than opening ~50·N.
/// Every question goes to all shards at once; their block partials are
/// placed into the fixed 64-lane frame, and
/// [`pubopt_eq::solve_maxmin_with_source`] combines them in block order,
/// which is exactly the single-process reduction.
#[derive(Debug)]
pub struct HttpShardSource {
    scenario: ScenarioKind,
    n: usize,
    clients: Vec<ResilientClient>,
    with_profile: bool,
    meta: Option<ShardMeta>,
    rpcs: u64,
}

impl HttpShardSource {
    /// A source over `shards` registry entries, one resilient client per
    /// shard. At the solved level it fetches only the aggregate partials,
    /// so [`AggregateSource::profile`] returns empty θ/d; ask for the
    /// slices with [`with_profile`](Self::with_profile).
    ///
    /// # Panics
    ///
    /// If the registry is empty or its size does not divide
    /// [`BLOCK_LANES`] (enforced earlier at daemon spawn).
    pub fn new(scenario: ScenarioKind, n: usize, shards: &[SocketAddr]) -> Self {
        assert!(
            !shards.is_empty() && BLOCK_LANES.is_multiple_of(shards.len()),
            "shard registry size must divide {BLOCK_LANES}"
        );
        let clients = shards
            .iter()
            .enumerate()
            .map(|(i, &addr)| {
                ResilientClient::new(
                    addr,
                    SHARD_RPC_TIMEOUT,
                    RetryPolicy::new(SHARD_RETRY_SEED.wrapping_add(i as u64)),
                )
            })
            .collect();
        Self {
            scenario,
            n,
            clients,
            with_profile: false,
            meta: None,
            rpcs: 0,
        }
    }

    /// Also fetch every shard's θ/d slices at the solved level, so
    /// [`AggregateSource::profile`] returns the full profile.
    pub fn with_profile(mut self) -> Self {
        self.with_profile = true;
        self
    }

    /// Shard RPCs issued so far (retries not included — this counts
    /// questions asked, the effort analogue of `lambda_evals`).
    pub fn rpcs(&self) -> u64 {
        self.rpcs
    }

    fn of(&self) -> usize {
        self.clients.len()
    }

    /// Ask every shard `op` at once and decode each 200 answer with
    /// `decode(shard, json)`; the answers come back in shard order. The
    /// caller's thread asks shard 0 and a scoped thread asks each other
    /// shard. When any shard fails, the error of the lowest-index failing
    /// shard is returned.
    fn ask_all<T: Send>(
        &mut self,
        op: ShardOp,
        decode: impl Fn(usize, &Value) -> Result<T, ShardRpcError> + Sync,
    ) -> Result<Vec<T>, ShardRpcError> {
        let (scenario, n, of) = (self.scenario, self.n, self.of());
        self.rpcs += of as u64;
        let ask = |shard: usize, client: &mut ResilientClient| {
            let body = ShardQuery {
                scenario,
                n,
                shard,
                of,
                op,
            }
            .body();
            let fail = |message: String| ShardRpcError { shard, message };
            let (status, resp) = client
                .post("/v1/shard/aggregate", &body)
                .map_err(|e| fail(format!("unreachable past retries: {e}")))?;
            if status != 200 {
                return Err(fail(format!("answered {status}: {resp}")));
            }
            let v = parse(&resp).map_err(|e| fail(format!("unparseable response: {e}")))?;
            decode(shard, &v)
        };
        let (first, rest) = self
            .clients
            .split_first_mut()
            .expect("registry is non-empty");
        let answers: Vec<_> = std::thread::scope(|s| {
            let ask = &ask;
            let others: Vec<_> = rest
                .iter_mut()
                .enumerate()
                .map(|(i, client)| s.spawn(move || ask(i + 1, client)))
                .collect();
            let mut answers = vec![ask(0, first)];
            answers.extend(
                others
                    .into_iter()
                    .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p))),
            );
            answers
        });
        answers.into_iter().collect()
    }

    /// Decode a hex-vector field, checking the element count.
    fn hex_field(
        v: &Value,
        key: &str,
        expect: usize,
        shard: usize,
    ) -> Result<Vec<f64>, ShardRpcError> {
        v.get(key)
            .and_then(Value::as_str)
            .and_then(parse_hex_f64s)
            .filter(|xs| xs.len() == expect)
            .ok_or_else(|| ShardRpcError {
                shard,
                message: format!("response field {key:?} is not {expect} f64 bit patterns"),
            })
    }

    /// Place each shard's block partials into the 64-lane frame. Shard
    /// block ranges tile `0..BLOCK_LANES` exactly, so every lane is
    /// written exactly once.
    fn frame(per_shard: Vec<Vec<f64>>) -> Vec<f64> {
        let of = per_shard.len();
        let mut frame = vec![0.0; BLOCK_LANES];
        for (shard, partials) in per_shard.into_iter().enumerate() {
            frame[shard_blocks(shard, of)].copy_from_slice(&partials);
        }
        frame
    }

    /// Ask every shard a block-partial `op` and assemble the frame.
    fn gather_partials(&mut self, op: ShardOp) -> Result<Vec<f64>, ShardRpcError> {
        let of = self.of();
        let parts = self.ask_all(op, |shard, v| {
            Self::hex_field(v, "partials", shard_blocks(shard, of).len(), shard)
        })?;
        Ok(Self::frame(parts))
    }

    /// Fetch (once) the w-independent answers.
    fn meta(&mut self) -> Result<&ShardMeta, ShardRpcError> {
        if self.meta.is_none() {
            let of = self.of();
            let answers = self.ask_all(ShardOp::Meta, |shard, v| {
                let fail = |message: String| ShardRpcError { shard, message };
                let len = v
                    .get("len")
                    .and_then(Value::as_u64)
                    .ok_or_else(|| fail("response has no len".into()))?
                    as usize;
                let max = v
                    .get("max_theta_hat")
                    .and_then(Value::as_str)
                    .and_then(parse_hex_f64)
                    .ok_or_else(|| fail("response has no max_theta_hat bit pattern".into()))?;
                let blocks = shard_blocks(shard, of).len();
                Ok((
                    len,
                    max,
                    Self::hex_field(v, "total_partials", blocks, shard)?,
                ))
            })?;
            let len = answers[0].0;
            if let Some(shard) = answers.iter().position(|a| a.0 != len) {
                return Err(ShardRpcError {
                    shard,
                    message: format!(
                        "population length {} disagrees with shard 0's {len}",
                        answers[shard].0
                    ),
                });
            }
            let max_theta_hat = answers.iter().fold(f64::NEG_INFINITY, |m, a| m.max(a.1));
            self.meta = Some(ShardMeta {
                len,
                max_theta_hat,
                total_partials: Self::frame(answers.into_iter().map(|a| a.2).collect()),
            });
        }
        Ok(self.meta.as_ref().expect("meta just fetched"))
    }
}

impl AggregateSource for HttpShardSource {
    type Error = ShardRpcError;

    fn len(&mut self) -> Result<usize, ShardRpcError> {
        Ok(self.meta()?.len)
    }

    fn max_theta_hat(&mut self) -> Result<f64, ShardRpcError> {
        Ok(self.meta()?.max_theta_hat)
    }

    fn total_unconstrained_partials(&mut self) -> Result<Vec<f64>, ShardRpcError> {
        Ok(self.meta()?.total_partials.clone())
    }

    fn lambda_partials(&mut self, w: f64) -> Result<Vec<f64>, ShardRpcError> {
        self.gather_partials(ShardOp::Lambda(w))
    }

    fn profile(&mut self, w: f64) -> Result<SourceProfile, ShardRpcError> {
        if !self.with_profile {
            return Ok(SourceProfile {
                thetas: Vec::new(),
                demands: Vec::new(),
                aggregate_partials: self.gather_partials(ShardOp::Aggregate(w))?,
            });
        }
        let of = self.of();
        let len = self.meta()?.len;
        let answers = self.ask_all(ShardOp::Profile(w), |shard, v| {
            let span = shard_span(len, shard, of).len();
            Ok((
                Self::hex_field(v, "thetas", span, shard)?,
                Self::hex_field(v, "demands", span, shard)?,
                Self::hex_field(v, "partials", shard_blocks(shard, of).len(), shard)?,
            ))
        })?;
        let mut thetas = Vec::with_capacity(len);
        let mut demands = Vec::with_capacity(len);
        let mut partials = Vec::with_capacity(of);
        for (t, d, p) in answers {
            thetas.extend(t);
            demands.extend(d);
            partials.push(p);
        }
        Ok(SourceProfile {
            thetas,
            demands,
            aggregate_partials: Self::frame(partials),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pubopt_eq::LocalSource;

    #[test]
    fn hex_round_trips_exactly() {
        for x in [
            0.0,
            -0.0,
            1.5,
            std::f64::consts::PI,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            -2.2250738585072014e-308,
        ] {
            let enc = hex_f64(x);
            assert_eq!(enc.len(), 16);
            let back = parse_hex_f64(&enc).expect("round trip");
            assert_eq!(back.to_bits(), x.to_bits());
        }
        let v = vec![0.1, 0.2, f64::INFINITY];
        let back = parse_hex_f64s(&hex_f64s(&v)).expect("vector round trip");
        assert_eq!(
            back.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            v.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn malformed_hex_is_rejected() {
        assert_eq!(parse_hex_f64("3ff"), None);
        assert_eq!(parse_hex_f64("zzzzzzzzzzzzzzzz"), None);
        assert_eq!(parse_hex_f64s("3ff0"), None);
        assert_eq!(parse_hex_f64("3ff0000000000000x"), None);
    }

    #[test]
    fn shard_query_validation_rejects_bad_geometry() {
        let bad = |body: &str, needle: &str| {
            let e = ShardQuery::parse(body).expect_err("must reject");
            assert_eq!(e.status, 400);
            assert!(e.message.contains(needle), "{:?} !~ {needle:?}", e.message);
        };
        // 3 does not divide 64: partial blocks would split a Kahan chain.
        bad(
            r#"{"scenario":"paper","n":100,"shard":0,"of":3,"op":"meta"}"#,
            "divisor",
        );
        bad(
            r#"{"scenario":"paper","n":100,"shard":2,"of":2,"op":"meta"}"#,
            "shard must be in 0..2",
        );
        bad(
            r#"{"scenario":"paper","n":100,"shard":0,"of":2,"op":"lambda"}"#,
            "bit pattern",
        );
        bad(
            r#"{"scenario":"paper","n":100,"shard":0,"of":2,"op":"aggregate"}"#,
            "bit pattern",
        );
        bad(
            r#"{"scenario":"paper","n":100,"shard":0,"of":2,"op":"lambda","w":"1.5"}"#,
            "bit pattern",
        );
        // NaN probe: fff8000000000000.
        bad(
            r#"{"scenario":"paper","n":100,"shard":0,"of":2,"op":"lambda","w":"fff8000000000000"}"#,
            "not NaN",
        );
        bad(
            r#"{"scenario":"paper","n":100,"shard":0,"of":2,"op":"noop"}"#,
            "op must be",
        );
    }

    #[test]
    fn shard_handlers_agree_with_the_local_source() {
        let scenarios = ScenarioStore::default();
        let pop = scenarios.population(ScenarioKind::PaperEnsemble, 157);
        let mut local = LocalSource::new(&pop);
        let w = 0.37_f64;
        let of = 4;

        // Concatenate every shard's response fields and compare against
        // the all-blocks local queries, bit for bit.
        let mut lambda = Vec::new();
        let mut totals = Vec::new();
        let mut thetas = Vec::new();
        let mut aggregates = [Vec::new(), Vec::new()];
        let mut max = f64::NEG_INFINITY;
        for shard in 0..of {
            let q = |op: ShardOp| {
                let query = ShardQuery {
                    scenario: ScenarioKind::PaperEnsemble,
                    n: 157,
                    shard,
                    of,
                    op,
                };
                let parsed = ShardQuery::parse(&query.body()).expect("valid query");
                assert_eq!(parsed, query, "the wire body round-trips");
                parse(&parsed.handle(&scenarios)).expect("valid response")
            };
            let hex = |v: &Value, key: &str| {
                parse_hex_f64s(v.get(key).and_then(Value::as_str).unwrap()).expect(key)
            };
            let meta = q(ShardOp::Meta);
            assert_eq!(meta.get("len").and_then(Value::as_u64), Some(157));
            max = max.max(
                parse_hex_f64(meta.get("max_theta_hat").and_then(Value::as_str).unwrap())
                    .expect("max bit pattern"),
            );
            totals.extend(hex(&meta, "total_partials"));
            lambda.extend(hex(&q(ShardOp::Lambda(w)), "partials"));
            thetas.extend(hex(&q(ShardOp::Profile(w)), "thetas"));
            for (agg, level) in aggregates.iter_mut().zip([w, f64::INFINITY]) {
                let v = q(ShardOp::Aggregate(level));
                assert!(v.get("thetas").is_none() && v.get("demands").is_none());
                agg.extend(hex(&v, "partials"));
            }
        }
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&lambda), bits(&local.lambda_partials(w).unwrap()));
        assert_eq!(
            bits(&totals),
            bits(&local.total_unconstrained_partials().unwrap())
        );
        assert_eq!(max.to_bits(), local.max_theta_hat().unwrap().to_bits());
        assert_eq!(bits(&thetas), bits(&local.profile(w).unwrap().thetas));
        for (agg, level) in aggregates.iter().zip([w, f64::INFINITY]) {
            assert_eq!(
                bits(agg),
                bits(&local.profile(level).unwrap().aggregate_partials),
                "aggregate partials at w = {level}"
            );
        }
    }

    #[test]
    fn shard_cache_keys_separate_probes_and_geometry() {
        let q = |body: &str| ShardQuery::parse(body).expect("valid").canonical_key();
        let a = q(
            r#"{"scenario":"paper","n":100,"shard":0,"of":2,"op":"lambda","w":"3fd0000000000000"}"#,
        );
        let b = q(
            r#"{"scenario":"paper","n":100,"shard":0,"of":2,"op":"lambda","w":"3fe0000000000000"}"#,
        );
        let c = q(
            r#"{"scenario":"paper","n":100,"shard":1,"of":2,"op":"lambda","w":"3fd0000000000000"}"#,
        );
        let d = q(
            r#"{"scenario":"paper","n":100,"shard":0,"of":4,"op":"lambda","w":"3fd0000000000000"}"#,
        );
        let e = q(
            r#"{"scenario":"paper","n":100,"shard":0,"of":2,"op":"aggregate","w":"3fd0000000000000"}"#,
        );
        let f = q(
            r#"{"scenario":"paper","n":100,"shard":0,"of":2,"op":"profile","w":"3fd0000000000000"}"#,
        );
        assert_ne!(a, b, "probe level must key");
        assert_ne!(a, c, "shard index must key");
        assert_ne!(a, d, "shard count must key");
        assert_ne!(e, f, "aggregate must key apart from profile");
        assert_ne!(a, e, "aggregate must key apart from lambda");
    }

    #[test]
    fn dist_params_bound_include_profile_like_equilibrium() {
        let over = r#"{"scenario":"paper","n":10001,"nu":0.3,"include_profile":true}"#;
        let e = DistParams::parse(over).expect_err("above the profile bound");
        assert_eq!(e.status, 400);
        assert_eq!(e.message, "include_profile is limited to n <= 10000");
        let eq = crate::api::ApiRequest::parse("/v1/equilibrium", over).expect_err("same bound");
        assert_eq!(e, eq, "one bound, one message");
        let p =
            DistParams::parse(r#"{"scenario":"paper","n":10000,"nu":0.3,"include_profile":true}"#)
                .expect("at the profile bound");
        assert!(p.include_profile);
        assert_eq!(p.n, 10_000);
        // Without the flag, any n up to MAX_CPS parses.
        let p =
            DistParams::parse(r#"{"scenario":"paper","n":100000,"nu":0.3}"#).expect("no profile");
        assert!(!p.include_profile);
    }
}
