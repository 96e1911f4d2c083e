//! Seeded load generation against the `pubopt-serve` daemon.
//!
//! A seed expands deterministically into a mixed request stream over the
//! query endpoints, drawn from a bounded parameter pool so repeats land
//! in the daemon's response cache. The generator drives the `loadgen`
//! binary (CI smokes and ad-hoc probing).
//!
//! The failure drills live here too: [`chaos_soak`] replays the same
//! seeded workload through a [`ChaosProxy`] with [`ResilientClient`]s
//! and tallies availability, goodput, and tail latency under fault —
//! the CI `chaos-soak` task is that soak at two fault rates.

use pubopt_num::Rng;
use pubopt_serve::client::{CircuitBreaker, ResilienceStats, RetryBudget};
use pubopt_serve::{
    client, client::Client, spawn, ChaosNetConfig, ChaosProxy, ResilientClient, RetryPolicy,
    ServeConfig, Stat,
};
use std::net::SocketAddr;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Workload-shape options.
#[derive(Debug, Clone)]
pub struct LoadOptions {
    /// Total requests to issue.
    pub requests: usize,
    /// Concurrent client threads.
    pub clients: usize,
    /// Workload seed: same seed ⇒ same request stream, byte for byte.
    pub seed: u64,
    /// Distinct parameter tuples in the pool. The expected cache hit rate
    /// of a long run approaches `1 − pool/requests`.
    pub pool: usize,
    /// CP count for the ensemble-scenario requests.
    pub scenario_n: usize,
    /// Fraction of pool entries that are `/v1/whatif` co-simulations —
    /// the compute-heavy traffic class the calendar-queue engine serves.
    /// `0.0` reproduces the historical three-endpoint mixture byte for
    /// byte (the remaining mass is rescaled, not shifted).
    pub whatif_ratio: f64,
}

impl Default for LoadOptions {
    fn default() -> Self {
        Self {
            requests: 200,
            clients: 4,
            seed: 7,
            pool: 24,
            scenario_n: 60,
            whatif_ratio: 0.0,
        }
    }
}

/// Outcome of replaying one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadSummary {
    /// Requests issued.
    pub requests: usize,
    /// `2xx` responses.
    pub ok: usize,
    /// `429` responses (queue-full shedding).
    pub shed: usize,
    /// `5xx` responses (worker panics surface as `500`).
    pub server_errors: usize,
    /// Other non-`2xx` responses (should be zero: the generator only
    /// emits valid queries).
    pub client_errors: usize,
    /// Requests that failed at the socket level.
    pub transport_errors: usize,
    /// Wall time for the whole replay, microseconds.
    pub elapsed_us: u64,
    /// `requests / elapsed` in requests per second.
    pub throughput_rps: f64,
    /// Nearest-rank median latency over **all** responses — shed `429`s,
    /// deadline `504`s, other errors, and transport failures included.
    /// Under overload the daemon sheds *fast*, so this family reads
    /// optimistically low; it answers "how long did callers wait",
    /// not "how fast was work served".
    pub p50_us: u64,
    /// Nearest-rank 95th-percentile latency over all responses.
    pub p95_us: u64,
    /// Nearest-rank 99th-percentile latency over all responses.
    pub p99_us: u64,
    /// Nearest-rank median latency over **`2xx` responses only** — the
    /// achieved-goodput family, the honest "latency of work actually
    /// served". Zero when nothing succeeded.
    pub goodput_p50_us: u64,
    /// Nearest-rank goodput (`2xx`-only) p95 latency, microseconds.
    pub goodput_p95_us: u64,
    /// Nearest-rank goodput (`2xx`-only) p99 latency, microseconds.
    pub goodput_p99_us: u64,
}

impl LoadSummary {
    /// Everything that is not a `2xx`: the count CI asserts to be zero.
    pub fn failed(&self) -> usize {
        self.requests - self.ok
    }
}

/// Render an `f64` for a JSON body. Rust's `Display` emits the shortest
/// string that round-trips, so the daemon parses back the exact bits and
/// two textually identical bodies share a cache key.
fn num(x: f64) -> String {
    format!("{x}")
}

/// One pool entry: `(path, body)` for a valid query. The mixture is
/// roughly 45% equilibrium, 45% strategy, 10% capacity — strategy solves
/// dominate cold cost, equilibrium dominates count in real use, capacity
/// keeps the slowest endpoint honest.
fn pool_entry(rng: &mut Rng, scenario_n: usize) -> (String, String) {
    pool_entry_mixed(rng, scenario_n, 0.0)
}

/// [`pool_entry`] with a `/v1/whatif` slice carved off the top:
/// a draw below `whatif_ratio` becomes a co-simulation query, the rest of
/// the unit interval rescales onto the historical three-endpoint mixture
/// (so `whatif_ratio == 0.0` reproduces the old stream exactly — same
/// seed, same bytes).
fn pool_entry_mixed(rng: &mut Rng, scenario_n: usize, whatif_ratio: f64) -> (String, String) {
    let raw = rng.next_f64();
    if raw < whatif_ratio {
        // Equilibrium-vs-AIMD co-simulation on the trio: the expensive
        // event-driven class. Bounded parameter menu so repeats cache.
        let nu = rng.uniform(0.4, 1.0);
        let kappa = [0.0, 0.5, 1.0][rng.below(3) as usize];
        let c = rng.uniform(0.0, 0.3);
        let flows = [200u64, 400, 800][rng.below(3) as usize];
        return (
            "/v1/whatif".to_owned(),
            format!(
                "{{\"scenario\":\"trio\",\"nu\":{},\"kappa\":{},\"c\":{},\"flows\":{flows}}}",
                num(nu),
                num(kappa),
                num(c)
            ),
        );
    }
    let kind = if whatif_ratio > 0.0 {
        (raw - whatif_ratio) / (1.0 - whatif_ratio)
    } else {
        raw
    };
    if kind < 0.45 {
        // Rate equilibrium on the paper ensemble, congested regime
        // (ν* ≈ 0.25·n for the default ensemble).
        let nu = rng.uniform(0.02, 0.3) * scenario_n as f64;
        let profile = rng.next_f64() < 0.25;
        (
            "/v1/equilibrium".to_owned(),
            format!(
                "{{\"scenario\":\"paper\",\"n\":{scenario_n},\"nu\":{},\"include_profile\":{profile}}}",
                num(nu)
            ),
        )
    } else if kind < 0.9 {
        // Monopoly charge sweep: the expensive family (one competitive
        // equilibrium per grid point).
        let nu = rng.uniform(0.05, 0.25) * scenario_n as f64;
        let kappa = [0.25, 0.5, 1.0][rng.below(3) as usize];
        let c_max = rng.uniform(0.4, 1.2);
        (
            "/v1/strategy".to_owned(),
            format!(
                "{{\"scenario\":\"paper\",\"n\":{scenario_n},\"nu\":{},\"kappa\":{},\"c_max\":{},\"c_steps\":5}}",
                num(nu),
                num(kappa),
                num(c_max)
            ),
        )
    } else {
        // Public Option sizing on the trio (small grid: the γ search runs
        // a duopoly solve per candidate).
        let nu = rng.uniform(0.8, 2.0);
        let target = rng.uniform(0.5, 0.95);
        (
            "/v1/capacity".to_owned(),
            format!(
                "{{\"scenario\":\"trio\",\"nu\":{},\"target_fraction\":{},\"c_max\":2.0,\"grid_n\":3}}",
                num(nu),
                num(target)
            ),
        )
    }
}

/// Expand `opts` into the request stream: a pool of
/// [`LoadOptions::pool`] distinct queries, sampled uniformly (with the
/// same seeded generator) for [`LoadOptions::requests`] draws. Pure
/// function of the options.
pub fn mixed_workload(opts: &LoadOptions) -> Vec<(String, String)> {
    assert!(opts.pool > 0, "pool must be non-empty");
    assert!(
        (0.0..=1.0).contains(&opts.whatif_ratio),
        "whatif_ratio must be in [0, 1]"
    );
    let mut rng = Rng::seed_from_u64(opts.seed);
    let pool: Vec<(String, String)> = (0..opts.pool)
        .map(|_| pool_entry_mixed(&mut rng, opts.scenario_n, opts.whatif_ratio))
        .collect();
    (0..opts.requests)
        .map(|_| pool[rng.below(opts.pool as u64) as usize].clone())
        .collect()
}

/// Process-wide pool of loadgen client threads, shared by every
/// [`replay`] call and reused across request batches. The old replay
/// spawned (and joined) `clients` fresh OS threads per batch, so a
/// multi-batch run like `loadgen --ab-connections` — prewarm, close
/// pass, reuse pass — paid thread setup per pass; the persistent pool
/// pays it once per process. The clients deliberately do *not* share
/// `pubopt_sched::Pool::global()`: these tasks block on sockets, and
/// parking a compute worker behind peer I/O would stall any equilibrium
/// sweep running in the same process. Per-call concurrency is still the
/// `clients` argument; the pool's 32 threads are the process-wide cap.
fn client_pool() -> &'static pubopt_sched::Pool {
    static POOL: OnceLock<pubopt_sched::Pool> = OnceLock::new();
    POOL.get_or_init(|| pubopt_sched::Pool::new(32))
}

/// Connection discipline for a replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnMode {
    /// A fresh TCP connection per request, `Connection: close` — the
    /// pre-keep-alive baseline, and one arm of the CI A/B.
    Close,
    /// One persistent keep-alive connection per client thread.
    Reuse,
}

/// Replay shape beyond the workload itself.
#[derive(Debug, Clone)]
pub struct ReplayOptions {
    /// Concurrent client threads.
    pub clients: usize,
    /// Connection discipline.
    pub mode: ConnMode,
    /// Requests written per pipelined burst (1 = no pipelining; > 1
    /// implies [`ConnMode::Reuse`]).
    pub pipeline: usize,
    /// Open-loop arrival rate in requests/second across all clients.
    /// Request `i` is *scheduled* at `i / rate`, and its latency is
    /// measured from that scheduled start, not from when the client got
    /// around to sending it — so queueing delay under overload shows up
    /// in the percentiles instead of being coordinated-omission'd away.
    /// `None` = closed loop (send as fast as responses return).
    pub rate_rps: Option<f64>,
    /// Wrap consecutive same-client requests into `/v1/batch` envelopes
    /// of this size (`None` = plain single queries).
    pub batch: Option<usize>,
}

impl Default for ReplayOptions {
    fn default() -> Self {
        Self {
            clients: 4,
            mode: ConnMode::Close,
            pipeline: 1,
            rate_rps: None,
            batch: None,
        }
    }
}

/// Replay `workload` against a daemon at `addr` from up to `clients`
/// concurrent client threads (drawn from the shared [`client_pool`]) and
/// tally the outcome. Equivalent to [`replay_with`] in [`ConnMode::Close`]
/// with no pipelining, batching or rate pacing.
pub fn replay(addr: SocketAddr, workload: &[(String, String)], clients: usize) -> LoadSummary {
    replay_with(
        addr,
        workload,
        &ReplayOptions {
            clients,
            ..ReplayOptions::default()
        },
    )
}

/// The endpoint name `/v1/batch` sub-queries use for `path`.
fn endpoint_name(path: &str) -> &str {
    path.rsplit('/').next().unwrap_or(path)
}

/// Rewrite a single-query `(path, body)` as a batch sub-query object by
/// splicing the `endpoint` discriminator into the JSON body.
fn batch_entry(path: &str, body: &str) -> String {
    let rest = body.trim_start().strip_prefix('{').unwrap_or(body);
    let sep = if rest.trim_start().starts_with('}') {
        ""
    } else {
        ","
    };
    format!("{{\"endpoint\":\"{}\"{sep}{rest}", endpoint_name(path))
}

/// Replay `workload` with explicit connection discipline, pipelining,
/// batching, and open-loop pacing. Requests are dealt round-robin to the
/// client threads, so every mode replays the identical per-client
/// subsequences — an A/B between two modes differs only in transport.
pub fn replay_with(
    addr: SocketAddr,
    workload: &[(String, String)],
    opts: &ReplayOptions,
) -> LoadSummary {
    let (elapsed_us, _, outcomes) = replay_raw(addr, workload, opts);
    tally(workload.len(), elapsed_us, outcomes.into_iter().flatten())
}

/// Per-endpoint slice of a replay: the achieved-goodput latency family
/// restricted to one traffic class, so a cheap cached equilibrium lookup
/// can never mask the tail of the co-simulation class (or vice versa).
#[derive(Debug, Clone, PartialEq)]
pub struct ClassSummary {
    /// Endpoint name (`equilibrium`, `strategy`, `capacity`, `whatif`).
    pub endpoint: String,
    /// Requests of this class in the workload.
    pub requests: usize,
    /// `2xx` responses of this class.
    pub ok: usize,
    /// Goodput (`2xx`-only) median latency, microseconds.
    pub goodput_p50_us: u64,
    /// Goodput p95 latency, microseconds.
    pub goodput_p95_us: u64,
    /// Goodput p99 latency, microseconds.
    pub goodput_p99_us: u64,
}

/// [`replay_with`], additionally splitting the goodput percentiles per
/// endpoint class (ordered by first appearance in the workload).
pub fn replay_classified(
    addr: SocketAddr,
    workload: &[(String, String)],
    opts: &ReplayOptions,
) -> (LoadSummary, Vec<ClassSummary>) {
    let (elapsed_us, lanes, outcomes) = replay_raw(addr, workload, opts);
    // Re-align lane outcomes with workload indices: outcome j of lane k
    // answers request lanes[k][j].
    let mut by_request: Vec<(u16, u64)> = vec![(0, 0); workload.len()];
    for (lane, out) in lanes.iter().zip(&outcomes) {
        debug_assert_eq!(lane.len(), out.len());
        for (&i, &res) in lane.iter().zip(out) {
            by_request[i] = res;
        }
    }
    let summary = tally(workload.len(), elapsed_us, by_request.iter().copied());
    let mut order: Vec<&str> = Vec::new();
    for (path, _) in workload {
        let name = endpoint_name(path);
        if !order.contains(&name) {
            order.push(name);
        }
    }
    let classes = order
        .into_iter()
        .map(|name| {
            let mut requests = 0;
            let mut ok = 0;
            let mut good = Vec::new();
            for (i, (path, _)) in workload.iter().enumerate() {
                if endpoint_name(path) != name {
                    continue;
                }
                requests += 1;
                let (status, us) = by_request[i];
                if (200..300).contains(&status) {
                    ok += 1;
                    good.push(us);
                }
            }
            let (p50, p95, p99) = percentiles(&mut good);
            ClassSummary {
                endpoint: name.to_owned(),
                requests,
                ok,
                goodput_p50_us: p50,
                goodput_p95_us: p95,
                goodput_p99_us: p99,
            }
        })
        .collect();
    (summary, classes)
}

/// The socket work shared by [`replay_with`] and [`replay_classified`]:
/// returns `(elapsed_us, lanes, per-lane outcomes)` with outcome `j` of
/// lane `k` answering workload index `lanes[k][j]`.
#[allow(clippy::type_complexity)]
fn replay_raw(
    addr: SocketAddr,
    workload: &[(String, String)],
    opts: &ReplayOptions,
) -> (u64, Vec<Vec<usize>>, Vec<Vec<(u16, u64)>>) {
    let clients = opts.clients.clamp(1, workload.len().max(1));
    let pipeline = opts.pipeline.max(1);
    // Deal requests round-robin: client k gets indices k, k+clients, …
    let lanes: Vec<Vec<usize>> = (0..clients)
        .map(|k| (k..workload.len()).step_by(clients).collect())
        .collect();
    let start = Instant::now();
    // (status, latency_us) per request; transport errors record status 0.
    let outcomes: Vec<Vec<(u16, u64)>> = client_pool().map(&lanes, clients, |lane| {
        let mut conn = Client::new(addr);
        let mut out = Vec::with_capacity(lane.len());
        // The scheduled start of request `idx` under open-loop pacing.
        let scheduled = |idx: usize| -> Instant {
            match opts.rate_rps {
                Some(rate) if rate > 0.0 => start + Duration::from_secs_f64(idx as f64 / rate),
                _ => Instant::now(),
            }
        };
        let lat = |from: Instant| u64::try_from(from.elapsed().as_micros()).unwrap_or(u64::MAX);
        let group = opts.batch.unwrap_or(pipeline).max(1);
        for burst in lane.chunks(group) {
            // Open loop: wait for the burst's first scheduled arrival.
            let t0 = scheduled(burst[0]);
            if let Some(wait) = t0.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            if let Some(batch) = opts.batch {
                debug_assert!(batch >= 1);
                let subs: Vec<String> = burst
                    .iter()
                    .map(|&i| batch_entry(&workload[i].0, &workload[i].1))
                    .collect();
                let body = format!("{{\"queries\":[{}]}}", subs.join(","));
                let sent = match opts.mode {
                    ConnMode::Reuse => conn.post("/v1/batch", &body),
                    ConnMode::Close => client::post(addr, "/v1/batch", &body),
                };
                let us = lat(t0);
                let statuses = batch_statuses(sent.ok(), burst.len());
                out.extend(statuses.into_iter().map(|s| (s, us)));
            } else if pipeline > 1 {
                let reqs: Vec<(String, String)> =
                    burst.iter().map(|&i| workload[i].clone()).collect();
                match conn.pipeline(&reqs) {
                    Ok(responses) => {
                        let us = lat(t0);
                        out.extend(responses.into_iter().map(|(s, _)| (s, us)));
                    }
                    Err(_) => out.extend(burst.iter().map(|_| (0u16, lat(t0)))),
                }
            } else {
                for &i in burst {
                    let t = scheduled(i);
                    if let Some(wait) = t.checked_duration_since(Instant::now()) {
                        std::thread::sleep(wait);
                    }
                    let (path, body) = &workload[i];
                    let status = match opts.mode {
                        ConnMode::Reuse => conn.post(path, body),
                        ConnMode::Close => client::post(addr, path, body),
                    }
                    .map(|(s, _)| s)
                    .unwrap_or(0);
                    out.push((status, lat(t)));
                }
            }
        }
        out
    });
    let elapsed_us = u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX);
    (elapsed_us, lanes, outcomes)
}

/// Nearest-rank `(p50, p95, p99)` of a latency sample; zeros when empty.
fn percentiles(latencies: &mut [u64]) -> (u64, u64, u64) {
    latencies.sort_unstable();
    if latencies.is_empty() {
        return (0, 0, 0);
    }
    let rank = |q: f64| {
        let r = ((q * latencies.len() as f64).ceil() as usize).clamp(1, latencies.len());
        latencies[r - 1]
    };
    (rank(0.5), rank(0.95), rank(0.99))
}

/// Fold per-request `(status, latency_us)` outcomes into a
/// [`LoadSummary`]. Kept apart from the socket work so the percentile
/// split — all-responses vs achieved-goodput — is unit-testable without
/// a daemon. A `429` that sheds in microseconds and a transport error
/// that burned a full timeout both belong in the all-responses family
/// and neither belongs in the goodput family.
fn tally(
    requests: usize,
    elapsed_us: u64,
    outcomes: impl IntoIterator<Item = (u16, u64)>,
) -> LoadSummary {
    let mut summary = LoadSummary {
        requests,
        ok: 0,
        shed: 0,
        server_errors: 0,
        client_errors: 0,
        transport_errors: 0,
        elapsed_us,
        throughput_rps: requests as f64 / (elapsed_us.max(1) as f64 / 1e6),
        p50_us: 0,
        p95_us: 0,
        p99_us: 0,
        goodput_p50_us: 0,
        goodput_p95_us: 0,
        goodput_p99_us: 0,
    };
    let mut all = Vec::with_capacity(requests);
    let mut good = Vec::with_capacity(requests);
    for (status, us) in outcomes {
        all.push(us);
        match status {
            200..=299 => {
                summary.ok += 1;
                good.push(us);
            }
            429 => summary.shed += 1,
            500..=599 => summary.server_errors += 1,
            0 => summary.transport_errors += 1,
            _ => summary.client_errors += 1,
        }
    }
    (summary.p50_us, summary.p95_us, summary.p99_us) = percentiles(&mut all);
    (
        summary.goodput_p50_us,
        summary.goodput_p95_us,
        summary.goodput_p99_us,
    ) = percentiles(&mut good);
    summary
}

/// Per-sub-query statuses out of one `/v1/batch` exchange. A transport
/// failure or non-200 envelope marks every sub-query failed.
fn batch_statuses(sent: Option<(u16, String)>, n: usize) -> Vec<u16> {
    let Some((status, body)) = sent else {
        return vec![0; n];
    };
    if status != 200 {
        return vec![status; n];
    }
    let Ok(v) = pubopt_obs::json::parse(&body) else {
        return vec![0; n];
    };
    match v.get("results").and_then(pubopt_obs::json::Value::as_array) {
        Some(results) if results.len() == n => results
            .iter()
            .map(|r| {
                r.get("status")
                    .and_then(pubopt_obs::json::Value::as_u64)
                    .map_or(0, |s| s as u16)
            })
            .collect(),
        _ => vec![0; n],
    }
}

/// Options for a chaos soak: the hostile-network drill behind
/// `loadgen --chaos-net` and the CI `chaos-soak` task.
#[derive(Debug, Clone)]
pub struct ChaosSoakOptions {
    /// Total requests issued through the proxy.
    pub requests: usize,
    /// Concurrent resilient clients. The schedule digest and resilience
    /// counters are deterministic only at `clients == 1` — with more,
    /// proxy connection ids depend on accept interleaving.
    pub clients: usize,
    /// One seed keys everything: the workload stream, the proxy's fault
    /// schedule, and every client's backoff jitter.
    pub seed: u64,
    /// Aggregate fault rate handed to [`ChaosNetConfig::uniform`].
    pub fault_rate: f64,
    /// Distinct queries in the workload pool.
    pub pool: usize,
    /// CP count for the ensemble-scenario queries.
    pub scenario_n: usize,
    /// Optional `X-Deadline-Ms` attached to every request.
    pub deadline_ms: Option<u64>,
}

impl Default for ChaosSoakOptions {
    fn default() -> Self {
        Self {
            requests: 160,
            clients: 2,
            seed: 7,
            fault_rate: 0.1,
            pool: 8,
            scenario_n: 16,
            deadline_ms: None,
        }
    }
}

/// Outcome of one chaos soak: availability and latency under fault plus
/// the proxy's and clients' resilience counters.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosSoakSummary {
    /// Requests issued (excluding the byte-identity probes).
    pub requests: usize,
    /// Requests that ended in a `2xx` response.
    pub ok: usize,
    /// Requests that exhausted retries/budget without a final response.
    pub hard_failures: u64,
    /// `ok / requests` — the CI gate is ≥ 0.99 at a 10% fault rate.
    pub availability: f64,
    /// `ok / elapsed`, successful requests per second under fault.
    pub goodput_rps: f64,
    /// Soak wall time, microseconds.
    pub elapsed_us: u64,
    /// Nearest-rank median per-request latency (includes retries) over
    /// **all** outcomes — hard failures and deadline `504`s included.
    pub p50_us: u64,
    /// Nearest-rank p99 latency under fault over all outcomes.
    pub p99_us: u64,
    /// Nearest-rank median latency over **`2xx` outcomes only** — the
    /// achieved-goodput family under fault; a fast deadline shed can
    /// never drag it optimistically low.
    pub goodput_p50_us: u64,
    /// Nearest-rank goodput (`2xx`-only) p99 latency under fault.
    pub goodput_p99_us: u64,
    /// Network attempts that reached the wire.
    pub attempts: u64,
    /// Backoff waits taken.
    pub retries: u64,
    /// Requests answered on the first attempt.
    pub first_try_ok: u64,
    /// Retries abandoned because the token bucket was dry.
    pub budget_exhausted: u64,
    /// Faults the proxy actually injected (post-accept).
    pub faults_injected: u64,
    /// Connections refused at accept time.
    pub refusals: u64,
    /// Order-independent FNV digest of the proxy's fault log — the
    /// replay-determinism witness (same seed ⇒ same digest).
    pub schedule_digest: u64,
    /// Breaker trips (→ Open).
    pub breaker_opens: u64,
    /// Open → Half-Open probe admissions.
    pub breaker_half_opens: u64,
    /// Half-Open → Closed recoveries.
    pub breaker_closes: u64,
    /// Attempts short-circuited by an open breaker.
    pub breaker_short_circuits: u64,
    /// Waits that honored a server `Retry-After` hint.
    pub retry_after_honored: u64,
    /// Responses carrying `Degraded: stale`, from the client's counters.
    pub degraded_responses: u64,
    /// Requests the daemon shed as past their `X-Deadline-Ms`.
    pub deadline_shed: u64,
    /// Cache hits the daemon served from the reactor in degraded mode.
    pub degraded_served: u64,
    /// Serve workers the supervisor respawned after a panic.
    pub worker_respawns: u64,
    /// Whether responses that survived faults (via retries) matched a
    /// direct unfaulted connection to the same daemon byte for byte.
    pub byte_identical: bool,
}

impl ChaosSoakSummary {
    /// The timing-free fingerprint CI compares across two same-seed runs:
    /// the fault-schedule digest plus every counter that is a pure
    /// function of the seed at `clients == 1`. Excludes wall-clock
    /// derived fields (goodput, percentiles) and saturation-dependent
    /// counters (`retry_after_honored`, `degraded_responses`).
    pub fn determinism_key(&self) -> String {
        format!(
            "{:016x}-{}-{}-{}-{}-{}-{}-{}-{}-{}-{}",
            self.schedule_digest,
            self.ok,
            self.hard_failures,
            self.attempts,
            self.retries,
            self.faults_injected,
            self.refusals,
            self.breaker_opens,
            self.breaker_half_opens,
            self.breaker_closes,
            self.breaker_short_circuits,
        )
    }
}

/// Per-connect/read/write timeout for soak clients. Generous relative to
/// every injected delay (black holes close after ~300 ms) so the timeout
/// never fires on a fault the schedule will resolve by itself.
const SOAK_TIMEOUT: Duration = Duration::from_secs(5);

/// The resilient client every soak lane uses. The jitter seed mixes the
/// lane id so concurrent lanes don't sleep in lockstep; attempts and
/// budget are sized so a 30% fault rate stays short of hard failure.
/// The breaker is a hair trigger (trip on 1 failure, probe after 2
/// short circuits) so every transport fault walks the full
/// Closed → Open → Half-Open → Closed cycle inside one retry loop —
/// the CI gate that breaker recovery *happens* must not hinge on the
/// schedule producing consecutive same-endpoint faults.
fn soak_client(addr: SocketAddr, opts: &ChaosSoakOptions, lane: u64) -> ResilientClient {
    let policy = RetryPolicy {
        max_attempts: 12,
        base_backoff_ms: 2,
        max_backoff_ms: 50,
        seed: opts.seed ^ lane.wrapping_mul(0x9E37_79B9_7F4A_7C15),
    };
    let mut client = ResilientClient::new(addr, SOAK_TIMEOUT, policy)
        .with_budget(RetryBudget::new(opts.requests.max(8) as f64, 1.0))
        .with_breaker(CircuitBreaker::new(1, 2));
    if let Some(ms) = opts.deadline_ms {
        client = client.with_deadline_ms(ms);
    }
    client
}

/// Field-wise sum of two [`ResilienceStats`].
fn add_stats(a: ResilienceStats, b: ResilienceStats) -> ResilienceStats {
    ResilienceStats {
        requests: a.requests + b.requests,
        attempts: a.attempts + b.attempts,
        retries: a.retries + b.retries,
        first_try_ok: a.first_try_ok + b.first_try_ok,
        ok: a.ok + b.ok,
        hard_failures: a.hard_failures + b.hard_failures,
        breaker_opens: a.breaker_opens + b.breaker_opens,
        breaker_half_opens: a.breaker_half_opens + b.breaker_half_opens,
        breaker_closes: a.breaker_closes + b.breaker_closes,
        breaker_short_circuits: a.breaker_short_circuits + b.breaker_short_circuits,
        budget_exhausted: a.budget_exhausted + b.budget_exhausted,
        retry_after_honored: a.retry_after_honored + b.retry_after_honored,
        degraded_responses: a.degraded_responses + b.degraded_responses,
    }
}

/// Soak the daemon through a seeded chaos proxy with resilient clients
/// and tally availability, goodput, and the resilience counters.
///
/// One private daemon, one [`ChaosProxy`] in front of it, `clients`
/// concurrent [`ResilientClient`]s replaying the seeded workload through
/// the proxy. After the soak, a byte-identity probe re-asks the first
/// pool entries through the still-faulting proxy and compares the final
/// bodies against a direct connection to the same daemon — a response
/// that survived a mid-stream reset via retry must be exactly the bytes
/// an unfaulted client sees, never a truncated splice.
///
/// # Panics
///
/// Panics if the daemon or the proxy cannot bind a loopback port.
pub fn chaos_soak(opts: &ChaosSoakOptions) -> ChaosSoakSummary {
    let server = spawn(&ServeConfig::default()).expect("bind loopback daemon");
    let proxy = ChaosProxy::spawn(
        server.addr(),
        ChaosNetConfig::uniform(opts.seed, opts.fault_rate),
    )
    .expect("bind chaos proxy");
    let proxy_addr = proxy.addr();
    let workload = mixed_workload(&LoadOptions {
        requests: opts.requests,
        clients: opts.clients,
        seed: opts.seed,
        pool: opts.pool,
        scenario_n: opts.scenario_n,
        whatif_ratio: 0.0,
    });
    let clients = opts.clients.clamp(1, workload.len().max(1));
    let lanes: Vec<(u64, Vec<usize>)> = (0..clients)
        .map(|k| (k as u64, (k..workload.len()).step_by(clients).collect()))
        .collect();
    let start = Instant::now();
    let outcomes: Vec<(Vec<(u16, u64)>, ResilienceStats)> =
        client_pool().map(&lanes, clients, |(lane_id, lane)| {
            let mut conn = soak_client(proxy_addr, opts, *lane_id);
            let mut out = Vec::with_capacity(lane.len());
            for &i in lane {
                let (path, body) = &workload[i];
                let t = Instant::now();
                let status = conn.post(path, body).map(|(s, _)| s).unwrap_or(0);
                let us = u64::try_from(t.elapsed().as_micros()).unwrap_or(u64::MAX);
                out.push((status, us));
            }
            (out, conn.stats())
        });
    let elapsed_us = u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX);

    let mut ok = 0usize;
    let mut stats = ResilienceStats::default();
    let mut all = Vec::with_capacity(workload.len());
    let mut good = Vec::with_capacity(workload.len());
    for (lane_out, lane_stats) in outcomes {
        for (status, us) in lane_out {
            all.push(us);
            if (200..300).contains(&status) {
                ok += 1;
                good.push(us);
            }
        }
        stats = add_stats(stats, lane_stats);
    }
    let (p50_us, _, p99_us) = percentiles(&mut all);
    let (goodput_p50_us, _, goodput_p99_us) = percentiles(&mut good);

    // Byte-identity probe: the first pool entries (regenerated from the
    // workload seed) through the chaos path vs the daemon directly. The
    // soak has cached them, so both sides replay the same stored bytes —
    // unless a fault corrupted what the retry loop accepted.
    let mut rng = Rng::seed_from_u64(opts.seed);
    let probes: Vec<(String, String)> = (0..opts.pool.min(3))
        .map(|_| pool_entry(&mut rng, opts.scenario_n))
        .collect();
    let mut prober = soak_client(proxy_addr, opts, clients as u64);
    let byte_identical = probes.iter().all(|(path, body)| {
        match (
            prober.post(path, body),
            client::post(server.addr(), path, body),
        ) {
            (Ok((200, via_chaos)), Ok((200, direct))) => via_chaos == direct,
            _ => false,
        }
    });

    let faults_injected = proxy.faults_injected();
    let refusals = proxy.refusals();
    let schedule_digest = proxy.schedule_digest();
    proxy.shutdown();
    let deadline_shed = server.stat(Stat::DeadlineShed);
    let degraded_served = server.stat(Stat::DegradedServed);
    let worker_respawns = server.stat(Stat::WorkerRespawns);
    server.shutdown();
    server.join();

    ChaosSoakSummary {
        requests: workload.len(),
        ok,
        hard_failures: stats.hard_failures,
        availability: ok as f64 / workload.len().max(1) as f64,
        goodput_rps: ok as f64 / (elapsed_us.max(1) as f64 / 1e6),
        elapsed_us,
        p50_us,
        p99_us,
        goodput_p50_us,
        goodput_p99_us,
        attempts: stats.attempts,
        retries: stats.retries,
        first_try_ok: stats.first_try_ok,
        budget_exhausted: stats.budget_exhausted,
        faults_injected,
        refusals,
        schedule_digest,
        breaker_opens: stats.breaker_opens,
        breaker_half_opens: stats.breaker_half_opens,
        breaker_closes: stats.breaker_closes,
        breaker_short_circuits: stats.breaker_short_circuits,
        retry_after_honored: stats.retry_after_honored,
        degraded_responses: stats.degraded_responses,
        deadline_shed,
        degraded_served,
        worker_respawns,
        byte_identical,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_is_deterministic_and_pool_bounded() {
        let opts = LoadOptions {
            requests: 60,
            pool: 5,
            ..LoadOptions::default()
        };
        let a = mixed_workload(&opts);
        let b = mixed_workload(&opts);
        assert_eq!(a, b, "same seed must give the same stream");
        let distinct: std::collections::HashSet<&(String, String)> = a.iter().collect();
        assert!(distinct.len() <= 5, "draws must come from the pool");
        assert!(distinct.len() >= 2, "a 60-draw stream should mix");
    }

    #[test]
    fn different_seeds_differ() {
        let a = mixed_workload(&LoadOptions::default());
        let b = mixed_workload(&LoadOptions {
            seed: 8,
            ..LoadOptions::default()
        });
        assert_ne!(a, b);
    }

    #[test]
    fn every_generated_request_parses_and_validates() {
        let opts = LoadOptions {
            requests: 40,
            pool: 40,
            scenario_n: 12,
            whatif_ratio: 0.25,
            ..LoadOptions::default()
        };
        let stream = mixed_workload(&opts);
        assert!(
            stream.iter().any(|(path, _)| path == "/v1/whatif"),
            "a 25% ratio over 40 pool entries must draw whatif queries"
        );
        for (path, body) in stream {
            pubopt_serve::ApiRequest::parse(&path, &body)
                .unwrap_or_else(|e| panic!("generated invalid request {path} {body}: {e:?}"));
        }
    }

    #[test]
    fn zero_whatif_ratio_reproduces_the_historical_stream() {
        // The ratio carve-out rescales the mixture instead of shifting
        // it, so existing seeded workloads (the CI smokes) are
        // byte-for-byte unchanged at ratio 0.
        let base = LoadOptions {
            requests: 50,
            pool: 12,
            scenario_n: 16,
            ..LoadOptions::default()
        };
        let mut rng = Rng::seed_from_u64(base.seed);
        let legacy: Vec<(String, String)> = (0..base.pool)
            .map(|_| pool_entry(&mut rng, base.scenario_n))
            .collect();
        let mut rng = Rng::seed_from_u64(base.seed);
        let mixed: Vec<(String, String)> = (0..base.pool)
            .map(|_| pool_entry_mixed(&mut rng, base.scenario_n, 0.0))
            .collect();
        assert_eq!(legacy, mixed);
    }

    #[test]
    fn classified_replay_splits_goodput_per_endpoint() {
        let server = spawn(&ServeConfig::default()).expect("bind");
        let workload = mixed_workload(&LoadOptions {
            requests: 24,
            pool: 6,
            scenario_n: 8,
            whatif_ratio: 0.4,
            seed: 3,
            ..LoadOptions::default()
        });
        let (summary, classes) = replay_classified(
            server.addr(),
            &workload,
            &ReplayOptions {
                clients: 3,
                ..ReplayOptions::default()
            },
        );
        assert_eq!(summary.failed(), 0, "{summary:?}");
        assert!(classes.len() >= 2, "mixed stream has multiple classes");
        let mut seen = 0;
        for class in &classes {
            assert_eq!(class.ok, class.requests, "{class:?}");
            assert!(
                class.goodput_p50_us <= class.goodput_p95_us
                    && class.goodput_p95_us <= class.goodput_p99_us,
                "{class:?}"
            );
            seen += class.requests;
        }
        assert_eq!(seen, workload.len(), "classes partition the workload");
        assert!(
            classes.iter().any(|c| c.endpoint == "whatif"),
            "whatif class present: {classes:?}"
        );
        server.shutdown();
        server.join();
    }

    #[test]
    fn replay_tallies_against_a_live_daemon() {
        let server = spawn(&ServeConfig::default()).expect("bind");
        let workload = mixed_workload(&LoadOptions {
            requests: 20,
            pool: 4,
            scenario_n: 8,
            ..LoadOptions::default()
        });
        let summary = replay(server.addr(), &workload, 3);
        assert_eq!(summary.requests, 20);
        assert_eq!(summary.failed(), 0, "all queries valid: {summary:?}");
        assert!(summary.p50_us <= summary.p99_us);
        // Every request makes exactly one cache lookup. Concurrent misses
        // on a cold key are not merged, but a client's miss inserts its
        // key before that client's next request and nothing is evicted,
        // so each of the 3 clients misses each distinct key at most once.
        let distinct = workload
            .iter()
            .map(|(path, body)| {
                pubopt_serve::ApiRequest::parse(path, body)
                    .unwrap()
                    .canonical_key()
            })
            .collect::<std::collections::HashSet<_>>()
            .len() as u64;
        let stats = server.cache_stats();
        assert_eq!(stats.hits + stats.misses, 20, "{stats:?}");
        assert!(
            (distinct..=3 * distinct).contains(&stats.misses),
            "{stats:?} over {distinct} distinct keys"
        );
        assert!(stats.hits > 0, "a 4-entry pool over 20 draws must hit");
        server.shutdown();
        server.join();
    }

    #[test]
    fn replay_reuses_client_threads_across_batches() {
        // Back-to-back batches (the --ab-connections shape: prewarm,
        // then one pass per arm) run on the one shared client pool rather than
        // spawning threads per batch; its worker count is a process-wide
        // constant across batches.
        let server = spawn(&ServeConfig::default()).expect("bind");
        let workload = mixed_workload(&LoadOptions {
            requests: 8,
            pool: 2,
            scenario_n: 8,
            ..LoadOptions::default()
        });
        let before = client_pool().workers();
        let a = replay(server.addr(), &workload, 3);
        let b = replay(server.addr(), &workload, 3);
        assert_eq!(a.failed(), 0, "{a:?}");
        assert_eq!(b.failed(), 0, "{b:?}");
        assert_eq!(client_pool().workers(), before);
        server.shutdown();
        server.join();
    }

    #[test]
    fn replay_modes_all_succeed_on_the_same_workload() {
        let server = spawn(&ServeConfig::default()).expect("bind");
        let addr = server.addr();
        let workload = mixed_workload(&LoadOptions {
            requests: 24,
            pool: 3,
            scenario_n: 8,
            ..LoadOptions::default()
        });
        for (label, opts) in [
            (
                "reuse",
                ReplayOptions {
                    clients: 3,
                    mode: ConnMode::Reuse,
                    ..ReplayOptions::default()
                },
            ),
            (
                "pipeline",
                ReplayOptions {
                    clients: 2,
                    mode: ConnMode::Reuse,
                    pipeline: 4,
                    ..ReplayOptions::default()
                },
            ),
            (
                "batch",
                ReplayOptions {
                    clients: 2,
                    mode: ConnMode::Reuse,
                    batch: Some(4),
                    ..ReplayOptions::default()
                },
            ),
            (
                "open-loop",
                ReplayOptions {
                    clients: 2,
                    mode: ConnMode::Reuse,
                    rate_rps: Some(500.0),
                    ..ReplayOptions::default()
                },
            ),
        ] {
            let summary = replay_with(addr, &workload, &opts);
            assert_eq!(summary.requests, 24, "{label}");
            assert_eq!(summary.failed(), 0, "{label}: {summary:?}");
            assert!(
                summary.p50_us <= summary.p95_us && summary.p95_us <= summary.p99_us,
                "{label}: percentiles must be ordered: {summary:?}"
            );
            // With zero failures the two families are the same sample.
            assert_eq!(
                (summary.p50_us, summary.p95_us, summary.p99_us),
                (
                    summary.goodput_p50_us,
                    summary.goodput_p95_us,
                    summary.goodput_p99_us
                ),
                "{label}: all-responses and goodput families must coincide \
                 on an all-2xx replay: {summary:?}"
            );
        }
        server.shutdown();
        server.join();
    }

    #[test]
    fn goodput_percentiles_exclude_shed_and_failed_responses() {
        // Synthetic outcomes: two microsecond-fast sheds, one deadline
        // 504, one transport error that burned a full timeout, and a
        // known band of 2xx latencies.
        let outcomes = vec![
            (429u16, 1u64),
            (429, 2),
            (504, 3),
            (0, 1_000_000),
            (200, 100),
            (200, 200),
            (204, 300),
            (200, 400),
        ];
        let s = tally(8, 1_000, outcomes);
        assert_eq!(
            (s.ok, s.shed, s.server_errors, s.transport_errors),
            (4, 2, 1, 1)
        );
        // All-responses: the fast sheds drag the median down to the
        // bottom of the served band, the hung transport error owns p99.
        assert_eq!(s.p50_us, 100);
        assert_eq!(s.p99_us, 1_000_000);
        // Goodput sees only the served band.
        assert_eq!(s.goodput_p50_us, 200);
        assert_eq!(s.goodput_p95_us, 400);
        assert_eq!(s.goodput_p99_us, 400);
    }

    #[test]
    fn goodput_percentiles_are_zero_when_nothing_succeeded() {
        let s = tally(3, 1_000, vec![(429u16, 5u64), (503, 7), (0, 9)]);
        assert_eq!(s.ok, 0);
        assert_eq!(s.p50_us, 7, "all-responses family still reports");
        assert_eq!(
            (s.goodput_p50_us, s.goodput_p95_us, s.goodput_p99_us),
            (0, 0, 0)
        );
    }

    #[test]
    fn batch_entry_splices_the_endpoint_discriminator() {
        assert_eq!(
            batch_entry("/v1/equilibrium", r#"{"nu":1.0}"#),
            r#"{"endpoint":"equilibrium","nu":1.0}"#
        );
        assert_eq!(
            batch_entry("/v1/capacity", "{}"),
            r#"{"endpoint":"capacity"}"#
        );
    }

    #[test]
    fn chaos_soak_is_deterministic_per_seed() {
        // Same seed ⇒ byte-identical fault schedule and identical summary
        // counters; different seed or different fault rate ⇒ different
        // schedule. Single client — with more, proxy connection ids
        // depend on accept interleaving.
        let opts = ChaosSoakOptions {
            requests: 30,
            clients: 1,
            seed: 5,
            fault_rate: 0.3,
            pool: 4,
            scenario_n: 8,
            deadline_ms: None,
        };
        let a = chaos_soak(&opts);
        let b = chaos_soak(&opts);
        assert_eq!(
            a.determinism_key(),
            b.determinism_key(),
            "same seed must replay the same soak: {a:?} vs {b:?}"
        );
        assert_eq!(a.requests, 30);
        assert_eq!(a.hard_failures, 0, "the stack must absorb 30%: {a:?}");
        assert!(a.faults_injected > 0, "a 30% soak must fault: {a:?}");
        assert!(a.byte_identical, "retried bytes must match direct: {a:?}");
        let c = chaos_soak(&ChaosSoakOptions {
            seed: 6,
            ..opts.clone()
        });
        assert_ne!(
            a.schedule_digest, c.schedule_digest,
            "different seeds must draw different schedules"
        );
        // The same soak at 10%: still nothing lost and identical bytes,
        // fewer faults than at 30%, and a schedule of its own.
        let light = chaos_soak(&ChaosSoakOptions {
            fault_rate: 0.1,
            ..opts
        });
        assert_eq!(
            light.hard_failures, 0,
            "the stack must absorb 10%: {light:?}"
        );
        assert!(light.availability >= 0.99, "{light:?}");
        assert!(
            light.byte_identical,
            "retried bytes must match direct: {light:?}"
        );
        assert!(
            light.faults_injected < a.faults_injected,
            "30% must fault more than 10%: {} vs {}",
            a.faults_injected,
            light.faults_injected
        );
        assert_ne!(
            a.schedule_digest, light.schedule_digest,
            "different rates must draw different schedules"
        );
    }
}
