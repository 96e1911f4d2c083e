//! A minimal blocking HTTP client for the daemon's protocol.
//!
//! Two disciplines, matching the two sides of the serving A/B:
//!
//! * The free functions ([`request`], [`post`], [`get`]) open a fresh
//!   connection per request and send `Connection: close` — the
//!   pre-keep-alive behaviour, kept as the A/B baseline and for one-shot
//!   callers (smoke probes, shutdown pokes).
//! * [`Client`] holds one connection open across requests (HTTP/1.1
//!   keep-alive), reconnecting transparently when the daemon closed it
//!   (idle timeout, restart), and can [`Client::pipeline`] several
//!   requests down the socket before reading any response back.
//!
//! Used by the loadgen harness, the CI smoke job, and the serve
//! integration tests — anything in-repo that needs to speak to the
//! daemon without an external HTTP library.
//!
//! On top of the raw [`Client`] sits the resilience stack built for the
//! hostile-network drills (see [`crate::chaosnet`]):
//!
//! * [`RetryPolicy`] — exponential backoff whose jitter is a pure
//!   function of `(seed, request_id, attempt)`, so two soak runs with
//!   the same seed back off identically;
//! * [`RetryBudget`] — a token bucket refilled per first attempt, so a
//!   failing daemon sees retries taper instead of amplifying overload;
//! * [`CircuitBreaker`] — per-endpoint closed/open/half-open, with
//!   *request-count* (not wall-clock) cooldown so breaker transitions
//!   are replayable;
//! * [`ResilientClient`] — the composition: deadline header attachment,
//!   `Retry-After` honoring, and the [`ResilienceStats`] counters.

use pubopt_num::chaos::{chaos_draw, ChaosInjector};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Connect/read timeout for a single request.
const TIMEOUT: Duration = Duration::from_secs(30);

/// Issue one request on a fresh connection (`Connection: close`) and
/// return `(status, body)`.
///
/// # Errors
///
/// Socket failures, or a response too mangled to split into head and
/// body.
pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect_timeout(&addr, TIMEOUT)?;
    stream.set_read_timeout(Some(TIMEOUT))?;
    stream.set_write_timeout(Some(TIMEOUT))?;
    stream.set_nodelay(true)?;
    let mut wire = format!(
        "{method} {path} HTTP/1.1\r\nHost: pubopt\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )
    .into_bytes();
    wire.extend_from_slice(body.as_bytes());
    stream.write_all(&wire)?;
    stream.flush()?;

    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .ok_or_else(|| bad("response has no header/body split"))?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("response has no status code"))?;
    Ok((status, body.to_owned()))
}

/// `POST path` with a JSON body on a fresh connection.
///
/// # Errors
///
/// See [`request`].
pub fn post(addr: SocketAddr, path: &str, body: &str) -> std::io::Result<(u16, String)> {
    request(addr, "POST", path, body)
}

/// `GET path` on a fresh connection.
///
/// # Errors
///
/// See [`request`].
pub fn get(addr: SocketAddr, path: &str) -> std::io::Result<(u16, String)> {
    request(addr, "GET", path, "")
}

fn bad(m: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, m.to_owned())
}

/// A keep-alive client: one TCP connection reused across requests.
///
/// The connection is opened lazily on the first request and re-opened
/// transparently if the daemon closed it between requests (idle timeout,
/// `Connection: close` response, restart). Responses are framed by
/// `Content-Length`, so pipelined responses can be peeled off one
/// persistent buffer in order.
#[derive(Debug)]
pub struct Client {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    /// Response bytes read but not yet consumed (tail of a read that
    /// crossed a response boundary).
    buf: Vec<u8>,
    /// Connect/read/write timeout for this client.
    timeout: Duration,
    /// `Retry-After` seconds from the most recent response, if any.
    last_retry_after: Option<u64>,
    /// Whether the most recent response carried `Degraded: stale`.
    last_degraded: bool,
}

impl Client {
    /// A client for `addr`. Does not connect yet — the first request
    /// does.
    pub fn new(addr: SocketAddr) -> Self {
        Self::with_timeout(addr, TIMEOUT)
    }

    /// A client with an explicit connect/read/write timeout — fault
    /// drills want seconds-scale stalls (a black-holed read) surfaced as
    /// retryable errors, not 30-second hangs.
    pub fn with_timeout(addr: SocketAddr, timeout: Duration) -> Self {
        Self {
            addr,
            stream: None,
            buf: Vec::new(),
            timeout,
            last_retry_after: None,
            last_degraded: false,
        }
    }

    /// `Retry-After` seconds announced by the most recent response
    /// (shed `429`s carry it; see [`crate::server`]).
    pub fn last_retry_after(&self) -> Option<u64> {
        self.last_retry_after
    }

    /// Whether the most recent response was served degraded
    /// (`Degraded: stale` — a cache hit under queue saturation).
    pub fn last_degraded(&self) -> bool {
        self.last_degraded
    }

    /// Issue one request on the persistent connection and return
    /// `(status, body)`. If the daemon had closed the idle connection,
    /// reconnects and retries once.
    ///
    /// # Errors
    ///
    /// Socket failures (after the one reconnect attempt) or an unframeable
    /// response.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
    ) -> std::io::Result<(u16, String)> {
        let reused = self.stream.is_some();
        match self.try_request(method, path, body) {
            Ok(r) => Ok(r),
            Err(e) if reused => {
                // A reused connection may have died between requests —
                // that's the keep-alive race, not a server error. One
                // fresh-connection retry is safe: the failed request
                // never completed.
                self.reset();
                self.try_request(method, path, body).map_err(|_| e)
            }
            Err(e) => Err(e),
        }
    }

    /// `POST path` with a JSON body on the persistent connection.
    ///
    /// # Errors
    ///
    /// See [`Client::request`].
    pub fn post(&mut self, path: &str, body: &str) -> std::io::Result<(u16, String)> {
        self.request("POST", path, body)
    }

    /// `POST path` with extra request headers (`X-Deadline-Ms`, …) on
    /// the persistent connection, with the same reconnect-once retry as
    /// [`Client::request`].
    ///
    /// # Errors
    ///
    /// See [`Client::request`].
    pub fn post_with_headers(
        &mut self,
        path: &str,
        body: &str,
        extra: &[(&str, String)],
    ) -> std::io::Result<(u16, String)> {
        let reused = self.stream.is_some();
        match self.try_request_ext("POST", path, body, extra) {
            Ok(r) => Ok(r),
            Err(e) if reused => {
                self.reset();
                self.try_request_ext("POST", path, body, extra)
                    .map_err(|_| e)
            }
            Err(e) => Err(e),
        }
    }

    /// `GET path` on the persistent connection.
    ///
    /// # Errors
    ///
    /// See [`Client::request`].
    pub fn get(&mut self, path: &str) -> std::io::Result<(u16, String)> {
        self.request("GET", path, "")
    }

    /// Pipeline: write every `(path, body)` POST down the socket, then
    /// read the responses back in order. The daemon guarantees response
    /// order matches request order (asserted by `tests/serve_transport`).
    ///
    /// # Errors
    ///
    /// Socket failures or an unframeable response. No retry — a pipelined
    /// burst that fails mid-flight is ambiguous, and the harness treats
    /// it as failed requests.
    pub fn pipeline(
        &mut self,
        requests: &[(String, String)],
    ) -> std::io::Result<Vec<(u16, String)>> {
        let mut wire = Vec::new();
        for (path, body) in requests {
            write_request(&mut wire, "POST", path, body);
        }
        let stream = self.ensure_stream()?;
        stream.write_all(&wire)?;
        stream.flush()?;
        let mut out = Vec::with_capacity(requests.len());
        for _ in requests {
            out.push(self.read_response()?);
        }
        Ok(out)
    }

    /// Drop the persistent connection (the next request reconnects).
    pub fn reset(&mut self) {
        self.stream = None;
        self.buf.clear();
    }

    fn try_request(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
    ) -> std::io::Result<(u16, String)> {
        self.try_request_ext(method, path, body, &[])
    }

    fn try_request_ext(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
        extra: &[(&str, String)],
    ) -> std::io::Result<(u16, String)> {
        let mut wire = Vec::new();
        write_request_ext(&mut wire, method, path, body, extra);
        let stream = self.ensure_stream()?;
        stream.write_all(&wire)?;
        stream.flush()?;
        self.read_response()
    }

    fn ensure_stream(&mut self) -> std::io::Result<&mut TcpStream> {
        if self.stream.is_none() {
            let stream = TcpStream::connect_timeout(&self.addr, self.timeout)?;
            stream.set_read_timeout(Some(self.timeout))?;
            stream.set_write_timeout(Some(self.timeout))?;
            stream.set_nodelay(true)?;
            self.buf.clear();
            self.stream = Some(stream);
        }
        Ok(self.stream.as_mut().expect("stream just ensured"))
    }

    /// Read one `Content-Length`-framed response off the persistent
    /// buffer, reading more bytes as needed.
    fn read_response(&mut self) -> std::io::Result<(u16, String)> {
        let head_end = loop {
            if let Some(pos) = find_head_end(&self.buf) {
                break pos;
            }
            self.fill()?;
        };
        let head = String::from_utf8_lossy(&self.buf[..head_end]).into_owned();
        let status: u16 = head
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("response has no status code"))?;
        let mut content_length = 0usize;
        let mut close = false;
        self.last_retry_after = None;
        self.last_degraded = false;
        for line in head.lines().skip(1) {
            if let Some((name, value)) = line.split_once(':') {
                let value = value.trim();
                if name.eq_ignore_ascii_case("content-length") {
                    content_length = value
                        .parse()
                        .map_err(|_| bad("response Content-Length is not a number"))?;
                } else if name.eq_ignore_ascii_case("connection") {
                    close = value.eq_ignore_ascii_case("close");
                } else if name.eq_ignore_ascii_case("retry-after") {
                    self.last_retry_after = value.parse().ok();
                } else if name.eq_ignore_ascii_case("degraded") {
                    self.last_degraded = value.eq_ignore_ascii_case("stale");
                }
            }
        }
        let body_end = head_end + content_length;
        while self.buf.len() < body_end {
            self.fill()?;
        }
        let body = String::from_utf8_lossy(&self.buf[head_end..body_end]).into_owned();
        self.buf.drain(..body_end);
        if close {
            // The daemon is done with this connection; don't let the next
            // request write into a dead socket.
            self.reset();
        }
        Ok((status, body))
    }

    fn fill(&mut self) -> std::io::Result<()> {
        let stream = self
            .stream
            .as_mut()
            .ok_or_else(|| bad("connection closed mid-response"))?;
        let mut tmp = [0u8; 4096];
        let n = stream.read(&mut tmp)?;
        if n == 0 {
            self.stream = None;
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "daemon closed the connection mid-response",
            ));
        }
        self.buf.extend_from_slice(&tmp[..n]);
        Ok(())
    }
}

/// Serialize one keep-alive request (HTTP/1.1 default: persistent).
fn write_request(wire: &mut Vec<u8>, method: &str, path: &str, body: &str) {
    write_request_ext(wire, method, path, body, &[]);
}

/// [`write_request`] plus extra headers.
fn write_request_ext(
    wire: &mut Vec<u8>,
    method: &str,
    path: &str,
    body: &str,
    extra: &[(&str, String)],
) {
    let mut head = format!(
        "{method} {path} HTTP/1.1\r\nHost: pubopt\r\nContent-Length: {}\r\n",
        body.len()
    );
    for (name, value) in extra {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    wire.extend_from_slice(head.as_bytes());
    wire.extend_from_slice(body.as_bytes());
}

/// Position just past the `\r\n\r\n` head terminator, if buffered.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n").map(|p| p + 4)
}

/// Exponential backoff with deterministic seeded jitter.
///
/// The wait before attempt `a` of request `r` is
/// `base_backoff_ms · 2^(a-1)`, capped at `max_backoff_ms`, scaled by a
/// jitter factor in `[0.5, 1.0)` drawn via
/// [`chaos_draw`]`(seed, site("client.backoff"), r·64 + a)` — a pure
/// function, so a replayed soak waits the same schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts per request (first try included).
    pub max_attempts: u32,
    /// Backoff before the first retry.
    pub base_backoff_ms: u64,
    /// Backoff ceiling (also caps an honored `Retry-After`).
    pub max_backoff_ms: u64,
    /// Jitter seed.
    pub seed: u64,
}

impl RetryPolicy {
    /// Drill-friendly defaults: 4 attempts, 10 ms base, 500 ms ceiling.
    pub fn new(seed: u64) -> Self {
        Self {
            max_attempts: 4,
            base_backoff_ms: 10,
            max_backoff_ms: 500,
            seed,
        }
    }

    /// Jittered wait in milliseconds before attempt `attempt` (1-based
    /// retry index) of request `request_id`.
    pub fn backoff_ms(&self, request_id: u64, attempt: u32) -> u64 {
        let exp = self
            .base_backoff_ms
            .saturating_mul(1u64 << attempt.saturating_sub(1).min(20));
        let capped = exp.min(self.max_backoff_ms);
        let unit = request_id.wrapping_mul(64) + u64::from(attempt);
        let jitter = 0.5 + 0.5 * chaos_draw(self.seed, ChaosInjector::site("client.backoff"), unit);
        (capped as f64 * jitter) as u64
    }
}

/// A retry budget: the token bucket that keeps retries from amplifying
/// an overload into a storm. Every *first* attempt deposits
/// `fill_per_request` tokens (capped); every retry withdraws one. When
/// the bucket is dry, the request fails rather than retry — under
/// sustained failure the retry rate converges to `fill_per_request`
/// retries per request instead of `max_attempts - 1`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryBudget {
    tokens: f64,
    cap: f64,
    fill: f64,
}

impl RetryBudget {
    /// A budget holding at most `cap` tokens, refilled by
    /// `fill_per_request` per request. Starts full.
    pub fn new(cap: f64, fill_per_request: f64) -> Self {
        Self {
            tokens: cap,
            cap,
            fill: fill_per_request,
        }
    }

    /// Deposit for one arriving request.
    pub fn on_request(&mut self) {
        self.tokens = (self.tokens + self.fill).min(self.cap);
    }

    /// Withdraw for one retry; `false` means the budget is spent.
    pub fn try_spend(&mut self) -> bool {
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }

    /// Tokens currently available.
    pub fn tokens(&self) -> f64 {
        self.tokens
    }
}

/// Circuit breaker states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: requests flow.
    Closed,
    /// Tripped: requests short-circuit without touching the network.
    Open,
    /// Cooled down: the next request is a probe.
    HalfOpen,
}

/// A per-endpoint circuit breaker with *request-count* cooldown.
///
/// `failure_threshold` consecutive failures trip Closed → Open. While
/// Open, [`CircuitBreaker::allow`] short-circuits `cooldown_requests`
/// requests, then admits the next one as a Half-Open probe. A probe
/// success closes the breaker; a probe failure re-opens it. Counting
/// requests instead of wall-clock time keeps breaker transitions a pure
/// function of the request/outcome sequence — a same-seed chaos soak
/// replays the identical `open → half-open → closed` trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CircuitBreaker {
    state: BreakerState,
    failure_threshold: u32,
    cooldown_requests: u32,
    consecutive_failures: u32,
    shorted_since_open: u32,
}

impl CircuitBreaker {
    /// A closed breaker tripping after `failure_threshold` consecutive
    /// failures and probing after `cooldown_requests` short-circuits.
    pub fn new(failure_threshold: u32, cooldown_requests: u32) -> Self {
        Self {
            state: BreakerState::Closed,
            failure_threshold: failure_threshold.max(1),
            cooldown_requests: cooldown_requests.max(1),
            consecutive_failures: 0,
            shorted_since_open: 0,
        }
    }

    /// Current state.
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Gate one request. `true` admits it (Closed, or the Half-Open
    /// probe — the Open → Half-Open transition happens here, once the
    /// cooldown count is met); `false` short-circuits it.
    pub fn allow(&mut self) -> bool {
        match self.state {
            BreakerState::Closed | BreakerState::HalfOpen => true,
            BreakerState::Open => {
                self.shorted_since_open += 1;
                if self.shorted_since_open >= self.cooldown_requests {
                    self.state = BreakerState::HalfOpen;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Record a successful exchange. Returns `true` on a Half-Open →
    /// Closed recovery.
    pub fn record_success(&mut self) -> bool {
        self.consecutive_failures = 0;
        if self.state == BreakerState::HalfOpen {
            self.state = BreakerState::Closed;
            return true;
        }
        false
    }

    /// Record a failed exchange. Returns `true` when this trips (or
    /// re-trips) the breaker open.
    pub fn record_failure(&mut self) -> bool {
        match self.state {
            BreakerState::HalfOpen => {
                // Failed probe: straight back to Open for another
                // cooldown round.
                self.state = BreakerState::Open;
                self.shorted_since_open = 0;
                true
            }
            BreakerState::Closed => {
                self.consecutive_failures += 1;
                if self.consecutive_failures >= self.failure_threshold {
                    self.state = BreakerState::Open;
                    self.shorted_since_open = 0;
                    true
                } else {
                    false
                }
            }
            BreakerState::Open => false,
        }
    }
}

/// Counters a [`ResilientClient`] accumulates. All are pure functions of
/// the request/outcome sequence, so a same-seed chaos soak reproduces
/// them exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResilienceStats {
    /// Requests issued (first attempts).
    pub requests: u64,
    /// Network attempts actually made (first tries + retries that
    /// reached the wire).
    pub attempts: u64,
    /// Retries performed (backoff waits taken).
    pub retries: u64,
    /// Requests that got a final response on the first attempt.
    pub first_try_ok: u64,
    /// Requests that ended with a final response (any status).
    pub ok: u64,
    /// Requests that exhausted attempts or budget without a response.
    pub hard_failures: u64,
    /// Breaker trips (Closed/Half-Open → Open).
    pub breaker_opens: u64,
    /// Open → Half-Open probe admissions.
    pub breaker_half_opens: u64,
    /// Half-Open → Closed recoveries.
    pub breaker_closes: u64,
    /// Requests short-circuited by an open breaker.
    pub breaker_short_circuits: u64,
    /// Retries abandoned because the budget was dry.
    pub budget_exhausted: u64,
    /// Waits that honored a server `Retry-After` hint.
    pub retry_after_honored: u64,
    /// Responses served with `Degraded: stale`.
    pub degraded_responses: u64,
}

/// [`Client`] wrapped in the full resilience stack: retries with seeded
/// backoff, a retry budget, a circuit breaker per endpoint path,
/// `Retry-After` honoring, and optional `X-Deadline-Ms` attachment.
///
/// A **final response** is any well-framed HTTP response that is not
/// retryable. Retryable outcomes are transport errors and the overload/
/// timeout statuses 408, 429, 500, 503, 504 (every endpoint is an
/// idempotent read, so re-asking is always safe — asserted end to end by
/// `tests/serve_chaos.rs`). Of these only transport errors and 5xx count
/// against the breaker: a 429 means the daemon is *working* and
/// shedding, which is health, not failure.
#[derive(Debug)]
pub struct ResilientClient {
    inner: Client,
    policy: RetryPolicy,
    budget: RetryBudget,
    breaker_template: CircuitBreaker,
    breakers: Vec<(String, CircuitBreaker)>,
    deadline_ms: Option<u64>,
    stats: ResilienceStats,
}

impl ResilientClient {
    /// A resilient client over one keep-alive connection to `addr`.
    /// `timeout` bounds each connect/read/write; `policy` the retry
    /// schedule. Breakers default to trip after 3 consecutive failures
    /// and probe after 5 short-circuits; the budget to 20 tokens capped,
    /// 0.5 per request.
    pub fn new(addr: SocketAddr, timeout: Duration, policy: RetryPolicy) -> Self {
        Self {
            inner: Client::with_timeout(addr, timeout),
            policy,
            budget: RetryBudget::new(20.0, 0.5),
            breaker_template: CircuitBreaker::new(3, 5),
            breakers: Vec::new(),
            deadline_ms: None,
            stats: ResilienceStats::default(),
        }
    }

    /// Replace the retry budget.
    pub fn with_budget(mut self, budget: RetryBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Replace the breaker template (applied to endpoints on first use).
    pub fn with_breaker(mut self, breaker: CircuitBreaker) -> Self {
        self.breaker_template = breaker;
        self
    }

    /// Attach `X-Deadline-Ms: ms` to every request, letting the daemon
    /// shed work this client has already given up on.
    pub fn with_deadline_ms(mut self, ms: u64) -> Self {
        self.deadline_ms = Some(ms);
        self
    }

    /// Accumulated counters.
    pub fn stats(&self) -> ResilienceStats {
        self.stats
    }

    /// Current breaker state for `path` (`None` until first use).
    pub fn breaker_state(&self, path: &str) -> Option<BreakerState> {
        self.breakers
            .iter()
            .find(|(p, _)| p == path)
            .map(|(_, b)| b.state())
    }

    /// `POST path`, retrying per the policy, and return the final
    /// `(status, body)`.
    ///
    /// # Errors
    ///
    /// The last transport error once attempts or the retry budget are
    /// exhausted (a *hard failure* — the daemon never answered).
    pub fn post(&mut self, path: &str, body: &str) -> std::io::Result<(u16, String)> {
        let request_id = self.stats.requests;
        self.stats.requests += 1;
        self.budget.on_request();
        let headers: Vec<(&str, String)> = self
            .deadline_ms
            .map(|ms| vec![("X-Deadline-Ms", ms.to_string())])
            .unwrap_or_default();
        let mut last_err: Option<std::io::Error> = None;
        let mut retry_after: Option<u64> = None;
        for attempt in 0..self.policy.max_attempts {
            if attempt > 0 {
                if !self.budget.try_spend() {
                    self.stats.budget_exhausted += 1;
                    break;
                }
                self.stats.retries += 1;
                let mut wait = self.policy.backoff_ms(request_id, attempt);
                if let Some(secs) = retry_after.take() {
                    // Honor the server's hint ahead of our own schedule,
                    // inside the policy ceiling so a drill can't be
                    // stalled by an adversarial header. Saturate the
                    // seconds→ms conversion: `Retry-After: 99999999999999`
                    // is a hostile-but-legal header and must clamp to the
                    // ceiling, not overflow.
                    wait = wait.max(secs.saturating_mul(1000).min(self.policy.max_backoff_ms));
                    self.stats.retry_after_honored += 1;
                }
                std::thread::sleep(Duration::from_millis(wait));
            }
            let breaker = self.breaker_mut(path);
            if !breaker.allow() {
                self.stats.breaker_short_circuits += 1;
                continue;
            }
            if breaker.state() == BreakerState::HalfOpen {
                self.stats.breaker_half_opens += 1;
            }
            self.stats.attempts += 1;
            match self.inner.post_with_headers(path, body, &headers) {
                Ok((status, resp)) => {
                    retry_after = self.inner.last_retry_after();
                    if self.inner.last_degraded() {
                        self.stats.degraded_responses += 1;
                    }
                    let retryable = matches!(status, 408 | 429 | 500 | 503 | 504);
                    let breaker_failure = retryable && status != 429 && status != 408;
                    let breaker = self.breaker_mut(path);
                    if breaker_failure {
                        if breaker.record_failure() {
                            self.stats.breaker_opens += 1;
                        }
                    } else if breaker.record_success() {
                        self.stats.breaker_closes += 1;
                    }
                    if !retryable {
                        self.stats.ok += 1;
                        if attempt == 0 {
                            self.stats.first_try_ok += 1;
                        }
                        return Ok((status, resp));
                    }
                    last_err = Some(std::io::Error::other(format!(
                        "daemon kept answering {status}"
                    )));
                }
                Err(e) => {
                    retry_after = None;
                    if self.breaker_mut(path).record_failure() {
                        self.stats.breaker_opens += 1;
                    }
                    last_err = Some(e);
                }
            }
        }
        self.stats.hard_failures += 1;
        Err(last_err.unwrap_or_else(|| std::io::Error::other("no attempt was admitted")))
    }

    fn breaker_mut(&mut self, path: &str) -> &mut CircuitBreaker {
        if let Some(i) = self.breakers.iter().position(|(p, _)| p == path) {
            return &mut self.breakers[i].1;
        }
        self.breakers.push((path.to_owned(), self.breaker_template));
        &mut self.breakers.last_mut().expect("breaker just pushed").1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_and_bounded() {
        let p = RetryPolicy::new(42);
        let q = RetryPolicy::new(42);
        for r in 0..50u64 {
            for a in 1..=4u32 {
                assert_eq!(p.backoff_ms(r, a), q.backoff_ms(r, a));
                let cap = p.max_backoff_ms;
                assert!(p.backoff_ms(r, a) <= cap);
            }
        }
        let differs =
            (0..50u64).any(|r| p.backoff_ms(r, 1) != RetryPolicy::new(43).backoff_ms(r, 1));
        assert!(differs, "jitter must vary with the seed");
    }

    #[test]
    fn budget_tapers_retries_under_sustained_failure() {
        let mut b = RetryBudget::new(3.0, 0.5);
        // Bucket starts full: three retries pass, the fourth fails.
        assert!(b.try_spend());
        assert!(b.try_spend());
        assert!(b.try_spend());
        assert!(!b.try_spend());
        // Two requests deposit one token.
        b.on_request();
        b.on_request();
        assert!(b.try_spend());
        assert!(!b.try_spend());
    }

    #[test]
    fn breaker_walks_closed_open_halfopen_closed() {
        let mut b = CircuitBreaker::new(2, 3);
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.allow());
        assert!(!b.record_failure());
        assert!(b.record_failure(), "second consecutive failure trips");
        assert_eq!(b.state(), BreakerState::Open);
        // Cooldown: two short-circuits, then the third admits a probe.
        assert!(!b.allow());
        assert!(!b.allow());
        assert!(b.allow());
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert!(b.record_success(), "probe success closes");
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn failed_probe_reopens() {
        let mut b = CircuitBreaker::new(1, 1);
        b.record_failure();
        assert_eq!(b.state(), BreakerState::Open);
        assert!(b.allow(), "cooldown of 1 admits the next request");
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert!(b.record_failure(), "failed probe re-trips");
        assert_eq!(b.state(), BreakerState::Open);
    }

    #[test]
    fn success_resets_the_consecutive_failure_count() {
        let mut b = CircuitBreaker::new(2, 1);
        b.record_failure();
        b.record_success();
        assert!(!b.record_failure(), "streak was broken by the success");
        assert_eq!(b.state(), BreakerState::Closed);
    }

    /// A one-connection-at-a-time responder that plays a fixed script of
    /// raw response heads (body `ok` appended), for drilling header
    /// handling the daemon would never emit.
    fn scripted_server(scripts: Vec<String>) -> std::net::SocketAddr {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            let mut scripts = scripts.into_iter();
            'conn: while let Ok((mut stream, _)) = listener.accept() {
                loop {
                    // Read until the end of one request head + tiny body.
                    let mut buf = [0u8; 4096];
                    match stream.read(&mut buf) {
                        Ok(0) | Err(_) => continue 'conn,
                        Ok(_) => {}
                    }
                    let Some(head) = scripts.next() else {
                        return;
                    };
                    let body = "{\"ok\":true}";
                    let wire = format!("{head}Content-Length: {}\r\n\r\n{body}", body.len());
                    if stream.write_all(wire.as_bytes()).is_err() {
                        continue 'conn;
                    }
                }
            }
        });
        addr
    }

    #[test]
    fn non_numeric_retry_after_falls_back_to_computed_backoff() {
        // RFC 9110 allows `Retry-After` as an HTTP-date; this client only
        // honors delta-seconds. An unparseable value must be ignored —
        // retry on the policy schedule — never a panic or a stall.
        let addr = scripted_server(vec![
            "HTTP/1.1 429 Too Many Requests\r\nRetry-After: Fri, 31 Dec 1999 23:59:59 GMT\r\n"
                .into(),
            "HTTP/1.1 429 Too Many Requests\r\nretry-after: abc\r\n".into(),
            "HTTP/1.1 200 OK\r\n".into(),
        ]);
        let mut c = ResilientClient::new(
            addr,
            Duration::from_secs(2),
            RetryPolicy {
                max_attempts: 4,
                base_backoff_ms: 1,
                max_backoff_ms: 5,
                seed: 7,
            },
        );
        let (status, _) = c.post("/v1/equilibrium", "{}").unwrap();
        assert_eq!(status, 200);
        let stats = c.stats();
        assert_eq!(stats.retries, 2);
        assert_eq!(
            stats.retry_after_honored, 0,
            "unparseable hints must not count as honored"
        );
    }

    #[test]
    fn huge_retry_after_clamps_to_the_policy_ceiling() {
        // A hostile-but-legal `Retry-After: <u64::MAX>` parses fine; the
        // seconds→ms conversion must saturate and clamp to
        // `max_backoff_ms`, not overflow (debug) or sleep for eons.
        let addr = scripted_server(vec![
            format!(
                "HTTP/1.1 429 Too Many Requests\r\nRetry-After: {}\r\n",
                u64::MAX
            ),
            "HTTP/1.1 200 OK\r\n".into(),
        ]);
        let mut c = ResilientClient::new(
            addr,
            Duration::from_secs(2),
            RetryPolicy {
                max_attempts: 3,
                base_backoff_ms: 1,
                max_backoff_ms: 20,
                seed: 7,
            },
        );
        let started = std::time::Instant::now();
        let (status, _) = c.post("/v1/equilibrium", "{}").unwrap();
        assert_eq!(status, 200);
        assert_eq!(c.stats().retry_after_honored, 1);
        assert!(
            started.elapsed() < Duration::from_secs(1),
            "the hint must clamp to the 20 ms ceiling, waited {:?}",
            started.elapsed()
        );
    }

    #[test]
    fn retry_after_header_match_is_case_insensitive() {
        let addr = scripted_server(vec![
            "HTTP/1.1 429 Too Many Requests\r\nRETRY-AFTER: 1\r\n".into(),
            "HTTP/1.1 200 OK\r\n".into(),
        ]);
        let mut c = Client::with_timeout(addr, Duration::from_secs(2));
        let (status, _) = c.post("/v1/x", "{}").unwrap();
        assert_eq!(status, 429);
        assert_eq!(
            c.last_retry_after(),
            Some(1),
            "header names are case-insensitive on the wire"
        );
    }

    #[test]
    fn missing_retry_after_leaves_no_stale_hint() {
        let addr = scripted_server(vec![
            "HTTP/1.1 429 Too Many Requests\r\nRetry-After: 1\r\n".into(),
            "HTTP/1.1 429 Too Many Requests\r\n".into(),
        ]);
        let mut c = Client::with_timeout(addr, Duration::from_secs(2));
        let _ = c.post("/v1/x", "{}").unwrap();
        assert_eq!(c.last_retry_after(), Some(1));
        let _ = c.post("/v1/x", "{}").unwrap();
        assert_eq!(
            c.last_retry_after(),
            None,
            "a response without the header must clear the previous hint"
        );
    }
}
