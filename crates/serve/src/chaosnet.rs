//! A deterministic in-process TCP chaos proxy for the serve path.
//!
//! Sits between a client and the daemon and injects the failure modes a
//! hostile network produces — connection refusals, latency spikes,
//! byte-rate throttling, split writes, mid-response truncation, and
//! black-holed reads — with the same reproducibility contract as the
//! solver-level injector ([`pubopt_num::chaos`]): **every fault decision
//! is a pure function of `(seed, conn_id, op_index)`**, drawn through
//! [`pubopt_num::chaos::chaos_draw`]. Replaying a drill with the same
//! seed (and the same connection arrival order — use one client when the
//! schedule itself is under test) produces the identical fault schedule,
//! byte for byte; [`scheduled_fault`] precomputes it without running any
//! network at all, and tests assert the proxy's observed
//! [`ChaosProxy::fault_log`] against it.
//!
//! Faults attach to *responses*, not raw reads. TCP chunks bytes
//! nondeterministically, so "the 7th read" is not a stable unit — but
//! "the 3rd response on connection 5" is. The proxy therefore frames
//! both directions with the daemon's own `Content-Length` discipline and
//! schedules one fault decision per forwarded response (`op_index`),
//! plus one accept-time decision per connection (refusal). That framing
//! choice is what makes schedules replayable across machines and load
//! levels.
//!
//! The proxy is a plain thread-per-connection pump (one accept thread,
//! one thread per downstream connection) — it is a test harness, not a
//! scale component; the daemon behind it keeps its reactor model.

use pubopt_num::chaos::{chaos_draw, ChaosInjector};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Poll quantum for reads (and shutdown checks) inside the proxy.
const POLL: Duration = Duration::from_millis(50);
/// Bytes per write while throttling a response.
const THROTTLE_CHUNK: usize = 64;
/// Pause between throttled chunks.
const THROTTLE_PAUSE: Duration = Duration::from_millis(1);
/// `op` value recording an accept-time refusal in the fault log (real
/// response indices are small; `u32::MAX` cannot collide).
pub const ACCEPT_OP: u32 = u32::MAX;

/// The network fault kinds the proxy injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum NetFault {
    /// Close the connection at accept time, before reading a byte.
    Refuse,
    /// Hold the response for `delay_ms` before forwarding it.
    Delay,
    /// Forward the response in [`THROTTLE_CHUNK`]-byte writes with a
    /// pause between each (a congested path, not a failure).
    Throttle,
    /// Forward the response in two flushes with a pause between — the
    /// classic "header and body in different segments" framing hazard.
    SplitWrite,
    /// Forward only the first half of the response, then close — a
    /// mid-response connection reset.
    Reset,
    /// Swallow the response entirely: the connection goes silent for
    /// `blackhole_ms`, then closes without a byte.
    BlackHole,
}

impl NetFault {
    /// Stable label for logs and JSON summaries.
    pub fn name(self) -> &'static str {
        match self {
            NetFault::Refuse => "refuse",
            NetFault::Delay => "delay",
            NetFault::Throttle => "throttle",
            NetFault::SplitWrite => "split",
            NetFault::Reset => "reset",
            NetFault::BlackHole => "blackhole",
        }
    }
}

/// Per-kind fault rates plus the shaping knobs.
///
/// Accept-time refusal is decided once per connection at `refuse_rate`;
/// the remaining rates are per *response* and must sum (with none of
/// them individually) to at most 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosNetConfig {
    /// Seed defining the (deterministic) fault schedule.
    pub seed: u64,
    /// Accept-time refusal rate (per connection).
    pub refuse_rate: f64,
    /// [`NetFault::Delay`] rate (per response).
    pub delay_rate: f64,
    /// [`NetFault::Throttle`] rate (per response).
    pub throttle_rate: f64,
    /// [`NetFault::SplitWrite`] rate (per response).
    pub split_rate: f64,
    /// [`NetFault::Reset`] rate (per response).
    pub reset_rate: f64,
    /// [`NetFault::BlackHole`] rate (per response).
    pub blackhole_rate: f64,
    /// Injected latency for [`NetFault::Delay`].
    pub delay_ms: u64,
    /// Silence before closing a black-holed connection. Keep this below
    /// the client's read timeout or every black hole becomes a client
    /// stall instead of a fast retryable error.
    pub blackhole_ms: u64,
    /// Per-connection fault budget: after this many injected faults a
    /// connection runs clean. Per-connection (not global) so the budget
    /// cannot make one connection's schedule depend on another's thread
    /// timing.
    pub max_faults_per_conn: Option<u32>,
}

impl ChaosNetConfig {
    /// No faults at all — a transparent proxy (the A/B baseline).
    pub fn quiet(seed: u64) -> Self {
        Self {
            seed,
            refuse_rate: 0.0,
            delay_rate: 0.0,
            throttle_rate: 0.0,
            split_rate: 0.0,
            reset_rate: 0.0,
            blackhole_rate: 0.0,
            delay_ms: 5,
            blackhole_ms: 300,
            max_faults_per_conn: None,
        }
    }

    /// The soak-drill preset: total per-response fault probability
    /// `fault_rate`, split across kinds (30% delay, 15% throttle, 15%
    /// split, 20% reset, 10% black hole), plus accept refusals at a
    /// tenth of `fault_rate`. This is the mix the CI chaos-soak matrix
    /// runs at 0.10 and 0.30.
    ///
    /// # Panics
    ///
    /// Panics if `fault_rate` is outside `[0, 1]`.
    pub fn uniform(seed: u64, fault_rate: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&fault_rate),
            "fault rate {fault_rate} outside [0, 1]"
        );
        Self {
            seed,
            refuse_rate: 0.1 * fault_rate,
            delay_rate: 0.30 * fault_rate,
            throttle_rate: 0.15 * fault_rate,
            split_rate: 0.15 * fault_rate,
            reset_rate: 0.20 * fault_rate,
            blackhole_rate: 0.10 * fault_rate,
            delay_ms: 5,
            blackhole_ms: 300,
            max_faults_per_conn: None,
        }
    }

    /// Combined per-response fault probability.
    pub fn total_rate(&self) -> f64 {
        self.delay_rate
            + self.throttle_rate
            + self.split_rate
            + self.reset_rate
            + self.blackhole_rate
    }

    fn validate(&self) {
        for r in [
            self.refuse_rate,
            self.delay_rate,
            self.throttle_rate,
            self.split_rate,
            self.reset_rate,
            self.blackhole_rate,
        ] {
            assert!((0.0..=1.0).contains(&r), "fault rate {r} outside [0, 1]");
        }
        assert!(
            self.total_rate() <= 1.0 + 1e-12,
            "per-response fault rates sum past 1: {}",
            self.total_rate()
        );
    }
}

/// One injected fault, as recorded in the proxy's log.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct FaultEvent {
    /// Accept-order connection index (0-based).
    pub conn_id: u64,
    /// Response index on that connection, or [`ACCEPT_OP`] for an
    /// accept-time refusal.
    pub op: u32,
    /// What was injected.
    pub fault: NetFault,
}

/// The fault scheduled for response `op` on connection `conn_id` — a
/// pure function of the config; the running proxy makes exactly this
/// decision (until a `max_faults_per_conn` budget runs out). Pass
/// [`ACCEPT_OP`] for the accept-time refusal decision.
pub fn scheduled_fault(config: &ChaosNetConfig, conn_id: u64, op: u32) -> Option<NetFault> {
    if op == ACCEPT_OP {
        let u = chaos_draw(config.seed, ChaosInjector::site("chaosnet.accept"), conn_id);
        return (u < config.refuse_rate).then_some(NetFault::Refuse);
    }
    if config.total_rate() <= 0.0 {
        return None;
    }
    // One decision per (conn, response); conn_id and op packed into the
    // draw's unit. 2^24 responses per connection is far beyond any soak.
    let unit = (conn_id << 24) | u64::from(op);
    let u = chaos_draw(config.seed, ChaosInjector::site("chaosnet.resp"), unit);
    let mut edge = config.delay_rate;
    if u < edge {
        return Some(NetFault::Delay);
    }
    edge += config.throttle_rate;
    if u < edge {
        return Some(NetFault::Throttle);
    }
    edge += config.split_rate;
    if u < edge {
        return Some(NetFault::SplitWrite);
    }
    edge += config.reset_rate;
    if u < edge {
        return Some(NetFault::Reset);
    }
    edge += config.blackhole_rate;
    if u < edge {
        return Some(NetFault::BlackHole);
    }
    None
}

struct Shared {
    config: ChaosNetConfig,
    upstream: SocketAddr,
    stop: AtomicBool,
    conns: AtomicU64,
    faults: AtomicU64,
    refusals: AtomicU64,
    log: Mutex<Vec<FaultEvent>>,
    pumps: Mutex<Vec<JoinHandle<()>>>,
}

impl Shared {
    /// Decide (and record) the fault for one response, honouring the
    /// per-connection budget.
    fn fault_for(&self, conn_id: u64, op: u32, spent: &mut u32) -> Option<NetFault> {
        if let Some(budget) = self.config.max_faults_per_conn {
            if *spent >= budget {
                return None;
            }
        }
        let fault = scheduled_fault(&self.config, conn_id, op)?;
        *spent += 1;
        self.faults.fetch_add(1, Ordering::Relaxed);
        self.log
            .lock()
            .expect("chaosnet log poisoned")
            .push(FaultEvent { conn_id, op, fault });
        Some(fault)
    }

    fn sleep_unless_stopped(&self, total: Duration) {
        let mut left = total;
        while left > Duration::ZERO && !self.stop.load(Ordering::SeqCst) {
            let step = left.min(POLL);
            std::thread::sleep(step);
            left = left.saturating_sub(step);
        }
    }
}

/// A running chaos proxy. [`ChaosProxy::shutdown`] stops and joins it.
pub struct ChaosProxy {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept_thread: Option<JoinHandle<()>>,
}

impl ChaosProxy {
    /// Start a proxy on an OS-assigned local port, forwarding to
    /// `upstream` with faults per `config`.
    ///
    /// # Errors
    ///
    /// Propagates the listener bind failure.
    ///
    /// # Panics
    ///
    /// Panics if `config` carries an invalid rate (outside `[0, 1]` or
    /// summing past 1).
    pub fn spawn(upstream: SocketAddr, config: ChaosNetConfig) -> io::Result<Self> {
        config.validate();
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let shared = Arc::new(Shared {
            config,
            upstream,
            stop: AtomicBool::new(false),
            conns: AtomicU64::new(0),
            faults: AtomicU64::new(0),
            refusals: AtomicU64::new(0),
            log: Mutex::new(Vec::new()),
            pumps: Mutex::new(Vec::new()),
        });
        let accept_shared = Arc::clone(&shared);
        let accept_thread = std::thread::Builder::new()
            .name("chaosnet-accept".into())
            .spawn(move || accept_loop(&listener, &accept_shared))?;
        Ok(Self {
            addr,
            shared,
            accept_thread: Some(accept_thread),
        })
    }

    /// The proxy's listen address — point clients here instead of at the
    /// daemon.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connections accepted so far.
    pub fn connections(&self) -> u64 {
        self.shared.conns.load(Ordering::Relaxed)
    }

    /// Faults injected so far (all kinds, refusals included).
    pub fn faults_injected(&self) -> u64 {
        self.shared.faults.load(Ordering::Relaxed)
    }

    /// Accept-time refusals injected so far.
    pub fn refusals(&self) -> u64 {
        self.shared.refusals.load(Ordering::Relaxed)
    }

    /// The observed fault schedule, sorted by `(conn_id, op)` so the log
    /// is independent of pump-thread interleaving.
    pub fn fault_log(&self) -> Vec<FaultEvent> {
        let mut log = self
            .shared
            .log
            .lock()
            .expect("chaosnet log poisoned")
            .clone();
        log.sort_unstable();
        log
    }

    /// FNV-1a digest of the sorted fault schedule — two runs faulted
    /// identically iff their digests match.
    pub fn schedule_digest(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut mix = |v: u64| {
            for b in v.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
        };
        for e in self.fault_log() {
            mix(e.conn_id);
            mix(u64::from(e.op));
            mix(e.fault as u64);
        }
        h
    }

    /// Stop accepting, wind down every pump thread, and join them all.
    pub fn shutdown(mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.accept_thread.take() {
            t.join().expect("chaosnet accept thread panicked");
        }
        let pumps = std::mem::take(&mut *self.shared.pumps.lock().expect("pump list poisoned"));
        for t in pumps {
            t.join().expect("chaosnet pump thread panicked");
        }
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    while !shared.stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                let conn_id = shared.conns.fetch_add(1, Ordering::Relaxed);
                // Accept-time refusal: one decision per connection.
                let mut spent = 0u32;
                if shared.fault_for(conn_id, ACCEPT_OP, &mut spent).is_some() {
                    shared.refusals.fetch_add(1, Ordering::Relaxed);
                    drop(stream);
                    continue;
                }
                let pump_shared = Arc::clone(shared);
                let t = std::thread::Builder::new()
                    .name(format!("chaosnet-pump-{conn_id}"))
                    .spawn(move || pump(&pump_shared, stream, conn_id, spent))
                    .expect("spawn chaosnet pump");
                shared.pumps.lock().expect("pump list poisoned").push(t);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => std::thread::sleep(POLL),
            Err(_) => std::thread::sleep(POLL),
        }
    }
}

/// One downstream connection's request→response pump. Sequential by
/// design: read one framed request, forward, read the framed response,
/// apply the scheduled fault, answer, repeat — keep-alive on both sides.
fn pump(shared: &Arc<Shared>, mut downstream: TcpStream, conn_id: u64, mut spent: u32) {
    let _ = downstream.set_nodelay(true);
    let _ = downstream.set_read_timeout(Some(POLL));
    let mut upstream: Option<TcpStream> = None;
    let mut down_buf = Vec::new();
    let mut up_buf = Vec::new();
    let mut op = 0u32;
    while let Ok(Some(request)) = read_message(&mut downstream, &mut down_buf, shared) {
        // (Re)connect upstream lazily — the daemon may have closed its
        // side (Connection: close, idle timeout) between our requests.
        if upstream.is_none() {
            match TcpStream::connect_timeout(&shared.upstream, Duration::from_secs(5)) {
                Ok(s) => {
                    let _ = s.set_nodelay(true);
                    let _ = s.set_read_timeout(Some(POLL));
                    up_buf.clear();
                    upstream = Some(s);
                }
                Err(_) => break,
            }
        }
        let up = upstream.as_mut().expect("upstream just connected");
        if up.write_all(&request).and_then(|()| up.flush()).is_err() {
            break;
        }
        let Ok(Some(response)) = read_message(up, &mut up_buf, shared) else {
            break;
        };
        if response_closes(&response) {
            upstream = None;
        }
        let fault = shared.fault_for(conn_id, op, &mut spent);
        op += 1;
        let delivered = match fault {
            None => downstream.write_all(&response).is_ok(),
            Some(NetFault::Delay) => {
                shared.sleep_unless_stopped(Duration::from_millis(shared.config.delay_ms));
                downstream.write_all(&response).is_ok()
            }
            Some(NetFault::Throttle) => {
                let mut ok = true;
                for chunk in response.chunks(THROTTLE_CHUNK) {
                    if downstream
                        .write_all(chunk)
                        .and_then(|()| downstream.flush())
                        .is_err()
                    {
                        ok = false;
                        break;
                    }
                    std::thread::sleep(THROTTLE_PAUSE);
                }
                ok
            }
            Some(NetFault::SplitWrite) => {
                let mid = response.len() / 2;
                downstream
                    .write_all(&response[..mid])
                    .and_then(|()| downstream.flush())
                    .map(|()| std::thread::sleep(THROTTLE_PAUSE))
                    .and_then(|()| downstream.write_all(&response[mid..]))
                    .is_ok()
            }
            Some(NetFault::Reset) => {
                // Half the response, then the connection dies under the
                // client mid-body.
                let _ = downstream.write_all(&response[..response.len() / 2]);
                let _ = downstream.flush();
                break;
            }
            Some(NetFault::BlackHole) => {
                shared.sleep_unless_stopped(Duration::from_millis(shared.config.blackhole_ms));
                break;
            }
            Some(NetFault::Refuse) => unreachable!("refusal is accept-time only"),
        };
        if !delivered {
            break;
        }
    }
}

/// Read one `Content-Length`-framed HTTP message (request or response)
/// off `stream` into an owned buffer, using `buf` as the carry-over
/// store for bytes past the message boundary. Returns `Ok(None)` on
/// clean EOF before a complete message or on proxy shutdown.
fn read_message(
    stream: &mut TcpStream,
    buf: &mut Vec<u8>,
    shared: &Shared,
) -> io::Result<Option<Vec<u8>>> {
    let mut tmp = [0u8; 4096];
    loop {
        if let Some(head_end) = find_head_end(buf) {
            let total = head_end + content_length(&buf[..head_end]);
            if buf.len() >= total {
                let msg = buf[..total].to_vec();
                buf.drain(..total);
                return Ok(Some(msg));
            }
        }
        if shared.stop.load(Ordering::SeqCst) {
            return Ok(None);
        }
        match stream.read(&mut tmp) {
            Ok(0) => return Ok(None),
            Ok(n) => buf.extend_from_slice(&tmp[..n]),
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut => {
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return Ok(None),
        }
    }
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n").map(|p| p + 4)
}

/// `Content-Length` of a framed head (0 when absent — GETs and
/// bodyless responses).
fn content_length(head: &[u8]) -> usize {
    let head = String::from_utf8_lossy(head);
    for line in head.lines().skip(1) {
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                return value.trim().parse().unwrap_or(0);
            }
        }
    }
    0
}

/// Whether a framed response announces `Connection: close`.
fn response_closes(msg: &[u8]) -> bool {
    let head_end = find_head_end(msg).unwrap_or(msg.len());
    let head = String::from_utf8_lossy(&msg[..head_end]);
    for line in head.lines().skip(1) {
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("connection") {
                return value.trim().eq_ignore_ascii_case("close");
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_a_pure_function_of_seed_conn_and_op() {
        let a = ChaosNetConfig::uniform(42, 0.3);
        let b = ChaosNetConfig::uniform(42, 0.3);
        for conn in 0..20u64 {
            assert_eq!(
                scheduled_fault(&a, conn, ACCEPT_OP),
                scheduled_fault(&b, conn, ACCEPT_OP)
            );
            for op in 0..200u32 {
                assert_eq!(scheduled_fault(&a, conn, op), scheduled_fault(&b, conn, op));
            }
        }
    }

    #[test]
    fn different_seeds_schedule_differently() {
        let a = ChaosNetConfig::uniform(1, 0.3);
        let b = ChaosNetConfig::uniform(2, 0.3);
        let differs = (0..20u64).any(|conn| {
            (0..200u32).any(|op| scheduled_fault(&a, conn, op) != scheduled_fault(&b, conn, op))
        });
        assert!(differs, "seeds 1 and 2 produced identical net schedules");
    }

    #[test]
    fn rates_are_roughly_honoured() {
        let cfg = ChaosNetConfig::uniform(7, 0.3);
        let n = 20_000u32;
        let faults = (0..n)
            .filter(|&op| scheduled_fault(&cfg, 0, op).is_some())
            .count();
        let frac = faults as f64 / f64::from(n);
        // Per-response kinds carry 90% of the headline rate (the other
        // tenth is the accept-time refusal rate).
        assert!(
            (frac - cfg.total_rate()).abs() < 0.02,
            "fault fraction {frac} vs configured {}",
            cfg.total_rate()
        );
    }

    #[test]
    fn quiet_config_never_faults() {
        let cfg = ChaosNetConfig::quiet(9);
        assert!(scheduled_fault(&cfg, 0, ACCEPT_OP).is_none());
        assert!((0..1000u32).all(|op| scheduled_fault(&cfg, 3, op).is_none()));
    }

    #[test]
    fn framing_helpers_parse_requests_and_responses() {
        let req = b"POST /x HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}";
        assert_eq!(content_length(req), 2);
        assert_eq!(find_head_end(req), Some(req.len() - 2));
        assert!(!response_closes(
            b"HTTP/1.1 200 OK\r\nConnection: keep-alive\r\n\r\n"
        ));
        assert!(response_closes(
            b"HTTP/1.1 200 OK\r\nConnection: close\r\n\r\n"
        ));
        assert_eq!(content_length(b"GET / HTTP/1.1\r\n\r\n"), 0);
    }

    #[test]
    #[should_panic(expected = "fault rate")]
    fn invalid_rate_rejected() {
        ChaosNetConfig::uniform(0, 1.5);
    }
}
