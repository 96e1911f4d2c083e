//! The daemon: a readiness-polling reactor, a worker pool, and the
//! per-connection state machine.
//!
//! Threading model. One *reactor* thread owns every socket read: it
//! accepts new connections (nonblocking), polls every resident
//! connection's socket with nonblocking reads into a per-connection
//! buffer, enforces the timeout policy, and — once a buffer holds at
//! least one complete request — hands the connection (stream + parsed
//! requests + leftover bytes) to a dedicated `pubopt-sched` pool of
//! `workers` threads. Workers never read a socket: they solve, write
//! responses in arrival order, parse any further requests already
//! buffered (pipelining), and then either close the connection or send
//! it back to the reactor to await the next request. A connection
//! therefore moves through the state machine
//!
//! ```text
//! reading ──complete request(s)──▶ solving ──▶ writing ──keep-alive──▶ reading
//!    │                                              │
//!    ├─ read/idle timeout ▶ closed                  └─ close/EOF ▶ closed
//! ```
//!
//! with ownership transferring wholesale between reactor and worker, so
//! no per-connection lock exists and responses cannot interleave. The
//! payoff over the old thread-per-connection design: a slow, stalled, or
//! half-closed client sits in the reactor's connection table (cheap — a
//! buffer and a timestamp) and *can never occupy a worker thread*;
//! workers only ever hold connections whose requests are fully buffered.
//!
//! Timeout policy (all configurable on [`ServeConfig`]):
//! * **read timeout** — a connection whose request started arriving must
//!   deliver a complete head+body within `read_timeout_ms` of its first
//!   byte, or it is closed (slow-loris trickle included: the clock runs
//!   from the first byte of the *current* request, not the last byte
//!   received).
//! * **idle timeout** — a keep-alive connection with no buffered bytes
//!   may sit for `idle_timeout_ms` before the daemon closes it.
//!
//! Backpressure. The worker pool's job backlog is bounded: a connection
//! whose requests are ready but would push [`pubopt_sched::Pool::queued_jobs`]
//! past `queue_depth` first falls back to *degraded mode* — queries whose
//! canonical key is already cached are answered straight from the
//! reactor, marked `Degraded: stale`; requests other than `POST`
//! (`/healthz`, `/v1/stats`) never solve and are answered as usual —
//! and only cache misses are shed `429 Too Many Requests` (with
//! `Retry-After`) and closed: explicit, cheap shedding instead of
//! unbounded queueing. A connection cap
//! (`max_connections`) bounds the reactor table the same way. Clients
//! can also bound their own wait with an `X-Deadline-Ms` header; a
//! request whose budget expired in the queue is answered `504` without
//! solving.
//!
//! Fault isolation. Workers run each solve inside `catch_unwind`: a
//! panicking solve (or an injected chaos fault) costs that request a
//! `500` and nothing else. A panic anywhere *else* in the serve path is
//! caught by a per-job supervisor (`dispatch`), counted as a worker
//! respawn, and answered with a last-gasp `500`. The optional
//! [`ChaosInjector`] schedules panics as a pure function of the
//! solved-request sequence number, so a chaos run is reproducible
//! bit-for-bit.
//!
//! Shutdown. `POST /v1/shutdown` (or [`ServerHandle::shutdown`]) flips a
//! flag; the reactor closes its table and exits, the pool's workers
//! drain in-flight jobs (responses to requests being solved are still
//! written, marked `Connection: close`), and [`ServerHandle::join`]
//! reaps every thread.

use crate::api::ApiRequest;
use crate::cache::{CacheStats, ShardedCache};
use crate::http::{drain_requests, write_response, write_response_ext, HttpError, Request};
use crate::state::{ScenarioStore, WarmPool};
use pubopt_num::chaos::{ChaosConfig, ChaosInjector};
use pubopt_obs::json::Value;
use std::io::{self, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Hard cap on a connection's buffered-but-unparsed bytes: one maximal
/// head+body plus slack for a pipelined successor's head.
const BUF_CAP: usize = crate::http::MAX_HEAD_BYTES * 2 + crate::http::MAX_BODY_BYTES;

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; use port 0 to let the OS pick (the bound address is
    /// available from [`ServerHandle::addr`]).
    pub addr: String,
    /// Worker threads solving requests.
    pub workers: usize,
    /// Worker-job queue bound; a connection whose requests would exceed
    /// it is shed with `429`.
    pub queue_depth: usize,
    /// Response-cache shard count.
    pub cache_shards: usize,
    /// Response-cache entries per shard.
    pub cache_per_shard: usize,
    /// Optional deterministic fault injection on the worker compute path
    /// (only [`Fault::Panic`](pubopt_num::chaos::Fault::Panic) is
    /// meaningful here; other fault kinds are treated as panics too).
    pub chaos: Option<ChaosConfig>,
    /// Most connections the reactor will hold; beyond it new accepts are
    /// shed with `429`.
    pub max_connections: usize,
    /// Most pipelined requests dispatched to a worker per hand-off;
    /// further buffered requests wait for the next hand-off (fairness
    /// bound, not a correctness bound — order is preserved regardless).
    pub max_pipeline: usize,
    /// Reactor poll interval in microseconds when no event arrived on
    /// the previous sweep (accept + read readiness are polled; the
    /// reactor never blocks).
    pub poll_interval_us: u64,
    /// A started request must arrive completely within this budget,
    /// measured from its first byte (slow-loris bound).
    pub read_timeout_ms: u64,
    /// A keep-alive connection with nothing buffered is closed after
    /// this long.
    pub idle_timeout_ms: u64,
    /// Response writes (worker and reactor alike) must complete within
    /// this budget; a peer that stops reading costs at most this long.
    pub write_timeout_ms: u64,
    /// Shard registry: addresses of the shard daemons behind
    /// `/v1/dist/solve`. Empty (the default) leaves the coordinator
    /// route answering `400`; non-empty, the registry size must divide
    /// [`pubopt_num::BLOCK_LANES`] so shard block ranges tile the
    /// reduction lattice (checked at [`spawn`]). Entry `i` serves shard
    /// `i` of `len()`.
    pub shards: Vec<String>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_owned(),
            workers: 4,
            queue_depth: 128,
            cache_shards: 8,
            cache_per_shard: 64,
            chaos: None,
            max_connections: 1024,
            max_pipeline: 16,
            poll_interval_us: 200,
            read_timeout_ms: 5_000,
            idle_timeout_ms: 10_000,
            write_timeout_ms: 10_000,
            shards: Vec::new(),
        }
    }
}

/// Shed responses advise clients to come back after this many seconds —
/// long enough for a bounded queue to drain, short enough that a retry
/// storm spreads rather than synchronizes.
const RETRY_AFTER_SECS: &str = "1";

fn retry_after() -> [(&'static str, String); 1] {
    [("Retry-After", RETRY_AFTER_SECS.to_owned())]
}

/// A connection parked in the reactor (or in flight to/from a worker).
struct Conn {
    stream: TcpStream,
    /// Bytes read but not yet parsed into requests.
    buf: Vec<u8>,
    /// When the current partially-buffered request started arriving
    /// (`None` while the buffer is empty).
    request_started: Option<Instant>,
    /// Last transition into the reactor table or byte received — the
    /// idle clock.
    idle_since: Instant,
    /// Responses written on this connection so far.
    served: u64,
    /// The peer closed its write side (EOF seen); serve what is buffered
    /// then close.
    peer_closed: bool,
    /// Accepted past `max_connections`: answer the first request with a
    /// `429` and close, instead of dispatching. Waiting for the request
    /// before responding lets the kernel deliver our bytes (closing with
    /// unread input would RST the response away).
    reject: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Self {
        Self {
            stream,
            buf: Vec::new(),
            request_started: None,
            idle_since: Instant::now(),
            served: 0,
            peer_closed: false,
            reject: false,
        }
    }
}

/// What the reactor decides for one connection on one sweep.
enum Sweep {
    /// Nothing to do; keep parked.
    Keep,
    /// Complete request(s) buffered: hand to a worker.
    Dispatch(Vec<Request>),
    /// Close now (EOF with nothing buffered, error, malformed, timeout).
    Close,
}

/// One daemon counter. The variants index the daemon's only counter
/// table, which `/v1/stats` renders in [`Stat::ALL`] order under
/// [`Stat::key`] and [`ServerHandle::stat`] reads. Every counter is
/// always on, whatever features the build enables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stat {
    /// Requests a worker answered, whatever the status (a solve's `500`
    /// after a worker panic and a deadline's `504` included), plus those
    /// answered in degraded mode: cache hits and requests other than
    /// `POST`. Each is counted after its body is rendered, before it is
    /// written. Not counted: `429` sheds, `400`s for bytes that do not
    /// parse as HTTP, `408` read timeouts, and the supervisor's
    /// last-gasp `500`.
    Requests,
    /// Work refused under load: a `POST` answered `429` because the
    /// queue was full and its query was not cached; a connection
    /// accepted past `max_connections` (its first request is answered
    /// `429`); and a connection closed with no response because the
    /// table already held 2 × `max_connections`.
    Shed,
    /// Single queries, batch entries and shard aggregates whose solve
    /// panicked inside per-request isolation and was answered `500`.
    WorkerPanics,
    /// Connections the reactor accepted, shed ones included.
    ConnectionsAccepted,
    /// Requests counted under [`Stat::Requests`] by a worker that were
    /// not the first response on their connection.
    KeepaliveReuses,
    /// Connections closed by the read timeout (answered `408`) or the
    /// idle timeout (closed silently).
    ConnectionTimeouts,
    /// `/v1/batch` requests whose body parsed, whatever their entry count.
    Batches,
    /// Requests answered `504` because their `X-Deadline-Ms` budget
    /// expired before a worker reached them.
    DeadlineShed,
    /// Cache hits answered from the reactor with `Degraded: stale`
    /// while the queue was full.
    DegradedServed,
    /// Serve jobs that panicked outside per-request isolation, caught by
    /// the supervisor in `dispatch` (the worker slot returns to service).
    WorkerRespawns,
    /// Response writes, by a worker or the degraded-mode reactor,
    /// abandoned because the write-timeout budget expired.
    WriteTimeouts,
    /// `/v1/dist/solve` requests that passed validation and started a
    /// coordinated solve.
    DistSolves,
    /// Shard RPCs issued by coordinated solves, failed ones included and
    /// retries not.
    ShardRpcs,
    /// `/v1/shard/aggregate` queries that parsed, cache hits included.
    ShardQueries,
    /// `/v1/whatif` co-simulations, single or batched, that a worker ran
    /// to a `200` (cache hits excluded).
    WhatifSolves,
}

impl Stat {
    /// Every counter, in `/v1/stats` order.
    pub const ALL: [Stat; 15] = [
        Stat::Requests,
        Stat::Shed,
        Stat::WorkerPanics,
        Stat::ConnectionsAccepted,
        Stat::KeepaliveReuses,
        Stat::ConnectionTimeouts,
        Stat::Batches,
        Stat::DeadlineShed,
        Stat::DegradedServed,
        Stat::WorkerRespawns,
        Stat::WriteTimeouts,
        Stat::DistSolves,
        Stat::ShardRpcs,
        Stat::ShardQueries,
        Stat::WhatifSolves,
    ];

    /// The counter's `/v1/stats` key.
    pub fn key(self) -> &'static str {
        match self {
            Stat::Requests => "requests",
            Stat::Shed => "shed",
            Stat::WorkerPanics => "worker_panics",
            Stat::ConnectionsAccepted => "connections_accepted",
            Stat::KeepaliveReuses => "keepalive_reuses",
            Stat::ConnectionTimeouts => "connection_timeouts",
            Stat::Batches => "batches",
            Stat::DeadlineShed => "deadline_shed",
            Stat::DegradedServed => "degraded_served",
            Stat::WorkerRespawns => "worker_respawns",
            Stat::WriteTimeouts => "write_timeouts",
            Stat::DistSolves => "dist_solves",
            Stat::ShardRpcs => "shard_rpcs",
            Stat::ShardQueries => "shard_queries",
            Stat::WhatifSolves => "whatif_solves",
        }
    }
}

/// Shared daemon state.
struct Inner {
    cache: ShardedCache,
    scenarios: ScenarioStore,
    warm: WarmPool,
    /// Dedicated connection-handling pool (see the module docs for why
    /// it is not the global compute pool).
    pool: pubopt_sched::Pool,
    queue_depth: usize,
    max_pipeline: usize,
    shutdown: AtomicBool,
    /// The counter table, indexed by [`Stat`].
    stats: [AtomicU64; Stat::ALL.len()],
    /// Solved-request sequence number: the chaos injector's clock.
    seq: AtomicU64,
    /// Shard registry for `/v1/dist/solve` (empty on plain daemons).
    shards: Vec<SocketAddr>,
    chaos: Option<ChaosInjector>,
    workers: usize,
    /// Budget for any single response write (worker or reactor).
    write_timeout: Duration,
    /// Return channel: workers send keep-alive connections back to the
    /// reactor here. Senders are cloned per job; when the reactor exits
    /// the sends fail and the connections drop closed.
    back_tx: Mutex<Sender<Conn>>,
}

impl Inner {
    fn add(&self, stat: Stat, n: u64) {
        self.stats[stat as usize].fetch_add(n, Ordering::Relaxed);
    }

    fn bump(&self, stat: Stat) {
        self.add(stat, 1);
    }

    fn stat(&self, stat: Stat) -> u64 {
        self.stats[stat as usize].load(Ordering::Relaxed)
    }
}

/// A running daemon. Dropping the handle does *not* stop the server; call
/// [`ServerHandle::shutdown`] then [`ServerHandle::join`].
pub struct ServerHandle {
    inner: Arc<Inner>,
    addr: SocketAddr,
    threads: Vec<JoinHandle<()>>,
}

/// Start a daemon per `config` and return its handle once the socket is
/// bound and the reactor is running.
///
/// # Errors
///
/// Propagates the bind failure if the address is unavailable.
pub fn spawn(config: &ServeConfig) -> io::Result<ServerHandle> {
    let shards = resolve_shards(&config.shards)?;
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;
    let workers = config.workers.max(1);
    let (back_tx, back_rx) = std::sync::mpsc::channel();
    let inner = Arc::new(Inner {
        cache: ShardedCache::new(config.cache_shards, config.cache_per_shard),
        scenarios: ScenarioStore::default(),
        warm: WarmPool::default(),
        pool: pubopt_sched::Pool::new(workers),
        queue_depth: config.queue_depth.max(1),
        max_pipeline: config.max_pipeline.max(1),
        shutdown: AtomicBool::new(false),
        stats: Default::default(),
        seq: AtomicU64::new(0),
        shards,
        chaos: config.chaos.map(ChaosInjector::new),
        workers,
        write_timeout: Duration::from_millis(config.write_timeout_ms.max(1)),
        back_tx: Mutex::new(back_tx),
    });

    let mut threads = Vec::with_capacity(1);
    {
        let inner = Arc::clone(&inner);
        let config = config.clone();
        threads.push(
            std::thread::Builder::new()
                .name("serve-reactor".into())
                .spawn(move || reactor_loop(&listener, &inner, &back_rx, &config))?,
        );
    }
    Ok(ServerHandle {
        inner,
        addr,
        threads,
    })
}

impl ServerHandle {
    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Response-cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.inner.cache.stats()
    }

    /// The current value of one counter, as `/v1/stats` reports it.
    pub fn stat(&self, stat: Stat) -> u64 {
        self.inner.stat(stat)
    }

    /// Ask the daemon to stop: the reactor closes its table and exits,
    /// the pool's workers drain in-flight jobs and exit.
    pub fn shutdown(&self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        self.inner.pool.shutdown();
    }

    /// Wait for every daemon thread to exit. Call after
    /// [`ServerHandle::shutdown`] (or after a client hit `/v1/shutdown`).
    ///
    /// # Panics
    ///
    /// Panics if a daemon thread itself panicked — worker panics are
    /// caught per-request, so this indicates a daemon bug.
    pub fn join(self) {
        for t in self.threads {
            t.join().expect("daemon thread panicked");
        }
        self.inner.pool.join();
    }
}

fn reactor_loop(
    listener: &TcpListener,
    inner: &Arc<Inner>,
    back_rx: &Receiver<Conn>,
    config: &ServeConfig,
) {
    let poll_interval = Duration::from_micros(config.poll_interval_us.max(1));
    let read_timeout = Duration::from_millis(config.read_timeout_ms.max(1));
    let idle_timeout = Duration::from_millis(config.idle_timeout_ms.max(1));
    let max_connections = config.max_connections.max(1);
    let mut conns: Vec<Conn> = Vec::new();

    while !inner.shutdown.load(Ordering::SeqCst) {
        let mut progressed = false;

        // New connections. Nonblocking accept drains the backlog; a
        // table past the cap sheds at the door in bounded time.
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    progressed = true;
                    inner.bump(Stat::ConnectionsAccepted);
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    // Responses must not sit in Nagle's buffer waiting
                    // for a delayed ACK on keep-alive connections.
                    let _ = stream.set_nodelay(true);
                    let mut conn = Conn::new(stream);
                    if conns.len() >= 2 * max_connections {
                        // Grace table exhausted too: hard-close. At this
                        // accept rate a reset is the honest signal.
                        inner.bump(Stat::Shed);
                        continue;
                    }
                    if conns.len() >= max_connections {
                        inner.bump(Stat::Shed);
                        conn.reject = true;
                    }
                    conns.push(conn);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(_) => break,
            }
        }

        // Keep-alive connections coming back from workers.
        while let Ok(mut conn) = back_rx.try_recv() {
            progressed = true;
            conn.idle_since = Instant::now();
            conn.request_started = if conn.buf.is_empty() {
                None
            } else {
                Some(Instant::now())
            };
            if conns.len() >= max_connections {
                // The table filled while the worker held the connection.
                // Its requests are all answered, so dropping is a normal
                // keep-alive close — the client reconnects.
                drop(conn);
            } else {
                conns.push(conn);
            }
        }

        // Readiness sweep: poll every parked connection.
        let mut i = 0;
        while i < conns.len() {
            match sweep_conn(&mut conns[i], inner, read_timeout, idle_timeout) {
                Sweep::Keep => i += 1,
                Sweep::Dispatch(reqs) => {
                    progressed = true;
                    let conn = conns.swap_remove(i);
                    dispatch(inner, conn, reqs);
                }
                Sweep::Close => {
                    progressed = true;
                    drop(conns.swap_remove(i));
                }
            }
        }

        if !progressed {
            std::thread::sleep(poll_interval);
        }
    }
    // Shutdown: the table drops (closing every parked connection);
    // workers drain their in-flight jobs via the pool's own shutdown.
}

/// Poll one parked connection: read whatever is available, enforce the
/// timeout policy, and parse buffered bytes into dispatchable requests.
fn sweep_conn(
    conn: &mut Conn,
    inner: &Inner,
    read_timeout: Duration,
    idle_timeout: Duration,
) -> Sweep {
    let mut tmp = [0u8; 4096];
    loop {
        match conn.stream.read(&mut tmp) {
            Ok(0) => {
                conn.peer_closed = true;
                break;
            }
            Ok(n) => {
                if conn.buf.is_empty() {
                    conn.request_started = Some(Instant::now());
                }
                conn.idle_since = Instant::now();
                conn.buf.extend_from_slice(&tmp[..n]);
                if conn.buf.len() > BUF_CAP {
                    let _ = write_response(
                        &mut conn.stream,
                        400,
                        "{\"error\":\"request too large\"}",
                        false,
                    );
                    return Sweep::Close;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return Sweep::Close,
        }
    }

    match drain_requests(&mut conn.buf, inner.max_pipeline) {
        Ok(reqs) if !reqs.is_empty() => {
            if conn.reject {
                // Over the connection cap: the request has fully arrived
                // (so the kernel will deliver our reply), answer 429 and
                // close.
                let _ = write_response_ext(
                    &mut conn.stream,
                    429,
                    "{\"error\":\"connection limit\"}",
                    false,
                    &retry_after(),
                );
                return Sweep::Close;
            }
            if conn.buf.is_empty() {
                conn.request_started = None;
            } else {
                conn.request_started = Some(Instant::now());
            }
            Sweep::Dispatch(reqs)
        }
        Ok(_) => {
            if conn.peer_closed {
                // EOF with no complete request buffered: nothing left to
                // serve.
                return Sweep::Close;
            }
            // Timeout policy: a started request must complete within the
            // read budget; an idle keep-alive connection expires on the
            // idle budget.
            if let Some(started) = conn.request_started {
                if started.elapsed() >= read_timeout {
                    inner.bump(Stat::ConnectionTimeouts);
                    let _ = write_response(
                        &mut conn.stream,
                        408,
                        "{\"error\":\"request read timed out\"}",
                        false,
                    );
                    return Sweep::Close;
                }
            } else if conn.idle_since.elapsed() >= idle_timeout {
                inner.bump(Stat::ConnectionTimeouts);
                return Sweep::Close;
            }
            Sweep::Keep
        }
        Err(HttpError::TooLarge(what)) => {
            let body = format!("{{\"error\":\"request too large: {what}\"}}");
            let _ = write_response(&mut conn.stream, 400, &body, false);
            Sweep::Close
        }
        Err(_) => {
            let _ = write_response(
                &mut conn.stream,
                400,
                "{\"error\":\"malformed request\"}",
                false,
            );
            Sweep::Close
        }
    }
}

/// Hand a connection with ready requests to the worker pool, or shed it
/// if the job queue is at its bound. Saturation falls back to *degraded
/// mode* before shedding: a query whose canonical key is already cached
/// is answered straight from the reactor with a `Degraded: stale`
/// header — no worker needed — and only cache misses get the 429.
fn dispatch(inner: &Arc<Inner>, mut conn: Conn, reqs: Vec<Request>) {
    // Only the reactor enqueues, so the depth check cannot race upward
    // past the bound.
    if inner.pool.queued_jobs() >= inner.queue_depth {
        serve_degraded(inner, &mut conn, &reqs);
        return;
    }
    let batch_started = Instant::now();
    let job_inner = Arc::clone(inner);
    inner.pool.spawn_job(move || {
        // Supervision: per-request isolation (`catch_unwind` in
        // `serve_query`) covers the solve; a panic anywhere else in the
        // serve path would kill this job. The pool already keeps its
        // worker *thread* alive through job panics, so supervision here
        // means counting the crash and giving the client a last-gasp 500
        // on a dup'd handle (the crashed job's own stream drops closed).
        let spare = conn.stream.try_clone().ok();
        let crashed = catch_unwind(AssertUnwindSafe(|| {
            handle_requests(&job_inner, conn, reqs, batch_started);
        }))
        .is_err();
        if crashed {
            job_inner.bump(Stat::WorkerRespawns);
            if let Some(mut stream) = spare {
                let _ = stream.set_nonblocking(false);
                let _ = stream.set_write_timeout(Some(job_inner.write_timeout));
                let _ = write_response(
                    &mut stream,
                    500,
                    "{\"error\":\"serve worker crashed; request not served\"}",
                    false,
                );
            }
        }
    });
}

/// Queue-saturated service: answer cached queries stale and every
/// non-`POST` as usual, shed the rest. Runs on the reactor thread —
/// every response here is a cache lookup or a `respond` that never
/// solves, plus one bounded write.
fn serve_degraded(inner: &Inner, conn: &mut Conn, reqs: &[Request]) {
    // The reactor's sockets are nonblocking; bound the writes instead of
    // letting a slow reader wedge the reactor.
    let _ = conn.stream.set_nonblocking(false);
    let _ = conn.stream.set_write_timeout(Some(inner.write_timeout));
    let last = reqs.len() - 1;
    for (i, req) in reqs.iter().enumerate() {
        let keep = i < last;
        let wrote = if req.method != "POST" {
            // `/healthz` and `/v1/stats` must stay readable exactly when
            // the daemon is overloaded.
            let (status, body) = respond(inner, req);
            inner.bump(Stat::Requests);
            write_response(&mut conn.stream, status, &body, keep)
        } else if let Some(body) = ApiRequest::parse(&req.path, &req.body)
            .ok()
            .and_then(|api| inner.cache.get(&api.canonical_key()))
        {
            inner.bump(Stat::DegradedServed);
            inner.bump(Stat::Requests);
            write_response_ext(
                &mut conn.stream,
                200,
                &body,
                keep,
                &[("Degraded", "stale".to_owned())],
            )
        } else {
            inner.bump(Stat::Shed);
            write_response_ext(
                &mut conn.stream,
                429,
                "{\"error\":\"queue full, retry later\"}",
                keep,
                &retry_after(),
            )
        };
        if let Err(e) = wrote {
            count_write_timeout(inner, &e);
            return;
        }
    }
    // Degraded service always closes: the connection was headed for a
    // worker and the reactor won't keep absorbing its traffic.
}

/// Attribute a failed response write to the timeout budget when that is
/// what expired (blocking sockets with `SO_SNDTIMEO` report
/// `WouldBlock`/`TimedOut` depending on platform).
fn count_write_timeout(inner: &Inner, e: &io::Error) {
    if matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    ) {
        inner.bump(Stat::WriteTimeouts);
    }
}

/// One pool job: serve a batch of fully-buffered requests on one
/// connection, in arrival order, then recycle or close the connection.
/// Never reads the socket — pipelined successors must already be in
/// `conn.buf` (the reactor's job to gather).
///
/// `batch_started` anchors deadline accounting: a request that declared
/// `X-Deadline-Ms` and whose budget ran out while it sat in the queue
/// (or behind pipelined predecessors) is answered `504` *without
/// solving* — the client already gave up, so the worker's time goes to
/// requests someone is still waiting for.
fn handle_requests(
    inner: &Arc<Inner>,
    mut conn: Conn,
    mut reqs: Vec<Request>,
    batch_started: Instant,
) {
    // Writes are blocking but bounded: a peer that stops reading cannot
    // hold the worker past the write timeout.
    let _ = conn.stream.set_nonblocking(false);
    let _ = conn.stream.set_write_timeout(Some(inner.write_timeout));
    loop {
        for req in reqs.drain(..) {
            let shutting = inner.shutdown.load(Ordering::SeqCst);
            let keep = req.keep_alive && !conn.peer_closed && !shutting;
            let expired = req
                .deadline_ms
                .is_some_and(|d| batch_started.elapsed() >= Duration::from_millis(d));
            let (status, body) = if expired {
                inner.bump(Stat::DeadlineShed);
                (
                    504,
                    "{\"error\":\"deadline expired before solving\"}".to_owned(),
                )
            } else {
                respond(inner, &req)
            };
            inner.bump(Stat::Requests);
            if conn.served > 0 {
                inner.bump(Stat::KeepaliveReuses);
            }
            // Re-check shutdown after the solve: /v1/shutdown must close
            // its own connection.
            let keep = keep && !inner.shutdown.load(Ordering::SeqCst);
            if let Err(e) = write_response(&mut conn.stream, status, &body, keep) {
                count_write_timeout(inner, &e);
                return; // lost client; drop closes the socket
            }
            conn.served += 1;
            if !keep {
                return;
            }
        }
        // Pipelining: serve requests the reactor already buffered without
        // a round trip through the table. Parsing a bounded buffer, never
        // reading, keeps this loop finite.
        match drain_requests(&mut conn.buf, inner.max_pipeline) {
            Ok(more) if !more.is_empty() => reqs = more,
            Ok(_) => break,
            Err(_) => {
                let _ = write_response(
                    &mut conn.stream,
                    400,
                    "{\"error\":\"malformed request\"}",
                    false,
                );
                return;
            }
        }
    }
    // Keep-alive: park the connection back in the reactor. If the
    // reactor is gone (shutdown), the send fails and the drop closes.
    if conn.stream.set_nonblocking(true).is_err() {
        return;
    }
    let back = inner.back_tx.lock().expect("back channel poisoned").clone();
    let _ = back.send(conn);
}

/// Route a request to its response. Pure with respect to the socket, so
/// tests can exercise routing without TCP.
fn respond(inner: &Inner, req: &Request) -> (u16, String) {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => (200, "{\"ok\":true}".to_owned()),
        ("GET", "/v1/stats") => (200, stats_body(inner)),
        ("POST", "/v1/shutdown") => {
            inner.shutdown.store(true, Ordering::SeqCst);
            // Runs on a pool worker: flag the pool too (no join here —
            // this worker finishes writing the response, then exits).
            inner.pool.shutdown();
            (200, "{\"shutting_down\":true}".to_owned())
        }
        ("POST", "/v1/batch") => serve_batch(inner, &req.body),
        ("POST", "/v1/shard/aggregate") => serve_shard_aggregate(inner, &req.body),
        ("POST", "/v1/dist/solve") => serve_dist_solve(inner, &req.body),
        ("POST", "/v1/crash") if inner.chaos.is_some() => {
            // Fault-drill route, live only on chaos-enabled daemons: a
            // panic *outside* per-request isolation, exercising the
            // supervisor in `dispatch` end to end.
            panic!("chaos: requested serve-job crash");
        }
        ("POST", path) => match ApiRequest::parse(path, &req.body) {
            Ok(api) => serve_query(inner, &api),
            Err(e) => (e.status, e.body()),
        },
        (_, path) => {
            let e = crate::api::ApiError {
                status: 405,
                message: format!("use POST for {path}"),
                index: None,
            };
            (e.status, e.body())
        }
    }
}

/// `/v1/batch`: an array of equilibrium/strategy/capacity queries solved
/// in one request. Each sub-query runs the exact single-query path —
/// same response cache, same warm pool — so its `response` bytes are
/// byte-identical to the body the same query gets when issued singly
/// (asserted by `tests/serve_transport.rs`). The batch's win is
/// amortization: one HTTP exchange and one worker dispatch for the whole
/// array, with `SweepCache`/`GameWarmStart` carry flowing uninterrupted
/// from entry to entry the way fig5/fig8 sweep points feed each other.
fn serve_batch(inner: &Inner, body: &str) -> (u16, String) {
    let queries = match crate::api::parse_batch(body) {
        Ok(q) => q,
        Err(e) => return (e.status, e.body()),
    };
    inner.bump(Stat::Batches);
    let mut parts = Vec::with_capacity(queries.len());
    let mut ok = 0usize;
    for q in &queries {
        let (status, sub) = serve_query(inner, q);
        if (200..300).contains(&status) {
            ok += 1;
        }
        // Sub-bodies are JSON; splicing them raw keeps the single-query
        // bytes intact inside the envelope.
        parts.push(format!("{{\"status\":{status},\"response\":{sub}}}"));
    }
    let body = format!(
        "{{\"schema\":\"pubopt-serve/v1\",\"endpoint\":\"batch\",\"count\":{},\"ok\":{ok},\"results\":[{}]}}",
        queries.len(),
        parts.join(",")
    );
    (200, body)
}

/// Resolve the configured shard registry and validate its geometry.
fn resolve_shards(shards: &[String]) -> io::Result<Vec<SocketAddr>> {
    use std::net::ToSocketAddrs;
    if !shards.is_empty() && !pubopt_num::BLOCK_LANES.is_multiple_of(shards.len()) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "shard registry size must divide {} (got {})",
                pubopt_num::BLOCK_LANES,
                shards.len()
            ),
        ));
    }
    let mut out = Vec::with_capacity(shards.len());
    for s in shards {
        let addr = s.to_socket_addrs()?.next().ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("shard {s:?} resolves to nothing"),
            )
        })?;
        out.push(addr);
    }
    Ok(out)
}

/// `/v1/shard/aggregate`: answer a partial-aggregate query over this
/// daemon's deterministic copy of the scenario population. Responses are
/// cached under the query's canonical key, so a coordinator retrying a
/// probe after a network fault replays the first computation's exact
/// bytes. Runs under the same panic isolation (and chaos injector) as
/// single queries — an injected fault costs the probe a retryable `500`,
/// never the daemon.
fn serve_shard_aggregate(inner: &Inner, body: &str) -> (u16, String) {
    let query = match crate::dist::ShardQuery::parse(body) {
        Ok(q) => q,
        Err(e) => return (e.status, e.body()),
    };
    inner.bump(Stat::ShardQueries);
    let key = query.canonical_key();
    if let Some(body) = inner.cache.get(&key) {
        return (200, (*body).clone());
    }
    let seq = inner.seq.fetch_add(1, Ordering::Relaxed);
    let solved = catch_unwind(AssertUnwindSafe(|| {
        if let Some(injector) = &inner.chaos {
            if injector
                .fault_at(ChaosInjector::site("serve.worker"), seq)
                .is_some()
            {
                panic!("chaos: injected worker fault (request {seq})");
            }
        }
        query.handle(&inner.scenarios)
    }));
    match solved {
        Ok(body) => {
            inner.cache.insert(&key, Arc::new(body.clone()));
            (200, body)
        }
        Err(_) => {
            inner.bump(Stat::WorkerPanics);
            (
                500,
                "{\"error\":\"worker panicked; request not served\"}".to_owned(),
            )
        }
    }
}

/// `/v1/dist/solve`: run the water-filling bisection as a coordinator
/// over the shard registry. The solve's every reduction is fetched as
/// block partials and combined in original block order, so the response
/// values are byte-identical to the single-process `solve_maxmin` on the
/// same scenario (`tests/serve_dist.rs`). θ/d slices cross the wire only
/// when the request sets `include_profile`. A shard that stays
/// unreachable past the full retry schedule fails the solve typed: `503`
/// naming the shard, never a made-up number.
fn serve_dist_solve(inner: &Inner, body: &str) -> (u16, String) {
    use crate::dist::{hex_f64, hex_f64s, DistParams, HttpShardSource};
    use pubopt_eq::{AggregateSource, SourceSolveError};
    if inner.shards.is_empty() {
        let e = crate::api::ApiError::bad(
            "this daemon has no shard registry; start it with --shard ADDR per shard",
        );
        return (e.status, e.body());
    }
    let params = match DistParams::parse(body) {
        Ok(p) => p,
        Err(e) => return (e.status, e.body()),
    };
    inner.bump(Stat::DistSolves);
    let mut source = HttpShardSource::new(params.scenario, params.n, &inner.shards);
    if params.include_profile {
        source = source.with_profile();
    }
    let solved = pubopt_eq::solve_maxmin_with_source(
        &mut source,
        params.nu,
        pubopt_num::Tolerance::default(),
    );
    inner.add(Stat::ShardRpcs, source.rpcs());
    match solved {
        Ok((eq, stats)) => {
            // The population length the shards reported (cached by the
            // solve, so this asks nothing).
            let n = source.len().expect("the solve fetched the shards' meta");
            let mut fields = vec![
                ("schema".into(), Value::from("pubopt-serve/v1")),
                ("endpoint".into(), Value::from("dist-solve")),
                ("shards".into(), Value::from(inner.shards.len())),
                ("n".into(), Value::from(n)),
                ("nu".into(), Value::from(params.nu)),
                (
                    "water_level".into(),
                    Value::from(hex_f64(eq.water_level.unwrap_or(f64::INFINITY))),
                ),
                ("aggregate".into(), Value::from(hex_f64(eq.aggregate))),
                ("congested".into(), Value::from(stats.congested)),
                ("lambda_evals".into(), Value::from(stats.lambda_evals)),
                (
                    "bisect_iters".into(),
                    Value::from(u64::from(stats.bisect_iters)),
                ),
                ("shard_rpcs".into(), Value::from(source.rpcs())),
            ];
            if params.include_profile {
                fields.push(("thetas".into(), Value::from(hex_f64s(&eq.thetas))));
                fields.push(("demands".into(), Value::from(hex_f64s(&eq.demands))));
            }
            (200, Value::Object(fields).to_string())
        }
        Err(SourceSolveError::Source(e)) => {
            let body = Value::Object(vec![(
                "error".into(),
                Value::from(format!("distributed solve failed: {e}")),
            )])
            .to_string();
            (503, body)
        }
        Err(SourceSolveError::WaterLevel(e)) => {
            let body = Value::Object(vec![(
                "error".into(),
                Value::from(format!("water-level bisection failed: {e}")),
            )])
            .to_string();
            (500, body)
        }
    }
}

fn serve_query(inner: &Inner, api: &ApiRequest) -> (u16, String) {
    let key = api.canonical_key();
    if let Some(body) = inner.cache.get(&key) {
        return (200, (*body).clone());
    }
    let seq = inner.seq.fetch_add(1, Ordering::Relaxed);
    let solved = catch_unwind(AssertUnwindSafe(|| {
        if let Some(injector) = &inner.chaos {
            // Any scheduled fault becomes a worker panic: the serve layer
            // has no numeric result to corrupt, and panic survival is the
            // property under test.
            if injector
                .fault_at(ChaosInjector::site("serve.worker"), seq)
                .is_some()
            {
                panic!("chaos: injected worker fault (request {seq})");
            }
        }
        api.handle(&inner.scenarios, &inner.warm)
    }));
    match solved {
        Ok(Ok(body)) => {
            if api.endpoint() == "whatif" {
                inner.bump(Stat::WhatifSolves);
            }
            inner.cache.insert(&key, Arc::new(body.clone()));
            (200, body)
        }
        Ok(Err(e)) => (e.status, e.body()),
        Err(_) => {
            inner.bump(Stat::WorkerPanics);
            (
                500,
                "{\"error\":\"worker panicked; request not served\"}".to_owned(),
            )
        }
    }
}

/// `/v1/stats`: the counter table, then the cache counters and gauges.
fn stats_body(inner: &Inner) -> String {
    let cache = inner.cache.stats();
    let mut fields = vec![("schema".into(), Value::from("pubopt-serve/v1"))];
    fields.extend(
        Stat::ALL
            .iter()
            .map(|&s| (s.key().into(), Value::from(inner.stat(s)))),
    );
    fields.extend([
        ("cache_hits".into(), Value::from(cache.hits)),
        ("cache_misses".into(), Value::from(cache.misses)),
        ("cache_evictions".into(), Value::from(cache.evictions)),
        ("cache_entries".into(), Value::from(cache.entries)),
        ("queue_depth".into(), Value::from(inner.pool.queued_jobs())),
        ("workers".into(), Value::from(inner.workers)),
        ("shards_registered".into(), Value::from(inner.shards.len())),
        (
            "scenarios_resident".into(),
            Value::from(inner.scenarios.resident()),
        ),
        (
            "warm_entries".into(),
            Value::from(inner.warm.resident_entries()),
        ),
    ]);
    Value::Object(fields).to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_config() -> ServeConfig {
        ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        }
    }

    #[test]
    fn spawn_serve_shutdown_lifecycle() {
        let server = spawn(&test_config()).unwrap();
        let addr = server.addr();
        let (status, body) = crate::client::get(addr, "/healthz").unwrap();
        assert_eq!((status, body.as_str()), (200, "{\"ok\":true}"));
        let (status, _) = crate::client::post(addr, "/v1/shutdown", "").unwrap();
        assert_eq!(status, 200);
        server.join();
    }

    #[test]
    fn equilibrium_round_trip_and_cache_hit() {
        let server = spawn(&test_config()).unwrap();
        let addr = server.addr();
        let body = r#"{"scenario":"trio","n":3,"nu":2.0}"#;
        let (s1, b1) = crate::client::post(addr, "/v1/equilibrium", body).unwrap();
        let (s2, b2) = crate::client::post(addr, "/v1/equilibrium", body).unwrap();
        assert_eq!((s1, s2), (200, 200));
        assert_eq!(b1, b2, "cache hit must replay the first body");
        let stats = server.cache_stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        server.shutdown();
        server.join();
    }

    #[test]
    fn unknown_routes_and_methods_are_rejected() {
        let server = spawn(&test_config()).unwrap();
        let addr = server.addr();
        assert_eq!(crate::client::post(addr, "/v1/nope", "{}").unwrap().0, 404);
        assert_eq!(crate::client::get(addr, "/v1/equilibrium").unwrap().0, 405);
        assert_eq!(
            crate::client::post(addr, "/v1/equilibrium", "{oops")
                .unwrap()
                .0,
            400
        );
        server.shutdown();
        server.join();
    }
}
