//! Failure drills end to end: the deterministic chaos proxy in front of
//! a live daemon, the client resilience stack recovering through it, and
//! the server hardening paths (deadline shedding, degraded mode, worker
//! supervision) driven from a real socket.

use pubopt_num::chaos::ChaosConfig;
use pubopt_serve::chaosnet::{scheduled_fault, ChaosNetConfig, ChaosProxy, NetFault};
use pubopt_serve::client::{CircuitBreaker, ResilientClient, RetryBudget, RetryPolicy};
use pubopt_serve::{client, client::Client, spawn, ServeConfig, Stat};
use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};

fn config() -> ServeConfig {
    ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    }
}

fn eq_body(nu: f64) -> String {
    format!(r#"{{"scenario":"trio","n":3,"nu":{nu}}}"#)
}

fn drill_client(addr: std::net::SocketAddr, seed: u64) -> ResilientClient {
    let policy = RetryPolicy {
        max_attempts: 10,
        base_backoff_ms: 1,
        max_backoff_ms: 10,
        seed,
    };
    ResilientClient::new(addr, Duration::from_secs(5), policy)
        .with_budget(RetryBudget::new(64.0, 1.0))
        .with_breaker(CircuitBreaker::new(2, 2))
}

/// Run one fixed single-client drill through a fresh daemon + proxy and
/// return `(fault log, digest, ok count)`.
fn run_drill(seed: u64) -> (Vec<pubopt_serve::FaultEvent>, u64, usize) {
    let server = spawn(&config()).unwrap();
    let proxy = ChaosProxy::spawn(server.addr(), ChaosNetConfig::uniform(seed, 0.5)).unwrap();
    let mut c = drill_client(proxy.addr(), seed);
    let mut ok = 0;
    for i in 0..16 {
        let (status, body) = c
            .post("/v1/equilibrium", &eq_body(1.0 + i as f64 * 0.25))
            .unwrap();
        assert_eq!(status, 200, "{body}");
        ok += 1;
    }
    let log = proxy.fault_log();
    let digest = proxy.schedule_digest();
    proxy.shutdown();
    server.shutdown();
    server.join();
    (log, digest, ok)
}

/// The tentpole determinism contract, end to end: the same seed driven
/// by the same single-client request sequence produces the byte-same
/// fault schedule (and digest) across completely fresh daemon + proxy
/// stacks; a different seed draws a different schedule.
#[test]
fn fault_schedule_replays_across_fresh_stacks() {
    let (log_a, digest_a, ok_a) = run_drill(11);
    let (log_b, digest_b, ok_b) = run_drill(11);
    assert_eq!(log_a, log_b, "same seed must replay the same faults");
    assert_eq!(digest_a, digest_b);
    assert_eq!(ok_a, ok_b);
    assert!(!log_a.is_empty(), "a 50% drill must inject faults");
    let (log_c, digest_c, _) = run_drill(12);
    assert_ne!(digest_a, digest_c, "different seeds must diverge");
    assert_ne!(log_a, log_c);
}

/// The retry-safety satellite: a response reset mid-stream and then
/// retried must hand the caller exactly the bytes an unfaulted client
/// gets — never a truncated splice. The seed is chosen (via the pure
/// schedule function) so connection 0 resets its first response and
/// connection 1 is clean.
#[test]
fn reset_then_retry_returns_byte_identical_body() {
    let cfg_for = |seed: u64| ChaosNetConfig {
        reset_rate: 0.6,
        ..ChaosNetConfig::quiet(seed)
    };
    let seed = (0..10_000)
        .find(|&s| {
            let cfg = cfg_for(s);
            scheduled_fault(&cfg, 0, 0) == Some(NetFault::Reset)
                && scheduled_fault(&cfg, 1, 0).is_none()
        })
        .expect("a reset-then-clean seed exists below 10k");

    let server = spawn(&config()).unwrap();
    // The unfaulted reference bytes (also priming the cache, so both
    // paths replay the same stored response).
    let (status, direct) = client::post(server.addr(), "/v1/equilibrium", &eq_body(2.5)).unwrap();
    assert_eq!(status, 200);

    let proxy = ChaosProxy::spawn(server.addr(), cfg_for(seed)).unwrap();
    let mut c = drill_client(proxy.addr(), seed);
    let (status, body) = c.post("/v1/equilibrium", &eq_body(2.5)).unwrap();
    assert_eq!(status, 200);
    assert_eq!(body, direct, "retried bytes must match the unfaulted path");
    let stats = c.stats();
    assert!(
        stats.retries >= 1,
        "the reset must force a retry: {stats:?}"
    );
    assert_eq!(stats.hard_failures, 0);
    assert_eq!(
        proxy
            .fault_log()
            .iter()
            .filter(|e| e.fault == NetFault::Reset)
            .count(),
        1,
        "exactly the scheduled reset fired: {:?}",
        proxy.fault_log()
    );
    proxy.shutdown();
    server.shutdown();
    server.join();
}

/// Deadline shedding: a request whose `X-Deadline-Ms` has already
/// expired is answered 504 without solving; a sane deadline is served
/// normally.
#[test]
fn expired_deadlines_are_shed_with_504() {
    let server = spawn(&config()).unwrap();
    let mut c = Client::new(server.addr());
    let (status, body) = c
        .post_with_headers(
            "/v1/equilibrium",
            &eq_body(3.0),
            &[("X-Deadline-Ms", "0".to_owned())],
        )
        .unwrap();
    assert_eq!(status, 504, "{body}");
    assert!(body.contains("deadline"), "{body}");
    assert_eq!(server.stat(Stat::DeadlineShed), 1);
    // Nothing was solved or cached for the shed request.
    assert_eq!(server.cache_stats().misses, 0);
    let (status, _) = c
        .post_with_headers(
            "/v1/equilibrium",
            &eq_body(3.0),
            &[("X-Deadline-Ms", "30000".to_owned())],
        )
        .unwrap();
    assert_eq!(status, 200, "a live deadline must be served");
    server.shutdown();
    server.join();
}

/// Degraded mode: with the queue saturated, cached queries are still
/// answered from the reactor (marked `Degraded: stale`) and misses get a
/// `Retry-After` 429 instead of the whole daemon collapsing to errors.
#[test]
fn saturated_queue_serves_cache_hits_degraded() {
    let server = spawn(&ServeConfig {
        workers: 1,
        queue_depth: 1,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.addr();
    // Prime the cache while the daemon is healthy.
    let (status, fresh) = client::post(addr, "/v1/equilibrium", &eq_body(1.0)).unwrap();
    assert_eq!(status, 200);

    // Occupy the single worker with one long pipelined job (8 uncached
    // strategy sweeps), then park a second job in the queue. While the
    // first runs, backlog >= queue_depth and dispatch degrades.
    let slow_reqs: String = (0..8)
        .map(|i| {
            let body = format!(
                r#"{{"scenario":"paper","n":2000,"nu":{},"kappa":0.5,"c_max":1.0,"c_steps":10}}"#,
                40.0 + i as f64
            );
            format!(
                "POST /v1/strategy HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            )
        })
        .collect();
    let mut busy = TcpStream::connect(addr).unwrap();
    busy.write_all(slow_reqs.as_bytes()).unwrap();
    std::thread::sleep(Duration::from_millis(100));
    let mut parked = TcpStream::connect(addr).unwrap();
    let queued_body = eq_body(7.7);
    parked
        .write_all(
            format!(
                "POST /v1/equilibrium HTTP/1.1\r\nContent-Length: {}\r\n\r\n{queued_body}",
                queued_body.len()
            )
            .as_bytes(),
        )
        .unwrap();

    // Probe until the degraded window opens (the queued job must land
    // first; the reactor sweeps every poll interval).
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut hit = None;
    while Instant::now() < deadline {
        let mut probe = Client::new(addr);
        if let Ok((status, body)) = probe.post("/v1/equilibrium", &eq_body(1.0)) {
            if probe.last_degraded() {
                hit = Some((status, body));
                break;
            }
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    let (status, body) = hit.expect("degraded window never opened");
    assert_eq!(status, 200);
    assert_eq!(body, fresh, "degraded hits must replay the cached bytes");
    assert!(server.stat(Stat::DegradedServed) >= 1);

    // Health and stats reads never solve, so an overloaded daemon still
    // answers them. A degraded hit sent right after them confirms they
    // were sent inside the window.
    let mut reader = Client::new(addr);
    let (status, health) = reader.get("/healthz").unwrap();
    assert_eq!(status, 200, "/healthz shed while degraded: {health}");
    let (status, stats) = reader.get("/v1/stats").unwrap();
    assert_eq!(status, 200, "/v1/stats shed while degraded: {stats}");
    let v = pubopt_obs::json::parse(&stats).unwrap();
    assert!(v["degraded_served"].as_u64() >= Some(1), "{stats}");
    let mut confirm = Client::new(addr);
    let (status, _) = confirm.post("/v1/equilibrium", &eq_body(1.0)).unwrap();
    assert_eq!(status, 200);
    assert!(
        confirm.last_degraded(),
        "the degraded window closed before the reads were checked"
    );

    // A miss in the same window cannot be solved: 429 plus Retry-After.
    let mut miss = Client::new(addr);
    let (status, _) = miss.post("/v1/equilibrium", &eq_body(9.9)).unwrap();
    if status == 429 {
        assert_eq!(
            miss.last_retry_after(),
            Some(1),
            "a degraded-mode shed must hint Retry-After"
        );
    } else {
        // The slow job finished between probes; the miss was solved.
        assert_eq!(status, 200);
    }

    drop(busy);
    drop(parked);
    server.shutdown();
    server.join();
}

/// Worker supervision: a panic that escapes per-request isolation (the
/// `/v1/crash` drill route) is caught by the job supervisor, counted as
/// a respawn, answered with a last-gasp 500, and the daemon keeps
/// serving.
#[test]
fn crashed_worker_is_respawned_and_counted() {
    let server = spawn(&ServeConfig {
        workers: 1,
        chaos: Some(ChaosConfig::quiet(7)), // enables the drill route
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.addr();
    let (status, body) = client::post(addr, "/v1/crash", "").unwrap();
    assert_eq!(status, 500, "{body}");
    assert!(body.contains("crashed"), "{body}");
    assert_eq!(server.stat(Stat::WorkerRespawns), 1);
    // The daemon survives and the (sole) worker keeps serving.
    let (status, _) = client::post(addr, "/v1/equilibrium", &eq_body(1.5)).unwrap();
    assert_eq!(status, 200, "daemon must keep serving after a crash");
    let (status, stats) = client::get(addr, "/v1/stats").unwrap();
    assert_eq!(status, 200);
    let v = pubopt_obs::json::parse(&stats).unwrap();
    assert_eq!(v["worker_respawns"].as_u64(), Some(1), "{stats}");
    server.shutdown();
    server.join();
}

/// Without a chaos config the drill route does not exist.
#[test]
fn crash_route_is_absent_without_chaos() {
    let server = spawn(&config()).unwrap();
    let (status, _) = client::post(server.addr(), "/v1/crash", "").unwrap();
    assert_eq!(status, 404);
    assert_eq!(server.stat(Stat::WorkerRespawns), 0);
    server.shutdown();
    server.join();
}
