//! Transport-layer tests for the event-driven front end: keep-alive
//! reuse, pipelining order, slow-loris and idle timeouts, half-closed
//! clients, and `/v1/batch` byte-identity with single queries.

use pubopt_obs::json::parse;
use pubopt_serve::{client, client::Client, spawn, ServeConfig, Stat};
use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
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

/// Wait for a counter to reach `want` (reactor counters lag the client's
/// view of a closed socket by up to one poll sweep).
fn wait_for(mut counter: impl FnMut() -> u64, want: u64) -> u64 {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let got = counter();
        if got >= want || Instant::now() > deadline {
            return got;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// One persistent connection serves many requests; the daemon counts the
/// reuses and answers exactly what fresh connections answer.
#[test]
fn keep_alive_reuses_one_connection() {
    let server = spawn(&config()).unwrap();
    let addr = server.addr();
    let mut c = Client::new(addr);
    let mut bodies = Vec::new();
    for i in 0..6 {
        let (status, body) = c
            .post("/v1/equilibrium", &eq_body(1.0 + i as f64 * 0.5))
            .unwrap();
        assert_eq!(status, 200, "{body}");
        bodies.push(body);
    }
    assert!(
        server.stat(Stat::KeepaliveReuses) >= 5,
        "6 requests on one connection must register reuses, got {}",
        server.stat(Stat::KeepaliveReuses)
    );
    // Byte-identity with the one-shot (Connection: close) client.
    for (i, expect) in bodies.iter().enumerate() {
        let (status, body) =
            client::post(addr, "/v1/equilibrium", &eq_body(1.0 + i as f64 * 0.5)).unwrap();
        assert_eq!(status, 200);
        assert_eq!(&body, expect, "keep-alive must not change response bytes");
    }
    server.shutdown();
    server.join();
}

/// Pipelined requests come back in request order, each response matching
/// the query it answers (distinct ν makes responses distinguishable).
#[test]
fn pipelined_responses_preserve_request_order() {
    let server = spawn(&config()).unwrap();
    let addr = server.addr();
    let nus: Vec<f64> = (0..8).map(|i| 0.75 + 0.4 * i as f64).collect();
    let reqs: Vec<(String, String)> = nus
        .iter()
        .map(|&nu| ("/v1/equilibrium".to_owned(), eq_body(nu)))
        .collect();
    let mut c = Client::new(addr);
    let responses = c.pipeline(&reqs).unwrap();
    assert_eq!(responses.len(), nus.len());
    for (i, ((status, body), &nu)) in responses.iter().zip(&nus).enumerate() {
        assert_eq!(*status, 200, "pipelined response {i}: {body}");
        let v = parse(body).unwrap();
        assert_eq!(
            v["nu"].as_f64(),
            Some(nu),
            "response {i} must answer the {i}-th pipelined request"
        );
    }
    server.shutdown();
    server.join();
}

/// A slow-loris client (trickling header bytes forever) is cut off by
/// the read timeout without ever reaching a worker; the daemon keeps
/// serving everyone else meanwhile.
#[test]
fn slow_loris_is_timed_out_without_occupying_a_worker() {
    let server = spawn(&ServeConfig {
        workers: 1,
        read_timeout_ms: 200,
        ..config()
    })
    .unwrap();
    let addr = server.addr();
    let mut loris = TcpStream::connect(addr).unwrap();
    let head = b"POST /v1/equilibrium HTTP/1.1\r\nContent-Length: 20\r\n";
    loris.write_all(&head[..10]).unwrap();
    // Trickle: one byte per 50ms never completes the request before the
    // 200ms budget from the first byte runs out.
    for chunk in head[10..].chunks(1).take(10) {
        std::thread::sleep(Duration::from_millis(50));
        if loris.write_all(chunk).is_err() {
            break; // daemon already cut us off
        }
        // The single worker stays available the whole time.
        let (status, _) = client::get(addr, "/healthz").unwrap();
        assert_eq!(status, 200, "daemon must serve others during the trickle");
    }
    assert!(
        wait_for(|| server.stat(Stat::ConnectionTimeouts), 1) >= 1,
        "trickled request must trip the read timeout"
    );
    // The loris connection is dead: reads drain the 408 (if it beat the
    // close) and then hit EOF or a reset.
    loris
        .set_read_timeout(Some(Duration::from_secs(2)))
        .unwrap();
    let mut sink = String::new();
    let _ = loris.read_to_string(&mut sink);
    if !sink.is_empty() {
        assert!(sink.starts_with("HTTP/1.1 408"), "unexpected reply: {sink}");
    }
    server.shutdown();
    server.join();
}

/// A client that sends a complete request and immediately shuts down its
/// write side still gets its response (EOF with a buffered request is a
/// dispatch, not a close), and the connection is not kept alive after.
#[test]
fn half_closed_client_still_gets_its_response() {
    let server = spawn(&config()).unwrap();
    let addr = server.addr();
    let mut s = TcpStream::connect(addr).unwrap();
    let body = eq_body(2.0);
    let req = format!(
        "POST /v1/equilibrium HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    s.write_all(req.as_bytes()).unwrap();
    s.shutdown(Shutdown::Write).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut raw = String::new();
    s.read_to_string(&mut raw).unwrap();
    assert!(
        raw.starts_with("HTTP/1.1 200"),
        "half-closed client must still be answered: {raw:?}"
    );
    assert!(
        raw.contains("Connection: close"),
        "a half-closed connection cannot be kept alive: {raw:?}"
    );
    server.shutdown();
    server.join();
}

/// An idle keep-alive connection is closed by the idle timeout; the
/// keep-alive client reconnects transparently on its next request.
#[test]
fn idle_connections_expire_and_clients_reconnect() {
    let server = spawn(&ServeConfig {
        idle_timeout_ms: 150,
        ..config()
    })
    .unwrap();
    let addr = server.addr();
    let mut c = Client::new(addr);
    let (status, _) = c.get("/healthz").unwrap();
    assert_eq!(status, 200);
    let before = server.stat(Stat::ConnectionTimeouts);
    assert!(
        wait_for(|| server.stat(Stat::ConnectionTimeouts), before + 1) > before,
        "parked idle connection must expire"
    );
    // The daemon closed our connection; the client must recover.
    let (status, _) = c.get("/healthz").unwrap();
    assert_eq!(status, 200, "client must reconnect after an idle close");
    server.shutdown();
    server.join();
}

/// The acceptance contract for `/v1/batch`: a cold daemon's batch
/// response embeds, byte for byte, the responses a cold daemon gives the
/// same queries issued singly.
#[test]
fn batch_responses_are_byte_identical_to_singles() {
    let queries = [
        (
            "/v1/equilibrium",
            r#"{"endpoint":"equilibrium","scenario":"trio","n":3,"nu":1.75}"#,
        ),
        (
            "/v1/equilibrium",
            r#"{"endpoint":"equilibrium","scenario":"paper","n":60,"nu":3.0}"#,
        ),
        (
            "/v1/strategy",
            r#"{"endpoint":"strategy","scenario":"trio","n":3,"nu":1.0,"kappa":1.0,"cs":[0.0,0.25,0.5]}"#,
        ),
        (
            "/v1/capacity",
            r#"{"endpoint":"capacity","scenario":"trio","n":3,"nu":1.0,"target_fraction":0.8}"#,
        ),
    ];
    // Singles on one cold daemon. The stray "endpoint" key is ignored by
    // the single-query parser, so the bodies can be reused verbatim.
    let singles = spawn(&config()).unwrap();
    let mut single_bodies = Vec::new();
    for (path, body) in &queries {
        let (status, resp) = client::post(singles.addr(), path, body).unwrap();
        assert_eq!(status, 200, "{resp}");
        single_bodies.push(resp);
    }
    singles.shutdown();
    singles.join();

    // The same queries batched on a second cold daemon.
    let batch_server = spawn(&config()).unwrap();
    let batch_body = format!(
        r#"{{"queries":[{}]}}"#,
        queries
            .iter()
            .map(|(_, b)| (*b).to_owned())
            .collect::<Vec<_>>()
            .join(",")
    );
    let (status, resp) = client::post(batch_server.addr(), "/v1/batch", &batch_body).unwrap();
    assert_eq!(status, 200, "{resp}");
    let expected = format!(
        "{{\"schema\":\"pubopt-serve/v1\",\"endpoint\":\"batch\",\"count\":4,\"ok\":4,\"results\":[{}]}}",
        single_bodies
            .iter()
            .map(|b| format!("{{\"status\":200,\"response\":{b}}}"))
            .collect::<Vec<_>>()
            .join(",")
    );
    assert_eq!(
        resp, expected,
        "batch must splice the exact single-query bytes"
    );

    // And the batch primed the same cache entries the singles would have:
    // a follow-up single query replays the batch's bytes as a hit.
    let (status, resp) =
        client::post(batch_server.addr(), "/v1/equilibrium", queries[0].1).unwrap();
    assert_eq!(status, 200);
    assert_eq!(resp, single_bodies[0]);
    assert!(batch_server.cache_stats().hits >= 1);
    batch_server.shutdown();
    batch_server.join();
}

/// The batch bound is exact: 64 sub-queries is a full valid envelope,
/// 65 is rejected before anything executes, and an empty array is not
/// a batch.
#[test]
fn batch_boundary_sizes_hold_exactly() {
    let server = spawn(&config()).unwrap();
    let addr = server.addr();
    let sub = r#"{"endpoint":"equilibrium","scenario":"trio","n":3,"nu":1.0}"#;
    let envelope = |count: usize| format!(r#"{{"queries":[{}]}}"#, vec![sub; count].join(","));

    // Exactly MAX_BATCH succeeds, with one result per sub-query.
    let (status, resp) = client::post(addr, "/v1/batch", &envelope(64)).unwrap();
    assert_eq!(status, 200, "a 64-query batch is legal: {resp}");
    let v = parse(&resp).unwrap();
    assert_eq!(v["count"].as_u64(), Some(64), "{resp}");
    assert_eq!(v["ok"].as_u64(), Some(64), "{resp}");
    assert_eq!(
        v["results"].as_array().map(|r| r.len()),
        Some(64),
        "one result per sub-query: {resp}"
    );
    let solved_after_64 = server.cache_stats().misses;

    // One past the bound is an envelope-level rejection: the error names
    // both the bound and the offending count, carries no sub-query index
    // (no single query is at fault), and executes nothing.
    let (status, resp) = client::post(addr, "/v1/batch", &envelope(65)).unwrap();
    assert_eq!(status, 400, "{resp}");
    let v = parse(&resp).unwrap();
    let err = v["error"].as_str().unwrap_or_default();
    assert!(
        err.contains("64") && err.contains("65"),
        "the bound and the count must be named: {resp}"
    );
    assert!(v.get("index").is_none(), "envelope error, no index: {resp}");

    // An empty array is rejected the same way.
    let (status, resp) = client::post(addr, "/v1/batch", &envelope(0)).unwrap();
    assert_eq!(status, 400, "{resp}");

    assert_eq!(
        server.cache_stats().misses,
        solved_after_64,
        "rejected envelopes must not reach the solver"
    );
    server.shutdown();
    server.join();
}

/// Batch validation is all-or-nothing and bounded.
#[test]
fn batch_validation_rejects_bad_payloads() {
    let server = spawn(&config()).unwrap();
    let addr = server.addr();
    let cases = [
        r#"{"no_queries":true}"#.to_owned(),
        r#"{"queries":[]}"#.to_owned(),
        r#"{"queries":[{"scenario":"trio","n":3,"nu":1.0}]}"#.to_owned(), // no endpoint
        r#"{"queries":[{"endpoint":"mystery","nu":1.0}]}"#.to_owned(),
        // One bad sub-query poisons the whole batch.
        r#"{"queries":[{"endpoint":"equilibrium","scenario":"trio","n":3,"nu":1.0},{"endpoint":"equilibrium","nu":-1.0}]}"#
            .to_owned(),
        format!(
            r#"{{"queries":[{}]}}"#,
            vec![r#"{"endpoint":"equilibrium","scenario":"trio","n":3,"nu":1.0}"#; 65].join(",")
        ),
    ];
    for body in &cases {
        let (status, resp) = client::post(addr, "/v1/batch", body).unwrap();
        assert_eq!(
            status,
            400,
            "{} must be rejected, got {resp}",
            &body[..60.min(body.len())]
        );
    }
    // Nothing executed: the poisoned batch's valid head is not cached.
    assert_eq!(server.cache_stats().misses, 0);

    // Validation errors name the failing sub-query: the poisoned batch
    // above (valid head, bad second entry) pins index 1, a missing
    // endpoint pins index 0, and envelope-level errors carry no index.
    let (status, resp) = client::post(addr, "/v1/batch", &cases[4]).unwrap();
    assert_eq!(status, 400);
    let v = parse(&resp).unwrap();
    assert_eq!(v["index"].as_u64(), Some(1), "bad sub-query index: {resp}");
    assert!(
        v["error"]
            .as_str()
            .is_some_and(|e| e.starts_with("queries[1]:")),
        "error must name the sub-query: {resp}"
    );
    let (_, resp) = client::post(addr, "/v1/batch", &cases[2]).unwrap();
    let v = parse(&resp).unwrap();
    assert_eq!(v["index"].as_u64(), Some(0), "missing endpoint: {resp}");
    let (_, resp) = client::post(addr, "/v1/batch", &cases[0]).unwrap();
    let v = parse(&resp).unwrap();
    assert!(
        v.get("index").is_none(),
        "envelope errors have no sub-query index: {resp}"
    );
    server.shutdown();
    server.join();
}
