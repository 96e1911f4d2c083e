//! Distributed water-filling end to end: shard daemons + a coordinator
//! daemon over real sockets, asserted byte-identical to the
//! single-process solver — including through injected network partitions.

use pubopt_eq::solve_maxmin_traced;
use pubopt_num::Tolerance;
use pubopt_obs::json::{parse, Value};
use pubopt_serve::chaosnet::{ChaosNetConfig, ChaosProxy};
use pubopt_serve::dist::{hex_f64, hex_f64s, parse_hex_f64s};
use pubopt_serve::{client, spawn, ServeConfig, ServerHandle, Stat};
use pubopt_workload::{Scenario, ScenarioKind};
use std::net::SocketAddr;

fn config() -> ServeConfig {
    ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    }
}

/// Spawn `of` shard daemons plus a coordinator registered over them
/// (shard `i`'s registry entry may be overridden, e.g. with a chaos
/// proxy address).
fn spawn_cluster(
    of: usize,
    override_shard: Option<(usize, SocketAddr)>,
) -> (ServerHandle, Vec<ServerHandle>) {
    let shards: Vec<ServerHandle> = (0..of).map(|_| spawn(&config()).unwrap()).collect();
    let registry: Vec<String> = shards
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let addr = match override_shard {
                Some((j, proxy)) if j == i => proxy,
                _ => s.addr(),
            };
            addr.to_string()
        })
        .collect();
    let coordinator = spawn(&ServeConfig {
        shards: registry,
        ..config()
    })
    .unwrap();
    (coordinator, shards)
}

fn stop(server: ServerHandle) {
    server.shutdown();
    server.join();
}

/// The expected response fields, computed in-process on the identical
/// deterministic scenario.
struct Expected {
    n: usize,
    water_hex: String,
    aggregate_hex: String,
    thetas_hex: String,
    demands_hex: String,
    lambda_evals: u64,
    bisect_iters: u64,
}

fn expected(kind: ScenarioKind, n: usize, nu: f64) -> Expected {
    let pop = Scenario::load_scaled(kind, n).pop;
    let (eq, stats) = solve_maxmin_traced(&pop, nu, Tolerance::default());
    Expected {
        n: pop.len(),
        water_hex: hex_f64(eq.water_level.unwrap_or(f64::INFINITY)),
        aggregate_hex: hex_f64(eq.aggregate),
        thetas_hex: hex_f64s(&eq.thetas),
        demands_hex: hex_f64s(&eq.demands),
        lambda_evals: stats.lambda_evals,
        bisect_iters: u64::from(stats.bisect_iters),
    }
}

fn assert_dist_response_matches(body: &str, want: &Expected, of: usize) {
    let v = parse(body).expect("dist response is JSON");
    let s = |key: &str| {
        v.get(key)
            .and_then(Value::as_str)
            .unwrap_or_else(|| panic!("response missing {key}: {body}"))
            .to_owned()
    };
    assert_eq!(s("water_level"), want.water_hex, "water level bits");
    assert_eq!(s("aggregate"), want.aggregate_hex, "aggregate bits");
    assert_eq!(s("thetas"), want.thetas_hex, "theta profile bits");
    assert_eq!(s("demands"), want.demands_hex, "demand profile bits");
    assert_eq!(
        v.get("lambda_evals").and_then(Value::as_u64),
        Some(want.lambda_evals),
        "effort counter lambda_evals"
    );
    assert_eq!(
        v.get("bisect_iters").and_then(Value::as_u64),
        Some(want.bisect_iters),
        "effort counter bisect_iters"
    );
    assert_eq!(v.get("shards").and_then(Value::as_u64), Some(of as u64));
    assert_eq!(v.get("n").and_then(Value::as_u64), Some(want.n as u64));
}

/// The default answer (no `include_profile`) must carry exactly the
/// profiled answer's scalars, and no θ/d.
fn assert_default_answer_matches(default: &str, profiled: &str) {
    let (d, p) = (parse(default).unwrap(), parse(profiled).unwrap());
    for key in [
        "water_level",
        "aggregate",
        "lambda_evals",
        "bisect_iters",
        "shard_rpcs",
        "n",
    ] {
        assert_eq!(d.get(key), p.get(key), "{key}: {default} vs {profiled}");
    }
    for key in ["thetas", "demands"] {
        assert!(d.get(key).is_none(), "default answer carries {key}");
    }
}

#[test]
fn dist_solve_is_byte_identical_at_2_4_8_shards() {
    // Congested and uncongested regimes both, and a trio asked for more
    // CPs than it has: `n` answers the population length.
    let queries = [
        (ScenarioKind::PaperEnsemble, "paper", 400, 0.25),
        (ScenarioKind::PaperEnsemble, "paper", 400, 1e6),
        (ScenarioKind::Trio, "trio", 1000, 0.8),
    ];
    let wants: Vec<Expected> = queries
        .iter()
        .map(|&(kind, _, n, nu)| expected(kind, n, nu))
        .collect();
    assert_eq!(wants[2].n, 3);
    for of in [2usize, 4, 8] {
        let (coordinator, shards) = spawn_cluster(of, None);
        let mut rpcs = 0;
        for (&(_, name, n, nu), want) in queries.iter().zip(&wants) {
            let mut solve = |extra: &str| {
                let body = format!(r#"{{"scenario":"{name}","n":{n},"nu":{nu}{extra}}}"#);
                let (status, resp) =
                    client::post(coordinator.addr(), "/v1/dist/solve", &body).unwrap();
                assert_eq!(status, 200, "{resp}");
                rpcs += parse(&resp).unwrap()["shard_rpcs"].as_u64().unwrap();
                resp
            };
            let profiled = solve(r#","include_profile":true"#);
            assert_dist_response_matches(&profiled, want, of);
            assert_default_answer_matches(&solve(""), &profiled);
        }
        // With no faults, every RPC the coordinator books is one query
        // some shard books.
        assert!(rpcs > 0, "the coordinator must fan out to its {of} shards");
        assert_eq!(coordinator.stat(Stat::DistSolves), 2 * queries.len() as u64);
        assert_eq!(coordinator.stat(Stat::ShardRpcs), rpcs);
        let asked: u64 = shards.iter().map(|s| s.stat(Stat::ShardQueries)).sum();
        assert_eq!(asked, rpcs, "{of} shards");
        stop(coordinator);
        shards.into_iter().for_each(stop);
    }
}

#[test]
fn dist_solve_survives_a_blackholed_shard_byte_identically() {
    let n = 300;
    let nu = 0.3;
    let want = expected(ScenarioKind::PaperEnsemble, n, nu);
    let of = 2;
    let shards: Vec<ServerHandle> = (0..of).map(|_| spawn(&config()).unwrap()).collect();
    // Shard 0 sits behind a chaos proxy that black-holes and resets a
    // slice of its operations; the coordinator's retry stack must absorb
    // the faults and the retried probes must replay the shard cache's
    // exact bytes.
    let chaos = ChaosNetConfig {
        blackhole_rate: 0.05,
        reset_rate: 0.05,
        blackhole_ms: 50,
        ..ChaosNetConfig::quiet(11)
    };
    let proxy = ChaosProxy::spawn(shards[0].addr(), chaos).unwrap();
    let registry = vec![proxy.addr().to_string(), shards[1].addr().to_string()];
    let coordinator = spawn(&ServeConfig {
        shards: registry,
        ..config()
    })
    .unwrap();

    let body = format!(r#"{{"scenario":"paper","n":{n},"nu":{nu},"include_profile":true}}"#);
    let (status, resp) = client::post(coordinator.addr(), "/v1/dist/solve", &body).unwrap();
    assert_eq!(status, 200, "{resp}");
    assert_dist_response_matches(&resp, &want, of);
    assert!(
        !proxy.fault_log().is_empty(),
        "the drill must actually have injected faults"
    );

    proxy.shutdown();
    stop(coordinator);
    shards.into_iter().for_each(stop);
}

#[test]
fn dist_solve_fails_typed_when_a_shard_stays_dark() {
    // Registry entries nobody listens on: bind ports, then free them.
    let dead = || {
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap().to_string()
    };
    let live = || spawn(&config()).unwrap();
    // Every shard is asked at once; the lowest-index failure is the one
    // reported, whichever answer arrives first.
    for (dark, named) in [(vec![0], 0), (vec![1], 1), (vec![0, 1], 0)] {
        let lives: Vec<ServerHandle> = (0..2)
            .filter(|i| !dark.contains(i))
            .map(|_| live())
            .collect();
        let mut up = lives.iter();
        let registry: Vec<String> = (0..2)
            .map(|i| {
                if dark.contains(&i) {
                    dead()
                } else {
                    up.next().unwrap().addr().to_string()
                }
            })
            .collect();
        let coordinator = spawn(&ServeConfig {
            shards: registry,
            ..config()
        })
        .unwrap();
        let (status, resp) = client::post(
            coordinator.addr(),
            "/v1/dist/solve",
            r#"{"scenario":"paper","n":50,"nu":0.3}"#,
        )
        .unwrap();
        assert_eq!(status, 503, "dark {dark:?}: {resp}");
        assert!(
            resp.contains(&format!("failed: shard {named}: ")),
            "dark {dark:?}: error must name shard {named}: {resp}"
        );
        stop(coordinator);
        lives.into_iter().for_each(stop);
    }
}

#[test]
fn dist_solve_without_registry_is_rejected() {
    let server = spawn(&config()).unwrap();
    let (status, resp) = client::post(
        server.addr(),
        "/v1/dist/solve",
        r#"{"scenario":"paper","n":50,"nu":0.3}"#,
    )
    .unwrap();
    assert_eq!(status, 400, "{resp}");
    assert!(resp.contains("no shard registry"), "{resp}");
    stop(server);
}

#[test]
fn off_lattice_registry_is_rejected_at_spawn() {
    let err = match spawn(&ServeConfig {
        shards: vec![
            "127.0.0.1:1".into(),
            "127.0.0.1:2".into(),
            "127.0.0.1:3".into(),
        ],
        ..config()
    }) {
        Err(e) => e,
        Ok(_) => panic!("3 shards must not spawn"),
    };
    assert!(err.to_string().contains("divide"), "{err}");
}

/// The acceptance-scale drill: a seeded 1M-CP population solved at 2
/// shards, byte-identical to the single process, effort counters
/// included. Ignored in tier-1 (generation plus two daemon copies of a
/// million-CP population is release-profile work); the CI shard-smoke
/// job runs this and the 100k-CP variant below in release with
/// `--include-ignored`.
#[test]
#[ignore = "million-CP scale; run in release CI"]
fn dist_solve_million_cp_byte_identity() {
    let n = 1_000_000;
    let nu = 0.3;
    let want = expected(ScenarioKind::PaperEnsemble, n, nu);
    let (coordinator, shards) = spawn_cluster(2, None);
    let body = format!(r#"{{"scenario":"paper","n":{n},"nu":{nu}}}"#);
    let (status, resp) = client::post(coordinator.addr(), "/v1/dist/solve", &body).unwrap();
    assert_eq!(status, 200, "{resp}");
    let v = parse(&resp).unwrap();
    assert_eq!(
        v.get("water_level").and_then(Value::as_str),
        Some(want.water_hex.as_str())
    );
    assert_eq!(
        v.get("aggregate").and_then(Value::as_str),
        Some(want.aggregate_hex.as_str())
    );
    assert_eq!(
        v.get("lambda_evals").and_then(Value::as_u64),
        Some(want.lambda_evals)
    );
    stop(coordinator);
    shards.into_iter().for_each(stop);
}

/// The CI shard-smoke drill: 100k CPs at 2 and 4 shards against the
/// single-process golden (profile transport is capped at 10k CPs, so
/// the scalar fields and effort counters carry the identity claim).
/// Ignored in tier-1 for the same reason as the million-CP drill (scale
/// belongs in release runs); the shard-smoke CI job runs it with
/// `--include-ignored`.
#[test]
#[ignore = "100k-CP scale; the CI shard-smoke job runs this in release"]
fn dist_solve_100k_byte_identity_at_2_and_4_shards() {
    let n = 100_000;
    let nu = 0.3;
    let want = expected(ScenarioKind::PaperEnsemble, n, nu);
    for of in [2usize, 4] {
        let (coordinator, shards) = spawn_cluster(of, None);
        let body = format!(r#"{{"scenario":"paper","n":{n},"nu":{nu}}}"#);
        let (status, resp) = client::post(coordinator.addr(), "/v1/dist/solve", &body).unwrap();
        assert_eq!(status, 200, "{resp}");
        let v = parse(&resp).unwrap();
        assert_eq!(
            v.get("water_level").and_then(Value::as_str),
            Some(want.water_hex.as_str()),
            "water level bits at {of} shards"
        );
        assert_eq!(
            v.get("aggregate").and_then(Value::as_str),
            Some(want.aggregate_hex.as_str()),
            "aggregate bits at {of} shards"
        );
        assert_eq!(
            v.get("lambda_evals").and_then(Value::as_u64),
            Some(want.lambda_evals)
        );
        assert_eq!(
            v.get("bisect_iters").and_then(Value::as_u64),
            Some(want.bisect_iters)
        );
        assert_eq!(v.get("shards").and_then(Value::as_u64), Some(of as u64));
        stop(coordinator);
        shards.into_iter().for_each(stop);
    }
}

#[test]
fn batch_envelopes_splice_single_bytes_through_a_coordinator() {
    // A daemon configured as a coordinator still answers `/v1/batch`,
    // and the envelope must embed the exact bytes the same daemon gives
    // the queries singly — registering a shard registry must not perturb
    // the ordinary serving path.
    let (coordinator, shards) = spawn_cluster(2, None);
    let addr = coordinator.addr();
    let queries = [
        r#"{"scenario":"trio","n":3,"nu":0.8}"#,
        r#"{"scenario":"paper","n":40,"nu":2.5}"#,
        r#"{"scenario":"trio","n":3,"nu":1.6}"#,
    ];
    let singles: Vec<String> = queries
        .iter()
        .map(|body| {
            let (status, resp) = client::post(addr, "/v1/equilibrium", body).unwrap();
            assert_eq!(status, 200, "{resp}");
            resp
        })
        .collect();
    let subs: Vec<String> = queries
        .iter()
        .map(|body| format!(r#"{{"endpoint":"equilibrium",{}"#, &body[1..]))
        .collect();
    let (status, resp) = client::post(
        addr,
        "/v1/batch",
        &format!(r#"{{"queries":[{}]}}"#, subs.join(",")),
    )
    .unwrap();
    assert_eq!(status, 200, "{resp}");
    let expected = format!(
        "{{\"schema\":\"pubopt-serve/v1\",\"endpoint\":\"batch\",\"count\":3,\"ok\":3,\"results\":[{}]}}",
        singles
            .iter()
            .map(|b| format!("{{\"status\":200,\"response\":{b}}}"))
            .collect::<Vec<_>>()
            .join(",")
    );
    assert_eq!(
        resp, expected,
        "batch through a coordinator must splice the single bodies byte for byte"
    );
    stop(coordinator);
    shards.into_iter().for_each(stop);
}

#[test]
fn retried_shard_probe_replays_cached_bytes() {
    // The determinism-under-retry mechanism, isolated: ask a shard the
    // same probe twice over separate connections; the second answer must
    // be the first's exact bytes (response cache hit), which is what
    // makes a coordinator retry after a partition harmless.
    let shard = spawn(&config()).unwrap();
    let body = format!(
        r#"{{"scenario":"paper","n":200,"shard":1,"of":4,"op":"lambda","w":"{}"}}"#,
        hex_f64(0.31)
    );
    let (s1, first) = client::post(shard.addr(), "/v1/shard/aggregate", &body).unwrap();
    let (s2, second) = client::post(shard.addr(), "/v1/shard/aggregate", &body).unwrap();
    assert_eq!((s1, s2), (200, 200));
    assert_eq!(first, second, "retried probe must replay exact bytes");
    let v = parse(&first).unwrap();
    let partials =
        parse_hex_f64s(v.get("partials").and_then(Value::as_str).unwrap()).expect("partials");
    assert_eq!(partials.len(), 16, "shard 1 of 4 owns 16 of 64 blocks");
    stop(shard);
}
