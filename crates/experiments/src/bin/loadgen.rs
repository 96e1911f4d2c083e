//! Seeded load generator for the `pubopt-serve` daemon.
//!
//! ```text
//! cargo run --release -p pubopt-experiments --bin loadgen -- \
//!     [--addr HOST:PORT | --spawn] [--requests N] [--clients N] \
//!     [--seed N] [--pool N] [--scenario-n N] [--whatif RATIO] \
//!     [--chaos SEED] [--shutdown] \
//!     [--keep-alive] [--pipeline N] [--batch N] [--rate RPS] \
//!     [--ab-connections]
//! ```
//!
//! Replays the deterministic mixed workload of
//! [`pubopt_experiments::serveload`] and prints a one-line JSON summary
//! to stdout — the CI smoke job greps it for `"failed":0` and a nonzero
//! `"cache_hits"`. Exits nonzero if any request failed. With `--spawn`
//! the daemon runs in-process (no external setup needed); `--chaos SEED`
//! then injects deterministic worker panics to exercise the isolation
//! path. `--shutdown` sends `POST /v1/shutdown` to an external daemon
//! after the run, so a CI script can tear down cleanly without a second
//! client.
//!
//! Transport flags: `--keep-alive` reuses one connection per client
//! thread instead of one per request; `--pipeline N` writes bursts of N
//! requests before reading responses (implies keep-alive); `--batch N`
//! wraps every N consecutive requests into one `/v1/batch` envelope;
//! `--rate RPS` paces arrivals open-loop at RPS across all clients, with
//! latency percentiles measured from each request's *scheduled* start so
//! overload shows up as queueing delay rather than being hidden by
//! coordinated omission. The summary prints two percentile families:
//! `p50_us`/`p95_us`/`p99_us` over **all** responses (shed `429`s,
//! deadline `504`s, transport errors included — the fast sheds read
//! optimistically low under overload) and `goodput_p50_us`/… over
//! `2xx` responses only (achieved goodput). CI gates read neither:
//! the smoke job greps `"failed":0`, and the connection A/B gates on
//! the `speedup` throughput ratio.
//!
//! `--whatif RATIO` carves that fraction of the pool into `/v1/whatif`
//! co-simulation queries (equilibrium + event-driven AIMD replay) and
//! adds a `"classes"` array to the summary with the goodput percentiles
//! split per endpoint class, so the heavy simulation tail is visible
//! next to the cheap cached lookups instead of averaged into them.
//!
//! `--ab-connections` runs the keep-alive A/B instead of a single
//! replay: the same workload once with fresh connections and once with
//! keep-alive, printing `{"close_rps":…,"reuse_rps":…,"speedup":…,…}` —
//! the CI serve-smoke job gates on `speedup >= 1.5` on multi-core
//! runners.
//!
//! `--chaos-net SEED` runs the hostile-network soak instead: a private
//! daemon behind a deterministic TCP chaos proxy keyed by SEED, driven
//! by resilient clients (seeded backoff, retry budget, circuit
//! breakers) at `--fault-rate F` (default 0.1). Prints the availability
//! / goodput / breaker summary plus a timing-free `determinism_key` —
//! two same-seed single-client runs print the same key, which is the CI
//! chaos-soak replay gate. Exits nonzero on any hard failure or a
//! byte-identity miss.
//!
//! A flag the chosen mode would ignore is refused before anything runs:
//! `--fault-rate` and `--deadline-ms` need `--chaos-net`; the soak takes
//! none of the target, transport, `--whatif` or `--shutdown` flags; and
//! `--ab-connections` sets its own connection modes and sends no
//! shutdown.

use pubopt_experiments::serveload::{
    chaos_soak, mixed_workload, replay_classified, replay_with, ChaosSoakOptions, ConnMode,
    LoadOptions, ReplayOptions,
};
use pubopt_serve::{client, spawn, ServeConfig};
use std::net::SocketAddr;
use std::process::ExitCode;
use std::str::FromStr;

fn parse_flag<T: FromStr>(name: &str, value: Option<String>) -> Result<T, String> {
    value
        .ok_or_else(|| format!("{name} requires a value"))?
        .parse()
        .map_err(|_| format!("{name}: invalid value"))
}

fn main() -> ExitCode {
    let mut opts = LoadOptions::default();
    let mut addr: Option<SocketAddr> = None;
    let mut do_spawn = false;
    let mut chaos_seed: Option<u64> = None;
    let mut shutdown_after = false;
    let mut keep_alive = false;
    let mut pipeline = 1usize;
    let mut batch: Option<usize> = None;
    let mut rate: Option<f64> = None;
    let mut ab_connections = false;
    let mut chaos_net: Option<u64> = None;
    let mut fault_rate: Option<f64> = None;
    let mut deadline_ms: Option<u64> = None;

    let mut args = std::env::args().skip(1);
    let parsed = (|| -> Result<(), String> {
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--addr" => addr = Some(parse_flag("--addr", args.next())?),
                "--spawn" => do_spawn = true,
                "--requests" => opts.requests = parse_flag("--requests", args.next())?,
                "--clients" => opts.clients = parse_flag("--clients", args.next())?,
                "--seed" => opts.seed = parse_flag("--seed", args.next())?,
                "--pool" => opts.pool = parse_flag("--pool", args.next())?,
                "--scenario-n" => opts.scenario_n = parse_flag("--scenario-n", args.next())?,
                "--whatif" => opts.whatif_ratio = parse_flag("--whatif", args.next())?,
                "--chaos" => chaos_seed = Some(parse_flag("--chaos", args.next())?),
                "--shutdown" => shutdown_after = true,
                "--keep-alive" => keep_alive = true,
                "--pipeline" => pipeline = parse_flag("--pipeline", args.next())?,
                "--batch" => batch = Some(parse_flag("--batch", args.next())?),
                "--rate" => rate = Some(parse_flag("--rate", args.next())?),
                "--ab-connections" => ab_connections = true,
                "--chaos-net" => chaos_net = Some(parse_flag("--chaos-net", args.next())?),
                "--fault-rate" => fault_rate = Some(parse_flag("--fault-rate", args.next())?),
                "--deadline-ms" => deadline_ms = Some(parse_flag("--deadline-ms", args.next())?),
                "--help" | "-h" => {
                    println!(
                        "usage: loadgen [--addr HOST:PORT | --spawn] [--requests N] \
                         [--clients N] [--seed N] [--pool N] [--scenario-n N] \
                         [--whatif RATIO] [--chaos SEED] [--shutdown] [--keep-alive] \
                         [--pipeline N] [--batch N] [--rate RPS] [--ab-connections] \
                         [--chaos-net SEED] [--fault-rate F] [--deadline-ms MS]"
                    );
                    std::process::exit(0);
                }
                other => return Err(format!("unknown argument: {other} (try --help)")),
            }
        }
        Ok(())
    })();
    if let Err(e) = parsed {
        eprintln!("{e}");
        return ExitCode::FAILURE;
    }
    if addr.is_some() && do_spawn {
        eprintln!("--addr and --spawn are mutually exclusive");
        return ExitCode::FAILURE;
    }
    if chaos_seed.is_some() && addr.is_some() {
        eprintln!("--chaos only applies to a --spawn daemon");
        return ExitCode::FAILURE;
    }
    if pipeline == 0 || batch == Some(0) {
        eprintln!("--pipeline and --batch must be positive");
        return ExitCode::FAILURE;
    }
    if pipeline > 1 && batch.is_some() {
        eprintln!("--pipeline and --batch are mutually exclusive");
        return ExitCode::FAILURE;
    }
    if !(0.0..=1.0).contains(&opts.whatif_ratio) {
        eprintln!("--whatif must be in [0, 1]");
        return ExitCode::FAILURE;
    }
    // Each mode reads only some flags; one it would silently ignore is
    // an error, not a no-op.
    let given = [
        ("--addr", addr.is_some()),
        ("--spawn", do_spawn),
        ("--chaos", chaos_seed.is_some()),
        ("--ab-connections", ab_connections),
        ("--shutdown", shutdown_after),
        ("--keep-alive", keep_alive),
        ("--pipeline", pipeline > 1),
        ("--batch", batch.is_some()),
        ("--rate", rate.is_some()),
        ("--whatif", opts.whatif_ratio > 0.0),
        ("--fault-rate", fault_rate.is_some()),
        ("--deadline-ms", deadline_ms.is_some()),
    ];
    let (mode, ignored): (&str, &[&str]) = if chaos_net.is_some() {
        // The soak owns its daemon, proxy and transport discipline: only
        // the workload shape, the fault rate and the deadline reach it.
        (
            "under --chaos-net",
            &[
                "--addr",
                "--spawn",
                "--chaos",
                "--ab-connections",
                "--shutdown",
                "--keep-alive",
                "--pipeline",
                "--batch",
                "--rate",
                "--whatif",
            ],
        )
    } else if ab_connections {
        // The A/B picks each arm's connection mode itself and returns
        // before any shutdown would be sent.
        (
            "under --ab-connections",
            &[
                "--shutdown",
                "--keep-alive",
                "--pipeline",
                "--fault-rate",
                "--deadline-ms",
            ],
        )
    } else {
        ("without --chaos-net", &["--fault-rate", "--deadline-ms"])
    };
    if let Some((flag, _)) = given
        .iter()
        .find(|(flag, on)| *on && ignored.contains(flag))
    {
        eprintln!("{flag} has no effect {mode}");
        return ExitCode::FAILURE;
    }
    if let Some(seed) = chaos_net {
        let fault_rate = fault_rate.unwrap_or(0.1);
        if !(0.0..=1.0).contains(&fault_rate) {
            eprintln!("--fault-rate must be in [0, 1]");
            return ExitCode::FAILURE;
        }
        let soak_opts = ChaosSoakOptions {
            requests: opts.requests,
            clients: opts.clients,
            seed,
            fault_rate,
            pool: opts.pool,
            scenario_n: opts.scenario_n,
            deadline_ms,
        };
        eprintln!(
            "chaos soak: {} requests through a seed-{seed} proxy at {fault_rate} fault rate \
             with {} resilient clients",
            soak_opts.requests, soak_opts.clients
        );
        let soak = chaos_soak(&soak_opts);
        println!(
            "{{\"requests\":{},\"ok\":{},\"hard_failures\":{},\"availability\":{:.4},\
             \"goodput_rps\":{:.1},\"p50_us\":{},\"p99_us\":{},\
             \"goodput_p50_us\":{},\"goodput_p99_us\":{},\"attempts\":{},\"retries\":{},\
             \"first_try_ok\":{},\"budget_exhausted\":{},\"faults_injected\":{},\"refusals\":{},\
             \"breaker_opens\":{},\"breaker_half_opens\":{},\"breaker_closes\":{},\
             \"breaker_short_circuits\":{},\"retry_after_honored\":{},\"degraded_responses\":{},\
             \"deadline_shed\":{},\"degraded_served\":{},\"worker_respawns\":{},\
             \"byte_identical\":{},\"schedule_digest\":\"{:016x}\",\"determinism_key\":\"{}\"}}",
            soak.requests,
            soak.ok,
            soak.hard_failures,
            soak.availability,
            soak.goodput_rps,
            soak.p50_us,
            soak.p99_us,
            soak.goodput_p50_us,
            soak.goodput_p99_us,
            soak.attempts,
            soak.retries,
            soak.first_try_ok,
            soak.budget_exhausted,
            soak.faults_injected,
            soak.refusals,
            soak.breaker_opens,
            soak.breaker_half_opens,
            soak.breaker_closes,
            soak.breaker_short_circuits,
            soak.retry_after_honored,
            soak.degraded_responses,
            soak.deadline_shed,
            soak.degraded_served,
            soak.worker_respawns,
            soak.byte_identical,
            soak.schedule_digest,
            soak.determinism_key()
        );
        if soak.hard_failures > 0 {
            eprintln!("{} hard failure(s) under fault", soak.hard_failures);
            return ExitCode::FAILURE;
        }
        if !soak.byte_identical {
            eprintln!("fault-surviving responses diverged from the unfaulted bytes");
            return ExitCode::FAILURE;
        }
        return ExitCode::SUCCESS;
    }

    // Target: an external daemon, or a private in-process one.
    let server = if addr.is_none() {
        let config = ServeConfig {
            chaos: chaos_seed.map(|seed| pubopt_num::chaos::ChaosConfig {
                panic_rate: 0.05,
                ..pubopt_num::chaos::ChaosConfig::quiet(seed)
            }),
            ..ServeConfig::default()
        };
        match spawn(&config) {
            Ok(handle) => Some(handle),
            Err(e) => {
                eprintln!("cannot spawn daemon: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        None
    };
    let target = addr.unwrap_or_else(|| server.as_ref().expect("spawned").addr());
    let workload = mixed_workload(&opts);

    if ab_connections {
        // Prewarm: solve the pool once so both arms measure transport,
        // not first-touch solver cost.
        let distinct = mixed_workload(&LoadOptions {
            requests: opts.pool,
            ..opts.clone()
        });
        let prewarm = replay_with(
            target,
            &distinct,
            &ReplayOptions {
                clients: opts.clients,
                ..ReplayOptions::default()
            },
        );
        if prewarm.failed() > 0 {
            eprintln!("prewarm failed: {prewarm:?}");
            return ExitCode::FAILURE;
        }
        let run = |mode: ConnMode| {
            replay_with(
                target,
                &workload,
                &ReplayOptions {
                    clients: opts.clients,
                    mode,
                    pipeline: 1,
                    rate_rps: rate,
                    batch,
                },
            )
        };
        let close = run(ConnMode::Close);
        let reuse = run(ConnMode::Reuse);
        let speedup = reuse.throughput_rps / close.throughput_rps.max(f64::MIN_POSITIVE);
        println!(
            "{{\"requests\":{},\"close_rps\":{:.1},\"reuse_rps\":{:.1},\"speedup\":{:.3},\
             \"close_failed\":{},\"reuse_failed\":{},\"close_p50_us\":{},\"reuse_p50_us\":{}}}",
            workload.len(),
            close.throughput_rps,
            reuse.throughput_rps,
            speedup,
            close.failed(),
            reuse.failed(),
            close.p50_us,
            reuse.p50_us
        );
        if let Some(handle) = server {
            handle.shutdown();
            handle.join();
        }
        if close.failed() + reuse.failed() > 0 {
            eprintln!("A/B had failed requests");
            return ExitCode::FAILURE;
        }
        return ExitCode::SUCCESS;
    }

    let mode = if keep_alive || pipeline > 1 {
        ConnMode::Reuse
    } else {
        ConnMode::Close
    };
    eprintln!(
        "replaying {} requests ({} distinct, seed {}) against {target} with {} clients \
         (mode {mode:?}, pipeline {pipeline}, batch {batch:?}, rate {rate:?})",
        opts.requests, opts.pool, opts.seed, opts.clients
    );
    let (summary, classes) = replay_classified(
        target,
        &workload,
        &ReplayOptions {
            clients: opts.clients,
            mode,
            pipeline,
            rate_rps: rate,
            batch,
        },
    );

    // Daemon counters from its own /v1/stats, read before any shutdown.
    let stats = match client::get(target, "/v1/stats") {
        Ok((200, body)) => pubopt_obs::json::parse(&body).ok(),
        _ => None,
    };
    if stats.is_none() {
        eprintln!("warning: /v1/stats unavailable, daemon counters unknown");
    }
    let stat = |key: &str| stats.as_ref().and_then(|v| v[key].as_u64()).unwrap_or(0);
    let (cache_hits, cache_misses) = (stat("cache_hits"), stat("cache_misses"));

    let classes_json: Vec<String> = classes
        .iter()
        .map(|c| {
            format!(
                "{{\"endpoint\":\"{}\",\"requests\":{},\"ok\":{},\"goodput_p50_us\":{},\
                 \"goodput_p95_us\":{},\"goodput_p99_us\":{}}}",
                c.endpoint, c.requests, c.ok, c.goodput_p50_us, c.goodput_p95_us, c.goodput_p99_us
            )
        })
        .collect();
    println!(
        "{{\"requests\":{},\"ok\":{},\"failed\":{},\"shed\":{},\"server_errors\":{},\
         \"transport_errors\":{},\"cache_hits\":{cache_hits},\"cache_misses\":{cache_misses},\
         \"throughput_rps\":{:.1},\"p50_us\":{},\"p95_us\":{},\"p99_us\":{},\
         \"goodput_p50_us\":{},\"goodput_p95_us\":{},\"goodput_p99_us\":{},\
         \"classes\":[{}]}}",
        summary.requests,
        summary.ok,
        summary.failed(),
        summary.shed,
        summary.server_errors,
        summary.transport_errors,
        summary.throughput_rps,
        summary.p50_us,
        summary.p95_us,
        summary.p99_us,
        summary.goodput_p50_us,
        summary.goodput_p95_us,
        summary.goodput_p99_us,
        classes_json.join(",")
    );

    if shutdown_after {
        if let Err(e) = client::post(target, "/v1/shutdown", "") {
            eprintln!("shutdown request failed: {e}");
            return ExitCode::FAILURE;
        }
    }
    eprintln!(
        "daemon: {} served, {} shed, {} panics survived, {} keep-alive reuses",
        stat("requests"),
        stat("shed"),
        stat("worker_panics"),
        stat("keepalive_reuses")
    );
    if let Some(handle) = server {
        handle.shutdown();
        handle.join();
    }

    if summary.failed() > 0 {
        eprintln!("{} request(s) failed", summary.failed());
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
