//! `dist-solve`: one caller in a closed loop asking a coordinator daemon
//! for distributed water-level solves of the 100k-CP ensemble over two
//! shard daemons. The only workload that reaches the shard RPC layer.

use crate::common::{
    cpu_of, fail_indices, layers_from_spans, per_layer, repeat_setup, rss_of, serve_e2e,
    share_note, shutdown_all, tracing_overhead, Ctx, Outcome, Phase,
};
use crate::daemon::Daemon;
use crate::gen::{self, Req, Rng};
use crate::http::Conn;
use crate::load::{closed_loop, Done};
use crate::stats::{median, percentile_of};
use crate::trace::{TimedSource, Tracer};
use pubopt_num::{shard_blocks, shard_span, Tolerance};
use pubopt_obs::json::{parse, Value};
use pubopt_serve::dist::{hex_f64, ShardOp, ShardQuery};
use pubopt_serve::{DistParams, HttpShardSource, ScenarioStore};
use pubopt_workload::ScenarioKind;
use std::collections::BTreeSet;
use std::io;
use std::net::SocketAddr;
use std::sync::Mutex;
use std::time::Instant;

/// Shard daemons behind the coordinator.
const SHARDS: usize = 2;
/// Stream length: more than one caller can finish in a minute.
const STREAM: usize = 1024;
/// Served answers checked bit for bit against the in-process solver.
const CHECKED: usize = 6;

/// Shard daemons with their populations built: each answers one meta
/// and one full-profile query, as a coordinator's first solve would ask.
fn start_shards(ctx: &Ctx) -> io::Result<Vec<Daemon>> {
    let mut shards = Vec::new();
    for i in 0..SHARDS {
        let d = Daemon::spawn(&ctx.serve_bin, ctx.daemon_flags())?;
        let mut conn = Conn::new(d.addr);
        for op in [r#""op":"meta""#, r#""op":"profile","w":"7ff0000000000000""#] {
            let body = format!(
                r#"{{"scenario":"paper","n":{},"shard":{i},"of":{SHARDS},{op}}}"#,
                gen::DIST_N
            );
            let (status, _) = conn.request("POST", "/v1/shard/aggregate", &body)?;
            if status != 200 {
                return Err(io::Error::other(format!("shard warm-up answered {status}")));
            }
        }
        shards.push(d);
    }
    Ok(shards)
}

/// `[coordinator, shard 0, shard 1]`.
fn start_cluster(ctx: &Ctx) -> io::Result<Vec<Daemon>> {
    let mut daemons = start_shards(ctx)?;
    let mut flags = ctx.daemon_flags();
    for d in &daemons {
        flags.push("--shard".to_owned());
        flags.push(d.addr.to_string());
    }
    daemons.insert(0, Daemon::spawn(&ctx.serve_bin, flags)?);
    Ok(daemons)
}

fn untraced(ctx: &Ctx, reqs: &[Req]) -> io::Result<Phase> {
    let (daemons, setup_s) = repeat_setup(|| start_cluster(ctx), shutdown_all)?;
    let addr = daemons[0].addr;
    let bodies = Mutex::new(Vec::new());
    let cpu0 = cpu_of(&daemons)?;
    let mut window = closed_loop(
        1,
        ctx.seconds,
        reqs.len(),
        |_| Conn::new(addr),
        |conn, i| match conn.request("POST", "/v1/dist/solve", &reqs[i].body) {
            Ok((200, body)) => {
                bodies.lock().expect("body log poisoned").push((i, body));
                Done::timed(true)
            }
            _ => Done::timed(false),
        },
    );
    let cpu_s = cpu_of(&daemons)? - cpu0;
    let rss_mb = rss_of(&daemons)?;
    let flags = daemons.iter().map(|d| d.flags.clone()).collect();
    shutdown_all(daemons)?;
    let bodies = bodies.into_inner().expect("body log poisoned");
    let (bad, problems) = check(ctx.seed, reqs, &bodies);
    fail_indices(&mut window, &bad);
    Ok(Phase {
        setup_s,
        window,
        cpu_s,
        rss_mb,
        flags,
        problems,
    })
}

/// Correctness gate: every answer is a congested 2-shard solve, and a
/// seeded sample carries exactly the water level, aggregate and effort
/// counters of the in-process `solve_maxmin_traced`.
fn check(seed: u64, reqs: &[Req], bodies: &[(usize, Vec<u8>)]) -> (BTreeSet<usize>, Vec<String>) {
    let mut bad = BTreeSet::new();
    let mut problems = Vec::new();
    let mut good: Vec<(usize, Value)> = Vec::new();
    for (i, body) in bodies {
        let v = std::str::from_utf8(body).ok().and_then(|s| parse(s).ok());
        match v {
            Some(v)
                if v["congested"].as_bool() == Some(true)
                    && v["shards"].as_u64() == Some(SHARDS as u64) =>
            {
                good.push((*i, v))
            }
            _ => {
                bad.insert(*i);
                problems.push(format!("request {i}: malformed or uncongested answer"));
            }
        }
    }
    good.sort_by_key(|(i, _)| *i);
    if good.is_empty() {
        return (bad, problems);
    }
    let pop = pubopt_workload::Scenario::load_scaled(ScenarioKind::PaperEnsemble, gen::DIST_N).pop;
    let mut rng = Rng::new(seed ^ 0xD15C);
    let mut picked = BTreeSet::new();
    while picked.len() < CHECKED.min(good.len()) {
        picked.insert(rng.below(good.len()));
    }
    for k in picked {
        let (i, v) = &good[k];
        let Ok(p) = DistParams::parse(&reqs[*i].body) else {
            bad.insert(*i);
            continue;
        };
        let (eq, stats) = pubopt_eq::solve_maxmin_traced(&pop, p.nu, Tolerance::default());
        let want_w = hex_f64(eq.water_level.unwrap_or(f64::INFINITY));
        let want_agg = hex_f64(eq.aggregate);
        let same = v["water_level"].as_str() == Some(want_w.as_str())
            && v["aggregate"].as_str() == Some(want_agg.as_str())
            && v["lambda_evals"].as_u64() == Some(stats.lambda_evals)
            && v["bisect_iters"].as_u64() == Some(u64::from(stats.bisect_iters));
        if !same {
            bad.insert(*i);
            problems.push(format!(
                "request {i}: distributed answer differs from solve_maxmin_traced \
                 (w {want_w}, aggregate {want_agg}, {} λ-evals, {} bisections)",
                stats.lambda_evals, stats.bisect_iters
            ));
        }
    }
    (bad, problems)
}

/// `--trace 0`: the end-to-end metrics.
pub fn run(ctx: &Ctx) -> io::Result<Outcome> {
    let reqs = gen::dist(ctx.seed, STREAM);
    Ok(untraced(ctx, &reqs)?.into_outcome(Vec::new(), 1, 1))
}

/// Per-probe measurements of the traced phase.
#[derive(Default)]
struct ProbeLog {
    probe_ms: Vec<f64>,
    shard_compute_ms: Vec<f64>,
    overhead_ms: Vec<f64>,
    kernel_ns_per_cp: Vec<f64>,
    rpcs: u64,
    solves: u64,
    lambda_evals: u64,
    bisect_iters: u64,
}

/// Replay one probe's shard work in process: each shard's query handler
/// (the compute a shard daemon does, ms per shard) and, for shard 0, the
/// bare kernel (ns per CP).
fn replay_probe(t: &Tracer, store: &ScenarioStore, req: u64, w: f64) -> (Vec<f64>, f64) {
    let pop = store.population(ScenarioKind::PaperEnsemble, gen::DIST_N);
    let mut per_shard = Vec::with_capacity(SHARDS);
    for shard in 0..SHARDS {
        let q = ShardQuery {
            scenario: ScenarioKind::PaperEnsemble,
            n: gen::DIST_N,
            shard,
            of: SHARDS,
            op: ShardOp::Lambda(w),
        };
        let t0 = Instant::now();
        std::hint::black_box(t.span("shard.compute", None, req, |_| q.handle(store)));
        per_shard.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    let blocks = shard_blocks(0, SHARDS);
    let cps = shard_span(pop.len(), 0, SHARDS).len();
    let t0 = Instant::now();
    std::hint::black_box(t.span("shard.lambda_kernel", None, req, |_| {
        pubopt_eq::lambda_block_partials(&pop, w, blocks)
    }));
    let kernel_ns_per_cp = t0.elapsed().as_nanos() as f64 / cps as f64;
    (per_shard, kernel_ns_per_cp)
}

/// `--trace 1`: an untraced phase, then the same stream solved by an
/// in-process coordinator whose shard source is wrapped in a span
/// recorder, against fresh shard daemons. Each probe's shard work is
/// replayed in process afterwards, off the timed path.
pub fn run_traced(ctx: &Ctx) -> io::Result<Outcome> {
    let reqs = gen::dist(ctx.seed, STREAM);
    let base = untraced(ctx, &reqs)?;
    let base_e2e = base.e2e();

    let t = Tracer::default();
    let store = ScenarioStore::default();
    t.span("workload.population_build", None, 0, |_| {
        store.population(ScenarioKind::PaperEnsemble, gen::DIST_N)
    });
    let setup0 = Instant::now();
    let shards = start_shards(ctx)?;
    let setup_s = [setup0.elapsed().as_secs_f64()];
    let addrs: Vec<SocketAddr> = shards.iter().map(|d| d.addr).collect();
    let cpu0 = cpu_of(&shards)?;
    let log = Mutex::new(ProbeLog::default());
    let window = closed_loop(
        1,
        ctx.seconds,
        reqs.len(),
        |_| (),
        |_, i| {
            let Ok(p) = DistParams::parse(&reqs[i].body) else {
                return Done::timed(false);
            };
            let req = i as u64;
            let t0 = Instant::now();
            let (solved, probes, rpcs) = t.span("eq.solve", None, req, |root| {
                let source = HttpShardSource::new(p.scenario, p.n, &addrs);
                let mut src = TimedSource::new(source, &t, Some(root), req);
                let solved =
                    pubopt_eq::solve_maxmin_with_source(&mut src, p.nu, Tolerance::default());
                let rpcs = src.inner().rpcs();
                (solved, std::mem::take(&mut src.probes), rpcs)
            });
            let latency = t0.elapsed();
            let Ok((_, stats)) = solved else {
                return Done::timed(false);
            };
            let mut l = log.lock().expect("probe log poisoned");
            l.rpcs += rpcs;
            l.solves += 1;
            l.lambda_evals += stats.lambda_evals;
            l.bisect_iters += u64::from(stats.bisect_iters);
            for (w, ns) in probes {
                let (per_shard, kernel) = replay_probe(&t, &store, req, w);
                let probe = ns as f64 / 1e6;
                l.probe_ms.push(probe);
                l.overhead_ms.push(probe - per_shard.iter().sum::<f64>());
                l.shard_compute_ms.extend(per_shard);
                l.kernel_ns_per_cp.push(kernel);
            }
            Done {
                ok: stats.congested,
                latency: Some(latency),
            }
        },
    );
    let cpu_s = cpu_of(&shards)? - cpu0;
    let rss_mb = rss_of(&shards)?;
    shutdown_all(shards)?;
    let traced_e2e = serve_e2e(&setup_s, &window, cpu_s, rss_mb);

    let spans = t.spans();
    let l = log.into_inner().expect("probe log poisoned");
    let mut m = per_layer();
    layers_from_spans(&mut m, &spans);
    let solves = l.solves as f64;
    m.set("eq.solves", solves);
    m.set_ratio("eq.lambda_evals_per_solve", l.lambda_evals as f64, solves);
    m.set_ratio("eq.bisect_iters_per_solve", l.bisect_iters as f64, solves);
    m.set_ratio("dist.rpcs_per_solve", l.rpcs as f64, solves);
    m.set_stat(
        "dist.shard_compute_ms_p50",
        median(&l.shard_compute_ms),
        l.shard_compute_ms.len(),
    );
    m.set_stat(
        "dist.rpc_overhead_ms_p50",
        median(&l.overhead_ms),
        l.overhead_ms.len(),
    );
    m.set_stat(
        "demand.shard_lambda_ns_per_cp",
        median(&l.kernel_ns_per_cp),
        l.kernel_ns_per_cp.len(),
    );
    let overhead = tracing_overhead(&mut m, &base_e2e, &traced_e2e);
    Ok(Outcome {
        metrics: m,
        attempted: base.window.attempted() + window.attempted(),
        failed: base.window.failed() + window.failed(),
        problems: base.problems,
        notes: vec![
            overhead,
            format!(
                "probe p50 {:.4} ms = shard compute p50 {:.4} ms x {SHARDS} shards (asked one after another) + RPC overhead p50 {:.4} ms; probe p90 {:.4} ms",
                median(&l.probe_ms),
                median(&l.shard_compute_ms),
                median(&l.overhead_ms),
                percentile_of(&l.probe_ms, 90.0)
            ),
            share_note(&spans),
        ],
        gen_threads: 1,
        gen_connections: SHARDS,
        daemon_flags: base.flags,
        spans,
    })
}
