//! `solve-mix`: an analyst asking new questions. Two keep-alive callers
//! in a closed loop; every request is a distinct question, so the
//! response cache only takes inserts and every layer from the CP kernel
//! to the simulator does real work.

use crate::common::{
    fail_indices, layers_from_effort, layers_from_generator, layers_from_spans, layers_from_stats,
    per_layer, repeat_setup, serve_e2e, share_note, tracing_overhead, Ctx, Outcome, Phase,
};
use crate::daemon::Daemon;
use crate::gen::{self, Class, Req, Rng};
use crate::http::Conn;
use crate::load::{closed_loop, Done};
use crate::replay::Server;
use crate::stats::median;
use crate::trace::Tracer;
use pubopt_obs::json::{parse, Value};
use pubopt_serve::ApiRequest;
use pubopt_workload::{Scenario, ScenarioKind};
use std::collections::BTreeSet;
use std::io;
use std::sync::Mutex;
use std::time::Instant;

/// Keep-alive callers.
const CALLERS: usize = 2;
/// Stream length: more than two callers can finish in a minute.
const STREAM: usize = 4096;

/// One question per population the stream touches, outside the stream's
/// capacity ranges: the daemon builds its populations and warm caches
/// before the window opens.
const WARMUP: [(&str, &str); 4] = [
    (
        "/v1/equilibrium",
        r#"{"scenario":"paper","n":1000000,"nu":300000}"#,
    ),
    (
        "/v1/strategy",
        r#"{"scenario":"paper","n":1000,"nu":300,"kappa":0.5,"cs":[0.5]}"#,
    ),
    (
        "/v1/whatif",
        r#"{"scenario":"paper","n":100,"nu":30,"kappa":0.5,"c":0.5,"flows":100}"#,
    ),
    (
        "/v1/capacity",
        r#"{"scenario":"trio","n":3,"nu":6,"target_fraction":0.5,"c_max":1.0,"grid_n":2}"#,
    ),
];

/// Populations of the stream, as `(kind, n)`.
const POPULATIONS: [(ScenarioKind, usize); 4] = [
    (ScenarioKind::PaperEnsemble, gen::MIX_EQ_N),
    (ScenarioKind::PaperEnsemble, gen::MIX_STRATEGY_N),
    (ScenarioKind::PaperEnsemble, gen::MIX_WHATIF_N),
    (ScenarioKind::Trio, 3),
];

fn start_daemon(ctx: &Ctx) -> io::Result<Daemon> {
    let d = Daemon::spawn(&ctx.serve_bin, ctx.daemon_flags())?;
    let mut conn = Conn::new(d.addr);
    for (path, body) in WARMUP {
        let (status, _) = conn.request("POST", path, body)?;
        if status != 200 {
            return Err(io::Error::other(format!(
                "warm-up {path} answered {status}"
            )));
        }
    }
    Ok(d)
}

fn untraced(ctx: &Ctx, reqs: &[Req]) -> io::Result<Phase> {
    let (d, setup_s) = repeat_setup(|| start_daemon(ctx), Daemon::shutdown)?;
    let bodies = Mutex::new(Vec::new());
    let cpu0 = d.cpu_s()?;
    let mut window = closed_loop(
        CALLERS,
        ctx.seconds,
        reqs.len(),
        |_| Conn::new(d.addr),
        |conn, i| {
            let r = &reqs[i];
            match conn.request("POST", r.class.path(), &r.body) {
                Ok((200, body)) => {
                    bodies.lock().expect("body log poisoned").push((i, body));
                    Done::timed(true)
                }
                _ => Done::timed(false),
            }
        },
    );
    let cpu_s = d.cpu_s()? - cpu0;
    let rss_mb = d.peak_rss_mb()?;
    let flags = vec![d.flags.clone()];
    d.shutdown()?;
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

fn num(v: &Value, path: &[&str]) -> Option<f64> {
    let mut cur = v;
    for key in path {
        cur = cur.get(key)?;
    }
    cur.as_f64()
}

fn close(a: f64, b: f64, rel: f64) -> bool {
    (a - b).abs() <= rel * (1.0 + a.abs().max(b.abs()))
}

/// Correctness gate, outside the timed window: every answer is
/// well-formed, and a seeded sample of one answer per class matches the
/// in-process reference solvers within solver tolerance.
fn check(seed: u64, reqs: &[Req], bodies: &[(usize, Vec<u8>)]) -> (BTreeSet<usize>, Vec<String>) {
    let mut bad = BTreeSet::new();
    let mut problems = Vec::new();
    let mut parsed: Vec<(usize, Value)> = Vec::new();
    for (i, body) in bodies {
        let r = &reqs[*i];
        let v = std::str::from_utf8(body)
            .ok()
            .and_then(|s| parse(s).ok())
            .filter(|v| v.get("endpoint").and_then(Value::as_str) == Some(r.class.name()));
        let finite = v.as_ref().is_some_and(|v| {
            let field = match r.class {
                Class::Equilibrium => num(v, &["water_level"]),
                Class::Strategy => num(v, &["best", "psi"]),
                Class::Whatif => num(v, &["divergence", "mean_rel_error"]),
                _ => Some(0.0),
            };
            field.is_some_and(f64::is_finite)
        });
        match v {
            Some(v) if finite => parsed.push((*i, v)),
            _ => {
                bad.insert(*i);
                problems.push(format!("request {i}: malformed {} answer", r.class.name()));
            }
        }
    }
    parsed.sort_by_key(|(i, _)| *i);
    let mut rng = Rng::new(seed ^ 0xC4EC);
    for class in [
        Class::Equilibrium,
        Class::Strategy,
        Class::Whatif,
        Class::Capacity,
    ] {
        let of_class: Vec<&(usize, Value)> = parsed
            .iter()
            .filter(|(i, _)| reqs[*i].class == class)
            .collect();
        if of_class.is_empty() {
            continue;
        }
        let (i, v) = of_class[rng.below(of_class.len())];
        if let Err(e) = reference(&reqs[*i], v) {
            bad.insert(*i);
            problems.push(format!("request {i} ({}): {e}", class.name()));
        }
    }
    (bad, problems)
}

/// Compare one served answer with a cold in-process solve.
fn reference(r: &Req, v: &Value) -> Result<(), String> {
    use pubopt_num::Tolerance;
    let api = ApiRequest::parse(r.class.path(), &r.body).map_err(|e| e.message)?;
    let pop = |kind, n| Scenario::load_scaled(kind, n).pop;
    match api {
        ApiRequest::Equilibrium(p) => {
            let pop = pop(p.scenario, p.n);
            let (eq, _) = pubopt_eq::solve_maxmin_traced(&pop, p.nu, Tolerance::default());
            let w = eq.water_level.unwrap_or(f64::INFINITY);
            let phi = pubopt_eq::consumer_surplus(&pop, &eq);
            let got_w = num(v, &["water_level"]).unwrap_or(f64::NAN);
            if !close(got_w, w, 1e-8) {
                return Err(format!("water level {got_w} vs reference {w}"));
            }
            for (field, want) in [("aggregate", eq.aggregate), ("phi", phi)] {
                let got = num(v, &[field]).unwrap_or(f64::NAN);
                if !close(got, want, 1e-6) {
                    return Err(format!("{field} {got} vs reference {want}"));
                }
            }
        }
        ApiRequest::Strategy(p) => {
            let pop = pop(p.scenario, p.n);
            let sweep = pubopt_core::revenue_sweep(&pop, p.nu, p.kappa, &p.cs, Tolerance::COARSE);
            for (k, pt) in sweep.iter().enumerate() {
                let got = v["points"][k]["psi"].as_f64().unwrap_or(f64::NAN);
                if !close(got, pt.psi, 1e-6) {
                    return Err(format!("point {k}: psi {got} vs reference {}", pt.psi));
                }
            }
        }
        ApiRequest::Whatif(p) => {
            let pop = pop(p.scenario, p.n);
            let sol = pubopt_core::competitive_equilibrium(
                &pop,
                p.nu,
                pubopt_core::IspStrategy::new(p.kappa, p.c),
                Tolerance::COARSE,
            );
            let psi = sol.outcome.isp_surplus(&pop);
            let phi = sol.outcome.consumer_surplus(&pop);
            for (field, want) in [("psi", psi), ("phi", phi)] {
                let got = num(v, &["analytical", field]).unwrap_or(f64::NAN);
                if !close(got, want, 1e-6) {
                    return Err(format!("analytical {field} {got} vs reference {want}"));
                }
            }
            let count = num(v, &["analytical", "premium_count"]);
            if count != Some(sol.outcome.partition.premium_count() as f64) {
                return Err(format!(
                    "premium count {count:?} differs from the reference"
                ));
            }
        }
        ApiRequest::Capacity(p) => {
            let pop = pop(p.scenario, p.n);
            let gamma = pubopt_core::minimum_po_capacity(
                &pop,
                p.nu,
                p.target_fraction,
                p.c_max,
                p.grid_n,
                Tolerance::COARSE,
            );
            let got = v.get("gamma_min").and_then(Value::as_f64);
            let same = match (got, gamma) {
                (Some(a), Some(b)) => close(a, b, 1e-6),
                (None, None) => true,
                _ => false,
            };
            if !same {
                return Err(format!("gamma_min {got:?} vs reference {gamma:?}"));
            }
        }
    }
    Ok(())
}

/// `--trace 0`: the end-to-end metrics.
pub fn run(ctx: &Ctx) -> io::Result<Outcome> {
    let reqs = gen::solve_mix(ctx.seed, STREAM);
    Ok(untraced(ctx, &reqs)?.into_outcome(Vec::new(), CALLERS, CALLERS))
}

/// `--trace 1`: an untraced phase, then the same stream replayed in
/// process with spans beside timed HTTP round trips to a fresh daemon.
pub fn run_traced(ctx: &Ctx) -> io::Result<Outcome> {
    let reqs = gen::solve_mix(ctx.seed, STREAM);
    let base = untraced(ctx, &reqs)?;
    let base_e2e = base.e2e();

    let t = Tracer::default();
    let server = Server::default();
    for (kind, n) in POPULATIONS {
        t.span("workload.population_build", None, 0, |_| {
            server.store.population(kind, n)
        });
    }
    // Warm the in-process state as the daemon's set-up does, untraced.
    let warm_tracer = Tracer::default();
    for (path, body) in WARMUP {
        server
            .request(&warm_tracer, 0, path, body)
            .map_err(io::Error::other)?;
    }
    *server.effort.lock().expect("effort totals poisoned") = Default::default();

    let setup0 = Instant::now();
    let d = start_daemon(ctx)?;
    let setup_s = [setup0.elapsed().as_secs_f64()];
    let stats0 = d.stats()?;
    let cpu0 = d.cpu_s()?;
    let transport_us = Mutex::new(Vec::new());
    let window = closed_loop(
        CALLERS,
        ctx.seconds,
        reqs.len(),
        |_| Conn::new(d.addr),
        |conn, i| {
            let r = &reqs[i];
            let (resp, rtt, replayed) =
                server.replay_and_send(&t, conn, i as u64, r.class.path(), &r.body, &transport_us);
            Done {
                ok: matches!(resp, Ok((200, _))) && replayed.is_some(),
                latency: Some(rtt),
            }
        },
    );
    let cpu_s = d.cpu_s()? - cpu0;
    let stats1 = d.stats()?;
    let rss_mb = d.peak_rss_mb()?;
    d.shutdown()?;
    let traced_e2e = serve_e2e(&setup_s, &window, cpu_s, rss_mb);

    let spans = t.spans();
    let mut m = per_layer();
    layers_from_spans(&mut m, &spans);
    layers_from_effort(
        &mut m,
        &server.effort.lock().expect("effort totals poisoned"),
    );
    layers_from_stats(&mut m, &stats0, &stats1);
    layers_from_generator(&mut m, &base.window);
    let transport = transport_us.into_inner().expect("transport log poisoned");
    m.set_stat(
        "serve.transport_us_p50",
        median(&transport),
        transport.len(),
    );
    let overhead = tracing_overhead(&mut m, &base_e2e, &traced_e2e);
    Ok(Outcome {
        metrics: m,
        attempted: base.window.attempted() + window.attempted(),
        failed: base.window.failed() + window.failed(),
        problems: base.problems,
        notes: vec![overhead, share_note(&spans)],
        gen_threads: CALLERS,
        gen_connections: CALLERS,
        daemon_flags: base.flags,
        spans,
    })
}
