//! `hot-cache`: a dashboard re-asking popular questions. An open loop at
//! a fixed rate over a hot set solved during set-up, so every timed
//! request is a cache hit and the reactor, parse, lookup and write make
//! up the whole latency.

use crate::common::{
    fail_indices, layers_from_generator, layers_from_spans, layers_from_stats, per_layer,
    repeat_setup, serve_e2e, share_note, tracing_overhead, Ctx, Outcome, Phase,
};
use crate::daemon::Daemon;
use crate::gen::{self, Req};
use crate::http::Conn;
use crate::load::{open_loop, Done};
use crate::replay::Server;
use crate::stats::{median, percentile_of, slice_spread};
use crate::trace::Tracer;
use std::collections::BTreeSet;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Offered load, requests per second. One keep-alive connection can send
/// at most 1/RTT; 1000/s leaves room for round trips up to 1 ms, more
/// than twice the hot set's p90 on a quiet 2-core host (~0.4 ms).
pub const RATE: f64 = 1000.0;
/// Generator threads, each owning one keep-alive connection. One thread
/// leaves the second core to the daemon's reactor and worker; with two,
/// runs of the same code spread further apart on a 2-core host.
const THREADS: usize = 1;

/// Start a daemon and solve the hot set on it; returns the bodies.
fn start_daemon(ctx: &Ctx, hot: &[Req]) -> io::Result<(Daemon, Vec<Vec<u8>>)> {
    let d = Daemon::spawn(&ctx.serve_bin, ctx.daemon_flags())?;
    let bodies = solve_all(&d, hot)?;
    Ok((d, bodies))
}

fn solve_all(d: &Daemon, hot: &[Req]) -> io::Result<Vec<Vec<u8>>> {
    let mut conn = Conn::new(d.addr);
    hot.iter()
        .map(|r| match conn.request("POST", r.class.path(), &r.body)? {
            (200, body) => Ok(body),
            (status, _) => Err(io::Error::other(format!(
                "hot question {} answered {status}",
                r.body
            ))),
        })
        .collect()
}

fn untraced(ctx: &Ctx, hot: &[Req], schedule: &[usize]) -> io::Result<Phase> {
    let ((d, expected), setup_s) = repeat_setup(|| start_daemon(ctx, hot), |(d, _)| d.shutdown())?;
    let cpu0 = d.cpu_s()?;
    let wrong = AtomicU64::new(0);
    let mut window = open_loop(
        THREADS,
        RATE,
        schedule.len(),
        |_| Conn::new(d.addr),
        |conn, i| {
            let h = schedule[i];
            match conn.request("POST", hot[h].class.path(), &hot[h].body) {
                Ok((200, body)) if body == expected[h] => Done::timed(true),
                Ok((200, _)) => {
                    wrong.fetch_add(1, Ordering::Relaxed);
                    Done::timed(false)
                }
                _ => Done::timed(false),
            }
        },
    );
    let cpu_s = d.cpu_s()? - cpu0;
    let rss_mb = d.peak_rss_mb()?;
    let flags = vec![d.flags.clone()];
    d.shutdown()?;

    // Correctness gate: a fresh daemon's bodies equal the served ones.
    let fresh = Daemon::spawn(&ctx.serve_bin, ctx.daemon_flags())?;
    let cold = solve_all(&fresh, hot);
    fresh.shutdown()?;
    let cold = cold?;
    let mut problems = Vec::new();
    let mut wrong_keys = BTreeSet::new();
    for (h, (a, b)) in expected.iter().zip(&cold).enumerate() {
        if a != b {
            wrong_keys.insert(h);
            problems.push(format!(
                "hot question {h}: served body differs from a fresh daemon's"
            ));
        }
    }
    let wrong = wrong.into_inner();
    if wrong > 0 {
        problems.push(format!(
            "{wrong} timed requests returned other bytes than set-up's"
        ));
    }
    let bad: BTreeSet<usize> = (0..schedule.len())
        .filter(|&i| wrong_keys.contains(&schedule[i]))
        .collect();
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

fn stream(ctx: &Ctx) -> (Vec<Req>, Vec<usize>) {
    let count = (RATE * ctx.seconds).round() as usize;
    (gen::hot_set(ctx.seed), gen::hot_schedule(ctx.seed, count))
}

/// `--trace 0`: the end-to-end metrics.
pub fn run(ctx: &Ctx) -> io::Result<Outcome> {
    let (hot, schedule) = stream(ctx);
    let p = untraced(ctx, &hot, &schedule)?;
    let lags: Vec<f64> = p.window.samples.iter().map(|s| s.lag_ms).collect();
    let lag = format!(
        "offered {RATE} req/s; generator lag p50 {:.4} ms, p90 {:.4} ms, p99 {:.4} ms",
        median(&lags),
        percentile_of(&lags, 90.0),
        percentile_of(&lags, 99.0)
    );
    let trips = p.window.round_trips_in_send_order_ms();
    let from_due = p.window.latencies_ms();
    let mut notes = vec![lag];
    for q in [50.0, 90.0] {
        notes.push(format!(
            "round-trip p{q} by slice (min / median / max): {}; \
             whole run {:.4} ms, {:.4} ms from the scheduled send",
            slice_spread(&trips, q),
            percentile_of(&trips, q),
            percentile_of(&from_due, q)
        ));
    }
    Ok(p.into_outcome(notes, THREADS, THREADS))
}

/// `--trace 1`: an untraced phase, then the same schedule with each
/// request also replayed in process (parse, key, cache lookup) beside
/// its timed HTTP round trip to a fresh daemon.
pub fn run_traced(ctx: &Ctx) -> io::Result<Outcome> {
    let (hot, schedule) = stream(ctx);
    let base = untraced(ctx, &hot, &schedule)?;
    let base_e2e = base.e2e();

    // Four spans per request: request, parse, cache lookup, round trip.
    let t = Tracer::with_capacity(4 * schedule.len());
    let server = Server::default();
    let setup0 = Instant::now();
    let (d, expected) = start_daemon(ctx, &hot)?;
    let setup_s = [setup0.elapsed().as_secs_f64()];
    for (r, body) in hot.iter().zip(&expected) {
        let text = String::from_utf8_lossy(body).into_owned();
        server
            .prime(r.class.path(), &r.body, text)
            .map_err(io::Error::other)?;
    }
    let stats0 = d.stats()?;
    let cpu0 = d.cpu_s()?;
    let transport_us = Mutex::new(Vec::with_capacity(schedule.len()));
    let wrong = AtomicU64::new(0);
    let window = open_loop(
        THREADS,
        RATE,
        schedule.len(),
        |_| Conn::new(d.addr),
        |conn, i| {
            let r = &hot[schedule[i]];
            let (resp, _, replayed) =
                server.replay_and_send(&t, conn, i as u64, r.class.path(), &r.body, &transport_us);
            let ok = match resp {
                Ok((200, b)) if b == expected[schedule[i]] => true,
                Ok((200, _)) => {
                    wrong.fetch_add(1, Ordering::Relaxed);
                    false
                }
                _ => false,
            } && replayed == Some(true);
            Done::timed(ok)
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
    layers_from_stats(&mut m, &stats0, &stats1);
    layers_from_generator(&mut m, &base.window);
    let transport = transport_us.into_inner().expect("transport log poisoned");
    m.set_stat(
        "serve.transport_us_p50",
        median(&transport),
        transport.len(),
    );
    let overhead = tracing_overhead(&mut m, &base_e2e, &traced_e2e);
    let mut problems = base.problems;
    let wrong = wrong.into_inner();
    if wrong > 0 {
        problems.push(format!(
            "{wrong} traced requests returned other bytes than set-up's"
        ));
    }
    Ok(Outcome {
        metrics: m,
        attempted: base.window.attempted() + window.attempted(),
        failed: base.window.failed() + window.failed(),
        problems,
        notes: vec![overhead, share_note(&spans)],
        gen_threads: THREADS,
        gen_connections: THREADS,
        daemon_flags: base.flags,
        spans,
    })
}
