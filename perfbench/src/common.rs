//! Pieces every workload shares: run context, set-up repetition, the
//! end-to-end metric arithmetic and the per-layer metric arithmetic.

use crate::daemon::Daemon;
use crate::load::Window;
use crate::replay::Effort;
use crate::report::{Metrics, END_TO_END, PER_LAYER};
use crate::stats::{median, percentile_of, quietest_slice_percentile, tail};
use crate::trace::{durations_ms, layer_self_ns, Span};
use pubopt_obs::json::Value;
use std::io;
use std::path::PathBuf;
use std::time::Instant;

/// Set-ups per measured phase; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// Everything a workload needs to know about the invocation.
pub struct Ctx {
    /// The release `pubopt-serve` binary.
    pub serve_bin: PathBuf,
    /// Input seed.
    pub seed: u64,
    /// Length of the timed window, s.
    pub seconds: f64,
    /// Logical CPUs: daemon workers and the generator's thread cap.
    pub nproc: usize,
    /// Scratch directory inside the checkout.
    pub work_dir: PathBuf,
}

impl Ctx {
    /// Flags every daemon under test gets: workers sized to the host.
    pub fn daemon_flags(&self) -> Vec<String> {
        vec!["--workers".to_owned(), self.nproc.to_string()]
    }
}

/// What a workload invocation hands back to `main`.
pub struct Outcome {
    /// The metrics this invocation prints (end-to-end or per-layer).
    pub metrics: Metrics,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed, were refused or gave a wrong answer.
    pub failed: u64,
    /// Correctness problems found (empty when correct).
    pub problems: Vec<String>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
    /// Generator threads and connections.
    pub gen_threads: usize,
    /// See `gen_threads`.
    pub gen_connections: usize,
    /// Flags of the daemons measured.
    pub daemon_flags: Vec<Vec<String>>,
    /// Spans of a traced run.
    pub spans: Vec<Span>,
}

/// A measured untraced phase of a request-serving workload.
pub struct Phase {
    /// Set-up times, s.
    pub setup_s: Vec<f64>,
    /// The timed window, with answers found wrong marked failed.
    pub window: Window,
    /// Daemon CPU seconds over the window.
    pub cpu_s: f64,
    /// Daemons' summed peak RSS, MB.
    pub rss_mb: f64,
    /// Flags of each daemon measured.
    pub flags: Vec<Vec<String>>,
    /// Correctness problems found.
    pub problems: Vec<String>,
}

impl Phase {
    /// End-to-end metrics of the phase.
    pub fn e2e(&self) -> Metrics {
        serve_e2e(&self.setup_s, &self.window, self.cpu_s, self.rss_mb)
    }

    /// The `--trace 0` outcome: the phase's end-to-end metrics, its
    /// latency tail line, then `notes`.
    pub fn into_outcome(
        self,
        notes: Vec<String>,
        gen_threads: usize,
        gen_connections: usize,
    ) -> Outcome {
        let mut all_notes = vec![tail_note(&self.window)];
        all_notes.extend(notes);
        Outcome {
            metrics: self.e2e(),
            attempted: self.window.attempted(),
            failed: self.window.failed(),
            problems: self.problems,
            notes: all_notes,
            gen_threads,
            gen_connections,
            daemon_flags: self.flags,
            spans: Vec::new(),
        }
    }
}

/// Run `setup` [`SETUPS`] times, timing each; every result but the last
/// is torn down with `teardown`.
pub fn repeat_setup<T>(
    mut setup: impl FnMut() -> io::Result<T>,
    mut teardown: impl FnMut(T) -> io::Result<()>,
) -> io::Result<(T, Vec<f64>)> {
    let mut times = Vec::with_capacity(SETUPS);
    let mut kept = None;
    for i in 0..SETUPS {
        let t0 = Instant::now();
        let made = setup()?;
        times.push(t0.elapsed().as_secs_f64());
        if i + 1 < SETUPS {
            teardown(made)?;
        } else {
            kept = Some(made);
        }
    }
    Ok((kept.expect("SETUPS > 0"), times))
}

/// Shut the daemons down in order; after a failure the rest are killed
/// as they drop.
pub fn shutdown_all(daemons: Vec<Daemon>) -> io::Result<()> {
    daemons.into_iter().try_for_each(Daemon::shutdown)
}

/// Sum of the daemons' CPU seconds.
pub fn cpu_of(daemons: &[Daemon]) -> io::Result<f64> {
    daemons.iter().map(Daemon::cpu_s).sum()
}

/// Sum of the daemons' peak RSS, MB.
pub fn rss_of(daemons: &[Daemon]) -> io::Result<f64> {
    daemons.iter().map(Daemon::peak_rss_mb).sum()
}

/// End-to-end metrics of a request-serving phase.
pub fn serve_e2e(setup_s: &[f64], window: &Window, cpu_s: f64, peak_rss_mb: f64) -> Metrics {
    let mut m = Metrics::new(&END_TO_END);
    m.set_stat("setup_s", median(setup_s), setup_s.len());
    let ok = window.attempted() - window.failed();
    m.set_stat("goodput_per_s", window.goodput(), ok as usize);
    let lat = window.round_trips_in_send_order_ms();
    if !lat.is_empty() {
        m.set_stat(
            "latency_p50_ms",
            quietest_slice_percentile(&lat, 50.0),
            lat.len(),
        );
    }
    m.set_ratio("cpu_ms_per_op", cpu_s * 1e3, ok as f64);
    m.set("peak_rss_mb", peak_rss_mb);
    m
}

/// The ungated latency line: the run's p90 round trip, then the highest
/// percentile with ten samples beyond it (on the open loop timed from the
/// scheduled send).
pub fn tail_note(window: &Window) -> String {
    let p90 = percentile_of(&window.round_trips_in_send_order_ms(), 90.0);
    let mut lat = window.latencies_ms();
    lat.sort_by(f64::total_cmp);
    let tail = match tail(&lat) {
        Some((p, v, beyond)) => format!(
            "tail p{p} = {v:.4} ms over {} samples ({beyond} beyond it)",
            lat.len()
        ),
        None => format!(
            "{} samples are too few for any percentile with 10 beyond it",
            lat.len()
        ),
    };
    format!("latency, not gated: p90 round trip {p90:.4} ms; {tail}")
}

/// Mark the samples whose request index is in `bad` as failed (a wrong
/// answer found after the window is a failed operation).
pub fn fail_indices(window: &mut Window, bad: &std::collections::BTreeSet<usize>) {
    for s in &mut window.samples {
        if bad.contains(&s.idx) {
            s.ok = false;
        }
    }
}

/// Layers whose self time counts towards the request-path shares: the
/// HTTP round trips and the off-path shard replays are excluded.
const SHARE_EXCLUDED: [&str; 2] = ["http", "shard"];

/// Per-layer metrics derivable from spans alone.
pub fn layers_from_spans(m: &mut Metrics, spans: &[Span]) {
    let p50 = |name: &str| {
        let d = durations_ms(spans, name);
        (percentile_of(&d, 50.0), d.len())
    };
    let on_path: Vec<Span> = spans
        .iter()
        .filter(|s| !SHARE_EXCLUDED.contains(&s.layer()))
        .cloned()
        .collect();
    let selfs = layer_self_ns(&on_path);
    let total: u64 = selfs.values().sum();
    for layer in ["demand", "eq", "core", "netsim", "serve", "dist"] {
        let own = selfs.get(layer).copied().unwrap_or(0);
        let name = match layer {
            "demand" => "demand.self_share",
            "eq" => "eq.self_share",
            "core" => "core.self_share",
            "netsim" => "netsim.self_share",
            "serve" => "serve.self_share",
            _ => "dist.self_share",
        };
        m.set(
            name,
            if total > 0 {
                own as f64 / total as f64
            } else {
                0.0
            },
        );
    }
    let (v, n) = p50("eq.solve");
    m.set_stat("eq.solve_ms_p50", v, n);
    let games = durations_ms(spans, "core.game_point");
    m.set_stat(
        "core.game_point_ms_p50",
        percentile_of(&games, 50.0),
        games.len(),
    );
    m.set_stat(
        "core.game_point_ms_p90",
        percentile_of(&games, 90.0),
        games.len(),
    );
    let (v, n) = p50("netsim.run");
    m.set_stat("netsim.run_ms_p50", v, n);
    let (v, n) = p50("serve.parse");
    m.set_stat("serve.parse_us_p50", v * 1e3, n);
    let (v, n) = p50("serve.cache_get");
    m.set_stat("serve.cache_get_us_p50", v * 1e3, n);
    for (name, span) in [
        (
            "serve.handle_ms_p50.equilibrium",
            "serve.handle.equilibrium",
        ),
        ("serve.handle_ms_p50.strategy", "serve.handle.strategy"),
        ("serve.handle_ms_p50.whatif", "serve.handle.whatif"),
        ("serve.handle_ms_p50.capacity", "serve.handle.capacity"),
    ] {
        let (v, n) = p50(span);
        m.set_stat(name, v, n);
    }
    let (v, n) = p50("dist.probe");
    m.set_stat("dist.probe_ms_p50", v, n);
    let (v, n) = p50("dist.profile");
    m.set_stat("dist.profile_ms_p50", v, n);
    let builds = durations_ms(spans, "workload.population_build");
    m.set_stat(
        "workload.population_build_s",
        builds.iter().fold(0.0, |a, b| a + b) / 1e3,
        builds.len(),
    );
    m.set("trace.spans", spans.len() as f64);
}

/// Per-layer metrics from the effort counters the solver APIs return.
pub fn layers_from_effort(m: &mut Metrics, e: &Effort) {
    let mut water = e.eq;
    water.merge(&e.game);
    let solves = water.solves as f64;
    m.set("eq.solves", solves);
    m.set_ratio(
        "eq.lambda_evals_per_solve",
        water.lambda_evals as f64,
        solves,
    );
    m.set_ratio(
        "eq.segment_probes_per_solve",
        water.segment_probes as f64,
        solves,
    );
    m.set_ratio(
        "eq.bisect_iters_per_solve",
        water.bisect_iters as f64,
        solves,
    );
    m.set_ratio("eq.warm_hit_ratio", water.warm_hits as f64, solves);
    let points = e.game_points as f64;
    m.set("core.game_points", points);
    m.set_ratio("core.solves_per_game_point", e.game.solves as f64, points);
    m.set_ratio(
        "core.lambda_evals_per_game_point",
        e.game.lambda_evals as f64,
        points,
    );
    let runs = e.sim_runs as f64;
    m.set("netsim.runs", runs);
    m.set_ratio("netsim.classes_per_run", e.sim_classes as f64, runs);
    m.set_ratio("netsim.updates_per_run", e.sim_updates as f64, runs);
    m.set_ratio(
        "netsim.ns_per_update",
        e.sim_ns as f64,
        e.sim_updates as f64,
    );
    m.set_ratio(
        "demand.profile_ns_per_cp",
        e.profile_ns as f64,
        e.profile_cps as f64,
    );
}

fn counter(v: &Value, key: &str) -> f64 {
    v.get(key).and_then(Value::as_f64).unwrap_or(0.0)
}

/// Per-layer request-path counters from two `/v1/stats` snapshots.
pub fn layers_from_stats(m: &mut Metrics, before: &Value, after: &Value) {
    let d = |key: &str| counter(after, key) - counter(before, key);
    let lookups = d("cache_hits") + d("cache_misses");
    m.set_ratio("serve.cache_hit_ratio", d("cache_hits"), lookups);
    m.set_ratio(
        "serve.keepalive_reuse_ratio",
        d("keepalive_reuses"),
        d("requests"),
    );
    m.set("serve.shed", d("shed"));
    m.set("serve.degraded_served", d("degraded_served"));
    m.set("serve.worker_panics", d("worker_panics"));
}

/// Generator metrics of an open-loop window.
pub fn layers_from_generator(m: &mut Metrics, window: &Window) {
    let lags: Vec<f64> = window.samples.iter().map(|s| s.lag_ms).collect();
    m.set_stat("loadgen.lag_ms_p99", percentile_of(&lags, 99.0), lags.len());
    let lat = window.latencies_ms();
    m.set_stat(
        "loadgen.latency_p99_ms",
        percentile_of(&lat, 99.0),
        lat.len(),
    );
    m.set("loadgen.latency_samples", lat.len() as f64);
}

/// Tracing overhead: how much worse the traced phase's end-to-end
/// numbers are than the untraced phase's, in percent.
pub fn tracing_overhead(m: &mut Metrics, untraced: &Metrics, traced: &Metrics) -> String {
    let pct = |worse: f64, base: f64| {
        if base > 0.0 {
            100.0 * worse / base
        } else {
            0.0
        }
    };
    let g0 = untraced.get("goodput_per_s");
    let g1 = traced.get("goodput_per_s");
    let l0 = untraced.get("latency_p50_ms");
    let l1 = traced.get("latency_p50_ms");
    m.set("trace.goodput_overhead_pct", pct(g0 - g1, g0));
    m.set("trace.latency_p50_overhead_pct", pct(l1 - l0, l0));
    format!(
        "tracing overhead: goodput {g0:.4} -> {g1:.4} ops/s ({:+.2}%), latency p50 {l0:.4} -> {l1:.4} ms ({:+.2}%)",
        -pct(g0 - g1, g0),
        pct(l1 - l0, l0)
    )
}

/// A per-layer metric set with every name zeroed.
pub fn per_layer() -> Metrics {
    Metrics::new(&PER_LAYER)
}

/// Human-readable self-time shares of a traced run, largest first.
pub fn share_note(spans: &[Span]) -> String {
    let selfs = layer_self_ns(spans);
    let total: u64 = selfs.values().sum();
    let mut v: Vec<_> = selfs.into_iter().collect();
    v.sort_by_key(|&(_, ns)| std::cmp::Reverse(ns));
    let parts: Vec<String> = v
        .iter()
        .map(|(l, ns)| {
            format!(
                "{l} {:.1}% ({:.1} ms)",
                100.0 * *ns as f64 / total.max(1) as f64,
                *ns as f64 / 1e6
            )
        })
        .collect();
    format!("self time by layer: {}", parts.join(", "))
}
