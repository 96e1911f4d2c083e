//! The repository benchmark: four seeded workloads against the release
//! `pubopt-serve` daemon and the figure harness, with end-to-end metrics
//! on untraced runs and per-layer metrics on traced runs.
//!
//! ```text
//! perfbench --serve-bin PATH --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root (normally through `perfbench/run.sh`,
//! which builds both binaries). Human-readable lines come first; the last
//! line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. Every run also writes a results
//! file with its provenance under `.perfbench/results/`, and a traced run
//! writes its spans to `.perfbench/traces/<workload>.spans.csv`. The exit
//! code is 0 for a correct run, 1 when a correctness check failed and 2
//! when the run could not be made.

mod common;
mod daemon;
mod dist;
mod figure;
mod gen;
mod hot;
mod http;
mod load;
mod mix;
mod replay;
mod report;
mod stats;
mod trace;

use common::{Ctx, Outcome};
use report::{jnum, jobj, jstr, metrics_detail_json, metrics_json, Provenance};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = ["solve-mix", "hot-cache", "figure-grid", "dist-solve"];

/// Where results and traces go, relative to the repository root.
const OUT_DIR: &str = ".perfbench";

struct Args {
    serve_bin: PathBuf,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut serve_bin = None;
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--serve-bin" => serve_bin = Some(PathBuf::from(value()?)),
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => {
                seconds = Some(
                    value()?
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0 && s.is_finite())
                        .ok_or("--seconds takes a positive number")?,
                )
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        serve_bin: serve_bin.ok_or("--serve-bin is required")?,
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn run(args: &Args, ctx: &Ctx) -> std::io::Result<Outcome> {
    match (args.workload.as_str(), args.trace) {
        ("solve-mix", false) => mix::run(ctx),
        ("solve-mix", true) => mix::run_traced(ctx),
        ("hot-cache", false) => hot::run(ctx),
        ("hot-cache", true) => hot::run_traced(ctx),
        ("figure-grid", false) => figure::run(ctx),
        ("figure-grid", true) => figure::run_traced(ctx),
        ("dist-solve", false) => dist::run(ctx),
        ("dist-solve", true) => dist::run_traced(ctx),
        _ => unreachable!("workload validated in parse_args"),
    }
}

fn write_results(args: &Args, out: &Outcome, nproc: usize) -> std::io::Result<PathBuf> {
    let results = Path::new(OUT_DIR).join("results");
    std::fs::create_dir_all(&results)?;
    let provenance = Provenance {
        nproc,
        gen_threads: out.gen_threads,
        gen_connections: out.gen_connections,
        daemon_flags: out.daemon_flags.clone(),
    };
    let unix_ms = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_millis());
    let path = results.join(format!(
        "{}-seed{}-trace{}-{unix_ms}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    let problems: Vec<String> = out.problems.iter().map(|p| jstr(p)).collect();
    let notes: Vec<String> = out.notes.iter().map(|n| jstr(n)).collect();
    let body = jobj(&[
        ("schema", jstr("perfbench/v1")),
        (
            "provenance",
            provenance.json(&args.workload, args.seed, args.seconds, args.trace),
        ),
        ("correct", out.problems.is_empty().to_string()),
        ("attempted", out.attempted.to_string()),
        ("failed", out.failed.to_string()),
        ("problems", format!("[{}]", problems.join(","))),
        ("notes", format!("[{}]", notes.join(","))),
        ("metrics", metrics_detail_json(&out.metrics)),
    ]);
    std::fs::write(&path, body + "\n")?;
    if args.trace {
        let traces = Path::new(OUT_DIR).join("traces");
        std::fs::create_dir_all(&traces)?;
        trace::write_spans(
            &traces.join(format!("{}.spans.csv", args.workload)),
            &out.spans,
        )?;
    }
    Ok(path)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if !args.serve_bin.is_file() {
        eprintln!(
            "perfbench: no daemon binary at {}",
            args.serve_bin.display()
        );
        return ExitCode::from(2);
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let ctx = Ctx {
        serve_bin: args.serve_bin.clone(),
        seed: args.seed,
        seconds: args.seconds,
        nproc,
        work_dir: PathBuf::from(OUT_DIR).join("work"),
    };
    let out = match run(&args, &ctx) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::from(2);
        }
    };
    println!(
        "perfbench {} seed {} ({} s, trace {}, nproc {nproc})",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for m in out.metrics.all() {
        let samples = m.samples.map(|n| format!(" (n={n})")).unwrap_or_default();
        println!("  {} = {} {}{samples}", m.name, jnum(m.value), m.unit);
    }
    println!("  attempted = {}, failed = {}", out.attempted, out.failed);
    for note in &out.notes {
        println!("  {note}");
    }
    for p in &out.problems {
        println!("  CHECK FAILED: {p}");
    }
    match write_results(&args, &out, nproc) {
        Ok(path) => println!("  results: {}", path.display()),
        Err(e) => eprintln!("perfbench: could not write results: {e}"),
    }
    let correct = out.problems.is_empty();
    println!(
        "{}",
        jobj(&[
            ("correct", correct.to_string()),
            ("attempted", out.attempted.to_string()),
            ("failed", out.failed.to_string()),
            ("metrics", metrics_json(&out.metrics)),
        ])
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
