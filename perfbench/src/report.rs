//! Metric catalogue, result rendering and provenance.

use std::fmt::Write as _;
use std::path::Path;
use std::process::Command;

/// End-to-end metrics: `(name, unit)`, printed by every untraced run.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("goodput_per_s", "ops/s"),
    ("latency_p50_ms", "ms"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: `(name, unit)`, printed by every traced run. A
/// layer a workload does not reach reports 0 with 0 samples.
pub const PER_LAYER: [(&str, &str); 50] = [
    ("demand.profile_ns_per_cp", "ns"),
    ("demand.shard_lambda_ns_per_cp", "ns"),
    ("demand.self_share", "ratio"),
    ("eq.solves", "count"),
    ("eq.solve_ms_p50", "ms"),
    ("eq.lambda_evals_per_solve", "count"),
    ("eq.segment_probes_per_solve", "count"),
    ("eq.bisect_iters_per_solve", "count"),
    ("eq.warm_hit_ratio", "ratio"),
    ("eq.self_share", "ratio"),
    ("core.game_points", "count"),
    ("core.game_point_ms_p50", "ms"),
    ("core.game_point_ms_p90", "ms"),
    ("core.solves_per_game_point", "count"),
    ("core.lambda_evals_per_game_point", "count"),
    ("core.self_share", "ratio"),
    ("netsim.runs", "count"),
    ("netsim.run_ms_p50", "ms"),
    ("netsim.classes_per_run", "count"),
    ("netsim.updates_per_run", "count"),
    ("netsim.ns_per_update", "ns"),
    ("netsim.self_share", "ratio"),
    ("sched.busy_frac", "ratio"),
    ("sched.idle_ms", "ms"),
    ("serve.parse_us_p50", "us"),
    ("serve.cache_get_us_p50", "us"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.handle_ms_p50.equilibrium", "ms"),
    ("serve.handle_ms_p50.strategy", "ms"),
    ("serve.handle_ms_p50.whatif", "ms"),
    ("serve.handle_ms_p50.capacity", "ms"),
    ("serve.transport_us_p50", "us"),
    ("serve.keepalive_reuse_ratio", "ratio"),
    ("serve.shed", "count"),
    ("serve.degraded_served", "count"),
    ("serve.worker_panics", "count"),
    ("serve.self_share", "ratio"),
    ("dist.rpcs_per_solve", "count"),
    ("dist.probe_ms_p50", "ms"),
    ("dist.profile_ms_p50", "ms"),
    ("dist.shard_compute_ms_p50", "ms"),
    ("dist.rpc_overhead_ms_p50", "ms"),
    ("dist.self_share", "ratio"),
    ("workload.population_build_s", "s"),
    ("loadgen.lag_ms_p99", "ms"),
    ("loadgen.latency_p99_ms", "ms"),
    ("loadgen.latency_samples", "count"),
    ("trace.goodput_overhead_pct", "%"),
    ("trace.latency_p50_overhead_pct", "%"),
    ("trace.spans", "count"),
];

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Catalogue name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Samples behind the value, where it is a statistic of samples.
    pub samples: Option<usize>,
}

/// A metric set being filled in: every catalogue name starts at 0.
#[derive(Debug, Clone)]
pub struct Metrics(Vec<Metric>);

impl Metrics {
    /// All names of `catalogue`, zeroed.
    pub fn new(catalogue: &[(&'static str, &'static str)]) -> Self {
        Metrics(
            catalogue
                .iter()
                .map(|&(name, unit)| Metric {
                    name,
                    unit,
                    value: 0.0,
                    samples: Some(0),
                })
                .collect(),
        )
    }

    fn slot(&mut self, name: &str) -> &mut Metric {
        self.0
            .iter_mut()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"))
    }

    /// Set a plain value.
    pub fn set(&mut self, name: &str, value: f64) {
        let m = self.slot(name);
        m.value = value;
        m.samples = None;
    }

    /// Set a statistic of `samples` samples.
    pub fn set_stat(&mut self, name: &str, value: f64, samples: usize) {
        let m = self.slot(name);
        m.value = value;
        m.samples = Some(samples);
    }

    /// Set a ratio `num / den` (0 when `den` is 0), keeping `den` as the
    /// base it was taken over.
    pub fn set_ratio(&mut self, name: &str, num: f64, den: f64) {
        let v = if den > 0.0 { num / den } else { 0.0 };
        self.set_stat(name, v, den as usize);
    }

    /// The value of `name`.
    pub fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value)
    }

    /// All metrics in catalogue order.
    pub fn all(&self) -> &[Metric] {
        &self.0
    }
}

/// JSON string literal.
pub fn jstr(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// JSON number with every digit Rust's shortest round-trip form gives;
/// non-finite values have no JSON form and render as `null`.
pub fn jnum(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_owned()
    }
}

/// JSON object from pre-rendered values.
pub fn jobj(fields: &[(&str, String)]) -> String {
    let inner: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}:{v}", jstr(k)))
        .collect();
    format!("{{{}}}", inner.join(","))
}

/// The `metrics` object of the result line.
pub fn metrics_json(m: &Metrics) -> String {
    let fields: Vec<(&str, String)> = m
        .all()
        .iter()
        .map(|x| {
            (
                x.name,
                jobj(&[("value", jnum(x.value)), ("unit", jstr(x.unit))]),
            )
        })
        .collect();
    jobj(&fields)
}

/// The same metrics with their sample counts, for the results file.
pub fn metrics_detail_json(m: &Metrics) -> String {
    let fields: Vec<(&str, String)> = m
        .all()
        .iter()
        .map(|x| {
            let samples = x.samples.map_or("null".to_owned(), |n| n.to_string());
            (
                x.name,
                jobj(&[
                    ("value", jnum(x.value)),
                    ("unit", jstr(x.unit)),
                    ("samples", samples),
                ]),
            )
        })
        .collect();
    jobj(&fields)
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
}

/// 64-bit FNV-1a.
fn fnv(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

fn digest_dir(dir: &Path, hash: &mut u64) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<_> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for p in paths {
        if p.is_dir() {
            digest_dir(&p, hash);
        } else if let Ok(bytes) = std::fs::read(&p) {
            fnv(hash, p.to_string_lossy().as_bytes());
            fnv(hash, &bytes);
        }
    }
}

/// Digest of the source the benchmark built: it identifies the code
/// under test where no git metadata is present.
pub fn source_digest() -> String {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for f in ["Cargo.toml", "Cargo.lock"] {
        if let Ok(bytes) = std::fs::read(f) {
            fnv(&mut hash, f.as_bytes());
            fnv(&mut hash, &bytes);
        }
    }
    digest_dir(Path::new("crates"), &mut hash);
    digest_dir(Path::new("perfbench/src"), &mut hash);
    format!("{hash:016x}")
}

/// What produced a result: host, code, toolchain and generator settings.
pub struct Provenance {
    /// Logical CPUs available.
    pub nproc: usize,
    /// Load-generator threads.
    pub gen_threads: usize,
    /// Load-generator connections.
    pub gen_connections: usize,
    /// Flags of each daemon started for the measured phase.
    pub daemon_flags: Vec<Vec<String>>,
}

impl Provenance {
    /// Render with the run's identity.
    pub fn json(&self, workload: &str, seed: u64, seconds: f64, trace: bool) -> String {
        // Only this checkout's own metadata: git would otherwise report
        // whatever repository happens to enclose it.
        let git = |args: &[&str]| {
            Path::new(".git")
                .exists()
                .then(|| command_line("git", args))
                .flatten()
        };
        let git_rev = git(&["rev-parse", "HEAD"]);
        let dirty = git(&["status", "--porcelain", "--untracked-files=no"])
            .map(|s| (!s.is_empty()).to_string());
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo").ok().and_then(|c| {
            c.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|l| l.trim_start_matches([' ', '\t', ':']).to_owned())
        });
        let opt = |s: Option<String>| s.map_or("null".to_owned(), |s| jstr(&s));
        let flags: Vec<String> = self
            .daemon_flags
            .iter()
            .map(|f| {
                format!(
                    "[{}]",
                    f.iter().map(|a| jstr(a)).collect::<Vec<_>>().join(",")
                )
            })
            .collect();
        let unix_ms = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_millis());
        jobj(&[
            ("workload", jstr(workload)),
            ("seed", seed.to_string()),
            ("seconds", jnum(seconds)),
            ("trace", trace.to_string()),
            ("unix_ms", unix_ms.to_string()),
            ("nproc", self.nproc.to_string()),
            ("cpu_model", opt(cpu_model)),
            ("git_rev", opt(git_rev)),
            ("git_dirty", dirty.unwrap_or_else(|| "null".to_owned())),
            ("source_digest", jstr(&source_digest())),
            ("rustc", opt(command_line("rustc", &["--version"]))),
            ("generator_threads", self.gen_threads.to_string()),
            ("generator_connections", self.gen_connections.to_string()),
            ("daemon_flags", format!("[{}]", flags.join(","))),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_rendering() {
        assert_eq!(jstr("a\"b\\c\n"), r#""a\"b\\c\n""#);
        assert_eq!(jnum(1.25), "1.25");
        assert_eq!(jnum(3.0), "3");
        assert_eq!(jnum(f64::NAN), "null");
        assert_eq!(jobj(&[("x", "1".into())]), r#"{"x":1}"#);
        let mut m = Metrics::new(&END_TO_END);
        m.set("setup_s", 0.5);
        let v = pubopt_obs::json::parse(&metrics_json(&m)).unwrap();
        assert_eq!(v["setup_s"]["value"].as_f64(), Some(0.5));
        assert_eq!(v["peak_rss_mb"]["unit"].as_str(), Some("MB"));
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json next to the benchmark directory");
        let v = pubopt_obs::json::parse(&text).unwrap();
        let listed = |key: &str| -> Vec<(String, String)> {
            v[key]
                .as_array()
                .unwrap()
                .iter()
                .map(|m| {
                    (
                        m["name"].as_str().unwrap().to_owned(),
                        m["unit"].as_str().unwrap().to_owned(),
                    )
                })
                .collect()
        };
        let own = |c: &[(&str, &str)]| -> Vec<(String, String)> {
            c.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), own(&END_TO_END));
        assert_eq!(listed("per_layer"), own(&PER_LAYER));
        let workloads: Vec<&str> = v["workloads"]
            .as_array()
            .unwrap()
            .iter()
            .map(|w| w["name"].as_str().unwrap())
            .collect();
        assert_eq!(workloads, crate::WORKLOADS);
    }
}
