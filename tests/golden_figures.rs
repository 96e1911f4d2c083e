//! Golden regression fixtures for Figures 2–5.
//!
//! The performance work on the equilibrium kernel (sorted-prefix
//! water-filling, warm-started sweeps) must not change the paper curves.
//! These tests pin the figure CSVs against fixtures captured from the
//! seed solver (`tests/golden/fig{2,3,4,5}.json`): each test reruns the
//! figure through the public `run_figure` entry point with the exact
//! configuration recorded in the fixture and compares every cell within
//! a small tolerance (the equilibrium water levels are only determined
//! to the solver tolerance, so bitwise equality across solver rewrites
//! is not a meaningful requirement — staying within a few multiples of
//! that tolerance is).
//!
//! Regenerating (only when a numeric change is *intended*):
//!
//! ```text
//! cargo test --release --test golden_figures -- --ignored regenerate
//! ```
//!
//! Figures 4 and 5 are captured at `--scale 100` (a 100-CP ensemble with
//! rescaled capacity grids) so the equilibrium-heavy sweeps stay cheap
//! enough for debug-mode `cargo test -q`; fig2/fig3 use fixed workloads
//! and run at their fast grids.

use pubopt_experiments::{run_figure, Config, FigureStatus};
use pubopt_obs::json::{self, Value};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Per-cell agreement budget: |a − b| ≤ ATOL + RTOL·max(|a|, |b|).
/// Equilibrium sweeps solve water levels to 1e-6 (`Tolerance::COARSE` in
/// fig5) so curve values are only defined to that order; these budgets
/// sit a decade above it while still catching any CP-level behaviour
/// change (a single premium/ordinary flip at 100 CPs moves Ψ by ~1%).
const ATOL: f64 = 1e-6;
const RTOL: f64 = 1e-5;

/// The pinned figures: (id, population scale for ensemble workloads).
const GOLDEN: &[(&str, Option<usize>)] = &[
    ("fig2", None),
    ("fig3", None),
    ("fig4", Some(100)),
    ("fig5", Some(100)),
];

fn fixture_path(id: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{id}.json"))
}

/// Each capture writes its CSVs to a directory of its own: tests run
/// concurrently, and two captures of one figure must never read each
/// other's half-written files.
fn golden_config(id: &str, scale: Option<usize>) -> Config {
    static CAPTURES: AtomicUsize = AtomicUsize::new(0);
    let capture = CAPTURES.fetch_add(1, Ordering::Relaxed);
    Config {
        out_dir: std::env::temp_dir().join(format!(
            "pubopt-golden-{id}-{}-{capture}",
            std::process::id()
        )),
        fast: true,
        threads: 4,
        scale,
        ..Config::default()
    }
}

/// Run the figure and capture every CSV it wrote as (name, headers, rows).
fn capture(id: &str, scale: Option<usize>) -> Vec<(String, Vec<String>, Vec<Vec<f64>>)> {
    let config = golden_config(id, scale);
    let result = run_figure(id, &config);
    assert_ne!(
        result.status,
        FigureStatus::Failed,
        "{id}: sweep unusable, cannot capture/verify goldens"
    );
    let tables = result
        .files
        .iter()
        .map(|path| {
            let text = std::fs::read_to_string(path)
                .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
            let mut lines = text.lines();
            let headers: Vec<String> = lines
                .next()
                .expect("csv header")
                .split(',')
                .map(str::to_string)
                .collect();
            let rows: Vec<Vec<f64>> = lines
                .map(|l| l.split(',').map(|v| v.parse().expect("csv cell")).collect())
                .collect();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            (name, headers, rows)
        })
        .collect();
    // Best effort: a leftover directory only costs temp space.
    let _ = std::fs::remove_dir_all(&config.out_dir);
    tables
}

fn to_fixture(id: &str, scale: Option<usize>) -> Value {
    let tables = capture(id, scale)
        .into_iter()
        .map(|(name, headers, rows)| {
            Value::Object(vec![
                ("file".into(), Value::from(name)),
                (
                    "headers".into(),
                    Value::Array(headers.into_iter().map(Value::from).collect()),
                ),
                (
                    "rows".into(),
                    Value::Array(rows.into_iter().map(Value::from).collect()),
                ),
            ])
        })
        .collect();
    Value::Object(vec![
        ("schema".into(), Value::from("pubopt-golden/v1")),
        ("figure".into(), Value::from(id)),
        ("fast".into(), Value::from(true)),
        (
            "scale".into(),
            scale.map_or(Value::Null, |n| Value::from(n as u64)),
        ),
        ("tables".into(), Value::Array(tables)),
    ])
}

fn check_against_fixture(id: &str, scale: Option<usize>) {
    let path = fixture_path(id);
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {} ({e}); regenerate with \
             `cargo test --release --test golden_figures -- --ignored regenerate`",
            path.display()
        )
    });
    let fixture = json::parse(&text).expect("fixture parses");
    assert_eq!(fixture["figure"].as_str(), Some(id), "fixture id mismatch");
    let want_scale = fixture["scale"].as_u64().map(|n| n as usize);
    assert_eq!(want_scale, scale, "{id}: fixture captured at another scale");

    let got = capture(id, scale);
    let want = fixture["tables"].as_array().expect("tables array");
    assert_eq!(got.len(), want.len(), "{id}: table count changed");
    for ((name, headers, rows), w) in got.iter().zip(want) {
        assert_eq!(w["file"].as_str(), Some(name.as_str()), "{id}: file name");
        let want_headers: Vec<&str> = w["headers"]
            .as_array()
            .unwrap()
            .iter()
            .map(|h| h.as_str().unwrap())
            .collect();
        assert_eq!(
            headers.iter().map(String::as_str).collect::<Vec<_>>(),
            want_headers,
            "{id}/{name}: headers changed"
        );
        let want_rows = w["rows"].as_array().unwrap();
        assert_eq!(
            rows.len(),
            want_rows.len(),
            "{id}/{name}: row count changed"
        );
        let mut worst = 0.0f64;
        for (r, (row, wrow)) in rows.iter().zip(want_rows).enumerate() {
            let wrow = wrow.as_array().unwrap();
            assert_eq!(row.len(), wrow.len(), "{id}/{name} row {r}: width");
            for (c, (&a, wb)) in row.iter().zip(wrow).enumerate() {
                let b = wb.as_f64().unwrap();
                let err = (a - b).abs();
                let budget = ATOL + RTOL * a.abs().max(b.abs());
                worst = worst.max(err - budget);
                assert!(
                    err <= budget,
                    "{id}/{name} row {r} col {c} ({}): {a} vs golden {b} \
                     (err {err:.3e} > budget {budget:.3e})",
                    headers[c]
                );
            }
        }
        assert!(worst <= 0.0, "{id}/{name}: tolerance exceeded");
    }
}

#[test]
fn fig2_matches_golden() {
    check_against_fixture("fig2", None);
}

#[test]
fn fig3_matches_golden() {
    check_against_fixture("fig3", None);
}

#[test]
fn fig4_matches_golden() {
    check_against_fixture("fig4", Some(100));
}

#[test]
fn fig5_matches_golden() {
    check_against_fixture("fig5", Some(100));
}

/// Two captures of one figure at the same time must not share output
/// files (each would otherwise read the other's half-written CSVs).
#[test]
fn concurrent_captures_of_one_figure_match_golden() {
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..2)
            .map(|_| s.spawn(|| check_against_fixture("fig2", None)))
            .collect();
        for w in workers {
            if let Err(panic) = w.join() {
                std::panic::resume_unwind(panic);
            }
        }
    });
}

/// End-to-end bit-identity guard for the columnar demand kernels.
///
/// The per-cell tolerance tests above allow solver rewrites to move the
/// curves within the solve tolerance. The columnar evaluator makes a much
/// stronger promise — it replays the scalar arithmetic bit-for-bit — so
/// with every figure now routed through the batch kernels, the serialized
/// fixture must come out *byte-for-byte* identical to the committed file.
/// Any byte diff here means a batch kernel silently changed a rounding.
#[test]
fn columnar_path_reproduces_fixtures_byte_for_byte() {
    for &(id, scale) in GOLDEN {
        let path = fixture_path(id);
        let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "missing golden fixture {} ({e}); regenerate with \
                 `cargo test --release --test golden_figures -- --ignored regenerate`",
                path.display()
            )
        });
        let got = format!("{}\n", to_fixture(id, scale));
        if got != want {
            let byte = got
                .bytes()
                .zip(want.bytes())
                .position(|(a, b)| a != b)
                .unwrap_or_else(|| got.len().min(want.len()));
            let lo = byte.saturating_sub(60);
            panic!(
                "{id}: columnar recompute differs from {} at byte {byte}\n  \
                 golden:   …{}…\n  recomputed: …{}…",
                path.display(),
                &want[lo..(byte + 60).min(want.len())],
                &got[lo..(byte + 60).min(got.len())],
            );
        }
    }
}

/// Rewrite every fixture from the current solver. Run only when a numeric
/// change is intended, and review the diff.
#[test]
#[ignore = "rewrites the golden fixtures; run explicitly when a numeric change is intended"]
fn regenerate() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    std::fs::create_dir_all(&dir).expect("create tests/golden");
    for &(id, scale) in GOLDEN {
        let fixture = to_fixture(id, scale);
        let path = fixture_path(id);
        std::fs::write(&path, format!("{fixture}\n")).expect("write fixture");
        eprintln!("wrote {}", path.display());
    }
}
