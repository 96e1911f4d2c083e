//! `repro` writes one `report.jsonl` line per figure, with a fixed key
//! set that tools downstream of the figure run read.

use pubopt_obs::json::{parse, Value};
use std::process::Command;

#[test]
fn repro_fig2_writes_one_ok_report_line_with_the_fixed_keys() {
    let out = std::env::temp_dir().join(format!("pubopt-repro-report-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&out);
    let run = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("fig2")
        .arg("--out")
        .arg(&out)
        .output()
        .expect("run repro");
    assert!(
        run.status.success(),
        "repro fig2 failed: {}",
        String::from_utf8_lossy(&run.stderr)
    );

    let text = std::fs::read_to_string(out.join("report.jsonl")).expect("read report.jsonl");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 1, "one figure, one line: {text}");
    let line = parse(lines[0]).expect("report line is JSON");
    let Value::Object(fields) = &line else {
        panic!("report line is not an object: {text}");
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "figure",
            "date",
            "wall_s",
            "status",
            "recovered_points",
            "failed_points",
            "passed",
            "checks",
            "files"
        ]
    );
    assert_eq!(line["figure"].as_str(), Some("fig2"));
    assert_eq!(line["status"].as_str(), Some("ok"));
    assert_eq!(line["passed"].as_bool(), Some(true));
    let files = line["files"].as_array().expect("files is an array");
    assert!(!files.is_empty(), "fig2 writes at least one file");
    for f in files {
        let path = f.as_str().expect("file paths are strings");
        assert!(
            std::path::Path::new(path).is_file(),
            "listed file {path} is missing"
        );
    }
    std::fs::remove_dir_all(&out).expect("remove the output directory");
}
