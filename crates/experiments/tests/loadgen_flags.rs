//! `loadgen` refuses a flag its mode would silently ignore, and does so
//! before any daemon starts.

use std::process::Command;

#[test]
fn loadgen_rejects_flags_its_mode_ignores() {
    let cases: &[(&[&str], &str)] = &[
        (&["--spawn", "--deadline-ms", "1"], "--deadline-ms"),
        (&["--spawn", "--fault-rate", "0.2"], "--fault-rate"),
        (&["--chaos-net", "3", "--spawn"], "--spawn"),
        (&["--chaos-net", "3", "--batch", "4"], "--batch"),
        (&["--chaos-net", "3", "--rate", "5"], "--rate"),
        (&["--chaos-net", "3", "--shutdown"], "--shutdown"),
        (&["--chaos-net", "3", "--whatif", "0.5"], "--whatif"),
        (&["--chaos-net", "3", "--pipeline", "4"], "--pipeline"),
        (&["--chaos-net", "3", "--keep-alive"], "--keep-alive"),
        (&["--ab-connections", "--pipeline", "4"], "--pipeline"),
        (&["--ab-connections", "--shutdown"], "--shutdown"),
    ];
    for &(args, flag) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_loadgen"))
            .args(args)
            .output()
            .expect("run loadgen");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{args:?} must be refused");
        assert!(
            stderr.contains(flag),
            "{args:?}: the error must name {flag}, got {stderr:?}"
        );
        assert!(out.stdout.is_empty(), "{args:?} ran anyway");
    }
}
