//! The `report` binary refuses an `--out` path in a missing directory
//! as a usage error, before any experiment runs or prints.

use std::process::Command;

#[test]
fn out_in_a_missing_directory_is_a_usage_error_before_any_run() {
    let missing = std::env::temp_dir().join(format!(
        "st_bench_report_cli_{}/no/such/dir",
        std::process::id()
    ));
    assert!(!missing.exists());
    let out = Command::new(env!("CARGO_BIN_EXE_report"))
        .args(["e1", "--out"])
        .arg(missing.join("report.txt"))
        .output()
        .expect("report runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(
        out.stdout.is_empty(),
        "no experiment may run: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    assert!(stderr.contains("does not exist"), "{stderr}");
    assert!(!missing.exists());
}
