//! The `rtl2tlm` binary turns bad input into a structured error and a
//! nonzero exit, never a panic.

use std::path::PathBuf;
use std::process::Command;

/// Writes `text` to a per-process temporary property file.
fn property_file(name: &str, text: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("rtl2tlm-{}-{name}.psl", std::process::id()));
    std::fs::write(&path, text).expect("temp dir is writable");
    path
}

#[test]
fn abstract_with_zero_clock_period_exits_with_an_error() {
    let file = property_file("zero-period", "p: always (!ds || next[2] rdy) @clk_pos\n");
    let out = Command::new(env!("CARGO_BIN_EXE_rtl2tlm"))
        .arg("abstract")
        .arg(&file)
        .args(["--clock-period", "0"])
        .output()
        .expect("binary runs");
    let _ = std::fs::remove_file(&file);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(
        stderr.contains("error: --clock-period: clock period must be positive"),
        "{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(out.stdout.is_empty());
}

#[test]
fn abstract_with_positive_clock_period_succeeds() {
    let file = property_file("ten-ns", "p: always (!ds || next[2] rdy) @clk_pos\n");
    let out = Command::new(env!("CARGO_BIN_EXE_rtl2tlm"))
        .arg("abstract")
        .arg(&file)
        .args(["--clock-period", "10"])
        .output()
        .expect("binary runs");
    let _ = std::fs::remove_file(&file);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("next_et[1, 20] rdy"), "{stdout}");
}
