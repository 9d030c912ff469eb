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

#[test]
fn trace_with_vcd_above_rtl_is_a_usage_error_and_writes_nothing() {
    let dir = std::env::temp_dir();
    let vcd = dir.join(format!("rtl2tlm-{}-x.vcd", std::process::id()));
    let json = dir.join(format!("rtl2tlm-{}-y.json", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_rtl2tlm"))
        .args(["trace", "--level", "tlm-at", "--vcd"])
        .arg(&vcd)
        .arg("--out")
        .arg(&json)
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(
        stderr.contains("error: --vcd is only available at the rtl level"),
        "{stderr}"
    );
    assert!(stderr.contains("USAGE:"), "{stderr}");
    assert!(!vcd.exists(), "no waveform written");
    assert!(!json.exists(), "no trace written");
    assert!(out.stdout.is_empty());
}

#[test]
fn demo_is_an_unknown_command() {
    let out = Command::new(env!("CARGO_BIN_EXE_rtl2tlm"))
        .arg("demo")
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(stderr.contains("error: unknown command `demo`"), "{stderr}");
    assert!(out.stdout.is_empty());
}

#[test]
fn abstract_on_a_deeply_nested_property_is_a_parse_error() {
    let deep = 20_000;
    let cases = [
        (
            "parens",
            format!("{}rdy{}", "(".repeat(deep), ")".repeat(deep)),
        ),
        ("bangs", format!("{}rdy", "!".repeat(deep))),
    ];
    for (name, property) in cases {
        let file = property_file(name, &format!("p: always {property} @clk_pos\n"));
        let out = Command::new(env!("CARGO_BIN_EXE_rtl2tlm"))
            .arg("abstract")
            .arg(&file)
            .output()
            .expect("binary runs");
        let _ = std::fs::remove_file(&file);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{name}: {stderr}");
        assert!(
            stderr.contains(&format!(
                "error: line 1: property nests deeper than {} levels at byte",
                psl::parser::MAX_DEPTH
            )),
            "{name}: {stderr}"
        );
        assert!(!stderr.contains("overflow"), "{name}: {stderr}");
        assert!(out.stdout.is_empty());
    }
}

#[test]
fn abstract_with_an_overflowing_epsilon_exits_with_an_error() {
    let file = property_file(
        "eps-overflow",
        "p: always (a -> next[4294967295] b) @clk_pos\n",
    );
    let out = Command::new(env!("CARGO_BIN_EXE_rtl2tlm"))
        .arg("abstract")
        .arg(&file)
        .args(["--clock-period", "18446744073709551615"])
        .output()
        .expect("binary runs");
    let _ = std::fs::remove_file(&file);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(
        stderr.contains(
            "error: p: epsilon of next[4294967295] at a 18446744073709551615 ns clock period \
             overflows 64-bit nanoseconds"
        ),
        "{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(out.stdout.is_empty());
}

#[test]
fn campaign_with_an_unaddressable_run_count_exits_with_an_error() {
    for (checkers, cells) in [("with", 1), ("both", 2)] {
        let out = Command::new(env!("CARGO_BIN_EXE_rtl2tlm"))
            .args(["campaign", "--runs", "18446744073709551615", "--checkers"])
            .arg(checkers)
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{checkers}: {stderr}");
        assert!(
            stderr.contains(&format!(
                "error: campaign plan has too many runs: {cells} cells x 18446744073709551615 \
                 runs per cell"
            )),
            "{checkers}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{checkers}: {stderr}");
        assert!(out.stdout.is_empty());
    }
}
