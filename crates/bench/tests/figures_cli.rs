//! The `figures` CLI rejects a figure it cannot draw instead of exiting 0
//! with empty output.

use std::process::Command;

#[test]
fn unknown_figure_is_a_usage_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(["--fig", "7"])
        .output()
        .expect("run figures");
    assert_eq!(out.status.code(), Some(2), "exit status {:?}", out.status);
    assert!(out.stdout.is_empty(), "no figure may be printed");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("usage: figures [--fig all|2|3|4|5|6|ablation]"),
        "stderr lacks the usage line: {stderr}"
    );
}
