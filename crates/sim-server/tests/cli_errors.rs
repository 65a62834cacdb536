//! Argument errors of the two service binaries: each exits nonzero with
//! one line that starts with the binary's name, before binding
//! anything; `--help` exits 0.

use std::process::{Command, Output};

const SIM_SERVER: &str = env!("CARGO_BIN_EXE_sim_server");
const SIM_ROUTER: &str = env!("CARGO_BIN_EXE_sim_router");

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin).args(args).output().unwrap()
}

/// Asserts `output` failed with a one-line diagnostic from `name`
/// that mentions `needle`.
fn assert_diagnostic(output: &Output, name: &str, needle: &str) {
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(!output.status.success(), "expected failure, got success; stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "binary panicked: {stderr}");
    assert_eq!(stderr.trim_end().lines().count(), 1, "want one-line diagnostic, got: {stderr}");
    assert!(stderr.starts_with(&format!("{name}: ")), "{stderr:?} does not start with {name}");
    assert!(stderr.contains(needle), "diagnostic {stderr:?} misses {needle:?}");
}

#[test]
fn service_binaries_reject_bad_arguments_in_one_line() {
    let cases: [(&str, &str, &[&str], &str); 5] = [
        (SIM_SERVER, "sim_server", &["--workers", "0"], "--workers must be positive"),
        (SIM_SERVER, "sim_server", &["--bogus"], "unknown argument \"--bogus\""),
        (SIM_ROUTER, "sim_router", &["--backend", "127.0.0.1:1", "--bogus"], "unknown argument"),
        (SIM_ROUTER, "sim_router", &["--workers", "0"], "unknown argument \"--workers\""),
        (SIM_ROUTER, "sim_router", &[], "at least one --backend is required"),
    ];
    for (bin, name, args, needle) in cases {
        assert_diagnostic(&run(bin, args), name, needle);
    }
}

#[test]
fn service_binaries_print_usage_on_help() {
    for (bin, name) in [(SIM_SERVER, "sim_server"), (SIM_ROUTER, "sim_router")] {
        let output = run(bin, &["--help"]);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(output.status.success(), "{name} --help failed: {stderr}");
        assert!(stderr.starts_with(&format!("usage: {name}")), "{stderr:?}");
    }
}
